//! Detect *and locate* physical tampers along a protected bus.
//!
//! Reproduces the paper's §IV-D/E/F countermeasures interactively: attach
//! a Trojan chip, a wire-tap, and a magnetic probe to a monitored line,
//! and watch the error function `E_xy` reveal each attack and its position
//! (round-trip echo time → distance).
//!
//! Run: `cargo run --release --example tamper_localization`

use divot::core::tamper::{TamperDetector, TamperPolicy};
use divot::prelude::*;
use divot::txline::attack::Attack;
use divot::txline::units::Meters;

fn main() {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 7);
    let line_length = board.line(0).profile.length();
    let mut bus = BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 7);
    let itdr = Itdr::new(ItdrConfig::paper());

    // Enroll and calibrate the tamper threshold against the clean noise
    // floor (averaged measurements keep the floor near the paper's 5e-7).
    let fingerprint = itdr.enroll(&mut bus, 16);
    let cleans: Vec<_> = (0..4)
        .map(|_| itdr.measure_averaged(&mut bus, 16))
        .collect();
    let detector =
        TamperDetector::calibrated(TamperPolicy::default(), fingerprint.iip(), &cleans, 4.0);
    println!(
        "calibrated threshold: {:.2e} V^2 (paper floor 5e-7)",
        detector.policy().threshold
    );

    let attacks: [(&str, Attack, Option<f64>); 3] = [
        (
            "trojan chip swap (cold boot)",
            Attack::trojan_chip(99),
            Some(line_length.0),
        ),
        (
            "wire-tap to oscilloscope",
            Attack::paper_wiretap(),
            Some(0.5 * line_length.0),
        ),
        (
            "magnetic near-field probe",
            Attack::paper_magnetic_probe(),
            Some(0.7 * line_length.0),
        ),
    ];

    let clean_network = bus.network().clone();
    for (name, attack, true_location) in attacks {
        bus.apply_attack(&attack);
        let measured = itdr.measure_averaged(&mut bus, 16);
        let report = detector.scan(fingerprint.iip(), &measured);
        print!("{name}: ");
        if report.detected {
            let loc = report.location.unwrap_or(Meters(f64::NAN));
            print!(
                "DETECTED (peak E = {:.2e}, located at {:.1} cm",
                report.max_error,
                loc.0 * 100.0
            );
            if let Some(truth) = true_location {
                print!(", true position {:.1} cm", truth * 100.0);
            }
            println!(")");
        } else {
            println!("missed (max E = {:.2e})", report.max_error);
        }
        assert!(report.detected, "{name} must be detected");
        // Attacker removes the hardware; the bus returns to clean (the
        // wire-tap case would additionally leave a permanent scar — see
        // the fig9_wiretap experiment).
        bus.replace_network(clean_network.clone());
    }

    // A clean re-measurement stays quiet.
    let clean = itdr.measure_averaged(&mut bus, 16);
    let report = detector.scan(fingerprint.iip(), &clean);
    assert!(!report.detected, "clean bus must stay quiet");
    println!("clean bus: quiet (max E = {:.2e})", report.max_error);
}
