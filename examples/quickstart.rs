//! Quickstart: enroll a bus fingerprint and authenticate it at runtime.
//!
//! This walks the paper's three operational phases (§III) on a single
//! simulated Tx-line:
//!
//! 1. **calibration** — the iTDR enrolls the line's IIP into an "EPROM";
//! 2. **monitoring** — runtime measurements are compared to the stored
//!    fingerprint;
//! 3. **reaction** — a foreign line (the impostor) is rejected.
//!
//! Run: `cargo run --release --example quickstart`

use divot::core::fingerprint::Fingerprint;
use divot::prelude::*;

fn main() {
    // Fabricate the paper's six-line prototype board. Line 0 is "our" bus;
    // line 1 plays the impostor.
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 42);
    let mut bus = BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 42);
    let mut impostor = BusChannel::new(board.line(1).clone(), FrontEndConfig::default(), 43);

    // The instrument: the paper configuration takes ~46 µs of bus time per
    // measurement on the 156.25 MHz clock lane.
    let itdr = Itdr::new(ItdrConfig::paper());

    // --- Calibration -----------------------------------------------------
    let fingerprint = itdr.enroll(&mut bus, 16);
    println!(
        "enrolled fingerprint: {} points, {} measurements averaged",
        fingerprint.iip().len(),
        fingerprint.enrollment_count()
    );

    // The fingerprint would live in a local EPROM; round-trip the codec.
    let eprom_image = fingerprint.to_eprom_bytes();
    println!("EPROM image: {} bytes", eprom_image.len());
    let restored = Fingerprint::from_eprom_bytes(&eprom_image).expect("valid image");

    // --- Monitoring ------------------------------------------------------
    let auth = Authenticator::new(AuthPolicy::default());
    let genuine_iip = itdr.measure(&mut bus);
    let decision = auth.verify(&restored, &genuine_iip);
    println!(
        "genuine bus:   similarity {:.4} -> {}",
        decision.similarity(),
        if decision.is_accept() {
            "ACCEPT"
        } else {
            "REJECT"
        }
    );
    assert!(decision.is_accept(), "the genuine bus must authenticate");

    // --- Reaction --------------------------------------------------------
    // An attacker substitutes different hardware (a different physical
    // line): the fingerprint cannot follow, because the IIP lives in the
    // copper, not in any stored secret.
    let impostor_iip = itdr.measure(&mut impostor);
    let decision = auth.verify(&restored, &impostor_iip);
    println!(
        "impostor bus:  similarity {:.4} -> {}",
        decision.similarity(),
        if decision.is_accept() {
            "ACCEPT"
        } else {
            "REJECT"
        }
    );
    assert!(!decision.is_accept(), "the impostor must be rejected");

    println!("quickstart OK");
}
