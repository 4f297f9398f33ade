//! Multi-wire authentication: fuse similarity scores across several lanes
//! of one bus (the paper's §IV-C future-work direction).
//!
//! A wide bus gives DIVOT one fingerprint per monitored lane; fusing the
//! per-lane scores multiplies the genuine/impostor separation, so even a
//! lane pair that happens to look similar across two boards cannot fool
//! the fused decision.
//!
//! Run: `cargo run --release --example multiwire_bus`

use divot::core::auth::{AuthPolicy, Authenticator};
use divot::prelude::*;

fn main() {
    // Two boards: ours and an attacker's pin-compatible clone.
    let ours = Board::fabricate(&BoardConfig::paper_prototype(), 1);
    let clone = Board::fabricate(&BoardConfig::paper_prototype(), 2);
    let itdr = Itdr::new(ItdrConfig::paper());
    let auth = Authenticator::new(AuthPolicy::default());
    let lanes = 4;

    // Enroll all four lanes of our bus.
    let mut our_channels: Vec<_> = (0..lanes)
        .map(|i| {
            BusChannel::new(
                ours.line(i).clone(),
                FrontEndConfig::default(),
                10 + i as u64,
            )
        })
        .collect();
    let fingerprints: Vec<Fingerprint> = our_channels
        .iter_mut()
        .map(|ch| itdr.enroll(ch, 8))
        .collect();

    // Genuine fused check.
    let genuine: Vec<_> = our_channels.iter_mut().map(|ch| itdr.measure(ch)).collect();
    let lanes_ref: Vec<_> = fingerprints.iter().zip(&genuine).collect();
    let decision = auth.verify_fused(&lanes_ref);
    println!(
        "genuine 4-lane bus: fused similarity {:.4} -> {}",
        decision.similarity(),
        if decision.is_accept() {
            "ACCEPT"
        } else {
            "REJECT"
        }
    );
    assert!(decision.is_accept());

    // Attacker substitutes the clone board (all four lanes).
    let mut clone_channels: Vec<_> = (0..lanes)
        .map(|i| {
            BusChannel::new(
                clone.line(i).clone(),
                FrontEndConfig::default(),
                20 + i as u64,
            )
        })
        .collect();
    let forged: Vec<_> = clone_channels
        .iter_mut()
        .map(|ch| itdr.measure(ch))
        .collect();
    let per_lane: Vec<f64> = fingerprints
        .iter()
        .zip(&forged)
        .map(|(f, w)| auth.score(f, w))
        .collect();
    println!("clone per-lane similarities: {per_lane:?}");
    let lanes_ref: Vec<_> = fingerprints.iter().zip(&forged).collect();
    let decision = auth.verify_fused(&lanes_ref);
    println!(
        "cloned 4-lane bus: fused similarity {:.4} -> {}",
        decision.similarity(),
        if decision.is_accept() {
            "ACCEPT"
        } else {
            "REJECT"
        }
    );
    assert!(!decision.is_accept(), "the clone must be rejected");
    // Even if one lane happened to score above threshold, fusion drowns it.
    let best_lane = per_lane.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "best single clone lane scored {best_lane:.4}; fusion decided on {:.4}",
        decision.similarity()
    );
}
