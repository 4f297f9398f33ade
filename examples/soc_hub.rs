//! An SoC-scale deployment: one shared DIVOT datapath protecting several
//! buses, with pairings persisted across a reboot.
//!
//! Demonstrates the paper's scalability story — ">90 % of the hardware
//! can be shared by different iTDRs, protecting multiple buses in a
//! parallel fashion" — plus the §III EPROM persistence that makes
//! cold-boot protection survive power cycles.
//!
//! Run: `cargo run --release --example soc_hub`

use divot::core::hub::DivotHub;
use divot::core::registry::{FingerprintRegistry, Pairing};
use divot::core::trigger::TriggerSource;
use divot::prelude::*;
use divot::txline::attack::Attack;

fn main() {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 777);
    let lanes = 4;

    // One hub = one shared PLL + PDM generator + counter bank.
    let mut hub = DivotHub::new(Itdr::new(ItdrConfig::paper()), MonitorConfig::default());
    let mut channels: Vec<_> = (0..lanes)
        .map(|i| {
            hub.add_lane(format!("bus{i}"));
            BusChannel::new(
                board.line(i).clone(),
                FrontEndConfig::default(),
                800 + i as u64,
            )
        })
        .collect();

    hub.calibrate_all(&mut channels);
    println!("{hub}");
    let (regs, luts) = hub.resource_estimate();
    println!(
        "{lanes} buses protected with {regs} registers / {luts} LUTs \
         (one bus alone costs 71/124)"
    );
    println!(
        "full monitoring sweep: {:.0} µs on the 156.25 MHz clock lane",
        hub.sweep_time(TriggerSource::paper_prototype()) * 1e6
    );

    // Persist the pairings to the EPROM bank (per §III, no secrecy needed).
    let mut registry = FingerprintRegistry::new();
    for (id, name) in hub.lanes() {
        let fp = hub
            .lane_monitor(id)
            .fingerprint()
            .expect("calibrated")
            .clone();
        registry.register(
            name.to_owned(),
            Pairing {
                master: fp.clone(),
                slave: fp,
            },
        );
    }
    let bank = registry.to_bank_bytes();
    println!(
        "EPROM bank: {} pairings in {} bytes",
        registry.len(),
        bank.len()
    );

    // --- reboot: reload the bank, monitors resume without re-enrollment --
    let restored = FingerprintRegistry::from_bank_bytes(&bank).expect("valid bank");
    let mut hub2 = DivotHub::new(Itdr::new(ItdrConfig::paper()), MonitorConfig::default());
    for i in 0..lanes {
        let id = hub2.add_lane(format!("bus{i}"));
        let pairing = restored.get(&format!("bus{i}")).expect("persisted");
        hub2.restore_lane(id, pairing.master.clone());
    }
    println!(
        "reboot: {} lanes restored from EPROM, no re-calibration",
        lanes
    );
    let healthy = hub2.poll_all(&mut channels);
    assert!(healthy.iter().all(|(_, events)| events
        .iter()
        .any(|e| matches!(e, MonitorEvent::AuthOk { .. }))));
    println!("all lanes authenticate after reboot");

    // --- attack one lane: only it blocks, the SoC names it --------------
    channels[2].apply_attack(&Attack::paper_magnetic_probe());
    for _ in 0..4 {
        hub2.poll_all(&mut channels);
        if hub2.any_blocking() {
            break;
        }
    }
    let blocked = hub2.blocking_lanes();
    assert_eq!(blocked.len(), 1);
    println!(
        "magnetic probe detected on {} — other {} lanes keep running",
        hub2.lane_name(blocked[0]),
        lanes - 1
    );
}
