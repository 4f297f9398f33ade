//! Property pin for memoized fabrication: for *arbitrary*
//! `(fleet seed, device count, device, nonce)` the warm fast path —
//! shared back-reflection, shared ROM, shared level schedule — must
//! produce an acquisition bitwise-identical to a channel that computes
//! everything from scratch.
//!
//! This is the cache-correctness half of the fleet determinism
//! contract: memoization may only ever skip recomputing values that are
//! pure functions of the device, never change them.

use divot_core::exec::ExecPolicy;
use divot_core::itdr::{AcqMode, Itdr};
use divot_core::registry::Pairing;
use divot_dsp::rng::mix_seed;
use divot_dsp::waveform::Waveform;
use divot_fleet::{Anomaly, FleetSimConfig, SimulatedFleet};
use divot_txline::attack::Attack;
use divot_txline::board::{Board, DesignPrecompute};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn memoized_acquisition_is_bitwise_identical_to_fresh(
        seed in any::<u64>(),
        devices in 1usize..5,
        device in 0usize..5,
        nonce in any::<u64>(),
        analytic in any::<bool>(),
    ) {
        let device = device % devices;
        let mode = if analytic { AcqMode::Analytic } else { AcqMode::Trial };
        let fleet = SimulatedFleet::new(
            FleetSimConfig::fast(devices, seed).with_acq_mode(mode),
        );
        let name = SimulatedFleet::device_name(device);
        // Warm path first (it also populates the memoized state), then
        // the reference path, then the warm path again: all three must
        // carry the exact same bits.
        let warm = fleet.acquire(&name, nonce).unwrap();
        let fresh = fleet.acquire_uncached(&name, nonce).unwrap();
        let warm_again = fleet.acquire(&name, nonce).unwrap();
        for (a, b) in warm.samples().iter().zip(fresh.samples()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in warm.samples().iter().zip(warm_again.samples()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn enrollment_is_identical_across_fleet_instances(
        seed in any::<u64>(),
        nonce in any::<u64>(),
    ) {
        // Two independently constructed fleets (each with its own
        // lazily-warmed state) must enroll the identical pairing: the
        // memoized values are functions of the configuration alone.
        let a = SimulatedFleet::new(FleetSimConfig::fast(2, seed));
        let b = SimulatedFleet::new(FleetSimConfig::fast(2, seed));
        // Warm fleet `b` through a different code path first.
        let _ = b.acquire("bus-001", nonce);
        let pa = a.enroll("bus-001", nonce).unwrap();
        let pb = b.enroll("bus-001", nonce).unwrap();
        for (x, y) in pa.master.iip().samples().iter().zip(pb.master.iip().samples()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in pa.slave.iip().samples().iter().zip(pb.slave.iip().samples()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// The anomaly a case plants on its chosen device: none, a counterfeit
/// board, or the paper's wiretap.
fn planted(kind: u8, device: usize) -> Vec<(usize, Anomaly)> {
    match kind % 3 {
        0 => Vec::new(),
        1 => vec![(device, Anomaly::Counterfeit)],
        _ => vec![(device, Anomaly::Tampered(Attack::paper_wiretap()))],
    }
}

fn assert_same_bits(a: &Waveform, b: &Waveform) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.samples().iter().zip(b.samples()) {
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn enroll_is_bitwise_pairing_enroll_over_fresh_channels(
        seed in any::<u64>(),
        devices in 1usize..5,
        device in 0usize..5,
        nonce in any::<u64>(),
        analytic in any::<bool>(),
        anomaly in any::<u8>(),
    ) {
        // The fleet's enroll reads warm state (detector nodes on analytic
        // fleets, a seeded channel on Trial ones); the reference enrolls
        // both ends over channels that fabricate and simulate everything
        // themselves.
        let device = device % devices;
        let mode = if analytic { AcqMode::Analytic } else { AcqMode::Trial };
        let fleet = SimulatedFleet::new(
            FleetSimConfig::fast(devices, seed)
                .with_acq_mode(mode)
                .with_anomalies(planted(anomaly, device)),
        );
        let name = SimulatedFleet::device_name(device);
        let got = fleet.enroll(&name, nonce).unwrap();
        let (mut master, mut slave) = fleet.uncached_channels(&name, nonce).unwrap();
        let cfg = fleet.config();
        let want = Pairing::enroll_with(
            &Itdr::new(cfg.itdr),
            &mut master,
            &mut slave,
            cfg.enroll_count,
            ExecPolicy::Serial,
        );
        prop_assert_eq!(got.master.enrollment_count(), want.master.enrollment_count());
        prop_assert_eq!(got.slave.enrollment_count(), want.slave.enrollment_count());
        assert_same_bits(got.master.iip(), want.master.iip())?;
        assert_same_bits(got.slave.iip(), want.slave.iip())?;
    }

    #[test]
    fn anomalous_fleets_acquire_bitwise_uncached(
        seed in any::<u64>(),
        nonce in any::<u64>(),
        analytic in any::<bool>(),
        counterfeit in 0usize..4,
        wiretapped in 0usize..4,
    ) {
        // A counterfeit and a wiretapped device (one device may carry at
        // most one anomaly, so a collision plants only the counterfeit):
        // every device's warm acquisition matches the uncached reference.
        let mut anomalies = vec![(counterfeit, Anomaly::Counterfeit)];
        if wiretapped != counterfeit {
            anomalies.push((wiretapped, Anomaly::Tampered(Attack::paper_wiretap())));
        }
        let mode = if analytic { AcqMode::Analytic } else { AcqMode::Trial };
        let fleet = SimulatedFleet::new(
            FleetSimConfig::fast(4, seed)
                .with_acq_mode(mode)
                .with_anomalies(anomalies),
        );
        for i in 0..4 {
            let name = SimulatedFleet::device_name(i);
            let warm = fleet.acquire(&name, nonce).unwrap();
            assert_same_bits(&warm, &fleet.acquire_uncached(&name, nonce).unwrap())?;
        }
    }

    #[test]
    fn on_demand_networks_equal_eager_fabrication(
        seed in any::<u64>(),
        devices in 1usize..7,
        device in 0usize..7,
        anomaly in any::<u8>(),
    ) {
        // The eager reference fabricates every board whole up front,
        // then plants anomalies: counterfeit boards from the drifted lot
        // under the counterfeit seed domain, attacks onto the genuine
        // network.
        const COUNTERFEIT_DOMAIN: u64 = 0xCF17_CF17;
        let device = device % devices;
        let anomalies = planted(anomaly, device);
        let fleet = SimulatedFleet::new(
            FleetSimConfig::fast(devices, seed).with_anomalies(anomalies.clone()),
        );
        let design = fleet.design();
        let per_board = design.config().line_count;
        let boards: Vec<Board> = (0..devices.div_ceil(per_board))
            .map(|b| Board::fabricate_with(design, mix_seed(seed, b as u64)))
            .collect();
        let lot = DesignPrecompute::new(SimulatedFleet::counterfeit_board_config(design.config()));
        for i in 0..devices {
            let (board, line) = (i / per_board, i % per_board);
            let genuine = boards[board].line(line).network();
            let eager = match anomalies.iter().find(|(d, _)| *d == i).map(|(_, a)| a) {
                None => genuine,
                Some(Anomaly::Counterfeit) => {
                    Board::fabricate_with(&lot, mix_seed(seed, COUNTERFEIT_DOMAIN ^ board as u64))
                        .line(line)
                        .network()
                }
                Some(Anomaly::Tampered(attack)) => attack.apply(&genuine),
            };
            let (master, slave) = fleet
                .uncached_channels(&SimulatedFleet::device_name(i), 0)
                .unwrap();
            prop_assert_eq!(master.network(), &eager);
            prop_assert_eq!(slave.network(), &eager);
        }
    }
}
