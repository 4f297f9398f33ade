//! Multi-drop bus topologies.
//!
//! A real DDR command/address bus is not point-to-point: it runs fly-by
//! past several DRAM devices, each hanging off the main trace through a
//! short stub. DIVOT must (a) authenticate such a bus — the fingerprint
//! simply *includes* every legitimate stub — and (b) still expose a
//! foreign tap added among the legitimate drops. This module builds those
//! topologies on the scattering engine's junction support.
//!
//! Deployment note surfaced by the tests below: the legitimate drops are
//! large reflections *common to every board of the same design*, so raw
//! cosine similarity compresses toward 1 across boards. Multi-drop
//! deployments should therefore authenticate on the error function
//! (`E_xy`, which is unaffected — a rogue tap or harvested device still
//! produces an onset-localizable peak) or score the residual after the
//! design-common template; single-lane cosine thresholds tuned on
//! point-to-point links do not transfer.

use crate::iip::FabricationProcess;
use crate::scatter::{Network, StubSpec, Tap, TxLine};
use crate::termination::{ChipInput, Termination};
use crate::units::{Meters, Ohms};
use divot_dsp::rng::DivotRng;

/// Configuration of a fly-by multi-drop bus.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiDropConfig {
    /// The PCB process for the main trace and stubs.
    pub process: FabricationProcess,
    /// Main trace length.
    pub length: Meters,
    /// Main trace segments.
    pub segments: usize,
    /// Number of DRAM drops along the trace.
    pub drops: usize,
    /// Physical length of each drop stub (via + breakout to the device).
    pub stub_length: Meters,
    /// Stub characteristic impedance (thin breakout trace).
    pub stub_z0: Ohms,
    /// Nominal device input at each drop.
    pub device: ChipInput,
    /// Per-die spread of the drop devices.
    pub device_spread: f64,
    /// End-of-line termination (fly-by buses terminate at the far end,
    /// e.g. VTT resistors).
    pub end_termination: Termination,
}

impl MultiDropConfig {
    /// A DDR3-style fly-by command bus: 30 cm trace, 4 DRAM drops through
    /// 6 mm stubs, VTT-style 50 Ω end termination.
    pub fn ddr_flyby() -> Self {
        Self {
            process: FabricationProcess::paper_prototype(),
            length: Meters(0.30),
            segments: 512,
            drops: 4,
            stub_length: Meters(0.006),
            stub_z0: Ohms(60.0),
            device: ChipInput {
                resistance: Ohms(120.0), // light parallel loading per device
                capacitance: crate::units::Farads(0.4e-12),
            },
            device_spread: 0.05,
            end_termination: Termination::Resistive(Ohms(50.0)),
        }
    }
}

/// Build a fly-by multi-drop network: the main line with `drops` stubs
/// evenly spaced over the middle 80 % of the trace, each loaded by its
/// own device die.
///
/// # Panics
///
/// Panics if `drops == 0`.
pub fn multidrop_network(config: &MultiDropConfig, seed: u64) -> Network {
    assert!(config.drops > 0, "a multi-drop bus needs at least one drop");
    let profile = config
        .process
        .sample_profile(config.length, config.segments, seed, 0);
    let main = TxLine::new(profile, config.end_termination);
    let mut taps = Vec::with_capacity(config.drops);
    let mut rng = DivotRng::derive(seed, 0xD30F);
    for k in 0..config.drops {
        // Drops spread over 10–90 % of the trace.
        let position = 0.1 + 0.8 * (k as f64 + 0.5) / config.drops as f64;
        let device = config
            .device
            .process_variant(config.device_spread, &mut rng);
        taps.push(Tap {
            position,
            stub: StubSpec {
                length: config.stub_length,
                z0: config.stub_z0,
                termination: Termination::Chip(device),
            },
        });
    }
    Network { main, taps }
}

/// The drop positions (fractions of the line) a config will produce.
pub fn drop_positions(config: &MultiDropConfig) -> Vec<f64> {
    (0..config.drops)
        .map(|k| 0.1 + 0.8 * (k as f64 + 0.5) / config.drops as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::Attack;
    use crate::scatter::SimConfig;
    use divot_dsp::similarity::{error_function, first_crossing, similarity};

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    #[test]
    fn multidrop_builds_requested_drops() {
        let net = multidrop_network(&MultiDropConfig::ddr_flyby(), 1);
        assert_eq!(net.taps.len(), 4);
        let positions = drop_positions(&MultiDropConfig::ddr_flyby());
        for (tap, pos) in net.taps.iter().zip(positions) {
            assert!((tap.position - pos).abs() < 1e-12);
        }
    }

    #[test]
    fn drops_have_distinct_dies() {
        let net = multidrop_network(&MultiDropConfig::ddr_flyby(), 1);
        for pair in net.taps.windows(2) {
            assert_ne!(pair[0].stub.termination, pair[1].stub.termination);
        }
    }

    #[test]
    fn multidrop_bus_is_reproducible_and_unique() {
        let a = multidrop_network(&MultiDropConfig::ddr_flyby(), 7);
        let b = multidrop_network(&MultiDropConfig::ddr_flyby(), 7);
        let c = multidrop_network(&MultiDropConfig::ddr_flyby(), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn multidrop_fingerprint_is_stable_and_distinct() {
        // The bus responds identically on repeated probing (LTI), and two
        // different multi-drop buses respond differently.
        let a = multidrop_network(&MultiDropConfig::ddr_flyby(), 7);
        let c = multidrop_network(&MultiDropConfig::ddr_flyby(), 8);
        let wa1 = a.edge_response(&cfg());
        let wa2 = a.edge_response(&cfg());
        let wc = c.edge_response(&cfg());
        assert_eq!(wa1, wa2);
        let self_sim = similarity(&wa1, &wa2);
        let cross_sim = similarity(&wa1, &wc);
        assert!((self_sim - 1.0).abs() < 1e-12);
        // The common drop structure dominates, so cosine compresses toward
        // 1 across boards (see module docs) — but the boards still differ
        // by a resolvable margin in error energy.
        assert!(cross_sim < self_sim);
        let mut diff = wa1.clone();
        diff.try_sub(&wc).unwrap();
        let rel = diff.energy() / wa1.energy();
        assert!(rel > 2e-4, "boards must differ in error energy: {rel}");
    }

    #[test]
    fn rogue_tap_stands_out_among_legitimate_drops() {
        // The key §III question for real buses: with 4 legitimate stubs in
        // the fingerprint, does a 5th (foreign) stub still show?
        let net = multidrop_network(&MultiDropConfig::ddr_flyby(), 9);
        let clean = net.edge_response(&cfg());
        // Attacker solders a tap between drops 2 and 3 (position 0.55).
        let mut wiretap = Attack::paper_wiretap();
        if let Attack::WireTap(tap) = &mut wiretap {
            tap.position = 0.55;
        }
        let attacked = wiretap.apply(&net);
        assert_eq!(attacked.taps.len(), 5);
        let w = attacked.edge_response(&cfg());
        let e = error_function(&clean, &w);
        let onset = first_crossing(&e, e.peak() * 0.02).expect("tap visible");
        // Onset at the tap's round-trip time: 0.55 × 2 × (0.30 m / v).
        let expect_t = 0.55 * 2.0 * 0.30 / 0.15e9;
        assert!(
            (onset.time - expect_t).abs() < 0.15 * expect_t,
            "onset {} want ~{expect_t}",
            onset.time
        );
        // The error peak is decisive even though cosine barely moves on a
        // loaded bus (module docs): the tamper metric is E_xy, not cosine.
        assert!(e.peak() > 1e-5, "tap error peak {}", e.peak());
    }

    #[test]
    fn device_removal_is_visible() {
        // Pulling one DRAM off the bus (chip harvesting) changes the
        // fingerprint as dramatically as adding one.
        let net = multidrop_network(&MultiDropConfig::ddr_flyby(), 10);
        let clean = net.edge_response(&cfg());
        let mut harvested = net.clone();
        harvested.taps.remove(2);
        let w = harvested.edge_response(&cfg());
        let e = error_function(&clean, &w);
        assert!(e.peak() > 1e-5, "harvest error peak {}", e.peak());
        assert!(similarity(&clean, &w) < 1.0 - 1e-6);
    }

    #[test]
    #[should_panic(expected = "needs at least one drop")]
    fn rejects_zero_drops() {
        let cfg = MultiDropConfig {
            drops: 0,
            ..MultiDropConfig::ddr_flyby()
        };
        let _ = multidrop_network(&cfg, 1);
    }
}
