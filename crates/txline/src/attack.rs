//! Physical attacks as transformations of a Tx-line network.
//!
//! Each attack in the paper's §IV evaluation maps onto a physically grounded
//! modification of the [`Network`]:
//!
//! * [`Attack::LoadSwap`] — Trojan-chip insertion or a cold-boot module
//!   swap: the far-end chip is replaced by another die (same part number,
//!   different process corner), changing the termination's R ∥ C and hence
//!   the large reflection at the end of the line (Fig. 9(b,c)).
//! * [`Attack::WireTap`] — a wire soldered to the trace and run to an
//!   oscilloscope: a 3-port stub junction, the most invasive tamper
//!   (Fig. 9(e,f)).
//! * [`Attack::SolderScar`] — the permanent residue after a wire-tap is
//!   removed (scratched solder mask, solder blob): the paper observed the
//!   IIP never recovers.
//! * [`Attack::MagneticProbe`] — a near-field probe hovering over the
//!   trace: eddy currents oppose the line's magnetic field, adding mutual
//!   inductance and a *small local impedance rise* over the probe footprint
//!   (Fig. 9(h,i)) — the faintest attack signature, which sets the
//!   detection threshold.

use crate::scatter::{Network, Tap};
use crate::termination::{ChipInput, Termination};
use crate::units::Meters;
use divot_dsp::rng::DivotRng;

/// A physical attack on a bus.
#[derive(Debug, Clone, PartialEq)]
pub enum Attack {
    /// Replace the far-end chip (Trojan insertion / cold-boot swap).
    LoadSwap {
        /// The foreign chip's input network.
        new_chip: ChipInput,
    },
    /// Solder a tap wire onto the trace.
    WireTap(Tap),
    /// Permanent damage left after removing a wire-tap at `position`
    /// (fraction of the line).
    SolderScar {
        /// Position along the line (fraction 0..1).
        position: f64,
    },
    /// Hover a magnetic near-field probe over the trace.
    MagneticProbe {
        /// Position along the line (fraction 0..1).
        position: f64,
        /// Relative local impedance rise from the induced mutual
        /// inductance (typically ~1–3 %).
        coupling: f64,
        /// Physical footprint of the probe head.
        footprint: Meters,
    },
}

impl Attack {
    /// A Trojan chip: same part number, off-distribution die drawn from a
    /// *different* lot (`seed` selects the foreign die).
    pub fn trojan_chip(seed: u64) -> Self {
        let mut rng = DivotRng::derive(seed, 0xA77C_0001);
        Attack::LoadSwap {
            new_chip: ChipInput::typical_sdram().process_variant(0.05, &mut rng),
        }
    }

    /// The paper's wire-tap experiment: scope tap soldered at mid-line.
    pub fn paper_wiretap() -> Self {
        Attack::WireTap(Tap {
            position: 0.5,
            stub: crate::scatter::StubSpec::oscilloscope_tap(),
        })
    }

    /// The paper's magnetic-probe experiment: a ferrite-tipped near-field
    /// probe held against the trace at 70 % of the line. The eddy-current
    /// mutual inductance over the 8 mm head raises the local inductance by
    /// ~10 % — still the faintest attack signature in the suite.
    pub fn paper_magnetic_probe() -> Self {
        Attack::MagneticProbe {
            position: 0.7,
            coupling: 0.10,
            footprint: Meters(0.008),
        }
    }

    /// Apply the attack to a network, returning the tampered network.
    ///
    /// # Panics
    ///
    /// Panics if a position parameter is outside `(0, 1)`.
    pub fn apply(&self, base: &Network) -> Network {
        let mut net = base.clone();
        match self {
            Attack::LoadSwap { new_chip } => {
                net.main.termination = Termination::Chip(*new_chip);
            }
            Attack::WireTap(tap) => {
                assert!(
                    tap.position > 0.0 && tap.position < 1.0,
                    "tap position must be inside (0,1)"
                );
                net.taps.push(tap.clone());
            }
            Attack::SolderScar { position } => {
                assert!(
                    *position > 0.0 && *position < 1.0,
                    "scar position must be inside (0,1)"
                );
                // Scratched mask + residual solder blob: a sharp local
                // impedance dip (solder mass raises capacitance) over
                // ~3 mm.
                let width = 0.003 / net.main.profile.length().0;
                net.main.profile.add_bump(*position, width, -0.10);
            }
            Attack::MagneticProbe {
                position,
                coupling,
                footprint,
            } => {
                assert!(
                    *position > 0.0 && *position < 1.0,
                    "probe position must be inside (0,1)"
                );
                let width = footprint.0 / net.main.profile.length().0;
                // Z = √(L/C): a relative inductance rise of `coupling`
                // raises Z by coupling/2.
                net.main.profile.add_bump(*position, width, coupling / 2.0);
            }
        }
        net
    }

    /// Where along the line (fraction 0..1) this attack physically sits,
    /// if localized (load swaps act at the termination, i.e. 1.0).
    pub fn expected_location(&self) -> f64 {
        match self {
            Attack::LoadSwap { .. } => 1.0,
            Attack::WireTap(tap) => tap.position,
            Attack::SolderScar { position } => *position,
            Attack::MagneticProbe { position, .. } => *position,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iip::FabricationProcess;
    use crate::scatter::{SimConfig, TxLine};
    use crate::units::{Meters, Seconds};
    use divot_dsp::similarity::error_function;

    fn base_network(seed: u64) -> Network {
        let process = FabricationProcess::paper_prototype();
        let profile = process.sample_profile(Meters(0.25), 384, seed, 0);
        TxLine::new(profile, Termination::Chip(ChipInput::typical_sdram())).network()
    }

    fn cfg() -> SimConfig {
        SimConfig {
            rise_time: Seconds(60e-12),
            ..SimConfig::default()
        }
    }

    #[test]
    fn load_swap_changes_only_the_tail() {
        let base = base_network(3);
        let attacked = Attack::trojan_chip(99).apply(&base);
        let w0 = base.edge_response(&cfg());
        let w1 = attacked.edge_response(&cfg());
        let e = error_function(&w0, &w1);
        let round_trip = 2.0 * base.main.one_way_delay().0;
        // Error energy is concentrated at/after the termination echo.
        let early = e.window(0.0, round_trip * 0.9);
        let late = e.window(round_trip * 0.95, round_trip * 1.4);
        assert!(
            late.peak() > 100.0 * early.peak(),
            "late={} early={}",
            late.peak(),
            early.peak()
        );
    }

    #[test]
    fn trojan_chips_differ_by_seed() {
        let a = Attack::trojan_chip(1);
        let b = Attack::trojan_chip(2);
        assert_ne!(a, b);
        assert_eq!(Attack::trojan_chip(1), Attack::trojan_chip(1));
    }

    #[test]
    fn wiretap_error_peaks_at_tap_location() {
        let base = base_network(5);
        let attacked = Attack::paper_wiretap().apply(&base);
        let w0 = base.edge_response(&cfg());
        let w1 = attacked.edge_response(&cfg());
        let e = error_function(&w0, &w1);
        // The tap also disturbs the termination echo and its multiples, and
        // the error stays elevated after onset, so localization uses the
        // *onset* (first threshold crossing), as on a real TDR trace.
        let onset = divot_dsp::similarity::first_crossing(&e, e.peak() * 0.02)
            .expect("tap must produce an error onset");
        // Tap at 50 %: echo at the one-way delay (round trip to midpoint).
        let expect_t = base.main.one_way_delay().0;
        assert!(
            (onset.time - expect_t).abs() < 0.15 * expect_t,
            "onset at {} want ~{}",
            onset.time,
            expect_t
        );
    }

    #[test]
    fn magnetic_probe_is_smallest_signature() {
        let base = base_network(7);
        let w0 = base.edge_response(&cfg());
        let probe = Attack::paper_magnetic_probe().apply(&base);
        let tap = Attack::paper_wiretap().apply(&base);
        let e_probe = error_function(&w0, &probe.edge_response(&cfg()));
        let e_tap = error_function(&w0, &tap.edge_response(&cfg()));
        assert!(e_probe.peak() > 0.0);
        assert!(
            e_tap.peak() > 30.0 * e_probe.peak(),
            "tap {} probe {}",
            e_tap.peak(),
            e_probe.peak()
        );
    }

    #[test]
    fn magnetic_probe_locatable() {
        let base = base_network(11);
        let w0 = base.edge_response(&cfg());
        let probe = Attack::paper_magnetic_probe().apply(&base);
        let e = error_function(&w0, &probe.edge_response(&cfg()));
        let peak = divot_dsp::similarity::dominant_peak(&e, 0.0).unwrap();
        let expect_t = 0.7 * 2.0 * base.main.one_way_delay().0;
        assert!(
            (peak.time - expect_t).abs() < 0.1 * expect_t,
            "peak at {} want ~{}",
            peak.time,
            expect_t
        );
    }

    #[test]
    fn solder_scar_persists_after_tap_removed() {
        let base = base_network(13);
        let w0 = base.edge_response(&cfg());
        // Tap applied then removed, leaving a scar.
        let scarred = Attack::SolderScar { position: 0.5 }.apply(&base);
        let e = error_function(&w0, &scarred.edge_response(&cfg()));
        let probe_sig = error_function(
            &w0,
            &Attack::paper_magnetic_probe()
                .apply(&base)
                .edge_response(&cfg()),
        );
        // The permanent scar is of the same order as a pressed-on magnetic
        // probe — far above the detection threshold either way.
        assert!(
            e.peak() > 0.3 * probe_sig.peak(),
            "{} vs {}",
            e.peak(),
            probe_sig.peak()
        );
    }

    #[test]
    fn expected_locations() {
        assert_eq!(Attack::trojan_chip(1).expected_location(), 1.0);
        assert_eq!(Attack::paper_wiretap().expected_location(), 0.5);
        assert_eq!(Attack::paper_magnetic_probe().expected_location(), 0.7);
        assert_eq!(
            Attack::SolderScar { position: 0.3 }.expected_location(),
            0.3
        );
    }

    #[test]
    #[should_panic(expected = "probe position must be inside (0,1)")]
    fn probe_position_validated() {
        let base = base_network(1);
        let _ = Attack::MagneticProbe {
            position: 0.0,
            coupling: 0.01,
            footprint: Meters(0.005),
        }
        .apply(&base);
    }
}
