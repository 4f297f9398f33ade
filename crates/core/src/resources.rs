//! Structural hardware-resource model of the iTDR datapath.
//!
//! The paper's Vivado utilization report for the prototype: **71 registers
//! and 124 LUTs**, with ~80 % of the LUTs in counters, and "over 90 % of
//! the hardware in a DIVOT detector can be shared/multiplexed by many
//! detectors on a chip". This module reconstructs that report from the
//! same structural inventory a synthesis tool would count — counter widths
//! derived from the instrument configuration — and provides the
//! multi-channel sharing analysis.

use crate::apc::TripCounter;
use crate::itdr::ItdrConfig;

/// One structural component of the iTDR datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Component name (as a floorplan label).
    pub name: String,
    /// Flip-flops used.
    pub registers: u32,
    /// LUTs used.
    pub luts: u32,
    /// Whether one instance can serve many iTDR channels (time-
    /// multiplexed chip-level logic) or must be replicated per channel.
    pub shareable: bool,
    /// Whether this component is counter logic (for the "80 % counters"
    /// breakdown).
    pub is_counter: bool,
}

/// The resource model: a bill of structural components.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceModel {
    components: Vec<Component>,
}

/// LUT/FF capacity of an FPGA part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpgaPart {
    /// Device name.
    pub name: &'static str,
    /// Available LUTs.
    pub luts: u32,
    /// Available flip-flops.
    pub registers: u32,
}

/// The prototype's device: Xilinx Zynq Ultrascale+ XCZU7EV
/// (ZCU104 board).
pub const XCZU7EV: FpgaPart = FpgaPart {
    name: "xczu7ev-ffvc1156-2-e",
    luts: 230_400,
    registers: 460_800,
};

fn comp(name: &str, registers: u32, luts: u32, shareable: bool, is_counter: bool) -> Component {
    Component {
        name: name.to_owned(),
        registers,
        luts,
        shareable,
        is_counter,
    }
}

impl ResourceModel {
    /// The exact prototype inventory reproducing the paper's 71-register /
    /// 124-LUT report. Counter widths correspond to the prototype's
    /// 8192-measurement batches, 573 ETS phase positions, 341 sample
    /// points, and 21-phase Vernier schedule.
    pub fn paper_prototype() -> Self {
        Self {
            components: vec![
                // Per-channel analog-facing logic.
                comp("comparator input synchronizer", 3, 2, false, false),
                comp("trigger look-ahead FIFO", 4, 3, false, false),
                // Chip-level shared logic (time-multiplexed across iTDRs).
                comp("trip counter", 14, 28, true, true),
                comp("ETS phase-step counter", 10, 20, true, true),
                comp("sample-point counter", 9, 18, true, true),
                comp("repetition counter", 5, 10, true, true),
                comp("Vernier phase counter", 5, 10, true, true),
                comp("measurement address generator", 6, 13, true, true),
                comp("PDM generator (pin toggle + divider)", 5, 4, true, false),
                comp("control FSM", 7, 9, true, false),
                comp("result interface", 3, 7, true, false),
            ],
        }
    }

    /// Derive an inventory from an instrument configuration: counter
    /// widths follow the actual counts.
    pub fn from_config(itdr: &ItdrConfig, vernier_period: u64, pll_steps: u64) -> Self {
        let trip_bits = TripCounter::bits_for(itdr.repetitions.max(1));
        let point_bits = 64 - (itdr.ets.points() as u64).leading_zeros();
        let phase_bits = 64 - pll_steps.max(1).leading_zeros();
        let vernier_bits = 64 - vernier_period.max(1).leading_zeros();
        let rep_bits = TripCounter::bits_for(itdr.repetitions.max(1));
        Self {
            components: vec![
                comp("comparator input synchronizer", 3, 2, false, false),
                comp("trigger look-ahead FIFO", 4, 3, false, false),
                comp("trip counter", trip_bits, 2 * trip_bits, true, true),
                comp(
                    "ETS phase-step counter",
                    phase_bits,
                    2 * phase_bits,
                    true,
                    true,
                ),
                comp(
                    "sample-point counter",
                    point_bits,
                    2 * point_bits,
                    true,
                    true,
                ),
                comp("repetition counter", rep_bits, 2 * rep_bits, true, true),
                comp(
                    "Vernier phase counter",
                    vernier_bits,
                    2 * vernier_bits,
                    true,
                    true,
                ),
                comp("measurement address generator", 6, 13, true, true),
                comp("PDM generator (pin toggle + divider)", 5, 4, true, false),
                comp("control FSM", 7, 9, true, false),
                comp("result interface", 3, 7, true, false),
            ],
        }
    }

    /// The component list.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// Total registers for one channel.
    pub fn registers(&self) -> u32 {
        self.components.iter().map(|c| c.registers).sum()
    }

    /// Total LUTs for one channel.
    pub fn luts(&self) -> u32 {
        self.components.iter().map(|c| c.luts).sum()
    }

    /// Fraction of LUTs that are counter logic (paper: ~80 %).
    pub fn counter_lut_fraction(&self) -> f64 {
        let counters: u32 = self
            .components
            .iter()
            .filter(|c| c.is_counter)
            .map(|c| c.luts)
            .sum();
        counters as f64 / self.luts() as f64
    }

    /// Fraction of registers in shareable components (paper: >90 %).
    pub fn shareable_register_fraction(&self) -> f64 {
        let shared: u32 = self
            .components
            .iter()
            .filter(|c| c.shareable)
            .map(|c| c.registers)
            .sum();
        shared as f64 / self.registers() as f64
    }

    /// Totals for protecting `channels` buses: shareable components are
    /// instantiated once; per-channel components are replicated.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn for_channels(&self, channels: u32) -> (u32, u32) {
        assert!(channels > 0, "need at least one channel");
        let mut regs = 0;
        let mut luts = 0;
        for c in &self.components {
            let n = if c.shareable { 1 } else { channels };
            regs += c.registers * n;
            luts += c.luts * n;
        }
        (regs, luts)
    }

    /// Utilization fractions `(register_fraction, lut_fraction)` on an
    /// FPGA part for `channels` protected buses.
    pub fn utilization(&self, part: &FpgaPart, channels: u32) -> (f64, f64) {
        let (regs, luts) = self.for_channels(channels);
        (
            regs as f64 / part.registers as f64,
            luts as f64 / part.luts as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_totals_match_the_report() {
        let m = ResourceModel::paper_prototype();
        assert_eq!(m.registers(), 71);
        assert_eq!(m.luts(), 124);
    }

    #[test]
    fn counters_are_about_eighty_percent_of_luts() {
        let m = ResourceModel::paper_prototype();
        let f = m.counter_lut_fraction();
        assert!((0.75..=0.85).contains(&f), "counter fraction {f}");
    }

    #[test]
    fn over_ninety_percent_shareable() {
        let m = ResourceModel::paper_prototype();
        assert!(m.shareable_register_fraction() > 0.9);
    }

    #[test]
    fn multi_channel_scaling_is_sublinear() {
        let m = ResourceModel::paper_prototype();
        let (r1, l1) = m.for_channels(1);
        let (r16, l16) = m.for_channels(16);
        assert_eq!((r1, l1), (71, 124));
        // 16 channels cost far less than 16×: only the per-channel front
        // logic replicates.
        assert!(r16 < 3 * r1, "r16={r16}");
        assert!(l16 < 2 * l1, "l16={l16}");
        // Incremental cost per extra channel is the per-channel logic.
        let (r2, l2) = m.for_channels(2);
        assert_eq!(r2 - r1, 7);
        assert_eq!(l2 - l1, 5);
    }

    #[test]
    fn utilization_is_tiny() {
        let m = ResourceModel::paper_prototype();
        let (fr, fl) = m.utilization(&XCZU7EV, 1);
        assert!(fr < 0.001 && fl < 0.001, "utilization {fr} {fl}");
        // Even 64 protected buses stay well under 1 %.
        let (fr64, fl64) = m.utilization(&XCZU7EV, 64);
        assert!(fr64 < 0.01 && fl64 < 0.01);
    }

    #[test]
    fn from_config_tracks_widths() {
        let m = ResourceModel::from_config(&ItdrConfig::paper(), 21, 573);
        // Trip counter: 42 reps → 6 bits.
        let trip = m
            .components()
            .iter()
            .find(|c| c.name == "trip counter")
            .unwrap();
        assert_eq!(trip.registers, 6);
        // ETS phase counter: 573 steps → 10 bits.
        let phase = m
            .components()
            .iter()
            .find(|c| c.name == "ETS phase-step counter")
            .unwrap();
        assert_eq!(phase.registers, 10);
        // Bigger repetition budgets widen the counters.
        let hf = ResourceModel::from_config(&ItdrConfig::high_fidelity(), 21, 573);
        assert!(hf.registers() > m.registers());
    }

    #[test]
    #[should_panic(expected = "need at least one channel")]
    fn rejects_zero_channels() {
        let _ = ResourceModel::paper_prototype().for_channels(0);
    }
}
