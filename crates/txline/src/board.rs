//! Fabrication of whole boards: families of Tx-lines from one process.
//!
//! The paper's prototype (§IV-A) is a custom 6-layer PCB carrying six 25 cm
//! Tx-lines used as devices under test. [`Board::fabricate`] reproduces
//! that: six lines drawn from the same [`FabricationProcess`] (so they share
//! connector discontinuities and nominal impedance — the *impostor* pairs of
//! Fig. 7(a) are similar-but-distinguishable), each terminated by its own
//! receiver-chip die (same part number, per-die process variation).

use crate::iip::{FabricationProcess, IipProfile, LinePrecompute};
use crate::scatter::TxLine;
use crate::termination::{ChipInput, Termination};
use crate::units::{Farads, Meters, Ohms};
use divot_dsp::rng::DivotRng;

/// Parameters of a board build.
#[derive(Debug, Clone, PartialEq)]
pub struct BoardConfig {
    /// The PCB fabrication process.
    pub process: FabricationProcess,
    /// Physical length of each line.
    pub line_length: Meters,
    /// Spatial discretization of each line (segments).
    pub segments: usize,
    /// Number of Tx-lines on the board.
    pub line_count: usize,
    /// Nominal receiver chip terminating each line.
    pub chip: ChipInput,
    /// Per-die relative spread of the receiver chip's R and C.
    pub chip_spread: f64,
}

impl BoardConfig {
    /// The paper's prototype: six 25 cm lines at 512-segment resolution
    /// (≈0.49 mm per segment, finer than the 0.837 mm ETS spatial
    /// resolution). The paper's lines are *terminated* — we model a
    /// matched 50 Ω on-die termination with low-capacitance pads (0.25 pF)
    /// and 2 % die spread: the nominal echo cancels, and what remains of
    /// the termination reflection is the per-die residual, itself part of
    /// the line's fingerprint.
    pub fn paper_prototype() -> Self {
        Self {
            process: FabricationProcess::paper_prototype(),
            line_length: Meters(0.25),
            segments: 512,
            line_count: 6,
            chip: ChipInput {
                resistance: Ohms(50.0),
                capacitance: Farads(0.25e-12),
            },
            chip_spread: 0.02,
        }
    }

    /// A reduced-resolution variant for fast tests (256 segments, 2 lines).
    pub fn small_test() -> Self {
        Self {
            segments: 256,
            line_count: 2,
            ..Self::paper_prototype()
        }
    }
}

/// Design-level precomputation shared by every board of a cohort built to
/// the same [`BoardConfig`]: the per-line sampling precompute
/// ([`LinePrecompute`] — grid spacing, OU ripple shape, connector bump
/// window) plus the *nominal* line (uniform `z0` profile terminated by
/// the nominal chip — the design's golden reference, what a cohort intake
/// scan compares instances against).
///
/// [`Board::fabricate_with`] against one shared instance is bitwise
/// identical to [`Board::fabricate`] with the same config, so cohort
/// fabrication pays the design-derived work once for board 0 and only the
/// per-board perturbation pass (RNG draws and multiplies) for each board
/// after it.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPrecompute {
    config: BoardConfig,
    line: LinePrecompute,
    nominal_line: TxLine,
}

impl DesignPrecompute {
    /// Precompute the design work for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.line_count == 0` or `config.segments == 0`.
    pub fn new(config: BoardConfig) -> Self {
        assert!(config.line_count > 0, "board needs at least one line");
        let line = config
            .process
            .precompute(config.line_length, config.segments);
        let nominal_line = TxLine::new(
            IipProfile::uniform(config.process.z0, config.line_length, config.segments),
            Termination::Chip(config.chip),
        );
        Self {
            config,
            line,
            nominal_line,
        }
    }

    /// The design this precompute serves.
    pub fn config(&self) -> &BoardConfig {
        &self.config
    }

    /// The shared per-line sampling precompute.
    pub fn line_precompute(&self) -> &LinePrecompute {
        &self.line
    }

    /// The design's nominal line: uniform `z0` impedance with the nominal
    /// chip termination — no process ripple, no connector assembly
    /// variation. Cohort intake scans use its response as the golden-free
    /// similarity reference.
    pub fn nominal_line(&self) -> &TxLine {
        &self.nominal_line
    }
}

/// A fabricated board: a family of distinct Tx-lines from one process.
#[derive(Debug, Clone, PartialEq)]
pub struct Board {
    lines: Vec<TxLine>,
    seed: u64,
}

impl Board {
    /// Fabricate a board with the given config and seed. The same
    /// `(config, seed)` always yields the identical board; different seeds
    /// yield different boards (different fabs / different panel positions).
    ///
    /// Cohort builders that fabricate many boards of one design should
    /// precompute once and call [`fabricate_with`](Self::fabricate_with).
    ///
    /// # Panics
    ///
    /// Panics if `config.line_count == 0` or `config.segments == 0`.
    pub fn fabricate(config: &BoardConfig, seed: u64) -> Self {
        Self::fabricate_with(&DesignPrecompute::new(config.clone()), seed)
    }

    /// [`fabricate`](Self::fabricate) against a shared
    /// [`DesignPrecompute`]: bitwise identical for a precompute built from
    /// the same config, but the per-board pass only draws the board's
    /// ripple, assembly, and die randomness.
    pub fn fabricate_with(design: &DesignPrecompute, seed: u64) -> Self {
        let lines = (0..design.config.line_count)
            .map(|i| Self::fabricate_line_with(design, seed, i))
            .collect();
        Self { lines, seed }
    }

    /// Line `i` of `fabricate_with(design, seed)`, fabricated alone: each
    /// line draws its ripple, assembly and die from `(seed, i)` only, so
    /// a population that needs one line of a board skips its neighbours.
    pub fn fabricate_line_with(design: &DesignPrecompute, seed: u64, i: usize) -> TxLine {
        let config = &design.config;
        let profile = config
            .process
            .sample_profile_with(&design.line, seed, i as u64);
        let mut chip_rng = DivotRng::derive(seed, 0xC41F_0000 | i as u64);
        let chip = config
            .chip
            .process_variant(config.chip_spread, &mut chip_rng);
        TxLine::new(profile, Termination::Chip(chip))
    }

    /// Number of lines on the board.
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Access line `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn line(&self, i: usize) -> &TxLine {
        &self.lines[i]
    }

    /// Iterate over all lines.
    pub fn lines(&self) -> impl Iterator<Item = &TxLine> {
        self.lines.iter()
    }

    /// The fabrication seed of this board.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A foreign replacement chip (same part number, different lot) — the
    /// kind an attacker solders in during a Trojan/cold-boot swap.
    pub fn foreign_chip(&self, attack_seed: u64) -> ChipInput {
        let mut rng = DivotRng::derive(self.seed ^ 0xDEAD_BEEF, attack_seed);
        ChipInput::typical_sdram().process_variant(0.05, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scatter::SimConfig;
    use divot_dsp::similarity::similarity;

    #[test]
    fn fabrication_is_deterministic() {
        let cfg = BoardConfig::small_test();
        let a = Board::fabricate(&cfg, 42);
        let b = Board::fabricate(&cfg, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_design_precompute_matches_direct_fabrication() {
        // Cohort fabrication against one shared DesignPrecompute must be
        // bitwise identical to fabricating each board solo.
        let cfg = BoardConfig::small_test();
        let design = DesignPrecompute::new(cfg.clone());
        for seed in [1u64, 42, 1_000_003] {
            assert_eq!(
                Board::fabricate(&cfg, seed),
                Board::fabricate_with(&design, seed)
            );
        }
        assert_eq!(design.config(), &cfg);
        assert_eq!(design.line_precompute().segments(), cfg.segments);
    }

    #[test]
    fn nominal_line_is_uniform_and_chip_terminated() {
        let design = DesignPrecompute::new(BoardConfig::small_test());
        let nominal = design.nominal_line();
        assert_eq!(nominal.profile.contrast(), 0.0);
        assert_eq!(nominal.profile.len(), BoardConfig::small_test().segments);
        assert_eq!(
            nominal.termination,
            Termination::Chip(BoardConfig::small_test().chip)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = BoardConfig::small_test();
        let a = Board::fabricate(&cfg, 1);
        let b = Board::fabricate(&cfg, 2);
        assert_ne!(
            a.line(0).profile.impedances(),
            b.line(0).profile.impedances()
        );
    }

    #[test]
    fn paper_prototype_has_six_lines() {
        let board = Board::fabricate(&BoardConfig::paper_prototype(), 7);
        assert_eq!(board.line_count(), 6);
        assert_eq!(board.lines().count(), 6);
        for line in board.lines() {
            assert!((line.profile.length().0 - 0.25).abs() < 1e-9);
            assert_eq!(line.profile.len(), 512);
        }
    }

    #[test]
    fn each_line_has_its_own_chip() {
        let board = Board::fabricate(&BoardConfig::paper_prototype(), 7);
        let t0 = board.line(0).termination;
        let t1 = board.line(1).termination;
        assert_ne!(t0, t1);
    }

    #[test]
    fn lines_are_similar_but_distinguishable() {
        // The impostor structure of Fig. 7(a): shared connectors and
        // similar terminations make responses correlated, but the unique
        // IIPs keep them clearly below genuine similarity.
        let board = Board::fabricate(&BoardConfig::small_test(), 9);
        let cfg = SimConfig::default();
        let w0 = board.line(0).network().edge_response(&cfg);
        let w1 = board.line(1).network().edge_response(&cfg);
        let s = similarity(&w0, &w1);
        assert!(s > 0.3, "impostor lines share gross structure: {s}");
        assert!(s < 0.999, "but are distinguishable: {s}");
    }

    #[test]
    fn foreign_chip_differs_from_installed() {
        let board = Board::fabricate(&BoardConfig::small_test(), 9);
        let foreign = board.foreign_chip(1);
        if let Termination::Chip(installed) = board.line(0).termination {
            assert_ne!(foreign, installed);
        } else {
            panic!("expected chip termination");
        }
        // Different attack seeds produce different foreign chips.
        assert_ne!(board.foreign_chip(1), board.foreign_chip(2));
    }

    #[test]
    #[should_panic(expected = "board needs at least one line")]
    fn rejects_empty_board() {
        let cfg = BoardConfig {
            line_count: 0,
            ..BoardConfig::small_test()
        };
        let _ = Board::fabricate(&cfg, 1);
    }
}
