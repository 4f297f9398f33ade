//! The phase-stepping PLL that implements equivalent-time sampling.
//!
//! ETS (paper §II-D) needs the sampling clock's phase to be steppable in
//! fine increments relative to the data clock. The Xilinx Ultrascale+ MMCM
//! used by the prototype offers an 11.16 ps dynamic phase step, giving an
//! equivalent sampling rate above 80 GSa/s. Real PLL outputs also carry
//! random jitter, which bounds the achievable timing precision.

use divot_dsp::rng::DivotRng;

/// Configuration of a phase-stepping PLL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PllConfig {
    /// Phase step per increment (seconds). The paper's part: 11.16 ps.
    pub phase_step: f64,
    /// RMS random jitter on every output edge (seconds).
    pub jitter_rms: f64,
    /// Base sampling-clock period (seconds); 156.25 MHz in the prototype.
    pub clock_period: f64,
}

impl Default for PllConfig {
    fn default() -> Self {
        Self {
            phase_step: 11.16e-12,
            jitter_rms: 1.5e-12,
            clock_period: 1.0 / 156.25e6,
        }
    }
}

/// A phase-stepping PLL instance.
#[derive(Debug, Clone)]
pub struct PhaseSteppingPll {
    config: PllConfig,
    current_steps: u64,
}

impl PhaseSteppingPll {
    /// Create a PLL at phase step 0.
    ///
    /// # Panics
    ///
    /// Panics if `phase_step <= 0`, `jitter_rms < 0`, or
    /// `clock_period <= 0`.
    pub fn new(config: PllConfig) -> Self {
        assert!(config.phase_step > 0.0, "phase step must be positive");
        assert!(config.jitter_rms >= 0.0, "jitter must be non-negative");
        assert!(config.clock_period > 0.0, "clock period must be positive");
        Self {
            config,
            current_steps: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PllConfig {
        &self.config
    }

    /// Number of phase steps that fit in one clock period (the ETS
    /// interleave factor `M` of paper Fig. 5).
    pub fn steps_per_period(&self) -> u64 {
        (self.config.clock_period / self.config.phase_step).floor() as u64
    }

    /// The equivalent sampling rate achieved by full interleaving
    /// (`1/τ`, paper §II-D — >80 GSa/s for the default config).
    pub fn equivalent_rate(&self) -> f64 {
        1.0 / self.config.phase_step
    }

    /// Set the absolute phase offset in steps.
    pub fn set_phase_steps(&mut self, steps: u64) {
        self.current_steps = steps;
    }

    /// Advance the phase by one step, wrapping within one clock period.
    pub fn step(&mut self) {
        self.current_steps = (self.current_steps + 1) % self.steps_per_period().max(1);
    }

    /// The current nominal phase offset (seconds).
    pub fn nominal_offset(&self) -> f64 {
        self.current_steps as f64 * self.config.phase_step
    }

    /// One actual sampling instant for the current phase setting: the
    /// nominal offset plus this edge's random jitter.
    pub fn sample_instant(&self, rng: &mut DivotRng) -> f64 {
        self.nominal_offset() + rng.normal(0.0, self.config.jitter_rms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_dsp::stats;

    #[test]
    fn default_matches_paper_numbers() {
        let pll = PhaseSteppingPll::new(PllConfig::default());
        // >80 GSa/s equivalent rate (paper §II-D).
        assert!(pll.equivalent_rate() > 80e9);
        // 6.4 ns period / 11.16 ps ≈ 573 steps.
        assert_eq!(pll.steps_per_period(), 573);
    }

    #[test]
    fn stepping_accumulates_and_wraps() {
        let cfg = PllConfig {
            phase_step: 1e-12,
            jitter_rms: 0.0,
            clock_period: 4e-12,
        };
        let mut pll = PhaseSteppingPll::new(cfg);
        assert_eq!(pll.nominal_offset(), 0.0);
        pll.step();
        assert!((pll.nominal_offset() - 1e-12).abs() < 1e-24);
        pll.step();
        pll.step();
        pll.step();
        assert_eq!(pll.nominal_offset(), 0.0, "wraps at the period");
    }

    #[test]
    fn set_phase_is_absolute() {
        let mut pll = PhaseSteppingPll::new(PllConfig::default());
        pll.set_phase_steps(10);
        assert!((pll.nominal_offset() - 111.6e-12).abs() < 1e-15);
    }

    #[test]
    fn jitter_statistics() {
        let mut pll = PhaseSteppingPll::new(PllConfig::default());
        pll.set_phase_steps(5);
        let mut rng = DivotRng::seed_from_u64(8);
        let xs: Vec<f64> = (0..50_000).map(|_| pll.sample_instant(&mut rng)).collect();
        let nominal = 5.0 * 11.16e-12;
        assert!((stats::mean(&xs) - nominal).abs() < 0.1e-12);
        assert!((stats::std_dev(&xs) - 1.5e-12).abs() < 0.05e-12);
    }

    #[test]
    fn zero_jitter_is_exact() {
        let cfg = PllConfig {
            jitter_rms: 0.0,
            ..PllConfig::default()
        };
        let mut pll = PhaseSteppingPll::new(cfg);
        pll.set_phase_steps(3);
        let mut rng = DivotRng::seed_from_u64(9);
        assert_eq!(pll.sample_instant(&mut rng), pll.nominal_offset());
    }

    #[test]
    #[should_panic(expected = "phase step must be positive")]
    fn rejects_bad_step() {
        let cfg = PllConfig {
            phase_step: 0.0,
            ..PllConfig::default()
        };
        let _ = PhaseSteppingPll::new(cfg);
    }
}
