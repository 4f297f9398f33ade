//! Equivalent-time sampling (ETS) schedule (paper §II-D, Fig. 5).
//!
//! Rather than sampling the back-reflection in real time at >80 GSa/s, the
//! iTDR steps the sampling clock's phase by a small increment `τ` relative
//! to the data clock after each batch of measurements. Because the line is
//! LTI and the probe edges are repeatable, `M` phase steps at real-time
//! rate `1/ΔT` give an equivalent rate of `1/τ`.

use divot_analog::pll::PllConfig;

/// An equivalent-time sampling plan over a time window.
///
/// ```
/// use divot_core::ets::EtsSchedule;
///
/// // The paper's window: 0–3.8 ns at the Ultrascale+ 11.16 ps phase step.
/// let ets = EtsSchedule::paper_window();
/// assert_eq!(ets.points(), 341);
/// assert_eq!(ets.time_of(0), 0.0);
/// // Equivalent sampling rate 1/τ ≈ 89.6 GSa/s — the paper's ">80 GSa/s".
/// assert!(1.0 / ets.tau > 80e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtsSchedule {
    /// Start of the observation window, relative to the probe edge launch
    /// (seconds).
    pub window_start: f64,
    /// End of the observation window (seconds).
    pub window_end: f64,
    /// Equivalent-time sample spacing `τ` (the PLL phase step).
    pub tau: f64,
}

impl EtsSchedule {
    /// Create a schedule.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or `tau <= 0`.
    pub fn new(window_start: f64, window_end: f64, tau: f64) -> Self {
        assert!(window_end > window_start, "window must be non-empty");
        assert!(tau > 0.0, "tau must be positive");
        Self {
            window_start,
            window_end,
            tau,
        }
    }

    /// The paper's observation window: 0–3.8 ns (one full round trip over
    /// the 25 cm line plus margin), at the Ultrascale+ 11.16 ps phase step.
    pub fn paper_window() -> Self {
        Self::new(0.0, 3.8e-9, PllConfig::default().phase_step)
    }

    /// Number of equivalent-time sample points in the window.
    pub fn points(&self) -> usize {
        ((self.window_end - self.window_start) / self.tau).floor() as usize + 1
    }

    /// The nominal sample time of point `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= points()`.
    pub fn time_of(&self, n: usize) -> f64 {
        assert!(n < self.points(), "sample index out of range");
        self.window_start + n as f64 * self.tau
    }

    /// The equivalent sampling rate `1/τ`.
    pub fn equivalent_rate(&self) -> f64 {
        1.0 / self.tau
    }

    /// Spatial resolution on a line with the given propagation velocity:
    /// `v·τ/2` (round trip). ~0.837 mm for the paper defaults.
    pub fn spatial_resolution(&self, velocity_m_per_s: f64) -> f64 {
        velocity_m_per_s * self.tau / 2.0
    }

    /// How many real-time clock periods of phase stepping the schedule
    /// spans (`M` in Fig. 5), for a given base clock period.
    pub fn interleave_factor(&self, clock_period: f64) -> usize {
        ((clock_period / self.tau).floor() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_window_matches_claims() {
        let ets = EtsSchedule::paper_window();
        // >80 GSa/s equivalent rate.
        assert!(ets.equivalent_rate() > 80e9);
        // ~0.837 mm spatial resolution at 15 cm/ns.
        let res = ets.spatial_resolution(0.15e9);
        assert!((res - 0.837e-3).abs() < 1e-6, "res={res}");
        // 3.8 ns / 11.16 ps ≈ 341 points.
        assert_eq!(ets.points(), 341);
    }

    #[test]
    fn sample_times_are_uniform() {
        let ets = EtsSchedule::new(1e-9, 2e-9, 0.1e-9);
        assert_eq!(ets.points(), 11);
        assert!((ets.time_of(0) - 1e-9).abs() < 1e-21);
        assert!((ets.time_of(10) - 2e-9).abs() < 1e-18);
        for n in 1..11 {
            assert!((ets.time_of(n) - ets.time_of(n - 1) - 0.1e-9).abs() < 1e-18);
        }
    }

    #[test]
    fn interleave_factor() {
        let ets = EtsSchedule::paper_window();
        // 6.4 ns clock period / 11.16 ps = 573 phase positions.
        assert_eq!(ets.interleave_factor(6.4e-9), 573);
    }

    #[test]
    #[should_panic(expected = "sample index out of range")]
    fn time_of_out_of_range() {
        let ets = EtsSchedule::new(0.0, 1e-9, 0.5e-9);
        let _ = ets.time_of(10);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn rejects_empty_window() {
        let _ = EtsSchedule::new(1.0, 1.0, 0.1);
    }
}
