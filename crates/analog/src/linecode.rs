//! Line codes and the runtime trigger rule of paper §II-E.
//!
//! During normal operation the data launched onto the bus is random, so
//! probe edges do not arrive at fixed times, and — critically — with
//! channel coding the rising and falling edges occur equally often and
//! their reflections *cancel on average*. DIVOT's fix is to trigger the APC
//! only on one polarity: in a binary protocol, when a `1` preceding a `0`
//! is about to be launched (a falling edge), detected one FIFO stage ahead
//! of the transmitter. The clock lane needs no trigger logic because its
//! edges are perfectly periodic.

use divot_dsp::rng::DivotRng;

/// A modulation scheme on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineCode {
    /// Non-return-to-zero binary: two levels, one bit per unit interval.
    Nrz,
    /// Four-level pulse-amplitude modulation: two bits per unit interval.
    Pam4,
}

impl LineCode {
    /// Number of voltage levels.
    pub fn levels(&self) -> usize {
        match self {
            LineCode::Nrz => 2,
            LineCode::Pam4 => 4,
        }
    }

    /// Bits encoded per unit interval.
    pub fn bits_per_symbol(&self) -> usize {
        match self {
            LineCode::Nrz => 1,
            LineCode::Pam4 => 2,
        }
    }
}

/// A stream of symbols queued for transmission, with FIFO look-ahead.
#[derive(Debug, Clone)]
pub struct SymbolStream {
    code: LineCode,
    symbols: Vec<u8>,
}

impl SymbolStream {
    /// Generate `n` uniformly random symbols (the paper's prototype drives
    /// "completely random" data to demonstrate runtime monitoring).
    pub fn random(code: LineCode, n: usize, rng: &mut DivotRng) -> Self {
        let levels = code.levels() as u8;
        let symbols = (0..n).map(|_| rng.index(levels as usize) as u8).collect();
        let _ = levels;
        Self { code, symbols }
    }

    /// Wrap explicit symbols.
    ///
    /// # Panics
    ///
    /// Panics if any symbol is out of range for the code.
    pub fn from_symbols(code: LineCode, symbols: Vec<u8>) -> Self {
        assert!(
            symbols.iter().all(|&s| (s as usize) < code.levels()),
            "symbol out of range for {code:?}"
        );
        Self { code, symbols }
    }

    /// The line code.
    pub fn code(&self) -> LineCode {
        self.code
    }

    /// The symbols.
    pub fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// Unit-interval indices at which the §II-E trigger fires: a strictly
    /// *falling* transition (current symbol higher than the next), detected
    /// from the FIFO one stage ahead of launch. Index `i` means the edge
    /// launched at the start of interval `i+1`.
    pub fn falling_edge_triggers(&self) -> Vec<usize> {
        self.symbols
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] > w[1])
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of rising transitions (for completeness / edge statistics).
    pub fn rising_edge_triggers(&self) -> Vec<usize> {
        self.symbols
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(i, _)| i)
            .collect()
    }

    /// Fraction of unit intervals that produce a usable (falling-edge)
    /// trigger. For random NRZ this converges to 1/4; for random PAM4 to
    /// 6/16 = 3/8.
    pub fn trigger_density(&self) -> f64 {
        if self.symbols.len() < 2 {
            return 0.0;
        }
        self.falling_edge_triggers().len() as f64 / (self.symbols.len() - 1) as f64
    }
}

/// Expected falling-edge trigger density for random data on a code.
pub fn expected_trigger_density(code: LineCode) -> f64 {
    let l = code.levels() as f64;
    // P(sym[i] > sym[i+1]) for i.i.d. uniform symbols = (L-1)/(2L).
    (l - 1.0) / (2.0 * l)
}

/// The clock lane: a perfectly periodic square wave. Every cycle provides a
/// rising edge usable as a probe — no trigger logic or FIFO look-ahead
/// required (paper §II-E, §III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockLane {
    /// Clock frequency (Hz).
    pub frequency: f64,
}

impl ClockLane {
    /// The prototype's 156.25 MHz clock.
    pub fn paper_prototype() -> Self {
        Self {
            frequency: 156.25e6,
        }
    }

    /// Triggers per second: one usable rising edge per cycle.
    pub fn trigger_rate(&self) -> f64 {
        self.frequency
    }

    /// Time to accumulate `n` triggers.
    pub fn time_for_triggers(&self, n: u64) -> f64 {
        n as f64 / self.trigger_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_properties() {
        assert_eq!(LineCode::Nrz.levels(), 2);
        assert_eq!(LineCode::Pam4.levels(), 4);
        assert_eq!(LineCode::Nrz.bits_per_symbol(), 1);
        assert_eq!(LineCode::Pam4.bits_per_symbol(), 2);
    }

    #[test]
    fn falling_triggers_on_explicit_pattern() {
        // 1,0 → trigger at 0; 0,1 → none; 1,1 → none.
        let s = SymbolStream::from_symbols(LineCode::Nrz, vec![1, 0, 0, 1, 1, 0]);
        assert_eq!(s.falling_edge_triggers(), vec![0, 4]);
        assert_eq!(s.rising_edge_triggers(), vec![2]);
    }

    #[test]
    fn random_nrz_density_quarter() {
        let mut rng = DivotRng::seed_from_u64(10);
        let s = SymbolStream::random(LineCode::Nrz, 100_000, &mut rng);
        assert!((s.trigger_density() - 0.25).abs() < 0.01);
        assert!((expected_trigger_density(LineCode::Nrz) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn random_pam4_density() {
        let mut rng = DivotRng::seed_from_u64(11);
        let s = SymbolStream::random(LineCode::Pam4, 100_000, &mut rng);
        assert!((s.trigger_density() - 0.375).abs() < 0.01);
        assert!((expected_trigger_density(LineCode::Pam4) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn rising_and_falling_balance_on_random_data() {
        // The §II-E motivation: equal numbers of rising and falling edges,
        // whose reflections would cancel without one-polarity triggering.
        let mut rng = DivotRng::seed_from_u64(12);
        let s = SymbolStream::random(LineCode::Nrz, 100_000, &mut rng);
        let r = s.rising_edge_triggers().len() as f64;
        let f = s.falling_edge_triggers().len() as f64;
        assert!((r / f - 1.0).abs() < 0.05);
    }

    #[test]
    fn short_streams() {
        let s = SymbolStream::from_symbols(LineCode::Nrz, vec![1]);
        assert!(s.falling_edge_triggers().is_empty());
        assert_eq!(s.trigger_density(), 0.0);
    }

    #[test]
    fn clock_lane_rates() {
        let clk = ClockLane::paper_prototype();
        assert_eq!(clk.trigger_rate(), 156.25e6);
        // 8525 triggers (341 ETS points × 25 reps) in ~54.6 µs.
        let t = clk.time_for_triggers(8525);
        assert!((t - 54.56e-6).abs() < 0.1e-6, "t={t}");
    }

    #[test]
    #[should_panic(expected = "symbol out of range")]
    fn rejects_bad_symbols() {
        let _ = SymbolStream::from_symbols(LineCode::Nrz, vec![0, 2]);
    }
}
