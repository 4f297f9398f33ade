//! Analog-to-probability conversion: counts → probabilities → voltages.
//!
//! The APC (paper §II-B) estimates `p{Y=1}` at each equivalent-time point
//! by counting comparator 1s over `R` repeated triggers, then recovers the
//! signal voltage through the inverse of the effective CDF (Eq. 2). Since a
//! count can only take `R+1` values, the inversion is precomputed into a
//! [`ReconstructionTable`] — one small ROM per iTDR configuration, which is
//! exactly how low-overhead hardware would do it.

use divot_dsp::gaussian::ProbabilityMap;

/// A count→voltage lookup table for a fixed repetition count `R`.
///
/// Entry `c` holds the voltage whose effective-CDF probability equals the
/// smoothed estimate `(c + ½) / (R + 1)` (add-half a.k.a. Krichevsky–
/// Trofimov smoothing, which keeps saturated counts finite and
/// low-variance).
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructionTable {
    volts: Vec<f64>,
}

impl ReconstructionTable {
    /// Build the table for `repetitions` triggers per point over the given
    /// probability map.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions == 0`.
    pub fn build(map: &impl ProbabilityMap, repetitions: u32) -> Self {
        assert!(repetitions > 0, "need at least one repetition");
        divot_telemetry::inc("apc.rom_builds");
        let r = repetitions as f64;
        let volts = (0..=repetitions)
            .map(|c| map.voltage((c as f64 + 0.5) / (r + 1.0)))
            .collect();
        Self { volts }
    }

    /// The repetition count this table was built for.
    pub fn repetitions(&self) -> u32 {
        (self.volts.len() - 1) as u32
    }

    /// Reconstruct the voltage for a trip count.
    ///
    /// # Panics
    ///
    /// Panics if `count > repetitions`.
    pub fn voltage(&self, count: u32) -> f64 {
        self.volts[count as usize]
    }

    /// The voltage resolution near mid-scale: the step between adjacent
    /// counts around `R/2` — the quantization floor of a single
    /// measurement.
    pub fn midscale_lsb(&self) -> f64 {
        let mid = self.volts.len() / 2;
        (self.volts[mid] - self.volts[mid - 1]).abs()
    }

    /// Full reconstructable voltage span (between count 0 and count R).
    pub fn span(&self) -> f64 {
        self.volts[self.volts.len() - 1] - self.volts[0]
    }
}

/// A hardware-style trip counter: accumulates comparator decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TripCounter {
    count: u32,
    total: u32,
}

impl TripCounter {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one comparator decision.
    pub fn record(&mut self, tripped: bool) {
        self.total += 1;
        if tripped {
            self.count += 1;
        }
    }

    /// Record a whole batch of decisions at once: `trips` ones out of
    /// `total` triggers. The analytic acquisition path lands one binomial
    /// draw per PDM reference level through this instead of `total`
    /// individual [`record`](Self::record) calls.
    ///
    /// # Panics
    ///
    /// Panics if `trips > total`.
    pub fn record_many(&mut self, trips: u32, total: u32) {
        assert!(trips <= total, "cannot trip {trips} of {total} triggers");
        self.total += total;
        self.count += trips;
    }

    /// Number of 1s.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Total decisions recorded.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// The raw probability estimate `count/total` (0 if empty).
    pub fn probability(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count as f64 / self.total as f64
        }
    }

    /// Reset for the next point.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Register bits a hardware implementation needs for this counter at
    /// the given repetition budget.
    pub fn bits_for(repetitions: u32) -> u32 {
        32 - repetitions.leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_dsp::gaussian::{DiscreteModulatedCdf, PlainCdf};

    #[test]
    fn table_is_monotone() {
        let map = PlainCdf::new(0.0, 2e-3);
        let t = ReconstructionTable::build(&map, 32);
        assert_eq!(t.repetitions(), 32);
        for c in 1..=32 {
            assert!(t.voltage(c) > t.voltage(c - 1), "c={c}");
        }
    }

    #[test]
    fn table_inverts_the_map() {
        let map = DiscreteModulatedCdf::new(vec![-5e-3, 0.0, 5e-3], 2e-3);
        let t = ReconstructionTable::build(&map, 20);
        // Mid counts correspond to voltages whose probability matches the
        // smoothed estimate.
        for c in [5u32, 10, 15] {
            let v = t.voltage(c);
            let p = map.probability(v);
            assert!((p - (c as f64 + 0.5) / 21.0).abs() < 1e-9, "c={c}");
        }
    }

    #[test]
    fn saturated_counts_are_finite_and_bounded() {
        let map = PlainCdf::new(0.0, 2e-3);
        let t = ReconstructionTable::build(&map, 24);
        let lo = t.voltage(0);
        let hi = t.voltage(24);
        assert!(lo.is_finite() && hi.is_finite());
        // Add-half smoothing keeps extremes within a few sigma.
        assert!(lo > -0.02 && hi < 0.02, "lo={lo} hi={hi}");
    }

    #[test]
    fn more_repetitions_refine_the_lsb() {
        let map = PlainCdf::new(0.0, 2e-3);
        let coarse = ReconstructionTable::build(&map, 8);
        let fine = ReconstructionTable::build(&map, 128);
        assert!(fine.midscale_lsb() < coarse.midscale_lsb() / 4.0);
    }

    #[test]
    fn span_tracks_modulation_width() {
        let narrow = ReconstructionTable::build(&PlainCdf::new(0.0, 2e-3), 16);
        let wide = ReconstructionTable::build(
            &DiscreteModulatedCdf::new(vec![-15e-3, -5e-3, 5e-3, 15e-3], 2e-3),
            16,
        );
        assert!(wide.span() > 2.0 * narrow.span());
    }

    #[test]
    fn counter_counts() {
        let mut c = TripCounter::new();
        for i in 0..10 {
            c.record(i % 3 == 0);
        }
        assert_eq!(c.total(), 10);
        assert_eq!(c.count(), 4);
        assert!((c.probability() - 0.4).abs() < 1e-12);
        c.reset();
        assert_eq!(c.total(), 0);
        assert_eq!(c.probability(), 0.0);
    }

    #[test]
    fn counter_bits() {
        assert_eq!(TripCounter::bits_for(1), 1);
        assert_eq!(TripCounter::bits_for(21), 5);
        assert_eq!(TripCounter::bits_for(32), 6);
        assert_eq!(TripCounter::bits_for(8192), 14);
    }

    #[test]
    #[should_panic(expected = "need at least one repetition")]
    fn rejects_zero_repetitions() {
        let _ = ReconstructionTable::build(&PlainCdf::new(0.0, 1e-3), 0);
    }
}
