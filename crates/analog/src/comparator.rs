//! The 1-bit comparator at the heart of APC.
//!
//! A comparator outputs 1 when the positive input exceeds the reference
//! input. Real comparators add input-referred Gaussian noise (thermal noise
//! dominated at high frequency — paper Eq. 1), a static per-instance offset,
//! and optionally hysteresis. The noise is not a defect here: APC exploits
//! it as the dithering source that gives a 1-bit device analog resolution.

use divot_dsp::rng::DivotRng;

/// Static configuration of a comparator instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparatorConfig {
    /// Input-referred Gaussian noise sigma (volts).
    pub noise_sigma: f64,
    /// Sigma of the per-instance static input offset (volts); the actual
    /// offset is drawn once at construction.
    pub offset_sigma: f64,
    /// Hysteresis half-width (volts): the threshold moves by ±this amount
    /// depending on the previous decision. Zero disables hysteresis.
    pub hysteresis: f64,
}

impl Default for ComparatorConfig {
    fn default() -> Self {
        Self {
            noise_sigma: 2e-3,
            offset_sigma: 0.5e-3,
            hysteresis: 0.0,
        }
    }
}

/// A comparator instance with its drawn offset and decision state.
#[derive(Debug, Clone)]
pub struct Comparator {
    noise_sigma: f64,
    offset: f64,
    hysteresis: f64,
    last: bool,
}

impl Comparator {
    /// Instantiate a comparator; the static offset is drawn from
    /// `config.offset_sigma` using `rng` (per-die variation).
    ///
    /// # Panics
    ///
    /// Panics if `noise_sigma < 0` or `hysteresis < 0`.
    pub fn new(config: &ComparatorConfig, rng: &mut DivotRng) -> Self {
        assert!(
            config.noise_sigma >= 0.0,
            "noise sigma must be non-negative"
        );
        assert!(config.hysteresis >= 0.0, "hysteresis must be non-negative");
        Self {
            noise_sigma: config.noise_sigma,
            offset: rng.normal(0.0, config.offset_sigma),
            hysteresis: config.hysteresis,
            last: false,
        }
    }

    /// The drawn static offset of this instance.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// The input-referred noise sigma.
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// The hysteresis half-width. Non-zero hysteresis makes successive
    /// decisions dependent, which is what forces the acquisition layer
    /// back onto per-trial simulation.
    pub fn hysteresis(&self) -> f64 {
        self.hysteresis
    }

    /// Closed-form trip probability of one *memoryless* comparison:
    /// `P{v_sig + offset + noise > v_ref}` = `Φ((v_sig + offset − v_ref)/σ)`
    /// (paper Eq. 1, with this instance's drawn offset folded in). With
    /// `σ = 0` the probability degenerates to a step; ties go low, matching
    /// [`decide`](Self::decide). Hysteresis is *not* modeled — callers must
    /// check [`hysteresis`](Self::hysteresis)`== 0` before trusting this.
    pub fn trip_probability(&self, v_sig: f64, v_ref: f64) -> f64 {
        let margin = v_sig + self.offset - v_ref;
        if self.noise_sigma > 0.0 {
            divot_dsp::gaussian::std_cdf(margin / self.noise_sigma)
        } else if margin > 0.0 {
            1.0
        } else {
            0.0
        }
    }

    /// One comparison: returns `true` iff
    /// `v_sig + offset + noise > v_ref (± hysteresis)`.
    pub fn decide(&mut self, v_sig: f64, v_ref: f64, rng: &mut DivotRng) -> bool {
        let noise = if self.noise_sigma > 0.0 {
            rng.normal(0.0, self.noise_sigma)
        } else {
            0.0
        };
        let threshold = v_ref
            + if self.last {
                -self.hysteresis
            } else {
                self.hysteresis
            };
        let y = v_sig + self.offset + noise > threshold;
        self.last = y;
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_dsp::gaussian;

    fn noiseless() -> ComparatorConfig {
        ComparatorConfig {
            noise_sigma: 0.0,
            offset_sigma: 0.0,
            hysteresis: 0.0,
        }
    }

    #[test]
    fn ideal_comparator_is_a_step() {
        let mut rng = DivotRng::seed_from_u64(1);
        let mut c = Comparator::new(&noiseless(), &mut rng);
        assert!(c.decide(0.1, 0.0, &mut rng));
        assert!(!c.decide(-0.1, 0.0, &mut rng));
        assert!(!c.decide(0.0, 0.0, &mut rng)); // ties go low
    }

    #[test]
    fn trip_probability_follows_gaussian_cdf() {
        // The empirical APC relation (paper Eq. 1): p{Y=1} = Φ((V−Vref)/σ).
        let cfg = ComparatorConfig {
            noise_sigma: 2e-3,
            offset_sigma: 0.0,
            hysteresis: 0.0,
        };
        let mut rng = DivotRng::seed_from_u64(2);
        let mut c = Comparator::new(&cfg, &mut rng);
        for &v in &[-3e-3, -1e-3, 0.0, 1.5e-3, 3e-3] {
            let n = 100_000;
            let hits = (0..n).filter(|_| c.decide(v, 0.0, &mut rng)).count();
            let p = hits as f64 / n as f64;
            let want = gaussian::std_cdf(v / 2e-3);
            assert!((p - want).abs() < 0.01, "v={v}: p={p} want={want}");
        }
    }

    #[test]
    fn offset_is_stable_per_instance() {
        let cfg = ComparatorConfig {
            noise_sigma: 0.0,
            offset_sigma: 1e-3,
            hysteresis: 0.0,
        };
        let mut rng = DivotRng::seed_from_u64(3);
        let c1 = Comparator::new(&cfg, &mut rng);
        let c2 = Comparator::new(&cfg, &mut rng);
        assert_ne!(c1.offset(), c2.offset());
        assert!(c1.offset().abs() < 5e-3);
    }

    #[test]
    fn offset_shifts_the_threshold() {
        let cfg = ComparatorConfig {
            noise_sigma: 0.0,
            offset_sigma: 1e-3,
            hysteresis: 0.0,
        };
        let mut rng = DivotRng::seed_from_u64(4);
        let mut c = Comparator::new(&cfg, &mut rng);
        let off = c.offset();
        // Signal just below -offset trips low; just above trips high.
        assert!(c.decide(-off + 1e-9, 0.0, &mut rng));
        assert!(!c.decide(-off - 1e-9, 0.0, &mut rng));
    }

    #[test]
    fn hysteresis_biases_toward_last_decision() {
        let cfg = ComparatorConfig {
            noise_sigma: 0.0,
            offset_sigma: 0.0,
            hysteresis: 1e-3,
        };
        let mut rng = DivotRng::seed_from_u64(5);
        let mut c = Comparator::new(&cfg, &mut rng);
        // From low state, threshold is raised: 0.5 mV doesn't trip.
        assert!(!c.decide(0.5e-3, 0.0, &mut rng));
        // 2 mV trips; now threshold is lowered: 0.5 mV keeps it high.
        assert!(c.decide(2e-3, 0.0, &mut rng));
        assert!(c.decide(0.5e-3, 0.0, &mut rng));
        // Falling below the lowered threshold releases it.
        assert!(!c.decide(-2e-3, 0.0, &mut rng));
    }

    #[test]
    #[should_panic(expected = "noise sigma must be non-negative")]
    fn rejects_negative_sigma() {
        let mut rng = DivotRng::seed_from_u64(6);
        let cfg = ComparatorConfig {
            noise_sigma: -1.0,
            ..noiseless()
        };
        let _ = Comparator::new(&cfg, &mut rng);
    }
}
