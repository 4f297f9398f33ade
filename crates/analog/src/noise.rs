//! Noise and interference sources at the comparator input.
//!
//! Thermal noise is *useful* in the APC scheme — it is the dithering source
//! that turns a 1-bit comparator into a high-resolution converter (paper
//! §II-B). EMI from nearby circuits is *asynchronous* interference: because
//! the iTDR's sampling is synchronized to the probe edges while the EMI is
//! not, its per-trigger phase is effectively random and it averages out
//! (paper §IV-C's EMI experiment).

use divot_dsp::rng::DivotRng;

/// A time-varying voltage disturbance at the receiver input.
///
/// `retrigger` is called once per probe edge so sources can re-randomize
/// anything not synchronized to the probe (EMI phase); `sample` is then
/// called at the equivalent-time sampling instant within that trigger.
pub trait NoiseSource {
    /// Notify the source that a new probe trigger begins.
    fn retrigger(&mut self, rng: &mut DivotRng);

    /// The disturbance voltage at time `t` (seconds) within the current
    /// trigger window.
    fn sample(&mut self, t: f64, rng: &mut DivotRng) -> f64;
}

/// White Gaussian (thermal) noise of a given RMS voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianNoise {
    /// RMS noise voltage (sigma).
    pub sigma: f64,
}

impl NoiseSource for GaussianNoise {
    fn retrigger(&mut self, _rng: &mut DivotRng) {}

    fn sample(&mut self, _t: f64, rng: &mut DivotRng) -> f64 {
        rng.normal(0.0, self.sigma)
    }
}

/// A narrowband EMI aggressor (e.g. a nearby high-speed digital circuit's
/// clock harmonic), asynchronous to the probe signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmiTone {
    /// Peak amplitude of the coupled interference (volts).
    pub amplitude: f64,
    /// Interference frequency (Hz).
    pub frequency: f64,
    /// Current phase (radians) — re-randomized per trigger because the
    /// aggressor is not synchronized to the probe.
    phase: f64,
}

impl EmiTone {
    /// Create an EMI tone of the given amplitude and frequency.
    pub fn new(amplitude: f64, frequency: f64) -> Self {
        Self {
            amplitude,
            frequency,
            phase: 0.0,
        }
    }

    /// The paper's EMI test: a high-speed digital circuit placed close to
    /// the bus. A 500 MHz harmonic coupling ~2 mV onto the trace — on the
    /// order of the comparator's own noise (the paper does not quantify
    /// the coupled level; see EXPERIMENTS.md for the sensitivity to it).
    pub fn paper_aggressor() -> Self {
        Self::new(2e-3, 500e6)
    }
}

impl NoiseSource for EmiTone {
    fn retrigger(&mut self, rng: &mut DivotRng) {
        self.phase = rng.uniform() * std::f64::consts::TAU;
    }

    fn sample(&mut self, t: f64, _rng: &mut DivotRng) -> f64 {
        self.amplitude * (std::f64::consts::TAU * self.frequency * t + self.phase).sin()
    }
}

/// A burst disturbance that is active only for a fraction of triggers
/// (e.g. a switching regulator firing intermittently).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstNoise {
    /// Amplitude while the burst is active.
    pub amplitude: f64,
    /// Probability that any given trigger falls inside a burst.
    pub duty: f64,
    active: bool,
}

impl BurstNoise {
    /// Create a burst source with activity probability `duty`.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `[0, 1]`.
    pub fn new(amplitude: f64, duty: f64) -> Self {
        assert!((0.0..=1.0).contains(&duty), "duty must be in [0,1]");
        Self {
            amplitude,
            duty,
            active: false,
        }
    }
}

impl NoiseSource for BurstNoise {
    fn retrigger(&mut self, rng: &mut DivotRng) {
        self.active = rng.bernoulli(self.duty);
    }

    fn sample(&mut self, _t: f64, rng: &mut DivotRng) -> f64 {
        if self.active {
            rng.normal(0.0, self.amplitude)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_dsp::stats;

    #[test]
    fn gaussian_noise_has_requested_sigma() {
        let mut src = GaussianNoise { sigma: 2e-3 };
        let mut rng = DivotRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..100_000).map(|_| src.sample(0.0, &mut rng)).collect();
        assert!((stats::std_dev(&xs) - 2e-3).abs() < 5e-5);
        assert!(stats::mean(&xs).abs() < 5e-5);
    }

    #[test]
    fn emi_tone_is_deterministic_within_a_trigger() {
        let mut src = EmiTone::new(5e-3, 500e6);
        let mut rng = DivotRng::seed_from_u64(2);
        src.retrigger(&mut rng);
        let a = src.sample(1e-9, &mut rng);
        let b = src.sample(1e-9, &mut rng);
        assert_eq!(a, b);
        assert!(a.abs() <= 5e-3);
    }

    #[test]
    fn emi_phase_randomizes_across_triggers() {
        let mut src = EmiTone::new(5e-3, 500e6);
        let mut rng = DivotRng::seed_from_u64(3);
        let mut vals = Vec::new();
        for _ in 0..2000 {
            src.retrigger(&mut rng);
            vals.push(src.sample(1e-9, &mut rng));
        }
        // Random phase ⇒ samples average to ~0 with RMS A/√2.
        assert!(stats::mean(&vals).abs() < 3e-4);
        assert!((stats::std_dev(&vals) - 5e-3 / 2f64.sqrt()).abs() < 3e-4);
    }

    #[test]
    fn emi_averages_out_over_triggers() {
        // The §IV-C claim: synchronized averaging rejects async EMI.
        // Average the same time point over many triggers: the EMI
        // contribution shrinks as 1/√R while a synchronized signal would
        // not.
        let mut src = EmiTone::new(10e-3, 500e6);
        let mut rng = DivotRng::seed_from_u64(4);
        let reps = 4096;
        let mean: f64 = (0..reps)
            .map(|_| {
                src.retrigger(&mut rng);
                src.sample(2e-9, &mut rng)
            })
            .sum::<f64>()
            / reps as f64;
        assert!(mean.abs() < 1e-3, "EMI should average out: {mean}");
    }

    #[test]
    fn burst_noise_duty() {
        let mut src = BurstNoise::new(1.0, 0.25);
        let mut rng = DivotRng::seed_from_u64(5);
        let mut active = 0;
        for _ in 0..10_000 {
            src.retrigger(&mut rng);
            if src.sample(0.0, &mut rng) != 0.0 {
                active += 1;
            }
        }
        let frac = active as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "frac={frac}");
    }

    #[test]
    #[should_panic(expected = "duty must be in [0,1]")]
    fn burst_rejects_bad_duty() {
        let _ = BurstNoise::new(1.0, 2.0);
    }
}
