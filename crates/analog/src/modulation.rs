//! Probability density modulation (PDM) reference waveforms and the Vernier
//! phase schedule.
//!
//! PDM (paper §II-C) drives the comparator's reference input with an
//! external modulation waveform. For it to sweep distinct reference levels
//! across probe repetitions, the modulation frequency `f_m` and sampling
//! frequency `f_s` must be *relatively prime* in cycle count — the Vernier
//! relationship of Fig. 3 (`5·f_m = 6·f_s` in the paper's example). The
//! effective comparator CDF becomes a mixture of Gaussian CDFs shifted to
//! the visited levels (Fig. 4), widening the linear range.

use divot_dsp::rng::DivotRng;

/// A periodic PDM reference waveform, parameterized by phase in `[0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModulationWave {
    /// No modulation: a fixed DC reference (plain APC).
    Dc {
        /// The reference level (volts).
        level: f64,
    },
    /// An ideal symmetric triangle sweeping `center ± amplitude`.
    Triangle {
        /// Sweep center (volts).
        center: f64,
        /// Sweep amplitude (volts).
        amplitude: f64,
    },
    /// The quasi-triangle produced by a digital output pin driving an RC
    /// charge/discharge network (the paper's suggested low-cost generator).
    /// `shape` is the ratio of the half-period to the RC time constant;
    /// small values are nearly linear (triangle), large values are strongly
    /// exponential.
    RcTriangle {
        /// Sweep center (volts).
        center: f64,
        /// Sweep amplitude (volts).
        amplitude: f64,
        /// Half-period / RC time constant (must be > 0).
        shape: f64,
    },
    /// A sine reference.
    Sine {
        /// Sweep center (volts).
        center: f64,
        /// Sweep amplitude (volts).
        amplitude: f64,
    },
}

impl ModulationWave {
    /// The reference voltage at modulation phase `phase ∈ [0, 1)` (values
    /// outside are wrapped).
    pub fn value_at_phase(&self, phase: f64) -> f64 {
        let p = phase.rem_euclid(1.0);
        match *self {
            ModulationWave::Dc { level } => level,
            ModulationWave::Triangle { center, amplitude } => {
                let tri = if p < 0.5 {
                    4.0 * p - 1.0
                } else {
                    3.0 - 4.0 * p
                };
                center + amplitude * tri
            }
            ModulationWave::RcTriangle {
                center,
                amplitude,
                shape,
            } => {
                assert!(shape > 0.0, "RC shape must be positive");
                // Exponential rise for half the period, fall for the rest,
                // normalized so the extremes are exactly ±amplitude.
                let norm = 1.0 - (-shape).exp();
                let u = if p < 0.5 { 2.0 * p } else { 2.0 - 2.0 * p };
                let v = (1.0 - (-shape * u).exp()) / norm;
                center + amplitude * (2.0 * v - 1.0)
            }
            ModulationWave::Sine { center, amplitude } => {
                center + amplitude * (std::f64::consts::TAU * p).sin()
            }
        }
    }

    /// Peak-to-peak sweep range `(min, max)` of the waveform.
    pub fn range(&self) -> (f64, f64) {
        match *self {
            ModulationWave::Dc { level } => (level, level),
            ModulationWave::Triangle { center, amplitude }
            | ModulationWave::RcTriangle {
                center, amplitude, ..
            }
            | ModulationWave::Sine { center, amplitude } => {
                (center - amplitude, center + amplitude)
            }
        }
    }
}

/// The Vernier relationship between the modulation and sampling clocks.
///
/// Each probe trigger advances the modulation phase by `num/den` of a
/// modulation period; because `gcd(num, den) = 1`, the trigger sequence
/// visits `den` equally spaced phases before repeating — the "Vernier time
/// delay" of paper Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VernierSchedule {
    num: u64,
    den: u64,
    /// A fixed phase offset applied to every trigger (sets where the `den`
    /// visited phases fall on the waveform).
    offset_num: u64,
    offset_den: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl VernierSchedule {
    /// Create a schedule advancing `num/den` modulation periods per
    /// trigger, with a phase offset of `offset_num/offset_den` periods.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, `offset_den == 0`, or `gcd(num % den, den)
    /// != 1` (the frequencies would not be relatively prime and some
    /// levels would never be visited — the failure mode the paper warns
    /// about when `f_m = f_s`).
    pub fn new(num: u64, den: u64, offset_num: u64, offset_den: u64) -> Self {
        assert!(den > 0 && offset_den > 0, "denominators must be non-zero");
        let n = num % den;
        assert!(
            gcd(n.max(1), den) == 1 && (n != 0 || den == 1),
            "num/den must be in lowest terms with gcd 1 (got {num}/{den}); \
             equal modulation and sampling frequencies defeat PDM"
        );
        Self {
            num,
            den,
            offset_num,
            offset_den,
        }
    }

    /// The paper's Fig. 3 example: `5·f_m = 6·f_s`, i.e. the phase advances
    /// 6/5 of a period per trigger, visiting 5 distinct levels.
    pub fn paper_example() -> Self {
        Self::new(6, 5, 1, 10)
    }

    /// The default production schedule: 8 visited phases offset by 1/16,
    /// which on a triangle wave lands on 4 distinct evenly spaced levels
    /// (each visited twice per cycle) at ±A/4 and ±3A/4.
    pub fn default_production() -> Self {
        Self::new(3, 8, 1, 16)
    }

    /// Number of distinct phases visited before the sequence repeats.
    pub fn period(&self) -> u64 {
        self.den
    }

    /// The modulation phase (in `[0,1)`) at trigger index `r`.
    pub fn phase(&self, r: u64) -> f64 {
        let step = (r as u128 * self.num as u128 % self.den as u128) as f64 / self.den as f64;
        (step + self.offset_num as f64 / self.offset_den as f64).rem_euclid(1.0)
    }

    /// The reference levels visited on `wave`, in trigger order over one
    /// full Vernier cycle. Duplicates are kept — the mixture weights matter.
    pub fn levels(&self, wave: &ModulationWave) -> Vec<f64> {
        (0..self.den)
            .map(|r| wave.value_at_phase(self.phase(r)))
            .collect()
    }

    /// A randomized variant of this schedule: same `den` but a random
    /// starting trigger index, for decorrelating multiple iTDRs sharing a
    /// modulation source.
    pub fn with_random_start(&self, rng: &mut DivotRng) -> (Self, u64) {
        (*self, rng.index(self.den as usize) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_sweeps_full_range() {
        let w = ModulationWave::Triangle {
            center: 0.0,
            amplitude: 0.01,
        };
        assert!((w.value_at_phase(0.0) + 0.01).abs() < 1e-12);
        assert!((w.value_at_phase(0.5) - 0.01).abs() < 1e-12);
        assert!((w.value_at_phase(0.25)).abs() < 1e-12);
        assert_eq!(w.range(), (-0.01, 0.01));
    }

    #[test]
    fn phase_wraps() {
        let w = ModulationWave::Triangle {
            center: 0.0,
            amplitude: 1.0,
        };
        assert!((w.value_at_phase(1.25) - w.value_at_phase(0.25)).abs() < 1e-12);
        assert!((w.value_at_phase(-0.75) - w.value_at_phase(0.25)).abs() < 1e-12);
    }

    #[test]
    fn rc_triangle_approaches_triangle_for_small_shape() {
        let tri = ModulationWave::Triangle {
            center: 0.0,
            amplitude: 1.0,
        };
        let rc = ModulationWave::RcTriangle {
            center: 0.0,
            amplitude: 1.0,
            shape: 0.01,
        };
        for i in 0..20 {
            let p = i as f64 / 20.0;
            assert!(
                (tri.value_at_phase(p) - rc.value_at_phase(p)).abs() < 0.01,
                "p={p}"
            );
        }
    }

    #[test]
    fn rc_triangle_is_curved_for_large_shape() {
        let rc = ModulationWave::RcTriangle {
            center: 0.0,
            amplitude: 1.0,
            shape: 4.0,
        };
        // Strong exponential: at quarter phase it has already risen past
        // the linear midpoint.
        assert!(rc.value_at_phase(0.25) > 0.5);
        // Extremes still hit exactly ±1.
        assert!((rc.value_at_phase(0.5) - 1.0).abs() < 1e-12);
        assert!((rc.value_at_phase(0.0) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn sine_and_dc() {
        let s = ModulationWave::Sine {
            center: 0.1,
            amplitude: 0.05,
        };
        assert!((s.value_at_phase(0.25) - 0.15).abs() < 1e-12);
        let d = ModulationWave::Dc { level: 0.02 };
        assert_eq!(d.value_at_phase(0.7), 0.02);
    }

    #[test]
    fn vernier_visits_all_phases() {
        let v = VernierSchedule::paper_example();
        assert_eq!(v.period(), 5);
        let mut phases: Vec<f64> = (0..5).map(|r| v.phase(r)).collect();
        phases.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // 5 distinct phases spaced exactly 1/5 apart.
        for w in phases.windows(2) {
            assert!((w[1] - w[0] - 0.2).abs() < 1e-12);
        }
        // Sequence repeats after the period.
        assert!((v.phase(0) - v.phase(5)).abs() < 1e-12);
    }

    #[test]
    fn default_production_gives_four_distinct_levels() {
        let v = VernierSchedule::default_production();
        let wave = ModulationWave::Triangle {
            center: 0.0,
            amplitude: 0.012,
        };
        let mut levels = v.levels(&wave);
        assert_eq!(levels.len(), 8);
        levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        levels.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        assert_eq!(levels.len(), 4, "levels: {levels:?}");
        // Evenly spaced at ±A/4, ±3A/4.
        assert!((levels[0] + 0.009).abs() < 1e-9);
        assert!((levels[1] + 0.003).abs() < 1e-9);
        assert!((levels[2] - 0.003).abs() < 1e-9);
        assert!((levels[3] - 0.009).abs() < 1e-9);
    }

    #[test]
    fn levels_keep_multiplicity() {
        let v = VernierSchedule::default_production();
        let wave = ModulationWave::Triangle {
            center: 0.0,
            amplitude: 1.0,
        };
        assert_eq!(v.levels(&wave).len(), v.period() as usize);
    }

    #[test]
    #[should_panic(expected = "equal modulation and sampling frequencies defeat PDM")]
    fn rejects_non_coprime() {
        let _ = VernierSchedule::new(2, 4, 0, 1);
    }

    #[test]
    #[should_panic(expected = "equal modulation and sampling frequencies defeat PDM")]
    fn rejects_fm_equals_fs() {
        // num % den == 0 ⇒ every trigger sees the same reference — the
        // paper's explicit failure case.
        let _ = VernierSchedule::new(5, 5, 0, 1);
    }
}
