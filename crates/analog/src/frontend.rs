//! The assembled analog receive chain of one iTDR channel.
//!
//! Signal path per probe trigger (paper Fig. 1 + §II):
//!
//! ```text
//! backward wave ──► coupler ──►(+ EMI)(+ thermal noise)──► comparator ─► Y ∈ {0,1}
//! forward  wave ──► (finite-directivity leakage) ─┘             ▲
//! PDM modulation wave ── Vernier phase ── reference input ──────┘
//! ```
//!
//! The [`FrontEnd`] owns the comparator instance (with its drawn offset),
//! the EMI state, and the Vernier trigger counter. The digital side (APC
//! counters, ETS scheduling, reconstruction) lives in `divot-core`.

use crate::comparator::{Comparator, ComparatorConfig};
use crate::coupler::Coupler;
use crate::modulation::{ModulationWave, VernierSchedule};
use crate::noise::{EmiTone, NoiseSource};
use crate::pll::PllConfig;
use divot_dsp::rng::DivotRng;

/// Static configuration of an iTDR analog front end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontEndConfig {
    /// The directional coupler.
    pub coupler: Coupler,
    /// The comparator.
    pub comparator: ComparatorConfig,
    /// The PDM reference waveform (shared chip-wide in a real design).
    pub modulation: ModulationWave,
    /// The Vernier phase relationship between modulation and sampling.
    pub vernier: VernierSchedule,
    /// The phase-stepping PLL (shared chip-wide).
    pub pll: PllConfig,
    /// Optional EMI aggressor coupled onto the detector input.
    pub emi: Option<EmiTone>,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        Self {
            coupler: Coupler::default(),
            comparator: ComparatorConfig::default(),
            // Sized to the detector-side signal range of the prototype
            // line family (reflections spanning roughly −22..+6 mV after
            // the coupler, including the termination pad's capacitive
            // dip). A tighter sweep raises sensitivity — the paper's
            // sensitivity/dynamic-range balance (§II-C).
            modulation: ModulationWave::Triangle {
                center: -2e-3,
                amplitude: 10e-3,
            },
            // 21 visited phases ⇒ reference levels ~1.9σ apart across the
            // sweep: nearly uniform sensitivity (paper Fig. 4).
            vernier: VernierSchedule::new(8, 21, 1, 42),
            pll: PllConfig::default(),
            emi: None,
        }
    }
}

impl FrontEndConfig {
    /// The default chain with the paper's EMI aggressor placed next to the
    /// bus (§IV-C EMI experiment).
    pub fn with_emi_aggressor() -> Self {
        Self {
            emi: Some(EmiTone::paper_aggressor()),
            ..Self::default()
        }
    }

    /// The reference levels the PDM scheme visits (with multiplicity) —
    /// what the reconstruction's effective CDF is built from.
    pub fn reference_levels(&self) -> Vec<f64> {
        self.vernier.levels(&self.modulation)
    }

    /// The distinct PDM reference levels visited over `repetitions`
    /// triggers, each paired with the number of triggers that use it.
    ///
    /// Levels that collide bitwise (the triangle wave visits some values on
    /// both flanks) are merged, in deterministic first-seen Vernier order,
    /// so the analytic acquisition path draws one binomial per *distinct*
    /// level instead of one per phase. The counts always sum to
    /// `repetitions`.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions` is not a positive multiple of the Vernier
    /// period (partial sweeps would bias the level weighting — the same
    /// precondition `Itdr::measure` enforces).
    pub fn level_schedule(&self, repetitions: u32) -> Vec<(f64, u32)> {
        let period = self.vernier.period();
        assert!(
            repetitions > 0 && u64::from(repetitions) % period == 0,
            "repetitions ({repetitions}) must be a positive multiple of the \
             Vernier period ({period})"
        );
        let sweeps = (u64::from(repetitions) / period) as u32;
        divot_telemetry::inc("frontend.level_schedule_builds");
        let mut schedule: Vec<(f64, u32)> = Vec::new();
        for r in 0..period {
            let level = self.modulation.value_at_phase(self.vernier.phase(r));
            match schedule
                .iter_mut()
                .find(|(l, _)| l.to_bits() == level.to_bits())
            {
                Some((_, count)) => *count += sweeps,
                None => schedule.push((level, sweeps)),
            }
        }
        schedule
    }

    /// The effective comparator sigma for closed-form trip probabilities:
    /// thermal noise plus the EMI aggressor folded in as an equivalent
    /// Gaussian of variance `A²/2` (the variance of a tone sampled at a
    /// uniformly random phase). Exact when no EMI is configured.
    pub fn effective_sigma(&self) -> f64 {
        let mut var = self.comparator.noise_sigma * self.comparator.noise_sigma;
        if let Some(emi) = &self.emi {
            var += 0.5 * emi.amplitude * emi.amplitude;
        }
        var.sqrt()
    }

    /// Whether the closed-form trip-probability model reproduces this
    /// chain's trial statistics. Hysteresis couples successive decisions,
    /// so any non-zero hysteresis disqualifies the analytic path.
    pub fn supports_analytic(&self) -> bool {
        self.comparator.hysteresis == 0.0
    }
}

/// The closed-form comparator law of one front-end instance — its drawn
/// static offset and effective sigma — from [`FrontEnd::trip_model`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripModel {
    offset: f64,
    sigma: f64,
}

impl TripModel {
    /// The drawn static comparator offset (volts).
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// The effective comparator sigma, EMI folded in (volts).
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Closed-form probability that one trigger at detector voltage
    /// `detector` trips against PDM reference `level`:
    /// `Φ((detector + offset − level)/σ_eff)`.
    ///
    /// `detector` is the *coupler output* — callers apply
    /// [`Coupler::detect`](crate::coupler::Coupler::detect) to the raw
    /// waves first, exactly as [`FrontEnd::observe`] does internally.
    /// Ties go low at zero sigma, matching the trial comparator.
    #[inline]
    pub fn probability(&self, detector: f64, level: f64) -> f64 {
        let margin = detector + self.offset - level;
        if self.sigma > 0.0 {
            divot_dsp::gaussian::std_cdf(margin / self.sigma)
        } else if margin > 0.0 {
            1.0
        } else {
            0.0
        }
    }

    /// The argument at which [`probability`](Self::probability) evaluates
    /// `erfc` for `σ_eff > 0`: `probability(d, l)` is bitwise
    /// `0.5 * erfc(erfc_argument(d, l))`, so a caller can evaluate many
    /// `(detector, level)` pairs with one
    /// [`erfc_batch`](divot_dsp::erf::erfc_batch).
    #[inline]
    pub fn erfc_argument(&self, detector: f64, level: f64) -> f64 {
        debug_assert!(self.sigma > 0.0, "a step law has no erfc argument");
        let margin = detector + self.offset - level;
        -(margin / self.sigma) / std::f64::consts::SQRT_2
    }
}

/// A live front-end instance bound to one bus channel.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    config: FrontEndConfig,
    comparator: Comparator,
    emi: Option<EmiTone>,
    rng: DivotRng,
    trigger_count: u64,
    current_ref: f64,
    seed: u64,
}

impl FrontEnd {
    /// Instantiate the chain; per-instance analog variation (comparator
    /// offset) is drawn from `seed`.
    pub fn new(config: FrontEndConfig, seed: u64) -> Self {
        let mut rng = DivotRng::derive(seed, 0xFE_0001);
        let comparator = Comparator::new(&config.comparator, &mut rng);
        let current_ref = config.modulation.value_at_phase(config.vernier.phase(0));
        Self {
            config,
            comparator,
            emi: config.emi,
            rng,
            trigger_count: 0,
            current_ref,
            seed,
        }
    }

    /// Fork an independent acquisition stream of this front end.
    ///
    /// The fork models the *same physical instrument* — identical
    /// configuration and identical drawn comparator offset — observed over
    /// a disjoint batch of probe triggers: the trigger counter restarts at
    /// zero (Vernier phase 0), the EMI aggressor state is re-initialized,
    /// and the interference/noise randomness continues on an independent
    /// stream derived from `(seed, stream)`. Forks with different `stream`
    /// ids produce statistically independent noise; the same `(seed,
    /// stream)` pair always reproduces the same fork — which is what lets
    /// concurrent acquisition across ETS points stay bitwise reproducible.
    pub fn fork_stream(&self, stream: u64) -> FrontEnd {
        let mut fork = FrontEnd::new(self.config, self.seed);
        fork.rng = DivotRng::derive(divot_dsp::rng::mix_seed(self.seed, stream), 0xFE_0002);
        fork
    }

    /// The static configuration.
    pub fn config(&self) -> &FrontEndConfig {
        &self.config
    }

    /// Total probe triggers consumed so far.
    pub fn trigger_count(&self) -> u64 {
        self.trigger_count
    }

    /// Begin a new probe trigger: advances the Vernier phase (selecting
    /// this trigger's PDM reference level) and re-randomizes asynchronous
    /// interference. Returns the reference level in use for this trigger.
    pub fn begin_trigger(&mut self) -> f64 {
        self.current_ref = self
            .config
            .modulation
            .value_at_phase(self.config.vernier.phase(self.trigger_count));
        self.trigger_count += 1;
        if let Some(emi) = &mut self.emi {
            emi.retrigger(&mut self.rng);
        }
        self.current_ref
    }

    /// One comparator observation at time `t` within the current trigger:
    /// couples the waves, adds interference, compares against the current
    /// PDM reference.
    pub fn observe(&mut self, backward_v: f64, forward_v: f64, t: f64) -> bool {
        let mut detector = self.config.coupler.detect(backward_v, forward_v);
        if let Some(emi) = &mut self.emi {
            detector += emi.sample(t, &mut self.rng);
        }
        self.comparator
            .decide(detector, self.current_ref, &mut self.rng)
    }

    /// The comparator's input-referred noise sigma (needed by the
    /// reconstruction model).
    pub fn noise_sigma(&self) -> f64 {
        self.comparator.noise_sigma()
    }

    /// This instance's drawn static comparator offset (volts).
    pub fn comparator_offset(&self) -> f64 {
        self.comparator.offset()
    }

    /// Whether the closed-form trip-probability model is statistically
    /// faithful for this instance — see
    /// [`FrontEndConfig::supports_analytic`].
    pub fn supports_analytic(&self) -> bool {
        self.comparator.hysteresis() == 0.0
    }

    /// This instance's closed-form trip law: the drawn comparator offset
    /// and the effective sigma ([`FrontEndConfig::effective_sigma`], one
    /// `sqrt`), evaluated once so callers sweeping many
    /// `(detector, level)` pairs pay for neither per probability.
    ///
    /// Only valid when [`supports_analytic`](Self::supports_analytic).
    pub fn trip_model(&self) -> TripModel {
        TripModel {
            offset: self.comparator.offset(),
            sigma: self.config.effective_sigma(),
        }
    }

    /// Reset the trigger counter (start of a fresh measurement).
    pub fn reset_triggers(&mut self) {
        self.trigger_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_argument_is_the_one_probability_evaluates() {
        for (offset, sigma) in [(0.0, 1e-3), (2.5e-3, 4.2e-3), (-1e-2, 0.37)] {
            let model = TripModel { offset, sigma };
            for i in -200..=200 {
                let detector = f64::from(i) * 3.1e-4;
                for level in [-0.05, -1e-3, 0.0, 7e-4, 0.031] {
                    let e = divot_dsp::erf::erfc(model.erfc_argument(detector, level));
                    assert_eq!(
                        (0.5 * e).to_bits(),
                        model.probability(detector, level).to_bits(),
                        "offset={offset} sigma={sigma} d={detector} level={level}"
                    );
                }
            }
        }
    }

    #[test]
    fn reference_levels_cycle_with_vernier_period() {
        let mut fe = FrontEnd::new(FrontEndConfig::default(), 1);
        let period = fe.config().vernier.period() as usize;
        let first: Vec<f64> = (0..period).map(|_| fe.begin_trigger()).collect();
        let second: Vec<f64> = (0..period).map(|_| fe.begin_trigger()).collect();
        assert_eq!(first, second);
        // And the level multiset matches the config's reference levels.
        let mut a = first.clone();
        let mut b = fe.config().reference_levels();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn levels_span_the_modulation_range() {
        let cfg = FrontEndConfig::default();
        let levels = cfg.reference_levels();
        let (lo, hi) = cfg.modulation.range();
        let min = levels.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = levels.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min > lo - 1e-12 && min < lo + 0.15 * (hi - lo));
        assert!(max < hi + 1e-12 && max > hi - 0.15 * (hi - lo));
    }

    #[test]
    fn observe_depends_on_signal() {
        let mut fe = FrontEnd::new(FrontEndConfig::default(), 2);
        fe.begin_trigger();
        // A huge positive signal always trips, a huge negative never.
        assert!(fe.observe(10.0, 0.0, 0.0));
        assert!(!fe.observe(-10.0, 0.0, 0.0));
    }

    #[test]
    fn trip_rate_tracks_signal_level() {
        let mut fe = FrontEnd::new(FrontEndConfig::default(), 3);
        let count_for = |fe: &mut FrontEnd, v: f64| {
            let mut c = 0;
            for _ in 0..2100 {
                fe.begin_trigger();
                if fe.observe(v, 0.0, 0.0) {
                    c += 1;
                }
            }
            c
        };
        let (lo, hi) = fe.config().modulation.range();
        let center_input = 0.5 * (lo + hi) / fe.config().coupler.backward_gain();
        let low = count_for(&mut fe, -0.02);
        let mid = count_for(&mut fe, center_input);
        let high = count_for(&mut fe, 0.05);
        assert!(low < mid && mid < high, "{low} {mid} {high}");
        // Mid input (detector at modulation center) trips about half.
        assert!((mid as f64 / 2100.0 - 0.5).abs() < 0.1);
    }

    #[test]
    fn emi_perturbs_individual_observations() {
        let mut quiet = FrontEnd::new(FrontEndConfig::default(), 4);
        let mut noisy = FrontEnd::new(FrontEndConfig::with_emi_aggressor(), 4);
        // Same seed: with a near-threshold signal the EMI changes some
        // decisions over many triggers.
        let mut diff = 0;
        for _ in 0..2000 {
            quiet.begin_trigger();
            noisy.begin_trigger();
            let v = 0.008;
            if quiet.observe(v, 0.0, 1e-9) != noisy.observe(v, 0.0, 1e-9) {
                diff += 1;
            }
        }
        assert!(diff > 50, "EMI should flip some decisions: {diff}");
    }

    #[test]
    fn reset_triggers_restarts_vernier() {
        let mut fe = FrontEnd::new(FrontEndConfig::default(), 5);
        let a = fe.begin_trigger();
        fe.begin_trigger();
        fe.reset_triggers();
        assert_eq!(fe.trigger_count(), 0);
        let b = fe.begin_trigger();
        assert_eq!(a, b);
    }

    #[test]
    fn forks_share_the_comparator_but_not_the_noise() {
        let mut base = FrontEnd::new(FrontEndConfig::default(), 8);
        base.begin_trigger();
        base.begin_trigger(); // advance the parent's state
        let mut f0 = base.fork_stream(0);
        let mut f1 = base.fork_stream(1);
        // Same physical comparator: identical noise sigma, and a clean
        // Vernier restart regardless of the parent's position.
        assert_eq!(f0.noise_sigma(), base.noise_sigma());
        assert_eq!(f0.trigger_count(), 0);
        assert_eq!(f0.begin_trigger(), f1.begin_trigger());
        // ...but independent noise streams: near-threshold decisions
        // disagree sometimes.
        let mut diff = 0;
        for _ in 0..2000 {
            f0.begin_trigger();
            f1.begin_trigger();
            if f0.observe(0.008, 0.0, 0.0) != f1.observe(0.008, 0.0, 0.0) {
                diff += 1;
            }
        }
        assert!(diff > 50, "independent streams must decorrelate: {diff}");
    }

    #[test]
    fn forks_are_reproducible() {
        let base = FrontEnd::new(FrontEndConfig::default(), 9);
        let mut a = base.fork_stream(17);
        let mut b = base.fork_stream(17);
        for _ in 0..500 {
            a.begin_trigger();
            b.begin_trigger();
            assert_eq!(a.observe(0.005, 0.0, 1e-9), b.observe(0.005, 0.0, 1e-9));
        }
    }

    #[test]
    fn level_schedule_counts_sum_to_repetitions() {
        let cfg = FrontEndConfig::default();
        let period = cfg.vernier.period() as u32;
        for sweeps in [1u32, 10] {
            let reps = sweeps * period;
            let schedule = cfg.level_schedule(reps);
            let total: u32 = schedule.iter().map(|(_, c)| c).sum();
            assert_eq!(total, reps);
            // Duplicated flank levels were merged: fewer distinct levels
            // than phases, and no bitwise duplicates remain.
            assert!(schedule.len() < period as usize);
            for (i, (a, _)) in schedule.iter().enumerate() {
                for (b, _) in &schedule[i + 1..] {
                    assert_ne!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn level_schedule_matches_reference_level_multiset() {
        let cfg = FrontEndConfig::default();
        let period = cfg.vernier.period() as u32;
        let schedule = cfg.level_schedule(3 * period);
        let mut expanded: Vec<f64> = Vec::new();
        for (level, count) in &schedule {
            expanded.extend(std::iter::repeat_n(*level, (*count / 3) as usize));
        }
        let mut levels = cfg.reference_levels();
        expanded.sort_by(|x, y| x.partial_cmp(y).unwrap());
        levels.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(expanded, levels);
    }

    #[test]
    #[should_panic(expected = "multiple of the")]
    fn level_schedule_rejects_partial_sweeps() {
        FrontEndConfig::default().level_schedule(43);
    }

    #[test]
    fn trip_probability_matches_trial_rate() {
        // The closed-form model vs the simulated chain, quiet and with the
        // EMI aggressor folded into the effective sigma.
        for cfg in [
            FrontEndConfig::default(),
            FrontEndConfig::with_emi_aggressor(),
        ] {
            let mut fe = FrontEnd::new(cfg, 11);
            assert!(fe.supports_analytic());
            let level = fe.begin_trigger();
            let detector = level + 1.2e-3;
            let n = 60_000;
            let mut hits = 0;
            for _ in 0..n {
                // Hold the Vernier at a fixed phase by resetting each
                // trigger; EMI phase still re-randomizes.
                fe.reset_triggers();
                fe.begin_trigger();
                // Invert the coupler so the detector sees exactly `detector`.
                let backward = detector / fe.config().coupler.backward_gain();
                if fe.observe(backward, 0.0, 0.0) {
                    hits += 1;
                }
            }
            let trial = hits as f64 / n as f64;
            let analytic = fe.trip_model().probability(detector, level);
            assert!(
                (trial - analytic).abs() < 0.015,
                "emi={:?}: trial {trial} vs analytic {analytic}",
                fe.config().emi.is_some()
            );
        }
    }

    #[test]
    fn hysteresis_disables_analytic_support() {
        let cfg = FrontEndConfig {
            comparator: ComparatorConfig {
                hysteresis: 1e-3,
                ..ComparatorConfig::default()
            },
            ..FrontEndConfig::default()
        };
        assert!(!cfg.supports_analytic());
        assert!(!FrontEnd::new(cfg, 1).supports_analytic());
    }

    #[test]
    fn effective_sigma_folds_emi_variance() {
        let quiet = FrontEndConfig::default();
        let noisy = FrontEndConfig::with_emi_aggressor();
        assert_eq!(quiet.effective_sigma(), quiet.comparator.noise_sigma);
        let amp = noisy.emi.unwrap().amplitude;
        let want = (quiet.comparator.noise_sigma.powi(2) + 0.5 * amp * amp).sqrt();
        assert!((noisy.effective_sigma() - want).abs() < 1e-15);
    }

    #[test]
    fn instances_have_distinct_offsets_but_same_levels() {
        let fe1 = FrontEnd::new(FrontEndConfig::default(), 6);
        let fe2 = FrontEnd::new(FrontEndConfig::default(), 7);
        assert_eq!(
            fe1.config().reference_levels(),
            fe2.config().reference_levels()
        );
        assert_eq!(fe1.noise_sigma(), fe2.noise_sigma());
    }
}
