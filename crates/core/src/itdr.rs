//! The integrated time-domain reflectometer.
//!
//! [`Itdr::measure`] runs the full measurement pipeline of paper §II on a
//! [`BusChannel`]:
//!
//! 1. **ETS** walks the equivalent-time sample points across the
//!    observation window (PLL phase stepping);
//! 2. at each point, **APC** produces a trip count over `R` probe
//!    triggers while **PDM** cycles the reference through the Vernier
//!    levels — either by simulating every comparator trial
//!    ([`AcqMode::Trial`]) or by drawing the count from its closed-form
//!    binomial law per reference level ([`AcqMode::Analytic`]);
//! 3. counts are turned back into voltages through the reconstruction ROM;
//! 4. a light smoothing pass (a short FIR in hardware) yields the IIP
//!    waveform.
//!
//! The result is the line's IIP signature: what gets enrolled at
//! calibration time and compared at runtime.

use crate::apc::{ReconstructionTable, TripCounter};
use crate::channel::{measurement_seed, BusChannel, MeasurementContext};
use crate::ets::EtsSchedule;
use crate::exec::ExecPolicy;
use crate::fingerprint::Fingerprint;
use divot_analog::frontend::{FrontEnd, FrontEndConfig, TripModel};
use divot_dsp::erf::erfc_batch;
use divot_dsp::filter::moving_average;
use divot_dsp::quadrature::GaussHermite;
use divot_dsp::rng::{mix_seed, DivotRng, PreparedBinomial};
use divot_dsp::waveform::Waveform;
use divot_telemetry::{Counter, Value};
use divot_txline::units::Seconds;
use std::sync::{Arc, LazyLock};

/// Domain tag for the per-point jitter RNG streams.
const JITTER_DOMAIN: u64 = 0x4A17_0000;

/// Domain tag for the per-point analytic binomial RNG streams (disjoint
/// from [`JITTER_DOMAIN`] so the two modes never share draws).
const ANALYTIC_DOMAIN: u64 = 0xA7A1_0000;

/// Gauss–Hermite order used to fold PLL trigger jitter into the analytic
/// trip probabilities. Nine nodes integrate polynomials to degree 17
/// exactly — far beyond what a response that is smooth on the ~1.5 ps
/// jitter scale needs — while keeping the per-level cost at nine CDF
/// evaluations.
const JITTER_QUAD_ORDER: usize = 9;

/// The jitter quadrature rule: a pure function of [`JITTER_QUAD_ORDER`],
/// so it is built (by Newton iteration) once per process, not once per
/// [`Itdr::measure_many`] call.
static JITTER_QUAD: LazyLock<GaussHermite> = LazyLock::new(|| GaussHermite::new(JITTER_QUAD_ORDER));

/// Window levels per batched law pass in [`PointNodes::prepare_window`]:
/// its stack buffer holds this many levels' `erfc` arguments, one per
/// quadrature node.
const LAW_LEVELS: usize = 16;

/// Saturation guard in units of the effective sigma: reference levels
/// farther than this from every jittered detector value get probability
/// 0 or 1 directly (`Φ(±8)` differs from {0, 1} by `< 7e-16`, below one
/// count in any feasible repetition budget).
const SATURATION_SIGMAS: f64 = 8.0;

/// How the APC obtains each (ETS point, reference level) trip count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AcqMode {
    /// Simulate every comparator trial individually (the statistical
    /// reference — exactly the hardware's acquisition sequence).
    #[default]
    Trial,
    /// Compute each level's trip probability in closed form (comparator
    /// CDF × Gauss–Hermite jitter quadrature, EMI folded into an
    /// effective sigma) and draw the count from the exact binomial law.
    /// Falls back to [`Trial`](Self::Trial) when the front end's
    /// comparator has hysteresis, which makes trials dependent.
    Analytic,
}

impl AcqMode {
    /// A short human-readable label (`"trial"` / `"analytic"`) for bench
    /// output.
    pub fn label(self) -> &'static str {
        match self {
            AcqMode::Trial => "trial",
            AcqMode::Analytic => "analytic",
        }
    }
}

impl std::str::FromStr for AcqMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "trial" => Ok(AcqMode::Trial),
            "analytic" => Ok(AcqMode::Analytic),
            other => Err(format!(
                "unknown acquisition mode {other:?} (expected \"trial\" or \"analytic\")"
            )),
        }
    }
}

/// Configuration of one iTDR instrument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ItdrConfig {
    /// The equivalent-time sampling schedule.
    pub ets: EtsSchedule,
    /// Probe triggers per sample point (`R`). Must be a multiple of the
    /// front end's Vernier period so every point sees the same balanced
    /// mix of PDM reference levels.
    pub repetitions: u32,
    /// Half-width of the post-reconstruction moving-average smoother
    /// (0 disables smoothing).
    pub smoothing_half_width: usize,
    /// How trip counts are acquired (per-trial simulation or closed-form
    /// probabilities + binomial draws). Defaults to [`AcqMode::Trial`].
    pub acq_mode: AcqMode,
}

impl ItdrConfig {
    /// The prototype configuration: the paper's 0–3.8 ns window sampled
    /// every second PLL phase step (22.32 ps grid, 171 points — the
    /// response is band-limited by the 150 ps edge, so this loses
    /// nothing), 42 triggers per point (two full Vernier cycles) —
    /// 7,182 triggers ≈ 46 µs on the 156.25 MHz clock lane, inside the
    /// paper's 50 µs claim.
    pub fn paper() -> Self {
        Self {
            ets: EtsSchedule::new(0.0, 3.8e-9, 2.0 * 11.16e-12),
            repetitions: 42,
            smoothing_half_width: 2,
            acq_mode: AcqMode::Trial,
        }
    }

    /// The embedded (production memory-bus) configuration: half the paper
    /// configuration's ETS density (86 points, 3,612 triggers ≈ 23 µs at
    /// 156.25 MHz; well under 1 µs on a GHz memory clock). Decisions at
    /// this density should average ≥2 measurements (see
    /// [`MonitorConfig`](crate::monitor::MonitorConfig)).
    pub fn embedded() -> Self {
        Self {
            ets: EtsSchedule::new(0.0, 3.8e-9, 4.0 * 11.16e-12),
            ..Self::paper()
        }
    }

    /// A fast configuration for unit tests: 4× coarser time step than the
    /// paper configuration.
    pub fn fast() -> Self {
        Self {
            ets: EtsSchedule::new(0.0, 3.8e-9, 8.0 * 11.16e-12),
            ..Self::paper()
        }
    }

    /// A high-fidelity configuration trading time for accuracy: 420
    /// triggers per point (~460 µs per measurement).
    pub fn high_fidelity() -> Self {
        Self {
            repetitions: 420,
            ..Self::paper()
        }
    }

    /// The paper's full-density acquisition: every PLL phase step across
    /// the 0–3.8 ns window (11.16 ps grid, 341 points) at 420 triggers per
    /// point — the ~143k-trial sweep the analytic fast path is benchmarked
    /// against.
    pub fn paper_full() -> Self {
        Self {
            ets: EtsSchedule::new(0.0, 3.8e-9, 11.16e-12),
            repetitions: 420,
            ..Self::paper()
        }
    }

    /// Total probe triggers one measurement consumes.
    ///
    /// This is *modeled hardware time* and is mode-independent: the
    /// analytic path changes how the simulator computes counts, not how
    /// many triggers the instrument would spend on the bus.
    pub fn total_triggers(&self) -> u64 {
        self.ets.points() as u64 * self.repetitions as u64
    }

    /// The same configuration with a different acquisition mode.
    pub fn with_acq_mode(self, acq_mode: AcqMode) -> Self {
        Self { acq_mode, ..self }
    }
}

/// Prefetched process-wide counter handles for the acquisition hot
/// path. Built once per [`Itdr::measure_many`] call (`None` when no
/// global telemetry is installed) and shared read-only by every point
/// kernel, so the parallel loop pays one lock-free atomic add per
/// counter per *point* — never a registry lookup, and nothing at all
/// per trial. Strictly observe-only: no RNG, no control flow.
struct AcqTelemetry {
    points: Arc<Counter>,
    trials: Arc<Counter>,
    analytic_points: Arc<Counter>,
    analytic_levels: Arc<Counter>,
    analytic_saturated: Arc<Counter>,
}

impl AcqTelemetry {
    fn prefetch() -> Option<Self> {
        divot_telemetry::global().map(|t| {
            let r = t.registry();
            Self {
                points: r.counter("itdr.points"),
                trials: r.counter("itdr.trials"),
                analytic_points: r.counter("itdr.analytic.points"),
                analytic_levels: r.counter("itdr.analytic.levels"),
                analytic_saturated: r.counter("itdr.analytic.saturated_levels"),
            }
        })
    }
}

/// Deterministic precomputation for the analytic sweep: the
/// distinct-level schedule plus its levels indexed in ascending order,
/// so each point kernel can *bracket* — binary-search the saturated
/// tails of the schedule instead of testing every level. A pure function
/// of the schedule, so a channel measurement builds one per batch of
/// measurements and a fleet builds one for its lifetime
/// (see [`Itdr::measure_averaged_nodes`]).
///
/// `rank[i]` is the position of schedule entry `i` in ascending-level
/// order, `levels_asc` are the levels in that order, and `prefix[k]` is
/// the total trigger count of the `k` lowest levels. The trip
/// probability is monotone non-increasing in the reference level, so
/// the `p = 1` saturated levels always form a prefix of the ascending
/// order and the `p = 0` levels a suffix — each edge is found by
/// `partition_point` over exactly the per-level saturation predicates
/// the full linear sweep evaluates.
#[derive(Debug)]
pub struct AnalyticPlan {
    schedule: Arc<Vec<(f64, u32)>>,
    rank: Vec<u32>,
    levels_asc: Vec<f64>,
    prefix: Vec<u32>,
}

impl AnalyticPlan {
    /// The plan of a distinct-level schedule, as
    /// [`FrontEndConfig::level_schedule`](divot_analog::frontend::FrontEndConfig::level_schedule)
    /// returns it.
    pub fn new(schedule: Arc<Vec<(f64, u32)>>) -> Self {
        let mut sorted: Vec<u32> = (0..schedule.len() as u32).collect();
        sorted.sort_by(|&a, &b| {
            let (la, lb) = (schedule[a as usize].0, schedule[b as usize].0);
            la.partial_cmp(&lb).expect("reference levels are finite")
        });
        let mut rank = vec![0u32; schedule.len()];
        for (r, &i) in sorted.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        let levels_asc: Vec<f64> = sorted.iter().map(|&i| schedule[i as usize].0).collect();
        let mut prefix = Vec::with_capacity(schedule.len() + 1);
        prefix.push(0u32);
        let mut acc = 0u32;
        for &i in &sorted {
            acc += schedule[i as usize].1;
            prefix.push(acc);
        }
        Self {
            schedule,
            rank,
            levels_asc,
            prefix,
        }
    }
}

/// The closed-form acquisition law of one ETS point: exact trigger
/// totals for the saturated level tails plus the trip probabilities of
/// the non-saturated window. Computing a law (quadrature over the
/// response) is the expensive part of an analytic point; drawing one
/// measurement's counts from it is cheap — so when every context of a
/// [`Itdr::measure_many`] call observes the same frozen environment, or
/// a static device's [`DetectorNodes`] are read directly, the law is
/// computed once per point and shared by all measurements.
struct PointLaw {
    /// Total triggers across levels saturated at `p = 1` (all trip).
    sat_one: u32,
    /// Total triggers across levels saturated at `p = 0` (none trip).
    sat_zero: u32,
    /// Distinct levels in the saturated tails (telemetry parity with
    /// the full linear sweep).
    saturated: u64,
    /// The prepared `Binomial(trigger count, trip probability)` of each
    /// non-saturated level, in schedule order — the order the binomial
    /// stream is consumed in. Preparing the sampler here runs its
    /// seed-independent setup once per point instead of once per draw.
    window: Vec<PreparedBinomial>,
}

/// The coupler output at each Gauss–Hermite abscissa of one ETS point's
/// sampling-instant jitter. It reads only the context's response,
/// forward wave, `jitter_rms` and coupler, never its seed or comparator
/// draw, so on a static environment it is fixed per device.
fn detector_nodes_at(ctx: &MeasurementContext, t_nominal: f64) -> [f64; JITTER_QUAD_ORDER] {
    let coupler = ctx.frontend.config().coupler;
    let mut detectors = [0.0f64; JITTER_QUAD_ORDER];
    for (d, t) in detectors
        .iter_mut()
        .zip(JITTER_QUAD.abscissas(t_nominal, ctx.jitter_rms))
    {
        *d = coupler.detect(ctx.response.sample_at(t), ctx.forward.at(t));
    }
    detectors
}

/// Every ETS point's jitter-quadrature detector nodes of one device:
/// everything the analytic sweep reads from the line, 9 `f64` per point
/// instead of the whole back-reflection.
///
/// Built once from a measurement context by
/// [`Itdr::detector_nodes`] and read by
/// [`Itdr::measure_averaged_nodes`], which then needs no channel.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorNodes {
    points: Box<[[f64; JITTER_QUAD_ORDER]]>,
}

impl DetectorNodes {
    /// Number of ETS points.
    fn points(&self) -> usize {
        self.points.len()
    }
}

/// The jitter-quadrature view of one ETS point: its detector nodes, the
/// extremes the saturation tests bracket against, and the front end's
/// trip law — everything the point's per-level trip probabilities read,
/// evaluated once per point rather than once per level.
struct PointNodes {
    detectors: [f64; JITTER_QUAD_ORDER],
    lo: f64,
    hi: f64,
    trip: TripModel,
}

impl PointNodes {
    fn new(ctx: &MeasurementContext, t_nominal: f64) -> Self {
        Self::from_detectors(detector_nodes_at(ctx, t_nominal), ctx.frontend.trip_model())
    }

    /// Pair one point's (device-fixed) detector nodes with a request's
    /// trip law.
    fn from_detectors(detectors: [f64; JITTER_QUAD_ORDER], trip: TripModel) -> Self {
        let (lo, hi) = detectors
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &d| {
                (lo.min(d), hi.max(d))
            });
        Self {
            detectors,
            lo,
            hi,
            trip,
        }
    }

    /// Whether every trigger at `level` trips to within the guard band
    /// (`p = 1`): non-increasing in the level.
    fn saturates_at_one(&self, level: f64) -> bool {
        let sigma = self.trip.sigma();
        sigma > 0.0 && (self.lo + self.trip.offset()) - level >= SATURATION_SIGMAS * sigma
    }

    /// Whether no trigger at `level` trips to within the guard band
    /// (`p = 0`): non-decreasing in the level.
    fn saturates_at_zero(&self, level: f64) -> bool {
        let sigma = self.trip.sigma();
        sigma > 0.0 && level - (self.hi + self.trip.offset()) >= SATURATION_SIGMAS * sigma
    }

    /// The jitter-averaged trip probability of one trigger at `level`:
    /// the scalar reference the full sweep and the `σ = 0` law run.
    fn trip_probability(&self, level: f64) -> f64 {
        // Weighted quadrature sum; clamp the last few ULPs of round-off
        // so the binomial's domain check never trips.
        self.detectors
            .iter()
            .zip(JITTER_QUAD.weights())
            .map(|(&d, &w)| w * self.trip.probability(d, level))
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Append the prepared law of every `(level, count)` in `levels` to
    /// `window`, each bitwise
    /// `PreparedBinomial::new(count, self.trip_probability(level))`.
    ///
    /// The `(level, node)` pairs are independent, so up to
    /// [`LAW_LEVELS`] levels at a time gather their `erfc` arguments into
    /// one stack buffer, evaluate it with one
    /// [`erfc_batch`](divot_dsp::erf::erfc_batch), form each level's
    /// probability with the same node-order `w · (½·erfc)` sum and clamp
    /// as [`trip_probability`](Self::trip_probability), and prepare the
    /// levels' binomials with one
    /// [`extend_batch`](PreparedBinomial::extend_batch). Requires
    /// `σ_eff > 0`.
    fn prepare_window(
        &self,
        mut levels: impl Iterator<Item = (f64, u32)>,
        window: &mut Vec<PreparedBinomial>,
    ) {
        let weights = JITTER_QUAD.weights();
        let mut lanes = [0.0f64; LAW_LEVELS * JITTER_QUAD_ORDER];
        let mut counts = [0u32; LAW_LEVELS];
        loop {
            let mut taken = 0;
            // Buffer slots first: a full buffer must stop the zip
            // before it pulls (and drops) the next level.
            for ((args, c), (level, count)) in lanes
                .chunks_exact_mut(JITTER_QUAD_ORDER)
                .zip(&mut counts)
                .zip(levels.by_ref())
            {
                *c = count;
                for (a, &d) in args.iter_mut().zip(&self.detectors) {
                    *a = self.trip.erfc_argument(d, level);
                }
                taken += 1;
            }
            let lanes = &mut lanes[..taken * JITTER_QUAD_ORDER];
            erfc_batch(lanes);
            PreparedBinomial::extend_batch(
                window,
                lanes
                    .chunks_exact(JITTER_QUAD_ORDER)
                    .zip(&counts)
                    .map(|(erfcs, &count)| {
                        let p = erfcs
                            .iter()
                            .zip(weights)
                            .map(|(&e, &w)| w * (0.5 * e))
                            .sum::<f64>()
                            .clamp(0.0, 1.0);
                        (u64::from(count), p)
                    }),
            );
            if taken < LAW_LEVELS {
                return;
            }
        }
    }
}

/// The iTDR instrument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Itdr {
    config: ItdrConfig,
}

impl Itdr {
    /// Create an instrument with the given configuration.
    pub fn new(config: ItdrConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ItdrConfig {
        &self.config
    }

    /// Acquire one ETS point: `repetitions` comparator trials on a forked
    /// front-end stream, reconstructed through the ROM table.
    ///
    /// This is the parallel kernel: it reads only the (frozen) context and
    /// derives every random stream from `(context seed, point index)`, so
    /// the result is a pure function of `(ctx, n)` — independent of which
    /// thread runs it or in what order.
    fn point_voltage(
        &self,
        ctx: &MeasurementContext,
        table: &ReconstructionTable,
        tel: Option<&AcqTelemetry>,
        n: usize,
    ) -> f64 {
        if let Some(tel) = tel {
            tel.points.inc();
            tel.trials.add(u64::from(self.config.repetitions));
        }
        let mut fe = ctx.frontend.fork_stream(mix_seed(ctx.seed, n as u64));
        let mut jitter = DivotRng::derive(ctx.seed, JITTER_DOMAIN ^ n as u64);
        let t_nominal = self.config.ets.time_of(n);
        let mut counter = TripCounter::new();
        for _ in 0..self.config.repetitions {
            fe.begin_trigger();
            let t = t_nominal + jitter.normal(0.0, ctx.jitter_rms);
            let backward = ctx.response.sample_at(t);
            let forward = ctx.forward.at(t);
            counter.record(fe.observe(backward, forward, t));
        }
        table.voltage(counter.count())
    }

    /// Acquire one ETS point analytically: one closed-form trip
    /// probability per distinct PDM reference level, one exact binomial
    /// draw per level, reconstructed through the same ROM table.
    ///
    /// This is the full *linear* sweep — every schedule level gets its
    /// saturation test (and, when non-saturated, its quadrature pass).
    /// The production path brackets instead ([`point_law`](Self::point_law));
    /// this one is retained as the oracle the bracketed path must match
    /// bitwise (exercised by `measure_many_full_sweep` in the
    /// equivalence tests).
    ///
    /// Per level, the trip probability of a single trigger is the
    /// comparator CDF averaged over the PLL's sampling-instant jitter
    /// (`schedule` and the quadrature rule are deterministic
    /// precomputations shared by all points); the count over the level's
    /// triggers is then exactly `Binomial(n_level, p_level)` because
    /// trials are independent once hysteresis is ruled out. Like
    /// [`point_voltage`](Self::point_voltage) this is a pure function of
    /// `(ctx, n)` — the binomial stream derives from
    /// `(ctx.seed, ANALYTIC_DOMAIN, n)` — so serial and parallel schedules
    /// stay bitwise identical.
    fn point_voltage_analytic(
        &self,
        ctx: &MeasurementContext,
        table: &ReconstructionTable,
        schedule: &[(f64, u32)],
        tel: Option<&AcqTelemetry>,
        n: usize,
    ) -> f64 {
        let mut rng = DivotRng::derive(ctx.seed, ANALYTIC_DOMAIN ^ n as u64);
        let nodes = PointNodes::new(ctx, self.config.ets.time_of(n));
        let mut counter = TripCounter::new();
        let mut saturated = 0u64;
        for &(level, count) in schedule {
            let p = if nodes.saturates_at_zero(level) {
                saturated += 1;
                0.0
            } else if nodes.saturates_at_one(level) {
                saturated += 1;
                1.0
            } else {
                nodes.trip_probability(level)
            };
            counter.record_many(rng.binomial(u64::from(count), p) as u32, count);
        }
        if let Some(tel) = tel {
            tel.analytic_points.inc();
            tel.analytic_levels.add(schedule.len() as u64);
            tel.analytic_saturated.add(saturated);
        }
        table.voltage(counter.count())
    }

    /// Compute one ETS point's [`PointLaw`] with *bracketed* saturation:
    /// instead of testing all levels, binary-search the ascending level
    /// order for the non-saturated window `[k1, k0)` and account the
    /// saturated tails through the plan's prefix sums.
    ///
    /// `(lo + offset) - level >= guard` (the `p = 1` predicate) is
    /// non-increasing in the level, so the `p = 1` levels are exactly a
    /// prefix of the ascending order; `level - (hi + offset) >= guard`
    /// (the `p = 0` predicate) is non-decreasing, so those levels are
    /// exactly a suffix. The two cannot overlap: a level in both would
    /// force `lo - hi >= 2·guard > 0`, impossible for a min/max pair.
    /// The predicates are the full sweep's own ([`PointNodes`]), so the
    /// window edges agree with it bitwise (debug-asserted below).
    ///
    /// The law depends only on the point's detector nodes and trip law
    /// (the frozen environment and the comparator draw) — not on any
    /// measurement seed — which is what makes it shareable across the
    /// measurements of one call.
    fn point_law(nodes: &PointNodes, plan: &AnalyticPlan) -> PointLaw {
        let len = plan.levels_asc.len();
        let (k1, k0) = if nodes.trip.sigma() > 0.0 {
            (
                plan.levels_asc
                    .partition_point(|&level| nodes.saturates_at_one(level)),
                plan.levels_asc
                    .partition_point(|&level| !nodes.saturates_at_zero(level)),
            )
        } else {
            (0, len)
        };
        debug_assert!(k1 <= k0, "saturated tails overlap: k1={k1} k0={k0}");
        #[cfg(debug_assertions)]
        for (i, &(level, _)) in plan.schedule.iter().enumerate() {
            let r = plan.rank[i] as usize;
            debug_assert_eq!(
                r < k1,
                nodes.saturates_at_one(level),
                "bracketed p=1 window edge disagrees with the full sweep at level {level}"
            );
            debug_assert_eq!(
                r >= k0,
                nodes.saturates_at_zero(level),
                "bracketed p=0 window edge disagrees with the full sweep at level {level}"
            );
        }
        let mut window = Vec::with_capacity(k0 - k1);
        let levels = plan
            .schedule
            .iter()
            .zip(&plan.rank)
            .filter(|&(_, &r)| (k1..k0).contains(&(r as usize)))
            .map(|(&level, _)| level);
        if nodes.trip.sigma() > 0.0 {
            nodes.prepare_window(levels, &mut window);
        } else {
            window.extend(levels.map(|(level, count)| {
                PreparedBinomial::new(u64::from(count), nodes.trip_probability(level))
            }));
        }
        PointLaw {
            sat_one: plan.prefix[k1],
            sat_zero: plan.prefix[len] - plan.prefix[k0],
            saturated: (k1 + (len - k0)) as u64,
            window,
        }
    }

    /// Draw one measurement's trip counts for a point from its
    /// precomputed law and reconstruct the voltage.
    ///
    /// Consumes the per-point binomial stream exactly as the full linear
    /// sweep does: saturated levels are draw-free (`binomial(n, 0)` and
    /// `binomial(n, 1)` consume no randomness), so bulk-recording the
    /// tails and walking only the window in schedule order leaves the
    /// stream — and therefore the result — bitwise identical.
    fn point_voltage_from_law(
        seed: u64,
        table: &ReconstructionTable,
        plan: &AnalyticPlan,
        law: &PointLaw,
        tel: Option<&AcqTelemetry>,
        n: usize,
    ) -> f64 {
        let mut rng = DivotRng::derive(seed, ANALYTIC_DOMAIN ^ n as u64);
        let mut counter = TripCounter::new();
        counter.record_many(law.sat_one, law.sat_one);
        counter.record_many(0, law.sat_zero);
        for binomial in &law.window {
            let count = binomial.trials() as u32;
            counter.record_many(rng.binomial_prepared(binomial) as u32, count);
        }
        if let Some(tel) = tel {
            tel.analytic_points.inc();
            tel.analytic_levels.add(plan.schedule.len() as u64);
            tel.analytic_saturated.add(law.saturated);
        }
        table.voltage(counter.count())
    }

    /// Run `count` consecutive measurements and return each reconstructed
    /// (and smoothed) IIP separately.
    ///
    /// Contexts are checked out sequentially — each measurement consumes
    /// `total_triggers()` probe triggers of bus time, so a time-varying
    /// environment is observed exactly as it would be serially — and the
    /// `count × points` acquisition kernels then fan out under `policy`.
    fn measure_many(
        &self,
        channel: &mut BusChannel,
        count: usize,
        policy: ExecPolicy,
    ) -> Vec<Waveform> {
        self.measure_many_impl(channel, count, policy, false)
    }

    /// Reference analytic path without bracketing or point-law sharing:
    /// the full linear sweep, one saturation test (and quadrature pass
    /// when non-saturated) per `(measurement, point, level)`. Retained
    /// as the oracle the bracketed production path must match bitwise;
    /// exercised by the equivalence tests and not otherwise part of the
    /// public API.
    #[doc(hidden)]
    pub fn measure_many_full_sweep(
        &self,
        channel: &mut BusChannel,
        count: usize,
        policy: ExecPolicy,
    ) -> Vec<Waveform> {
        self.measure_many_impl(channel, count, policy, true)
    }

    fn measure_many_impl(
        &self,
        channel: &mut BusChannel,
        count: usize,
        policy: ExecPolicy,
        full_sweep: bool,
    ) -> Vec<Waveform> {
        let _span = divot_telemetry::span!("itdr.measure");
        let tel = self.begin_measurements(channel.frontend_config(), count);
        let table = channel.reconstruction_table(self.config.repetitions);
        // The analytic plan (distinct-level schedule + jitter quadrature
        // rule) is a deterministic function of the configuration, computed
        // once and shared read-only by every point kernel. A hysteretic
        // comparator couples successive trials, so it silently falls back
        // to per-trial simulation (silent to the *result*; the fallback is
        // counted and logged so a mode mismatch is visible in telemetry).
        let wants_analytic = self.config.acq_mode == AcqMode::Analytic;
        let analytic_supported = channel.frontend_config().supports_analytic();
        if wants_analytic && !analytic_supported {
            divot_telemetry::add("itdr.analytic.fallbacks", count as u64);
            divot_telemetry::emit(
                "itdr.analytic_fallback",
                &[
                    (
                        "reason",
                        Value::from("comparator hysteresis couples trials"),
                    ),
                    ("measurements", Value::from(count)),
                ],
            );
        }
        let analytic_plan = (wants_analytic && analytic_supported)
            .then(|| AnalyticPlan::new(channel.level_schedule(self.config.repetitions)));
        let dwell = Seconds(self.config.total_triggers() as f64 * channel.trigger_period());
        let contexts: Vec<MeasurementContext> = (0..count)
            .map(|_| {
                let ctx = channel.measurement_context();
                channel.advance(dwell);
                ctx
            })
            .collect();
        if contexts.is_empty() {
            return Vec::new();
        }
        let ets = self.config.ets;
        let n_points = ets.points();
        let volts = match &analytic_plan {
            Some(plan) if full_sweep => policy.run_indexed(count * n_points, |idx| {
                let (ctx, n) = (&contexts[idx / n_points], idx % n_points);
                self.point_voltage_analytic(ctx, &table, plan.schedule.as_slice(), tel.as_ref(), n)
            }),
            Some(plan) => {
                // A point's law depends on the context's environment but
                // not its seed, so when every measurement of this call
                // observes the same frozen environment — the common case:
                // the cached response `Arc` is literally shared — compute
                // each law once and share it across all `count`
                // measurements instead of once per (measurement, point).
                let uniform = contexts.windows(2).all(|w| {
                    Arc::ptr_eq(&w[0].response, &w[1].response)
                        && w[0].forward == w[1].forward
                        && w[0].jitter_rms.to_bits() == w[1].jitter_rms.to_bits()
                        && w[0].frontend.comparator_offset().to_bits()
                            == w[1].frontend.comparator_offset().to_bits()
                });
                if uniform {
                    let seeds: Vec<u64> = contexts.iter().map(|ctx| ctx.seed).collect();
                    self.shared_law_sweep(
                        |n| PointNodes::new(&contexts[0], ets.time_of(n)),
                        &seeds,
                        &table,
                        plan,
                        tel.as_ref(),
                        policy,
                    )
                } else {
                    policy.run_indexed(count * n_points, |idx| {
                        let (ctx, n) = (&contexts[idx / n_points], idx % n_points);
                        let law = Self::point_law(&PointNodes::new(ctx, ets.time_of(n)), plan);
                        Self::point_voltage_from_law(ctx.seed, &table, plan, &law, tel.as_ref(), n)
                    })
                }
            }
            None => policy.run_indexed(count * n_points, |idx| {
                let (ctx, n) = (&contexts[idx / n_points], idx % n_points);
                self.point_voltage(ctx, &table, tel.as_ref(), n)
            }),
        };
        self.reconstruct(&volts)
    }

    /// The bookkeeping every measurement batch starts with: check the
    /// repetition budget against the front end's Vernier period, count
    /// the `count` measurements, and prefetch the hot-path counters.
    fn begin_measurements(&self, frontend: &FrontEndConfig, count: usize) -> Option<AcqTelemetry> {
        let period = frontend.vernier.period() as u32;
        assert!(
            self.config.repetitions > 0 && self.config.repetitions.is_multiple_of(period),
            "repetitions ({}) must be a positive multiple of the Vernier \
             period ({period})",
            self.config.repetitions
        );
        let tel = AcqTelemetry::prefetch();
        divot_telemetry::add("itdr.measurements", count as u64);
        tel
    }

    /// The analytic sweep of `seeds.len()` measurements that all observe
    /// one frozen environment: each point's law is computed once from
    /// `nodes(n)` and shared, then every `(measurement, point)` draws its
    /// counts from it on the measurement's seed. Returns the voltages
    /// measurement-major, as [`reconstruct`](Self::reconstruct) reads
    /// them.
    fn shared_law_sweep(
        &self,
        nodes: impl Fn(usize) -> PointNodes + Sync,
        seeds: &[u64],
        table: &ReconstructionTable,
        plan: &AnalyticPlan,
        tel: Option<&AcqTelemetry>,
        policy: ExecPolicy,
    ) -> Vec<f64> {
        let n_points = self.config.ets.points();
        divot_telemetry::add("itdr.analytic.shared_laws", n_points as u64);
        let laws = policy.run_indexed(n_points, |n| Self::point_law(&nodes(n), plan));
        policy.run_indexed(seeds.len() * n_points, |idx| {
            let (seed, n) = (seeds[idx / n_points], idx % n_points);
            Self::point_voltage_from_law(seed, table, plan, &laws[n], tel, n)
        })
    }

    /// Cut measurement-major point voltages into one IIP per measurement
    /// on the ETS grid, each through the smoothing FIR.
    fn reconstruct(&self, volts: &[f64]) -> Vec<Waveform> {
        let ets = self.config.ets;
        volts
            .chunks(ets.points())
            .map(|chunk| {
                let wf = Waveform::new(ets.window_start, ets.tau, chunk.to_vec());
                if self.config.smoothing_half_width > 0 {
                    moving_average(&wf, self.config.smoothing_half_width)
                } else {
                    wf
                }
            })
            .collect()
    }

    /// The mean of `count` (> 0) measurements.
    fn average(repeats: Vec<Waveform>) -> Waveform {
        let count = repeats.len();
        let mut repeats = repeats.into_iter();
        let mut acc = repeats.next().expect("count > 0");
        for next in repeats {
            acc.try_add(&next).expect("same ETS grid");
        }
        acc.scale(1.0 / count as f64);
        acc
    }

    /// Sample every ETS point's detector nodes from `ctx`: the same
    /// values the channel path's laws read, so a device on a static
    /// environment can keep these instead of its back-reflection.
    pub fn detector_nodes(&self, ctx: &MeasurementContext) -> DetectorNodes {
        let ets = self.config.ets;
        DetectorNodes {
            points: (0..ets.points())
                .map(|n| detector_nodes_at(ctx, ets.time_of(n)))
                .collect(),
        }
    }

    /// How many leading samples of a back-reflection on a grid of `tick`
    /// per sample (starting at 0) [`detector_nodes`](Self::detector_nodes)
    /// reads under RMS trigger jitter `jitter_rms`: `floor(x_max) + 2`,
    /// where `x_max` is the latest detector instant — the last ETS point
    /// plus the largest jitter abscissa — in samples.
    /// [`Waveform::sample_at`] interpolates between samples `floor(x)`
    /// and `floor(x) + 1`, and only a sample past `x` would turn an
    /// interpolation into a clamp to the last sample, so a response cut
    /// to this length yields bitwise the same nodes.
    pub fn detector_horizon(&self, jitter_rms: f64, tick: Seconds) -> usize {
        let ets = self.config.ets;
        let x_max = JITTER_QUAD
            .abscissas(ets.time_of(ets.points() - 1), jitter_rms)
            .fold(0.0, |x: f64, t| x.max(t / tick.0));
        x_max.floor() as usize + 2
    }

    /// Averaged analytic acquisition read straight off a device's
    /// [`DetectorNodes`], with no channel.
    ///
    /// The result is bitwise
    /// `measure_averaged_with(&mut channel, count, ExecPolicy::Serial)`
    /// on a fresh [`BusChannel`] built with `(frontend, seed)` onto the
    /// line whose *static* environment `nodes` were sampled under: the
    /// comparator offset is drawn from `seed` as `FrontEnd::new` draws
    /// it, the measurement seeds are derived as
    /// [`BusChannel::measurement_context`] derives them, and the laws,
    /// draws, reconstruction, smoothing and averaging are the
    /// channel path's own. `plan` and `table` must be built for this
    /// configuration's repetitions and `frontend`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`, if the front end does not support the
    /// analytic law (comparator hysteresis), if `nodes` were sampled on
    /// another ETS grid, or on an unbalanced repetition budget (see
    /// [`measure`](Self::measure)).
    pub fn measure_averaged_nodes(
        &self,
        nodes: &DetectorNodes,
        frontend: FrontEndConfig,
        seed: u64,
        plan: &AnalyticPlan,
        table: &ReconstructionTable,
        count: usize,
    ) -> Waveform {
        assert!(count > 0, "need at least one measurement");
        assert!(
            frontend.supports_analytic(),
            "detector nodes need the analytic law (no comparator hysteresis)"
        );
        assert_eq!(
            nodes.points(),
            self.config.ets.points(),
            "nodes from another ETS grid"
        );
        let _span = divot_telemetry::span!("itdr.measure");
        let tel = self.begin_measurements(&frontend, count);
        let trip = FrontEnd::new(frontend, seed).trip_model();
        let seeds: Vec<u64> = (0..count as u64)
            .map(|k| measurement_seed(seed, k))
            .collect();
        let volts = self.shared_law_sweep(
            |n| PointNodes::from_detectors(nodes.points[n], trip),
            &seeds,
            table,
            plan,
            tel.as_ref(),
            ExecPolicy::Serial,
        );
        Self::average(self.reconstruct(&volts))
    }

    /// Measure the channel's IIP waveform once.
    ///
    /// Consumes `total_triggers()` probe triggers of bus time (advancing
    /// the channel clock) and returns the reconstructed IIP on the ETS
    /// grid. ETS points are acquired under [`ExecPolicy::auto`]; the
    /// result is bitwise identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions` is not a positive multiple of the front
    /// end's Vernier period (unbalanced PDM level mixes would bias the
    /// reconstruction).
    pub fn measure(&self, channel: &mut BusChannel) -> Waveform {
        self.measure_with(channel, ExecPolicy::auto())
    }

    /// [`measure`](Self::measure) under an explicit execution policy.
    pub fn measure_with(&self, channel: &mut BusChannel, policy: ExecPolicy) -> Waveform {
        self.measure_many(channel, 1, policy)
            .pop()
            .expect("count == 1")
    }

    /// Average `count` consecutive measurements (lower-noise IIP estimate).
    ///
    /// All `count × points` acquisition kernels fan out together under
    /// [`ExecPolicy::auto`], so averaging parallelizes across repeats as
    /// well as ETS points.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn measure_averaged(&self, channel: &mut BusChannel, count: usize) -> Waveform {
        self.measure_averaged_with(channel, count, ExecPolicy::auto())
    }

    /// [`measure_averaged`](Self::measure_averaged) under an explicit
    /// execution policy.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn measure_averaged_with(
        &self,
        channel: &mut BusChannel,
        count: usize,
        policy: ExecPolicy,
    ) -> Waveform {
        assert!(count > 0, "need at least one measurement");
        Self::average(self.measure_many(channel, count, policy))
    }

    /// Calibration-time enrollment: average `count` measurements into a
    /// stored [`Fingerprint`] (what gets written to the EPROM, §III).
    ///
    /// ```
    /// use divot_core::itdr::{Itdr, ItdrConfig};
    /// use divot_core::channel::BusChannel;
    /// use divot_analog::frontend::FrontEndConfig;
    /// use divot_txline::board::{Board, BoardConfig};
    ///
    /// let board = Board::fabricate(&BoardConfig::small_test(), 7);
    /// let mut ch = BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 7);
    /// let itdr = Itdr::new(ItdrConfig::fast());
    /// let fp = itdr.enroll(&mut ch, 2);
    /// assert_eq!(fp.enrollment_count(), 2);
    /// assert_eq!(fp.iip().len(), ItdrConfig::fast().ets.points());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn enroll(&self, channel: &mut BusChannel, count: usize) -> Fingerprint {
        self.enroll_with(channel, count, ExecPolicy::auto())
    }

    /// [`enroll`](Self::enroll) under an explicit execution policy.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn enroll_with(
        &self,
        channel: &mut BusChannel,
        count: usize,
        policy: ExecPolicy,
    ) -> Fingerprint {
        Fingerprint::new(
            self.measure_averaged_with(channel, count, policy),
            count as u32,
        )
    }

    /// Batched averaged acquisition across a cohort of channels.
    ///
    /// Whole channels fan out under `policy` (each channel's own
    /// acquisition runs serially inside its work item, so the fan-outs
    /// never nest); entry `i` is bitwise identical to
    /// `measure_averaged_with(&mut channels[i], count, ExecPolicy::Serial)`
    /// run solo, because each channel's result is a pure function of the
    /// channel state alone.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn measure_batch(
        &self,
        channels: &mut [BusChannel],
        count: usize,
        policy: ExecPolicy,
    ) -> Vec<Waveform> {
        assert!(count > 0, "need at least one measurement");
        policy.run_mut(channels, |_, ch| {
            self.measure_averaged_with(ch, count, ExecPolicy::Serial)
        })
    }

    /// Batched enrollment across a cohort of channels: entry `i` is
    /// bitwise identical to `enroll_with(&mut channels[i], count,
    /// ExecPolicy::Serial)` run solo (see
    /// [`measure_batch`](Self::measure_batch) for why).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn enroll_batch(
        &self,
        channels: &mut [BusChannel],
        count: usize,
        policy: ExecPolicy,
    ) -> Vec<Fingerprint> {
        assert!(count > 0, "need at least one measurement");
        policy.run_mut(channels, |_, ch| {
            self.enroll_with(ch, count, ExecPolicy::Serial)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_analog::frontend::{FrontEnd, FrontEndConfig};
    use divot_dsp::similarity::similarity;
    use divot_txline::board::{Board, BoardConfig};

    fn channel_for_line(board: &Board, i: usize, seed: u64) -> BusChannel {
        BusChannel::new(board.line(i).clone(), FrontEndConfig::default(), seed)
    }

    #[test]
    fn batched_window_is_bitwise_the_scalar_laws() {
        // Nine detector nodes a few σ apart and levels from 12σ below the
        // lowest to 12σ above the highest, so the arguments cover every
        // erfc region; windows of every length around the batch size.
        let trip = FrontEnd::new(FrontEndConfig::default(), 9).trip_model();
        let sigma = trip.sigma();
        let detectors: [f64; JITTER_QUAD_ORDER] =
            std::array::from_fn(|j| 0.1 + 1.7 * sigma * (j as f64 - 4.0));
        let (lo, hi) = (detectors[0], detectors[JITTER_QUAD_ORDER - 1]);
        let nodes = PointNodes {
            detectors,
            lo,
            hi,
            trip,
        };
        let n = 3 * LAW_LEVELS + 1;
        let (first, last) = (
            lo + trip.offset() - 12.0 * sigma,
            hi + trip.offset() + 12.0 * sigma,
        );
        let levels: Vec<(f64, u32)> = (0..n)
            .map(|i| {
                let level = first + (last - first) * i as f64 / (n - 1) as f64;
                (level, 1 + (i as u32 * 7) % 60)
            })
            .collect();
        for len in [
            0,
            1,
            LAW_LEVELS - 1,
            LAW_LEVELS,
            LAW_LEVELS + 1,
            2 * LAW_LEVELS,
            n,
        ] {
            let mut window = Vec::new();
            nodes.prepare_window(levels[..len].iter().copied(), &mut window);
            assert_eq!(window.len(), len);
            for (law, &(level, count)) in window.iter().zip(&levels) {
                let want = PreparedBinomial::new(u64::from(count), nodes.trip_probability(level));
                assert_eq!(
                    format!("{law:?}"),
                    format!("{want:?}"),
                    "len={len} level={level}"
                );
            }
        }
    }

    #[test]
    fn measurement_has_ets_grid() {
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let mut ch = channel_for_line(&board, 0, 1);
        let itdr = Itdr::new(ItdrConfig::fast());
        let iip = itdr.measure(&mut ch);
        assert_eq!(iip.len(), ItdrConfig::fast().ets.points());
        assert!((iip.dt() - 8.0 * 11.16e-12).abs() < 1e-18);
    }

    #[test]
    fn measurement_advances_bus_time() {
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let mut ch = channel_for_line(&board, 0, 1);
        let itdr = Itdr::new(ItdrConfig::fast());
        let cfg = ItdrConfig::fast();
        itdr.measure(&mut ch);
        let expect = cfg.total_triggers() as f64 * ch.trigger_period();
        assert!((ch.now().0 - expect).abs() < 1e-12);
    }

    #[test]
    fn repeated_measurements_of_same_line_are_similar() {
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let mut ch = channel_for_line(&board, 0, 1);
        let itdr = Itdr::new(ItdrConfig::fast());
        let a = itdr.measure(&mut ch);
        let b = itdr.measure(&mut ch);
        let s = similarity(&a, &b);
        assert!(s > 0.6, "genuine similarity should be high: {s}");
    }

    #[test]
    fn different_lines_measure_differently() {
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let mut ch0 = channel_for_line(&board, 0, 1);
        let mut ch1 = channel_for_line(&board, 1, 2);
        let itdr = Itdr::new(ItdrConfig::fast());
        let a = itdr.measure(&mut ch0);
        let b = itdr.measure(&mut ch1);
        let genuine = similarity(&a, &itdr.measure(&mut ch0));
        let impostor = similarity(&a, &b);
        assert!(
            genuine > impostor + 0.05,
            "genuine {genuine} should exceed impostor {impostor}"
        );
    }

    #[test]
    fn reconstruction_tracks_the_true_response() {
        // The reconstructed IIP should correlate strongly with the true
        // (noise-free) detector-side waveform.
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let mut ch = channel_for_line(&board, 0, 1);
        let itdr = Itdr::new(ItdrConfig::fast());
        let iip = itdr.measure_averaged(&mut ch, 8);
        let gain = ch.frontend_config().coupler.backward_gain();
        let half = itdr.config().smoothing_half_width;
        let response = ch.response_now();
        let truth = Waveform::from_fn(iip.t0(), iip.dt(), iip.len(), |t| {
            gain * response.sample_at(t)
        });
        // Compare against the truth seen through the same smoothing FIR.
        let truth = divot_dsp::filter::moving_average(&truth, half);
        let s = similarity(&truth, &iip);
        assert!(s > 0.8, "reconstruction should track truth: {s}");
    }

    #[test]
    fn averaging_reduces_noise() {
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let mut ch = channel_for_line(&board, 0, 1);
        let itdr = Itdr::new(ItdrConfig::fast());
        // Noise estimate: energy of the difference of two measurements.
        let d1 = {
            let mut a = itdr.measure(&mut ch);
            let b = itdr.measure(&mut ch);
            a.try_sub(&b).unwrap();
            a.energy()
        };
        let d8 = {
            let mut a = itdr.measure_averaged(&mut ch, 8);
            let b = itdr.measure_averaged(&mut ch, 8);
            a.try_sub(&b).unwrap();
            a.energy()
        };
        assert!(
            d8 < d1 / 3.0,
            "8× averaging should cut noise energy ~8×: {d8} vs {d1}"
        );
    }

    #[test]
    fn enroll_produces_fingerprint() {
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let mut ch = channel_for_line(&board, 0, 1);
        let itdr = Itdr::new(ItdrConfig::fast());
        let fp = itdr.enroll(&mut ch, 4);
        assert_eq!(fp.enrollment_count(), 4);
        assert_eq!(fp.iip().len(), ItdrConfig::fast().ets.points());
    }

    #[test]
    fn serial_and_parallel_measurements_are_bitwise_identical() {
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let mut serial_ch = channel_for_line(&board, 0, 9);
        let mut parallel_ch = channel_for_line(&board, 0, 9);
        let itdr = Itdr::new(ItdrConfig::fast());
        let s = itdr.measure_averaged_with(&mut serial_ch, 3, ExecPolicy::Serial);
        let p = itdr.measure_averaged_with(&mut parallel_ch, 3, ExecPolicy::Parallel);
        assert_eq!(s.len(), p.len());
        for (a, b) in s.samples().iter().zip(p.samples()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn analytic_mode_tracks_trial_mode() {
        // Both modes estimate the same underlying detector waveform; with
        // averaging, the two estimates must agree far inside the
        // measurement's own noise floor.
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let mut trial_ch = channel_for_line(&board, 0, 5);
        let mut analytic_ch = channel_for_line(&board, 0, 5);
        let trial = Itdr::new(ItdrConfig::fast());
        let analytic = Itdr::new(ItdrConfig::fast().with_acq_mode(AcqMode::Analytic));
        let a = trial.measure_averaged(&mut trial_ch, 8);
        let b = analytic.measure_averaged(&mut analytic_ch, 8);
        let s = similarity(&a, &b);
        assert!(s > 0.9, "modes must agree on the waveform: {s}");
    }

    #[test]
    fn analytic_serial_parallel_bitwise_identical() {
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let mut serial_ch = channel_for_line(&board, 0, 9);
        let mut parallel_ch = channel_for_line(&board, 0, 9);
        let itdr = Itdr::new(ItdrConfig::fast().with_acq_mode(AcqMode::Analytic));
        let s = itdr.measure_averaged_with(&mut serial_ch, 3, ExecPolicy::Serial);
        let p = itdr.measure_averaged_with(&mut parallel_ch, 3, ExecPolicy::Parallel);
        for (a, b) in s.samples().iter().zip(p.samples()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn analytic_is_reproducible_and_differs_from_trial_draws() {
        // Same channel state twice: identical waveform. And the analytic
        // RNG domain is disjoint from the trial one, so the two modes give
        // different (but statistically equivalent) noise realizations.
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let mut a_ch = channel_for_line(&board, 0, 13);
        let mut b_ch = channel_for_line(&board, 0, 13);
        let analytic = Itdr::new(ItdrConfig::fast().with_acq_mode(AcqMode::Analytic));
        assert_eq!(analytic.measure(&mut a_ch), analytic.measure(&mut b_ch));
        let mut t_ch = channel_for_line(&board, 0, 13);
        let trial = Itdr::new(ItdrConfig::fast());
        let mut fresh = channel_for_line(&board, 0, 13);
        assert_ne!(trial.measure(&mut t_ch), analytic.measure(&mut fresh));
    }

    #[test]
    fn hysteresis_falls_back_to_trial_bitwise() {
        use divot_analog::comparator::ComparatorConfig;
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let fe = FrontEndConfig {
            comparator: ComparatorConfig {
                hysteresis: 5e-4,
                ..ComparatorConfig::default()
            },
            ..FrontEndConfig::default()
        };
        assert!(!fe.supports_analytic());
        let mut trial_ch = BusChannel::new(board.line(0).clone(), fe, 7);
        let mut analytic_ch = BusChannel::new(board.line(0).clone(), fe, 7);
        let trial = Itdr::new(ItdrConfig::fast());
        let analytic = Itdr::new(ItdrConfig::fast().with_acq_mode(AcqMode::Analytic));
        let a = trial.measure(&mut trial_ch);
        let b = analytic.measure(&mut analytic_ch);
        for (x, y) in a.samples().iter().zip(b.samples()) {
            assert_eq!(x.to_bits(), y.to_bits(), "fallback must be the trial path");
        }
    }

    #[test]
    fn bracketed_sweep_matches_full_sweep_bitwise() {
        // The production analytic path (bracketed saturation + shared
        // per-point laws) must reproduce the linear reference sweep
        // bit for bit, under both execution policies.
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let itdr = Itdr::new(ItdrConfig::fast().with_acq_mode(AcqMode::Analytic));
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
            let mut bracketed_ch = channel_for_line(&board, 0, 17);
            let mut full_ch = channel_for_line(&board, 0, 17);
            let bracketed = itdr.measure_many(&mut bracketed_ch, 3, policy);
            let full = itdr.measure_many_full_sweep(&mut full_ch, 3, policy);
            assert_eq!(bracketed.len(), full.len());
            for (b, f) in bracketed.iter().zip(&full) {
                for (x, y) in b.samples().iter().zip(f.samples()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn batch_acquisition_matches_solo() {
        // enroll_batch / measure_batch entry i must be bitwise identical
        // to the solo call on the same channel state.
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let itdr = Itdr::new(ItdrConfig::fast().with_acq_mode(AcqMode::Analytic));
        let mut batch: Vec<BusChannel> = (0..2)
            .map(|i| channel_for_line(&board, i, 40 + i as u64))
            .collect();
        let fps = itdr.enroll_batch(&mut batch, 2, ExecPolicy::Parallel);
        for (i, batched) in fps.iter().enumerate() {
            let mut solo = channel_for_line(&board, i, 40 + i as u64);
            let fp = itdr.enroll_with(&mut solo, 2, ExecPolicy::Serial);
            assert_eq!(*batched, fp, "batch entry {i} must match solo enrollment");
        }
        let mut batch: Vec<BusChannel> = (0..2)
            .map(|i| channel_for_line(&board, i, 50 + i as u64))
            .collect();
        let wfs = itdr.measure_batch(&mut batch, 2, ExecPolicy::Serial);
        for (i, batched) in wfs.iter().enumerate() {
            let mut solo = channel_for_line(&board, i, 50 + i as u64);
            let wf = itdr.measure_averaged_with(&mut solo, 2, ExecPolicy::Serial);
            assert_eq!(*batched, wf, "batch entry {i} must match solo measurement");
        }
    }

    #[test]
    fn acq_mode_labels_and_parsing() {
        assert_eq!(AcqMode::Trial.label(), "trial");
        assert_eq!(AcqMode::Analytic.label(), "analytic");
        assert_eq!("trial".parse::<AcqMode>().unwrap(), AcqMode::Trial);
        assert_eq!("analytic".parse::<AcqMode>().unwrap(), AcqMode::Analytic);
        assert!("btpe".parse::<AcqMode>().is_err());
        assert_eq!(AcqMode::default(), AcqMode::Trial);
        let cfg = ItdrConfig::fast().with_acq_mode(AcqMode::Analytic);
        assert_eq!(cfg.acq_mode, AcqMode::Analytic);
        assert_eq!(cfg.ets, ItdrConfig::fast().ets);
    }

    #[test]
    fn paper_full_config_is_341_by_420() {
        let cfg = ItdrConfig::paper_full();
        assert_eq!(cfg.ets.points(), 341);
        assert_eq!(cfg.repetitions, 420);
        assert_eq!(cfg.total_triggers(), 341 * 420);
    }

    #[test]
    fn paper_config_trigger_budget() {
        let cfg = ItdrConfig::paper();
        assert_eq!(cfg.ets.points(), 171);
        assert_eq!(cfg.total_triggers(), 171 * 42);
        // 7182 triggers at 156.25 MHz ≈ 46 µs < 50 µs (paper claim).
        let t = cfg.total_triggers() as f64 / 156.25e6;
        assert!(t < 50e-6, "t={t}");
    }

    #[test]
    #[should_panic(expected = "must be a positive multiple of the Vernier")]
    fn rejects_unbalanced_repetitions() {
        let board = Board::fabricate(&BoardConfig::small_test(), 31);
        let mut ch = channel_for_line(&board, 0, 1);
        let cfg = ItdrConfig {
            repetitions: 20,
            ..ItdrConfig::fast()
        };
        let _ = Itdr::new(cfg).measure(&mut ch);
    }
}
