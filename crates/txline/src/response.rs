//! Batched edge-response acquisition with an explicit environment-keyed
//! cache.
//!
//! The Tx-line network is LTI for the duration of one launched edge, so the
//! back-reflection waveform is fully determined by (network, environmental
//! state, drive). Equivalent-time sampling exploits exactly this: every
//! repeated trigger reproduces the identical reflection, and the iTDR walks
//! its sample instant across repetitions. The simulation mirrors that
//! structure — the scattering engine runs **once** per distinct physical
//! state, and the thousands of per-trigger comparator trials read the
//! cached waveform.
//!
//! Two pieces live here:
//!
//! * [`Network::edge_response_batch`] — one engine run serving an arbitrary
//!   batch of sample times (the whole ETS schedule in one call).
//! * [`ResponseCache`] — an explicit, bounded, instrumented **two-tier**
//!   cache keyed on [`EnvState`]. The expensive tier holds one
//!   [`ImpulseResponse`] per environmental
//!   state — the only thing that costs a scattering-engine run. The cheap
//!   tier holds the waveform for the *current* drive, synthesized from the
//!   impulse response by FFT convolution. Changing the drive with
//!   [`ResponseCache::set_sim_config`] therefore drops only the derived
//!   waveforms; the impulse responses survive and every state re-renders
//!   without touching the engine. A static environment maps every instant
//!   to the same key, so the engine runs once per enrollment; a swinging
//!   oven or vibration chirp quantizes into a bounded key set and the cache
//!   absorbs the revisits. Mutating the network (an
//!   [`Attack`](crate::attack::Attack), a load swap) must be followed by
//!   [`ResponseCache::invalidate`] — the cache cannot observe the mutation
//!   itself.
//!
//! Waveforms are handed out as `Arc<Waveform>` so concurrent acquisition
//! lanes can sample one simulation result without cloning megabytes of
//! samples.

use crate::env::{EnvState, Environment};
use crate::impulse::ImpulseResponse;
use crate::scatter::{Network, SimConfig};
use crate::units::Seconds;
use divot_dsp::waveform::Waveform;
use divot_telemetry::{Counter, Registry, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Default bound on distinct cached environmental states (keeps memory
/// finite under time-varying environments; ~bounded by the [`EnvState`]
/// quantization anyway).
pub const DEFAULT_RESPONSE_CACHE_CAP: usize = 512;

impl Network {
    /// Simulate the back-reflection **once** and sample it at every time in
    /// `times` (seconds after edge launch).
    ///
    /// This is the batch form of [`Network::edge_response`]: one scattering
    /// run amortized over an entire ETS schedule, instead of one run per
    /// sample point. Times outside the simulated span clamp to the edge
    /// samples (matching [`Waveform::sample_at`]).
    pub fn edge_response_batch(&self, cfg: &SimConfig, times: &[f64]) -> Vec<f64> {
        let wf = self.edge_response(cfg);
        times.iter().map(|&t| wf.sample_at(t)).collect()
    }
}

/// The cache's six effectiveness counters, as prefetched
/// [`divot_telemetry::Counter`] handles inside one registry: the cache
/// increments lock-free on its hot path, and the same numbers are
/// readable both per instance (via [`ResponseCache::stats`] /
/// [`ResponseCache::registry`]) and — when a process-wide default is
/// installed via [`divot_telemetry::install`] — aggregated across every
/// cache under the `txline.cache.*` names.
#[derive(Debug, Clone)]
struct CacheCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    engine_runs: Arc<Counter>,
    renders: Arc<Counter>,
    invalidations: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl CacheCounters {
    fn in_registry(registry: &Registry) -> Self {
        Self {
            hits: registry.counter("txline.cache.hits"),
            misses: registry.counter("txline.cache.misses"),
            engine_runs: registry.counter("txline.cache.engine_runs"),
            renders: registry.counter("txline.cache.renders"),
            invalidations: registry.counter("txline.cache.invalidations"),
            evictions: registry.counter("txline.cache.evictions"),
        }
    }

    fn global_mirror() -> Option<Self> {
        divot_telemetry::global().map(|t| Self::in_registry(t.registry()))
    }
}

/// A point-in-time reading of a cache's lifetime counters, for tests and
/// bench reports. Snapshotted from the cache's registry by
/// [`ResponseCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStatsView {
    /// Lookups served from a cached waveform.
    pub hits: u64,
    /// Lookups that could not be served from the derived-waveform tier.
    ///
    /// A miss costs either a full engine run (`engine_runs`) or — when the
    /// state's impulse response is still cached after a drive change — just
    /// an FFT render (`renders`).
    pub misses: u64,
    /// Scattering-engine runs (the expensive part: one unit-impulse
    /// simulation per distinct environmental state).
    pub engine_runs: u64,
    /// Waveforms synthesized from a cached impulse response by FFT
    /// convolution (cheap; no engine run).
    pub renders: u64,
    /// Explicit invalidations (attack / network / drive changes).
    pub invalidations: u64,
    /// Evictions forced by the capacity bound.
    pub evictions: u64,
}

impl fmt::Display for CacheStatsView {
    /// The machine-grepable stats line printed by the benches and quoted in
    /// `EXPERIMENTS.md`:
    /// `hits=… misses=… engine_runs=… renders=… invalidations=… evictions=…`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hits={} misses={} engine_runs={} renders={} invalidations={} evictions={}",
            self.hits,
            self.misses,
            self.engine_runs,
            self.renders,
            self.invalidations,
            self.evictions
        )
    }
}

/// An explicit, bounded, two-tier cache of edge-response waveforms keyed on
/// the quantized environmental state.
///
/// The cache owns the drive configuration: a given `ResponseCache` answers
/// for exactly one (drive, network-identity) pair at a time, and the
/// *caller* is responsible for calling [`invalidate`](Self::invalidate)
/// whenever the network it passes in changes identity (an attack, a module
/// swap). The environment, by contrast, is handled automatically — each
/// lookup quantizes the instant into an [`EnvState`] key. Drive changes via
/// [`set_sim_config`](Self::set_sim_config) are *cheap*: the engine-priced
/// impulse-response tier is keyed on [`EnvState`] only, so a new amplitude /
/// rise time / edge shape re-renders each state by convolution instead of
/// re-simulating it.
///
/// ```
/// use divot_txline::env::Environment;
/// use divot_txline::iip::IipProfile;
/// use divot_txline::response::ResponseCache;
/// use divot_txline::scatter::{SimConfig, TxLine};
/// use divot_txline::termination::Termination;
/// use divot_txline::units::{Meters, Ohms, Seconds, Volts};
///
/// let line = TxLine::new(
///     IipProfile::uniform(Ohms(50.0), Meters(0.25), 64),
///     Termination::Open,
/// );
/// let net = line.network();
/// let env = Environment::room(); // static: one EnvState forever
/// let mut cache = ResponseCache::new(SimConfig::default());
///
/// let a = cache.response_at(&net, &env, Seconds(0.0));
/// let b = cache.response_at(&net, &env, Seconds(60.0)); // one minute later
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // same simulation, zero rework
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 1);
///
/// // A drive change re-renders from the cached impulse response — the
/// // engine does not run again.
/// cache.set_sim_config(SimConfig { amplitude: Volts(1.8), ..SimConfig::default() });
/// let _ = cache.response_at(&net, &env, Seconds(120.0));
/// assert_eq!(cache.stats().engine_runs, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ResponseCache {
    sim: SimConfig,
    /// Expensive tier: one engine run per entry, reusable across drives.
    impulses: HashMap<EnvState, Arc<ImpulseResponse>>,
    /// Cheap tier: the waveform for the *current* `sim`, rendered from
    /// `impulses`.
    derived: HashMap<EnvState, Arc<Waveform>>,
    capacity: usize,
    /// Per-instance metric registry (`txline.cache.*` counters). Clones
    /// share it: a cloned cache keeps reporting into the same counters.
    registry: Arc<Registry>,
    counters: CacheCounters,
    /// Prefetched process-wide `txline.cache.*` counters, present when a
    /// global telemetry default was installed before this cache was built.
    mirror: Option<CacheCounters>,
}

impl ResponseCache {
    /// An empty cache for the given drive configuration, with the default
    /// capacity bound.
    pub fn new(sim: SimConfig) -> Self {
        Self::with_capacity(sim, DEFAULT_RESPONSE_CACHE_CAP)
    }

    /// An empty cache with an explicit capacity bound (≥ 1) applied to each
    /// tier independently.
    pub fn with_capacity(sim: SimConfig, capacity: usize) -> Self {
        let registry = Arc::new(Registry::new());
        let counters = CacheCounters::in_registry(&registry);
        Self {
            sim,
            impulses: HashMap::new(),
            derived: HashMap::new(),
            capacity: capacity.max(1),
            registry,
            counters,
            mirror: CacheCounters::global_mirror(),
        }
    }

    /// Bump one counter locally and in the process-wide mirror (if any).
    fn tick(&self, pick: impl Fn(&CacheCounters) -> &Arc<Counter>) {
        pick(&self.counters).inc();
        if let Some(mirror) = &self.mirror {
            pick(mirror).inc();
        }
    }

    /// The drive configuration this cache simulates under.
    pub fn sim_config(&self) -> &SimConfig {
        &self.sim
    }

    /// Replace the drive configuration.
    ///
    /// Derived waveforms for the old drive are dropped, but the cached
    /// impulse responses are **kept**: the next lookup per state re-renders
    /// by convolution (`renders` ticks up) instead of re-running the engine
    /// (`engine_runs` does not). An impulse response only becomes unusable
    /// when the new drive changes the *system* (source impedance) or needs
    /// a longer simulated span — `response_for_state` detects that per
    /// entry and falls back to a fresh engine run for just those states.
    pub fn set_sim_config(&mut self, sim: SimConfig) {
        if sim != self.sim {
            self.sim = sim;
            self.derived.clear();
            self.tick(|c| &c.invalidations);
        }
    }

    /// The response waveform for `base` under `env` at experiment time `t`,
    /// simulating only if this instant's quantized state is not yet cached.
    pub fn response_at(&mut self, base: &Network, env: &Environment, t: Seconds) -> Arc<Waveform> {
        let state = env.state_at(t);
        self.response_for_state(base, env, state)
    }

    /// The response waveform for an explicit pre-quantized state (callers
    /// that already hold the [`EnvState`] avoid re-quantizing).
    ///
    /// Cost ladder, cheapest first: derived-tier hit (pointer clone) →
    /// impulse-tier hit (one FFT render) → full scattering-engine run.
    pub fn response_for_state(
        &mut self,
        base: &Network,
        env: &Environment,
        state: EnvState,
    ) -> Arc<Waveform> {
        if let Some(wf) = self.derived.get(&state) {
            self.tick(|c| &c.hits);
            return Arc::clone(wf);
        }
        self.tick(|c| &c.misses);
        let ir = match self.impulses.get(&state) {
            Some(ir) if ir.supports(&self.sim) => Arc::clone(ir),
            _ => {
                if self.impulses.len() >= self.capacity {
                    // Whole-tier eviction: under a time-varying environment
                    // the key set is bounded by quantization, so hitting the
                    // cap at all means the working set rotated; dropping
                    // everything is simpler than LRU bookkeeping and costs
                    // one re-simulation per live key.
                    divot_telemetry::emit(
                        "cache.evict",
                        &[
                            ("tier", Value::from("impulse")),
                            ("entries", Value::from(self.impulses.len())),
                        ],
                    );
                    self.impulses.clear();
                    self.tick(|c| &c.evictions);
                }
                let net = env.apply(base, &state);
                self.tick(|c| &c.engine_runs);
                let ir = Arc::new(net.impulse_response(&self.sim));
                self.impulses.insert(state, Arc::clone(&ir));
                divot_telemetry::emit(
                    "cache.insert",
                    &[
                        ("tier", Value::from("impulse")),
                        ("entries", Value::from(self.impulses.len())),
                    ],
                );
                ir
            }
        };
        if self.derived.len() >= self.capacity {
            divot_telemetry::emit(
                "cache.evict",
                &[
                    ("tier", Value::from("derived")),
                    ("entries", Value::from(self.derived.len())),
                ],
            );
            self.derived.clear();
            self.tick(|c| &c.evictions);
        }
        self.tick(|c| &c.renders);
        let wf = Arc::new(
            ir.render(&self.sim)
                .expect("impulse response was built (or vetted) for this sim config"),
        );
        self.derived.insert(state, Arc::clone(&wf));
        wf
    }

    /// Pre-seed the derived-waveform tier with an already-computed
    /// response for `state`.
    ///
    /// This is the warm-start path for callers that hold a population of
    /// identical channels (the fleet service memoizes one engine run per
    /// device and seeds every per-request cache from it): the seeded
    /// `Arc` is exactly what [`response_for_state`](Self::response_for_state)
    /// would have computed, so lookups are bitwise-indistinguishable from
    /// a cold cache — they just skip the engine. Seeding ticks neither
    /// `hits` nor `misses`; the first lookup of the seeded state counts
    /// as an ordinary hit.
    pub fn seed_waveform(&mut self, state: EnvState, wf: Arc<Waveform>) {
        if self.derived.len() >= self.capacity && !self.derived.contains_key(&state) {
            self.derived.clear();
            self.tick(|c| &c.evictions);
        }
        self.derived.insert(state, wf);
    }

    /// Drop every cached waveform **and** impulse response. Must be called
    /// when the network the cache is being queried with changes identity —
    /// after an [`Attack`](crate::attack::Attack) mutates it, after a
    /// module swap — since the cache keys only on environmental state.
    pub fn invalidate(&mut self) {
        self.impulses.clear();
        self.derived.clear();
        self.tick(|c| &c.invalidations);
    }

    /// Number of distinct environmental states with a waveform cached for
    /// the current drive.
    pub fn len(&self) -> usize {
        self.derived.len()
    }

    /// Whether the cache holds no waveforms for the current drive (cached
    /// impulse responses may still exist; see
    /// [`cached_impulses`](Self::cached_impulses)).
    pub fn is_empty(&self) -> bool {
        self.derived.is_empty()
    }

    /// Number of distinct environmental states with a cached impulse
    /// response (the engine-priced tier, which survives drive changes).
    pub fn cached_impulses(&self) -> usize {
        self.impulses.len()
    }

    /// The per-tier capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A point-in-time reading of the lifetime
    /// hit/miss/engine-run/render/invalidation/eviction counters,
    /// snapshotted from this cache's registry.
    pub fn stats(&self) -> CacheStatsView {
        CacheStatsView {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            engine_runs: self.counters.engine_runs.get(),
            renders: self.counters.renders.get(),
            invalidations: self.counters.invalidations.get(),
            evictions: self.counters.evictions.get(),
        }
    }

    /// This cache's own metric registry (the `txline.cache.*` counters
    /// behind [`ResponseCache::stats`]), renderable via
    /// [`Registry::render_text`]. Clones of the cache share it.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::Attack;
    use crate::iip::IipProfile;
    use crate::scatter::TxLine;
    use crate::termination::Termination;
    use crate::units::{Meters, Ohms, Volts};

    fn net() -> Network {
        TxLine::new(
            IipProfile::uniform(Ohms(50.0), Meters(0.25), 64),
            Termination::Open,
        )
        .network()
    }

    #[test]
    fn batch_matches_pointwise_sampling() {
        let net = net();
        let cfg = SimConfig::default();
        let wf = net.edge_response(&cfg);
        let times: Vec<f64> = (0..100).map(|i| i as f64 * 20e-12).collect();
        let batch = net.edge_response_batch(&cfg, &times);
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(batch[i], wf.sample_at(t));
        }
    }

    #[test]
    fn static_env_simulates_once() {
        let mut cache = ResponseCache::new(SimConfig::default());
        let env = Environment::room();
        let n = net();
        for i in 0..10 {
            let _ = cache.response_at(&n, &env, Seconds(i as f64));
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 9);
        assert_eq!(cache.stats().engine_runs, 1);
    }

    #[test]
    fn dynamic_env_caches_per_state() {
        let mut cache = ResponseCache::new(SimConfig::default());
        let env = Environment::vibrating();
        let n = net();
        for i in 0..50 {
            let _ = cache.response_at(&n, &env, Seconds(i as f64 * 3e-3));
        }
        assert!(cache.len() > 5, "distinct states: {}", cache.len());
        assert!(cache.len() <= cache.capacity());
        // Quantization means revisited states hit.
        assert_eq!(cache.stats().hits + cache.stats().misses, 50);
    }

    #[test]
    fn invalidate_forces_resimulation() {
        let mut cache = ResponseCache::new(SimConfig::default());
        let env = Environment::room();
        let n = net();
        let before = cache.response_at(&n, &env, Seconds(0.0));
        let attacked = Attack::paper_wiretap().apply(&n);
        cache.invalidate();
        assert!(cache.is_empty());
        assert_eq!(cache.cached_impulses(), 0);
        let after = cache.response_at(&attacked, &env, Seconds(0.0));
        assert_ne!(*before, *after);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().engine_runs, 2);
    }

    #[test]
    fn capacity_bound_evicts_wholesale() {
        let mut cache = ResponseCache::with_capacity(SimConfig::default(), 4);
        let env = Environment::vibrating();
        let n = net();
        for i in 0..200 {
            let _ = cache.response_at(&n, &env, Seconds(i as f64 * 7e-3));
        }
        assert!(cache.len() <= 4);
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn static_env_workload_never_evicts_itself() {
        // Regression: a single-state working set must be immune to the
        // capacity bound, even at the minimum capacity of 1 — eviction is
        // checked before inserting a *new* entry, never on a hit.
        let mut cache = ResponseCache::with_capacity(SimConfig::default(), 1);
        let env = Environment::room();
        let n = net();
        for i in 0..100 {
            let _ = cache.response_at(&n, &env, Seconds(i as f64));
        }
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().engine_runs, 1);
        assert_eq!(cache.stats().hits, 99);
    }

    #[test]
    fn changing_drive_invalidates_derived_tier() {
        let mut cache = ResponseCache::new(SimConfig::default());
        let env = Environment::room();
        let n = net();
        let _ = cache.response_at(&n, &env, Seconds(0.0));
        let sim2 = SimConfig {
            amplitude: Volts(1.8),
            ..SimConfig::default()
        };
        cache.set_sim_config(sim2);
        assert!(cache.is_empty());
        assert_eq!(cache.cached_impulses(), 1); // expensive tier survives
                                                // Same config again is a no-op (no spurious invalidation).
        let inv = cache.stats().invalidations;
        cache.set_sim_config(sim2);
        assert_eq!(cache.stats().invalidations, inv);
    }

    #[test]
    fn drive_change_reuses_cached_impulse_responses() {
        // The acceptance criterion: after a drive change, serving the same
        // environmental state costs zero extra engine runs — only a render.
        let mut cache = ResponseCache::new(SimConfig::default());
        let env = Environment::room();
        let n = net();
        let _ = cache.response_at(&n, &env, Seconds(0.0));
        assert_eq!(cache.stats().engine_runs, 1);
        for amp in [1.23, 1.8, 0.3] {
            cache.set_sim_config(SimConfig {
                amplitude: Volts(amp),
                ..SimConfig::default()
            });
            let _ = cache.response_at(&n, &env, Seconds(0.0));
        }
        assert_eq!(
            cache.stats().engine_runs,
            1,
            "drive changes must not re-simulate"
        );
        assert_eq!(cache.stats().renders, 4);
    }

    #[test]
    fn drive_change_that_alters_the_system_falls_back_to_engine() {
        // Source impedance is part of the system (ρ_source), not the
        // stimulus: the cached impulse response cannot serve it.
        let mut cache = ResponseCache::new(SimConfig::default());
        let env = Environment::room();
        let n = net();
        let _ = cache.response_at(&n, &env, Seconds(0.0));
        cache.set_sim_config(SimConfig {
            source_impedance: Ohms(40.0),
            ..SimConfig::default()
        });
        let _ = cache.response_at(&n, &env, Seconds(0.0));
        assert_eq!(cache.stats().engine_runs, 2);
    }

    #[test]
    fn cached_waveform_matches_direct_simulation() {
        let mut cache = ResponseCache::new(SimConfig::default());
        let env = Environment::room();
        let n = net();
        let cached = cache.response_at(&n, &env, Seconds(0.0));
        let direct = env
            .apply(&n, &env.state_at(Seconds(0.0)))
            .edge_response(&SimConfig::default());
        assert_eq!(cached.len(), direct.len());
        let max_diff = cached
            .samples()
            .iter()
            .zip(direct.samples())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_diff < 1e-11, "render vs direct: {max_diff}");
    }

    #[test]
    fn seeded_waveform_serves_lookups_without_engine_runs() {
        let env = Environment::room();
        let n = net();
        let state = env.state_at(Seconds(0.0));
        // Compute once in a donor cache...
        let mut donor = ResponseCache::new(SimConfig::default());
        let wf = donor.response_for_state(&n, &env, state);
        // ...seed a fresh cache and look the state up: pointer-equal
        // result, zero engine runs, and the lookup counts as a hit.
        let mut cache = ResponseCache::new(SimConfig::default());
        cache.seed_waveform(state, Arc::clone(&wf));
        let got = cache.response_at(&n, &env, Seconds(0.0));
        assert!(Arc::ptr_eq(&wf, &got));
        assert_eq!(cache.stats().engine_runs, 0);
        assert_eq!(cache.stats().misses, 0);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn shared_arcs_not_cloned_waveforms() {
        let mut cache = ResponseCache::new(SimConfig::default());
        let env = Environment::room();
        let n = net();
        let a = cache.response_at(&n, &env, Seconds(0.0));
        let b = cache.response_at(&n, &env, Seconds(1.0));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn per_cache_registry_renders_the_counters() {
        let mut cache = ResponseCache::new(SimConfig::default());
        let env = Environment::room();
        let n = net();
        let _ = cache.response_at(&n, &env, Seconds(0.0));
        let _ = cache.response_at(&n, &env, Seconds(1.0));
        let text = cache.registry().render_text();
        assert!(text.contains("txline.cache.hits 1"), "{text}");
        assert!(text.contains("txline.cache.misses 1"), "{text}");
        assert!(text.contains("txline.cache.engine_runs 1"), "{text}");
        // A clone shares the same instruments.
        let clone = cache.clone();
        let _ = cache.response_at(&n, &env, Seconds(2.0));
        assert_eq!(clone.stats().hits, 2);
    }

    #[test]
    fn stats_line_reports_every_counter() {
        let stats = CacheStatsView {
            hits: 7,
            misses: 2,
            engine_runs: 1,
            renders: 2,
            invalidations: 3,
            evictions: 4,
        };
        assert_eq!(
            stats.to_string(),
            "hits=7 misses=2 engine_runs=1 renders=2 invalidations=3 evictions=4"
        );
    }
}
