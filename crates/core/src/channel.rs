//! The simulated bus channel an iTDR is attached to.
//!
//! A [`BusChannel`] binds together everything physical about one protected
//! lane: the Tx-line network (with any attacks applied), the ambient
//! environment, the drive-edge configuration, and the analog front end.
//! Because the line is LTI (the property ETS relies on), the back-
//! reflection response for a given physical state is computed once by the
//! scattering engine and served from the channel's
//! [`ResponseCache`]; the iTDR's
//! thousands of comparator trials then sample the cached response —
//! mirroring the physics, where every repeated edge produces the identical
//! reflection.
//!
//! A measurement borrows nothing from the channel: it checks out an owned
//! [`MeasurementContext`] (shared response waveform, front-end template,
//! forward wave, seed) which is `Send + Sync`, so the acquisition engine
//! can fan comparator trials across threads without touching the channel.

use crate::apc::ReconstructionTable;
use crate::pdm::effective_cdf;
use divot_analog::frontend::{FrontEnd, FrontEndConfig};
use divot_dsp::rng::mix_seed;
use divot_dsp::waveform::Waveform;
use divot_txline::attack::Attack;
use divot_txline::env::{EnvState, Environment};
use divot_txline::response::{CacheStatsView, ResponseCache};
use divot_txline::scatter::{EdgeShape, Network, SimConfig, TxLine};
use divot_txline::units::Seconds;
use std::collections::HashMap;
use std::sync::Arc;

/// Domain tag mixed into the channel seed to derive per-measurement seeds.
const MEASUREMENT_DOMAIN: u64 = 0x4D45;

/// The seed of measurement `index` on a channel seeded `channel_seed`:
/// the one derivation behind [`BusChannel::measurement_context`] and
/// [`Itdr::measure_averaged_nodes`](crate::itdr::Itdr::measure_averaged_nodes),
/// so a channel-free acquisition draws exactly the channel's streams.
pub(crate) fn measurement_seed(channel_seed: u64, index: u64) -> u64 {
    mix_seed(mix_seed(channel_seed, MEASUREMENT_DOMAIN), index)
}

/// The analytic forward (incident) wave as seen at the coupler — used for
/// the coupler's finite-directivity leakage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForwardWave {
    amplitude: f64,
    rise_time: f64,
    shape: EdgeShape,
}

impl ForwardWave {
    /// Incident-wave voltage at time `t` after edge launch.
    pub fn at(&self, t: f64) -> f64 {
        self.amplitude * self.shape.at(t / self.rise_time)
    }
}

/// An owned, thread-shareable snapshot of everything one measurement
/// needs.
///
/// Checking out a context freezes the channel's physical state at the
/// current instant (response waveform, environment-adjusted network) and
/// assigns the measurement a fresh seed; the acquisition engine then
/// derives one independent RNG stream per ETS point from that seed, which
/// is what makes concurrent and serial acquisition bitwise identical.
#[derive(Debug, Clone)]
pub struct MeasurementContext {
    /// The back-reflection response for the physical state being measured
    /// (shared with the channel's cache — not cloned).
    pub response: Arc<Waveform>,
    /// Template of the channel's front end; per-point acquisition streams
    /// are forked from it via
    /// [`FrontEnd::fork_stream`](divot_analog::frontend::FrontEnd::fork_stream).
    pub frontend: FrontEnd,
    /// The analytic forward wave for the coupler's leakage term.
    pub forward: ForwardWave,
    /// RMS sampling jitter (from the PLL config).
    pub jitter_rms: f64,
    /// This measurement's seed; point `n` derives its streams from
    /// `mix_seed(seed, n)`.
    pub seed: u64,
}

/// One protected bus lane: line network + environment + drive + front end.
#[derive(Debug, Clone)]
pub struct BusChannel {
    base_network: Network,
    environment: Environment,
    frontend: FrontEnd,
    now: f64,
    trigger_period: f64,
    response_cache: ResponseCache,
    table_cache: HashMap<u32, Arc<ReconstructionTable>>,
    schedule_cache: HashMap<u32, Arc<Vec<(f64, u32)>>>,
    seed: u64,
    measurements_taken: u64,
}

impl BusChannel {
    /// Attach a front end to a Tx-line under room conditions with the
    /// default drive edge.
    pub fn new(line: TxLine, fe_config: FrontEndConfig, seed: u64) -> Self {
        Self::from_network(
            line.network(),
            Environment::room(),
            SimConfig::default(),
            fe_config,
            seed,
        )
    }

    /// Full constructor.
    pub fn from_network(
        network: Network,
        environment: Environment,
        sim: SimConfig,
        fe_config: FrontEndConfig,
        seed: u64,
    ) -> Self {
        let trigger_period = fe_config.pll.clock_period;
        Self {
            base_network: network,
            environment,
            frontend: FrontEnd::new(fe_config, seed),
            now: 0.0,
            trigger_period,
            response_cache: ResponseCache::new(sim),
            table_cache: HashMap::new(),
            schedule_cache: HashMap::new(),
            seed,
            measurements_taken: 0,
        }
    }

    /// The current (possibly attacked) network.
    pub fn network(&self) -> &Network {
        &self.base_network
    }

    /// The ambient environment.
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// Replace the environment (invalidates the response cache).
    pub fn set_environment(&mut self, env: Environment) {
        self.environment = env;
        self.response_cache.invalidate();
    }

    /// The drive-edge configuration.
    pub fn sim_config(&self) -> &SimConfig {
        self.response_cache.sim_config()
    }

    /// The front-end configuration.
    pub fn frontend_config(&self) -> &FrontEndConfig {
        self.frontend.config()
    }

    /// Experiment wall-clock time (seconds since channel creation).
    pub fn now(&self) -> Seconds {
        Seconds(self.now)
    }

    /// Advance the experiment clock (measurements call this; tests can use
    /// it to move through environmental cycles).
    pub fn advance(&mut self, dt: Seconds) {
        assert!(dt.0 >= 0.0, "time cannot run backwards");
        self.now += dt.0;
    }

    /// Seconds of bus time consumed per probe trigger (one clock period on
    /// a clock-lane iTDR).
    pub fn trigger_period(&self) -> f64 {
        self.trigger_period
    }

    /// Apply a physical attack to the channel (mutates the network;
    /// invalidates the response cache). Returns `self` time so scripted
    /// scenarios can log when it happened.
    pub fn apply_attack(&mut self, attack: &Attack) -> Seconds {
        self.base_network = attack.apply(&self.base_network);
        self.response_cache.invalidate();
        self.now()
    }

    /// Replace the entire network (e.g. moving the memory module onto a
    /// different computer's bus in a cold-boot attack).
    pub fn replace_network(&mut self, network: Network) {
        self.base_network = network;
        self.response_cache.invalidate();
    }

    /// The count→voltage reconstruction table for `repetitions` triggers
    /// per point, built from this channel's front-end model and cached.
    ///
    /// Returned as a shared handle so callers (one per `measure_many`
    /// batch) hold the cached ROM without copying it.
    pub fn reconstruction_table(&mut self, repetitions: u32) -> Arc<ReconstructionTable> {
        let cfg = *self.frontend.config();
        Arc::clone(self.table_cache.entry(repetitions).or_insert_with(|| {
            Arc::new(ReconstructionTable::build(
                &effective_cdf(&cfg),
                repetitions,
            ))
        }))
    }

    /// The PDM distinct-level schedule for `repetitions` triggers per
    /// point (the analytic acquisition plan), built from this channel's
    /// front-end model and cached.
    ///
    /// Shared handle for the same reason as
    /// [`reconstruction_table`](Self::reconstruction_table): the schedule
    /// is a pure function of `(front-end config, repetitions)`, so one
    /// build serves every measurement batch.
    pub fn level_schedule(&mut self, repetitions: u32) -> Arc<Vec<(f64, u32)>> {
        let cfg = *self.frontend.config();
        Arc::clone(
            self.schedule_cache
                .entry(repetitions)
                .or_insert_with(|| Arc::new(cfg.level_schedule(repetitions))),
        )
    }

    /// Pre-seed the response cache with an already-computed back-reflection
    /// waveform for environment state `state`.
    ///
    /// Warm-start path for repeated channels onto one line: one engine
    /// run serves every later channel (the fleet's Trial-mode and
    /// hysteretic devices build one such channel per request; its
    /// analytic devices read detector nodes instead and build none). The
    /// seeded waveform must be what the channel would compute for that
    /// state; since the scattering engine is deterministic, seeding with
    /// another channel's result for the same `(network, environment,
    /// drive)` preserves bitwise-identical measurements.
    pub fn seed_response(&mut self, state: EnvState, response: Arc<Waveform>) {
        self.response_cache.seed_waveform(state, response);
    }

    /// Pre-seed the reconstruction-table cache with a shared ROM.
    ///
    /// The table keys on its own repetition count. Like
    /// [`seed_response`](Self::seed_response) this only skips a
    /// deterministic rebuild: the table is a pure function of
    /// `(front-end config, repetitions)`.
    pub fn seed_reconstruction_table(&mut self, table: Arc<ReconstructionTable>) {
        self.table_cache.insert(table.repetitions(), table);
    }

    /// The cached back-reflection response for the current instant,
    /// without consuming a measurement seed (a read-only physical peek —
    /// what an oracle with a lab TDR would see).
    pub fn response_now(&mut self) -> Arc<Waveform> {
        self.response_cache
            .response_at(&self.base_network, &self.environment, Seconds(self.now))
    }

    /// Check out the context for one measurement.
    ///
    /// Each call consumes one measurement slot: the returned context
    /// carries a seed derived from `(channel seed, measurement index)`, so
    /// consecutive measurements observe independent comparator/jitter
    /// noise while identically constructed channels still reproduce the
    /// exact same sequence.
    pub fn measurement_context(&mut self) -> MeasurementContext {
        let response = self.response_cache.response_at(
            &self.base_network,
            &self.environment,
            Seconds(self.now),
        );
        let sim = self.response_cache.sim_config();
        let z0 = self.base_network.main.profile.z_at_source();
        let divider = z0 / (sim.source_impedance.0 + z0);
        let forward = ForwardWave {
            amplitude: sim.amplitude.0 * divider,
            rise_time: sim.rise_time.0,
            shape: sim.shape,
        };
        let seed = measurement_seed(self.seed, self.measurements_taken);
        self.measurements_taken += 1;
        MeasurementContext {
            response,
            frontend: self.frontend.clone(),
            forward,
            jitter_rms: self.frontend.config().pll.jitter_rms,
            seed,
        }
    }

    /// Drop every cached environmental response, forcing the next
    /// measurement to re-run the bounce-lattice simulation. Benchmarks use
    /// this to reproduce the pre-cache acquisition cost; normal operation
    /// never needs it (environment changes invalidate automatically).
    pub fn invalidate_response_cache(&mut self) {
        self.response_cache.invalidate();
    }

    /// Number of distinct cached environmental responses (observable for
    /// tests and capacity planning).
    pub fn cached_responses(&self) -> usize {
        self.response_cache.len()
    }

    /// Hit/miss/invalidation counters of the underlying response cache.
    pub fn cache_stats(&self) -> CacheStatsView {
        self.response_cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_txline::board::{Board, BoardConfig};
    use divot_txline::response::DEFAULT_RESPONSE_CACHE_CAP;

    fn channel() -> BusChannel {
        let board = Board::fabricate(&BoardConfig::small_test(), 21);
        BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 21)
    }

    #[test]
    fn static_environment_caches_one_response() {
        let mut ch = channel();
        for _ in 0..5 {
            let _ = ch.measurement_context();
            ch.advance(Seconds(1e-3));
        }
        assert_eq!(ch.cached_responses(), 1);
        assert_eq!(ch.cache_stats().misses, 1);
        assert_eq!(ch.cache_stats().hits, 4);
    }

    #[test]
    fn vibrating_environment_caches_many() {
        let mut ch = channel();
        ch.set_environment(Environment::vibrating());
        for _ in 0..50 {
            let _ = ch.measurement_context();
            ch.advance(Seconds(3e-3));
        }
        assert!(ch.cached_responses() > 5);
        assert!(ch.cached_responses() <= DEFAULT_RESPONSE_CACHE_CAP);
    }

    #[test]
    fn attack_invalidates_cache_and_changes_response() {
        let mut ch = channel();
        let before = ch.response_now();
        ch.apply_attack(&Attack::paper_wiretap());
        assert_eq!(ch.cached_responses(), 0);
        assert_eq!(ch.cache_stats().invalidations, 1);
        let after = ch.response_now();
        assert_ne!(*before, *after);
        assert_eq!(ch.network().taps.len(), 1);
    }

    #[test]
    fn response_peek_does_not_consume_measurement_seeds() {
        let mut a = channel();
        let mut b = channel();
        let _ = a.response_now();
        let _ = a.response_now();
        // Despite the peeks, the first real measurement contexts agree.
        assert_eq!(a.measurement_context().seed, b.measurement_context().seed);
    }

    #[test]
    fn consecutive_contexts_use_distinct_seeds() {
        let mut ch = channel();
        let s1 = ch.measurement_context().seed;
        let s2 = ch.measurement_context().seed;
        assert_ne!(s1, s2);
        // ...but an identically built channel replays the same sequence.
        let mut twin = channel();
        assert_eq!(twin.measurement_context().seed, s1);
        assert_eq!(twin.measurement_context().seed, s2);
    }

    #[test]
    fn context_shares_the_cached_response() {
        let mut ch = channel();
        let c1 = ch.measurement_context();
        let c2 = ch.measurement_context();
        assert!(Arc::ptr_eq(&c1.response, &c2.response));
    }

    #[test]
    fn forward_wave_matches_drive() {
        let mut ch = channel();
        let ctx = ch.measurement_context();
        assert_eq!(ctx.forward.at(0.0), 0.0);
        let settled = ctx.forward.at(1e-9);
        // 0.9 V swing through a ~50/(50+50) divider.
        assert!((settled - 0.45).abs() < 0.02, "settled={settled}");
    }

    #[test]
    fn reconstruction_table_is_cached_and_shared() {
        let mut ch = channel();
        let a = ch.reconstruction_table(21);
        let b = ch.reconstruction_table(21);
        assert!(Arc::ptr_eq(&a, &b), "same repetition count shares one ROM");
        assert_eq!(a.repetitions(), 21);
        let other = ch.reconstruction_table(42);
        assert!(!Arc::ptr_eq(&a, &other));
    }

    #[test]
    fn clock_advances() {
        let mut ch = channel();
        assert_eq!(ch.now().0, 0.0);
        ch.advance(Seconds(5e-6));
        assert!((ch.now().0 - 5e-6).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "time cannot run backwards")]
    fn rejects_negative_advance() {
        channel().advance(Seconds(-1.0));
    }
}
