//! The simulated device population behind the fleet service.
//!
//! Every enrolled "field device" is one fabricated Tx-line (its own
//! copper, its own process variation) measured by the service's shared
//! iTDR configuration — the ChipletQuake / PUF-fleet deployment where a
//! central verifier attests many physically distinct links.
//!
//! **Purity is the load-bearing property.** Acquisition state never
//! persists between requests: every random stream of a request derives
//! from `(fleet seed, device, nonce, role)`. The answer to a request is
//! therefore a pure function of the request itself, independent of which
//! worker serves it, in what order, and under what queue pressure —
//! which is what lets the service fan requests across any number of
//! workers and still produce bitwise-identical verdicts.
//!
//! **Warm devices keep only what a request reads.** The fleet's
//! environment is static, so everything a request reads from the line is
//! a pure function of the device and the configuration, never of the
//! request seed. Each device is fabricated on demand — a pure function
//! of `(seed, board, anomaly)` — on its first request, and its warm
//! record keeps only what later requests read:
//!
//! - **Analytic fleets** keep every ETS point's jitter-quadrature
//!   detector nodes ([`DetectorNodes`], 43 × 9 `f64` on the fast
//!   instrument), sampled once from a probe channel. A request reads them
//!   through [`Itdr::measure_averaged_nodes`] together with the
//!   fleet-wide [`AnalyticPlan`] and count→voltage ROM, and builds no
//!   channel, no network and no response.
//! - **Trial-mode fleets, and analytic fleets whose comparator has
//!   hysteresis** (which falls back to per-trial simulation), keep the
//!   network and its back-reflection; each request builds a
//!   [`BusChannel`] pre-seeded with them and with the shared ROM.
//!
//! Either way the measurement is bitwise what a fresh channel computing
//! everything itself would give —
//! [`acquire_uncached`](SimulatedFleet::acquire_uncached) exists
//! precisely so tests can assert that equivalence.

use divot_analog::frontend::FrontEndConfig;
use divot_core::apc::ReconstructionTable;
use divot_core::channel::BusChannel;
use divot_core::exec::ExecPolicy;
use divot_core::fingerprint::Fingerprint;
use divot_core::itdr::{AcqMode, AnalyticPlan, DetectorNodes, Itdr, ItdrConfig};
use divot_core::pdm::effective_cdf;
use divot_core::registry::Pairing;
use divot_dsp::rng::{mix_seed, DivotRng};
use divot_dsp::waveform::Waveform;
use divot_txline::attack::Attack;
use divot_txline::board::{Board, BoardConfig, DesignPrecompute};
use divot_txline::env::{EnvState, Environment};
use divot_txline::scatter::{Network, SimConfig};
use divot_txline::units::{Ohms, Seconds};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Seed-derivation domain of the master-end channel.
const MASTER_DOMAIN: u64 = 0x4D53_5452;
/// Seed-derivation domain of the slave-end channel.
const SLAVE_DOMAIN: u64 = 0x534C_4156;
/// Seed-derivation domain of transient-fault rolls.
const FAULT_DOMAIN: u64 = 0xFA17_FA17;
/// Seed-derivation domain of streaming-subscription scan frames.
const SUB_DOMAIN: u64 = 0x5343_414E;
/// Seed-derivation domain of counterfeit-lot board fabrication.
const COUNTERFEIT_DOMAIN: u64 = 0xCF17_CF17;

/// The acquisition nonce of subscription frame `seq` under a
/// subscription registered with `base` — one shared derivation used by
/// the reactor's push path, the pipelined client, and the equivalence
/// tests, so a pushed scan frame is bitwise-identical to an explicit
/// [`crate::Request::MonitorScan`] issued with the same derived nonce.
pub fn subscription_nonce(base: u64, seq: u64) -> u64 {
    mix_seed(mix_seed(base, SUB_DOMAIN), seq)
}

/// A supply-chain anomaly planted on one simulated device — the ground
/// truth intake-scan benchmarks and tests measure detection against.
#[derive(Debug, Clone, PartialEq)]
pub enum Anomaly {
    /// The device's board comes from a different (drifted) fabrication
    /// lot: off-nominal impedance, wider ripple, sloppier connectors —
    /// a counterfeit or relabeled board.
    Counterfeit,
    /// The device's genuine board carries a physical attack artifact
    /// (solder scar, wire tap, probe, swapped termination chip).
    Tampered(Attack),
}

/// Configuration of a simulated fleet.
#[derive(Debug, Clone)]
pub struct FleetSimConfig {
    /// Number of field devices (one Tx-line each).
    pub devices: usize,
    /// Master fleet seed: fabrication and every per-request stream
    /// derive from it.
    pub seed: u64,
    /// The shared instrument configuration.
    pub itdr: ItdrConfig,
    /// Front-end configuration of every device channel.
    pub frontend: FrontEndConfig,
    /// Measurements averaged per enrollment.
    pub enroll_count: usize,
    /// Measurements averaged per verify/scan acquisition.
    pub verify_average: usize,
    /// Ground-truth anomalies planted at fabrication: `(device index,
    /// anomaly)`. Devices not listed are genuine.
    pub anomalies: Vec<(usize, Anomaly)>,
}

impl FleetSimConfig {
    /// A small fast-instrument fleet (unit tests, CI smoke, bench).
    ///
    /// Enrollment averages 8 measurements and runtime decisions average
    /// 4: under [`ItdrConfig::fast`] this keeps genuine similarities
    /// comfortably above and impostor similarities comfortably below the
    /// fleet's 0.89 operating threshold (measured over 8 devices × 1000
    /// nonces: genuine ≥ 0.92, impostor ≤ 0.85).
    ///
    /// Acquisition runs in [`AcqMode::Analytic`] — closed-form trip
    /// probabilities instead of per-trial comparator simulation — which
    /// is the fleet's verify fast path. The instrument silently falls
    /// back to Trial when the front end's comparator hysteresis couples
    /// trials ([`FrontEndConfig::supports_analytic`] is false).
    pub fn fast(devices: usize, seed: u64) -> Self {
        Self {
            devices,
            seed,
            itdr: ItdrConfig::fast().with_acq_mode(AcqMode::Analytic),
            frontend: FrontEndConfig::default(),
            enroll_count: 8,
            verify_average: 4,
            anomalies: Vec::new(),
        }
    }

    /// The same configuration with a different acquisition mode
    /// (determinism tests compare Trial and Analytic fleets).
    pub fn with_acq_mode(mut self, mode: AcqMode) -> Self {
        self.itdr = self.itdr.with_acq_mode(mode);
        self
    }

    /// The same configuration with planted ground-truth anomalies.
    pub fn with_anomalies(mut self, anomalies: Vec<(usize, Anomaly)>) -> Self {
        self.anomalies = anomalies;
        self
    }
}

/// Per-device memoized acquisition state: everything a request reads
/// that does not depend on the request.
#[derive(Debug)]
enum WarmDevice {
    /// Analytic fleets: every ETS point's detector nodes, all the
    /// analytic sweep reads from the line.
    Nodes(DetectorNodes),
    /// Trial-mode and hysteretic fleets: what a per-request channel is
    /// built from.
    Channel(Box<ChannelWarm>),
}

/// The warm state of a device served through per-request channels.
#[derive(Debug)]
struct ChannelWarm {
    /// The device's physical network — the fabricated line with any
    /// planted anomaly already applied. A [`Network`] (not a `TxLine`)
    /// because attack artifacts (taps, scars) only exist at the network
    /// level.
    network: Network,
    /// The (static, room-condition) environment state the response was
    /// computed under — the cache key per-request channels look it up by.
    state: EnvState,
    /// The scattering engine's back-reflection for that state: one
    /// engine run per device, shared by every request ever served on it.
    response: Arc<Waveform>,
}

/// The simulated device population: a fabrication recipe per device plus
/// the shared instrument. All methods take `&self`; per-request state is
/// local, so the fleet is freely shared across worker threads.
#[derive(Debug)]
pub struct SimulatedFleet {
    config: FleetSimConfig,
    /// Lazily-computed warm state per device; `OnceLock` so the first
    /// request on a device pays its fabrication and engine run and every
    /// later request (on any worker) shares the result.
    warm: Vec<OnceLock<WarmDevice>>,
    /// Name → index map: device lookup is O(1) no matter how many buses
    /// the fleet watches.
    index: HashMap<String, usize>,
    /// Fleet-wide count→voltage ROM (pure function of the shared
    /// front-end config and repetition count), read by every request.
    table: Arc<ReconstructionTable>,
    /// Fleet-wide analytic plan (distinct-level schedule and its
    /// bracketing order): `Some` exactly when requests read detector
    /// nodes, i.e. the fleet is analytic and the comparator has no
    /// hysteresis.
    plan: Option<AnalyticPlan>,
    /// The shared board design: every board of the cohort is fabricated
    /// against this one precompute (ρ-shape, connector window, nominal
    /// line), so board N+1 reuses the design work board 0 paid for.
    design: Arc<DesignPrecompute>,
    /// The drifted lot counterfeit boards come from, when any device is
    /// a counterfeit.
    counterfeit_design: Option<DesignPrecompute>,
    itdr: Itdr,
}

impl SimulatedFleet {
    /// Lay out the population: devices are packed two per
    /// [`BoardConfig::small_test`] board, every board seeded from the
    /// fleet seed, so the same configuration always yields the identical
    /// fleet. The design precompute, shared ROM, and analytic plan are
    /// built here, once; a device's board is fabricated, and its anomaly
    /// planted, only when the device warms up (on first use) or when
    /// [`acquire_uncached`](Self::acquire_uncached) needs it.
    ///
    /// # Panics
    ///
    /// Panics if `config.devices == 0`, or if an anomaly names a missing
    /// device or a device twice.
    pub fn new(config: FleetSimConfig) -> Self {
        assert!(config.devices >= 1, "fleet needs at least one device");
        let design = Arc::new(DesignPrecompute::new(BoardConfig::small_test()));
        let mut seen = vec![false; config.devices];
        for (i, _) in &config.anomalies {
            assert!(*i < config.devices, "anomaly on unknown device {i}");
            assert!(!seen[*i], "device {i} has two anomalies");
            seen[*i] = true;
        }
        let counterfeit_design = config
            .anomalies
            .iter()
            .any(|(_, a)| *a == Anomaly::Counterfeit)
            .then(|| DesignPrecompute::new(Self::counterfeit_board_config(design.config())));
        let index = (0..config.devices)
            .map(|i| (Self::device_name(i), i))
            .collect();
        let reps = config.itdr.repetitions;
        let table = Arc::new(ReconstructionTable::build(
            &effective_cdf(&config.frontend),
            reps,
        ));
        let plan = (config.itdr.acq_mode == AcqMode::Analytic
            && config.frontend.supports_analytic())
        .then(|| AnalyticPlan::new(Arc::new(config.frontend.level_schedule(reps))));
        Self {
            itdr: Itdr::new(config.itdr),
            warm: (0..config.devices).map(|_| OnceLock::new()).collect(),
            config,
            index,
            table,
            plan,
            design,
            counterfeit_design,
        }
    }

    /// The shared board-design precompute the cohort was fabricated
    /// against (cohort intake scans read the nominal reference line off
    /// it).
    pub fn design(&self) -> &Arc<DesignPrecompute> {
        &self.design
    }

    /// The drifted fab lot counterfeit boards come from: off-nominal
    /// impedance (+10 %), wider process ripple (×3), and sloppier
    /// connector assembly (×2) — same design, different (cheaper)
    /// factory using a different stackup.
    pub fn counterfeit_board_config(genuine: &BoardConfig) -> BoardConfig {
        let mut cfg = genuine.clone();
        cfg.process.z0 = Ohms(cfg.process.z0.0 * 1.10);
        cfg.process.relative_sigma *= 3.0;
        cfg.process.connector_bump *= 2.0;
        cfg
    }

    /// The ground-truth anomaly planted on device `i`, if any —
    /// benchmarks and tests label their ROC populations with this.
    pub fn anomaly(&self, i: usize) -> Option<&Anomaly> {
        self.config
            .anomalies
            .iter()
            .find(|(d, _)| *d == i)
            .map(|(_, a)| a)
    }

    /// The canonical name of device `i` (`bus-000`, `bus-001`, …).
    pub fn device_name(i: usize) -> String {
        format!("bus-{i:03}")
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.warm.len()
    }

    /// All device names in index order.
    pub fn device_names(&self) -> Vec<String> {
        (0..self.device_count()).map(Self::device_name).collect()
    }

    /// The configuration this fleet was built with.
    pub fn config(&self) -> &FleetSimConfig {
        &self.config
    }

    /// The index of device `name`, or `None` if it does not exist.
    /// O(1): backed by the prebuilt name → index map. Stable for the
    /// fleet's lifetime, so it doubles as a compact cache-key component.
    pub fn device_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The per-request channel seed: derived from
    /// `(fleet seed, device index, role domain, nonce)`.
    fn request_seed(&self, index: usize, domain: u64, nonce: u64) -> u64 {
        mix_seed(mix_seed(self.config.seed, domain ^ index as u64), nonce)
    }

    /// Device `i`'s physical network, fabricated now: line `i mod 2` of
    /// board `i div 2` (from the counterfeit lot for a counterfeit), with
    /// a tampered device's attack artifact applied. A pure function of
    /// `(fleet seed, board, anomaly)`; for genuine devices it is exactly
    /// `line.network()`.
    fn network(&self, i: usize) -> Network {
        let per_board = self.design.config().line_count;
        let (board, line) = ((i / per_board) as u64, i % per_board);
        let genuine = || {
            Board::fabricate_line_with(&self.design, mix_seed(self.config.seed, board), line)
                .network()
        };
        match self.anomaly(i) {
            None => genuine(),
            Some(Anomaly::Counterfeit) => {
                let fab = self.counterfeit_design.as_ref().expect("built in new");
                let seed = mix_seed(self.config.seed, COUNTERFEIT_DOMAIN ^ board);
                Board::fabricate_line_with(fab, seed, line).network()
            }
            Some(Anomaly::Tampered(attack)) => attack.apply(&genuine()),
        }
    }

    /// The memoized warm state of device `i`, computing it on first use.
    ///
    /// The probe channel uses a fixed seed because nothing seed-dependent
    /// is read from it: the back-reflection, the environment state and
    /// the detector nodes are pure functions of the network and the
    /// (static, room) environment — the scattering engine consumes no
    /// RNG, and the nodes read no comparator draw.
    fn warm(&self, i: usize) -> &WarmDevice {
        self.warm[i].get_or_init(|| {
            let network = self.network(i);
            if self.plan.is_some() {
                let mut probe = self.raw_channel(network, 0);
                // Nodes sampled once stand for every later instant only
                // if the response never changes.
                assert!(
                    probe.environment().is_static(),
                    "detector nodes need a static environment"
                );
                WarmDevice::Nodes(self.itdr.detector_nodes(&probe.measurement_context()))
            } else {
                let mut probe = self.raw_channel(network.clone(), 0);
                let response = probe.response_now();
                let state = probe.environment().state_at(Seconds(0.0));
                WarmDevice::Channel(Box::new(ChannelWarm {
                    network,
                    state,
                    response,
                }))
            }
        })
    }

    /// An unseeded channel onto `network`. For genuine devices this is
    /// exactly `BusChannel::new(line, ..)` — same room environment, same
    /// default simulation config.
    fn raw_channel(&self, network: Network, seed: u64) -> BusChannel {
        BusChannel::from_network(
            network,
            Environment::room(),
            SimConfig::default(),
            self.config.frontend,
            seed,
        )
    }

    /// `count` averaged measurements of device `i` from the `domain` end
    /// under `nonce`, off the device's warm state: bitwise what a fresh
    /// channel seeded with [`request_seed`](Self::request_seed) measures,
    /// without a scattering-engine run or a table build.
    fn measure(&self, i: usize, domain: u64, nonce: u64, count: usize) -> Waveform {
        let seed = self.request_seed(i, domain, nonce);
        match self.warm(i) {
            WarmDevice::Nodes(nodes) => self.itdr.measure_averaged_nodes(
                nodes,
                self.config.frontend,
                seed,
                self.plan
                    .as_ref()
                    .expect("nodes are built only with a plan"),
                &self.table,
                count,
            ),
            WarmDevice::Channel(warm) => {
                let mut ch = self.raw_channel(warm.network.clone(), seed);
                ch.seed_response(warm.state, Arc::clone(&warm.response));
                ch.seed_reconstruction_table(Arc::clone(&self.table));
                self.itdr
                    .measure_averaged_with(&mut ch, count, ExecPolicy::Serial)
            }
        }
    }

    /// Calibration-time enrollment of `name`: both bus ends enroll over
    /// the shared instrument, master first (serially — the service
    /// already fans out across requests). Bitwise
    /// [`Pairing::enroll_with`] under [`ExecPolicy::Serial`] over the
    /// channels [`uncached_channels`](Self::uncached_channels) returns.
    /// `None` when the device does not exist.
    pub fn enroll(&self, name: &str, nonce: u64) -> Option<Pairing> {
        let i = self.device_index(name)?;
        let count = self.config.enroll_count;
        let enroll = |domain| Fingerprint::new(self.measure(i, domain, nonce, count), count as u32);
        let master = enroll(MASTER_DOMAIN);
        Some(Pairing {
            master,
            slave: enroll(SLAVE_DOMAIN),
        })
    }

    /// Batched runtime acquisition: one averaged master-end IIP per
    /// `(name, nonce)` item, fanning whole devices across `policy` (each
    /// device's own acquisition stays serial inside its work item, so
    /// fan-outs never nest). Distinct devices are warmed up front under
    /// the same policy, so a cold cohort's scattering-engine runs
    /// parallelize instead of serializing behind per-device `OnceLock`
    /// waits.
    ///
    /// Entry `i` is bitwise identical to `acquire(&items[i].0,
    /// items[i].1)` run solo — each item's answer is a pure function of
    /// the request — so batching (and the policy) is a scheduling choice,
    /// never a semantic one.
    ///
    /// Returns `None` if *any* name is unknown; the batch is
    /// all-or-nothing and nothing is acquired in that case.
    pub fn acquire_batch(
        &self,
        items: &[(String, u64)],
        policy: ExecPolicy,
    ) -> Option<Vec<Waveform>> {
        let idx: Vec<usize> = items
            .iter()
            .map(|(n, _)| self.device_index(n))
            .collect::<Option<_>>()?;
        self.warm_all(&idx, policy);
        Some(policy.run_indexed(items.len(), |k| {
            self.measure(
                idx[k],
                MASTER_DOMAIN,
                items[k].1,
                self.config.verify_average,
            )
        }))
    }

    /// Warm every distinct device of `idx` under `policy` (engine runs
    /// are the dominant cold cost, and `OnceLock` makes concurrent
    /// duplicates harmless but wasteful).
    fn warm_all(&self, idx: &[usize], policy: ExecPolicy) {
        let mut distinct = idx.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        policy.run_indexed(distinct.len(), |k| {
            self.warm(distinct[k]);
        });
    }

    /// One runtime acquisition from the master end of `name` under
    /// request `nonce`: the averaged IIP a verify or scan decides on.
    /// `None` when the device does not exist.
    ///
    /// # Cache interaction
    ///
    /// The acquisition reads the device's warm state (fabrication and
    /// one engine run, paid once, on the first request ever served for
    /// the device) and the fleet-wide ROM and analytic plan, so
    /// warm-path requests perform zero scattering-engine runs and zero
    /// table builds; analytic requests build no channel at all. The warm
    /// state depends only on `(line, environment)` and `(front-end
    /// config, repetitions)`, never on `nonce`, so the result is bitwise
    /// identical to [`acquire_uncached`](Self::acquire_uncached) and the
    /// cache can never leak state between requests.
    pub fn acquire(&self, name: &str, nonce: u64) -> Option<Waveform> {
        self.acquire_traced(name, nonce, None, "acquire")
    }

    /// [`acquire`](Self::acquire) with per-stage trace spans: the
    /// device's warm-up (fabrication and the scattering-engine run, paid
    /// only on the first request ever served for the device — near-zero
    /// afterwards) and the averaged ITDR sweep are timed separately under
    /// `kind`. With `trace` `None` this *is* `acquire`: the stages run
    /// identically and nothing is emitted.
    pub fn acquire_traced(
        &self,
        name: &str,
        nonce: u64,
        trace: Option<divot_telemetry::TraceCtx>,
        kind: &'static str,
    ) -> Option<Waveform> {
        let i = self.device_index(name)?;
        let span = trace.map(|c| c.span(kind, "fabrication"));
        self.warm(i);
        drop(span);
        let span = trace.map(|c| c.span(kind, "sweep"));
        let measured = self.measure(i, MASTER_DOMAIN, nonce, self.config.verify_average);
        drop(span);
        Some(measured)
    }

    /// Fresh `(master, slave)` channels onto `name` for request `nonce`:
    /// the device's network fabricated anew, seeded with the request's
    /// streams, computing their own response, ROM and schedule — no
    /// memoized state. `None` when the device does not exist.
    ///
    /// # Cache interaction
    ///
    /// These never touch (and never populate) the fleet's warm state.
    /// They are the reference the warm path is tested against: `acquire`
    /// is the averaged master-end measurement on the first, and `enroll`
    /// is [`Pairing::enroll_with`] over both.
    pub fn uncached_channels(&self, name: &str, nonce: u64) -> Option<(BusChannel, BusChannel)> {
        let i = self.device_index(name)?;
        let network = self.network(i);
        let master = self.raw_channel(network.clone(), self.request_seed(i, MASTER_DOMAIN, nonce));
        let slave = self.raw_channel(network, self.request_seed(i, SLAVE_DOMAIN, nonce));
        Some((master, slave))
    }

    /// [`acquire`](Self::acquire) without any memoized state, on the
    /// master channel of [`uncached_channels`](Self::uncached_channels).
    /// It costs one fabrication, one scattering-engine run and one table
    /// build per call, so use it for equivalence checks, not throughput.
    pub fn acquire_uncached(&self, name: &str, nonce: u64) -> Option<Waveform> {
        let (mut master, _) = self.uncached_channels(name, nonce)?;
        Some(self.itdr.measure_averaged_with(
            &mut master,
            self.config.verify_average,
            ExecPolicy::Serial,
        ))
    }

    /// Deterministic transient-fault roll for attempt `attempt` of the
    /// request `(name, nonce)`: `true` with probability `prob`,
    /// reproducibly — the same attempt of the same request faults
    /// identically on every worker layout.
    pub fn transient_fault(&self, name: &str, nonce: u64, attempt: u32, prob: f64) -> bool {
        if prob <= 0.0 {
            return false;
        }
        let Some(i) = self.device_index(name) else {
            return false;
        };
        let mut rng = DivotRng::derive(
            mix_seed(self.config.seed, FAULT_DOMAIN ^ i as u64),
            mix_seed(nonce, u64::from(attempt)),
        );
        rng.bernoulli(prob.min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(devices: usize) -> SimulatedFleet {
        SimulatedFleet::new(FleetSimConfig::fast(devices, 99))
    }

    #[test]
    fn devices_have_distinct_copper() {
        let f = fleet(4);
        assert_eq!(f.device_count(), 4);
        let a = f.acquire("bus-000", 1).unwrap();
        let b = f.acquire("bus-001", 1).unwrap();
        assert_ne!(a, b, "different devices must have different IIPs");
    }

    #[test]
    fn acquisition_is_pure_in_the_request() {
        let f = fleet(2);
        let a = f.acquire("bus-001", 42).unwrap();
        let b = f.acquire("bus-001", 42).unwrap();
        assert_eq!(a, b, "same (device, nonce) → identical acquisition");
        let c = f.acquire("bus-001", 43).unwrap();
        assert_ne!(a, c, "a new nonce sees fresh measurement noise");
    }

    #[test]
    fn memoized_acquisition_matches_uncached_bitwise() {
        let f = fleet(3);
        for (name, nonce) in [("bus-000", 7), ("bus-002", 12345), ("bus-001", 0)] {
            let fast = f.acquire(name, nonce).unwrap();
            let slow = f.acquire_uncached(name, nonce).unwrap();
            for (a, b) in fast.samples().iter().zip(slow.samples()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}/{nonce}");
            }
        }
    }

    #[test]
    fn device_index_is_stable_and_total() {
        let f = fleet(5);
        for i in 0..5 {
            assert_eq!(f.device_index(&SimulatedFleet::device_name(i)), Some(i));
        }
        assert_eq!(f.device_index("bus-005"), None);
        assert_eq!(f.device_index(""), None);
    }

    #[test]
    fn trial_mode_fleet_still_supported() {
        let f = SimulatedFleet::new(FleetSimConfig::fast(2, 99).with_acq_mode(AcqMode::Trial));
        let fast = f.acquire("bus-000", 3).unwrap();
        let slow = f.acquire_uncached("bus-000", 3).unwrap();
        assert_eq!(fast, slow, "memoization must be mode-agnostic");
    }

    #[test]
    fn enrolled_pairing_authenticates_the_device() {
        use divot_core::auth::{AuthPolicy, Authenticator};
        let f = fleet(2);
        let pairing = f.enroll("bus-000", 7).unwrap();
        let auth = Authenticator::new(AuthPolicy::default());
        let genuine = f.acquire("bus-000", 100).unwrap();
        assert!(auth.verify(&pairing.master, &genuine).is_accept());
        let impostor = f.acquire("bus-001", 100).unwrap();
        assert!(!auth.verify(&pairing.master, &impostor).is_accept());
    }

    #[test]
    fn unknown_device_is_none() {
        let f = fleet(1);
        assert!(f.enroll("bus-999", 0).is_none());
        assert!(f.acquire("nope", 0).is_none());
    }

    #[test]
    fn batched_acquisition_matches_solo_bitwise() {
        let f = fleet(2);
        let items: Vec<(String, u64)> = vec![
            (SimulatedFleet::device_name(1), 3),
            (SimulatedFleet::device_name(0), 3),
            (SimulatedFleet::device_name(1), 4),
        ];
        let batch = f.acquire_batch(&items, ExecPolicy::Parallel).unwrap();
        for (k, (name, nonce)) in items.iter().enumerate() {
            let solo = f.acquire(name, *nonce).unwrap();
            for (a, b) in batch[k].samples().iter().zip(solo.samples()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}/{nonce}");
            }
        }
    }

    #[test]
    fn batch_with_unknown_device_is_all_or_nothing() {
        let f = fleet(2);
        let items = vec![
            (SimulatedFleet::device_name(0), 1u64),
            ("bus-999".to_string(), 2),
        ];
        assert!(f.acquire_batch(&items, ExecPolicy::Serial).is_none());
    }

    #[test]
    fn anomalous_devices_differ_but_stay_deterministic() {
        let anomalies = vec![
            (0usize, Anomaly::Counterfeit),
            (
                2usize,
                Anomaly::Tampered(Attack::SolderScar { position: 0.4 }),
            ),
        ];
        let clean = fleet(4);
        let dirty =
            SimulatedFleet::new(FleetSimConfig::fast(4, 99).with_anomalies(anomalies.clone()));
        let dirty2 = SimulatedFleet::new(FleetSimConfig::fast(4, 99).with_anomalies(anomalies));
        for i in [0usize, 2] {
            let name = SimulatedFleet::device_name(i);
            let a = dirty.acquire(&name, 5).unwrap();
            assert_ne!(a, clean.acquire(&name, 5).unwrap(), "{name} must deviate");
            let b = dirty2.acquire(&name, 5).unwrap();
            for (x, y) in a.samples().iter().zip(b.samples()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{name} must be reproducible");
            }
        }
        assert_eq!(dirty.anomaly(0), Some(&Anomaly::Counterfeit));
        assert_eq!(dirty.anomaly(1), None);
    }

    #[test]
    fn genuine_devices_are_bitwise_unaffected_by_anomalous_neighbors() {
        let clean = fleet(4);
        let dirty = SimulatedFleet::new(
            FleetSimConfig::fast(4, 99)
                .with_anomalies(vec![(0, Anomaly::Tampered(Attack::paper_wiretap()))]),
        );
        for i in 1..4 {
            let name = SimulatedFleet::device_name(i);
            let a = clean.acquire(&name, 77).unwrap();
            let b = dirty.acquire(&name, 77).unwrap();
            for (x, y) in a.samples().iter().zip(b.samples()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}");
            }
        }
    }

    #[test]
    fn anomalous_acquisition_matches_uncached_bitwise() {
        let f = SimulatedFleet::new(
            FleetSimConfig::fast(2, 7).with_anomalies(vec![(1, Anomaly::Counterfeit)]),
        );
        let fast = f.acquire("bus-001", 9).unwrap();
        let slow = f.acquire_uncached("bus-001", 9).unwrap();
        for (a, b) in fast.samples().iter().zip(slow.samples()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "anomaly on unknown device")]
    fn anomaly_on_missing_device_is_rejected() {
        let _ = SimulatedFleet::new(
            FleetSimConfig::fast(2, 1).with_anomalies(vec![(5, Anomaly::Counterfeit)]),
        );
    }

    #[test]
    #[should_panic(expected = "two anomalies")]
    fn duplicate_anomalies_are_rejected() {
        let _ = SimulatedFleet::new(FleetSimConfig::fast(2, 1).with_anomalies(vec![
            (0, Anomaly::Counterfeit),
            (0, Anomaly::Tampered(Attack::paper_wiretap())),
        ]));
    }

    #[test]
    fn fault_rolls_are_deterministic_and_respect_probability() {
        let f = fleet(3);
        for attempt in 0..4 {
            assert_eq!(
                f.transient_fault("bus-002", 5, attempt, 0.3),
                f.transient_fault("bus-002", 5, attempt, 0.3),
            );
        }
        assert!(!f.transient_fault("bus-000", 1, 0, 0.0));
        let faults = (0..200)
            .filter(|&n| f.transient_fault("bus-001", n, 0, 0.25))
            .count();
        assert!(
            (20..80).contains(&faults),
            "≈25% expected, got {faults}/200"
        );
    }

    #[test]
    fn golden_acquisition_hash_is_pinned() {
        // FNV-1a (one 64-bit word per sample) over every sample bit of
        // 256 warm acquisitions. Any change to the acquisition kernel
        // that moves a single bit of any sample (rounding order, RNG
        // stream use, saturation edges) changes this hash.
        let f = SimulatedFleet::new(FleetSimConfig::fast(16, 2020));
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for k in 0..256u64 {
            let name = SimulatedFleet::device_name((k % 16) as usize);
            let wf = f.acquire(&name, 1000 + k).unwrap();
            for s in wf.samples() {
                hash ^= s.to_bits();
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(hash, 0xeba1_6e10_f2cf_994d, "got {hash:#018x}");
    }
}
