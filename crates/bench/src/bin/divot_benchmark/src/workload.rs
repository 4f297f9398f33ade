//! Workload definitions and the seeded request streams they generate.
//!
//! The fleet itself (seed [`FLEET_SEED`]) is simulated hardware and never
//! changes with `--seed`; the benchmark seed only picks the inputs:
//! nonces, which device each request names, and which `(device, nonce)`
//! pairs form the replay set. Every op of every phase is a pure function
//! of `(seed, phase domain, op index)`, so the sender and receiver halves
//! of a load loop can each rebuild an op from its wire id alone.

use divot_dsp::rng::mix_seed;
use divot_fleet::{Anomaly, FleetSimConfig, Request, SimulatedFleet};
use divot_txline::attack::Attack;
use std::time::Duration;

/// The simulated hardware: fixed, whatever `--seed` says.
pub const FLEET_SEED: u64 = 2020;

/// Churn workloads send one enroll after this many verifies.
pub const ENROLL_EVERY: u64 = 255;

/// Target length of one closed-loop window or open-loop sub-window. On a
/// shared two-vCPU virtual machine a CPU-bound loop's rate drops by up to
/// two fifths for seconds at a time under other tenants' load; a phase
/// cut into many half-second windows nearly always holds undisturbed ones
/// for the best-window throughput, and gives the latency medians a dozen
/// or more sub-windows to take the middle of.
const WINDOW_S: f64 = 0.5;

const ENROLL_DOMAIN: u64 = 0xE1_0000;
const PAIR_DEVICE_DOMAIN: u64 = 0xE2_0000;
const PAIR_NONCE_DOMAIN: u64 = 0xE3_0000;
const COHORT_DOMAIN: u64 = 0xE4_0000;
const POOL_DOMAIN: u64 = 0xE5_0000;
const TWIN_DOMAIN: u64 = 0xE6_0000;

/// Phase domains: each phase draws its own sub-stream, so a fresh-nonce
/// workload never repeats a nonce across phases.
pub mod domain {
    /// Intake warm-up scans run during setup.
    pub const PRIME: u64 = 1;
    /// The discarded warm-up loop.
    pub const WARMUP: u64 = 2;
    /// Closed-loop windows.
    pub const CLOSED: u64 = 3;
    /// Open-loop sub-windows.
    pub const OPEN: u64 = 4;
    /// The serial layer walk of a traced run.
    pub const WALK: u64 = 5;
    /// Probe requests of the layer walk.
    pub const PROBE: u64 = 6;
    /// The untraced closed loop a traced run compares against.
    pub const BASELINE: u64 = 7;
}

/// The four traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh-nonce verifies: every request takes the cache-miss path.
    VerifyFresh,
    /// Verifies re-asking a primed replay set: served from the verdict cache.
    VerifyReplay,
    /// Replay verifies with a trickle of enrolls of never-touched devices.
    EnrollChurn,
    /// Golden-free intake scans of 16-board batches.
    IntakeScan,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::VerifyFresh,
        Workload::VerifyReplay,
        Workload::EnrollChurn,
        Workload::IntakeScan,
    ];

    /// The CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifyFresh => "verify_fresh",
            Workload::VerifyReplay => "verify_replay",
            Workload::EnrollChurn => "enroll_churn",
            Workload::IntakeScan => "intake_scan",
        }
    }

    /// Parse a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One workload's sizes, rates and phase lengths.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which traffic mix.
    pub workload: Workload,
    /// Devices enrolled during setup (verify workloads).
    pub enrolled: usize,
    /// Primed `(device, nonce)` pairs the replay traffic re-asks.
    pub replay_pairs: usize,
    /// Never-touched devices the churn workload enrolls from.
    pub pool: usize,
    /// Boards of the intake cohort (also the layer walk's cohort probe).
    pub cohort: usize,
    /// Boards the intake scans draw from.
    pub eval: usize,
    /// Boards per intake request (1 for every other workload).
    pub batch: usize,
    /// Closed-loop requests in flight per connection.
    pub window: usize,
    /// Open-loop request rate, requests per second.
    pub rate: f64,
    /// Setups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Discarded warm-up.
    pub warmup: Duration,
    /// Length of each closed-loop window and open-loop sub-window.
    pub slice: Duration,
    /// Closed-loop windows, and open-loop sub-windows, per phase.
    pub slices: usize,
    /// Ops the traced layer walk sends serially.
    pub walk_ops: u64,
    /// Devices the layer-walk probes enroll in the shadow instances.
    pub probe_devices: usize,
    /// Largest number of replies the correctness oracle recomputes.
    pub reservoir: usize,
}

impl Spec {
    /// The workload at full size, measuring `seconds` in total (half
    /// closed loop, half open loop, each cut into windows of about
    /// [`WINDOW_S`]); `quick` shrinks the fleet to 256 devices and every
    /// phase to well under a second.
    pub fn new(workload: Workload, seconds: f64, quick: bool) -> Self {
        let (devices, pool) = if quick { (256, 256) } else { (1024, 8192) };
        let (window, rate, batch) = match workload {
            Workload::VerifyFresh => (8, 2_000.0, 1),
            Workload::VerifyReplay => (32, 50_000.0, 1),
            Workload::EnrollChurn => (16, 2_000.0, 1),
            Workload::IntakeScan => (2, 200.0, 16),
        };
        let intake = workload == Workload::IntakeScan;
        let slices = ((seconds / 2.0 / WINDOW_S).round() as usize).max(3);
        Self {
            workload,
            enrolled: if intake { 0 } else { devices },
            replay_pairs: match workload {
                Workload::VerifyReplay | Workload::EnrollChurn => devices * 2,
                _ => 0,
            },
            pool: if workload == Workload::EnrollChurn {
                pool
            } else {
                0
            },
            cohort: devices / 4,
            eval: if intake { devices - devices / 4 } else { 0 },
            batch,
            window,
            rate,
            setup_repeats: if quick { 1 } else { 5 },
            warmup: Duration::from_secs_f64(if quick { 0.2 } else { 2.0 }),
            slice: Duration::from_secs_f64(seconds / 2.0 / slices as f64),
            slices,
            walk_ops: if quick { 64 } else { 2000 },
            probe_devices: if quick { 4 } else { 16 },
            reservoir: if quick { 256 } else { 1024 },
        }
    }

    /// Devices in the simulated fleet.
    pub fn devices(&self) -> usize {
        match self.workload {
            Workload::IntakeScan => self.cohort + self.eval,
            _ => self.enrolled + self.pool,
        }
    }

    /// The fleet configuration: `FleetSimConfig::fast`, with the intake
    /// workload's counterfeit (1 in 16) and wiretapped (1 in 32) boards
    /// planted among the eval boards.
    pub fn sim_config(&self) -> FleetSimConfig {
        let mut anomalies = Vec::new();
        for k in 0..self.eval {
            let device = self.cohort + k;
            if k % 16 == 0 {
                anomalies.push((device, Anomaly::Counterfeit));
            } else if k % 32 == 8 {
                anomalies.push((device, Anomaly::Tampered(Attack::paper_wiretap())));
            }
        }
        FleetSimConfig::fast(self.devices(), FLEET_SEED).with_anomalies(anomalies)
    }
}

/// One benchmark operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Authenticate `device` under `nonce`.
    Verify {
        /// Device index.
        device: usize,
        /// Acquisition nonce.
        nonce: u64,
        /// Index into the replay set, for replayed verifies.
        pair: Option<usize>,
    },
    /// Enroll `device`.
    Enroll {
        /// Device index.
        device: usize,
        /// Enrollment nonce.
        nonce: u64,
    },
    /// Attest a batch of `(device, nonce)` boards.
    Intake {
        /// The scanned boards.
        rows: Vec<(usize, u64)>,
    },
}

impl Op {
    /// The wire request.
    pub fn request(&self) -> Request {
        let name = SimulatedFleet::device_name;
        match self {
            Op::Verify { device, nonce, .. } => Request::Verify {
                device: name(*device),
                nonce: *nonce,
            },
            Op::Enroll { device, nonce } => Request::Enroll {
                device: name(*device),
                nonce: *nonce,
            },
            Op::Intake { rows } => Request::IntakeScan {
                devices: rows.iter().map(|&(d, n)| (name(d), n)).collect(),
            },
        }
    }

    /// Ops this request counts as: one per verify, enroll or intake board.
    pub fn weight(&self) -> u64 {
        match self {
            Op::Intake { rows } => rows.len() as u64,
            _ => 1,
        }
    }
}

/// The seeded input generator of one run.
#[derive(Debug, Clone)]
pub struct Stream {
    spec: Spec,
    seed: u64,
    /// Pool index → device index: a seeded permutation of the churn pool.
    pool: Vec<usize>,
}

impl Stream {
    /// The generator for `spec` under benchmark seed `seed`.
    pub fn new(spec: &Spec, seed: u64) -> Self {
        let mut pool: Vec<usize> = (spec.enrolled..spec.enrolled + spec.pool).collect();
        for i in (1..pool.len()).rev() {
            let j = (mix_seed(seed ^ POOL_DOMAIN, i as u64) % (i as u64 + 1)) as usize;
            pool.swap(i, j);
        }
        Self {
            spec: spec.clone(),
            seed,
            pool,
        }
    }

    /// The spec this stream generates for.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    fn draw(&self, domain: u64, k: u64, salt: u64) -> u64 {
        mix_seed(mix_seed(self.seed, domain << 8 | salt), k)
    }

    /// The enrollment nonce of device `device` (setup and churn alike).
    pub fn enroll_nonce(&self, device: usize) -> u64 {
        mix_seed(self.seed ^ ENROLL_DOMAIN, device as u64)
    }

    /// The acquisition nonce of cohort board `device` (intake setup and
    /// the layer walk's cohort probe).
    pub fn cohort_nonce(&self, device: usize) -> u64 {
        mix_seed(self.seed ^ COHORT_DOMAIN, device as u64)
    }

    /// The `CohortEnroll` rows.
    pub fn cohort_rows(&self) -> Vec<(usize, u64)> {
        (0..self.spec.cohort)
            .map(|d| (d, self.cohort_nonce(d)))
            .collect()
    }

    /// The setup scans that warm every eval board once, in batches.
    pub fn prime_ops(&self) -> Vec<Op> {
        let boards: Vec<(usize, u64)> = (0..self.spec.eval)
            .map(|b| (self.spec.cohort + b, self.draw(domain::PRIME, b as u64, 1)))
            .collect();
        boards
            .chunks(self.spec.batch)
            .map(|rows| Op::Intake {
                rows: rows.to_vec(),
            })
            .collect()
    }

    /// Replay-set entry `j`.
    pub fn pair(&self, j: usize) -> (usize, u64) {
        let device = mix_seed(self.seed ^ PAIR_DEVICE_DOMAIN, j as u64) % self.spec.enrolled as u64;
        (
            device as usize,
            mix_seed(self.seed ^ PAIR_NONCE_DOMAIN, j as u64),
        )
    }

    /// The device enrolled by churn enroll number `index`, if the pool
    /// still has one.
    pub fn pool_device(&self, index: usize) -> Option<usize> {
        self.pool.get(index).copied()
    }

    /// Churn enroll number `index`; `None` once the pool runs dry.
    pub fn enroll_op(&self, index: usize) -> Option<Op> {
        let device = self.pool_device(index)?;
        Some(Op::Enroll {
            device,
            nonce: self.enroll_nonce(device),
        })
    }

    /// The `k`-th verify (or intake batch) of phase `domain`: fresh
    /// nonces for `verify_fresh`, replay-set draws for the replay
    /// workloads, fresh boards for `intake_scan`.
    pub fn read_op(&self, domain: u64, k: u64) -> Op {
        match self.spec.workload {
            Workload::VerifyFresh => Op::Verify {
                device: (self.draw(domain, k, 0) % self.spec.enrolled as u64) as usize,
                nonce: self.draw(domain, k, 1),
                pair: None,
            },
            Workload::VerifyReplay | Workload::EnrollChurn => {
                let j = (self.draw(domain, k, 0) % self.spec.replay_pairs as u64) as usize;
                let (device, nonce) = self.pair(j);
                Op::Verify {
                    device,
                    nonce,
                    pair: Some(j),
                }
            }
            Workload::IntakeScan => Op::Intake {
                rows: (0..self.spec.batch as u64)
                    .map(|r| {
                        let i = k * self.spec.batch as u64 + r;
                        let board = self.draw(domain, i, 0) % self.spec.eval as u64;
                        (self.spec.cohort + board as usize, self.draw(domain, i, 1))
                    })
                    .collect(),
            },
        }
    }

    /// Op `k` of an interleaved phase: for `enroll_churn` every
    /// 256th op is an enroll taken from the pool at
    /// `pool_base + k / 256`; everything else is [`read_op`](Self::read_op).
    /// `None` only when the churn pool has run dry.
    pub fn op_at(&self, domain: u64, k: u64, pool_base: usize) -> Option<Op> {
        if self.spec.workload == Workload::EnrollChurn && is_enroll_slot(k) {
            return self.enroll_op(pool_base + (k / (ENROLL_EVERY + 1)) as usize);
        }
        Some(self.read_op(domain, k))
    }

    /// Enrolls among the first `n` ops of an interleaved phase.
    pub fn enrolls_in(&self, n: u64) -> usize {
        if self.spec.workload == Workload::EnrollChurn {
            (n / (ENROLL_EVERY + 1)) as usize
        } else {
            0
        }
    }

    /// The nonce of a fresh verify's twin: the same device under a nonce
    /// the service has not answered yet. The layer walk times the
    /// in-process path on the twin, so the wire path still takes the
    /// cache-miss route for the original request.
    pub fn twin_nonce(&self, nonce: u64) -> u64 {
        mix_seed(nonce, TWIN_DOMAIN)
    }
}

/// Whether slot `k` of an interleaved churn phase is an enroll.
fn is_enroll_slot(k: u64) -> bool {
    k % (ENROLL_EVERY + 1) == ENROLL_EVERY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_in_the_seed() {
        let spec = Spec::new(Workload::EnrollChurn, 2.0, true);
        let a = Stream::new(&spec, 7);
        let b = Stream::new(&spec, 7);
        let c = Stream::new(&spec, 8);
        for k in 0..600 {
            assert_eq!(a.op_at(domain::OPEN, k, 0), b.op_at(domain::OPEN, k, 0));
        }
        assert_ne!(
            (0..64)
                .map(|k| a.read_op(domain::OPEN, k))
                .collect::<Vec<_>>(),
            (0..64)
                .map(|k| c.read_op(domain::OPEN, k))
                .collect::<Vec<_>>(),
        );
        assert_eq!(a.enrolls_in(512), 2);
        assert!(matches!(
            a.op_at(domain::OPEN, 255, 0),
            Some(Op::Enroll { .. })
        ));
    }

    #[test]
    fn pool_is_a_permutation_of_never_enrolled_devices() {
        let spec = Spec::new(Workload::EnrollChurn, 2.0, true);
        let s = Stream::new(&spec, 3);
        let mut devices: Vec<usize> = (0..spec.pool).map(|i| s.pool_device(i).unwrap()).collect();
        devices.sort_unstable();
        assert_eq!(
            devices,
            (spec.enrolled..spec.enrolled + spec.pool).collect::<Vec<_>>()
        );
        assert!(s.pool_device(spec.pool).is_none());
    }

    #[test]
    fn intake_fleet_plants_counterfeits_and_taps_among_eval_boards() {
        let spec = Spec::new(Workload::IntakeScan, 2.0, false);
        let cfg = spec.sim_config();
        assert_eq!(cfg.devices, 1024);
        let counterfeit = cfg
            .anomalies
            .iter()
            .filter(|(_, a)| *a == Anomaly::Counterfeit)
            .count();
        assert_eq!(counterfeit, spec.eval / 16);
        assert_eq!(cfg.anomalies.len() - counterfeit, spec.eval / 32);
        assert!(cfg.anomalies.iter().all(|(d, _)| *d >= spec.cohort));
    }
}
