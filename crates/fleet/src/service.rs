//! The concurrent attestation service: bounded admission, worker pool,
//! deadlines, retry.
//!
//! Request lifecycle:
//!
//! ```text
//! client ──try_push──▶ [bounded queue] ──pop──▶ worker ──▶ reply channel
//!            │                                   │
//!            └─ full → FleetError::Overloaded    ├─ deadline expired →
//!               (typed shed, never buffered)     │    FleetError::DeadlineExceeded
//!                                                └─ transient acquisition fault →
//!                                                     retry with jittered backoff
//! ```
//!
//! Backpressure is enforced at *admission*: when the queue holds
//! `queue_capacity` jobs, `submit` fails immediately with a typed
//! [`FleetError::Overloaded`] instead of queueing — overload degrades
//! into explicit sheds at constant memory, and the latency of accepted
//! requests stays bounded by `queue_capacity / throughput` instead of
//! collapsing under an unbounded backlog.
//!
//! Scheduling never touches results: verdicts are a pure function of
//! `(fleet seed, device, nonce)` (see [`crate::sim`]), so any worker
//! count yields bitwise-identical responses.
//!
//! That purity also powers the verify fast path: workers and the
//! reactor share one striped verdict cache (see [`crate::cache`]), so a
//! repeat verify of the same `(device, nonce)` under the same
//! enrollment generation is answered without running the acquisition
//! engine at all — and the cached bytes are identical to a fresh
//! computation, so memoization is invisible to the determinism contract.

use crate::cache::{VerdictCache, VerdictKey, VerdictKind};
use crate::error::{FleetError, ShedReason};
use crate::sim::SimulatedFleet;
use crate::store::FleetStore;
use divot_cohort::{CohortConfig, PopulationModel, Verdict};
use divot_core::auth::{AuthPolicy, Authenticator};
use divot_core::exec::ExecPolicy;
use divot_core::tamper::{TamperDetector, TamperPolicy};
use divot_dsp::rng::{mix_seed, DivotRng};
use divot_telemetry::{MetricSnapshot, TraceCtx, Value};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A request to the fleet service. Every variant names its device by
/// string id; `nonce` seeds the request's acquisition noise stream
/// (a fresh nonce per request models a fresh physical measurement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Enroll (or re-enroll) a device: measure both bus ends and store
    /// the pairing.
    Enroll {
        /// Device id.
        device: String,
        /// Enrollment noise stream selector.
        nonce: u64,
    },
    /// Authenticate a device against its stored fingerprint.
    Verify {
        /// Device id.
        device: String,
        /// Acquisition noise stream selector.
        nonce: u64,
    },
    /// Tamper-scan a device: compare a fresh acquisition against the
    /// stored fingerprint and report threshold crossings.
    MonitorScan {
        /// Device id.
        device: String,
        /// Acquisition noise stream selector.
        nonce: u64,
    },
    /// Learn (or relearn) the golden-free population model from an
    /// intake cohort: acquire one averaged fingerprint per `(device,
    /// nonce)` row, cluster out off-population boards, and fit the
    /// robust per-segment statistics subsequent
    /// [`Request::IntakeScan`]s attest against. All-or-nothing: one
    /// unknown device fails the batch before anything is acquired.
    CohortEnroll {
        /// `(device id, acquisition nonce)` rows forming the cohort.
        devices: Vec<(String, u64)>,
    },
    /// Attest unknown boards against the learned population model —
    /// supply-chain intake with no per-device enrollment. Each row is
    /// acquired exactly like a solo acquisition with that nonce and
    /// scored independently, so verdicts are bitwise-identical across
    /// worker layouts and batch splits.
    IntakeScan {
        /// `(device id, acquisition nonce)` rows to attest, in order.
        devices: Vec<(String, u64)>,
    },
    /// List every enrolled device and its shard.
    RegistrySnapshot,
    /// Export the service's operational stats: queue depth, telemetry
    /// counters/gauges, and per-kind latency quantiles. Served without
    /// running the acquisition engine; the reactor transport answers it
    /// inline without touching the worker pool.
    Stats,
}

impl Request {
    /// Short label of the request kind (telemetry metric names).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Enroll { .. } => "enroll",
            Self::Verify { .. } => "verify",
            Self::MonitorScan { .. } => "scan",
            Self::CohortEnroll { .. } => "cohort_enroll",
            Self::IntakeScan { .. } => "intake_scan",
            Self::RegistrySnapshot => "snapshot",
            Self::Stats => "stats",
        }
    }

    /// The per-kind latency histogram name, as a static string — the
    /// worker hot loop records one observation per request, and a
    /// `format!` there was measurable allocation churn under load.
    pub fn latency_metric(&self) -> &'static str {
        match self {
            Self::Enroll { .. } => "fleet.request.latency.enroll",
            Self::Verify { .. } => "fleet.request.latency.verify",
            Self::MonitorScan { .. } => "fleet.request.latency.scan",
            Self::CohortEnroll { .. } => "fleet.request.latency.cohort_enroll",
            Self::IntakeScan { .. } => "fleet.request.latency.intake_scan",
            Self::RegistrySnapshot => "fleet.request.latency.snapshot",
            Self::Stats => "fleet.request.latency.stats",
        }
    }

    /// The deterministic trace-sampling seed: an FNV-1a hash of the
    /// device identity folded with the request nonce. The same request
    /// hashes to the same seed on the client, the reactor, and the
    /// worker, so every layer independently reaches the same sampling
    /// decision without threading a context through the wire protocol.
    /// `None` for kinds with no acquisition identity (snapshot, stats).
    fn trace_seed(&self) -> Option<u64> {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let fnv = |name: &str| {
            let mut h = OFFSET;
            for &b in name.as_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            h
        };
        match self {
            Self::Enroll { device, nonce }
            | Self::Verify { device, nonce }
            | Self::MonitorScan { device, nonce } => Some(fnv(device) ^ nonce),
            Self::CohortEnroll { devices } | Self::IntakeScan { devices } => {
                devices.first().map(|(device, nonce)| fnv(device) ^ nonce)
            }
            Self::RegistrySnapshot | Self::Stats => None,
        }
    }

    /// This request's trace context: `Some` only when a tracer is
    /// installed ([`divot_telemetry::install_tracer`]) and the request's
    /// seed lands in the deterministic 1-in-N sample.
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        TraceCtx::sample(self.trace_seed()?)
    }
}

/// A successful response from the fleet service.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The device is enrolled and its pairing persisted in the store.
    Enrolled {
        /// Device id.
        device: String,
        /// The shard the pairing landed on.
        shard: u32,
    },
    /// The outcome of a verify.
    Verdict {
        /// Device id.
        device: String,
        /// Whether the measured IIP matched the enrolled fingerprint.
        accepted: bool,
        /// The similarity score behind the decision.
        similarity: f64,
    },
    /// The outcome of a tamper scan.
    Scan {
        /// Device id.
        device: String,
        /// Whether any error sample exceeded the tamper threshold.
        detected: bool,
        /// Largest error observed (noise-floor reading when clean).
        max_error: f64,
        /// Estimated tamper distance from the instrumented end, meters.
        location_m: Option<f64>,
    },
    /// A [`Request::CohortEnroll`] learned (and installed) a population
    /// model.
    CohortModel {
        /// Boards the model was fitted on (the genuine cluster).
        cohort_size: u32,
        /// Boards excluded as outlier clusters.
        excluded: u32,
        /// Fingerprint segments per board.
        segments: u32,
    },
    /// Per-board verdicts of a [`Request::IntakeScan`], in request
    /// order.
    Intake {
        /// One report per scanned board.
        reports: Vec<IntakeReport>,
    },
    /// The registry listing.
    Snapshot {
        /// `(device, shard)` rows, sorted by device name.
        devices: Vec<(String, u32)>,
    },
    /// The service's operational stats (see [`FleetStats`]).
    StatsSnapshot {
        /// The exported snapshot.
        stats: FleetStats,
    },
}

/// One board's intake-scan outcome: the typed verdict plus the compact
/// evidence an operator needs to route the board (full per-segment z
/// profiles stay on the service; the wire carries this summary).
#[derive(Debug, Clone, PartialEq)]
pub struct IntakeReport {
    /// Device id of the scanned board.
    pub device: String,
    /// The population verdict.
    pub verdict: Verdict,
    /// Scalar genuineness score (the ROC axis — higher is more
    /// genuine).
    pub score: f64,
    /// Mean-removed cosine similarity to the population centroid.
    pub similarity: f64,
    /// Largest per-segment robust z-score.
    pub max_z: f64,
    /// Segments whose z exceeded the configured deviance threshold.
    pub deviant_segments: u32,
    /// Segment index of the largest z — where to inspect the board.
    pub worst_segment: u32,
}

/// A point-in-time export of the service's operational state: what
/// [`Request::Stats`] returns and what `fleet_top` renders. Metric rows
/// come from the installed telemetry default's registry in lexicographic
/// name order; with no telemetry installed the rows are empty but the
/// queue fields still report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetStats {
    /// Jobs currently waiting in the admission queue.
    pub queue_depth: u32,
    /// The admission queue's capacity (sheds begin at this depth).
    pub queue_capacity: u32,
    /// `(name, count)` counter rows, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge rows, name-ordered.
    pub gauges: Vec<(String, f64)>,
    /// `(name, count, p50, p90, p99)` histogram rows, name-ordered.
    /// Quantiles are bucket-interpolated estimates
    /// ([`divot_telemetry::HistogramSnapshot::quantile`]); an empty
    /// histogram reports zeros.
    pub histograms: Vec<(String, u64, f64, f64, f64)>,
}

impl FleetStats {
    /// The `(count, p50, p90, p99)` row of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<(u64, f64, f64, f64)> {
        self.histograms
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, count, p50, p90, p99)| (count, p50, p90, p99))
    }

    /// The value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Retry policy for transient simulated-acquisition faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Probability that one acquisition attempt faults transiently
    /// (EMI burst, trigger glitch). `0.0` disables fault injection.
    pub failure_prob: f64,
    /// Total attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Base backoff before the second attempt; attempt `k` waits
    /// `base_backoff · 2^(k-1) · (1 + jitter)`.
    pub base_backoff: Duration,
    /// Maximum relative jitter added to each backoff (deterministic per
    /// request — see [`SimulatedFleet::transient_fault`]'s seeding).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            failure_prob: 0.0,
            max_attempts: 3,
            base_backoff: Duration::from_micros(50),
            jitter: 0.5,
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads; `0` means [`divot_dsp::par::max_threads`].
    pub workers: usize,
    /// Admission queue capacity: submissions beyond this are shed.
    pub queue_capacity: usize,
    /// Deadline applied to [`FleetClient::call`] submissions.
    pub default_deadline: Duration,
    /// Store shard count.
    pub shards: usize,
    /// Authentication policy for verifies.
    pub auth: AuthPolicy,
    /// Tamper policy floor for monitor scans; enrollment raises each
    /// device's effective threshold above its measured clean noise floor.
    pub tamper: TamperPolicy,
    /// Safety margin between a device's clean noise floor and its
    /// effective tamper threshold (set at enrollment).
    pub tamper_margin: f64,
    /// Transient-fault retry policy.
    pub retry: RetryPolicy,
    /// Verdict-cache entries in total, spread over the cache's stripes.
    /// `0` disables verdict memoization entirely — the determinism
    /// suite uses that to A/B cached against uncached service runs.
    pub verdict_cache_capacity: usize,
    /// Population-model learning and intake-verdict thresholds.
    pub cohort: CohortConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 256,
            default_deadline: Duration::from_secs(30),
            shards: 8,
            // The operating point of the fast-instrument fleet sim
            // (see `FleetSimConfig::fast`): genuine ≥ 0.92, impostor
            // ≤ 0.85, so 0.89 splits the gap with margin on both sides.
            auth: AuthPolicy::with_threshold(0.89),
            tamper: TamperPolicy::default(),
            tamper_margin: 4.0,
            retry: RetryPolicy::default(),
            verdict_cache_capacity: 4096,
            cohort: CohortConfig::default(),
        }
    }
}

impl FleetConfig {
    /// The same configuration with an explicit worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The same configuration with an explicit queue capacity.
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// The same configuration with an explicit verdict-cache capacity
    /// in entries (`0` disables verdict memoization).
    pub fn with_verdict_cache_capacity(mut self, cap: usize) -> Self {
        self.verdict_cache_capacity = cap;
        self
    }
}

/// The outcome of one completed tagged submission.
#[derive(Debug)]
pub struct Completion {
    /// The token the submitter attached (reactor request bookkeeping).
    pub token: u64,
    /// The job's outcome, exactly as a blocking caller would see it.
    pub outcome: Result<Response, FleetError>,
}

/// A mailbox collecting [`Completion`]s of tagged submissions, with a
/// caller-supplied waker fired after every push — the bridge between
/// the synchronous worker pool and an event loop that must not block on
/// per-request channels. The reactor passes `poller.notify` as the
/// waker; workers push under a short mutex and the loop drains whole
/// batches per wakeup.
pub struct CompletionQueue {
    done: Mutex<Vec<Completion>>,
    waker: Box<dyn Fn() + Send + Sync>,
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.done.lock().map(|d| d.len()).unwrap_or(0);
        f.debug_struct("CompletionQueue")
            .field("ready", &n)
            .finish()
    }
}

impl CompletionQueue {
    /// A new queue whose `waker` runs (outside the lock) after each
    /// completion is pushed.
    pub fn new(waker: impl Fn() + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(Self {
            done: Mutex::new(Vec::new()),
            waker: Box::new(waker),
        })
    }

    /// Deliver one completion and fire the waker.
    pub fn push(&self, token: u64, outcome: Result<Response, FleetError>) {
        {
            let mut done = self.done.lock().expect("completion queue poisoned");
            done.push(Completion { token, outcome });
        }
        (self.waker)();
    }

    /// Move every ready completion into `out` (oldest first).
    pub fn drain_into(&self, out: &mut Vec<Completion>) {
        let mut done = self.done.lock().expect("completion queue poisoned");
        out.append(&mut done);
    }
}

/// Where a job's outcome goes.
enum Reply {
    /// A blocking caller waiting on a channel.
    Oneshot(mpsc::Sender<Result<Response, FleetError>>),
    /// An event loop draining a shared [`CompletionQueue`].
    Tagged {
        token: u64,
        queue: Arc<CompletionQueue>,
    },
}

impl Reply {
    fn deliver(self, outcome: Result<Response, FleetError>) {
        match self {
            // A disconnected receiver just means the caller gave up.
            Self::Oneshot(tx) => drop(tx.send(outcome)),
            Self::Tagged { token, queue } => queue.push(token, outcome),
        }
    }
}

/// One queued unit of work.
struct Job {
    request: Request,
    deadline: Instant,
    submitted: Instant,
    /// The request's sampled trace context, decided at admission
    /// (deterministically — see [`Request::trace_ctx`]); `None` for the
    /// unsampled majority.
    trace: Option<TraceCtx>,
    reply: Reply,
}

/// Queue state under the mutex.
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Shared state between clients and workers.
struct ServiceInner {
    config: FleetConfig,
    sim: SimulatedFleet,
    store: FleetStore,
    authenticator: Authenticator,
    /// Per-device tamper thresholds calibrated at enrollment (derived
    /// deterministically from the enrollment nonce, so any worker layout
    /// calibrates identical thresholds). Devices restored from persisted
    /// banks without re-enrollment fall back to the policy floor.
    thresholds: std::sync::RwLock<std::collections::HashMap<String, f64>>,
    /// The verdict cache every worker and the reactor's inline path
    /// read and fill.
    verdicts: VerdictCache<Response>,
    /// The golden-free population model intake scans attest against —
    /// installed (replaced whole) by [`Request::CohortEnroll`]. Scoring
    /// takes a clone of the `Arc` and drops the lock, so a model swap
    /// never blocks in-flight scans and every scan's verdicts come from
    /// exactly one model.
    cohort: std::sync::RwLock<Option<Arc<PopulationModel>>>,
    queue: Mutex<QueueState>,
    not_empty: Condvar,
}

impl ServiceInner {
    fn note_depth(&self, depth: usize) {
        divot_telemetry::set_gauge("fleet.queue.depth", depth as f64);
    }

    /// Admission: push or shed. Never blocks.
    fn submit(
        &self,
        request: Request,
        deadline: Instant,
    ) -> Result<mpsc::Receiver<Result<Response, FleetError>>, FleetError> {
        let (reply, rx) = mpsc::channel();
        self.submit_reply(request, deadline, Reply::Oneshot(reply))?;
        Ok(rx)
    }

    /// Admission with an arbitrary reply sink: push or shed, never
    /// blocks.
    fn submit_reply(
        &self,
        request: Request,
        deadline: Instant,
        reply: Reply,
    ) -> Result<(), FleetError> {
        // Sampling is decided outside the queue lock: a pure hash of
        // the request, cheap and contention-free.
        let trace = request.trace_ctx();
        {
            let mut q = self.queue.lock().expect("queue lock poisoned");
            if q.closed {
                return Err(FleetError::ShuttingDown);
            }
            if q.jobs.len() >= self.config.queue_capacity {
                divot_telemetry::inc("fleet.shed");
                return Err(FleetError::Overloaded {
                    depth: q.jobs.len(),
                    capacity: self.config.queue_capacity,
                    reason: ShedReason::QueueFull,
                });
            }
            q.jobs.push_back(Job {
                request,
                deadline,
                submitted: Instant::now(),
                trace,
                reply,
            });
            self.note_depth(q.jobs.len());
        }
        self.not_empty.notify_one();
        Ok(())
    }

    /// Batched admission under one queue-lock acquisition: each job is
    /// admitted or shed independently (the first shed does not poison
    /// the rest — later jobs still fail `QueueFull`, but the outcome
    /// vector is per-job). Workers are woken once per admitted batch.
    fn submit_batch(&self, jobs: Vec<(Request, Instant, Reply)>) -> Vec<Result<(), FleetError>> {
        let mut outcomes = Vec::with_capacity(jobs.len());
        let mut admitted = 0usize;
        {
            let mut q = self.queue.lock().expect("queue lock poisoned");
            for (request, deadline, reply) in jobs {
                if q.closed {
                    outcomes.push(Err(FleetError::ShuttingDown));
                    continue;
                }
                if q.jobs.len() >= self.config.queue_capacity {
                    divot_telemetry::inc("fleet.shed");
                    outcomes.push(Err(FleetError::Overloaded {
                        depth: q.jobs.len(),
                        capacity: self.config.queue_capacity,
                        reason: ShedReason::QueueFull,
                    }));
                    continue;
                }
                let trace = request.trace_ctx();
                q.jobs.push_back(Job {
                    request,
                    deadline,
                    submitted: Instant::now(),
                    trace,
                    reply,
                });
                admitted += 1;
                outcomes.push(Ok(()));
            }
            self.note_depth(q.jobs.len());
        }
        for _ in 0..admitted {
            self.not_empty.notify_one();
        }
        outcomes
    }

    /// Worker loop: drain jobs until the queue closes.
    fn work(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().expect("queue lock poisoned");
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        self.note_depth(q.jobs.len());
                        break Some(job);
                    }
                    if q.closed {
                        break None;
                    }
                    q = self.not_empty.wait(q).expect("queue lock poisoned");
                }
            };
            let Some(job) = job else { return };
            let wait = job.submitted.elapsed();
            if let Some(h) = divot_telemetry::histogram_with(
                "fleet.queue.wait_ns",
                divot_telemetry::Histogram::default_latency_ns,
            ) {
                h.observe(wait.as_nanos() as f64);
            }
            if let Some(ctx) = job.trace {
                ctx.record(job.request.kind(), "queue_wait", wait);
            }
            let outcome = if Instant::now() > job.deadline {
                divot_telemetry::inc("fleet.deadline_misses");
                Err(FleetError::DeadlineExceeded)
            } else {
                self.handle(&job.request, job.trace)
            };
            let total = job.submitted.elapsed();
            let elapsed = total.as_secs_f64();
            divot_telemetry::observe("fleet.request.latency", elapsed);
            divot_telemetry::observe(job.request.latency_metric(), elapsed);
            if let Some(ctx) = job.trace {
                ctx.record(job.request.kind(), "total", total);
            }
            job.reply.deliver(outcome);
        }
    }

    /// Acquire with the transient-fault retry loop: attempt, and on a
    /// deterministic fault roll sleep a jittered exponential backoff and
    /// try again up to `max_attempts`.
    fn acquire_with_retry(
        &self,
        device: &str,
        nonce: u64,
        trace: Option<TraceCtx>,
        kind: &'static str,
    ) -> Result<divot_dsp::waveform::Waveform, FleetError> {
        let retry = self.config.retry;
        let attempts = retry.max_attempts.max(1);
        for attempt in 0..attempts {
            if self
                .sim
                .transient_fault(device, nonce, attempt, retry.failure_prob)
            {
                divot_telemetry::inc("fleet.retries");
                if attempt + 1 < attempts {
                    std::thread::sleep(self.backoff(device, nonce, attempt));
                }
                continue;
            }
            return self
                .sim
                .acquire_traced(device, nonce, trace, kind)
                .ok_or_else(|| FleetError::UnknownDevice(device.to_owned()));
        }
        divot_telemetry::emit(
            "fleet.acquisition_failed",
            &[
                ("device", Value::from(device)),
                ("attempts", Value::from(u64::from(attempts))),
            ],
        );
        Err(FleetError::AcquisitionFailed { attempts })
    }

    /// Jittered exponential backoff before retrying `attempt`: the
    /// jitter fraction derives from `(device, nonce, attempt)`, with the
    /// device by its fleet index as in
    /// [`SimulatedFleet::transient_fault`], so the wait schedule is
    /// reproducible without being synchronized across requests (no
    /// thundering herd).
    fn backoff(&self, device: &str, nonce: u64, attempt: u32) -> Duration {
        let retry = self.config.retry;
        // Faults roll only for known devices, so the index is present.
        let index = self.sim.device_index(device).unwrap_or_default();
        let mut rng = DivotRng::derive(
            mix_seed(nonce, 0xB0FF_0000 | u64::from(attempt)),
            index as u64,
        );
        let jitter = 1.0 + retry.jitter.max(0.0) * rng.uniform();
        let exp = 1u32 << attempt.min(16);
        retry.base_backoff.mul_f64(f64::from(exp) * jitter)
    }

    /// The cache key of a memoizable request (verify or scan): `None`
    /// for kinds that are never memoized (enrolls mutate, intake boards
    /// are fresh, snapshots are cheap listings) and for devices the
    /// fleet does not know.
    fn verdict_key(&self, request: &Request) -> Option<VerdictKey> {
        let (kind, device, nonce) = match request {
            Request::Verify { device, nonce } => (VerdictKind::Verify, device, *nonce),
            Request::MonitorScan { device, nonce } => (VerdictKind::Scan, device, *nonce),
            Request::Enroll { .. }
            | Request::CohortEnroll { .. }
            | Request::IntakeScan { .. }
            | Request::RegistrySnapshot
            | Request::Stats => return None,
        };
        let index = self.sim.device_index(device)?;
        let shard = self.store.shard_of(device);
        Some(VerdictKey {
            kind,
            device: index as u32,
            shard: shard as u16,
            generation: self.store.shard_generation(shard),
            nonce,
        })
    }

    /// Outcome counters, incremented once per *served* response —
    /// cached and freshly computed verdicts count alike, so the
    /// accept/reject/detection totals always equal responses delivered.
    fn note_outcome(&self, response: &Response) {
        match response {
            Response::Enrolled { .. } => divot_telemetry::inc("fleet.enrolls"),
            Response::Verdict { accepted, .. } => divot_telemetry::inc(if *accepted {
                "fleet.verify.accepts"
            } else {
                "fleet.verify.rejects"
            }),
            Response::Scan { detected, .. } => {
                if *detected {
                    divot_telemetry::inc("fleet.scan.detections");
                }
            }
            Response::CohortModel { .. } => divot_telemetry::inc("fleet.cohort.model.rebuilds"),
            Response::Intake { reports } => {
                divot_telemetry::add("fleet.cohort.scans", reports.len() as u64);
                for report in reports {
                    divot_telemetry::inc(match report.verdict {
                        Verdict::Genuine => "fleet.cohort.verdict.genuine",
                        Verdict::Counterfeit => "fleet.cohort.verdict.counterfeit",
                        Verdict::Tampered => "fleet.cohort.verdict.tampered",
                        Verdict::Inconclusive => "fleet.cohort.verdict.inconclusive",
                    });
                }
            }
            Response::Snapshot { .. } | Response::StatsSnapshot { .. } => {}
        }
    }

    fn handle(&self, request: &Request, trace: Option<TraceCtx>) -> Result<Response, FleetError> {
        // Memoized fast path. The generation in the key is read before
        // the acquisition: a re-enrollment racing a verify can at worst
        // store the verdict under an already-orphaned generation (never
        // served again), exactly as if the verify had lost the race
        // without a cache.
        let key = self.verdict_key(request);
        if let Some(k) = &key {
            let span = trace.map(|c| c.span(request.kind(), "cache_lookup"));
            let hit = self.verdicts.get(k);
            drop(span);
            if let Some(response) = hit {
                self.note_outcome(&response);
                return Ok(response);
            }
            if self.verdicts.enabled() {
                divot_telemetry::inc("fleet.cache.misses");
            }
        }
        let outcome = self.compute(request, trace);
        if let Ok(response) = &outcome {
            self.note_outcome(response);
            if let Some(k) = key {
                self.verdicts.insert(k, response.clone());
            }
        }
        outcome
    }

    /// The `UnknownDevice` error of the first row of `devices` the
    /// fleet does not know (batch admission failure reporting).
    fn missing_device(&self, devices: &[(String, u64)]) -> FleetError {
        let missing = devices
            .iter()
            .find(|(name, _)| self.sim.device_index(name).is_none())
            .map_or_else(String::new, |(name, _)| name.clone());
        FleetError::UnknownDevice(missing)
    }

    /// Serve `request` from scratch (the cache-miss path).
    fn compute(&self, request: &Request, trace: Option<TraceCtx>) -> Result<Response, FleetError> {
        match request {
            Request::Enroll { device, nonce } => {
                let pairing = self
                    .sim
                    .enroll(device, *nonce)
                    .ok_or_else(|| FleetError::UnknownDevice(device.clone()))?;
                // Calibrate the device's tamper threshold against known-
                // clean acquisitions whose nonces derive from the enroll
                // nonce: the threshold is a pure function of the request.
                let cleans: Vec<_> = (1..=4)
                    .map(|k| {
                        self.sim
                            .acquire(device, mix_seed(*nonce, 0xCA11_B000 | k))
                            .expect("device exists: enrolled above")
                    })
                    .collect();
                let detector = TamperDetector::calibrated(
                    self.config.tamper,
                    pairing.master.iip(),
                    &cleans,
                    self.config.tamper_margin,
                );
                self.thresholds
                    .write()
                    .expect("threshold lock poisoned")
                    .insert(device.clone(), detector.policy().threshold);
                self.store.register(device, pairing);
                Ok(Response::Enrolled {
                    device: device.clone(),
                    shard: self.store.shard_of(device) as u32,
                })
            }
            Request::Verify { device, nonce } => {
                let measured = self.acquire_with_retry(device, *nonce, trace, "verify")?;
                let span = trace.map(|c| c.span("verify", "store_lock"));
                let decision = self
                    .store
                    .with_pairing(device, |p| self.authenticator.verify(&p.master, &measured))
                    .ok_or_else(|| FleetError::UnknownDevice(device.clone()))?;
                drop(span);
                Ok(Response::Verdict {
                    device: device.clone(),
                    accepted: decision.is_accept(),
                    similarity: decision.similarity(),
                })
            }
            Request::MonitorScan { device, nonce } => {
                let measured = self.acquire_with_retry(device, *nonce, trace, "scan")?;
                let threshold = self
                    .thresholds
                    .read()
                    .expect("threshold lock poisoned")
                    .get(device)
                    .copied()
                    .unwrap_or(self.config.tamper.threshold);
                let detector = TamperDetector::new(TamperPolicy {
                    threshold,
                    ..self.config.tamper
                });
                let span = trace.map(|c| c.span("scan", "store_lock"));
                let report = self
                    .store
                    .with_pairing(device, |p| detector.scan(p.master.iip(), &measured))
                    .ok_or_else(|| FleetError::UnknownDevice(device.clone()))?;
                drop(span);
                Ok(Response::Scan {
                    device: device.clone(),
                    detected: report.detected,
                    max_error: report.max_error,
                    location_m: report.location.map(|m| m.0),
                })
            }
            Request::CohortEnroll { devices } => {
                let policy = ExecPolicy::auto();
                let span = trace.map(|c| c.span("cohort_enroll", "acquire"));
                // All-or-nothing: an unknown device fails the batch
                // before anything is acquired.
                let fingerprints = self
                    .sim
                    .acquire_batch(devices, policy)
                    .ok_or_else(|| self.missing_device(devices))?;
                drop(span);
                let span = trace.map(|c| c.span("cohort_enroll", "learn"));
                let views: Vec<&[f64]> = fingerprints.iter().map(|w| w.samples()).collect();
                let model = PopulationModel::learn(&views, self.config.cohort)
                    .map_err(|e| FleetError::CohortRejected(e.to_string()))?;
                drop(span);
                let response = Response::CohortModel {
                    cohort_size: model.members().len() as u32,
                    excluded: model.excluded().len() as u32,
                    segments: model.segments() as u32,
                };
                *self.cohort.write().expect("cohort lock poisoned") = Some(Arc::new(model));
                Ok(response)
            }
            Request::IntakeScan { devices } => {
                // Clone the Arc and drop the lock before acquiring:
                // every verdict of this scan comes from exactly one
                // model, and a concurrent relearn never blocks on us.
                let model = self
                    .cohort
                    .read()
                    .expect("cohort lock poisoned")
                    .clone()
                    .ok_or(FleetError::NoCohortModel)?;
                let span = trace.map(|c| c.span("intake_scan", "acquire"));
                let fingerprints = self
                    .sim
                    .acquire_batch(devices, ExecPolicy::auto())
                    .ok_or_else(|| self.missing_device(devices))?;
                drop(span);
                let span = trace.map(|c| c.span("intake_scan", "score"));
                let reports = devices
                    .iter()
                    .zip(&fingerprints)
                    .map(|((name, _), w)| {
                        let (verdict, score) = model.attest(w.samples());
                        IntakeReport {
                            device: name.clone(),
                            verdict,
                            score: score.score,
                            similarity: score.similarity,
                            max_z: score.max_z,
                            deviant_segments: score.deviant_segments as u32,
                            worst_segment: score.worst_segment as u32,
                        }
                    })
                    .collect();
                drop(span);
                Ok(Response::Intake { reports })
            }
            Request::RegistrySnapshot => Ok(Response::Snapshot {
                devices: self
                    .store
                    .device_names()
                    .into_iter()
                    .map(|(n, s)| (n, s as u32))
                    .collect(),
            }),
            Request::Stats => Ok(Response::StatsSnapshot {
                stats: self.stats(),
            }),
        }
    }

    /// Build the operational-stats export: queue state from the service
    /// itself, metric rows from the installed telemetry default (empty
    /// rows when none is installed). Histogram quantiles are computed
    /// here, against a detached snapshot — the export never holds any
    /// hot-path lock while interpolating.
    fn stats(&self) -> FleetStats {
        let depth = self.queue.lock().expect("queue lock poisoned").jobs.len();
        let mut stats = FleetStats {
            queue_depth: depth as u32,
            queue_capacity: self.config.queue_capacity as u32,
            ..FleetStats::default()
        };
        if let Some(t) = divot_telemetry::global() {
            for (name, snap) in t.registry().snapshot() {
                match snap {
                    MetricSnapshot::Counter(v) => stats.counters.push((name, v)),
                    MetricSnapshot::Gauge(v) => stats.gauges.push((name, v)),
                    MetricSnapshot::Histogram(h) => {
                        let qs = h.quantiles(&[0.5, 0.9, 0.99]);
                        stats.histograms.push((
                            name,
                            h.count(),
                            qs[0].unwrap_or(0.0),
                            qs[1].unwrap_or(0.0),
                            qs[2].unwrap_or(0.0),
                        ));
                    }
                }
            }
        }
        stats
    }
}

/// A running fleet service: owns the worker pool; dropping it drains the
/// queue close signal and joins every worker.
pub struct FleetService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for FleetService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetService")
            .field("workers", &self.workers.len())
            .field("devices", &self.inner.sim.device_count())
            .field("queue_capacity", &self.inner.config.queue_capacity)
            .finish()
    }
}

impl FleetService {
    /// Start the service over a simulated fleet with a fresh store.
    pub fn start(config: FleetConfig, sim: SimulatedFleet) -> Self {
        let store = FleetStore::new(config.shards.max(1));
        Self::start_with_store(config, sim, store)
    }

    /// Start the service over a pre-loaded store (warm restart from
    /// persisted shard banks).
    pub fn start_with_store(config: FleetConfig, sim: SimulatedFleet, store: FleetStore) -> Self {
        let workers = if config.workers == 0 {
            divot_dsp::par::max_threads()
        } else {
            config.workers
        };
        let inner = Arc::new(ServiceInner {
            authenticator: Authenticator::new(config.auth),
            thresholds: std::sync::RwLock::new(std::collections::HashMap::new()),
            verdicts: VerdictCache::new(config.verdict_cache_capacity, store.shard_count()),
            cohort: std::sync::RwLock::new(None),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            config,
            sim,
            store,
        });
        divot_telemetry::set_gauge("fleet.workers", workers as f64);
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{i}"))
                    .spawn(move || inner.work())
                    .expect("spawn fleet worker")
            })
            .collect();
        Self {
            inner,
            workers: handles,
        }
    }

    /// Number of worker threads serving the queue.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// An in-process client handle (cheap to clone, usable from any
    /// thread).
    pub fn client(&self) -> FleetClient {
        FleetClient {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Persist the store's shard banks to `dir` (atomic per shard).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] on filesystem failures.
    pub fn persist(&self, dir: &std::path::Path) -> Result<usize, FleetError> {
        self.inner.store.persist(dir)
    }
}

impl Drop for FleetService {
    fn drop(&mut self) {
        {
            let mut q = self.inner.queue.lock().expect("queue lock poisoned");
            q.closed = true;
        }
        self.inner.not_empty.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// An in-process handle for submitting requests to a [`FleetService`].
///
/// The full enroll → verify round trip:
///
/// ```
/// use divot_fleet::{FleetConfig, FleetService, Request, Response};
/// use divot_fleet::sim::{FleetSimConfig, SimulatedFleet};
///
/// let service = FleetService::start(
///     FleetConfig::default().with_workers(1),
///     SimulatedFleet::new(FleetSimConfig::fast(1, 7)),
/// );
/// let client = service.client();
/// client.call(Request::Enroll { device: "bus-000".into(), nonce: 1 })?;
/// match client.call(Request::Verify { device: "bus-000".into(), nonce: 2 })? {
///     Response::Verdict { accepted, similarity, .. } => {
///         assert!(accepted, "genuine device must verify (s={similarity})");
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// # Ok::<(), divot_fleet::FleetError>(())
/// ```
#[derive(Clone)]
pub struct FleetClient {
    inner: Arc<ServiceInner>,
}

impl std::fmt::Debug for FleetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetClient")
            .field("devices", &self.inner.sim.device_count())
            .finish()
    }
}

impl FleetClient {
    /// Submit and wait, under the service's default deadline.
    ///
    /// # Errors
    ///
    /// Any [`FleetError`]: sheds ([`FleetError::Overloaded`]) surface
    /// immediately, other failures when the worker reports them.
    pub fn call(&self, request: Request) -> Result<Response, FleetError> {
        self.call_with_deadline(request, self.inner.config.default_deadline)
    }

    /// Submit and wait with an explicit deadline measured from now.
    ///
    /// # Errors
    ///
    /// Any [`FleetError`], including [`FleetError::DeadlineExceeded`]
    /// when the deadline lapses before a worker dequeues the request.
    pub fn call_with_deadline(
        &self,
        request: Request,
        deadline: Duration,
    ) -> Result<Response, FleetError> {
        let rx = self.inner.submit(request, Instant::now() + deadline)?;
        rx.recv().unwrap_or(Err(FleetError::ShuttingDown))
    }

    /// Submit without blocking: the outcome lands on `queue` under
    /// `token` once a worker finishes. The event-loop entry point — the
    /// reactor tags each wire request and keeps reading other
    /// connections while workers churn.
    ///
    /// # Errors
    ///
    /// Admission failures ([`FleetError::Overloaded`],
    /// [`FleetError::ShuttingDown`]) surface immediately; every other
    /// outcome is delivered through `queue`.
    pub fn submit_tagged(
        &self,
        request: Request,
        deadline: Duration,
        token: u64,
        queue: &Arc<CompletionQueue>,
    ) -> Result<(), FleetError> {
        self.inner.submit_reply(
            request,
            Instant::now() + deadline,
            Reply::Tagged {
                token,
                queue: Arc::clone(queue),
            },
        )
    }

    /// Batched [`submit_tagged`](Self::submit_tagged): one queue-lock
    /// acquisition admits (or sheds) every job, returning per-job
    /// outcomes in input order. Emits `fleet.reactor.batch_width`.
    pub fn submit_batch_tagged(
        &self,
        jobs: Vec<(Request, Duration, u64)>,
        queue: &Arc<CompletionQueue>,
    ) -> Vec<Result<(), FleetError>> {
        let now = Instant::now();
        divot_telemetry::observe("fleet.reactor.batch_width", jobs.len() as f64);
        let jobs = jobs
            .into_iter()
            .map(|(request, deadline, token)| {
                (
                    request,
                    now + deadline,
                    Reply::Tagged {
                        token,
                        queue: Arc::clone(queue),
                    },
                )
            })
            .collect();
        self.inner.submit_batch(jobs)
    }

    /// Serve `request` from the shared verdict cache without touching
    /// the worker pool: `Some` only for memoizable kinds
    /// (verify/scan) whose verdict is already cached under the device's
    /// current enrollment generation. The returned response is
    /// bit-for-bit what a worker would produce, and outcome counters
    /// advance exactly as for a worker-served response.
    pub fn try_cached(&self, request: &Request) -> Option<Response> {
        let key = self.inner.verdict_key(request)?;
        let response = self.inner.verdicts.get(&key)?;
        self.inner.note_outcome(&response);
        Some(response)
    }

    /// Build a [`FleetStats`] export directly, without a queue round
    /// trip — the reactor transport serves [`Request::Stats`] through
    /// this so a saturated worker pool can never delay an operator's
    /// health probe.
    pub fn stats(&self) -> FleetStats {
        self.inner.stats()
    }

    /// Whether `device` exists in the simulated fleet (cheap O(1) map
    /// probe — subscription registration validates against this).
    pub fn device_known(&self, device: &str) -> bool {
        self.inner.sim.device_index(device).is_some()
    }

    /// The deadline applied when a caller does not name one.
    pub fn default_deadline(&self) -> Duration {
        self.inner.config.default_deadline
    }

    /// The admission queue's capacity (shed-report context).
    pub fn queue_capacity(&self) -> usize {
        self.inner.config.queue_capacity
    }

    /// Current queue depth (diagnostics, load generators).
    pub fn queue_depth(&self) -> usize {
        self.inner
            .queue
            .lock()
            .expect("queue lock poisoned")
            .jobs
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::FleetSimConfig;

    fn service(devices: usize, workers: usize) -> FleetService {
        FleetService::start(
            FleetConfig::default().with_workers(workers),
            SimulatedFleet::new(FleetSimConfig::fast(devices, 7)),
        )
    }

    #[test]
    fn enroll_verify_scan_snapshot_lifecycle() {
        let svc = service(3, 2);
        let client = svc.client();
        for i in 0..3 {
            let device = SimulatedFleet::device_name(i);
            match client
                .call(Request::Enroll {
                    device: device.clone(),
                    nonce: 1,
                })
                .unwrap()
            {
                Response::Enrolled { device: d, .. } => assert_eq!(d, device),
                other => panic!("unexpected {other:?}"),
            }
        }
        match client
            .call(Request::Verify {
                device: "bus-001".into(),
                nonce: 50,
            })
            .unwrap()
        {
            Response::Verdict {
                accepted,
                similarity,
                ..
            } => {
                assert!(accepted, "genuine device must verify (s={similarity})");
            }
            other => panic!("unexpected {other:?}"),
        }
        match client
            .call(Request::MonitorScan {
                device: "bus-002".into(),
                nonce: 51,
            })
            .unwrap()
        {
            Response::Scan { detected, .. } => assert!(!detected, "clean bus must scan clean"),
            other => panic!("unexpected {other:?}"),
        }
        match client.call(Request::RegistrySnapshot).unwrap() {
            Response::Snapshot { devices } => {
                assert_eq!(devices.len(), 3);
                assert_eq!(devices[0].0, "bus-000");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn verify_before_enroll_is_unknown_device() {
        let svc = service(1, 1);
        let err = svc
            .client()
            .call(Request::Verify {
                device: "bus-000".into(),
                nonce: 0,
            })
            .unwrap_err();
        assert_eq!(err, FleetError::UnknownDevice("bus-000".into()));
        let err = svc
            .client()
            .call(Request::Enroll {
                device: "bus-777".into(),
                nonce: 0,
            })
            .unwrap_err();
        assert_eq!(err, FleetError::UnknownDevice("bus-777".into()));
    }

    #[test]
    fn overload_sheds_typed_rejections() {
        // One worker, tiny queue: a burst must shed rather than buffer.
        let svc = FleetService::start(
            FleetConfig::default()
                .with_workers(1)
                .with_queue_capacity(2),
            SimulatedFleet::new(FleetSimConfig::fast(1, 7)),
        );
        let client = svc.client();
        client
            .call(Request::Enroll {
                device: "bus-000".into(),
                nonce: 1,
            })
            .unwrap();
        // Saturate: submit far more than capacity without reading replies.
        let mut receivers = Vec::new();
        let mut sheds = 0;
        for nonce in 0..64 {
            match svc.inner.submit(
                Request::Verify {
                    device: "bus-000".into(),
                    nonce,
                },
                Instant::now() + Duration::from_secs(10),
            ) {
                Ok(rx) => receivers.push(rx),
                Err(FleetError::Overloaded {
                    depth,
                    capacity,
                    reason,
                }) => {
                    assert!(depth >= capacity, "shed below capacity");
                    assert_eq!(reason, ShedReason::QueueFull);
                    sheds += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(sheds > 0, "a 64-burst against capacity 2 must shed");
        // Accepted requests complete fine under pressure.
        for rx in receivers {
            match rx.recv().unwrap().unwrap() {
                Response::Verdict { accepted, .. } => assert!(accepted),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn expired_deadline_rejected_at_dequeue() {
        let svc = service(1, 1);
        let client = svc.client();
        client
            .call(Request::Enroll {
                device: "bus-000".into(),
                nonce: 1,
            })
            .unwrap();
        // A deadline already in the past must come back DeadlineExceeded.
        let err = client
            .call_with_deadline(
                Request::Verify {
                    device: "bus-000".into(),
                    nonce: 2,
                },
                Duration::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, FleetError::DeadlineExceeded);
    }

    #[test]
    fn transient_faults_retry_and_exhaust() {
        // Certain failure: every attempt faults, the budget exhausts.
        let mut config = FleetConfig::default().with_workers(1);
        config.retry = RetryPolicy {
            failure_prob: 1.0,
            max_attempts: 3,
            base_backoff: Duration::from_micros(10),
            jitter: 0.5,
        };
        let svc = FleetService::start(config, SimulatedFleet::new(FleetSimConfig::fast(1, 7)));
        let client = svc.client();
        client
            .call(Request::Enroll {
                device: "bus-000".into(),
                nonce: 1,
            })
            .unwrap();
        let err = client
            .call(Request::Verify {
                device: "bus-000".into(),
                nonce: 9,
            })
            .unwrap_err();
        assert_eq!(err, FleetError::AcquisitionFailed { attempts: 3 });

        // Moderate fault rate: retries absorb the faults, verdicts land.
        let mut config = FleetConfig::default().with_workers(2);
        config.retry = RetryPolicy {
            failure_prob: 0.3,
            max_attempts: 6,
            base_backoff: Duration::from_micros(10),
            jitter: 0.5,
        };
        let svc = FleetService::start(config, SimulatedFleet::new(FleetSimConfig::fast(1, 7)));
        let client = svc.client();
        client
            .call(Request::Enroll {
                device: "bus-000".into(),
                nonce: 1,
            })
            .unwrap();
        for nonce in 0..16 {
            match client.call(Request::Verify {
                device: "bus-000".into(),
                nonce,
            }) {
                Ok(Response::Verdict { accepted, .. }) => assert!(accepted),
                Ok(other) => panic!("unexpected {other:?}"),
                Err(e) => panic!("retry should have absorbed faults: {e}"),
            }
        }
    }

    #[test]
    fn same_length_device_names_back_off_apart() {
        let svc = service(3, 1);
        let (a, b) = (
            SimulatedFleet::device_name(1),
            SimulatedFleet::device_name(2),
        );
        assert_eq!(a.len(), b.len());
        for attempt in 0..3 {
            let wait = |device: &str| svc.inner.backoff(device, 5, attempt);
            assert_ne!(wait(&a), wait(&b), "attempt {attempt} waits in lockstep");
            assert_eq!(wait(&a), wait(&a), "the schedule is reproducible");
        }
    }

    #[test]
    fn repeat_requests_are_served_from_the_verdict_cache_identically() {
        let svc = service(2, 2);
        let client = svc.client();
        for i in 0..2 {
            client
                .call(Request::Enroll {
                    device: SimulatedFleet::device_name(i),
                    nonce: 1,
                })
                .unwrap();
        }
        let verify = Request::Verify {
            device: "bus-000".into(),
            nonce: 77,
        };
        let scan = Request::MonitorScan {
            device: "bus-001".into(),
            nonce: 78,
        };
        let first = (
            client.call(verify.clone()).unwrap(),
            client.call(scan.clone()).unwrap(),
        );
        assert!(svc.inner.verdicts.len() >= 2, "verdicts memoized");
        for _ in 0..3 {
            assert_eq!(client.call(verify.clone()).unwrap(), first.0);
            assert_eq!(client.call(scan.clone()).unwrap(), first.1);
        }
    }

    #[test]
    fn re_enrollment_invalidates_cached_verdicts() {
        let svc = service(1, 1);
        let client = svc.client();
        let enroll = |nonce| {
            client
                .call(Request::Enroll {
                    device: "bus-000".into(),
                    nonce,
                })
                .unwrap()
        };
        let verify = || match client
            .call(Request::Verify {
                device: "bus-000".into(),
                nonce: 500,
            })
            .unwrap()
        {
            Response::Verdict { similarity, .. } => similarity,
            other => panic!("unexpected {other:?}"),
        };
        enroll(1);
        let before = verify();
        assert_eq!(verify(), before, "repeat under the same pairing");
        // Re-enroll with a fresh nonce: a different stored fingerprint,
        // so the same verify request must be recomputed, not replayed.
        enroll(2);
        let after = verify();
        assert_ne!(
            before, after,
            "verify must reflect the new pairing, not a stale cache entry"
        );
    }

    #[test]
    fn disabled_cache_still_serves_identical_verdicts() {
        let svc = FleetService::start(
            FleetConfig::default()
                .with_workers(1)
                .with_verdict_cache_capacity(0),
            SimulatedFleet::new(FleetSimConfig::fast(1, 7)),
        );
        let client = svc.client();
        client
            .call(Request::Enroll {
                device: "bus-000".into(),
                nonce: 1,
            })
            .unwrap();
        let verify = Request::Verify {
            device: "bus-000".into(),
            nonce: 9,
        };
        let a = client.call(verify.clone()).unwrap();
        let b = client.call(verify).unwrap();
        assert_eq!(a, b);
        assert_eq!(svc.inner.verdicts.len(), 0, "capacity 0 memoizes nothing");
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let svc = service(1, 1);
        let client = svc.client();
        drop(svc);
        let err = client.call(Request::RegistrySnapshot).unwrap_err();
        assert_eq!(err, FleetError::ShuttingDown);
    }

    #[test]
    fn concurrent_clients_all_complete() {
        let svc = service(4, 4);
        let client = svc.client();
        for i in 0..4 {
            client
                .call(Request::Enroll {
                    device: SimulatedFleet::device_name(i),
                    nonce: 1,
                })
                .unwrap();
        }
        let results: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..16)
                .map(|t| {
                    let client = client.clone();
                    scope.spawn(move || {
                        let device = SimulatedFleet::device_name(t % 4);
                        match client
                            .call(Request::Verify {
                                device,
                                nonce: 1000 + t as u64,
                            })
                            .unwrap()
                        {
                            Response::Verdict { accepted, .. } => accepted,
                            other => panic!("unexpected {other:?}"),
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|&a| a), "all genuine verifies accept");
    }

    #[test]
    fn tagged_submissions_match_blocking_calls_bitwise() {
        let svc = service(2, 2);
        let client = svc.client();
        for i in 0..2 {
            client
                .call(Request::Enroll {
                    device: SimulatedFleet::device_name(i),
                    nonce: 1,
                })
                .unwrap();
        }
        let woken = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let woken2 = Arc::clone(&woken);
        let queue = CompletionQueue::new(move || {
            woken2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        let jobs: Vec<(Request, Duration, u64)> = (0..8)
            .map(|t| {
                (
                    Request::Verify {
                        device: SimulatedFleet::device_name(t % 2),
                        nonce: 9000 + t as u64,
                    },
                    Duration::from_secs(10),
                    t as u64,
                )
            })
            .collect();
        let blocking: Vec<Response> = jobs
            .iter()
            .map(|(r, _, _)| client.call(r.clone()).unwrap())
            .collect();
        let outcomes = client.submit_batch_tagged(jobs, &queue);
        assert!(outcomes.iter().all(Result::is_ok));
        let mut done = Vec::new();
        while done.len() < 8 {
            queue.drain_into(&mut done);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            woken.load(std::sync::atomic::Ordering::Relaxed) >= 1,
            "waker must fire"
        );
        done.sort_by_key(|c| c.token);
        for c in &done {
            assert_eq!(
                c.outcome.as_ref().unwrap(),
                &blocking[c.token as usize],
                "tagged outcome must be bitwise the blocking outcome"
            );
        }
    }

    #[test]
    fn try_cached_serves_only_warm_verdicts_identically() {
        let svc = service(1, 1);
        let client = svc.client();
        client
            .call(Request::Enroll {
                device: "bus-000".into(),
                nonce: 1,
            })
            .unwrap();
        let verify = Request::Verify {
            device: "bus-000".into(),
            nonce: 321,
        };
        assert_eq!(client.try_cached(&verify), None, "cold: not cached yet");
        let served = client.call(verify.clone()).unwrap();
        assert_eq!(
            client.try_cached(&verify),
            Some(served),
            "warm: inline serve must be the identical response"
        );
        assert_eq!(client.try_cached(&Request::RegistrySnapshot), None);
        assert_eq!(
            client.try_cached(&Request::Enroll {
                device: "bus-000".into(),
                nonce: 2
            }),
            None,
            "enrolls are never memoized"
        );
    }

    fn intake_fleet(workers: usize) -> FleetService {
        use crate::sim::Anomaly;
        use divot_txline::attack::Attack;
        // 20 devices; the last two carry supply-chain anomalies the
        // population model has never seen a reference for.
        let sim = FleetSimConfig::fast(20, 7).with_anomalies(vec![
            (18, Anomaly::Counterfeit),
            (19, Anomaly::Tampered(Attack::paper_wiretap())),
        ]);
        FleetService::start(
            FleetConfig::default().with_workers(workers),
            SimulatedFleet::new(sim),
        )
    }

    fn cohort_rows(range: std::ops::Range<usize>, nonce: u64) -> Vec<(String, u64)> {
        range
            .map(|i| (SimulatedFleet::device_name(i), nonce))
            .collect()
    }

    #[test]
    fn intake_scan_before_enroll_has_no_model() {
        let svc = service(2, 1);
        let err = svc
            .client()
            .call(Request::IntakeScan {
                devices: cohort_rows(0..2, 1),
            })
            .unwrap_err();
        assert_eq!(err, FleetError::NoCohortModel);
    }

    #[test]
    fn undersized_cohort_is_rejected_without_installing_a_model() {
        let svc = service(4, 1);
        let client = svc.client();
        let err = client
            .call(Request::CohortEnroll {
                devices: cohort_rows(0..4, 1),
            })
            .unwrap_err();
        assert!(matches!(err, FleetError::CohortRejected(_)), "got {err:?}");
        // The failed enroll must not have half-installed anything.
        let err = client
            .call(Request::IntakeScan {
                devices: cohort_rows(0..1, 2),
            })
            .unwrap_err();
        assert_eq!(err, FleetError::NoCohortModel);
    }

    #[test]
    fn cohort_enroll_with_unknown_device_learns_nothing() {
        let svc = service(8, 1);
        let client = svc.client();
        let mut rows = cohort_rows(0..8, 1);
        rows.push(("bus-999".into(), 1));
        let err = client
            .call(Request::CohortEnroll { devices: rows })
            .unwrap_err();
        assert_eq!(err, FleetError::UnknownDevice("bus-999".into()));
        let err = client
            .call(Request::IntakeScan {
                devices: cohort_rows(0..1, 2),
            })
            .unwrap_err();
        assert_eq!(err, FleetError::NoCohortModel);
    }

    #[test]
    fn intake_lifecycle_flags_planted_anomalies() {
        let svc = intake_fleet(2);
        let client = svc.client();
        // Learn the population from the 18 genuine boards.
        match client
            .call(Request::CohortEnroll {
                devices: cohort_rows(0..18, 11),
            })
            .unwrap()
        {
            Response::CohortModel {
                cohort_size,
                excluded,
                segments,
            } => {
                assert!(cohort_size >= 8, "cohort collapsed to {cohort_size}");
                assert_eq!(cohort_size + excluded, 18);
                assert!(segments > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Intake-scan everything, planted anomalies included.
        let reports = match client
            .call(Request::IntakeScan {
                devices: cohort_rows(0..20, 400),
            })
            .unwrap()
        {
            Response::Intake { reports } => reports,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(reports.len(), 20, "one report per request row");
        let mut genuine_scores = Vec::new();
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.device, SimulatedFleet::device_name(i), "request order");
            if i < 18 {
                assert!(
                    !matches!(r.verdict, Verdict::Counterfeit | Verdict::Tampered),
                    "genuine {} misflagged: {:?} (score {})",
                    r.device,
                    r.verdict,
                    r.score
                );
                genuine_scores.push(r.score);
            }
        }
        // The wire tap deviates far beyond fabrication spread: it must
        // be flagged outright, below every genuine board's score.
        let tap = &reports[19];
        assert!(
            matches!(tap.verdict, Verdict::Counterfeit | Verdict::Tampered),
            "wire tap not flagged: {:?} (score {})",
            tap.verdict,
            tap.score
        );
        let worst_genuine = genuine_scores.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            tap.score < worst_genuine,
            "{} vs {worst_genuine}",
            tap.score
        );
        // A drifted-lot counterfeit overlaps the genuine spread at this
        // cohort size (18 boards), so assert score ordering, not class:
        // it must still rank below the typical genuine board.
        genuine_scores.sort_by(f64::total_cmp);
        let median_genuine = genuine_scores[genuine_scores.len() / 2];
        let fake = &reports[18];
        assert!(
            fake.score < median_genuine,
            "counterfeit must rank below the genuine median ({} vs {median_genuine})",
            fake.score
        );
    }

    #[test]
    fn intake_verdicts_are_bitwise_identical_across_workers_and_batching() {
        let enroll = Request::CohortEnroll {
            devices: cohort_rows(0..18, 11),
        };
        let whole = Request::IntakeScan {
            devices: cohort_rows(0..20, 400),
        };
        let mut baseline: Option<Vec<IntakeReport>> = None;
        for workers in [1usize, 2, 8] {
            let svc = intake_fleet(workers);
            let client = svc.client();
            client.call(enroll.clone()).unwrap();
            let reports = match client.call(whole.clone()).unwrap() {
                Response::Intake { reports } => reports,
                other => panic!("unexpected {other:?}"),
            };
            // Splitting the scan into per-device requests must not move
            // a single bit of any score.
            let mut split = Vec::new();
            for row in cohort_rows(0..20, 400) {
                match client
                    .call(Request::IntakeScan { devices: vec![row] })
                    .unwrap()
                {
                    Response::Intake { reports } => split.extend(reports),
                    other => panic!("unexpected {other:?}"),
                }
            }
            for (a, b) in reports.iter().zip(&split) {
                assert_eq!(a.device, b.device);
                assert_eq!(a.verdict, b.verdict);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.similarity.to_bits(), b.similarity.to_bits());
                assert_eq!(a.max_z.to_bits(), b.max_z.to_bits());
            }
            match &baseline {
                None => baseline = Some(reports),
                Some(base) => {
                    for (a, b) in base.iter().zip(&reports) {
                        assert_eq!(a, b, "{workers} workers changed a verdict");
                        assert_eq!(a.score.to_bits(), b.score.to_bits());
                    }
                }
            }
        }
    }
}
