//! The live service and the load it is put under: setup over the wire,
//! closed-loop windows, and a fixed-rate open loop.
//!
//! The generator uses at most two threads (closed loop: one thread
//! polling both connections; open loop: a sender keeping the schedule
//! and a receiver) and two connections.

use crate::conn::{connect, decode_reply, Receiver, Reply, Sender};
use crate::heap;
use crate::hist::LogHistogram;
use crate::oracle::{named_rows, Reservoir, Sample};
use crate::workload::{Op, Spec, Stream, Workload, ENROLL_EVERY};
use divot_fleet::{
    FleetConfig, FleetError, FleetService, FleetStats, FleetStore, FleetTcpServer, Request,
    Response, SimulatedFleet,
};
use divot_polling::{Event, Poller};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Requests each setup step keeps in flight on connection A.
const SETUP_WINDOW: usize = 8;
/// A loop that sees no reply for this long has stalled.
const STALL: Duration = Duration::from_secs(30);

/// Ops attempted and how they failed, across every phase of a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops sent (an intake board counts as one op).
    pub attempted: u64,
    /// Ops refused with a typed `Overloaded` shed.
    pub sheds: u64,
    /// Ops answered with any other error, or never answered.
    pub errors: u64,
    /// Replies that disagree with the oracle.
    pub mismatches: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Ops that failed for any reason.
    pub fn failed(&self) -> u64 {
        self.sheds + self.errors + self.mismatches
    }

    /// Record a failure description (the first eight are kept).
    pub fn note(&mut self, what: impl Into<String>) {
        if self.notes.len() < 8 {
            self.notes.push(what.into());
        }
    }
}

/// Validates replies as they arrive and feeds the oracle reservoir.
#[derive(Debug)]
pub struct Checker {
    /// Sampled replies for the end-of-run oracle.
    pub reservoir: Reservoir,
    /// The replay set's primed `(accepted, similarity bits)` replies.
    primed: Vec<Option<(bool, u64)>>,
    /// Shard placement of the live store (same shard count).
    shards: FleetStore,
    /// The `CohortModel` reply of the last setup.
    pub cohort: Option<Response>,
}

impl Checker {
    /// A checker for `spec`.
    pub fn new(spec: &Spec) -> Self {
        Self {
            reservoir: Reservoir::new(spec.reservoir),
            primed: vec![None; spec.replay_pairs],
            shards: FleetStore::new(FleetConfig::default().shards),
            cohort: None,
        }
    }

    /// Check one reply to `op`; returns whether it counts as a success.
    /// A replay must repeat its primed reply bit for bit; everything
    /// else is offered to the reservoir for the end-of-run oracle.
    pub fn check(
        &mut self,
        op: &Op,
        outcome: Result<Response, FleetError>,
        tally: &mut Tally,
    ) -> bool {
        let response = match outcome {
            Ok(r) => r,
            Err(FleetError::Overloaded { reason, .. }) => {
                tally.sheds += op.weight();
                tally.note(format!("shed ({reason:?})"));
                return false;
            }
            Err(e) => {
                tally.errors += op.weight();
                tally.note(format!("error: {e}"));
                return false;
            }
        };
        let name = SimulatedFleet::device_name;
        let ok = match (op, &response) {
            (
                &Op::Verify {
                    device,
                    nonce,
                    pair,
                },
                &Response::Verdict {
                    device: ref got,
                    accepted,
                    similarity,
                },
            ) if *got == name(device) => {
                let reply = (accepted, similarity.to_bits());
                let slot = pair.map(|j| &mut self.primed[j]);
                if let Some(Some(primed)) = slot {
                    *primed == reply
                } else {
                    if let Some(slot) = slot {
                        *slot = Some(reply);
                    }
                    self.reservoir.offer(Sample::Verdict {
                        device,
                        nonce,
                        accepted,
                        similarity,
                    });
                    true
                }
            }
            (Op::Enroll { device, .. }, Response::Enrolled { device: got, shard }) => {
                *got == name(*device) && *shard as usize == self.shards.shard_of(got)
            }
            (Op::Intake { rows }, Response::Intake { reports }) => {
                let same_rows = rows.len() == reports.len()
                    && rows
                        .iter()
                        .zip(reports)
                        .all(|(r, rep)| rep.device == name(r.0));
                if same_rows {
                    for (&(device, nonce), report) in rows.iter().zip(reports) {
                        self.reservoir.offer(Sample::Board {
                            device,
                            nonce,
                            report: report.clone(),
                        });
                    }
                }
                same_rows
            }
            _ => false,
        };
        if !ok {
            tally.mismatches += op.weight();
            tally.note(format!("wrong reply to {op:?}: {response:?}"));
        }
        ok
    }
}

/// The service as shipped — `FleetService` behind the reactor — plus the
/// generator's two connections. Fields drop in order: connections, then
/// the reactor, then the worker pool.
pub struct Live {
    /// The generator's connections `[A, B]` as `(sender, receiver)` halves.
    pub conns: Vec<(Sender, Receiver)>,
    /// The reactor front end, kept alive for the run.
    _server: FleetTcpServer,
    /// The worker pool, which the layer walk also calls in-process.
    pub service: FleetService,
}

impl Live {
    /// Start the service for `spec` and connect twice.
    pub fn start(spec: &Spec) -> Result<Self, String> {
        let sim = SimulatedFleet::new(spec.sim_config());
        let service = FleetService::start(FleetConfig::default(), sim);
        let server = FleetTcpServer::spawn(service.client(), "127.0.0.1:0")
            .map_err(|e| format!("spawn reactor: {e}"))?;
        let conns = (0..2)
            .map(|_| connect(server.local_addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Self {
            conns,
            _server: server,
            service,
        })
    }

    /// One serial round trip of `request` under tag `id` on connection
    /// A, with nothing else in flight; returns the raw reply frame.
    pub fn round_trip_frame(&mut self, id: u64, request: &Request) -> Result<Vec<u8>, String> {
        let (tx, rx) = &mut self.conns[0];
        rx.set_blocking(true).map_err(|e| e.to_string())?;
        tx.queue(id, request);
        let frame = tx
            .flush_all()
            .map_err(|e| e.to_string())
            .and_then(|()| rx.wait_frame());
        rx.set_blocking(false).map_err(|e| e.to_string())?;
        frame
    }

    /// A `Request::Stats` round trip over the wire, between phases.
    pub fn stats(&mut self) -> Result<FleetStats, String> {
        let frame = self.round_trip_frame(u64::MAX, &Request::Stats)?;
        match decode_reply(&frame)? {
            (u64::MAX, Ok(Response::StatsSnapshot { stats })) => Ok(stats),
            other => Err(format!("stats request answered with {other:?}")),
        }
    }
}

/// Bring up a service and provision it over the wire, as an operator
/// would: enroll every device (window 8), then prime the replay set, or
/// learn the intake cohort and warm every eval board. Returns the live
/// service and the seconds it took.
pub fn setup(
    stream: &Stream,
    checker: &mut Checker,
    tally: &mut Tally,
) -> Result<(Live, f64), String> {
    let spec = stream.spec();
    let t0 = Instant::now();
    let mut live = Live::start(spec)?;
    let mut enrolls = (0..spec.enrolled).map(|d| Op::Enroll {
        device: d,
        nonce: stream.enroll_nonce(d),
    });
    pipeline(&mut live, &mut enrolls, checker, tally)?;
    let mut primes = (0..spec.replay_pairs).map(|j| {
        let (device, nonce) = stream.pair(j);
        Op::Verify {
            device,
            nonce,
            pair: Some(j),
        }
    });
    pipeline(&mut live, &mut primes, checker, tally)?;
    if spec.workload == Workload::IntakeScan {
        let cohort = Request::CohortEnroll {
            devices: named_rows(&stream.cohort_rows()),
        };
        tally.attempted += spec.cohort as u64;
        match decode_reply(&live.round_trip_frame(0, &cohort)?)? {
            (0, Ok(model @ Response::CohortModel { .. })) => checker.cohort = Some(model),
            other => {
                tally.errors += spec.cohort as u64;
                return Err(format!("CohortEnroll answered with {other:?}"));
            }
        }
        pipeline(
            &mut live,
            &mut stream.prime_ops().into_iter(),
            checker,
            tally,
        )?;
    }
    Ok((live, t0.elapsed().as_secs_f64()))
}

/// Run `ops` to completion on connection A with [`SETUP_WINDOW`] in flight.
fn pipeline(
    live: &mut Live,
    ops: &mut dyn Iterator<Item = Op>,
    checker: &mut Checker,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut next = |conn: usize, _: &mut Tally| if conn == 0 { ops.next() } else { None };
    run_closed(
        live,
        [SETUP_WINDOW, 0],
        None,
        &mut next,
        &mut |op, outcome, _, tally| {
            checker.check(op, outcome, tally);
        },
        tally,
    )
}

/// Op sources for the closed loop: `next(conn, tally)` yields the next
/// request for a connection, or `None` when it has nothing to send now.
pub type Source<'a> = dyn FnMut(usize, &mut Tally) -> Option<Op> + 'a;
/// Reply sink for the closed loop: the op, its outcome and completion time.
pub type Sink<'a> = dyn FnMut(&Op, Result<Response, FleetError>, Instant, &mut Tally) + 'a;

/// The closed loop: keep `windows[c]` requests in flight on connection
/// `c`, refilling from `next` after every reply, until `deadline` (no new
/// sends after it) or until no source yields; then drain. Replies that
/// never arrive count as errors.
pub fn run_closed(
    live: &mut Live,
    windows: [usize; 2],
    deadline: Option<Instant>,
    next: &mut Source<'_>,
    done: &mut Sink<'_>,
    tally: &mut Tally,
) -> Result<(), String> {
    let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    for (c, (_, rx)) in live.conns.iter().enumerate() {
        poller
            .add(rx.fd(), Event::readable(c))
            .map_err(|e| format!("register: {e}"))?;
    }
    let mut inflight: [HashMap<u64, Op>; 2] = [HashMap::new(), HashMap::new()];
    let result = closed_inner(
        live,
        &poller,
        windows,
        deadline,
        next,
        done,
        tally,
        &mut inflight,
    );
    for (_, rx) in &live.conns {
        let _ = poller.delete(rx.fd());
    }
    tally.errors += inflight
        .iter()
        .flat_map(HashMap::values)
        .map(Op::weight)
        .sum::<u64>();
    result
}

#[allow(clippy::too_many_arguments)]
fn closed_inner(
    live: &mut Live,
    poller: &Poller,
    windows: [usize; 2],
    deadline: Option<Instant>,
    next: &mut Source<'_>,
    done: &mut Sink<'_>,
    tally: &mut Tally,
    inflight: &mut [HashMap<u64, Op>; 2],
) -> Result<(), String> {
    let mut next_id = [0u64; 2];
    let mut events = Vec::new();
    let mut replies: Vec<Reply> = Vec::new();
    let mut last_progress = Instant::now();
    loop {
        let open = deadline.is_none_or(|d| Instant::now() < d);
        for c in 0..2 {
            while open && inflight[c].len() < windows[c] {
                let Some(op) = next(c, tally) else { break };
                tally.attempted += op.weight();
                live.conns[c].0.queue(next_id[c], &op.request());
                inflight[c].insert(next_id[c], op);
                next_id[c] += 1;
            }
            live.conns[c]
                .0
                .flush_all()
                .map_err(|e| format!("write: {e}"))?;
        }
        if inflight.iter().all(HashMap::is_empty) {
            return Ok(());
        }
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(500)))
            .map_err(|e| format!("poll: {e}"))?;
        for ev in &events {
            live.conns[ev.key].1.read_replies(&mut replies)?;
            let now = Instant::now();
            for (id, outcome) in replies.drain(..) {
                let op = inflight[ev.key]
                    .remove(&id)
                    .ok_or_else(|| format!("reply to unknown id {id}"))?;
                done(&op, outcome, now, tally);
                last_progress = now;
            }
        }
        if last_progress.elapsed() > STALL {
            return Err("closed loop stalled".into());
        }
    }
}

/// What a closed-loop measurement saw.
#[derive(Debug, Default)]
pub struct ClosedReport {
    /// Successful ops per second in each window.
    pub ops_per_s: Vec<f64>,
    /// The live heap's high-water mark in each window, MB.
    pub heap_mb: Vec<f64>,
    /// The generator thread's on-CPU share over the loop.
    pub cpu_frac: f64,
}

/// Closed-loop windows of phase `domain`: both connections keep
/// `spec.window` requests in flight; for `enroll_churn` connection A
/// carries the verifies and connection B sends one enroll (from the pool
/// at `*pool_next`) after every 255 verifies. Counts successful ops per
/// window by completion time.
#[allow(clippy::too_many_arguments)]
pub fn closed_windows(
    live: &mut Live,
    stream: &Stream,
    domain: u64,
    windows: usize,
    window: Duration,
    pool_next: &mut usize,
    checker: &mut Checker,
    tally: &mut Tally,
) -> Result<ClosedReport, String> {
    let spec = stream.spec();
    let churn = spec.workload == Workload::EnrollChurn;
    let lanes = if churn {
        [spec.window, 1]
    } else {
        [spec.window; 2]
    };
    let mut reads = 0u64;
    let mut enrolls_due = 0u64;
    let mut next = |conn: usize, tally: &mut Tally| {
        if conn == 1 && churn {
            if enrolls_due == 0 {
                return None;
            }
            let op = stream.enroll_op(*pool_next);
            if op.is_none() {
                tally.errors += 1;
                tally.note("churn pool ran dry");
            }
            enrolls_due -= 1;
            *pool_next += 1;
            return op;
        }
        let op = stream.read_op(domain, reads);
        reads += 1;
        if churn && reads.is_multiple_of(ENROLL_EVERY) {
            enrolls_due += 1;
        }
        Some(op)
    };
    let mut counts = vec![0u64; windows];
    let mut heap_mb = Vec::with_capacity(windows);
    let start = Instant::now();
    let cpu0 = thread_cpu_ns();
    heap::reset_peak();
    let mut done = |op: &Op, outcome, at: Instant, tally: &mut Tally| {
        let w = ((at - start).as_secs_f64() / window.as_secs_f64()) as usize;
        if w > heap_mb.len() && heap_mb.len() < windows {
            heap_mb.push(heap::peak_heap_mb());
            heap::reset_peak();
        }
        if checker.check(op, outcome, tally) {
            if let Some(c) = counts.get_mut(w) {
                *c += op.weight();
            }
        }
    };
    let deadline = start + window * windows as u32;
    run_closed(live, lanes, Some(deadline), &mut next, &mut done, tally)?;
    if heap_mb.len() < windows {
        heap_mb.push(heap::peak_heap_mb());
    }
    let cpu_frac = (thread_cpu_ns() - cpu0) as f64 / start.elapsed().as_nanos() as f64;
    Ok(ClosedReport {
        ops_per_s: counts
            .iter()
            .map(|&c| c as f64 / window.as_secs_f64())
            .collect(),
        heap_mb,
        cpu_frac,
    })
}

/// What an open-loop measurement saw.
#[derive(Debug)]
pub struct OpenReport {
    /// Latency from each request's due time, per sub-window (failures +∞).
    pub windows: Vec<LogHistogram>,
    /// Pooled latency of the enrolls (`enroll_churn`).
    pub enrolls: LogHistogram,
    /// How late the sender put each request on the wire.
    pub late: LogHistogram,
    /// Churn pool entries the schedule consumed.
    pub pool_used: usize,
}

/// The open loop of phase `domain`: ops due at a fixed `spec.rate` for
/// `spec.slices` sub-windows, sent by a sender thread on schedule
/// whether or not earlier replies came back, and timed from when each was
/// due. `enroll_churn` routes its enrolls (every 256th op, from the pool
/// at `pool_base`) to connection B; other workloads alternate.
pub fn open_loop(
    live: &mut Live,
    stream: &Stream,
    domain: u64,
    pool_base: usize,
    checker: &mut Checker,
    tally: &mut Tally,
) -> Result<OpenReport, String> {
    let spec = stream.spec();
    let per_window = (spec.rate * spec.slice.as_secs_f64()).round() as u64;
    let total = per_window * spec.slices as u64;
    let churn = spec.workload == Workload::EnrollChurn;
    let lane = |op: &Op, k: u64| match op {
        Op::Enroll { .. } => 1,
        _ if churn => 0,
        _ => (k % 2) as usize,
    };
    let due = |start: Instant, k: u64| start + Duration::from_secs_f64(k as f64 / spec.rate);
    let sent = AtomicU64::new(0);
    let finished = AtomicBool::new(false);
    let mut report = OpenReport {
        windows: (0..spec.slices).map(|_| LogHistogram::new()).collect(),
        enrolls: LogHistogram::new(),
        late: LogHistogram::new(),
        pool_used: stream.enrolls_in(total),
    };
    let (mut txs, mut rxs): (Vec<&mut Sender>, Vec<&mut Receiver>) =
        live.conns.iter_mut().map(|(t, r)| (t, r)).unzip();
    let start = Instant::now() + Duration::from_millis(5);
    let (send_result, recv_result) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late = LogHistogram::new();
            let result = send_schedule(
                &mut txs, stream, domain, pool_base, total, start, &due, &lane, &sent, &mut late,
            );
            finished.store(true, Ordering::Release);
            result.map(|()| late)
        });
        let received = receive(
            &mut rxs,
            stream,
            domain,
            pool_base,
            per_window,
            start,
            &due,
            &sent,
            &finished,
            checker,
            tally,
            &mut report,
        );
        (sender.join().expect("open-loop sender panicked"), received)
    });
    let sent = sent.load(Ordering::Acquire);
    tally.attempted += sent * spec.batch as u64;
    let received = recv_result?;
    tally.errors += (sent - received) * spec.batch as u64;
    report.late = send_result?;
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn send_schedule(
    txs: &mut [&mut Sender],
    stream: &Stream,
    domain: u64,
    pool_base: usize,
    total: u64,
    start: Instant,
    due: &dyn Fn(Instant, u64) -> Instant,
    lane: &dyn Fn(&Op, u64) -> usize,
    sent: &AtomicU64,
    late: &mut LogHistogram,
) -> Result<(), String> {
    let mut k = 0u64;
    while k < total {
        let now = Instant::now();
        let next_due = due(start, k);
        if next_due > now {
            std::thread::sleep(next_due - now);
            continue;
        }
        while k < total && due(start, k) <= now {
            let op = stream
                .op_at(domain, k, pool_base)
                .ok_or("churn pool ran dry")?;
            txs[lane(&op, k)].queue(k, &op.request());
            late.record((now - due(start, k)).as_nanos() as u64);
            k += 1;
        }
        for tx in txs.iter_mut() {
            tx.flush_all().map_err(|e| format!("write: {e}"))?;
        }
        sent.store(k, Ordering::Release);
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn receive(
    rxs: &mut [&mut Receiver],
    stream: &Stream,
    domain: u64,
    pool_base: usize,
    per_window: u64,
    start: Instant,
    due: &dyn Fn(Instant, u64) -> Instant,
    sent: &AtomicU64,
    finished: &AtomicBool,
    checker: &mut Checker,
    tally: &mut Tally,
    report: &mut OpenReport,
) -> Result<u64, String> {
    let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    for (c, rx) in rxs.iter().enumerate() {
        poller
            .add(rx.fd(), Event::readable(c))
            .map_err(|e| format!("register: {e}"))?;
    }
    let mut received = 0u64;
    let mut events = Vec::new();
    let mut replies: Vec<Reply> = Vec::new();
    let mut last_progress = Instant::now();
    loop {
        // Load `finished` before `sent`: once the sender is done its
        // final count is visible.
        let done_sending = finished.load(Ordering::Acquire);
        if done_sending && received >= sent.load(Ordering::Acquire) {
            return Ok(received);
        }
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .map_err(|e| format!("poll: {e}"))?;
        for ev in &events {
            rxs[ev.key].read_replies(&mut replies)?;
            let now = Instant::now();
            for (k, outcome) in replies.drain(..) {
                let op = stream
                    .op_at(domain, k, pool_base)
                    .ok_or_else(|| format!("reply to unknown id {k}"))?;
                let w = ((k / per_window) as usize).min(report.windows.len() - 1);
                if checker.check(&op, outcome, tally) {
                    let ns = now.saturating_duration_since(due(start, k)).as_nanos() as u64;
                    report.windows[w].record(ns);
                    if matches!(op, Op::Enroll { .. }) {
                        report.enrolls.record(ns);
                    }
                } else {
                    report.windows[w].record_failure();
                }
                received += 1;
                last_progress = now;
            }
        }
        if last_progress.elapsed() > STALL {
            return Ok(received);
        }
    }
}

/// On-CPU nanoseconds of the calling thread (first field of
/// `/proc/thread-self/schedstat`); 0 where unavailable.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
