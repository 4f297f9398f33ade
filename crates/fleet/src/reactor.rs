//! The event-driven wire layer: one thread, every connection.
//!
//! The reactor replaces thread-per-connection serving with a poll-based
//! readiness loop (`divot-polling`, a std-only `poll(2)` shim):
//! nonblocking sockets, per-connection read/write buffers with
//! incremental frame decode, and a completion queue bridging the
//! synchronous [`FleetService`](crate::FleetService) worker pool back
//! into the loop. One reactor thread multiplexes 10k+ connections.
//!
//! ```text
//!            ┌────────────────────────── reactor thread ──────────────────────────┐
//!  sockets ─▶│ poll wait ─▶ drain completions ─▶ read+decode ─▶ admit ─▶ flush │
//!            │     ▲                                   │ (round-robin, coalesced) │
//!            └─────┼───────────────────────────────────┼──────────────────────────┘
//!                  │ poller.notify()                   ▼ submit_batch_tagged
//!            ┌─────┴──────────┐            ┌───────────────────────┐
//!            │ CompletionQueue│ ◀──────────│ FleetService workers  │
//!            └────────────────┘            └───────────────────────┘
//! ```
//!
//! **Pipelining.** A connection may hold up to
//! [`ReactorConfig::pipeline_window`] requests in flight; replies are
//! enveloped with the request id and stream back in completion order.
//! A frame that cannot be framed or decoded has no id: it is answered
//! with a bare error frame.
//!
//! **Inline serving and coalescing.** Before paying a worker-pool round
//! trip, each admission probes the shared verdict cache
//! ([`FleetClient::try_cached`]) and answers warm repeats directly from
//! the loop; concurrently-arriving verifies/scans for the same
//! `(device, nonce)` coalesce onto one in-service computation, with
//! every waiter receiving the single (bitwise-identical, by purity)
//! outcome.
//!
//! **Fair admission.** Parked requests are admitted round-robin across
//! connections, a bounded quota per visit, so one greedy pipelined
//! connection cannot monopolize the service queue. A connection's
//! parking lot is bounded (sheds
//! [`ShedReason::QueueFull`]); a parked request whose patience
//! ([`ReactorConfig::admission_timeout`]) expires under saturation is
//! shed with [`ShedReason::FairShare`].
//!
//! **Subscriptions.** A client may register streaming `MonitorScan`
//! subscriptions: the reactor pushes one scan frame per interval, each
//! acquired under [`subscription_nonce`]`(base, seq)` — bitwise what an
//! explicit scan with that nonce returns — until the frame budget
//! empties, the client unsubscribes, or the connection dies. Stats
//! subscriptions stream periodic [`Response::StatsSnapshot`] frames
//! built inline on the reactor thread (same id namespace, same
//! ack/end lifecycle, no acquisition).
//!
//! **Health probes.** `Request::Stats` is answered inline by the
//! reactor from the telemetry registry snapshot — it never enters the
//! worker queue, so a saturated pool cannot delay an operator's view
//! of that saturation.
//!
//! **Telemetry.** `fleet.reactor.wakeups`, `fleet.reactor.frames`,
//! `fleet.reactor.frames_per_wakeup`, `fleet.reactor.pipeline_depth`,
//! `fleet.reactor.batch_width` (via the service),
//! `fleet.reactor.inline_hits`, `fleet.reactor.inline_stats`,
//! `fleet.reactor.coalesced`,
//! `fleet.reactor.sheds_fair`, `fleet.reactor.pushes`,
//! `fleet.reactor.push_skips`, `fleet.reactor.protocol_errors`,
//! `fleet.reactor.accept_errors`, and the gauges
//! `fleet.reactor.conns` / `fleet.reactor.subs`.

use crate::error::{FleetError, ShedReason};
use crate::service::{Completion, CompletionQueue, FleetClient, Request, Response};
use crate::sim::subscription_nonce;
use crate::wire::{
    decode_wire_request, encode_response, encode_scan_frame, encode_stats_frame, encode_sub_ack,
    encode_sub_end, encode_tagged_response, FrameBuffer, WireRequest, MAX_FRAME,
};
use divot_polling::{Event, Poller};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Registration key of the accept socket.
const LISTENER_KEY: usize = usize::MAX;

/// Tuning of the reactor loop. The defaults serve 10k pipelined
/// connections on one core; every knob exists for a test or bench that
/// needs to force a corner (tiny windows, instant patience, …).
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Maximum requests one connection may have in flight in the
    /// service at once (its pipeline window).
    pub pipeline_window: usize,
    /// Maximum decoded-but-unadmitted requests parked per connection;
    /// beyond this the newest are shed with
    /// [`ShedReason::QueueFull`].
    pub parked_capacity: usize,
    /// How long a parked request may wait for admission under
    /// saturation before it is shed with [`ShedReason::FairShare`].
    pub admission_timeout: Duration,
    /// Pending-write bytes per connection above which the reactor stops
    /// admitting its requests and skips its subscription pushes until
    /// the peer drains.
    pub write_capacity: usize,
    /// Admissions granted per connection per round-robin visit — the
    /// interleaving grain of fairness.
    pub admit_quota: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            pipeline_window: 128,
            parked_capacity: 256,
            admission_timeout: Duration::from_millis(50),
            write_capacity: 1 << 20,
            admit_quota: 16,
        }
    }
}

/// A decoded request waiting for admission.
struct Parked {
    /// The id its enveloped reply carries back.
    id: u64,
    request: Request,
    deadline: Option<Duration>,
    since: Instant,
}

/// Who gets one completed outcome.
#[derive(Debug, Clone, Copy)]
enum WaiterOrigin {
    /// A tagged request (`id` is the request id).
    Tagged(u64),
    /// A subscription push (`id` is the subscription id).
    Push(u64),
}

struct Waiter {
    conn: usize,
    origin: WaiterOrigin,
}

/// Requests with identical `(kind, device, nonce)` are pure duplicates:
/// they coalesce onto one in-service computation.
type CoalesceKey = (u8, String, u64);

struct TokenState {
    waiters: Vec<Waiter>,
    coalesce: Option<CoalesceKey>,
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    wbuf: Vec<u8>,
    wstart: usize,
    parked: VecDeque<Parked>,
    /// Requests in flight in the service on behalf of this connection.
    inflight: usize,
    /// Finish flushing, then close (post-protocol-error teardown).
    closing: bool,
    dead: bool,
    /// Interest currently registered with the poller.
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            frames: FrameBuffer::new(),
            wbuf: Vec::new(),
            wstart: 0,
            parked: VecDeque::new(),
            inflight: 0,
            closing: false,
            dead: false,
            want_write: false,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wstart
    }
}

/// One streaming scan subscription.
struct Sub {
    device: String,
    base_nonce: u64,
    interval: Duration,
    /// `0` = unbounded.
    max_frames: u32,
    /// Next frame's sequence number == frames pushed so far.
    seq: u64,
    next_due: Instant,
    /// A pushed acquisition is in the service; skip ticks meanwhile.
    inflight: bool,
}

/// One streaming stats subscription. Unlike scan subscriptions, stats
/// frames are built inline on the reactor thread (a registry snapshot,
/// no acquisition), so there is no in-service `inflight` state.
struct StatsSub {
    interval: Duration,
    /// `0` = unbounded.
    max_frames: u32,
    /// Next frame's sequence number == frames pushed so far.
    seq: u64,
    next_due: Instant,
}

/// Everything [`spawn`] hands back to [`crate::wire::FleetTcpServer`].
pub(crate) struct ReactorHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) thread: JoinHandle<()>,
    pub(crate) poller: Arc<Poller>,
    pub(crate) shutdown: Arc<AtomicBool>,
}

/// Bind `addr` and start the reactor thread.
pub(crate) fn spawn(
    client: FleetClient,
    addr: &str,
    config: ReactorConfig,
) -> std::io::Result<ReactorHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let poller = Arc::new(Poller::new()?);
    poller
        .add(listener.as_raw_fd(), Event::readable(LISTENER_KEY))
        .map_err(|e| std::io::Error::new(e.kind(), format!("register listener: {e}")))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let waker = Arc::clone(&poller);
    let cq = CompletionQueue::new(move || waker.notify());
    let reactor = Reactor {
        listener,
        poller: Arc::clone(&poller),
        shutdown: Arc::clone(&shutdown),
        client,
        cq,
        config,
        conns: BTreeMap::new(),
        parked_conns: BTreeSet::new(),
        dirty: BTreeSet::new(),
        dead: Vec::new(),
        tokens: HashMap::new(),
        pending: HashMap::new(),
        subs: HashMap::new(),
        timers: BinaryHeap::new(),
        stats_subs: HashMap::new(),
        stats_timers: BinaryHeap::new(),
        next_key: 0,
        next_token: 0,
        cursor: 0,
    };
    let thread = std::thread::Builder::new()
        .name("fleet-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(ReactorHandle {
        addr,
        thread,
        poller,
        shutdown,
    })
}

/// Append one length-prefixed frame to a connection's write buffer,
/// enforcing [`MAX_FRAME`] (an oversized response degrades into a typed
/// error frame rather than a corrupt stream).
fn push_frame(wbuf: &mut Vec<u8>, payload: &[u8]) {
    if payload.len() > MAX_FRAME {
        let err = encode_response(&Err(FleetError::Io(format!(
            "response of {} bytes exceeds MAX_FRAME",
            payload.len()
        ))));
        wbuf.extend_from_slice(&(err.len() as u32).to_le_bytes());
        wbuf.extend_from_slice(&err);
        return;
    }
    wbuf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wbuf.extend_from_slice(payload);
}

/// Coalescable identity of a request (pure read-only kinds).
fn coalesce_key(request: &Request) -> Option<CoalesceKey> {
    match request {
        Request::Verify { device, nonce } => Some((0, device.clone(), *nonce)),
        Request::MonitorScan { device, nonce } => Some((1, device.clone(), *nonce)),
        Request::Enroll { .. }
        | Request::CohortEnroll { .. }
        | Request::IntakeScan { .. }
        | Request::RegistrySnapshot
        | Request::Stats => None,
    }
}

struct Reactor {
    listener: TcpListener,
    poller: Arc<Poller>,
    shutdown: Arc<AtomicBool>,
    client: FleetClient,
    cq: Arc<CompletionQueue>,
    config: ReactorConfig,
    conns: BTreeMap<usize, Conn>,
    /// Connections with a nonempty parking lot (admission work list).
    parked_conns: BTreeSet<usize>,
    /// Connections with unflushed write-buffer bytes.
    dirty: BTreeSet<usize>,
    /// Connections to tear down at the end of this iteration.
    dead: Vec<usize>,
    /// In-service submissions by token.
    tokens: HashMap<u64, TokenState>,
    /// Coalescable in-service submissions by identity.
    pending: HashMap<CoalesceKey, u64>,
    subs: HashMap<(usize, u64), Sub>,
    /// Subscription tick queue (lazily invalidated on re-arm/removal).
    timers: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    /// Streaming stats subscriptions, sharing the per-connection id
    /// namespace with scan subscriptions.
    stats_subs: HashMap<(usize, u64), StatsSub>,
    /// Stats tick queue (lazily invalidated like `timers`).
    stats_timers: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    next_key: usize,
    next_token: u64,
    /// Round-robin admission cursor (last connection that admitted).
    cursor: usize,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut completions: Vec<Completion> = Vec::new();
        while !self.shutdown.load(Ordering::Relaxed) {
            let timeout = self.poll_timeout();
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            divot_telemetry::inc("fleet.reactor.wakeups");
            if self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let now = Instant::now();
            // Completions first: they free pipeline budget the admit
            // pass below can hand out, and fill write buffers.
            completions.clear();
            self.cq.drain_into(&mut completions);
            for c in completions.drain(..) {
                self.deliver(c.token, c.outcome, now);
            }
            let mut frames = 0u64;
            for &ev in &events {
                if ev.key == LISTENER_KEY {
                    self.accept_ready();
                } else {
                    if ev.readable {
                        frames += self.read_ready(ev.key, now);
                    }
                    if ev.writable {
                        self.dirty.insert(ev.key);
                    }
                }
            }
            if frames > 0 {
                divot_telemetry::add("fleet.reactor.frames", frames);
                divot_telemetry::observe("fleet.reactor.frames_per_wakeup", frames as f64);
            }
            self.admit(now);
            self.tick_subs(Instant::now());
            self.tick_stats_subs(Instant::now());
            self.shed_expired(Instant::now());
            self.flush_dirty();
            self.reap_dead();
        }
    }

    /// Sleep until the next subscription tick or fairness deadline —
    /// forever if neither is armed (completions wake us via notify).
    fn poll_timeout(&mut self) -> Option<Duration> {
        let now = Instant::now();
        let mut timeout: Option<Duration> = None;
        if let Some(&Reverse((due, _, _))) = self.timers.peek() {
            timeout = Some(due.saturating_duration_since(now));
        }
        if let Some(&Reverse((due, _, _))) = self.stats_timers.peek() {
            let until = due.saturating_duration_since(now);
            timeout = Some(timeout.map_or(until, |t| t.min(until)));
        }
        if !self.parked_conns.is_empty() {
            let cap = self.config.admission_timeout;
            timeout = Some(timeout.map_or(cap, |t| t.min(cap)));
        }
        timeout
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let key = self.next_key;
                    self.next_key += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), Event::readable(key))
                        .is_err()
                    {
                        divot_telemetry::inc("fleet.reactor.accept_errors");
                        continue;
                    }
                    self.conns.insert(key, Conn::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE and friends: count it and stop; readiness
                    // re-reports while the condition persists.
                    divot_telemetry::inc("fleet.reactor.accept_errors");
                    break;
                }
            }
        }
        divot_telemetry::set_gauge("fleet.reactor.conns", self.conns.len() as f64);
    }

    /// Pull bytes and decode frames off one ready connection; returns
    /// frames decoded.
    fn read_ready(&mut self, key: usize, now: Instant) -> u64 {
        let mut chunk = [0u8; 64 << 10];
        // Bounded reads per wakeup keep one firehose connection from
        // starving the loop; level-triggered polling re-reports it.
        for _ in 0..4 {
            let Some(conn) = self.conns.get_mut(&key) else {
                return 0;
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.dead = true;
                    self.dead.push(key);
                    break;
                }
                Ok(n) => {
                    conn.frames.extend(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    self.dead.push(key);
                    break;
                }
            }
        }
        let mut frames = 0u64;
        loop {
            let next = {
                let Some(conn) = self.conns.get_mut(&key) else {
                    return frames;
                };
                if conn.dead || conn.closing {
                    return frames;
                }
                conn.frames.next_frame()
            };
            match next {
                Ok(Some(payload)) => {
                    frames += 1;
                    self.handle_frame(key, &payload, now);
                }
                Ok(None) => return frames,
                Err(e) => {
                    // Unframeable stream: answer with the typed error,
                    // then close this connection — and only this one.
                    divot_telemetry::inc("fleet.reactor.protocol_errors");
                    self.write_to(key, &encode_response(&Err(e)));
                    if let Some(conn) = self.conns.get_mut(&key) {
                        conn.closing = true;
                    }
                    return frames;
                }
            }
        }
    }

    fn handle_frame(&mut self, key: usize, payload: &[u8], now: Instant) {
        let decoded = decode_wire_request(payload);
        match decoded {
            Err(e) => {
                // A malformed payload in a well-framed stream gets a
                // bare typed error reply and the connection lives on.
                divot_telemetry::inc("fleet.reactor.protocol_errors");
                self.write_to(key, &encode_response(&Err(e)));
            }
            Ok(WireRequest::Tagged {
                id,
                request,
                deadline,
            }) => {
                self.park(key, id, request, deadline, now);
            }
            Ok(WireRequest::Subscribe {
                id,
                device,
                base_nonce,
                interval,
                max_frames,
            }) => {
                let sub = Sub {
                    device,
                    base_nonce,
                    // A zero interval would busy-spin the loop; clamp
                    // to the poll granularity.
                    interval: interval.max(Duration::from_millis(1)),
                    max_frames,
                    seq: 0,
                    next_due: now,
                    inflight: false,
                };
                self.handle_subscribe(key, id, sub);
            }
            Ok(WireRequest::StatsSubscribe {
                id,
                interval,
                max_frames,
            }) => {
                let sub = StatsSub {
                    // Same busy-spin guard as scan subscriptions.
                    interval: interval.max(Duration::from_millis(1)),
                    max_frames,
                    seq: 0,
                    next_due: now,
                };
                self.handle_stats_subscribe(key, id, sub);
            }
            Ok(WireRequest::Unsubscribe { target, .. }) => {
                // Scan and stats subscriptions share the id namespace;
                // whichever holds the id ends.
                let frames = match self.stats_subs.remove(&(key, target)) {
                    Some(s) => s.seq,
                    None => self.subs.remove(&(key, target)).map_or(0, |s| s.seq),
                };
                self.set_subs_gauge();
                self.write_to(key, &encode_sub_end(target, frames));
            }
        }
    }

    /// Queue one decoded request for admission — serving it inline
    /// right away when it is a stats probe or the verdict cache already
    /// holds the answer.
    fn park(
        &mut self,
        key: usize,
        id: u64,
        request: Request,
        deadline: Option<Duration>,
        now: Instant,
    ) {
        if !self.conns.contains_key(&key) {
            return;
        }
        // Stats are a health probe: answered on the reactor thread from
        // the registry snapshot, never queued behind a saturated worker
        // pool.
        if matches!(request, Request::Stats) {
            divot_telemetry::inc("fleet.reactor.inline_stats");
            let response = Response::StatsSnapshot {
                stats: self.client.stats(),
            };
            self.write_to(key, &encode_tagged_response(id, &Ok(response)));
            return;
        }
        if let Some(response) = self.client.try_cached(&request) {
            divot_telemetry::inc("fleet.reactor.inline_hits");
            self.write_to(key, &encode_tagged_response(id, &Ok(response)));
            return;
        }
        let parked_cap = self.config.parked_capacity;
        let shed = {
            let Some(conn) = self.conns.get_mut(&key) else {
                return;
            };
            if conn.parked.len() >= parked_cap {
                Some(conn.parked.len())
            } else {
                conn.parked.push_back(Parked {
                    id,
                    request,
                    deadline,
                    since: now,
                });
                None
            }
        };
        match shed {
            Some(depth) => {
                let err = FleetError::Overloaded {
                    depth,
                    capacity: parked_cap,
                    reason: ShedReason::QueueFull,
                };
                self.write_to(key, &encode_tagged_response(id, &Err(err)));
            }
            None => {
                self.parked_conns.insert(key);
            }
        }
    }

    /// Round-robin admission: visit parked connections in rotation,
    /// a quota per visit, until the parking lots drain or the service
    /// queue saturates. Each admission is served inline (cache),
    /// coalesced onto an in-service duplicate, or staged into one
    /// batched submission per rotation.
    fn admit(&mut self, now: Instant) {
        loop {
            if self.parked_conns.is_empty() {
                return;
            }
            let order: Vec<usize> = {
                let after: Vec<usize> = self
                    .parked_conns
                    .range((self.cursor + 1)..)
                    .copied()
                    .collect();
                let before = self.parked_conns.range(..=self.cursor).copied();
                after.into_iter().chain(before).collect()
            };
            let mut staged: Vec<(u64, usize, Parked)> = Vec::new();
            let mut progress = false;
            for &key in &order {
                let mut quota = self.config.admit_quota;
                while quota > 0 {
                    let popped = {
                        let Some(conn) = self.conns.get_mut(&key) else {
                            self.parked_conns.remove(&key);
                            break;
                        };
                        if conn.dead
                            || conn.closing
                            || conn.inflight >= self.config.pipeline_window
                            || conn.pending_write() >= self.config.write_capacity
                        {
                            break;
                        }
                        let Some(p) = conn.parked.pop_front() else {
                            self.parked_conns.remove(&key);
                            break;
                        };
                        if conn.parked.is_empty() {
                            self.parked_conns.remove(&key);
                        }
                        p
                    };
                    quota -= 1;
                    progress = true;
                    self.cursor = key;
                    // Inline: the verdict may have landed in the cache
                    // since this request was parked.
                    if let Some(response) = self.client.try_cached(&popped.request) {
                        divot_telemetry::inc("fleet.reactor.inline_hits");
                        self.write_to(key, &encode_tagged_response(popped.id, &Ok(response)));
                        continue;
                    }
                    let waiter_origin = WaiterOrigin::Tagged(popped.id);
                    // Coalesce onto an identical in-service request.
                    let ckey = coalesce_key(&popped.request);
                    if let Some(token) = ckey.as_ref().and_then(|k| self.pending.get(k)) {
                        divot_telemetry::inc("fleet.reactor.coalesced");
                        self.tokens
                            .get_mut(token)
                            .expect("pending token exists")
                            .waiters
                            .push(Waiter {
                                conn: key,
                                origin: waiter_origin,
                            });
                        self.conns.get_mut(&key).expect("conn exists").inflight += 1;
                        continue;
                    }
                    // Fresh: stage for the batched submit.
                    let token = self.next_token;
                    self.next_token += 1;
                    self.tokens.insert(
                        token,
                        TokenState {
                            waiters: vec![Waiter {
                                conn: key,
                                origin: waiter_origin,
                            }],
                            coalesce: ckey,
                        },
                    );
                    let conn = self.conns.get_mut(&key).expect("conn exists");
                    conn.inflight += 1;
                    divot_telemetry::observe("fleet.reactor.pipeline_depth", conn.inflight as f64);
                    staged.push((token, key, popped));
                }
            }
            if staged.is_empty() {
                if !progress {
                    return;
                }
                continue;
            }
            let saturated = self.submit_staged(staged, now);
            if saturated || !progress {
                return;
            }
        }
    }

    /// Submit one rotation's staged admissions as a batch; roll back and
    /// re-park what the service sheds. Returns whether the service queue
    /// saturated (stop admitting until completions free it).
    fn submit_staged(&mut self, staged: Vec<(u64, usize, Parked)>, now: Instant) -> bool {
        let default_deadline = self.client.default_deadline();
        let batch: Vec<(Request, Duration, u64)> = staged
            .iter()
            .map(|(token, _, p)| {
                (
                    p.request.clone(),
                    p.deadline.unwrap_or(default_deadline),
                    *token,
                )
            })
            .collect();
        let results = self.client.submit_batch_tagged(batch, &self.cq);
        let mut saturated = false;
        let mut reparked: Vec<(usize, Parked)> = Vec::new();
        for ((token, key, parked), result) in staged.into_iter().zip(results) {
            match result {
                Ok(()) => {
                    if let Some(ckey) = &self.tokens[&token].coalesce {
                        self.pending.insert(ckey.clone(), token);
                    }
                }
                Err(err) => {
                    // Roll the staging back: budget and token bookkeeping.
                    self.tokens.remove(&token);
                    if let Some(conn) = self.conns.get_mut(&key) {
                        conn.inflight = conn.inflight.saturating_sub(1);
                    }
                    if matches!(
                        err,
                        FleetError::Overloaded {
                            reason: ShedReason::QueueFull,
                            ..
                        }
                    ) {
                        saturated = true;
                        reparked.push((key, parked));
                    } else {
                        // ShuttingDown and other hard failures go
                        // straight back to the caller.
                        self.write_to(key, &encode_tagged_response(parked.id, &Err(err)));
                    }
                }
            }
        }
        let _ = now;
        // Reverse order restores each connection's original FIFO.
        for (key, parked) in reparked.into_iter().rev() {
            if let Some(conn) = self.conns.get_mut(&key) {
                conn.parked.push_front(parked);
                self.parked_conns.insert(key);
            }
        }
        saturated
    }

    /// Shed parked requests whose admission patience expired — the
    /// fair-share backpressure signal under sustained saturation.
    fn shed_expired(&mut self, now: Instant) {
        if self.parked_conns.is_empty() {
            return;
        }
        let keys: Vec<usize> = self.parked_conns.iter().copied().collect();
        let timeout = self.config.admission_timeout;
        for key in keys {
            loop {
                let expired = {
                    let Some(conn) = self.conns.get_mut(&key) else {
                        self.parked_conns.remove(&key);
                        break;
                    };
                    match conn.parked.front() {
                        Some(front) if now.duration_since(front.since) >= timeout => {
                            let p = conn.parked.pop_front().expect("front exists");
                            if conn.parked.is_empty() {
                                self.parked_conns.remove(&key);
                            }
                            Some(p)
                        }
                        _ => break,
                    }
                };
                let Some(p) = expired else { break };
                divot_telemetry::inc("fleet.reactor.sheds_fair");
                let err = FleetError::Overloaded {
                    depth: self.client.queue_depth(),
                    capacity: self.client.queue_capacity(),
                    reason: ShedReason::FairShare,
                };
                self.write_to(key, &encode_tagged_response(p.id, &Err(err)));
            }
        }
    }

    /// `fleet.reactor.subs` counts both subscription kinds.
    fn set_subs_gauge(&self) {
        divot_telemetry::set_gauge(
            "fleet.reactor.subs",
            (self.subs.len() + self.stats_subs.len()) as f64,
        );
    }

    fn handle_subscribe(&mut self, key: usize, id: u64, sub: Sub) {
        if self.subs.contains_key(&(key, id)) || self.stats_subs.contains_key(&(key, id)) {
            self.write_to(
                key,
                &encode_tagged_response(
                    id,
                    &Err(FleetError::Protocol(format!(
                        "subscription id {id} already active"
                    ))),
                ),
            );
            return;
        }
        if !self.client.device_known(&sub.device) {
            self.write_to(
                key,
                &encode_tagged_response(id, &Err(FleetError::UnknownDevice(sub.device))),
            );
            return;
        }
        self.write_to(key, &encode_sub_ack(id, sub.interval));
        self.timers.push(Reverse((sub.next_due, key, id)));
        self.subs.insert((key, id), sub);
        self.set_subs_gauge();
    }

    fn handle_stats_subscribe(&mut self, key: usize, id: u64, sub: StatsSub) {
        if self.subs.contains_key(&(key, id)) || self.stats_subs.contains_key(&(key, id)) {
            self.write_to(
                key,
                &encode_tagged_response(
                    id,
                    &Err(FleetError::Protocol(format!(
                        "subscription id {id} already active"
                    ))),
                ),
            );
            return;
        }
        self.write_to(key, &encode_sub_ack(id, sub.interval));
        self.stats_timers.push(Reverse((sub.next_due, key, id)));
        self.stats_subs.insert((key, id), sub);
        self.set_subs_gauge();
    }

    /// Fire due stats ticks. Frames are a registry snapshot built right
    /// here on the reactor thread — no worker round trip — so the only
    /// flow control is the peer's write buffer: a backed-up connection
    /// skips the tick and `seq` advances only when a frame is pushed.
    fn tick_stats_subs(&mut self, now: Instant) {
        while let Some(&Reverse((due, key, id))) = self.stats_timers.peek() {
            if due > now {
                break;
            }
            self.stats_timers.pop();
            let action = {
                let Some(sub) = self.stats_subs.get_mut(&(key, id)) else {
                    continue; // unsubscribed or conn died: stale timer
                };
                if sub.next_due != due {
                    continue; // re-armed elsewhere: stale timer
                }
                let backed_up = self
                    .conns
                    .get(&key)
                    .is_none_or(|c| c.pending_write() >= self.config.write_capacity);
                if backed_up {
                    sub.next_due = now + sub.interval;
                    None
                } else {
                    let seq = sub.seq;
                    sub.seq += 1;
                    let exhausted = sub.max_frames > 0 && sub.seq >= u64::from(sub.max_frames);
                    if !exhausted {
                        sub.next_due = now + sub.interval;
                    }
                    Some((seq, exhausted, sub.seq))
                }
            };
            match action {
                None => {
                    divot_telemetry::inc("fleet.reactor.push_skips");
                    if let Some(sub) = self.stats_subs.get(&(key, id)) {
                        self.stats_timers.push(Reverse((sub.next_due, key, id)));
                    }
                }
                Some((seq, exhausted, frames)) => {
                    let outcome = Ok(Response::StatsSnapshot {
                        stats: self.client.stats(),
                    });
                    divot_telemetry::inc("fleet.reactor.pushes");
                    self.write_to(key, &encode_stats_frame(id, seq, &outcome));
                    if exhausted {
                        self.stats_subs.remove(&(key, id));
                        self.set_subs_gauge();
                        self.write_to(key, &encode_sub_end(id, frames));
                    } else if let Some(sub) = self.stats_subs.get(&(key, id)) {
                        self.stats_timers.push(Reverse((sub.next_due, key, id)));
                    }
                }
            }
        }
    }

    /// Fire due subscription ticks: serve the frame inline from the
    /// verdict cache when warm, otherwise submit the acquisition and
    /// deliver on completion.
    fn tick_subs(&mut self, now: Instant) {
        while let Some(&Reverse((due, key, id))) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            let (request, skip) = {
                let Some(sub) = self.subs.get_mut(&(key, id)) else {
                    continue; // unsubscribed or conn died: stale timer
                };
                if sub.next_due != due {
                    continue; // re-armed elsewhere: stale timer
                }
                let backed_up = sub.inflight
                    || self
                        .conns
                        .get(&key)
                        .is_none_or(|c| c.pending_write() >= self.config.write_capacity);
                if backed_up {
                    // Flow control: skip this tick, try again next
                    // interval. The frame is not lost — seq advances
                    // only when a frame is actually pushed.
                    sub.next_due = now + sub.interval;
                    (None, true)
                } else {
                    let nonce = subscription_nonce(sub.base_nonce, sub.seq);
                    (
                        Some(Request::MonitorScan {
                            device: sub.device.clone(),
                            nonce,
                        }),
                        false,
                    )
                }
            };
            if skip {
                divot_telemetry::inc("fleet.reactor.push_skips");
                if let Some(sub) = self.subs.get(&(key, id)) {
                    self.timers.push(Reverse((sub.next_due, key, id)));
                }
                continue;
            }
            let request = request.expect("not skipped");
            if let Some(response) = self.client.try_cached(&request) {
                self.push_scan_outcome(key, id, Ok(response), now);
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            self.tokens.insert(
                token,
                TokenState {
                    waiters: vec![Waiter {
                        conn: key,
                        origin: WaiterOrigin::Push(id),
                    }],
                    coalesce: None,
                },
            );
            let deadline = self.client.default_deadline();
            match self
                .client
                .submit_tagged(request, deadline, token, &self.cq)
            {
                Ok(()) => {
                    if let Some(sub) = self.subs.get_mut(&(key, id)) {
                        sub.inflight = true;
                    }
                }
                Err(_) => {
                    // Saturated service: drop the tick, not the frame.
                    self.tokens.remove(&token);
                    divot_telemetry::inc("fleet.reactor.push_skips");
                    if let Some(sub) = self.subs.get_mut(&(key, id)) {
                        sub.next_due = now + sub.interval;
                        self.timers.push(Reverse((sub.next_due, key, id)));
                    }
                }
            }
        }
    }

    /// Write one scan frame to its subscriber, advance the stream, and
    /// either re-arm the tick or end the subscription.
    fn push_scan_outcome(
        &mut self,
        key: usize,
        id: u64,
        outcome: Result<Response, FleetError>,
        now: Instant,
    ) {
        let Some(sub) = self.subs.get_mut(&(key, id)) else {
            return; // unsubscribed while the acquisition was in flight
        };
        sub.inflight = false;
        let seq = sub.seq;
        sub.seq += 1;
        let failed = outcome.is_err();
        let exhausted = sub.max_frames > 0 && sub.seq >= u64::from(sub.max_frames);
        let frames = sub.seq;
        if failed || exhausted {
            self.subs.remove(&(key, id));
            self.set_subs_gauge();
            divot_telemetry::inc("fleet.reactor.pushes");
            self.write_to(key, &encode_scan_frame(id, seq, &outcome));
            self.write_to(key, &encode_sub_end(id, frames));
            return;
        }
        sub.next_due = now + sub.interval;
        let due = sub.next_due;
        self.timers.push(Reverse((due, key, id)));
        divot_telemetry::inc("fleet.reactor.pushes");
        self.write_to(key, &encode_scan_frame(id, seq, &outcome));
    }

    /// Route one completed service outcome to every waiter of its token.
    fn deliver(&mut self, token: u64, outcome: Result<Response, FleetError>, now: Instant) {
        let Some(state) = self.tokens.remove(&token) else {
            return;
        };
        if let Some(ckey) = &state.coalesce {
            self.pending.remove(ckey);
        }
        for waiter in state.waiters {
            match waiter.origin {
                WaiterOrigin::Tagged(id) => {
                    if let Some(conn) = self.conns.get_mut(&waiter.conn) {
                        conn.inflight = conn.inflight.saturating_sub(1);
                    }
                    self.write_to(waiter.conn, &encode_tagged_response(id, &outcome));
                }
                WaiterOrigin::Push(id) => {
                    self.push_scan_outcome(waiter.conn, id, outcome.clone(), now);
                }
            }
        }
    }

    /// Append a frame to a connection's write buffer and mark it dirty.
    fn write_to(&mut self, key: usize, payload: &[u8]) {
        if let Some(conn) = self.conns.get_mut(&key) {
            if conn.dead {
                return;
            }
            push_frame(&mut conn.wbuf, payload);
            self.dirty.insert(key);
        }
    }

    /// Flush every dirty connection; keep write interest only where the
    /// socket pushed back.
    fn flush_dirty(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for key in dirty {
            let Some(conn) = self.conns.get_mut(&key) else {
                continue;
            };
            if conn.dead {
                continue;
            }
            while conn.wstart < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wstart..]) {
                    Ok(0) => {
                        conn.dead = true;
                        self.dead.push(key);
                        break;
                    }
                    Ok(n) => conn.wstart += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        self.dead.push(key);
                        break;
                    }
                }
            }
            if conn.dead {
                continue;
            }
            if conn.wstart == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wstart = 0;
                if conn.closing {
                    conn.dead = true;
                    self.dead.push(key);
                    continue;
                }
                if conn.want_write {
                    conn.want_write = false;
                    let _ = self
                        .poller
                        .modify(conn.stream.as_raw_fd(), Event::readable(key));
                }
            } else {
                // Socket full: finish via writable readiness.
                self.dirty.insert(key);
                if !conn.want_write {
                    conn.want_write = true;
                    let _ = self.poller.modify(conn.stream.as_raw_fd(), Event::all(key));
                }
            }
        }
    }

    /// Tear down connections marked dead this iteration.
    fn reap_dead(&mut self) {
        if self.dead.is_empty() {
            return;
        }
        let dead = std::mem::take(&mut self.dead);
        for key in dead {
            let Some(conn) = self.conns.remove(&key) else {
                continue;
            };
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.parked_conns.remove(&key);
            self.dirty.remove(&key);
            self.subs.retain(|&(c, _), _| c != key);
            self.stats_subs.retain(|&(c, _), _| c != key);
            // In-flight tokens keep their waiter entries; delivery
            // skips missing connections (keys are never reused).
        }
        divot_telemetry::set_gauge("fleet.reactor.conns", self.conns.len() as f64);
        self.set_subs_gauge();
    }
}
