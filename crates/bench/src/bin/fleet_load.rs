//! Load benchmark for the `divot-fleet` attestation service: the phases
//! the wire benchmark of record (`divot_benchmark`, named in
//! `BENCHMARK.json`) cannot express, because its generator is capped at
//! two connections and its service runs the default worker count.
//!
//! - **worker scaling**: one cold drive over the wire against a fresh
//!   service at 1 and at 8 workers (`speedup_not_inverted` on ≥2 cores,
//!   `speedup_at_least_4x` on ≥8; SKIPPED on smaller hosts and under
//!   `--serial`);
//! - **overload burst**: typed sheds from a 1-worker, capacity-4 queue;
//! - **connection scaling**: the reactor at 1024 pipelined connections,
//!   at 10 000 connections (driven from a child process), and under
//!   reconnect churn;
//! - **overload fairness**: one greedy pipeline against seven modest
//!   connections.
//!
//! Run: `cargo run --release -p divot-bench --bin fleet_load`
//! (`--quick` runs the CI smoke instead: the worker-scaling drive, then a
//! 512-connection reactor smoke and a wire stats probe).
//!
//! Full mode writes `BENCH_fleet.json` (path override:
//! `DIVOT_FLEET_JSON`): host cores, git revision and the repeat count,
//! then one row per metric. The worker-scaling and 1024-connection
//! throughputs are the best of [`REPEATS`] passes; the other phases run
//! once, because their claims are thresholds.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use divot_bench::{banner, print_claim, print_metric, BenchCli};
use divot_core::itdr::AcqMode;
use divot_fleet::wire::{decode_event, encode_request_tagged, FrameBuffer};
use divot_fleet::{
    FleetClient, FleetConfig, FleetError, FleetService, FleetSimConfig, FleetTcpServer,
    PipelinedFleetClient, ReactorConfig, Request, Response, ShedReason, SimulatedFleet,
    WireEvent,
};
use divot_polling::{Event as PollEvent, Poller};

/// Fleet seed (any fixed value; verdicts are pure in it).
const SEED: u64 = 2020;

/// Passes behind each best-of throughput figure.
const REPEATS: usize = 2;

/// Buses behind the wire phases and the worker-scaling drive.
const WIRE_BUSES: usize = 64;
/// Distinct warm `(device, nonce)` pairs the parent primes before any
/// wire phase; the driver's workload cycles through exactly this set,
/// so steady-state serving is the reactor's cache-inline fast path.
const WIRE_WARM_SPAN: usize = 4096;
/// Nonce base of the warm wire workload.
const WIRE_NONCE_BASE: u64 = 1_000_000;

/// Enroll buses `0..buses` through `client`.
fn enroll_all(client: &FleetClient, buses: usize) {
    for i in 0..buses {
        client
            .call(Request::Enroll {
                device: SimulatedFleet::device_name(i),
                nonce: 1,
            })
            .expect("enroll");
    }
}

// ---------------------------------------------------------------------
// The wire load driver and its child-process protocol
// ---------------------------------------------------------------------

/// Why a driver spec or report line did not decode.
#[derive(Debug, PartialEq)]
enum ProtocolError {
    /// A field without `key=value` shape.
    Malformed(String),
    /// A key the protocol does not define.
    UnknownKey(String),
    /// A value that does not parse for its key.
    BadValue(String),
    /// A spec without `addr` or with zero `conns`.
    Incomplete,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(field) => write!(f, "malformed field {field:?}"),
            Self::UnknownKey(key) => write!(f, "unknown key {key:?}"),
            Self::BadValue(field) => write!(f, "bad value in {field:?}"),
            Self::Incomplete => write!(f, "driver spec needs addr and conns"),
        }
    }
}

/// Split a space-separated `key=value` line.
fn fields(line: &str) -> impl Iterator<Item = Result<(&str, &str), ProtocolError>> {
    line.split_whitespace().map(|field| {
        field
            .split_once('=')
            .ok_or_else(|| ProtocolError::Malformed(field.to_owned()))
    })
}

fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ProtocolError> {
    value
        .parse()
        .map_err(|_| ProtocolError::BadValue(format!("{key}={value}")))
}

/// One wire-load job: N pipelined connections replaying the workload
/// against `addr`. Serialized through the `DIVOT_FLEET_DRIVER`
/// environment variable when the job must run in a child process (10k
/// connections need their own FD budget).
#[derive(Debug, Clone, PartialEq)]
struct DriveSpec {
    addr: String,
    conns: usize,
    pipeline: usize,
    per_conn: usize,
    buses: usize,
    warm_span: usize,
    nonce_base: u64,
    /// Reconnect each connection after this many completions
    /// (`0` = no churn).
    churn_every: usize,
}

impl DriveSpec {
    fn encode(&self) -> String {
        format!(
            "addr={} conns={} pipeline={} per_conn={} buses={} warm_span={} nonce_base={} churn={}",
            self.addr,
            self.conns,
            self.pipeline,
            self.per_conn,
            self.buses,
            self.warm_span,
            self.nonce_base,
            self.churn_every,
        )
    }

    fn decode(line: &str) -> Result<Self, ProtocolError> {
        let mut spec = Self {
            addr: String::new(),
            conns: 0,
            pipeline: 1,
            per_conn: 1,
            buses: 1,
            warm_span: 1,
            nonce_base: 0,
            churn_every: 0,
        };
        for field in fields(line) {
            let (key, value) = field?;
            match key {
                "addr" => spec.addr = value.to_owned(),
                "conns" => spec.conns = parse(key, value)?,
                "pipeline" => spec.pipeline = parse(key, value)?,
                "per_conn" => spec.per_conn = parse(key, value)?,
                "buses" => spec.buses = parse(key, value)?,
                "warm_span" => spec.warm_span = parse(key, value)?,
                "nonce_base" => spec.nonce_base = parse(key, value)?,
                "churn" => spec.churn_every = parse(key, value)?,
                other => return Err(ProtocolError::UnknownKey(other.to_owned())),
            }
        }
        if spec.addr.is_empty() || spec.conns == 0 {
            return Err(ProtocolError::Incomplete);
        }
        Ok(spec)
    }

    /// The `(device, nonce)` of global request index `i` — shared by the
    /// driver and the priming pass.
    fn workload(&self, i: usize) -> (String, u64) {
        let k = i % self.warm_span.max(1);
        (
            SimulatedFleet::device_name(k % self.buses),
            self.nonce_base + k as u64,
        )
    }
}

/// What one drive produced, aggregated order-independently.
#[derive(Debug, Clone, Default, PartialEq)]
struct DriveReport {
    served: u64,
    accepted: u64,
    sheds: u64,
    errors: u64,
    reconnects: u64,
    elapsed_s: f64,
    p50_us: u64,
    p99_us: u64,
}

impl DriveReport {
    fn rps(&self) -> f64 {
        self.served as f64 / self.elapsed_s.max(1e-9)
    }

    /// `elapsed_s` prints in Rust's shortest round-trip form, so the
    /// parent decodes exactly what the child measured.
    fn encode(&self) -> String {
        format!(
            "served={} accepted={} sheds={} errors={} reconnects={} elapsed_s={} \
             p50_us={} p99_us={}",
            self.served,
            self.accepted,
            self.sheds,
            self.errors,
            self.reconnects,
            self.elapsed_s,
            self.p50_us,
            self.p99_us,
        )
    }

    fn decode(line: &str) -> Result<Self, ProtocolError> {
        let mut report = Self::default();
        for field in fields(line) {
            let (key, value) = field?;
            match key {
                "served" => report.served = parse(key, value)?,
                "accepted" => report.accepted = parse(key, value)?,
                "sheds" => report.sheds = parse(key, value)?,
                "errors" => report.errors = parse(key, value)?,
                "reconnects" => report.reconnects = parse(key, value)?,
                "elapsed_s" => report.elapsed_s = parse(key, value)?,
                "p50_us" => report.p50_us = parse(key, value)?,
                "p99_us" => report.p99_us = parse(key, value)?,
                other => return Err(ProtocolError::UnknownKey(other.to_owned())),
            }
        }
        Ok(report)
    }
}

fn connect_retry(addr: &str) -> Result<TcpStream, String> {
    let mut delay = Duration::from_millis(2);
    for attempt in 0..60 {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if attempt == 59 => return Err(format!("connect {addr}: {e}")),
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(100));
            }
        }
    }
    unreachable!()
}

/// One driver connection's state.
struct DriveConn {
    stream: TcpStream,
    frames: FrameBuffer,
    wbuf: Vec<u8>,
    wstart: usize,
    sent: usize,
    done: usize,
    want_write: bool,
    want_reconnect: bool,
    finished: bool,
    send_at: Vec<Option<Instant>>,
}

/// Drive the spec's workload with a single-threaded, poll-multiplexed
/// client loop: every connection keeps `pipeline` tagged requests in
/// flight until it has completed `per_conn`, reconnecting per the churn
/// setting. Runs in-process for modest connection counts and as a child
/// process (via `DIVOT_FLEET_DRIVER`) for the 10k phase, where client
/// FDs need their own process budget.
fn drive_wire(spec: &DriveSpec) -> Result<DriveReport, String> {
    let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut conns: Vec<DriveConn> = Vec::with_capacity(spec.conns);
    for c in 0..spec.conns {
        let stream = connect_retry(&spec.addr)?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        poller
            .add(stream.as_raw_fd(), PollEvent::readable(c))
            .map_err(|e| format!("register conn {c}: {e}"))?;
        conns.push(DriveConn {
            stream,
            frames: FrameBuffer::new(),
            wbuf: Vec::new(),
            wstart: 0,
            sent: 0,
            done: 0,
            want_write: false,
            want_reconnect: false,
            finished: false,
            send_at: vec![None; spec.per_conn],
        });
        // Pace the connect storm so the accept loop keeps up.
        if c % 512 == 511 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let mut report = DriveReport::default();
    let mut latencies: Vec<u64> = Vec::with_capacity(spec.conns * spec.per_conn);
    let total = spec.conns * spec.per_conn;
    let mut credited = 0usize;
    let started = Instant::now();

    /// Stage requests up to the pipeline window and push them toward the
    /// socket.
    fn pump(
        c: usize,
        conn: &mut DriveConn,
        spec: &DriveSpec,
        poller: &Poller,
    ) -> Result<(), String> {
        while !conn.finished
            && !conn.want_reconnect
            && conn.sent < spec.per_conn
            && conn.sent - conn.done < spec.pipeline
        {
            let j = conn.sent;
            let (device, nonce) = spec.workload(c * spec.per_conn + j);
            let payload = encode_request_tagged(j as u64, &Request::Verify { device, nonce }, None);
            conn.wbuf
                .extend_from_slice(&(payload.len() as u32).to_le_bytes());
            conn.wbuf.extend_from_slice(&payload);
            conn.send_at[j] = Some(Instant::now());
            conn.sent += 1;
        }
        while conn.wstart < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wstart..]) {
                Ok(0) => return Err("socket wrote 0".into()),
                Ok(n) => conn.wstart += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if conn.wstart == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wstart = 0;
            if conn.want_write {
                conn.want_write = false;
                let _ = poller.modify(conn.stream.as_raw_fd(), PollEvent::readable(c));
            }
        } else if !conn.want_write {
            conn.want_write = true;
            let _ = poller.modify(conn.stream.as_raw_fd(), PollEvent::all(c));
        }
        Ok(())
    }

    for (c, conn) in conns.iter_mut().enumerate() {
        pump(c, conn, spec, &poller).map_err(|e| format!("conn {c}: {e}"))?;
    }

    let mut events: Vec<PollEvent> = Vec::new();
    let mut chunk = vec![0u8; 64 << 10];
    let mut pending_reconnects = 0usize;
    while credited < total {
        events.clear();
        // With reconnects queued, poll briefly and come back for them;
        // otherwise a long timeout doubles as the stall detector.
        let timeout = if pending_reconnects > 0 {
            Duration::from_millis(1)
        } else {
            Duration::from_secs(20)
        };
        poller
            .wait(&mut events, Some(timeout))
            .map_err(|e| format!("wait: {e}"))?;
        if events.is_empty() && pending_reconnects == 0 {
            return Err(format!(
                "driver stalled: {credited}/{total} credited after 20s of silence"
            ));
        }
        for ev in events.iter().copied() {
            let c = ev.key;
            let mut failed: Option<String> = None;
            if ev.readable {
                'read: loop {
                    let conn = &mut conns[c];
                    if conn.finished {
                        break;
                    }
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            failed = Some("peer closed".into());
                            break;
                        }
                        Ok(n) => {
                            let short = n < chunk.len();
                            conn.frames.extend(&chunk[..n]);
                            loop {
                                let frame = match conns[c].frames.next_frame() {
                                    Ok(Some(f)) => f,
                                    Ok(None) => break,
                                    Err(e) => {
                                        failed = Some(format!("frame: {e}"));
                                        break 'read;
                                    }
                                };
                                let conn = &mut conns[c];
                                let (id, outcome) = match decode_event(&frame) {
                                    Ok(WireEvent::Reply { id, outcome }) => (id, outcome),
                                    Ok(other) => {
                                        failed = Some(format!("unexpected event {other:?}"));
                                        break 'read;
                                    }
                                    Err(e) => {
                                        failed = Some(format!("decode: {e}"));
                                        break 'read;
                                    }
                                };
                                let j = id as usize;
                                if j >= spec.per_conn || conn.send_at[j].is_none() {
                                    failed = Some(format!("reply for unknown id {id}"));
                                    break 'read;
                                }
                                let sent_at = conn.send_at[j].take().expect("checked");
                                conn.done += 1;
                                credited += 1;
                                match *outcome {
                                    Ok(Response::Verdict { accepted, .. }) => {
                                        latencies
                                            .push(sent_at.elapsed().as_micros().min(u128::from(u64::MAX))
                                                as u64);
                                        report.served += 1;
                                        report.accepted += u64::from(accepted);
                                    }
                                    Err(FleetError::Overloaded { .. }) => report.sheds += 1,
                                    _ => report.errors += 1,
                                }
                                // Staggered by connection index: if the
                                // whole pool reconnected in lockstep the
                                // accept backlog would overflow and the
                                // kernel's SYN retransmit (1 s) would
                                // dominate every latency.
                                if spec.churn_every > 0
                                    && conn.done < spec.per_conn
                                    && (conn.done + c).is_multiple_of(spec.churn_every)
                                {
                                    conn.want_reconnect = true;
                                }
                            }
                            if short {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => {
                            failed = Some(format!("read: {e}"));
                            break;
                        }
                    }
                }
            }
            if failed.is_none() {
                if let Err(e) = pump(c, &mut conns[c], spec, &poller) {
                    failed = Some(e);
                }
            }
            if let Some(_why) = failed {
                // Retire the connection: remaining credit becomes errors.
                let conn = &mut conns[c];
                if !conn.finished {
                    conn.finished = true;
                    let _ = poller.delete(conn.stream.as_raw_fd());
                    let remaining = spec.per_conn - conn.done;
                    report.errors += remaining as u64;
                    credited += remaining;
                }
            }
            if conns[c].done == spec.per_conn && !conns[c].finished {
                conns[c].finished = true;
                let _ = poller.delete(conns[c].stream.as_raw_fd());
            }
        }
        // Paced reconnect sweep: rotate drained churners a backlog-safe
        // handful per iteration. An unpaced burst can overflow the
        // listener's accept backlog, and one dropped SYN parks the whole
        // driver on the kernel's 1 s retransmit — which would measure
        // the kernel's timer, not the server under churn.
        if spec.churn_every > 0 {
            pending_reconnects = 0;
            let mut budget = 16usize;
            for (c, conn) in conns.iter_mut().enumerate() {
                if !conn.want_reconnect || conn.done != conn.sent || conn.finished {
                    continue;
                }
                if budget == 0 {
                    pending_reconnects += 1;
                    continue;
                }
                budget -= 1;
                let _ = poller.delete(conn.stream.as_raw_fd());
                let mut failed: Option<String> = None;
                match connect_retry(&spec.addr) {
                    Ok(stream) => {
                        if stream.set_nodelay(true).is_err()
                            || stream.set_nonblocking(true).is_err()
                            || poller.add(stream.as_raw_fd(), PollEvent::readable(c)).is_err()
                        {
                            failed = Some("reconnect setup".into());
                        } else {
                            conn.stream = stream;
                            conn.frames = FrameBuffer::new();
                            conn.wbuf.clear();
                            conn.wstart = 0;
                            conn.want_write = false;
                            conn.want_reconnect = false;
                            report.reconnects += 1;
                        }
                    }
                    Err(e) => failed = Some(format!("reconnect: {e}")),
                }
                if failed.is_none() {
                    if let Err(e) = pump(c, conn, spec, &poller) {
                        failed = Some(e);
                    }
                }
                if failed.is_some() {
                    conn.finished = true;
                    let _ = poller.delete(conn.stream.as_raw_fd());
                    let remaining = spec.per_conn - conn.done;
                    report.errors += remaining as u64;
                    credited += remaining;
                }
            }
        }
    }
    report.elapsed_s = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let pick = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    report.p50_us = pick(0.5);
    report.p99_us = pick(0.99);
    Ok(report)
}

/// Run a drive in a re-exec of this binary so the client FDs live in
/// their own process — 10k client sockets plus 10k server sockets do
/// not fit one default FD budget.
fn run_child_driver(spec: &DriveSpec) -> Result<DriveReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .env("DIVOT_FLEET_DRIVER", spec.encode())
        .output()
        .map_err(|e| format!("spawn driver: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "driver child failed ({}): {}{}",
            out.status,
            stdout,
            String::from_utf8_lossy(&out.stderr),
        ));
    }
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("driver: "))
        .ok_or_else(|| format!("driver child printed no report: {stdout}"))?;
    DriveReport::decode(line).map_err(|e| format!("driver report: {e}"))
}

/// Start the service the wire phases share — warm: every workload
/// `(device, nonce)` pair is primed into the verdict cache, so the
/// drives measure the wire layer, not the acquisition engine.
fn start_wire_service(warm_span: usize) -> FleetService {
    let svc = FleetService::start(
        FleetConfig::default()
            .with_workers(2)
            // The verdict cache must hold the whole warm span. At the
            // default capacity, 4096 warm pairs land on 16 stripes of 256
            // entries keyed by device, the busier stripes overflow, and
            // each overflow evicts its stripe wholesale. The queue is as
            // wide, so a miss that does reach it is never shed: 10k
            // connections keep 40 000 requests in flight. The wire phases
            // measure transport, not admission control.
            .with_queue_capacity(65_536)
            .with_verdict_cache_capacity(65_536),
        SimulatedFleet::new(FleetSimConfig::fast(WIRE_BUSES, SEED)),
    );
    let client = svc.client();
    enroll_all(&client, WIRE_BUSES);
    for k in 0..warm_span {
        client
            .call(Request::Verify {
                device: SimulatedFleet::device_name(k % WIRE_BUSES),
                nonce: WIRE_NONCE_BASE + k as u64,
            })
            .expect("prime warm pair");
    }
    svc
}

fn report_drive(report: &DriveReport, expect: usize) {
    print_metric("served", report.served);
    print_metric("sheds", report.sheds);
    print_metric("errors", report.errors);
    if report.reconnects > 0 {
        print_metric("reconnects", report.reconnects);
    }
    print_metric("throughput_rps", format!("{:.0}", report.rps()));
    print_metric("p50_ms", format!("{:.3}", report.p50_us as f64 / 1e3));
    print_metric("p99_ms", format!("{:.3}", report.p99_us as f64 / 1e3));
    print_claim(
        "all_served_accepted",
        report.served == expect as u64
            && report.accepted == report.served
            && report.errors == 0
            && report.sheds == 0,
    );
}

// ---------------------------------------------------------------------
// Worker scaling and overload
// ---------------------------------------------------------------------

/// Connections of the worker-scaling drive.
const SCALE_CONNS: usize = 8;
/// Pipeline depth per connection: 8 × 16 = 128 requests in flight,
/// under the default admission queue capacity (256), so none is shed
/// and throughput is the worker pool's.
const SCALE_PIPELINE: usize = 16;
/// Requests per connection.
const SCALE_PER_CONN: usize = 256;
/// Nonce base of the worker-scaling drive.
const SCALE_NONCE_BASE: u64 = 10_000;

/// One cold drive: a fresh `workers`-worker service in the default
/// configuration with the wire buses enrolled and nothing primed. Every
/// request names a distinct `(device, nonce)`, so each one misses the
/// verdict cache and runs an acquisition.
fn cold_drive(workers: usize) -> DriveReport {
    let svc = FleetService::start(
        FleetConfig::default().with_workers(workers),
        SimulatedFleet::new(FleetSimConfig::fast(WIRE_BUSES, SEED)),
    );
    enroll_all(&svc.client(), WIRE_BUSES);
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind reactor");
    let spec = DriveSpec {
        addr: server.local_addr().to_string(),
        conns: SCALE_CONNS,
        pipeline: SCALE_PIPELINE,
        per_conn: SCALE_PER_CONN,
        buses: WIRE_BUSES,
        warm_span: SCALE_CONNS * SCALE_PER_CONN,
        nonce_base: SCALE_NONCE_BASE,
        churn_every: 0,
    };
    drive_wire(&spec).expect("scaling drive")
}

/// The worker-scaling claims: cold throughput at 8 workers over 1,
/// asserted only where there are cores to scale onto (the ≥4× target
/// needs ≥8, the no-inversion floor ≥2).
fn scaling_phase(cli: &BenchCli, cores: usize) -> Vec<(String, f64)> {
    banner(&format!(
        "worker scaling (cold verifies over the wire, 1 vs 8 workers, best of {REPEATS})"
    ));
    print_metric("cores", cores);
    if cli.args.serial {
        print_metric("scaling_comparison", "SKIPPED (--serial)");
        return Vec::new();
    }
    let expect = (SCALE_CONNS * SCALE_PER_CONN) as u64;
    let mut rps = [0.0f64; 2];
    let mut all_served = true;
    // Passes alternate worker counts, so drift on a shared host reaches
    // both counts alike.
    for _ in 0..REPEATS {
        for (slot, workers) in [1, 8].into_iter().enumerate() {
            let report = cold_drive(workers);
            all_served &= report.served == expect && report.accepted == expect;
            rps[slot] = rps[slot].max(report.rps());
        }
    }
    let speedup = rps[1] / rps[0];
    print_metric("conns", SCALE_CONNS);
    print_metric("pipeline", SCALE_PIPELINE);
    print_metric("requests_per_drive", expect);
    print_metric("cold_rps_workers_1", format!("{:.0}", rps[0]));
    print_metric("cold_rps_workers_8", format!("{:.0}", rps[1]));
    print_metric("speedup_8_over_1", format!("{speedup:.2}"));
    print_claim("scaling_all_served_accepted", all_served);
    if cores >= 8 {
        print_claim("speedup_at_least_4x", speedup >= 4.0);
    } else {
        print_metric(
            "speedup_at_least_4x",
            format!("SKIPPED (needs >=8 cores, have {cores})"),
        );
    }
    if cores >= 2 {
        print_claim("speedup_not_inverted", speedup >= 1.0);
    } else {
        print_metric(
            "speedup_not_inverted",
            format!("SKIPPED (needs >=2 cores, have {cores})"),
        );
    }
    vec![
        ("fleet/scaling/cold_rps_workers_1".into(), rps[0]),
        ("fleet/scaling/cold_rps_workers_8".into(), rps[1]),
        ("fleet/speedup_8_over_1".into(), speedup),
    ]
}

/// A 48-request burst into a 1-worker, capacity-4 queue. Trial-mode
/// acquisition keeps each verify expensive enough that a burst of *new*
/// requests genuinely overruns one worker — the shed path under test is
/// admission control, not the verdict cache.
fn overload_phase() -> Vec<(String, f64)> {
    banner("overload (1 worker, queue capacity 4, 48-request burst)");
    let svc = FleetService::start(
        FleetConfig::default().with_workers(1).with_queue_capacity(4),
        SimulatedFleet::new(FleetSimConfig::fast(2, SEED).with_acq_mode(AcqMode::Trial)),
    );
    let client = svc.client();
    enroll_all(&client, 1);
    let sheds = AtomicUsize::new(0);
    let served = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for k in 0..48u64 {
            let (sheds, served, client) = (&sheds, &served, client.clone());
            scope.spawn(move || match client.call(Request::Verify {
                device: SimulatedFleet::device_name(0),
                nonce: 70_000 + k,
            }) {
                Ok(Response::Verdict { .. }) => {
                    served.fetch_add(1, Ordering::Relaxed);
                }
                Err(FleetError::Overloaded { .. }) => {
                    sheds.fetch_add(1, Ordering::Relaxed);
                }
                other => panic!("unexpected {other:?}"),
            });
        }
    });
    let (sheds, served) = (sheds.into_inner(), served.into_inner());
    print_metric("burst_served", served);
    print_metric("burst_sheds", sheds);
    print_claim("overload_sheds_typed", sheds > 0 && served > 0);
    vec![("fleet/overload_shed_rate".into(), sheds as f64 / 48.0)]
}

// ---------------------------------------------------------------------
// Connection scaling and fairness over the reactor
// ---------------------------------------------------------------------

/// The connection-scaling phases: the reactor at 1024 connections, the
/// 10k-connection phase (child process), and churn. Returns the metrics
/// to merge into the JSON document.
fn wire_scaling_phases() -> Vec<(String, f64)> {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    banner("wire: warm service setup (64 buses, 4096 warm pairs)");
    let svc = start_wire_service(WIRE_WARM_SPAN);
    print_metric("buses", WIRE_BUSES);
    print_metric("warm_pairs", WIRE_WARM_SPAN);

    let spec = |addr: String, conns: usize, pipeline: usize, per_conn: usize, churn: usize| {
        DriveSpec {
            addr,
            conns,
            pipeline,
            per_conn,
            buses: WIRE_BUSES,
            warm_span: WIRE_WARM_SPAN,
            nonce_base: WIRE_NONCE_BASE,
            churn_every: churn,
        }
    };

    // 1024 connections, pipeline 32 — the regime the reactor exists
    // for: deep pipelining amortizes the per-wakeup poll cost across
    // many frames. Best of `REPEATS` passes: a single short pass on a
    // shared box measures scheduler luck as much as the server.
    const VS_CONNS: usize = 1024;
    const VS_PIPELINE: usize = 32;
    const VS_PER_CONN: usize = 64;
    banner(&format!(
        "wire: reactor (1024 conns, pipeline 32, best of {REPEATS})"
    ));
    let reactor_rps = {
        let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind reactor");
        let s = spec(server.local_addr().to_string(), VS_CONNS, VS_PIPELINE, VS_PER_CONN, 0);
        let report = (0..REPEATS)
            .map(|_| drive_wire(&s).expect("reactor drive"))
            .max_by(|a, b| a.rps().total_cmp(&b.rps()))
            .expect("at least one pass");
        report_drive(&report, VS_CONNS * VS_PER_CONN);
        report.rps()
    };
    metrics.push(("fleet/wire/reactor_rps_1024".into(), reactor_rps));

    banner("wire: reactor connection scaling (10000 conns, child driver)");
    {
        let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind reactor");
        let s = spec(server.local_addr().to_string(), 10_000, 4, 20, 0);
        print_metric("conns", s.conns);
        print_metric("pipeline", s.pipeline);
        print_metric("requests", s.conns * s.per_conn);
        let report = run_child_driver(&s).expect("10k drive");
        report_drive(&report, s.conns * s.per_conn);
        print_claim("ten_k_connections_served", report.served == (s.conns * s.per_conn) as u64);
        print_claim("ten_k_p99_under_2s", report.p99_us < 2_000_000);
        metrics.extend([
            ("fleet/wire/reactor_conns".into(), s.conns as f64),
            ("fleet/wire/reactor_rps_10k".into(), report.rps()),
            ("fleet/wire/p50_ms_10k".into(), report.p50_us as f64 / 1e3),
            ("fleet/wire/p99_ms_10k".into(), report.p99_us as f64 / 1e3),
        ]);
    }

    banner("wire: churn (512 conns reconnecting every ~8 requests)");
    {
        // 512 staggered churners keep simultaneous reconnects under the
        // listener's accept backlog; beyond it, dropped SYNs and their
        // 1 s kernel retransmit would measure the kernel, not the
        // reactor.
        let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind reactor");
        let s = spec(server.local_addr().to_string(), 512, 4, 24, 8);
        let report = drive_wire(&s).expect("churn drive");
        report_drive(&report, s.conns * s.per_conn);
        print_claim(
            "churn_reconnects_at_least_twice_per_conn",
            report.reconnects >= 2 * 512,
        );
        print_claim("churn_p99_under_2s", report.p99_us < 2_000_000);
        metrics.extend([
            ("fleet/wire/churn_conns".into(), s.conns as f64),
            ("fleet/wire/churn_reconnects".into(), report.reconnects as f64),
            ("fleet/wire/churn_p99_ms".into(), report.p99_us as f64 / 1e3),
            ("fleet/wire/churn_rps".into(), report.rps()),
        ]);
    }
    drop(svc);
    metrics
}

/// Overload fairness: one greedy deep-pipelined connection and seven
/// modest ones against a deliberately starved service (1 worker, tiny
/// queue, cache off, trial-mode acquisition). Round-robin admission
/// must serve every modest request while the greedy backlog takes the
/// fair-share sheds.
fn wire_fairness_phase() -> Vec<(String, f64)> {
    banner("wire: overload fairness (greedy pipeline vs 7 modest conns)");
    const FAIR_BUSES: usize = 8;
    let svc = FleetService::start(
        FleetConfig::default()
            .with_workers(1)
            .with_queue_capacity(8)
            .with_verdict_cache_capacity(0),
        SimulatedFleet::new(FleetSimConfig::fast(FAIR_BUSES, SEED).with_acq_mode(AcqMode::Trial)),
    );
    let client = svc.client();
    enroll_all(&client, FAIR_BUSES);
    // Size the greedy backlog off the measured per-request cost so the
    // phase saturates for several patience windows on any host.
    let t0 = Instant::now();
    for k in 0..4u64 {
        client
            .call(Request::Verify {
                device: SimulatedFleet::device_name(0),
                nonce: 500_000 + k,
            })
            .expect("probe verify");
    }
    let per_req = t0.elapsed() / 4;
    let patience = Duration::from_millis(400);
    let greedy_n = (patience.as_secs_f64() * 4.0 / per_req.as_secs_f64().max(1e-6))
        .ceil()
        .clamp(64.0, 4096.0) as usize;
    print_metric("probe_per_request_ms", format!("{:.2}", per_req.as_secs_f64() * 1e3));
    print_metric("greedy_requests", greedy_n);

    let server = FleetTcpServer::spawn_reactor(
        svc.client(),
        "127.0.0.1:0",
        ReactorConfig {
            pipeline_window: 8,
            parked_capacity: 8192,
            admission_timeout: patience,
            ..ReactorConfig::default()
        },
    )
    .expect("bind reactor");
    let addr = server.local_addr();

    let (greedy_served, greedy_fair, greedy_queue_full) = {
        let greedy = std::thread::spawn(move || {
            let mut c = PipelinedFleetClient::connect(addr).expect("connect greedy");
            let batch: Vec<(Request, Option<Duration>)> = (0..greedy_n)
                .map(|k| {
                    (
                        Request::Verify {
                            device: SimulatedFleet::device_name(k % FAIR_BUSES),
                            nonce: 600_000 + k as u64,
                        },
                        Some(Duration::from_secs(30)),
                    )
                })
                .collect();
            let ids = c.send_batch(&batch).expect("send greedy batch");
            let (mut served, mut fair, mut queue_full) = (0u64, 0u64, 0u64);
            for _ in 0..ids.len() {
                match c.recv_event().expect("greedy event") {
                    WireEvent::Reply { outcome, .. } => match *outcome {
                        Ok(_) => served += 1,
                        Err(FleetError::Overloaded {
                            reason: ShedReason::FairShare,
                            ..
                        }) => fair += 1,
                        Err(FleetError::Overloaded {
                            reason: ShedReason::QueueFull,
                            ..
                        }) => queue_full += 1,
                        Err(other) => panic!("greedy: unexpected {other:?}"),
                    },
                    other => panic!("greedy: unexpected event {other:?}"),
                }
            }
            (served, fair, queue_full)
        });
        // Give the greedy batch a head start so the backlog exists
        // before the modest requests arrive.
        std::thread::sleep(Duration::from_millis(50));
        let modest_served = AtomicUsize::new(0);
        let modest_sheds = AtomicUsize::new(0);
        let worst = std::sync::Mutex::new(Duration::ZERO);
        std::thread::scope(|scope| {
            for m in 0..7usize {
                let (modest_served, modest_sheds, worst) = (&modest_served, &modest_sheds, &worst);
                scope.spawn(move || {
                    let mut c = PipelinedFleetClient::connect(addr).expect("connect modest");
                    for r in 0..4u64 {
                        let t0 = Instant::now();
                        c.send(
                            &Request::Verify {
                                device: SimulatedFleet::device_name(m % FAIR_BUSES),
                                nonce: 700_000 + m as u64 * 100 + r,
                            },
                            Some(Duration::from_secs(30)),
                        )
                        .expect("modest send");
                        match c.recv_event().expect("modest event") {
                            WireEvent::Reply { outcome, .. } => match *outcome {
                                Ok(_) => {
                                    modest_served.fetch_add(1, Ordering::Relaxed);
                                    let lat = t0.elapsed();
                                    let mut w = worst.lock().expect("lock");
                                    if lat > *w {
                                        *w = lat;
                                    }
                                }
                                Err(_) => {
                                    modest_sheds.fetch_add(1, Ordering::Relaxed);
                                }
                            },
                            other => panic!("modest: unexpected event {other:?}"),
                        }
                    }
                });
            }
        });
        let modest_served = modest_served.into_inner();
        let modest_sheds = modest_sheds.into_inner();
        let worst = worst.into_inner().expect("lock");
        print_metric("modest_served", modest_served);
        print_metric("modest_sheds", modest_sheds);
        print_metric("modest_worst_latency_ms", format!("{:.1}", worst.as_secs_f64() * 1e3));
        print_claim("modest_conns_not_starved", modest_served == 28 && modest_sheds == 0);
        greedy.join().expect("greedy thread")
    };
    print_metric("greedy_served", greedy_served);
    print_metric("greedy_sheds_fair_share", greedy_fair);
    print_metric("greedy_sheds_queue_full", greedy_queue_full);
    print_claim(
        "greedy_backlog_takes_fair_share_sheds",
        greedy_fair > 0 && greedy_served > 0,
    );
    drop(server);
    drop(svc);
    vec![
        ("fleet/wire/fairness_modest_served".into(), 28.0),
        ("fleet/wire/fairness_greedy_sheds_fair".into(), greedy_fair as f64),
    ]
}

/// The `--quick` reactor smoke: 512 pipelined connections in-process,
/// zero protocol errors, zero sheds, bounded p99 — then a wire stats
/// probe asserting the health plane sees the burst it just served.
fn quick_wire_smoke() {
    banner("wire smoke (512 pipelined conns over the reactor)");
    // The stats snapshot reads this process's metric registry; make
    // sure one exists even without `--telemetry`/`--metrics-summary`.
    let _ = divot_telemetry::install(divot_telemetry::Telemetry::new());
    const SPAN: usize = 512;
    let svc = start_wire_service(SPAN);
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind reactor");
    let s = DriveSpec {
        addr: server.local_addr().to_string(),
        conns: 512,
        pipeline: 4,
        per_conn: 8,
        buses: WIRE_BUSES,
        warm_span: SPAN,
        nonce_base: WIRE_NONCE_BASE,
        churn_every: 0,
    };
    let report = drive_wire(&s).expect("wire smoke drive");
    report_drive(&report, s.conns * s.per_conn);
    print_claim("wire_smoke_zero_errors", report.errors == 0 && report.sheds == 0);
    print_claim("wire_smoke_p99_under_500ms", report.p99_us < 500_000);

    banner("wire smoke (stats probe)");
    let mut probe =
        PipelinedFleetClient::connect(server.local_addr()).expect("connect stats probe");
    let stats = probe.request_stats(None).expect("wire stats");
    let verifies = stats
        .histogram("fleet.request.latency.verify")
        .map_or(0, |(count, ..)| count);
    let accepts = stats.counter("fleet.verify.accepts").unwrap_or(0);
    print_metric("stats_queue_capacity", stats.queue_capacity);
    print_metric("stats_verify_count", verifies);
    print_metric("stats_verify_accepts", accepts);
    print_claim(
        "wire_stats_sees_verifies",
        stats.queue_capacity > 0 && verifies > 0 && accepts > 0,
    );
}

/// Render `BENCH_fleet.json`: host metadata (cores, the checkout's git
/// revision or `null`, the repeat count), then one row per metric.
fn render_json(cores: usize, metrics: &[(String, f64)]) -> String {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("null".to_owned(), |o| {
            format!("\"{}\"", String::from_utf8_lossy(&o.stdout).trim())
        });
    let rows: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("    \"{name}\": {value:.3}"))
        .collect();
    format!(
        "{{\n  \"host\": {{\"cores\": {cores}, \"git_rev\": {git_rev}, \"repeats\": {REPEATS}}},\n  \
         \"metrics\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n"),
    )
}

fn main() -> std::process::ExitCode {
    // Child-driver mode: this binary re-execs itself for the
    // 10k-connection phase so the client sockets get their own process
    // FD budget (10k client + 10k server FDs overflow one).
    if let Ok(spec) = std::env::var("DIVOT_FLEET_DRIVER") {
        return match DriveSpec::decode(&spec)
            .map_err(|e| format!("driver spec: {e}"))
            .and_then(|s| drive_wire(&s))
        {
            Ok(report) => {
                println!("driver: {}", report.encode());
                std::process::ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("driver error: {e}");
                std::process::ExitCode::FAILURE
            }
        };
    }
    let cli = BenchCli::parse();
    let cores = divot_dsp::par::max_threads();
    let mut metrics = scaling_phase(&cli, cores);
    if cli.quick() {
        quick_wire_smoke();
        return cli.finish();
    }
    metrics.extend(overload_phase());
    metrics.extend(wire_scaling_phases());
    metrics.extend(wire_fairness_phase());

    banner("results file");
    let path =
        std::env::var("DIVOT_FLEET_JSON").unwrap_or_else(|_| "BENCH_fleet.json".to_owned());
    match std::fs::write(&path, render_json(cores, &metrics)) {
        Ok(()) => print_metric("json_written", &path),
        Err(e) => {
            eprintln!("error: writing {path}: {e}");
            return std::process::ExitCode::FAILURE;
        }
    }
    cli.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DriveSpec {
        DriveSpec {
            addr: "127.0.0.1:40123".into(),
            conns: 10_000,
            pipeline: 4,
            per_conn: 20,
            buses: 64,
            warm_span: 4096,
            nonce_base: u64::MAX - 7,
            churn_every: 8,
        }
    }

    #[test]
    fn driver_protocol_round_trips_exactly() {
        let s = spec();
        assert_eq!(DriveSpec::decode(&s.encode()), Ok(s));
        let report = DriveReport {
            served: 199_998,
            accepted: 199_997,
            sheds: 1,
            errors: 1,
            reconnects: 1280,
            // Not representable in a fixed number of decimals.
            elapsed_s: 0.1 + 0.2,
            p50_us: 166_800,
            p99_us: u64::MAX,
        };
        assert_eq!(DriveReport::decode(&report.encode()), Ok(report));
        assert_eq!(
            DriveReport::decode(&DriveReport::default().encode()),
            Ok(DriveReport::default())
        );
    }

    #[test]
    fn malformed_or_unknown_driver_fields_are_typed_errors() {
        let good = spec().encode();
        let cases = [
            (format!("{good} churn"), ProtocolError::Malformed("churn".into())),
            (format!("{good} threads=2"), ProtocolError::UnknownKey("threads".into())),
            (
                good.replace("conns=10000", "conns=-1"),
                ProtocolError::BadValue("conns=-1".into()),
            ),
            (
                good.replace("nonce_base=18446744073709551608", "nonce_base=18446744073709551616"),
                ProtocolError::BadValue("nonce_base=18446744073709551616".into()),
            ),
            ("conns=4".to_owned(), ProtocolError::Incomplete),
            (String::new(), ProtocolError::Incomplete),
        ];
        for (line, want) in cases {
            assert_eq!(DriveSpec::decode(&line), Err(want), "spec {line:?}");
        }
        let report = [
            ("served=1 accepted", ProtocolError::Malformed("accepted".into())),
            ("served=1 latency=3", ProtocolError::UnknownKey("latency".into())),
            ("elapsed_s=fast", ProtocolError::BadValue("elapsed_s=fast".into())),
            ("p99_us=1.5", ProtocolError::BadValue("p99_us=1.5".into())),
            ("=", ProtocolError::UnknownKey(String::new())),
        ];
        for (line, want) in report {
            assert_eq!(DriveReport::decode(line), Err(want), "report {line:?}");
        }
    }
}
