//! `fleet_top` — a live fleet health monitor over the stats wire.
//!
//! Connects to a running [`FleetTcpServer`] with a
//! [`PipelinedFleetClient`], registers a streaming stats subscription,
//! and renders each pushed [`FleetStats`] snapshot as a refreshing
//! plain-text operator dashboard: request rate, per-kind latency
//! quantiles, verdict-cache hits, shed reasons, queue and store-lock health.
//! The probe path is the reactor's inline stats serving, so the
//! dashboard stays live even when the worker pool is saturated — the
//! exact moment an operator needs it.
//!
//! Configuration (environment, since the shared [`BenchCli`] flag set
//! is deliberately closed):
//!
//! - `FLEET_TOP_ADDR` — server to watch (`host:port`). Unset: start a
//!   self-hosted demo fleet with a background load generator.
//! - `FLEET_TOP_INTERVAL_MS` — refresh interval (default 500).
//! - `FLEET_TOP_FRAMES` — frames to render, `0` = until the stream
//!   ends (default 0; the demo and `--quick` default to a bounded run).

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use divot_bench::{banner, BenchCli, USAGE};
use divot_fleet::{
    FleetConfig, FleetService, FleetSimConfig, FleetStats, FleetTcpServer, PipelinedFleetClient,
    Request, Response, SimulatedFleet, WireEvent,
};

const DEMO_SEED: u64 = 2020;
const DEMO_BUSES: usize = 8;

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {name}=`{v}` is not an integer");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }),
        Err(_) => default,
    }
}

/// The self-hosted demo fleet: a small enrolled population plus one
/// background thread cycling verify/scan traffic so the dashboard has
/// something to show.
struct DemoFleet {
    // Field order is drop order: silence the load generator before the
    // server and service go away.
    stop: Arc<AtomicBool>,
    load: Option<std::thread::JoinHandle<()>>,
    server: FleetTcpServer,
    _svc: FleetService,
}

impl DemoFleet {
    fn start() -> Self {
        // The demo fleet runs in-process: the stats snapshot reads this
        // process's registry, so make sure one exists even without
        // `--telemetry`/`--metrics-summary`.
        let _ = divot_telemetry::install(divot_telemetry::Telemetry::new());
        let svc = FleetService::start(
            FleetConfig::default().with_workers(2),
            SimulatedFleet::new(FleetSimConfig::fast(DEMO_BUSES, DEMO_SEED)),
        );
        let client = svc.client();
        for i in 0..DEMO_BUSES {
            client
                .call(Request::Enroll {
                    device: SimulatedFleet::device_name(i),
                    nonce: 1,
                })
                .expect("demo enroll");
        }
        // A population model over the whole demo fleet, so intake
        // scans in the load mix keep the cohort counters moving.
        client
            .call(Request::CohortEnroll {
                devices: (0..DEMO_BUSES)
                    .map(|i| (SimulatedFleet::device_name(i), 2))
                    .collect(),
            })
            .expect("demo cohort enroll");
        let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind demo server");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let load = std::thread::Builder::new()
            .name("fleet-top-load".into())
            .spawn(move || {
                // A mixed warm/cold workload: repeats inside a small
                // nonce window hit the verdict cache, the rest exercise
                // the acquisition path; every 16th request is a scan.
                let mut k = 0u64;
                while !flag.load(Ordering::Relaxed) {
                    let device = SimulatedFleet::device_name((k % DEMO_BUSES as u64) as usize);
                    let nonce = 100 + (k / 4) % 64;
                    let request = if k % 64 == 21 {
                        // An intake batch: four boards through the
                        // golden-free population path.
                        Request::IntakeScan {
                            devices: (0..4)
                                .map(|i| (SimulatedFleet::device_name(i), 3000 + k))
                                .collect(),
                        }
                    } else if k % 16 == 5 {
                        Request::MonitorScan { device, nonce }
                    } else {
                        Request::Verify { device, nonce }
                    };
                    let _ = client.call(request);
                    k += 1;
                }
            })
            .expect("spawn load generator");
        Self {
            stop,
            load: Some(load),
            server,
            _svc: svc,
        }
    }

    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }
}

impl Drop for DemoFleet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.load.take() {
            let _ = h.join();
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Sum of per-kind request latency counts — the served-request total
/// the rate is derived from.
fn served_total(stats: &FleetStats) -> u64 {
    stats
        .histograms
        .iter()
        .filter(|(name, ..)| name.starts_with("fleet.request.latency."))
        .map(|&(_, count, ..)| count)
        .sum()
}

fn render(stats: &FleetStats, prev: Option<&FleetStats>, interval: Duration, clear: bool) {
    let mut out = String::with_capacity(2048);
    if clear {
        out.push_str("\x1b[2J\x1b[H");
    }
    let c = |name: &str| stats.counter(name).unwrap_or(0);
    let served = served_total(stats);
    let rate = prev.map(|p| {
        let delta = served.saturating_sub(served_total(p));
        delta as f64 / interval.as_secs_f64().max(1e-9)
    });

    out.push_str("fleet_top — DIVOT fleet health\n");
    out.push_str(&format!(
        "queue {:>5}/{:<5}  workers {:<2}  conns {:<5}  subs {:<3}  served {served}",
        stats.queue_depth,
        stats.queue_capacity,
        stats.gauge("fleet.workers").unwrap_or(0.0) as u64,
        stats.gauge("fleet.reactor.conns").unwrap_or(0.0) as u64,
        stats.gauge("fleet.reactor.subs").unwrap_or(0.0) as u64,
    ));
    match rate {
        Some(rps) => out.push_str(&format!("  rate {rps:>8.0} rps\n")),
        None => out.push_str("  rate        — rps\n"),
    }

    out.push_str("\nrequests (latency)\n");
    out.push_str("  kind          count       p50       p90       p99\n");
    for (name, count, p50, p90, p99) in &stats.histograms {
        let Some(kind) = name.strip_prefix("fleet.request.latency.") else {
            continue;
        };
        // Latency histograms observe seconds; render alongside the
        // `_ns` histograms in one unit.
        out.push_str(&format!(
            "  {kind:<12}{count:>7}  {:>8}  {:>8}  {:>8}\n",
            fmt_ns(*p50 * 1e9),
            fmt_ns(*p90 * 1e9),
            fmt_ns(*p99 * 1e9),
        ));
    }

    let hits = c("fleet.cache.verdict_hits");
    let miss = c("fleet.cache.misses");
    let lookups = hits + miss;
    let hit_pct = if lookups > 0 {
        100.0 * hits as f64 / lookups as f64
    } else {
        0.0
    };
    out.push_str(&format!(
        "\nverdict cache   hits {hits}  miss {miss}  evict {}  hit {hit_pct:.1}%\n",
        c("fleet.cache.evictions"),
    ));
    out.push_str(&format!(
        "verify          accept {}  reject {}  retries {}\n",
        c("fleet.verify.accepts"),
        c("fleet.verify.rejects"),
        c("fleet.retries"),
    ));
    out.push_str(&format!(
        "cohort          scans {}  models {}  genuine {}  counterfeit {}  tampered {}  inconcl {}\n",
        c("fleet.cohort.scans"),
        c("fleet.cohort.model.rebuilds"),
        c("fleet.cohort.verdict.genuine"),
        c("fleet.cohort.verdict.counterfeit"),
        c("fleet.cohort.verdict.tampered"),
        c("fleet.cohort.verdict.inconclusive"),
    ));
    out.push_str(&format!(
        "sheds           queue_full {}  fair_share {}  deadline {}\n",
        c("fleet.shed"),
        c("fleet.reactor.sheds_fair"),
        c("fleet.deadline_misses"),
    ));
    out.push_str(&format!(
        "reactor         inline {}  inline_stats {}  coalesced {}  pushes {}  skips {}\n",
        c("fleet.reactor.inline_hits"),
        c("fleet.reactor.inline_stats"),
        c("fleet.reactor.coalesced"),
        c("fleet.reactor.pushes"),
        c("fleet.reactor.push_skips"),
    ));

    if let Some((count, p50, _, p99)) = stats.histogram("fleet.queue.wait_ns") {
        out.push_str(&format!(
            "queue wait      n {count}  p50 {}  p99 {}\n",
            fmt_ns(p50),
            fmt_ns(p99),
        ));
    }
    if let Some((count, p50, _, p99)) = stats.histogram("fleet.store.lock_hold_ns") {
        // The hottest shard by cumulative write-lock hold.
        let hot = stats
            .counters
            .iter()
            .filter(|(name, _)| {
                name.starts_with("fleet.store.shard.") && name.ends_with(".lock_hold_ns")
            })
            .max_by_key(|&&(_, held)| held);
        out.push_str(&format!(
            "store lock      n {count}  p50 {}  p99 {}",
            fmt_ns(p50),
            fmt_ns(p99),
        ));
        if let Some((name, held)) = hot {
            out.push_str(&format!(
                "  hottest {} ({})",
                name.trim_start_matches("fleet.store.")
                    .trim_end_matches(".lock_hold_ns"),
                fmt_ns(*held as f64),
            ));
        }
        out.push('\n');
    }
    print!("{out}");
    let _ = std::io::stdout().flush();
}

fn main() -> std::process::ExitCode {
    let cli = BenchCli::parse();
    let interval = Duration::from_millis(env_u64(
        "FLEET_TOP_INTERVAL_MS",
        if cli.quick() { 50 } else { 500 },
    ));
    let demo = match std::env::var("FLEET_TOP_ADDR") {
        Ok(_) => None,
        Err(_) => Some(DemoFleet::start()),
    };
    // A demo run (and any --quick run) is bounded so `just
    // fleet-top-demo` and CI terminate on their own.
    let default_frames = if cli.quick() {
        3
    } else if demo.is_some() {
        20
    } else {
        0
    };
    let frames = env_u64("FLEET_TOP_FRAMES", default_frames);
    let addr = std::env::var("FLEET_TOP_ADDR").unwrap_or_else(|_| {
        demo.as_ref()
            .expect("demo started when no FLEET_TOP_ADDR")
            .addr()
    });
    if demo.is_some() {
        banner(&format!("fleet_top demo fleet on {addr}"));
    }

    let mut client = match PipelinedFleetClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: connect {addr}: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let sub = match client.subscribe_stats(interval, frames.min(u64::from(u32::MAX)) as u32) {
        Ok(id) => id,
        Err(e) => {
            eprintln!("error: stats subscription: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    // Clear-and-redraw only on an interactive run; bounded runs (CI,
    // demo) append frames so the transcript stays greppable.
    let clear = frames == 0;
    let mut prev: Option<FleetStats> = None;
    let mut rendered = 0u64;
    loop {
        let event = match client.recv_event() {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("error: stats stream: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
        match event {
            WireEvent::SubAck { id, .. } if id == sub => {}
            WireEvent::StatsFrame { id, outcome, .. } if id == sub => match *outcome {
                Ok(Response::StatsSnapshot { stats }) => {
                    if !clear && rendered > 0 {
                        println!();
                    }
                    render(&stats, prev.as_ref(), interval, clear);
                    prev = Some(stats);
                    rendered += 1;
                }
                other => {
                    eprintln!("error: stats frame carried {other:?}");
                    return std::process::ExitCode::FAILURE;
                }
            },
            WireEvent::SubEnd { id, .. } if id == sub => break,
            WireEvent::Reply { outcome, .. } => {
                // A refused subscription surfaces as a tagged error.
                eprintln!("error: subscription refused: {outcome:?}");
                return std::process::ExitCode::FAILURE;
            }
            _ => {}
        }
    }
    println!("{rendered} frame(s) rendered");
    drop(client);
    cli.finish()
}
