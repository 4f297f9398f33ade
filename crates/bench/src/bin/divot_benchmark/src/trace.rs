//! The traced run's layer walk: spans the benchmark records around each
//! layer's public entry point, and the per-layer metrics derived from
//! them and from wire `Stats` deltas.
//!
//! The walk sends the first ops of the workload's stream serially over an
//! idle service. For each op it times the codec calls, the live cache
//! peek, an in-process `FleetClient::call` of a twin request of equal
//! cost, the wire round trip, and the same work on shadow instances of
//! the sim, store, authenticator, tamper detector and population model.
//! Probes then cover the layers the stream does not touch (enrollment
//! and fabrication, cohort learning), so every workload reports every
//! layer. A span's self time is its duration minus its children's.

use crate::conn::decode_reply;
use crate::hist::LogHistogram;
use crate::load::{ClosedReport, Live, Tally};
use crate::oracle::{named_rows, report, same_report, Shadow};
use crate::report::median;
use crate::workload::{domain, Op, Stream};
use divot_cohort::PopulationModel;
use divot_core::exec::ExecPolicy;
use divot_core::tamper::TamperDetector;
use divot_dsp::rng::mix_seed;
use divot_fleet::wire::{decode_wire_request, encode_request_tagged, encode_tagged_response};
use divot_fleet::{FleetClient, FleetStats, Request, Response, SimulatedFleet};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Trace ids of probe spans start here (stream ops use their index).
const PROBE_TRACE: u32 = 1 << 30;
/// Verifies each probe device runs.
const PROBE_VERIFIES: u64 = 4;
/// Boards the cohort probe attests.
const PROBE_ATTESTS: usize = 64;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    id: u32,
    trace: u32,
    name: &'static str,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    items: u32,
}

/// In-memory span store, written as JSONL at exit.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span; the clock is read last so bookkeeping stays outside it.
    fn open(&mut self, trace: u32, name: &'static str, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            trace,
            name,
            parent,
            start_ns: 0,
            end_ns: 0,
            items: 1,
        });
        self.spans[id as usize].start_ns = self.now();
        id
    }

    fn close(&mut self, id: u32) {
        let t = self.now();
        self.spans[id as usize].end_ns = t;
    }

    fn leaf<T>(&mut self, parent: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let trace = self.spans[parent as usize].trace;
        let id = self.open(trace, name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    fn dur(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Durations (ns) of every span named `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.dur(s.id) as f64)
            .collect()
    }

    /// Self times (ns) of every span named `name`: duration minus the
    /// children's durations (children never overlap).
    fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += self.dur(s.id);
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.dur(s.id) as f64 - child_ns[s.id as usize] as f64)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"trace\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"items\": {}}}",
                s.id, s.trace, s.name, parent, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// The walk's spans and the per-op differences derived from them.
#[derive(Debug)]
pub struct Walk {
    /// Every span.
    pub rec: Recorder,
    /// Per op: round trip − service-side work the reactor invoked − codec.
    reactor_self_ns: Vec<f64>,
    /// Per op: in-process call − the shadow's compute for it.
    dispatch_ns: Vec<f64>,
    /// Per op: the four codec calls.
    codec_ns: Vec<f64>,
}

/// Run the probes and the serial stream walk on the live service (which
/// must be idle) and the shadow. Wire replies are checked against the
/// shadow bit for bit; disagreements count as mismatches.
pub fn layer_walk(
    live: &mut Live,
    shadow: &mut Shadow,
    stream: &Stream,
    pool_base: usize,
    tally: &mut Tally,
) -> Result<Walk, String> {
    let mut walk = Walk {
        rec: Recorder::new(),
        reactor_self_ns: Vec::new(),
        dispatch_ns: Vec::new(),
        codec_ns: Vec::new(),
    };
    let client = live.service.client();
    probe_devices(&mut walk.rec, shadow, stream, &client);
    probe_cohort(&mut walk.rec, shadow, stream);
    live.conns[0]
        .1
        .set_blocking(true)
        .map_err(|e| e.to_string())?;
    let result = stream_walk(&mut walk, live, shadow, stream, pool_base, &client, tally);
    live.conns[0]
        .1
        .set_blocking(false)
        .map_err(|e| e.to_string())?;
    result.map(|()| walk)
}

/// Enrollment, fabrication and verify layers on `probe_devices` devices
/// never touched in the shadow: a cold then a warm acquisition, the
/// enrollment, the tamper calibration, the store write and a few
/// verifies (each with a live cache peek).
fn probe_devices(rec: &mut Recorder, shadow: &Shadow, stream: &Stream, client: &FleetClient) {
    let spec = stream.spec();
    let span = if spec.enrolled > 0 {
        spec.enrolled
    } else {
        spec.cohort
    };
    for i in 0..spec.probe_devices {
        let device = i * span / spec.probe_devices;
        let name = SimulatedFleet::device_name(device);
        let enroll_nonce = stream.enroll_nonce(device);
        let nonce = |j: u64| mix_seed(enroll_nonce, domain::PROBE << 32 | j);
        let root = rec.open(PROBE_TRACE + i as u32, "probe", None);
        rec.leaf(root, "sim.acquire_cold", || {
            shadow.sim.acquire(&name, nonce(0))
        });
        rec.leaf(root, "sim.acquire", || shadow.sim.acquire(&name, nonce(1)));
        let pairing = rec
            .leaf(root, "sim.enroll", || {
                shadow.sim.enroll(&name, enroll_nonce)
            })
            .expect("probe device exists");
        let cleans: Vec<_> = (1..=4u64)
            .map(|k| {
                rec.leaf(root, "sim.acquire", || {
                    shadow
                        .sim
                        .acquire(&name, mix_seed(enroll_nonce, 0xCA11_B000 | k))
                })
                .expect("probe device exists")
            })
            .collect();
        black_box(rec.leaf(root, "tamper.calibrate", || {
            TamperDetector::calibrated(
                shadow.config.tamper,
                pairing.master.iip(),
                &cleans,
                shadow.config.tamper_margin,
            )
        }));
        rec.leaf(root, "store.register", || {
            shadow.store.register(&name, pairing)
        });
        for j in 0..PROBE_VERIFIES {
            let request = Request::Verify {
                device: name.clone(),
                nonce: nonce(2 + j),
            };
            black_box(rec.leaf(root, "cache.peek", || client.try_cached(&request)));
            shadow_verify(rec, root, shadow, &name, nonce(2 + j));
        }
        rec.close(root);
    }
}

/// Fabricate `devices` in the shadow without timing it, as the live
/// service's setup did before the measured phases.
fn warm(shadow: &Shadow, devices: impl IntoIterator<Item = usize>) {
    let rows: Vec<(usize, u64)> = devices.into_iter().map(|d| (d, 0)).collect();
    black_box(
        shadow
            .sim
            .acquire_batch(&named_rows(&rows), ExecPolicy::auto()),
    );
}

/// Cohort learning and attestation: acquire the (warm) cohort as one
/// batch, learn the population model (kept in the shadow for the intake
/// oracle), and attest boards past the cohort.
fn probe_cohort(rec: &mut Recorder, shadow: &mut Shadow, stream: &Stream) {
    let spec = stream.spec();
    let rows = named_rows(&stream.cohort_rows());
    let last = (spec.cohort + PROBE_ATTESTS).min(spec.devices());
    warm(shadow, 0..last);
    let trace = PROBE_TRACE + spec.probe_devices as u32;
    let root = rec.open(trace, "probe", None);
    let batch = rec.open(trace, "sim.acquire_batch", Some(root));
    let prints = shadow
        .sim
        .acquire_batch(&rows, ExecPolicy::auto())
        .expect("cohort devices exist");
    rec.close(batch);
    rec.spans[batch as usize].items = rows.len() as u32;
    let views: Vec<&[f64]> = prints.iter().map(|w| w.samples()).collect();
    let model = rec
        .leaf(root, "cohort.learn", || {
            PopulationModel::learn(&views, shadow.config.cohort)
        })
        .expect("the benchmark cohort is learnable");
    for device in spec.cohort..last {
        let name = SimulatedFleet::device_name(device);
        let w = rec
            .leaf(root, "sim.acquire", || {
                shadow.sim.acquire(&name, stream.cohort_nonce(device))
            })
            .expect("device exists");
        black_box(rec.leaf(root, "cohort.attest", || report(name, &model, w.samples())));
    }
    rec.close(root);
    shadow.model = Some(model);
}

/// `sim.acquire` → `store.with_pairing` ⊃ `auth.verify` on the shadow.
fn shadow_verify(
    rec: &mut Recorder,
    parent: u32,
    shadow: &Shadow,
    name: &str,
    nonce: u64,
) -> Response {
    let measured = rec
        .leaf(parent, "sim.acquire", || shadow.sim.acquire(name, nonce))
        .expect("device exists");
    let trace = rec.spans[parent as usize].trace;
    let wp = rec.open(trace, "store.with_pairing", Some(parent));
    let decision = shadow
        .store
        .with_pairing(name, |p| {
            rec.leaf(wp, "auth.verify", || {
                shadow.auth.verify(&p.master, &measured)
            })
        })
        .expect("shadow pairing enrolled");
    rec.close(wp);
    Response::Verdict {
        device: name.to_owned(),
        accepted: decision.is_accept(),
        similarity: decision.similarity(),
    }
}

#[allow(clippy::too_many_arguments)]
fn stream_walk(
    walk: &mut Walk,
    live: &mut Live,
    shadow: &Shadow,
    stream: &Stream,
    pool_base: usize,
    client: &FleetClient,
    tally: &mut Tally,
) -> Result<(), String> {
    let spec = stream.spec();
    let ops = spec.walk_ops / spec.batch as u64;
    let mut twins = pool_base + stream.enrolls_in(ops);
    let mut boards: Vec<usize> = (0..ops)
        .filter_map(|k| match stream.op_at(domain::WALK, k, pool_base) {
            Some(Op::Intake { rows }) => Some(rows),
            _ => None,
        })
        .flatten()
        .map(|(d, _)| d)
        .collect();
    boards.sort_unstable();
    boards.dedup();
    warm(shadow, boards);
    for k in 0..ops {
        let op = stream
            .op_at(domain::WALK, k, pool_base)
            .ok_or("churn pool ran dry")?;
        if let Op::Verify { device, .. } = op {
            shadow.ensure_enrolled(stream, &[device]);
        }
        let request = op.request();
        let rec = &mut walk.rec;
        let root = rec.open(k as u32, "op", None);
        let payload = rec.leaf(root, "wire.encode_request", || {
            encode_request_tagged(k, &request, None)
        });
        rec.leaf(root, "wire.decode_request", || {
            decode_wire_request(&payload)
        })
        .map_err(|e| format!("walk request does not decode: {e}"))?;
        // The in-process path runs on a twin of equal cost: a cache hit
        // repeats the request itself, a miss asks the same device under
        // a fresh nonce, an enroll takes the next pool device, and an
        // intake scan (never cached) repeats.
        let (peek, twin) = match &op {
            Op::Verify { device, nonce, .. } => {
                let peek = rec.open(k as u32, "cache.peek", Some(root));
                let hit = client.try_cached(&request).is_some();
                rec.close(peek);
                let twin = if hit {
                    request.clone()
                } else {
                    Op::Verify {
                        device: *device,
                        nonce: stream.twin_nonce(*nonce),
                        pair: None,
                    }
                    .request()
                };
                (hit.then_some(peek), twin)
            }
            Op::Enroll { .. } => {
                let twin = stream.enroll_op(twins).ok_or("churn pool ran dry")?;
                twins += 1;
                (None, twin.request())
            }
            Op::Intake { .. } => (None, request.clone()),
        };
        tally.attempted += 2 * op.weight();
        let call = rec.open(k as u32, "service.call", Some(root));
        let called = client.call(twin);
        rec.close(call);
        black_box(rec.leaf(root, "wire.encode_response", || {
            encode_tagged_response(k, &called)
        }));
        if let Err(e) = called {
            tally.errors += op.weight();
            tally.note(format!("walk call: {e}"));
        }
        let rt = rec.open(k as u32, "wire.roundtrip", Some(root));
        let (tx, rx) = &mut live.conns[0];
        tx.queue_payload(&payload);
        tx.flush_all().map_err(|e| format!("write: {e}"))?;
        let frame = rx.wait_frame()?;
        rec.close(rt);
        let (_, outcome) = rec.leaf(root, "wire.decode_event", || decode_reply(&frame))?;
        let sh = rec.open(k as u32, "shadow", Some(root));
        let expected = shadow_compute(rec, sh, shadow, &op);
        rec.close(sh);
        rec.close(root);
        match outcome {
            Ok(got) if same_response(&got, &expected) => {}
            other => {
                tally.mismatches += op.weight();
                tally.note(format!("walk reply {other:?} != shadow {expected:?}"));
            }
        }
        let d = |id: u32| rec.dur(id) as f64;
        let codec: f64 = rec.spans[root as usize + 1..]
            .iter()
            .filter(|s| s.name.starts_with("wire.") && s.name != "wire.roundtrip")
            .map(|s| d(s.id))
            .sum();
        let (service_side, shadow_side) = match peek {
            Some(p) => (d(p), d(p)),
            None => (d(call), d(sh)),
        };
        walk.reactor_self_ns.push(d(rt) - service_side - codec);
        walk.dispatch_ns.push(d(call) - shadow_side);
        walk.codec_ns.push(codec);
    }
    Ok(())
}

/// The reply the service owes `op`, computed on the shadow under spans.
fn shadow_compute(rec: &mut Recorder, parent: u32, shadow: &Shadow, op: &Op) -> Response {
    match op {
        Op::Verify { device, nonce, .. } => shadow_verify(
            rec,
            parent,
            shadow,
            &SimulatedFleet::device_name(*device),
            *nonce,
        ),
        Op::Enroll { device, nonce } => {
            let name = SimulatedFleet::device_name(*device);
            let pairing = rec
                .leaf(parent, "sim.enroll_cold", || {
                    shadow.sim.enroll(&name, *nonce)
                })
                .expect("pool device exists");
            let cleans: Vec<_> = (1..=4u64)
                .map(|k| {
                    rec.leaf(parent, "sim.acquire", || {
                        shadow.sim.acquire(&name, mix_seed(*nonce, 0xCA11_B000 | k))
                    })
                    .expect("pool device exists")
                })
                .collect();
            black_box(rec.leaf(parent, "tamper.calibrate", || {
                TamperDetector::calibrated(
                    shadow.config.tamper,
                    pairing.master.iip(),
                    &cleans,
                    shadow.config.tamper_margin,
                )
            }));
            rec.leaf(parent, "store.register", || {
                shadow.store.register(&name, pairing)
            });
            Response::Enrolled {
                shard: shadow.store.shard_of(&name) as u32,
                device: name,
            }
        }
        Op::Intake { rows } => {
            let model = shadow
                .model
                .as_ref()
                .expect("cohort probe learned the model");
            let named = named_rows(rows);
            let trace = rec.spans[parent as usize].trace;
            let batch = rec.open(trace, "sim.acquire_batch", Some(parent));
            let prints = shadow
                .sim
                .acquire_batch(&named, ExecPolicy::auto())
                .expect("intake boards exist");
            rec.close(batch);
            rec.spans[batch as usize].items = rows.len() as u32;
            let reports = named
                .into_iter()
                .zip(&prints)
                .map(|((name, _), w)| {
                    rec.leaf(parent, "cohort.attest", || report(name, model, w.samples()))
                })
                .collect();
            Response::Intake { reports }
        }
    }
}

/// Bitwise equality of two responses (floats by bits).
fn same_response(a: &Response, b: &Response) -> bool {
    match (a, b) {
        (
            Response::Verdict {
                device: da,
                accepted: aa,
                similarity: sa,
            },
            Response::Verdict {
                device: db,
                accepted: ab,
                similarity: sb,
            },
        ) => da == db && aa == ab && sa.to_bits() == sb.to_bits(),
        (Response::Intake { reports: ra }, Response::Intake { reports: rb }) => {
            ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| same_report(x, y))
        }
        _ => a == b,
    }
}

/// Wire `Stats` snapshots at the traced run's phase boundaries.
#[derive(Debug)]
pub struct Snapshots {
    /// Right after telemetry was installed.
    pub start: FleetStats,
    /// After the traced closed and open loops.
    pub loaded: FleetStats,
    /// After the layer walk.
    pub end: FleetStats,
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug)]
pub struct TracedRun<'a> {
    /// The walk.
    pub walk: &'a Walk,
    /// Stats snapshots.
    pub stats: &'a Snapshots,
    /// The untraced closed loop.
    pub baseline: &'a ClosedReport,
    /// The traced closed loop.
    pub traced: &'a ClosedReport,
    /// Sender lateness of the traced open loop.
    pub late: &'a LogHistogram,
}

/// Every per-layer metric, in `report::PER_LAYER` order.
pub fn layer_metrics(run: &TracedRun<'_>) -> Vec<(&'static str, f64)> {
    let rec = &run.walk.rec;
    let med = |name: &str| median(&rec.durations(name));
    let per_item: Vec<f64> = rec
        .spans
        .iter()
        .filter(|s| s.name == "sim.acquire_batch")
        .map(|s| rec.dur(s.id) as f64 / f64::from(s.items))
        .collect();
    let (s0, s2, s3) = (&run.stats.start, &run.stats.loaded, &run.stats.end);
    let delta = |name: &str| {
        s2.counter(name)
            .unwrap_or(0)
            .saturating_sub(s0.counter(name).unwrap_or(0)) as f64
    };
    let hits = s2
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("fleet.cache.") && n.ends_with("_hits"))
        .fold(0.0, |sum, (n, _)| sum + delta(n));
    let misses = delta("fleet.cache.misses");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hist = |s: &FleetStats, name: &str, pick: fn((u64, f64, f64, f64)) -> f64| {
        s.histogram(name).map_or(0.0, pick)
    };
    let baseline = median(&run.baseline.ops_per_s);
    vec![
        ("wire.encode_request_ns", med("wire.encode_request")),
        ("wire.decode_request_ns", med("wire.decode_request")),
        ("wire.encode_response_ns", med("wire.encode_response")),
        ("wire.decode_event_ns", med("wire.decode_event")),
        ("reactor.roundtrip_us", med("wire.roundtrip") / 1e3),
        ("reactor.self_us", median(&run.walk.reactor_self_ns) / 1e3),
        (
            "reactor.inline_hit_frac",
            ratio(
                delta("fleet.reactor.inline_hits"),
                delta("fleet.reactor.frames"),
            ),
        ),
        (
            "reactor.frames_per_wakeup",
            ratio(
                delta("fleet.reactor.frames"),
                delta("fleet.reactor.wakeups"),
            ),
        ),
        ("reactor.sheds_fair", delta("fleet.reactor.sheds_fair")),
        ("service.call_us", med("service.call") / 1e3),
        ("service.dispatch_us", median(&run.walk.dispatch_ns) / 1e3),
        (
            "service.queue_wait_p50_us",
            hist(s3, "fleet.queue.wait_ns", |h| h.1) / 1e3,
        ),
        (
            "service.queue_wait_p90_us",
            hist(s3, "fleet.queue.wait_ns", |h| h.2) / 1e3,
        ),
        ("service.sheds", delta("fleet.shed")),
        ("cache.hit_frac", ratio(hits, hits + misses)),
        ("cache.peek_ns", med("cache.peek")),
        ("cache.evictions", delta("fleet.cache.evictions")),
        (
            "store.with_pairing_ns",
            median(&rec.self_times("store.with_pairing")),
        ),
        ("store.register_us", med("store.register") / 1e3),
        (
            "store.lock_hold_p90_ns",
            hist(s3, "fleet.store.lock_hold_ns", |h| h.2),
        ),
        ("sim.acquire_us", med("sim.acquire") / 1e3),
        (
            "sim.fabricate_us",
            (med("sim.acquire_cold") - med("sim.acquire")) / 1e3,
        ),
        ("sim.enroll_us", med("sim.enroll") / 1e3),
        ("sim.acquire_batch_us_per_board", median(&per_item) / 1e3),
        ("auth.verify_ns", med("auth.verify")),
        ("tamper.calibrate_us", med("tamper.calibrate") / 1e3),
        ("cohort.learn_ms", med("cohort.learn") / 1e6),
        ("cohort.attest_us", med("cohort.attest") / 1e3),
        ("gen.cpu_frac", run.baseline.cpu_frac),
        (
            "gen.late_p99_us",
            run.late.quantile(0.99).unwrap_or(0.0) / 1e3,
        ),
        (
            "trace.overhead_pct",
            (baseline - median(&run.traced.ops_per_s)) / baseline * 100.0,
        ),
    ]
}

/// The walk's codec total (the four wire calls) per op, median, in ns.
pub fn codec_ns(walk: &Walk) -> f64 {
    median(&walk.codec_ns)
}
