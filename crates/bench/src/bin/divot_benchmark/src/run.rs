//! One workload run, untraced (end-to-end metrics) or traced (per-layer
//! metrics).

use crate::hist::LogHistogram;
use crate::json::Json;
use crate::load::{
    closed_windows, open_loop, peak_rss_mb, setup, Checker, ClosedReport, Live, Tally,
};
use crate::oracle::Shadow;
use crate::report::{median, Record};
use crate::trace::{codec_ns, layer_metrics, layer_walk, Recorder, Snapshots, TracedRun};
use crate::workload::{domain, Stream, Workload};
use divot_fleet::Response;
use std::time::Instant;

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// The metrics of the final JSON line, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Further `(name, "value unit")` lines printed but not gated.
    pub extra: Vec<(String, String)>,
    /// The `--json` run record.
    pub record: Record,
    /// Attempted and failed ops.
    pub tally: Tally,
    /// The layer walk's spans (traced runs).
    pub spans: Option<Recorder>,
}

/// Phase wall times, in order.
#[derive(Debug, Default)]
struct Clock {
    phases: Vec<(String, f64)>,
    last: Option<Instant>,
}

impl Clock {
    fn lap(&mut self, phase: &str) {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.phases
                .push((phase.to_owned(), (now - last).as_secs_f64()));
        }
        self.last = Some(now);
    }
}

fn ms(h: &LogHistogram, q: f64) -> f64 {
    h.quantile(q).unwrap_or(f64::NAN) / 1e6
}

/// Check the intake `CohortModel` reply against the shadow's model.
fn check_cohort(shadow: &mut Shadow, stream: &Stream, checker: &Checker, tally: &mut Tally) {
    if stream.spec().workload != Workload::IntakeScan {
        return;
    }
    if shadow.model.is_none() {
        shadow.learn(&stream.cohort_rows());
    }
    let model = shadow.model.as_ref().expect("learned above");
    let expect = Response::CohortModel {
        cohort_size: model.members().len() as u32,
        excluded: model.excluded().len() as u32,
        segments: model.segments() as u32,
    };
    if checker.cohort.as_ref() != Some(&expect) {
        tally.mismatches += stream.spec().cohort as u64;
        tally.note(format!(
            "cohort model {:?} != shadow {expect:?}",
            checker.cohort
        ));
    }
}

/// Run the oracle: the cohort model (intake) and every reservoir sample.
fn oracle(shadow: &mut Shadow, stream: &Stream, checker: &Checker, tally: &mut Tally) -> usize {
    check_cohort(shadow, stream, checker, tally);
    let mismatches = checker.reservoir.check(shadow, stream);
    if mismatches > 0 {
        tally.note(format!(
            "{mismatches} sampled replies disagree with the shadow"
        ));
    }
    tally.mismatches += mismatches;
    checker.reservoir.len()
}

/// Set the service up once, then run the warm-up.
fn provision(
    stream: &Stream,
    checker: &mut Checker,
    tally: &mut Tally,
    clock: &mut Clock,
) -> Result<(Live, f64, usize), String> {
    let spec = stream.spec();
    let (mut live, secs) = setup(stream, checker, tally)?;
    clock.lap("setup");
    let mut pool_next = 0;
    closed_windows(
        &mut live,
        stream,
        domain::WARMUP,
        1,
        spec.warmup,
        &mut pool_next,
        checker,
        tally,
    )?;
    clock.lap("warmup");
    Ok((live, secs, pool_next))
}

/// The untraced run: the end-to-end metrics.
pub fn untraced(stream: &Stream) -> Result<Outcome, String> {
    let spec = stream.spec();
    let mut tally = Tally::default();
    let mut checker = Checker::new(spec);
    let mut clock = Clock::default();
    clock.lap("start");
    let (mut live, first_setup, mut pool_next) =
        provision(stream, &mut checker, &mut tally, &mut clock)?;
    let closed = closed_windows(
        &mut live,
        stream,
        domain::CLOSED,
        spec.slices,
        spec.slice,
        &mut pool_next,
        &mut checker,
        &mut tally,
    )?;
    clock.lap("closed");
    let open = open_loop(
        &mut live,
        stream,
        domain::OPEN,
        pool_next,
        &mut checker,
        &mut tally,
    )?;
    clock.lap("open");
    let rss = peak_rss_mb();
    drop(live);
    // The remaining setups run after the peak-RSS reading, so it covers
    // one service, never services torn down before it.
    let mut setups = vec![first_setup];
    for _ in 1..spec.setup_repeats {
        let (repeat, secs) = setup(stream, &mut checker, &mut tally)?;
        drop(repeat);
        setups.push(secs);
    }
    clock.lap("setup_repeats");
    let mut shadow = Shadow::new(spec);
    let sampled = oracle(&mut shadow, stream, &checker, &mut tally);
    clock.lap("oracle");

    let p50s: Vec<f64> = open.windows.iter().map(|h| ms(h, 0.5)).collect();
    let p90s: Vec<f64> = open.windows.iter().map(|h| ms(h, 0.9)).collect();
    // Other tenants of a shared host slow every thread of a run for
    // seconds at a time, so a median over closed-loop windows moves with
    // how much of the run they covered; the best window does not, while a
    // change that slows the service slows every window, the best one too.
    // Latency keeps the median over sub-windows: on enroll_churn, whose
    // replies are about half cache hits, a sub-window's p50 flips to the
    // hit mode whenever its hit share passes one half, and a best-window
    // statistic would report those flips.
    let metrics = vec![
        ("setup_s", median(&setups)),
        (
            "throughput_ops",
            closed.ops_per_s.iter().copied().fold(f64::NAN, f64::max),
        ),
        ("latency_p50_ms", median(&p50s)),
        ("latency_p90_ms", median(&p90s)),
        ("peak_heap_mb", median(&closed.heap_mb)),
    ];
    let mut pooled = LogHistogram::new();
    for h in &open.windows {
        pooled.merge(h);
    }
    let mut extra = vec![
        (
            "latency_p99_ms".to_owned(),
            format!(
                "{} ms (open loop, {} samples, {} beyond p99)",
                ms(&pooled, 0.99),
                pooled.count(),
                pooled.beyond(0.99)
            ),
        ),
        (
            "gen.late_p99_us".to_owned(),
            format!("{} us", open.late.quantile(0.99).unwrap_or(0.0) / 1e3),
        ),
        (
            "peak_rss_mb".to_owned(),
            format!("{rss} MB (VmHWM, not gated)"),
        ),
        ("oracle.samples".to_owned(), format!("{sampled} count")),
    ];
    if spec.workload == Workload::EnrollChurn {
        extra.push((
            "enroll_latency_p50_ms".to_owned(),
            format!(
                "{} ms ({} samples)",
                ms(&open.enrolls, 0.5),
                open.enrolls.count()
            ),
        ));
    }
    let mut record = Record {
        workload: spec.workload.name().to_owned(),
        ..Record::default()
    };
    record.windows.insert("setup_s".into(), setups);
    record
        .windows
        .insert("throughput_ops".into(), closed.ops_per_s);
    record.windows.insert("peak_heap_mb".into(), closed.heap_mb);
    record.windows.insert("latency_p50_ms".into(), p50s);
    record.windows.insert("latency_p90_ms".into(), p90s);
    record
        .reported
        .extend(metrics.iter().map(|&(k, v)| (k.to_owned(), v)));
    record
        .reported
        .insert("enroll_latency_p50_ms".into(), ms(&open.enrolls, 0.5));
    record.durations.extend(clock.phases);
    Ok(Outcome {
        metrics,
        extra,
        record,
        tally,
        spans: None,
    })
}

/// The traced run: rerun the workload under telemetry with wire `Stats`
/// at the phase boundaries, then the serial layer walk.
pub fn traced(stream: &Stream) -> Result<Outcome, String> {
    let spec = stream.spec();
    let mut tally = Tally::default();
    let mut checker = Checker::new(spec);
    let mut clock = Clock::default();
    clock.lap("start");
    let (mut live, _, mut pool_next) = provision(stream, &mut checker, &mut tally, &mut clock)?;
    let closed = |live: &mut Live,
                  domain,
                  pool_next: &mut usize,
                  checker: &mut Checker,
                  tally: &mut Tally| {
        closed_windows(
            live,
            stream,
            domain,
            spec.slices,
            spec.slice,
            pool_next,
            checker,
            tally,
        )
    };
    let baseline: ClosedReport = closed(
        &mut live,
        domain::BASELINE,
        &mut pool_next,
        &mut checker,
        &mut tally,
    )?;
    clock.lap("baseline");
    divot_telemetry::install(divot_telemetry::Telemetry::new())
        .map_err(|_| "telemetry was already installed in this process")?;
    let start = live.stats()?;
    let traced = closed(
        &mut live,
        domain::CLOSED,
        &mut pool_next,
        &mut checker,
        &mut tally,
    )?;
    let open = open_loop(
        &mut live,
        stream,
        domain::OPEN,
        pool_next,
        &mut checker,
        &mut tally,
    )?;
    pool_next += open.pool_used;
    let loaded = live.stats()?;
    clock.lap("loaded");
    let mut shadow = Shadow::new(spec);
    let walk = layer_walk(&mut live, &mut shadow, stream, pool_next, &mut tally)?;
    let end = live.stats()?;
    clock.lap("walk");
    drop(live);
    let sampled = oracle(&mut shadow, stream, &checker, &mut tally);
    clock.lap("oracle");

    let stats = Snapshots { start, loaded, end };
    let metrics = layer_metrics(&TracedRun {
        walk: &walk,
        stats: &stats,
        baseline: &baseline,
        traced: &traced,
        late: &open.late,
    });
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    };
    let roundtrip_us = get("reactor.roundtrip_us");
    let holds = |ok: bool| if ok { "HOLDS" } else { "MISSED" };
    let mut extra = vec![
        (
            "check.reactor_self_within_mirror".to_owned(),
            holds(get("reactor.self_us") >= -0.1 * roundtrip_us).to_owned(),
        ),
        (
            "check.service_dispatch_within_mirror".to_owned(),
            holds(get("service.dispatch_us") >= -0.1 * roundtrip_us).to_owned(),
        ),
        (
            "share.sim_acquire_of_service_call".to_owned(),
            format!(
                "{} fraction",
                get("sim.acquire_us") / get("service.call_us")
            ),
        ),
        (
            "share.codec_of_roundtrip".to_owned(),
            format!("{} fraction", codec_ns(&walk) / 1e3 / roundtrip_us),
        ),
        ("oracle.samples".to_owned(), format!("{sampled} count")),
        (
            "trace.spans".to_owned(),
            format!("{} count", walk.rec.len()),
        ),
    ];
    if spec.workload == Workload::EnrollChurn {
        extra.push((
            "enroll_latency_p50_ms".to_owned(),
            format!(
                "{} ms ({} samples)",
                ms(&open.enrolls, 0.5),
                open.enrolls.count()
            ),
        ));
    }
    let mut record = Record {
        workload: spec.workload.name().to_owned(),
        ..Record::default()
    };
    record
        .windows
        .insert("throughput_ops.untraced".into(), baseline.ops_per_s.clone());
    record
        .windows
        .insert("throughput_ops.traced".into(), traced.ops_per_s.clone());
    record
        .reported
        .extend(metrics.iter().map(|&(k, v)| (k.to_owned(), v)));
    record.durations.extend(clock.phases);
    record
        .settings
        .insert("spans".into(), Json::Num(walk.rec.len() as f64));
    Ok(Outcome {
        metrics,
        extra,
        record,
        tally,
        spans: Some(walk.rec),
    })
}
