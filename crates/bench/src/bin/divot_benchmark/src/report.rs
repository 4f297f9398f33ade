//! Metric definitions, robust summaries, run records and the
//! parent-vs-change comparison.

use crate::json::Json;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates, hit fractions).
    Higher,
}

/// One metric's name, unit, direction and — for end-to-end metrics —
/// the share of the parent's median it may worsen by before a change
/// counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name as printed and recorded.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics every untraced run reports. On a shared
/// two-vCPU virtual machine the timing metrics spread by up to 15 % (IQR
/// over median) across ten seeded runs, so a bound tighter than 0.25
/// would flag noise; live heap bytes spread by under 2 %.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_ops", "ops/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p90_ms", "ms", Better::Lower, 0.25),
    e2e("peak_heap_mb", "MB", Better::Lower, 0.05),
];

/// The per-layer metrics every traced run reports.
pub const PER_LAYER: &[Def] = &[
    layer("wire.encode_request_ns", "ns", Better::Lower),
    layer("wire.decode_request_ns", "ns", Better::Lower),
    layer("wire.encode_response_ns", "ns", Better::Lower),
    layer("wire.decode_event_ns", "ns", Better::Lower),
    layer("reactor.roundtrip_us", "us", Better::Lower),
    layer("reactor.self_us", "us", Better::Lower),
    layer("reactor.inline_hit_frac", "fraction", Better::Higher),
    layer("reactor.frames_per_wakeup", "count", Better::Higher),
    layer("reactor.sheds_fair", "count", Better::Lower),
    layer("service.call_us", "us", Better::Lower),
    layer("service.dispatch_us", "us", Better::Lower),
    layer("service.queue_wait_p50_us", "us", Better::Lower),
    layer("service.queue_wait_p90_us", "us", Better::Lower),
    layer("service.sheds", "count", Better::Lower),
    layer("cache.hit_frac", "fraction", Better::Higher),
    layer("cache.peek_ns", "ns", Better::Lower),
    layer("cache.evictions", "count", Better::Lower),
    layer("store.with_pairing_ns", "ns", Better::Lower),
    layer("store.register_us", "us", Better::Lower),
    layer("store.lock_hold_p90_ns", "ns", Better::Lower),
    layer("sim.acquire_us", "us", Better::Lower),
    layer("sim.fabricate_us", "us", Better::Lower),
    layer("sim.enroll_us", "us", Better::Lower),
    layer("sim.acquire_batch_us_per_board", "us", Better::Lower),
    layer("auth.verify_ns", "ns", Better::Lower),
    layer("tamper.calibrate_us", "us", Better::Lower),
    layer("cohort.learn_ms", "ms", Better::Lower),
    layer("cohort.attest_us", "us", Better::Lower),
    layer("gen.cpu_frac", "fraction", Better::Lower),
    layer("gen.late_p99_us", "us", Better::Lower),
    layer("trace.overhead_pct", "%", Better::Lower),
];

/// The definition of metric `name` (either table).
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Median (mean of the middle two for an even count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (0 below two values).
pub fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / median(values).abs())
}

/// One workload run's summary for `--json`.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Metric → its per-window (or per-repeat) values.
    pub windows: BTreeMap<String, Vec<f64>>,
    /// Metric → reported value.
    pub reported: BTreeMap<String, f64>,
    /// Phase → seconds.
    pub durations: BTreeMap<String, f64>,
    /// Run settings (seed, seconds, trace, quick) and the tally.
    pub settings: BTreeMap<String, Json>,
}

impl Record {
    /// The record as JSON: windows, reported values, window spreads,
    /// durations.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = self.settings.clone().into_iter().collect();
        members.push(("workload".into(), Json::Str(self.workload.clone())));
        members.push((
            "windows".into(),
            Json::obj(self.windows.iter().map(|(k, v)| (k.clone(), Json::nums(v)))),
        ));
        members.push((
            "spread".into(),
            Json::obj(
                self.windows
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(spread(v)))),
            ),
        ));
        members.push((
            "reported".into(),
            Json::obj(
                self.reported
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v))),
            ),
        ));
        members.push((
            "durations_s".into(),
            Json::obj(
                self.durations
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v))),
            ),
        ));
        Json::obj(members)
    }
}

/// Host metadata: core count and, when the checkout is a git work
/// tree, its revision.
pub fn host() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("git_rev", rev.map_or(Json::Null, Json::Str)),
    ])
}

/// The verdict on one `(workload, metric)` pairing.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The claimed metric improved by the 9-of-10 pairs rule.
    Improved,
    /// The claimed metric did not meet the rule.
    NotMet,
    /// Within the bound.
    Held,
    /// Worse than the bound allows.
    Regressed,
    /// The parent's own spread exceeds the bound, so no-change cannot be
    /// told from noise.
    Unresolved,
}

/// Parent and change medians of one metric across paired runs.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// `workload.metric`.
    pub key: String,
    /// Outcome.
    pub verdict: Verdict,
    /// Parent median of the per-run values.
    pub parent: f64,
    /// Change median of the per-run values.
    pub change: f64,
    /// Pairs the change won, and pairs compared.
    pub wins: (usize, usize),
}

/// Compare per-run values of one metric. `claimed` applies the
/// choosing-metrics §8 rule (win ≥ 9/10 of the pairs, ties counting for
/// neither, and medians apart by more than the parent's IQR); otherwise
/// the metric's bound decides, and a parent spread wider than the bound
/// is unresolved unless every change run beats every parent run.
pub fn compare(
    key: String,
    def: &Def,
    parent: &[f64],
    change: &[f64],
    claimed: bool,
) -> Comparison {
    let better = |a: f64, b: f64| match def.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (p, c) = (median(parent), median(change));
    let iqr = quartiles(parent).map_or(0.0, |(q1, q3)| q3 - q1);
    let verdict = if claimed {
        if pairs > 0 && wins * 10 >= pairs * 9 && better(c, p) && (c - p).abs() > iqr {
            Verdict::Improved
        } else {
            Verdict::NotMet
        }
    } else {
        let bound = def.bound.unwrap_or(0.0);
        let worse_by = match def.better {
            Better::Lower => (c - p) / p.abs(),
            Better::Higher => (p - c) / p.abs(),
        };
        let all_better = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
        if spread(parent) > bound && !all_better {
            Verdict::Unresolved
        } else if worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Held
        }
    };
    Comparison {
        key,
        verdict,
        parent: p,
        change: c,
        wins: (wins, pairs),
    }
}

/// Load every run record of `paths`: `(workload, metric) → values`, one
/// value per file in file order.
pub fn load_records(paths: &[String]) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        for run in doc.get("runs").map(Json::as_arr).unwrap_or_default() {
            let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
            if let Some(Json::Obj(reported)) = run.get("reported") {
                for (metric, v) in reported {
                    if let Some(v) = v.as_f64() {
                        out.entry((workload.to_owned(), metric.clone()))
                            .or_default()
                            .push(v);
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn claimed_gain_needs_nine_of_ten_pairs_and_a_gap_beyond_the_iqr() {
        let d = def("throughput_ops").unwrap();
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let c = compare("w.throughput_ops".into(), d, &parent, &change, true);
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!(c.wins, (10, 10));
        let mut close = change.clone();
        close[0] = 90.0;
        close[1] = 90.0;
        let c = compare("w.throughput_ops".into(), d, &parent, &close, true);
        assert_eq!(c.verdict, Verdict::NotMet, "8 of 10 pairs is not enough");
    }

    #[test]
    fn unclaimed_metrics_use_their_bound() {
        let d = def("latency_p50_ms").unwrap();
        let parent = vec![1.0, 1.01, 0.99, 1.0];
        assert_eq!(
            compare("k".into(), d, &parent, &[1.05, 1.04, 1.06, 1.05], false).verdict,
            Verdict::Held
        );
        assert_eq!(
            compare("k".into(), d, &parent, &[1.3, 1.2, 1.25, 1.3], false).verdict,
            Verdict::Regressed
        );
        let noisy = vec![1.0, 1.5, 0.7, 1.2];
        assert_eq!(
            compare("k".into(), d, &noisy, &[1.1, 1.0, 1.2, 1.0], false).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = include_str!("../../../../../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let check = |key: &str, table: &[Def]| {
            let listed = doc.get(key).map(Json::as_arr).unwrap_or_default();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, d) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
                let better = match d.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let names: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
    }
}
