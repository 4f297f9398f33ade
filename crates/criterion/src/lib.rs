//! Offline vendored micro-benchmark harness.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the slice of the `criterion` API the workspace's benches use:
//! [`Criterion::bench_function`] / [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId`], [`black_box`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Methodology: each benchmark is warmed up (~100 ms), then timed over
//! `sample_size` samples of an adaptively sized inner loop; median and
//! mean time per iteration are printed in a stable, greppable one-line
//! format:
//!
//! ```text
//! bench: <name> ... median 1.234 ms/iter, mean 1.301 ms/iter (20 samples)
//! ```
//!
//! No statistics beyond that, no plots, no saved baselines — run the same
//! binary before and after a change and compare the lines.
//!
//! # Machine-readable output
//!
//! When the `CRITERION_JSON` environment variable names a file path, every
//! completed benchmark's `{median_ns, mean_ns, samples}` plus any values
//! registered via [`Criterion::record_metric`] (e.g. computed speedup
//! ratios) are written there as JSON when the driver is dropped:
//!
//! ```text
//! CRITERION_JSON=BENCH_scatter.json cargo bench -p divot-bench --bench scatter
//! ```
//!
//! The file shape is `{"benchmarks": {name: {...}}, "metrics": {name: v}}`.
//! Results accumulate process-wide, so multi-group bench binaries produce
//! one complete file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::{self, Display};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock time spent measuring each benchmark.
const TARGET_MEASURE: Duration = Duration::from_millis(400);
/// Wall-clock time spent warming up each benchmark.
const TARGET_WARMUP: Duration = Duration::from_millis(100);

/// The timing loop handed to benchmark closures.
#[derive(Debug, Default)]
pub struct Bencher {
    samples_ns: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Time `f`, called repeatedly; its return value is passed through
    /// [`black_box`] so the computation is not optimized away.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up, and estimate the cost of one call.
        let warm_start = Instant::now();
        let mut calls = 0u64;
        while warm_start.elapsed() < TARGET_WARMUP || calls == 0 {
            black_box(f());
            calls += 1;
        }
        let per_call = warm_start.elapsed().as_secs_f64() / calls as f64;

        let samples = self.sample_size.max(2);
        let budget = TARGET_MEASURE.as_secs_f64() / samples as f64;
        let inner = (budget / per_call.max(1e-9)).ceil().max(1.0) as u64;
        self.samples_ns.clear();
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..inner {
                black_box(f());
            }
            self.samples_ns
                .push(t.elapsed().as_secs_f64() * 1e9 / inner as f64);
        }
    }

    fn report(&mut self, name: &str) {
        if self.samples_ns.is_empty() {
            println!("bench: {name} ... no samples");
            return;
        }
        self.samples_ns
            .sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median = self.samples_ns[self.samples_ns.len() / 2];
        let mean: f64 = self.samples_ns.iter().sum::<f64>() / self.samples_ns.len() as f64;
        println!(
            "bench: {name} ... median {}, mean {} ({} samples)",
            fmt_ns(median),
            fmt_ns(mean),
            self.samples_ns.len()
        );
        store()
            .lock()
            .expect("bench store poisoned")
            .benchmarks
            .push((
                name.to_string(),
                BenchResult {
                    median_ns: median,
                    mean_ns: mean,
                    samples: self.samples_ns.len(),
                },
            ));
    }
}

/// Summary statistics of one completed benchmark.
#[derive(Debug, Clone, Copy)]
struct BenchResult {
    median_ns: f64,
    mean_ns: f64,
    samples: usize,
}

/// Process-wide accumulator so multi-group bench binaries emit one
/// complete JSON file (each group macro builds its own [`Criterion`]).
#[derive(Debug, Default)]
struct Store {
    benchmarks: Vec<(String, BenchResult)>,
    metrics: Vec<(String, f64)>,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serialize the accumulated store as the `CRITERION_JSON` document.
fn render_json(store: &Store) -> String {
    let mut out = String::from("{\n  \"benchmarks\": {");
    for (i, (name, r)) in store.benchmarks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {{\"median_ns\": {}, \"mean_ns\": {}, \"samples\": {}}}",
            json_escape(name),
            json_number(r.median_ns),
            json_number(r.mean_ns),
            r.samples
        ));
    }
    out.push_str("\n  },\n  \"metrics\": {");
    for (i, (name, v)) in store.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    \"{}\": {}",
            json_escape(name),
            json_number(*v)
        ));
    }
    out.push_str("\n  }\n}\n");
    out
}

fn maybe_write_json() {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let json = render_json(&store().lock().expect("bench store poisoned"));
    match std::fs::write(&path, json) {
        Ok(()) => println!("bench-json: wrote {path}"),
        Err(e) => eprintln!("bench-json: failed to write {path}: {e}"),
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s/iter", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms/iter", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs/iter", ns / 1e3)
    } else {
        format!("{ns:.1} ns/iter")
    }
}

/// A parameterized benchmark name.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        Self {
            label: format!("{name}/{parameter}"),
        }
    }

    /// Parameter-only form (the group name provides the prefix).
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// Anything usable as a benchmark name: `&str`, `String`, [`BenchmarkId`].
pub trait IntoBenchmarkLabel {
    /// The display label.
    fn label(self) -> String;
}

impl IntoBenchmarkLabel for &str {
    fn label(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkLabel for String {
    fn label(self) -> String {
        self
    }
}

impl IntoBenchmarkLabel for BenchmarkId {
    fn label(self) -> String {
        self.to_string()
    }
}

/// The benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Median time per iteration (nanoseconds) of an already-completed
    /// benchmark, by its full name (`group/id` for grouped benchmarks).
    ///
    /// Lets a final bench target compute derived figures — speedup ratios,
    /// per-element throughput — from earlier measurements and publish them
    /// via [`record_metric`](Self::record_metric).
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        let store = store().lock().expect("bench store poisoned");
        store
            .benchmarks
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.median_ns)
    }

    /// Record a named scalar (e.g. a speedup ratio) into the JSON report's
    /// `metrics` section and print it in a greppable one-line format.
    pub fn record_metric(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        let name = name.into();
        println!("metric: {name} = {value:.3}");
        store()
            .lock()
            .expect("bench store poisoned")
            .metrics
            .push((name, value));
        self
    }

    /// Run one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl IntoBenchmarkLabel,
        mut f: F,
    ) -> &mut Self {
        let name = name.label();
        let mut b = Bencher {
            sample_size: 10,
            ..Bencher::default()
        };
        f(&mut b);
        b.report(&name);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }
}

impl Drop for Criterion {
    /// Flush the accumulated results to `CRITERION_JSON` (if set). Runs at
    /// the end of every group, writing the complete store each time, so the
    /// file is whole no matter how many groups the binary defines.
    fn drop(&mut self) {
        maybe_write_json();
    }
}

/// A group of related benchmarks sharing a name prefix and sample size.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkLabel,
        mut f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.label());
        let mut b = Bencher {
            sample_size: self.sample_size,
            ..Bencher::default()
        };
        f(&mut b);
        b.report(&name);
        self
    }

    /// Run one benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchmarkLabel,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Close the group (printing is per-benchmark; nothing buffered).
    pub fn finish(self) {}
}

/// Collect benchmark functions into one runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $group:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $group() {
            let _ = $config;
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default();
        c.bench_function("smoke", |b| b.iter(|| black_box(3u64).pow(7)));
    }

    #[test]
    fn groups_and_ids() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("group");
        g.sample_size(3);
        g.bench_with_input(BenchmarkId::from_parameter(42), &42u64, |b, &n| {
            b.iter(|| black_box(n).wrapping_mul(3))
        });
        g.finish();
        assert_eq!(BenchmarkId::new("f", 7).to_string(), "f/7");
    }

    #[test]
    fn completed_benchmarks_are_queryable_and_metrics_record() {
        let mut c = Criterion::default();
        c.bench_function("query/me", |b| b.iter(|| black_box(5u64).pow(3)));
        let median = c.median_ns("query/me").expect("was just measured");
        assert!(median > 0.0);
        c.record_metric("speedup_test_metric", 4.2);
        let store = store().lock().unwrap();
        assert!(store
            .metrics
            .iter()
            .any(|(n, v)| n == "speedup_test_metric" && *v == 4.2));
    }

    #[test]
    fn json_rendering_is_valid_and_escaped() {
        let s = Store {
            benchmarks: vec![(
                "a\"b\\c".to_string(),
                BenchResult {
                    median_ns: 12.5,
                    mean_ns: f64::NAN,
                    samples: 3,
                },
            )],
            metrics: vec![("ratio".to_string(), 3.0)],
        };
        let json = render_json(&s);
        assert!(json.contains("\"a\\\"b\\\\c\""));
        assert!(json.contains("\"median_ns\": 12.5"));
        assert!(json.contains("\"mean_ns\": null"));
        assert!(json.contains("\"ratio\": 3"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
