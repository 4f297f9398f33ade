//! The metric registry: named, get-or-create instruments with a
//! stable-ordered Prometheus-style text exposition.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// A point-in-time copy of one registered metric's state — what
/// [`Registry::snapshot`] hands to programmatic exporters (the fleet's
/// wire-stats path) instead of the rendered text.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// A counter's current count.
    Counter(u64),
    /// A gauge's last recorded value.
    Gauge(f64),
    /// A histogram's bucket state (quantiles via
    /// [`HistogramSnapshot::quantile`]).
    Histogram(HistogramSnapshot),
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics.
///
/// `Registry` is global-free: any component can own one (the process
/// default installed via [`crate::install`] is just a registry like any
/// other, and per-instance registries — e.g. one per response cache —
/// coexist with it). Instrument handles are `Arc`s, so hot paths fetch
/// a handle once and update it lock-free; the registry's mutex guards
/// only name lookup and rendering.
///
/// Names are kept verbatim (dotted, e.g. `itdr.measure`) and rendered
/// in lexicographic order, so [`Registry::render_text`] output is
/// stable across runs and platforms.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type — signal names are a compile-time catalog (see
    /// ARCHITECTURE.md), so a type clash is a programming error.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.metrics.lock().expect("registry lock");
        let metric = map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create the gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash (see [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.metrics.lock().expect("registry lock");
        let metric = map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or create the histogram named `name` with the default
    /// latency buckets ([`Histogram::default_latency`]).
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash (see [`Registry::counter`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, Histogram::default_latency)
    }

    /// Get or create the histogram named `name`, building it with
    /// `make` on first registration (custom bucket layouts). The first
    /// registration wins: later calls return the existing histogram
    /// regardless of `make`.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type clash (see [`Registry::counter`]).
    pub fn histogram_with(&self, name: &str, make: impl FnOnce() -> Histogram) -> Arc<Histogram> {
        let mut map = self.metrics.lock().expect("registry lock");
        let metric = map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(make())));
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("registry lock").len()
    }

    /// Whether nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every registered metric, in lexicographic
    /// name order (the same stable order as
    /// [`render_text`](Self::render_text)). This is the programmatic
    /// export path: serializers read values and histogram buckets
    /// directly instead of re-parsing rendered text.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let map = self.metrics.lock().expect("registry lock");
        map.iter()
            .map(|(name, metric)| {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                };
                (name.clone(), snap)
            })
            .collect()
    }

    /// Render every metric in Prometheus-style text exposition,
    /// lexicographically ordered by name (stable across runs):
    ///
    /// ```text
    /// # TYPE auth.accepts counter
    /// auth.accepts 12
    /// # TYPE itdr.measure histogram
    /// itdr.measure_bucket{le="0.000001"} 0
    /// itdr.measure_bucket{le="+Inf"} 3
    /// itdr.measure_sum 0.41
    /// itdr.measure_count 3
    /// ```
    ///
    /// Metric names keep their dots (this repository greps the output;
    /// it does not feed a real Prometheus scraper).
    pub fn render_text(&self) -> String {
        let map = self.metrics.lock().expect("registry lock");
        let mut out = String::new();
        for (name, metric) in map.iter() {
            let _ = writeln!(out, "# TYPE {name} {}", metric.kind());
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (i, &count) in snap.counts.iter().enumerate() {
                        cumulative += count;
                        match snap.bounds.get(i) {
                            Some(b) => {
                                let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cumulative}");
                            }
                            None => {
                                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                            }
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}", snap.sum);
                    let _ = writeln!(out, "{name}_count {}", snap.count());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_instrument() {
        let r = Registry::new();
        r.counter("a.hits").add(3);
        r.counter("a.hits").add(4);
        assert_eq!(r.counter("a.hits").get(), 7);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn type_clash_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn first_histogram_layout_wins() {
        let r = Registry::new();
        let h1 = r.histogram_with("h", || Histogram::new(&[1.0]));
        let h2 = r.histogram_with("h", || Histogram::new(&[2.0, 3.0]));
        assert_eq!(h1.bounds(), h2.bounds());
    }

    #[test]
    fn snapshot_exports_values_in_name_order() {
        let r = Registry::new();
        r.counter("z.count").add(7);
        r.gauge("a.gauge").set(1.5);
        r.histogram_with("m.hist", || Histogram::new(&[1.0, 2.0]))
            .observe(1.5);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.gauge", "m.hist", "z.count"]);
        assert_eq!(snap[0].1, MetricSnapshot::Gauge(1.5));
        assert_eq!(snap[2].1, MetricSnapshot::Counter(7));
        match &snap[1].1 {
            MetricSnapshot::Histogram(h) => {
                assert_eq!(h.count(), 1);
                // Sole observation fills bucket (1, 2]; its rank sits at
                // the bucket's upper edge.
                assert_eq!(h.quantile(0.5), Some(2.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn render_is_lexicographically_ordered() {
        let r = Registry::new();
        r.counter("zeta");
        r.counter("alpha");
        r.gauge("mid");
        let text = r.render_text();
        let alpha = text.find("alpha").unwrap();
        let mid = text.find("mid").unwrap();
        let zeta = text.find("zeta").unwrap();
        assert!(alpha < mid && mid < zeta, "{text}");
    }
}
