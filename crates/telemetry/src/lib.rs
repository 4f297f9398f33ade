//! Zero-dependency observability for the DIVOT pipeline: atomic
//! metrics, span timers, and a structured JSON-lines event log.
//!
//! The DIVOT paper is itself an observability architecture — the bus is
//! continuously measured and anomalies must be localized in time and
//! space — so the reproduction exposes its own internals the same way.
//! Three instruments cover the pipeline:
//!
//! - **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]):
//!   named, lock-free aggregates rendered as stable-ordered
//!   Prometheus-style text by [`Registry::render_text`].
//! - **Spans** ([`SpanTimer`], [`span!`]): RAII wall-clock timers
//!   aggregating into latency histograms (`itdr.measure`, `hub.sweep`).
//! - **Events** ([`EventSink`], [`Value`]): discrete JSONL records for
//!   auth decisions, tamper detections, analytic fallbacks, cache
//!   evictions.
//! - **Traces** ([`TraceCtx`], [`Tracer`]): deterministically sampled
//!   per-request stage spans (queue wait, fabrication, sweep, cache
//!   lookup, store lock) on a dedicated JSONL sink, installed via
//!   [`install_tracer`].
//!
//! # Determinism contract
//!
//! Telemetry is strictly *observe-only*: nothing in the pipeline ever
//! reads a metric, span, or event to make a decision, and no instrument
//! touches an RNG. Enabling or disabling telemetry therefore cannot
//! change a single bit of any fingerprint, similarity score, or EER —
//! `crates/core/tests/parallel_equivalence.rs` pins this.
//!
//! # Global default vs. owned registries
//!
//! [`Registry`] is global-free and any component can own one, but most
//! call sites want a process default (the bench binaries install one
//! when `--telemetry`/`--metrics-summary` are given). [`install`] sets
//! it once, `log`-crate style; the convenience free functions
//! ([`add`], [`observe`], [`emit`], …) no-op until then, so library
//! crates can instrument unconditionally:
//!
//! ```
//! divot_telemetry::add("itdr.measurements", 1); // no-op: nothing installed
//! let _guard = divot_telemetry::span!("itdr.measure"); // disabled guard
//! ```
//!
//! Hot loops must not pay the registry name lookup per iteration:
//! prefetch an `Arc` handle once ([`counter`], [`histogram`]) and
//! update it lock-free, or skip instrumentation entirely (per-trial
//! comparator work is deliberately uninstrumented).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod registry;
mod span;
mod trace;

pub use event::{EventSink, Value};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricSnapshot, Registry};
pub use span::SpanTimer;
pub use trace::{flush_tracer, install_tracer, tracer, TraceCtx, TraceSpan, Tracer};

use std::sync::{Arc, OnceLock};

/// A registry plus an optional event sink: the unit that [`install`]
/// makes the process default, and that tests hand around explicitly.
#[derive(Debug, Default)]
pub struct Telemetry {
    registry: Registry,
    sink: Option<EventSink>,
}

impl Telemetry {
    /// Metrics only, no event sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Metrics plus a JSONL event sink.
    pub fn with_sink(sink: EventSink) -> Self {
        Self {
            registry: Registry::new(),
            sink: Some(sink),
        }
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event sink, when one was configured.
    pub fn sink(&self) -> Option<&EventSink> {
        self.sink.as_ref()
    }

    /// Emit an event (no-op without a sink).
    pub fn emit(&self, event: &str, fields: &[(&str, Value)]) {
        if let Some(sink) = &self.sink {
            sink.emit(event, fields);
        }
    }
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// Install `telemetry` as the process-wide default. First call wins.
///
/// # Errors
///
/// Returns `telemetry` back if a default is already installed.
pub fn install(telemetry: Telemetry) -> Result<&'static Telemetry, Telemetry> {
    GLOBAL.set(telemetry)?;
    Ok(GLOBAL.get().expect("just installed"))
}

/// The installed process default, if any.
pub fn global() -> Option<&'static Telemetry> {
    GLOBAL.get()
}

/// Get the global counter `name` (a cheap `Arc` clone to prefetch
/// outside hot loops), or `None` when no default is installed.
pub fn counter(name: &str) -> Option<Arc<Counter>> {
    global().map(|t| t.registry().counter(name))
}

/// Get the global gauge `name`, or `None` when no default is installed.
pub fn gauge(name: &str) -> Option<Arc<Gauge>> {
    global().map(|t| t.registry().gauge(name))
}

/// Get the global histogram `name` (default latency buckets), or `None`
/// when no default is installed.
pub fn histogram(name: &str) -> Option<Arc<Histogram>> {
    global().map(|t| t.registry().histogram(name))
}

/// Get the global histogram `name`, building it with `make` on first
/// registration, or `None` when no default is installed.
pub fn histogram_with(name: &str, make: impl FnOnce() -> Histogram) -> Option<Arc<Histogram>> {
    global().map(|t| t.registry().histogram_with(name, make))
}

/// Add `n` to the global counter `name` (no-op when nothing is
/// installed). For occasional events only — hot loops prefetch via
/// [`counter`].
pub fn add(name: &str, n: u64) {
    if let Some(t) = global() {
        t.registry().counter(name).add(n);
    }
}

/// Add one to the global counter `name` (no-op when nothing is
/// installed).
pub fn inc(name: &str) {
    add(name, 1);
}

/// Set the global gauge `name` (no-op when nothing is installed).
pub fn set_gauge(name: &str, v: f64) {
    if let Some(t) = global() {
        t.registry().gauge(name).set(v);
    }
}

/// Record `v` into the global histogram `name` (no-op when nothing is
/// installed).
pub fn observe(name: &str, v: f64) {
    if let Some(t) = global() {
        t.registry().histogram(name).observe(v);
    }
}

/// Emit an event to the global sink (no-op when nothing is installed or
/// the default has no sink).
pub fn emit(event: &str, fields: &[(&str, Value)]) {
    if let Some(t) = global() {
        t.emit(event, fields);
    }
}

/// Start an RAII span timer against the installed global telemetry;
/// bind the result or the span ends immediately.
///
/// ```
/// {
///     let _span = divot_telemetry::span!("itdr.measure");
///     // ... timed work ...
/// } // elapsed seconds recorded here (if telemetry is installed)
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanTimer::global($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The OnceLock is process-global, so everything touching install()
    // lives in this one test (unit tests share a process).
    #[test]
    fn global_install_once_and_convenience_paths() {
        // Before install: every convenience call is a silent no-op.
        assert!(global().is_none());
        add("pre.install", 5);
        observe("pre.span", 1.0);
        emit("pre.event", &[]);
        assert!(counter("pre.install").is_none());
        assert!(!SpanTimer::global("pre.span").is_enabled());

        let t = install(Telemetry::new()).expect("first install");
        assert!(
            install(Telemetry::new()).is_err(),
            "second install rejected"
        );

        inc("post.install");
        add("post.install", 2);
        assert_eq!(t.registry().counter("post.install").get(), 3);
        set_gauge("post.gauge", 4.5);
        assert_eq!(t.registry().gauge("post.gauge").get(), 4.5);

        {
            let _span = span!("post.span");
        }
        assert_eq!(t.registry().histogram("post.span").count(), 1);

        // No sink configured: emit stays a no-op.
        emit("post.event", &[("k", Value::from(1u64))]);

        // The pre-install counters never materialized.
        let text = t.registry().render_text();
        assert!(!text.contains("pre.install"), "{text}");
        assert!(text.contains("# TYPE post.install counter"), "{text}");
    }
}
