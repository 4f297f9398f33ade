//! Atomic metric primitives: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Every instrument here is lock-free, observe-only, and infallible:
//! recording is an atomic RMW (plus a binary search for histograms),
//! never blocks, never allocates, and never influences control flow.
//! That is what keeps telemetry out of the bitwise-determinism path —
//! nothing downstream ever *reads* a metric to make a decision.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-written-value instrument (worker count, lane count, cache
/// capacity). Stores the `f64` bit pattern in an atomic word.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge starting at `0.0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the current value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The last recorded value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram over `f64` observations (span latencies in
/// seconds, similarity scores, queue depths).
///
/// Buckets are defined by a strictly increasing list of finite upper
/// bounds with Prometheus "le" semantics: observation `v` lands in the
/// first bucket whose bound satisfies `v <= bound`, and an implicit
/// `+Inf` overflow bucket catches everything above the last bound.
/// Recording is one binary search plus two atomic updates; there is no
/// per-observation allocation and no lock.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    /// One slot per finite bound plus the trailing `+Inf` bucket.
    counts: Box<[AtomicU64]>,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram with the given finite upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, contains a non-finite value, or is
    /// not strictly increasing — bucket layout is a programming-time
    /// decision, not a runtime input.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket bound"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bucket bounds must be finite"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bucket bounds must be strictly increasing"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: bounds.into(),
            counts,
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Exponential bounds `start, start·factor, …` (`buckets` of them).
    ///
    /// # Panics
    ///
    /// Panics if `start <= 0`, `factor <= 1`, or `buckets == 0`.
    pub fn exponential(start: f64, factor: f64, buckets: usize) -> Self {
        assert!(start > 0.0 && factor > 1.0 && buckets > 0);
        let bounds: Vec<f64> = (0..buckets)
            .map(|i| start * factor.powi(i as i32))
            .collect();
        Self::new(&bounds)
    }

    /// Linear bounds `start, start+width, …` (`buckets` of them).
    ///
    /// # Panics
    ///
    /// Panics if `width <= 0` or `buckets == 0`.
    pub fn linear(start: f64, width: f64, buckets: usize) -> Self {
        assert!(width > 0.0 && buckets > 0);
        let bounds: Vec<f64> = (0..buckets).map(|i| start + width * i as f64).collect();
        Self::new(&bounds)
    }

    /// The default span-latency layout: 26 exponential buckets from
    /// 1 µs to ~33.6 s (seconds, factor 2) — wide enough for a cached
    /// point kernel and a paper-full enrollment sweep alike.
    pub fn default_latency() -> Self {
        Self::exponential(1e-6, 2.0, 26)
    }

    /// The span-latency layout for *nanosecond-valued* observations
    /// (`*_ns` metrics): 26 exponential buckets from 100 ns to ~3.4 s.
    /// Seconds-scale bounds would push every nanosecond count into the
    /// overflow bucket and flatten all quantiles onto the last bound.
    pub fn default_latency_ns() -> Self {
        Self::exponential(100.0, 2.0, 26)
    }

    /// A layout for scores in `[0, 1]`: 20 linear buckets of width 0.05.
    pub fn unit_interval() -> Self {
        Self::linear(0.05, 0.05, 20)
    }

    /// The configured finite upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.counts[i].fetch_add(1, Ordering::Relaxed);
        self.add_to_sum(v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// An estimate of the `q`-quantile (`q` clamped to `[0, 1]`), or
    /// `None` when the histogram is empty. See
    /// [`HistogramSnapshot::quantile`] for the estimator's resolution
    /// contract.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }

    /// Fold another histogram's observations into this one.
    ///
    /// Bucket counts merge exactly (so merging is associative and
    /// commutative on counts regardless of thread interleaving); the
    /// running sums add in floating point.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms were built with different bounds.
    pub fn merge_from(&self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram bucket bounds must match to merge"
        );
        for (mine, theirs) in self.counts.iter().zip(other.counts.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.add_to_sum(other.sum());
    }

    /// A point-in-time copy of the bucket state (for rendering and
    /// quantile math away from the atomics).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum(),
        }
    }

    fn add_to_sum(&self, v: f64) {
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite upper bounds (same layout as the source histogram).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the last entry is the `+Inf` overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// An estimate of the `q`-quantile (`q` clamped to `[0, 1]`), or
    /// `None` when empty.
    ///
    /// Resolution contract: the estimate always lies within the bucket
    /// that contains the target rank — linear interpolation between the
    /// bucket's bounds for interior buckets, the first bound for the
    /// first bucket (whose lower edge is unknown), and the last finite
    /// bound for the `+Inf` overflow bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if before + c >= target && c > 0 {
                if i == 0 {
                    return Some(self.bounds[0]);
                }
                let Some(&upper) = self.bounds.get(i) else {
                    // Overflow bucket: no finite upper edge to
                    // interpolate toward.
                    return Some(*self.bounds.last().expect("bounds nonempty"));
                };
                let lower = self.bounds[i - 1];
                let frac = (target - before) as f64 / c as f64;
                return Some(lower + frac * (upper - lower));
            }
            before += c;
        }
        unreachable!("target rank is <= total count")
    }

    /// Several quantiles at once (each `None`-free only when nonempty);
    /// the shape a stats exporter wants: `quantiles(&[0.5, 0.9, 0.99])`.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<Option<f64>> {
        qs.iter().map(|&q| self.quantile(q)).collect()
    }

    /// Fold another snapshot's observations into this one — the
    /// detached-copy analogue of [`Histogram::merge_from`], for
    /// aggregating exported snapshots (e.g. per-server stats frames)
    /// away from any live registry.
    ///
    /// Bucket counts add exactly, so merging snapshots is associative
    /// and commutative on counts — and therefore on every quantile,
    /// which reads only bounds and counts. Sums add in floating point.
    ///
    /// # Panics
    ///
    /// Panics if the two snapshots carry different bucket bounds.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram bucket bounds must match to merge"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_holds_last_value() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        g.set(-7.0);
        assert_eq!(g.get(), -7.0);
    }

    #[test]
    fn histogram_le_semantics() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(1.0); // on-bound lands in its own bucket (le)
        h.observe(1.5);
        h.observe(100.0); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![1, 1, 0, 1]);
        assert_eq!(s.count(), 3);
        assert!((s.sum - 102.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_bounded_by_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for _ in 0..10 {
            h.observe(1.5);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((1.0..=2.0).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(0.0), h.quantile(0.001));
        let empty = Histogram::new(&[1.0]);
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn quantile_interpolates_within_the_target_bucket() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        // 4 observations in (1, 2]: ranks 1..=4 all land there.
        for _ in 0..4 {
            h.observe(1.5);
        }
        // p25 targets rank 1 of 4 in a bucket holding all 4: 1/4 of the
        // way from 1.0 to 2.0.
        assert!((h.quantile(0.25).unwrap() - 1.25).abs() < 1e-12);
        assert!((h.quantile(0.5).unwrap() - 1.5).abs() < 1e-12);
        assert!((h.quantile(1.0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_edges_first_and_overflow_buckets() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.1); // first bucket: reported as its bound
        assert_eq!(h.quantile(0.5), Some(1.0));
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(50.0); // overflow: reported as the last finite bound
        assert_eq!(h.quantile(0.99), Some(2.0));
        // q outside [0, 1] clamps instead of panicking.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
    }

    #[test]
    fn quantiles_batch_matches_singles() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0, 9.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        let qs = snap.quantiles(&[0.5, 0.9, 0.99]);
        assert_eq!(
            qs,
            vec![snap.quantile(0.5), snap.quantile(0.9), snap.quantile(0.99)]
        );
    }

    #[test]
    fn snapshot_merge_matches_live_merge() {
        let a = Histogram::new(&[1.0, 2.0]);
        let b = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(9.0);
        let mut merged = a.snapshot();
        merged.merge_from(&b.snapshot());
        a.merge_from(&b);
        assert_eq!(merged, a.snapshot());
        assert_eq!(merged.quantile(0.5), a.quantile(0.5));
    }

    #[test]
    #[should_panic(expected = "must match to merge")]
    fn snapshot_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0]).snapshot();
        a.merge_from(&Histogram::new(&[2.0]).snapshot());
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let a = Histogram::new(&[1.0, 2.0]);
        let b = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(9.0);
        a.merge_from(&b);
        assert_eq!(a.snapshot().counts, vec![1, 1, 1]);
        assert!((a.sum() - 11.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must match to merge")]
    fn histogram_merge_rejects_mismatched_bounds() {
        Histogram::new(&[1.0]).merge_from(&Histogram::new(&[2.0]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[2.0, 1.0]);
    }
}
