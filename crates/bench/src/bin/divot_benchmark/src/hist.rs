//! A fixed-size log-bucket latency histogram.
//!
//! The generator records every reply, so its memory must not grow with
//! throughput: buckets are geometric with ratio [`RATIO`] from
//! [`MIN_NS`] up. A quantile is interpolated geometrically by rank
//! inside the bucket that holds it, so it stays inside that bucket —
//! within `RATIO - 1` (1 %) of the exact nearest-rank value — without
//! snapping every run to the same bucket edge. Failed or shed requests
//! are recorded as +∞, so a quantile that reaches them reads +∞: a
//! request that never came back misses every latency limit.

/// Bucket growth ratio: any value inside a bucket is within 1 % of any other.
const RATIO: f64 = 1.01;
/// Lower edge of bucket 0 (values below it share bucket 0).
const MIN_NS: f64 = 50.0;
/// Buckets cover `MIN_NS · RATIO^BUCKETS` ≈ 20 minutes.
const BUCKETS: usize = 2_400;

/// Latency histogram over nanoseconds.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Box<[u64]>,
    infinite: u64,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            infinite: 0,
            total: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let x = (ns as f64).max(MIN_NS);
        let b = ((x / MIN_NS).ln() / RATIO.ln()) as usize;
        if b >= BUCKETS {
            self.infinite += 1;
        } else {
            self.counts[b] += 1;
        }
        self.total += 1;
    }

    /// Record a request that failed or was shed: +∞.
    pub fn record_failure(&mut self) {
        self.infinite += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.infinite += other.infinite;
        self.total += other.total;
    }

    /// The nearest-rank `q`-quantile in nanoseconds (`None` when empty,
    /// `+∞` when the rank lands on a failure).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let within = (rank - seen) as f64 - 0.5;
                return Some(MIN_NS * RATIO.powf(b as f64 + within / c as f64));
            }
            seen += c;
        }
        Some(f64::INFINITY)
    }

    /// Samples strictly above the `q`-quantile's rank — the tail a
    /// percentile rests on.
    pub fn beyond(&self, q: f64) -> u64 {
        let rank = (q * self.total as f64).ceil() as u64;
        self.total.saturating_sub(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_dsp::rng::mix_seed;

    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn quantiles_are_within_one_percent_of_an_exact_sort() {
        // Log-uniform latencies from 200 ns to 2 s, the range the
        // benchmark sees between a cache peek and a stalled batch.
        let samples: Vec<u64> = (0..20_000u64)
            .map(|i| {
                let u = (mix_seed(11, i) >> 11) as f64 / (1u64 << 53) as f64;
                (200.0 * 1e7f64.powf(u)) as u64
            })
            .collect();
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = exact(&sorted, q);
            let got = h.quantile(q).unwrap();
            let err = (got - want).abs() / want;
            assert!(
                err <= 0.01,
                "q={q}: histogram {got} vs exact {want} ({err:.4})"
            );
        }
        assert_eq!(h.count(), 20_000);
        assert_eq!(h.beyond(0.99), 200);
    }

    #[test]
    fn failures_read_as_infinite() {
        let mut h = LogHistogram::new();
        for ns in [1_000, 2_000, 3_000] {
            h.record(ns);
        }
        h.record_failure();
        assert!(h.quantile(0.5).unwrap().is_finite());
        assert_eq!(h.quantile(0.9), Some(f64::INFINITY));
        assert_eq!(LogHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(1_000);
        b.record(9_000);
        b.record_failure();
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.quantile(1.0), Some(f64::INFINITY));
    }
}
