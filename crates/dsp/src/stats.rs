//! Descriptive statistics: moments, summaries, histograms, percentiles.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance. Returns 0 for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation (square root of [`variance`]).
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum value, or `None` for an empty slice. NaN-free input assumed.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().cloned().reduce(f64::min)
}

/// Maximum value, or `None` for an empty slice. NaN-free input assumed.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().cloned().reduce(f64::max)
}

/// The `q`-th percentile (0–100) by linear interpolation between order
/// statistics. Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&q), "percentile must be in [0,100]");
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (50th percentile). Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Median absolute deviation: the median of `|x - median(xs)|`. Returns
/// `None` for an empty slice; a single-element or constant slice has MAD
/// zero. Multiply by ≈1.4826 for a robust σ estimate under normality
/// (see [`MAD_TO_SIGMA`]).
pub fn median_abs_deviation(xs: &[f64]) -> Option<f64> {
    let m = median(xs)?;
    let deviations: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

/// Consistency factor converting a [`median_abs_deviation`] into an
/// unbiased σ estimate for normally distributed data (1/Φ⁻¹(3/4)).
pub const MAD_TO_SIGMA: f64 = 1.482_602_218_505_602;

/// Mean of the central `1 - 2·trim` fraction: sort, drop
/// `floor(trim·n)` samples from each end, average the rest. Robust to a
/// bounded fraction of outliers while smoother than the median. Returns
/// `None` for an empty slice; `trim = 0` is the plain mean.
///
/// # Panics
///
/// Panics if `trim` is outside `[0, 0.5)`.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> Option<f64> {
    assert!(
        (0.0..0.5).contains(&trim),
        "trim fraction must be in [0, 0.5)"
    );
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in trimmed_mean input"));
    let cut = (trim * sorted.len() as f64).floor() as usize;
    // cut < n/2 by the trim bound, so the kept range is never empty.
    Some(mean(&sorted[cut..sorted.len() - cut]))
}

/// A one-pass (Welford) accumulator for mean/variance plus extrema.
///
/// ```
/// use divot_dsp::stats::Accumulator;
///
/// let mut acc = Accumulator::new();
/// for x in [1.0, 2.0, 3.0] { acc.push(x); }
/// assert_eq!(acc.count(), 3);
/// assert!((acc.mean() - 2.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum seen, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum seen, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Snapshot as a [`Summary`].
    ///
    /// A streaming accumulator cannot compute order statistics, so the
    /// snapshot's [`mad`](Summary::mad) is NaN; use [`Summary::of`] when
    /// the full sample is at hand and the robust spread matters.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: self.min().unwrap_or(f64::NAN),
            max: self.max().unwrap_or(f64::NAN),
            mad: f64::NAN,
        }
    }
}

impl Extend<f64> for Accumulator {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Accumulator {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut acc = Accumulator::new();
        acc.extend(iter);
        acc
    }
}

/// A compact statistical summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum (NaN if empty).
    pub min: f64,
    /// Maximum (NaN if empty).
    pub max: f64,
    /// Median absolute deviation (NaN if empty, or when the summary was
    /// snapshotted from a streaming [`Accumulator`], which cannot
    /// compute order statistics).
    pub mad: f64,
}

impl Summary {
    /// Summarize a slice in one call (including the robust
    /// [`mad`](Self::mad), which a streaming snapshot cannot provide).
    pub fn of(xs: &[f64]) -> Self {
        Summary {
            mad: median_abs_deviation(xs).unwrap_or(f64::NAN),
            ..xs.iter().copied().collect::<Accumulator>().summary()
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.6e} sd={:.6e} min={:.6e} max={:.6e} mad={:.6e}",
            self.count, self.mean, self.std_dev, self.min, self.max, self.mad
        )
    }
}

/// A fixed-range histogram with uniform bins.
///
/// Used to regenerate the distribution plots of Fig. 7(a)/Fig. 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Add a sample.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        if x >= self.hi {
            self.overflow += 1;
            return;
        }
        let f = (x - self.lo) / (self.hi - self.lo);
        let i = ((f * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[i] += 1;
    }

    /// Fill from a slice.
    pub fn push_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples (including out-of-range).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The center value of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Iterate over `(bin_center, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        (0..self.counts.len()).map(move |i| (self.bin_center(i), self.counts[i]))
    }

    /// Normalized bin densities (counts / total / bin-width). Empty total
    /// yields all zeros.
    pub fn densities(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .map(|&c| c as f64 / total as f64 / w)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(min(&[]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert!((percentile(&xs, 50.0).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0,100]")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn accumulator_matches_batch() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let acc: Accumulator = xs.iter().copied().collect();
        assert_eq!(acc.count(), 1000);
        assert!((acc.mean() - mean(&xs)).abs() < 1e-12);
        assert!((acc.variance() - variance(&xs)).abs() < 1e-10);
        assert_eq!(acc.min(), min(&xs));
        assert_eq!(acc.max(), max(&xs));
    }

    #[test]
    fn accumulator_empty() {
        let acc = Accumulator::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.min(), None);
        assert!(acc.summary().min.is_nan());
    }

    #[test]
    fn summary_display_nonempty() {
        let s = Summary::of(&[1.0, 2.0]);
        assert!(format!("{s}").contains("n=2"));
        assert!(format!("{s}").contains("mad="));
    }

    #[test]
    fn mad_ignores_outliers() {
        // One wild outlier moves std_dev by orders of magnitude but
        // leaves the MAD at the bulk's spread.
        let clean = [1.0, 2.0, 3.0, 4.0, 5.0];
        let dirty = [1.0, 2.0, 3.0, 4.0, 1e6];
        assert_eq!(median_abs_deviation(&clean), Some(1.0));
        assert_eq!(median_abs_deviation(&dirty), Some(1.0));
        assert!(std_dev(&dirty) > 1e5);
        assert!((median_abs_deviation(&[3.0]).unwrap()).abs() < 1e-15);
        assert_eq!(median_abs_deviation(&[]), None);
    }

    #[test]
    fn mad_to_sigma_recovers_normal_spread() {
        use crate::rng::DivotRng;
        let mut rng = DivotRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.normal(0.0, 2.5)).collect();
        let robust_sigma = median_abs_deviation(&xs).unwrap() * MAD_TO_SIGMA;
        assert!(
            (robust_sigma - 2.5).abs() < 0.1,
            "robust_sigma={robust_sigma}"
        );
    }

    #[test]
    fn trimmed_mean_discards_tails() {
        let xs = [1.0, 2.0, 3.0, 4.0, 100.0];
        // 20% trim drops one sample from each end: mean of [2,3,4].
        assert_eq!(trimmed_mean(&xs, 0.2), Some(3.0));
        // Zero trim is the plain mean.
        assert_eq!(trimmed_mean(&xs, 0.0), Some(mean(&xs)));
        assert_eq!(trimmed_mean(&[], 0.1), None);
        assert_eq!(trimmed_mean(&[7.0], 0.4), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "trim fraction must be in [0, 0.5)")]
    fn trimmed_mean_rejects_half_trim() {
        let _ = trimmed_mean(&[1.0, 2.0], 0.5);
    }

    #[test]
    fn summary_of_carries_mad_but_streaming_snapshot_cannot() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(Summary::of(&xs).mad, 1.0);
        let acc: Accumulator = xs.iter().copied().collect();
        assert!(acc.summary().mad.is_nan());
        assert_eq!(acc.summary().count, 5);
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push_all(&[0.0, 0.5, 5.0, 9.999, -1.0, 10.0, 25.0]);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_densities_integrate_to_in_range_fraction() {
        let mut h = Histogram::new(0.0, 1.0, 20);
        for i in 0..1000 {
            h.push(i as f64 / 1000.0);
        }
        let w = 1.0 / 20.0;
        let integral: f64 = h.densities().iter().map(|d| d * w).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "histogram range must be non-empty")]
    fn histogram_rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }
}
