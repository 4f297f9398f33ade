//! A uniformly sampled waveform with interpolated sampling.
//!
//! [`Waveform`] is the lingua franca between the physics substrate (which
//! produces back-reflection responses), the analog front end (which samples
//! them at equivalent-time instants), and the iTDR (which reconstructs
//! IIPs). Samples are `f64` volts on a uniform time grid.

use std::fmt;

/// Error produced by waveform operations on incompatible grids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridMismatchError {
    what: &'static str,
}

impl fmt::Display for GridMismatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "waveform grids are incompatible: {}", self.what)
    }
}

impl std::error::Error for GridMismatchError {}

/// A uniformly sampled real-valued waveform.
///
/// The sample at index `n` corresponds to time `t0 + n·dt`.
///
/// ```
/// use divot_dsp::Waveform;
///
/// let w = Waveform::from_fn(0.0, 1e-12, 100, |t| (1e12 * t).sin());
/// assert_eq!(w.len(), 100);
/// assert!((w.duration() - 100e-12).abs() < 1e-24);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    t0: f64,
    dt: f64,
    samples: Vec<f64>,
}

impl Waveform {
    /// Create a waveform from raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or not finite.
    pub fn new(t0: f64, dt: f64, samples: Vec<f64>) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive and finite");
        Self { t0, dt, samples }
    }

    /// Create a zero waveform of `n` samples.
    pub fn zeros(t0: f64, dt: f64, n: usize) -> Self {
        Self::new(t0, dt, vec![0.0; n])
    }

    /// Create a waveform by evaluating `f` at each grid time.
    pub fn from_fn(t0: f64, dt: f64, n: usize, mut f: impl FnMut(f64) -> f64) -> Self {
        let samples = (0..n).map(|i| f(t0 + i as f64 * dt)).collect();
        Self::new(t0, dt, samples)
    }

    /// Start time of the grid.
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Grid spacing (seconds per sample).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the waveform has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total covered time span `len·dt`.
    pub fn duration(&self) -> f64 {
        self.len() as f64 * self.dt
    }

    /// Immutable access to the sample buffer.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mutable access to the sample buffer.
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// Consume the waveform, returning its sample buffer.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }

    /// The grid time of sample `n`.
    pub fn time_at(&self, n: usize) -> f64 {
        self.t0 + n as f64 * self.dt
    }

    /// Linearly interpolated value at time `t`.
    ///
    /// Times before the first sample return the first sample; times after
    /// the last return the last (constant extrapolation — physically, the
    /// settled line voltage).
    pub fn sample_at(&self, t: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let x = (t - self.t0) / self.dt;
        if x <= 0.0 {
            return self.samples[0];
        }
        let last = self.samples.len() - 1;
        if x >= last as f64 {
            return self.samples[last];
        }
        let i = x.floor() as usize;
        let frac = x - i as f64;
        self.samples[i] * (1.0 - frac) + self.samples[i + 1] * frac
    }

    /// Apply `f` to every sample in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(f64) -> f64) {
        for s in &mut self.samples {
            *s = f(*s);
        }
    }

    /// Scale all samples by `k`.
    pub fn scale(&mut self, k: f64) {
        self.map_in_place(|s| s * k);
    }

    /// Add another waveform sample-wise.
    ///
    /// # Errors
    ///
    /// Returns [`GridMismatchError`] if lengths or grid spacings differ
    /// (relative dt tolerance 1 ppm).
    pub fn try_add(&mut self, other: &Waveform) -> Result<(), GridMismatchError> {
        self.check_grid(other)?;
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            *a += b;
        }
        Ok(())
    }

    /// Subtract another waveform sample-wise.
    ///
    /// # Errors
    ///
    /// Returns [`GridMismatchError`] if the grids are incompatible.
    pub fn try_sub(&mut self, other: &Waveform) -> Result<(), GridMismatchError> {
        self.check_grid(other)?;
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            *a -= b;
        }
        Ok(())
    }

    fn check_grid(&self, other: &Waveform) -> Result<(), GridMismatchError> {
        if self.samples.len() != other.samples.len() {
            return Err(GridMismatchError {
                what: "different lengths",
            });
        }
        if (self.dt - other.dt).abs() > 1e-6 * self.dt {
            return Err(GridMismatchError {
                what: "different sample spacings",
            });
        }
        Ok(())
    }

    /// Sum of squared samples (discrete signal energy, up to a `dt` factor).
    pub fn energy(&self) -> f64 {
        self.samples.iter().map(|s| s * s).sum()
    }

    /// Root-mean-square of the samples. Zero for an empty waveform.
    pub fn rms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        (self.energy() / self.samples.len() as f64).sqrt()
    }

    /// Largest absolute sample value. Zero for an empty waveform.
    pub fn peak(&self) -> f64 {
        self.samples.iter().fold(0.0f64, |m, s| m.max(s.abs()))
    }

    /// Index of the largest absolute sample, or `None` if empty.
    pub fn peak_index(&self) -> Option<usize> {
        (0..self.samples.len()).max_by(|&a, &b| {
            self.samples[a]
                .abs()
                .partial_cmp(&self.samples[b].abs())
                .expect("samples must not be NaN")
        })
    }

    /// Arithmetic mean of the samples. Zero for an empty waveform.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Subtract the mean from every sample.
    pub fn remove_mean(&mut self) {
        let m = self.mean();
        self.map_in_place(|s| s - m);
    }

    /// Scale the waveform to unit energy. A zero waveform is left unchanged.
    pub fn normalize_energy(&mut self) {
        let e = self.energy().sqrt();
        if e > 0.0 {
            self.scale(1.0 / e);
        }
    }

    /// Resample onto a new uniform grid by linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`.
    pub fn resampled(&self, t0: f64, dt: f64, n: usize) -> Waveform {
        Waveform::from_fn(t0, dt, n, |t| self.sample_at(t))
    }

    /// Extract the sub-waveform covering `[t_start, t_end)` (grid-aligned).
    ///
    /// Returns an empty waveform if the window misses the grid entirely.
    pub fn window(&self, t_start: f64, t_end: f64) -> Waveform {
        let i0 = (((t_start - self.t0) / self.dt).ceil().max(0.0)) as usize;
        let i1 = ((t_end - self.t0) / self.dt).ceil().max(0.0) as usize;
        let i1 = i1.min(self.samples.len());
        let i0 = i0.min(i1);
        Waveform::new(
            self.t0 + i0 as f64 * self.dt,
            self.dt,
            self.samples[i0..i1].to_vec(),
        )
    }

    /// Iterate over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.samples
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.t0 + i as f64 * self.dt, v))
    }
}

impl std::ops::Index<usize> for Waveform {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.samples[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Waveform {
        Waveform::from_fn(1.0, 0.5, 5, |t| t) // samples at t = 1.0..3.0
    }

    #[test]
    fn construction_and_accessors() {
        let w = ramp();
        assert_eq!(w.len(), 5);
        assert!(!w.is_empty());
        assert_eq!(w.t0(), 1.0);
        assert_eq!(w.dt(), 0.5);
        assert!((w.duration() - 2.5).abs() < 1e-15);
        assert_eq!(w.time_at(2), 2.0);
        assert_eq!(w[3], 2.5);
    }

    #[test]
    fn sample_at_interpolates() {
        let w = ramp();
        assert!((w.sample_at(1.25) - 1.25).abs() < 1e-12);
        assert!((w.sample_at(2.9) - 2.9).abs() < 1e-12);
    }

    #[test]
    fn sample_at_extrapolates_flat() {
        let w = ramp();
        assert_eq!(w.sample_at(-5.0), 1.0);
        assert_eq!(w.sample_at(100.0), 3.0);
    }

    #[test]
    fn sample_at_empty_is_zero() {
        let w = Waveform::zeros(0.0, 1.0, 0);
        assert_eq!(w.sample_at(0.5), 0.0);
        assert_eq!(w.peak_index(), None);
        assert_eq!(w.rms(), 0.0);
        assert_eq!(w.mean(), 0.0);
    }

    #[test]
    fn add_sub_round_trip() {
        let mut a = ramp();
        let b = ramp();
        a.try_add(&b).unwrap();
        assert_eq!(a[0], 2.0);
        a.try_sub(&b).unwrap();
        assert_eq!(a[0], 1.0);
    }

    #[test]
    fn grid_mismatch_is_error() {
        let mut a = ramp();
        let b = Waveform::zeros(0.0, 0.5, 4);
        assert!(a.try_add(&b).is_err());
        let c = Waveform::zeros(0.0, 0.25, 5);
        assert!(a.try_add(&c).is_err());
        let err = a.try_add(&c).unwrap_err();
        assert!(!format!("{err}").is_empty());
    }

    #[test]
    fn energy_rms_peak() {
        let w = Waveform::new(0.0, 1.0, vec![3.0, -4.0]);
        assert!((w.energy() - 25.0).abs() < 1e-12);
        assert!((w.rms() - (12.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(w.peak(), 4.0);
        assert_eq!(w.peak_index(), Some(1));
    }

    #[test]
    fn normalize_energy_unit() {
        let mut w = Waveform::new(0.0, 1.0, vec![3.0, -4.0]);
        w.normalize_energy();
        assert!((w.energy() - 1.0).abs() < 1e-12);
        // Zero waveform is untouched.
        let mut z = Waveform::zeros(0.0, 1.0, 4);
        z.normalize_energy();
        assert_eq!(z.energy(), 0.0);
    }

    #[test]
    fn remove_mean_centers() {
        let mut w = Waveform::new(0.0, 1.0, vec![1.0, 2.0, 3.0]);
        w.remove_mean();
        assert!(w.mean().abs() < 1e-15);
    }

    #[test]
    fn resample_preserves_linear_signal() {
        let w = ramp();
        let r = w.resampled(1.0, 0.1, 21);
        for (t, v) in r.iter() {
            assert!((v - t).abs() < 1e-12);
        }
    }

    #[test]
    fn window_extracts_range() {
        let w = Waveform::from_fn(0.0, 1.0, 10, |t| t);
        let win = w.window(2.5, 6.0);
        assert_eq!(win.len(), 3); // samples at t = 3, 4, 5
        assert_eq!(win.t0(), 3.0);
        assert_eq!(win.samples(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn window_out_of_range_is_empty() {
        let w = ramp();
        assert!(w.window(100.0, 200.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn rejects_bad_dt() {
        let _ = Waveform::zeros(0.0, 0.0, 3);
    }
}
