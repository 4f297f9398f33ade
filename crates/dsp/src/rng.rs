//! Deterministic randomness for reproducible experiments.
//!
//! Every stochastic object in the DIVOT simulation (fabrication variation,
//! comparator noise, PLL jitter, workload generation, attack parameters)
//! draws from a [`DivotRng`] seeded explicitly, so every experiment in
//! `EXPERIMENTS.md` is reproducible bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mix a 64-bit seed through SplitMix64 — used to derive independent
/// sub-seeds from one experiment seed without correlation.
///
/// ```
/// let a = divot_dsp::rng::mix_seed(42, 0);
/// let b = divot_dsp::rng::mix_seed(42, 1);
/// assert_ne!(a, b);
/// ```
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random source with the distributions the simulation needs.
///
/// Wraps [`rand::rngs::StdRng`] and adds a polar Box–Muller standard-normal
/// sampler (with spare caching), so no external distribution crate is
/// required.
#[derive(Debug, Clone)]
pub struct DivotRng {
    inner: StdRng,
    spare_normal: Option<f64>,
}

impl DivotRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derive an independent child generator for stream `stream`.
    ///
    /// Children derived with different stream ids from the same parent seed
    /// are statistically independent (SplitMix64 mixing).
    pub fn derive(seed: u64, stream: u64) -> Self {
        Self::seed_from_u64(mix_seed(seed, stream))
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty interval [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.inner.random_range(0..n)
    }

    /// Fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.inner.random::<bool>()
    }

    /// Bernoulli sample with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        self.uniform() < p
    }

    /// Standard normal sample via the polar (Marsaglia) method.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = Some(v * f);
                return u * f;
            }
        }
    }

    /// Normal sample with the given mean and sigma.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        mean + sigma * self.standard_normal()
    }

    /// Fill `out` with i.i.d. `N(0, sigma²)` samples.
    pub fn fill_normal(&mut self, out: &mut [f64], sigma: f64) {
        for v in out {
            *v = self.normal(0.0, sigma);
        }
    }

    /// Exact `Binomial(n, p)` sample — the number of successes in `n`
    /// independent trials of probability `p`.
    ///
    /// This is what lets the analytic acquisition path replace `n`
    /// comparator-trial simulations with a single draw: inverse-CDF
    /// search for small means, a BTPE-style squeeze/rejection sampler
    /// (Hörmann's transformed rejection) for large ones. Both branches
    /// are exact — the output distribution is the true binomial, not an
    /// approximation — and consume only this generator's stream, so the
    /// draw is reproducible from the seed.
    ///
    /// Degenerate probabilities (`p == 0`, `p == 1`) return without
    /// consuming any randomness. Equivalent to
    /// [`binomial_prepared`](Self::binomial_prepared) on
    /// [`PreparedBinomial::new(n, p)`](PreparedBinomial::new).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        self.binomial_prepared(&PreparedBinomial::new(n, p))
    }

    /// Draw from a prepared binomial law: bitwise the same value, from
    /// the same stream positions, as [`binomial`](Self::binomial) with
    /// the law's `(n, p)` — only the seed-independent setup is skipped.
    pub fn binomial_prepared(&mut self, law: &PreparedBinomial) -> u64 {
        let k = match law.sampler {
            Sampler::Fixed(k) => return k,
            Sampler::Inverse { s, pmf0 } => self.binomial_inverse(law.n, s, pmf0),
            Sampler::Btrs(ref btrs) => self.binomial_btrs(law.n, btrs),
        };
        if law.flipped {
            law.n - k
        } else {
            k
        }
    }

    /// Inverse-CDF search: walk the pmf recurrence
    /// `P(k+1) = P(k)·(n−k)/(k+1)·s` from `P(0) = pmf0` until the
    /// cumulative mass passes a uniform draw. Exact; O(n·q) expected
    /// steps.
    fn binomial_inverse(&mut self, n: u64, s: f64, pmf0: f64) -> u64 {
        let mut pmf = pmf0;
        let mut cdf = pmf;
        let u = self.uniform();
        let mut k = 0u64;
        while cdf < u && k < n {
            pmf *= s * (n - k) as f64 / (k + 1) as f64;
            cdf += pmf;
            k += 1;
        }
        k
    }

    /// Transformed-rejection binomial sampler (Hörmann 1993, the BTRS
    /// variant of the BTPE squeeze family). Exact for `n·q ≥ 10`,
    /// `q ≤ 0.5`; expected a small constant number of `(u, v)` pairs per
    /// draw regardless of `n`.
    fn binomial_btrs(&mut self, n: u64, btrs: &Btrs) -> u64 {
        let Btrs {
            a,
            b,
            c,
            v_r,
            r,
            alpha,
            m,
        } = *btrs;
        let nf = n as f64;
        loop {
            let u = self.uniform() - 0.5;
            let v = self.uniform();
            let us = 0.5 - u.abs();
            let kf = ((2.0 * a / us + b) * u + c).floor();
            if kf < 0.0 || kf > nf {
                continue;
            }
            // Squeeze: accept the bulk without evaluating the pmf.
            if us >= 0.07 && v <= v_r {
                return kf as u64;
            }
            // Exact acceptance test against the log-pmf ratio to the mode.
            let vt = (v * alpha / (a / (us * us) + b)).ln();
            let upper = (m + 0.5) * ((m + 1.0) / (r * (nf - m + 1.0))).ln()
                + (nf + 1.0) * ((nf - m + 1.0) / (nf - kf + 1.0)).ln()
                + (kf + 0.5) * (r * (nf - kf + 1.0) / (kf + 1.0)).ln()
                + stirling_tail(m)
                + stirling_tail(nf - m)
                - stirling_tail(kf)
                - stirling_tail(nf - kf);
            if vt <= upper {
                return kf as u64;
            }
        }
    }
}

/// A `Binomial(n, p)` law with its seed-independent sampler setup done:
/// the degenerate cases, the `q = min(p, 1−p)` mirror, and either the
/// inverse-CDF start (`s = q/(1−q)`, `P(0) = (1−q)^n`) or the rejection
/// sampler's constants. Preparing a law once and drawing from it many
/// times with [`DivotRng::binomial_prepared`] is bitwise identical to
/// calling [`DivotRng::binomial`] each time, since the setup consumes no
/// randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedBinomial {
    n: u64,
    flipped: bool,
    sampler: Sampler,
}

/// The draw-time half of a prepared binomial.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sampler {
    /// A degenerate law: always this count, no randomness consumed.
    Fixed(u64),
    /// Inverse-CDF search with ratio `s` and start mass `pmf0`.
    Inverse { s: f64, pmf0: f64 },
    /// Transformed rejection.
    Btrs(Btrs),
}

/// The transformed-rejection sampler's constants for one `(n, q)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Btrs {
    a: f64,
    b: f64,
    c: f64,
    v_r: f64,
    r: f64,
    alpha: f64,
    m: f64,
}

impl PreparedBinomial {
    /// Prepare `Binomial(n, p)`: the one-law case of
    /// [`extend_batch`](Self::extend_batch).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn new(n: u64, p: f64) -> Self {
        let mut law = [Self::setup(n, p)];
        Self::finish(&mut law);
        law[0]
    }

    /// Prepare every `(n, p)` of `laws` and append them to `out` in
    /// order, each bitwise equal to [`new(n, p)`](Self::new).
    ///
    /// The laws are independent, so the inverse-CDF start mass
    /// `(1−q)^n = exp(n·ln(1−q))` is formed in one `ln` pass and one
    /// `exp` pass over the batch instead of one chain per law.
    ///
    /// # Panics
    ///
    /// Panics if any `p` is not in `[0, 1]`.
    pub fn extend_batch(out: &mut Vec<Self>, laws: impl IntoIterator<Item = (u64, f64)>) {
        let start = out.len();
        out.extend(laws.into_iter().map(|(n, p)| Self::setup(n, p)));
        Self::finish(&mut out[start..]);
    }

    /// Everything of `Binomial(n, p)`'s setup but the inverse sampler's
    /// start mass: its `pmf0` slot holds `1 − q` for [`finish`](Self::finish).
    fn setup(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        let fixed = |k| Self {
            n,
            flipped: false,
            sampler: Sampler::Fixed(k),
        };
        if n == 0 || p == 0.0 {
            return fixed(0);
        }
        if p == 1.0 {
            return fixed(n);
        }
        // Work on q = min(p, 1−p) and mirror the result back.
        let (q, flipped) = if p > 0.5 { (1.0 - p, true) } else { (p, false) };
        let nf = n as f64;
        let sampler = if nf * q < BINOMIAL_INV_THRESHOLD {
            // Requires a small mean so `(1−q)^n` stays well above the
            // underflow floor.
            Sampler::Inverse {
                s: q / (1.0 - q),
                pmf0: 1.0 - q,
            }
        } else {
            let stddev = (nf * q * (1.0 - q)).sqrt();
            let b = 1.15 + 2.53 * stddev;
            Sampler::Btrs(Btrs {
                a: -0.0873 + 0.0248 * b + 0.01 * q,
                b,
                c: nf * q + 0.5,
                v_r: 0.92 - 4.2 / b,
                r: q / (1.0 - q),
                alpha: (2.83 + 5.1 / b) * stddev,
                m: ((nf + 1.0) * q).floor(),
            })
        };
        Self {
            n,
            flipped,
            sampler,
        }
    }

    /// Turn each [`setup`](Self::setup) law's parked `1 − q` into
    /// `P(0) = exp(n·ln(1−q))`: a pass of `ln`, then a pass of `exp`.
    fn finish(laws: &mut [Self]) {
        for law in laws.iter_mut() {
            if let Sampler::Inverse { pmf0, .. } = &mut law.sampler {
                *pmf0 = pmf0.ln();
            }
        }
        for law in laws {
            if let Sampler::Inverse { pmf0, .. } = &mut law.sampler {
                *pmf0 = (law.n as f64 * *pmf0).exp();
            }
        }
    }

    /// The number of trials `n`.
    pub fn trials(&self) -> u64 {
        self.n
    }
}

/// Mean threshold below which [`DivotRng::binomial`] uses inverse-CDF
/// search instead of the rejection sampler: `n·min(p, 1−p)` below it
/// takes the inverse branch.
pub const BINOMIAL_INV_THRESHOLD: f64 = 10.0;

/// The Stirling-series tail `ln(k!) − [k·ln k − k + ½·ln(2πk)]`, tabulated
/// exactly for small `k` (where the series is weakest) and by the
/// three-term series elsewhere — the correction the rejection sampler's
/// acceptance bound needs.
fn stirling_tail(k: f64) -> f64 {
    const TABLE: [f64; 10] = [
        0.081_061_466_795_327_81,
        0.041_340_695_955_409_46,
        0.027_677_925_684_998_34,
        0.020_790_672_103_765_09,
        0.016_644_691_189_821_19,
        0.013_876_128_823_070_747,
        0.011_896_709_945_891_8,
        0.010_411_265_261_972_096,
        0.009_255_462_182_712_732,
        0.008_330_563_433_362_87,
    ];
    if k < 10.0 {
        return TABLE[k as usize];
    }
    let kk = (k + 1.0) * (k + 1.0);
    (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * kk)) / kk) / (k + 1.0)
}

/// A stationary Ornstein–Uhlenbeck (exponentially correlated Gaussian)
/// process, sampled on a uniform grid.
///
/// This is the spatial model for manufacturing variation along a Tx-line:
/// impedance deviations at nearby positions are correlated over a
/// *correlation length* (trace-width-scale geometry variation, resin-pool
/// scale dielectric variation), but decorrelate over longer distances. The
/// exact discrete update for grid step `dx` and correlation length `ell` is
///
/// ```text
/// x[k+1] = ρ·x[k] + σ·√(1−ρ²)·N(0,1),   ρ = exp(−dx/ell)
/// ```
///
/// which keeps the process stationary with marginal `N(0, σ²)` at every
/// sample — so the IIP "contrast" statistics don't depend on line length.
#[derive(Debug, Clone)]
pub struct OrnsteinUhlenbeck {
    sigma: f64,
    rho: f64,
    state: f64,
    rng: DivotRng,
}

/// The deterministic shape of a stationary OU process — everything
/// [`OrnsteinUhlenbeck::new`] computes before touching the RNG (notably
/// the `exp` for the one-step autocorrelation). Computing the shape once
/// and instantiating many processes from it via
/// [`OrnsteinUhlenbeck::with_coeffs`] is bitwise identical to calling
/// `new` each time, since the shape consumes no randomness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OuCoeffs {
    sigma: f64,
    rho: f64,
}

impl OuCoeffs {
    /// Precompute the OU shape for `(sigma, correlation_length, step)`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn new(sigma: f64, correlation_length: f64, step: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be positive, got {sigma}");
        assert!(
            correlation_length > 0.0,
            "correlation_length must be positive, got {correlation_length}"
        );
        assert!(step > 0.0, "step must be positive, got {step}");
        let rho = (-step / correlation_length).exp();
        Self { sigma, rho }
    }

    /// The marginal standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The one-step autocorrelation `ρ = exp(−step/ell)`.
    pub fn rho(&self) -> f64 {
        self.rho
    }
}

impl OrnsteinUhlenbeck {
    /// Create a stationary OU process.
    ///
    /// * `sigma` — marginal standard deviation of each sample.
    /// * `correlation_length` — e-folding distance of the autocorrelation,
    ///   in the same unit as `step`.
    /// * `step` — grid spacing.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive.
    pub fn new(sigma: f64, correlation_length: f64, step: f64, rng: DivotRng) -> Self {
        Self::with_coeffs(OuCoeffs::new(sigma, correlation_length, step), rng)
    }

    /// Create a stationary OU process from a precomputed shape (see
    /// [`OuCoeffs`]); bitwise identical to [`new`](Self::new) with the
    /// parameters the shape was built from.
    pub fn with_coeffs(coeffs: OuCoeffs, mut rng: DivotRng) -> Self {
        // Start in the stationary distribution.
        let state = rng.normal(0.0, coeffs.sigma);
        Self {
            sigma: coeffs.sigma,
            rho: coeffs.rho,
            state,
            rng,
        }
    }

    /// The one-step autocorrelation `ρ = exp(−step/ell)`.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Draw the next sample of the process.
    pub fn next_sample(&mut self) -> f64 {
        let innovation = self.sigma * (1.0 - self.rho * self.rho).sqrt();
        self.state = self.rho * self.state + self.rng.normal(0.0, innovation);
        self.state
    }

    /// Generate `n` consecutive samples.
    pub fn take_samples(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = DivotRng::seed_from_u64(7);
        let mut b = DivotRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
            assert_eq!(a.standard_normal().to_bits(), b.standard_normal().to_bits());
        }
    }

    #[test]
    fn derived_streams_differ() {
        let mut a = DivotRng::derive(7, 0);
        let mut b = DivotRng::derive(7, 1);
        let same = (0..64).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn normal_moments() {
        let mut rng = DivotRng::seed_from_u64(11);
        let xs: Vec<f64> = (0..200_000).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = stats::mean(&xs);
        let sd = stats::std_dev(&xs);
        assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
        assert!((sd - 3.0).abs() < 0.05, "sd={sd}");
    }

    #[test]
    fn normal_tail_fraction() {
        // ~2.28% of standard normal mass lies above 2.
        let mut rng = DivotRng::seed_from_u64(13);
        let n = 200_000;
        let above = (0..n).filter(|_| rng.standard_normal() > 2.0).count();
        let frac = above as f64 / n as f64;
        assert!((frac - 0.0228).abs() < 0.003, "frac={frac}");
    }

    #[test]
    fn uniform_in_bounds() {
        let mut rng = DivotRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.uniform_in(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = DivotRng::seed_from_u64(5);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        assert!(((hits as f64 / n as f64) - 0.3).abs() < 0.01);
    }

    #[test]
    fn ou_is_stationary() {
        let rng = DivotRng::seed_from_u64(17);
        let mut ou = OrnsteinUhlenbeck::new(0.5, 10.0, 1.0, rng);
        let xs = ou.take_samples(100_000);
        let sd = stats::std_dev(&xs);
        assert!((sd - 0.5).abs() < 0.02, "sd={sd}");
        assert!(stats::mean(&xs).abs() < 0.05);
    }

    #[test]
    fn ou_autocorrelation_matches_rho() {
        let rng = DivotRng::seed_from_u64(19);
        let mut ou = OrnsteinUhlenbeck::new(1.0, 5.0, 1.0, rng);
        let xs = ou.take_samples(200_000);
        let mean = stats::mean(&xs);
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..xs.len() - 1 {
            num += (xs[i] - mean) * (xs[i + 1] - mean);
            den += (xs[i] - mean) * (xs[i] - mean);
        }
        let r1 = num / den;
        let want = (-1.0f64 / 5.0).exp();
        assert!((r1 - want).abs() < 0.01, "r1={r1} want={want}");
    }

    #[test]
    fn ou_short_correlation_is_nearly_white() {
        let rng = DivotRng::seed_from_u64(23);
        let mut ou = OrnsteinUhlenbeck::new(1.0, 0.01, 1.0, rng);
        let xs = ou.take_samples(50_000);
        let mean = stats::mean(&xs);
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..xs.len() - 1 {
            num += (xs[i] - mean) * (xs[i + 1] - mean);
            den += (xs[i] - mean) * (xs[i] - mean);
        }
        assert!((num / den).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "empty interval")]
    fn uniform_in_rejects_empty() {
        DivotRng::seed_from_u64(0).uniform_in(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn bernoulli_rejects_bad_p() {
        DivotRng::seed_from_u64(0).bernoulli(1.5);
    }

    #[test]
    fn binomial_degenerate_cases() {
        let mut rng = DivotRng::seed_from_u64(1);
        assert_eq!(rng.binomial(0, 0.3), 0);
        assert_eq!(rng.binomial(100, 0.0), 0);
        assert_eq!(rng.binomial(100, 1.0), 100);
        // Degenerate draws consume no randomness: the stream position is
        // unchanged relative to a fresh generator.
        let mut fresh = DivotRng::seed_from_u64(1);
        assert_eq!(rng.uniform(), fresh.uniform());
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn binomial_rejects_bad_p() {
        DivotRng::seed_from_u64(0).binomial(10, -0.1);
    }

    #[test]
    fn binomial_is_deterministic_per_seed() {
        for &(n, p) in &[(7u64, 0.2), (420, 0.03), (420, 0.5), (100_000, 0.37)] {
            let a = DivotRng::seed_from_u64(99).binomial(n, p);
            let b = DivotRng::seed_from_u64(99).binomial(n, p);
            assert_eq!(a, b, "n={n} p={p}");
            assert!(a <= n);
        }
    }

    #[test]
    fn binomial_matches_mean_and_variance() {
        // Exercise both branches (inverse-CDF: n·q < 10; rejection: ≥ 10)
        // and the p > 0.5 mirror.
        for &(n, p) in &[(40u64, 0.05), (420, 0.5), (420, 0.97), (5_000, 0.12)] {
            let mut rng = DivotRng::seed_from_u64(0xB1_707 ^ n);
            let draws = 20_000;
            let xs: Vec<f64> = (0..draws).map(|_| rng.binomial(n, p) as f64).collect();
            let mean = stats::mean(&xs);
            let var = {
                let sd = stats::std_dev(&xs);
                sd * sd
            };
            let want_mean = n as f64 * p;
            let want_var = n as f64 * p * (1.0 - p);
            let mean_tol = 5.0 * (want_var / draws as f64).sqrt();
            assert!(
                (mean - want_mean).abs() < mean_tol,
                "n={n} p={p}: mean {mean} vs {want_mean}"
            );
            assert!(
                (var - want_var).abs() < 0.1 * want_var + 1.0,
                "n={n} p={p}: var {var} vs {want_var}"
            );
        }
    }

    #[test]
    fn binomial_small_n_matches_exact_pmf() {
        // Chi-squared-style check of the full pmf on a small case that the
        // inverse-CDF branch serves.
        let (n, p) = (8u64, 0.3);
        let mut rng = DivotRng::seed_from_u64(31);
        let draws = 50_000usize;
        let mut counts = vec![0usize; n as usize + 1];
        for _ in 0..draws {
            counts[rng.binomial(n, p) as usize] += 1;
        }
        for k in 0..=n {
            let mut pmf = (1.0 - p).powi(n as i32);
            for j in 0..k {
                pmf *= p / (1.0 - p) * (n - j) as f64 / (j + 1) as f64;
            }
            let got = counts[k as usize] as f64 / draws as f64;
            let tol = 4.0 * (pmf * (1.0 - pmf) / draws as f64).sqrt() + 1e-4;
            assert!((got - pmf).abs() < tol, "k={k}: {got} vs {pmf}");
        }
    }

    #[test]
    fn stirling_tail_matches_log_factorial() {
        // tail(k) = ln k! − [(k+½)ln(k+1) − (k+1) + ½ln(2π)]; verify the
        // series branch against a direct sum of logs.
        for k in [10u64, 25, 100, 1000] {
            let lnfact: f64 = (1..=k).map(|j| (j as f64).ln()).sum();
            let kf = k as f64;
            let stirling =
                (kf + 0.5) * (kf + 1.0).ln() - (kf + 1.0) + 0.5 * (2.0 * std::f64::consts::PI).ln();
            let want = lnfact - stirling;
            let got = super::stirling_tail(kf);
            assert!((got - want).abs() < 1e-9, "k={k}: {got} vs {want}");
        }
    }

    #[test]
    fn binomial_draws_are_pinned() {
        // FNV-1a over draws from both samplers, the mirror and the
        // degenerate ends, plus the stream position afterwards. Pins the
        // sampler bitwise, including branches the fleet never reaches.
        let ns = [1u64, 2, 7, 19, 20, 21, 40, 100, 420, 5_000, 100_000];
        let ps = [0.0, 1e-3, 0.03, 0.2, 0.4999, 0.5, 0.5001, 0.8, 0.97, 1.0];
        let mut rng = DivotRng::seed_from_u64(0xD1_7075);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &n in &ns {
            for &p in &ps {
                for _ in 0..8 {
                    hash ^= rng.binomial(n, p);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        hash ^= rng.uniform().to_bits();
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        assert_eq!(hash, 0xf912_5678_d8a8_c918, "got {hash:#018x}");
    }
}
