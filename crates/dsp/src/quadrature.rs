//! Fixed-node Gauss–Hermite quadrature for Gaussian expectations.
//!
//! The analytic acquisition path needs `E[f(T)]` for `T ~ N(μ, σ²)` — the
//! comparator trip probability averaged over the PLL's sampling-instant
//! jitter. Gauss–Hermite quadrature evaluates that expectation with a
//! handful of deterministic nodes instead of hundreds of Monte-Carlo
//! draws:
//!
//! ```text
//! ∫ e^{−x²} f(x) dx ≈ Σ wᵢ f(xᵢ)
//! E[f(T)] = (1/√π) Σ wᵢ f(μ + √2·σ·xᵢ)
//! ```
//!
//! Nodes and weights are computed once per rule (Newton iteration on the
//! orthonormal Hermite recurrence — no tables, no external deps) and are a
//! pure function of the order, so every expectation evaluated through a
//! rule is bitwise deterministic.

use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// A fixed-order Gauss–Hermite rule (weight function `e^{−x²}`).
#[derive(Debug, Clone, PartialEq)]
pub struct GaussHermite {
    /// Quadrature nodes `xᵢ` (ascending).
    nodes: Vec<f64>,
    /// Weights `wᵢ` for `∫ e^{−x²} f(x) dx`, pre-divided by `√π` so they
    /// sum to 1 and weight Gaussian expectations directly.
    weights: Vec<f64>,
}

impl GaussHermite {
    /// Construct the rule of the given order (number of nodes).
    ///
    /// An order-`n` rule integrates polynomials of degree `2n−1` exactly;
    /// single-digit orders already resolve any signal that is smooth on
    /// the jitter scale.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0`.
    pub fn new(order: usize) -> Self {
        assert!(order > 0, "quadrature order must be positive");
        let n = order;
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        // Newton iteration on the orthonormal Hermite recurrence,
        // largest root inward (Numerical Recipes `gauher` scheme); the
        // lower half follows by symmetry.
        let m = n.div_ceil(2);
        let mut z = 0.0f64;
        for i in 0..m {
            z = match i {
                0 => {
                    (2.0 * n as f64 + 1.0).sqrt()
                        - 1.85575 * (2.0 * n as f64 + 1.0).powf(-1.0 / 6.0)
                }
                1 => z - 1.14 * (n as f64).powf(0.426) / z,
                2 => 1.86 * z - 0.86 * nodes[n - 1],
                3 => 1.91 * z - 0.91 * nodes[n - 2],
                _ => 2.0 * z - nodes[n - i + 1],
            };
            let mut pp = 0.0;
            for _ in 0..100 {
                // Orthonormal Hermite values at z: p1 = H̃_n(z), p2 = H̃_{n−1}(z).
                let mut p1 = PI.powf(-0.25);
                let mut p2 = 0.0;
                for j in 1..=n {
                    let p3 = p2;
                    p2 = p1;
                    p1 = z * (2.0 / j as f64).sqrt() * p2
                        - ((j as f64 - 1.0) / j as f64).sqrt() * p3;
                }
                pp = (2.0 * n as f64).sqrt() * p2;
                let dz = p1 / pp;
                z -= dz;
                if dz.abs() < 1e-15 * (1.0 + z.abs()) {
                    break;
                }
            }
            nodes[n - 1 - i] = z;
            nodes[i] = -z;
            let w = 2.0 / (pp * pp);
            weights[n - 1 - i] = w;
            weights[i] = w;
        }
        if n % 2 == 1 {
            // The middle node of an odd rule is exactly 0.
            nodes[n / 2] = 0.0;
        }
        let norm: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= norm;
        }
        Self { nodes, weights }
    }

    /// Number of nodes.
    pub fn order(&self) -> usize {
        self.nodes.len()
    }

    /// The abscissas `μ + √2·σ·xᵢ` at which `f` must be evaluated to form
    /// `E[f(T)]` for `T ~ N(μ, σ²)` (ascending). With `σ = 0` every
    /// abscissa collapses to `μ`.
    pub fn abscissas(&self, mean: f64, sigma: f64) -> impl Iterator<Item = f64> + '_ {
        let scale = sigma / FRAC_1_SQRT_2;
        self.nodes.iter().map(move |&x| mean + scale * x)
    }

    /// The normalized weights (sum to 1, same order as
    /// [`abscissas`](Self::abscissas)).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// `E[f(T)]` for `T ~ N(mean, sigma²)`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    pub fn expect_normal(&self, mean: f64, sigma: f64, mut f: impl FnMut(f64) -> f64) -> f64 {
        assert!(sigma >= 0.0, "sigma must be non-negative, got {sigma}");
        if sigma == 0.0 {
            return f(mean);
        }
        self.abscissas(mean, sigma)
            .zip(&self.weights)
            .map(|(t, &w)| w * f(t))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::std_cdf;

    #[test]
    fn weights_sum_to_one() {
        for order in [1, 2, 3, 5, 9, 21, 40] {
            let q = GaussHermite::new(order);
            assert_eq!(q.order(), order);
            let s: f64 = q.weights().iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "order {order}: {s}");
        }
    }

    #[test]
    fn nodes_are_symmetric_and_sorted() {
        let q = GaussHermite::new(9);
        let nodes: Vec<f64> = q.abscissas(0.0, std::f64::consts::FRAC_1_SQRT_2).collect();
        for w in nodes.windows(2) {
            assert!(w[0] < w[1]);
        }
        for (a, b) in nodes.iter().zip(nodes.iter().rev()) {
            assert!((a + b).abs() < 1e-12);
        }
        assert_eq!(nodes[4], 0.0, "odd rule pins the middle node at 0");
    }

    #[test]
    fn integrates_moments_exactly() {
        // Order n is exact for polynomials up to degree 2n−1; check the
        // normal moments E[T^k] for T ~ N(μ, σ²).
        let q = GaussHermite::new(6);
        let (mu, sigma) = (0.7f64, 1.3f64);
        let want = [
            1.0,
            mu,
            mu * mu + sigma * sigma,
            mu.powi(3) + 3.0 * mu * sigma * sigma,
            mu.powi(4) + 6.0 * mu * mu * sigma * sigma + 3.0 * sigma.powi(4),
        ];
        for (k, w) in want.iter().enumerate() {
            let got = q.expect_normal(mu, sigma, |t| t.powi(k as i32));
            assert!(
                (got - w).abs() < 1e-10 * (1.0 + w.abs()),
                "k={k}: {got} vs {w}"
            );
        }
    }

    #[test]
    fn probit_smoothing_identity() {
        // E[Φ(a + bT)] = Φ((a + bμ)/√(1 + b²σ²)) for T ~ N(μ, σ²) — the
        // exact closed form for a linear signal under Gaussian jitter.
        let q = GaussHermite::new(15);
        for &(a, b, mu, sigma) in &[
            (0.3, 1.0, 0.0, 0.5),
            (-0.2, 2.0, 0.1, 0.25),
            (1.0, -0.7, -0.3, 0.8),
        ] {
            let got: f64 = q.expect_normal(mu, sigma, |t| std_cdf(a + b * t));
            let want = std_cdf((a + b * mu) / (1.0f64 + b * b * sigma * sigma).sqrt());
            assert!((got - want).abs() < 1e-6, "got {got} want {want}");
        }
    }

    #[test]
    fn zero_sigma_collapses_to_point_evaluation() {
        let q = GaussHermite::new(7);
        let v = q.expect_normal(2.5, 0.0, |t| t * t);
        assert_eq!(v, 6.25);
    }

    #[test]
    fn rules_are_deterministic() {
        let a = GaussHermite::new(21);
        let b = GaussHermite::new(21);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn rejects_zero_order() {
        let _ = GaussHermite::new(0);
    }
}
