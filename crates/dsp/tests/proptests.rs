//! Property-based tests of the numeric substrate's invariants.

use divot_dsp::gaussian::{DiscreteModulatedCdf, PlainCdf, ProbabilityMap, TriangleModulatedCdf};
use divot_dsp::quadrature::GaussHermite;
use divot_dsp::rng::{DivotRng, PreparedBinomial, BINOMIAL_INV_THRESHOLD};
use divot_dsp::similarity::{cosine, error_function, similarity};
use divot_dsp::stats::{Accumulator, Histogram};
use divot_dsp::waveform::Waveform;
use divot_dsp::{erf, RocCurve};
use proptest::prelude::*;

fn finite_sample() -> impl Strategy<Value = f64> {
    (-1e3f64..1e3).prop_filter("finite", |x| x.is_finite())
}

proptest! {
    #[test]
    fn erf_bounded_and_odd(x in -50.0f64..50.0) {
        let v = erf::erf(x);
        prop_assert!((-1.0..=1.0).contains(&v));
        prop_assert!((v + erf::erf(-x)).abs() < 1e-12);
    }

    #[test]
    fn erf_erfc_complement(x in -30.0f64..30.0) {
        prop_assert!((erf::erf(x) + erf::erfc(x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probit_inverts_cdf(x in -5.0f64..5.0) {
        let p = divot_dsp::gaussian::std_cdf(x);
        prop_assert!((erf::probit(p) - x).abs() < 1e-7);
    }

    #[test]
    fn plain_cdf_round_trips(
        reference in -0.1f64..0.1,
        sigma in 1e-4f64..1e-2,
        offset in -3.0f64..3.0,
    ) {
        let m = PlainCdf::new(reference, sigma);
        let v = reference + offset * sigma;
        let p = m.probability(v);
        prop_assert!((m.voltage(p) - v).abs() < 1e-8 * (1.0 + v.abs()));
    }

    #[test]
    fn triangle_cdf_monotone_and_invertible(
        center in -0.05f64..0.05,
        amp in 1e-3f64..0.05,
        sigma in 1e-4f64..5e-3,
        frac in -0.9f64..0.9,
    ) {
        let m = TriangleModulatedCdf::new(center, amp, sigma);
        // Monotone on a coarse grid.
        let mut prev = -1.0;
        for i in 0..40 {
            let v = center - amp - 3.0 * sigma
                + (2.0 * amp + 6.0 * sigma) * i as f64 / 39.0;
            let p = m.probability(v);
            prop_assert!(p >= prev - 1e-12);
            prev = p;
        }
        // Invertible inside the sweep.
        let v = center + frac * amp;
        let p = m.probability(v);
        prop_assert!((m.voltage(p) - v).abs() < 1e-7);
    }

    #[test]
    fn discrete_cdf_round_trips_near_levels(
        levels in proptest::collection::vec(-0.02f64..0.02, 1..12),
        sigma in 5e-4f64..5e-3,
        which in 0usize..12,
        offset in -1.5f64..1.5,
    ) {
        // Inversion is well-conditioned where the mixture has sensitivity:
        // within ~2σ of a reference level. (Between widely spaced levels
        // the CDF plateaus and any voltage on the plateau is equivalent —
        // that is the dynamic-range limit PDM level spacing controls.)
        let m = DiscreteModulatedCdf::new(levels.clone(), sigma);
        let v = levels[which % levels.len()] + offset * sigma;
        let p = m.probability(v);
        prop_assert!((m.voltage(p) - v).abs() < 1e-6, "v={v}");
    }

    #[test]
    fn cosine_bounded(
        xs in proptest::collection::vec(finite_sample(), 2..64),
        ys in proptest::collection::vec(finite_sample(), 2..64),
    ) {
        let n = xs.len().min(ys.len());
        let c = cosine(&xs[..n], &ys[..n]);
        prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&c));
        // Symmetric.
        prop_assert!((c - cosine(&ys[..n], &xs[..n])).abs() < 1e-12);
    }

    #[test]
    fn similarity_self_is_one_and_bounded(
        xs in proptest::collection::vec(finite_sample(), 3..64),
    ) {
        let w = Waveform::new(0.0, 1.0, xs);
        let s = similarity(&w, &w);
        // Constant waveforms have zero energy after mean removal → 0.
        prop_assert!(s == 0.0 || (s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn error_function_nonnegative_and_symmetric(
        xs in proptest::collection::vec(finite_sample(), 2..64),
        ys in proptest::collection::vec(finite_sample(), 2..64),
    ) {
        let n = xs.len().min(ys.len());
        let a = Waveform::new(0.0, 1.0, xs[..n].to_vec());
        let b = Waveform::new(0.0, 1.0, ys[..n].to_vec());
        let e1 = error_function(&a, &b);
        let e2 = error_function(&b, &a);
        prop_assert!(e1.samples().iter().all(|&v| v >= 0.0));
        prop_assert_eq!(e1.samples(), e2.samples());
    }

    #[test]
    fn roc_invariants(
        genuine in proptest::collection::vec(0.0f64..1.0, 2..64),
        impostor in proptest::collection::vec(0.0f64..1.0, 2..64),
    ) {
        let roc = RocCurve::from_scores(&genuine, &impostor);
        prop_assert!((0.0..=1.0).contains(&roc.eer()));
        prop_assert!((0.0..=1.0).contains(&roc.auc()));
        // Rates monotone non-increasing in threshold.
        for w in roc.points().windows(2) {
            prop_assert!(w[1].fpr <= w[0].fpr + 1e-12);
            prop_assert!(w[1].tpr <= w[0].tpr + 1e-12);
        }
        // Endpoints.
        prop_assert_eq!(roc.points()[0].fpr, 1.0);
        prop_assert_eq!(roc.points().last().unwrap().tpr, 0.0);
    }

    #[test]
    fn histogram_conserves_samples(
        xs in proptest::collection::vec(-10.0f64..10.0, 0..256),
        bins in 1usize..32,
    ) {
        let mut h = Histogram::new(-5.0, 5.0, bins);
        h.push_all(&xs);
        prop_assert_eq!(h.total() as usize, xs.len());
        let in_range: u64 = h.counts().iter().sum();
        prop_assert_eq!(in_range + h.underflow() + h.overflow(), xs.len() as u64);
    }

    #[test]
    fn accumulator_matches_batch_stats(
        xs in proptest::collection::vec(-100.0f64..100.0, 2..128),
    ) {
        let acc: Accumulator = xs.iter().copied().collect();
        prop_assert!((acc.mean() - divot_dsp::stats::mean(&xs)).abs() < 1e-9);
        prop_assert!(
            (acc.variance() - divot_dsp::stats::variance(&xs)).abs()
                < 1e-6 * (1.0 + acc.variance())
        );
    }

    #[test]
    fn waveform_resample_identity(
        xs in proptest::collection::vec(finite_sample(), 2..64),
        dt in 1e-12f64..1e-9,
    ) {
        let w = Waveform::new(0.0, dt, xs);
        let r = w.resampled(w.t0(), w.dt(), w.len());
        for (a, b) in w.samples().iter().zip(r.samples()) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn binomial_support_is_0_to_n(
        seed in any::<u64>(),
        n in 0u64..200_000,
        p in 0.0f64..1.0,
    ) {
        // Both the inverse-CDF and the rejection branch, every p regime;
        // the closed endpoints are degenerate and checked exactly.
        let k = DivotRng::seed_from_u64(seed).binomial(n, p);
        prop_assert!(k <= n, "k={k} > n={n} at p={p}");
        prop_assert_eq!(DivotRng::seed_from_u64(seed).binomial(n, 1.0), n);
        prop_assert_eq!(DivotRng::seed_from_u64(seed).binomial(n, 0.0), 0);
    }

    #[test]
    fn binomial_is_a_pure_function_of_the_seed(
        seed in any::<u64>(),
        n in 1u64..50_000,
        p in 0.001f64..0.999,
    ) {
        let mut a = DivotRng::seed_from_u64(seed);
        let mut b = DivotRng::seed_from_u64(seed);
        // Same seed, same (n, p) sequence → identical draws *and*
        // identical stream positions afterwards.
        for _ in 0..4 {
            prop_assert_eq!(a.binomial(n, p), b.binomial(n, p));
        }
        prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
    }

    #[test]
    fn binomial_matches_moments(
        seed in any::<u64>(),
        n in 20u64..5_000,
        p in 0.01f64..0.99,
    ) {
        let mut rng = DivotRng::seed_from_u64(seed);
        let draws = 1_500;
        let xs: Vec<f64> = (0..draws).map(|_| rng.binomial(n, p) as f64).collect();
        let want_mean = n as f64 * p;
        let want_var = n as f64 * p * (1.0 - p);
        // 6-sigma band on the sample mean; generous (×2 + slack) band on
        // the sample variance (its own sampling error is ~√(2/draws)·var).
        let mean_tol = 6.0 * (want_var / draws as f64).sqrt();
        prop_assert!(
            (divot_dsp::stats::mean(&xs) - want_mean).abs() < mean_tol,
            "mean off: {} vs {want_mean}", divot_dsp::stats::mean(&xs)
        );
        let var = divot_dsp::stats::variance(&xs);
        prop_assert!(
            var > 0.5 * want_var && var < 2.0 * want_var + 1.0,
            "variance off: {var} vs {want_var}"
        );
    }

    #[test]
    fn gauss_hermite_reproduces_the_probit_identity(
        a in -2.0f64..2.0,
        b in -3.0f64..3.0,
        mu in -1.0f64..1.0,
        sigma in 0.0f64..0.8,
    ) {
        // E[Φ(a + bT)] has an exact closed form for T ~ N(μ, σ²); the
        // fixed 9-node rule the acquisition path uses must reproduce it.
        let q = GaussHermite::new(9);
        let got = q.expect_normal(mu, sigma, |t| divot_dsp::gaussian::std_cdf(a + b * t));
        let want = divot_dsp::gaussian::std_cdf(
            (a + b * mu) / (1.0f64 + b * b * sigma * sigma).sqrt(),
        );
        // Quadrature error grows with the smoothing ratio |b·σ| (how many
        // comparator sigmas one jitter sigma sweeps); the acquisition path
        // operates well below 1, where the rule is ~1e-6 accurate.
        let ratio = (b * sigma).abs();
        let tol = 1e-4 + 3e-3 * ratio * ratio;
        prop_assert!((got - want).abs() < tol, "got {got} want {want} ratio {ratio}");
        prop_assert!((0.0..=1.0).contains(&got.clamp(0.0, 1.0)));
    }

    #[test]
    fn moving_average_bounded_by_extremes(
        xs in proptest::collection::vec(finite_sample(), 1..64),
        half in 0usize..8,
    ) {
        let w = Waveform::new(0.0, 1.0, xs.clone());
        let f = divot_dsp::filter::moving_average(&w, half);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &v in f.samples() {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn mad_is_robust_and_shift_invariant(
        xs in proptest::collection::vec(finite_sample(), 1..64),
        shift in -1e3f64..1e3,
    ) {
        use divot_dsp::stats::median_abs_deviation;
        let mad = median_abs_deviation(&xs).expect("non-empty");
        // MAD is non-negative and bounded by the half-range.
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(mad >= 0.0);
        prop_assert!(mad <= (hi - lo) + 1e-9, "mad={mad} range={}", hi - lo);
        // Shifting every sample leaves the MAD unchanged.
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let mad_shifted = median_abs_deviation(&shifted).expect("non-empty");
        prop_assert!(
            (mad - mad_shifted).abs() < 1e-6 * (1.0 + mad.abs()),
            "mad={mad} shifted={mad_shifted}"
        );
    }

    #[test]
    fn mad_of_constant_slice_is_zero(
        value in finite_sample(),
        n in 1usize..32,
    ) {
        use divot_dsp::stats::median_abs_deviation;
        let xs = vec![value; n];
        prop_assert_eq!(median_abs_deviation(&xs), Some(0.0));
        prop_assert_eq!(median_abs_deviation(&[]), None);
        prop_assert_eq!(median_abs_deviation(&[value]), Some(0.0));
    }

    #[test]
    fn trimmed_mean_bounded_and_degenerate_cases(
        xs in proptest::collection::vec(finite_sample(), 1..64),
        trim in 0.0f64..0.5,
        value in finite_sample(),
    ) {
        use divot_dsp::stats::trimmed_mean;
        let tm = trimmed_mean(&xs, trim).expect("non-empty");
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(tm >= lo - 1e-9 && tm <= hi + 1e-9, "tm={tm} not in [{lo},{hi}]");
        // Empty slice → None; single element / constant slices return the
        // value itself at any trim.
        prop_assert_eq!(trimmed_mean(&[], trim), None);
        prop_assert_eq!(trimmed_mean(&[value], trim), Some(value));
        let constant = vec![value; xs.len()];
        let tc = trimmed_mean(&constant, trim).expect("non-empty");
        prop_assert!((tc - value).abs() < 1e-9 * (1.0 + value.abs()));
        // Zero trim is the plain mean.
        let plain = trimmed_mean(&xs, 0.0).expect("non-empty");
        prop_assert!((plain - divot_dsp::stats::mean(&xs)).abs() < 1e-9 * (1.0 + plain.abs()));
    }

    #[test]
    fn summary_mad_matches_free_function(
        xs in proptest::collection::vec(finite_sample(), 1..64),
    ) {
        use divot_dsp::stats::{median_abs_deviation, Summary};
        let s = Summary::of(&xs);
        prop_assert_eq!(Some(s.mad), median_abs_deviation(&xs));
        // The streaming snapshot cannot compute a MAD.
        let acc: Accumulator = xs.iter().copied().collect();
        prop_assert!(acc.summary().mad.is_nan());
    }
}

proptest! {
    // Cheap per case and the branch edges are narrow: run many cases.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn prepared_binomial_is_bitwise_binomial(
        seed in any::<u64>(),
        n in 1u64..=400,
        case in 0usize..10,
        x in 0.0f64..1.0,
    ) {
        let p = binomial_case_p(n, case, x);
        let law = PreparedBinomial::new(n, p);
        prop_assert_eq!(law.trials(), n);
        let mut a = DivotRng::seed_from_u64(seed);
        let mut b = DivotRng::seed_from_u64(seed);
        // One law, several draws: the prepared setup is reusable.
        for _ in 0..4 {
            prop_assert_eq!(a.binomial_prepared(&law), b.binomial(n, p), "n={} p={:e}", n, p);
        }
        prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
    }
}

/// `p` for `n` trials by case: both degenerate ends, the mirror edge, a
/// mean just below or at the inverse/rejection switch (on either side
/// of the mirror, when `n > 0`), otherwise `x`.
fn binomial_case_p(n: u64, case: usize, x: f64) -> f64 {
    if n == 0 && (4..8).contains(&case) {
        return x;
    }
    let edge = |above: bool| {
        let mut q = BINOMIAL_INV_THRESHOLD / n as f64;
        while above && n as f64 * q < BINOMIAL_INV_THRESHOLD {
            q = q.next_up();
        }
        while !above && n as f64 * q >= BINOMIAL_INV_THRESHOLD {
            q = q.next_down();
        }
        q
    };
    match case {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        3 => 0.5f64.next_up(),
        4 | 5 if edge(case == 5) <= 0.5 => edge(case == 5),
        6 | 7 if edge(case == 7) <= 0.5 => 1.0 - edge(case == 7),
        _ => x,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn batched_binomial_setup_is_bitwise_new(
        seed in any::<u64>(),
        prefix in 0usize..3,
        laws in prop::collection::vec((0u64..64, 0usize..10, 0.0f64..1.0), 0..40),
    ) {
        let laws: Vec<(u64, f64)> = laws
            .into_iter()
            .map(|(n, case, x)| (n, binomial_case_p(n, case, x)))
            .collect();
        // Appending keeps what `out` already holds.
        let mut out = vec![PreparedBinomial::new(7, 0.25); prefix];
        PreparedBinomial::extend_batch(&mut out, laws.iter().copied());
        prop_assert_eq!(out.len(), prefix + laws.len());
        prop_assert!(out[..prefix].iter().all(|l| *l == PreparedBinomial::new(7, 0.25)));
        for (batched, &(n, p)) in out[prefix..].iter().zip(&laws) {
            let solo = PreparedBinomial::new(n, p);
            // `Debug` prints every f64 field in shortest round-trip
            // form, so equal strings mean equal bits (and equal signs
            // of zero, which `==` would not tell apart).
            prop_assert_eq!(format!("{batched:?}"), format!("{solo:?}"), "n={} p={:e}", n, p);
            prop_assert_eq!(batched, &solo);
            let mut a = DivotRng::seed_from_u64(seed);
            let mut b = DivotRng::seed_from_u64(seed);
            for _ in 0..3 {
                prop_assert_eq!(a.binomial_prepared(batched), b.binomial_prepared(&solo));
            }
            prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }
}
