//! Error function, complementary error function, and probit.
//!
//! Implemented from scratch (no external special-function crate):
//!
//! * [`erf`]/[`erfc`] use W. J. Cody's rational Chebyshev approximations
//!   (the same scheme used by most libm implementations), accurate to about
//!   1 part in 10¹⁵ over the whole real line, with a scaled variant in the
//!   far tail so `erfc` does not underflow prematurely.
//! * [`probit`] (the inverse of the standard normal CDF) uses Acklam's
//!   rational approximation refined by one Halley iteration, giving close to
//!   full double precision.

// The coefficient tables are quoted at the published precision; rounding
// them to representable digits would obscure their provenance.
#![allow(clippy::excessive_precision)]

use std::sync::LazyLock;

/// Coefficients for |x| <= 0.46875 (Cody region 1).
const ERF_P: [f64; 5] = [
    3.209377589138469472562e3,
    3.774852376853020208137e2,
    1.138641541510501556495e2,
    3.161123743870565596947e0,
    1.857777061846031526730e-1,
];
const ERF_Q: [f64; 4] = [
    2.844236833439170622273e3,
    1.282616526077372275645e3,
    2.440246379344441733056e2,
    2.360129095234412093499e1,
];

/// Coefficients for 0.46875 < |x| <= 4.0 (Cody region 2, computes erfc).
const ERFC_P: [f64; 9] = [
    1.23033935479799725272e3,
    2.05107837782607146532e3,
    1.71204761263407058314e3,
    8.81952221241769090411e2,
    2.98635138197400131132e2,
    6.61191906371416294775e1,
    8.88314979438837594118e0,
    5.64188496988670089180e-1,
    2.15311535474403846343e-8,
];
const ERFC_Q: [f64; 9] = [
    1.23033935480374942043e3,
    3.43936767414372163696e3,
    4.36261909014324715820e3,
    3.29079923573345962678e3,
    1.62138957456669018874e3,
    5.37181101862009857509e2,
    1.17693950891312499305e2,
    1.57449261107098347253e1,
    1.0,
];

/// Coefficients for |x| > 4.0 (Cody region 3, asymptotic erfc).
const ERFC_R: [f64; 6] = [
    -6.58749161529837803157e-4,
    -1.60837851487422766278e-2,
    -1.25781726111229246204e-1,
    -3.60344899949804439429e-1,
    -3.05326634961232344035e-1,
    -1.63153871373020978498e-2,
];
const ERFC_S: [f64; 6] = [
    2.33520497626869185443e-3,
    6.05183413124413191178e-2,
    5.27905102951428412248e-1,
    1.87295284992346047209e0,
    2.56852019228982242072e0,
    1.0,
];

const ONE_OVER_SQRT_PI: f64 = 0.564189583547756286948;

fn erf_small(x: f64) -> f64 {
    // Region 1: rational approximation for erf directly.
    let z = x * x;
    let mut num = ERF_P[4] * z;
    let mut den = z;
    for i in (1..4).rev() {
        num = (num + ERF_P[i]) * z;
        den = (den + ERF_Q[i]) * z;
    }
    x * (num + ERF_P[0]) / (den + ERF_Q[0])
}

/// Arguments at or beyond this underflow `erfc` to zero (Cody region 3).
const ERFC_CUTOFF: f64 = 26.7;

/// Number of sixteenths `k = ⌊16·|x|⌋` below [`ERFC_CUTOFF`]: `0..=427`.
const COARSE_STEPS: usize = 428;

/// `exp(−(k/16)²)` for every coarse step `k` of the split exponential,
/// evaluated with exactly the `exp` call the split would otherwise make
/// per argument, so a lookup is bitwise identical to recomputing it.
static COARSE_EXP: LazyLock<[f64; COARSE_STEPS]> = LazyLock::new(|| {
    std::array::from_fn(|k| {
        let xsq = k as f64 / 16.0;
        (-xsq * xsq).exp()
    })
});

/// `exp(−ax²)` for `0 < ax < 26.7` with Cody's split trick for accuracy:
/// `ax² = xsq² + del` with `xsq` truncated to sixteenths, so the large
/// factor `exp(−xsq²)` is exact-argument (and tabulated) and only the
/// small remainder `exp(−del)` is evaluated per call.
///
/// `k` is truncated by integer conversion, which for `0 < 16·ax < 428`
/// is exactly `(16·ax).trunc()` but compiles to one instruction where
/// baseline x86-64 (no `roundsd`) would call out to `trunc`.
fn exp_neg_square(ax: f64) -> f64 {
    let k = (ax * 16.0) as u32;
    let xsq = f64::from(k) / 16.0;
    let del = (ax - xsq) * (ax + xsq);
    COARSE_EXP[k as usize] * (-del).exp()
}

fn erfc_mid_ratio(ax: f64) -> f64 {
    // Region 2: erfc(ax)·exp(ax²) for 0.46875 < ax <= 4.0.
    let mut num = ERFC_P[8] * ax;
    let mut den = ax;
    for i in (1..8).rev() {
        num = (num + ERFC_P[i]) * ax;
        den = (den + ERFC_Q[i]) * ax;
    }
    (num + ERFC_P[0]) / (den + ERFC_Q[0])
}

fn erfc_large_ratio(ax: f64) -> f64 {
    // Region 3: asymptotic expansion of erfc(ax)·exp(ax²) for ax > 4.0.
    let z = 1.0 / (ax * ax);
    let mut num = ERFC_R[5] * z;
    let mut den = z;
    for i in (1..5).rev() {
        num = (num + ERFC_R[i]) * z;
        den = (den + ERFC_S[i]) * z;
    }
    let r = z * (num + ERFC_R[0]) / (den + ERFC_S[0]);
    (ONE_OVER_SQRT_PI + r) / ax
}

/// The error function `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
///
/// Accurate to roughly machine precision over the whole real line.
///
/// ```
/// assert!((divot_dsp::erf::erf(0.0)).abs() < 1e-15);
/// assert!((divot_dsp::erf::erf(1.0) - 0.8427007929497149).abs() < 1e-12);
/// ```
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax <= 0.46875 {
        erf_small(x)
    } else {
        let e = erfc(ax);
        let v = 1.0 - e;
        if x < 0.0 {
            -v
        } else {
            v
        }
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Remains accurate (relative error) deep into the positive tail, which
/// matters for the tiny false-positive rates the DIVOT evaluation reports.
///
/// ```
/// assert!((divot_dsp::erf::erfc(0.0) - 1.0).abs() < 1e-15);
/// // Deep tail stays in relative precision rather than flushing to 0.
/// assert!(divot_dsp::erf::erfc(6.0) > 0.0);
/// ```
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    let v = if ax <= 0.46875 {
        return 1.0 - erf_small(x);
    } else if ax <= 4.0 {
        exp_neg_square(ax) * erfc_mid_ratio(ax)
    } else if ax >= ERFC_CUTOFF {
        0.0 // underflows double precision
    } else {
        exp_neg_square(ax) * erfc_large_ratio(ax)
    };
    if x < 0.0 {
        2.0 - v
    } else {
        v
    }
}

/// Lanes per pass of [`erfc_batch`]: the size of its stack buffers.
const BATCH_LANES: usize = 64;

/// [`erfc`] of every lane of `xs`, in place: each lane is bitwise
/// `erfc` of its own value, whatever the slice length.
///
/// The lanes are independent, so instead of running each argument's
/// chain to the end before the next starts, the kernel makes three
/// passes over up to 64 lanes at a time: call-free arithmetic (the
/// region-2 rational, the split exponential's coarse step `k` by exact
/// integer truncation, its table factor and remainder), one loop that
/// only calls `exp` on the remainders, and a per-lane select of the
/// region and sign that reuses the scalar path's region-1 and region-3
/// helpers. Every lane gets the mid-region rational and the `exp`, even
/// where its own region ignores them, so the first two passes have no
/// branches; each value is still formed by the same operations in the
/// same order as [`erfc`].
///
/// ```
/// let mut xs = [-1.5, 0.2, 3.0, 30.0];
/// divot_dsp::erf::erfc_batch(&mut xs);
/// for (e, x) in xs.iter().zip([-1.5, 0.2, 3.0, 30.0]) {
///     assert_eq!(e.to_bits(), divot_dsp::erf::erfc(x).to_bits());
/// }
/// ```
pub fn erfc_batch(xs: &mut [f64]) {
    let table = &*COARSE_EXP;
    // Per lane: the tabulated `exp(−(k/16)²)`, the remainder's
    // `exp(−del)` (holding `−del` until the `exp` pass), and the
    // region-2 ratio `erfc(ax)·exp(ax²)`.
    let mut coarse = [0.0f64; BATCH_LANES];
    let mut fine = [0.0f64; BATCH_LANES];
    let mut ratio = [0.0f64; BATCH_LANES];
    for chunk in xs.chunks_mut(BATCH_LANES) {
        let lanes = chunk.len();
        let (coarse, fine, ratio) = (
            &mut coarse[..lanes],
            &mut fine[..lanes],
            &mut ratio[..lanes],
        );
        for (((&x, c), f), r) in chunk
            .iter()
            .zip(&mut *coarse)
            .zip(&mut *fine)
            .zip(&mut *ratio)
        {
            let ax = x.abs();
            // Saturating conversion: NaN gives 0 and anything at or past
            // the cutoff clamps to the last step; the select pass
            // ignores those lanes' factors.
            let k = ((ax * 16.0) as u32).min(COARSE_STEPS as u32 - 1);
            let xsq = f64::from(k) / 16.0;
            *c = table[k as usize];
            *f = -((ax - xsq) * (ax + xsq));
            *r = erfc_mid_ratio(ax);
        }
        for f in &mut *fine {
            *f = f.exp();
        }
        for (((x, &c), &f), &r) in chunk.iter_mut().zip(&*coarse).zip(&*fine).zip(&*ratio) {
            let ax = x.abs();
            *x = if x.is_nan() {
                f64::NAN
            } else if ax <= 0.46875 {
                1.0 - erf_small(*x)
            } else {
                let v = if ax <= 4.0 {
                    c * f * r
                } else if ax >= ERFC_CUTOFF {
                    0.0
                } else {
                    c * f * erfc_large_ratio(ax)
                };
                if *x < 0.0 {
                    2.0 - v
                } else {
                    v
                }
            };
        }
    }
}

/// Acklam's rational approximation for the inverse standard normal CDF.
fn probit_acklam(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The probit function: inverse of the standard normal CDF.
///
/// `probit(Φ(x)) == x` to near machine precision. Returns `-INFINITY` for
/// `p == 0`, `INFINITY` for `p == 1`, and `NaN` outside `[0, 1]`.
///
/// ```
/// let x = divot_dsp::erf::probit(0.975);
/// assert!((x - 1.959963984540054).abs() < 1e-10);
/// ```
pub fn probit(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    let x = probit_acklam(p);
    // One Halley refinement against the true CDF (via erfc for tail accuracy).
    let e = 0.5 * erfc(-x / std::f64::consts::SQRT_2) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The untabulated `erfc`: both factors of the split exponential
    /// evaluated by `exp` on every call.
    fn erfc_two_exp(x: f64) -> f64 {
        let ax = x.abs();
        if ax <= 0.46875 {
            return 1.0 - erf_small(x);
        }
        let v = if ax >= 26.7 {
            0.0
        } else {
            let r = if ax <= 4.0 {
                erfc_mid_ratio(ax)
            } else {
                erfc_large_ratio(ax)
            };
            let xsq = (ax * 16.0).trunc() / 16.0;
            let del = (ax - xsq) * (ax + xsq);
            (-xsq * xsq).exp() * (-del).exp() * r
        };
        if x < 0.0 {
            2.0 - v
        } else {
            v
        }
    }

    #[test]
    fn coarse_exp_table_is_bitwise_exp() {
        for (k, &e) in COARSE_EXP.iter().enumerate() {
            let xsq = k as f64 / 16.0;
            assert_eq!(e.to_bits(), (-(xsq * xsq)).exp().to_bits(), "k={k}");
        }
    }

    #[test]
    fn tabulated_erfc_is_bitwise_the_two_exp_formula() {
        // A dense grid over [−27, 27], every coarse step k/16, and the
        // region and cutoff edges — each with its neighbouring ulps.
        let mut xs: Vec<f64> = (-270_000..=270_000).map(|i| f64::from(i) * 1e-4).collect();
        let mut pivots: Vec<f64> = (0..=COARSE_STEPS).map(|k| k as f64 / 16.0).collect();
        pivots.extend([0.46875, 4.0, ERFC_CUTOFF]);
        for p in pivots {
            for x in [p, -p] {
                xs.extend([x.next_down(), x, x.next_up()]);
            }
        }
        for x in xs {
            assert_eq!(erfc(x).to_bits(), erfc_two_exp(x).to_bits(), "x={x:e}");
        }
    }

    #[test]
    fn batched_erfc_is_bitwise_scalar_erfc() {
        // The grid above plus the IEEE specials, cut into slices of
        // every length class: shorter than, equal to and past one pass,
        // several passes with a remainder, and the whole grid at once.
        let mut xs: Vec<f64> = (-270_000..=270_000).map(|i| f64::from(i) * 1e-4).collect();
        let mut pivots: Vec<f64> = (0..=COARSE_STEPS).map(|k| k as f64 / 16.0).collect();
        pivots.extend([0.46875, 4.0, ERFC_CUTOFF]);
        for p in pivots {
            for x in [p, -p] {
                xs.extend([x.next_down(), x, x.next_up()]);
            }
        }
        xs.extend([0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        let want: Vec<u64> = xs.iter().map(|&x| erfc(x).to_bits()).collect();
        let lens = [1, 2, 3, 7, BATCH_LANES - 1, BATCH_LANES, BATCH_LANES + 1];
        for len in lens
            .into_iter()
            .chain([2 * BATCH_LANES + 3, 9 * 16, xs.len()])
        {
            let mut got = xs.clone();
            for chunk in got.chunks_mut(len) {
                erfc_batch(chunk);
            }
            for ((x, g), w) in xs.iter().zip(&got).zip(&want) {
                assert_eq!(g.to_bits(), *w, "len={len} x={x:e}");
            }
        }
        erfc_batch(&mut []);
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from standard tables / mpmath.
        let cases = [
            (0.0, 0.0),
            (0.1, 0.1124629160182849),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
            (-1.0, -0.8427007929497149),
        ];
        for (x, want) in cases {
            assert!(
                (erf(x) - want).abs() < 1e-12,
                "erf({x}) = {} want {want}",
                erf(x)
            );
        }
    }

    #[test]
    fn erfc_reference_values() {
        let cases = [
            (0.5, 0.4795001221869535),
            (1.0, 0.15729920705028513),
            (2.0, 0.004677734981063127),
            (4.0, 1.541725790028002e-8),
            (6.0, 2.1519736712498913e-17),
        ];
        for (x, want) in cases {
            let got = erfc(x);
            assert!(
                ((got - want) / want).abs() < 1e-10,
                "erfc({x}) = {got} want {want}"
            );
        }
    }

    #[test]
    fn erfc_negative_axis() {
        assert!((erfc(-1.0) - (2.0 - erfc(1.0))).abs() < 1e-14);
        assert!((erfc(-3.0) - 1.9999779095030015).abs() < 1e-12);
    }

    #[test]
    fn erf_plus_erfc_is_one() {
        for i in -40..=40 {
            let x = i as f64 * 0.1;
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-13, "x={x}");
        }
    }

    #[test]
    fn erf_is_odd() {
        for i in 1..=50 {
            let x = i as f64 * 0.07;
            assert!((erf(x) + erf(-x)).abs() < 1e-15);
        }
    }

    #[test]
    fn probit_reference_values() {
        let cases = [
            (0.5, 0.0),
            (0.8413447460685429, 1.0),
            (0.9772498680518208, 2.0),
            (0.0013498980316300933, -3.0),
            (0.975, 1.959963984540054),
        ];
        for (p, want) in cases {
            assert!(
                (probit(p) - want).abs() < 1e-9,
                "probit({p}) = {} want {want}",
                probit(p)
            );
        }
    }

    #[test]
    fn probit_round_trip() {
        for i in -45..=45 {
            let x = i as f64 * 0.1;
            let p = 0.5 * erfc(-x / std::f64::consts::SQRT_2);
            assert!((probit(p) - x).abs() < 1e-8, "x={x}");
        }
    }

    #[test]
    fn probit_edges() {
        assert_eq!(probit(0.0), f64::NEG_INFINITY);
        assert_eq!(probit(1.0), f64::INFINITY);
        assert!(probit(-0.1).is_nan());
        assert!(probit(1.1).is_nan());
        assert!(probit(f64::NAN).is_nan());
    }

    #[test]
    fn nan_propagates() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn erf_monotone() {
        let mut prev = erf(-5.0);
        for i in -49..=50 {
            let v = erf(i as f64 * 0.1);
            assert!(v >= prev);
            prev = v;
        }
    }
}
