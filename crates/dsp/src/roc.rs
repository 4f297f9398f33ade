//! Receiver operating characteristic analysis: ROC curves, EER, AUC.
//!
//! Used to regenerate Fig. 7(b) and the EER claims of §IV-C. Scores follow
//! the authentication convention: *higher = more likely genuine* (similarity
//! scores). A decision threshold `θ` accepts when `score ≥ θ`; then
//!
//! * **FPR** (false positive rate) = fraction of impostor scores `≥ θ`,
//! * **TPR** (true positive rate) = fraction of genuine scores `≥ θ`,
//! * **FNR** = 1 − TPR,
//! * **EER** = the rate where FPR = FNR.

/// One operating point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Acceptance threshold (accept if score ≥ threshold).
    pub threshold: f64,
    /// False positive rate at this threshold.
    pub fpr: f64,
    /// True positive rate at this threshold.
    pub tpr: f64,
}

/// A full ROC curve built from genuine and impostor score sets.
#[derive(Debug, Clone, PartialEq)]
pub struct RocCurve {
    points: Vec<RocPoint>,
    genuine_sorted: Vec<f64>,
    impostor_sorted: Vec<f64>,
    auc: f64,
    eer: f64,
    eer_threshold: f64,
}

impl RocCurve {
    /// Build a ROC curve from genuine (same-line) and impostor
    /// (different-line) similarity scores.
    ///
    /// # Panics
    ///
    /// Panics if either score set is empty or contains NaN.
    pub fn from_scores(genuine: &[f64], impostor: &[f64]) -> Self {
        assert!(!genuine.is_empty(), "genuine score set must be non-empty");
        assert!(!impostor.is_empty(), "impostor score set must be non-empty");
        assert!(
            genuine.iter().chain(impostor).all(|s| !s.is_nan()),
            "scores must not be NaN"
        );

        let mut g = genuine.to_vec();
        let mut i = impostor.to_vec();
        g.sort_by(|a, b| a.partial_cmp(b).expect("checked non-NaN"));
        i.sort_by(|a, b| a.partial_cmp(b).expect("checked non-NaN"));

        // Candidate thresholds: every distinct score, plus sentinels so the
        // curve spans (0,0) to (1,1).
        let mut thresholds: Vec<f64> = g.iter().chain(i.iter()).copied().collect();
        thresholds.sort_by(|a, b| a.partial_cmp(b).expect("checked non-NaN"));
        thresholds.dedup();
        let span = thresholds.last().unwrap() - thresholds.first().unwrap();
        let eps = if span > 0.0 { span * 1e-9 } else { 1e-12 };
        thresholds.push(thresholds.last().unwrap() + eps);

        let points: Vec<RocPoint> = thresholds
            .iter()
            .map(|&t| RocPoint {
                threshold: t,
                fpr: frac_at_or_above(&i, t),
                tpr: frac_at_or_above(&g, t),
            })
            .collect();

        let auc = auc_mann_whitney(&g, &i);
        let (eer, eer_threshold) = eer_from_sorted(&g, &i, &points);

        Self {
            points,
            genuine_sorted: g,
            impostor_sorted: i,
            auc,
            eer,
            eer_threshold,
        }
    }

    /// The curve's operating points, ordered by increasing threshold
    /// (i.e. from the (1,1) corner toward (0,0)).
    pub fn points(&self) -> &[RocPoint] {
        &self.points
    }

    /// Area under the curve via the Mann–Whitney U statistic
    /// (probability a random genuine score exceeds a random impostor score,
    /// ties counted half).
    pub fn auc(&self) -> f64 {
        self.auc
    }

    /// The equal error rate: the rate at which FPR equals FNR, found by
    /// linear interpolation between adjacent thresholds.
    pub fn eer(&self) -> f64 {
        self.eer
    }

    /// The threshold achieving the EER.
    pub fn eer_threshold(&self) -> f64 {
        self.eer_threshold
    }

    /// Exact empirical false positive rate at an arbitrary threshold:
    /// the fraction of impostor scores ≥ `threshold`.
    pub fn fpr_at(&self, threshold: f64) -> f64 {
        frac_at_or_above(&self.impostor_sorted, threshold)
    }

    /// Exact empirical true positive rate at an arbitrary threshold:
    /// the fraction of genuine scores ≥ `threshold`.
    pub fn tpr_at(&self, threshold: f64) -> f64 {
        frac_at_or_above(&self.genuine_sorted, threshold)
    }
}

/// Area under the ROC curve directly from unsorted score sets, without
/// building the full curve — the Mann–Whitney U statistic (probability a
/// random genuine score exceeds a random impostor score, ties counted
/// half). Cohort-size sweeps call this per operating point where the
/// full [`RocCurve`] would be rebuilt just to read one number.
///
/// # Panics
///
/// Panics if either score set is empty or contains NaN (same contract
/// as [`RocCurve::from_scores`]).
pub fn auc(genuine: &[f64], impostor: &[f64]) -> f64 {
    assert!(!genuine.is_empty(), "genuine score set must be non-empty");
    assert!(!impostor.is_empty(), "impostor score set must be non-empty");
    assert!(
        genuine.iter().chain(impostor).all(|s| !s.is_nan()),
        "scores must not be NaN"
    );
    let mut g = genuine.to_vec();
    let mut i = impostor.to_vec();
    g.sort_by(|a, b| a.partial_cmp(b).expect("checked non-NaN"));
    i.sort_by(|a, b| a.partial_cmp(b).expect("checked non-NaN"));
    auc_mann_whitney(&g, &i)
}

fn frac_at_or_above(sorted: &[f64], t: f64) -> f64 {
    // Number of elements >= t in an ascending-sorted slice.
    let idx = sorted.partition_point(|&x| x < t);
    (sorted.len() - idx) as f64 / sorted.len() as f64
}

fn auc_mann_whitney(genuine_sorted: &[f64], impostor_sorted: &[f64]) -> f64 {
    // For each genuine score count impostors strictly below (plus half
    // ties), using two-pointer sweeps over the sorted sets.
    let mut wins = 0.0f64;
    for &gs in genuine_sorted {
        let below = impostor_sorted.partition_point(|&x| x < gs);
        let at_or_below = impostor_sorted.partition_point(|&x| x <= gs);
        wins += below as f64 + 0.5 * (at_or_below - below) as f64;
    }
    wins / (genuine_sorted.len() as f64 * impostor_sorted.len() as f64)
}

fn eer_from_sorted(g: &[f64], i: &[f64], points: &[RocPoint]) -> (f64, f64) {
    // FNR rises and FPR falls as the threshold increases; find the crossing.
    let _ = (g, i);
    let mut prev: Option<(&RocPoint, f64)> = None;
    for p in points {
        let fnr = 1.0 - p.tpr;
        let diff = p.fpr - fnr;
        if let Some((pp, pdiff)) = prev {
            if pdiff >= 0.0 && diff <= 0.0 {
                // Crossing between pp and p; interpolate.
                let pfnr = 1.0 - pp.tpr;
                let denom = pdiff - diff;
                let f = if denom.abs() < 1e-300 {
                    0.5
                } else {
                    pdiff / denom
                };
                let eer_fpr = pp.fpr + (p.fpr - pp.fpr) * f;
                let eer_fnr = pfnr + (fnr - pfnr) * f;
                let thr = pp.threshold + (p.threshold - pp.threshold) * f;
                return (0.5 * (eer_fpr + eer_fnr), thr);
            }
        }
        prev = Some((p, diff));
    }
    // No crossing found (degenerate); take the point minimizing |FPR−FNR|.
    let best = points
        .iter()
        .min_by(|a, b| {
            let da = (a.fpr - (1.0 - a.tpr)).abs();
            let db = (b.fpr - (1.0 - b.tpr)).abs();
            da.partial_cmp(&db).expect("checked non-NaN")
        })
        .expect("points non-empty");
    (0.5 * (best.fpr + (1.0 - best.tpr)), best.threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DivotRng;

    #[test]
    fn perfectly_separated_scores() {
        let genuine = [0.9, 0.95, 0.99];
        let impostor = [0.1, 0.2, 0.3];
        let roc = RocCurve::from_scores(&genuine, &impostor);
        assert!((roc.auc() - 1.0).abs() < 1e-12);
        assert!(roc.eer() < 1e-9, "eer={}", roc.eer());
        // A mid threshold achieves FPR 0, TPR 1.
        assert_eq!(roc.fpr_at(0.5), 0.0);
        assert_eq!(roc.tpr_at(0.5), 1.0);
    }

    #[test]
    fn identical_distributions_give_half() {
        let scores = [0.1, 0.2, 0.3, 0.4, 0.5];
        let roc = RocCurve::from_scores(&scores, &scores);
        assert!((roc.auc() - 0.5).abs() < 1e-12);
        assert!((roc.eer() - 0.5).abs() < 0.21, "eer={}", roc.eer());
    }

    #[test]
    fn overlapping_gaussians_eer_matches_theory() {
        // Genuine ~ N(1, 1), impostor ~ N(-1, 1): EER = Φ(-1) ≈ 0.1587.
        let mut rng = DivotRng::seed_from_u64(42);
        let genuine: Vec<f64> = (0..60_000).map(|_| rng.normal(1.0, 1.0)).collect();
        let impostor: Vec<f64> = (0..60_000).map(|_| rng.normal(-1.0, 1.0)).collect();
        let roc = RocCurve::from_scores(&genuine, &impostor);
        assert!((roc.eer() - 0.1587).abs() < 0.005, "eer={}", roc.eer());
        // AUC = Φ(2/√2) ≈ 0.9214.
        assert!((roc.auc() - 0.9214).abs() < 0.005, "auc={}", roc.auc());
        // EER threshold is near the midpoint 0.
        assert!(roc.eer_threshold().abs() < 0.05);
    }

    #[test]
    fn rates_are_monotone_in_threshold() {
        let mut rng = DivotRng::seed_from_u64(1);
        let genuine: Vec<f64> = (0..500).map(|_| rng.normal(0.5, 0.2)).collect();
        let impostor: Vec<f64> = (0..500).map(|_| rng.normal(-0.5, 0.2)).collect();
        let roc = RocCurve::from_scores(&genuine, &impostor);
        let pts = roc.points();
        for w in pts.windows(2) {
            assert!(w[1].threshold > w[0].threshold);
            assert!(w[1].fpr <= w[0].fpr + 1e-12);
            assert!(w[1].tpr <= w[0].tpr + 1e-12);
        }
        // Curve spans full rate range.
        assert_eq!(pts[0].fpr, 1.0);
        assert_eq!(pts[0].tpr, 1.0);
        assert_eq!(pts.last().unwrap().fpr, 0.0);
        assert_eq!(pts.last().unwrap().tpr, 0.0);
    }

    #[test]
    fn fpr_at_extreme_thresholds() {
        let roc = RocCurve::from_scores(&[0.8, 0.9], &[0.1, 0.2]);
        assert_eq!(roc.fpr_at(-10.0), 1.0);
        assert_eq!(roc.fpr_at(10.0), 0.0);
        assert_eq!(roc.tpr_at(-10.0), 1.0);
        assert_eq!(roc.tpr_at(10.0), 0.0);
    }

    #[test]
    fn single_scores_work() {
        let roc = RocCurve::from_scores(&[1.0], &[0.0]);
        assert!((roc.auc() - 1.0).abs() < 1e-12);
        assert!(roc.eer() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "genuine score set must be non-empty")]
    fn rejects_empty_genuine() {
        let _ = RocCurve::from_scores(&[], &[0.1]);
    }

    #[test]
    #[should_panic(expected = "impostor score set must be non-empty")]
    fn rejects_empty_impostor() {
        let _ = RocCurve::from_scores(&[0.9], &[]);
    }

    #[test]
    #[should_panic(expected = "scores must not be NaN")]
    fn rejects_nan_scores() {
        let _ = RocCurve::from_scores(&[f64::NAN], &[0.1]);
    }

    #[test]
    fn all_tied_scores_are_chance() {
        // Every score identical in both sets: no threshold separates
        // anything — AUC is exactly chance, EER is 1/2, and the curve
        // still spans its corners without NaNs.
        let tied = [0.7; 8];
        let roc = RocCurve::from_scores(&tied, &tied);
        assert!((roc.auc() - 0.5).abs() < 1e-12, "auc={}", roc.auc());
        assert!((roc.eer() - 0.5).abs() < 1e-9, "eer={}", roc.eer());
        for p in roc.points() {
            assert!(p.fpr.is_finite() && p.tpr.is_finite());
        }
        assert_eq!(
            roc.points().first().map(|p| (p.fpr, p.tpr)),
            Some((1.0, 1.0))
        );
        assert_eq!(
            roc.points().last().map(|p| (p.fpr, p.tpr)),
            Some((0.0, 0.0))
        );
        assert!((auc(&tied, &tied) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn free_auc_matches_curve_auc() {
        let mut rng = DivotRng::seed_from_u64(9);
        let genuine: Vec<f64> = (0..400).map(|_| rng.normal(0.8, 0.3)).collect();
        let impostor: Vec<f64> = (0..300).map(|_| rng.normal(-0.2, 0.4)).collect();
        let roc = RocCurve::from_scores(&genuine, &impostor);
        assert_eq!(auc(&genuine, &impostor).to_bits(), roc.auc().to_bits());
        assert_eq!(auc(&[1.0], &[0.0]), 1.0);
        assert_eq!(auc(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "impostor score set must be non-empty")]
    fn free_auc_rejects_empty_impostor() {
        let _ = auc(&[0.5], &[]);
    }
}
