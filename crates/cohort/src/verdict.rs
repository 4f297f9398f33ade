//! Typed intake verdicts and the per-board evidence behind them.

use crate::model::CohortConfig;

/// The outcome of attesting one unknown board against a population
/// model.
///
/// The classification keys on the *shape* of the deviation, mirroring
/// the physical threat classes: counterfeits come from a different
/// process or design, so they deviate broadly and lose similarity to
/// the centroid; tampering (solder scars, probe loading, swapped
/// termination chips) is localized, so a few segments spike while the
/// overall shape survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The board is statistically indistinguishable from the genuine
    /// population.
    Genuine,
    /// Broad deviation from the population: wrong fabrication process,
    /// wrong design, or a relabeled lot.
    Counterfeit,
    /// Localized deviation: the board matches the design but a few
    /// segments sit far outside the population spread.
    Tampered,
    /// Neither clearly in-population nor clearly deviant — route to
    /// manual inspection or a full enrolled-reference verify.
    Inconclusive,
}

impl Verdict {
    /// Classify an [`IntakeScore`] under a [`CohortConfig`]'s
    /// thresholds.
    ///
    /// Order matters and is part of the determinism contract: the
    /// localized tamper test runs first but only fires when the
    /// deviation really is localized (deviant fraction at or below
    /// [`CohortConfig::broad_fraction`]); anything broad — low
    /// calibrated similarity, a drifted profile level, inflated
    /// dispersion, or many deviant segments — is counterfeit evidence,
    /// because a wrong-process board trips the max-z test too.
    pub fn classify(score: &IntakeScore, config: &CohortConfig) -> Self {
        let broad_fraction = score.deviant_fraction() > config.broad_fraction;
        if score.max_z >= config.tamper_min_z && !broad_fraction {
            return Self::Tampered;
        }
        if score.broad_z() >= config.counterfeit_z || broad_fraction {
            return Self::Counterfeit;
        }
        if score.max_z <= config.genuine_max_z && score.broad_z() <= config.genuine_broad_z {
            return Self::Genuine;
        }
        Self::Inconclusive
    }

    /// Stable single-byte wire code.
    pub fn code(self) -> u8 {
        match self {
            Self::Genuine => 0,
            Self::Counterfeit => 1,
            Self::Tampered => 2,
            Self::Inconclusive => 3,
        }
    }

    /// Decode a wire code; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Genuine),
            1 => Some(Self::Counterfeit),
            2 => Some(Self::Tampered),
            3 => Some(Self::Inconclusive),
            _ => None,
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Genuine => "genuine",
            Self::Counterfeit => "counterfeit",
            Self::Tampered => "tampered",
            Self::Inconclusive => "inconclusive",
        })
    }
}

/// Per-board evidence from scoring against a population model.
#[derive(Debug, Clone, PartialEq)]
pub struct IntakeScore {
    /// Mean-removed cosine similarity to the population centroid,
    /// clamped to `[0, 1]`.
    pub similarity: f64,
    /// Largest per-segment robust z-score.
    pub max_z: f64,
    /// Mean per-segment robust z magnitude (dispersion).
    pub mean_z: f64,
    /// Mean *signed* per-segment z — the board's profile level relative
    /// to the population. A lot fabricated off-process shifts every
    /// segment coherently, which this catches even when no single
    /// segment is individually deviant.
    pub level: f64,
    /// Similarity deficit in units of the calibrated member spread
    /// (one-sided: `0` when at least as similar as a typical member).
    pub sim_deficit_z: f64,
    /// Profile-level deviation in calibrated member spreads (two-sided).
    pub level_z: f64,
    /// Dispersion excess in calibrated member spreads (one-sided).
    pub disp_z: f64,
    /// Segment index of `max_z` — where to look on the board.
    pub worst_segment: usize,
    /// Number of segments with z above [`CohortConfig::deviant_z`].
    pub deviant_segments: usize,
    /// Scalar genuineness score (higher is more genuine): the negated
    /// worst evidence channel, in calibrated sigmas. This is the score
    /// the ROC sweeps in the `cohort_intake` bench threshold.
    pub score: f64,
    /// The full per-segment robust z profile.
    pub z: Vec<f64>,
}

impl IntakeScore {
    /// The worst calibrated broad channel: max of
    /// [`sim_deficit_z`](Self::sim_deficit_z),
    /// [`level_z`](Self::level_z), and [`disp_z`](Self::disp_z).
    pub fn broad_z(&self) -> f64 {
        self.sim_deficit_z.max(self.level_z).max(self.disp_z)
    }

    /// Fraction of segments counted deviant.
    pub fn deviant_fraction(&self) -> f64 {
        if self.z.is_empty() {
            0.0
        } else {
            self.deviant_segments as f64 / self.z.len() as f64
        }
    }

    /// The deviant segments as `(segment, z)` evidence, z-descending
    /// (ties by segment index) — ready for an inspection report.
    pub fn deviants(&self, z_threshold: f64) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = self
            .z
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, z)| z > z_threshold)
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("z is finite")
                .then(a.0.cmp(&b.0))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_score() -> IntakeScore {
        IntakeScore {
            similarity: 0.95,
            max_z: 2.0,
            mean_z: 0.8,
            level: 0.1,
            sim_deficit_z: 0.0,
            level_z: 0.5,
            disp_z: 0.8,
            worst_segment: 10,
            deviant_segments: 0,
            score: -0.8,
            z: vec![0.5; 64],
        }
    }

    #[test]
    fn verdict_codes_round_trip_and_are_distinct() {
        let all = [
            Verdict::Genuine,
            Verdict::Counterfeit,
            Verdict::Tampered,
            Verdict::Inconclusive,
        ];
        for v in all {
            assert_eq!(Verdict::from_code(v.code()), Some(v));
        }
        let mut codes: Vec<u8> = all.iter().map(|v| v.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
        assert_eq!(Verdict::from_code(200), None);
    }

    #[test]
    fn classification_thresholds() {
        let cfg = CohortConfig::default();
        assert_eq!(Verdict::classify(&base_score(), &cfg), Verdict::Genuine);

        // Localized spike: tampered.
        let mut tampered = base_score();
        tampered.max_z = cfg.tamper_min_z + 1.0;
        tampered.deviant_segments = 1;
        assert_eq!(Verdict::classify(&tampered, &cfg), Verdict::Tampered);

        // A calibrated similarity deficit: counterfeit, even with
        // modest per-segment z.
        let mut fake = base_score();
        fake.sim_deficit_z = cfg.counterfeit_z + 1.0;
        assert_eq!(Verdict::classify(&fake, &cfg), Verdict::Counterfeit);

        // A drifted profile level is counterfeit evidence too.
        let mut drifted = base_score();
        drifted.level_z = cfg.counterfeit_z + 2.0;
        assert_eq!(Verdict::classify(&drifted, &cfg), Verdict::Counterfeit);

        // Broad deviation beats the localized tamper test.
        let mut broad = base_score();
        broad.max_z = cfg.tamper_min_z + 10.0;
        broad.deviant_segments = 32;
        assert_eq!(Verdict::classify(&broad, &cfg), Verdict::Counterfeit);

        // The band between genuine and tamper thresholds is inconclusive.
        let mut murky = base_score();
        murky.max_z = (cfg.genuine_max_z + cfg.tamper_min_z) / 2.0;
        assert_eq!(Verdict::classify(&murky, &cfg), Verdict::Inconclusive);

        // The band between genuine and counterfeit broad thresholds is
        // inconclusive too.
        let mut faint = base_score();
        faint.disp_z = (cfg.genuine_broad_z + cfg.counterfeit_z) / 2.0;
        assert_eq!(Verdict::classify(&faint, &cfg), Verdict::Inconclusive);
    }

    #[test]
    fn broad_z_is_the_worst_channel() {
        let mut s = base_score();
        s.sim_deficit_z = 1.0;
        s.level_z = 3.0;
        s.disp_z = 2.0;
        assert_eq!(s.broad_z(), 3.0);
    }

    #[test]
    fn verdicts_render_lowercase() {
        assert_eq!(Verdict::Genuine.to_string(), "genuine");
        assert_eq!(Verdict::Counterfeit.to_string(), "counterfeit");
        assert_eq!(Verdict::Tampered.to_string(), "tampered");
        assert_eq!(Verdict::Inconclusive.to_string(), "inconclusive");
    }

    #[test]
    fn deviants_are_sorted_by_z() {
        let mut s = base_score();
        s.z[5] = 9.0;
        s.z[40] = 30.0;
        s.z[41] = 9.0;
        assert_eq!(s.deviants(6.0), vec![(40, 30.0), (5, 9.0), (41, 9.0)]);
        assert_eq!(s.deviants(100.0), Vec::new());
    }

    #[test]
    fn deviant_fraction_handles_empty_profile() {
        let mut s = base_score();
        s.z.clear();
        assert_eq!(s.deviant_fraction(), 0.0);
    }
}
