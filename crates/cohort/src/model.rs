//! The population model: robust per-segment statistics plus a centroid,
//! learned from an intake cohort with no golden reference.

use crate::cluster::{cluster_by_similarity, PairwiseSimilarity};
use crate::verdict::{IntakeScore, Verdict};
use divot_dsp::similarity::cosine;
use divot_dsp::stats::{median, median_abs_deviation, trimmed_mean, MAD_TO_SIGMA};

/// Tuning knobs of cohort learning and verdict classification.
///
/// The defaults are calibrated against the simulated fleet's fast
/// instrument ([`ItdrConfig::fast`]-style 86-point fingerprints averaged
/// over 4 measurements) — see the `cohort_intake` bench, which sweeps
/// cohort sizes and pins the resulting EER.
///
/// [`ItdrConfig::fast`]: https://docs.rs/divot-core
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortConfig {
    /// Minimum number of boards a model can be learned from (and the
    /// minimum size of the surviving genuine cluster).
    pub min_cohort: usize,
    /// How many robust sigmas below the median cohort affinity the
    /// single-linkage cluster cutoff sits.
    pub cluster_mad_k: f64,
    /// Hard floor of the cluster cutoff (similarity units).
    pub min_cutoff: f64,
    /// Trim fraction of the per-segment centroid mean.
    pub centroid_trim: f64,
    /// Per-segment σ floor, relative to the median per-segment σ —
    /// keeps quiet segments (pre-trigger flat region) from exploding a
    /// z-score on measurement noise.
    pub sigma_floor_rel: f64,
    /// Robust z above which a segment counts as deviant evidence.
    pub deviant_z: f64,
    /// Largest max-z a genuine board is allowed.
    pub genuine_max_z: f64,
    /// Smallest max-z that classifies as tampering (between
    /// [`genuine_max_z`](Self::genuine_max_z) and this lies the
    /// inconclusive band).
    pub tamper_min_z: f64,
    /// Fraction of deviant segments above which deviation counts as
    /// broad (counterfeit) rather than localized (tamper).
    pub broad_fraction: f64,
    /// Calibrated broad-channel z (see [`IntakeScore::broad_z`]) at or
    /// above which a board is counterfeit.
    pub counterfeit_z: f64,
    /// Largest calibrated broad-channel z a genuine verdict allows.
    pub genuine_broad_z: f64,
    /// Floor of the calibrated similarity spread (cosine units) — keeps
    /// an unnaturally tight cohort from flagging ordinary boards.
    pub sim_spread_floor: f64,
    /// Floor of the calibrated profile-level spread (z units).
    pub level_spread_floor: f64,
    /// Floor of the calibrated dispersion spread (z units).
    pub disp_spread_floor: f64,
}

impl Default for CohortConfig {
    fn default() -> Self {
        Self {
            min_cohort: 8,
            cluster_mad_k: 6.0,
            min_cutoff: 0.2,
            centroid_trim: 0.1,
            sigma_floor_rel: 0.05,
            deviant_z: 6.0,
            genuine_max_z: 8.0,
            tamper_min_z: 12.0,
            broad_fraction: 0.25,
            counterfeit_z: 7.0,
            genuine_broad_z: 4.0,
            sim_spread_floor: 0.02,
            level_spread_floor: 0.1,
            disp_spread_floor: 0.05,
        }
    }
}

/// In-family spread of the broad evidence channels, measured on the
/// model's own members at learn time.
///
/// Absolute thresholds do not transfer between designs: a cohort of
/// long noisy backplanes has a very different similarity and z spread
/// than one of short clean point-to-point links. Scoring therefore
/// expresses every broad channel in units of the cohort's *own* robust
/// spread — "this board's profile level sits 9 member-sigmas off the
/// population" means the same thing for any design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Median member similarity-to-centroid.
    pub sim_center: f64,
    /// Robust spread of member similarity (MAD·1.4826, floored).
    pub sim_spread: f64,
    /// Median member profile level (mean signed z).
    pub level_center: f64,
    /// Robust spread of member profile level (floored).
    pub level_spread: f64,
    /// Median member dispersion (mean |z|).
    pub disp_center: f64,
    /// Robust spread of member dispersion (floored).
    pub disp_spread: f64,
}

/// Why a population model could not be learned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CohortError {
    /// Fewer boards than [`CohortConfig::min_cohort`].
    CohortTooSmall {
        /// Boards provided.
        got: usize,
        /// Boards required.
        need: usize,
    },
    /// A fingerprint's length disagrees with the first board's.
    LengthMismatch {
        /// Expected segment count (board 0's).
        expect: usize,
        /// Offending board's segment count.
        got: usize,
        /// Offending board index.
        board: usize,
    },
    /// A fingerprint contains NaN or infinity.
    NonFinite {
        /// Offending board index.
        board: usize,
    },
    /// Fingerprints are empty (zero segments).
    EmptyFingerprint,
    /// Clustering found no population of at least
    /// [`CohortConfig::min_cohort`] boards — the cohort has no majority
    /// design.
    SplinteredCohort {
        /// Size of the largest cluster found.
        largest: usize,
        /// Required genuine-cluster size.
        need: usize,
    },
}

impl std::fmt::Display for CohortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::CohortTooSmall { got, need } => {
                write!(
                    f,
                    "cohort of {got} boards is below the {need}-board minimum"
                )
            }
            Self::LengthMismatch { expect, got, board } => {
                write!(f, "board {board} has {got} segments, cohort has {expect}")
            }
            Self::NonFinite { board } => write!(f, "board {board} has non-finite samples"),
            Self::EmptyFingerprint => write!(f, "fingerprints are empty"),
            Self::SplinteredCohort { largest, need } => write!(
                f,
                "largest cluster has {largest} boards, below the {need}-board minimum"
            ),
        }
    }
}

impl std::error::Error for CohortError {}

/// A learned population model: the golden-free reference an intake scan
/// attests unknown boards against.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationModel {
    config: CohortConfig,
    /// Per-segment robust location (median over the genuine cluster).
    medians: Vec<f64>,
    /// Per-segment robust scale (MAD·1.4826, floored).
    sigmas: Vec<f64>,
    /// Mean-removed trimmed-mean centroid of the genuine cluster.
    centroid: Vec<f64>,
    /// Cohort indices the model was fitted on (sorted).
    members: Vec<usize>,
    /// Cohort indices excluded as outlier clusters (sorted).
    excluded: Vec<usize>,
    /// The adaptive single-linkage cutoff that separated them.
    cutoff: f64,
    /// In-family spread of the broad evidence channels.
    calibration: Calibration,
}

impl PopulationModel {
    /// Learn a model from an intake cohort of equal-length fingerprints.
    ///
    /// Deterministic: the same `boards` and `config` always produce a
    /// bitwise-identical model (fixed-order similarity matrix,
    /// tie-broken clustering, sorted per-segment order statistics).
    pub fn learn(boards: &[&[f64]], config: CohortConfig) -> Result<Self, CohortError> {
        let n = boards.len();
        if n < config.min_cohort {
            return Err(CohortError::CohortTooSmall {
                got: n,
                need: config.min_cohort,
            });
        }
        let segments = boards[0].len();
        if segments == 0 {
            return Err(CohortError::EmptyFingerprint);
        }
        for (b, board) in boards.iter().enumerate() {
            if board.len() != segments {
                return Err(CohortError::LengthMismatch {
                    expect: segments,
                    got: board.len(),
                    board: b,
                });
            }
            if board.iter().any(|x| !x.is_finite()) {
                return Err(CohortError::NonFinite { board: b });
            }
        }

        // Stage 1: separate the genuine population from outlier
        // clusters. The cutoff adapts to the cohort's own affinity
        // spread, so one config serves tight and loose designs alike.
        let sims = PairwiseSimilarity::of(boards);
        let affinities: Vec<f64> = (0..n).map(|i| sims.affinity(i)).collect();
        let med_aff = median(&affinities).expect("cohort non-empty");
        let mad_aff = median_abs_deviation(&affinities).expect("cohort non-empty");
        let cutoff =
            (med_aff - config.cluster_mad_k * MAD_TO_SIGMA * mad_aff).max(config.min_cutoff);
        let clusters = cluster_by_similarity(&sims, cutoff);
        let members = clusters[0].clone();
        if members.len() < config.min_cohort {
            return Err(CohortError::SplinteredCohort {
                largest: members.len(),
                need: config.min_cohort,
            });
        }
        let excluded: Vec<usize> = (0..n).filter(|i| !members.contains(i)).collect();

        // Stage 2: per-segment robust statistics over the genuine
        // cluster only, in fixed segment order.
        let mut medians = Vec::with_capacity(segments);
        let mut sigma_raw = Vec::with_capacity(segments);
        let mut centroid = Vec::with_capacity(segments);
        let mut column = Vec::with_capacity(members.len());
        // Column-major walk over a row-major cohort: `s` indexes into
        // every member row, which clippy's range-loop lint cannot see.
        #[allow(clippy::needless_range_loop)]
        for s in 0..segments {
            column.clear();
            column.extend(members.iter().map(|&i| boards[i][s]));
            medians.push(median(&column).expect("members non-empty"));
            sigma_raw
                .push(median_abs_deviation(&column).expect("members non-empty") * MAD_TO_SIGMA);
            centroid.push(trimmed_mean(&column, config.centroid_trim).expect("members non-empty"));
        }
        let floor =
            (config.sigma_floor_rel * median(&sigma_raw).expect("segments non-empty")).max(1e-12);
        let sigmas: Vec<f64> = sigma_raw.iter().map(|s| s.max(floor)).collect();
        let cm = divot_dsp::stats::mean(&centroid);
        for c in &mut centroid {
            *c -= cm;
        }

        // Stage 3: calibrate the broad evidence channels on the members
        // themselves — how similar, how level, how dispersed a board of
        // *this* design family typically is. Scoring reports deviations
        // in units of these spreads, so thresholds transfer across
        // designs.
        let mut model = Self {
            config,
            medians,
            sigmas,
            centroid,
            members,
            excluded,
            cutoff,
            calibration: Calibration {
                sim_center: 1.0,
                sim_spread: config.sim_spread_floor,
                level_center: 0.0,
                level_spread: config.level_spread_floor,
                disp_center: 0.0,
                disp_spread: config.disp_spread_floor,
            },
        };
        let mut member_sims = Vec::with_capacity(model.members.len());
        let mut member_levels = Vec::with_capacity(model.members.len());
        let mut member_disps = Vec::with_capacity(model.members.len());
        for &i in &model.members {
            let s = model.score(boards[i]);
            member_sims.push(s.similarity);
            member_levels.push(s.level);
            member_disps.push(s.mean_z);
        }
        let spread = |xs: &[f64], floor: f64| {
            (median_abs_deviation(xs).expect("members non-empty") * MAD_TO_SIGMA).max(floor)
        };
        model.calibration = Calibration {
            sim_center: median(&member_sims).expect("members non-empty"),
            sim_spread: spread(&member_sims, config.sim_spread_floor),
            level_center: median(&member_levels).expect("members non-empty"),
            level_spread: spread(&member_levels, config.level_spread_floor),
            disp_center: median(&member_disps).expect("members non-empty"),
            disp_spread: spread(&member_disps, config.disp_spread_floor),
        };
        Ok(model)
    }

    /// Score an unknown board against the population: per-segment robust
    /// z-scores plus three calibrated broad channels (similarity
    /// deficit, profile level, dispersion), reduced to a scalar
    /// genuineness score. Pure and fixed-order — bitwise reproducible
    /// wherever it runs.
    ///
    /// # Panics
    ///
    /// Panics if `x` has a different segment count than the model.
    pub fn score(&self, x: &[f64]) -> IntakeScore {
        assert_eq!(
            x.len(),
            self.medians.len(),
            "fingerprint length disagrees with the model"
        );
        let mut z = Vec::with_capacity(x.len());
        let mut max_z = 0.0f64;
        let mut worst_segment = 0usize;
        let mut sum_z = 0.0f64;
        let mut sum_signed_z = 0.0f64;
        let mut deviant_segments = 0usize;
        for (s, &v) in x.iter().enumerate() {
            let signed = (v - self.medians[s]) / self.sigmas[s];
            let zs = signed.abs();
            if zs > max_z {
                max_z = zs;
                worst_segment = s;
            }
            sum_z += zs;
            sum_signed_z += signed;
            if zs > self.config.deviant_z {
                deviant_segments += 1;
            }
            z.push(zs);
        }
        let mean_z = sum_z / x.len() as f64;
        let level = sum_signed_z / x.len() as f64;
        let xm = divot_dsp::stats::mean(x);
        let centered: Vec<f64> = x.iter().map(|v| v - xm).collect();
        let similarity = cosine(&centered, &self.centroid).max(0.0);

        // Broad channels in units of the cohort's own member spread.
        // Similarity and dispersion are one-sided (only losing
        // similarity or gaining spread is suspicious); level is
        // two-sided (a lot drifted either way is off-process).
        let cal = &self.calibration;
        let sim_deficit_z = ((cal.sim_center - similarity) / cal.sim_spread).max(0.0);
        let level_z = (level - cal.level_center).abs() / cal.level_spread;
        let disp_z = ((mean_z - cal.disp_center) / cal.disp_spread).max(0.0);
        let tamper_excess = (max_z - self.config.genuine_max_z).max(0.0);
        // The scalar score *sums* the channels rather than taking the
        // worst one: a counterfeit lot elevates similarity deficit,
        // level, and dispersion together, and accumulating that
        // evidence separates overlapping populations better than any
        // single channel (classification still thresholds channels
        // individually, so verdicts are unaffected by the aggregation).
        let score = -(sim_deficit_z + level_z + disp_z + tamper_excess);
        IntakeScore {
            similarity,
            max_z,
            mean_z,
            level,
            sim_deficit_z,
            level_z,
            disp_z,
            worst_segment,
            deviant_segments,
            score,
            z,
        }
    }

    /// [`score`](Self::score) plus classification into a typed verdict.
    pub fn attest(&self, x: &[f64]) -> (Verdict, IntakeScore) {
        let score = self.score(x);
        let verdict = Verdict::classify(&score, &self.config);
        (verdict, score)
    }

    /// The configuration the model was learned (and classifies) under.
    pub fn config(&self) -> &CohortConfig {
        &self.config
    }

    /// Number of segments per fingerprint.
    pub fn segments(&self) -> usize {
        self.medians.len()
    }

    /// Cohort indices the model was fitted on (the genuine cluster).
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Cohort indices excluded as outlier clusters.
    pub fn excluded(&self) -> &[usize] {
        &self.excluded
    }

    /// The adaptive similarity cutoff clustering used.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// The in-family channel spreads scoring normalizes by.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Per-segment robust location (median over the genuine cluster).
    pub fn medians(&self) -> &[f64] {
        &self.medians
    }

    /// Per-segment robust scale (floored MAD-derived σ).
    pub fn sigmas(&self) -> &[f64] {
        &self.sigmas
    }

    /// The mean-removed population centroid.
    pub fn centroid(&self) -> &[f64] {
        &self.centroid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic population: shared shape + per-board ripple + small
    /// per-sample noise, with deterministic pseudo-randomness.
    fn board(b: u64, segments: usize, shift: f64, ripple: f64) -> Vec<f64> {
        (0..segments)
            .map(|s| {
                let shared = (s as f64 * 0.35).sin() + 0.4 * (s as f64 * 0.11).cos();
                // Shader-hash noise: decorrelated across boards and
                // segments (a plain sin(b·k) aliases badly).
                let x = (b * 257 + s as u64 + 1) as f64;
                let per_board =
                    (2.0 * ((x * 12.9898).sin() * 43758.5453).fract().abs() - 1.0) * ripple;
                shared + shift + per_board
            })
            .collect()
    }

    fn cohort(n: usize) -> Vec<Vec<f64>> {
        (0..n as u64).map(|b| board(b, 64, 0.0, 0.05)).collect()
    }

    fn views(boards: &[Vec<f64>]) -> Vec<&[f64]> {
        boards.iter().map(|b| b.as_slice()).collect()
    }

    #[test]
    fn learn_is_bitwise_deterministic() {
        let boards = cohort(24);
        let a = PopulationModel::learn(&views(&boards), CohortConfig::default()).unwrap();
        let b = PopulationModel::learn(&views(&boards), CohortConfig::default()).unwrap();
        assert_eq!(a, b);
        for (x, y) in a.medians().iter().zip(b.medians()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn genuine_board_attests_genuine() {
        let boards = cohort(32);
        let model = PopulationModel::learn(&views(&boards), CohortConfig::default()).unwrap();
        assert_eq!(model.excluded(), &[] as &[usize]);
        let fresh = board(999, 64, 0.0, 0.05);
        let (verdict, score) = model.attest(&fresh);
        assert_eq!(verdict, Verdict::Genuine, "{score:?}");
        assert!(score.similarity > 0.9);
        assert!(score.max_z < model.config().genuine_max_z);
    }

    #[test]
    fn localized_deviation_is_tampered() {
        let boards = cohort(32);
        let model = PopulationModel::learn(&views(&boards), CohortConfig::default()).unwrap();
        let mut scarred = board(999, 64, 0.0, 0.05);
        scarred[40] += 2.0; // one segment far off the population
        let (verdict, score) = model.attest(&scarred);
        assert_eq!(verdict, Verdict::Tampered, "{score:?}");
        assert_eq!(score.worst_segment, 40);
        assert!(score.deviant_segments <= 3);
    }

    #[test]
    fn broad_deviation_is_counterfeit() {
        let boards = cohort(32);
        let model = PopulationModel::learn(&views(&boards), CohortConfig::default()).unwrap();
        // A different design shape entirely: broad z elevation + low
        // similarity.
        let foreign: Vec<f64> = (0..64)
            .map(|s| (s as f64 * 0.8 + 2.0).cos() * 1.2)
            .collect();
        let (verdict, score) = model.attest(&foreign);
        assert_eq!(verdict, Verdict::Counterfeit, "{score:?}");
        assert!(score.score < 0.8);
    }

    #[test]
    fn outlier_lot_is_excluded_from_the_model() {
        // 24 genuine boards + 4 boards of a foreign shape: the foreign
        // lot must not poison the per-segment statistics.
        let mut boards = cohort(24);
        for b in 0..4u64 {
            boards.push(
                (0..64)
                    .map(|s| (s as f64 * 0.8 + b as f64).cos() * 1.3)
                    .collect(),
            );
        }
        let model = PopulationModel::learn(&views(&boards), CohortConfig::default()).unwrap();
        assert_eq!(model.members().len(), 24);
        assert_eq!(model.excluded(), &[24, 25, 26, 27]);
        // And a genuine probe still scores genuine against the cleaned model.
        let (verdict, _) = model.attest(&board(500, 64, 0.0, 0.05));
        assert_eq!(verdict, Verdict::Genuine);
    }

    #[test]
    fn validation_errors() {
        let boards = cohort(4);
        assert_eq!(
            PopulationModel::learn(&views(&boards), CohortConfig::default()).unwrap_err(),
            CohortError::CohortTooSmall { got: 4, need: 8 }
        );
        let mut uneven = cohort(9);
        uneven[3].pop();
        assert_eq!(
            PopulationModel::learn(&views(&uneven), CohortConfig::default()).unwrap_err(),
            CohortError::LengthMismatch {
                expect: 64,
                got: 63,
                board: 3
            }
        );
        let mut poisoned = cohort(9);
        poisoned[5][0] = f64::NAN;
        assert_eq!(
            PopulationModel::learn(&views(&poisoned), CohortConfig::default()).unwrap_err(),
            CohortError::NonFinite { board: 5 }
        );
        let empties: Vec<Vec<f64>> = (0..9).map(|_| Vec::new()).collect();
        assert_eq!(
            PopulationModel::learn(&views(&empties), CohortConfig::default()).unwrap_err(),
            CohortError::EmptyFingerprint
        );
        assert!(format!("{}", CohortError::EmptyFingerprint).contains("empty"));
    }

    #[test]
    #[should_panic(expected = "fingerprint length disagrees")]
    fn score_rejects_wrong_length() {
        let boards = cohort(12);
        let model = PopulationModel::learn(&views(&boards), CohortConfig::default()).unwrap();
        let _ = model.score(&[1.0, 2.0]);
    }
}
