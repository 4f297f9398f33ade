//! Deterministic single-linkage agglomerative clustering over pairwise
//! similarities.
//!
//! Intake cohorts are mostly genuine with a minority of off-population
//! boards (a counterfeit lot from a drifted fab, gross assembly
//! defects). Counterfeits resemble *each other* more than they resemble
//! the genuine design, so a similarity graph splits them off cleanly:
//! merge the most-similar pair of clusters repeatedly until the best
//! remaining inter-cluster similarity falls below a cutoff, and the
//! surviving components are the population candidates.
//!
//! Single linkage makes that merge order equivalent to connected
//! components of the "similarity ≥ cutoff" graph, which this module
//! computes with a union-find over a deterministically ordered edge
//! list — ties broken by `(i, j)` index order — so the clustering is a
//! pure function of the similarity matrix.

use divot_dsp::similarity::cosine;

/// The upper-triangular pairwise similarity matrix of a cohort:
/// mean-removed cosine similarity (clamped at 0, the paper's `S_xy`
/// convention) between every pair of fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct PairwiseSimilarity {
    n: usize,
    /// Row-major upper triangle, `(i, j)` with `i < j`.
    upper: Vec<f64>,
}

impl PairwiseSimilarity {
    /// Compute the matrix for `boards` (equal-length fingerprints).
    ///
    /// # Panics
    ///
    /// Panics if fingerprints have mismatched lengths (validated by
    /// [`PopulationModel::learn`](crate::PopulationModel::learn) before
    /// it calls this).
    pub fn of(boards: &[&[f64]]) -> Self {
        let n = boards.len();
        // Mean-remove once per board, not once per pair.
        let centered: Vec<Vec<f64>> = boards
            .iter()
            .map(|b| {
                let m = divot_dsp::stats::mean(b);
                b.iter().map(|x| x - m).collect()
            })
            .collect();
        let mut upper = Vec::with_capacity(n.saturating_sub(1) * n / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                upper.push(cosine(&centered[i], &centered[j]).max(0.0));
            }
        }
        Self { n, upper }
    }

    /// Number of fingerprints.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the cohort is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Similarity of pair `(i, j)`; `get(i, i)` is 1.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "pair index out of range");
        if i == j {
            return 1.0;
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        // Offset of row `lo` in the packed upper triangle.
        let row_start = lo * self.n - lo * (lo + 1) / 2;
        self.upper[row_start + (hi - lo - 1)]
    }

    /// The median similarity of board `i` to every other board — its
    /// *affinity* to the cohort. Off-population boards have low affinity
    /// to everything, which is what the adaptive cluster cutoff keys on.
    pub fn affinity(&self, i: usize) -> f64 {
        let others: Vec<f64> = (0..self.n)
            .filter(|&j| j != i)
            .map(|j| self.get(i, j))
            .collect();
        divot_dsp::stats::median(&others).unwrap_or(1.0)
    }
}

/// Partition `sims.len()` boards into clusters by single-linkage
/// agglomerative merging, stopping when the best inter-cluster
/// similarity drops below `cutoff`.
///
/// Deterministic: edges are processed in `(similarity desc, i, j)`
/// order. The returned clusters are each sorted ascending and ordered
/// by `(size desc, smallest member asc)`, so the genuine-population
/// candidate is always `clusters[0]`.
pub fn cluster_by_similarity(sims: &PairwiseSimilarity, cutoff: f64) -> Vec<Vec<usize>> {
    let n = sims.len();
    if n == 0 {
        return Vec::new();
    }
    // Single linkage ≡ connected components at the cutoff; process the
    // qualifying edges in deterministic order through a union-find.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if sims.get(i, j) >= cutoff {
                edges.push((i, j));
            }
        }
    }
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (i, j) in edges {
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj {
            // Root at the smaller index: deterministic representatives.
            let (lo, hi) = if ri < rj { (ri, rj) } else { (rj, ri) };
            parent[hi] = lo;
        }
    }
    let mut by_root: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let r = find(&mut parent, i);
        by_root[r].push(i);
    }
    let mut clusters: Vec<Vec<usize>> = by_root.into_iter().filter(|c| !c.is_empty()).collect();
    clusters.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two synthetic populations: boards 0..8 share one shape, boards
    /// 8..11 another.
    fn two_populations() -> Vec<Vec<f64>> {
        (0..11)
            .map(|b| {
                (0..48)
                    .map(|s| {
                        let shape = if b < 8 {
                            (s as f64 * 0.4).sin()
                        } else {
                            (s as f64 * 0.4 + 1.8).cos() * 0.7
                        };
                        shape + ((b * 48 + s) as f64 * 1.3).sin() * 0.03
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pairwise_matrix_is_symmetric_with_unit_diagonal() {
        let boards = two_populations();
        let views: Vec<&[f64]> = boards.iter().map(|b| b.as_slice()).collect();
        let sims = PairwiseSimilarity::of(&views);
        assert_eq!(sims.len(), 11);
        for i in 0..11 {
            assert_eq!(sims.get(i, i), 1.0);
            for j in 0..11 {
                assert_eq!(sims.get(i, j).to_bits(), sims.get(j, i).to_bits());
                assert!((0.0..=1.0 + 1e-12).contains(&sims.get(i, j)));
            }
        }
    }

    #[test]
    fn splits_two_populations_and_orders_largest_first() {
        let boards = two_populations();
        let views: Vec<&[f64]> = boards.iter().map(|b| b.as_slice()).collect();
        let sims = PairwiseSimilarity::of(&views);
        let clusters = cluster_by_similarity(&sims, 0.8);
        assert_eq!(clusters.len(), 2, "{clusters:?}");
        assert_eq!(clusters[0], vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(clusters[1], vec![8, 9, 10]);
    }

    #[test]
    fn cutoff_extremes() {
        let boards = two_populations();
        let views: Vec<&[f64]> = boards.iter().map(|b| b.as_slice()).collect();
        let sims = PairwiseSimilarity::of(&views);
        // Cutoff 0 admits every edge (all sims clamp to ≥ 0): one cluster.
        assert_eq!(cluster_by_similarity(&sims, 0.0).len(), 1);
        // Impossible cutoff: every board is its own cluster.
        let singletons = cluster_by_similarity(&sims, 1.1);
        assert_eq!(singletons.len(), 11);
        assert!(singletons.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn clustering_is_deterministic() {
        let boards = two_populations();
        let views: Vec<&[f64]> = boards.iter().map(|b| b.as_slice()).collect();
        let sims = PairwiseSimilarity::of(&views);
        assert_eq!(
            cluster_by_similarity(&sims, 0.8),
            cluster_by_similarity(&sims, 0.8)
        );
        assert_eq!(sims, PairwiseSimilarity::of(&views));
    }

    #[test]
    fn affinity_is_low_for_outliers() {
        let boards = two_populations();
        let views: Vec<&[f64]> = boards.iter().map(|b| b.as_slice()).collect();
        let sims = PairwiseSimilarity::of(&views);
        // Majority-population boards are similar to most others; the
        // minority lot is dissimilar to the majority.
        assert!(sims.affinity(0) > sims.affinity(9));
    }

    #[test]
    fn empty_cohort_clusters_to_nothing() {
        let sims = PairwiseSimilarity::of(&[]);
        assert!(sims.is_empty());
        assert!(cluster_by_similarity(&sims, 0.5).is_empty());
    }
}
