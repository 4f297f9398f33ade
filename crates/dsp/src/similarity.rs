//! The paper's similarity and error functions (Eq. 4 and 5) plus peak
//! extraction for tamper localization.
//!
//! * **Similarity** `S_xy = Σ x(n)·y(n)` normalized to `[0, 1]` — we use the
//!   cosine (normalized inner product) of the mean-removed IIP waveforms,
//!   clamped at 0, which matches the paper's "normalized to have a value
//!   ranging from 0 to 1".
//! * **Error function** `E_xy(n) = [x(n) − y(n)]²` — a large value at index
//!   `n₀` indicates a tamper at the corresponding location (time/distance).

use crate::waveform::Waveform;

/// Normalized inner-product similarity of two equal-length sample slices.
///
/// Mean is *not* removed here; see [`similarity`] for the IIP-level entry
/// point. Returns 0 if either input has zero energy.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn cosine(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "similarity requires equal lengths");
    let mut dot = 0.0;
    let mut ex = 0.0;
    let mut ey = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        dot += a * b;
        ex += a * a;
        ey += b * b;
    }
    if ex == 0.0 || ey == 0.0 {
        return 0.0;
    }
    dot / (ex.sqrt() * ey.sqrt())
}

/// The paper's normalized similarity `S_xy ∈ [0, 1]` between two IIP
/// waveforms (Eq. 4): cosine of the mean-removed waveforms, clamped at 0.
///
/// Genuine (same Tx-line) pairs score near 1; impostor (different Tx-line)
/// pairs score substantially lower.
///
/// # Panics
///
/// Panics if the waveforms have different lengths.
pub fn similarity(x: &Waveform, y: &Waveform) -> f64 {
    let mut a = x.clone();
    let mut b = y.clone();
    a.remove_mean();
    b.remove_mean();
    cosine(a.samples(), b.samples()).max(0.0)
}

/// The paper's error function `E_xy(n) = [x(n) − y(n)]²` (Eq. 5) as a
/// waveform on `x`'s grid.
///
/// # Panics
///
/// Panics if the waveforms have different lengths.
pub fn error_function(x: &Waveform, y: &Waveform) -> Waveform {
    assert_eq!(x.len(), y.len(), "error function requires equal lengths");
    let samples = x
        .samples()
        .iter()
        .zip(y.samples())
        .map(|(&a, &b)| (a - b) * (a - b))
        .collect();
    Waveform::new(x.t0(), x.dt(), samples)
}

/// A local maximum of an error-function waveform that exceeds a threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Sample index of the peak.
    pub index: usize,
    /// Grid time of the peak (seconds).
    pub time: f64,
    /// Peak value.
    pub value: f64,
}

/// Find local maxima of `w` whose value exceeds `threshold`.
///
/// A sample is a local maximum if it is at least as large as both neighbors
/// (endpoints compare against their single neighbor). Adjacent
/// above-threshold samples are merged into the single largest sample of the
/// run, so one physical tamper yields one [`Peak`].
pub fn find_peaks(w: &Waveform, threshold: f64) -> Vec<Peak> {
    let s = w.samples();
    let mut peaks = Vec::new();
    let mut i = 0;
    while i < s.len() {
        if s[i] <= threshold {
            i += 1;
            continue;
        }
        // Walk the contiguous above-threshold run, keep its maximum.
        let mut best = i;
        let mut j = i;
        while j < s.len() && s[j] > threshold {
            if s[j] > s[best] {
                best = j;
            }
            j += 1;
        }
        peaks.push(Peak {
            index: best,
            time: w.time_at(best),
            value: s[best],
        });
        i = j;
    }
    peaks
}

/// The first sample exceeding `threshold` — the *onset* of a discrepancy.
///
/// This is the standard TDR localization estimator: reflections from a
/// tamper at distance `d` first appear at round-trip time `2d/v`, while the
/// error may stay elevated long afterwards (step-like differences), so the
/// onset — not the maximum — marks the physical location.
pub fn first_crossing(w: &Waveform, threshold: f64) -> Option<Peak> {
    w.samples()
        .iter()
        .position(|&v| v > threshold)
        .map(|index| Peak {
            index,
            time: w.time_at(index),
            value: w[index],
        })
}

/// The largest peak above `threshold`, if any.
pub fn dominant_peak(w: &Waveform, threshold: f64) -> Option<Peak> {
    find_peaks(w, threshold)
        .into_iter()
        .max_by(|a, b| a.value.partial_cmp(&b.value).expect("NaN peak value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf(samples: &[f64]) -> Waveform {
        Waveform::new(0.0, 1.0, samples.to_vec())
    }

    #[test]
    fn cosine_identical_is_one() {
        let x = [1.0, -2.0, 3.0];
        assert!((cosine(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn cosine_opposite_is_minus_one() {
        let x = [1.0, 2.0];
        let y = [-1.0, -2.0];
        assert!((cosine(&x, &y) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_energy_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn similarity_symmetric_and_clamped() {
        let x = wf(&[0.0, 1.0, 0.0, -1.0]);
        let y = wf(&[0.0, -1.0, 0.0, 1.0]);
        // Anti-correlated waveforms clamp to 0 rather than going negative.
        assert_eq!(similarity(&x, &y), 0.0);
        assert_eq!(similarity(&y, &x), similarity(&x, &y));
    }

    #[test]
    fn similarity_self_is_one() {
        let x = wf(&[0.3, -0.2, 0.8, 0.1]);
        assert!((similarity(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_ignores_dc_offset() {
        let x = wf(&[0.0, 1.0, 0.0, -1.0]);
        let y = wf(&[5.0, 6.0, 5.0, 4.0]); // same shape, large offset
        assert!((similarity(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn error_function_basics() {
        let x = wf(&[1.0, 2.0, 3.0]);
        let y = wf(&[1.0, 0.0, 6.0]);
        let e = error_function(&x, &y);
        assert_eq!(e.samples(), &[0.0, 4.0, 9.0]);
        assert_eq!(e.dt(), x.dt());
    }

    #[test]
    fn error_function_is_symmetric() {
        let x = wf(&[0.1, 0.9, -0.4]);
        let y = wf(&[-0.3, 0.2, 0.5]);
        assert_eq!(
            error_function(&x, &y).samples(),
            error_function(&y, &x).samples()
        );
    }

    #[test]
    fn find_peaks_merges_runs() {
        let w = wf(&[0.0, 0.5, 2.0, 3.0, 2.5, 0.0, 0.0, 4.0, 0.0]);
        let peaks = find_peaks(&w, 1.0);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].index, 3);
        assert_eq!(peaks[0].value, 3.0);
        assert_eq!(peaks[1].index, 7);
        assert_eq!(peaks[1].time, 7.0);
    }

    #[test]
    fn find_peaks_none_below_threshold() {
        let w = wf(&[0.1, 0.2, 0.1]);
        assert!(find_peaks(&w, 1.0).is_empty());
        assert!(dominant_peak(&w, 1.0).is_none());
    }

    #[test]
    fn dominant_peak_picks_largest() {
        let w = wf(&[0.0, 2.0, 0.0, 5.0, 0.0, 3.0]);
        let p = dominant_peak(&w, 1.0).unwrap();
        assert_eq!(p.index, 3);
        assert_eq!(p.value, 5.0);
    }

    #[test]
    fn first_crossing_finds_onset() {
        let w = wf(&[0.0, 0.1, 2.0, 5.0, 5.0, 5.0]);
        let p = first_crossing(&w, 1.0).unwrap();
        assert_eq!(p.index, 2);
        assert_eq!(p.value, 2.0);
        assert!(first_crossing(&w, 10.0).is_none());
    }

    #[test]
    fn peak_at_endpoints() {
        let w = wf(&[5.0, 0.0, 0.0, 6.0]);
        let peaks = find_peaks(&w, 1.0);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].index, 0);
        assert_eq!(peaks[1].index, 3);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn error_function_length_mismatch_panics() {
        let _ = error_function(&wf(&[1.0]), &wf(&[1.0, 2.0]));
    }
}
