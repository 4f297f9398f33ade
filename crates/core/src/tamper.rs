//! Error-function tamper detection and localization (paper §IV-D–F,
//! Fig. 9).
//!
//! The error function `E_xy(n) = [x(n) − y(n)]²` between the enrolled
//! reference IIP and a fresh measurement reveals tampers as localized
//! peaks; the paper sets the detection threshold at `5×10⁻⁷` — chosen so
//! the faintest attack (a magnetic near-field probe) still clears it while
//! ambient measurement noise stays below. The round-trip time of the error
//! *onset* locates the tamper along the line.

use divot_dsp::similarity::{error_function, first_crossing, Peak};
use divot_dsp::waveform::Waveform;
use divot_txline::units::{round_trip_time_to_distance, Meters};

/// Tamper-detection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TamperPolicy {
    /// Error-function threshold floor (V²). The paper's value: `5×10⁻⁷`.
    /// A deployment raises the *effective* threshold above its own
    /// measured noise floor (see [`TamperDetector::calibrated`]).
    pub threshold: f64,
    /// Propagation velocity used to convert echo times to positions
    /// (m/s; ~15 cm/ns on PCB).
    pub velocity: f64,
    /// Moving-average half-width applied to the error function before
    /// thresholding. Tamper signatures are at least one rise-time wide
    /// (many ETS samples), while reconstruction noise is white — smoothing
    /// suppresses the noise floor without losing real peaks.
    pub smoothing_half_width: usize,
    /// Contrast requirement: a sample only counts as a tamper if it also
    /// exceeds `contrast × median(E)` of the same scan. Real tampers are
    /// *localized* peaks over an unchanged floor (the paper's "large peaks
    /// (contrast) in the error function"); a noise-level fluke lifts the
    /// whole scan and fails this test. Set to 0 to disable.
    pub contrast: f64,
    /// Gross-error override: errors above `gross_factor × threshold` are
    /// tampers regardless of contrast. An invasive tamper (a wire-tap)
    /// elevates the error *everywhere* after its onset — median-relative
    /// contrast would mask it, but its absolute level is unmistakable.
    pub gross_factor: f64,
}

impl Default for TamperPolicy {
    fn default() -> Self {
        Self {
            threshold: 5e-7,
            velocity: divot_txline::units::PCB_VELOCITY_M_PER_S,
            smoothing_half_width: 3,
            contrast: 6.0,
            gross_factor: 50.0,
        }
    }
}

/// Coarse classification of a detected tamper from its error signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperClass {
    /// Error concentrated at/after the termination echo with nothing
    /// upstream: the far-end load changed (Trojan chip / module swap /
    /// cold boot).
    LoadChange,
    /// Gross error (≫ threshold) with an onset inside the line: an
    /// invasive modification such as a soldered tap.
    InvasiveTap,
    /// Small above-threshold error localized inside the line: a
    /// non-contact probe or minor physical disturbance.
    LocalProbe,
}

/// Result of one tamper scan.
#[derive(Debug, Clone, PartialEq)]
pub struct TamperReport {
    /// Whether any error sample exceeded the threshold.
    pub detected: bool,
    /// The onset (first threshold crossing) of the discrepancy, if any.
    pub onset: Option<Peak>,
    /// The largest error peak, if any exceeded the threshold.
    pub peak: Option<Peak>,
    /// Estimated distance of the tamper from the instrumented end,
    /// derived from the onset's round-trip time.
    pub location: Option<Meters>,
    /// Maximum error value observed (even when below threshold — the
    /// noise-floor reading of Fig. 9's dotted traces).
    pub max_error: f64,
    /// The full error waveform (for plotting Fig. 9(c,f,i)-style traces).
    pub error: Waveform,
}

impl TamperReport {
    /// Classify a detected tamper from its signature. Returns `None` when
    /// nothing was detected. `line_round_trip` is the round-trip time of
    /// the protected line (onsets at ≳90 % of it are termination events).
    pub fn classify(&self, line_round_trip: f64, policy: &TamperPolicy) -> Option<TamperClass> {
        let onset = self.onset?;
        if onset.time >= 0.9 * line_round_trip {
            return Some(TamperClass::LoadChange);
        }
        let gross = policy.gross_factor.max(1.0) * policy.threshold;
        if self.max_error >= gross {
            Some(TamperClass::InvasiveTap)
        } else {
            Some(TamperClass::LocalProbe)
        }
    }
}

/// The tamper detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TamperDetector {
    policy: TamperPolicy,
}

impl TamperDetector {
    /// Create a detector with the given policy.
    pub fn new(policy: TamperPolicy) -> Self {
        Self { policy }
    }

    /// Create a detector whose threshold is calibrated against the clean
    /// noise floor: scan several *known-clean* measurements against the
    /// reference, and raise the policy's threshold to `margin` times the
    /// worst clean error peak if that exceeds the floor. This is the
    /// deployment step that sets the paper's "proper threshold value".
    /// Multiple clean samples matter: reconstruction noise is quantized
    /// and heavy-tailed, so a single scan badly underestimates the floor.
    ///
    /// # Panics
    ///
    /// Panics if `margin < 1` or `clean_samples` is empty.
    pub fn calibrated<'a>(
        policy: TamperPolicy,
        reference: &Waveform,
        clean_samples: impl IntoIterator<Item = &'a Waveform>,
        margin: f64,
    ) -> Self {
        assert!(margin >= 1.0, "margin must be at least 1, got {margin}");
        let mut detector = Self::new(policy);
        let mut clean_floor = f64::NAN;
        for sample in clean_samples {
            let e = detector.scan(reference, sample).max_error;
            clean_floor = if clean_floor.is_nan() {
                e
            } else {
                clean_floor.max(e)
            };
        }
        assert!(
            !clean_floor.is_nan(),
            "calibration requires at least one clean sample"
        );
        detector.policy.threshold = policy.threshold.max(margin * clean_floor);
        detector
    }

    /// The policy in force.
    pub fn policy(&self) -> &TamperPolicy {
        &self.policy
    }

    /// Scan a fresh measurement against the reference IIP.
    ///
    /// # Panics
    ///
    /// Panics if the waveforms have different lengths.
    pub fn scan(&self, reference: &Waveform, measured: &Waveform) -> TamperReport {
        let error = divot_dsp::filter::moving_average(
            &error_function(reference, measured),
            self.policy.smoothing_half_width,
        );
        // Effective threshold: the absolute (calibrated) threshold AND the
        // per-scan contrast criterion — but never above the gross-error
        // ceiling, so an everywhere-elevated (invasive) tamper cannot hide
        // behind its own lifted median.
        let mut threshold = self.policy.threshold;
        if self.policy.contrast > 0.0 {
            let median = divot_dsp::stats::median(error.samples()).unwrap_or(0.0);
            threshold = threshold.max(self.policy.contrast * median);
            if self.policy.gross_factor > 0.0 {
                threshold = threshold.min(self.policy.gross_factor * self.policy.threshold);
            }
        }
        let onset = first_crossing(&error, threshold);
        let peak = divot_dsp::similarity::dominant_peak(&error, threshold);
        let location = onset.map(|p| {
            round_trip_time_to_distance(divot_txline::units::Seconds(p.time), self.policy.velocity)
        });
        divot_telemetry::inc("tamper.scans");
        if let Some(loc) = location {
            divot_telemetry::inc("tamper.detections");
            divot_telemetry::emit(
                "tamper.detected",
                &[
                    ("location_m", divot_telemetry::Value::from(loc.0)),
                    (
                        "onset_s",
                        divot_telemetry::Value::from(onset.map_or(f64::NAN, |p| p.time)),
                    ),
                    ("max_error", divot_telemetry::Value::from(error.peak())),
                    ("threshold", divot_telemetry::Value::from(threshold)),
                ],
            );
        }
        TamperReport {
            detected: onset.is_some(),
            onset,
            peak,
            location,
            max_error: error.peak(),
            error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> TamperDetector {
        // Unit tests use point discrepancies, so disable smoothing for
        // exact arithmetic; smoothing has its own tests below.
        TamperDetector::new(TamperPolicy {
            smoothing_half_width: 0,
            ..TamperPolicy::default()
        })
    }

    #[test]
    fn clean_measurement_is_quiet() {
        let reference = Waveform::from_fn(0.0, 1e-11, 100, |t| 1e-3 * (t * 1e10).sin());
        // Residual noise well below threshold: ±0.1 mV² ⇒ E ~ 1e-8.
        let measured = Waveform::from_fn(0.0, 1e-11, 100, |t| {
            1e-3 * (t * 1e10).sin() + 1e-4 * (t * 7e10).cos()
        });
        let report = detector().scan(&reference, &measured);
        assert!(!report.detected);
        assert!(report.onset.is_none());
        assert!(report.location.is_none());
        assert!(report.max_error < 5e-7);
    }

    #[test]
    fn localized_discrepancy_is_detected_and_located() {
        let reference = Waveform::zeros(0.0, 1e-11, 400);
        let mut measured = Waveform::zeros(0.0, 1e-11, 400);
        // 2 mV discrepancy at sample 200 (t = 2 ns → d = 15 cm).
        for i in 198..=202 {
            measured.samples_mut()[i] = 2e-3;
        }
        let report = detector().scan(&reference, &measured);
        assert!(report.detected);
        let loc = report.location.unwrap();
        assert!((loc.0 - 0.1485).abs() < 0.01, "loc={loc}");
        assert!((report.max_error - 4e-6).abs() < 1e-9);
        assert_eq!(report.peak.unwrap().index, 198);
    }

    #[test]
    fn threshold_is_respected() {
        let reference = Waveform::zeros(0.0, 1e-11, 10);
        let mut just_below = Waveform::zeros(0.0, 1e-11, 10);
        just_below.samples_mut()[5] = (4.9e-7f64).sqrt();
        assert!(!detector().scan(&reference, &just_below).detected);
        let mut just_above = Waveform::zeros(0.0, 1e-11, 10);
        just_above.samples_mut()[5] = (5.1e-7f64).sqrt();
        assert!(detector().scan(&reference, &just_above).detected);
    }

    #[test]
    fn report_includes_full_error_waveform() {
        let reference = Waveform::zeros(0.0, 1e-11, 16);
        let measured = Waveform::from_fn(0.0, 1e-11, 16, |_| 1e-3);
        let report = detector().scan(&reference, &measured);
        assert_eq!(report.error.len(), 16);
        assert!((report.error[0] - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn smoothing_suppresses_white_noise_but_keeps_wide_peaks() {
        let mut rng = divot_dsp::rng::DivotRng::seed_from_u64(3);
        let reference = Waveform::zeros(0.0, 1e-11, 256);
        // Noise at ~0.4 mV RMS plus a genuine 12-sample 3 mV signature.
        let mut measured = Waveform::from_fn(0.0, 1e-11, 256, |_| rng.normal(0.0, 4e-4));
        for i in 120..132 {
            measured.samples_mut()[i] += 3e-3;
        }
        let smooth = TamperDetector::new(TamperPolicy::default());
        let raw = detector();
        let smooth_report = smooth.scan(&reference, &measured);
        let raw_report = raw.scan(&reference, &measured);
        // Smoothing keeps the wide signature detectable…
        assert!(smooth_report.detected);
        let peak = smooth_report.peak.unwrap();
        assert!((120..132).contains(&peak.index), "peak at {}", peak.index);
        // …while cutting the off-signature noise floor well below raw.
        let noise_region = smooth_report.error.window(0.0, 1e-9);
        let raw_noise = raw_report.error.window(0.0, 1e-9);
        assert!(noise_region.peak() < 0.4 * raw_noise.peak());
    }

    #[test]
    fn calibrated_threshold_rides_above_noise_floor() {
        let mut rng = divot_dsp::rng::DivotRng::seed_from_u64(4);
        let reference = Waveform::zeros(0.0, 1e-11, 256);
        let noisy = |rng: &mut divot_dsp::rng::DivotRng| {
            Waveform::from_fn(0.0, 1e-11, 256, |_| rng.normal(0.0, 1e-3))
        };
        let cleans: Vec<_> = (0..4).map(|_| noisy(&mut rng)).collect();
        let det = TamperDetector::calibrated(TamperPolicy::default(), &reference, &cleans, 4.0);
        // Effective threshold was raised above the paper floor…
        assert!(det.policy().threshold > 5e-7);
        // …and another clean sample of the same noise scale passes.
        let another = noisy(&mut rng);
        assert!(!det.scan(&reference, &another).detected);
    }

    #[test]
    fn classification_by_signature() {
        let policy = TamperPolicy {
            smoothing_half_width: 0,
            ..TamperPolicy::default()
        };
        let det = TamperDetector::new(policy);
        let round_trip = 3.33e-9;
        let reference = Waveform::zeros(0.0, 1e-11, 400);

        // Nothing detected → no class.
        let clean = det.scan(&reference, &reference);
        assert_eq!(clean.classify(round_trip, &policy), None);

        // Discrepancy at the termination (t ≈ 3.4 ns of 3.33 ns RT).
        let mut load = Waveform::zeros(0.0, 1e-11, 400);
        load.samples_mut()[340] = 5e-3;
        let r = det.scan(&reference, &load);
        assert_eq!(
            r.classify(round_trip, &policy),
            Some(TamperClass::LoadChange)
        );

        // Gross mid-line error → invasive tap.
        let mut tap = Waveform::zeros(0.0, 1e-11, 400);
        for s in &mut tap.samples_mut()[150..300] {
            *s = 20e-3; // E = 4e-4 ≫ 50×5e-7
        }
        let r = det.scan(&reference, &tap);
        assert_eq!(
            r.classify(round_trip, &policy),
            Some(TamperClass::InvasiveTap)
        );

        // Small localized mid-line error → probe.
        let mut probe = Waveform::zeros(0.0, 1e-11, 400);
        probe.samples_mut()[200] = 1.5e-3; // E = 2.25e-6, above 5e-7, below gross
        let r = det.scan(&reference, &probe);
        assert_eq!(
            r.classify(round_trip, &policy),
            Some(TamperClass::LocalProbe)
        );
    }

    #[test]
    fn classification_end_to_end_on_real_attacks() {
        use divot_analog::frontend::FrontEndConfig;
        use divot_txline::attack::Attack;
        use divot_txline::board::{Board, BoardConfig};

        let board = Board::fabricate(&BoardConfig::paper_prototype(), 61);
        let mut ch =
            crate::channel::BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 61);
        let itdr = crate::itdr::Itdr::new(crate::itdr::ItdrConfig::paper());
        let fp = itdr.enroll(&mut ch, 16);
        let cleans: Vec<_> = (0..4).map(|_| itdr.measure_averaged(&mut ch, 16)).collect();
        let det = TamperDetector::calibrated(TamperPolicy::default(), fp.iip(), &cleans, 4.0);
        let round_trip = 2.0 * board.line(0).one_way_delay().0;
        let clean_net = ch.network().clone();

        let cases = [
            (Attack::trojan_chip(5), TamperClass::LoadChange),
            (Attack::paper_wiretap(), TamperClass::InvasiveTap),
            (Attack::paper_magnetic_probe(), TamperClass::LocalProbe),
        ];
        for (attack, expect) in cases {
            ch.apply_attack(&attack);
            let m = itdr.measure_averaged(&mut ch, 16);
            let report = det.scan(fp.iip(), &m);
            assert_eq!(
                report.classify(round_trip, det.policy()),
                Some(expect),
                "attack {attack:?}"
            );
            ch.replace_network(clean_net.clone());
        }
    }

    #[test]
    fn onset_precedes_peak() {
        let reference = Waveform::zeros(0.0, 1e-11, 100);
        let mut measured = Waveform::zeros(0.0, 1e-11, 100);
        measured.samples_mut()[30] = 1e-3; // onset
        measured.samples_mut()[60] = 5e-3; // bigger later peak
        let report = detector().scan(&reference, &measured);
        assert_eq!(report.onset.unwrap().index, 30);
        assert_eq!(report.peak.unwrap().index, 60);
    }
}
