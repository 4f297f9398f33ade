//! Similarity-threshold authentication (paper §IV-C, Fig. 7).
//!
//! A runtime IIP measurement is compared against the enrolled fingerprint
//! with the normalized similarity `S_xy` (Eq. 4); scores above the policy
//! threshold accept. Two-way authentication runs the check independently on
//! both ends of the bus (§III). Multi-lane fusion averages per-lane scores,
//! implementing the paper's future-work claim that monitoring multiple
//! wires raises accuracy.

use crate::fingerprint::Fingerprint;
use divot_dsp::similarity::similarity;
use divot_dsp::waveform::Waveform;
use divot_telemetry::{Histogram, Value};

/// Record one decision in the process-wide telemetry (no-op when none
/// is installed): `auth.accepts` / `auth.rejects` counters, the
/// `auth.similarity` score histogram, and an `auth.decision` event.
/// Observe-only — the decision is already made when this runs.
fn note_decision(decision: &AuthDecision, lanes: usize) {
    if let Some(t) = divot_telemetry::global() {
        let r = t.registry();
        let accepted = decision.is_accept();
        let s = decision.similarity();
        r.counter(if accepted {
            "auth.accepts"
        } else {
            "auth.rejects"
        })
        .inc();
        r.histogram_with("auth.similarity", Histogram::unit_interval)
            .observe(s);
        t.emit(
            "auth.decision",
            &[
                ("accepted", Value::from(accepted)),
                ("similarity", Value::from(s)),
                ("lanes", Value::from(lanes)),
            ],
        );
    }
}

/// Acceptance policy for authentication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuthPolicy {
    /// Similarity threshold: accept when `S_xy >= threshold`.
    pub threshold: f64,
}

impl Default for AuthPolicy {
    fn default() -> Self {
        // The EER operating point of the prototype configuration (see the
        // fig7_authentication experiment): genuine scores concentrate near
        // 0.95–0.99 while the impostor distribution tops out around 0.93.
        Self { threshold: 0.93 }
    }
}

impl AuthPolicy {
    /// A policy with an explicit threshold.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is outside `[0, 1]`.
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "similarity threshold must be in [0,1], got {threshold}"
        );
        Self { threshold }
    }
}

/// The outcome of one authentication check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AuthDecision {
    /// The measured IIP matches the enrolled fingerprint.
    Accept {
        /// The similarity score.
        similarity: f64,
    },
    /// The measured IIP does not match.
    Reject {
        /// The similarity score.
        similarity: f64,
    },
}

impl AuthDecision {
    /// Whether the check accepted.
    pub fn is_accept(&self) -> bool {
        matches!(self, AuthDecision::Accept { .. })
    }

    /// The similarity score behind the decision.
    pub fn similarity(&self) -> f64 {
        match *self {
            AuthDecision::Accept { similarity } | AuthDecision::Reject { similarity } => similarity,
        }
    }
}

/// A similarity-threshold authenticator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Authenticator {
    policy: AuthPolicy,
}

impl Authenticator {
    /// Create an authenticator with the given policy.
    pub fn new(policy: AuthPolicy) -> Self {
        Self { policy }
    }

    /// The policy in force.
    pub fn policy(&self) -> &AuthPolicy {
        &self.policy
    }

    /// Score a measurement against a fingerprint without deciding.
    ///
    /// # Panics
    ///
    /// Panics if the waveform lengths differ (fingerprint and measurement
    /// must come from the same ETS schedule).
    pub fn score(&self, fingerprint: &Fingerprint, measured: &Waveform) -> f64 {
        similarity(fingerprint.iip(), measured)
    }

    /// One authentication check.
    pub fn verify(&self, fingerprint: &Fingerprint, measured: &Waveform) -> AuthDecision {
        let s = self.score(fingerprint, measured);
        let decision = if s >= self.policy.threshold {
            AuthDecision::Accept { similarity: s }
        } else {
            AuthDecision::Reject { similarity: s }
        };
        note_decision(&decision, 1);
        decision
    }

    /// Multi-lane fusion: average the per-lane similarities and decide on
    /// the fused score. With `k` independent lanes the genuine/impostor
    /// separation grows ~√k, which is the mechanism behind the paper's
    /// "monitoring multiple wires can exponentially increase accuracy".
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty.
    pub fn verify_fused(&self, lanes: &[(&Fingerprint, &Waveform)]) -> AuthDecision {
        assert!(!lanes.is_empty(), "fusion requires at least one lane");
        let s = lanes.iter().map(|(fp, wf)| self.score(fp, wf)).sum::<f64>() / lanes.len() as f64;
        let decision = if s >= self.policy.threshold {
            AuthDecision::Accept { similarity: s }
        } else {
            AuthDecision::Reject { similarity: s }
        };
        note_decision(&decision, lanes.len());
        decision
    }
}

/// Time-base compensation: recover similarity lost to a uniform
/// propagation-delay change (the Fig. 8 temperature mechanism).
///
/// Heating stretches every echo time by the same factor (`v ∝ 1/√Dk`), so
/// the measured IIP is the enrolled one on a rescaled time axis. This
/// searches scale factors within `±max_stretch` (golden-section over the
/// unimodal similarity curve) and returns the best-compensated score and
/// the estimated stretch — a cheap digital step a deployment can run when
/// a genuine-looking score sags, implementing the paper's "reduce the EER"
/// future-work direction without touching the analog side.
///
/// # Panics
///
/// Panics if `max_stretch` is not in `(0, 0.1]`.
pub fn compensated_score(
    fingerprint: &Fingerprint,
    measured: &Waveform,
    max_stretch: f64,
) -> (f64, f64) {
    assert!(
        max_stretch > 0.0 && max_stretch <= 0.1,
        "max_stretch must be in (0, 0.1], got {max_stretch}"
    );
    let reference = fingerprint.iip();
    let score_at = |stretch: f64| {
        let rescaled = Waveform::from_fn(measured.t0(), measured.dt(), measured.len(), |t| {
            measured.sample_at(t * (1.0 + stretch))
        });
        similarity(reference, &rescaled)
    };
    // Golden-section search on [-max_stretch, +max_stretch].
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let (mut lo, mut hi) = (-max_stretch, max_stretch);
    let mut x1 = hi - phi * (hi - lo);
    let mut x2 = lo + phi * (hi - lo);
    let (mut f1, mut f2) = (score_at(x1), score_at(x2));
    for _ in 0..40 {
        if f1 < f2 {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + phi * (hi - lo);
            f2 = score_at(x2);
        } else {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - phi * (hi - lo);
            f1 = score_at(x1);
        }
    }
    let best_stretch = 0.5 * (lo + hi);
    (score_at(best_stretch), best_stretch)
}

/// The §III two-way handshake: the CPU side authenticates the memory
/// module's bus view, and the memory side authenticates the CPU's. The bus
/// is trusted only when *both* directions accept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoWayOutcome {
    /// The CPU-side (master) decision.
    pub master: AuthDecision,
    /// The memory-side (slave) decision.
    pub slave: AuthDecision,
}

impl TwoWayOutcome {
    /// Whether both directions accepted.
    pub fn is_mutual(&self) -> bool {
        self.master.is_accept() && self.slave.is_accept()
    }
}

/// Run the two-way check given each side's fingerprint and measurement.
pub fn two_way_verify(
    auth: &Authenticator,
    master: (&Fingerprint, &Waveform),
    slave: (&Fingerprint, &Waveform),
) -> TwoWayOutcome {
    TwoWayOutcome {
        master: auth.verify(master.0, master.1),
        slave: auth.verify(slave.0, slave.1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(samples: &[f64]) -> Fingerprint {
        Fingerprint::new(Waveform::new(0.0, 1e-12, samples.to_vec()), 1)
    }

    fn wf(samples: &[f64]) -> Waveform {
        Waveform::new(0.0, 1e-12, samples.to_vec())
    }

    #[test]
    fn identical_waveforms_accept() {
        let auth = Authenticator::new(AuthPolicy::default());
        let f = fp(&[1.0, -2.0, 3.0, 0.5]);
        let m = wf(&[1.0, -2.0, 3.0, 0.5]);
        let d = auth.verify(&f, &m);
        assert!(d.is_accept());
        assert!((d.similarity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unrelated_waveforms_reject() {
        let auth = Authenticator::new(AuthPolicy::default());
        let f = fp(&[1.0, 0.0, -1.0, 0.0]);
        let m = wf(&[0.0, 1.0, 0.0, -1.0]);
        assert!(!auth.verify(&f, &m).is_accept());
    }

    #[test]
    fn threshold_boundary() {
        let f = fp(&[1.0, 2.0, 3.0, 4.0]);
        let m = wf(&[1.0, 2.0, 3.0, 4.0]);
        // Self-similarity is 1 (up to rounding): a near-1 threshold accepts,
        // and a threshold just above the score rejects.
        let s = Authenticator::new(AuthPolicy::default()).score(&f, &m);
        assert!(Authenticator::new(AuthPolicy::with_threshold(0.999_999))
            .verify(&f, &m)
            .is_accept());
        assert!(
            !Authenticator::new(AuthPolicy::with_threshold((s + 1e-9).min(1.0)))
                .verify(&f, &m)
                .is_accept()
        );
    }

    #[test]
    fn fused_score_is_mean() {
        let auth = Authenticator::new(AuthPolicy::with_threshold(0.49));
        let f1 = fp(&[1.0, 0.0, -1.0, 0.0]);
        let good = wf(&[1.0, 0.0, -1.0, 0.0]);
        let bad = wf(&[0.0, 1.0, 0.0, -1.0]);
        let d = auth.verify_fused(&[(&f1, &good), (&f1, &bad)]);
        assert!((d.similarity() - 0.5).abs() < 1e-9);
        assert!(d.is_accept());
    }

    #[test]
    fn two_way_requires_both() {
        let auth = Authenticator::new(AuthPolicy::with_threshold(0.9));
        let f = fp(&[1.0, 0.0, -1.0, 0.0]);
        let good = wf(&[1.0, 0.0, -1.0, 0.0]);
        let bad = wf(&[0.0, 1.0, 0.0, -1.0]);
        let ok = two_way_verify(&auth, (&f, &good), (&f, &good));
        assert!(ok.is_mutual());
        let half = two_way_verify(&auth, (&f, &good), (&f, &bad));
        assert!(!half.is_mutual());
        assert!(half.master.is_accept());
        assert!(!half.slave.is_accept());
    }

    #[test]
    fn compensation_recovers_stretched_waveforms() {
        // A waveform measured on a "hot" (0.5 % slower) line scores lower
        // raw, but compensation recovers it and estimates the stretch.
        let n = 256;
        let dt = 22.32e-12;
        let shape = |t: f64| 3e-3 * (t * 2.2e9).sin() + 1e-3 * (t * 6.1e9).cos();
        let reference = Waveform::from_fn(0.0, dt, n, shape);
        let fp = Fingerprint::new(reference, 8);
        let stretch_true = 0.005;
        let hot = Waveform::from_fn(0.0, dt, n, |t| shape(t / (1.0 + stretch_true)));

        let raw = similarity(fp.iip(), &hot);
        let (comp, est) = compensated_score(&fp, &hot, 0.02);
        assert!(comp > raw, "comp {comp} raw {raw}");
        assert!(comp > 0.99995, "comp {comp}");
        assert!(
            (est - stretch_true).abs() < 1e-3,
            "estimated stretch {est} vs {stretch_true}"
        );
    }

    #[test]
    fn compensation_is_noop_on_aligned_waveforms() {
        let reference = Waveform::from_fn(0.0, 1e-11, 128, |t| (t * 3e9).sin());
        let fp = Fingerprint::new(reference.clone(), 4);
        let (comp, est) = compensated_score(&fp, &reference, 0.02);
        assert!(comp > 0.9999);
        assert!(est.abs() < 2e-3, "est {est}");
    }

    #[test]
    fn end_to_end_temperature_compensation() {
        use divot_analog::frontend::FrontEndConfig;
        use divot_txline::board::{Board, BoardConfig};
        use divot_txline::env::{Environment, TemperatureProfile};
        use divot_txline::units::Celsius;

        let board = Board::fabricate(&BoardConfig::paper_prototype(), 62);
        let mut ch =
            crate::channel::BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 62);
        let itdr = crate::itdr::Itdr::new(crate::itdr::ItdrConfig::paper());
        let fp = itdr.enroll(&mut ch, 8);
        ch.set_environment(Environment {
            temperature: TemperatureProfile::Constant(Celsius(75.0)),
            ..Environment::room()
        });
        let hot = itdr.measure_averaged(&mut ch, 4);
        let raw = similarity(fp.iip(), &hot);
        let (comp, est) = compensated_score(&fp, &hot, 0.02);
        assert!(comp >= raw, "comp {comp} raw {raw}");
        // The line slowed down, so echoes arrive late: positive stretch of
        // roughly the velocity change (~0.8 % at 52 °C × 300 ppm/°C).
        assert!(est > 0.0, "est {est}");
    }

    #[test]
    #[should_panic(expected = "similarity threshold must be in [0,1]")]
    fn rejects_bad_threshold() {
        let _ = AuthPolicy::with_threshold(1.5);
    }

    #[test]
    #[should_panic(expected = "fusion requires at least one lane")]
    fn rejects_empty_fusion() {
        let auth = Authenticator::new(AuthPolicy::default());
        let _ = auth.verify_fused(&[]);
    }
}
