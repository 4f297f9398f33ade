//! The calibrate / monitor / react state machine (paper §III).
//!
//! A [`BusMonitor`] drives one iTDR end of a protected bus through the
//! paper's three operational phases:
//!
//! 1. **Calibration** — enroll the bus fingerprint into the local EPROM
//!    (manufacturing or installation time).
//! 2. **Monitoring** — continuously re-measure, authenticate against the
//!    stored fingerprint, and scan the error function for tampers.
//! 3. **Reaction** — on a mismatch, raise an alarm and *block* operations
//!    (gate the column access on the memory side; stall memory traffic on
//!    the CPU side) until the fingerprint matches again.

use crate::auth::{AuthPolicy, Authenticator};
use crate::channel::BusChannel;
use crate::exec::ExecPolicy;
use crate::fingerprint::Fingerprint;
use crate::itdr::Itdr;
use crate::tamper::{TamperDetector, TamperPolicy, TamperReport};
use divot_telemetry::Value;

/// Why the monitor is alarmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlarmKind {
    /// The measured fingerprint no longer matches (module swapped, wrong
    /// bus, replayed hardware).
    AuthenticationFailure,
    /// A localized error-function peak indicates probing/tampering.
    TamperDetected,
}

/// The monitor's operational state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorState {
    /// No fingerprint enrolled yet; all operations blocked.
    Uncalibrated,
    /// Normal operation: fingerprint matches.
    Monitoring,
    /// Attack response active: operations blocked.
    Alarm(AlarmKind),
}

/// Events emitted by the monitor.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorEvent {
    /// Calibration completed and the fingerprint is stored.
    Calibrated,
    /// An authentication check passed.
    AuthOk {
        /// The similarity score.
        similarity: f64,
    },
    /// An authentication check failed.
    AuthFail {
        /// The similarity score.
        similarity: f64,
    },
    /// The tamper scan crossed the threshold.
    Tamper(TamperReport),
    /// The monitor entered the alarm state.
    AlarmRaised(AlarmKind),
    /// The fingerprint matches again; normal operation resumed
    /// (the paper's CPU-side reaction: stall until the stored fingerprint
    /// matches anew).
    Recovered,
}

/// Monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Measurements averaged at enrollment.
    pub enroll_count: usize,
    /// Measurements averaged per runtime decision.
    pub average_count: usize,
    /// Authentication policy.
    pub auth: AuthPolicy,
    /// Tamper policy (its threshold is a floor; calibration raises the
    /// effective threshold above the measured clean noise floor).
    pub tamper: TamperPolicy,
    /// Safety margin between the clean noise floor and the effective
    /// tamper threshold set at calibration.
    pub tamper_margin: f64,
    /// Consecutive failed authentications before the alarm latches
    /// (absorbs single-measurement flukes).
    pub fails_to_alarm: u32,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            enroll_count: 16,
            average_count: 8,
            auth: AuthPolicy::default(),
            tamper: TamperPolicy::default(),
            tamper_margin: 4.0,
            fails_to_alarm: 2,
        }
    }
}

/// One end's runtime monitor.
#[derive(Debug, Clone)]
pub struct BusMonitor {
    itdr: Itdr,
    config: MonitorConfig,
    authenticator: Authenticator,
    detector: TamperDetector,
    fingerprint: Option<Fingerprint>,
    state: MonitorState,
    fail_streak: u32,
    tamper_streak: u32,
}

impl BusMonitor {
    /// Create a monitor around an instrument.
    pub fn new(itdr: Itdr, config: MonitorConfig) -> Self {
        Self {
            itdr,
            config,
            authenticator: Authenticator::new(config.auth),
            detector: TamperDetector::new(config.tamper),
            fingerprint: None,
            state: MonitorState::Uncalibrated,
            fail_streak: 0,
            tamper_streak: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> MonitorState {
        self.state
    }

    /// The stored fingerprint, if calibrated.
    pub fn fingerprint(&self) -> Option<&Fingerprint> {
        self.fingerprint.as_ref()
    }

    /// Whether data operations must be blocked right now (uncalibrated or
    /// alarmed) — the signal that gates column access in the §III design.
    pub fn is_blocking(&self) -> bool {
        !matches!(self.state, MonitorState::Monitoring)
    }

    /// Calibration phase: enroll the channel's fingerprint and calibrate
    /// the tamper threshold against a known-clean measurement's noise
    /// floor (the "proper threshold value" step of §IV-C).
    pub fn calibrate(&mut self, channel: &mut BusChannel) -> MonitorEvent {
        self.calibrate_with(channel, ExecPolicy::auto())
    }

    /// [`calibrate`](Self::calibrate) under an explicit execution policy
    /// (the hub passes [`ExecPolicy::Serial`] here when it already fans
    /// out across lanes).
    pub fn calibrate_with(&mut self, channel: &mut BusChannel, policy: ExecPolicy) -> MonitorEvent {
        let fp = self
            .itdr
            .enroll_with(channel, self.config.enroll_count, policy);
        let cleans: Vec<_> = (0..4)
            .map(|_| {
                self.itdr
                    .measure_averaged_with(channel, self.config.average_count, policy)
            })
            .collect();
        self.detector = TamperDetector::calibrated(
            self.config.tamper,
            fp.iip(),
            &cleans,
            self.config.tamper_margin,
        );
        self.fingerprint = Some(fp);
        self.state = MonitorState::Monitoring;
        self.fail_streak = 0;
        divot_telemetry::inc("monitor.calibrations");
        MonitorEvent::Calibrated
    }

    /// The effective tamper threshold in force (after calibration).
    pub fn tamper_threshold(&self) -> f64 {
        self.detector.policy().threshold
    }

    /// Restore a previously stored fingerprint (e.g. read back from the
    /// EPROM after power-up) and enter monitoring.
    pub fn restore(&mut self, fingerprint: Fingerprint) {
        self.fingerprint = Some(fingerprint);
        self.state = MonitorState::Monitoring;
        self.fail_streak = 0;
    }

    /// One monitoring cycle: measure (averaged), authenticate, tamper-scan,
    /// and update the reaction state. Returns the events of this cycle.
    ///
    /// # Panics
    ///
    /// Panics if called before calibration.
    pub fn poll(&mut self, channel: &mut BusChannel) -> Vec<MonitorEvent> {
        self.poll_with(channel, ExecPolicy::auto())
    }

    /// [`poll`](Self::poll) under an explicit execution policy (the hub
    /// passes [`ExecPolicy::Serial`] here when it already fans out across
    /// lanes).
    ///
    /// # Panics
    ///
    /// Panics if called before calibration.
    pub fn poll_with(&mut self, channel: &mut BusChannel, policy: ExecPolicy) -> Vec<MonitorEvent> {
        let fp = self
            .fingerprint
            .as_ref()
            .expect("poll requires a calibrated monitor");
        let measured = self
            .itdr
            .measure_averaged_with(channel, self.config.average_count, policy);
        let mut events = Vec::new();
        divot_telemetry::inc("monitor.polls");

        let decision = self.authenticator.verify(fp, &measured);
        let report = self.detector.scan(fp.iip(), &measured);
        let tampered = report.detected;
        if decision.is_accept() {
            events.push(MonitorEvent::AuthOk {
                similarity: decision.similarity(),
            });
        } else {
            events.push(MonitorEvent::AuthFail {
                similarity: decision.similarity(),
            });
        }
        if tampered {
            events.push(MonitorEvent::Tamper(report));
        }

        match self.state {
            MonitorState::Monitoring => {
                if !decision.is_accept() {
                    self.fail_streak += 1;
                } else {
                    self.fail_streak = 0;
                }
                if tampered {
                    self.tamper_streak += 1;
                } else {
                    self.tamper_streak = 0;
                }
                // A real tamper persists across consecutive scans at the
                // same physical spot; a measurement fluke does not.
                if self.tamper_streak >= self.config.fails_to_alarm && decision.is_accept() {
                    self.state = MonitorState::Alarm(AlarmKind::TamperDetected);
                    events.push(MonitorEvent::AlarmRaised(AlarmKind::TamperDetected));
                    Self::note_alarm("tamper", decision.similarity());
                } else if self.fail_streak >= self.config.fails_to_alarm {
                    self.state = MonitorState::Alarm(AlarmKind::AuthenticationFailure);
                    events.push(MonitorEvent::AlarmRaised(AlarmKind::AuthenticationFailure));
                    Self::note_alarm("auth_failure", decision.similarity());
                }
            }
            MonitorState::Alarm(_) => {
                if decision.is_accept() && !tampered {
                    self.state = MonitorState::Monitoring;
                    self.fail_streak = 0;
                    self.tamper_streak = 0;
                    events.push(MonitorEvent::Recovered);
                    divot_telemetry::inc("monitor.recoveries");
                    divot_telemetry::emit(
                        "monitor.recovered",
                        &[("similarity", Value::from(decision.similarity()))],
                    );
                }
            }
            MonitorState::Uncalibrated => unreachable!("checked above"),
        }
        events
    }

    /// Count an alarm latch under `monitor.alarms` and emit the
    /// `monitor.alarm` event (no-op without installed telemetry).
    fn note_alarm(kind: &str, similarity: f64) {
        divot_telemetry::inc("monitor.alarms");
        divot_telemetry::emit(
            "monitor.alarm",
            &[
                ("kind", Value::from(kind)),
                ("similarity", Value::from(similarity)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itdr::ItdrConfig;
    use divot_analog::frontend::FrontEndConfig;
    use divot_txline::attack::Attack;
    use divot_txline::board::{Board, BoardConfig};

    fn setup() -> (BusMonitor, BusChannel) {
        let board = Board::fabricate(&BoardConfig::small_test(), 41);
        let ch = BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 41);
        let monitor = BusMonitor::new(
            Itdr::new(ItdrConfig::fast()),
            MonitorConfig {
                enroll_count: 8,
                average_count: 4,
                ..MonitorConfig::default()
            },
        );
        (monitor, ch)
    }

    #[test]
    fn starts_blocking_until_calibrated() {
        let (mut monitor, mut ch) = setup();
        assert_eq!(monitor.state(), MonitorState::Uncalibrated);
        assert!(monitor.is_blocking());
        assert_eq!(monitor.calibrate(&mut ch), MonitorEvent::Calibrated);
        assert_eq!(monitor.state(), MonitorState::Monitoring);
        assert!(!monitor.is_blocking());
        assert!(monitor.fingerprint().is_some());
    }

    #[test]
    fn healthy_bus_stays_monitoring() {
        let (mut monitor, mut ch) = setup();
        monitor.calibrate(&mut ch);
        for _ in 0..3 {
            let events = monitor.poll(&mut ch);
            assert!(
                matches!(events[0], MonitorEvent::AuthOk { .. }),
                "{events:?}"
            );
            assert!(!monitor.is_blocking());
        }
    }

    #[test]
    fn wiretap_raises_alarm_and_blocks() {
        let (mut monitor, mut ch) = setup();
        monitor.calibrate(&mut ch);
        ch.apply_attack(&Attack::paper_wiretap());
        let mut alarmed = false;
        for _ in 0..4 {
            let events = monitor.poll(&mut ch);
            if events
                .iter()
                .any(|e| matches!(e, MonitorEvent::AlarmRaised(_)))
            {
                alarmed = true;
                break;
            }
        }
        assert!(alarmed, "wiretap must raise an alarm");
        assert!(monitor.is_blocking());
    }

    #[test]
    fn restore_skips_re_enrollment() {
        let (mut monitor, mut ch) = setup();
        monitor.calibrate(&mut ch);
        let fp = monitor.fingerprint().unwrap().clone();
        let (mut monitor2, _) = setup();
        monitor2.restore(fp);
        assert_eq!(monitor2.state(), MonitorState::Monitoring);
        let events = monitor2.poll(&mut ch);
        assert!(matches!(events[0], MonitorEvent::AuthOk { .. }));
    }

    #[test]
    fn recovers_when_attack_removed() {
        let (mut monitor, mut ch) = setup();
        monitor.calibrate(&mut ch);
        let clean_network = ch.network().clone();
        ch.apply_attack(&Attack::paper_wiretap());
        for _ in 0..4 {
            monitor.poll(&mut ch);
        }
        assert!(monitor.is_blocking());
        // Attacker unplugs the probe (no permanent scar in this scenario).
        ch.replace_network(clean_network);
        let mut recovered = false;
        for _ in 0..3 {
            let events = monitor.poll(&mut ch);
            if events.iter().any(|e| matches!(e, MonitorEvent::Recovered)) {
                recovered = true;
                break;
            }
        }
        assert!(recovered);
        assert!(!monitor.is_blocking());
    }

    #[test]
    #[should_panic(expected = "poll requires a calibrated monitor")]
    fn poll_before_calibration_panics() {
        let (mut monitor, mut ch) = setup();
        let _ = monitor.poll(&mut ch);
    }
}
