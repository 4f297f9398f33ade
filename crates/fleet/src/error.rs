//! Typed rejections of the fleet service.
//!
//! Every way a request can fail is a distinct, wire-encodable variant:
//! backpressure sheds ([`FleetError::Overloaded`]) are first-class
//! responses, not dropped connections, so a loaded verifier degrades into
//! explicit `try again` answers instead of unbounded queueing or latency
//! collapse.

use std::fmt;

/// Why an [`FleetError::Overloaded`] shed happened — the admission
/// stage that rejected the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The service's bounded admission queue (or the reactor's
    /// per-connection parking lot) was full at submission.
    QueueFull,
    /// The reactor's round-robin fair-share admission could not place
    /// the request before its patience window expired — the service
    /// stayed saturated by other connections' traffic.
    FairShare,
}

impl ShedReason {
    /// Stable wire byte of this reason.
    pub fn code(self) -> u8 {
        match self {
            Self::QueueFull => 0,
            Self::FairShare => 1,
        }
    }

    /// Decode a wire byte back into the reason.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Protocol`] on unknown bytes.
    pub fn from_code(code: u8) -> Result<Self, FleetError> {
        match code {
            0 => Ok(Self::QueueFull),
            1 => Ok(Self::FairShare),
            other => Err(FleetError::Protocol(format!("unknown shed reason {other}"))),
        }
    }
}

/// Why the fleet service rejected a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The admission queue is full: the request was shed at submission.
    /// Clients should back off and retry.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
        /// The configured queue capacity.
        capacity: usize,
        /// Which admission stage shed the request.
        reason: ShedReason,
    },
    /// The request's deadline expired before a worker picked it up.
    DeadlineExceeded,
    /// The named device is not part of the simulated fleet or (for
    /// verify/scan) has no enrolled pairing.
    UnknownDevice(String),
    /// Every acquisition attempt hit a transient fault; the retry budget
    /// is exhausted.
    AcquisitionFailed {
        /// How many attempts were made.
        attempts: u32,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// A wire frame could not be decoded.
    Protocol(String),
    /// A transport-level I/O failure (TCP client side).
    Io(String),
    /// An intake scan arrived before any [`crate::Request::CohortEnroll`]
    /// learned a population model.
    NoCohortModel,
    /// A cohort enrollment's fingerprints could not support a population
    /// model (cohort too small, splintered into sub-populations, …) —
    /// the wrapped reason is the cohort crate's diagnostic.
    CohortRejected(String),
}

impl FleetError {
    /// Stable wire code of this variant (frame tag byte).
    pub fn code(&self) -> u8 {
        match self {
            Self::Overloaded { .. } => 1,
            Self::DeadlineExceeded => 2,
            Self::UnknownDevice(_) => 3,
            Self::AcquisitionFailed { .. } => 4,
            Self::ShuttingDown => 5,
            Self::Protocol(_) => 6,
            Self::Io(_) => 7,
            Self::NoCohortModel => 8,
            Self::CohortRejected(_) => 9,
        }
    }

    /// Whether a client may transparently retry this error later
    /// (backpressure and transient-fault rejections).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Self::Overloaded { .. } | Self::AcquisitionFailed { .. } | Self::DeadlineExceeded
        )
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded {
                depth,
                capacity,
                reason,
            } => match reason {
                ShedReason::QueueFull => {
                    write!(f, "shed: admission queue full ({depth}/{capacity})")
                }
                ShedReason::FairShare => write!(
                    f,
                    "shed: fair-share admission window expired ({depth}/{capacity})"
                ),
            },
            Self::DeadlineExceeded => write!(f, "deadline expired before service"),
            Self::UnknownDevice(d) => write!(f, "unknown device `{d}`"),
            Self::AcquisitionFailed { attempts } => {
                write!(f, "acquisition failed after {attempts} attempts")
            }
            Self::ShuttingDown => write!(f, "service is shutting down"),
            Self::Protocol(msg) => write!(f, "protocol error: {msg}"),
            Self::Io(msg) => write!(f, "i/o error: {msg}"),
            Self::NoCohortModel => {
                write!(
                    f,
                    "no population model learned yet (run a cohort enroll first)"
                )
            }
            Self::CohortRejected(msg) => write!(f, "cohort rejected: {msg}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct() {
        let all = [
            FleetError::Overloaded {
                depth: 8,
                capacity: 8,
                reason: ShedReason::QueueFull,
            },
            FleetError::DeadlineExceeded,
            FleetError::UnknownDevice("x".into()),
            FleetError::AcquisitionFailed { attempts: 3 },
            FleetError::ShuttingDown,
            FleetError::Protocol("p".into()),
            FleetError::Io("io".into()),
            FleetError::NoCohortModel,
            FleetError::CohortRejected("splintered".into()),
        ];
        let mut codes: Vec<u8> = all.iter().map(FleetError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
    }

    #[test]
    fn retryable_classification() {
        assert!(FleetError::Overloaded {
            depth: 1,
            capacity: 1,
            reason: ShedReason::FairShare,
        }
        .is_retryable());
        assert!(FleetError::AcquisitionFailed { attempts: 3 }.is_retryable());
        assert!(FleetError::DeadlineExceeded.is_retryable());
        assert!(!FleetError::UnknownDevice("d".into()).is_retryable());
        assert!(!FleetError::ShuttingDown.is_retryable());
        assert!(!FleetError::NoCohortModel.is_retryable());
        assert!(!FleetError::CohortRejected("r".into()).is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e = FleetError::Overloaded {
            depth: 7,
            capacity: 8,
            reason: ShedReason::QueueFull,
        };
        assert!(format!("{e}").contains("7/8"));
        let fair = FleetError::Overloaded {
            depth: 7,
            capacity: 8,
            reason: ShedReason::FairShare,
        };
        assert!(format!("{fair}").contains("fair-share"));
        assert!(format!("{}", FleetError::UnknownDevice("bus-3".into())).contains("bus-3"));
    }

    #[test]
    fn shed_reasons_round_trip_their_codes() {
        for reason in [ShedReason::QueueFull, ShedReason::FairShare] {
            assert_eq!(ShedReason::from_code(reason.code()).unwrap(), reason);
        }
        assert!(matches!(
            ShedReason::from_code(99),
            Err(FleetError::Protocol(_))
        ));
    }
}
