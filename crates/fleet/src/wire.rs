//! Length-prefixed binary wire protocol and the TCP transport.
//!
//! Framing: every message is `u32` little-endian payload length followed
//! by the payload; payloads are capped at [`MAX_FRAME`] so a corrupt
//! length cannot allocate unboundedly. Strings are `u16` length + UTF-8;
//! `f64`s travel as IEEE-754 bit patterns. No serialization dependency,
//! no allocation beyond the payload buffers.
//!
//! Every request payload starts with the version byte [`WIRE_VERSION`]
//! and a kind byte. A tagged request then carries a client-chosen id, a
//! deadline in milliseconds (`0` = server default), a request tag, and
//! tag-specific fields. Replies come back as [`ENVELOPE`]-marked events
//! carrying the id, in *completion* order, so many requests ride one
//! connection concurrently ([`PipelinedFleetClient`]). The reply body is
//! a status byte (`0` ok, else a [`FleetError::code`]) and the response
//! or error fields. Streaming `MonitorScan` and stats subscriptions push
//! frames on an interval until the frame budget runs out or the client
//! unsubscribes.
//!
//! A frame the server cannot frame or decode has no id to answer under:
//! it gets a bare status-byte error frame ([`WireEvent::Error`]).
//!
//! [`FleetTcpServer`] runs the poll-based reactor ([`crate::reactor`]),
//! a thin adapter over the same in-process [`FleetClient`] every local
//! caller uses, so the wire path exercises exactly the admission,
//! deadline, and retry machinery of [`crate::service`].

use crate::error::{FleetError, ShedReason};
use crate::service::{FleetClient, FleetStats, IntakeReport, Request, Response};
use divot_cohort::Verdict;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum frame payload accepted (1 MiB): snapshots of thousands of
/// devices fit with room to spare.
pub const MAX_FRAME: usize = 1 << 20;
/// The wire protocol version: requests carry a client-chosen id,
/// responses come back as enveloped events in completion order, and
/// connections may hold streaming subscriptions.
pub const WIRE_VERSION: u8 = 2;

const TAG_ENROLL: u8 = 1;
const TAG_VERIFY: u8 = 2;
const TAG_SCAN: u8 = 3;
const TAG_SNAPSHOT: u8 = 4;
const TAG_STATS: u8 = 6;
const TAG_COHORT_ENROLL: u8 = 7;
const TAG_INTAKE: u8 = 8;

const RESP_ENROLLED: u8 = 1;
const RESP_VERDICT: u8 = 2;
const RESP_SCAN: u8 = 3;
const RESP_SNAPSHOT: u8 = 4;
const RESP_STATS: u8 = 6;
const RESP_COHORT_MODEL: u8 = 7;
const RESP_INTAKE: u8 = 8;

/// Request kinds (byte after the version byte).
const KIND_TAGGED: u8 = 1;
const KIND_SUBSCRIBE: u8 = 2;
const KIND_UNSUBSCRIBE: u8 = 3;
const KIND_STATS_SUBSCRIBE: u8 = 4;

/// First byte of every enveloped server→client frame. A bare
/// connection-level error frame starts with its status byte (a small
/// [`FleetError::code`]) instead, so the two are self-distinguishing.
pub const ENVELOPE: u8 = 0xE2;

/// Event kinds (byte after the envelope marker).
const EV_REPLY: u8 = 1;
const EV_SUB_ACK: u8 = 2;
const EV_SCAN_FRAME: u8 = 3;
const EV_SUB_END: u8 = 4;
const EV_STATS_FRAME: u8 = 5;

/// Write one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over a payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FleetError> {
        if self.pos + n > self.bytes.len() {
            return Err(FleetError::Protocol("truncated payload".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FleetError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FleetError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, FleetError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, FleetError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, FleetError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, FleetError> {
        let n = self.u16()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_owned)
            .map_err(|_| FleetError::Protocol("string is not UTF-8".into()))
    }

    fn finish(&self) -> Result<(), FleetError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(FleetError::Protocol("trailing bytes in payload".into()))
        }
    }
}

/// Encode a service outcome (success or typed error): the body of every
/// reply event, and on its own a bare connection-level error frame.
pub fn encode_response(outcome: &Result<Response, FleetError>) -> Vec<u8> {
    let mut out = Vec::new();
    match outcome {
        Ok(response) => {
            out.push(0);
            match response {
                Response::Enrolled { device, shard } => {
                    out.push(RESP_ENROLLED);
                    put_str(&mut out, device);
                    out.extend_from_slice(&shard.to_le_bytes());
                }
                Response::Verdict {
                    device,
                    accepted,
                    similarity,
                } => {
                    out.push(RESP_VERDICT);
                    put_str(&mut out, device);
                    out.push(u8::from(*accepted));
                    out.extend_from_slice(&similarity.to_bits().to_le_bytes());
                }
                Response::Scan {
                    device,
                    detected,
                    max_error,
                    location_m,
                } => {
                    out.push(RESP_SCAN);
                    put_str(&mut out, device);
                    out.push(u8::from(*detected));
                    out.extend_from_slice(&max_error.to_bits().to_le_bytes());
                    match location_m {
                        Some(m) => {
                            out.push(1);
                            out.extend_from_slice(&m.to_bits().to_le_bytes());
                        }
                        None => out.push(0),
                    }
                }
                Response::Snapshot { devices } => {
                    out.push(RESP_SNAPSHOT);
                    out.extend_from_slice(&(devices.len() as u32).to_le_bytes());
                    for (name, shard) in devices {
                        put_str(&mut out, name);
                        out.extend_from_slice(&shard.to_le_bytes());
                    }
                }
                Response::CohortModel {
                    cohort_size,
                    excluded,
                    segments,
                } => {
                    out.push(RESP_COHORT_MODEL);
                    out.extend_from_slice(&cohort_size.to_le_bytes());
                    out.extend_from_slice(&excluded.to_le_bytes());
                    out.extend_from_slice(&segments.to_le_bytes());
                }
                Response::Intake { reports } => {
                    out.push(RESP_INTAKE);
                    out.extend_from_slice(&(reports.len() as u32).to_le_bytes());
                    for r in reports {
                        put_str(&mut out, &r.device);
                        out.push(r.verdict.code());
                        out.extend_from_slice(&r.score.to_bits().to_le_bytes());
                        out.extend_from_slice(&r.similarity.to_bits().to_le_bytes());
                        out.extend_from_slice(&r.max_z.to_bits().to_le_bytes());
                        out.extend_from_slice(&r.deviant_segments.to_le_bytes());
                        out.extend_from_slice(&r.worst_segment.to_le_bytes());
                    }
                }
                Response::StatsSnapshot { stats } => {
                    out.push(RESP_STATS);
                    out.extend_from_slice(&stats.queue_depth.to_le_bytes());
                    out.extend_from_slice(&stats.queue_capacity.to_le_bytes());
                    out.extend_from_slice(&(stats.counters.len() as u32).to_le_bytes());
                    for (name, v) in &stats.counters {
                        put_str(&mut out, name);
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    out.extend_from_slice(&(stats.gauges.len() as u32).to_le_bytes());
                    for (name, v) in &stats.gauges {
                        put_str(&mut out, name);
                        out.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                    out.extend_from_slice(&(stats.histograms.len() as u32).to_le_bytes());
                    for (name, count, p50, p90, p99) in &stats.histograms {
                        put_str(&mut out, name);
                        out.extend_from_slice(&count.to_le_bytes());
                        out.extend_from_slice(&p50.to_bits().to_le_bytes());
                        out.extend_from_slice(&p90.to_bits().to_le_bytes());
                        out.extend_from_slice(&p99.to_bits().to_le_bytes());
                    }
                }
            }
        }
        Err(err) => {
            out.push(err.code());
            match err {
                FleetError::Overloaded {
                    depth,
                    capacity,
                    reason,
                } => {
                    out.extend_from_slice(&(*depth as u32).to_le_bytes());
                    out.extend_from_slice(&(*capacity as u32).to_le_bytes());
                    out.push(reason.code());
                }
                FleetError::AcquisitionFailed { attempts } => {
                    out.extend_from_slice(&attempts.to_le_bytes());
                }
                FleetError::UnknownDevice(d) => put_str(&mut out, d),
                FleetError::Protocol(m) | FleetError::Io(m) | FleetError::CohortRejected(m) => {
                    put_str(&mut out, m)
                }
                FleetError::DeadlineExceeded
                | FleetError::ShuttingDown
                | FleetError::NoCohortModel => {}
            }
        }
    }
    out
}

/// Decode a response payload back into the service outcome.
///
/// # Errors
///
/// Returns [`FleetError::Protocol`] on malformed payloads (a decoded
/// *typed* service error comes back as `Ok(Err(...))`'s inner value —
/// i.e. the function returns `Err` with the decoded error, which is the
/// outcome the server reported).
fn decode_response(payload: &[u8]) -> Result<Response, FleetError> {
    let mut c = Cursor::new(payload);
    let status = c.u8()?;
    if status != 0 {
        let err = match status {
            1 => FleetError::Overloaded {
                depth: c.u32()? as usize,
                capacity: c.u32()? as usize,
                reason: ShedReason::from_code(c.u8()?)?,
            },
            2 => FleetError::DeadlineExceeded,
            3 => FleetError::UnknownDevice(c.string()?),
            4 => FleetError::AcquisitionFailed { attempts: c.u32()? },
            5 => FleetError::ShuttingDown,
            6 => FleetError::Protocol(c.string()?),
            7 => FleetError::Io(c.string()?),
            8 => FleetError::NoCohortModel,
            9 => FleetError::CohortRejected(c.string()?),
            other => FleetError::Protocol(format!("unknown error code {other}")),
        };
        c.finish()?;
        return Err(err);
    }
    let tag = c.u8()?;
    let response = match tag {
        RESP_ENROLLED => Response::Enrolled {
            device: c.string()?,
            shard: c.u32()?,
        },
        RESP_VERDICT => Response::Verdict {
            device: c.string()?,
            accepted: c.u8()? != 0,
            similarity: c.f64()?,
        },
        RESP_SCAN => Response::Scan {
            device: c.string()?,
            detected: c.u8()? != 0,
            max_error: c.f64()?,
            location_m: if c.u8()? != 0 { Some(c.f64()?) } else { None },
        },
        RESP_SNAPSHOT => {
            let n = c.u32()? as usize;
            let mut devices = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let name = c.string()?;
                devices.push((name, c.u32()?));
            }
            Response::Snapshot { devices }
        }
        RESP_COHORT_MODEL => Response::CohortModel {
            cohort_size: c.u32()?,
            excluded: c.u32()?,
            segments: c.u32()?,
        },
        RESP_INTAKE => {
            let n = c.u32()? as usize;
            let mut reports = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let device = c.string()?;
                let code = c.u8()?;
                let verdict = Verdict::from_code(code)
                    .ok_or_else(|| FleetError::Protocol(format!("unknown verdict code {code}")))?;
                reports.push(IntakeReport {
                    device,
                    verdict,
                    score: c.f64()?,
                    similarity: c.f64()?,
                    max_z: c.f64()?,
                    deviant_segments: c.u32()?,
                    worst_segment: c.u32()?,
                });
            }
            Response::Intake { reports }
        }
        RESP_STATS => {
            let mut stats = FleetStats {
                queue_depth: c.u32()?,
                queue_capacity: c.u32()?,
                ..FleetStats::default()
            };
            for _ in 0..c.u32()? {
                let name = c.string()?;
                stats.counters.push((name, c.u64()?));
            }
            for _ in 0..c.u32()? {
                let name = c.string()?;
                stats.gauges.push((name, c.f64()?));
            }
            for _ in 0..c.u32()? {
                let name = c.string()?;
                stats
                    .histograms
                    .push((name, c.u64()?, c.f64()?, c.f64()?, c.f64()?));
            }
            Response::StatsSnapshot { stats }
        }
        other => {
            return Err(FleetError::Protocol(format!(
                "unknown response tag {other}"
            )))
        }
    };
    c.finish()?;
    Ok(response)
}

/// Any request frame a server connection can receive.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// A pipelined request: answered with an enveloped reply carrying
    /// `id` back, in completion (not arrival) order.
    Tagged {
        /// Client-chosen correlation id.
        id: u64,
        /// The request.
        request: Request,
        /// Explicit deadline, `None` = server default.
        deadline: Option<Duration>,
    },
    /// Register a streaming MonitorScan subscription: the server pushes
    /// one scan frame per interval, each acquired under
    /// [`crate::sim::subscription_nonce`]`(base_nonce, seq)`.
    Subscribe {
        /// Client-chosen subscription id (scan frames carry it back).
        id: u64,
        /// Device to watch.
        device: String,
        /// Base nonce the per-frame nonces derive from.
        base_nonce: u64,
        /// Push interval.
        interval: Duration,
        /// Frames to push before the server ends the subscription
        /// (`0` = unbounded, until unsubscribe or disconnect).
        max_frames: u32,
    },
    /// Register a streaming stats subscription: the server pushes one
    /// [`WireEvent::StatsFrame`] per interval — the operator-dashboard
    /// feed. Cancelled by the same [`WireRequest::Unsubscribe`] as scan
    /// subscriptions (ids share one namespace per connection).
    StatsSubscribe {
        /// Client-chosen subscription id (stats frames carry it back).
        id: u64,
        /// Push interval.
        interval: Duration,
        /// Frames to push before the server ends the subscription
        /// (`0` = unbounded, until unsubscribe or disconnect).
        max_frames: u32,
    },
    /// Cancel a subscription by its id.
    Unsubscribe {
        /// Correlation id of this request (unused in the reply path —
        /// the end-of-stream event carries `target`).
        id: u64,
        /// The subscription id to cancel.
        target: u64,
    },
}

/// Encode a tagged request plus its deadline (`None` = server default).
pub fn encode_request_tagged(id: u64, request: &Request, deadline: Option<Duration>) -> Vec<u8> {
    let mut out = vec![WIRE_VERSION, KIND_TAGGED];
    out.extend_from_slice(&id.to_le_bytes());
    let ms = deadline.map_or(0, |d| d.as_millis().min(u128::from(u32::MAX)) as u32);
    out.extend_from_slice(&ms.to_le_bytes());
    put_request_body(&mut out, request);
    out
}

/// Encode a subscribe request.
pub fn encode_subscribe(
    id: u64,
    device: &str,
    base_nonce: u64,
    interval: Duration,
    max_frames: u32,
) -> Vec<u8> {
    let mut out = vec![WIRE_VERSION, KIND_SUBSCRIBE];
    out.extend_from_slice(&id.to_le_bytes());
    put_str(&mut out, device);
    out.extend_from_slice(&base_nonce.to_le_bytes());
    let ms = interval.as_millis().min(u128::from(u32::MAX)) as u32;
    out.extend_from_slice(&ms.to_le_bytes());
    out.extend_from_slice(&max_frames.to_le_bytes());
    out
}

/// Encode a stats-subscribe request.
pub fn encode_stats_subscribe(id: u64, interval: Duration, max_frames: u32) -> Vec<u8> {
    let mut out = vec![WIRE_VERSION, KIND_STATS_SUBSCRIBE];
    out.extend_from_slice(&id.to_le_bytes());
    let ms = interval.as_millis().min(u128::from(u32::MAX)) as u32;
    out.extend_from_slice(&ms.to_le_bytes());
    out.extend_from_slice(&max_frames.to_le_bytes());
    out
}

/// Encode an unsubscribe request.
pub fn encode_unsubscribe(id: u64, target: u64) -> Vec<u8> {
    let mut out = vec![WIRE_VERSION, KIND_UNSUBSCRIBE];
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&target.to_le_bytes());
    out
}

/// The tag + fields of a request.
fn put_request_body(out: &mut Vec<u8>, request: &Request) {
    match request {
        Request::Enroll { device, nonce } => {
            out.push(TAG_ENROLL);
            put_str(out, device);
            out.extend_from_slice(&nonce.to_le_bytes());
        }
        Request::Verify { device, nonce } => {
            out.push(TAG_VERIFY);
            put_str(out, device);
            out.extend_from_slice(&nonce.to_le_bytes());
        }
        Request::MonitorScan { device, nonce } => {
            out.push(TAG_SCAN);
            put_str(out, device);
            out.extend_from_slice(&nonce.to_le_bytes());
        }
        Request::RegistrySnapshot => out.push(TAG_SNAPSHOT),
        Request::CohortEnroll { devices } => put_batch_rows(out, TAG_COHORT_ENROLL, devices),
        Request::IntakeScan { devices } => put_batch_rows(out, TAG_INTAKE, devices),
        Request::Stats => out.push(TAG_STATS),
    }
}

/// The shared `(device, nonce)`-rows body of the batch request kinds.
fn put_batch_rows(out: &mut Vec<u8>, tag: u8, devices: &[(String, u64)]) {
    out.push(tag);
    out.extend_from_slice(&(devices.len() as u32).to_le_bytes());
    for (device, nonce) in devices {
        put_str(out, device);
        out.extend_from_slice(&nonce.to_le_bytes());
    }
}

/// Decode the `(device, nonce)` rows of a batch request body.
fn take_batch_rows(c: &mut Cursor<'_>) -> Result<Vec<(String, u64)>, FleetError> {
    let n = c.u32()? as usize;
    let mut devices = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let device = c.string()?;
        devices.push((device, c.u64()?));
    }
    Ok(devices)
}

fn take_request_body(c: &mut Cursor<'_>) -> Result<Request, FleetError> {
    let tag = c.u8()?;
    Ok(match tag {
        TAG_ENROLL => Request::Enroll {
            device: c.string()?,
            nonce: c.u64()?,
        },
        TAG_VERIFY => Request::Verify {
            device: c.string()?,
            nonce: c.u64()?,
        },
        TAG_SCAN => Request::MonitorScan {
            device: c.string()?,
            nonce: c.u64()?,
        },
        TAG_SNAPSHOT => Request::RegistrySnapshot,
        TAG_COHORT_ENROLL => Request::CohortEnroll {
            devices: take_batch_rows(c)?,
        },
        TAG_INTAKE => Request::IntakeScan {
            devices: take_batch_rows(c)?,
        },
        TAG_STATS => Request::Stats,
        other => return Err(FleetError::Protocol(format!("unknown request tag {other}"))),
    })
}

/// Decode any request frame.
///
/// # Errors
///
/// Returns [`FleetError::Protocol`] on unknown versions/kinds/tags,
/// truncation, or trailing bytes.
pub fn decode_wire_request(payload: &[u8]) -> Result<WireRequest, FleetError> {
    let mut c = Cursor::new(payload);
    let version = c.u8()?;
    if version != WIRE_VERSION {
        return Err(FleetError::Protocol(format!(
            "unsupported wire version {version}"
        )));
    }
    let kind = c.u8()?;
    let decoded = match kind {
        KIND_TAGGED => {
            let id = c.u64()?;
            let ms = c.u32()?;
            let deadline = (ms > 0).then(|| Duration::from_millis(u64::from(ms)));
            let request = take_request_body(&mut c)?;
            WireRequest::Tagged {
                id,
                request,
                deadline,
            }
        }
        KIND_SUBSCRIBE => WireRequest::Subscribe {
            id: c.u64()?,
            device: c.string()?,
            base_nonce: c.u64()?,
            interval: Duration::from_millis(u64::from(c.u32()?)),
            max_frames: c.u32()?,
        },
        KIND_UNSUBSCRIBE => WireRequest::Unsubscribe {
            id: c.u64()?,
            target: c.u64()?,
        },
        KIND_STATS_SUBSCRIBE => WireRequest::StatsSubscribe {
            id: c.u64()?,
            interval: Duration::from_millis(u64::from(c.u32()?)),
            max_frames: c.u32()?,
        },
        other => {
            return Err(FleetError::Protocol(format!(
                "unknown v2 request kind {other}"
            )))
        }
    };
    c.finish()?;
    Ok(decoded)
}

/// Any server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// A bare connection-level error: the server could not frame or
    /// decode a request, so there is no id to answer under.
    Error(FleetError),
    /// The enveloped answer to a [`WireRequest::Tagged`].
    Reply {
        /// The id the request carried.
        id: u64,
        /// The outcome, exactly as a blocking caller would see it.
        outcome: Box<Result<Response, FleetError>>,
    },
    /// The server accepted a subscription.
    SubAck {
        /// The subscription id.
        id: u64,
        /// The interval the server will push at.
        interval: Duration,
    },
    /// One pushed scan frame of a subscription.
    ScanFrame {
        /// The subscription id.
        id: u64,
        /// Frame sequence number (0-based).
        seq: u64,
        /// The scan outcome (bitwise what an explicit `MonitorScan`
        /// under the derived nonce returns).
        outcome: Box<Result<Response, FleetError>>,
    },
    /// One pushed stats frame of a stats subscription.
    StatsFrame {
        /// The subscription id.
        id: u64,
        /// Frame sequence number (0-based).
        seq: u64,
        /// The stats outcome (bitwise what an explicit
        /// [`Request::Stats`] at the push instant returns).
        outcome: Box<Result<Response, FleetError>>,
    },
    /// A subscription ended (frame budget exhausted, unsubscribe, or
    /// device error).
    SubEnd {
        /// The subscription id.
        id: u64,
        /// Total frames pushed over its lifetime.
        frames: u64,
    },
}

/// Encode the enveloped answer to a tagged request.
pub fn encode_tagged_response(id: u64, outcome: &Result<Response, FleetError>) -> Vec<u8> {
    let mut out = vec![ENVELOPE, EV_REPLY];
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&encode_response(outcome));
    out
}

/// Encode a subscription acknowledgement.
pub fn encode_sub_ack(id: u64, interval: Duration) -> Vec<u8> {
    let mut out = vec![ENVELOPE, EV_SUB_ACK];
    out.extend_from_slice(&id.to_le_bytes());
    let ms = interval.as_millis().min(u128::from(u32::MAX)) as u32;
    out.extend_from_slice(&ms.to_le_bytes());
    out
}

/// Encode one pushed scan frame.
pub fn encode_scan_frame(id: u64, seq: u64, outcome: &Result<Response, FleetError>) -> Vec<u8> {
    let mut out = vec![ENVELOPE, EV_SCAN_FRAME];
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&encode_response(outcome));
    out
}

/// Encode one pushed stats frame.
pub fn encode_stats_frame(id: u64, seq: u64, outcome: &Result<Response, FleetError>) -> Vec<u8> {
    let mut out = vec![ENVELOPE, EV_STATS_FRAME];
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&encode_response(outcome));
    out
}

/// Encode a subscription end-of-stream marker.
pub fn encode_sub_end(id: u64, frames: u64) -> Vec<u8> {
    let mut out = vec![ENVELOPE, EV_SUB_END];
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&frames.to_le_bytes());
    out
}

/// Decode any server→client frame (envelope or bare error).
///
/// # Errors
///
/// Returns [`FleetError::Protocol`] on malformed payloads, including a
/// bare frame with status `0` (only errors travel without an envelope).
/// A decoded *typed* service error is carried inside the event, not
/// returned as this function's `Err`.
pub fn decode_event(payload: &[u8]) -> Result<WireEvent, FleetError> {
    if payload.first() != Some(&ENVELOPE) {
        return match decode_response(payload) {
            Ok(response) => Err(FleetError::Protocol(format!(
                "bare response without an envelope: {response:?}"
            ))),
            Err(err) => Ok(WireEvent::Error(err)),
        };
    }
    let mut c = Cursor::new(payload);
    c.u8()?; // envelope marker
    let kind = c.u8()?;
    match kind {
        EV_REPLY => {
            let id = c.u64()?;
            let outcome = decode_outcome(&payload[c.pos..])?;
            Ok(WireEvent::Reply {
                id,
                outcome: Box::new(outcome),
            })
        }
        EV_SUB_ACK => {
            let id = c.u64()?;
            let interval = Duration::from_millis(u64::from(c.u32()?));
            c.finish()?;
            Ok(WireEvent::SubAck { id, interval })
        }
        EV_SCAN_FRAME => {
            let id = c.u64()?;
            let seq = c.u64()?;
            let outcome = decode_outcome(&payload[c.pos..])?;
            Ok(WireEvent::ScanFrame {
                id,
                seq,
                outcome: Box::new(outcome),
            })
        }
        EV_STATS_FRAME => {
            let id = c.u64()?;
            let seq = c.u64()?;
            let outcome = decode_outcome(&payload[c.pos..])?;
            Ok(WireEvent::StatsFrame {
                id,
                seq,
                outcome: Box::new(outcome),
            })
        }
        EV_SUB_END => {
            let id = c.u64()?;
            let frames = c.u64()?;
            c.finish()?;
            Ok(WireEvent::SubEnd { id, frames })
        }
        other => Err(FleetError::Protocol(format!("unknown event kind {other}"))),
    }
}

/// Decode a response tail, keeping malformed-payload errors (`Protocol`
/// from the decoder itself) distinguishable from decoded typed errors.
fn decode_outcome(tail: &[u8]) -> Result<Result<Response, FleetError>, FleetError> {
    match decode_response(tail) {
        Ok(r) => Ok(Ok(r)),
        // An encoded Protocol error and a local decode failure are the
        // same variant; treating both as the carried outcome is safe —
        // either way the caller sees a Protocol error for this event.
        Err(e) => Ok(Err(e)),
    }
}

/// An incremental frame decoder over a growing byte buffer: feed it
/// arbitrarily-chunked reads, pull complete frames out. The reactor
/// keeps one per connection; a frame may straddle any number of reads.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append freshly-read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pop the next complete frame payload, if one is fully buffered.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Protocol`] when the next length prefix
    /// exceeds [`MAX_FRAME`] — the stream is unrecoverable from here and
    /// the connection must be killed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FleetError> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(
            self.buf[self.start..self.start + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        if len > MAX_FRAME {
            return Err(FleetError::Protocol(format!(
                "frame of {len} bytes exceeds MAX_FRAME"
            )));
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let frame = self.buf[self.start + 4..self.start + 4 + len].to_vec();
        self.start += 4 + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(frame))
    }

    /// Reclaim consumed prefix space once it dominates the buffer.
    fn compact(&mut self) {
        if self.start > 0 && (self.start >= self.buf.len() || self.start > (64 << 10)) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// A TCP front end for a fleet service: accepts connections on a
/// loopback (or any) address and serves frames until dropped.
///
/// One poll-based reactor thread multiplexes every connection
/// (nonblocking sockets + readiness loop), with pipelining, same-device
/// verify coalescing, inline verdict-cache serving, fair-share
/// admission, and streaming subscriptions. See [`crate::reactor`].
pub struct FleetTcpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    /// Dropping the server notifies the loop through its poller.
    poller: Arc<divot_polling::Poller>,
}

impl std::fmt::Debug for FleetTcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetTcpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl FleetTcpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serve every connection from one poll-based reactor thread.
    ///
    /// # Errors
    ///
    /// Propagates bind/poller-creation failures.
    pub fn spawn(client: FleetClient, addr: &str) -> std::io::Result<Self> {
        Self::spawn_reactor(client, addr, crate::reactor::ReactorConfig::default())
    }

    /// [`spawn`](Self::spawn) with explicit reactor tuning.
    ///
    /// # Errors
    ///
    /// Propagates bind/poller-creation failures.
    pub fn spawn_reactor(
        client: FleetClient,
        addr: &str,
        config: crate::reactor::ReactorConfig,
    ) -> std::io::Result<Self> {
        let handle = crate::reactor::spawn(client, addr, config)?;
        Ok(Self {
            addr: handle.addr,
            shutdown: handle.shutdown,
            thread: Some(handle.thread),
            poller: handle.poller,
        })
    }

    /// The bound address (query the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for FleetTcpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.poller.notify();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// A blocking *pipelined* TCP client: many tagged requests in flight on
/// one connection, events received in completion order. Send and
/// receive halves share the socket but not a lock — interleave
/// [`send`](Self::send)/[`send_batch`](Self::send_batch) with
/// [`recv_event`](Self::recv_event) as the workload requires, or use
/// [`call`](Self::call) for one request at a time.
#[derive(Debug)]
pub struct PipelinedFleetClient {
    stream: TcpStream,
    frames: FrameBuffer,
    next_id: u64,
}

impl PipelinedFleetClient {
    /// Connect to a [`FleetTcpServer`].
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            frames: FrameBuffer::new(),
            next_id: 0,
        })
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Fire one tagged request without waiting; returns the id its
    /// reply will carry.
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`FleetError::Io`].
    pub fn send(
        &mut self,
        request: &Request,
        deadline: Option<Duration>,
    ) -> Result<u64, FleetError> {
        let id = self.fresh_id();
        write_frame(
            &mut self.stream,
            &encode_request_tagged(id, request, deadline),
        )?;
        Ok(id)
    }

    /// Fire a batch of tagged requests as one vectored write (a single
    /// syscall carries the whole pipeline window).
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`FleetError::Io`].
    pub fn send_batch(
        &mut self,
        requests: &[(Request, Option<Duration>)],
    ) -> Result<Vec<u64>, FleetError> {
        let mut ids = Vec::with_capacity(requests.len());
        let mut wire = Vec::new();
        for (request, deadline) in requests {
            let id = self.fresh_id();
            let payload = encode_request_tagged(id, request, *deadline);
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(&payload);
            ids.push(id);
        }
        self.stream.write_all(&wire)?;
        self.stream.flush()?;
        Ok(ids)
    }

    /// Register a streaming scan subscription; returns its id. The
    /// server answers with [`WireEvent::SubAck`], then pushes
    /// [`WireEvent::ScanFrame`]s.
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`FleetError::Io`].
    pub fn subscribe(
        &mut self,
        device: &str,
        base_nonce: u64,
        interval: Duration,
        max_frames: u32,
    ) -> Result<u64, FleetError> {
        let id = self.fresh_id();
        write_frame(
            &mut self.stream,
            &encode_subscribe(id, device, base_nonce, interval, max_frames),
        )?;
        Ok(id)
    }

    /// Register a streaming stats subscription; returns its id. The
    /// server answers with [`WireEvent::SubAck`], then pushes
    /// [`WireEvent::StatsFrame`]s.
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`FleetError::Io`].
    pub fn subscribe_stats(
        &mut self,
        interval: Duration,
        max_frames: u32,
    ) -> Result<u64, FleetError> {
        let id = self.fresh_id();
        write_frame(
            &mut self.stream,
            &encode_stats_subscribe(id, interval, max_frames),
        )?;
        Ok(id)
    }

    /// One blocking round trip: send `request` tagged, then drain events
    /// until its reply arrives. Events of other in-flight work are
    /// *discarded* — use on a connection with nothing else outstanding
    /// (a control or polling connection), not mid-pipeline.
    ///
    /// # Errors
    ///
    /// Typed service errors come back as received (a bare
    /// connection-level error frame included); transport failures
    /// surface as [`FleetError::Io`].
    pub fn call(
        &mut self,
        request: &Request,
        deadline: Option<Duration>,
    ) -> Result<Response, FleetError> {
        let id = self.send(request, deadline)?;
        loop {
            match self.recv_event()? {
                WireEvent::Reply { id: got, outcome } if got == id => return *outcome,
                WireEvent::Error(err) => return Err(err),
                _ => {}
            }
        }
    }

    /// One blocking stats round trip ([`call`](Self::call) with
    /// [`Request::Stats`]), returning the snapshot — the `fleet_top`
    /// polling pattern.
    ///
    /// # Errors
    ///
    /// Same as [`call`](Self::call); a non-stats reply body is a
    /// [`FleetError::Protocol`].
    pub fn request_stats(&mut self, deadline: Option<Duration>) -> Result<FleetStats, FleetError> {
        match self.call(&Request::Stats, deadline)? {
            Response::StatsSnapshot { stats } => Ok(stats),
            other => Err(FleetError::Protocol(format!(
                "stats request answered with {other:?}"
            ))),
        }
    }

    /// Cancel subscription `target`; the server answers with its
    /// [`WireEvent::SubEnd`].
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`FleetError::Io`].
    pub fn unsubscribe(&mut self, target: u64) -> Result<(), FleetError> {
        let id = self.fresh_id();
        write_frame(&mut self.stream, &encode_unsubscribe(id, target))?;
        Ok(())
    }

    /// Block until the next server event arrives (reply, scan frame, or
    /// subscription lifecycle marker).
    ///
    /// # Errors
    ///
    /// Transport failures surface as [`FleetError::Io`]; malformed
    /// frames as [`FleetError::Protocol`].
    pub fn recv_event(&mut self) -> Result<WireEvent, FleetError> {
        loop {
            if let Some(payload) = self.frames.next_frame()? {
                return decode_event(&payload);
            }
            let mut chunk = [0u8; 16 << 10];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(FleetError::Io("connection closed".into()));
            }
            self.frames.extend(&chunk[..n]);
        }
    }

    /// Apply a read timeout to [`recv_event`](Self::recv_event)
    /// (`None` = block forever). Timeouts surface as
    /// [`FleetError::Io`].
    ///
    /// # Errors
    ///
    /// Propagates the setsockopt failure.
    pub fn set_recv_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(request: Request, deadline: Option<Duration>) {
        let bytes = encode_request_tagged(3, &request, deadline);
        assert_eq!(
            decode_wire_request(&bytes).unwrap(),
            WireRequest::Tagged {
                id: 3,
                request,
                deadline,
            }
        );
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(
            Request::Enroll {
                device: "bus-000".into(),
                nonce: 7,
            },
            None,
        );
        round_trip_request(
            Request::Verify {
                device: "bus-012".into(),
                nonce: u64::MAX,
            },
            Some(Duration::from_millis(1500)),
        );
        round_trip_request(
            Request::MonitorScan {
                device: "ünïcode-bus".into(),
                nonce: 0,
            },
            Some(Duration::from_millis(1)),
        );
        round_trip_request(Request::RegistrySnapshot, None);
        round_trip_request(
            Request::CohortEnroll {
                devices: vec![("bus-000".into(), 1), ("bus-001".into(), 2)],
            },
            Some(Duration::from_millis(5000)),
        );
        round_trip_request(
            Request::IntakeScan {
                devices: vec![("intake-ünïcode".into(), u64::MAX)],
            },
            None,
        );
        round_trip_request(Request::IntakeScan { devices: vec![] }, None);
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Enrolled {
                device: "bus-000".into(),
                shard: 3,
            },
            Response::Verdict {
                device: "bus-001".into(),
                accepted: true,
                similarity: 0.987654321,
            },
            Response::Scan {
                device: "bus-002".into(),
                detected: true,
                max_error: 1.25e-3,
                location_m: Some(0.125),
            },
            Response::Scan {
                device: "bus-003".into(),
                detected: false,
                max_error: 1e-5,
                location_m: None,
            },
            Response::Snapshot {
                devices: vec![("bus-000".into(), 0), ("bus-001".into(), 5)],
            },
            Response::CohortModel {
                cohort_size: 256,
                excluded: 12,
                segments: 86,
            },
            Response::Intake {
                reports: vec![
                    IntakeReport {
                        device: "bus-000".into(),
                        verdict: Verdict::Genuine,
                        score: 0.993,
                        similarity: 0.993,
                        max_z: 2.5,
                        deviant_segments: 0,
                        worst_segment: 41,
                    },
                    IntakeReport {
                        device: "bus-001".into(),
                        verdict: Verdict::Tampered,
                        score: -0.75,
                        similarity: 0.91,
                        max_z: 44.0,
                        deviant_segments: 3,
                        worst_segment: 7,
                    },
                ],
            },
            Response::Intake { reports: vec![] },
        ];
        for response in cases {
            let bytes = encode_response(&Ok(response.clone()));
            assert_eq!(decode_response(&bytes).unwrap(), response);
        }
    }

    #[test]
    fn intake_verdict_codes_reject_unknown_bytes() {
        let report = IntakeReport {
            device: "bus-000".into(),
            verdict: Verdict::Counterfeit,
            score: 0.1,
            similarity: 0.2,
            max_z: 9.0,
            deviant_segments: 30,
            worst_segment: 2,
        };
        let mut bytes = encode_response(&Ok(Response::Intake {
            reports: vec![report],
        }));
        // Corrupt the verdict byte: it sits right after the status byte,
        // the response tag, the u32 count, and the length-prefixed name.
        let verdict_at = 1 + 1 + 4 + 2 + "bus-000".len();
        assert_eq!(bytes[verdict_at], Verdict::Counterfeit.code());
        bytes[verdict_at] = 250;
        assert!(matches!(
            decode_response(&bytes),
            Err(FleetError::Protocol(msg)) if msg.contains("verdict")
        ));
    }

    #[test]
    fn similarity_bits_survive_the_wire_exactly() {
        // The determinism tests compare verdicts bitwise across local
        // and TCP paths, so the f64 encoding must be exact — including
        // awkward values.
        for s in [0.1 + 0.2, f64::MIN_POSITIVE, 1.0 - f64::EPSILON] {
            let response = Response::Verdict {
                device: "b".into(),
                accepted: true,
                similarity: s,
            };
            match decode_response(&encode_response(&Ok(response))).unwrap() {
                Response::Verdict { similarity, .. } => {
                    assert_eq!(similarity.to_bits(), s.to_bits());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn errors_round_trip() {
        let cases = [
            FleetError::Overloaded {
                depth: 9,
                capacity: 8,
                reason: ShedReason::QueueFull,
            },
            FleetError::Overloaded {
                depth: 3,
                capacity: 8,
                reason: ShedReason::FairShare,
            },
            FleetError::DeadlineExceeded,
            FleetError::UnknownDevice("ghost".into()),
            FleetError::AcquisitionFailed { attempts: 5 },
            FleetError::ShuttingDown,
            FleetError::Protocol("bad tag".into()),
            FleetError::Io("broken pipe".into()),
            FleetError::NoCohortModel,
            FleetError::CohortRejected("cohort of 3 boards is too small".into()),
        ];
        for err in cases {
            let bytes = encode_response(&Err(err.clone()));
            assert_eq!(decode_response(&bytes).unwrap_err(), err);
        }
    }

    #[test]
    fn malformed_payloads_are_protocol_errors() {
        assert!(matches!(
            decode_wire_request(&[]),
            Err(FleetError::Protocol(_))
        ));
        // The retired version 1 is as foreign as any other byte.
        for version in [1, 99] {
            assert!(matches!(
                decode_wire_request(&[version, KIND_TAGGED, 0, 0, 0, 0, TAG_SNAPSHOT]),
                Err(FleetError::Protocol(msg)) if msg.contains("version")
            ));
        }
        // Unknown tag.
        let mut bytes = vec![WIRE_VERSION, KIND_TAGGED];
        bytes.extend_from_slice(&[0; 12]);
        bytes.push(200);
        assert!(matches!(
            decode_wire_request(&bytes),
            Err(FleetError::Protocol(msg)) if msg.contains("tag")
        ));
        // Trailing garbage.
        let mut bytes = encode_request_tagged(0, &Request::RegistrySnapshot, None);
        bytes.push(0);
        assert!(matches!(
            decode_wire_request(&bytes),
            Err(FleetError::Protocol(msg)) if msg.contains("trailing")
        ));
        // Truncations of a valid request all fail cleanly.
        let bytes = encode_request_tagged(
            1,
            &Request::Verify {
                device: "bus-000".into(),
                nonce: 1,
            },
            Some(Duration::from_millis(10)),
        );
        for cut in 0..bytes.len() {
            assert!(
                decode_wire_request(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn v2_requests_round_trip() {
        let verify = Request::Verify {
            device: "bus-007".into(),
            nonce: 1234,
        };
        let bytes = encode_request_tagged(99, &verify, Some(Duration::from_millis(250)));
        assert_eq!(
            decode_wire_request(&bytes).unwrap(),
            WireRequest::Tagged {
                id: 99,
                request: verify,
                deadline: Some(Duration::from_millis(250)),
            }
        );
        let bytes = encode_subscribe(5, "bus-001", 777, Duration::from_millis(20), 16);
        assert_eq!(
            decode_wire_request(&bytes).unwrap(),
            WireRequest::Subscribe {
                id: 5,
                device: "bus-001".into(),
                base_nonce: 777,
                interval: Duration::from_millis(20),
                max_frames: 16,
            }
        );
        let bytes = encode_unsubscribe(6, 5);
        assert_eq!(
            decode_wire_request(&bytes).unwrap(),
            WireRequest::Unsubscribe { id: 6, target: 5 }
        );
    }

    #[test]
    fn v2_events_round_trip() {
        let verdict = Ok(Response::Verdict {
            device: "bus-000".into(),
            accepted: true,
            similarity: 0.97,
        });
        match decode_event(&encode_tagged_response(42, &verdict)).unwrap() {
            WireEvent::Reply { id, outcome } => {
                assert_eq!(id, 42);
                assert_eq!(*outcome, verdict);
            }
            other => panic!("unexpected {other:?}"),
        }
        let scan = Ok(Response::Scan {
            device: "bus-001".into(),
            detected: false,
            max_error: 1e-4,
            location_m: None,
        });
        match decode_event(&encode_scan_frame(7, 3, &scan)).unwrap() {
            WireEvent::ScanFrame { id, seq, outcome } => {
                assert_eq!((id, seq), (7, 3));
                assert_eq!(*outcome, scan);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            decode_event(&encode_sub_ack(9, Duration::from_millis(15))).unwrap(),
            WireEvent::SubAck {
                id: 9,
                interval: Duration::from_millis(15),
            }
        );
        assert_eq!(
            decode_event(&encode_sub_end(9, 128)).unwrap(),
            WireEvent::SubEnd { id: 9, frames: 128 }
        );
        // A bare error frame decodes as a connection-level error; a
        // bare success (status 0) is not a valid server frame.
        let err = FleetError::Protocol("frame too long".into());
        assert_eq!(
            decode_event(&encode_response(&Err(err.clone()))).unwrap(),
            WireEvent::Error(err)
        );
        assert!(matches!(
            decode_event(&encode_response(&Ok(Response::Snapshot { devices: vec![] }))),
            Err(FleetError::Protocol(msg)) if msg.contains("envelope")
        ));
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let mut wire = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..5)
            .map(|i| {
                encode_request_tagged(
                    i,
                    &Request::Verify {
                        device: format!("bus-{i:03}"),
                        nonce: i,
                    },
                    None,
                )
            })
            .collect();
        for p in &payloads {
            wire.extend_from_slice(&(p.len() as u32).to_le_bytes());
            wire.extend_from_slice(p);
        }
        // Feed one byte at a time: every frame must come out intact.
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for b in &wire {
            fb.extend(std::slice::from_ref(b));
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, payloads);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn frame_buffer_rejects_oversized_lengths() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(FleetError::Protocol(_))));
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut fb = FrameBuffer::new();
        fb.extend(&buf);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"hello");

        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(write_frame(&mut Vec::new(), &huge).is_err());
    }
}
