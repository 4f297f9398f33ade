//! Property pins for the incremental frame decoder and the wire codec —
//! the robustness half of the reactor contract: however the kernel
//! slices the byte stream, and whatever bytes a client throws at the
//! server, the decoder reassembles exactly what was sent, rejects
//! oversized lengths with a typed error, and never panics.

use std::time::Duration;

use divot_cohort::Verdict;
use divot_fleet::wire::{
    decode_event, decode_wire_request, encode_request_tagged, encode_scan_frame,
    encode_stats_frame, encode_stats_subscribe, encode_sub_ack, encode_sub_end, encode_subscribe,
    encode_tagged_response, encode_unsubscribe, FrameBuffer, MAX_FRAME, WIRE_VERSION,
};
use divot_fleet::{
    FleetError, FleetStats, IntakeReport, Request, Response, WireEvent, WireRequest,
};
use proptest::prelude::*;

/// Length-prefix a payload the way `write_frame` does.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Feed `wire` into a fresh `FrameBuffer` sliced at `cuts`, collecting
/// every decoded frame (and stopping at the first decode error).
fn decode_sliced(wire: &[u8], cuts: &[usize]) -> Result<Vec<Vec<u8>>, FleetError> {
    let mut buf = FrameBuffer::new();
    let mut frames = Vec::new();
    let mut fed = 0usize;
    let feed = |buf: &mut FrameBuffer, upto: usize, fed: &mut usize| {
        let upto = upto.min(wire.len()).max(*fed);
        buf.extend(&wire[*fed..upto]);
        *fed = upto;
    };
    let mut boundaries: Vec<usize> = cuts.to_vec();
    boundaries.push(wire.len());
    for upto in boundaries {
        feed(&mut buf, upto, &mut fed);
        while let Some(frame) = buf.next_frame()? {
            frames.push(frame);
        }
    }
    Ok(frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any frame sequence, split at arbitrary byte boundaries (including
    /// one-byte feeds and feeds straddling frame boundaries), decodes to
    /// exactly the payloads that were framed — same count, same bytes,
    /// same order.
    #[test]
    fn arbitrary_splits_reassemble_exactly(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..300),
            1..8,
        ),
        cuts in proptest::collection::vec(any::<usize>(), 0..24),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&framed(p));
        }
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
        cuts.sort_unstable();
        let frames = decode_sliced(&wire, &cuts).expect("well-formed stream");
        prop_assert_eq!(frames, payloads);
    }

    /// A length prefix beyond `MAX_FRAME` is rejected with the typed
    /// protocol error before any payload bytes arrive — the decoder
    /// never buffers toward an attacker-chosen length.
    #[test]
    fn oversized_lengths_are_rejected_eagerly(
        excess in 1u32..1024,
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut buf = FrameBuffer::new();
        let len = MAX_FRAME as u32 + excess;
        buf.extend(&len.to_le_bytes());
        buf.extend(&junk);
        let err = loop {
            match buf.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("oversized length must not wait for bytes"),
                Err(e) => break e,
            }
        };
        prop_assert!(matches!(err, FleetError::Protocol(_)), "{err:?}");
    }

    /// Arbitrary garbage — fed in arbitrary slices — never panics the
    /// decoder stack: framing either yields frames or a typed error, and
    /// whatever frames come out, request/event decoding returns a typed
    /// result too.
    #[test]
    fn garbage_never_panics_the_decoder(
        garbage in proptest::collection::vec(any::<u8>(), 0..2048),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (garbage.len() + 1)).collect();
        cuts.sort_unstable();
        if let Ok(frames) = decode_sliced(&garbage, &cuts) {
            for frame in frames {
                let _ = decode_wire_request(&frame);
                let _ = decode_event(&frame);
            }
        }
    }

    /// Any payload whose version byte is not [`WIRE_VERSION`] — the
    /// retired version 1 included — decodes to a typed protocol error
    /// naming the version, never a request and never a panic.
    #[test]
    fn foreign_versions_are_typed_protocol_errors(
        version in any::<u8>(),
        rest in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let version = if version == WIRE_VERSION { 1 } else { version };
        let mut payload = vec![version];
        payload.extend_from_slice(&rest);
        match decode_wire_request(&payload) {
            Err(FleetError::Protocol(msg)) => prop_assert!(
                msg.contains(&format!("unsupported wire version {version}")),
                "{msg}"
            ),
            other => panic!("version {version} must be a protocol error, got {other:?}"),
        }
    }

    /// Every request frame kind round-trips the codec bit-exactly.
    #[test]
    fn wire_requests_round_trip(
        id in any::<u64>(),
        device_seed in any::<u64>(),
        nonce in any::<u64>(),
        deadline_ms in 0u32..100_000,
        interval_ms in 1u32..60_000,
        max_frames in any::<u32>(),
        kind in 1usize..8,
        rows in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..4),
    ) {
        let device = format!("bus-{device_seed:016x}");
        // 0 doubles as "no explicit deadline".
        let deadline =
            (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
        // Kinds 4/5 exercise the stats tags, 6/7 the cohort tags; the
        // rest carry a Verify.
        let devices: Vec<(String, u64)> = rows
            .iter()
            .map(|(d, n)| (format!("bus-{d:016x}"), *n))
            .collect();
        let request = match kind {
            4 => Request::Stats,
            6 => Request::CohortEnroll { devices: devices.clone() },
            7 => Request::IntakeScan { devices: devices.clone() },
            _ => Request::Verify { device: device.clone(), nonce },
        };
        let (wire, expect) = match kind {
            1 => (
                encode_request_tagged(id, &request, deadline),
                WireRequest::Tagged { id, request: request.clone(), deadline },
            ),
            2 => (
                encode_subscribe(
                    id,
                    &device,
                    nonce,
                    Duration::from_millis(u64::from(interval_ms)),
                    max_frames,
                ),
                WireRequest::Subscribe {
                    id,
                    device: device.clone(),
                    base_nonce: nonce,
                    interval: Duration::from_millis(u64::from(interval_ms)),
                    max_frames,
                },
            ),
            3 => (
                encode_unsubscribe(id, nonce),
                WireRequest::Unsubscribe { id, target: nonce },
            ),
            4 => (
                encode_request_tagged(id, &request, deadline),
                WireRequest::Tagged { id, request: request.clone(), deadline },
            ),
            5 => (
                encode_stats_subscribe(
                    id,
                    Duration::from_millis(u64::from(interval_ms)),
                    max_frames,
                ),
                WireRequest::StatsSubscribe {
                    id,
                    interval: Duration::from_millis(u64::from(interval_ms)),
                    max_frames,
                },
            ),
            // 6/7: the cohort request tags, id-tagged like every
            // batch-friendly request.
            _ => (
                encode_request_tagged(id, &request, deadline),
                WireRequest::Tagged { id, request: request.clone(), deadline },
            ),
        };
        prop_assert_eq!(decode_wire_request(&wire).expect("decodes"), expect);
    }

    /// Server events round-trip the codec bit-exactly (including the
    /// f64 similarity bits inside a carried verdict).
    #[test]
    fn wire_events_round_trip(
        id in any::<u64>(),
        seq in any::<u64>(),
        device_seed in any::<u64>(),
        similarity in any::<f64>(),
        accepted in any::<bool>(),
        interval_ms in 1u32..60_000,
        kind in 0usize..7,
        depth in any::<u32>(),
        counter in any::<u64>(),
        gauge_bits in any::<u64>(),
        q_bits in proptest::collection::vec(any::<u64>(), 3),
    ) {
        let outcome: Result<Response, FleetError> = Ok(Response::Verdict {
            device: format!("bus-{device_seed:016x}"),
            accepted,
            similarity,
        });
        let (wire, expect) = match kind {
            0 => (
                encode_tagged_response(id, &outcome),
                WireEvent::Reply { id, outcome: Box::new(outcome.clone()) },
            ),
            1 => (
                encode_sub_ack(id, Duration::from_millis(u64::from(interval_ms))),
                WireEvent::SubAck {
                    id,
                    interval: Duration::from_millis(u64::from(interval_ms)),
                },
            ),
            2 => (
                encode_scan_frame(id, seq, &outcome),
                WireEvent::ScanFrame { id, seq, outcome: Box::new(outcome.clone()) },
            ),
            3 => (
                encode_sub_end(id, seq),
                WireEvent::SubEnd { id, frames: seq },
            ),
            5 => {
                // Cohort model summaries are all-integer, so plain
                // equality covers them.
                let outcome: Result<Response, FleetError> = Ok(Response::CohortModel {
                    cohort_size: depth,
                    excluded: depth.wrapping_add(interval_ms),
                    segments: interval_ms,
                });
                (
                    encode_tagged_response(id, &outcome),
                    WireEvent::Reply { id, outcome: Box::new(outcome.clone()) },
                )
            }
            6 => {
                // Intake reports carry three f64 evidence fields each;
                // arbitrary bit patterns (NaNs included) must survive
                // the wire, so compare by bits below.
                let report = |k: usize| IntakeReport {
                    device: format!("bus-{device_seed:016x}-{k}"),
                    verdict: Verdict::from_code((depth as u8).wrapping_add(k as u8) % 4)
                        .expect("codes 0..4 decode"),
                    score: f64::from_bits(q_bits[k % 3]),
                    similarity: f64::from_bits(q_bits[(k + 1) % 3]),
                    max_z: f64::from_bits(q_bits[(k + 2) % 3]),
                    deviant_segments: depth,
                    worst_segment: depth.wrapping_add(k as u32),
                };
                let outcome: Result<Response, FleetError> = Ok(Response::Intake {
                    reports: (0..(counter % 3) as usize).map(report).collect(),
                });
                let wire = encode_tagged_response(id, &outcome);
                let got = decode_event(&wire).expect("decodes");
                let WireEvent::Reply { id: gid, outcome: gout } = got else {
                    panic!("expected Reply, got {got:?}");
                };
                prop_assert_eq!(gid, id);
                let (Ok(Response::Intake { reports: sent }),
                     Ok(Response::Intake { reports: got })) = (&outcome, gout.as_ref())
                else {
                    panic!("expected Intake outcome");
                };
                prop_assert_eq!(got.len(), sent.len());
                for (g, s) in got.iter().zip(sent) {
                    prop_assert_eq!(&g.device, &s.device);
                    prop_assert_eq!(g.verdict, s.verdict);
                    prop_assert_eq!(g.score.to_bits(), s.score.to_bits());
                    prop_assert_eq!(g.similarity.to_bits(), s.similarity.to_bits());
                    prop_assert_eq!(g.max_z.to_bits(), s.max_z.to_bits());
                    prop_assert_eq!(g.deviant_segments, s.deviant_segments);
                    prop_assert_eq!(g.worst_segment, s.worst_segment);
                }
                return Ok(());
            }
            _ => {
                // Arbitrary f64 bit patterns (NaNs included) must
                // survive the stats codec; compared via PartialEq
                // below only when non-NaN, so pin the bits here too.
                let stats: Result<Response, FleetError> = Ok(Response::StatsSnapshot {
                    stats: FleetStats {
                        queue_depth: depth,
                        queue_capacity: depth.wrapping_add(1),
                        counters: vec![("fleet.test.counter".into(), counter)],
                        gauges: vec![("fleet.test.gauge".into(), f64::from_bits(gauge_bits))],
                        histograms: vec![(
                            "fleet.test.hist".into(),
                            counter,
                            f64::from_bits(q_bits[0]),
                            f64::from_bits(q_bits[1]),
                            f64::from_bits(q_bits[2]),
                        )],
                    },
                });
                let wire = encode_stats_frame(id, seq, &stats);
                let got = decode_event(&wire).expect("decodes");
                let WireEvent::StatsFrame { id: gid, seq: gseq, outcome: gout } = got else {
                    panic!("expected StatsFrame, got {got:?}");
                };
                prop_assert_eq!(gid, id);
                prop_assert_eq!(gseq, seq);
                let (Ok(Response::StatsSnapshot { stats: sent }),
                     Ok(Response::StatsSnapshot { stats: got })) = (&stats, gout.as_ref())
                else {
                    panic!("expected StatsSnapshot outcome");
                };
                prop_assert_eq!(got.queue_depth, sent.queue_depth);
                prop_assert_eq!(got.queue_capacity, sent.queue_capacity);
                prop_assert_eq!(&got.counters, &sent.counters);
                prop_assert_eq!(got.gauges.len(), sent.gauges.len());
                prop_assert_eq!(
                    got.gauges[0].1.to_bits(),
                    sent.gauges[0].1.to_bits()
                );
                prop_assert_eq!(got.histograms.len(), sent.histograms.len());
                let (ref gn, gc, g50, g90, g99) = got.histograms[0];
                let (ref sn, sc, s50, s90, s99) = sent.histograms[0];
                prop_assert_eq!(gn, sn);
                prop_assert_eq!(gc, sc);
                prop_assert_eq!(g50.to_bits(), s50.to_bits());
                prop_assert_eq!(g90.to_bits(), s90.to_bits());
                prop_assert_eq!(g99.to_bits(), s99.to_bits());
                return Ok(());
            }
        };
        let got = decode_event(&wire).expect("decodes");
        match (&got, &expect) {
            // Compare similarity by bits: NaN-carrying verdicts must
            // survive the wire too.
            (
                WireEvent::Reply { id: a, outcome: x },
                WireEvent::Reply { id: b, outcome: y },
            )
            | (
                WireEvent::ScanFrame { id: a, outcome: x, .. },
                WireEvent::ScanFrame { id: b, outcome: y, .. },
            ) => {
                prop_assert_eq!(a, b);
                match (x.as_ref(), y.as_ref()) {
                    (
                        Ok(Response::Verdict { similarity: sa, accepted: aa, device: da }),
                        Ok(Response::Verdict { similarity: sb, accepted: ab, device: db }),
                    ) => {
                        prop_assert_eq!(sa.to_bits(), sb.to_bits());
                        prop_assert_eq!(aa, ab);
                        prop_assert_eq!(da, db);
                    }
                    (
                        Ok(Response::CohortModel { .. }),
                        Ok(Response::CohortModel { .. }),
                    ) => prop_assert_eq!(x, y),
                    other => panic!("unexpected {other:?}"),
                }
            }
            _ => prop_assert_eq!(got, expect),
        }
    }
}
