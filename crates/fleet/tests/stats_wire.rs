//! Wire-exposed fleet stats: `Request::Stats` answered inline by the
//! reactor, and streaming stats subscriptions.
//!
//! The operator contract: a live server answers a stats probe with
//! per-kind latency quantiles for every request kind it has served,
//! quantiles are ordered (p50 <= p90 <= p99), and a bounded stats
//! subscription delivers ack, frames in sequence order, then the end
//! marker — all without entering the worker queue.
//!
//! This test binary installs the process-global telemetry default; the
//! registry is process-wide, so all stats assertions live in one #[test]
//! to keep the counters' provenance unambiguous.

use std::time::Duration;

use divot_fleet::{
    FleetConfig, FleetService, FleetSimConfig, FleetTcpServer, PipelinedFleetClient, Request,
    Response, SimulatedFleet, WireEvent,
};
use divot_telemetry::Telemetry;

const SEED: u64 = 77;

#[test]
fn stats_probe_and_subscription_over_the_wire() {
    // First-call-wins; a pre-installed default is equally fine.
    let _ = divot_telemetry::install(Telemetry::new());

    let svc = FleetService::start(
        FleetConfig::default().with_workers(2),
        SimulatedFleet::new(FleetSimConfig::fast(3, SEED)),
    );
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind");
    let mut client = PipelinedFleetClient::connect(server.local_addr()).expect("connect");

    // One blocking round trip that must succeed.
    fn roundtrip(client: &mut PipelinedFleetClient, request: &Request) -> Response {
        client.call(request, None).expect("request failed")
    }

    // Serve at least one request of each kind the acceptance criteria
    // name: verify, enroll, scan.
    let d0 = SimulatedFleet::device_name(0);
    let d1 = SimulatedFleet::device_name(1);
    for i in 0..3 {
        roundtrip(
            &mut client,
            &Request::Enroll {
                device: SimulatedFleet::device_name(i),
                nonce: 1,
            },
        );
    }
    for nonce in 10..14u64 {
        let r = roundtrip(
            &mut client,
            &Request::Verify {
                device: d0.clone(),
                nonce,
            },
        );
        assert!(matches!(r, Response::Verdict { .. }));
    }
    roundtrip(
        &mut client,
        &Request::MonitorScan {
            device: d1.clone(),
            nonce: 99,
        },
    );

    // The stats probe itself.
    let stats = client.request_stats(None).expect("stats");
    assert!(
        stats.queue_capacity > 0,
        "capacity must reflect the admission queue"
    );
    for kind in ["verify", "enroll", "scan"] {
        let name = format!("fleet.request.latency.{kind}");
        let (count, p50, p90, p99) = stats
            .histogram(&name)
            .unwrap_or_else(|| panic!("{name} missing from snapshot"));
        assert!(count > 0, "{name} served requests but reports count 0");
        assert!(
            p50 <= p90 && p90 <= p99,
            "{name} quantiles out of order: p50={p50} p90={p90} p99={p99}"
        );
    }
    assert!(
        stats.counter("fleet.verify.accepts").unwrap_or(0)
            + stats.counter("fleet.verify.rejects").unwrap_or(0)
            >= 4,
        "verify outcome counters must cover the burst"
    );
    // Queue timing flows into the snapshot too.
    let (wait_count, ..) = stats
        .histogram("fleet.queue.wait_ns")
        .expect("fleet.queue.wait_ns missing");
    assert!(wait_count > 0);

    // The probe is served inline on the reactor thread, not by a
    // worker: its latency histogram must not have grown. (try_cached
    // never fires for Stats, so any worker-side serving would count.)
    let before = stats
        .histogram("fleet.request.latency.stats")
        .map_or(0, |(c, ..)| c);
    let again = client.request_stats(None).expect("stats again");
    let after = again
        .histogram("fleet.request.latency.stats")
        .map_or(0, |(c, ..)| c);
    assert_eq!(
        before, after,
        "stats probes must bypass the worker pool (inline reactor path)"
    );
    assert!(
        again.counter("fleet.reactor.inline_stats").unwrap_or(0) >= 1,
        "inline stats counter must record the probe"
    );

    // Streaming stats: ack, frames in sequence order, end marker.
    let sub = client
        .subscribe_stats(Duration::from_millis(2), 3)
        .expect("subscribe");
    match client.recv_event().expect("ack") {
        WireEvent::SubAck { id, interval } => {
            assert_eq!(id, sub);
            assert_eq!(interval, Duration::from_millis(2));
        }
        other => panic!("expected ack, got {other:?}"),
    }
    for k in 0..3u64 {
        match client.recv_event().expect("frame") {
            WireEvent::StatsFrame { id, seq, outcome } => {
                assert_eq!(id, sub);
                assert_eq!(seq, k, "stats frames must arrive in sequence order");
                let Ok(Response::StatsSnapshot { stats }) = *outcome else {
                    panic!("expected a snapshot in frame {k}, got {outcome:?}");
                };
                assert!(stats.histogram("fleet.request.latency.verify").is_some());
            }
            other => panic!("expected stats frame {k}, got {other:?}"),
        }
    }
    match client.recv_event().expect("end") {
        WireEvent::SubEnd { id, frames } => {
            assert_eq!(id, sub);
            assert_eq!(frames, 3);
        }
        other => panic!("expected end, got {other:?}"),
    }

    // Unsubscribe path: an unbounded stats stream ends on request.
    let sub2 = client
        .subscribe_stats(Duration::from_millis(1), 0)
        .expect("subscribe unbounded");
    match client.recv_event().expect("ack") {
        WireEvent::SubAck { id, .. } => assert_eq!(id, sub2),
        other => panic!("expected ack, got {other:?}"),
    }
    let mut seen = 0u64;
    while seen < 2 {
        match client.recv_event().expect("frame") {
            WireEvent::StatsFrame { id, seq, .. } => {
                assert_eq!(id, sub2);
                assert_eq!(seq, seen);
                seen += 1;
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }
    client.unsubscribe(sub2).expect("unsubscribe");
    loop {
        match client.recv_event().expect("event") {
            WireEvent::StatsFrame { id, seq, .. } => {
                assert_eq!(id, sub2);
                assert_eq!(seq, seen);
                seen += 1;
            }
            WireEvent::SubEnd { id, frames } => {
                assert_eq!(id, sub2);
                assert!(frames >= 2);
                break;
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    drop(server);
    drop(svc);
}
