//! Tracing must be observe-only: installing a tracer (even at sample
//! rate 1, tracing every request) cannot change a single bit of any
//! verdict. Two identically-seeded services run the same pipelined
//! verify burst — one before the process tracer exists, one after —
//! and their encoded outcomes must match bytewise.

use divot_fleet::wire::encode_response;
use divot_fleet::{
    FleetConfig, FleetService, FleetSimConfig, FleetTcpServer, PipelinedFleetClient, Request,
    SimulatedFleet, WireEvent,
};
use divot_telemetry::{install_tracer, tracer, EventSink, Tracer};

const SEED: u64 = 424242;
const DEVICES: usize = 3;
const NONCES: std::ops::Range<u64> = 100..130;

/// Run one enroll + pipelined-verify burst against a fresh service and
/// return every reply encoded, in id order.
fn run_burst() -> Vec<Vec<u8>> {
    let svc = FleetService::start(
        FleetConfig::default().with_workers(2),
        SimulatedFleet::new(FleetSimConfig::fast(DEVICES, SEED)),
    );
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind");
    let mut client = PipelinedFleetClient::connect(server.local_addr()).expect("connect");

    let devices: Vec<(String, u64)> = (0..DEVICES)
        .map(|i| (SimulatedFleet::device_name(i), 1))
        .collect();
    let enrolls: Vec<(Request, Option<std::time::Duration>)> = devices
        .iter()
        .map(|(device, nonce)| {
            (
                Request::Enroll {
                    device: device.clone(),
                    nonce: *nonce,
                },
                None,
            )
        })
        .collect();
    let ids = client.send_batch(&enrolls).expect("enroll");
    let mut outcomes = std::collections::BTreeMap::new();
    wait_for(&mut client, &ids, &mut outcomes);

    let verifies: Vec<(Request, Option<std::time::Duration>)> = NONCES
        .flat_map(|nonce| {
            devices.iter().map(move |(d, _)| {
                (
                    Request::Verify {
                        device: d.clone(),
                        nonce,
                    },
                    None,
                )
            })
        })
        .collect();
    let ids = client.send_batch(&verifies).expect("verify burst");
    wait_for(&mut client, &ids, &mut outcomes);
    drop(server);
    drop(svc);
    outcomes.into_values().collect()
}

fn wait_for(
    client: &mut PipelinedFleetClient,
    ids: &[u64],
    outcomes: &mut std::collections::BTreeMap<u64, Vec<u8>>,
) {
    let want: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
    let mut seen = 0usize;
    while seen < want.len() {
        if let WireEvent::Reply { id, outcome } = client.recv_event().expect("event") {
            if want.contains(&id) {
                outcomes.insert(id, encode_response(&outcome));
                seen += 1;
            }
        }
    }
}

#[test]
fn verdict_bits_are_identical_with_and_without_tracing() {
    let before = run_burst();

    // Install the process tracer at sample 1: every request traced,
    // the worst case for any accidental influence.
    let sink = EventSink::to_writer(Box::new(std::io::sink()));
    let _ = install_tracer(Tracer::with_sink(sink, 1));
    let t = tracer().expect("tracer installed");

    let after = run_burst();
    assert!(
        t.emitted() > 0,
        "tracer must actually emit spans during the traced burst"
    );
    assert_eq!(before.len(), after.len());
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        assert_eq!(b, a, "reply {i} diverged under tracing");
    }
}
