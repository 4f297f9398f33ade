//! End-to-end fleet smoke over loopback TCP (the same workload the CI
//! fleet-smoke step runs): enroll 8 buses, fire 64 concurrent verifies
//! from independent TCP connections, and require zero sheds and an
//! all-accept outcome.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use divot_core::itdr::AcqMode;
use divot_fleet::{
    FleetConfig, FleetError, FleetService, FleetSimConfig, FleetTcpServer, PipelinedFleetClient,
    Request, Response, SimulatedFleet,
};

const SEED: u64 = 44;
const BUSES: usize = 8;

fn start_fleet() -> (FleetService, FleetTcpServer) {
    let svc = FleetService::start(
        FleetConfig::default().with_workers(4),
        SimulatedFleet::new(FleetSimConfig::fast(BUSES, SEED)),
    );
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind loopback");
    (svc, server)
}

#[test]
fn sixty_four_concurrent_tcp_verifies_all_accept_with_zero_sheds() {
    let (svc, server) = start_fleet();
    let addr = server.local_addr();

    // Enroll the whole fleet over the wire.
    let mut client = PipelinedFleetClient::connect(addr).expect("connect");
    for i in 0..BUSES {
        let resp = client
            .call(
                &Request::Enroll {
                    device: SimulatedFleet::device_name(i),
                    nonce: 1,
                },
                None,
            )
            .expect("enroll");
        assert!(matches!(resp, Response::Enrolled { .. }), "{resp:?}");
    }

    // 64 concurrent verifies, each on its own TCP connection.
    let sheds = AtomicUsize::new(0);
    let accepts = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for k in 0..64usize {
            let (sheds, accepts) = (&sheds, &accepts);
            scope.spawn(move || {
                let mut c = PipelinedFleetClient::connect(addr).expect("connect");
                let verify = Request::Verify {
                    device: SimulatedFleet::device_name(k % BUSES),
                    nonce: 1000 + k as u64,
                };
                match c.call(&verify, None) {
                    Ok(Response::Verdict { accepted, .. }) => {
                        if accepted {
                            accepts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(FleetError::Overloaded { .. }) => {
                        sheds.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            });
        }
    });
    assert_eq!(
        sheds.load(Ordering::Relaxed),
        0,
        "default queue must absorb 64"
    );
    assert_eq!(
        accepts.load(Ordering::Relaxed),
        64,
        "genuine fleet must all-accept"
    );

    // Registry snapshot sees every enrolled device.
    match client
        .call(&Request::RegistrySnapshot, None)
        .expect("snapshot")
    {
        Response::Snapshot { devices } => {
            assert_eq!(devices.len(), BUSES);
            let names: Vec<&str> = devices.iter().map(|(n, _)| n.as_str()).collect();
            assert!(names.contains(&"bus-000") && names.contains(&"bus-007"));
        }
        other => panic!("unexpected {other:?}"),
    }
    drop(server);
    drop(svc);
}

/// Sets the flag when dropped, so a failed assertion inside a
/// `thread::scope` still stops the scope's load threads instead of
/// leaving it waiting on them forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn tcp_errors_cross_the_wire_typed() {
    // Single worker so the queue can be held busy deterministically, and
    // the per-trial acquisition engine so every queued verify takes far
    // longer than the 1 ms deadline below, in any build profile.
    let svc = FleetService::start(
        FleetConfig::default().with_workers(1),
        SimulatedFleet::new(FleetSimConfig::fast(2, SEED).with_acq_mode(AcqMode::Trial)),
    );
    let in_proc = svc.client();
    let server = FleetTcpServer::spawn(svc.client(), "127.0.0.1:0").expect("bind loopback");
    let mut client = PipelinedFleetClient::connect(server.local_addr()).expect("connect");
    client
        .call(
            &Request::Enroll {
                device: "bus-000".into(),
                nonce: 1,
            },
            None,
        )
        .expect("enroll");

    // Unknown device comes back as the typed error, not a dead socket.
    let err = client
        .call(
            &Request::Verify {
                device: "bus-999".into(),
                nonce: 5,
            },
            None,
        )
        .expect_err("unknown device must fail");
    assert!(
        matches!(err, FleetError::UnknownDevice(ref d) if d == "bus-999"),
        "{err:?}"
    );

    // Hold the lone worker busy with a stream of in-process verifies,
    // then send a 1 ms deadline over the wire: it queues behind work
    // that takes longer than that, so it must come back
    // `DeadlineExceeded` — and the connection must stay usable.
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let _stop_load = StopOnDrop(&stop);
        for t in 0..2u64 {
            let (stop, in_proc) = (&stop, in_proc.clone());
            scope.spawn(move || {
                let mut nonce = 10_000 * (t + 1);
                while !stop.load(Ordering::Relaxed) {
                    let _ = in_proc.call(Request::Verify {
                        device: "bus-000".into(),
                        nonce,
                    });
                    nonce += 1;
                }
            });
        }
        // Wait until at least one request is actually queued (one in
        // service + one waiting) before submitting the doomed request.
        while in_proc.queue_depth() == 0 {
            std::thread::yield_now();
        }
        let err = client
            .call(
                &Request::Verify {
                    device: "bus-000".into(),
                    nonce: 6,
                },
                Some(Duration::from_millis(1)),
            )
            .expect_err("1 ms deadline behind queued work must miss");
        assert!(matches!(err, FleetError::DeadlineExceeded), "{err:?}");
    });

    match client
        .call(&Request::RegistrySnapshot, None)
        .expect("socket survives")
    {
        Response::Snapshot { devices } => assert_eq!(devices.len(), 1),
        other => panic!("unexpected {other:?}"),
    }
    drop(server);
    drop(svc);
}

#[test]
fn tiny_queue_sheds_under_burst_and_recovers() {
    // One slow-ish worker, a 2-slot queue, and a 64-request burst: the
    // service must refuse (typed) rather than buffer unboundedly, and
    // every non-shed answer must still be a correct verdict.
    let svc = FleetService::start(
        FleetConfig::default()
            .with_workers(1)
            .with_queue_capacity(2),
        SimulatedFleet::new(FleetSimConfig::fast(2, SEED)),
    );
    let client = svc.client();
    client
        .call(Request::Enroll {
            device: "bus-000".into(),
            nonce: 1,
        })
        .expect("enroll");

    let sheds = AtomicUsize::new(0);
    let served = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for k in 0..64u64 {
            let (sheds, served, client) = (&sheds, &served, client.clone());
            scope.spawn(move || {
                match client.call(Request::Verify {
                    device: "bus-000".into(),
                    nonce: 2000 + k,
                }) {
                    Ok(Response::Verdict { accepted, .. }) => {
                        assert!(accepted);
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(FleetError::Overloaded { capacity, .. }) => {
                        assert_eq!(capacity, 2);
                        sheds.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            });
        }
    });
    assert!(sheds.load(Ordering::Relaxed) > 0, "burst must shed");
    assert!(served.load(Ordering::Relaxed) > 0, "some must be served");

    // After the burst drains, the service accepts work again.
    match client
        .call(Request::Verify {
            device: "bus-000".into(),
            nonce: 9999,
        })
        .expect("recovered")
    {
        Response::Verdict { accepted, .. } => assert!(accepted),
        other => panic!("unexpected {other:?}"),
    }
}
