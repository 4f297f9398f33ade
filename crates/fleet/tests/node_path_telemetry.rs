//! Warm analytic requests build no channel: they read the device's
//! detector nodes directly, so the per-channel response cache is never
//! consulted, while the instrument still measures every request.
//!
//! This test owns the process-wide telemetry (own integration-test
//! binary, so no other test's counters bleed in) and asserts on counter
//! deltas. A Trial-mode fleet, which still serves through pre-seeded
//! channels, shows the same counter moving, so the analytic pin is not
//! vacuous.

use divot_core::itdr::AcqMode;
use divot_fleet::{FleetConfig, FleetService, FleetSimConfig, Request, Response, SimulatedFleet};

fn counter(name: &str) -> u64 {
    divot_telemetry::global()
        .expect("telemetry installed by the test")
        .registry()
        .counter(name)
        .get()
}

#[test]
fn warm_analytic_requests_build_no_channel() {
    divot_telemetry::install(divot_telemetry::Telemetry::new())
        .expect("first telemetry install in this process");
    let sim = FleetSimConfig::fast(2, 42);
    let (verify_average, enroll_count) = (sim.verify_average as u64, sim.enroll_count as u64);
    let svc = FleetService::start(
        FleetConfig::default().with_workers(2),
        SimulatedFleet::new(sim),
    );
    let client = svc.client();
    // Enrollment warms the device: fabrication and one engine run, on a
    // probe channel whose response cache is what txline.cache counts.
    client
        .call(Request::Enroll {
            device: "bus-000".into(),
            nonce: 1,
        })
        .unwrap();
    assert!(
        counter("txline.cache.engine_runs") > 0,
        "warm-up runs the engine"
    );

    let hits = counter("txline.cache.hits");
    let misses = counter("txline.cache.misses");
    let measurements = counter("itdr.measurements");
    for nonce in 100..110 {
        match client
            .call(Request::Verify {
                device: "bus-000".into(),
                nonce,
            })
            .unwrap()
        {
            Response::Verdict { accepted, .. } => assert!(accepted, "genuine device"),
            other => panic!("unexpected {other:?}"),
        }
    }
    // A warm re-enroll: master, slave and four clean calibrations.
    client
        .call(Request::Enroll {
            device: "bus-000".into(),
            nonce: 2,
        })
        .unwrap();
    assert_eq!(
        counter("txline.cache.hits"),
        hits,
        "warm analytic requests must not consult a response cache"
    );
    assert_eq!(counter("txline.cache.misses"), misses);
    assert_eq!(
        counter("itdr.measurements") - measurements,
        10 * verify_average + 2 * enroll_count + 4 * verify_average,
        "every request still measures"
    );
    drop(client);
    drop(svc);

    // Trial mode keeps per-request channels seeded with the response:
    // each of a warm acquisition's measurements is a cache hit.
    let trial = SimulatedFleet::new(FleetSimConfig::fast(1, 42).with_acq_mode(AcqMode::Trial));
    trial.acquire("bus-000", 1).unwrap();
    let hits = counter("txline.cache.hits");
    trial.acquire("bus-000", 2).unwrap();
    assert_eq!(counter("txline.cache.hits") - hits, verify_average);
}
