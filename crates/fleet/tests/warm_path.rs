//! Warm-path regression pin: once a device has been served, further
//! fleet traffic on it must not touch the scattering engine — and an
//! exact repeat of a request must not even run the instrument.
//!
//! This test owns the process-wide telemetry (own integration-test
//! binary, so no other test's counters bleed in) and asserts on counter
//! *deltas* around each phase:
//!
//! - enrollment and the first verify may pay engine runs (cold
//!   fabrication of the device's back-reflection);
//! - a repeat verify of the same `(device, nonce)` is a verdict-cache
//!   hit: zero engine runs, zero iTDR measurements;
//! - a *fresh* nonce on the same device must measure (the physics is
//!   re-sampled) but still performs zero engine runs and zero
//!   ROM/schedule rebuilds — the memoized fabrication serves it.

use divot_fleet::{FleetConfig, FleetService, FleetSimConfig, Request, Response, SimulatedFleet};

fn counter(name: &str) -> u64 {
    divot_telemetry::global()
        .expect("telemetry installed by the test")
        .registry()
        .counter(name)
        .get()
}

#[test]
fn warm_verifies_never_rerun_the_engine() {
    divot_telemetry::install(divot_telemetry::Telemetry::new())
        .expect("first telemetry install in this process");
    let svc = FleetService::start(
        FleetConfig::default().with_workers(2),
        SimulatedFleet::new(FleetSimConfig::fast(2, 42)),
    );
    let client = svc.client();
    for i in 0..2 {
        client
            .call(Request::Enroll {
                device: SimulatedFleet::device_name(i),
                nonce: 1,
            })
            .unwrap();
    }
    let verify = |nonce| match client
        .call(Request::Verify {
            device: "bus-000".into(),
            nonce,
        })
        .unwrap()
    {
        Response::Verdict { accepted, .. } => assert!(accepted, "genuine device"),
        other => panic!("unexpected {other:?}"),
    };
    // Cold serve: the first verify of the device after enrollment.
    verify(100);

    // Every fabrication product the fleet memoizes, by its counter.
    let fabrication = [
        "txline.cache.engine_runs",
        "apc.rom_builds",
        "frontend.level_schedule_builds",
    ];
    let engine_after_cold: Vec<u64> = fabrication.iter().map(|n| counter(n)).collect();
    let measurements_after_cold = counter("itdr.measurements");
    assert!(engine_after_cold[0] > 0, "cold path does run the engine");
    assert!(measurements_after_cold > 0, "cold path does measure");

    // Exact repeat: a verdict-cache hit must not even touch the iTDR.
    for _ in 0..5 {
        verify(100);
    }
    assert_eq!(
        fabrication.iter().map(|n| counter(n)).collect::<Vec<_>>(),
        engine_after_cold,
        "repeat verify must not refabricate anything"
    );
    assert_eq!(
        counter("itdr.measurements"),
        measurements_after_cold,
        "repeat verify must not measure"
    );
    assert!(counter("fleet.cache.verdict_hits") >= 5);

    // Fresh nonces: the instrument runs (new physics draw), but every
    // fabrication product is served from the memoized warm state.
    for nonce in 101..110 {
        verify(nonce);
    }
    assert_eq!(
        fabrication.iter().map(|n| counter(n)).collect::<Vec<_>>(),
        engine_after_cold,
        "warm-path verifies must perform zero engine runs / table builds"
    );
    assert!(
        counter("itdr.measurements") > measurements_after_cold,
        "fresh nonces must actually measure"
    );
}
