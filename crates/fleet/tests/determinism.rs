//! Deterministic-concurrency pins for the fleet service: verify
//! verdicts for a fixed seed are bitwise-identical across serial
//! (1-worker), 2-worker, and 8-worker configurations, identical with
//! telemetry on and off, and identical with the verdict cache enabled
//! and disabled. Analytic and Trial acquisition fleets must agree on
//! every *decision* (their similarity bits differ by design: the two
//! modes draw from disjoint RNG domains).
//!
//! This is the service-level extension of the repo-wide determinism
//! contract: scheduling, observation, and memoization decide *when* an
//! answer arrives (and how expensively), never *what* it is.

use divot_core::itdr::AcqMode;
use divot_fleet::{FleetConfig, FleetService, FleetSimConfig, Request, Response, SimulatedFleet};

const SEED: u64 = 2020;
const DEVICES: usize = 6;

/// Run the canonical workload — enroll every device, then a fixed list
/// of verifies and scans, each issued twice (the repeat exercises the
/// verdict cache when it is enabled) — and return every answer reduced
/// to exact bits.
fn run_workload(workers: usize) -> Vec<(String, bool, u64)> {
    run_workload_with(
        FleetConfig::default().with_workers(workers),
        FleetSimConfig::fast(DEVICES, SEED),
    )
}

/// [`run_workload`] under explicit service and fleet configurations.
fn run_workload_with(config: FleetConfig, sim: FleetSimConfig) -> Vec<(String, bool, u64)> {
    let svc = FleetService::start(config, SimulatedFleet::new(sim));
    let client = svc.client();
    for i in 0..DEVICES {
        client
            .call(Request::Enroll {
                device: SimulatedFleet::device_name(i),
                nonce: 11,
            })
            .unwrap();
    }
    // Fan the fixed request list across as many client threads as the
    // service has workers, so parallel configurations are exercised with
    // genuinely concurrent traffic; results are collected in request
    // order regardless.
    let requests: Vec<(String, u64)> = (0..4 * DEVICES)
        .map(|k| (SimulatedFleet::device_name(k % DEVICES), 500 + k as u64))
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|(device, nonce)| {
                let client = client.clone();
                let (device, nonce) = (device.clone(), *nonce);
                scope.spawn(move || {
                    let call_verify = || match client
                        .call(Request::Verify {
                            device: device.clone(),
                            nonce,
                        })
                        .unwrap()
                    {
                        Response::Verdict {
                            accepted,
                            similarity,
                            ..
                        } => (device.clone(), accepted, similarity.to_bits()),
                        other => panic!("unexpected {other:?}"),
                    };
                    let verdict = call_verify();
                    // Repeat of the identical request: must answer the
                    // same bits whether it recomputes or hits a cache.
                    assert_eq!(call_verify(), verdict, "repeat verify must be stable");
                    let scan_bits =
                        match client.call(Request::MonitorScan { device, nonce }).unwrap() {
                            Response::Scan {
                                detected,
                                max_error,
                                ..
                            } => {
                                assert!(!detected, "clean fleet must scan clean");
                                max_error.to_bits()
                            }
                            other => panic!("unexpected {other:?}"),
                        };
                    (verdict.0, verdict.1, verdict.2 ^ scan_bits.rotate_left(1))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn verdicts_are_bitwise_identical_across_worker_counts() {
    let serial = run_workload(1);
    assert!(
        serial.iter().all(|(_, accepted, _)| *accepted),
        "genuine fleet must verify"
    );
    let two = run_workload(2);
    let eight = run_workload(8);
    assert_eq!(serial, two, "2 workers must match serial bitwise");
    assert_eq!(serial, eight, "8 workers must match serial bitwise");
}

#[test]
fn verdicts_are_bitwise_identical_cached_and_uncached() {
    // Capacity 0 disables both verdict tiers: every repeat request
    // recomputes from scratch. The memoized run must not differ by a bit.
    let sim = || FleetSimConfig::fast(DEVICES, SEED);
    let uncached = run_workload_with(
        FleetConfig::default()
            .with_workers(4)
            .with_verdict_cache_capacity(0),
        sim(),
    );
    let cached = run_workload_with(FleetConfig::default().with_workers(4), sim());
    assert_eq!(
        uncached, cached,
        "memoization must be invisible in the bits"
    );
}

#[test]
fn analytic_and_trial_fleets_agree_on_every_decision() {
    // The two acquisition modes deliberately draw from disjoint RNG
    // domains, so similarity *bits* differ; the accept decisions (and
    // clean-scan outcomes, asserted inside the workload) must agree on
    // every request of the canonical workload.
    let decisions = |mode| {
        run_workload_with(
            FleetConfig::default().with_workers(2),
            FleetSimConfig::fast(DEVICES, SEED).with_acq_mode(mode),
        )
        .into_iter()
        .map(|(device, accepted, _bits)| (device, accepted))
        .collect::<Vec<_>>()
    };
    let analytic = decisions(AcqMode::Analytic);
    let trial = decisions(AcqMode::Trial);
    assert!(
        analytic.iter().all(|(_, a)| *a),
        "genuine fleet must verify"
    );
    assert_eq!(analytic, trial, "modes must agree on decisions");
}

#[test]
fn verdicts_are_bitwise_identical_with_telemetry_on_and_off() {
    // "Off" pass first: nothing installed yet, every instrument is a
    // no-op.
    let off = run_workload(4);
    // Install the process-wide telemetry (first install wins; if another
    // test got there first that's still an "on" state).
    let _ = divot_telemetry::install(divot_telemetry::Telemetry::new());
    let on = run_workload(4);
    assert_eq!(off, on, "telemetry must be observe-only");
    // And the instrumentation did fire on the second pass.
    let t = divot_telemetry::global().expect("installed above");
    assert!(t.registry().counter("fleet.verify.accepts").get() > 0);
}

#[test]
fn warm_restart_from_persisted_banks_verifies_identically() {
    let dir = std::env::temp_dir().join(format!("divot-fleet-warm-{}", std::process::id()));
    let first = FleetService::start(
        FleetConfig::default().with_workers(2),
        SimulatedFleet::new(FleetSimConfig::fast(3, SEED)),
    );
    let client = first.client();
    for i in 0..3 {
        client
            .call(Request::Enroll {
                device: SimulatedFleet::device_name(i),
                nonce: 11,
            })
            .unwrap();
    }
    let verdict_before = client
        .call(Request::Verify {
            device: "bus-001".into(),
            nonce: 777,
        })
        .unwrap();
    first.persist(&dir).unwrap();
    drop(first);

    // Cold process restart: reload the shard banks, re-attach the same
    // physical fleet, no re-enrollment.
    let store = divot_fleet::FleetStore::load(&dir, FleetConfig::default().shards).unwrap();
    let second = FleetService::start_with_store(
        FleetConfig::default().with_workers(2),
        SimulatedFleet::new(FleetSimConfig::fast(3, SEED)),
        store,
    );
    let verdict_after = second
        .client()
        .call(Request::Verify {
            device: "bus-001".into(),
            nonce: 777,
        })
        .unwrap();
    match (&verdict_before, &verdict_after) {
        (
            Response::Verdict {
                accepted: a1,
                similarity: s1,
                ..
            },
            Response::Verdict {
                accepted: a2,
                similarity: s2,
                ..
            },
        ) => {
            assert!(*a1 && *a2, "warm restart must keep verifying");
            // The fingerprint crossed the EPROM codec (16-bit fixed
            // point), so the score matches within quantization, and the
            // decision matches exactly.
            assert!((s1 - s2).abs() < 1e-3, "{s1} vs {s2}");
        }
        other => panic!("unexpected {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
