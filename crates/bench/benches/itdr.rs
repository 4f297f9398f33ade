//! Criterion benchmark: full iTDR measurements (the per-authentication
//! cost), at the paper configuration and the fast test configuration.
//!
//! The `itdr/acq_paper_full` group pits the per-trial acquisition engine
//! ([`AcqMode::Trial`]) against the closed-form + binomial fast path
//! ([`AcqMode::Analytic`]) at the paper-scale 341-point × 420-repetition
//! configuration, under both execution policies. The Analytic/Trial ratio
//! is published as `metric:` lines and, when `CRITERION_JSON` is set (see
//! `just bench-itdr`), into the `metrics` section of `BENCH_itdr.json`.
//!
//! The `itdr/fleet_acquire` group times the fleet's warm acquisition,
//! the per-verify cost of the service, and `itdr/fleet_warm` a device's
//! first touch, paid once per device before its first sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use divot_analog::frontend::FrontEndConfig;
use divot_core::channel::BusChannel;
use divot_core::exec::ExecPolicy;
use divot_core::itdr::{AcqMode, Itdr, ItdrConfig};
use divot_fleet::sim::{FleetSimConfig, SimulatedFleet};
use divot_txline::board::{Board, BoardConfig};
use std::hint::black_box;

fn bench_measure(c: &mut Criterion) {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 5);
    let mut group = c.benchmark_group("itdr/measure");
    group.sample_size(20);
    for (name, cfg) in [("fast", ItdrConfig::fast()), ("paper", ItdrConfig::paper())] {
        let mut ch = BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 5);
        let itdr = Itdr::new(cfg);
        // Warm the response and table caches once (real systems do too).
        let _ = itdr.measure(&mut ch);
        group.bench_function(name, |b| b.iter(|| black_box(itdr.measure(&mut ch))));
    }
    group.finish();
}

fn bench_enroll(c: &mut Criterion) {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 5);
    let mut ch = BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 5);
    let itdr = Itdr::new(ItdrConfig::fast());
    let _ = itdr.measure(&mut ch);
    let mut group = c.benchmark_group("itdr/enroll");
    group.sample_size(10);
    group.bench_function("enroll_x8", |b| {
        b.iter(|| black_box(itdr.enroll(&mut ch, 8)))
    });
    group.finish();
}

/// Paper-configuration enrollment under the batched acquisition engine:
/// the response cache amortizes the bounce-lattice simulation across the
/// averaged measurements (`x8_cached` vs `x8_resimulated`, the pre-cache
/// per-measurement cost), and the serial/parallel schedules produce
/// bitwise-identical fingerprints (`x8_serial` vs `x8_parallel`; the
/// parallel win scales with available cores).
fn bench_enroll_paper(c: &mut Criterion) {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 5);
    let itdr = Itdr::new(ItdrConfig::paper());
    let mut ch = BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 5);
    let _ = itdr.measure(&mut ch);
    let mut group = c.benchmark_group("itdr/enroll_paper");
    group.sample_size(10);
    group.bench_function("x8_cached", |b| {
        b.iter(|| black_box(itdr.enroll(&mut ch, 8)))
    });
    group.bench_function("x8_resimulated", |b| {
        b.iter(|| {
            for _ in 0..8 {
                ch.invalidate_response_cache();
                black_box(itdr.measure(&mut ch));
            }
        })
    });
    group.bench_function("x8_serial", |b| {
        b.iter(|| black_box(itdr.enroll_with(&mut ch, 8, ExecPolicy::Serial)))
    });
    group.bench_function("x8_parallel", |b| {
        b.iter(|| black_box(itdr.enroll_with(&mut ch, 8, ExecPolicy::Parallel)))
    });
    group.finish();
    // The cache-effectiveness line EXPERIMENTS.md quotes: hits dominate,
    // engine_runs stays tiny, and a static-environment workload records
    // zero evictions.
    println!("cache-stats: itdr/enroll_paper ... {}", ch.cache_stats());
}

/// Trial vs Analytic at the paper-scale configuration (341 ETS points ×
/// 420 repetitions — the acquisition grid of the paper's full-resolution
/// instrument), each under both execution policies. The serial pair is the
/// honest single-core comparison; the parallel pair shows the fast path
/// keeps its lead when the per-point engine fans out.
fn bench_acq_paper_full(c: &mut Criterion) {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 5);
    let mut group = c.benchmark_group("itdr/acq_paper_full");
    group.sample_size(10);
    for (mode_name, mode) in [("trial", AcqMode::Trial), ("analytic", AcqMode::Analytic)] {
        let itdr = Itdr::new(ItdrConfig::paper_full().with_acq_mode(mode));
        let mut ch = BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), 5);
        let _ = itdr.measure(&mut ch);
        for (policy_name, policy) in [
            ("serial", ExecPolicy::Serial),
            ("parallel", ExecPolicy::Parallel),
        ] {
            group.bench_function(format!("{mode_name}_{policy_name}"), |b| {
                b.iter(|| black_box(itdr.measure_with(&mut ch, policy)))
            });
        }
    }
    group.finish();
}

/// Warm fleet acquisition, the sweep every fresh verify, scan and
/// intake board pays: `solo` is one `SimulatedFleet::acquire` on
/// `FleetSimConfig::fast` (cycling 16 warm devices with fresh nonces),
/// `batch16` one `acquire_batch` of all 16 under the service's
/// `ExecPolicy::auto()`, also published per board as the
/// `fleet_acquire_batch16_us_per_board` metric.
fn bench_fleet_acquire(c: &mut Criterion) {
    const BOARDS: usize = 16;
    let fleet = SimulatedFleet::new(FleetSimConfig::fast(BOARDS, 2020));
    let names: Vec<String> = (0..BOARDS).map(SimulatedFleet::device_name).collect();
    for name in &names {
        black_box(fleet.acquire(name, 0));
    }
    let mut group = c.benchmark_group("itdr/fleet_acquire");
    group.sample_size(20);
    let mut nonce = 0u64;
    group.bench_function("solo", |b| {
        b.iter(|| {
            nonce += 1;
            black_box(fleet.acquire(&names[nonce as usize % BOARDS], nonce))
        })
    });
    group.bench_function("batch16", |b| {
        b.iter(|| {
            nonce += 1;
            let items: Vec<(String, u64)> = names.iter().map(|n| (n.clone(), nonce)).collect();
            black_box(fleet.acquire_batch(&items, ExecPolicy::auto()))
        })
    });
    group.finish();
    if let Some(batch) = c.median_ns("itdr/fleet_acquire/batch16") {
        c.record_metric(
            "fleet_acquire_batch16_us_per_board",
            batch / BOARDS as f64 / 1e3,
        );
    }
}

/// First touch of a fleet device, what a never-served device's first
/// request pays before its sweep: fabrication, the probe run and the
/// detector nodes (`SimulatedFleet::warm_up` on `FleetSimConfig::fast`),
/// each iteration on a device no earlier iteration touched.
fn bench_fleet_warm(c: &mut Criterion) {
    const DEVICES: usize = 1 << 15;
    let fleet = SimulatedFleet::new(FleetSimConfig::fast(DEVICES, 2020));
    let mut next = 0;
    c.bench_function("itdr/fleet_warm", |b| {
        b.iter(|| {
            assert!(next < DEVICES, "every device is warm");
            next += 1;
            black_box(fleet.warm_up(&SimulatedFleet::device_name(next - 1)))
        })
    });
}

/// Publish the Analytic-over-Trial speedup ratios (the acceptance numbers
/// in `EXPERIMENTS.md`), computed from the medians of the benches above.
fn record_speedups(c: &mut Criterion) {
    for (metric, trial, analytic) in [
        (
            "speedup_acq_analytic_paper_full_serial",
            "itdr/acq_paper_full/trial_serial",
            "itdr/acq_paper_full/analytic_serial",
        ),
        (
            "speedup_acq_analytic_paper_full_parallel",
            "itdr/acq_paper_full/trial_parallel",
            "itdr/acq_paper_full/analytic_parallel",
        ),
    ] {
        if let (Some(t), Some(a)) = (c.median_ns(trial), c.median_ns(analytic)) {
            c.record_metric(metric, t / a);
        }
    }
}

criterion_group!(
    benches,
    bench_measure,
    bench_enroll,
    bench_enroll_paper,
    bench_acq_paper_full,
    bench_fleet_acquire,
    bench_fleet_warm,
    record_speedups
);
criterion_main!(benches);
