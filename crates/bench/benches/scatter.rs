//! Criterion benchmark: the time-domain scattering engine (the physics
//! kernel behind every response computation).
//!
//! Besides the absolute timings, this bench pits the optimized kernel
//! (precomputed ρ-tables + branch-free tap splitting, `Engine::run`)
//! against the naive reference kernel kept as `Engine::run_reference`, and
//! the LTI impulse-response fast path against per-drive re-simulation. The
//! measured speedup ratios are published as `metric:` lines and, when
//! `CRITERION_JSON` is set (see `just bench-scatter`), into the `metrics`
//! section of `BENCH_scatter.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use divot_txline::attack::Attack;
use divot_txline::board::{Board, BoardConfig};
use divot_txline::env::Environment;
use divot_txline::response::ResponseCache;
use divot_txline::scatter::{EdgeShape, Engine, Network, SimConfig, Tap};
use divot_txline::units::{Seconds, Volts};
use std::hint::black_box;

/// A fresh network with the given main-line segment count.
fn network_with_segments(segments: usize) -> Network {
    let cfg = BoardConfig {
        segments,
        line_count: 1,
        ..BoardConfig::paper_prototype()
    };
    Board::fabricate(&cfg, 5).line(0).network()
}

/// The pre-optimization pipeline: fresh engine, naive per-tick-division
/// kernel. This is the baseline every speedup metric is measured against.
fn naive_edge_response(net: &Network, cfg: &SimConfig) -> divot_dsp::waveform::Waveform {
    let mut engine = Engine::new(net, cfg);
    let drive = cfg.drive_samples(&net.main, engine.ticks());
    engine.run_reference(&drive)
}

/// The optimized pipeline, matching `Network::edge_response`.
fn optimized_edge_response(net: &Network, cfg: &SimConfig) -> divot_dsp::waveform::Waveform {
    net.edge_response(cfg)
}

/// The eight drive configurations of the sweep benches: what a what-if
/// drive study or per-lane trim search runs against one physical state.
fn drive_sweep() -> Vec<SimConfig> {
    let base = SimConfig::default();
    let mut cfgs = Vec::new();
    for (i, &amp) in [0.3, 0.6, 0.9, 1.2].iter().enumerate() {
        for &shape in &[EdgeShape::RaisedCosine, EdgeShape::Linear] {
            cfgs.push(SimConfig {
                amplitude: Volts(amp),
                shape,
                // Vary rise time below the base config's so every sweep
                // member fits the base impulse response's simulated span.
                rise_time: Seconds(base.rise_time.0 * (1.0 - 0.1 * i as f64)),
                ..base
            });
        }
    }
    cfgs
}

fn bench_edge_response(c: &mut Criterion) {
    let mut group = c.benchmark_group("scatter/edge_response");
    for segments in [128usize, 256, 512, 1024] {
        let network = network_with_segments(segments);
        let sim = SimConfig::default();
        group.bench_with_input(
            BenchmarkId::from_parameter(segments),
            &network,
            |b, network| b.iter(|| black_box(network.edge_response(&sim))),
        );
    }
    group.finish();
}

/// Head-to-head on the paper-default clean 512-segment line: naive
/// reference kernel vs the ρ-table + span-splitting kernel.
fn bench_kernel_clean_512(c: &mut Criterion) {
    let network = network_with_segments(512);
    let sim = SimConfig::default();
    let mut group = c.benchmark_group("scatter/kernel_512");
    group.bench_function("reference", |b| {
        b.iter(|| black_box(naive_edge_response(&network, &sim)))
    });
    group.bench_function("optimized", |b| {
        b.iter(|| black_box(optimized_edge_response(&network, &sim)))
    });
    group.finish();
}

/// Same head-to-head with two tap junctions on the line (the wire-tap
/// detection scenario): the split-loop kernel must keep its lead when the
/// interface loop is broken up by junctions.
fn bench_kernel_tapped(c: &mut Criterion) {
    let clean = network_with_segments(512);
    let tapped = Attack::paper_wiretap().apply(&clean);
    let two_taps = Network {
        taps: vec![
            tapped.taps[0].clone(),
            Tap {
                position: 0.25,
                stub: divot_txline::scatter::StubSpec::oscilloscope_tap(),
            },
        ],
        ..tapped
    };
    let sim = SimConfig::default();
    let mut group = c.benchmark_group("scatter/kernel_tapped");
    group.bench_function("reference", |b| {
        b.iter(|| black_box(naive_edge_response(&two_taps, &sim)))
    });
    group.bench_function("optimized", |b| {
        b.iter(|| black_box(optimized_edge_response(&two_taps, &sim)))
    });
    group.finish();
}

/// An 8-drive sweep over one physical state: per-drive re-simulation with
/// the naive kernel vs one impulse-response run + 8 FFT renders.
fn bench_drive_sweep(c: &mut Criterion) {
    let network = network_with_segments(512);
    let sweep = drive_sweep();
    let base = SimConfig::default();
    let mut group = c.benchmark_group("scatter/drive_sweep_8");
    group.sample_size(10);
    group.bench_function("reference", |b| {
        b.iter(|| {
            for cfg in &sweep {
                black_box(naive_edge_response(&network, cfg));
            }
        })
    });
    group.bench_function("impulse", |b| {
        b.iter(|| {
            let ir = network.impulse_response(&base);
            for cfg in &sweep {
                black_box(ir.render(cfg).expect("sweep fits the base span"));
            }
        })
    });
    group.finish();
}

fn bench_tapped_response(c: &mut Criterion) {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 5);
    let clean = board.line(0).network();
    let tapped = Attack::paper_wiretap().apply(&clean);
    let two_taps = Network {
        taps: vec![
            tapped.taps[0].clone(),
            Tap {
                position: 0.25,
                stub: divot_txline::scatter::StubSpec::oscilloscope_tap(),
            },
        ],
        ..tapped.clone()
    };
    let sim = SimConfig::default();
    let mut group = c.benchmark_group("scatter/taps");
    for (name, net) in [
        ("clean", &clean),
        ("one_tap", &tapped),
        ("two_taps", &two_taps),
    ] {
        group.bench_function(name, |b| b.iter(|| black_box(net.edge_response(&sim))));
    }
    group.finish();
}

/// The batched sampling entry point used by the acquisition engine: one
/// state traversal produces every ETS sample, instead of one traversal
/// per sample.
fn bench_batch_response(c: &mut Criterion) {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 5);
    let network = board.line(0).network();
    let sim = SimConfig::default();
    let times: Vec<f64> = (0..341).map(|i| i as f64 * 11.16e-12).collect();
    c.bench_function("scatter/edge_response_batch_341", |b| {
        b.iter(|| black_box(network.edge_response_batch(&sim, &times)))
    });
}

/// The environment-keyed response cache: a hit is an `Arc` clone, a miss
/// pays the full bounce-lattice simulation (or, after a drive change, just
/// an FFT render). The ratio is the per-measurement saving of the batched
/// acquisition engine.
fn bench_response_cache(c: &mut Criterion) {
    let board = Board::fabricate(&BoardConfig::paper_prototype(), 5);
    let network = board.line(0).network();
    let env = Environment::room();
    let mut group = c.benchmark_group("scatter/response_cache");
    group.bench_function("hit", |b| {
        let mut cache = ResponseCache::new(SimConfig::default());
        let _ = cache.response_at(&network, &env, Seconds(0.0));
        b.iter(|| black_box(cache.response_at(&network, &env, Seconds(0.0))))
    });
    group.bench_function("miss", |b| {
        let mut cache = ResponseCache::new(SimConfig::default());
        b.iter(|| {
            cache.invalidate();
            black_box(cache.response_at(&network, &env, Seconds(0.0)))
        })
    });
    group.bench_function("drive_change_render", |b| {
        // Alternate between two drives: each lookup misses the derived
        // tier but re-renders from the cached impulse response — the cost
        // `set_sim_config` now pays instead of a full re-simulation.
        let sim_a = SimConfig::default();
        let sim_b = SimConfig {
            amplitude: Volts(1.23),
            ..sim_a
        };
        let mut cache = ResponseCache::new(sim_a);
        let _ = cache.response_at(&network, &env, Seconds(0.0));
        let mut flip = false;
        b.iter(|| {
            cache.set_sim_config(if flip { sim_a } else { sim_b });
            flip = !flip;
            black_box(cache.response_at(&network, &env, Seconds(0.0)))
        })
    });
    group.finish();
}

/// Publish the speedup ratios the optimization is accountable for (the
/// acceptance numbers in `EXPERIMENTS.md`), computed from the medians of
/// the benches above.
fn record_speedups(c: &mut Criterion) {
    for (metric, reference, optimized) in [
        (
            "speedup_kernel_clean_512",
            "scatter/kernel_512/reference",
            "scatter/kernel_512/optimized",
        ),
        (
            "speedup_kernel_tapped",
            "scatter/kernel_tapped/reference",
            "scatter/kernel_tapped/optimized",
        ),
        (
            "speedup_drive_sweep_8",
            "scatter/drive_sweep_8/reference",
            "scatter/drive_sweep_8/impulse",
        ),
    ] {
        if let (Some(r), Some(o)) = (c.median_ns(reference), c.median_ns(optimized)) {
            c.record_metric(metric, r / o);
        }
    }
}

criterion_group!(
    benches,
    bench_edge_response,
    bench_kernel_clean_512,
    bench_kernel_tapped,
    bench_drive_sweep,
    bench_tapped_response,
    bench_batch_response,
    bench_response_cache,
    record_speedups
);
criterion_main!(benches);
