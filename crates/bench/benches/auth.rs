//! Criterion benchmark: similarity scoring, authentication decisions, and
//! tamper scans — the per-decision digital cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use divot_core::auth::{AuthPolicy, Authenticator};
use divot_core::fingerprint::Fingerprint;
use divot_core::tamper::{TamperDetector, TamperPolicy};
use divot_dsp::rng::DivotRng;
use divot_dsp::similarity::similarity;
use divot_dsp::waveform::Waveform;
use divot_dsp::RocCurve;
use std::hint::black_box;

fn noisy_pair(n: usize, seed: u64) -> (Waveform, Waveform) {
    let mut rng = DivotRng::seed_from_u64(seed);
    let base = Waveform::from_fn(0.0, 22.32e-12, n, |t| 3e-3 * (t * 4e9).sin());
    let mut noisy = base.clone();
    noisy.map_in_place(|v| v + rng.normal(0.0, 3e-4));
    (base, noisy)
}

fn bench_similarity(c: &mut Criterion) {
    let mut group = c.benchmark_group("auth/similarity");
    for n in [171usize, 341, 1024] {
        let (a, b) = noisy_pair(n, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(similarity(&a, &b)))
        });
    }
    group.finish();
}

fn bench_verify(c: &mut Criterion) {
    let (a, b) = noisy_pair(171, 2);
    let fp = Fingerprint::new(a, 16);
    let auth = Authenticator::new(AuthPolicy::default());
    c.bench_function("auth/verify", |bch| {
        bch.iter(|| black_box(auth.verify(&fp, &b)))
    });
}

fn bench_tamper_scan(c: &mut Criterion) {
    let (a, b) = noisy_pair(171, 3);
    let det = TamperDetector::new(TamperPolicy::default());
    c.bench_function("auth/tamper_scan", |bch| {
        bch.iter(|| black_box(det.scan(&a, &b)))
    });
}

fn bench_eprom_codec(c: &mut Criterion) {
    let (a, _) = noisy_pair(341, 4);
    let fp = Fingerprint::new(a, 16);
    let bytes = fp.to_eprom_bytes();
    let mut group = c.benchmark_group("auth/eprom");
    group.bench_function("encode", |bch| bch.iter(|| black_box(fp.to_eprom_bytes())));
    group.bench_function("decode", |bch| {
        bch.iter(|| black_box(Fingerprint::from_eprom_bytes(&bytes).expect("valid")))
    });
    group.finish();
}

/// The ROC sweep behind Fig. 7(b): building the curve and extracting the
/// EER from genuine/impostor score populations (the analysis cost of one
/// authentication trial batch).
fn bench_roc_sweep(c: &mut Criterion) {
    let mut rng = DivotRng::seed_from_u64(5);
    let genuine: Vec<f64> = (0..4096)
        .map(|_| (0.98 + rng.normal(0.0, 0.01)).min(1.0))
        .collect();
    let impostor: Vec<f64> = (0..4096).map(|_| 0.55 + rng.normal(0.0, 0.08)).collect();
    let mut group = c.benchmark_group("auth/roc");
    group.bench_function("from_scores_8192", |bch| {
        bch.iter(|| black_box(RocCurve::from_scores(&genuine, &impostor)))
    });
    let roc = RocCurve::from_scores(&genuine, &impostor);
    group.bench_function("eer", |bch| bch.iter(|| black_box(roc.eer())));
    group.finish();
}

criterion_group!(
    benches,
    bench_similarity,
    bench_verify,
    bench_tamper_scan,
    bench_eprom_codec,
    bench_roc_sweep
);
criterion_main!(benches);
