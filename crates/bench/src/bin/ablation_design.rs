//! Ablations of the iTDR design choices DESIGN.md calls out:
//!
//! 1. **PDM vs plain APC** — the paper's Fig. 4 motivation: a fixed
//!    reference (DC) only resolves signals within ~±2σ of itself; the PDM
//!    sweep widens the usable range. We reconstruct the same line with
//!    both and compare reconstruction fidelity and authentication
//!    separation.
//! 2. **ETS density vs repetitions** — at a fixed trigger budget
//!    (≈50 µs), denser time sampling means fewer repetitions per point.
//!    The paper configuration (171 points × 42 reps) sits at the sweet
//!    spot for a response band-limited by the 150 ps edge.
//! 3. **Reconstruction smoothing** — the short FIR after the count→volt
//!    ROM: too little leaves quantization noise, too much smears the
//!    IIP's features.
//!
//! Run: `cargo run --release -p divot-bench --bin ablation_design`
//! (set `DIVOT_MEASUREMENTS` to change the per-line measurement count).

use divot_analog::modulation::ModulationWave;
use divot_bench::{banner, collect_scores_sampled, print_metric, Bench, BenchCli};
use divot_core::ets::EtsSchedule;
use divot_core::itdr::ItdrConfig;
use divot_dsp::stats::Summary;
use divot_dsp::RocCurve;

fn measurements_budget() -> usize {
    std::env::var("DIVOT_MEASUREMENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512)
}

fn separation(bench: &Bench, n: usize) -> (f64, f64, f64) {
    let scores = collect_scores_sampled(&bench.measure_all(n), 4 * n, 7);
    let g = Summary::of(&scores.genuine);
    let i = Summary::of(&scores.impostor);
    let d = (g.mean - i.mean) / (0.5 * (g.std_dev.powi(2) + i.std_dev.powi(2))).sqrt();
    let roc = RocCurve::from_scores(&scores.genuine, &scores.impostor);
    (g.mean, d, roc.eer() * 100.0)
}

fn main() {
    let cli = BenchCli::parse();
    let n = measurements_budget();
    let acq_mode = cli.acq_mode();
    print_metric("acq_mode", acq_mode.label());

    banner("ablation 1: PDM vs plain APC (fixed DC reference)");
    println!("frontend | genuine_mean | d_prime | eer_pct");
    for (name, modulation) in [
        (
            "pdm_triangle",
            ModulationWave::Triangle {
                center: -2e-3,
                amplitude: 10e-3,
            },
        ),
        // Plain APC: the comparator's intrinsic noise is the only dither.
        // Tiny epsilon modulation keeps the Vernier machinery well-formed
        // while being physically equivalent to a DC reference.
        (
            "plain_apc_dc",
            ModulationWave::Triangle {
                center: -2e-3,
                amplitude: 1e-6,
            },
        ),
    ] {
        let mut bench = Bench::paper_prototype(2020).with_acq_mode(acq_mode);
        bench.frontend.modulation = modulation;
        let (g, d, eer) = separation(&bench, n);
        println!("{name} | {g:.4} | {d:.2} | {eer:.4}");
    }
    print_metric(
        "note",
        "plain APC saturates outside ~±2σ of its reference: the IIP's \
         larger excursions clip, collapsing the separation (paper Fig. 4)",
    );

    banner("ablation 2: ETS density vs repetitions at a fixed ~7.2k-trigger budget");
    println!("tau_steps | points | reps | genuine_mean | d_prime | eer_pct");
    for (tau_steps, reps) in [(1u32, 21u32), (2, 42), (4, 84), (8, 168)] {
        let mut bench = Bench::paper_prototype(2020).with_acq_mode(acq_mode);
        bench.itdr = ItdrConfig {
            ets: EtsSchedule::new(0.0, 3.8e-9, tau_steps as f64 * 11.16e-12),
            repetitions: reps,
            smoothing_half_width: (4 / tau_steps).max(1) as usize,
            acq_mode,
        };
        let (g, d, eer) = separation(&bench, n);
        println!(
            "{tau_steps} | {} | {reps} | {g:.4} | {d:.2} | {eer:.4}",
            bench.itdr.ets.points()
        );
    }

    banner("ablation 3: reconstruction smoothing (paper config otherwise)");
    println!("smoothing_half_width | genuine_mean | d_prime | eer_pct");
    for half in [0usize, 1, 2, 4, 8] {
        let mut bench = Bench::paper_prototype(2020).with_acq_mode(acq_mode);
        bench.itdr.smoothing_half_width = half;
        let (g, d, eer) = separation(&bench, n);
        println!("{half} | {g:.4} | {d:.2} | {eer:.4}");
    }

    banner("ablation 4: trigger statistics under real channel encodings (§II-E)");
    // The paper's premise: channel coding balances rising/falling edges,
    // so DIVOT must trigger on one polarity. Measured on actual encoders.
    use divot_analog::encoding::{edge_counts, max_run_length, Encoder8b10b, Scrambler};
    use divot_dsp::rng::DivotRng;
    let mut rng = DivotRng::seed_from_u64(4);
    let payload: Vec<u8> = (0..50_000).map(|_| rng.index(256) as u8).collect();
    let raw_bits: Vec<u8> = payload
        .iter()
        .flat_map(|&b| (0..8).rev().map(move |k| (b >> k) & 1))
        .collect();
    let enc_bits = Encoder8b10b::new().encode_stream(&payload);
    let scr_bits = Scrambler::new(0xFFFF_FFFF).scramble_bytes(&payload);
    println!("stream | rising_per_falling | falling_trigger_density | max_run");
    for (name, bits) in [
        ("raw_bytes", &raw_bits),
        ("8b10b", &enc_bits),
        ("scrambled", &scr_bits),
    ] {
        let (r, f) = edge_counts(bits);
        println!(
            "{name} | {:.4} | {:.4} | {}",
            r as f64 / f as f64,
            f as f64 / (bits.len() - 1) as f64,
            max_run_length(bits)
        );
    }

    banner("ablation 5: Vernier period (PDM level granularity)");
    println!("vernier_den | levels | genuine_mean | d_prime | eer_pct");
    for (num, den, off) in [(2u64, 5u64, 10u64), (4, 11, 22), (8, 21, 42), (16, 43, 86)] {
        let mut bench = Bench::paper_prototype(2020).with_acq_mode(acq_mode);
        bench.frontend.vernier = divot_analog::modulation::VernierSchedule::new(num, den, 1, off);
        // Repetitions must stay a multiple of the Vernier period.
        bench.itdr.repetitions = (den as u32) * (42 / den as u32).max(1);
        let (g, d, eer) = separation(&bench, n);
        println!("{den} | {den} | {g:.4} | {d:.2} | {eer:.4}");
    }
}
