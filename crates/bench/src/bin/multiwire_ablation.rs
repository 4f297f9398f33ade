//! Regenerates the paper's future-work claim (§IV-C): *"Theoretical
//! analysis suggests that monitoring multiple wires on a bus can
//! exponentially increase authentication accuracy."*
//!
//! Method: treat `k` of the board's lines as one multi-wire bus and fuse
//! per-lane similarity scores by averaging ([`Authenticator::verify_fused`]'s
//! rule); with `k` independent lanes the genuine/impostor separation grows
//! ~√k in sd units, so the Gaussian-tail error rate falls exponentially
//! in `k`.
//!
//! Run: `cargo run --release -p divot-bench --bin multiwire_ablation`
//! (set `DIVOT_MEASUREMENTS` to change the per-line measurement count).
//!
//! [`Authenticator::verify_fused`]: divot_core::auth::Authenticator::verify_fused

use divot_bench::{banner, collect_scores_sampled, print_claim, print_metric, Bench, BenchCli};
use divot_dsp::rng::DivotRng;
use divot_dsp::RocCurve;

fn main() -> std::process::ExitCode {
    let measurements: usize = std::env::var("DIVOT_MEASUREMENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2048);
    let cli = BenchCli::parse();
    let acq_mode = cli.acq_mode();
    print_metric("acq_mode", acq_mode.label());
    let bench = Bench::paper_prototype(2020).with_acq_mode(acq_mode);
    let scores = collect_scores_sampled(&bench.measure_all(measurements), 4 * measurements, 7);

    // Fused scores for a k-lane bus: average k independent per-lane scores.
    let mut rng = DivotRng::seed_from_u64(7);
    let fuse = |pool: &[f64], k: usize, n: usize, rng: &mut DivotRng| -> Vec<f64> {
        (0..n)
            .map(|_| (0..k).map(|_| pool[rng.index(pool.len())]).sum::<f64>() / k as f64)
            .collect()
    };

    banner("EER vs number of monitored wires (score fusion)");
    println!("lanes | eer_percent | d_prime");
    let trials = 200_000;
    let mut eers = Vec::new();
    for k in [1usize, 2, 3, 4, 6, 8] {
        let genuine = fuse(&scores.genuine, k, trials, &mut rng);
        let impostor = fuse(&scores.impostor, k, trials, &mut rng);
        let roc = RocCurve::from_scores(&genuine, &impostor);
        let g = divot_dsp::stats::Summary::of(&genuine);
        let i = divot_dsp::stats::Summary::of(&impostor);
        let d = (g.mean - i.mean) / (0.5 * (g.std_dev.powi(2) + i.std_dev.powi(2))).sqrt();
        println!("{k} | {:.5} | {d:.2}", roc.eer() * 100.0);
        eers.push((k, roc.eer()));
    }

    banner("paper-shape check");
    let monotone = eers.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-9);
    print_claim("accuracy_improves_with_lanes", monotone);

    cli.finish()
}
