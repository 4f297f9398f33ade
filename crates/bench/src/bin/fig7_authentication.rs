//! Regenerates **Fig. 7(a)** (genuine/impostor similarity distributions)
//! and **Fig. 7(b)** (ROC curve, EER) of the DIVOT paper.
//!
//! Paper setup: six Tx-lines on the prototype PCB, each measured 8,192
//! times; similarity computed within each line (genuine) and across lines
//! (impostor). Paper result: clearly separated distributions; EER < 0.06 %
//! with false positive rate below 0.0006 near the operating threshold.
//!
//! Run: `cargo run --release -p divot-bench --bin fig7_authentication`
//! (set `DIVOT_MEASUREMENTS` to change the per-line measurement count, or
//! pass `--quick` for a small smoke-test batch; pass `--serial` to disable
//! the parallel acquisition engine — results are bitwise identical either
//! way; pass `--acq-mode <trial|analytic>` to choose the acquisition
//! engine — the two modes are statistically equivalent but not bitwise
//! identical, so the distributions and EER agree within sampling noise).

use divot_bench::{
    banner, collect_scores_sampled, print_claim, print_histogram, print_metric, Bench, BenchCli,
};
use divot_dsp::stats::Summary;
use divot_dsp::RocCurve;

fn main() -> std::process::ExitCode {
    let cli = BenchCli::parse();
    let acq_mode = cli.acq_mode();
    let quick = cli.quick();
    let measurements: usize = std::env::var("DIVOT_MEASUREMENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 24 } else { 8192 });
    let bench = Bench::paper_prototype(2020).with_acq_mode(acq_mode);

    banner("Fig 7 setup");
    print_metric("lines", bench.board.line_count());
    print_metric("measurements_per_line", measurements);
    print_metric("itdr_points", bench.itdr.ets.points());
    print_metric("itdr_repetitions", bench.itdr.repetitions);
    print_metric("threads", divot_dsp::par::max_threads());
    print_metric("acq_mode", acq_mode.label());

    let started = std::time::Instant::now();
    let all = bench.measure_all(measurements);
    print_metric(
        "acquisition_wall_clock_s",
        format!("{:.2}", started.elapsed().as_secs_f64()),
    );
    // Within-group pairing as in the paper: randomly sampled same-line
    // pairs (8 per measurement) and cross-line pairs.
    let scores = collect_scores_sampled(&all, 8 * measurements, 7);

    banner("Fig 7(a): similarity distributions");
    print_metric("genuine_summary", Summary::of(&scores.genuine));
    print_metric("impostor_summary", Summary::of(&scores.impostor));
    print_histogram("genuine", &scores.genuine, 0.0, 1.0, 100);
    print_histogram("impostor", &scores.impostor, 0.0, 1.0, 100);

    banner("Fig 7(b): ROC / EER");
    let roc = RocCurve::from_scores(&scores.genuine, &scores.impostor);
    print_metric("eer_percent", format!("{:.4}", roc.eer() * 100.0));
    print_metric("eer_threshold", format!("{:.4}", roc.eer_threshold()));
    print_metric("auc", format!("{:.8}", roc.auc()));
    // The paper's magnified box: FPR below 0.0006 at high TPR.
    let fpr_at_eer = roc.fpr_at(roc.eer_threshold());
    print_metric("fpr_at_eer_threshold", format!("{:.6}", fpr_at_eer));
    print_claim("paper_claim_eer_below_0.06pct", roc.eer() < 0.0006);
    // A subsampled ROC series for plotting.
    let pts = roc.points();
    let stride = (pts.len() / 64).max(1);
    for p in pts.iter().step_by(stride) {
        println!("roc | {:.5} {:.6} {:.6}", p.threshold, p.fpr, p.tpr);
    }

    cli.finish()
}
