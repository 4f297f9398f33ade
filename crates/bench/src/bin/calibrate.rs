//! Calibration sweep: prints signal statistics and genuine/impostor
//! similarity separation for the prototype bench, to ground the default
//! analog/physical parameters. Not a paper figure — a lab notebook tool.

use divot_bench::{banner, collect_scores, print_metric, Bench, BenchCli};
use divot_core::itdr::ItdrConfig;
use divot_dsp::stats::Summary;

fn main() {
    let cli = BenchCli::parse();
    let acq_mode = cli.acq_mode();
    let mut bench = Bench::paper_prototype(2024);
    bench.itdr = ItdrConfig::paper().with_acq_mode(acq_mode);
    // Optional overrides for sweep experiments:
    //   CAL_TAU_STEPS=2 CAL_REPS=42 CAL_SMOOTH=2 cargo run ... calibrate
    if let Ok(v) = std::env::var("CAL_TAU_STEPS") {
        let k: f64 = v.parse().expect("CAL_TAU_STEPS must be a number");
        bench.itdr.ets = divot_core::ets::EtsSchedule::new(0.0, 3.8e-9, k * 11.16e-12);
    }
    if let Ok(v) = std::env::var("CAL_REPS") {
        bench.itdr.repetitions = v.parse().expect("CAL_REPS must be an integer");
    }
    if let Ok(v) = std::env::var("CAL_SMOOTH") {
        bench.itdr.smoothing_half_width = v.parse().expect("CAL_SMOOTH must be an integer");
    }
    println!(
        "itdr: acq_mode={} points={} reps={} smooth={} triggers={} time_us={:.1}",
        acq_mode.label(),
        bench.itdr.ets.points(),
        bench.itdr.repetitions,
        bench.itdr.smoothing_half_width,
        bench.itdr.total_triggers(),
        bench.itdr.total_triggers() as f64 / 156.25
    );

    banner("detector-side response statistics (line 0)");
    let mut ch = bench.channel(0);
    let gain = ch.frontend_config().coupler.backward_gain();
    let resp = ch.response_now();
    let win = resp.window(0.0, 3.8e-9);
    let detector: Vec<f64> = win.samples().iter().map(|v| v * gain).collect();
    print_metric(
        "detector_rms_v",
        format!("{:.6e}", Summary::of(&detector).std_dev),
    );
    print_metric(
        "detector_min_v",
        format!(
            "{:.6e}",
            detector.iter().cloned().fold(f64::INFINITY, f64::min)
        ),
    );
    print_metric(
        "detector_max_v",
        format!(
            "{:.6e}",
            detector.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        ),
    );

    banner("true-response (noise-free) impostor similarity");
    let mut truths = Vec::new();
    for i in 0..bench.board.line_count() {
        let mut chi = bench.channel(i);
        truths.push(chi.response_now().window(0.0, 3.8e-9));
    }
    let mut true_impostor = Vec::new();
    for a in 0..truths.len() {
        for b in a + 1..truths.len() {
            true_impostor.push(divot_dsp::similarity::similarity(&truths[a], &truths[b]));
        }
    }
    print_metric("true_impostor", Summary::of(&true_impostor));

    banner("similarity separation (64 measurements x 6 lines)");
    let measurements = bench.measure_all(64);
    for (i, per_line) in measurements.iter().enumerate() {
        let g: Vec<f64> = per_line
            .windows(2)
            .map(|p| divot_dsp::similarity::similarity(&p[0], &p[1]))
            .collect();
        print_metric(&format!("genuine_line{i}"), Summary::of(&g));
    }
    let scores = collect_scores(&measurements);
    let g = Summary::of(&scores.genuine);
    let i = Summary::of(&scores.impostor);
    print_metric("genuine", g);
    print_metric("impostor", i);
    let d_prime = (g.mean - i.mean) / (0.5 * (g.std_dev.powi(2) + i.std_dev.powi(2))).sqrt();
    print_metric("d_prime", format!("{d_prime:.2}"));
    let roc = divot_dsp::RocCurve::from_scores(&scores.genuine, &scores.impostor);
    print_metric("eer_percent", format!("{:.4}", roc.eer() * 100.0));
    print_metric("eer_threshold", format!("{:.4}", roc.eer_threshold()));
    print_metric("auc", format!("{:.6}", roc.auc()));
}
