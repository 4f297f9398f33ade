//! Regenerates the §IV-C environmental-robustness results as one table:
//!
//! | condition            | paper EER | this harness        |
//! |----------------------|-----------|---------------------|
//! | room temperature     |  <0.06 %  | `room` row          |
//! | 23→75 °C oven swing  |   0.14 %  | `temperature` row   |
//! | 1–50 Hz piezo chirp  |   0.27 %  | `vibration` row     |
//! | nearby EMI aggressor |   0.06 %  | `emi` row           |
//!
//! The shape to reproduce: vibration > temperature > {room ≈ EMI}.
//!
//! Run: `cargo run --release -p divot-bench --bin env_robustness`
//! (set `DIVOT_MEASUREMENTS` to change the per-line measurement count;
//! set `DIVOT_THREADS=1` to run the acquisition engine on one thread —
//! results are bitwise identical either way).

use divot_analog::frontend::FrontEndConfig;
use divot_bench::{banner, collect_scores_sampled, print_claim, print_metric, Bench, BenchCli};
use divot_dsp::stats::Summary;
use divot_dsp::RocCurve;
use divot_txline::env::Environment;

struct Condition {
    name: &'static str,
    environment: Environment,
    frontend: FrontEndConfig,
    gap_seconds: f64,
    paper_eer_percent: f64,
}

fn main() -> std::process::ExitCode {
    let cli = BenchCli::parse();
    let started = std::time::Instant::now();
    let measurements: usize = std::env::var("DIVOT_MEASUREMENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2048);
    print_metric("threads", divot_dsp::par::max_threads());
    let acq_mode = cli.acq_mode();
    print_metric("acq_mode", acq_mode.label());

    let conditions = [
        Condition {
            name: "room",
            environment: Environment::room(),
            frontend: FrontEndConfig::default(),
            gap_seconds: 0.0,
            paper_eer_percent: 0.06,
        },
        Condition {
            name: "temperature",
            environment: Environment::oven_swing(),
            frontend: FrontEndConfig::default(),
            gap_seconds: 600.0 / measurements as f64,
            paper_eer_percent: 0.14,
        },
        Condition {
            name: "vibration",
            environment: Environment::vibrating(),
            frontend: FrontEndConfig::default(),
            // Spread across many chirp sweeps.
            gap_seconds: 40.0 / measurements as f64,
            paper_eer_percent: 0.27,
        },
        Condition {
            name: "emi",
            environment: Environment::room(),
            frontend: FrontEndConfig::with_emi_aggressor(),
            gap_seconds: 0.0,
            paper_eer_percent: 0.06,
        },
    ];

    banner("environmental robustness (EER per condition)");
    println!("condition | paper_eer_pct | measured_eer_pct | genuine_mean | genuine_sd");
    let mut measured = Vec::new();
    for cond in &conditions {
        let mut bench = Bench::paper_prototype(2020).with_acq_mode(acq_mode);
        bench.environment = cond.environment;
        bench.frontend = cond.frontend;
        let scores = collect_scores_sampled(
            &bench.measure_all_spaced(measurements, cond.gap_seconds),
            4 * measurements,
            7,
        );
        let roc = RocCurve::from_scores(&scores.genuine, &scores.impostor);
        let g = Summary::of(&scores.genuine);
        println!(
            "{} | {:.2} | {:.4} | {:.4} | {:.4}",
            cond.name,
            cond.paper_eer_percent,
            roc.eer() * 100.0,
            g.mean,
            g.std_dev
        );
        // Degradation metric robust to EERs saturating at 0: the EER if
        // nonzero, else the genuine distribution's spread.
        measured.push((cond.name, roc.eer(), g.std_dev));
    }

    banner("paper-shape checks");
    let eer = |name: &str| {
        measured
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("condition present")
            .1
    };
    let degradation = |name: &str| {
        let (_, eer, sd) = measured
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("condition present");
        if measured.iter().any(|(_, e, _)| *e > 0.0) {
            *eer
        } else {
            *sd
        }
    };
    print_claim(
        "vibration_worst",
        degradation("vibration") >= degradation("temperature")
            && degradation("vibration") >= degradation("room"),
    );
    print_claim(
        "temperature_worse_than_room",
        degradation("temperature") >= degradation("room"),
    );
    print_claim(
        "emi_no_degradation",
        (eer("emi") - eer("room")).abs() < 0.002,
    );
    print_metric(
        "wall_clock_s",
        format!("{:.2}", started.elapsed().as_secs_f64()),
    );

    cli.finish()
}
