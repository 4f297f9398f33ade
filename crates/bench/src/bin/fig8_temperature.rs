//! Regenerates **Fig. 8**: genuine similarity distribution under a
//! 23 °C → 75 °C temperature swing, compared against room temperature.
//!
//! Paper result: the genuine distribution moves left (dielectric-constant
//! rise lowers impedance and slows propagation, stretching the echo time
//! axis), the impostor distribution barely moves, and the EER rises from
//! <0.06 % to 0.14 %.
//!
//! Run: `cargo run --release -p divot-bench --bin fig8_temperature`
//! (set `DIVOT_MEASUREMENTS` to change the per-line measurement count).

use divot_bench::{
    banner, collect_scores_sampled, print_claim, print_histogram, print_metric, Bench, BenchCli,
};
use divot_dsp::stats::Summary;
use divot_dsp::RocCurve;
use divot_txline::env::Environment;

fn main() -> std::process::ExitCode {
    let measurements: usize = std::env::var("DIVOT_MEASUREMENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2048);
    // Spread the batch over one full oven cycle (600 s).
    let gap = 600.0 / measurements as f64;
    let cli = BenchCli::parse();
    let acq_mode = cli.acq_mode();
    print_metric("acq_mode", acq_mode.label());

    banner("room-temperature reference");
    let room = Bench::paper_prototype(2020).with_acq_mode(acq_mode);
    let room_scores = collect_scores_sampled(&room.measure_all(measurements), 4 * measurements, 7);
    let room_roc = RocCurve::from_scores(&room_scores.genuine, &room_scores.impostor);
    print_metric("room_genuine", Summary::of(&room_scores.genuine));
    print_metric("room_eer_percent", format!("{:.4}", room_roc.eer() * 100.0));

    banner("oven swing 23C -> 75C");
    let mut oven = Bench::paper_prototype(2020).with_acq_mode(acq_mode);
    oven.environment = Environment::oven_swing();
    let oven_scores = collect_scores_sampled(
        &oven.measure_all_spaced(measurements, gap),
        4 * measurements,
        7,
    );
    let oven_roc = RocCurve::from_scores(&oven_scores.genuine, &oven_scores.impostor);
    print_metric("swing_genuine", Summary::of(&oven_scores.genuine));
    print_metric("swing_impostor", Summary::of(&oven_scores.impostor));
    print_metric(
        "swing_eer_percent",
        format!("{:.4}", oven_roc.eer() * 100.0),
    );

    banner("Fig 8: genuine distributions (room vs swing)");
    print_histogram("genuine_room", &room_scores.genuine, 0.6, 1.0, 80);
    print_histogram("genuine_swing", &oven_scores.genuine, 0.6, 1.0, 80);

    banner("extension: time-base compensation (beyond the paper)");
    // Re-score a subsample of hot measurements against a room-temperature
    // fingerprint, with and without digital time-base compensation.
    let mut bench = Bench::paper_prototype(2020).with_acq_mode(acq_mode);
    bench.environment = Environment::room();
    let mut ch = bench.channel(0);
    let itdr = bench.itdr();
    let fp = itdr.enroll(&mut ch, 16);
    ch.set_environment(divot_txline::env::Environment {
        temperature: divot_txline::env::TemperatureProfile::Constant(divot_txline::units::Celsius(
            75.0,
        )),
        ..divot_txline::env::Environment::room()
    });
    let mut raw_scores = Vec::new();
    let mut comp_scores = Vec::new();
    let mut stretches = Vec::new();
    for _ in 0..32 {
        let hot = itdr.measure_averaged(&mut ch, 4);
        raw_scores.push(divot_dsp::similarity::similarity(fp.iip(), &hot));
        let (comp, est) = divot_core::auth::compensated_score(&fp, &hot, 0.02);
        comp_scores.push(comp);
        stretches.push(est);
    }
    print_metric("hot_raw_genuine", Summary::of(&raw_scores));
    print_metric("hot_compensated_genuine", Summary::of(&comp_scores));
    print_metric(
        "estimated_stretch_ppm",
        format!("{:.0}", Summary::of(&stretches).mean * 1e6),
    );
    print_claim(
        "compensation_recovers_similarity",
        Summary::of(&comp_scores).mean >= Summary::of(&raw_scores).mean,
    );

    banner("paper-shape checks");
    let room_mean = Summary::of(&room_scores.genuine).mean;
    let swing_mean = Summary::of(&oven_scores.genuine).mean;
    print_claim("genuine_shifts_left", swing_mean < room_mean);
    print_claim(
        "eer_rises_but_stays_small",
        oven_roc.eer() >= room_roc.eer() && oven_roc.eer() < 0.02,
    );
    print_claim(
        "impostor_barely_moves",
        (Summary::of(&oven_scores.impostor).mean - Summary::of(&room_scores.impostor).mean).abs()
            < 0.1,
    );

    cli.finish()
}
