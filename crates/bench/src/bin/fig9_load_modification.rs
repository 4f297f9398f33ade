//! Regenerates **Fig. 9(b,c)**: Trojan-chip / cold-boot load modification.
//!
//! Paper setup: the receiver chip at the far end of the line is replaced
//! with a different die of the same model number. Paper result: the IIP
//! changes dramatically near the termination echo (~3.5 ns on their time
//! axis) and the error function `E_xy` shows a very large peak there,
//! while the no-attack error stays at the noise floor.
//!
//! Run: `cargo run --release -p divot-bench --bin fig9_load_modification`

use divot_bench::{
    banner, print_claim, print_metric, print_waveform, run_tamper_experiment, Bench, BenchCli,
};
use divot_txline::attack::Attack;

fn main() -> std::process::ExitCode {
    let cli = BenchCli::parse();
    let acq_mode = cli.acq_mode();
    let bench = Bench::paper_prototype(2020).with_acq_mode(acq_mode);
    print_metric("acq_mode", acq_mode.label());
    let attack = Attack::trojan_chip(1337);
    let exp = run_tamper_experiment(&bench, &attack, 16);

    banner("Fig 9(b): IIP with and without load modification");
    print_waveform("iip_clean", &exp.reference, 120);
    print_waveform("iip_swapped", &exp.attacked, 120);

    banner("Fig 9(c): error function");
    print_waveform("exy_no_attack", &exp.clean_report.error, 120);
    print_waveform("exy_attack", &exp.attack_report.error, 120);

    banner("detection");
    print_metric(
        "threshold",
        format!("{:.3e}", exp.detector.policy().threshold),
    );
    print_metric("clean_detected", exp.clean_report.detected);
    print_metric("attack_detected", exp.attack_report.detected);
    print_metric(
        "clean_max_error",
        format!("{:.3e}", exp.clean_report.max_error),
    );
    print_metric(
        "attack_max_error",
        format!("{:.3e}", exp.attack_report.max_error),
    );
    // The round trip over 25 cm at 15 cm/ns is ~3.33 ns; the paper's board
    // showed the load echo near 3.5 ns.
    if let Some(peak) = exp.attack_report.peak {
        print_metric("error_peak_time_ns", format!("{:.3}", peak.time * 1e9));
        print_claim("peak_is_at_termination", peak.time > 2.9e-9);
    }
    print_metric(
        "contrast_attack_over_clean",
        format!(
            "{:.1}x",
            exp.attack_report.max_error / exp.clean_report.max_error.max(1e-300)
        ),
    );

    cli.finish()
}
