//! Regenerates **Fig. 9(h,i)**: magnetic (near-field) probing.
//!
//! Paper setup: a magnetic probe is held over the trace; eddy currents
//! oppose the line's field, adding mutual inductance and a small local
//! impedance rise. Paper result: the IIP difference is relatively small,
//! but the error-function contrast clearly exceeds the `5×10⁻⁷`
//! threshold, and the error onset *locates* the probe along the bus —
//! the smallest-signature attack in the suite.
//!
//! Run: `cargo run --release -p divot-bench --bin fig9_magnetic_probe`

use divot_bench::{
    banner, print_claim, print_metric, print_waveform, run_tamper_experiment, Bench, BenchCli,
};
use divot_dsp::similarity::similarity;
use divot_txline::attack::Attack;

fn main() -> std::process::ExitCode {
    let cli = BenchCli::parse();
    let acq_mode = cli.acq_mode();
    let bench = Bench::paper_prototype(2020).with_acq_mode(acq_mode);
    print_metric("acq_mode", acq_mode.label());
    let exp = run_tamper_experiment(&bench, &Attack::paper_magnetic_probe(), 16);

    banner("Fig 9(h): IIP with and without magnetic probe");
    print_waveform("iip_clean", &exp.reference, 120);
    print_waveform("iip_probed", &exp.attacked, 120);
    // The probe's IIP change is small: the waveforms stay highly similar.
    let s = similarity(&exp.reference, &exp.attacked);
    print_metric("iip_similarity_with_probe", format!("{s:.4}"));
    print_claim("iip_change_is_small", s > 0.9);

    banner("Fig 9(i): error function");
    print_waveform("exy_no_probe", &exp.clean_report.error, 120);
    print_waveform("exy_probe", &exp.attack_report.error, 120);

    banner("detection at the paper threshold");
    print_metric(
        "calibrated_threshold",
        format!("{:.3e}", exp.detector.policy().threshold),
    );
    print_metric("paper_floor", format!("{:.1e}", 5e-7));
    print_metric("probe_detected", exp.attack_report.detected);
    print_metric("clean_detected", exp.clean_report.detected);
    print_metric(
        "probe_max_error",
        format!("{:.3e}", exp.attack_report.max_error),
    );
    print_metric(
        "clean_max_error",
        format!("{:.3e}", exp.clean_report.max_error),
    );
    if let Some(loc) = exp.attack_report.location {
        print_metric("onset_location_m", format!("{:.4}", loc.0));
        // Probe at 70 % of the 25 cm line = 17.5 cm.
        print_claim("probe_localized", (loc.0 - 0.175).abs() < 0.035);
    }

    cli.finish()
}
