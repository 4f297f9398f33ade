//! Regenerates **Fig. 9(e,f)**: wire-tapping.
//!
//! Paper setup: the solder mask is scratched, a tap wire is soldered to
//! the trace and run to an oscilloscope. Paper result: the IIP change is
//! dramatic and easily detected; moreover the damage is permanent — even
//! after removing the wire, the residual IIP change remains large
//! ("the original IIP was permanently destroyed and non-reversible").
//!
//! Run: `cargo run --release -p divot-bench --bin fig9_wiretap`

use divot_bench::{
    banner, print_claim, print_metric, print_waveform, run_tamper_experiment, Bench, BenchCli,
};
use divot_txline::attack::Attack;

fn main() -> std::process::ExitCode {
    let cli = BenchCli::parse();
    let acq_mode = cli.acq_mode();
    let bench = Bench::paper_prototype(2020).with_acq_mode(acq_mode);
    print_metric("acq_mode", acq_mode.label());
    let exp = run_tamper_experiment(&bench, &Attack::paper_wiretap(), 16);

    banner("Fig 9(e): IIP with and without wire-tap");
    print_waveform("iip_clean", &exp.reference, 120);
    print_waveform("iip_tapped", &exp.attacked, 120);

    banner("Fig 9(f): error function");
    print_waveform("exy_no_attack", &exp.clean_report.error, 120);
    print_waveform("exy_tapped", &exp.attack_report.error, 120);

    banner("detection");
    print_metric(
        "threshold",
        format!("{:.3e}", exp.detector.policy().threshold),
    );
    print_metric("attack_detected", exp.attack_report.detected);
    print_metric(
        "attack_max_error",
        format!("{:.3e}", exp.attack_report.max_error),
    );
    if let Some(loc) = exp.attack_report.location {
        print_metric("onset_location_m", format!("{:.4}", loc.0));
        // The tap sits at 50 % of the 25 cm line = 12.5 cm.
        print_claim("located_at_tap", (loc.0 - 0.125).abs() < 0.03);
    }

    banner("permanent scar after tap removal");
    let mut ch = bench.channel(0);
    let itdr = bench.itdr();
    let fp = itdr.enroll(&mut ch, 16);
    // Tap applied, then removed: the scar remains.
    ch.apply_attack(&Attack::SolderScar { position: 0.5 });
    let scarred = itdr.measure_averaged(&mut ch, 16);
    let scar_report = exp.detector.scan(fp.iip(), &scarred);
    print_metric("scar_detected", scar_report.detected);
    print_metric("scar_max_error", format!("{:.3e}", scar_report.max_error));
    print_claim("damage_is_permanent", scar_report.detected);

    cli.finish()
}
