//! Regenerates the §IV-A hardware-utilization report:
//!
//! * 71 registers and 124 LUTs per DIVOT detector (Xilinx Vivado report on
//!   xczu7ev-ffvc1156-2-e), ~80 % of which generate counters;
//! * over 90 % of a detector's hardware shareable across many iTDRs,
//!   making DIVOT scale cheaply to multi-bus SoCs.
//!
//! Run: `cargo run --release -p divot-bench --bin resource_utilization`

use divot_bench::{banner, print_claim, print_metric, BenchCli};
use divot_core::itdr::ItdrConfig;
use divot_core::resources::{ResourceModel, XCZU7EV};

fn main() -> std::process::ExitCode {
    // Parsed for CLI uniformity with the other binaries; the resource
    // model reports synthesized hardware, which is identical either way
    // (the analytic path is a simulation-speed device, not a circuit).
    let cli = BenchCli::parse();
    let model = ResourceModel::paper_prototype();

    banner("per-detector inventory (prototype)");
    println!("component | registers | LUTs | shareable | counter");
    for c in model.components() {
        println!(
            "{} | {} | {} | {} | {}",
            c.name, c.registers, c.luts, c.shareable, c.is_counter
        );
    }

    banner("totals (paper: 71 registers, 124 LUTs)");
    print_metric("registers", model.registers());
    print_metric("luts", model.luts());
    print_metric(
        "counter_lut_fraction",
        format!("{:.1}%", model.counter_lut_fraction() * 100.0),
    );
    print_metric(
        "shareable_register_fraction",
        format!("{:.1}%", model.shareable_register_fraction() * 100.0),
    );
    print_claim(
        "matches_paper_totals",
        model.registers() == 71 && model.luts() == 124,
    );

    banner("multi-channel scaling (shared logic instantiated once)");
    println!("channels | registers | LUTs | regs_per_channel | luts_per_channel");
    for channels in [1u32, 2, 4, 8, 16, 32, 64] {
        let (r, l) = model.for_channels(channels);
        println!(
            "{channels} | {r} | {l} | {:.1} | {:.1}",
            r as f64 / channels as f64,
            l as f64 / channels as f64
        );
    }

    banner("device utilization on the prototype FPGA");
    print_metric("device", XCZU7EV.name);
    for channels in [1u32, 64] {
        let (fr, fl) = model.utilization(&XCZU7EV, channels);
        print_metric(
            &format!("utilization_{channels}ch"),
            format!("FF {:.4}% / LUT {:.4}%", fr * 100.0, fl * 100.0),
        );
    }

    banner("configuration-derived inventory (widths follow the config)");
    for (name, cfg) in [
        ("paper", ItdrConfig::paper()),
        ("high_fidelity", ItdrConfig::high_fidelity()),
    ] {
        let derived = ResourceModel::from_config(&cfg, 21, 573);
        print_metric(
            &format!("derived_{name}"),
            format!("{} regs / {} LUTs", derived.registers(), derived.luts()),
        );
    }

    cli.finish()
}
