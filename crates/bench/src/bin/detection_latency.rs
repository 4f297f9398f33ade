//! Regenerates the paper's latency claims (§I, §IV-A):
//!
//! * "both authentication and tamper detection can be completed within
//!   50 µs" at the 156.25 MHz prototype clock;
//! * "with GHz clock speed in modern computers, DIVOT is able to alert any
//!   unauthorized data access or physical tampering within memory
//!   operation time frame".
//!
//! Run: `cargo run --release -p divot-bench --bin detection_latency`
//! (set `DIVOT_THREADS=1` to run the acquisition engine on one thread in
//! the harness-timing section — simulated results are identical either
//! way).

use divot_analog::linecode::LineCode;
use divot_bench::{banner, print_claim, print_metric, BenchCli};
use divot_core::itdr::ItdrConfig;
use divot_core::timing::TimingModel;
use divot_core::trigger::TriggerSource;

fn main() -> std::process::ExitCode {
    let cli = BenchCli::parse();
    let proto = TimingModel::paper_prototype();

    banner("prototype measurement budget (156.25 MHz clock lane)");
    print_metric("triggers_per_measurement", proto.itdr.total_triggers());
    print_metric(
        "measurement_time_us",
        format!("{:.2}", proto.measurement_time() * 1e6),
    );
    print_claim("paper_claim_under_50us", proto.meets_50us_budget());

    banner("clock scaling (same instrument, faster buses)");
    println!("clock | measurement_us | note");
    for (clock, note) in [
        (156.25e6, "prototype FPGA"),
        (800e6, "DDR3-1600 command clock"),
        (1.6e9, "DDR4-3200 command clock"),
        (3.2e9, "DDR5-6400 command clock"),
    ] {
        let t = proto.at_clock(clock);
        println!(
            "{:.0}MHz | {:.3} | {}",
            clock / 1e6,
            t.measurement_time() * 1e6,
            note
        );
    }
    let ghz = proto.at_clock(1.6e9);
    print_claim(
        "ghz_within_memory_op_timeframe",
        ghz.measurement_time() < 10e-6,
    );

    banner("data-lane triggering (random NRZ/PAM4 traffic, §II-E)");
    println!("source | trigger_rate_Mhz | measurement_us");
    for (name, source) in [
        ("clock_lane", TriggerSource::paper_prototype()),
        (
            "nrz_data",
            TriggerSource::DataLane {
                code: LineCode::Nrz,
                symbol_rate: 156.25e6,
            },
        ),
        (
            "pam4_data",
            TriggerSource::DataLane {
                code: LineCode::Pam4,
                symbol_rate: 156.25e6,
            },
        ),
    ] {
        let t = TimingModel {
            source,
            itdr: proto.itdr,
        };
        println!(
            "{name} | {:.1} | {:.2}",
            source.trigger_rate() / 1e6,
            t.measurement_time() * 1e6
        );
    }

    banner("detection latency vs decision averaging");
    println!("avg_count | latency_at_156MHz_us | latency_at_1.6GHz_us");
    for avg in [1u32, 2, 4, 8, 16] {
        println!(
            "{avg} | {:.1} | {:.2}",
            proto.detection_latency(avg) * 1e6,
            proto.at_clock(1.6e9).detection_latency(avg) * 1e6
        );
    }

    banner("high-fidelity configuration");
    let hf = TimingModel {
        itdr: ItdrConfig::high_fidelity(),
        ..proto
    };
    print_metric(
        "high_fidelity_measurement_us",
        format!("{:.1}", hf.measurement_time() * 1e6),
    );

    banner("harness acquisition wall clock (simulation, not bus time)");
    let acq_mode = cli.acq_mode();
    let bench = divot_bench::Bench::paper_prototype(2020).with_acq_mode(acq_mode);
    let mut ch = bench.channel(0);
    let itdr = bench.itdr();
    let started = std::time::Instant::now();
    let _ = itdr.measure_averaged(&mut ch, 8);
    print_metric("threads", divot_dsp::par::max_threads());
    print_metric("acq_mode", acq_mode.label());
    print_metric(
        "avg8_paper_measurement_wall_clock_s",
        format!("{:.3}", started.elapsed().as_secs_f64()),
    );

    cli.finish()
}
