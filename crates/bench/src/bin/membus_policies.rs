//! Memory-controller policy study on the §III substrate: FR-FCFS vs FCFS
//! arbitration × open vs closed page, across the workload patterns —
//! showing the simulator is a real memory system, not a stopwatch, and
//! that DIVOT's zero overhead holds under every policy.
//!
//! Run: `cargo run --release -p divot-bench --bin membus_policies`

use divot_bench::{banner, BenchCli};
use divot_membus::scheduler::{ArbiterPolicy, PagePolicy};
use divot_membus::sim::{SimConfig, Simulation};
use divot_membus::workload::{AccessPattern, WorkloadConfig};

fn main() {
    let cli = BenchCli::parse();
    let acq_mode = cli.acq_mode();
    banner("policy sweep: throughput (req/kcycle) and mean latency (cycles)");
    println!("acq_mode = {}", acq_mode.label());
    println!(
        "workload | arbiter | page | protected_tput | protected_lat | baseline_tput | baseline_lat"
    );
    for (wname, pattern) in [
        ("sequential", AccessPattern::Sequential { stride: 1 }),
        ("random", AccessPattern::Random),
        ("rowhog", AccessPattern::RowHog { hot_addresses: 32 }),
    ] {
        for arbiter in [ArbiterPolicy::FrFcfs, ArbiterPolicy::Fcfs] {
            for page in [PagePolicy::OpenPage, PagePolicy::ClosedPage] {
                let mut results = Vec::new();
                for enabled in [true, false] {
                    let mut cfg = SimConfig {
                        workload: WorkloadConfig {
                            pattern,
                            intensity: 0.10,
                            ..WorkloadConfig::default()
                        },
                        cycles: 120_000,
                        seed: 77,
                        ..SimConfig::default()
                    };
                    cfg.protection.enabled = enabled;
                    cfg.protection.itdr = cfg.protection.itdr.with_acq_mode(acq_mode);
                    // Thread the policies into the controller through the
                    // protection layer's scheduler configuration.
                    cfg.scheduler.arbiter = arbiter;
                    cfg.scheduler.page = page;
                    let stats = Simulation::new(cfg).run();
                    results.push((stats.throughput_per_kilocycle, stats.mean_latency));
                }
                println!(
                    "{wname} | {arbiter:?} | {page:?} | {:.2} | {:.1} | {:.2} | {:.1}",
                    results[0].0, results[0].1, results[1].0, results[1].1
                );
            }
        }
    }
    println!(
        "\nExpected shape: FR-FCFS ≥ FCFS everywhere (row hits bypass); \
         closed page helps random, hurts rowhog; protected == baseline in \
         every cell (DIVOT is concurrent)."
    );
}
