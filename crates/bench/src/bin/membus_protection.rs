//! Regenerates the §III example-design claims on the cycle-level memory
//! system:
//!
//! * DIVOT monitoring is concurrent with normal traffic — **no
//!   performance overhead** on throughput or latency;
//! * unauthorized access after a physical attack is **blocked at column
//!   access time**, with detection latency bounded by the polling cadence;
//! * an unprotected baseline leaks indefinitely under the same attacks.
//!
//! Run: `cargo run --release -p divot-bench --bin membus_protection`

use divot_bench::{banner, print_claim, print_metric, BenchCli};
use divot_core::itdr::{AcqMode, ItdrConfig};
use divot_core::monitor::MonitorConfig;
use divot_membus::protect::{ProtectionConfig, ScenarioEvent};
use divot_membus::sim::{SimConfig, Simulation};
use divot_membus::workload::{AccessPattern, WorkloadConfig};
use divot_txline::attack::Attack;

fn protection(acq_mode: AcqMode) -> ProtectionConfig {
    ProtectionConfig {
        monitor: MonitorConfig {
            enroll_count: 16,
            average_count: 4,
            fails_to_alarm: 2,
            ..MonitorConfig::default()
        },
        itdr: ItdrConfig::embedded().with_acq_mode(acq_mode),
        poll_interval: 10_000,
        ..ProtectionConfig::default()
    }
}

fn main() -> std::process::ExitCode {
    let cli = BenchCli::parse();
    let acq_mode = cli.acq_mode();
    let cycles = 200_000;
    print_metric("acq_mode", acq_mode.label());

    banner("overhead: protected vs unprotected (clean bus)");
    println!("workload | mode | throughput_per_kcycle | mean_latency | stalls | blocked");
    for (name, pattern) in [
        ("sequential", AccessPattern::Sequential { stride: 1 }),
        ("random", AccessPattern::Random),
        ("rowhog", AccessPattern::RowHog { hot_addresses: 64 }),
    ] {
        for enabled in [true, false] {
            let mut cfg = SimConfig {
                workload: WorkloadConfig {
                    pattern,
                    intensity: 0.08,
                    ..WorkloadConfig::default()
                },
                protection: protection(acq_mode),
                cycles,
                seed: 99,
                ..SimConfig::default()
            };
            cfg.protection.enabled = enabled;
            let stats = Simulation::new(cfg).run();
            println!(
                "{name} | {} | {:.2} | {:.1} | {} | {}",
                if enabled { "protected" } else { "baseline" },
                stats.throughput_per_kilocycle,
                stats.mean_latency,
                stats.stall_cycles,
                stats.blocked_accesses
            );
        }
    }

    banner("attack response (wiretap at cycle 60k)");
    println!("mode | detection_latency_cycles | leaked | blocked | completed");
    for enabled in [true, false] {
        let mut cfg = SimConfig {
            protection: protection(acq_mode),
            cycles,
            seed: 42,
            ..SimConfig::default()
        };
        cfg.protection.enabled = enabled;
        let mut sim = Simulation::new(cfg);
        sim.set_scenario(vec![ScenarioEvent::Attack {
            at_cycle: 60_000,
            attack: Attack::paper_wiretap(),
        }]);
        let stats = sim.run();
        println!(
            "{} | {} | {} | {} | {}",
            if enabled { "protected" } else { "baseline" },
            stats
                .detection_latency
                .map(|c| c.to_string())
                .unwrap_or_else(|| "never".into()),
            stats.leaked_accesses,
            stats.blocked_accesses,
            stats.completed
        );
    }

    banner("cold-boot swap against an attacker-controlled CPU (module-side gate only)");
    let mut cfg = SimConfig {
        protection: ProtectionConfig {
            cpu_side: false,
            ..protection(acq_mode)
        },
        cycles,
        seed: 43,
        ..SimConfig::default()
    };
    cfg.protection.poll_interval = 10_000;
    let mut sim = Simulation::new(cfg);
    sim.set_scenario(vec![ScenarioEvent::ColdBootSwap {
        at_cycle: 60_000,
        foreign_seed: 7777,
    }]);
    let stats = sim.run();
    print_metric(
        "detection_latency_cycles",
        stats
            .detection_latency
            .map(|c| c.to_string())
            .unwrap_or_else(|| "never".into()),
    );
    print_metric("blocked_accesses", stats.blocked_accesses);
    print_metric("leaked_accesses", stats.leaked_accesses);
    print_claim("gate_blocks_foreign_cpu", stats.blocked_accesses > 0);

    cli.finish()
}
