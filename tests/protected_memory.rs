//! Integration tests of the §III protected memory system spanning the
//! membus, core, analog, and txline crates.

use divot::core::itdr::ItdrConfig;
use divot::core::monitor::MonitorConfig;
use divot::membus::protect::{ProtectedMemorySystem, ProtectionConfig, ScenarioEvent};
use divot::membus::request::{MemRequest, Op};
use divot::membus::sim::{SimConfig, Simulation};
use divot::membus::workload::{AccessPattern, WorkloadConfig};
use divot::txline::attack::Attack;

fn fast_protection() -> ProtectionConfig {
    ProtectionConfig {
        monitor: MonitorConfig {
            enroll_count: 8,
            average_count: 2,
            fails_to_alarm: 1,
            ..MonitorConfig::default()
        },
        itdr: ItdrConfig::embedded(),
        poll_interval: 5_000,
        ..ProtectionConfig::default()
    }
}

#[test]
fn data_round_trips_through_the_protected_system() {
    let mut sys = ProtectedMemorySystem::new(600, fast_protection());
    sys.calibrate();
    // Write a recognizable pattern, then read it back.
    for k in 0..16u64 {
        sys.submit(MemRequest {
            id: k,
            op: Op::Write,
            addr: 1000 + k,
            data: 0xC0FFEE00 + k,
            issue_cycle: 0,
        });
    }
    let mut cycle = 0;
    while cycle < 20_000 {
        sys.tick(cycle);
        cycle += 1;
    }
    for k in 0..16u64 {
        sys.submit(MemRequest {
            id: 100 + k,
            op: Op::Read,
            addr: 1000 + k,
            data: 0,
            issue_cycle: cycle,
        });
    }
    let mut reads = Vec::new();
    while cycle < 40_000 {
        reads.extend(sys.tick(cycle));
        cycle += 1;
    }
    let mut read_backs: Vec<_> = reads
        .iter()
        .filter(|c| c.op == Op::Read)
        .map(|c| (c.id, c.data))
        .collect();
    read_backs.sort();
    assert_eq!(read_backs.len(), 16);
    for (id, data) in read_backs {
        assert_eq!(data, 0xC0FFEE00 + (id - 100));
    }
}

#[test]
fn detection_latency_tracks_poll_interval() {
    for poll_interval in [4_000u64, 16_000] {
        let mut cfg = SimConfig {
            protection: fast_protection(),
            cycles: 100_000,
            seed: 601,
            ..SimConfig::default()
        };
        cfg.protection.poll_interval = poll_interval;
        let mut sim = Simulation::new(cfg);
        sim.set_scenario(vec![ScenarioEvent::Attack {
            at_cycle: 30_000,
            attack: Attack::paper_wiretap(),
        }]);
        let stats = sim.run();
        let latency = stats.detection_latency.expect("detected");
        assert!(
            latency <= 3 * poll_interval,
            "poll {poll_interval}: latency {latency}"
        );
    }
}

#[test]
fn restore_recovers_normal_service() {
    let mut sys = ProtectedMemorySystem::new(602, fast_protection());
    sys.set_scenario(vec![
        ScenarioEvent::Attack {
            at_cycle: 10_000,
            attack: Attack::paper_wiretap(),
        },
        ScenarioEvent::Restore { at_cycle: 40_000 },
    ]);
    sys.calibrate();
    let mut completions_late = 0;
    for cycle in 0..80_000u64 {
        if cycle % 50 == 0 {
            sys.submit(MemRequest {
                id: cycle,
                op: Op::Read,
                addr: cycle % 512,
                data: 0,
                issue_cycle: cycle,
            });
        }
        let done = sys.tick(cycle);
        if cycle > 60_000 {
            completions_late += done.len();
        }
    }
    assert!(
        !sys.reacting(),
        "service must recover after the attacker unplugs"
    );
    assert!(
        completions_late > 100,
        "late completions: {completions_late}"
    );
}

#[test]
fn workload_patterns_all_run_protected() {
    for pattern in [
        AccessPattern::Sequential { stride: 1 },
        AccessPattern::Random,
        AccessPattern::RowHog { hot_addresses: 8 },
    ] {
        let stats = Simulation::new(SimConfig {
            workload: WorkloadConfig {
                pattern,
                intensity: 0.05,
                ..WorkloadConfig::default()
            },
            protection: fast_protection(),
            cycles: 40_000,
            seed: 603,
            ..SimConfig::default()
        })
        .run();
        assert!(stats.completed > 500, "{pattern:?}: {}", stats.completed);
        assert_eq!(stats.blocked_accesses, 0, "{pattern:?} must not block");
    }
}

#[test]
fn cold_boot_data_exfiltration_is_bounded() {
    // The §III cold-boot countermeasure quantified: the attacker's read
    // window is one polling period, after which everything blocks.
    let mut cfg = SimConfig {
        protection: ProtectionConfig {
            cpu_side: false,
            poll_interval: 5_000,
            ..fast_protection()
        },
        cycles: 120_000,
        seed: 604,
        ..SimConfig::default()
    };
    cfg.workload.intensity = 0.05;
    let mut sim = Simulation::new(cfg);
    sim.set_scenario(vec![ScenarioEvent::ColdBootSwap {
        at_cycle: 50_000,
        foreign_seed: 12321,
    }]);
    let stats = sim.run();
    assert!(stats.blocked_accesses > 0);
    // At intensity 0.05 the attacker gets at most ~2 polls worth of reads.
    assert!(
        stats.leaked_accesses < 2 * 5_000 / 10,
        "leaked {}",
        stats.leaked_accesses
    );
}
