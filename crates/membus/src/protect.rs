//! DIVOT integration: the protected memory system of paper Fig. 6.
//!
//! A [`ProtectedMemorySystem`] couples the cycle-level memory controller
//! and SDRAM module with the *physical* bus model: a [`BusChannel`] whose
//! clock lane both ends' iTDRs monitor. The CPU-side monitor stalls the
//! controller when the bus stops matching its enrolled fingerprint; the
//! module-side monitor closes the column-access gate. Attack scenarios are
//! scripted as cycle-stamped events, and the system accounts detection
//! latency and any accesses served between attack onset and the gate
//! closing.

use crate::controller::{Completion, MemoryController};
use crate::dram::DramTiming;
use crate::request::{AddressMap, MemRequest};
use crate::scheduler::SchedulerConfig;
use divot_analog::frontend::FrontEndConfig;
use divot_core::channel::BusChannel;
use divot_core::itdr::{Itdr, ItdrConfig};
use divot_core::monitor::{BusMonitor, MonitorConfig};
use divot_telemetry::Value;
use divot_txline::attack::Attack;
use divot_txline::board::{Board, BoardConfig};
use divot_txline::scatter::Network;

/// Configuration of the DIVOT protection layer.
#[derive(Debug, Clone, Copy)]
pub struct ProtectionConfig {
    /// Monitor policy (enrollment, averaging, thresholds).
    pub monitor: MonitorConfig,
    /// Instrument configuration for both ends.
    pub itdr: ItdrConfig,
    /// Analog front-end configuration for both ends.
    pub frontend: FrontEndConfig,
    /// Controller cycles between monitor polls (each poll runs a full
    /// averaged measurement on each end).
    pub poll_interval: u64,
    /// Whether protection is enabled at all (disable for the unprotected
    /// baseline).
    pub enabled: bool,
    /// Whether the CPU-side monitor runs (stalls the controller on
    /// mismatch). Disable to model a cold-boot scenario where the module
    /// faces an attacker-controlled CPU with no DIVOT cooperation.
    pub cpu_side: bool,
    /// Whether the module-side monitor runs (gates column accesses).
    pub mem_side: bool,
}

impl Default for ProtectionConfig {
    fn default() -> Self {
        Self {
            monitor: MonitorConfig {
                average_count: 4,
                ..MonitorConfig::default()
            },
            itdr: ItdrConfig::embedded(),
            frontend: FrontEndConfig::default(),
            poll_interval: 20_000,
            enabled: true,
            cpu_side: true,
            mem_side: true,
        }
    }
}

/// A cycle-stamped scripted event in an attack scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// Apply a physical attack to the bus at the given cycle.
    Attack {
        /// Controller cycle of the event.
        at_cycle: u64,
        /// The attack.
        attack: Attack,
    },
    /// Cold boot: the whole module (with its bus segment) is swapped for a
    /// foreign one fabricated from `foreign_seed`.
    ColdBootSwap {
        /// Controller cycle of the event.
        at_cycle: u64,
        /// Fabrication seed of the attacker's substitute hardware.
        foreign_seed: u64,
    },
    /// Restore the original clean bus (attacker unplugs).
    Restore {
        /// Controller cycle of the event.
        at_cycle: u64,
    },
}

impl ScenarioEvent {
    /// The cycle this event fires.
    pub fn cycle(&self) -> u64 {
        match self {
            ScenarioEvent::Attack { at_cycle, .. }
            | ScenarioEvent::ColdBootSwap { at_cycle, .. }
            | ScenarioEvent::Restore { at_cycle } => *at_cycle,
        }
    }
}

/// Security accounting of a protected run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecurityStats {
    /// Cycle of the first scripted attack, if any fired.
    pub attack_cycle: Option<u64>,
    /// Cycle the protection first reacted (stall or gate) after the
    /// attack.
    pub reaction_cycle: Option<u64>,
    /// Column accesses *completed* between attack onset and the reaction
    /// (the attacker's window).
    pub leaked_accesses: u64,
    /// Total column accesses blocked by the gate.
    pub blocked_accesses: u64,
}

impl SecurityStats {
    /// Detection latency in cycles, when both endpoints are known.
    pub fn detection_latency(&self) -> Option<u64> {
        match (self.attack_cycle, self.reaction_cycle) {
            (Some(a), Some(r)) if r >= a => Some(r - a),
            _ => None,
        }
    }
}

/// The complete protected memory system.
#[derive(Debug, Clone)]
pub struct ProtectedMemorySystem {
    controller: MemoryController,
    channel: BusChannel,
    cpu_monitor: BusMonitor,
    mem_monitor: BusMonitor,
    config: ProtectionConfig,
    clean_network: Network,
    board_seed: u64,
    events: Vec<ScenarioEvent>,
    next_event: usize,
    security: SecurityStats,
    calibrated: bool,
}

impl ProtectedMemorySystem {
    /// Build the system: a memory controller and module joined by the
    /// memory-bus Tx-line of a freshly fabricated board (line 0), with the
    /// default scheduler policies.
    pub fn new(board_seed: u64, config: ProtectionConfig) -> Self {
        Self::with_scheduler(board_seed, config, SchedulerConfig::default())
    }

    /// Like [`Self::new`], with explicit scheduler policies.
    pub fn with_scheduler(
        board_seed: u64,
        config: ProtectionConfig,
        scheduler: SchedulerConfig,
    ) -> Self {
        let board = Board::fabricate(&BoardConfig::paper_prototype(), board_seed);
        let line = board.line(0).clone();
        let channel = BusChannel::new(line.clone(), config.frontend, board_seed);
        let itdr = Itdr::new(config.itdr);
        Self {
            controller: MemoryController::new(
                AddressMap::default(),
                scheduler,
                DramTiming::default(),
            ),
            clean_network: line.network(),
            channel,
            cpu_monitor: BusMonitor::new(itdr, config.monitor),
            mem_monitor: BusMonitor::new(itdr, config.monitor),
            config,
            board_seed,
            events: Vec::new(),
            next_event: 0,
            security: SecurityStats::default(),
            calibrated: false,
        }
    }

    /// Install the attack scenario (events are sorted by cycle).
    pub fn set_scenario(&mut self, mut events: Vec<ScenarioEvent>) {
        events.sort_by_key(ScenarioEvent::cycle);
        self.events = events;
        self.next_event = 0;
    }

    /// Calibration phase (§III): both ends enroll the bus fingerprint.
    /// Must run before ticking when protection is enabled.
    pub fn calibrate(&mut self) {
        if self.config.enabled {
            if self.config.cpu_side {
                self.cpu_monitor.calibrate(&mut self.channel);
            }
            if self.config.mem_side {
                self.mem_monitor.calibrate(&mut self.channel);
            }
        }
        self.calibrated = true;
    }

    /// Submit a request (returns `false` if the queue is full).
    pub fn submit(&mut self, req: MemRequest) -> bool {
        self.controller.submit(req)
    }

    /// The controller (stats, module access).
    pub fn controller(&self) -> &MemoryController {
        &self.controller
    }

    /// Security accounting.
    pub fn security(&self) -> &SecurityStats {
        &self.security
    }

    /// The CPU-side monitor state.
    pub fn cpu_monitor(&self) -> &BusMonitor {
        &self.cpu_monitor
    }

    /// The module-side monitor state.
    pub fn mem_monitor(&self) -> &BusMonitor {
        &self.mem_monitor
    }

    /// Whether the reaction (stall or gate) is currently active.
    pub fn reacting(&self) -> bool {
        self.controller.stalled() || self.controller.module().gate_blocked()
    }

    fn fire_due_events(&mut self, cycle: u64) {
        while self.next_event < self.events.len() && self.events[self.next_event].cycle() <= cycle {
            let ev = self.events[self.next_event].clone();
            self.next_event += 1;
            match ev {
                ScenarioEvent::Attack { attack, .. } => {
                    self.channel.apply_attack(&attack);
                    self.security.attack_cycle.get_or_insert(cycle);
                }
                ScenarioEvent::ColdBootSwap { foreign_seed, .. } => {
                    let foreign = Board::fabricate(&BoardConfig::paper_prototype(), foreign_seed);
                    self.channel.replace_network(foreign.line(0).network());
                    self.security.attack_cycle.get_or_insert(cycle);
                }
                ScenarioEvent::Restore { .. } => {
                    self.channel.replace_network(self.clean_network.clone());
                }
            }
        }
        let _ = self.board_seed;
    }

    fn poll_monitors(&mut self, cycle: u64) {
        let was_reacting = self.reacting();
        divot_telemetry::inc("membus.polls");
        if self.config.cpu_side {
            self.cpu_monitor.poll(&mut self.channel);
            self.controller.set_stall(self.cpu_monitor.is_blocking());
        }
        if self.config.mem_side {
            self.mem_monitor.poll(&mut self.channel);
            self.controller
                .module_mut()
                .set_access_gate(self.mem_monitor.is_blocking());
        }
        if !was_reacting
            && self.reacting()
            && self.security.attack_cycle.is_some()
            && self.security.reaction_cycle.is_none()
        {
            self.security.reaction_cycle = Some(cycle);
            divot_telemetry::inc("membus.reactions");
            divot_telemetry::emit(
                "membus.reaction",
                &[
                    ("cycle", Value::from(cycle)),
                    (
                        "attack_cycle",
                        Value::from(self.security.attack_cycle.unwrap_or(0)),
                    ),
                    ("stalled", Value::from(self.controller.stalled())),
                    (
                        "gated",
                        Value::from(self.controller.module().gate_blocked()),
                    ),
                ],
            );
        }
    }

    /// Advance one controller cycle. Fires scenario events, polls the
    /// monitors on schedule, ticks the controller, and accounts security
    /// outcomes. Returns the completions of this cycle.
    ///
    /// # Panics
    ///
    /// Panics if protection is enabled and [`Self::calibrate`] has not
    /// run.
    pub fn tick(&mut self, cycle: u64) -> Vec<Completion> {
        assert!(
            self.calibrated,
            "calibrate() must run before ticking the protected system"
        );
        self.fire_due_events(cycle);
        if self.config.enabled && cycle.is_multiple_of(self.config.poll_interval) {
            self.poll_monitors(cycle);
        }
        let done = self.controller.tick(cycle);
        if let Some(attack_at) = self.security.attack_cycle {
            if self.security.reaction_cycle.is_none() && cycle >= attack_at {
                self.security.leaked_accesses += done.len() as u64;
                if !done.is_empty() {
                    divot_telemetry::add("membus.leaked_accesses", done.len() as u64);
                }
            }
        }
        self.security.blocked_accesses = self.controller.module().stats().blocked;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Op;

    fn fast_config() -> ProtectionConfig {
        ProtectionConfig {
            monitor: MonitorConfig {
                enroll_count: 4,
                average_count: 2,
                fails_to_alarm: 1,
                ..MonitorConfig::default()
            },
            poll_interval: 2_000,
            ..ProtectionConfig::default()
        }
    }

    fn drive(system: &mut ProtectedMemorySystem, cycles: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut next_addr = 0u64;
        for cycle in 0..cycles {
            if cycle % 20 == 0 {
                system.submit(MemRequest {
                    id: cycle,
                    op: if cycle % 40 == 0 { Op::Write } else { Op::Read },
                    addr: next_addr,
                    data: cycle,
                    issue_cycle: cycle,
                });
                next_addr += 1;
            }
            done.extend(system.tick(cycle));
        }
        done
    }

    #[test]
    fn clean_bus_serves_normally() {
        let mut sys = ProtectedMemorySystem::new(1, fast_config());
        sys.calibrate();
        let done = drive(&mut sys, 10_000);
        assert!(done.len() > 400, "completions: {}", done.len());
        assert!(!sys.reacting());
        assert_eq!(sys.security().blocked_accesses, 0);
        assert_eq!(sys.security().detection_latency(), None);
    }

    #[test]
    fn wiretap_is_detected_and_blocks() {
        let mut sys = ProtectedMemorySystem::new(2, fast_config());
        sys.set_scenario(vec![ScenarioEvent::Attack {
            at_cycle: 5_000,
            attack: Attack::paper_wiretap(),
        }]);
        sys.calibrate();
        drive(&mut sys, 20_000);
        assert!(sys.reacting(), "wiretap must trigger the reaction");
        let latency = sys.security().detection_latency().expect("detected");
        // Detected within a few polls of the attack.
        assert!(
            latency <= 4 * fast_config().poll_interval,
            "latency={latency}"
        );
        // Once reacting, no further work completes.
        let before = sys.controller().stats().completed;
        drive_more(&mut sys, 20_000, 24_000);
        assert_eq!(sys.controller().stats().completed, before);
    }

    #[test]
    fn module_gate_blocks_attacker_controller() {
        // Cold-boot threat model: the module sits on an attacker's system;
        // only the module-side iTDR defends it. The CPU side (the
        // attacker's controller) never stalls itself.
        let mut cfg = fast_config();
        cfg.cpu_side = false;
        let mut sys = ProtectedMemorySystem::new(7, cfg);
        sys.set_scenario(vec![ScenarioEvent::ColdBootSwap {
            at_cycle: 5_000,
            foreign_seed: 4242,
        }]);
        sys.calibrate();
        drive(&mut sys, 20_000);
        assert!(!sys.controller().stalled(), "attacker CPU never stalls");
        assert!(
            sys.controller().module().gate_blocked(),
            "module-side gate must close"
        );
        assert!(
            sys.security().blocked_accesses > 0,
            "the attacker's column accesses must be rejected"
        );
    }

    #[test]
    fn cold_boot_swap_blocks_and_recovers_on_restore() {
        let mut sys = ProtectedMemorySystem::new(3, fast_config());
        sys.set_scenario(vec![
            ScenarioEvent::ColdBootSwap {
                at_cycle: 4_000,
                foreign_seed: 999,
            },
            ScenarioEvent::Restore { at_cycle: 14_000 },
        ]);
        sys.calibrate();
        drive(&mut sys, 12_000);
        assert!(sys.reacting(), "swap must trigger the reaction");
        drive_more(&mut sys, 12_000, 24_000);
        assert!(!sys.reacting(), "restore should recover");
    }

    fn drive_more(system: &mut ProtectedMemorySystem, from: u64, to: u64) {
        for cycle in from..to {
            system.tick(cycle);
        }
    }

    #[test]
    fn unprotected_baseline_never_blocks() {
        let mut cfg = fast_config();
        cfg.enabled = false;
        let mut sys = ProtectedMemorySystem::new(4, cfg);
        sys.set_scenario(vec![ScenarioEvent::Attack {
            at_cycle: 1_000,
            attack: Attack::paper_wiretap(),
        }]);
        sys.calibrate();
        let done = drive(&mut sys, 10_000);
        // The attack happens, nobody notices: data keeps flowing (leaks).
        assert!(!sys.reacting());
        assert!(done.len() > 400);
        assert!(sys.security().leaked_accesses > 0);
        assert_eq!(sys.security().detection_latency(), None);
    }

    #[test]
    fn leaked_window_is_bounded_by_poll_interval() {
        let mut sys = ProtectedMemorySystem::new(5, fast_config());
        sys.set_scenario(vec![ScenarioEvent::Attack {
            at_cycle: 5_000,
            attack: Attack::paper_wiretap(),
        }]);
        sys.calibrate();
        drive(&mut sys, 20_000);
        // One access per 20 cycles; reaction within ~2 polls ⇒ leaked
        // bounded by ~2×2000/20 plus in-flight.
        assert!(
            sys.security().leaked_accesses < 450,
            "leaked={}",
            sys.security().leaked_accesses
        );
    }

    #[test]
    #[should_panic(expected = "calibrate() must run")]
    fn tick_requires_calibration() {
        let mut sys = ProtectedMemorySystem::new(6, fast_config());
        let _ = sys.tick(0);
    }
}
