//! The CPU-side memory controller.
//!
//! Owns the scheduler and drives the command bus into the SDRAM module,
//! one command per cycle. Carries the two §III reaction hooks:
//!
//! * **CPU-side stall** ([`MemoryController::set_stall`]): when the CPU's
//!   iTDR stops trusting the bus, the controller stops issuing memory
//!   operations "until the newly collected fingerprint matches the one
//!   stored in the ROM again".
//! * **Module-side gate**: the module itself may reject column accesses
//!   (its own iTDR's decision); the controller counts those blocks and
//!   requeues the request.

use crate::dram::{CommandError, DramModule, DramTiming};
use crate::request::{AddressMap, MemRequest, Op};
use crate::scheduler::{Decision, Scheduler, SchedulerConfig};

/// A finished request leaving the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request id.
    pub id: u64,
    /// Read data (echoed write data for writes).
    pub data: u64,
    /// Read or write.
    pub op: Op,
    /// Total cycles from queue entry to data on the bus.
    pub latency: u64,
}

/// Controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Commands issued on the command bus.
    pub commands_issued: u64,
    /// Requests completed.
    pub completed: u64,
    /// Sum of completion latencies (cycles).
    pub total_latency: u64,
    /// Cycles the controller was stalled by the CPU-side DIVOT reaction.
    pub stall_cycles: u64,
    /// Column accesses rejected by the module-side DIVOT gate.
    pub gate_rejections: u64,
}

impl ControllerStats {
    /// Mean completion latency in cycles (0 if none completed).
    pub fn mean_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.completed as f64
        }
    }
}

/// The memory controller plus its attached module.
#[derive(Debug, Clone)]
pub struct MemoryController {
    scheduler: Scheduler,
    module: DramModule,
    map: AddressMap,
    in_flight: Vec<(MemRequest, u64, u64)>, // (request, ready_at, data)
    stalled: bool,
    stats: ControllerStats,
}

impl MemoryController {
    /// Build a controller with default DDR3-class timing.
    pub fn new(map: AddressMap, scheduler: SchedulerConfig, timing: DramTiming) -> Self {
        Self {
            scheduler: Scheduler::new(map, scheduler),
            module: DramModule::new(timing, map),
            map,
            in_flight: Vec::new(),
            stalled: false,
            stats: ControllerStats::default(),
        }
    }

    /// Submit a request; returns `false` (request dropped) if the queue is
    /// full — callers model backpressure.
    pub fn submit(&mut self, req: MemRequest) -> bool {
        self.scheduler.enqueue(req).is_ok()
    }

    /// Number of queued (not yet issued) requests.
    pub fn queued(&self) -> usize {
        self.scheduler.len()
    }

    /// Whether all work has drained.
    pub fn is_idle(&self) -> bool {
        self.scheduler.is_empty() && self.in_flight.is_empty()
    }

    /// CPU-side DIVOT reaction: stop/resume issuing memory operations.
    pub fn set_stall(&mut self, stalled: bool) {
        self.stalled = stalled;
    }

    /// Whether the controller is stalled.
    pub fn stalled(&self) -> bool {
        self.stalled
    }

    /// The attached module.
    pub fn module(&self) -> &DramModule {
        &self.module
    }

    /// Mutable access to the module (for the module-side monitor's gate).
    pub fn module_mut(&mut self) -> &mut DramModule {
        &mut self.module
    }

    /// Statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// The address map in use.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Advance one cycle: collect completions due at `now`, then (unless
    /// stalled) issue at most one command.
    pub fn tick(&mut self, now: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].1 <= now {
                let (req, _, data) = self.in_flight.swap_remove(i);
                self.stats.completed += 1;
                let latency = now - req.issue_cycle;
                self.stats.total_latency += latency;
                done.push(Completion {
                    id: req.id,
                    data,
                    op: req.op,
                    latency,
                });
            } else {
                i += 1;
            }
        }

        if self.stalled {
            if !self.scheduler.is_empty() {
                self.stats.stall_cycles += 1;
            }
            return done;
        }

        let refresh_period = self.module.timing().t_refi;
        match self.scheduler.decide(&self.module, now, refresh_period) {
            Decision::Idle => {}
            Decision::Issue(cmd, serving) => match self.module.issue(cmd, now) {
                Ok(result) => {
                    self.stats.commands_issued += 1;
                    if let (Some(req), Some(access)) = (serving, result) {
                        self.in_flight.push((req, access.ready_at, access.data));
                    }
                }
                Err(CommandError::AccessBlocked) => {
                    self.stats.gate_rejections += 1;
                    if let Some(req) = serving {
                        self.scheduler.requeue_front(req);
                    }
                }
                Err(_) => {
                    // Timing race (e.g. refresh landed between decide and
                    // issue): retry next cycle.
                    if let Some(req) = serving {
                        self.scheduler.requeue_front(req);
                    }
                }
            },
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> MemoryController {
        MemoryController::new(
            AddressMap::default(),
            SchedulerConfig {
                refresh_enabled: false,
                ..SchedulerConfig::default()
            },
            DramTiming::default(),
        )
    }

    fn run_until_idle(c: &mut MemoryController, start: u64, max: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        for cycle in start..start + max {
            done.extend(c.tick(cycle));
            if c.is_idle() {
                break;
            }
        }
        done
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut c = controller();
        c.submit(MemRequest {
            id: 1,
            op: Op::Write,
            addr: 777,
            data: 0xABCD,
            issue_cycle: 0,
        });
        run_until_idle(&mut c, 0, 200);
        c.submit(MemRequest {
            id: 2,
            op: Op::Read,
            addr: 777,
            data: 0,
            issue_cycle: 200,
        });
        let done = run_until_idle(&mut c, 200, 200);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 2);
        assert_eq!(done[0].data, 0xABCD);
        assert_eq!(c.stats().completed, 2);
    }

    #[test]
    fn row_hit_latency_is_lower_than_miss() {
        let mut c = controller();
        // Miss: ACT (tRCD 11) + CAS 11 ≈ 22+.
        c.submit(MemRequest {
            id: 1,
            op: Op::Read,
            addr: 0,
            data: 0,
            issue_cycle: 0,
        });
        let first = run_until_idle(&mut c, 0, 200)[0];
        // Hit on the already-open row.
        c.submit(MemRequest {
            id: 2,
            op: Op::Read,
            addr: 1,
            data: 0,
            issue_cycle: 300,
        });
        let second = run_until_idle(&mut c, 300, 200)[0];
        assert!(
            second.latency < first.latency,
            "hit {} vs miss {}",
            second.latency,
            first.latency
        );
        assert!(first.latency >= 22);
    }

    #[test]
    fn stall_freezes_issue_and_counts() {
        let mut c = controller();
        c.set_stall(true);
        c.submit(MemRequest {
            id: 1,
            op: Op::Read,
            addr: 0,
            data: 0,
            issue_cycle: 0,
        });
        for cycle in 0..50 {
            assert!(c.tick(cycle).is_empty());
        }
        assert_eq!(c.stats().commands_issued, 0);
        assert_eq!(c.stats().stall_cycles, 50);
        // Resume: the request completes.
        c.set_stall(false);
        let done = run_until_idle(&mut c, 50, 200);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn gate_blocks_are_counted_and_request_survives() {
        let mut c = controller();
        c.module_mut().set_access_gate(true);
        c.submit(MemRequest {
            id: 1,
            op: Op::Read,
            addr: 0,
            data: 0,
            issue_cycle: 0,
        });
        for cycle in 0..100 {
            c.tick(cycle);
        }
        assert!(c.stats().gate_rejections > 0);
        assert_eq!(c.stats().completed, 0);
        // Gate opens (attack cleared): the queued request finally serves.
        c.module_mut().set_access_gate(false);
        let done = run_until_idle(&mut c, 100, 200);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn refresh_steals_cycles_but_work_completes() {
        let mut c = MemoryController::new(
            AddressMap::default(),
            SchedulerConfig::default(),
            DramTiming::default(),
        );
        for k in 0..8u64 {
            c.submit(MemRequest {
                id: k,
                op: Op::Write,
                addr: k * 3,
                data: k,
                issue_cycle: 0,
            });
        }
        let done = run_until_idle(&mut c, 0, 5000);
        assert_eq!(done.len(), 8);
        assert!(c.module().stats().refreshes > 0);
    }

    #[test]
    fn mean_latency_math() {
        let stats = ControllerStats {
            completed: 4,
            total_latency: 100,
            ..ControllerStats::default()
        };
        assert_eq!(stats.mean_latency(), 25.0);
        assert_eq!(ControllerStats::default().mean_latency(), 0.0);
    }
}
