//! Request queue and FR-FCFS command arbiter with refresh handling.
//!
//! The §III design places the iTDR "working together with reference queue,
//! arbiter, scheduler, refresh, and precharge logic" — this module is that
//! surrounding controller logic. The arbiter is first-ready, first-come
//! first-served (FR-FCFS, Rixner et al., cited by the paper): row hits are
//! served before older row misses, subject to bank timing and periodic
//! refresh.

use crate::command::DramCommand;
use crate::dram::{BankState, DramModule};
use crate::request::{AddressMap, MemRequest, Op};
use std::collections::VecDeque;

/// Command-arbitration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterPolicy {
    /// First-ready, first-come first-served: row hits bypass older misses
    /// (the paper's cited Rixner et al. scheduler).
    FrFcfs,
    /// Strict first-come first-served: requests issue in arrival order.
    Fcfs,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PagePolicy {
    /// Leave rows open after column accesses (bets on locality).
    OpenPage,
    /// Precharge a bank as soon as no queued request wants its open row
    /// (bets against locality; lowers miss latency).
    ClosedPage,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum queued requests.
    pub queue_capacity: usize,
    /// Whether periodic refresh is generated.
    pub refresh_enabled: bool,
    /// Command arbitration policy.
    pub arbiter: ArbiterPolicy,
    /// Row-buffer management policy.
    pub page: PagePolicy,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 32,
            refresh_enabled: true,
            arbiter: ArbiterPolicy::FrFcfs,
            page: PagePolicy::OpenPage,
        }
    }
}

/// Error returned when the request queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFullError;

impl std::fmt::Display for QueueFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("request queue is full")
    }
}

impl std::error::Error for QueueFullError {}

/// The scheduler's decision for this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Issue this command; if it is a column access, it serves the
    /// attached request.
    Issue(DramCommand, Option<MemRequest>),
    /// Nothing can usefully issue this cycle.
    Idle,
}

/// The FR-FCFS scheduler.
#[derive(Debug, Clone)]
pub struct Scheduler {
    queue: VecDeque<MemRequest>,
    map: AddressMap,
    config: SchedulerConfig,
    next_refresh_due: u64,
}

impl Scheduler {
    /// Create an empty scheduler.
    pub fn new(map: AddressMap, config: SchedulerConfig) -> Self {
        Self {
            queue: VecDeque::with_capacity(config.queue_capacity),
            map,
            config,
            next_refresh_due: 0,
        }
    }

    /// Queue occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether the queue is full.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.config.queue_capacity
    }

    /// Enqueue a request.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when at capacity.
    pub fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFullError> {
        if self.is_full() {
            return Err(QueueFullError);
        }
        self.queue.push_back(req);
        Ok(())
    }

    /// Put a request back at the head (used when the module rejected a
    /// column access, e.g. the DIVOT gate blocked it).
    pub fn requeue_front(&mut self, req: MemRequest) {
        self.queue.push_front(req);
    }

    /// Decide the command to issue at cycle `now` given the module state.
    pub fn decide(&mut self, module: &DramModule, now: u64, refresh_period: u64) -> Decision {
        // 1. Refresh has priority once due.
        if self.config.refresh_enabled && now >= self.next_refresh_due {
            let all_idle =
                (0..self.map.banks()).all(|b| matches!(module.bank_state(b, now), BankState::Idle));
            if all_idle {
                if module.refreshing(now) {
                    return Decision::Idle;
                }
                self.next_refresh_due = now + refresh_period;
                return Decision::Issue(DramCommand::Refresh, None);
            }
            // Drain: precharge any open bank whose tRAS is satisfied.
            for b in 0..self.map.banks() {
                if let BankState::Opening { opened_at, .. } = module.bank_state(b, now) {
                    if now >= opened_at + module.timing().t_ras {
                        return Decision::Issue(DramCommand::Precharge { bank: b }, None);
                    }
                }
            }
            return Decision::Idle;
        }

        if module.refreshing(now) {
            return Decision::Idle;
        }

        // 2. First ready: oldest row-hit column access. Under strict FCFS
        // only the head of the queue is eligible.
        let hit_window = match self.config.arbiter {
            ArbiterPolicy::FrFcfs => self.queue.len(),
            ArbiterPolicy::Fcfs => self.queue.len().min(1),
        };
        for i in 0..hit_window {
            let req = self.queue[i];
            let d = self.map.decode(req.addr);
            if module.open_row(d.bank, now) == Some(d.row) {
                let req = self.queue.remove(i).expect("index in range");
                let cmd = match req.op {
                    Op::Read => DramCommand::Read {
                        bank: d.bank,
                        col: d.col,
                    },
                    Op::Write => DramCommand::Write {
                        bank: d.bank,
                        col: d.col,
                        data: req.data,
                    },
                };
                return Decision::Issue(cmd, Some(req));
            }
        }

        // 2b. Closed-page housekeeping: precharge any open row no queued
        // request wants.
        if self.config.page == PagePolicy::ClosedPage {
            for b in 0..self.map.banks() {
                if let Some(open) = module.open_row(b, now) {
                    let wanted = self.queue.iter().any(|r| {
                        let d = self.map.decode(r.addr);
                        d.bank == b && d.row == open
                    });
                    if !wanted {
                        if let BankState::Opening { opened_at, .. } = module.bank_state(b, now) {
                            if now >= opened_at + module.timing().t_ras {
                                return Decision::Issue(DramCommand::Precharge { bank: b }, None);
                            }
                        }
                    }
                }
            }
        }

        // 3. First come: prepare the oldest request's bank.
        if let Some(&req) = self.queue.front() {
            let d = self.map.decode(req.addr);
            match module.bank_state(d.bank, now) {
                BankState::Idle => {
                    return Decision::Issue(
                        DramCommand::Activate {
                            bank: d.bank,
                            row: d.row,
                        },
                        None,
                    );
                }
                BankState::Opening { row, opened_at, .. }
                    if row != d.row && now >= opened_at + module.timing().t_ras =>
                {
                    return Decision::Issue(DramCommand::Precharge { bank: d.bank }, None);
                }
                _ => {}
            }
        }
        Decision::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramTiming;

    fn setup() -> (Scheduler, DramModule, AddressMap) {
        let map = AddressMap::default();
        (
            Scheduler::new(
                map,
                SchedulerConfig {
                    refresh_enabled: false,
                    ..SchedulerConfig::default()
                },
            ),
            DramModule::new(DramTiming::default(), map),
            map,
        )
    }

    fn req(id: u64, addr: u64, op: Op) -> MemRequest {
        MemRequest {
            id,
            op,
            addr,
            data: id,
            issue_cycle: 0,
        }
    }

    #[test]
    fn empty_queue_idles() {
        let (mut s, m, _) = setup();
        assert_eq!(s.decide(&m, 0, 6240), Decision::Idle);
    }

    #[test]
    fn cold_bank_gets_activate_then_column() {
        let (mut s, mut m, map) = setup();
        s.enqueue(req(1, 2048, Op::Read)).unwrap();
        let d = map.decode(2048);
        match s.decide(&m, 0, 6240) {
            Decision::Issue(DramCommand::Activate { bank, row }, None) => {
                assert_eq!((bank, row), (d.bank, d.row));
                m.issue(DramCommand::Activate { bank, row }, 0).unwrap();
            }
            other => panic!("expected activate, got {other:?}"),
        }
        // Until tRCD the scheduler waits.
        assert_eq!(s.decide(&m, 5, 6240), Decision::Idle);
        match s.decide(&m, 11, 6240) {
            Decision::Issue(DramCommand::Read { bank, col }, Some(r)) => {
                assert_eq!((bank, col), (d.bank, d.col));
                assert_eq!(r.id, 1);
            }
            other => panic!("expected read, got {other:?}"),
        }
        assert!(s.is_empty());
    }

    #[test]
    fn row_hits_bypass_older_misses() {
        let (mut s, mut m, map) = setup();
        // Open row for request 2's address first.
        let hit_addr = 4096;
        let d = map.decode(hit_addr);
        m.issue(
            DramCommand::Activate {
                bank: d.bank,
                row: d.row,
            },
            0,
        )
        .unwrap();
        // Queue: old miss (different bank), then young hit.
        let miss_addr = hit_addr + (1 << 10); // next bank
        s.enqueue(req(1, miss_addr, Op::Read)).unwrap();
        s.enqueue(req(2, hit_addr, Op::Write)).unwrap();
        match s.decide(&m, 11, 6240) {
            Decision::Issue(DramCommand::Write { bank, .. }, Some(r)) => {
                assert_eq!(bank, d.bank);
                assert_eq!(r.id, 2, "row hit should bypass the older miss");
            }
            other => panic!("expected write hit, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_row_precharges_after_tras() {
        let (mut s, mut m, map) = setup();
        let addr_a = 0u64;
        let d = map.decode(addr_a);
        // Open a different row in the same bank.
        m.issue(
            DramCommand::Activate {
                bank: d.bank,
                row: d.row + 1,
            },
            0,
        )
        .unwrap();
        s.enqueue(req(1, addr_a, Op::Read)).unwrap();
        // Before tRAS: idle; after: precharge.
        assert_eq!(s.decide(&m, 10, 6240), Decision::Idle);
        match s.decide(&m, 28, 6240) {
            Decision::Issue(DramCommand::Precharge { bank }, None) => {
                assert_eq!(bank, d.bank)
            }
            other => panic!("expected precharge, got {other:?}"),
        }
    }

    #[test]
    fn refresh_takes_priority_when_due() {
        let map = AddressMap::default();
        let mut s = Scheduler::new(map, SchedulerConfig::default());
        let m = DramModule::new(DramTiming::default(), map);
        // All banks idle at time 0 and refresh due immediately.
        match s.decide(&m, 0, 6240) {
            Decision::Issue(DramCommand::Refresh, None) => {}
            other => panic!("expected refresh, got {other:?}"),
        }
        // Next refresh scheduled one period out.
        s.enqueue(req(1, 0, Op::Read)).unwrap();
        match s.decide(&m, 1, 6240) {
            Decision::Issue(DramCommand::Activate { .. }, None) => {}
            other => panic!("expected activate after refresh scheduled, got {other:?}"),
        }
    }

    #[test]
    fn queue_capacity_enforced() {
        let map = AddressMap::default();
        let mut s = Scheduler::new(
            map,
            SchedulerConfig {
                queue_capacity: 2,
                refresh_enabled: false,
                ..SchedulerConfig::default()
            },
        );
        s.enqueue(req(1, 0, Op::Read)).unwrap();
        s.enqueue(req(2, 1, Op::Read)).unwrap();
        assert!(s.is_full());
        assert_eq!(s.enqueue(req(3, 2, Op::Read)), Err(QueueFullError));
    }

    #[test]
    fn requeue_front_preserves_priority() {
        let (mut s, _, _) = setup();
        s.enqueue(req(2, 100, Op::Read)).unwrap();
        s.requeue_front(req(1, 50, Op::Read));
        assert_eq!(s.len(), 2);
        // Front request is the requeued one.
        let front = s.queue.front().unwrap();
        assert_eq!(front.id, 1);
    }

    #[test]
    fn fcfs_serves_strictly_in_order() {
        let map = AddressMap::default();
        let mut s = Scheduler::new(
            map,
            SchedulerConfig {
                refresh_enabled: false,
                arbiter: ArbiterPolicy::Fcfs,
                ..SchedulerConfig::default()
            },
        );
        let mut m = DramModule::new(DramTiming::default(), map);
        // Open the row of the *younger* request.
        let hit_addr = 4096u64;
        let d = map.decode(hit_addr);
        m.issue(
            DramCommand::Activate {
                bank: d.bank,
                row: d.row,
            },
            0,
        )
        .unwrap();
        let miss_addr = hit_addr + (1 << 10);
        s.enqueue(req(1, miss_addr, Op::Read)).unwrap();
        s.enqueue(req(2, hit_addr, Op::Read)).unwrap();
        // FCFS does NOT let the younger hit bypass: it prepares the head's
        // bank instead.
        match s.decide(&m, 11, 6240) {
            Decision::Issue(DramCommand::Activate { bank, .. }, None) => {
                assert_eq!(bank, map.decode(miss_addr).bank);
            }
            other => panic!("expected head-of-line activate, got {other:?}"),
        }
    }

    #[test]
    fn closed_page_precharges_unwanted_rows() {
        let map = AddressMap::default();
        let mut s = Scheduler::new(
            map,
            SchedulerConfig {
                refresh_enabled: false,
                page: PagePolicy::ClosedPage,
                ..SchedulerConfig::default()
            },
        );
        let mut m = DramModule::new(DramTiming::default(), map);
        // A row is open that nobody in the queue wants.
        m.issue(DramCommand::Activate { bank: 3, row: 17 }, 0)
            .unwrap();
        // After tRAS, the closed-page scheduler closes it even with an
        // empty queue.
        match s.decide(&m, 30, 6240) {
            Decision::Issue(DramCommand::Precharge { bank }, None) => {
                assert_eq!(bank, 3)
            }
            other => panic!("expected closed-page precharge, got {other:?}"),
        }
        // Open-page leaves it alone.
        let mut open = Scheduler::new(
            map,
            SchedulerConfig {
                refresh_enabled: false,
                ..SchedulerConfig::default()
            },
        );
        assert_eq!(open.decide(&m, 30, 6240), Decision::Idle);
    }

    #[test]
    fn closed_page_keeps_wanted_rows_open() {
        let map = AddressMap::default();
        let mut s = Scheduler::new(
            map,
            SchedulerConfig {
                refresh_enabled: false,
                page: PagePolicy::ClosedPage,
                ..SchedulerConfig::default()
            },
        );
        let mut m = DramModule::new(DramTiming::default(), map);
        let addr = 4096u64;
        let d = map.decode(addr);
        m.issue(
            DramCommand::Activate {
                bank: d.bank,
                row: d.row,
            },
            0,
        )
        .unwrap();
        s.enqueue(req(1, addr, Op::Read)).unwrap();
        // The queued request wants the open row: serve it, don't close it.
        match s.decide(&m, 30, 6240) {
            Decision::Issue(DramCommand::Read { bank, .. }, Some(_)) => {
                assert_eq!(bank, d.bank)
            }
            other => panic!("expected read hit, got {other:?}"),
        }
    }
}
