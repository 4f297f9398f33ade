//! The SDRAM module: banks, rows, timing state machines, backing store,
//! and the DIVOT column-access gate.
//!
//! The §III design adds the iTDR "aside the normal address decoding, sense
//! amplifier, and buffering logic"; at column access time, the column
//! address is **gated by the authentication result** so only the
//! authorized CPU and bus can read or write. [`DramModule::set_access_gate`]
//! is that gate; blocked accesses are counted and rejected.

use crate::command::DramCommand;
use crate::request::AddressMap;
use std::collections::HashMap;

/// DRAM timing parameters, in controller clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// Activate-to-column delay (tRCD).
    pub t_rcd: u64,
    /// Precharge time (tRP).
    pub t_rp: u64,
    /// Column access (CAS) latency.
    pub cas_latency: u64,
    /// Minimum row-open time before precharge (tRAS).
    pub t_ras: u64,
    /// Average refresh interval (tREFI).
    pub t_refi: u64,
    /// Refresh cycle time (tRFC).
    pub t_rfc: u64,
}

impl Default for DramTiming {
    fn default() -> Self {
        // DDR3-1600-class timings at an 800 MHz controller clock.
        Self {
            t_rcd: 11,
            t_rp: 11,
            cas_latency: 11,
            t_ras: 28,
            t_refi: 6240,
            t_rfc: 208,
        }
    }
}

/// The state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// No row open.
    Idle,
    /// A row is being opened; usable at `ready_at`.
    Opening {
        /// The row being opened.
        row: u64,
        /// First cycle column accesses are allowed.
        ready_at: u64,
        /// Cycle the ACTIVATE was issued (for tRAS accounting).
        opened_at: u64,
    },
    /// Precharge in progress; idle at `ready_at`.
    Closing {
        /// First cycle the bank is idle again.
        ready_at: u64,
    },
}

/// Why a command was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandError {
    /// The bank is not in a state that allows this command yet.
    BankBusy,
    /// Column access to a bank with no (or the wrong) open row.
    RowMismatch,
    /// A refresh is in progress.
    RefreshInProgress,
    /// Refresh requires all banks precharged.
    NotAllPrecharged,
    /// tRAS not yet satisfied for precharge.
    RowOpenTooShort,
    /// The DIVOT gate rejected the column access (authentication failed
    /// or tamper detected).
    AccessBlocked,
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CommandError::BankBusy => "bank busy",
            CommandError::RowMismatch => "row mismatch",
            CommandError::RefreshInProgress => "refresh in progress",
            CommandError::NotAllPrecharged => "refresh requires all banks precharged",
            CommandError::RowOpenTooShort => "tRAS not satisfied",
            CommandError::AccessBlocked => "access blocked by DIVOT gate",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CommandError {}

/// Completion notice for an accepted column access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnAccess {
    /// Data read (reads) or written (writes).
    pub data: u64,
    /// Cycle the data appears on the bus.
    pub ready_at: u64,
}

/// Access statistics of the module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleStats {
    /// Reads served.
    pub reads: u64,
    /// Writes served.
    pub writes: u64,
    /// Activates performed.
    pub activates: u64,
    /// Refreshes performed.
    pub refreshes: u64,
    /// Column accesses rejected by the DIVOT gate.
    pub blocked: u64,
}

/// The SDRAM module model.
#[derive(Debug, Clone)]
pub struct DramModule {
    timing: DramTiming,
    map: AddressMap,
    banks: Vec<BankState>,
    store: HashMap<(usize, u64, u64), u64>,
    refresh_until: u64,
    gate_blocked: bool,
    stats: ModuleStats,
}

impl DramModule {
    /// Create an idle module.
    pub fn new(timing: DramTiming, map: AddressMap) -> Self {
        Self {
            timing,
            map,
            banks: vec![BankState::Idle; map.banks()],
            store: HashMap::new(),
            refresh_until: 0,
            gate_blocked: false,
            stats: ModuleStats::default(),
        }
    }

    /// The timing parameters.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Effective state of bank `b` at cycle `now` (transient states that
    /// have completed are reported as their successor).
    pub fn bank_state(&self, b: usize, now: u64) -> BankState {
        match self.banks[b] {
            BankState::Closing { ready_at } if now >= ready_at => BankState::Idle,
            s => s,
        }
    }

    /// The open row of bank `b` at `now`, if column-accessible.
    pub fn open_row(&self, b: usize, now: u64) -> Option<u64> {
        match self.banks[b] {
            BankState::Opening { row, ready_at, .. } if now >= ready_at => Some(row),
            _ => None,
        }
    }

    /// Set the DIVOT column-access gate: `true` blocks all reads/writes.
    pub fn set_access_gate(&mut self, blocked: bool) {
        self.gate_blocked = blocked;
    }

    /// Whether the gate is currently blocking.
    pub fn gate_blocked(&self) -> bool {
        self.gate_blocked
    }

    /// Access statistics.
    pub fn stats(&self) -> &ModuleStats {
        &self.stats
    }

    /// Whether a refresh is in progress at `now`.
    pub fn refreshing(&self, now: u64) -> bool {
        now < self.refresh_until
    }

    /// Issue a command at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns a [`CommandError`] if the command violates bank state,
    /// timing, or is blocked by the DIVOT gate. Rejected commands have no
    /// effect (other than counting gate blocks).
    pub fn issue(
        &mut self,
        cmd: DramCommand,
        now: u64,
    ) -> Result<Option<ColumnAccess>, CommandError> {
        if self.refreshing(now) {
            return Err(CommandError::RefreshInProgress);
        }
        match cmd {
            DramCommand::Activate { bank, row } => match self.bank_state(bank, now) {
                BankState::Idle => {
                    self.banks[bank] = BankState::Opening {
                        row,
                        ready_at: now + self.timing.t_rcd,
                        opened_at: now,
                    };
                    self.stats.activates += 1;
                    Ok(None)
                }
                _ => Err(CommandError::BankBusy),
            },
            DramCommand::Precharge { bank } => match self.bank_state(bank, now) {
                BankState::Opening { opened_at, .. } => {
                    if now < opened_at + self.timing.t_ras {
                        return Err(CommandError::RowOpenTooShort);
                    }
                    self.banks[bank] = BankState::Closing {
                        ready_at: now + self.timing.t_rp,
                    };
                    Ok(None)
                }
                BankState::Idle => Ok(None), // precharge of idle bank is a no-op
                BankState::Closing { .. } => Err(CommandError::BankBusy),
            },
            DramCommand::Read { bank, col } => {
                let row = self.open_row(bank, now).ok_or(CommandError::RowMismatch)?;
                if self.gate_blocked {
                    self.stats.blocked += 1;
                    return Err(CommandError::AccessBlocked);
                }
                let data = self.store.get(&(bank, row, col)).copied().unwrap_or(0);
                self.stats.reads += 1;
                Ok(Some(ColumnAccess {
                    data,
                    ready_at: now + self.timing.cas_latency,
                }))
            }
            DramCommand::Write { bank, col, data } => {
                let row = self.open_row(bank, now).ok_or(CommandError::RowMismatch)?;
                if self.gate_blocked {
                    self.stats.blocked += 1;
                    return Err(CommandError::AccessBlocked);
                }
                self.store.insert((bank, row, col), data);
                self.stats.writes += 1;
                Ok(Some(ColumnAccess {
                    data,
                    ready_at: now + self.timing.cas_latency,
                }))
            }
            DramCommand::Refresh => {
                let all_idle = (0..self.banks.len())
                    .all(|b| matches!(self.bank_state(b, now), BankState::Idle));
                if !all_idle {
                    return Err(CommandError::NotAllPrecharged);
                }
                self.refresh_until = now + self.timing.t_rfc;
                self.stats.refreshes += 1;
                Ok(None)
            }
        }
    }

    /// Direct backing-store peek (testing/debug; not a bus access).
    pub fn peek(&self, addr: u64) -> Option<u64> {
        let d = self.map.decode(addr);
        self.store.get(&(d.bank, d.row, d.col)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> DramModule {
        DramModule::new(DramTiming::default(), AddressMap::default())
    }

    #[test]
    fn activate_then_read_round_trip() {
        let mut m = module();
        m.issue(DramCommand::Activate { bank: 0, row: 5 }, 0)
            .unwrap();
        // Before tRCD: column access rejected.
        assert_eq!(
            m.issue(DramCommand::Read { bank: 0, col: 3 }, 5),
            Err(CommandError::RowMismatch)
        );
        // After tRCD: write then read back.
        m.issue(
            DramCommand::Write {
                bank: 0,
                col: 3,
                data: 0xDEAD,
            },
            11,
        )
        .unwrap();
        let r = m
            .issue(DramCommand::Read { bank: 0, col: 3 }, 12)
            .unwrap()
            .unwrap();
        assert_eq!(r.data, 0xDEAD);
        assert_eq!(r.ready_at, 12 + 11);
    }

    #[test]
    fn unwritten_cells_read_zero() {
        let mut m = module();
        m.issue(DramCommand::Activate { bank: 1, row: 0 }, 0)
            .unwrap();
        let r = m
            .issue(DramCommand::Read { bank: 1, col: 0 }, 20)
            .unwrap()
            .unwrap();
        assert_eq!(r.data, 0);
    }

    #[test]
    fn wrong_row_is_rejected() {
        let mut m = module();
        m.issue(DramCommand::Activate { bank: 0, row: 5 }, 0)
            .unwrap();
        assert!(m.open_row(0, 11).is_some());
        // Activating again while open: busy.
        assert_eq!(
            m.issue(DramCommand::Activate { bank: 0, row: 6 }, 12),
            Err(CommandError::BankBusy)
        );
    }

    #[test]
    fn precharge_respects_tras() {
        let mut m = module();
        m.issue(DramCommand::Activate { bank: 0, row: 5 }, 0)
            .unwrap();
        assert_eq!(
            m.issue(DramCommand::Precharge { bank: 0 }, 10),
            Err(CommandError::RowOpenTooShort)
        );
        m.issue(DramCommand::Precharge { bank: 0 }, 28).unwrap();
        // Bank is closing, then idle after tRP.
        assert_eq!(m.bank_state(0, 30), BankState::Closing { ready_at: 39 });
        assert_eq!(m.bank_state(0, 39), BankState::Idle);
    }

    #[test]
    fn refresh_requires_all_precharged_and_blocks() {
        let mut m = module();
        m.issue(DramCommand::Activate { bank: 0, row: 1 }, 0)
            .unwrap();
        assert_eq!(
            m.issue(DramCommand::Refresh, 15),
            Err(CommandError::NotAllPrecharged)
        );
        m.issue(DramCommand::Precharge { bank: 0 }, 28).unwrap();
        m.issue(DramCommand::Refresh, 40).unwrap();
        assert!(m.refreshing(100));
        assert_eq!(
            m.issue(DramCommand::Activate { bank: 0, row: 1 }, 100),
            Err(CommandError::RefreshInProgress)
        );
        assert!(!m.refreshing(40 + 208));
    }

    #[test]
    fn divot_gate_blocks_column_access_only() {
        let mut m = module();
        m.issue(DramCommand::Activate { bank: 0, row: 5 }, 0)
            .unwrap();
        m.set_access_gate(true);
        // Row operations still work (the gate is at column access time,
        // §III), but data never moves.
        assert_eq!(
            m.issue(DramCommand::Read { bank: 0, col: 1 }, 15),
            Err(CommandError::AccessBlocked)
        );
        assert_eq!(
            m.issue(
                DramCommand::Write {
                    bank: 0,
                    col: 1,
                    data: 7
                },
                16
            ),
            Err(CommandError::AccessBlocked)
        );
        assert_eq!(m.stats().blocked, 2);
        assert_eq!(m.stats().reads, 0);
        // Unblocking restores service.
        m.set_access_gate(false);
        assert!(m.issue(DramCommand::Read { bank: 0, col: 1 }, 17).is_ok());
    }

    #[test]
    fn peek_reflects_writes() {
        let mut m = module();
        let map = AddressMap::default();
        let addr = 123_456;
        let d = map.decode(addr);
        m.issue(
            DramCommand::Activate {
                bank: d.bank,
                row: d.row,
            },
            0,
        )
        .unwrap();
        m.issue(
            DramCommand::Write {
                bank: d.bank,
                col: d.col,
                data: 42,
            },
            11,
        )
        .unwrap();
        assert_eq!(m.peek(addr), Some(42));
        assert_eq!(m.peek(addr + 1), None);
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", CommandError::AccessBlocked).contains("DIVOT"));
    }
}
