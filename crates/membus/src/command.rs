//! The DRAM command set carried on the (protected) command/address bus.

/// One command on the DRAM command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramCommand {
    /// Open `row` in `bank` (row access / sense).
    Activate {
        /// Target bank.
        bank: usize,
        /// Row to open.
        row: u64,
    },
    /// Close the open row in `bank`.
    Precharge {
        /// Target bank.
        bank: usize,
    },
    /// Column read from the open row.
    Read {
        /// Target bank.
        bank: usize,
        /// Column within the open row.
        col: u64,
    },
    /// Column write into the open row.
    Write {
        /// Target bank.
        bank: usize,
        /// Column within the open row.
        col: u64,
        /// Data to store.
        data: u64,
    },
    /// Refresh (all banks must be precharged).
    Refresh,
}

impl DramCommand {
    /// The bank a command targets, if bank-specific.
    pub fn bank(&self) -> Option<usize> {
        match *self {
            DramCommand::Activate { bank, .. }
            | DramCommand::Precharge { bank }
            | DramCommand::Read { bank, .. }
            | DramCommand::Write { bank, .. } => Some(bank),
            DramCommand::Refresh => None,
        }
    }

    /// Whether this is a column access (the operation DIVOT gates).
    pub fn is_column_access(&self) -> bool {
        matches!(self, DramCommand::Read { .. } | DramCommand::Write { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_extraction() {
        assert_eq!(DramCommand::Activate { bank: 3, row: 9 }.bank(), Some(3));
        assert_eq!(DramCommand::Refresh.bank(), None);
    }

    #[test]
    fn column_access_classification() {
        assert!(DramCommand::Read { bank: 0, col: 1 }.is_column_access());
        assert!(DramCommand::Write {
            bank: 0,
            col: 1,
            data: 0
        }
        .is_column_access());
        assert!(!DramCommand::Activate { bank: 0, row: 0 }.is_column_access());
        assert!(!DramCommand::Refresh.is_column_access());
    }
}
