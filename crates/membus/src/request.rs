//! Memory requests and physical address mapping.

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A read request.
    Read,
    /// A write request (carries the data to store).
    Write,
}

/// One memory request entering the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Unique request id (monotone per workload).
    pub id: u64,
    /// Read or write.
    pub op: Op,
    /// Physical address (word-addressed).
    pub addr: u64,
    /// Write data (ignored for reads).
    pub data: u64,
    /// Cycle the request entered the controller queue.
    pub issue_cycle: u64,
}

/// The decoded DRAM coordinates of an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decoded {
    /// Bank index.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column index within the row.
    pub col: u64,
}

/// Row:Bank:Column address interleaving.
///
/// Low bits select the column (locality within a row), middle bits the
/// bank (spreads consecutive rows across banks), high bits the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    /// log2 of columns per row.
    pub col_bits: u32,
    /// log2 of banks.
    pub bank_bits: u32,
    /// log2 of rows per bank.
    pub row_bits: u32,
}

impl Default for AddressMap {
    fn default() -> Self {
        // 8 banks × 32768 rows × 1024 columns = 2^28 words.
        Self {
            col_bits: 10,
            bank_bits: 3,
            row_bits: 15,
        }
    }
}

impl AddressMap {
    /// Total addressable words.
    pub fn capacity(&self) -> u64 {
        1u64 << (self.col_bits + self.bank_bits + self.row_bits)
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        1usize << self.bank_bits
    }

    /// Decode an address. Addresses beyond capacity wrap (the model has no
    /// MMU).
    pub fn decode(&self, addr: u64) -> Decoded {
        let a = addr & (self.capacity() - 1);
        let col = a & ((1 << self.col_bits) - 1);
        let bank = ((a >> self.col_bits) & ((1 << self.bank_bits) - 1)) as usize;
        let row = a >> (self.col_bits + self.bank_bits);
        Decoded { bank, row, col }
    }

    /// Re-encode DRAM coordinates into an address (inverse of
    /// [`AddressMap::decode`]).
    pub fn encode(&self, d: Decoded) -> u64 {
        (d.row << (self.col_bits + self.bank_bits)) | ((d.bank as u64) << self.col_bits) | d.col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry() {
        let m = AddressMap::default();
        assert_eq!(m.banks(), 8);
        assert_eq!(m.capacity(), 1 << 28);
    }

    #[test]
    fn decode_encode_round_trip() {
        let m = AddressMap::default();
        for addr in [0u64, 1, 1023, 1024, 123_456_789, (1 << 28) - 1] {
            let d = m.decode(addr);
            assert_eq!(m.encode(d), addr, "addr={addr}");
        }
    }

    #[test]
    fn consecutive_addresses_share_a_row() {
        let m = AddressMap::default();
        let a = m.decode(512);
        let b = m.decode(513);
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.row, b.row);
        assert_eq!(b.col, a.col + 1);
    }

    #[test]
    fn row_crossings_switch_banks() {
        let m = AddressMap::default();
        let a = m.decode(1023);
        let b = m.decode(1024);
        assert_ne!(a.bank, b.bank);
    }

    #[test]
    fn addresses_wrap_at_capacity() {
        let m = AddressMap::default();
        assert_eq!(m.decode(0), m.decode(m.capacity()));
    }
}
