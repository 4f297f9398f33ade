//! Channel encodings: 8b/10b and LFSR scrambling.
//!
//! Paper §II-E: "most high-speed interfaces apply channel encoding to
//! ensure that different symbols occur evenly. Therefore … the number of
//! rising edges approximately equals the number of falling edges" — which
//! is exactly why DIVOT must trigger on a single edge polarity. This
//! module implements the two standard mechanisms so that premise is
//! *checkable* rather than assumed:
//!
//! * [`Encoder8b10b`] — the classic IBM 8b/10b block code (5b/6b + 3b/4b
//!   sub-blocks with running disparity): DC-balanced, run-length ≤ 5.
//! * [`Scrambler`] — a self-synchronizing LFSR scrambler (x³² + x²² +
//!   x² + x + 1, the PCIe/SATA family polynomial style), which whitens
//!   payload bits multiplicatively.

/// 5b/6b encoding table, indexed by the low 5 bits (EDCBA). Each entry is
/// `(abcdei_rd_minus, abcdei_rd_plus)` — the 6-bit codes used when the
/// running disparity is −1 / +1.
const T_5B6B: [(u8, u8); 32] = [
    (0b100111, 0b011000), // D.00
    (0b011101, 0b100010), // D.01
    (0b101101, 0b010010), // D.02
    (0b110001, 0b110001), // D.03
    (0b110101, 0b001010), // D.04
    (0b101001, 0b101001), // D.05
    (0b011001, 0b011001), // D.06
    (0b111000, 0b000111), // D.07
    (0b111001, 0b000110), // D.08
    (0b100101, 0b100101), // D.09
    (0b010101, 0b010101), // D.10
    (0b110100, 0b110100), // D.11
    (0b001101, 0b001101), // D.12
    (0b101100, 0b101100), // D.13
    (0b011100, 0b011100), // D.14
    (0b010111, 0b101000), // D.15
    (0b011011, 0b100100), // D.16
    (0b100011, 0b100011), // D.17
    (0b010011, 0b010011), // D.18
    (0b110010, 0b110010), // D.19
    (0b001011, 0b001011), // D.20
    (0b101010, 0b101010), // D.21
    (0b011010, 0b011010), // D.22
    (0b111010, 0b000101), // D.23
    (0b110011, 0b001100), // D.24
    (0b100110, 0b100110), // D.25
    (0b010110, 0b010110), // D.26
    (0b110110, 0b001001), // D.27
    (0b001110, 0b001110), // D.28
    (0b101110, 0b010001), // D.29
    (0b011110, 0b100001), // D.30
    (0b101011, 0b010100), // D.31
];

/// 3b/4b encoding table, indexed by the high 3 bits (HGF). Each entry is
/// `(fghj_rd_minus, fghj_rd_plus)`.
const T_3B4B: [(u8, u8); 8] = [
    (0b1011, 0b0100), // D.x.0
    (0b1001, 0b1001), // D.x.1
    (0b0101, 0b0101), // D.x.2
    (0b1100, 0b0011), // D.x.3
    (0b1101, 0b0010), // D.x.4
    (0b1010, 0b1010), // D.x.5
    (0b0110, 0b0110), // D.x.6
    (0b1110, 0b0001), // D.x.7 (primary; alternate D.x.A7 not needed for
                      // the statistics this crate studies)
];

fn ones(v: u16, bits: u32) -> i32 {
    (v & ((1 << bits) - 1)).count_ones() as i32
}

/// A running-disparity 8b/10b encoder (data characters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Encoder8b10b {
    /// Current running disparity: `false` = RD−, `true` = RD+.
    rd_plus: bool,
}

impl Default for Encoder8b10b {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder8b10b {
    /// A fresh encoder starting at RD−.
    pub fn new() -> Self {
        Self { rd_plus: false }
    }

    /// The current running disparity (`true` = RD+).
    pub fn running_disparity_plus(&self) -> bool {
        self.rd_plus
    }

    /// Encode one data byte into a 10-bit symbol (bit 9 first on the
    /// wire: abcdeifghj).
    pub fn encode(&mut self, byte: u8) -> u16 {
        let low5 = (byte & 0x1F) as usize;
        let high3 = (byte >> 5) as usize;

        let (m6, p6) = T_5B6B[low5];
        let six = if self.rd_plus { p6 } else { m6 } as u16;
        let disp6 = ones(six, 6) - 3; // −2, 0, or +2
        if disp6 != 0 {
            self.rd_plus = disp6 > 0;
        }

        let (m4, p4) = T_3B4B[high3];
        let four = if self.rd_plus { p4 } else { m4 } as u16;
        let disp4 = ones(four, 4) - 2;
        if disp4 != 0 {
            self.rd_plus = disp4 > 0;
        }

        (six << 4) | four
    }

    /// Encode a byte stream into wire bits (MSB of each 10-bit symbol
    /// first).
    pub fn encode_stream(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut bits = Vec::with_capacity(bytes.len() * 10);
        for &b in bytes {
            let sym = self.encode(b);
            for k in (0..10).rev() {
                bits.push(((sym >> k) & 1) as u8);
            }
        }
        bits
    }
}

/// A multiplicative (self-synchronizing) LFSR scrambler using the
/// polynomial `x^32 + x^22 + x^2 + x + 1` style feedback (PCIe/SATA
/// family), seeded non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scrambler {
    state: u32,
}

impl Scrambler {
    /// Create a scrambler with the given non-zero seed.
    ///
    /// # Panics
    ///
    /// Panics if `seed == 0` (an all-zero LFSR never advances).
    pub fn new(seed: u32) -> Self {
        assert!(seed != 0, "LFSR seed must be non-zero");
        Self { state: seed }
    }

    fn next_bit(&mut self) -> u8 {
        // Taps at 32, 22, 2, 1 (1-indexed from the output).
        let b = ((self.state >> 31) ^ (self.state >> 21) ^ (self.state >> 1) ^ self.state) & 1;
        self.state = (self.state << 1) | b;
        b as u8
    }

    /// Scramble (or, symmetrically, descramble) a bit stream in place.
    pub fn scramble_bits(&mut self, bits: &mut [u8]) {
        for bit in bits {
            *bit ^= self.next_bit();
        }
    }

    /// Scramble a byte stream, returning wire bits (MSB first per byte).
    pub fn scramble_bytes(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut bits = Vec::with_capacity(bytes.len() * 8);
        for &b in bytes {
            for k in (0..8).rev() {
                bits.push((b >> k) & 1);
            }
        }
        self.scramble_bits(&mut bits);
        bits
    }
}

/// Edge statistics of a bit stream: `(rising, falling)` transition counts.
pub fn edge_counts(bits: &[u8]) -> (usize, usize) {
    let mut rising = 0;
    let mut falling = 0;
    for w in bits.windows(2) {
        match (w[0], w[1]) {
            (0, 1) => rising += 1,
            (1, 0) => falling += 1,
            _ => {}
        }
    }
    (rising, falling)
}

/// Longest run of identical bits in a stream.
pub fn max_run_length(bits: &[u8]) -> usize {
    let mut best = 0;
    let mut run = 0;
    let mut prev = None;
    for &b in bits {
        if Some(b) == prev {
            run += 1;
        } else {
            run = 1;
            prev = Some(b);
        }
        best = best.max(run);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_dsp::rng::DivotRng;

    #[test]
    // Codeword literals are grouped as 6b|4b sub-blocks, not nibbles.
    #[allow(clippy::unusual_byte_groupings)]
    fn known_8b10b_codewords() {
        let mut enc = Encoder8b10b::new();
        // D.00.0 at RD−: 100111 0100 — the 6b block flips RD to +, the 4b
        // block flips it back to −.
        assert_eq!(enc.encode(0x00), 0b100111_0100);
        assert!(!enc.running_disparity_plus());
        // D.03 (110001, balanced) then D.x.1 (1001, balanced): RD holds.
        assert_eq!(enc.encode(0x23), 0b110001_1001);
        assert!(!enc.running_disparity_plus());
    }

    #[test]
    fn every_symbol_is_dc_balanced_within_one() {
        // 8b/10b invariant: each 10-bit symbol has 4, 5, or 6 ones, and
        // the running disparity never exceeds ±1 symbol boundary state.
        let mut enc = Encoder8b10b::new();
        for byte in 0u16..=255 {
            let sym = enc.encode(byte as u8);
            let n = ones(sym, 10);
            assert!((4..=6).contains(&n), "byte {byte}: {n} ones");
        }
    }

    #[test]
    fn long_stream_is_dc_balanced() {
        let mut enc = Encoder8b10b::new();
        let mut rng = DivotRng::seed_from_u64(1);
        let bytes: Vec<u8> = (0..10_000).map(|_| rng.index(256) as u8).collect();
        let bits = enc.encode_stream(&bytes);
        let ones_total: usize = bits.iter().map(|&b| b as usize).sum();
        let balance = ones_total as f64 / bits.len() as f64;
        assert!((balance - 0.5).abs() < 0.01, "balance={balance}");
    }

    #[test]
    fn run_length_is_bounded() {
        // 8b/10b guarantees run length ≤ 5.
        let mut enc = Encoder8b10b::new();
        let mut rng = DivotRng::seed_from_u64(2);
        let bytes: Vec<u8> = (0..5_000).map(|_| rng.index(256) as u8).collect();
        let bits = enc.encode_stream(&bytes);
        assert!(max_run_length(&bits) <= 5, "run={}", max_run_length(&bits));
        // Even for pathological constant input.
        let mut enc = Encoder8b10b::new();
        let bits = enc.encode_stream(&[0x00; 1000]);
        assert!(max_run_length(&bits) <= 5);
    }

    #[test]
    fn encoded_edges_balance_the_paper_premise() {
        // §II-E: with channel coding, rising ≈ falling — the reason DIVOT
        // must trigger on one polarity only.
        let mut enc = Encoder8b10b::new();
        let mut rng = DivotRng::seed_from_u64(3);
        let bytes: Vec<u8> = (0..20_000).map(|_| rng.index(256) as u8).collect();
        let bits = enc.encode_stream(&bytes);
        let (rising, falling) = edge_counts(&bits);
        let ratio = rising as f64 / falling as f64;
        assert!((ratio - 1.0).abs() < 0.01, "ratio={ratio}");
        // And edges are plentiful: at least one per 3 unit intervals.
        assert!(rising + falling > bits.len() / 3);
    }

    #[test]
    fn scrambler_whitens_constant_input() {
        let mut s = Scrambler::new(0xFFFF_FFFF);
        let bits = s.scramble_bytes(&[0x00; 8192]);
        let ones_total: usize = bits.iter().map(|&b| b as usize).sum();
        let balance = ones_total as f64 / bits.len() as f64;
        assert!((balance - 0.5).abs() < 0.02, "balance={balance}");
        let (rising, falling) = edge_counts(&bits);
        assert!(((rising as f64 / falling as f64) - 1.0).abs() < 0.05);
        // Runs are probabilistically short (no hard bound, unlike 8b/10b).
        assert!(max_run_length(&bits) < 40);
    }

    #[test]
    fn scrambling_is_an_involution_with_same_seed() {
        let mut a = Scrambler::new(0xACE1);
        let mut b = Scrambler::new(0xACE1);
        let mut bits: Vec<u8> = vec![1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0];
        let original = bits.clone();
        a.scramble_bits(&mut bits);
        assert_ne!(bits, original);
        b.scramble_bits(&mut bits);
        assert_eq!(bits, original);
    }

    #[test]
    fn edge_and_run_helpers() {
        assert_eq!(edge_counts(&[0, 1, 1, 0, 1]), (2, 1));
        assert_eq!(max_run_length(&[1, 1, 1, 0, 0]), 3);
        assert_eq!(max_run_length(&[]), 0);
        assert_eq!(edge_counts(&[]), (0, 0));
    }

    #[test]
    #[should_panic(expected = "seed must be non-zero")]
    fn scrambler_rejects_zero_seed() {
        let _ = Scrambler::new(0);
    }
}
