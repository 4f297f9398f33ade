//! Minimal link framing: sequence number, length, payload, CRC-16.
//!
//! Wire format (bytes):
//!
//! ```text
//! 0xD1 0x07 | seq:u32le | len:u16le | payload… | crc16:u16le
//! ```
//!
//! The CRC is CRC-16/CCITT-FALSE over everything before it (including the
//! preamble). The framing exists so the link simulation can count *real
//! payload exposure* under an eavesdropping attack, and so corruption-
//! detection behavior is testable.

use std::fmt;

/// Frame preamble bytes.
pub const PREAMBLE: [u8; 2] = [0xD1, 0x07];
/// Maximum payload length.
pub const MAX_PAYLOAD: usize = 4096;

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection).
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &byte in data {
        crc ^= (byte as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// One link frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sequence number.
    pub seq: u32,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Frame decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeFrameError {
    /// Missing or wrong preamble.
    BadPreamble,
    /// Buffer shorter than the header or declared payload.
    Truncated,
    /// Declared length exceeds [`MAX_PAYLOAD`].
    TooLong,
    /// CRC mismatch (corruption on the wire).
    BadCrc,
}

impl fmt::Display for DecodeFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::BadPreamble => "bad preamble",
            Self::Truncated => "truncated frame",
            Self::TooLong => "declared length exceeds maximum",
            Self::BadCrc => "CRC mismatch",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DecodeFrameError {}

impl Frame {
    /// Create a frame.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`].
    pub fn new(seq: u32, payload: Vec<u8>) -> Self {
        assert!(payload.len() <= MAX_PAYLOAD, "payload too long");
        Self { seq, payload }
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(10 + self.payload.len());
        out.extend_from_slice(&PREAMBLE);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let crc = crc16(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode from wire bytes (must contain exactly one frame).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeFrameError`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeFrameError> {
        if bytes.len() < 10 {
            return Err(DecodeFrameError::Truncated);
        }
        if bytes[0..2] != PREAMBLE {
            return Err(DecodeFrameError::BadPreamble);
        }
        let seq = u32::from_le_bytes(bytes[2..6].try_into().expect("4 bytes"));
        let len = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes")) as usize;
        if len > MAX_PAYLOAD {
            return Err(DecodeFrameError::TooLong);
        }
        if bytes.len() != 10 + len {
            return Err(DecodeFrameError::Truncated);
        }
        let crc_stored = u16::from_le_bytes(bytes[8 + len..10 + len].try_into().expect("2 bytes"));
        if crc16(&bytes[..8 + len]) != crc_stored {
            return Err(DecodeFrameError::BadCrc);
        }
        Ok(Self {
            seq,
            payload: bytes[8..8 + len].to_vec(),
        })
    }

    /// Wire size in bytes.
    pub fn wire_len(&self) -> usize {
        10 + self.payload.len()
    }

    /// Wire size in bits (NRZ unit intervals) — what sets the frame's
    /// transmission time and how many iTDR triggers it donates.
    pub fn wire_bits(&self) -> u64 {
        self.wire_len() as u64 * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = Frame::new(42, b"hello divot".to_vec());
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.wire_len());
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn empty_payload_round_trips() {
        let f = Frame::new(0, Vec::new());
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
        assert_eq!(f.wire_bits(), 80);
    }

    #[test]
    fn corruption_is_detected() {
        let f = Frame::new(7, vec![1, 2, 3, 4]);
        let mut bytes = f.encode();
        for i in 2..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                Frame::decode(&corrupt).is_err(),
                "flip at byte {i} must not decode cleanly"
            );
        }
        bytes[0] = 0;
        assert_eq!(Frame::decode(&bytes), Err(DecodeFrameError::BadPreamble));
    }

    #[test]
    fn truncation_and_length_errors() {
        let f = Frame::new(1, vec![9; 16]);
        let bytes = f.encode();
        assert_eq!(
            Frame::decode(&bytes[..bytes.len() - 1]),
            Err(DecodeFrameError::Truncated)
        );
        assert_eq!(Frame::decode(&bytes[..5]), Err(DecodeFrameError::Truncated));
        // Declared length beyond maximum.
        let mut huge = bytes.clone();
        huge[6] = 0xFF;
        huge[7] = 0xFF;
        assert_eq!(Frame::decode(&huge), Err(DecodeFrameError::TooLong));
    }

    #[test]
    #[should_panic(expected = "payload too long")]
    fn oversized_payload_rejected() {
        let _ = Frame::new(0, vec![0; MAX_PAYLOAD + 1]);
    }
}
