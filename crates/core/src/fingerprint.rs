//! Enrolled fingerprints and their EPROM storage codec.
//!
//! At calibration time (manufacturing or user installation, §III) each side
//! of the bus enrolls the line's IIP and stores it in a local EPROM. The
//! paper notes these ROMs need no special protection: an IIP is useless off
//! its exact Tx-line — knowing the fingerprint does not let an attacker
//! reproduce the physics.
//!
//! The codec is a compact fixed-point format a real EPROM would hold:
//! a 30-byte header plus one little-endian `i16` per sample.

use divot_dsp::waveform::Waveform;
use std::fmt;

/// Magic bytes identifying an encoded fingerprint.
const MAGIC: &[u8; 4] = b"DIVT";
/// Codec version.
const VERSION: u8 = 1;

/// An enrolled IIP fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    iip: Waveform,
    enrollment_count: u32,
}

impl Fingerprint {
    /// Wrap an averaged enrollment measurement.
    pub fn new(iip: Waveform, enrollment_count: u32) -> Self {
        Self {
            iip,
            enrollment_count,
        }
    }

    /// The stored IIP waveform.
    pub fn iip(&self) -> &Waveform {
        &self.iip
    }

    /// How many measurements were averaged at enrollment.
    pub fn enrollment_count(&self) -> u32 {
        self.enrollment_count
    }

    /// Encode to the EPROM byte format (16-bit fixed point).
    pub fn to_eprom_bytes(&self) -> Vec<u8> {
        let peak = self.iip.peak().max(1e-12);
        let scale = peak / 32767.0;
        let mut out = Vec::with_capacity(30 + 2 * self.iip.len());
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(0); // reserved
        out.extend_from_slice(&self.enrollment_count.to_le_bytes());
        out.extend_from_slice(&(self.iip.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.iip.t0().to_le_bytes());
        out.extend_from_slice(&self.iip.dt().to_le_bytes());
        out.extend_from_slice(&scale.to_le_bytes());
        for &v in self.iip.samples() {
            let q = (v / scale).round().clamp(-32768.0, 32767.0) as i16;
            out.extend_from_slice(&q.to_le_bytes());
        }
        out
    }

    /// Decode from the EPROM byte format.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeFingerprintError`] on bad magic, unsupported
    /// version, truncated data, or invalid header fields.
    pub fn from_eprom_bytes(bytes: &[u8]) -> Result<Self, DecodeFingerprintError> {
        use DecodeFingerprintError as E;
        if bytes.len() < 38 {
            return Err(E::Truncated);
        }
        if &bytes[0..4] != MAGIC {
            return Err(E::BadMagic);
        }
        if bytes[4] != VERSION {
            return Err(E::UnsupportedVersion(bytes[4]));
        }
        let enrollment_count = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes"));
        let n = u32::from_le_bytes(bytes[10..14].try_into().expect("4 bytes")) as usize;
        let t0 = f64::from_le_bytes(bytes[14..22].try_into().expect("8 bytes"));
        let dt = f64::from_le_bytes(bytes[22..30].try_into().expect("8 bytes"));
        let scale = f64::from_le_bytes(bytes[30..38].try_into().expect("8 bytes"));
        if !(dt > 0.0 && dt.is_finite() && scale.is_finite() && scale > 0.0) {
            return Err(E::BadHeader);
        }
        let body = &bytes[38..];
        if body.len() != 2 * n {
            return Err(E::Truncated);
        }
        let samples = body
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]) as f64 * scale)
            .collect();
        Ok(Self {
            iip: Waveform::new(t0, dt, samples),
            enrollment_count,
        })
    }
}

/// Errors decoding an EPROM fingerprint image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeFingerprintError {
    /// The image does not start with the `DIVT` magic.
    BadMagic,
    /// The codec version is not supported.
    UnsupportedVersion(u8),
    /// The image is shorter than its header claims.
    Truncated,
    /// A header field is invalid (non-positive dt or scale).
    BadHeader,
}

impl fmt::Display for DecodeFingerprintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "missing DIVT magic"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported codec version {v}"),
            Self::Truncated => write!(f, "image is truncated"),
            Self::BadHeader => write!(f, "invalid header field"),
        }
    }
}

impl std::error::Error for DecodeFingerprintError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fp() -> Fingerprint {
        let wf = Waveform::from_fn(0.0, 11.16e-12, 341, |t| {
            5e-3 * (t * 2e9).sin() + 1e-3 * (t * 17e9).cos()
        });
        Fingerprint::new(wf, 16)
    }

    #[test]
    fn round_trip_preserves_waveform() {
        let fp = sample_fp();
        let bytes = fp.to_eprom_bytes();
        let back = Fingerprint::from_eprom_bytes(&bytes).unwrap();
        assert_eq!(back.enrollment_count(), 16);
        assert_eq!(back.iip().len(), fp.iip().len());
        assert_eq!(back.iip().dt(), fp.iip().dt());
        // 16-bit quantization: relative error bounded by 1/32767 of peak.
        let peak = fp.iip().peak();
        for (a, b) in fp.iip().samples().iter().zip(back.iip().samples()) {
            assert!((a - b).abs() <= peak / 32767.0 + 1e-12);
        }
    }

    #[test]
    fn encoded_size_is_compact() {
        let fp = sample_fp();
        // 341 samples → 38 + 682 bytes: fits trivially in any EPROM.
        assert_eq!(fp.to_eprom_bytes().len(), 38 + 2 * 341);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample_fp().to_eprom_bytes();
        bytes[0] = b'X';
        assert_eq!(
            Fingerprint::from_eprom_bytes(&bytes),
            Err(DecodeFingerprintError::BadMagic)
        );
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = sample_fp().to_eprom_bytes();
        bytes[4] = 99;
        assert_eq!(
            Fingerprint::from_eprom_bytes(&bytes),
            Err(DecodeFingerprintError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn rejects_truncation() {
        let bytes = sample_fp().to_eprom_bytes();
        assert_eq!(
            Fingerprint::from_eprom_bytes(&bytes[..bytes.len() - 3]),
            Err(DecodeFingerprintError::Truncated)
        );
        assert_eq!(
            Fingerprint::from_eprom_bytes(&bytes[..10]),
            Err(DecodeFingerprintError::Truncated)
        );
    }

    #[test]
    fn rejects_corrupt_header() {
        let mut bytes = sample_fp().to_eprom_bytes();
        // Zero the dt field.
        for b in &mut bytes[22..30] {
            *b = 0;
        }
        assert_eq!(
            Fingerprint::from_eprom_bytes(&bytes),
            Err(DecodeFingerprintError::BadHeader)
        );
    }

    #[test]
    fn error_display_nonempty() {
        let e = DecodeFingerprintError::UnsupportedVersion(3);
        assert!(format!("{e}").contains('3'));
    }

    #[test]
    fn zero_waveform_encodes() {
        let fp = Fingerprint::new(Waveform::zeros(0.0, 1e-12, 8), 1);
        let back = Fingerprint::from_eprom_bytes(&fp.to_eprom_bytes()).unwrap();
        assert_eq!(back.iip().samples(), &[0.0; 8]);
    }
}
