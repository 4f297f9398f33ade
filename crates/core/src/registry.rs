//! Pairing registry: the persistent content of the §III EPROMs.
//!
//! Calibration pairs two communicating chips over one bus; each side
//! stores the bus fingerprint and reloads it at every power-up (cold-boot
//! protection only works if the *module* remembers its bus across power
//! cycles). A [`FingerprintRegistry`] holds any number of named pairings
//! and serializes to a single EPROM bank image. As the paper notes, this
//! storage needs no secrecy — an IIP is useless off its exact copper — so
//! the format is plain.

use crate::channel::BusChannel;
use crate::exec::ExecPolicy;
use crate::fingerprint::{DecodeFingerprintError, Fingerprint};
use crate::itdr::Itdr;
use std::collections::BTreeMap;
use std::fmt;

/// Magic bytes of a registry bank image.
const BANK_MAGIC: &[u8; 4] = b"DVTB";
/// Bank format version.
const BANK_VERSION: u8 = 1;

/// One bus pairing: the fingerprints both ends enrolled at calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct Pairing {
    /// The master (CPU-side) view of the bus.
    pub master: Fingerprint,
    /// The slave (module-side) view of the bus.
    pub slave: Fingerprint,
}

impl Pairing {
    /// Calibration-time pairing: enroll both ends of one bus with the
    /// shared instrument configuration (the two iTDRs see the same copper
    /// from opposite ends, so each side gets its own channel view).
    ///
    /// Both enrollments fan out under [`ExecPolicy::auto`].
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn enroll(
        itdr: &Itdr,
        master_channel: &mut BusChannel,
        slave_channel: &mut BusChannel,
        count: usize,
    ) -> Self {
        Self::enroll_with(
            itdr,
            master_channel,
            slave_channel,
            count,
            ExecPolicy::auto(),
        )
    }

    /// [`enroll`](Self::enroll) under an explicit execution policy: with
    /// [`ExecPolicy::Parallel`] the two ends enroll concurrently (each
    /// end's acquisition serial on its thread), with identical results.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn enroll_with(
        itdr: &Itdr,
        master_channel: &mut BusChannel,
        slave_channel: &mut BusChannel,
        count: usize,
        policy: ExecPolicy,
    ) -> Self {
        match policy {
            ExecPolicy::Serial => Self {
                master: itdr.enroll_with(master_channel, count, ExecPolicy::Serial),
                slave: itdr.enroll_with(slave_channel, count, ExecPolicy::Serial),
            },
            ExecPolicy::Parallel => std::thread::scope(|scope| {
                let master_task =
                    scope.spawn(|| itdr.enroll_with(master_channel, count, ExecPolicy::Serial));
                let slave = itdr.enroll_with(slave_channel, count, ExecPolicy::Serial);
                Self {
                    master: master_task.join().expect("master enrollment panicked"),
                    slave,
                }
            }),
        }
    }
}

/// Errors decoding a registry bank image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeBankError {
    /// Missing `DVTB` magic.
    BadMagic,
    /// Unsupported format version.
    UnsupportedVersion(u8),
    /// Image shorter than its structure claims.
    Truncated,
    /// A bus name is not valid UTF-8.
    BadName,
    /// An embedded fingerprint failed to decode.
    BadFingerprint(DecodeFingerprintError),
}

impl fmt::Display for DecodeBankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "missing DVTB magic"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported bank version {v}"),
            Self::Truncated => write!(f, "bank image is truncated"),
            Self::BadName => write!(f, "bus name is not valid UTF-8"),
            Self::BadFingerprint(e) => write!(f, "embedded fingerprint: {e}"),
        }
    }
}

impl std::error::Error for DecodeBankError {}

impl From<DecodeFingerprintError> for DecodeBankError {
    fn from(e: DecodeFingerprintError) -> Self {
        Self::BadFingerprint(e)
    }
}

/// A named collection of bus pairings with an EPROM bank codec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FingerprintRegistry {
    pairings: BTreeMap<String, Pairing>,
}

impl FingerprintRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored pairings.
    pub fn len(&self) -> usize {
        self.pairings.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.pairings.is_empty()
    }

    /// Store (or replace) the pairing for `bus`. Returns the previous
    /// pairing if one existed.
    pub fn register(&mut self, bus: impl Into<String>, pairing: Pairing) -> Option<Pairing> {
        self.pairings.insert(bus.into(), pairing)
    }

    /// Look up a pairing.
    pub fn get(&self, bus: &str) -> Option<&Pairing> {
        self.pairings.get(bus)
    }

    /// Remove a pairing (decommissioning the bus).
    pub fn remove(&mut self, bus: &str) -> Option<Pairing> {
        self.pairings.remove(bus)
    }

    /// Registered bus names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.pairings.keys().map(String::as_str)
    }

    /// Serialize the whole registry into one EPROM bank image.
    pub fn to_bank_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(BANK_MAGIC);
        out.push(BANK_VERSION);
        out.extend_from_slice(&(self.pairings.len() as u32).to_le_bytes());
        for (name, pairing) in &self.pairings {
            let name_bytes = name.as_bytes();
            out.extend_from_slice(&(name_bytes.len() as u16).to_le_bytes());
            out.extend_from_slice(name_bytes);
            for fp in [&pairing.master, &pairing.slave] {
                let blob = fp.to_eprom_bytes();
                out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                out.extend_from_slice(&blob);
            }
        }
        out
    }

    /// Decode a bank image.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeBankError`] on any structural problem.
    pub fn from_bank_bytes(bytes: &[u8]) -> Result<Self, DecodeBankError> {
        use DecodeBankError as E;
        if bytes.len() < 9 {
            return Err(E::Truncated);
        }
        if &bytes[0..4] != BANK_MAGIC {
            return Err(E::BadMagic);
        }
        if bytes[4] != BANK_VERSION {
            return Err(E::UnsupportedVersion(bytes[4]));
        }
        let count = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes")) as usize;
        let mut offset = 9;
        let take = |offset: &mut usize, n: usize| -> Result<&[u8], E> {
            if *offset + n > bytes.len() {
                return Err(E::Truncated);
            }
            let s = &bytes[*offset..*offset + n];
            *offset += n;
            Ok(s)
        };
        let mut pairings = BTreeMap::new();
        for _ in 0..count {
            let name_len =
                u16::from_le_bytes(take(&mut offset, 2)?.try_into().expect("2 bytes")) as usize;
            let name = std::str::from_utf8(take(&mut offset, name_len)?)
                .map_err(|_| E::BadName)?
                .to_owned();
            let mut fps = Vec::with_capacity(2);
            for _ in 0..2 {
                let len =
                    u32::from_le_bytes(take(&mut offset, 4)?.try_into().expect("4 bytes")) as usize;
                fps.push(Fingerprint::from_eprom_bytes(take(&mut offset, len)?)?);
            }
            let slave = fps.pop().expect("two decoded");
            let master = fps.pop().expect("two decoded");
            pairings.insert(name, Pairing { master, slave });
        }
        if offset != bytes.len() {
            return Err(E::Truncated);
        }
        Ok(Self { pairings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_dsp::waveform::Waveform;

    fn fp(k: f64) -> Fingerprint {
        Fingerprint::new(
            Waveform::from_fn(0.0, 22.32e-12, 64, |t| k * (t * 3e9).sin()),
            8,
        )
    }

    fn sample_registry() -> FingerprintRegistry {
        let mut reg = FingerprintRegistry::new();
        reg.register(
            "ddr0",
            Pairing {
                master: fp(1e-3),
                slave: fp(1.1e-3),
            },
        );
        reg.register(
            "pcie_lane3",
            Pairing {
                master: fp(2e-3),
                slave: fp(2.1e-3),
            },
        );
        reg
    }

    #[test]
    fn pairing_enrolls_both_ends_identically_across_policies() {
        use crate::itdr::{Itdr, ItdrConfig};
        use divot_analog::frontend::FrontEndConfig;
        use divot_txline::board::{Board, BoardConfig};

        let board = Board::fabricate(&BoardConfig::small_test(), 51);
        let make = |seed| BusChannel::new(board.line(0).clone(), FrontEndConfig::default(), seed);
        let itdr = Itdr::new(ItdrConfig::fast());
        let serial = Pairing::enroll_with(&itdr, &mut make(1), &mut make(2), 2, ExecPolicy::Serial);
        let parallel =
            Pairing::enroll_with(&itdr, &mut make(1), &mut make(2), 2, ExecPolicy::Parallel);
        assert_eq!(serial, parallel);
        // The two ends are distinct instruments (different seeds), so the
        // views differ in noise but describe the same copper.
        assert_ne!(serial.master, serial.slave);
    }

    #[test]
    fn register_get_remove() {
        let mut reg = sample_registry();
        assert_eq!(reg.len(), 2);
        assert!(reg.get("ddr0").is_some());
        assert!(reg.get("nope").is_none());
        let old = reg.register(
            "ddr0",
            Pairing {
                master: fp(9e-3),
                slave: fp(9e-3),
            },
        );
        assert!(old.is_some());
        assert_eq!(reg.len(), 2);
        assert!(reg.remove("ddr0").is_some());
        assert_eq!(reg.len(), 1);
        assert!(reg.remove("ddr0").is_none());
    }

    #[test]
    fn names_are_sorted() {
        let reg = sample_registry();
        let names: Vec<_> = reg.names().collect();
        assert_eq!(names, vec!["ddr0", "pcie_lane3"]);
    }

    #[test]
    fn bank_round_trip() {
        let reg = sample_registry();
        let bytes = reg.to_bank_bytes();
        let back = FingerprintRegistry::from_bank_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.names().collect::<Vec<_>>(),
            reg.names().collect::<Vec<_>>()
        );
        // Fingerprints survive (within their own codec's quantization —
        // these were already quantized round-trips of themselves).
        let a = reg.get("ddr0").unwrap();
        let b = back.get("ddr0").unwrap();
        assert_eq!(a.master.iip().len(), b.master.iip().len());
    }

    #[test]
    fn empty_registry_round_trips() {
        let reg = FingerprintRegistry::new();
        assert!(reg.is_empty());
        let back = FingerprintRegistry::from_bank_bytes(&reg.to_bank_bytes()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = sample_registry().to_bank_bytes();
        bytes[0] = b'X';
        assert_eq!(
            FingerprintRegistry::from_bank_bytes(&bytes),
            Err(DecodeBankError::BadMagic)
        );
        let mut bytes = sample_registry().to_bank_bytes();
        bytes[4] = 9;
        assert_eq!(
            FingerprintRegistry::from_bank_bytes(&bytes),
            Err(DecodeBankError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample_registry().to_bank_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 10, 3] {
            assert!(
                FingerprintRegistry::from_bank_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample_registry().to_bank_bytes();
        bytes.push(0);
        assert_eq!(
            FingerprintRegistry::from_bank_bytes(&bytes),
            Err(DecodeBankError::Truncated)
        );
    }

    #[test]
    fn error_display() {
        let e = DecodeBankError::BadFingerprint(DecodeFingerprintError::BadMagic);
        assert!(format!("{e}").contains("fingerprint"));
    }
}
