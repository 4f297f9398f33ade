//! The fleet's enrolled-pairing store: sharded, concurrent, durable.
//!
//! Devices hash onto a fixed number of shards; each shard is one
//! [`FingerprintRegistry`] behind its own `RwLock`, so verifies on
//! different shards never contend and verifies on the same shard share a
//! read lock. Persistence reuses the registry's EPROM bank codec
//! unchanged: every shard serializes to one `shard-NNN.bank` image,
//! written to a temporary file and atomically renamed into place — a
//! crash mid-persist leaves the previous generation intact, never a
//! half-written bank.

use crate::error::FleetError;
use divot_core::registry::{FingerprintRegistry, Pairing};
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

/// Offset basis of the FNV-1a hash used for shard placement.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Prime of the FNV-1a hash used for shard placement.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the device name: stable across runs and platforms, so a
/// persisted shard layout reloads onto the same shards.
fn fnv1a(name: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A sharded, lock-per-shard store of enrolled bus pairings.
#[derive(Debug)]
pub struct FleetStore {
    shards: Vec<RwLock<FingerprintRegistry>>,
    /// Per-shard enrollment generation: bumped on every
    /// [`register`](Self::register) / [`remove`](Self::remove) that lands
    /// on the shard. Memoized verdicts key on the generation they were
    /// computed under, so a re-enrollment invalidates them without any
    /// cache walk (stale keys simply never match again).
    generations: Vec<AtomicU64>,
    /// Per-shard lock-hold counter names, precomputed at construction —
    /// the static-name convention: mutating paths record holds without a
    /// per-call `format!` allocation.
    hold_names: Vec<String>,
}

impl FleetStore {
    /// An empty store with `shard_count` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn new(shard_count: usize) -> Self {
        assert!(shard_count >= 1, "store needs at least one shard");
        Self {
            shards: (0..shard_count)
                .map(|_| RwLock::new(FingerprintRegistry::new()))
                .collect(),
            generations: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
            hold_names: (0..shard_count)
                .map(|s| format!("fleet.store.shard.{s:03}.lock_hold_ns"))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a device maps to.
    pub fn shard_of(&self, device: &str) -> usize {
        (fnv1a(device) % self.shards.len() as u64) as usize
    }

    /// Total enrolled devices across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").len())
            .sum()
    }

    /// Whether no device is enrolled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The enrollment generation of `shard`.
    ///
    /// Starts at 0 and advances monotonically whenever any pairing on
    /// that shard is registered or removed. Verdicts memoized under an
    /// old generation can therefore never be served after a
    /// re-enrollment: the generation is part of their cache key.
    pub fn shard_generation(&self, shard: usize) -> u64 {
        self.generations[shard].load(Ordering::Acquire)
    }

    /// Record how long a shard's write lock was held: one per-shard
    /// cumulative nanosecond counter (`fleet.store.shard.NNN.lock_hold_ns`)
    /// plus a store-wide histogram (`fleet.store.lock_hold_ns`). Only
    /// mutating paths are instrumented — the verify hot path's read locks
    /// stay allocation- and instrumentation-free.
    fn note_write_hold(&self, shard: usize, held: std::time::Duration) {
        let ns = held.as_nanos() as u64;
        divot_telemetry::add(&self.hold_names[shard], ns);
        if let Some(h) = divot_telemetry::histogram_with(
            "fleet.store.lock_hold_ns",
            divot_telemetry::Histogram::default_latency_ns,
        ) {
            h.observe(ns as f64);
        }
    }

    /// Store (or replace) the pairing for `device`, returning the
    /// previous pairing if one existed. Takes the write lock of exactly
    /// one shard and advances the shard's enrollment generation.
    pub fn register(&self, device: &str, pairing: Pairing) -> Option<Pairing> {
        let shard = self.shard_of(device);
        let mut guard = self.shards[shard].write().expect("shard lock poisoned");
        let t0 = Instant::now();
        let prev = guard.register(device, pairing);
        drop(guard);
        self.note_write_hold(shard, t0.elapsed());
        self.generations[shard].fetch_add(1, Ordering::Release);
        prev
    }

    /// Run `f` on the stored pairing of `device` under the shard's read
    /// lock; `None` when the device is not enrolled. Lending instead of
    /// cloning keeps verify's hot path free of fingerprint copies.
    pub fn with_pairing<T>(&self, device: &str, f: impl FnOnce(&Pairing) -> T) -> Option<T> {
        self.shards[self.shard_of(device)]
            .read()
            .expect("shard lock poisoned")
            .get(device)
            .map(f)
    }

    /// Remove a device's pairing (decommissioning). Advances the shard's
    /// enrollment generation when a pairing was actually removed.
    pub fn remove(&self, device: &str) -> Option<Pairing> {
        let shard = self.shard_of(device);
        let mut guard = self.shards[shard].write().expect("shard lock poisoned");
        let t0 = Instant::now();
        let prev = guard.remove(device);
        drop(guard);
        self.note_write_hold(shard, t0.elapsed());
        if prev.is_some() {
            self.generations[shard].fetch_add(1, Ordering::Release);
        }
        prev
    }

    /// Every enrolled device as `(name, shard)`, sorted by name — the
    /// registry-snapshot view.
    pub fn device_names(&self) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let reg = shard.read().expect("shard lock poisoned");
            out.extend(reg.names().map(|n| (n.to_owned(), i)));
        }
        out.sort();
        out
    }

    /// Persist every shard into `dir` as `shard-NNN.bank` EPROM bank
    /// images. Each image is written to `shard-NNN.bank.tmp` first and
    /// atomically renamed, so readers and crash recovery only ever see
    /// complete banks. Returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] on any filesystem failure.
    pub fn persist(&self, dir: &Path) -> Result<usize, FleetError> {
        fs::create_dir_all(dir)?;
        let mut bytes = 0;
        for (i, shard) in self.shards.iter().enumerate() {
            let image = shard.read().expect("shard lock poisoned").to_bank_bytes();
            let finalp = dir.join(format!("shard-{i:03}.bank"));
            let tmp = dir.join(format!("shard-{i:03}.bank.tmp"));
            {
                let mut f = fs::File::create(&tmp)?;
                f.write_all(&image)?;
                f.sync_all()?;
            }
            fs::rename(&tmp, &finalp)?;
            bytes += image.len();
        }
        Ok(bytes)
    }

    /// Load a store persisted by [`persist`](Self::persist). Missing
    /// shard files load as empty shards (a fresh directory is a valid
    /// empty store).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] on filesystem failures and
    /// [`FleetError::Protocol`] when a bank image fails to decode.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn load(dir: &Path, shard_count: usize) -> Result<Self, FleetError> {
        let store = Self::new(shard_count);
        for i in 0..shard_count {
            let path = dir.join(format!("shard-{i:03}.bank"));
            let image = match fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e.into()),
            };
            let reg = FingerprintRegistry::from_bank_bytes(&image)
                .map_err(|e| FleetError::Protocol(format!("{}: {e}", path.display())))?;
            *store.shards[i].write().expect("shard lock poisoned") = reg;
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divot_core::fingerprint::Fingerprint;
    use divot_dsp::waveform::Waveform;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn pairing(k: f64) -> Pairing {
        let fp = |k: f64| {
            Fingerprint::new(
                Waveform::from_fn(0.0, 22.32e-12, 32, |t| k * (t * 3e9).sin()),
                4,
            )
        };
        Pairing {
            master: fp(k),
            slave: fp(k * 1.1),
        }
    }

    /// A unique scratch directory per call (no external tempdir crate).
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        static SERIAL: AtomicU32 = AtomicU32::new(0);
        let n = SERIAL.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("divot-fleet-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn sharding_is_stable_and_in_range() {
        let store = FleetStore::new(4);
        for i in 0..64 {
            let name = format!("bus-{i:03}");
            let s = store.shard_of(&name);
            assert!(s < 4);
            assert_eq!(s, store.shard_of(&name), "placement must be stable");
        }
    }

    #[test]
    fn register_lookup_remove_across_shards() {
        let store = FleetStore::new(3);
        assert!(store.is_empty());
        for i in 0..12 {
            assert!(store
                .register(&format!("bus-{i}"), pairing(1e-3 * (i + 1) as f64))
                .is_none());
        }
        assert_eq!(store.len(), 12);
        let count = store
            .with_pairing("bus-7", |p| p.master.enrollment_count())
            .unwrap();
        assert_eq!(count, 4);
        assert!(store.with_pairing("bus-99", |_| ()).is_none());
        assert!(store.remove("bus-7").is_some());
        assert!(store.remove("bus-7").is_none());
        assert_eq!(store.len(), 11);
    }

    #[test]
    fn mutations_advance_only_their_shards_generation() {
        let store = FleetStore::new(4);
        let shard = store.shard_of("bus-1");
        store.register("bus-1", pairing(1e-3));
        store.register("bus-1", pairing(2e-3));
        // Removing a device that was never enrolled bumps nothing.
        assert!(store.remove("bus-9").is_none());
        let generations: Vec<u64> = (0..4).map(|s| store.shard_generation(s)).collect();
        assert_eq!(generations[shard], 2, "one bump per register");
        for (s, g) in generations.iter().enumerate().filter(|&(s, _)| s != shard) {
            assert_eq!(*g, 0, "shard {s} untouched");
        }
        store.remove("bus-1");
        assert_eq!(store.shard_generation(shard), 3);
    }

    #[test]
    fn device_names_are_sorted_with_shards() {
        let store = FleetStore::new(2);
        for name in ["zz", "aa", "mm"] {
            store.register(name, pairing(1e-3));
        }
        let names = store.device_names();
        assert_eq!(
            names.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec!["aa", "mm", "zz"]
        );
        for (n, s) in &names {
            assert_eq!(*s, store.shard_of(n));
        }
    }

    #[test]
    fn persist_and_load_round_trip() {
        let dir = scratch_dir("roundtrip");
        let store = FleetStore::new(4);
        for i in 0..10 {
            store.register(&format!("bus-{i:03}"), pairing(1e-3 * (i + 1) as f64));
        }
        let bytes = store.persist(&dir).unwrap();
        assert!(bytes > 0);
        // No .tmp residue after a clean persist.
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "leftover temp file {name:?}"
            );
        }
        let back = FleetStore::load(&dir, 4).unwrap();
        assert_eq!(back.device_names(), store.device_names());
        let (a, b) = (
            store.with_pairing("bus-004", |p| p.clone()).unwrap(),
            back.with_pairing("bus-004", |p| p.clone()).unwrap(),
        );
        assert_eq!(a.master.iip().len(), b.master.iip().len());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_from_empty_dir_is_empty_store() {
        let dir = scratch_dir("empty");
        fs::create_dir_all(&dir).unwrap();
        let store = FleetStore::load(&dir, 8).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.shard_count(), 8);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_corrupt_bank() {
        let dir = scratch_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("shard-000.bank"), b"not a bank").unwrap();
        match FleetStore::load(&dir, 1) {
            Err(FleetError::Protocol(msg)) => assert!(msg.contains("shard-000")),
            other => panic!("expected protocol error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = FleetStore::new(0);
    }
}
