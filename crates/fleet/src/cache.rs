//! Memoization of fleet verdicts: one striped tier shared by every worker
//! and by the reactor's inline path.
//!
//! A verify (or scan) verdict is a pure function of
//! `(fleet seed, device, nonce)` and of the pairing enrolled at the
//! time — so once a request has been answered, answering it again is a
//! lookup, not an engine run.
//!
//! **Invalidation is by construction, not by walk.** Cache keys embed
//! the store's per-shard *enrollment generation*
//! ([`crate::store::FleetStore::shard_generation`]): re-enrolling a
//! device bumps its shard's generation, so every verdict memoized under
//! the old pairing simply never matches again.
//!
//! **Stripes nest inside store shards.** Each stripe is its own `RwLock`
//! and holds devices of exactly one store shard, so all of a stripe's
//! keys share one generation counter. The first verdict stored under a
//! newer generation therefore finds every entry in its stripe orphaned
//! and drops them all, and a stripe only ever holds live verdicts: dead
//! generations go before any live verdict does. A stripe full of live
//! verdicts is cleared wholesale (the same idiom as the response cache
//! in `divot-txline`): verdicts are tiny, and a rare full drop keeps the
//! fast path free of LRU bookkeeping.
//!
//! **Determinism is preserved exactly.** Only successful responses are
//! cached, and a cached response is bit-for-bit the response the
//! worker computed on first serve — so whether a request hits or misses,
//! the client observes the identical bytes. Transient-fault rolls are
//! deterministic per `(device, nonce, attempt)`, which means a request
//! that succeeded once can never fault on a repeat: serving it from
//! cache skips only work whose outcome is already forced. Capacity 0
//! disables the cache entirely — the determinism suite uses that to A/B
//! cached against uncached runs.

use std::collections::HashMap;
use std::sync::RwLock;

/// What kind of decision a cached verdict answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerdictKind {
    /// An authentication verify.
    Verify,
    /// A tamper monitor scan.
    Scan,
}

/// The identity of one memoizable decision.
///
/// `generation` is the enrollment generation of the device's store
/// shard at lookup time; a re-enrollment (or removal) advances it,
/// orphaning every key minted under the previous pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerdictKey {
    /// Decision kind (verify and scan verdicts never alias).
    pub kind: VerdictKind,
    /// Device index in the simulated fleet (stable for its lifetime).
    pub device: u32,
    /// The store shard the device lives in (picks the cache stripe).
    pub shard: u16,
    /// Store-shard enrollment generation the verdict was computed under.
    pub generation: u64,
    /// The request nonce.
    pub nonce: u64,
}

/// Minimum number of stripes: with the default 8 store shards, each
/// shard owns 2 stripes.
const MIN_STRIPES: usize = 16;

/// One stripe: memoized verdicts of part of one store shard, all
/// computed under the shard generation the stripe last saw.
#[derive(Debug)]
struct Stripe<V> {
    map: HashMap<VerdictKey, V>,
    generation: u64,
}

/// The shared verdict cache: `RwLock`ed stripes, each holding devices
/// of exactly one store shard.
///
/// ```
/// use divot_fleet::cache::{VerdictCache, VerdictKey, VerdictKind};
///
/// // 64 entries over the stripes of an 8-shard store.
/// let cache: VerdictCache<&'static str> = VerdictCache::new(64, 8);
/// let key = VerdictKey {
///     kind: VerdictKind::Verify,
///     device: 3,
///     shard: 5,
///     generation: 1,
///     nonce: 42,
/// };
/// assert_eq!(cache.get(&key), None);
/// cache.insert(key, "accepted");
/// assert_eq!(cache.get(&key), Some("accepted"));
/// // Re-enrolling a device on shard 5 advances its generation: the old
/// // verdict no longer matches.
/// assert_eq!(cache.get(&VerdictKey { generation: 2, ..key }), None);
/// ```
#[derive(Debug)]
pub struct VerdictCache<V> {
    stripes: Box<[RwLock<Stripe<V>>]>,
    /// Stripes per store shard.
    per_shard: usize,
    /// Entry budget of each stripe; 0 disables the cache.
    stripe_capacity: usize,
}

impl<V: Clone> VerdictCache<V> {
    /// A cache of `capacity` entries in total, striped over a store of
    /// `shards` shards (each shard gets `⌈16 / shards⌉` stripes). `0`
    /// disables caching: every lookup misses silently and every insert
    /// is a no-op (no telemetry either, so disabled runs count zero
    /// `fleet.cache.*`).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        assert!(shards <= 1 << 16, "a key names its shard in 16 bits");
        let per_shard = MIN_STRIPES.div_ceil(shards);
        let count = shards * per_shard;
        let stripes = (0..count)
            .map(|_| {
                RwLock::new(Stripe {
                    map: HashMap::new(),
                    generation: 0,
                })
            })
            .collect();
        Self {
            stripes,
            per_shard,
            stripe_capacity: capacity.div_ceil(count),
        }
    }

    /// Whether the cache is enabled (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.stripe_capacity > 0
    }

    /// Number of memoized verdicts (all stripes).
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.read().expect("verdict cache poisoned").map.len())
            .sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stripe `key` lives in.
    fn stripe(&self, key: &VerdictKey) -> &RwLock<Stripe<V>> {
        let slot = key.device as usize % self.per_shard;
        &self.stripes[usize::from(key.shard) * self.per_shard + slot]
    }

    /// Look `key` up. A hit counts `fleet.cache.verdict_hits`; a miss
    /// counts nothing, because only the caller knows whether it will
    /// compute the verdict (a worker) or hand it on (the reactor).
    pub fn get(&self, key: &VerdictKey) -> Option<V> {
        if !self.enabled() {
            return None;
        }
        let v = self
            .stripe(key)
            .read()
            .expect("verdict cache poisoned")
            .map
            .get(key)
            .cloned();
        if v.is_some() {
            divot_telemetry::inc("fleet.cache.verdict_hits");
        }
        v
    }

    /// Memoize `value` under `key`. A key of a newer generation than the
    /// stripe's drops the stripe's orphaned verdicts first; a key of an
    /// older one is already orphaned and is not stored. A stripe full of
    /// live verdicts clears wholesale (counted in
    /// `fleet.cache.evictions`).
    pub fn insert(&self, key: VerdictKey, value: V) {
        if !self.enabled() {
            return;
        }
        let mut stripe = self.stripe(&key).write().expect("verdict cache poisoned");
        if key.generation < stripe.generation {
            return;
        }
        if key.generation > stripe.generation {
            stripe.generation = key.generation;
            stripe.map.clear();
        } else if stripe.map.len() >= self.stripe_capacity && !stripe.map.contains_key(&key) {
            stripe.map.clear();
            divot_telemetry::inc("fleet.cache.evictions");
        }
        stripe.map.insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A verify key on shard `shard` of an 8-shard store.
    fn key(device: u32, shard: u16, generation: u64, nonce: u64) -> VerdictKey {
        VerdictKey {
            kind: VerdictKind::Verify,
            device,
            shard,
            generation,
            nonce,
        }
    }

    #[test]
    fn miss_then_hit() {
        let cache = VerdictCache::new(64, 8);
        assert_eq!(cache.get(&key(0, 0, 0, 1)), None);
        cache.insert(key(0, 0, 0, 1), 7u64);
        assert_eq!(cache.get(&key(0, 0, 0, 1)), Some(7));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_change_orphans_old_entries() {
        let cache = VerdictCache::new(64, 8);
        cache.insert(key(2, 1, 0, 9), true);
        // Same device and nonce under the next enrollment generation:
        // clean miss, the stale verdict can never be served.
        assert_eq!(cache.get(&key(2, 1, 1, 9)), None);
        assert_eq!(cache.get(&key(2, 1, 0, 9)), Some(true));
        // Once the stripe holds the newer generation, the old verdicts
        // are gone, and a late insert under the old one is not stored.
        cache.insert(key(2, 1, 1, 9), false);
        cache.insert(key(2, 1, 0, 10), true);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(2, 1, 1, 9)), Some(false));
    }

    #[test]
    fn kinds_do_not_alias() {
        let cache = VerdictCache::new(64, 8);
        let verify = key(0, 0, 0, 1);
        let scan = VerdictKey {
            kind: VerdictKind::Scan,
            ..verify
        };
        cache.insert(verify, 1u8);
        assert_eq!(cache.get(&scan), None);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = VerdictCache::new(0, 8);
        assert!(!cache.enabled());
        cache.insert(key(0, 0, 0, 1), 1u8);
        assert_eq!(cache.get(&key(0, 0, 0, 1)), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn full_stripe_of_live_entries_clears_wholesale() {
        // 16 stripes of 2 entries; device parity picks the stripe within
        // a shard, so even devices on shard 0 share one stripe.
        let cache = VerdictCache::new(32, 8);
        cache.insert(key(0, 0, 0, 1), 1u8);
        cache.insert(key(0, 0, 0, 2), 2u8);
        cache.insert(key(0, 0, 0, 3), 3u8);
        assert_eq!(cache.len(), 1, "third insert clears the full stripe first");
        assert_eq!(cache.get(&key(0, 0, 0, 3)), Some(3));
        assert_eq!(cache.get(&key(0, 0, 0, 1)), None);
    }

    #[test]
    fn full_stripe_drops_dead_generations_first() {
        // 16 stripes of 8 entries.
        let cache = VerdictCache::new(128, 8);
        for nonce in 0..6 {
            cache.insert(key(0, 0, 0, nonce), 0u8);
        }
        // A re-enrollment on shard 0 orphans those six. Nine inserts
        // overflow the stripe, and a wholesale drop there would take the
        // live verdicts of generation 1 with it; the orphans go first.
        cache.insert(key(2, 0, 1, 0), 1u8);
        cache.insert(key(2, 0, 1, 1), 1u8);
        cache.insert(key(4, 0, 1, 2), 1u8);
        assert_eq!(cache.len(), 3);
        for (device, nonce) in [(2, 0), (2, 1), (4, 2)] {
            assert_eq!(cache.get(&key(device, 0, 1, nonce)), Some(1));
        }
        assert_eq!(cache.get(&key(0, 0, 0, 0)), None);
    }

    #[test]
    fn stripes_isolate_shards() {
        // Shard 3 churns far past its stripes' capacity; the verdicts of
        // every other shard stay put.
        let cache = VerdictCache::new(32, 8);
        for shard in [0u16, 1, 2, 4] {
            cache.insert(key(u32::from(shard), shard, 0, 1), shard);
        }
        for nonce in 0..64 {
            cache.insert(key(nonce as u32, 3, 0, nonce), 3);
        }
        for shard in [0u16, 1, 2, 4] {
            assert_eq!(cache.get(&key(u32::from(shard), shard, 0, 1)), Some(shard));
        }
        assert!(
            cache.len() <= 4 + 2 * 2,
            "shard 3 holds at most its two stripes"
        );
    }

    #[test]
    fn every_shard_count_gets_its_own_stripes() {
        for shards in [1, 3, 8, 16, 32] {
            let cache = VerdictCache::new(4096, shards);
            assert!(cache.stripes.len() >= MIN_STRIPES);
            assert_eq!(cache.stripes.len() % shards, 0);
            let last = key(u32::MAX, (shards - 1) as u16, 0, 0);
            cache.insert(last, ());
            assert_eq!(cache.get(&last), Some(()));
        }
    }
}
