//! Sharded, content-addressed evaluation cache.
//!
//! The analytical evaluation pipeline is deterministic and pure: the same
//! (accelerator config, workload, policy vintage) always yields the same
//! TTFT/TBT/area/cost. That makes the hot path ideal for content-addressed
//! memoization behind a long-lived service — repeated points in sweeps,
//! repro runs, and near-duplicate service queries are served from memory.
//!
//! Keys are built from the canonical (byte-deterministic) JSON encoding of
//! the inputs via [`CacheKey::from_value`]; the 64-bit FNV-1a digest
//! selects a shard and a bucket, while the canonical encoding itself is
//! stored and compared on lookup, so a digest collision can never return
//! the wrong result.
//!
//! Concurrency model: a fixed number of shards, each behind its own
//! `Mutex`, so concurrent sweep threads contend only when they touch the
//! same shard. Eviction is per-shard LRU, bounded by
//! `capacity / shard_count` entries per shard. Hit/miss/insert/evict
//! counters are lock-free atomics, exported for the service's
//! `/v1/metrics` endpoint.
//!
//! # Example
//!
//! ```
//! use acs_cache::{CacheKey, ShardedCache};
//! use acs_errors::json::{object, Value};
//!
//! let cache: ShardedCache<f64> = ShardedCache::new(1024);
//! let key = CacheKey::from_value(&object(vec![("tpp", Value::Number(4800.0))]));
//! let (v, hit) = cache
//!     .get_or_try_insert(&key, || Ok::<_, std::convert::Infallible>(42.0))
//!     .unwrap();
//! assert!((v, hit) == (42.0, false));
//! let (v, hit) = cache
//!     .get_or_try_insert(&key, || Ok::<_, std::convert::Infallible>(0.0))
//!     .unwrap();
//! assert!((v, hit) == (42.0, true), "second lookup is served from memory");
//! assert_eq!(cache.stats().hits, 1);
//! ```

use acs_errors::hash::{canonical_digest, fnv1a_64};
use acs_errors::json::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards. A power of two so the digest's
/// low bits select a shard without a division.
pub const SHARD_COUNT: usize = 16;

/// A content-addressed cache key: the canonical JSON encoding of the
/// inputs plus its FNV-1a digest.
///
/// The canonical encoding is the true key; the digest is an index. Two
/// keys are equal iff their canonical encodings are byte-identical, so
/// callers must emit key material with a fixed member order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    digest: u64,
    canon: String,
}

impl CacheKey {
    /// Key a JSON value by its canonical encoding.
    #[must_use]
    pub fn from_value(value: &Value) -> Self {
        CacheKey { digest: canonical_digest(value), canon: value.to_json() }
    }

    /// Key raw canonical text directly (the caller guarantees the text is
    /// byte-deterministic for identical inputs).
    #[must_use]
    pub fn from_canonical(canon: String) -> Self {
        CacheKey { digest: fnv1a_64(canon.as_bytes()), canon }
    }

    /// The FNV-1a digest of the canonical encoding.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The canonical encoding the key addresses.
    #[must_use]
    pub fn canonical(&self) -> &str {
        &self.canon
    }

    /// Fixed-width hex rendering of a digest, for embedding one key's
    /// digest as a component of another key. Canonical JSON numbers are
    /// `f64`, which cannot represent every 64-bit digest exactly, so
    /// composed keys must carry digests as strings.
    #[must_use]
    pub fn digest_hex(digest: u64) -> String {
        format!("{digest:016x}")
    }
}

/// A worker's view of the shard space: worker `worker` of `of` owns the
/// shards `{i : i % of == worker}`.
///
/// The event-loop serve tier hashes connections to workers by digest, so
/// each worker's traffic lands on a private slice of a lane-aware cache
/// and the shard mutexes are never contended across workers. `None` (no
/// lane) uses the whole shard space, placed by the digest's low bits, as
/// every in-process caller and the sweep engines do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLane {
    worker: usize,
    of: usize,
}

impl CacheLane {
    /// Lane for worker `worker` of an `of`-worker tier. `of` is clamped
    /// to `1..=SHARD_COUNT` and `worker` is reduced modulo the clamped
    /// count, so any (worker, of) pair yields a valid non-empty slice.
    #[must_use]
    pub fn new(worker: usize, of: usize) -> Self {
        let of = of.clamp(1, SHARD_COUNT);
        CacheLane { worker: worker % of, of }
    }

    /// The worker index this lane belongs to (already reduced mod `of`).
    #[must_use]
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// How many shards this lane owns.
    #[must_use]
    pub fn owned_shards(&self) -> usize {
        (SHARD_COUNT - 1 - self.worker) / self.of + 1
    }

    /// Map a digest onto one of this lane's owned shards. The low digest
    /// bits already routed the connection to the worker, so shard choice
    /// within the slice uses the high bits for independent spread.
    #[must_use]
    pub fn shard_index(&self, digest: u64) -> usize {
        self.worker + self.of * ((digest >> 32) as usize % self.owned_shards())
    }
}

/// Monotonic cache counters (since construction).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Values stored.
    pub insertions: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when none were made).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Last-access tick for LRU ordering (global monotonic counter).
    stamp: u64,
}

/// A sharded, capacity-bounded, LRU-evicting map from [`CacheKey`] to `V`.
///
/// `V` is cloned out on hits; evaluation results in this workspace are
/// small `Copy`-ish structs, so the clone is cheap relative to the
/// evaluation it saves.
#[derive(Debug)]
pub struct ShardedCache<V> {
    shards: Vec<Mutex<HashMap<String, Entry<V>>>>,
    per_shard_capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> ShardedCache<V> {
    /// A cache holding at most `capacity` entries (clamped to at least
    /// one per shard).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let per_shard_capacity = capacity.div_ceil(SHARD_COUNT).max(1);
        let mut shards = Vec::with_capacity(SHARD_COUNT);
        for _ in 0..SHARD_COUNT {
            shards.push(Mutex::new(HashMap::new()));
        }
        ShardedCache {
            shards,
            per_shard_capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Total entry bound (per-shard bound × shard count).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * SHARD_COUNT
    }

    /// Entries currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).len()).sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a key, refreshing its LRU stamp on a hit.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        self.get_in(key, None)
    }

    /// [`ShardedCache::get`] restricted to a lane's shard slice (or the
    /// full digest-low-bits placement when `lane` is `None`).
    #[must_use]
    pub fn get_in(&self, key: &CacheKey, lane: Option<CacheLane>) -> Option<V> {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.lock(self.shard_in(key, lane));
        match shard.get_mut(key.canonical()) {
            Some(entry) => {
                entry.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a value, evicting the shard's least-recently-used entry when
    /// the shard is full. Replacing an existing key never evicts.
    pub fn insert(&self, key: &CacheKey, value: V) {
        self.insert_in(key, value, None);
    }

    /// [`ShardedCache::insert`] restricted to a lane's shard slice.
    pub fn insert_in(&self, key: &CacheKey, value: V, lane: Option<CacheLane>) {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.lock(self.shard_in(key, lane));
        if !shard.contains_key(key.canonical()) && shard.len() >= self.per_shard_capacity {
            // O(shard len) scan: shards are small (capacity / 16), and
            // eviction only runs once the shard is full.
            if let Some(lru) = shard
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                shard.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(key.canonical().to_owned(), Entry { value, stamp });
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Look up a key; on a miss, compute the value with `f`, store it, and
    /// return it. Returns `(value, was_hit)`.
    ///
    /// The shard lock is **not** held while `f` runs, so a slow evaluation
    /// never blocks unrelated lookups; if two threads race on the same
    /// missing key, both compute and the later insert wins — harmless for
    /// the pure evaluations this cache is built for.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error without caching anything.
    pub fn get_or_try_insert<E>(
        &self,
        key: &CacheKey,
        f: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        self.get_or_try_insert_in(key, None, f)
    }

    /// [`ShardedCache::get_or_try_insert`] restricted to a lane's shard
    /// slice.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error without caching anything.
    pub fn get_or_try_insert_in<E>(
        &self,
        key: &CacheKey,
        lane: Option<CacheLane>,
        f: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        if let Some(v) = self.get_in(key, lane) {
            return Ok((v, true));
        }
        let value = f()?;
        self.insert_in(key, value.clone(), lane);
        Ok((value, false))
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            self.lock(shard).clear();
        }
    }

    fn shard_in(
        &self,
        key: &CacheKey,
        lane: Option<CacheLane>,
    ) -> &Mutex<HashMap<String, Entry<V>>> {
        let index = match lane {
            Some(lane) => lane.shard_index(key.digest()),
            None => (key.digest() as usize) & (SHARD_COUNT - 1),
        };
        &self.shards[index]
    }

    /// Poison-tolerant lock: a panicked writer cannot corrupt a map of
    /// immutable results, so a poisoned shard stays usable.
    fn lock<'a>(
        &self,
        shard: &'a Mutex<HashMap<String, Entry<V>>>,
    ) -> std::sync::MutexGuard<'a, HashMap<String, Entry<V>>> {
        shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acs_errors::json::{object, Value};

    fn key(i: u64) -> CacheKey {
        CacheKey::from_value(&object(vec![("i", Value::Number(i as f64))]))
    }

    #[test]
    fn miss_then_hit_with_counters() {
        let cache: ShardedCache<u64> = ShardedCache::new(64);
        let k = key(7);
        assert_eq!(cache.get(&k), None);
        cache.insert(&k, 99);
        assert_eq!(cache.get(&k), Some(99));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 1, 0));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_bounded_and_evictions_are_counted() {
        let cache: ShardedCache<u64> = ShardedCache::new(32);
        assert_eq!(cache.capacity(), 32);
        for i in 0..500 {
            cache.insert(&key(i), i);
        }
        assert!(cache.len() <= cache.capacity(), "len {} > cap", cache.len());
        let s = cache.stats();
        assert_eq!(s.insertions, 500);
        assert_eq!(s.evictions as usize, 500 - cache.len());
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        // Capacity 16 ⇒ one entry per shard: inserting a second key into
        // an occupied shard must evict the older, untouched one.
        let cache: ShardedCache<u64> = ShardedCache::new(16);
        // Find two keys landing in the same shard.
        let base = key(0);
        let shard_of = |k: &CacheKey| (k.digest() as usize) & (SHARD_COUNT - 1);
        let sibling = (1..)
            .map(key)
            .find(|k| shard_of(k) == shard_of(&base))
            .unwrap();
        cache.insert(&base, 1);
        assert_eq!(cache.get(&base), Some(1)); // refresh base's stamp
        cache.insert(&sibling, 2);
        // base was more recently used than nothing else in the shard, so
        // it was the only candidate and is gone; sibling is resident.
        assert_eq!(cache.get(&sibling), Some(2));
        assert_eq!(cache.get(&base), None);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_order_respects_access_recency() {
        // Force all traffic into one logical shard by using capacity 16
        // and three same-shard keys: after touching the first, the second
        // (stale) one is evicted.
        let cache: ShardedCache<u64> = ShardedCache::new(32); // 2 per shard
        let shard_of = |k: &CacheKey| (k.digest() as usize) & (SHARD_COUNT - 1);
        let a = key(0);
        let mut same: Vec<CacheKey> =
            (1..).map(key).filter(|k| shard_of(k) == shard_of(&a)).take(2).collect();
        let c = same.pop().unwrap();
        let b = same.pop().unwrap();
        cache.insert(&a, 1);
        cache.insert(&b, 2);
        assert_eq!(cache.get(&a), Some(1)); // a is now fresher than b
        cache.insert(&c, 3); // shard full: b is the LRU victim
        assert_eq!(cache.get(&a), Some(1));
        assert_eq!(cache.get(&c), Some(3));
        assert_eq!(cache.get(&b), None);
    }

    #[test]
    fn get_or_try_insert_computes_once() {
        let cache: ShardedCache<String> = ShardedCache::new(64);
        let k = key(1);
        let mut calls = 0;
        for expect_hit in [false, true, true] {
            let (v, hit) = cache
                .get_or_try_insert(&k, || {
                    calls += 1;
                    Ok::<_, std::convert::Infallible>("result".to_owned())
                })
                .unwrap();
            assert_eq!(v, "result");
            assert_eq!(hit, expect_hit);
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache: ShardedCache<u64> = ShardedCache::new(64);
        let k = key(1);
        let r: Result<(u64, bool), &str> = cache.get_or_try_insert(&k, || Err("boom"));
        assert_eq!(r, Err("boom"));
        // The failure was not memoised: a later success is stored.
        let (v, hit) = cache.get_or_try_insert(&k, || Ok::<_, &str>(5)).unwrap();
        assert_eq!((v, hit), (5, false));
        assert_eq!(cache.get(&k), Some(5));
    }

    #[test]
    fn digest_collisions_cannot_alias() {
        // Two distinct canonical encodings forced onto the same digest
        // path: the canonical string is the map key, so they coexist.
        let a = CacheKey::from_canonical("{\"x\":1}".to_owned());
        let b = CacheKey::from_canonical("{\"x\":2}".to_owned());
        let cache: ShardedCache<u64> = ShardedCache::new(64);
        cache.insert(&a, 1);
        cache.insert(&b, 2);
        assert_eq!(cache.get(&a), Some(1));
        assert_eq!(cache.get(&b), Some(2));
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        let cache: ShardedCache<u64> = ShardedCache::new(1024);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200 {
                        let k = key(i);
                        let (v, _) = cache
                            .get_or_try_insert(&k, || Ok::<_, std::convert::Infallible>(i * 10))
                            .unwrap();
                        assert_eq!(v, i * 10, "thread {t}");
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 200);
        assert!(s.hits > 0);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache: ShardedCache<u64> = ShardedCache::new(64);
        cache.insert(&key(1), 1);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn lanes_partition_the_shard_space() {
        // Every shard is owned by exactly one worker, for every tier size.
        for of in 1..=SHARD_COUNT {
            let mut owned = vec![0usize; SHARD_COUNT];
            for worker in 0..of {
                let lane = CacheLane::new(worker, of);
                for high in 0..64u64 {
                    let digest = high << 32 | worker as u64;
                    let shard = lane.shard_index(digest);
                    assert_eq!(shard % of, worker, "of={of} worker={worker}");
                    owned[shard] += 1;
                }
            }
            assert!(owned.iter().all(|&n| n > 0), "of={of}: unowned shard");
        }
    }

    #[test]
    fn lane_parameters_are_clamped_to_valid_slices() {
        // Oversized tiers and out-of-range workers still yield usable
        // lanes: worker reduces mod the clamped tier size.
        let lane = CacheLane::new(37, 5 * SHARD_COUNT);
        assert_eq!(lane.worker(), 37 % SHARD_COUNT);
        assert!(lane.owned_shards() >= 1);
        for digest in [0, u64::MAX, 1 << 53] {
            assert!(lane.shard_index(digest) < SHARD_COUNT);
        }
        let degenerate = CacheLane::new(3, 0);
        assert_eq!((degenerate.worker(), degenerate.owned_shards()), (0, SHARD_COUNT));
    }

    #[test]
    fn lane_scoped_operations_round_trip_and_count() {
        let cache: ShardedCache<u64> = ShardedCache::new(256);
        let lane = Some(CacheLane::new(2, 4));
        let k = key(11);
        assert_eq!(cache.get_in(&k, lane), None);
        cache.insert_in(&k, 42, lane);
        assert_eq!(cache.get_in(&k, lane), Some(42));
        let (v, hit) = cache
            .get_or_try_insert_in(&k, lane, || Ok::<_, std::convert::Infallible>(0))
            .unwrap();
        assert_eq!((v, hit), (42, true));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (2, 1, 1));
    }

    #[test]
    fn distinct_lanes_are_disjoint_keyspaces() {
        // An entry inserted through worker 0's lane is invisible through
        // worker 1's: shard affinity replaces cross-worker sharing.
        let cache: ShardedCache<u64> = ShardedCache::new(256);
        let a = Some(CacheLane::new(0, 2));
        let b = Some(CacheLane::new(1, 2));
        let k = key(5);
        cache.insert_in(&k, 7, a);
        assert_eq!(cache.get_in(&k, a), Some(7));
        assert_eq!(cache.get_in(&k, b), None);
    }

    #[test]
    fn digest_hex_is_fixed_width_and_lossless() {
        assert_eq!(CacheKey::digest_hex(0), "0000000000000000");
        assert_eq!(CacheKey::digest_hex(u64::MAX), "ffffffffffffffff");
        // Digests above 2^53 are exactly the ones f64 would mangle.
        let big = (1u64 << 53) + 1;
        assert_eq!(u64::from_str_radix(&CacheKey::digest_hex(big), 16).unwrap(), big);
        assert_eq!(CacheKey::digest_hex(big).len(), 16);
    }
}
