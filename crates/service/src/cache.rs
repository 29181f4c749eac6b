//! Bounded worker-side caches: one LRU, two uses.
//!
//! Re-running the golden pass for every campaign is the biggest fixed
//! cost of a worker: the pass is a pure function of `(machine, program,
//! instruction budget, checkpoint interval)`, and a validation sweep
//! re-runs the same four programs per invocation. The service therefore
//! keys every job by a 64-bit content hash of those parameters
//! ([`avf_isa::wire::content_hash64`]), and a worker that finds the job
//! in its [`StoreCache`] skips the golden pass entirely. Its
//! [`EvalCache`] does the same for GA fitness:
//! elite genomes re-scored across generations (and across searches
//! sharing a worker) hit there instead of paying a simulation.
//!
//! Both are the one [`Lru`]: bounded by entry count and by total
//! charged bytes, evicting least-recently-used entries first, so a
//! long-lived `serve` process cannot grow without limit no matter how
//! many distinct jobs pass through it. One cache is shared by every
//! connection of a server (`Arc` + mutex — store entries hold `Arc`s,
//! so a hit never copies snapshots under the lock).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use avf_sim::{DecodedCheckpoints, GoldenRun, PruneEvidence};

/// Default entry bound of a server's store cache.
pub const DEFAULT_CACHE_ENTRIES: usize = 16;

/// Default byte bound of a server's store cache
/// ([`CacheEntry::footprint`]).
pub const DEFAULT_CACHE_BYTES: usize = 512 << 20;

/// Default entry bound of a worker's genome score cache (no byte
/// bound: a score is a handful of bytes).
pub const DEFAULT_EVAL_CACHE_ENTRIES: usize = 4096;

/// One cached job setup: the golden run and its in-memory checkpoints,
/// so a cache hit skips the golden pass.
#[derive(Clone)]
pub struct CacheEntry {
    /// The golden pass's checkpoints; every later session on this
    /// worker restores from these, sharing their memory pages
    /// copy-on-write.
    pub checkpoints: Arc<DecodedCheckpoints>,
    /// The golden run the checkpoints belong to.
    pub golden: GoldenRun,
    /// Fingerprint of the machine/program pair the snapshots were
    /// captured on ([`crate::protocol::geometry_fingerprint`]).
    /// Snapshots index machine-shaped structures directly, so serving
    /// them to a job with different geometry would panic out of bounds
    /// — a lookup whose fingerprint disagrees is answered as a miss
    /// instead.
    pub geometry: u64,
    /// Per-cycle ACE evidence captured during the golden pass, when the
    /// pass ran instrumented (a pruning delegated job). Evidence is
    /// fault-model independent — the model only gates which *strata*
    /// the classifier derives from it — so one capture serves trap and
    /// replay campaigns alike, matching the model-free cache key.
    /// `None` when the golden pass ran uninstrumented; a later pruning
    /// session regenerates it and refreshes the entry.
    pub evidence: Option<Arc<PruneEvidence>>,
}

impl CacheEntry {
    /// Bytes this entry is charged against the cache's byte bound: the
    /// memory the checkpoints pin ([`DecodedCheckpoints::total_bytes`]:
    /// each distinct page once, plus every snapshot's own state and the
    /// golden-future index).
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.checkpoints.total_bytes()
    }
}

/// Cache observability counters (monotonic over the cache's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to respect the bounds.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Bytes currently charged against the bound.
    pub bytes: usize,
}

struct Inner<K, V> {
    /// `key -> (value, recency stamp)`.
    map: HashMap<K, (V, u64)>,
    /// Monotonic use counter backing the LRU order.
    clock: u64,
    stats: CacheStats,
}

/// A bounded, thread-safe LRU.
pub struct Lru<K, V> {
    inner: Mutex<Inner<K, V>>,
    max_entries: usize,
    max_bytes: usize,
    /// Bytes an entry is charged against `max_bytes`.
    weigh: fn(&K, &V) -> usize,
}

/// The checkpoint-store cache: `job content hash → golden pass`.
pub type StoreCache = Lru<u64, CacheEntry>;

/// The genome score cache: `(context fingerprint, genome bits) → score`.
pub type EvalCache = Lru<(u64, Vec<u64>), f64>;

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// A cache bounded by `max_entries` entries (clamped to at least
    /// one, so a cache can never refuse everything) and `max_bytes`
    /// total `weigh`ed bytes.
    #[must_use]
    pub fn with_bounds(max_entries: usize, max_bytes: usize, weigh: fn(&K, &V) -> usize) -> Self {
        Lru {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
                stats: CacheStats::default(),
            }),
            max_entries: max_entries.max(1),
            max_bytes,
            weigh,
        }
    }

    /// Looks `key` up, refreshing its recency, and counts a hit or a
    /// miss. An entry `valid` rejects is a miss and is not served.
    pub fn get_if(&self, key: &K, valid: impl FnOnce(&V) -> bool) -> Option<V> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        let hit = match inner.map.get_mut(key) {
            Some((value, stamp)) if valid(value) => {
                *stamp = clock;
                Some(value.clone())
            }
            _ => None,
        };
        if hit.is_some() {
            inner.stats.hits += 1;
        } else {
            inner.stats.misses += 1;
        }
        hit
    }

    /// Inserts (or refreshes) `key`, evicting least-recently-used
    /// entries until both bounds hold. An entry larger than the byte
    /// bound is still admitted alone — its cost is already paid, so
    /// refusing would only force the next lookup to pay it again.
    pub fn insert(&self, key: K, value: V) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        let size = (self.weigh)(&key, &value);
        if let Some((old, _)) = inner.map.remove(&key) {
            inner.stats.bytes -= (self.weigh)(&key, &old);
        }
        inner.map.insert(key, (value, clock));
        inner.stats.bytes += size;
        while inner.map.len() > self.max_entries
            || (inner.stats.bytes > self.max_bytes && inner.map.len() > 1)
        {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty map");
            let (evicted, _) = inner.map.remove(&lru).expect("lru key present");
            inner.stats.bytes -= (self.weigh)(&lru, &evicted);
            inner.stats.evictions += 1;
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            entries: inner.map.len(),
            ..inner.stats
        }
    }
}

impl StoreCache {
    /// A store cache bounded by `max_entries` entries and `max_bytes`
    /// of [`CacheEntry::footprint`].
    #[must_use]
    pub fn new(max_entries: usize, max_bytes: usize) -> StoreCache {
        Lru::with_bounds(max_entries, max_bytes, |_, entry| entry.footprint())
    }

    /// A default-bounded store cache behind the `Arc` the server clones
    /// per connection.
    #[must_use]
    pub fn shared() -> Arc<StoreCache> {
        Arc::new(StoreCache::new(DEFAULT_CACHE_ENTRIES, DEFAULT_CACHE_BYTES))
    }

    /// Looks a job up. An entry whose geometry fingerprint disagrees
    /// with `geometry` (a key collision across machine/program pairs)
    /// is a miss: its snapshots must not be served to this job.
    #[must_use]
    pub fn get(&self, hash: u64, geometry: u64) -> Option<CacheEntry> {
        self.get_if(&hash, |entry| entry.geometry == geometry)
    }
}

impl EvalCache {
    /// A score cache bounded to `max_entries` scores, with no byte
    /// bound (entries are charged their key's genome bytes, for
    /// observability only).
    #[must_use]
    pub fn with_capacity(max_entries: usize) -> EvalCache {
        Lru::with_bounds(max_entries, usize::MAX, |(_, bits), _| 8 * bits.len() + 16)
    }

    /// A shareable score cache at the default capacity.
    #[must_use]
    pub fn shared() -> Arc<EvalCache> {
        Arc::new(EvalCache::with_capacity(DEFAULT_EVAL_CACHE_ENTRIES))
    }

    /// Looks a score up under `(context fingerprint, genome bits)`.
    #[must_use]
    pub fn lookup(&self, ctx: u64, bits: &[u64]) -> Option<f64> {
        self.get_if(&(ctx, bits.to_vec()), |_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::geometry_fingerprint;
    use avf_sim::{golden_run_checkpointed, MachineConfig};

    const GEO: u64 = 0xFEED;

    fn entry(seed: u64) -> CacheEntry {
        // Distinct stores via distinct checkpoint intervals.
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        let (golden, checkpoints) = golden_run_checkpointed(&machine, &program, 400, 50 + seed);
        CacheEntry {
            checkpoints: Arc::new(checkpoints),
            golden,
            geometry: GEO,
            evidence: None,
        }
    }

    #[test]
    fn hits_refresh_recency_and_bounds_evict_lru() {
        let cache = StoreCache::new(2, usize::MAX);
        cache.insert(1, entry(1));
        cache.insert(2, entry(2));
        assert!(cache.get(1, GEO).is_some(), "warm entry");
        // Inserting a third must evict the least recently used: 2.
        cache.insert(3, entry(3));
        assert!(cache.get(2, GEO).is_none(), "LRU evicted");
        assert!(cache.get(1, GEO).is_some() && cache.get(3, GEO).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn byte_bound_evicts_but_never_refuses_the_newest() {
        let e = entry(0);
        let size = e.footprint();
        assert!(size > 0);
        // Bound below one store: the newest entry is still admitted.
        let cache = StoreCache::new(8, size / 2);
        cache.insert(1, e.clone());
        assert!(cache.get(1, GEO).is_some(), "oversize entry admitted alone");
        // A second insert evicts the first to respect the bound.
        cache.insert(2, e);
        assert!(cache.get(1, GEO).is_none());
        assert!(cache.get(2, GEO).is_some());
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn reinserting_the_same_hash_does_not_double_count_bytes() {
        let cache = StoreCache::new(4, usize::MAX);
        let e = entry(0);
        let footprint = e.footprint();
        assert!(footprint > 0, "the snapshots are charged");
        cache.insert(7, e.clone());
        cache.insert(7, e);
        assert_eq!(cache.stats().bytes, footprint);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn hit_hands_back_the_decoded_snapshots_without_copying() {
        let cache = StoreCache::new(4, usize::MAX);
        let e = entry(0);
        cache.insert(9, e.clone());
        let hit = cache.get(9, GEO).expect("hit");
        assert!(
            Arc::ptr_eq(&hit.checkpoints, &e.checkpoints),
            "a hit shares the snapshots, it does not copy them"
        );
    }

    #[test]
    fn geometry_mismatch_is_a_miss_not_a_wrong_answer() {
        let cache = StoreCache::new(4, usize::MAX);
        cache.insert(5, entry(0));
        // Same cache key, different machine/program fingerprint: the
        // snapshots must not be served.
        assert!(cache.get(5, GEO ^ 1).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert!(cache.get(5, GEO).is_some(), "entry itself is intact");
    }

    #[test]
    fn fingerprint_tracks_machine_and_program() {
        let base = MachineConfig::baseline();
        let a = MachineConfig::config_a();
        let p1 = avf_workloads::testkit::idle_loop();
        let p2 = avf_workloads::testkit::register_chain();
        assert_eq!(
            geometry_fingerprint(&base, &p1),
            geometry_fingerprint(&base, &p1)
        );
        assert_ne!(
            geometry_fingerprint(&base, &p1),
            geometry_fingerprint(&a, &p1)
        );
        assert_ne!(
            geometry_fingerprint(&base, &p1),
            geometry_fingerprint(&base, &p2)
        );
    }

    #[test]
    fn eval_cache_hits_and_evicts() {
        let cache = EvalCache::with_capacity(2);
        let bits_a = avf_ga::genome_bits(&[0.1]);
        let bits_b = avf_ga::genome_bits(&[0.2]);
        let bits_c = avf_ga::genome_bits(&[0.3]);
        assert_eq!(cache.lookup(1, &bits_a), None);
        cache.insert((1, bits_a.clone()), 10.0);
        assert_eq!(cache.lookup(1, &bits_a), Some(10.0));
        assert_eq!(cache.lookup(2, &bits_a), None, "context keys are distinct");
        cache.insert((1, bits_b.clone()), 20.0);
        // Touch A so B is the LRU victim when C arrives.
        assert_eq!(cache.lookup(1, &bits_a), Some(10.0));
        cache.insert((1, bits_c.clone()), 30.0);
        assert_eq!(cache.lookup(1, &bits_b), None, "LRU entry evicted");
        assert_eq!(cache.lookup(1, &bits_c), Some(30.0));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
    }
}
