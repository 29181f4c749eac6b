//! Bounded worker-side checkpoint-store cache.
//!
//! Re-running the golden pass for every campaign is the biggest fixed
//! cost of a worker: the pass is a pure function of `(machine, program,
//! instruction budget, checkpoint interval)`, and a validation sweep
//! re-runs the same four programs per invocation. The service therefore
//! keys every job by a 64-bit content hash of those parameters
//! ([`avf_isa::wire::content_hash64`]), and a worker that finds the job
//! here skips the golden pass and the checkpoint decode entirely.
//!
//! The cache is bounded both by entry count and by total checkpoint
//! bytes, evicting least-recently-used entries first, so a long-lived
//! `serve` process cannot grow without limit no matter how many
//! distinct campaigns pass through it. One cache is shared by every
//! connection of a server (`Arc` + mutex — entries hold `Arc`s, so a
//! hit never copies snapshots under the lock).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use avf_sim::{DecodedCheckpoints, GoldenRun, PruneEvidence};

/// Default entry bound of a server's cache.
pub const DEFAULT_CACHE_ENTRIES: usize = 16;

/// Default byte bound of a server's cache ([`CacheEntry::footprint`]).
pub const DEFAULT_CACHE_BYTES: usize = 512 << 20;

/// One cached job setup: the golden run and its *decoded* checkpoints —
/// so a cache hit pays neither the golden pass nor the per-campaign
/// `decode_all`.
#[derive(Clone)]
pub struct CacheEntry {
    /// Serialized size of the pass's checkpoint store, measured before
    /// it was decoded and dropped.
    pub store_bytes: usize,
    /// The checkpoints decoded once at insertion; every later session
    /// on this worker restores from these by deep clone.
    pub decoded: Arc<DecodedCheckpoints>,
    /// The golden run the checkpoints belong to.
    pub golden: GoldenRun,
    /// Fingerprint of the machine/program pair the snapshots were
    /// decoded against ([`crate::protocol::geometry_fingerprint`]).
    /// Decoded snapshots index machine-shaped structures directly, so
    /// serving them to a job with different geometry would trade a
    /// typed decode error for an out-of-bounds panic — a lookup whose
    /// fingerprint disagrees is answered as a miss instead.
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
    /// Bytes this entry is charged against the cache's byte bound: an
    /// estimate of the decoded snapshots it pins. A decoded checkpoint
    /// materializes the same state its blob serialized, so the
    /// serialized size is the right order of magnitude.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.store_bytes
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
    /// Bytes currently charged against the bound
    /// ([`CacheEntry::footprint`]).
    pub bytes: usize,
}

struct Inner {
    /// `hash -> (entry, recency stamp)`.
    map: HashMap<u64, (CacheEntry, u64)>,
    /// Monotonic use counter backing the LRU order.
    clock: u64,
    bytes: usize,
    max_entries: usize,
    max_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded LRU of checkpoint stores keyed by content hash, shared by
/// every connection of one server.
pub struct StoreCache {
    inner: Mutex<Inner>,
}

impl StoreCache {
    /// A cache bounded by `max_entries` entries and `max_bytes` total
    /// footprint bytes (both clamped to at least one entry's
    /// worth so a cache can never refuse everything).
    #[must_use]
    pub fn new(max_entries: usize, max_bytes: usize) -> StoreCache {
        StoreCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
                bytes: 0,
                max_entries: max_entries.max(1),
                max_bytes,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// A default-bounded cache behind the `Arc` the server clones per
    /// connection.
    #[must_use]
    pub fn shared() -> Arc<StoreCache> {
        Arc::new(StoreCache::new(DEFAULT_CACHE_ENTRIES, DEFAULT_CACHE_BYTES))
    }

    /// Looks `hash` up, refreshing its recency. Counts a hit or miss.
    /// An entry whose geometry fingerprint disagrees with `geometry`
    /// (a key collision across machine/program pairs) is a miss: its
    /// decoded snapshots must not be served to this job.
    #[must_use]
    pub fn get(&self, hash: u64, geometry: u64) -> Option<CacheEntry> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(&hash) {
            Some((entry, stamp)) if entry.geometry == geometry => {
                *stamp = clock;
                let entry = entry.clone();
                inner.hits += 1;
                Some(entry)
            }
            _ => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `hash`, evicting least-recently-used
    /// entries until both bounds hold. An entry larger than the byte
    /// bound is still admitted alone — its golden pass is already paid
    /// for, so refusing would only force the next session to re-run it.
    pub fn insert(&self, hash: u64, entry: CacheEntry) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        let size = entry.footprint();
        if let Some((old, _)) = inner.map.remove(&hash) {
            inner.bytes -= old.footprint();
        }
        inner.map.insert(hash, (entry, clock));
        inner.bytes += size;
        while inner.map.len() > inner.max_entries
            || (inner.bytes > inner.max_bytes && inner.map.len() > 1)
        {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&h, _)| h)
                .expect("non-empty map");
            if lru == hash && inner.map.len() == 1 {
                break;
            }
            let (evicted, _) = inner.map.remove(&lru).expect("lru key present");
            inner.bytes -= evicted.footprint();
            inner.evictions += 1;
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
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
        let (golden, store) = golden_run_checkpointed(&machine, &program, 400, 50 + seed);
        let decoded = store.decode_all(&machine, &program).expect("own store");
        CacheEntry {
            store_bytes: store.total_bytes(),
            decoded: Arc::new(decoded),
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
        assert!(footprint > 0, "the decoded snapshots are charged");
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
            Arc::ptr_eq(&hit.decoded, &e.decoded),
            "a hit shares the decoded snapshots, it does not re-decode"
        );
    }

    #[test]
    fn geometry_mismatch_is_a_miss_not_a_wrong_answer() {
        let cache = StoreCache::new(4, usize::MAX);
        cache.insert(5, entry(0));
        // Same cache key, different machine/program fingerprint: the
        // decoded snapshots must not be served.
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
}
