//! Bounded worker-side caches: golden passes and fitness scores.
//!
//! Re-running the golden pass for every campaign is the biggest fixed
//! cost of a worker: the pass is a pure function of `(machine, program,
//! instruction budget, checkpoint interval)`, and a validation sweep
//! re-runs the same four programs per invocation. The service therefore
//! keys every job by a 64-bit content hash of those parameters
//! ([`avf_isa::wire::content_hash64`]), and a worker that finds the job
//! in its [`StoreCache`] skips the golden pass entirely.
//!
//! The [`ScoreCache`] does the same for GA fitness. A score depends on
//! the evaluation context and on the generated program, not on the
//! genome that produced it: `Knobs::from_genome` clamps and rounds, and
//! the generator maps many knob sets to one program. So scores are
//! memoized per (context fingerprint, program contents), and both an
//! elite re-scored in a later generation and a new genome that builds
//! an already-scored program hit there instead of paying a
//! simulation. The local search and `serve`'s evaluation sessions use
//! the same cache type and key.
//!
//! Both caches are built on one private LRU core, which owns the map,
//! the use clock, the hit/miss/eviction counters and the bounds: entry
//! count and total charged bytes, evicting least-recently-used entries
//! first, so a long-lived `serve` process cannot grow without limit no
//! matter how many distinct jobs pass through it. A store entry is
//! charged its checkpoints' footprint. The score cache adds only what
//! is its own — interned data segments with reference counts — and the
//! core hands every evicted entry back so its segment can be released.
//! One cache is shared by every connection of a server (`Arc` + mutex
//! — store entries hold `Arc`s, so a hit never copies snapshots under
//! the lock).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

use avf_isa::{Inst, Program};
use avf_sim::{DecodedCheckpoints, GoldenRun, PruneEvidence};

/// Default entry bound of a server's store cache.
pub const DEFAULT_CACHE_ENTRIES: usize = 16;

/// Default byte bound of a server's store cache
/// ([`CacheEntry::footprint`]).
pub const DEFAULT_CACHE_BYTES: usize = 512 << 20;

/// Default entry bound of a [`ScoreCache`].
pub const DEFAULT_SCORE_CACHE_ENTRIES: usize = 4096;

/// Default byte bound of a [`ScoreCache`]: every entry's key plus each
/// distinct data segment once. A search over one machine holds two
/// segments (one per chase template), and a full entry bound of keys
/// is at most ~8 MiB.
pub const DEFAULT_SCORE_CACHE_BYTES: usize = 64 << 20;

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

/// The LRU core both caches are built on: every entry carries the bytes
/// it is charged and a recency stamp from one use clock, lookups count
/// hits and misses, and admitting an entry evicts least-recently-used
/// entries until the entry and byte bounds hold.
struct Lru<K, V> {
    map: HashMap<K, Held<V>>,
    /// Monotonic use counter backing the LRU order.
    clock: u64,
    stats: CacheStats,
    max_entries: usize,
    max_bytes: usize,
}

/// One [`Lru`] entry.
struct Held<V> {
    value: V,
    /// Bytes charged against the byte bound for this entry.
    bytes: usize,
    /// Recency stamp.
    stamp: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty core bounded by `max_entries` entries (clamped to at
    /// least one, so a cache can never refuse everything) and
    /// `max_bytes` charged bytes.
    fn new(max_entries: usize, max_bytes: usize) -> Self {
        Lru {
            map: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
            max_entries: max_entries.max(1),
            max_bytes,
        }
    }

    /// Looks `key` up, refreshing its recency, and counts a hit or a
    /// miss. An entry `valid` rejects is a miss and is not served.
    fn touch(&mut self, key: &K, valid: impl FnOnce(&V) -> bool) -> Option<&V> {
        self.clock += 1;
        match self.map.get_mut(key) {
            Some(held) if valid(&held.value) => {
                held.stamp = self.clock;
                self.stats.hits += 1;
                Some(&held.value)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Charges `bytes` that belong to no one entry.
    fn charge(&mut self, bytes: usize) {
        self.stats.bytes += bytes;
    }

    /// Inserts (or replaces) `key`, charged `bytes`, then evicts
    /// least-recently-used entries until both bounds hold, handing each
    /// victim to `evicted`, which returns the bytes its eviction freed
    /// beyond the entry's own charge. An entry larger than the byte
    /// bound is still admitted alone — its cost is already paid, so
    /// refusing would only force the next lookup to pay it again.
    fn admit(&mut self, key: K, value: V, bytes: usize, mut evicted: impl FnMut(K, V) -> usize) {
        self.clock += 1;
        let stamp = self.clock;
        let held = Held {
            value,
            bytes,
            stamp,
        };
        if let Some(old) = self.map.insert(key, held) {
            self.stats.bytes -= old.bytes;
        }
        self.stats.bytes += bytes;
        while self.map.len() > self.max_entries
            || (self.stats.bytes > self.max_bytes && self.map.len() > 1)
        {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, held)| held.stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty map");
            let (key, held) = self.map.remove_entry(&lru).expect("lru key present");
            self.stats.bytes -= held.bytes + evicted(key, held.value);
            self.stats.evictions += 1;
        }
    }

    /// Current counters.
    fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len(),
            ..self.stats
        }
    }
}

/// The checkpoint-store cache: `job content hash → golden pass`, each
/// entry charged its [`CacheEntry::footprint`].
pub struct StoreCache(Mutex<Lru<u64, CacheEntry>>);

impl StoreCache {
    /// A store cache bounded by `max_entries` entries (clamped to at
    /// least one) and `max_bytes` of [`CacheEntry::footprint`].
    #[must_use]
    pub fn new(max_entries: usize, max_bytes: usize) -> StoreCache {
        StoreCache(Mutex::new(Lru::new(max_entries, max_bytes)))
    }

    /// A default-bounded store cache behind the `Arc` the server clones
    /// per connection.
    #[must_use]
    pub fn shared() -> Arc<StoreCache> {
        Arc::new(StoreCache::new(DEFAULT_CACHE_ENTRIES, DEFAULT_CACHE_BYTES))
    }

    /// Looks a job up, refreshing its recency, and counts a hit or a
    /// miss. An entry whose geometry fingerprint disagrees with
    /// `geometry` (a key collision across machine/program pairs) is a
    /// miss: its snapshots must not be served to this job.
    #[must_use]
    pub fn get(&self, hash: u64, geometry: u64) -> Option<CacheEntry> {
        self.0
            .lock()
            .expect("cache lock")
            .touch(&hash, |entry| entry.geometry == geometry)
            .cloned()
    }

    /// Inserts (or refreshes) a job, evicting least-recently-used
    /// entries until both bounds hold. An entry larger than the byte
    /// bound is still admitted alone.
    pub fn insert(&self, hash: u64, entry: CacheEntry) {
        let bytes = entry.footprint();
        let mut lru = self.0.lock().expect("cache lock");
        lru.admit(hash, entry, bytes, |_, _| 0);
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.0.lock().expect("cache lock").stats()
    }
}

/// Bytes an entry is charged beyond its instructions: the rest of its
/// key, its score cell and its recency stamp.
const SCORE_ENTRY_OVERHEAD: usize = 64;

/// The fitness score cache: `(context fingerprint, program) → score`.
///
/// The key is everything a score depends on: the
/// [`EvalContext`](crate::EvalContext) fingerprint and the program's
/// exact contents — instructions, entry point, data-segment base and
/// data bytes. The program name is left out, because simulation never
/// reads it. Every key byte is compared, so no match rests on a hash
/// alone.
///
/// The data segment is the large part: the L2-miss chase template
/// carries ~2 MiB of data behind at most ~2 KB of instructions.
/// It depends only on the footprint and the machine, so the cache
/// interns each distinct segment once, charges it once against the
/// byte bound, and keys entries on the interned segment's id. A lookup
/// hashes only the instructions and a few scalars; it finds the
/// program's segment by comparing its bytes (one `memcmp`) against the
/// interned segments of the same length, and never hashes or copies it.
/// A segment is copied in only when no entry holds an equal one, and
/// dropped with its last entry. An entry is charged its instructions
/// (16 bytes each) plus 64 bytes for the rest of its key and its cell.
pub struct ScoreCache(Mutex<ScoreInner>);

struct ScoreInner {
    lru: Lru<ScoreKey, ScoreEntry>,
    segments: Segments,
}

/// A [`ScoreCache`] entry.
struct ScoreEntry {
    cell: Arc<OnceLock<f64>>,
    /// Length of the entry's data segment (the segment's bucket).
    data_len: usize,
}

/// Everything a score depends on, with the data segment replaced by the
/// id of its interned copy.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ScoreKey {
    /// [`EvalContext::fingerprint`](crate::EvalContext::fingerprint).
    context: u64,
    entry: u32,
    data_base: u64,
    insts: Vec<Inst>,
    segment: u64,
}

impl ScoreKey {
    fn charge(&self) -> usize {
        std::mem::size_of_val(self.insts.as_slice()) + SCORE_ENTRY_OVERHEAD
    }
}

/// One interned data segment.
struct Segment {
    id: u64,
    bytes: Box<[u8]>,
    /// Entries keyed on this segment.
    refs: usize,
}

/// The interned data segments, bucketed by length.
#[derive(Default)]
struct Segments {
    by_len: HashMap<usize, Vec<Segment>>,
    next_id: u64,
}

impl Segments {
    /// The id of the interned segment equal to `data`, interning a copy
    /// if there is none, and the bytes that copy newly charges.
    fn intern(&mut self, data: &[u8]) -> (u64, usize) {
        let bucket = self.by_len.entry(data.len()).or_default();
        if let Some(seg) = bucket.iter().find(|seg| *seg.bytes == *data) {
            return (seg.id, 0);
        }
        let id = self.next_id;
        self.next_id += 1;
        bucket.push(Segment {
            id,
            bytes: data.into(),
            refs: 0,
        });
        (id, data.len())
    }

    /// Changes the entry count of segment `id` (of length `len`) by
    /// `delta`, dropping the segment when no entry holds it. Returns the
    /// bytes a dropped segment frees.
    fn add_refs(&mut self, len: usize, id: u64, delta: isize) -> usize {
        let bucket = self.by_len.get_mut(&len).expect("segment bucket");
        let at = bucket
            .iter()
            .position(|seg| seg.id == id)
            .expect("interned segment");
        bucket[at].refs = bucket[at]
            .refs
            .checked_add_signed(delta)
            .expect("segment refs");
        if bucket[at].refs > 0 {
            return 0;
        }
        bucket.swap_remove(at);
        if bucket.is_empty() {
            self.by_len.remove(&len);
        }
        len
    }
}

/// A lookup's handle on one [`ScoreCache`] entry.
///
/// The entry is created on a miss, before its score exists, so every
/// lookup of the same program — in the same batch, on another thread,
/// or in another session — shares one cell and the program is
/// simulated once: the first [`ScoreSlot::score`] call computes it and
/// concurrent callers wait for that result.
pub struct ScoreSlot {
    cell: Arc<OnceLock<f64>>,
    hit: bool,
}

impl ScoreSlot {
    /// Whether the lookup found the program already in the cache
    /// (scored, or being scored by an earlier lookup).
    #[must_use]
    pub fn hit(&self) -> bool {
        self.hit
    }

    /// The score, computed by `simulate` unless an earlier call for
    /// this entry already computed it.
    pub fn score(&self, simulate: impl FnOnce() -> f64) -> f64 {
        *self.cell.get_or_init(simulate)
    }
}

impl ScoreCache {
    /// A score cache bounded by `max_entries` entries (clamped to at
    /// least one) and `max_bytes` of keys plus interned segments.
    /// An entry larger than the byte bound is still admitted alone.
    #[must_use]
    pub fn new(max_entries: usize, max_bytes: usize) -> ScoreCache {
        ScoreCache(Mutex::new(ScoreInner {
            lru: Lru::new(max_entries, max_bytes),
            segments: Segments::default(),
        }))
    }

    /// A default-bounded score cache behind the `Arc` a server clones
    /// per connection.
    #[must_use]
    pub fn shared() -> Arc<ScoreCache> {
        Arc::new(ScoreCache::new(
            DEFAULT_SCORE_CACHE_ENTRIES,
            DEFAULT_SCORE_CACHE_BYTES,
        ))
    }

    /// Looks `program` up under `context` (an
    /// [`EvalContext::fingerprint`](crate::EvalContext::fingerprint)),
    /// refreshing its recency, and counts a hit or a miss. A miss
    /// inserts an empty entry, evicting least-recently-used entries
    /// until both bounds hold; an evicted entry releases its segment.
    #[must_use]
    pub fn slot(&self, context: u64, program: &Program) -> ScoreSlot {
        let data = &program.data().bytes;
        let mut guard = self.0.lock().expect("score cache lock");
        let ScoreInner { lru, segments } = &mut *guard;
        let (segment, interned) = segments.intern(data);
        lru.charge(interned);
        let key = ScoreKey {
            context,
            entry: program.entry(),
            data_base: program.data().base,
            insts: program.insts().to_vec(),
            segment,
        };
        if let Some(entry) = lru.touch(&key, |_| true) {
            return ScoreSlot {
                cell: Arc::clone(&entry.cell),
                hit: true,
            };
        }
        segments.add_refs(data.len(), segment, 1);
        let cell = Arc::new(OnceLock::new());
        let charge = key.charge();
        let entry = ScoreEntry {
            cell: Arc::clone(&cell),
            data_len: data.len(),
        };
        lru.admit(key, entry, charge, |key, entry| {
            segments.add_refs(entry.data_len, key.segment, -1)
        });
        ScoreSlot { cell, hit: false }
    }

    /// Current counters. `bytes` counts keys and interned segments.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.0.lock().expect("score cache lock").lru.stats()
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

    fn program(name: &str, data: u8) -> Program {
        let mut segment = avf_isa::DataSegment::zeroed(64);
        segment.bytes[0] = data;
        Program::new(name, vec![avf_isa::Inst::halt()], segment, 0).expect("valid program")
    }

    #[test]
    fn eval_cache_hits_and_evicts() {
        let cache = ScoreCache::new(2, usize::MAX);
        let (a, b, c) = (program("a", 1), program("b", 2), program("c", 3));
        let slot = cache.slot(1, &a);
        assert!(!slot.hit());
        assert_eq!(slot.score(|| 10.0), 10.0);
        let again = cache.slot(1, &a);
        assert!(again.hit());
        assert_eq!(again.score(|| unreachable!("scored once")), 10.0);
        assert_eq!(cache.slot(1, &b).score(|| 20.0), 20.0);
        // Touch A so B is the LRU victim when C arrives.
        assert!(cache.slot(1, &a).hit());
        assert_eq!(cache.slot(1, &c).score(|| 30.0), 30.0);
        assert!(!cache.slot(1, &b).hit(), "LRU entry evicted");
        assert!(!cache.slot(2, &c).hit(), "context keys are distinct");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 5));
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 3);
    }

    #[test]
    fn each_distinct_segment_is_charged_once_and_dropped_with_its_last_entry() {
        let cache = ScoreCache::new(2, usize::MAX);
        let shared = program("x", 7);
        // Same data behind different instructions: a second key, not a
        // second segment.
        let longer = Program::new(
            "y",
            vec![avf_isa::Inst::halt(), avf_isa::Inst::halt()],
            shared.data().clone(),
            0,
        )
        .expect("valid program");
        let _ = cache.slot(1, &shared);
        let _ = cache.slot(1, &longer);
        let charge = |p: &Program| std::mem::size_of_val(p.insts()) + SCORE_ENTRY_OVERHEAD;
        assert_eq!(
            cache.stats().bytes,
            shared.data().len() + charge(&shared) + charge(&longer)
        );
        // Two entries on other data evict both: the shared segment goes
        // with the last entry that held it.
        let (d, e) = (program("d", 8), program("e", 9));
        let _ = cache.slot(1, &d);
        let _ = cache.slot(1, &e);
        assert_eq!(
            cache.stats().bytes,
            d.data().len() + e.data().len() + charge(&d) + charge(&e)
        );
    }
}
