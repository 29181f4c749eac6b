//! The copy-on-write blocked [`Cache`] behaves as a flat line array:
//! interleaved accesses, dirty marks, clones, rewinds (`clone_from`) and
//! comparisons give the hits, victims, probes, resident lines and
//! equalities of a flat reference model, and a write copies at most the
//! one block it touches.

use avf_sim::{Cache, CacheConfig};
use proptest::collection::vec;
use proptest::prelude::*;

/// One line of the reference model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FlatLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// The flat set-associative LRU cache the blocked one replaced.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Flat {
    lines: Vec<FlatLine>,
    sets: usize,
    ways: usize,
    line_shift: u32,
    tick: u64,
}

impl Flat {
    fn new(cfg: &CacheConfig) -> Flat {
        let (sets, ways) = (cfg.sets() as usize, cfg.ways as usize);
        Flat {
            lines: vec![FlatLine::default(); sets * ways],
            sets,
            ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tick: 0,
        }
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (
            (line as usize) & (self.sets - 1),
            line >> self.sets.trailing_zeros(),
        )
    }

    fn addr(&self, tag: u64, set: usize) -> u64 {
        ((tag << self.sets.trailing_zeros()) | set as u64) << self.line_shift
    }

    fn ways(&mut self, set: usize) -> &mut [FlatLine] {
        &mut self.lines[set * self.ways..(set + 1) * self.ways]
    }

    fn access(&mut self, addr: u64, is_write: bool) -> (bool, Option<(u64, bool)>) {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.split(addr);
        if let Some(line) = self.ways(set).iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            line.dirty |= is_write;
            return (true, None);
        }
        let ways = self.ways(set);
        let mut victim = 0;
        for way in 0..ways.len() {
            if !ways[way].valid {
                victim = way;
                break;
            }
            if ways[way].lru < ways[victim].lru {
                victim = way;
            }
        }
        let old = ways[victim];
        ways[victim] = FlatLine {
            tag,
            valid: true,
            dirty: is_write,
            lru: tick,
        };
        (
            false,
            old.valid.then(|| (self.addr(old.tag, set), old.dirty)),
        )
    }

    fn mark_dirty(&mut self, addr: u64) {
        let (set, tag) = self.split(addr);
        if let Some(line) = self.ways(set).iter_mut().find(|l| l.valid && l.tag == tag) {
            line.dirty = true;
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.split(addr);
        self.lines[set * self.ways..(set + 1) * self.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    fn valid_line(&self, idx: usize) -> Option<u64> {
        let line = self.lines.get(idx)?;
        line.valid.then(|| self.addr(line.tag, idx / self.ways))
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64, bool),
    MarkDirty(u64),
    /// Keep a clone of the current cache.
    Keep,
    /// Rewind to kept clone `k` (modulo the clones kept).
    Rewind(usize),
    /// Compare with kept clone `k`.
    Compare(usize),
    /// Replace the cache by a clone of itself.
    Reclone,
}

/// Geometries: 1 to 64 sets, 1 to 9 ways (so blocks of one set, of
/// whole sets and of fewer than 64 lines all occur), 16- to 128-byte
/// lines.
fn geometry() -> impl Strategy<Value = CacheConfig> {
    (0u32..7, 1u32..10, 4u32..8).prop_map(|(sets_log2, ways, line_log2)| CacheConfig {
        size_bytes: ((1u64 << sets_log2) * u64::from(ways)) << line_log2,
        ways,
        line_bytes: 1 << line_log2,
        latency: 1,
    })
}

/// An op code, a raw address, a write flag and a clone index. The
/// address is taken modulo four times the cache's capacity (see
/// `decode`), so that hits, conflicts and evictions all occur.
fn op() -> impl Strategy<Value = (u8, u64, bool, usize)> {
    (0u8..16, 0u64..1 << 20, any_bool(), 0usize..8)
}

fn any_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

fn decode(cfg: &CacheConfig, (kind, x, write, k): (u8, u64, bool, usize)) -> Op {
    let addr = x % (4 * cfg.size_bytes);
    match kind {
        0..=8 => Op::Access(addr, write),
        9 | 10 => Op::MarkDirty(addr),
        11 => Op::Keep,
        12 => Op::Rewind(k),
        13 | 14 => Op::Compare(k),
        _ => Op::Reclone,
    }
}

fn ids(cache: &Cache) -> Vec<usize> {
    cache.block_identities().collect()
}

/// Every observable of `cache` equals the model's.
fn agree(cache: &Cache, flat: &Flat, probe: u64) {
    let lines = flat.lines.len();
    for idx in 0..lines + 2 {
        assert_eq!(cache.valid_line(idx), flat.valid_line(idx), "slot {idx}");
    }
    assert_eq!(cache.probe(probe), flat.probe(probe), "probe {probe:#x}");
}

proptest! {
    #[test]
    fn blocked_cache_equals_a_flat_array(
        cfg in geometry(),
        ops in vec(op(), 1..120),
    ) {
        let (mut cache, mut flat) = (Cache::new(&cfg), Flat::new(&cfg));
        let mut kept: Vec<(Cache, Flat)> = Vec::new();
        for raw in ops {
            let op = decode(&cfg, raw);
            let before = ids(&cache);
            match op {
                Op::Access(addr, write) => {
                    let got = cache.access(addr, write);
                    prop_assert_eq!((got.hit, got.victim), flat.access(addr, write), "{:?}", op);
                }
                Op::MarkDirty(addr) => {
                    let unmarked = flat.clone();
                    cache.mark_dirty(addr);
                    flat.mark_dirty(addr);
                    if flat == unmarked {
                        prop_assert_eq!(ids(&cache), before, "a no-op mark copies nothing");
                    }
                }
                Op::Keep => {
                    kept.push((cache.clone(), flat.clone()));
                    prop_assert_eq!(ids(&kept.last().expect("kept").0), ids(&cache), "a clone shares");
                }
                Op::Rewind(k) if !kept.is_empty() => {
                    let (source, model) = &kept[k % kept.len()];
                    cache.clone_from(source);
                    flat.clone_from(model);
                    prop_assert_eq!(ids(&cache), ids(source), "a rewind shares");
                }
                Op::Compare(k) if !kept.is_empty() => {
                    let (other, model) = &kept[k % kept.len()];
                    prop_assert_eq!(cache.same_state(other), flat == *model, "{:?}", op);
                    prop_assert_eq!(other.same_state(&cache), flat == *model, "{:?}", op);
                }
                Op::Reclone => cache = cache.clone(),
                Op::Rewind(_) | Op::Compare(_) => {}
            }
            // A write copies at most the one block it touches.
            let after = ids(&cache);
            if matches!(op, Op::Access(..) | Op::MarkDirty(_)) {
                prop_assert_eq!(after.len(), before.len());
                let copied = after.iter().zip(&before).filter(|(a, b)| a != b).count();
                prop_assert!(copied <= 1, "{} blocks copied by {:?}", copied, op);
            }
            agree(&cache, &flat, raw.1 % (4 * cfg.size_bytes));
        }
        // The kept clones never saw the later writes.
        for (cache, flat) in &kept {
            agree(cache, flat, 0);
        }
    }
}
