//! Set-associative cache timing model with LRU replacement.
//!
//! The timing model tracks only tags, valid and dirty bits — data values
//! come from the functional oracle. ACE lifetime events are emitted by the
//! pipeline, which consults the [`AccessResult`]s returned here.

use avf_isa::CowBlock;

use crate::config::CacheConfig;

/// Lines per copy-on-write block: the unit a [`Cache`] shares with its
/// clones and copies on its first write after a clone. A block holds
/// whole sets, so it holds fewer lines when the associativity does not
/// divide this or when the cache is smaller.
const BLOCK_LINES: usize = 64;

/// `Line::stamp` flag: the line holds a tag.
const VALID: u64 = 1;
/// `Line::stamp` flag: the line was written since it was filled.
const DIRTY: u64 = 2;
/// Bits of `Line::stamp` below the LRU tick.
const FLAG_BITS: u32 = 2;

/// One line: its tag, and its LRU tick with the valid and dirty flags
/// in the low bits. Ticks are distinct and counted per access, so
/// stamps order as their ticks do; the tag keeps all 64 bits, which a
/// one-set cache of one-byte lines needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    stamp: u64,
}

// Two words: a block copy or compare touches 1 KiB of full-width lines.
const _: () = assert!(std::mem::size_of::<Line>() == 16);

impl Line {
    fn filled(tag: u64, tick: u64, dirty: bool) -> Line {
        Line {
            tag,
            stamp: tick << FLAG_BITS | if dirty { DIRTY } else { 0 } | VALID,
        }
    }

    fn valid(self) -> bool {
        self.stamp & VALID != 0
    }

    fn dirty(self) -> bool {
        self.stamp & DIRTY != 0
    }

    fn holds(self, tag: u64) -> bool {
        self.valid() && self.tag == tag
    }
}

/// What happened on a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// Line base address of an evicted victim, with its dirty state.
    pub victim: Option<(u64, bool)>,
}

/// One level of set-associative cache (timing state only).
///
/// The lines are held in blocks of whole sets shared copy-on-write: a
/// clone (and [`Clone::clone_from`]) costs one pointer per block plus a
/// copy of each block the source wrote since it was last cloned or
/// rewound, a write copies a block only while it is still shared, and
/// [`Cache::same_state`] skips the blocks two caches share. The cache
/// writes the blocks it owns in place, touching no reference count.
#[derive(Debug)]
pub struct Cache {
    blocks: Vec<CowBlock<Line>>,
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// Log2 of the sets per block.
    block_shift: u32,
    tick: u64,
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
}

impl Clone for Cache {
    fn clone(&self) -> Cache {
        Cache {
            blocks: self.blocks.clone(),
            ..*self
        }
    }

    /// Rewinds to `source`, keeping the blocks that already share its.
    fn clone_from(&mut self, source: &Cache) {
        self.blocks.clone_from(&source.blocks);
        *self = Cache {
            blocks: std::mem::take(&mut self.blocks),
            ..*source
        };
    }
}

impl Cache {
    /// Builds the timing state for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two number of sets.
    #[must_use]
    pub fn new(cfg: &CacheConfig) -> Cache {
        let sets = cfg.sets() as usize;
        let ways = cfg.ways as usize;
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        // The most whole sets that fit a block, as a power of two.
        let block_sets = (BLOCK_LINES / ways).max(1).ilog2().min(sets.ilog2());
        let block_lines = ways << block_sets;
        Cache {
            blocks: (0..sets >> block_sets)
                .map(|_| CowBlock::new(vec![Line::default(); block_lines].into()))
                .collect(),
            sets,
            ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            block_shift: block_sets,
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Line base address containing `addr`.
    #[inline]
    #[must_use]
    pub fn line_base(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.sets - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift >> self.sets.trailing_zeros()
    }

    fn rebuild_addr(&self, tag: u64, set: usize) -> u64 {
        ((tag << self.sets.trailing_zeros()) | set as u64) << self.line_shift
    }

    /// The block holding `set`, and the offset of the set's first way
    /// in it.
    fn locate(&self, set: usize) -> (usize, usize) {
        let within = set & ((1 << self.block_shift) - 1);
        (set >> self.block_shift, within * self.ways)
    }

    /// The ways of `set`.
    #[inline]
    fn set_lines(&self, set: usize) -> &[Line] {
        let (block, first) = self.locate(set);
        &self.blocks[block].items()[first..first + self.ways]
    }

    /// The ways of `set`, their block unshared for writing.
    #[inline]
    fn set_lines_mut(&mut self, set: usize) -> &mut [Line] {
        let (block, first) = self.locate(set);
        &mut self.blocks[block].items_mut()[first..first + self.ways]
    }

    /// Base address of the line held in the `idx`-th physical line slot
    /// (set-major order), or `None` if the slot is invalid or out of
    /// range. Used by the fault-injection engine to sample resident
    /// lines.
    #[must_use]
    pub fn valid_line(&self, idx: usize) -> Option<u64> {
        let set = idx / self.ways;
        if set >= self.sets {
            return None;
        }
        let line = self.set_lines(set)[idx % self.ways];
        line.valid().then(|| self.rebuild_addr(line.tag, set))
    }

    /// Looks up `addr` without changing state (no LRU update, no fill).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let tag = self.tag_of(addr);
        self.set_lines(self.set_of(addr))
            .iter()
            .any(|l| l.holds(tag))
    }

    /// Accesses `addr`, allocating on miss; `is_write` marks the line dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        self.tick += 1;
        self.accesses += 1;
        let (set, tag, tick) = (self.set_of(addr), self.tag_of(addr), self.tick);
        let ways = self.set_lines_mut(set);
        if let Some(line) = ways.iter_mut().find(|l| l.holds(tag)) {
            *line = Line::filled(tag, tick, is_write || line.dirty());
            return AccessResult {
                hit: true,
                victim: None,
            };
        }
        // Choose victim: invalid way first, else least-recently used.
        let mut victim = 0;
        for way in 0..ways.len() {
            if !ways[way].valid() {
                victim = way;
                break;
            }
            if ways[way].stamp < ways[victim].stamp {
                victim = way;
            }
        }
        let old = std::mem::replace(&mut ways[victim], Line::filled(tag, tick, is_write));
        self.misses += 1;
        AccessResult {
            hit: false,
            victim: old
                .valid()
                .then(|| (self.rebuild_addr(old.tag, set), old.dirty())),
        }
    }

    /// Marks the line containing `addr` dirty if present (used for
    /// writebacks arriving from an upper level).
    pub fn mark_dirty(&mut self, addr: u64) {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        // A line already dirty is left shared.
        if let Some(way) = self
            .set_lines(set)
            .iter()
            .position(|l| l.holds(tag) && !l.dirty())
        {
            self.set_lines_mut(set)[way].stamp |= DIRTY;
        }
    }

    /// Miss rate over the run so far.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Whether `self` and `other` behave identically from here on: the
    /// LRU clock and every line match. Blocks the two share are skipped
    /// without comparing lines. The `accesses`/`misses` counters never
    /// feed back into behavior and are not compared.
    #[must_use]
    pub fn same_state(&self, other: &Cache) -> bool {
        self.tick == other.tick
            && self.blocks.len() == other.blocks.len()
            && self
                .blocks
                .iter()
                .zip(&other.blocks)
                .all(|(a, b)| a.shares_with(b) || a.items() == b.items())
    }

    /// Identities of the line blocks: two caches (or a cache and its
    /// snapshot) yield the same identity for a block they share, and
    /// the first write to a shared block gives it a new one.
    pub fn block_identities(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().map(CowBlock::identity)
    }

    /// Each block's identity (as [`Cache::block_identities`]) with its
    /// heap bytes, so that callers can count each distinct block once.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.blocks
            .iter()
            .map(|b| (b.identity(), std::mem::size_of_val(b.items())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(&CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small();
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1038, false).hit, "same line");
        assert_eq!(c.misses, 1);
        assert_eq!(c.accesses, 3);
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 lines * 64 B).
        let a = 0x0000;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        let r = c.access(d, false);
        assert!(!r.hit);
        assert_eq!(r.victim, Some((b, false)), "b was LRU");
        assert!(c.probe(a));
        assert!(!c.probe(b));
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = small();
        c.access(0x0, true);
        c.access(4 * 64, false);
        let r = c.access(8 * 64, false);
        assert_eq!(r.victim, Some((0x0, true)));
    }

    #[test]
    fn mark_dirty_on_present_line() {
        let mut c = small();
        c.access(0x0, false);
        c.mark_dirty(0x0);
        c.access(4 * 64, false);
        let r = c.access(8 * 64, false);
        assert_eq!(r.victim, Some((0x0, true)));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(&CacheConfig {
            size_bytes: 256,
            ways: 1,
            line_bytes: 64,
            latency: 1,
        });
        c.access(0x0, false);
        let r = c.access(256, false); // same set in a 4-set direct-mapped cache
        assert_eq!(r.victim, Some((0x0, false)));
    }

    #[test]
    fn line_base_masks_offset() {
        let c = small();
        assert_eq!(c.line_base(0x1234), 0x1200);
    }
}
