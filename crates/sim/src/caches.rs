//! Set-associative cache timing model with LRU replacement.
//!
//! The timing model tracks only tags, valid and dirty bits — data values
//! come from the functional oracle. ACE lifetime events are emitted by the
//! pipeline, which consults the [`AccessResult`]s returned here.

use crate::config::CacheConfig;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
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
#[derive(Debug, Clone)]
pub struct Cache {
    lines: Vec<Line>,
    sets: usize,
    ways: usize,
    line_shift: u32,
    tick: u64,
    /// Total accesses.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
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
        Cache {
            lines: vec![Line::default(); sets * ways],
            sets,
            ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
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

    /// Base address of the line held in the `idx`-th physical line slot
    /// (set-major order), or `None` if the slot is invalid or out of
    /// range. Used by the fault-injection engine to sample resident
    /// lines.
    #[must_use]
    pub fn valid_line(&self, idx: usize) -> Option<u64> {
        let line = self.lines.get(idx)?;
        if !line.valid {
            return None;
        }
        let set = idx / self.ways;
        Some(self.rebuild_addr(line.tag, set))
    }

    /// Looks up `addr` without changing state (no LRU update, no fill).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.lines[set * self.ways..(set + 1) * self.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Accesses `addr`, allocating on miss; `is_write` marks the line dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        self.tick += 1;
        self.accesses += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        for way in 0..self.ways {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                line.lru = self.tick;
                line.dirty |= is_write;
                return AccessResult {
                    hit: true,
                    victim: None,
                };
            }
        }
        self.misses += 1;
        // Choose victim: invalid way first, else least-recently used.
        let mut victim_way = 0;
        let mut victim_lru = u64::MAX;
        for way in 0..self.ways {
            let line = &self.lines[base + way];
            if !line.valid {
                victim_way = way;
                break;
            }
            if line.lru < victim_lru {
                victim_lru = line.lru;
                victim_way = way;
            }
        }
        let victim_line = self.lines[base + victim_way];
        let victim = victim_line
            .valid
            .then(|| (self.rebuild_addr(victim_line.tag, set), victim_line.dirty));
        self.lines[base + victim_way] = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: self.tick,
        };
        AccessResult { hit: false, victim }
    }

    /// Marks the line containing `addr` dirty if present (used for
    /// writebacks arriving from an upper level).
    pub fn mark_dirty(&mut self, addr: u64) {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.ways;
        for way in 0..self.ways {
            let line = &mut self.lines[base + way];
            if line.valid && line.tag == tag {
                line.dirty = true;
                return;
            }
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
    /// LRU clock and every line match. The `accesses`/`misses` counters
    /// never feed back into behavior and are not compared.
    pub(crate) fn same_state(&self, other: &Cache) -> bool {
        self.tick == other.tick && self.lines == other.lines
    }

    /// Heap bytes of the line array.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.lines[..])
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
