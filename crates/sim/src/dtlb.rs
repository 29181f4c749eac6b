//! Fully-associative data TLB timing model with LRU replacement.

/// Result of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbResult {
    /// Whether the translation was resident.
    pub hit: bool,
    /// Virtual page number evicted to make room, if any.
    pub evicted: Option<u64>,
}

/// Fully-associative TLB (timing state only).
#[derive(Debug, Clone)]
pub struct Dtlb {
    entries: Vec<(u64, u64)>, // (vpn, lru tick)
    capacity: usize,
    page_shift: u32,
    tick: u64,
    /// Total translations.
    pub accesses: u64,
    /// Total misses.
    pub misses: u64,
    /// VPN whose entry carries an injected fault (tag corruption).
    poisoned: Option<u64>,
    /// Whether a translation consumed the poisoned entry.
    tripped: bool,
}

impl Dtlb {
    /// Creates a TLB with `capacity` entries for `page_bytes`-byte pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, page_bytes: u64) -> Dtlb {
        assert!(capacity > 0, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Dtlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            page_shift: page_bytes.trailing_zeros(),
            tick: 0,
            accesses: 0,
            misses: 0,
            poisoned: None,
            tripped: false,
        }
    }

    /// Virtual page number of `addr`.
    #[inline]
    #[must_use]
    pub fn vpn(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Translates `addr`, filling on a miss.
    pub fn translate(&mut self, addr: u64) -> TlbResult {
        self.tick += 1;
        self.accesses += 1;
        let vpn = self.vpn(addr);
        if let Some(e) = self.entries.iter_mut().find(|(v, _)| *v == vpn) {
            e.1 = self.tick;
            if self.poisoned == Some(vpn) {
                // Consuming a tag-corrupted entry yields a wrong
                // translation: the injection engine classifies this as a
                // detected unrecoverable error.
                self.tripped = true;
            }
            return TlbResult {
                hit: true,
                evicted: None,
            };
        }
        self.misses += 1;
        let mut evicted = None;
        if self.entries.len() == self.capacity {
            let (idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .expect("non-empty");
            let victim = self.entries.swap_remove(idx).0;
            if self.poisoned == Some(victim) {
                // The fault left the machine with the entry: refills are
                // clean.
                self.poisoned = None;
            }
            evicted = Some(victim);
        }
        self.entries.push((vpn, self.tick));
        TlbResult {
            hit: false,
            evicted,
        }
    }

    /// Injects a tag fault into the `idx`-th resident entry, returning
    /// its VPN, or `None` if that entry slot is vacant. A later
    /// [`Dtlb::translate`] hit on the entry sets the tripped flag; an
    /// eviction clears the fault.
    pub fn poison_entry(&mut self, idx: usize) -> Option<u64> {
        let vpn = self.entries.get(idx)?.0;
        self.poisoned = Some(vpn);
        self.tripped = false;
        Some(vpn)
    }

    /// Whether a translation consumed a poisoned entry since injection.
    #[must_use]
    pub fn poison_tripped(&self) -> bool {
        self.tripped
    }

    /// Number of resident translations.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.entries.len()
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

    /// Whether `self` and `other` are equal in all but the poison flag:
    /// the LRU clock, the tripped flag and every resident entry (in slot
    /// order) match. The `accesses`/`misses` counters never feed back
    /// into behavior and are not compared; the poison flag changes
    /// behavior only when a translation hits the poisoned entry.
    pub(crate) fn same_active_state(&self, other: &Dtlb) -> bool {
        let Dtlb {
            entries,
            capacity,
            page_shift,
            tick,
            accesses: _,
            misses: _,
            poisoned: _,
            tripped,
        } = other;
        self.tick == *tick
            && self.tripped == *tripped
            && self.capacity == *capacity
            && self.page_shift == *page_shift
            && self.entries == *entries
    }

    /// The VPN whose entry carries an injected fault, if any.
    pub(crate) fn poisoned(&self) -> Option<u64> {
        self.poisoned
    }

    /// The LRU clock: the number of translations so far.
    pub(crate) fn tick(&self) -> u64 {
        self.tick
    }

    /// Heap bytes of the entry array.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, u64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut t = Dtlb::new(4, 8192);
        assert!(!t.translate(0x0).hit);
        assert!(t.translate(0x1FFF).hit, "same 8 kB page");
        assert!(!t.translate(0x2000).hit, "next page");
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut t = Dtlb::new(2, 8192);
        t.translate(0x0000); // page 0
        t.translate(0x2000); // page 1
        t.translate(0x0000); // page 0 now MRU
        let r = t.translate(0x4000); // page 2 evicts page 1
        assert_eq!(r.evicted, Some(1));
        assert_eq!(t.resident(), 2);
    }

    #[test]
    fn covering_working_set_has_no_steady_state_misses() {
        let mut t = Dtlb::new(8, 8192);
        for _ in 0..4 {
            for p in 0..8u64 {
                t.translate(p * 8192);
            }
        }
        assert_eq!(t.misses, 8, "only compulsory misses");
    }

    #[test]
    fn vpn_computation() {
        let t = Dtlb::new(4, 8192);
        assert_eq!(t.vpn(0x0), 0);
        assert_eq!(t.vpn(8192), 1);
        assert_eq!(t.vpn(8192 * 3 + 7), 3);
    }
}
