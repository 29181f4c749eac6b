//! Injected cache-array faults and the four events that move them: an
//! eviction, a DL1 fill, a load that reads a faulted byte and a store
//! that overwrites one.
//!
//! The cycle loop applies these events to a faulty machine's faults as
//! they happen; the golden future applies the same events, logged by the
//! golden pass, to a fault not yet injected (`GoldenFuture::cache_fate`).
//! Both go through [`CacheFaults`], so the two cannot disagree on what
//! an event does.

/// An injected cache-array fault whose fate follows the line: a dirty
/// eviction writes the corruption back (it persists), a clean eviction
/// discards it (the next fill restores clean data), so the flip must be
/// reverted from the merged oracle memory image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheFault {
    /// `true` for DL1, `false` for L2.
    pub(crate) dl1: bool,
    /// Base address of the corrupted line.
    pub(crate) line_base: u64,
    /// Byte address of the flipped bit.
    pub(crate) addr: u64,
    /// Bit mask within the byte.
    pub(crate) mask: u8,
}

/// The injected cache faults still resident in their lines, in the
/// order they arose.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct CacheFaults(Vec<CacheFault>);

impl CacheFaults {
    /// Whether no fault is resident.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The number of resident faults (a fault the DL1 and the L2 both
    /// hold counts twice).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Adds a freshly flipped fault.
    pub(crate) fn inject(&mut self, fault: CacheFault) {
        self.0.push(fault);
    }

    /// Settles any fault in an evicted line. A clean eviction discards
    /// the corrupted line — the fault dies with it. A dirty DL1 eviction
    /// writes the line (fault included) back into the L2; a dirty L2
    /// eviction writes it back to main memory, at which point the
    /// corruption becomes architectural: `escape` receives each such
    /// byte's address and bit mask.
    pub(crate) fn evict(
        &mut self,
        dl1: bool,
        victim_base: u64,
        dirty: bool,
        mut escape: impl FnMut(u64, u8),
    ) {
        let mut demoted: Vec<CacheFault> = Vec::new();
        self.0.retain(|f| {
            if f.line_base != victim_base {
                return true;
            }
            if f.dl1 != dl1 {
                // A dirty DL1 writeback replaces the whole L2 line, so
                // whatever fault state the L2 held for it (e.g. the
                // original of a fault propagated into the DL1 on fill)
                // is superseded by the DL1 copy being demoted below —
                // keeping it would double-apply the flip or resurrect a
                // store-repaired one.
                return !(dl1 && dirty && !f.dl1);
            }
            if dirty {
                if dl1 {
                    demoted.push(CacheFault { dl1: false, ..*f });
                } else {
                    escape(f.addr, f.mask);
                }
            }
            false
        });
        self.0.extend(demoted);
    }

    /// A DL1 fill reads the line out of the L2: any L2 fault on it is
    /// copied into the new DL1-resident line.
    pub(crate) fn fill(&mut self, line_base: u64) {
        let copies: Vec<CacheFault> = self
            .0
            .iter()
            .filter(|f| !f.dl1 && f.line_base == line_base)
            .map(|f| CacheFault { dl1: true, ..*f })
            .collect();
        self.0.extend(copies);
    }

    /// XOR mask (in loaded-value bit order) of the DL1 faults a load of
    /// `bytes` bytes at `ea`, in DL1 line `line`, consumes.
    pub(crate) fn consumed(&self, line: u64, ea: u64, bytes: u64) -> u64 {
        let mut xor = 0u64;
        for f in &self.0 {
            if f.dl1 && f.line_base == line && f.addr >= ea && f.addr < ea + bytes {
                xor |= u64::from(f.mask) << ((f.addr - ea) * 8);
            }
        }
        xor
    }

    /// A store of `bytes` bytes at `ea` overwrites the DL1-faulted
    /// bytes it covers: those faults are repaired in place.
    pub(crate) fn repair(&mut self, ea: u64, bytes: u64) {
        self.0
            .retain(|f| !(f.dl1 && f.addr >= ea && f.addr < ea + bytes));
    }

    /// Heap bytes of the resident faults.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.0[..])
    }
}
