//! Physical register file, rename map and free list.
//!
//! Thirty-one architected registers (`r31` is hardwired zero and never
//! renamed) map onto a merged physical file. Read events are recorded at
//! consumer *commit* so that squashed consumers never contribute, and each
//! physical register's lifetime is reported to the ACE analysis when it is
//! freed — the paper's observation that "rename registers cannot hold ACE
//! data all the time" (Section III) falls out of these lifetimes.

use avf_ace::{DynId, PregRecord};

const ARCH_REGS: usize = 31;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Preg {
    ready: bool,
    write_cycle: u64,
    reads: Vec<(DynId, u64)>,
}

/// Merged physical register file with speculative and committed rename maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysRegFile {
    pregs: Vec<Preg>,
    free: Vec<u32>,
    map: [u32; ARCH_REGS],
    committed_map: [u32; ARCH_REGS],
    reg_bits: u32,
}

impl PhysRegFile {
    /// Creates a file of `n_phys` registers; the first 31 start mapped to
    /// the architected registers, ready, with value-written-at-cycle-0.
    ///
    /// # Panics
    ///
    /// Panics if `n_phys < 32` (there must be at least one rename register).
    #[must_use]
    pub fn new(n_phys: usize, reg_bits: u32) -> PhysRegFile {
        assert!(
            n_phys > ARCH_REGS,
            "need at least {} physical registers",
            ARCH_REGS + 1
        );
        let mut pregs = vec![Preg::default(); n_phys];
        let mut map = [0u32; ARCH_REGS];
        for (i, m) in map.iter_mut().enumerate() {
            *m = i as u32;
            pregs[i].ready = true;
        }
        let free: Vec<u32> = (ARCH_REGS as u32..n_phys as u32).rev().collect();
        PhysRegFile {
            pregs,
            free,
            map,
            committed_map: map,
            reg_bits,
        }
    }

    /// Number of currently free physical registers.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Whether `preg` is on the free list (holds no live value).
    #[must_use]
    pub fn is_free(&self, preg: u32) -> bool {
        self.free.contains(&preg)
    }

    /// The architected register whose *newest* (speculative) definition
    /// lives in `preg`, or `None` — a `None` for a non-free register
    /// means the value has already been superseded by a younger
    /// definition, so a fault in it can no longer reach future readers.
    #[must_use]
    pub fn arch_of_newest(&self, preg: u32) -> Option<u8> {
        self.map.iter().position(|&p| p == preg).map(|i| i as u8)
    }

    /// Current speculative mapping of an architected register.
    ///
    /// # Panics
    ///
    /// Panics if `arch` is the zero register (31) or out of range.
    #[must_use]
    pub fn rename_src(&self, arch: u8) -> u32 {
        self.map[usize::from(arch)]
    }

    /// Allocates a new physical register for a write to `arch`, returning
    /// `(new_preg, previous_speculative_preg)`, or `None` if the free list
    /// is empty (dispatch must stall).
    pub fn allocate(&mut self, arch: u8) -> Option<(u32, u32)> {
        let new = self.free.pop()?;
        let prev = self.map[usize::from(arch)];
        self.map[usize::from(arch)] = new;
        let p = &mut self.pregs[new as usize];
        p.ready = false;
        p.write_cycle = 0;
        debug_assert!(p.reads.is_empty(), "freed register carried stale reads");
        Some((new, prev))
    }

    /// Marks `preg` written at `cycle` (writeback).
    pub fn set_ready(&mut self, preg: u32, cycle: u64) {
        let p = &mut self.pregs[preg as usize];
        p.ready = true;
        p.write_cycle = cycle;
    }

    /// Whether `preg` holds a value.
    #[inline]
    #[must_use]
    pub fn is_ready(&self, preg: u32) -> bool {
        self.pregs[preg as usize].ready
    }

    /// Records that committed instruction `reader` read `preg` at
    /// `issue_cycle`.
    pub fn record_read(&mut self, preg: u32, reader: DynId, issue_cycle: u64) {
        self.pregs[preg as usize].reads.push((reader, issue_cycle));
    }

    /// Commits a definition of `arch` by `preg`: updates the committed map
    /// and returns the lifetime record of the physical register this
    /// releases (the previous speculative mapping saved at rename).
    pub fn commit_def(&mut self, arch: u8, preg: u32, released: u32) -> PregRecord {
        self.committed_map[usize::from(arch)] = preg;
        let rec = {
            let p = &mut self.pregs[released as usize];
            PregRecord {
                write_cycle: p.write_cycle,
                reads: std::mem::take(&mut p.reads),
                bits: self.reg_bits,
            }
        };
        self.free.push(released);
        rec
    }

    /// Returns a squashed instruction's destination register to the free
    /// list (no lifetime is reported: the value was never architecturally
    /// visible and no committed consumer read it).
    pub fn squash_dest(&mut self, preg: u32) {
        let p = &mut self.pregs[preg as usize];
        debug_assert!(
            p.reads.is_empty(),
            "squashed register had committed readers"
        );
        p.ready = false;
        p.reads.clear();
        self.free.push(preg);
    }

    /// Rebuilds the speculative map after a pipeline flush: start from the
    /// committed map, then reapply surviving (older, uncommitted)
    /// definitions in program order.
    pub fn rebuild_map<'a>(&mut self, survivors: impl Iterator<Item = (u8, u32)> + 'a) {
        self.map = self.committed_map;
        for (arch, preg) in survivors {
            self.map[usize::from(arch)] = preg;
        }
    }

    /// Heap bytes of the register records, free list and read logs.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&self.pregs[..])
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self
                .pregs
                .iter()
                .map(|p| p.reads.capacity() * std::mem::size_of::<(DynId, u64)>())
                .sum::<usize>()
    }

    /// Drains every still-mapped register's lifetime at the end of
    /// simulation (registers never overwritten were never freed).
    pub fn drain_lifetimes(&mut self) -> Vec<PregRecord> {
        let mut out = Vec::with_capacity(ARCH_REGS);
        for arch in 0..ARCH_REGS {
            let preg = self.committed_map[arch];
            let p = &mut self.pregs[preg as usize];
            if !p.reads.is_empty() {
                out.push(PregRecord {
                    write_cycle: p.write_cycle,
                    reads: std::mem::take(&mut p.reads),
                    bits: self.reg_bits,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_maps_arch_identity() {
        let rf = PhysRegFile::new(80, 64);
        assert_eq!(rf.free_count(), 80 - 31);
        for r in 0..31u8 {
            assert_eq!(rf.rename_src(r), u32::from(r));
            assert!(rf.is_ready(u32::from(r)));
        }
    }

    #[test]
    fn allocate_and_commit_frees_previous() {
        let mut rf = PhysRegFile::new(34, 64);
        let (p1, prev1) = rf.allocate(5).unwrap();
        assert_eq!(prev1, 5);
        assert_eq!(rf.rename_src(5), p1);
        assert!(!rf.is_ready(p1));
        rf.set_ready(p1, 42);
        let rec = rf.commit_def(5, p1, prev1);
        assert_eq!(rec.write_cycle, 0, "previous def was the initial register");
        assert_eq!(rf.free_count(), 3, "released register returned");
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut rf = PhysRegFile::new(33, 64);
        assert!(rf.allocate(0).is_some());
        assert!(rf.allocate(1).is_some());
        assert!(rf.allocate(2).is_none(), "free list exhausted");
    }

    #[test]
    fn reads_reported_in_lifetime() {
        let mut rf = PhysRegFile::new(34, 64);
        let (p, prev) = rf.allocate(3).unwrap();
        rf.set_ready(p, 10);
        rf.record_read(p, DynId(7), 15);
        rf.record_read(p, DynId(9), 25);
        // Next writer of r3 releases p.
        let (_p2, prev2) = rf.allocate(3).unwrap();
        assert_eq!(prev2, p);
        rf.commit_def(3, p, prev); // commit first def
        let rec = rf.commit_def(3, _p2, prev2);
        assert_eq!(rec.write_cycle, 10);
        assert_eq!(rec.reads.len(), 2);
    }

    #[test]
    fn squash_restores_map_and_free_list() {
        let mut rf = PhysRegFile::new(40, 64);
        let before_free = rf.free_count();
        let (p1, _) = rf.allocate(1).unwrap();
        let (p2, _) = rf.allocate(2).unwrap();
        // Squash both, no survivors.
        rf.squash_dest(p2);
        rf.squash_dest(p1);
        rf.rebuild_map(std::iter::empty());
        assert_eq!(rf.free_count(), before_free);
        assert_eq!(rf.rename_src(1), 1);
        assert_eq!(rf.rename_src(2), 2);
    }

    #[test]
    fn rebuild_applies_survivors_in_order() {
        let mut rf = PhysRegFile::new(40, 64);
        let (p1, _) = rf.allocate(1).unwrap();
        let (p2, _) = rf.allocate(1).unwrap();
        rf.rebuild_map([(1u8, p1), (1u8, p2)].into_iter());
        assert_eq!(rf.rename_src(1), p2, "later def wins");
    }

    #[test]
    fn drain_reports_read_registers_only() {
        let mut rf = PhysRegFile::new(34, 64);
        let (p, prev) = rf.allocate(4).unwrap();
        rf.set_ready(p, 5);
        let rec = rf.commit_def(4, p, prev);
        assert!(rec.reads.is_empty());
        rf.record_read(p, DynId(1), 9);
        let drained = rf.drain_lifetimes();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].reads.len(), 1);
    }
}
