use std::collections::HashMap;
use std::sync::Arc;

use crate::cow::CowBlock;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Log2 of the pages per group: the unit of the page table that
/// [`Memory`] shares and copies on write.
const GROUP_SHIFT: u64 = 6;
const GROUP_PAGES: usize = 1 << GROUP_SHIFT;
const GROUP_MASK: u64 = (GROUP_PAGES as u64) - 1;

/// Bytes per memory page: the unit [`Memory`] materializes, shares and
/// copies on write.
pub const PAGE_BYTES: usize = PAGE_SIZE;

type Page = [u8; PAGE_SIZE];

/// The pages of one aligned run of [`GROUP_PAGES`] page numbers, each
/// `None` until written.
type Group = CowBlock<Option<Arc<Page>>>;

/// Sparse byte-addressable functional memory with copy-on-write pages.
///
/// Pages are allocated on demand and zero-filled, so programs may touch any
/// address. The page table is itself shared copy-on-write, in groups of
/// 64 pages ([`CowBlock`]s): a clone shares every group (and so every
/// page) with its source, and a write copies only the page it touches
/// and that page's group, and each only while it is still shared.
/// Cloning (and [`Clone::clone_from`]) therefore costs one pointer per
/// resident group, not per page, and not the image, plus a copy of the
/// page pointers of each group written since the last clone.
///
/// Equality is semantic: two memories are equal iff every address reads
/// the same value in both. Pointer-equal groups, then pointer-equal
/// pages, are skipped without comparing bytes, and a missing page equals
/// a zero-filled one, so `==` agrees with [`Memory::digest`].
#[derive(Debug, Default)]
pub struct Memory {
    groups: HashMap<u64, Group>,
}

impl Clone for Memory {
    fn clone(&self) -> Memory {
        Memory {
            groups: self.groups.clone(),
        }
    }

    /// Rewinds to `source` group by group, keeping the groups that
    /// already share `source`'s.
    fn clone_from(&mut self, source: &Memory) {
        self.groups.retain(|gid, _| source.groups.contains_key(gid));
        for (&gid, group) in &source.groups {
            match self.groups.get_mut(&gid) {
                Some(ours) => ours.clone_from(group),
                None => drop(self.groups.insert(gid, group.clone())),
            }
        }
    }
}

impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.each_difference(other, |_| false)
    }
}

impl Eq for Memory {}

impl Memory {
    /// Creates an empty memory in which every byte reads as zero.
    #[must_use]
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Identities of the resident pages: two memories (or two snapshots
    /// of one) yield the same identity for a page they share. Counting
    /// distinct identities across many memories gives the pages they pin
    /// together, each [`PAGE_BYTES`] long.
    pub fn page_identities(&self) -> impl Iterator<Item = usize> + '_ {
        self.groups
            .values()
            .flat_map(|group| group.items().iter().flatten())
            .map(|page| Arc::as_ptr(page) as usize)
    }

    /// The page `id`, if resident.
    fn page(&self, id: u64) -> Option<&Page> {
        self.groups.get(&(id >> GROUP_SHIFT))?.items()[(id & GROUP_MASK) as usize].as_deref()
    }

    /// The page `id`, materialized and unshared (with its group) for
    /// writing.
    fn page_mut(&mut self, id: u64) -> &mut Page {
        let group = self
            .groups
            .entry(id >> GROUP_SHIFT)
            .or_insert_with(|| CowBlock::new(vec![None; GROUP_PAGES].into()));
        Arc::make_mut(
            group.items_mut()[(id & GROUP_MASK) as usize]
                .get_or_insert_with(|| Arc::new([0u8; PAGE_SIZE])),
        )
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr >> PAGE_SHIFT)
            .map_or(0, |page| page[(addr & OFFSET_MASK) as usize])
    }

    /// Writes one byte, materializing the page if needed.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr >> PAGE_SHIFT)[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads a little-endian 4-byte value.
    #[must_use]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut bytes = [0u8; 4];
        self.read_bytes(addr, &mut bytes);
        u32::from_le_bytes(bytes)
    }

    /// Reads a little-endian 8-byte value.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        self.read_bytes(addr, &mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian 4-byte value.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian 8-byte value.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Copies `buf.len()` bytes starting at `addr` into `buf`, one
    /// page-sized chunk at a time.
    pub fn read_bytes(&self, mut addr: u64, mut buf: &mut [u8]) {
        while !buf.is_empty() {
            let off = (addr & OFFSET_MASK) as usize;
            let (chunk, rest) = buf.split_at_mut(buf.len().min(PAGE_SIZE - off));
            match self.page(addr >> PAGE_SHIFT) {
                Some(page) => chunk.copy_from_slice(&page[off..off + chunk.len()]),
                None => chunk.fill(0),
            }
            addr = addr.wrapping_add(chunk.len() as u64);
            buf = rest;
        }
    }

    /// Writes `buf` starting at `addr`, one page-sized chunk at a time.
    pub fn write_bytes(&mut self, mut addr: u64, mut buf: &[u8]) {
        while !buf.is_empty() {
            let off = (addr & OFFSET_MASK) as usize;
            let (chunk, rest) = buf.split_at(buf.len().min(PAGE_SIZE - off));
            self.page_mut(addr >> PAGE_SHIFT)[off..off + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            buf = rest;
        }
    }

    /// Calls `f` with the address of every byte at which `self` and
    /// `other` read differently, in no particular order, until `f`
    /// returns `false`; returns whether every call returned `true`.
    /// Groups, then pages, the two share are skipped without comparing
    /// bytes, equal pages cost one slice comparison, and a missing page
    /// reads as zeroes.
    pub fn each_difference(&self, other: &Memory, mut f: impl FnMut(u64) -> bool) -> bool {
        const ZERO: Page = [0; PAGE_SIZE];
        let mut scan = |id: u64, ours: &Page, theirs: &Page| {
            ours[..] == theirs[..]
                || ours
                    .iter()
                    .zip(theirs.iter())
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .all(|(off, _)| f((id << PAGE_SHIFT) + off as u64))
        };
        let mut scan_group = |gid: u64, ours: Option<&Group>, theirs: Option<&Group>| {
            let (ours, theirs) = (ours.map(Group::items), theirs.map(Group::items));
            (0..GROUP_PAGES).all(|i| {
                let id = gid << GROUP_SHIFT | i as u64;
                match (
                    ours.and_then(|g| g[i].as_ref()),
                    theirs.and_then(|g| g[i].as_ref()),
                ) {
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b) || scan(id, a, b),
                    (Some(a), None) => scan(id, a, &ZERO),
                    (None, Some(b)) => scan(id, &ZERO, b),
                    (None, None) => true,
                }
            })
        };
        for (&gid, group) in &self.groups {
            let ok = match other.groups.get(&gid) {
                Some(theirs) => {
                    group.shares_with(theirs) || scan_group(gid, Some(group), Some(theirs))
                }
                None => scan_group(gid, Some(group), None),
            };
            if !ok {
                return false;
            }
        }
        other
            .groups
            .iter()
            .filter(|(gid, _)| !self.groups.contains_key(gid))
            .all(|(&gid, group)| scan_group(gid, None, Some(group)))
    }

    /// Order-independent digest of the memory's *semantic* contents.
    ///
    /// Two memories digest equal iff every byte address reads the same
    /// value in both: zero-filled words are skipped, so a page that was
    /// materialized by writing zeroes digests identically to an
    /// untouched page. Workers cross-check their golden runs by it.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut group_ids: Vec<u64> = self.groups.keys().copied().collect();
        group_ids.sort_unstable();
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        let mix = |h: &mut u64, v: u64| {
            for b in v.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for gid in group_ids {
            for (i, page) in self.groups[&gid].items().iter().enumerate() {
                let Some(page) = page else { continue };
                let id = gid << GROUP_SHIFT | i as u64;
                for (word_idx, chunk) in page.chunks_exact(8).enumerate() {
                    let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                    if word != 0 {
                        mix(&mut h, (id << PAGE_SHIFT) + 8 * word_idx as u64);
                        mix(&mut h, word);
                    }
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read_u64(0xdead_beef), 0);
        assert_eq!(mem.page_identities().count(), 0);
    }

    #[test]
    fn round_trips_values() {
        let mut mem = Memory::new();
        mem.write_u64(0x1000, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(0x1000), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u32(0x1000), 0x0506_0708);
        mem.write_u32(0x2000, 0xAABB_CCDD);
        assert_eq!(mem.read_u32(0x2000), 0xAABB_CCDD);
        assert_eq!(mem.read_u64(0x2000), 0xAABB_CCDD);
    }

    #[test]
    fn cross_page_access_works() {
        let mut mem = Memory::new();
        let addr = (PAGE_SIZE as u64) - 3;
        mem.write_u64(addr, u64::MAX);
        assert_eq!(mem.read_u64(addr), u64::MAX);
        assert_eq!(mem.page_identities().count(), 2);
    }

    #[test]
    fn digest_tracks_semantic_contents() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        assert_eq!(a.digest(), b.digest(), "empty memories digest equal");
        a.write_u64(0x1000, 7);
        assert_ne!(a.digest(), b.digest());
        b.write_u64(0x1000, 7);
        assert_eq!(a.digest(), b.digest());
        // Materializing a page with zeroes is semantically a no-op.
        b.write_u64(0x9_0000, 0);
        assert_eq!(a.digest(), b.digest());
        // Same value at a different address must differ.
        let mut c = Memory::new();
        c.write_u64(0x1008, 7);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn equality_is_semantic_and_clones_share_pages() {
        let mut a = Memory::new();
        a.write_u64(0x1000, 7);
        let mut b = a.clone();
        assert!(a.page_identities().eq(b.page_identities()), "shared pages");
        // A zero page equals a missing one, on either side.
        b.write_u64(0x9_0000, 0);
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.write_u8(0x1001, 1);
        assert_ne!(a, b);
        assert_eq!(a.read_u64(0x1000), 7, "the write copied the page");
    }

    #[test]
    fn each_difference_visits_every_differing_byte_until_stopped() {
        let mut a = Memory::new();
        a.write_u64(0x1000, 7);
        let mut b = a.clone();
        let diffs = |x: &Memory, y: &Memory| {
            let mut seen = Vec::new();
            assert!(x.each_difference(y, |addr| {
                seen.push(addr);
                true
            }));
            seen.sort_unstable();
            seen
        };
        assert_eq!(diffs(&a, &b), Vec::<u64>::new());
        b.write_u8(0x1001, 1);
        b.write_u8(0x9_0002, 5);
        a.write_u64(0x5_0000, 0); // a zero page equals a missing one
        assert_eq!(diffs(&a, &b), vec![0x1001, 0x9_0002]);
        assert_eq!(diffs(&b, &a), vec![0x1001, 0x9_0002]);
        let mut calls = 0;
        assert!(!a.each_difference(&b, |_| {
            calls += 1;
            false
        }));
        assert_eq!(calls, 1, "stops at the first `false`");
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = Memory::new();
        mem.write_u32(0x10, 0x0403_0201);
        assert_eq!(mem.read_u8(0x10), 1);
        assert_eq!(mem.read_u8(0x13), 4);
    }
}
