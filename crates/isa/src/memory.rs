use std::collections::HashMap;
use std::sync::Arc;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Bytes per memory page: the unit [`Memory`] materializes, shares and
/// copies on write.
pub const PAGE_BYTES: usize = PAGE_SIZE;

type Page = [u8; PAGE_SIZE];

/// Sparse byte-addressable functional memory with copy-on-write pages.
///
/// Pages are allocated on demand and zero-filled, so programs may touch any
/// address. A clone shares every page with its source; a write copies only
/// the page it touches, and only while that page is still shared. Cloning
/// (and [`Clone::clone_from`]) therefore costs one pointer per resident
/// page, not the image.
///
/// Equality is semantic: two memories are equal iff every address reads
/// the same value in both. Pointer-equal pages are skipped without
/// comparing bytes, and a missing page equals a zero-filled one, so `==`
/// agrees with [`Memory::digest`].
#[derive(Debug, Default)]
pub struct Memory {
    pages: HashMap<u64, Arc<Page>>,
}

impl Clone for Memory {
    fn clone(&self) -> Memory {
        Memory {
            pages: self.pages.clone(),
        }
    }

    fn clone_from(&mut self, source: &Memory) {
        self.pages.clone_from(&source.pages);
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
        self.pages.values().map(|page| Arc::as_ptr(page) as usize)
    }

    /// The page `id`, materialized and unshared for writing.
    fn page_mut(&mut self, id: u64) -> &mut Page {
        Arc::make_mut(
            self.pages
                .entry(id)
                .or_insert_with(|| Arc::new([0u8; PAGE_SIZE])),
        )
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr & OFFSET_MASK) as usize],
            None => 0,
        }
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
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
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
    /// Pages the two share are skipped without comparing bytes, equal
    /// pages cost one slice comparison, and a missing page reads as
    /// zeroes.
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
        for (&id, page) in &self.pages {
            let ok = match other.pages.get(&id) {
                Some(theirs) => Arc::ptr_eq(page, theirs) || scan(id, page, theirs),
                None => scan(id, page, &ZERO),
            };
            if !ok {
                return false;
            }
        }
        other
            .pages
            .iter()
            .filter(|(id, _)| !self.pages.contains_key(id))
            .all(|(&id, page)| scan(id, &ZERO, page))
    }

    /// Order-independent digest of the memory's *semantic* contents.
    ///
    /// Two memories digest equal iff every byte address reads the same
    /// value in both: zero-filled words are skipped, so a page that was
    /// materialized by writing zeroes digests identically to an
    /// untouched page. Workers cross-check their golden runs by it.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut page_ids: Vec<u64> = self.pages.keys().copied().collect();
        page_ids.sort_unstable();
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        let mix = |h: &mut u64, v: u64| {
            for b in v.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for id in page_ids {
            let page = &self.pages[&id];
            for (word_idx, chunk) in page.chunks_exact(8).enumerate() {
                let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                if word != 0 {
                    mix(&mut h, (id << PAGE_SHIFT) + 8 * word_idx as u64);
                    mix(&mut h, word);
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
