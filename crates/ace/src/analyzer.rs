use crate::deadness::DeadnessEngine;
use crate::lifetime::{CacheLifetime, TlbLifetime};
use crate::record::{DynId, InstrRecord, PregRecord};
use crate::report::AvfReport;
use crate::structures::{Structure, StructureSizes};

/// Facade over the full ACE analysis: the deadness engine for the commit
/// stream, lifetime analyzers for DL1/L2/DTLB, and the final AVF roll-up.
///
/// The simulator drives it with three event families:
///
/// 1. [`AvfAnalyzer::commit`] / [`AvfAnalyzer::preg_freed`] from the commit
///    stage (core structures + register file);
/// 2. `dl1_*` / `l2_*` events from the cache controllers;
/// 3. `dtlb_*` events from the TLB.
///
/// [`AvfAnalyzer::finish`] closes open lifetimes and produces an
/// [`AvfReport`].
#[derive(Debug)]
pub struct AvfAnalyzer {
    engine: DeadnessEngine,
    dl1: CacheLifetime,
    l2: CacheLifetime,
    dtlb: TlbLifetime,
    sizes: StructureSizes,
    name: String,
}

impl AvfAnalyzer {
    /// Creates an analyzer for a machine with the given structure sizes.
    #[must_use]
    pub fn new(name: impl Into<String>, sizes: StructureSizes) -> AvfAnalyzer {
        AvfAnalyzer {
            engine: DeadnessEngine::new(),
            dl1: CacheLifetime::new(u64::from(sizes.line_bytes), sizes.dl1_tag_bits),
            l2: CacheLifetime::new(u64::from(sizes.line_bytes), sizes.l2_tag_bits),
            dtlb: TlbLifetime::new(sizes.dtlb_entry_bits),
            sizes,
            name: name.into(),
        }
    }

    /// Structure sizes in use.
    #[must_use]
    pub fn sizes(&self) -> &StructureSizes {
        &self.sizes
    }

    /// Processes a committed instruction (see [`DeadnessEngine::commit`]).
    pub fn commit(&mut self, rec: InstrRecord) -> DynId {
        self.engine.commit(rec)
    }

    /// Processes a freed physical register's lifetime.
    pub fn preg_freed(&mut self, rec: PregRecord) {
        self.engine.preg_freed(rec);
    }

    /// DL1 line fill.
    pub fn dl1_fill(&mut self, addr: u64, cycle: u64) {
        self.dl1.fill(addr, cycle);
    }

    /// ACE read hitting the DL1.
    pub fn dl1_read(&mut self, addr: u64, bytes: u64, cycle: u64) {
        self.dl1.read(addr, bytes, cycle);
    }

    /// Committed store writing the DL1.
    pub fn dl1_write(&mut self, addr: u64, bytes: u64, cycle: u64) {
        self.dl1.write(addr, bytes, cycle);
    }

    /// DL1 line eviction.
    pub fn dl1_evict(&mut self, addr: u64, cycle: u64) {
        self.dl1.evict(addr, cycle);
    }

    /// L2 line fill (from memory).
    pub fn l2_fill(&mut self, addr: u64, cycle: u64) {
        self.l2.fill(addr, cycle);
    }

    /// L2 read (a DL1 miss serviced by the L2 counts as an ACE read of the
    /// whole line being transferred).
    pub fn l2_read(&mut self, addr: u64, bytes: u64, cycle: u64) {
        self.l2.read(addr, bytes, cycle);
    }

    /// L2 write (a DL1 writeback).
    pub fn l2_write(&mut self, addr: u64, bytes: u64, cycle: u64) {
        self.l2.write(addr, bytes, cycle);
    }

    /// L2 line eviction.
    pub fn l2_evict(&mut self, addr: u64, cycle: u64) {
        self.l2.evict(addr, cycle);
    }

    /// DTLB fill of `vpn`.
    pub fn dtlb_fill(&mut self, vpn: u64, cycle: u64) {
        self.dtlb.fill(vpn, cycle);
    }

    /// DTLB translation used by an ACE memory access.
    pub fn dtlb_read(&mut self, vpn: u64, cycle: u64) {
        self.dtlb.read(vpn, cycle);
    }

    /// DTLB entry eviction.
    pub fn dtlb_evict(&mut self, vpn: u64) {
        self.dtlb.evict(vpn);
    }

    /// Closes all analyses at `cycles` and produces the report.
    #[must_use]
    pub fn finish(mut self, cycles: u64) -> AvfReport {
        self.engine.finish();
        let mut ace = Structure::ALL.map(|s| self.engine.bit_cycles(s));
        let (dl1_data, dl1_tag) = self.dl1.finish(cycles);
        ace[Structure::Dl1Data.index()] += dl1_data;
        ace[Structure::Dl1Tag.index()] += dl1_tag;
        let (l2_data, l2_tag) = self.l2.finish(cycles);
        ace[Structure::L2Data.index()] += l2_data;
        ace[Structure::L2Tag.index()] += l2_tag;
        ace[Structure::Dtlb.index()] += self.dtlb.finish();
        AvfReport::new(
            self.name,
            cycles.max(1),
            self.sizes,
            ace,
            self.engine.stats(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{AceKind, MemRef, Residency, Slice};

    #[test]
    fn end_to_end_single_live_chain() {
        let sizes = StructureSizes::baseline();
        let mut a = AvfAnalyzer::new("t", sizes.clone());

        // One ALU op resident in the ROB for 50 of 100 cycles, consumed by a
        // branch -> live -> counted.
        let mut rec = InstrRecord::of_kind(AceKind::Value);
        rec.dest = Some(1);
        rec.residency.push(Slice {
            structure: Structure::Rob,
            start: 0,
            end: 50,
            bits: 76,
        });
        a.commit(rec);
        let mut br = InstrRecord::of_kind(AceKind::Branch);
        br.srcs[0] = Some(1);
        a.commit(br);

        let report = a.finish(100);
        let expect = (50.0 * 76.0) / (sizes.bits(Structure::Rob) as f64 * 100.0);
        assert!((report.avf(Structure::Rob) - expect).abs() < 1e-12);
    }

    #[test]
    fn cache_events_roll_up_into_report() {
        let sizes = StructureSizes::baseline();
        let mut a = AvfAnalyzer::new("t", sizes.clone());
        a.dl1_fill(0x0, 0);
        a.dl1_read(0x0, 64, 100); // whole line ACE for 100 cycles
        let report = a.finish(100);
        let expect = (64.0 * 8.0 * 100.0) / (sizes.bits(Structure::Dl1Data) as f64 * 100.0);
        assert!((report.avf(Structure::Dl1Data) - expect).abs() < 1e-12);
    }

    #[test]
    fn dead_store_does_not_pollute_caches_report() {
        // Store overwritten before read: SQ residency must not be credited.
        let sizes = StructureSizes::baseline();
        let mut a = AvfAnalyzer::new("t", sizes);
        let mut s1 = InstrRecord::of_kind(AceKind::Store);
        s1.mem = Some(MemRef {
            addr: 0x100,
            bytes: 8,
        });
        let mut res = Residency::new();
        res.push(Slice {
            structure: Structure::SqData,
            start: 0,
            end: 10,
            bits: 64,
        });
        s1.residency = res;
        a.commit(s1);
        let mut s2 = InstrRecord::of_kind(AceKind::Store);
        s2.mem = Some(MemRef {
            addr: 0x100,
            bytes: 8,
        });
        a.commit(s2);
        let report = a.finish(100);
        assert_eq!(report.avf(Structure::SqData), 0.0);
    }

    #[test]
    fn dead_store_tag_bits_stay_ace() {
        // A dynamically dead store's data is un-ACE, but its address
        // (tag) bits are not: a fault there misdirects the write.
        // Regression for the injection-measured SQ violation.
        let sizes = StructureSizes::baseline();
        let mut a = AvfAnalyzer::new("t", sizes.clone());
        let mut s1 = InstrRecord::of_kind(AceKind::Store);
        s1.mem = Some(MemRef {
            addr: 0x100,
            bytes: 8,
        });
        let mut res = Residency::new();
        res.push(Slice {
            structure: Structure::SqTag,
            start: 0,
            end: 10,
            bits: 64,
        });
        res.push(Slice {
            structure: Structure::SqData,
            start: 0,
            end: 10,
            bits: 64,
        });
        s1.residency = res;
        a.commit(s1);
        // Overwrite before any load: s1 resolves dead.
        let mut s2 = InstrRecord::of_kind(AceKind::Store);
        s2.mem = Some(MemRef {
            addr: 0x100,
            bytes: 8,
        });
        a.commit(s2);
        let report = a.finish(100);
        assert_eq!(report.avf(Structure::SqData), 0.0, "dead data un-ACE");
        let expect = (10.0 * 64.0) / (sizes.bits(Structure::SqTag) as f64 * 100.0);
        assert!(
            (report.avf(Structure::SqTag) - expect).abs() < 1e-12,
            "dead store tag stays ACE: {} vs {expect}",
            report.avf(Structure::SqTag)
        );
    }
}
