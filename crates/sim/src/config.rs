use avf_ace::StructureSizes;
use avf_isa::wire::{WireError, WireReader, WireWriter};

/// Geometry and latency of one cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (1 = direct mapped).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Access latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// Number of lines.
    #[must_use]
    pub fn lines(&self) -> u32 {
        (self.size_bytes / u64::from(self.line_bytes)) as u32
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.lines() / self.ways
    }

    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.size_bytes);
        w.u32(self.ways);
        w.u32(self.line_bytes);
        w.u32(self.latency);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<CacheConfig, WireError> {
        let c = CacheConfig {
            size_bytes: r.u64()?,
            ways: r.u32()?,
            line_bytes: r.u32()?,
            latency: r.u32()?,
        };
        // The geometry arithmetic (lines, sets, index masks) divides by
        // these — a zero smuggled over the wire would panic a worker —
        // and the line/set arrays are allocated eagerly, so a crafted
        // multi-terabyte cache must fail here, not OOM the allocator.
        if c.line_bytes == 0
            || c.ways == 0
            || c.size_bytes == 0
            || c.size_bytes > 1 << 30
            || c.line_bytes > 1 << 16
            || !c.size_bytes.is_multiple_of(u64::from(c.line_bytes))
            || c.lines() == 0
            || !c.lines().is_multiple_of(c.ways)
        {
            return Err(WireError::Invalid("degenerate cache geometry"));
        }
        Ok(c)
    }
}

/// Hybrid (tournament) branch predictor geometry, per the paper's Table I:
/// 4K-entry global, 2-level 1K local, 4K choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BpredConfig {
    /// Global predictor entries (2-bit counters indexed by global history).
    pub global_entries: u32,
    /// Local history table entries.
    pub local_hist_entries: u32,
    /// Bits of local history per entry.
    pub local_hist_bits: u32,
    /// Local predictor entries (3-bit counters indexed by local history).
    pub local_counter_entries: u32,
    /// Choice predictor entries (2-bit counters indexed by global history).
    pub choice_entries: u32,
}

impl BpredConfig {
    /// Table I predictor: hybrid, 4K global, 2-level 1K local, 4K choice.
    #[must_use]
    pub fn ev6() -> BpredConfig {
        BpredConfig {
            global_entries: 4096,
            local_hist_entries: 1024,
            local_hist_bits: 10,
            local_counter_entries: 1024,
            choice_entries: 4096,
        }
    }
}

/// Full machine configuration.
///
/// [`MachineConfig::baseline`] reproduces the paper's Table I (an Alpha
/// 21264 / EV6 integer pipeline); [`MachineConfig::config_a`] reproduces
/// Table II. Latencies the paper does not state (main memory, DTLB miss)
/// have documented defaults (DESIGN.md §7).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Configuration name, used in reports.
    pub name: String,
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions renamed/dispatched per cycle.
    pub dispatch_width: u32,
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Memory operations issued per cycle (the Alpha 21264 allows two;
    /// paper Section III).
    pub mem_issue_width: u32,
    /// Fetch queue capacity.
    pub fetch_queue: usize,
    /// Integer issue queue entries.
    pub iq_entries: usize,
    /// Re-order buffer entries.
    pub rob_entries: usize,
    /// Load queue entries.
    pub lq_entries: usize,
    /// Store queue entries.
    pub sq_entries: usize,
    /// Physical (rename) integer registers.
    pub phys_regs: usize,
    /// Single-cycle integer ALUs.
    pub n_alus: u32,
    /// Integer multipliers.
    pub n_muls: u32,
    /// ALU latency in cycles.
    pub alu_latency: u32,
    /// Multiplier latency in cycles.
    pub mul_latency: u32,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty: u32,
    /// Branch predictor geometry.
    pub bpred: BpredConfig,
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub dl1: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// DTLB entries (fully associative).
    pub dtlb_entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// DTLB miss penalty in cycles.
    pub dtlb_miss_penalty: u32,
    /// Main memory latency in cycles.
    pub mem_latency: u32,
}

impl MachineConfig {
    /// The paper's Table I baseline configuration.
    #[must_use]
    pub fn baseline() -> MachineConfig {
        MachineConfig {
            name: "Baseline".to_owned(),
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            mem_issue_width: 2,
            fetch_queue: 16,
            iq_entries: 20,
            rob_entries: 80,
            lq_entries: 32,
            sq_entries: 32,
            phys_regs: 80,
            n_alus: 4,
            n_muls: 1,
            alu_latency: 1,
            mul_latency: 7,
            mispredict_penalty: 7,
            bpred: BpredConfig::ev6(),
            l1i: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 2,
                line_bytes: 64,
                latency: 1,
            },
            dl1: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 2,
                line_bytes: 64,
                latency: 3,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 1,
                line_bytes: 64,
                latency: 7,
            },
            dtlb_entries: 256,
            page_bytes: 8192,
            dtlb_miss_penalty: 30,
            mem_latency: 160,
        }
    }

    /// The paper's Table II "Configuration A": larger IQ (32), ROB (96),
    /// rename file (96), 4 multipliers, 4-way DL1, 512-entry DTLB, 2 MB
    /// 8-way L2 with 12-cycle latency.
    #[must_use]
    pub fn config_a() -> MachineConfig {
        let mut c = MachineConfig::baseline();
        c.name = "Config A".to_owned();
        c.iq_entries = 32;
        c.rob_entries = 96;
        c.phys_regs = 96;
        c.n_muls = 4;
        c.dl1 = CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 3,
        };
        c.dtlb_entries = 512;
        c.l2 = CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 12,
        };
        c
    }

    /// Derives the ACE-analysis structure sizes from this configuration.
    ///
    /// Per-entry bit widths follow Table I (ROB 76, IQ 32, LQ/SQ 128 split
    /// 64 tag + 64 data, registers 64); the paper states Config A keeps the
    /// same entry widths.
    #[must_use]
    pub fn structure_sizes(&self) -> StructureSizes {
        StructureSizes {
            rob_entries: self.rob_entries as u32,
            rob_entry_bits: 76,
            iq_entries: self.iq_entries as u32,
            iq_entry_bits: 32,
            lq_entries: self.lq_entries as u32,
            sq_entries: self.sq_entries as u32,
            lsq_tag_bits: 64,
            lsq_data_bits: 64,
            n_alus: self.n_alus,
            n_muls: self.n_muls,
            mul_latency: self.mul_latency,
            fu_stage_bits: 192,
            rf_regs: self.phys_regs as u32,
            rf_reg_bits: 64,
            dl1_lines: self.dl1.lines(),
            line_bytes: self.dl1.line_bytes,
            dl1_tag_bits: 32,
            l2_lines: self.l2.lines(),
            l2_tag_bits: 32,
            dtlb_entries: self.dtlb_entries as u32,
            dtlb_entry_bits: 64,
        }
    }

    /// Memory footprint needed to cover every DTLB page (the stressmark's
    /// "page size × DTLB entries" allocation, Figure 2).
    #[must_use]
    pub fn dtlb_reach_bytes(&self) -> u64 {
        self.page_bytes * self.dtlb_entries as u64
    }

    /// Serializes the full configuration into a wire writer, so a
    /// campaign job can carry the exact machine it was planned against
    /// to a remote worker.
    pub fn encode(&self, w: &mut WireWriter) {
        w.str(&self.name);
        for v in [
            self.fetch_width,
            self.dispatch_width,
            self.issue_width,
            self.commit_width,
            self.mem_issue_width,
        ] {
            w.u32(v);
        }
        for v in [
            self.fetch_queue,
            self.iq_entries,
            self.rob_entries,
            self.lq_entries,
            self.sq_entries,
            self.phys_regs,
        ] {
            w.usize(v);
        }
        for v in [
            self.n_alus,
            self.n_muls,
            self.alu_latency,
            self.mul_latency,
            self.mispredict_penalty,
        ] {
            w.u32(v);
        }
        for v in [
            self.bpred.global_entries,
            self.bpred.local_hist_entries,
            self.bpred.local_hist_bits,
            self.bpred.local_counter_entries,
            self.bpred.choice_entries,
        ] {
            w.u32(v);
        }
        self.l1i.encode(w);
        self.dl1.encode(w);
        self.l2.encode(w);
        w.usize(self.dtlb_entries);
        w.u64(self.page_bytes);
        w.u32(self.dtlb_miss_penalty);
        w.u32(self.mem_latency);
    }

    /// Decodes a configuration written by [`MachineConfig::encode`],
    /// rejecting degenerate geometry that would panic the simulator.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or impossible geometry.
    pub fn decode(r: &mut WireReader<'_>) -> Result<MachineConfig, WireError> {
        let name = r.str()?;
        let fetch_width = r.u32()?;
        let dispatch_width = r.u32()?;
        let issue_width = r.u32()?;
        let commit_width = r.u32()?;
        let mem_issue_width = r.u32()?;
        let fetch_queue = r.usize()?;
        let iq_entries = r.usize()?;
        let rob_entries = r.usize()?;
        let lq_entries = r.usize()?;
        let sq_entries = r.usize()?;
        let phys_regs = r.usize()?;
        let n_alus = r.u32()?;
        let n_muls = r.u32()?;
        let alu_latency = r.u32()?;
        let mul_latency = r.u32()?;
        let mispredict_penalty = r.u32()?;
        let bpred = BpredConfig {
            global_entries: r.u32()?,
            local_hist_entries: r.u32()?,
            local_hist_bits: r.u32()?,
            local_counter_entries: r.u32()?,
            choice_entries: r.u32()?,
        };
        let l1i = CacheConfig::decode(r)?;
        let dl1 = CacheConfig::decode(r)?;
        let l2 = CacheConfig::decode(r)?;
        let dtlb_entries = r.usize()?;
        let page_bytes = r.u64()?;
        let dtlb_miss_penalty = r.u32()?;
        let mem_latency = r.u32()?;
        // Upper bounds matter as much as the lower ones: queue sizes
        // feed `with_capacity` and array allocations in the simulator,
        // so a crafted config with rob_entries = 1<<60 would panic (or
        // OOM) a worker instead of failing with this typed error. The
        // caps are orders of magnitude beyond any machine the paper's
        // methodology models.
        const MAX_ENTRIES: usize = 1 << 20;
        const MAX_WIDTH: u32 = 1 << 10;
        let widths_ok = (1..=MAX_WIDTH).contains(&fetch_width)
            && (1..=MAX_WIDTH).contains(&dispatch_width)
            && (1..=MAX_WIDTH).contains(&issue_width)
            && (1..=MAX_WIDTH).contains(&commit_width)
            && (1..=MAX_WIDTH).contains(&mem_issue_width)
            && (1..=MAX_WIDTH).contains(&n_alus)
            && n_muls <= MAX_WIDTH;
        let queues_ok = (1..=MAX_ENTRIES).contains(&fetch_queue)
            && (1..=MAX_ENTRIES).contains(&iq_entries)
            && (1..=MAX_ENTRIES).contains(&rob_entries)
            && (1..=MAX_ENTRIES).contains(&lq_entries)
            && (1..=MAX_ENTRIES).contains(&sq_entries)
            && (1..=MAX_ENTRIES).contains(&dtlb_entries)
            && (avf_isa::Reg::COUNT..=MAX_ENTRIES).contains(&phys_regs);
        let bpred_ok = bpred.global_entries.is_power_of_two()
            && bpred.local_hist_entries.is_power_of_two()
            && bpred.local_counter_entries.is_power_of_two()
            && bpred.choice_entries.is_power_of_two()
            && bpred.global_entries as usize <= MAX_ENTRIES
            && bpred.local_hist_entries as usize <= MAX_ENTRIES
            && bpred.local_counter_entries as usize <= MAX_ENTRIES
            && bpred.choice_entries as usize <= MAX_ENTRIES
            && bpred.local_hist_bits > 0
            && bpred.local_hist_bits < 32;
        let pages_ok = page_bytes.is_power_of_two() && page_bytes <= 1 << 30;
        if !(widths_ok && queues_ok && bpred_ok && pages_ok) {
            return Err(WireError::Invalid("degenerate machine configuration"));
        }
        Ok(MachineConfig {
            name,
            fetch_width,
            dispatch_width,
            issue_width,
            commit_width,
            mem_issue_width,
            fetch_queue,
            iq_entries,
            rob_entries,
            lq_entries,
            sq_entries,
            phys_regs,
            n_alus,
            n_muls,
            alu_latency,
            mul_latency,
            mispredict_penalty,
            bpred,
            l1i,
            dl1,
            l2,
            dtlb_entries,
            page_bytes,
            dtlb_miss_penalty,
            mem_latency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_i() {
        let c = MachineConfig::baseline();
        assert_eq!(c.iq_entries, 20);
        assert_eq!(c.rob_entries, 80);
        assert_eq!(c.phys_regs, 80);
        assert_eq!(c.lq_entries, 32);
        assert_eq!(c.sq_entries, 32);
        assert_eq!(c.n_alus, 4);
        assert_eq!(c.n_muls, 1);
        assert_eq!(c.mul_latency, 7);
        assert_eq!(c.mispredict_penalty, 7);
        assert_eq!(c.dl1.latency, 3);
        assert_eq!(c.l2.ways, 1);
        assert_eq!(c.l2.latency, 7);
        assert_eq!(c.dtlb_entries, 256);
        assert_eq!(c.page_bytes, 8192);
    }

    #[test]
    fn config_a_matches_table_ii() {
        let c = MachineConfig::config_a();
        assert_eq!(c.iq_entries, 32);
        assert_eq!(c.rob_entries, 96);
        assert_eq!(c.phys_regs, 96);
        assert_eq!(c.n_muls, 4);
        assert_eq!(c.dl1.ways, 4);
        assert_eq!(c.dtlb_entries, 512);
        assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.l2.latency, 12);
    }

    #[test]
    fn cache_geometry_helpers() {
        let c = MachineConfig::baseline();
        assert_eq!(c.dl1.lines(), 1024);
        assert_eq!(c.dl1.sets(), 512);
        assert_eq!(c.l2.lines(), 16_384);
        assert_eq!(c.l2.sets(), 16_384);
    }

    #[test]
    fn structure_sizes_track_config() {
        let sizes = MachineConfig::config_a().structure_sizes();
        assert_eq!(sizes.rob_entries, 96);
        assert_eq!(sizes.iq_entries, 32);
        assert_eq!(sizes.dtlb_entries, 512);
        assert_eq!(sizes.l2_lines, 32_768);
    }

    #[test]
    fn wire_codec_round_trips() {
        for cfg in [MachineConfig::baseline(), MachineConfig::config_a()] {
            let mut w = WireWriter::new();
            cfg.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let back = MachineConfig::decode(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn wire_codec_rejects_degenerate_geometry() {
        let mut cfg = MachineConfig::baseline();
        cfg.dl1.line_bytes = 0;
        let mut w = WireWriter::new();
        cfg.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(MachineConfig::decode(&mut WireReader::new(&bytes)).is_err());

        let mut cfg = MachineConfig::baseline();
        cfg.phys_regs = 4; // fewer than the architected registers
        let mut w = WireWriter::new();
        cfg.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(MachineConfig::decode(&mut WireReader::new(&bytes)).is_err());

        // A crafted huge queue would feed `with_capacity` in the
        // simulator: the decoder must reject it, not let it panic or
        // OOM a worker.
        let mut cfg = MachineConfig::baseline();
        cfg.rob_entries = 1 << 60;
        let mut w = WireWriter::new();
        cfg.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(MachineConfig::decode(&mut WireReader::new(&bytes)).is_err());

        let mut cfg = MachineConfig::baseline();
        cfg.l2.size_bytes = 1 << 45; // a 32 TiB cache array
        cfg.l2.ways = 1;
        let mut w = WireWriter::new();
        cfg.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(MachineConfig::decode(&mut WireReader::new(&bytes)).is_err());

        // Truncation errors instead of panicking.
        let mut w = WireWriter::new();
        MachineConfig::baseline().encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes[..bytes.len() / 2]);
        assert!(MachineConfig::decode(&mut r).is_err());
    }

    #[test]
    fn dtlb_reach_covers_all_pages() {
        assert_eq!(MachineConfig::baseline().dtlb_reach_bytes(), 8192 * 256);
        assert_eq!(MachineConfig::config_a().dtlb_reach_bytes(), 8192 * 512);
    }
}
