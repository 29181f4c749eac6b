/// Timing statistics of one simulation.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Committed memory operations.
    pub committed_mem_ops: u64,
    /// Committed branches.
    pub branches: u64,
    /// Mispredicted (right-path) branches.
    pub mispredicts: u64,
    /// Instructions fetched on wrong paths.
    pub wrong_path_fetched: u64,
    /// Sum over cycles of ROB occupancy (divide by cycles for the mean).
    pub rob_occ_sum: u64,
    /// Sum over cycles of IQ occupancy.
    pub iq_occ_sum: u64,
    /// Sum over cycles of LQ occupancy.
    pub lq_occ_sum: u64,
    /// Sum over cycles of SQ occupancy.
    pub sq_occ_sum: u64,
    /// DL1 accesses / misses.
    pub dl1_accesses: u64,
    /// DL1 misses.
    pub dl1_misses: u64,
    /// L2 accesses (data side).
    pub l2_accesses: u64,
    /// L2 misses (data side).
    pub l2_misses: u64,
    /// DTLB misses.
    pub dtlb_misses: u64,
    /// L1 I-cache misses.
    pub l1i_misses: u64,
}

impl SimStats {
    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Mean ROB occupancy in entries.
    #[must_use]
    pub fn avg_rob_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.rob_occ_sum as f64 / self.cycles as f64
        }
    }

    /// Mean IQ occupancy in entries.
    #[must_use]
    pub fn avg_iq_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.iq_occ_sum as f64 / self.cycles as f64
        }
    }

    /// Mean LQ occupancy in entries.
    #[must_use]
    pub fn avg_lq_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.lq_occ_sum as f64 / self.cycles as f64
        }
    }

    /// Mean SQ occupancy in entries.
    #[must_use]
    pub fn avg_sq_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.sq_occ_sum as f64 / self.cycles as f64
        }
    }

    /// DL1 miss rate.
    #[must_use]
    pub fn dl1_miss_rate(&self) -> f64 {
        if self.dl1_accesses == 0 {
            0.0
        } else {
            self.dl1_misses as f64 / self.dl1_accesses as f64
        }
    }

    /// Branch misprediction rate (per committed branch).
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Hardware Vulnerability Factor estimate of a queueing structure:
    /// its mean occupancy fraction.
    ///
    /// Sridharan & Kaeli (ISCA'10, discussed in the paper's related work)
    /// bound AVF by occupancy without asking whether the occupants are
    /// ACE; consequently `HVF ≥ AVF` always (squashed and dead occupants
    /// count toward HVF but not AVF). The paper notes HVF still cannot
    /// find the worst case — it inherits the workload dependence the
    /// stressmark removes.
    #[must_use]
    pub fn hvf(&self, occ_sum: u64, entries: usize) -> f64 {
        if self.cycles == 0 || entries == 0 {
            0.0
        } else {
            (occ_sum as f64 / self.cycles as f64 / entries as f64).min(1.0)
        }
    }

    /// HVF of the ROB given its capacity.
    #[must_use]
    pub fn rob_hvf(&self, entries: usize) -> f64 {
        self.hvf(self.rob_occ_sum, entries)
    }

    /// HVF of the issue queue given its capacity.
    #[must_use]
    pub fn iq_hvf(&self, entries: usize) -> f64 {
        self.hvf(self.iq_occ_sum, entries)
    }

    /// HVF of the load queue given its capacity.
    #[must_use]
    pub fn lq_hvf(&self, entries: usize) -> f64 {
        self.hvf(self.lq_occ_sum, entries)
    }

    /// HVF of the store queue given its capacity.
    #[must_use]
    pub fn sq_hvf(&self, entries: usize) -> f64 {
        self.hvf(self.sq_occ_sum, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.dl1_miss_rate(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.avg_rob_occupancy(), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            rob_occ_sum: 4000,
            dl1_accesses: 10,
            dl1_misses: 5,
            branches: 8,
            mispredicts: 2,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.avg_rob_occupancy() - 40.0).abs() < 1e-12);
        assert!((s.dl1_miss_rate() - 0.5).abs() < 1e-12);
        assert!((s.mispredict_rate() - 0.25).abs() < 1e-12);
    }
}
