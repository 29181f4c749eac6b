//! Hybrid (tournament) branch predictor modeled after the Alpha 21264's:
//! a global predictor indexed by global history, a two-level local
//! predictor, and a choice predictor that selects between them.

use crate::config::BpredConfig;

fn counter_update(counter: &mut u8, taken: bool, max: u8) {
    if taken {
        if *counter < max {
            *counter += 1;
        }
    } else if *counter > 0 {
        *counter -= 1;
    }
}

/// Tournament branch predictor.
///
/// Predictions are made at fetch; state (including global history) is
/// updated at commit with the resolved outcome, a common simplification
/// that leaves highly-biased branches — the only kind the stressmark
/// generator emits — perfectly predicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictor {
    global: Vec<u8>,
    local_hist: Vec<u16>,
    local: Vec<u8>,
    choice: Vec<u8>,
    ghr: u32,
    cfg: BpredConfig,
}

impl BranchPredictor {
    /// Creates a predictor with the given geometry, counters initialized to
    /// weakly not-taken.
    #[must_use]
    pub fn new(cfg: BpredConfig) -> BranchPredictor {
        BranchPredictor {
            global: vec![1; cfg.global_entries as usize],
            local_hist: vec![0; cfg.local_hist_entries as usize],
            local: vec![3; cfg.local_counter_entries as usize],
            choice: vec![1; cfg.choice_entries as usize],
            ghr: 0,
            cfg,
        }
    }

    fn global_index(&self) -> usize {
        (self.ghr as usize) & (self.global.len() - 1)
    }

    fn choice_index(&self) -> usize {
        (self.ghr as usize) & (self.choice.len() - 1)
    }

    fn local_hist_index(&self, pc: u32) -> usize {
        (pc as usize) & (self.local_hist.len() - 1)
    }

    fn local_index(&self, pc: u32) -> usize {
        let hist = self.local_hist[self.local_hist_index(pc)];
        (hist as usize) & (self.local.len() - 1)
    }

    /// Predicts the direction of the branch at `pc`.
    #[must_use]
    pub fn predict(&self, pc: u32) -> bool {
        let use_global = self.choice[self.choice_index()] >= 2;
        if use_global {
            self.global[self.global_index()] >= 2
        } else {
            self.local[self.local_index(pc)] >= 4
        }
    }

    /// Updates all tables with the resolved direction of the branch at `pc`.
    pub fn update(&mut self, pc: u32, taken: bool) {
        let g_idx = self.global_index();
        let c_idx = self.choice_index();
        let l_idx = self.local_index(pc);
        let g_pred = self.global[g_idx] >= 2;
        let l_pred = self.local[l_idx] >= 4;

        // Choice counter trains toward whichever component was right.
        if g_pred != l_pred {
            counter_update(&mut self.choice[c_idx], g_pred == taken, 3);
        }
        counter_update(&mut self.global[g_idx], taken, 3);
        counter_update(&mut self.local[l_idx], taken, 7);

        let h_idx = self.local_hist_index(pc);
        let mask = (1u16 << self.cfg.local_hist_bits) - 1;
        self.local_hist[h_idx] = ((self.local_hist[h_idx] << 1) | u16::from(taken)) & mask;
        self.ghr = (self.ghr << 1) | u32::from(taken);
    }

    /// Heap bytes of the predictor tables.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.global.len() + 2 * self.local_hist.len() + self.local.len() + self.choice.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(BpredConfig::ev6())
    }

    #[test]
    fn learns_always_taken() {
        let mut p = predictor();
        for _ in 0..64 {
            p.update(0x40, true);
        }
        assert!(p.predict(0x40));
    }

    #[test]
    fn learns_always_not_taken() {
        let mut p = predictor();
        for _ in 0..64 {
            p.update(0x40, false);
        }
        assert!(!p.predict(0x40));
    }

    #[test]
    fn learns_loop_pattern_via_local_history() {
        // Pattern: taken 7 times, not-taken once (an 8-iteration loop).
        let mut p = predictor();
        let mut correct = 0;
        let mut total = 0;
        for trip in 0..200 {
            for i in 0..8 {
                let taken = i != 7;
                let pred = p.predict(0x80);
                if trip >= 100 {
                    total += 1;
                    if pred == taken {
                        correct += 1;
                    }
                }
                p.update(0x80, taken);
            }
        }
        // The 10-bit local history covers the 8-long pattern exactly.
        assert!(
            correct as f64 / total as f64 > 0.9,
            "got {correct}/{total} on a learnable loop pattern"
        );
    }

    #[test]
    fn counters_saturate() {
        let mut c = 3u8;
        counter_update(&mut c, true, 3);
        assert_eq!(c, 3);
        let mut c = 0u8;
        counter_update(&mut c, false, 3);
        assert_eq!(c, 0);
    }
}
