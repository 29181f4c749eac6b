//! # avf-sim
//!
//! An execution-driven, cycle-level out-of-order processor simulator with
//! integrated ACE analysis — the reproduction's stand-in for the
//! SimAlpha/SimSoda stack used by the AVF stressmark paper (Nair, John &
//! Eeckhout, MICRO 2010).
//!
//! The modeled machine is the paper's Table I Alpha-21264-like integer
//! pipeline: 4-wide fetch/dispatch/issue/commit, a 20-entry issue queue,
//! 80-entry ROB, 32-entry load and store queues, 80 physical registers,
//! four 1-cycle ALUs plus a 7-cycle multiplier, at most two memory issues
//! per cycle, a hybrid branch predictor with 7-cycle misprediction penalty,
//! 64 kB L1 caches, a 256-entry DTLB and a 1 MB direct-mapped L2.
//!
//! Structural properties the stressmark exploits are modeled faithfully:
//! occupancy interdependence between ROB/IQ/LQ/SQ/FU, rename-register
//! turnaround, the L2-miss shadow, and the two-memory-ops-per-cycle issue
//! restriction (paper Section III).
//!
//! ## Example
//!
//! ```
//! use avf_isa::{ProgramBuilder, Reg};
//! use avf_sim::{simulate, MachineConfig};
//! use avf_ace::FaultRates;
//!
//! let r1 = Reg::new(1)?;
//! let mut b = ProgramBuilder::new("spin");
//! b.addi(r1, Reg::ZERO, 100);
//! let top = b.here();
//! b.subi(r1, r1, 1);
//! b.bne(r1, top);
//! b.halt();
//! let program = b.build()?;
//!
//! let result = simulate(&MachineConfig::baseline(), &program, 10_000);
//! assert!(result.stats.committed > 0);
//! let ser = result.report.ser(&FaultRates::baseline());
//! assert!(ser.qs() >= 0.0);
//! # Ok::<(), avf_isa::IsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bpred;
mod cache_faults;
mod caches;
mod config;
mod dtlb;
mod dyninst;
mod future;
pub mod inject;
mod pipeline;
mod regfile;
mod stats;

pub use bpred::BranchPredictor;
pub use caches::{AccessResult, Cache};
pub use config::{BpredConfig, CacheConfig, MachineConfig};
pub use dtlb::{Dtlb, TlbResult};
pub use future::{CacheFate, GoldenFuture};
pub use inject::{
    golden_pass, golden_run, golden_run_checkpointed, golden_run_with_evidence, DecodedCheckpoints,
    FaultModel, FlipEffect, GoldenRun, InjectionSim, InjectionTarget, Judgement, MaskReason,
    PipelineSnapshot, PruneEvidence, RunEnd, Verdict, PRUNE_WINDOW,
};
pub use pipeline::SimResult;
pub use stats::SimStats;

use avf_ace::AceConfig;
use avf_isa::Program;

/// Simulates `program` on `config` until `max_instructions` commit (or the
/// program halts), returning the AVF report and timing statistics.
///
/// This is the primary entry point used by the stressmark search loop and
/// the workload studies.
#[must_use]
pub fn simulate(config: &MachineConfig, program: &Program, max_instructions: u64) -> SimResult {
    simulate_with(config, program, max_instructions, AceConfig::default())
}

/// [`simulate`] with explicit [`AceConfig`] (e.g. to enable the DTLB CAM
/// Hamming-distance refinement).
#[must_use]
pub fn simulate_with(
    config: &MachineConfig,
    program: &Program,
    max_instructions: u64,
    ace: AceConfig,
) -> SimResult {
    pipeline::Pipeline::new(config, program, ace).run(max_instructions)
}
