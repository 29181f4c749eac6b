//! Fault-injection seams: fork the pipeline at an arbitrary cycle, flip
//! one bit of one hardware structure, and run the faulty future to
//! completion.
//!
//! This is the measurement side of statistical fault injection (SFI),
//! the standard technique for validating ACE-based AVF estimates (Wang
//! et al., Rhod et al.): where ACE analysis *reasons* about which bits
//! could have mattered, injection *observes* what one flipped bit does.
//! The two disagree in a known direction — ACE analysis is conservative
//! and over-approximates — so per-structure injection results both
//! sanity-check the simulator's AVF numbers and quantify the
//! methodology's built-in pessimism.
//!
//! ## Fault models
//!
//! The timing pipeline carries no data values (the architectural oracle
//! executes at fetch), so a flip is applied *semantically*: the engine
//! locates the architectural value the flipped bit backs and corrupts
//! that. Flips that land on provably dead state (vacant entries,
//! wrong-path instructions, un-ACE operand halves, padding bits of
//! byte-aligned tag fields) are classified masked without running.
//!
//! Queueing-structure (ROB/IQ/LQ/SQ) control and tag fields resolve
//! under one of two [`FaultModel`]s:
//!
//! * **trap** — any control-field corruption of a live entry is a
//!   detected unrecoverable error, without running. Coarse on purpose:
//!   it is the pre-replay baseline the fidelity gate compares against.
//! * **replay** (default) — the *micro-op replay oracle*: the corrupted
//!   entry is re-decoded into a (possibly different) micro-op — a
//!   flipped opcode byte decodes to another operation, a flipped
//!   operand tag re-routes the value of a different physical register
//!   into the slot, a flipped destination tag misdirects the writeback
//!   — re-executed from its recorded fetch-time operands
//!   ([`avf_isa::replay_eval`]), and its changed result replayed
//!   through every not-yet-issued in-flight consumer (and the oracle
//!   frontier for future fetches). The run's architectural outcome then
//!   classifies the trial like any data-field flip, with
//!   [`FlipEffect::Diverged`] for entries that decode to
//!   architecturally impossible states.
//!
//! Deliberate approximations, documented inline: value flips reach
//! in-flight consumers that have not yet issued plus all not-yet-fetched
//! readers (already-issued consumers keep their clean operands);
//! store-tag flips and replayed stores corrupt the corrupted address
//! without un-writing the original one; a misdirected writeback
//! clobbers the victim register while the true destination keeps its
//! already-applied value; replayed loads read frontier memory; a
//! register holding no live definition reads stale content modeled as
//! zero; and clean-cache-line flips hit the backing store directly.

use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::sync::Arc;

use avf_ace::{Structure, StructureSizes};
use avf_isa::{AccessSize, Inst, Memory, OpClass, Opcode, Program, PAGE_BYTES};

use crate::cache_faults::CacheFault;
use crate::config::MachineConfig;
use crate::dyninst::{iq_field_of, rob_control_field_of, IqField, RobControlField, Stage};
use crate::future::{CacheFate, FutureRecorder, GoldenFuture};
use crate::pipeline::{Pipeline, ReplayEnd};

pub use crate::pipeline::PipelineSnapshot;

/// A hardware structure fault-injection campaigns can target.
///
/// Mirrors the structures of the ACE analysis but merges tag/data
/// arrays the way a physical entry does (an LQ entry is one 128-bit
/// word: 64 tag bits then 64 data bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InjectionTarget {
    /// Re-order buffer entries.
    Rob,
    /// Issue queue entries.
    Iq,
    /// Load queue entries (tag then data halves).
    Lq,
    /// Store queue entries (tag then data halves).
    Sq,
    /// Merged physical register file.
    RegFile,
    /// L1 data cache data array.
    Dl1,
    /// Unified L2 cache data array.
    L2,
    /// Data TLB entries.
    Dtlb,
}

impl InjectionTarget {
    /// Every target, in display order.
    pub const ALL: [InjectionTarget; 8] = [
        InjectionTarget::Rob,
        InjectionTarget::Iq,
        InjectionTarget::Lq,
        InjectionTarget::Sq,
        InjectionTarget::RegFile,
        InjectionTarget::Dl1,
        InjectionTarget::L2,
        InjectionTarget::Dtlb,
    ];

    /// Short name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InjectionTarget::Rob => "ROB",
            InjectionTarget::Iq => "IQ",
            InjectionTarget::Lq => "LQ",
            InjectionTarget::Sq => "SQ",
            InjectionTarget::RegFile => "RF",
            InjectionTarget::Dl1 => "DL1",
            InjectionTarget::L2 => "L2",
            InjectionTarget::Dtlb => "DTLB",
        }
    }

    /// Number of physical entries on `cfg`.
    #[must_use]
    pub fn entries(self, cfg: &MachineConfig) -> u64 {
        match self {
            InjectionTarget::Rob => cfg.rob_entries as u64,
            InjectionTarget::Iq => cfg.iq_entries as u64,
            InjectionTarget::Lq => cfg.lq_entries as u64,
            InjectionTarget::Sq => cfg.sq_entries as u64,
            InjectionTarget::RegFile => cfg.phys_regs as u64,
            InjectionTarget::Dl1 => u64::from(cfg.dl1.lines()),
            InjectionTarget::L2 => u64::from(cfg.l2.lines()),
            InjectionTarget::Dtlb => cfg.dtlb_entries as u64,
        }
    }

    /// Bits per entry (the per-trial bit-sampling space).
    #[must_use]
    pub fn entry_bits(self, sizes: &StructureSizes) -> u32 {
        match self {
            InjectionTarget::Rob => sizes.rob_entry_bits,
            InjectionTarget::Iq => sizes.iq_entry_bits,
            InjectionTarget::Lq | InjectionTarget::Sq => sizes.lsq_tag_bits + sizes.lsq_data_bits,
            InjectionTarget::RegFile => sizes.rf_reg_bits,
            InjectionTarget::Dl1 | InjectionTarget::L2 => sizes.line_bytes * 8,
            InjectionTarget::Dtlb => sizes.dtlb_entry_bits,
        }
    }

    /// Stable single-byte code used on the wire (the target's position
    /// in [`InjectionTarget::ALL`]).
    #[must_use]
    pub fn wire_code(self) -> u8 {
        InjectionTarget::ALL
            .iter()
            .position(|&t| t == self)
            .expect("every target is in ALL") as u8
    }

    /// Inverse of [`InjectionTarget::wire_code`].
    #[must_use]
    pub fn from_wire_code(code: u8) -> Option<InjectionTarget> {
        InjectionTarget::ALL.get(usize::from(code)).copied()
    }

    /// The ACE structures to compare injection-measured AVF against
    /// (bit-weighted merge where a target spans two arrays).
    #[must_use]
    pub fn ace_structures(self) -> &'static [Structure] {
        match self {
            InjectionTarget::Rob => &[Structure::Rob],
            InjectionTarget::Iq => &[Structure::Iq],
            InjectionTarget::Lq => &[Structure::LqTag, Structure::LqData],
            InjectionTarget::Sq => &[Structure::SqTag, Structure::SqData],
            InjectionTarget::RegFile => &[Structure::RegFile],
            InjectionTarget::Dl1 => &[Structure::Dl1Data],
            InjectionTarget::L2 => &[Structure::L2Data],
            InjectionTarget::Dtlb => &[Structure::Dtlb],
        }
    }
}

impl std::fmt::Display for InjectionTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the injection engine resolves flips in queueing-structure
/// (ROB/IQ/LQ/SQ) control and tag fields.
///
/// Data-field flips classify identically under either model; only the
/// control/tag handling moves, which is exactly where the trap model is
/// coarse (every control corruption of a live entry becomes a DUE,
/// regardless of its architectural outcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultModel {
    /// Control-field corruption of a live entry is recorded as a
    /// detected unrecoverable error without running the faulty future —
    /// the pre-replay approximation.
    Trap,
    /// The corrupted entry is re-decoded into a (possibly different)
    /// micro-op and replayed through the execute/commit path from the
    /// recorded fetch-time operands; the run's architectural outcome
    /// (golden-digest comparison) decides the classification, with
    /// [`FlipEffect::Diverged`] for entries that decode to
    /// architecturally impossible states.
    #[default]
    Replay,
}

impl FaultModel {
    /// Short name used in reports and on the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultModel::Trap => "trap",
            FaultModel::Replay => "replay",
        }
    }

    /// Parses a CLI spelling of the model.
    #[must_use]
    pub fn parse(s: &str) -> Option<FaultModel> {
        match s {
            "trap" => Some(FaultModel::Trap),
            "replay" => Some(FaultModel::Replay),
            _ => None,
        }
    }

    /// Stable single-byte code used by the job-setup wire codec.
    #[must_use]
    pub fn wire_code(self) -> u8 {
        match self {
            FaultModel::Trap => 0,
            FaultModel::Replay => 1,
        }
    }

    /// Inverse of [`FaultModel::wire_code`].
    #[must_use]
    pub fn from_wire_code(code: u8) -> Option<FaultModel> {
        match code {
            0 => Some(FaultModel::Trap),
            1 => Some(FaultModel::Replay),
            _ => None,
        }
    }
}

impl std::fmt::Display for FaultModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a flip provably cannot affect program output (classified masked
/// without running the faulty future).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskReason {
    /// The sampled entry holds no in-flight state.
    Vacant,
    /// The occupant is wrong-path work awaiting a squash.
    WrongPath,
    /// The occupant produces no architectural result (NOP, resolved
    /// control).
    Idle,
    /// A younger definition already supersedes the value for every
    /// future reader.
    Overwritten,
    /// The bit lies in an operand half a narrow access never makes ACE.
    UnAceBits,
    /// The field does not hold valid data yet (load data before the
    /// fill returns, store data before issue).
    NotYetValid,
    /// A misdirected destination tag lands the result in a physical
    /// register holding no reachable definition (replay model).
    DeadTarget,
    /// The re-decoded micro-op reproduces the original outcome exactly
    /// (same value / address / direction), so the corruption is benign
    /// by re-execution (replay model).
    ReplayClean,
}

impl MaskReason {
    /// Short name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MaskReason::Vacant => "vacant",
            MaskReason::WrongPath => "wrong-path",
            MaskReason::Idle => "idle",
            MaskReason::Overwritten => "overwritten",
            MaskReason::UnAceBits => "un-ACE bits",
            MaskReason::NotYetValid => "not-yet-valid",
            MaskReason::DeadTarget => "dead-target",
            MaskReason::ReplayClean => "replay-clean",
        }
    }
}

/// Immediate result of applying one flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipEffect {
    /// The fault is live in machine state; the outcome is decided by
    /// running to completion and comparing against the golden run.
    Armed,
    /// The flip provably cannot reach program output.
    Masked(MaskReason),
    /// The corrupted entry decodes to an architecturally impossible
    /// state (an unencodable opcode or stage code, a register tag past
    /// the physical file, a tag naming no live definition): the replay
    /// oracle cannot express the faulty machine, and a campaign
    /// classifies the trial in its own `ReplayDiverged` bucket. No
    /// machine state is mutated.
    Diverged,
}

/// How a (possibly faulty) bounded run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// Clean end: halted or reached the commit budget.
    Completed,
    /// Exceeded the cycle budget without completing (hang).
    Timeout,
    /// A detected unrecoverable error: corrupted control state, wrong
    /// DTLB translation consumed, pipeline deadlock, or PC out of text.
    Trapped,
}

/// The fixed verdict of a trial settled before its run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Completes with the golden memory image.
    Masked,
    /// Completes with memory that differs from the golden image.
    Sdc,
    /// Traps: a detected unrecoverable error.
    Due,
}

/// How a faulty machine stands at a golden checkpoint
/// ([`InjectionSim::judge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Judgement {
    /// Its active state differs from the checkpoint's (or there is no
    /// checkpoint at its cycle): keep simulating.
    Open,
    /// Its active state equals the checkpoint's, but the golden future
    /// reads a register or byte that differs, so its oracle may leave
    /// the golden path. [`InjectionSim::oracle_tail`] can tell.
    Live,
    /// Its state equals the checkpoint's: it has rejoined the golden
    /// run, and its verdict is [`Verdict::Masked`].
    Rejoined,
    /// It differs from the checkpoint only in state the golden future
    /// never reads, so it runs the golden future and its verdict is
    /// fixed.
    Decided(Verdict),
}

/// Reference (fault-free) execution a campaign classifies against.
///
/// `PartialEq` is load-bearing for the distributed service: when N
/// workers each execute the golden pass themselves, the driver
/// cross-checks that every worker reports the *identical* reference —
/// any divergence is a hard protocol error, not a warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenRun {
    /// Cycles the fault-free run took (the injection-cycle sampling
    /// space).
    pub cycles: u64,
    /// Instructions the fault-free run committed.
    pub committed: u64,
    /// Semantic digest of final memory ([`avf_isa::Memory::digest`]).
    pub digest: u64,
}

/// A simulator instance with fault-injection seams: bounded stepping,
/// state snapshot/rewind, and single-bit flips.
pub struct InjectionSim<'a> {
    pipe: Pipeline<'a>,
    instr_budget: u64,
    cycle_budget: u64,
    fault_model: FaultModel,
    /// Oracle passes [`InjectionSim::oracle_tail`] has run on this
    /// instance. A counter, not machine state: restores keep it.
    oracle_passes: u64,
}

impl<'a> InjectionSim<'a> {
    /// Builds an injectable simulation of `program` on `config`,
    /// bounded by `instr_budget` committed instructions.
    ///
    /// The fetch stage stops the architectural oracle exactly at the
    /// budget, so the final memory digest is a pure function of
    /// architectural execution (independent of pipeline timing), which
    /// makes golden-vs-faulty digest comparison sound.
    #[must_use]
    pub fn new(config: &'a MachineConfig, program: &'a Program, instr_budget: u64) -> Self {
        let pipe = Pipeline::new_faulty(config, program, instr_budget);
        let cycle_budget = pipe.default_cycle_limit(instr_budget);
        InjectionSim {
            pipe,
            instr_budget,
            cycle_budget,
            fault_model: FaultModel::default(),
            oracle_passes: 0,
        }
    }

    /// [`InjectionSim::new`] resumed at checkpoint `snap` of a run of the
    /// same machine and program. Unlike `new` followed by
    /// [`InjectionSim::restore`], it never loads the program's data
    /// segment only to replace it: the snapshot's memory image is shared
    /// copy-on-write.
    #[must_use]
    pub fn from_snapshot(
        config: &'a MachineConfig,
        program: &'a Program,
        instr_budget: u64,
        snap: &PipelineSnapshot,
    ) -> Self {
        let pipe = Pipeline::new_faulty_at(config, program, instr_budget, snap);
        let cycle_budget = pipe.default_cycle_limit(instr_budget);
        InjectionSim {
            pipe,
            instr_budget,
            cycle_budget,
            fault_model: FaultModel::default(),
            oracle_passes: 0,
        }
    }

    /// [`InjectionSim::new`] that records the golden future as it runs:
    /// the golden passes' simulator.
    fn recording(config: &'a MachineConfig, program: &'a Program, instr_budget: u64) -> Self {
        let mut sim = InjectionSim::new(config, program, instr_budget);
        sim.pipe.recorder = Some(Box::default());
        sim
    }

    /// Overrides the cycle budget (campaigns tighten it around the
    /// golden run's length so hangs are detected quickly).
    pub fn set_cycle_budget(&mut self, cycles: u64) {
        self.cycle_budget = cycles;
    }

    /// Selects how queueing-structure control/tag flips are resolved
    /// (default: [`FaultModel::Replay`]).
    pub fn set_fault_model(&mut self, model: FaultModel) {
        self.fault_model = model;
    }

    /// The active fault model.
    #[must_use]
    pub fn fault_model(&self) -> FaultModel {
        self.fault_model
    }

    /// Oracle passes [`InjectionSim::oracle_tail`] has run on this
    /// instance (calls that return before running the oracle do not
    /// count).
    #[must_use]
    pub fn oracle_passes(&self) -> u64 {
        self.oracle_passes
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.pipe.cycle
    }

    /// Committed instructions so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.pipe.stats.committed
    }

    /// Semantic digest of current architectural memory.
    #[must_use]
    pub fn memory_digest(&self) -> u64 {
        self.pipe.oracle_mem.digest()
    }

    /// Current architectural memory.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.pipe.oracle_mem
    }

    /// Advances until `cycle`; returns `false` if the run ended first.
    pub fn run_to_cycle(&mut self, cycle: u64) -> bool {
        while self.pipe.cycle < cycle {
            if self.pipe.done(self.instr_budget) || self.pipe.cycle >= self.cycle_budget {
                return false;
            }
            self.pipe.tick(self.instr_budget);
        }
        true
    }

    /// Runs to completion within the budgets and classifies the ending.
    pub fn run_to_end(&mut self) -> RunEnd {
        while !self.pipe.done(self.instr_budget) {
            if self.pipe.cycle >= self.cycle_budget {
                return RunEnd::Timeout;
            }
            self.pipe.tick(self.instr_budget);
        }
        if self.pipe.trapped {
            RunEnd::Trapped
        } else {
            RunEnd::Completed
        }
    }

    /// Captures the complete machine state. The memory image costs one
    /// pointer per group of resident pages and the cache arrays one per
    /// block of lines (both are shared copy-on-write); the queues and
    /// register state are copied.
    #[must_use]
    pub fn snapshot(&self) -> PipelineSnapshot {
        self.pipe.snapshot()
    }

    /// Rewinds to a snapshot taken earlier on this instance or on any
    /// instance of the same machine and program (checkpoint sharding
    /// relies on the latter).
    pub fn restore(&mut self, snap: &PipelineSnapshot) {
        self.pipe.restore(snap);
    }

    /// Whether the machine state equals `snap` exactly, up to pure
    /// statistics counters that never feed back into behavior. Memory
    /// compares semantically (see [`Memory`]'s `PartialEq`). Because
    /// stepping is deterministic, a faulty run that matches a golden
    /// checkpoint at that checkpoint's cycle has rejoined the golden run:
    /// its future, ending included, is the golden one.
    #[must_use]
    pub fn matches_snapshot(&self, snap: &PipelineSnapshot) -> bool {
        self.pipe.matches(snap)
    }

    /// Identities of the machine's cache line blocks, L1I, DL1 then L2:
    /// equal to a snapshot's
    /// ([`PipelineSnapshot::cache_block_identities`]) for every block
    /// the two still share (see [`crate::Cache::block_identities`]).
    pub fn cache_block_identities(&self) -> impl Iterator<Item = usize> + '_ {
        let pipe = &self.pipe;
        pipe.l1i
            .block_identities()
            .chain(pipe.dl1.block_identities())
            .chain(pipe.l2.block_identities())
    }

    /// Judges the machine against `golden_state`, the golden run's state
    /// of its current cycle: one of `golden`'s checkpoints, or a snapshot
    /// the machine took on the golden run just before a flip
    /// ([`Judgement::Open`] if the cycles differ). Either way the golden
    /// future is read from the state's oracle position on, through the
    /// one [`GoldenFuture`] of `golden`.
    ///
    /// Every field [`InjectionSim::matches_snapshot`] compares must be
    /// equal except four passive parts: the oracle's register values,
    /// its memory bytes, the DTLB's poison flag and the in-flight
    /// micro-ops' values (results and recorded operands, which only the
    /// flip engine reads). Otherwise the judgement is
    /// [`Judgement::Open`]. The passive parts may differ as long as the
    /// golden future never reads a differing register or byte before
    /// overwriting it. The machine then runs the golden future cycle
    /// for cycle (the pipeline sees the oracle only through the outcomes
    /// of what it executes, which read nothing that differs), so its
    /// verdict is fixed: [`Verdict::Due`] if the golden future's next
    /// event on the poisoned DTLB entry is a hit, else [`Verdict::Sdc`]
    /// if some differing byte is never stored to again, else
    /// [`Verdict::Masked`]. With no difference at all the machine has
    /// [`Judgement::Rejoined`] the golden run. When the golden future
    /// does read a difference, the judgement is [`Judgement::Live`].
    ///
    /// The verdict is the one running to the end would give, provided
    /// `golden` comes from the golden pass of this machine, program and
    /// instruction budget, `golden_state` is that golden run's state of
    /// the current cycle, and the cycle budget covers the golden run.
    #[must_use]
    pub fn judge(&self, golden: &DecodedCheckpoints, golden_state: &PipelineSnapshot) -> Judgement {
        match self.pipe.compare(golden_state) {
            None => Judgement::Open,
            Some(diff) => {
                golden
                    .future
                    .settle(golden_state.retired(), golden_state.dtlb_tick(), &diff)
            }
        }
    }

    /// Finishes a [`Judgement::Live`] machine on its architectural oracle
    /// alone, without the cycle loop: the verdict, or `None` if the
    /// oracle leaves the golden path.
    ///
    /// The machine's active state must equal `golden_state`, the golden
    /// run's state of its current cycle (else `None`), as in
    /// [`InjectionSim::judge`]. Its oracle then runs from its frontier
    /// to the end of the run, and every execution is checked against
    /// the golden pass's outcome stream from the frontier's position on:
    /// each memory op must access the golden effective address and each
    /// branch take the golden direction. If all do, every execution has
    /// the golden direction, next PC, effective address and halt flag,
    /// and runs no PC out of the text — all the cycle loop reads of the
    /// oracle. By the induction of [`InjectionSim::judge`], the machine
    /// runs the golden timing cycle for cycle: it cannot time out,
    /// deadlock or take a new trap. Its verdict is [`Verdict::Due`] if
    /// the golden future hits its poisoned DTLB entry before evicting it,
    /// else [`Verdict::Sdc`] if the oracle's final memory differs from
    /// the golden image, else [`Verdict::Masked`]. Same precondition as
    /// `judge`.
    ///
    /// Returns `None` at the first execution that differs, or at a PC
    /// outside the text. The machine is left as it was found either way:
    /// the oracle's registers and memory handle are saved before the run
    /// and put back after it (the memory pages are shared copy-on-write,
    /// so saving them copies pointers).
    pub fn oracle_tail(
        &mut self,
        golden: &DecodedCheckpoints,
        golden_state: &PipelineSnapshot,
    ) -> Option<Verdict> {
        let poisoned = self.pipe.compare(golden_state)?.poisoned;
        self.oracle_passes += 1;
        let saved_regs = self.pipe.oracle.clone();
        let saved_mem = self.pipe.oracle_mem.clone();
        let pipe = &mut self.pipe;
        let verdict = golden
            .future
            .follows(
                pipe.program,
                &mut pipe.oracle,
                &mut pipe.oracle_mem,
                pipe.fetch_budget,
            )
            .then(|| {
                let differs = pipe.oracle_mem != *golden.final_memory();
                golden
                    .future
                    .verdict(poisoned, golden_state.dtlb_tick(), differs)
            });
        pipe.oracle = saved_regs;
        pipe.oracle_mem = saved_mem;
        verdict
    }

    /// Rewinds (or fast-forwards) to the nearest checkpoint at or before
    /// `cycle`, returning the restored cycle, or `None` (leaving the
    /// machine untouched) if there is none. The caller then
    /// [`InjectionSim::run_to_cycle`]s the remaining `O(interval)`
    /// distance instead of replaying the whole fault-free prefix.
    pub fn restore_nearest(&mut self, checkpoints: &DecodedCheckpoints, cycle: u64) -> Option<u64> {
        let (at, snap) = checkpoints.nearest(cycle)?;
        self.restore(snap);
        Some(at)
    }

    /// Flips bit `bit` of physical entry `entry` in `target` at the
    /// current cycle.
    ///
    /// # Panics
    ///
    /// Panics if `entry` or `bit` exceed the target's geometry.
    pub fn flip_bit(&mut self, target: InjectionTarget, entry: u64, bit: u32) -> FlipEffect {
        self.flip_inner(target, entry, bit, true)
    }

    /// Dry-run of [`InjectionSim::flip_bit`]: classifies the flip
    /// without mutating any machine state. Campaign drivers use this to
    /// skip the snapshot/rewind cost for provably masked trials —
    /// followed by a real `flip_bit` at the same state, the two always
    /// agree.
    ///
    /// # Panics
    ///
    /// Panics if `entry` or `bit` exceed the target's geometry.
    pub fn probe_bit(&mut self, target: InjectionTarget, entry: u64, bit: u32) -> FlipEffect {
        self.flip_inner(target, entry, bit, false)
    }

    fn flip_inner(
        &mut self,
        target: InjectionTarget,
        entry: u64,
        bit: u32,
        apply: bool,
    ) -> FlipEffect {
        assert!(
            entry < target.entries(self.pipe.cfg),
            "entry index out of range"
        );
        assert!(
            bit < target.entry_bits(&self.pipe.sizes),
            "bit index out of range"
        );
        match target {
            InjectionTarget::RegFile => self.flip_regfile(entry as u32, bit, apply),
            InjectionTarget::Rob => self.flip_rob(entry as usize, bit, apply),
            InjectionTarget::Iq => self.flip_iq(entry as usize, bit, apply),
            InjectionTarget::Lq => self.flip_lsq(entry as usize, bit, OpClass::Load, apply),
            InjectionTarget::Sq => self.flip_lsq(entry as usize, bit, OpClass::Store, apply),
            InjectionTarget::Dl1 => self.flip_cache_line(true, entry as usize, bit, apply),
            InjectionTarget::L2 => self.flip_cache_line(false, entry as usize, bit, apply),
            InjectionTarget::Dtlb => {
                if entry as usize >= self.pipe.dtlb.resident() {
                    return FlipEffect::Masked(MaskReason::Vacant);
                }
                if apply {
                    self.pipe
                        .dtlb
                        .poison_entry(entry as usize)
                        .expect("residency checked");
                }
                FlipEffect::Armed
            }
        }
    }

    /// Physical register flip: corrupt the architectural register whose
    /// newest definition the register holds.
    ///
    /// Approximation: the flip is visible to all *not-yet-fetched*
    /// readers (the oracle executes at fetch, so already-fetched
    /// in-flight consumers keep their clean value). A register whose
    /// value has been superseded for every future reader is masked by
    /// overwrite — exactly the un-ACE idle/rename-turnaround state the
    /// paper exploits.
    fn flip_regfile(&mut self, preg: u32, bit: u32, apply: bool) -> FlipEffect {
        if self.pipe.rf.is_free(preg) {
            return FlipEffect::Masked(MaskReason::Vacant);
        }
        match self.pipe.rf.arch_of_newest(preg) {
            Some(arch) => {
                if apply {
                    self.pipe.oracle.regs[usize::from(arch)] ^= 1u64 << (bit & 63);
                }
                FlipEffect::Armed
            }
            None => FlipEffect::Masked(MaskReason::Overwritten),
        }
    }

    /// Corrupts the in-flight instruction's destination value if (and
    /// only if) that value is still the newest definition of its
    /// architectural register.
    fn flip_result_value(&mut self, idx: usize, bit: u32, apply: bool) -> FlipEffect {
        let e = &self.pipe.rob[idx];
        let (Some(dest), Some(dest_preg)) = (e.inst.dest_reg(), e.dest_preg) else {
            return FlipEffect::Masked(MaskReason::Idle);
        };
        if self.pipe.rf.rename_src(dest.number()) != dest_preg {
            return FlipEffect::Masked(MaskReason::Overwritten);
        }
        if apply {
            self.pipe.oracle.regs[dest.index()] ^= 1u64 << (bit & 63);
        }
        FlipEffect::Armed
    }

    /// Marks the fault detected (control-state corruption → DUE).
    fn trap(&mut self, apply: bool) -> FlipEffect {
        if apply {
            self.pipe.trapped = true;
        }
        FlipEffect::Armed
    }

    fn flip_rob(&mut self, idx: usize, bit: u32, apply: bool) -> FlipEffect {
        let Some(e) = self.pipe.rob.get(idx) else {
            return FlipEffect::Masked(MaskReason::Vacant);
        };
        if e.wrong_path {
            return FlipEffect::Masked(MaskReason::WrongPath);
        }
        match self.fault_model {
            FaultModel::Trap => self.flip_rob_trap(idx, bit, apply),
            FaultModel::Replay => self.flip_rob_replay(idx, bit, apply),
        }
    }

    fn flip_rob_trap(&mut self, idx: usize, bit: u32, apply: bool) -> FlipEffect {
        let class = self.pipe.rob[idx].inst.op.class();
        // Table I's 76-bit ROB entry: a 64-bit result field plus control
        // (dest tag, status). Control corruption breaks commit
        // bookkeeping — a detected error; result-field corruption
        // propagates through the destination register.
        if bit >= 64 {
            return match class {
                OpClass::Nop => FlipEffect::Masked(MaskReason::Idle),
                _ => self.trap(apply),
            };
        }
        match class {
            OpClass::Nop => FlipEffect::Masked(MaskReason::Idle),
            OpClass::Branch | OpClass::Store | OpClass::Halt => {
                // No result field in use.
                FlipEffect::Masked(MaskReason::Idle)
            }
            _ => self.flip_result_value(idx, bit, apply),
        }
    }

    /// The micro-op replay oracle's ROB model. A result-field flip
    /// corrupts the value the entry carries (the same entry-backs-the-
    /// in-flight-value abstraction the ACE analysis credits dispatch→
    /// commit) and replays it through every not-yet-issued in-flight
    /// consumer; the 12-bit control half is re-decoded field by field
    /// instead of trapping wholesale.
    fn flip_rob_replay(&mut self, idx: usize, bit: u32, apply: bool) -> FlipEffect {
        let e = &self.pipe.rob[idx];
        let class = e.inst.op.class();
        if class == OpClass::Nop {
            // The ACE model resolves a NOP's whole entry un-ACE, so the
            // oracle masks it too (the flipped-opcode-on-a-NOP gap is
            // recorded in the ROADMAP).
            return FlipEffect::Masked(MaskReason::Idle);
        }
        if bit < 64 {
            if matches!(class, OpClass::Branch | OpClass::Store | OpClass::Halt) {
                // No result field in use.
                return FlipEffect::Masked(MaskReason::Idle);
            }
            let Some(dest) = e.inst.dest_reg() else {
                return FlipEffect::Masked(MaskReason::Idle);
            };
            let out = e.outcome.expect("right-path producer has an outcome");
            let corrupted = out.value ^ (1u64 << bit);
            if apply {
                let seq = e.seq;
                let mut new_out = out;
                new_out.value = corrupted;
                self.pipe.rob[idx].outcome = Some(new_out);
                self.replay_seed(seq, vec![(dest.number(), corrupted)]);
            }
            return FlipEffect::Armed;
        }
        match rob_control_field_of(bit - 64) {
            RobControlField::DestTag(b) => self.flip_dest_tag(idx, b, apply),
            RobControlField::Status(b) => {
                // 2-bit stage code: InIq 0, Executing 1, Complete 2.
                let code: u8 = match e.stage {
                    Stage::InIq => 0,
                    Stage::Executing => 1,
                    Stage::Complete => 2,
                };
                if code ^ (1 << b) == 3 {
                    // Unencodable scheduling state.
                    FlipEffect::Diverged
                } else {
                    // A live entry scheduled out of order breaks the
                    // in-order commit contract: detected.
                    self.trap(apply)
                }
            }
            RobControlField::PathFlag => self.trap(apply),
        }
    }

    fn flip_iq(&mut self, idx: usize, bit: u32, apply: bool) -> FlipEffect {
        let Some(rob_idx) = self
            .pipe
            .rob
            .iter()
            .enumerate()
            .filter(|(_, e)| e.stage == Stage::InIq)
            .map(|(i, _)| i)
            .nth(idx)
        else {
            return FlipEffect::Masked(MaskReason::Vacant);
        };
        let e = &self.pipe.rob[rob_idx];
        if e.wrong_path {
            return FlipEffect::Masked(MaskReason::WrongPath);
        }
        if e.inst.op.class() == OpClass::Nop {
            return FlipEffect::Masked(MaskReason::Idle);
        }
        match self.fault_model {
            FaultModel::Trap => {
                // A 32-bit IQ entry is all control: opcode and operand
                // tags. Corrupting a waiting computation's routing
                // yields a wrong result; corrupting waiting control
                // flow (branch/store/halt scheduling) is a detected
                // error.
                match self.pipe.rob[rob_idx].inst.op.class() {
                    OpClass::Branch | OpClass::Store | OpClass::Halt => self.trap(apply),
                    _ => self.flip_result_value(rob_idx, bit, apply),
                }
            }
            FaultModel::Replay => match iq_field_of(bit) {
                IqField::Opcode(b) => self.flip_iq_opcode(rob_idx, b, apply),
                IqField::SrcTag(slot, b) => self.flip_iq_src_tag(rob_idx, slot, b, apply),
                IqField::DestTag(b) => self.flip_dest_tag(rob_idx, b, apply),
            },
        }
    }

    /// Implemented width of a physical-register tag: `Table I` pads tag
    /// fields to a byte, but only `ceil(log2(phys_regs))` bits back real
    /// storage — a flip past that is a padding bit and masks.
    fn tag_width(&self) -> u8 {
        let regs = self.pipe.cfg.phys_regs.max(2);
        (usize::BITS - (regs - 1).leading_zeros()) as u8
    }

    /// Re-decodes a waiting micro-op's opcode byte with bit `b` flipped
    /// and replays the decoded instruction.
    fn flip_iq_opcode(&mut self, idx: usize, b: u8, apply: bool) -> FlipEffect {
        // Implemented opcode width: the encoding space holds
        // `Opcode::ALL.len()` points; bits past its log2 are padding.
        let opcode_width = (usize::BITS - (Opcode::ALL.len() - 1).leading_zeros()) as u8;
        if b >= opcode_width {
            return FlipEffect::Masked(MaskReason::UnAceBits);
        }
        let e = &self.pipe.rob[idx];
        let op = e.inst.op;
        let Some(op2) = Opcode::from_wire_code(op.wire_code() ^ (1 << b)) else {
            return FlipEffect::Diverged; // unencodable opcode
        };
        if op2.class() != op.class() {
            // The entry's routing metadata (function-unit class, LSQ
            // linkage, branch checkpoint) no longer matches the decoded
            // micro-op: a detected scheduling inconsistency.
            return self.trap(apply);
        }
        let mut inst2 = e.inst;
        inst2.op = op2;
        let vals = e.src_vals;
        self.replay_corrupted_uop(idx, inst2, vals, apply)
    }

    /// Re-routes one source-operand tag of a waiting micro-op and
    /// replays it with the victim register's value in that slot.
    fn flip_iq_src_tag(&mut self, idx: usize, slot: usize, b: u8, apply: bool) -> FlipEffect {
        if b >= self.tag_width() {
            return FlipEffect::Masked(MaskReason::UnAceBits);
        }
        let e = &self.pipe.rob[idx];
        let Some(p) = e.src_pregs[slot] else {
            // Immediate, zero-register, or unused operand slot.
            return FlipEffect::Masked(MaskReason::Idle);
        };
        let p2 = p ^ (1u32 << b);
        if p2 as usize >= self.pipe.cfg.phys_regs {
            // An implemented tag bit flipped the number past the
            // physical file: no such register exists.
            return FlipEffect::Diverged;
        }
        let v2 = self.pipe.preg_value(p2);
        let inst = e.inst;
        let mut vals = e.src_vals;
        vals[slot] = v2;
        self.replay_corrupted_uop(idx, inst, vals, apply)
    }

    /// Misdirected-writeback decode shared by the ROB control half and
    /// the IQ destination byte: the tag with bit `b` flipped names a
    /// different physical register, so the result lands there —
    /// clobbering whatever architected value that register backs.
    ///
    /// Approximation: the true destination keeps its already-applied
    /// oracle value (mirroring the store-tag model, which does not
    /// un-write the original address).
    fn flip_dest_tag(&mut self, idx: usize, b: u8, apply: bool) -> FlipEffect {
        if b >= self.tag_width() {
            return FlipEffect::Masked(MaskReason::UnAceBits);
        }
        let e = &self.pipe.rob[idx];
        let Some(dest_preg) = e.dest_preg else {
            // No result to misdirect.
            return FlipEffect::Masked(MaskReason::Idle);
        };
        let victim = dest_preg ^ (1u32 << b);
        if victim as usize >= self.pipe.cfg.phys_regs {
            // An implemented tag bit flipped the number past the
            // physical file: no such register exists.
            return FlipEffect::Diverged;
        }
        if e.is_complete(self.pipe.cycle) {
            // Writeback already consumed the tag; its remaining use is
            // commit bookkeeping — freeing and mapping the wrong
            // register. Detected.
            return self.trap(apply);
        }
        let Some(victim_arch) = self.pipe.rf.arch_of_newest(victim) else {
            return FlipEffect::Masked(MaskReason::DeadTarget);
        };
        let value = e.outcome.expect("right-path def has an outcome").value;
        if apply {
            let seq = e.seq;
            self.replay_seed(seq, vec![(victim_arch, value)]);
        }
        FlipEffect::Armed
    }

    /// Re-executes in-flight entry `idx` as the (possibly re-decoded)
    /// micro-op `inst` with source values `vals` and compares against
    /// its original oracle outcome: a reproduced outcome is benign
    /// ([`MaskReason::ReplayClean`]); a changed one is applied and
    /// replayed through the in-flight window.
    fn replay_corrupted_uop(
        &mut self,
        idx: usize,
        inst: Inst,
        vals: [u64; 2],
        apply: bool,
    ) -> FlipEffect {
        let e = &self.pipe.rob[idx];
        let out = e.outcome.expect("right-path entry has an outcome");
        let (pc, seq) = (e.pc, e.seq);
        let new_out = avf_isa::replay_eval(&inst, pc, vals[0], vals[1], &self.pipe.oracle_mem);
        if inst.op.is_branch() {
            if new_out.taken == out.taken {
                return FlipEffect::Masked(MaskReason::ReplayClean);
            }
            // The corrupted micro-op steers control off the fetched
            // history: detected divergence.
            return self.trap(apply);
        }
        if inst.op.is_store() {
            if (new_out.ea, new_out.size, new_out.value) == (out.ea, out.size, out.value) {
                return FlipEffect::Masked(MaskReason::ReplayClean);
            }
            if apply {
                // The corrupted write reaches memory; the original
                // (clean) write is not un-written, as in the store-tag
                // model.
                let ea = new_out.ea.expect("store has an effective address");
                match new_out.size.expect("store has a size") {
                    AccessSize::Word => self.pipe.oracle_mem.write_u32(ea, new_out.value as u32),
                    AccessSize::Quad => self.pipe.oracle_mem.write_u64(ea, new_out.value),
                }
                self.pipe.rob[idx].outcome = Some(new_out);
            }
            return FlipEffect::Armed;
        }
        // Value producers (ALU ops, loads).
        let Some(dest) = inst.dest_reg() else {
            return FlipEffect::Masked(MaskReason::Idle);
        };
        if new_out.value == out.value {
            return FlipEffect::Masked(MaskReason::ReplayClean);
        }
        if apply {
            self.pipe.rob[idx].outcome = Some(new_out);
            self.replay_seed(seq, vec![(dest.number(), new_out.value)]);
        }
        FlipEffect::Armed
    }

    /// Runs the in-flight replay walk, recording a control divergence
    /// as a detected error (the simplified oracle cannot re-steer the
    /// already-fetched path).
    fn replay_seed(&mut self, after_seq: u64, delta: Vec<(u8, u64)>) {
        if let ReplayEnd::ControlDiverged { .. } = self.pipe.replay_forward(after_seq, delta) {
            self.pipe.trapped = true;
        }
    }

    fn flip_lsq(&mut self, idx: usize, bit: u32, class: OpClass, apply: bool) -> FlipEffect {
        let Some(rob_idx) = self
            .pipe
            .rob
            .iter()
            .enumerate()
            .filter(|(_, e)| e.inst.op.class() == class)
            .map(|(i, _)| i)
            .nth(idx)
        else {
            return FlipEffect::Masked(MaskReason::Vacant);
        };
        let e = &self.pipe.rob[rob_idx];
        if e.wrong_path {
            return FlipEffect::Masked(MaskReason::WrongPath);
        }
        let outcome = e.outcome.expect("right-path memory op has an outcome");
        let ea = outcome.ea.expect("memory op has an effective address");
        let size = outcome.size.expect("memory op has an access size");
        let is_load = class == OpClass::Load;
        if bit < 64 {
            // Tag half: the access goes to a wrong address.
            let flipped_ea = ea ^ (1u64 << bit);
            if is_load {
                // The load returns whatever lives at the corrupted
                // address.
                let wrong = match size {
                    AccessSize::Word => u64::from(self.pipe.oracle_mem.read_u32(flipped_ea)),
                    AccessSize::Quad => self.pipe.oracle_mem.read_u64(flipped_ea),
                };
                if self.fault_model == FaultModel::Replay {
                    // The wrong-address load is a replayed micro-op:
                    // its (different) result reaches not-yet-issued
                    // in-flight consumers, not just future fetches.
                    let Some(dest) = e.inst.dest_reg() else {
                        return FlipEffect::Masked(MaskReason::Idle);
                    };
                    if wrong == outcome.value {
                        // The corrupted address holds the right value.
                        return FlipEffect::Masked(MaskReason::ReplayClean);
                    }
                    if apply {
                        let seq = e.seq;
                        let mut new_out = outcome;
                        new_out.ea = Some(flipped_ea);
                        new_out.value = wrong;
                        self.pipe.rob[rob_idx].outcome = Some(new_out);
                        self.replay_seed(seq, vec![(dest.number(), wrong)]);
                    }
                    return FlipEffect::Armed;
                }
                return self.set_result_value(rob_idx, wrong, apply);
            }
            // Approximation: the misdirected store corrupts the flipped
            // address; the clean value it already wrote at the original
            // address is not un-written (the oracle ran at fetch).
            if apply {
                match size {
                    AccessSize::Word => {
                        self.pipe
                            .oracle_mem
                            .write_u32(flipped_ea, outcome.value as u32);
                    }
                    AccessSize::Quad => self.pipe.oracle_mem.write_u64(flipped_ea, outcome.value),
                }
            }
            return FlipEffect::Armed;
        }
        // Data half: only valid inside the window the ACE analysis
        // credits (after the fill returns for loads, after issue for
        // stores), and only the bytes the access actually uses.
        let data_bit = bit - 64;
        if u64::from(data_bit) >= size.bits() {
            return FlipEffect::Masked(MaskReason::UnAceBits);
        }
        if is_load {
            if e.data_return_cycle == 0 || self.pipe.cycle < e.data_return_cycle {
                return FlipEffect::Masked(MaskReason::NotYetValid);
            }
            return self.flip_result_value(rob_idx, data_bit, apply);
        }
        if e.stage == Stage::InIq {
            return FlipEffect::Masked(MaskReason::NotYetValid);
        }
        // Store data corrupts the in-memory copy the commit writes.
        if apply {
            let addr = ea + u64::from(data_bit / 8);
            let byte = self.pipe.oracle_mem.read_u8(addr);
            self.pipe
                .oracle_mem
                .write_u8(addr, byte ^ (1 << (data_bit % 8)));
        }
        FlipEffect::Armed
    }

    /// Overwrites (rather than XORs) the in-flight destination value —
    /// used when a wrong-address load replaces the whole result.
    fn set_result_value(&mut self, idx: usize, value: u64, apply: bool) -> FlipEffect {
        let e = &self.pipe.rob[idx];
        let (Some(dest), Some(dest_preg)) = (e.inst.dest_reg(), e.dest_preg) else {
            return FlipEffect::Masked(MaskReason::Idle);
        };
        if self.pipe.rf.rename_src(dest.number()) != dest_preg {
            return FlipEffect::Masked(MaskReason::Overwritten);
        }
        if apply {
            // If the wrong address happens to hold the right value the
            // write is a no-op: a benign fault the run classifies as
            // masked by comparing equal.
            self.pipe.oracle.regs[dest.index()] = value;
        }
        FlipEffect::Armed
    }

    /// Cache data-array flip. The fault is registered *in the line*,
    /// not in memory: loads that hit the line at their timing-accurate
    /// issue point consume the corrupted bytes (propagating through
    /// their destination register), stores over the bytes repair it, a
    /// dirty eviction writes it down the hierarchy (ultimately making
    /// it architectural), and a clean eviction discards it — the next
    /// fill restores clean data, exactly as in hardware.
    fn flip_cache_line(&mut self, dl1: bool, idx: usize, bit: u32, apply: bool) -> FlipEffect {
        let Some(fault) = self.cache_fault(dl1, idx, bit) else {
            return FlipEffect::Masked(MaskReason::Vacant);
        };
        if apply {
            self.pipe.cache_faults.inject(fault);
        }
        FlipEffect::Armed
    }

    /// The fault a flip of bit `bit` of line `idx` of the DL1 (`dl1`) or
    /// the L2 injects, or `None` if the line is vacant.
    fn cache_fault(&self, dl1: bool, idx: usize, bit: u32) -> Option<CacheFault> {
        let cache = if dl1 { &self.pipe.dl1 } else { &self.pipe.l2 };
        let line_base = cache.valid_line(idx)?;
        Some(CacheFault {
            dl1,
            line_base,
            addr: line_base + u64::from(bit / 8),
            mask: 1u8 << (bit % 8),
        })
    }

    /// The fate of a flip of bit `bit` of `entry` in the DL1 or L2 data
    /// array at the current cycle, read from the golden pass's log of
    /// line events without flipping or simulating anything: `None` for
    /// another target or a vacant line. The machine must be in the
    /// golden run's state at its current cycle, and `golden` must come
    /// from the golden pass of this machine, program and instruction
    /// budget.
    ///
    /// A fault in a data array changes nothing the cycle loop reads
    /// until a load consumes it, so until then the faulty machine runs
    /// the golden run cycle for cycle and meets the golden run's
    /// evictions, fills, loads and stores in the same order. If the
    /// fault dies ([`CacheFate::Repaired`], [`CacheFate::Dropped`]) or
    /// is still resident when the run ends ([`CacheFate::Resident`])
    /// without being consumed or written to memory, the run completes
    /// exactly as the golden one: its verdict is [`Verdict::Masked`]
    /// ([`CacheFate::verdict`]).
    ///
    /// # Panics
    ///
    /// Panics if `entry` or `bit` exceed the target's geometry.
    #[must_use]
    pub fn cache_fate(
        &self,
        target: InjectionTarget,
        entry: u64,
        bit: u32,
        golden: &DecodedCheckpoints,
    ) -> Option<CacheFate> {
        let dl1 = match target {
            InjectionTarget::Dl1 => true,
            InjectionTarget::L2 => false,
            _ => return None,
        };
        assert!(
            entry < target.entries(self.pipe.cfg) && bit < target.entry_bits(&self.pipe.sizes),
            "entry or bit index out of range"
        );
        debug_assert!(
            self.pipe.cache_faults.is_empty(),
            "a machine on the golden run"
        );
        let fault = self.cache_fault(dl1, entry as usize, bit)?;
        Some(
            golden
                .future
                .cache_fate(&self.pipe.dl1, self.pipe.cycle, fault),
        )
    }
}

/// Periodic in-memory checkpoints of the fault-free run, plus its final
/// memory image and the index of its future reads and writes.
///
/// Built once per campaign by [`golden_pass`]. Trial workers
/// [`InjectionSim::restore_nearest`] the checkpoint at or before their
/// injection cycle, turning per-trial setup from `O(cycle)` prefix
/// replay into `O(interval)`; an armed trial compares itself with the
/// later checkpoints ([`InjectionSim::judge`]) to stop once its verdict
/// is fixed, and with [`final_memory`](Self::final_memory) to judge the
/// run it completes.
/// Consecutive checkpoints share every memory page the run did not
/// write in between, so the set pins each distinct page once. Clones
/// share the snapshots.
#[derive(Clone)]
pub struct DecodedCheckpoints {
    interval: u64,
    /// `(cycle, snapshot)` in strictly ascending cycle order; always
    /// starts with the cycle-0 initial state, so `nearest` never comes
    /// up empty.
    checkpoints: Arc<[(u64, PipelineSnapshot)]>,
    final_memory: Arc<Memory>,
    /// What the golden run reads and overwrites after each checkpoint.
    future: Arc<GoldenFuture>,
}

impl std::fmt::Debug for DecodedCheckpoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodedCheckpoints")
            .field("interval", &self.interval)
            .field("len", &self.checkpoints.len())
            .finish()
    }
}

impl DecodedCheckpoints {
    /// Requested checkpoint spacing in cycles.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of checkpoints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether the set holds no checkpoints.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// The latest checkpoint at or before `cycle`.
    #[must_use]
    pub fn nearest(&self, cycle: u64) -> Option<(u64, &PipelineSnapshot)> {
        let idx = self.checkpoints.partition_point(|&(c, _)| c <= cycle);
        let (c, snap) = self.checkpoints.get(idx.checked_sub(1)?)?;
        Some((*c, snap))
    }

    /// The checkpoints strictly after `cycle`, in ascending cycle order.
    pub fn after(&self, cycle: u64) -> impl Iterator<Item = (u64, &PipelineSnapshot)> {
        let idx = self.checkpoints.partition_point(|&(c, _)| c <= cycle);
        self.checkpoints[idx..].iter().map(|(c, snap)| (*c, snap))
    }

    /// The golden run's memory image at its end: a faulty run that
    /// completes with memory equal to this one is masked.
    #[must_use]
    pub fn final_memory(&self) -> &Memory {
        &self.final_memory
    }

    /// The golden run's future reads and writes.
    #[must_use]
    pub fn future(&self) -> &GoldenFuture {
        &self.future
    }

    /// Bytes the checkpoints pin: each distinct memory page and cache
    /// line block once (pages shared between checkpoints and the final
    /// image, and blocks shared between checkpoints, count once), plus
    /// every snapshot's own state and the golden-future index.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        let mut pages = HashSet::new();
        let mut blocks = HashMap::new();
        for (_, snap) in self.checkpoints.iter() {
            pages.extend(snap.memory().page_identities());
            blocks.extend(snap.cache_blocks());
        }
        pages.extend(self.final_memory.page_identities());
        let state: usize = self.checkpoints.iter().map(|(_, s)| s.state_bytes()).sum();
        pages.len() * PAGE_BYTES + blocks.values().sum::<usize>() + state + self.future.bytes()
    }

    /// Another handle on the same checkpoints; no bytes are parsed or
    /// copied. Kept only so the benchmark's setup mirror, which times
    /// a decode step, compiles against this type.
    ///
    /// # Errors
    ///
    /// Never fails.
    pub fn decode_all(
        &self,
        _config: &MachineConfig,
        _program: &Program,
    ) -> Result<DecodedCheckpoints, Infallible> {
        Ok(self.clone())
    }
}

/// Runs the fault-free reference execution for `program` bounded by
/// `instr_budget` commits.
#[must_use]
pub fn golden_run(config: &MachineConfig, program: &Program, instr_budget: u64) -> GoldenRun {
    let mut sim = InjectionSim::new(config, program, instr_budget);
    let end = sim.run_to_end();
    assert!(
        end == RunEnd::Completed,
        "fault-free golden run must complete cleanly, got {end:?}"
    );
    GoldenRun {
        cycles: sim.cycle().max(1),
        committed: sim.committed(),
        digest: sim.memory_digest(),
    }
}

/// [`golden_pass`] without evidence: [`golden_run`] that also captures
/// an in-memory checkpoint every `interval` cycles (plus the cycle-0
/// initial state) and keeps the final memory image.
///
/// # Panics
///
/// Panics if `interval` is zero or the fault-free run does not complete
/// cleanly.
#[must_use]
pub fn golden_run_checkpointed(
    config: &MachineConfig,
    program: &Program,
    instr_budget: u64,
    interval: u64,
) -> (GoldenRun, DecodedCheckpoints) {
    let (golden, checkpoints, _) = golden_pass(config, program, instr_budget, interval, None);
    (golden, checkpoints)
}

/// [`golden_pass`] with evidence folded over `window`-cycle windows:
/// [`golden_run_checkpointed`] that also records the occupancy/deadness
/// evidence the pre-campaign site classifier consumes.
///
/// # Panics
///
/// Panics if `interval` or `window` is zero or the fault-free run does
/// not complete cleanly.
#[must_use]
pub fn golden_run_with_evidence(
    config: &MachineConfig,
    program: &Program,
    instr_budget: u64,
    interval: u64,
    window: u64,
) -> (GoldenRun, DecodedCheckpoints, PruneEvidence) {
    let (golden, checkpoints, evidence) =
        golden_pass(config, program, instr_budget, interval, Some(window));
    (
        golden,
        checkpoints,
        evidence.expect("evidence was requested"),
    )
}

/// The golden pass every campaign venue runs before its first trial:
/// steps the fault-free run cycle by cycle, takes a checkpoint at cycle
/// 0 and at every multiple of `interval`, records the golden-future
/// index and, given an `evidence_window`, folds [`PruneEvidence`] over
/// windows of that many cycles. The only loop that steps a
/// checkpointing golden pass; the evidence is read-only observation, so
/// the run and checkpoints do not depend on it.
///
/// # Panics
///
/// Panics if `interval` or the window is zero or the fault-free run
/// does not complete cleanly.
#[must_use]
pub fn golden_pass(
    config: &MachineConfig,
    program: &Program,
    instr_budget: u64,
    interval: u64,
    evidence_window: Option<u64>,
) -> (GoldenRun, DecodedCheckpoints, Option<PruneEvidence>) {
    assert!(interval > 0, "checkpoint interval must be positive");
    let mut sim = InjectionSim::recording(config, program, instr_budget);
    let mut evidence = evidence_window.map(PruneEvidence::new);
    let mut live = vec![0u64; config.phys_regs.div_ceil(64)];
    let mut checkpoints = vec![(0, sim.pipe.snapshot())];
    let mut next = interval;
    while !sim.pipe.done(instr_budget) && sim.pipe.cycle < sim.cycle_budget {
        sim.pipe.tick(instr_budget);
        if let Some(ev) = &mut evidence {
            ev.sample(&sim.pipe, &mut live);
        }
        if sim.pipe.cycle == next {
            checkpoints.push((next, sim.pipe.snapshot()));
            next = next.saturating_add(interval);
        }
    }
    let end = sim.run_to_end();
    assert!(
        end == RunEnd::Completed,
        "fault-free golden run must complete cleanly, got {end:?}"
    );
    let golden = GoldenRun {
        cycles: sim.cycle().max(1),
        committed: sim.committed(),
        digest: sim.memory_digest(),
    };
    if let Some(ev) = &mut evidence {
        ev.cycles = golden.cycles;
    }
    let recorder: Box<FutureRecorder> = sim.pipe.recorder.take().expect("a recording pass");
    let checkpoints = DecodedCheckpoints {
        interval,
        checkpoints: checkpoints.into(),
        final_memory: Arc::new(sim.pipe.oracle_mem),
        future: Arc::new(recorder.finish()),
    };
    (golden, checkpoints, evidence)
}

/// Default cycle-window width for [`PruneEvidence`] folding. Smaller
/// windows bound occupancy tighter (more pruning); larger windows keep
/// the evidence compact. 64 keeps a 50k-cycle run under 1k windows.
pub const PRUNE_WINDOW: u64 = 64;

/// Per-window occupancy and register-deadness evidence recorded during
/// an instrumented golden pass, consumed by the `avf-prune` site
/// classifier.
///
/// All samples are taken at cycle boundaries `c ∈ [1, cycles)` — the
/// exact states a planned trial at cycle `c` observes after
/// [`InjectionSim::run_to_cycle`]`(c)` — and folded conservatively over
/// fixed windows of `window` cycles: occupancies by per-window *max*
/// (an entry index at or past the max is vacant on every cycle of the
/// window), register deadness by per-window *AND* (a register is in a
/// dead window only if it was provably masked on every cycle of it).
///
/// `PartialEq`/`Eq` are load-bearing: in delegated mode every worker
/// derives the evidence (and hence the prune map) itself, and the
/// driver cross-checks bit-identity the same way it does for
/// [`GoldenRun`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneEvidence {
    /// Cycle-window width the per-cycle samples were folded over.
    pub window: u64,
    /// Golden-run cycle count; the samples span cycles `1..cycles`.
    pub cycles: u64,
    /// Per-window maximum ROB occupancy (the ROB is prefix-occupied:
    /// entry indices at or past `rob.len()` are vacant).
    pub rob_max: Vec<u64>,
    /// Per-window maximum count of in-IQ micro-ops (the flip engine
    /// indexes the IQ by compaction over `Stage::InIq` entries).
    pub iq_max: Vec<u64>,
    /// Per-window maximum count of in-flight loads (LQ compaction
    /// index space).
    pub lq_max: Vec<u64>,
    /// Per-window maximum count of in-flight stores (SQ compaction
    /// index space).
    pub sq_max: Vec<u64>,
    /// Per-window maximum DTLB residency (the DTLB fills bottom-up;
    /// entries at or past `resident()` are vacant).
    pub dtlb_max: Vec<u64>,
    /// Per-window AND-folded register-deadness bitmaps
    /// (`ceil(phys_regs / 64)` words per window): bit `p` set means
    /// physical register `p` was free or held a superseded definition
    /// on *every* cycle of the window — exactly the two conditions
    /// `flip_regfile` masks on.
    pub rf_dead: Vec<Vec<u64>>,
}

impl PruneEvidence {
    fn new(window: u64) -> PruneEvidence {
        assert!(window > 0, "evidence window must be positive");
        PruneEvidence {
            window,
            cycles: 1,
            rob_max: Vec::new(),
            iq_max: Vec::new(),
            lq_max: Vec::new(),
            sq_max: Vec::new(),
            dtlb_max: Vec::new(),
            rf_dead: Vec::new(),
        }
    }

    /// Number of evidence windows covering the sampled cycle space.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.rob_max.len()
    }

    /// Folds the state `pipe` holds after a tick into the window of its
    /// cycle. `live` is scratch for the register live mask.
    fn sample(&mut self, pipe: &Pipeline<'_>, live: &mut [u64]) {
        let c = pipe.cycle;
        let w = ((c - 1) / self.window) as usize;
        if w == self.rob_max.len() {
            self.rob_max.push(0);
            self.iq_max.push(0);
            self.lq_max.push(0);
            self.sq_max.push(0);
            self.dtlb_max.push(0);
            self.rf_dead.push(vec![u64::MAX; live.len()]);
        }
        debug_assert_eq!(
            (pipe.iq.len(), pipe.lq_count, pipe.sq_count),
            pipe.queue_counts_by_walk(),
            "queue counters drifted from the ROB at cycle {c}"
        );
        self.rob_max[w] = self.rob_max[w].max(pipe.rob.len() as u64);
        self.iq_max[w] = self.iq_max[w].max(pipe.iq.len() as u64);
        self.lq_max[w] = self.lq_max[w].max(pipe.lq_count as u64);
        self.sq_max[w] = self.sq_max[w].max(pipe.sq_count as u64);
        self.dtlb_max[w] = self.dtlb_max[w].max(pipe.dtlb.resident() as u64);
        pipe.rf.live_mask(live);
        for (dead, live) in self.rf_dead[w].iter_mut().zip(live.iter()) {
            *dead &= !live;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avf_isa::{Opcode, ProgramBuilder, Reg};

    fn counted_loop() -> Program {
        let r1 = Reg::of(1);
        let r2 = Reg::of(2);
        let rb = Reg::of(3);
        let mut b = ProgramBuilder::new("inject-test");
        b.addi(r1, Reg::ZERO, 64);
        b.load_addr(rb, avf_isa::DATA_BASE);
        let top = b.here();
        b.alu_ri(Opcode::Add, r2, r2, 3);
        b.stq(r2, rb, 0);
        b.subi(r1, r1, 1);
        b.bne(r1, top);
        b.halt();
        b.build().expect("valid program")
    }

    #[test]
    fn golden_run_is_deterministic() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let a = golden_run(&cfg, &p, 10_000);
        let b = golden_run(&cfg, &p, 10_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn snapshot_restore_replays_identically() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let golden = golden_run(&cfg, &p, 10_000);
        let mut sim = InjectionSim::new(&cfg, &p, 10_000);
        assert!(sim.run_to_cycle(golden.cycles / 2));
        let snap = sim.snapshot();
        let end_a = sim.run_to_end();
        let digest_a = sim.memory_digest();
        sim.restore(&snap);
        let end_b = sim.run_to_end();
        let digest_b = sim.memory_digest();
        assert_eq!(end_a, end_b);
        assert_eq!(digest_a, digest_b);
        assert_eq!(digest_a, golden.digest, "fault-free replay matches golden");
    }

    #[test]
    fn flip_in_live_register_changes_output() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let golden = golden_run(&cfg, &p, 10_000);
        let mut sim = InjectionSim::new(&cfg, &p, 10_000);
        assert!(sim.run_to_cycle(golden.cycles / 2));
        // r2 is the accumulator; its newest definition sits in the preg
        // the speculative map points at.
        let mut flipped = false;
        for preg in 0..cfg.phys_regs as u64 {
            let snap = sim.snapshot();
            if sim.flip_bit(InjectionTarget::RegFile, preg, 0) == FlipEffect::Armed {
                flipped = true;
                let end = sim.run_to_end();
                if end == RunEnd::Completed && sim.memory_digest() != golden.digest {
                    return; // observed an SDC — the seam works
                }
            }
            sim.restore(&snap);
        }
        assert!(flipped, "no register flip armed at mid-run");
        panic!("no register flip produced an SDC in a live accumulator loop");
    }

    #[test]
    fn snapshot_restores_onto_a_fresh_instance() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let golden = golden_run(&cfg, &p, 10_000);
        let mut sim = InjectionSim::new(&cfg, &p, 10_000);
        assert!(sim.run_to_cycle(golden.cycles / 2));
        let snap = sim.snapshot();
        let end_a = sim.run_to_end();
        let digest_a = sim.memory_digest();
        let cycles_a = sim.cycle();
        // Restore onto a *fresh* instance: the snapshot is self-contained.
        let mut other = InjectionSim::new(&cfg, &p, 10_000);
        other.restore(&snap);
        assert_eq!(other.cycle(), golden.cycles / 2);
        let end_b = other.run_to_end();
        assert_eq!(end_a, end_b);
        assert_eq!(digest_a, other.memory_digest());
        assert_eq!(cycles_a, other.cycle(), "timing replays identically");
        assert_eq!(digest_a, golden.digest);
    }

    #[test]
    fn from_snapshot_equals_new_then_restore() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let (golden, checkpoints) = golden_run_checkpointed(&cfg, &p, 10_000, 40);
        let (at, snap) = checkpoints.nearest(golden.cycles / 2).expect("floor");
        let mut restored = InjectionSim::new(&cfg, &p, 10_000);
        restored.restore(snap);
        let mut resumed = InjectionSim::from_snapshot(&cfg, &p, 10_000, snap);
        assert_eq!(resumed.cycle(), at);
        assert!(resumed.matches_snapshot(&restored.snapshot()));
        assert_eq!(resumed.run_to_end(), restored.run_to_end());
        assert_eq!(resumed.cycle(), restored.cycle());
        assert!(resumed.memory() == checkpoints.final_memory());
    }

    #[test]
    fn a_fault_free_run_matches_every_later_checkpoint() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let (_, checkpoints) = golden_run_checkpointed(&cfg, &p, 10_000, 40);
        let mut sim = InjectionSim::new(&cfg, &p, 10_000);
        assert_eq!(sim.restore_nearest(&checkpoints, 45), Some(40));
        let mut matched = 0;
        for (cycle, snap) in checkpoints.after(40) {
            assert!(cycle > 40, "after() is strictly later");
            assert!(sim.run_to_cycle(cycle));
            assert!(sim.matches_snapshot(snap), "diverged at cycle {cycle}");
            matched += 1;
        }
        assert_eq!(matched, checkpoints.len() - 2, "all but cycles 0 and 40");
        assert_eq!(sim.run_to_end(), RunEnd::Completed);
        assert!(sim.memory() == checkpoints.final_memory());
    }

    #[test]
    fn snapshot_matching_skips_counters_only() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let golden = golden_run(&cfg, &p, 10_000);
        let mut sim = InjectionSim::new(&cfg, &p, 10_000);
        assert!(sim.run_to_cycle(golden.cycles / 2));
        let snap = sim.snapshot();
        // Pure counters never feed back into behavior.
        sim.pipe.stats.cycles += 1;
        sim.pipe.stats.dl1_misses += 1;
        sim.pipe.dl1.accesses += 1;
        sim.pipe.l2.misses += 1;
        sim.pipe.dtlb.accesses += 1;
        assert!(sim.matches_snapshot(&snap));
        // Anything the future depends on breaks the match.
        let edits: [fn(&mut Pipeline<'_>); 5] = [
            |p| p.stats.committed += 1,
            |p| p.oracle.regs[2] ^= 1,
            |p| p.oracle_mem.write_u8(avf_isa::DATA_BASE + 8, 0xAA),
            |p| {
                p.dtlb.poison_entry(0);
            },
            |p| p.trapped = true,
        ];
        for (i, edit) in edits.iter().enumerate() {
            sim.restore(&snap);
            edit(&mut sim.pipe);
            assert!(!sim.matches_snapshot(&snap), "edit {i} went unnoticed");
        }
    }

    #[test]
    fn an_in_flight_value_difference_is_passive_and_dead() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let (_, checkpoints) = golden_run_checkpointed(&cfg, &p, 10_000, 40);
        // A checkpoint with a right-path micro-op in flight.
        let (snap, idx) = checkpoints
            .checkpoints
            .iter()
            .skip(1)
            .find_map(|(_, snap)| {
                let sim = InjectionSim::from_snapshot(&cfg, &p, 10_000, snap);
                let idx = sim.pipe.rob.iter().position(|e| e.outcome.is_some())?;
                Some((snap, idx))
            })
            .expect("some checkpoint has a micro-op in flight");
        let edits: [fn(&mut crate::dyninst::DynInst); 2] = [
            |e| e.outcome.as_mut().expect("right path").value ^= 1,
            |e| e.src_vals[0] ^= 1,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut sim = InjectionSim::from_snapshot(&cfg, &p, 10_000, snap);
            edit(&mut sim.pipe.rob[idx]);
            assert!(!sim.matches_snapshot(snap), "edit {i} went unnoticed");
            assert_eq!(
                sim.judge(&checkpoints, snap),
                Judgement::Decided(Verdict::Masked),
                "edit {i}"
            );
        }
    }

    #[test]
    fn a_page_written_back_to_zeroes_still_matches() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let golden = golden_run(&cfg, &p, 10_000);
        let mut sim = InjectionSim::new(&cfg, &p, 10_000);
        assert!(sim.run_to_cycle(golden.cycles / 2));
        let snap = sim.snapshot();
        // A page the golden run never touched, written and then zeroed:
        // it reads exactly as the missing page does, so the trial has
        // rejoined the golden run even though the page is resident.
        let fresh = 0x7000_0000;
        sim.pipe.oracle_mem.write_u64(fresh, 0xDEAD);
        assert!(!sim.matches_snapshot(&snap));
        sim.pipe.oracle_mem.write_u64(fresh, 0);
        assert!(sim.matches_snapshot(&snap));
    }

    #[test]
    fn restore_nearest_matches_full_prefix_replay() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let (golden, checkpoints) = golden_run_checkpointed(&cfg, &p, 10_000, 32);
        assert!(
            checkpoints.len() >= 2,
            "loop is long enough for checkpoints"
        );
        for target in [1, golden.cycles / 3, golden.cycles / 2, golden.cycles - 1] {
            // Full-prefix replay.
            let mut slow = InjectionSim::new(&cfg, &p, 10_000);
            assert!(slow.run_to_cycle(target));
            // Checkpoint restore + O(interval) catch-up.
            let mut fast = InjectionSim::new(&cfg, &p, 10_000);
            let at = fast
                .restore_nearest(&checkpoints, target)
                .expect("cycle-0 checkpoint");
            assert!(at <= target && target - at <= checkpoints.interval());
            assert!(fast.run_to_cycle(target));
            assert_eq!(slow.cycle(), fast.cycle());
            assert_eq!(slow.committed(), fast.committed());
            assert_eq!(slow.memory_digest(), fast.memory_digest());
            assert!(
                slow.matches_snapshot(&fast.snapshot()) && fast.matches_snapshot(&slow.snapshot()),
                "whole state at cycle {target}"
            );
            assert_eq!(slow.pipe.stats.cycles, fast.pipe.stats.cycles);
        }
    }

    #[test]
    fn checkpoint_store_nearest_picks_floor() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let (golden, checkpoints) = golden_run_checkpointed(&cfg, &p, 10_000, 50);
        let (c0, _) = checkpoints.nearest(0).expect("cycle-0 checkpoint");
        assert_eq!(c0, 0);
        let (c, _) = checkpoints.nearest(golden.cycles).expect("some checkpoint");
        assert!(c <= golden.cycles);
        let (c49, _) = checkpoints.nearest(49).expect("floor of 49");
        assert_eq!(c49, 0, "no checkpoint strictly between 0 and 50");
        // `decode_all` hands out the same snapshots, not copies.
        let shared = checkpoints.decode_all(&cfg, &p).expect("infallible");
        assert_eq!(shared.len(), checkpoints.len());
        assert!(std::ptr::eq(
            shared.nearest(60).expect("floor").1,
            checkpoints.nearest(60).expect("floor").1
        ));
    }

    #[test]
    fn checkpoint_footprint_grows_by_the_dirtied_pages() {
        // 32 pages of data, two of which the loop stores into on every
        // iteration: each checkpoint after the first pins exactly those
        // two pages anew and shares the other thirty.
        const DATA_PAGES: usize = 32;
        const DIRTIED: usize = 2;
        let (r1, r2, rb) = (Reg::of(1), Reg::of(2), Reg::of(3));
        let mut data = avf_isa::DataSegment::zeroed(DATA_PAGES * PAGE_BYTES);
        for page in 0..DATA_PAGES {
            data.put_u64(page * PAGE_BYTES, page as u64 + 1);
        }
        let mut b = ProgramBuilder::new("page-dirtier").with_data(data);
        b.addi(r1, Reg::ZERO, 30_000);
        b.load_addr(rb, avf_isa::DATA_BASE);
        let top = b.here();
        b.addi(r2, r2, 1);
        b.stq(r2, rb, 8);
        b.stq(r2, rb, PAGE_BYTES as i32 + 8);
        b.subi(r1, r1, 1);
        b.bne(r1, top);
        b.halt();
        let p = b.build().expect("valid program");
        let cfg = MachineConfig::baseline();
        let (_, checkpoints) = golden_run_checkpointed(&cfg, &p, 6_000, 200);
        let n = checkpoints.len();
        assert!(n >= 4, "{n} checkpoints");
        let blocks: HashMap<usize, usize> = checkpoints
            .checkpoints
            .iter()
            .flat_map(|(_, s)| s.cache_blocks())
            .collect();
        let state: usize = checkpoints
            .checkpoints
            .iter()
            .map(|(_, s)| s.state_bytes())
            .sum::<usize>()
            + blocks.values().sum::<usize>()
            + checkpoints.future().bytes();
        let total = checkpoints.total_bytes();
        assert_eq!((total - state) % PAGE_BYTES, 0);
        let pages = (total - state) / PAGE_BYTES;
        // The final image adds the two pages again if the loop stored
        // after the last checkpoint.
        let grown = pages - DATA_PAGES - DIRTIED * (n - 1);
        assert!(
            grown == 0 || grown == DIRTIED,
            "{pages} pages over {n} checkpoints"
        );
        assert!(pages < n * DATA_PAGES / 4, "not one image per checkpoint");
    }

    #[test]
    fn injection_target_wire_codes_round_trip() {
        for t in InjectionTarget::ALL {
            assert_eq!(InjectionTarget::from_wire_code(t.wire_code()), Some(t));
        }
        assert_eq!(InjectionTarget::from_wire_code(200), None);
    }

    #[test]
    fn vacant_entries_mask() {
        let cfg = MachineConfig::baseline();
        let p = counted_loop();
        let mut sim = InjectionSim::new(&cfg, &p, 10_000);
        // Cycle 0: nothing is in flight yet.
        assert_eq!(
            sim.flip_bit(InjectionTarget::Rob, 50, 3),
            FlipEffect::Masked(MaskReason::Vacant)
        );
        assert_eq!(
            sim.flip_bit(InjectionTarget::Dtlb, 200, 3),
            FlipEffect::Masked(MaskReason::Vacant)
        );
    }
}
