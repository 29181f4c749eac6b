//! The cycle loop: fetch → rename/dispatch → issue → execute → commit, with
//! oracle-driven wrong-path modeling and ACE event emission.
//!
//! Instructions are functionally executed by an architectural oracle at
//! fetch (SimpleScalar-style), so branch outcomes and effective addresses
//! are known up front; the pipeline models timing. Because the oracle walks
//! the committed path, every fetched instruction is known to be right- or
//! wrong-path immediately, wrong-path work occupies resources until the
//! mispredicted branch resolves, and only committed instructions reach the
//! ACE analyzer.

use std::collections::VecDeque;

use avf_ace::{AceKind, AvfAnalyzer, InstrRecord, MemRef, Slice, Structure, StructureSizes};
use avf_isa::{text_addr, ExecState, Memory, OpClass, Opcode, Program};

use crate::bpred::BranchPredictor;
use crate::cache_faults::CacheFaults;
use crate::caches::Cache;
use crate::config::MachineConfig;
use crate::dtlb::Dtlb;
use crate::dyninst::{DynInst, Stage};
use crate::future::{FutureRecorder, LineOp, Passive};
use crate::regfile::PhysRegFile;
use crate::stats::SimStats;

/// Outcome of a simulation: the AVF report and timing statistics.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-structure AVF (convert to SER with
    /// [`avf_ace::AvfReport::ser`]).
    pub report: avf_ace::AvfReport,
    /// Timing statistics.
    pub stats: SimStats,
}

/// How a [`Pipeline::replay_forward`] walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayEnd {
    /// The corrupted dataflow was replayed through the in-flight window
    /// and folded into the oracle frontier; the run decides the outcome.
    Applied,
    /// A re-executed branch changed direction: the machine's fetched
    /// history no longer matches the corrupted dataflow.
    ControlDiverged {
        /// Sequence number of the diverging branch.
        #[allow(dead_code)]
        at_seq: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Recovery {
    resume_cycle: u64,
    pc: u32,
}

pub(crate) struct Pipeline<'a> {
    pub(crate) cfg: &'a MachineConfig,
    pub(crate) program: &'a Program,
    pub(crate) sizes: StructureSizes,
    pub(crate) oracle: ExecState,
    pub(crate) oracle_mem: Memory,
    /// `None` in fault-injection runs: injection needs cheap snapshots
    /// and thousands of re-executions, not ACE bookkeeping.
    pub(crate) analyzer: Option<AvfAnalyzer>,
    /// Fault-injection mode: modeling anomalies (deadlock, oracle
    /// faults, poisoned TLB hits) become a recorded trap instead of a
    /// panic, and fetch stops at the instruction budget so the
    /// architectural memory state is timing-independent.
    pub(crate) fault_mode: bool,
    /// An injected fault was detected (DUE): wrong translation consumed,
    /// corrupted control state, pipeline hang.
    pub(crate) trapped: bool,
    /// Oracle executions after which fetch stops (fault mode only).
    pub(crate) fetch_budget: u64,
    pub(crate) bpred: BranchPredictor,
    pub(crate) l1i: Cache,
    pub(crate) dl1: Cache,
    pub(crate) l2: Cache,
    pub(crate) dtlb: Dtlb,
    pub(crate) rf: PhysRegFile,
    pub(crate) fetch_queue: VecDeque<DynInst>,
    pub(crate) rob: VecDeque<DynInst>,
    pub(crate) lq_count: usize,
    pub(crate) sq_count: usize,
    pub(crate) cycle: u64,
    pub(crate) seq: u64,
    pub(crate) fetch_pc: u32,
    pub(crate) fetch_stalled_until: u64,
    pub(crate) last_fetch_line: Option<u64>,
    pub(crate) wrong_path_mode: bool,
    pub(crate) recovery: Option<Recovery>,
    pub(crate) fetch_done: bool,
    pub(crate) halted: bool,
    pub(crate) last_commit_cycle: u64,
    /// Injected cache faults still resident in their line (fault mode).
    pub(crate) cache_faults: CacheFaults,
    pub(crate) stats: SimStats,
    /// Event gate of the writeback stage: no `Executing` entry completes
    /// before this cycle. Derived state (see [`Pipeline::restore`]).
    next_complete: u64,
    /// Event gate of the issue stage: `false` once a select issued
    /// nothing and no wakeup has happened since. Derived state.
    issue_armed: bool,
    /// The issue queue: absolute ROB positions (`rob_base + index`) of
    /// the `InIq` entries, oldest first, so the select never walks the
    /// entries that have left it. Derived state, rebuilt from the ROB on
    /// restore.
    pub(crate) iq: Vec<u64>,
    /// Absolute ROB position of `rob.front()`: the number of entries
    /// committed since the last restore.
    rob_base: u64,
    /// Set on a golden pass only: records the oracle's executions and
    /// the DTLB's events. Observation, not machine state: snapshots do
    /// not capture it and nothing the machine does reads it.
    pub(crate) recorder: Option<Box<FutureRecorder>>,
}

impl<'a> Pipeline<'a> {
    pub(crate) fn new(cfg: &'a MachineConfig, program: &'a Program) -> Pipeline<'a> {
        let mut oracle_mem = Memory::new();
        let oracle = ExecState::new(program, &mut oracle_mem);
        Pipeline::new_inner(cfg, program, true, oracle, oracle_mem)
    }

    /// Builds a pipeline for fault-injection runs: no ACE analyzer, a
    /// fetch budget of `fetch_budget` oracle executions, and graceful
    /// trap handling instead of panics.
    pub(crate) fn new_faulty(
        cfg: &'a MachineConfig,
        program: &'a Program,
        fetch_budget: u64,
    ) -> Pipeline<'a> {
        let mut oracle_mem = Memory::new();
        let oracle = ExecState::new(program, &mut oracle_mem);
        let mut p = Pipeline::new_inner(cfg, program, false, oracle, oracle_mem);
        p.fault_mode = true;
        p.fetch_budget = fetch_budget;
        p
    }

    /// [`Pipeline::new_faulty`] resumed at `snap`. The program's data
    /// segment is never loaded: the snapshot's memory image, shared
    /// copy-on-write, replaces it.
    pub(crate) fn new_faulty_at(
        cfg: &'a MachineConfig,
        program: &'a Program,
        fetch_budget: u64,
        snap: &PipelineSnapshot,
    ) -> Pipeline<'a> {
        let mut p = Pipeline::new_inner(
            cfg,
            program,
            false,
            snap.oracle.clone(),
            snap.oracle_mem.clone(),
        );
        p.fault_mode = true;
        p.fetch_budget = fetch_budget;
        p.restore(snap);
        p
    }

    fn new_inner(
        cfg: &'a MachineConfig,
        program: &'a Program,
        analyze: bool,
        oracle: ExecState,
        oracle_mem: Memory,
    ) -> Pipeline<'a> {
        let sizes = cfg.structure_sizes();
        let analyzer = analyze.then(|| AvfAnalyzer::new(program.name(), sizes.clone()));
        Pipeline {
            cfg,
            program,
            sizes,
            fetch_pc: oracle.pc,
            oracle,
            oracle_mem,
            analyzer,
            fault_mode: false,
            trapped: false,
            fetch_budget: u64::MAX,
            bpred: BranchPredictor::new(cfg.bpred.clone()),
            l1i: Cache::new(&cfg.l1i),
            dl1: Cache::new(&cfg.dl1),
            l2: Cache::new(&cfg.l2),
            dtlb: Dtlb::new(cfg.dtlb_entries, cfg.page_bytes),
            rf: PhysRegFile::new(cfg.phys_regs, 64),
            fetch_queue: VecDeque::with_capacity(cfg.fetch_queue),
            rob: VecDeque::with_capacity(cfg.rob_entries),
            lq_count: 0,
            sq_count: 0,
            cycle: 0,
            seq: 0,
            fetch_stalled_until: 0,
            last_fetch_line: None,
            wrong_path_mode: false,
            recovery: None,
            fetch_done: false,
            halted: false,
            last_commit_cycle: 0,
            cache_faults: CacheFaults::default(),
            stats: SimStats::default(),
            next_complete: 0,
            issue_armed: true,
            iq: Vec::with_capacity(cfg.iq_entries),
            rob_base: 0,
            recorder: None,
        }
    }

    /// Records an event that can touch an injected cache fault on a
    /// golden pass, stamped with the current cycle.
    fn record_line(&mut self, addr: u64, op: LineOp) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.line_event(self.cycle, addr, op);
        }
    }

    /// A line left the DL1 (`dl1`) or the L2: settles any injected fault
    /// in it ([`CacheFaults::evict`]). A fault a dirty L2 eviction
    /// writes back becomes architectural.
    fn evict_line(&mut self, dl1: bool, victim_base: u64, dirty: bool) {
        self.record_line(victim_base, LineOp::Evict { dl1, dirty });
        if self.cache_faults.is_empty() {
            return;
        }
        let mem = &mut self.oracle_mem;
        self.cache_faults
            .evict(dl1, victim_base, dirty, |addr, mask| {
                let byte = mem.read_u8(addr);
                mem.write_u8(addr, byte ^ mask);
            });
    }

    /// Corrupts the in-flight instruction's destination value through
    /// the rename map, provided that value is still the newest
    /// definition of its architectural register (otherwise the fault is
    /// masked by overwrite).
    pub(crate) fn corrupt_dest_value(&mut self, idx: usize, xor: u64) -> bool {
        let e = &self.rob[idx];
        let (Some(dest), Some(preg)) = (e.inst.dest_reg(), e.dest_preg) else {
            return false;
        };
        if self.rf.rename_src(dest.number()) != preg {
            return false;
        }
        self.oracle.regs[dest.index()] ^= xor;
        true
    }

    /// The value a physical register holds, as the replay oracle sees
    /// it: the fetch-time result of its in-flight definition, or — for a
    /// committed definition that is still the newest mapping of its
    /// architected register — the frontier architectural value. A
    /// register holding no reachable definition (free, superseded, or a
    /// never-executed wrong-path def) reads its stale content, modeled
    /// deterministically as zero (cold-file stale-value model).
    pub(crate) fn preg_value(&self, preg: u32) -> u64 {
        if let Some(e) = self.rob.iter().find(|e| e.dest_preg == Some(preg)) {
            return e.outcome.map_or(0, |o| o.value);
        }
        match self.rf.arch_of_newest(preg) {
            Some(arch) => self.oracle.regs[usize::from(arch)],
            None => 0,
        }
    }

    /// Replays the in-flight dependence cone of a corrupted definition.
    ///
    /// `delta` maps architected registers to corrupted values as of
    /// program-order position `after_seq`. The walk visits every
    /// younger right-path in-flight instruction (ROB then fetch queue —
    /// together the whole window, in ascending sequence order):
    ///
    /// * an instruction that has **not yet read its operands** (still in
    ///   the IQ, or fetched but not dispatched) and sources a corrupted
    ///   register is re-executed from its recorded fetch-time operands
    ///   with the corrupted ones patched in ([`avf_isa::replay_eval`]),
    ///   its outcome updated in place, and its own result added to (or
    ///   removed from) the delta;
    /// * an instruction that already issued read its operands before the
    ///   flip landed, so its (clean) definition re-establishes the
    ///   architectural value and kills the delta for its register;
    /// * a re-executed branch whose direction changes diverges from the
    ///   already-fetched path — the walk stops and reports it (the
    ///   caller records a detected error: this simplified oracle cannot
    ///   re-steer fetch history).
    ///
    /// Whatever survives the window is the register image future fetches
    /// execute against, so it is folded into the oracle frontier.
    ///
    /// Two documented approximations: a re-executed store's *original*
    /// (clean) write is not un-written, matching the store-tag fault
    /// model; and a re-executed load reads frontier memory, which may
    /// already include younger in-flight stores.
    pub(crate) fn replay_forward(
        &mut self,
        after_seq: u64,
        mut delta: Vec<(u8, u64)>,
    ) -> ReplayEnd {
        let rob_len = self.rob.len();
        let total = rob_len + self.fetch_queue.len();
        for i in 0..total {
            if delta.is_empty() {
                break;
            }
            let (inst, pc, seq, skip, not_yet_read, src_vals, out) = {
                let d = if i < rob_len {
                    &self.rob[i]
                } else {
                    &self.fetch_queue[i - rob_len]
                };
                (
                    d.inst,
                    d.pc,
                    d.seq,
                    d.seq <= after_seq || d.wrong_path || d.outcome.is_none(),
                    d.stage == Stage::InIq || i >= rob_len,
                    d.src_vals,
                    d.outcome,
                )
            };
            if skip {
                continue;
            }
            let out = out.expect("skip covers missing outcomes");
            let srcs = inst.src_regs();
            let patched = |slot: usize| -> Option<u64> {
                let r = srcs[slot]?;
                delta
                    .iter()
                    .find(|&&(dr, _)| dr == r.number())
                    .map(|&(_, v)| v)
            };
            let corrupt = [patched(0), patched(1)];
            if not_yet_read && (corrupt[0].is_some() || corrupt[1].is_some()) {
                let s1 = corrupt[0].unwrap_or(src_vals[0]);
                let s2 = corrupt[1].unwrap_or(src_vals[1]);
                let new_out = avf_isa::replay_eval(&inst, pc, s1, s2, &self.oracle_mem);
                if inst.op.is_branch() && new_out.taken != out.taken {
                    return ReplayEnd::ControlDiverged { at_seq: seq };
                }
                if inst.op.is_store() {
                    // The corrupted store data/address reaches memory;
                    // the original write stays (documented above).
                    let ea = new_out.ea.expect("store has an effective address");
                    match new_out.size.expect("store has a size") {
                        avf_isa::AccessSize::Word => {
                            self.oracle_mem.write_u32(ea, new_out.value as u32);
                        }
                        avf_isa::AccessSize::Quad => self.oracle_mem.write_u64(ea, new_out.value),
                    }
                }
                if let Some(dest) = inst.dest_reg() {
                    delta.retain(|&(r, _)| r != dest.number());
                    if new_out.value != out.value {
                        delta.push((dest.number(), new_out.value));
                    }
                }
                let d = if i < rob_len {
                    &mut self.rob[i]
                } else {
                    &mut self.fetch_queue[i - rob_len]
                };
                d.outcome = Some(new_out);
            } else if let Some(dest) = inst.dest_reg() {
                // Clean inputs (or operands read before the flip): this
                // definition re-establishes the architectural value.
                delta.retain(|&(r, _)| r != dest.number());
            }
        }
        for (r, v) in delta {
            self.oracle.regs[usize::from(r)] = v;
        }
        ReplayEnd::Applied
    }

    /// IQ, LQ and SQ occupancy counted by walking the ROB: what
    /// `iq.len()`, `lq_count` and `sq_count` must always equal.
    pub(crate) fn queue_counts_by_walk(&self) -> (usize, usize, usize) {
        let (mut iq, mut lq, mut sq) = (0, 0, 0);
        for e in &self.rob {
            iq += usize::from(e.stage == Stage::InIq);
            match e.inst.op.class() {
                OpClass::Load => lq += 1,
                OpClass::Store => sq += 1,
                _ => {}
            }
        }
        (iq, lq, sq)
    }

    /// Whether the run is over: clean halt, commit budget reached, or a
    /// trap in fault mode.
    pub(crate) fn done(&self, max_instructions: u64) -> bool {
        self.halted || self.trapped || self.stats.committed >= max_instructions
    }

    /// Advances the machine by exactly one cycle.
    ///
    /// The loop is event-gated: writeback returns at once before the
    /// earliest pending completion (`next_complete`), and issue skips
    /// its select while `issue_armed` is clear, i.e. after a select that
    /// issued nothing and before any wakeup (a writeback `set_ready`, a
    /// dispatch, a squash or a restore). Issuing nothing means no IQ
    /// entry had all its sources ready (every function unit was free),
    /// and only a wakeup changes readiness or the IQ's contents, so a
    /// skipped stage is one that would have changed nothing. Flips never
    /// write an entry's stage, completion cycle or a register's ready
    /// bit, so they cannot invalidate either gate.
    ///
    /// # Panics
    ///
    /// Panics on a modeling deadlock outside fault mode (in fault mode a
    /// deadlock is an injected-fault symptom and sets the trap flag).
    pub(crate) fn tick(&mut self, max_instructions: u64) {
        let committed_before = self.stats.committed;
        self.commit_stage(max_instructions);
        self.writeback_stage();
        self.issue_stage();
        self.dispatch_stage();
        self.fetch_stage();
        if self.stats.committed > committed_before {
            self.last_commit_cycle = self.cycle;
        }
        let stall_limit = 64 * u64::from(self.cfg.mem_latency) + 100_000;
        if self.cycle - self.last_commit_cycle >= stall_limit {
            if self.fault_mode {
                self.trapped = true;
            } else {
                panic!(
                    "pipeline deadlock at cycle {} (pc {}, rob {}, iq {})",
                    self.cycle,
                    self.fetch_pc,
                    self.rob.len(),
                    self.iq.len()
                );
            }
        }
        // Occupancy means only feed the ACE/occupancy reports of an
        // analyzer run; injection trials never read them, so fault-mode
        // pipelines skip the four per-cycle sums (a measurable win at
        // campaign trial counts — the sums sit on the only per-cycle
        // unconditional path besides the stage walk itself).
        if !self.fault_mode {
            self.stats.rob_occ_sum += self.rob.len() as u64;
            self.stats.iq_occ_sum += self.iq.len() as u64;
            self.stats.lq_occ_sum += self.lq_count as u64;
            self.stats.sq_occ_sum += self.sq_count as u64;
        }
        self.cycle += 1;
    }

    /// Generous cycle safety net for a `max_instructions` run: every
    /// committed instruction needs far fewer cycles than a full memory
    /// round trip.
    pub(crate) fn default_cycle_limit(&self, max_instructions: u64) -> u64 {
        max_instructions
            .saturating_mul(4 * u64::from(self.cfg.mem_latency))
            .saturating_add(100_000)
    }

    pub(crate) fn run(mut self, max_instructions: u64) -> SimResult {
        let max_cycles = self.default_cycle_limit(max_instructions);
        while !self.done(max_instructions) && self.cycle < max_cycles {
            self.tick(max_instructions);
        }
        self.stats.cycles = self.cycle.max(1);
        let recs = self.rf.drain_lifetimes();
        // Fault-mode pipelines (analyzer = None) end through the
        // injection engine's classification path, never through run():
        // a fabricated empty analyzer here would silently report ~0 AVF.
        let mut analyzer = self
            .analyzer
            .take()
            .expect("run() requires the ACE analyzer; fault-mode runs use InjectionSim");
        for rec in recs {
            analyzer.preg_freed(rec);
        }
        let report = analyzer.finish(self.stats.cycles);
        SimResult {
            report,
            stats: self.stats,
        }
    }

    // ---- commit ---------------------------------------------------------

    fn commit_stage(&mut self, max_instructions: u64) {
        let mut committed = 0;
        while committed < self.cfg.commit_width
            && self.stats.committed < max_instructions
            && self.rob.front().is_some_and(|e| e.is_complete(self.cycle))
        {
            let entry = self.rob.pop_front().expect("checked non-empty");
            self.rob_base += 1;
            debug_assert!(!entry.wrong_path, "wrong-path instruction reached commit");
            self.commit_one(entry);
            committed += 1;
            if self.halted {
                break;
            }
        }
    }

    fn commit_one(&mut self, e: DynInst) {
        let cycle = self.cycle;
        let op = e.inst.op;
        let kind = match op.class() {
            OpClass::Branch => AceKind::Branch,
            OpClass::Store => AceKind::Store,
            OpClass::Nop => AceKind::Nop,
            OpClass::Halt => AceKind::Halt,
            OpClass::IntShort | OpClass::IntLong | OpClass::Load => AceKind::Value,
        };

        let mut rec = InstrRecord::of_kind(kind);
        for (slot, src) in e.inst.src_regs().into_iter().enumerate() {
            rec.srcs[slot] = src.map(|r| r.number());
        }
        rec.dest = e.inst.dest_reg().map(|r| r.number());
        let mem = e.outcome.and_then(|o| {
            o.ea.map(|ea| MemRef {
                addr: ea,
                bytes: o.size.map_or(8, |s| s.bytes() as u8),
            })
        });
        rec.mem = mem;

        // Residency intervals (paper Section IV-A occupancy rules).
        let sizes = &self.sizes;
        let rob_bits = sizes.rob_entry_bits;
        let iq_bits = sizes.iq_entry_bits;
        let tag_bits = sizes.lsq_tag_bits;
        let data_bits = sizes.lsq_data_bits;
        let fu_bits = sizes.fu_stage_bits;
        rec.residency.push(Slice {
            structure: Structure::Rob,
            start: e.dispatch_cycle,
            end: cycle,
            bits: rob_bits,
        });
        rec.residency.push(Slice {
            structure: Structure::Iq,
            start: e.dispatch_cycle,
            end: e.issue_cycle,
            bits: iq_bits,
        });
        let op_data_bits = match op.access_size() {
            Some(s) => (s.bits() as u32).min(data_bits),
            None => data_bits,
        };
        match op.class() {
            OpClass::Load => {
                rec.residency.push(Slice {
                    structure: Structure::LqTag,
                    start: e.dispatch_cycle,
                    end: cycle,
                    bits: tag_bits,
                });
                // LQ data holds ACE bits only once the fill returns
                // (Section IV-A.1); a 4-byte load leaves half un-ACE.
                rec.residency.push(Slice {
                    structure: Structure::LqData,
                    start: e.data_return_cycle,
                    end: cycle,
                    bits: op_data_bits,
                });
            }
            OpClass::Store => {
                rec.residency.push(Slice {
                    structure: Structure::SqTag,
                    start: e.dispatch_cycle,
                    end: cycle,
                    bits: tag_bits,
                });
                rec.residency.push(Slice {
                    structure: Structure::SqData,
                    start: e.issue_cycle,
                    end: cycle,
                    bits: op_data_bits,
                });
            }
            OpClass::IntShort | OpClass::IntLong => {
                rec.residency.push(Slice {
                    structure: Structure::Fu,
                    start: e.issue_cycle,
                    end: e.complete_cycle,
                    bits: fu_bits,
                });
            }
            _ => {}
        }

        if let Some(az) = self.analyzer.as_mut() {
            let id = az.commit(rec);
            // Register-file read recording feeds the freed-lifetime
            // reports, so it is only needed when the analysis is on.
            for preg in e.src_pregs.into_iter().flatten() {
                self.rf.record_read(preg, id, e.issue_cycle);
            }
        }
        if let (Some(dest), Some(dest_preg), Some(prev)) = (rec_dest(&e), e.dest_preg, e.prev_preg)
        {
            let freed = self.rf.commit_def(dest, dest_preg, prev);
            if let Some(az) = self.analyzer.as_mut() {
                az.preg_freed(freed);
            }
        }

        // Commit-time (program-ordered) cache and TLB lifetime events.
        if let Some(m) = mem {
            if let Some(az) = self.analyzer.as_mut() {
                let vpn = self.dtlb.vpn(m.addr);
                az.dtlb_read(vpn, cycle);
                match op.class() {
                    OpClass::Load => {
                        az.dl1_read(m.addr, u64::from(m.bytes), cycle);
                    }
                    OpClass::Store => {
                        az.dl1_write(m.addr, u64::from(m.bytes), cycle);
                    }
                    _ => {}
                }
            }
            self.stats.committed_mem_ops += 1;
        }

        match op.class() {
            OpClass::Branch => {
                let taken = e.outcome.map(|o| o.taken).unwrap_or(false);
                self.bpred.update(e.pc, taken);
                self.stats.branches += 1;
                if e.mispredicted {
                    self.stats.mispredicts += 1;
                }
            }
            OpClass::Load => self.lq_count -= 1,
            OpClass::Store => self.sq_count -= 1,
            OpClass::Halt => self.halted = true,
            _ => {}
        }
        self.stats.committed += 1;
    }

    // ---- writeback ------------------------------------------------------

    fn writeback_stage(&mut self) {
        let cycle = self.cycle;
        if cycle < self.next_complete {
            return;
        }
        let mut next_complete = u64::MAX;
        let mut recover: Option<(u64, u32)> = None;
        for e in self.rob.iter_mut() {
            if e.stage != Stage::Executing {
                continue;
            }
            if e.complete_cycle > cycle {
                next_complete = next_complete.min(e.complete_cycle);
                continue;
            }
            e.stage = Stage::Complete;
            if let Some(preg) = e.dest_preg {
                self.rf.set_ready(preg, e.complete_cycle);
                self.issue_armed = true;
            }
            if e.mispredicted && !e.wrong_path {
                let target = e.outcome.expect("right-path branch has outcome").next_pc;
                recover = Some((e.seq, target));
            }
        }
        self.next_complete = next_complete;
        if let Some((branch_seq, target)) = recover {
            self.recover_from(branch_seq, target);
        }
    }

    fn recover_from(&mut self, branch_seq: u64, target: u32) {
        // Squash everything younger than the branch, youngest first.
        while self.rob.back().is_some_and(|e| e.seq > branch_seq) {
            let e = self.rob.pop_back().expect("checked non-empty");
            if e.stage == Stage::InIq {
                // The youngest entry left is the youngest IQ resident.
                let pos = self.iq.pop();
                debug_assert_eq!(pos, Some(self.rob_base + self.rob.len() as u64));
            }
            match e.inst.op.class() {
                OpClass::Load => self.lq_count -= 1,
                OpClass::Store => self.sq_count -= 1,
                _ => {}
            }
            if let Some(preg) = e.dest_preg {
                self.rf.squash_dest(preg);
            }
        }
        self.fetch_queue.clear();
        let survivors: Vec<(u8, u32)> = self
            .rob
            .iter()
            .filter_map(|e| match (e.inst.dest_reg(), e.dest_preg) {
                (Some(r), Some(p)) => Some((r.number(), p)),
                _ => None,
            })
            .collect();
        self.rf.rebuild_map(survivors.into_iter());
        self.issue_armed = true;
        self.wrong_path_mode = false;
        self.recovery = Some(Recovery {
            resume_cycle: self.cycle + u64::from(self.cfg.mispredict_penalty),
            pc: target,
        });
    }

    // ---- issue / execute -------------------------------------------------

    /// Selects up to `issue_width` ready IQ entries, oldest first, and
    /// issues each as it is selected. Issuing one entry never changes
    /// another's eligibility in the same cycle (readiness moves only at
    /// writeback), so this equals selecting all, then issuing all.
    fn issue_stage(&mut self) {
        if !self.issue_armed {
            return;
        }
        let mut issued = 0u32;
        let mut alus_free = self.cfg.n_alus;
        let mut muls_free = self.cfg.n_muls;
        let mut mem_free = self.cfg.mem_issue_width;
        let mut kept = 0;
        for k in 0..self.iq.len() {
            let pos = self.iq[k];
            let idx = (pos - self.rob_base) as usize;
            let selected = issued < self.cfg.issue_width && {
                let e = &self.rob[idx];
                let free = match e.inst.op.class() {
                    OpClass::IntShort | OpClass::Branch | OpClass::Nop | OpClass::Halt => {
                        &mut alus_free
                    }
                    OpClass::IntLong => &mut muls_free,
                    OpClass::Load | OpClass::Store => &mut mem_free,
                };
                let ok = *free > 0 && e.src_pregs.iter().flatten().all(|&p| self.rf.is_ready(p));
                if ok {
                    *free -= 1;
                }
                ok
            };
            if selected {
                self.issue_one(idx);
                issued += 1;
            } else {
                self.iq[kept] = pos;
                kept += 1;
            }
        }
        self.iq.truncate(kept);
        if issued == 0 {
            self.issue_armed = false;
        }
    }

    /// Moves IQ entry `idx` into execution at the current cycle.
    fn issue_one(&mut self, idx: usize) {
        let cycle = self.cycle;
        let (op, wrong_path, ea) = {
            let e = &self.rob[idx];
            (e.inst.op, e.wrong_path, e.outcome.and_then(|o| o.ea))
        };
        let (latency, data_return) = self.execute_latency(op, wrong_path, ea, cycle);
        if let (false, Some(ea), Some(size)) = (wrong_path, ea, op.access_size()) {
            // Injected cache faults interact with the access at its
            // timing-accurate issue point: a load consumes the
            // corrupted bytes it covers, a store repairs them.
            let (load, bytes) = (op.is_load(), size.bytes());
            self.record_line(
                ea,
                LineOp::Access {
                    load,
                    bytes: bytes as u8,
                },
            );
            if self.fault_mode && !self.cache_faults.is_empty() {
                if load {
                    let xor = self
                        .cache_faults
                        .consumed(self.dl1.line_base(ea), ea, bytes);
                    if xor != 0 {
                        self.corrupt_dest_value(idx, xor);
                    }
                } else {
                    self.cache_faults.repair(ea, bytes);
                }
            }
        }
        let e = &mut self.rob[idx];
        e.stage = Stage::Executing;
        e.issue_cycle = cycle;
        e.complete_cycle = cycle + u64::from(latency);
        e.data_return_cycle = data_return;
        self.next_complete = self.next_complete.min(e.complete_cycle);
    }

    /// Computes execution latency; for right-path memory ops this walks the
    /// cache hierarchy and emits fill/evict lifetime events.
    fn execute_latency(
        &mut self,
        op: Opcode,
        wrong_path: bool,
        ea: Option<u64>,
        cycle: u64,
    ) -> (u32, u64) {
        match op.class() {
            OpClass::IntShort | OpClass::Branch | OpClass::Nop | OpClass::Halt => {
                (self.cfg.alu_latency, 0)
            }
            OpClass::IntLong => (self.cfg.mul_latency, 0),
            OpClass::Load => {
                let lat = match (wrong_path, ea) {
                    (false, Some(ea)) => self.dmem_access(ea, false, cycle),
                    _ => self.cfg.dl1.latency,
                };
                (lat, cycle + u64::from(lat))
            }
            OpClass::Store => {
                if let (false, Some(ea)) = (wrong_path, ea) {
                    // Write-allocate fill happens off the critical path; the
                    // store itself completes out of the store buffer.
                    let _ = self.dmem_access(ea, true, cycle);
                }
                (1, 0)
            }
        }
    }

    /// Walks DTLB → DL1 → L2 → memory for the access at `ea`, updating the
    /// timing state, emitting fill/evict (and L2 read/write) lifetime
    /// events, and returning the total latency.
    fn dmem_access(&mut self, ea: u64, is_write: bool, cycle: u64) -> u32 {
        let mut lat = 0u32;
        let line_bytes = u64::from(self.cfg.dl1.line_bytes);

        let t = self.dtlb.translate(ea);
        if let Some(rec) = self.recorder.as_mut() {
            rec.translated(self.dtlb.tick(), self.dtlb.vpn(ea), t.hit, t.evicted);
        }
        if self.dtlb.poison_tripped() {
            // An injected DTLB tag fault was consumed: wrong translation.
            self.trapped = true;
        }
        if !t.hit {
            self.stats.dtlb_misses += 1;
            lat += self.cfg.dtlb_miss_penalty;
            if let Some(az) = self.analyzer.as_mut() {
                if let Some(vpn) = t.evicted {
                    az.dtlb_evict(vpn);
                }
                let vpn = self.dtlb.vpn(ea);
                az.dtlb_fill(vpn, cycle + u64::from(lat));
            }
        }

        lat += self.cfg.dl1.latency;
        self.stats.dl1_accesses += 1;
        let r = self.dl1.access(ea, is_write);
        if r.hit {
            return lat;
        }
        self.stats.dl1_misses += 1;
        let stamp = cycle + u64::from(lat);
        if let Some((victim, dirty)) = r.victim {
            self.evict_line(true, victim, dirty);
            if let Some(az) = self.analyzer.as_mut() {
                az.dl1_evict(victim, stamp);
            }
            if dirty {
                // Writeback-allocate into the L2.
                let wb = self.l2.access(victim, true);
                if let Some((v2, d2)) = wb.victim {
                    self.evict_line(false, v2, d2);
                }
                if let Some(az) = self.analyzer.as_mut() {
                    if !wb.hit {
                        if let Some((v2, _)) = wb.victim {
                            az.l2_evict(v2, stamp);
                        }
                        az.l2_fill(victim, stamp);
                    }
                    az.l2_write(victim, line_bytes, stamp);
                }
            }
        }

        self.stats.l2_accesses += 1;
        lat += self.cfg.l2.latency;
        let line = self.dl1.line_base(ea);
        let l2r = self.l2.access(line, false);
        if !l2r.hit {
            self.stats.l2_misses += 1;
            lat += self.cfg.mem_latency;
            let stamp = cycle + u64::from(lat);
            if let Some((v2, d2)) = l2r.victim {
                self.evict_line(false, v2, d2);
            }
            if let Some(az) = self.analyzer.as_mut() {
                if let Some((v2, _)) = l2r.victim {
                    az.l2_evict(v2, stamp);
                }
                az.l2_fill(line, stamp);
            }
        }
        let stamp = cycle + u64::from(lat);
        if let Some(az) = self.analyzer.as_mut() {
            // The DL1 fill reads the whole line out of the L2.
            az.l2_read(line, line_bytes, stamp);
            az.dl1_fill(line, stamp);
        }
        // The DL1 fill reads the line out of the L2, faults included.
        self.record_line(line, LineOp::Fill);
        if self.fault_mode && !self.cache_faults.is_empty() {
            self.cache_faults.fill(line);
        }
        lat
    }

    // ---- dispatch (rename) ------------------------------------------------

    fn dispatch_stage(&mut self) {
        for _ in 0..self.cfg.dispatch_width {
            let Some(front) = self.fetch_queue.front() else {
                break;
            };
            if self.rob.len() >= self.cfg.rob_entries || self.iq.len() >= self.cfg.iq_entries {
                break;
            }
            let class = front.inst.op.class();
            match class {
                OpClass::Load if self.lq_count >= self.cfg.lq_entries => break,
                OpClass::Store if self.sq_count >= self.cfg.sq_entries => break,
                _ => {}
            }
            let needs_preg = front.inst.dest_reg().is_some();
            if needs_preg && self.rf.free_count() == 0 {
                break;
            }

            let mut e = self.fetch_queue.pop_front().expect("checked non-empty");
            for (slot, src) in e.inst.src_regs().into_iter().enumerate() {
                e.src_pregs[slot] = src.map(|r| self.rf.rename_src(r.number()));
            }
            if let Some(dest) = e.inst.dest_reg() {
                let (preg, prev) = self.rf.allocate(dest.number()).expect("free count checked");
                e.dest_preg = Some(preg);
                e.prev_preg = Some(prev);
            }
            e.dispatch_cycle = self.cycle;
            e.stage = Stage::InIq;
            self.iq.push(self.rob_base + self.rob.len() as u64);
            self.issue_armed = true;
            match class {
                OpClass::Load => self.lq_count += 1,
                OpClass::Store => self.sq_count += 1,
                _ => {}
            }
            self.rob.push_back(e);
        }
    }

    // ---- fetch -------------------------------------------------------------

    fn fetch_stage(&mut self) {
        if self.fetch_done && !self.wrong_path_mode && self.recovery.is_none() {
            return;
        }
        if let Some(r) = self.recovery {
            if self.cycle >= r.resume_cycle {
                self.fetch_pc = r.pc;
                self.recovery = None;
                self.fetch_done = false;
            } else {
                return;
            }
        }
        if self.cycle < self.fetch_stalled_until {
            return;
        }
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width && self.fetch_queue.len() < self.cfg.fetch_queue {
            let pc = self.fetch_pc;
            let Some(&inst) = self.program.fetch(pc) else {
                // Wrong-path fetch ran off the text: wait for recovery.
                break;
            };
            // I-cache check, once per line.
            let line = text_addr(pc) / u64::from(self.cfg.l1i.line_bytes);
            if self.last_fetch_line != Some(line) {
                let r = self.l1i.access(text_addr(pc), false);
                self.last_fetch_line = Some(line);
                if !r.hit {
                    self.stats.l1i_misses += 1;
                    let l2r = self.l2.access(text_addr(pc), false);
                    if let Some((v2, d2)) = l2r.victim {
                        // An I-side refill can evict a faulted data line.
                        self.evict_line(false, v2, d2);
                    }
                    let penalty =
                        self.cfg.l2.latency + if l2r.hit { 0 } else { self.cfg.mem_latency };
                    self.fetch_stalled_until = self.cycle + u64::from(penalty);
                    break;
                }
            }

            let mut e = DynInst::new(self.seq, pc, inst);
            self.seq += 1;
            let right_path = !self.wrong_path_mode;
            e.wrong_path = !right_path;

            if right_path {
                // Record the source values this instruction is about to
                // execute with: the replay oracle re-executes corrupted
                // micro-ops from exactly these.
                for (slot, src) in inst.src_regs().into_iter().enumerate() {
                    if let Some(r) = src {
                        e.src_vals[slot] = self.oracle.regs[r.index()];
                    }
                }
                if self.oracle.retired >= self.fetch_budget {
                    // Fault mode: stop the oracle exactly at the budget so
                    // the final architectural memory state does not depend
                    // on how far fetch happened to run ahead of commit.
                    self.fetch_done = true;
                    break;
                }
                debug_assert_eq!(pc, self.oracle.pc, "oracle and fetch desynchronized");
                let outcome = match self.oracle.exec(self.program, &mut self.oracle_mem) {
                    Ok(o) => o,
                    Err(err) => {
                        if self.fault_mode {
                            // An injected fault drove the PC out of the
                            // text segment: a detected error.
                            self.trapped = true;
                            self.fetch_done = true;
                            break;
                        }
                        panic!("oracle execution failed: {err}");
                    }
                };
                e.outcome = Some(outcome);
                if let Some(rec) = self.recorder.as_mut() {
                    rec.executed(self.oracle.retired - 1, &inst, &outcome);
                }
                if outcome.halted {
                    self.fetch_done = true;
                }
            } else {
                self.stats.wrong_path_fetched += 1;
            }

            let mut next_pc = pc + 1;
            if inst.op.is_branch() {
                let predicted = inst.op.is_unconditional() || self.bpred.predict(pc);
                e.predicted_taken = predicted;
                next_pc = if predicted { inst.target } else { pc + 1 };
                if right_path {
                    let actual = e.outcome.expect("right path").taken;
                    if predicted != actual {
                        e.mispredicted = true;
                        self.wrong_path_mode = true;
                    }
                }
            }
            let is_halt = inst.op == Opcode::Halt;
            let ends_group = e.predicted_taken;
            self.fetch_queue.push_back(e);
            fetched += 1;
            if is_halt {
                // Halt has no successor; wrong-path halts simply stall fetch
                // until the mispredicted branch recovers.
                break;
            }
            self.fetch_pc = next_pc;
            if ends_group {
                break;
            }
        }
    }
}

fn rec_dest(e: &DynInst) -> Option<u8> {
    e.inst.dest_reg().map(|r| r.number())
}

/// A resumable checkpoint of every piece of owned pipeline state.
///
/// Taken by `Pipeline::snapshot` and reinstated by
/// `Pipeline::restore`; the fault-injection engine uses it to fork a
/// run at the sampled injection cycle, flip one bit, run the faulty
/// future to completion, and rewind. Snapshots only exist for
/// fault-mode pipelines (no ACE analyzer state is captured). The memory
/// image shares its pages copy-on-write with the pipeline it was taken
/// from and with every snapshot taken before a page was written.
pub struct PipelineSnapshot {
    oracle: ExecState,
    oracle_mem: Memory,
    trapped: bool,
    bpred: BranchPredictor,
    l1i: Cache,
    dl1: Cache,
    l2: Cache,
    dtlb: Dtlb,
    rf: PhysRegFile,
    fetch_queue: VecDeque<DynInst>,
    rob: VecDeque<DynInst>,
    lq_count: usize,
    sq_count: usize,
    cycle: u64,
    seq: u64,
    fetch_pc: u32,
    fetch_stalled_until: u64,
    last_fetch_line: Option<u64>,
    wrong_path_mode: bool,
    recovery: Option<Recovery>,
    fetch_done: bool,
    halted: bool,
    last_commit_cycle: u64,
    cache_faults: CacheFaults,
    stats: SimStats,
}

impl Pipeline<'_> {
    /// Captures the complete owned machine state.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline carries an ACE analyzer (snapshots are a
    /// fault-injection facility; analyzer event streams are
    /// append-only and cannot be rewound).
    pub(crate) fn snapshot(&self) -> PipelineSnapshot {
        assert!(
            self.analyzer.is_none(),
            "snapshot requires a fault-mode pipeline (no ACE analyzer)"
        );
        PipelineSnapshot {
            oracle: self.oracle.clone(),
            oracle_mem: self.oracle_mem.clone(),
            trapped: self.trapped,
            bpred: self.bpred.clone(),
            l1i: self.l1i.clone(),
            dl1: self.dl1.clone(),
            l2: self.l2.clone(),
            dtlb: self.dtlb.clone(),
            rf: self.rf.clone(),
            fetch_queue: self.fetch_queue.clone(),
            rob: self.rob.clone(),
            lq_count: self.lq_count,
            sq_count: self.sq_count,
            cycle: self.cycle,
            seq: self.seq,
            fetch_pc: self.fetch_pc,
            fetch_stalled_until: self.fetch_stalled_until,
            last_fetch_line: self.last_fetch_line,
            wrong_path_mode: self.wrong_path_mode,
            recovery: self.recovery,
            fetch_done: self.fetch_done,
            halted: self.halted,
            last_commit_cycle: self.last_commit_cycle,
            cache_faults: self.cache_faults.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Rewinds the machine to a previously captured snapshot, reusing
    /// this pipeline's allocations (`clone_from`). The memory image and
    /// the cache arrays cost one pointer per page group and per line
    /// block, plus a copy of those the machine wrote since it last
    /// shared them with the snapshot: they stay shared with the
    /// snapshot until the machine writes them.
    pub(crate) fn restore(&mut self, snap: &PipelineSnapshot) {
        self.oracle.clone_from(&snap.oracle);
        self.oracle_mem.clone_from(&snap.oracle_mem);
        self.trapped = snap.trapped;
        self.bpred.clone_from(&snap.bpred);
        self.l1i.clone_from(&snap.l1i);
        self.dl1.clone_from(&snap.dl1);
        self.l2.clone_from(&snap.l2);
        self.dtlb.clone_from(&snap.dtlb);
        self.rf.clone_from(&snap.rf);
        self.fetch_queue.clone_from(&snap.fetch_queue);
        self.rob.clone_from(&snap.rob);
        self.lq_count = snap.lq_count;
        self.sq_count = snap.sq_count;
        self.cycle = snap.cycle;
        self.seq = snap.seq;
        self.fetch_pc = snap.fetch_pc;
        self.fetch_stalled_until = snap.fetch_stalled_until;
        self.last_fetch_line = snap.last_fetch_line;
        self.wrong_path_mode = snap.wrong_path_mode;
        self.recovery = snap.recovery;
        self.fetch_done = snap.fetch_done;
        self.halted = snap.halted;
        self.last_commit_cycle = snap.last_commit_cycle;
        self.cache_faults.clone_from(&snap.cache_faults);
        self.stats.clone_from(&snap.stats);
        // The stage gates are not captured: reset them to "scan now",
        // which is always safe, and let the next scans re-derive them.
        // The issue queue is re-derived from the ROB at once.
        self.next_complete = 0;
        self.issue_armed = true;
        self.rob_base = 0;
        self.iq.clear();
        for (i, e) in self.rob.iter().enumerate() {
            if e.stage == Stage::InIq {
                self.iq.push(i as u64);
            }
        }
    }

    /// Whether the machine is in exactly the state `snap` captured, so
    /// that (`tick` being deterministic) its future is the snapshot's.
    pub(crate) fn matches(&self, snap: &PipelineSnapshot) -> bool {
        self.compare(snap).is_some_and(|diff| diff.is_empty())
    }

    /// Compares the machine with `snap`: `None` if any active field
    /// differs, else the four passive parts side by side — which
    /// oracle registers differ, whether any in-flight micro-op's values
    /// differ, the DTLB poison the snapshot lacks, and both memory
    /// images. An empty difference is an exact match.
    ///
    /// A register or memory difference reaches the rest of the machine
    /// only through what the oracle reads at fetch, and a poison only
    /// through a DTLB hit, so neither changes anything until it is read
    /// (see `crate::future`). In-flight values (an entry's
    /// `outcome.value` and `src_vals`) are read only by the flip engine,
    /// never by [`Pipeline::tick`], so they never change the machine's
    /// future once its fault is in. Every other captured field is
    /// active, including every other field of an in-flight entry. Pure
    /// counters are skipped because nothing reads them back: every
    /// [`SimStats`] field except `committed` (the run's end condition)
    /// and the caches' and DTLB's access/miss counts. So are the derived
    /// fields, which snapshots do not capture: the issue queue follows
    /// from the ROB, and the stage gates
    /// (`next_complete`, `issue_armed`) only let a stage skip a cycle on
    /// which it would change nothing. The snapshot is destructured in
    /// full, so a field added to it must be placed here. Scalars and
    /// small structures are compared first; the memory images, the
    /// costliest part, are left to the caller.
    pub(crate) fn compare<'s>(&'s self, snap: &'s PipelineSnapshot) -> Option<Passive<'s>> {
        let PipelineSnapshot {
            oracle,
            oracle_mem,
            trapped,
            bpred,
            l1i,
            dl1,
            l2,
            dtlb,
            rf,
            fetch_queue,
            rob,
            lq_count,
            sq_count,
            cycle,
            seq,
            fetch_pc,
            fetch_stalled_until,
            last_fetch_line,
            wrong_path_mode,
            recovery,
            fetch_done,
            halted,
            last_commit_cycle,
            cache_faults,
            stats,
        } = snap;
        let active = self.cycle == *cycle
            && self.seq == *seq
            && self.fetch_pc == *fetch_pc
            && self.fetch_stalled_until == *fetch_stalled_until
            && self.last_fetch_line == *last_fetch_line
            && self.wrong_path_mode == *wrong_path_mode
            && self.recovery == *recovery
            && self.fetch_done == *fetch_done
            && self.halted == *halted
            && self.trapped == *trapped
            && self.last_commit_cycle == *last_commit_cycle
            && self.lq_count == *lq_count
            && self.sq_count == *sq_count
            && self.stats.committed == stats.committed
            && self.cache_faults == *cache_faults
            && self.oracle.same_control(oracle)
            && self.dtlb.same_active_state(dtlb)
            && self.rf == *rf
            && self.bpred == *bpred
            && self.l1i.same_state(l1i)
            && self.dl1.same_state(dl1)
            && self.l2.same_state(l2);
        if !active {
            return None;
        }
        let values = in_flight_values_differ(&self.fetch_queue, fetch_queue)?
            | in_flight_values_differ(&self.rob, rob)?;
        let regs = (0..self.oracle.regs.len())
            .filter(|&r| self.oracle.regs[r] != oracle.regs[r])
            .fold(0u32, |mask, r| mask | 1 << r);
        let poisoned = match (self.dtlb.poisoned(), dtlb.poisoned()) {
            (ours, theirs) if ours == theirs => None,
            (Some(vpn), None) => Some(vpn),
            _ => return None,
        };
        Some(Passive {
            regs,
            values,
            poisoned,
            ours: &self.oracle_mem,
            theirs: oracle_mem,
        })
    }
}

/// Compares two in-flight queues entry by entry: `None` if an entry
/// differs in a field the cycle loop reads, else whether some entry's
/// values differ (see [`DynInst::compare_values`]).
fn in_flight_values_differ(ours: &VecDeque<DynInst>, theirs: &VecDeque<DynInst>) -> Option<bool> {
    if ours.len() != theirs.len() {
        return None;
    }
    let mut values = false;
    for (a, b) in ours.iter().zip(theirs) {
        values |= a.compare_values(b)?;
    }
    Some(values)
}

impl PipelineSnapshot {
    /// Simulated cycle this snapshot was taken at.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The architectural memory image captured.
    pub(crate) fn memory(&self) -> &Memory {
        &self.oracle_mem
    }

    /// Instructions the oracle had executed: the golden-future position
    /// of this checkpoint.
    pub(crate) fn retired(&self) -> u64 {
        self.oracle.retired
    }

    /// The DTLB's event clock.
    pub(crate) fn dtlb_tick(&self) -> u64 {
        self.dtlb.tick()
    }

    /// Bytes of the snapshot's own state: everything but the memory
    /// pages and the cache blocks, which it shares with other snapshots
    /// of the same run (see [`PipelineSnapshot::cache_blocks`]).
    pub(crate) fn state_bytes(&self) -> usize {
        std::mem::size_of::<PipelineSnapshot>()
            + self.bpred.heap_bytes()
            + self.dtlb.heap_bytes()
            + self.rf.heap_bytes()
            + (self.fetch_queue.capacity() + self.rob.capacity()) * std::mem::size_of::<DynInst>()
            + self.cache_faults.heap_bytes()
    }

    /// Identity and heap bytes of every cache line block the snapshot
    /// holds, shared or not: counting each identity once gives the
    /// blocks many snapshots pin together.
    pub(crate) fn cache_blocks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.l1i
            .blocks()
            .chain(self.dl1.blocks())
            .chain(self.l2.blocks())
    }

    /// Identities of the cache line blocks (see
    /// [`Cache::block_identities`]).
    pub fn cache_block_identities(&self) -> impl Iterator<Item = usize> + '_ {
        self.cache_blocks().map(|(id, _)| id)
    }
}
