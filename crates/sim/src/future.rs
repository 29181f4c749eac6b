//! The golden future: what the fault-free run reads and overwrites after
//! each of its checkpoints, the outcomes its oracle produces and the
//! cache-line events its cycle loop makes, recorded by the golden pass as
//! it runs.
//!
//! A faulty machine whose state equals a golden checkpoint's in every
//! field except four *passive* parts — the oracle's register values,
//! its memory bytes, the DTLB's poison flag and the in-flight micro-ops'
//! values — runs the golden future cycle for cycle as long as its oracle
//! produces the golden outcomes: the timing pipeline sees the oracle
//! only through each execution's branch direction and next PC, its
//! effective address, its halt flag and a PC-out-of-text error. The
//! index answers that question two ways. [`GoldenFuture::settle`] checks
//! that the golden future never reads a differing register or byte
//! before overwriting it, so the outcomes cannot differ;
//! [`GoldenFuture::follows`] runs the faulty oracle to the end of the run
//! and compares its addresses and directions with the recorded ones.
//! Either way the trial's verdict is then fixed.
//!
//! The index also logs every golden-run event that can touch an
//! injected cache fault: each DL1 or L2 eviction with its dirty bit,
//! each DL1 fill and each right-path load or store issue, stamped with
//! its cycle, in the order the cycle loop made them. A DL1/L2 flip
//! changes nothing the cycle loop reads until a load consumes it, so the
//! faulty machine meets exactly these events;
//! [`GoldenFuture::cache_fate`] applies them to the one-fault set from
//! the flip on, through the cycle loop's own [`CacheFaults`] operations.
//! A fault that dies unread, or stays resident and unread until the run
//! ends, without reaching memory, leaves the run golden: the trial is
//! decided Masked at the flip.

use avf_isa::{
    AccessKind, AccessSize, ExecState, Footprint, Inst, Memory, OpClass, Outcome, Program,
};

use crate::cache_faults::{CacheFault, CacheFaults};
use crate::caches::Cache;
use crate::inject::{Judgement, Verdict};

/// Flag bit of a recorded DTLB translation that hit.
const HIT: u64 = 1 << 63;

/// At most this many differing memory bytes are looked up; a machine
/// with more is left to [`GoldenFuture::follows`].
const PASSIVE_BYTES: usize = 256;

/// A faulty machine's passive parts next to a golden checkpoint's, its
/// active state being equal.
pub(crate) struct Passive<'a> {
    /// Bit `r` set: oracle register `r` differs.
    pub(crate) regs: u32,
    /// Some in-flight micro-op's result or recorded operands differ.
    pub(crate) values: bool,
    /// The faulty machine's poisoned DTLB VPN, when the checkpoint has
    /// no poison.
    pub(crate) poisoned: Option<u64>,
    /// The faulty machine's memory.
    pub(crate) ours: &'a Memory,
    /// The checkpoint's memory.
    pub(crate) theirs: &'a Memory,
}

impl Passive<'_> {
    /// Whether nothing differs: an exact match.
    pub(crate) fn is_empty(&self) -> bool {
        self.regs == 0
            && !self.values
            && self.poisoned.is_none()
            && self.ours.each_difference(self.theirs, |_| false)
    }
}

/// A position in the recorded outcome stream: the memory ops and the
/// branches executed before it.
#[derive(Debug, Clone, Copy, Default)]
struct StreamPos {
    ea: usize,
    branch: usize,
}

/// Accesses of one width, as `(ea, retired << 1 | is_store)`.
type Accesses = Vec<(u64, u64)>;

/// What a golden-run event that can touch an injected cache fault did to
/// the line at its address ([`CacheFaults`] holds what each does to a
/// fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineOp {
    /// The line left the DL1 (`dl1`) or the L2.
    Evict { dl1: bool, dirty: bool },
    /// The DL1 line was filled from the L2.
    Fill,
    /// A right-path load (`load`) or store of `bytes` bytes at the
    /// address issued.
    Access { load: bool, bytes: u8 },
}

/// A [`LineOp`] on the line or bytes at `addr`, in the tick at `cycle`.
#[derive(Debug, Clone, Copy)]
struct LineEvent {
    cycle: u64,
    addr: u64,
    op: LineOp,
}

/// How the golden run's line events treat an injected DL1/L2 fault from
/// its flip on ([`crate::InjectionSim::cache_fate`]). Until a load
/// consumes it, a fault in a cache's data array changes nothing the
/// cycle loop reads, so the faulty machine runs the golden run cycle for
/// cycle and meets these same events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheFate {
    /// A store over the faulted byte repaired its last copy.
    Repaired,
    /// An eviction discarded its last copy: a clean eviction, or a DL1
    /// write-back that replaced the L2 line holding it.
    Dropped,
    /// It stayed in the caches, never read, until the run ended.
    Resident,
    /// A right-path load read it: from here the faulty machine may
    /// leave the golden run.
    Consumed,
    /// A dirty L2 eviction wrote it to memory, where it is a byte
    /// difference like any other.
    Escaped,
}

impl CacheFate {
    /// The trial's verdict, when the fate fixes it: a fault that dies or
    /// stays resident without being read or written to memory leaves the
    /// run golden, so the trial is [`Verdict::Masked`].
    #[must_use]
    pub fn verdict(self) -> Option<Verdict> {
        match self {
            CacheFate::Repaired | CacheFate::Dropped | CacheFate::Resident => Some(Verdict::Masked),
            CacheFate::Consumed | CacheFate::Escaped => None,
        }
    }
}

/// What a golden pass observes, in execution order.
#[derive(Debug, Default)]
pub(crate) struct FutureRecorder {
    /// Per oracle execution: `reads | writes << 32` register masks.
    regs: Vec<u64>,
    /// Memory accesses, `[word, quad]`.
    mem: [Accesses; 2],
    /// Per DTLB translation (the one at tick `t` at index `t - 1`): the
    /// VPN, with [`HIT`] set on a hit.
    translates: Vec<u64>,
    /// DTLB evictions as `(tick, victim VPN)`, in tick order.
    evictions: Vec<(u64, u64)>,
    /// Effective address of each memory op, in execution order.
    eas: Vec<u64>,
    /// Direction of each branch, in execution order, one bit each.
    directions: Vec<u64>,
    /// Branches recorded in `directions`.
    branches: usize,
    /// The stream position of each checkpoint, in order.
    marks: Vec<StreamPos>,
    /// Events that can touch an injected cache fault, in call order.
    lines: Vec<LineEvent>,
}

fn width_slot(size: AccessSize) -> usize {
    match size {
        AccessSize::Word => 0,
        AccessSize::Quad => 1,
    }
}

impl FutureRecorder {
    /// The oracle executed `inst`, its instruction number `retired`,
    /// with outcome `out`.
    pub(crate) fn executed(&mut self, retired: u64, inst: &Inst, out: &Outcome) {
        debug_assert_eq!(
            retired,
            self.regs.len() as u64,
            "executions recorded in order"
        );
        let fp = Footprint::of(inst, out);
        self.regs
            .push(u64::from(fp.reads) | u64::from(fp.writes) << 32);
        if let Some(m) = fp.mem {
            let store = u64::from(m.kind == AccessKind::Store);
            self.mem[width_slot(m.size)].push((m.ea, retired << 1 | store));
            self.eas.push(m.ea);
        }
        if inst.op.is_branch() {
            let bit = self.branches % 64;
            if bit == 0 {
                self.directions.push(0);
            }
            *self.directions.last_mut().expect("pushed above") |= u64::from(out.taken) << bit;
            self.branches += 1;
        }
    }

    /// A checkpoint is taken after the executions recorded so far.
    pub(crate) fn checkpoint(&mut self) {
        self.marks.push(StreamPos {
            ea: self.eas.len(),
            branch: self.branches,
        });
    }

    /// The DTLB's translation at `tick` of `vpn` hit or missed, evicting
    /// `evicted`.
    pub(crate) fn translated(&mut self, tick: u64, vpn: u64, hit: bool, evicted: Option<u64>) {
        debug_assert_eq!(tick, self.translates.len() as u64 + 1, "one event per tick");
        self.translates.push(vpn | if hit { HIT } else { 0 });
        if let Some(victim) = evicted {
            self.evictions.push((tick, victim));
        }
    }

    /// The cycle loop did `op` on the line or bytes at `addr` in the tick
    /// at `cycle`, where it would apply the op to any injected cache
    /// fault.
    pub(crate) fn line_event(&mut self, cycle: u64, addr: u64, op: LineOp) {
        debug_assert!(
            self.lines.last().is_none_or(|e| e.cycle <= cycle),
            "line events recorded in cycle order"
        );
        self.lines.push(LineEvent { cycle, addr, op });
    }

    /// Builds the index for checkpoints whose oracles had retired
    /// `positions` instructions (ascending).
    pub(crate) fn finish(self, positions: &[u64]) -> GoldenFuture {
        let FutureRecorder {
            regs,
            mut mem,
            mut translates,
            mut evictions,
            mut eas,
            mut directions,
            branches: _,
            marks,
            mut lines,
        } = self;
        debug_assert_eq!(marks.len(), positions.len(), "one mark per checkpoint");
        // Backward liveness: a register is live at position i if the
        // first access to it at or after i is a read.
        let mut live_regs = vec![0u32; positions.len()];
        let mut live = 0u32;
        let mut k = positions.len();
        for i in (0..=regs.len()).rev() {
            if let Some(&rw) = regs.get(i) {
                live = rw as u32 | (live & !((rw >> 32) as u32));
            }
            while k > 0 && positions[k - 1] == i as u64 {
                k -= 1;
                live_regs[k] = live;
            }
        }
        debug_assert_eq!(k, 0, "every checkpoint lies inside the run");
        for list in &mut mem {
            list.sort_unstable();
            list.shrink_to_fit();
        }
        translates.shrink_to_fit();
        evictions.shrink_to_fit();
        eas.shrink_to_fit();
        directions.shrink_to_fit();
        lines.shrink_to_fit();
        GoldenFuture {
            live_regs,
            mem,
            translates,
            evictions,
            eas,
            directions,
            marks,
            lines,
        }
    }
}

/// The golden run's future reads and writes, indexed per checkpoint.
#[derive(Debug, Default)]
pub struct GoldenFuture {
    /// Per checkpoint: registers whose first future access is a read.
    live_regs: Vec<u32>,
    /// The oracle's memory accesses, `[word, quad]`, each sorted by
    /// address, then retired index.
    mem: [Accesses; 2],
    /// DTLB translations in tick order (see [`FutureRecorder`]).
    translates: Vec<u64>,
    /// DTLB evictions in tick order.
    evictions: Vec<(u64, u64)>,
    /// The oracle's outcome stream: each memory op's effective address,
    /// in execution order.
    eas: Vec<u64>,
    /// The outcome stream's branch directions, one bit each.
    directions: Vec<u64>,
    /// Per checkpoint: its position in the outcome stream.
    marks: Vec<StreamPos>,
    /// The line events (see [`FutureRecorder`]), in the order the cycle
    /// loop made them.
    lines: Vec<LineEvent>,
}

impl GoldenFuture {
    /// Heap bytes of the index.
    #[must_use]
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.live_regs[..])
            + self
                .mem
                .iter()
                .map(|l| std::mem::size_of_val(&l[..]))
                .sum::<usize>()
            + std::mem::size_of_val(&self.translates[..])
            + std::mem::size_of_val(&self.evictions[..])
            + std::mem::size_of_val(&self.eas[..])
            + std::mem::size_of_val(&self.directions[..])
            + std::mem::size_of_val(&self.marks[..])
            + std::mem::size_of_val(&self.lines[..])
    }

    /// Applies to `faults`, in order, the golden run's line events of the
    /// ticks at `cycles`: the events a machine that runs the golden run
    /// cycle for cycle applies to them in those ticks. `dl1` gives the
    /// DL1 geometry. Stops at the first event that consumes a fault or
    /// writes one to memory, or that leaves `faults` empty (no later
    /// event can fill it again), and returns that fate; `None` if the
    /// range ends first.
    pub(crate) fn walk_lines(
        &self,
        dl1: &Cache,
        faults: &mut CacheFaults,
        cycles: std::ops::Range<u64>,
    ) -> Option<CacheFate> {
        let from = self.lines.partition_point(|e| e.cycle < cycles.start);
        for e in &self.lines[from..] {
            if e.cycle >= cycles.end {
                break;
            }
            match e.op {
                LineOp::Evict {
                    dl1: from_dl1,
                    dirty,
                } => {
                    let mut escaped = false;
                    faults.evict(from_dl1, e.addr, dirty, |_, _| escaped = true);
                    if escaped {
                        return Some(CacheFate::Escaped);
                    }
                    if faults.is_empty() {
                        return Some(CacheFate::Dropped);
                    }
                }
                LineOp::Fill => faults.fill(e.addr),
                LineOp::Access { load: true, bytes } => {
                    if faults.consumed(dl1.line_base(e.addr), e.addr, u64::from(bytes)) != 0 {
                        return Some(CacheFate::Consumed);
                    }
                }
                LineOp::Access { load: false, bytes } => {
                    faults.repair(e.addr, u64::from(bytes));
                    if faults.is_empty() {
                        return Some(CacheFate::Repaired);
                    }
                }
            }
        }
        None
    }

    /// The fate of `fault`, flipped into a machine that is in the golden
    /// run's state at the start of the tick at `cycle` (`dl1` gives the
    /// DL1 geometry).
    pub(crate) fn cache_fate(&self, dl1: &Cache, cycle: u64, fault: CacheFault) -> CacheFate {
        let mut faults = CacheFaults::default();
        faults.inject(fault);
        self.walk_lines(dl1, &mut faults, cycle..u64::MAX)
            .unwrap_or(CacheFate::Resident)
    }

    /// Runs `oracle` over `mem` from checkpoint `k`'s position to the
    /// end of the run (`budget` executions, or a halt), checking each
    /// execution against the golden outcome stream: every memory op must
    /// access the golden effective address and every branch take the
    /// golden direction. Returns `false` at the first that does not, or
    /// at a PC outside the text; `oracle` and `mem` are then left where
    /// it stopped.
    ///
    /// An oracle at checkpoint `k`'s position that follows the stream
    /// executes the golden instruction sequence, and each execution has
    /// the golden direction, next PC, effective address and halt flag:
    /// the instruction fixes the rest.
    pub(crate) fn follows(
        &self,
        k: usize,
        program: &Program,
        oracle: &mut ExecState,
        mem: &mut Memory,
        budget: u64,
    ) -> bool {
        let StreamPos { mut ea, mut branch } = self.marks[k];
        while oracle.retired < budget && !oracle.is_halted() {
            let Some(&inst) = program.fetch(oracle.pc) else {
                return false;
            };
            let out = oracle.exec(program, mem).expect("the PC is in the text");
            match inst.op.class() {
                OpClass::Load | OpClass::Store => {
                    if out.ea != self.eas.get(ea).copied() {
                        return false;
                    }
                    ea += 1;
                }
                OpClass::Branch => {
                    let golden = self
                        .directions
                        .get(branch / 64)
                        .map(|&word| word >> (branch % 64) & 1 == 1);
                    if golden != Some(out.taken) {
                        return false;
                    }
                    branch += 1;
                }
                _ => {}
            }
        }
        true
    }

    /// The kind of the first access to byte `addr` by an oracle
    /// execution numbered `from` or later, if any.
    fn next_access(&self, addr: u64, from: u64) -> Option<AccessKind> {
        let mut first: Option<u64> = None;
        for (list, width) in self.mem.iter().zip([4u64, 8]) {
            // An access of `width` bytes covers `addr` iff it starts
            // `0..width` bytes below it (addresses wrap, as in `Memory`).
            for start in (0..width).map(|d| addr.wrapping_sub(d)) {
                let i = list.partition_point(|&e| e < (start, from << 1));
                if let Some(&(ea, at)) = list.get(i) {
                    if ea == start {
                        first = Some(first.map_or(at, |f| f.min(at)));
                    }
                }
            }
        }
        first.map(|at| {
            if at & 1 == 1 {
                AccessKind::Store
            } else {
                AccessKind::Load
            }
        })
    }

    /// Whether, after DTLB tick `tick`, the golden run's next event on
    /// `vpn` is a hit (rather than its eviction, or nothing).
    fn hit_before_eviction(&self, vpn: u64, tick: u64) -> bool {
        let from = usize::try_from(tick).unwrap_or(usize::MAX);
        let Some(hit) = self
            .translates
            .get(from..)
            .and_then(|rest| rest.iter().position(|&t| t == vpn | HIT))
        else {
            return false;
        };
        let hit_tick = tick + 1 + hit as u64;
        let evicted = self.evictions[self.evictions.partition_point(|&(t, _)| t <= tick)..]
            .iter()
            .find(|&&(_, v)| v == vpn);
        evicted.is_none_or(|&(t, _)| hit_tick < t)
    }

    /// The verdict of a machine that runs the golden future from DTLB
    /// tick `tick` with DTLB poison `poisoned`: **DUE** if the golden
    /// future's next event on the poisoned VPN is a hit (the poisoned
    /// entry is consumed and the machine traps), else **SDC** if its
    /// final memory `differs` from the golden image, else **Masked**.
    pub(crate) fn verdict(&self, poisoned: Option<u64>, tick: u64, differs: bool) -> Verdict {
        if poisoned.is_some_and(|vpn| self.hit_before_eviction(vpn, tick)) {
            Verdict::Due
        } else if differs {
            Verdict::Sdc
        } else {
            Verdict::Masked
        }
    }

    /// Judges a faulty machine that equals checkpoint `k` (whose oracle
    /// had retired `retired` instructions and whose DTLB stood at tick
    /// `tick`) except for the passive parts `diff`. It is
    /// [`Judgement::Live`] when the golden future reads a differing
    /// register or byte before overwriting it (or when more than
    /// [`PASSIVE_BYTES`] bytes differ). Otherwise the machine runs the
    /// golden future cycle for cycle: with no difference at all it has
    /// [`Judgement::Rejoined`] the golden run, and else its verdict is
    /// decided ([`GoldenFuture::verdict`]): it completes with the golden
    /// memory except for the differing bytes no later store overwrites.
    /// Differing in-flight values are dead: nothing the run does reads
    /// them.
    ///
    /// The cheap checks come first: registers, then memory, which stops
    /// at the first byte the golden future loads.
    pub(crate) fn settle(
        &self,
        k: usize,
        retired: u64,
        tick: u64,
        diff: &Passive<'_>,
    ) -> Judgement {
        if diff.regs & self.live_regs[k] != 0 {
            return Judgement::Live;
        }
        let (mut bytes, mut survives) = (0usize, false);
        let dead = diff.ours.each_difference(diff.theirs, |addr| {
            bytes += 1;
            match self.next_access(addr, retired) {
                Some(AccessKind::Load) => return false,
                Some(AccessKind::Store) => {}
                None => survives = true,
            }
            bytes <= PASSIVE_BYTES
        });
        if !dead {
            return Judgement::Live;
        }
        if diff.regs == 0 && !diff.values && bytes == 0 && diff.poisoned.is_none() {
            return Judgement::Rejoined;
        }
        Judgement::Decided(self.verdict(diff.poisoned, tick, survives))
    }
}

#[cfg(test)]
mod tests {
    //! The walk over the logged line events keeps the cycle loop's
    //! fault set, tick by tick.

    use avf_codegen::{generate, Knobs, TargetParams};
    use avf_isa::Program;

    use super::{CacheFate, GoldenFuture, LineOp};
    use crate::cache_faults::{CacheFault, CacheFaults};
    use crate::inject::golden_run_checkpointed;
    use crate::pipeline::Pipeline;
    use crate::MachineConfig;

    fn stressmark(machine: &MachineConfig) -> Program {
        let params = TargetParams {
            rob_entries: machine.rob_entries as u32,
            line_bytes: machine.dl1.line_bytes,
            page_bytes: machine.page_bytes,
            dtlb_entries: machine.dtlb_entries as u32,
            dl1_bytes: machine.dl1.size_bytes,
            l2_bytes: machine.l2.size_bytes,
        };
        generate(&Knobs::paper_baseline(), &params).program
    }

    /// What the lockstep runs saw, summed over every flip.
    #[derive(Debug, Default)]
    struct Seen {
        flips: usize,
        /// Ticks on which the fault set changed.
        changes: usize,
        /// Ticks on which it grew: a DL1 fill copied an L2 fault.
        copies: usize,
        fates: Vec<CacheFate>,
    }

    /// Faults in lines of the DL1 (`dl1`) or the L2 of `pipe` that the
    /// golden run's line events from `cycle` on touch: for each kind of
    /// event (an access, an eviction, a fill), the first `n` distinct
    /// resident lines it touches, flipped in the first byte an access
    /// covers.
    fn upcoming(
        future: &GoldenFuture,
        pipe: &Pipeline<'_>,
        dl1: bool,
        cycle: u64,
        n: usize,
    ) -> Vec<CacheFault> {
        let cache = if dl1 { &pipe.dl1 } else { &pipe.l2 };
        let from = future.lines.partition_point(|e| e.cycle < cycle);
        let mut by_kind: [Vec<CacheFault>; 3] = Default::default();
        for e in &future.lines[from..] {
            let line_base = cache.line_base(e.addr);
            let (kind, addr) = match e.op {
                LineOp::Access { .. } => (0, e.addr),
                LineOp::Evict { .. } => (1, line_base + e.cycle % 64),
                LineOp::Fill => (2, line_base + e.cycle % 64),
            };
            let list = &mut by_kind[kind];
            if list.len() < n
                && cache.probe(line_base)
                && !list.iter().any(|f| f.line_base == line_base)
            {
                list.push(CacheFault {
                    dl1,
                    line_base,
                    addr,
                    mask: 1 << (e.cycle % 8),
                });
            }
        }
        by_kind.concat()
    }

    /// Injects DL1 and L2 faults at several cycles of `program`'s
    /// golden run, steps the cycle loop, and after every tick checks
    /// that the walk over that tick's logged line events reaches the
    /// cycle loop's fault set, until a load consumes a fault or one is
    /// written to memory.
    fn lockstep(name: &str, machine: &MachineConfig, program: &Program, seen: &mut Seen) {
        const BUDGET: u64 = 10_000;
        const FLIPS: u64 = 8;
        let (golden, checkpoints) = golden_run_checkpointed(machine, program, BUDGET, 256);
        let future = checkpoints.future();
        for k in 1..=FLIPS {
            let cycle = golden.cycles * k / (FLIPS + 1);
            let (_, snap) = checkpoints.nearest(cycle).expect("cycle-0 checkpoint");
            let mut at_flip = Pipeline::new_faulty_at(machine, program, BUDGET, snap);
            while at_flip.cycle < cycle {
                at_flip.tick(BUDGET);
            }
            let snap = at_flip.snapshot();
            for dl1 in [true, false] {
                for fault in upcoming(future, &at_flip, dl1, cycle, 3) {
                    let mut pipe = Pipeline::new_faulty_at(machine, program, BUDGET, &snap);
                    pipe.cache_faults.inject(fault);
                    let mut walk: CacheFaults = pipe.cache_faults.clone();
                    seen.flips += 1;
                    let fate = loop {
                        if pipe.done(BUDGET) {
                            break CacheFate::Resident;
                        }
                        let t = pipe.cycle;
                        let before = pipe.cache_faults.clone();
                        pipe.tick(BUDGET);
                        let fate = future.walk_lines(&pipe.dl1, &mut walk, t..t + 1);
                        if let Some(end @ (CacheFate::Consumed | CacheFate::Escaped)) = fate {
                            break end;
                        }
                        assert_eq!(
                            walk, pipe.cache_faults,
                            "{name}: {fault:?} flipped at {cycle}, after the tick at {t}"
                        );
                        seen.changes += usize::from(before != pipe.cache_faults);
                        seen.copies += usize::from(before.len() < pipe.cache_faults.len());
                        if let Some(end) = fate {
                            break end;
                        }
                    };
                    seen.fates.push(fate);
                }
            }
        }
    }

    #[test]
    fn the_line_walk_keeps_the_cycle_loops_fault_set() {
        let mcf = avf_workloads::by_name("429.mcf")
            .expect("the 429.mcf proxy exists")
            .build();
        let mut seen = Seen::default();
        for machine in [MachineConfig::baseline(), MachineConfig::config_a()] {
            let programs = [
                ("stressmark", stressmark(&machine)),
                ("429.mcf", mcf.clone()),
                ("register_chain", avf_workloads::testkit::register_chain()),
                ("idle_loop", avf_workloads::testkit::idle_loop()),
                ("line_churn", avf_workloads::testkit::line_churn()),
            ];
            for (name, program) in &programs {
                let name = format!("{name} on {}", machine.name);
                lockstep(&name, &machine, program, &mut seen);
            }
        }
        // The runs exercise the walk: faults move between the caches,
        // die, are consumed and reach memory.
        assert!(seen.flips >= 100, "{seen:?}");
        assert!(seen.changes >= 40 && seen.copies > 0, "{seen:?}");
        for fate in [
            CacheFate::Resident,
            CacheFate::Consumed,
            CacheFate::Dropped,
            CacheFate::Repaired,
            CacheFate::Escaped,
        ] {
            assert!(seen.fates.contains(&fate), "no {fate:?}: {seen:?}");
        }
    }
}
