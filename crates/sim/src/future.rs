//! The golden future: what the fault-free run reads and overwrites after
//! each oracle execution, the outcomes its oracle produces and the
//! cache-line events its cycle loop makes, recorded by the golden pass as
//! it runs.
//!
//! A faulty machine whose state equals the golden run's state of the same
//! cycle in every field except four *passive* parts — the oracle's
//! register values, its memory bytes, the DTLB's poison flag and the
//! in-flight micro-ops' values — runs the golden future cycle for cycle
//! as long as its oracle produces the golden outcomes: the timing
//! pipeline sees the oracle only through each execution's branch
//! direction and next PC, its effective address, its halt flag and a
//! PC-out-of-text error. The golden state may be a checkpoint or the
//! snapshot a trial takes just before its flip. The index answers that
//! question two ways, at any oracle position (the number of executions
//! the oracle has retired). [`GoldenFuture::settle`] checks that the
//! golden future never reads a differing register or byte before
//! overwriting it, so the outcomes cannot differ: it reads the
//! registers live at the position from a backward live mask kept per
//! execution. [`GoldenFuture::follows`] runs the faulty oracle to the end
//! of the run and compares its addresses and directions with the
//! recorded ones, starting at the position's offset into the outcome
//! stream (kept per 64 executions, with a bit per execution that is a
//! memory op or a branch). Either way the trial's verdict is then fixed.
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

/// A faulty machine's passive parts next to those of the golden run's
/// state of the same cycle, its active state being equal.
pub(crate) struct Passive<'a> {
    /// Bit `r` set: oracle register `r` differs.
    pub(crate) regs: u32,
    /// Some in-flight micro-op's result or recorded operands differ.
    pub(crate) values: bool,
    /// The faulty machine's poisoned DTLB VPN, when the golden state has
    /// no poison.
    pub(crate) poisoned: Option<u64>,
    /// The faulty machine's memory.
    pub(crate) ours: &'a Memory,
    /// The golden state's memory.
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StreamPos {
    ea: usize,
    branch: usize,
}

/// The outcome stream over 64 consecutive oracle executions, the first
/// numbered a multiple of 64.
#[derive(Debug, Clone, Copy)]
struct StreamBlock {
    /// Memory ops executed before the first.
    ea: u32,
    /// Branches executed before the first.
    branch: u32,
    /// Bit `i` set: the block's execution `i` is a memory op.
    mem: u64,
    /// Bit `i` set: the block's execution `i` is a branch.
    branches: u64,
}

impl StreamBlock {
    /// An empty block whose first execution follows `eas` memory ops
    /// and `branches` branches.
    fn at(eas: usize, branches: usize) -> StreamBlock {
        let narrow = |n: usize| u32::try_from(n).expect("fewer than 2^32 oracle executions");
        StreamBlock {
            ea: narrow(eas),
            branch: narrow(branches),
            mem: 0,
            branches: 0,
        }
    }
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

impl LineOp {
    /// The op in one byte: the kind in bits 6–7 (fill 0, eviction 1,
    /// access 2), then an eviction's `dl1` (bit 1) and `dirty` (bit 0),
    /// or an access's `load` (bit 5) and `bytes` (bits 0–4).
    fn code(self) -> u8 {
        match self {
            LineOp::Fill => 0,
            LineOp::Evict { dl1, dirty } => 0x40 | u8::from(dl1) << 1 | u8::from(dirty),
            LineOp::Access { load, bytes } => {
                debug_assert!(bytes < 0x20, "an access of at most 31 bytes");
                0x80 | u8::from(load) << 5 | bytes
            }
        }
    }

    /// The op [`LineOp::code`] gave `code`.
    fn decode(code: u8) -> LineOp {
        match code >> 6 {
            0 => LineOp::Fill,
            1 => LineOp::Evict {
                dl1: code & 2 != 0,
                dirty: code & 1 != 0,
            },
            _ => LineOp::Access {
                load: code & 0x20 != 0,
                bytes: code & 0x1f,
            },
        }
    }
}

/// A [`LineOp`] on the line or bytes at `addr`, in the tick at cycle
/// `stamp >> 8`; the low byte of `stamp` is the op's [`LineOp::code`].
#[derive(Debug, Clone, Copy)]
struct LineEvent {
    stamp: u64,
    addr: u64,
}

const _: () = assert!(std::mem::size_of::<LineEvent>() == 16);

impl LineEvent {
    fn new(cycle: u64, addr: u64, op: LineOp) -> LineEvent {
        debug_assert!(cycle < 1 << 56, "a cycle stamp fits in 56 bits");
        LineEvent {
            stamp: cycle << 8 | u64::from(op.code()),
            addr,
        }
    }

    fn cycle(self) -> u64 {
        self.stamp >> 8
    }

    fn op(self) -> LineOp {
        LineOp::decode(self.stamp as u8)
    }
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
    /// Per oracle execution: the registers it reads.
    reads: Vec<u32>,
    /// Per oracle execution: the registers it writes.
    writes: Vec<u32>,
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
    /// The outcome stream, 64 executions a block.
    stream: Vec<StreamBlock>,
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
        let i = self.reads.len();
        debug_assert_eq!(retired, i as u64, "executions recorded in order");
        if i.is_multiple_of(64) {
            self.stream
                .push(StreamBlock::at(self.eas.len(), self.branches));
        }
        let block = self.stream.last_mut().expect("a block per 64 executions");
        let fp = Footprint::of(inst, out);
        self.reads.push(fp.reads);
        self.writes.push(fp.writes);
        if let Some(m) = fp.mem {
            let store = u64::from(m.kind == AccessKind::Store);
            self.mem[width_slot(m.size)].push((m.ea, retired << 1 | store));
            self.eas.push(m.ea);
            block.mem |= 1 << (i % 64);
        }
        if inst.op.is_branch() {
            let bit = self.branches % 64;
            if bit == 0 {
                self.directions.push(0);
            }
            *self.directions.last_mut().expect("pushed above") |= u64::from(out.taken) << bit;
            self.branches += 1;
            block.branches |= 1 << (i % 64);
        }
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
            self.lines.last().is_none_or(|e| e.cycle() <= cycle),
            "line events recorded in cycle order"
        );
        self.lines.push(LineEvent::new(cycle, addr, op));
    }

    /// Builds the index.
    pub(crate) fn finish(self) -> GoldenFuture {
        let FutureRecorder {
            reads,
            writes,
            mut mem,
            mut translates,
            mut evictions,
            mut eas,
            mut directions,
            branches,
            mut stream,
            mut lines,
        } = self;
        // Backward liveness, in place over the reads: a register is live
        // at position i if the first access to it by execution i or
        // later is a read.
        let mut live = reads;
        live.push(0);
        for (i, &w) in writes.iter().enumerate().rev() {
            live[i] |= live[i + 1] & !w;
        }
        // The end of the run is a position too: give it a block when it
        // starts one.
        if writes.len().is_multiple_of(64) {
            stream.push(StreamBlock::at(eas.len(), branches));
        }
        drop(writes);
        for list in &mut mem {
            list.sort_unstable();
            list.shrink_to_fit();
        }
        live.shrink_to_fit();
        translates.shrink_to_fit();
        evictions.shrink_to_fit();
        eas.shrink_to_fit();
        directions.shrink_to_fit();
        stream.shrink_to_fit();
        lines.shrink_to_fit();
        GoldenFuture {
            live,
            mem,
            translates,
            evictions,
            eas,
            directions,
            stream,
            lines,
        }
    }
}

/// The golden run's future reads and writes, indexed per oracle
/// position: the number of executions the oracle has retired.
#[derive(Debug, Default)]
pub struct GoldenFuture {
    /// Per position, the end of the run included: registers whose first
    /// access at or after it is a read.
    live: Vec<u32>,
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
    /// The outcome stream, 64 executions a block, with one more block
    /// when the run's length is a multiple of 64: every position from 0
    /// to the end of the run lies in a block.
    stream: Vec<StreamBlock>,
    /// The line events (see [`FutureRecorder`]), in the order the cycle
    /// loop made them.
    lines: Vec<LineEvent>,
}

impl GoldenFuture {
    /// Heap bytes of the index.
    #[must_use]
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.live[..])
            + self
                .mem
                .iter()
                .map(|l| std::mem::size_of_val(&l[..]))
                .sum::<usize>()
            + std::mem::size_of_val(&self.translates[..])
            + std::mem::size_of_val(&self.evictions[..])
            + std::mem::size_of_val(&self.eas[..])
            + std::mem::size_of_val(&self.directions[..])
            + std::mem::size_of_val(&self.stream[..])
            + std::mem::size_of_val(&self.lines[..])
    }

    /// Registers whose first access by execution `position` or later is
    /// a read.
    fn live_at(&self, position: u64) -> u32 {
        self.live[position as usize]
    }

    /// The outcome stream's position before execution `position`.
    fn stream_at(&self, position: u64) -> StreamPos {
        let block = self.stream[(position / 64) as usize];
        let below = (1u64 << (position % 64)) - 1;
        StreamPos {
            ea: block.ea as usize + (block.mem & below).count_ones() as usize,
            branch: block.branch as usize + (block.branches & below).count_ones() as usize,
        }
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
        let from = self.lines.partition_point(|e| e.cycle() < cycles.start);
        for e in &self.lines[from..] {
            if e.cycle() >= cycles.end {
                break;
            }
            match e.op() {
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

    /// Runs `oracle` over `mem` from its position (`oracle.retired`,
    /// which must be a position of the golden run) to the end of the run
    /// (`budget` executions, or a halt), checking each execution against
    /// the golden outcome stream from that position on: every memory op
    /// must access the golden effective address and every branch take
    /// the golden direction. Returns `false` at the first that does not,
    /// or at a PC outside the text; `oracle` and `mem` are then left
    /// where it stopped.
    ///
    /// An oracle at the golden run's PC for its position that follows
    /// the stream executes the golden instruction sequence, and each
    /// execution has the golden direction, next PC, effective address
    /// and halt flag: the instruction fixes the rest.
    pub(crate) fn follows(
        &self,
        program: &Program,
        oracle: &mut ExecState,
        mem: &mut Memory,
        budget: u64,
    ) -> bool {
        let StreamPos { mut ea, mut branch } = self.stream_at(oracle.retired);
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

    /// Judges a faulty machine that equals the golden run's state of its
    /// cycle (whose oracle had retired `retired` instructions and whose
    /// DTLB stood at tick `tick`) except for the passive parts `diff`.
    /// It is
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
    pub(crate) fn settle(&self, retired: u64, tick: u64, diff: &Passive<'_>) -> Judgement {
        if diff.regs & self.live_at(retired) != 0 {
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
    //! fault set, tick by tick; the line events round-trip through their
    //! packed stamps; and the index answers at every oracle position what
    //! a plain architectural run shows, and at each checkpoint what the
    //! per-checkpoint index it replaced recorded.

    use avf_codegen::{generate, Knobs, TargetParams};
    use avf_isa::{ExecState, Footprint, Memory, OpClass, Program};

    use super::{CacheFate, GoldenFuture, LineEvent, LineOp, StreamPos};
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
        let from = future.lines.partition_point(|e| e.cycle() < cycle);
        let mut by_kind: [Vec<CacheFault>; 3] = Default::default();
        for e in &future.lines[from..] {
            let line_base = cache.line_base(e.addr);
            let (kind, addr) = match e.op() {
                LineOp::Access { .. } => (0, e.addr),
                LineOp::Evict { .. } => (1, line_base + e.cycle() % 64),
                LineOp::Fill => (2, line_base + e.cycle() % 64),
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
                    mask: 1 << (e.cycle() % 8),
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

    #[test]
    fn line_events_round_trip_through_their_stamps() {
        let mut ops = vec![LineOp::Fill];
        for (dl1, dirty) in [(false, false), (false, true), (true, false), (true, true)] {
            ops.push(LineOp::Evict { dl1, dirty });
        }
        for load in [false, true] {
            for bytes in [1, 4, 8, 31] {
                ops.push(LineOp::Access { load, bytes });
            }
        }
        for op in ops {
            for cycle in [0, 1, 75_664, (1 << 56) - 1] {
                let e = LineEvent::new(cycle, 0x1234, op);
                assert_eq!((e.cycle(), e.op(), e.addr), (cycle, op, 0x1234));
            }
        }
    }

    /// `program` run `budget` instructions on the architectural machine
    /// alone: each execution's footprint and whether it is a branch.
    fn plain_run(program: &Program, budget: u64) -> Vec<(Footprint, bool)> {
        let mut mem = Memory::new();
        let mut oracle = ExecState::new(program, &mut mem);
        let mut out = Vec::new();
        while oracle.retired < budget && !oracle.is_halted() {
            let inst = *program.fetch(oracle.pc).expect("the PC is in the text");
            let outcome = oracle
                .exec(program, &mut mem)
                .expect("the PC is in the text");
            out.push((
                Footprint::of(&inst, &outcome),
                inst.op.class() == OpClass::Branch,
            ));
        }
        out
    }

    #[test]
    fn the_index_at_every_position_matches_a_plain_run() {
        const BUDGET: u64 = 2_000;
        let machine = MachineConfig::baseline();
        let mcf = avf_workloads::by_name("429.mcf")
            .expect("the 429.mcf proxy exists")
            .build();
        for (name, program) in [
            ("stressmark", stressmark(&machine)),
            ("429.mcf", mcf),
            ("register_chain", avf_workloads::testkit::register_chain()),
            ("idle_loop", avf_workloads::testkit::idle_loop()),
        ] {
            let (_, checkpoints) = golden_run_checkpointed(&machine, &program, BUDGET, 256);
            let future = checkpoints.future();
            let run = plain_run(&program, BUDGET);
            assert_eq!(future.live.len(), run.len() + 1, "{name}");
            let mut pos = StreamPos::default();
            for p in 0..=run.len() {
                // Forward scan: a register is live if its first access
                // from here on is a read (an execution reads before it
                // writes).
                let (mut live, mut seen) = (0u32, 0u32);
                for (fp, _) in &run[p..] {
                    live |= fp.reads & !seen;
                    seen |= fp.reads | fp.writes;
                }
                assert_eq!(future.live_at(p as u64), live, "{name} at {p}");
                assert_eq!(future.stream_at(p as u64), pos, "{name} at {p}");
                if let Some((fp, branch)) = run.get(p) {
                    pos.ea += usize::from(fp.mem.is_some());
                    pos.branch += usize::from(*branch);
                }
            }
        }
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn the_index_at_each_checkpoint_equals_the_per_checkpoint_one() {
        let machine = MachineConfig::baseline();
        let mcf = avf_workloads::by_name("429.mcf")
            .expect("the 429.mcf proxy exists")
            .build();
        let sm = stressmark(&machine);
        // (program, budget, interval, checkpoints, FNV-1a of the `Debug`
        // output of the list of `(live mask, memory ops, branches)` at
        // each checkpoint), pinned from the index that kept the live
        // masks and stream positions per checkpoint.
        let pinned = [
            ("stressmark", &sm, 30_000, 3_750, 21, 0xa2e2_8a71_80c6_2cbb),
            ("429.mcf", &mcf, 30_000, 3_750, 24, 0xf7e1_8a45_b504_ed87),
            ("stressmark", &sm, 3_000, 256, 35, 0x9c50_942d_fa21_a6ac),
            ("429.mcf", &mcf, 3_000, 256, 38, 0x14b9_1f0b_b249_2ab9),
        ];
        for (name, program, budget, interval, len, hash) in pinned {
            let (_, checkpoints) = golden_run_checkpointed(&machine, program, budget, interval);
            let future = checkpoints.future();
            let rows: Vec<(u32, usize, usize)> = checkpoints
                .nearest(0)
                .into_iter()
                .chain(checkpoints.after(0))
                .map(|(_, snap)| {
                    let at = snap.retired();
                    let StreamPos { ea, branch } = future.stream_at(at);
                    (future.live_at(at), ea, branch)
                })
                .collect();
            let got = (rows.len(), fnv1a(format!("{rows:?}").as_bytes()));
            assert_eq!(got, (len, hash), "{name} at {budget}/{interval}: {rows:?}");
        }
    }
}
