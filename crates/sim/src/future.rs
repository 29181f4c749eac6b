//! The golden future: what the fault-free run reads and overwrites after
//! each of its checkpoints, recorded by the golden pass as it runs.
//!
//! A faulty machine whose state equals a golden checkpoint's in every
//! field except three *passive* parts — the oracle's register values,
//! its memory bytes, and the DTLB's poison flag — runs the golden
//! future cycle for cycle as long as the golden future never reads a
//! differing register or byte before overwriting it: the timing
//! pipeline sees the oracle only through the outcomes of the
//! instructions it executes, and those read nothing that differs. The
//! index answers the three questions that then fix the trial's verdict
//! (see [`GoldenFuture::settle`]).

use avf_isa::{AccessKind, AccessSize, Footprint, Memory};

use crate::inject::{Judgement, Verdict};

/// Flag bit of a recorded DTLB translation that hit.
const HIT: u64 = 1 << 63;

/// At most this many differing memory bytes are looked up; a machine
/// with more stays undecided.
const PASSIVE_BYTES: usize = 256;

/// A faulty machine's passive parts next to a golden checkpoint's, its
/// active state being equal.
pub(crate) struct Passive<'a> {
    /// Bit `r` set: oracle register `r` differs.
    pub(crate) regs: u32,
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
            && self.poisoned.is_none()
            && self.ours.each_difference(self.theirs, |_| false)
    }
}

/// Accesses of one width, as `(ea, retired << 1 | is_store)`.
type Accesses = Vec<(u64, u64)>;

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
}

fn width_slot(size: AccessSize) -> usize {
    match size {
        AccessSize::Word => 0,
        AccessSize::Quad => 1,
    }
}

impl FutureRecorder {
    /// The oracle executed instruction number `retired` with footprint
    /// `fp`.
    pub(crate) fn executed(&mut self, retired: u64, fp: &Footprint) {
        debug_assert_eq!(
            retired,
            self.regs.len() as u64,
            "executions recorded in order"
        );
        self.regs
            .push(u64::from(fp.reads) | u64::from(fp.writes) << 32);
        if let Some(m) = fp.mem {
            let store = u64::from(m.kind == AccessKind::Store);
            self.mem[width_slot(m.size)].push((m.ea, retired << 1 | store));
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

    /// Builds the index for checkpoints whose oracles had retired
    /// `positions` instructions (ascending).
    pub(crate) fn finish(self, positions: &[u64]) -> GoldenFuture {
        let FutureRecorder {
            regs,
            mut mem,
            mut translates,
            mut evictions,
        } = self;
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
        GoldenFuture {
            live_regs,
            mem,
            translates,
            evictions,
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

    /// Judges a faulty machine that equals checkpoint `k` (whose oracle
    /// had retired `retired` instructions and whose DTLB stood at tick
    /// `tick`) except for the passive parts `diff`. It stays
    /// [`Judgement::Open`] when the golden future reads a differing
    /// register or byte before overwriting it (or when more than
    /// [`PASSIVE_BYTES`] bytes differ). Otherwise the machine runs the
    /// golden future cycle for cycle: with no difference at all it has
    /// [`Judgement::Rejoined`] the golden run, and else its verdict is
    /// decided:
    ///
    /// * **DUE** if the golden future's next event on the poisoned VPN
    ///   is a hit — the poisoned entry is consumed and the machine traps;
    /// * otherwise it completes with the golden memory except for the
    ///   differing bytes no later store overwrites: **SDC** if there is
    ///   one, else **Masked**.
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
            return Judgement::Open;
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
            return Judgement::Open;
        }
        if diff.regs == 0 && bytes == 0 && diff.poisoned.is_none() {
            return Judgement::Rejoined;
        }
        let verdict = if diff
            .poisoned
            .is_some_and(|vpn| self.hit_before_eviction(vpn, tick))
        {
            Verdict::Due
        } else if survives {
            Verdict::Sdc
        } else {
            Verdict::Masked
        };
        Judgement::Decided(verdict)
    }
}
