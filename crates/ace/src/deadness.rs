//! Transitive dynamic-dead-instruction resolution over the commit stream.
//!
//! Mukherjee et al. classify dynamically dead instructions as un-ACE; Butts &
//! Sohi observe 3–16% of dynamic instructions are dead. This module decides,
//! for every committed instruction, whether its result transitively reaches a
//! program output (memory contents or control flow), and defers AVF crediting
//! until that decision is made:
//!
//! * **branches / halt** are ACE immediately (they steered committed control
//!   flow);
//! * **NOPs** are un-ACE immediately;
//! * a **value producer** (ALU op or load) is ACE iff at least one transitive
//!   consumer is ACE; it is dead once its destination register is overwritten
//!   with all consumers resolved dead;
//! * a **store** is ACE iff a committed load reads any stored word before it
//!   is overwritten, or some word survives to the end of the run (live-out
//!   memory is treated as program output, matching the lifetime-analysis
//!   Write⇒Evict rule).

use std::collections::HashMap;

use crate::record::{AceKind, DynId, InstrRecord, PregRecord, Slice};
use crate::structures::Structure;

/// Width of the ROB entry's result (data) field — the portion of a dead
/// instruction's ROB residency that genuinely is un-ACE. The remaining
/// control bits (destination tag, status) stay ACE even for dead
/// occupants.
const ROB_RESULT_FIELD_BITS: u32 = 64;

/// Resolution state of a dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Not yet known.
    Unknown,
    /// ACE: contributes its residency to AVF.
    Live,
    /// un-ACE: residency discarded.
    Dead,
}

/// Accumulated ACE bit-cycles per structure.
#[derive(Debug, Clone, Default)]
pub struct AceAccumulator {
    bit_cycles: [u128; Structure::ALL.len()],
}

impl AceAccumulator {
    /// Creates a zeroed accumulator.
    #[must_use]
    pub fn new() -> AceAccumulator {
        AceAccumulator::default()
    }

    /// Adds `amount` ACE bit-cycles to `structure`.
    pub fn add(&mut self, structure: Structure, amount: u128) {
        self.bit_cycles[structure.index()] += amount;
    }

    /// Total ACE bit-cycles recorded for `structure`.
    #[must_use]
    pub fn get(&self, structure: Structure) -> u128 {
        self.bit_cycles[structure.index()]
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &AceAccumulator) {
        for (a, b) in self.bit_cycles.iter_mut().zip(other.bit_cycles.iter()) {
            *a += b;
        }
    }
}

/// Aggregate counts reported by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadnessStats {
    /// Instructions committed.
    pub committed: u64,
    /// Instructions resolved ACE.
    pub live: u64,
    /// Instructions resolved un-ACE (dead, NOP).
    pub dead: u64,
}

impl DeadnessStats {
    /// Fraction of committed instructions that were dynamically dead.
    #[must_use]
    pub fn dead_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.dead as f64 / self.committed as f64
        }
    }
}

/// `Node::producers` slot holding no producer.
const NO_PRODUCER: u64 = u64::MAX;

/// An unresolved instruction. Kept small: a run whose stores stay
/// live-out until the end holds one per committed instruction.
struct Node {
    kind: AceKind,
    closed: bool,
    unresolved_consumers: u32,
    /// For stores: number of covered memory words not yet overwritten.
    words_outstanding: u32,
    /// Unresolved producer ids by source slot, [`NO_PRODUCER`] if none.
    producers: [u64; 3],
    /// The residency to credit once the liveness is known.
    credits: Box<[Credit]>,
    /// Physical-register lifetimes waiting on this instruction's liveness:
    /// `(pending preg key, read cycle)`.
    preg_waiters: Vec<(u64, u64)>,
}

impl Node {
    fn producers(&self) -> impl Iterator<Item = u64> + '_ {
        self.producers.iter().copied().filter(|&p| p != NO_PRODUCER)
    }
}

/// A residency slice reduced to what crediting it needs.
#[derive(Clone, Copy)]
struct Credit {
    cycles: u64,
    bits: u32,
    structure: Structure,
}

impl Credit {
    fn of(slice: &Slice) -> Credit {
        Credit {
            cycles: slice.end.saturating_sub(slice.start),
            bits: slice.bits,
            structure: slice.structure,
        }
    }

    /// [`Slice::bit_cycles`] of the slice with `bits` bits.
    fn bit_cycles(self, bits: u32) -> u128 {
        u128::from(self.cycles) * u128::from(bits)
    }
}

struct PregPending {
    write_cycle: u64,
    bits: u32,
    remaining: u32,
    latest_live_read: Option<u64>,
}

/// The deadness engine: consumes the commit stream, resolves liveness, and
/// credits ACE bit-cycles for resolved-live residency intervals.
pub struct DeadnessEngine {
    states: Vec<Liveness>,
    nodes: HashMap<u64, Node>,
    last_def: [Option<u64>; 32],
    mem_defs: HashMap<u64, u64>,
    pregs: HashMap<u64, PregPending>,
    next_preg: u64,
    ace: AceAccumulator,
    stats: DeadnessStats,
    worklist: Vec<u64>,
}

impl Default for DeadnessEngine {
    fn default() -> Self {
        DeadnessEngine::new()
    }
}

impl DeadnessEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> DeadnessEngine {
        DeadnessEngine {
            states: Vec::new(),
            nodes: HashMap::new(),
            last_def: [None; 32],
            mem_defs: HashMap::new(),
            pregs: HashMap::new(),
            next_preg: 0,
            ace: AceAccumulator::new(),
            stats: DeadnessStats::default(),
            worklist: Vec::new(),
        }
    }

    /// Processes one committed instruction; returns its id.
    pub fn commit(&mut self, rec: InstrRecord) -> DynId {
        let id = self.states.len() as u64;
        self.states.push(Liveness::Unknown);
        self.stats.committed += 1;

        // Register producer edges (before the destination update, so
        // read-modify-write instructions link to the previous definition).
        let mut producers = [NO_PRODUCER; 3];
        let mut n_edges = 0;
        for (slot, src) in rec.srcs.iter().enumerate() {
            if let Some(r) = src {
                if let Some(pid) = self.last_def[usize::from(*r)] {
                    if self.states[pid as usize] == Liveness::Unknown {
                        if let Some(pn) = self.nodes.get_mut(&pid) {
                            pn.unresolved_consumers += 1;
                            producers[slot] = pid;
                            n_edges += 1;
                        }
                    }
                }
            }
        }
        let _ = n_edges;

        let node = Node {
            kind: rec.kind,
            closed: false,
            unresolved_consumers: 0,
            words_outstanding: 0,
            producers,
            credits: rec.residency.iter().map(Credit::of).collect(),
            preg_waiters: Vec::new(),
        };
        self.nodes.insert(id, node);

        // Memory effects.
        match rec.kind {
            AceKind::Store => {
                if let Some(mem) = rec.mem {
                    let mut outstanding = 0;
                    let mut kills = Vec::new();
                    for w in mem.words() {
                        if let Some(prev) = self.mem_defs.insert(w, id) {
                            if prev != id {
                                kills.push(prev);
                            }
                        }
                        outstanding += 1;
                    }
                    self.nodes
                        .get_mut(&id)
                        .expect("node just inserted")
                        .words_outstanding = outstanding;
                    for prev in kills {
                        self.kill_store_word(prev);
                    }
                }
            }
            AceKind::Value => {
                if let Some(mem) = rec.mem {
                    // A committed load: its reads keep covering stores ACE.
                    for w in mem.words() {
                        if let Some(&sid) = self.mem_defs.get(&w) {
                            self.mark_live(sid);
                        }
                    }
                }
            }
            _ => {}
        }

        // Destination bookkeeping: close the previous definition.
        if let Some(dest) = rec.dest {
            let prev = self.last_def[usize::from(dest)].replace(id);
            if let Some(pid) = prev {
                self.close(pid);
            }
        }

        // Immediate resolutions by kind.
        match rec.kind {
            AceKind::Branch | AceKind::Halt => self.mark_live(id),
            AceKind::Nop => self.mark_dead(id),
            AceKind::Value if rec.dest.is_none() => {
                // A value producer with no architected destination can never
                // acquire consumers (e.g. a write to the zero register).
                self.mark_dead(id);
            }
            _ => {}
        }
        DynId(id)
    }

    /// Registers a freed physical register's lifetime; the RF ACE interval
    /// is credited once every reader's liveness is known.
    pub fn preg_freed(&mut self, rec: PregRecord) {
        let mut pending = PregPending {
            write_cycle: rec.write_cycle,
            bits: rec.bits,
            remaining: 0,
            latest_live_read: None,
        };
        let key = self.next_preg;
        let mut deferred = Vec::new();
        for (DynId(reader), cycle) in rec.reads {
            match self
                .states
                .get(reader as usize)
                .copied()
                .unwrap_or(Liveness::Dead)
            {
                Liveness::Live => {
                    pending.latest_live_read =
                        Some(pending.latest_live_read.map_or(cycle, |c| c.max(cycle)));
                }
                Liveness::Dead => {}
                Liveness::Unknown => {
                    pending.remaining += 1;
                    deferred.push((reader, cycle));
                }
            }
        }
        if pending.remaining == 0 {
            self.credit_preg(&pending);
            return;
        }
        for (reader, cycle) in deferred {
            if let Some(node) = self.nodes.get_mut(&reader) {
                node.preg_waiters.push((key, cycle));
            } else {
                // Node vanished between state check and here: impossible in
                // single-threaded use, but be safe and drop the dependency.
                pending.remaining -= 1;
            }
        }
        if pending.remaining == 0 {
            self.credit_preg(&pending);
        } else {
            self.pregs.insert(key, pending);
            self.next_preg += 1;
        }
    }

    /// Forces resolution of everything still unknown: unresolved stores are
    /// live-out (their data is program output), remaining value producers
    /// are dead (their results were never consumed).
    pub fn finish(&mut self) {
        let unresolved: Vec<u64> = self.nodes.keys().copied().collect();
        let mut stores: Vec<u64> = unresolved
            .iter()
            .copied()
            .filter(|id| {
                self.nodes
                    .get(id)
                    .map(|n| n.kind == AceKind::Store)
                    .unwrap_or(false)
            })
            .collect();
        stores.sort_unstable();
        for id in stores {
            self.mark_live(id);
        }
        let mut rest: Vec<u64> = self.nodes.keys().copied().collect();
        rest.sort_unstable();
        for id in rest {
            if self.states[id as usize] == Liveness::Unknown {
                self.mark_dead(id);
            }
        }
        // Any preg lifetime still pending had only dead readers left.
        let keys: Vec<u64> = self.pregs.keys().copied().collect();
        for key in keys {
            if let Some(p) = self.pregs.remove(&key) {
                self.credit_preg(&p);
            }
        }
    }

    /// Liveness of a committed instruction.
    #[must_use]
    pub fn liveness(&self, id: DynId) -> Liveness {
        self.states
            .get(id.0 as usize)
            .copied()
            .unwrap_or(Liveness::Unknown)
    }

    /// Aggregate resolution counts.
    #[must_use]
    pub fn stats(&self) -> DeadnessStats {
        self.stats
    }

    /// The ACE bit-cycle accumulator (populated as instructions resolve).
    #[must_use]
    pub fn accumulator(&self) -> &AceAccumulator {
        &self.ace
    }

    fn credit_preg(&mut self, pending: &PregPending) {
        if let Some(last) = pending.latest_live_read {
            if last > pending.write_cycle {
                self.ace.add(
                    Structure::RegFile,
                    u128::from(last - pending.write_cycle) * u128::from(pending.bits),
                );
            }
        }
    }

    fn kill_store_word(&mut self, store_id: u64) {
        if self.states[store_id as usize] != Liveness::Unknown {
            return;
        }
        let dead = match self.nodes.get_mut(&store_id) {
            Some(node) => {
                node.words_outstanding = node.words_outstanding.saturating_sub(1);
                node.words_outstanding == 0
            }
            None => false,
        };
        if dead {
            self.mark_dead(store_id);
        }
    }

    fn close(&mut self, id: u64) {
        if let Some(node) = self.nodes.get_mut(&id) {
            node.closed = true;
            if node.kind == AceKind::Value && node.unresolved_consumers == 0 {
                self.mark_dead(id);
            }
        }
    }

    fn mark_live(&mut self, id: u64) {
        debug_assert!(self.worklist.is_empty());
        self.worklist.push(id);
        while let Some(n) = self.worklist.pop() {
            if self.states[n as usize] != Liveness::Unknown {
                continue;
            }
            let Some(node) = self.nodes.remove(&n) else {
                continue;
            };
            self.states[n as usize] = Liveness::Live;
            self.stats.live += 1;
            for c in &node.credits {
                self.ace.add(c.structure, c.bit_cycles(c.bits));
            }
            for p in node.producers() {
                if self.states[p as usize] == Liveness::Unknown {
                    self.worklist.push(p);
                }
            }
            self.notify_preg_waiters(&node.preg_waiters, true);
        }
    }

    fn mark_dead(&mut self, id: u64) {
        let mut dead_list = vec![id];
        while let Some(n) = dead_list.pop() {
            if self.states[n as usize] != Liveness::Unknown {
                continue;
            }
            let Some(node) = self.nodes.remove(&n) else {
                continue;
            };
            self.states[n as usize] = Liveness::Dead;
            self.stats.dead += 1;
            // Mukherjee's dead-instruction refinement applies to *data*
            // fields only: a dynamically dead instruction's value is
            // un-ACE (never consumed), but its control and tag fields
            // stay ACE — a corrupted address redirects the write, a
            // corrupted operand or destination tag misroutes a value, a
            // corrupted opcode decodes to a different micro-op; each
            // corrupts *unrelated live* state, which injection (and the
            // micro-op replay oracle in particular) observes as SDC or a
            // detected error regardless of the occupant's own deadness.
            // Credit the control/tag residency even as the data-field
            // residency is dropped: the ROB keeps its 12 control bits
            // (entry minus the 64-bit result field), the IQ entry is all
            // control, and both LSQ tag arrays stay whole. NOPs are the
            // one exception — the model resolves them un-ACE outright
            // (they route nothing, so there is no misroute to credit),
            // and the injection engine masks every NOP-entry flip to
            // match; the flipped-NOP-opcode gap both sides share is
            // recorded in the ROADMAP.
            if node.kind != AceKind::Nop {
                for c in &node.credits {
                    let control_bits = match c.structure {
                        Structure::Rob => c.bits.saturating_sub(ROB_RESULT_FIELD_BITS),
                        Structure::Iq | Structure::LqTag | Structure::SqTag => c.bits,
                        _ => 0,
                    };
                    if control_bits > 0 {
                        self.ace.add(c.structure, c.bit_cycles(control_bits));
                    }
                }
            }
            for p in node.producers() {
                if self.states[p as usize] != Liveness::Unknown {
                    continue;
                }
                if let Some(pn) = self.nodes.get_mut(&p) {
                    pn.unresolved_consumers = pn.unresolved_consumers.saturating_sub(1);
                    if pn.kind == AceKind::Value && pn.closed && pn.unresolved_consumers == 0 {
                        dead_list.push(p);
                    }
                }
            }
            self.notify_preg_waiters(&node.preg_waiters, false);
        }
    }

    fn notify_preg_waiters(&mut self, waiters: &[(u64, u64)], live: bool) {
        for &(key, cycle) in waiters {
            let done = match self.pregs.get_mut(&key) {
                Some(p) => {
                    p.remaining -= 1;
                    if live {
                        p.latest_live_read =
                            Some(p.latest_live_read.map_or(cycle, |c| c.max(cycle)));
                    }
                    p.remaining == 0
                }
                None => false,
            };
            if done {
                if let Some(p) = self.pregs.remove(&key) {
                    self.credit_preg(&p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MemRef, Slice};

    fn value(dest: Option<u8>, srcs: &[u8]) -> InstrRecord {
        let mut rec = InstrRecord::of_kind(AceKind::Value);
        rec.dest = dest;
        for (i, s) in srcs.iter().enumerate() {
            rec.srcs[i] = Some(*s);
        }
        rec
    }

    fn store(srcs: &[u8], addr: u64, bytes: u8) -> InstrRecord {
        let mut rec = InstrRecord::of_kind(AceKind::Store);
        for (i, s) in srcs.iter().enumerate() {
            rec.srcs[i] = Some(*s);
        }
        rec.mem = Some(MemRef { addr, bytes });
        rec
    }

    fn load(dest: u8, addr: u64) -> InstrRecord {
        let mut rec = InstrRecord::of_kind(AceKind::Value);
        rec.dest = Some(dest);
        rec.mem = Some(MemRef { addr, bytes: 8 });
        rec
    }

    #[test]
    fn branch_is_immediately_live() {
        let mut e = DeadnessEngine::new();
        let id = e.commit(InstrRecord::of_kind(AceKind::Branch));
        assert_eq!(e.liveness(id), Liveness::Live);
    }

    #[test]
    fn nop_is_immediately_dead() {
        let mut e = DeadnessEngine::new();
        let id = e.commit(InstrRecord::of_kind(AceKind::Nop));
        assert_eq!(e.liveness(id), Liveness::Dead);
    }

    #[test]
    fn overwritten_unread_value_is_dead() {
        let mut e = DeadnessEngine::new();
        let a = e.commit(value(Some(1), &[]));
        assert_eq!(e.liveness(a), Liveness::Unknown);
        let b = e.commit(value(Some(1), &[])); // overwrites r1 without reading
        assert_eq!(e.liveness(a), Liveness::Dead);
        assert_eq!(e.liveness(b), Liveness::Unknown);
    }

    #[test]
    fn value_feeding_store_is_live_when_store_read() {
        let mut e = DeadnessEngine::new();
        let a = e.commit(value(Some(1), &[]));
        let s = e.commit(store(&[1], 0x100, 8));
        assert_eq!(e.liveness(a), Liveness::Unknown);
        let l = e.commit(load(2, 0x100));
        assert_eq!(e.liveness(s), Liveness::Live);
        // The store being live makes its data producer live.
        assert_eq!(e.liveness(a), Liveness::Live);
        let _ = l;
    }

    #[test]
    fn store_overwritten_before_read_is_dead_and_cascades() {
        let mut e = DeadnessEngine::new();
        let a = e.commit(value(Some(1), &[]));
        let s1 = e.commit(store(&[1], 0x100, 8));
        let b = e.commit(value(Some(1), &[])); // closes a's register def
        let s2 = e.commit(store(&[1], 0x100, 8)); // kills s1's words
        assert_eq!(e.liveness(s1), Liveness::Dead);
        // `a` fed only the dead store (its register def was closed by `b`).
        assert_eq!(e.liveness(a), Liveness::Dead);
        assert_eq!(e.liveness(s2), Liveness::Unknown);
        let _ = b;
    }

    #[test]
    fn transitive_chain_resolves_live_through_branch() {
        let mut e = DeadnessEngine::new();
        let a = e.commit(value(Some(1), &[]));
        let b = e.commit(value(Some(2), &[1]));
        let mut br = InstrRecord::of_kind(AceKind::Branch);
        br.srcs[0] = Some(2);
        e.commit(br);
        assert_eq!(e.liveness(a), Liveness::Live);
        assert_eq!(e.liveness(b), Liveness::Live);
    }

    #[test]
    fn finish_marks_unread_stores_live_and_values_dead() {
        let mut e = DeadnessEngine::new();
        let a = e.commit(value(Some(1), &[]));
        let s = e.commit(store(&[1], 0x40, 8));
        let v = e.commit(value(Some(3), &[]));
        e.finish();
        assert_eq!(e.liveness(s), Liveness::Live, "live-out store");
        assert_eq!(e.liveness(a), Liveness::Live, "feeds live-out store");
        assert_eq!(e.liveness(v), Liveness::Dead, "never consumed");
    }

    #[test]
    fn dead_residency_keeps_control_bits_only() {
        let mut e = DeadnessEngine::new();
        let mut live_rec = value(Some(1), &[]);
        live_rec.residency.push(Slice {
            structure: Structure::Rob,
            start: 0,
            end: 10,
            bits: 76,
        });
        e.commit(live_rec);
        let mut dead_rec = value(Some(1), &[]); // overwrites r1 -> first dies
        dead_rec.residency.push(Slice {
            structure: Structure::Rob,
            start: 10,
            end: 20,
            bits: 76,
        });
        e.commit(dead_rec);
        // Both values die (overwritten unread / unresolved at finish):
        // their 64-bit result fields are un-ACE, but the 12 control bits
        // of each entry stay ACE — a misdirected writeback corrupts
        // unrelated live state no matter how dead the occupant is.
        e.finish();
        assert_eq!(e.accumulator().get(Structure::Rob), 2 * 10 * 12);
    }

    #[test]
    fn nop_residency_credits_nothing_at_all() {
        let mut e = DeadnessEngine::new();
        let mut nop = InstrRecord::of_kind(AceKind::Nop);
        nop.residency.push(Slice {
            structure: Structure::Rob,
            start: 0,
            end: 8,
            bits: 76,
        });
        nop.residency.push(Slice {
            structure: Structure::Iq,
            start: 0,
            end: 8,
            bits: 32,
        });
        e.commit(nop);
        // NOPs are un-ACE outright — no control-credit exception.
        assert_eq!(e.accumulator().get(Structure::Rob), 0);
        assert_eq!(e.accumulator().get(Structure::Iq), 0);
    }

    #[test]
    fn dead_iq_and_lsq_tag_residency_stays_whole() {
        let mut e = DeadnessEngine::new();
        let mut dead_rec = value(Some(1), &[]);
        dead_rec.residency.push(Slice {
            structure: Structure::Iq,
            start: 0,
            end: 4,
            bits: 32,
        });
        dead_rec.residency.push(Slice {
            structure: Structure::LqData,
            start: 0,
            end: 4,
            bits: 64,
        });
        e.commit(dead_rec);
        e.commit(value(Some(1), &[])); // overwrite -> dead
                                       // IQ entries are all control; LQ data is pure data.
        assert_eq!(e.accumulator().get(Structure::Iq), 4 * 32);
        assert_eq!(e.accumulator().get(Structure::LqData), 0);
    }

    #[test]
    fn residency_credited_when_consumed_by_branch() {
        let mut e = DeadnessEngine::new();
        let mut rec = value(Some(1), &[]);
        rec.residency.push(Slice {
            structure: Structure::Iq,
            start: 5,
            end: 9,
            bits: 32,
        });
        e.commit(rec);
        let mut br = InstrRecord::of_kind(AceKind::Branch);
        br.srcs[0] = Some(1);
        br.residency.push(Slice {
            structure: Structure::Rob,
            start: 0,
            end: 2,
            bits: 76,
        });
        e.commit(br);
        assert_eq!(e.accumulator().get(Structure::Iq), 4 * 32);
        assert_eq!(e.accumulator().get(Structure::Rob), 2 * 76);
    }

    #[test]
    fn preg_interval_uses_latest_live_read() {
        let mut e = DeadnessEngine::new();
        let a = e.commit(value(Some(1), &[]));
        // Two readers of r1: one becomes live (feeds branch), one dead.
        let live_reader = e.commit(value(Some(2), &[1]));
        let dead_reader = e.commit(value(Some(3), &[1]));
        let mut br = InstrRecord::of_kind(AceKind::Branch);
        br.srcs[0] = Some(2);
        e.commit(br);
        e.preg_freed(PregRecord {
            write_cycle: 100,
            reads: vec![(live_reader, 110), (dead_reader, 150)],
            bits: 64,
        });
        // dead_reader still unknown; close it by overwriting r3.
        e.commit(value(Some(3), &[]));
        assert_eq!(e.accumulator().get(Structure::RegFile), 10 * 64);
        let _ = a;
    }

    #[test]
    fn preg_with_only_dead_readers_credits_nothing() {
        let mut e = DeadnessEngine::new();
        e.commit(value(Some(1), &[]));
        let r = e.commit(value(Some(2), &[1]));
        e.commit(value(Some(2), &[])); // kill the reader
        e.preg_freed(PregRecord {
            write_cycle: 0,
            reads: vec![(r, 50)],
            bits: 64,
        });
        e.finish();
        assert_eq!(e.accumulator().get(Structure::RegFile), 0);
    }

    #[test]
    fn stats_track_dead_fraction() {
        let mut e = DeadnessEngine::new();
        e.commit(InstrRecord::of_kind(AceKind::Branch));
        e.commit(InstrRecord::of_kind(AceKind::Nop));
        e.commit(InstrRecord::of_kind(AceKind::Nop));
        e.finish();
        let s = e.stats();
        assert_eq!(s.committed, 3);
        assert_eq!(s.live, 1);
        assert_eq!(s.dead, 2);
        assert!((s.dead_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn partial_store_overwrite_keeps_store_alive_until_all_words_killed() {
        let mut e = DeadnessEngine::new();
        let s = e.commit(store(&[], 0x100, 8)); // words 0x40, 0x41
        e.commit(store(&[], 0x100, 4)); // kills word 0x40 only
        assert_eq!(e.liveness(s), Liveness::Unknown);
        e.commit(store(&[], 0x104, 4)); // kills word 0x41
        assert_eq!(e.liveness(s), Liveness::Dead);
    }
}
