//! Dynamic-dead-instruction analysis over the commit stream, in one backward
//! sweep.
//!
//! Mukherjee et al. classify dynamically dead instructions as un-ACE; Butts &
//! Sohi observe 3–16% of dynamic instructions are dead. This module decides,
//! for every committed instruction, whether its result transitively reaches a
//! program output (memory contents or control flow):
//!
//! * **branches / halt** are ACE (they steered committed control flow);
//! * **NOPs** are un-ACE;
//! * a **value producer** (ALU op or load) is ACE iff an ACE instruction
//!   reads its destination register before the register is written again,
//!   so one without a destination is un-ACE;
//! * a **store** is ACE iff a committed load (ACE or not) reads one of its
//!   words before a later store overwrites it, or one of its words is never
//!   overwritten (live-out memory is treated as program output, matching the
//!   lifetime-analysis Write⇒Evict rule).
//!
//! Every rule looks only forward in program order, so [`DeadnessEngine`]
//! records the stream and decides it in [`DeadnessEngine::finish`] by walking
//! it backward once — the live-variable idiom, with one liveness bit per
//! architected register and one state per memory word. Per committed
//! instruction it holds a 16-byte record (kind, source-register mask,
//! destination, memory words, number of deferred credits) and one 16-byte
//! credit per residency slice with data bits; per freed physical register,
//! its write cycle and its `(reader, read cycle)` pairs.
//!
//! Mukherjee's dead-instruction refinement applies to *data* fields only: a
//! dynamically dead instruction's value is un-ACE (never consumed), but its
//! control and tag fields stay ACE — a corrupted address redirects the write,
//! a corrupted operand or destination tag misroutes a value, a corrupted
//! opcode decodes to a different micro-op; each corrupts *unrelated live*
//! state, which injection (and the micro-op replay oracle in particular)
//! observes as SDC or a detected error regardless of the occupant's own
//! deadness. So the control bits — the ROB entry minus its 64-bit result
//! field, the whole IQ entry, both LSQ tag arrays — and every bit of a branch
//! or halt are credited at commit, and only data bits wait for the sweep.
//! NOPs are the one exception: the model makes them un-ACE outright (they
//! route nothing, so there is no misroute to credit), and the injection
//! engine masks every NOP-entry flip to match; the flipped-NOP-opcode gap
//! both sides share is recorded in the ROADMAP.

use std::collections::HashMap;
use std::fmt;

use crate::record::{AceKind, DynId, InstrRecord, PregRecord, Slice};
use crate::structures::Structure;

/// Width of the ROB entry's result (data) field — the portion of a dead
/// instruction's ROB residency that genuinely is un-ACE. The remaining
/// control bits (destination tag, status) stay ACE even for dead
/// occupants.
const ROB_RESULT_FIELD_BITS: u32 = 64;

/// `Committed::dest` of an instruction that writes no register.
const NO_DEST: u8 = u8::MAX;

/// Items per [`Log`] block: 64 KiB of 16-byte records.
const LOG_BLOCK: usize = 4096;

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

/// An append-only sequence kept in fixed blocks rather than one doubling
/// `Vec`, whose buffers reach 1 MiB per 30k instructions: with blocks, the
/// 429.mcf campaign benchmark's per-operation peak RSS read about 5 MiB
/// lower.
struct Log<T> {
    blocks: Vec<Vec<T>>,
}

impl<T> Default for Log<T> {
    fn default() -> Self {
        Log { blocks: Vec::new() }
    }
}

impl<T> Log<T> {
    fn push(&mut self, item: T) {
        match self.blocks.last_mut() {
            Some(block) if block.len() < LOG_BLOCK => block.push(item),
            _ => {
                let mut block = Vec::with_capacity(LOG_BLOCK);
                block.push(item);
                self.blocks.push(block);
            }
        }
    }

    fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.blocks.iter().flatten()
    }
}

/// One committed instruction, as the backward sweep reads it.
struct Committed {
    /// First 4-byte word of its memory access.
    first_word: u64,
    /// The registers it reads, one bit per register.
    srcs: u32,
    kind: AceKind,
    /// The register it writes, or [`NO_DEST`].
    dest: u8,
    /// Number of words its memory access covers; 0 without one.
    words: u8,
    /// Number of its data credits: the ones pushed to
    /// `DeadnessEngine::credits` after the previous instruction's.
    credits: u8,
}

/// Data-field residency, credited only if its instruction is live.
struct Credit {
    cycles: u64,
    bits: u32,
    structure: Structure,
}

/// A freed physical register. Its RF ACE interval runs from `write_cycle`
/// to its latest read by a live instruction.
struct Preg {
    write_cycle: u64,
    bits: u32,
    /// Number of its reads: the ones pushed to `DeadnessEngine::reads`
    /// after the previous register's.
    reads: u32,
}

/// The deadness engine: records the commit stream, then resolves liveness
/// and credits ACE bit-cycles in [`DeadnessEngine::finish`].
#[derive(Default)]
pub struct DeadnessEngine {
    committed: Log<Committed>,
    credits: Log<Credit>,
    pregs: Log<Preg>,
    reads: Log<(DynId, u64)>,
    /// Each committed instruction's liveness, filled by `finish`.
    live: Vec<bool>,
    bit_cycles: [u128; Structure::ALL.len()],
    stats: DeadnessStats,
}

impl fmt::Debug for DeadnessEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeadnessEngine")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// `r`, checked to fit a register mask.
///
/// # Panics
///
/// Panics if `r` is not an architected register (0–31).
fn reg(r: u8) -> u8 {
    assert!(r < 32, "register {r} out of range");
    r
}

/// The bits of `slice` credited whatever its instruction's liveness.
fn control_bits(slice: &Slice) -> u32 {
    match slice.structure {
        Structure::Rob => slice.bits.saturating_sub(ROB_RESULT_FIELD_BITS),
        Structure::Iq | Structure::LqTag | Structure::SqTag => slice.bits,
        _ => 0,
    }
}

impl DeadnessEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> DeadnessEngine {
        DeadnessEngine::default()
    }

    /// Records one committed instruction and credits the residency its
    /// liveness cannot change; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a source or destination is not an architected register.
    pub fn commit(&mut self, rec: InstrRecord) -> DynId {
        let id = DynId(self.stats.committed);
        self.stats.committed += 1;
        let mut credits = 0u8;
        for slice in rec.residency.iter() {
            let (now, deferred) = match rec.kind {
                AceKind::Branch | AceKind::Halt => (slice.bits, 0),
                AceKind::Nop => (0, 0),
                AceKind::Value | AceKind::Store => {
                    let control = control_bits(slice);
                    (control, slice.bits - control)
                }
            };
            let cycles = slice.end.saturating_sub(slice.start);
            self.credit(slice.structure, cycles, now);
            if deferred > 0 && cycles > 0 {
                self.credits.push(Credit {
                    cycles,
                    bits: deferred,
                    structure: slice.structure,
                });
                credits += 1;
            }
        }
        let (first_word, words) = rec
            .mem
            .map_or((0, 0), |m| (m.addr / 4, m.words().count() as u8));
        self.committed.push(Committed {
            first_word,
            srcs: rec.srcs.iter().flatten().fold(0, |m, &r| m | 1 << reg(r)),
            kind: rec.kind,
            dest: rec.dest.map_or(NO_DEST, reg),
            words,
            credits,
        });
        id
    }

    /// Records a freed physical register's lifetime; its RF ACE interval is
    /// credited in [`DeadnessEngine::finish`]. Reads by instructions not yet
    /// committed count as dead.
    pub fn preg_freed(&mut self, rec: PregRecord) {
        let mut reads = 0;
        for (DynId(reader), cycle) in rec.reads {
            if reader < self.stats.committed {
                self.reads.push((DynId(reader), cycle));
                reads += 1;
            }
        }
        self.pregs.push(Preg {
            write_cycle: rec.write_cycle,
            bits: rec.bits,
            reads,
        });
    }

    /// Resolves every committed instruction's liveness in one backward
    /// sweep, then credits live data residency and register lifetimes.
    pub fn finish(&mut self) {
        let committed = std::mem::take(&mut self.committed);
        let pregs = std::mem::take(&mut self.pregs);
        let credits = std::mem::take(&mut self.credits);
        let reads = std::mem::take(&mut self.reads);
        let mut live = vec![false; self.stats.committed as usize];
        // Registers a live instruction reads before the next write.
        let mut live_regs = 0u32;
        // Whether a word's value is read before it is next overwritten; an
        // absent word is never overwritten again, so it is live-out.
        let mut word_read: HashMap<u64, bool> = HashMap::new();
        let mut credits = credits.iter().rev();
        for (i, c) in (0..live.len()).rev().zip(committed.iter().rev()) {
            let dest = if c.dest == NO_DEST { 0 } else { 1 << c.dest };
            let dest_live = live_regs & dest != 0;
            live_regs &= !dest;
            let words = c.first_word..c.first_word + u64::from(c.words);
            live[i] = match c.kind {
                AceKind::Branch | AceKind::Halt => true,
                AceKind::Nop => false,
                AceKind::Value => {
                    // An absent word already reads as live.
                    for w in words {
                        if let Some(read) = word_read.get_mut(&w) {
                            *read = true;
                        }
                    }
                    dest_live
                }
                AceKind::Store => {
                    let mut read = c.words == 0;
                    for w in words {
                        read |= word_read.insert(w, false).unwrap_or(true);
                    }
                    dest_live || read
                }
            };
            if live[i] {
                live_regs |= c.srcs;
            }
            for d in credits.by_ref().take(usize::from(c.credits)) {
                if live[i] {
                    self.credit(d.structure, d.cycles, d.bits);
                }
            }
        }
        let mut reads = reads.iter();
        for p in pregs.iter() {
            let latest_live_read = reads
                .by_ref()
                .take(p.reads as usize)
                .filter(|&&(DynId(reader), _)| live[reader as usize])
                .map(|&(_, cycle)| cycle)
                .max();
            if let Some(last) = latest_live_read.filter(|&last| last > p.write_cycle) {
                self.credit(Structure::RegFile, last - p.write_cycle, p.bits);
            }
        }
        self.stats.live = live.iter().filter(|&&l| l).count() as u64;
        self.stats.dead = self.stats.committed - self.stats.live;
        self.live = live;
    }

    /// Whether committed instruction `id` is ACE.
    ///
    /// # Panics
    ///
    /// Panics before [`DeadnessEngine::finish`], or if `id` was not
    /// returned by [`DeadnessEngine::commit`].
    #[must_use]
    pub fn is_live(&self, id: DynId) -> bool {
        self.live[id.0 as usize]
    }

    /// Aggregate resolution counts; `live` and `dead` are set by
    /// [`DeadnessEngine::finish`].
    #[must_use]
    pub fn stats(&self) -> DeadnessStats {
        self.stats
    }

    /// ACE bit-cycles credited to `structure` (complete after
    /// [`DeadnessEngine::finish`]).
    #[must_use]
    pub fn bit_cycles(&self, structure: Structure) -> u128 {
        self.bit_cycles[structure.index()]
    }

    fn credit(&mut self, structure: Structure, cycles: u64, bits: u32) {
        self.bit_cycles[structure.index()] += u128::from(cycles) * u128::from(bits);
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
    fn per_instruction_records_stay_16_bytes() {
        assert_eq!(std::mem::size_of::<Committed>(), 16);
        assert_eq!(std::mem::size_of::<Credit>(), 16);
        assert_eq!(std::mem::size_of::<Preg>(), 16);
    }

    #[test]
    fn branch_is_immediately_live() {
        let mut e = DeadnessEngine::new();
        let mut br = InstrRecord::of_kind(AceKind::Branch);
        br.residency.push(Slice {
            structure: Structure::Rob,
            start: 0,
            end: 3,
            bits: 76,
        });
        let id = e.commit(br);
        // Every bit of a branch is credited at commit.
        assert_eq!(e.bit_cycles(Structure::Rob), 3 * 76);
        e.finish();
        assert!(e.is_live(id));
    }

    #[test]
    fn nop_is_immediately_dead() {
        let mut e = DeadnessEngine::new();
        let id = e.commit(InstrRecord::of_kind(AceKind::Nop));
        e.finish();
        assert!(!e.is_live(id));
    }

    #[test]
    fn overwritten_unread_value_is_dead() {
        let mut e = DeadnessEngine::new();
        let a = e.commit(value(Some(1), &[]));
        let b = e.commit(value(Some(1), &[])); // overwrites r1 without reading
        let mut br = InstrRecord::of_kind(AceKind::Branch);
        br.srcs[0] = Some(1);
        e.commit(br);
        e.finish();
        assert!(!e.is_live(a));
        assert!(e.is_live(b));
    }

    #[test]
    fn value_feeding_store_is_live_when_store_read() {
        let mut e = DeadnessEngine::new();
        let a = e.commit(value(Some(1), &[]));
        let s = e.commit(store(&[1], 0x100, 8));
        let l = e.commit(load(2, 0x100));
        e.commit(store(&[], 0x100, 8)); // the load read s's words first
        e.finish();
        assert!(e.is_live(s));
        // The store being live makes its data producer live.
        assert!(e.is_live(a));
        assert!(!e.is_live(l), "its value is never used");
    }

    #[test]
    fn store_overwritten_before_read_is_dead_and_cascades() {
        let mut e = DeadnessEngine::new();
        let a = e.commit(value(Some(1), &[]));
        let s1 = e.commit(store(&[1], 0x100, 8));
        e.commit(value(Some(1), &[])); // ends a's register definition
        let s2 = e.commit(store(&[1], 0x100, 8)); // overwrites s1's words
        e.finish();
        assert!(!e.is_live(s1));
        // `a` fed only the dead store.
        assert!(!e.is_live(a));
        assert!(e.is_live(s2), "live-out");
    }

    #[test]
    fn transitive_chain_resolves_live_through_branch() {
        let mut e = DeadnessEngine::new();
        let a = e.commit(value(Some(1), &[]));
        let b = e.commit(value(Some(2), &[1]));
        let mut br = InstrRecord::of_kind(AceKind::Branch);
        br.srcs[0] = Some(2);
        e.commit(br);
        e.finish();
        assert!(e.is_live(a));
        assert!(e.is_live(b));
    }

    #[test]
    fn read_modify_write_keeps_the_previous_definition_live() {
        let mut e = DeadnessEngine::new();
        let a = e.commit(value(Some(1), &[]));
        let b = e.commit(value(Some(1), &[1])); // r1 = f(r1)
        let mut br = InstrRecord::of_kind(AceKind::Branch);
        br.srcs[0] = Some(1);
        e.commit(br);
        e.finish();
        assert!(e.is_live(a));
        assert!(e.is_live(b));
    }

    #[test]
    fn finish_marks_unread_stores_live_and_values_dead() {
        let mut e = DeadnessEngine::new();
        let a = e.commit(value(Some(1), &[]));
        let s = e.commit(store(&[1], 0x40, 8));
        let v = e.commit(value(Some(3), &[]));
        e.finish();
        assert!(e.is_live(s), "live-out store");
        assert!(e.is_live(a), "feeds live-out store");
        assert!(!e.is_live(v), "never consumed");
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
        // Both values die (overwritten unread / never read): their 64-bit
        // result fields are un-ACE, but the 12 control bits of each entry
        // stay ACE — a misdirected writeback corrupts unrelated live state
        // no matter how dead the occupant is.
        e.finish();
        assert_eq!(e.bit_cycles(Structure::Rob), 2 * 10 * 12);
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
        e.finish();
        // NOPs are un-ACE outright — no control-credit exception.
        assert_eq!(e.bit_cycles(Structure::Rob), 0);
        assert_eq!(e.bit_cycles(Structure::Iq), 0);
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
        e.finish();
        // IQ entries are all control; LQ data is pure data.
        assert_eq!(e.bit_cycles(Structure::Iq), 4 * 32);
        assert_eq!(e.bit_cycles(Structure::LqData), 0);
    }

    #[test]
    fn residency_credited_when_consumed_by_branch() {
        let mut e = DeadnessEngine::new();
        let mut rec = value(Some(1), &[]);
        rec.residency.push(Slice {
            structure: Structure::Rob,
            start: 5,
            end: 9,
            bits: 76,
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
        e.finish();
        assert_eq!(e.bit_cycles(Structure::Rob), 4 * 76 + 2 * 76);
    }

    #[test]
    fn preg_interval_uses_latest_live_read() {
        let mut e = DeadnessEngine::new();
        e.commit(value(Some(1), &[]));
        // Two readers of r1: one live (feeds a branch), one dead.
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
        e.commit(value(Some(3), &[])); // r3's first value is never read
        e.finish();
        assert_eq!(e.bit_cycles(Structure::RegFile), 10 * 64);
    }

    #[test]
    fn preg_with_only_dead_readers_credits_nothing() {
        let mut e = DeadnessEngine::new();
        e.commit(value(Some(1), &[]));
        let r = e.commit(value(Some(2), &[1]));
        e.commit(value(Some(2), &[])); // kill the reader
        e.preg_freed(PregRecord {
            write_cycle: 0,
            reads: vec![(r, 50), (DynId(99), 60)], // 99 never committed
            bits: 64,
        });
        e.finish();
        assert_eq!(e.bit_cycles(Structure::RegFile), 0);
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
        // Words 0x40 and 0x41, then 0x40 only: one word of `s` survives.
        let mut e = DeadnessEngine::new();
        let s = e.commit(store(&[], 0x100, 8));
        e.commit(store(&[], 0x100, 4));
        e.finish();
        assert!(e.is_live(s));
        // Then 0x41 too: both words are overwritten unread.
        let mut e = DeadnessEngine::new();
        let s = e.commit(store(&[], 0x100, 8));
        e.commit(store(&[], 0x100, 4));
        e.commit(store(&[], 0x104, 4));
        e.finish();
        assert!(!e.is_live(s));
    }
}
