//! Property tests for ACE-analysis invariants.
//!
//! The deadness engine is checked against a naive reference written from
//! the rules' definitions: stores whose data a load reads or that survive to
//! the end, branches and halts are live, and liveness spreads from a live
//! instruction to the producers of its sources until nothing changes.

use avf_ace::{
    AceKind, AvfAnalyzer, CacheLifetime, DeadnessEngine, DeadnessStats, DynId, FaultRates,
    InstrRecord, MemRef, PregRecord, Slice, Structure, StructureClass, StructureSizes,
};
use proptest::prelude::*;

/// One instruction of a tiny random "program" over 4 registers and 16
/// memory words, expressed directly as an instruction record.
#[derive(Debug, Clone)]
enum Op {
    /// `dest` 0 writes no register.
    Alu {
        dest: u8,
        srcs: Vec<u8>,
    },
    Load {
        dest: u8,
        word: u8,
        bytes: u8,
    },
    Store {
        src: u8,
        word: u8,
        bytes: u8,
    },
    Branch {
        src: u8,
    },
    Halt,
    Nop,
}

impl Op {
    fn srcs(&self) -> Vec<u8> {
        match self {
            Op::Alu { srcs, .. } => srcs.clone(),
            Op::Store { src, .. } | Op::Branch { src } => vec![*src],
            Op::Load { .. } | Op::Halt | Op::Nop => vec![],
        }
    }

    fn dest(&self) -> Option<u8> {
        match self {
            Op::Alu { dest, .. } | Op::Load { dest, .. } => Some(*dest).filter(|&d| d != 0),
            _ => None,
        }
    }

    fn mem(&self) -> Option<MemRef> {
        match self {
            Op::Load { word, bytes, .. } | Op::Store { word, bytes, .. } => Some(MemRef {
                addr: u64::from(*word) * 4,
                bytes: *bytes,
            }),
            _ => None,
        }
    }

    fn kind(&self) -> AceKind {
        match self {
            Op::Alu { .. } | Op::Load { .. } => AceKind::Value,
            Op::Store { .. } => AceKind::Store,
            Op::Branch { .. } => AceKind::Branch,
            Op::Halt => AceKind::Halt,
            Op::Nop => AceKind::Nop,
        }
    }
}

/// An op with the residency it held and the cycle it read its sources.
#[derive(Debug, Clone)]
struct Instr {
    op: Op,
    residency: Vec<Slice>,
    /// Cycles after its index at which it read its source registers.
    read_delay: u64,
}

/// A 4- or 8-byte access width.
fn bytes() -> impl Strategy<Value = u8> {
    prop_oneof![Just(4u8), Just(8u8)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, proptest::collection::vec(1u8..5, 0..3))
            .prop_map(|(dest, srcs)| Op::Alu { dest, srcs }),
        (1u8..5, 0u8..16, bytes()).prop_map(|(dest, word, bytes)| Op::Load { dest, word, bytes }),
        (1u8..5, 0u8..16, bytes()).prop_map(|(src, word, bytes)| Op::Store { src, word, bytes }),
        (1u8..5).prop_map(|src| Op::Branch { src }),
        Just(Op::Halt),
        Just(Op::Nop),
    ]
}

fn slice_strategy() -> impl Strategy<Value = Slice> {
    (0usize..7, 0u64..40, 0u64..30, 0u32..100).prop_map(|(s, start, len, bits)| Slice {
        // The core structures the commit stage reports residency in.
        structure: Structure::ALL[s],
        start,
        end: start + len,
        bits,
    })
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    (
        op_strategy(),
        proptest::collection::vec(slice_strategy(), 0..4),
        0u64..6,
    )
        .prop_map(|(op, residency, read_delay)| Instr {
            op,
            residency,
            read_delay,
        })
}

fn to_record(instr: &Instr) -> InstrRecord {
    let op = &instr.op;
    let mut r = InstrRecord::of_kind(op.kind());
    for (i, s) in op.srcs().into_iter().enumerate() {
        r.srcs[i] = Some(s);
    }
    r.dest = op.dest();
    r.mem = op.mem();
    for s in &instr.residency {
        r.residency.push(*s);
    }
    r
}

/// The program's register lifetimes, in the order a renaming core frees
/// them: each definition's register is freed right after the next
/// definition of its architected register commits (`freed_after`), or at
/// the end. A definition is written at its index plus 3 and read by each
/// consumer at the consumer's index plus its read delay.
fn lifetimes(prog: &[Instr]) -> Vec<(usize, PregRecord)> {
    let mut open: [Option<PregRecord>; 5] = Default::default();
    let mut freed = Vec::new();
    for (i, instr) in prog.iter().enumerate() {
        for s in instr.op.srcs() {
            if let Some(p) = open[usize::from(s)].as_mut() {
                p.reads.push((DynId(i as u64), i as u64 + instr.read_delay));
            }
        }
        if let Some(d) = instr.op.dest() {
            let new = PregRecord {
                write_cycle: i as u64 + 3,
                reads: Vec::new(),
                bits: 64,
            };
            if let Some(old) = open[usize::from(d)].replace(new) {
                freed.push((i, old));
            }
        }
    }
    freed.extend(open.into_iter().flatten().map(|p| (prog.len(), p)));
    freed
}

/// Drives the engine over `prog` as the simulator does.
fn run_engine(prog: &[Instr]) -> (DeadnessEngine, Vec<DynId>) {
    let mut e = DeadnessEngine::new();
    let mut pregs = lifetimes(prog).into_iter().peekable();
    let mut ids = Vec::new();
    for (i, instr) in prog.iter().enumerate() {
        ids.push(e.commit(to_record(instr)));
        while let Some((_, p)) = pregs.next_if(|(after, _)| *after == i) {
            e.preg_freed(p);
        }
    }
    for (_, p) in pregs {
        e.preg_freed(p);
    }
    e.finish();
    (e, ids)
}

/// The reference: liveness iterated to a fixpoint, then every slice and
/// register lifetime credited from it.
fn reference(prog: &[Instr]) -> (Vec<bool>, [u128; 13], DeadnessStats) {
    let n = prog.len();
    // Def-use edges: the producers of each instruction's sources.
    let mut producers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, instr) in prog.iter().enumerate() {
        for s in instr.op.srcs() {
            if let Some(p) = (0..i).rev().find(|&p| prog[p].op.dest() == Some(s)) {
                producers[i].push(p);
            }
        }
    }
    let words = |i: usize| prog[i].op.mem().map(|m| m.words().collect::<Vec<_>>());
    let mut live: Vec<bool> = (0..n)
        .map(|i| match prog[i].op.kind() {
            AceKind::Branch | AceKind::Halt => true,
            // A store is live if, for some word, the next access to it
            // after the store is a load, or no later store writes it.
            AceKind::Store => words(i).unwrap().iter().any(|w| {
                let next = (i + 1..n).find(|&j| words(j).is_some_and(|ws| ws.contains(w)));
                next.is_none_or(|j| prog[j].op.kind() == AceKind::Value)
            }),
            AceKind::Value | AceKind::Nop => false,
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            if live[i] {
                for &p in &producers[i] {
                    changed |= !live[p];
                    live[p] = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut ace = [0u128; 13];
    for (instr, &l) in prog.iter().zip(&live) {
        for s in &instr.residency {
            let bits = match (l, instr.op.kind(), s.structure) {
                (_, AceKind::Nop, _) => 0,
                (true, ..) => s.bits,
                (false, _, Structure::Rob) => s.bits.saturating_sub(64),
                (false, _, Structure::Iq | Structure::LqTag | Structure::SqTag) => s.bits,
                (false, ..) => 0,
            };
            ace[s.structure.index()] += u128::from(s.end - s.start) * u128::from(bits);
        }
    }
    for (_, p) in lifetimes(prog) {
        let last = p
            .reads
            .iter()
            .filter(|(DynId(r), _)| live[*r as usize])
            .map(|&(_, c)| c)
            .max();
        if let Some(last) = last.filter(|&c| c > p.write_cycle) {
            ace[Structure::RegFile.index()] += u128::from(last - p.write_cycle) * 64;
        }
    }
    let n_live = live.iter().filter(|&&l| l).count() as u64;
    let stats = DeadnessStats {
        committed: n as u64,
        live: n_live,
        dead: n as u64 - n_live,
    };
    (live, ace, stats)
}

proptest! {
    /// The engine's liveness, counts and every structure's bit-cycles equal
    /// the fixpoint reference's.
    #[test]
    fn engine_matches_fixpoint_reference(
        prog in proptest::collection::vec(instr_strategy(), 1..120)
    ) {
        let (e, ids) = run_engine(&prog);
        let (live, ace, stats) = reference(&prog);
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(e.is_live(*id), live[i], "instruction {} ({:?})", i, prog[i].op);
        }
        prop_assert_eq!(e.stats(), stats);
        for s in Structure::ALL {
            prop_assert_eq!(e.bit_cycles(s), ace[s.index()], "{}", s);
        }
    }

    /// Counts are conserved.
    #[test]
    fn deadness_always_fully_resolves(
        prog in proptest::collection::vec(instr_strategy(), 1..200)
    ) {
        let (e, _) = run_engine(&prog);
        let stats = e.stats();
        prop_assert_eq!(stats.committed, prog.len() as u64);
        prop_assert_eq!(stats.live + stats.dead, stats.committed);
    }

    /// Branches and halts are always live; NOPs are always dead.
    #[test]
    fn branch_live_nop_dead(prog in proptest::collection::vec(instr_strategy(), 1..200)) {
        let (e, ids) = run_engine(&prog);
        for (instr, id) in prog.iter().zip(ids) {
            match instr.op {
                Op::Branch { .. } | Op::Halt => prop_assert!(e.is_live(id)),
                Op::Nop => prop_assert!(!e.is_live(id)),
                _ => {}
            }
        }
    }

    /// A producer directly feeding a live consumer is live (one-step
    /// consistency of the transitive rule).
    #[test]
    fn direct_producer_of_live_consumer_is_live(
        prog in proptest::collection::vec(instr_strategy(), 1..150)
    ) {
        let (e, ids) = run_engine(&prog);
        let mut last_def: [Option<usize>; 8] = [None; 8];
        for (i, instr) in prog.iter().enumerate() {
            for s in instr.op.srcs() {
                if let Some(p) = last_def[usize::from(s)] {
                    if e.is_live(ids[i]) {
                        prop_assert!(
                            e.is_live(ids[p]),
                            "producer {} of live consumer {} must be live", p, i
                        );
                    }
                }
            }
            if let Some(d) = instr.op.dest() {
                last_def[usize::from(d)] = Some(i);
            }
        }
    }

    /// Cache lifetime ACE never exceeds bits × elapsed cycles.
    #[test]
    fn cache_ace_bounded(
        events in proptest::collection::vec((0u8..4, 0u64..4, 1u64..64), 1..300)
    ) {
        let mut c = CacheLifetime::new(64, 32);
        let mut cycle = 0u64;
        for (kind, line, dt) in events {
            cycle += dt;
            let addr = line * 64;
            match kind {
                0 => c.fill(addr, cycle),
                1 => c.read(addr, 8, cycle),
                2 => c.write(addr, 8, cycle),
                _ => c.evict(addr, cycle),
            }
        }
        let (data, tag) = c.finish(cycle);
        // 4 lines tracked at most: 4 * 512 data bits, 4 * 32 tag bits.
        prop_assert!(data <= u128::from(cycle) * 4 * 512);
        prop_assert!(tag <= u128::from(cycle) * 4 * 32);
    }

    /// AVF values from random commit streams are always within [0, 1] and
    /// SER under baseline rates equals the bit-weighted AVF.
    #[test]
    fn avf_in_unit_interval(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let sizes = StructureSizes::baseline();
        let mut a = AvfAnalyzer::new("prop", sizes);
        let mut cycle = 0u64;
        for op in &ops {
            let instr = Instr {
                op: op.clone(),
                residency: vec![Slice {
                    structure: Structure::Rob,
                    start: cycle,
                    end: cycle + 5,
                    bits: 76,
                }],
                read_delay: 0,
            };
            a.commit(to_record(&instr));
            cycle += 1;
        }
        let report = a.finish(cycle + 10);
        for s in Structure::ALL {
            let v = report.avf(s);
            prop_assert!((0.0..=1.0).contains(&v), "{s} avf {v}");
        }
        let ser = report.ser(&FaultRates::baseline());
        let qs = report.class_avf(StructureClass::Qs);
        prop_assert!((ser.qs() - qs).abs() < 1e-9);
    }
}
