//! `Footprint::of` records exactly what `ExecState::exec_inst` reads and
//! writes.
//!
//! The fault-injection engine decides a trial early when the golden
//! future never reads the state the fault corrupted, and it learns what
//! the future reads from these footprints. So the footprint may neither
//! miss a read (a live corruption would be called dead) nor claim a write
//! that does not happen (a corruption would be called overwritten).
//!
//! For every opcode, instructions with random fields over all 32
//! registers (the zero register included, in every slot) are executed
//! from several machine states. A register counts as read when changing
//! only its value changes anything else the instruction produces; it
//! counts as written when its value after execution differs from its
//! value before. Memory bytes are probed the same way: the access kind,
//! address and size must name exactly the bytes read, and the bytes
//! whose value afterwards no longer depends on their value before.

use avf_isa::{
    AccessKind, ExecState, Footprint, Inst, MemAccess, Memory, Opcode, Operand, Outcome,
    ProgramBuilder, Reg,
};

/// SplitMix64: a small deterministic generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn reg(&mut self) -> Reg {
        Reg::of((self.next() % 32) as u8)
    }
}

const PC: u32 = 5;
/// Bytes either side of the effective address that are filled with
/// random data and probed.
const WINDOW: u64 = 16;

fn fresh_state(regs: [u64; 32]) -> ExecState {
    let mut b = ProgramBuilder::new("probe");
    b.halt();
    let program = b.build().expect("a one-instruction program builds");
    let mut st = ExecState::new(&program, &mut Memory::new());
    st.regs = regs;
    st
}

/// Everything one execution from `st` and `mem` produces: its outcome,
/// the registers after it (register `skip` blanked) and the memory
/// after it.
fn effect(
    st: &ExecState,
    mem: &Memory,
    inst: &Inst,
    skip: Option<usize>,
) -> (Outcome, [u64; 32], Memory) {
    let mut st = st.clone();
    let mut mem = mem.clone();
    let out = st.exec_inst(inst, PC, &mut mem);
    if let Some(r) = skip {
        st.regs[r] = 0;
    }
    (out, st.regs, mem)
}

/// Checks one instruction from one register state; returns the
/// registers seen read and written.
fn check_state(inst: &Inst, regs: [u64; 32], rng: &mut Rng) -> (u32, u32) {
    let st = fresh_state(regs);
    let out = st.clone().exec_inst(inst, PC, &mut Memory::new());
    let fp = Footprint::of(inst, &out);
    // Random bytes around the effective address (or anywhere, for a
    // non-memory instruction).
    let centre = out.ea.unwrap_or(0x4000);
    let window = centre.saturating_sub(WINDOW)..centre.saturating_add(WINDOW + 8);
    let mut mem = Memory::new();
    for addr in window.clone() {
        mem.write_u8(addr, rng.next() as u8);
    }
    assert_eq!(st.clone().exec_inst(inst, PC, &mut mem.clone()).ea, out.ea);

    let mut read = 0u32;
    for r in 0..32 {
        let base = effect(&st, &mem, inst, Some(r));
        for flip in [1u64, 1 << 63, rng.next() | 1] {
            let mut other = st.clone();
            other.regs[r] ^= flip;
            if effect(&other, &mem, inst, Some(r)) != base {
                read |= 1 << r;
            }
        }
    }
    let (base_out, base_regs, after_mem) = effect(&st, &mem, inst, None);
    let written = base_regs
        .iter()
        .zip(&st.regs)
        .enumerate()
        .filter(|(_, (after, before))| after != before)
        .fold(0u32, |mask, (r, _)| mask | 1 << r);

    // Memory bytes: which ones the instruction reads, which it changes.
    let mut bytes_read = Vec::new();
    let mut bytes_written = Vec::new();
    for addr in window {
        let mut probed = mem.clone();
        probed.write_u8(addr, mem.read_u8(addr) ^ 0xFF);
        let (o, regs, probed_after) = effect(&st, &probed, inst, None);
        if (o, regs) != (base_out, base_regs) {
            bytes_read.push(addr);
        }
        // Written: the byte's value afterwards no longer depends on its
        // value before.
        if probed_after.read_u8(addr) == after_mem.read_u8(addr) {
            bytes_written.push(addr);
        }
    }
    let range = |m: &MemAccess| (m.ea..m.ea + m.size.bytes()).collect::<Vec<_>>();
    match fp.mem {
        None => {
            assert!(bytes_read.is_empty(), "{inst:?} reads {bytes_read:x?}");
            assert!(
                bytes_written.is_empty(),
                "{inst:?} writes {bytes_written:x?}"
            );
        }
        Some(m) => {
            assert_eq!(Some(m.ea), out.ea, "{inst:?}");
            assert_eq!(Some(m.size), inst.op.access_size(), "{inst:?}");
            match m.kind {
                AccessKind::Load => {
                    assert!(inst.op.is_load(), "{inst:?}");
                    assert_eq!(bytes_read, range(&m), "{inst:?} bytes read");
                    assert!(bytes_written.is_empty(), "{inst:?}");
                }
                AccessKind::Store => {
                    assert!(inst.op.is_store(), "{inst:?}");
                    assert!(bytes_read.is_empty(), "{inst:?} reads {bytes_read:x?}");
                    assert_eq!(bytes_written, range(&m), "{inst:?} bytes written");
                }
            }
        }
    }
    (read, written)
}

#[test]
fn footprints_equal_what_exec_inst_reads_and_writes() {
    let mut rng = Rng(0x5EED);
    for op in Opcode::ALL {
        for _ in 0..150 {
            let src2 = if rng.next().is_multiple_of(3) {
                Operand::Imm((rng.next() % 64) as i16 - 32)
            } else {
                Operand::Reg(rng.reg())
            };
            let inst = Inst {
                op,
                dest: rng.reg(),
                src1: rng.reg(),
                src2,
                disp: (rng.next() % 256) as i32,
                target: (rng.next() % 64) as u32,
            };
            // Random values, one value everywhere, all zeroes and all
            // equal to the immediate: the latter expose the reads of
            // compare-for-equality and branch-on-zero instructions.
            let same = rng.next();
            let mut states = vec![[0u64; 32], [same; 32]];
            let mut random = [0u64; 32];
            for v in &mut random {
                *v = rng.next();
            }
            states.push(random);
            if let Operand::Imm(v) = src2 {
                // Every register equal to the immediate.
                states.push([v as i64 as u64; 32]);
            }
            // A memory operand's base is steered into a small region.
            if op.is_mem() {
                for s in &mut states {
                    s[inst.src1.index()] = 0x10_0000 + (s[inst.src1.index()] % 4096);
                }
            }
            let fp = Footprint::of(
                &inst,
                &fresh_state(states[0]).exec_inst(&inst, PC, &mut Memory::new()),
            );
            let (mut read, mut written) = (0u32, 0u32);
            for regs in states {
                let (r, w) = check_state(&inst, regs, &mut rng);
                read |= r;
                written |= w;
            }
            assert_eq!(read & !fp.reads, 0, "{inst:?}: unrecorded read");
            // Two operands can cancel: both slots naming one register
            // (`sub r1, r8, r8` is 0 whatever r8 holds), or a constant
            // zero absorbing the other (`and r1, r31, r13`). The read is
            // then recorded though no value shows it. Otherwise the
            // recorded reads are exactly the observed ones.
            let operands = [Some(inst.src1), inst.src2.reg()];
            let absorbing = operands.contains(&Some(Reg::ZERO)) || inst.src2 == Operand::Imm(0);
            if inst.src2.reg() != Some(inst.src1) && !absorbing {
                assert_eq!(fp.reads, read, "{inst:?}: registers read");
            }
            assert_eq!(written & !fp.writes, 0, "{inst:?}: unrecorded write");
            // A recorded write that never changed its register is an
            // identity update of a register the instruction also reads
            // (`or r5, r5, r5`), which the read already keeps live.
            assert_eq!(
                fp.writes & !written & !fp.reads,
                0,
                "{inst:?}: recorded write that never happens"
            );
        }
    }
}
