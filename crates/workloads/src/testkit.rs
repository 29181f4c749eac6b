//! Tiny deterministic kernels shared by the fault-injection test
//! suites (they are not part of the 33-program proxy suite).
//!
//! The campaign tests in `avf-inject` and the loopback determinism
//! tests in `avf-service` must exercise *the same* workload — a drifted
//! copy would silently decouple what those suites measure — so the
//! kernels live here, next to the other synthetic programs.

use avf_isa::{Opcode, Program, ProgramBuilder, Reg, DATA_BASE};

/// The mixed-liveness kernel of the campaign tests: a live accumulator
/// chain plus stores, so structures converge at very different rates.
///
/// Sixteen registers stay architecturally live across the whole loop —
/// every iteration folds each of them into a stored accumulator and
/// then updates them in place — the paper's long dependency-distance
/// pattern, the shape that maximizes register-file AVF.
#[must_use]
pub fn register_chain() -> Program {
    let acc = Reg::of(1);
    let counter = Reg::of(2);
    let base = Reg::of(3);
    let mut b = ProgramBuilder::new("register-chain");
    b.addi(counter, Reg::ZERO, 200);
    b.load_addr(base, DATA_BASE);
    b.addi(acc, Reg::ZERO, 1);
    for k in 8..24u8 {
        b.addi(Reg::of(k), Reg::ZERO, i16::from(k));
    }
    let top = b.here();
    for k in 8..24u8 {
        b.alu_rr(Opcode::Xor, acc, acc, Reg::of(k));
    }
    for k in 8..24u8 {
        b.alu_ri(Opcode::Add, Reg::of(k), Reg::of(k), i16::from(k));
    }
    b.stq(acc, base, 0);
    b.subi(counter, counter, 1);
    b.bne(counter, top);
    b.halt();
    b.build().expect("valid program")
}

/// A deliberately un-ACE kernel at the opposite extreme: every
/// iteration computes values into registers that the next iteration
/// unconditionally overwrites, and nothing is ever stored. The only
/// live state is the loop counter and the (constant) operand
/// registers, so almost every flip must be masked.
#[must_use]
pub fn idle_loop() -> Program {
    let counter = Reg::of(1);
    let mut b = ProgramBuilder::new("idle-loop");
    b.addi(counter, Reg::ZERO, 400);
    let top = b.here();
    for dead in 8..16u8 {
        b.addi(Reg::of(dead), Reg::ZERO, i16::from(dead));
    }
    b.subi(counter, counter, 1);
    b.bne(counter, top);
    b.halt();
    b.build().expect("valid program")
}

/// A kernel that moves 64 lines through the whole cache hierarchy of the
/// paper-baseline machine (2-way 64 kB DL1, direct-mapped 1 MB L2,
/// 64-byte lines), one pass over the lines per step: it stores to each
/// line; evicts each dirty from the DL1 into the L2 with two loads that
/// map to its DL1 set (32 kB apart); loads each line's last quad back
/// out of the L2; and loads the line 1 MB above each, whose L2 fill
/// writes the dirty line back to memory.
#[must_use]
pub fn line_churn() -> Program {
    const LINES: i16 = 64;
    const SET_STRIDE: i32 = 32 << 10;
    const L2_STRIDE: i32 = 1 << 20;
    let (offset, counter, data, sink) = (Reg::of(1), Reg::of(2), Reg::of(3), Reg::of(4));
    let line = DATA_BASE as i32 + 0x1000;
    let mut b = ProgramBuilder::new("line-churn");
    b.addi(data, Reg::ZERO, 0x55);
    let each_line = |b: &mut ProgramBuilder, body: &dyn Fn(&mut ProgramBuilder)| {
        b.addi(offset, Reg::ZERO, 0);
        b.addi(counter, Reg::ZERO, LINES);
        let top = b.here();
        body(b);
        b.addi(offset, offset, 64);
        b.subi(counter, counter, 1);
        b.bne(counter, top);
    };
    each_line(&mut b, &|b| b.stq(data, offset, line));
    each_line(&mut b, &|b| {
        b.ldq(sink, offset, line + SET_STRIDE);
        b.ldq(sink, offset, line + 2 * SET_STRIDE);
    });
    each_line(&mut b, &|b| b.ldq(sink, offset, line + 56));
    each_line(&mut b, &|b| b.ldq(sink, offset, line + L2_STRIDE));
    b.halt();
    b.build().expect("valid program")
}
