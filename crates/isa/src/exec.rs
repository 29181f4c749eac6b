use crate::error::IsaError;
use crate::inst::{Inst, Operand};
use crate::memory::Memory;
use crate::opcode::{AccessSize, OpClass, Opcode};
use crate::program::Program;
use crate::reg::Reg;

/// Everything the pipeline model needs to know about one executed
/// instruction: its control-flow outcome, effective address, and the value it
/// produced.
///
/// The simulator executes instructions functionally at dispatch (an oracle,
/// SimpleScalar-style) and replays these outcomes through its timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Index of the next instruction on the architected path.
    pub next_pc: u32,
    /// For branches: whether the branch was taken.
    pub taken: bool,
    /// For memory operations: the effective byte address.
    pub ea: Option<u64>,
    /// For memory operations: the access width.
    pub size: Option<AccessSize>,
    /// Register result (loads, ALU ops) or store data.
    pub value: u64,
    /// Whether this instruction halts the machine.
    pub halted: bool,
}

/// Whether a memory access reads memory or writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load: reads the accessed bytes.
    Load,
    /// A store: overwrites the accessed bytes.
    Store,
}

/// One executed instruction's memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Read or write.
    pub kind: AccessKind,
    /// First byte accessed.
    pub ea: u64,
    /// Width: the access covers `ea..ea + size.bytes()`.
    pub size: AccessSize,
}

/// The architected state one execution of an instruction reads and
/// writes: what [`ExecState::exec_inst`] touched, derived from the
/// instruction and its [`Outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Footprint {
    /// Bit `r` set: register `r` was read. The hardwired zero register
    /// is never read (it reads as 0 whatever its slot holds).
    pub reads: u32,
    /// Bit `r` set: register `r` was written. Writes to the zero
    /// register are discarded, so it is never written either.
    pub writes: u32,
    /// The memory access, if any.
    pub mem: Option<MemAccess>,
}

impl Footprint {
    /// The footprint of `inst` executed with outcome `out`.
    #[must_use]
    pub fn of(inst: &Inst, out: &Outcome) -> Footprint {
        let mask = |r: Option<Reg>| r.map_or(0, |r| 1u32 << r.number());
        let [s1, s2] = inst.src_regs();
        let kind = match inst.op.class() {
            OpClass::Load => Some(AccessKind::Load),
            OpClass::Store => Some(AccessKind::Store),
            _ => None,
        };
        Footprint {
            reads: mask(s1) | mask(s2),
            writes: mask(inst.dest_reg()),
            mem: kind.map(|kind| MemAccess {
                kind,
                ea: out.ea.expect("memory op has an effective address"),
                size: out.size.expect("memory op has an access size"),
            }),
        }
    }
}

/// Architected state of the functional machine: 32 registers and a PC
/// expressed as an instruction index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecState {
    /// Register file; index 31 always reads zero.
    pub regs: [u64; 32],
    /// Current instruction index.
    pub pc: u32,
    /// Number of instructions executed so far.
    pub retired: u64,
    halted: bool,
}

impl ExecState {
    /// Creates the initial state for `program`, loading its data segment
    /// into `mem`.
    pub fn new(program: &Program, mem: &mut Memory) -> ExecState {
        program.data().load_into(mem);
        ExecState {
            regs: [0; 32],
            pc: program.entry(),
            retired: 0,
            halted: false,
        }
    }

    /// Whether `self` equals `other` in everything but the register
    /// values: PC, instruction count and halt flag.
    #[must_use]
    pub fn same_control(&self, other: &ExecState) -> bool {
        let ExecState {
            regs: _,
            pc,
            retired,
            halted,
        } = self;
        (*pc, *retired, *halted) == (other.pc, other.retired, other.halted)
    }

    /// Whether the machine has executed a [`Opcode::Halt`].
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Reads a register (the zero register reads as 0).
    #[inline]
    #[must_use]
    pub fn reg(&self, r: crate::Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    fn operand(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v as i64 as u64,
        }
    }

    /// Executes the single instruction at the current PC, updating
    /// architected state and memory, and returns its [`Outcome`].
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::PcOutOfRange`] if the PC has left the text (a
    /// validated program that always loops or halts never does this).
    pub fn exec(&mut self, program: &Program, mem: &mut Memory) -> Result<Outcome, IsaError> {
        let pc = self.pc;
        let inst = *program.fetch(pc).ok_or(IsaError::PcOutOfRange(pc))?;
        let outcome = self.exec_inst(&inst, pc, mem);
        self.pc = outcome.next_pc;
        self.retired += 1;
        self.halted = outcome.halted;
        Ok(outcome)
    }

    /// Executes one step and reports whether the machine is still running.
    ///
    /// # Errors
    ///
    /// Propagates [`IsaError`] from [`ExecState::exec`].
    pub fn step(&mut self, program: &Program, mem: &mut Memory) -> Result<bool, IsaError> {
        if self.halted {
            return Ok(false);
        }
        let out = self.exec(program, mem)?;
        Ok(!out.halted)
    }

    /// Executes `inst` as if it were at index `pc`, without touching the PC
    /// bookkeeping. Used by the simulator's oracle.
    pub fn exec_inst(&mut self, inst: &Inst, pc: u32, mem: &mut Memory) -> Outcome {
        let fall_through = pc + 1;
        let mut out = Outcome {
            next_pc: fall_through,
            taken: false,
            ea: None,
            size: None,
            value: 0,
            halted: false,
        };
        match inst.op.class() {
            OpClass::IntShort | OpClass::IntLong => {
                let a = self.reg(inst.src1);
                let b = self.operand(inst.src2);
                let v = alu_op(inst.op, a, b);
                out.value = v;
                self.write_reg(inst.dest, v);
            }
            OpClass::Load => {
                let ea = self.reg(inst.src1).wrapping_add(inst.disp as i64 as u64);
                let size = inst.op.access_size().expect("load has a size");
                let v = match size {
                    AccessSize::Word => u64::from(mem.read_u32(ea)),
                    AccessSize::Quad => mem.read_u64(ea),
                };
                out.ea = Some(ea);
                out.size = Some(size);
                out.value = v;
                self.write_reg(inst.dest, v);
            }
            OpClass::Store => {
                let ea = self.reg(inst.src1).wrapping_add(inst.disp as i64 as u64);
                let size = inst.op.access_size().expect("store has a size");
                let data = self.operand(inst.src2);
                match size {
                    AccessSize::Word => mem.write_u32(ea, data as u32),
                    AccessSize::Quad => mem.write_u64(ea, data),
                }
                out.ea = Some(ea);
                out.size = Some(size);
                out.value = data;
            }
            OpClass::Branch => {
                let taken = match inst.op {
                    Opcode::Br => true,
                    Opcode::Beq => self.reg(inst.src1) == 0,
                    Opcode::Bne => self.reg(inst.src1) != 0,
                    Opcode::Blt => (self.reg(inst.src1) as i64) < 0,
                    Opcode::Bge => (self.reg(inst.src1) as i64) >= 0,
                    _ => unreachable!("non-branch in branch class"),
                };
                out.taken = taken;
                out.next_pc = if taken { inst.target } else { fall_through };
            }
            OpClass::Nop => {}
            OpClass::Halt => {
                out.halted = true;
                out.next_pc = pc;
            }
        }
        out
    }

    #[inline]
    fn write_reg(&mut self, r: crate::Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }
}

/// Pure functional re-execution of one instruction with *supplied*
/// source-register values: the micro-op replay oracle's evaluator.
///
/// `src1`/`src2` are the values of the instruction's two source-register
/// slots (aligned with [`Inst::src_regs`]; a slot that is an immediate,
/// the zero register, or unused is ignored — pass anything). Unlike
/// [`ExecState::exec_inst`], nothing is mutated: loads read `mem`, and a
/// store's write is *computed* (effective address and data in the
/// returned [`Outcome`]) but not applied, so a fault-injection engine
/// can first decide whether the replayed micro-op diverges from its
/// original outcome and only then commit the side effect.
#[must_use]
pub fn replay_eval(inst: &Inst, pc: u32, src1: u64, src2: u64, mem: &Memory) -> Outcome {
    let fall_through = pc + 1;
    let mut out = Outcome {
        next_pc: fall_through,
        taken: false,
        ea: None,
        size: None,
        value: 0,
        halted: false,
    };
    let reg_or = |r: Reg, v: u64| if r.is_zero() { 0 } else { v };
    let operand2 = match inst.src2 {
        Operand::Reg(r) => reg_or(r, src2),
        Operand::Imm(v) => v as i64 as u64,
    };
    match inst.op.class() {
        OpClass::IntShort | OpClass::IntLong => {
            out.value = alu_op(inst.op, reg_or(inst.src1, src1), operand2);
        }
        OpClass::Load => {
            let ea = reg_or(inst.src1, src1).wrapping_add(inst.disp as i64 as u64);
            let size = inst.op.access_size().expect("load has a size");
            out.ea = Some(ea);
            out.size = Some(size);
            out.value = match size {
                AccessSize::Word => u64::from(mem.read_u32(ea)),
                AccessSize::Quad => mem.read_u64(ea),
            };
        }
        OpClass::Store => {
            let ea = reg_or(inst.src1, src1).wrapping_add(inst.disp as i64 as u64);
            out.ea = Some(ea);
            out.size = Some(inst.op.access_size().expect("store has a size"));
            out.value = operand2;
        }
        OpClass::Branch => {
            let cond = reg_or(inst.src1, src1);
            let taken = match inst.op {
                Opcode::Br => true,
                Opcode::Beq => cond == 0,
                Opcode::Bne => cond != 0,
                Opcode::Blt => (cond as i64) < 0,
                Opcode::Bge => (cond as i64) >= 0,
                _ => unreachable!("non-branch in branch class"),
            };
            out.taken = taken;
            out.next_pc = if taken { inst.target } else { fall_through };
        }
        OpClass::Nop => {}
        OpClass::Halt => {
            out.halted = true;
            out.next_pc = pc;
        }
    }
    out
}

fn alu_op(op: Opcode, a: u64, b: u64) -> u64 {
    match op {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Sll => a.wrapping_shl((b & 63) as u32),
        Opcode::Srl => a.wrapping_shr((b & 63) as u32),
        Opcode::Cmplt => u64::from((a as i64) < (b as i64)),
        Opcode::Cmpeq => u64::from(a == b),
        Opcode::Mul => a.wrapping_mul(b),
        _ => unreachable!("non-ALU opcode in alu_op"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataSegment, ProgramBuilder, Reg};

    fn r(n: u8) -> Reg {
        Reg::of(n)
    }

    fn run(b: ProgramBuilder) -> (ExecState, Memory) {
        let program = b.build().unwrap();
        let mut mem = Memory::new();
        let mut st = ExecState::new(&program, &mut mem);
        for _ in 0..10_000 {
            if !st.step(&program, &mut mem).unwrap() {
                break;
            }
        }
        (st, mem)
    }

    #[test]
    fn arithmetic_and_immediates() {
        let mut b = ProgramBuilder::new("t");
        b.addi(r(1), Reg::ZERO, 10);
        b.addi(r(2), Reg::ZERO, 3);
        b.alu_rr(Opcode::Sub, r(3), r(1), r(2));
        b.alu_rr(Opcode::Mul, r(4), r(3), r(1));
        b.halt();
        let (st, _) = run(b);
        assert_eq!(st.regs[3], 7);
        assert_eq!(st.regs[4], 70);
    }

    #[test]
    fn loads_and_stores() {
        let mut data = DataSegment::zeroed(64);
        data.put_u64(0, 0x1111_2222_3333_4444);
        let base = data.base;
        let mut b = ProgramBuilder::new("t").with_data(data);
        b.load_addr(r(1), base);
        b.ldq(r(2), r(1), 0);
        b.stq(r(2), r(1), 8);
        b.stl(r(2), r(1), 16);
        b.ldl(r(3), r(1), 16);
        b.halt();
        let (st, mem) = run(b);
        assert_eq!(st.regs[2], 0x1111_2222_3333_4444);
        assert_eq!(mem.read_u64(base + 8), 0x1111_2222_3333_4444);
        // 4-byte store truncates; 4-byte load zero-extends.
        assert_eq!(st.regs[3], 0x3333_4444);
    }

    #[test]
    fn loop_with_conditional_branch() {
        let mut b = ProgramBuilder::new("t");
        b.addi(r(1), Reg::ZERO, 5); // counter
        b.addi(r(2), Reg::ZERO, 0); // accumulator
        let top = b.here();
        b.alu_ri(Opcode::Add, r(2), r(2), 2);
        b.alu_ri(Opcode::Sub, r(1), r(1), 1);
        b.bne(r(1), top);
        b.halt();
        let (st, _) = run(b);
        assert_eq!(st.regs[2], 10);
        assert_eq!(st.regs[1], 0);
    }

    #[test]
    fn halt_stops_machine() {
        let mut b = ProgramBuilder::new("t");
        b.addi(r(1), Reg::ZERO, 1);
        b.halt();
        b.addi(r(1), Reg::ZERO, 99); // unreachable
        let (st, _) = run(b);
        assert!(st.is_halted());
        assert_eq!(st.regs[1], 1);
        assert_eq!(st.retired, 2);
    }

    #[test]
    fn comparison_ops() {
        let mut b = ProgramBuilder::new("t");
        b.addi(r(1), Reg::ZERO, -5);
        b.addi(r(2), Reg::ZERO, 5);
        b.alu_rr(Opcode::Cmplt, r(3), r(1), r(2));
        b.alu_rr(Opcode::Cmpeq, r(4), r(1), r(2));
        b.alu_rr(Opcode::Cmpeq, r(5), r(2), r(2));
        b.halt();
        let (st, _) = run(b);
        assert_eq!(st.regs[3], 1);
        assert_eq!(st.regs[4], 0);
        assert_eq!(st.regs[5], 1);
    }

    #[test]
    fn pointer_chase_follows_chain() {
        // data[0] -> base+16 -> base+32 (a 3-hop pointer chain)
        let mut data = DataSegment::zeroed(64);
        let base = data.base;
        data.put_u64(0, base + 16);
        data.put_u64(16, base + 32);
        data.put_u64(32, 0x77);
        let mut b = ProgramBuilder::new("t").with_data(data);
        b.load_addr(r(1), base);
        b.ldq(r(1), r(1), 0);
        b.ldq(r(1), r(1), 0);
        b.ldq(r(1), r(1), 0);
        b.halt();
        let (st, _) = run(b);
        assert_eq!(st.regs[1], 0x77);
    }
}
