//! # avf-isa
//!
//! A compact Alpha-like 64-bit load/store ISA used as the target of the AVF
//! stressmark code generator and as the input language of the cycle-level
//! simulator (`avf-sim`).
//!
//! The ISA deliberately mirrors the structural properties the paper's code
//! generator manipulates (Nair, John & Eeckhout, *AVF Stressmark*, MICRO
//! 2010, Section IV):
//!
//! * 32 integer registers with a hardwired zero register ([`Reg::ZERO`]),
//! * single-cycle ALU operations and a long-latency multiply,
//! * 4- and 8-byte loads and stores (operand width drives ACE bit counts),
//! * register/immediate operand forms (the *register usage* knob),
//! * simple conditional branches against zero.
//!
//! Programs carry a data segment so that a generated kernel is fully
//! self-contained (the equivalent of the paper's "dump memory to file" step).
//!
//! ## Example
//!
//! ```
//! use avf_isa::{ProgramBuilder, Reg, Operand, ExecState, Memory};
//!
//! let r1 = Reg::new(1).unwrap();
//! let mut b = ProgramBuilder::new("demo");
//! b.addi(r1, Reg::ZERO, 41);
//! b.addi(r1, r1, 1);
//! b.halt();
//! let program = b.build().unwrap();
//!
//! let mut mem = Memory::new();
//! let mut state = ExecState::new(&program, &mut mem);
//! while state.step(&program, &mut mem).unwrap() {}
//! assert_eq!(state.regs[1], 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod disasm;
mod error;
mod exec;
mod inst;
mod memory;
mod opcode;
mod program;
mod reg;
pub mod wire;

pub use builder::{Label, ProgramBuilder};
pub use disasm::listing;
pub use error::IsaError;
pub use exec::{replay_eval, AccessKind, ExecState, Footprint, MemAccess, Outcome};
pub use inst::{Inst, Operand};
pub use memory::{Memory, PAGE_BYTES};
pub use opcode::{AccessSize, OpClass, Opcode};
pub use program::{DataSegment, Program};
pub use reg::Reg;

/// Byte address at which instruction memory is mapped.
///
/// Instruction index `i` lives at `TEXT_BASE + 4 * i`; the simulator uses
/// these addresses for I-cache indexing.
pub const TEXT_BASE: u64 = 0x0010_0000;

/// Default byte address at which a program's [`DataSegment`] is mapped.
pub const DATA_BASE: u64 = 0x1000_0000;

/// Converts an instruction index into its byte address in instruction memory.
#[inline]
pub fn text_addr(index: u32) -> u64 {
    TEXT_BASE + 4 * u64::from(index)
}
