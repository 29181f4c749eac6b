use avf_isa::{Inst, Outcome};

/// Pipeline stage of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Dispatched, waiting in the issue queue.
    InIq,
    /// Issued, executing in a function unit or the memory system.
    Executing,
    /// Finished execution, waiting to commit.
    Complete,
}

/// One in-flight dynamic instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynInst {
    /// Fetch sequence number (program-order identity).
    pub seq: u64,
    /// Instruction index (PC).
    pub pc: u32,
    /// Static instruction.
    pub inst: Inst,
    /// Fetched down a mispredicted path; will be squashed.
    pub wrong_path: bool,
    /// Right-path branch whose prediction was wrong (triggers recovery when
    /// it executes).
    pub mispredicted: bool,
    /// Direction predicted at fetch (branches only).
    pub predicted_taken: bool,
    /// Functional outcome from the oracle (right-path only).
    pub outcome: Option<Outcome>,
    /// Current stage.
    pub stage: Stage,
    /// Cycle of dispatch into ROB/IQ.
    pub dispatch_cycle: u64,
    /// Cycle of issue out of the IQ.
    pub issue_cycle: u64,
    /// Cycle execution finishes (data back for loads).
    pub complete_cycle: u64,
    /// For loads: cycle the data returned and the LQ data field became ACE.
    pub data_return_cycle: u64,
    /// Renamed destination physical register.
    pub dest_preg: Option<u32>,
    /// Previous speculative mapping of the destination (freed at commit).
    pub prev_preg: Option<u32>,
    /// Renamed source physical registers, aligned with
    /// [`Inst::src_regs`]'s slots.
    pub src_pregs: [Option<u32>; 2],
    /// Source-operand values the architectural oracle read when this
    /// instruction executed at fetch, aligned with [`Inst::src_regs`]'s
    /// slots (0 for empty slots and for wrong-path work, which never
    /// executes). The micro-op replay oracle re-executes corrupted
    /// entries from these.
    pub src_vals: [u64; 2],
}

impl DynInst {
    /// Creates a freshly-fetched instruction.
    #[must_use]
    pub fn new(seq: u64, pc: u32, inst: Inst) -> DynInst {
        DynInst {
            seq,
            pc,
            inst,
            wrong_path: false,
            mispredicted: false,
            predicted_taken: false,
            outcome: None,
            stage: Stage::InIq,
            dispatch_cycle: 0,
            issue_cycle: 0,
            complete_cycle: 0,
            data_return_cycle: 0,
            dest_preg: None,
            prev_preg: None,
            src_pregs: [None; 2],
            src_vals: [0; 2],
        }
    }

    /// Whether this instruction has finished executing by `cycle`.
    #[must_use]
    pub fn is_complete(&self, cycle: u64) -> bool {
        self.stage == Stage::Complete && self.complete_cycle <= cycle
    }
}

/// Field of the 32-bit IQ entry encoding (Table I) a flipped bit lands
/// in: one byte of opcode, one byte per source-operand tag, one byte of
/// destination tag. The replay oracle re-decodes the corrupted byte
/// back into a (possibly different) micro-op instead of trapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IqField {
    /// Opcode byte; payload is the bit within the byte.
    Opcode(u8),
    /// Source-operand physical-register tag; payload is the
    /// [`avf_isa::Inst::src_regs`] slot and the bit within the byte.
    SrcTag(usize, u8),
    /// Destination physical-register tag; payload is the bit within
    /// the byte.
    DestTag(u8),
}

/// Maps a bit of the 32-bit IQ entry to its field.
///
/// # Panics
///
/// Panics if `bit` is outside the 32-bit entry.
pub(crate) fn iq_field_of(bit: u32) -> IqField {
    let b = (bit % 8) as u8;
    match bit / 8 {
        0 => IqField::Opcode(b),
        1 => IqField::SrcTag(0, b),
        2 => IqField::SrcTag(1, b),
        3 => IqField::DestTag(b),
        _ => panic!("bit {bit} outside the 32-bit IQ entry"),
    }
}

/// Field of the ROB entry's 12-bit control half (Table I's 76-bit entry
/// minus the 64-bit result field) a flipped bit lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RobControlField {
    /// Destination physical-register tag (8 bits); payload is the bit
    /// within the tag.
    DestTag(u8),
    /// Completion-status / stage encoding (2 bits); payload is the bit
    /// within the code.
    Status(u8),
    /// Speculation bookkeeping (wrong-path, mispredict-pending).
    PathFlag,
}

/// Maps a bit of the control half (`0..12`, i.e. entry bit minus 64) to
/// its field.
///
/// # Panics
///
/// Panics if `ctl_bit` is outside the 12-bit control half.
pub(crate) fn rob_control_field_of(ctl_bit: u32) -> RobControlField {
    match ctl_bit {
        0..=7 => RobControlField::DestTag(ctl_bit as u8),
        8..=9 => RobControlField::Status((ctl_bit - 8) as u8),
        10..=11 => RobControlField::PathFlag,
        _ => panic!("bit {ctl_bit} outside the 12-bit ROB control half"),
    }
}
