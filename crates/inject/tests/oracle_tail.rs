//! Oracle-tail verdicts equal full-tail verdicts.
//!
//! When an armed trial's active state equals the golden run's state at
//! its flip or at a golden checkpoint but a live register or byte
//! differs, `settle_trial` runs the trial's oracle alone to the end of
//! the run and checks every effective address and branch direction
//! against the golden pass's outcome stream from that position on. If
//! all match, the machine runs the golden timing and the verdict follows
//! from the poisoned DTLB entry and the oracle's final memory.
//!
//! The property test checks, on the testkit kernels, the stressmark, the
//! `429.mcf` proxy (all at reduced budgets) and a kernel whose registers
//! steer loads and branches after a pause, under both fault models, that
//! the settled verdict is the full tail's, that a trial the oracle tail
//! settles really runs the golden timing (its full tail ends on the
//! golden run's last cycle), and that no trial runs more than one oracle
//! pass, the flip included. The deterministic kernels show each case on
//! a small program, live at the flip and at the first checkpoint after
//! it: data that is only stored (SDC) or ANDed away (Masked), a
//! corrupted base register and a flipped branch over arithmetic (full
//! tail), a corrupted branch operand that keeps its direction (settled
//! at the flip), and a live register next to a poisoned DTLB page that
//! the golden run hits later (DUE).

use std::sync::OnceLock;

use avf_codegen::{generate, Knobs, TargetParams};
use avf_inject::{
    cycle_budget_of, golden_run_checkpointed, settle_trial, DecodedCheckpoints, FaultModel,
    FlipEffect, InjectionTarget, Outcome, SamplingPlan, Settled, Trial, TrialEnd,
};
use avf_isa::{Label, Opcode, Program, ProgramBuilder, Reg, DATA_BASE};
use avf_sim::{GoldenRun, InjectionSim, Judgement, MachineConfig, RunEnd, Verdict};
use avf_workloads::testkit::{idle_loop, register_chain};
use proptest::prelude::*;

struct Fixture {
    machine: MachineConfig,
    program: Program,
    budget: u64,
    golden: GoldenRun,
    checkpoints: DecodedCheckpoints,
}

fn fixture(machine: MachineConfig, program: Program, budget: u64, interval: u64) -> Fixture {
    let (golden, checkpoints) = golden_run_checkpointed(&machine, &program, budget, interval);
    Fixture {
        machine,
        program,
        budget,
        golden,
        checkpoints,
    }
}

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

/// Registers [`late_readers`] sets up before its pause: load bases, then
/// branch conditions, then stored data.
const READERS: std::ops::Range<u8> = 8..20;

/// A kernel whose registers are read only after a pause, so that a
/// corrupted one is live at the checkpoints in between: r8..r11 are
/// bases of loads from warm lines (any flip above bit 5 moves the load
/// to a cold line, which changes its latency), r12..r15 are conditions
/// of branches on zero over a chain of multiplies (any flip changes
/// their direction, but no memory access), and r16..r19 are data that
/// is only stored.
fn late_readers() -> Program {
    let (r1, product) = (Reg::of(1), Reg::of(22));
    let line = |k: u8| DATA_BASE as i32 + 64 * i32::from(k);
    let mut b = ProgramBuilder::new("late-readers");
    for k in 16..20 {
        b.addi(Reg::of(k), Reg::ZERO, i16::from(k));
    }
    b.addi(product, Reg::ZERO, 3);
    for k in 8..12 {
        b.ldq(Reg::of(20), Reg::ZERO, line(k));
    }
    b.addi(r1, Reg::ZERO, 300);
    let top = b.here();
    b.subi(r1, r1, 1);
    b.bne(r1, top);
    for k in 8..12 {
        b.ldq(Reg::of(21), Reg::of(k), line(k));
        b.stq(Reg::of(21), Reg::ZERO, line(k) + 8);
    }
    for k in 12..16 {
        multiplies_unless_zero(&mut b, ProgramBuilder::beq, Reg::of(k), product);
    }
    b.stq(product, Reg::ZERO, line(20));
    for k in 16..20 {
        b.stq(Reg::of(k), Reg::ZERO, line(k));
    }
    b.halt();
    b.build().expect("valid program")
}

/// A `branch` on `cond` over two dependent multiplies of `product`.
fn multiplies_unless_zero(
    b: &mut ProgramBuilder,
    branch: fn(&mut ProgramBuilder, Reg, Label),
    cond: Reg,
    product: Reg,
) {
    let over = b.label();
    branch(b, cond, over);
    b.alu_rr(Opcode::Mul, product, product, product);
    b.alu_rr(Opcode::Mul, product, product, product);
    b.bind(over);
}

/// The testkit kernels, the stressmark and 429.mcf at 3k instructions,
/// and [`late_readers`].
fn fixtures() -> &'static [Fixture; 5] {
    static FIXTURES: OnceLock<[Fixture; 5]> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let m = MachineConfig::baseline;
        let mcf = avf_workloads::by_name("429.mcf")
            .expect("the 429.mcf proxy exists")
            .build();
        [
            fixture(m(), register_chain(), 3_000, 128),
            fixture(m(), idle_loop(), 3_000, 128),
            fixture(m(), stressmark(&m()), 3_000, 256),
            fixture(m(), mcf, 3_000, 256),
            fixture(m(), late_readers(), 3_000, 64),
        ]
    })
}

/// The [`late_readers`] fixture.
const LATE: usize = 4;

/// A campaign-configured simulator restored to the checkpoint at or
/// before `cycle`.
fn sim_at(fx: &Fixture, model: FaultModel, cycle: u64) -> InjectionSim<'_> {
    let (_, snap) = fx.checkpoints.nearest(cycle).expect("cycle-0 checkpoint");
    let mut sim = InjectionSim::from_snapshot(&fx.machine, &fx.program, fx.budget, snap);
    sim.set_cycle_budget(cycle_budget_of(fx.golden.cycles));
    sim.set_fault_model(model);
    sim
}

fn trial(target: InjectionTarget, entry: u64, bit: u32, cycle: u64) -> Trial {
    Trial {
        index: 0,
        target,
        cycle,
        entry,
        bit,
    }
}

/// Settles `t` early and in full, checks the property, and returns the
/// early settlement and the oracle passes it ran.
fn check(fx: &Fixture, model: FaultModel, t: &Trial) -> Result<(Settled, u64), String> {
    let mut sim = sim_at(fx, model, t.cycle);
    let early = settle_trial(&mut sim, t, fx.golden.digest, Some(&fx.checkpoints));
    let full = settle_trial(&mut sim_at(fx, model, t.cycle), t, fx.golden.digest, None);
    if early.outcome != full.outcome {
        return Err(format!(
            "{t:?} under {model}: {early:?}, full tail {full:?}"
        ));
    }
    if sim.oracle_passes() > 1 {
        return Err(format!(
            "{t:?} under {model}: {} oracle passes",
            sim.oracle_passes()
        ));
    }
    // An oracle pass that settles the trial, at the flip or at a
    // checkpoint.
    let on_oracle =
        sim.oracle_passes() == 1 && matches!(early.end, TrialEnd::AtFlip | TrialEnd::OracleTail);
    if on_oracle && early.outcome != Outcome::Due && t.cycle + full.tail_cycles != fx.golden.cycles
    {
        return Err(format!(
            "{t:?} under {model}: settled on the oracle, but its full tail ends at cycle {} \
             and the golden run at {}",
            t.cycle + full.tail_cycles,
            fx.golden.cycles
        ));
    }
    Ok((early, sim.oracle_passes()))
}

/// Target codes past `InjectionTarget::ALL` draw the register file
/// again: register corruption is what the oracle tail settles.
const EXTRA_RF_DRAWS: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn oracle_tail_verdicts_equal_the_full_tail(
        kernel in 0usize..5,
        trap: bool,
        target in 0usize..InjectionTarget::ALL.len() + EXTRA_RF_DRAWS,
        entry: u64,
        bit: u32,
        cycle: u64,
    ) {
        let fx = &fixtures()[kernel];
        let model = if trap { FaultModel::Trap } else { FaultModel::Replay };
        let target = InjectionTarget::ALL
            .get(target)
            .copied()
            .unwrap_or(InjectionTarget::RegFile);
        let sizes = fx.machine.structure_sizes();
        // The late readers' registers stay in the physical registers of
        // their own numbers: draw those.
        let entry = match (kernel, target) {
            (LATE, InjectionTarget::RegFile) => {
                u64::from(READERS.start) + entry % READERS.len() as u64
            }
            _ => entry % target.entries(&fx.machine),
        };
        let t = trial(
            target,
            entry,
            bit % target.entry_bits(&sizes),
            1 + cycle % (fx.golden.cycles - 1),
        );
        if let Err(e) = check(fx, model, &t) {
            prop_assert!(false, "{}", e);
        }
    }
}

#[test]
fn a_stressmark_campaign_settles_trials_on_the_oracle() {
    // The register and queue targets of a fixed plan on the stressmark:
    // every verdict is the full tail's, and the oracle tail really fires.
    let fx = &fixtures()[2];
    let targets = [
        InjectionTarget::RegFile,
        InjectionTarget::Rob,
        InjectionTarget::Iq,
        InjectionTarget::Lq,
    ];
    let plan = SamplingPlan::new(&fx.machine, &targets, 240, fx.golden.cycles, 7, None);
    let mut oracle = 0;
    for model in [FaultModel::Replay, FaultModel::Trap] {
        for t in plan.trials() {
            let (settled, passes) = check(fx, model, t).unwrap_or_else(|e| panic!("{e}"));
            oracle += usize::from(
                passes == 1 && matches!(settled.end, TrialEnd::AtFlip | TrialEnd::OracleTail),
            );
        }
    }
    assert!(oracle >= 10, "{oracle} trials settled on the oracle");
}

// ---- deterministic kernels -------------------------------------------------

const INTERVAL: u64 = 64;
const BUDGET: u64 = 100_000;

/// Registers no kernel writes: each stays in the physical register of
/// its own number and reads 0 throughout.
const DATA: u8 = 2;
const BASE: u8 = 4;
const COND: u8 = 6;

/// `prologue`, a 300-iteration register-only loop on r1, `epilogue`,
/// halt.
/// The loop reads none of the registers above.
fn after_a_pause(
    prologue: impl FnOnce(&mut ProgramBuilder),
    epilogue: impl FnOnce(&mut ProgramBuilder),
) -> Fixture {
    let r1 = Reg::of(1);
    let mut b = ProgramBuilder::new("pause");
    prologue(&mut b);
    b.addi(r1, Reg::ZERO, 300);
    let top = b.here();
    b.subi(r1, r1, 1);
    b.bne(r1, top);
    epilogue(&mut b);
    b.halt();
    let program = b.build().expect("valid program");
    fixture(MachineConfig::baseline(), program, BUDGET, INTERVAL)
}

/// Bit 3 of the never-written register `r`, flipped a third of the way
/// into the run, inside the pause.
fn flip_of(fx: &Fixture, r: u8) -> Trial {
    trial(
        InjectionTarget::RegFile,
        u64::from(r),
        3,
        fx.golden.cycles / 3,
    )
}

fn settle(fx: &Fixture, t: &Trial) -> (Settled, u64) {
    check(fx, FaultModel::Replay, t).unwrap_or_else(|e| panic!("{e}"))
}

/// Judges `t` at every golden checkpoint after its flip.
fn judgements(fx: &Fixture, t: &Trial) -> Vec<Judgement> {
    let mut sim = sim_at(fx, FaultModel::Replay, t.cycle);
    assert!(sim.run_to_cycle(t.cycle));
    assert_eq!(sim.flip_bit(t.target, t.entry, t.bit), FlipEffect::Armed);
    let mut out = Vec::new();
    for (cycle, snap) in fx.checkpoints.after(t.cycle) {
        if !sim.run_to_cycle(cycle) {
            break;
        }
        out.push(sim.judge(&fx.checkpoints, snap));
    }
    out
}

/// Judges `t` at its flip, against the state just before it.
fn judge_at_flip(fx: &Fixture, t: &Trial) -> Judgement {
    let mut sim = sim_at(fx, FaultModel::Replay, t.cycle);
    assert!(sim.run_to_cycle(t.cycle));
    let before = sim.snapshot();
    assert_eq!(sim.flip_bit(t.target, t.entry, t.bit), FlipEffect::Armed);
    sim.judge(&fx.checkpoints, &before)
}

/// Asserts `t` is live at its flip and at the first checkpoint after
/// it, runs one oracle pass, and ends `outcome` by `end` (the property's
/// checks included): settled on the oracle at the flip
/// ([`TrialEnd::AtFlip`], no tail), or by its full tail.
fn assert_ends(fx: &Fixture, t: &Trial, outcome: Outcome, end: TrialEnd) {
    assert_eq!(judge_at_flip(fx, t), Judgement::Live, "{t:?}");
    let js = judgements(fx, t);
    assert_eq!(js.first(), Some(&Judgement::Live), "{t:?}: {js:?}");
    let (settled, passes) = settle(fx, t);
    assert_eq!((settled.outcome, settled.end), (outcome, end), "{t:?}");
    assert_eq!(passes, 1, "{t:?}");
    if end == TrialEnd::AtFlip {
        assert_eq!(settled.tail_cycles, 0, "settled at the flip");
    }
}

#[test]
fn a_live_register_that_is_only_stored_decides_sdc() {
    let fx = after_a_pause(
        |_| {},
        |b| b.stq(Reg::of(DATA), Reg::ZERO, DATA_BASE as i32),
    );
    assert_ends(&fx, &flip_of(&fx, DATA), Outcome::Sdc, TrialEnd::AtFlip);
}

#[test]
fn a_value_anded_with_zero_before_it_is_stored_decides_masked() {
    let fx = after_a_pause(
        |_| {},
        |b| {
            b.alu_rr(Opcode::And, Reg::of(5), Reg::of(DATA), Reg::ZERO);
            b.stq(Reg::of(5), Reg::ZERO, DATA_BASE as i32);
        },
    );
    assert_ends(&fx, &flip_of(&fx, DATA), Outcome::Masked, TrialEnd::AtFlip);
}

#[test]
fn a_corrupted_base_register_runs_its_full_tail() {
    let fx = after_a_pause(
        |b| b.addi(Reg::of(5), Reg::ZERO, 0x55),
        |b| b.stq(Reg::of(5), Reg::of(BASE), DATA_BASE as i32),
    );
    assert_ends(&fx, &flip_of(&fx, BASE), Outcome::Sdc, TrialEnd::FullTail);
}

/// A `branch` on `COND` (which reads 0) over two multiplies of r5 (3),
/// then a store of r5: the two paths access the same addresses.
fn branch_over_a_product(branch: fn(&mut ProgramBuilder, Reg, Label)) -> Fixture {
    after_a_pause(
        |b| b.addi(Reg::of(5), Reg::ZERO, 3),
        |b| {
            multiplies_unless_zero(b, branch, Reg::of(COND), Reg::of(5));
            b.stq(Reg::of(5), Reg::ZERO, DATA_BASE as i32);
        },
    )
}

#[test]
fn a_branch_operand_that_keeps_its_direction_decides_early() {
    // 0 >= 0 and 8 >= 0: taken either way.
    let fx = branch_over_a_product(ProgramBuilder::bge);
    assert_ends(&fx, &flip_of(&fx, COND), Outcome::Masked, TrialEnd::AtFlip);
}

#[test]
fn a_branch_operand_that_flips_its_direction_runs_its_full_tail() {
    // 0 == 0 is taken, 8 == 0 is not: the skipped multiplies run.
    let fx = branch_over_a_product(ProgramBuilder::beq);
    assert_ends(&fx, &flip_of(&fx, COND), Outcome::Sdc, TrialEnd::FullTail);
}

#[test]
fn a_live_register_beside_a_poisoned_page_the_golden_run_hits_decides_due() {
    // The prologue's load fills DTLB entry 0 with the data page, and the
    // epilogue's load hits it again. Poisoning it and flipping the
    // stored register in the same cycle leaves the machine live at the
    // next checkpoint, and its oracle follows the golden stream.
    let fx = after_a_pause(
        |b| b.ldq(Reg::of(5), Reg::ZERO, DATA_BASE as i32),
        |b| {
            b.ldq(Reg::of(7), Reg::ZERO, DATA_BASE as i32);
            b.stq(Reg::of(DATA), Reg::ZERO, DATA_BASE as i32 + 8);
        },
    );
    let t = flip_of(&fx, DATA);
    let flipped = || {
        let mut sim = sim_at(&fx, FaultModel::Replay, t.cycle);
        assert!(sim.run_to_cycle(t.cycle));
        assert_eq!(sim.flip_bit(InjectionTarget::Dtlb, 0, 0), FlipEffect::Armed);
        assert_eq!(sim.flip_bit(t.target, t.entry, t.bit), FlipEffect::Armed);
        sim
    };
    let mut full = flipped();
    assert_eq!(full.run_to_end(), RunEnd::Trapped);

    let mut sim = flipped();
    let (first, snap) = fx.checkpoints.after(t.cycle).next().expect("a checkpoint");
    assert!(sim.run_to_cycle(first));
    assert_eq!(sim.judge(&fx.checkpoints, snap), Judgement::Live);
    assert_eq!(sim.oracle_tail(&fx.checkpoints, snap), Some(Verdict::Due));
    assert_eq!(sim.oracle_passes(), 1);
    // The machine is left as it was found: its full tail still traps.
    assert_eq!(sim.judge(&fx.checkpoints, snap), Judgement::Live);
    assert_eq!(sim.run_to_end(), RunEnd::Trapped);
}
