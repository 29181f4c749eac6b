//! Verdicts settled at the flip equal full-tail verdicts.
//!
//! A flip that writes only passive state (an oracle register, a memory
//! byte, the DTLB poison flag, an in-flight value) leaves the machine
//! equal to the golden run's state of its cycle in every active field.
//! `settle_trial` judges it at once against the snapshot it took just
//! before the flip, at the flip's own oracle position and DTLB tick:
//! decided when the golden future reads no difference, and otherwise
//! finished on its oracle from the flip when that follows the golden
//! outcome stream. Neither runs a cycle-loop tail.
//!
//! The property test checks, on the testkit kernels, the stressmark and
//! the `429.mcf` proxy (at 3k instructions), under both fault models,
//! that the settled verdict is the full tail's, that no trial runs more
//! than one oracle pass (the flip included), that a trial settled at
//! its flip simulated no tail, and that every trial settled early and
//! not DUE really runs the golden timing (its full tail ends on the
//! golden run's last cycle). A fixed stressmark plan settles at least
//! 200 trials at the flip. Two small kernels pin what a settle at the
//! flip must read at the flip's position and not at a checkpoint's: a
//! register read and then rewritten between the flip and the next
//! checkpoint is live at the flip, and an oracle that starts between
//! checkpoints follows the outcome stream from its own position. A
//! trial settled at the flip copies no cache block, and no page or
//! page group but the one its flip writes, checked through block and
//! page identities.

use std::sync::OnceLock;

use avf_codegen::{generate, Knobs, TargetParams};
use avf_inject::{
    cycle_budget_of, golden_run_checkpointed, settle_trial, DecodedCheckpoints, FaultModel,
    FlipEffect, InjectionTarget, Outcome, SamplingPlan, Settled, Trial, TrialEnd,
};
use avf_isa::{Program, ProgramBuilder, Reg, DATA_BASE};
use avf_sim::{GoldenRun, InjectionSim, Judgement, MachineConfig, Verdict};
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

/// The testkit kernels, the stressmark and 429.mcf, at 3k instructions.
fn fixtures() -> &'static [Fixture; 4] {
    static FIXTURES: OnceLock<[Fixture; 4]> = OnceLock::new();
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
        ]
    })
}

/// The stressmark fixture.
const STRESSMARK: usize = 2;

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
    let passes = sim.oracle_passes();
    let fail = |why: &str| {
        Err(format!(
            "{t:?} under {model}: {why}: {early:?}, full {full:?}"
        ))
    };
    if early.outcome != full.outcome {
        return fail("verdicts differ");
    }
    if passes > 1 {
        return fail(&format!("{passes} oracle passes"));
    }
    if early.end == TrialEnd::AtFlip && early.tail_cycles != 0 {
        return fail("a tail after a settle at the flip");
    }
    let settled_early = matches!(
        early.end,
        TrialEnd::AtFlip | TrialEnd::Rejoined | TrialEnd::Decided | TrialEnd::OracleTail
    );
    if settled_early
        && early.outcome != Outcome::Due
        && t.cycle + full.tail_cycles != fx.golden.cycles
    {
        return fail(&format!(
            "settled early, but the full tail ends at cycle {} and the golden run at {}",
            t.cycle + full.tail_cycles,
            fx.golden.cycles
        ));
    }
    Ok((early, passes))
}

/// Target codes past `InjectionTarget::ALL` draw the register file, the
/// store queue and the DTLB again: flips of passive state.
const PASSIVE: [InjectionTarget; 3] = [
    InjectionTarget::RegFile,
    InjectionTarget::Sq,
    InjectionTarget::Dtlb,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flip_time_verdicts_equal_the_full_tail(
        kernel in 0usize..4,
        trap: bool,
        target in 0usize..InjectionTarget::ALL.len() + PASSIVE.len(),
        entry: u64,
        bit: u32,
        cycle: u64,
    ) {
        let fx = &fixtures()[kernel];
        let model = if trap { FaultModel::Trap } else { FaultModel::Replay };
        let target = InjectionTarget::ALL
            .get(target)
            .copied()
            .unwrap_or_else(|| PASSIVE[target - InjectionTarget::ALL.len()]);
        let sizes = fx.machine.structure_sizes();
        let t = trial(
            target,
            entry % target.entries(&fx.machine),
            bit % target.entry_bits(&sizes),
            1 + cycle % (fx.golden.cycles - 1),
        );
        if let Err(e) = check(fx, model, &t) {
            prop_assert!(false, "{}", e);
        }
    }
}

#[test]
fn a_stressmark_plan_settles_hundreds_of_trials_at_the_flip() {
    // A fixed plan over every target on the stressmark, under both fault
    // models: every verdict is the full tail's, and at least 200 trials
    // settle at the flip, some of them on the oracle.
    let fx = &fixtures()[STRESSMARK];
    let plan = SamplingPlan::new(
        &fx.machine,
        &InjectionTarget::ALL,
        800,
        fx.golden.cycles,
        7,
        None,
    );
    let (mut at_flip, mut on_oracle) = (0, 0);
    for model in [FaultModel::Replay, FaultModel::Trap] {
        for t in plan.trials() {
            let (settled, passes) = check(fx, model, t).unwrap_or_else(|e| panic!("{e}"));
            at_flip += usize::from(settled.end == TrialEnd::AtFlip);
            on_oracle += usize::from(settled.end == TrialEnd::AtFlip && passes == 1);
        }
    }
    assert!(at_flip >= 200, "{at_flip} trials settled at the flip");
    assert!(
        on_oracle >= 10,
        "{on_oracle} settled on the oracle at the flip"
    );
}

#[test]
fn a_trial_settled_at_the_flip_copies_no_cache_block_and_no_page() {
    // Snapshot, flip, judge (and, when live, the oracle tail), restore:
    // the steps `settle_trial` takes for a passive flip. The snapshot
    // shares every cache block and memory page with the machine; the
    // flip copies no cache block, and at most the one page (with its
    // page group) it writes when it corrupts a store already in memory;
    // the judgement and the oracle tail copy nothing; and the restore
    // hands the snapshot's blocks and pages back.
    let identities = |sim: &InjectionSim<'_>| {
        let mut pages: Vec<usize> = sim.memory().page_identities().collect();
        pages.sort_unstable();
        (sim.cache_block_identities().collect::<Vec<_>>(), pages)
    };
    // Identities in `a` that `b` lacks.
    let copied = |a: &[usize], b: &[usize]| a.iter().filter(|id| !b.contains(id)).count();
    for fx in &fixtures()[STRESSMARK..] {
        let plan = SamplingPlan::new(
            &fx.machine,
            &InjectionTarget::ALL,
            400,
            fx.golden.cycles,
            11,
            None,
        );
        let mut at_flip = 0;
        for t in plan.trials() {
            if matches!(t.target, InjectionTarget::Dl1 | InjectionTarget::L2) {
                continue; // settled from the line log, with no snapshot
            }
            let mut sim = sim_at(fx, FaultModel::Replay, t.cycle);
            if !sim.run_to_cycle(t.cycle)
                || sim.probe_bit(t.target, t.entry, t.bit) != FlipEffect::Armed
            {
                continue;
            }
            let snap = sim.snapshot();
            let (blocks, pages) = identities(&sim);
            assert!(
                snap.cache_block_identities().eq(blocks.iter().copied()),
                "{t:?}: the snapshot shares the cache blocks"
            );
            sim.flip_bit(t.target, t.entry, t.bit);
            let flipped = identities(&sim);
            assert_eq!(flipped.0, blocks, "{t:?}: the flip copied a cache block");
            assert!(copied(&flipped.1, &pages) <= 1, "{t:?}: flip pages");
            let settled = match sim.judge(&fx.checkpoints, &snap) {
                Judgement::Open => false,
                Judgement::Live => sim.oracle_tail(&fx.checkpoints, &snap).is_some(),
                Judgement::Rejoined | Judgement::Decided(_) => true,
            };
            if settled {
                assert!(
                    identities(&sim) == flipped,
                    "{t:?}: copies in the judgement"
                );
                at_flip += 1;
            }
            sim.restore(&snap);
            assert!(identities(&sim) == (blocks, pages), "{t:?}: restored");
        }
        assert!(at_flip >= 50, "{at_flip} trials settled at the flip");
    }
}

// ---- deterministic kernels -------------------------------------------------

/// Never written before the epilogue: reads 0 and stays in the physical
/// register of its own number until then.
const DATA: u8 = 2;

/// A 300-iteration register-only loop on r1.
fn pause(b: &mut ProgramBuilder) {
    let r1 = Reg::of(1);
    b.addi(r1, Reg::ZERO, 300);
    let top = b.here();
    b.subi(r1, r1, 1);
    b.bne(r1, top);
}

/// `pause`, `epilogue`, `pause`, halt on the baseline machine, with a
/// checkpoint every `interval` cycles.
fn around_a_pause(interval: u64, epilogue: impl FnOnce(&mut ProgramBuilder)) -> Fixture {
    let mut b = ProgramBuilder::new("pause");
    pause(&mut b);
    epilogue(&mut b);
    pause(&mut b);
    b.halt();
    let program = b.build().expect("valid program");
    fixture(MachineConfig::baseline(), program, 100_000, interval)
}

/// Bit 3 of register [`DATA`] at `cycle`.
fn flip_of_data(cycle: u64) -> Trial {
    trial(InjectionTarget::RegFile, u64::from(DATA), 3, cycle)
}

/// Judges `t` at its flip, against the state just before it, and at the
/// first checkpoint after it.
fn judgements(fx: &Fixture, t: &Trial) -> (Judgement, Judgement) {
    let mut sim = sim_at(fx, FaultModel::Replay, t.cycle);
    assert!(sim.run_to_cycle(t.cycle));
    let before = sim.snapshot();
    assert_eq!(sim.flip_bit(t.target, t.entry, t.bit), FlipEffect::Armed);
    let at_flip = sim.judge(&fx.checkpoints, &before);
    let (next, snap) = fx.checkpoints.after(t.cycle).next().expect("a checkpoint");
    assert!(sim.run_to_cycle(next));
    (at_flip, sim.judge(&fx.checkpoints, snap))
}

#[test]
fn a_register_read_before_the_next_checkpoint_is_live_at_the_flip() {
    // The epilogue stores r2 and then rewrites it. A flip of r2 in the
    // first pause is live at the flip; at the next checkpoint, after the
    // rewrite, only the stored byte differs, and no later store covers
    // it. Read at the checkpoint's position instead, the live mask would
    // show r2 dead at the flip, where memory does not differ yet: a
    // Masked verdict for an SDC. (The run takes about 900 cycles; the
    // rewrite retires before cycle 640.)
    let fx = around_a_pause(640, |b| {
        b.stq(Reg::of(DATA), Reg::ZERO, DATA_BASE as i32);
        b.addi(Reg::of(DATA), Reg::ZERO, 1);
    });
    let t = flip_of_data(fx.golden.cycles / 3);
    let (next, _) = fx.checkpoints.after(t.cycle).next().expect("a checkpoint");
    assert!(
        next < fx.golden.cycles,
        "the checkpoint lies inside the run"
    );
    assert_eq!(
        judgements(&fx, &t),
        (Judgement::Live, Judgement::Decided(Verdict::Sdc))
    );
    let (settled, passes) = check(&fx, FaultModel::Replay, &t).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        (settled.outcome, settled.end, passes),
        (Outcome::Sdc, TrialEnd::AtFlip, 1)
    );
}

#[test]
fn an_oracle_between_checkpoints_follows_the_stream_from_its_own_position() {
    // r2 is only stored, after the pause: a flip of it in the pause is
    // live, and its oracle follows the golden stream to the end. The
    // checkpoint before the flip lies 60 cycles, and dozens of loop
    // branches, earlier; an oracle checked against the stream from there
    // would meet the loop's exit (not taken) where the stream has a
    // taken branch.
    let fx = around_a_pause(64, |b| {
        b.stq(Reg::of(DATA), Reg::ZERO, DATA_BASE as i32);
    });
    let (checkpoint, _) = fx
        .checkpoints
        .nearest(fx.golden.cycles / 5)
        .expect("a checkpoint");
    let t = flip_of_data(checkpoint + 60);
    assert_eq!(judgements(&fx, &t).0, Judgement::Live);
    let (settled, passes) = check(&fx, FaultModel::Replay, &t).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        (settled.outcome, settled.end, passes),
        (Outcome::Sdc, TrialEnd::AtFlip, 1)
    );
}
