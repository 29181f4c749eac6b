//! Early termination at golden checkpoints must never change a verdict.
//!
//! `classify_trial_against` stops an armed trial as soon as its machine
//! state equals the golden snapshot at a checkpoint cycle. The property
//! test draws random (target, entry, bit, cycle) tuples on the testkit
//! kernels under both fault models and checks the verdict against the
//! full-tail `classify_trial`. The deterministic tests show that the
//! check really fires (so the property cannot hold vacuously) and that a
//! corruption which never disappears is never mistaken for a match.

use std::sync::OnceLock;

use avf_inject::{
    classify_trial, classify_trial_against, cycle_budget_of, golden_run_checkpointed,
    DecodedCheckpoints, FaultModel, FlipEffect, InjectionTarget, Outcome, Trial,
};
use avf_isa::Program;
use avf_sim::{GoldenRun, InjectionSim, MachineConfig};
use avf_workloads::testkit::{idle_loop, register_chain};
use proptest::prelude::*;

const INSTR_BUDGET: u64 = 3_000;
const INTERVAL: u64 = 128;

struct Fixture {
    program: Program,
    golden: GoldenRun,
    checkpoints: DecodedCheckpoints,
}

fn machine() -> &'static MachineConfig {
    static MACHINE: OnceLock<MachineConfig> = OnceLock::new();
    MACHINE.get_or_init(MachineConfig::baseline)
}

fn fixture(program: Program) -> Fixture {
    let (golden, store) = golden_run_checkpointed(machine(), &program, INSTR_BUDGET, INTERVAL);
    let checkpoints = store
        .decode_all(machine(), &program)
        .expect("own checkpoints decode");
    Fixture {
        program,
        golden,
        checkpoints,
    }
}

/// The two testkit kernels: a live register chain with stores, and a
/// loop whose work is overwritten without ever being read.
fn fixtures() -> &'static [Fixture; 2] {
    static FIXTURES: OnceLock<[Fixture; 2]> = OnceLock::new();
    FIXTURES.get_or_init(|| [fixture(register_chain()), fixture(idle_loop())])
}

/// A campaign-configured simulator restored to the checkpoint at or
/// before `cycle`.
fn sim_at<'a>(fx: &'a Fixture, model: FaultModel, cycle: u64) -> InjectionSim<'a> {
    let mut sim = InjectionSim::new(machine(), &fx.program, INSTR_BUDGET);
    sim.set_cycle_budget(cycle_budget_of(fx.golden.cycles));
    sim.set_fault_model(model);
    let (_, snap) = fx.checkpoints.nearest(cycle).expect("cycle-0 checkpoint");
    sim.restore(snap);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn early_termination_matches_the_full_tail(
        kernel in 0usize..2,
        trap in 0u8..2,
        target in 0usize..InjectionTarget::ALL.len(),
        entry: u64,
        bit: u32,
        cycle: u64,
    ) {
        let fx = &fixtures()[kernel];
        let model = if trap == 1 { FaultModel::Trap } else { FaultModel::Replay };
        let target = InjectionTarget::ALL[target];
        let sizes = machine().structure_sizes();
        let t = trial(
            target,
            entry % target.entries(machine()),
            bit % target.entry_bits(&sizes),
            1 + cycle % (fx.golden.cycles - 1),
        );
        let full = classify_trial(&mut sim_at(fx, model, t.cycle), &t, fx.golden.digest);
        let early = classify_trial_against(
            &mut sim_at(fx, model, t.cycle),
            &t,
            fx.golden.digest,
            Some(&fx.checkpoints),
        );
        prop_assert_eq!(full, early, "{:?} under {}", t, model);
    }
}

/// Classifies `t` with the cycle budget cut to one cycle past the last
/// golden checkpoint, short of the golden run's end: a trial that no
/// checkpoint settles times out (`Due`).
fn classify_with_budget_at_last_checkpoint(fx: &Fixture, t: &Trial, early: bool) -> Outcome {
    let (last, _) = fx.checkpoints.after(0).last().expect("checkpoints");
    assert!(last + 1 < fx.golden.cycles, "golden run still going");
    let mut sim = sim_at(fx, FaultModel::Replay, t.cycle);
    sim.set_cycle_budget(last + 1);
    let golden = early.then_some(&fx.checkpoints);
    classify_trial_against(&mut sim, t, fx.golden.digest, golden)
}

#[test]
fn an_overwritten_register_flip_stops_at_the_next_checkpoint() {
    // At cycle 2 nothing has been renamed yet, so physical register 8
    // holds the newest definition of r8. The idle loop rewrites r8 from
    // an immediate every iteration and never reads it: the corruption
    // is gone after the first iteration.
    let fx = &fixtures()[1];
    let t = trial(InjectionTarget::RegFile, 8, 5, 2);
    let mut sim = sim_at(fx, FaultModel::Replay, t.cycle);
    assert!(sim.run_to_cycle(t.cycle));
    assert_eq!(
        sim.probe_bit(t.target, t.entry, t.bit),
        FlipEffect::Armed,
        "the flip must reach live state"
    );
    let full = classify_trial(&mut sim_at(fx, FaultModel::Replay, 0), &t, fx.golden.digest);
    assert_eq!(full, Outcome::Masked);

    // Cut the budget to just past the last checkpoint: the full tail
    // times out, so only a stop at a checkpoint can yield Masked.
    assert_eq!(
        classify_with_budget_at_last_checkpoint(fx, &t, false),
        Outcome::Due
    );
    assert_eq!(
        classify_with_budget_at_last_checkpoint(fx, &t, true),
        Outcome::Masked
    );
}

#[test]
fn a_lingering_corruption_never_matches_a_checkpoint() {
    // r20 is never written or read by the idle loop: the flip survives
    // to the end (Masked by the final digest, since nothing is stored),
    // so the machine state never equals a golden snapshot.
    let fx = &fixtures()[1];
    let t = trial(InjectionTarget::RegFile, 20, 5, 2);
    let full = classify_trial(&mut sim_at(fx, FaultModel::Replay, 0), &t, fx.golden.digest);
    assert_eq!(full, Outcome::Masked);
    assert_eq!(
        classify_with_budget_at_last_checkpoint(fx, &t, true),
        Outcome::Due
    );
}
