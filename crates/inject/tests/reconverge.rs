//! Early termination at golden checkpoints must never change a verdict.
//!
//! `settle_trial` stops an armed trial as soon as its machine
//! state equals the golden snapshot at a checkpoint cycle, or differs
//! from it only in state the golden future never reads. The property
//! test draws random (target, entry, bit, cycle) tuples on the testkit
//! kernels under both fault models and checks the verdict against the
//! full-tail `classify_trial`. The deterministic tests show that the
//! check really fires (so the property cannot hold vacuously), that a
//! corruption which never disappears is never mistaken for a match but
//! is decided once nothing reads it (at the flip, and at every
//! checkpoint after it), that a corruption the golden future keeps
//! reading is never decided by the index (the oracle tail settles it
//! at the flip when it only reaches stored data), that one which steers
//! an address runs its full tail, and that a flip which traps at once
//! ends as a probe.

use std::sync::OnceLock;

use avf_inject::{
    classify_trial, cycle_budget_of, golden_run_checkpointed, settle_trial, DecodedCheckpoints,
    FaultModel, FlipEffect, InjectionTarget, Outcome, Settled, Trial, TrialEnd,
};
use avf_isa::Program;
use avf_sim::{GoldenRun, InjectionSim, Judgement, MachineConfig, Verdict};
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
        let early = settle_trial(
            &mut sim_at(fx, model, t.cycle),
            &t,
            fx.golden.digest,
            Some(&fx.checkpoints),
        )
        .outcome;
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
    settle_trial(&mut sim, t, fx.golden.digest, golden).outcome
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
    // `settle_trial` already decides it at the flip (nothing reads r8
    // before the rewrite); the first checkpoint settles it too.
    let judgements = judgements_after_flip(fx, &t);
    assert!(
        matches!(
            judgements.first(),
            Some(Judgement::Rejoined | Judgement::Decided(Verdict::Masked))
        ),
        "{judgements:?}"
    );
}

/// Flips `t` on a fresh campaign-configured machine and judges it at
/// every later golden checkpoint.
fn judgements_after_flip(fx: &Fixture, t: &Trial) -> Vec<Judgement> {
    let mut sim = sim_at(fx, FaultModel::Replay, t.cycle);
    assert!(sim.run_to_cycle(t.cycle));
    assert_eq!(sim.flip_bit(t.target, t.entry, t.bit), FlipEffect::Armed);
    let mut judgements = Vec::new();
    for (cycle, snap) in fx.checkpoints.after(t.cycle) {
        if !sim.run_to_cycle(cycle) {
            break;
        }
        judgements.push(sim.judge(&fx.checkpoints, snap));
    }
    judgements
}

#[test]
fn a_lingering_corruption_never_matches_a_checkpoint() {
    // r20 is never written or read by the idle loop: the flip survives
    // to the end (Masked by the final memory, since nothing is stored),
    // so the machine state never equals a golden snapshot. Nothing reads
    // r20 either, so the trial is decided Masked at the flip, as it
    // would be at every checkpoint after it.
    let fx = &fixtures()[1];
    let t = trial(InjectionTarget::RegFile, 20, 5, 2);
    let full = classify_trial(&mut sim_at(fx, FaultModel::Replay, 0), &t, fx.golden.digest);
    assert_eq!(full, Outcome::Masked);
    let judgements = judgements_after_flip(fx, &t);
    assert!(!judgements.is_empty());
    assert!(
        judgements
            .iter()
            .all(|&j| j == Judgement::Decided(Verdict::Masked)),
        "{judgements:?}"
    );
    let settled = settle_trial(
        &mut sim_at(fx, FaultModel::Replay, 0),
        &t,
        fx.golden.digest,
        Some(&fx.checkpoints),
    );
    assert_eq!(
        (settled.outcome, settled.end, settled.tail_cycles),
        (Outcome::Masked, TrialEnd::AtFlip, 0)
    );
    assert_eq!(
        classify_with_budget_at_last_checkpoint(fx, &t, true),
        Outcome::Masked
    );
}

/// Register-file flips of bit 3 at a third of the register chain's
/// run, with their early and full-tail verdicts.
fn chain_register_flips(fx: &Fixture) -> Vec<(Trial, Settled, Outcome)> {
    let cycle = fx.golden.cycles / 3;
    (0..machine().phys_regs as u64)
        .map(|preg| trial(InjectionTarget::RegFile, preg, 3, cycle))
        .map(|t| {
            let settled = settle_trial(
                &mut sim_at(fx, FaultModel::Replay, cycle),
                &t,
                fx.golden.digest,
                Some(&fx.checkpoints),
            );
            let full = classify_trial(
                &mut sim_at(fx, FaultModel::Replay, cycle),
                &t,
                fx.golden.digest,
            );
            (t, settled, full)
        })
        .collect()
}

#[test]
fn a_corruption_the_golden_future_reads_is_never_settled_early() {
    // The register chain folds each of r8..r23 into the stored
    // accumulator on every iteration until the budget ends: a flip in
    // one of them is read at every checkpoint after it and ends SDC. The
    // index never decides it, but the value only ever flows into stored
    // data, never into an address or a branch, so the oracle tail
    // settles it at the flip.
    let fx = &fixtures()[0];
    let flips = chain_register_flips(fx);
    let (sdc, settled, _) = flips
        .iter()
        .find(|(_, _, full)| *full == Outcome::Sdc)
        .expect("a live register flip at a third of the run");
    let judgements = judgements_after_flip(fx, sdc);
    assert!(judgements.len() >= 3, "{judgements:?}");
    assert!(
        judgements.iter().all(|&j| j == Judgement::Live),
        "{judgements:?}"
    );
    assert_eq!(
        (settled.outcome, settled.end, settled.tail_cycles),
        (Outcome::Sdc, TrialEnd::AtFlip, 0)
    );
}

#[test]
fn a_corruption_that_steers_an_address_runs_its_full_tail() {
    // A flip of the chain's base register moves every later store: the
    // oracle leaves the golden address stream at the next store, so only
    // the full tail settles the trial, and the cut budget times it out.
    let fx = &fixtures()[0];
    let flips = chain_register_flips(fx);
    let (steered, settled, full) = flips
        .iter()
        .find(|(_, settled, _)| settled.end == TrialEnd::FullTail)
        .expect("a register flip that steers the run");
    assert_eq!((settled.outcome, *full), (Outcome::Sdc, Outcome::Sdc));
    let judgements = judgements_after_flip(fx, steered);
    assert!(
        judgements
            .iter()
            .all(|&j| !matches!(j, Judgement::Decided(_) | Judgement::Rejoined)),
        "{judgements:?}"
    );
    assert_eq!(
        classify_with_budget_at_last_checkpoint(fx, steered, true),
        Outcome::Due,
        "only the full tail settles it, and the cut budget times it out"
    );
}

#[test]
fn a_flip_that_traps_at_once_ends_as_a_probe() {
    // Under the trap model a ROB path-flag flip of a live entry is a
    // detected error the moment it lands: the run ends with no tail.
    let fx = &fixtures()[0];
    let cycle = fx.golden.cycles / 2;
    let path_flag = 64 + 10;
    let mut sim = sim_at(fx, FaultModel::Trap, cycle);
    assert!(sim.run_to_cycle(cycle));
    let entry = (0..InjectionTarget::Rob.entries(machine()))
        .find(|&e| sim.probe_bit(InjectionTarget::Rob, e, path_flag) == FlipEffect::Armed)
        .expect("a live ROB entry mid-run");
    let t = trial(InjectionTarget::Rob, entry, path_flag, cycle);
    let settled = settle_trial(&mut sim, &t, fx.golden.digest, Some(&fx.checkpoints));
    assert_eq!(
        (settled.outcome, settled.end, settled.tail_cycles),
        (Outcome::Due, TrialEnd::Probe, 0)
    );
}
