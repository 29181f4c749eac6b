//! DL1/L2 verdicts decided at the flip equal full-tail verdicts.
//!
//! A fault in a cache's data array changes nothing the cycle loop reads
//! until a load consumes it, so until then the faulty machine runs the
//! golden run. `settle_trial` walks the golden pass's log of line
//! events from the flip: a fault that a store repairs, an eviction
//! drops, or that stays resident to the end without being consumed or
//! written to memory is Masked at the flip, with no tail.
//!
//! The property test checks the settled verdict against the full tail
//! on DL1/L2 trials drawn over resident lines of the testkit kernels,
//! the paper-baseline stressmark, the `429.mcf` proxy (all at reduced
//! budgets) and `line_churn`, whose dirty L2 write-backs reach memory,
//! under both fault models. The deterministic cases show each rule on a
//! small program: repair, clean eviction, a DL1 write-back over the L2
//! copy and residence to the end settle Masked at the flip; consumption
//! and escape to memory are not decided at the flip.

use std::sync::OnceLock;

use avf_codegen::{generate, Knobs, TargetParams};
use avf_inject::{
    cycle_budget_of, golden_run_checkpointed, settle_trial, DecodedCheckpoints, FaultModel,
    FlipEffect, InjectionTarget, Outcome, SamplingPlan, Settled, Trial, TrialEnd,
};
use avf_isa::{Program, ProgramBuilder, Reg, DATA_BASE};
use avf_sim::{CacheFate, GoldenRun, InjectionSim, MachineConfig};
use avf_workloads::testkit::{idle_loop, line_churn, register_chain};
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

/// The testkit kernels, the stressmark and 429.mcf at 3k instructions,
/// and `line_churn`.
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
            fixture(m(), line_churn(), 3_000, 256),
        ]
    })
}

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

/// Settles `t` early and in full, checks that the verdicts agree and
/// that a trial decided at the flip had a fate that fixes its verdict,
/// and returns the early settlement with the fate.
fn check(
    fx: &Fixture,
    model: FaultModel,
    t: &Trial,
) -> Result<(Settled, Option<CacheFate>), String> {
    let mut sim = sim_at(fx, model, t.cycle);
    let fate = sim
        .run_to_cycle(t.cycle)
        .then(|| sim.cache_fate(t.target, t.entry, t.bit, &fx.checkpoints))
        .flatten();
    let early = settle_trial(&mut sim, t, fx.golden.digest, Some(&fx.checkpoints));
    let full = settle_trial(&mut sim_at(fx, model, t.cycle), t, fx.golden.digest, None);
    if early.outcome != full.outcome {
        return Err(format!(
            "{t:?} under {model} ({fate:?}): {early:?}, full tail {full:?}"
        ));
    }
    let at_flip = early.end == TrialEnd::AtFlip;
    let fixed = fate.and_then(CacheFate::verdict).is_some();
    if at_flip != fixed {
        return Err(format!(
            "{t:?} under {model} ({fate:?}): {early:?}, decided at the flip: {at_flip}"
        ));
    }
    Ok((early, fate))
}

/// The first entry of `target` at or after `entry` (cyclically) holding
/// a line at `cycle`, or `entry` if none does.
fn resident_entry(fx: &Fixture, target: InjectionTarget, entry: u64, cycle: u64) -> u64 {
    let mut sim = sim_at(fx, FaultModel::Replay, cycle);
    if !sim.run_to_cycle(cycle) {
        return entry;
    }
    let entries = target.entries(&fx.machine);
    (0..entries)
        .map(|d| (entry + d) % entries)
        .find(|&e| sim.probe_bit(target, e, 0) == FlipEffect::Armed)
        .unwrap_or(entry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_verdicts_decided_at_the_flip_equal_the_full_tail(
        kernel in 0usize..5,
        trap: bool,
        l2: bool,
        entry: u64,
        bit: u32,
        cycle: u64,
    ) {
        let fx = &fixtures()[kernel];
        let model = if trap { FaultModel::Trap } else { FaultModel::Replay };
        let target = if l2 { InjectionTarget::L2 } else { InjectionTarget::Dl1 };
        let sizes = fx.machine.structure_sizes();
        let cycle = 1 + cycle % (fx.golden.cycles - 1);
        let entry = resident_entry(fx, target, entry % target.entries(&fx.machine), cycle);
        let t = trial(target, entry, bit % target.entry_bits(&sizes), cycle);
        if let Err(e) = check(fx, model, &t) {
            prop_assert!(false, "{}", e);
        }
    }
}

#[test]
fn a_campaign_decides_cache_trials_at_the_flip() {
    // The DL1/L2 trials of fixed plans on the stressmark and on
    // `line_churn`: every verdict is the full tail's, many are decided
    // at the flip, and on `line_churn` some faults reach memory.
    let targets = [InjectionTarget::Dl1, InjectionTarget::L2];
    let mut fates = Vec::new();
    for fx in [&fixtures()[2], &fixtures()[4]] {
        let plan = SamplingPlan::new(&fx.machine, &targets, 200, fx.golden.cycles, 7, None);
        for t in plan.trials() {
            // Most entries of the large arrays are vacant this early.
            let entry = resident_entry(fx, t.target, t.entry, t.cycle);
            let t = Trial { entry, ..*t };
            let (_, fate) = check(fx, FaultModel::Replay, &t).unwrap_or_else(|e| panic!("{e}"));
            fates.extend(fate);
        }
    }
    let count = |f| fates.iter().filter(|&&x| x == f).count();
    let decided = fates.iter().filter(|f| f.verdict().is_some()).count();
    assert!(decided >= 50, "{decided} decided at the flip: {fates:?}");
    assert!(count(CacheFate::Escaped) >= 1, "{fates:?}");
}

// ---- deterministic kernels -------------------------------------------------

const INTERVAL: u64 = 64;
const BUDGET: u64 = 100_000;

/// The faulted line: in the data segment, clear of the L2 sets the text
/// maps to.
const LINE: i32 = DATA_BASE as i32 + 0x1000;
/// Two lines `SET_STRIDE` apart share a set of the baseline DL1.
const SET_STRIDE: i32 = 32 << 10;
/// Two lines `L2_STRIDE` apart share the baseline L2's one way.
const L2_STRIDE: i32 = 1 << 20;

/// r5 = 0x55, `prologue`, a [`pause`], `epilogue`, halt, on the
/// baseline machine. The pause touches no data line.
fn after_a_pause(
    prologue: impl FnOnce(&mut ProgramBuilder),
    epilogue: impl FnOnce(&mut ProgramBuilder),
) -> Fixture {
    let mut b = ProgramBuilder::new("pause");
    b.addi(Reg::of(5), Reg::ZERO, 0x55);
    prologue(&mut b);
    pause(&mut b);
    epilogue(&mut b);
    b.halt();
    let program = b.build().expect("valid program");
    fixture(MachineConfig::baseline(), program, BUDGET, INTERVAL)
}

/// A 300-iteration register-only loop on r1.
fn pause(b: &mut ProgramBuilder) {
    let r1 = Reg::of(1);
    b.addi(r1, Reg::ZERO, 300);
    let top = b.here();
    b.subi(r1, r1, 1);
    b.bne(r1, top);
}

fn load(b: &mut ProgramBuilder, disp: i32) {
    b.ldq(Reg::of(6), Reg::ZERO, disp);
}

/// A flip of bit 3 of [`LINE`]'s first byte in `target`, a third of
/// the way into the run, inside the pause.
fn flip_of(fx: &Fixture, target: InjectionTarget) -> Trial {
    let cache = match target {
        InjectionTarget::Dl1 => &fx.machine.dl1,
        _ => &fx.machine.l2,
    };
    let ways = u64::from(cache.ways);
    let sets = u64::from(cache.lines()) / ways;
    let set = LINE as u64 / u64::from(cache.line_bytes) % sets;
    // The set holds no other line: the first resident way is [`LINE`]'s.
    let cycle = fx.golden.cycles / 3;
    let entry = resident_entry(fx, target, set * ways, cycle);
    assert!(entry / ways == set, "{target}: {LINE:#x} is resident");
    trial(target, entry, 3, cycle)
}

/// Asserts `t`'s fate is `fate` and that it settles `outcome`: at the
/// flip, with no tail, when the fate fixes the verdict, else after a
/// tail.
fn assert_fate(fx: &Fixture, t: &Trial, fate: CacheFate, outcome: Outcome) {
    let (settled, got) = check(fx, FaultModel::Replay, t).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(got, Some(fate), "{t:?}: {settled:?}");
    assert_eq!(settled.outcome, outcome, "{t:?}");
    if fate.verdict().is_some() {
        assert_eq!(
            (settled.end, settled.tail_cycles),
            (TrialEnd::AtFlip, 0),
            "{t:?}"
        );
    } else {
        assert!(settled.tail_cycles > 0, "{t:?}: {settled:?}");
    }
}

#[test]
fn a_fault_resident_to_the_end_is_masked_at_the_flip() {
    let fx = after_a_pause(|b| load(b, LINE), |_| {});
    for target in [InjectionTarget::Dl1, InjectionTarget::L2] {
        let t = flip_of(&fx, target);
        assert_fate(&fx, &t, CacheFate::Resident, Outcome::Masked);
    }
}

#[test]
fn a_fault_a_store_overwrites_is_masked_at_the_flip() {
    let fx = after_a_pause(|b| load(b, LINE), |b| b.stq(Reg::of(5), Reg::ZERO, LINE));
    let t = flip_of(&fx, InjectionTarget::Dl1);
    assert_fate(&fx, &t, CacheFate::Repaired, Outcome::Masked);
}

#[test]
fn a_fault_a_clean_eviction_drops_is_masked_at_the_flip() {
    // Two more lines of its DL1 set evict the clean line from the DL1;
    // the line 1 MB above evicts it from the L2.
    let fx = after_a_pause(
        |b| load(b, LINE),
        |b| {
            load(b, LINE + SET_STRIDE);
            load(b, LINE + 2 * SET_STRIDE);
            load(b, LINE + L2_STRIDE);
        },
    );
    for target in [InjectionTarget::Dl1, InjectionTarget::L2] {
        let t = flip_of(&fx, target);
        assert_fate(&fx, &t, CacheFate::Dropped, Outcome::Masked);
    }
}

/// Stores to [`LINE`] (dirty in the DL1), then after the pause evicts
/// it from the DL1 into the L2 and from the L2 into memory.
fn written_back() -> Fixture {
    after_a_pause(
        |b| b.stq(Reg::of(5), Reg::ZERO, LINE),
        |b| {
            load(b, LINE + SET_STRIDE);
            load(b, LINE + 2 * SET_STRIDE);
            load(b, LINE + L2_STRIDE);
        },
    )
}

#[test]
fn an_l2_fault_a_dl1_write_back_replaces_is_masked_at_the_flip() {
    let fx = written_back();
    let t = flip_of(&fx, InjectionTarget::L2);
    assert_fate(&fx, &t, CacheFate::Dropped, Outcome::Masked);
}

#[test]
fn a_fault_written_back_to_memory_is_not_decided_at_the_flip() {
    let fx = written_back();
    let t = flip_of(&fx, InjectionTarget::Dl1);
    assert_fate(&fx, &t, CacheFate::Escaped, Outcome::Sdc);
}

#[test]
fn a_fault_a_load_consumes_is_not_decided_at_the_flip() {
    // The loaded value is stored to the next quad of the line, after
    // a second pause: the oracle corrupts the load's destination when
    // the load issues, which readers fetched before then do not see.
    let fx = after_a_pause(
        |b| load(b, LINE),
        |b| {
            load(b, LINE);
            pause(b);
            b.stq(Reg::of(6), Reg::ZERO, LINE + 8);
        },
    );
    let t = flip_of(&fx, InjectionTarget::Dl1);
    assert_fate(&fx, &t, CacheFate::Consumed, Outcome::Sdc);
}
