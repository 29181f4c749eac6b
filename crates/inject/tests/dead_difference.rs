//! Golden-future verdicts equal full-tail verdicts.
//!
//! `settle_trial` settles an armed trial at a golden checkpoint
//! when the faulty machine differs from the checkpoint only in oracle
//! registers, memory bytes or a DTLB poison that the golden future never
//! reads. The property test checks the settled verdict against the
//! full-tail `classify_trial` on the testkit kernels, the paper-baseline
//! stressmark, the `429.mcf` proxy (all at reduced budgets) and a kernel
//! that loads back what it stored 64 iterations earlier, under both fault
//! models. Store-queue flips, which put differences into memory, are
//! drawn more often than the other targets. The deterministic cases show each rule firing on a
//! small program: an SDC, a DUE from a later DTLB hit, Masked after a
//! DTLB eviction and after an overwriting store, and no decision while a
//! differing byte is still to be loaded.

use std::sync::OnceLock;

use avf_codegen::{generate, Knobs, TargetParams};
use avf_inject::{
    classify_trial, cycle_budget_of, golden_run_checkpointed, settle_trial, DecodedCheckpoints,
    FaultModel, FlipEffect, InjectionTarget, Outcome, Settled, Trial, TrialEnd,
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

/// A loop that stores each value 64 iterations before loading it back,
/// copies it (plus one) to a second array and zeroes its slot: a flip
/// of a stored value sits in memory, is loaded later, and is then
/// overwritten.
fn round_trip() -> Program {
    let (counter, value, a, b_ptr, x) =
        (Reg::of(1), Reg::of(2), Reg::of(3), Reg::of(9), Reg::of(4));
    let mut b = ProgramBuilder::new("round-trip");
    b.load_addr(a, DATA_BASE);
    b.load_addr(b_ptr, DATA_BASE + 0x1_0000);
    b.addi(counter, Reg::ZERO, 400);
    b.addi(value, Reg::ZERO, 1);
    let top = b.here();
    b.stq(value, a, 64 * 8);
    b.ldq(x, a, 0);
    b.addi(x, x, 1);
    b.stq(x, b_ptr, 0);
    b.stq(Reg::ZERO, a, 0);
    b.addi(value, value, 3);
    b.addi(a, a, 8);
    b.addi(b_ptr, b_ptr, 8);
    b.subi(counter, counter, 1);
    b.bne(counter, top);
    b.halt();
    b.build().expect("valid program")
}

/// The testkit kernels, the stressmark, 429.mcf and the round-trip
/// kernel, at reduced budgets.
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
            fixture(m(), round_trip(), 3_000, 64),
        ]
    })
}

/// Target codes past `InjectionTarget::ALL` draw the store queue again.
const EXTRA_SQ_DRAWS: usize = 4;

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

fn settle(fx: &Fixture, t: &Trial) -> Settled {
    settle_trial(
        &mut sim_at(fx, FaultModel::Replay, t.cycle),
        t,
        fx.golden.digest,
        Some(&fx.checkpoints),
    )
}

fn full_tail(fx: &Fixture, t: &Trial) -> Outcome {
    classify_trial(
        &mut sim_at(fx, FaultModel::Replay, t.cycle),
        t,
        fx.golden.digest,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decided_verdicts_equal_the_full_tail(
        kernel in 0usize..5,
        trap: bool,
        target in 0usize..InjectionTarget::ALL.len() + EXTRA_SQ_DRAWS,
        entry: u64,
        bit: u32,
        cycle: u64,
    ) {
        let fx = &fixtures()[kernel];
        let model = if trap { FaultModel::Trap } else { FaultModel::Replay };
        let target = InjectionTarget::ALL.get(target).copied().unwrap_or(InjectionTarget::Sq);
        let sizes = fx.machine.structure_sizes();
        let t = trial(
            target,
            entry % target.entries(&fx.machine),
            bit % target.entry_bits(&sizes),
            1 + cycle % (fx.golden.cycles - 1),
        );
        let full = classify_trial(&mut sim_at(fx, model, t.cycle), &t, fx.golden.digest);
        let settled = settle_trial(
            &mut sim_at(fx, model, t.cycle),
            &t,
            fx.golden.digest,
            Some(&fx.checkpoints),
        );
        prop_assert_eq!(full, settled.outcome, "{:?} under {} ended {:?}", t, model, settled.end);
    }
}

// ---- deterministic cases on small programs ---------------------------------

const INTERVAL: u64 = 64;
const BUDGET: u64 = 100_000;

/// `prologue`, a 300-iteration register-only loop, `epilogue`, halt.
/// r3 holds `DATA_BASE` and r2 the value 0x55 throughout.
fn around_a_pause(
    machine: MachineConfig,
    prologue: impl FnOnce(&mut ProgramBuilder),
    epilogue: impl FnOnce(&mut ProgramBuilder),
) -> Fixture {
    let (r1, r2, r3) = (Reg::of(1), Reg::of(2), Reg::of(3));
    let mut b = ProgramBuilder::new("pause");
    b.load_addr(r3, DATA_BASE);
    b.addi(r2, Reg::ZERO, 0x55);
    prologue(&mut b);
    b.addi(r1, Reg::ZERO, 300);
    let top = b.here();
    b.subi(r1, r1, 1);
    b.bne(r1, top);
    epilogue(&mut b);
    b.halt();
    fixture(machine, b.build().expect("valid program"), BUDGET, INTERVAL)
}

/// The first cycle at which flipping `target` `entry` `bit` arms.
fn first_armed(fx: &Fixture, target: InjectionTarget, entry: u64, bit: u32) -> Trial {
    let mut sim = sim_at(fx, FaultModel::Replay, 0);
    for cycle in 1..fx.golden.cycles {
        assert!(sim.run_to_cycle(cycle));
        if sim.probe_bit(target, entry, bit) == FlipEffect::Armed {
            return trial(target, entry, bit, cycle);
        }
    }
    panic!("{target} entry {entry} bit {bit} never arms");
}

/// Judges `t` at every golden checkpoint after its flip.
fn judgements(fx: &Fixture, t: &Trial) -> Vec<Judgement> {
    let mut sim = sim_at(fx, FaultModel::Replay, t.cycle);
    assert!(sim.run_to_cycle(t.cycle));
    assert_eq!(sim.flip_bit(t.target, t.entry, t.bit), FlipEffect::Armed);
    let mut out = Vec::new();
    for (cycle, _) in fx.checkpoints.after(t.cycle) {
        if !sim.run_to_cycle(cycle) {
            break;
        }
        out.push(sim.judge(&fx.checkpoints));
    }
    out
}

/// Asserts `t` is decided `verdict` at the first checkpoint after its
/// flip, and that the full tail agrees.
fn assert_decided_at_once(fx: &Fixture, t: &Trial, verdict: Verdict, outcome: Outcome) {
    let js = judgements(fx, t);
    assert_eq!(
        js.first(),
        Some(&Judgement::Decided(verdict)),
        "{t:?}: {js:?}"
    );
    let settled = settle(fx, t);
    assert_eq!((settled.outcome, settled.end), (outcome, TrialEnd::Decided));
    assert_eq!(full_tail(fx, t), outcome, "the full tail agrees");
}

/// Store-queue data bit 3 of the only store in flight.
const STORE_DATA_BIT: u32 = 64 + 3;

#[test]
fn a_byte_no_one_touches_again_is_decided_sdc() {
    let fx = around_a_pause(
        MachineConfig::baseline(),
        |b| b.stq(Reg::of(2), Reg::of(3), 0),
        |_| {},
    );
    let t = first_armed(&fx, InjectionTarget::Sq, 0, STORE_DATA_BIT);
    assert_decided_at_once(&fx, &t, Verdict::Sdc, Outcome::Sdc);
}

#[test]
fn a_byte_stored_to_again_is_decided_masked() {
    let fx = around_a_pause(
        MachineConfig::baseline(),
        |b| b.stq(Reg::of(2), Reg::of(3), 0),
        |b| b.stq(Reg::of(2), Reg::of(3), 0),
    );
    let t = first_armed(&fx, InjectionTarget::Sq, 0, STORE_DATA_BIT);
    assert_decided_at_once(&fx, &t, Verdict::Masked, Outcome::Masked);
}

#[test]
fn a_byte_loaded_later_is_not_decided_before_the_load() {
    let fx = around_a_pause(
        MachineConfig::baseline(),
        |b| b.stq(Reg::of(2), Reg::of(3), 0),
        |b| {
            b.ldq(Reg::of(4), Reg::of(3), 0);
            b.stq(Reg::of(4), Reg::of(3), 8);
        },
    );
    let t = first_armed(&fx, InjectionTarget::Sq, 0, STORE_DATA_BIT);
    let js = judgements(&fx, &t);
    let open = js.iter().take_while(|&&j| j == Judgement::Open).count();
    assert!(open >= 5, "open through the pause: {js:?}");
    assert_eq!(settle(&fx, &t).outcome, Outcome::Sdc);
    assert_eq!(full_tail(&fx, &t), Outcome::Sdc);
}

#[test]
fn a_later_dtlb_hit_is_decided_due() {
    let fx = around_a_pause(
        MachineConfig::baseline(),
        |b| b.ldq(Reg::of(4), Reg::of(3), 0),
        |b| b.ldq(Reg::of(5), Reg::of(3), 0),
    );
    let t = trial(InjectionTarget::Dtlb, 0, 0, 200);
    assert_decided_at_once(&fx, &t, Verdict::Due, Outcome::Due);
}

#[test]
fn a_dtlb_poison_evicted_before_its_next_hit_is_decided_masked() {
    // A two-entry DTLB: the next two pages evict the poisoned page,
    // which is then refilled clean and hit again. Memory reads zero, so
    // each load's base is the previous load's result and the accesses
    // translate in program order.
    let mut machine = MachineConfig::baseline();
    machine.dtlb_entries = 2;
    let page = machine.page_bytes as i32;
    let base = DATA_BASE as i32;
    let fx = around_a_pause(
        machine,
        |b| b.ldq(Reg::of(4), Reg::of(3), 0),
        |b| {
            b.ldq(Reg::of(5), Reg::of(3), page);
            b.ldq(Reg::of(6), Reg::of(5), base + 2 * page);
            b.ldq(Reg::of(7), Reg::of(6), base);
            b.ldq(Reg::of(8), Reg::of(7), base);
        },
    );
    let t = trial(InjectionTarget::Dtlb, 0, 0, 200);
    assert_decided_at_once(&fx, &t, Verdict::Masked, Outcome::Masked);
}

#[test]
fn the_index_stays_under_a_mebibyte_at_30k_instructions() {
    let machine = MachineConfig::baseline();
    let mcf = avf_workloads::by_name("429.mcf")
        .expect("the 429.mcf proxy exists")
        .build();
    for (name, program) in [("stressmark", stressmark(&machine)), ("429.mcf", mcf)] {
        let (_, checkpoints) = golden_run_checkpointed(&machine, &program, 30_000, 30_000 / 8);
        let bytes = checkpoints.future().bytes();
        assert!(bytes > 0 && bytes < 1 << 20, "{name}: {bytes} bytes");
    }
}
