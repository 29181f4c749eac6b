//! Micro-op replay oracle: classification-model tests.
//!
//! Three properties pin the replay oracle's contract:
//!
//! 1. **Data-field equivalence** — flips in pure data fields (register
//!    file, cache arrays, DTLB, the LQ/SQ data halves) classify
//!    identically under `trap` and `replay`; only queueing-structure
//!    control/tag handling moves between the models.
//! 2. **Determinism** — a replay campaign's outcome tallies are
//!    independent of the worker thread count, exactly like the trap
//!    engine's.
//! 3. **Taxonomy** — a corrupted entry that decodes to an
//!    architecturally impossible state (a destination tag past the
//!    physical register file) is classified `ReplayDiverged` without
//!    mutating machine state, while padding bits of the byte-aligned
//!    tag fields mask.

use avf_inject::{
    classify_trial, golden_run_checkpointed, Campaign, CampaignConfig, FaultModel, FlipEffect,
    InjectionTarget, MaskReason, Outcome, Trial,
};
use avf_sim::{InjectionSim, MachineConfig};
use avf_workloads::testkit::register_chain;

fn campaign_counts(
    model: FaultModel,
    threads: usize,
    targets: Vec<InjectionTarget>,
) -> Vec<(InjectionTarget, avf_inject::OutcomeCounts)> {
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let config = CampaignConfig {
        injections: 400,
        seed: 7,
        threads,
        instr_budget: 6_000,
        targets,
        fault_model: model,
        ..CampaignConfig::default()
    };
    Campaign::new(&machine, &program, config)
        .run()
        .targets
        .into_iter()
        .map(|t| (t.target, t.counts))
        .collect()
}

#[test]
fn data_field_flips_classify_identically_under_both_models() {
    // Campaign-level: the pure data-field structures must tally
    // identically — the fault model only governs ROB/IQ/LQ/SQ
    // control/tag handling.
    let data_targets = vec![
        InjectionTarget::RegFile,
        InjectionTarget::Dl1,
        InjectionTarget::L2,
        InjectionTarget::Dtlb,
    ];
    let trap = campaign_counts(FaultModel::Trap, 2, data_targets.clone());
    let replay = campaign_counts(FaultModel::Replay, 2, data_targets);
    assert_eq!(trap, replay, "data-field tallies must not depend on model");
}

#[test]
fn lsq_data_half_flips_classify_identically_under_both_models() {
    // Direct per-trial equivalence on the LQ/SQ *data halves* (bits
    // 64..128), which a campaign cannot sample in isolation.
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let (golden, store) = golden_run_checkpointed(&machine, &program, 6_000, 256);
    let mut compared = 0u64;
    for target in [InjectionTarget::Lq, InjectionTarget::Sq] {
        for cycle in (1..golden.cycles).step_by(199) {
            for entry in [0u64, 1, 5] {
                for bit in [64u32, 77, 100, 127] {
                    let mut outcomes = Vec::new();
                    for model in [FaultModel::Trap, FaultModel::Replay] {
                        let mut sim = InjectionSim::new(&machine, &program, 6_000);
                        sim.set_fault_model(model);
                        sim.restore_nearest(&store, cycle).expect("store decodes");
                        let trial = Trial {
                            index: 0,
                            target,
                            cycle,
                            entry,
                            bit,
                        };
                        outcomes.push(classify_trial(&mut sim, &trial, golden.digest));
                    }
                    assert_eq!(
                        outcomes[0], outcomes[1],
                        "{target} data-half bit {bit} at cycle {cycle} entry {entry}"
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 50, "swept a real sample, not an empty loop");
}

#[test]
fn replay_campaign_is_deterministic_across_thread_counts() {
    let all = InjectionTarget::ALL.to_vec();
    let one = campaign_counts(FaultModel::Replay, 1, all.clone());
    let two = campaign_counts(FaultModel::Replay, 2, all.clone());
    let four = campaign_counts(FaultModel::Replay, 4, all);
    assert_eq!(one, two, "1 vs 2 threads");
    assert_eq!(one, four, "1 vs 4 threads");
}

#[test]
fn impossible_decode_classifies_replay_diverged() {
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let (golden, _) = golden_run_checkpointed(&machine, &program, 6_000, 256);
    let mut sim = InjectionSim::new(&machine, &program, 6_000);
    assert!(sim.run_to_cycle(golden.cycles / 2));

    // Baseline has 80 physical registers (7 implemented tag bits).
    // Flipping implemented tag bit 6 of a destination tag in 16..64
    // lands on register number 80..127: architecturally impossible.
    // ROB control bit 64 + 6 is that tag bit.
    assert_eq!(machine.phys_regs, 80, "test assumes the baseline file");
    let mut diverged_at = None;
    for entry in 0..machine.rob_entries as u64 {
        if sim.probe_bit(InjectionTarget::Rob, entry, 64 + 6) == FlipEffect::Diverged {
            diverged_at = Some(entry);
            break;
        }
    }
    let entry = diverged_at.expect("some in-flight dest tag flips out of the physical file");

    // Probe and flip agree, no state is mutated, and the campaign
    // classification is the dedicated ReplayDiverged bucket.
    let before = sim.snapshot();
    assert_eq!(
        sim.flip_bit(InjectionTarget::Rob, entry, 64 + 6),
        FlipEffect::Diverged
    );
    assert!(
        sim.matches_snapshot(&before),
        "diverged flips mutate nothing"
    );
    let trial = Trial {
        index: 0,
        target: InjectionTarget::Rob,
        cycle: sim.cycle(),
        entry,
        bit: 64 + 6,
    };
    assert_eq!(
        classify_trial(&mut sim, &trial, golden.digest),
        Outcome::ReplayDiverged
    );

    // The same field's padding bit (bit 7 of the byte-aligned tag) has
    // no storage behind it and masks instead.
    assert_eq!(
        sim.probe_bit(InjectionTarget::Rob, entry, 64 + 7),
        FlipEffect::Masked(MaskReason::UnAceBits)
    );

    // Under the trap model the same control-field flip is a blanket
    // detected error — the coarseness the oracle replaces.
    sim.set_fault_model(FaultModel::Trap);
    assert_eq!(
        sim.probe_bit(InjectionTarget::Rob, entry, 64 + 6),
        FlipEffect::Armed
    );
}

#[test]
fn replay_reaches_in_flight_consumers_the_trap_model_misses() {
    // The core fidelity claim: a corrupted result whose architected
    // register is already renamed past (trap: Masked(Overwritten)) is
    // still consumed by in-flight, not-yet-issued readers — the replay
    // walk re-executes them and the corruption reaches program output.
    let machine = MachineConfig::baseline();
    let program = register_chain();
    let (golden, store) = golden_run_checkpointed(&machine, &program, 6_000, 128);
    let mut witnessed = false;
    'search: for cycle in (golden.cycles / 4..golden.cycles).step_by(97) {
        for entry in 0..machine.rob_entries as u64 {
            for bit in [0u32, 13] {
                let trial = Trial {
                    index: 0,
                    target: InjectionTarget::Rob,
                    cycle,
                    entry,
                    bit,
                };
                let mut trap_sim = InjectionSim::new(&machine, &program, 6_000);
                trap_sim.set_fault_model(FaultModel::Trap);
                trap_sim.restore_nearest(&store, cycle).expect("restores");
                assert!(trap_sim.run_to_cycle(cycle));
                if trap_sim.probe_bit(InjectionTarget::Rob, entry, bit)
                    != FlipEffect::Masked(MaskReason::Overwritten)
                {
                    continue;
                }
                let mut replay_sim = InjectionSim::new(&machine, &program, 6_000);
                replay_sim.set_fault_model(FaultModel::Replay);
                replay_sim.restore_nearest(&store, cycle).expect("restores");
                if classify_trial(&mut replay_sim, &trial, golden.digest) == Outcome::Sdc {
                    witnessed = true;
                    break 'search;
                }
            }
        }
    }
    assert!(
        witnessed,
        "no overwritten-in-trap flip produced an SDC under replay — \
         the in-flight walk is not propagating"
    );
}
