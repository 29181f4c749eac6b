//! Per-proof-tag soundness: every site the classifier prunes must
//! classify `Masked` when a real injection is executed there.
//!
//! The stratified estimator credits pruned strata as exact zeros
//! without running a single trial, so a classifier that prunes one
//! genuinely-vulnerable site silently deflates the measured AVF. These
//! sweeps enumerate pruned sites per [`ProofTag`] on witness programs
//! and execute each one through the real injection engine — under both
//! fault models, since the padding strata are replay-conditional.

use std::sync::Arc;

use avf_inject::{JobSpec, LocalBackend, Outcome, StoreSource, Trial};
use avf_prune::{ProofTag, PruneMap};
use avf_sim::{golden_run_with_evidence, FaultModel, InjectionTarget, MachineConfig, PRUNE_WINDOW};
use avf_workloads::testkit::{idle_loop, register_chain};

const INSTR_BUDGET: u64 = 6_000;

/// Cap per (target, tag) bucket so the sweep covers every stratum kind
/// on every structure without ballooning the trial count.
const SITES_PER_BUCKET: usize = 12;

const TAGS: [ProofTag; 4] = [
    ProofTag::IdleEntry,
    ProofTag::UnAcePadding,
    ProofTag::NarrowAccess,
    ProofTag::DeadValueResidency,
];

fn tag_slot(tag: ProofTag) -> usize {
    TAGS.iter().position(|&t| t == tag).expect("known tag")
}

/// Enumerates pruned sites spread over cycles/entries/bits, bucketed by
/// `(target, proof tag)`, and returns them as a trial list plus the
/// proof tag each trial's site carries.
fn pruned_sweep(machine: &MachineConfig, map: &PruneMap) -> Vec<(Trial, ProofTag)> {
    let sizes = machine.structure_sizes();
    let cycles = map.cycles();
    let probe_cycles: Vec<u64> = [1, cycles / 4, cycles / 2, (3 * cycles) / 4, cycles - 1]
        .into_iter()
        .filter(|&c| c >= 1 && c < cycles)
        .collect();
    let mut sites = Vec::new();
    let mut index = 0u64;
    for target in InjectionTarget::ALL {
        let entries = target.entries(machine);
        let entry_bits = target.entry_bits(&sizes);
        let mut bucket = [0usize; TAGS.len()];
        for &cycle in &probe_cycles {
            for entry in (0..entries).step_by((entries as usize / 8).max(1)) {
                for bit in (0..entry_bits).step_by((entry_bits as usize / 16).max(1)) {
                    let Some(tag) = map.classify(target, entry, bit, cycle) else {
                        continue;
                    };
                    let slot = tag_slot(tag);
                    if bucket[slot] >= SITES_PER_BUCKET {
                        continue;
                    }
                    bucket[slot] += 1;
                    sites.push((
                        Trial {
                            index,
                            target,
                            cycle,
                            entry,
                            bit,
                        },
                        tag,
                    ));
                    index += 1;
                }
            }
        }
    }
    sites
}

/// Builds evidence + map for `(program, model)`, executes every swept
/// pruned site through the injection engine, and asserts each one
/// observes `Masked`. Returns which proof tags the sweep exercised.
fn assert_sweep_masked(program: &avf_isa::Program, model: FaultModel) -> [bool; TAGS.len()] {
    let machine = MachineConfig::baseline();
    let (golden, store, evidence) = golden_run_with_evidence(
        &machine,
        program,
        INSTR_BUDGET,
        golden_interval(),
        PRUNE_WINDOW,
    );
    let map = PruneMap::build(&machine, program, model, &evidence);
    let sites = pruned_sweep(&machine, &map);
    assert!(
        !sites.is_empty(),
        "witness program must yield pruned sites to audit"
    );

    let backend = LocalBackend::new(2);
    let opened = backend.open_resolved(
        JobSpec {
            machine: machine.clone(),
            program: program.clone(),
            instr_budget: INSTR_BUDGET,
            fault_model: model,
            checkpoint_interval: golden_interval(),
            prune: false,
        },
        golden,
        Arc::new(store),
        None,
        StoreSource::GoldenRun,
    );
    let mut session = opened.session;
    let trials: Vec<Trial> = sites.iter().map(|&(t, _)| t).collect();
    let mut seen = 0usize;
    for event in session.submit(&trials).expect("submit sweep") {
        let event = event.expect("local trial");
        let (trial, tag) = sites[event.index as usize];
        assert_eq!(
            event.outcome,
            Outcome::Masked,
            "{model} model: pruned site {} cycle {} entry {} bit {} ({tag}) observed {:?}",
            trial.target,
            trial.cycle,
            trial.entry,
            trial.bit,
            event.outcome
        );
        seen += 1;
    }
    assert_eq!(seen, sites.len(), "every swept site must report back");

    let mut covered = [false; TAGS.len()];
    for &(_, tag) in &sites {
        covered[tag_slot(tag)] = true;
    }
    covered
}

fn golden_interval() -> u64 {
    (INSTR_BUDGET / 8).max(64)
}

#[test]
fn replay_sweep_on_idle_loop_covers_and_masks_all_four_strata() {
    let covered = assert_sweep_masked(&idle_loop(), FaultModel::Replay);
    // The idle loop is the maximal witness: no memory traffic (narrow
    // LQ/SQ data), almost-empty queues (idle entries), one live
    // register (dead-value residency), and the replay model adds the
    // padding strata.
    for (tag, hit) in TAGS.iter().zip(covered) {
        assert!(hit, "sweep never exercised the {tag} stratum");
    }
}

#[test]
fn trap_sweep_on_idle_loop_masks_without_padding_strata() {
    let covered = assert_sweep_masked(&idle_loop(), FaultModel::Trap);
    // Trap-model control flips are DUE by fiat, so the padding proof is
    // unsound there and the classifier must not emit it.
    assert!(!covered[tag_slot(ProofTag::UnAcePadding)]);
    assert!(covered[tag_slot(ProofTag::IdleEntry)]);
    assert!(covered[tag_slot(ProofTag::DeadValueResidency)]);
}

#[test]
fn sweeps_on_a_live_program_stay_sound_under_both_models() {
    for model in [FaultModel::Replay, FaultModel::Trap] {
        let covered = assert_sweep_masked(&register_chain(), model);
        // register_chain stores quad-width values: the narrow-access
        // stratum must never appear for it.
        assert!(
            !covered[tag_slot(ProofTag::NarrowAccess)],
            "{model}: quad-width program must not get narrow-access pruning"
        );
        assert!(covered[tag_slot(ProofTag::IdleEntry)]);
    }
}
