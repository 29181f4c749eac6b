//! The event-gated cycle loop reproduces the always-scan loop exactly.
//!
//! Writeback and issue skip the cycles on which they would change
//! nothing, using two derived gates that snapshots do not capture and
//! `restore` resets. Two checks cover that:
//!
//! * a run restored at checkpoint *i* — onto a machine whose gates were
//!   left stale by a different point of the run — equals the continuous
//!   run at every later checkpoint, and ends where it ends;
//! * golden runs and one ACE-instrumented `simulate` equal values pinned
//!   from the always-scan loop, on the paper-baseline stressmark, the
//!   `429.mcf` proxy and the testkit kernels, on both machines.
//!
//! A third check pins the checkpointing golden pass itself, with and
//! without prune evidence: its checkpoints, their footprint, the
//! golden-future index and the evidence.

use avf_codegen::{generate, Knobs, TargetParams};
use avf_isa::Program;
use avf_sim::{
    golden_run, golden_run_checkpointed, golden_run_with_evidence, simulate, DecodedCheckpoints,
    InjectionSim, MachineConfig, PipelineSnapshot, RunEnd, SimStats, PRUNE_WINDOW,
};

fn target_params(machine: &MachineConfig) -> TargetParams {
    TargetParams {
        rob_entries: machine.rob_entries as u32,
        line_bytes: machine.dl1.line_bytes,
        page_bytes: machine.page_bytes,
        dtlb_entries: machine.dtlb_entries as u32,
        dl1_bytes: machine.dl1.size_bytes,
        l2_bytes: machine.l2.size_bytes,
    }
}

fn stressmark(machine: &MachineConfig) -> Program {
    generate(&Knobs::paper_baseline(), &target_params(machine)).program
}

fn mcf() -> Program {
    avf_workloads::by_name("429.mcf")
        .expect("the 429.mcf proxy exists")
        .build()
}

fn machines() -> [(&'static str, MachineConfig); 2] {
    [
        ("baseline", MachineConfig::baseline()),
        ("config_a", MachineConfig::config_a()),
    ]
}

/// Restores a machine at several checkpoints of the continuous run, in
/// descending order and each time from wherever the previous replay left
/// it, and checks the replay matches every later checkpoint.
fn restored_runs_rejoin_the_continuous_run(name: &str, machine: &MachineConfig, program: &Program) {
    const BUDGET: u64 = 10_000;
    // About a dozen checkpoints, however long the program runs.
    let interval = (golden_run(machine, program, BUDGET).cycles / 12).max(1);
    let (golden, checkpoints) = golden_run_checkpointed(machine, program, BUDGET, interval);
    let all: Vec<(u64, &PipelineSnapshot)> = checkpoints
        .nearest(0)
        .into_iter()
        .chain(checkpoints.after(0))
        .collect();
    assert!(all.len() >= 2, "{name}: {} checkpoint(s)", all.len());
    let step = (all.len() / 4).max(1);
    let starts: Vec<usize> = (0..all.len() - 1).step_by(step).rev().collect();

    // Leave the gates at their end-of-run values before the first restore.
    let mut sim = InjectionSim::new(machine, program, BUDGET);
    assert_eq!(sim.run_to_end(), RunEnd::Completed, "{name}");
    for &i in &starts {
        let (at, snap) = all[i];
        sim.restore(snap);
        for &(cycle, later) in &all[i + 1..] {
            assert!(sim.run_to_cycle(cycle), "{name}: ended before {cycle}");
            assert!(
                sim.matches_snapshot(later),
                "{name}: restored at {at}, diverged by {cycle}"
            );
        }
        assert_eq!(sim.run_to_end(), RunEnd::Completed, "{name}: from {at}");
        assert_eq!(sim.cycle(), golden.cycles, "{name}: from {at}");
        assert_eq!(sim.committed(), golden.committed, "{name}: from {at}");
        assert!(
            sim.memory() == checkpoints.final_memory(),
            "{name}: from {at}"
        );
    }

    // A machine built at a checkpoint starts with fresh gates.
    let (at, snap) = all[all.len() / 2];
    let mut resumed = InjectionSim::from_snapshot(machine, program, BUDGET, snap);
    for &(cycle, later) in all.iter().filter(|&&(c, _)| c > at) {
        assert!(resumed.run_to_cycle(cycle));
        assert!(resumed.matches_snapshot(later), "{name}: built at {at}");
    }
    assert_eq!(resumed.run_to_end(), RunEnd::Completed);
    assert_eq!(
        resumed.memory_digest(),
        golden.digest,
        "{name}: built at {at}"
    );
}

#[test]
fn restore_resets_the_gates_on_the_stressmark() {
    for (mname, machine) in machines() {
        let program = stressmark(&machine);
        restored_runs_rejoin_the_continuous_run(&format!("stressmark/{mname}"), &machine, &program);
    }
}

#[test]
fn restore_resets_the_gates_on_mcf() {
    let program = mcf();
    for (mname, machine) in machines() {
        restored_runs_rejoin_the_continuous_run(&format!("429.mcf/{mname}"), &machine, &program);
    }
}

#[test]
fn restore_resets_the_gates_on_the_testkit_kernels() {
    let kernels = [
        ("register_chain", avf_workloads::testkit::register_chain()),
        ("idle_loop", avf_workloads::testkit::idle_loop()),
    ];
    for (kname, program) in &kernels {
        for (mname, machine) in machines() {
            restored_runs_rejoin_the_continuous_run(&format!("{kname}/{mname}"), &machine, program);
        }
    }
}

/// `(cycles, committed, digest)` of a golden run.
fn golden_of(machine: &MachineConfig, program: &Program, budget: u64) -> (u64, u64, u64) {
    let g = golden_run(machine, program, budget);
    (g.cycles, g.committed, g.digest)
}

#[test]
fn golden_runs_equal_the_always_scan_loop() {
    let baseline = MachineConfig::baseline();
    let config_a = MachineConfig::config_a();
    let chain = avf_workloads::testkit::register_chain();
    let idle = avf_workloads::testkit::idle_loop();
    let pinned = [
        (
            "stressmark/baseline",
            golden_of(&baseline, &stressmark(&baseline), 30_000),
            (75_664, 30_000, 0x7cca_357c_91a2_6437),
        ),
        (
            "429.mcf/baseline",
            golden_of(&baseline, &mcf(), 30_000),
            (87_596, 30_000, 0x9935_0519_53dd_cb44),
        ),
        (
            "stressmark/config_a",
            golden_of(&config_a, &stressmark(&config_a), 10_000),
            (26_401, 10_000, 0xce70_713d_0a44_1412),
        ),
        (
            "429.mcf/config_a",
            golden_of(&config_a, &mcf(), 10_000),
            (24_888, 10_000, 0x36c5_acd6_d3ea_8a26),
        ),
        (
            "register_chain/baseline",
            golden_of(&baseline, &chain, 10_000),
            (3_925, 7_021, 0xeda0_2040_3a15_99e9),
        ),
        (
            "register_chain/config_a",
            golden_of(&config_a, &chain, 10_000),
            (3_945, 7_021, 0xeda0_2040_3a15_99e9),
        ),
        (
            "idle_loop/baseline",
            golden_of(&baseline, &idle, 10_000),
            (1_492, 4_002, 0xcbf2_9ce4_8422_2325),
        ),
        (
            "idle_loop/config_a",
            golden_of(&config_a, &idle, 10_000),
            (1_497, 4_002, 0xcbf2_9ce4_8422_2325),
        ),
    ];
    for (name, got, want) in pinned {
        assert_eq!(got, want, "{name}: (cycles, committed, digest)");
    }
}

/// Every [`SimStats`] field, by name.
fn stats_fields(s: &SimStats) -> [(&'static str, u64); 16] {
    [
        ("cycles", s.cycles),
        ("committed", s.committed),
        ("committed_mem_ops", s.committed_mem_ops),
        ("branches", s.branches),
        ("mispredicts", s.mispredicts),
        ("wrong_path_fetched", s.wrong_path_fetched),
        ("rob_occ_sum", s.rob_occ_sum),
        ("iq_occ_sum", s.iq_occ_sum),
        ("lq_occ_sum", s.lq_occ_sum),
        ("sq_occ_sum", s.sq_occ_sum),
        ("dl1_accesses", s.dl1_accesses),
        ("dl1_misses", s.dl1_misses),
        ("l2_accesses", s.l2_accesses),
        ("l2_misses", s.l2_misses),
        ("dtlb_misses", s.dtlb_misses),
        ("l1i_misses", s.l1i_misses),
    ]
}

#[test]
fn simulate_stats_equal_the_always_scan_loop() {
    let machine = MachineConfig::baseline();
    // 429.mcf mispredicts, so this run also squashes wrong-path work.
    let stats = simulate(&machine, &mcf(), 30_000).stats;
    let want = SimStats {
        cycles: 87_596,
        committed: 30_000,
        committed_mem_ops: 8_235,
        branches: 3_292,
        mispredicts: 484,
        wrong_path_fetched: 12_604,
        rob_occ_sum: 4_983_962,
        iq_occ_sum: 153_997,
        lq_occ_sum: 1_255_283,
        sq_occ_sum: 260_624,
        dl1_accesses: 8_250,
        dl1_misses: 1_651,
        l2_accesses: 1_651,
        l2_misses: 1_651,
        dtlb_misses: 1_304,
        l1i_misses: 4,
    };
    for ((name, got), (_, want)) in stats_fields(&stats).into_iter().zip(stats_fields(&want)) {
        assert_eq!(got, want, "429.mcf simulate: {name}");
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every checkpoint of a pass, the cycle-0 state first.
fn all_checkpoints(checkpoints: &DecodedCheckpoints) -> Vec<(u64, &PipelineSnapshot)> {
    checkpoints
        .nearest(0)
        .into_iter()
        .chain(checkpoints.after(0))
        .collect()
}

#[test]
fn golden_pass_equals_the_pinned_checkpoints_and_evidence() {
    const BUDGET: u64 = 30_000;
    const INTERVAL: u64 = 3_750;
    let machine = MachineConfig::baseline();
    // (checkpoints, total bytes, golden-future bytes, FNV-1a of the
    // evidence's `Debug` output). The golden-future bytes include the
    // log of line events, 16 bytes each: 15,068 on the stressmark and
    // 10,722 on 429.mcf; and, for the 30,000 oracle executions of
    // either, a 4-byte live mask per position (30,001) and a 24-byte
    // outcome-stream block per 64 executions (469). The total bytes
    // count each distinct 1 KiB cache block (64 lines of 16 bytes) once,
    // as they count pages: the pages, snapshot state and golden future
    // of the flat-array accounting (12,961,404 and 26,916,936 bytes,
    // which held 24 bytes for each of the baseline's 18,432 lines in
    // each checkpoint: 442,368 bytes a checkpoint) plus the blocks.
    // Stressmark: 12,961,404 - 21 x 442,368 + 783 x 1,024 = 4,473,468.
    // 429.mcf: 26,916,936 - 24 x 442,368 + 2,611 x 1,024 = 18,973,768.
    let pinned = [
        (
            "stressmark",
            stressmark(&machine),
            (21, 4_473_468, 834_412, 0x57fa_5fb5_9246_6d1d),
        ),
        (
            "429.mcf",
            mcf(),
            (24, 18_973_768, 583_484, 0x8805_a3bb_9056_86b8),
        ),
    ];
    for (name, program, want) in &pinned {
        let (golden, plain) = golden_run_checkpointed(&machine, program, BUDGET, INTERVAL);
        let (golden_ev, with, evidence) =
            golden_run_with_evidence(&machine, program, BUDGET, INTERVAL, PRUNE_WINDOW);
        assert_eq!(golden, golden_ev, "{name}: golden run");
        let got = (
            plain.len(),
            plain.total_bytes(),
            plain.future().bytes(),
            fnv1a(format!("{evidence:?}").as_bytes()),
        );
        assert_eq!(
            got, *want,
            "{name}: (checkpoints, bytes, future bytes, evidence hash)"
        );
        assert_eq!(with.total_bytes(), plain.total_bytes(), "{name}: footprint");
        assert_eq!(with.future().bytes(), plain.future().bytes(), "{name}");

        let (plain_all, with_all) = (all_checkpoints(&plain), all_checkpoints(&with));
        assert_eq!(plain_all.len(), with_all.len(), "{name}");
        let mut sim = InjectionSim::new(&machine, program, BUDGET);
        for (&(at, a), &(at_ev, b)) in plain_all.iter().zip(&with_all) {
            assert_eq!(at, at_ev, "{name}: checkpoint cycle");
            sim.restore(a);
            assert!(sim.matches_snapshot(b), "{name}: checkpoint at {at}");
        }
        assert!(plain.final_memory() == with.final_memory(), "{name}");
    }
}
