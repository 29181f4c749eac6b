//! `simulate`'s ACE report, pinned bit for bit.
//!
//! Each program's per-structure AVF (as `f64::to_bits`) and dead-instruction
//! counts at 15,000 instructions on the baseline machine are pinned. Any
//! change to how the deadness analysis resolves or credits residency, or to
//! the residency the simulator records, shows up here as a changed bit.

use avf_ace::{AvfReport, DeadnessStats, Structure};
use avf_codegen::{generate, Knobs, TargetParams};
use avf_isa::Program;
use avf_sim::{simulate, MachineConfig};

const INSTRUCTIONS: u64 = 15_000;

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

/// Every structure's AVF bits, in [`Structure::ALL`] order.
fn avf_bits(report: &AvfReport) -> [u64; 13] {
    Structure::ALL.map(|s| report.avf(s).to_bits())
}

fn check(name: &str, program: &Program, want_avf: [u64; 13], want_dead: [u64; 3]) {
    let report = simulate(&MachineConfig::baseline(), program, INSTRUCTIONS).report;
    let got = avf_bits(&report);
    let DeadnessStats {
        committed,
        live,
        dead,
    } = report.deadness();
    for (i, s) in Structure::ALL.iter().enumerate() {
        assert_eq!(
            got[i],
            want_avf[i],
            "{name} {s}: AVF {} != pinned {}",
            f64::from_bits(got[i]),
            f64::from_bits(want_avf[i])
        );
    }
    assert_eq!([committed, live, dead], want_dead, "{name}: deadness");
}

#[test]
fn stressmark_report_is_pinned() {
    let program = stressmark(&MachineConfig::baseline());
    check(
        "stressmark",
        &program,
        [
            0x3fe9c653b25cd2bb,
            0x3fd9e68b13c2cc09,
            0x3fde2ba11e12e414,
            0x3fd9de1848ddeb7a,
            0x3fe1d0e6feead8b8,
            0x3fe17acdd4583e7f,
            0x3faf18f503470103,
            0x3fc88cf65f7dedc2,
            0x3fb0d154bca666a6,
            0x3fb757f07e3bc235,
            0x3f810e4176a7af40,
            0x0000000000000000,
            0x0000000000000000,
        ],
        [15000, 14956, 44],
    );
}

#[test]
fn mcf_report_is_pinned() {
    let program = avf_workloads::by_name("429.mcf")
        .expect("the 429.mcf proxy exists")
        .build();
    check(
        "429.mcf",
        &program,
        [
            0x3fd8bbb7039da587,
            0x3fb39a003729c9d0,
            0x3fdbd927c9ebceac,
            0x3fb5ec27a4d95bb1,
            0x3fb78f4d08db53df,
            0x3fa75c6b64a51628,
            0x3f931794d0bd2904,
            0x3fa806d95c4865a9,
            0x3f961ae3a252d242,
            0x3fd617393f545b38,
            0x3fbacb4551a83277,
            0x3f65fea385c72cec,
            0x3f7b75385af73089,
        ],
        [15000, 7422, 7578],
    );
}

#[test]
fn testkit_reports_are_pinned() {
    use avf_workloads::testkit;
    check(
        "register_chain",
        &testkit::register_chain(),
        [
            0x3fda4d2b9f2d1c93,
            0x3fe93d3e8c7d7d2a,
            0x0000000000000000,
            0x0000000000000000,
            0x3f9e66ebf9ffde9b,
            0x3f04df0ffac83c01,
            0x3fc394282752d0ba,
            0x3fd0ce859a473fe1,
            0x3e70b2732f069667,
            0x3f48cd0f969988e7,
            0x3f6a66239c99aa4c,
            0x0000000000000000,
            0x0000000000000000,
        ],
        [7021, 6806, 215],
    );
    check(
        "idle_loop",
        &testkit::idle_loop(),
        [
            0x3fa3106825f8d1a0,
            0x3fc63615238d3f01,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x3f99050dc9f7a3a8,
            0x3f7f318d8548e350,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
            0x0000000000000000,
        ],
        [4002, 802, 3200],
    );
    check(
        "line_churn",
        &testkit::line_churn(),
        [
            0x3fd489611e02876d,
            0x3fa059074a25b2f6,
            0x3fdf6af8e2059b7f,
            0x0000000000000000,
            0x3f64cfe7d8511782,
            0x3f5b9b1109b483fd,
            0x3f897cfd8c98d9de,
            0x3f8946c8667c7c0e,
            0x3f5b5299fcfb0a23,
            0x3f8296c0cf0affc9,
            0x3f7c9384a30bdca1,
            0x3f5f9bede23cd1a2,
            0x3f639d7e2ab3de5b,
        ],
        [1098, 646, 452],
    );
}
