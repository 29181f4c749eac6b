//! Golden-pass microbenchmark: the fault-free pass every campaign venue
//! runs before its first trial (`golden_pass`, with prune evidence for
//! pruned campaigns and without it otherwise), on the paper-baseline
//! stressmark and the `429.mcf` proxy at a 30k-instruction budget and
//! the campaign's automatic checkpoint interval.
//!
//! Prints one line per (program, pass): the median and minimum over
//! `ROUNDS` rounds in milliseconds, plus the checkpoint footprint. To
//! compare two builds, run their bench executables alternately and pair
//! the lines:
//!
//! ```text
//! cargo bench -q -p avf-bench --bench golden_pass
//! ```

use std::time::Instant;

use avf_codegen::{generate, Knobs, TargetParams};
use avf_sim::{golden_pass, MachineConfig, PRUNE_WINDOW};

const BUDGET: u64 = 30_000;
const INTERVAL: u64 = BUDGET / 8;
const ROUNDS: usize = 3;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let machine = MachineConfig::baseline();
    let programs = [
        (
            "stressmark",
            generate(&Knobs::paper_baseline(), &TargetParams::baseline()).program,
        ),
        (
            "429.mcf",
            avf_workloads::by_name("429.mcf")
                .expect("the 429.mcf proxy exists")
                .build(),
        ),
    ];
    for (name, program) in &programs {
        let mut plain = Vec::new();
        let mut evidence = Vec::new();
        let mut bytes = 0;
        for _ in 0..ROUNDS {
            let t = Instant::now();
            let (_, checkpoints, _) = golden_pass(&machine, program, BUDGET, INTERVAL, None);
            plain.push(t.elapsed().as_secs_f64() * 1e3);
            bytes = checkpoints.total_bytes();
            let t = Instant::now();
            let _ = golden_pass(&machine, program, BUDGET, INTERVAL, Some(PRUNE_WINDOW));
            evidence.push(t.elapsed().as_secs_f64() * 1e3);
        }
        for (pass, ms) in [("checkpointed", plain), ("evidence", evidence)] {
            let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
            println!(
                "golden_pass program={name} pass={pass} rounds={ROUNDS} median_ms={:.3} min_ms={min:.3} ckpt_bytes={bytes}",
                median(ms)
            );
        }
    }
}
