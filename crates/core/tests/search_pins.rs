//! Pinned search results across venues.
//!
//! At a fixed GA seed the local search, a two-worker fleet and the
//! broker must reproduce the same history bits, best genome, evaluation
//! count and final score, pinned here to values recorded before scores
//! were memoized per program. The worker behind the broker must
//! simulate each distinct program of the search once: its miss count
//! equals the number of distinct programs the scored genomes build,
//! which is below the number of distinct genomes.

use std::collections::HashSet;

use avf_ace::{FaultRates, Fitness};
use avf_broker::{Broker, BrokerOptions};
use avf_codegen::GENOME_LEN;
use avf_ga::{optimize, EvalError, FitnessEvaluator, GaParams, LocalEvaluator};
use avf_isa::Inst;
use avf_service::{candidate_program, evaluate_genome, spawn_local, EvalContext, ServeOptions};
use avf_sim::MachineConfig;
use avf_stressmark::{generate_stressmark, SearchBackend, SearchConfig, SearchOutcome};

const BEST: u64 = 0x3fc9_1e9f_f23e_9660;
const MEANS: [u64; 6] = [
    0x3fc2_30c3_a7bd_3354,
    0x3fc5_abec_67b9_589f,
    0x3fc7_10c7_4f31_6ad6,
    0x3fc8_4f7f_1374_7460,
    0x3fc9_125f_f027_431c,
    0x3fc9_1e9f_f23e_9660,
];
const BEST_GENOME: [u64; GENOME_LEN] = [
    0x3fc8_1dfc_b880_d314,
    0x3fcd_22ac_4e94_aa4c,
    0x3fe8_178c_ae3e_08ed,
    0x3fa8_f487_c89e_7260,
    0x3fe1_3e9d_5477_cc58,
    0x3fe4_93fb_1afa_daeb,
    0x3fe7_383d_d825_639b,
    0x3feb_4d8c_2bfb_d3f1,
    0x3fe0_ed77_39e0_ae92,
    0x3fea_ea24_dff5_fe3f,
    0x3fca_f9ba_1b4f_bba4,
];
const EVALUATIONS: u64 = 26;
const FINAL_SCORE: u64 = 0x3fca_9a2e_d94e_16eb;

fn ga() -> GaParams {
    GaParams {
        population: 8,
        generations: 6,
        ..GaParams::quick()
    }
    .with_seed(7)
}

fn context() -> EvalContext {
    EvalContext {
        machine: MachineConfig::baseline(),
        fitness: Fitness::overall(FaultRates::baseline()),
        instr_budget: 6_000,
    }
}

fn config(backend: SearchBackend) -> SearchConfig {
    let ctx = context();
    SearchConfig {
        machine: ctx.machine,
        fitness: ctx.fitness,
        ga: ga(),
        eval_instructions: ctx.instr_budget,
        final_instructions: 12_000,
        backend,
    }
}

fn assert_pinned(venue: &str, outcome: &SearchOutcome) {
    let ga = &outcome.ga;
    let bests: Vec<u64> = ga.history.iter().map(|g| g.best.to_bits()).collect();
    let means: Vec<u64> = ga.history.iter().map(|g| g.mean.to_bits()).collect();
    let genome: Vec<u64> = ga.best_genome.iter().map(|g| g.to_bits()).collect();
    assert_eq!(bests, [BEST; 6], "{venue}: per-generation best");
    assert_eq!(means, MEANS, "{venue}: per-generation mean");
    assert_eq!(genome, BEST_GENOME, "{venue}: best genome");
    assert_eq!(ga.best_fitness.to_bits(), BEST, "{venue}: best fitness");
    assert_eq!(ga.evaluations, EVALUATIONS, "{venue}: evaluations");
    assert_eq!(outcome.score.to_bits(), FINAL_SCORE, "{venue}: final score");
}

/// Records every genome a search scores, scoring with plain
/// `evaluate_genome`.
struct Recorder {
    inner: LocalEvaluator,
    scored: Vec<Vec<f64>>,
}

impl FitnessEvaluator for Recorder {
    fn evaluate(&mut self, generation: &[Vec<f64>]) -> Result<Vec<f64>, EvalError> {
        self.scored.extend_from_slice(generation);
        self.inner.evaluate(generation)
    }

    fn evaluations(&self) -> u64 {
        self.inner.evaluations()
    }
}

/// Distinct programs (contents without the name) the pinned search's
/// genomes build, counted independently of any score cache.
fn distinct_programs() -> usize {
    let ctx = context();
    let scoring = ctx.clone();
    let mut recorder = Recorder {
        inner: LocalEvaluator::new(1, move |g: &[f64]| evaluate_genome(&scoring, g)),
        scored: Vec::new(),
    };
    let result = optimize(GENOME_LEN, &ga(), &mut recorder).expect("local search cannot fail");
    assert_eq!(result.evaluations, EVALUATIONS);
    let programs: HashSet<(Vec<Inst>, u32, u64, Vec<u8>)> = recorder
        .scored
        .iter()
        .map(|genes| {
            let p = candidate_program(&ctx, genes);
            (
                p.insts().to_vec(),
                p.entry(),
                p.data().base,
                p.data().bytes.clone(),
            )
        })
        .collect();
    programs.len()
}

fn worker(opts: &ServeOptions) -> String {
    spawn_local(opts.clone()).expect("spawn worker").to_string()
}

fn one_thread() -> ServeOptions {
    ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    }
}

#[test]
fn local_search_is_pinned() {
    let outcome = generate_stressmark(&config(SearchBackend::Local { threads: 2 }))
        .expect("local search cannot fail");
    assert_pinned("local", &outcome);
}

#[test]
fn two_worker_search_is_pinned() {
    let addrs = vec![worker(&one_thread()), worker(&one_thread())];
    let outcome = generate_stressmark(&config(SearchBackend::Workers { addrs, auth: None }))
        .expect("fleet search");
    assert_pinned("2 workers", &outcome);
}

#[test]
fn brokered_search_is_pinned_and_simulates_each_program_once() {
    let opts = one_thread();
    let dir = std::env::temp_dir().join(format!("avf-search-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let broker = Broker::start(BrokerOptions {
        workers: vec![worker(&opts)],
        store_path: dir.join("campaigns.log"),
        ..BrokerOptions::default()
    })
    .expect("broker");
    let addr = broker.spawn_local().expect("spawn broker").to_string();
    let outcome = generate_stressmark(&config(SearchBackend::Broker {
        addr,
        tenant: "pins".to_owned(),
        auth: None,
    }))
    .expect("brokered search");
    assert_pinned("broker", &outcome);

    let programs = distinct_programs();
    let misses = opts.eval_cache.stats().misses;
    assert_eq!(
        misses, programs as u64,
        "one simulation per distinct program"
    );
    assert!(
        misses < outcome.ga.evaluations,
        "{misses} programs from {} genomes",
        outcome.ga.evaluations
    );
    let _ = std::fs::remove_dir_all(&dir);
}
