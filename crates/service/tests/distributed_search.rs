//! Venue-invariance of the distributed GA search.
//!
//! The acceptance bar mirrors the campaign resilience suite: fitness
//! scores are pure functions of (context, genome), so at a fixed seed
//! the GA history — per-generation best fitness, final genome, and
//! evaluation count — must be *bit-identical* whether generations are
//! scored in-process, across a worker fleet, through the broker, or
//! across a fleet that loses a worker mid-generation. Only venue
//! metadata (cache hits, re-dispatch counters) may differ.

use avf_ace::{FaultRates, Fitness};
use avf_broker::{Broker, BrokerOptions, BrokeredEvaluator};
use avf_codegen::GENOME_LEN;
use avf_ga::{optimize, GaParams, GaResult, LocalEvaluator};
use avf_service::{
    evaluate_genome, spawn_local, EvalContext, RemoteEvaluator, ScoreCache, ServeOptions,
};
use avf_sim::MachineConfig;

fn context() -> EvalContext {
    EvalContext {
        machine: MachineConfig::baseline(),
        fitness: Fitness::overall(FaultRates::baseline()),
        instr_budget: 6_000,
    }
}

fn params() -> GaParams {
    GaParams {
        population: 6,
        generations: 4,
        ..GaParams::quick()
    }
}

fn local_reference() -> GaResult {
    let ctx = context();
    let mut local = LocalEvaluator::new(1, move |genes: &[f64]| evaluate_genome(&ctx, genes));
    optimize(GENOME_LEN, &params(), &mut local).expect("local search cannot fail")
}

fn assert_results_identical(a: &GaResult, b: &GaResult) {
    assert_eq!(a.best_genome, b.best_genome, "final genome must match");
    assert_eq!(a.evaluations, b.evaluations, "evaluation count must match");
    assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.best.to_bits(), y.best.to_bits(), "per-generation best");
        assert_eq!(x.mean.to_bits(), y.mean.to_bits(), "per-generation mean");
    }
}

#[test]
fn two_worker_fleet_bit_identical_to_local() {
    let clean = local_reference();

    let workers: Vec<String> = (0..2)
        .map(|_| {
            spawn_local(ServeOptions {
                threads: 1,
                ..ServeOptions::default()
            })
            .expect("spawn worker")
            .to_string()
        })
        .collect();
    let mut remote = RemoteEvaluator::connect(&workers, None, context()).expect("connect fleet");
    let result = optimize(GENOME_LEN, &params(), &mut remote).expect("remote search");

    assert_results_identical(&clean, &result);
    assert!(
        remote.cache_hits() > 0,
        "elite genomes re-scored across generations must hit the worker cache"
    );
    assert_eq!(remote.redispatched(), 0, "no faults were injected");
}

#[test]
fn worker_death_mid_generation_redispatches_and_stays_bit_identical() {
    let clean = local_reference();

    // Worker B aborts its connection midway through its second batch;
    // worker A survives the whole search.
    let a = spawn_local(ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    })
    .expect("healthy worker");
    let b = spawn_local(ServeOptions {
        threads: 1,
        die_mid_batch: Some(1),
        ..ServeOptions::default()
    })
    .expect("doomed worker");
    let workers = vec![a.to_string(), b.to_string()];
    let mut remote = RemoteEvaluator::connect(&workers, None, context()).expect("connect fleet");
    let result =
        optimize(GENOME_LEN, &params(), &mut remote).expect("search must survive one death");

    assert_results_identical(&clean, &result);
    assert!(
        remote.redispatched() > 0,
        "the injected fault must actually have fired"
    );
}

#[test]
fn all_workers_dead_surfaces_typed_error() {
    let doomed = spawn_local(ServeOptions {
        threads: 1,
        die_mid_batch: Some(0),
        ..ServeOptions::default()
    })
    .expect("doomed worker");
    let workers = vec![doomed.to_string()];
    let mut remote = RemoteEvaluator::connect(&workers, None, context()).expect("connect fleet");
    let err = optimize(GENOME_LEN, &params(), &mut remote)
        .expect_err("a fleet with every worker dead cannot finish");
    assert!(
        err.0.contains("disconnected"),
        "error must surface the last disconnection, got: {}",
        err.0
    );
}

#[test]
fn worker_cache_is_visible_to_the_spawner() {
    let cache = ScoreCache::shared();
    let addr = spawn_local(ServeOptions {
        threads: 1,
        eval_cache: cache.clone(),
        ..ServeOptions::default()
    })
    .expect("spawn worker")
    .to_string();
    let mut remote = RemoteEvaluator::connect(&[addr], None, context()).expect("connect fleet");
    let _ = optimize(GENOME_LEN, &params(), &mut remote).expect("remote search");
    let stats = cache.stats();
    assert!(stats.misses > 0, "distinct genomes must miss once");
    assert!(stats.hits > 0, "elite re-evaluations must hit");
    assert_eq!(stats.hits, remote.cache_hits());
}

#[test]
fn brokered_search_bit_identical_to_local() {
    let clean = local_reference();

    let workers: Vec<String> = (0..2)
        .map(|_| {
            spawn_local(ServeOptions {
                threads: 1,
                ..ServeOptions::default()
            })
            .expect("spawn worker")
            .to_string()
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("avf-eval-broker-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let broker = Broker::start(BrokerOptions {
        workers,
        store_path: dir.join("campaigns.log"),
        ..BrokerOptions::default()
    })
    .expect("broker");
    let addr = broker.spawn_local().expect("spawn broker").to_string();

    let mut evaluator =
        BrokeredEvaluator::connect(&addr, "search-tests", None, context()).expect("connect broker");
    let result = optimize(GENOME_LEN, &params(), &mut evaluator).expect("brokered search");

    assert_results_identical(&clean, &result);
    assert!(
        evaluator.cache_hits() > 0,
        "elite genomes must hit the worker cache through the broker too"
    );
}
