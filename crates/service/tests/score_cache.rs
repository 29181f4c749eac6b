//! The program-keyed fitness score cache.
//!
//! A score depends on the evaluation context and the generated program,
//! so [`ScoreCache`] keys on exactly those: every byte of the program
//! but its name, under the context fingerprint. These tests pin that
//! key, check that cached scoring is bit-identical to
//! [`evaluate_genome`] while simulating each distinct program once, and
//! check that the byte bound evicts without changing a score. The last
//! test drives a worker: a batch with a short genome is refused with a
//! typed error, and the worker goes on serving.

use std::collections::HashSet;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;

use avf_ace::{FaultRates, Fitness};
use avf_codegen::GENOME_LEN;
use avf_ga::par_map;
use avf_isa::{DataSegment, Inst, Program};
use avf_service::frame::{read_frame, write_frame};
use avf_service::{
    candidate_program, evaluate_genome, spawn_local, EvalBatch, EvalContext, EvalReply, ScoreCache,
    Scorer, ServeOptions,
};
use avf_sim::MachineConfig;
use proptest::collection::vec;
use proptest::prelude::*;

fn context(instr_budget: u64) -> EvalContext {
    EvalContext {
        machine: MachineConfig::baseline(),
        fitness: Fitness::overall(FaultRates::baseline()),
        instr_budget,
    }
}

/// A program's contents without its name: what a score depends on.
type Contents = (Vec<Inst>, u32, u64, Vec<u8>);

fn contents(program: &Program) -> Contents {
    (
        program.insts().to_vec(),
        program.entry(),
        program.data().base,
        program.data().bytes.clone(),
    )
}

fn rebuilt(program: &Program, insts: Vec<Inst>, data: DataSegment, entry: u32) -> Program {
    Program::new(program.name(), insts, data, entry).expect("valid program")
}

#[test]
fn keys_compare_every_byte_of_the_program_but_its_name() {
    let ctx = context(4_000).fingerprint();
    let other_ctx = context(4_001).fingerprint();
    let program = candidate_program(&context(4_000), &[0.5; GENOME_LEN]);
    let cache = ScoreCache::new(64, usize::MAX);
    assert!(!cache.slot(ctx, &program).hit());

    let renamed = Program::new(
        "renamed",
        program.insts().to_vec(),
        program.data().clone(),
        program.entry(),
    )
    .expect("valid program");
    assert!(cache.slot(ctx, &renamed).hit(), "the name is not keyed");

    let mut insts = program.insts().to_vec();
    insts[0].disp += 8;
    let one_inst = rebuilt(&program, insts, program.data().clone(), program.entry());
    let entry = rebuilt(
        &program,
        program.insts().to_vec(),
        program.data().clone(),
        program.entry() + 1,
    );
    let mut data = program.data().clone();
    data.base += 64;
    let base = rebuilt(&program, program.insts().to_vec(), data, program.entry());
    let mut data = program.data().clone();
    let last = data.bytes.len() - 1;
    data.bytes[last] ^= 1;
    let one_byte = rebuilt(&program, program.insts().to_vec(), data, program.entry());
    for (what, variant) in [
        ("one instruction", &one_inst),
        ("the entry point", &entry),
        ("the data base", &base),
        ("one data byte", &one_byte),
    ] {
        assert!(!cache.slot(ctx, variant).hit(), "{what} differs: a miss");
    }
    assert!(
        !cache.slot(other_ctx, &program).hit(),
        "another context misses"
    );
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 6, 6));
}

/// A batch of `bases` with duplicates planted after them: per base, a
/// repeat of the genome (`plant` 1), or a distinct genome that clamps
/// to the same program (`plant` 2: gene `at` is 1.0 in the base and
/// above 1 in the twin; `plant` 3: 0.0 and below 0).
fn planted(bases: Vec<(Vec<f64>, usize, u8)>) -> Vec<Vec<f64>> {
    let mut batch = Vec::new();
    let mut plants = Vec::new();
    for (mut genes, at, plant) in bases {
        match plant {
            1 => plants.push(genes.clone()),
            2 | 3 => {
                let (edge, beyond) = if plant == 2 { (1.0, 1.5) } else { (0.0, -0.5) };
                genes[at] = edge;
                let mut twin = genes.clone();
                twin[at] = beyond;
                plants.push(twin);
            }
            _ => {}
        }
        batch.push(genes);
    }
    batch.extend(plants);
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cached_scores_equal_evaluate_genome_and_simulate_each_program_once(
        bases in vec((vec(0.0f64..1.0, GENOME_LEN), 0usize..GENOME_LEN, 0u8..4), 1..5),
    ) {
        let ctx = context(2_000);
        let batch = planted(bases);
        let distinct: HashSet<Contents> = batch
            .iter()
            .map(|genes| contents(&candidate_program(&ctx, genes)))
            .collect();
        let expected: Vec<u64> = batch.iter().map(|g| evaluate_genome(&ctx, g).to_bits()).collect();
        let genomes: Vec<&[f64]> = batch.iter().map(Vec::as_slice).collect();

        // The worker's path: one batch, then the same batch again (all
        // elites).
        let cache = Arc::new(ScoreCache::new(4096, usize::MAX));
        let scorer = Scorer::new(ctx.clone(), Arc::clone(&cache));
        for round in 0..2 {
            let scored = scorer.score_batch(2, &genomes);
            let bits: Vec<u64> = scored.iter().map(|(s, _)| s.to_bits()).collect();
            prop_assert_eq!(&bits, &expected);
            let simulated = scored.iter().filter(|(_, cached)| !cached).count();
            prop_assert_eq!(simulated, if round == 0 { distinct.len() } else { 0 });
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.misses, distinct.len() as u64);
        prop_assert_eq!(stats.hits, 2 * batch.len() as u64 - distinct.len() as u64);

        // The local path: one genome per call, on two threads.
        let cache = Arc::new(ScoreCache::new(4096, usize::MAX));
        let scorer = Scorer::new(ctx.clone(), Arc::clone(&cache));
        let bits: Vec<u64> = par_map(2, &genomes, |g| scorer.score(g).to_bits());
        prop_assert_eq!(&bits, &expected);
        prop_assert_eq!(cache.stats().misses, distinct.len() as u64);
    }
}

#[test]
fn a_small_byte_bound_evicts_and_rescores_the_same_bits() {
    let ctx = context(2_000);
    // Gene 10 picks the chase template: an L2-miss and an L2-hit
    // candidate, whose segments differ.
    let a = vec![0.3; GENOME_LEN];
    let b = [vec![0.7; GENOME_LEN - 1], vec![0.8]].concat();
    let cache = Arc::new(ScoreCache::new(64, 1));
    let scorer = Scorer::new(ctx.clone(), Arc::clone(&cache));
    let first = scorer.score(&a);
    let _ = scorer.score(&b);
    let again = scorer.score(&a);
    assert_eq!(first.to_bits(), evaluate_genome(&ctx, &a).to_bits());
    assert_eq!(again.to_bits(), first.to_bits());
    let stats = cache.stats();
    assert_eq!(stats.misses, 3, "the evicted program is simulated again");
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.entries, 1, "one entry is always admitted");
    let segment = candidate_program(&ctx, &a).data().len();
    assert!(
        (segment..segment + 4096).contains(&stats.bytes),
        "only the newest entry and its segment stay charged: {} bytes",
        stats.bytes
    );
}

/// Sends one `EVAL_BATCH` on a fresh connection and reads the replies
/// up to the end of the batch or an error.
fn session(addr: std::net::SocketAddr, batch: &EvalBatch) -> Vec<EvalReply> {
    let stream = TcpStream::connect(addr).expect("connect worker");
    write_frame(&mut &stream, &batch.to_wire()).expect("send batch");
    let mut reader = BufReader::new(&stream);
    let mut replies = Vec::new();
    while let Some(frame) = read_frame(&mut reader).expect("read reply") {
        let reply = EvalReply::from_wire(&frame).expect("typed reply");
        let last = !matches!(reply, EvalReply::Score(_));
        replies.push(reply);
        if last {
            break;
        }
    }
    replies
}

#[test]
fn worker_refuses_a_short_genome_then_serves_a_valid_session() {
    let opts = ServeOptions {
        threads: 1,
        ..ServeOptions::default()
    };
    let addr = spawn_local(opts.clone()).expect("spawn worker");
    let ctx = context(2_000);
    let genes = vec![0.4; GENOME_LEN];
    let bad = EvalBatch {
        context: ctx.clone(),
        generation: 0,
        individuals: vec![(0, genes.clone()), (1, vec![0.4; 3])],
    };
    let replies = session(addr, &bad);
    assert!(
        matches!(replies.as_slice(), [EvalReply::Error(msg)] if msg.contains("GENOME_LEN")),
        "the bad batch is refused with a typed error, got {replies:?}"
    );
    assert_eq!(opts.eval_cache.stats().misses, 0, "nothing was scored");

    let good = EvalBatch {
        individuals: vec![(0, genes.clone()), (1, genes.clone())],
        ..bad
    };
    let replies = session(addr, &good);
    let want = evaluate_genome(&ctx, &genes).to_bits();
    let scores: Vec<(u64, u64, bool)> = replies
        .iter()
        .filter_map(|r| match r {
            EvalReply::Score(s) => Some((s.index, s.score.to_bits(), s.cached)),
            _ => None,
        })
        .collect();
    assert_eq!(scores, [(0, want, false), (1, want, true)]);
    assert_eq!(replies.last(), Some(&EvalReply::Done { results: 2 }));
}
