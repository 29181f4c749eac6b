//! Distributed GA fitness evaluation (wire v7).
//!
//! The campaign protocol carries injection *trials*; this module teaches
//! it to carry fitness *jobs*. One connection carries one evaluation
//! session:
//!
//! ```text
//! client → server   EVAL_BATCH    (machine, fitness, budget, one generation of genomes)
//! server → client   EVAL_RESULT*  (one per individual, index-ordered)
//! server → client   BATCH_DONE    (result count for the generation, a sanity check)
//! client → server   EVAL_BATCH    ... (repeat, one frame per generation)
//! client closes the connection    (clean end of search)
//! ```
//!
//! The batch ships **knobs, not programs**: each individual is a genome,
//! and the worker materializes the candidate itself (`Knobs::from_genome`
//! → `generate` → `simulate` → `Fitness::score`). That keeps a generation
//! frame a few kilobytes regardless of candidate size. The worker builds
//! each individual's program once and looks it up in its
//! [`ScoreCache`], keyed per (context, program): an elite re-scored in a
//! later generation and a new genome that builds an already-scored
//! program both hit there instead of simulating, counted by
//! `avf_eval_cache_hits` on `serve --metrics`. A batch is scored through
//! [`avf_ga::par_map`] on the worker's threads; a miss inserts its
//! entry before simulating, so a later individual of the batch that
//! builds the same program hits it and waits for that one simulation.
//!
//! Driver-side, a generation goes through the same [`Fleet`] dispatcher
//! as campaign trials, sharded with genome-keyed affinity
//! ([`crate::fleet::Genomes`]) so a re-scored elite lands on the worker
//! whose cache holds it. Routing is by genome, not by program (that
//! would need code generation on the driver), so a program reached by
//! genomes routed to two workers is simulated once on each. Individuals
//! unacknowledged when a worker dies are re-sent to survivors, and the
//! search result is bit-identical to a fault-free run because every
//! score is a deterministic function of (context, genome).
//! [`RemoteEvaluator`] adapts any [`Venue`] — a fleet, or a broker
//! session — to the GA's [`FitnessEvaluator`] trait and counts
//! *distinct* genomes evaluated — the same number
//! [`avf_ga::LocalEvaluator`] reports — so `GaResult::evaluations`
//! agrees across local, remote, and brokered venues regardless of
//! worker deaths or cache evictions.

use std::collections::HashSet;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::{mpsc, Arc};

use avf_ace::{FaultRates, Fitness, FitnessScope, Structure};
use avf_codegen::{generate, Knobs, TargetParams, GENOME_LEN};
use avf_ga::{genome_bits, par_map, EvalError, FitnessEvaluator};
use avf_inject::{redispatched_trials, BackendError};
use avf_isa::wire::{content_hash64, kind, WireError, WireReader, WireWriter};
use avf_isa::Program;
use avf_sim::{simulate, MachineConfig};

use crate::auth::{read_frame_verified, AuthKey, AuthVerifier};
use crate::cache::ScoreCache;
use crate::fleet::{Fleet, Genomes, Venue};
use crate::frame::FrameBatcher;
use crate::protocol::{ServerMessage, HASH_DOMAIN_EVAL};
use crate::server::{reply_batch, ServeOptions};

/// Derives code-generator target parameters from a machine configuration.
///
/// This is the canonical mapping between the simulated microarchitecture
/// and the generator's sizing knobs; the driver and every evaluation
/// worker must agree on it, so it lives here with the wire codec.
#[must_use]
pub fn target_params(machine: &MachineConfig) -> TargetParams {
    TargetParams {
        rob_entries: machine.rob_entries as u32,
        line_bytes: machine.dl1.line_bytes,
        page_bytes: machine.page_bytes,
        dtlb_entries: machine.dtlb_entries as u32,
        dl1_bytes: machine.dl1.size_bytes,
        l2_bytes: machine.l2.size_bytes,
    }
}

/// The fixed part of an evaluation session: what every individual is
/// scored against.
#[derive(Debug, Clone)]
pub struct EvalContext {
    /// Target microarchitecture.
    pub machine: MachineConfig,
    /// Fitness function (fault rates + scope).
    pub fitness: Fitness,
    /// Committed-instruction budget per candidate evaluation.
    pub instr_budget: u64,
}

fn rates_code(rates: &FaultRates) -> u8 {
    match rates.name() {
        "Baseline" => 0,
        "RHC" => 1,
        "EDR" => 2,
        _ => 3,
    }
}

fn encode_fitness(w: &mut WireWriter, fitness: &Fitness) {
    w.u8(rates_code(fitness.rates()));
    for s in Structure::ALL {
        w.f64(fitness.rates().rate(s));
    }
    w.u8(match fitness.scope() {
        FitnessScope::Overall => 0,
        FitnessScope::BitWeighted => 1,
        FitnessScope::Core => 2,
        FitnessScope::Caches => 3,
    });
}

fn decode_fitness(r: &mut WireReader<'_>) -> Result<Fitness, WireError> {
    // The name code picks a base table for cosmetic reporting; the rates
    // themselves always travel as raw bits, so protected-design searches
    // score identically on every worker.
    let mut rates = match r.u8()? {
        0 => FaultRates::baseline(),
        1 => FaultRates::rhc(),
        2 => FaultRates::edr(),
        3 => FaultRates::custom("remote"),
        t => return Err(WireError::BadTag(t)),
    };
    for s in Structure::ALL {
        let rate = r.f64()?;
        if !(rate >= 0.0 && rate.is_finite()) {
            return Err(WireError::Invalid(
                "fault rates must be finite and non-negative",
            ));
        }
        rates.set(s, rate);
    }
    let scope = match r.u8()? {
        0 => FitnessScope::Overall,
        1 => FitnessScope::BitWeighted,
        2 => FitnessScope::Core,
        3 => FitnessScope::Caches,
        t => return Err(WireError::BadTag(t)),
    };
    Ok(Fitness::with_scope(rates, scope))
}

impl EvalContext {
    fn encode(&self, w: &mut WireWriter) {
        self.machine.encode(w);
        encode_fitness(w, &self.fitness);
        w.u64(self.instr_budget);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<EvalContext, WireError> {
        let machine = MachineConfig::decode(r)?;
        let fitness = decode_fitness(r)?;
        let instr_budget = r.u64()?;
        if instr_budget == 0 {
            return Err(WireError::Invalid("evaluation budget must be positive"));
        }
        Ok(EvalContext {
            machine,
            fitness,
            instr_budget,
        })
    }

    /// Content fingerprint of this context — the cache-key half that
    /// guards a worker's memoized scores against a driver searching a
    /// different machine, fitness, or budget.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        content_hash64(HASH_DOMAIN_EVAL, &w.into_bytes())
    }
}

/// Key a genome routes under: the content hash of its exact gene bits.
#[must_use]
pub fn genome_key(genes: &[f64]) -> u64 {
    let mut w = WireWriter::new();
    for bits in genome_bits(genes) {
        w.u64(bits);
    }
    content_hash64(HASH_DOMAIN_EVAL, &w.into_bytes())
}

/// One generation of fitness work: the `EVAL_BATCH` frame.
#[derive(Debug, Clone)]
pub struct EvalBatch {
    /// What to score against.
    pub context: EvalContext,
    /// Generation number (logging/observability only).
    pub generation: u64,
    /// `(individual index, genome)` pairs. Indices are driver-assigned
    /// and echoed in each `EVAL_RESULT`, so a generation sharded across
    /// workers reassembles unambiguously.
    pub individuals: Vec<(u64, Vec<f64>)>,
}

impl EvalBatch {
    /// Serializes the batch to an enveloped frame payload.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.envelope(kind::EVAL_BATCH);
        self.context.encode(&mut w);
        w.u64(self.generation);
        w.usize(self.individuals.len());
        for (index, genes) in &self.individuals {
            w.u64(*index);
            w.usize(genes.len());
            for g in genes {
                w.f64(*g);
            }
        }
        w.into_bytes()
    }

    /// Decodes an `EVAL_BATCH` payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on envelope mismatch, truncation, or an
    /// invalid field.
    pub fn from_wire(bytes: &[u8]) -> Result<EvalBatch, WireError> {
        let mut r = WireReader::new(bytes);
        r.expect_envelope(kind::EVAL_BATCH)?;
        let context = EvalContext::decode(&mut r)?;
        let generation = r.u64()?;
        let count = r.seq_len(16)?;
        let mut individuals = Vec::with_capacity(count);
        for _ in 0..count {
            let index = r.u64()?;
            let genes_len = r.seq_len(8)?;
            if genes_len != GENOME_LEN {
                return Err(WireError::Invalid(
                    "an individual needs exactly GENOME_LEN genes",
                ));
            }
            let mut genes = Vec::with_capacity(genes_len);
            for _ in 0..genes_len {
                genes.push(r.f64()?);
            }
            individuals.push((index, genes));
        }
        r.finish()?;
        Ok(EvalBatch {
            context,
            generation,
            individuals,
        })
    }
}

/// One individual's score: the `EVAL_RESULT` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalScore {
    /// The driver-assigned individual index this score answers.
    pub index: u64,
    /// Fitness score, bit-exact as computed.
    pub score: f64,
    /// Whether the worker answered without simulating: the individual's
    /// program was already in its [`ScoreCache`] under this context
    /// (an elite, a genome that builds an already-scored program, or a
    /// duplicate of an earlier individual of the same batch).
    pub cached: bool,
}

impl EvalScore {
    /// Serializes the score to an enveloped frame payload.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.envelope(kind::EVAL_RESULT);
        w.u64(self.index);
        w.f64(self.score);
        w.bool(self.cached);
        w.into_bytes()
    }
}

/// A worker's reply frame within an evaluation session.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalReply {
    /// One individual's score.
    Score(EvalScore),
    /// End of the generation, with the number of results streamed.
    Done {
        /// How many `EVAL_RESULT` frames preceded this marker.
        results: u64,
    },
    /// Fatal worker-side error; the connection closes after this.
    Error(String),
}

impl EvalReply {
    /// Decodes any server→client evaluation frame.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on envelope mismatch, truncation, or an
    /// unexpected frame kind.
    pub fn from_wire(bytes: &[u8]) -> Result<EvalReply, WireError> {
        match bytes.get(5).copied() {
            Some(kind::EVAL_RESULT) => {
                let mut r = WireReader::new(bytes);
                r.expect_envelope(kind::EVAL_RESULT)?;
                let index = r.u64()?;
                let score = r.f64()?;
                let cached = r.bool()?;
                r.finish()?;
                Ok(EvalReply::Score(EvalScore {
                    index,
                    score,
                    cached,
                }))
            }
            _ => match ServerMessage::from_wire(bytes)? {
                ServerMessage::Done { events } => Ok(EvalReply::Done { results: events }),
                ServerMessage::Error(msg) => Ok(EvalReply::Error(msg)),
                _ => Err(WireError::WrongKind {
                    found: bytes.get(5).copied().unwrap_or(0),
                    expected: kind::EVAL_RESULT,
                }),
            },
        }
    }
}

/// The candidate program a genome encodes for `ctx`'s machine
/// (`Knobs::from_genome` → `generate`).
///
/// # Panics
///
/// Panics if `genes.len() != GENOME_LEN` (the wire decoder refuses such
/// individuals).
#[must_use]
pub fn candidate_program(ctx: &EvalContext, genes: &[f64]) -> Program {
    let params = target_params(&ctx.machine);
    generate(&Knobs::from_genome(genes, &params), &params).program
}

/// Scores a built candidate against a context: simulate it at the
/// context's budget and apply the fitness.
fn score_program(ctx: &EvalContext, program: &Program) -> f64 {
    let result = simulate(&ctx.machine, program, ctx.instr_budget);
    ctx.fitness.score(&result.report)
}

/// Scores one genome against a context: materialize the candidate from
/// its knobs, simulate it, and apply the fitness. Deterministic — every
/// venue that scores the same (context, genome) pair produces the same
/// bits, which is what makes re-dispatch after a worker death invisible
/// in the search result.
#[must_use]
pub fn evaluate_genome(ctx: &EvalContext, genes: &[f64]) -> f64 {
    score_program(ctx, &candidate_program(ctx, genes))
}

/// Scores genomes against one context through a [`ScoreCache`]: each
/// genome's program is built once and simulated only if no equal
/// program has been scored under this context. Scores are the bits
/// [`evaluate_genome`] returns.
pub struct Scorer {
    context: EvalContext,
    fingerprint: u64,
    cache: Arc<ScoreCache>,
}

impl Scorer {
    /// Binds `cache` to `context`.
    #[must_use]
    pub fn new(context: EvalContext, cache: Arc<ScoreCache>) -> Scorer {
        Scorer {
            fingerprint: context.fingerprint(),
            context,
            cache,
        }
    }

    /// Scores one genome, simulating on a miss. Concurrent calls for
    /// one program simulate it once.
    #[must_use]
    pub fn score(&self, genes: &[f64]) -> f64 {
        self.score_cached(genes).0
    }

    /// Scores a batch on `threads` threads: one `(score, cached)` pair
    /// per genome, in input order. Each distinct program missing from
    /// the cache is simulated once; a later individual of the batch
    /// that builds it is a hit and waits for that score.
    #[must_use]
    pub fn score_batch(&self, threads: usize, genomes: &[&[f64]]) -> Vec<(f64, bool)> {
        par_map(threads, genomes, |genes| self.score_cached(genes))
    }

    /// Builds `genes`' program, looks it up and scores it on a miss. The
    /// program is dropped on return, so a thread holds one candidate at
    /// a time (an L2-miss candidate carries ~2 MiB of data).
    fn score_cached(&self, genes: &[f64]) -> (f64, bool) {
        let program = candidate_program(&self.context, genes);
        let slot = self.cache.slot(self.fingerprint, &program);
        let score = slot.score(|| score_program(&self.context, &program));
        (score, slot.hit())
    }
}

/// Drives one evaluation session over one connection (worker side).
/// `first` is the already-read opening `EVAL_BATCH` payload.
pub(crate) fn handle_eval_session(
    stream: &TcpStream,
    reader: &mut BufReader<&TcpStream>,
    writer: &mut FrameBatcher<&TcpStream>,
    first: Vec<u8>,
    opts: &ServeOptions,
    verifier: Option<&AuthVerifier>,
) -> Result<(), BackendError> {
    let mut payload = first;
    let mut served = 0u64;
    loop {
        let batch = EvalBatch::from_wire(&payload)?;
        let scorer = Scorer::new(batch.context, Arc::clone(&opts.eval_cache));
        let genomes: Vec<&[f64]> = batch.individuals.iter().map(|(_, g)| &g[..]).collect();
        let mut results: Vec<EvalScore> = batch
            .individuals
            .iter()
            .zip(scorer.score_batch(opts.threads, &genomes))
            .map(|((index, _), (score, cached))| EvalScore {
                index: *index,
                score,
                cached,
            })
            .collect();
        results.sort_by_key(|s| s.index);

        let replies = results.iter().map(|s| Ok(s.to_wire()));
        if !reply_batch(stream, writer, opts, served, results.len(), replies)? {
            return Ok(());
        }
        served += 1;

        match read_frame_verified(reader, verifier)? {
            Some(next) => payload = next,
            None => return Ok(()), // clean end of search
        }
    }
}

/// Counts *distinct* genomes submitted for evaluation — the number a
/// memoizing local evaluator would actually simulate. Driver-side, so
/// the count is invariant under worker deaths, re-dispatch duplicates,
/// and worker-cache evictions.
#[derive(Debug, Default)]
struct DistinctCounter {
    seen: HashSet<Vec<u64>>,
}

impl DistinctCounter {
    fn record(&mut self, generation: &[Vec<f64>]) {
        for genes in generation {
            self.seen.insert(genome_bits(genes));
        }
    }

    fn count(&self) -> u64 {
        self.seen.len() as u64
    }
}

/// Scores `genomes` on `venue`: one score per genome, in input order
/// (each score's index is the genome's position).
///
/// # Errors
///
/// Returns a [`BackendError`] when the venue fails.
pub fn score_generation(
    venue: &mut impl Venue,
    context: &EvalContext,
    generation: u64,
    genomes: &[Vec<f64>],
) -> Result<Vec<EvalScore>, BackendError> {
    let (tx, rx) = mpsc::channel();
    let individuals = genomes
        .iter()
        .enumerate()
        .map(|(i, genes)| (i as u64, genes.clone()))
        .collect();
    let work = Genomes {
        context,
        generation,
    };
    venue.dispatch(&work, generation, individuals, &tx)?;
    drop(tx);
    // The drain acknowledged every index exactly once.
    let mut scores: Vec<EvalScore> = rx.into_iter().flatten().collect();
    scores.sort_by_key(|s| s.index);
    Ok(scores)
}

/// Adapts a [`Venue`] (by default a worker [`Fleet`]) to the GA's
/// [`FitnessEvaluator`] trait.
pub struct RemoteEvaluator<V = Fleet> {
    venue: V,
    context: EvalContext,
    generation: u64,
    distinct: DistinctCounter,
    cache_hits: u64,
}

impl RemoteEvaluator<Fleet> {
    /// Connects a fleet and binds it to an evaluation context.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the fleet fails to connect.
    pub fn connect(
        addrs: &[String],
        key: Option<AuthKey>,
        context: EvalContext,
    ) -> Result<RemoteEvaluator, BackendError> {
        Ok(RemoteEvaluator::over(Fleet::connect(addrs, key)?, context))
    }
}

impl<V: Venue> RemoteEvaluator<V> {
    /// Binds `venue` to an evaluation context.
    pub fn over(venue: V, context: EvalContext) -> RemoteEvaluator<V> {
        RemoteEvaluator {
            venue,
            context,
            generation: 0,
            distinct: DistinctCounter::default(),
            cache_hits: 0,
        }
    }

    /// Worker-reported cache hits across the search (observability; not
    /// part of the deterministic evaluation count).
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Individuals re-dispatched after worker deaths (observability;
    /// never part of the evaluation count).
    #[must_use]
    pub fn redispatched(&self) -> u64 {
        redispatched_trials(self.venue.log())
    }
}

impl<V: Venue> FitnessEvaluator for RemoteEvaluator<V> {
    fn evaluate(&mut self, generation: &[Vec<f64>]) -> Result<Vec<f64>, EvalError> {
        let scored = score_generation(&mut self.venue, &self.context, self.generation, generation)
            .map_err(|e| EvalError(e.to_string()))?;
        self.generation += 1;
        self.distinct.record(generation);
        self.cache_hits += scored.iter().filter(|s| s.cached).count() as u64;
        Ok(scored.into_iter().map(|s| s.score).collect())
    }

    fn evaluations(&self) -> u64 {
        self.distinct.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avf_isa::wire::WIRE_VERSION;

    fn context() -> EvalContext {
        EvalContext {
            machine: MachineConfig::baseline(),
            fitness: Fitness::overall(FaultRates::rhc()),
            instr_budget: 20_000,
        }
    }

    fn batch() -> EvalBatch {
        EvalBatch {
            context: context(),
            generation: 7,
            individuals: vec![
                (0, vec![0.1; GENOME_LEN]),
                (3, [vec![0.9, -0.0], vec![1.0; GENOME_LEN - 2]].concat()),
            ],
        }
    }

    #[test]
    fn eval_batch_round_trips() {
        let b = batch();
        let decoded = EvalBatch::from_wire(&b.to_wire()).expect("round trip");
        assert_eq!(decoded.generation, 7);
        assert_eq!(decoded.individuals.len(), 2);
        assert_eq!(decoded.individuals[1].0, 3);
        assert_eq!(
            genome_bits(&decoded.individuals[1].1),
            genome_bits(&b.individuals[1].1),
            "genes travel bit-exactly, including -0.0"
        );
        assert_eq!(decoded.context.fingerprint(), b.context.fingerprint());
        assert_eq!(decoded.context.fitness.rates(), b.context.fitness.rates());
        assert_eq!(decoded.context.fitness.scope(), b.context.fitness.scope());
    }

    #[test]
    fn eval_score_round_trips_through_reply() {
        let s = EvalScore {
            index: 42,
            score: 0.123_456_789,
            cached: true,
        };
        match EvalReply::from_wire(&s.to_wire()).expect("round trip") {
            EvalReply::Score(got) => assert_eq!(got, s),
            other => panic!("expected a score, got {other:?}"),
        }
        let done = ServerMessage::Done { events: 9 }.to_wire();
        assert_eq!(
            EvalReply::from_wire(&done).expect("done decodes"),
            EvalReply::Done { results: 9 }
        );
    }

    #[test]
    fn truncated_and_garbage_eval_payloads_fail_typed() {
        let bytes = batch().to_wire();
        for cut in [1, 6, 20, bytes.len() - 1] {
            assert!(
                matches!(
                    EvalBatch::from_wire(&bytes[..cut]),
                    Err(WireError::Truncated | WireError::BadMagic(_))
                ),
                "cut at {cut} must fail typed"
            );
        }
        let mut garbage = bytes.clone();
        garbage[0] ^= 0xFF;
        assert!(matches!(
            EvalBatch::from_wire(&garbage),
            Err(WireError::BadMagic(_))
        ));
        let wrong_kind = EvalScore {
            index: 0,
            score: 0.0,
            cached: false,
        }
        .to_wire();
        assert!(matches!(
            EvalBatch::from_wire(&wrong_kind),
            Err(WireError::WrongKind { .. })
        ));
    }

    #[test]
    fn v6_eval_frames_fail_with_version_skew() {
        // A pre-eval v6 build cannot speak EVAL_BATCH at all; what it
        // would actually send is a v6 envelope, and this v7 build must
        // name both versions in the error instead of misdecoding.
        let mut stale = batch().to_wire();
        stale[4] = 6;
        assert!(matches!(
            EvalBatch::from_wire(&stale),
            Err(WireError::UnsupportedVersion {
                found: 6,
                expected: WIRE_VERSION,
            })
        ));
        let mut stale_reply = EvalScore {
            index: 1,
            score: 1.0,
            cached: false,
        }
        .to_wire();
        stale_reply[4] = 6;
        assert_eq!(
            EvalReply::from_wire(&stale_reply),
            Err(WireError::UnsupportedVersion {
                found: 6,
                expected: WIRE_VERSION,
            })
        );
    }

    #[test]
    fn context_fingerprint_tracks_every_field() {
        let base = context().fingerprint();
        let mut other = context();
        other.instr_budget += 1;
        assert_ne!(base, other.fingerprint(), "budget is part of the key");
        let mut other = context();
        other.fitness = Fitness::overall(FaultRates::baseline());
        assert_ne!(base, other.fingerprint(), "rates are part of the key");
        let mut other = context();
        other.fitness = Fitness::with_scope(FaultRates::rhc(), FitnessScope::Core);
        assert_ne!(base, other.fingerprint(), "scope is part of the key");
        let mut other = context();
        other.machine = MachineConfig::config_a();
        assert_ne!(base, other.fingerprint(), "machine is part of the key");
        assert_eq!(base, context().fingerprint(), "fingerprint is stable");
    }

    #[test]
    fn distinct_counter_matches_local_semantics() {
        let mut counter = DistinctCounter::default();
        counter.record(&[vec![0.5, 0.5], vec![0.5, 0.5], vec![0.1, 0.9]]);
        assert_eq!(counter.count(), 2, "in-generation duplicates count once");
        counter.record(&[vec![0.5, 0.5], vec![0.0]]);
        assert_eq!(counter.count(), 3, "cross-generation repeats count once");
        counter.record(&[vec![-0.0]]);
        assert_eq!(counter.count(), 4, "-0.0 and 0.0 are distinct genomes");
    }

    #[test]
    fn decode_rejects_invalid_fields() {
        let mut b = batch();
        b.individuals[0].1.clear();
        assert!(matches!(
            EvalBatch::from_wire(&b.to_wire()),
            Err(WireError::Invalid(_))
        ));
        // `Knobs::from_genome` asserts the genome length, so a short or
        // long individual must be refused here, not panic a worker.
        for len in [1, GENOME_LEN - 1, GENOME_LEN + 1] {
            let mut b = batch();
            b.individuals[1].1.resize(len, 0.5);
            assert!(matches!(
                EvalBatch::from_wire(&b.to_wire()),
                Err(WireError::Invalid(_))
            ));
        }
        let mut b = batch();
        b.context.instr_budget = 0;
        assert!(matches!(
            EvalBatch::from_wire(&b.to_wire()),
            Err(WireError::Invalid(_))
        ));
        let mut nan_rates = batch().to_wire();
        // Corrupt the first fault rate (right after machine + name code)
        // into a negative value; the decoder must reject it rather than
        // panic inside `FaultRates::set`.
        let mut probe = WireWriter::new();
        batch().context.machine.encode(&mut probe);
        let rate_at = 6 + probe.len() + 1;
        nan_rates[rate_at..rate_at + 8].copy_from_slice(&f64::to_le_bytes(-1.0));
        assert!(matches!(
            EvalBatch::from_wire(&nan_rates),
            Err(WireError::Invalid(_))
        ));
    }
}
