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
//! frame a few kilobytes regardless of candidate size, and it lets the
//! worker memoize by genome: elite individuals re-scored across
//! generations are [`EvalCache`] hits, not simulations.
//!
//! Driver-side, [`EvalFleet`] fans a generation out across workers with
//! genome-keyed affinity (so a re-scored elite lands on the worker whose
//! cache holds it) and inherits the campaign supervisor's re-dispatch
//! semantics: individuals unacknowledged when a worker dies are re-sent
//! to survivors, and the search result is bit-identical to a fault-free
//! run because every score is a deterministic function of
//! (context, genome). [`RemoteEvaluator`] adapts the fleet to the GA's
//! [`FitnessEvaluator`] trait and counts *distinct* genomes evaluated —
//! the same number [`avf_ga::LocalEvaluator`] reports — so
//! `GaResult::evaluations` agrees across local, remote, and brokered
//! venues regardless of worker deaths or cache evictions.

use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use avf_ace::{FaultRates, Fitness, FitnessScope, Structure};
use avf_codegen::{generate, Knobs, TargetParams};
use avf_ga::{genome_bits, EvalError, FitnessEvaluator};
use avf_inject::BackendError;
use avf_isa::wire::{content_hash64, kind, WireError, WireReader, WireWriter};
use avf_sim::{simulate, MachineConfig};

use crate::auth::{read_frame_verified, write_frame_signed, AuthKey, AuthVerifier, ConnectionAuth};
use crate::frame::FrameBatcher;
use crate::protocol::{ServerMessage, HASH_DOMAIN_EVAL};
use crate::server::ServeOptions;

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

/// Key a genome routes and logs under: the content hash of its exact
/// gene bits. Both sides derive it, so CI can grep a worker's log for
/// the hit/miss history of a specific elite genome.
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
            if genes_len == 0 {
                return Err(WireError::Invalid("an individual needs at least one gene"));
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
    /// Whether the worker answered from its genome cache.
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

/// Scores one genome against a context: materialize the candidate from
/// its knobs, simulate it, and apply the fitness. Deterministic — every
/// venue that scores the same (context, genome) pair produces the same
/// bits, which is what makes re-dispatch after a worker death invisible
/// in the search result.
#[must_use]
pub fn evaluate_genome(ctx: &EvalContext, genes: &[f64]) -> f64 {
    let params = target_params(&ctx.machine);
    let knobs = Knobs::from_genome(genes, &params);
    let candidate = generate(&knobs, &params);
    let result = simulate(&ctx.machine, &candidate.program, ctx.instr_budget);
    ctx.fitness.score(&result.report)
}

/// Default capacity of a worker's genome score cache.
pub const DEFAULT_EVAL_CACHE_ENTRIES: usize = 4096;

#[derive(Debug, Default)]
struct EvalCacheInner {
    map: HashMap<(u64, Vec<u64>), (f64, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Counters of an [`EvalCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a simulation.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Current resident entries.
    pub entries: usize,
}

/// A bounded, thread-safe LRU of `(context fingerprint, genome bits) →
/// score` — the evaluation analogue of the campaign checkpoint
/// [`crate::StoreCache`]. Elite genomes re-scored across generations
/// (and across searches sharing a worker) hit here instead of paying a
/// simulation.
#[derive(Debug, Default)]
pub struct EvalCache {
    inner: Mutex<EvalCacheInner>,
    max_entries: usize,
}

impl EvalCache {
    /// A cache bounded to `max_entries` scores (0 disables caching).
    #[must_use]
    pub fn with_capacity(max_entries: usize) -> EvalCache {
        EvalCache {
            inner: Mutex::new(EvalCacheInner::default()),
            max_entries,
        }
    }

    /// A shareable cache at the default capacity.
    #[must_use]
    pub fn shared() -> Arc<EvalCache> {
        Arc::new(EvalCache::with_capacity(DEFAULT_EVAL_CACHE_ENTRIES))
    }

    /// Looks a score up, bumping its recency on a hit.
    pub fn lookup(&self, ctx: u64, bits: &[u64]) -> Option<f64> {
        let mut inner = self.inner.lock().expect("eval cache poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        let hit = inner.map.get_mut(&(ctx, bits.to_vec())).map(|slot| {
            slot.1 = stamp;
            slot.0
        });
        match hit {
            Some(score) => {
                inner.hits += 1;
                Some(score)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly computed score, evicting the least recently
    /// used entry if the cache is full.
    pub fn insert(&self, ctx: u64, bits: Vec<u64>, score: f64) {
        if self.max_entries == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("eval cache poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        if inner.map.len() >= self.max_entries && !inner.map.contains_key(&(ctx, bits.clone())) {
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                inner.evictions += 1;
            }
        }
        inner.map.insert((ctx, bits), (score, stamp));
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EvalCacheStats {
        let inner = self.inner.lock().expect("eval cache poisoned");
        EvalCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len(),
        }
    }
}

fn score_parallel(
    ctx: &EvalContext,
    genomes: &[(u64, Vec<f64>, Vec<u64>)],
    threads: usize,
) -> Vec<f64> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    let threads = threads.clamp(1, genomes.len().max(1));
    let mut scores = vec![0.0; genomes.len()];
    if threads <= 1 {
        for (slot, (_, genes, _)) in scores.iter_mut().zip(genomes) {
            *slot = evaluate_genome(ctx, genes);
        }
        return scores;
    }
    let chunk = genomes.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (in_chunk, out_chunk) in genomes.chunks(chunk).zip(scores.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (slot, (_, genes, _)) in out_chunk.iter_mut().zip(in_chunk) {
                    *slot = evaluate_genome(ctx, genes);
                }
            });
        }
    });
    scores
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
        let fingerprint = batch.context.fingerprint();
        let mut results: Vec<EvalScore> = Vec::with_capacity(batch.individuals.len());
        let mut misses: Vec<(u64, Vec<f64>, Vec<u64>)> = Vec::new();
        for (index, genes) in &batch.individuals {
            let bits = genome_bits(genes);
            let key = genome_key(genes);
            if let Some(score) = opts.eval_cache.lookup(fingerprint, &bits) {
                crate::log_line!(
                    "serve: eval gen {} genome {key:016x} fitness HIT (cache)",
                    batch.generation
                );
                results.push(EvalScore {
                    index: *index,
                    score,
                    cached: true,
                });
            } else {
                crate::log_line!(
                    "serve: eval gen {} genome {key:016x} fitness MISS (simulating)",
                    batch.generation
                );
                misses.push((*index, genes.clone(), bits));
            }
        }
        let scores = score_parallel(&batch.context, &misses, opts.threads);
        for ((index, _, bits), score) in misses.into_iter().zip(scores) {
            opts.eval_cache.insert(fingerprint, bits, score);
            results.push(EvalScore {
                index,
                score,
                cached: false,
            });
        }
        results.sort_by_key(|s| s.index);

        if opts.die_mid_batch == Some(served) {
            // Injected fault: stream half the generation, then crash. No
            // error frame, no DONE — the driver must observe this as a
            // dead connection and re-dispatch the unacknowledged half.
            for score in &results[..results.len() / 2] {
                writer.push(&score.to_wire())?;
            }
            writer.flush()?;
            crate::log_line!("serve: injected fault — aborting connection mid-generation {served}");
            let _ = stream.shutdown(Shutdown::Both);
            return Ok(());
        }
        for score in &results {
            writer.push(&score.to_wire())?;
        }
        writer.push(
            &ServerMessage::Done {
                events: results.len() as u64,
            }
            .to_wire(),
        )?;
        writer.flush()?;
        opts.stats.batches_served.fetch_add(1, Ordering::Relaxed);
        opts.stats
            .events_streamed
            .fetch_add(results.len() as u64, Ordering::Relaxed);
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
pub struct DistinctCounter {
    seen: HashSet<Vec<u64>>,
    count: u64,
}

impl DistinctCounter {
    /// Records one generation.
    pub fn record(&mut self, generation: &[Vec<f64>]) {
        for genes in generation {
            if self.seen.insert(genome_bits(genes)) {
                self.count += 1;
            }
        }
    }

    /// Distinct genomes recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

struct FleetWorker {
    addr: String,
    /// `None` once the connection died; the slot stays so genome→worker
    /// affinity of the survivors is undisturbed.
    stream: Option<TcpStream>,
    auth: Option<Arc<ConnectionAuth>>,
}

enum EvalShardFate {
    /// All scores streamed and the DONE count checked out.
    Clean(Vec<EvalScore>),
    /// The connection died mid-generation; `scored` arrived first.
    Dead {
        scored: Vec<EvalScore>,
        error: BackendError,
    },
    /// Protocol violation or worker-reported error: fail the search.
    Fatal(BackendError),
}

fn drain_eval_shard(
    stream: TcpStream,
    addr: String,
    expected: Vec<u64>,
    auth: Option<Arc<ConnectionAuth>>,
) -> EvalShardFate {
    let mut outstanding: HashSet<u64> = expected.into_iter().collect();
    let mut reader = BufReader::new(&stream);
    let verifier = auth.as_ref().map(|a| a.verifier.as_ref());
    let mut scored: Vec<EvalScore> = Vec::with_capacity(outstanding.len());
    loop {
        let payload = match read_frame_verified(&mut reader, verifier) {
            Ok(Some(p)) => p,
            Ok(None) => {
                return EvalShardFate::Dead {
                    scored,
                    error: BackendError::Disconnected {
                        worker: addr,
                        detail: "connection closed mid-generation".to_owned(),
                    },
                }
            }
            Err(BackendError::Io(detail)) => {
                return EvalShardFate::Dead {
                    scored,
                    error: BackendError::Disconnected {
                        worker: addr,
                        detail,
                    },
                }
            }
            Err(e) => return EvalShardFate::Fatal(e),
        };
        match EvalReply::from_wire(&payload) {
            Ok(EvalReply::Score(score)) => {
                if !outstanding.remove(&score.index) {
                    return EvalShardFate::Fatal(BackendError::Protocol(format!(
                        "worker {addr} scored individual {} it was not assigned (or twice)",
                        score.index
                    )));
                }
                scored.push(score);
            }
            Ok(EvalReply::Done { results }) => {
                if !outstanding.is_empty() {
                    return EvalShardFate::Fatal(BackendError::Protocol(format!(
                        "worker {addr} finished a generation with {} individuals unscored",
                        outstanding.len()
                    )));
                }
                if results != scored.len() as u64 {
                    return EvalShardFate::Fatal(BackendError::Protocol(format!(
                        "worker {addr} announced {results} results but streamed {}",
                        scored.len()
                    )));
                }
                return EvalShardFate::Clean(scored);
            }
            Ok(EvalReply::Error(msg)) => return EvalShardFate::Fatal(BackendError::Remote(msg)),
            Err(e) => return EvalShardFate::Fatal(BackendError::Wire(e)),
        }
    }
}

/// A fleet of persistent evaluation-worker connections with the campaign
/// supervisor's fault tolerance: shards are re-dispatched to survivors
/// when a worker dies, and only an all-dead fleet (or a protocol
/// violation) fails the search.
pub struct EvalFleet {
    workers: Vec<FleetWorker>,
    generation: u64,
    last_error: Option<BackendError>,
    redispatched: u64,
}

impl EvalFleet {
    /// Connects to every worker up front; any refused connection fails
    /// the whole fleet (starting a search against a half-broken fleet is
    /// a configuration error, not a runtime fault).
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if `addrs` is empty or any connection
    /// fails.
    pub fn connect(addrs: &[String], key: Option<AuthKey>) -> Result<EvalFleet, BackendError> {
        if addrs.is_empty() {
            return Err(BackendError::Protocol(
                "an evaluation fleet needs at least one worker address".to_owned(),
            ));
        }
        let mut workers = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = TcpStream::connect(addr)
                .map_err(|e| BackendError::Io(format!("connect {addr}: {e}")))?;
            let _ = stream.set_nodelay(true);
            workers.push(FleetWorker {
                addr: addr.clone(),
                stream: Some(stream),
                auth: key.map(|k| Arc::new(ConnectionAuth::client(k))),
            });
        }
        Ok(EvalFleet {
            workers,
            generation: 0,
            last_error: None,
            redispatched: 0,
        })
    }

    /// Individuals re-dispatched to survivors after worker deaths, for
    /// observability (never part of the evaluation count).
    #[must_use]
    pub fn redispatched(&self) -> u64 {
        self.redispatched
    }

    /// Number of worker slots (live or dead) — the modulus of the
    /// genome→worker affinity mapping, fixed for the fleet's lifetime.
    #[must_use]
    pub fn fleet_size(&self) -> usize {
        self.workers.len()
    }

    fn live_slots(&self) -> Vec<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.stream.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    fn kill(&mut self, slot: usize, error: BackendError) {
        crate::log_line!("search: worker {} died: {error}", self.workers[slot].addr);
        self.workers[slot].stream = None;
        self.last_error = Some(error);
    }

    fn all_dead(&mut self) -> BackendError {
        self.last_error
            .take()
            .unwrap_or_else(|| BackendError::Disconnected {
                worker: "all".to_owned(),
                detail: "every evaluation worker died".to_owned(),
            })
    }

    /// Scores one generation across the fleet, returning
    /// `(score, cached)` per individual in input order.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] when every worker has died or a worker
    /// violates the protocol.
    pub fn run(
        &mut self,
        context: &EvalContext,
        generation: &[Vec<f64>],
    ) -> Result<Vec<(f64, bool)>, BackendError> {
        let fleet = self.workers.len();
        let mut slots: Vec<Option<(f64, bool)>> = vec![None; generation.len()];
        let mut pending: Vec<usize> = (0..generation.len()).collect();
        let mut round = 0u32;
        while !pending.is_empty() {
            let live = self.live_slots();
            if live.is_empty() {
                return Err(self.all_dead());
            }
            if round > 0 {
                crate::log_line!(
                    "search: re-dispatching {} unacknowledged individuals to {} survivors",
                    pending.len(),
                    live.len()
                );
                self.redispatched += pending.len() as u64;
            }
            // Shard by genome affinity: an elite re-scored next
            // generation routes to the worker whose cache holds it. The
            // fallback for a dead preferred slot is deterministic in the
            // death pattern, but scores are venue-independent, so the
            // search result never depends on who computed what.
            let mut shards: Vec<Vec<usize>> = vec![Vec::new(); fleet];
            for &i in &pending {
                let key = genome_key(&generation[i]);
                let preferred = (key % fleet as u64) as usize;
                let worker = if self.workers[preferred].stream.is_some() {
                    preferred
                } else {
                    live[(key % live.len() as u64) as usize]
                };
                shards[worker].push(i);
            }
            let mut drains = Vec::new();
            for (slot, shard) in shards.iter().enumerate() {
                if shard.is_empty() {
                    continue;
                }
                let batch = EvalBatch {
                    context: context.clone(),
                    generation: self.generation,
                    individuals: shard
                        .iter()
                        .map(|&i| (i as u64, generation[i].clone()))
                        .collect(),
                };
                let payload = batch.to_wire();
                let worker = &self.workers[slot];
                let signer = worker.auth.as_ref().map(|a| a.signer.as_ref());
                let write = {
                    let mut stream = worker.stream.as_ref().expect("sharded to a live worker");
                    write_frame_signed(&mut stream, &payload, signer)
                };
                let cloned = write.and_then(|()| {
                    self.workers[slot]
                        .stream
                        .as_ref()
                        .expect("sharded to a live worker")
                        .try_clone()
                        .map_err(|e| BackendError::Io(e.to_string()))
                });
                match cloned {
                    Ok(stream) => {
                        let addr = self.workers[slot].addr.clone();
                        let auth = self.workers[slot].auth.clone();
                        let expected: Vec<u64> = shard.iter().map(|&i| i as u64).collect();
                        drains.push((
                            slot,
                            std::thread::spawn(move || {
                                drain_eval_shard(stream, addr, expected, auth)
                            }),
                        ));
                    }
                    Err(e) => self.kill(slot, e), // shard stays pending; next round
                }
            }
            for (slot, handle) in drains {
                match handle.join().expect("eval drain thread panicked") {
                    EvalShardFate::Clean(scored) => {
                        for s in scored {
                            slots[s.index as usize] = Some((s.score, s.cached));
                        }
                    }
                    EvalShardFate::Dead { scored, error } => {
                        // Partial scores are acknowledged work — keep
                        // them; only the unacknowledged tail re-runs.
                        for s in scored {
                            slots[s.index as usize] = Some((s.score, s.cached));
                        }
                        self.kill(slot, error);
                    }
                    EvalShardFate::Fatal(e) => return Err(e),
                }
            }
            pending.retain(|&i| slots[i].is_none());
            round += 1;
        }
        self.generation += 1;
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every individual scored"))
            .collect())
    }
}

/// Adapts an [`EvalFleet`] to the GA's [`FitnessEvaluator`] trait.
pub struct RemoteEvaluator {
    fleet: EvalFleet,
    context: EvalContext,
    distinct: DistinctCounter,
    cache_hits: u64,
}

impl RemoteEvaluator {
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
        Ok(RemoteEvaluator {
            fleet: EvalFleet::connect(addrs, key)?,
            context,
            distinct: DistinctCounter::default(),
            cache_hits: 0,
        })
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
        self.fleet.redispatched()
    }
}

impl FitnessEvaluator for RemoteEvaluator {
    fn evaluate(&mut self, generation: &[Vec<f64>]) -> Result<Vec<f64>, EvalError> {
        let scored = self
            .fleet
            .run(&self.context, generation)
            .map_err(|e| EvalError(e.to_string()))?;
        self.distinct.record(generation);
        self.cache_hits += scored.iter().filter(|(_, cached)| *cached).count() as u64;
        Ok(scored.into_iter().map(|(score, _)| score).collect())
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
            individuals: vec![(0, vec![0.1, 0.2, 0.3]), (3, vec![0.9, -0.0, 1.0])],
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
    fn eval_cache_hits_and_evicts() {
        let cache = EvalCache::with_capacity(2);
        let bits_a = genome_bits(&[0.1]);
        let bits_b = genome_bits(&[0.2]);
        let bits_c = genome_bits(&[0.3]);
        assert_eq!(cache.lookup(1, &bits_a), None);
        cache.insert(1, bits_a.clone(), 10.0);
        assert_eq!(cache.lookup(1, &bits_a), Some(10.0));
        assert_eq!(cache.lookup(2, &bits_a), None, "context keys are distinct");
        cache.insert(1, bits_b.clone(), 20.0);
        // Touch A so B is the LRU victim when C arrives.
        assert_eq!(cache.lookup(1, &bits_a), Some(10.0));
        cache.insert(1, bits_c.clone(), 30.0);
        assert_eq!(cache.lookup(1, &bits_b), None, "LRU entry evicted");
        assert_eq!(cache.lookup(1, &bits_c), Some(30.0));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
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
