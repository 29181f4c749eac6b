//! The campaign backend protocol: *where* trials execute, decoupled
//! from *how* a campaign is driven.
//!
//! [`Campaign::run`](crate::Campaign::run) used to own its worker
//! threads directly; bounding worst-case AVF at paper scale needs
//! millions of trials across many (program, machine) pairs, which means
//! the driver must not care whether trials run on this process's thread
//! pool or on a rack of remote workers. This module is the seam:
//!
//! * [`JobSpec`] — everything a worker needs to execute trials for one
//!   campaign: the program, the machine configuration, the instruction
//!   budget and the checkpoint interval. The venue runs the golden pass
//!   itself ([`avf_sim::golden_pass`]), so N remote workers warm up in
//!   parallel and the driver never simulates the prefix. A `serve`
//!   worker that already holds the pass in its cache opens the job on
//!   it through [`LocalBackend::open_resolved`], where
//!   [`LocalBackend::open`] ends too. [`JobSpec::to_wire`] is the
//!   `JOB_SETUP` frame that opens every remote session.
//! * [`CampaignBackend::open`] — binds a job to an execution venue and
//!   returns an [`OpenedJob`]: the [`CampaignSession`] plus the golden
//!   run the venue resolved (measured or cached) and a per-worker
//!   record of how each worker obtained the checkpoint store.
//! * [`CampaignSession::submit`] — hands the session one batch of
//!   [`Trial`]s and returns a [`TrialStream`]: an iterator of
//!   [`TrialEvent`]s that yields each classified outcome *as it
//!   completes*, so an adaptive driver can re-allocate the next batch
//!   no matter where (or in what order) the trials actually ran.
//! * [`LocalBackend`] — the in-process thread pool, now just one client
//!   of this API. The TCP server and `RemoteBackend` in `avf-service`
//!   are the other.
//!
//! Outcome counts merge commutatively, and every trial's sample is a
//! pure function of `(seed, batch, index)`, so a campaign report is
//! identical for any backend, worker count, or event arrival order.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use avf_isa::wire::{kind, WireError, WireReader, WireWriter};
use avf_isa::Program;
use avf_prune::PruneMap;
use avf_sim::{
    golden_pass, CacheFate, DecodedCheckpoints, FaultModel, FlipEffect, GoldenRun, InjectionSim,
    InjectionTarget, Judgement, MachineConfig, PipelineSnapshot, PruneEvidence, RunEnd, Verdict,
    PRUNE_WINDOW,
};

use crate::plan::Trial;
use crate::Outcome;

/// Why a backend could not execute (part of) a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// A payload failed to encode or decode.
    Wire(WireError),
    /// A transport-level I/O failure (connect, read, write).
    Io(String),
    /// A worker's connection died mid-session: the stream closed or
    /// truncated between frames. Distinct from [`BackendError::Remote`]
    /// (the worker is alive and reported a job-level error) because the
    /// remote backend treats a dead connection as *retryable* — the
    /// worker's unacknowledged trials are re-dispatched to survivors —
    /// while a reported error is always fatal.
    Disconnected {
        /// The worker whose connection died (address, or `all` when no
        /// survivor remained to re-dispatch to).
        worker: String,
        /// What the transport reported.
        detail: String,
    },
    /// A frame larger than the transport's safety limit.
    Oversized {
        /// Length announced by the frame header.
        len: u64,
        /// The transport's limit.
        max: u64,
    },
    /// The peer violated the campaign protocol (wrong frame kind,
    /// missing events, events for unplanned targets, golden-run
    /// divergence between workers).
    Protocol(String),
    /// A worker reported a fatal error of its own.
    Remote(String),
    /// A frame failed keyed-hash authentication: missing or mismatched
    /// tag, a replayed sequence number, or an unauthenticated peer
    /// talking to a keyed endpoint. Always fatal for the session —
    /// authentication failures are never retried or silently ignored.
    Auth(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Wire(e) => write!(f, "wire codec: {e}"),
            BackendError::Io(e) => write!(f, "transport: {e}"),
            BackendError::Disconnected { worker, detail } => {
                write!(f, "worker {worker} disconnected: {detail}")
            }
            BackendError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            BackendError::Protocol(what) => write!(f, "protocol violation: {what}"),
            BackendError::Remote(what) => write!(f, "worker error: {what}"),
            BackendError::Auth(what) => write!(f, "frame authentication failed: {what}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<WireError> for BackendError {
    fn from(e: WireError) -> BackendError {
        BackendError::Wire(e)
    }
}

impl From<std::io::Error> for BackendError {
    fn from(e: std::io::Error) -> BackendError {
        BackendError::Io(e.to_string())
    }
}

/// Everything an execution venue needs to run trials for one campaign:
/// program, machine, instruction budget, and the spacing of the golden
/// pass's checkpoints. Every venue runs (or cache-hits) the golden pass
/// itself, so N remote workers warm up in parallel and the driver never
/// simulates the prefix. The driver builds one per campaign; backends
/// may clone it to any number of workers.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Machine configuration the plan was sampled against.
    pub machine: MachineConfig,
    /// Program under injection.
    pub program: Program,
    /// Committed-instruction budget of every trial and of the golden
    /// run.
    pub instr_budget: u64,
    /// How queueing-structure control/tag flips are resolved (the
    /// golden run is fault-free, so the model changes trial
    /// classification only — never the store or the reference digest).
    /// Deliberately *not* part of a worker's store cache key: trap and
    /// replay campaigns over the same (machine, program, budget,
    /// interval) share one checkpoint store.
    pub fault_model: FaultModel,
    /// Golden-pass checkpoint spacing in cycles (must be positive).
    pub checkpoint_interval: u64,
    /// Whether the campaign samples under a prune map: the venue
    /// captures ACE evidence during its golden pass and returns the
    /// classifier's [`PruneMap`] in the opened job. Not part of the
    /// cache key either: the checkpoint stream is bit-identical with
    /// and without evidence capture.
    pub prune: bool,
}

impl JobSpec {
    /// Serializes the job to its enveloped session-opening frame
    /// ([`kind::JOB_SETUP`]).
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.envelope(kind::JOB_SETUP);
        self.machine.encode(&mut w);
        self.program.encode(&mut w);
        w.u64(self.instr_budget);
        w.u8(self.fault_model.wire_code());
        w.u8(u8::from(self.prune));
        w.u64(self.checkpoint_interval);
        w.into_bytes()
    }

    /// Decodes the payload of a [`kind::JOB_SETUP`] envelope whose
    /// header `r` has already consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, unknown codes, or a zero
    /// checkpoint interval.
    pub fn decode_body(r: &mut WireReader<'_>) -> Result<JobSpec, WireError> {
        let machine = MachineConfig::decode(r)?;
        let program = Program::decode(r)?;
        let instr_budget = r.u64()?;
        let model_code = r.u8()?;
        let fault_model =
            FaultModel::from_wire_code(model_code).ok_or(WireError::BadTag(model_code))?;
        let prune = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(WireError::BadTag(t)),
        };
        let checkpoint_interval = r.u64()?;
        if checkpoint_interval == 0 {
            return Err(WireError::Invalid("checkpoint interval must be positive"));
        }
        Ok(JobSpec {
            machine,
            program,
            instr_budget,
            fault_model,
            checkpoint_interval,
            prune,
        })
    }
}

/// The hang watchdog every trial runs under, derived from the golden
/// run's length: a faulty run materially slower than the reference
/// counts as a detected (timeout) error. One shared formula so the
/// driver, the local backend, and every remote worker agree bit-for-bit
/// on trial classification.
#[must_use]
pub fn cycle_budget_of(golden_cycles: u64) -> u64 {
    golden_cycles.saturating_mul(4).saturating_add(50_000)
}

/// How one worker obtained the job's checkpoint store at `open`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreSource {
    /// The worker already held the store (cache hit).
    Cached,
    /// The worker executed the golden run itself.
    GoldenRun,
}

impl StoreSource {
    /// Stable wire code (1 was the driver-shipped store, retired in
    /// wire v8).
    #[must_use]
    pub fn wire_code(self) -> u8 {
        match self {
            StoreSource::Cached => 0,
            StoreSource::GoldenRun => 2,
        }
    }

    /// Inverse of [`StoreSource::wire_code`].
    #[must_use]
    pub fn from_wire_code(code: u8) -> Option<StoreSource> {
        match code {
            0 => Some(StoreSource::Cached),
            2 => Some(StoreSource::GoldenRun),
            _ => None,
        }
    }
}

impl fmt::Display for StoreSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StoreSource::Cached => "cached",
            StoreSource::GoldenRun => "golden-run",
        })
    }
}

/// Per-worker record of how `open` provisioned the checkpoint store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerProvision {
    /// Worker identity (remote address, or `local`).
    pub worker: String,
    /// How the worker obtained the store.
    pub source: StoreSource,
}

/// One dispatch of trials to one worker, recorded by the session so the
/// campaign report carries the full per-worker dispatch/re-dispatch
/// trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchRecord {
    /// Driver batch index (0-based submit counter of the session).
    pub batch: u64,
    /// Worker the shard went to (remote address, or `local#k`).
    pub worker: String,
    /// Trials in the shard.
    pub trials: u64,
    /// Whether this dispatch re-queued trials a dead worker never
    /// acknowledged (`false` for the batch's initial fan-out).
    pub redispatched: bool,
}

/// Trials a dispatch log re-dispatched after worker deaths.
#[must_use]
pub fn redispatched_trials(log: &[DispatchRecord]) -> u64 {
    log.iter()
        .filter(|d| d.redispatched)
        .map(|d| d.trials)
        .sum()
}

/// A bound job: the batch session plus everything the venue resolved
/// while setting it up.
pub struct OpenedJob {
    /// The session trial batches are submitted through.
    pub session: Box<dyn CampaignSession>,
    /// The fault-free reference the venue measured (or cache-hit).
    pub golden: GoldenRun,
    /// Checkpoints in the job's store.
    pub checkpoints: usize,
    /// How each worker obtained the store.
    pub provisioning: Vec<WorkerProvision>,
    /// The prune map the venue built from its golden pass (`None` when
    /// the job did not request pruning). When multiple workers build it
    /// independently, the backend must cross-check they agree
    /// bit-for-bit before returning one.
    pub prune: Option<Arc<PruneMap>>,
}

/// One classified trial outcome, streamed back from wherever the trial
/// executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialEvent {
    /// Global trial index (from the plan).
    pub index: u64,
    /// Structure the trial injected into.
    pub target: InjectionTarget,
    /// Classified outcome.
    pub outcome: Outcome,
}

impl TrialEvent {
    /// Serializes the event to a self-contained enveloped blob.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.envelope(kind::TRIAL_EVENT);
        w.u64(self.index);
        w.u8(self.target.wire_code());
        w.u8(self.outcome.wire_code());
        w.into_bytes()
    }

    /// Decodes the payload of a [`kind::TRIAL_EVENT`] envelope whose
    /// header `r` has already consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or unknown codes.
    pub fn decode_body(r: &mut WireReader<'_>) -> Result<TrialEvent, WireError> {
        let index = r.u64()?;
        let target_code = r.u8()?;
        let outcome_code = r.u8()?;
        Ok(TrialEvent {
            index,
            target: InjectionTarget::from_wire_code(target_code)
                .ok_or(WireError::BadTag(target_code))?,
            outcome: Outcome::from_wire_code(outcome_code)
                .ok_or(WireError::BadTag(outcome_code))?,
        })
    }

    /// Decodes an event written by [`TrialEvent::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on envelope mismatch or truncation.
    pub fn from_wire(bytes: &[u8]) -> Result<TrialEvent, WireError> {
        let mut r = WireReader::new(bytes);
        r.expect_envelope(kind::TRIAL_EVENT)?;
        let ev = TrialEvent::decode_body(&mut r)?;
        r.finish()?;
        Ok(ev)
    }
}

/// Serializes one batch of trials to an enveloped blob
/// ([`kind::TRIAL_BATCH`]).
#[must_use]
pub fn encode_trial_batch(trials: &[Trial]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.envelope(kind::TRIAL_BATCH);
    w.usize(trials.len());
    for t in trials {
        t.encode(&mut w);
    }
    w.into_bytes()
}

/// Decodes a batch written by [`encode_trial_batch`].
///
/// # Errors
///
/// Returns a [`WireError`] on envelope mismatch, truncation, or unknown
/// target codes.
pub fn decode_trial_batch(bytes: &[u8]) -> Result<Vec<Trial>, WireError> {
    let mut r = WireReader::new(bytes);
    r.expect_envelope(kind::TRIAL_BATCH)?;
    let n = r.seq_len(Trial::WIRE_BYTES)?;
    let mut trials = Vec::with_capacity(n);
    for _ in 0..n {
        trials.push(Trial::decode(&mut r)?);
    }
    r.finish()?;
    Ok(trials)
}

/// An execution venue for campaign trials.
///
/// Implementations bind a [`JobSpec`] once (paying setup — golden run
/// or cache hit, connections — a single time) and then execute
/// any number of trial batches against it.
pub trait CampaignBackend {
    /// Degree of parallelism this backend reports (recorded in the
    /// campaign report; never affects results).
    fn workers(&self) -> usize;

    /// Binds a job to this venue, returning the opened session plus the
    /// golden run the venue resolved.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the venue cannot accept the job
    /// (bad checkpoints, unreachable workers, golden-run divergence
    /// between workers).
    fn open(&self, spec: JobSpec) -> Result<OpenedJob, BackendError>;
}

/// One campaign's execution state on a backend.
pub trait CampaignSession {
    /// Executes one batch of trials, streaming classified outcomes back
    /// as they complete. The stream must be drained before the next
    /// `submit` (the `&mut` receiver enforces it).
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the batch cannot be dispatched.
    fn submit(&mut self, trials: &[Trial]) -> Result<TrialStream, BackendError>;

    /// Every dispatch the session performed so far, in dispatch order —
    /// including re-dispatches of trials a dead worker never
    /// acknowledged. Default: no record kept.
    fn dispatch_log(&self) -> Vec<DispatchRecord> {
        Vec::new()
    }
}

/// Streaming iterator of per-trial outcomes for one submitted batch.
///
/// Yields events in completion order (which is execution-venue
/// dependent and irrelevant to the result: outcome counts commute).
/// The stream ends when every worker has reported; worker threads are
/// joined on exhaustion or drop.
pub struct TrialStream {
    rx: mpsc::Receiver<Result<TrialEvent, BackendError>>,
    handles: Vec<JoinHandle<()>>,
}

impl TrialStream {
    /// Wraps a channel of events plus the worker threads feeding it.
    #[must_use]
    pub fn new(
        rx: mpsc::Receiver<Result<TrialEvent, BackendError>>,
        handles: Vec<JoinHandle<()>>,
    ) -> TrialStream {
        TrialStream { rx, handles }
    }

    fn join_workers(&mut self) {
        for h in self.handles.drain(..) {
            // A panicking worker dropped its sender, which already
            // terminated the stream; surface the panic to the caller.
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Iterator for TrialStream {
    type Item = Result<TrialEvent, BackendError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.rx.recv() {
            Ok(item) => Some(item),
            Err(_) => {
                self.join_workers();
                None
            }
        }
    }
}

impl Drop for TrialStream {
    fn drop(&mut self) {
        // Stop buffering for senders, then wait the workers out so an
        // abandoned stream cannot leak threads into the next batch.
        drop(std::mem::replace(&mut self.rx, mpsc::channel().1));
        self.join_workers();
    }
}

/// Splits `trials` into `workers` cycle-sorted strided shards.
///
/// Each shard ascends in injection cycle, so one forward simulation
/// pass (checkpoint restore at the head, snapshot/flip/rewind at each
/// point) covers it; striding balances the per-trial tail-replay cost
/// across workers. Shards partition the input: every trial appears in
/// exactly one.
#[must_use]
pub fn shard_trials(trials: &[Trial], workers: usize) -> Vec<Vec<Trial>> {
    let mut by_cycle: Vec<usize> = (0..trials.len()).collect();
    by_cycle.sort_by_key(|&i| (trials[i].cycle, trials[i].index));
    let workers = workers.max(1);
    let mut shards = vec![Vec::with_capacity(trials.len() / workers + 1); workers];
    for (pos, &i) in by_cycle.iter().enumerate() {
        shards[pos % workers].push(trials[i]);
    }
    shards
}

/// Classifies a single trial on `sim`, which must be positioned at or
/// before the trial's injection cycle (and on the fault-free path).
/// Returns with `sim` rewound to the injection point, ready for the
/// next (equal-or-later-cycle) trial.
///
/// A trial whose injection cycle the fault-free prefix never reaches is
/// classified [`Outcome::Unreached`] — an explicit invalid-sample
/// verdict rather than the old `debug_assert!`, which in release builds
/// silently injected at whatever earlier cycle the run ended on.
///
/// Armed trials simulate the whole tail; see [`settle_trial`] for the
/// same verdict settled early at golden checkpoints.
pub fn classify_trial(sim: &mut InjectionSim<'_>, trial: &Trial, golden_digest: u64) -> Outcome {
    settle_trial(sim, trial, golden_digest, None).outcome
}

/// Where a trial's verdict came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrialEnd {
    /// Settled without a tail: masked or diverged at the probe,
    /// unreached, or trapped at the flip itself.
    Probe,
    /// Settled at the flip, with no tail: a DL1/L2 fault that the golden
    /// pass's line events show dying unread, or staying resident,
    /// unread, to the end without reaching memory
    /// ([`InjectionSim::cache_fate`]); or a flip that changed only
    /// passive state, judged against the golden state it was made in
    /// ([`InjectionSim::judge`]) and, when the golden future reads a
    /// difference, finished on its oracle from the flip
    /// ([`InjectionSim::oracle_tail`]).
    AtFlip,
    /// Equal to a golden checkpoint: the trial rejoined the golden run.
    Rejoined,
    /// Differed from a golden checkpoint only in state the golden
    /// future never reads.
    Decided,
    /// Equal to a golden checkpoint in active state, with its oracle
    /// then shown to produce the golden outcomes to the end of the run
    /// ([`InjectionSim::oracle_tail`]).
    OracleTail,
    /// Ran its tail until the run ended.
    FullTail,
}

/// A classified trial and how it ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settled {
    /// The verdict.
    pub outcome: Outcome,
    /// Where it came from.
    pub end: TrialEnd,
    /// Cycles simulated after the flip (for an [`TrialEnd::OracleTail`]
    /// trial, up to the checkpoint where the oracle tail started).
    pub tail_cycles: u64,
}

/// [`classify_trial`], settling an armed trial at its flip or at the
/// first golden checkpoint where its verdict is already fixed, and
/// reporting how the trial ended.
///
/// An armed DL1/L2 trial is first looked up in the golden pass's log of
/// line events ([`InjectionSim::cache_fate`]). A fault in a data array
/// changes nothing the cycle loop reads until a load consumes it, so the
/// faulty machine meets the golden run's evictions, fills, loads and
/// stores. If the fault dies unread (a store repairs it, an eviction
/// drops it) or stays resident, unread, until the run ends, and no dirty
/// L2 eviction writes it to memory, the trial is Masked
/// ([`TrialEnd::AtFlip`]) with no snapshot, flip or tail. A consumed or
/// escaping fault takes the path below.
///
/// Any other armed trial is judged first against the snapshot taken
/// just before its flip, which is the golden run's state of that cycle,
/// and then at each `golden` checkpoint after the injection cycle
/// against the checkpoint's snapshot ([`InjectionSim::judge`]; one
/// settle at the golden state's oracle position either way). Every field
/// but four passive parts (the oracle's registers, its memory bytes, the
/// DTLB poison flag and the in-flight micro-ops' values) must be equal,
/// and no differing register or byte may be read later in the golden
/// future. Then the faulty machine runs the golden future cycle for
/// cycle, so its verdict is fixed without simulating the rest of the
/// tail: DUE if the golden future hits the poisoned DTLB entry before
/// evicting it, else SDC if a differing byte is never stored to again,
/// else Masked. With no difference at all the trial has rejoined the
/// golden run (Masked). A flip that writes only passive state (a
/// register-file or result-value flip, a DTLB poison, store data, a
/// replayed result that changes no address or direction) is settled at
/// the flip this way ([`TrialEnd::AtFlip`]); a flip of active state
/// (queue control, addresses) waits for a checkpoint.
///
/// At the first judgement where only the second condition fails
/// ([`Judgement::Live`]), the trial's oracle is run alone to the end of
/// the run and checked against the golden addresses and branch
/// directions ([`InjectionSim::oracle_tail`]). If it follows them, the
/// machine again runs the golden timing, and its verdict is DUE on a
/// golden hit of the poisoned entry, else SDC if the oracle's final
/// memory differs from the golden image, else Masked. If it does not,
/// the trial goes on in the cycle loop and never tries the oracle tail
/// again: with no cache fault pending its architectural path is fixed
/// from the flip onward, so it would leave the golden path at the same
/// instruction. So each trial runs at most one oracle pass, the flip
/// included.
///
/// The verdict is therefore always the full-tail one, provided `golden`
/// holds the checkpoints of the golden pass of `sim`'s machine, program
/// and instruction budget, and `sim`'s cycle budget covers the golden
/// run (as [`cycle_budget_of`] does). A trial that completes is judged
/// against the golden final image page by page (pages it shares with
/// that image are skipped) rather than by `golden_digest`. `None`
/// simulates every tail in full and compares digests.
pub fn settle_trial(
    sim: &mut InjectionSim<'_>,
    trial: &Trial,
    golden_digest: u64,
    golden: Option<&DecodedCheckpoints>,
) -> Settled {
    let ended = |outcome, end| Settled {
        outcome,
        end,
        tail_cycles: 0,
    };
    if !sim.run_to_cycle(trial.cycle) {
        return ended(Outcome::Unreached, TrialEnd::Probe);
    }
    // Dry-probe first: provably masked flips touch no machine state, so
    // they need neither the snapshot nor the rewind.
    match sim.probe_bit(trial.target, trial.entry, trial.bit) {
        FlipEffect::Masked(_) => ended(Outcome::Masked, TrialEnd::Probe),
        // An architecturally impossible decode mutates nothing either:
        // the verdict is immediate.
        FlipEffect::Diverged => ended(Outcome::ReplayDiverged, TrialEnd::Probe),
        FlipEffect::Armed => {
            // A DL1/L2 fault the golden line log shows dying unread:
            // no snapshot, flip or tail.
            if let Some(verdict) = golden
                .and_then(|g| sim.cache_fate(trial.target, trial.entry, trial.bit, g))
                .and_then(CacheFate::verdict)
            {
                return ended(outcome_of(verdict), TrialEnd::AtFlip);
            }
            let snap = sim.snapshot();
            let armed = sim.flip_bit(trial.target, trial.entry, trial.bit);
            debug_assert_eq!(armed, FlipEffect::Armed, "probe and flip must agree");
            let mut oracle_tried = false;
            // `snap` is the golden run's state of the flip's cycle.
            let at_flip = golden.and_then(|g| settle_against(sim, g, &snap, &mut oracle_tried));
            let settled = match at_flip {
                Some((outcome, _)) => ended(outcome, TrialEnd::AtFlip),
                None => {
                    let (outcome, end) =
                        run_armed_tail(sim, trial.cycle, golden_digest, golden, oracle_tried);
                    let tail_cycles = sim.cycle() - trial.cycle;
                    Settled {
                        outcome,
                        // A flip that sets the trap flag ends the run
                        // before a single tail cycle.
                        end: if tail_cycles == 0 {
                            TrialEnd::Probe
                        } else {
                            end
                        },
                        tail_cycles,
                    }
                }
            };
            sim.restore(&snap);
            settled
        }
    }
}

/// Judges a flipped machine against `golden_state`, the golden run's
/// state of its current cycle: the verdict and how the trial ends if
/// it is fixed, else `None` (keep simulating). A [`Judgement::Live`]
/// machine is finished on its oracle unless `oracle_tried`, which is
/// then set.
fn settle_against(
    sim: &mut InjectionSim<'_>,
    golden: &DecodedCheckpoints,
    golden_state: &PipelineSnapshot,
    oracle_tried: &mut bool,
) -> Option<(Outcome, TrialEnd)> {
    match sim.judge(golden, golden_state) {
        Judgement::Open => None,
        Judgement::Live if *oracle_tried => None,
        Judgement::Live => {
            *oracle_tried = true;
            let verdict = sim.oracle_tail(golden, golden_state)?;
            Some((outcome_of(verdict), TrialEnd::OracleTail))
        }
        Judgement::Rejoined => Some((Outcome::Masked, TrialEnd::Rejoined)),
        Judgement::Decided(verdict) => Some((outcome_of(verdict), TrialEnd::Decided)),
    }
}

/// Runs a flipped machine to its verdict, judging it at each golden
/// checkpoint after `injected_at` (with no oracle pass if
/// `oracle_tried`).
fn run_armed_tail(
    sim: &mut InjectionSim<'_>,
    injected_at: u64,
    golden_digest: u64,
    golden: Option<&DecodedCheckpoints>,
    mut oracle_tried: bool,
) -> (Outcome, TrialEnd) {
    if let Some(g) = golden {
        for (cycle, snap) in g.after(injected_at) {
            // A run that ends (or times out) first is settled by `run_to_end`.
            if !sim.run_to_cycle(cycle) {
                break;
            }
            if let Some(settled) = settle_against(sim, g, snap, &mut oracle_tried) {
                return settled;
            }
        }
    }
    let end = sim.run_to_end();
    let golden_memory = || match golden {
        Some(g) => sim.memory() == g.final_memory(),
        None => sim.memory_digest() == golden_digest,
    };
    let outcome = match end {
        RunEnd::Trapped | RunEnd::Timeout => Outcome::Due,
        RunEnd::Completed if golden_memory() => Outcome::Masked,
        RunEnd::Completed => Outcome::Sdc,
    };
    (outcome, TrialEnd::FullTail)
}

fn outcome_of(verdict: Verdict) -> Outcome {
    match verdict {
        Verdict::Masked => Outcome::Masked,
        Verdict::Sdc => Outcome::Sdc,
        Verdict::Due => Outcome::Due,
    }
}

/// How the trials a [`LocalBackend`] ran ended, and the tail cycles
/// they simulated: monotone relaxed counters, shared across every
/// session the backend opens.
#[derive(Debug, Default)]
pub struct TrialEnds {
    /// Trials settled without a tail ([`TrialEnd::Probe`]).
    probe: AtomicU64,
    /// Armed trials settled at their flip ([`TrialEnd::AtFlip`]).
    at_flip: AtomicU64,
    /// Armed trials that rejoined the golden run at a checkpoint.
    rejoined: AtomicU64,
    /// Armed trials decided Masked at a checkpoint.
    decided_masked: AtomicU64,
    /// Armed trials decided SDC at a checkpoint.
    decided_sdc: AtomicU64,
    /// Armed trials decided DUE at a checkpoint.
    decided_due: AtomicU64,
    /// Armed trials finished on the oracle alone from a checkpoint.
    oracle_tail: AtomicU64,
    /// Armed trials that ran their tail until the run ended.
    full_tail: AtomicU64,
    /// Cycles armed trials simulated after their flips.
    tail_cycles: AtomicU64,
}

impl TrialEnds {
    /// Counts one settled trial.
    pub fn record(&self, settled: &Settled) {
        let counter = match (settled.end, settled.outcome) {
            (TrialEnd::Probe, _) => &self.probe,
            (TrialEnd::AtFlip, _) => &self.at_flip,
            (TrialEnd::Rejoined, _) => &self.rejoined,
            (TrialEnd::Decided, Outcome::Sdc) => &self.decided_sdc,
            (TrialEnd::Decided, Outcome::Due) => &self.decided_due,
            (TrialEnd::Decided, _) => &self.decided_masked,
            (TrialEnd::OracleTail, _) => &self.oracle_tail,
            (TrialEnd::FullTail, _) => &self.full_tail,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.tail_cycles
            .fetch_add(settled.tail_cycles, Ordering::Relaxed);
    }

    /// Every counter with its metric-style name, in a fixed order.
    #[must_use]
    pub fn values(&self) -> [(&'static str, u64); 9] {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("trials_probe", load(&self.probe)),
            ("trials_at_flip", load(&self.at_flip)),
            ("trials_rejoined", load(&self.rejoined)),
            ("trials_decided_masked", load(&self.decided_masked)),
            ("trials_decided_sdc", load(&self.decided_sdc)),
            ("trials_decided_due", load(&self.decided_due)),
            ("trials_oracle_tail", load(&self.oracle_tail)),
            ("trials_full_tail", load(&self.full_tail)),
            ("tail_cycles", load(&self.tail_cycles)),
        ]
    }
}

/// The shareable execution state of one local campaign.
struct LocalJob {
    machine: MachineConfig,
    program: Program,
    checkpoints: Arc<DecodedCheckpoints>,
    instr_budget: u64,
    cycle_budget: u64,
    fault_model: FaultModel,
    golden_digest: u64,
    ends: Arc<TrialEnds>,
}

impl LocalJob {
    /// Executes one cycle-sorted shard on a single forward pass,
    /// emitting an event per trial.
    fn run_shard(&self, shard: &[Trial], tx: &mpsc::Sender<Result<TrialEvent, BackendError>>) {
        let mut sim: Option<InjectionSim<'_>> = None;
        for trial in shard {
            // Lazy init: resume at the nearest checkpoint below the
            // shard's first (lowest) injection cycle instead of
            // simulating the prefix from cycle 0.
            let sim = sim.get_or_insert_with(|| {
                let (_, snap) = self
                    .checkpoints
                    .nearest(trial.cycle)
                    .expect("checkpoints always hold the cycle-0 state");
                let mut s = InjectionSim::from_snapshot(
                    &self.machine,
                    &self.program,
                    self.instr_budget,
                    snap,
                );
                s.set_cycle_budget(self.cycle_budget);
                s.set_fault_model(self.fault_model);
                s
            });
            let settled = settle_trial(sim, trial, self.golden_digest, Some(&self.checkpoints));
            self.ends.record(&settled);
            let event = TrialEvent {
                index: trial.index,
                target: trial.target,
                outcome: settled.outcome,
            };
            if tx.send(Ok(event)).is_err() {
                return; // the stream was dropped; no one is listening
            }
        }
    }
}

/// The in-process thread-pool backend: the execution engine
/// [`Campaign::run`](crate::Campaign::run) always had, refit behind the
/// backend API.
pub struct LocalBackend {
    workers: usize,
    ends: Arc<TrialEnds>,
}

impl LocalBackend {
    /// A local backend with `threads` workers (0 = all available
    /// cores).
    #[must_use]
    pub fn new(threads: usize) -> LocalBackend {
        let workers = if threads > 0 {
            threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        LocalBackend {
            workers,
            ends: Arc::default(),
        }
    }

    /// Counts trial ends into `ends` (shared, say, with a metrics
    /// endpoint) instead of a private counter set.
    #[must_use]
    pub fn with_trial_ends(mut self, ends: Arc<TrialEnds>) -> LocalBackend {
        self.ends = ends;
        self
    }

    /// Opens `spec` on a golden pass the caller already holds (`source`
    /// says how it got it): builds the prune map from `evidence` when
    /// `spec.prune` asks for one, and the session. [`LocalBackend::open`]
    /// and each `serve` worker's cache both end here.
    #[must_use]
    pub fn open_resolved(
        &self,
        spec: JobSpec,
        golden: GoldenRun,
        checkpoints: Arc<DecodedCheckpoints>,
        evidence: Option<&PruneEvidence>,
        source: StoreSource,
    ) -> OpenedJob {
        let prune = evidence.filter(|_| spec.prune).map(|evidence| {
            Arc::new(PruneMap::build(
                &spec.machine,
                &spec.program,
                spec.fault_model,
                evidence,
            ))
        });
        let checkpoints_total = checkpoints.len();
        OpenedJob {
            session: Box::new(LocalSession {
                job: Arc::new(LocalJob {
                    machine: spec.machine,
                    program: spec.program,
                    checkpoints,
                    instr_budget: spec.instr_budget,
                    cycle_budget: cycle_budget_of(golden.cycles),
                    fault_model: spec.fault_model,
                    golden_digest: golden.digest,
                    ends: Arc::clone(&self.ends),
                }),
                workers: self.workers,
                log: Vec::new(),
                batch: 0,
            }),
            golden,
            checkpoints: checkpoints_total,
            provisioning: vec![WorkerProvision {
                worker: "local".to_owned(),
                source,
            }],
            prune,
        }
    }
}

impl CampaignBackend for LocalBackend {
    fn workers(&self) -> usize {
        self.workers
    }

    fn open(&self, spec: JobSpec) -> Result<OpenedJob, BackendError> {
        if spec.checkpoint_interval == 0 {
            return Err(BackendError::Protocol(
                "the golden pass needs a positive checkpoint interval".to_owned(),
            ));
        }
        let (golden, checkpoints, evidence) = golden_pass(
            &spec.machine,
            &spec.program,
            spec.instr_budget,
            spec.checkpoint_interval,
            spec.prune.then_some(PRUNE_WINDOW),
        );
        Ok(self.open_resolved(
            spec,
            golden,
            Arc::new(checkpoints),
            evidence.as_ref(),
            StoreSource::GoldenRun,
        ))
    }
}

struct LocalSession {
    job: Arc<LocalJob>,
    workers: usize,
    log: Vec<DispatchRecord>,
    batch: u64,
}

impl CampaignSession for LocalSession {
    fn submit(&mut self, trials: &[Trial]) -> Result<TrialStream, BackendError> {
        let batch = self.batch;
        self.batch += 1;
        let (tx, rx) = mpsc::channel();
        let handles = shard_trials(trials, self.workers)
            .into_iter()
            .enumerate()
            .filter(|(_, shard)| !shard.is_empty())
            .map(|(k, shard)| {
                self.log.push(DispatchRecord {
                    batch,
                    worker: format!("local#{k}"),
                    trials: shard.len() as u64,
                    redispatched: false,
                });
                let job = Arc::clone(&self.job);
                let tx = tx.clone();
                std::thread::spawn(move || job.run_shard(&shard, &tx))
            })
            .collect();
        // Drop the prototype sender so the stream terminates when the
        // last worker finishes.
        drop(tx);
        Ok(TrialStream::new(rx, handles))
    }

    fn dispatch_log(&self) -> Vec<DispatchRecord> {
        self.log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(index: u64, cycle: u64) -> Trial {
        Trial {
            index,
            target: InjectionTarget::ALL[(index % 8) as usize],
            cycle,
            entry: index * 3,
            bit: (index % 60) as u32,
        }
    }

    #[test]
    fn trial_batch_round_trips() {
        let trials: Vec<Trial> = (0..17).map(|i| trial(i, 1000 - i * 7)).collect();
        let bytes = encode_trial_batch(&trials);
        assert_eq!(decode_trial_batch(&bytes).unwrap(), trials);
        assert!(decode_trial_batch(&bytes[..bytes.len() - 1]).is_err());
        assert!(matches!(
            decode_trial_batch(&[0u8; 32]),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn trial_event_round_trips() {
        for (i, outcome) in [
            Outcome::Masked,
            Outcome::Sdc,
            Outcome::Due,
            Outcome::Unreached,
        ]
        .into_iter()
        .enumerate()
        {
            let ev = TrialEvent {
                index: i as u64 * 1000,
                target: InjectionTarget::ALL[i * 2],
                outcome,
            };
            assert_eq!(TrialEvent::from_wire(&ev.to_wire()).unwrap(), ev);
        }
    }

    #[test]
    fn shards_partition_and_sort_by_cycle() {
        let trials: Vec<Trial> = (0..101).map(|i| trial(i, (i * 37) % 500)).collect();
        let shards = shard_trials(&trials, 4);
        assert_eq!(shards.len(), 4);
        let mut seen: Vec<u64> = shards.iter().flatten().map(|t| t.index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..101).collect::<Vec<_>>());
        for shard in &shards {
            assert!(shard.windows(2).all(|p| p[0].cycle <= p[1].cycle));
        }
        // Zero workers degrades to one shard rather than panicking.
        assert_eq!(shard_trials(&trials, 0).len(), 1);
    }
}
