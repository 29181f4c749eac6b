//! # avf-inject
//!
//! Parallel statistical fault-injection campaigns that cross-validate
//! the ACE-based AVF estimates of `avf-sim`/`avf-ace`.
//!
//! The paper's central claim — that the GA stressmark *bounds*
//! worst-case vulnerability — rests entirely on the ACE analysis behind
//! its SER fitness. The standard way to validate an ACE-derived AVF is
//! statistical fault injection (SFI): sample a (cycle, entry, bit)
//! point uniformly from a structure's bit×cycle space, flip it, run to
//! completion, and classify the outcome against a fault-free golden run
//! as **masked**, **SDC** (silent data corruption: program output
//! differs) or **DUE** (detected unrecoverable error: trap, wrong
//! translation, hang). The measured AVF is the unmasked fraction; with
//! a Wilson score interval it becomes a second, independent estimate of
//! the same quantity ACE analysis computes analytically — and because
//! ACE analysis is deliberately conservative, a sound simulator shows
//! `measured ≤ ACE` per structure, with equality approached on
//! fully-ACE code like the stressmark.
//!
//! ## Architecture
//!
//! * [`SamplingPlan`] — a deterministic, seed-derived list of trials
//!   (every trial's sample is a pure function of `(seed, batch, trial
//!   index)` through a SplitMix64 finalizer, so campaign results are
//!   identical for any thread count and nearby seeds are uncorrelated);
//! * [`Campaign`] — the driver: the venue's golden pass keeps periodic
//!   in-memory checkpoints ([`avf_sim::DecodedCheckpoints`]), then batches
//!   of trials are submitted through the [`CampaignBackend`] protocol while the
//!   ACE reference simulation runs concurrently. With
//!   [`CampaignConfig::ci_target`] set, trials are planned in batches
//!   allocated to the structures with the widest Wilson intervals,
//!   stopping as soon as every target reaches the precision target
//!   (sequential sampling);
//! * [`CampaignBackend`] / [`CampaignSession`] — the execution seam: a
//!   backend binds a [`JobSpec`] (program, machine, budget, and the
//!   [`GoldenSpec`] the venue runs its golden pass from) and streams
//!   per-trial [`TrialEvent`]s back as they complete. [`LocalBackend`] is the
//!   in-process thread pool (cycle-sorted strided shards, each worker
//!   restoring the nearest checkpoint and forking with
//!   [`avf_sim::InjectionSim::snapshot`]/`restore` at each injection
//!   point); `avf-service` adds a TCP `RemoteBackend` plus the matching
//!   long-running server — with job-keyed checkpoint caching,
//!   parallel worker-side golden runs (digest cross-checked), and
//!   re-dispatch of a dead worker's unacknowledged trials — and a
//!   fixed seed yields identical reports on any of them, worker
//!   failures included;
//! * [`CampaignReport`] — per-structure outcome counts, measured AVF
//!   with 95% Wilson confidence intervals, per-batch convergence
//!   progress with the early-exit reason ([`StopReason`]), and the ACE
//!   AVF measured on the same run for side-by-side comparison.
//!
//! ## Example
//!
//! ```no_run
//! use avf_inject::{Campaign, CampaignConfig};
//! use avf_sim::MachineConfig;
//! # let program = avf_workloads::by_name("429.mcf").unwrap().build();
//!
//! let machine = MachineConfig::baseline();
//! let config = CampaignConfig { injections: 1000, seed: 42, ..CampaignConfig::default() };
//! let report = Campaign::new(&machine, &program, config).run();
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod backend;
mod campaign;
mod plan;
mod report;
mod stats;

pub use backend::{
    classify_trial, cycle_budget_of, decode_trial_batch, encode_trial_batch, redispatched_trials,
    run_golden_pass, settle_trial, shard_trials, BackendError, CampaignBackend, CampaignSession,
    DispatchRecord, GoldenSpec, JobSpec, LocalBackend, OpenedJob, Settled, StoreSource, TrialEnd,
    TrialEnds, TrialEvent, TrialStream, WorkerProvision,
};
pub use campaign::{Campaign, CampaignConfig};
pub use plan::{SamplingPlan, Trial, AUDIT_BATCH};
pub use report::{BatchProgress, CampaignReport, StopReason, TargetReport, Verdict};
pub use stats::{wilson_interval, OutcomeCounts};

pub use avf_prune::{ProofTag, PruneMap, PruneMode};
pub use avf_sim::{
    golden_run_checkpointed, golden_run_with_evidence, DecodedCheckpoints, FaultModel, FlipEffect,
    InjectionTarget, MaskReason, PruneEvidence, RunEnd, PRUNE_WINDOW,
};

/// Classified outcome of one injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No architecturally visible effect: the program produced the same
    /// output as the golden run (or the flip hit provably dead state).
    Masked,
    /// Silent data corruption: the run completed but program output
    /// differs from the golden run.
    Sdc,
    /// Detected unrecoverable error: trap, wrong translation consumed,
    /// control-state corruption, or a hang past the cycle budget.
    Due,
    /// Invalid sample: the fault-free prefix ended before the planned
    /// injection cycle, so nothing was injected. Counted separately in
    /// the report and excluded from the AVF estimate (a healthy
    /// plan/golden pair never produces these).
    Unreached,
    /// The corrupted entry decodes to an architecturally impossible
    /// state (unencodable opcode or stage code, a register tag past the
    /// physical file or naming no live definition): the replay oracle
    /// cannot express the faulty machine. Counted as unmasked — real
    /// hardware detects exactly these malformed states (a machine
    /// check), so the taxonomy treats them as DUE-grade events — but
    /// tallied in its own bucket so the report shows how much of a
    /// structure's vulnerability rests on impossible decodes.
    ReplayDiverged,
}

impl Outcome {
    /// Stable single-byte code used by the trial-event wire codec.
    #[must_use]
    pub fn wire_code(self) -> u8 {
        match self {
            Outcome::Masked => 0,
            Outcome::Sdc => 1,
            Outcome::Due => 2,
            Outcome::Unreached => 3,
            Outcome::ReplayDiverged => 4,
        }
    }

    /// Inverse of [`Outcome::wire_code`].
    #[must_use]
    pub fn from_wire_code(code: u8) -> Option<Outcome> {
        match code {
            0 => Some(Outcome::Masked),
            1 => Some(Outcome::Sdc),
            2 => Some(Outcome::Due),
            3 => Some(Outcome::Unreached),
            4 => Some(Outcome::ReplayDiverged),
            _ => None,
        }
    }
}
