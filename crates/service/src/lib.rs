//! # avf-service
//!
//! The wire-native campaign service: everything needed to run
//! fault-injection campaigns *somewhere else*.
//!
//! The campaign driver in `avf-inject` speaks the [`CampaignBackend`]
//! protocol — open a job, submit trial batches, drain a stream of
//! per-trial outcomes. This crate carries that protocol across a
//! socket:
//!
//! * [`frame`] — length-prefixed framing with an allocation-bounding
//!   size limit, plus a count/time-window [`frame::FrameBatcher`] so
//!   the event hot path does not pay one syscall per 16-byte frame;
//! * [`protocol`] — the session schema (job setup → job ready →
//!   batches → streamed events), every payload wrapped in the
//!   `avf_isa::wire` magic + version envelope so stale or foreign
//!   peers fail typed. The setup frame is the driver's
//!   [`avf_inject::JobSpec`] itself, so a job has one type on both
//!   sides of the socket;
//! * [`cache`] — bounded worker-side caches on one LRU core: in-memory
//!   golden passes keyed by a content hash of the job ([`StoreCache`]),
//!   so an identical job never re-runs the golden pass on the same
//!   worker, and GA scores keyed by (context, program) ([`ScoreCache`]),
//!   which the local search uses too;
//! * [`serve`] / [`spawn_local`] — the long-running job server
//!   (`avf-stressmark serve`), a thin wire adapter over the same
//!   `LocalBackend` the in-process path uses — including worker-side
//!   golden runs, so N workers warm a campaign up in parallel while
//!   the driver simulates nothing;
//! * [`fleet`] — the one dispatcher every remote venue uses: worker
//!   slots, the reply drain that matches each answer against what was
//!   sent, and the round loop that shards work across live workers and
//!   **re-dispatches** what a dead worker never acknowledged onto the
//!   survivors. Campaign trials and GA genomes supply only a shard
//!   policy and frame codecs;
//! * [`RemoteBackend`] / [`RemoteEvaluator`] — the campaign and search
//!   clients over a fleet of `serve` workers. The campaign session
//!   ([`RemoteSession`]) and the evaluator are generic over the
//!   [`Venue`] they dispatch to, so the broker's clients in
//!   `avf-broker` are the same two types over a broker session;
//! * [`auth`] — keyed-hash (SipHash-2-4) frame authentication under a
//!   shared `--auth-key-file` key: per-connection, per-direction
//!   sequence-numbered tags reject tampered, replayed, reflected, and
//!   unauthenticated frames with a typed error, closing the
//!   trusted-peers gap recorded since PR 3;
//! * [`log`] — stderr diagnostics that ignore write errors, so a
//!   closed stderr cannot kill a session or relay thread;
//! * [`metrics`] — a plaintext `GET /metrics` + `GET /healthz`
//!   endpoint (workers expose both caches' counters and their session
//!   counters; the broker in `avf-broker` exposes queue depths and
//!   worker liveness), scrapable with `curl`/`nc`.
//!
//! Determinism is the design invariant: with a fixed seed, a campaign
//! over `RemoteBackend` produces a [`CampaignReport`] identical to the
//! local run — same outcome counts, intervals, batch trajectory, and
//! stop reason — because samples are derived purely from `(seed,
//! batch, index)` and aggregation commutes. That also makes worker
//! failure recoverable without bias: a re-executed trial yields the
//! identical outcome wherever it runs, so a campaign that lost a
//! worker mid-batch still reports bit-identically to the fault-free
//! run. The loopback and resilience test suites assert exactly that,
//! and everything here is plain `std::net` (no async runtime), keeping
//! the fully-offline vendored build intact.
//!
//! [`CampaignBackend`]: avf_inject::CampaignBackend
//! [`CampaignReport`]: avf_inject::CampaignReport

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod cache;
pub mod eval;
pub mod fleet;
pub mod frame;
pub mod log;
pub mod metrics;
pub mod protocol;
mod remote;
mod server;

pub use auth::{AuthKey, ConnectionAuth};
pub use cache::{CacheStats, ScoreCache, ScoreSlot, StoreCache};
pub use eval::{
    candidate_program, evaluate_genome, genome_key, score_generation, target_params, EvalBatch,
    EvalContext, EvalReply, EvalScore, RemoteEvaluator, Scorer,
};
pub use fleet::{Fleet, Genomes, Trials, Venue};
pub use metrics::{spawn_metrics, ServeStats};
pub use remote::{RemoteBackend, RemoteSession};
pub use server::{serve, spawn_local, ServeOptions};
