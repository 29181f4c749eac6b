//! Broker message schema (wire v6).
//!
//! A broker session opens with `BROKER_HELLO` (the tenant name) and
//! `BROKER_HELLO_ACK` (the worker fleet size). After that the
//! connection is persistent and carries any mix of:
//!
//! * `BROKER_SUBMIT` — a full [`CampaignSpec`], answered by
//!   `BROKER_ACCEPTED` (the durable campaign id) or `BROKER_REJECTED`
//!   (a typed admission-control reason, never a silent drop);
//! * `BROKER_ATTACH` — re-subscribe to a campaign by id, from this or
//!   any later connection (the campaign survives its submitter);
//! * `MUX`-wrapped worker-protocol frames — an interactive campaign
//!   relayed through the broker's worker fleet (see
//!   [`crate::BrokeredBackend`]).
//!
//! Replies are campaign-id-tagged (`BROKER_STATUS`, `BROKER_REPORT`,
//! `BROKER_FAILED`), so one connection can follow many campaigns at
//! once. Every payload opens with the [`avf_isa::wire`] envelope; a
//! stale peer fails with a typed version error before any broker field
//! is read.

use avf_inject::{CampaignConfig, CampaignReport};
use avf_isa::wire::{kind, WireError, WireReader, WireWriter};
use avf_isa::Program;
use avf_prune::PruneMode;
use avf_sim::{FaultModel, MachineConfig};

/// Everything the broker needs to run one campaign on behalf of a
/// tenant: the full machine and program (by value — the broker is
/// workload-agnostic) plus the campaign knobs of
/// [`avf_inject::CampaignConfig`].
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Machine configuration the campaign samples against.
    pub machine: MachineConfig,
    /// Program under injection.
    pub program: Program,
    /// Injection budget (or adaptive trial cap).
    pub injections: u64,
    /// Seed deriving the whole sampling plan.
    pub seed: u64,
    /// Committed-instruction budget per trial.
    pub instr_budget: u64,
    /// Adaptive mode: stop at this 95% CI half-width.
    pub ci_target: Option<f64>,
    /// Trials planned per adaptive batch.
    pub batch_size: u64,
    /// Golden-run checkpoint spacing (0 = auto).
    pub checkpoint_interval: u64,
    /// Queueing-structure fault model.
    pub fault_model: FaultModel,
    /// Pre-campaign site pruning mode.
    pub prune: PruneMode,
}

impl CampaignSpec {
    /// A spec from a campaign configuration (the golden pass is always
    /// delegated to the broker's workers; `threads` and `targets` are
    /// venue decisions the spec does not carry).
    #[must_use]
    pub fn from_config(
        machine: MachineConfig,
        program: Program,
        config: &CampaignConfig,
    ) -> CampaignSpec {
        CampaignSpec {
            machine,
            program,
            injections: config.injections,
            seed: config.seed,
            instr_budget: config.instr_budget,
            ci_target: config.ci_target,
            batch_size: config.batch_size,
            checkpoint_interval: config.checkpoint_interval,
            fault_model: config.fault_model,
            prune: config.prune,
        }
    }

    /// The campaign configuration the broker runs this spec under.
    #[must_use]
    pub fn to_config(&self) -> CampaignConfig {
        CampaignConfig {
            injections: self.injections,
            seed: self.seed,
            instr_budget: self.instr_budget,
            ci_target: self.ci_target,
            batch_size: self.batch_size.max(1),
            checkpoint_interval: self.checkpoint_interval,
            fault_model: self.fault_model,
            prune: self.prune,
            ..CampaignConfig::default()
        }
    }

    /// Scheduling cost in injection units — what the deficit-round-robin
    /// scheduler charges a tenant for running this campaign.
    #[must_use]
    pub fn cost(&self) -> u64 {
        self.injections.max(1)
    }

    fn encode_body(&self, w: &mut WireWriter) {
        self.machine.encode(w);
        self.program.encode(w);
        w.u64(self.injections);
        w.u64(self.seed);
        w.u64(self.instr_budget);
        match self.ci_target {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                w.f64(v);
            }
        }
        w.u64(self.batch_size);
        w.u64(self.checkpoint_interval);
        w.u8(self.fault_model.wire_code());
        w.u8(self.prune.wire_code());
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<CampaignSpec, WireError> {
        let machine = MachineConfig::decode(r)?;
        let program = Program::decode(r)?;
        let injections = r.u64()?;
        let seed = r.u64()?;
        let instr_budget = r.u64()?;
        let ci_target = match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            t => return Err(WireError::BadTag(t)),
        };
        let batch_size = r.u64()?;
        let checkpoint_interval = r.u64()?;
        let model = r.u8()?;
        let fault_model = FaultModel::from_wire_code(model).ok_or(WireError::BadTag(model))?;
        let code = r.u8()?;
        let prune = PruneMode::from_wire_code(code).ok_or(WireError::BadTag(code))?;
        Ok(CampaignSpec {
            machine,
            program,
            injections,
            seed,
            instr_budget,
            ci_target,
            batch_size,
            checkpoint_interval,
            fault_model,
            prune,
        })
    }
}

/// Why the broker refused a submission. Admission control is typed:
/// an over-quota tenant learns exactly which limit it hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant already has its maximum number of campaigns pending.
    QuotaExceeded,
    /// The broker's global queue is full.
    QueueFull,
}

impl RejectReason {
    fn wire_code(self) -> u8 {
        match self {
            RejectReason::QuotaExceeded => 0,
            RejectReason::QueueFull => 1,
        }
    }

    fn from_wire_code(code: u8) -> Result<RejectReason, WireError> {
        match code {
            0 => Ok(RejectReason::QuotaExceeded),
            1 => Ok(RejectReason::QueueFull),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QuotaExceeded => write!(f, "tenant quota exceeded"),
            RejectReason::QueueFull => write!(f, "queue full"),
        }
    }
}

/// Lifecycle phase of a brokered campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CampaignPhase {
    /// Admitted, waiting for a run slot.
    Queued,
    /// Executing on the worker fleet.
    Running,
    /// Completed; the report is durably stored.
    Done,
    /// Failed; the error is durably stored.
    Failed,
}

impl CampaignPhase {
    fn wire_code(self) -> u8 {
        match self {
            CampaignPhase::Queued => 0,
            CampaignPhase::Running => 1,
            CampaignPhase::Done => 2,
            CampaignPhase::Failed => 3,
        }
    }

    fn from_wire_code(code: u8) -> Result<CampaignPhase, WireError> {
        match code {
            0 => Ok(CampaignPhase::Queued),
            1 => Ok(CampaignPhase::Running),
            2 => Ok(CampaignPhase::Done),
            3 => Ok(CampaignPhase::Failed),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl std::fmt::Display for CampaignPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignPhase::Queued => write!(f, "queued"),
            CampaignPhase::Running => write!(f, "running"),
            CampaignPhase::Done => write!(f, "done"),
            CampaignPhase::Failed => write!(f, "failed"),
        }
    }
}

/// One driver-to-broker request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Session opener: the tenant this connection bills to.
    Hello {
        /// Tenant name (the fair-scheduling unit).
        tenant: String,
    },
    /// Submit a campaign for queued, durable execution.
    Submit(Box<CampaignSpec>),
    /// Subscribe to a campaign's progress and final report by id.
    Attach {
        /// The campaign id from `BROKER_ACCEPTED`.
        id: u64,
    },
}

impl Request {
    /// Serializes the request to an enveloped frame payload.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Request::Hello { tenant } => {
                w.envelope(kind::BROKER_HELLO);
                w.str(tenant);
            }
            Request::Submit(spec) => {
                w.envelope(kind::BROKER_SUBMIT);
                spec.encode_body(&mut w);
            }
            Request::Attach { id } => {
                w.envelope(kind::BROKER_ATTACH);
                w.u64(*id);
            }
        }
        w.into_bytes()
    }

    /// Decodes a frame payload written by [`Request::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on envelope mismatch, truncation, or a
    /// non-request frame kind.
    pub fn from_wire(bytes: &[u8]) -> Result<Request, WireError> {
        let mut r = WireReader::new(bytes);
        let req = match r.envelope()? {
            kind::BROKER_HELLO => Request::Hello { tenant: r.str()? },
            kind::BROKER_SUBMIT => Request::Submit(Box::new(CampaignSpec::decode_body(&mut r)?)),
            kind::BROKER_ATTACH => Request::Attach { id: r.u64()? },
            found => {
                return Err(WireError::WrongKind {
                    found,
                    expected: kind::BROKER_SUBMIT,
                })
            }
        };
        r.finish()?;
        Ok(req)
    }
}

/// One broker-to-driver reply. Every variant that concerns a campaign
/// carries its id, so replies for different campaigns can interleave
/// on one connection.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Session accepted; the broker fronts this many workers.
    HelloAck {
        /// Worker fleet size (what a campaign report records).
        workers: u64,
    },
    /// Submission admitted under this durable campaign id.
    Accepted {
        /// The campaign id (monotone, stable across broker restarts).
        id: u64,
    },
    /// Submission refused with a typed reason.
    Rejected {
        /// Which admission limit was hit.
        reason: RejectReason,
        /// Operator-facing detail.
        detail: String,
    },
    /// A campaign's current lifecycle state.
    Status {
        /// The campaign.
        id: u64,
        /// Lifecycle phase.
        phase: CampaignPhase,
        /// Trials dispatched so far.
        trials_done: u64,
    },
    /// A campaign completed; here is its full report.
    Report {
        /// The campaign.
        id: u64,
        /// The completed report, bit-identical to a direct same-seed
        /// run.
        report: Box<CampaignReport>,
    },
    /// A campaign (or the session itself, `id` 0) failed.
    Failed {
        /// The campaign, or 0 for a session-level failure.
        id: u64,
        /// The error text.
        error: String,
    },
}

impl Reply {
    /// Serializes the reply to an enveloped frame payload.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Reply::HelloAck { workers } => {
                w.envelope(kind::BROKER_HELLO_ACK);
                w.u64(*workers);
            }
            Reply::Accepted { id } => {
                w.envelope(kind::BROKER_ACCEPTED);
                w.u64(*id);
            }
            Reply::Rejected { reason, detail } => {
                w.envelope(kind::BROKER_REJECTED);
                w.u8(reason.wire_code());
                w.str(detail);
            }
            Reply::Status {
                id,
                phase,
                trials_done,
            } => {
                w.envelope(kind::BROKER_STATUS);
                w.u64(*id);
                w.u8(phase.wire_code());
                w.u64(*trials_done);
            }
            Reply::Report { id, report } => {
                w.envelope(kind::BROKER_REPORT);
                w.u64(*id);
                report.encode(&mut w);
            }
            Reply::Failed { id, error } => {
                w.envelope(kind::BROKER_FAILED);
                w.u64(*id);
                w.str(error);
            }
        }
        w.into_bytes()
    }

    /// Decodes a frame payload written by [`Reply::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on envelope mismatch, truncation, or a
    /// non-reply frame kind.
    pub fn from_wire(bytes: &[u8]) -> Result<Reply, WireError> {
        let mut r = WireReader::new(bytes);
        let reply = match r.envelope()? {
            kind::BROKER_HELLO_ACK => Reply::HelloAck { workers: r.u64()? },
            kind::BROKER_ACCEPTED => Reply::Accepted { id: r.u64()? },
            kind::BROKER_REJECTED => Reply::Rejected {
                reason: RejectReason::from_wire_code(r.u8()?)?,
                detail: r.str()?,
            },
            kind::BROKER_STATUS => Reply::Status {
                id: r.u64()?,
                phase: CampaignPhase::from_wire_code(r.u8()?)?,
                trials_done: r.u64()?,
            },
            kind::BROKER_REPORT => Reply::Report {
                id: r.u64()?,
                report: Box::new(CampaignReport::decode(&mut r)?),
            },
            kind::BROKER_FAILED => Reply::Failed {
                id: r.u64()?,
                error: r.str()?,
            },
            found => {
                return Err(WireError::WrongKind {
                    found,
                    expected: kind::BROKER_STATUS,
                })
            }
        };
        r.finish()?;
        Ok(reply)
    }
}

/// One record of the broker's durable append-only campaign log.
#[derive(Debug, Clone)]
pub enum LogRecord {
    /// A spec was admitted under `id` for `tenant`.
    Accepted {
        /// Durable campaign id.
        id: u64,
        /// Submitting tenant.
        tenant: String,
        /// The full spec — a restarted broker re-runs from exactly
        /// this, and determinism makes the re-run report identical.
        spec: Box<CampaignSpec>,
    },
    /// A running campaign dispatched trials (progress checkpoint).
    Progress {
        /// Durable campaign id.
        id: u64,
        /// Cumulative trials dispatched.
        trials_done: u64,
    },
    /// A campaign completed with this report (terminal).
    Report {
        /// Durable campaign id.
        id: u64,
        /// The final report.
        report: Box<CampaignReport>,
    },
    /// A campaign failed with this error (terminal).
    Failed {
        /// Durable campaign id.
        id: u64,
        /// The error text.
        error: String,
    },
}

impl LogRecord {
    /// Serializes the record to an enveloped frame payload.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            LogRecord::Accepted { id, tenant, spec } => {
                w.envelope(kind::LOG_ACCEPTED);
                w.u64(*id);
                w.str(tenant);
                spec.encode_body(&mut w);
            }
            LogRecord::Progress { id, trials_done } => {
                w.envelope(kind::LOG_PROGRESS);
                w.u64(*id);
                w.u64(*trials_done);
            }
            LogRecord::Report { id, report } => {
                w.envelope(kind::BROKER_REPORT);
                w.u64(*id);
                report.encode(&mut w);
            }
            LogRecord::Failed { id, error } => {
                w.envelope(kind::BROKER_FAILED);
                w.u64(*id);
                w.str(error);
            }
        }
        w.into_bytes()
    }

    /// Decodes a frame payload written by [`LogRecord::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on envelope mismatch, truncation, or a
    /// non-record frame kind.
    pub fn from_wire(bytes: &[u8]) -> Result<LogRecord, WireError> {
        let mut r = WireReader::new(bytes);
        let record = match r.envelope()? {
            kind::LOG_ACCEPTED => LogRecord::Accepted {
                id: r.u64()?,
                tenant: r.str()?,
                spec: Box::new(CampaignSpec::decode_body(&mut r)?),
            },
            kind::LOG_PROGRESS => LogRecord::Progress {
                id: r.u64()?,
                trials_done: r.u64()?,
            },
            kind::BROKER_REPORT => LogRecord::Report {
                id: r.u64()?,
                report: Box::new(CampaignReport::decode(&mut r)?),
            },
            kind::BROKER_FAILED => LogRecord::Failed {
                id: r.u64()?,
                error: r.str()?,
            },
            found => {
                return Err(WireError::WrongKind {
                    found,
                    expected: kind::LOG_ACCEPTED,
                })
            }
        };
        r.finish()?;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn spec() -> CampaignSpec {
        CampaignSpec {
            machine: MachineConfig::baseline(),
            program: avf_workloads::testkit::idle_loop(),
            injections: 400,
            seed: 11,
            instr_budget: 6_000,
            ci_target: Some(0.14),
            batch_size: 64,
            checkpoint_interval: 0,
            fault_model: FaultModel::default(),
            prune: PruneMode::Off,
        }
    }

    #[test]
    fn spec_round_trips_through_submit() {
        let frame = Request::Submit(Box::new(spec())).to_wire();
        let Request::Submit(back) = Request::from_wire(&frame).unwrap() else {
            panic!("wrong request kind");
        };
        assert_eq!(back.injections, 400);
        assert_eq!(back.seed, 11);
        assert_eq!(back.instr_budget, 6_000);
        assert_eq!(back.ci_target, Some(0.14));
        assert_eq!(back.batch_size, 64);
        assert_eq!(back.fault_model, FaultModel::default());
        assert_eq!(back.prune, PruneMode::Off);
        assert_eq!(back.program.name(), spec().program.name());
        // The round-tripped spec configures the identical campaign.
        let config = back.to_config();
        assert_eq!(config.injections, 400);
        assert_eq!(config.ci_target, Some(0.14));
    }

    #[test]
    fn requests_and_replies_round_trip() {
        let hello = Request::Hello {
            tenant: "team-a".to_owned(),
        };
        match Request::from_wire(&hello.to_wire()).unwrap() {
            Request::Hello { tenant } => assert_eq!(tenant, "team-a"),
            other => panic!("{other:?}"),
        }
        match Request::from_wire(&Request::Attach { id: 9 }.to_wire()).unwrap() {
            Request::Attach { id } => assert_eq!(id, 9),
            other => panic!("{other:?}"),
        }
        match Reply::from_wire(&Reply::HelloAck { workers: 3 }.to_wire()).unwrap() {
            Reply::HelloAck { workers } => assert_eq!(workers, 3),
            other => panic!("{other:?}"),
        }
        match Reply::from_wire(
            &Reply::Rejected {
                reason: RejectReason::QuotaExceeded,
                detail: "16 pending".to_owned(),
            }
            .to_wire(),
        )
        .unwrap()
        {
            Reply::Rejected { reason, detail } => {
                assert_eq!(reason, RejectReason::QuotaExceeded);
                assert!(detail.contains("16"));
            }
            other => panic!("{other:?}"),
        }
        match Reply::from_wire(
            &Reply::Status {
                id: 4,
                phase: CampaignPhase::Running,
                trials_done: 128,
            }
            .to_wire(),
        )
        .unwrap()
        {
            Reply::Status {
                id,
                phase,
                trials_done,
            } => {
                assert_eq!((id, phase, trials_done), (4, CampaignPhase::Running, 128));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn log_records_round_trip() {
        let rec = LogRecord::Accepted {
            id: 7,
            tenant: "t".to_owned(),
            spec: Box::new(spec()),
        };
        match LogRecord::from_wire(&rec.to_wire()).unwrap() {
            LogRecord::Accepted { id, tenant, spec } => {
                assert_eq!(id, 7);
                assert_eq!(tenant, "t");
                assert_eq!(spec.injections, 400);
            }
            other => panic!("{other:?}"),
        }
        match LogRecord::from_wire(
            &LogRecord::Progress {
                id: 7,
                trials_done: 192,
            }
            .to_wire(),
        )
        .unwrap()
        {
            LogRecord::Progress { id, trials_done } => assert_eq!((id, trials_done), (7, 192)),
            other => panic!("{other:?}"),
        }
        match LogRecord::from_wire(
            &LogRecord::Failed {
                id: 8,
                error: "workers unreachable".to_owned(),
            }
            .to_wire(),
        )
        .unwrap()
        {
            LogRecord::Failed { id, error } => {
                assert_eq!(id, 8);
                assert!(error.contains("unreachable"));
            }
            other => panic!("{other:?}"),
        }
    }
}
