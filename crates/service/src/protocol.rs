//! Campaign service message schema on top of [`crate::frame`].
//!
//! One connection carries one campaign session:
//!
//! ```text
//! client → server   JOB_SETUP    (the JobSpec: machine, program, budget, model, prune, interval)
//! server → client   JOB_READY    (job key + golden run + checkpoint count + cache provenance)
//! client → server   TRIAL_BATCH  (one adaptive batch of planned trials)
//! server → client   TRIAL_EVENT* (one per trial, streamed as classified)
//! server → client   BATCH_DONE   (event count for the batch, a sanity check)
//! client → server   TRIAL_BATCH  ... (repeat until the driver converges)
//! client closes the connection   (clean end of session)
//! server → client   SERVICE_ERROR (any time: fatal, connection closes)
//! ```
//!
//! Setup is one request and one reply. The request is the driver's
//! [`JobSpec`] itself ([`JobSpec::to_wire`]): the job has no second,
//! wire-only type. The worker looks the job up by its key
//! ([`delegated_job_key`] over the spec's fields) in its bounded LRU
//! ([`crate::cache::StoreCache`]); on a miss it runs the golden pass
//! itself. Either way it answers `JOB_READY`, and a driver fanning one
//! job across N workers cross-checks that every [`JobReady`] is
//! identical — golden-run divergence between workers is a hard protocol
//! error. Whether the worker's cache held the job travels beside the
//! `JobReady`, not inside it, so workers in different cache states
//! still agree.
//!
//! Every payload opens with the [`avf_isa::wire`] envelope, so a stale
//! worker build or a foreign peer fails with a typed magic/version
//! error instead of a confusing mid-payload decode failure.

use std::sync::Arc;

use avf_inject::{
    decode_trial_batch, BackendError, CampaignSession, JobSpec, OpenedJob, StoreSource, Trial,
    TrialEvent, WorkerProvision,
};
use avf_isa::wire::{content_hash64, kind, WireError, WireReader, WireWriter};
use avf_isa::Program;
use avf_prune::PruneMap;
use avf_sim::{GoldenRun, MachineConfig};

fn encode_golden(w: &mut WireWriter, golden: &GoldenRun) {
    w.u64(golden.cycles);
    w.u64(golden.committed);
    w.u64(golden.digest);
}

fn decode_golden(r: &mut WireReader<'_>) -> Result<GoldenRun, WireError> {
    Ok(GoldenRun {
        cycles: r.u64()?,
        committed: r.u64()?,
        digest: r.u64()?,
    })
}

/// Hash domain of job parameters (the worker cache key). Domain 0
/// hashed driver-shipped stores until wire v8.
pub const HASH_DOMAIN_DELEGATED_JOB: u8 = 1;

/// Hash domain of a job's machine/program geometry fingerprint (guards
/// the checkpoint cache against serving snapshots captured on a
/// different configuration).
pub const HASH_DOMAIN_GEOMETRY: u8 = 2;

/// Hash domain of fitness-evaluation content (wire v7): the evaluation
/// context fingerprint and the genome routing/logging key — the two
/// halves of a worker's [`crate::EvalCache`] key.
pub const HASH_DOMAIN_EVAL: u8 = 3;

/// Fingerprint of the machine/program pair cached checkpoints are only
/// valid for.
#[must_use]
pub fn geometry_fingerprint(machine: &MachineConfig, program: &Program) -> u64 {
    let mut w = WireWriter::new();
    machine.encode(&mut w);
    program.encode(&mut w);
    content_hash64(HASH_DOMAIN_GEOMETRY, &w.into_bytes())
}

/// The worker's end-of-setup report: which job it is running and the
/// golden run it resolved.
///
/// `Eq` is load-bearing: a driver fanning one job over N workers
/// compares their `JobReady`s bit-for-bit, so when workers build prune
/// maps independently the cross-check covers the maps too. It therefore
/// holds nothing that may legitimately differ between workers, such as
/// their cache state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReady {
    /// Cache key the worker stored/found the job under.
    pub store_hash: u64,
    /// The fault-free reference run.
    pub golden: GoldenRun,
    /// Checkpoints in the store.
    pub checkpoints: u64,
    /// The prune map the worker built during its golden pass with
    /// pruning requested (wire v5); `None` otherwise. Masses are
    /// recomputed at decode, never trusted from the wire.
    pub prune: Option<PruneMap>,
}

impl JobReady {
    /// The opened job a client hands the campaign driver once `session`
    /// is bound to this ready and each worker's `provisioning` is known.
    #[must_use]
    pub fn opened(
        self,
        session: Box<dyn CampaignSession>,
        provisioning: Vec<WorkerProvision>,
    ) -> OpenedJob {
        OpenedJob {
            session,
            golden: self.golden,
            checkpoints: usize::try_from(self.checkpoints).unwrap_or(usize::MAX),
            provisioning,
            prune: self.prune.map(Arc::new),
        }
    }
}

/// One client-to-server message.
#[derive(Debug, Clone)]
pub enum ClientMessage {
    /// Open a campaign session (boxed: a job dwarfs the other variants
    /// and would bloat every message otherwise).
    Setup(Box<JobSpec>),
    /// One batch of planned trials.
    Batch(Vec<Trial>),
}

impl ClientMessage {
    /// Decodes a frame payload written by one of the client-side
    /// encoders ([`JobSpec::to_wire`],
    /// [`avf_inject::encode_trial_batch`]).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on envelope mismatch, truncation, or an
    /// unexpected frame kind.
    pub fn from_wire(bytes: &[u8]) -> Result<ClientMessage, WireError> {
        let mut r = WireReader::new(bytes);
        match r.envelope()? {
            kind::JOB_SETUP => {
                let spec = JobSpec::decode_body(&mut r)?;
                r.finish()?;
                Ok(ClientMessage::Setup(Box::new(spec)))
            }
            kind::TRIAL_BATCH => Ok(ClientMessage::Batch(decode_trial_batch(bytes)?)),
            found => Err(WireError::WrongKind {
                found,
                expected: kind::JOB_SETUP,
            }),
        }
    }
}

/// One server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMessage {
    /// Job setup is complete; trial batches may flow.
    Ready {
        /// What the worker resolved (cross-checked across workers).
        ready: JobReady,
        /// Whether the worker's cache held the job or it ran the
        /// golden pass (per worker; never cross-checked).
        source: StoreSource,
    },
    /// A classified trial outcome.
    Event(TrialEvent),
    /// The current batch is complete; `events` outcomes were streamed.
    Done {
        /// Number of events the server sent for the batch.
        events: u64,
    },
    /// The server hit a fatal error; the connection is closing.
    Error(String),
}

impl ServerMessage {
    /// `peer`'s answer to a setup frame (`None` when it hung up), which
    /// must be its `JOB_READY`.
    ///
    /// # Errors
    ///
    /// A disconnection, the peer's reported error, or a codec or
    /// protocol error.
    pub fn expect_ready(
        reply: Option<Vec<u8>>,
        peer: &str,
    ) -> Result<(JobReady, StoreSource), BackendError> {
        let reply = reply.ok_or_else(|| BackendError::Disconnected {
            worker: peer.to_owned(),
            detail: "connection closed during setup".to_owned(),
        })?;
        match ServerMessage::from_wire(&reply)? {
            ServerMessage::Ready { ready, source } => Ok((ready, source)),
            ServerMessage::Error(msg) => Err(BackendError::Remote(msg)),
            other => Err(BackendError::Protocol(format!(
                "{peer} answered setup with {other:?} instead of JOB_READY"
            ))),
        }
    }

    /// Serializes the message to an enveloped frame payload.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        match self {
            ServerMessage::Event(ev) => ev.to_wire(),
            ServerMessage::Ready { ready, source } => {
                let mut w = WireWriter::new();
                w.envelope(kind::JOB_READY);
                w.u8(source.wire_code());
                w.u64(ready.store_hash);
                encode_golden(&mut w, &ready.golden);
                w.u64(ready.checkpoints);
                match &ready.prune {
                    None => w.u8(0),
                    Some(map) => {
                        w.u8(1);
                        map.encode(&mut w);
                    }
                }
                w.into_bytes()
            }
            ServerMessage::Done { events } => {
                let mut w = WireWriter::new();
                w.envelope(kind::BATCH_DONE);
                w.u64(*events);
                w.into_bytes()
            }
            ServerMessage::Error(msg) => {
                let mut w = WireWriter::new();
                w.envelope(kind::SERVICE_ERROR);
                w.str(msg);
                w.into_bytes()
            }
        }
    }

    /// Decodes a frame payload written by [`ServerMessage::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on envelope mismatch, truncation, or an
    /// unexpected frame kind.
    pub fn from_wire(bytes: &[u8]) -> Result<ServerMessage, WireError> {
        let mut r = WireReader::new(bytes);
        let msg = match r.envelope()? {
            kind::TRIAL_EVENT => ServerMessage::Event(TrialEvent::decode_body(&mut r)?),
            kind::JOB_READY => {
                let code = r.u8()?;
                let source = StoreSource::from_wire_code(code).ok_or(WireError::BadTag(code))?;
                let store_hash = r.u64()?;
                let golden = decode_golden(&mut r)?;
                let checkpoints = r.u64()?;
                let prune = match r.u8()? {
                    0 => None,
                    1 => Some(PruneMap::decode(&mut r)?),
                    t => return Err(WireError::BadTag(t)),
                };
                ServerMessage::Ready {
                    ready: JobReady {
                        store_hash,
                        golden,
                        checkpoints,
                        prune,
                    },
                    source,
                }
            }
            kind::BATCH_DONE => ServerMessage::Done { events: r.u64()? },
            kind::SERVICE_ERROR => ServerMessage::Error(r.str()?),
            found => {
                return Err(WireError::WrongKind {
                    found,
                    expected: kind::TRIAL_EVENT,
                })
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

/// The cache key of a job (a worker-side golden run): a content
/// hash over the job's defining parameters. Two jobs with the same key
/// provably produce the same store and golden run — the golden pass is
/// a deterministic function of exactly these inputs.
#[must_use]
pub fn delegated_job_key(
    machine: &MachineConfig,
    program: &Program,
    instr_budget: u64,
    checkpoint_interval: u64,
) -> u64 {
    let mut w = WireWriter::new();
    machine.encode(&mut w);
    program.encode(&mut w);
    w.u64(instr_budget);
    w.u64(checkpoint_interval);
    content_hash64(HASH_DOMAIN_DELEGATED_JOB, &w.into_bytes())
}

/// A campaign-tagged frame: one inner protocol frame multiplexed onto a
/// shared connection (wire v6).
///
/// A broker connection is persistent and carries many campaigns — the
/// tag scopes every inner frame to one of them, so two tenants' (or one
/// tenant's two concurrent campaigns') setup/batch/event frames can
/// interleave on one socket without ambiguity. The tag is
/// connection-local: the side opening a campaign picks it, and both
/// sides echo it on every frame belonging to that campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mux {
    /// Connection-local campaign tag.
    pub tag: u64,
    /// The complete inner frame payload (itself enveloped).
    pub inner: Vec<u8>,
}

impl Mux {
    /// Wraps an inner frame payload under `tag`.
    #[must_use]
    pub fn wrap(tag: u64, inner: Vec<u8>) -> Mux {
        Mux { tag, inner }
    }

    /// Serializes the multiplexed frame to an enveloped payload.
    #[must_use]
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.envelope(kind::MUX);
        w.u64(self.tag);
        w.u32(u32::try_from(self.inner.len()).expect("inner frame exceeds u32 length"));
        w.bytes(&self.inner);
        w.into_bytes()
    }

    /// Decodes a frame payload written by [`Mux::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on envelope mismatch, truncation, or a
    /// non-MUX frame kind.
    pub fn from_wire(bytes: &[u8]) -> Result<Mux, WireError> {
        let mut r = WireReader::new(bytes);
        match r.envelope()? {
            kind::MUX => {}
            found => {
                return Err(WireError::WrongKind {
                    found,
                    expected: kind::MUX,
                })
            }
        }
        let tag = r.u64()?;
        let len = r.u32()? as usize;
        let inner = r.bytes(len)?.to_vec();
        r.finish()?;
        Ok(Mux { tag, inner })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avf_inject::Outcome;
    use avf_sim::{FaultModel, InjectionTarget};

    fn golden() -> GoldenRun {
        GoldenRun {
            cycles: 12_345,
            committed: 9_876,
            digest: 0xDEAD_BEEF_CAFE_F00D,
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let msgs = [
            ServerMessage::Event(TrialEvent {
                index: 42,
                target: InjectionTarget::Iq,
                outcome: Outcome::Sdc,
            }),
            ServerMessage::Ready {
                ready: JobReady {
                    store_hash: 99,
                    golden: golden(),
                    checkpoints: 12,
                    prune: None,
                },
                source: StoreSource::Cached,
            },
            ServerMessage::Done { events: 128 },
            ServerMessage::Error("checkpoint store rejected".to_owned()),
        ];
        for msg in msgs {
            assert_eq!(ServerMessage::from_wire(&msg.to_wire()).unwrap(), msg);
        }
    }

    #[test]
    fn job_ready_carries_the_prune_map_bit_identically() {
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        let (run, _, evidence) =
            avf_sim::golden_run_with_evidence(&machine, &program, 600, 128, avf_sim::PRUNE_WINDOW);
        let map = PruneMap::build(&machine, &program, FaultModel::Replay, &evidence);
        let msg = ServerMessage::Ready {
            ready: JobReady {
                store_hash: 0xC0FFEE,
                golden: run,
                checkpoints: 3,
                prune: Some(map),
            },
            source: StoreSource::GoldenRun,
        };
        let back = ServerMessage::from_wire(&msg.to_wire()).unwrap();
        assert_eq!(back, msg, "map equality over the wire is exact");
    }

    #[test]
    fn job_setup_round_trips_in_both_modes() {
        // Both prune modes: off and on.
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        for prune in [false, true] {
            let setup = JobSpec {
                machine: machine.clone(),
                program: program.clone(),
                instr_budget: 4_000,
                fault_model: FaultModel::Trap,
                prune,
                checkpoint_interval: 512,
            };
            let bytes = setup.to_wire();
            let key = |job: &JobSpec| {
                delegated_job_key(
                    &job.machine,
                    &job.program,
                    job.instr_budget,
                    job.checkpoint_interval,
                )
            };
            match ClientMessage::from_wire(&bytes).unwrap() {
                ClientMessage::Setup(back) => {
                    assert_eq!(back.instr_budget, setup.instr_budget);
                    assert_eq!(back.fault_model, setup.fault_model);
                    assert_eq!(back.prune, setup.prune);
                    assert_eq!(back.checkpoint_interval, setup.checkpoint_interval);
                    assert_eq!(key(&back), key(&setup));
                }
                other => panic!("expected a setup, got {other:?}"),
            }
        }
    }

    #[test]
    fn delegated_zero_interval_is_rejected_at_decode() {
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        let mut w = WireWriter::new();
        w.envelope(kind::JOB_SETUP);
        machine.encode(&mut w);
        program.encode(&mut w);
        w.u64(1_000);
        w.u8(FaultModel::Replay.wire_code());
        w.u8(0); // prune off
        w.u64(0); // zero interval: the golden pass would never checkpoint
        assert_eq!(
            ClientMessage::from_wire(&w.into_bytes()).map(|_| ()),
            Err(WireError::Invalid("checkpoint interval must be positive"))
        );
    }

    #[test]
    fn delegated_job_key_tracks_every_parameter() {
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        let base = delegated_job_key(&machine, &program, 1_000, 256);
        assert_eq!(base, delegated_job_key(&machine, &program, 1_000, 256));
        assert_ne!(base, delegated_job_key(&machine, &program, 1_001, 256));
        assert_ne!(base, delegated_job_key(&machine, &program, 1_000, 257));
        assert_ne!(
            base,
            delegated_job_key(&MachineConfig::config_a(), &program, 1_000, 256)
        );
    }

    #[test]
    fn foreign_and_stale_payloads_fail_typed() {
        assert!(matches!(
            ServerMessage::from_wire(&[0u8; 16]),
            Err(WireError::BadMagic(_))
        ));
        // A payload from a build speaking a different format version.
        let mut stale = Vec::from(avf_isa::wire::WIRE_MAGIC);
        stale.push(avf_isa::wire::WIRE_VERSION + 3);
        stale.push(kind::BATCH_DONE);
        stale.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            ServerMessage::from_wire(&stale),
            Err(WireError::UnsupportedVersion {
                found: avf_isa::wire::WIRE_VERSION + 3,
                expected: avf_isa::wire::WIRE_VERSION,
            })
        );
        // A pre-eval v6 build talking to this v8 build fails with the
        // typed version error at the envelope — long before the decoder
        // could misinterpret frame kinds it does not know.
        let mut v6 = Vec::from(avf_isa::wire::WIRE_MAGIC);
        v6.push(6);
        v6.push(kind::JOB_READY);
        v6.extend_from_slice(&[0u8; 48]);
        assert_eq!(
            ServerMessage::from_wire(&v6),
            Err(WireError::UnsupportedVersion {
                found: 6,
                expected: 8,
            })
        );
        // A client-side frame kind arriving where a server message belongs.
        let batch = avf_inject::encode_trial_batch(&[]);
        assert!(matches!(
            ServerMessage::from_wire(&batch),
            Err(WireError::WrongKind { .. })
        ));
        // And a server frame where a client message belongs.
        let done = ServerMessage::Done { events: 0 }.to_wire();
        assert!(matches!(
            ClientMessage::from_wire(&done),
            Err(WireError::WrongKind { .. })
        ));
    }

    #[test]
    fn mux_frames_round_trip_and_reject_wrong_kinds() {
        let inner = ServerMessage::Done { events: 3 }.to_wire();
        let mux = Mux::wrap(0xFEED, inner.clone());
        let decoded = Mux::from_wire(&mux.to_wire()).unwrap();
        assert_eq!(decoded, mux);
        // The inner payload is a complete frame in its own right.
        assert_eq!(
            ServerMessage::from_wire(&decoded.inner).unwrap(),
            ServerMessage::Done { events: 3 }
        );
        // An unwrapped frame where a MUX frame belongs fails typed.
        assert!(matches!(
            Mux::from_wire(&inner),
            Err(WireError::WrongKind { .. })
        ));
        // A truncated MUX frame fails typed, not by panicking.
        let whole = mux.to_wire();
        assert!(matches!(
            Mux::from_wire(&whole[..whole.len() - 2]),
            Err(WireError::Truncated)
        ));
    }
}
