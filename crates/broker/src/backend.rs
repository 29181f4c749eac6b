//! [`BrokeredBackend`]: run a campaign through the broker's worker
//! fleet over one authenticated connection.
//!
//! The backend speaks the ordinary worker protocol — setup, batches,
//! events, done — wrapped in `MUX` frames on a persistent broker
//! connection, so [`avf_inject::Campaign::run_on`] needs no changes:
//! the broker is just another venue. The broker relays each batch into
//! its own fleet session, which means re-dispatch supervision,
//! StoreCache reuse, and golden-run cross-checking all come from the
//! existing [`avf_service::RemoteBackend`] machinery on the far side.
//! As on every remote path, the fleet workers run the golden pass
//! themselves; the broker relays only the setup and its `JOB_READY`.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use avf_ga::{EvalError, FitnessEvaluator};
use avf_inject::{
    encode_trial_batch, BackendError, CampaignBackend, CampaignSession, DispatchRecord, GoldenSpec,
    JobSpec, OpenedJob, Trial, TrialStream, WorkerProvision,
};
use avf_service::auth::{read_frame_verified, write_frame_signed, AuthKey, ConnectionAuth};
use avf_service::protocol::{JobSetup, Mux, ServerMessage};
use avf_service::{DistinctCounter, EvalBatch, EvalContext, EvalReply};

use crate::protocol::{Reply, Request};

/// Shared state of one brokered connection: a locked write half (so
/// MAC sequence order matches byte order) and a locked read half (one
/// reader at a time — the protocol is strictly request/response per
/// campaign, so batch drains never overlap).
struct Conn {
    addr: String,
    stream: TcpStream,
    reader: Mutex<BufReader<TcpStream>>,
    auth: Option<Arc<ConnectionAuth>>,
}

impl Conn {
    fn send_payload(&self, payload: &[u8]) -> Result<(), BackendError> {
        let mut w = BufWriter::new(&self.stream);
        write_frame_signed(
            &mut w,
            payload,
            self.auth.as_ref().map(|a| a.signer.as_ref()),
        )?;
        w.flush().map_err(BackendError::from)
    }

    fn recv_payload(&self, reader: &mut BufReader<TcpStream>) -> Result<Vec<u8>, BackendError> {
        read_frame_verified(reader, self.auth.as_ref().map(|a| a.verifier.as_ref()))?.ok_or_else(
            || BackendError::Disconnected {
                worker: self.addr.clone(),
                detail: "broker closed the connection".to_owned(),
            },
        )
    }

    /// Receives the next MUX-wrapped worker-protocol message for `tag`.
    fn recv_mux(
        &self,
        reader: &mut BufReader<TcpStream>,
        tag: u64,
    ) -> Result<ServerMessage, BackendError> {
        let payload = self.recv_payload(reader)?;
        // A session-level Failed frame (bad hello, auth trouble)
        // surfaces as a typed remote error, not a codec mismatch.
        if let Ok(Reply::Failed { error, .. }) = Reply::from_wire(&payload) {
            return Err(BackendError::Remote(error));
        }
        let mux = Mux::from_wire(&payload)?;
        if mux.tag != tag {
            return Err(BackendError::Protocol(format!(
                "broker answered on MUX tag {} while tag {tag} was active",
                mux.tag
            )));
        }
        ServerMessage::from_wire(&mux.inner).map_err(BackendError::from)
    }
}

/// A campaign backend that executes trials through a broker.
pub struct BrokeredBackend {
    conn: Arc<Conn>,
    workers: usize,
    next_tag: AtomicU64,
}

impl BrokeredBackend {
    /// Connects to the broker at `addr` and opens the session as
    /// `tenant` (the fair-scheduling unit this campaign bills to).
    ///
    /// # Errors
    ///
    /// Fails on transport errors, a key mismatch, or a broker fronting
    /// zero workers.
    pub fn connect(
        addr: &str,
        tenant: &str,
        key: Option<AuthKey>,
    ) -> Result<BrokeredBackend, BackendError> {
        let (conn, workers) = open_conn(addr, tenant, key)?;
        Ok(BrokeredBackend {
            conn: Arc::new(conn),
            workers,
            next_tag: AtomicU64::new(1),
        })
    }
}

/// Connects, says hello as `tenant`, and returns the live connection
/// plus the broker's advertised worker count.
fn open_conn(
    addr: &str,
    tenant: &str,
    key: Option<AuthKey>,
) -> Result<(Conn, usize), BackendError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| BackendError::Io(format!("connect {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| BackendError::Io(format!("clone stream: {e}")))?,
    );
    let conn = Conn {
        addr: addr.to_owned(),
        stream,
        reader: Mutex::new(reader),
        auth: key.map(|k| Arc::new(ConnectionAuth::client(k))),
    };
    conn.send_payload(
        &Request::Hello {
            tenant: tenant.to_owned(),
        }
        .to_wire(),
    )?;
    let workers = {
        let mut reader = conn.reader.lock().expect("reader lock");
        let payload = conn.recv_payload(&mut reader)?;
        match Reply::from_wire(&payload)? {
            Reply::HelloAck { workers } => workers as usize,
            Reply::Failed { error, .. } => return Err(BackendError::Remote(error)),
            other => {
                return Err(BackendError::Protocol(format!(
                    "broker answered hello with {other:?}"
                )))
            }
        }
    };
    if workers == 0 {
        return Err(BackendError::Protocol(
            "broker fronts no workers".to_owned(),
        ));
    }
    Ok((conn, workers))
}

impl CampaignBackend for BrokeredBackend {
    fn workers(&self) -> usize {
        self.workers
    }

    fn open(&self, spec: JobSpec) -> Result<OpenedJob, BackendError> {
        let GoldenSpec::Delegated {
            checkpoint_interval,
        } = spec.golden
        else {
            return Err(BackendError::Protocol(
                "the broker's fleet runs the golden pass itself; \
                 a resolved golden spec cannot cross the wire"
                    .to_owned(),
            ));
        };
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let setup = JobSetup {
            machine: spec.machine,
            program: spec.program,
            instr_budget: spec.instr_budget,
            fault_model: spec.fault_model,
            prune: spec.prune,
            checkpoint_interval,
        };
        self.conn
            .send_payload(&Mux::wrap(tag, setup.to_wire()).to_wire())?;
        let (ready, source) = {
            let mut reader = self.conn.reader.lock().expect("reader lock");
            match self.conn.recv_mux(&mut reader, tag)? {
                ServerMessage::Ready { ready, source } => (ready, source),
                ServerMessage::Error(msg) => return Err(BackendError::Remote(msg)),
                other => {
                    return Err(BackendError::Protocol(format!(
                        "broker answered setup with {other:?} instead of JOB_READY"
                    )))
                }
            }
        };
        // One provision entry per fleet worker, as the broker summarized
        // the fleet's setup.
        let provisioning = (0..self.workers)
            .map(|i| WorkerProvision {
                worker: format!("broker({}) worker {i}", self.conn.addr),
                source,
            })
            .collect();
        Ok(OpenedJob {
            session: Box::new(BrokeredSession {
                conn: Arc::clone(&self.conn),
                tag,
                log: Arc::new(Mutex::new(Vec::new())),
                batch: 0,
            }),
            golden: ready.golden,
            checkpoints: usize::try_from(ready.checkpoints).unwrap_or(usize::MAX),
            provisioning,
            prune: ready.prune.map(Arc::new),
        })
    }
}

struct BrokeredSession {
    conn: Arc<Conn>,
    tag: u64,
    log: Arc<Mutex<Vec<DispatchRecord>>>,
    batch: u64,
}

impl Drop for BrokeredSession {
    fn drop(&mut self) {
        // End-of-session marker: an empty MUX payload tells the broker
        // the tag is done, releasing its scheduler slot for the next
        // campaign on this (persistent) connection. Best-effort — if
        // the connection is gone the broker notices that instead.
        let _ = self
            .conn
            .send_payload(&Mux::wrap(self.tag, Vec::new()).to_wire());
    }
}

impl CampaignSession for BrokeredSession {
    fn submit(&mut self, trials: &[Trial]) -> Result<TrialStream, BackendError> {
        let batch = self.batch;
        self.batch += 1;
        self.conn
            .send_payload(&Mux::wrap(self.tag, encode_trial_batch(trials)).to_wire())?;
        self.log
            .lock()
            .expect("dispatch log lock")
            .push(DispatchRecord {
                batch,
                worker: format!("broker({})", self.conn.addr),
                trials: trials.len() as u64,
                redispatched: false,
            });
        let (tx, rx) = mpsc::channel();
        let conn = Arc::clone(&self.conn);
        let tag = self.tag;
        let expected = trials.len() as u64;
        let drainer = std::thread::spawn(move || {
            // Hold the read half for the whole batch: the broker sends
            // nothing else on this connection until DONE (the campaign
            // plane is strictly serial per session).
            let mut reader = conn.reader.lock().expect("reader lock");
            let mut seen = 0u64;
            loop {
                match conn.recv_mux(&mut reader, tag) {
                    Ok(ServerMessage::Event(ev)) => {
                        seen += 1;
                        if tx.send(Ok(ev)).is_err() {
                            return; // consumer gone
                        }
                    }
                    Ok(ServerMessage::Done { events }) => {
                        if events != seen || seen != expected {
                            let _ = tx.send(Err(BackendError::Protocol(format!(
                                "broker reported {events} events, streamed {seen}, \
                                 expected {expected}"
                            ))));
                        }
                        return;
                    }
                    Ok(ServerMessage::Error(msg)) => {
                        let _ = tx.send(Err(BackendError::Remote(msg)));
                        return;
                    }
                    Ok(other) => {
                        let _ = tx.send(Err(BackendError::Protocol(format!(
                            "broker sent {other:?} mid-batch"
                        ))));
                        return;
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            }
        });
        Ok(TrialStream::new(rx, vec![drainer]))
    }

    fn dispatch_log(&self) -> Vec<DispatchRecord> {
        self.log.lock().expect("dispatch log lock").clone()
    }
}

/// A fitness evaluator that scores GA generations through the broker
/// (wire v7): the evaluation analogue of [`BrokeredBackend`].
///
/// One authenticated connection, one MUX tag for the whole search.
/// Each generation becomes one `EVAL_BATCH` relayed by the broker into
/// its own [`avf_service::EvalFleet`] against the worker fleet — so
/// genome-cache affinity and death re-dispatch come from the same
/// machinery the direct `--workers` path uses, behind the broker's
/// admission control and fair scheduling.
pub struct BrokeredEvaluator {
    conn: Conn,
    tag: u64,
    context: EvalContext,
    generation: u64,
    distinct: DistinctCounter,
    cache_hits: u64,
}

impl BrokeredEvaluator {
    /// Connects to the broker at `addr` as `tenant` and binds the
    /// session to an evaluation context.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, a key mismatch, or a broker fronting
    /// zero workers.
    pub fn connect(
        addr: &str,
        tenant: &str,
        key: Option<AuthKey>,
        context: EvalContext,
    ) -> Result<BrokeredEvaluator, BackendError> {
        let (conn, _workers) = open_conn(addr, tenant, key)?;
        Ok(BrokeredEvaluator {
            conn,
            tag: 1,
            context,
            generation: 0,
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

    fn exchange(&self, generation: &[Vec<f64>]) -> Result<Vec<(f64, bool)>, BackendError> {
        let batch = EvalBatch {
            context: self.context.clone(),
            generation: self.generation,
            individuals: generation
                .iter()
                .enumerate()
                .map(|(i, genes)| (i as u64, genes.clone()))
                .collect(),
        };
        self.conn
            .send_payload(&Mux::wrap(self.tag, batch.to_wire()).to_wire())?;
        let mut scores: Vec<Option<(f64, bool)>> = vec![None; generation.len()];
        let mut seen = 0u64;
        let mut reader = self.conn.reader.lock().expect("reader lock");
        loop {
            let payload = self.conn.recv_payload(&mut reader)?;
            if let Ok(Reply::Failed { error, .. }) = Reply::from_wire(&payload) {
                return Err(BackendError::Remote(error));
            }
            let mux = Mux::from_wire(&payload)?;
            if mux.tag != self.tag {
                return Err(BackendError::Protocol(format!(
                    "broker answered on MUX tag {} while tag {} was active",
                    mux.tag, self.tag
                )));
            }
            match EvalReply::from_wire(&mux.inner)? {
                EvalReply::Score(score) => {
                    let slot = scores.get_mut(score.index as usize).ok_or_else(|| {
                        BackendError::Protocol(format!(
                            "broker scored individual {} outside the generation",
                            score.index
                        ))
                    })?;
                    if slot.replace((score.score, score.cached)).is_some() {
                        return Err(BackendError::Protocol(format!(
                            "broker scored individual {} twice",
                            score.index
                        )));
                    }
                    seen += 1;
                }
                EvalReply::Done { results } => {
                    if results != seen || scores.iter().any(Option::is_none) {
                        return Err(BackendError::Protocol(format!(
                            "broker reported {results} results, streamed {seen}, \
                             expected {}",
                            scores.len()
                        )));
                    }
                    return Ok(scores.into_iter().map(|s| s.expect("checked")).collect());
                }
                EvalReply::Error(msg) => return Err(BackendError::Remote(msg)),
            }
        }
    }
}

impl Drop for BrokeredEvaluator {
    fn drop(&mut self) {
        // End-of-session marker, as for campaigns: an empty MUX payload
        // releases the broker's scheduler slot.
        let _ = self
            .conn
            .send_payload(&Mux::wrap(self.tag, Vec::new()).to_wire());
    }
}

impl FitnessEvaluator for BrokeredEvaluator {
    fn evaluate(&mut self, generation: &[Vec<f64>]) -> Result<Vec<f64>, EvalError> {
        let scored = self
            .exchange(generation)
            .map_err(|e| EvalError(e.to_string()))?;
        self.generation += 1;
        self.distinct.record(generation);
        self.cache_hits += scored.iter().filter(|(_, cached)| *cached).count() as u64;
        Ok(scored.into_iter().map(|(score, _)| score).collect())
    }

    fn evaluations(&self) -> u64 {
        self.distinct.count()
    }
}
