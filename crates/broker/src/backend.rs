//! The broker's clients: [`BrokeredBackend`] runs a campaign and
//! [`BrokeredEvaluator`] a GA search through the broker's worker fleet,
//! each over one authenticated connection.
//!
//! Both speak the ordinary worker protocol — the job's [`JobSpec`]
//! setup, batches, events, done; or generations, scores, done —
//! wrapped in `MUX` frames on a persistent broker connection, so
//! [`avf_inject::Campaign::run_on`] and [`avf_ga::optimize`] need no
//! changes: the broker is just another venue. Both run over one MUX
//! client (hello handshake, tag allocation, the end-of-session marker,
//! MUX unwrap with a tag check) that implements
//! [`avf_service::Venue`], so the campaign session is the same
//! [`avf_service::RemoteSession`] and the evaluator the same
//! [`avf_service::RemoteEvaluator`] a direct `--workers` run uses. The
//! MUX client drains its replies with the fleet dispatcher's
//! [`avf_service::fleet::drain`], so every event or score is matched
//! against the trial or genome it answers exactly as on a direct run,
//! and it logs one `broker(<addr>)` dispatch record per batch. The
//! broker relays each batch into its own [`avf_service::Fleet`], which
//! means re-dispatch supervision, cache reuse, and golden-run
//! cross-checking all come from the same dispatcher on the far side.
//! As on every remote path, the fleet workers run the golden pass
//! themselves; the broker relays only the setup and its `JOB_READY`.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;

use avf_ga::{EvalError, FitnessEvaluator};
use avf_inject::{
    BackendError, CampaignBackend, DispatchRecord, JobSpec, OpenedJob, WorkerProvision,
};
use avf_service::fleet::{drain, Drain, Venue, Work};
use avf_service::protocol::{Mux, ServerMessage};
use avf_service::{AuthKey, EvalContext, RemoteEvaluator, RemoteSession};

use crate::client::BrokerConn;
use crate::protocol::Reply;

/// One MUX-tagged session on a broker connection. Dropping it sends the
/// end-of-session marker.
struct MuxSession {
    conn: Arc<BrokerConn>,
    tag: u64,
    /// One record per dispatch, all to the broker: its own fleet does
    /// the sharding and the re-dispatching.
    log: Vec<DispatchRecord>,
}

impl MuxSession {
    /// Opens a session under the connection's next free tag.
    fn open(conn: &Arc<BrokerConn>) -> MuxSession {
        MuxSession {
            conn: Arc::clone(conn),
            tag: conn.next_tag.fetch_add(1, Ordering::Relaxed),
            log: Vec::new(),
        }
    }

    /// The broker as a peer name: `broker(<addr>)`.
    fn peer(&self) -> String {
        format!("broker({})", self.conn.slot.addr)
    }

    fn send(&self, inner: Vec<u8>) -> Result<(), BackendError> {
        self.conn.slot.send(&Mux::wrap(self.tag, inner).to_wire())
    }

    /// Receives the next worker-protocol payload for this tag.
    fn recv(&self, reader: &mut BufReader<TcpStream>) -> Result<Option<Vec<u8>>, BackendError> {
        let Some(payload) = self.conn.slot.recv(reader)? else {
            return Ok(None);
        };
        // A session-level Failed frame (bad hello, auth trouble)
        // surfaces as a typed remote error, not a codec mismatch.
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
        Ok(Some(mux.inner))
    }
}

/// One shard per batch: the broker's own fleet does the sharding. The
/// read half is held for the whole batch; the broker sends nothing else
/// on this session until DONE.
impl Venue for MuxSession {
    fn dispatch<W: Work>(
        &mut self,
        work: &W,
        batch: u64,
        items: Vec<W::Item>,
        tx: &Sender<Result<W::Ack, BackendError>>,
    ) -> Result<(), BackendError> {
        let peer = self.peer();
        self.log.push(DispatchRecord {
            batch,
            worker: peer.clone(),
            trials: items.len() as u64,
            redispatched: false,
        });
        self.send(work.encode(&items))?;
        let mut reader = self.conn.reader.lock().expect("reader lock");
        match drain::<W>(|| self.recv(&mut reader), &peer, &items, tx) {
            Drain::Clean | Drain::ConsumerGone => Ok(()),
            Drain::Dead { error, .. } | Drain::Fatal(error) => Err(error),
        }
    }

    fn log(&self) -> &[DispatchRecord] {
        &self.log
    }
}

impl Drop for MuxSession {
    fn drop(&mut self) {
        // End-of-session marker: an empty MUX payload tells the broker
        // the tag is done, releasing its scheduler slot for the next
        // session on this (persistent) connection. Best-effort — if
        // the connection is gone the broker notices that instead.
        let _ = self.send(Vec::new());
    }
}

/// A campaign backend that executes trials through a broker.
pub struct BrokeredBackend {
    conn: Arc<BrokerConn>,
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
        Ok(BrokeredBackend {
            conn: Arc::new(BrokerConn::connect(addr, tenant, key)?),
        })
    }
}

impl CampaignBackend for BrokeredBackend {
    fn workers(&self) -> usize {
        self.conn.workers as usize
    }

    fn open(&self, spec: JobSpec) -> Result<OpenedJob, BackendError> {
        let mux = MuxSession::open(&self.conn);
        mux.send(spec.to_wire())?;
        let reply = mux.recv(&mut self.conn.reader.lock().expect("reader lock"))?;
        let peer = mux.peer();
        let (ready, source) = ServerMessage::expect_ready(reply, &peer)?;
        // One provision entry per fleet worker, as the broker summarized
        // the fleet's setup.
        let provisioning = (0..self.conn.workers)
            .map(|i| WorkerProvision {
                worker: format!("{peer} worker {i}"),
                source,
            })
            .collect();
        Ok(ready.opened(Box::new(RemoteSession::new(mux)), provisioning))
    }
}

/// A fitness evaluator that scores GA generations through the broker
/// (wire v7): the evaluation analogue of [`BrokeredBackend`].
///
/// One authenticated connection, one MUX tag for the whole search.
/// Each generation becomes one `EVAL_BATCH` relayed by the broker into
/// its own [`avf_service::Fleet`] — so genome-cache affinity and death
/// re-dispatch come from the same dispatcher the direct `--workers`
/// path uses, behind the broker's admission control and fair
/// scheduling.
pub struct BrokeredEvaluator(RemoteEvaluator<MuxSession>);

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
        let conn = Arc::new(BrokerConn::connect(addr, tenant, key)?);
        let mux = MuxSession::open(&conn);
        Ok(BrokeredEvaluator(RemoteEvaluator::over(mux, context)))
    }

    /// Worker-reported cache hits across the search (observability; not
    /// part of the deterministic evaluation count).
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.0.cache_hits()
    }
}

impl FitnessEvaluator for BrokeredEvaluator {
    fn evaluate(&mut self, generation: &[Vec<f64>]) -> Result<Vec<f64>, EvalError> {
        self.0.evaluate(generation)
    }

    fn evaluations(&self) -> u64 {
        self.0.evaluations()
    }
}
