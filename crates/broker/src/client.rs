//! Synchronous driver-side client for the broker's spec path.
//!
//! [`BrokerClient`] speaks the submit/attach plane: it opens the
//! session with a tenant hello, submits [`CampaignSpec`]s for durable
//! queued execution, and waits for (or re-attaches to) their reports.
//! The connection is persistent; Status pushes for every campaign this
//! client submitted or attached to interleave on it and are surfaced
//! through the progress callback of [`BrokerClient::wait_with`].
//!
//! Its connection type is also what the interactive plane's MUX sessions
//! ([`crate::BrokeredBackend`], [`crate::BrokeredEvaluator`]) ride on.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

use avf_inject::{BackendError, CampaignReport};
use avf_service::fleet::Slot;
use avf_service::AuthKey;

use crate::protocol::{CampaignPhase, CampaignSpec, RejectReason, Reply, Request};

/// Why a submission (or wait) did not yield a report.
#[derive(Debug)]
pub enum SubmitError {
    /// The broker refused admission, with a typed reason.
    Rejected {
        /// Which admission limit was hit.
        reason: RejectReason,
        /// Operator-facing detail from the broker.
        detail: String,
    },
    /// The campaign ran and failed, or the transport/protocol broke.
    Backend(BackendError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected { reason, detail } => {
                write!(f, "submission rejected ({reason}): {detail}")
            }
            SubmitError::Backend(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<BackendError> for SubmitError {
    fn from(e: BackendError) -> SubmitError {
        SubmitError::Backend(e)
    }
}

/// One persistent, authenticated broker connection, opened with a
/// tenant hello. The read half is locked: one reader at a time.
pub(crate) struct BrokerConn {
    pub(crate) slot: Slot,
    pub(crate) reader: Mutex<BufReader<TcpStream>>,
    /// Workers the broker fronts, from its hello acknowledgement.
    pub(crate) workers: u64,
    /// The next free MUX session tag.
    pub(crate) next_tag: AtomicU64,
}

impl BrokerConn {
    /// Connects, authenticates, and says hello as `tenant`.
    pub(crate) fn connect(
        addr: &str,
        tenant: &str,
        key: Option<AuthKey>,
    ) -> Result<BrokerConn, BackendError> {
        let slot = Slot::connect(addr, key)?;
        let reader = BufReader::new(slot.stream().try_clone()?);
        let conn = BrokerConn {
            slot,
            reader: Mutex::new(reader),
            workers: 0,
            next_tag: AtomicU64::new(1),
        };
        let hello = Request::Hello {
            tenant: tenant.to_owned(),
        };
        conn.slot.send(&hello.to_wire())?;
        match conn.recv()? {
            Reply::HelloAck { workers: 0 } => Err(BackendError::Protocol(
                "broker fronts no workers".to_owned(),
            )),
            Reply::HelloAck { workers } => Ok(BrokerConn { workers, ..conn }),
            Reply::Failed { error, .. } => Err(BackendError::Remote(error)),
            other => Err(BackendError::Protocol(format!(
                "broker answered hello with {other:?}"
            ))),
        }
    }

    /// The next reply frame.
    fn recv(&self) -> Result<Reply, BackendError> {
        let payload = self
            .slot
            .recv(&mut *self.reader.lock().expect("reader lock"))?
            .ok_or_else(|| BackendError::Disconnected {
                worker: self.slot.addr.clone(),
                detail: "broker closed the connection".to_owned(),
            })?;
        Reply::from_wire(&payload).map_err(BackendError::from)
    }
}

/// A persistent submit/attach connection to one broker.
pub struct BrokerClient {
    conn: BrokerConn,
}

impl BrokerClient {
    /// Connects, authenticates, and opens the session as `tenant`.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, a key mismatch, or a non-hello-ack
    /// first reply.
    pub fn connect(
        addr: &str,
        tenant: &str,
        key: Option<AuthKey>,
    ) -> Result<BrokerClient, BackendError> {
        Ok(BrokerClient {
            conn: BrokerConn::connect(addr, tenant, key)?,
        })
    }

    /// Worker fleet size the broker fronts.
    #[must_use]
    pub fn workers(&self) -> u64 {
        self.conn.workers
    }

    /// Submits a spec for durable queued execution, returning its
    /// campaign id. The connection is auto-attached: a later
    /// [`BrokerClient::wait`] on this client streams the campaign's
    /// progress and report.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Rejected`] on typed admission refusal,
    /// [`SubmitError::Backend`] on transport/protocol failure.
    pub fn submit(&mut self, spec: &CampaignSpec) -> Result<u64, SubmitError> {
        self.conn
            .slot
            .send(&Request::Submit(Box::new(spec.clone())).to_wire())?;
        loop {
            match self.conn.recv()? {
                Reply::Accepted { id } => return Ok(id),
                Reply::Rejected { reason, detail } => {
                    return Err(SubmitError::Rejected { reason, detail })
                }
                // Status/terminal pushes of earlier campaigns on this
                // connection may interleave; they are not the answer.
                Reply::Status { .. } | Reply::Report { .. } => {}
                Reply::Failed { id: 0, error } => {
                    return Err(SubmitError::Backend(BackendError::Remote(error)))
                }
                Reply::Failed { .. } => {}
                other => {
                    return Err(SubmitError::Backend(BackendError::Protocol(format!(
                        "broker answered submit with {other:?}"
                    ))))
                }
            }
        }
    }

    /// Attaches to campaign `id` (submitted by any connection, before
    /// or after a broker restart) and subscribes to its progress.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unknown id.
    pub fn attach(&mut self, id: u64) -> Result<(), BackendError> {
        self.conn.slot.send(&Request::Attach { id }.to_wire())
    }

    /// Blocks until campaign `id` terminates, returning its report.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Backend`] when the campaign failed or the
    /// connection broke.
    pub fn wait(&mut self, id: u64) -> Result<CampaignReport, SubmitError> {
        self.wait_with(id, |_, _| {})
    }

    /// [`BrokerClient::wait`] with a progress callback invoked on every
    /// Status push for `id` (phase, trials dispatched so far).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Backend`] when the campaign failed or the
    /// connection broke.
    pub fn wait_with(
        &mut self,
        id: u64,
        mut progress: impl FnMut(CampaignPhase, u64),
    ) -> Result<CampaignReport, SubmitError> {
        loop {
            match self.conn.recv()? {
                Reply::Status {
                    id: sid,
                    phase,
                    trials_done,
                } if sid == id => progress(phase, trials_done),
                Reply::Report { id: rid, report } if rid == id => return Ok(*report),
                Reply::Failed { id: fid, error } if fid == id || fid == 0 => {
                    return Err(SubmitError::Backend(BackendError::Remote(error)))
                }
                // Frames about other campaigns on this shared
                // connection: not ours, keep draining.
                _ => {}
            }
        }
    }
}
