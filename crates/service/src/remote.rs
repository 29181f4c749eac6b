//! [`RemoteBackend`]: the TCP client side of the campaign service.
//!
//! One backend fans a campaign out over one or more `serve` workers.
//! `open` sends the same setup frame to every worker *in parallel*;
//! each worker runs (or cache-hits) the golden pass and answers
//! `JOB_READY`. The driver then cross-checks that all workers resolved
//! the *identical* golden run; divergence is a hard protocol error,
//! because a worker disagreeing about the fault-free reference would
//! silently corrupt every classification it returns.
//!
//! `submit` strides the batch's cycle-sorted trials across live
//! workers and merges their event streams into one [`TrialStream`].
//! A worker whose connection dies mid-batch does **not** kill the
//! campaign: the supervisor collects the trials that worker never
//! acknowledged and re-dispatches them to the survivors. Because every
//! trial's outcome is a pure function of the trial itself (sampled
//! from `(seed, batch, index)`), the merged result — and therefore the
//! final `CampaignReport` — is bit-identical to the fault-free run;
//! only the dispatch trajectory records that the failure happened.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use avf_inject::{
    encode_trial_batch, shard_trials, BackendError, CampaignBackend, CampaignSession,
    DispatchRecord, GoldenSpec, JobSpec, OpenedJob, StoreSource, Trial, TrialEvent, TrialStream,
    WorkerProvision,
};

use crate::auth::{read_frame_verified, write_frame_signed, AuthKey, ConnectionAuth};
use crate::protocol::{JobReady, JobSetup, ServerMessage};

/// A campaign backend executing trials on remote `serve` workers.
pub struct RemoteBackend {
    addrs: Vec<String>,
    auth: Option<AuthKey>,
}

impl RemoteBackend {
    /// A backend over one or more worker addresses (`host:port`).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty — a remote backend with no workers
    /// cannot execute anything.
    #[must_use]
    pub fn new(addrs: Vec<String>) -> RemoteBackend {
        assert!(
            !addrs.is_empty(),
            "remote backend needs at least one worker"
        );
        RemoteBackend { addrs, auth: None }
    }

    /// [`RemoteBackend::new`] with frame authentication: every frame
    /// to and from every worker carries a keyed tag under `key`, and
    /// every received frame must verify (the workers must be running
    /// with the same `--auth-key-file`).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    #[must_use]
    pub fn with_auth(addrs: Vec<String>, key: AuthKey) -> RemoteBackend {
        let mut backend = RemoteBackend::new(addrs);
        backend.auth = Some(key);
        backend
    }

    /// The configured worker addresses.
    #[must_use]
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }
}

/// Every worker must report the same setup result; any divergence is a
/// correctness emergency, not a tolerable degradation.
fn cross_check_ready(readys: &[(String, JobReady)]) -> Result<(), BackendError> {
    let (first_addr, reference) = &readys[0];
    for (addr, ready) in &readys[1..] {
        if ready != reference {
            return Err(BackendError::Protocol(format!(
                "golden-run divergence between workers: {first_addr} reports \
                 digest {:016x} / {} cycles / store {:016x}, {addr} reports \
                 digest {:016x} / {} cycles / store {:016x}",
                reference.golden.digest,
                reference.golden.cycles,
                reference.store_hash,
                ready.golden.digest,
                ready.golden.cycles,
                ready.store_hash,
            )));
        }
    }
    Ok(())
}

/// One worker's completed setup: its live connection plus what it
/// reported.
struct OpenedWorker {
    stream: TcpStream,
    auth: Option<Arc<ConnectionAuth>>,
    ready: JobReady,
    source: StoreSource,
}

/// Sends the setup frame to one worker and reads its `JOB_READY`.
fn open_worker(
    addr: &str,
    setup_frame: &[u8],
    key: Option<AuthKey>,
) -> Result<OpenedWorker, BackendError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| BackendError::Io(format!("connect {addr}: {e}")))?;
    // Event frames are tiny; don't let Nagle batch them up.
    let _ = stream.set_nodelay(true);
    let auth = key.map(|k| Arc::new(ConnectionAuth::client(k)));
    let mut w = BufWriter::new(&stream);
    write_frame_signed(
        &mut w,
        setup_frame,
        auth.as_ref().map(|a| a.signer.as_ref()),
    )?;
    w.flush().map_err(BackendError::from)?;
    drop(w);

    // A worker that hangs up during setup is a failed open, not EOF.
    let mut r = BufReader::new(&stream);
    let reply = read_frame_verified(&mut r, auth.as_ref().map(|a| a.verifier.as_ref()))?
        .ok_or_else(|| BackendError::Disconnected {
            worker: addr.to_owned(),
            detail: "connection closed during setup".to_owned(),
        })?;
    let (ready, source) = match ServerMessage::from_wire(&reply)? {
        ServerMessage::Ready { ready, source } => (ready, source),
        ServerMessage::Error(msg) => return Err(BackendError::Remote(msg)),
        other => {
            return Err(BackendError::Protocol(format!(
                "worker {addr} answered setup with {other:?} instead of JOB_READY"
            )))
        }
    };
    // The server sends nothing after JOB_READY until our next batch
    // frame, so dropping the BufReader here cannot strand reply bytes.
    drop(r);
    Ok(OpenedWorker {
        stream,
        auth,
        ready,
        source,
    })
}

impl CampaignBackend for RemoteBackend {
    fn workers(&self) -> usize {
        self.addrs.len()
    }

    fn open(&self, spec: JobSpec) -> Result<OpenedJob, BackendError> {
        let GoldenSpec::Delegated {
            checkpoint_interval,
        } = spec.golden
        else {
            return Err(BackendError::Protocol(
                "remote workers run the golden pass themselves; \
                 a resolved golden spec cannot cross the wire"
                    .to_owned(),
            ));
        };
        // Serialize the setup once; every worker receives the identical
        // bytes.
        let setup_frame = Arc::new(
            JobSetup {
                machine: spec.machine,
                program: spec.program,
                instr_budget: spec.instr_budget,
                fault_model: spec.fault_model,
                prune: spec.prune,
                checkpoint_interval,
            }
            .to_wire(),
        );

        // N workers run their golden passes in parallel.
        let handles: Vec<_> = self
            .addrs
            .iter()
            .map(|addr| {
                let addr = addr.clone();
                let setup_frame = Arc::clone(&setup_frame);
                let key = self.auth;
                std::thread::spawn(move || open_worker(&addr, &setup_frame, key))
            })
            .collect();
        let mut workers = Vec::with_capacity(self.addrs.len());
        let mut readys = Vec::with_capacity(self.addrs.len());
        let mut provisioning = Vec::with_capacity(self.addrs.len());
        for (handle, addr) in handles.into_iter().zip(&self.addrs) {
            let opened = handle.join().expect("setup thread panicked")?;
            workers.push(RemoteWorker {
                addr: addr.clone(),
                stream: Some(opened.stream),
                auth: opened.auth,
            });
            readys.push((addr.clone(), opened.ready));
            provisioning.push(WorkerProvision {
                worker: addr.clone(),
                source: opened.source,
            });
        }
        cross_check_ready(&readys)?;
        // Cross-check passed: every worker reported this identical
        // ready, prune map included — adopting worker 0's is adopting
        // all of them.
        let ready = readys.swap_remove(0).1;
        Ok(OpenedJob {
            session: Box::new(RemoteSession {
                workers: Arc::new(Mutex::new(workers)),
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

struct RemoteWorker {
    addr: String,
    /// `None` once the connection died; the slot stays so worker
    /// indices remain stable across batches.
    stream: Option<TcpStream>,
    /// This connection's frame-auth state (sequence counters live for
    /// the connection's whole life, shared between the dispatching
    /// writer and the draining reader thread). `None` on a plain
    /// backend.
    auth: Option<Arc<ConnectionAuth>>,
}

struct RemoteSession {
    workers: Arc<Mutex<Vec<RemoteWorker>>>,
    log: Arc<Mutex<Vec<DispatchRecord>>>,
    batch: u64,
}

impl CampaignSession for RemoteSession {
    fn submit(&mut self, trials: &[Trial]) -> Result<TrialStream, BackendError> {
        let batch = self.batch;
        self.batch += 1;
        let (tx, rx) = mpsc::channel();
        let workers = Arc::clone(&self.workers);
        let log = Arc::clone(&self.log);
        let trials = trials.to_vec();
        // The supervisor owns the whole batch: it dispatches shards,
        // re-queues the unacknowledged trials of dead workers, and
        // terminates the stream when every trial is accounted for. The
        // driver just drains events.
        let supervisor = std::thread::spawn(move || {
            supervise_batch(&workers, &log, batch, trials, &tx);
        });
        Ok(TrialStream::new(rx, vec![supervisor]))
    }

    fn dispatch_log(&self) -> Vec<DispatchRecord> {
        self.log.lock().expect("dispatch log lock").clone()
    }
}

/// What one shard's reader observed.
enum ShardFate {
    /// Every trial acknowledged, DONE checked out.
    Clean,
    /// The driver dropped the stream; stop everything quietly.
    ConsumerGone,
    /// The connection died; `leftover` never got an event and must be
    /// re-dispatched.
    Dead {
        leftover: Vec<Trial>,
        error: BackendError,
    },
    /// A non-retryable failure (worker-reported error, protocol or
    /// codec violation).
    Fatal(BackendError),
}

/// Dispatch/re-dispatch loop for one batch.
fn supervise_batch(
    workers: &Mutex<Vec<RemoteWorker>>,
    log: &Mutex<Vec<DispatchRecord>>,
    batch: u64,
    mut pending: Vec<Trial>,
    tx: &mpsc::Sender<Result<TrialEvent, BackendError>>,
) {
    let mut redispatched = false;
    let mut last_disconnect: Option<BackendError> = None;
    while !pending.is_empty() {
        // Round: write one shard per live worker, remembering shards
        // whose write already failed (those re-queue immediately).
        let mut round = Vec::new();
        let mut deferred: Vec<Trial> = Vec::new();
        {
            let mut ws = workers.lock().expect("workers lock");
            let live: Vec<usize> = ws
                .iter()
                .enumerate()
                .filter(|(_, w)| w.stream.is_some())
                .map(|(i, _)| i)
                .collect();
            if live.is_empty() {
                let err = last_disconnect
                    .take()
                    .unwrap_or_else(|| BackendError::Disconnected {
                        worker: "all".to_owned(),
                        detail: "no live worker remains to dispatch trials to".to_owned(),
                    });
                let _ = tx.send(Err(err));
                return;
            }
            for (k, shard) in shard_trials(&pending, live.len()).into_iter().enumerate() {
                if shard.is_empty() {
                    continue;
                }
                let worker = &mut ws[live[k]];
                let frame = encode_trial_batch(&shard);
                let dispatched = {
                    let stream = worker.stream.as_ref().expect("live worker");
                    let mut w = BufWriter::new(stream);
                    write_frame_signed(
                        &mut w,
                        &frame,
                        worker.auth.as_ref().map(|a| a.signer.as_ref()),
                    )
                    .and_then(|()| w.flush().map_err(BackendError::from))
                    .and_then(|()| {
                        stream
                            .try_clone()
                            .map_err(|e| BackendError::Io(format!("clone stream: {e}")))
                    })
                };
                match dispatched {
                    Ok(reader) => {
                        log.lock().expect("dispatch log lock").push(DispatchRecord {
                            batch,
                            worker: worker.addr.clone(),
                            trials: shard.len() as u64,
                            redispatched,
                        });
                        round.push((
                            live[k],
                            worker.addr.clone(),
                            shard,
                            reader,
                            worker.auth.clone(),
                        ));
                    }
                    Err(e) => {
                        last_disconnect = Some(BackendError::Disconnected {
                            worker: worker.addr.clone(),
                            detail: e.to_string(),
                        });
                        worker.stream = None;
                        deferred.extend(shard);
                    }
                }
            }
        }

        // Drain every dispatched shard concurrently; join the round
        // before deciding on re-dispatch so survivors are never written
        // to while their reader is mid-stream.
        let handles: Vec<_> = round
            .into_iter()
            .map(|(wi, addr, shard, reader, auth)| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    (wi, drain_shard(reader, &addr, shard, auth.as_deref(), &tx))
                })
            })
            .collect();
        let mut fatal: Option<BackendError> = None;
        let mut consumer_gone = false;
        for handle in handles {
            let (wi, fate) = match handle.join() {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            match fate {
                ShardFate::Clean => {}
                ShardFate::ConsumerGone => consumer_gone = true,
                ShardFate::Dead { leftover, error } => {
                    workers.lock().expect("workers lock")[wi].stream = None;
                    last_disconnect = Some(error);
                    deferred.extend(leftover);
                }
                ShardFate::Fatal(e) => fatal = fatal.or(Some(e)),
            }
        }
        if consumer_gone {
            return;
        }
        if let Some(e) = fatal {
            let _ = tx.send(Err(e));
            return;
        }
        pending = deferred;
        redispatched = true;
    }
}

/// Forwards one worker's event stream for one shard into `tx`,
/// tracking which trials the worker acknowledged so a dead connection
/// can hand the remainder back for re-dispatch.
fn drain_shard(
    stream: TcpStream,
    addr: &str,
    shard: Vec<Trial>,
    auth: Option<&ConnectionAuth>,
    tx: &mpsc::Sender<Result<TrialEvent, BackendError>>,
) -> ShardFate {
    let mut outstanding: HashMap<u64, usize> = shard
        .iter()
        .enumerate()
        .map(|(p, t)| (t.index, p))
        .collect();
    let disconnected = |outstanding: &HashMap<u64, usize>, detail: String| {
        // Re-queue in shard (cycle-sorted) order: determinism does not
        // need it, but it keeps re-dispatched shards as cheap to
        // execute as the originals.
        let mut positions: Vec<usize> = outstanding.values().copied().collect();
        positions.sort_unstable();
        ShardFate::Dead {
            leftover: positions.into_iter().map(|p| shard[p]).collect(),
            error: BackendError::Disconnected {
                worker: addr.to_owned(),
                detail,
            },
        }
    };
    let mut reader = BufReader::new(stream);
    let expected = shard.len() as u64;
    let mut seen = 0u64;
    loop {
        let payload = match read_frame_verified(&mut reader, auth.map(|a| a.verifier.as_ref())) {
            Ok(Some(p)) => p,
            Ok(None) => {
                return disconnected(
                    &outstanding,
                    "worker closed the connection mid-batch".to_owned(),
                )
            }
            // Transport failures — including a stream truncated inside
            // a frame — are connection death: typed, retryable.
            Err(BackendError::Io(detail)) => return disconnected(&outstanding, detail),
            Err(e) => return ShardFate::Fatal(e),
        };
        match ServerMessage::from_wire(&payload) {
            Ok(ServerMessage::Event(ev)) => {
                if outstanding.remove(&ev.index).is_none() {
                    return ShardFate::Fatal(BackendError::Protocol(format!(
                        "worker {addr} sent an event for trial {} it was never assigned \
                         (or sent it twice)",
                        ev.index
                    )));
                }
                seen += 1;
                if tx.send(Ok(ev)).is_err() {
                    return ShardFate::ConsumerGone;
                }
            }
            Ok(ServerMessage::Done { events }) => {
                if events != seen || seen != expected {
                    return ShardFate::Fatal(BackendError::Protocol(format!(
                        "worker {addr} reported {events} events, streamed {seen}, \
                         expected {expected}"
                    )));
                }
                return ShardFate::Clean;
            }
            Ok(ServerMessage::Error(msg)) => return ShardFate::Fatal(BackendError::Remote(msg)),
            Ok(other) => {
                return ShardFate::Fatal(BackendError::Protocol(format!(
                    "worker {addr} sent {other:?} mid-batch"
                )))
            }
            Err(e) => return ShardFate::Fatal(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avf_sim::GoldenRun;

    fn ready(digest: u64) -> JobReady {
        JobReady {
            store_hash: 0xA1,
            golden: GoldenRun {
                cycles: 1000,
                committed: 900,
                digest,
            },
            checkpoints: 4,
            prune: None,
        }
    }

    #[test]
    fn cross_check_accepts_agreement_and_rejects_divergence() {
        let agree = vec![
            ("a:1".to_owned(), ready(7)),
            ("b:2".to_owned(), ready(7)),
            ("c:3".to_owned(), ready(7)),
        ];
        assert!(cross_check_ready(&agree).is_ok());

        let diverge = vec![("a:1".to_owned(), ready(7)), ("b:2".to_owned(), ready(8))];
        let err = cross_check_ready(&diverge).unwrap_err();
        assert!(
            matches!(&err, BackendError::Protocol(msg) if msg.contains("divergence")),
            "{err}"
        );
    }
}
