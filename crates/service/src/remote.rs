//! [`RemoteBackend`]: the TCP client side of the campaign service.
//!
//! One backend fans a campaign out over one or more `serve` workers.
//! `open` sends the job's [`JobSpec`] setup frame to every worker *in
//! parallel*; each worker runs (or cache-hits) the golden pass and
//! answers `JOB_READY`. The driver then cross-checks that all workers resolved
//! the *identical* golden run; divergence is a hard protocol error,
//! because a worker disagreeing about the fault-free reference would
//! silently corrupt every classification it returns.
//!
//! The session is a [`RemoteSession`] over the [`Fleet`] dispatcher (a
//! brokered campaign runs the same session over a broker session).
//! `submit` hands each batch to the fleet on a supervisor thread, which
//! strides the cycle-sorted trials across live workers, streams every
//! event into one [`TrialStream`] as it arrives, and re-dispatches the
//! trials of a worker whose connection dies mid-batch to the survivors.
//! Because every trial's outcome is a pure function of the trial itself
//! (sampled from `(seed, batch, index)`), the final `CampaignReport` is
//! bit-identical to the fault-free run; only the dispatch trajectory
//! records the failure.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use avf_ga::par_map;
use avf_inject::{
    BackendError, CampaignBackend, CampaignSession, DispatchRecord, JobSpec, OpenedJob,
    StoreSource, Trial, TrialStream, WorkerProvision,
};

use crate::auth::AuthKey;
use crate::fleet::{Fleet, Slot, Trials, Venue};
use crate::protocol::{JobReady, ServerMessage};

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

/// Connects to one worker, sends it the setup frame, and reads its
/// `JOB_READY`.
fn open_worker(
    addr: &str,
    setup_frame: &[u8],
    key: Option<AuthKey>,
) -> Result<(Slot, JobReady, StoreSource), BackendError> {
    let slot = Slot::connect(addr, key)?;
    slot.send(setup_frame)?;
    let (ready, source) = ServerMessage::expect_ready(slot.recv(&mut slot.reader())?, addr)?;
    Ok((slot, ready, source))
}

impl CampaignBackend for RemoteBackend {
    fn workers(&self) -> usize {
        self.addrs.len()
    }

    fn open(&self, spec: JobSpec) -> Result<OpenedJob, BackendError> {
        // Serialize the setup once; every worker receives the identical
        // bytes.
        let setup_frame = spec.to_wire();

        // N workers run their golden passes in parallel, one thread
        // each; every setup finishes before the first failure (in
        // address order) is returned.
        let opened = par_map(self.addrs.len(), &self.addrs, |addr| {
            open_worker(addr, &setup_frame, self.auth)
        });
        let mut slots = Vec::with_capacity(self.addrs.len());
        let mut readys = Vec::with_capacity(self.addrs.len());
        let mut provisioning = Vec::with_capacity(self.addrs.len());
        for (opened, addr) in opened.into_iter().zip(&self.addrs) {
            let (slot, ready, source) = opened?;
            slots.push(slot);
            readys.push((addr.clone(), ready));
            provisioning.push(WorkerProvision {
                worker: addr.clone(),
                source,
            });
        }
        cross_check_ready(&readys)?;
        // Cross-check passed: every worker reported this identical
        // ready, prune map included — adopting worker 0's is adopting
        // all of them.
        let ready = readys.swap_remove(0).1;
        Ok(ready.opened(
            Box::new(RemoteSession::new(Fleet::new(slots))),
            provisioning,
        ))
    }
}

/// The campaign session of every remote venue: a worker [`Fleet`]
/// (`--workers`) or a broker session fronting one (`--broker`). Each
/// batch runs on a supervisor thread that holds the venue for the whole
/// batch, and the venue's own log is the session's dispatch log.
pub struct RemoteSession<V> {
    /// Shared with the batch's supervisor thread; the venue drops with
    /// its last holder (a broker session then sends its end-of-session
    /// marker).
    venue: Arc<Mutex<V>>,
    batch: u64,
}

impl<V: Venue> RemoteSession<V> {
    /// A session whose batches `venue` runs, numbered from 0.
    #[must_use]
    pub fn new(venue: V) -> RemoteSession<V> {
        RemoteSession {
            venue: Arc::new(Mutex::new(venue)),
            batch: 0,
        }
    }
}

impl<V: Venue + Send + 'static> CampaignSession for RemoteSession<V> {
    fn submit(&mut self, trials: &[Trial]) -> Result<TrialStream, BackendError> {
        let batch = self.batch;
        self.batch += 1;
        let (tx, rx) = mpsc::channel();
        let venue = Arc::clone(&self.venue);
        let trials = trials.to_vec();
        // The supervisor owns the whole batch and terminates the stream
        // once every trial is accounted for; the driver just drains
        // events.
        let supervisor = std::thread::spawn(move || {
            let mut venue = venue.lock().expect("venue lock");
            if let Err(e) = venue.dispatch(&Trials, batch, trials, &tx) {
                let _ = tx.send(Err(e));
            }
        });
        Ok(TrialStream::new(rx, vec![supervisor]))
    }

    fn dispatch_log(&self) -> Vec<DispatchRecord> {
        self.venue.lock().expect("venue lock").log().to_vec()
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
