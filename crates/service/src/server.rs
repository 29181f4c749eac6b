//! The long-running campaign job server.
//!
//! `avf-stressmark serve --listen <addr>` runs [`serve`]: an accept
//! loop that gives every connection its own handler thread. A handler
//! is a thin wire adapter over [`LocalBackend`] — it resolves the
//! job's golden pass through the shared [`StoreCache`] (cache hit, or
//! its own golden run), opens a local session,
//! then turns every trial-batch frame into a `submit` and streams the
//! resulting trial events back as length-prefixed frames *as they
//! complete* (coalesced through a [`FrameBatcher`] so a fast stream
//! does not pay one syscall per 16-byte event). The server is
//! venue-symmetric with in-process execution by construction: both
//! sides of the socket run the exact same [`CampaignBackend`] code
//! path.
//!
//! [`ServeOptions::die_mid_batch`] is deliberate fault injection for
//! the resilience tests and the CI resilience job: the handler streams
//! half of the designated batch's events, then drops the connection
//! with no error frame — exactly what a worker crash looks like from
//! the driver's side.

use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use avf_inject::{BackendError, JobSpec, LocalBackend, StoreSource, PRUNE_WINDOW};
use avf_sim::golden_pass;

use crate::auth::{read_frame_verified, write_frame_signed, AuthKey, ConnectionAuth};
use crate::cache::{CacheEntry, ScoreCache, StoreCache};
use crate::eval::handle_eval_session;
use crate::frame::FrameBatcher;
use crate::metrics::ServeStats;
use crate::protocol::{
    delegated_job_key, geometry_fingerprint, ClientMessage, JobReady, ServerMessage,
};

/// Server tuning.
#[derive(Clone)]
pub struct ServeOptions {
    /// Worker threads per connection (0 = all available cores).
    pub threads: usize,
    /// Fault injection for resilience testing: abort the connection
    /// midway through streaming batch `n` (0-based, counted per
    /// connection) — half the batch's events go out, then the socket
    /// dies with no error frame.
    pub die_mid_batch: Option<u64>,
    /// The checkpoint-store cache shared by every connection. A fresh
    /// default-bounded cache per `ServeOptions` unless the caller
    /// wants to observe or share one.
    pub cache: Arc<StoreCache>,
    /// Shared frame-authentication key (`--auth-key-file`). `None`
    /// accepts plain frames; `Some` requires every frame on every
    /// connection to carry a valid tag and tags every reply.
    pub auth: Option<AuthKey>,
    /// Session counters the metrics endpoint renders.
    pub stats: Arc<ServeStats>,
    /// The fitness score cache shared by every evaluation session
    /// (wire v7), the fitness analogue of `cache`. Scores are memoized
    /// per (context, program), so elites re-scored across generations
    /// and distinct genomes that build one program all hit here instead
    /// of re-simulating.
    pub eval_cache: Arc<ScoreCache>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 0,
            die_mid_batch: None,
            cache: StoreCache::shared(),
            auth: None,
            stats: ServeStats::shared(),
            eval_cache: ScoreCache::shared(),
        }
    }
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("threads", &self.threads)
            .field("die_mid_batch", &self.die_mid_batch)
            .field("cache", &self.cache.stats())
            .field("auth", &self.auth.is_some())
            .field("eval_cache", &self.eval_cache.stats())
            .finish()
    }
}

/// Runs the accept loop forever, spawning one handler thread per
/// connection. Never returns except on listener failure.
///
/// # Errors
///
/// Returns the I/O error that broke the accept loop.
pub fn serve(listener: TcpListener, opts: &ServeOptions) -> std::io::Result<()> {
    for conn in listener.incoming() {
        let stream = conn?;
        let opts = opts.clone();
        std::thread::spawn(move || {
            let peer = stream
                .peer_addr()
                .map_or_else(|_| "<unknown>".to_owned(), |a| a.to_string());
            // One auth pair per connection: fresh per-direction
            // sequence spaces are what make replay detection sound.
            let auth = opts.auth.map(|key| Arc::new(ConnectionAuth::server(key)));
            match handle_connection(&stream, &opts, auth.as_ref()) {
                Ok(()) => {
                    opts.stats.sessions_ok.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    opts.stats.sessions_failed.fetch_add(1, Ordering::Relaxed);
                    if matches!(e, BackendError::Auth(_)) {
                        opts.stats.auth_rejects.fetch_add(1, Ordering::Relaxed);
                    }
                    // Best-effort error frame; the connection may already be
                    // gone, and either way the session is over. Signed when
                    // the server is keyed — an authenticated driver must
                    // never trust an unsigned error frame.
                    let _ = write_frame_signed(
                        &mut &stream,
                        &ServerMessage::Error(e.to_string()).to_wire(),
                        auth.as_ref().map(|a| a.signer.as_ref()),
                    );
                    crate::log_line!("serve: session with {peer} failed: {e}");
                }
            }
        });
    }
    Ok(())
}

/// Binds an ephemeral local port and runs [`serve`] on a background
/// thread, returning the bound address — the in-process harness the
/// loopback tests and CI smoke use.
///
/// # Errors
///
/// Returns the I/O error if the port cannot be bound.
pub fn spawn_local(opts: ServeOptions) -> std::io::Result<std::net::SocketAddr> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    std::thread::spawn(move || {
        if let Err(e) = serve(listener, &opts) {
            crate::log_line!("serve: accept loop failed: {e}");
        }
    });
    Ok(addr)
}

/// Resolves the job's golden pass through the cache under `key`: a hit
/// reuses the cached checkpoints, a miss runs the pass here and caches
/// it. A pruning job that hits an entry of an uninstrumented pass runs
/// the pass again with evidence, cross-checks that it resolved the
/// identical reference and refreshes the entry, so the next pruning
/// session hits outright.
fn resolve_store(
    spec: &JobSpec,
    key: u64,
    cache: &StoreCache,
) -> Result<(CacheEntry, StoreSource), BackendError> {
    let geometry = geometry_fingerprint(&spec.machine, &spec.program);
    let cached = cache.get(key, geometry);
    match &cached {
        Some(entry) => {
            crate::log_line!("serve: job {key:016x} checkpoint store HAVE (cache hit)");
            if !spec.prune || entry.evidence.is_some() {
                return Ok((entry.clone(), StoreSource::Cached));
            }
            crate::log_line!(
                "serve: job {key:016x} regenerating prune evidence (instrumented pass)"
            );
        }
        None => {
            crate::log_line!("serve: job {key:016x} checkpoint store MISS (running golden pass)");
        }
    }
    let (golden, checkpoints, evidence) = golden_pass(
        &spec.machine,
        &spec.program,
        spec.instr_budget,
        spec.checkpoint_interval,
        spec.prune.then_some(PRUNE_WINDOW),
    );
    if let Some(entry) = cached.as_ref().filter(|entry| entry.golden != golden) {
        return Err(BackendError::Protocol(format!(
            "instrumented golden pass diverged from the cached reference: \
             digest {:016x} vs {:016x}",
            golden.digest, entry.golden.digest
        )));
    }
    // Every later campaign on this worker — this connection included —
    // restores straight from these snapshots.
    let entry = CacheEntry {
        checkpoints: Arc::new(checkpoints),
        golden,
        geometry,
        evidence: evidence.map(Arc::new),
    };
    cache.insert(key, entry.clone());
    let source = if cached.is_some() {
        StoreSource::Cached
    } else {
        StoreSource::GoldenRun
    };
    Ok((entry, source))
}

/// Drives one campaign session over one connection.
fn handle_connection(
    stream: &TcpStream,
    opts: &ServeOptions,
    auth: Option<&Arc<ConnectionAuth>>,
) -> Result<(), BackendError> {
    let mut reader = BufReader::new(stream);
    let verifier = auth.map(|a| a.verifier.as_ref());
    let mut writer = FrameBatcher::new(stream).with_signer(auth.map(|a| Arc::clone(&a.signer)));

    // The session must open with a job setup frame — or, since wire
    // v7, an EVAL_BATCH frame opening a fitness-evaluation session.
    let Some(payload) = read_frame_verified(&mut reader, verifier)? else {
        return Ok(()); // connected and left; nothing to do
    };
    if avf_isa::wire::peek_kind(&payload) == Some(avf_isa::wire::kind::EVAL_BATCH) {
        return handle_eval_session(stream, &mut reader, &mut writer, payload, opts, verifier);
    }
    let ClientMessage::Setup(spec) = ClientMessage::from_wire(&payload)? else {
        return Err(BackendError::Protocol(
            "session must open with a job setup frame".to_owned(),
        ));
    };
    let key = delegated_job_key(
        &spec.machine,
        &spec.program,
        spec.instr_budget,
        spec.checkpoint_interval,
    );
    let (entry, source) = resolve_store(&spec, key, &opts.cache)?;

    // Keep the job's geometry for batch validation: the simulator
    // *asserts* entry/bit bounds, so an out-of-geometry trial smuggled
    // over the wire must be rejected here with an error frame, not
    // allowed to panic a worker thread.
    let machine = spec.machine.clone();
    let sizes = machine.structure_sizes();
    let backend = LocalBackend::new(opts.threads).with_trial_ends(Arc::clone(&opts.stats.trials));
    // A pruning job ships the classifier's map back with JOB_READY: the
    // driver never simulated the golden pass, so the worker's evidence
    // is the only source. The map derives from the session's fault
    // model; the cached evidence is model-independent.
    let opened = backend.open_resolved(
        *spec,
        entry.golden,
        entry.checkpoints,
        entry.evidence.as_deref(),
        source,
    );
    let (ready, mut session) = JobReady::summarize(opened, key);
    writer.push(&ServerMessage::Ready { ready, source }.to_wire())?;
    writer.flush()?;

    // Then any number of trial batches until the client hangs up.
    let mut served = 0u64;
    while let Some(payload) = read_frame_verified(&mut reader, verifier)? {
        let ClientMessage::Batch(trials) = ClientMessage::from_wire(&payload)? else {
            return Err(BackendError::Protocol(
                "expected a trial batch frame".to_owned(),
            ));
        };
        if let Some(t) = trials
            .iter()
            .find(|t| t.entry >= t.target.entries(&machine) || t.bit >= t.target.entry_bits(&sizes))
        {
            return Err(BackendError::Protocol(format!(
                "trial {} ({} entry {} bit {}) lies outside the job's machine geometry",
                t.index, t.target, t.entry, t.bit
            )));
        }
        let replies = session
            .submit(&trials)?
            .map(|event| Ok(ServerMessage::Event(event?).to_wire()));
        if !reply_batch(stream, &mut writer, opts, served, trials.len(), replies)? {
            return Ok(());
        }
        served += 1;
    }
    Ok(())
}

/// Streams one batch's reply frames as they are produced, then DONE.
/// When batch `served` is the injected fault ([`ServeOptions::die_mid_batch`])
/// it streams half of the `items` replies and kills the connection with
/// no error frame and no DONE: the driver must observe a dead connection
/// and re-dispatch the unacknowledged half. Returns whether the
/// connection is still up.
pub(crate) fn reply_batch(
    stream: &TcpStream,
    writer: &mut FrameBatcher<&TcpStream>,
    opts: &ServeOptions,
    served: u64,
    items: usize,
    replies: impl Iterator<Item = Result<Vec<u8>, BackendError>>,
) -> Result<bool, BackendError> {
    let die = opts.die_mid_batch == Some(served);
    let mut sent = 0u64;
    for reply in replies.take(if die { items / 2 } else { usize::MAX }) {
        writer.push(&reply?)?;
        sent += 1;
    }
    if die {
        writer.flush()?;
        crate::log_line!("serve: injected fault — aborting connection mid-batch {served}");
        let _ = stream.shutdown(Shutdown::Both);
        return Ok(false);
    }
    writer.push(&ServerMessage::Done { events: sent }.to_wire())?;
    // The DONE marker is a protocol barrier: everything queued for the
    // batch must reach the driver before it plans the next one.
    writer.flush()?;
    opts.stats.batches_served.fetch_add(1, Ordering::Relaxed);
    opts.stats
        .events_streamed
        .fetch_add(sent, Ordering::Relaxed);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use avf_sim::MachineConfig;
    use std::io::{BufWriter, Write};

    #[test]
    fn empty_connection_is_a_clean_session() {
        let addr = spawn_local(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        })
        .unwrap();
        // Connect and immediately hang up: the handler must treat this
        // as a zero-job session, not an error.
        drop(TcpStream::connect(addr).unwrap());
        // A second connection still works (the accept loop survived).
        drop(TcpStream::connect(addr).unwrap());
    }

    /// Opens a session on `addr` and reads its JOB_READY.
    fn open_session(addr: std::net::SocketAddr, instr_budget: u64) -> TcpStream {
        let machine = MachineConfig::baseline();
        let program = avf_workloads::testkit::idle_loop();
        let stream = TcpStream::connect(addr).unwrap();
        {
            let mut w = BufWriter::new(&stream);
            let setup = JobSpec {
                machine,
                program,
                instr_budget,
                fault_model: avf_inject::FaultModel::default(),
                prune: false,
                checkpoint_interval: 256,
            };
            write_frame(&mut w, &setup.to_wire()).unwrap();
            w.flush().unwrap();
            let mut r = BufReader::new(&stream);
            let ready = read_frame(&mut r).unwrap().expect("ready frame");
            match ServerMessage::from_wire(&ready).unwrap() {
                ServerMessage::Ready { ready, .. } => assert!(ready.checkpoints > 0),
                other => panic!("expected JOB_READY, got {other:?}"),
            }
        }
        stream
    }

    #[test]
    fn out_of_geometry_trials_get_an_error_frame_not_a_panic() {
        use avf_inject::{encode_trial_batch, Trial};
        use avf_sim::InjectionTarget;

        let machine = MachineConfig::baseline();
        let addr = spawn_local(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        })
        .unwrap();
        let stream = open_session(addr, 2_000);
        let mut w = BufWriter::new(&stream);
        // One trial far past the ROB's physical entries: the simulator
        // would assert; the server must reject it at the protocol layer.
        let bad = Trial {
            index: 0,
            target: InjectionTarget::Rob,
            cycle: 1,
            entry: machine.rob_entries as u64 + 5,
            bit: 0,
        };
        write_frame(&mut w, &encode_trial_batch(&[bad])).unwrap();
        w.flush().unwrap();

        let mut r = BufReader::new(&stream);
        let reply = read_frame(&mut r).unwrap().expect("error frame");
        match ServerMessage::from_wire(&reply).unwrap() {
            ServerMessage::Error(msg) => assert!(msg.contains("geometry"), "{msg}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn garbage_setup_gets_an_error_frame() {
        let addr = spawn_local(ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        })
        .unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = BufWriter::new(&stream);
        write_frame(&mut w, b"this is not a job spec").unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(&stream);
        let reply = read_frame(&mut r).unwrap().expect("error frame");
        match ServerMessage::from_wire(&reply).unwrap() {
            ServerMessage::Error(msg) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    #[test]
    fn second_identical_session_hits_the_store_cache() {
        let opts = ServeOptions {
            threads: 1,
            ..ServeOptions::default()
        };
        let cache = Arc::clone(&opts.cache);
        let addr = spawn_local(opts).unwrap();
        drop(open_session(addr, 2_000));
        assert_eq!(cache.stats().hits, 0);
        drop(open_session(addr, 2_000));
        // The handler thread of the second connection completed its
        // lookup before sending JOB_READY, which open_session waited on.
        assert_eq!(cache.stats().hits, 1, "identical job must hit");
        // A different budget is a different job key.
        drop(open_session(addr, 2_500));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 2);
    }
}
