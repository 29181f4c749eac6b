//! The broker process: accept loop, fair scheduler, campaign runners,
//! and the plaintext metrics renderer.
//!
//! One broker fronts a fixed worker fleet for many drivers. Every
//! driver connection is persistent and multiplexed: campaign-id-tagged
//! replies and `MUX`-tagged interactive sessions interleave freely, so
//! a driver submits, attaches, and relays campaigns over one socket.
//!
//! Work reaches the workers through exactly one gate — the
//! deficit-round-robin scheduler with `max_running` slots — whichever
//! path it arrives by:
//!
//! * **Spec path** (durable): a [`CampaignSpec`] is admitted, appended
//!   to the on-disk log, queued, and eventually run *by the broker
//!   itself* on a runner thread. The submitting driver may die, attach
//!   later, or never return; the campaign finishes regardless and its
//!   report is durably stored. A restarted broker re-queues every
//!   unfinished spec — campaigns are deterministic, so the re-run
//!   report is identical to what the lost run would have produced.
//! * **Interactive path**: `MUX`-wrapped standard worker-protocol
//!   frames. The broker relays trial batches into its own
//!   [`RemoteBackend`] fleet session, and GA generations into its own
//!   [`Fleet`] — both the one fleet dispatcher with its re-dispatch
//!   supervision — so a driver using [`crate::BrokeredBackend`] or
//!   [`crate::BrokeredEvaluator`] gets the full fleet behind a single
//!   authenticated connection. An interactive session occupies one
//!   scheduler slot for its lifetime and pays a full quantum, so spec
//!   campaigns are never starved by chatty drivers.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use avf_inject::{
    redispatched_trials, BackendError, Campaign, CampaignBackend, CampaignSession, DispatchRecord,
    JobSpec, OpenedJob, StoreSource, Trial, TrialStream,
};
use avf_isa::wire::{kind, peek_kind};
use avf_service::auth::{read_frame_verified, write_frame_signed, AuthKey, ConnectionAuth};
use avf_service::protocol::{ClientMessage, JobReady, Mux, ServerMessage};
use avf_service::{score_generation, EvalBatch, EvalScore, Fleet, RemoteBackend, Venue};

use crate::metrics::BrokerStats;
use crate::protocol::{CampaignPhase, CampaignSpec, LogRecord, Reply, Request};
use crate::queue::FairQueue;
use crate::store::{CampaignStore, StoredCampaign};

/// Broker tuning.
#[derive(Debug, Clone)]
pub struct BrokerOptions {
    /// Worker addresses (`host:port`) the broker fronts. Must not be
    /// empty.
    pub workers: Vec<String>,
    /// Frame-authentication key, applied on *both* planes: driver
    /// connections must present it, and worker connections are opened
    /// with it. `None` runs both planes plain.
    pub auth: Option<AuthKey>,
    /// Campaigns (spec or interactive) executing concurrently.
    pub max_running: usize,
    /// Admission: queued campaigns allowed per tenant.
    pub per_tenant_pending: usize,
    /// Admission: queued campaigns allowed in total.
    pub max_pending: usize,
    /// Deficit-round-robin quantum, in injection units.
    pub quantum: u64,
    /// Path of the durable campaign log.
    pub store_path: PathBuf,
}

impl Default for BrokerOptions {
    fn default() -> BrokerOptions {
        BrokerOptions {
            workers: Vec::new(),
            auth: None,
            max_running: 2,
            per_tenant_pending: 16,
            max_pending: 64,
            quantum: 512,
            store_path: PathBuf::from("broker-campaigns.log"),
        }
    }
}

/// A scheduled unit: a durable spec campaign, or a slot grant for an
/// interactive relay waiting to run.
enum Work {
    Spec(u64),
    Grant(mpsc::Sender<()>),
}

struct Sched {
    queue: FairQueue<Work>,
    running: usize,
}

/// Live state of one known campaign.
struct CampaignState {
    tenant: String,
    spec: Arc<CampaignSpec>,
    phase: CampaignPhase,
    trials_done: u64,
    outcome: Option<Result<Arc<avf_inject::CampaignReport>, String>>,
    /// Outboxes of connections attached to this campaign; each gets
    /// Status pushes and the terminal Report/Failed frame.
    waiters: Vec<mpsc::Sender<Vec<u8>>>,
}

pub(crate) struct Inner {
    opts: BrokerOptions,
    store: Mutex<CampaignStore>,
    sched: Mutex<Sched>,
    wake: Condvar,
    registry: Mutex<HashMap<u64, CampaignState>>,
    next_id: AtomicU64,
    stats: Arc<BrokerStats>,
}

/// A running broker: scheduler + runners started, ready to accept.
pub struct Broker {
    inner: Arc<Inner>,
}

impl Broker {
    /// Opens the durable store, replays it, re-queues every unfinished
    /// campaign in original acceptance order, and starts the scheduler.
    ///
    /// # Errors
    ///
    /// Fails if the store cannot be opened.
    ///
    /// # Panics
    ///
    /// Panics if `opts.workers` is empty — a broker with no fleet
    /// cannot run campaigns.
    pub fn start(opts: BrokerOptions) -> std::io::Result<Broker> {
        assert!(
            !opts.workers.is_empty(),
            "broker needs at least one worker address"
        );
        let (store, replayed) = CampaignStore::open(&opts.store_path)?;
        let mut queue = FairQueue::new(opts.quantum, opts.per_tenant_pending, opts.max_pending);
        let mut registry = HashMap::new();
        let mut next_id = 1;
        let mut requeued = 0usize;
        for StoredCampaign {
            id,
            tenant,
            spec,
            trials_done,
            outcome,
        } in replayed
        {
            next_id = next_id.max(id + 1);
            let phase = match &outcome {
                None => CampaignPhase::Queued,
                Some(Ok(_)) => CampaignPhase::Done,
                Some(Err(_)) => CampaignPhase::Failed,
            };
            if outcome.is_none() {
                // Durability beats admission: the broker already said
                // yes to these, so restart re-queues bypass the quotas.
                queue.force_enqueue(&tenant, spec.cost(), Work::Spec(id));
                requeued += 1;
            }
            registry.insert(
                id,
                CampaignState {
                    tenant,
                    spec,
                    phase,
                    trials_done,
                    outcome,
                    waiters: Vec::new(),
                },
            );
        }
        if requeued > 0 {
            avf_service::log_line!(
                "broker: re-queued {requeued} unfinished campaign(s) from the durable log"
            );
        }
        let inner = Arc::new(Inner {
            opts,
            store: Mutex::new(store),
            sched: Mutex::new(Sched { queue, running: 0 }),
            wake: Condvar::new(),
            registry: Mutex::new(registry),
            next_id: AtomicU64::new(next_id),
            stats: BrokerStats::shared(),
        });
        spawn_scheduler(Arc::clone(&inner));
        Ok(Broker { inner })
    }

    /// Runs the accept loop forever, one handler thread per driver
    /// connection. Never returns except on listener failure.
    ///
    /// # Errors
    ///
    /// Returns the I/O error that broke the accept loop.
    pub fn listen(&self, listener: TcpListener) -> std::io::Result<()> {
        for conn in listener.incoming() {
            let stream = conn?;
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || {
                BrokerStats::bump(&inner.stats.connections, 1);
                handle_driver(&inner, stream);
            });
        }
        Ok(())
    }

    /// Binds an ephemeral local port and runs [`Broker::listen`] on a
    /// background thread — the in-process harness tests use. The
    /// handle stays usable (e.g. for [`Broker::render_metrics`]).
    ///
    /// # Errors
    ///
    /// Fails if the port cannot be bound.
    pub fn spawn_local(&self) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let broker = Broker {
            inner: Arc::clone(&self.inner),
        };
        std::thread::spawn(move || {
            if let Err(e) = broker.listen(listener) {
                avf_service::log_line!("broker: accept loop failed: {e}");
            }
        });
        Ok(addr)
    }

    /// The broker's counters (shared with every handler thread).
    #[must_use]
    pub fn stats(&self) -> Arc<BrokerStats> {
        Arc::clone(&self.inner.stats)
    }

    /// Renders the metrics page: queue depths, slot usage, counters,
    /// and a live liveness probe of every fronted worker.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        render_metrics(&self.inner)
    }

    /// A rendering closure for [`avf_service::spawn_metrics`].
    pub fn metrics_renderer(&self) -> impl Fn() -> String + Send + Sync + 'static {
        let inner = Arc::clone(&self.inner);
        move || render_metrics(&inner)
    }
}

/// Escapes a Prometheus label value. Tenant names come verbatim from
/// the driver's Hello frame, so backslashes, quotes, and newlines must
/// not reach the exposition format unescaped.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_metrics(inner: &Inner) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "avf_broker_up 1");
    let _ = writeln!(out, "avf_broker_workers {}", inner.opts.workers.len());
    {
        let sched = inner.sched.lock().expect("sched lock");
        let _ = writeln!(out, "avf_broker_running {}", sched.running);
        let _ = writeln!(out, "avf_broker_queued {}", sched.queue.len());
        for (tenant, depth) in sched.queue.depths() {
            let _ = writeln!(
                out,
                "avf_broker_queue_depth{{tenant=\"{}\"}} {depth}",
                escape_label(&tenant)
            );
        }
    }
    {
        // Per-tenant campaign counts by lifecycle phase.
        let registry = inner.registry.lock().expect("registry lock");
        let mut counts: HashMap<(String, CampaignPhase), u64> = HashMap::new();
        for state in registry.values() {
            *counts
                .entry((state.tenant.clone(), state.phase))
                .or_insert(0) += 1;
        }
        let mut counts: Vec<_> = counts.into_iter().collect();
        counts.sort_by(|a, b| a.0.cmp(&b.0));
        for ((tenant, phase), n) in counts {
            let _ = writeln!(
                out,
                "avf_broker_campaigns{{tenant=\"{}\",phase=\"{phase}\"}} {n}",
                escape_label(&tenant)
            );
        }
    }
    let s = &inner.stats;
    for (name, counter) in [
        ("accepted", &s.accepted),
        ("rejected", &s.rejected),
        ("completed", &s.completed),
        ("failed", &s.failed),
        ("trials_dispatched", &s.trials_dispatched),
        ("trials_redispatched", &s.trials_redispatched),
        ("auth_rejects", &s.auth_rejects),
        ("mux_sessions", &s.mux_sessions),
        ("connections", &s.connections),
    ] {
        let _ = writeln!(out, "avf_broker_{name}_total {}", BrokerStats::get(counter));
    }
    // Liveness is probed at scrape time: a connect that completes
    // within the timeout is "up". Cheap enough for a metrics page and
    // always current, unlike a background heartbeat.
    for addr in &inner.opts.workers {
        let up = addr
            .parse::<SocketAddr>()
            .ok()
            .and_then(|a| TcpStream::connect_timeout(&a, Duration::from_millis(250)).ok())
            .is_some();
        let _ = writeln!(out, "avf_worker_up{{worker=\"{addr}\"}} {}", u8::from(up));
    }
    out
}

// ---------------------------------------------------------------------------
// Scheduler and runners
// ---------------------------------------------------------------------------

fn spawn_scheduler(inner: Arc<Inner>) {
    std::thread::spawn(move || loop {
        let work = {
            let mut sched = inner.sched.lock().expect("sched lock");
            loop {
                if sched.running < inner.opts.max_running {
                    if let Some(work) = sched.queue.pop() {
                        sched.running += 1;
                        break work;
                    }
                }
                sched = inner.wake.wait(sched).expect("sched lock");
            }
        };
        match work {
            Work::Spec(id) => {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    run_campaign(&inner, id);
                    release_slot(&inner);
                });
            }
            Work::Grant(tx) => {
                // The relay thread this grant was for may already be
                // gone (driver hung up while queued): reclaim the slot.
                if tx.send(()).is_err() {
                    release_slot(&inner);
                }
            }
        }
    });
}

fn release_slot(inner: &Inner) {
    // Runs from `SlotGuard::drop`, possibly while unwinding, where a
    // second panic would abort the whole broker. Decrementing `running`
    // is valid whatever state a poisoning panic left the queue in.
    let mut sched = inner.sched.lock().unwrap_or_else(PoisonError::into_inner);
    sched.running = sched.running.saturating_sub(1);
    drop(sched);
    inner.wake.notify_all();
}

/// Pushes a reply frame to every waiter of campaign `id`, dropping
/// waiters whose connection is gone.
fn notify_waiters(inner: &Inner, id: u64, frame: &[u8]) {
    let mut registry = inner.registry.lock().expect("registry lock");
    if let Some(state) = registry.get_mut(&id) {
        state.waiters.retain(|w| w.send(frame.to_vec()).is_ok());
    }
}

/// Executes one durable spec campaign on the worker fleet.
fn run_campaign(inner: &Arc<Inner>, id: u64) {
    let spec = {
        let mut registry = inner.registry.lock().expect("registry lock");
        let Some(state) = registry.get_mut(&id) else {
            return;
        };
        state.phase = CampaignPhase::Running;
        Arc::clone(&state.spec)
    };
    notify_waiters(
        inner,
        id,
        &Reply::Status {
            id,
            phase: CampaignPhase::Running,
            trials_done: 0,
        }
        .to_wire(),
    );
    let observed = ObservedBackend {
        inner: fleet_backend(inner),
        broker: Arc::clone(inner),
        id,
    };
    let result = Campaign::new(&spec.machine, &spec.program, spec.to_config()).run_on(&observed);
    let outcome = match result {
        Ok(report) => {
            BrokerStats::bump(&inner.stats.completed, 1);
            BrokerStats::bump(
                &inner.stats.trials_redispatched,
                report.redispatched_trials(),
            );
            Ok(Arc::new(report))
        }
        Err(e) => {
            BrokerStats::bump(&inner.stats.failed, 1);
            avf_service::log_line!("broker: campaign {id} failed: {e}");
            Err(e.to_string())
        }
    };
    let (record, reply) = match &outcome {
        Ok(report) => (
            LogRecord::Report {
                id,
                report: Box::new((**report).clone()),
            },
            Reply::Report {
                id,
                report: Box::new((**report).clone()),
            },
        ),
        Err(error) => (
            LogRecord::Failed {
                id,
                error: error.clone(),
            },
            Reply::Failed {
                id,
                error: error.clone(),
            },
        ),
    };
    if let Err(e) = inner.store.lock().expect("store lock").append(&record) {
        avf_service::log_line!("broker: durable log append failed for campaign {id}: {e}");
    }
    if let Some(state) = inner.registry.lock().expect("registry lock").get_mut(&id) {
        state.phase = if outcome.is_ok() {
            CampaignPhase::Done
        } else {
            CampaignPhase::Failed
        };
        state.outcome = Some(outcome);
    }
    notify_waiters(inner, id, &reply.to_wire());
}

/// A campaign backend over the broker's worker fleet.
fn fleet_backend(inner: &Inner) -> RemoteBackend {
    match inner.opts.auth {
        Some(key) => RemoteBackend::with_auth(inner.opts.workers.clone(), key),
        None => RemoteBackend::new(inner.opts.workers.clone()),
    }
}

/// A [`CampaignBackend`] wrapper that reports progress: every submitted
/// batch bumps the campaign's durable trial counter and pushes a
/// Status frame to attached drivers.
struct ObservedBackend {
    inner: RemoteBackend,
    broker: Arc<Inner>,
    id: u64,
}

impl CampaignBackend for ObservedBackend {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn open(&self, spec: JobSpec) -> Result<OpenedJob, BackendError> {
        let mut opened = self.inner.open(spec)?;
        opened.session = Box::new(ObservedSession {
            inner: opened.session,
            broker: Arc::clone(&self.broker),
            id: self.id,
        });
        Ok(opened)
    }
}

struct ObservedSession {
    inner: Box<dyn CampaignSession>,
    broker: Arc<Inner>,
    id: u64,
}

impl CampaignSession for ObservedSession {
    fn submit(&mut self, trials: &[Trial]) -> Result<TrialStream, BackendError> {
        let done = {
            let mut registry = self.broker.registry.lock().expect("registry lock");
            let state = registry.get_mut(&self.id);
            match state {
                Some(state) => {
                    state.trials_done += trials.len() as u64;
                    state.trials_done
                }
                None => trials.len() as u64,
            }
        };
        BrokerStats::bump(&self.broker.stats.trials_dispatched, trials.len() as u64);
        // Progress is advisory durability: losing the tail only means a
        // restarted broker reports a stale count until the re-run
        // overtakes it.
        let _ = self
            .broker
            .store
            .lock()
            .expect("store lock")
            .append(&LogRecord::Progress {
                id: self.id,
                trials_done: done,
            });
        notify_waiters(
            &self.broker,
            self.id,
            &Reply::Status {
                id: self.id,
                phase: CampaignPhase::Running,
                trials_done: done,
            }
            .to_wire(),
        );
        self.inner.submit(trials)
    }

    fn dispatch_log(&self) -> Vec<DispatchRecord> {
        self.inner.dispatch_log()
    }
}

// ---------------------------------------------------------------------------
// Driver connections
// ---------------------------------------------------------------------------

/// Sign-and-write must be one critical section: the MAC covers a
/// per-direction sequence number, so tag order has to match byte order
/// on the socket. One writer thread per connection guarantees it.
fn spawn_outbox_writer(
    mut stream: TcpStream,
    auth: Option<Arc<ConnectionAuth>>,
) -> mpsc::Sender<Vec<u8>> {
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    std::thread::spawn(move || {
        while let Ok(payload) = rx.recv() {
            let signer = auth.as_ref().map(|a| a.signer.as_ref());
            if write_frame_signed(&mut stream, &payload, signer).is_err() {
                return; // connection gone; senders will see closed channel
            }
        }
    });
    tx
}

/// A connection-level failure frame (not about any one campaign).
fn failed(error: impl Into<String>) -> Vec<u8> {
    Reply::Failed {
        id: 0,
        error: error.into(),
    }
    .to_wire()
}

fn handle_driver(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let auth = inner
        .opts
        .auth
        .map(|key| Arc::new(ConnectionAuth::server(key)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let outbox = spawn_outbox_writer(write_half, auth.clone());
    let verifier = auth.as_ref().map(|a| a.verifier.as_ref());
    let mut reader = BufReader::new(&stream);
    let mut tenant: Option<String> = None;
    // Interactive relays by MUX tag: frames after the first are routed
    // to the relay thread's channel.
    let mut routes: HashMap<u64, mpsc::Sender<Vec<u8>>> = HashMap::new();

    loop {
        let payload = match read_frame_verified(&mut reader, verifier) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean disconnect
            Err(e) => {
                if matches!(e, BackendError::Auth(_)) {
                    BrokerStats::bump(&inner.stats.auth_rejects, 1);
                }
                // Best-effort typed goodbye; the channel closing tears
                // down the writer and every relay.
                let _ = outbox.send(failed(e.to_string()));
                avf_service::log_line!("broker: driver connection failed: {e}");
                return;
            }
        };
        match peek_kind(&payload) {
            Some(kind::MUX) => {
                let Ok(mux) = Mux::from_wire(&payload) else {
                    let _ = outbox.send(failed("malformed MUX frame"));
                    return;
                };
                if let Some(route) = routes.get(&mux.tag) {
                    // An empty payload is the driver's end-of-session
                    // marker: the relay exits on it, so drop the route
                    // now rather than keeping a dead Sender for the
                    // life of this persistent connection.
                    let ended = mux.inner.is_empty();
                    if route.send(mux.inner).is_err() || ended {
                        routes.remove(&mux.tag);
                    }
                    continue;
                }
                // A stale end-of-session marker for a tag whose route
                // is already gone must not open a new session.
                if mux.inner.is_empty() {
                    continue;
                }
                // First frame of a new interactive session.
                let Some(tenant) = tenant.clone() else {
                    let _ = outbox.send(mux_error(mux.tag, "hello required before MUX"));
                    continue;
                };
                let (tx, rx) = mpsc::channel::<Vec<u8>>();
                routes.insert(mux.tag, tx);
                let inner = Arc::clone(inner);
                let outbox = outbox.clone();
                std::thread::spawn(move || {
                    relay_interactive(&inner, &tenant, mux.tag, mux.inner, &rx, &outbox);
                });
            }
            _ => match Request::from_wire(&payload) {
                Ok(Request::Hello { tenant: t }) => {
                    tenant = Some(t);
                    let _ = outbox.send(
                        Reply::HelloAck {
                            workers: inner.opts.workers.len() as u64,
                        }
                        .to_wire(),
                    );
                }
                Ok(Request::Submit(spec)) => {
                    let Some(tenant) = tenant.as_deref() else {
                        let _ = outbox.send(failed("hello required before submit"));
                        continue;
                    };
                    let reply = admit_spec(inner, tenant, *spec, &outbox);
                    let _ = outbox.send(reply.to_wire());
                }
                Ok(Request::Attach { id }) => {
                    let reply = attach(inner, id, &outbox);
                    for frame in reply {
                        let _ = outbox.send(frame);
                    }
                }
                Err(e) => {
                    let _ = outbox.send(failed(format!("unrecognized frame: {e}")));
                    return;
                }
            },
        }
    }
}

/// Admission control for the durable spec path. On admit: log, queue,
/// register, wake the scheduler, and the submitting connection is
/// auto-attached.
fn admit_spec(
    inner: &Arc<Inner>,
    tenant: &str,
    spec: CampaignSpec,
    outbox: &mpsc::Sender<Vec<u8>>,
) -> Reply {
    let spec = Arc::new(spec);
    // Admission, id allocation, durable append, registry insert, and
    // enqueue are one critical section under the sched lock: two
    // concurrent submits can neither share an id nor jump the
    // admission check, and — because the enqueue comes last — a waking
    // scheduler thread can never pop an id that isn't already durably
    // logged and registered.
    let mut sched = inner.sched.lock().expect("sched lock");
    if let Err(reason) = sched.queue.check_admission(tenant) {
        let detail = match reason {
            crate::protocol::RejectReason::QuotaExceeded => format!(
                "tenant `{tenant}` already has {} campaign(s) pending (limit {})",
                sched.queue.tenant_depth(tenant),
                inner.opts.per_tenant_pending
            ),
            crate::protocol::RejectReason::QueueFull => format!(
                "broker queue is full ({} campaign(s) pending, limit {})",
                sched.queue.len(),
                inner.opts.max_pending
            ),
        };
        drop(sched);
        BrokerStats::bump(&inner.stats.rejected, 1);
        return Reply::Rejected { reason, detail };
    }
    let id = inner.next_id.load(std::sync::atomic::Ordering::Relaxed);
    // Durable before acknowledged: once the driver sees Accepted, a
    // broker restart must still know about the campaign. Nothing is
    // queued or registered yet, so a failed append refuses the
    // campaign instead of acknowledging it un-durably.
    if let Err(e) = inner
        .store
        .lock()
        .expect("store lock")
        .append(&LogRecord::Accepted {
            id,
            tenant: tenant.to_owned(),
            spec: Box::new((*spec).clone()),
        })
    {
        drop(sched);
        avf_service::log_line!("broker: durable log append failed for campaign {id}: {e}");
        BrokerStats::bump(&inner.stats.rejected, 1);
        return Reply::Failed {
            id: 0,
            error: format!("broker could not durably record the campaign: {e}"),
        };
    }
    inner
        .next_id
        .store(id + 1, std::sync::atomic::Ordering::Relaxed);
    inner.registry.lock().expect("registry lock").insert(
        id,
        CampaignState {
            tenant: tenant.to_owned(),
            spec: Arc::clone(&spec),
            phase: CampaignPhase::Queued,
            trials_done: 0,
            outcome: None,
            waiters: vec![outbox.clone()],
        },
    );
    // Admission was checked above under this same lock, so the caps
    // cannot have been overshot in between.
    sched
        .queue
        .force_enqueue(tenant, spec.cost(), Work::Spec(id));
    drop(sched);
    BrokerStats::bump(&inner.stats.accepted, 1);
    inner.wake.notify_all();
    Reply::Accepted { id }
}

/// Attach: current Status immediately, then the terminal frame — now if
/// the campaign already finished, or later via the waiter list.
fn attach(inner: &Arc<Inner>, id: u64, outbox: &mpsc::Sender<Vec<u8>>) -> Vec<Vec<u8>> {
    let mut registry = inner.registry.lock().expect("registry lock");
    let Some(state) = registry.get_mut(&id) else {
        return vec![Reply::Failed {
            id,
            error: format!("unknown campaign id {id}"),
        }
        .to_wire()];
    };
    let mut frames = vec![Reply::Status {
        id,
        phase: state.phase,
        trials_done: state.trials_done,
    }
    .to_wire()];
    match &state.outcome {
        Some(Ok(report)) => frames.push(
            Reply::Report {
                id,
                report: Box::new((**report).clone()),
            }
            .to_wire(),
        ),
        Some(Err(error)) => frames.push(
            Reply::Failed {
                id,
                error: error.clone(),
            }
            .to_wire(),
        ),
        None => state.waiters.push(outbox.clone()),
    }
    frames
}

// ---------------------------------------------------------------------------
// Interactive relay
// ---------------------------------------------------------------------------

fn mux_error(tag: u64, msg: &str) -> Vec<u8> {
    Mux::wrap(tag, ServerMessage::Error(msg.to_owned()).to_wire()).to_wire()
}

/// Releases the scheduler slot when the relay exits by any path. A
/// relay that exits by panicking also sends the driver an error frame
/// for its tag, so the driver's session fails instead of waiting
/// forever on a reply that will never come.
struct SlotGuard<'a> {
    inner: &'a Inner,
    tag: u64,
    outbox: &'a mpsc::Sender<Vec<u8>>,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self
                .outbox
                .send(mux_error(self.tag, "broker relay failed mid-session"));
        }
        release_slot(self.inner);
    }
}

/// Admission plus a run slot for one interactive session: the session
/// pays a full quantum, so the DRR never lets it crowd out queued spec
/// campaigns. `None` when admission rejected it (the driver is told) or
/// the scheduler is gone.
fn acquire_slot<'a>(
    inner: &'a Inner,
    tenant: &str,
    tag: u64,
    outbox: &'a mpsc::Sender<Vec<u8>>,
) -> Option<SlotGuard<'a>> {
    let (grant_tx, grant_rx) = mpsc::channel();
    let admitted = inner.sched.lock().expect("sched lock").queue.enqueue(
        tenant,
        inner.opts.quantum,
        Work::Grant(grant_tx),
    );
    if let Err(reason) = admitted {
        BrokerStats::bump(&inner.stats.rejected, 1);
        let _ = outbox.send(mux_error(tag, &format!("admission rejected: {reason}")));
        return None;
    }
    inner.wake.notify_all();
    // An Err means the scheduler is gone: the broker is shutting down.
    grant_rx.recv().ok()?;
    Some(SlotGuard { inner, tag, outbox })
}

/// One interactive plane's per-batch work.
trait Relay {
    /// Runs one driver batch frame on the fleet, handing each reply
    /// payload to `send` as it is ready (`false` once the driver is
    /// gone). Returns the replies sent.
    fn batch(
        &mut self,
        frame: &[u8],
        stats: &BrokerStats,
        send: &dyn Fn(Vec<u8>) -> bool,
    ) -> Result<u64, String>;

    /// Items re-dispatched after worker deaths so far.
    fn redispatched(&self) -> u64;
}

/// The campaign plane: trial batches into a [`RemoteBackend`] session.
impl Relay for Box<dyn CampaignSession> {
    fn batch(
        &mut self,
        frame: &[u8],
        stats: &BrokerStats,
        send: &dyn Fn(Vec<u8>) -> bool,
    ) -> Result<u64, String> {
        let Ok(ClientMessage::Batch(trials)) = ClientMessage::from_wire(frame) else {
            return Err("expected a trial batch frame".to_owned());
        };
        BrokerStats::bump(&stats.trials_dispatched, trials.len() as u64);
        let mut events = 0;
        for event in self.submit(&trials).map_err(|e| e.to_string())? {
            if !send(ServerMessage::Event(event.map_err(|e| e.to_string())?).to_wire()) {
                break;
            }
            events += 1;
        }
        Ok(events)
    }

    fn redispatched(&self) -> u64 {
        redispatched_trials(&self.dispatch_log())
    }
}

/// The search plane: generations into a [`Fleet`].
impl Relay for Fleet {
    fn batch(
        &mut self,
        frame: &[u8],
        stats: &BrokerStats,
        send: &dyn Fn(Vec<u8>) -> bool,
    ) -> Result<u64, String> {
        let batch = EvalBatch::from_wire(frame).map_err(|e| format!("bad eval batch: {e}"))?;
        BrokerStats::bump(&stats.trials_dispatched, batch.individuals.len() as u64);
        let genomes: Vec<Vec<f64>> = batch.individuals.iter().map(|(_, g)| g.clone()).collect();
        let scored = score_generation(self, &batch.context, batch.generation, &genomes)
            .map_err(|e| e.to_string())?;
        // Scores come back by position; answer under the driver's
        // indices, in index order.
        let mut results: Vec<EvalScore> = batch
            .individuals
            .iter()
            .zip(scored)
            .map(|((index, _), score)| EvalScore {
                index: *index,
                ..score
            })
            .collect();
        results.sort_by_key(|s| s.index);
        let sent = results.iter().take_while(|s| send(s.to_wire())).count();
        Ok(sent as u64)
    }

    fn redispatched(&self) -> u64 {
        redispatched_trials(self.log())
    }
}

/// Opens the campaign plane's fleet session for `spec` and answers the
/// driver with the fleet's summarized `JOB_READY`.
fn open_campaign(
    inner: &Inner,
    spec: JobSpec,
    send: &dyn Fn(Vec<u8>) -> bool,
) -> Result<Box<dyn CampaignSession>, String> {
    let opened = fleet_backend(inner)
        .open(spec)
        .map_err(|e| format!("fleet open failed: {e}"))?;
    // The fleet counts as cached only if every worker was.
    let cached = opened
        .provisioning
        .iter()
        .all(|p| p.source == StoreSource::Cached);
    // No store crosses the broker plane: its hash reads 0.
    let (ready, session) = JobReady::summarize(opened, 0);
    let source = if cached {
        StoreSource::Cached
    } else {
        StoreSource::GoldenRun
    };
    send(ServerMessage::Ready { ready, source }.to_wire());
    Ok(session)
}

/// Runs one interactive session: admission, slot wait, fleet open, then
/// one fleet run per driver batch until the driver closes the tag or
/// the connection. A campaign session opens with a setup; a search
/// session (wire v7) opens with its first `EVAL_BATCH`. Both are
/// admitted alike, so chatty drivers never crowd out queued spec
/// campaigns.
fn relay_interactive(
    inner: &Arc<Inner>,
    tenant: &str,
    tag: u64,
    first: Vec<u8>,
    rx: &mpsc::Receiver<Vec<u8>>,
    outbox: &mpsc::Sender<Vec<u8>>,
) {
    BrokerStats::bump(&inner.stats.mux_sessions, 1);
    let send = |payload: Vec<u8>| outbox.send(Mux::wrap(tag, payload).to_wire()).is_ok();
    let fail = |msg: String| {
        let _ = outbox.send(mux_error(tag, &msg));
    };
    let search = peek_kind(&first) == Some(kind::EVAL_BATCH);
    let spec = if search {
        None
    } else if let Ok(ClientMessage::Setup(spec)) = ClientMessage::from_wire(&first) {
        Some(*spec)
    } else {
        return fail("interactive session must open with a setup".to_owned());
    };
    let Some(_slot) = acquire_slot(inner, tenant, tag, outbox) else {
        return;
    };
    let opened: Result<Box<dyn Relay>, String> = match spec {
        Some(spec) => open_campaign(inner, spec, &send).map(|s| Box::new(s) as Box<dyn Relay>),
        None => Fleet::connect(&inner.opts.workers, inner.opts.auth)
            .map(|f| Box::new(f) as Box<dyn Relay>)
            .map_err(|e| format!("fleet open failed: {e}")),
    };
    let mut relay = match opened {
        Ok(relay) => relay,
        Err(msg) => return fail(msg),
    };
    let mut redis_seen = 0u64;
    for frame in search.then_some(first).into_iter().chain(rx.iter()) {
        // The driver's end-of-session marker: release the slot so the
        // next session on this persistent connection can be granted.
        if frame.is_empty() {
            return;
        }
        let replies = match relay.batch(&frame, &inner.stats, &send) {
            Ok(replies) => replies,
            Err(msg) => return fail(msg),
        };
        // The dispatch log accumulates across batches; bump only the
        // delta re-dispatched since the last batch.
        let redispatched = relay.redispatched();
        if redispatched > redis_seen {
            BrokerStats::bump(&inner.stats.trials_redispatched, redispatched - redis_seen);
            redis_seen = redispatched;
        }
        if !send(ServerMessage::Done { events: replies }.to_wire()) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A broker whose scheduler runs but whose fleet is never contacted.
    fn idle_broker(name: &str) -> (Broker, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("avf-broker-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let broker = Broker::start(BrokerOptions {
            workers: vec!["127.0.0.1:1".to_owned()],
            store_path: dir.join("campaigns.log"),
            ..BrokerOptions::default()
        })
        .expect("broker starts");
        (broker, dir)
    }

    fn running(inner: &Inner) -> usize {
        inner.sched.lock().expect("sched lock").running
    }

    #[test]
    fn a_panicking_relay_fails_its_driver_session_and_frees_the_slot() {
        let (broker, dir) = idle_broker("guard-panic");
        let inner = &*broker.inner;
        inner.sched.lock().expect("sched lock").running = 1;
        let (outbox, frames) = mpsc::channel();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _slot = SlotGuard {
                inner,
                tag: 9,
                outbox: &outbox,
            };
            panic!("relay bug");
        }));
        assert!(unwound.is_err());
        let frame = frames.try_recv().expect("the driver hears of the failure");
        let mux = Mux::from_wire(&frame).expect("a MUX frame");
        assert_eq!(mux.tag, 9);
        assert!(matches!(
            ServerMessage::from_wire(&mux.inner),
            Ok(ServerMessage::Error(_))
        ));
        assert_eq!(running(inner), 0, "slot released");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_relay_that_returns_sends_no_error() {
        let (broker, dir) = idle_broker("guard-return");
        let inner = &*broker.inner;
        inner.sched.lock().expect("sched lock").running = 1;
        let (outbox, frames) = mpsc::channel();
        drop(SlotGuard {
            inner,
            tag: 9,
            outbox: &outbox,
        });
        assert!(frames.try_recv().is_err());
        assert_eq!(running(inner), 0, "slot released");
        let _ = std::fs::remove_dir_all(dir);
    }
}
