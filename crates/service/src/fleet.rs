//! The fleet dispatcher: the one path by which work reaches workers.
//!
//! Campaign trials ([`Trials`]) and GA genomes ([`Genomes`]) travel to
//! the same `serve` workers, directly (`--workers`) or through a broker.
//! Every venue reads replies with [`drain`], which matches each reply
//! against the item it answers (an unassigned or repeated index, or a
//! trial reported against the wrong target, is a protocol violation)
//! and forwards it the moment it arrives. A [`Fleet`] shards work over
//! its live workers, drains every shard at once, and re-dispatches what
//! a dead worker never acknowledged to the survivors, logging every
//! shard as a [`DispatchRecord`]. A kind of work supplies only its shard
//! policy and frame codecs ([`Work`]). Outcomes and scores are pure
//! functions of the item, so re-dispatch changes where work ran, never
//! what it measured.

use std::collections::HashMap;
use std::io::{BufReader, Read};
use std::net::TcpStream;
use std::sync::mpsc::Sender;
use std::sync::Arc;

use avf_ga::par_map;
use avf_inject::{
    encode_trial_batch, shard_trials, BackendError, DispatchRecord, Trial, TrialEvent,
};

use crate::auth::{read_frame_verified, write_frame_signed, AuthKey, ConnectionAuth};
use crate::eval::{genome_key, EvalBatch, EvalContext, EvalReply, EvalScore};
use crate::protocol::ServerMessage;

/// One decoded reply frame.
#[derive(Debug)]
pub enum Reply<A> {
    /// The acknowledgement of the item with this index.
    Ack(u64, A),
    /// End of the shard, with the number of acknowledgements streamed.
    Done(u64),
    /// A fatal error the peer reported.
    Error(String),
}

/// What a kind of work supplies to the dispatcher: a shard policy and
/// the codecs of its request and reply frames.
pub trait Work {
    /// One unit of work.
    type Item: Clone + Send + Sync;
    /// A peer's answer to one item.
    type Ack: Send;

    /// The driver-assigned index an item is acknowledged under.
    fn index(item: &Self::Item) -> u64;

    /// Splits `pending` over the fleet: one shard per slot (`fleet`
    /// of them), empty for every slot not in `live`.
    fn shard(&self, pending: &[Self::Item], live: &[usize], fleet: usize) -> Vec<Vec<Self::Item>>;

    /// The request frame carrying one shard.
    fn encode(&self, shard: &[Self::Item]) -> Vec<u8>;

    /// Decodes one reply frame (`Protocol` for a frame of the wrong kind).
    fn decode(payload: &[u8]) -> Result<Reply<Self::Ack>, BackendError>;

    /// Checks an acknowledgement against the item it answers, naming
    /// what disagrees.
    fn check(_item: &Self::Item, _ack: &Self::Ack) -> Result<(), String> {
        Ok(())
    }
}

/// How draining one shard ended.
#[derive(Debug)]
pub enum Drain<I> {
    /// Every item acknowledged exactly once and the `DONE` count agrees.
    Clean,
    /// The acknowledgement receiver hung up; stop quietly.
    ConsumerGone,
    /// The connection died; `unacknowledged` (in shard order) must run
    /// elsewhere.
    Dead {
        /// Items that never got an acknowledgement.
        unacknowledged: Vec<I>,
        /// The typed, retryable disconnection.
        error: BackendError,
    },
    /// A non-retryable failure: a peer-reported error, a protocol
    /// violation, or a codec error.
    Fatal(BackendError),
}

/// Reads `peer`'s replies to the shard `sent` from `frames` (a verified
/// frame source; `Ok(None)` is a clean close), forwarding every
/// acknowledgement into `tx` as it arrives. This is the only place
/// reply frames are matched against what was dispatched.
pub fn drain<W: Work>(
    mut frames: impl FnMut() -> Result<Option<Vec<u8>>, BackendError>,
    peer: &str,
    sent: &[W::Item],
    tx: &Sender<Result<W::Ack, BackendError>>,
) -> Drain<W::Item> {
    let mut outstanding: HashMap<u64, usize> = sent
        .iter()
        .enumerate()
        .map(|(p, item)| (W::index(item), p))
        .collect();
    let dead = |outstanding: &HashMap<u64, usize>, detail| Drain::Dead {
        // In shard order: a re-dispatched shard runs as cheaply as the
        // original.
        unacknowledged: sent
            .iter()
            .filter(|item| outstanding.contains_key(&W::index(item)))
            .cloned()
            .collect(),
        error: BackendError::Disconnected {
            worker: peer.to_owned(),
            detail,
        },
    };
    let violation = |what: String| Drain::Fatal(BackendError::Protocol(format!("{peer} {what}")));
    let mut acked = 0u64;
    loop {
        let payload = match frames() {
            Ok(Some(payload)) => payload,
            Ok(None) => return dead(&outstanding, "connection closed mid-batch".to_owned()),
            // Transport failures — including a stream truncated inside
            // a frame — are connection death: typed, retryable.
            Err(BackendError::Io(detail)) => return dead(&outstanding, detail),
            Err(e) => return Drain::Fatal(e),
        };
        match W::decode(&payload) {
            Ok(Reply::Ack(index, ack)) => {
                let Some(p) = outstanding.remove(&index) else {
                    return violation(format!(
                        "answered item {index}, which it was never sent (or answered twice)"
                    ));
                };
                if let Err(what) = W::check(&sent[p], &ack) {
                    return violation(what);
                }
                acked += 1;
                if tx.send(Ok(ack)).is_err() {
                    return Drain::ConsumerGone;
                }
            }
            Ok(Reply::Done(count)) => {
                if count != acked || !outstanding.is_empty() {
                    return violation(format!(
                        "reported {count} results, streamed {acked}, expected {}",
                        sent.len()
                    ));
                }
                return Drain::Clean;
            }
            Ok(Reply::Error(msg)) => return Drain::Fatal(BackendError::Remote(msg)),
            Err(BackendError::Protocol(what)) => return violation(what),
            Err(e) => return Drain::Fatal(e),
        }
    }
}

/// One authenticated peer connection. In a [`Fleet`], slots keep their
/// index for the fleet's life, so a dead worker leaves a hole rather
/// than renumbering the survivors (genome affinity depends on it).
pub struct Slot {
    /// The peer's address.
    pub addr: String,
    /// `None` once the connection died.
    stream: Option<TcpStream>,
    /// This connection's frame-auth state (`None` on a plain fleet).
    auth: Option<Arc<ConnectionAuth>>,
}

impl Slot {
    /// Connects to `addr`, keyed under `key` when given.
    pub fn connect(addr: &str, key: Option<AuthKey>) -> Result<Slot, BackendError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| BackendError::Io(format!("connect {addr}: {e}")))?;
        // Reply frames are tiny; don't let Nagle batch them up.
        let _ = stream.set_nodelay(true);
        Ok(Slot {
            addr: addr.to_owned(),
            stream: Some(stream),
            auth: key.map(|k| Arc::new(ConnectionAuth::client(k))),
        })
    }

    /// The connection (panics on a dead slot).
    #[must_use]
    pub fn stream(&self) -> &TcpStream {
        self.stream.as_ref().expect("a live slot")
    }

    /// Signs and writes one frame.
    pub fn send(&self, payload: &[u8]) -> Result<(), BackendError> {
        write_frame_signed(
            &mut self.stream(),
            payload,
            self.auth.as_ref().map(|a| a.signer.as_ref()),
        )
    }

    /// Reads one verified frame; `None` on a clean close.
    pub fn recv(&self, reader: &mut impl Read) -> Result<Option<Vec<u8>>, BackendError> {
        read_frame_verified(reader, self.auth.as_ref().map(|a| a.verifier.as_ref()))
    }

    /// A fresh reader over the connection. The peer sends nothing
    /// between a `DONE` and the next request, so dropping the reader
    /// after a reply cannot strand bytes.
    pub(crate) fn reader(&self) -> BufReader<&TcpStream> {
        BufReader::new(self.stream())
    }
}

/// A set of worker connections plus the log of every shard dispatched
/// to them.
pub struct Fleet {
    slots: Vec<Slot>,
    log: Vec<DispatchRecord>,
    /// The latest disconnection, surfaced when no worker remains.
    last_error: Option<BackendError>,
}

impl Fleet {
    pub(crate) fn new(slots: Vec<Slot>) -> Fleet {
        Fleet {
            slots,
            log: Vec::new(),
            last_error: None,
        }
    }

    /// Connects to every worker up front; any refused connection fails
    /// the whole fleet (starting against a half-broken fleet is a
    /// configuration error, not a runtime fault).
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if `addrs` is empty or any connection
    /// fails.
    pub fn connect(addrs: &[String], key: Option<AuthKey>) -> Result<Fleet, BackendError> {
        if addrs.is_empty() {
            return Err(BackendError::Protocol(
                "a fleet needs at least one worker address".to_owned(),
            ));
        }
        let slots = addrs
            .iter()
            .map(|addr| Slot::connect(addr, key))
            .collect::<Result<_, _>>()?;
        Ok(Fleet::new(slots))
    }

    fn kill(&mut self, slot: usize, error: BackendError) {
        crate::log_line!("fleet: worker {} died: {error}", self.slots[slot].addr);
        self.slots[slot].stream = None;
        self.last_error = Some(error);
    }
}

/// Somewhere work runs: a worker [`Fleet`], or a broker session
/// fronting one.
pub trait Venue {
    /// Runs `items` to completion as batch `batch`, forwarding every
    /// acknowledgement into `tx` as it arrives. A consumer that hung up
    /// ends the run quietly.
    ///
    /// # Errors
    ///
    /// A failure the venue cannot recover from.
    fn dispatch<W: Work>(
        &mut self,
        work: &W,
        batch: u64,
        items: Vec<W::Item>,
        tx: &Sender<Result<W::Ack, BackendError>>,
    ) -> Result<(), BackendError>;

    /// Every dispatch so far, in dispatch order, re-dispatches included.
    fn log(&self) -> &[DispatchRecord];
}

/// Each round writes one shard to each live worker, drains all of them
/// at once, and re-queues what dead workers left unacknowledged; the
/// run fails with the last disconnection once no worker survives, or
/// with a round's first fatal error.
impl Venue for Fleet {
    fn dispatch<W: Work>(
        &mut self,
        work: &W,
        batch: u64,
        mut pending: Vec<W::Item>,
        tx: &Sender<Result<W::Ack, BackendError>>,
    ) -> Result<(), BackendError> {
        let mut redispatched = false;
        while !pending.is_empty() {
            let live: Vec<usize> = (0..self.slots.len())
                .filter(|&i| self.slots[i].stream.is_some())
                .collect();
            if live.is_empty() {
                return Err(self
                    .last_error
                    .take()
                    .unwrap_or_else(|| BackendError::Disconnected {
                        worker: "all".to_owned(),
                        detail: "no live worker remains to dispatch to".to_owned(),
                    }));
            }
            if redispatched {
                crate::log_line!(
                    "fleet: re-dispatching {} unacknowledged item(s) to {} survivor(s)",
                    pending.len(),
                    live.len()
                );
            }
            let mut deferred = Vec::new();
            let mut round = Vec::new();
            for (slot, shard) in work
                .shard(&pending, &live, self.slots.len())
                .into_iter()
                .enumerate()
            {
                if shard.is_empty() {
                    continue;
                }
                match self.slots[slot].send(&work.encode(&shard)) {
                    Ok(()) => {
                        self.log.push(DispatchRecord {
                            batch,
                            worker: self.slots[slot].addr.clone(),
                            trials: shard.len() as u64,
                            redispatched,
                        });
                        round.push((slot, shard));
                    }
                    Err(e) => {
                        let error = BackendError::Disconnected {
                            worker: self.slots[slot].addr.clone(),
                            detail: e.to_string(),
                        };
                        self.kill(slot, error);
                        deferred.extend(shard);
                    }
                }
            }

            // One thread per shard drains the round; the whole round is
            // joined before re-dispatching, so a survivor is never
            // written to while its reader is mid-stream.
            let slots = &self.slots;
            let fates = par_map(round.len(), &round, |(slot, shard)| {
                let slot = &slots[*slot];
                let mut reader = slot.reader();
                drain::<W>(|| slot.recv(&mut reader), &slot.addr, shard, tx)
            });
            let mut fatal = None;
            let mut consumer_gone = false;
            for ((slot, _), fate) in round.iter().zip(fates) {
                match fate {
                    Drain::Clean => {}
                    Drain::ConsumerGone => consumer_gone = true,
                    Drain::Dead {
                        unacknowledged,
                        error,
                    } => {
                        self.kill(*slot, error);
                        deferred.extend(unacknowledged);
                    }
                    Drain::Fatal(e) => {
                        fatal.get_or_insert(e);
                    }
                }
            }
            if consumer_gone {
                return Ok(());
            }
            if let Some(e) = fatal {
                return Err(e);
            }
            pending = deferred;
            redispatched = true;
        }
        Ok(())
    }

    fn log(&self) -> &[DispatchRecord] {
        &self.log
    }
}

/// Campaign trials: strided over the live workers in injection-cycle
/// order ([`shard_trials`]); answered by `TRIAL_EVENT`s that must name
/// the dispatched trial's target.
pub struct Trials;

impl Work for Trials {
    type Item = Trial;
    type Ack = TrialEvent;

    fn index(trial: &Trial) -> u64 {
        trial.index
    }

    fn shard(&self, pending: &[Trial], live: &[usize], fleet: usize) -> Vec<Vec<Trial>> {
        let mut shards = vec![Vec::new(); fleet];
        for (k, shard) in shard_trials(pending, live.len()).into_iter().enumerate() {
            shards[live[k]] = shard;
        }
        shards
    }

    fn encode(&self, shard: &[Trial]) -> Vec<u8> {
        encode_trial_batch(shard)
    }

    fn decode(payload: &[u8]) -> Result<Reply<TrialEvent>, BackendError> {
        match ServerMessage::from_wire(payload)? {
            ServerMessage::Event(ev) => Ok(Reply::Ack(ev.index, ev)),
            ServerMessage::Done { events } => Ok(Reply::Done(events)),
            ServerMessage::Error(msg) => Ok(Reply::Error(msg)),
            other => Err(BackendError::Protocol(format!("sent {other:?} mid-batch"))),
        }
    }

    fn check(trial: &Trial, ev: &TrialEvent) -> Result<(), String> {
        if ev.target == trial.target {
            Ok(())
        } else {
            Err(format!(
                "reported trial {} against {}, but it was dispatched against {}",
                ev.index, ev.target, trial.target
            ))
        }
    }
}

/// One generation of GA genomes as `(individual index, genes)`:
/// sharded by `genome_key % fleet size`, so a re-scored elite lands on
/// the worker whose cache holds it (falling back to a live worker when
/// that one is dead); answered by `EVAL_RESULT`s.
pub struct Genomes<'a> {
    /// What every genome is scored against.
    pub context: &'a EvalContext,
    /// Generation number (logging only).
    pub generation: u64,
}

/// One individual: its driver-assigned index and its genes.
type Genome = (u64, Vec<f64>);

impl Work for Genomes<'_> {
    type Item = Genome;
    type Ack = EvalScore;

    fn index(item: &Genome) -> u64 {
        item.0
    }

    fn shard(&self, pending: &[Genome], live: &[usize], fleet: usize) -> Vec<Vec<Genome>> {
        let mut shards = vec![Vec::new(); fleet];
        for item in pending {
            let key = genome_key(&item.1);
            let preferred = (key % fleet as u64) as usize;
            let slot = if live.contains(&preferred) {
                preferred
            } else {
                live[(key % live.len() as u64) as usize]
            };
            shards[slot].push(item.clone());
        }
        shards
    }

    fn encode(&self, shard: &[Genome]) -> Vec<u8> {
        EvalBatch {
            context: self.context.clone(),
            generation: self.generation,
            individuals: shard.to_vec(),
        }
        .to_wire()
    }

    fn decode(payload: &[u8]) -> Result<Reply<EvalScore>, BackendError> {
        Ok(match EvalReply::from_wire(payload)? {
            EvalReply::Score(score) => Reply::Ack(score.index, score),
            EvalReply::Done { results } => Reply::Done(results),
            EvalReply::Error(msg) => Reply::Error(msg),
        })
    }
}
