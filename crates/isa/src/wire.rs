//! Minimal binary codec for the frames workers, drivers and the broker
//! exchange (job setups, trial batches, events, reports, log records).
//!
//! The workspace builds fully offline, so this is a small hand-rolled
//! little-endian format rather than a serde backend: fixed-width
//! scalars, `u8`-tagged options, and length-prefixed sequences.
//!
//! The format is *internal*: both ends are the same build of this
//! workspace. A leading envelope (magic, version, kind) guards against
//! accidentally mixing blobs across incompatible builds.

use std::fmt;

/// Magic number opening every enveloped wire blob ("AVFW").
///
/// Once blobs cross a socket or land on disk, a stale or foreign payload
/// must fail *identifiably* — a magic mismatch means "this is not ours at
/// all", a version mismatch means "ours, but from an incompatible build"
/// — rather than surfacing as a random [`WireError::BadTag`] deep inside
/// the payload.
pub const WIRE_MAGIC: [u8; 4] = *b"AVFW";

/// Format version of every enveloped blob. Bump on any incompatible
/// change to an enveloped payload's layout.
///
/// v3: `JOB_SETUP` no longer embeds the checkpoint store inline — it
/// carries a content hash plus a golden-run mode, with the store (when
/// needed at all) following in a separate frame after a cache-miss
/// reply.
///
/// v4: the micro-op replay oracle. Snapshot `DynInst` records now carry
/// the fetch-time source-operand values the oracle replays corrupted
/// micro-ops with, `JOB_SETUP` carries the campaign's fault model
/// (trap vs replay), and trial events gained the `ReplayDiverged`
/// outcome code for corrupted entries that decode to architecturally
/// impossible states.
///
/// v5: pre-campaign injection-site pruning. `JOB_SETUP` carries the
/// campaign's prune flag and `JOB_READY` optionally carries the
/// worker-built `PruneMap` (per-target masked-site strata with proof
/// tags), so delegated workers and the driver agree bit-for-bit on the
/// stratified sampling space.
///
/// v6: the campaign broker. New envelope kinds for broker sessions
/// (hello/submit/attach/status/report and campaign-id-tagged `MUX`
/// frames that interleave many campaigns on one socket), a wire codec
/// for complete `CampaignReport`s (requiring `f64` scalar support),
/// and the broker's durable on-disk campaign log records. Frames may
/// additionally carry a keyed-hash authentication tag *outside* the
/// envelope (see `avf-service`'s auth module); the envelope layout
/// itself is unchanged.
///
/// v7: distributed stressmark search. The protocol carries GA fitness
/// jobs, not just injection campaigns: `EVAL_BATCH` ships one
/// generation of genomes (knobs, not programs — each individual is
/// codegen'd worker-side) plus the machine, fault rates, fitness
/// scope, and evaluation budget; `EVAL_RESULT` streams back one
/// individual's score with a cache flag, terminated by the existing
/// `BATCH_DONE` marker.
///
/// v8: one golden-run path. The driver no longer ships checkpoint
/// stores: `JOB_SETUP` carries the checkpoint interval and every
/// worker runs (or cache-hits) the golden pass itself. The three
/// store-handshake kinds (7, 8, 9) are gone, and `JOB_READY` — now the
/// single reply to `JOB_SETUP` — carries whether the worker's cache
/// already held the job.
pub const WIRE_VERSION: u8 = 8;

/// Bytes an envelope occupies on the wire: magic + version + kind.
pub const ENVELOPE_BYTES: usize = 6;

/// The kind byte of an enveloped payload, without decoding it: the
/// envelope's last byte, after the magic and the version. `None` for a
/// payload shorter than an envelope. Magic and version are not checked;
/// the payload's own decoder does that.
#[must_use]
pub fn peek_kind(payload: &[u8]) -> Option<u8> {
    payload
        .get(..ENVELOPE_BYTES)
        .map(|envelope| envelope[ENVELOPE_BYTES - 1])
}

/// Registry of envelope kind bytes, so the payload kinds that cross
/// process boundaries cannot collide.
pub mod kind {
    // Kind 1 carried serialized pipeline snapshots, which never cross a
    // process boundary since v8 (checkpoints stay in memory); retired
    // and not to be reused.
    /// A campaign job specification (program, machine, budgets,
    /// checkpoint interval).
    pub const JOB_SETUP: u8 = 2;
    /// One batch of planned injection trials.
    pub const TRIAL_BATCH: u8 = 3;
    /// One classified per-trial outcome event.
    pub const TRIAL_EVENT: u8 = 4;
    /// End-of-batch marker carrying the event count for the batch.
    pub const BATCH_DONE: u8 = 5;
    /// A fatal error reported by a campaign worker.
    pub const SERVICE_ERROR: u8 = 6;
    // Kinds 7-9 carried the v3-v7 checkpoint-store handshake; retired
    // in v8 and not to be reused.
    /// Worker finished job setup (store resolved, golden run known).
    pub const JOB_READY: u8 = 10;
    /// Driver submits a campaign spec to the broker for queued execution.
    pub const BROKER_SUBMIT: u8 = 11;
    /// Broker accepted a submitted campaign (carries its campaign id).
    pub const BROKER_ACCEPTED: u8 = 12;
    /// Broker rejected a submission (typed admission-control reason).
    pub const BROKER_REJECTED: u8 = 13;
    /// Driver asks for a campaign's current state / final report.
    pub const BROKER_ATTACH: u8 = 14;
    /// Broker reports a campaign's queue/progress state.
    pub const BROKER_STATUS: u8 = 15;
    /// Broker delivers a completed campaign's full `CampaignReport`.
    pub const BROKER_REPORT: u8 = 16;
    /// Broker reports that a campaign failed (carries the error text).
    pub const BROKER_FAILED: u8 = 17;
    /// Durable-log record: a campaign spec was accepted into the queue.
    pub const LOG_ACCEPTED: u8 = 18;
    /// Durable-log record: a trial batch of a running campaign finished.
    pub const LOG_PROGRESS: u8 = 19;
    /// Campaign-id-tagged frame multiplexing one campaign's inner
    /// protocol frame onto a shared broker connection.
    pub const MUX: u8 = 20;
    /// First frame of a broker session: tenant name + intent.
    pub const BROKER_HELLO: u8 = 21;
    /// Broker's reply to [`BROKER_HELLO`] (fleet size, session id).
    pub const BROKER_HELLO_ACK: u8 = 22;
    /// One GA generation of genomes to score (machine, rates, scope,
    /// budget, and `(index, genome)` pairs — the worker codegens each
    /// individual from its genome).
    pub const EVAL_BATCH: u8 = 23;
    /// One individual's fitness score (index, score, cache flag).
    pub const EVAL_RESULT: u8 = 24;
}

/// 64-bit FNV-1a content hash with a leading domain byte.
///
/// This keys the worker-side checkpoint-store cache: hashes over
/// different byte streams in different *domains* (job parameters vs.
/// machine geometry vs. fitness content) must not collide structurally, so every
/// hash mixes in a domain tag first. Not cryptographic — the cache is a
/// bandwidth optimization between trusted peers, and a mismatch is
/// re-verified by the worker before use.
#[must_use]
pub fn content_hash64(domain: u8, bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = (OFFSET ^ u64::from(domain)).wrapping_mul(PRIME);
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Error decoding a wire blob: truncated input, a bad tag, an envelope
/// mismatch, or a value inconsistent with the decoder's machine
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// An enum/option tag byte had an unknown value.
    BadTag(u8),
    /// The envelope does not start with [`WIRE_MAGIC`]: the payload is
    /// not an AVF wire blob at all (garbage, or a foreign protocol).
    BadMagic([u8; 4]),
    /// The envelope carries a format version this build does not speak.
    UnsupportedVersion {
        /// Version byte found in the envelope.
        found: u8,
        /// The version this build encodes and decodes ([`WIRE_VERSION`]).
        expected: u8,
    },
    /// The envelope's kind byte is not the kind the decoder expected
    /// (e.g. a trial-batch frame where a job-setup frame belongs).
    WrongKind {
        /// Kind byte found in the envelope.
        found: u8,
        /// Kind the decoder required.
        expected: u8,
    },
    /// A decoded value is impossible for the decoding configuration
    /// (e.g. an entry index past the structure's geometry).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire input truncated"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t:#04x}"),
            WireError::BadMagic(m) => write!(f, "bad wire magic {m:02x?} (not an AVF blob)"),
            WireError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "wire format version {found} (this build speaks {expected})"
                )
            }
            WireError::WrongKind { found, expected } => {
                write!(
                    f,
                    "wire envelope kind {found} where kind {expected} was expected"
                )
            }
            WireError::Invalid(what) => write!(f, "invalid wire value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a byte vector.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Finishes encoding and returns the bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Opens a self-describing envelope: [`WIRE_MAGIC`], the build's
    /// [`WIRE_VERSION`], and the payload's `kind` byte (see [`kind`]).
    /// Every blob that can cross a process or machine boundary starts
    /// with one, so stale, truncated, or foreign payloads are rejected
    /// with a typed error before any payload field is touched.
    pub fn envelope(&mut self, kind: u8) {
        self.buf.extend_from_slice(&WIRE_MAGIC);
        self.buf.push(WIRE_VERSION);
        self.buf.push(kind);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i16`.
    pub fn i16(&mut self, v: i16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (little-endian
    /// `u64`), so encode/decode round-trips are exact to the bit.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a `usize` as a `u64` (sizes are machine-independent on the
    /// wire).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an optional `u32` as a tag byte plus payload.
    pub fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }

    /// Writes an optional `u64` as a tag byte plus payload.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }

    /// Writes raw bytes (caller is responsible for length framing).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts decoding at the beginning of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Validates an envelope written by [`WireWriter::envelope`] and
    /// returns its kind byte. Checks run outermost-first, so the error
    /// names the most fundamental mismatch: not-ours ([`WireError::BadMagic`]),
    /// then incompatible build ([`WireError::UnsupportedVersion`]).
    pub fn envelope(&mut self) -> Result<u8, WireError> {
        let magic: [u8; 4] = self.take(4)?.try_into().expect("4");
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = self.u8()?;
        if version != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion {
                found: version,
                expected: WIRE_VERSION,
            });
        }
        self.u8()
    }

    /// [`WireReader::envelope`] that additionally requires the kind
    /// byte to be `expected`, failing with [`WireError::WrongKind`].
    pub fn expect_envelope(&mut self, expected: u8) -> Result<(), WireError> {
        let found = self.envelope()?;
        if found != expected {
            return Err(WireError::WrongKind { found, expected });
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a little-endian `i16`.
    pub fn i16(&mut self) -> Result<i16, WireError> {
        Ok(i16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads an `f64` written by [`WireWriter::f64`] (exact bit pattern).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a string written by [`WireWriter::str`].
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.seq_len(1)?;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("string is not UTF-8"))
    }

    /// Reads a `bool` byte (0 or 1).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Reads a `usize` written by [`WireWriter::usize`].
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Invalid("usize overflow"))
    }

    /// Reads a sequence length and validates it against the bytes left
    /// in the input (each element occupies at least `min_elem_bytes` on
    /// the wire). Decoders must use this before `with_capacity`-style
    /// pre-allocation so a corrupt count field fails with a
    /// [`WireError`] instead of a capacity-overflow abort.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n > self.remaining() / min_elem_bytes.max(1) {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Reads an optional `u32`.
    pub fn opt_u32(&mut self) -> Result<Option<u32>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Reads an optional `u64`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Asserts the whole input was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Invalid("trailing bytes after decode"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i32(-12345);
        w.bool(true);
        w.usize(99);
        w.opt_u32(None);
        w.opt_u32(Some(5));
        w.opt_u64(Some(1 << 40));
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i32().unwrap(), -12345);
        assert!(r.bool().unwrap());
        assert_eq!(r.usize().unwrap(), 99);
        assert_eq!(r.opt_u32().unwrap(), None);
        assert_eq!(r.opt_u32().unwrap(), Some(5));
        assert_eq!(r.opt_u64().unwrap(), Some(1 << 40));
        r.finish().unwrap();
    }

    #[test]
    fn f64_round_trips_to_the_bit() {
        let mut w = WireWriter::new();
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::NAN, 0.123_456_789] {
            w.f64(v);
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::NAN, 0.123_456_789] {
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error() {
        let mut w = WireWriter::new();
        w.u32(1);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(r.u64().is_err());
    }

    #[test]
    fn bad_tags_are_errors() {
        let bytes = [2u8];
        assert_eq!(WireReader::new(&bytes).bool(), Err(WireError::BadTag(2)),);
        let bytes = [9u8, 0, 0, 0, 0];
        assert_eq!(WireReader::new(&bytes).opt_u32(), Err(WireError::BadTag(9)),);
    }

    #[test]
    fn seq_len_bounds_counts_by_remaining_input() {
        let mut w = WireWriter::new();
        w.usize(3);
        w.bytes(&[0u8; 12]); // 3 elements × 4 bytes
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.seq_len(4).unwrap(), 3);

        // A corrupt count far beyond the input must error, not allocate.
        let mut w = WireWriter::new();
        w.u64(u64::MAX - 1);
        let bytes = w.into_bytes();
        assert_eq!(
            WireReader::new(&bytes).seq_len(4),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn envelope_round_trips() {
        let mut w = WireWriter::new();
        w.envelope(kind::TRIAL_EVENT);
        w.u32(7);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.envelope().unwrap(), kind::TRIAL_EVENT);
        assert_eq!(r.u32().unwrap(), 7);
        r.finish().unwrap();

        let mut r = WireReader::new(&bytes);
        r.expect_envelope(kind::TRIAL_EVENT).unwrap();
        let mut r = WireReader::new(&bytes);
        assert_eq!(
            r.expect_envelope(kind::JOB_SETUP),
            Err(WireError::WrongKind {
                found: kind::TRIAL_EVENT,
                expected: kind::JOB_SETUP,
            })
        );
    }

    #[test]
    fn peek_kind_reads_the_envelope_without_consuming() {
        let mut w = WireWriter::new();
        w.envelope(kind::BROKER_ATTACH);
        w.u64(1);
        let bytes = w.into_bytes();
        assert_eq!(peek_kind(&bytes), Some(kind::BROKER_ATTACH));
        assert_eq!(
            peek_kind(&bytes[..ENVELOPE_BYTES]),
            Some(kind::BROKER_ATTACH)
        );
        assert_eq!(peek_kind(&bytes[..ENVELOPE_BYTES - 1]), None);
        assert_eq!(peek_kind(&[]), None);
        // Peeking leaves the payload for its decoder.
        let mut r = WireReader::new(&bytes);
        r.expect_envelope(kind::BROKER_ATTACH).unwrap();
        assert_eq!(r.u64().unwrap(), 1);
    }

    #[test]
    fn envelope_rejects_garbage_and_version_skew() {
        // Garbage: not our magic at all.
        let garbage = [0xDEu8, 0xAD, 0xBE, 0xEF, 1, 1];
        assert_eq!(
            WireReader::new(&garbage).envelope(),
            Err(WireError::BadMagic([0xDE, 0xAD, 0xBE, 0xEF]))
        );
        // Truncated: magic cut short.
        assert_eq!(WireReader::new(b"AV").envelope(), Err(WireError::Truncated));
        // A stale blob from a hypothetical older build: right magic,
        // wrong version.
        let mut stale = Vec::from(WIRE_MAGIC);
        stale.push(WIRE_VERSION + 1);
        stale.push(kind::JOB_SETUP);
        assert_eq!(
            WireReader::new(&stale).envelope(),
            Err(WireError::UnsupportedVersion {
                found: WIRE_VERSION + 1,
                expected: WIRE_VERSION,
            })
        );
    }

    #[test]
    fn strings_and_i16_round_trip() {
        let mut w = WireWriter::new();
        w.str("register-chain");
        w.str("");
        w.i16(-300);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.str().unwrap(), "register-chain");
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.i16().unwrap(), -300);
        r.finish().unwrap();

        // A corrupt string length far beyond the input must error.
        let mut w = WireWriter::new();
        w.usize(1 << 40);
        let bytes = w.into_bytes();
        assert_eq!(WireReader::new(&bytes).str(), Err(WireError::Truncated));
    }

    #[test]
    fn content_hash_separates_domains_and_inputs() {
        let a = content_hash64(0, b"checkpoint store bytes");
        assert_eq!(a, content_hash64(0, b"checkpoint store bytes"), "stable");
        assert_ne!(a, content_hash64(1, b"checkpoint store bytes"), "domains");
        assert_ne!(a, content_hash64(0, b"checkpoint store bytez"), "content");
        // The canonical FNV-1a offset basis survives the domain mixing
        // (domain 0 of the empty string is a fixed, documented value).
        assert_eq!(
            content_hash64(0, b""),
            0xCBF2_9CE4_8422_2325u64.wrapping_mul(0x0000_0100_0000_01B3)
        );
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let bytes = [1u8, 2];
        let mut r = WireReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
