//! Keyed-hash frame authentication.
//!
//! The service's recorded security gap (open since PR 3): any peer
//! that can reach a worker's port can submit jobs or forge trial
//! events. The container is fully offline — no TLS stack, no crypto
//! crates — so transport security is a shared-key MAC that fits the
//! hand-rolled wire stack: every frame on an authenticated connection
//! carries a SipHash-2-4 tag over `direction || sequence || payload`
//! under a 128-bit key both ends load from `--auth-key-file`.
//!
//! Three properties the tag construction buys:
//!
//! * **Tamper rejection** — the tag covers every payload byte; a
//!   flipped bit fails verification with a typed
//!   [`BackendError::Auth`], never a silent default.
//! * **Replay rejection** — each direction of a connection numbers its
//!   frames from 0 and the verifier's counter advances in lock-step,
//!   so a byte-identical re-send (or a reordering) verifies against
//!   the *wrong* sequence number and is rejected.
//! * **Reflection rejection** — the direction byte differs between
//!   client→server and server→client, so an attacker echoing a peer's
//!   own frames back at it fails the tag check.
//!
//! **Framing is deadlock-free by construction.** An authenticated
//! frame's length header covers `payload + 8-byte tag` — the tag is
//! the *last eight bytes inside* the announced length, not extra bytes
//! after it. A plain peer talking to a keyed peer (in either
//! direction) therefore always reads a complete frame and fails
//! *identifiably*: the keyed reader sees a tag mismatch
//! ([`BackendError::Auth`]), the plain reader sees eight trailing
//! bytes after its payload decode ([`WireError::Invalid`]) — neither
//! side ever blocks waiting for bytes the other will not send.
//!
//! SipHash-2-4 is the right primitive for this setting: it is a
//! *keyed* PRF designed for exactly this short-MAC role (unlike the
//! wire codec's FNV content hash, which is unkeyed and forgeable), it
//! is implementable in ~60 lines with no dependencies, and its 64-bit
//! tags are far beyond online forgery reach for a fleet-internal
//! control channel.
//!
//! [`WireError::Invalid`]: avf_isa::wire::WireError::Invalid

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use avf_inject::BackendError;

use crate::frame::{read_frame, MAX_FRAME_BYTES};

/// Bytes of an authentication tag (a SipHash-2-4 output).
pub const AUTH_TAG_BYTES: usize = 8;

/// Frame direction: driver/broker-client → worker/broker.
pub const DIR_CLIENT_TO_SERVER: u8 = 0;
/// Frame direction: worker/broker → driver/broker-client.
pub const DIR_SERVER_TO_CLIENT: u8 = 1;

// ---------------------------------------------------------------- SipHash-2-4

/// Incremental SipHash-2-4 state (Aumasson & Bernstein), so tags over
/// `prefix || payload` never materialize the concatenation.
struct SipState {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    buf: [u8; 8],
    buf_len: usize,
    total: u64,
}

impl SipState {
    fn new(key: &[u8; 16]) -> SipState {
        let k0 = u64::from_le_bytes(key[..8].try_into().expect("8"));
        let k1 = u64::from_le_bytes(key[8..].try_into().expect("8"));
        SipState {
            v0: k0 ^ 0x736f_6d65_7073_6575,
            v1: k1 ^ 0x646f_7261_6e64_6f6d,
            v2: k0 ^ 0x6c79_6765_6e65_7261,
            v3: k1 ^ 0x7465_6462_7974_6573,
            buf: [0; 8],
            buf_len: 0,
            total: 0,
        }
    }

    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13);
        self.v1 ^= self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16);
        self.v3 ^= self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21);
        self.v3 ^= self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17);
        self.v1 ^= self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.round();
        self.v0 ^= m;
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.buf_len > 0 {
            let need = 8 - self.buf_len;
            let take = need.min(bytes.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&bytes[..take]);
            self.buf_len += take;
            bytes = &bytes[take..];
            if self.buf_len == 8 {
                let m = u64::from_le_bytes(self.buf);
                self.compress(m);
                self.buf_len = 0;
            }
        }
        while bytes.len() >= 8 {
            let m = u64::from_le_bytes(bytes[..8].try_into().expect("8"));
            self.compress(m);
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            self.buf[..bytes.len()].copy_from_slice(bytes);
            self.buf_len = bytes.len();
        }
    }

    fn finish(mut self) -> u64 {
        let mut last = [0u8; 8];
        last[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        last[7] = self.total as u8;
        let m = u64::from_le_bytes(last);
        self.compress(m);
        self.v2 ^= 0xFF;
        self.round();
        self.round();
        self.round();
        self.round();
        self.v0 ^ self.v1 ^ self.v2 ^ self.v3
    }
}

/// SipHash-2-4 of `data` under `key` (the full-input convenience form;
/// the framing path uses the incremental state directly).
#[must_use]
pub fn siphash24(key: &[u8; 16], data: &[u8]) -> u64 {
    let mut s = SipState::new(key);
    s.update(data);
    s.finish()
}

// ----------------------------------------------------------------------- keys

/// A 128-bit shared frame-authentication key.
///
/// On disk the key is 32 hex characters (16 bytes), one line, as
/// produced by e.g. `od -An -tx1 -N16 /dev/urandom | tr -d ' \n'`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AuthKey([u8; 16]);

impl std::fmt::Debug for AuthKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through debug output or logs.
        f.write_str("AuthKey(..)")
    }
}

impl AuthKey {
    /// A key from raw bytes (tests and derived keys).
    #[must_use]
    pub fn from_bytes(bytes: [u8; 16]) -> AuthKey {
        AuthKey(bytes)
    }

    /// Parses the on-disk form: exactly 32 hex characters (surrounding
    /// whitespace tolerated).
    ///
    /// # Errors
    ///
    /// Returns a description of what is wrong with the key material.
    pub fn from_hex(s: &str) -> Result<AuthKey, String> {
        let s = s.trim();
        if s.len() != 32 {
            return Err(format!(
                "auth key must be exactly 32 hex characters (128 bits), got {}",
                s.len()
            ));
        }
        let mut bytes = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks_exact(2).enumerate() {
            let pair = std::str::from_utf8(chunk).map_err(|_| "auth key is not ASCII hex")?;
            bytes[i] = u8::from_str_radix(pair, 16)
                .map_err(|_| format!("auth key contains a non-hex character in `{pair}`"))?;
        }
        Ok(AuthKey(bytes))
    }

    /// Loads and parses a key file (`--auth-key-file`).
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O or parse failure.
    pub fn load(path: &Path) -> Result<AuthKey, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read auth key file `{}`: {e}", path.display()))?;
        AuthKey::from_hex(&text).map_err(|e| format!("auth key file `{}`: {e}", path.display()))
    }

    fn tag(&self, dir: u8, seq: u64, payload: &[u8]) -> [u8; 8] {
        let mut s = SipState::new(&self.0);
        s.update(&[dir]);
        s.update(&seq.to_le_bytes());
        s.update(payload);
        s.finish().to_le_bytes()
    }
}

// --------------------------------------------------------- signers/verifiers

/// Produces tags for one direction of one connection. The sequence
/// counter is atomic so a batching writer can be shared across
/// threads; frames are tagged in the order they are written.
pub struct AuthSigner {
    key: AuthKey,
    dir: u8,
    seq: AtomicU64,
}

impl AuthSigner {
    /// A signer for `dir` starting at sequence 0 (a fresh connection).
    #[must_use]
    pub fn new(key: AuthKey, dir: u8) -> AuthSigner {
        AuthSigner {
            key,
            dir,
            seq: AtomicU64::new(0),
        }
    }

    /// Tags `payload` with the next sequence number.
    #[must_use]
    pub fn sign(&self, payload: &[u8]) -> [u8; 8] {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.key.tag(self.dir, seq, payload)
    }
}

/// Verifies tags for one direction of one connection, advancing its
/// own sequence counter in lock-step with the signer's.
pub struct AuthVerifier {
    key: AuthKey,
    dir: u8,
    seq: AtomicU64,
}

impl AuthVerifier {
    /// A verifier for `dir` starting at sequence 0 (a fresh connection).
    #[must_use]
    pub fn new(key: AuthKey, dir: u8) -> AuthVerifier {
        AuthVerifier {
            key,
            dir,
            seq: AtomicU64::new(0),
        }
    }

    /// Checks `tag` over `payload` at the next expected sequence
    /// number.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Auth`] on any mismatch — wrong key,
    /// tampered payload, or a replayed/reordered frame. The counter
    /// advances either way; an auth failure is fatal for the session.
    pub fn verify(&self, payload: &[u8], tag: [u8; 8]) -> Result<(), BackendError> {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let expected = self.key.tag(self.dir, seq, payload);
        // Fold the comparison through XOR so early-exit timing never
        // reveals how much of a guessed tag matched.
        let diff = expected
            .iter()
            .zip(&tag)
            .fold(0u8, |acc, (a, b)| acc | (a ^ b));
        if diff == 0 {
            Ok(())
        } else {
            Err(BackendError::Auth(format!(
                "tag mismatch on frame {seq}: wrong key, tampered frame, or a \
                 replayed/reordered frame"
            )))
        }
    }
}

/// Both halves of one connection's frame authentication. Each TCP
/// connection gets a fresh pair: per-connection, per-direction
/// sequence spaces are what make replay detection sound. The halves
/// are `Arc`ed so a writer thread (or a [`FrameBatcher`]) and a
/// reader thread can share one connection's state.
///
/// [`FrameBatcher`]: crate::frame::FrameBatcher
pub struct ConnectionAuth {
    /// Tags frames this endpoint writes.
    pub signer: std::sync::Arc<AuthSigner>,
    /// Checks frames this endpoint reads.
    pub verifier: std::sync::Arc<AuthVerifier>,
}

impl ConnectionAuth {
    /// The client (driver / broker-client) end of a connection.
    #[must_use]
    pub fn client(key: AuthKey) -> ConnectionAuth {
        ConnectionAuth {
            signer: std::sync::Arc::new(AuthSigner::new(key, DIR_CLIENT_TO_SERVER)),
            verifier: std::sync::Arc::new(AuthVerifier::new(key, DIR_SERVER_TO_CLIENT)),
        }
    }

    /// The server (worker / broker) end of a connection.
    #[must_use]
    pub fn server(key: AuthKey) -> ConnectionAuth {
        ConnectionAuth {
            signer: std::sync::Arc::new(AuthSigner::new(key, DIR_SERVER_TO_CLIENT)),
            verifier: std::sync::Arc::new(AuthVerifier::new(key, DIR_CLIENT_TO_SERVER)),
        }
    }
}

// -------------------------------------------------------------------- framing

/// Writes one frame, signed when `signer` is set: the frame's length
/// header covers `payload + tag` and the tag is the trailing
/// [`AUTH_TAG_BYTES`] inside it (see the module docs for why this
/// layout can never deadlock a mismatched peer). This is the one frame
/// encoder: [`write_frame`](crate::frame::write_frame) and
/// [`FrameBatcher`](crate::frame::FrameBatcher) (whose buffer is the
/// writer) go through it. The frame goes out in vectored writes, one
/// syscall on a socket, without copying the payload.
///
/// # Errors
///
/// Returns a [`BackendError`] on transport failure, or
/// [`BackendError::Oversized`] for a payload beyond [`MAX_FRAME_BYTES`]
/// (nothing is written and the signer's sequence does not advance).
pub fn write_frame_signed(
    w: &mut impl Write,
    payload: &[u8],
    signer: Option<&AuthSigner>,
) -> Result<(), BackendError> {
    let framed = payload.len() + signer.map_or(0, |_| AUTH_TAG_BYTES);
    let len = u32::try_from(framed)
        .ok()
        .filter(|&l| l <= MAX_FRAME_BYTES)
        .ok_or(BackendError::Oversized {
            len: framed as u64,
            max: u64::from(MAX_FRAME_BYTES),
        })?;
    // Signed only after the size check, so a rejected frame never
    // consumes a sequence number.
    let tag = signer.map(|s| s.sign(payload));
    let header = len.to_le_bytes();
    let mut parts = [&header[..], payload, tag.as_ref().map_or(&[], |t| t)].map(IoSlice::new);
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// [`read_frame`] with an optional verification step: when `verifier`
/// is set, the trailing [`AUTH_TAG_BYTES`] of the frame are checked
/// and stripped before the payload is returned.
///
/// # Errors
///
/// Returns [`BackendError::Auth`] for a frame too short to carry a tag
/// or failing verification, plus every [`read_frame`] error.
pub fn read_frame_verified(
    r: &mut impl Read,
    verifier: Option<&AuthVerifier>,
) -> Result<Option<Vec<u8>>, BackendError> {
    let Some(mut payload) = read_frame(r)? else {
        return Ok(None);
    };
    let Some(verifier) = verifier else {
        return Ok(Some(payload));
    };
    if payload.len() < AUTH_TAG_BYTES {
        return Err(BackendError::Auth(format!(
            "{}-byte frame is too short to carry an auth tag (unauthenticated peer?)",
            payload.len()
        )));
    }
    let body = payload.len() - AUTH_TAG_BYTES;
    let tag: [u8; 8] = payload[body..].try_into().expect("8 tag bytes");
    verifier.verify(&payload[..body], tag)?;
    payload.truncate(body);
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use std::io::Cursor;

    fn key() -> AuthKey {
        AuthKey::from_hex("000102030405060708090a0b0c0d0e0f").unwrap()
    }

    fn other_key() -> AuthKey {
        AuthKey::from_hex("f0e0d0c0b0a090807060504030201000").unwrap()
    }

    #[test]
    fn siphash24_matches_the_reference_vector() {
        // The reference test vector from the SipHash paper: key
        // 000102...0f over the message 00 01 02 ... 3e.
        let k: [u8; 16] = (0..16u8).collect::<Vec<_>>().try_into().unwrap();
        let msg: Vec<u8> = (0..63u8).collect();
        // Expected final vector (row 63 of vectors_sip64).
        assert_eq!(
            siphash24(&k, &msg).to_le_bytes(),
            [0x72, 0x45, 0x06, 0xeb, 0x4c, 0x32, 0x8a, 0x95]
        );
        // And the empty-message row 0.
        assert_eq!(
            siphash24(&k, b"").to_le_bytes(),
            [0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72]
        );
    }

    #[test]
    fn incremental_update_matches_one_shot() {
        let k = [7u8; 16];
        let msg: Vec<u8> = (0..100u8).collect();
        let mut s = SipState::new(&k);
        s.update(&msg[..1]);
        s.update(&msg[1..9]);
        s.update(&msg[9..40]);
        s.update(&msg[40..]);
        assert_eq!(s.finish(), siphash24(&k, &msg));
    }

    #[test]
    fn key_parsing_accepts_hex_and_rejects_garbage() {
        assert!(AuthKey::from_hex("00112233445566778899aabbccddeeff").is_ok());
        assert!(AuthKey::from_hex(" 00112233445566778899aabbccddeeff\n").is_ok());
        assert!(AuthKey::from_hex("short").is_err());
        assert!(AuthKey::from_hex("zz112233445566778899aabbccddeeff").is_err());
        assert_eq!(
            format!("{:?}", key()),
            "AuthKey(..)",
            "no key material in Debug"
        );
    }

    #[test]
    fn signed_frames_round_trip() {
        let client = ConnectionAuth::client(key());
        let server = ConnectionAuth::server(key());
        let mut buf = Vec::new();
        write_frame_signed(&mut buf, b"alpha", Some(&client.signer)).unwrap();
        write_frame_signed(&mut buf, b"", Some(&client.signer)).unwrap();
        write_frame_signed(&mut buf, &[9u8; 500], Some(&client.signer)).unwrap();
        let mut r = Cursor::new(buf);
        let v = Some(server.verifier.as_ref());
        assert_eq!(read_frame_verified(&mut r, v).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame_verified(&mut r, v).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame_verified(&mut r, v).unwrap().unwrap(),
            vec![9u8; 500]
        );
        assert!(read_frame_verified(&mut r, v).unwrap().is_none());
    }

    #[test]
    fn wrong_key_is_a_typed_auth_error() {
        let client = ConnectionAuth::client(key());
        let server = ConnectionAuth::server(other_key());
        let mut buf = Vec::new();
        write_frame_signed(&mut buf, b"payload", Some(&client.signer)).unwrap();
        let err = read_frame_verified(&mut Cursor::new(buf), Some(&server.verifier)).unwrap_err();
        assert!(matches!(err, BackendError::Auth(_)), "{err}");
    }

    #[test]
    fn tampered_payload_is_a_typed_auth_error() {
        let client = ConnectionAuth::client(key());
        let server = ConnectionAuth::server(key());
        let mut buf = Vec::new();
        write_frame_signed(&mut buf, b"payload", Some(&client.signer)).unwrap();
        buf[5] ^= 0x40; // flip a payload bit under the tag
        let err = read_frame_verified(&mut Cursor::new(buf), Some(&server.verifier)).unwrap_err();
        assert!(matches!(err, BackendError::Auth(_)), "{err}");
    }

    #[test]
    fn replayed_frame_is_a_typed_auth_error() {
        let client = ConnectionAuth::client(key());
        let server = ConnectionAuth::server(key());
        let mut once = Vec::new();
        write_frame_signed(&mut once, b"replay me", Some(&client.signer)).unwrap();
        // The byte-identical frame sent twice: the first verifies, the
        // second hits the advanced sequence counter.
        let mut twice = once.clone();
        twice.extend_from_slice(&once);
        let mut r = Cursor::new(twice);
        let v = Some(server.verifier.as_ref());
        assert_eq!(
            read_frame_verified(&mut r, v).unwrap().unwrap(),
            b"replay me"
        );
        let err = read_frame_verified(&mut r, v).unwrap_err();
        assert!(
            matches!(&err, BackendError::Auth(msg) if msg.contains("replayed")),
            "{err}"
        );
    }

    #[test]
    fn reordered_frames_are_typed_auth_errors() {
        let client = ConnectionAuth::client(key());
        let server = ConnectionAuth::server(key());
        let mut a = Vec::new();
        write_frame_signed(&mut a, b"first", Some(&client.signer)).unwrap();
        let mut b = Vec::new();
        write_frame_signed(&mut b, b"second", Some(&client.signer)).unwrap();
        // Deliver frame 1 before frame 0.
        b.extend_from_slice(&a);
        let err = read_frame_verified(&mut Cursor::new(b), Some(&server.verifier)).unwrap_err();
        assert!(matches!(err, BackendError::Auth(_)), "{err}");
    }

    #[test]
    fn reflected_frames_fail_the_direction_check() {
        // An attacker echoes the client's own frame back at it: the
        // client's verifier expects server→client tags.
        let client = ConnectionAuth::client(key());
        let mut buf = Vec::new();
        write_frame_signed(&mut buf, b"echo", Some(&client.signer)).unwrap();
        let err = read_frame_verified(&mut Cursor::new(buf), Some(&client.verifier)).unwrap_err();
        assert!(matches!(err, BackendError::Auth(_)), "{err}");
    }

    #[test]
    fn plain_frame_to_keyed_reader_is_typed_never_a_deadlock() {
        let server = ConnectionAuth::server(key());
        // A short plain frame: under the tag-inside-length layout the
        // keyed reader consumes it fully and rejects it as too short.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hi").unwrap();
        let err = read_frame_verified(&mut Cursor::new(buf), Some(&server.verifier)).unwrap_err();
        assert!(
            matches!(&err, BackendError::Auth(msg) if msg.contains("too short")),
            "{err}"
        );
        // A longer plain frame consumes fully too — its last 8 bytes
        // simply fail the tag check.
        let mut buf = Vec::new();
        write_frame(&mut buf, &[3u8; 64]).unwrap();
        let err = read_frame_verified(&mut Cursor::new(buf), Some(&server.verifier)).unwrap_err();
        assert!(matches!(err, BackendError::Auth(_)), "{err}");
    }

    #[test]
    fn keyed_frame_to_plain_reader_leaves_identifiable_trailing_bytes() {
        // The inverse mismatch: a plain reader reads the whole frame
        // (payload + tag) and its payload decoder reports 8 trailing
        // bytes — a typed WireError, not a hang.
        let client = ConnectionAuth::client(key());
        let mut buf = Vec::new();
        write_frame_signed(&mut buf, b"12345", Some(&client.signer)).unwrap();
        let frame = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(frame.len(), 5 + AUTH_TAG_BYTES, "tag inside the length");
        assert_eq!(&frame[..5], b"12345");
    }

    #[test]
    fn truncated_tag_is_transport_truncation() {
        let client = ConnectionAuth::client(key());
        let server = ConnectionAuth::server(key());
        let mut buf = Vec::new();
        write_frame_signed(&mut buf, b"payload", Some(&client.signer)).unwrap();
        buf.truncate(buf.len() - 3); // cut into the tag
        let err = read_frame_verified(&mut Cursor::new(buf), Some(&server.verifier)).unwrap_err();
        // The length header promised tag bytes that never arrive: the
        // frame layer reports truncation before verification begins.
        assert!(matches!(err, BackendError::Io(_)), "{err}");
    }
}
