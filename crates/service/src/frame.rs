//! Length-prefixed framing over a byte stream.
//!
//! Every message on a campaign connection is one frame: a little-endian
//! `u32` payload length followed by the payload (itself an
//! [`avf_isa::wire`] envelope, so the payload's own magic and version
//! are checked after the frame boundary is established). The length
//! header is bounded by [`MAX_FRAME_BYTES`] so a corrupt or hostile
//! header cannot make a worker allocate gigabytes before the payload
//! decoder ever runs.

use std::io::{ErrorKind, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use avf_inject::BackendError;

use crate::auth::{write_frame_signed, AuthSigner};

/// Upper bound on a single frame payload.
///
/// Checkpoint stores never cross the wire: every worker runs (or
/// cache-hits) the golden pass itself. The largest legitimate payload is
/// a job setup or broker submission carrying a whole program, whose data
/// segment is 8 MiB for the largest workload proxies; trial and genome
/// batches, events, scores and campaign reports are far smaller. The
/// bound leaves more than an order of magnitude of headroom over that.
pub const MAX_FRAME_BYTES: u32 = 256 << 20;

/// Writes one frame (length header + payload).
///
/// # Errors
///
/// Returns a [`BackendError`] on transport failure, or
/// [`BackendError::Oversized`] for a payload beyond [`MAX_FRAME_BYTES`]
/// (nothing is written in that case).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), BackendError> {
    write_frame_signed(w, payload, None)
}

/// Reads one frame, or `None` on a clean end-of-stream (the peer closed
/// the connection between frames — the normal way a session ends).
///
/// # Errors
///
/// Returns [`BackendError::Oversized`] for a length header beyond
/// [`MAX_FRAME_BYTES`], and [`BackendError::Io`] for transport failures
/// — including a stream that ends *inside* a frame, which is truncation,
/// not a clean close.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, BackendError> {
    let mut header = [0u8; 4];
    // A clean EOF before any header byte means "no more frames"; an EOF
    // mid-header is a truncated frame.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(BackendError::Io(
                    "stream ended inside a frame header".to_owned(),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(BackendError::Oversized {
            len: u64::from(len),
            max: u64::from(MAX_FRAME_BYTES),
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| BackendError::Io(format!("stream ended inside a {len}-byte frame: {e}")))?;
    Ok(Some(payload))
}

/// Frames buffered before a coalesced flush.
pub const COALESCE_MAX_FRAMES: usize = 32;

/// Longest a queued frame may wait for companions before the next
/// `push` flushes it anyway.
pub const COALESCE_MAX_DELAY: Duration = Duration::from_millis(2);

/// A frame writer that coalesces small frames into one write syscall.
///
/// The event path used to `write + flush` per [`TrialEvent`] — fine on
/// loopback, chatty on a real network (an event frame is 16 bytes of
/// payload; per-frame flushing costs a syscall and, without
/// `TCP_NODELAY`, a round trip each). `push` queues the frame and
/// flushes once [`COALESCE_MAX_FRAMES`] are pending or the oldest
/// queued frame is [`COALESCE_MAX_DELAY`] old, so a fast trial stream
/// batches up while a trickling one still goes out promptly. Callers
/// flush explicitly at protocol barriers (end-of-batch, handshake
/// replies) — coalescing changes *when* bytes move, never what they
/// are, so determinism tests are unaffected.
///
/// [`TrialEvent`]: avf_inject::TrialEvent
pub struct FrameBatcher<W: Write> {
    inner: W,
    buf: Vec<u8>,
    pending: usize,
    oldest: Option<Instant>,
    max_frames: usize,
    max_delay: Duration,
    signer: Option<Arc<AuthSigner>>,
}

impl<W: Write> FrameBatcher<W> {
    /// A batcher with the default count/time window.
    pub fn new(inner: W) -> FrameBatcher<W> {
        FrameBatcher::with_window(inner, COALESCE_MAX_FRAMES, COALESCE_MAX_DELAY)
    }

    /// A batcher with an explicit window (`max_frames` clamped to ≥ 1).
    pub fn with_window(inner: W, max_frames: usize, max_delay: Duration) -> FrameBatcher<W> {
        FrameBatcher {
            inner,
            buf: Vec::new(),
            pending: 0,
            oldest: None,
            max_frames: max_frames.max(1),
            max_delay,
            signer: None,
        }
    }

    /// Attaches a frame signer: every queued frame is tagged with the
    /// signer's next sequence number, in push order, using the
    /// tag-inside-length layout of [`write_frame_signed`].
    #[must_use]
    pub fn with_signer(mut self, signer: Option<Arc<AuthSigner>>) -> FrameBatcher<W> {
        self.signer = signer;
        self
    }

    /// Queues one frame, flushing if the count or time window closed.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Oversized`] for a payload beyond
    /// [`MAX_FRAME_BYTES`] (nothing is queued), or the transport error
    /// of a triggered flush.
    pub fn push(&mut self, payload: &[u8]) -> Result<(), BackendError> {
        write_frame_signed(&mut self.buf, payload, self.signer.as_deref())?;
        self.pending += 1;
        let oldest = *self.oldest.get_or_insert_with(Instant::now);
        if self.pending >= self.max_frames || oldest.elapsed() >= self.max_delay {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes every queued frame in one syscall and flushes the
    /// transport.
    ///
    /// # Errors
    ///
    /// Returns the transport error. A failed flush **poisons the
    /// stream**: an unknown prefix of the queued bytes may already be
    /// on the wire, so re-sending could never be safe — the queue is
    /// dropped and the connection must be abandoned (which is what
    /// every frame-level failure means on this protocol anyway).
    pub fn flush(&mut self) -> Result<(), BackendError> {
        if !self.buf.is_empty() {
            let wrote = self.inner.write_all(&self.buf);
            self.buf.clear();
            self.pending = 0;
            self.oldest = None;
            wrote?;
        }
        self.inner.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, IoSlice};

    /// A sink that counts write syscalls.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for &mut CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), vec![7u8; 1000]);
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    /// A sink that takes at most three bytes per vectored write.
    struct TrickleSink(Vec<u8>);

    impl Write for TrickleSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut left = 3;
            for buf in bufs {
                let n = buf.len().min(left);
                self.0.extend_from_slice(&buf[..n]);
                left -= n;
            }
            Ok(3 - left)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_vectored_writes_still_write_the_whole_frame() {
        for payload in [&b""[..], b"a", b"alpha", &[9u8; 100]] {
            let mut whole = Vec::new();
            write_frame(&mut whole, payload).unwrap();
            let mut sink = TrickleSink(Vec::new());
            write_frame(&mut sink, payload).unwrap();
            assert_eq!(sink.0, whole);
            assert_eq!(whole[4..], *payload);
        }
    }

    #[test]
    fn batcher_coalesces_frames_and_preserves_the_byte_stream() {
        let mut plain = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 16]).collect();
        for p in &payloads {
            write_frame(&mut plain, p).unwrap();
        }

        let mut sink = CountingSink::default();
        {
            // A window wider than the burst: everything coalesces into
            // one write at the explicit flush.
            let mut b = FrameBatcher::with_window(&mut sink, 64, Duration::from_secs(60));
            for p in &payloads {
                b.push(p).unwrap();
            }
            b.flush().unwrap();
        }
        assert_eq!(sink.writes, 1, "ten frames, one syscall");
        assert_eq!(sink.bytes, plain, "coalescing must not alter the stream");

        // Decoders see the identical frame sequence.
        let mut r = Cursor::new(sink.bytes);
        for p in &payloads {
            assert_eq!(&read_frame(&mut r).unwrap().unwrap(), p);
        }
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn batcher_count_window_triggers_intermediate_flushes() {
        let mut sink = CountingSink::default();
        {
            let mut b = FrameBatcher::with_window(&mut sink, 4, Duration::from_secs(60));
            for i in 0..9u8 {
                b.push(&[i]).unwrap();
            }
            b.flush().unwrap();
        }
        // 9 frames at a window of 4: flushes at 4, 8, and the final 1.
        assert_eq!(sink.writes, 3);
    }

    #[test]
    fn batcher_time_window_flushes_stale_frames_on_the_next_push() {
        let mut sink = CountingSink::default();
        {
            let mut b = FrameBatcher::with_window(&mut sink, 1024, Duration::ZERO);
            b.push(b"first").unwrap();
            // Zero delay: the queued frame is already stale, so this
            // push flushes both immediately.
            b.push(b"second").unwrap();
        }
        assert!(sink.writes >= 1);
        let mut r = Cursor::new(sink.bytes);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"second");
    }

    #[test]
    fn batcher_rejects_oversized_frames_without_queueing() {
        let huge = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        let mut sink = CountingSink::default();
        let mut b = FrameBatcher::new(&mut sink);
        assert!(matches!(b.push(&huge), Err(BackendError::Oversized { .. })));
        b.flush().unwrap();
        drop(b);
        assert!(sink.bytes.is_empty(), "nothing queued for the bad frame");
    }

    #[test]
    fn truncated_frames_are_io_errors_not_eof() {
        // Header promises 100 bytes; only 10 arrive.
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 10]);
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(BackendError::Io(_))
        ));
        // A header cut short is also truncation.
        let buf = vec![5u8, 0];
        assert!(matches!(
            read_frame(&mut Cursor::new(buf)),
            Err(BackendError::Io(_))
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut Cursor::new(buf)),
            Err(BackendError::Oversized {
                len: u64::from(u32::MAX),
                max: u64::from(MAX_FRAME_BYTES),
            })
        );
        // Writing is symmetric: the limit is enforced before any bytes
        // go out (the buffer is untouched zero pages until then).
        let huge = vec![0u8; MAX_FRAME_BYTES as usize + 1];
        let mut sink = Vec::new();
        assert_eq!(
            write_frame(&mut std::io::Cursor::new(&mut sink), &huge),
            Err(BackendError::Oversized {
                len: u64::from(MAX_FRAME_BYTES) + 1,
                max: u64::from(MAX_FRAME_BYTES),
            })
        );
        assert!(sink.is_empty(), "nothing written before the rejection");
    }
}
