//! Length-framed byte streams: how codec payloads survive a transport
//! that delivers *bytes*, not messages.
//!
//! The frame layout is pinned next to the codec's version byte
//! ([`polystyrene_protocol::codec::FRAME_VERSION`]): a `u32`
//! little-endian length prefix counting everything after itself, one
//! frame-version byte, then the payload. [`write_frame`] emits the whole
//! frame with a single `write_all` (short writes are retried inside it).
//!
//! Two readers take frames apart, under one set of rules (`frame_size`:
//! oversized or mis-versioned frames are rejected *before* any room is
//! made for them). [`read_frame`] pulls a frame out of a blocking
//! stream, from however many partial reads the socket produces, and
//! distinguishes three non-frame outcomes a socket loop needs: clean
//! close at a frame boundary, idle timeout before a frame started, and
//! hard stream errors (which include a close or timeout *mid-frame*:
//! once a frame's first byte arrived, anything but its completion is
//! stream corruption). `Reassembly` is the same thing turned inside out
//! for the transport's I/O thread, which is handed whatever a
//! non-blocking read returned and cannot wait for more: bytes are pushed
//! in, whole payloads come out, and the caller keeps the clock.

use polystyrene_protocol::codec::{FRAME_VERSION, MAX_FRAME_BYTES};
use std::io::{self, Read, Write};

/// Outcome of one [`read_frame`] attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete frame's payload.
    Frame(Vec<u8>),
    /// The stream closed cleanly at a frame boundary.
    Closed,
    /// A read timeout fired before any byte of a new frame arrived —
    /// the connection is merely idle, not broken. Only surfaced when the
    /// underlying stream has a read timeout configured.
    Idle,
}

/// Outcome of one [`read_frame_into`] attempt — [`FrameRead`] with the
/// payload landing in the caller's reused buffer instead of a fresh
/// allocation per frame.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameStatus {
    /// A complete frame; its payload is in the caller's buffer.
    Frame,
    /// The stream closed cleanly at a frame boundary.
    Closed,
    /// A read timeout fired before any byte of a new frame arrived.
    Idle,
}

/// Whether an IO error is a read-timeout expiry (both kinds, for
/// platform portability).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Default wall-clock budget for completing one frame once its first
/// byte has arrived ([`read_frame`] = [`read_frame_deadline`] with
/// this). A well-behaved sender emits each frame with a single
/// `write_all`, so even brutal scheduling jitter clears one frame in
/// well under a second; a sender that opens a frame and then trickles
/// or stalls — dead in a way the kernel has not surfaced yet, or
/// hostile — must not pin a blocking reader, nor hold a connection of
/// the transport's I/O thread open (which sweeps its connections
/// against the same budget), without bound. A wall deadline, not a
/// window counter: counting empty timeout windows would be defeated by
/// one byte per window.
pub const MID_FRAME_DEADLINE: std::time::Duration = std::time::Duration::from_secs(30);

/// Fills `buf` across as many partial reads as it takes.
///
/// `at_boundary` declares that no byte of the current frame has been
/// consumed yet, making two outcomes non-errors: EOF (`Closed`) and a
/// read timeout (`Idle`). Past the boundary the frame has started, so
/// EOF becomes [`io::ErrorKind::UnexpectedEof`] — a peer that dies
/// mid-frame must poison the stream, never desync it — and the whole
/// fill must land within `deadline` of the frame's first byte or the
/// stall itself poisons the stream.
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
    deadline: std::time::Duration,
) -> io::Result<Option<FrameRead>> {
    let mut filled = 0;
    // Armed from the frame's first byte: boundary fills start the clock
    // only once something arrived, later fills are mid-frame already.
    let mut expires: Option<std::time::Instant> = if at_boundary {
        None
    } else {
        Some(std::time::Instant::now() + deadline)
    };
    while filled < buf.len() {
        if expires.is_some_and(|at| std::time::Instant::now() > at) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame not completed within the mid-frame deadline",
            ));
        }
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if at_boundary && filled == 0 {
                    return Ok(Some(FrameRead::Closed));
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-frame",
                ));
            }
            Ok(n) => {
                filled += n;
                expires.get_or_insert_with(|| std::time::Instant::now() + deadline);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if at_boundary && filled == 0 {
                    return Ok(Some(FrameRead::Idle));
                }
                // Mid-frame the peer is expected to be actively
                // writing: ride out scheduling jitter until the
                // deadline says otherwise.
            }
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Reads one frame, handling partial reads, and returns its payload —
/// or [`FrameRead::Closed`] / [`FrameRead::Idle`] when the stream ended
/// or timed out *between* frames. Equivalent to
/// [`read_frame_deadline`] with [`MID_FRAME_DEADLINE`].
///
/// # Errors
///
/// Any mid-frame stream failure, a frame that fails to complete within
/// the deadline of its first byte, a declared length of zero or above
/// [`MAX_FRAME_BYTES`] (rejected before allocating), or a
/// frame-version byte other than [`FRAME_VERSION`].
pub fn read_frame(r: &mut impl Read) -> io::Result<FrameRead> {
    read_frame_deadline(r, MID_FRAME_DEADLINE)
}

/// [`read_frame`] with an explicit wall-clock budget per frame segment,
/// counted from the frame's first byte (idling *between* frames is
/// unlimited — that is what [`FrameRead::Idle`] reports).
pub fn read_frame_deadline(
    r: &mut impl Read,
    deadline: std::time::Duration,
) -> io::Result<FrameRead> {
    let mut payload = Vec::new();
    Ok(match read_frame_into(r, deadline, &mut payload)? {
        FrameStatus::Frame => FrameRead::Frame(payload),
        FrameStatus::Closed => FrameRead::Closed,
        FrameStatus::Idle => FrameRead::Idle,
    })
}

/// [`read_frame_deadline`] reading the payload into a caller-owned
/// buffer (cleared and overwritten), so a connection's reader amortizes
/// one allocation over every frame it will ever receive instead of
/// paying a fresh frame-body `Vec` per message. Length sanity is still
/// checked *before* the buffer is grown.
pub fn read_frame_into(
    r: &mut impl Read,
    deadline: std::time::Duration,
    payload: &mut Vec<u8>,
) -> io::Result<FrameStatus> {
    let mut header = [0u8; HEADER_BYTES];
    if let Some(outcome) = fill(r, &mut header[..4], true, deadline)? {
        return Ok(match outcome {
            FrameRead::Closed => FrameStatus::Closed,
            _ => FrameStatus::Idle,
        });
    }
    // The length is judged before the reader waits for anything more.
    frame_size(&header[..4])?;
    fill(r, &mut header[4..], false, deadline)?;
    let size = frame_size(&header)?.expect("a whole header names its frame's size");
    payload.clear();
    payload.resize(size - HEADER_BYTES, 0);
    fill(r, payload, false, deadline)?;
    Ok(FrameStatus::Frame)
}

/// What precedes a frame's payload on the wire: the length prefix and
/// the frame-version byte.
const HEADER_BYTES: usize = 5;

/// The frame rules, applied to as much of a frame's header as `seen`
/// holds (bytes past the header are not looked at): the declared length
/// as soon as its four bytes are there, the version byte once it is.
/// Returns the frame's whole size on the wire, header included, when
/// the header is complete. Both readers ([`read_frame_into`] on a
/// blocking stream, [`Reassembly`] on pushed slices) judge a frame
/// here, and before either makes room for its payload.
///
/// # Errors
///
/// `InvalidData` for a declared length outside `1..=`[`MAX_FRAME_BYTES`]
/// or a version byte other than [`FRAME_VERSION`].
fn frame_size(seen: &[u8]) -> io::Result<Option<usize>> {
    let Some(prefix) = seen.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME_BYTES}"),
        ));
    }
    match seen.get(4) {
        None => Ok(None),
        Some(&FRAME_VERSION) => Ok(Some(4 + len)),
        Some(version) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame version {version} (expected {FRAME_VERSION})"),
        )),
    }
}

/// Frame reassembly for a reader that is handed bytes instead of asking
/// for them: whatever a non-blocking `read` returned goes in, whole
/// payloads come out. One per connection. It holds memory only while a
/// frame is incomplete: frames that arrive whole are handed out of the
/// caller's own buffer.
#[derive(Debug, Default)]
pub(crate) struct Reassembly {
    /// The bytes seen so far of an incomplete frame, header included.
    carry: Vec<u8>,
}

impl Reassembly {
    /// Takes the next `bytes` of the stream and calls `on_frame` with
    /// the payload of every frame they complete, in order. `on_frame`
    /// answers whether the payload was acceptable.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a header [`read_frame_into`] would reject, at
    /// the byte that shows it and before any room is made for the
    /// payload, and for a payload `on_frame` refuses. The stream cannot
    /// be resynchronized after either: the caller drops the connection.
    pub(crate) fn push(
        &mut self,
        mut bytes: &[u8],
        mut on_frame: impl FnMut(&[u8]) -> bool,
    ) -> io::Result<()> {
        let mut hand_out = |payload: &[u8]| {
            if on_frame(payload) {
                Ok(())
            } else {
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "frame payload refused",
                ))
            }
        };
        loop {
            if self.carry.is_empty() {
                if let Some(size) = frame_size(bytes)?.filter(|&size| size <= bytes.len()) {
                    hand_out(&bytes[HEADER_BYTES..size])?;
                    bytes = &bytes[size..];
                    continue;
                }
                if bytes.is_empty() {
                    return Ok(());
                }
            }
            // An incomplete frame is gathered in `carry`: up to its
            // header first, which says how much more to make room for.
            let size = frame_size(&self.carry)?;
            let wanted = size.unwrap_or(HEADER_BYTES) - self.carry.len();
            let (taken, rest) = bytes.split_at(wanted.min(bytes.len()));
            self.carry.reserve_exact(wanted);
            self.carry.extend_from_slice(taken);
            bytes = rest;
            if taken.len() < wanted {
                // Out of bytes mid-frame: what there is of the header
                // is judged now, not when the rest arrives.
                return frame_size(&self.carry).map(|_| ());
            }
            if size.is_some() {
                hand_out(&self.carry[HEADER_BYTES..])?;
                self.carry = Vec::new();
            }
        }
    }

    /// Whether a frame has started and not yet completed.
    pub(crate) fn mid_frame(&self) -> bool {
        !self.carry.is_empty()
    }
}

/// Writes one frame (length prefix, version byte, payload) as a single
/// buffer, so a frame is never interleaved with torn sibling writes.
///
/// # Errors
///
/// A payload larger than [`MAX_FRAME_BYTES`] − 1 (it could never be
/// read back), or any underlying write failure — `write_all` retries
/// short writes internally.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::new();
    write_frame_into(w, payload, &mut frame)
}

/// [`write_frame`] assembling the frame in a caller-owned scratch buffer
/// (cleared and overwritten), so a send loop serializes every outgoing
/// frame through one reused allocation.
pub fn write_frame_into(w: &mut impl Write, payload: &[u8], frame: &mut Vec<u8>) -> io::Result<()> {
    let len = payload.len() + 1;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("payload of {} bytes exceeds the max frame", payload.len()),
        ));
    }
    frame.clear();
    frame.reserve(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.push(FRAME_VERSION);
    frame.extend_from_slice(payload);
    w.write_all(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A reader that hands out at most one byte per `read` call — the
    /// worst partial-read behavior a socket can legally exhibit.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    /// A reader that times out a fixed number of times before each byte.
    struct Flaky {
        bytes: Vec<u8>,
        at: usize,
        timeouts_before_each_byte: usize,
        countdown: usize,
    }

    impl Read for Flaky {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.countdown > 0 {
                self.countdown -= 1;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
            }
            self.countdown = self.timeouts_before_each_byte;
            if self.at >= self.bytes.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn roundtrip_through_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            FrameRead::Frame(b"hello".to_vec())
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), FrameRead::Frame(vec![]));
        assert_eq!(read_frame(&mut cursor).unwrap(), FrameRead::Closed);
    }

    #[test]
    fn into_variants_reuse_dirty_buffers() {
        // One payload buffer and one frame scratch survive several
        // frames of different sizes: every read must fully replace the
        // previous (possibly longer) contents.
        let mut frame_scratch = vec![0xAA; 64];
        let mut wire = Vec::new();
        write_frame_into(&mut wire, b"first frame", &mut frame_scratch).unwrap();
        write_frame_into(&mut wire, b"2nd", &mut frame_scratch).unwrap();
        let mut cursor = io::Cursor::new(wire);
        let mut payload = vec![0xBB; 128]; // deliberately dirty and oversized
        assert_eq!(
            read_frame_into(&mut cursor, MID_FRAME_DEADLINE, &mut payload).unwrap(),
            FrameStatus::Frame
        );
        assert_eq!(payload, b"first frame");
        let cap = payload.capacity();
        assert_eq!(
            read_frame_into(&mut cursor, MID_FRAME_DEADLINE, &mut payload).unwrap(),
            FrameStatus::Frame
        );
        assert_eq!(payload, b"2nd");
        assert_eq!(payload.capacity(), cap, "reuse must keep the allocation");
        assert_eq!(
            read_frame_into(&mut cursor, MID_FRAME_DEADLINE, &mut payload).unwrap(),
            FrameStatus::Closed
        );
    }

    #[test]
    fn partial_reads_reassemble_the_frame() {
        let mut r = Trickle {
            bytes: framed(b"partial"),
            at: 0,
        };
        assert_eq!(
            read_frame(&mut r).unwrap(),
            FrameRead::Frame(b"partial".to_vec())
        );
        assert_eq!(read_frame(&mut r).unwrap(), FrameRead::Closed);
    }

    #[test]
    fn timeouts_between_frames_are_idle_but_mid_frame_waits() {
        let mut r = Flaky {
            bytes: framed(b"xy"),
            at: 0,
            timeouts_before_each_byte: 2,
            countdown: 2,
        };
        // First attempt hits the timeout before any byte: idle.
        assert_eq!(read_frame(&mut r).unwrap(), FrameRead::Idle);
        assert_eq!(read_frame(&mut r).unwrap(), FrameRead::Idle);
        // Third attempt gets the first byte, then rides out every
        // subsequent timeout until the frame completes.
        assert_eq!(
            read_frame(&mut r).unwrap(),
            FrameRead::Frame(b"xy".to_vec())
        );
    }

    /// A reader whose bytes run out into an endless timeout — a sender
    /// that opened a frame and went silent without closing.
    struct Stall {
        bytes: Vec<u8>,
        at: usize,
    }

    impl Read for Stall {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at >= self.bytes.len() || buf.is_empty() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
            }
            buf[0] = self.bytes[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn abandoned_mid_frame_poisons_the_stream_instead_of_pinning_the_reader() {
        // Only the length prefix ever arrives; the frame body never
        // comes and the connection never closes. The reader must give
        // up at the deadline, not retry timeouts forever (a hostile
        // half-frame would otherwise pin the reading thread for the
        // life of the process). A wall deadline also defeats the
        // byte-trickle variant that a consecutive-empty-window counter
        // would miss.
        let mut r = Stall {
            bytes: framed(b"never finished")[..4].to_vec(),
            at: 0,
        };
        let err = read_frame_deadline(&mut r, Duration::from_millis(20))
            .expect_err("an abandoned frame must poison the stream");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        // Before any frame byte, the same endless silence is mere
        // idleness, reported as such every time.
        let mut idle = Stall {
            bytes: Vec::new(),
            at: 0,
        };
        for _ in 0..3 {
            assert_eq!(
                read_frame_deadline(&mut idle, Duration::from_millis(20)).unwrap(),
                FrameRead::Idle
            );
        }
    }

    #[test]
    fn truncation_mid_frame_is_an_error_not_a_close() {
        let full = framed(b"truncated");
        for cut in 1..full.len() {
            let mut cursor = io::Cursor::new(full[..cut].to_vec());
            let err = read_frame(&mut cursor).expect_err("mid-frame EOF must error");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_and_zero_lengths_rejected_before_allocating() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.push(FRAME_VERSION);
        let err = read_frame(&mut io::Cursor::new(huge)).expect_err("oversized");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut zero = Vec::new();
        zero.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(zero)).expect_err("zero length");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_frame_version_rejected() {
        let mut bad = framed(b"v?");
        bad[4] = FRAME_VERSION + 1;
        let err = read_frame(&mut io::Cursor::new(bad)).expect_err("bad version");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_payload_refused_at_write_time() {
        // MAX_FRAME_BYTES zeroes: one byte over the limit once the
        // frame-version byte is counted.
        let payload = vec![0u8; MAX_FRAME_BYTES];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &payload).expect_err("too large");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "nothing may reach the stream");
    }

    /// A writer accepting one byte per call: `write_all` inside
    /// `write_frame` must retry until the whole frame is out.
    struct ShortWriter {
        out: Vec<u8>,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.out.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_are_retried_to_completion() {
        let mut w = ShortWriter { out: Vec::new() };
        write_frame(&mut w, b"short").unwrap();
        assert_eq!(w.out, framed(b"short"));
    }

    /// Pushes `chunks` through a fresh [`Reassembly`] and returns the
    /// payloads handed out, with the reassembly for a look inside.
    fn reassemble(chunks: &[&[u8]]) -> io::Result<(Vec<Vec<u8>>, Reassembly)> {
        let mut frames = Reassembly::default();
        let mut out = Vec::new();
        for chunk in chunks {
            frames.push(chunk, |payload| {
                out.push(payload.to_vec());
                true
            })?;
        }
        Ok((out, frames))
    }

    #[test]
    fn reassembly_takes_a_frame_one_byte_per_push() {
        let mut wire = framed(b"trickled");
        wire.extend(framed(b""));
        let bytes: Vec<&[u8]> = wire.chunks(1).collect();
        let (out, frames) = reassemble(&bytes).unwrap();
        assert_eq!(out, [b"trickled".to_vec(), vec![]]);
        assert!(!frames.mid_frame());
        assert_eq!(frames.carry.capacity(), 0, "nothing is kept between frames");
    }

    #[test]
    fn reassembly_takes_two_frames_and_a_half_in_one_push() {
        let mut wire = framed(b"one");
        wire.extend(framed(b"two"));
        let third = framed(b"the third frame");
        for cut in 1..third.len() {
            let mut first = wire.clone();
            first.extend(&third[..cut]);
            let (out, frames) = reassemble(&[&first]).unwrap();
            assert_eq!(out, [b"one".to_vec(), b"two".to_vec()], "cut at {cut}");
            assert!(frames.mid_frame(), "cut at {cut}");
            assert!(
                frames.carry.capacity() <= third.len(),
                "the carry holds one frame at most, cut at {cut}"
            );
            let (out, frames) = reassemble(&[&first, &third[cut..], &wire]).unwrap();
            assert_eq!(out.len(), 5, "cut at {cut}");
            assert_eq!(out[2], b"the third frame", "cut at {cut}");
            assert_eq!(out[4], b"two", "cut at {cut}");
            assert!(!frames.mid_frame(), "cut at {cut}");
        }
    }

    #[test]
    fn reassembly_rejects_a_bad_header_without_making_room_for_it() {
        let zero = 0u32.to_le_bytes().to_vec();
        let oversize = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec();
        let mut misversioned = framed(b"v?")[..HEADER_BYTES].to_vec();
        misversioned[4] = FRAME_VERSION + 1;
        for (what, bad) in [
            ("zero length", zero),
            ("oversize length", oversize),
            ("wrong version", misversioned),
        ] {
            // In one piece, behind a good frame, and a byte at a time:
            // the verdict falls at the same byte, and all that was ever
            // kept is a header's worth.
            let mut behind = framed(b"fine");
            behind.extend(&bad);
            let trickled: Vec<&[u8]> = bad.chunks(1).collect();
            for chunks in [vec![&bad[..]], vec![&behind[..]], trickled] {
                let mut frames = Reassembly::default();
                let mut pushed = 0;
                let err = chunks
                    .iter()
                    .find_map(|chunk| {
                        pushed += chunk.len();
                        frames.push(chunk, |_| true).err()
                    })
                    .unwrap_or_else(|| panic!("{what} accepted"));
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
                assert_eq!(
                    pushed,
                    chunks.concat().len(),
                    "{what}: judged at its last byte"
                );
                assert!(frames.carry.capacity() <= HEADER_BYTES, "{what}");
            }
        }
    }

    #[test]
    fn reassembly_stops_at_a_refused_payload() {
        let mut wire = framed(b"good");
        wire.extend(framed(b"bad"));
        wire.extend(framed(b"never seen"));
        let mut seen = Vec::new();
        let err = Reassembly::default()
            .push(&wire, |payload| {
                seen.push(payload.to_vec());
                payload != b"bad"
            })
            .expect_err("a refused payload poisons the stream");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(seen, [b"good".to_vec(), b"bad".to_vec()]);
    }
}
