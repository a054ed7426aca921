//! The wire protocol: length-prefixed, versioned binary frames over a
//! byte stream, with JSON payloads (see `pdbt_obs::json`).
//!
//! Every frame is a fixed 12-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "PDBT"
//!      4     1  version (currently 1)
//!      5     1  opcode
//!      6     1  flags (see `flag`; zero otherwise)
//!      7     1  reserved (zero)
//!      8     4  payload length, big-endian
//!     12     n  payload (UTF-8 JSON; empty for PING/SHUTDOWN)
//! ```
//!
//! The magic catches a client speaking the wrong protocol at byte 0
//! instead of after a mis-sized read; the explicit version lets a
//! future frame layout be rejected loudly rather than misparsed. The
//! payload length is capped ([`MAX_PAYLOAD`]) so a corrupt header
//! cannot provoke a multi-gigabyte allocation.
//!
//! Request opcodes come from the client (`SUBMIT`, `PING`,
//! `SHUTDOWN`, `STATS`, and the fleet's `ART_LIST`/`ART_PULL`/
//! `ART_PUSH`); response opcodes have the top bit set (`RESULT`,
//! `ERROR`, `PONG`). Each request frame is answered by exactly one
//! response frame, and a connection carries one exchange, with two
//! exceptions. Artifact transfers follow their JSON header frame with
//! a counted run of raw [`op::ART_DATA`] chunk frames on the same
//! connection, so a sealed artifact larger than [`MAX_PAYLOAD`] can
//! still cross the wire. And a connection may carry several SUBMITs:
//! a SUBMIT with [`flag::KEEP`] asks to keep the connection, and a
//! RESULT with it promises the server reads one more frame there,
//! which must be a SUBMIT arriving whole within 1 s
//! (`FIRST_FRAME_TIMEOUT`) of the RESULT. Without the bit on both
//! sides the connection closes after the reply, as every `ERROR` and
//! every other exchange does.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::time::Duration;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"PDBT";

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a frame payload; larger lengths are rejected before
/// allocating.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// The bound on a connection's first frame, and on each later SUBMIT of
/// a kept connection counted from the RESULT before it. The server
/// reads the whole frame under it; a client reuses a kept connection
/// only within half of it.
pub(crate) const FIRST_FRAME_TIMEOUT: Duration = Duration::from_secs(1);

/// Header flag bits (offset 6).
pub mod flag {
    /// On a `SUBMIT`: the client will send its next SUBMIT on this
    /// connection. On the `RESULT` answering it: the server reads one
    /// more frame on this connection.
    pub const KEEP: u8 = 0x01;
}

/// Frame opcodes. Requests are < 0x80, responses have the top bit set.
pub mod op {
    /// Client → server: run a guest (JSON request payload).
    pub const SUBMIT: u8 = 0x01;
    /// Client → server: health/status probe (empty payload).
    pub const PING: u8 = 0x02;
    /// Client → server: stop accepting, drain in-flight sessions.
    pub const SHUTDOWN: u8 = 0x03;
    /// Client → server: live telemetry snapshot (empty payload).
    /// Answered inline by the accept loop — like `PING`, it works even
    /// when every session worker is busy — with a `PONG` frame carrying
    /// the point-in-time stats JSON (monotone `stats_seq`, uptime,
    /// queue depth, per-partition latency quantiles, flight-recorder
    /// tail).
    pub const STATS: u8 = 0x04;
    /// Peer → server: advertise your sealed artifacts (empty payload).
    /// Answered with a `RESULT` frame listing, per partition, the
    /// guest-image fingerprint (hex), generation, section CRCs, and
    /// block/trace counts — everything a peer needs to decide what to
    /// pull.
    pub const ART_LIST: u8 = 0x05;
    /// Peer → server: stream a sealed artifact by fingerprint (JSON
    /// `{"fingerprint": "<hex>"}` payload). Answered with a `RESULT`
    /// header frame (`generation`, `bytes`, `chunks`, `crc32`) followed
    /// by that many [`ART_DATA`] frames — the one place the protocol's
    /// one-frame-per-direction rule bends, so artifacts larger than
    /// [`MAX_PAYLOAD`](super::MAX_PAYLOAD) can cross it.
    pub const ART_PULL: u8 = 0x06;
    /// Peer → server: offer a sealed artifact (JSON header payload with
    /// `fingerprint`, `generation`, `bytes`, `chunks`, `crc32`,
    /// `label`), followed by `chunks` [`ART_DATA`] frames on the same
    /// connection. The receiver reassembles, checks length and CRC,
    /// then applies the wire trust boundary (`pdbt_fleet::validate`)
    /// and the generation order before adopting; it answers with one
    /// `RESULT` frame (`adopted`, `reason`, `generation`).
    pub const ART_PUSH: u8 = 0x07;
    /// A raw binary artifact chunk (at most `pdbt_fleet::CHUNK` bytes),
    /// the continuation frame of [`ART_PULL`] and [`ART_PUSH`]
    /// streams. Direction-agnostic: the stream it continues determines
    /// who sends it.
    pub const ART_DATA: u8 = 0x08;
    /// Server → client: a completed run's report (JSON payload).
    pub const RESULT: u8 = 0x81;
    /// Server → client: request failed (JSON `{"error": …}` payload).
    pub const ERROR: u8 = 0x82;
    /// Server → client: reply to PING/SHUTDOWN (JSON status payload).
    pub const PONG: u8 = 0x83;
}

/// A decoded frame: opcode plus raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame's opcode (see [`op`]).
    pub opcode: u8,
    /// The header's flag bits (see [`flag`]).
    pub flags: u8,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Whether the header carries [`flag::KEEP`].
    #[must_use]
    pub fn keep(&self) -> bool {
        self.flags & flag::KEEP != 0
    }

    /// The payload as UTF-8 text.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] when the payload is not UTF-8.
    pub fn payload_str(&self) -> Result<&str, FrameError> {
        std::str::from_utf8(&self.payload).map_err(|_| FrameError::BadPayload)
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (includes short reads / EOF).
    Io(io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// The payload was not valid UTF-8 where text was required.
    BadPayload,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this side speaks {VERSION})"
                )
            }
            FrameError::TooLarge(n) => {
                write!(f, "payload length {n} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            FrameError::BadPayload => write!(f, "payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// A frame header announcing `len` payload bytes.
fn header(opcode: u8, flags: u8, len: u32) -> [u8; HEADER_LEN] {
    let mut hdr = [0u8; HEADER_LEN];
    hdr[..4].copy_from_slice(&MAGIC);
    hdr[4] = VERSION;
    hdr[5] = opcode;
    hdr[6] = flags;
    hdr[8..12].copy_from_slice(&len.to_be_bytes());
    hdr
}

/// The header's length field for a `len`-byte payload.
///
/// # Errors
///
/// [`FrameError::TooLarge`] past [`MAX_PAYLOAD`].
fn wire_len(len: usize) -> Result<u32, FrameError> {
    match u32::try_from(len).unwrap_or(u32::MAX) {
        n if n <= MAX_PAYLOAD => Ok(n),
        n => Err(FrameError::TooLarge(n)),
    }
}

/// Writes one frame — header and payload in one vectored write, so the
/// payload is not copied — and flushes the stream.
///
/// # Errors
///
/// Forwarded i/o errors; `InvalidInput` if `payload` exceeds
/// [`MAX_PAYLOAD`] (nothing is written then).
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> io::Result<()> {
    write_flagged_frame(w, opcode, 0, payload)
}

/// [`write_frame`] with the header's `flags` set (see [`flag`]).
///
/// # Errors
///
/// As [`write_frame`].
pub fn write_flagged_frame(
    w: &mut impl Write,
    opcode: u8,
    flags: u8,
    payload: &[u8],
) -> io::Result<()> {
    let len =
        wire_len(payload.len()).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let hdr = header(opcode, flags, len);
    let mut bufs = [IoSlice::new(&hdr), IoSlice::new(payload)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Starts a frame in `buf`: the header, its length still zero. Append
/// the payload after it, then [`finish_frame`].
pub(crate) fn begin_frame(buf: &mut Vec<u8>, opcode: u8, flags: u8) {
    buf.extend_from_slice(&header(opcode, flags, 0));
}

/// Patches the payload length into the frame `buf` holds, which is
/// then ready to send in one write.
///
/// # Errors
///
/// [`FrameError::TooLarge`] past [`MAX_PAYLOAD`].
pub(crate) fn finish_frame(buf: &mut [u8]) -> Result<(), FrameError> {
    let len = wire_len(buf.len() - HEADER_LEN)?;
    buf[8..12].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

/// Reads one frame, validating magic, version, and payload length
/// before allocating.
///
/// # Errors
///
/// See [`FrameError`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut hdr = [0u8; HEADER_LEN];
    r.read_exact(&mut hdr)?;
    if hdr[..4] != MAGIC {
        return Err(FrameError::BadMagic([hdr[0], hdr[1], hdr[2], hdr[3]]));
    }
    if hdr[4] != VERSION {
        return Err(FrameError::BadVersion(hdr[4]));
    }
    let len = u32::from_be_bytes(hdr[8..12].try_into().expect("4-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Frame {
        opcode: hdr[5],
        flags: hdr[6],
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::SUBMIT, b"{\"id\":1}").unwrap();
        write_frame(&mut buf, op::PING, b"").unwrap();
        write_flagged_frame(&mut buf, op::SUBMIT, flag::KEEP, b"{}").unwrap();
        let mut r = buf.as_slice();
        let a = read_frame(&mut r).unwrap();
        assert_eq!(a.opcode, op::SUBMIT);
        assert_eq!(a.payload_str().unwrap(), "{\"id\":1}");
        let b = read_frame(&mut r).unwrap();
        assert_eq!(b.opcode, op::PING);
        assert!(b.payload.is_empty());
        let c = read_frame(&mut r).unwrap();
        assert_eq!((c.opcode, c.flags), (op::SUBMIT, flag::KEEP));
        assert!(c.keep() && !a.keep() && !b.keep());
        assert!(r.is_empty(), "no trailing bytes");
    }

    #[test]
    fn bad_magic_version_and_length_are_rejected() {
        let mut good = Vec::new();
        write_frame(&mut good, op::PING, b"").unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::BadVersion(99))
        ));

        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::TooLarge(_))
        ));
    }

    /// A writer that counts its write calls, takes at most `cap` bytes
    /// per call (as a socket may), and notes where each slice it was
    /// handed lives.
    struct Counting {
        cap: usize,
        calls: usize,
        wrote: Vec<u8>,
        slices: Vec<std::ops::Range<usize>>,
    }

    impl Counting {
        fn new(cap: usize) -> Counting {
            Counting {
                cap,
                calls: 0,
                wrote: Vec::new(),
                slices: Vec::new(),
            }
        }
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.cap;
            for buf in bufs {
                let take = buf.len().min(room);
                let at = buf.as_ptr() as usize;
                self.slices.push(at..at + take);
                self.wrote.extend_from_slice(&buf[..take]);
                room -= take;
            }
            Ok(self.cap - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_small_frame_is_one_write() {
        for len in [0, 1, 2_761, 64 * 1024] {
            let payload = vec![b'x'; len];
            let mut w = Counting::new(usize::MAX);
            write_frame(&mut w, op::SUBMIT, &payload).unwrap();
            assert_eq!(w.calls, 1, "{len}-byte payload");
            let frame = read_frame(&mut w.wrote.as_slice()).unwrap();
            assert_eq!(frame.payload, payload);
        }
        // A frame assembled in place leaves in one write too.
        let mut buf = Vec::new();
        begin_frame(&mut buf, op::RESULT, 0);
        buf.extend_from_slice(b"{\"ok\":true}");
        finish_frame(&mut buf).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(
            (frame.opcode, frame.payload_str().unwrap()),
            (op::RESULT, "{\"ok\":true}")
        );
    }

    #[test]
    fn a_bulk_payload_goes_out_uncopied() {
        let payload: Vec<u8> = (0..3 * 1024 * 1024 + 7)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        let span = payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
        // Short writes, as a socket with a full send buffer makes them.
        let mut w = Counting::new(1 << 20);
        write_frame(&mut w, op::ART_DATA, &payload).unwrap();
        assert!(w.calls > 1);
        // Every payload byte reached the writer as a piece of the
        // caller's buffer, not of a copy.
        let handed: usize = w
            .slices
            .iter()
            .filter(|r| span.start <= r.start && r.end <= span.end)
            .map(ExactSizeIterator::len)
            .sum();
        assert_eq!(handed, payload.len());
        let frame = read_frame(&mut w.wrote.as_slice()).unwrap();
        assert_eq!(frame.opcode, op::ART_DATA);
        assert!(frame.payload == payload, "bytes differ");
    }

    #[test]
    fn an_oversized_payload_is_refused_before_writing() {
        let payload = vec![0u8; MAX_PAYLOAD as usize + 1];
        let mut w = Counting::new(usize::MAX);
        let err = write_frame(&mut w, op::RESULT, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(w.calls, 0);
        let mut buf = Vec::new();
        begin_frame(&mut buf, op::RESULT, 0);
        buf.extend_from_slice(&payload);
        assert!(matches!(
            finish_frame(&mut buf),
            Err(FrameError::TooLarge(n)) if n == MAX_PAYLOAD + 1
        ));
    }

    #[test]
    fn truncated_streams_error_not_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::RESULT, b"{\"ok\":true}").unwrap();
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, buf.len() - 1] {
            assert!(
                matches!(read_frame(&mut &buf[..cut]), Err(FrameError::Io(_))),
                "cut at {cut} should be an i/o error"
            );
        }
    }
}
