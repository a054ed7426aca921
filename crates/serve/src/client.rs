//! The client side: send one request frame, read one response frame.
//! Used by `pdbt submit`, `pdbt sync`, a `--peer` daemon's pull pass,
//! `pdbt loadgen` and the integration tests.
//!
//! Every call but [`submit`] opens a fresh connection and closes it after
//! the reply. [`submit`] asks to keep its connection
//! ([`flag::KEEP`](proto::flag::KEEP)) and each thread keeps the last
//! one the server agreed to keep, so a thread's SUBMITs to one daemon
//! share a connection. It sends a request on a kept connection only
//! while that is safe: the daemon reads the next SUBMIT within
//! `FIRST_FRAME_TIMEOUT` of its RESULT, so the connection is reused only
//! within half of that, and only when a non-blocking peek finds it
//! open. Otherwise it connects fresh. A request is never sent twice.
//!
//! The one multi-frame exchange lives here too. An artifact transfer is
//! a JSON header frame (`fingerprint`, `generation`, `bytes`, `chunks`,
//! whole-artifact `crc32`, `label`) followed by exactly `chunks` raw
//! [`op::ART_DATA`] frames on the same connection, so an artifact larger
//! than one frame's payload cap can cross the wire. Both directions —
//! an `ART_PULL` reply, an `ART_PUSH` offer — are
//! [`PulledArtifact::send`] on one side of the socket and
//! [`PulledArtifact::recv`] on the other.

use crate::proto::{self, flag, op, FrameError, FIRST_FRAME_TIMEOUT};
use pdbt_fleet::{
    chunk_count, fingerprint_field, fingerprint_hex, ArtifactAd, CHUNK, MAX_ARTIFACT,
};
use pdbt_obs::json::{Json, ToJson};
use std::cell::RefCell;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting or socket i/o failed.
    Io(io::Error),
    /// The response frame was malformed.
    Frame(FrameError),
    /// The peer answered with an unexpected opcode or payload shape.
    Protocol(String),
    /// The server processed the request and reported an error.
    Remote(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "protocol frame error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Remote(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        ClientError::Frame(e)
    }
}

/// A fresh connection with `timeout` on each socket operation.
fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> Result<TcpStream, ClientError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

/// Reads a response frame that must be `want` with a JSON payload;
/// turns `ERROR` frames into [`ClientError::Remote`].
fn read_json(stream: &mut impl Read, want: u8) -> Result<Json, ClientError> {
    reply_json(&proto::read_frame(stream)?, want)
}

/// [`read_json`] for a frame already read.
fn reply_json(frame: &proto::Frame, want: u8) -> Result<Json, ClientError> {
    let text = frame
        .payload_str()
        .map_err(|_| ClientError::Protocol("response payload is not UTF-8".into()))?;
    let json = Json::parse(text)
        .map_err(|e| ClientError::Protocol(format!("response payload is not JSON: {e}")))?;
    if frame.opcode == op::ERROR {
        let msg = json
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unspecified server error");
        return Err(ClientError::Remote(msg.to_string()));
    }
    if frame.opcode != want {
        return Err(ClientError::Protocol(format!(
            "unexpected response opcode {:#04x}",
            frame.opcode
        )));
    }
    Ok(json)
}

/// One request/response exchange on a fresh connection.
fn roundtrip(
    addr: impl ToSocketAddrs,
    opcode: u8,
    payload: &[u8],
    want: u8,
    timeout: Duration,
) -> Result<Json, ClientError> {
    let mut stream = connect(addr, timeout)?;
    proto::write_frame(&mut stream, opcode, payload)?;
    read_json(&mut stream, want)
}

/// A connection the daemon promised to read another SUBMIT on.
struct Kept {
    /// The stream, read through one buffer for the connection's life,
    /// which a RESULT that arrived whole leaves empty.
    stream: BufReader<TcpStream>,
    peer: SocketAddr,
    /// When its last RESULT arrived.
    at: Instant,
    /// The read and write timeout the stream has.
    timeout: Duration,
    /// The buffer its SUBMIT frames are assembled in.
    out: Vec<u8>,
}

impl Kept {
    /// Whether the next SUBMIT to one of `addrs` may go out on it.
    fn reusable(&self, addrs: &[SocketAddr]) -> bool {
        addrs.contains(&self.peer)
            && self.at.elapsed() < FIRST_FRAME_TIMEOUT / 2
            && self.stream.buffer().is_empty()
            && open(self.stream.get_ref())
    }
}

/// Whether a non-blocking peek finds `stream` open with nothing unread:
/// a daemon that closed it (its bound passed, or it drained) shows EOF.
fn open(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let idle = matches!(stream.peek(&mut [0u8]), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
    stream.set_nonblocking(false).is_ok() && idle
}

thread_local! {
    /// This thread's kept SUBMIT connection.
    static KEPT: RefCell<Option<Kept>> = const { RefCell::new(None) };
}

/// Submits a run request and returns the RESULT payload (`id`,
/// `workload`, `outcome`, `report`). Reuses this thread's kept
/// connection to the same daemon when it is safe to (see the module
/// docs), and keeps this one when the RESULT says the daemon will.
///
/// The timeout bounds each socket operation; pick one comfortably
/// above the request's `deadline_ms` or the session will outlive the
/// client waiting for it. A kept connection's timeouts are set again
/// only when the call asks for another.
///
/// On a kept connection a request costs the liveness peek (three
/// calls), one write, since the request is streamed into its frame, and
/// one read for a RESULT that has arrived whole.
///
/// # Errors
///
/// See [`ClientError`].
pub fn submit(
    addr: impl ToSocketAddrs,
    request: &Json,
    timeout: Duration,
) -> Result<Json, ClientError> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    let kept = KEPT.with_borrow_mut(Option::take);
    let mut conn = match kept.filter(|k| k.reusable(&addrs)) {
        Some(mut k) => {
            if k.timeout != timeout {
                k.stream.get_ref().set_read_timeout(Some(timeout))?;
                k.stream.get_ref().set_write_timeout(Some(timeout))?;
                k.timeout = timeout;
            }
            k
        }
        None => {
            let stream = connect(&addrs[..], timeout)?;
            let peer = stream.peer_addr()?;
            Kept {
                stream: BufReader::new(stream),
                peer,
                at: Instant::now(),
                timeout,
                out: Vec::with_capacity(512),
            }
        }
    };
    conn.out.clear();
    proto::begin_frame(&mut conn.out, op::SUBMIT, flag::KEEP);
    request.write_json(&mut conn.out);
    proto::finish_frame(&mut conn.out)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    conn.stream.get_ref().write_all(&conn.out)?;
    let frame = proto::read_frame(&mut conn.stream)?;
    let reply = reply_json(&frame, op::RESULT)?;
    if frame.keep() {
        conn.at = Instant::now();
        KEPT.with_borrow_mut(|slot| *slot = Some(conn));
    }
    Ok(reply)
}

/// Pings the server, returning its status payload (protocol version,
/// queue occupancy, server-lifetime counters).
///
/// # Errors
///
/// See [`ClientError`].
pub fn ping(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Json, ClientError> {
    roundtrip(addr, op::PING, b"", op::PONG, timeout)
}

/// Asks the server to stop accepting and drain; returns the
/// acknowledgement payload. In-flight sessions still complete after
/// this returns.
///
/// # Errors
///
/// See [`ClientError`].
pub fn shutdown(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Json, ClientError> {
    roundtrip(addr, op::SHUTDOWN, b"", op::PONG, timeout)
}

/// Fetches the server's live telemetry snapshot: a monotone
/// `stats_seq`, uptime, sessions served/active/panicked, queue depth
/// and pool accounting, the summed server counters, per-partition
/// latency quantiles, the merged latency histograms, and the
/// flight-recorder tail. Answered inline by the accept loop, so it
/// works while every session worker is busy.
///
/// # Errors
///
/// See [`ClientError`].
pub fn stats(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Json, ClientError> {
    roundtrip(addr, op::STATS, b"", op::PONG, timeout)
}

/// Asks a peer for its artifact advertisements: one entry per sealed
/// partition with the fingerprint, version (generation + section
/// CRCs), block/trace counts, and sealed size.
///
/// # Errors
///
/// See [`ClientError`].
pub fn list_artifacts(
    addr: impl ToSocketAddrs,
    timeout: Duration,
) -> Result<Vec<ArtifactAd>, ClientError> {
    roundtrip(addr, op::ART_LIST, b"", op::RESULT, timeout)?
        .get("artifacts")
        .and_then(Json::as_arr)
        .ok_or_else(|| ClientError::Protocol("ART_LIST reply lacks `artifacts`".into()))?
        .iter()
        .map(|ad| ArtifactAd::from_json(ad).map_err(ClientError::Protocol))
        .collect()
}

/// Streams one sealed artifact down from a peer and verifies its
/// transfer envelope. The caller still owes the trust-boundary
/// validation (`pdbt_fleet::validate`) before adopting.
///
/// # Errors
///
/// See [`ClientError`]; an envelope the transfer does not fit, or an
/// answer for another fingerprint, is a [`ClientError::Protocol`].
pub fn pull_artifact(
    addr: impl ToSocketAddrs,
    fingerprint: u64,
    timeout: Duration,
) -> Result<PulledArtifact, ClientError> {
    let mut stream = connect(addr, timeout)?;
    let req = Json::obj([("fingerprint", Json::str(fingerprint_hex(fingerprint)))]);
    proto::write_frame(&mut stream, op::ART_PULL, req.to_string().as_bytes())?;
    let header = read_json(&mut stream, op::RESULT)?;
    let pulled = PulledArtifact::recv(&header, &mut stream)
        .map_err(|refused| ClientError::Protocol(refused.why))?;
    if pulled.fingerprint != fingerprint {
        let wrong = "peer answered for another fingerprint";
        return Err(ClientError::Protocol(wrong.into()));
    }
    Ok(pulled)
}

/// Offers a sealed artifact to a peer and returns its verdict
/// (`{"adopted": …, "reason": …, "generation": …}`). The peer applies
/// the trust boundary and the generation order; a refusal is a normal
/// reply, not an error.
///
/// # Errors
///
/// See [`ClientError`].
pub fn push_artifact(
    addr: impl ToSocketAddrs,
    fingerprint: u64,
    generation: u64,
    label: &str,
    bytes: &[u8],
    timeout: Duration,
) -> Result<Json, ClientError> {
    let mut stream = connect(addr, timeout)?;
    PulledArtifact::send(
        &mut stream,
        op::ART_PUSH,
        fingerprint,
        generation,
        label,
        bytes,
    )?;
    read_json(&mut stream, op::RESULT)
}

/// A sealed artifact that crossed the wire: its transfer envelope
/// held, but it has not yet met the trust boundary (see
/// `pdbt_fleet::validate`).
#[derive(Debug, Clone)]
pub struct PulledArtifact {
    /// The fingerprint the sender declared for it.
    pub fingerprint: u64,
    /// The sender's generation for it.
    pub generation: u64,
    /// The sender's partition label.
    pub label: String,
    /// The sealed PDBA bytes.
    pub bytes: Vec<u8>,
}

/// Why [`PulledArtifact::recv`] refused a transfer.
#[derive(Debug)]
pub(crate) struct Refused {
    /// False when the header lacked a field and nothing was read.
    pub(crate) attempted: bool,
    pub(crate) why: String,
}

impl PulledArtifact {
    /// Writes a transfer: the header frame under `opcode` (`RESULT`
    /// answering a pull, `ART_PUSH` opening an offer), then the bytes
    /// in [`CHUNK`]-sized `ART_DATA` frames. Stops at the first write
    /// that fails.
    pub(crate) fn send(
        w: &mut impl Write,
        opcode: u8,
        fingerprint: u64,
        generation: u64,
        label: &str,
        bytes: &[u8],
    ) -> io::Result<()> {
        let header = Json::obj([
            ("fingerprint", Json::str(fingerprint_hex(fingerprint))),
            ("generation", Json::from(generation)),
            ("bytes", Json::from(bytes.len() as u64)),
            ("chunks", Json::from(chunk_count(bytes.len()) as u64)),
            (
                "crc32",
                Json::from(u64::from(pdbt_artifact::bytes::crc32(bytes))),
            ),
            ("label", Json::str(label)),
        ]);
        proto::write_frame(w, opcode, header.to_string().as_bytes())?;
        bytes
            .chunks(CHUNK)
            .try_for_each(|chunk| proto::write_frame(w, op::ART_DATA, chunk))
    }

    /// Reads the transfer `header` announces from `r` and holds it to
    /// its envelope: the size cap and the chunk count before anything
    /// is allocated, every continuation's opcode and length as it
    /// arrives, the total length and the CRC-32 at the end.
    pub(crate) fn recv(header: &Json, r: &mut impl Read) -> Result<PulledArtifact, Refused> {
        let field = |name: &str| header.get(name).and_then(Json::as_u64);
        let (Some(fingerprint), Some(generation), Some(total), Some(chunks), Some(crc)) = (
            fingerprint_field(header),
            field("generation"),
            field("bytes"),
            field("chunks"),
            field("crc32"),
        ) else {
            let why = "transfer header needs fingerprint/generation/bytes/chunks/crc32".into();
            return Err(Refused {
                attempted: false,
                why,
            });
        };
        let label = header.get("label").and_then(Json::as_str).unwrap_or("?");
        let mut read = || {
            if total > MAX_ARTIFACT {
                return Err(format!("{total} bytes declared (cap {MAX_ARTIFACT})"));
            }
            if chunks != chunk_count(total as usize) as u64 {
                return Err(format!("{chunks} chunks declared for {total} bytes"));
            }
            let mut bytes = Vec::with_capacity(total as usize);
            for _ in 0..chunks {
                let frame = proto::read_frame(r).map_err(|e| format!("stream died: {e}"))?;
                if frame.opcode != op::ART_DATA {
                    let opcode = frame.opcode;
                    return Err(format!(
                        "continuation has opcode {opcode:#04x}, not ART_DATA"
                    ));
                }
                let len = bytes.len() + frame.payload.len();
                if frame.payload.len() > CHUNK || len > total as usize {
                    return Err("oversized chunk".to_string());
                }
                bytes.extend_from_slice(&frame.payload);
            }
            if bytes.len() as u64 != total {
                return Err(format!("{} bytes arrived of {total}", bytes.len()));
            }
            if u64::from(pdbt_artifact::bytes::crc32(&bytes)) != crc {
                return Err("the bytes fail the declared CRC".to_string());
            }
            Ok(bytes)
        };
        let bytes = read().map_err(|why| Refused {
            attempted: true,
            why,
        })?;
        Ok(PulledArtifact {
            fingerprint,
            generation,
            label: label.to_string(),
            bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frames `send` writes for `bytes`, and the header it opens with.
    fn sent(bytes: &[u8]) -> (Json, Vec<u8>) {
        let mut wire = Vec::new();
        PulledArtifact::send(&mut wire, op::ART_PUSH, 0xfeed, 7, "img", bytes).expect("send");
        let mut rest = wire.as_slice();
        let header = proto::read_frame(&mut rest).expect("header frame");
        assert_eq!(header.opcode, op::ART_PUSH);
        let doc = Json::parse(header.payload_str().unwrap()).unwrap();
        (doc, rest.to_vec())
    }

    fn with(header: &Json, key: &str, value: Option<u64>) -> Json {
        let Json::Obj(mut fields) = header.clone() else {
            panic!("header is an object")
        };
        match value {
            Some(v) => fields.insert(key.to_string(), Json::from(v)),
            None => fields.remove(key),
        };
        Json::Obj(fields)
    }

    #[test]
    fn transfers_roundtrip_at_the_chunk_boundaries() {
        for len in [0, 1, CHUNK, CHUNK + 1] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let (header, chunks) = sent(&bytes);
            let mut r = chunks.as_slice();
            let got = PulledArtifact::recv(&header, &mut r).expect("roundtrip");
            assert!(r.is_empty(), "{len}: recv left frames unread");
            assert_eq!((got.fingerprint, got.generation), (0xfeed, 7));
            assert_eq!((got.label.as_str(), got.bytes), ("img", bytes));
        }
    }

    #[test]
    fn hostile_transfers_are_refused() {
        let bytes = vec![9u8; 100];
        let (header, chunks) = sent(&bytes);
        let frame = |opcode: u8, payload: &[u8]| {
            let mut wire = Vec::new();
            proto::write_frame(&mut wire, opcode, payload).unwrap();
            wire
        };
        let refuse = |what: &str, header: &Json, mut stream: &[u8], attempted: bool| {
            let refused = PulledArtifact::recv(header, &mut stream).expect_err(what);
            assert_eq!(refused.attempted, attempted, "{what}: {}", refused.why);
        };
        // A header short of a field is not an attempted transfer; one
        // that lies is refused before a byte is read or allocated.
        for (field, value, attempted) in [
            ("fingerprint", None, false),
            ("crc32", None, false),
            ("bytes", Some(MAX_ARTIFACT + 1), true),
            ("chunks", Some(2), true),
            ("crc32", Some(1), true),
        ] {
            refuse(field, &with(&header, field, value), &chunks, attempted);
        }
        for (what, stream) in [
            ("not ART_DATA", frame(op::RESULT, &bytes)),
            ("oversized chunk", frame(op::ART_DATA, &[9u8; 101])),
            ("short chunk", frame(op::ART_DATA, &bytes[..99])),
            ("short stream", chunks[..50].to_vec()),
        ] {
            refuse(what, &header, &stream, true);
        }
    }
}
