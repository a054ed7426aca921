//! The daemon: a `std::net` TCP accept loop multiplexing guest-run
//! requests onto a [`pdbt_par::TaskQueue`] of session workers, with
//! translations shared through [`SharedTranslationState`]. This module
//! is the accept loop, the opcode dispatch and the drain; each lane has
//! its own: `control` (PING, STATS), `session` (SUBMIT), `replicate`
//! (ART_LIST / ART_PULL / ART_PUSH, the pull pass and its tick), over
//! `partition` (one image's record, the boot scan, the write-back).
//!
//! # Connection model
//!
//! The accept loop reads a connection's first frame itself, whole,
//! within [`FIRST_FRAME_TIMEOUT`]; the expensive work — building the
//! workload, translating, running — happens on a queue worker, so slow
//! sessions never block new connections. The control and replication
//! lanes are answered inline (they must work even when every worker is
//! busy), one exchange per connection. A SUBMIT connection may carry
//! several SUBMITs: when the request and its RESULT both carry
//! [`flag::KEEP`](proto::flag::KEEP), the worker that answered keeps the
//! stream and reads the next SUBMIT itself, under the same bound from
//! its reply. Anything else — another opcode, a late or partial frame,
//! an `ERROR` — closes it. Workers hold idle connections only while
//! fewer than `jobs − 1` others do, so one always serves the queue.
//!
//! # Shared-state partitioning
//!
//! The code cache is keyed by guest pc, so two *different* guest
//! programs (both loaded at `0x1000`) must never share one cache: a
//! session would execute the other program's translation. The server
//! keeps one [`SharedTranslationState`] per guest image (fingerprint of
//! base address + listing), inside the one `Partition` record of a
//! fingerprint-keyed table; status counters aggregate across it.
//!
//! # Drain semantics
//!
//! `SHUTDOWN` is acknowledged immediately, then the accept loop stops,
//! every connection a worker holds idle is shut, and the queue is
//! drained: already-accepted requests finish and send their responses;
//! connections arriving after the acknowledgement are refused by the
//! closed listener.
//!
//! [`SharedTranslationState`]: pdbt_runtime::SharedTranslationState

mod control;
mod partition;
mod replicate;
mod session;

use crate::proto::{self, op, Frame, FrameError, FIRST_FRAME_TIMEOUT};
use partition::{ArtifactBoot, BootScan, Partition};
use pdbt_core::RuleSet;
use pdbt_obs::json::{Json, ToJson};
use pdbt_par::TaskQueue;
use pdbt_runtime::{BackendKind, EngineConfig};
use pdbt_workloads::Workload;
use session::{respond, respond_error, Held};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-connection socket timeout: a wedged or malicious peer can stall
/// one read/write for at most this long, never the whole server. Peer
/// replication calls run under it too.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// A connection's read side: its stream behind one buffer for the
/// connection's life, so bytes a read takes past a frame wait there for
/// the next one.
type Inbound = BufReader<Deadline>;

/// The reader for a freshly accepted `stream`.
fn inbound(stream: TcpStream) -> Inbound {
    BufReader::new(Deadline {
        stream: Arc::new(stream),
        bound: None,
        until: None,
        timeout: None,
    })
}

/// The next frame on `inbound`, whole within `bound` of its first read.
/// The accept thread reads a first frame under [`FIRST_FRAME_TIMEOUT`],
/// so a client that connects and says nothing, or trickles its frame,
/// holds up accept, PING and STATS for that long, not for
/// [`SOCKET_TIMEOUT`]; a worker reads a kept connection's next SUBMIT
/// the same way.
fn next_frame(inbound: &mut Inbound, bound: Duration) -> Result<Frame, FrameError> {
    let deadline = inbound.get_mut();
    deadline.bound = Some(bound);
    deadline.until = None;
    proto::read_frame(inbound)
}

/// A socket read under one deadline for all the reads of a frame,
/// counted from the first: each read may wait only for what is left, so
/// a peer sending a byte at a time cannot restart the clock with every
/// byte. A frame that arrives whole is one read, whose timeout is the
/// whole bound, which the socket already has from the frame before.
struct Deadline {
    /// Shared with [`Held`] while a worker waits on it.
    stream: Arc<TcpStream>,
    /// How long a frame may take; `None` leaves each read to the
    /// socket's own timeout.
    bound: Option<Duration>,
    /// When the frame being read must be in, from its first read.
    until: Option<Instant>,
    /// The socket's read timeout, as last set here.
    timeout: Option<Duration>,
}

impl Deadline {
    /// Sets the socket's read timeout, unless it has it already.
    fn set_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        if self.timeout != Some(timeout) {
            self.stream.set_read_timeout(Some(timeout))?;
            self.timeout = Some(timeout);
        }
        Ok(())
    }
}

impl Read for Deadline {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(bound) = self.bound {
            let now = Instant::now();
            let until = *self.until.get_or_insert(now + bound);
            let left = until.saturating_duration_since(now);
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.set_timeout(left)?;
        }
        (&*self.stream).read(buf)
    }
}

/// Server construction knobs.
#[derive(Debug)]
pub struct ServeConfig {
    /// The rule set sessions translate with (`None` = pure QEMU-path
    /// baseline). Cloned into each guest-image partition.
    pub rules: Option<RuleSet>,
    /// Session worker count: how many requests run concurrently.
    pub jobs: usize,
    /// Deadline applied to requests that don't carry their own
    /// `deadline_ms`.
    pub default_deadline_ms: Option<u64>,
    /// Where to dump the flight recorder (the final stats snapshot
    /// plus the recent-request tail) when the server drains. `None`
    /// disables the dump; the CLI defaults to `flight.json`.
    pub flight_path: Option<PathBuf>,
    /// A directory of sealed `.pdba` translation artifacts to warm-boot
    /// from: every loadable artifact pre-creates its guest image's
    /// partition with the artifact's code cache, trace table, and
    /// (when present) ruleset, so the first request for that image
    /// translates nothing. Artifacts that fail to load — wrong version,
    /// damaged header, fingerprint mismatch — are counted and skipped;
    /// the image boots cold on first sight instead. Never fatal.
    pub artifact_dir: Option<PathBuf>,
    /// Host block executor every session runs with (`--backend`).
    /// Defaults to the engine default (threaded, or `PDBT_BACKEND`).
    pub backend: BackendKind,
    /// Peer daemons to replicate artifacts from (`--peer`, repeatable).
    /// With peers set, `bind` pulls every missing-or-newer artifact
    /// before the server starts answering — a follower's first request
    /// hits a warm partition — and [`Server::serve`] keeps pulling on
    /// the refresh tick. Peer failures are logged and skipped, never
    /// fatal: a follower that cannot reach its peers boots cold.
    pub peers: Vec<String>,
    /// Period of the replication refresh tick (`--replicate-interval`).
    /// Each tick re-runs the pull pass against every peer after a
    /// seeded jitter (0.5–1.5× the period, seeded from the listen
    /// port) so a restarted fleet does not thundering-herd its
    /// leaders. `None` (the default) replicates at boot only.
    pub replicate_interval: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            rules: None,
            jobs: 4,
            default_deadline_ms: None,
            flight_path: None,
            artifact_dir: None,
            backend: EngineConfig::default().backend,
            peers: Vec::new(),
            replicate_interval: None,
        }
    }
}

/// What a finished server saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// `SUBMIT` frames received, on new and kept connections alike
    /// (including ones that later failed).
    pub requests: u64,
    /// Sessions that panicked on a worker (isolated per-task; see
    /// `pdbt_par::TaskQueue`).
    pub panicked: u64,
}

/// State shared between the accept loop and the session workers.
#[derive(Debug)]
struct ServerCtx {
    /// What the server was built from, `jobs` normalized to the
    /// queue's effective worker count (it sizes each partition's
    /// telemetry slots).
    cfg: ServeConfig,
    /// One partition per guest-image fingerprint (see the module docs
    /// on why images must not share a cache), iterated in fingerprint
    /// order wherever order shows: STATS, ART_LIST, the write-back.
    partitions: Mutex<BTreeMap<u64, Partition>>,
    /// Memoized workload builds, keyed by `(benchmark, scale)`.
    /// Building a benchmark is deterministic but not cheap, so the
    /// first request for a corpus pays for it and later requests reuse
    /// the `Arc`. The build runs under the map lock: concurrent first
    /// requests for the *same* corpus would otherwise duplicate it.
    workloads: Mutex<HashMap<(String, String), Arc<Workload>>>,
    /// When the server started serving (uptime reference).
    started: Instant,
    /// Monotone STATS snapshot sequence: every snapshot claims the
    /// next number, so a poller can order snapshots and compute
    /// deltas even when responses arrive out of order.
    stats_seq: AtomicU64,
    /// SUBMIT frames received over the server's lifetime.
    served: AtomicU64,
    /// Of those, the ones that arrived on an already-used connection.
    kept: AtomicU64,
    /// Sessions currently executing on a worker.
    active: AtomicU64,
    /// The connections workers hold idle between SUBMITs.
    held: Held,
    /// Artifact warm-boot tally: seeded by the bind-time scan, and
    /// bumped at runtime when a transferred artifact's sections turn
    /// out quarantinable (the wire rejects it, but the damage is
    /// counted where operators already look for it).
    artifacts: ArtifactBoot,
    /// Serializes replication-plane mutations (sealing, adoption,
    /// write-back) between the accept loop and the refresh tick. The
    /// `partitions` lock stays short-lived; this one scopes a whole
    /// decide-then-adopt sequence so two concurrent transfers cannot
    /// interleave their version checks.
    replication: Mutex<()>,
    /// Replication-plane counters (pulled/pushed/adopted/rejected/
    /// written_back/bytes), surfaced as the `fleet` PING/STATS section.
    fleet: pdbt_obs::FleetCounters,
    /// Response frames that failed to write back to their client, or
    /// outgrew the frame cap and were answered with an `ERROR` instead.
    /// Nonzero means clients are vanishing mid-reply (or worse, the
    /// server is wedged writing) — the happy-path tests pin it to 0.
    reply_errors: AtomicU64,
}

impl ServerCtx {
    fn partitions(&self) -> MutexGuard<'_, BTreeMap<u64, Partition>> {
        self.partitions.lock().expect("partition table poisoned")
    }

    /// Takes the replication-plane lock.
    fn plane(&self) -> MutexGuard<'_, ()> {
        self.replication.lock().expect("replication lock poisoned")
    }
}

/// A bound, not-yet-serving daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    queue: TaskQueue,
    ctx: Arc<ServerCtx>,
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port), builds
    /// the worker queue, scans `--artifact-dir` and runs the boot pull:
    /// a follower is warm *before* `bind` returns, so its very first
    /// request already hits the replicated cache.
    ///
    /// # Errors
    ///
    /// Forwarded bind errors.
    pub fn bind(addr: impl ToSocketAddrs, mut cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let queue = TaskQueue::new(cfg.jobs);
        cfg.jobs = queue.jobs();
        let scan = match &cfg.artifact_dir {
            Some(dir) => partition::load_artifacts(dir, cfg.rules.as_ref(), cfg.jobs),
            None => BootScan::default(),
        };
        let ctx = Arc::new(ServerCtx {
            cfg,
            partitions: Mutex::new(scan.partitions),
            workloads: Mutex::new(HashMap::new()),
            started: Instant::now(),
            stats_seq: AtomicU64::new(0),
            served: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            active: AtomicU64::new(0),
            held: Held::default(),
            artifacts: scan.boot,
            replication: Mutex::new(()),
            fleet: pdbt_obs::FleetCounters::default(),
            reply_errors: AtomicU64::new(0),
        });
        if !ctx.cfg.peers.is_empty() {
            replicate::replicate_once(&ctx);
        }
        Ok(Server {
            listener,
            queue,
            ctx,
        })
    }

    /// The bound address (the real port when bound to port 0).
    ///
    /// # Errors
    ///
    /// Forwarded socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Effective session worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.queue.jobs()
    }

    /// Runs the accept loop until a `SHUTDOWN` frame arrives, then
    /// drains in-flight sessions and returns the summary.
    ///
    /// # Errors
    ///
    /// Fatal listener errors; per-connection errors are answered on
    /// that connection and do not stop the server.
    pub fn serve(self) -> io::Result<ServeSummary> {
        let ctx = &self.ctx;
        let port = self.local_addr().map_or(0, |a| u64::from(a.port()));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let tick = s.spawn(|| replicate::tick(ctx, port, &stop));
            self.accept();
            // An idle kept connection must not hold the drain up.
            ctx.held.drain();
            // Quiesce the replication tick before the final snapshot
            // and the write-back; a pass that panicked is not the
            // drain's to report.
            stop.store(true, Ordering::Relaxed);
            let _ = tick.join();
        });
        self.queue.wait_idle();
        // The flight recorder's dump: postmortems (including ones
        // prompted by panicked sessions) don't require rerunning the
        // traffic.
        if let Some(path) = &ctx.cfg.flight_path {
            let mut doc = Vec::new();
            control::Stats::new(ctx, &self.queue).write_json(&mut doc);
            doc.push(b'\n');
            if let Err(e) = std::fs::write(path, doc) {
                eprintln!("pdbt-serve: flight dump to {} failed: {e}", path.display());
            }
        }
        // Drain write-back: partitions whose live cache outgrew their
        // on-disk artifact re-seal as the next generation, so warm
        // state compounds across restarts instead of evaporating.
        if let Some(dir) = &ctx.cfg.artifact_dir {
            partition::write_back(ctx, dir);
        }
        let panicked = self.queue.drain();
        let requests = ctx.served.load(Ordering::Relaxed);
        Ok(ServeSummary { requests, panicked })
    }

    /// The accept loop: reads each connection's first frame and
    /// dispatches on its opcode until a `SHUTDOWN` arrives.
    fn accept(&self) {
        let (ctx, queue) = (&self.ctx, &self.queue);
        for conn in self.listener.incoming() {
            // Transient accept failures (peer gone before accept) are
            // not fatal.
            let Ok(stream) = conn else { continue };
            let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
            // Whatever a read takes past the first frame stays in
            // `inbound` for the lane that reads on: a kept SUBMIT
            // connection's worker, or an ART_PUSH's continuations.
            let mut inbound = inbound(stream);
            let next = next_frame(&mut inbound, FIRST_FRAME_TIMEOUT);
            let stream = &*inbound.get_ref().stream;
            let frame = match next {
                Ok(f) => f,
                Err(e) => {
                    respond_error(ctx, stream, None, &format!("bad frame: {e}"));
                    continue;
                }
            };
            match frame.opcode {
                op::PING => {
                    respond(ctx, stream, op::PONG, &control::Status(ctx, queue));
                }
                op::STATS => {
                    respond(ctx, stream, op::PONG, &control::Stats::new(ctx, queue));
                }
                op::ART_LIST => replicate::serve_list(ctx, stream),
                op::ART_PULL => replicate::serve_pull(ctx, &frame, stream),
                op::ART_PUSH => {
                    // Its continuations may take the long bound per read.
                    let deadline = inbound.get_mut();
                    deadline.bound = None;
                    let _ = deadline.set_timeout(SOCKET_TIMEOUT);
                    replicate::serve_push(ctx, &frame, &mut inbound);
                }
                op::SHUTDOWN => {
                    let ack = Json::obj([
                        ("draining", Json::from(queue.outstanding())),
                        ("ok", Json::from(true)),
                    ]);
                    respond(ctx, stream, op::PONG, &ack);
                    break;
                }
                op::SUBMIT => session::submit(ctx, queue, &frame, inbound),
                other => {
                    let unknown = format!("unknown opcode {other:#04x}");
                    respond_error(ctx, stream, None, &unknown);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
