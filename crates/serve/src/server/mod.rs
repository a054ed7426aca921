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
//! One request frame per connection, answered by one response frame.
//! The accept loop reads that first frame itself, under
//! [`FIRST_FRAME_TIMEOUT`]; the expensive work — building the workload,
//! translating, running — happens on a queue worker, so slow sessions
//! never block new connections. The control and replication lanes are
//! answered inline (they must work even when every worker is busy).
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
//! `SHUTDOWN` is acknowledged immediately, then the accept loop stops
//! and the queue is drained: already-accepted requests finish and send
//! their responses; connections arriving after the acknowledgement are
//! refused by the closed listener.
//!
//! [`SharedTranslationState`]: pdbt_runtime::SharedTranslationState

mod control;
mod partition;
mod replicate;
mod session;

use crate::proto::{self, op};
use partition::{ArtifactBoot, BootScan, Partition};
use pdbt_core::RuleSet;
use pdbt_obs::json::Json;
use pdbt_par::TaskQueue;
use pdbt_runtime::{BackendKind, EngineConfig};
use pdbt_workloads::Workload;
use session::{respond, respond_error};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-connection socket timeout: a wedged or malicious peer can stall
/// one read/write for at most this long, never the whole server. Peer
/// replication calls run under it too.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// The tighter bound on a connection's *first* frame, which the accept
/// thread reads itself: a client that connects and says nothing holds
/// up accept, PING and STATS for this long, not for [`SOCKET_TIMEOUT`].
const FIRST_FRAME_TIMEOUT: Duration = Duration::from_secs(1);

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
    /// partition with the artifact's code cache, trace library, and
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
    /// `SUBMIT` requests accepted (including ones that later failed).
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
    /// SUBMIT requests accepted over the server's lifetime.
    served: AtomicU64,
    /// Sessions currently executing on a worker.
    active: AtomicU64,
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
    /// Response frames that failed to write back to their client.
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
            active: AtomicU64::new(0),
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
        let requests = std::thread::scope(|s| {
            let tick = s.spawn(|| replicate::tick(ctx, port, &stop));
            let requests = self.accept();
            // Quiesce the replication tick before the final snapshot
            // and the write-back; a pass that panicked is not the
            // drain's to report.
            stop.store(true, Ordering::Relaxed);
            let _ = tick.join();
            requests
        });
        self.queue.wait_idle();
        // The flight recorder's dump: postmortems (including ones
        // prompted by panicked sessions) don't require rerunning the
        // traffic.
        if let Some(path) = &ctx.cfg.flight_path {
            let doc = control::stats(ctx, &self.queue);
            if let Err(e) = std::fs::write(path, doc.to_string() + "\n") {
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
        Ok(ServeSummary { requests, panicked })
    }

    /// The accept loop: reads each connection's first frame and
    /// dispatches on its opcode until a `SHUTDOWN` arrives. Returns the
    /// SUBMIT count.
    fn accept(&self) -> u64 {
        let (ctx, queue) = (&self.ctx, &self.queue);
        let mut requests = 0u64;
        for conn in self.listener.incoming() {
            // Transient accept failures (peer gone before accept) are
            // not fatal.
            let Ok(mut stream) = conn else { continue };
            let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
            let _ = stream.set_read_timeout(Some(FIRST_FRAME_TIMEOUT));
            let frame = match proto::read_frame(&mut stream) {
                Ok(f) => f,
                Err(e) => {
                    respond_error(ctx, &mut stream, None, &format!("bad frame: {e}"));
                    continue;
                }
            };
            // Whatever else this connection carries (ART_PUSH
            // continuations) may take the long bound per read.
            let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
            match frame.opcode {
                op::PING => {
                    respond(ctx, &mut stream, op::PONG, &control::status(ctx, queue));
                }
                op::STATS => {
                    respond(ctx, &mut stream, op::PONG, &control::stats(ctx, queue));
                }
                op::ART_LIST => replicate::serve_list(ctx, &mut stream),
                op::ART_PULL => replicate::serve_pull(ctx, &frame, &mut stream),
                op::ART_PUSH => replicate::serve_push(ctx, &frame, &mut stream),
                op::SHUTDOWN => {
                    let ack = Json::obj([
                        ("draining", Json::from(queue.outstanding())),
                        ("ok", Json::from(true)),
                    ]);
                    respond(ctx, &mut stream, op::PONG, &ack);
                    break;
                }
                op::SUBMIT => {
                    requests += 1;
                    session::submit(ctx, queue, &frame, stream);
                }
                other => {
                    let unknown = format!("unknown opcode {other:#04x}");
                    respond_error(ctx, &mut stream, None, &unknown);
                }
            }
        }
        requests
    }
}

#[cfg(test)]
mod tests;
