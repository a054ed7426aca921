//! The daemon: a `std::net` TCP accept loop multiplexing guest-run
//! requests onto a [`pdbt_par::TaskQueue`] of session workers, with
//! translations shared through [`SharedTranslationState`].
//!
//! # Connection model
//!
//! One request frame per connection, answered by one response frame.
//! The accept loop itself only parses the request; the expensive work —
//! building the workload, translating, running — happens on a queue
//! worker, so slow sessions never block new connections. `PING` and
//! `SHUTDOWN` are answered inline (they must work even when every
//! worker is busy).
//!
//! # Shared-state partitioning
//!
//! The code cache is keyed by guest pc, so two *different* guest
//! programs (both loaded at `0x1000`) must never share one cache: a
//! session would execute the other program's translation. The server
//! therefore keeps one [`SharedTranslationState`] per distinct guest
//! image (fingerprint of base address + instruction listing): sessions
//! running the same image share its warm cache, while an unrelated
//! image gets a fresh partition with a clone of the server's ruleset.
//! Everything the server knows about an image — live state, label,
//! guest program, sealed bytes, version, disk generation — is one
//! `Partition` record in one fingerprint-keyed table, and both ways
//! an artifact can enter (the boot scan of `--artifact-dir`, a peer
//! transfer) build that record with `Partition::from_artifact`.
//! Status counters aggregate across partitions.
//!
//! # Session isolation
//!
//! Each request runs a fresh [`Engine`] borrowing its image's shared
//! state with `jobs = 1`: concurrency comes from running many
//! single-threaded sessions, not from fanning one session out. That
//! keeps every per-request report bit-identical to a standalone
//! single-engine run (the shared cache only removes duplicate
//! *translation work*, never changes what a session observes — see
//! `tests/determinism.rs` at the workspace root).
//!
//! Fault plans are request-scoped: a request carrying a `faults` spec
//! arms injection on its worker thread only, and every other request is
//! explicitly shielded, so one caller's chaos run cannot degrade a
//! neighbour's session.
//!
//! # Drain semantics
//!
//! `SHUTDOWN` is acknowledged immediately, then the accept loop stops
//! and the queue is drained: already-accepted requests finish and send
//! their responses; connections arriving after the acknowledgement are
//! refused by the closed listener.

use crate::proto::{self, op};
use pdbt_core::RuleSet;
use pdbt_fleet::{
    artifact_file_name, chunk_count, dedupe_newest, parse_generation, seal_live, validate,
    ArtifactAd, ArtifactVersion, CHUNK, MAX_ARTIFACT,
};
use pdbt_obs::json::Json;
use pdbt_obs::{LatencyHists, PhaseNs, RequestSummary};
use pdbt_par::TaskQueue;
use pdbt_runtime::{BackendKind, Engine, EngineConfig, RunSetup, SharedTranslationState};
use pdbt_workloads::{build, Benchmark, Scale, Workload};
use rand::prelude::*;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-connection socket timeout: a wedged or malicious peer can stall
/// one read/write for at most this long, never the whole server.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

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
    /// One partition per guest-image fingerprint (see the module docs
    /// on why images must not share a cache).
    partitions: Mutex<HashMap<u64, Partition>>,
    /// Memoized workload builds, keyed by `(benchmark, scale)`.
    /// Building a benchmark is deterministic but not cheap, so the
    /// first request for a corpus pays for it and later requests reuse
    /// the `Arc`. The build runs under the map lock: concurrent first
    /// requests for the *same* corpus would otherwise duplicate it.
    workloads: Mutex<HashMap<(String, String), Arc<Workload>>>,
    /// The ruleset cloned into each new partition.
    rules: Option<RuleSet>,
    /// Fallback deadline for requests without `deadline_ms`.
    default_deadline_ms: Option<u64>,
    /// Worker count, used to size each partition's telemetry slots.
    jobs: usize,
    /// Host block executor for every session.
    backend: BackendKind,
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
    /// Peers to replicate from, in `--peer` order.
    peers: Vec<String>,
    /// Where adopted artifacts persist and drained partitions write
    /// back to.
    artifact_dir: Option<PathBuf>,
}

/// Per-connection socket timeout for peer replication calls.
const FLEET_TIMEOUT: Duration = Duration::from_secs(30);

pdbt_obs::counter_family! {
    /// A point-in-time copy of [`ArtifactBoot`]: the `artifacts`
    /// PING/STATS section, next to the live trace-library hits summed
    /// over partitions.
    struct ArtifactTally {
        /// Artifacts that loaded and warmed a partition.
        loaded,
        /// Artifacts rejected wholesale (unreadable, bad header/version,
        /// fingerprint mismatch) or shadowed by a newer generation of
        /// the same image — the image boots from the winner or cold.
        rejected,
        /// Sections quarantined inside scanned or transferred artifacts.
        sections_quarantined,
    }
    /// The artifact warm-boot tally. All-zero when the server boots
    /// cold (no `--artifact-dir`); `sections_quarantined` also moves at
    /// runtime when a wire transfer carries quarantinable damage.
    atomic struct ArtifactBoot;
}

/// Everything the server holds for one guest image: the live
/// [`SharedTranslationState`] its sessions share, and what the
/// replication plane needs to advertise it, serve it to a peer, and
/// write it back to disk.
#[derive(Debug)]
struct Partition {
    /// The translation state sessions of this image attach to.
    state: Arc<SharedTranslationState>,
    /// Human-readable label (`mcf/tiny`, `inline`), recorded on first
    /// sight; shown in STATS, advertised and sealed into write-backs.
    label: String,
    /// The guest image — re-sealing needs the GIMG section.
    program: pdbt_isa_arm::Program,
    /// Version of `sealed`, or of the next seal's predecessor.
    version: ArtifactVersion,
    /// The current sealed bytes, lazily refreshed when the live cache
    /// outgrows them (`None` until the partition is first sealed).
    sealed: Option<Arc<Vec<u8>>>,
    /// How many blocks `sealed` captured — the staleness check: the
    /// shared cache only ever grows and blocks are immutable, so a
    /// length match means the sealed bytes are current.
    sealed_blocks: usize,
    /// The generation the artifact dir holds for this image (`None` =
    /// not on disk); drain write-back only writes when it has moved
    /// past this.
    disk_generation: Option<u64>,
}

impl Partition {
    /// A cold partition for an image seen for the first time in a
    /// request. Its telemetry plane gets one latency slot per worker
    /// and is stamped with the image fingerprint.
    fn cold(
        rules: Option<RuleSet>,
        slots: usize,
        image: u64,
        label: &str,
        program: &pdbt_isa_arm::Program,
    ) -> Partition {
        Partition {
            state: Arc::new(SharedTranslationState::with_telemetry(
                rules,
                EngineConfig::default().cache_shards,
                slots,
                image,
            )),
            label: label.to_string(),
            program: program.clone(),
            version: ArtifactVersion::default(),
            sealed: None,
            sealed_blocks: 0,
            disk_generation: None,
        }
    }

    /// The one artifact-ingest path, shared by the boot scan and wire
    /// adoption: label (the artifact's own, else the caller's
    /// fallback), then `warm_state` — no counter pollution, so sessions
    /// on the new state report translate-free warm runs — then the
    /// record. When the artifact carries no ruleset, or its RULE section
    /// was quarantined, the partition falls back to the server's own
    /// `rules`, exactly as a cold partition would.
    fn from_artifact(
        opened: &pdbt_artifact::Opened,
        fallback_label: impl FnOnce() -> String,
        rules: Option<&RuleSet>,
        slots: usize,
        version: ArtifactVersion,
        bytes: Arc<Vec<u8>>,
        disk_generation: Option<u64>,
    ) -> Partition {
        let label = if opened.artifact.label.is_empty() {
            fallback_label()
        } else {
            opened.artifact.label.clone()
        };
        let state =
            pdbt_artifact::warm_state(opened, rules, EngineConfig::default().cache_shards, slots);
        Partition {
            state: Arc::new(state),
            label,
            program: opened.artifact.program.clone(),
            version,
            // A salvaged (partially quarantined) file is not worth
            // advertising: leave `sealed` empty so the first peer
            // interaction re-seals clean content from live state.
            sealed: opened.quarantined.is_empty().then_some(bytes),
            sealed_blocks: opened.artifact.blocks.len(),
            disk_generation,
        }
    }

    /// The current sealed bytes and version, re-sealing lazily when
    /// the live cache has outgrown the last seal. Every content change
    /// bumps the generation by one, so this node's advertised versions
    /// are monotone — the property the fleet's newest-wins convergence
    /// rests on. Returns `None` when there is nothing to advertise
    /// (empty cache, never sealed). Callers hold `ctx.replication`.
    fn seal(&mut self) -> Option<(Arc<Vec<u8>>, ArtifactVersion)> {
        let live_blocks = self.state.cache().len();
        if let Some(sealed) = &self.sealed {
            if self.sealed_blocks == live_blocks {
                return Some((Arc::clone(sealed), self.version));
            }
        }
        if live_blocks == 0 && self.sealed.is_none() {
            return None;
        }
        let generation = if self.sealed.is_some() {
            self.version.generation + 1
        } else {
            // First seal: continue past whatever the disk holds (a
            // quarantined boot artifact leaves `sealed` empty but the
            // file's generation taken), else start at 0.
            self.disk_generation.map_or(0, |g| g + 1)
        };
        let bytes = seal_live(&self.label, &self.program, &self.state);
        let version = ArtifactVersion::of_bytes(generation, &bytes)
            .expect("a self-sealed artifact always parses");
        let sealed = Arc::new(bytes);
        self.sealed = Some(Arc::clone(&sealed));
        self.sealed_blocks = live_blocks;
        self.version = version;
        Some((sealed, version))
    }
}

impl ServerCtx {
    fn partitions(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Partition>> {
        self.partitions.lock().expect("partition table poisoned")
    }

    /// The translation state for a guest image, its partition created
    /// cold on first sight.
    fn state_for(
        &self,
        image: u64,
        label: &str,
        program: &pdbt_isa_arm::Program,
    ) -> Arc<SharedTranslationState> {
        let mut table = self.partitions();
        let partition = table.entry(image).or_insert_with(|| {
            Partition::cold(self.rules.clone(), self.jobs, image, label, program)
        });
        Arc::clone(&partition.state)
    }
}

/// A bound, not-yet-serving daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    queue: TaskQueue,
    ctx: Arc<ServerCtx>,
    flight_path: Option<PathBuf>,
    replicate_interval: Option<Duration>,
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port) and builds
    /// the worker queue.
    ///
    /// # Errors
    ///
    /// Forwarded bind errors.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let queue = TaskQueue::new(cfg.jobs);
        let jobs = queue.jobs();
        let scan = match &cfg.artifact_dir {
            Some(dir) => load_artifacts(dir, cfg.rules.as_ref(), jobs),
            None => BootScan::default(),
        };
        let ctx = Arc::new(ServerCtx {
            partitions: Mutex::new(scan.partitions),
            workloads: Mutex::new(HashMap::new()),
            rules: cfg.rules,
            default_deadline_ms: cfg.default_deadline_ms,
            jobs,
            backend: cfg.backend,
            started: Instant::now(),
            stats_seq: AtomicU64::new(0),
            served: AtomicU64::new(0),
            active: AtomicU64::new(0),
            artifacts: scan.boot,
            replication: Mutex::new(()),
            fleet: pdbt_obs::FleetCounters::default(),
            reply_errors: AtomicU64::new(0),
            peers: cfg.peers,
            artifact_dir: cfg.artifact_dir,
        });
        // Boot pull: a follower is warm *before* `bind` returns, so
        // its very first request already hits the replicated cache.
        if !ctx.peers.is_empty() {
            replicate_once(&ctx);
        }
        Ok(Server {
            listener,
            queue,
            ctx,
            flight_path: cfg.flight_path,
            replicate_interval: cfg.replicate_interval,
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
        let Server {
            listener,
            queue,
            ctx,
            flight_path,
            replicate_interval,
        } = self;
        // The refresh tick: re-run the pull pass against every peer on
        // a jittered period. Seeded from the listen port so a fleet's
        // ticks are deterministic per node but decorrelated across
        // nodes.
        let stop = Arc::new(AtomicBool::new(false));
        let ticker = match replicate_interval {
            Some(interval) if !ctx.peers.is_empty() => {
                let ctx = Arc::clone(&ctx);
                let stop = Arc::clone(&stop);
                let seed = listener.local_addr().map_or(0, |a| u64::from(a.port()));
                Some(std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    'tick: loop {
                        let wait = interval.mul_f64(0.5 + rng.gen::<f64>());
                        let deadline = Instant::now() + wait;
                        while Instant::now() < deadline {
                            if stop.load(Ordering::Relaxed) {
                                break 'tick;
                            }
                            std::thread::sleep(Duration::from_millis(50));
                        }
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        replicate_once(&ctx);
                    }
                }))
            }
            _ => None,
        };
        let mut requests = 0u64;
        for conn in listener.incoming() {
            let mut stream = match conn {
                Ok(s) => s,
                // Transient accept failures (peer gone before accept)
                // are not fatal.
                Err(_) => continue,
            };
            let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
            let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
            let frame = match proto::read_frame(&mut stream) {
                Ok(f) => f,
                Err(e) => {
                    respond_error(&ctx, &mut stream, None, &format!("bad frame: {e}"));
                    continue;
                }
            };
            match frame.opcode {
                op::PING => {
                    respond(&ctx, &mut stream, op::PONG, &status(&ctx, &queue));
                }
                op::STATS => {
                    respond(&ctx, &mut stream, op::PONG, &stats(&ctx, &queue));
                }
                op::ART_LIST => {
                    let ads = advertise(&ctx);
                    let doc =
                        Json::obj([("artifacts", Json::arr(ads.iter().map(ArtifactAd::to_json)))]);
                    respond(&ctx, &mut stream, op::RESULT, &doc);
                }
                op::ART_PULL => {
                    serve_pull(&ctx, &frame, &mut stream);
                }
                op::ART_PUSH => {
                    serve_push(&ctx, &frame, &mut stream);
                }
                op::SHUTDOWN => {
                    let ack = Json::obj([
                        ("draining", Json::from(queue.outstanding())),
                        ("ok", Json::from(true)),
                    ]);
                    respond(&ctx, &mut stream, op::PONG, &ack);
                    break;
                }
                op::SUBMIT => {
                    requests += 1;
                    let req = match frame.payload_str().ok().and_then(|s| Json::parse(s).ok()) {
                        Some(j) => j,
                        None => {
                            respond_error(
                                &ctx,
                                &mut stream,
                                None,
                                "request payload is not valid JSON",
                            );
                            continue;
                        }
                    };
                    // Accept-time stamps: the global request sequence
                    // number and the clock the queue-wait phase is
                    // measured against.
                    let seq = ctx.served.fetch_add(1, Ordering::Relaxed) + 1;
                    let accept_ns = pdbt_obs::now_ns();
                    let ctx = Arc::clone(&ctx);
                    let submit = queue.submit(move || {
                        serve_request(&ctx, req, &mut stream, seq, accept_ns);
                    });
                    if let Err(pdbt_par::QueueClosed(task)) = submit {
                        // Unreachable while the queue is owned here (it
                        // only closes on drain), but never drop a
                        // request silently: run it inline.
                        task();
                    }
                }
                other => {
                    respond_error(
                        &ctx,
                        &mut stream,
                        None,
                        &format!("unknown opcode {other:#04x}"),
                    );
                }
            }
        }
        // Quiesce the replication tick before the final snapshot and
        // write-back, so nothing mutates partitions underneath them.
        stop.store(true, Ordering::Relaxed);
        if let Some(handle) = ticker {
            let _ = handle.join();
        }
        // Final snapshot before draining destroys nothing but after it
        // quiesces everything: dump the flight recorder so postmortems
        // (including ones prompted by panicked sessions) don't require
        // rerunning the traffic.
        queue.wait_idle();
        if let Some(path) = &flight_path {
            let doc = stats(&ctx, &queue);
            if let Err(e) = std::fs::write(path, doc.to_string() + "\n") {
                eprintln!("pdbt-serve: flight dump to {} failed: {e}", path.display());
            }
        }
        // Drain write-back: partitions whose live cache outgrew their
        // on-disk artifact re-seal as the next generation, so warm
        // state compounds across restarts instead of evaporating.
        if let Some(dir) = ctx.artifact_dir.clone() {
            write_back(&ctx, &dir);
        }
        let panicked = queue.drain();
        Ok(ServeSummary { requests, panicked })
    }
}

/// Server-lifetime counters summed across partitions: the one fold
/// behind the `server` and `artifacts` sections of PING and STATS.
#[derive(Default)]
struct Totals {
    server: pdbt_obs::ServerSnapshot,
    trace_hits: u64,
    cached_blocks: usize,
    images: usize,
}

impl Totals {
    fn add(&mut self, state: &SharedTranslationState, snap: &pdbt_obs::ServerSnapshot) {
        self.server.merge(snap);
        self.trace_hits += state.artifact().trace_hits.get();
        self.cached_blocks += state.cache().len();
        self.images += 1;
    }

    /// The `artifacts` section: the boot tally plus the live
    /// trace-library hits.
    fn artifacts_json(&self, ctx: &ServerCtx) -> Json {
        let tally = ctx.artifacts.snapshot();
        Json::obj(
            tally
                .json_pairs()
                .chain([("trace_hits", Json::from(self.trace_hits))]),
        )
    }
}

/// The PONG status payload: protocol version, queue occupancy, and the
/// server-lifetime counters summed across guest-image partitions.
fn status(ctx: &ServerCtx, queue: &TaskQueue) -> Json {
    let mut totals = Totals::default();
    for p in ctx.partitions().values() {
        totals.add(&p.state, &p.state.server().snapshot());
    }
    let reply_errors = Json::from(ctx.reply_errors.load(Ordering::Relaxed));
    Json::obj([
        ("version", Json::from(u64::from(proto::VERSION))),
        ("jobs", Json::from(queue.jobs())),
        ("outstanding", Json::from(queue.outstanding())),
        ("faults_enabled", Json::from(pdbt_faults::ENABLED)),
        ("images", Json::from(totals.images)),
        ("cached_blocks", Json::from(totals.cached_blocks)),
        ("artifacts", totals.artifacts_json(ctx)),
        ("fleet", ctx.fleet.snapshot().to_json()),
        (
            "server",
            Json::obj(
                totals
                    .server
                    .section_pairs()
                    // The liveness probe carries the translation-sharing
                    // counters only; STATS has the full section.
                    .filter(|(key, _)| !matches!(*key, "compiled_blocks" | "hit_rate"))
                    .chain([("reply_errors", reply_errors)]),
            ),
        ),
    ])
}

/// The live-telemetry snapshot behind the `STATS` frame. Built inline
/// by the accept loop: everything it reads is either atomic, behind a
/// short-lived lock, or merged from per-worker histograms in index
/// order, so a poll never waits on a running session.
fn stats(ctx: &ServerCtx, queue: &TaskQueue) -> Json {
    let stats_seq = ctx.stats_seq.fetch_add(1, Ordering::Relaxed) + 1;
    // Partitions sorted by fingerprint: deterministic payload order.
    let mut states: Vec<(u64, String, Arc<SharedTranslationState>)> = ctx
        .partitions()
        .iter()
        .map(|(&fp, p)| (fp, p.label.clone(), Arc::clone(&p.state)))
        .collect();
    states.sort_by_key(|&(fp, _, _)| fp);

    let mut totals = Totals::default();
    let mut global = LatencyHists::default();
    let mut flight: Vec<RequestSummary> = Vec::new();
    let mut partitions = Vec::with_capacity(states.len());
    for (_, label, state) in &states {
        let snap = state.server().snapshot();
        let tele = state.telemetry().snapshot();
        let art = state.artifact().snapshot();
        totals.add(state, &snap);
        partitions.push(Json::obj(tele.partition_pairs(&snap).chain([
            ("label", Json::str(label.as_str())),
            ("cached_blocks", Json::from(state.cache().len())),
            ("warm", Json::from(art.warm())),
            ("loaded_blocks", Json::from(art.loaded_blocks)),
            ("trace_hits", Json::from(art.trace_hits)),
        ])));
        global.merge(&tele.latency);
        flight.extend(tele.flight);
    }
    // The merged flight tail reads chronologically across partitions.
    flight.sort_by_key(|s| s.seq);
    let tail_from = flight
        .len()
        .saturating_sub(pdbt_obs::FlightRecorder::CAPACITY);
    Json::obj([
        ("stats_seq", Json::from(stats_seq)),
        ("version", Json::from(u64::from(proto::VERSION))),
        (
            "uptime_ns",
            Json::from(ctx.started.elapsed().as_nanos() as u64),
        ),
        ("jobs", Json::from(ctx.jobs)),
        ("backend", Json::str(ctx.backend.name())),
        ("outstanding", Json::from(queue.outstanding())),
        (
            "sessions",
            Json::obj([
                ("served", Json::from(ctx.served.load(Ordering::Relaxed))),
                ("active", Json::from(ctx.active.load(Ordering::Relaxed))),
                ("panicked", Json::from(queue.panicked())),
                (
                    "reply_errors",
                    Json::from(ctx.reply_errors.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "pool",
            Json::obj([
                ("high_water", Json::from(queue.high_water())),
                (
                    "completed",
                    Json::arr(queue.utilization().into_iter().map(Json::from)),
                ),
                (
                    "busy_ns",
                    Json::arr(queue.busy_ns().into_iter().map(Json::from)),
                ),
            ]),
        ),
        ("server", Json::obj(totals.server.section_pairs())),
        ("artifacts", totals.artifacts_json(ctx)),
        ("fleet", ctx.fleet.snapshot().to_json()),
        ("latency", global.to_json()),
        ("partitions", Json::Arr(partitions)),
        (
            "flight",
            Json::arr(flight[tail_from..].iter().map(RequestSummary::to_json)),
        ),
    ])
}

/// The worker-side request lifecycle: stamp dequeue, run the session
/// under a request-scoped trace id, write the reply, then fold the
/// phase latencies into the partition's telemetry plane at this
/// worker's slot.
fn serve_request(ctx: &ServerCtx, req: Json, stream: &mut TcpStream, seq: u64, accept_ns: u64) {
    let dequeue_ns = pdbt_obs::now_ns();
    ctx.active.fetch_add(1, Ordering::Relaxed);
    // Tag every span this session opens (translate, exec, ...) with
    // the request sequence, so multi-session Chrome traces separate
    // into one track per request.
    let _scope = pdbt_obs::scoped(seq);
    let id = req.get("id").and_then(Json::as_u64);
    match run_request(ctx, &req) {
        Ok((resp, tele)) => {
            let run_done_ns = pdbt_obs::now_ns();
            let payload = resp.to_string();
            if proto::write_frame(stream, op::RESULT, payload.as_bytes()).is_err() {
                ctx.reply_errors.fetch_add(1, Ordering::Relaxed);
            }
            let reply_done_ns = pdbt_obs::now_ns();
            let summary = RequestSummary {
                seq,
                id: id.unwrap_or(0),
                partition: tele.partition,
                outcome: tele.outcome,
                phases: PhaseNs {
                    queue: dequeue_ns.saturating_sub(accept_ns),
                    translate: tele.translate_ns,
                    execute: run_done_ns
                        .saturating_sub(dequeue_ns)
                        .saturating_sub(tele.translate_ns),
                    reply: reply_done_ns.saturating_sub(run_done_ns),
                },
                reply_bytes: payload.len() as u64,
                injected: tele.injected,
                fault_sites: tele.fault_sites,
            };
            tele.shared
                .telemetry()
                .record(pdbt_par::current_worker_slot().unwrap_or(0), summary);
        }
        Err(e) => respond_error(ctx, stream, id, &e),
    }
    ctx.active.fetch_sub(1, Ordering::Relaxed);
}

/// Writes a response frame; a send failure is the client's loss, not
/// the server's problem (the session already ran) — but it is counted
/// (`reply_errors`), because a fleet where replies silently vanish
/// looks healthy from every other counter.
fn respond(ctx: &ServerCtx, stream: &mut TcpStream, opcode: u8, payload: &Json) {
    if proto::write_frame(stream, opcode, payload.to_string().as_bytes()).is_err() {
        ctx.reply_errors.fetch_add(1, Ordering::Relaxed);
    }
}

fn respond_error(ctx: &ServerCtx, stream: &mut TcpStream, id: Option<u64>, msg: &str) {
    let mut pairs = vec![("error".to_string(), Json::str(msg))];
    if let Some(id) = id {
        pairs.push(("id".to_string(), Json::from(id)));
    }
    respond(
        ctx,
        stream,
        op::ERROR,
        &Json::Obj(pairs.into_iter().collect()),
    );
}

/// Builds the `ART_LIST` advertisement: one entry per sealable
/// partition, in fingerprint order.
fn advertise(ctx: &ServerCtx) -> Vec<ArtifactAd> {
    let _plane = ctx.replication.lock().expect("replication lock poisoned");
    let mut ads: Vec<ArtifactAd> = ctx
        .partitions()
        .iter_mut()
        .filter_map(|(&fingerprint, p)| {
            let (sealed, version) = p.seal()?;
            Some(ArtifactAd {
                fingerprint,
                version,
                blocks: p.state.cache().len() as u64,
                traces: p.state.library_len() as u64,
                bytes: sealed.len() as u64,
                label: p.label.clone(),
            })
        })
        .collect();
    ads.sort_by_key(|ad| ad.fingerprint);
    ads
}

/// Serves an `ART_PULL`: header frame with the transfer envelope, then
/// the chunk frames. An unknown or unsealable fingerprint is an
/// `ERROR` frame, never a partial stream.
fn serve_pull(ctx: &ServerCtx, frame: &proto::Frame, stream: &mut TcpStream) {
    let fp = frame
        .payload_str()
        .ok()
        .and_then(|s| Json::parse(s).ok())
        .and_then(|j| {
            j.get("fingerprint")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
        });
    let Some(fp) = fp else {
        respond_error(ctx, stream, None, "ART_PULL needs a hex `fingerprint`");
        return;
    };
    let sealed = {
        let _plane = ctx.replication.lock().expect("replication lock poisoned");
        ctx.partitions()
            .get_mut(&fp)
            .and_then(|p| Some((p.seal()?, p.label.clone())))
    };
    let Some(((sealed, version), label)) = sealed else {
        respond_error(
            ctx,
            stream,
            None,
            &format!("no artifact for fingerprint {fp:016x}"),
        );
        return;
    };
    let header = Json::obj([
        ("fingerprint", Json::str(format!("{fp:016x}"))),
        ("generation", Json::from(version.generation)),
        ("bytes", Json::from(sealed.len() as u64)),
        ("chunks", Json::from(chunk_count(sealed.len()) as u64)),
        (
            "crc32",
            Json::from(u64::from(pdbt_artifact::bytes::crc32(&sealed))),
        ),
        ("label", Json::str(label)),
    ]);
    respond(ctx, stream, op::RESULT, &header);
    for chunk in sealed.chunks(CHUNK) {
        if proto::write_frame(stream, op::ART_DATA, chunk).is_err() {
            ctx.reply_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    ctx.fleet.pushed.inc();
    ctx.fleet.bytes.add(sealed.len() as u64);
}

/// Serves an `ART_PUSH`: reassembles the offered artifact from its
/// chunk frames, verifies the transfer envelope (size cap, chunk
/// count, CRC), then runs the adoption decision. Always answers with
/// a verdict frame; never panics on hostile input.
fn serve_push(ctx: &ServerCtx, frame: &proto::Frame, stream: &mut TcpStream) {
    let Some(header) = frame.payload_str().ok().and_then(|s| Json::parse(s).ok()) else {
        respond_error(ctx, stream, None, "ART_PUSH header is not valid JSON");
        return;
    };
    let fp = header
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok());
    let generation = header.get("generation").and_then(Json::as_u64);
    let total = header.get("bytes").and_then(Json::as_u64);
    let chunks = header.get("chunks").and_then(Json::as_u64);
    let crc = header.get("crc32").and_then(Json::as_u64);
    let (Some(fp), Some(generation), Some(total), Some(chunks), Some(crc)) =
        (fp, generation, total, chunks, crc)
    else {
        respond_error(
            ctx,
            stream,
            None,
            "ART_PUSH header needs fingerprint/generation/bytes/chunks/crc32",
        );
        return;
    };
    if total > MAX_ARTIFACT || chunks != chunk_count(total as usize) as u64 {
        ctx.fleet.rejected.inc();
        respond_error(
            ctx,
            stream,
            None,
            "ART_PUSH transfer envelope is implausible",
        );
        return;
    }
    let mut bytes = Vec::with_capacity(total as usize);
    for _ in 0..chunks {
        let data = match proto::read_frame(stream) {
            Ok(f) if f.opcode == op::ART_DATA => f.payload,
            Ok(f) => {
                ctx.fleet.rejected.inc();
                respond_error(
                    ctx,
                    stream,
                    None,
                    &format!("expected ART_DATA continuation, got {:#04x}", f.opcode),
                );
                return;
            }
            Err(e) => {
                ctx.fleet.rejected.inc();
                respond_error(ctx, stream, None, &format!("artifact stream died: {e}"));
                return;
            }
        };
        if data.len() > CHUNK || bytes.len() + data.len() > total as usize {
            ctx.fleet.rejected.inc();
            respond_error(ctx, stream, None, "oversized artifact chunk");
            return;
        }
        bytes.extend_from_slice(&data);
    }
    if bytes.len() as u64 != total || u64::from(pdbt_artifact::bytes::crc32(&bytes)) != crc {
        ctx.fleet.rejected.inc();
        respond_error(ctx, stream, None, "artifact transfer fails its envelope");
        return;
    }
    ctx.fleet.bytes.add(total);
    let _plane = ctx.replication.lock().expect("replication lock poisoned");
    let (adopted, reason, current) = adopt_artifact(ctx, &bytes, generation, fp);
    let verdict = Json::obj([
        ("fingerprint", Json::str(format!("{fp:016x}"))),
        ("adopted", Json::from(adopted)),
        ("reason", Json::str(reason)),
        ("generation", Json::from(current)),
    ]);
    respond(ctx, stream, op::RESULT, &verdict);
}

/// The adoption decision for a CRC-verified transferred artifact: the
/// wire trust boundary ([`validate`]), then the version order against
/// the locally *materialized* version — the local side seals its live
/// growth first, so the comparison is deterministic no matter when the
/// offer arrives. On adoption the partition is replaced by
/// [`Partition::from_artifact`]; in-flight sessions keep the old
/// state's `Arc` and finish undisturbed.
///
/// Returns `(adopted, reason, local generation after the decision)`.
/// Caller holds `ctx.replication`.
fn adopt_artifact(ctx: &ServerCtx, bytes: &[u8], generation: u64, fp: u64) -> (bool, String, u64) {
    let opened = match validate(bytes, fp) {
        Ok(o) => o,
        Err((reason, quarantined)) => {
            // Quarantines are counted where disk-scan damage already
            // shows up, and the artifact is refused wholesale: a
            // partial copy never replaces a healthy partition — the
            // peer can re-pull.
            ctx.artifacts.sections_quarantined.add(quarantined as u64);
            ctx.fleet.rejected.inc();
            let local = ctx
                .partitions()
                .get(&fp)
                .map_or(0, |p| p.version.generation);
            return (false, reason, local);
        }
    };
    let incoming =
        ArtifactVersion::of_bytes(generation, bytes).expect("an artifact that opened still parses");
    // Materialize the local version before comparing: live growth is
    // sealed (and its generation bumped) first, so an offer can never
    // overwrite translations the incoming artifact lacks.
    let (held, prior_disk) = match ctx.partitions().get_mut(&fp) {
        Some(p) => (p.seal().map(|(_, v)| v), p.disk_generation),
        None => (None, None),
    };
    if let Some(held) = held {
        if held >= incoming {
            ctx.fleet.rejected.inc();
            return (
                false,
                format!(
                    "stale: local generation {} is newer or equal",
                    held.generation
                ),
                held.generation,
            );
        }
    }
    let sealed = Arc::new(bytes.to_vec());
    // Persist the adopted bytes so a restart boots warm from disk; a
    // write failure demotes this to memory-only adoption (the drain
    // write-back will retry).
    let disk_generation = match &ctx.artifact_dir {
        Some(dir) => {
            let path = dir.join(artifact_file_name(fp, generation));
            match std::fs::write(&path, sealed.as_slice()) {
                Ok(()) => Some(generation),
                Err(e) => {
                    eprintln!(
                        "pdbt-serve: persisting adopted artifact {} failed: {e}",
                        path.display()
                    );
                    prior_disk
                }
            }
        }
        None => prior_disk,
    };
    let partition = Partition::from_artifact(
        &opened,
        || format!("{fp:016x}"),
        ctx.rules.as_ref(),
        ctx.jobs,
        incoming,
        sealed,
        disk_generation,
    );
    ctx.partitions().insert(fp, partition);
    ctx.fleet.adopted.inc();
    (true, "adopted".to_string(), generation)
}

/// One replication pass: ask every peer for its advertisements, pull
/// whatever is missing here or newer than what this node holds, and
/// run each pull through the adoption decision. Peer failures are
/// logged and skipped — replication is opportunistic, never fatal.
fn replicate_once(ctx: &ServerCtx) {
    for peer in &ctx.peers {
        let ads = match crate::fleet::list_artifacts(peer.as_str(), FLEET_TIMEOUT) {
            Ok(ads) => ads,
            Err(e) => {
                eprintln!("pdbt-serve: peer {peer} unreachable: {e}");
                continue;
            }
        };
        for ad in ads {
            let worth_pulling = {
                let _plane = ctx.replication.lock().expect("replication lock poisoned");
                ctx.partitions()
                    .get_mut(&ad.fingerprint)
                    .and_then(Partition::seal)
                    .is_none_or(|(_, held)| held < ad.version)
            };
            if !worth_pulling {
                continue;
            }
            let pulled =
                match crate::fleet::pull_artifact(peer.as_str(), ad.fingerprint, FLEET_TIMEOUT) {
                    Ok(p) => p,
                    Err(e) => {
                        ctx.fleet.rejected.inc();
                        eprintln!(
                            "pdbt-serve: pull of {:016x} from {peer} failed: {e}",
                            ad.fingerprint
                        );
                        continue;
                    }
                };
            ctx.fleet.pulled.inc();
            ctx.fleet.bytes.add(pulled.bytes.len() as u64);
            let _plane = ctx.replication.lock().expect("replication lock poisoned");
            let (adopted, reason, _) =
                adopt_artifact(ctx, &pulled.bytes, pulled.generation, ad.fingerprint);
            if !adopted {
                eprintln!(
                    "pdbt-serve: pulled artifact {:016x} from {peer} not adopted: {reason}",
                    ad.fingerprint
                );
            }
        }
    }
}

/// Drain write-back: every partition whose current seal has moved past
/// what the artifact dir holds is written out under its generation
/// file name, in fingerprint order. Runs after the queue quiesced, so
/// the seals are final.
fn write_back(ctx: &ServerCtx, dir: &std::path::Path) {
    let _plane = ctx.replication.lock().expect("replication lock poisoned");
    let mut table = ctx.partitions();
    let mut sorted: Vec<(u64, &mut Partition)> = table.iter_mut().map(|(&fp, p)| (fp, p)).collect();
    sorted.sort_by_key(|&(fp, _)| fp);
    for (fp, p) in sorted {
        let Some((sealed, version)) = p.seal() else {
            continue;
        };
        if p.disk_generation.is_some_and(|g| version.generation <= g) {
            continue;
        }
        let path = dir.join(artifact_file_name(fp, version.generation));
        match std::fs::write(&path, sealed.as_slice()) {
            Ok(()) => {
                ctx.fleet.written_back.inc();
                ctx.fleet.bytes.add(sealed.len() as u64);
                p.disk_generation = Some(version.generation);
            }
            Err(e) => {
                eprintln!("pdbt-serve: write-back to {} failed: {e}", path.display());
            }
        }
    }
}

/// The guest a request resolved to: a memoized benchmark corpus or an
/// inline assembly listing.
enum Guest {
    Workload(Arc<Workload>),
    Inline(pdbt_isa_arm::Program),
}

impl Guest {
    fn program(&self) -> &pdbt_isa_arm::Program {
        match self {
            Guest::Workload(w) => &w.pair.guest.program,
            Guest::Inline(p) => p,
        }
    }
}

/// What the bind-time artifact scan produced.
#[derive(Debug, Default)]
struct BootScan {
    partitions: HashMap<u64, Partition>,
    boot: ArtifactBoot,
}

/// The bind-time artifact scan: every `*.pdba` file in `dir` (sorted by
/// name for deterministic scan order) is opened in salvage mode; the
/// survivors are deduplicated by guest-image fingerprint keeping the
/// *newest* [`ArtifactVersion`] (file-name generation, section CRCs as
/// the tie-break — never scan order), and each winner pre-creates its
/// image's translation-state partition. Shadowed duplicates are
/// counted as rejects, not silently dropped.
///
/// Failure is never fatal and never aborts the scan: an unreadable or
/// rejected artifact is counted and logged, and that image simply boots
/// cold when its first request arrives.
fn load_artifacts(dir: &std::path::Path, rules: Option<&RuleSet>, slots: usize) -> BootScan {
    let mut scan = BootScan::default();
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "pdba"))
            .collect(),
        Err(e) => {
            eprintln!(
                "pdbt-serve: artifact dir {} unreadable ({e}); booting cold",
                dir.display()
            );
            return scan;
        }
    };
    paths.sort();
    let mut candidates = Vec::new();
    for path in paths {
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("pdbt-serve: artifact {} unreadable: {e}", path.display());
                scan.boot.rejected.inc();
                continue;
            }
        };
        let parsed = pdbt_artifact::open_salvage(&bytes).and_then(|opened| {
            let version = ArtifactVersion::of_bytes(parse_generation(&path), &bytes)?;
            Ok((opened, version))
        });
        let (opened, version) = match parsed {
            Ok(p) => p,
            Err(e) => {
                eprintln!("pdbt-serve: artifact {} rejected: {e}", path.display());
                scan.boot.rejected.inc();
                continue;
            }
        };
        let fingerprint = opened.artifact.fingerprint();
        candidates.push((fingerprint, version, (path, bytes, opened)));
    }
    let (winners, shadowed) = dedupe_newest(candidates);
    if shadowed > 0 {
        eprintln!(
            "pdbt-serve: {shadowed} duplicate artifact(s) shadowed by newer generations in {}",
            dir.display()
        );
        scan.boot.rejected.add(shadowed);
    }
    for (fingerprint, version, (path, bytes, opened)) in winners {
        for q in &opened.quarantined {
            eprintln!(
                "pdbt-serve: artifact {}: section {} quarantined: {}",
                path.display(),
                q.section,
                q.reason
            );
        }
        scan.boot
            .sections_quarantined
            .add(opened.quarantined.len() as u64);
        let file_stem = || {
            path.file_stem().map_or_else(
                || "artifact".to_string(),
                |s| s.to_string_lossy().into_owned(),
            )
        };
        let partition = Partition::from_artifact(
            &opened,
            file_stem,
            rules,
            slots,
            version,
            Arc::new(bytes),
            Some(version.generation),
        );
        scan.partitions.insert(fingerprint, partition);
        scan.boot.loaded.inc();
    }
    scan
}

/// Resolves the request's guest program, base run setup, and label.
fn resolve_guest(ctx: &ServerCtx, req: &Json) -> Result<(Guest, RunSetup, String), String> {
    if let Some(name) = req.get("workload").and_then(Json::as_str) {
        let bench = Benchmark::from_name(name)?;
        let scale_name = req.get("scale").and_then(Json::as_str).unwrap_or("tiny");
        let scale = Scale::from_name(scale_name)?;
        let key = (name.to_string(), scale_name.to_string());
        let w = {
            let mut map = ctx.workloads.lock().expect("workload cache poisoned");
            Arc::clone(
                map.entry(key)
                    .or_insert_with(|| Arc::new(build(bench, scale))),
            )
        };
        let setup = w.setup();
        Ok((Guest::Workload(w), setup, format!("{name}/{scale_name}")))
    } else if let Some(text) = req.get("program").and_then(Json::as_str) {
        let insts = pdbt_isa_arm::parse_listing(text).map_err(|e| format!("program: {e}"))?;
        let prog = pdbt_isa_arm::Program::new(0x1000, insts);
        // The CLI `run` memory layout: data at 0x100000, stack at
        // 0x80000.
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        Ok((Guest::Inline(prog), setup, "inline".to_string()))
    } else {
        Err("request needs a `workload` name or an inline `program` listing".to_string())
    }
}

/// What the flight recorder needs to know about a finished session,
/// handed from [`run_request`] back to [`serve_request`] (which adds
/// the phase stamps only it can measure).
struct RequestTelemetry {
    /// The partition the session ran against (for recording into its
    /// telemetry plane).
    shared: Arc<SharedTranslationState>,
    partition: u64,
    outcome: String,
    /// Time inside the translator, from the session's own histogram.
    translate_ns: u64,
    /// Total faults injected during the run.
    injected: u64,
    /// The raw `faults` spec armed for the run, empty when none.
    fault_sites: String,
}

/// Runs one request on the calling (worker) thread and builds the
/// RESULT payload.
fn run_request(ctx: &ServerCtx, req: &Json) -> Result<(Json, RequestTelemetry), String> {
    let id = req.get("id").and_then(Json::as_u64).unwrap_or(0);
    let (guest, mut setup, label) = resolve_guest(ctx, req)?;
    if let Some(mg) = req.get("max_guest").and_then(Json::as_u64) {
        setup.max_guest = mg;
    }
    let deadline_ms = req
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .or(ctx.default_deadline_ms);
    if let Some(ms) = deadline_ms {
        setup.deadline = Some(Instant::now() + Duration::from_millis(ms));
    }
    let fault_spec = req.get("faults").and_then(Json::as_str).unwrap_or("");
    let plan = match req.get("faults").and_then(Json::as_str) {
        Some(spec) => {
            Some(pdbt_faults::Plan::parse(spec).map_err(|e| format!("bad faults spec: {e}"))?)
        }
        None => None,
    };
    // Sessions are single-threaded; concurrency comes from the queue.
    // The server records the full request lifecycle itself (queue wait
    // and reply write included), so the engine's own end-of-run
    // telemetry recording is turned off — one summary per request.
    let mut cfg = EngineConfig {
        jobs: 1,
        record_telemetry: false,
        backend: ctx.backend,
        ..EngineConfig::default()
    };
    cfg.translate.flag_delegation = !req
        .get("no_delegation")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    // The partition key is *persisted* — sealed into PDBA artifacts and
    // matched against them at boot — which `Program::fingerprint`'s
    // process- and platform-stable hash is there for.
    let partition = guest.program().fingerprint();
    let shared = ctx.state_for(partition, &label, guest.program());
    // Request-scoped fault arming: armed with this request's plan, or
    // explicitly shielded from any process-global plan. Installed after
    // workload resolution so corpus builds are never degraded.
    let _guard = pdbt_faults::scoped(plan);
    let mut engine = Engine::with_shared(Arc::clone(&shared), cfg);
    let report = engine
        .run(guest.program(), &setup)
        .map_err(|e| e.to_string())?;
    let telemetry = RequestTelemetry {
        shared,
        partition,
        outcome: report.outcome.label().to_string(),
        translate_ns: report.obs.translate_ns.sum(),
        injected: report.resilience.injected.iter().sum(),
        fault_sites: fault_spec.to_string(),
    };
    let resp = Json::obj([
        ("id", Json::from(id)),
        ("workload", Json::str(label)),
        ("outcome", Json::str(report.outcome.label())),
        ("faults_enabled", Json::from(pdbt_faults::ENABLED)),
        ("report", report.to_json()),
    ]);
    Ok((resp, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    /// One guest both unit tests run: prints 42, exits.
    const GUEST: &str = "mov r0, #41\nadd r0, r0, #1\nsvc #1\nsvc #0\n";

    fn spawn_server(cfg: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<ServeSummary>) {
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().expect("serve"));
        (addr, handle)
    }

    fn output_of(resp: &Json) -> Vec<u64> {
        resp.get("report")
            .and_then(|r| r.get("output"))
            .and_then(Json::as_arr)
            .expect("report.output")
            .iter()
            .filter_map(Json::as_u64)
            .collect()
    }

    #[test]
    fn ping_submit_and_shutdown_roundtrip() {
        let (addr, handle) = spawn_server(ServeConfig::default());
        let t = Duration::from_secs(30);

        let pong = client::ping(addr, t).expect("ping");
        assert_eq!(pong.get("version").and_then(Json::as_u64), Some(1));

        let req = Json::obj([("id", Json::from(7u64)), ("program", Json::str(GUEST))]);
        let resp = client::submit(addr, &req, t).expect("submit");
        assert_eq!(resp.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(
            resp.get("outcome").and_then(Json::as_str),
            Some("completed")
        );
        assert_eq!(output_of(&resp), [42]);

        client::shutdown(addr, t).expect("shutdown");
        let summary = handle.join().unwrap();
        assert_eq!(summary.requests, 1);
        assert_eq!(summary.panicked, 0);
    }

    #[test]
    fn distinct_guest_images_never_share_translations() {
        // Two different programs, both loaded at 0x1000: the second
        // must not execute the first one's cached block (regression for
        // pc-keyed cache collisions across images).
        let (addr, handle) = spawn_server(ServeConfig::default());
        let t = Duration::from_secs(30);

        let a = Json::obj([("program", Json::str(GUEST))]);
        let b = Json::obj([(
            "program",
            Json::str("mov r0, #9\nmul r0, r0, r0\nsvc #1\nsvc #0\n"),
        )]);
        let ra = client::submit(addr, &a, t).expect("submit a");
        let rb = client::submit(addr, &b, t).expect("submit b");
        assert_eq!(output_of(&ra), [42]);
        assert_eq!(output_of(&rb), [81]);

        // Two partitions, no cross-image cache hits.
        let pong = client::ping(addr, t).expect("ping");
        assert_eq!(pong.get("images").and_then(Json::as_u64), Some(2));
        let server = pong.get("server").expect("server section");
        assert_eq!(server.get("hits").and_then(Json::as_u64), Some(0));

        // The same image again *does* share: one more probe, no insert.
        let ra2 = client::submit(addr, &a, t).expect("submit a again");
        assert_eq!(output_of(&ra2), [42]);
        let pong = client::ping(addr, t).expect("ping");
        let server = pong.get("server").expect("server section");
        assert_eq!(server.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(pong.get("images").and_then(Json::as_u64), Some(2));

        client::shutdown(addr, t).expect("shutdown");
        handle.join().unwrap();
    }

    #[test]
    fn bad_requests_get_error_responses_and_the_server_survives() {
        let (addr, handle) = spawn_server(ServeConfig::default());
        let t = Duration::from_secs(30);

        // Unknown workload.
        let req = Json::obj([("workload", Json::str("nosuch"))]);
        let err = client::submit(addr, &req, t).unwrap_err();
        assert!(matches!(err, client::ClientError::Remote(_)), "{err}");

        // Neither workload nor program.
        let err = client::submit(addr, &Json::obj([("id", Json::from(1u64))]), t).unwrap_err();
        assert!(matches!(err, client::ClientError::Remote(_)), "{err}");

        // Malformed fault spec.
        let req = Json::obj([
            ("program", Json::str(GUEST)),
            ("faults", Json::str("rate=not-a-number")),
        ]);
        let err = client::submit(addr, &req, t).unwrap_err();
        assert!(matches!(err, client::ClientError::Remote(_)), "{err}");

        // A good request still works afterwards.
        let req = Json::obj([("program", Json::str(GUEST))]);
        let resp = client::submit(addr, &req, t).expect("submit after errors");
        assert_eq!(
            resp.get("outcome").and_then(Json::as_str),
            Some("completed")
        );

        client::shutdown(addr, t).expect("shutdown");
        handle.join().unwrap();
    }

    #[test]
    fn artifact_dir_warm_boots_the_matching_partition() {
        // Seal GUEST's translations into an artifact, boot a server
        // from the directory, and check the very first request for
        // that image translates nothing.
        let insts = pdbt_isa_arm::parse_listing(GUEST).unwrap();
        let prog = pdbt_isa_arm::Program::new(0x1000, insts);
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let artifact =
            pdbt_artifact::compile(&prog, None, &setup, EngineConfig::default(), "inline-guest")
                .expect("compile");
        let dir =
            std::env::temp_dir().join(format!("pdbt-serve-artifact-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("guest.pdba"), pdbt_artifact::seal(&artifact)).unwrap();
        // A second, unloadable file must be counted, not fatal.
        std::fs::write(dir.join("junk.pdba"), b"not an artifact").unwrap();

        let (addr, handle) = spawn_server(ServeConfig {
            artifact_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let t = Duration::from_secs(30);

        let pong = client::ping(addr, t).expect("ping");
        let arts = pong.get("artifacts").expect("artifacts section");
        assert_eq!(arts.get("loaded").and_then(Json::as_u64), Some(1));
        assert_eq!(arts.get("rejected").and_then(Json::as_u64), Some(1));
        assert_eq!(
            arts.get("sections_quarantined").and_then(Json::as_u64),
            Some(0)
        );
        // The partition exists before any request arrives.
        assert_eq!(pong.get("images").and_then(Json::as_u64), Some(1));

        let req = Json::obj([("id", Json::from(1u64)), ("program", Json::str(GUEST))]);
        let resp = client::submit(addr, &req, t).expect("submit");
        assert_eq!(output_of(&resp), [42]);

        // Zero live translation work: the artifact answered everything.
        let pong = client::ping(addr, t).expect("ping");
        let server = pong.get("server").expect("server section");
        assert_eq!(
            server.get("translate_calls").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(server.get("inserted").and_then(Json::as_u64), Some(0));
        assert_eq!(server.get("sessions").and_then(Json::as_u64), Some(1));

        client::shutdown(addr, t).expect("shutdown");
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_scan_and_wire_adoption_install_the_same_partition() {
        // The same labelled artifact at the same generation, once
        // scanned from disk and once adopted off the wire: both go
        // through `Partition::from_artifact`, so the records agree.
        let insts = pdbt_isa_arm::parse_listing(GUEST).unwrap();
        let prog = pdbt_isa_arm::Program::new(0x1000, insts);
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let artifact =
            pdbt_artifact::compile(&prog, None, &setup, EngineConfig::default(), "inline-guest")
                .expect("compile");
        let bytes = pdbt_artifact::seal(&artifact);
        let fp = prog.fingerprint();
        let dir =
            std::env::temp_dir().join(format!("pdbt-serve-install-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(artifact_file_name(fp, 3)), &bytes).unwrap();

        let scan = load_artifacts(&dir, None, 1);
        let scanned = &scan.partitions[&fp];

        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let (adopted, reason, generation) = adopt_artifact(&server.ctx, &bytes, 3, fp);
        assert!(adopted, "{reason}");
        assert_eq!(generation, 3);
        let table = server.ctx.partitions();
        let wired = &table[&fp];

        assert_eq!(scanned.label, "inline-guest");
        assert_eq!(wired.label, scanned.label);
        assert_eq!(wired.version, scanned.version);
        assert_eq!(wired.sealed_blocks, scanned.sealed_blocks);
        assert_eq!(wired.sealed, scanned.sealed);
        // Only where the bytes live differs: on disk vs memory-only.
        assert_eq!(scanned.disk_generation, Some(3));
        assert_eq!(wired.disk_generation, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expired_deadline_reports_a_deadline_outcome() {
        let (addr, handle) = spawn_server(ServeConfig::default());
        let t = Duration::from_secs(30);
        // An infinite loop, bounded only by the deadline.
        let req = Json::obj([
            ("program", Json::str("mov r0, #1\nb .+0\nsvc #0\n")),
            ("deadline_ms", Json::from(0u64)),
        ]);
        let resp = client::submit(addr, &req, t).expect("submit");
        assert_eq!(resp.get("outcome").and_then(Json::as_str), Some("deadline"));
        client::shutdown(addr, t).expect("shutdown");
        handle.join().unwrap();
    }
}
