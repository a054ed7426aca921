//! SUBMIT: a request's way from the accept loop onto a queue worker and
//! back out as one response frame — plus the reply writers every lane
//! answers through.
//!
//! Each request runs a fresh [`Engine`] on its image's shared state (a
//! `no_delegation` one on a private cold state) with `jobs = 1`:
//! concurrency comes from running many single-threaded sessions, which
//! keeps every report bit-identical to a standalone run
//! (the shared cache removes duplicate *translation work*, never changes
//! what a session observes — `tests/determinism.rs`). A `faults` spec
//! arms injection for that request's worker thread only; every other
//! request is explicitly shielded.
//!
//! A connection whose SUBMITs carry [`flag::KEEP`] stays with the worker
//! that answered it: that worker reads the next SUBMIT itself and runs
//! it, so the request pays neither a connect nor the accept→queue hop.
//! The worker holds the idle connection in [`Held`] only while fewer than
//! `jobs − 1` others are held, so one worker always serves the queue.

use super::partition::Partition;
use super::{next_frame, Inbound, ServerCtx};
use crate::proto::{self, flag, op, FIRST_FRAME_TIMEOUT};
use pdbt_obs::json::{Json, TextWriter, ToJson};
use pdbt_obs::RequestSummary;
use pdbt_par::TaskQueue;
use pdbt_runtime::{Engine, EngineConfig, Report, RunSetup, SharedTranslationState};
use pdbt_workloads::{build, Benchmark, Scale, Workload};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A request frame's JSON payload, if it is one.
pub(super) fn payload_json(frame: &proto::Frame) -> Option<Json> {
    frame.payload_str().ok().and_then(|s| Json::parse(s).ok())
}

/// Writes a response frame and returns its payload size. The payload
/// is streamed straight into the frame's buffer after a reserved
/// header, the length patched in, and the frame sent in one write.
///
/// A send failure is the client's loss, not the server's problem (the
/// session already ran) — but it is counted (`reply_errors`), because a
/// fleet where replies silently vanish looks healthy from every other
/// counter. So is a payload past the frame cap, which the client gets
/// told about in an `ERROR` frame naming its size.
pub(super) fn respond(
    ctx: &ServerCtx,
    stream: &TcpStream,
    opcode: u8,
    payload: &impl ToJson,
) -> u64 {
    let mut frame = Vec::with_capacity(4096);
    send(ctx, stream, &mut frame, opcode, 0, payload).unwrap_or_else(|error_bytes| error_bytes)
}

/// [`respond`] with header `flags`, assembling the frame in `frame`.
/// `Err` carries the size of the `ERROR` frame that went out instead of
/// a payload past the cap.
fn send(
    ctx: &ServerCtx,
    mut stream: &TcpStream,
    frame: &mut Vec<u8>,
    opcode: u8,
    flags: u8,
    payload: &impl ToJson,
) -> Result<u64, u64> {
    frame.clear();
    proto::begin_frame(frame, opcode, flags);
    payload.write_json(frame);
    if let Err(e) = proto::finish_frame(frame) {
        ctx.reply_errors.fetch_add(1, Ordering::Relaxed);
        let msg = format!("reply {e}");
        return Err(respond(ctx, stream, op::ERROR, &error_doc(None, &msg)));
    }
    if stream.write_all(frame).is_err() {
        ctx.reply_errors.fetch_add(1, Ordering::Relaxed);
    }
    Ok((frame.len() - proto::HEADER_LEN) as u64)
}

/// An `ERROR` frame's payload.
fn error_doc(id: Option<u64>, msg: &str) -> Json {
    let id = id.map(|id| ("id", Json::from(id)));
    Json::obj([("error", Json::str(msg))].into_iter().chain(id))
}

pub(super) fn respond_error(ctx: &ServerCtx, stream: &TcpStream, id: Option<u64>, msg: &str) {
    respond(ctx, stream, op::ERROR, &error_doc(id, msg));
}

/// The accept-side half of a SUBMIT: parse the request, stamp it, and
/// hand the connection, with what was read past the frame, to a queue
/// worker.
pub(super) fn submit(
    ctx: &Arc<ServerCtx>,
    queue: &TaskQueue,
    frame: &proto::Frame,
    inbound: Inbound,
) {
    let Some(request) = accepted(ctx, frame, &inbound.get_ref().stream) else {
        return;
    };
    // The clock the queue-wait phase is measured against.
    let accept_ns = pdbt_obs::now_ns();
    let ctx = Arc::clone(ctx);
    let conn = Conn {
        inbound,
        frame: Vec::with_capacity(4096),
    };
    let submit = queue.submit(move || serve_connection(&ctx, conn, request, Some(accept_ns)));
    if let Err(pdbt_par::QueueClosed(task)) = submit {
        // Unreachable while the accept loop owns the queue (it only
        // closes on drain), but never drop a request silently: run it
        // inline.
        task();
    }
}

/// A SUBMIT as it arrived: the parsed request, its global sequence
/// number, and whether it asked to keep the connection.
struct Request {
    req: Json,
    seq: u64,
    keep: bool,
}

/// Counts a SUBMIT frame — every one claims the next sequence number —
/// and parses its payload; a payload that is not JSON is answered with
/// an `ERROR`.
fn accepted(ctx: &ServerCtx, frame: &proto::Frame, stream: &TcpStream) -> Option<Request> {
    let seq = ctx.served.fetch_add(1, Ordering::Relaxed) + 1;
    let Some(req) = payload_json(frame) else {
        respond_error(ctx, stream, None, "request payload is not valid JSON");
        return None;
    };
    Some(Request {
        req,
        seq,
        keep: frame.keep(),
    })
}

/// A SUBMIT connection on its worker: its read side, whose stream
/// [`Held`] shares while the worker waits on it, and the buffer its
/// RESULT frames are assembled in.
struct Conn {
    inbound: Inbound,
    frame: Vec<u8>,
}

/// A connection's life on its worker: serve the request, then, while
/// the RESULT promised another read, take the next SUBMIT off the same
/// stream — whole within [`FIRST_FRAME_TIMEOUT`] of the reply — and
/// serve it too. A late, partial or non-SUBMIT frame, an `ERROR` reply
/// or the drain ends the connection.
fn serve_connection(
    ctx: &ServerCtx,
    mut conn: Conn,
    mut request: Request,
    mut accept_ns: Option<u64>,
) {
    loop {
        let Some(hold) = serve_request(ctx, request, &mut conn, accept_ns) else {
            return;
        };
        let next = next_frame(&mut conn.inbound, FIRST_FRAME_TIMEOUT);
        drop(hold);
        let stream = &conn.inbound.get_ref().stream;
        let Ok(frame) = next else { return };
        if frame.opcode != op::SUBMIT {
            let only = "a kept connection carries only SUBMIT";
            respond_error(ctx, stream, None, only);
            return;
        }
        ctx.kept.fetch_add(1, Ordering::Relaxed);
        let Some(next) = accepted(ctx, &frame, stream) else {
            return;
        };
        request = next;
        // A kept request never waits in the queue.
        accept_ns = None;
    }
}

/// The connections session workers hold idle between SUBMITs, by worker
/// slot. The drain shuts every one down, so it never waits on an idle
/// client.
#[derive(Debug, Default)]
pub(super) struct Held(Mutex<HeldStreams>);

#[derive(Debug, Default)]
struct HeldStreams {
    /// Set by the drain: nothing is held from then on.
    draining: bool,
    streams: BTreeMap<usize, Arc<TcpStream>>,
}

impl Held {
    fn lock(&self) -> MutexGuard<'_, HeldStreams> {
        self.0.lock().expect("held connections poisoned")
    }

    /// How many connections workers hold right now.
    pub(super) fn count(&self) -> usize {
        self.lock().streams.len()
    }

    /// Shuts the reading side of every held connection, which wakes its
    /// worker at once, and holds no more. A SUBMIT that had already
    /// arrived whole may still be read and served; its RESULT does not
    /// keep.
    pub(super) fn drain(&self) {
        let mut held = self.lock();
        held.draining = true;
        for stream in held.streams.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// A worker's claim on its idle connection, in [`Held`] for as long as
/// the guard lives, on every path out of the wait.
struct Hold<'a> {
    held: &'a Held,
    slot: usize,
}

impl<'a> Hold<'a> {
    /// Registers `stream` under this worker's slot, unless the server
    /// drains or `jobs − 1` other workers hold a connection already. The
    /// slot shares the worker's stream: parking costs no system call.
    fn park(ctx: &'a ServerCtx, stream: &Arc<TcpStream>) -> Option<Hold<'a>> {
        let slot = pdbt_par::current_worker_slot()?;
        let mut held = ctx.held.lock();
        if held.draining || held.streams.len() + 1 >= ctx.cfg.jobs {
            return None;
        }
        held.streams.insert(slot, Arc::clone(stream));
        Some(Hold {
            held: &ctx.held,
            slot,
        })
    }
}

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        self.held.lock().streams.remove(&self.slot);
    }
}

/// Holds `active` raised for as long as a session runs, on every path
/// out of it.
struct Active<'a>(&'a AtomicU64);

impl<'a> Active<'a> {
    fn enter(active: &'a AtomicU64) -> Active<'a> {
        active.fetch_add(1, Ordering::Relaxed);
        Active(active)
    }
}

impl Drop for Active<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The worker-side request lifecycle: stamp dequeue, run the session
/// under a request-scoped trace id, render and write the reply, then
/// fold the phase latencies into the partition's telemetry plane at
/// this worker's slot (`accept_ns` is `None` for a kept request, whose
/// queue phase is 0). Returns the hold on the connection when the
/// RESULT promised to read another frame on it.
fn serve_request<'a>(
    ctx: &'a ServerCtx,
    request: Request,
    conn: &mut Conn,
    accept_ns: Option<u64>,
) -> Option<Hold<'a>> {
    let stream = &conn.inbound.get_ref().stream;
    let Request { req, seq, keep } = request;
    let dequeue_ns = pdbt_obs::now_ns();
    let _active = Active::enter(&ctx.active);
    let id = req.get("id").and_then(Json::as_u64);
    match run_request(ctx, &req) {
        Ok((reply, shared, mut summary)) => {
            let run_done_ns = pdbt_obs::now_ns();
            let hold = if keep { Hold::park(ctx, stream) } else { None };
            let flags = if hold.is_some() { flag::KEEP } else { 0 };
            let sent = send(ctx, stream, &mut conn.frame, op::RESULT, flags, &reply);
            let reply_done_ns = pdbt_obs::now_ns();
            summary.reply_bytes = sent.unwrap_or_else(|error_bytes| error_bytes);
            summary.seq = seq;
            summary.phases.queue = accept_ns.map_or(0, |at| dequeue_ns.saturating_sub(at));
            summary.phases.execute = run_done_ns
                .saturating_sub(dequeue_ns)
                .saturating_sub(summary.phases.translate);
            summary.phases.reply = reply_done_ns.saturating_sub(run_done_ns);
            let slot = pdbt_par::current_worker_slot().unwrap_or(0);
            shared.telemetry().record(slot, summary);
            // An ERROR in the RESULT's place closes the connection.
            hold.filter(|_| sent.is_ok())
        }
        Err(e) => {
            respond_error(ctx, stream, id, &e);
            None
        }
    }
}

/// A RESULT payload: the request's id and guest, and the run's report,
/// rendered in the reply phase.
pub(super) struct Reply {
    id: u64,
    workload: String,
    report: Report,
}

impl ToJson for Reply {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.begin_obj();
        out.field("id", &self.id);
        out.field("outcome", self.report.outcome.label());
        out.field("report", &self.report);
        out.field("workload", &self.workload);
        out.end_obj();
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

/// Runs one request on the calling (worker) thread. Returns the RESULT
/// payload, the partition the session ran against, and what the flight
/// recorder keeps of it — [`serve_request`] adds the sequence number and
/// the phase stamps only it can measure.
pub(super) fn run_request(
    ctx: &ServerCtx,
    req: &Json,
) -> Result<(Reply, Arc<SharedTranslationState>, RequestSummary), String> {
    let id = req.get("id").and_then(Json::as_u64).unwrap_or(0);
    let (guest, mut setup, label) = resolve_guest(ctx, req)?;
    if let Some(mg) = req.get("max_guest").and_then(Json::as_u64) {
        setup.max_guest = mg;
    }
    let deadline_ms = req
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .or(ctx.cfg.default_deadline_ms);
    if let Some(ms) = deadline_ms {
        setup.deadline = Some(Instant::now() + Duration::from_millis(ms));
    }
    let fault_spec = req.get("faults").and_then(Json::as_str);
    let plan = fault_spec
        .map(pdbt_faults::Plan::parse)
        .transpose()
        .map_err(|e| format!("bad faults spec: {e}"))?;
    // Sessions are single-threaded; concurrency comes from the queue.
    // The server records the full request lifecycle itself (queue wait
    // and reply write included), so the engine's own end-of-run
    // telemetry recording is turned off — one summary per request.
    let mut cfg = EngineConfig {
        jobs: 1,
        record_telemetry: false,
        backend: ctx.cfg.backend,
        ..EngineConfig::default()
    };
    let no_delegation = req.get("no_delegation").and_then(Json::as_bool) == Some(true);
    cfg.translate.flag_delegation = !no_delegation;
    // The partition key is *persisted* — sealed into PDBA artifacts and
    // matched against them at boot — which `Program::fingerprint`'s
    // process- and platform-stable hash is there for. The partition is
    // created cold on first sight.
    let partition = guest.program().fingerprint();
    let shared = Arc::clone(
        &ctx.partitions()
            .entry(partition)
            .or_insert_with(|| Partition::cold(&ctx.cfg, partition, &label, guest.program()))
            .state,
    );
    // Request-scoped fault arming: armed with this request's plan, or
    // explicitly shielded from any process-global plan. Installed after
    // workload resolution so corpus builds are never degraded.
    let _guard = pdbt_faults::scoped(plan);
    // A partition's blocks and traces are translated under the default
    // config, so a `no_delegation` session runs on a private cold state
    // with the partition's rules: it reads nothing from the partition and
    // publishes nothing to it. Its summary still lands in the
    // partition's telemetry.
    let mut engine = if no_delegation {
        Engine::new(shared.rules().cloned(), cfg)
    } else {
        Engine::with_shared(Arc::clone(&shared), cfg)
    };
    let report = engine
        .run(guest.program(), &setup)
        .map_err(|e| e.to_string())?;
    let mut summary = RequestSummary {
        id,
        partition,
        outcome: report.outcome.label(),
        injected: report.resilience.injected.iter().sum(),
        fault_sites: fault_spec.unwrap_or("").to_string(),
        ..RequestSummary::default()
    };
    // Time inside the translator, from the session's own histogram.
    summary.phases.translate = report.obs.translate_ns.sum();
    let reply = Reply {
        id,
        workload: label,
        report,
    };
    Ok((reply, shared, summary))
}
