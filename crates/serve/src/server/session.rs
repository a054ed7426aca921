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

use super::partition::Partition;
use super::ServerCtx;
use crate::proto::{self, op};
use pdbt_obs::json::{Emit, Json, ToJson};
use pdbt_obs::RequestSummary;
use pdbt_par::TaskQueue;
use pdbt_runtime::{Engine, EngineConfig, Report, RunSetup, SharedTranslationState};
use pdbt_workloads::{build, Benchmark, Scale, Workload};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
    stream: &mut TcpStream,
    opcode: u8,
    payload: &impl ToJson,
) -> u64 {
    let mut frame = Vec::with_capacity(4096);
    proto::begin_frame(&mut frame, opcode);
    payload.write_json(&mut frame);
    if let Err(e) = proto::finish_frame(&mut frame) {
        ctx.reply_errors.fetch_add(1, Ordering::Relaxed);
        let msg = format!("reply {e}");
        return respond(ctx, stream, op::ERROR, &error_doc(None, &msg));
    }
    if stream.write_all(&frame).is_err() {
        ctx.reply_errors.fetch_add(1, Ordering::Relaxed);
    }
    (frame.len() - proto::HEADER_LEN) as u64
}

/// An `ERROR` frame's payload.
fn error_doc(id: Option<u64>, msg: &str) -> Json {
    let id = id.map(|id| ("id", Json::from(id)));
    Json::obj([("error", Json::str(msg))].into_iter().chain(id))
}

pub(super) fn respond_error(ctx: &ServerCtx, stream: &mut TcpStream, id: Option<u64>, msg: &str) {
    respond(ctx, stream, op::ERROR, &error_doc(id, msg));
}

/// The accept-side half of a SUBMIT: parse the request, stamp it, and
/// hand the connection to a queue worker.
pub(super) fn submit(
    ctx: &Arc<ServerCtx>,
    queue: &TaskQueue,
    frame: &proto::Frame,
    mut stream: TcpStream,
) {
    let Some(req) = payload_json(frame) else {
        respond_error(ctx, &mut stream, None, "request payload is not valid JSON");
        return;
    };
    // Accept-time stamps: the global request sequence number and the
    // clock the queue-wait phase is measured against.
    let seq = ctx.served.fetch_add(1, Ordering::Relaxed) + 1;
    let accept_ns = pdbt_obs::now_ns();
    let ctx = Arc::clone(ctx);
    let submit = queue.submit(move || serve_request(&ctx, req, &mut stream, seq, accept_ns));
    if let Err(pdbt_par::QueueClosed(task)) = submit {
        // Unreachable while the accept loop owns the queue (it only
        // closes on drain), but never drop a request silently: run it
        // inline.
        task();
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
/// this worker's slot.
fn serve_request(ctx: &ServerCtx, req: Json, stream: &mut TcpStream, seq: u64, accept_ns: u64) {
    let dequeue_ns = pdbt_obs::now_ns();
    let _active = Active::enter(&ctx.active);
    // Tag every span this session opens (translate, exec, ...) with
    // the request sequence, so multi-session Chrome traces separate
    // into one track per request.
    let _scope = pdbt_obs::scoped(seq);
    let id = req.get("id").and_then(Json::as_u64);
    match run_request(ctx, &req) {
        Ok((reply, shared, mut summary)) => {
            let run_done_ns = pdbt_obs::now_ns();
            summary.reply_bytes = respond(ctx, stream, op::RESULT, &reply);
            let reply_done_ns = pdbt_obs::now_ns();
            summary.seq = seq;
            summary.phases.queue = dequeue_ns.saturating_sub(accept_ns);
            summary.phases.execute = run_done_ns
                .saturating_sub(dequeue_ns)
                .saturating_sub(summary.phases.translate);
            summary.phases.reply = reply_done_ns.saturating_sub(run_done_ns);
            let slot = pdbt_par::current_worker_slot().unwrap_or(0);
            shared.telemetry().record(slot, summary);
        }
        Err(e) => {
            respond_error(ctx, stream, id, &e);
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
    fn emit<E: Emit>(&self, out: &mut E) {
        out.begin_obj();
        out.field("faults_enabled", &pdbt_faults::ENABLED);
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
        outcome: report.outcome.label().to_string(),
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
