//! The control lane: the PING and STATS payloads. Both are written
//! inline by the accept loop — everything they read is atomic, behind a
//! short-lived lock, or merged from per-worker histograms in index
//! order — so a probe never waits on a running session. Each is a
//! [`ToJson`] section that reads the server as it is written, streamed
//! into its reply frame.

use super::ServerCtx;
use crate::proto;
use pdbt_obs::json::{TextWriter, ToJson};
use pdbt_obs::{LatencyHists, RequestSummary};
use pdbt_par::TaskQueue;
use pdbt_runtime::SharedTranslationState;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

    /// The `artifacts` section: the boot tally plus the trace-table
    /// hits.
    fn emit_artifacts(&self, ctx: &ServerCtx, out: &mut TextWriter<'_>) {
        out.key("artifacts");
        out.begin_obj();
        ctx.artifacts
            .snapshot()
            .emit_with(out, &[("trace_hits", &self.trace_hits)]);
        out.end_obj();
    }
}

/// The PING payload: protocol version, queue occupancy, and the
/// server-lifetime counters summed across guest-image partitions.
pub(super) struct Status<'a>(pub(super) &'a ServerCtx, pub(super) &'a TaskQueue);

impl ToJson for Status<'_> {
    fn emit(&self, out: &mut TextWriter<'_>) {
        let Status(ctx, queue) = *self;
        let mut totals = Totals::default();
        for p in ctx.partitions().values() {
            totals.add(&p.state, &p.state.server().snapshot());
        }
        out.begin_obj();
        totals.emit_artifacts(ctx, out);
        out.field("cached_blocks", &totals.cached_blocks);
        out.field("fleet", &ctx.fleet.snapshot());
        out.field("images", &totals.images);
        out.field("jobs", &queue.jobs());
        out.field("outstanding", &queue.outstanding());
        out.key("server");
        out.begin_obj();
        // The liveness probe carries the translation-sharing counters
        // only; STATS has the full section.
        let reply_errors = ctx.reply_errors.load(Ordering::Relaxed);
        totals.server.emit_section(
            out,
            &["compiled_blocks", "hit_rate"],
            &[],
            &[("reply_errors", &reply_errors)],
        );
        out.end_obj();
        out.field("version", &u64::from(proto::VERSION));
        out.end_obj();
    }
}

/// The live-telemetry snapshot behind the `STATS` frame (and the
/// flight dump on drain), under the `stats_seq` it claimed.
///
/// `sessions.served` counts SUBMIT frames, `sessions.kept` those of
/// them that arrived on an already-used connection, and `sessions.held`
/// the connections workers hold idle right now. The queue's figures —
/// `outstanding`, `pool.completed`, `pool.busy_ns` — count tasks, and a
/// SUBMIT task is a connection: every request on it, and the idle holds
/// between them.
pub(super) struct Stats<'a> {
    ctx: &'a ServerCtx,
    queue: &'a TaskQueue,
    stats_seq: u64,
    uptime_ns: u64,
}

impl<'a> Stats<'a> {
    pub(super) fn new(ctx: &'a ServerCtx, queue: &'a TaskQueue) -> Stats<'a> {
        Stats {
            ctx,
            queue,
            stats_seq: ctx.stats_seq.fetch_add(1, Ordering::Relaxed) + 1,
            uptime_ns: ctx.started.elapsed().as_nanos() as u64,
        }
    }
}

/// One partition as STATS reads it, before anything is written: the
/// rows come after sections that sum over them.
struct Row {
    label: String,
    server: pdbt_obs::ServerSnapshot,
    telemetry: pdbt_obs::TelemetrySnapshot,
    artifact: pdbt_obs::ArtifactSnapshot,
    cached_blocks: usize,
}

impl ToJson for Row {
    fn emit(&self, out: &mut TextWriter<'_>) {
        let art = &self.artifact;
        out.begin_obj();
        self.telemetry.emit_partition_fields(
            out,
            &self.server,
            &[
                ("cached_blocks", &self.cached_blocks),
                ("label", &self.label),
                ("loaded_blocks", &art.loaded_blocks),
                ("trace_hits", &art.trace_hits),
                ("warm", &art.warm()),
            ],
        );
        out.end_obj();
    }
}

impl ToJson for Stats<'_> {
    fn emit(&self, out: &mut TextWriter<'_>) {
        let (ctx, queue) = (self.ctx, self.queue);
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        // In fingerprint order, as the table iterates: deterministic
        // payload order.
        let states: Vec<(String, Arc<SharedTranslationState>)> = ctx
            .partitions()
            .values()
            .map(|p| (p.label.clone(), Arc::clone(&p.state)))
            .collect();
        let mut totals = Totals::default();
        let mut global = LatencyHists::default();
        let mut flight: Vec<RequestSummary> = Vec::new();
        let rows: Vec<Row> = states
            .into_iter()
            .map(|(label, state)| {
                let row = Row {
                    label,
                    server: state.server().snapshot(),
                    telemetry: state.telemetry().snapshot(),
                    artifact: state.artifact().snapshot(),
                    cached_blocks: state.cache().len(),
                };
                totals.add(&state, &row.server);
                global.merge(&row.telemetry.latency);
                flight.extend(state.telemetry().flight().tail());
                row
            })
            .collect();
        // The merged flight tail reads chronologically across
        // partitions.
        flight.sort_by_key(|s| s.seq);
        let tail_from = flight
            .len()
            .saturating_sub(pdbt_obs::FlightRecorder::CAPACITY);

        out.begin_obj();
        totals.emit_artifacts(ctx, out);
        out.field("backend", ctx.cfg.backend.name());
        out.field("fleet", &ctx.fleet.snapshot());
        out.key("flight");
        out.arr(&flight[tail_from..]);
        out.field("jobs", &ctx.cfg.jobs);
        out.field("latency", &global);
        out.field("outstanding", &queue.outstanding());
        out.key("partitions");
        out.arr(&rows);
        out.key("pool");
        out.begin_obj();
        out.key("busy_ns");
        out.arr(queue.busy_ns());
        out.key("completed");
        out.arr(queue.utilization());
        out.field("high_water", &queue.high_water());
        out.end_obj();
        out.key("server");
        out.begin_obj();
        totals.server.emit_section(out, &[], &[], &[]);
        out.end_obj();
        out.key("sessions");
        out.begin_obj();
        out.field("active", &load(&ctx.active));
        out.field("held", &ctx.held.count());
        out.field("kept", &load(&ctx.kept));
        out.field("panicked", &queue.panicked());
        out.field("reply_errors", &load(&ctx.reply_errors));
        out.field("served", &load(&ctx.served));
        out.end_obj();
        out.field("stats_seq", &self.stats_seq);
        out.field("uptime_ns", &self.uptime_ns);
        out.field("version", &u64::from(proto::VERSION));
        out.end_obj();
    }
}
