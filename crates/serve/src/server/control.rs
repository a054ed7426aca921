//! The control lane: the PING and STATS payloads. Both are built inline
//! by the accept loop — everything they read is atomic, behind a
//! short-lived lock, or merged from per-worker histograms in index
//! order — so a probe never waits on a running session.

use super::ServerCtx;
use crate::proto;
use pdbt_obs::json::Json;
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
    fn artifacts_json(&self, ctx: &ServerCtx) -> Json {
        let trace_hits = [("trace_hits", Json::from(self.trace_hits))];
        Json::obj(ctx.artifacts.snapshot().json_pairs().chain(trace_hits))
    }
}

/// The PING payload: protocol version, queue occupancy, and the
/// server-lifetime counters summed across guest-image partitions.
pub(super) fn status(ctx: &ServerCtx, queue: &TaskQueue) -> Json {
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

/// The live-telemetry snapshot behind the `STATS` frame.
pub(super) fn stats(ctx: &ServerCtx, queue: &TaskQueue) -> Json {
    let stats_seq = ctx.stats_seq.fetch_add(1, Ordering::Relaxed) + 1;
    let uptime_ns = ctx.started.elapsed().as_nanos() as u64;
    // In fingerprint order, as the table iterates: deterministic
    // payload order.
    let states: Vec<(String, Arc<SharedTranslationState>)> = ctx
        .partitions()
        .values()
        .map(|p| (p.label.clone(), Arc::clone(&p.state)))
        .collect();
    let load = |counter: &AtomicU64| Json::from(counter.load(Ordering::Relaxed));
    let per_worker = |values: Vec<u64>| Json::arr(values.into_iter().map(Json::from));

    let mut totals = Totals::default();
    let mut global = LatencyHists::default();
    let mut flight: Vec<RequestSummary> = Vec::new();
    let mut partitions = Vec::with_capacity(states.len());
    for (label, state) in &states {
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
        flight.extend(state.telemetry().flight().tail());
    }
    // The merged flight tail reads chronologically across partitions.
    flight.sort_by_key(|s| s.seq);
    let tail_from = flight
        .len()
        .saturating_sub(pdbt_obs::FlightRecorder::CAPACITY);
    Json::obj([
        ("stats_seq", Json::from(stats_seq)),
        ("version", Json::from(u64::from(proto::VERSION))),
        ("uptime_ns", Json::from(uptime_ns)),
        ("jobs", Json::from(ctx.cfg.jobs)),
        ("backend", Json::str(ctx.cfg.backend.name())),
        ("outstanding", Json::from(queue.outstanding())),
        (
            "sessions",
            Json::obj([
                ("served", load(&ctx.served)),
                ("active", load(&ctx.active)),
                ("panicked", Json::from(queue.panicked())),
                ("reply_errors", load(&ctx.reply_errors)),
            ]),
        ),
        (
            "pool",
            Json::obj([
                ("high_water", Json::from(queue.high_water())),
                ("completed", per_worker(queue.utilization())),
                ("busy_ns", per_worker(queue.busy_ns())),
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
