//! The six workloads. Each function runs one *round*: a fixed amount of
//! work (never a fixed time, so counts repeat exactly), every result
//! checked against the reference interpreter's output from set-up.
//!
//! The timed work of a round is cut into *slices* of 0.1–0.3 s with a
//! calibration reading on either side, and every wall-clock a round
//! reports is scaled by its slice's readings to the reference speed
//! (`noise::Calibrator`). The first reading is taken when the workload's
//! own set-up is done, so set-up time has one on either side too.

use crate::noise::{Calibrator, Rng};
use crate::setup::{derive_excluding, engine_config, learn_each, Fixture};
use crate::spans::span;
use pdbt_obs::json::Json;
use pdbt_runtime::{BackendKind, Engine, Outcome, Report, SharedTranslationState};
use pdbt_serve::{ping, shutdown, stats, submit, ServeConfig, ServeSummary, Server};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-socket-operation timeout of every client call; far above any
/// request here, so hitting it is a failure, not a slow sample.
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// Session workers of every daemon the bench starts. The load is one
/// closed-loop client on the calling thread: every child runs pinned to
/// a single CPU (see `child::pinned_cpu`), where a second in-flight
/// request only time-slices against the first and doubles latencies at
/// random.
pub const JOBS: usize = 2;

/// How much fixed work one round of each workload does. Sized so a
/// round measures for about half a second: on this box a process's
/// layout (ASLR, `HashMap` seeds) biases all its passes by several
/// percent, so many short rounds repeat better than a few long ones.
#[derive(Debug, Clone, Copy)]
pub struct Work {
    pub cold_passes: usize,
    pub hot_passes: usize,
    pub train_passes: usize,
    pub small_requests: usize,
    pub suite_requests_per_image: usize,
    pub boot_cycles: usize,
}

impl Work {
    pub const FULL: Work = Work {
        cold_passes: 3,
        hot_passes: 5,
        train_passes: 4,
        small_requests: 1500,
        suite_requests_per_image: 8,
        boot_cycles: 1,
    };
    /// `--smoke`: every code path, a fraction of the work.
    pub const SMOKE: Work = Work {
        cold_passes: 2,
        hot_passes: 2,
        train_passes: 2,
        small_requests: 200,
        suite_requests_per_image: 2,
        boot_cycles: 1,
    };
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall-clock of each pass over the workload's fixed work, at the
    /// reference speed.
    pub passes_ms: Vec<f64>,
    /// Latency samples in µs at the reference speed, by operation kind
    /// (a program, an image, a boot step).
    pub ops: BTreeMap<String, Vec<f64>>,
    /// Operations of the slice in progress, as measured.
    pending: Vec<(String, f64)>,
    /// Wall-clock of every slice, as measured.
    pub slices_ms: Vec<f64>,
    /// Exact counts of one pass — guest instructions retired, host
    /// instructions executed and rule-covered guest instructions over
    /// every DBT run whose report the pass saw, in-process or in a
    /// RESULT frame. A pass that disagrees with the first is a failed
    /// operation.
    pub counts: BTreeMap<&'static str, u64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human reading stderr.
    pub failures: Vec<String>,
    /// Set-up this workload adds on top of the fixture (a daemon and
    /// its warm-up, sealed artifacts).
    pub extra_setup_s: f64,
    /// Layer readings the round yields for free: time shares from the
    /// engine's own report, the daemon's final STATS frame.
    pub layer: BTreeMap<String, f64>,
}

impl Round {
    fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    fn op(&mut self, kind: &str, elapsed: Duration) {
        self.pending
            .push((kind.to_string(), elapsed.as_secs_f64() * 1e6));
    }

    /// Ends the slice of timed work that began at `cal`'s last reading:
    /// takes the closing reading, files the slice's operations scaled to
    /// the reference speed, and returns `wall` in ms scaled likewise.
    fn end_slice(&mut self, cal: &mut Calibrator, wall: Duration) -> f64 {
        let factor = cal.close_slice();
        for (kind, us) in self.pending.drain(..) {
            self.ops.entry(kind).or_default().push(us * factor);
        }
        let ms = wall.as_secs_f64() * 1e3;
        self.slices_ms.push(ms);
        ms * factor
    }

    /// Records one pass's exact counts, or checks them against the
    /// first pass's.
    fn pass_counts(&mut self, counts: &[(&'static str, u64)]) {
        for &(name, value) in counts {
            let first = *self.counts.entry(name).or_insert(value);
            self.attempt(first == value, || {
                format!("count {name} changed between passes: {first} then {value}")
            });
        }
    }

    fn pass_retired(&mut self, r: Retired) {
        self.pass_counts(&[
            ("guest_retired", r.guest),
            ("host_executed", r.host),
            ("rule_covered", r.covered),
        ]);
    }
}

/// What the DBT runs of one pass retired, summed from their reports:
/// the counts behind `host_per_guest` and `rule_coverage`.
#[derive(Debug, Default, Clone, Copy)]
struct Retired {
    guest: u64,
    host: u64,
    covered: u64,
}

impl Retired {
    fn of_report(r: &Report) -> Retired {
        Retired {
            guest: r.metrics.guest_retired,
            host: r.metrics.host_executed(),
            covered: r.metrics.rule_covered,
        }
    }

    /// From the `report.metrics` of a RESULT frame, provided the frame
    /// is a completed run that printed exactly `expect`.
    fn of_frame(resp: &Json, expect: &[u32]) -> Option<Retired> {
        if result_output(resp).as_deref() != Some(expect) {
            return None;
        }
        let metrics = resp.get("report")?.get("metrics")?;
        let count = |k| metrics.get(k).and_then(Json::as_u64);
        Some(Retired {
            guest: count("guest_retired")?,
            host: count("host_executed")?,
            covered: count("rule_covered")?,
        })
    }

    fn add(&mut self, o: Retired) {
        self.guest += o.guest;
        self.host += o.host;
        self.covered += o.covered;
    }
}

/// A seeded visiting order of the twelve programs. The suite itself is
/// the paper's and fixed; the seed only decides the order, which must
/// not change any count.
fn order(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    Rng::new(seed).shuffle(&mut idx);
    idx
}

/// Whether a run report is a completed run printing exactly what the
/// reference interpreter printed.
fn report_ok(report: &Report, reference: &[u32]) -> bool {
    report.outcome == Outcome::Completed && report.output == reference
}

/// Sums of the engine-reported quantities over one round's runs, for
/// the exact counts and the `runtime.*` layer rows.
#[derive(Default)]
pub struct EngineTotals {
    pub wall_ns: u64,
    pub translate_ns: u64,
    pub compile_ns: u64,
    pub guest: u64,
    pub host: u64,
    pub covered: u64,
    pub blocks_executed: u64,
    pub jump_hits: u64,
    pub jump_misses: u64,
    pub chain_followed: u64,
    pub trace_execs: u64,
}

impl EngineTotals {
    fn add(&mut self, wall: Duration, r: &Report) {
        self.wall_ns += wall.as_nanos() as u64;
        self.translate_ns += r.obs.translate_ns.sum();
        self.compile_ns += r.obs.dispatch.compile_ns;
        self.guest += r.metrics.guest_retired;
        self.host += r.metrics.host_executed();
        self.covered += r.metrics.rule_covered;
        self.blocks_executed += r.metrics.blocks_executed;
        self.jump_hits += r.obs.dispatch.jump_cache_hits;
        self.jump_misses += r.obs.dispatch.jump_cache_misses;
        self.chain_followed += r.obs.dispatch.chain_followed;
        self.trace_execs += r.obs.dispatch.trace_execs;
    }

    fn retired(&self) -> Retired {
        Retired {
            guest: self.guest,
            host: self.host,
            covered: self.covered,
        }
    }

    fn add_totals(&mut self, o: &EngineTotals) {
        self.wall_ns += o.wall_ns;
        self.translate_ns += o.translate_ns;
        self.compile_ns += o.compile_ns;
        self.guest += o.guest;
        self.host += o.host;
        self.covered += o.covered;
        self.blocks_executed += o.blocks_executed;
        self.jump_hits += o.jump_hits;
        self.jump_misses += o.jump_misses;
        self.chain_followed += o.chain_followed;
        self.trace_execs += o.trace_execs;
    }

    /// The split of run wall-clock the engine's own report supports:
    /// translation, threaded compile, and the remainder (dispatch +
    /// host execution + memory), which by construction sum to 1.
    fn shares(&self, suffix: &str, into: &mut BTreeMap<String, f64>) {
        let wall = self.wall_ns as f64;
        let translate = self.translate_ns as f64 / wall;
        let compile = self.compile_ns as f64 / wall;
        into.insert(format!("runtime.translate_share.{suffix}"), translate);
        into.insert(format!("runtime.compile_share.{suffix}"), compile);
        into.insert(
            format!("runtime.dispatch_exec_share.{suffix}"),
            1.0 - translate - compile,
        );
    }
}

/// `suite_cold`: `pdbt run` and the paper's protocol — each program
/// under its leave-one-out `para.` rules on a fresh engine.
pub fn suite_cold(fix: &Fixture, seed: u64, passes: usize, cal: &mut Calibrator) -> Round {
    let mut round = Round::default();
    let cfg = engine_config();
    let order = order(fix.suite.len(), seed);
    let mut totals = EngineTotals::default();
    cal.read();
    for _ in 0..passes {
        let pass_span = span("suite_cold.pass");
        let mut pass = EngineTotals::default();
        for &i in &order {
            let w = &fix.suite[i];
            // The clone stands in for loading a rule file; it is not
            // part of running a guest.
            let rules = fix.para[i].0.clone();
            let setup = w.setup();
            let run = span("runtime.engine_cold");
            let start = Instant::now();
            let mut engine = Engine::new(Some(rules), cfg);
            let result = engine.run(&w.pair.guest.program, &setup);
            let wall = start.elapsed();
            drop(run);
            round.op(w.bench.name(), wall);
            match result {
                Ok(report) => {
                    round.attempt(report_ok(&report, &fix.reference[i]), || {
                        format!("{}: cold run output differs from reference", w.bench.name())
                    });
                    pass.add(wall, &report);
                }
                Err(e) => round.attempt(false, || format!("{}: {e}", w.bench.name())),
            }
        }
        drop(pass_span);
        let ms = round.end_slice(cal, Duration::from_nanos(pass.wall_ns));
        round.passes_ms.push(ms);
        round.pass_retired(pass.retired());
        totals.add_totals(&pass);
    }
    totals.shares("cold", &mut round.layer);
    round
}

/// One long-lived shared translation state per program, warmed by two
/// untimed sessions: a daemon partition in steady state.
pub fn warm_states(fix: &Fixture) -> Vec<Arc<SharedTranslationState>> {
    let cfg = engine_config();
    fix.suite
        .iter()
        .zip(&fix.para)
        .map(|(w, (rules, _))| {
            let shared = Arc::new(SharedTranslationState::new(
                Some(rules.clone()),
                cfg.cache_shards,
            ));
            for _ in 0..2 {
                Engine::with_shared(Arc::clone(&shared), cfg)
                    .run(&w.pair.guest.program, &w.setup())
                    .expect("warm-up run");
            }
            shared
        })
        .collect()
}

/// One timed pass over warm states; shared by `suite_hot` and the layer
/// probes that vary the engine configuration.
pub fn hot_pass(
    fix: &Fixture,
    states: &[Arc<SharedTranslationState>],
    cfg: pdbt_runtime::EngineConfig,
    order: &[usize],
    round: &mut Round,
) -> EngineTotals {
    let mut pass = EngineTotals::default();
    for &i in order {
        let w = &fix.suite[i];
        let setup = w.setup();
        let before = states[i].server().snapshot().translate_calls;
        let run = span("runtime.engine_hot");
        let start = Instant::now();
        let mut engine = Engine::with_shared(Arc::clone(&states[i]), cfg);
        let result = engine.run(&w.pair.guest.program, &setup);
        let wall = start.elapsed();
        drop(run);
        round.op(w.bench.name(), wall);
        match result {
            Ok(report) => {
                let translated = states[i].server().snapshot().translate_calls - before;
                round.attempt(
                    report_ok(&report, &fix.reference[i]) && translated == 0,
                    || {
                        format!(
                            "{}: hot run wrong output or {translated} translate calls",
                            w.bench.name()
                        )
                    },
                );
                pass.add(wall, &report);
            }
            Err(e) => round.attempt(false, || format!("{}: {e}", w.bench.name())),
        }
    }
    pass
}

/// `suite_hot`: the same guests over warm shared states — dispatch,
/// backend and `Memory` do nearly all the work, translation none.
pub fn suite_hot(fix: &Fixture, seed: u64, passes: usize, cal: &mut Calibrator) -> Round {
    let mut round = Round::default();
    let warm = Instant::now();
    let states = warm_states(fix);
    round.extra_setup_s = warm.elapsed().as_secs_f64();
    let order = order(fix.suite.len(), seed);
    let mut totals = EngineTotals::default();
    cal.read();
    for _ in 0..passes {
        let pass_span = span("suite_hot.pass");
        let pass = hot_pass(fix, &states, engine_config(), &order, &mut round);
        drop(pass_span);
        let ms = round.end_slice(cal, Duration::from_nanos(pass.wall_ns));
        round.passes_ms.push(ms);
        round.pass_retired(pass.retired());
        totals.add_totals(&pass);
    }
    totals.shares("hot", &mut round.layer);
    let t = &totals;
    let probes = (t.jump_hits + t.jump_misses).max(1) as f64;
    let blocks = t.blocks_executed.max(1) as f64;
    for (name, value) in [
        (
            "runtime.dispatch.jump_cache_hit_share",
            t.jump_hits as f64 / probes,
        ),
        (
            "runtime.dispatch.chain_per_block",
            t.chain_followed as f64 / blocks,
        ),
        (
            "runtime.dispatch.trace_exec_share",
            t.trace_execs as f64 / blocks,
        ),
        (
            "runtime.blocks_per_kinst",
            blocks * 1e3 / t.guest.max(1) as f64,
        ),
    ] {
        round.layer.insert(name.to_string(), value);
    }
    round
}

/// `train`: the paper's own headline — learn from each program, then
/// derive the twelve leave-one-out `para.` sets.
pub fn train(fix: &Fixture, seed: u64, passes: usize, cal: &mut Calibrator) -> Round {
    let mut round = Round::default();
    let order = order(fix.suite.len(), seed);
    let mut last = Vec::new();
    cal.read();
    for _ in 0..passes {
        let pass_span = span("train.pass");
        let start = Instant::now();
        let learn_start = Instant::now();
        let learned = learn_each(&fix.suite);
        // `learn_each` spans each program; its kinds are timed as one.
        round.op("learn", learn_start.elapsed());
        let mut instantiated = 0u64;
        last.clear();
        for &i in &order {
            let t0 = Instant::now();
            let (rules, stats) = derive_excluding(&learned, Some(i));
            round.op(
                &format!("derive/{}", fix.suite[i].bench.name()),
                t0.elapsed(),
            );
            let (want_rules, want_stats) = &fix.para[i];
            round.attempt(
                stats == *want_stats
                    && rules.len() == want_rules.len()
                    && rules.seq_len() == want_rules.seq_len(),
                || {
                    format!(
                        "{}: derived {stats:?}, set-up derived {want_stats:?}",
                        fix.suite[i].bench.name()
                    )
                },
            );
            instantiated += stats.instantiated as u64;
            last.push((i, rules));
        }
        let wall = start.elapsed();
        drop(pass_span);
        let ms = round.end_slice(cal, wall);
        round.passes_ms.push(ms);
        let unique: usize = learned.iter().map(|(_, s)| s.unique).sum();
        round.pass_counts(&[
            ("rules_instantiated", instantiated),
            ("rules_learned_unique", unique as u64),
        ]);
    }
    // The rules must also *work*: run the smallest program under the
    // last pass's own rule set and compare with the reference.
    if let Some((i, rules)) = last
        .into_iter()
        .min_by_key(|(i, _)| fix.suite[*i].pair.guest.program.len())
    {
        let w = &fix.suite[i];
        let result =
            Engine::new(Some(rules), engine_config()).run(&w.pair.guest.program, &w.setup());
        let report = result.ok().filter(|r| report_ok(r, &fix.reference[i]));
        round.attempt(report.is_some(), || {
            format!(
                "{}: freshly trained rules give wrong output",
                w.bench.name()
            )
        });
        round.pass_retired(report.as_ref().map(Retired::of_report).unwrap_or_default());
    }
    round
}

/// A daemon running on its own thread.
pub struct Daemon {
    pub addr: SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<ServeSummary>>,
}

impl Daemon {
    /// Binds on an ephemeral loopback port and starts serving.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Daemon> {
        let server = Server::bind("127.0.0.1:0", cfg)?;
        let addr = server.local_addr()?;
        let handle = std::thread::spawn(move || server.serve());
        Ok(Daemon { addr, handle })
    }

    /// SHUTDOWN, then wait for `serve()` to return (drain and
    /// write-back included). Returns how long that took and whether the
    /// daemon ended cleanly.
    pub fn stop(self) -> (Duration, bool) {
        let start = Instant::now();
        let acked = shutdown(self.addr, TIMEOUT).is_ok();
        let clean = matches!(self.handle.join(), Ok(Ok(s)) if s.panicked == 0);
        (start.elapsed(), acked && clean)
    }
}

/// The daemon shape every workload uses: `para.` rules from all twelve
/// programs, [`JOBS`] session workers, no flight dump.
pub fn serve_config(fix: &Fixture) -> ServeConfig {
    ServeConfig {
        rules: Some(fix.para_all.clone()),
        jobs: JOBS,
        flight_path: None,
        backend: BackendKind::Threaded,
        ..ServeConfig::default()
    }
}

/// The `report.output` array of a RESULT frame.
fn result_output(resp: &Json) -> Option<Vec<u32>> {
    if resp.get("outcome").and_then(Json::as_str) != Some("completed") {
        return None;
    }
    resp.get("report")?
        .get("output")?
        .as_arr()?
        .iter()
        .map(|v| v.as_u64().and_then(|x| u32::try_from(x).ok()))
        .collect()
}

/// One request the load generator will send: its payload, the kind its
/// latency is filed under, and the output the reference interpreter
/// says it must print.
pub struct Planned {
    pub request: Json,
    pub kind: String,
    pub expect: Vec<u32>,
}

/// Sends `schedule` (indices into `plan`) as one closed-loop client:
/// the next request goes out when the previous one is answered. Returns
/// the wall-clock of the whole schedule and what the answered runs
/// retired.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    schedule: &[usize],
    round: &mut Round,
) -> (Duration, Retired) {
    let mut retired = Retired::default();
    let start = Instant::now();
    for &p in schedule {
        let call = span("serve.submit");
        let t0 = Instant::now();
        let resp = submit(addr, &plan[p].request, TIMEOUT);
        let wall = t0.elapsed();
        drop(call);
        round.op(&plan[p].kind, wall);
        match resp {
            Ok(r) => {
                let run = Retired::of_frame(&r, &plan[p].expect);
                round.attempt(run.is_some(), || {
                    format!("{}: wrong output or outcome", plan[p].kind)
                });
                retired.add(run.unwrap_or_default());
            }
            Err(e) => round.attempt(false, || format!("{}: {e}", plan[p].kind)),
        }
    }
    (start.elapsed(), retired)
}

/// How many slices a serve workload's one pass is cut into. The daemon
/// idles while a reading is taken.
const SERVE_SLICES: usize = 5;

/// One pass over `schedule` in [`SERVE_SLICES`] slices, starting with
/// the reading that opens the first. Returns the pass's wall-clock in ms
/// at the reference speed and what the answered runs retired.
fn drive_sliced(
    addr: SocketAddr,
    plan: &[Planned],
    schedule: &[usize],
    span_name: &'static str,
    round: &mut Round,
    cal: &mut Calibrator,
) -> (f64, Retired) {
    let (mut ms, mut retired) = (0.0, Retired::default());
    cal.read();
    for slice in schedule.chunks(schedule.len().div_ceil(SERVE_SLICES).max(1)) {
        let timed = span(span_name);
        let (wall, answered) = drive(addr, plan, slice, round);
        drop(timed);
        ms += round.end_slice(cal, wall);
        retired.add(answered);
    }
    (ms, retired)
}

/// Reads the daemon's final STATS frame into `serve.*.<suffix>` rows:
/// its own histograms and counters, fetched over the wire.
fn stats_rows(addr: SocketAddr, suffix: &str, round: &mut Round) {
    let Ok(snap) = stats(addr, TIMEOUT) else {
        round.attempt(false, || "final STATS failed".to_string());
        return;
    };
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&snap, |j, k| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    // Execute and reply have no histogram of their own; the flight
    // tail (the last 32 requests) carries their phase times.
    let flight = snap.get("flight").and_then(Json::as_arr).unwrap_or(&[]);
    let phase_p50_us = |key: &str| {
        let xs: Vec<f64> = flight
            .iter()
            .filter_map(|f| f.get("phases")?.get(key)?.as_f64())
            .collect();
        crate::stats::median(&xs) / 1e3
    };
    let partitions = snap
        .get("partitions")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    for (name, value) in [
        (
            "serve.queue_p50_us",
            num(&["latency", "queue_ns", "p50"]) / 1e3,
        ),
        ("serve.execute_p50_us", phase_p50_us("execute_ns")),
        ("serve.reply_p50_us", phase_p50_us("reply_ns")),
        ("serve.warm_hit_ratio", num(&["server", "hit_rate"])),
        ("serve.partitions", partitions as f64),
        ("serve.reply_errors", num(&["sessions", "reply_errors"])),
    ] {
        round.layer.insert(format!("{name}.{suffix}"), value);
    }
    round.attempt(num(&["sessions", "reply_errors"]) == 0.0, || {
        "daemon dropped reply writes".to_string()
    });
}

/// Hot and tail image counts of `serve_small`'s zipfian mix.
pub const SMALL_HOT: usize = 4;
pub const SMALL_TAIL: usize = 60;

/// The inline guests of `serve_small`: four instructions each, every
/// image printing a different constant so each gets its own partition.
/// The expected output comes from the reference interpreter.
pub fn small_images() -> Vec<Planned> {
    (0..SMALL_HOT + SMALL_TAIL)
        .map(|i| {
            let text = format!(
                "mov r0, #{}\nadd r0, r0, #{}\nsvc #1\nsvc #0\n",
                10 + i,
                i % 7
            );
            let insts = pdbt_isa_arm::parse_listing(&text).expect("inline guest parses");
            let prog = pdbt_isa_arm::Program::new(0x1000, insts);
            let mut cpu = pdbt_isa_arm::Cpu::new();
            pdbt_isa_arm::run(&mut cpu, &prog, 1_000).expect("inline guest runs");
            Planned {
                request: Json::obj([("program", Json::str(text))]),
                kind: "request".to_string(),
                expect: cpu.output,
            }
        })
        .collect()
}

/// `n` requests over `images` with 1/rank zipfian counts (largest
/// remainders, so the counts sum to `n` exactly), in an order shuffled
/// by the seed. The mix — how often each image is asked for, and so how
/// many partitions the daemon grows — is the same for every seed; only
/// the order differs, which keeps runs with different seeds comparable.
pub fn zipf_schedule(seed: u64, n: usize, images: usize) -> Vec<usize> {
    let total: f64 = (0..images).map(|r| 1.0 / (r as f64 + 1.0)).sum();
    let share = |r: usize| n as f64 / ((r as f64 + 1.0) * total);
    let mut counts: Vec<usize> = (0..images).map(|r| share(r) as usize).collect();
    let mut by_remainder: Vec<usize> = (0..images).collect();
    by_remainder.sort_by(|a, b| share(*b).fract().total_cmp(&share(*a).fract()));
    let short = n - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    let mut schedule: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(image, c)| std::iter::repeat_n(image, *c))
        .collect();
    Rng::new(seed).shuffle(&mut schedule);
    schedule
}

/// `serve_small`: the engine does almost nothing, so connect, frame,
/// accept thread, queue hop, partition lookup/creation and report JSON
/// are the whole cost; the tail exercises partition growth.
pub fn serve_small(fix: &Fixture, seed: u64, requests: usize, cal: &mut Calibrator) -> Round {
    let mut round = Round::default();
    let boot = Instant::now();
    let plan = small_images();
    let schedule = zipf_schedule(seed, requests, plan.len());
    let daemon = match Daemon::start(serve_config(fix)) {
        Ok(d) => d,
        Err(e) => {
            round.attempt(false, || format!("bind: {e}"));
            return round;
        }
    };
    round.extra_setup_s = boot.elapsed().as_secs_f64();
    let (ms, retired) = drive_sliced(
        daemon.addr,
        &plan,
        &schedule,
        "serve_small.slice",
        &mut round,
        cal,
    );
    round.passes_ms.push(ms);
    round.pass_retired(retired);
    stats_rows(daemon.addr, "small", &mut round);
    let (_, clean) = daemon.stop();
    round.attempt(clean, || "daemon did not drain cleanly".to_string());
    round
}

/// The twelve `{"workload": B, "scale": S}` requests, each expecting
/// the reference output of its program.
pub fn suite_requests(fix: &Fixture) -> Vec<Planned> {
    fix.suite
        .iter()
        .zip(&fix.reference)
        .map(|(w, expect)| Planned {
            request: Json::obj([
                ("workload", Json::str(w.bench.name())),
                ("scale", Json::str(fix.size.name())),
            ]),
            kind: w.bench.name().to_string(),
            expect: expect.clone(),
        })
        .collect()
}

/// `serve_suite`: real requests where engine time dominates, each a
/// fresh session over a warm partition, so what a client sees on top of
/// `suite_hot` is the session's recompile of the partition's blocks and
/// the report crossing the wire; serving-plane changes should not move
/// it.
pub fn serve_suite(fix: &Fixture, seed: u64, per_image: usize, cal: &mut Calibrator) -> Round {
    let mut round = Round::default();
    let boot = Instant::now();
    let plan = suite_requests(fix);
    let mut schedule: Vec<usize> = (0..plan.len() * per_image)
        .map(|k| k % plan.len())
        .collect();
    Rng::new(seed).shuffle(&mut schedule);
    let daemon = match Daemon::start(serve_config(fix)) {
        Ok(d) => d,
        Err(e) => {
            round.attempt(false, || format!("bind: {e}"));
            return round;
        }
    };
    // One untimed request per image: the daemon builds the corpus and
    // translates on first sight, and a cold request in every round's
    // ten would sit exactly at the reported p90.
    for p in &plan {
        let warmed = submit(daemon.addr, &p.request, TIMEOUT);
        round.attempt(
            warmed.is_ok_and(|r| result_output(&r).as_deref() == Some(&p.expect)),
            || format!("{}: warm-up request failed", p.kind),
        );
    }
    round.extra_setup_s = boot.elapsed().as_secs_f64();
    let (ms, retired) = drive_sliced(
        daemon.addr,
        &plan,
        &schedule,
        "serve_suite.slice",
        &mut round,
        cal,
    );
    round.passes_ms.push(ms);
    round.pass_retired(retired);
    stats_rows(daemon.addr, "suite", &mut round);
    let (_, clean) = daemon.stop();
    round.attempt(clean, || "daemon did not drain cleanly".to_string());
    round
}

/// One sealed artifact per suite program, compiled under the program's
/// leave-one-out rules: `(file stem, fingerprint, sealed bytes)`.
pub fn seal_suite(fix: &Fixture) -> Vec<(String, u64, Vec<u8>)> {
    fix.suite
        .iter()
        .zip(&fix.para)
        .map(|(w, (rules, _))| {
            let label = format!("{}/{}", w.bench.name(), fix.size.name());
            let artifact = {
                let _s = span("artifact.compile");
                pdbt_artifact::compile(
                    &w.pair.guest.program,
                    Some(rules),
                    &w.setup(),
                    engine_config(),
                    &label,
                )
                .expect("suite programs compile to artifacts")
            };
            let _s = span("artifact.seal");
            let bytes = pdbt_artifact::seal(&artifact);
            (w.bench.name().to_string(), artifact.fingerprint(), bytes)
        })
        .collect()
}

/// A scratch directory under the bench's own output tree, removed when
/// dropped.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(root: &Path, name: &str) -> std::io::Result<Scratch> {
        let dir = root.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A u64 at `path` in a PING/STATS payload.
fn at_u64(doc: &Json, path: &[&str]) -> Option<u64> {
    path.iter().try_fold(doc, |j, k| j.get(k))?.as_u64()
}

/// `boot_fleet`: the cold-start path users of `--artifact-dir` and
/// `--peer` pay — artifact open/warm and fleet pull do the work, the
/// engine little.
pub fn boot_fleet(
    fix: &Fixture,
    seed: u64,
    cycles: usize,
    tmp: &Path,
    cal: &mut Calibrator,
) -> Round {
    let mut round = Round::default();
    let prep = Instant::now();
    let sealed = seal_suite(fix);
    let plan = suite_requests(fix);
    let order = order(plan.len(), seed);
    round.extra_setup_s = prep.elapsed().as_secs_f64();
    let images = sealed.len() as u64;
    cal.read();
    for cycle in 0..cycles {
        let dirs = Scratch::new(tmp, &format!("boot{cycle}")).and_then(|s| {
            let (leader, follower) = (s.0.join("leader"), s.0.join("follower"));
            std::fs::create_dir_all(&leader)?;
            std::fs::create_dir_all(&follower)?;
            for (stem, _, bytes) in &sealed {
                std::fs::write(leader.join(format!("{stem}.pdba")), bytes)?;
            }
            Ok((s, leader, follower))
        });
        let (_scratch, leader_dir, follower_dir) = match dirs {
            Ok(d) => d,
            Err(e) => {
                round.attempt(false, || format!("scratch dir: {e}"));
                continue;
            }
        };
        let leader_cfg = ServeConfig {
            artifact_dir: Some(leader_dir),
            ..serve_config(fix)
        };
        let cycle_span = span("boot_fleet.cycle");
        let start = Instant::now();

        // Leader: bind over twelve sealed artifacts until it answers.
        let ready = span("serve.bind_artifacts");
        let Ok(leader) = Daemon::start(leader_cfg) else {
            round.attempt(false, || "leader bind failed".to_string());
            continue;
        };
        let pong = ping(leader.addr, TIMEOUT);
        round.op("ready", start.elapsed());
        drop(ready);
        let loaded = pong
            .as_ref()
            .ok()
            .and_then(|p| at_u64(p, &["artifacts", "loaded"]));
        round.attempt(loaded == Some(images), || {
            format!("leader loaded {loaded:?} of {images} artifacts")
        });
        let mut retired = first_requests(leader.addr, &plan, &order, Some("first_req"), &mut round);

        // Follower: bind with an empty directory and the leader as
        // peer; `bind` returns after the boot pull.
        let follower_cfg = ServeConfig {
            artifact_dir: Some(follower_dir),
            peers: vec![leader.addr.to_string()],
            ..serve_config(fix)
        };
        let ready = span("serve.bind_peer_pull");
        let t0 = Instant::now();
        let Ok(follower) = Daemon::start(follower_cfg) else {
            round.attempt(false, || "follower bind failed".to_string());
            leader.stop();
            continue;
        };
        let pong = ping(follower.addr, TIMEOUT);
        round.op("follower_ready", t0.elapsed());
        drop(ready);
        let adopted = pong
            .as_ref()
            .ok()
            .and_then(|p| at_u64(p, &["fleet", "adopted"]));
        round.attempt(adopted == Some(images), || {
            format!("follower adopted {adopted:?} of {images} artifacts")
        });
        retired.add(first_requests(
            follower.addr,
            &plan,
            &order,
            None,
            &mut round,
        ));

        let drain = span("serve.drain");
        let (_, follower_clean) = follower.stop();
        let (_, leader_clean) = leader.stop();
        drop(drain);
        round.attempt(follower_clean && leader_clean, || {
            "a daemon did not drain cleanly".to_string()
        });
        let wall = start.elapsed();
        drop(cycle_span);
        let ms = round.end_slice(cal, wall);
        round.passes_ms.push(ms);
        round.pass_retired(retired);
    }
    round
}

/// The first SUBMIT for every image on a freshly booted daemon: each
/// checked against the reference, and the daemon must have translated
/// nothing. With `kind`, the latencies are filed under it per image.
/// Returns what the answered runs retired.
fn first_requests(
    addr: SocketAddr,
    plan: &[Planned],
    order: &[usize],
    kind: Option<&str>,
    round: &mut Round,
) -> Retired {
    let mut retired = Retired::default();
    for &i in order {
        let call = span("serve.first_submit");
        let t0 = Instant::now();
        let resp = submit(addr, &plan[i].request, TIMEOUT);
        let wall = t0.elapsed();
        drop(call);
        if let Some(kind) = kind {
            round.op(&format!("{kind}/{}", plan[i].kind), wall);
        }
        let run = resp
            .ok()
            .and_then(|r| Retired::of_frame(&r, &plan[i].expect));
        round.attempt(run.is_some(), || {
            format!("{}: first request failed", plan[i].kind)
        });
        retired.add(run.unwrap_or_default());
    }
    let translated = ping(addr, TIMEOUT)
        .ok()
        .and_then(|p| at_u64(&p, &["server", "translate_calls"]));
    round.attempt(translated == Some(0), || {
        format!("booted daemon made {translated:?} translate calls")
    });
    retired
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_schedule_is_a_pure_function_of_the_seed() {
        let images = SMALL_HOT + SMALL_TAIL;
        let a = zipf_schedule(7, 1500, images);
        assert_eq!(a, zipf_schedule(7, 1500, images));
        let b = zipf_schedule(8, 1500, images);
        assert_ne!(a, b);
        assert_eq!(a.len(), 1500);
        // Another seed is another order of the same mix.
        let mix = |s: &[usize]| {
            (0..images)
                .map(|i| s.iter().filter(|x| **x == i).count())
                .collect::<Vec<_>>()
        };
        assert_eq!(mix(&a), mix(&b));
        // 1/rank: every image is asked for, the head far more than the
        // tail, and the four hot images carry over 40% of the traffic.
        let counts = mix(&a);
        assert!(counts.iter().all(|c| *c > 0));
        assert!(counts[0] > 30 * counts[images - 1]);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert!(counts[..SMALL_HOT].iter().sum::<usize>() * 10 > 1500 * 4);
        assert_eq!(order(12, 3), order(12, 3));
        assert_ne!(order(12, 3), order(12, 4));
    }

    #[test]
    fn inline_guests_are_distinct_and_expect_the_interpreters_output() {
        let images = small_images();
        assert_eq!(images.len(), SMALL_HOT + SMALL_TAIL);
        for (i, a) in images.iter().enumerate() {
            assert_eq!(a.expect, [(10 + i + i % 7) as u32]);
            assert!(images[i + 1..].iter().all(|b| b.request != a.request));
        }
    }
}
