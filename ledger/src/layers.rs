//! The per-layer ledger: one probe per product layer, each timing the
//! layer's public entry points from outside, under a bench-side span
//! named after the crate or module it calls into.
//!
//! Runs in its own child process, after the same set-up as every
//! workload child. Every row names, in `spec::LAYERS`, the end-to-end
//! metric and workload it should move.

use crate::noise::{Calibrator, Rng};
use crate::setup::{derive_excluding, engine_config, learn_each, Fixture};
use crate::spans::span;
use crate::stats::median;
use crate::workloads::{
    hot_pass, seal_suite, serve_config, serve_small, serve_suite, small_images, suite_cold,
    suite_hot, warm_states, Daemon, Round, Scratch, Work, TIMEOUT,
};
use pdbt_core::derive::{derive_jobs, DeriveConfig};
use pdbt_core::ruleset::{canonical_host_slots, verify_combo};
use pdbt_core::template::HostLoc;
use pdbt_core::{load_rules, save_rules};
use pdbt_isa_x86::compile_block;
use pdbt_obs::json::Json;
use pdbt_obs::Histogram;
use pdbt_runtime::{
    translate_block, translate_trace, BackendKind, Engine, EngineConfig, SharedTranslationState,
};
use pdbt_serve::{list_artifacts, ping, pull_artifact, push_artifact, stats, submit, ServeConfig};
use pdbt_symexec::CheckOptions;
use pdbt_workloads::{run_reference, DATA_BASE, DATA_SIZE, STACK_BASE, STACK_SIZE};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Rows = BTreeMap<String, f64>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Wall-clock of one call.
fn time<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Median wall-clock of `reps` calls.
fn median_of(reps: usize, mut f: impl FnMut()) -> Duration {
    let xs: Vec<f64> = (0..reps).map(|_| time(&mut f).0.as_secs_f64()).collect();
    Duration::from_secs_f64(median(&xs))
}

fn mb_per_s(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / 1e6 / d.as_secs_f64().max(1e-12)
}

/// What the probes produced: the rows by metric name, and the
/// operations the workload rounds inside them attempted and failed — a
/// wrong output in a probe fails the command like one in a workload.
#[derive(Debug, Default)]
pub struct Probes {
    pub rows: Rows,
    pub attempted: u64,
    pub failed: u64,
}

impl Probes {
    /// Takes a round's layer readings and its failure accounting.
    fn absorb(&mut self, round: &Round) {
        self.rows
            .extend(round.layer.iter().map(|(k, v)| (k.clone(), *v)));
        self.attempted += round.attempted;
        self.failed += round.failed;
        for f in &round.failures {
            eprintln!("ledger: FAILED in a layer probe: {f}");
        }
    }
}

/// Runs every probe. The rows are as measured: only the workload rounds
/// inside take readings from `cal`, and only because a round does.
pub fn probe(fix: &Fixture, seed: u64, work: Work, tmp: &Path, cal: &mut Calibrator) -> Probes {
    let mut probes = Probes::default();
    let rows = &mut probes.rows;
    rows.insert("workloads.build_ms".into(), fix.build_ms);
    train_layers(fix, rows);
    rule_layers(fix, rows);
    translate_layers(fix, rows);
    memory_and_interpreter(fix, seed, rows);
    obs_layers(fix, rows);
    artifact_and_fleet(fix, tmp, rows);
    engine_layers(fix, seed, work, cal, &mut probes);
    serve_layers(fix, seed, work, cal, &mut probes);
    probes
}

/// `core` learning and derivation, `symexec` verification, `par`.
fn train_layers(fix: &Fixture, rows: &mut Rows) {
    // Three passes each, the median reported: a single 20 ms reading
    // is at the mercy of whatever else the box is doing.
    let learned = learn_each(&fix.suite);
    let learn = median_of(3, || drop(black_box(learn_each(&fix.suite))));
    let sum = |f: fn(&pdbt_core::FunnelStats) -> usize| -> f64 {
        learned.iter().map(|(_, s)| f(s)).sum::<usize>() as f64
    };
    rows.insert("core.learn_ms".into(), ms(learn));
    rows.insert(
        "core.learn_yield".into(),
        sum(|s| s.learned) / sum(|s| s.candidates).max(1.0),
    );
    rows.insert("core.learn_unique".into(), sum(|s| s.unique));

    let derive_all = || {
        (0..fix.suite.len())
            .map(|i| derive_excluding(&learned, Some(i)).1)
            .collect::<Vec<_>>()
    };
    let derived = derive_all();
    let derive = median_of(3, || drop(black_box(derive_all())));
    let total = |f: fn(&pdbt_core::DeriveStats) -> usize| -> f64 {
        derived.iter().map(f).sum::<usize>() as f64
    };
    rows.insert("core.derive_ms".into(), ms(derive));
    rows.insert(
        "core.derive_rejected_share".into(),
        total(|s| s.rejected) / (total(|s| s.derived) + total(|s| s.rejected)).max(1.0),
    );
    rows.insert("core.derive_instantiated".into(), total(|s| s.instantiated));

    // Every single-instruction rule of the all-programs `para.` set,
    // re-verified from outside: each call is one or more
    // `symexec::check` runs.
    let (verify, (ok, n)) = time(|| {
        let _s = span("symexec.verify_combo");
        fix.para_all
            .iter()
            .fold((0u64, 0u64), |(ok, n), (key, entry)| {
                let verdict = verify_combo(key, &entry.template, CheckOptions::default());
                (ok + u64::from(verdict.is_ok()), n + 1)
            })
    });
    rows.insert(
        "symexec.verify_us_per_rule".into(),
        us(verify) / n.max(1) as f64,
    );
    rows.insert("symexec.verified_share".into(), ok as f64 / n.max(1) as f64);

    let mut merged = pdbt_core::RuleSet::new();
    for (rules, _) in &learned {
        merged.merge(rules.clone());
    }
    let jobs = |j: usize| {
        let _s = span("par.derive_jobs");
        time(|| derive_jobs(&merged, DeriveConfig::full(), CheckOptions::default(), j)).0
    };
    let (j1, j2) = (jobs(1), jobs(2));
    rows.insert(
        "par.derive_j2_ratio".into(),
        j1.as_secs_f64() / j2.as_secs_f64().max(1e-12),
    );
}

/// `core` rule lookup, template instantiation and the rule store.
fn rule_layers(fix: &Fixture, rows: &mut Rows) {
    let (mut lookups, mut hits) = (0u64, 0u64);
    let (mut lookup_time, mut inst_time) = (Duration::ZERO, Duration::ZERO);
    for (w, (rules, _)) in fix.suite.iter().zip(&fix.para) {
        let insts = w.pair.guest.program.insts();
        let (d, matches) = {
            let _s = span("core.lookup");
            time(|| {
                insts
                    .iter()
                    .filter_map(|i| rules.lookup(i))
                    .collect::<Vec<_>>()
            })
        };
        lookup_time += d;
        lookups += insts.len() as u64;
        hits += matches.len() as u64;
        let _s = span("core.instantiate_match");
        inst_time += time(|| {
            for m in &matches {
                let n = m.inst.slots.len().min(4);
                let locs: Vec<HostLoc> = canonical_host_slots(n)
                    .into_iter()
                    .map(HostLoc::Reg)
                    .collect();
                let _ = black_box(rules.instantiate_match(m, &locs));
            }
        })
        .0;
    }
    rows.insert(
        "core.lookup_ns".into(),
        ns(lookup_time) / lookups.max(1) as f64,
    );
    rows.insert(
        "core.lookup_hit_share".into(),
        hits as f64 / lookups.max(1) as f64,
    );
    rows.insert(
        "core.instantiate_ns".into(),
        ns(inst_time) / hits.max(1) as f64,
    );

    let text = save_rules(&fix.para_all);
    let save = median_of(3, || {
        let _s = span("core.save_rules");
        black_box(save_rules(&fix.para_all));
    });
    let load = median_of(3, || {
        let _s = span("core.load_rules");
        black_box(load_rules(&text).expect("a saved rule set loads"));
    });
    rows.insert("core.store_save_ms".into(), ms(save));
    rows.insert("core.store_load_ms".into(), ms(load));
}

/// `runtime::translate_block` with and without rules (the rule path
/// against the TCG-model path), `translate_trace`, and the `isa-x86`
/// threaded compiler, over the blocks and traces a cold run of each
/// program actually forms.
fn translate_layers(fix: &Fixture, rows: &mut Rows) {
    let cfg = engine_config();
    let (mut blocks, mut traces) = (0u64, 0u64);
    let (mut rule_t, mut ir_t, mut trace_t, mut compile_t) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let (mut host_len, mut guest_len, mut ops, mut slow) = (0u64, 0u64, 0u64, 0u64);
    for (w, (rules, _)) in fix.suite.iter().zip(&fix.para) {
        let prog = &w.pair.guest.program;
        let mut engine = Engine::new(Some(rules.clone()), cfg);
        engine
            .run(prog, &w.setup())
            .expect("cold run for block discovery");
        let snapshot = engine.cache().snapshot();
        blocks += snapshot.len() as u64;
        {
            let _s = span("runtime.translate_block");
            rule_t += time(|| {
                for (start, _) in &snapshot {
                    let b = translate_block(prog, *start, Some(rules), &cfg.translate)
                        .expect("a cached block retranslates");
                    host_len += b.code.len() as u64;
                    guest_len += u64::from(b.guest_len);
                }
            })
            .0;
        }
        {
            let _s = span("ir.translate_block");
            ir_t += time(|| {
                for (start, _) in &snapshot {
                    black_box(translate_block(prog, *start, None, &cfg.translate).ok());
                }
            })
            .0;
        }
        {
            let _s = span("isa-x86.compile_block");
            compile_t += time(|| {
                for (_, block) in &snapshot {
                    let code = compile_block(&block.code);
                    ops += code.len() as u64;
                    slow += code.slow_ops() as u64;
                }
            })
            .0;
        }
        let _s = span("runtime.translate_trace");
        for t in engine.export_traces() {
            let members: Vec<_> = t.member_marks.iter().map(|m| m.start).collect();
            trace_t += time(|| {
                black_box(translate_trace(prog, &members, Some(rules), &cfg.translate).ok())
            })
            .0;
            traces += 1;
        }
    }
    let per_block = |d: Duration| us(d) / blocks.max(1) as f64;
    rows.insert("runtime.translate_us_per_block".into(), per_block(rule_t));
    rows.insert(
        "runtime.translate_host_per_guest".into(),
        host_len as f64 / guest_len.max(1) as f64,
    );
    rows.insert("ir.translate_us_per_block".into(), per_block(ir_t));
    rows.insert(
        "runtime.translate_trace_us".into(),
        us(trace_t) / traces.max(1) as f64,
    );
    rows.insert("isa-x86.compile_us_per_block".into(), per_block(compile_t));
    rows.insert(
        "isa-x86.compile_slow_op_share".into(),
        slow as f64 / ops.max(1) as f64,
    );
}

/// The engine as a whole: the time split of a cold and a hot pass from
/// its own report, dispatch counters, and hot passes with chaining off
/// and under each backend.
fn engine_layers(fix: &Fixture, seed: u64, work: Work, cal: &mut Calibrator, probes: &mut Probes) {
    let cold = suite_cold(fix, seed, work.cold_passes.min(2), cal);
    let hot = suite_hot(fix, seed, work.hot_passes.min(2), cal);
    probes.absorb(&cold);
    probes.absorb(&hot);
    // The totals behind `host_per_guest` on the suite workloads.
    for name in ["guest_retired", "host_executed"] {
        let count = cold.counts.get(name).copied().unwrap_or(0);
        probes.rows.insert(format!("suite.{name}"), count as f64);
    }

    let states = warm_states(fix);
    let order: Vec<usize> = (0..fix.suite.len()).collect();
    // Checked like any hot pass: right output, nothing translated.
    let mut variants = Round::default();
    let mut pass = |cfg: EngineConfig| {
        let _s = span("runtime.hot_pass_variant");
        hot_pass(fix, &states, cfg, &order, &mut variants)
    };
    let unchained = pass(EngineConfig {
        chaining: false,
        traces: false,
        ..engine_config()
    });
    let rows = &mut probes.rows;
    rows.insert(
        "runtime.unchained_ns_per_guest_inst".into(),
        unchained.wall_ns as f64 / unchained.guest.max(1) as f64,
    );
    for (kind, name) in [
        (
            BackendKind::Threaded,
            "runtime.backend.threaded_ns_per_host_inst",
        ),
        (BackendKind::Model, "runtime.backend.model_ns_per_host_inst"),
    ] {
        let t = pass(EngineConfig {
            backend: kind,
            ..engine_config()
        });
        rows.insert(
            name.into(),
            t.wall_ns.saturating_sub(t.compile_ns) as f64 / t.host.max(1) as f64,
        );
    }
    probes.absorb(&variants);
}

/// `isa::Memory` under a seeded word-access stream on the workload
/// memory map, and the ARM reference interpreter.
fn memory_and_interpreter(fix: &Fixture, seed: u64, rows: &mut Rows) {
    const ACCESSES: usize = 1 << 20;
    let mut mem = pdbt_isa::Memory::new();
    mem.map(DATA_BASE, DATA_SIZE);
    mem.map(STACK_BASE, STACK_SIZE);
    let mut rng = Rng::new(seed);
    let addrs: Vec<u32> = (0..ACCESSES)
        .map(|_| {
            let (base, size) = if rng.below(4) == 0 {
                (STACK_BASE, STACK_SIZE)
            } else {
                (DATA_BASE, DATA_SIZE)
            };
            base + (rng.below(size as usize / 4) as u32) * 4
        })
        .collect();
    let (d, sum) = {
        let _s = span("isa.memory");
        time(|| {
            let mut sum = 0u32;
            for (k, &a) in addrs.iter().enumerate() {
                if k % 2 == 0 {
                    mem.store32(a, k as u32).expect("mapped store");
                } else {
                    sum = sum.wrapping_add(mem.load32(a).expect("mapped load"));
                }
            }
            sum
        })
    };
    black_box(sum);
    rows.insert("isa.mem_ns_per_access".into(), ns(d) / ACCESSES as f64);

    let d = {
        let _s = span("isa-arm.run_reference");
        time(|| {
            for (w, expect) in fix.suite.iter().zip(&fix.reference) {
                assert_eq!(&run_reference(w).expect("reference runs"), expect);
            }
        })
        .0
    };
    // `run_reference` returns only the output; count what it retired
    // with the interpreter's own statistics on a second, untimed walk.
    let retired: u64 = fix
        .suite
        .iter()
        .map(|w| {
            let mut cpu = pdbt_isa_arm::Cpu::new();
            cpu.mem.map(DATA_BASE, DATA_SIZE);
            cpu.mem.map(STACK_BASE, STACK_SIZE);
            cpu.write(pdbt_isa_arm::Reg::Sp, STACK_BASE + STACK_SIZE);
            pdbt_isa_arm::run(&mut cpu, &w.pair.guest.program, 100_000_000)
                .map_or(0, |s| s.executed)
        })
        .sum();
    rows.insert(
        "isa-arm.interp_ns_per_guest_inst".into(),
        ns(d) / retired.max(1) as f64,
    );
}

/// `obs`: the report writer, the JSON parser and histogram recording —
/// what every RESULT frame pays.
fn obs_layers(fix: &Fixture, rows: &mut Rows) {
    let w = &fix.suite[0];
    let report = Engine::new(Some(fix.para[0].0.clone()), engine_config())
        .run(&w.pair.guest.program, &w.setup())
        .expect("cold run for a report");
    let text = report.to_json().to_string();
    let write = median_of(15, || {
        let _s = span("obs.report_to_json");
        black_box(report.to_json().to_string());
    });
    let parse = median_of(15, || {
        let _s = span("obs.json_parse");
        black_box(Json::parse(&text).expect("a report parses"));
    });
    rows.insert("obs.report_json_us".into(), us(write));
    rows.insert("obs.json_parse_us".into(), us(parse));

    const RECORDS: u64 = 1 << 20;
    let mut hist = Histogram::latency_ns();
    let mut rng = Rng::new(3);
    let values: Vec<u64> = (0..RECORDS).map(|_| rng.next_u64() % 2_000_000).collect();
    let d = {
        let _s = span("obs.histogram_record");
        time(|| values.iter().for_each(|v| hist.record(*v))).0
    };
    black_box(hist.count());
    rows.insert("obs.hist_record_ns".into(), ns(d) / RECORDS as f64);
}

/// `serve`: the accept thread alone (PING, STATS), what the wire adds
/// over an in-process run of the same image, and the daemon's own
/// telemetry after a short round of each serve workload.
fn serve_layers(fix: &Fixture, seed: u64, work: Work, cal: &mut Calibrator, probes: &mut Probes) {
    const TRIPS: usize = 200;
    let daemon = Daemon::start(serve_config(fix)).expect("bind a daemon for the serve probes");
    let image = &small_images()[0];
    let submit_one = || submit(daemon.addr, &image.request, TIMEOUT).expect("inline submit");
    submit_one();
    let ping_t = median_of(TRIPS, || {
        let _s = span("serve.ping");
        ping(daemon.addr, TIMEOUT).expect("ping");
    });
    let stats_t = median_of(TRIPS, || {
        let _s = span("serve.stats");
        stats(daemon.addr, TIMEOUT).expect("stats");
    });
    let wire = median_of(TRIPS, || {
        let _s = span("serve.submit");
        black_box(submit_one());
    });
    daemon.stop();

    // The same image in-process: a session over a warm shared state,
    // plus the report text a RESULT frame would carry.
    let text = image
        .request
        .get("program")
        .and_then(Json::as_str)
        .unwrap_or("");
    let prog = pdbt_isa_arm::Program::new(
        0x1000,
        pdbt_isa_arm::parse_listing(text).expect("inline guest parses"),
    );
    let setup = pdbt_runtime::RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
    let cfg = EngineConfig {
        record_telemetry: false,
        ..engine_config()
    };
    let shared = Arc::new(SharedTranslationState::new(
        Some(fix.para_all.clone()),
        cfg.cache_shards,
    ));
    let session = || {
        let report = Engine::with_shared(Arc::clone(&shared), cfg)
            .run(&prog, &setup)
            .expect("inline guest runs in-process");
        report.to_json().to_string()
    };
    black_box(session());
    let local = median_of(TRIPS, || {
        let _s = span("runtime.inline_session");
        black_box(session());
    });
    let rows = &mut probes.rows;
    rows.insert("serve.ping_us".into(), us(ping_t));
    rows.insert("serve.stats_us".into(), us(stats_t));
    rows.insert("serve.overhead_us".into(), us(wire) - us(local));

    probes.absorb(&serve_small(fix, seed, work.small_requests / 4, cal));
    probes.absorb(&serve_suite(
        fix,
        seed,
        work.suite_requests_per_image.min(2),
        cal,
    ));
}

/// `artifact` compile/seal/open/warm and the `fleet` transfer frames.
fn artifact_and_fleet(fix: &Fixture, tmp: &Path, rows: &mut Rows) {
    let before = Instant::now();
    let sealed = seal_suite(fix);
    let compile_and_seal = before.elapsed();
    let total: usize = sealed.iter().map(|(_, _, b)| b.len()).sum();

    let (open_t, opened) = {
        let _s = span("artifact.open_salvage");
        time(|| {
            sealed
                .iter()
                .map(|(_, _, b)| pdbt_artifact::open_salvage(b).expect("a sealed artifact opens"))
                .collect::<Vec<_>>()
        })
    };
    let seal_t = {
        let _s = span("artifact.seal");
        time(|| {
            opened
                .iter()
                .for_each(|o| drop(black_box(pdbt_artifact::seal(&o.artifact))))
        })
        .0
    };
    let warm_t = {
        let _s = span("artifact.warm_state");
        time(|| {
            for o in &opened {
                black_box(pdbt_artifact::warm_state(o, None, 8, 2));
            }
        })
        .0
    };
    let rule_bytes: usize = sealed
        .iter()
        .filter_map(|(_, _, b)| pdbt_artifact::section_table(b).ok())
        .flatten()
        .filter(|(name, _)| name == "RULE")
        .map(|(_, range)| range.len())
        .sum();
    rows.insert(
        "artifact.compile_ms".into(),
        ms(compile_and_seal.saturating_sub(seal_t)),
    );
    rows.insert("artifact.seal_mb_per_s".into(), mb_per_s(total, seal_t));
    rows.insert("artifact.open_mb_per_s".into(), mb_per_s(total, open_t));
    rows.insert("artifact.warm_state_ms".into(), ms(warm_t));
    rows.insert("artifact.bytes_total".into(), total as f64);
    rows.insert(
        "artifact.rule_section_share".into(),
        rule_bytes as f64 / total.max(1) as f64,
    );

    // A leader booted from the twelve artifacts, listed and pulled from
    // over the wire; then an empty daemon pushed into and drained.
    let dirs = Scratch::new(tmp, "fleet").expect("scratch dir for the fleet probes");
    let (leader_dir, sink_dir) = (dirs.0.join("leader"), dirs.0.join("sink"));
    for dir in [&leader_dir, &sink_dir] {
        std::fs::create_dir_all(dir).expect("scratch subdir");
    }
    for (stem, _, bytes) in &sealed {
        std::fs::write(leader_dir.join(format!("{stem}.pdba")), bytes).expect("write artifact");
    }
    let with_dir = |dir| ServeConfig {
        artifact_dir: Some(dir),
        ..serve_config(fix)
    };
    let leader = Daemon::start(with_dir(leader_dir)).expect("bind the leader");
    let list_t = median_of(5, || {
        let _s = span("fleet.list_artifacts");
        black_box(list_artifacts(leader.addr, TIMEOUT).expect("ART_LIST"));
    });
    let (pull_t, pulled) = {
        let _s = span("fleet.pull_artifact");
        time(|| {
            sealed
                .iter()
                .map(|(_, fp, _)| pull_artifact(leader.addr, *fp, TIMEOUT).expect("ART_PULL"))
                .collect::<Vec<_>>()
        })
    };
    leader.stop();
    let sink = Daemon::start(with_dir(sink_dir)).expect("bind the sink");
    let push_t = {
        let _s = span("fleet.push_artifact");
        time(|| {
            for p in &pulled {
                let verdict = push_artifact(
                    sink.addr,
                    p.fingerprint,
                    p.generation,
                    &p.label,
                    &p.bytes,
                    TIMEOUT,
                )
                .expect("ART_PUSH");
                assert_eq!(verdict.get("adopted").and_then(Json::as_bool), Some(true));
            }
        })
        .0
    };
    let drain_t = {
        let _s = span("serve.drain");
        sink.stop().0
    };
    let moved: usize = pulled.iter().map(|p| p.bytes.len()).sum();
    rows.insert("fleet.list_ms".into(), ms(list_t));
    rows.insert("fleet.pull_mb_per_s".into(), mb_per_s(moved, pull_t));
    rows.insert("fleet.push_mb_per_s".into(), mb_per_s(moved, push_t));
    rows.insert("serve.drain_ms".into(), ms(drain_t));
}
