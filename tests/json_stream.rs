//! One definition, two sinks: every section a reply carries is written
//! once through `pdbt_obs::json::Emit`, streamed as text into its frame
//! (`ToJson::write_json`) or built as a tree (`ToJson::to_json`). The
//! streamed bytes must be the tree's text, byte for byte — the text
//! writer puts members in key order and spells numbers and strings
//! through the tree's own functions.
//!
//! Held here over tiny-suite reports (default config, `no_delegation`,
//! an exhausted budget, a fault-armed run), the frames of a live daemon
//! (an inline session's RESULT, PING, STATS: each must be the canonical
//! text of the document it holds), seeded report contents whose labels
//! hold quotes, backslashes, control bytes and non-ASCII text, seeded
//! shared-state sections as STATS writes them, and seeded event
//! sequences with members out of order and repeated keys.
//! `FUZZ_CASES` scales the seeded parts. The daemon's own PING / STATS /
//! RESULT sections are held in-process by the server's unit tests.

mod common;

use common::{random_string, spawn_server, T};
use pdbt::obs::json::{Emit, Json, TextWriter, ToJson, TreeBuilder};
use pdbt::obs::{
    Histogram, PhaseNs, RequestSummary, RuleCounters, ServerSnapshot, TelemetrySnapshot,
};
use pdbt::runtime::{Engine, EngineConfig, Outcome, Report};
use pdbt::workloads::{learn_suite, suite, Scale};
use pdbt_faults::{Plan, Site};
use pdbt_serve::proto::{op, read_frame, write_frame};
use pdbt_serve::ServeConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Honour FUZZ_CASES when set; default to a CI-friendly 64.
fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Asserts `doc` streams to exactly its tree's text.
fn assert_streams_as_its_tree(doc: &impl ToJson, what: &str) {
    let mut streamed = Vec::new();
    doc.write_json(&mut streamed);
    let tree = doc.to_json().to_string();
    assert!(
        streamed == tree.as_bytes(),
        "{what}: streamed text differs from the tree's\n streamed: {}\n     tree: {tree}",
        String::from_utf8_lossy(&streamed)
    );
}

#[test]
fn tiny_suite_reports_stream_as_their_trees() {
    let ws = suite(Scale::tiny());
    let rules = learn_suite(&ws, None);
    for w in &ws {
        let name = w.bench.name();
        let run = |flag_delegation: bool, max_guest: Option<u64>| {
            let mut cfg = EngineConfig::default();
            cfg.translate.flag_delegation = flag_delegation;
            let mut setup = w.setup();
            if let Some(budget) = max_guest {
                setup.max_guest = budget;
            }
            Engine::new(Some(rules.clone()), cfg)
                .run(&w.pair.guest.program, &setup)
                .expect("tiny workload runs")
        };
        assert_streams_as_its_tree(&run(true, None), &format!("{name}: default"));
        assert_streams_as_its_tree(&run(false, None), &format!("{name}: no_delegation"));
        let cut = run(true, Some(97));
        assert_eq!(cut.outcome, Outcome::Budget, "{name}: the budget runs out");
        assert_streams_as_its_tree(&cut, &format!("{name}: exhausted budget"));
        let armed = {
            let _plan = pdbt_faults::scoped(Some(Plan::single(Site::Cache, 7, 0.3)));
            run(true, None)
        };
        assert_streams_as_its_tree(&armed, &format!("{name}: fault-armed"));
    }
}

/// A frame's payload is canonical when the tree it parses to prints it
/// back unchanged: members in key order, no repeated key, numbers and
/// strings spelled as the tree spells them.
fn assert_canonical(payload: &[u8], what: &str) {
    let text = std::str::from_utf8(payload).expect("UTF-8 payload");
    let doc = Json::parse(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(doc.to_string(), text, "{what}: not the tree's text");
}

#[test]
fn a_live_daemon_streams_canonical_frames() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let exchange = |opcode: u8, payload: &[u8]| {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(T)).unwrap();
        write_frame(&mut stream, opcode, payload).unwrap();
        read_frame(&mut stream).expect("a reply frame")
    };
    let inline = Json::obj([
        ("id", Json::from(3u64)),
        (
            "program",
            Json::str("mov r0, #41\nadd r0, r0, #1\nsvc #1\nsvc #0\n"),
        ),
    ]);
    for round in 0..2 {
        let result = exchange(op::SUBMIT, inline.to_string().as_bytes());
        assert_eq!(result.opcode, op::RESULT);
        assert_canonical(&result.payload, &format!("RESULT {round}"));
        let pong = exchange(op::PING, b"");
        assert_canonical(&pong.payload, &format!("PING {round}"));
        let stats = exchange(op::STATS, b"");
        assert_canonical(&stats.payload, &format!("STATS {round}"));
    }
    pdbt_serve::shutdown(addr, T).expect("shutdown");
    handle.join().unwrap();
}

fn random_histogram(rng: &mut StdRng, mut h: Histogram) -> Histogram {
    for _ in 0..rng.gen_range(0..40u32) {
        let v = match rng.gen_range(0..8u32) {
            0 => Histogram::FALLBACK,
            1 => rng.gen(),
            _ => rng.gen_range(0..5_000_000u64),
        };
        h.record(v);
    }
    h
}

fn random_summary(rng: &mut StdRng) -> RequestSummary {
    RequestSummary {
        seq: rng.gen(),
        id: rng.gen(),
        partition: rng.gen(),
        outcome: random_string(rng),
        phases: PhaseNs {
            queue: rng.gen_range(0..1 << 40),
            translate: rng.gen_range(0..1 << 40),
            execute: rng.gen_range(0..1 << 40),
            reply: rng.gen_range(0..1 << 40),
        },
        reply_bytes: rng.gen(),
        injected: rng.gen_range(0..100),
        fault_sites: random_string(rng),
    }
}

/// A counter across the whole `u64` range, mostly small.
fn big(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen(),
        _ => rng.gen_range(0..100_000u64),
    }
}

/// A report whose every section holds seeded contents: labels from the
/// writer's escape corners, counters across the whole `u64` range
/// (past `i64::MAX` they saturate), sparse and dense histograms.
fn random_report(rng: &mut StdRng) -> Report {
    let mut report = Report::default();
    for v in report.metrics.values_mut() {
        *v = big(rng);
    }
    report.metrics.host_by_class = [(); 4].map(|()| rng.gen_range(0..1 << 40));
    let mut rules = RuleCounters::new();
    for _ in 0..rng.gen_range(0..12u32) {
        let id = rules.intern(&random_string(rng), &random_string(rng));
        rules.hit(id, rng.gen_range(0..50));
        rules.covered(id, rng.gen_range(0..5_000));
    }
    for _ in 0..rng.gen_range(0..6u32) {
        rules.miss(&random_string(rng));
    }
    report.obs.rules = rules;
    report.obs.translate_ns = random_histogram(rng, Histogram::latency_ns());
    report.obs.block_host_len = random_histogram(rng, Histogram::block_len());
    report.obs.deleg_depth = random_histogram(rng, Histogram::deleg_depth());
    for _ in 0..rng.gen_range(0..20u32) {
        let shard = rng.gen_range(0..8usize);
        if rng.gen() {
            report.obs.cache.record_hit(shard);
        } else {
            report.obs.cache.record_miss(shard);
        }
    }
    let tasks: Vec<u64> = (0..rng.gen_range(0..5u32))
        .map(|_| rng.gen_range(0..9))
        .collect();
    report.obs.pool.record(&tasks);
    for v in report.obs.dispatch.values_mut() {
        *v = big(rng);
    }
    for v in report.resilience.values_mut() {
        *v = big(rng);
    }
    report.resilience.injected = [(); pdbt_faults::SITE_COUNT].map(|()| rng.gen_range(0..9));
    report.output = (0..rng.gen_range(0..10u32)).map(|_| rng.gen()).collect();
    report.outcome =
        [Outcome::Completed, Outcome::Budget, Outcome::Deadline][rng.gen_range(0..3usize)].clone();
    report.backend = ["model", "threaded", ""][rng.gen_range(0..3usize)];
    report
}

#[test]
fn seeded_report_contents_stream_as_their_trees() {
    let mut rng = StdRng::seed_from_u64(0x57_2EA4);
    for case in 0..fuzz_cases() {
        assert_streams_as_its_tree(&random_report(&mut rng), &format!("report case {case}"));
        let flight: Vec<RequestSummary> = (0..rng.gen_range(0..4u32))
            .map(|_| random_summary(&mut rng))
            .collect();
        assert_streams_as_its_tree(&Flight(flight), &format!("flight case {case}"));
        let shared = random_shared(&mut rng);
        assert_streams_as_its_tree(&shared, &format!("shared case {case}"));
    }
}

/// A flight tail, as STATS writes it: an array of summaries.
struct Flight(Vec<RequestSummary>);

impl ToJson for Flight {
    fn emit<E: Emit>(&self, out: &mut E) {
        out.arr(&self.0);
    }
}

/// One partition's shared state, in the pieces STATS writes it with: a
/// `partitions[]` row, the latency rollup and the `server` section.
struct Shared(ServerSnapshot, TelemetrySnapshot);

impl ToJson for Shared {
    fn emit<E: Emit>(&self, out: &mut E) {
        let Shared(server, telemetry) = self;
        out.begin_obj();
        out.field("latency", &telemetry.latency);
        out.key("partitions");
        out.begin_arr();
        out.begin_obj();
        telemetry.emit_partition_fields(out, server);
        out.end_obj();
        out.end_arr();
        out.key("server");
        out.begin_obj();
        server.emit_section(out, &[]);
        out.end_obj();
        out.end_obj();
    }
}

fn random_shared(rng: &mut StdRng) -> Shared {
    let mut server = ServerSnapshot::default();
    for v in server.values_mut() {
        *v = big(rng);
    }
    let mut telemetry = TelemetrySnapshot {
        partition: rng.gen(),
        ..TelemetrySnapshot::default()
    };
    for _ in 0..rng.gen_range(0..6u32) {
        telemetry.latency.record(&random_summary(rng));
    }
    Shared(server, telemetry)
}

/// Seeded events: objects whose members arrive in any order, with keys
/// drawn from a small pool so they repeat, nested to depth 4.
fn random_events<E: Emit>(rng: &mut StdRng, out: &mut E, depth: u32) {
    match rng.gen_range(0..if depth == 0 { 5 } else { 7u32 }) {
        0 => out.null(),
        1 => out.bool(rng.gen()),
        2 => out.uint(rng.gen()),
        3 => out.float((rng.gen::<f64>() - 0.5) * 1e6),
        4 => out.str(&random_string(rng)),
        5 => {
            out.begin_arr();
            for _ in 0..rng.gen_range(0..4u32) {
                random_events(rng, out, depth - 1);
            }
            out.end_arr();
        }
        _ => {
            out.begin_obj();
            for _ in 0..rng.gen_range(0..7u32) {
                let key = match rng.gen_range(0..3u32) {
                    0 => random_string(rng),
                    _ => ["a", "b", "ab", "", "\"", "é"][rng.gen_range(0..6usize)].to_string(),
                };
                out.key(&key);
                random_events(rng, out, depth - 1);
            }
            out.end_obj();
        }
    }
}

#[test]
fn seeded_event_sequences_write_the_same_text_through_both_sinks() {
    let mut rng = StdRng::seed_from_u64(0xE4E47);
    for case in 0..fuzz_cases() * 8 {
        let seed: u64 = rng.gen();
        let mut tree = TreeBuilder::default();
        random_events(&mut StdRng::seed_from_u64(seed), &mut tree, 4);
        let mut text = Vec::new();
        random_events(
            &mut StdRng::seed_from_u64(seed),
            &mut TextWriter::new(&mut text),
            4,
        );
        let want = tree.finish().to_string();
        assert!(
            text == want.as_bytes(),
            "case {case}: {} != {want}",
            String::from_utf8_lossy(&text)
        );
    }
}
