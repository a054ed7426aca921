//! One writer, canonical text: every section a reply carries is
//! written once, through `pdbt_obs::json::TextWriter`, and what it
//! writes must be the text of the tree it parses to — members in key
//! order, no repeated key, numbers and strings spelled as a tree
//! prints them. So a section's tree (`ToJson::to_json`, its text
//! parsed) prints its streamed bytes back unchanged.
//!
//! The writer does not order members: each section says them in key
//! order, once each, and these tests are what hold it to that. Held
//! here over the frames of a live daemon (an inline session's RESULT,
//! PING, STATS and ART_LIST), seeded report contents whose labels hold
//! quotes, backslashes, control bytes and non-ASCII text, and seeded
//! shared-state sections as STATS writes them; each is a
//! write→parse→write fixpoint. `FUZZ_CASES` scales the seeded parts.
//! The daemon's own PING / STATS / RESULT sections are held in-process
//! by the server's unit tests.

mod common;

use common::{random_string, spawn_server, T};
use pdbt::obs::json::{Json, TextWriter, ToJson};
use pdbt::obs::{
    Histogram, PhaseNs, RequestSummary, RuleCounters, ServerSnapshot, TelemetrySnapshot,
};
use pdbt::runtime::{Outcome, Report};
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

/// A payload is canonical when the tree it parses to prints it back
/// unchanged. Returns that tree.
fn assert_canonical(payload: &[u8], what: &str) -> Json {
    let text = std::str::from_utf8(payload).expect("UTF-8 payload");
    let doc = Json::parse(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(doc.to_string(), text, "{what}: not the tree's text");
    doc
}

/// Asserts `doc` streams canonical text.
fn assert_streams_canonically(doc: &impl ToJson, what: &str) {
    let mut streamed = Vec::new();
    doc.write_json(&mut streamed);
    assert_canonical(&streamed, what);
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
        // The SUBMIT left a sealable partition, so the list holds an ad.
        let list = exchange(op::ART_LIST, b"");
        let list = assert_canonical(&list.payload, &format!("ART_LIST {round}"));
        let ads = list.get("artifacts").and_then(Json::as_arr);
        assert_eq!(ads.map(<[Json]>::len), Some(1), "ART_LIST {round}");
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
        outcome: [Outcome::Completed, Outcome::Budget, Outcome::Deadline][rng.gen_range(0..3usize)]
            .label(),
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
        assert_streams_canonically(&random_report(&mut rng), &format!("report case {case}"));
        let flight: Vec<RequestSummary> = (0..rng.gen_range(0..4u32))
            .map(|_| random_summary(&mut rng))
            .collect();
        assert_streams_canonically(&Flight(flight), &format!("flight case {case}"));
        let shared = random_shared(&mut rng);
        assert_streams_canonically(&shared, &format!("shared case {case}"));
    }
}

/// A flight tail, as STATS writes it: an array of summaries.
struct Flight(Vec<RequestSummary>);

impl ToJson for Flight {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.arr(&self.0);
    }
}

/// One partition's shared state, in the pieces STATS writes it with: a
/// `partitions[]` row, the latency rollup and the `server` section.
struct Shared(ServerSnapshot, TelemetrySnapshot);

impl ToJson for Shared {
    fn emit(&self, out: &mut TextWriter<'_>) {
        let Shared(server, telemetry) = self;
        out.begin_obj();
        out.field("latency", &telemetry.latency);
        out.key("partitions");
        out.begin_arr();
        out.begin_obj();
        telemetry.emit_partition_fields(out, server, &[]);
        out.end_obj();
        out.end_arr();
        out.key("server");
        out.begin_obj();
        server.emit_section(out, &[], &[], &[]);
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

/// A section at the writer's edges: non-finite floats, a counter past
/// `i64::MAX`, keys made of control characters, and a repeated key. It
/// says its members out of key order on purpose: its tree is still the
/// parse of its text, the last of a repeated key kept.
struct Edges;

impl ToJson for Edges {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.begin_obj();
        out.field("nan", &f64::NAN);
        out.field("inf", &f64::INFINITY);
        out.field("-inf", &f64::NEG_INFINITY);
        out.field("max", &u64::MAX);
        out.field("\u{0}\t\n\u{1f}", &1u64);
        out.field("dup", &1u64);
        out.field("\u{1}", "x");
        out.field("dup", "last");
        out.end_obj();
    }
}

#[test]
fn to_json_is_the_parse_of_the_written_text() {
    let mut text = Vec::new();
    Edges.write_json(&mut text);
    let parsed = Json::parse(std::str::from_utf8(&text).unwrap()).expect("parses");
    let tree = Edges.to_json();
    assert_eq!(tree, parsed);
    let want = Json::obj([
        ("nan", Json::Null),
        ("inf", Json::Null),
        ("-inf", Json::Null),
        ("max", Json::Int(i64::MAX)),
        ("\u{0}\t\n\u{1f}", Json::Int(1)),
        ("\u{1}", Json::str("x")),
        ("dup", Json::str("last")),
    ]);
    assert_eq!(tree, want);
}
