//! The JSON codec's contract (`pdbt_obs::json`): the writer's exact
//! bytes, pinned by `tests/golden/json_codec.txt`, and a seeded
//! round-trip property.
//!
//! Every report, PING/STATS payload, RESULT frame and artifact header
//! this tool emits is spelled by the one writer, `TextWriter`, so a
//! codec change that moves a byte moves every consumer's input. The
//! golden covers a fixed corpus: the stripped run report of
//! `report_schema.rs`'s guest, a STATS-shaped payload, and hand-written
//! edge documents (float and integer extremes, every control character,
//! non-ASCII text, empty and nested containers). One line per document:
//! `name<TAB>json`.
//!
//! The property writes random trees (finite floats only: a non-finite
//! float is written as `null`) and checks `parse(write(x)) == x` and
//! `write(parse(write(x))) == write(x)`. `FUZZ_CASES` scales it.
//!
//! The parser's side is pinned by `tests/golden/json_verdicts.txt`: its
//! verdict — the tree's canonical text, or the error's offset and
//! message — on seeded cuts and byte overwrites of every golden
//! document, and on hand-written edge inputs.
//!
//! Refresh after an intentional format change with
//! `UPDATE_GOLDEN=1 cargo test --test json_codec`.

mod common;

use common::{assert_golden, random_string};
use pdbt::arm::{parse_listing, Program};
use pdbt::core::derive::{derive, DeriveConfig};
use pdbt::obs::json::{Json, TextWriter, ToJson};
use pdbt::obs::{LatencyHists, PhaseNs, RequestSummary, ServerSnapshot, TelemetrySnapshot};
use pdbt::runtime::{BackendKind, Engine, EngineConfig, Report, RunSetup};
use pdbt::workloads::{learn_suite, suite, Scale};
use pdbt_symexec::CheckOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `report_schema.rs`'s guest: rule-covered ALU work, an unlearnable
/// `mul`, a flag-delegated loop, and output.
const GUEST: &str = "\
mov r0, #5
mov r1, #0
mov r2, #3
add r1, r1, r0
mul r3, r1, r0
subs r2, r2, #1
bne .-12
mov r0, r1
svc #1
mov r0, r3
svc #1
svc #0
";

/// Honour FUZZ_CASES when set; default to a CI-friendly 64.
fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// The guest's report under derived tiny-suite rules, stripped of its
/// clock readings so the bytes are a function of the code alone. The
/// model backend is named, not taken from `PDBT_BACKEND`: the report
/// carries the backend's name.
fn guest_report() -> Json {
    let (rules, _) = derive(
        &learn_suite(&suite(Scale::tiny()), None),
        DeriveConfig::full(),
        CheckOptions::default(),
    );
    let prog = Program::new(0x1000, parse_listing(GUEST).expect("guest parses"));
    let cfg = EngineConfig {
        jobs: 1,
        backend: BackendKind::Model,
        ..EngineConfig::default()
    };
    let report = Engine::new(Some(rules), cfg)
        .run(&prog, &RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000))
        .expect("guest runs");
    Report::stripped(&report.to_json())
}

/// A STATS-shaped payload built from the telemetry types the daemon
/// renders, fed fixed request summaries (a live one carries clock
/// readings): the latency rollup, one `partitions[]` row and the flight
/// tail, written as the daemon writes it, members in key order, and
/// parsed back.
fn stats_payload() -> Json {
    let summaries: Vec<RequestSummary> = (1..=5u64)
        .map(|seq| RequestSummary {
            seq,
            id: seq * 7,
            partition: 0x0123_4567_89ab_cdef,
            outcome: if seq == 4 { "deadline" } else { "completed" },
            phases: PhaseNs {
                queue: 1_000 * seq,
                translate: 33_333 * seq,
                execute: 250_001 * seq,
                reply: 9_999 + seq,
            },
            reply_bytes: 3_000 + 517 * seq,
            injected: seq / 3,
            fault_sites: if seq == 3 {
                "cache,store".into()
            } else {
                String::new()
            },
        })
        .collect();
    let mut latency = LatencyHists::default();
    for s in &summaries {
        latency.record(s);
    }
    let tele = TelemetrySnapshot {
        partition: 0x0123_4567_89ab_cdef,
        latency,
    };
    let server = ServerSnapshot {
        probes: 41,
        inserted: 12,
        translate_calls: 13,
        sessions: 5,
        compiled_blocks: 9,
    };
    let mut text = Vec::new();
    let mut out = TextWriter::new(&mut text);
    out.begin_obj();
    out.field("backend", "threaded");
    out.key("flight");
    out.arr(&summaries);
    out.field("latency", &tele.latency);
    out.key("partitions");
    out.begin_arr();
    out.begin_obj();
    tele.emit_partition_fields(
        &mut out,
        &server,
        &[("label", &"mcf/tiny"), ("warm", &false)],
    );
    out.end_obj();
    out.end_arr();
    out.key("server");
    out.begin_obj();
    server.emit_section(&mut out, &[], &[], &[]);
    out.end_obj();
    out.field("stats_seq", &3u64);
    out.field("uptime_ns", &1_234_567_890u64);
    out.end_obj();
    let text = std::str::from_utf8(&text).unwrap();
    let doc = Json::parse(text).expect("the STATS text parses");
    assert_eq!(doc.to_string(), text, "the STATS text is canonical");
    doc
}

/// Hand-written documents at the writer's edges.
fn edge_documents() -> Vec<(&'static str, Json)> {
    let floats = [2.0, 1e20, 0.1, -0.0, 5e-324, 1.5, -3.25e-7, f64::MAX];
    let controls: String = (0u8..0x20).map(char::from).collect();
    vec![
        ("floats", Json::arr(floats.map(Json::Float))),
        (
            "non_finite",
            Json::arr([f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(Json::Float)),
        ),
        (
            "integers",
            Json::arr([i64::MIN, -1, 0, 1, i64::MAX].map(Json::Int)),
        ),
        (
            "strings",
            Json::arr([
                Json::str(controls.as_str()),
                Json::str("quote \" backslash \\ slash / del \u{7f}"),
                Json::str("héllo wörld · 日本語 · 😀 · \u{2028}"),
                Json::str(""),
            ]),
        ),
        (
            "keys",
            Json::obj([
                ("", Json::Null),
                ("a\"b", Json::from(true)),
                ("tab\there", Json::from(false)),
                ("ü", Json::from(1u64)),
            ]),
        ),
        (
            "containers",
            Json::obj([
                ("empty_obj", Json::obj(Vec::<(String, Json)>::new())),
                ("empty_arr", Json::arr([])),
                (
                    "nested",
                    Json::arr([
                        Json::arr([]),
                        Json::arr([Json::arr([Json::from(1u64)]), Json::arr([])]),
                        Json::arr([Json::arr([Json::arr([Json::Null])])]),
                    ]),
                ),
            ]),
        ),
    ]
}

#[test]
fn writer_bytes_match_the_golden() {
    let mut corpus = vec![("guest_report", guest_report()), ("stats", stats_payload())];
    corpus.extend(edge_documents());
    let mut got = String::new();
    for (name, doc) in &corpus {
        let text = doc.to_string();
        // `Display` and `write_json` into a non-empty buffer agree.
        let mut appended = b"x".to_vec();
        doc.write_json(&mut appended);
        assert_eq!(
            appended[1..],
            *text.as_bytes(),
            "{name}: write_json appends what Display prints"
        );
        got.push_str(&format!("{name}\t{text}\n"));
    }
    assert_golden(&got, "json_codec.txt");
}

#[test]
fn every_golden_line_is_a_write_fixpoint() {
    // Parsing the pinned bytes and writing them again reproduces them:
    // the parser reads back everything the writer emits (a non-finite
    // float comes back as the `null` it was written as).
    let golden = std::fs::read_to_string(common::golden_path("json_codec.txt")).unwrap();
    for line in golden.lines() {
        let (name, text) = line.split_once('\t').expect("name<TAB>json");
        let doc = Json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(doc.to_string(), text, "{name}");
    }
}

#[test]
fn a_duplicate_key_keeps_its_last_value() {
    let doc = Json::parse(r#"{"a":1,"b":{"x":[],"x":2},"a":3}"#).unwrap();
    assert_eq!(doc.to_string(), r#"{"a":3,"b":{"x":2}}"#);
}

fn random_float(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..3u32) {
        0 => f64::from(rng.gen_range(-1000..1000i32)),
        1 => (rng.gen::<f64>() - 0.5) * 1e6,
        _ => loop {
            let x = f64::from_bits(rng.gen::<u64>());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn random_tree(rng: &mut StdRng, depth: u32) -> Json {
    let leaf_only = depth == 0;
    match rng.gen_range(0..if leaf_only { 6 } else { 8u32 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::Int(rng.gen::<u64>() as i64),
        3 => Json::Int(rng.gen_range(-100..100i64)),
        4 => Json::Float(random_float(rng)),
        5 => Json::Str(random_string(rng)),
        6 => Json::arr((0..rng.gen_range(0..5usize)).map(|_| random_tree(rng, depth - 1))),
        _ => Json::obj(
            (0..rng.gen_range(0..5usize))
                .map(|_| (random_string(rng), random_tree(rng, depth - 1)))
                .collect::<Vec<_>>(),
        ),
    }
}

#[test]
fn random_trees_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x1503_C0DE);
    for case in 0..fuzz_cases() * 8 {
        let doc = random_tree(&mut rng, 5);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}: {text}"));
        assert_eq!(back, doc, "case {case}: parse(write(x)) == x");
        assert_eq!(back.to_string(), text, "case {case}: write is a fixpoint");
    }
}

/// `Json::parse`'s verdict on one input: `ok` and the canonical text
/// of the tree, or `err`, the byte offset and the message.
fn verdict(text: &str) -> String {
    match Json::parse(text) {
        Ok(doc) => format!("ok {doc}"),
        Err(e) => format!("err {} {}", e.pos, e.msg),
    }
}

/// Hand-written inputs at the parser's edges: escapes, numbers, depth,
/// trailing input, repeated keys and malformed containers.
fn parser_edge_inputs() -> Vec<String> {
    let mut cases: Vec<String> = [
        // Escapes: good, bad and lone surrogates.
        r#""\n\t\r\b\f\/\\\"""#,
        r#""Aé日""#,
        r#""😀""#,
        r#""𝄞""#,
        r#""\ud83d""#,
        r#""\ude00""#,
        r#""\ude00\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83dA""#,
        r#""\ud83d\n""#,
        r#""\ud83d\u""#,
        r#""\ud83d😀""#,
        r#""\u""#,
        r#""\u12""#,
        r#""\u+123""#,
        r#""\u12é4""#,
        r#""\uZZZZ""#,
        r#""\x""#,
        r#""\"#,
        r#""abc"#,
        "\"raw\u{1}control\"",
        "\"tab\there\"",
        r#""ünï😀""#,
        // Numbers.
        "0",
        "-0",
        "-0.0",
        "0.0",
        "01",
        "-01",
        "00",
        "-",
        "--1",
        "+1",
        "1.",
        "2.e5",
        ".5",
        "1e3",
        "1E-3",
        "1e+2",
        "1e",
        "1e+",
        "-1.5e300",
        "1e400",
        "-1e400",
        "1.0e-400",
        "5e-324",
        "0x10",
        "1_000",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "18446744073709551616",
        "123456789012345678901234567890",
        "[1,-2,3.5,-0,4e1]",
        // Literals and trailing input.
        "true",
        "false",
        "null",
        "tru",
        "nul",
        "falsey",
        "nullx",
        "{} x",
        "1 2",
        "[1] ]",
        " \t\n\r true \r\n\t ",
        "",
        "   ",
        // Containers.
        "[]",
        "{}",
        "[ ]",
        "{ }",
        "[1,]",
        "[,1]",
        "[1 2]",
        "{\"a\":1,}",
        "{,}",
        "{\"a\" 1}",
        "{\"a\":}",
        "{1:2}",
        "{\"a\":1",
        "[1,2",
        " { \"a\" : [ 1 , 2 ] , \"b\" : null } ",
        // Repeated keys: the last value wins.
        r#"{"a":1,"a":2}"#,
        r#"{"a":1,"b":{"x":[],"x":2},"a":3}"#,
        r#"{"b":1,"a":2,"b":3}"#,
        r#"{"z":1,"y":2,"x":3,"y":4}"#,
    ]
    .map(String::from)
    .to_vec();
    // The depth bound, at and past it, for arrays, objects and a mix.
    for n in [127, 128, 129] {
        cases.push(format!("{}0{}", "[".repeat(n), "]".repeat(n)));
        cases.push(format!("{}0{}", "{\"k\":".repeat(n), "}".repeat(n)));
        let (open, close): (String, String) = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    ("[", "]")
                } else {
                    ("{\"k\":", "}")
                }
            })
            .fold((String::new(), String::new()), |(o, c), (a, b)| {
                (o + a, b.to_string() + &c)
            });
        cases.push(format!("{open}0{close}"));
    }
    cases.push("[".repeat(300));
    cases
}

/// Byte offsets where `text` may be cut and stay UTF-8.
fn char_cuts(text: &str) -> Vec<usize> {
    (0..text.len())
        .filter(|&i| text.is_char_boundary(i))
        .collect()
}

/// What `Json::parse` answers, pinned before any change to it: every
/// document of `json_codec.txt` cut short at seeded points and with
/// seeded bytes overwritten, plus the hand cases of
/// `parser_edge_inputs`. One line per input: its name, then `ok` and
/// the canonical text of the tree, or `err`, the byte offset and the
/// message. A parser rewrite must reproduce the file byte for byte.
#[test]
fn parse_verdicts_match_the_golden() {
    const FLIP_TO: &[u8] = b"\"\\{}[],:0-.eE+ utnx9";
    let golden = std::fs::read_to_string(common::golden_path("json_codec.txt")).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5EED_0D0C);
    let mut got = String::new();
    for line in golden.lines() {
        let (name, text) = line.split_once('\t').expect("name<TAB>json");
        let cuts = char_cuts(text);
        for _ in 0..6 {
            let at = cuts[rng.gen_range(0..cuts.len())];
            got.push_str(&format!("{name} cut {at}\t{}\n", verdict(&text[..at])));
        }
        // Overwrite one ASCII byte with another: the text stays UTF-8.
        let ascii: Vec<usize> = (0..text.len())
            .filter(|&i| text.as_bytes()[i].is_ascii())
            .collect();
        for _ in 0..10 {
            let at = ascii[rng.gen_range(0..ascii.len())];
            let to = FLIP_TO[rng.gen_range(0..FLIP_TO.len())];
            let mut bytes = text.as_bytes().to_vec();
            bytes[at] = to;
            let flipped = String::from_utf8(bytes).expect("an ASCII byte for an ASCII byte");
            let to = char::from(to);
            got.push_str(&format!("{name} flip {at} {to:?}\t{}\n", verdict(&flipped)));
        }
    }
    for (n, input) in parser_edge_inputs().iter().enumerate() {
        let shown = if input.len() > 40 {
            format!("{} bytes", input.len())
        } else {
            format!("{input:?}")
        };
        got.push_str(&format!("edge {n} {shown}\t{}\n", verdict(input)));
    }
    assert_golden(&got, "json_verdicts.txt");
}
