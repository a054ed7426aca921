//! End-to-end lockdown of the `pdbt-serve` daemon over loopback TCP:
//! concurrent sessions sharing one warm code cache must be
//! *observationally indistinguishable* from sequential cold
//! single-engine runs — same output, same stripped report, byte for
//! byte — while the server-lifetime counters prove the sharing
//! actually happened.

mod common;

use common::{
    assert_schema, family_paths, golden_path, mcf_request, oracle_run, schema_paths, spawn_server,
    stripped, T,
};
use pdbt::obs::json::Json;
use pdbt::obs::{FleetSnapshot, ServerSnapshot};
use pdbt::runtime::{Engine, EngineConfig};
use pdbt::workloads::{build, Benchmark, Scale};
use pdbt_serve::{ping, shutdown, stats, submit, ServeConfig};
use std::collections::BTreeSet;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A STATS snapshot taken once the daemon has folded `served` requests
/// into its telemetry plane. A worker records a request (and leaves
/// `sessions.active`) *after* writing the reply, so a poll racing the
/// last reply can still see it in flight.
fn settled_stats(addr: SocketAddr, served: u64) -> Json {
    (0..2000)
        .find_map(|_| {
            let snap = stats(addr, T).expect("STATS");
            let at = |section: &str, key: &str| snap.get(section)?.get(key).cloned();
            let recorded = at("latency", "request_ns")?.get("count")?.as_u64();
            let active = at("sessions", "active")?.as_u64();
            if (recorded, active) == (Some(served), Some(0)) {
                return Some(snap);
            }
            std::thread::sleep(Duration::from_millis(5));
            None
        })
        .expect("the daemon settles")
}

fn report_of(resp: &Json) -> &Json {
    resp.get("report").expect("response carries a report")
}

#[test]
fn eight_concurrent_sessions_are_bit_identical_to_sequential_runs() {
    let oracle = oracle_run();
    let oracle_json = oracle.to_json();
    let blocks = oracle.metrics.blocks_translated;
    assert!(blocks > 0, "vacuous oracle");

    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 8,
        ..ServeConfig::default()
    });
    let responses: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8u64)
            .map(|i| s.spawn(move || submit(addr, &mcf_request(i), T).expect("submit")))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for resp in &responses {
        assert_eq!(
            resp.get("outcome").and_then(Json::as_str),
            Some("completed"),
            "session did not complete: {resp}"
        );
        assert_eq!(
            stripped(report_of(resp)),
            stripped(&oracle_json),
            "a warm concurrent session's report diverged from the cold oracle"
        );
    }

    // The server-lifetime counters equal the sequential sum: each of
    // the 8 sessions probed each block once; blocks entered the shared
    // cache exactly once; everything else was a warm hit.
    let pong = ping(addr, T).expect("ping");
    let srv = pong.get("server").expect("server section");
    let field = |name: &str| srv.get(name).and_then(Json::as_u64).expect(name);
    assert_eq!(field("sessions"), 8);
    assert_eq!(field("inserted"), blocks);
    assert_eq!(field("probes"), 8 * blocks);
    assert_eq!(field("hits"), 7 * blocks);
    // Every reply reached its client: a dropped write would have been
    // counted, not silently discarded.
    assert_eq!(field("reply_errors"), 0);

    // A later session on the now-warm partition translates nothing at
    // all (insert races can only happen among the first arrivals).
    let calls_before = field("translate_calls");
    assert!(calls_before >= blocks, "cold sessions translated nothing");
    let warm = submit(addr, &mcf_request(8), T).expect("warm submit");
    assert_eq!(stripped(report_of(&warm)), stripped(&oracle_json));
    let pong = ping(addr, T).expect("ping");
    let calls_after = pong
        .get("server")
        .and_then(|s| s.get("translate_calls"))
        .and_then(Json::as_u64);
    assert_eq!(calls_after, Some(calls_before), "a warm session translated");

    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!(summary.requests, 9);
    assert_eq!(summary.panicked, 0);
}

/// The wire side of the schema pin: the key sets of the PING and STATS
/// payloads of a daemon that has served one request, as `ping.*` and
/// `stats.*` paths in `tests/golden/stats_schema.txt`. Operators' probes
/// and `pdbt submit --stats` key on these names; the `server`, `fleet`
/// and `partitions[]` sections are rendered from the counter tables,
/// so their required paths come from the same tables. The RESULT's
/// report has the top-level sections of a standalone one
/// (`report_schema.txt`), no shared-state section added.
#[test]
fn ping_and_stats_key_sets_match_golden() {
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let resp = submit(addr, &mcf_request(1), T).expect("submit");
    let mut paths = BTreeSet::new();
    schema_paths(&ping(addr, T).expect("ping"), "ping", &mut paths);
    let snap = settled_stats(addr, 1);
    schema_paths(&snap, "stats", &mut paths);
    shutdown(addr, T).expect("shutdown");
    handle.join().unwrap();

    let without = |dropped: &[&str]| -> Vec<&str> {
        let kept = ServerSnapshot::FIELDS.iter().copied();
        kept.filter(|f| !dropped.contains(f)).collect()
    };
    let required = [
        family_paths("ping.fleet", FleetSnapshot::FIELDS),
        family_paths("stats.fleet", FleetSnapshot::FIELDS),
        family_paths("ping.server", &without(&["compiled_blocks"])),
        family_paths("stats.server", ServerSnapshot::FIELDS),
        family_paths("stats.partitions[]", &without(&["translate_calls"])),
    ]
    .concat();
    assert_schema(paths, &required, "stats_schema.txt");

    let Json::Obj(report) = report_of(&resp) else {
        panic!("the report is not an object")
    };
    let golden = std::fs::read_to_string(golden_path("report_schema.txt")).unwrap();
    let standalone: BTreeSet<&str> = golden
        .lines()
        .map(|row| row.split(['.', '[']).next().unwrap())
        .collect();
    assert!(report.keys().eq(standalone), "{:?}", report.keys());
}

#[test]
fn stats_polls_stay_monotone_and_sum_to_the_drain_summary() {
    let flight_path = std::env::temp_dir().join(format!("pdbt_flight_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&flight_path);
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 4,
        flight_path: Some(flight_path.clone()),
        ..ServeConfig::default()
    });

    // STATS answers inline from the accept loop, so polls succeed even
    // while every session worker is busy — and the snapshot sequence a
    // single poller observes is strictly monotone.
    let polled = std::thread::scope(|s| {
        let submits: Vec<_> = (0..8u64)
            .map(|i| s.spawn(move || submit(addr, &mcf_request(i), T).expect("submit")))
            .collect();
        let mut last_seq = 0u64;
        let mut polls = 0u64;
        loop {
            let snap = stats(addr, T).expect("mid-flight STATS");
            let seq = snap.get("stats_seq").and_then(Json::as_u64).expect("seq");
            assert!(
                seq > last_seq,
                "stats_seq regressed: {seq} after {last_seq}"
            );
            last_seq = seq;
            polls += 1;
            if submits.iter().all(|h| h.is_finished()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for h in submits {
            let resp = h.join().expect("client thread");
            assert_eq!(
                resp.get("outcome").and_then(Json::as_str),
                Some("completed")
            );
        }
        polls
    });
    assert!(polled >= 1, "no STATS poll overlapped the in-flight load");

    // Quiescent now: the final snapshot's counters must sum exactly to
    // what the 8 sessions did, across every view of the same traffic.
    let snap = settled_stats(addr, 8);
    let u = |path: &[&str]| {
        let mut v = &snap;
        for k in path {
            v = v.get(k).unwrap_or_else(|| panic!("missing {path:?}"));
        }
        v.as_u64().unwrap_or_else(|| panic!("non-u64 {path:?}"))
    };
    assert_eq!(u(&["sessions", "served"]), 8);
    assert_eq!(u(&["sessions", "active"]), 0);
    assert_eq!(u(&["sessions", "reply_errors"]), 0);
    assert_eq!(u(&["server", "sessions"]), 8);
    assert_eq!(u(&["latency", "request_ns", "count"]), 8);
    assert_eq!(u(&["latency", "reply_bytes", "count"]), 8);
    let parts = snap
        .get("partitions")
        .and_then(Json::as_arr)
        .expect("parts");
    let part_sessions: u64 = parts
        .iter()
        .map(|p| p.get("sessions").and_then(Json::as_u64).unwrap())
        .sum();
    assert_eq!(part_sessions, 8, "partition sessions must sum to served");
    for p in parts {
        let lat = p.get("latency").expect("partition latency");
        let q = |k: &str| lat.get(k).and_then(Json::as_u64).expect(k);
        assert!(q("p50") <= q("p95") && q("p95") <= q("p99"));
        // Without the obs feature `now_ns()` is a compiled-out zero, so
        // real latencies only exist in default builds.
        if cfg!(feature = "obs") {
            assert!(q("p99") > 0, "quantiles must be nonzero after real runs");
        }
    }
    let flight = snap.get("flight").and_then(Json::as_arr).expect("flight");
    assert_eq!(flight.len(), 8, "every request lands in the flight tail");
    let seqs: Vec<u64> = flight
        .iter()
        .map(|e| e.get("seq").and_then(Json::as_u64).unwrap())
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "flight sorted by seq");

    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!(summary.requests, 8);
    assert_eq!(summary.panicked, 0);

    // Drain dumped the final snapshot to the flight file.
    let dumped = std::fs::read_to_string(&flight_path).expect("flight.json written on drain");
    let doc = Json::parse(&dumped).expect("flight.json parses");
    assert_eq!(
        doc.get("flight").and_then(Json::as_arr).map(<[Json]>::len),
        Some(8)
    );
    let _ = std::fs::remove_file(&flight_path);
}

#[test]
fn fault_armed_and_deadline_requests_leave_neighbours_untouched() {
    let oracle = oracle_run();
    let oracle_json = oracle.to_json();

    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 4,
        ..ServeConfig::default()
    });
    let (clean_a, clean_b, armed, expired) = std::thread::scope(|s| {
        let clean_a = s.spawn(move || submit(addr, &mcf_request(1), T).expect("clean a"));
        let clean_b = s.spawn(move || submit(addr, &mcf_request(2), T).expect("clean b"));
        let armed = s.spawn(move || {
            let mut req = mcf_request(3);
            if let Json::Obj(m) = &mut req {
                m.insert("faults".into(), Json::str("seed=7,rate=0.3,sites=cache"));
            }
            submit(addr, &req, T).expect("armed")
        });
        let expired = s.spawn(move || {
            let req = Json::obj([
                ("id", Json::from(4u64)),
                ("program", Json::str("mov r0, #1\nb .+0\nsvc #0\n")),
                ("deadline_ms", Json::from(0u64)),
            ]);
            submit(addr, &req, T).expect("expired")
        });
        (
            clean_a.join().unwrap(),
            clean_b.join().unwrap(),
            armed.join().unwrap(),
            expired.join().unwrap(),
        )
    });

    // The clean sessions must be untouched by the armed neighbour: no
    // injections, reports bit-identical to the cold oracle.
    for resp in [&clean_a, &clean_b] {
        assert_eq!(
            resp.get("outcome").and_then(Json::as_str),
            Some("completed")
        );
        assert_eq!(
            stripped(report_of(resp)),
            stripped(&oracle_json),
            "a clean session was perturbed by a fault-armed neighbour"
        );
    }

    // The armed session degrades gracefully: same guest output, run to
    // completion. (With the `faults` feature compiled out the plan is
    // inert and the report matches the oracle exactly.)
    assert_eq!(
        armed.get("outcome").and_then(Json::as_str),
        Some("completed")
    );
    assert_eq!(
        report_of(&armed).get("output"),
        oracle_json.get("output"),
        "fault-armed session corrupted guest output"
    );

    // The expired-deadline session reports `deadline`, with its partial
    // report delivered rather than an error.
    assert_eq!(
        expired.get("outcome").and_then(Json::as_str),
        Some("deadline")
    );
    assert!(report_of(&expired).get("metrics").is_some());

    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!(summary.requests, 4);
    assert_eq!(summary.panicked, 0);
}

/// A client that connects and says nothing, or sends its first frame a
/// byte at a time, costs the accept thread its first-frame bound, not
/// the 30 s socket timeout: a ping queued behind it answers promptly,
/// the silent socket is told why it was dropped, and the drain is
/// clean.
#[test]
fn a_silent_client_does_not_stall_the_control_lane() {
    // A header announcing a 1 KiB payload, trickled one byte every
    // 400 ms for up to 6 s: each byte arrives inside a per-read timeout.
    let mut frame = Vec::new();
    pdbt_serve::proto::write_frame(&mut frame, pdbt_serve::proto::op::SUBMIT, &[b' '; 1024])
        .unwrap();
    for trickle in [false, true] {
        let (addr, handle) = spawn_server(ServeConfig::default());
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            if trickle {
                let mut w = client.try_clone().unwrap();
                let (frame, stop) = (&frame, &stop);
                s.spawn(move || {
                    let t0 = Instant::now();
                    for b in frame {
                        let done =
                            stop.load(Ordering::Relaxed) || t0.elapsed() > Duration::from_secs(6);
                        if done || w.write_all(&[*b]).is_err() {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(400));
                    }
                });
            }
            let t0 = Instant::now();
            ping(addr, T).expect("ping behind a stalled client");
            let waited = t0.elapsed();
            stop.store(true, Ordering::Relaxed);
            assert!(
                waited < Duration::from_millis(2500),
                "trickle {trickle}: ping waited {waited:?}"
            );
        });

        // A trickled socket the server closed on unread bytes is reset,
        // which can discard its answer; the silent one must get it.
        if !trickle {
            client.set_read_timeout(Some(T)).unwrap();
            let frame = pdbt_serve::proto::read_frame(&mut client).expect("the silent answer");
            assert_eq!(frame.opcode, pdbt_serve::proto::op::ERROR);
            let why = frame.payload_str().unwrap();
            assert!(why.contains("bad frame:"), "{why}");
        }

        shutdown(addr, T).expect("shutdown");
        let summary = handle.join().unwrap();
        assert_eq!((summary.requests, summary.panicked), (0, 0));
    }
}

/// The accept thread parses every SUBMIT payload itself, so a payload
/// nested past the parser's depth bound (`pdbt_obs::json::MAX_DEPTH`)
/// must come back as an ERROR frame: unbounded recursion would overflow
/// the accept thread's stack, an abort that takes the daemon down.
#[test]
fn a_deeply_nested_submit_is_an_error_not_a_crash() {
    use pdbt_serve::proto::{op, read_frame, write_frame};
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut client = std::net::TcpStream::connect(addr).expect("connect");
    client.set_read_timeout(Some(T)).unwrap();
    write_frame(&mut client, op::SUBMIT, &vec![b'['; 1 << 20]).unwrap();
    let frame = read_frame(&mut client).expect("an answer");
    assert_eq!(frame.opcode, op::ERROR);
    let why = frame.payload_str().unwrap();
    assert!(why.contains("not valid JSON"), "{why}");
    ping(addr, T).expect("the daemon still answers");
    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!((summary.requests, summary.panicked), (1, 0));
}

/// One image, two translate configs, one daemon: SUBMITs alternating
/// between the default and `no_delegation` must each report exactly
/// what a cold run of their own config reports. The shared code cache
/// and trace table assume one config per image, so a request of the
/// other config must not read from them, nor publish into them.
#[test]
fn alternating_translate_configs_on_one_image_match_cold_runs() {
    let rules = pdbt::workloads::learn_suite(&pdbt::workloads::suite(Scale::tiny()), None);
    let w = build(Benchmark::Mcf, Scale::tiny());
    let cold = |flag_delegation: bool| {
        let mut cfg = EngineConfig::default();
        cfg.translate.flag_delegation = flag_delegation;
        let report = Engine::new(Some(rules.clone()), cfg)
            .run(&w.pair.guest.program, &w.setup())
            .expect("cold run");
        stripped(&report.to_json())
    };
    let (with, without) = (cold(true), cold(false));
    assert_ne!(with, without, "the two configs must be told apart");

    let (addr, handle) = spawn_server(ServeConfig {
        rules: Some(rules.clone()),
        jobs: 1,
        ..ServeConfig::default()
    });
    for i in 0..4u64 {
        let no_delegation = i % 2 == 1;
        let mut req = mcf_request(i);
        if let Json::Obj(m) = &mut req {
            m.insert("no_delegation".into(), Json::from(no_delegation));
        }
        let resp = submit(addr, &req, T).expect("submit");
        let want = if no_delegation { &without } else { &with };
        assert_eq!(
            &stripped(report_of(&resp)),
            want,
            "request {i} (no_delegation = {no_delegation}) diverged from its cold run"
        );
    }
    // Every request's summary is in STATS, but only the default-config
    // sessions attached to the image's partition.
    let snap = settled_stats(addr, 4);
    let srv = snap.get("server").expect("server section");
    assert_eq!(srv.get("sessions").and_then(Json::as_u64), Some(2));
    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!((summary.requests, summary.panicked), (4, 0));
}

/// A RESULT past the frame cap (`proto::MAX_PAYLOAD`, 16 MiB): this
/// guest prints `4294967295` every two instructions, ≈ 22 MB of report.
/// The client is told the size in an ERROR frame, the daemon counts a
/// reply error, and the session neither panics its worker nor stays
/// `active`.
#[test]
fn an_oversized_result_is_an_error_frame_not_a_panic() {
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
    let req = Json::obj([
        ("id", Json::from(9u64)),
        ("program", Json::str("mvn r0, #0\nsvc #1\nb .-4\n")),
        ("max_guest", Json::from(4_000_000u64)),
    ]);
    match submit(addr, &req, T) {
        Err(pdbt_serve::ClientError::Remote(why)) => {
            assert!(why.contains("exceeds the 16777216-byte cap"), "{why}");
        }
        other => panic!("want an ERROR frame naming the size, got {other:?}"),
    }
    let snap = settled_stats(addr, 1);
    let sessions = |key: &str| snap.get("sessions")?.get(key)?.as_u64();
    assert_eq!(sessions("active"), Some(0));
    assert_eq!(sessions("panicked"), Some(0));
    assert_eq!(sessions("reply_errors"), Some(1));
    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!((summary.requests, summary.panicked), (1, 0));
}

/// A small looping guest that prints the sum `k + (k − 1) + … + 1`:
/// each `k` is its own image.
fn sum_guest(k: u32) -> String {
    format!(
        "mov r0, #{k}\nmov r1, #0\nadd r1, r1, r0\nsubs r0, r0, #1\nbne .-8\nmov r0, r1\nsvc #1\nsvc #0\n"
    )
}

/// A STATS `sessions` counter.
fn sessions_field(snap: &Json, key: &str) -> u64 {
    snap.get("sessions")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats.sessions.{key}"))
}

/// Twenty SUBMITs from one thread ride one connection: the worker that
/// answered the first reads the other nineteen itself. Keeping changes
/// no report, and every SUBMIT is counted once, kept or not.
#[test]
fn one_thread_keeps_one_connection_for_twenty_submits() {
    let images: Vec<String> = [5, 9, 14].into_iter().map(sum_guest).collect();
    let cold: Vec<String> = images
        .iter()
        .map(|text| {
            let prog = pdbt::arm::Program::new(0x1000, pdbt::arm::parse_listing(text).unwrap());
            let setup = pdbt::runtime::RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
            let report = Engine::new(None, EngineConfig::default())
                .run(&prog, &setup)
                .expect("cold run");
            stripped(&report.to_json())
        })
        .collect();

    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    for i in 0..20u64 {
        let image = i as usize % images.len();
        let req = Json::obj([
            ("id", Json::from(i)),
            ("program", Json::str(&images[image])),
        ]);
        let resp = submit(addr, &req, T).expect("submit");
        assert_eq!(
            stripped(report_of(&resp)),
            cold[image],
            "request {i} diverged from its image's cold run"
        );
    }
    let snap = settled_stats(addr, 20);
    assert_eq!(sessions_field(&snap, "served"), 20);
    assert_eq!(sessions_field(&snap, "kept"), 19);
    assert_eq!(sessions_field(&snap, "reply_errors"), 0);
    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!((summary.requests, summary.panicked), (20, 0));
}

/// One worker must stay free for the queue, so a one-worker daemon
/// keeps no connection.
#[test]
fn a_single_worker_daemon_never_keeps() {
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
    for i in 0..3u64 {
        let req = Json::obj([("id", Json::from(i)), ("program", Json::str(sum_guest(4)))]);
        submit(addr, &req, T).expect("submit");
    }
    let snap = settled_stats(addr, 3);
    assert_eq!(sessions_field(&snap, "kept"), 0);
    assert_eq!(sessions_field(&snap, "held"), 0);
    shutdown(addr, T).expect("shutdown");
    assert_eq!(handle.join().unwrap().requests, 3);
}

/// A worker holding an idle connection would wait out its bound before
/// the queue went idle; the drain shuts the connection instead.
#[test]
fn an_idle_kept_connection_does_not_hold_up_the_drain() {
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let req = Json::obj([("program", Json::str(sum_guest(3)))]);
    submit(addr, &req, T).expect("submit");
    let snap = stats(addr, T).expect("STATS");
    assert_eq!(sessions_field(&snap, "held"), 1, "the connection is held");
    let t0 = Instant::now();
    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(500), "drain took {took:?}");
    assert_eq!((summary.requests, summary.panicked), (1, 0));
}

/// A raw client that opts in and then breaks the rules: a kept
/// connection carries only SUBMIT, and its next frame must arrive whole
/// within the first-frame bound. Either way the connection closes, and
/// the daemon serves the next client.
#[test]
fn a_kept_connection_closes_on_anything_but_a_timely_submit() {
    use pdbt_serve::proto::{flag, op, read_frame, write_flagged_frame, write_frame};
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let req = Json::obj([("program", Json::str(sum_guest(6)))]).to_string();
    let opted_in = || {
        let mut client = std::net::TcpStream::connect(addr).expect("connect");
        client.set_read_timeout(Some(T)).unwrap();
        write_flagged_frame(&mut client, op::SUBMIT, flag::KEEP, req.as_bytes()).unwrap();
        let frame = read_frame(&mut client).expect("RESULT");
        assert_eq!(frame.opcode, op::RESULT);
        assert!(frame.keep(), "the daemon keeps the connection");
        client
    };

    // A PING on it: ERROR, then EOF.
    let mut client = opted_in();
    write_frame(&mut client, op::PING, b"").unwrap();
    let frame = read_frame(&mut client).expect("an answer");
    assert_eq!(frame.opcode, op::ERROR);
    assert!(!frame.keep());
    assert!(frame.payload_str().unwrap().contains("only SUBMIT"));
    assert!(read_frame(&mut client).is_err(), "then EOF");

    // Half a frame: closed within the bound, not the socket timeout.
    let mut client = opted_in();
    let mut frame = Vec::new();
    write_frame(&mut frame, op::SUBMIT, req.as_bytes()).unwrap();
    let t0 = Instant::now();
    client.write_all(&frame[..frame.len() / 2]).unwrap();
    assert!(read_frame(&mut client).is_err(), "the daemon closes it");
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(2), "closed after {took:?}");

    // The daemon still serves a fresh SUBMIT.
    let resp = submit(addr, &Json::obj([("program", Json::str(sum_guest(6)))]), T);
    assert_eq!(
        resp.expect("fresh submit")
            .get("outcome")
            .and_then(Json::as_str),
        Some("completed")
    );
    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!((summary.requests, summary.panicked), (3, 0));
}

/// The client's kept connection outlives its daemon: a new daemon on
/// the same port must get the next SUBMIT exactly once, on a fresh
/// connection, never a resend.
#[test]
fn a_restarted_daemon_gets_each_request_once() {
    let req = Json::obj([("program", Json::str(sum_guest(7)))]);
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    submit(addr, &req, T).expect("submit to the first daemon");
    shutdown(addr, T).expect("shutdown");
    assert_eq!(handle.join().unwrap().requests, 1);

    let again = pdbt_serve::Server::bind(
        addr,
        ServeConfig {
            jobs: 2,
            ..ServeConfig::default()
        },
    )
    .expect("rebind the port");
    let handle = std::thread::spawn(move || again.serve().expect("serve"));
    let resp = submit(addr, &req, T).expect("submit to the new daemon");
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed")
    );
    shutdown(addr, T).expect("shutdown");
    assert_eq!(handle.join().unwrap().requests, 1, "the request was resent");
}

/// `pdbt loadgen` against a live daemon: the zipfian mix all answered,
/// sane client and server quantiles, several partitions, the flight
/// tail dumped on drain — and concurrent clients riding kept
/// connections.
#[test]
fn loadgen_against_a_live_daemon() {
    let flight_path =
        std::env::temp_dir().join(format!("pdbt_loadgen_flight_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&flight_path);
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 4,
        flight_path: Some(flight_path.clone()),
        ..ServeConfig::default()
    });
    let cfg = pdbt_serve::LoadgenConfig {
        addr,
        sessions: 4,
        requests: 64,
        hot: 3,
        tail: 13,
        seed: 7,
        ..pdbt_serve::LoadgenConfig::default()
    };
    let bench = pdbt_serve::loadgen::run(&cfg).expect("loadgen");
    assert_eq!((bench.ok, bench.failed), (64, 0));
    assert!(
        bench.p99_ns > 0 && bench.p50_ns <= bench.p99_ns,
        "client quantiles"
    );
    assert!(bench.sessions_per_sec > 0.0);
    assert!(0.0 < bench.warm_hit_ratio && bench.warm_hit_ratio <= 1.0);

    let snap = settled_stats(addr, 64);
    assert!(snap.get("stats_seq").and_then(Json::as_u64) >= Some(1));
    assert_eq!(sessions_field(&snap, "served"), 64);
    assert!(
        sessions_field(&snap, "kept") >= 1,
        "no client kept a connection"
    );
    let quantiles = |hist: &Json| {
        let q = |k: &str| hist.get(k).and_then(Json::as_u64).expect(k);
        (q("p50"), q("p95"), q("p99"))
    };
    let lat = snap
        .get("latency")
        .and_then(|l| l.get("request_ns"))
        .expect("latency");
    assert_eq!(lat.get("count").and_then(Json::as_u64), Some(64));
    let (p50, p95, p99) = quantiles(lat);
    assert!(p50 <= p95 && p95 <= p99, "quantile order");
    let parts = snap
        .get("partitions")
        .and_then(Json::as_arr)
        .expect("partitions");
    assert!(
        parts.len() >= 4,
        "the zipfian mix reached {} partitions",
        parts.len()
    );
    let sessions = |p: &Json| p.get("sessions").and_then(Json::as_u64).unwrap();
    assert_eq!(parts.iter().map(sessions).sum::<u64>(), 64);
    // Without the obs feature `now_ns()` is a compiled-out zero.
    if cfg!(feature = "obs") {
        assert!(p50 > 0 && p99 > 0, "server quantiles");
        for p in parts.iter().filter(|p| sessions(p) > 0) {
            assert!(quantiles(p.get("latency").expect("latency")).2 > 0);
        }
    }

    shutdown(addr, T).expect("shutdown");
    assert_eq!(handle.join().unwrap().panicked, 0);
    let dumped = std::fs::read_to_string(&flight_path).expect("flight dump written on drain");
    let doc = Json::parse(&dumped).expect("the flight dump parses");
    let tail = doc
        .get("flight")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    assert!(tail > 0, "drain dumped an empty flight tail");
    let _ = std::fs::remove_file(&flight_path);
}

/// The serving smoke through the `pdbt submit` binary: six clean
/// concurrent `mcf` sessions, one armed with a cache fault plan and one
/// loop past its deadline, each written out with `--report-json`. The
/// deadline exits non-zero with its partial report; the armed session
/// completes and injected; no clean session saw an injection.
#[cfg(feature = "faults")]
#[test]
fn submit_report_json_files_hold_each_outcome() {
    let dir = std::env::temp_dir().join(format!("pdbt_submit_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    std::fs::write(path("loop.s"), "mov r0, #1\nb .+0\nsvc #0\n").unwrap();
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 4,
        ..ServeConfig::default()
    });
    let addr = addr.to_string();
    let submit = |extra: &[&str], report: &str| {
        let report = path(report);
        let mut args = vec!["submit", "--addr", &addr, "--report-json", &report];
        args.extend_from_slice(extra);
        common::pdbt(&args)
    };
    let mcf = ["--workload", "mcf", "--scale", "tiny"];
    let armed = [&mcf[..], &["--faults", "seed=7,rate=0.3,sites=cache"]].concat();
    let loop_s = path("loop.s");
    let deadline = [loop_s.as_str(), "--deadline-ms", "200"];
    std::thread::scope(|s| {
        let runs: Vec<_> = (1..=6)
            .map(|i| (format!("r{i}.json"), &mcf[..]))
            .chain([("rf.json".to_string(), &armed[..])])
            .chain([("rd.json".to_string(), &deadline[..])])
            .map(|(report, extra)| s.spawn(move || (submit(extra, &report), report)))
            .collect();
        for run in runs {
            let (out, report) = run.join().unwrap();
            let deadline = report == "rd.json";
            assert_eq!(out.status.success(), !deadline, "{report}: {out:?}");
        }
    });

    let read = |name: &str| {
        let text = std::fs::read_to_string(path(name)).expect("report written");
        Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    fn outcome(doc: &Json) -> Option<&str> {
        doc.get("outcome")?.as_str()
    }
    let cache_injections = |doc: &Json| {
        doc.get("resilience")
            .and_then(|r| r.get("injected"))
            .and_then(|i| i.get("cache"))
            .and_then(Json::as_u64)
            .expect("resilience.injected.cache")
    };
    assert_eq!(outcome(&read("rd.json")), Some("deadline"));
    let armed = read("rf.json");
    assert_eq!(outcome(&armed), Some("completed"));
    assert!(cache_injections(&armed) > 0, "armed, not injected");
    for i in 1..=6 {
        let clean = read(&format!("r{i}.json"));
        assert_eq!(outcome(&clean), Some("completed"), "r{i}");
        assert_eq!(cache_injections(&clean), 0, "r{i} was perturbed");
    }

    shutdown(addr.as_str(), T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!((summary.requests, summary.panicked), (8, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A SUBMIT frame flagged `KEEP` for `sum_guest(k)`, under request id
/// `k`, appended to `wire`.
fn kept_submit(wire: &mut Vec<u8>, k: u32) {
    use pdbt_serve::proto::{flag, op, write_flagged_frame};
    let req = Json::obj([
        ("id", Json::from(u64::from(k))),
        ("program", Json::str(sum_guest(k))),
    ]);
    write_flagged_frame(wire, op::SUBMIT, flag::KEEP, req.to_string().as_bytes()).unwrap();
}

/// Reads one RESULT frame that keeps its connection and returns its
/// request id and printed value.
fn kept_result(client: &mut std::net::TcpStream) -> (u64, u64) {
    use pdbt_serve::proto::{op, read_frame};
    let frame = read_frame(client).expect("a RESULT");
    assert_eq!(frame.opcode, op::RESULT, "{:?}", frame.payload_str());
    assert!(frame.keep(), "the daemon keeps the connection");
    let doc = Json::parse(frame.payload_str().unwrap()).unwrap();
    let id = doc.get("id").and_then(Json::as_u64).expect("id");
    let printed = report_of(&doc)
        .get("output")
        .and_then(Json::as_arr)
        .and_then(|out| out.first())
        .and_then(Json::as_u64)
        .expect("one printed value");
    (id, printed)
}

/// SUBMITs written back to back in one `write` are each answered, in
/// order: the first pair opens the connection (the accept thread reads
/// the first frame, its worker the second), the second pair rides it
/// once kept. No read may take bytes of the next frame and lose them.
#[test]
fn pipelined_submits_are_each_answered_in_order() {
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let mut client = std::net::TcpStream::connect(addr).expect("connect");
    client.set_read_timeout(Some(T)).unwrap();
    for pair in [[3, 4], [5, 6]] {
        let mut wire = Vec::new();
        for k in pair {
            kept_submit(&mut wire, k);
        }
        client.write_all(&wire).unwrap();
        for k in pair {
            let sum = u64::from(k * (k + 1) / 2);
            assert_eq!(kept_result(&mut client), (u64::from(k), sum), "request {k}");
        }
    }
    drop(client);
    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!((summary.requests, summary.panicked), (4, 0));
}

/// A SUBMIT whose bytes arrive in several writes, all within
/// `FIRST_FRAME_TIMEOUT`, is served: as a connection's first frame and
/// as the next frame of a kept one.
#[test]
fn a_submit_split_across_writes_within_the_bound_is_served() {
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let mut client = std::net::TcpStream::connect(addr).expect("connect");
    client.set_read_timeout(Some(T)).unwrap();
    for k in [7, 8] {
        let mut wire = Vec::new();
        kept_submit(&mut wire, k);
        // Mid-header, then mid-payload, then the rest.
        let cuts = [0, 5, pdbt_serve::proto::HEADER_LEN + 9, wire.len()];
        for piece in cuts.windows(2) {
            client.write_all(&wire[piece[0]..piece[1]]).unwrap();
            client.flush().unwrap();
            std::thread::sleep(Duration::from_millis(150));
        }
        let sum = u64::from(k * (k + 1) / 2);
        assert_eq!(kept_result(&mut client), (u64::from(k), sum), "request {k}");
    }
    drop(client);
    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!((summary.requests, summary.panicked), (2, 0));
}

/// A SUBMIT whose payload stalls past `FIRST_FRAME_TIMEOUT` gets its
/// connection closed, not served: as a first frame (the accept thread
/// answers why) and on a kept connection (the worker closes it).
#[test]
fn a_submit_stalled_past_the_bound_closes_its_connection() {
    use pdbt_serve::proto::{op, read_frame, HEADER_LEN};
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let mut wire = Vec::new();
    kept_submit(&mut wire, 9);
    let stalled = &wire[..HEADER_LEN + 4];

    // As a first frame: an ERROR naming the bad frame, then EOF.
    let mut client = std::net::TcpStream::connect(addr).expect("connect");
    client.set_read_timeout(Some(T)).unwrap();
    let t0 = Instant::now();
    client.write_all(stalled).unwrap();
    let frame = read_frame(&mut client).expect("an answer");
    assert_eq!(frame.opcode, op::ERROR);
    assert!(frame.payload_str().unwrap().contains("bad frame"));
    assert!(read_frame(&mut client).is_err(), "then EOF");
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(3), "closed after {took:?}");

    // On a kept connection: closed without an answer.
    let mut client = std::net::TcpStream::connect(addr).expect("connect");
    client.set_read_timeout(Some(T)).unwrap();
    client.write_all(&wire).unwrap();
    assert_eq!(kept_result(&mut client), (9, 45));
    let t0 = Instant::now();
    client.write_all(stalled).unwrap();
    assert!(read_frame(&mut client).is_err(), "the daemon closes it");
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(3), "closed after {took:?}");

    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!((summary.requests, summary.panicked), (1, 0));
}

/// The socket timeout `submit` is given holds on a kept connection too:
/// after a call with a 60 s timeout, a call with a short one against a
/// daemon that reads the request and never answers times out on time.
/// The daemon here is a stand-in that keeps one connection and accepts
/// no other, so the second call provably rode the kept one.
#[test]
fn a_kept_connection_takes_each_calls_timeout() {
    use pdbt_serve::proto::{flag, op, read_frame, write_flagged_frame};
    use std::io::Read;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let stalled = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        conn.set_read_timeout(Some(T)).unwrap();
        let first = read_frame(&mut conn).expect("the first SUBMIT");
        assert!(first.opcode == op::SUBMIT && first.keep());
        let reply = br#"{"id":0,"outcome":"completed"}"#;
        write_flagged_frame(&mut conn, op::RESULT, flag::KEEP, reply).unwrap();
        let second = read_frame(&mut conn).expect("the second SUBMIT, on the kept connection");
        // Never answer; wait for the client to give up and close.
        let _ = conn.read(&mut [0u8; 1]);
        second.opcode
    });
    let req = Json::obj([("program", Json::str(sum_guest(2)))]);
    submit(addr, &req, Duration::from_secs(60)).expect("the first call");
    let t0 = Instant::now();
    let err = submit(addr, &req, Duration::from_millis(300)).expect_err("a stalled daemon");
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "timed out after {took:?}: {err}"
    );
    assert_eq!(stalled.join().unwrap(), pdbt_serve::proto::op::SUBMIT);
}
