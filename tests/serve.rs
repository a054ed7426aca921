//! End-to-end lockdown of the `pdbt-serve` daemon over loopback TCP:
//! concurrent sessions sharing one warm code cache must be
//! *observationally indistinguishable* from sequential cold
//! single-engine runs — same output, same stripped report, byte for
//! byte — while the server-lifetime counters prove the sharing
//! actually happened.

mod common;

use common::{
    assert_schema, family_paths, mcf_request, oracle_run, schema_paths, spawn_server, stripped, T,
};
use pdbt::obs::json::Json;
use pdbt::obs::{FleetSnapshot, ServerSnapshot};
use pdbt_serve::{ping, shutdown, stats, submit, ServeConfig};
use std::net::SocketAddr;
use std::time::Duration;

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
/// so their required paths come from the same tables.
#[test]
fn ping_and_stats_key_sets_match_golden() {
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    submit(addr, &mcf_request(1), T).expect("submit");
    let mut paths = std::collections::BTreeSet::new();
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

/// A client that connects and says nothing costs the accept thread its
/// first-frame bound, not the 30 s socket timeout: a ping queued behind
/// it answers promptly, the silent socket is told why it was dropped,
/// and the drain is clean.
#[test]
fn a_silent_client_does_not_stall_the_control_lane() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let mut silent = std::net::TcpStream::connect(addr).expect("connect");
    let t0 = std::time::Instant::now();
    ping(addr, T).expect("ping behind a silent client");
    let waited = t0.elapsed();
    assert!(waited < Duration::from_secs(5), "ping waited {waited:?}");

    silent.set_read_timeout(Some(T)).unwrap();
    let frame = pdbt_serve::proto::read_frame(&mut silent).expect("the silent socket's answer");
    assert_eq!(frame.opcode, pdbt_serve::proto::op::ERROR);
    let why = frame.payload_str().unwrap();
    assert!(why.contains("bad frame:"), "{why}");

    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!((summary.requests, summary.panicked), (0, 0));
}
