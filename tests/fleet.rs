//! End-to-end lockdown of the fleet replication plane: a follower
//! daemon that pulls its warm state from a peer must serve its *first*
//! request with zero live translation work and a stripped report
//! bit-identical to a sequential cold run — the paper's
//! train-once-amortize-forever economics extended across machines.
//! Drain write-back must re-seal a grown partition to the same
//! byte-level fixpoint `pdbt compile` produces, and pushed artifacts
//! must obey the generation order.

mod common;

use common::{mcf_request, oracle_run, spawn_server, stripped, T};
use pdbt::artifact::{open_salvage, seal, warm_state};
use pdbt::fleet::artifact_file_name;
use pdbt::obs::json::Json;
use pdbt::runtime::{Engine, EngineConfig};
use pdbt::workloads::{build, Benchmark, Scale};
use pdbt_serve::{ping, push_artifact, shutdown, submit, ServeConfig};
use std::sync::Arc;
use std::time::Duration;

/// On top of the stripped report these suites ignore `pool`: the
/// work-stealing schedule shifts when warm tasks complete instantly.
/// Everything else must be bit-identical between a replicated warm
/// session and a cold run.
const POOL: &[&str] = &["pool"];

fn fleet_field(pong: &Json, name: &str) -> u64 {
    pong.get("fleet")
        .and_then(|f| f.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("fleet.{name} missing in {pong}"))
}

fn server_field(pong: &Json, name: &str) -> u64 {
    pong.get("server")
        .and_then(|s| s.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("server.{name} missing in {pong}"))
}

/// The capstone: warm a leader with one run, boot a follower with
/// `--peer leader`, and lock down that the follower's *first* request
/// does zero live translation and reports bit-identically to a
/// sequential cold run.
#[test]
fn follower_first_request_is_translate_free_and_bit_identical() {
    let oracle = oracle_run();
    let oracle_json = oracle.to_json();
    let blocks = oracle.metrics.blocks_translated;
    assert!(blocks > 0, "vacuous oracle");

    let (leader, leader_h) = spawn_server(ServeConfig {
        jobs: 2,
        ..ServeConfig::default()
    });
    let resp = submit(leader, &mcf_request(1), T).expect("leader warm-up");
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed")
    );

    // `bind` runs the boot pull before returning, so the follower is
    // warm before it accepts its first connection.
    let (follower, follower_h) = spawn_server(ServeConfig {
        jobs: 2,
        peers: vec![leader.to_string()],
        ..ServeConfig::default()
    });
    let pong = ping(follower, T).expect("follower ping");
    assert_eq!(pong.get("images").and_then(Json::as_u64), Some(1));
    assert_eq!(fleet_field(&pong, "pulled"), 1);
    assert_eq!(fleet_field(&pong, "adopted"), 1);
    assert_eq!(fleet_field(&pong, "rejected"), 0);
    assert!(fleet_field(&pong, "bytes") > 0);

    let first = submit(follower, &mcf_request(2), T).expect("follower first request");
    assert_eq!(
        first.get("outcome").and_then(Json::as_str),
        Some("completed")
    );
    assert_eq!(
        stripped(first.get("report").expect("report"), POOL),
        stripped(&oracle_json, POOL),
        "the follower's first request diverged from the sequential cold oracle"
    );

    // Zero live translation on the follower: every block came over the
    // wire, every probe was a warm hit.
    let pong = ping(follower, T).expect("follower ping");
    assert_eq!(server_field(&pong, "sessions"), 1);
    assert_eq!(server_field(&pong, "translate_calls"), 0);
    assert_eq!(server_field(&pong, "inserted"), 0);
    assert_eq!(server_field(&pong, "hits"), blocks);
    assert_eq!(server_field(&pong, "reply_errors"), 0);

    // The leader counted the serve side of the transfer.
    let pong = ping(leader, T).expect("leader ping");
    assert_eq!(fleet_field(&pong, "pushed"), 1);

    shutdown(follower, T).expect("follower shutdown");
    shutdown(leader, T).expect("leader shutdown");
    assert_eq!(follower_h.join().unwrap().panicked, 0);
    assert_eq!(leader_h.join().unwrap().panicked, 0);
}

/// Drain write-back: a partition grown live (no artifact on disk) is
/// sealed to `--artifact-dir` as generation 0, the file is a byte
/// fixpoint under `seal(open(…))`, and warm-booting it reproduces the
/// cold run exactly — the write-back path is `pdbt compile` by other
/// means.
#[test]
fn drain_write_back_seals_grown_partitions_to_a_fixpoint() {
    let dir = std::env::temp_dir().join(format!("pdbt-fleet-wb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 1,
        artifact_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let resp = submit(addr, &mcf_request(1), T).expect("submit");
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed")
    );
    shutdown(addr, T).expect("shutdown");
    assert_eq!(handle.join().unwrap().panicked, 0);

    let w = build(Benchmark::Mcf, Scale::tiny());
    let fp = w.pair.guest.program.fingerprint();
    let path = dir.join(artifact_file_name(fp, 0));
    let bytes = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("write-back artifact {} missing: {e}", path.display()));

    // Byte fixpoint: the written file re-seals to itself.
    let opened = open_salvage(&bytes).expect("write-back artifact opens");
    assert!(opened.quarantined.is_empty(), "write-back sealed damage");
    assert_eq!(opened.artifact.fingerprint(), fp);
    assert_eq!(
        seal(&opened.artifact),
        bytes,
        "write-back artifact is not a seal fixpoint"
    );

    // And it is complete: a warm boot off it does zero translation and
    // matches a cold run bit-for-bit.
    let cold = oracle_run();
    let shared = Arc::new(warm_state(&opened, None, 8, 1));
    let warm = Engine::with_shared(shared, EngineConfig::default())
        .run(&w.pair.guest.program, &w.setup())
        .expect("warm run");
    assert_eq!(warm.server.translate_calls, 0);
    assert_eq!(
        stripped(&warm.to_json(), POOL),
        stripped(&cold.to_json(), POOL)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// ART_PUSH obeys the generation order: a fresh offer is adopted (and
/// persisted when an artifact dir is configured), a stale or equal
/// re-offer is refused and counted, and the adopted partition serves
/// its first request translate-free.
#[test]
fn pushed_artifacts_respect_generation_order_and_serve_warm() {
    let w = build(Benchmark::Mcf, Scale::tiny());
    let artifact = pdbt::artifact::compile(
        &w.pair.guest.program,
        None,
        &w.setup(),
        EngineConfig::default(),
        "mcf/tiny",
    )
    .expect("compile");
    let bytes = seal(&artifact);
    let fp = artifact.fingerprint();

    let dir = std::env::temp_dir().join(format!("pdbt-fleet-push-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 1,
        artifact_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });

    // Fresh offer at generation 5: adopted and persisted.
    let verdict = push_artifact(addr, fp, 5, "mcf/tiny", &bytes, T).expect("push");
    assert_eq!(verdict.get("adopted"), Some(&Json::from(true)), "{verdict}");
    assert_eq!(verdict.get("generation").and_then(Json::as_u64), Some(5));
    assert!(
        dir.join(artifact_file_name(fp, 5)).exists(),
        "adopted artifact was not persisted"
    );

    // A stale offer (lower generation) is refused…
    let verdict = push_artifact(addr, fp, 3, "mcf/tiny", &bytes, T).expect("stale push");
    assert_eq!(
        verdict.get("adopted"),
        Some(&Json::from(false)),
        "{verdict}"
    );
    assert_eq!(verdict.get("generation").and_then(Json::as_u64), Some(5));

    // …and so is an equal one (same generation, same section CRCs).
    let verdict = push_artifact(addr, fp, 5, "mcf/tiny", &bytes, T).expect("equal push");
    assert_eq!(
        verdict.get("adopted"),
        Some(&Json::from(false)),
        "{verdict}"
    );

    let pong = ping(addr, T).expect("ping");
    assert_eq!(fleet_field(&pong, "adopted"), 1);
    assert_eq!(fleet_field(&pong, "rejected"), 2);

    // The pushed partition answers its first request translate-free.
    let resp = submit(addr, &mcf_request(1), T).expect("submit");
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed")
    );
    let pong = ping(addr, T).expect("ping");
    assert_eq!(server_field(&pong, "translate_calls"), 0);
    assert_eq!(server_field(&pong, "inserted"), 0);
    assert_eq!(server_field(&pong, "reply_errors"), 0);

    shutdown(addr, T).expect("shutdown");
    assert_eq!(handle.join().unwrap().panicked, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The refresh tick: a follower started against an *empty* leader
/// picks up a partition that appears later, without restarting.
#[test]
fn refresh_tick_picks_up_partitions_that_appear_later() {
    let (leader, leader_h) = spawn_server(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
    let (follower, follower_h) = spawn_server(ServeConfig {
        jobs: 1,
        peers: vec![leader.to_string()],
        replicate_interval: Some(Duration::from_millis(100)),
        ..ServeConfig::default()
    });

    // Nothing to pull at boot: the leader is empty.
    let pong = ping(follower, T).expect("follower ping");
    assert_eq!(pong.get("images").and_then(Json::as_u64), Some(0));

    // Warm the leader *after* the follower booted.
    let resp = submit(leader, &mcf_request(1), T).expect("leader warm-up");
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed")
    );

    // The jittered tick (50–150 ms at this interval) must replicate it.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let pong = ping(follower, T).expect("follower ping");
        if pong.get("images").and_then(Json::as_u64) == Some(1) {
            assert!(fleet_field(&pong, "pulled") >= 1);
            assert!(fleet_field(&pong, "adopted") >= 1);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "refresh tick never replicated the leader's partition"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    shutdown(follower, T).expect("follower shutdown");
    shutdown(leader, T).expect("leader shutdown");
    assert_eq!(follower_h.join().unwrap().panicked, 0);
    assert_eq!(leader_h.join().unwrap().panicked, 0);
}

/// The transfer envelope at a live server: an offer whose bytes fail
/// their declared CRC is refused and counted before the trust boundary
/// sees it, and nothing is adopted.
#[test]
fn a_push_that_fails_its_crc_is_rejected_and_counted() {
    use pdbt_serve::proto::{op, read_frame, write_frame};
    let (addr, handle) = spawn_server(ServeConfig::default());
    let header =
        br#"{"fingerprint":"00000000000000aa","generation":1,"bytes":9,"chunks":1,"crc32":0}"#;
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, op::ART_PUSH, header).unwrap();
    write_frame(&mut stream, op::ART_DATA, b"nine long").unwrap();
    let reply = read_frame(&mut stream).expect("verdict");
    assert_eq!(reply.opcode, op::ERROR, "{:?}", reply.payload_str());

    let pong = ping(addr, T).expect("ping");
    assert_eq!(fleet_field(&pong, "rejected"), 1);
    assert_eq!(fleet_field(&pong, "adopted"), 0);
    assert_eq!(pong.get("images").and_then(Json::as_u64), Some(0));

    shutdown(addr, T).expect("shutdown");
    assert_eq!(handle.join().unwrap().panicked, 0);
}
