//! The server's unit tests (`#[cfg(test)] mod tests;` in `mod.rs`).

use super::partition::load_artifacts;
use super::replicate::adopt_artifact;
use super::*;
use crate::client;
use pdbt_fleet::artifact_file_name;
use pdbt_runtime::RunSetup;

/// One guest both unit tests run: prints 42, exits.
const GUEST: &str = "mov r0, #41\nadd r0, r0, #1\nsvc #1\nsvc #0\n";

fn spawn_server(cfg: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<ServeSummary>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));
    (addr, handle)
}

fn output_of(resp: &Json) -> Vec<u64> {
    resp.get("report")
        .and_then(|r| r.get("output"))
        .and_then(Json::as_arr)
        .expect("report.output")
        .iter()
        .filter_map(Json::as_u64)
        .collect()
}

#[test]
fn ping_submit_and_shutdown_roundtrip() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let t = Duration::from_secs(30);

    let pong = client::ping(addr, t).expect("ping");
    assert_eq!(pong.get("version").and_then(Json::as_u64), Some(1));

    let req = Json::obj([("id", Json::from(7u64)), ("program", Json::str(GUEST))]);
    let resp = client::submit(addr, &req, t).expect("submit");
    assert_eq!(resp.get("id").and_then(Json::as_u64), Some(7));
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed")
    );
    assert_eq!(output_of(&resp), [42]);

    client::shutdown(addr, t).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!(summary.requests, 1);
    assert_eq!(summary.panicked, 0);
}

#[test]
fn distinct_guest_images_never_share_translations() {
    // Two different programs, both loaded at 0x1000: the second
    // must not execute the first one's cached block (regression for
    // pc-keyed cache collisions across images).
    let (addr, handle) = spawn_server(ServeConfig::default());
    let t = Duration::from_secs(30);

    let a = Json::obj([("program", Json::str(GUEST))]);
    let b = Json::obj([(
        "program",
        Json::str("mov r0, #9\nmul r0, r0, r0\nsvc #1\nsvc #0\n"),
    )]);
    let ra = client::submit(addr, &a, t).expect("submit a");
    let rb = client::submit(addr, &b, t).expect("submit b");
    assert_eq!(output_of(&ra), [42]);
    assert_eq!(output_of(&rb), [81]);

    // Two partitions, no cross-image cache hits.
    let pong = client::ping(addr, t).expect("ping");
    assert_eq!(pong.get("images").and_then(Json::as_u64), Some(2));
    let server = pong.get("server").expect("server section");
    assert_eq!(server.get("hits").and_then(Json::as_u64), Some(0));

    // The same image again *does* share: one more probe, no insert.
    let ra2 = client::submit(addr, &a, t).expect("submit a again");
    assert_eq!(output_of(&ra2), [42]);
    let pong = client::ping(addr, t).expect("ping");
    let server = pong.get("server").expect("server section");
    assert_eq!(server.get("hits").and_then(Json::as_u64), Some(1));
    assert_eq!(pong.get("images").and_then(Json::as_u64), Some(2));

    client::shutdown(addr, t).expect("shutdown");
    handle.join().unwrap();
}

#[test]
fn bad_requests_get_error_responses_and_the_server_survives() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let t = Duration::from_secs(30);

    // Unknown workload.
    let req = Json::obj([("workload", Json::str("nosuch"))]);
    let err = client::submit(addr, &req, t).unwrap_err();
    assert!(matches!(err, client::ClientError::Remote(_)), "{err}");

    // Neither workload nor program.
    let err = client::submit(addr, &Json::obj([("id", Json::from(1u64))]), t).unwrap_err();
    assert!(matches!(err, client::ClientError::Remote(_)), "{err}");

    // Malformed fault spec.
    let req = Json::obj([
        ("program", Json::str(GUEST)),
        ("faults", Json::str("rate=not-a-number")),
    ]);
    let err = client::submit(addr, &req, t).unwrap_err();
    assert!(matches!(err, client::ClientError::Remote(_)), "{err}");

    // A good request still works afterwards.
    let req = Json::obj([("program", Json::str(GUEST))]);
    let resp = client::submit(addr, &req, t).expect("submit after errors");
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed")
    );

    client::shutdown(addr, t).expect("shutdown");
    handle.join().unwrap();
}

#[test]
fn artifact_dir_warm_boots_the_matching_partition() {
    // Seal GUEST's translations into an artifact, boot a server
    // from the directory, and check the very first request for
    // that image translates nothing.
    let insts = pdbt_isa_arm::parse_listing(GUEST).unwrap();
    let prog = pdbt_isa_arm::Program::new(0x1000, insts);
    let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
    let artifact =
        pdbt_artifact::compile(&prog, None, &setup, EngineConfig::default(), "inline-guest")
            .expect("compile");
    let dir = std::env::temp_dir().join(format!("pdbt-serve-artifact-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("guest.pdba"), pdbt_artifact::seal(&artifact)).unwrap();
    // A second, unloadable file must be counted, not fatal.
    std::fs::write(dir.join("junk.pdba"), b"not an artifact").unwrap();

    let (addr, handle) = spawn_server(ServeConfig {
        artifact_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let t = Duration::from_secs(30);

    let pong = client::ping(addr, t).expect("ping");
    let arts = pong.get("artifacts").expect("artifacts section");
    assert_eq!(arts.get("loaded").and_then(Json::as_u64), Some(1));
    assert_eq!(arts.get("rejected").and_then(Json::as_u64), Some(1));
    assert_eq!(
        arts.get("sections_quarantined").and_then(Json::as_u64),
        Some(0)
    );
    // The partition exists before any request arrives.
    assert_eq!(pong.get("images").and_then(Json::as_u64), Some(1));

    let req = Json::obj([("id", Json::from(1u64)), ("program", Json::str(GUEST))]);
    let resp = client::submit(addr, &req, t).expect("submit");
    assert_eq!(output_of(&resp), [42]);

    // Zero live translation work: the artifact answered everything.
    let pong = client::ping(addr, t).expect("ping");
    let server = pong.get("server").expect("server section");
    assert_eq!(
        server.get("translate_calls").and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(server.get("inserted").and_then(Json::as_u64), Some(0));
    assert_eq!(server.get("sessions").and_then(Json::as_u64), Some(1));

    client::shutdown(addr, t).expect("shutdown");
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn boot_scan_and_wire_adoption_install_the_same_partition() {
    // The same labelled artifact at the same generation, once
    // scanned from disk and once adopted off the wire: both go
    // through `Partition::from_artifact`, so the records agree.
    let insts = pdbt_isa_arm::parse_listing(GUEST).unwrap();
    let prog = pdbt_isa_arm::Program::new(0x1000, insts);
    let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
    let artifact =
        pdbt_artifact::compile(&prog, None, &setup, EngineConfig::default(), "inline-guest")
            .expect("compile");
    let bytes = pdbt_artifact::seal(&artifact);
    let fp = prog.fingerprint();
    let dir = std::env::temp_dir().join(format!("pdbt-serve-install-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(artifact_file_name(fp, 3)), &bytes).unwrap();

    let scan = load_artifacts(&dir, None, 1);
    let scanned = &scan.partitions[&fp];

    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let (adopted, reason, generation) = adopt_artifact(&server.ctx, &bytes, 3, fp);
    assert!(adopted, "{reason}");
    assert_eq!(generation, 3);
    let table = server.ctx.partitions();
    let wired = &table[&fp];

    assert_eq!(scanned.label, "inline-guest");
    assert_eq!(wired.label, scanned.label);
    assert_eq!(wired.version, scanned.version);
    assert_eq!(wired.sealed_blocks, scanned.sealed_blocks);
    assert_eq!(wired.sealed, scanned.sealed);
    // Only where the bytes live differs: on disk vs memory-only.
    assert_eq!(scanned.disk_generation, Some(3));
    assert_eq!(wired.disk_generation, None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn expired_deadline_reports_a_deadline_outcome() {
    let (addr, handle) = spawn_server(ServeConfig::default());
    let t = Duration::from_secs(30);
    // An infinite loop, bounded only by the deadline.
    let req = Json::obj([
        ("program", Json::str("mov r0, #1\nb .+0\nsvc #0\n")),
        ("deadline_ms", Json::from(0u64)),
    ]);
    let resp = client::submit(addr, &req, t).expect("submit");
    assert_eq!(resp.get("outcome").and_then(Json::as_str), Some("deadline"));
    client::shutdown(addr, t).expect("shutdown");
    handle.join().unwrap();
}
