//! The server's unit tests (`#[cfg(test)] mod tests;` in `mod.rs`).

use super::partition::load_artifacts;
use super::replicate::adopt_artifact;
use super::*;
use crate::client;
use pdbt_fleet::{artifact_file_name, ArtifactVersion, MAX_ARTIFACT};
use pdbt_runtime::{Engine, RunSetup};
use pdbt_workloads::{Benchmark, Config, Experiment, Scale};
use std::collections::HashSet;

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
    let (adopted, reason, generation) = adopt_artifact(&server.ctx, bytes, 3, fp, None);
    assert!(adopted, "{reason}");
    assert_eq!(generation, 3);
    let table = server.ctx.partitions();
    let wired = &table[&fp];

    assert_eq!(scanned.label, "inline-guest");
    assert_eq!(wired.label, scanned.label);
    assert_eq!(wired.version, scanned.version);
    assert_eq!(wired.sealed_sizes, scanned.sealed_sizes);
    assert_eq!(wired.sealed, scanned.sealed);
    // Only where the bytes live differs: on disk vs memory-only.
    assert_eq!(scanned.disk_generation, Some(3));
    assert_eq!(wired.disk_generation, None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scratch directory of its own per test, emptied first.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pdbt-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An artifact file past the wire's cap is refused before it is read:
/// counted as a reject, never opened. The file is a valid artifact
/// stretched (sparsely) one byte past the cap, which the salvage open
/// would accept — its sections all lie inside it.
#[test]
fn oversized_artifact_files_are_rejected_unread() {
    let prog = pdbt_isa_arm::Program::new(0x1000, pdbt_isa_arm::parse_listing(GUEST).unwrap());
    let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
    let artifact = pdbt_artifact::compile(&prog, None, &setup, EngineConfig::default(), "big")
        .expect("compile");
    let dir = scratch_dir("oversized");
    let path = dir.join(artifact_file_name(prog.fingerprint(), 0));
    std::fs::write(&path, pdbt_artifact::seal(&artifact)).unwrap();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(MAX_ARTIFACT + 1).unwrap();
    drop(file);

    let scan = load_artifacts(&dir, None, 1);
    let boot = scan.boot.snapshot();
    assert_eq!((boot.loaded, boot.rejected), (0, 1));
    assert!(scan.partitions.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tiny suite sealed under the paper's protocol — each workload's
/// blocks under its leave-one-out `para.` rules — as fingerprint, bytes
/// and the RULE section's text.
fn tiny_suite_artifacts() -> Vec<(u64, Vec<u8>, String)> {
    let mut exp = Experiment::new(Scale::tiny());
    let mut out = Vec::new();
    for (i, bench) in Benchmark::ALL.into_iter().enumerate() {
        let rules = exp.rules_for(Config::Para, bench).expect("para. has rules");
        let w = &exp.suite[i];
        let artifact = pdbt_artifact::compile(
            &w.pair.guest.program,
            Some(&rules),
            &w.setup(),
            EngineConfig::default(),
            &format!("{bench}/tiny"),
        )
        .expect("compile");
        let bytes = pdbt_artifact::seal(&artifact);
        out.push((artifact.fingerprint(), bytes, pdbt_core::save_rules(&rules)));
    }
    out
}

/// A boot scan over the tiny suite's artifacts parses each distinct rule
/// block once: the scan counts every other block as shared, and each
/// partition's rules still save to exactly its artifact's RULE text.
#[test]
fn a_boot_scan_parses_each_distinct_rule_block_once() {
    let artifacts = tiny_suite_artifacts();
    let dir = scratch_dir("shared-rules");
    let mut blocks = Vec::new();
    for (fp, bytes, text) in &artifacts {
        std::fs::write(dir.join(artifact_file_name(*fp, 0)), bytes).unwrap();
        let mut block = String::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            block += line;
            block.push('\n');
            if line == "end" {
                blocks.push(std::mem::take(&mut block));
            }
        }
    }
    let distinct: HashSet<&String> = blocks.iter().collect();
    assert!(distinct.len() < blocks.len(), "the sets overlap");

    let scan = load_artifacts(&dir, None, 1);
    let boot = scan.boot.snapshot();
    assert_eq!(boot.loaded, artifacts.len() as u64);
    assert_eq!(boot.rules_shared, (blocks.len() - distinct.len()) as u64);
    for (fp, _, text) in &artifacts {
        let rules = scan.partitions[fp]
            .state
            .rules()
            .expect("the artifact's rules");
        assert_eq!(pdbt_core::save_rules(rules), *text);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_new_trace_re_seals_and_a_trace_hit_does_not() {
    // A loop whose body is two blocks, so it forms traces; the boot
    // artifact lacks one of them.
    const LOOP: &str = "mov r0, #80\nsubs r0, r0, #1\nb .+8\nsvc #0\n\
                        add r1, r1, #1\nbne .-16\nmov r0, r1\nsvc #1\nsvc #0\n";
    let prog = pdbt_isa_arm::Program::new(0x1000, pdbt_isa_arm::parse_listing(LOOP).unwrap());
    let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
    let mut artifact = pdbt_artifact::compile(&prog, None, &setup, EngineConfig::default(), "loop")
        .expect("compile");
    let traces = artifact.traces.len();
    assert!(traces > 0, "the loop forms a trace");
    artifact.traces.pop();
    let bytes = Arc::new(pdbt_artifact::seal(&artifact));
    let opened = pdbt_artifact::open_salvage(&bytes).unwrap();
    let version = ArtifactVersion::of_opened(3, &opened);
    let mut p = Partition::from_artifact(opened, String::new, None, 1, version, bytes, Some(3));
    let blocks = p.state.cache().len();
    let run = |p: &Partition| {
        let mut engine = Engine::with_shared(Arc::clone(&p.state), EngineConfig::default());
        engine.run(&prog, &setup).unwrap();
        p.state.artifact().snapshot().trace_hits as usize
    };

    // The only growth is the trace the artifact lacked: re-sealed at
    // the next generation, with it.
    assert_eq!(run(&p), traces - 1);
    assert_eq!(p.state.sizes(), (blocks, traces));
    let (sealed, grown) = p.seal().expect("sealable");
    assert_eq!(grown.generation, 4);
    let reopened = pdbt_artifact::open_salvage(&sealed).unwrap();
    assert_eq!(reopened.artifact.traces.len(), traces);

    // A session that only hits traces leaves the seal as it was.
    assert_eq!(run(&p), 2 * traces - 1);
    let (again, version) = p.seal().expect("sealable");
    assert_eq!(version, grown);
    assert!(Arc::ptr_eq(&again, &sealed));
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

#[test]
fn replies_stream_canonical_text() {
    // The RESULT, PING and STATS sections, each written once: what a
    // frame streams is the text of the tree it parses to, so every
    // object's members were said in key order, once each.
    fn assert_same(doc: &impl ToJson, what: &str) {
        let mut streamed = Vec::new();
        doc.write_json(&mut streamed);
        let text = String::from_utf8(streamed).unwrap();
        assert_eq!(Json::parse(&text).unwrap().to_string(), text, "{what}");
    }
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let ctx = &server.ctx;
    for (i, program) in [GUEST, GUEST, "mov r0, #9\nmul r0, r0, r0\nsvc #1\nsvc #0\n"]
        .into_iter()
        .enumerate()
    {
        let req = Json::obj([
            ("id", Json::from(i as u64)),
            ("program", Json::str(program)),
        ]);
        let (reply, shared, mut summary) = session::run_request(ctx, &req).expect("runs");
        assert_same(&reply, "RESULT");
        summary.seq = i as u64 + 1;
        summary.reply_bytes = 100 + i as u64;
        shared.telemetry().record(0, summary);
    }
    assert_same(&control::Status(ctx, &server.queue), "PING");
    assert_same(&control::Stats::new(ctx, &server.queue), "STATS");
}
