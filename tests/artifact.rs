//! Bit-identity lockdown for sealed translation artifacts.
//!
//! An artifact-booted engine must be *observationally
//! indistinguishable* from a cold one: same guest output, same stripped
//! report, byte for byte — across differently degraded training
//! corpora, across engine worker counts, and across concurrent serve
//! sessions answering off one loaded artifact. The artifact bytes
//! themselves must be a fixpoint: `compile → seal → open → seal`
//! reproduces the file exactly, and compiling twice produces identical
//! bytes.
//!
//! The guest-image fingerprint is part of the sealed format, so its
//! value for a known program is pinned here as a regression test — any
//! drift silently orphans every artifact ever written.

mod common;

use common::{assert_golden, learned_for, mcf_request, spawn_server, stripped, SEEDS, T};
use pdbt::artifact::bytes::crc32;
use pdbt::artifact::{open_salvage, seal, warm_state};
use pdbt::obs::json::Json;
use pdbt::runtime::{Engine, EngineConfig, RunSetup, SharedTranslationState};
use pdbt::workloads::{build, suite, Benchmark, Config, Experiment, Scale};
use pdbt_serve::{ping, shutdown, submit, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Fuzz iterations for the randomized fixpoint loop; FUZZ_CASES scales.
fn cases() -> usize {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// The stable fingerprint of a known program is pinned: this exact
/// value is sealed inside every artifact and keys the serve daemon's
/// partition map, so changing the hash silently orphans every artifact
/// ever written. If this assertion fires, you changed the fingerprint
/// function — bump `pdbt::artifact::FORMAT_VERSION` instead of updating
/// the constant.
#[test]
fn image_fingerprint_is_pinned_for_a_known_program() {
    let insts = pdbt::arm::parse_listing("mov r0, #41\nadd r0, r0, #1\nsvc #1\nsvc #0\n").unwrap();
    let prog = pdbt::arm::Program::new(0x1000, insts);
    assert_eq!(prog.fingerprint(), 0xb22c_388e_f903_e5ae);

    // And it is sensitive to what it must be sensitive to.
    let moved = pdbt::arm::Program::new(0x2000, prog.insts().to_vec());
    assert_ne!(moved.fingerprint(), prog.fingerprint());
    let edited = pdbt::arm::parse_listing("mov r0, #42\nadd r0, r0, #1\nsvc #1\nsvc #0\n").unwrap();
    assert_ne!(
        pdbt::arm::Program::new(0x1000, edited).fingerprint(),
        prog.fingerprint()
    );
}

/// Artifact-booted runs are bit-identical to cold runs across three
/// degraded corpora and across `jobs = 1` vs `jobs = 4` (the parallel
/// prewarm must not perturb a warm session any more than a cold one).
#[test]
fn artifact_boot_is_bit_identical_to_cold_runs() {
    let workloads = suite(Scale::tiny());
    let w = &workloads[0];
    for seed in SEEDS {
        let rules = learned_for(seed);
        let artifact = pdbt::artifact::compile(
            &w.pair.guest.program,
            Some(&rules),
            &w.setup(),
            EngineConfig::default(),
            "capstone",
        )
        .expect("compile");
        let opened = open_salvage(&seal(&artifact)).expect("open");
        assert!(opened.quarantined.is_empty());

        for jobs in [1usize, 4] {
            let cfg = EngineConfig {
                jobs,
                ..EngineConfig::default()
            };
            let cold_state = Arc::new(SharedTranslationState::new(
                Some(rules.clone()),
                cfg.cache_shards,
            ));
            let mut cold_engine = Engine::with_shared(cold_state.clone(), cfg);
            let cold = cold_engine
                .run(&w.pair.guest.program, &w.setup())
                .expect("cold run");

            let shared = Arc::new(warm_state(&opened, None, 8, jobs));
            let mut warm_engine = Engine::with_shared(shared.clone(), cfg);
            let warm = warm_engine
                .run(&w.pair.guest.program, &w.setup())
                .expect("warm run");

            assert_eq!(
                warm.output, cold.output,
                "seed {seed:#x} jobs {jobs}: guest output diverged"
            );
            assert_eq!(
                stripped(&warm.to_json()),
                stripped(&cold.to_json()),
                "seed {seed:#x} jobs {jobs}: warm report diverged from cold"
            );
            // The warm session did zero live translation work.
            let server = shared.server().snapshot();
            assert_eq!(server.translate_calls, 0, "seed {seed:#x} jobs {jobs}");
            assert_eq!(server.inserted, 0, "seed {seed:#x} jobs {jobs}");
            assert!(shared.artifact().snapshot().warm());
            assert!(!cold_state.artifact().snapshot().warm());
        }
    }
}

/// `compile → seal → open → seal` is a byte-level fixpoint, and
/// compiling the same input twice seals identical bytes — over the
/// three degraded corpora and a seeded loop of randomized straight-line
/// guest programs.
#[test]
fn seal_open_seal_is_a_byte_fixpoint() {
    let workloads = suite(Scale::tiny());
    let w = &workloads[0];
    for seed in SEEDS {
        let rules = learned_for(seed);
        let once = pdbt::artifact::compile(
            &w.pair.guest.program,
            Some(&rules),
            &w.setup(),
            EngineConfig::default(),
            "fixpoint",
        )
        .expect("compile");
        let twice = pdbt::artifact::compile(
            &w.pair.guest.program,
            Some(&rules),
            &w.setup(),
            EngineConfig::default(),
            "fixpoint",
        )
        .expect("recompile");
        let bytes = seal(&once);
        assert_eq!(
            bytes,
            seal(&twice),
            "seed {seed:#x}: compile is not deterministic"
        );
        let opened = open_salvage(&bytes).expect("open");
        assert_eq!(
            seal(&opened.artifact),
            bytes,
            "seed {seed:#x}: seal(open(seal)) diverged"
        );
    }
}

/// Translation identity, pinned: the sealed artifact of every workload
/// under the paper's protocol (leave-one-out `para.` rules), under no
/// rules, under the two undelegated rule sets (`w/o para.`, `addr-mode`)
/// and under `para.` at trace threshold 2 (more and longer traces, flag
/// producers in earlier members) is held to the length and CRC recorded
/// in `tests/golden/artifact_digests.txt`. A change that is not meant to
/// move a translated byte, a sealed rule or a trace must leave the file
/// alone; one that is refreshes it with `UPDATE_GOLDEN=1` and reviews
/// the diff.
#[test]
fn sealed_artifact_digests_match_the_golden() {
    let mut exp = Experiment::new(Scale::tiny());
    let default = EngineConfig::default();
    let mut undelegated = default;
    undelegated.translate.flag_delegation = false;
    let hot = EngineConfig {
        trace_threshold: 2,
        ..default
    };
    let mut got = String::new();
    for (i, bench) in Benchmark::ALL.into_iter().enumerate() {
        let para = exp.rules_for(Config::Para, bench);
        let wo_para = exp.rules_for(Config::WoPara, bench);
        let addr_mode = exp.rules_for(Config::OpcodeAddr, bench);
        let w = &exp.suite[i];
        assert_eq!(w.bench, bench);
        for (name, rules, cfg) in [
            ("para", para.as_ref(), default),
            ("none", None, default),
            ("wo-para", wo_para.as_ref(), undelegated),
            ("addr-mode", addr_mode.as_ref(), undelegated),
            ("para-t2", para.as_ref(), hot),
        ] {
            let artifact = pdbt::artifact::compile(
                &w.pair.guest.program,
                rules,
                &w.setup(),
                cfg,
                &format!("{bench}/tiny"),
            )
            .unwrap_or_else(|e| panic!("{bench} {name}: {e}"));
            let bytes = seal(&artifact);
            got.push_str(&format!(
                "{bench} {name} {} {:08x}\n",
                bytes.len(),
                crc32(&bytes)
            ));
        }
    }
    assert_golden(&got, "artifact_digests.txt");
}

/// Randomized-workload fixpoint: seeded straight-line ALU programs,
/// each compiled, sealed, reopened, resealed, and warm-booted against
/// its own cold run.
#[test]
fn randomized_programs_roundtrip_and_boot_identically() {
    let mut rng = StdRng::seed_from_u64(0xF1_4B_07);
    let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
    for case in 0..cases() {
        let mut text = String::new();
        for _ in 0..rng.gen_range(1..12usize) {
            let d = rng.gen_range(0..4u8);
            let a = rng.gen_range(0..4u8);
            match rng.gen_range(0..4u8) {
                0 => text.push_str(&format!("mov r{d}, #{}\n", rng.gen_range(0..100u32))),
                1 => text.push_str(&format!("add r{d}, r{a}, #{}\n", rng.gen_range(0..100u32))),
                2 => text.push_str(&format!("sub r{d}, r{a}, #{}\n", rng.gen_range(0..100u32))),
                _ => text.push_str(&format!("mul r{d}, r{a}, r{}\n", rng.gen_range(0..4u8))),
            }
        }
        text.push_str("svc #1\nsvc #0\n");
        let insts = pdbt::arm::parse_listing(&text).expect("generated program assembles");
        let prog = pdbt::arm::Program::new(0x1000, insts);

        let artifact =
            pdbt::artifact::compile(&prog, None, &setup, EngineConfig::default(), "rand")
                .unwrap_or_else(|e| panic!("case {case}: compile failed: {e}\n{text}"));
        let bytes = seal(&artifact);
        let opened = open_salvage(&bytes).expect("open");
        assert!(opened.quarantined.is_empty(), "case {case}");
        assert_eq!(seal(&opened.artifact), bytes, "case {case}: not a fixpoint");

        let cold = Engine::new(None, EngineConfig::default())
            .run(&prog, &setup)
            .expect("cold run");
        let shared = Arc::new(warm_state(&opened, None, 8, 1));
        let warm = Engine::with_shared(shared.clone(), EngineConfig::default())
            .run(&prog, &setup)
            .expect("warm run");
        assert_eq!(warm.output, cold.output, "case {case}");
        assert_eq!(
            stripped(&warm.to_json()),
            stripped(&cold.to_json()),
            "case {case}: warm report diverged"
        );
        let translated = shared.server().snapshot().translate_calls;
        assert_eq!(translated, 0, "case {case}");
    }
}

/// Two concurrent serve sessions answering off one disk-loaded artifact
/// are bit-identical to sequential cold oracle runs, with zero live
/// translation work on the server.
#[test]
fn concurrent_serve_sessions_off_one_artifact_match_the_cold_oracle() {
    let w = build(Benchmark::Mcf, Scale::tiny());
    // The serve oracle configuration: no rules, default engine.
    let artifact = pdbt::artifact::compile(
        &w.pair.guest.program,
        None,
        &w.setup(),
        EngineConfig::default(),
        "mcf/tiny",
    )
    .expect("compile");
    let mut oracle_engine = Engine::new(None, EngineConfig::default());
    let oracle = oracle_engine
        .run(&w.pair.guest.program, &w.setup())
        .expect("oracle");
    let blocks = oracle.metrics.blocks_translated;
    assert!(blocks > 0, "vacuous oracle");

    let dir = std::env::temp_dir().join(format!("pdbt-artifact-capstone-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("mcf.pdba"), seal(&artifact)).unwrap();

    let (addr, handle) = spawn_server(ServeConfig {
        jobs: 2,
        artifact_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let responses: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|i| s.spawn(move || submit(addr, &mcf_request(i), T).expect("submit")))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let oracle_json = oracle.to_json();
    for resp in &responses {
        assert_eq!(
            resp.get("outcome").and_then(Json::as_str),
            Some("completed")
        );
        let report = resp.get("report").expect("report");
        assert_eq!(
            stripped(report),
            stripped(&oracle_json),
            "a warm session diverged from the sequential cold oracle"
        );
    }

    // Zero live translation: both sessions were answered entirely from
    // the artifact. Every probe is a warm hit.
    let pong = ping(addr, T).expect("ping");
    let srv = pong.get("server").expect("server section");
    let field = |name: &str| srv.get(name).and_then(Json::as_u64).expect(name);
    assert_eq!(field("sessions"), 2);
    assert_eq!(field("translate_calls"), 0);
    assert_eq!(field("inserted"), 0);
    assert_eq!(field("probes"), 2 * blocks);
    assert_eq!(field("hits"), 2 * blocks);
    let arts = pong.get("artifacts").expect("artifacts section");
    assert_eq!(arts.get("loaded").and_then(Json::as_u64), Some(1));
    assert_eq!(arts.get("rejected").and_then(Json::as_u64), Some(0));

    shutdown(addr, T).expect("shutdown");
    let summary = handle.join().unwrap();
    assert_eq!(summary.requests, 2);
    assert_eq!(summary.panicked, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
