//! Determinism lockdown for the parallel pipeline: `derive_jobs` must
//! be bit-identical to serial derivation, and an engine fed either rule
//! set must produce identical machine-readable reports.
//!
//! Three differently degraded training corpora guard against "it only
//! happened to agree on one input": each seed re-degrades the suite's
//! debug maps, so the learned sets — and therefore the candidate
//! universes the worker pool fans over — differ per seed.
//!
//! The engine configuration is held fixed across the comparison (only
//! the *derive* worker count varies): pool and cache counters are part
//! of the report and legitimately differ between engine `jobs` values.
//! Reports are compared stripped (`Report::stripped`).

mod common;

use common::{learned_for, SEEDS};
use pdbt::core::derive::{derive_jobs, DeriveConfig};
use pdbt::core::{save_rules, RuleSet};
use pdbt::runtime::{Engine, EngineConfig, Report};
use pdbt::workloads::{suite, Scale};
use pdbt_symexec::CheckOptions;

/// A fixed-configuration engine run over one of the suite's workloads.
fn run_fixed(rules: &RuleSet) -> Report {
    let workloads = suite(Scale::tiny());
    let w = &workloads[0];
    let mut engine = Engine::new(Some(rules.clone()), EngineConfig::default());
    engine.run(&w.pair.guest.program, &w.setup()).expect("run")
}

/// The stripped report: the `server` section it drops describes the
/// shared state a session ran against (sessions, warm hits), which
/// legitimately differs between a cold standalone run and a warm shared
/// session. Everything else — metrics, attribution, dispatch,
/// resilience — must be bit-identical.
fn comparable_json(report: &Report) -> String {
    Report::stripped(&report.to_json()).to_string()
}

#[test]
fn parallel_derive_is_bit_identical_to_serial() {
    for seed in SEEDS {
        let learned = learned_for(seed);
        let (serial, serial_stats) =
            derive_jobs(&learned, DeriveConfig::full(), CheckOptions::default(), 1);
        let (parallel, parallel_stats) =
            derive_jobs(&learned, DeriveConfig::full(), CheckOptions::default(), 8);
        assert_eq!(
            serial_stats, parallel_stats,
            "seed {seed:#x}: derive stats diverged"
        );
        assert_eq!(
            save_rules(&serial),
            save_rules(&parallel),
            "seed {seed:#x}: serialized rule sets diverged"
        );
    }
}

/// Degraded derivation must stay deterministic too: with a starvation
/// fuel budget, some verifications exhaust and their candidates are
/// rejected — identically whether the pool runs 1 worker or 8.
#[test]
fn fuel_exhausted_derivation_is_bit_identical_to_serial() {
    let opts = CheckOptions {
        fuel: 60,
        ..CheckOptions::default()
    };
    for seed in SEEDS {
        let learned = learned_for(seed);
        let (serial, serial_stats) = derive_jobs(&learned, DeriveConfig::full(), opts, 1);
        let (parallel, parallel_stats) = derive_jobs(&learned, DeriveConfig::full(), opts, 8);
        assert_eq!(
            serial_stats, parallel_stats,
            "seed {seed:#x}: degraded derive stats diverged"
        );
        assert!(
            serial_stats.fuel_exhausted > 0,
            "seed {seed:#x}: the starvation budget exhausted nothing — test is vacuous"
        );
        assert_eq!(
            save_rules(&serial),
            save_rules(&parallel),
            "seed {seed:#x}: degraded rule sets diverged"
        );
    }
}

/// Shared-cache determinism: N sessions borrowing one
/// `SharedTranslationState` — run *concurrently*, racing on the warm
/// cache — produce stripped reports bit-identical to N sequential cold
/// single-engine runs, and the state's server-lifetime counters add up
/// to exactly the sequential sum: every session probes each block once,
/// the block is inserted once server-wide, and the remaining
/// `N·blocks − blocks` probes are warm hits. Repeated per degraded
/// corpus so the sharing machinery is exercised over three distinct
/// rule sets, not one lucky input.
#[test]
fn concurrent_shared_sessions_match_sequential_cold_runs() {
    use pdbt::runtime::SharedTranslationState;
    use std::sync::Arc;

    const SESSIONS: usize = 4;
    let workloads = suite(Scale::tiny());
    let w = &workloads[0];
    for seed in SEEDS {
        let learned = learned_for(seed);
        let cold: Vec<Report> = (0..SESSIONS)
            .map(|_| {
                let mut e = Engine::new(Some(learned.clone()), EngineConfig::default());
                e.run(&w.pair.guest.program, &w.setup()).expect("cold run")
            })
            .collect();

        let shared = Arc::new(SharedTranslationState::new(
            Some(learned.clone()),
            EngineConfig::default().cache_shards,
        ));
        let concurrent: Vec<Report> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..SESSIONS)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    s.spawn(move || {
                        let mut e = Engine::with_shared(shared, EngineConfig::default());
                        e.run(&w.pair.guest.program, &w.setup())
                            .expect("shared run")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread"))
                .collect()
        });

        for (i, r) in concurrent.iter().enumerate() {
            assert_eq!(
                r.output, cold[i].output,
                "seed {seed:#x}: session {i} output diverged"
            );
            assert_eq!(
                comparable_json(r),
                comparable_json(&cold[i]),
                "seed {seed:#x}: session {i} report diverged from its cold run"
            );
        }

        let blocks = cold[0].metrics.blocks_translated;
        assert!(blocks > 0, "seed {seed:#x}: vacuous — nothing translated");
        let snap = shared.server().snapshot();
        let n = SESSIONS as u64;
        assert_eq!(snap.sessions, n, "seed {seed:#x}");
        assert_eq!(
            snap.inserted, blocks,
            "seed {seed:#x}: every block inserted exactly once server-wide"
        );
        assert_eq!(
            snap.probes,
            blocks * n,
            "seed {seed:#x}: each session probes each block once"
        );
        assert_eq!(
            snap.hits(),
            blocks * (n - 1),
            "seed {seed:#x}: warm hits must equal the sequential sum"
        );
    }
}

#[test]
fn reports_from_parallel_and_serial_rules_are_identical() {
    for seed in SEEDS {
        let learned = learned_for(seed);
        let (serial, _) = derive_jobs(&learned, DeriveConfig::full(), CheckOptions::default(), 1);
        let (parallel, _) = derive_jobs(&learned, DeriveConfig::full(), CheckOptions::default(), 8);
        let a = run_fixed(&serial);
        let b = run_fixed(&parallel);
        assert_eq!(a.output, b.output, "seed {seed:#x}: guest output diverged");
        assert_eq!(
            comparable_json(&a),
            comparable_json(&b),
            "seed {seed:#x}: run reports diverged"
        );
    }
}
