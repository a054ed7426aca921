//! The fault matrix: every injection site × several seeds, end to end.
//!
//! For each fault class the full pipeline (learn → derive → store
//! round-trip → run) must *complete* — no panics, no hard errors — the
//! guest's observable output must still equal the pure reference
//! interpreter's, and the matching resilience counter must be nonzero
//! (proving the fault actually fired and was degraded, not dodged).
//!
//! The fault plan is process-global, so every test in this file takes
//! the `PLAN` lock before configuring one.

#![cfg(feature = "faults")]

use pdbt::core::derive::{derive_jobs, DeriveConfig};
use pdbt::core::{load_rules_salvage, save_rules, RuleSet};
use pdbt::runtime::{Engine, EngineConfig, Outcome};
use pdbt::workloads::{learn_suite, run_reference, suite, Scale, Workload};
use pdbt_faults::{Plan, Site};
use pdbt_symexec::CheckOptions;
use std::sync::Mutex;

static PLAN: Mutex<()> = Mutex::new(());

const SEEDS: [u64; 3] = [0xFA_01, 0xFA_02, 0xFA_03];

/// Per-site rates, sized to the site's traffic: the derivation sites
/// see thousands of decisions (a low rate still fires plenty), the
/// store sees one per rule block, and `cache` is driven at 1.0 so the
/// whole run exercises the interpreter fallback deterministically.
fn rate_for(site: Site) -> f64 {
    match site {
        Site::Symexec | Site::Emit | Site::Pool => 0.05,
        Site::Store => 0.5,
        Site::Cache => 1.0,
    }
}

/// Runs `workload` under the DBT with `rules`, folding `quarantined`
/// into the engine's resilience counters.
fn run_workload(
    w: &Workload,
    rules: RuleSet,
    quarantined_rules: u64,
    quarantined_combos: u64,
) -> pdbt::runtime::Report {
    let mut engine = Engine::new(Some(rules), EngineConfig::default());
    engine.resilience_mut().quarantined_rules = quarantined_rules;
    engine.resilience_mut().quarantined_combos = quarantined_combos;
    engine
        .run(&w.pair.guest.program, &w.setup())
        .expect("setup never fails")
}

/// Silences the panic hook for the duration of `f` — the `pool` site
/// injects worker panics by design, and their backtraces would drown
/// the test output.
fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(hook);
    r
}

#[test]
fn every_fault_site_degrades_instead_of_aborting() {
    let _guard = PLAN.lock().unwrap();
    let workloads = suite(Scale::tiny());
    let w = &workloads[0];
    let golden = run_reference(w).expect("reference runs");
    let learned = learn_suite(&suite(Scale::tiny()), None);
    // The derivation pipeline is untouched by store/cache faults, so
    // one clean derive serves all their cases.
    let (clean, _) = derive_jobs(&learned, DeriveConfig::full(), CheckOptions::default(), 4);
    let clean_text = save_rules(&clean);

    quiet_panics(|| {
        for site in Site::ALL {
            for seed in SEEDS {
                pdbt_faults::configure(Some(Plan::single(site, seed, rate_for(site))));
                let (text, quarantined_combos) = match site {
                    Site::Symexec | Site::Emit | Site::Pool => {
                        let (rules, stats) =
                            derive_jobs(&learned, DeriveConfig::full(), CheckOptions::default(), 4);
                        if site != Site::Symexec {
                            assert!(
                                stats.quarantined > 0,
                                "{site}/{seed:#x}: no candidates quarantined"
                            );
                        }
                        (save_rules(&rules), stats.quarantined as u64)
                    }
                    Site::Store | Site::Cache => (clean_text.clone(), 0),
                };
                let (salvaged, quarantined) = load_rules_salvage(&text);
                if site == Site::Store {
                    assert!(
                        !quarantined.is_empty(),
                        "{site}/{seed:#x}: no store entries quarantined"
                    );
                } else {
                    assert!(
                        quarantined.is_empty(),
                        "{site}/{seed:#x}: unexpected quarantines: {quarantined:?}"
                    );
                }
                let report =
                    run_workload(w, salvaged, quarantined.len() as u64, quarantined_combos);
                assert_eq!(
                    report.outcome,
                    Outcome::Completed,
                    "{site}/{seed:#x}: pipeline did not complete"
                );
                assert_eq!(
                    report.output, golden,
                    "{site}/{seed:#x}: degraded run diverged from the reference interpreter"
                );
                assert!(
                    report.resilience.injected[site.index()] > 0,
                    "{site}/{seed:#x}: the plan never fired"
                );
                match site {
                    Site::Cache => assert!(
                        report.resilience.degraded_blocks > 0,
                        "{site}/{seed:#x}: no block was interpreted"
                    ),
                    Site::Store => assert!(
                        report.resilience.quarantined_rules > 0,
                        "{site}/{seed:#x}: quarantine not surfaced in the report"
                    ),
                    Site::Emit | Site::Pool => assert!(
                        report.resilience.quarantined_combos > 0,
                        "{site}/{seed:#x}: quarantine not surfaced in the report"
                    ),
                    Site::Symexec => {}
                }
                pdbt_faults::configure(None);
            }
        }
    });
}

/// All sites at once, at a rate that leaves translated and interpreted
/// blocks interleaved: the mixed pipeline must still match the
/// reference.
#[test]
fn mixed_fault_run_still_matches_reference() {
    let _guard = PLAN.lock().unwrap();
    let workloads = suite(Scale::tiny());
    let w = &workloads[0];
    let golden = run_reference(w).expect("reference runs");
    let learned = learn_suite(&suite(Scale::tiny()), None);
    quiet_panics(|| {
        for seed in SEEDS {
            pdbt_faults::configure(Some(Plan::all_sites(seed, 0.3)));
            let (rules, _) =
                derive_jobs(&learned, DeriveConfig::full(), CheckOptions::default(), 4);
            let (salvaged, quarantined) = load_rules_salvage(&save_rules(&rules));
            let report = run_workload(w, salvaged, quarantined.len() as u64, 0);
            assert_eq!(report.outcome, Outcome::Completed, "seed {seed:#x}");
            assert_eq!(report.output, golden, "seed {seed:#x}: output diverged");
            pdbt_faults::configure(None);
        }
    });
}

/// Cache faults interleaved with the chained dispatch fast path: a pc
/// that degrades to the interpreter must be poisoned out of the jump
/// cache, de-chained from every predecessor, and evicted from any
/// superblock containing it — and the run must still complete with the
/// reference output. The unchained engine under the *same* plan retires
/// the same guest instruction count: injection is keyed purely by pc,
/// so the extra probe calls the fast path makes cannot shift decisions.
#[test]
fn poisoned_block_breaks_its_chain_and_the_run_completes() {
    let _guard = PLAN.lock().unwrap();
    let workloads = suite(Scale::tiny());
    let w = &workloads[0];
    let golden = run_reference(w).expect("reference runs");
    let learned = learn_suite(&suite(Scale::tiny()), None);
    let (clean, _) = derive_jobs(&learned, DeriveConfig::full(), CheckOptions::default(), 4);
    // 0.3 leaves translated and interpreted blocks interleaved, so
    // chains form around the poisoned pcs instead of vanishing wholesale.
    let plan = |seed| Plan::single(Site::Cache, seed, 0.3);
    let chained_cfg = EngineConfig {
        trace_threshold: 2,
        ..EngineConfig::default()
    };
    let unchained_cfg = EngineConfig {
        chaining: false,
        traces: false,
        ..EngineConfig::default()
    };
    quiet_panics(|| {
        for seed in SEEDS {
            pdbt_faults::configure(Some(plan(seed)));
            let mut engine = Engine::new(Some(clean.clone()), chained_cfg);
            let report = engine
                .run(&w.pair.guest.program, &w.setup())
                .expect("setup never fails");
            assert_eq!(
                report.outcome,
                Outcome::Completed,
                "seed {seed:#x}: chained run did not complete"
            );
            assert_eq!(
                report.output, golden,
                "seed {seed:#x}: chained degraded run diverged from the reference"
            );
            assert!(
                report.resilience.degraded_blocks > 0,
                "seed {seed:#x}: no block degraded — test is vacuous"
            );
            assert!(
                report.obs.dispatch.invalidations > 0,
                "seed {seed:#x}: degradation never invalidated the jump cache"
            );
            assert!(
                report.obs.dispatch.chain_followed > 0,
                "seed {seed:#x}: no chain survived around the poisoned blocks"
            );
            // Same plan, dispatch fast path off: pc-keyed injection makes
            // the same per-block decisions, so retirement is identical.
            pdbt_faults::configure(Some(plan(seed)));
            let mut engine = Engine::new(Some(clean.clone()), unchained_cfg);
            let unchained = engine
                .run(&w.pair.guest.program, &w.setup())
                .expect("setup never fails");
            assert_eq!(unchained.output, golden, "seed {seed:#x}");
            assert_eq!(
                report.metrics.guest_retired, unchained.metrics.guest_retired,
                "seed {seed:#x}: chaining changed retirement under faults"
            );
            pdbt_faults::configure(None);
        }
    });
}

/// Serial and parallel derivation must stay bit-identical even while
/// workers are being panicked and candidates quarantined: injection is
/// keyed by candidate identity, never by scheduling.
#[test]
fn quarantined_derivation_is_bit_identical_serial_and_parallel() {
    let _guard = PLAN.lock().unwrap();
    let learned = learn_suite(&suite(Scale::tiny()), None);
    let derive_plan = |seed| Plan {
        seed,
        rate: 0.05,
        sites: (1 << Site::Pool.index()) | (1 << Site::Emit.index()),
    };
    quiet_panics(|| {
        for seed in SEEDS {
            pdbt_faults::configure(Some(derive_plan(seed)));
            let (serial, serial_stats) =
                derive_jobs(&learned, DeriveConfig::full(), CheckOptions::default(), 1);
            // Reconfigure to reset the injection counters; the decision
            // function itself is stateless, so the parallel pass sees
            // the identical plan.
            pdbt_faults::configure(Some(derive_plan(seed)));
            let (parallel, parallel_stats) =
                derive_jobs(&learned, DeriveConfig::full(), CheckOptions::default(), 8);
            assert_eq!(
                serial_stats, parallel_stats,
                "seed {seed:#x}: stats diverged"
            );
            assert!(
                serial_stats.quarantined > 0,
                "seed {seed:#x}: nothing quarantined — test is vacuous"
            );
            assert_eq!(
                save_rules(&serial),
                save_rules(&parallel),
                "seed {seed:#x}: rule sets diverged"
            );
            pdbt_faults::configure(None);
        }
    });
}
