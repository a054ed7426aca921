//! Dispatch hot-path lockdown: block chaining, the direct-mapped jump
//! cache, and hot-trace superblocks are *transparent* optimizations —
//! architectural output and `guest_retired` must be bit-identical to
//! the unchained engine and to the pure reference interpreter, on every
//! workload, at every worker count, and across budget truncation.

use pdbt::core::derive::{derive, DeriveConfig};
use pdbt::core::RuleSet;
use pdbt::runtime::{Engine, EngineConfig, Outcome, Report, RunSetup};
use pdbt::workloads::{learn_suite, run_reference, suite, Scale, Workload};
use pdbt_faults::{Plan, Site};
use pdbt_isa_arm::{builders as g, Operand as O, Program, Reg};
use pdbt_symexec::CheckOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;

/// An engine config with the dispatch fast path fully on and a low
/// promotion threshold, so the tiny-suite loops actually form traces.
fn chained_cfg() -> EngineConfig {
    EngineConfig {
        trace_threshold: 4,
        ..EngineConfig::default()
    }
}

/// The pre-chaining engine: no jump cache, no links, no traces.
fn unchained_cfg() -> EngineConfig {
    EngineConfig {
        chaining: false,
        traces: false,
        ..EngineConfig::default()
    }
}

fn run_with(w: &Workload, rules: Option<&RuleSet>, cfg: EngineConfig) -> Report {
    let mut engine = Engine::new(rules.cloned(), cfg);
    engine.run(&w.pair.guest.program, &w.setup()).expect("runs")
}

/// The paper's full rule set over the tiny suite (learned from all
/// benchmarks — this file tests dispatch, not the training protocol).
fn tiny_rules() -> RuleSet {
    let learned = learn_suite(&suite(Scale::tiny()), None);
    derive(&learned, DeriveConfig::full(), CheckOptions::default()).0
}

/// A two-level hot loop spanning three short blocks per inner
/// iteration — the shape the chaining fast path exists for.
fn hot_loop_program() -> Program {
    Program::new(
        0x1000,
        vec![
            g::mov(Reg::R0, O::Imm(40)),
            g::mov(Reg::R2, O::Imm(0)),
            g::mov(Reg::R1, O::Imm(25)),
            g::add(Reg::R2, Reg::R2, O::Reg(Reg::R1)),
            g::b(pdbt_isa::Cond::Al, 4),
            g::eor(Reg::R3, Reg::R2, O::Imm(0x55)),
            g::add(Reg::R2, Reg::R2, O::Imm(1)),
            g::b(pdbt_isa::Cond::Al, 4),
            g::sub(Reg::R1, Reg::R1, O::Imm(1)).with_s(),
            g::b(pdbt_isa::Cond::Ne, -24),
            g::sub(Reg::R0, Reg::R0, O::Imm(1)).with_s(),
            g::b(pdbt_isa::Cond::Ne, -36),
            g::mov(Reg::R0, O::Reg(Reg::R2)),
            g::svc(1),
            g::svc(0),
        ],
    )
}

/// Chained and superblock dispatch must be invisible in the
/// architectural results across the whole workload suite, with and
/// without rules, against both the unchained engine and the reference
/// interpreter.
#[test]
fn chained_dispatch_is_architecturally_transparent_across_the_suite() {
    let rules = tiny_rules();
    let mut any_traces = false;
    for w in &suite(Scale::tiny()) {
        let golden = run_reference(w).expect("reference runs");
        for rules in [None, Some(&rules)] {
            let chained = run_with(w, rules, chained_cfg());
            let unchained = run_with(w, rules, unchained_cfg());
            let tag = format!(
                "{} ({})",
                w.bench,
                if rules.is_some() { "rules" } else { "qemu" }
            );
            assert_eq!(chained.output, golden, "{tag}: chained output diverged");
            assert_eq!(unchained.output, golden, "{tag}: unchained output diverged");
            assert_eq!(
                chained.metrics.guest_retired, unchained.metrics.guest_retired,
                "{tag}: guest_retired diverged"
            );
            assert_eq!(
                chained.metrics.rule_covered, unchained.metrics.rule_covered,
                "{tag}: rule_covered diverged"
            );
            assert_eq!(
                chained.metrics.host_retired,
                chained.metrics.host_executed(),
                "{tag}: class attribution lost host instructions"
            );
            assert_eq!(
                chained.obs.rules.total_covered(),
                chained.metrics.rule_covered,
                "{tag}: attribution no longer decomposes coverage"
            );
            let d = &chained.obs.dispatch;
            assert!(d.chain_followed > 0, "{tag}: chaining never engaged");
            any_traces |= d.traces_formed > 0;
            let u = &unchained.obs.dispatch;
            assert_eq!(
                (u.jump_cache_hits, u.chain_followed, u.traces_formed),
                (0, 0, 0),
                "{tag}: unchained engine used the fast path"
            );
        }
    }
    assert!(
        any_traces,
        "no workload formed a superblock — test is vacuous"
    );
}

/// Superblocks must form on a hot multi-block loop and keep output and
/// retirement identical, including partial (side-exit) executions.
#[test]
fn superblocks_form_and_preserve_architectural_results() {
    let prog = hot_loop_program();
    let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
    let mut chained = Engine::new(None, chained_cfg());
    let a = chained.run(&prog, &setup).expect("runs");
    let mut unchained = Engine::new(None, unchained_cfg());
    let b = unchained.run(&prog, &setup).expect("runs");
    assert_eq!(a.outcome, Outcome::Completed);
    assert_eq!(a.output, b.output);
    assert_eq!(a.metrics.guest_retired, b.metrics.guest_retired);
    assert_eq!(a.metrics.host_retired, a.metrics.host_executed());
    let d = &a.obs.dispatch;
    assert!(d.traces_formed > 0, "hot loop never promoted");
    assert!(d.trace_execs > 0, "superblock never executed");
    assert!(d.jump_cache_hits > 0, "jump cache never hit");
    // The reference interpreter agrees on output and retirement.
    let mut cpu = pdbt_isa_arm::Cpu::new();
    let stats = pdbt_isa_arm::run(&mut cpu, &prog, u64::MAX).expect("reference runs");
    assert_eq!(a.output, cpu.output);
    assert_eq!(a.metrics.guest_retired, stats.executed);
}

/// The budget guard: superblocks retire several blocks per execution,
/// so near the guest budget they must stand down — `guest_retired` at
/// the truncation point has to match the unchained engine exactly.
#[test]
fn budget_truncation_is_identical_chained_and_unchained() {
    let prog = hot_loop_program();
    for max_guest in [1, 7, 100, 1234, 2000] {
        let mut setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        setup.max_guest = max_guest;
        let mut chained = Engine::new(None, chained_cfg());
        let a = chained.run(&prog, &setup).expect("partial report");
        let mut unchained = Engine::new(None, unchained_cfg());
        let b = unchained.run(&prog, &setup).expect("partial report");
        assert_eq!(a.outcome, Outcome::Budget, "budget {max_guest}");
        assert_eq!(a.outcome, b.outcome, "budget {max_guest}");
        assert_eq!(
            a.metrics.guest_retired, b.metrics.guest_retired,
            "budget {max_guest}: retirement diverged"
        );
        assert_eq!(a.output, b.output, "budget {max_guest}: output diverged");
    }
}

/// `FUZZ_CASES` scales the seeded loops below (deep-fuzz CI runs 512).
fn fuzz_cases() -> usize {
    let cases = std::env::var("FUZZ_CASES").ok();
    cases.and_then(|v| v.parse().ok()).unwrap_or(16)
}

/// Seeded loops through the corners the fixed programs miss: promotion
/// thresholds low enough that superblocks form within an iteration or
/// two, and budgets that cut the run off inside the loop. Chained and
/// traced against unchained, on everything a guest can observe.
#[test]
fn random_loops_truncate_identically_chained_and_unchained() {
    let rules = tiny_rules();
    let run = |prog: &Program, cfg, max_guest| {
        let mut setup = RunSetup::basic(common::DATA_BASE, 0x1000, 0x8_0000, 0x1000);
        setup.max_guest = max_guest;
        let mut engine = Engine::new(Some(rules.clone()), cfg);
        let r = engine.run(prog, &setup).expect("partial report");
        (r.output, r.outcome, r.metrics.guest_retired)
    };
    let mut rng = StdRng::seed_from_u64(0xD15_9A7C);
    for case in 0..fuzz_cases() {
        let body = (0..rng.gen_range(1..12))
            .map(|_| common::body_inst(&mut rng))
            .collect();
        let seeds = (0..8).map(|_| rng.gen_range(0u32..2048)).collect();
        let prog = common::loop_program(body, seeds, rng.gen_range(3u32..20));
        let (_, outcome, full) = run(&prog, unchained_cfg(), u64::MAX);
        assert_eq!(outcome, Outcome::Completed, "case {case}");
        for trace_threshold in [1, 2, 5] {
            let chained = EngineConfig {
                trace_threshold,
                ..EngineConfig::default()
            };
            for max_guest in [full / 4, full / 3, full / 2] {
                let want = run(&prog, unchained_cfg(), max_guest);
                assert_eq!(want.1, Outcome::Budget, "case {case}: not truncated");
                assert_eq!(
                    run(&prog, chained, max_guest),
                    want,
                    "case {case}, threshold {trace_threshold}, budget {max_guest}"
                );
            }
        }
    }
}

/// Flag producers and consumers on opposite sides of a member boundary:
/// a producer 0, 1, `window - 1`, `window` and `window + 1` guest
/// instructions before a conditional branch, with a block-cap
/// fall-through, a `b` or a `bl` between them, so that the superblocks
/// low thresholds form decide delegation across former block boundaries
/// at and around the window's edge. Chained and traced against unchained
/// and the reference interpreter on what a guest can observe; coverage
/// may differ between the two engines only by the branches a superblock
/// delegates across a boundary, so each must decompose its own exactly.
#[test]
fn producers_across_member_boundaries_agree_chained_and_unchained() {
    use common::Boundary;
    // The translator's block-length cap (`MAX_BLOCK`); checked below.
    const CAP: usize = 32;
    let rules = tiny_rules();
    let window = EngineConfig::default().translate.window;
    let setup = RunSetup::basic(common::DATA_BASE, 0x1000, 0x8_0000, 0x1000);
    let run = |prog: &Program, cfg| {
        let r = Engine::new(Some(rules.clone()), cfg)
            .run(prog, &setup)
            .expect("runs");
        assert_eq!(r.obs.rules.total_covered(), r.metrics.rule_covered);
        r
    };
    // What the rules themselves cover: everything but delegated branches.
    let body_covered = |r: &Report| -> u64 {
        let rows = r.obs.rules.rows().iter();
        let delegated = rows.filter(|row| row.label.ends_with("(delegated)"));
        r.metrics.rule_covered - delegated.map(|row| row.dyn_covered).sum::<u64>()
    };
    let mut rng = StdRng::seed_from_u64(0xB0_0DA7);
    let (mut trace_execs, mut cross_delegated) = (0, 0);
    for case in 0..fuzz_cases() {
        let kind = [Boundary::FallThrough, Boundary::B, Boundary::Bl][case % 3];
        let min = usize::from(kind != Boundary::FallThrough);
        let between = [0, 1, window - 1, window, window + 1][rng.gen_range(0..5)].max(min);
        let prog = common::boundary_program(&mut rng, kind, between, CAP);
        let tag = format!("case {case} ({kind:?}, {between} between)");
        if kind == Boundary::FallThrough {
            let head = pdbt::runtime::collect_block(&prog, 0x1000 + 4 * 12, usize::MAX).unwrap();
            assert!(
                head.len() > CAP,
                "{tag}: the cap does not cut the head block"
            );
        }

        let mut cpu = pdbt_isa_arm::Cpu::new();
        cpu.mem.map(common::DATA_BASE, 0x1000);
        let stats = pdbt_isa_arm::run(&mut cpu, &prog, 100_000).expect("reference runs");
        let unchained = run(&prog, unchained_cfg());
        assert_eq!(unchained.outcome, Outcome::Completed, "{tag}");
        assert_eq!(unchained.output, cpu.output, "{tag}: unchained output");
        assert_eq!(unchained.metrics.guest_retired, stats.executed, "{tag}");
        for trace_threshold in [1, 2] {
            let chained = run(
                &prog,
                EngineConfig {
                    trace_threshold,
                    ..EngineConfig::default()
                },
            );
            let tag = format!("{tag}, threshold {trace_threshold}");
            assert_eq!(chained.outcome, Outcome::Completed, "{tag}");
            assert_eq!(chained.output, cpu.output, "{tag}: chained output");
            assert_eq!(chained.metrics.guest_retired, stats.executed, "{tag}");
            trace_execs += chained.obs.dispatch.trace_execs;
            assert_eq!(body_covered(&chained), body_covered(&unchained), "{tag}");
            cross_delegated +=
                u64::from(chained.metrics.rule_covered > unchained.metrics.rule_covered);
        }
    }
    assert!(trace_execs > 0, "no superblock ran");
    assert!(
        cross_delegated > 0,
        "no branch was delegated across a boundary"
    );
}

/// The report JSON with the fields that legitimately depend on the
/// worker count removed: wall-clock timing, which engine translated a
/// block (lazy dispatch vs. prewarm changes static translation counts
/// and cache/pool traffic) — everything *dynamic* must be bit-identical.
fn strip_jobs_dependent(report: &Report) -> String {
    let mut doc = Report::stripped(&report.to_json());
    for path in [
        "cache",
        "pool",
        "rules",
        "lookup_misses",
        "metrics.blocks_translated",
        "metrics.host_generated",
    ] {
        doc.remove_path(path);
    }
    doc.to_string()
}

/// Chaining and trace promotion are driven purely by execution order,
/// which the prewarm worker count cannot change: with the fast path
/// fully on, `--jobs 1` and `--jobs 4` produce bit-identical stripped
/// reports — including every `dispatch` counter.
#[test]
fn chained_dispatch_is_deterministic_across_jobs() {
    let rules = tiny_rules();
    let workloads = suite(Scale::tiny());
    for w in workloads.iter().take(3) {
        let serial = run_with(w, Some(&rules), chained_cfg());
        let parallel = run_with(
            w,
            Some(&rules),
            EngineConfig {
                jobs: 4,
                ..chained_cfg()
            },
        );
        assert_eq!(
            strip_jobs_dependent(&serial),
            strip_jobs_dependent(&parallel),
            "{}: stripped reports diverged between jobs=1 and jobs=4",
            w.bench
        );
    }
}

/// The tracing budget of the dispatcher: one `exec_segment` span per
/// dispatcher entry — not per block — so a chained run's ring keeps its
/// `translate_block` spans; unchained, a segment is one block.
#[cfg(feature = "obs")]
#[test]
fn exec_spans_are_per_chain_segment_and_leave_room_for_translate_spans() {
    let rules = tiny_rules();
    let drain = || {
        let (events, dropped) = pdbt::obs::drain_events();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count() as u64;
        (count("exec_segment"), count("translate_block"), dropped)
    };
    for w in &suite(Scale::tiny()) {
        drain();
        let chained = run_with(w, Some(&rules), chained_cfg());
        let (exec, translate, dropped) = drain();
        let d = &chained.obs.dispatch;
        assert!(exec > 0, "{}: no exec spans", w.bench);
        assert!(
            exec <= d.jump_cache_hits + d.jump_cache_misses,
            "{}: {exec} exec spans for {} dispatcher entries",
            w.bench,
            d.jump_cache_hits + d.jump_cache_misses
        );
        assert!(
            exec < chained.metrics.blocks_executed,
            "{}: chaining never batched a segment",
            w.bench
        );
        assert!(
            translate >= chained.metrics.blocks_translated,
            "{}: {translate} translate_block spans for {} blocks",
            w.bench,
            chained.metrics.blocks_translated
        );
        assert_eq!(dropped, 0, "{}: the ring wrapped", w.bench);

        let unchained = run_with(w, Some(&rules), unchained_cfg());
        let (exec, _, dropped) = drain();
        assert_eq!(dropped, 0, "{}: the ring wrapped unchained", w.bench);
        assert_eq!(
            exec, unchained.metrics.blocks_executed,
            "{}: unchained runs trace every block",
            w.bench
        );
    }
}

/// One golden line: the dispatch counters and the two metrics they
/// decide. `compiled_blocks`/`compile_ns` stay out, so the file reads
/// the same under both backends.
fn counts_line(tag: &str, r: &Report) -> String {
    let d = &r.obs.dispatch;
    format!(
        "{tag}: jump_cache_hits={} jump_cache_misses={} chain_followed={} links_resolved={} \
         traces_formed={} trace_execs={} invalidations={} blocks_executed={} guest_retired={}\n",
        d.jump_cache_hits,
        d.jump_cache_misses,
        d.chain_followed,
        d.links_resolved,
        d.traces_formed,
        d.trace_execs,
        d.invalidations,
        r.metrics.blocks_executed,
        r.metrics.guest_retired,
    )
}

/// Heads the golden's second section, which only a `--features faults`
/// build can compute.
const FAULTS_SECTION: &str = "# --features faults\n";

/// Pins every dispatch *count*, not only the counter names: how a block
/// is found, linked, promoted and invalidated decides these numbers, so
/// a change to the session's bookkeeping that is meant to be invisible
/// leaves `tests/golden/dispatch_counts.txt` untouched. The second
/// section holds the only runs that drop a trace and follow a link into
/// it — the `cache`-site plans of `tests/fault_matrix.rs`; a build
/// without fault injection carries it over from the file as recorded.
#[test]
fn dispatch_counters_match_the_golden() {
    let rules = tiny_rules();
    let modes = [
        ("chained+traces", EngineConfig::default()),
        (
            "traces=false",
            EngineConfig {
                traces: false,
                ..EngineConfig::default()
            },
        ),
        (
            "chaining=false",
            EngineConfig {
                chaining: false,
                ..EngineConfig::default()
            },
        ),
    ];
    let workloads = suite(Scale::tiny());
    let mut got = String::new();
    for w in &workloads {
        for (mode, cfg) in modes {
            for trace_threshold in [50, 2] {
                let cfg = EngineConfig {
                    trace_threshold,
                    ..cfg
                };
                let tag = format!("{} {mode} threshold={trace_threshold}", w.bench);
                got += &counts_line(&tag, &run_with(w, Some(&rules), cfg));
            }
        }
    }
    let prog = hot_loop_program();
    for max_guest in [1, 7, 100, 1234, 2000] {
        let mut setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        setup.max_guest = max_guest;
        let report = Engine::new(None, chained_cfg())
            .run(&prog, &setup)
            .expect("partial report");
        got += &counts_line(&format!("hot_loop max_guest={max_guest}"), &report);
    }
    got += FAULTS_SECTION;
    if pdbt_faults::ENABLED {
        let w = &workloads[0];
        for seed in [0xFA_01u64, 0xFA_02, 0xFA_03] {
            for (mode, cfg) in [
                (
                    "chained threshold=2",
                    EngineConfig {
                        trace_threshold: 2,
                        ..EngineConfig::default()
                    },
                ),
                ("unchained", unchained_cfg()),
            ] {
                // Scoped to this thread, where the one-job engine runs:
                // the other tests of this binary never see the plan.
                let _plan = pdbt_faults::scoped(Some(Plan::single(Site::Cache, seed, 0.3)));
                let report = run_with(w, Some(&rules), cfg);
                assert!(report.resilience.degraded_blocks > 0, "{seed:#x}: vacuous");
                let degraded = report.resilience.degraded_blocks;
                let tag = format!("{} cache/{seed:#x}/0.3 {mode} degraded={degraded}", w.bench);
                got += &counts_line(&tag, &report);
            }
        }
    } else {
        let path = common::golden_path("dispatch_counts.txt");
        let recorded = std::fs::read_to_string(path).unwrap_or_default();
        if let Some((_, faults)) = recorded.split_once(FAULTS_SECTION) {
            got += faults;
        }
    }
    common::assert_golden(&got, "dispatch_counts.txt");
}
