//! `pdbt` — command-line front end for the parameterized learning-based
//! DBT.
//!
//! ```text
//! pdbt train  [--scale tiny|full] [--exclude BENCH] [--no-param] [--jobs N]
//!             [--faults SPEC] -o rules.txt
//! pdbt run    prog.s [--rules rules.txt] [--no-delegation] [--stats] [--jobs N]
//!             [--no-chain] [--no-trace] [--trace-threshold N] [--backend model|threaded]
//!             [--faults SPEC] [--report-json FILE] [--trace-out FILE]
//! pdbt stats  prog.s [--rules rules.txt] [--no-delegation] [--jobs N]
//!             [--no-chain] [--no-trace] [--trace-threshold N] [--backend model|threaded]
//!             [--faults SPEC] [--report-json FILE] [--trace-out FILE]
//! pdbt trace  prog.s [--rules rules.txt] [--addr HEX]
//! pdbt bench  [--scale tiny|full] [BENCH]
//! pdbt serve  [--addr HOST:PORT] [--rules rules.txt] [--jobs N] [--deadline-ms N]
//!             [--peer ADDR]... [--replicate-interval SECS]
//! pdbt sync   PEER [--timeout-s N] -o DIR
//! pdbt submit [prog.s] [--addr HOST:PORT] [--workload BENCH --scale tiny|full]
//!             [--max-guest N] [--deadline-ms N] [--faults SPEC] [--no-delegation]
//!             [--timeout-s N] [--report-json FILE] [--ping] [--shutdown]
//! ```
//!
//! `serve` starts the multi-session translation daemon: every submitted
//! run borrows one shared ruleset and warm code cache (see
//! `pdbt_serve`), so repeated guests skip re-translation while each
//! request still gets its own isolated metrics/report. `--peer ADDR`
//! (repeatable) joins the replication plane: the daemon pulls missing
//! or newer sealed artifacts from each peer at boot and, with
//! `--replicate-interval SECS`, on a jittered refresh tick; on drain
//! it writes grown partitions back to `--artifact-dir` as the next
//! generation. `sync` mirrors a running daemon's sealed artifacts
//! into a directory usable as another daemon's `--artifact-dir`. `submit` sends
//! one request — either a program file or a named synthetic `--workload`
//! — prints the guest output, and exits non-zero unless the outcome is
//! `completed`; `--ping` probes server status and `--shutdown` drains
//! and stops the daemon.
//!
//! `--no-chain` disables the dispatch fast path (direct-mapped jump
//! cache + block chaining), `--no-trace` disables hot-trace superblock
//! promotion, and `--trace-threshold N` sets how many executions make a
//! block hot (default 50). Architectural output and `guest_retired` are
//! identical either way; only dispatch overhead changes.
//!
//! `--jobs N` fans derived-rule verification (`train`) or block
//! pre-translation (`run`/`stats`) across `N` worker threads; results
//! are identical to `--jobs 1` (see `tests/determinism.rs`). `--jobs 0`
//! uses the hardware parallelism.
//!
//! `--backend model|threaded` picks the host block executor (default
//! `threaded`, overridable via the `PDBT_BACKEND` env var): `threaded`
//! compiles each block once into direct-threaded code; `model` is the
//! original re-interpreting oracle. Stripped reports are bit-identical
//! between the two (see `tests/backend.rs`).
//!
//! `run --stats` prints the metrics table to stderr; `stats` prints the
//! full observability report (metrics, per-rule attribution, timing
//! histograms) to stdout. `--report-json` writes the machine-readable
//! run report and `--trace-out` writes a Chrome `trace_event` file
//! loadable in `chrome://tracing` / Perfetto.
//!
//! `--faults SPEC` (or the `PDBT_FAULTS` env var) installs a
//! deterministic fault-injection plan, e.g.
//! `seed=7,rate=0.01,sites=symexec,emit,store,pool,cache`; it needs a
//! binary built with `--features faults` (a plain build warns and runs
//! fault-free). Rule files load in salvage mode: malformed entries are
//! quarantined with a warning and the rest are used, with the count
//! reported in the `resilience` section of `pdbt stats` and the JSON
//! report.
//!
//! Guest programs are assembly listings in the syntax the disassembler
//! prints (see `pdbt_isa_arm::parse_listing`); they are loaded at
//! `0x1000` with a data region at `0x100000` and a stack at `0x80000`.

use pdbt::arm::{parse_listing, Program};
use pdbt::core::derive::{derive, derive_jobs, DeriveConfig};
use pdbt::core::learning::LearnConfig;
use pdbt::core::{load_rules_salvage, save_rules, RuleSet};
use pdbt::obs::json::Json;
use pdbt::obs::trace::export_chrome_trace;
use pdbt::runtime::{
    translate_block, BackendKind, CodeClass, Engine, EngineConfig, RunSetup, TranslateConfig,
};
use pdbt::runtime::{Outcome, Report, Resilience};
use pdbt::workloads::{run_dbt, run_reference, train_excluding, Benchmark, Scale};
use pdbt_symexec::CheckOptions;
use std::process::ExitCode;

const DATA_BASE: u32 = 0x10_0000;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         pdbt train  [--scale tiny|full] [--exclude BENCH] [--no-param] [--jobs N] [--faults SPEC] -o FILE\n  \
         pdbt run    PROG.s [--rules FILE] [--no-delegation] [--stats] [--jobs N] [--no-chain] [--no-trace] [--trace-threshold N] [--backend model|threaded] [--faults SPEC] [--report-json FILE] [--trace-out FILE]\n  \
         pdbt stats  PROG.s [--rules FILE] [--no-delegation] [--jobs N] [--no-chain] [--no-trace] [--trace-threshold N] [--backend model|threaded] [--faults SPEC] [--report-json FILE] [--trace-out FILE]\n  \
         pdbt trace  PROG.s [--rules FILE] [--addr HEX]\n  \
         pdbt bench  [--scale tiny|full] [BENCH]\n  \
         pdbt compile WORKLOAD|PROG.s [--scale tiny|full] [--rules FILE | --baseline] [--no-param] [--jobs N] [--backend model|threaded] [--label NAME] -o FILE.pdba\n  \
         pdbt serve  [--addr HOST:PORT] [--rules FILE] [--jobs N] [--backend model|threaded] [--deadline-ms N] [--flight-out FILE] [--artifact-dir DIR] [--peer ADDR]... [--replicate-interval SECS]\n  \
         pdbt sync   PEER [--timeout-s N] -o DIR\n  \
         pdbt submit [PROG.s] [--addr HOST:PORT] [--workload BENCH --scale tiny|full] [--max-guest N] [--deadline-ms N] [--faults SPEC] [--no-delegation] [--timeout-s N] [--report-json FILE] [--ping] [--shutdown] [--stats]\n  \
         pdbt loadgen [--addr HOST:PORT] [--sessions N] [--requests N] [--hot N] [--tail N] [--seed N] [--poll-ms N] [--timeout-s N] [--out FILE]"
    );
    ExitCode::from(2)
}

/// Minimal flag parser: returns (positional args, flag values).
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String], value_flags: &[&str]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if value_flags.contains(&name) {
                    flags.push((name.to_string(), it.next().cloned()));
                } else {
                    flags.push((name.to_string(), None));
                }
            } else if a == "-o" {
                flags.push(("out".to_string(), it.next().cloned()));
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Every value of a repeatable flag, in order (e.g. `--peer A --peer B`).
    fn values(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }
}

fn scale_of(args: &Args) -> Scale {
    match args.value("scale") {
        Some("tiny") => Scale::tiny(),
        _ => Scale::full(),
    }
}

fn bench_of(name: &str) -> Option<Benchmark> {
    Benchmark::ALL.into_iter().find(|b| b.name() == name)
}

/// The `--jobs N` worker count: absent = 1 (serial), `0` = hardware
/// parallelism.
fn jobs_of(args: &Args) -> Result<usize, String> {
    match args.value("jobs") {
        None => Ok(1),
        Some("0") => Ok(pdbt_par::Pool::auto().jobs()),
        Some(n) => n.parse::<usize>().map_err(|e| format!("bad --jobs: {e}")),
    }
}

/// The `--backend model|threaded` host executor; `None` keeps the
/// engine default (threaded, or the `PDBT_BACKEND` env override).
fn backend_of(args: &Args) -> Result<Option<BackendKind>, String> {
    match args.value("backend") {
        None => Ok(None),
        Some(s) => BackendKind::parse(s)
            .map(Some)
            .ok_or_else(|| format!("bad --backend: {s} (expected model or threaded)")),
    }
}

fn load_program(path: &str) -> Result<Program, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let insts = parse_listing(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(Program::new(0x1000, insts))
}

/// Installs the fault-injection plan from `--faults SPEC` or the
/// `PDBT_FAULTS` env var (flag wins). A plan on a binary built without
/// the `faults` feature warns and stays inert.
fn configure_faults(args: &Args) -> Result<(), String> {
    let active = match args.value("faults") {
        Some(spec) => {
            let plan = pdbt_faults::Plan::parse(spec).map_err(|e| format!("bad --faults: {e}"))?;
            pdbt_faults::configure(Some(plan));
            true
        }
        None => pdbt_faults::configure_from_env().map_err(|e| format!("bad PDBT_FAULTS: {e}"))?,
    };
    if active && !pdbt_faults::ENABLED {
        eprintln!(
            "warning: fault plan given, but this binary was built without the `faults` \
             feature; no faults will be injected"
        );
    }
    Ok(())
}

/// Loads a rule store in salvage mode: malformed (or fault-corrupted)
/// entries are quarantined with a warning instead of failing the load.
/// Returns the surviving rules plus the quarantine count.
fn load_rules_file(path: &str) -> Result<(RuleSet, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (rules, quarantined) = load_rules_salvage(&text);
    for q in &quarantined {
        eprintln!(
            "warning: {path}:{}: quarantined rule entry: {}",
            q.line, q.reason
        );
    }
    if !quarantined.is_empty() {
        eprintln!(
            "warning: {path}: salvage mode kept {} rules (+{} sequences), quarantined {} entries",
            rules.len(),
            rules.seq_len(),
            quarantined.len()
        );
    }
    Ok((rules, quarantined.len() as u64))
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let out = args.value("out").ok_or("train needs -o FILE")?;
    configure_faults(args)?;
    let scale = scale_of(args);
    let exclude = match args.value("exclude") {
        Some(name) => Some(bench_of(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?),
        None => None,
    };
    eprintln!("building the synthetic suite…");
    let suite = pdbt::workloads::suite(scale);
    let learned = match exclude {
        Some(b) => train_excluding(&suite, b, LearnConfig::default()),
        None => {
            let mut all = RuleSet::new();
            for w in &suite {
                let mut r = RuleSet::new();
                pdbt::core::learning::learn_into(&mut r, &w.pair, &w.debug, LearnConfig::default());
                all.merge(r);
            }
            all
        }
    };
    eprintln!(
        "learned {} rules (+{} sequences)",
        learned.len(),
        learned.seq_len()
    );
    let rules = if args.has("no-param") {
        learned
    } else {
        let jobs = jobs_of(args)?;
        let (full, stats) = derive_jobs(
            &learned,
            DeriveConfig::full(),
            CheckOptions::default(),
            jobs,
        );
        eprintln!(
            "parameterized to {} applicable rules ({} derived, {} rejected, {} verification jobs)",
            stats.instantiated, stats.derived, stats.rejected, jobs
        );
        if stats.quarantined > 0 || stats.fuel_exhausted > 0 {
            eprintln!(
                "degraded: {} candidates quarantined, {} verifications fuel-exhausted",
                stats.quarantined, stats.fuel_exhausted
            );
        }
        full
    };
    std::fs::write(out, save_rules(&rules)).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

/// `pdbt compile`: run the translate pipeline over one guest image and
/// seal everything a warm boot needs — ruleset, translated blocks,
/// superblock traces, guest-image fingerprint — into a `.pdba`
/// artifact for `pdbt serve --artifact-dir`.
///
/// The rules sealed in come from `--rules FILE` when given, from a
/// fresh train-and-parameterize pass over the synthetic suite by
/// default, or nowhere (`--baseline`, the pure QEMU-path engine).
fn cmd_compile(args: &Args) -> Result<(), String> {
    let out = args.value("out").ok_or("compile needs -o FILE.pdba")?;
    let target = args
        .positional
        .first()
        .ok_or("compile needs a WORKLOAD name or a PROG.s file")?;
    configure_faults(args)?;
    let jobs = jobs_of(args)?;

    // Resolve the guest image exactly like `serve` will, so the sealed
    // fingerprint matches the serving partition.
    let (prog, setup, default_label) = match bench_of(target) {
        Some(bench) => {
            let scale = match args.value("scale") {
                Some("full") => Scale::full(),
                _ => Scale::tiny(),
            };
            let scale_name = if args.value("scale") == Some("full") {
                "full"
            } else {
                "tiny"
            };
            eprintln!("building {target}/{scale_name}…");
            let w = pdbt::workloads::build(bench, scale);
            let setup = w.setup();
            (
                w.pair.guest.program.clone(),
                setup,
                format!("{target}/{scale_name}"),
            )
        }
        None => {
            let prog = load_program(target)?;
            let setup = RunSetup::basic(DATA_BASE, 0x1000, 0x8_0000, 0x1000);
            (prog, setup, "inline".to_string())
        }
    };
    let label = args.value("label").unwrap_or(&default_label);

    let rules = if let Some(p) = args.value("rules") {
        Some(load_rules_file(p)?.0)
    } else if args.has("baseline") {
        None
    } else {
        eprintln!("training over the synthetic suite…");
        let suite = pdbt::workloads::suite(Scale::tiny());
        let mut learned = RuleSet::new();
        for w in &suite {
            let mut r = RuleSet::new();
            pdbt::core::learning::learn_into(&mut r, &w.pair, &w.debug, LearnConfig::default());
            learned.merge(r);
        }
        if args.has("no-param") {
            Some(learned)
        } else {
            let (full, stats) = derive_jobs(
                &learned,
                DeriveConfig::full(),
                CheckOptions::default(),
                jobs,
            );
            eprintln!(
                "parameterized to {} applicable rules ({} derived, {} rejected)",
                stats.instantiated, stats.derived, stats.rejected
            );
            Some(full)
        }
    };

    let mut cfg = EngineConfig {
        jobs,
        ..EngineConfig::default()
    };
    if let Some(b) = backend_of(args)? {
        cfg.backend = b;
    }
    let artifact = pdbt::artifact::compile(&prog, rules.as_ref(), &setup, cfg, label)?;
    let bytes = pdbt::artifact::seal(&artifact);
    std::fs::write(out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "sealed {out}: image {:016x} ({label}), {} blocks, {} traces, {} rules, {} bytes",
        artifact.fingerprint(),
        artifact.blocks.len(),
        artifact.traces.len(),
        artifact.rules.as_ref().map_or(0, |r| r.len() + r.seq_len()),
        bytes.len()
    );
    Ok(())
}

/// Runs a guest program and returns its report (shared by `run` and
/// `stats`).
fn execute(args: &Args, verb: &str) -> Result<Report, String> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| format!("{verb} needs a program file"))?;
    let prog = load_program(path)?;
    configure_faults(args)?;
    let (rules, quarantined_rules) = match args.value("rules") {
        Some(p) => {
            let (r, q) = load_rules_file(p)?;
            (Some(r), q)
        }
        None => (None, 0),
    };
    let mut cfg = EngineConfig::default();
    cfg.translate.flag_delegation = !args.has("no-delegation");
    cfg.jobs = jobs_of(args)?;
    cfg.chaining = !args.has("no-chain");
    cfg.traces = !args.has("no-trace");
    if let Some(n) = args.value("trace-threshold") {
        cfg.trace_threshold = n
            .parse::<u32>()
            .map_err(|e| format!("bad --trace-threshold: {e}"))?;
    }
    if let Some(b) = backend_of(args)? {
        cfg.backend = b;
    }
    let mut engine = Engine::new(rules, cfg);
    engine.resilience_mut().quarantined_rules = quarantined_rules;
    let setup = RunSetup::basic(DATA_BASE, 0x1000, 0x8_0000, 0x1000);
    engine.run(&prog, &setup).map_err(|e| e.to_string())
}

/// Maps a non-`Completed` outcome to a process-level error *after* the
/// partial report has been printed and exported.
fn outcome_err(report: &Report) -> Result<(), String> {
    match &report.outcome {
        Outcome::Completed => Ok(()),
        Outcome::Budget => {
            Err("guest instruction budget exhausted (partial report emitted)".into())
        }
        Outcome::Deadline => Err("deadline exceeded (partial report emitted)".into()),
        Outcome::Exec(e) => Err(format!("execution fault: {e} (partial report emitted)")),
    }
}

/// Handles `--report-json FILE` and `--trace-out FILE`.
fn export_report(args: &Args, report: &Report) -> Result<(), String> {
    if let Some(out) = args.value("report-json") {
        std::fs::write(out, format!("{}\n", report.to_json()))
            .map_err(|e| format!("{out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    if let Some(out) = args.value("trace-out") {
        let (events, dropped) = pdbt::obs::drain_events();
        if !pdbt::obs::ENABLED {
            eprintln!("warning: built without the `obs` feature; trace is empty");
        } else if dropped > 0 {
            eprintln!("warning: trace ring overflowed, {dropped} early events dropped");
        }
        std::fs::write(out, export_chrome_trace(&events)).map_err(|e| format!("{out}: {e}"))?;
        eprintln!("wrote {out} ({} events)", events.len());
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let report = execute(args, "run")?;
    for v in &report.output {
        println!("{v}");
    }
    if args.has("stats") {
        eprintln!("{}", report.metrics);
    }
    export_report(args, &report)?;
    outcome_err(&report)
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let report = execute(args, "stats")?;
    println!("metrics");
    println!("{}", report.metrics);
    let rules = &report.obs.rules;
    if rules.rows().is_empty() {
        println!("\nno rule attribution (ran without --rules)");
    } else {
        println!("\nper-rule attribution\n{rules}");
        println!("coverage by subgroup");
        for (subgroup, covered) in rules.coverage_by_subgroup() {
            println!("  {subgroup:<24} {covered:>12}");
        }
    }
    let misses = rules.misses();
    if !misses.is_empty() {
        let mut rows: Vec<_> = misses.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        println!("\ntop lookup misses");
        for (label, n) in rows.into_iter().take(10) {
            println!("  {label:<40} {n:>8}");
        }
    }
    if pdbt::obs::ENABLED {
        println!("\ntranslate latency (ns)\n{}", report.obs.translate_ns);
    }
    println!(
        "\nhost instructions per block execution\n{}",
        report.obs.block_host_len
    );
    println!(
        "\nflag-delegation window depth (catch-all = env fallback)\n{}",
        report.obs.deleg_depth
    );
    let d = &report.obs.dispatch;
    println!("\ndispatch (backend: {})", report.backend);
    println!(
        "  threaded compile  {:>12} blocks, {} ns",
        d.compiled_blocks, d.compile_ns
    );
    println!(
        "  jump cache        {:>12} hits, {} misses",
        d.jump_cache_hits, d.jump_cache_misses
    );
    println!(
        "  chaining          {:>12} followed, {} links resolved",
        d.chain_followed, d.links_resolved
    );
    println!(
        "  traces            {:>12} formed, {} superblock executions",
        d.traces_formed, d.trace_execs
    );
    println!("  invalidations     {:>12}", d.invalidations);
    let res = &report.resilience;
    if *res != Resilience::default() || report.outcome != Outcome::Completed {
        println!("\nresilience (outcome: {})", report.outcome.label());
        for (name, n) in Resilience::FIELDS.iter().zip(res.values()) {
            println!("  {:<22} {n:>12}", name.replace('_', " "));
        }
        for s in pdbt_faults::Site::ALL {
            if res.injected[s.index()] > 0 {
                println!(
                    "  injected[{:<7}]      {:>12}",
                    s.name(),
                    res.injected[s.index()]
                );
            }
        }
    }
    export_report(args, &report)?;
    outcome_err(&report)
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("trace needs a program file")?;
    let prog = load_program(path)?;
    let rules = match args.value("rules") {
        Some(p) => Some(load_rules_file(p)?.0),
        None => None,
    };
    let addr = match args.value("addr") {
        Some(hex) => u32::from_str_radix(hex.trim_start_matches("0x"), 16)
            .map_err(|e| format!("bad --addr: {e}"))?,
        None => prog.base(),
    };
    let block = translate_block(&prog, addr, rules.as_ref(), &TranslateConfig::default())
        .map_err(|e| e.to_string())?;
    println!(
        "block {:#x}: {} guest instructions, {} rule-covered, {} host instructions",
        addr,
        block.guest_len,
        block.rule_covered,
        block.code.len()
    );
    for (inst, class) in block.code.iter().zip(&block.classes) {
        let tag = match class {
            CodeClass::RuleCore => "rule",
            CodeClass::QemuCore => "qemu",
            CodeClass::DataTransfer => "data",
            CodeClass::Control => "ctrl",
        };
        println!("  [{tag}] {inst}");
    }
    Ok(())
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    let scale = scale_of(args);
    let only = args.positional.first().map(String::as_str);
    let suite = pdbt::workloads::suite(scale);
    println!(
        "{:<12}{:>10}{:>12}{:>10}",
        "benchmark", "coverage", "host/guest", "speedup"
    );
    for w in &suite {
        if let Some(name) = only {
            if w.bench.name() != name {
                continue;
            }
        }
        let golden = run_reference(w).map_err(|e| e.to_string())?;
        let learned = train_excluding(&suite, w.bench, LearnConfig::default());
        let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        let qemu = run_dbt(w, None, true).map_err(|e| e.to_string())?;
        let para = run_dbt(w, Some(full), true).map_err(|e| e.to_string())?;
        if qemu.output != golden || para.output != golden {
            return Err(format!("{}: output mismatch", w.bench));
        }
        println!(
            "{:<12}{:>9.1}%{:>12.2}{:>9.2}x",
            w.bench.name(),
            para.metrics.coverage() * 100.0,
            para.metrics.total_ratio(),
            qemu.metrics.host_executed() as f64 / para.metrics.host_executed() as f64,
        );
    }
    Ok(())
}

/// Default daemon address shared by `serve` and `submit`.
const SERVE_ADDR: &str = "127.0.0.1:7411";

fn parse_u64_flag(args: &Args, name: &str) -> Result<Option<u64>, String> {
    match args.value(name) {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|e| format!("bad --{name}: {e}")),
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.value("addr").unwrap_or(SERVE_ADDR);
    let mut cfg = pdbt_serve::ServeConfig::default();
    if let Some(p) = args.value("rules") {
        cfg.rules = Some(load_rules_file(p)?.0);
    }
    if args.has("jobs") {
        cfg.jobs = jobs_of(args)?;
    }
    if let Some(b) = backend_of(args)? {
        cfg.backend = b;
    }
    cfg.default_deadline_ms = parse_u64_flag(args, "deadline-ms")?;
    cfg.flight_path = Some(args.value("flight-out").unwrap_or("flight.json").into());
    cfg.artifact_dir = args.value("artifact-dir").map(Into::into);
    cfg.peers = args
        .values("peer")
        .iter()
        .map(ToString::to_string)
        .collect();
    cfg.replicate_interval =
        parse_u64_flag(args, "replicate-interval")?.map(std::time::Duration::from_secs);
    let server = pdbt_serve::Server::bind(addr, cfg).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // Scripts scrape this line for the real port when binding to :0.
    println!(
        "pdbt-serve listening on {local} ({} session workers)",
        server.jobs()
    );
    let summary = server.serve().map_err(|e| e.to_string())?;
    eprintln!(
        "drained: served {} requests, {} panicked sessions",
        summary.requests, summary.panicked
    );
    if summary.panicked > 0 {
        return Err(format!("{} sessions panicked", summary.panicked));
    }
    Ok(())
}

/// `pdbt sync PEER -o DIR`: mirror a running daemon's sealed artifacts
/// into a directory. Each advertisement is pulled, validated against
/// the wire trust boundary, and written as `{fingerprint}-g{N}.pdba`,
/// so the directory is directly usable as another daemon's
/// `--artifact-dir`.
fn cmd_sync(args: &Args) -> Result<(), String> {
    let peer = args.positional.first().ok_or("sync needs a PEER address")?;
    let dir = std::path::PathBuf::from(args.value("out").ok_or("sync needs -o DIR")?);
    let timeout = std::time::Duration::from_secs(parse_u64_flag(args, "timeout-s")?.unwrap_or(120));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ads = pdbt_serve::list_artifacts(peer.as_str(), timeout).map_err(|e| e.to_string())?;
    if ads.is_empty() {
        eprintln!("{peer}: no sealed artifacts to sync");
        return Ok(());
    }
    for ad in &ads {
        let pulled = pdbt_serve::pull_artifact(peer.as_str(), ad.fingerprint, timeout)
            .map_err(|e| format!("pull {:016x}: {e}", ad.fingerprint))?;
        pdbt::fleet::validate(&pulled.bytes, ad.fingerprint)
            .map_err(|(reason, _)| format!("pull {:016x}: {reason}", ad.fingerprint))?;
        let name = pdbt::fleet::artifact_file_name(pulled.fingerprint, pulled.generation);
        let path = dir.join(&name);
        std::fs::write(&path, &pulled.bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "synced {name}: {} ({} bytes)",
            pulled.label,
            pulled.bytes.len()
        );
    }
    eprintln!(
        "synced {} artifacts from {peer} into {}",
        ads.len(),
        dir.display()
    );
    Ok(())
}

fn cmd_submit(args: &Args) -> Result<(), String> {
    let addr = args.value("addr").unwrap_or(SERVE_ADDR).to_string();
    let timeout = std::time::Duration::from_secs(parse_u64_flag(args, "timeout-s")?.unwrap_or(120));
    if args.has("ping") {
        let pong = pdbt_serve::ping(&addr, timeout).map_err(|e| e.to_string())?;
        println!("{pong}");
        return Ok(());
    }
    if args.has("shutdown") {
        let ack = pdbt_serve::shutdown(&addr, timeout).map_err(|e| e.to_string())?;
        println!("{ack}");
        return Ok(());
    }
    if args.has("stats") {
        let snap = pdbt_serve::stats(&addr, timeout).map_err(|e| e.to_string())?;
        print_stats(&snap);
        if let Some(path) = args.value("report-json") {
            std::fs::write(path, format!("{snap}\n")).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        return Ok(());
    }

    let mut req = vec![("id".to_string(), Json::from(std::process::id() as u64))];
    if let Some(name) = args.value("workload") {
        req.push(("workload".to_string(), Json::str(name)));
        req.push((
            "scale".to_string(),
            Json::str(args.value("scale").unwrap_or("tiny")),
        ));
    } else if let Some(path) = args.positional.first() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        req.push(("program".to_string(), Json::str(text)));
    } else {
        return Err("submit needs a PROG.s file or --workload BENCH".into());
    }
    if let Some(n) = parse_u64_flag(args, "max-guest")? {
        req.push(("max_guest".to_string(), Json::from(n)));
    }
    if let Some(n) = parse_u64_flag(args, "deadline-ms")? {
        req.push(("deadline_ms".to_string(), Json::from(n)));
    }
    if let Some(spec) = args.value("faults") {
        req.push(("faults".to_string(), Json::str(spec)));
    }
    if args.has("no-delegation") {
        req.push(("no_delegation".to_string(), Json::from(true)));
    }
    let request = Json::Obj(req.into_iter().collect());
    let resp = pdbt_serve::submit(&addr, &request, timeout).map_err(|e| e.to_string())?;

    let report = resp.get("report").ok_or("response carried no report")?;
    if let Some(out) = report.get("output").and_then(Json::as_arr) {
        for v in out {
            println!("{v}");
        }
    }
    if let Some(path) = args.value("report-json") {
        std::fs::write(path, format!("{report}\n")).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    match resp.get("outcome").and_then(Json::as_str) {
        Some("completed") => Ok(()),
        Some(other) => Err(format!(
            "run ended early: {other} (partial report received)"
        )),
        None => Err("response carried no outcome".into()),
    }
}

/// Human-scale duration: picks ns/µs/ms/s by magnitude.
fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        10_000_000..=9_999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Renders a STATS snapshot as a terminal table.
fn print_stats(snap: &Json) {
    let u = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(0);
    let f = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "pdbt-serve stats  seq {}  uptime {}  workers {}  outstanding {}",
        u(snap.get("stats_seq")),
        fmt_ns(u(snap.get("uptime_ns"))),
        u(snap.get("jobs")),
        u(snap.get("outstanding")),
    );
    let sess = snap.get("sessions");
    let pool = snap.get("pool");
    println!(
        "sessions  served {}  active {}  panicked {}  queue high-water {}",
        u(sess.and_then(|s| s.get("served"))),
        u(sess.and_then(|s| s.get("active"))),
        u(sess.and_then(|s| s.get("panicked"))),
        u(pool.and_then(|p| p.get("high_water"))),
    );
    let srv = snap.get("server");
    println!(
        "cache     probes {}  inserted {}  hits {}  hit rate {:.1}%  compiled {}",
        u(srv.and_then(|s| s.get("probes"))),
        u(srv.and_then(|s| s.get("inserted"))),
        u(srv.and_then(|s| s.get("hits"))),
        100.0 * f(srv.and_then(|s| s.get("hit_rate"))),
        u(srv.and_then(|s| s.get("compiled_blocks"))),
    );
    let lat = snap.get("latency").and_then(|l| l.get("request_ns"));
    println!(
        "latency   count {}  p50 {}  p95 {}  p99 {}",
        u(lat.and_then(|l| l.get("count"))),
        fmt_ns(u(lat.and_then(|l| l.get("p50")))),
        fmt_ns(u(lat.and_then(|l| l.get("p95")))),
        fmt_ns(u(lat.and_then(|l| l.get("p99")))),
    );
    if let Some(parts) = snap.get("partitions").and_then(Json::as_arr) {
        if !parts.is_empty() {
            println!(
                "\n{:<16}  {:>8}  {:>6}  {:>7}  {:>9}  {:>9}  {:>9}  label",
                "partition", "sessions", "hits", "probes", "p50", "p95", "p99"
            );
            for p in parts {
                let lat = p.get("latency");
                println!(
                    "{:<16}  {:>8}  {:>6}  {:>7}  {:>9}  {:>9}  {:>9}  {}",
                    p.get("partition").and_then(Json::as_str).unwrap_or("?"),
                    u(p.get("sessions")),
                    u(p.get("hits")),
                    u(p.get("probes")),
                    fmt_ns(u(lat.and_then(|l| l.get("p50")))),
                    fmt_ns(u(lat.and_then(|l| l.get("p95")))),
                    fmt_ns(u(lat.and_then(|l| l.get("p99")))),
                    p.get("label").and_then(Json::as_str).unwrap_or("?"),
                );
            }
        }
    }
    if let Some(flight) = snap.get("flight").and_then(Json::as_arr) {
        println!("\nflight tail ({} recent requests)", flight.len());
        for e in flight {
            let ph = e.get("phases");
            println!(
                "  #{:<5} {:<10} total {:>9}  queue {:>9}  translate {:>9}  reply {}B",
                u(e.get("seq")),
                e.get("outcome").and_then(Json::as_str).unwrap_or("?"),
                fmt_ns(u(ph.and_then(|p| p.get("total_ns")))),
                fmt_ns(u(ph.and_then(|p| p.get("queue_ns")))),
                fmt_ns(u(ph.and_then(|p| p.get("translate_ns")))),
                u(e.get("reply_bytes")),
            );
        }
    }
}

fn cmd_loadgen(args: &Args) -> Result<(), String> {
    let mut cfg = pdbt_serve::LoadgenConfig::default();
    if let Some(addr) = args.value("addr") {
        cfg.addr = addr
            .parse()
            .map_err(|e| format!("bad --addr {addr}: {e}"))?;
    }
    if let Some(n) = parse_u64_flag(args, "sessions")? {
        cfg.sessions = n as usize;
    }
    if let Some(n) = parse_u64_flag(args, "requests")? {
        cfg.requests = n as usize;
    }
    if let Some(n) = parse_u64_flag(args, "hot")? {
        cfg.hot = n as usize;
    }
    if let Some(n) = parse_u64_flag(args, "tail")? {
        cfg.tail = n as usize;
    }
    if let Some(n) = parse_u64_flag(args, "seed")? {
        cfg.seed = n;
    }
    if let Some(n) = parse_u64_flag(args, "poll-ms")? {
        cfg.poll_ms = n;
    }
    if let Some(n) = parse_u64_flag(args, "timeout-s")? {
        cfg.timeout = std::time::Duration::from_secs(n);
    }
    eprintln!(
        "loadgen: {} requests over {} sessions ({} hot + {} tail images, seed {}) -> {}",
        cfg.requests, cfg.sessions, cfg.hot, cfg.tail, cfg.seed, cfg.addr
    );
    let report = pdbt_serve::loadgen::run(&cfg)?;
    println!(
        "ok {}  failed {}  p50 {}  p99 {}  {:.1} sessions/s  warm-hit {:.1}%  ({} STATS polls)",
        report.ok,
        report.failed,
        fmt_ns(report.p50_ns),
        fmt_ns(report.p99_ns),
        report.sessions_per_sec,
        100.0 * report.warm_hit_ratio,
        report.stats_polls,
    );
    let out = args.value("out").unwrap_or("BENCH_serve.json");
    std::fs::write(out, format!("{}\n", report.to_json(&cfg)))
        .map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().map(String::as_str) else {
        return usage();
    };
    let args = Args::parse(
        &raw[1..],
        &[
            "scale",
            "exclude",
            "rules",
            "addr",
            "jobs",
            "faults",
            "report-json",
            "trace-out",
            "trace-threshold",
            "backend",
            "workload",
            "max-guest",
            "deadline-ms",
            "timeout-s",
            "flight-out",
            "sessions",
            "requests",
            "hot",
            "tail",
            "seed",
            "poll-ms",
            "out",
            "label",
            "artifact-dir",
            "peer",
            "replicate-interval",
        ],
    );
    let result = match cmd {
        "train" => cmd_train(&args),
        "compile" => cmd_compile(&args),
        "run" => cmd_run(&args),
        "stats" => cmd_stats(&args),
        "trace" => cmd_trace(&args),
        "bench" => cmd_bench(&args),
        "serve" => cmd_serve(&args),
        "sync" => cmd_sync(&args),
        "submit" => cmd_submit(&args),
        "loadgen" => cmd_loadgen(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
