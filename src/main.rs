//! `pdbt` — command-line front end for the parameterized learning-based
//! DBT.
//!
//! `pdbt` with no arguments prints the synopsis: one line per subcommand,
//! which is that subcommand's entry in the `COMMANDS` table below — the
//! parser reads the same text, so an unknown flag, a value flag without
//! its value, or an unknown scale, benchmark or experiment name exits 2
//! with the line it broke.
//!
//! `experiments` prints the paper's evaluation — every table and figure
//! of §V, or the ones named by ID (`pdbt experiments nosuch` lists the
//! IDs) — from one memoized `pdbt::workloads::Experiment`; EXPERIMENTS.md
//! is the record of its `--scale full` output.
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
//! `threaded`, or what the `PDBT_BACKEND` env var names — any other
//! value exits 2, as a misspelt flag does): `threaded`
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
use pdbt::core::derive::{derive_jobs, DeriveConfig};
use pdbt::core::{load_rules_salvage, save_rules, RuleSet};
use pdbt::obs::json::Json;
use pdbt::obs::trace::export_chrome_trace;
use pdbt::runtime::{
    translate_block, BackendKind, CodeClass, Engine, EngineConfig, RunSetup, TranslateConfig,
};
use pdbt::runtime::{Outcome, Report, Resilience};
use pdbt::workloads::{learn_suite, Benchmark, Experiment, Scale, EXPERIMENTS};
use pdbt_symexec::CheckOptions;
use std::process::ExitCode;

const DATA_BASE: u32 = 0x10_0000;

/// Why a subcommand stopped: a mistake on the command line (exit 2,
/// with that subcommand's usage line) or a failed run (exit 1).
enum Fail {
    Usage(String),
    Run(String),
}

impl<S: Into<String>> From<S> for Fail {
    fn from(e: S) -> Fail {
        Fail::Run(e.into())
    }
}

type Cmd = (&'static str, &'static str, fn(&Args) -> Result<(), Fail>);

macro_rules! engine_flags {
    () => {
        "[--rules FILE] [--no-delegation] [--jobs N] [--no-chain] [--no-trace] \
         [--trace-threshold N] [--backend model|threaded] [--faults SPEC] [--report-json FILE] \
         [--trace-out FILE]"
    };
}

/// Every subcommand: name, usage, entry point. The usage text is also
/// the flag table: `[--name]` declares a switch, `[--name VALUE]` (or
/// `-o VALUE`, the short form of `--out`) a flag that takes a value, and
/// a text that does not open with a flag takes positional arguments.
const COMMANDS: [Cmd; 10] = [
    (
        "train",
        "[--scale tiny|full] [--exclude BENCH] [--no-param] [--jobs N] [--faults SPEC] -o FILE",
        cmd_train,
    ),
    (
        "run",
        concat!("PROG.s [--stats] ", engine_flags!()),
        cmd_run,
    ),
    ("stats", concat!("PROG.s ", engine_flags!()), cmd_stats),
    ("trace", "PROG.s [--rules FILE] [--addr HEX]", cmd_trace),
    (
        "experiments",
        "[ID]... [--scale tiny|full]",
        cmd_experiments,
    ),
    (
        "compile",
        "WORKLOAD|PROG.s [--scale tiny|full] [--rules FILE] [--baseline] [--no-param] [--jobs N] \
         [--backend model|threaded] [--faults SPEC] [--label NAME] -o FILE.pdba",
        cmd_compile,
    ),
    (
        "serve",
        "[--addr HOST:PORT] [--rules FILE] [--jobs N] [--backend model|threaded] \
         [--deadline-ms N] [--flight-out FILE] [--artifact-dir DIR] [--peer ADDR]... \
         [--replicate-interval SECS]",
        cmd_serve,
    ),
    ("sync", "PEER [--timeout-s N] -o DIR", cmd_sync),
    (
        "submit",
        "[PROG.s] [--addr HOST:PORT] [--workload BENCH] [--scale tiny|full] [--max-guest N] \
         [--deadline-ms N] [--faults SPEC] [--no-delegation] [--timeout-s N] \
         [--report-json FILE] [--ping] [--shutdown] [--stats]",
        cmd_submit,
    ),
    (
        "loadgen",
        "[--addr HOST:PORT] [--sessions N] [--requests N] [--hot N] [--tail N] [--seed N] \
         [--poll-ms N] [--timeout-s N] [-o FILE]",
        cmd_loadgen,
    ),
];

fn usage() -> ExitCode {
    eprintln!("usage:");
    for (name, usage, _) in &COMMANDS {
        eprintln!("  pdbt {name} {usage}");
    }
    ExitCode::from(2)
}

/// A parsed command line: positional arguments and flag values.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `raw` against a subcommand's usage text; an unknown flag,
    /// a value flag without its value and a stray positional are errors.
    fn parse(usage: &str, raw: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let name = match a.strip_prefix("--") {
                Some(name) => name,
                None if a == "-o" => "out",
                None if usage.starts_with("[--") => {
                    return Err(format!("unexpected argument `{a}`"))
                }
                None => {
                    positional.push(a.clone());
                    continue;
                }
            };
            // `[--name` or `-o` opens a flag with a value, `[--name]` is a switch.
            let takes_value = usage
                .split(' ')
                .find_map(|word| {
                    let open = word.trim_start_matches('[');
                    let bare = open.trim_end_matches(']');
                    let declared = bare
                        .strip_prefix("--")
                        .or((bare == "-o").then_some("out"))?;
                    (declared == name).then_some(open == bare)
                })
                .ok_or_else(|| format!("unknown flag `{a}`"))?;
            let value = match takes_value.then(|| it.next()) {
                None => None,
                Some(Some(v)) if !v.starts_with("--") => Some(v.clone()),
                Some(_) => return Err(format!("`{a}` needs a value")),
            };
            flags.push((name.to_string(), value));
        }
        Ok(Args { positional, flags })
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

/// `--scale tiny|full` for the subcommands where absent means full.
fn scale_of(args: &Args) -> Result<Scale, Fail> {
    Scale::from_name(args.value("scale").unwrap_or("full")).map_err(Fail::Usage)
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

/// The training pass behind `train` and `compile`: learns the suite at
/// `scale` (all of it but `exclude`) and, unless `--no-param`,
/// parameterizes the result on `--jobs` verification workers.
fn train(args: &Args, scale: Scale, exclude: Option<Benchmark>) -> Result<RuleSet, String> {
    eprintln!("building the synthetic suite…");
    let learned = learn_suite(&pdbt::workloads::suite(scale), exclude);
    eprintln!(
        "learned {} rules (+{} sequences)",
        learned.len(),
        learned.seq_len()
    );
    if args.has("no-param") {
        return Ok(learned);
    }
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
    Ok(full)
}

fn cmd_train(args: &Args) -> Result<(), Fail> {
    let out = args.value("out").ok_or("train needs -o FILE")?;
    configure_faults(args)?;
    let exclude = args.value("exclude").map(Benchmark::from_name).transpose();
    let rules = train(args, scale_of(args)?, exclude.map_err(Fail::Usage)?)?;
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
fn cmd_compile(args: &Args) -> Result<(), Fail> {
    let out = args.value("out").ok_or("compile needs -o FILE.pdba")?;
    let target = args
        .positional
        .first()
        .ok_or("compile needs a WORKLOAD name or a PROG.s file")?;
    configure_faults(args)?;
    let jobs = jobs_of(args)?;

    // Resolve the guest image exactly like `serve` will, so the sealed
    // fingerprint matches the serving partition.
    let (prog, setup, default_label) = match Benchmark::from_name(target) {
        Ok(bench) => {
            let scale_name = args.value("scale").unwrap_or("tiny");
            let scale = Scale::from_name(scale_name).map_err(Fail::Usage)?;
            eprintln!("building {target}/{scale_name}…");
            let w = pdbt::workloads::build(bench, scale);
            let setup = w.setup();
            (
                w.pair.guest.program.clone(),
                setup,
                format!("{target}/{scale_name}"),
            )
        }
        Err(_) => {
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
        Some(train(args, Scale::tiny(), None)?)
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
fn outcome_err(report: &Report) -> Result<(), Fail> {
    match &report.outcome {
        Outcome::Completed => Ok(()),
        Outcome::Budget => {
            Err("guest instruction budget exhausted (partial report emitted)".into())
        }
        Outcome::Deadline => Err("deadline exceeded (partial report emitted)".into()),
        Outcome::Exec(e) => Err(format!("execution fault: {e} (partial report emitted)").into()),
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

fn cmd_run(args: &Args) -> Result<(), Fail> {
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

fn cmd_stats(args: &Args) -> Result<(), Fail> {
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

fn cmd_trace(args: &Args) -> Result<(), Fail> {
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

/// `pdbt experiments [ID]...`: the paper's evaluation, all of it or the
/// named tables and figures, printed from one [`Experiment`].
fn cmd_experiments(args: &Args) -> Result<(), Fail> {
    let mut views = Vec::new();
    for id in &args.positional {
        views.push(EXPERIMENTS.iter().find(|e| e.0 == id).ok_or_else(|| {
            let ids = EXPERIMENTS.map(|e| e.0).join("\n  ");
            Fail::Usage(format!("unknown experiment `{id}`; the IDs are\n  {ids}"))
        })?);
    }
    if views.is_empty() {
        views.extend(&EXPERIMENTS);
    }
    let mut exp = Experiment::new(scale_of(args)?);
    for (_, view) in views {
        view(&mut exp, &mut std::io::stdout().lock()).map_err(|e| e.to_string())?;
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

fn cmd_serve(args: &Args) -> Result<(), Fail> {
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
        return Err(format!("{} sessions panicked", summary.panicked).into());
    }
    Ok(())
}

/// `pdbt sync PEER -o DIR`: mirror a running daemon's sealed artifacts
/// into a directory. Each advertisement is pulled, validated against
/// the wire trust boundary, and written as `{fingerprint}-g{N}.pdba`,
/// so the directory is directly usable as another daemon's
/// `--artifact-dir`.
fn cmd_sync(args: &Args) -> Result<(), Fail> {
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

fn cmd_submit(args: &Args) -> Result<(), Fail> {
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
        let scale = args.value("scale").unwrap_or("tiny");
        Benchmark::from_name(name).map_err(Fail::Usage)?;
        Scale::from_name(scale).map_err(Fail::Usage)?;
        req.push(("workload".to_string(), Json::str(name)));
        req.push(("scale".to_string(), Json::str(scale)));
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
        Some(other) => Err(format!("run ended early: {other} (partial report received)").into()),
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

fn cmd_loadgen(args: &Args) -> Result<(), Fail> {
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
    let Some((name, usage, run)) = raw
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.0 == name))
    else {
        return usage();
    };
    match BackendKind::from_env()
        .and_then(|_| Args::parse(usage, &raw[1..]))
        .map_err(Fail::Usage)
        .and_then(|args| run(&args))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(Fail::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(Fail::Usage(e)) => {
            eprintln!("error: {e}\nusage: pdbt {name} {usage}");
            ExitCode::from(2)
        }
    }
}
