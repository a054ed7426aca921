//! `ledger` — the repo's one benchmark: end-to-end wall-clock for
//! run / train / serve / boot, with a per-layer ledger under it.
//! README.md beside this package explains the protocol and every name.

mod child;
mod layers;
mod noise;
mod report;
mod setup;
mod spans;
mod spec;
mod stats;
mod workloads;

use child::{Request, RoundResult};
use pdbt_obs::json::Json;
use report::{Headline, WorkloadRun};
use setup::Size;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: ledger [--seed N] [--smoke] [--layers] [--check-repeat]
       ledger --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
       ledger --print-benchmark-json

With no --workload, runs every workload round-robin for 12 rounds, checks
every output against the reference interpreter, prints every metric and
writes result.json (with --layers also trace.json) under target/ledger/.
  --smoke         2 rounds of a fraction of the work at Scale::tiny
  --layers        add the per-layer probes and traced rounds of every workload
  --check-repeat  run the set twice and compare against each metric's bound";

#[derive(Debug, Default)]
struct Args {
    seed: u64,
    smoke: bool,
    layers: bool,
    check_repeat: bool,
    print_benchmark_json: bool,
    workload: Option<&'static str>,
    seconds: Option<u64>,
    trace: bool,
    /// Set by this binary when it re-executes itself: the workload (or
    /// `layers`) this process runs one round of.
    child: Option<String>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            seed: 1,
            ..Args::default()
        };
        let mut argv = argv.peekable();
        while let Some(flag) = argv.next() {
            let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--smoke" => args.smoke = true,
                "--layers" => args.layers = true,
                "--check-repeat" => args.check_repeat = true,
                "--print-benchmark-json" => args.print_benchmark_json = true,
                "--seed" => args.seed = number(&value("a number")?)?,
                "--seconds" => args.seconds = Some(number(&value("a number")?)?),
                "--trace" => args.trace = number(&value("0 or 1")?)? != 0,
                "--workload" => {
                    let name = value("a workload name")?;
                    let known = spec::WORKLOADS.iter().find(|w| w.name == name);
                    args.workload = Some(known.ok_or(format!("no workload named {name}"))?.name);
                }
                "--child" => args.child = Some(value("a workload name")?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }
}

fn number(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("{s} is not a whole number"))
}

/// What every child of one invocation shares.
struct Session {
    seed: u64,
    size: Size,
    out: PathBuf,
}

impl Session {
    fn request(&self, what: &str, traced: bool) -> Request {
        Request {
            what: what.to_string(),
            seed: self.seed,
            size: self.size,
            traced,
        }
    }
}

/// When a set of rounds ends.
enum Stop {
    /// After this many sweeps, plus what the noise guard re-runs.
    Rounds(usize),
    /// Keep starting sweeps while one more is likely to end by then. No
    /// round is re-run: that would overrun the time the caller gave.
    Until(Instant),
}

type Runs = BTreeMap<&'static str, WorkloadRun>;

fn fold(run: &mut WorkloadRun, round: RoundResult) {
    run.attempted += round.attempted;
    run.failed += round.failed;
    // A child that died measured nothing; its failure is counted above.
    if !round.passes_ms.is_empty() {
        run.rounds.push(round);
    }
}

/// Runs `workloads` round-robin — one fresh child per (workload,
/// round), so every workload samples the whole run window — then, in a
/// set of a fixed number of rounds, lets the noise guard replace rounds
/// whose calibration read slow.
fn run_set(session: &Session, workloads: &[&'static str], stop: Stop, traced: bool) -> Runs {
    let mut runs: Runs = workloads
        .iter()
        .map(|w| (*w, WorkloadRun::default()))
        .collect();
    let mut sweeps = 0;
    let mut last_sweep = Duration::ZERO;
    loop {
        match stop {
            Stop::Rounds(n) if sweeps >= n => break,
            Stop::Until(end) if sweeps >= 2 && Instant::now() + last_sweep / 2 >= end => break,
            _ => {}
        }
        let start = Instant::now();
        for w in workloads {
            let round = child::round(&session.request(w, traced));
            fold(runs.get_mut(w).expect("a run per workload"), round);
        }
        last_sweep = start.elapsed();
        sweeps += 1;
    }
    if let Stop::Rounds(_) = stop {
        for w in workloads {
            let run = runs.get_mut(w).expect("a run per workload");
            noise_guard(session, w, traced, run);
        }
    }
    runs
}

/// Re-runs, at most [`spec::MAX_RERUNS`] times, any round whose pointer
/// chase read above [`spec::CHASE_LIMIT`] × the run's median chase. The
/// selection looks at the calibration value only, never at what the
/// round measured.
fn noise_guard(session: &Session, workload: &str, traced: bool, run: &mut WorkloadRun) {
    while run.rerun < spec::MAX_RERUNS {
        let chases: Vec<f64> = run.rounds.iter().map(|r| r.chase_ms).collect();
        let limit = spec::CHASE_LIMIT * stats::median(&chases);
        let Some(slow) = chases.iter().position(|c| *c > limit) else {
            break;
        };
        run.rounds.remove(slow);
        run.rerun += 1;
        fold(run, child::round(&session.request(workload, traced)));
    }
}

fn json_headline(h: Headline, unit: &str) -> Json {
    Json::obj([
        ("value", Json::from(h.value)),
        ("q1", Json::from(h.q1)),
        ("q3", Json::from(h.q3)),
        ("n", Json::from(h.n)),
        ("unit", Json::str(unit)),
    ])
}

/// The counts every kept round of a workload must agree on.
const EXACT: [&str; 5] = [
    "guest_retired",
    "host_executed",
    "rule_covered",
    "rules_instantiated",
    "rules_learned_unique",
];

/// Whether every round that reported an exact count reported the same.
fn counts_repeat(run: &WorkloadRun) -> bool {
    EXACT.iter().all(|name| {
        run.exact_count(name).is_some() || run.rounds.iter().all(|r| !r.counts.contains_key(*name))
    })
}

fn print_row(name: &str, h: Headline, unit: &str) {
    println!(
        "  {name:<20}{:>14.4} {unit:<6} q1 {:>12.4}  q3 {:>12.4}  n {:>6}",
        h.value, h.q1, h.q3, h.n
    );
}

/// Prints one workload's numbers and returns them for `result.json`.
fn print_workload(workload: &str, run: &WorkloadRun) -> Json {
    println!("\n{workload}");
    let mut e2e = BTreeMap::new();
    for (m, h) in run.end_to_end() {
        print_row(m.name, h, m.unit);
        e2e.insert(m.name, json_headline(h, m.unit));
    }
    let mut views = BTreeMap::new();
    for (name, unit, h) in run.views(workload) {
        print_row(name, h, unit);
        views.insert(name, json_headline(h, unit));
    }
    let noise =
        |f: fn(&RoundResult) -> f64| stats::median(&run.rounds.iter().map(f).collect::<Vec<_>>());
    let (alu, chase) = (noise(|r| r.alu_ms), noise(|r| r.chase_ms));
    println!(
        "  noise.alu_ms {alu:.3}  noise.chase_ms {chase:.3}  rounds_rerun {}  attempted {}  failed {}",
        run.rerun, run.attempted, run.failed
    );
    if !counts_repeat(run) {
        println!("  FAILED: an exact count differs between rounds");
    }
    let counts = EXACT
        .iter()
        .filter_map(|name| Some((*name, Json::from(run.exact_count(name)?))));
    Json::obj([
        ("end_to_end", Json::obj(e2e)),
        ("views", Json::obj(views)),
        ("counts", Json::obj(counts)),
        ("noise.alu_ms", Json::from(alu)),
        ("noise.chase_ms", Json::from(chase)),
        ("rounds_rerun", Json::from(run.rerun)),
        ("attempted", Json::from(run.attempted)),
        ("failed", Json::from(run.failed)),
    ])
}

fn all_ok(runs: &Runs) -> bool {
    runs.values()
        .all(|r| r.failed == 0 && !r.rounds.is_empty() && counts_repeat(r))
}

/// What the per-layer part of a run produced.
struct Ledger {
    rows: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    /// No operation failed, every row of `spec::LAYERS` is there, and
    /// the checks the rows must pass hold.
    ok: bool,
}

/// What recording the spans cost, as a share of the passes they were
/// recorded in: per workload the median over its traced rounds, and the
/// largest of those as `trace.overhead_share`.
///
/// This is spans recorded × the measured cost of recording one, not the
/// difference between traced and untraced pass times: on the box this
/// was written on two sets of twelve untraced rounds already differ by
/// up to 5 %, so that difference cannot tell 0.1 % from 2 %.
fn trace_overhead(traced: &Runs) -> (BTreeMap<&'static str, f64>, f64) {
    let per_workload: BTreeMap<&'static str, f64> = traced
        .iter()
        .map(|(w, run)| {
            let rounds: Vec<f64> = run.rounds.iter().map(|r| r.trace_share).collect();
            (*w, stats::median(&rounds))
        })
        .collect();
    let worst = per_workload.values().copied().fold(0.0, f64::max);
    (per_workload, worst)
}

/// The checks the layer rows must pass for the command to succeed.
fn check_layers(rows: &BTreeMap<String, f64>) -> bool {
    let mut ok = true;
    let mut fail = |what: String| {
        println!("  FAILED: {what}");
        ok = false;
    };
    for m in &spec::LAYERS {
        if !rows.contains_key(m.name) {
            fail(format!("no value for {}", m.name));
        }
    }
    let row = |name: &str| rows.get(name).copied().unwrap_or(0.0);
    for suffix in ["cold", "hot"] {
        let shares = ["translate", "compile", "dispatch_exec"]
            .map(|part| row(&format!("runtime.{part}_share.{suffix}")));
        let sum: f64 = shares.iter().sum();
        // The remainder is by definition 1 minus the other two, so what
        // can go wrong is time counted twice: a negative share.
        if (sum - 1.0).abs() > 0.02 || shares.iter().any(|s| *s < 0.0) {
            fail(format!(
                "runtime shares on suite_{suffix} are {shares:?}, not three parts of 1 +/- 0.02"
            ));
        }
    }
    let overhead = row("trace.overhead_share");
    if overhead >= 0.02 {
        fail(format!(
            "trace.overhead_share {overhead:.4} is not below 0.02"
        ));
    }
    ok
}

/// The per-layer part of a run: the probes child, then traced rounds of
/// `workloads` until `stop`. Prints the ledger and writes `trace.json`.
/// `headline` is the untraced set of the same invocation, if there was
/// one; the calibration and failure rows cover it too.
fn ledger(
    session: &Session,
    workloads: &[&'static str],
    stop: Stop,
    headline: Option<&Runs>,
) -> Ledger {
    let mut spans = Vec::new();
    let mut tag = |child: Vec<Json>, workload: &str| {
        // `parent` indexes the child's own array; keep it valid in the
        // merged one.
        let base = spans.len();
        for s in child {
            let Json::Obj(mut fields) = s else { continue };
            if let Some(p) = fields.get("parent").and_then(Json::as_u64) {
                fields.insert("parent".into(), Json::from(base as u64 + p));
            }
            fields.insert("workload".into(), Json::str(workload));
            spans.push(Json::Obj(fields));
        }
    };
    let mut out = Ledger {
        rows: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        ok: true,
    };
    match child::layers(&session.request("layers", true)) {
        Some(l) => {
            println!(
                "\nlayer probes took {:.1} s; self time by span name:",
                l.wall_s
            );
            for (name, calls, total, own) in spans::fold_self_time(&l.spans) {
                println!("  {name:<28}{calls:>7} calls {total:>11.3} ms total {own:>11.3} ms self");
            }
            out.rows = l.rows;
            out.attempted = l.attempted;
            out.failed = l.failed;
            tag(l.spans, "layers");
        }
        None => {
            println!("\nFAILED: the layers child died; its rows are missing");
            out.attempted = 1;
            out.failed = 1;
        }
    }

    let mut traced = run_set(session, workloads, stop, true);
    for (workload, run) in &mut traced {
        for round in &mut run.rounds {
            tag(std::mem::take(&mut round.spans), workload);
        }
    }
    let (per_workload, overhead) = trace_overhead(&traced);
    out.rows.insert("trace.overhead_share".into(), overhead);

    // This part answers for the probes' and the traced rounds'
    // operations; the headline set reports its own.
    for run in traced.values() {
        out.attempted += run.attempted;
        out.failed += run.failed;
    }
    // The calibration and failure rows cover every round of this
    // invocation, the headline set's too.
    let runs = || headline.into_iter().chain([&traced]).flat_map(Runs::values);
    let med = |f: fn(&RoundResult) -> f64| {
        stats::median(&runs().flat_map(|r| &r.rounds).map(f).collect::<Vec<_>>())
    };
    let of_headline =
        |f: fn(&WorkloadRun) -> u64| headline.map_or(0, |h| h.values().map(f).sum::<u64>());
    let attempted = out.attempted + of_headline(|r| r.attempted);
    let failed = out.failed + of_headline(|r| r.failed);
    for (name, value) in [
        ("noise.alu_ms", med(|r| r.alu_ms)),
        ("noise.chase_ms", med(|r| r.chase_ms)),
        (
            "noise.rounds_rerun",
            runs().map(|r| r.rerun).sum::<usize>() as f64,
        ),
        ("run.failed_share", failed as f64 / attempted.max(1) as f64),
    ] {
        out.rows.insert(name.into(), value);
    }

    println!("\nper-layer ledger (-> the end-to-end metric and workload each row should move)");
    for m in &spec::LAYERS {
        let value = out.rows.get(m.name).copied().unwrap_or(0.0);
        println!("  {:<44}{value:>16.4} {:<6} -> {}", m.name, m.unit, m.moves);
    }
    for (w, share) in &per_workload {
        let pass = traced[w].pass_ms().value;
        let versus = headline.map_or(String::new(), |h| {
            let untraced = h[w].pass_ms().value;
            format!(
                "; traced pass {pass:.1} ms against {untraced:.1} ms untraced ({:+.1} %)",
                (pass / untraced.max(1e-12) - 1.0) * 100.0
            )
        });
        println!(
            "  trace overhead on {w}: {share:.5} of pass time over {} rounds{versus}",
            traced[w].rounds.len()
        );
    }
    out.ok = out.failed == 0 && all_ok(&traced) && check_layers(&out.rows);
    write_json(session, "trace.json", &Json::Arr(spans));
    out
}

fn write_json(session: &Session, file: &str, doc: &Json) {
    let path = session.out.join(file);
    match std::fs::write(&path, format!("{doc}\n")) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("ledger: writing {} failed: {e}", path.display()),
    }
}

/// The full run: every workload, every metric, `result.json`.
fn full(session: &Session, args: &Args) -> bool {
    let names: Vec<&'static str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    let rounds = if args.smoke { 2 } else { spec::ROUNDS };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let pinned = child::pinned_cpu().unwrap_or("none");
    println!(
        "ledger: seed {} scale {} rounds {rounds} nproc {nproc} children pinned to cpu {pinned}, 1 closed-loop client, {} server jobs",
        session.seed,
        session.size.name(),
        workloads::JOBS
    );
    let runs = run_set(session, &names, Stop::Rounds(rounds), false);
    let mut doc = BTreeMap::from([
        ("seed".to_string(), Json::from(session.seed)),
        ("scale".to_string(), Json::str(session.size.name())),
        ("rounds".to_string(), Json::from(rounds)),
        ("nproc".to_string(), Json::from(nproc)),
        ("pinned_cpu".to_string(), Json::str(pinned)),
    ]);
    let per_workload = runs.iter().map(|(w, run)| (*w, print_workload(w, run)));
    doc.insert(
        "workloads".into(),
        Json::obj(per_workload.collect::<Vec<_>>()),
    );
    let mut ok = all_ok(&runs);

    if args.layers {
        let traced_rounds = Stop::Rounds(rounds.div_ceil(3));
        let ledger = ledger(session, &names, traced_rounds, Some(&runs));
        ok &= ledger.ok;
        let rows = ledger.rows.iter().map(|(k, v)| (k.clone(), Json::from(*v)));
        doc.insert("per_layer".into(), Json::obj(rows));
    }
    write_json(session, "result.json", &Json::Obj(doc));

    if args.check_repeat {
        println!("\n--check-repeat: the same set again");
        let again = run_set(session, &names, Stop::Rounds(rounds), false);
        ok &= all_ok(&again) && compare(&runs, &again);
    }
    ok
}

/// Prints both headlines of every (metric, workload) pair with their
/// relative difference; false if any exceeds the metric's bound or an
/// exact count differs.
fn compare(first: &Runs, second: &Runs) -> bool {
    let mut ok = true;
    println!(
        "{:<12}{:<20}{:>14}{:>14}{:>9}{:>8}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (w, a) in first {
        let b = &second[w];
        for ((m, x), (_, y)) in a.end_to_end().into_iter().zip(b.end_to_end()) {
            let diff = (y.value - x.value).abs() / x.value.abs().max(1e-12);
            let verdict = if diff > m.bound { "  EXCEEDS" } else { "" };
            ok &= diff <= m.bound;
            println!(
                "{w:<12}{:<20}{:>14.4}{:>14.4}{:>8.2}%{:>7.0}%{verdict}",
                m.name,
                x.value,
                y.value,
                diff * 100.0,
                m.bound * 100.0
            );
        }
        for name in EXACT {
            let (x, y) = (a.exact_count(name), b.exact_count(name));
            if x != y {
                ok = false;
                println!("{w:<12}{name:<20} exact count differs: {x:?} then {y:?}");
            } else if let Some(x) = x {
                println!("{w:<12}{name:<20}{x:>14}{x:>14}   exact");
            }
        }
    }
    ok
}

/// One driver-mode run: one workload for `--seconds`, then one JSON
/// object on the last line of stdout.
fn driver(session: &Session, workload: &'static str, seconds: u64, trace: bool) -> bool {
    let end = Instant::now() + Duration::from_secs(seconds);
    let metric =
        |value: f64, unit| Json::obj([("value", Json::from(value)), ("unit", Json::str(unit))]);
    let mut metrics = BTreeMap::new();
    let (correct, attempted, failed);
    if trace {
        // The probes take most of the window; traced rounds get what is
        // left, and two sweeps at least.
        let ledger = ledger(session, &[workload], Stop::Until(end), None);
        for m in &spec::LAYERS {
            let value = ledger.rows.get(m.name).copied().unwrap_or(0.0);
            metrics.insert(m.name, metric(value, m.unit));
        }
        (correct, attempted, failed) = (ledger.ok, ledger.attempted, ledger.failed);
    } else {
        let runs = run_set(session, &[workload], Stop::Until(end), false);
        let run = &runs[workload];
        print_workload(workload, run);
        let e2e = run.end_to_end();
        correct = all_ok(&runs) && e2e.iter().all(|(_, h)| h.value > 0.0);
        for (m, h) in e2e {
            metrics.insert(m.name, metric(h.value, m.unit));
        }
        (attempted, failed) = (run.attempted, run.failed);
    }
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted.max(1))),
        ("failed", Json::from(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{line}");
    correct
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        println!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let size = if args.smoke { Size::Tiny } else { Size::Full };
    if let Some(what) = &args.child {
        child::run(&Request {
            what: what.clone(),
            seed: args.seed,
            size,
            traced: args.trace,
        });
        return ExitCode::SUCCESS;
    }
    let session = Session {
        seed: args.seed,
        size,
        out: child::out_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(session.out.join("tmp")) {
        eprintln!("ledger: cannot create {}: {e}", session.out.display());
        return ExitCode::FAILURE;
    }
    let ok = match args.workload {
        Some(name) => driver(
            &session,
            name,
            args.seconds.unwrap_or(spec::RUN_SECONDS),
            args.trace,
        ),
        None => full(&session, &args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: FAILED (wrong output, refused or failed operation, a count that did not repeat, or a layer check)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_arguments_parse_and_strangers_do_not() {
        let a = parse(&[
            "--workload",
            "train",
            "--seed",
            "9",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some("train"), 9, Some(15), true)
        );
        assert_eq!(parse(&[]).unwrap().seed, 1);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        // What `child::spawn` sends.
        let c = parse(&[
            "--child", "layers", "--seed", "3", "--trace", "1", "--smoke",
        ])
        .unwrap();
        assert_eq!(
            (c.child.as_deref(), c.seed, c.trace, c.smoke),
            (Some("layers"), 3, true, true)
        );
    }

    /// Rows only the parent can compute, from the rounds it ran.
    const PARENT_ROWS: [&str; 5] = [
        "trace.overhead_share",
        "noise.alu_ms",
        "noise.chase_ms",
        "noise.rounds_rerun",
        "run.failed_share",
    ];

    /// The smoke path without the process boundary: every workload and
    /// the layer probes at `Scale::tiny`, every operation correct, and
    /// every layer name of `BENCHMARK.json` produced — and no other.
    #[test]
    fn every_workload_and_every_layer_row_at_tiny() {
        let fix = setup::Fixture::build(Size::Tiny);
        // Beside the test executable, inside the build tree.
        let exe = std::env::current_exe().unwrap();
        let tmp = exe.parent().unwrap().join("ledger-test-tmp");
        std::fs::create_dir_all(&tmp).unwrap();
        let work = workloads::Work::SMOKE;
        let cal = &mut noise::Calibrator::new();
        let rounds = [
            (
                "suite_cold",
                workloads::suite_cold(&fix, 1, work.cold_passes, cal),
            ),
            (
                "suite_hot",
                workloads::suite_hot(&fix, 1, work.hot_passes, cal),
            ),
            ("train", workloads::train(&fix, 1, work.train_passes, cal)),
            (
                "serve_small",
                workloads::serve_small(&fix, 1, work.small_requests, cal),
            ),
            (
                "serve_suite",
                workloads::serve_suite(&fix, 1, work.suite_requests_per_image, cal),
            ),
            (
                "boot_fleet",
                workloads::boot_fleet(&fix, 1, work.boot_cycles, &tmp, cal),
            ),
        ];
        assert_eq!(
            rounds.iter().map(|(w, _)| *w).collect::<Vec<_>>(),
            spec::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (name, round) in &rounds {
            assert_eq!(round.failed, 0, "{name}: {:?}", round.failures);
            assert!(round.attempted > 0 && !round.passes_ms.is_empty(), "{name}");
            assert!(
                round.ops.values().all(|v| v.iter().all(|x| *x > 0.0)),
                "{name}"
            );
        }
        // Every workload sees DBT reports, so every one can say what
        // its runs retired; none of the ratios may read 0.
        for (name, round) in &rounds {
            for count in ["guest_retired", "host_executed", "rule_covered"] {
                assert!(round.counts[count] > 0, "{name}: {count}");
            }
        }
        // The seed orders the suite; it must not change a count.
        let reordered = workloads::suite_cold(&fix, 2, 1, cal);
        assert_eq!(reordered.counts, rounds[0].1.counts);
        assert_eq!(rounds[0].1.counts, rounds[1].1.counts);
        assert_eq!(
            rounds[2].1.counts["rules_instantiated"],
            fix.rules_instantiated()
        );

        let probes = layers::probe(&fix, 1, work, &tmp, cal);
        assert!(probes.attempted > 0);
        assert_eq!(probes.failed, 0);
        let mut rows = probes.rows;
        let produced: BTreeSet<&str> = rows.keys().map(String::as_str).chain(PARENT_ROWS).collect();
        let declared: BTreeSet<&str> = spec::LAYERS.iter().map(|m| m.name).collect();
        assert_eq!(produced, declared);
        assert_eq!(
            rows["suite.guest_retired"],
            rounds[0].1.counts["guest_retired"] as f64
        );
        assert_eq!(rows["symexec.verified_share"], 1.0);

        // The checks that fail the command: a missing row, shares that
        // are not three parts of one, tracing that costs 2 %.
        assert!(!check_layers(&rows));
        for name in PARENT_ROWS {
            rows.insert(name.to_string(), 0.0);
        }
        assert!(check_layers(&rows));
        rows.insert("trace.overhead_share".into(), 0.02);
        assert!(!check_layers(&rows));
        rows.insert("trace.overhead_share".into(), -0.01);
        rows.insert("runtime.compile_share.hot".into(), 1.5);
        rows.insert("runtime.dispatch_exec_share.hot".into(), -0.5);
        assert!(!check_layers(&rows));
    }

    #[test]
    fn trace_overhead_is_the_worst_workloads_median_round() {
        let run = |shares: &[f64]| WorkloadRun {
            rounds: shares
                .iter()
                .map(|s| RoundResult {
                    trace_share: *s,
                    ..RoundResult::default()
                })
                .collect(),
            ..WorkloadRun::default()
        };
        let traced = Runs::from([
            ("suite_hot", run(&[0.001, 0.003, 0.002])),
            ("serve_small", run(&[0.01])),
        ]);
        let (per_workload, worst) = trace_overhead(&traced);
        assert_eq!(per_workload["suite_hot"], 0.002);
        assert_eq!(worst, 0.01);
    }
}
