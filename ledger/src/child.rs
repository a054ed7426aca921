//! One child process per (workload, round): both sides of the protocol.
//!
//! The parent re-executes this binary with `--child`; the child does
//! its own set-up, runs one round of fixed work with a calibration
//! reading on either side of the set-up and of every slice of the work,
//! and prints one JSON object as its last line.
//! A fresh process per round means a fresh ASLR layout and `HashMap`
//! seed every round, and a set-up time sample every round.

use crate::noise::{Calibrator, Reading, REFERENCE_MS};
use crate::setup::{Fixture, Size};
use crate::workloads::{self, Round, Work};
use crate::{layers, spans};
use pdbt_obs::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

/// What the parent asks one child to do.
#[derive(Debug, Clone)]
pub struct Request {
    /// A workload name, or `layers` for the per-layer probes.
    pub what: String,
    pub seed: u64,
    pub size: Size,
    /// Record bench-side spans and return them.
    pub traced: bool,
}

impl Request {
    fn work(&self) -> Work {
        match self.size {
            Size::Full => Work::FULL,
            Size::Tiny => Work::SMOKE,
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; 0 where `/proc`
/// does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn floats(xs: &[f64]) -> Json {
    Json::arr(xs.iter().map(|x| Json::from(*x)))
}

fn float_map<K: AsRef<str>>(m: &BTreeMap<K, f64>) -> Json {
    Json::obj(
        m.iter()
            .map(|(k, v)| (k.as_ref().to_string(), Json::from(*v))),
    )
}

/// The child side: runs `req` and prints the result line.
pub fn run(req: &Request) {
    if req.traced {
        spans::enable();
    }
    let tmp = out_dir().join("tmp");
    let mut cal = Calibrator::new();
    // Thrown away: whatever the kernel still does to the chase's 8 MiB
    // of fresh pages is over by the reading that opens the set-up.
    cal.read();
    let opened = cal.read();
    let fix = {
        let _s = spans::span("setup");
        Fixture::build(req.size)
    };
    let doc = if req.what == "layers" {
        let start = Instant::now();
        let probes = {
            let _s = spans::span("layers");
            layers::probe(&fix, req.seed, req.work(), &tmp, &mut cal)
        };
        Json::obj([
            ("rows", float_map(&probes.rows)),
            ("attempted", Json::from(probes.attempted)),
            ("failed", Json::from(probes.failed)),
            ("wall_s", Json::from(start.elapsed().as_secs_f64())),
            ("spans", spans::drain_json()),
        ])
    } else {
        let spans_before = spans::recorded();
        let readings_before = cal.readings().len();
        let round = run_workload(&fix, req, &tmp, &mut cal);
        let recorded = spans::recorded() - spans_before;
        // What the round's spans cost to record, as a share of its
        // passes; 0 in an untraced child, which records none.
        let trace_share = if recorded == 0 {
            0.0
        } else {
            let passes_ns = round.passes_ms.iter().sum::<f64>() * 1e6;
            recorded as f64 * spans::cost_ns() / passes_ns.max(1.0)
        };
        // The workload's first reading closes the set-up, its own
        // included, as `opened` opened it.
        let readings = &cal.readings()[readings_before..];
        let closed = readings.first().map_or(REFERENCE_MS, |r| r.ms());
        let setup_factor = REFERENCE_MS / ((opened.ms() + closed) / 2.0);
        round_json(&fix, &round, trace_share, setup_factor, readings)
    };
    println!("{doc}");
}

fn run_workload(fix: &Fixture, req: &Request, tmp: &Path, cal: &mut Calibrator) -> Round {
    let (seed, work) = (req.seed, req.work());
    let _round = spans::span("round");
    match req.what.as_str() {
        "suite_cold" => workloads::suite_cold(fix, seed, work.cold_passes, cal),
        "suite_hot" => workloads::suite_hot(fix, seed, work.hot_passes, cal),
        "train" => workloads::train(fix, seed, work.train_passes, cal),
        "serve_small" => workloads::serve_small(fix, seed, work.small_requests, cal),
        "serve_suite" => workloads::serve_suite(fix, seed, work.suite_requests_per_image, cal),
        "boot_fleet" => workloads::boot_fleet(fix, seed, work.boot_cycles, tmp, cal),
        other => panic!("no workload named {other}"),
    }
}

fn round_json(
    fix: &Fixture,
    r: &Round,
    trace_share: f64,
    setup_factor: f64,
    readings: &[Reading],
) -> Json {
    for f in &r.failures {
        eprintln!("ledger: FAILED {f}");
    }
    let mut counts = r.counts.clone();
    counts
        .entry("rules_instantiated")
        .or_insert(fix.rules_instantiated());
    Json::obj([
        (
            "setup_s",
            Json::from((fix.seconds + r.extra_setup_s) * setup_factor),
        ),
        // As measured, for whoever wants to check the scaling by hand.
        ("setup_raw_s", Json::from(fix.seconds + r.extra_setup_s)),
        ("slices_raw_ms", floats(&r.slices_ms)),
        (
            "alu_ms",
            floats(&readings.iter().map(|r| r.alu_ms).collect::<Vec<_>>()),
        ),
        (
            "chase_ms",
            floats(&readings.iter().map(|r| r.chase_ms).collect::<Vec<_>>()),
        ),
        ("passes_ms", floats(&r.passes_ms)),
        ("trace_share", Json::from(trace_share)),
        (
            "ops",
            Json::obj(r.ops.iter().map(|(k, v)| (k.clone(), floats(v)))),
        ),
        (
            "counts",
            Json::obj(counts.iter().map(|(k, v)| (*k, Json::from(*v)))),
        ),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failed)),
        ("peak_rss_mb", Json::from(peak_rss_mb())),
        ("spans", spans::drain_json()),
    ])
}

/// One round as the parent sees it.
#[derive(Debug, Default, Clone)]
pub struct RoundResult {
    /// Set-up and pass times are at the reference speed.
    pub setup_s: f64,
    /// The median of the round's readings.
    pub alu_ms: f64,
    pub chase_ms: f64,
    pub passes_ms: Vec<f64>,
    /// Of a traced child: what recording the round's spans cost, as a
    /// share of its passes' wall-clock.
    pub trace_share: f64,
    pub ops: BTreeMap<String, Vec<f64>>,
    pub counts: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    pub spans: Vec<Json>,
}

fn f64s(j: Option<&Json>) -> Vec<f64> {
    j.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// The `spans` array of a child's result line.
fn spans_of(doc: &Json) -> Vec<Json> {
    doc.get("spans")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .unwrap_or_default()
}

fn obj_entries(j: Option<&Json>) -> impl Iterator<Item = (&String, &Json)> {
    match j {
        Some(Json::Obj(m)) => Some(m.iter()),
        _ => None,
    }
    .into_iter()
    .flatten()
}

impl RoundResult {
    fn parse(doc: &Json) -> RoundResult {
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let count = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
        let middle = |k: &str| crate::stats::median(&f64s(doc.get(k)));
        RoundResult {
            setup_s: num("setup_s"),
            alu_ms: middle("alu_ms"),
            chase_ms: middle("chase_ms"),
            passes_ms: f64s(doc.get("passes_ms")),
            trace_share: num("trace_share"),
            ops: obj_entries(doc.get("ops"))
                .map(|(k, v)| (k.clone(), f64s(Some(v))))
                .collect(),
            counts: obj_entries(doc.get("counts"))
                .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                .collect(),
            attempted: count("attempted"),
            failed: count("failed"),
            peak_rss_mb: num("peak_rss_mb"),
            spans: spans_of(doc),
        }
    }

    /// A round whose child died or printed nothing usable: one
    /// attempted operation, failed.
    fn lost() -> RoundResult {
        RoundResult {
            attempted: 1,
            failed: 1,
            ..RoundResult::default()
        }
    }
}

/// What the layers child returned.
#[derive(Debug, Default)]
pub struct LayersResult {
    pub rows: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub spans: Vec<Json>,
}

/// The CPU every child is pinned to, when `taskset` is installed: the
/// last one this process may run on.
///
/// On the 2-vCPU VM this was written on, a wake-up that crosses vCPUs
/// costs ≈ 100 µs and its cost follows the host's load, so an unpinned
/// `serve_small` (three such hops per request) read 365–535 µs median
/// from one run to the next — a spread of 31 % — while the same requests
/// with every thread on one vCPU take ≈ 260 µs ± 3 %. Pinned numbers are
/// the code path's CPU cost, which is what a change to the code moves.
pub fn pinned_cpu() -> Option<&'static str> {
    static CPU: OnceLock<Option<String>> = OnceLock::new();
    CPU.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
        let last = allowed.trim().rsplit([',', '-']).next()?.to_string();
        let works = Command::new("taskset")
            .args(["-c", &last, "true"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        works.then_some(last)
    })
    .as_deref()
}

/// Re-executes this binary as a child and returns the JSON object on
/// its last stdout line. The product's environment overrides are
/// removed, so the caller's shell cannot change what is measured.
fn spawn(req: &Request) -> Option<Json> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = match pinned_cpu() {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.args(["-c", cpu]).arg(exe);
            c
        }
        None => Command::new(exe),
    };
    let out = cmd
        .args(["--child", &req.what, "--seed", &req.seed.to_string()])
        .args(["--trace", if req.traced { "1" } else { "0" }])
        .args((req.size == Size::Tiny).then_some("--smoke"))
        .env_remove("PDBT_BACKEND")
        .env_remove("PDBT_FAULTS")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !out.status.success() {
        eprintln!("ledger: child `{}` exited with {}", req.what, out.status);
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Json::parse(text.lines().last()?).ok()
}

/// Runs one round of a workload in a fresh process.
pub fn round(req: &Request) -> RoundResult {
    spawn(req).map_or_else(RoundResult::lost, |doc| RoundResult::parse(&doc))
}

/// Runs the layer probes in a fresh process.
pub fn layers(req: &Request) -> Option<LayersResult> {
    let doc = spawn(req)?;
    let count = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
    Some(LayersResult {
        rows: obj_entries(doc.get("rows"))
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        attempted: count("attempted"),
        failed: count("failed"),
        wall_s: doc.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
        spans: spans_of(&doc),
    })
}

/// Where results and scratch files go: `ledger/` beside the profile
/// directory this executable was built into (`target/ledger`, or
/// `$CARGO_TARGET_DIR/ledger`), so nothing is written outside the
/// checkout's ignored build tree.
pub fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("ledger")))
        .unwrap_or_else(|| Path::new("target").join("ledger"))
}
