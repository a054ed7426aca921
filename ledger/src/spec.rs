//! The benchmark's contract in one place: workload names and reasons,
//! the end-to-end metrics with their regression bounds, and the layer
//! rows with the end-to-end metric each should move. `BENCHMARK.json`
//! is generated from these tables (`--print-benchmark-json`) and a unit
//! test keeps the committed file equal to them.

use pdbt_obs::json::Json;

/// How long one driver-mode run measures, in seconds. The driver makes
/// 4 + 22 runs per listed workload and gives all of them, with two
/// builds, 3420 s: four workloads at 30 s is what fits with a margin.
pub const RUN_SECONDS: u64 = 30;

/// Rounds per workload in the full (no `--workload`) run.
pub const ROUNDS: usize = 12;

/// A round is re-run when its pointer-chase calibration reads above
/// this multiple of the run's median chase…
pub const CHASE_LIMIT: f64 = 1.25;
/// …at most this many times per workload.
pub const MAX_RERUNS: usize = 6;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the CI driver runs and gates it.
    /// On this sandbox a run shorter than 30 s does not repeat (README,
    /// Noise) and only four of that length fit the driver's time, so the
    /// two workloads whose layers another one also covers are left to
    /// the full run and to `--workload` by hand.
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "suite_cold",
        why: "pdbt run, the paper's protocol: 12 guests, leave-one-out para. rules, fresh engine each; translation, rule lookup and threaded compile do a quarter of the work here and none in suite_hot",
        gated: true,
    },
    Workload {
        name: "suite_hot",
        why: "same guests over warm shared translation states: dispatch, backend and Memory do nearly all the work, translation none; the engine as a reader where suite_cold is a writer",
        gated: false,
    },
    Workload {
        name: "train",
        why: "learn_into x12 plus 12 leave-one-out derive(full): the paper's headline (more rules from less data); core, symexec and compiler output do all the work, runtime and serve none",
        gated: true,
    },
    Workload {
        name: "serve_small",
        why: "1500 four-instruction requests per round, zipfian over 4 hot + 60 tail images: the engine does nothing, so connect, frame, accept thread, queue hop, partition growth and report JSON are the cost",
        gated: true,
    },
    Workload {
        name: "serve_suite",
        why: "the 12 suite guests as requests to warm daemon partitions: adds to suite_hot each session's recompile of the partition's blocks and the report on the wire; serving-plane changes should not move it",
        gated: false,
    },
    Workload {
        name: "boot_fleet",
        why: "leader boots from 12 sealed artifacts, follower boots by pulling them from the leader, first request per image on each: artifact open/warm and fleet pull do the work, the engine little",
        gated: true,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The bound of a metric that is a ratio of exact counts: it repeats to
/// the last digit, so any worsening at all is a regression. (One host
/// instruction more over the whole suite moves `host_per_guest` by
/// 3e-7 of its value.)
const EXACT: f64 = 1e-9;

/// Every workload reports every one of these; what an *operation*, a
/// *pass* and the runs behind the exact counts are per workload is
/// tabulated in the README.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "pass_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "host_per_guest",
        unit: "ratio",
        better: "lower",
        bound: EXACT,
    },
    EndToEnd {
        name: "rule_coverage",
        unit: "ratio",
        better: "higher",
        bound: EXACT,
    },
    EndToEnd {
        name: "rules_instantiated",
        unit: "count",
        better: "higher",
        bound: EXACT,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload this row should move; for
    /// every other pairing the prediction is *no change*.
    pub moves: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const COLD: &str = "pass_ms (ns_per_guest_inst) on suite_cold";
const HOT: &str = "pass_ms (ns_per_guest_inst) on suite_hot";
const TRAIN: &str = "pass_ms (train_ms) on train";
const SMALL: &str = "op_p50_us (req_p50_us) on serve_small";
const SERVE: &str = "op_p50_us, peak_rss_mb on serve_small / serve_suite";
const BOOT: &str = "op_p50_us (ready_ms, first_req_ms) on boot_fleet";
const PULL: &str = "op_p50_us (follower_ready_ms) on boot_fleet";

pub const LAYERS: [Layer; 71] = [
    row(
        "workloads.build_ms",
        "ms",
        "lower",
        "setup_s on every workload",
    ),
    row("core.learn_ms", "ms", "lower", TRAIN),
    row("core.learn_yield", "ratio", "higher", TRAIN),
    row("core.learn_unique", "count", "higher", TRAIN),
    row("core.derive_ms", "ms", "lower", TRAIN),
    row("core.derive_rejected_share", "ratio", "lower", TRAIN),
    row(
        "core.derive_instantiated",
        "count",
        "higher",
        "rules_instantiated on train; exact, must repeat; train_ms up with this up is a trade",
    ),
    row("symexec.verify_us_per_rule", "us", "lower", TRAIN),
    row("symexec.verified_share", "ratio", "higher", TRAIN),
    row(
        "par.derive_j2_ratio",
        "ratio",
        "higher",
        "pass_ms on train, only if train goes parallel",
    ),
    row("core.lookup_ns", "ns", "lower", COLD),
    row("core.lookup_hit_share", "ratio", "higher", COLD),
    row("core.instantiate_ns", "ns", "lower", COLD),
    row("core.store_load_ms", "ms", "lower", BOOT),
    row("core.store_save_ms", "ms", "lower", BOOT),
    row("runtime.translate_us_per_block", "us", "lower", COLD),
    row(
        "runtime.translate_host_per_guest",
        "ratio",
        "lower",
        "host_per_guest, then pass_ms, on suite_cold and suite_hot",
    ),
    row("ir.translate_us_per_block", "us", "lower", COLD),
    row("runtime.translate_trace_us", "us", "lower", COLD),
    row(
        "isa-x86.compile_us_per_block",
        "us",
        "lower",
        "pass_ms on suite_cold; op_p50_us on serve_suite",
    ),
    row("isa-x86.compile_slow_op_share", "ratio", "lower", COLD),
    row("runtime.translate_share.cold", "ratio", "lower", COLD),
    row("runtime.compile_share.cold", "ratio", "lower", COLD),
    row("runtime.dispatch_exec_share.cold", "ratio", "higher", COLD),
    row("runtime.translate_share.hot", "ratio", "lower", HOT),
    row("runtime.compile_share.hot", "ratio", "lower", HOT),
    row("runtime.dispatch_exec_share.hot", "ratio", "higher", HOT),
    row(
        "runtime.dispatch.jump_cache_hit_share",
        "ratio",
        "higher",
        HOT,
    ),
    row("runtime.dispatch.chain_per_block", "ratio", "higher", HOT),
    row("runtime.dispatch.trace_exec_share", "ratio", "higher", HOT),
    row("runtime.blocks_per_kinst", "count", "lower", HOT),
    row("runtime.unchained_ns_per_guest_inst", "ns", "lower", HOT),
    row(
        "runtime.backend.threaded_ns_per_host_inst",
        "ns",
        "lower",
        HOT,
    ),
    row(
        "runtime.backend.model_ns_per_host_inst",
        "ns",
        "lower",
        "nothing shipped: the oracle backend",
    ),
    row("isa.mem_ns_per_access", "ns", "lower", HOT),
    row(
        "isa-arm.interp_ns_per_guest_inst",
        "ns",
        "lower",
        "setup_s; the oracle and interpreter-fallback cost",
    ),
    row("obs.report_json_us", "us", "lower", SMALL),
    row("obs.json_parse_us", "us", "lower", SMALL),
    row("obs.hist_record_ns", "ns", "lower", SMALL),
    row(
        "serve.ping_us",
        "us",
        "lower",
        "floor of op_p50_us on serve_small",
    ),
    row(
        "serve.stats_us",
        "us",
        "lower",
        "floor of op_p50_us on serve_small",
    ),
    row(
        "serve.overhead_us",
        "us",
        "lower",
        "op_p50_us, pass_ms (req_per_s) on serve_small",
    ),
    row("serve.queue_p50_us.small", "us", "lower", SERVE),
    row("serve.execute_p50_us.small", "us", "lower", SERVE),
    row("serve.reply_p50_us.small", "us", "lower", SERVE),
    row("serve.warm_hit_ratio.small", "ratio", "higher", SERVE),
    row("serve.partitions.small", "count", "lower", SERVE),
    row("serve.reply_errors.small", "count", "lower", SERVE),
    row("serve.queue_p50_us.suite", "us", "lower", SERVE),
    row("serve.execute_p50_us.suite", "us", "lower", SERVE),
    row("serve.reply_p50_us.suite", "us", "lower", SERVE),
    row("serve.warm_hit_ratio.suite", "ratio", "higher", SERVE),
    row("serve.partitions.suite", "count", "lower", SERVE),
    row("serve.reply_errors.suite", "count", "lower", SERVE),
    row(
        "artifact.compile_ms",
        "ms",
        "lower",
        "setup_s on boot_fleet",
    ),
    row(
        "artifact.seal_mb_per_s",
        "MB/s",
        "higher",
        "setup_s on boot_fleet",
    ),
    row("artifact.open_mb_per_s", "MB/s", "higher", BOOT),
    row("artifact.warm_state_ms", "ms", "lower", BOOT),
    row("artifact.bytes_total", "bytes", "lower", BOOT),
    row("artifact.rule_section_share", "ratio", "lower", BOOT),
    row("fleet.list_ms", "ms", "lower", PULL),
    row("fleet.pull_mb_per_s", "MB/s", "higher", PULL),
    row("fleet.push_mb_per_s", "MB/s", "higher", PULL),
    row("serve.drain_ms", "ms", "lower", "pass_ms on boot_fleet"),
    row(
        "trace.overhead_share",
        "ratio",
        "lower",
        "nothing: must stay below 0.02",
    ),
    row(
        "noise.alu_ms",
        "ms",
        "lower",
        "nothing: calibration, no product code",
    ),
    row(
        "noise.chase_ms",
        "ms",
        "lower",
        "nothing: calibration, no product code",
    ),
    row(
        "noise.rounds_rerun",
        "count",
        "lower",
        "nothing: calibration, no product code",
    ),
    row("run.failed_share", "ratio", "lower", "nothing: must stay 0"),
    row(
        "suite.guest_retired",
        "count",
        "lower",
        "nothing: exact, the suite's size",
    ),
    row(
        "suite.host_executed",
        "count",
        "lower",
        "host_per_guest on suite_cold and suite_hot; exact, must repeat",
    ),
];

/// The directory, relative to the repository root, that holds the
/// benchmark and nothing else.
pub const PATH: &str = "ledger";

/// `BENCHMARK.json`, exactly.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "ledger/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::arr(command.map(Json::str))),
        ("paths", Json::arr([Json::str(PATH)])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))])),
            ),
        ),
        (
            "end_to_end",
            Json::arr(END_TO_END.iter().map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better)),
                    ("bound", Json::from(m.bound)),
                ])
            })),
        ),
        (
            "per_layer",
            Json::arr(LAYERS.iter().map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better)),
                ])
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Names are at most 64 of `[A-Za-z0-9_.-]`, starting with a letter
    /// or a digit.
    fn valid_name(name: &str) -> bool {
        let body = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(body)
    }

    /// Units are at most 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&unit.len()) && unit.chars().all(ok)
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let gated = WORKLOADS.iter().filter(|w| w.gated).count();
        assert!((2..=8).contains(&gated));
        // All the driver's runs, at a second and a half each on top of
        // what they measure, and two builds, within its 3420 s.
        let runs = 4 + 22 * gated as u64;
        assert!(runs * (2 * RUN_SECONDS + 3) / 2 + 2 * 120 <= 3420);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&LAYERS.len()));
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(LAYERS.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| (m.unit, m.better))
            .chain(LAYERS.iter().map(|m| (m.unit, m.better)));
        for (unit, better) in units {
            assert!(valid_unit(unit), "bad unit {unit:?}");
            assert!(matches!(better, "lower" | "higher"));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        // Set-up time carries the largest bound, by contract.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn name_validity_rule() {
        assert!(valid_name("isa-x86.compile_us_per_block"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("MB/s") && valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert!(committed.len() <= 64 * 1024);
        let parsed = Json::parse(committed).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
    }
}
