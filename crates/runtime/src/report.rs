//! What a run reports: the metrics, observability state, outcome and
//! degraded-mode counters an [`Engine`](crate::Engine) accumulates, and
//! the [`Report`] (with its JSON form and the stripped form that defines
//! the determinism invariant) built from them.

use crate::translate::CodeClass;
use pdbt_isa::ExecError;
use pdbt_obs::json::Json;
use pdbt_obs::{
    ArtifactSnapshot, DispatchCounters, Histogram, PoolCounters, RuleCounters, ServerSnapshot,
    ShardCounters, TelemetrySnapshot,
};
use std::fmt;

pdbt_obs::counter_family! {
    /// Aggregated run metrics: the report's `metrics` section.
    pub struct Metrics {
        /// Guest instructions retired (dynamic).
        guest_retired,
        /// Guest instructions translated through rules (dynamic),
        /// including delegated terminal branches.
        rule_covered,
        /// Blocks translated (static).
        blocks_translated,
        /// Block executions (dynamic).
        blocks_executed,
        /// Host instructions generated (static).
        host_generated,
        /// Executed host instructions as counted by the block executor
        /// (folds the per-block `ExecStats`; equals the sum of the
        /// per-class counters).
        host_retired,
    }
    also {
        /// Executed host instructions by [`CodeClass`] index.
        host_by_class: [u64; 4] = std::ops::Add::add,
    }
}

impl Metrics {
    /// Dynamic coverage: fraction of retired guest instructions that
    /// were rule-translated (paper Figs 12/14/16).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.guest_retired == 0 {
            return 0.0;
        }
        self.rule_covered as f64 / self.guest_retired as f64
    }

    /// Total executed host instructions — the deterministic performance
    /// proxy ("program execution time is directly proportionate to the
    /// number of instructions executed", §V-B1).
    #[must_use]
    pub fn host_executed(&self) -> u64 {
        self.host_by_class.iter().sum()
    }

    /// Host instructions per guest instruction for one class (the
    /// columns of Table II).
    #[must_use]
    pub fn ratio(&self, class: CodeClass) -> f64 {
        if self.guest_retired == 0 {
            return 0.0;
        }
        self.host_by_class[class.index()] as f64 / self.guest_retired as f64
    }

    /// Total host instructions per guest instruction (Fig 13).
    #[must_use]
    pub fn total_ratio(&self) -> f64 {
        if self.guest_retired == 0 {
            return 0.0;
        }
        self.host_executed() as f64 / self.guest_retired as f64
    }
}

impl fmt::Display for Metrics {
    /// Human-readable run summary (the `--stats` table).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  guest retired   {:>12}", self.guest_retired)?;
        writeln!(
            f,
            "  rule covered    {:>12}  ({:.1}%)",
            self.rule_covered,
            self.coverage() * 100.0
        )?;
        writeln!(
            f,
            "  host executed   {:>12}  ({:.2}x)",
            self.host_executed(),
            self.total_ratio()
        )?;
        for (name, class) in [
            ("rule core", CodeClass::RuleCore),
            ("qemu core", CodeClass::QemuCore),
            ("data transfer", CodeClass::DataTransfer),
            ("control", CodeClass::Control),
        ] {
            writeln!(
                f,
                "    {:<13} {:>12}  ({:.2}x)",
                name,
                self.host_by_class[class.index()],
                self.ratio(class)
            )?;
        }
        writeln!(
            f,
            "  blocks          {:>12}  translated, {} executed",
            self.blocks_translated, self.blocks_executed
        )?;
        write!(f, "  host generated  {:>12}", self.host_generated)
    }
}

/// Aggregated observability state for an engine's lifetime: per-rule
/// attribution counters and the timing/shape histograms behind the
/// `pdbt stats` table and the JSON run report.
#[derive(Debug, Clone)]
pub struct RunObs {
    /// Per-rule static hits, dynamic coverage attribution and lookup
    /// misses.
    pub rules: RuleCounters,
    /// Translation latency in nanoseconds: one sample per block this
    /// session translated and one per trace it translated (a trace taken
    /// from an artifact's library is not translated, so not timed). Its
    /// sum is the `translate` phase. Stays empty when the `obs` feature
    /// is disabled (no clock).
    pub translate_ns: Histogram,
    /// Executed host instructions per block execution.
    pub block_host_len: Histogram,
    /// Flag-delegation look-ahead depth per conditional-exit block
    /// execution; the catch-all bucket counts environment fallbacks.
    pub deleg_depth: Histogram,
    /// Per-shard code-cache hits and misses.
    pub cache: ShardCounters,
    /// Prewarm pool task distribution per worker slot.
    pub pool: PoolCounters,
    /// Dispatch hot-path counters: jump cache, chaining, traces.
    pub dispatch: DispatchCounters,
}

impl Default for RunObs {
    fn default() -> RunObs {
        RunObs {
            rules: RuleCounters::new(),
            translate_ns: Histogram::latency_ns(),
            block_host_len: Histogram::block_len(),
            deleg_depth: Histogram::deleg_depth(),
            cache: ShardCounters::new(),
            pool: PoolCounters::new(),
            dispatch: DispatchCounters::default(),
        }
    }
}

impl RunObs {
    /// Folds another run's observability state into this one.
    pub fn merge(&mut self, other: &RunObs) {
        self.rules.merge(&other.rules);
        self.translate_ns.merge(&other.translate_ns);
        self.block_host_len.merge(&other.block_host_len);
        self.deleg_depth.merge(&other.deleg_depth);
        self.cache.merge(&other.cache);
        self.pool.merge(&other.pool);
        self.dispatch.merge(&other.dispatch);
    }
}

/// How a run ended. Anything other than [`Outcome::Completed`] means
/// the [`Report`] is *partial*: the metrics, output and observability
/// state cover everything that ran up to the stop point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Outcome {
    /// The guest halted normally.
    #[default]
    Completed,
    /// The guest instruction budget ran out.
    Budget,
    /// The wall-clock deadline ([`RunSetup::deadline`]) passed.
    Deadline,
    /// Guest or host execution faulted.
    Exec(ExecError),
}

impl Outcome {
    /// Stable machine-readable label for the report JSON.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Budget => "budget",
            Outcome::Deadline => "deadline",
            Outcome::Exec(_) => "exec",
        }
    }
}

pdbt_obs::counter_family! {
    /// Degraded-mode counters for one run: how often the engine fell
    /// back instead of failing, plus the fault-injection snapshot. All
    /// zeros in a healthy, fault-free run. The report's `resilience`
    /// section.
    pub struct Resilience {
        /// Blocks that failed to translate and were interpreted instead.
        degraded_blocks,
        /// Guest instructions retired on the interpreter fallback (a
        /// subset of `Metrics::guest_retired`).
        interpreted_guest,
        /// Rule-store entries quarantined by salvage loading
        /// (`load_rules_salvage`); folded in by the CLI via
        /// [`Engine::resilience_mut`].
        quarantined_rules,
        /// Derivation candidates quarantined by panic isolation
        /// (`DeriveStats::quarantined`); folded in by the CLI.
        quarantined_combos,
        /// Verifications that ran out of fuel
        /// (`DeriveStats::fuel_exhausted`); folded in by the CLI.
        fuel_exhausted,
    }
    also {
        /// Per-site injected fault counts ([`pdbt_faults::injected`]),
        /// snapshotted when the report is built. All zeros unless a
        /// fault plan is active. The snapshot is process-wide, so
        /// merging takes the max, not the sum.
        injected: [u64; pdbt_faults::SITE_COUNT] = u64::max,
    }
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Run metrics.
    pub metrics: Metrics,
    /// The guest's observable output stream.
    pub output: Vec<u32>,
    /// Observability snapshot: per-rule attribution and histograms.
    pub obs: RunObs,
    /// How the run ended; anything but `Completed` marks the rest of
    /// the report as partial.
    pub outcome: Outcome,
    /// Degraded-mode counters.
    pub resilience: Resilience,
    /// Server-lifetime shared-translation counters, snapshotted when
    /// the report was built. For a standalone engine this describes its
    /// own private state (`sessions: 1`, `hits: 0`); under `pdbt serve`
    /// it shows the cross-session sharing this run benefited from. The
    /// snapshot point is wall-clock-dependent under concurrency, so
    /// determinism comparisons strip this section (like
    /// `histograms.translate_ns`).
    pub server: ServerSnapshot,
    /// Serving-plane telemetry snapshot (request latency histograms and
    /// the flight-recorder tail) from the same shared state, taken at
    /// the same point as `server`. Reported inside the `server` JSON
    /// section, so it is stripped by the same determinism discipline.
    pub telemetry: TelemetrySnapshot,
    /// Translation-artifact counters of the shared state: what a
    /// sealed artifact contributed at boot and how often the loaded
    /// superblock library was hit. All-zero for a cold state. Reported
    /// inside the `server` JSON section (stripped with it).
    pub artifact: ArtifactSnapshot,
    /// Name of the host backend that executed the run (`"model"` or
    /// `"threaded"`; empty on a default-constructed report). Reported
    /// as `dispatch.backend`.
    pub backend: &'static str,
}

impl Report {
    /// What [`Report::stripped`] drops: the one section that describes
    /// the shared state rather than the session (`server`, snapshotted
    /// at a wall-clock-dependent point under concurrency), the two
    /// wall-clock measurements, and `pool` — which prewarm worker ran
    /// which task is a work-stealing schedule, and warm tasks that
    /// complete instantly shift it.
    pub const STRIPPED: [&'static str; 4] = [
        "server",
        "histograms.translate_ns",
        "dispatch.compile_ns",
        "pool",
    ];

    /// The stripped report — the definition of the determinism
    /// invariant: for one guest, rule set and configuration, this
    /// document is bit-identical to a sequential cold run's whether the
    /// session ran warm, concurrently, from an artifact or on a
    /// follower. Takes the JSON form so reports that arrived over the
    /// wire compare the same way.
    #[must_use]
    pub fn stripped(report: &Json) -> Json {
        let mut doc = report.clone();
        for path in Self::STRIPPED {
            doc.remove_path(path);
        }
        doc
    }

    /// The machine-readable run report (`pdbt run --report-json`).
    /// Counter families render themselves (`json_pairs`, keyed by their
    /// table); only derived values, arrays and non-counter sections are
    /// spelled out here.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let m = &self.metrics;
        let r = &self.resilience;
        let obs = &self.obs;
        let counts = |ns: &[u64]| Json::arr(ns.iter().map(|&n| Json::from(n)));
        let host_by_class = [
            ("rule_core", CodeClass::RuleCore),
            ("qemu_core", CodeClass::QemuCore),
            ("data_transfer", CodeClass::DataTransfer),
            ("control", CodeClass::Control),
        ]
        .map(|(key, class)| (key, Json::from(m.host_by_class[class.index()])));
        let injected =
            pdbt_faults::Site::ALL.map(|s| (s.name(), Json::from(r.injected[s.index()])));
        Json::obj([
            ("outcome", Json::str(self.outcome.label())),
            (
                "metrics",
                Json::obj(m.json_pairs().chain([
                    ("coverage", Json::from(m.coverage())),
                    ("host_executed", Json::from(m.host_executed())),
                    ("total_ratio", Json::from(m.total_ratio())),
                    ("host_by_class", Json::obj(host_by_class)),
                ])),
            ),
            (
                "rules",
                Json::arr(obs.rules.rows_by_coverage().into_iter().map(|r| {
                    Json::obj([
                        ("label", Json::str(&r.label)),
                        ("subgroup", Json::str(&r.subgroup)),
                        ("static_hits", Json::from(r.static_hits)),
                        ("dyn_covered", Json::from(r.dyn_covered)),
                    ])
                })),
            ),
            (
                "lookup_misses",
                Json::arr(obs.rules.misses().into_iter().map(|(label, n)| {
                    Json::obj([("label", Json::str(label)), ("count", Json::from(n))])
                })),
            ),
            (
                "coverage_by_subgroup",
                Json::arr(obs.rules.coverage_by_subgroup().into_iter().map(|(sg, n)| {
                    Json::obj([("subgroup", Json::str(sg)), ("dyn_covered", Json::from(n))])
                })),
            ),
            (
                "histograms",
                Json::obj([
                    ("translate_ns", obs.translate_ns.to_json()),
                    ("block_host_len", obs.block_host_len.to_json()),
                    ("deleg_depth", obs.deleg_depth.to_json()),
                ]),
            ),
            (
                "cache",
                Json::obj([
                    ("shards", Json::from(obs.cache.shards())),
                    ("hits", counts(obs.cache.hits())),
                    ("misses", counts(obs.cache.misses())),
                    ("total_hits", Json::from(obs.cache.total_hits())),
                    ("total_misses", Json::from(obs.cache.total_misses())),
                    ("hit_rate", Json::from(obs.cache.hit_rate())),
                ]),
            ),
            (
                "pool",
                Json::obj([
                    ("workers", Json::from(obs.pool.workers())),
                    ("tasks", counts(obs.pool.tasks())),
                    ("total", Json::from(obs.pool.total())),
                ]),
            ),
            (
                "dispatch",
                Json::obj(
                    obs.dispatch
                        .json_pairs()
                        .chain([("backend", Json::str(self.backend))]),
                ),
            ),
            (
                "server",
                Json::obj(
                    self.server.section_pairs().chain([
                        (
                            "artifact",
                            Json::obj(
                                self.artifact
                                    .json_pairs()
                                    .chain([("warm", Json::from(self.artifact.warm()))]),
                            ),
                        ),
                        ("latency", self.telemetry.latency.to_json()),
                        (
                            "flight",
                            Json::arr(self.telemetry.flight.iter().map(|s| s.to_json())),
                        ),
                        // A standalone engine sees exactly one partition:
                        // the shared state it ran against. `pdbt serve`
                        // exposes the full multi-image view through the
                        // same rows in its STATS payload.
                        (
                            "partitions",
                            Json::arr([Json::obj(self.telemetry.partition_pairs(&self.server))]),
                        ),
                    ]),
                ),
            ),
            (
                "resilience",
                Json::obj(r.json_pairs().chain([("injected", Json::obj(injected))])),
            ),
            (
                "output",
                Json::arr(self.output.iter().map(|&w| Json::from(u64::from(w)))),
            ),
        ])
    }
}
