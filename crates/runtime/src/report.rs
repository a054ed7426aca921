//! What a run reports: the metrics, observability state, outcome and
//! degraded-mode counters an [`Engine`](crate::Engine) accumulates, and
//! the [`Report`] (with its JSON form and the stripped form that defines
//! the determinism invariant) built from them.

use crate::translate::CodeClass;
use pdbt_isa::ExecError;
use pdbt_obs::json::{Json, TextWriter, ToJson};
use pdbt_obs::{DispatchCounters, Histogram, PoolCounters, RuleCounters, ShardCounters};
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
    /// from the shared trace table is not translated, so not timed). Its
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
    /// Name of the host backend that executed the run (`"model"` or
    /// `"threaded"`; empty on a default-constructed report). Reported
    /// as `dispatch.backend`.
    pub backend: &'static str,
}

impl Report {
    /// What [`Report::stripped`] drops: the two wall-clock measurements,
    /// and `pool` — which prewarm worker ran which task is a
    /// work-stealing schedule, and warm tasks that complete instantly
    /// shift it.
    pub const STRIPPED: [&'static str; 3] =
        ["histograms.translate_ns", "dispatch.compile_ns", "pool"];

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

    /// The run report as a tree: [`ToJson::to_json`], callable without
    /// the trait in scope.
    #[must_use]
    pub fn to_json(&self) -> Json {
        ToJson::to_json(self)
    }
}

/// `metrics.host_by_class`: executed host instructions per class.
struct ByClass<'a>(&'a [u64; 4]);

impl ToJson for ByClass<'_> {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.begin_obj();
        for (key, class) in [
            ("control", CodeClass::Control),
            ("data_transfer", CodeClass::DataTransfer),
            ("qemu_core", CodeClass::QemuCore),
            ("rule_core", CodeClass::RuleCore),
        ] {
            out.field(key, &self.0[class.index()]);
        }
        out.end_obj();
    }
}

/// `resilience.injected`: injected faults per site.
struct Injected<'a>(&'a [u64; pdbt_faults::SITE_COUNT]);

impl ToJson for Injected<'_> {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.begin_obj();
        let mut sites = pdbt_faults::Site::ALL;
        sites.sort_unstable_by_key(|site| site.name());
        for site in sites {
            out.field(site.name(), &self.0[site.index()]);
        }
        out.end_obj();
    }
}

/// The run report, written once: a RESULT frame streams it, and `pdbt
/// run --report-json` writes the same text to a file. Counter families
/// write their own members (`emit_with`, in the key order of their
/// table) with the derived ones merged in; arrays and non-counter
/// sections are spelled out here. Every object's members are said in
/// key order, the order the text comes out in: the writer does not
/// sort them.
impl ToJson for Report {
    fn emit(&self, out: &mut TextWriter<'_>) {
        let m = &self.metrics;
        let r = &self.resilience;
        let obs = &self.obs;
        out.begin_obj();

        out.key("cache");
        out.begin_obj();
        out.field("hit_rate", &obs.cache.hit_rate());
        out.key("hits");
        out.arr(obs.cache.hits());
        out.key("misses");
        out.arr(obs.cache.misses());
        out.field("shards", &obs.cache.shards());
        out.field("total_hits", &obs.cache.total_hits());
        out.field("total_misses", &obs.cache.total_misses());
        out.end_obj();

        out.key("coverage_by_subgroup");
        out.begin_arr();
        for (subgroup, n) in obs.rules.coverage_by_subgroup() {
            out.begin_obj();
            out.field("dyn_covered", &n);
            out.field("subgroup", &subgroup);
            out.end_obj();
        }
        out.end_arr();

        out.key("dispatch");
        out.begin_obj();
        obs.dispatch.emit_with(out, &[("backend", &self.backend)]);
        out.end_obj();

        out.key("histograms");
        out.begin_obj();
        out.field("block_host_len", &obs.block_host_len);
        out.field("deleg_depth", &obs.deleg_depth);
        out.field("translate_ns", &obs.translate_ns);
        out.end_obj();

        out.key("lookup_misses");
        out.begin_arr();
        for (label, n) in obs.rules.misses() {
            out.begin_obj();
            out.field("count", &n);
            out.field("label", label);
            out.end_obj();
        }
        out.end_arr();

        out.key("metrics");
        out.begin_obj();
        m.emit_with(
            out,
            &[
                ("coverage", &m.coverage()),
                ("host_by_class", &ByClass(&m.host_by_class)),
                ("host_executed", &m.host_executed()),
                ("total_ratio", &m.total_ratio()),
            ],
        );
        out.end_obj();

        out.field("outcome", self.outcome.label());
        out.key("output");
        out.arr(self.output.iter().map(|&w| u64::from(w)));

        out.key("pool");
        out.begin_obj();
        out.key("tasks");
        out.arr(obs.pool.tasks());
        out.field("total", &obs.pool.total());
        out.field("workers", &obs.pool.workers());
        out.end_obj();

        out.key("resilience");
        out.begin_obj();
        r.emit_with(out, &[("injected", &Injected(&r.injected))]);
        out.end_obj();

        out.key("rules");
        out.begin_arr();
        for row in obs.rules.rows_by_coverage() {
            out.begin_obj();
            out.field("dyn_covered", &row.dyn_covered);
            out.field("label", &row.label);
            out.field("static_hits", &row.static_hits);
            out.field("subgroup", &row.subgroup);
            out.end_obj();
        }
        out.end_arr();

        out.end_obj();
    }
}
