//! The DBT engine: code cache, dispatcher, metrics.
//!
//! Translated blocks are cached by guest address ("code cache", paper
//! §V-B1) and executed on the host model; the dispatcher follows block
//! exits until the guest program halts. Executed host instructions are
//! attributed to their [`CodeClass`], which is the measurement behind
//! Table II, Fig 13 and the instruction-count performance proxy.

use crate::backend::{anchor_numbers, backend_for, BackendKind, BackendObs};
use crate::cache::{CachedBlock, ShardedCache};
use crate::shared::SharedTranslationState;
use crate::translate::{
    collect_block, translate_trace, BlockSuccs, CodeClass, DelegOutcome, TranslateConfig,
    TranslateError, TranslatedBlock,
};
use pdbt_core::RuleSet;
use pdbt_ir::env;
use pdbt_isa::{Addr, Cond, Control, ExecError, Flag};
use pdbt_isa_arm::{step, Cpu as GuestCpu, FReg, Operand, Program, Reg as GReg, INST_SIZE};
use pdbt_isa_x86::{BlockExit, Cpu as HostCpu, Reg as HReg};
use pdbt_obs::json::Json;
use pdbt_obs::{
    ArtifactSnapshot, DispatchCounters, Histogram, PhaseNs, PoolCounters, RequestSummary,
    RuleCounters, RuleId, ServerSnapshot, ShardCounters, TelemetrySnapshot,
};
use pdbt_par::Pool;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Base address of the guest environment block in host memory.
pub const ENV_BASE: Addr = 0xE000_0000;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Translation knobs.
    pub translate: TranslateConfig,
    /// Worker threads for block pre-translation; `run` prewarms the
    /// code cache in parallel when this exceeds 1. Translation output
    /// and metrics are independent of the value (see [`Engine::prewarm`]).
    pub jobs: usize,
    /// Code-cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Dispatch fast path: probe the direct-mapped jump cache before
    /// the sharded cache, and follow chain links between blocks without
    /// re-entering the dispatcher. Off reproduces the pre-chaining
    /// engine exactly.
    pub chaining: bool,
    /// Promote hot chains to single-translation superblocks.
    pub traces: bool,
    /// Executions of a block before the chain it heads is considered
    /// hot and promoted to a superblock (`--trace-threshold`).
    pub trace_threshold: u32,
    /// Record a request summary (translate/execute phase latencies)
    /// into the shared state's telemetry plane at the end of each run.
    /// On for standalone engines — the one-session-server view — and
    /// turned off by `pdbt-serve`, which stamps the full request
    /// lifecycle (queue wait, reply write) itself and must not record
    /// each request twice.
    pub record_telemetry: bool,
    /// Host block executor (`--backend {model,threaded}`). Both produce
    /// bit-identical stripped reports; `threaded` runs pre-compiled
    /// threaded code instead of re-interpreting each `Inst`.
    pub backend: BackendKind,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            translate: TranslateConfig::default(),
            jobs: 1,
            cache_shards: 8,
            chaining: true,
            traces: true,
            trace_threshold: 50,
            record_telemetry: true,
            // `PDBT_BACKEND` overrides the default so CI can run the
            // whole suite under the model oracle without plumbing a
            // flag through every test.
            backend: std::env::var("PDBT_BACKEND")
                .ok()
                .and_then(|s| BackendKind::parse(&s))
                .unwrap_or_default(),
        }
    }
}

/// Guest memory layout and entry state for a run.
#[derive(Debug, Clone, Default)]
pub struct RunSetup {
    /// Regions to map (base, size) — data, stack, …; guest memory is
    /// identity-mapped into host memory (user-mode DBT).
    pub maps: Vec<(Addr, u32)>,
    /// Initial guest register values (index = register number).
    pub regs: [u32; 16],
    /// Initial memory contents: (address, words).
    pub init_words: Vec<(Addr, Vec<u32>)>,
    /// Guest instruction budget.
    pub max_guest: u64,
    /// Optional wall-clock deadline (`--deadline-ms` on a serve
    /// request): a run past it stops with a partial report and
    /// [`Outcome::Deadline`]. `None` (the default) never checks the
    /// clock, so deterministic runs stay clock-free.
    pub deadline: Option<Instant>,
}

impl RunSetup {
    /// A setup with one data region and one stack region, `sp` at the
    /// stack top.
    #[must_use]
    pub fn basic(data_base: Addr, data_size: u32, stack_base: Addr, stack_size: u32) -> RunSetup {
        let mut regs = [0u32; 16];
        regs[GReg::Sp.index()] = stack_base + stack_size;
        RunSetup {
            maps: vec![(data_base, data_size), (stack_base, stack_size)],
            regs,
            init_words: Vec::new(),
            max_guest: 50_000_000,
            deadline: None,
        }
    }
}

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
    /// at a wall-clock-dependent point under concurrency) and the two
    /// wall-clock measurements.
    pub const STRIPPED: [&'static str; 3] =
        ["server", "histograms.translate_ns", "dispatch.compile_ns"];

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

/// A runtime failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Translation failed.
    Translate(TranslateError),
    /// Host execution failed.
    Exec(ExecError),
    /// The guest instruction budget was exhausted.
    Budget,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Translate(e) => write!(f, "{e}"),
            EngineError::Exec(e) => write!(f, "execution error: {e}"),
            EngineError::Budget => f.write_str("guest instruction budget exhausted"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<TranslateError> for EngineError {
    fn from(e: TranslateError) -> EngineError {
        EngineError::Translate(e)
    }
}

impl From<ExecError> for EngineError {
    fn from(e: ExecError) -> EngineError {
        EngineError::Exec(e)
    }
}

/// Discovers every statically reachable block start from the program
/// entry by following direct branch and fall-through edges. Indirect
/// transfers (returns, computed jumps) contribute no static successors;
/// the dispatcher translates those targets lazily when execution
/// reaches them. The result is sorted (and so deterministic).
fn discover_block_starts(prog: &Program, max_block: usize) -> Vec<Addr> {
    use std::collections::BTreeSet;
    let mut seen: BTreeSet<Addr> = BTreeSet::new();
    let mut frontier = vec![prog.base()];
    while let Some(pc) = frontier.pop() {
        if !seen.insert(pc) {
            continue;
        }
        let Ok(insts) = collect_block(prog, pc, max_block) else {
            continue;
        };
        let (last_addr, last) = *insts.last().expect("non-empty block");
        let fall = pc + insts.len() as u32 * INST_SIZE;
        match last.op {
            pdbt_isa_arm::Op::B | pdbt_isa_arm::Op::Bl => {
                let Operand::Target(d) = last.operands[0] else {
                    unreachable!()
                };
                frontier.push(last_addr.wrapping_add(d as u32));
                if last.op == pdbt_isa_arm::Op::Bl || last.cond != Cond::Al {
                    frontier.push(fall);
                }
            }
            pdbt_isa_arm::Op::Svc if last.operands[0].as_imm() == Some(0) => {}
            _ if last.is_branch() => {}
            // Max-length block: falls through.
            _ => frontier.push(fall),
        }
    }
    seen.into_iter()
        .filter(|pc| prog.fetch(*pc).is_ok())
        .collect()
}

/// Folds one retired unit — a plain block, or one member of a
/// superblock — into the dynamic attribution: its static per-rule
/// coverage shares weighted by this execution, and its flag-delegation
/// outcome.
fn retire(obs: &mut RunObs, attrs: &[(RuleId, u32)], deleg: Option<DelegOutcome>) {
    for (id, covered) in attrs {
        obs.rules.covered(*id, u64::from(*covered));
    }
    if let Some(d) = deleg {
        obs.deleg_depth.record(match d {
            DelegOutcome::Delegated(depth) => u64::from(depth),
            DelegOutcome::EnvFallback => Histogram::FALLBACK,
        });
    }
}

/// Host-instruction budget for a single block execution, derived from
/// the remaining *guest* budget: a block is allowed a generous host
/// ratio over the guest instructions it may still retire, plus slack —
/// so a tight `max_guest` cannot be overshot by a runaway host block
/// spinning toward a flat 1M-instruction ceiling (the old hardcoded
/// budget, kept as the upper clamp so effectively unlimited guest
/// budgets behave exactly as before). Deterministic: derived from
/// counters only, never the clock.
fn host_block_budget(max_guest: u64, retired: u64, guest_len: u32, code_len: usize) -> u64 {
    /// Host instructions allowed per remaining guest instruction — far
    /// above any legitimate translation's ratio (Table II measures
    /// single digits), so only runaway blocks hit it.
    const RATIO: u64 = 64;
    /// Flat slack so a tiny remainder still runs one full normal block.
    const SLACK: u64 = 256;
    /// The historical flat per-block budget, now the upper clamp.
    const CEILING: u64 = 1_000_000;
    let remaining = max_guest
        .saturating_sub(retired)
        .max(u64::from(guest_len.max(1)));
    remaining
        .saturating_mul(RATIO)
        .saturating_add(SLACK)
        .max(code_len as u64 + 1)
        .min(CEILING)
}

/// Direct-mapped jump cache size (power of two). At 12 bytes a slot
/// this is a few KiB — small enough to stay cache-resident, large
/// enough that the workloads' working sets don't thrash it.
const JC_SIZE: usize = 1024;

/// The jump-cache slot an address maps to. Block starts are
/// word-aligned, so the two always-zero bits are dropped (same trick as
/// [`ShardedCache::shard_of`]).
fn jc_slot(pc: Addr) -> usize {
    ((pc >> 2) as usize) & (JC_SIZE - 1)
}

/// A block of this session: an index into [`SessionTable::slots`].
/// Every reference the dispatcher keeps to a block — the `pc` map, the
/// jump cache, chain links, a head's superblock — is one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockId(u32);

/// One block of the session and its dispatch state. Plain fields: only
/// the session's one thread ever touches a slot.
#[derive(Debug)]
struct Slot {
    /// What a backend executes.
    cached: CachedBlock,
    /// Chain links of the direct-branch exits, each stamped with the
    /// epoch it was resolved in: `[0]` the branch-taken (or only)
    /// successor, `[1]` the fall-through of a conditional. A link is
    /// current while its epoch is the table's and its target is `live`.
    links: [Option<(BlockId, u32)>; 2],
    /// Times each edge was followed; picks the hotter side of a
    /// conditional when a trace is formed.
    edge: [u32; 2],
    /// Completed executions, for hot-trace promotion.
    hotness: u32,
    /// Cleared when a superblock is dropped: links into it re-resolve.
    live: bool,
    /// On a plain block, the superblock it heads. Preferred over the
    /// block itself by the dispatcher once formed.
    trace: Option<BlockId>,
    /// On a plain block, whether a trace was attempted from it
    /// (successful or not) — each head is tried once.
    trace_attempted: bool,
}

impl Slot {
    /// Whether the block has `pc` as a direct-branch successor.
    fn targets(&self, pc: Addr) -> bool {
        match self.cached.block.succ {
            BlockSuccs::One(t) => t == pc,
            BlockSuccs::Two { taken, fall } => taken == pc || fall == pc,
            BlockSuccs::None => false,
        }
    }
}

/// The session block table: every block this session adopted or formed,
/// and every way the dispatcher finds one. All single-threaded — only
/// the dispatcher touches it.
#[derive(Debug)]
pub(crate) struct SessionTable {
    /// Plain blocks and superblocks, in adoption order; never shrinks,
    /// so a [`BlockId`] stays valid for the session.
    slots: Vec<Slot>,
    /// The plain block adopted at each guest pc.
    by_pc: HashMap<Addr, BlockId>,
    /// Direct-mapped `pc → block` cache probed before anything else: one
    /// array index, no hashing. A slot holds the full key because
    /// distinct pcs alias the same slot.
    jump_cache: Box<[Option<(Addr, BlockId)>]>,
    /// Current invalidation epoch; chain links resolved under an older
    /// epoch are stale and re-resolve.
    epoch: u32,
    /// Blocks that degraded to the interpreter (translation fault):
    /// never chained through, and traces containing them are dropped.
    poisoned: HashSet<Addr>,
}

impl Default for SessionTable {
    fn default() -> SessionTable {
        SessionTable {
            slots: Vec::new(),
            by_pc: HashMap::new(),
            jump_cache: vec![None; JC_SIZE].into_boxed_slice(),
            epoch: 0,
            poisoned: HashSet::new(),
        }
    }
}

impl SessionTable {
    fn slot(&self, id: BlockId) -> &Slot {
        &self.slots[id.0 as usize]
    }

    fn slot_mut(&mut self, id: BlockId) -> &mut Slot {
        &mut self.slots[id.0 as usize]
    }

    fn push(&mut self, cached: CachedBlock) -> BlockId {
        let id = BlockId(u32::try_from(self.slots.len()).expect("block table outgrew u32"));
        self.slots.push(Slot {
            cached,
            links: [None; 2],
            edge: [0; 2],
            hotness: 0,
            live: true,
            trace: None,
            trace_attempted: false,
        });
        id
    }

    /// The block a backend executes for `id`.
    pub(crate) fn cached(&self, id: BlockId) -> &CachedBlock {
        &self.slot(id).cached
    }

    /// Whether a plain block was adopted at `pc`.
    pub(crate) fn contains(&self, pc: Addr) -> bool {
        self.by_pc.contains_key(&pc)
    }

    /// Counts one completed execution of the plain block `id` and says
    /// whether that made it hot: it just reached `threshold` and no
    /// trace was attempted from it yet.
    pub(crate) fn heat(&mut self, id: BlockId, threshold: u32) -> bool {
        let slot = self.slot_mut(id);
        slot.hotness = slot.hotness.wrapping_add(1);
        slot.hotness == threshold.max(1) && !slot.trace_attempted
    }

    /// The live superblocks, each with the plain block that heads it.
    fn traces(&self) -> impl Iterator<Item = (BlockId, BlockId)> + '_ {
        (0u32..)
            .map(BlockId)
            .zip(&self.slots)
            .filter_map(|(head, s)| Some((head, s.trace?)))
    }
}

/// The dynamic binary translator: one *session* over a (possibly
/// shared) translation state.
///
/// The engine no longer owns its rule set or code cache — those live in
/// an [`SharedTranslationState`] it holds behind an `Arc`, so `pdbt
/// serve` can run many concurrent sessions against one warm cache.
/// Everything mutable — metrics, report counters, the jump cache, chain
/// links, superblocks — is session-private: a session folds a shared
/// translation's static footprint (blocks translated, host generated,
/// attribution, lookup misses) into its own counters at first
/// session-local sight, which keeps its report bit-identical to a cold
/// single-engine run while the translation work is shared.
#[derive(Debug)]
pub struct Engine {
    pub(crate) shared: Arc<SharedTranslationState>,
    pub(crate) cfg: EngineConfig,
    /// Every block this session adopted or formed, and how the
    /// dispatcher finds it.
    pub(crate) table: SessionTable,
    pub(crate) metrics: Metrics,
    pub(crate) obs: RunObs,
    pub(crate) resilience: Resilience,
}

impl Engine {
    /// Creates a standalone engine owning a private translation state.
    /// `rules = None` is the pure QEMU-path baseline.
    #[must_use]
    pub fn new(rules: Option<RuleSet>, cfg: EngineConfig) -> Engine {
        let shards = cfg.cache_shards;
        Engine::with_shared(Arc::new(SharedTranslationState::new(rules, shards)), cfg)
    }

    /// Creates a session engine over an existing shared translation
    /// state (the `pdbt serve` path). `cfg.cache_shards` is ignored —
    /// the shared cache already has its geometry. `cfg.jobs` is
    /// normalized to the effective worker count (`0` would be clamped
    /// to 1 by the pool anyway, and the report must say what actually
    /// ran).
    #[must_use]
    pub fn with_shared(shared: Arc<SharedTranslationState>, mut cfg: EngineConfig) -> Engine {
        cfg.jobs = cfg.jobs.max(1);
        let obs = RunObs {
            cache: ShardCounters::with_shards(shared.cache().shard_count()),
            pool: PoolCounters::with_workers(cfg.jobs),
            ..RunObs::default()
        };
        shared.server().sessions.inc();
        Engine {
            shared,
            cfg,
            table: SessionTable::default(),
            metrics: Metrics::default(),
            obs,
            resilience: Resilience::default(),
        }
    }

    /// The accumulated metrics.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The accumulated observability state.
    #[must_use]
    pub fn obs(&self) -> &RunObs {
        &self.obs
    }

    /// The (shared) code cache.
    #[must_use]
    pub fn cache(&self) -> &ShardedCache {
        self.shared.cache()
    }

    /// The accumulated degraded-mode counters.
    #[must_use]
    pub fn resilience(&self) -> &Resilience {
        &self.resilience
    }

    /// Mutable degraded-mode counters, so the pipeline driver can fold
    /// in counts produced outside the engine (salvage loading,
    /// derivation quarantines).
    pub fn resilience_mut(&mut self) -> &mut Resilience {
        &mut self.resilience
    }

    /// Adopts a shared translation into this session at first
    /// session-local sight: folds its static footprint — block/host
    /// counts, attribution interning and static hits, lookup misses —
    /// into the session counters and gives it a slot with fresh
    /// dispatch state. The fold happens whether or not *this* session
    /// produced the translation; that is the invariant that keeps a
    /// warm-cache session's report bit-identical to a cold run.
    pub(crate) fn adopt(&mut self, pc: Addr, block: Arc<TranslatedBlock>) -> BlockId {
        self.metrics.blocks_translated += 1;
        self.metrics.host_generated += block.code.len() as u64;
        // Intern this block's rule attributions once; executions only
        // bump dense counters.
        let attr_ids: Vec<(RuleId, u32)> = block
            .attributions
            .iter()
            .map(|a| {
                let id = self.obs.rules.intern(&a.label, &a.subgroup);
                self.obs.rules.hit(id, 1);
                (id, a.covered)
            })
            .collect();
        for miss in &block.lookup_misses {
            self.obs.rules.miss(miss);
        }
        let id = self.table.push(CachedBlock::new(block, attr_ids));
        self.table.by_pc.insert(pc, id);
        id
    }

    /// Books a translation this session just paid for.
    pub(crate) fn record_translate_ns(&mut self, ns: Option<u64>) {
        if pdbt_obs::ENABLED {
            if let Some(ns) = ns {
                self.obs.translate_ns.record(ns);
            }
        }
    }

    /// Resolves the plain block at `pc` for this session: session block
    /// table, then the shared cache, then the translator. The shard
    /// hit/miss counters record *session-local* sights (hit = seen
    /// before in this session), so they are identical for a cold and a
    /// warm shared cache; the cross-session sharing shows up only in
    /// the server-lifetime counters.
    fn block(&mut self, prog: &Program, pc: Addr) -> Result<BlockId, EngineError> {
        // Fault site `cache`: keyed by pc so the same blocks fail on
        // every run with the same plan, cached or not. `run` degrades a
        // translation failure to the interpreter, so this exercises the
        // per-block fallback path.
        if pdbt_faults::hit(pdbt_faults::Site::Cache, u64::from(pc)) {
            return Err(EngineError::Translate(TranslateError {
                detail: format!("injected fault: cache/translation failed at {pc:#x}"),
            }));
        }
        let shard = self.shared.cache().shard_of(pc);
        if let Some(&id) = self.table.by_pc.get(&pc) {
            self.obs.cache.record_hit(shard);
            return Ok(id);
        }
        self.obs.cache.record_miss(shard);
        let (translation, ns) = self
            .shared
            .fetch_or_translate(prog, pc, &self.cfg.translate)?;
        self.record_translate_ns(ns);
        // One probe per distinct pc per session, counted only for
        // successful resolutions — so the server counters stay
        // schedule-independent (see `ServerCounters`).
        self.shared.server().probes.inc();
        Ok(self.adopt(pc, translation))
    }

    /// Whether executing `b` in full keeps the run within the guest
    /// budget. Plain blocks always qualify — the dispatcher's per-block
    /// budget check already ran, and a partial final block is fine
    /// (matches the unchained engine). Superblocks retire in member
    /// granularity, so they only run when the *whole* trace fits: that
    /// implies every intermediate per-member budget check of the
    /// unchained engine would have passed, keeping `guest_retired`
    /// identical. Otherwise the dispatcher falls back to plain blocks.
    fn budget_ok(&self, id: BlockId, retired: u64, max_guest: u64) -> bool {
        let b = &self.table.cached(id).block;
        b.member_marks.is_empty() || retired + u64::from(b.guest_len) <= max_guest
    }

    /// The dispatcher's slow path: the superblock headed at `pc`
    /// (budget allowing), then the plain block.
    fn resolve_slow(
        &mut self,
        prog: &Program,
        pc: Addr,
        retired: u64,
        max_guest: u64,
    ) -> Result<BlockId, EngineError> {
        if self.cfg.traces {
            let head = self.table.by_pc.get(&pc);
            if let Some(t) = head.and_then(|&head| self.table.slot(head).trace) {
                if self.budget_ok(t, retired, max_guest) {
                    return Ok(t);
                }
            }
        }
        self.block(prog, pc)
    }

    /// Resolves the block to execute at `pc`: the direct-mapped jump
    /// cache first (hash-free), then the slow path. The jump cache is
    /// refilled on miss — except when the slow path had to bypass a
    /// budget-blocked superblock, which must not evict the trace's
    /// jump-cache entry semantics (the plain block is a one-off near
    /// the budget edge).
    pub(crate) fn resolve_entry(
        &mut self,
        prog: &Program,
        pc: Addr,
        retired: u64,
        max_guest: u64,
    ) -> Result<BlockId, EngineError> {
        if !self.cfg.chaining {
            return self.resolve_slow(prog, pc, retired, max_guest);
        }
        let slot = jc_slot(pc);
        if let Some((key, id)) = self.table.jump_cache[slot] {
            if key == pc && self.budget_ok(id, retired, max_guest) {
                self.obs.dispatch.jump_cache_hits += 1;
                return Ok(id);
            }
        }
        self.obs.dispatch.jump_cache_misses += 1;
        let id = self.resolve_slow(prog, pc, retired, max_guest)?;
        // Only a plain block heads a trace, and the slow path returns
        // it only when that trace did not fit.
        let bypassed_trace = self.cfg.traces && self.table.slot(id).trace.is_some();
        if !bypassed_trace {
            self.table.jump_cache[slot] = Some((pc, id));
        }
        Ok(id)
    }

    /// Follows (resolving lazily) the chain link of `cur` for the
    /// observed exit to `next`. Returns `None` when the edge is not a
    /// direct-branch successor, resolution fails (the dispatcher's
    /// degradation path handles it), or the budget guard rejects a
    /// superblock — the caller re-enters the dispatcher. A current
    /// link costs an index, an epoch compare and a `live` test.
    pub(crate) fn follow_link(
        &mut self,
        prog: &Program,
        cur: BlockId,
        next: Addr,
        retired: u64,
        max_guest: u64,
    ) -> Option<BlockId> {
        let slot = self.table.slot_mut(cur);
        let edge = match slot.cached.block.succ {
            BlockSuccs::One(t) if t == next => 0,
            BlockSuccs::Two { taken, .. } if taken == next => 0,
            BlockSuccs::Two { fall, .. } if fall == next => 1,
            _ => return None,
        };
        slot.edge[edge] = slot.edge[edge].wrapping_add(1);
        let link = slot.links[edge];
        let target = match link {
            Some((target, epoch)) if epoch == self.table.epoch && self.table.slot(target).live => {
                target
            }
            // Stale, unresolved or into a dropped superblock: resolve
            // through the dispatcher's slow path and install the link.
            // Resolution failure (an injected translation fault) leaves
            // the link as it was; the dispatcher's own attempt at
            // `next` handles degradation.
            _ => {
                let resolved = self.resolve_slow(prog, next, retired, max_guest).ok()?;
                self.table.slot_mut(cur).links[edge] = Some((resolved, self.table.epoch));
                self.obs.dispatch.links_resolved += 1;
                resolved
            }
        };
        if !self.budget_ok(target, retired, max_guest) {
            return None;
        }
        self.obs.dispatch.chain_followed += 1;
        Some(target)
    }

    /// Attempts to promote the hot chain headed at `head` into a
    /// superblock: walks the static successor links (picking the hotter
    /// edge of conditionals), retranslates the member sequence as one
    /// trace, and gives it a slot the head points to. Each head is
    /// attempted once; failures (short chains, indirect exits,
    /// unsupported shapes) are permanent no-ops.
    pub(crate) fn form_trace(&mut self, prog: &Program, head: BlockId) {
        const MAX_MEMBERS: usize = 8;
        self.table.slot_mut(head).trace_attempted = true;
        let mut members = vec![self.table.cached(head).block.start];
        let mut cur = head;
        while members.len() < MAX_MEMBERS {
            let slot = self.table.slot(cur);
            let next = match slot.cached.block.succ {
                BlockSuccs::One(t) => t,
                BlockSuccs::Two { taken, fall } => {
                    if slot.edge[0] >= slot.edge[1] {
                        taken
                    } else {
                        fall
                    }
                }
                BlockSuccs::None => break,
            };
            // Loop closure: stop extending when the trace would revisit
            // a member (the backedge exits to the trace head, which the
            // jump cache catches).
            if members.contains(&next) || self.table.poisoned.contains(&next) {
                break;
            }
            let Ok(b) = self.block(prog, next) else { break };
            members.push(next);
            cur = b;
        }
        if members.len() < 2 {
            return;
        }
        // The boot artifact's superblock library is consulted *after*
        // member selection: on an exact member-list match the stored
        // translation is reused (translation is deterministic, so it
        // equals what `translate_trace` would produce and the stripped
        // report stays bit-identical to a cold run); any other member
        // choice simply misses and retranslates.
        let tb = match self.shared.library_trace(&members) {
            Some(t) => {
                self.shared.artifact().trace_hits.inc();
                t
            }
            None => {
                // Timed like `block`'s translation: a trace is translated
                // work, and most of a cold run's at that.
                let t0 = pdbt_obs::now_ns();
                let translated =
                    translate_trace(prog, &members, self.shared.rules(), &self.cfg.translate);
                self.record_translate_ns(Some(pdbt_obs::now_ns().saturating_sub(t0)));
                let Ok(tb) = translated else {
                    return;
                };
                Arc::new(tb)
            }
        };
        // Intern attribution ids only — no static `hit` and no miss
        // recording: the members' own translations already counted
        // them, and a superblock must not perturb the static rule
        // counters relative to the unchained engine. Superblocks are
        // session-local (member choice follows session edge counters),
        // so the trace translation stays out of the shared cache.
        let attr_ids: Vec<(RuleId, u32)> = tb
            .attributions
            .iter()
            .map(|a| (self.obs.rules.intern(&a.label, &a.subgroup), a.covered))
            .collect();
        let trace = self.table.push(CachedBlock::new(tb, attr_ids));
        self.table.slot_mut(head).trace = Some(trace);
        self.obs.dispatch.traces_formed += 1;
        // Links into the old head block must re-route through the
        // dispatcher to pick the trace up.
        self.bump_epoch();
    }

    /// Advances the invalidation epoch: every chain link goes stale at
    /// once, without any slot being walked, and the jump cache empties.
    fn bump_epoch(&mut self) {
        self.table.epoch = self.table.epoch.wrapping_add(1);
        self.table.jump_cache.fill(None);
        self.obs.dispatch.invalidations += 1;
    }

    /// Scoped invalidation when the block at `pc` degrades to the
    /// interpreter: drop only the superblocks actually containing it,
    /// scrub only the jump-cache slots holding it (or a dropped trace),
    /// clear only the chain links of plain blocks with `pc` as a
    /// successor, and bar it from future traces. Unrelated chains,
    /// traces and jump-cache entries survive — a poisoned pc in one
    /// corner of the program (or one session of a shared server) must
    /// not cold-start everything else. Links *into* a dropped trace
    /// need no epoch bump: its slot is no longer `live`, so the next
    /// follow re-resolves through the dispatcher.
    pub(crate) fn invalidate_for(&mut self, pc: Addr) {
        if !(self.cfg.chaining || self.cfg.traces) || !self.table.poisoned.insert(pc) {
            return;
        }
        let table = &mut self.table;
        let dropped: Vec<(BlockId, BlockId)> = table
            .traces()
            .filter(|(_, t)| {
                let marks = &table.cached(*t).block.member_marks;
                marks.iter().any(|m| m.start == pc)
            })
            .collect();
        let mut dropped_heads = Vec::with_capacity(dropped.len());
        for (head, trace) in dropped {
            table.slot_mut(trace).live = false;
            table.slot_mut(head).trace = None;
            dropped_heads.push(table.cached(head).block.start);
        }
        for entry in table.jump_cache.iter_mut() {
            if entry.is_some_and(|(key, _)| key == pc || dropped_heads.contains(&key)) {
                *entry = None;
            }
        }
        // The poisoned pc's plain block keeps its slot, so links
        // targeting it are cleared explicitly: the next follow goes
        // through the dispatcher and its fault check.
        for &id in table.by_pc.values() {
            let slot = &mut table.slots[id.0 as usize];
            if slot.targets(pc) {
                slot.links = [None; 2];
            }
        }
        self.obs.dispatch.invalidations += 1;
    }

    /// Adopts every statically reachable block up front, fanning the
    /// translation work across [`EngineConfig::jobs`] workers. Returns
    /// the number of blocks newly adopted into the session.
    ///
    /// Discovery is a serial walk of the static CFG, workers fetch from
    /// the shared cache or translate independently (translation is
    /// pure) and publish through the deduplicating insert, and the fold
    /// into the session counters runs serially in address order — so
    /// the session state after a prewarm does not depend on the worker
    /// count, on scheduling, or on how warm the shared cache already
    /// was. Blocks that fail to translate are skipped; the run path
    /// surfaces the error if execution actually reaches them.
    pub fn prewarm(&mut self, prog: &Program) -> usize {
        let pool = Pool::new(self.cfg.jobs);
        let _span = pdbt_obs::span_with("prewarm", || format!("jobs={}", pool.jobs()));
        let todo: Vec<Addr> = discover_block_starts(prog, self.cfg.translate.max_block)
            .into_iter()
            .filter(|pc| !self.table.contains(*pc))
            .collect();
        let shared = Arc::clone(&self.shared);
        let tcfg = self.cfg.translate;
        let (resolved, util) =
            pool.map_util(&todo, |pc| shared.fetch_or_translate(prog, *pc, &tcfg).ok());
        self.obs.pool.record(&util);
        let mut cached = 0usize;
        for (pc, resolved) in todo.into_iter().zip(resolved) {
            let Some((translation, ns)) = resolved else {
                continue;
            };
            self.record_translate_ns(ns);
            self.shared.server().probes.inc();
            self.adopt(pc, translation);
            cached += 1;
        }
        cached
    }

    /// Runs a guest program under the DBT.
    ///
    /// Runtime failures degrade instead of erroring: a block that fails
    /// to translate is interpreted ([`Resilience::degraded_blocks`]),
    /// and budget exhaustion or an execution fault ends the run with a
    /// *partial* [`Report`] whose [`Report::outcome`] says why — the
    /// metrics and observability state accumulated so far are never
    /// dropped.
    ///
    /// # Errors
    ///
    /// [`EngineError`] only on setup failures (mapping or seeding the
    /// environment), before any guest instruction runs.
    pub fn run(&mut self, prog: &Program, setup: &RunSetup) -> Result<Report, EngineError> {
        let run_start_ns = pdbt_obs::now_ns();
        let translate_ns_before = self.obs.translate_ns.sum();
        if self.cfg.jobs > 1 {
            self.prewarm(prog);
        }
        let mut host = HostCpu::new();
        // The environment block.
        host.mem.map(ENV_BASE, env::ENV_SIZE);
        host.write(HReg::Ebp, ENV_BASE);
        // Identity-map guest memory.
        for (base, size) in &setup.maps {
            host.mem.map(*base, *size);
        }
        for (addr, words) in &setup.init_words {
            for (i, w) in words.iter().enumerate() {
                host.mem.store32(addr + (i as u32) * 4, *w)?;
            }
        }
        // Seed guest registers into the environment.
        for r in GReg::ALL {
            host.mem.store32(
                ENV_BASE.wrapping_add(env::reg_offset(r) as u32),
                setup.regs[r.index()],
            )?;
        }
        let mut pc = prog.base();
        // The host executor, resolved once; the shared handle is
        // cloned out so the backend's counter sinks don't alias the
        // `&mut self` borrows inside the segment loop.
        let backend = backend_for(self.cfg.backend);
        let shared = Arc::clone(&self.shared);
        let outcome = loop {
            if self.metrics.guest_retired >= setup.max_guest {
                break Outcome::Budget;
            }
            if let Some(d) = setup.deadline {
                if Instant::now() >= d {
                    break Outcome::Deadline;
                }
            }
            let mut cur =
                match self.resolve_entry(prog, pc, self.metrics.guest_retired, setup.max_guest) {
                    Ok(cached) => cached,
                    Err(EngineError::Translate(_)) => {
                        // Degraded mode: interpret this one block and keep
                        // translating from the next one. The block is
                        // poisoned for chaining first, so no chain or
                        // trace can re-enter it behind the dispatcher's
                        // back.
                        self.invalidate_for(pc);
                        match self.interpret_block(prog, pc, &mut host) {
                            Ok(Some(next)) => {
                                pc = next;
                                continue;
                            }
                            Ok(None) => break Outcome::Completed,
                            Err(e) => break Outcome::Exec(e),
                        }
                    }
                    Err(EngineError::Exec(e)) => break Outcome::Exec(e),
                    Err(EngineError::Budget) => break Outcome::Budget,
                };
            // Chain segment: execute the resolved block, then follow
            // chain links inline for as long as they resolve. The
            // per-block scalar folds batch into locals and land in the
            // metrics once per segment, and the segment is the unit of
            // tracing: one span per dispatcher entry, no clock read
            // between chain links (unchained, a segment is one block).
            let mut seg_guest = 0u64;
            let mut seg_rule = 0u64;
            let mut seg_host = 0u64;
            let mut seg_class = [0u64; 4];
            let mut seg_blocks = 0u64;
            let seg_span = pdbt_obs::span("exec_segment");
            let seg_outcome = loop {
                let cached = self.table.cached(cur);
                let block = &cached.block;
                let exec = {
                    let budget = host_block_budget(
                        setup.max_guest,
                        self.metrics.guest_retired + seg_guest,
                        block.guest_len,
                        block.code.len(),
                    );
                    let mut obs = BackendObs {
                        dispatch: &mut self.obs.dispatch,
                        server: shared.server(),
                    };
                    backend.execute(cached, &mut host, budget, &mut obs)
                };
                // The executor tallied what it retired, by class and
                // by member anchor: nothing here scales with the
                // block's length.
                let (exit, stats, tally) = match exec {
                    Ok(res) => res,
                    Err(e) => break Some(Outcome::Exec(e)),
                };
                for (sum, n) in seg_class.iter_mut().zip(tally.by_class) {
                    *sum += n;
                }
                seg_blocks += 1;
                seg_host += stats.executed;
                self.obs.block_host_len.record(stats.executed);
                let plain = block.member_marks.is_empty();
                if plain {
                    // A plain block retires wholesale.
                    seg_guest += u64::from(block.guest_len);
                    seg_rule += u64::from(block.rule_covered);
                    retire(&mut self.obs, &cached.attr_ids, block.deleg);
                } else {
                    // A superblock retires the member prefix that
                    // actually ran: a member retired iff its anchor —
                    // its first host instruction — executed (side exits
                    // leave through a member's own trampoline, so
                    // retired members always form a prefix).
                    self.obs.dispatch.trace_execs += 1;
                    let marks = &block.member_marks;
                    for (m, anchor) in marks.iter().zip(anchor_numbers(marks)) {
                        if !tally.anchor_ran(anchor) {
                            break;
                        }
                        seg_guest += u64::from(m.guest_len);
                        seg_rule += u64::from(m.rule_covered);
                        let attrs = &cached.attr_ids[m.attr_range.0..m.attr_range.1];
                        retire(&mut self.obs, attrs, m.deleg);
                    }
                }
                if plain && self.cfg.traces && self.table.heat(cur, self.cfg.trace_threshold) {
                    self.form_trace(prog, cur);
                }
                match exit {
                    BlockExit::Jumped(next) => pc = next,
                    BlockExit::Halted => break Some(Outcome::Completed),
                    BlockExit::Fell => break Some(Outcome::Exec(ExecError::BadPc { pc })),
                }
                if !self.cfg.chaining {
                    break None;
                }
                let retired = self.metrics.guest_retired + seg_guest;
                if retired >= setup.max_guest {
                    break Some(Outcome::Budget);
                }
                // A chain segment can loop indefinitely (a self-loop
                // chains to itself without re-entering the dispatcher),
                // so the deadline is also polled inside the segment —
                // throttled, since `Instant::now` is not free. No
                // deadline, no clock reads: determinism is unaffected.
                if seg_blocks.is_multiple_of(64) {
                    if let Some(d) = setup.deadline {
                        if Instant::now() >= d {
                            break Some(Outcome::Deadline);
                        }
                    }
                }
                match self.follow_link(prog, cur, pc, retired, setup.max_guest) {
                    Some(next_b) => cur = next_b,
                    None => break None,
                }
            };
            drop(seg_span);
            self.metrics.guest_retired += seg_guest;
            self.metrics.rule_covered += seg_rule;
            self.metrics.host_retired += seg_host;
            for (sum, n) in self.metrics.host_by_class.iter_mut().zip(seg_class) {
                *sum += n;
            }
            self.metrics.blocks_executed += seg_blocks;
            if let Some(outcome) = seg_outcome {
                break outcome;
            }
        };
        // `snapshot` is scope-aware: inside a request-scoped fault
        // guard (`pdbt serve`) it reads the request's own counters, so
        // concurrent sessions never see each other's injections.
        self.resilience.injected = pdbt_faults::snapshot();
        if self.cfg.record_telemetry {
            // The one-session-server view: translate time is the run's
            // delta on the translate histogram; everything else spent
            // inside `run` counts as execute. Queue and reply phases
            // exist only under `pdbt-serve`, which records the full
            // lifecycle itself (and disables this path).
            let translate = self
                .obs
                .translate_ns
                .sum()
                .saturating_sub(translate_ns_before);
            let elapsed = pdbt_obs::now_ns().saturating_sub(run_start_ns);
            let telemetry = self.shared.telemetry();
            let summary = RequestSummary {
                seq: telemetry.next_seq(),
                id: 0,
                partition: telemetry.partition(),
                outcome: outcome.label().to_string(),
                phases: PhaseNs {
                    queue: 0,
                    translate,
                    execute: elapsed.saturating_sub(translate),
                    reply: 0,
                },
                reply_bytes: 0,
                injected: self.resilience.injected.iter().sum(),
                fault_sites: String::new(),
            };
            telemetry.record(pdbt_par::current_worker_slot().unwrap_or(0), summary);
        }
        Ok(Report {
            metrics: self.metrics.clone(),
            output: host.output,
            obs: self.obs.clone(),
            outcome,
            resilience: self.resilience.clone(),
            server: self.shared.server().snapshot(),
            telemetry: self.shared.telemetry().snapshot(),
            artifact: self.shared.artifact().snapshot(),
            backend: self.cfg.backend.name(),
        })
    }

    /// A copy of every superblock this session formed, sorted by head
    /// address — the canonical order translation artifacts persist them
    /// in. The member list of each trace is recoverable from its
    /// `member_marks`, which is how an artifact loader keys the
    /// library.
    #[must_use]
    pub fn export_traces(&self) -> Vec<TranslatedBlock> {
        let mut traces: Vec<TranslatedBlock> = self
            .table
            .traces()
            .map(|(_, t)| (*self.table.cached(t).block).clone())
            .collect();
        traces.sort_unstable_by_key(|t| t.start);
        traces
    }

    /// Interprets the guest block starting at `pc` directly against the
    /// environment state — the graceful-degradation path for blocks the
    /// translator cannot handle (or that an injected `cache` fault
    /// poisoned). Architectural state (registers, flags, float
    /// registers, icount, guest memory, output) round-trips through the
    /// environment block so translated and interpreted blocks compose
    /// transparently.
    ///
    /// Returns the next guest pc, or `None` when the guest halted.
    pub(crate) fn interpret_block(
        &mut self,
        prog: &Program,
        pc: Addr,
        host: &mut HostCpu,
    ) -> Result<Option<Addr>, ExecError> {
        let mut gc = GuestCpu::new();
        // Guest memory is identity-mapped in the host, so the host
        // memory *is* the guest memory (plus the env block, which the
        // guest never touches). Borrow it wholesale for the block.
        std::mem::swap(&mut gc.mem, &mut host.mem);
        let env = |off: i32| ENV_BASE.wrapping_add(off as u32);
        // Load the architectural state out of the environment.
        let mut load = || -> Result<(), ExecError> {
            for r in GReg::ALL {
                if r != GReg::Pc {
                    gc.regs[r.index()] = gc.mem.load32(env(env::reg_offset(r)))?;
                }
            }
            for f in Flag::ALL {
                let v = gc.mem.load32(env(env::flag_offset(f)))? != 0;
                gc.flags.set(f, v);
            }
            for i in 0..16u8 {
                let s = FReg::new(i);
                let bits = gc.mem.load32(env(env::freg_offset(s)))?;
                gc.fregs[s.index()] = f32::from_bits(bits);
            }
            Ok(())
        };
        if let Err(e) = load() {
            std::mem::swap(&mut gc.mem, &mut host.mem);
            return Err(e);
        }
        let (stepped, executed) = interpret_steps(&mut gc, prog, pc, self.cfg.translate.max_block);
        // Write the state back even when stepping faulted, so the
        // partial report reflects everything that retired.
        let mut store = || -> Result<(), ExecError> {
            for r in GReg::ALL {
                if r != GReg::Pc {
                    gc.mem
                        .store32(env(env::reg_offset(r)), gc.regs[r.index()])?;
                }
            }
            for f in Flag::ALL {
                gc.mem
                    .store32(env(env::flag_offset(f)), u32::from(gc.flags.get(f)))?;
            }
            for i in 0..16u8 {
                let s = FReg::new(i);
                gc.mem
                    .store32(env(env::freg_offset(s)), gc.fregs[s.index()].to_bits())?;
            }
            let icount = gc.mem.load32(env(env::ICOUNT_OFFSET))?;
            gc.mem.store32(
                env(env::ICOUNT_OFFSET),
                icount.wrapping_add(executed as u32),
            )?;
            Ok(())
        };
        let store_res = store();
        std::mem::swap(&mut gc.mem, &mut host.mem);
        host.output.extend(gc.output);
        self.metrics.blocks_executed += 1;
        self.metrics.guest_retired += executed;
        self.obs.block_host_len.record(0);
        self.resilience.degraded_blocks += 1;
        self.resilience.interpreted_guest += executed;
        store_res?;
        stepped
    }
}

/// Steps the interpreter from `pc` until the end of the basic block: a
/// control transfer, a halt, at most `max_block` straight-line
/// instructions, or a fault. Returns the stepping result (next pc, halt
/// or error) plus how many instructions retired.
fn interpret_steps(
    gc: &mut GuestCpu,
    prog: &Program,
    mut pc: Addr,
    max_block: usize,
) -> (Result<Option<Addr>, ExecError>, u64) {
    let mut executed = 0u64;
    loop {
        let inst = match prog.fetch(pc) {
            Ok(inst) => inst,
            Err(e) => return (Err(e), executed),
        };
        gc.set_pc(pc);
        match step(gc, inst) {
            Ok(Control::Next) => {
                executed += 1;
                pc = pc.wrapping_add(INST_SIZE);
                if executed >= max_block as u64 {
                    return (Ok(Some(pc)), executed);
                }
            }
            Ok(Control::Jump(target)) | Ok(Control::Call { target, .. }) => {
                executed += 1;
                return (Ok(Some(target)), executed);
            }
            Ok(Control::Halt) => {
                executed += 1;
                return (Ok(None), executed);
            }
            Err(e) => return (Err(e), executed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdbt_isa::Cond;
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::{Cpu as GuestCpu, Operand as O, Reg};

    pub(super) fn countdown_program() -> Program {
        Program::new(
            0x1000,
            vec![
                g::mov(Reg::R0, O::Imm(5)),
                g::mov(Reg::R1, O::Imm(0)),
                g::add(Reg::R1, Reg::R1, O::Reg(Reg::R0)),
                g::sub(Reg::R0, Reg::R0, O::Imm(1)).with_s(),
                g::b(Cond::Ne, -8),
                g::mov(Reg::R0, O::Reg(Reg::R1)),
                g::svc(1),
                g::svc(0),
            ],
        )
    }

    pub(super) fn setup() -> RunSetup {
        RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000)
    }

    #[test]
    fn qemu_only_engine_matches_interpreter() {
        let prog = countdown_program();
        let mut engine = Engine::new(None, EngineConfig::default());
        let report = engine.run(&prog, &setup()).expect("runs");
        assert_eq!(report.output, vec![15]);
        assert_eq!(report.metrics.coverage(), 0.0, "no rules, no coverage");
        assert_eq!(report.metrics.guest_retired, 20);
        // And the golden interpreter agrees.
        let mut cpu = GuestCpu::new();
        pdbt_isa_arm::run(&mut cpu, &prog, 10_000).unwrap();
        assert_eq!(cpu.output, report.output);
    }

    #[test]
    fn code_cache_reuses_blocks() {
        let prog = countdown_program();
        let mut engine = Engine::new(None, EngineConfig::default());
        let report = engine.run(&prog, &setup()).unwrap();
        // The loop block executes 5 times but translates once.
        assert!(report.metrics.blocks_executed > report.metrics.blocks_translated);
    }

    #[test]
    fn class_accounting_covers_all_executed() {
        let prog = countdown_program();
        let mut engine = Engine::new(None, EngineConfig::default());
        let report = engine.run(&prog, &setup()).unwrap();
        assert!(report.metrics.host_executed() > report.metrics.guest_retired);
        assert!(report.metrics.host_by_class[CodeClass::Control.index()] > 0);
        assert!(report.metrics.host_by_class[CodeClass::QemuCore.index()] > 0);
    }

    #[test]
    fn budget_is_enforced() {
        let prog = Program::new(0, vec![g::b(Cond::Al, 0)]);
        let mut engine = Engine::new(None, EngineConfig::default());
        let mut s = setup();
        s.max_guest = 100;
        let report = engine.run(&prog, &s).expect("partial report");
        assert_eq!(report.outcome, Outcome::Budget);
        assert!(report.metrics.guest_retired >= 100);
    }

    /// The interpreter fallback must be architecturally transparent:
    /// driving a program block-by-block through `interpret_block` has
    /// to produce the same observable output as the translated run,
    /// with the degradation counted.
    #[test]
    fn interpreter_fallback_matches_translated_run() {
        let prog = countdown_program();
        let s = setup();
        let reference = Engine::new(None, EngineConfig::default())
            .run(&prog, &s)
            .expect("runs")
            .output;
        let mut engine = Engine::new(None, EngineConfig::default());
        let mut host = HostCpu::new();
        host.mem.map(ENV_BASE, env::ENV_SIZE);
        host.write(HReg::Ebp, ENV_BASE);
        for (base, size) in &s.maps {
            host.mem.map(*base, *size);
        }
        for r in GReg::ALL {
            host.mem
                .store32(
                    ENV_BASE.wrapping_add(env::reg_offset(r) as u32),
                    s.regs[r.index()],
                )
                .unwrap();
        }
        let mut pc = prog.base();
        while let Some(next) = engine.interpret_block(&prog, pc, &mut host).expect("steps") {
            pc = next;
        }
        assert_eq!(host.output, reference);
        assert!(engine.resilience().degraded_blocks > 0);
        assert_eq!(
            engine.resilience().interpreted_guest,
            engine.metrics().guest_retired,
            "every retired instruction came from the interpreter"
        );
    }

    /// Satellite regression: a budget-exhausted run must still carry
    /// the metrics and histograms accumulated up to the stop point —
    /// the partial report is the whole point of degrading instead of
    /// erroring.
    #[test]
    fn partial_report_survives_budget_exhaustion() {
        let prog = Program::new(0, vec![g::b(Cond::Al, 0)]);
        let mut engine = Engine::new(None, EngineConfig::default());
        let mut s = setup();
        s.max_guest = 100;
        let report = engine.run(&prog, &s).expect("partial report");
        assert_eq!(report.outcome, Outcome::Budget);
        assert!(report.metrics.host_retired > 0, "host work retained");
        assert!(report.metrics.blocks_executed > 0);
        assert!(
            report.obs.block_host_len.count() > 0,
            "histograms survive the abort"
        );
        let json = report.to_json().to_string();
        assert!(json.contains("\"outcome\":\"budget\""), "{json}");
    }

    /// Satellite regression: the per-block host budget is derived from
    /// the *remaining* guest budget, not a flat million. A host block
    /// that spins forever must time out after the derived allowance —
    /// under either backend — instead of burning 1M host instructions.
    #[test]
    fn host_block_budget_derives_from_remaining_guest_budget() {
        use pdbt_isa_x86::builders as hx;
        let prog = Program::new(0x1000, vec![g::svc(0)]);
        let mut s = setup();
        s.max_guest = 10;
        // remaining 10 × ratio 64 + slack 256 = 896.
        let expect = host_block_budget(s.max_guest, 0, 1, 1);
        assert_eq!(expect, 896);
        assert_eq!(
            host_block_budget(50_000_000, 0, 1, 1),
            1_000_000,
            "default budgets still clamp at the old ceiling"
        );
        assert_eq!(
            host_block_budget(10, 10, 4, 900),
            901,
            "exhausted budget still admits one pass over the block"
        );
        for backend in [BackendKind::Model, BackendKind::Threaded] {
            let cfg = EngineConfig {
                backend,
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(None, cfg);
            // A host block that never exits: `jmp .-0` re-executes
            // itself forever without retiring guest work.
            let spin = TranslatedBlock {
                start: prog.base(),
                code: vec![hx::jmp_rel(-1)],
                classes: vec![CodeClass::QemuCore],
                guest_len: 1,
                rule_covered: 0,
                attributions: Vec::new(),
                lookup_misses: Vec::new(),
                deleg: None,
                succ: BlockSuccs::None,
                member_marks: Vec::new(),
            };
            engine.adopt(prog.base(), Arc::new(spin));
            let report = engine.run(&prog, &s).expect("partial report");
            assert_eq!(
                report.outcome,
                Outcome::Exec(ExecError::Timeout { budget: expect }),
                "backend {}",
                backend.name()
            );
        }
    }

    /// Tentpole smoke: model and threaded backends agree on a full run
    /// — same output, metrics, and compiled-block accounting rules.
    #[test]
    fn backends_produce_identical_runs() {
        let prog = countdown_program();
        let run = |backend: BackendKind| {
            let cfg = EngineConfig {
                backend,
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(None, cfg);
            engine.run(&prog, &setup()).expect("runs")
        };
        let model = run(BackendKind::Model);
        let threaded = run(BackendKind::Threaded);
        assert_eq!(model.output, threaded.output);
        assert_eq!(model.metrics, threaded.metrics);
        assert_eq!(model.outcome, threaded.outcome);
        assert_eq!(model.backend, "model");
        assert_eq!(threaded.backend, "threaded");
        assert_eq!(model.obs.dispatch.compiled_blocks, 0);
        assert_eq!(
            threaded.obs.dispatch.compiled_blocks, threaded.metrics.blocks_translated,
            "every distinct executed block compiled exactly once"
        );
    }
}

#[cfg(test)]
mod engine_edge_tests {
    use super::tests::{countdown_program, setup};
    use super::*;
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::{Operand as O, Program, Reg};

    fn tiny_program() -> Program {
        Program::new(
            0x1000,
            vec![g::mov(Reg::R0, O::Imm(1)), g::svc(1), g::svc(0)],
        )
    }

    #[test]
    fn rerun_reuses_the_code_cache() {
        let prog = tiny_program();
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let mut engine = Engine::new(None, EngineConfig::default());
        engine.run(&prog, &setup).unwrap();
        let translated_once = engine.metrics().blocks_translated;
        engine.run(&prog, &setup).unwrap();
        assert_eq!(
            engine.metrics().blocks_translated,
            translated_once,
            "second run translates nothing new"
        );
        assert_eq!(engine.metrics().blocks_executed, 2);
    }

    #[test]
    fn unmapped_guest_memory_faults_cleanly() {
        let prog = Program::new(
            0x1000,
            vec![
                g::mov(Reg::R1, O::Imm(0x40)),
                g::lsl(Reg::R1, Reg::R1, O::Imm(12)), // 0x40000: unmapped
                g::ldr(
                    Reg::R0,
                    pdbt_isa_arm::MemAddr::BaseImm {
                        base: Reg::R1,
                        offset: 0,
                    },
                ),
                g::svc(0),
            ],
        );
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let mut engine = Engine::new(None, EngineConfig::default());
        let report = engine.run(&prog, &setup).expect("partial report");
        assert!(matches!(report.outcome, Outcome::Exec(_)));
    }

    #[test]
    fn init_words_are_visible_to_the_guest() {
        let prog = Program::new(
            0x1000,
            vec![
                g::mov(Reg::R1, O::Imm(0x100)),
                g::lsl(Reg::R1, Reg::R1, O::Imm(12)),
                g::ldr(
                    Reg::R0,
                    pdbt_isa_arm::MemAddr::BaseImm {
                        base: Reg::R1,
                        offset: 8,
                    },
                ),
                g::svc(1),
                g::svc(0),
            ],
        );
        let mut setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        setup.init_words.push((0x10_0008, vec![0xdead_beef]));
        let mut engine = Engine::new(None, EngineConfig::default());
        let r = engine.run(&prog, &setup).unwrap();
        assert_eq!(r.output, vec![0xdead_beef]);
    }

    #[test]
    fn metrics_merge_sums_every_field() {
        let prog = tiny_program();
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let mut engine = Engine::new(None, EngineConfig::default());
        let a = engine.run(&prog, &setup).unwrap().metrics;
        let mut total = a.clone();
        total.merge(&a);
        assert!(a.guest_retired > 0);
        assert_eq!(total.values(), a.values().map(|n| 2 * n));
        assert_eq!(total.host_by_class, a.host_by_class.map(|n| 2 * n));
        // Ratios are invariant under self-merge.
        assert!((total.total_ratio() - a.total_ratio()).abs() < 1e-12);
        // The Display table mentions the headline counters.
        let table = total.to_string();
        assert!(table.contains("guest retired"));
        assert!(table.contains("rule core"));
    }

    #[test]
    fn exec_stats_fold_into_host_retired() {
        let prog = countdown_program();
        let mut engine = Engine::new(None, EngineConfig::default());
        let report = engine.run(&prog, &setup()).unwrap();
        // The executor's own count agrees with the per-class attribution.
        assert_eq!(report.metrics.host_retired, report.metrics.host_executed());
        assert!(report.metrics.host_retired > 0);
    }

    #[test]
    fn observability_counts_block_shapes() {
        let prog = countdown_program();
        let mut engine = Engine::new(None, EngineConfig::default());
        let report = engine.run(&prog, &setup()).unwrap();
        // One histogram sample per block execution.
        assert_eq!(
            report.obs.block_host_len.count(),
            report.metrics.blocks_executed
        );
        assert_eq!(report.obs.block_host_len.sum(), report.metrics.host_retired);
        // The loop's conditional exit ran once per iteration; without
        // rules it cannot delegate (QEMU folding may still apply, so we
        // only check that every conditional exit was observed).
        assert_eq!(report.obs.deleg_depth.count(), 5);
        // No rules, no attribution.
        assert_eq!(report.obs.rules.total_covered(), 0);
    }

    #[test]
    fn report_json_roundtrips() {
        let prog = countdown_program();
        let mut engine = Engine::new(None, EngineConfig::default());
        let report = engine.run(&prog, &setup()).unwrap();
        let text = report.to_json().to_string();
        let doc = pdbt_obs::json::Json::parse(&text).expect("valid json");
        let metrics = doc.get("metrics").expect("metrics object");
        assert_eq!(
            metrics.get("guest_retired").and_then(|v| v.as_u64()),
            Some(report.metrics.guest_retired)
        );
        assert_eq!(
            metrics
                .get("host_by_class")
                .and_then(|c| c.get("control"))
                .and_then(|v| v.as_u64()),
            Some(report.metrics.host_by_class[CodeClass::Control.index()])
        );
        let hists = doc.get("histograms").expect("histograms object");
        assert_eq!(
            hists
                .get("block_host_len")
                .and_then(|h| h.get("count"))
                .and_then(|v| v.as_u64()),
            Some(report.metrics.blocks_executed)
        );
        assert_eq!(
            doc.get("output").and_then(|o| o.as_arr()).map(|a| a.len()),
            Some(report.output.len())
        );
        let cache = doc.get("cache").expect("cache object");
        assert_eq!(cache.get("shards").and_then(|v| v.as_u64()), Some(8));
        assert_eq!(
            cache.get("total_misses").and_then(|v| v.as_u64()),
            Some(report.metrics.blocks_translated)
        );
        let pool = doc.get("pool").expect("pool object");
        assert_eq!(
            pool.get("total").and_then(|v| v.as_u64()),
            Some(0),
            "no prewarm ran"
        );
    }

    #[test]
    fn prewarm_populates_the_cache_deterministically() {
        let prog = countdown_program();
        let mut serial = Engine::new(None, EngineConfig::default());
        let n1 = serial.prewarm(&prog);
        assert!(n1 > 0, "the static CFG has blocks to discover");
        let mut par = Engine::new(
            None,
            EngineConfig {
                jobs: 4,
                ..EngineConfig::default()
            },
        );
        let n4 = par.prewarm(&prog);
        assert_eq!(n1, n4, "worker count cannot change what is discovered");
        assert_eq!(serial.cache().len(), par.cache().len());
        assert_eq!(serial.metrics(), par.metrics());
        assert_eq!(par.obs().pool.total(), n4 as u64);
        // Prewarm is idempotent: everything is already cached.
        assert_eq!(par.prewarm(&prog), 0);
    }

    #[test]
    fn parallel_engine_run_matches_serial() {
        let prog = countdown_program();
        let mut serial = Engine::new(None, EngineConfig::default());
        let a = serial.run(&prog, &setup()).unwrap();
        let mut par = Engine::new(
            None,
            EngineConfig {
                jobs: 4,
                cache_shards: 4,
                ..EngineConfig::default()
            },
        );
        let b = par.run(&prog, &setup()).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.metrics, b.metrics);
        // Dispatch behaviour (jump cache, chaining, traces) only
        // depends on execution order, which is identical.
        assert_eq!(a.obs.dispatch.chain_followed, b.obs.dispatch.chain_followed);
        assert_eq!(
            a.obs.dispatch.jump_cache_hits,
            b.obs.dispatch.jump_cache_hits
        );
        // The auto-prewarmed engine never misses at dispatch time…
        assert_eq!(b.obs.cache.total_misses(), 0);
        // …while the lazy engine misses exactly once per translation.
        assert_eq!(a.obs.cache.total_misses(), a.metrics.blocks_translated);
    }

    /// A run past its wall-clock deadline stops with a partial report
    /// and the `deadline` outcome; an already-expired deadline stops
    /// before any guest instruction retires.
    #[test]
    fn deadline_stops_the_run_with_a_partial_report() {
        let prog = Program::new(0, vec![g::b(pdbt_isa::Cond::Al, 0)]);
        let mut engine = Engine::new(None, EngineConfig::default());
        let mut s = setup();
        s.max_guest = u64::MAX;
        s.deadline = Some(Instant::now() + std::time::Duration::from_millis(30));
        let report = engine.run(&prog, &s).expect("partial report");
        assert_eq!(report.outcome, Outcome::Deadline);
        assert!(report.metrics.guest_retired > 0, "work before the deadline");
        let json = report.to_json().to_string();
        assert!(json.contains("\"outcome\":\"deadline\""), "{json}");
        // Expired before the first block: nothing retires.
        let mut engine = Engine::new(None, EngineConfig::default());
        let mut s2 = setup();
        s2.deadline = Some(Instant::now());
        let r2 = engine.run(&countdown_program(), &s2).expect("report");
        assert_eq!(r2.outcome, Outcome::Deadline);
        assert_eq!(r2.metrics.guest_retired, 0);
    }

    /// The warm-cache session invariant: a second session over a shared
    /// state translates nothing, yet its metrics and counters are
    /// identical to the cold session's (per-session static folding).
    #[test]
    fn warm_session_reports_match_cold_without_translating() {
        let prog = countdown_program();
        let cfg = EngineConfig::default();
        let shared = Arc::new(SharedTranslationState::new(None, cfg.cache_shards));
        let mut cold = Engine::with_shared(shared.clone(), cfg);
        let a = cold.run(&prog, &setup()).unwrap();
        let translates_after_cold = shared.server().snapshot().translate_calls;
        let mut warm = Engine::with_shared(shared.clone(), cfg);
        let b = warm.run(&prog, &setup()).unwrap();
        let snap = shared.server().snapshot();
        assert_eq!(
            snap.translate_calls, translates_after_cold,
            "the warm session translated nothing"
        );
        assert_eq!(a.output, b.output);
        assert_eq!(a.metrics, b.metrics, "static folds identical warm or cold");
        assert_eq!(
            a.obs.cache.total_misses(),
            b.obs.cache.total_misses(),
            "session-local sight counting is cache-warmth-independent"
        );
        assert_eq!(snap.sessions, 2);
        assert_eq!(snap.inserted, a.metrics.blocks_translated);
        assert_eq!(snap.probes, 2 * a.metrics.blocks_translated);
        assert_eq!(snap.hits(), a.metrics.blocks_translated);
        // The report carries the server section.
        let doc = pdbt_obs::json::Json::parse(&b.to_json().to_string()).unwrap();
        let server = doc.get("server").expect("server section");
        assert_eq!(server.get("sessions").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(
            server.get("hits").and_then(|v| v.as_u64()),
            Some(snap.hits())
        );
    }

    #[test]
    fn metrics_ratios_are_consistent() {
        let prog = tiny_program();
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let mut engine = Engine::new(None, EngineConfig::default());
        let r = engine.run(&prog, &setup).unwrap();
        let m = &r.metrics;
        let sum: f64 = [
            crate::CodeClass::RuleCore,
            crate::CodeClass::QemuCore,
            crate::CodeClass::DataTransfer,
            crate::CodeClass::Control,
        ]
        .into_iter()
        .map(|c| m.ratio(c))
        .sum();
        assert!((sum - m.total_ratio()).abs() < 1e-9);
        assert_eq!(m.host_executed(), m.host_by_class.iter().sum::<u64>());
    }
}

#[cfg(test)]
mod session_tests {
    use super::*;
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::{Operand as O, Program, Reg};

    /// Two independent two-block loops (each body split by an
    /// unconditional branch, so hot chains span multiple members and
    /// superblocks can form).
    fn two_loop_program() -> Program {
        Program::new(
            0x1000,
            vec![
                g::mov(Reg::R0, O::Imm(80)),                  // 0x1000
                g::sub(Reg::R0, Reg::R0, O::Imm(1)).with_s(), // 0x1004: A1
                g::b(pdbt_isa::Cond::Al, 8),                  // 0x1008 -> 0x1010
                g::svc(0),                                    // 0x100c (dead)
                g::add(Reg::R1, Reg::R1, O::Imm(1)),          // 0x1010: A2
                g::b(pdbt_isa::Cond::Ne, -16),                // 0x1014 -> 0x1004
                g::mov(Reg::R2, O::Imm(80)),                  // 0x1018
                g::sub(Reg::R2, Reg::R2, O::Imm(1)).with_s(), // 0x101c: B1
                g::b(pdbt_isa::Cond::Al, 8),                  // 0x1020 -> 0x1028
                g::svc(0),                                    // 0x1024 (dead)
                g::add(Reg::R3, Reg::R3, O::Imm(1)),          // 0x1028: B2
                g::b(pdbt_isa::Cond::Ne, -16),                // 0x102c -> 0x101c
                g::svc(0),                                    // 0x1030
            ],
        )
    }

    /// An engine that ran [`two_loop_program`] twice: the first run
    /// promotes both loops, the rerun (no head is tried twice, so no
    /// epoch moves) leaves every link it followed current.
    fn two_loop_engine(shared: Option<Arc<SharedTranslationState>>) -> Engine {
        let cfg = EngineConfig {
            trace_threshold: 5,
            ..EngineConfig::default()
        };
        let mut engine = match shared {
            Some(shared) => Engine::with_shared(shared, cfg),
            None => Engine::new(None, cfg),
        };
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        for _ in 0..2 {
            let report = engine.run(&two_loop_program(), &setup).unwrap();
            assert_eq!(report.outcome, Outcome::Completed);
        }
        assert!(engine.table.traces().count() >= 2, "both loops promoted");
        engine
    }

    fn start_of(engine: &Engine, id: BlockId) -> Addr {
        engine.table.cached(id).block.start
    }

    /// Every chain link of every slot, as stored.
    fn all_links(engine: &Engine) -> Vec<[Option<(BlockId, u32)>; 2]> {
        engine.table.slots.iter().map(|s| s.links).collect()
    }

    /// Poisoning a pc drops exactly the superblocks containing it and
    /// clears exactly the links of the plain blocks it succeeds. A link
    /// that was resolved to a dropped superblock lands on the plain
    /// block at its next follow, for one `links_resolved` tick; every
    /// other link keeps its target and is followed without one; the
    /// export omits what was dropped.
    #[test]
    fn poisoning_a_pc_takes_only_what_leads_to_it() {
        let prog = two_loop_program();
        let mut engine = two_loop_engine(None);
        let pc = 0x101c; // B1: B2 heats first and heads loop B's superblock.
        let table = &engine.table;
        let contains_pc = |t: BlockId| {
            let marks = &table.cached(t).block.member_marks;
            marks.iter().any(|m| m.start == pc)
        };
        let doomed: Vec<BlockId> = table
            .traces()
            .filter_map(|(_, t)| contains_pc(t).then_some(t))
            .collect();
        let kept: Vec<BlockId> = table
            .traces()
            .filter_map(|(_, t)| (!contains_pc(t)).then_some(t))
            .collect();
        assert!(!doomed.is_empty() && !kept.is_empty(), "one loop of two");
        // A plain block holding a current link to a doomed superblock.
        let (holder, edge, into) = table
            .by_pc
            .values()
            .flat_map(|&id| [(id, 0), (id, 1)])
            .find_map(|(id, edge)| match table.slot(id).links[edge] {
                Some((t, epoch))
                    if epoch == table.epoch
                        && doomed.contains(&t)
                        && !table.slot(id).targets(pc) =>
                {
                    Some((id, edge, start_of(&engine, t)))
                }
                _ => None,
            })
            .expect("a current link into a doomed superblock headed elsewhere");
        let mut links_after = all_links(&engine);
        for &id in table.by_pc.values() {
            if table.slot(id).targets(pc) {
                links_after[id.0 as usize] = [None; 2];
            }
        }
        assert_ne!(links_after, all_links(&engine), "the pc has predecessors");
        let jump_cache_before = engine.table.jump_cache.clone();
        let invalidations = engine.obs.dispatch.invalidations;

        engine.invalidate_for(pc);

        assert_eq!(engine.obs.dispatch.invalidations, invalidations + 1);
        assert!(doomed.iter().all(|t| !engine.table.slot(*t).live));
        let still: Vec<BlockId> = engine.table.traces().map(|(_, t)| t).collect();
        assert_eq!(
            still, kept,
            "only the traces containing the pc were dropped"
        );
        assert_eq!(all_links(&engine), links_after, "links of its predecessors");
        assert!(engine.table.poisoned.contains(&pc), "barred from traces");
        let doomed_heads: Vec<Addr> = doomed
            .iter()
            .map(|t| engine.table.cached(*t).block.member_marks[0].start)
            .collect();
        for (before, after) in jump_cache_before.iter().zip(engine.table.jump_cache.iter()) {
            let scrubbed = before.is_some_and(|(key, _)| key == pc || doomed_heads.contains(&key));
            assert_eq!(*after, if scrubbed { None } else { *before });
        }
        let exported = engine.export_traces();
        assert_eq!(exported.len(), kept.len());
        assert!(exported.windows(2).all(|w| w[0].start < w[1].start));
        assert!(exported.iter().all(|t| !doomed_heads.contains(&t.start)));

        // The link into the dropped superblock: one re-resolution, to
        // the plain block, then current again.
        let resolved = engine.obs.dispatch.links_resolved;
        let plain = engine.table.by_pc[&into];
        assert_eq!(
            engine.follow_link(&prog, holder, into, 0, u64::MAX),
            Some(plain)
        );
        assert_eq!(engine.obs.dispatch.links_resolved, resolved + 1);
        assert_eq!(
            engine.table.slot(holder).links[edge].map(|l| l.0),
            Some(plain)
        );
        assert_eq!(
            engine.follow_link(&prog, holder, into, 0, u64::MAX),
            Some(plain)
        );
        assert_eq!(engine.obs.dispatch.links_resolved, resolved + 1);
        // Every other current link: followed as it stands.
        let epoch = engine.table.epoch;
        let current: Vec<(BlockId, BlockId)> = (0u32..)
            .map(BlockId)
            .zip(&links_after)
            .filter(|(id, _)| *id != holder && engine.table.slot(*id).live)
            .flat_map(|(id, links)| links.iter().flatten().map(move |l| (id, *l)))
            .filter_map(|(id, (t, e))| (e == epoch && !doomed.contains(&t)).then_some((id, t)))
            .collect();
        assert!(!current.is_empty(), "loop A's chains are current");
        for (id, target) in current {
            let next = start_of(&engine, target);
            assert_eq!(
                engine.follow_link(&prog, id, next, 0, u64::MAX),
                Some(target)
            );
        }
        assert_eq!(engine.obs.dispatch.links_resolved, resolved + 1);
        // Poisoning is idempotent: a second call is not an invalidation.
        engine.invalidate_for(pc);
        assert_eq!(engine.obs.dispatch.invalidations, invalidations + 1);
    }

    /// An epoch bump empties the jump cache and stales every link by
    /// moving the epoch alone: no slot is written.
    #[test]
    fn an_epoch_bump_stales_every_link_without_touching_one() {
        let mut engine = two_loop_engine(None);
        let links_before = all_links(&engine);
        assert!(links_before.iter().flatten().flatten().count() > 0);
        assert!(engine.table.jump_cache.iter().any(Option::is_some));
        engine.bump_epoch();
        assert!(engine.table.jump_cache.iter().all(Option::is_none));
        assert_eq!(all_links(&engine), links_before);
        let epoch = engine.table.epoch;
        assert!(links_before
            .iter()
            .flatten()
            .flatten()
            .all(|(_, stamped)| *stamped != epoch));
    }

    /// Two sessions over one shared state: invalidating in one session
    /// leaves the other's superblocks untouched (the table is
    /// session-private by construction).
    #[test]
    fn invalidation_in_one_session_spares_the_other() {
        let shared = Arc::new(SharedTranslationState::new(None, 8));
        let mut a = two_loop_engine(Some(shared.clone()));
        let b = two_loop_engine(Some(shared));
        let b_traces = b.table.traces().count();
        a.invalidate_for(0x1004);
        assert!(a.table.traces().count() < b_traces);
        assert_eq!(b.table.traces().count(), b_traces);
        assert!(b.table.poisoned.is_empty());
    }

    /// A session moves to the thread that runs it, and a chain link is
    /// two words and a tag.
    #[test]
    fn engine_is_send_and_a_link_is_small() {
        fn assert_send<T: Send>() {}
        assert_send::<Engine>();
        assert!(std::mem::size_of::<Option<(BlockId, u32)>>() <= 12);
    }
}
