//! The DBT engine: a session's configuration and its segment loop.
//!
//! Translated blocks are cached by guest address ("code cache", paper
//! §V-B1) and executed on the host model; the loop in [`Engine::run`]
//! follows block exits until the guest program halts, asking the
//! session block table (`session.rs`) for each next block. Executed
//! host instructions are attributed to their
//! [`CodeClass`](crate::CodeClass), which is the measurement behind
//! Table II, Fig 13 and the instruction-count performance proxy
//! (`report.rs`).

use crate::backend::{anchor_numbers, backend_for, BackendKind, BackendObs};
use crate::cache::ShardedCache;
use crate::report::{Metrics, Outcome, Report, Resilience, RunObs};
use crate::session::SessionTable;
use crate::shared::SharedTranslationState;
use crate::translate::{collect_block, DelegOutcome, TranslateConfig, MAX_BLOCK};
use pdbt_core::RuleSet;
use pdbt_ir::env;
use pdbt_isa::{Addr, Cond, ExecError};
use pdbt_isa_arm::{Operand, Program, Reg as GReg, INST_SIZE};
use pdbt_isa_x86::{BlockExit, Cpu as HostCpu, Reg as HReg};
use pdbt_obs::{Histogram, PhaseNs, PoolCounters, RequestSummary, RuleId, ShardCounters};
use pdbt_par::Pool;
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
    /// On for standalone engines (read from the state, not the report)
    /// and turned off by `pdbt-serve`, which stamps the full request
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
            // An unrecognised `PDBT_BACKEND` is refused, not defaulted;
            // `pdbt` checks it first and exits 2 with the same text.
            backend: BackendKind::from_env().unwrap_or_else(|e| panic!("{e}")),
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

/// Why a run could not start: translation failures degrade to the
/// interpreter and a spent budget is an [`Outcome`], so only a fault
/// while seeding guest memory or registers is an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Host execution failed.
    Exec(ExecError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let EngineError::Exec(e) = self;
        write!(f, "execution error: {e}")
    }
}

impl std::error::Error for EngineError {}

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
fn discover_block_starts(prog: &Program) -> Vec<Addr> {
    use std::collections::BTreeSet;
    let mut seen: BTreeSet<Addr> = BTreeSet::new();
    let mut frontier = vec![prog.base()];
    while let Some(pc) = frontier.pop() {
        if !seen.insert(pc) {
            continue;
        }
        let Ok(insts) = collect_block(prog, pc, MAX_BLOCK) else {
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

/// The dynamic binary translator: one *session* over a (possibly
/// shared) translation state.
///
/// Rules and the code cache live in the [`SharedTranslationState`]
/// behind the `Arc`, so `pdbt serve` can run many concurrent sessions
/// against one warm cache. Everything mutable — metrics, report
/// counters, the block table — is session-private: a session folds a
/// shared translation's static footprint (blocks translated, host
/// generated, attribution, lookup misses) into its own counters at
/// first session-local sight, which keeps its report bit-identical to a
/// cold single-engine run while the translation work is shared.
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

    /// Books a translation this session just paid for.
    pub(crate) fn record_translate_ns(&mut self, ns: Option<u64>) {
        if let Some(ns) = ns {
            self.obs.translate_ns.record(ns);
        }
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
        let todo: Vec<Addr> = discover_block_starts(prog)
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
            let entry = self.resolve_entry(prog, pc, self.metrics.guest_retired, setup.max_guest);
            let Ok(mut cur) = entry else {
                // Degraded mode: interpret this one block and keep
                // translating from the next one. The block is poisoned
                // for chaining first, so no chain or trace can re-enter
                // it behind the dispatcher's back.
                self.invalidate_for(pc);
                match self.interpret_block(prog, pc, &mut host) {
                    Ok(Some(next)) => {
                        pc = next;
                        continue;
                    }
                    Ok(None) => break Outcome::Completed,
                    Err(e) => break Outcome::Exec(e),
                }
            };
            // Chain segment: execute the resolved block, then follow
            // chain links inline for as long as they resolve. The
            // per-block scalar folds batch into a local and land in the
            // metrics once per segment, and the segment is the unit of
            // tracing: one span per dispatcher entry, no clock read
            // between chain links (unchained, a segment is one block).
            let mut seg = Metrics::default();
            let seg_span = pdbt_obs::span("exec_segment");
            let seg_outcome = loop {
                let cached = self.table.cached(cur);
                let block = &cached.block;
                let exec = {
                    let budget = host_block_budget(
                        setup.max_guest,
                        self.metrics.guest_retired + seg.guest_retired,
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
                for (sum, n) in seg.host_by_class.iter_mut().zip(tally.by_class) {
                    *sum += n;
                }
                seg.blocks_executed += 1;
                seg.host_retired += stats.executed;
                self.obs.block_host_len.record(stats.executed);
                let plain = block.member_marks.is_empty();
                if plain {
                    // A plain block retires wholesale.
                    seg.guest_retired += u64::from(block.guest_len);
                    seg.rule_covered += u64::from(block.rule_covered);
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
                        seg.guest_retired += u64::from(m.guest_len);
                        seg.rule_covered += u64::from(m.rule_covered);
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
                let retired = self.metrics.guest_retired + seg.guest_retired;
                if retired >= setup.max_guest {
                    break Some(Outcome::Budget);
                }
                // A chain segment can loop indefinitely (a self-loop
                // chains to itself without re-entering the dispatcher),
                // so the deadline is also polled inside the segment —
                // throttled, since `Instant::now` is not free. No
                // deadline, no clock reads: determinism is unaffected.
                if seg.blocks_executed.is_multiple_of(64) {
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
            self.metrics.merge(&seg);
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
                outcome: outcome.label(),
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
            backend: self.cfg.backend.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockSuccs, CodeClass, TranslatedBlock};
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
        assert!(report.metrics.guest_retired >= 100, "the budget was spent");
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
    use crate::CodeClass;
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
        assert_eq!(par.obs.pool.total(), n4 as u64);
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
        // The report describes its own session, not the shared state.
        assert!(b.to_json().get("server").is_none());
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
