//! Pluggable host-execution backends.
//!
//! The dispatcher (chaining, jump cache, superblocks) is
//! backend-agnostic: it resolves a [`CachedBlock`] and hands it to a
//! [`HostBackend`] to run. Two backends exist:
//!
//! * [`ModelBackend`] — the original path through the x86 model's
//!   `exec_block_traced_into`, re-matching each `Inst` on every
//!   execution. Kept as the oracle: slow, obviously correct.
//! * [`ThreadedBackend`] — compiles each block *once* (lazily, on its
//!   first execute) into direct-threaded code
//!   ([`pdbt_isa_x86::compile_block_tagged`]) and runs that. Same
//!   architectural effects, retire tally and errors, minus the
//!   per-instruction decode/dispatch overhead.
//!
//! Both hand the dispatcher a [`RetireTally`] per execution: host
//! instructions retired per [`CodeClass`](crate::CodeClass) and, for a
//! superblock, which members' anchors ran (numbered by
//! [`anchor_numbers`], the one definition both backends and the
//! dispatcher share). The threaded backend compiles each op's class and
//! anchor number into the op and tallies as it executes; the model
//! folds its own per-instruction counts the same way after the fact.
//!
//! The lazy-compile rule is **counter-neutral**: compilation happens
//! at first *execute*, never at adopt/prewarm/warm-boot time, and
//! touches only the `compiled_blocks`/`compile_ns` counters (plus the
//! server-lifetime `compiled` rollup). `compiled_blocks` is therefore
//! deterministic — one per distinct block this session executed —
//! regardless of worker count, shared-cache warmth, or artifact boot;
//! `compile_ns` is wall-clock and is stripped by determinism
//! comparisons exactly like `histograms.translate_ns`.

use crate::cache::CachedBlock;
use crate::translate::{MemberMark, TranslatedBlock};
use pdbt_isa::ExecError;
use pdbt_isa_x86::{
    compile_block_tagged, exec_block_traced_into, exec_threaded, BlockExit, Cpu as HostCpu,
    ExecStats, OpTag, RetireTally, MAX_ANCHOR,
};
use pdbt_obs::{DispatchCounters, ServerCounters};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Which host backend a session executes blocks with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The interpreting x86 model (the oracle).
    Model,
    /// Pre-compiled direct-threaded code (the default).
    #[default]
    Threaded,
}

impl BackendKind {
    /// Stable machine-readable name (the `dispatch.backend` report
    /// field and the `--backend` flag value).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Model => "model",
            BackendKind::Threaded => "threaded",
        }
    }

    /// Parses a `--backend` flag value.
    #[must_use]
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "model" => Some(BackendKind::Model),
            "threaded" => Some(BackendKind::Threaded),
            _ => None,
        }
    }

    /// The process default, read once: `PDBT_BACKEND` when set (how CI
    /// runs the whole suite under the model oracle), else threaded.
    ///
    /// # Errors
    ///
    /// A value that names neither backend: falling back would make
    /// `PDBT_BACKEND=modle cargo test` a green run of the wrong executor.
    pub fn from_env() -> Result<BackendKind, String> {
        static FROM_ENV: OnceLock<Result<BackendKind, String>> = OnceLock::new();
        let parse = || {
            let Some(value) = std::env::var_os("PDBT_BACKEND") else {
                return Ok(BackendKind::default());
            };
            value
                .to_str()
                .and_then(BackendKind::parse)
                .ok_or_else(|| format!("bad PDBT_BACKEND: {value:?} (expected model or threaded)"))
        };
        FROM_ENV.get_or_init(parse).clone()
    }
}

/// Counter sinks a backend may touch while executing: the session's
/// dispatch counters (lazy-compile accounting) and the shared state's
/// server-lifetime rollup.
pub struct BackendObs<'a> {
    /// Session dispatch counters (`compiled_blocks`, `compile_ns`).
    pub dispatch: &'a mut DispatchCounters,
    /// Server-lifetime counters of the shared state.
    pub server: &'a ServerCounters,
}

/// The anchor number of each superblock member, in member order:
/// distinct anchors are numbered from 1, and members that share an
/// anchor (a member with no host code of its own shares the next one's)
/// share its number, so they retire together. `0` — never retired — past
/// [`MAX_ANCHOR`] distinct anchors, far beyond any trace the engine
/// forms.
pub(crate) fn anchor_numbers(marks: &[MemberMark]) -> impl Iterator<Item = u8> + '_ {
    let mut number = 0u8;
    let mut prev = None;
    marks.iter().map(move |m| {
        if prev != Some(m.anchor) {
            prev = Some(m.anchor);
            number = number.saturating_add(1);
        }
        if number <= MAX_ANCHOR {
            number
        } else {
            0
        }
    })
}

/// The retire tag of each host instruction of `block`: its
/// [`CodeClass`](crate::CodeClass) index and, on a member's anchor
/// instruction, that member's [`anchor_numbers`] entry.
fn op_tags(block: &TranslatedBlock) -> Vec<OpTag> {
    debug_assert_eq!(block.code.len(), block.classes.len());
    let mut tags: Vec<OpTag> = block
        .classes
        .iter()
        .map(|c| OpTag {
            class: c.index() as u8,
            anchor: 0,
        })
        .collect();
    for (m, number) in block
        .member_marks
        .iter()
        .zip(anchor_numbers(&block.member_marks))
    {
        if let Some(tag) = tags.get_mut(m.anchor) {
            tag.anchor = number;
        }
    }
    tags
}

/// A host block executor. Implementations must be bit-identical to the
/// model: same architectural effects, same retire tally (host
/// instructions per class index, anchors that ran by
/// [`anchor_numbers`]), same errors — the whole determinism lockdown runs under either
/// backend.
pub trait HostBackend: Send + Sync + std::fmt::Debug {
    /// Stable backend name.
    fn name(&self) -> &'static str;

    /// Executes `cached` (a plain block or a superblock) on `cpu` and
    /// returns how it left, how many host instructions retired, and
    /// their tally. The dispatcher folds the tally; it never sees
    /// per-instruction counts.
    ///
    /// # Errors
    ///
    /// Exactly the model executor's errors: any interpreter fault,
    /// `Timeout` past `budget`, `BadPc` on a wild relative jump.
    fn execute(
        &self,
        cached: &CachedBlock,
        cpu: &mut HostCpu,
        budget: u64,
        obs: &mut BackendObs<'_>,
    ) -> Result<(BlockExit, ExecStats, RetireTally), ExecError>;
}

/// The oracle: the model interpreter, unchanged.
#[derive(Debug)]
pub struct ModelBackend;

impl HostBackend for ModelBackend {
    fn name(&self) -> &'static str {
        BackendKind::Model.name()
    }

    fn execute(
        &self,
        cached: &CachedBlock,
        cpu: &mut HostCpu,
        budget: u64,
        _obs: &mut BackendObs<'_>,
    ) -> Result<(BlockExit, ExecStats, RetireTally), ExecError> {
        thread_local! {
            /// Per-instruction counts of the execution in flight,
            /// reused so the oracle allocates nothing per block.
            static COUNTS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
        }
        COUNTS.with_borrow_mut(|counts| {
            let block = &cached.block;
            let (exit, stats) = exec_block_traced_into(cpu, &block.code, budget, counts)?;
            let mut tally = RetireTally::default();
            for (class, n) in block.classes.iter().zip(counts.iter()) {
                tally.by_class[class.index()] += u64::from(*n);
            }
            let marks = &block.member_marks;
            for (m, number) in marks.iter().zip(anchor_numbers(marks)) {
                if counts.get(m.anchor).is_some_and(|n| *n > 0) {
                    tally.mark_anchor(number);
                }
            }
            Ok((exit, stats, tally))
        })
    }
}

/// Direct-threaded execution with first-execute lazy compilation into
/// the block's [`CachedBlock::compiled`] slot.
#[derive(Debug)]
pub struct ThreadedBackend;

impl HostBackend for ThreadedBackend {
    fn name(&self) -> &'static str {
        BackendKind::Threaded.name()
    }

    fn execute(
        &self,
        cached: &CachedBlock,
        cpu: &mut HostCpu,
        budget: u64,
        obs: &mut BackendObs<'_>,
    ) -> Result<(BlockExit, ExecStats, RetireTally), ExecError> {
        let code = match cached.compiled.get() {
            Some(code) => code,
            None => {
                let t0 = pdbt_obs::now_ns();
                let code = cached.compiled.get_or_init(|| {
                    compile_block_tagged(&cached.block.code, &op_tags(&cached.block))
                });
                obs.dispatch.compiled_blocks += 1;
                obs.dispatch.compile_ns += pdbt_obs::now_ns().saturating_sub(t0);
                obs.server.compiled_blocks.inc();
                code
            }
        };
        exec_threaded(cpu, code, budget)
    }
}

static MODEL: ModelBackend = ModelBackend;
static THREADED: ThreadedBackend = ThreadedBackend;

/// The backend singleton for a [`BackendKind`] (backends are
/// stateless; a block's compiled code lives in its [`CachedBlock`]).
#[must_use]
pub fn backend_for(kind: BackendKind) -> &'static dyn HostBackend {
    match kind {
        BackendKind::Model => &MODEL,
        BackendKind::Threaded => &THREADED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::{BlockSuccs, CodeClass, TranslatedBlock};
    use pdbt_isa_x86::builders::*;
    use pdbt_isa_x86::{Operand, Reg};
    use std::sync::Arc;

    fn cached(code: Vec<pdbt_isa_x86::Inst>) -> CachedBlock {
        CachedBlock::new(
            Arc::new(TranslatedBlock {
                start: 0x1000,
                classes: vec![CodeClass::Control; code.len()],
                guest_len: 1,
                rule_covered: 0,
                attributions: Vec::new(),
                lookup_misses: Vec::new(),
                deleg: None,
                succ: BlockSuccs::None,
                member_marks: Vec::new(),
                code,
            }),
            Vec::new(),
        )
    }

    #[test]
    fn backends_agree_and_compile_counts_once() {
        let block = cached(vec![
            mov(Reg::Eax.into(), Operand::Imm(6)),
            imul(Reg::Eax.into(), Operand::Imm(7)),
            out(),
            hlt(),
        ]);
        let server = ServerCounters::default();
        let mut dispatch = DispatchCounters::default();
        let mut cpu_m = HostCpu::new();
        let mut cpu_t = HostCpu::new();
        let mut obs = BackendObs {
            dispatch: &mut dispatch,
            server: &server,
        };
        let m = ModelBackend
            .execute(&block, &mut cpu_m, 100, &mut obs)
            .unwrap();
        let t = ThreadedBackend
            .execute(&block, &mut cpu_t, 100, &mut obs)
            .unwrap();
        assert_eq!(m, t);
        assert_eq!(m.2.by_class[CodeClass::Control.index()], 4);
        assert_eq!(cpu_m.output, cpu_t.output);
        assert_eq!(cpu_m.regs, cpu_t.regs);
        // Second execute reuses the compiled slot: one compile total.
        ThreadedBackend
            .execute(&block, &mut cpu_t, 100, &mut obs)
            .unwrap();
        assert_eq!(obs.dispatch.compiled_blocks, 1);
        assert_eq!(server.snapshot().compiled_blocks, 1);
        // The model backend never compiles.
        assert_eq!(ModelBackend.name(), "model");
        assert_eq!(ThreadedBackend.name(), "threaded");
    }

    #[test]
    fn kind_parses_and_names_round_trip() {
        for kind in [BackendKind::Model, BackendKind::Threaded] {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(backend_for(kind).name(), kind.name());
        }
        assert_eq!(BackendKind::parse("jit"), None);
        assert_eq!(BackendKind::default(), BackendKind::Threaded);
    }
}
