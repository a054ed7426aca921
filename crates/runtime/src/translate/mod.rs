//! Block translation: the three translation paths and their glue.
//!
//! There is one translator, `translate_members`, over a connected
//! sequence of guest basic blocks, with two public entry points:
//! [`translate_block`] (one member — the paper's per-block translator)
//! and [`translate_trace`] (two or more — a hot-trace superblock whose
//! interior direct branches become side exits). It is three passes over
//! one list of members, a file each: `select` (what the sequence is),
//! `plan` (register allocation, flag liveness, host code per guest
//! instruction, §IV-D flag delegation) and `emit` (residency syncs, side
//! exits, stubs); `lower` is the TCG model the first two fall back on.
//!
//! Flag liveness has two owners. Which flags are live *into* each guest
//! instruction is a fact of the immutable program, solved once per
//! program by [`Program::flag_liveness`] and read here; a translation
//! pays only for the backward scan over its own members that starts
//! from the live-ins of its exits.
//!
//! Each guest basic block becomes one host block:
//!
//! * **prologue** — load the block's cached guest registers from the
//!   environment (the *data transfer* instructions of Table II),
//! * per guest instruction, either a **rule-translated** segment
//!   (template instantiation, §IV-D) or a **QEMU-path** segment
//!   (lift + lower through the TCG-like IR),
//! * condition-flag handling — delegation to live host flags when the
//!   flag producer sits within the look-ahead window, otherwise
//!   materialization into the environment (§IV-D, Fig 10),
//! * **epilogue** — store dirty cached registers back,
//! * **control stub** — block bookkeeping and the exit jumps (the
//!   *control code* of Table II).

mod emit;
mod lower;
mod plan;
mod select;
#[cfg(test)]
mod tests;

use pdbt_core::flags::DELEGATION_WINDOW;
use pdbt_core::RuleSet;
use pdbt_isa::Addr;
use pdbt_isa_arm::{Inst as GInst, Program, INST_SIZE};
use pdbt_isa_x86::Inst as HInst;
use std::fmt;
use std::sync::Arc;

/// Where an executed host instruction's cost is attributed (the four
/// columns of Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeClass {
    /// Host code produced by rule instantiation.
    RuleCore,
    /// Host code produced by the lift/lower (QEMU) path.
    QemuCore,
    /// Guest-register loads/stores around the block.
    DataTransfer,
    /// Block stubs: bookkeeping, exit jumps, chaining glue.
    Control,
}

impl CodeClass {
    /// Dense index for per-class counters.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CodeClass::RuleCore => 0,
            CodeClass::QemuCore => 1,
            CodeClass::DataTransfer => 2,
            CodeClass::Control => 3,
        }
    }
}

/// Translation configuration (the ablation knobs of Figs 14/15 at the
/// runtime level; which rules exist is decided by the rule set itself).
#[derive(Debug, Clone, Copy)]
pub struct TranslateConfig {
    /// Condition-flag delegation at rule application (§IV-D). When off,
    /// rules only apply to live-flag producers whose report is exact,
    /// and flags are always materialized.
    pub flag_delegation: bool,
    /// Delegation look-ahead window in guest instructions (§IV-D uses
    /// three; `pdbt experiments`' window ablation varies it).
    pub window: usize,
}

/// Maximum guest instructions per block.
pub(crate) const MAX_BLOCK: usize = 32;

impl Default for TranslateConfig {
    fn default() -> TranslateConfig {
        TranslateConfig {
            flag_delegation: true,
            window: DELEGATION_WINDOW,
        }
    }
}

/// A translation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslateError {
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "translation error: {}", self.detail)
    }
}

impl std::error::Error for TranslateError {}

/// One rule application inside a translated block, for per-rule
/// coverage attribution: which parameterized rule supplied which part
/// of the block's coverage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleAttribution {
    /// Rule label: the matched `ComboKey`'s display form, a
    /// `seq[..]` compound for sequence rules, or `b<cond> (delegated)`
    /// for a delegated terminal branch. A rule's label is the rule
    /// set's ([`Match::label`]): every application shares the one text.
    pub label: Arc<str>,
    /// Instruction-class subgroup of the rule's root opcode
    /// (`Int/Dp/Alu` style), shared the same way.
    pub subgroup: Arc<str>,
    /// Guest instructions this application covers.
    pub covered: u32,
}

/// How the block's terminal conditional branch consumed its flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelegOutcome {
    /// Delegated to live host flags; the payload is the producer's
    /// look-ahead distance in guest instructions (0..=window).
    Delegated(u32),
    /// Fell back to flags materialized in the environment.
    EnvFallback,
}

/// Static successors of a translated block's exit, for block chaining:
/// which guest addresses the exit stub can jump to. Indirect transfers
/// and halts have no static successors and always return to the
/// dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockSuccs {
    /// No statically known successor (indirect branch, halt).
    None,
    /// A single successor (unconditional branch, call, fall-through).
    One(Addr),
    /// A conditional branch's two successors.
    Two {
        /// The branch-taken target.
        taken: Addr,
        /// The fall-through address.
        fall: Addr,
    },
}

/// Per-member accounting for a hot-trace superblock
/// ([`translate_trace`]): the engine folds guest/coverage metrics for
/// exactly the members an execution retired, identified by whether each
/// member's anchor host instruction executed. Superblocks are
/// straight-line (side exits only), so the retired members of one
/// execution always form a prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberMark {
    /// The member block's guest start address (trace invalidation keys
    /// off this).
    pub start: Addr,
    /// Index of the first host instruction at or after the member's
    /// region start. A member with no host code of its own shares the
    /// next member's anchor, which is exact for straight-line code.
    pub anchor: usize,
    /// Guest instructions this member covers.
    pub guest_len: u32,
    /// How many of them were rule-translated (including a delegated
    /// branch).
    pub rule_covered: u32,
    /// This member's half-open range in
    /// [`TranslatedBlock::attributions`].
    pub attr_range: (usize, usize),
    /// Flag handling of this member's conditional branch, if any.
    pub deleg: Option<DelegOutcome>,
}

/// One translated basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslatedBlock {
    /// Guest start address.
    pub start: Addr,
    /// The host code.
    pub code: Vec<HInst>,
    /// Per-host-instruction cost class (same length as `code`).
    pub classes: Vec<CodeClass>,
    /// Number of guest instructions the block covers.
    pub guest_len: u32,
    /// How many of them were rule-translated (including a delegated
    /// terminal branch).
    pub rule_covered: u32,
    /// Per-rule coverage attribution; `covered` sums to
    /// [`TranslatedBlock::rule_covered`].
    pub attributions: Vec<RuleAttribution>,
    /// Rule-lookup misses: labels of body instructions that fell to the
    /// QEMU path while a rule set was installed.
    pub lookup_misses: Vec<String>,
    /// Terminal-branch flag handling, when the block ends in a
    /// conditional branch. `None` for superblocks, whose branches are
    /// reported per member.
    pub deleg: Option<DelegOutcome>,
    /// Static successors of the exit stub, for chaining.
    pub succ: BlockSuccs,
    /// Superblock member accounting; empty for ordinary blocks.
    pub member_marks: Vec<MemberMark>,
}

/// Collects the guest basic block starting at `start`.
///
/// # Errors
///
/// [`TranslateError`] if the start address is outside the program.
pub fn collect_block(
    prog: &Program,
    start: Addr,
    max: usize,
) -> Result<Vec<(Addr, &GInst)>, TranslateError> {
    let mut out = Vec::new();
    collect_block_into(prog, start, max, &mut out)?;
    Ok(out)
}

/// [`collect_block`], appending to `out`: a member sequence is one flat
/// instruction list.
fn collect_block_into<'p>(
    prog: &'p Program,
    start: Addr,
    max: usize,
    out: &mut Vec<(Addr, &'p GInst)>,
) -> Result<(), TranslateError> {
    let first = out.len();
    let mut pc = start;
    loop {
        let inst = prog.fetch(pc).map_err(|e| TranslateError {
            detail: format!("fetch {pc:#x}: {e}"),
        })?;
        out.push((pc, inst));
        if inst.is_branch() || out.len() - first >= max {
            return Ok(());
        }
        pc += INST_SIZE;
    }
}

/// Translates the basic block starting at `start`: the one-member case
/// of the member-sequence translator, with the lone member's branch
/// outcome reported on the block itself.
///
/// # Errors
///
/// [`TranslateError`] on fetch failures or unliftable instructions.
pub fn translate_block(
    prog: &Program,
    start: Addr,
    rules: Option<&RuleSet>,
    cfg: &TranslateConfig,
) -> Result<TranslatedBlock, TranslateError> {
    let _span = pdbt_obs::span_with("translate_block", || format!("{start:#x}"));
    let mut block = translate_members(prog, &[start], rules, cfg)?;
    let mark = block
        .member_marks
        .pop()
        .expect("one member yields one mark");
    block.deleg = mark.deleg;
    Ok(block)
}

/// Translates a straight-line hot trace spanning `members` (basic-block
/// start addresses in execution order) into a single superblock.
///
/// Register-frequency allocation runs over the whole trace, flag
/// liveness is solved across member boundaries — so condition-flag
/// delegation extends across former block boundaries — and every
/// interior direct branch becomes an inline conditional with a
/// side-exit trampoline instead of a block exit. Architectural effects
/// are identical to executing the members individually: every exit
/// synchronizes the cached registers, advances the environment icount
/// to exactly the guest instructions retired so far, and leaves the
/// environment canonical. Per-member accounting lands in
/// [`TranslatedBlock::member_marks`].
///
/// # Errors
///
/// [`TranslateError`] if there are fewer than two members, if they do
/// not form a connected straight-line trace (each interior member's
/// on-trace successor must be the next member), or on any translation
/// failure.
pub fn translate_trace(
    prog: &Program,
    members: &[Addr],
    rules: Option<&RuleSet>,
    cfg: &TranslateConfig,
) -> Result<TranslatedBlock, TranslateError> {
    if members.len() < 2 {
        return Err(TranslateError {
            detail: "a trace needs at least two members".into(),
        });
    }
    let _span = pdbt_obs::span_with("translate_trace", || {
        format!("{:#x} ({} members)", members[0], members.len())
    });
    translate_members(prog, members, rules, cfg)
}

/// The translator: one host block for a connected sequence of guest
/// basic blocks. A single member is an ordinary block; with several,
/// interior direct branches become side exits. Always reports branch
/// outcomes per member (`deleg` is `None`, one [`MemberMark`] each).
fn translate_members(
    prog: &Program,
    members: &[Addr],
    rules: Option<&RuleSet>,
    cfg: &TranslateConfig,
) -> Result<TranslatedBlock, TranslateError> {
    let (insts, effects, mut members) = select::select(prog, members, rules)?;
    let planned = plan::plan(prog, &insts, &effects, &mut members, rules, cfg)?;
    emit::emit(&members, planned)
}
