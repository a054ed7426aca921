//! Block translation: the three translation paths and their glue.
//!
//! There is one translator, `translate_members`, over a connected
//! sequence of guest basic blocks, with two public entry points:
//! [`translate_block`] (one member — the paper's per-block translator)
//! and [`translate_trace`] (two or more — a hot-trace superblock whose
//! interior direct branches become side exits). Rule lookup, §IV-D flag
//! delegation, flag liveness and register-residency sync exist once.
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

use pdbt_core::classify::subgroup_of;
use pdbt_core::flags::{
    can_materialize, cond_flag_uses, delegated_cc, setcc_for_flag, DELEGATION_WINDOW,
};
use pdbt_core::key::Scan;
use pdbt_core::{emit, template as rtemplate, HostLoc, Match, RuleSet};
use pdbt_ir::{env, lift, lower_branch_cond, lower_ops, RegMap, Terminator};
use pdbt_isa::{Addr, Cond, Flag, FlagSet, InlineVec};
use pdbt_isa_arm::{Inst as GInst, Program, Reg as GReg, INST_SIZE};
use pdbt_isa_x86::builders as hb;
use pdbt_isa_x86::{Inst as HInst, Operand as HOperand, Reg as HReg};
use pdbt_symexec::FlagEquiv;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
    /// Maximum guest instructions per block.
    pub max_block: usize,
    /// Delegation look-ahead window in guest instructions (§IV-D uses
    /// three; exposed for the window-size ablation bench).
    pub window: usize,
}

impl Default for TranslateConfig {
    fn default() -> TranslateConfig {
        TranslateConfig {
            flag_delegation: true,
            max_block: 32,
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

struct Emitter {
    code: Vec<HInst>,
    classes: Vec<CodeClass>,
}

impl Emitter {
    fn push(&mut self, inst: HInst, class: CodeClass) {
        self.code.push(inst);
        self.classes.push(class);
    }

    fn extend(&mut self, insts: impl IntoIterator<Item = HInst>, class: CodeClass) {
        self.code.extend(insts);
        self.classes.resize(self.code.len(), class);
    }
}

/// Rewrites env-resident operands of ALU operations through scratch
/// registers — TCG emits reg-reg operations only (guest registers are
/// loaded into temps before use), so the QEMU path may not exploit the
/// host's memory-operand ALU forms the way rule-translated code does.
fn tcg_legalize(code: Vec<HInst>) -> Vec<HInst> {
    use pdbt_isa_x86::Op as HOp;
    let mut out = Vec::with_capacity(code.len());
    for inst in code {
        let alu_like = matches!(
            inst.op,
            HOp::Add
                | HOp::Adc
                | HOp::Sub
                | HOp::Sbb
                | HOp::And
                | HOp::Or
                | HOp::Xor
                | HOp::Imul
                | HOp::Shl
                | HOp::Shr
                | HOp::Sar
                | HOp::Ror
                | HOp::Cmp
                | HOp::Test
                | HOp::Not
                | HOp::Neg
        );
        if !alu_like {
            out.push(inst);
            continue;
        }
        let env_mem = |o: &HOperand| matches!(o, HOperand::Mem(m) if m.base == Some(HReg::Ebp));
        let mut operands = inst.operands;
        let uses_eax = operands.contains(&HOperand::Reg(HReg::Eax));
        let uses_edx = operands.contains(&HOperand::Reg(HReg::Edx));
        // Source position (last operand) first.
        if operands.len() == 2 && env_mem(&operands[1]) {
            let scratch = if uses_edx { HReg::Eax } else { HReg::Edx };
            out.push(hb::mov(HOperand::Reg(scratch), operands[1]));
            operands[1] = HOperand::Reg(scratch);
        }
        // Destination (read-modify-write) position.
        if env_mem(&operands[0]) && !matches!(inst.op, HOp::Cmp | HOp::Test) {
            let scratch = if uses_eax || operands.get(1) == Some(&HOperand::Reg(HReg::Eax)) {
                HReg::Edx
            } else {
                HReg::Eax
            };
            let dst = operands[0];
            out.push(hb::mov(HOperand::Reg(scratch), dst));
            operands[0] = HOperand::Reg(scratch);
            out.push(HInst {
                op: inst.op,
                cc: inst.cc,
                operands,
            });
            out.push(hb::mov(dst, HOperand::Reg(scratch)));
            continue;
        } else if env_mem(&operands[0]) {
            // cmp/test with an env-resident left operand.
            let scratch = if uses_edx || operands.get(1) == Some(&HOperand::Reg(HReg::Edx)) {
                HReg::Eax
            } else {
                HReg::Edx
            };
            out.push(hb::mov(HOperand::Reg(scratch), operands[0]));
            operands[0] = HOperand::Reg(scratch);
        }
        out.push(HInst {
            op: inst.op,
            cc: inst.cc,
            operands,
        });
    }
    out
}

/// The target of the direct branch (`b`/`bl`) `inst` at `addr`.
fn branch_target(addr: Addr, inst: &GInst) -> Addr {
    inst.direct_target(addr)
        .expect("direct branches carry a target operand")
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
        if inst.ends_block() || out.len() - first >= max {
            return Ok(());
        }
        pc += INST_SIZE;
    }
}

/// The guest register map location of a rule slot.
fn slot_loc(map: &RegMap, g: GReg) -> HostLoc {
    match map.loc(g) {
        env::Loc::Host(h) => HostLoc::Reg(h),
        env::Loc::Env => HostLoc::Mem(env::reg_mem(g)),
    }
}

/// Emits flag materialization from live host flags into the guest
/// environment, honouring the rule's per-flag relationship.
fn materialize_flags(
    e: &mut Emitter,
    flags: FlagSet,
    report: &[(pdbt_isa::Flag, FlagEquiv)],
) -> bool {
    for f in flags.iter() {
        let Some(equiv) = report.iter().find(|(ff, _)| *ff == f).map(|(_, eq)| *eq) else {
            return false;
        };
        let Some(cc) = setcc_for_flag(f, equiv) else {
            return false;
        };
        // setcc does not disturb the remaining live flags, so the loop
        // can materialize each flag in turn.
        e.push(hb::setcc(cc, HOperand::Reg(HReg::Eax)), CodeClass::RuleCore);
        e.push(
            hb::mov(HOperand::Mem(env::flag_mem(f)), HOperand::Reg(HReg::Eax)),
            CodeClass::RuleCore,
        );
    }
    true
}

/// The guest-flag ↔ host-flag relationship after lowering a foldable
/// flag producer with its environment materialization omitted: the last
/// flag-setting host instruction is the counterpart ALU op, whose flag
/// semantics relative to the guest's are fixed per opcode class. (The
/// same relationships the symbolic verifier reports for the equivalent
/// rule templates — asserted equal in this crate's tests.)
fn folded_flag_report(inst: &GInst) -> Option<Vec<(Flag, pdbt_symexec::FlagEquiv)>> {
    use pdbt_isa_arm::Op as G;
    use FlagEquiv::{Exact, Inverted};
    let defs = inst.flag_defs();
    if defs.is_empty() {
        return None;
    }
    let per_flag: Vec<(Flag, FlagEquiv)> = match inst.op {
        // Subtraction class: host CF is the borrow, guest C is its
        // inverse.
        G::Sub | G::Rsb | G::Cmp => {
            vec![
                (Flag::N, Exact),
                (Flag::Z, Exact),
                (Flag::C, Inverted),
                (Flag::V, Exact),
            ]
        }
        // Addition class: carries agree.
        G::Add | G::Cmn => {
            vec![
                (Flag::N, Exact),
                (Flag::Z, Exact),
                (Flag::C, Exact),
                (Flag::V, Exact),
            ]
        }
        // Logical class: NZ agree (guest leaves C/V, host zeroes them —
        // not reported, so conditions needing them will not fold).
        G::And | G::Orr | G::Eor | G::Bic | G::Tst | G::Teq => {
            vec![(Flag::N, Exact), (Flag::Z, Exact)]
        }
        // Shift class: NZ agree and the shifted-out carry formulas match.
        G::Lsl | G::Lsr | G::Asr | G::Ror => {
            vec![(Flag::N, Exact), (Flag::Z, Exact), (Flag::C, Exact)]
        }
        _ => return None,
    };
    Some(
        per_flag
            .into_iter()
            .filter(|(f, _)| defs.contains(*f))
            .collect(),
    )
}

/// Emits host code for a foldable QEMU-path flag producer (the head of
/// `scan`) whose flags feed the adjacent terminal branch: the canonical
/// counterpart code with environment flag materialization omitted
/// (TCG's compare/branch folding); [`folded_flag_report`] is the flag
/// report for the stub's condition mapping.
fn fold_producer(scan: &Scan, map: &RegMap) -> Option<Vec<HInst>> {
    let template = emit::emit_for(scan.first()?)?;
    let locs: Vec<HostLoc> = scan.slots(1).iter().map(|g| slot_loc(map, *g)).collect();
    let mut code = Vec::new();
    rtemplate::instantiate(&template, &locs, scan.imms(1), &mut code).ok()?;
    Some(code)
}

/// Who produced the host flags the terminal branch may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProducerKind {
    Rule,
    Qemu,
}

/// Appends the block bookkeeping the stubs perform on every exit
/// (modelling QEMU's icount/pending-work maintenance).
fn bookkeeping(e: &mut Emitter, guest_len: u32) {
    e.push(
        hb::add(
            HOperand::Mem(env::mem_icount()),
            HOperand::Imm(guest_len as i32),
        ),
        CodeClass::Control,
    );
    e.push(
        hb::mov(HOperand::Reg(HReg::Edx), HOperand::Mem(env::mem_pending())),
        CodeClass::Control,
    );
}

/// Emits a two-sided exit stub branching on `cc`.
fn two_sided_exit(e: &mut Emitter, cc: pdbt_isa_x86::Cc, taken: Addr, fall: Addr, guest_len: u32) {
    // jcc over the fall-through side (bookkeeping + exit = 3 each).
    e.push(hb::jcc(cc, 3), CodeClass::Control);
    bookkeeping(e, guest_len);
    e.push(hb::jmp_exit(HOperand::Imm(fall as i32)), CodeClass::Control);
    bookkeeping(e, guest_len);
    e.push(
        hb::jmp_exit(HOperand::Imm(taken as i32)),
        CodeClass::Control,
    );
}

/// Emits a one-sided exit stub.
fn one_sided_exit(e: &mut Emitter, target: HOperand, guest_len: u32) {
    bookkeeping(e, guest_len);
    e.push(hb::jmp_exit(target), CodeClass::Control);
}

/// Guest registers in most-frequent-first order across `insts`, ties
/// broken by first appearance. Counting goes through a fixed array
/// indexed by [`GReg::index`] so the scan is O(operands), not
/// O(operands × distinct regs).
fn reg_frequency_order<'a>(insts: impl Iterator<Item = &'a GInst>) -> InlineVec<GReg, 16> {
    let mut counts = [0usize; 16];
    let mut order = InlineVec::new();
    for inst in insts {
        for r in inst.uses().into_iter().chain(inst.defs()) {
            if counts[r.index()] == 0 {
                order.push(r);
            }
            counts[r.index()] += 1;
        }
    }
    // Stable: ties keep first-appearance order, matching the previous
    // linear-probe implementation exactly (register allocation — and so
    // emitted host code — is unchanged).
    order.sort_by_key(|r| std::cmp::Reverse(counts[r.index()]));
    order
}

/// A host-code segment for one guest instruction (or one sequence-rule
/// application). Flag materialization is deferred so the delegation
/// decision can run with every segment's host code in hand.
struct Segment {
    /// The segment's host code, as a range of [`BodyState::code`].
    code: Range<usize>,
    class: CodeClass,
    /// Guest instructions this segment rule-covers.
    covered: u32,
    /// Host-flag relationship at the segment's end, when its flag
    /// materialization was deferred.
    report: Option<Vec<(Flag, FlagEquiv)>>,
    needs_mat: FlagSet,
    kind: ProducerKind,
    /// Whether the segment works on the block's cached registers
    /// (rule path) or on the in-environment state (TCG path) — the
    /// register-residency split whose synchronization cost makes
    /// low coverage expensive.
    cached: bool,
}

impl Segment {
    /// A QEMU-path segment that defers no flags.
    fn qemu(code: Range<usize>) -> Segment {
        Segment {
            code,
            class: CodeClass::QemuCore,
            covered: 0,
            report: None,
            needs_mat: FlagSet::EMPTY,
            kind: ProducerKind::Qemu,
            cached: false,
        }
    }
}

/// Segment accumulation across a member sequence. `seg_of_guest` is
/// indexed by *global* guest position — across all members including
/// their terminals — so the delegation pass can map a producer position
/// to its segment (`usize::MAX` marks positions with no segment of
/// their own).
#[derive(Default)]
struct BodyState {
    /// Every segment's host code, back to back in segment order: rules
    /// instantiate straight into it, and emission copies each segment
    /// out between the residency syncs.
    code: Vec<HInst>,
    segments: Vec<Segment>,
    seg_of_guest: Vec<usize>,
    /// The guest registers rule segments touch, and those they write:
    /// distinct registers, so sixteen at most.
    cached_regs: InlineVec<GReg, 16>,
    cached_writes: InlineVec<GReg, 16>,
    /// Scratch: the host locations of the rule being instantiated.
    locs: Vec<HostLoc>,
    attributions: Vec<RuleAttribution>,
    lookup_misses: Vec<String>,
}

impl BodyState {
    /// Appends `code` as a QEMU-path segment that defers no flags.
    fn push_qemu_segment(&mut self, code: Vec<HInst>) -> &mut Segment {
        let start = self.code.len();
        self.code.extend(code);
        self.segments.push(Segment::qemu(start..self.code.len()));
        self.segments.last_mut().expect("just pushed")
    }

    /// Records the application of rule match `m` to `insts`: their
    /// registers join the cached set, their coverage is attributed to
    /// the rule's key, and the host code instantiated from `start` on
    /// becomes one segment deferring `live` flags.
    fn push_rule_segment(
        &mut self,
        insts: &[(Addr, &GInst)],
        m: &Match<'_>,
        start: usize,
        live: FlagSet,
        cached: bool,
    ) {
        for (_, inst) in insts {
            for g in inst.uses().into_iter().chain(inst.defs()) {
                if !self.cached_regs.contains(&g) {
                    self.cached_regs.push(g);
                }
            }
            for g in inst.defs() {
                if !self.cached_writes.contains(&g) {
                    self.cached_writes.push(g);
                }
            }
        }
        let covered = insts.len() as u32;
        self.attributions.push(RuleAttribution {
            label: Arc::clone(m.label),
            subgroup: Arc::clone(m.subgroup),
            covered,
        });
        for _ in insts {
            self.seg_of_guest.push(self.segments.len());
        }
        self.segments.push(Segment {
            code: start..self.code.len(),
            class: CodeClass::RuleCore,
            covered,
            report: (!live.is_empty()).then(|| m.entry.flags.clone()),
            needs_mat: live,
            kind: ProducerKind::Rule,
            cached,
        });
    }
}

/// What the rule-lookup pass records per body position: the scan of the
/// window starting there (as long as the rule set's longest key) and
/// its one-key match. The multi-key lookup, the miss label and
/// compare/branch folding read the scan.
struct Probe<'r> {
    scan: Scan,
    one: Option<Match<'r>>,
}

/// Whether a rule whose host code leaves `report` may produce the live
/// guest flags `live`. With delegation the flags must be recoverable
/// from the host flags (directly for a delegated branch, or via setcc
/// materialization); without it rules apply to live-flag producers
/// only when the relationship is exact — modelling the baseline's
/// flag-inclusive rules.
fn rule_flags_ok(live: FlagSet, report: &[(Flag, FlagEquiv)], cfg: &TranslateConfig) -> bool {
    if cfg.flag_delegation {
        can_materialize(live, report)
    } else {
        live.iter().all(|f| {
            report
                .iter()
                .any(|(ff, eq)| *ff == f && *eq == FlagEquiv::Exact)
        })
    }
}

/// Host locations for a rule's slots, written over `locs`: the block's
/// cached registers, or the environment slots directly when the block
/// does not cache.
fn slot_locs(slots: &[GReg], map: &RegMap, use_cache: bool, locs: &mut Vec<HostLoc>) {
    locs.clear();
    locs.extend(slots.iter().map(|g| {
        if use_cache {
            slot_loc(map, *g)
        } else {
            HostLoc::Mem(env::reg_mem(*g))
        }
    }));
}

/// Phase 1 of translation: generates per-instruction host segments for
/// one member's body instructions. `base` is the global guest position
/// of `insts[0]`; `live_after` is indexed and `producers` expressed in
/// global positions; `probes` is per body position, empty when no rule
/// set is installed.
#[allow(clippy::too_many_arguments)]
fn build_body_segments(
    insts: &[(Addr, &GInst)],
    base: usize,
    live_after: &[FlagSet],
    producers: &[usize],
    rules: Option<&RuleSet>,
    cfg: &TranslateConfig,
    map: &RegMap,
    use_cache: bool,
    probes: &[Probe<'_>],
    st: &mut BodyState,
) -> Result<(), TranslateError> {
    let env_map = RegMap::all_env();
    // The live flags `inst[j]` defines.
    let live_defs_at = |j: usize| insts[j].1.flag_defs() & live_after[base + j];
    // Flag policy of applying match `m` at position `i`: no instruction
    // before its last may define live flags or produce a branch's, and
    // the last one's live flags must be recoverable from the rule's host
    // flags. Yields the flags whose materialization the segment defers.
    let deferred_flags = |m: &Match<'_>, i: usize| -> Option<FlagSet> {
        let last = i + m.len - 1;
        let interior_clean =
            (i..last).all(|j| live_defs_at(j).is_empty() && !producers.contains(&(base + j)));
        let live = live_defs_at(last);
        (interior_clean && (live.is_empty() || rule_flags_ok(live, &m.entry.flags, cfg)))
            .then_some(live)
    };
    let mut i = 0usize;
    while i < insts.len() {
        let (addr, inst) = (&insts[i].0, insts[i].1);
        // --- rule path ---
        // The longest multi-key match (learned sequences, §V-D), then
        // the one-key match; a candidate the flag policy or the host
        // instruction shapes reject is skipped, never fatal. Shorter
        // sequences are not retried: a window is one rule's or none's.
        if let Some(rules) = rules {
            let multi = rules.lookup_scan(&probes[i].scan, 2..=usize::MAX);
            let applied = multi.iter().chain(&probes[i].one).find_map(|m| {
                let live = deferred_flags(m, i)?;
                slot_locs(&m.inst.slots, map, use_cache, &mut st.locs);
                let start = st.code.len();
                let template = &m.entry.template;
                rtemplate::instantiate(template, &st.locs, &m.inst.imms, &mut st.code).ok()?;
                Some((m, start, live))
            });
            if let Some((m, start, live)) = applied {
                st.push_rule_segment(&insts[i..i + m.len], m, start, live, use_cache);
                i += m.len;
                continue;
            }
            st.lookup_misses.push(match probes[i].scan.first() {
                Some(key) => key.to_string(),
                None => inst.op.to_string(),
            });
        }
        // --- QEMU path ---
        // TCG-style flag handling: dead flags are never materialized,
        // and a producer whose live flags are recoverable from the host
        // ALU flags defers materialization (compare/branch folding).
        let live_defs = live_defs_at(i);
        let dead = inst.flag_defs() - live_defs;
        let folded = if live_defs.is_empty() {
            None
        } else {
            folded_flag_report(inst)
                .filter(|r| can_materialize(live_defs, r))
                .and_then(|r| {
                    // Nothing was scanned when no rule set is installed.
                    let own;
                    let scan = match probes.get(i) {
                        Some(probe) => &probe.scan,
                        None => {
                            own = Scan::of([inst], 1);
                            &own
                        }
                    };
                    fold_producer(scan, &env_map).map(|code| (tcg_legalize(code), r))
                })
        };
        st.seg_of_guest.push(st.segments.len());
        if let Some((code, report)) = folded {
            let seg = st.push_qemu_segment(code);
            seg.report = Some(report);
            seg.needs_mat = live_defs;
        } else {
            let lifted = pdbt_ir::lift_omit(inst, *addr, dead).map_err(|err| TranslateError {
                detail: format!("{inst}: {err}"),
            })?;
            st.push_qemu_segment(tcg_legalize(lower_ops(&lifted.body, &env_map)));
        }
        i += 1;
    }
    Ok(())
}

/// Loads the block's cached registers from the environment when
/// entering cached residency (flag-preserving moves).
fn enter_cached(e: &mut Emitter, cached_mode: &mut bool, sync_loads: &[(GReg, HReg)]) {
    if !*cached_mode {
        for (g, h) in sync_loads {
            e.push(
                hb::mov(HOperand::Reg(*h), HOperand::Mem(env::reg_mem(*g))),
                CodeClass::DataTransfer,
            );
        }
        *cached_mode = true;
    }
}

/// Stores the written cached registers back to the environment when
/// leaving cached residency (flag-preserving moves).
fn enter_env(e: &mut Emitter, cached_mode: &mut bool, sync_stores: &[(GReg, HReg)]) {
    if *cached_mode {
        for (g, h) in sync_stores {
            e.push(
                hb::mov(HOperand::Mem(env::reg_mem(*g)), HOperand::Reg(*h)),
                CodeClass::DataTransfer,
            );
        }
        *cached_mode = false;
    }
}

/// How a block's exit stubs transfer control.
enum StubPlan {
    FallThrough,
    Uncond(Addr),
    Cond(pdbt_isa_x86::Cc, Addr, Addr),
    Indirect,
    Exit,
}

/// Emits the terminal instruction's guest work (link-register writes,
/// pop loads, condition evaluation) BEFORE the epilogue so its register
/// effects are stored back, and returns the exit-stub plan; the caller
/// emits the epilogue and the exit stubs.
fn emit_terminal(
    e: &mut Emitter,
    addr: Addr,
    inst: &GInst,
    direct_cc: Option<pdbt_isa_x86::Cc>,
    env_map: &RegMap,
    sync_stores: &[(GReg, HReg)],
    cached_mode: &mut bool,
) -> Result<StubPlan, TranslateError> {
    let lifted = lift(inst, addr).map_err(|err| TranslateError {
        detail: format!("{inst}: {err}"),
    })?;
    if let (
        Some(Terminator::Br {
            cond: Some(_),
            taken,
            fallthrough,
        }),
        Some(cc),
    ) = (&lifted.term, direct_cc)
    {
        // Direct branch on live host flags: delegation (rule producer,
        // Fig 10) or TCG folding (QEMU producer). The coverage
        // accounting happened in the delegation phase. The cached
        // registers are stored by the epilogue.
        return Ok(StubPlan::Cond(cc, *taken, *fallthrough));
    }
    enter_env(e, cached_mode, sync_stores);
    let host = tcg_legalize(lower_ops(&lifted.body, env_map));
    e.extend(host, CodeClass::QemuCore);
    Ok(match &lifted.term {
        Some(Terminator::Br {
            cond: Some((icc, a, b)),
            taken,
            fallthrough,
        }) => {
            // Evaluate the guest condition from the environment flags.
            let (cmp, hcc) = lower_branch_cond(*icc, *a, *b, env_map);
            e.extend(tcg_legalize(cmp), CodeClass::QemuCore);
            StubPlan::Cond(hcc, *taken, *fallthrough)
        }
        Some(Terminator::Br {
            cond: None, taken, ..
        }) => StubPlan::Uncond(*taken),
        Some(Terminator::BrInd { target }) => {
            let src = match target {
                pdbt_ir::Val::Reg(g) => HOperand::Mem(env::reg_mem(*g)),
                pdbt_ir::Val::Tmp(t) => HOperand::Mem(env::spill_mem(t.0 as usize)),
                pdbt_ir::Val::Const(c) => HOperand::Imm(*c as i32),
            };
            e.push(hb::mov(HOperand::Reg(HReg::Eax), src), CodeClass::QemuCore);
            StubPlan::Indirect
        }
        Some(Terminator::Exit) => StubPlan::Exit,
        None => StubPlan::FallThrough,
    })
}

/// The static successors a plan's exit stubs can reach.
fn succ_of_plan(plan: &StubPlan, fall: Addr) -> BlockSuccs {
    match plan {
        StubPlan::FallThrough => BlockSuccs::One(fall),
        StubPlan::Uncond(taken) => BlockSuccs::One(*taken),
        StubPlan::Cond(_, taken, fallthrough) => BlockSuccs::Two {
            taken: *taken,
            fall: *fallthrough,
        },
        StubPlan::Indirect | StubPlan::Exit => BlockSuccs::None,
    }
}

/// Emits a plan's exit stubs.
fn emit_exit_stubs(e: &mut Emitter, plan: &StubPlan, fall: Addr, guest_len: u32) {
    match plan {
        StubPlan::FallThrough => {
            one_sided_exit(e, HOperand::Imm(fall as i32), guest_len);
        }
        StubPlan::Uncond(taken) => {
            one_sided_exit(e, HOperand::Imm(*taken as i32), guest_len);
        }
        StubPlan::Cond(cc, taken, fallthrough) => {
            two_sided_exit(e, *cc, *taken, *fallthrough, guest_len);
        }
        StubPlan::Indirect => {
            one_sided_exit(e, HOperand::Reg(HReg::Eax), guest_len);
        }
        StubPlan::Exit => {
            bookkeeping(e, guest_len);
            e.push(hb::hlt(), CodeClass::Control);
        }
    }
}

/// The attribution of a delegated `b<cond>`. A delegated branch is
/// covered by no rule of its own, so no rule set owns its label; there
/// are fifteen of them, formatted once per process and shared like a
/// rule's.
fn delegated_attribution(cond: Cond) -> RuleAttribution {
    static ALL: OnceLock<Vec<RuleAttribution>> = OnceLock::new();
    let all = ALL.get_or_init(|| {
        let subgroup: Arc<str> = subgroup_of(pdbt_isa_arm::Op::B).to_string().into();
        let label = |c: &Cond| format!("b{c} (delegated)").into();
        Cond::ALL
            .iter()
            .map(|c| RuleAttribution {
                label: label(c),
                subgroup: Arc::clone(&subgroup),
                covered: 1,
            })
            .collect()
    });
    all[usize::from(cond.index())].clone()
}

/// A recorded conditional branch inside a member sequence.
struct BranchSite {
    /// Global position of the branch instruction.
    t: usize,
    cond: Cond,
    /// Global position of the last instruction defining any of the
    /// branch's condition flags (may sit in an earlier member — the
    /// cross-block delegation case).
    producer: Option<usize>,
}

/// Decides condition-flag delegation for the branch at `bs`, adjusting
/// the producer segment's deferred materialization set on success.
/// Returns the host condition, whether the branch counts as
/// rule-covered, and the delegation depth.
///
/// `la_t` is the flag set live after the branch (for interior branches
/// this already joins the off-trace side's live-ins); `off_live` is the
/// off-trace exit's live-in set, retained for *later* branches sharing
/// this producer — flags a side exit may leave unread must still reach
/// the environment even if a later consumer would let them die.
fn decide_delegation(
    st: &mut BodyState,
    deleg_off: &mut Vec<(usize, FlagSet)>,
    bs: &BranchSite,
    la_t: FlagSet,
    off_live: FlagSet,
    cfg: &TranslateConfig,
) -> Option<(pdbt_isa_x86::Cc, bool, u32)> {
    let p = bs.producer?;
    if bs.t - p > cfg.window {
        return None;
    }
    // The segment holding the producer (sequence rules cover several
    // guest instructions); delegation additionally requires the
    // producer to be the segment's *last* flag definer, which the
    // sequence application policy guarantees.
    let sp = *st.seg_of_guest.get(p)?;
    if sp == usize::MAX {
        return None;
    }
    let cc = delegated_cc(bs.cond, st.segments.get(sp)?.report.as_deref()?)?;
    // The host flags must survive every later segment on the on-trace
    // path (the paper's "killed within the window" check; residency
    // syncs and materialization code are flag-preserving moves).
    let clean = st.code[st.segments[sp].code.end..]
        .iter()
        .all(|h| h.flag_defs().is_empty());
    if !clean {
        return None;
    }
    let uses = cond_flag_uses(bs.cond);
    let protected = deleg_off
        .iter()
        .find(|(s, _)| *s == sp)
        .map(|(_, f)| *f)
        .unwrap_or(FlagSet::EMPTY);
    // Flags the branch consumes can skip the environment — unless a
    // successor, an earlier side exit, or another consumer reads them.
    st.segments[sp].needs_mat = st.segments[sp].needs_mat - (uses - (la_t | protected));
    match deleg_off.iter_mut().find(|(s, _)| *s == sp) {
        Some((_, f)) => *f |= off_live,
        None => deleg_off.push((sp, off_live)),
    }
    let covered = st.segments[sp].kind == ProducerKind::Rule && cfg.flag_delegation;
    Some((cc, covered, (bs.t - p) as u32))
}

/// An interior member's conditional side exit: one direction of its
/// terminal branch continues on-trace, the other leaves through a
/// trampoline that syncs state and exits to `off`. (Straight-line
/// transitions — fall-through, unconditional branch, call — need no
/// branch code at all.)
#[derive(Clone, Copy)]
struct SideExit {
    on_trace_taken: bool,
    off: Addr,
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
/// start addresses in execution order; repeated members model loop
/// unrolling) into a single superblock.
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
    let k = members.len();
    if k == 0 {
        return Err(TranslateError {
            detail: "nothing to translate: no members".into(),
        });
    }
    // The members' instructions, back to back, and each member's
    // half-open range of global positions in it.
    let mut global: Vec<(Addr, &GInst)> = Vec::with_capacity(8 * k);
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(k);
    for &start in members {
        let b = global.len();
        collect_block_into(prog, start, cfg.max_block, &mut global)?;
        ranges.push((b, global.len()));
    }
    let total_n = global.len();
    let member = |m: usize| &global[ranges[m].0..ranges[m].1];

    // Validate connectivity; an interior member ending in a conditional
    // branch records which direction stays on-trace and where the other
    // one leaves to.
    let mut side: Vec<Option<SideExit>> = vec![None; k];
    for m in 0..k - 1 {
        let (last_addr, last_inst) = *member(m).last().expect("non-empty block");
        let next = members[m + 1];
        let fall = last_addr + INST_SIZE;
        let connected = match last_inst.op {
            pdbt_isa_arm::Op::B => {
                let taken = branch_target(last_addr, last_inst);
                if last_inst.cond == Cond::Al {
                    next == taken
                } else {
                    side[m] = Some(SideExit {
                        on_trace_taken: next == taken,
                        off: if next == taken { fall } else { taken },
                    });
                    next == taken || next == fall
                }
            }
            pdbt_isa_arm::Op::Bl => next == branch_target(last_addr, last_inst),
            // Indirect transfers and halts have no static successor.
            _ if last_inst.ends_block() => false,
            // Max-length member: falls through.
            _ => next == fall,
        };
        if !connected {
            return Err(TranslateError {
                detail: format!("trace member {m} does not continue at {next:#x}"),
            });
        }
    }

    // A member's body excludes its final instruction iff that
    // terminates control flow; a max-length member keeps all.
    let body_lens: Vec<usize> = (0..k)
        .map(|m| {
            let insts = member(m);
            let lt = insts.last().is_some_and(|(_, i)| i.ends_block());
            if lt {
                insts.len() - 1
            } else {
                insts.len()
            }
        })
        .collect();

    // Register-frequency allocation over the whole sequence.
    let ordered = reg_frequency_order(global.iter().map(|(_, i)| *i));
    let map = RegMap::allocate(&ordered);
    let env_map = RegMap::all_env();

    // Flag liveness, solved backwards over the whole sequence from the
    // flags live into the final member's successors (cross-block
    // liveness): interior conditional branches join their off-trace
    // side's live-ins, so a producer's flags stay live exactly as long
    // as any on- or off-trace consumer can still read them.
    let (final_last_addr, final_last_inst) = *member(k - 1).last().expect("non-empty block");
    let exit_live = prog.flag_live_out_at(final_last_addr);
    let mut live_after = vec![FlagSet::EMPTY; total_n];
    {
        let mut live = exit_live;
        let mut m = k - 1;
        for t in (0..total_n).rev() {
            while t < ranges[m].0 {
                m -= 1;
            }
            let (addr, inst) = global[t];
            if m < k - 1 && t + 1 == ranges[m].1 {
                // Interior terminal: join what the off-trace side reads
                // (a call's return continuation is off-trace).
                if let Some(exit) = side[m] {
                    live |= prog.flag_live_in_at(exit.off);
                } else if inst.op == pdbt_isa_arm::Op::Bl {
                    live |= prog.flag_live_in_at(addr + INST_SIZE);
                }
            }
            live_after[t] = live;
            // Conditional branches read exactly their condition's flags.
            let uses = if inst.op == pdbt_isa_arm::Op::B && inst.cond != Cond::Al {
                cond_flag_uses(inst.cond)
            } else {
                inst.flag_uses()
            };
            live = (live - inst.flag_defs()) | uses;
        }
    }

    // Conditional branches and their flag producers (which may sit in an
    // earlier member — interior terminals define no flags, so the
    // backward scan crosses them transparently).
    let mut branches: Vec<BranchSite> = Vec::new();
    for (_, er) in &ranges {
        let t = er - 1;
        let (_, last_inst) = global[t];
        if last_inst.op == pdbt_isa_arm::Op::B && last_inst.cond != Cond::Al {
            let uses = cond_flag_uses(last_inst.cond);
            let producer = (0..t)
                .rev()
                .find(|&p| global[p].1.flag_defs().intersects(uses));
            branches.push(BranchSite {
                t,
                cond: last_inst.cond,
                producer,
            });
        }
    }
    let producers: Vec<usize> = branches.iter().filter_map(|bs| bs.producer).collect();

    // Single rule-lookup pass over the member bodies: each position's
    // window is scanned once and probed for its one-key rule; the scans
    // and matches are reused by both the caching heuristic below and
    // the segment builder.
    // The probes of every member's body lie back to back, in member
    // order; terminals have none.
    let mut probes: Vec<Probe<'_>> = Vec::new();
    if let Some(r) = rules {
        probes.reserve(total_n);
        for (m, body_len) in body_lens.iter().enumerate() {
            let body = &member(m)[..*body_len];
            probes.extend((0..body.len()).map(|i| {
                let scan = Scan::of(body[i..].iter().map(|(_, inst)| *inst), r.max_len());
                let one = r.lookup_scan(&scan, 1..=1);
                Probe { scan, one }
            }));
        }
    }
    // Register caching only pays off when enough of the sequence is
    // rule-translated to amortize the residency synchronization; short
    // or sparsely covered blocks instantiate rules directly on the
    // environment slots. One-key matches are what is counted: the
    // threshold decides register residency, and so host code.
    let rule_hits = probes.iter().filter(|p| p.one.is_some()).count();
    let use_cache = rule_hits >= 3;

    // Phase 1 + delegation, member by member in order. Materialization
    // of live flags is deferred so that each branch's decision — run as
    // soon as its member's segments exist, with exactly the on-trace
    // host code between producer and branch in hand (including earlier
    // members' transition segments) — can choose between consuming the
    // producer's live host flags directly (delegation / TCG
    // compare-branch folding) and storing them into the environment.
    //
    // The buffers are sized once: a guest instruction is a segment of a
    // host instruction or two.
    let mut st = BodyState {
        code: Vec::with_capacity(2 * total_n),
        segments: Vec::with_capacity(total_n),
        seg_of_guest: Vec::with_capacity(total_n),
        attributions: Vec::with_capacity(total_n),
        ..BodyState::default()
    };
    let mut deleg_off: Vec<(usize, FlagSet)> = Vec::new();
    let mut seg_ranges: Vec<(usize, usize)> = Vec::with_capacity(k);
    let mut attr_ranges: Vec<(usize, usize)> = Vec::with_capacity(k);
    let mut member_deleg: Vec<Option<DelegOutcome>> = vec![None; k];
    let mut member_branch_cov: Vec<bool> = vec![false; k];
    let mut exit_cc: Vec<Option<pdbt_isa_x86::Cc>> = vec![None; k];
    let mut final_direct_cc: Option<pdbt_isa_x86::Cc> = None;
    let mut probe_base = 0;
    for m in 0..k {
        let seg_b = st.segments.len();
        let attr_b = st.attributions.len();
        // Empty without a rule set: nothing was probed.
        let body_probes = probes
            .get(probe_base..probe_base + body_lens[m])
            .unwrap_or_default();
        probe_base += body_lens[m];
        build_body_segments(
            &member(m)[..body_lens[m]],
            ranges[m].0,
            &live_after,
            &producers,
            rules,
            cfg,
            &map,
            use_cache,
            body_probes,
            &mut st,
        )?;
        let t = ranges[m].1 - 1;
        let (taddr, tinst) = global[t];
        if let Some(bs) = branches.iter().find(|b| b.t == t) {
            let off_live = side[m].map_or(FlagSet::EMPTY, |exit| prog.flag_live_in_at(exit.off));
            let decided =
                decide_delegation(&mut st, &mut deleg_off, bs, live_after[t], off_live, cfg);
            // Flag handling for the window-depth histogram: a
            // conditional exit either delegated (depth = producer
            // distance) or read environment-materialized flags.
            member_deleg[m] = Some(match decided {
                Some((_, _, depth)) => DelegOutcome::Delegated(depth),
                None => DelegOutcome::EnvFallback,
            });
            if let Some((_, true, _)) = decided {
                member_branch_cov[m] = true;
                st.attributions.push(delegated_attribution(bs.cond));
            }
            if let Some(exit) = side[m] {
                let hcc = match decided {
                    Some((cc, _, _)) => {
                        st.seg_of_guest.push(usize::MAX);
                        cc
                    }
                    None => {
                        // Evaluate the guest condition from the
                        // environment flags in a transition segment.
                        let lifted = lift(tinst, taddr).map_err(|err| TranslateError {
                            detail: format!("{tinst}: {err}"),
                        })?;
                        let Some(Terminator::Br {
                            cond: Some((icc, a, b)),
                            ..
                        }) = lifted.term
                        else {
                            return Err(TranslateError {
                                detail: format!("{tinst}: expected a conditional terminator"),
                            });
                        };
                        let mut code = tcg_legalize(lower_ops(&lifted.body, &env_map));
                        let (cmp, hcc) = lower_branch_cond(icc, a, b, &env_map);
                        code.extend(tcg_legalize(cmp));
                        st.seg_of_guest.push(st.segments.len());
                        st.push_qemu_segment(code);
                        hcc
                    }
                };
                exit_cc[m] = Some(if exit.on_trace_taken {
                    hcc
                } else {
                    hcc.invert()
                });
            } else {
                final_direct_cc = decided.map(|(cc, _, _)| cc);
            }
        } else if m < k - 1 && body_lens[m] < member(m).len() {
            // Unconditional b/bl: emit its guest work (link-register
            // writes) as a transition segment; a plain `b` has none
            // and the trace flows seamlessly through it.
            let lifted = lift(tinst, taddr).map_err(|err| TranslateError {
                detail: format!("{tinst}: {err}"),
            })?;
            let code = tcg_legalize(lower_ops(&lifted.body, &env_map));
            if code.is_empty() {
                st.seg_of_guest.push(usize::MAX);
            } else {
                st.seg_of_guest.push(st.segments.len());
                st.push_qemu_segment(code);
            }
        }
        seg_ranges.push((seg_b, st.segments.len()));
        attr_ranges.push((attr_b, st.attributions.len()));
    }

    // Emission: members in order with register-residency
    // synchronization, side-exit trampolines between them, and the
    // terminal machinery for the final member.
    //
    // The environment is canonical between blocks. Rule-translated
    // segments work on block-cached host registers; TCG segments work on
    // the environment directly. Every residency transition pays data
    // transfer (register loads/stores), which is why low coverage —
    // frequent rule↔emulation mixing — barely beats pure emulation
    // (paper Fig 11: `w/o para.` at 1.04×) while high coverage pays the
    // sync only at block boundaries.
    //
    // Sized for the segments' code plus, per member, a residency sync
    // each way and an exit stub.
    let host_estimate = st.code.len() + 16 * k;
    let mut e = Emitter {
        code: Vec::with_capacity(host_estimate),
        classes: Vec::with_capacity(host_estimate),
    };
    let mut cached_mode = false;
    // Load every register the rule segments touch; store back only the
    // ones they write (values loaded and unmodified match the
    // environment already).
    let sync_loads: Vec<(GReg, HReg)> = map
        .allocated()
        .iter()
        .copied()
        .filter(|(g, _)| st.cached_regs.contains(g))
        .collect();
    let sync_stores: Vec<(GReg, HReg)> = map
        .allocated()
        .iter()
        .copied()
        .filter(|(g, _)| st.cached_writes.contains(g))
        .collect();
    let mut member_marks: Vec<MemberMark> = Vec::with_capacity(k);
    let mut rule_covered: u32 = 0;
    let mut cum_guest: u32 = 0;
    let mut succ = BlockSuccs::None;
    for m in 0..k {
        let anchor = e.code.len();
        cum_guest += member(m).len() as u32;
        let mut member_rc: u32 = 0;
        for seg in &st.segments[seg_ranges[m].0..seg_ranges[m].1] {
            if seg.cached {
                enter_cached(&mut e, &mut cached_mode, &sync_loads);
            } else {
                enter_env(&mut e, &mut cached_mode, &sync_stores);
            }
            e.extend(st.code[seg.code.clone()].iter().cloned(), seg.class);
            member_rc += seg.covered;
            if !seg.needs_mat.is_empty() {
                let report = seg.report.as_ref().expect("deferred flags carry a report");
                if !materialize_flags(&mut e, seg.needs_mat, report) {
                    return Err(TranslateError {
                        detail: "phase 1 admitted an unmaterializable producer".into(),
                    });
                }
            }
        }
        if member_branch_cov[m] {
            member_rc += 1;
        }
        if m < k - 1 {
            if let (Some(cc), Some(SideExit { off, .. })) = (exit_cc[m], side[m]) {
                // Side exit: `jcc` continues on-trace (keeping the cached
                // registers live), otherwise the trampoline syncs state,
                // advances icount to exactly the members retired so far,
                // and leaves through a block exit.
                let stores: &[(GReg, HReg)] = if cached_mode { &sync_stores } else { &[] };
                e.push(hb::jcc(cc, stores.len() as i32 + 3), CodeClass::Control);
                for (g, h) in stores {
                    e.push(
                        hb::mov(HOperand::Mem(env::reg_mem(*g)), HOperand::Reg(*h)),
                        CodeClass::DataTransfer,
                    );
                }
                bookkeeping(&mut e, cum_guest);
                e.push(hb::jmp_exit(HOperand::Imm(off as i32)), CodeClass::Control);
            }
        } else {
            // Terminal instruction: emit its guest work BEFORE the
            // epilogue so its register effects are stored back; the
            // exit jumps come after.
            let plan = if body_lens[m] < member(m).len() {
                emit_terminal(
                    &mut e,
                    final_last_addr,
                    final_last_inst,
                    final_direct_cc,
                    &env_map,
                    &sync_stores,
                    &mut cached_mode,
                )?
            } else {
                StubPlan::FallThrough
            };
            let fall = members[m] + member(m).len() as u32 * INST_SIZE;
            succ = succ_of_plan(&plan, fall);
            // Epilogue: leave the environment canonical
            // (flag-preserving moves).
            enter_env(&mut e, &mut cached_mode, &sync_stores);
            emit_exit_stubs(&mut e, &plan, fall, cum_guest);
        }
        rule_covered += member_rc;
        member_marks.push(MemberMark {
            start: members[m],
            anchor,
            guest_len: member(m).len() as u32,
            rule_covered: member_rc,
            attr_range: attr_ranges[m],
            deleg: member_deleg[m],
        });
    }

    debug_assert_eq!(
        st.attributions.iter().map(|a| a.covered).sum::<u32>(),
        rule_covered,
        "attribution must decompose coverage exactly"
    );
    Ok(TranslatedBlock {
        start: members[0],
        code: e.code,
        classes: e.classes,
        guest_len: total_n as u32,
        rule_covered,
        attributions: st.attributions,
        lookup_misses: st.lookup_misses,
        deleg: None,
        succ,
        member_marks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, RunSetup};
    use pdbt_compiler::lang::{
        BinOp, CmpKind, Function, Label, Rvalue, SourceProgram, Stmt, UnOp, Var,
    };
    use pdbt_compiler::{build_debug_map, compile_pair};
    use pdbt_core::derive::{derive, DeriveConfig};
    use pdbt_core::learning::{learn_into, LearnConfig};
    use pdbt_core::RuleSet;
    use pdbt_isa_arm::Cpu as GuestCpu;
    use pdbt_symexec::CheckOptions;

    /// A training program rich enough to seed the main subgroups.
    fn training_source() -> SourceProgram {
        let c = Rvalue::Const;
        let v = |i: u8| Rvalue::Var(Var(i));
        let stmts = vec![
            Stmt::Un {
                dst: Var(0),
                op: UnOp::Mov,
                a: c(100),
            },
            Stmt::Un {
                dst: Var(1),
                op: UnOp::Mov,
                a: c(7),
            },
            Stmt::Bin {
                dst: Var(0),
                op: BinOp::Add,
                a: v(0),
                b: v(1),
            },
            Stmt::Bin {
                dst: Var(2),
                op: BinOp::Sub,
                a: v(0),
                b: c(3),
            },
            Stmt::Bin {
                dst: Var(2),
                op: BinOp::And,
                a: v(2),
                b: c(255),
            },
            // Memory (base address = 0x10_0000 via shift).
            Stmt::Un {
                dst: Var(3),
                op: UnOp::Mov,
                a: c(0x100),
            },
            Stmt::Bin {
                dst: Var(3),
                op: BinOp::Shl,
                a: v(3),
                b: c(12),
            },
            Stmt::Store {
                src: Var(2),
                base: Var(3),
                offset: 4,
                width: pdbt_isa::Width::B32,
            },
            Stmt::Load {
                dst: Var(1),
                base: Var(3),
                offset: 4,
                width: pdbt_isa::Width::B32,
            },
            // Compare seed.
            Stmt::Branch {
                a: Var(0),
                cmp: CmpKind::LtS,
                b: c(0),
                target: Label(0),
            },
            Stmt::Define { label: Label(0) },
            Stmt::Output { a: Var(1) },
            Stmt::Return,
        ];
        SourceProgram {
            functions: vec![Function {
                name: "train".into(),
                stmts,
                n_vars: 4,
            }],
        }
    }

    fn learn_rules() -> RuleSet {
        let pair = compile_pair(&training_source(), 0x1000).unwrap();
        let debug = build_debug_map(&pair.guest, &pair.host);
        let mut rules = RuleSet::new();
        learn_into(&mut rules, &pair, &debug, LearnConfig::default());
        assert!(
            rules.len() >= 6,
            "expected a healthy seed set, got {}",
            rules.len()
        );
        rules
    }

    /// A distinct test program reusing only combos reachable from the
    /// training seeds (plus QEMU-path branches/IO).
    fn test_program() -> pdbt_isa_arm::Program {
        use pdbt_isa::Cond;
        use pdbt_isa_arm::builders as g;
        use pdbt_isa_arm::{Operand as O, Reg};
        // A loop long enough for block-level register caching to
        // amortize (real blocks are; see the workload suite).
        pdbt_isa_arm::Program::new(
            0x2000,
            vec![
                g::mov(Reg::R4, O::Imm(40)), // 0x2000
                g::mov(Reg::R5, O::Imm(0)),
                // loop: (0x2008)
                g::eor(Reg::R6, Reg::R4, O::Imm(21)), // derived opcode
                g::add(Reg::R5, Reg::R5, O::Reg(Reg::R6)),
                g::and(Reg::R6, Reg::R6, O::Imm(0xff)),
                g::orr(Reg::R5, Reg::R5, O::Imm(1)),
                g::add(Reg::R5, Reg::R5, O::Imm(3)),
                g::eor(Reg::R5, Reg::R5, O::Reg(Reg::R6)),
                g::sub(Reg::R4, Reg::R4, O::Imm(1)).with_s(), // s-variant (delegation)
                g::b(Cond::Ne, -28),
                g::mov(Reg::R0, O::Reg(Reg::R5)),
                g::svc(1),
                g::svc(0),
            ],
        )
    }

    fn run_config(rules: Option<RuleSet>, delegation: bool) -> crate::Report {
        let mut cfg = EngineConfig::default();
        cfg.translate.flag_delegation = delegation;
        let mut engine = Engine::new(rules, cfg);
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        engine.run(&test_program(), &setup).expect("runs")
    }

    fn golden_output() -> Vec<u32> {
        let mut cpu = GuestCpu::new();
        cpu.mem.map(0x10_0000, 0x1000);
        cpu.mem.map(0x8_0000, 0x1000);
        cpu.write(pdbt_isa_arm::Reg::Sp, 0x8_1000);
        pdbt_isa_arm::run(&mut cpu, &test_program(), 100_000).unwrap();
        cpu.output
    }

    #[test]
    fn all_configurations_agree_with_the_interpreter() {
        let golden = golden_output();
        let learned = learn_rules();
        let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        let (opcode_only, _) = derive(
            &learned,
            DeriveConfig::opcode_only(),
            CheckOptions::default(),
        );
        for (name, rules, delegation) in [
            ("qemu", None, true),
            ("learned", Some(learned.clone()), false),
            ("opcode", Some(opcode_only), false),
            ("full", Some(full.clone()), true),
            ("full-no-delegation", Some(full), false),
        ] {
            let report = run_config(rules, delegation);
            assert_eq!(report.output, golden, "config {name}");
        }
    }

    #[test]
    fn coverage_orders_across_configurations() {
        let learned = learn_rules();
        let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        let (oa, _) = derive(
            &learned,
            DeriveConfig::opcode_addrmode(),
            CheckOptions::default(),
        );
        let qemu = run_config(None, true).metrics;
        let base = run_config(Some(learned), false).metrics;
        let mid = run_config(Some(oa), false).metrics;
        let top = run_config(Some(full), true).metrics;
        assert_eq!(qemu.coverage(), 0.0);
        assert!(base.coverage() > 0.0, "learned rules cover something");
        assert!(
            mid.coverage() >= base.coverage(),
            "{} vs {}",
            mid.coverage(),
            base.coverage()
        );
        assert!(
            top.coverage() > mid.coverage(),
            "delegation adds the branch+s coverage"
        );
        assert!(
            top.coverage() > 0.8,
            "full config covers most of the loop: {}",
            top.coverage()
        );
    }

    #[test]
    fn performance_proxy_orders_across_configurations() {
        let learned = learn_rules();
        let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        let qemu = run_config(None, true).metrics;
        let top = run_config(Some(full), true).metrics;
        assert!(
            top.host_executed() < qemu.host_executed(),
            "parameterized DBT executes fewer host instructions: {} vs {}",
            top.host_executed(),
            qemu.host_executed()
        );
        assert!(top.total_ratio() < qemu.total_ratio());
    }

    #[test]
    fn attribution_decomposes_coverage_exactly() {
        let learned = learn_rules();
        let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        let cfg = TranslateConfig::default();
        for start in [0x2000u32, 0x2008, 0x2028] {
            let block = translate_block(&test_program(), start, Some(&full), &cfg).unwrap();
            let sum: u32 = block.attributions.iter().map(|a| a.covered).sum();
            assert_eq!(sum, block.rule_covered, "block {start:#x}");
            for a in &block.attributions {
                assert!(!a.label.is_empty());
                assert!(!a.subgroup.is_empty(), "label {} has a subgroup", a.label);
            }
        }
        // The loop block delegates its terminal bne to the subs producer
        // one instruction back.
        let block = translate_block(&test_program(), 0x2008, Some(&full), &cfg).unwrap();
        assert_eq!(block.deleg, Some(DelegOutcome::Delegated(1)));
        assert!(block
            .attributions
            .iter()
            .any(|a| a.label.contains("delegated")));
        // Without rules every body instruction of the loop is a miss —
        // but only when a rule set is installed.
        let qemu = translate_block(&test_program(), 0x2008, None, &cfg).unwrap();
        assert!(qemu.attributions.is_empty());
        assert!(qemu.lookup_misses.is_empty());
        assert_eq!(qemu.rule_covered, 0);
    }

    #[test]
    fn undelegated_conditional_exit_reports_env_fallback() {
        let learned = learn_rules();
        let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        let cfg = TranslateConfig {
            window: 0,
            ..TranslateConfig::default()
        };
        // With a zero look-ahead window the producer (distance 1) is out
        // of range, so the branch reads environment flags.
        let block = translate_block(&test_program(), 0x2008, Some(&full), &cfg).unwrap();
        assert_eq!(block.deleg, Some(DelegOutcome::EnvFallback));
    }

    #[test]
    fn delegated_branch_skips_env_flags() {
        let learned = learn_rules();
        let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        let cfg = TranslateConfig::default();
        // The loop body block at 0x2008 (seven ALU ops + bne).
        let block = translate_block(&test_program(), 0x2008, Some(&full), &cfg).unwrap();
        assert_eq!(block.guest_len, 8);
        assert_eq!(block.rule_covered, 8, "subs delegated into bne");
        // No environment flag reads in the emitted code.
        let flag_addrs: Vec<i32> = pdbt_isa::Flag::ALL
            .iter()
            .map(|f| pdbt_ir::env::flag_offset(*f))
            .collect();
        for inst in &block.code {
            for o in &inst.operands {
                if let pdbt_isa_x86::Operand::Mem(m) = o {
                    if m.base == Some(HReg::Ebp) {
                        assert!(
                            !flag_addrs.contains(&m.disp),
                            "unexpected env flag access in {inst}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn without_delegation_subs_is_not_rule_covered() {
        // Without delegation the s-variant is not derivable, so the
        // producer goes through the QEMU path; TCG-style folding still
        // branches directly, but neither the subs nor the bne count as
        // rule-covered.
        let learned = learn_rules();
        let (oa, _) = derive(
            &learned,
            DeriveConfig::opcode_addrmode(),
            CheckOptions::default(),
        );
        let cfg = TranslateConfig {
            flag_delegation: false,
            ..TranslateConfig::default()
        };
        let block = translate_block(&test_program(), 0x2008, Some(&oa), &cfg).unwrap();
        assert!(
            block.rule_covered + 2 <= block.guest_len,
            "subs and bne stay emulated: {}/{}",
            block.rule_covered,
            block.guest_len
        );
    }

    #[test]
    fn distant_producer_branch_reads_env_flags() {
        // When another instruction separates the flag producer from the
        // branch AND clobbers host flags, the branch must evaluate the
        // guest condition from the environment.
        use pdbt_isa::Cond;
        use pdbt_isa_arm::builders as g;
        use pdbt_isa_arm::{Operand as O, Reg};
        let prog = pdbt_isa_arm::Program::new(
            0x3000,
            vec![
                g::sub(Reg::R4, Reg::R4, O::Imm(1)).with_s(),
                g::add(Reg::R5, Reg::R5, O::Imm(3)), // clobbers host flags
                g::b(Cond::Ne, -8),
                g::svc(0),
            ],
        );
        let cfg = TranslateConfig {
            flag_delegation: false,
            ..TranslateConfig::default()
        };
        let block = translate_block(&prog, 0x3000, None, &cfg).unwrap();
        let z_off = pdbt_ir::env::flag_offset(pdbt_isa::Flag::Z);
        let reads_z = block.code.iter().any(|i| {
            i.operands.iter().any(
                |o| matches!(o, pdbt_isa_x86::Operand::Mem(m) if m.base == Some(HReg::Ebp) && m.disp == z_off),
            )
        });
        assert!(reads_z, "env Z flag consulted by the branch");
        // And execution agrees with the interpreter.
        let mut engine = Engine::new(None, EngineConfig::default());
        let mut setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        setup.regs[4] = 5;
        let report = engine.run(&prog, &setup).unwrap();
        let mut cpu = pdbt_isa_arm::Cpu::new();
        cpu.write(Reg::R4, 5);
        pdbt_isa_arm::run(&mut cpu, &prog, 1000).unwrap();
        assert_eq!(report.output, cpu.output);
    }

    #[test]
    fn traces_of_fewer_than_two_members_are_errors_not_panics() {
        let cfg = TranslateConfig::default();
        for members in [&[][..], &[0x2008][..]] {
            let err = translate_trace(&test_program(), members, None, &cfg).unwrap_err();
            assert!(err.detail.contains("at least two members"), "{err}");
        }
    }

    /// The solver is private to `pdbt-isa-arm` and its memo cell cannot
    /// be re-initialised (the `cfg(test)` solve counter lives there,
    /// with the solver), so what is checked here is the translator's
    /// side: every block and trace translation of one program value,
    /// on any thread and through a clone, reads the one memo, and the
    /// result equals a translation that paid for its own solve.
    #[test]
    fn every_translation_of_a_program_shares_one_liveness_solve() {
        let learned = learn_rules();
        let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        let cfg = TranslateConfig::default();
        let prog = test_program();
        let clone = prog.clone();
        let starts: Vec<Addr> = (0..prog.len()).map(|i| prog.addr_of(i)).collect();
        let translate_all = |p: &pdbt_isa_arm::Program| -> Vec<TranslatedBlock> {
            let mut out: Vec<TranslatedBlock> = starts
                .iter()
                .map(|s| translate_block(p, *s, Some(&full), &cfg).unwrap())
                .collect();
            out.push(translate_trace(p, &[0x2008, 0x2008], Some(&full), &cfg).unwrap());
            out
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| translate_all(&prog));
            let b = s.spawn(|| translate_all(&clone));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(std::ptr::eq(prog.flag_liveness(), clone.flag_liveness()));
        assert_eq!(a, b);
        for (i, start) in starts.iter().enumerate() {
            let fresh = test_program();
            assert_eq!(
                translate_block(&fresh, *start, Some(&full), &cfg).unwrap(),
                a[i]
            );
        }
    }

    #[test]
    fn block_collection_stops_at_branches() {
        let prog = test_program();
        let b = collect_block(&prog, 0x2000, 32).unwrap();
        assert_eq!(b.len(), 2 + 8, "up to and including bne");
        let b = collect_block(&prog, 0x2028, 32).unwrap();
        assert_eq!(b.len(), 3, "mov/svc1 continue, svc0 terminates");
    }
}

#[cfg(test)]
mod seq_tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, RunSetup};
    use pdbt_core::learning::LearnConfig;
    use pdbt_core::ruleset::{verify_seq, Provenance, RuleEntry};
    use pdbt_core::{key, load_rules, template, RuleSet};
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::{Operand as O, Reg};
    use pdbt_isa_x86::builders as h;
    use pdbt_isa_x86::Reg as HReg;
    use pdbt_symexec::CheckOptions;

    /// Hand-build one sequence rule: `mov rA, #k; add rB, rB, rA`
    /// collapses into a single `addl`.
    fn seq_rule_set() -> RuleSet {
        let seq = [
            g::mov(Reg::R4, O::Imm(5)),
            g::add(Reg::R5, Reg::R5, O::Reg(Reg::R4)),
        ];
        let (keys, concrete) = key::parameterize_seq(&seq).unwrap();
        // Host: movl S0, $I0; addl S1, S0 — the learned pair shape.
        let host = [
            h::mov(HReg::Ecx.into(), pdbt_isa_x86::Operand::Imm(5)),
            h::add(HReg::Ebx.into(), HReg::Ecx.into()),
        ];
        let slot_of = |r: HReg| match r {
            HReg::Ecx => Some(0u8),
            HReg::Ebx => Some(1),
            _ => None,
        };
        let tmpl = template::extract(&host, &slot_of, &concrete.imms).unwrap();
        let flags = verify_seq(&keys, &tmpl, CheckOptions::default()).unwrap();
        let mut rs = RuleSet::new();
        assert!(rs.insert(
            keys,
            RuleEntry {
                template: tmpl,
                flags,
                provenance: Provenance::Learned,
                imm_constraint: None
            },
        ));
        rs
    }

    #[test]
    fn sequence_rule_matches_and_counts_coverage() {
        let rules = seq_rule_set();
        let prog = pdbt_isa_arm::Program::new(
            0x1000,
            vec![
                g::mov(Reg::R8, O::Imm(42)),               // single inst: no rule
                g::mov(Reg::R6, O::Imm(9)),                // seq part 1 (fresh regs)
                g::add(Reg::R7, Reg::R7, O::Reg(Reg::R6)), // seq part 2
                g::svc(0),
            ],
        );
        let block =
            translate_block(&prog, 0x1000, Some(&rules), &TranslateConfig::default()).unwrap();
        assert_eq!(block.guest_len, 4);
        assert_eq!(
            block.rule_covered, 2,
            "the sequence covers two guest instructions"
        );
        // And it executes correctly.
        let mut engine = Engine::new(Some(rules), EngineConfig::default());
        let mut setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        setup.regs[7] = 100;
        let mut prog2 = prog.insts().to_vec();
        prog2.insert(3, g::mov(Reg::R0, O::Reg(Reg::R7)));
        prog2.insert(4, g::svc(1));
        let prog2 = pdbt_isa_arm::Program::new(0x1000, prog2);
        let report = engine.run(&prog2, &setup).unwrap();
        assert_eq!(report.output, vec![109]);
    }

    /// One failure policy at every key length: a rule whose template
    /// instantiates to an invalid host instruction costs the instruction
    /// its rule — a counted lookup miss, translated through the IR — not
    /// the block its translation.
    #[test]
    fn a_rule_that_fails_to_instantiate_is_a_miss_not_an_error() {
        // `addl $I0, S0`: an immediate destination, whatever S0 is.
        let mut rules = load_rules(
            "rule add|s=0|modes=reg,reg,imm|pat=0,0|prov=L|flags=|imms=*\n  addl $I0, S0\nend\n",
        )
        .expect("well-formed and arity-consistent");
        rules.merge(seq_rule_set());
        let prog = pdbt_isa_arm::Program::new(
            0x1000,
            vec![
                g::add(Reg::R0, Reg::R0, O::Imm(7)),
                g::mov(Reg::R6, O::Imm(9)),
                g::add(Reg::R0, Reg::R0, O::Reg(Reg::R6)),
                g::svc(1),
                g::svc(0),
            ],
        );
        let bad = key::parameterize(&prog.insts()[0]).unwrap().key;
        assert!(rules.lookup(&prog.insts()[0]).is_some(), "the rule matches");
        let block =
            translate_block(&prog, 0x1000, Some(&rules), &TranslateConfig::default()).unwrap();
        assert_eq!(
            block.rule_covered, 2,
            "only the healthy sequence rule covers"
        );
        assert!(block
            .attributions
            .iter()
            .all(|a| a.label.starts_with("seq[")));
        assert!(block.lookup_misses.contains(&bad.to_string()));
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let report = Engine::new(Some(rules), EngineConfig::default())
            .run(&prog, &setup)
            .unwrap();
        let mut cpu = pdbt_isa_arm::Cpu::new();
        pdbt_isa_arm::run(&mut cpu, &prog, 1000).unwrap();
        assert_eq!(report.output, cpu.output);
        assert_eq!(report.output, vec![16]);
    }

    /// An attribution's label and subgroup are the rule set's own
    /// strings — one `Arc` per rule, however often it applies — and read
    /// exactly as they did when every application formatted its own.
    #[test]
    fn attribution_labels_are_shared_per_rule_and_read_as_before() {
        use pdbt_isa_arm::Op;
        let mut rules = load_rules(
            "rule add|s=0|modes=reg,reg,imm|pat=0,0|prov=L|flags=|imms=*\n  addl S0, $I0\nend\n\
             rule sub|s=1|modes=reg,reg,imm|pat=0,0|prov=L|flags=N:E,Z:E,C:I,V:E|imms=*\n  \
             subl S0, $I0\nend\n",
        )
        .expect("well-formed");
        rules.merge(seq_rule_set());
        let prog = pdbt_isa_arm::Program::new(
            0x1000,
            vec![
                g::add(Reg::R0, Reg::R0, O::Imm(7)),
                g::add(Reg::R1, Reg::R1, O::Imm(9)), // the same rule again
                g::mov(Reg::R6, O::Imm(9)),          // seq part 1
                g::add(Reg::R2, Reg::R2, O::Reg(Reg::R6)), // seq part 2
                g::sub(Reg::R3, Reg::R3, O::Imm(1)).with_s(),
                g::b(Cond::Ne, -20),
                g::svc(0),
            ],
        );
        let block =
            translate_block(&prog, 0x1000, Some(&rules), &TranslateConfig::default()).unwrap();
        // The texts, formatted here the way each application used to.
        let key = |i: usize| key::parameterize(&prog.insts()[i]).unwrap().key;
        let (seq, _) = key::parameterize_seq(&prog.insts()[2..4]).unwrap();
        let subgroup = |op: Op| subgroup_of(op).to_string();
        let expected = [
            (key(0).to_string(), subgroup(Op::Add), 1),
            (key(1).to_string(), subgroup(Op::Add), 1),
            (
                format!("seq[{} + {}]", seq[0], seq[1]),
                subgroup(Op::Mov),
                2,
            ),
            (key(4).to_string(), subgroup(Op::Sub), 1),
            ("bne (delegated)".to_string(), subgroup(Op::B), 1),
        ];
        let got: Vec<(String, String, u32)> = block
            .attributions
            .iter()
            .map(|a| (a.label.to_string(), a.subgroup.to_string(), a.covered))
            .collect();
        assert_eq!(got, expected);
        let (first, second) = (&block.attributions[0], &block.attributions[1]);
        assert!(Arc::ptr_eq(&first.label, &second.label));
        assert!(Arc::ptr_eq(&first.subgroup, &second.subgroup));
        let m = rules.lookup(&prog.insts()[0]).expect("the add rule");
        assert!(Arc::ptr_eq(m.label, &first.label), "and they are the set's");
    }

    #[test]
    fn sequence_rules_are_learned_from_merged_candidates() {
        // Force merge-everything debug maps so multi-statement candidates
        // dominate, then check sequence rules appear.
        use pdbt_compiler::lang::*;
        let src = SourceProgram {
            functions: vec![Function {
                name: "m".into(),
                stmts: vec![
                    Stmt::Un {
                        dst: Var(0),
                        op: UnOp::Mov,
                        a: Rvalue::Const(3),
                    },
                    Stmt::Bin {
                        dst: Var(2),
                        op: BinOp::Add,
                        a: Rvalue::Var(Var(2)),
                        b: Rvalue::Var(Var(0)),
                    },
                    Stmt::Bin {
                        dst: Var(3),
                        op: BinOp::Xor,
                        a: Rvalue::Var(Var(3)),
                        b: Rvalue::Const(9),
                    },
                    Stmt::Return,
                ],
                n_vars: 4,
            }],
        };
        let pair = pdbt_compiler::compile_pair(&src, 0x1000).unwrap();
        let accurate = pdbt_compiler::build_debug_map(&pair.guest, &pair.host);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let degraded = pdbt_compiler::degrade(
            &accurate,
            pdbt_compiler::DegradeProfile {
                drop: 0.0,
                merge: 1.0,
                skew: 0.0,
            },
            &mut rng,
        );
        let mut rules = RuleSet::new();
        let stats =
            pdbt_core::learning::learn_into(&mut rules, &pair, &degraded, LearnConfig::default());
        assert!(rules.seq_len() > 0, "sequence rules learned: {stats:?}");
    }
}
