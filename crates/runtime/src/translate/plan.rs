//! Pass 2, *plan*: the decisions that need the whole sequence — which
//! guest registers the block caches, which flags are live where, and,
//! member by member in order, the host code of every guest instruction
//! and whether each conditional branch can jump on its producer's host
//! flags. Rules are instantiated here, not at emission: a branch's
//! decision reads exactly the on-trace host code between its producer
//! and itself (including earlier members' transition segments).
//! Materialization of live flags is deferred to emission so that the
//! decision can choose between consuming the producer's host flags
//! directly (delegation / TCG compare-branch folding) and storing them
//! into the environment.

use super::lower::{self, FlagReport};
use super::select::{BranchSite, InstEffects, Insts, Member, SideExit};
use super::{DelegOutcome, RuleAttribution, TranslateConfig, TranslateError};
use pdbt_core::classify::subgroup_of;
use pdbt_core::flags::{can_materialize, delegated_cc};
use pdbt_core::{template as rtemplate, HostLoc, Match, RuleSet};
use pdbt_ir::{env, RegMap};
use pdbt_isa::{Cond, Effects, FlagSet, InlineVec};
use pdbt_isa_arm::{Op as GOp, Program, Reg as GReg, INST_SIZE};
use pdbt_isa_x86::{Cc, Inst as HInst};
use pdbt_symexec::FlagEquiv;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Which translation path produced a segment: a rule works on the
/// block's cached registers (when it caches any), the TCG model on the
/// in-environment state — the register-residency split whose
/// synchronization cost makes low coverage expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Path {
    Rule { cached: bool },
    Qemu,
}

/// The host code of one guest instruction, one sequence-rule
/// application, or one interior terminal's guest work.
pub(super) struct Segment<'r> {
    /// The guest positions it stands for (and, on the rule path, covers).
    pub guest: Range<usize>,
    /// Its host code, as a range of [`Plan::code`].
    pub code: Range<usize>,
    pub path: Path,
    /// Host-flag relationship at the segment's end, when its flag
    /// materialization was deferred: the rule's, or the folded
    /// producer's table.
    pub report: Option<&'r FlagReport>,
    /// The deferred flags emission still has to store.
    pub needs_mat: FlagSet,
    /// Flags an off-trace exit of a branch delegated to this segment may
    /// leave unread: they must reach the environment even if a later
    /// consumer would let them die.
    protected: FlagSet,
}

/// What the plan decides per member.
#[derive(Default)]
pub(super) struct MemberPlan {
    /// The member's half-open ranges in [`Plan::segments`] and
    /// [`Plan::attributions`].
    pub segs: Range<usize>,
    pub attrs: Range<usize>,
    /// Flag handling of the member's conditional branch, for the
    /// window-depth histogram: it either delegated (depth = producer
    /// distance) or read environment-materialized flags.
    pub deleg: Option<DelegOutcome>,
    /// Whether that branch counts as rule-covered.
    pub branch_covered: bool,
    /// The host condition the branch jumps on: for a side exit the one
    /// that stays on-trace, for the final member's branch the delegated
    /// one (`None`: evaluate the guest condition from the environment).
    pub cc: Option<Cc>,
}

/// The plan of a sequence: what the pass works from and, public, what
/// emission reads beside the members' [`MemberPlan`]s.
pub(super) struct Plan<'a, 'r> {
    pub insts: &'a Insts<'a>,
    pub effects: &'a InstEffects,
    live_after: Vec<FlagSet>,
    rules: Option<&'r RuleSet>,
    cfg: &'a TranslateConfig,
    /// Register caching only pays off when enough of the sequence is
    /// rule-translated to amortize the residency synchronization; short
    /// or sparsely covered blocks instantiate rules directly on the
    /// environment slots.
    use_cache: bool,
    /// Scratch: the host locations of the rule being instantiated.
    locs: Vec<HostLoc>,
    /// Every segment's host code, back to back in segment order: rules
    /// instantiate straight into it, and emission copies each segment
    /// out between the residency syncs.
    pub code: Vec<HInst>,
    pub segments: Vec<Segment<'r>>,
    pub map: RegMap,
    pub attributions: Vec<RuleAttribution>,
    pub lookup_misses: Vec<String>,
}

/// Guest registers in most-frequent-first order across the sequence's
/// register effects, ties broken by first appearance. Counting goes
/// through a fixed array indexed by [`GReg::index`] so the scan is
/// O(operands), not O(operands × distinct regs).
fn reg_frequency_order(effects: &[Effects<GReg>]) -> InlineVec<GReg, 16> {
    let mut counts = [0usize; 16];
    let mut order = InlineVec::new();
    for fx in effects {
        for &r in fx.uses.iter().chain(&fx.defs) {
            if counts[r.index()] == 0 {
                order.push(r);
            }
            counts[r.index()] += 1;
        }
    }
    // Stable: ties keep first-appearance order (register allocation —
    // and so emitted host code — depends on it).
    order.sort_by_key(|r| std::cmp::Reverse(counts[r.index()]));
    order
}

/// The flags live after each position, solved backwards over the whole
/// sequence from the flags live into the final member's successors
/// (cross-block liveness): interior conditional branches join their
/// off-trace side's live-ins, so a producer's flags stay live exactly as
/// long as any on- or off-trace consumer can still read them.
fn live_after(
    prog: &Program,
    insts: &Insts<'_>,
    effects: &[Effects<GReg>],
    members: &[Member<'_>],
) -> Vec<FlagSet> {
    let mut out = vec![FlagSet::EMPTY; insts.len()];
    let (last_addr, _) = *insts.last().expect("non-empty block");
    let mut live = prog.flag_live_out_at(last_addr);
    for (m, member) in members.iter().enumerate().rev() {
        for t in member.range.clone().rev() {
            let (addr, inst) = insts[t];
            if m + 1 < members.len() && t + 1 == member.range.end {
                // Interior terminal: join what the off-trace side reads
                // (a call's return continuation is off-trace).
                if let Some(exit) = member.side {
                    live |= prog.flag_live_in_at(exit.off);
                } else if inst.op == GOp::Bl {
                    live |= prog.flag_live_in_at(addr + INST_SIZE);
                }
            }
            out[t] = live;
            live = (live - effects[t].flag_defs) | effects[t].flag_uses;
        }
    }
    out
}

/// Whether a rule whose host code leaves `report` may produce the live
/// guest flags `live`. With delegation the flags must be recoverable
/// from the host flags (directly for a delegated branch, or via setcc
/// materialization); without it rules apply to live-flag producers
/// only when the relationship is exact — modelling the baseline's
/// flag-inclusive rules.
fn rule_flags_ok(live: FlagSet, report: &FlagReport, cfg: &TranslateConfig) -> bool {
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

/// The attribution of a delegated `b<cond>`. A delegated branch is
/// covered by no rule of its own, so no rule set owns its label; there
/// are fifteen of them, formatted once per process and shared like a
/// rule's.
fn delegated_attribution(cond: Cond) -> RuleAttribution {
    static ALL: OnceLock<Vec<RuleAttribution>> = OnceLock::new();
    let all = ALL.get_or_init(|| {
        let subgroup: Arc<str> = subgroup_of(GOp::B).to_string().into();
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

/// A delegated branch: the host condition, whether the branch counts as
/// rule-covered, and the producer's look-ahead distance.
struct Delegation {
    cc: Cc,
    covered: bool,
    depth: u32,
}

impl<'r> Plan<'_, 'r> {
    /// Records the host code from `start` on as the segment of `guest`,
    /// deferring the materialization of `live` flags, which `report`
    /// relates to the host's.
    fn push_segment(
        &mut self,
        guest: Range<usize>,
        start: usize,
        path: Path,
        report: Option<&'r FlagReport>,
        live: FlagSet,
    ) {
        self.segments.push(Segment {
            guest,
            code: start..self.code.len(),
            path,
            report,
            needs_mat: live,
            protected: FlagSet::EMPTY,
        });
    }

    /// Appends `code` as the QEMU-path segment of `guest`.
    fn push_qemu_segment(
        &mut self,
        guest: Range<usize>,
        code: Vec<HInst>,
        deferred: Option<(&'r FlagReport, FlagSet)>,
    ) {
        let start = self.code.len();
        self.code.extend(code);
        let (report, live) = deferred.unzip();
        self.push_segment(guest, start, Path::Qemu, report, live.unwrap_or_default());
    }

    /// Instantiates match `m` at position `i` if the flag policy and the
    /// host instruction shapes allow: no instruction before its last may
    /// define live flags or produce a branch's, and the last one's live
    /// flags must be recoverable from the rule's host flags. Yields where
    /// its code starts and the flags whose materialization it defers.
    fn try_rule(
        &mut self,
        members: &[Member<'r>],
        m: &Match<'r>,
        i: usize,
    ) -> Option<(usize, FlagSet)> {
        let live_defs_at = |j: usize| self.effects[j].flag_defs & self.live_after[j];
        let produces = |j: usize| {
            let feeds = |bs: &BranchSite| bs.producer == Some(j);
            members
                .iter()
                .any(|mm| mm.branch.as_ref().is_some_and(feeds))
        };
        let last = i + m.keys.len() - 1;
        if !(i..last).all(|j| live_defs_at(j).is_empty() && !produces(j)) {
            return None;
        }
        let live = live_defs_at(last);
        if !(live.is_empty() || rule_flags_ok(live, &m.entry.flags, self.cfg)) {
            return None;
        }
        // The block's cached registers, or the environment slots
        // directly when the block does not cache.
        self.locs.clear();
        self.locs
            .extend(m.inst.slots.iter().map(|g| match self.map.loc(*g) {
                env::Loc::Host(h) if self.use_cache => HostLoc::Reg(h),
                _ => lower::env_loc(*g),
            }));
        let start = self.code.len();
        let (template, imms) = (&m.entry.template, &m.inst.imms);
        rtemplate::instantiate(template, &self.locs, imms, &mut self.code).ok()?;
        Some((start, live))
    }

    /// Generates the host segments of `member`'s body instructions.
    fn body_segments(
        &mut self,
        members: &[Member<'r>],
        member: &Member<'r>,
    ) -> Result<(), TranslateError> {
        let body = member.body();
        let mut i = body.start;
        while i < body.end {
            let (addr, inst) = self.insts[i];
            let probe = member.probes.get(i - body.start);
            // --- rule path ---
            // The longest multi-key match (learned sequences, §V-D), then
            // the one-key match; a candidate the flag policy or the host
            // instruction shapes reject is skipped, never fatal. Shorter
            // sequences are not retried: a window is one rule's or none's.
            if let (Some(rules), Some(probe)) = (self.rules, probe) {
                let multi = rules.lookup_scan(&probe.scan, 2..=usize::MAX);
                let applied = multi
                    .iter()
                    .chain(&probe.one)
                    .find_map(|m| Some((m, self.try_rule(members, m, i)?)));
                if let Some((m, (start, live))) = applied {
                    // Its coverage is attributed to the rule's key.
                    let guest = i..i + m.keys.len();
                    self.attributions.push(RuleAttribution {
                        label: Arc::clone(m.label),
                        subgroup: Arc::clone(m.subgroup),
                        covered: guest.len() as u32,
                    });
                    let path = Path::Rule {
                        cached: self.use_cache,
                    };
                    let report = (!live.is_empty()).then_some(&m.entry.flags[..]);
                    self.push_segment(guest.clone(), start, path, report, live);
                    i = guest.end;
                    continue;
                }
                self.lookup_misses.push(match probe.scan.first() {
                    Some(key) => key.to_string(),
                    None => inst.op.to_string(),
                });
            }
            // --- QEMU path ---
            // TCG-style flag handling: dead flags are never materialized,
            // and a producer whose live flags are recoverable from the host
            // ALU flags defers materialization (compare/branch folding).
            let defs = self.effects[i].flag_defs;
            let live_defs = defs & self.live_after[i];
            match lower::fold_producer(inst, live_defs) {
                Some((code, report)) => {
                    self.push_qemu_segment(i..i + 1, code, Some((report, live_defs)));
                }
                None => {
                    let dead = defs - live_defs;
                    let code = lower::lower_inst(inst, addr, dead)?;
                    self.push_qemu_segment(i..i + 1, code, None);
                }
            }
            i += 1;
        }
        Ok(())
    }

    /// Decides condition-flag delegation for the branch `bs` at position
    /// `t`, adjusting the producer segment's deferred materialization
    /// set on success. `off_live` is the off-trace exit's live-in set
    /// (the flags live after `t` already join it), retained for *later*
    /// branches sharing this producer.
    fn decide_delegation(
        &mut self,
        bs: &BranchSite,
        t: usize,
        off_live: FlagSet,
    ) -> Option<Delegation> {
        let p = bs.producer?;
        if t - p > self.cfg.window {
            return None;
        }
        // The segment holding the producer (sequence rules cover several
        // guest instructions); delegation additionally requires the
        // producer to be the segment's *last* flag definer, which the
        // sequence application policy guarantees.
        let seg = self.segments.iter_mut().rfind(|s| s.guest.contains(&p))?;
        let cc = delegated_cc(bs.cond, seg.report?)?;
        // The host flags must survive every later segment on the on-trace
        // path (the paper's "killed within the window" check; residency
        // syncs and materialization code are flag-preserving moves).
        let clean = self.code[seg.code.end..]
            .iter()
            .all(|h| h.effects().flag_defs.is_empty());
        if !clean {
            return None;
        }
        // Flags the branch consumes can skip the environment — unless a
        // successor, an earlier side exit, or another consumer reads them.
        let skip = self.effects[t].flag_uses - (self.live_after[t] | seg.protected);
        seg.needs_mat = seg.needs_mat - skip;
        seg.protected |= off_live;
        Some(Delegation {
            cc,
            covered: matches!(seg.path, Path::Rule { .. }) && self.cfg.flag_delegation,
            depth: (t - p) as u32,
        })
    }

    /// Plans `member`: its body's segments, then its terminal — a
    /// conditional branch's delegation decision, or an interior
    /// terminal's guest work as a transition segment.
    fn member(
        &mut self,
        prog: &Program,
        members: &[Member<'r>],
        m: usize,
    ) -> Result<MemberPlan, TranslateError> {
        let member = &members[m];
        let interior = m + 1 < members.len();
        let (seg_b, attr_b) = (self.segments.len(), self.attributions.len());
        self.body_segments(members, member)?;
        let mut plan = MemberPlan::default();
        let t = member.range.end - 1;
        let on_trace = |cc: Cc, exit: SideExit| if exit.on_trace_taken { cc } else { cc.invert() };
        match (&member.branch, &member.terminal) {
            (Some(bs), Some(terminal)) => {
                let off_live = member
                    .side
                    .map_or(FlagSet::EMPTY, |exit| prog.flag_live_in_at(exit.off));
                let decided = self.decide_delegation(bs, t, off_live);
                plan.deleg = Some(match &decided {
                    Some(d) => DelegOutcome::Delegated(d.depth),
                    None => DelegOutcome::EnvFallback,
                });
                if decided.as_ref().is_some_and(|d| d.covered) {
                    plan.branch_covered = true;
                    self.attributions.push(delegated_attribution(bs.cond));
                }
                plan.cc = match (decided, member.side) {
                    (Some(d), Some(exit)) => Some(on_trace(d.cc, exit)),
                    (Some(d), None) => Some(d.cc),
                    (None, Some(exit)) => {
                        // Evaluate the guest condition from the
                        // environment flags in a transition segment.
                        let (code, hcc) = lower::lower_terminal(terminal);
                        let hcc = hcc.ok_or_else(|| TranslateError {
                            detail: format!(
                                "{}: expected a conditional terminator",
                                self.insts[t].1
                            ),
                        })?;
                        self.push_qemu_segment(t..t + 1, code, None);
                        Some(on_trace(hcc, exit))
                    }
                    (None, None) => None,
                };
            }
            (None, Some(terminal)) if interior => {
                // Unconditional b/bl: its guest work (link-register
                // writes) is a transition segment; a plain `b` has none
                // and the trace flows seamlessly through it.
                let (code, _) = lower::lower_terminal(terminal);
                if !code.is_empty() {
                    self.push_qemu_segment(t..t + 1, code, None);
                }
            }
            _ => {}
        }
        plan.segs = seg_b..self.segments.len();
        plan.attrs = attr_b..self.attributions.len();
        Ok(plan)
    }
}

/// Plans the whole sequence, writing each member's [`MemberPlan`].
pub(super) fn plan<'a, 'r>(
    prog: &Program,
    insts: &'a Insts<'a>,
    effects: &'a InstEffects,
    members: &mut [Member<'r>],
    rules: Option<&'r RuleSet>,
    cfg: &'a TranslateConfig,
) -> Result<Plan<'a, 'r>, TranslateError> {
    // One-key matches are what is counted: the threshold decides
    // register residency, and so host code.
    let probes = members.iter().flat_map(|m| &m.probes);
    let use_cache = probes.filter(|p| p.one.is_some()).count() >= 3;
    // The buffers are sized once: a guest instruction is a segment of a
    // host instruction or two.
    let n = insts.len();
    let mut plan = Plan {
        insts,
        effects,
        live_after: live_after(prog, insts, effects, members),
        rules,
        cfg,
        use_cache,
        locs: Vec::new(),
        code: Vec::with_capacity(2 * n),
        segments: Vec::with_capacity(n),
        // Register-frequency allocation over the whole sequence.
        map: RegMap::allocate(&reg_frequency_order(effects)),
        attributions: Vec::with_capacity(n),
        lookup_misses: Vec::new(),
    };
    for m in 0..members.len() {
        members[m].plan = plan.member(prog, members, m)?;
    }
    Ok(plan)
}
