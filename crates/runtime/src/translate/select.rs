//! Pass 1, *select*: what the member sequence is, before any host
//! register or flag decision — the members' instructions back to back,
//! and per member its body/terminal split, how it connects to the next
//! member, its conditional branch and that branch's flag producer, the
//! rule probe of every body position, and its terminal lifted.

use super::lower::lift_terminal;
use super::plan::MemberPlan;
use super::{collect_block_into, TranslateError, MAX_BLOCK};
use pdbt_core::key::Scan;
use pdbt_core::{Match, RuleSet};
use pdbt_ir::Lifted;
use pdbt_isa::{Addr, Cond, Effects};
use pdbt_isa_arm::{Inst as GInst, Op as GOp, Program, Reg as GReg, INST_SIZE};
use std::ops::Range;

/// An interior member's conditional side exit: one direction of its
/// terminal branch continues on-trace, the other leaves through a
/// trampoline that syncs state and exits to `off`. (Straight-line
/// transitions — fall-through, unconditional branch, call — need no
/// branch code at all.)
#[derive(Clone, Copy)]
pub(super) struct SideExit {
    pub on_trace_taken: bool,
    pub off: Addr,
}

/// A member's terminal conditional branch.
pub(super) struct BranchSite {
    pub cond: Cond,
    /// Position of the last instruction defining any of the branch's
    /// condition flags (may sit in an earlier member — the cross-block
    /// delegation case).
    pub producer: Option<usize>,
}

/// What the rule lookup records per body position: the scan of the
/// window starting there (as long as the rule set's longest key) and
/// its one-key match. The multi-key lookup and the miss label read the
/// scan.
pub(super) struct Probe<'r> {
    pub scan: Scan,
    pub one: Option<Match<'r>>,
}

/// One guest basic block of the sequence being translated. Positions
/// index the sequence's flat instruction list.
pub(super) struct Member<'r> {
    pub start: Addr,
    /// The member's instructions, its terminal included.
    pub range: Range<usize>,
    /// The final instruction lifted, iff it terminates control flow; a
    /// max-length member has none and falls through.
    pub terminal: Option<Lifted>,
    /// Set on an interior member that ends in a conditional branch.
    pub side: Option<SideExit>,
    pub branch: Option<BranchSite>,
    /// One per body position; empty when no rule set is installed.
    pub probes: Vec<Probe<'r>>,
    /// What the plan pass decides.
    pub plan: MemberPlan,
}

impl Member<'_> {
    /// The positions of the member's body: everything but a terminal.
    pub fn body(&self) -> Range<usize> {
        self.range.start..self.range.end - usize::from(self.terminal.is_some())
    }
}

/// The members' instructions back to back, in execution order.
pub(super) type Insts<'p> = Vec<(Addr, &'p GInst)>;

/// Their effects, stepped once for every pass that asks.
pub(super) type InstEffects = Vec<Effects<GReg>>;

/// How member `m` (ending in `last` at `last_addr`) reaches `next`: its
/// side exit if the way there is one direction of a conditional branch.
fn connect(
    m: usize,
    (last_addr, last): (Addr, &GInst),
    next: Addr,
) -> Result<Option<SideExit>, TranslateError> {
    let fall = last_addr + INST_SIZE;
    let taken = last.direct_target(last_addr);
    let mut side = None;
    let connected = match last.op {
        GOp::B if last.cond == Cond::Al => Some(next) == taken,
        GOp::B => {
            let taken = taken.expect("direct branches carry a target operand");
            side = Some(SideExit {
                on_trace_taken: next == taken,
                off: if next == taken { fall } else { taken },
            });
            next == taken || next == fall
        }
        GOp::Bl => Some(next) == taken,
        // Indirect transfers and halts have no static successor.
        _ if last.is_branch() => false,
        // Max-length member: falls through.
        _ => next == fall,
    };
    if connected {
        Ok(side)
    } else {
        Err(TranslateError {
            detail: format!("trace member {m} does not continue at {next:#x}"),
        })
    }
}

/// Collects the members starting at `starts`, with their instructions'
/// effects, and checks that each continues at the next.
pub(super) fn select<'p, 'r>(
    prog: &'p Program,
    starts: &[Addr],
    rules: Option<&'r RuleSet>,
) -> Result<(Insts<'p>, InstEffects, Vec<Member<'r>>), TranslateError> {
    if starts.is_empty() {
        return Err(TranslateError {
            detail: "nothing to translate: no members".into(),
        });
    }
    let mut insts: Insts<'p> = Vec::with_capacity(8 * starts.len());
    let mut ranges = Vec::with_capacity(starts.len());
    for &start in starts {
        let first = insts.len();
        collect_block_into(prog, start, MAX_BLOCK, &mut insts)?;
        ranges.push(first..insts.len());
    }
    let effects: InstEffects = insts.iter().map(|(_, inst)| inst.effects()).collect();
    let mut members = Vec::with_capacity(starts.len());
    for (m, range) in ranges.into_iter().enumerate() {
        let t = range.end - 1;
        let (last_addr, last) = insts[t];
        let side = match starts.get(m + 1) {
            Some(next) => connect(m, insts[t], *next)?,
            None => None,
        };
        // Conditional branches read exactly their condition's flags; the
        // producer may sit in an earlier member (interior terminals
        // define no flags, so the backward scan crosses them
        // transparently).
        let branch = (last.op == GOp::B && last.cond != Cond::Al).then(|| {
            let uses = effects[t].flag_uses;
            let producer = (0..t).rfind(|&p| effects[p].flag_defs.intersects(uses));
            BranchSite {
                cond: last.cond,
                producer,
            }
        });
        let terminal = (last.is_branch().then(|| lift_terminal(last, last_addr))).transpose()?;
        let mut member = Member {
            start: starts[m],
            range,
            terminal,
            side,
            branch,
            probes: Vec::new(),
            plan: MemberPlan::default(),
        };
        // Each body position's window is scanned once and probed for its
        // one-key rule; the caching heuristic and the segment builder
        // both read the result.
        if let Some(r) = rules {
            let body = &insts[member.body()];
            member.probes = (0..body.len())
                .map(|i| {
                    let scan = Scan::of(body[i..].iter().map(|(_, inst)| *inst), r.max_len());
                    let one = r.lookup_scan(&scan, 1..=1);
                    Probe { scan, one }
                })
                .collect();
        }
        members.push(member);
    }
    Ok((insts, effects, members))
}
