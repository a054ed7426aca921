//! Pass 3, *emit*: members in order with register-residency
//! synchronization, side-exit trampolines between them, and the
//! terminal machinery for the final member.
//!
//! The environment is canonical between blocks. Rule-translated
//! segments work on block-cached host registers; TCG segments work on
//! the environment directly. Every residency transition pays data
//! transfer (register loads/stores), which is why low coverage —
//! frequent rule↔emulation mixing — barely beats pure emulation
//! (paper Fig 11: `w/o para.` at 1.04×) while high coverage pays the
//! sync only at block boundaries.

use super::lower::{lower_terminal, FlagReport};
use super::plan::{Path, Plan};
use super::select::Member;
use super::{BlockSuccs, CodeClass, MemberMark, TranslateError, TranslatedBlock};
use pdbt_core::flags::setcc_for_flag;
use pdbt_ir::{env, Terminator};
use pdbt_isa::{Addr, FlagSet};
use pdbt_isa_arm::INST_SIZE;
use pdbt_isa_x86::builders as hb;
use pdbt_isa_x86::{Cc, Inst as HInst, Operand as HOperand, Reg as HReg};

struct Emitter {
    code: Vec<HInst>,
    classes: Vec<CodeClass>,
    /// Whether the block's cached registers currently hold the guest's.
    cached_mode: bool,
    /// The residency syncs (flag-preserving moves): every register the
    /// rule segments touch is loaded; only the ones they write are
    /// stored back (values loaded and unmodified match the environment
    /// already).
    loads: Vec<HInst>,
    stores: Vec<HInst>,
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

    /// Moves the guest registers the block caches to where the next code
    /// expects them: the host registers (`cached`) or the environment.
    fn residency(&mut self, cached: bool) {
        if self.cached_mode != cached {
            let sync = if cached { &self.loads } else { &self.stores };
            self.code.extend_from_slice(sync);
            self.classes
                .resize(self.code.len(), CodeClass::DataTransfer);
            self.cached_mode = cached;
        }
    }

    /// Emits flag materialization from live host flags into the guest
    /// environment, honouring the rule's per-flag relationship.
    fn materialize_flags(
        &mut self,
        flags: FlagSet,
        report: &FlagReport,
    ) -> Result<(), TranslateError> {
        for f in flags.iter() {
            let equiv = report.iter().find(|(ff, _)| *ff == f).map(|(_, eq)| *eq);
            let cc = equiv.and_then(|equiv| setcc_for_flag(f, equiv));
            let cc = cc.ok_or_else(|| TranslateError {
                detail: "phase 1 admitted an unmaterializable producer".into(),
            })?;
            // setcc does not disturb the remaining live flags, so the loop
            // can materialize each flag in turn.
            self.push(hb::setcc(cc, HOperand::Reg(HReg::Eax)), CodeClass::RuleCore);
            let store = hb::mov(HOperand::Mem(env::flag_mem(f)), HOperand::Reg(HReg::Eax));
            self.push(store, CodeClass::RuleCore);
        }
        Ok(())
    }

    /// Appends the block bookkeeping the stubs perform on every exit
    /// (modelling QEMU's icount/pending-work maintenance), then the exit.
    fn exit(&mut self, retired: u32, exit: HInst) {
        let icount = HOperand::Mem(env::mem_icount());
        let retired = HOperand::Imm(retired as i32);
        self.push(hb::add(icount, retired), CodeClass::Control);
        let pending = HOperand::Mem(env::mem_pending());
        self.push(
            hb::mov(HOperand::Reg(HReg::Edx), pending),
            CodeClass::Control,
        );
        self.push(exit, CodeClass::Control);
    }

    /// An interior member's side exit: `jcc` continues on-trace (keeping
    /// the cached registers live), otherwise the trampoline syncs state,
    /// advances icount to exactly the members retired so far, and leaves
    /// through a block exit.
    fn side_exit(&mut self, cc: Cc, off: Addr, retired: u32) {
        let stores = if self.cached_mode {
            self.stores.len()
        } else {
            0
        };
        self.push(hb::jcc(cc, stores as i32 + 3), CodeClass::Control);
        self.code.extend_from_slice(&self.stores[..stores]);
        self.classes
            .resize(self.code.len(), CodeClass::DataTransfer);
        self.exit(retired, hb::jmp_exit(HOperand::Imm(off as i32)));
    }

    /// The final member's exit: its terminal's guest work (link-register
    /// writes, pop loads, condition evaluation) BEFORE the epilogue so
    /// its register effects are stored back, then the exit stubs.
    /// Returns the static successors the stubs can reach.
    fn block_exit(&mut self, member: &Member<'_>, retired: u32) -> BlockSuccs {
        // A delegated branch jumps on live host flags (rule producer,
        // Fig 10, or TCG folding for a QEMU producer) and has no work of
        // its own; any other terminal runs on the environment.
        let mut cc = member.plan.cc;
        if let (Some(terminal), None) = (&member.terminal, cc) {
            self.residency(false);
            let (code, env_cc) = lower_terminal(terminal);
            self.extend(code, CodeClass::QemuCore);
            cc = env_cc;
        }
        // Epilogue: leave the environment canonical.
        self.residency(false);
        let to = |addr: Addr| hb::jmp_exit(HOperand::Imm(addr as i32));
        let fall = member.start + member.range.len() as u32 * INST_SIZE;
        match (member.terminal.as_ref().and_then(|t| t.term.as_ref()), cc) {
            (
                Some(&Terminator::Br {
                    taken, fallthrough, ..
                }),
                Some(cc),
            ) => {
                // jcc over the fall-through side (bookkeeping + exit = 3).
                self.push(hb::jcc(cc, 3), CodeClass::Control);
                self.exit(retired, to(fallthrough));
                self.exit(retired, to(taken));
                let fall = fallthrough;
                BlockSuccs::Two { taken, fall }
            }
            (Some(&Terminator::Br { taken, .. }), None) => {
                self.exit(retired, to(taken));
                BlockSuccs::One(taken)
            }
            (Some(Terminator::BrInd { .. }), _) => {
                self.exit(retired, hb::jmp_exit(HOperand::Reg(HReg::Eax)));
                BlockSuccs::None
            }
            (Some(Terminator::Exit), _) => {
                self.exit(retired, hb::hlt());
                BlockSuccs::None
            }
            (None, _) => {
                self.exit(retired, to(fall));
                BlockSuccs::One(fall)
            }
        }
    }
}

/// Emits the planned sequence as one host block, one [`MemberMark`] per
/// member.
pub(super) fn emit(
    members: &[Member<'_>],
    planned: Plan<'_, '_>,
) -> Result<TranslatedBlock, TranslateError> {
    // The guest registers rule segments touch, and those they write.
    let (mut touched, mut written) = ([false; 16], [false; 16]);
    for seg in &planned.segments {
        if let Path::Rule { .. } = seg.path {
            for fx in &planned.effects[seg.guest.clone()] {
                for g in fx.uses.iter().chain(&fx.defs) {
                    touched[g.index()] = true;
                }
                for g in &fx.defs {
                    written[g.index()] = true;
                }
            }
        }
    }
    let allocated = planned.map.allocated().iter();
    let slot = |g| HOperand::Mem(env::reg_mem(g));
    // Sized for the segments' code plus, per member, a residency sync
    // each way and an exit stub.
    let host_estimate = planned.code.len() + 16 * members.len();
    let mut e = Emitter {
        code: Vec::with_capacity(host_estimate),
        classes: Vec::with_capacity(host_estimate),
        cached_mode: false,
        loads: (allocated.clone().filter(|(g, _)| touched[g.index()]))
            .map(|&(g, h)| hb::mov(HOperand::Reg(h), slot(g)))
            .collect(),
        stores: (allocated.filter(|(g, _)| written[g.index()]))
            .map(|&(g, h)| hb::mov(slot(g), HOperand::Reg(h)))
            .collect(),
    };
    let mut member_marks: Vec<MemberMark> = Vec::with_capacity(members.len());
    let mut rule_covered: u32 = 0;
    let mut retired: u32 = 0;
    let mut succ = BlockSuccs::None;
    for (m, member) in members.iter().enumerate() {
        let anchor = e.code.len();
        retired += member.range.len() as u32;
        let mut member_rc = u32::from(member.plan.branch_covered);
        for seg in &planned.segments[member.plan.segs.clone()] {
            let class = match seg.path {
                Path::Rule { cached } => {
                    e.residency(cached);
                    member_rc += seg.guest.len() as u32;
                    CodeClass::RuleCore
                }
                Path::Qemu => {
                    e.residency(false);
                    CodeClass::QemuCore
                }
            };
            e.extend(planned.code[seg.code.clone()].iter().cloned(), class);
            if !seg.needs_mat.is_empty() {
                let report = seg.report.expect("deferred flags carry a report");
                e.materialize_flags(seg.needs_mat, report)?;
            }
        }
        if m + 1 == members.len() {
            succ = e.block_exit(member, retired);
        } else if let (Some(cc), Some(exit)) = (member.plan.cc, member.side) {
            e.side_exit(cc, exit.off, retired);
        }
        rule_covered += member_rc;
        member_marks.push(MemberMark {
            start: member.start,
            anchor,
            guest_len: member.range.len() as u32,
            rule_covered: member_rc,
            attr_range: (member.plan.attrs.start, member.plan.attrs.end),
            deleg: member.plan.deleg,
        });
    }
    debug_assert_eq!(
        planned.attributions.iter().map(|a| a.covered).sum::<u32>(),
        rule_covered,
        "attribution must decompose coverage exactly"
    );
    Ok(TranslatedBlock {
        start: members[0].start,
        code: e.code,
        classes: e.classes,
        guest_len: retired,
        rule_covered,
        attributions: planned.attributions,
        lookup_misses: planned.lookup_misses,
        deleg: None,
        succ,
        member_marks,
    })
}
