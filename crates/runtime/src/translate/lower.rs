//! The TCG model: what an instruction no rule covers, and every
//! block-ending instruction, lowers to. Guest state lives in the
//! environment on this path, so nothing here sees the block's register
//! map.

use super::TranslateError;
use pdbt_core::flags::can_materialize;
use pdbt_core::key::{parameterize, Parameterized};
use pdbt_core::{emit, template as rtemplate, HostLoc};
use pdbt_ir::{env, lift, lift_omit, lower_branch_cond, lower_ops, IrOp, Lifted, RegMap};
use pdbt_ir::{Terminator, Val};
use pdbt_isa::{Addr, Flag, FlagSet};
use pdbt_isa_arm::{Inst as GInst, Op as GOp};
use pdbt_isa_x86::builders as hb;
use pdbt_isa_x86::{Cc, Inst as HInst, Op as HOp, Operand as HOperand, Reg as HReg};
use pdbt_symexec::FlagEquiv::{self, Exact, Inverted};

/// A guest-flag ↔ host-flag relationship per flag, as the verifier
/// reports it for a rule.
pub(super) type FlagReport = [(Flag, FlagEquiv)];

/// Rewrites env-resident operands of ALU operations through scratch
/// registers — TCG emits reg-reg operations only (guest registers are
/// loaded into temps before use), so the QEMU path may not exploit the
/// host's memory-operand ALU forms the way rule-translated code does.
fn tcg_legalize(code: Vec<HInst>) -> Vec<HInst> {
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

/// Host code for IR operating on the environment.
fn lower_env(ops: &[IrOp]) -> Vec<HInst> {
    tcg_legalize(lower_ops(ops, &RegMap::all_env()))
}

fn lift_error(inst: &GInst, err: impl std::fmt::Display) -> TranslateError {
    TranslateError {
        detail: format!("{inst}: {err}"),
    }
}

/// Host code for the body instruction `inst` through the IR, leaving
/// the `dead` flags it defines unmaterialized.
pub(super) fn lower_inst(
    inst: &GInst,
    addr: Addr,
    dead: FlagSet,
) -> Result<Vec<HInst>, TranslateError> {
    let lifted = lift_omit(inst, addr, dead).map_err(|err| lift_error(inst, err))?;
    Ok(lower_env(&lifted.body))
}

/// The guest-flag ↔ host-flag relationship after lowering a foldable
/// flag producer with its environment materialization omitted: the last
/// flag-setting host instruction is the counterpart ALU op, whose flag
/// semantics relative to the guest's are fixed per opcode class — one
/// entry per flag the class defines (a test holds the tables to
/// `flag_defs`).
fn folded_flag_report(inst: &GInst) -> Option<&'static FlagReport> {
    use Flag::{C, N, V, Z};
    if inst.flag_defs().is_empty() {
        return None;
    }
    Some(match inst.op {
        // Subtraction class: host CF is the borrow, guest C is its
        // inverse.
        GOp::Sub | GOp::Rsb | GOp::Cmp => &[(N, Exact), (Z, Exact), (C, Inverted), (V, Exact)],
        // Addition class: carries agree.
        GOp::Add | GOp::Cmn => &[(N, Exact), (Z, Exact), (C, Exact), (V, Exact)],
        // Logical class: NZ agree (guest leaves C/V, host zeroes them —
        // not reported, so conditions needing them will not fold).
        GOp::And | GOp::Orr | GOp::Eor | GOp::Bic | GOp::Tst | GOp::Teq => {
            &[(N, Exact), (Z, Exact)]
        }
        // Shift class: NZ agree and the shifted-out carry formulas match.
        GOp::Lsl | GOp::Lsr | GOp::Asr | GOp::Ror => &[(N, Exact), (Z, Exact), (C, Exact)],
        _ => return None,
    })
}

/// Host code for a QEMU-path flag producer whose `live` flags a later
/// branch or materialization can recover from the host's: the canonical
/// counterpart code with environment flag materialization omitted
/// (TCG's compare/branch folding), and its flag report.
pub(super) fn fold_producer(
    inst: &GInst,
    live: FlagSet,
) -> Option<(Vec<HInst>, &'static FlagReport)> {
    if live.is_empty() {
        return None;
    }
    let report = folded_flag_report(inst).filter(|r| can_materialize(live, r))?;
    let Parameterized { key, inst } = parameterize(inst)?;
    let template = emit::emit_for(&key)?;
    let locs: Vec<HostLoc> = inst.slots.iter().map(|g| env_loc(*g)).collect();
    let mut code = Vec::new();
    rtemplate::instantiate(&template, &locs, &inst.imms, &mut code).ok()?;
    Some((tcg_legalize(code), report))
}

/// The environment slot of guest register `g`, as a rule slot location.
pub(super) fn env_loc(g: pdbt_isa_arm::Reg) -> HostLoc {
    HostLoc::Mem(env::reg_mem(g))
}

/// Lifts a member's block-ending instruction — once, for everything
/// that reads it: the exit stubs, and [`lower_terminal`] in whichever
/// pass finds it has to run on the environment.
pub(super) fn lift_terminal(inst: &GInst, addr: Addr) -> Result<Lifted, TranslateError> {
    lift(inst, addr).map_err(|err| lift_error(inst, err))
}

/// A terminal's host code on the environment: its guest work
/// (link-register writes, pop loads), then what its exit needs — a
/// conditional branch evaluates its condition from the environment
/// flags and yields the host condition to jump on, an indirect one
/// leaves its target in `eax`.
pub(super) fn lower_terminal(terminal: &Lifted) -> (Vec<HInst>, Option<Cc>) {
    let mut code = lower_env(&terminal.body);
    let mut cc = None;
    match terminal.term {
        Some(Terminator::Br {
            cond: Some((icc, a, b)),
            ..
        }) => {
            let (cmp, hcc) = lower_branch_cond(icc, a, b, &RegMap::all_env());
            code.extend(tcg_legalize(cmp));
            cc = Some(hcc);
        }
        Some(Terminator::BrInd { target }) => {
            let src = match target {
                Val::Reg(g) => HOperand::Mem(env::reg_mem(g)),
                Val::Tmp(t) => HOperand::Mem(env::spill_mem(t.0 as usize)),
                Val::Const(c) => HOperand::Imm(c as i32),
            };
            code.push(hb::mov(HOperand::Reg(HReg::Eax), src));
        }
        _ => {}
    }
    (code, cc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::{Operand as O, Reg};

    /// The folded-report tables carry one entry per flag their class
    /// defines: nothing a consumer could look up is missing, and no entry
    /// stands for a flag the instruction leaves alone.
    #[test]
    fn folded_reports_cover_exactly_the_flags_defined() {
        type Alu = fn(Reg, Reg, O) -> GInst;
        let (r, o) = (Reg::R4, O::Imm(3));
        let alu: [Alu; 11] = [
            g::sub,
            g::rsb,
            g::add,
            g::and,
            g::orr,
            g::eor,
            g::bic,
            g::lsl,
            g::lsr,
            g::asr,
            g::ror,
        ];
        let setters = alu.iter().map(|op| op(r, r, o).with_s());
        let compares = [g::cmp(r, o), g::cmn(r, o), g::tst(r, o), g::teq(r, o)];
        for inst in setters.chain(compares) {
            let report = folded_flag_report(&inst).expect("foldable");
            let flags = report.iter().map(|(f, _)| FlagSet::single(*f));
            let flags = flags.fold(FlagSet::EMPTY, |set, f| set | f);
            assert_eq!(flags, inst.flag_defs(), "{inst}");
        }
        assert!(folded_flag_report(&g::add(r, r, o)).is_none(), "no flags");
        assert!(folded_flag_report(&g::mov(r, o).with_s()).is_none());
    }
}
