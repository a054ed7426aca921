//! Template emission for derived combos — the constructive form of the
//! paper's parameterization adapters.
//!
//! A derived rule's host code is obtained from the learned corpus by
//! opcode substitution (via each opcode's proved host counterpart),
//! addressing-mode substitution, auxiliary-instruction insertion for
//! complex opcodes (§IV-C1, Fig 7) and for dependence-pattern changes
//! (§IV-C2, Fig 8). This module implements those adapters as one
//! procedure from a combo key to a host template; every emitted template
//! still passes the same symbolic verification as a learned rule, so an
//! emission bug can reject rules but never admit a wrong one.

use crate::classify::{host_counterpart, HostCounterpart};
use crate::key::{ComboKey, ModeTag};
use crate::template::{TImm, TMem, TOperand, TReg, Template, TemplateInst};
use pdbt_isa_arm::{OperandTransform, Shape, ShiftKind};
use pdbt_isa_x86::{Inst as HInst, Op as HOp, Reg as HReg};

const EAX: TReg = TReg::Scratch(0);
const EDX: TReg = TReg::Scratch(1);

fn ti(op: HOp, operands: Vec<TOperand>) -> TemplateInst {
    TemplateInst {
        op,
        cc: None,
        operands,
    }
}

fn shift_hop(kind: ShiftKind) -> HOp {
    match kind {
        ShiftKind::Lsl => HOp::Shl,
        ShiftKind::Lsr => HOp::Shr,
        ShiftKind::Asr => HOp::Sar,
        ShiftKind::Ror => HOp::Ror,
    }
}

/// Positional decode of a key: slots per register position and the
/// flexible-operand description.
struct Decoded<'k> {
    /// Slot of each register mention, in scan order.
    regs: &'k [u8],
    /// The mode of the final (flexible or memory) operand.
    last_mode: ModeTag,
}

fn decode(key: &ComboKey) -> Decoded<'_> {
    Decoded {
        regs: &key.reg_pattern,
        last_mode: *key.modes.last().expect("non-empty modes"),
    }
}

/// The flexible second operand, materialized if necessary.
/// Returns (setup code, final operand, whether `edx` holds it).
fn flex_operand(
    d: &Decoded,
    reg_cursor: usize,
    transform: Option<OperandTransform>,
) -> (Vec<TemplateInst>, TOperand) {
    let mut setup = Vec::new();
    let base: TOperand = match d.last_mode {
        ModeTag::Imm => TOperand::Imm(TImm::Slot(0)),
        ModeTag::Reg => TOperand::Reg(TReg::Slot(d.regs[reg_cursor])),
        ModeTag::Shifted(kind) => {
            setup.push(ti(
                HOp::Mov,
                vec![
                    TOperand::Reg(EDX),
                    TOperand::Reg(TReg::Slot(d.regs[reg_cursor])),
                ],
            ));
            setup.push(ti(
                shift_hop(kind),
                vec![TOperand::Reg(EDX), TOperand::Imm(TImm::Slot(0))],
            ));
            TOperand::Reg(EDX)
        }
        _ => unreachable!("flex operand is imm/reg/shifted"),
    };
    match transform {
        None | Some(OperandTransform::SwapSources) => (setup, base),
        Some(t) => {
            // Invert or negate the operand through edx (paper Fig 7's
            // auxiliary instructions).
            let target = if base == TOperand::Reg(EDX) {
                base
            } else {
                setup.push(ti(HOp::Mov, vec![TOperand::Reg(EDX), base]));
                TOperand::Reg(EDX)
            };
            let aux = match t {
                OperandTransform::InvertLastSource => HOp::Not,
                OperandTransform::NegateLastSource => HOp::Neg,
                OperandTransform::SwapSources => unreachable!(),
            };
            setup.push(ti(aux, vec![target]));
            (setup, target)
        }
    }
}

/// Whether an operand references slot `s`.
fn references(op: &TOperand, s: u8) -> bool {
    matches!(op, TOperand::Reg(TReg::Slot(x)) if *x == s)
}

/// Emits a host template for a combo key through its opcode's host
/// counterpart, or `None` when the opcode has none.
#[must_use]
pub fn emit_for(key: &ComboKey) -> Option<Template> {
    emit_with(key, host_counterpart(key.op)?)
}

/// Whether `hop eax, ecx` writes a register, as its effects say. An
/// opcode that does not take two registers writes none: its template
/// fails validation whichever form it takes.
fn writes_register(hop: HOp) -> bool {
    HInst::new(hop, [HReg::Eax.into(), HReg::Ecx.into()])
        .is_ok_and(|i| !i.effects().defs.is_empty())
}

/// Emits a host template for a combo key through a candidate host
/// counterpart, or `None` when the key's shape is outside the
/// parameterizable universe.
#[must_use]
pub(crate) fn emit_with(key: &ComboKey, counterpart: HostCounterpart) -> Option<Template> {
    let HostCounterpart { hop, transform } = counterpart;
    let d = decode(key);
    let out: Template = match key.op.shape() {
        // ---- three-operand data processing --------------------------------
        Shape::Dp3 => {
            let dst = TReg::Slot(d.regs[0]);
            let x = TOperand::Reg(TReg::Slot(d.regs[1]));
            let (mut code, y) = flex_operand(&d, 2, transform);
            if transform == Some(OperandTransform::SwapSources) {
                // dst = y - x (rsb/rsc): universal via-scratch form.
                code.push(ti(HOp::Mov, vec![TOperand::Reg(EAX), y]));
                code.push(ti(hop, vec![TOperand::Reg(EAX), x]));
                code.push(ti(HOp::Mov, vec![TOperand::Reg(dst), TOperand::Reg(EAX)]));
            } else if d.regs[0] == d.regs[1] {
                // Read-modify-write: op dst, y.
                code.push(ti(hop, vec![TOperand::Reg(dst), y]));
            } else if references(&y, d.regs[0]) {
                // dst aliases the second source: go through eax (the
                // dependence-pattern auxiliary move of Fig 8).
                code.push(ti(HOp::Mov, vec![TOperand::Reg(EAX), x]));
                code.push(ti(hop, vec![TOperand::Reg(EAX), y]));
                code.push(ti(HOp::Mov, vec![TOperand::Reg(dst), TOperand::Reg(EAX)]));
            } else {
                code.push(ti(HOp::Mov, vec![TOperand::Reg(dst), x]));
                code.push(ti(hop, vec![TOperand::Reg(dst), y]));
            }
            code
        }
        // ---- two-operand moves ----------------------------------------------
        Shape::Dp2 => {
            let dst = TReg::Slot(d.regs[0]);
            let (mut code, y) = flex_operand(&d, 1, transform);
            code.push(ti(hop, vec![TOperand::Reg(dst), y]));
            code
        }
        // ---- compares ---------------------------------------------------------
        // `hop x, y` when the host opcode only sets flags, else into eax
        // (cmn is an add whose sum is dropped).
        Shape::Cmp2 => {
            let x = TOperand::Reg(TReg::Slot(d.regs[0]));
            let (mut code, y) = flex_operand(&d, 1, transform);
            if writes_register(hop) {
                code.push(ti(HOp::Mov, vec![TOperand::Reg(EAX), x]));
                code.push(ti(hop, vec![TOperand::Reg(EAX), y]));
            } else {
                code.push(ti(hop, vec![x, y]));
            }
            code
        }
        // ---- loads and stores ---------------------------------------------------
        Shape::LdSt => {
            let rt = TReg::Slot(d.regs[0]);
            let mem = match d.last_mode {
                ModeTag::MemBaseImm => TMem {
                    base: Some(TReg::Slot(d.regs[1])),
                    index: None,
                    disp: TImm::Slot(0),
                },
                ModeTag::MemBaseReg => TMem {
                    base: Some(TReg::Slot(d.regs[1])),
                    index: Some(TReg::Slot(d.regs[2])),
                    disp: TImm::Fixed(0),
                },
                _ => return None,
            };
            if key.op.is_store() {
                vec![ti(hop, vec![TOperand::Mem(mem), TOperand::Reg(rt)])]
            } else {
                vec![ti(hop, vec![TOperand::Reg(rt), TOperand::Mem(mem)])]
            }
        }
        // ---- multiply -----------------------------------------------------------
        Shape::Mul3 => {
            let dst = TReg::Slot(d.regs[0]);
            let (rm, rs) = (TReg::Slot(d.regs[1]), TReg::Slot(d.regs[2]));
            let other = if d.regs[0] == d.regs[1] {
                rs
            } else if d.regs[0] == d.regs[2] {
                rm
            } else {
                return Some(vec![
                    ti(HOp::Mov, vec![TOperand::Reg(dst), TOperand::Reg(rm)]),
                    ti(hop, vec![TOperand::Reg(dst), TOperand::Reg(rs)]),
                ]);
            };
            vec![ti(hop, vec![TOperand::Reg(dst), TOperand::Reg(other)])]
        }
        // Everything else (mul4, clz, branches, stack, float) is outside
        // the parameterizable universe.
        _ => return None,
    };
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::parameterize;
    use crate::ruleset::verify_combo;
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::{MemAddr, Operand as O, Reg};
    use pdbt_symexec::CheckOptions;

    fn emit_and_verify(inst: pdbt_isa_arm::Inst) {
        let p = parameterize(&inst).unwrap_or_else(|| panic!("parameterize {inst}"));
        let t = emit_for(&p.key).unwrap_or_else(|| panic!("emit {inst}"));
        verify_combo(&p.key, &t, CheckOptions::default())
            .unwrap_or_else(|e| panic!("verify {inst}: {e}"));
    }

    #[test]
    fn emits_verified_templates_for_dp_universe() {
        // Every DP opcode × representative modes × dependence patterns.
        let ops: Vec<fn(Reg, Reg, O) -> pdbt_isa_arm::Inst> = vec![
            g::add,
            g::sub,
            g::and,
            g::orr,
            g::eor,
            g::bic,
            g::rsb,
            g::lsl,
            g::lsr,
            g::asr,
            g::ror,
        ];
        for op in ops {
            // RMW / distinct / dst-aliases-src2 patterns, reg and imm modes.
            emit_and_verify(op(Reg::R4, Reg::R4, O::Reg(Reg::R5)));
            emit_and_verify(op(Reg::R4, Reg::R5, O::Reg(Reg::R6)));
            emit_and_verify(op(Reg::R4, Reg::R5, O::Reg(Reg::R4)));
            emit_and_verify(op(Reg::R4, Reg::R4, O::Imm(9)));
            emit_and_verify(op(Reg::R4, Reg::R5, O::Imm(9)));
            // Shifted-register mode.
            emit_and_verify(op(
                Reg::R4,
                Reg::R5,
                O::Shifted {
                    rm: Reg::R6,
                    kind: ShiftKind::Lsl,
                    amount: 3,
                },
            ));
        }
    }

    #[test]
    fn emits_verified_s_variants() {
        emit_and_verify(g::add(Reg::R4, Reg::R4, O::Imm(1)).with_s());
        emit_and_verify(g::sub(Reg::R4, Reg::R5, O::Reg(Reg::R6)).with_s());
        emit_and_verify(g::eor(Reg::R4, Reg::R4, O::Reg(Reg::R5)).with_s());
        emit_and_verify(g::and(Reg::R4, Reg::R5, O::Imm(0xff)).with_s());
        emit_and_verify(g::rsb(Reg::R4, Reg::R5, O::Imm(0)).with_s());
    }

    #[test]
    fn emits_verified_mov_and_mvn() {
        emit_and_verify(g::mov(Reg::R4, O::Imm(7)));
        emit_and_verify(g::mov(Reg::R4, O::Reg(Reg::R5)));
        emit_and_verify(g::mvn(Reg::R4, O::Imm(7)));
        emit_and_verify(g::mvn(Reg::R4, O::Reg(Reg::R5)));
        emit_and_verify(g::mvn(Reg::R4, O::Reg(Reg::R4)));
        emit_and_verify(g::mov(
            Reg::R4,
            O::Shifted {
                rm: Reg::R5,
                kind: ShiftKind::Lsr,
                amount: 4,
            },
        ));
    }

    #[test]
    fn emits_verified_compares() {
        emit_and_verify(g::cmp(Reg::R4, O::Imm(100)));
        emit_and_verify(g::cmp(Reg::R4, O::Reg(Reg::R5)));
        emit_and_verify(g::cmn(Reg::R4, O::Reg(Reg::R5)));
        emit_and_verify(g::tst(Reg::R4, O::Imm(1)));
        emit_and_verify(g::teq(Reg::R4, O::Reg(Reg::R5)));
    }

    #[test]
    fn emits_verified_loads_and_stores() {
        emit_and_verify(g::ldr(
            Reg::R4,
            MemAddr::BaseImm {
                base: Reg::R5,
                offset: 8,
            },
        ));
        emit_and_verify(g::ldr(
            Reg::R4,
            MemAddr::BaseReg {
                base: Reg::R5,
                index: Reg::R6,
            },
        ));
        emit_and_verify(g::ldrb(
            Reg::R4,
            MemAddr::BaseImm {
                base: Reg::R5,
                offset: 0,
            },
        ));
        emit_and_verify(g::ldrh(
            Reg::R4,
            MemAddr::BaseImm {
                base: Reg::R5,
                offset: 2,
            },
        ));
        emit_and_verify(g::str_(
            Reg::R4,
            MemAddr::BaseImm {
                base: Reg::R5,
                offset: 8,
            },
        ));
        emit_and_verify(g::str_(
            Reg::R4,
            MemAddr::BaseReg {
                base: Reg::R5,
                index: Reg::R6,
            },
        ));
        emit_and_verify(g::strb(
            Reg::R4,
            MemAddr::BaseImm {
                base: Reg::R5,
                offset: 0,
            },
        ));
        emit_and_verify(g::strh(
            Reg::R4,
            MemAddr::BaseImm {
                base: Reg::R5,
                offset: 2,
            },
        ));
        // Load with rt == base.
        emit_and_verify(g::ldr(
            Reg::R4,
            MemAddr::BaseImm {
                base: Reg::R4,
                offset: 4,
            },
        ));
    }

    #[test]
    fn emits_verified_mul_patterns() {
        emit_and_verify(g::mul(Reg::R4, Reg::R4, Reg::R5));
        emit_and_verify(g::mul(Reg::R4, Reg::R5, Reg::R4));
        emit_and_verify(g::mul(Reg::R4, Reg::R5, Reg::R6));
        emit_and_verify(g::mul(Reg::R4, Reg::R5, Reg::R5));
    }

    #[test]
    fn unparameterizable_shapes_return_none() {
        let p = parameterize(&g::mla(Reg::R4, Reg::R5, Reg::R6, Reg::R7)).unwrap();
        assert!(emit_for(&p.key).is_none(), "mla has no host counterpart");
        let p = parameterize(&g::clz(Reg::R4, Reg::R5)).unwrap();
        assert!(emit_for(&p.key).is_none(), "clz has no host counterpart");
        let p = parameterize(&g::umull(Reg::R4, Reg::R5, Reg::R6, Reg::R7)).unwrap();
        assert!(emit_for(&p.key).is_none());
    }

    #[test]
    fn adc_family_has_no_counterpart() {
        // adc needs the host CF to equal the guest C at entry, which no
        // rule can guarantee: no candidate verifies, so it falls back to
        // the QEMU path.
        let p = parameterize(&g::adc(Reg::R4, Reg::R4, O::Imm(1))).unwrap();
        assert!(emit_for(&p.key).is_none());
    }
}
