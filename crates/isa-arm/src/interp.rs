//! The guest ISA's instruction semantics, written once.
//!
//! [`step`] is generic over the [`Machine`] it acts on. Instantiated at
//! [`crate::Cpu`] it is the reference interpreter — the ground truth the
//! synthetic compiler's output, the learned rules and every DBT
//! configuration are validated against. Instantiated at the verifier's
//! symbolic state it is the guest half of the equivalence checker. One
//! body, so the two cannot disagree about what an instruction does.

use crate::inst::{Inst, Op};
use crate::operand::{MemAddr, Operand, ShiftKind};
use crate::reg::{FReg, Reg};
use pdbt_isa::{
    BinOp, Concrete, Cond, Control, Domain, ExecError, Flag, Machine, PredOp, UnOp, Width,
};

fn reg_at(inst: &Inst, i: usize) -> Reg {
    inst.operands[i].as_reg().expect("validated")
}

fn freg_at(inst: &Inst, i: usize) -> FReg {
    match inst.operands[i] {
        Operand::FReg(r) => r,
        _ => unreachable!("validated"),
    }
}

/// The flexible second operand at position `i`.
fn op2<M: Machine<Reg = Reg>>(m: &M, inst: &Inst, i: usize) -> M::W {
    match inst.operands[i] {
        Operand::Reg(r) => m.reg(r),
        Operand::Imm(v) => M::D::c(v),
        Operand::Shifted { rm, kind, amount } => {
            M::D::bin(shift_op(kind), m.reg(rm), M::D::c(u32::from(amount)))
        }
        _ => unreachable!("validated"),
    }
}

fn shift_op(kind: ShiftKind) -> BinOp {
    match kind {
        ShiftKind::Lsl => BinOp::Shl,
        ShiftKind::Lsr => BinOp::Shr,
        ShiftKind::Asr => BinOp::Sar,
        ShiftKind::Ror => BinOp::Ror,
    }
}

/// The address of the memory operand at position 1.
fn mem_addr<M: Machine<Reg = Reg>>(m: &M, inst: &Inst) -> M::W {
    match inst.operands[1].as_mem().expect("validated") {
        MemAddr::BaseImm { base, offset } => {
            M::D::bin(BinOp::Add, m.reg(base), M::D::c(offset as u32))
        }
        MemAddr::BaseReg { base, index } => M::D::bin(BinOp::Add, m.reg(base), m.reg(index)),
    }
}

/// Writes a result register; a write to `pc` is a jump.
fn write_result<M: Machine<Reg = Reg>>(m: &mut M, rd: Reg, v: M::W) -> Result<Control, M::Error> {
    if rd.is_pc() {
        return Ok(Control::Jump(m.target(v)?));
    }
    m.set_reg(rd, v);
    Ok(Control::Next)
}

/// Executes one instruction on `m`.
///
/// The caller is responsible for advancing the PC on [`Control::Next`]
/// (`step` never changes `pc` itself; control transfers are reported in
/// the return value).
///
/// # Errors
///
/// A malformed shape or an undefined system call, as the machine's
/// error; whatever the machine's memory raises; whatever it raises when
/// asked to decide a condition or resolve a jump target it cannot.
pub fn step<M: Machine<Reg = Reg, FReg = FReg>>(
    m: &mut M,
    inst: &Inst,
) -> Result<Control, M::Error> {
    use Op::*;
    inst.validate()?;
    if inst.cond != Cond::Al && !m.decide(inst.cond.holds::<M::D>(|f| m.flag(f)))? {
        return Ok(Control::Next);
    }
    match inst.op {
        // ---- data processing: `op rd, rn, op2`, and the compares, which
        // are the flag-setting forms without a destination ---------------
        And | Eor | Sub | Rsb | Add | Adc | Sbc | Rsc | Orr | Bic | Cmp | Cmn | Tst | Teq => {
            let compare = matches!(inst.op, Cmp | Cmn | Tst | Teq);
            let src = usize::from(!compare);
            let (a, b) = (m.reg(reg_at(inst, src)), op2(m, inst, src + 1));
            // The guest's carry after a subtraction is "no borrow", and
            // `sbc`/`rsc` subtract the missing carry.
            let sub = |a, b, c: Option<M::B>| {
                let (r, borrow, v) = M::D::sub_with_borrow(a, b, c.map(M::D::not));
                (r, Some((M::D::not(borrow), v)))
            };
            let add = |a, b, c| {
                let (r, c, v) = M::D::add_with_carry(a, b, c);
                (r, Some((c, v)))
            };
            let (res, cv) = match inst.op {
                Add | Cmn => add(a, b, None),
                Adc => add(a, b, Some(m.flag(Flag::C))),
                Sub | Cmp => sub(a, b, None),
                Sbc => sub(a, b, Some(m.flag(Flag::C))),
                Rsb => sub(b, a, None),
                Rsc => sub(b, a, Some(m.flag(Flag::C))),
                And | Tst => (M::D::bin(BinOp::And, a, b), None),
                Orr => (M::D::bin(BinOp::Or, a, b), None),
                Eor | Teq => (M::D::bin(BinOp::Xor, a, b), None),
                Bic => (M::D::bin(BinOp::And, a, M::D::un(UnOp::Not, b)), None),
                _ => unreachable!(),
            };
            if inst.s || compare {
                m.set_nz(&res);
                if let Some((c, v)) = cv {
                    m.set_flag(Flag::C, c);
                    m.set_flag(Flag::V, v);
                }
            }
            if compare {
                return Ok(Control::Next);
            }
            write_result(m, reg_at(inst, 0), res)
        }
        // ---- shifts: `op rd, rn, op2` with the amount taken modulo 32 ----
        Lsl | Lsr | Asr | Ror => {
            let op = match inst.op {
                Lsl => BinOp::Shl,
                Lsr => BinOp::Shr,
                Asr => BinOp::Sar,
                _ => BinOp::Ror,
            };
            let a = m.reg(reg_at(inst, 1));
            let amount = M::D::bin(BinOp::And, op2(m, inst, 2), M::D::c(31));
            let res = M::D::bin(op, a.clone(), amount.clone());
            if inst.s {
                m.set_nz(&res);
                // C is the last bit shifted out; a zero amount shifts
                // nothing out and leaves C alone. An immediate amount is
                // known here, so its carry needs no test.
                match inst.operands[2] {
                    Operand::Imm(v @ 1..=31) => {
                        let at = M::D::c(Concrete::carry_distance(op, v));
                        m.set_flag(Flag::C, M::D::shift_carry(op, a, at));
                    }
                    _ => {
                        let moved = M::D::pred(PredOp::Ne, amount.clone(), M::D::c(0));
                        let at = M::D::carry_distance(op, amount);
                        m.set_flag_if(&moved, Flag::C, M::D::shift_carry(op, a, at));
                    }
                }
            }
            write_result(m, reg_at(inst, 0), res)
        }
        Mov | Mvn => {
            let mut res = op2(m, inst, 1);
            if inst.op == Mvn {
                res = M::D::un(UnOp::Not, res);
            }
            if inst.s {
                m.set_nz(&res);
            }
            write_result(m, reg_at(inst, 0), res)
        }
        Clz => {
            let res = M::D::un(UnOp::Clz, m.reg(reg_at(inst, 1)));
            write_result(m, reg_at(inst, 0), res)
        }
        // ---- multiply family ----------------------------------------------
        Mul | Mla => {
            let mut res = M::D::bin(BinOp::Mul, m.reg(reg_at(inst, 1)), m.reg(reg_at(inst, 2)));
            if inst.op == Mla {
                res = M::D::bin(BinOp::Add, res, m.reg(reg_at(inst, 3)));
            }
            if inst.s {
                m.set_nz(&res);
            }
            write_result(m, reg_at(inst, 0), res)
        }
        Umull | Umlal => {
            let (rdlo, rdhi) = (reg_at(inst, 0), reg_at(inst, 1));
            // `umlal` reads the pair it accumulates into first.
            let acc = (inst.op == Umlal).then(|| (m.reg(rdlo), m.reg(rdhi)));
            let (a, b) = (m.reg(reg_at(inst, 2)), m.reg(reg_at(inst, 3)));
            let mut lo = M::D::bin(BinOp::Mul, a.clone(), b.clone());
            let mut hi = M::D::bin(BinOp::MulhU, a, b);
            if let Some((acc_lo, acc_hi)) = acc {
                let (sum, carry, _) = M::D::add_with_carry(acc_lo, lo, None);
                lo = sum;
                hi = M::D::bin(BinOp::Add, acc_hi, hi);
                hi = M::D::bin(BinOp::Add, hi, M::D::word(carry));
            }
            m.set_reg(rdlo, lo);
            m.set_reg(rdhi, hi);
            Ok(Control::Next)
        }
        // ---- loads and stores -----------------------------------------------
        Ldr | Ldrb | Ldrh => {
            let width = inst.op.access_width().expect("load has a width");
            let v = m.load(mem_addr(m, inst), width)?;
            write_result(m, reg_at(inst, 0), v)
        }
        Str | Strb | Strh => {
            let width = inst.op.access_width().expect("store has a width");
            m.store(mem_addr(m, inst), m.reg(reg_at(inst, 0)), width)?;
            Ok(Control::Next)
        }
        // ---- stack -----------------------------------------------------------
        Push => {
            let list = inst.reg_list().expect("validated");
            let mut sp = m.reg(Reg::Sp);
            // Read the list in ascending order, then store it in
            // descending address order: highest-numbered register at the
            // highest address.
            let mut values: [Option<M::W>; 16] = Default::default();
            for r in list.iter() {
                values[r.index()] = Some(m.reg(r));
            }
            for v in values.into_iter().rev().flatten() {
                sp = M::D::bin(BinOp::Sub, sp, M::D::c(4));
                m.store(sp.clone(), v, Width::B32)?;
            }
            m.set_reg(Reg::Sp, sp);
            Ok(Control::Next)
        }
        Pop => {
            let mut sp = m.reg(Reg::Sp);
            let mut jump = None;
            for r in inst.reg_list().expect("validated").iter() {
                let v = m.load(sp.clone(), Width::B32)?;
                sp = M::D::bin(BinOp::Add, sp, M::D::c(4));
                if r.is_pc() {
                    jump = Some(v);
                } else {
                    m.set_reg(r, v);
                }
            }
            m.set_reg(Reg::Sp, sp);
            match jump {
                Some(t) => Ok(Control::Jump(m.target(t)?)),
                None => Ok(Control::Next),
            }
        }
        // ---- branches: `pc` reads as this instruction's address plus 8 -------
        B | Bl => {
            let Operand::Target(d) = inst.operands[0] else {
                unreachable!("validated")
            };
            let rel = |off: i32| M::D::c(off.wrapping_sub(8) as u32);
            let at = |off: i32| M::D::bin(BinOp::Add, m.reg(Reg::Pc), rel(off));
            let target = m.target(at(d))?;
            if inst.op == B {
                return Ok(Control::Jump(target));
            }
            let link = at(4);
            m.set_reg(Reg::Lr, link.clone());
            Ok(Control::Call {
                target,
                link: m.target(link)?,
            })
        }
        Bx => Ok(Control::Jump(m.target(m.reg(reg_at(inst, 0)))?)),
        Svc => match inst.operands[0].as_imm().expect("validated") {
            0 => Ok(Control::Halt),
            1 => {
                m.output(m.reg(Reg::R0));
                Ok(Control::Next)
            }
            other => {
                let detail = format!("svc #{other}");
                Err(ExecError::Undefined { detail }.into())
            }
        },
        // ---- floating point, on single-precision bit patterns -----------------
        Vadd | Vsub | Vmul | Vdiv => {
            let op = match inst.op {
                Vadd => BinOp::FAdd,
                Vsub => BinOp::FSub,
                Vmul => BinOp::FMul,
                _ => BinOp::FDiv,
            };
            let res = M::D::bin(op, m.freg(freg_at(inst, 1)), m.freg(freg_at(inst, 2)));
            m.set_freg(freg_at(inst, 0), res);
            Ok(Control::Next)
        }
        Vmov => {
            m.set_freg(freg_at(inst, 0), m.freg(freg_at(inst, 1)));
            Ok(Control::Next)
        }
        Vcmp => {
            // N = less, Z = equal, C = greater-or-equal-or-unordered,
            // V = unordered.
            let (a, b) = (m.freg(freg_at(inst, 0)), m.freg(freg_at(inst, 1)));
            let nan = M::D::unordered(&a, &b);
            m.set_flag(Flag::N, M::D::pred(PredOp::FLt, a.clone(), b.clone()));
            m.set_flag(Flag::Z, M::D::pred(PredOp::FEq, a.clone(), b.clone()));
            let ge = M::D::pred(PredOp::FGe, a, b);
            m.set_flag(Flag::C, M::D::logic(BinOp::Or, nan.clone(), ge));
            m.set_flag(Flag::V, nan);
            Ok(Control::Next)
        }
        Vldr => {
            let v = m.load(mem_addr(m, inst), Width::B32)?;
            m.set_freg(freg_at(inst, 0), v);
            Ok(Control::Next)
        }
        Vstr => {
            m.store(mem_addr(m, inst), m.freg(freg_at(inst, 0)), Width::B32)?;
            Ok(Control::Next)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::*;
    use crate::state::Cpu;
    use pdbt_isa::Cond;

    fn cpu() -> Cpu {
        let mut c = Cpu::new();
        c.mem.map(0x1_0000, 0x1000); // data
        c.mem.map(0x8_0000, 0x1000); // stack
        c.write(Reg::Sp, 0x8_1000);
        c
    }

    #[test]
    fn add_and_flags() {
        let mut c = cpu();
        c.write(Reg::R1, u32::MAX);
        let ctl = step(&mut c, &add(Reg::R0, Reg::R1, Operand::Imm(1)).with_s()).unwrap();
        assert_eq!(ctl, Control::Next);
        assert_eq!(c.read(Reg::R0), 0);
        assert!(c.flags.z && c.flags.c && !c.flags.n && !c.flags.v);
    }

    #[test]
    fn signed_overflow_sets_v() {
        let mut c = cpu();
        c.write(Reg::R1, 0x7fff_ffff);
        step(&mut c, &add(Reg::R0, Reg::R1, Operand::Imm(1)).with_s()).unwrap();
        assert!(c.flags.v && c.flags.n && !c.flags.c);
    }

    #[test]
    fn sub_carry_is_not_borrow() {
        let mut c = cpu();
        c.write(Reg::R1, 5);
        step(&mut c, &sub(Reg::R0, Reg::R1, Operand::Imm(3)).with_s()).unwrap();
        assert_eq!(c.read(Reg::R0), 2);
        assert!(c.flags.c, "5-3 does not borrow → C set (ARM convention)");
        step(&mut c, &sub(Reg::R0, Reg::R1, Operand::Imm(9)).with_s()).unwrap();
        assert!(!c.flags.c, "5-9 borrows → C clear");
        assert!(c.flags.n);
    }

    #[test]
    fn adc_sbc_use_carry() {
        let mut c = cpu();
        c.flags.c = true;
        c.write(Reg::R1, 10);
        step(&mut c, &adc(Reg::R0, Reg::R1, Operand::Imm(5))).unwrap();
        assert_eq!(c.read(Reg::R0), 16);
        // sbc: rn - op2 - (1 - C); with C set it's a plain subtract.
        step(&mut c, &sbc(Reg::R0, Reg::R1, Operand::Imm(5))).unwrap();
        assert_eq!(c.read(Reg::R0), 5);
        c.flags.c = false;
        step(&mut c, &sbc(Reg::R0, Reg::R1, Operand::Imm(5))).unwrap();
        assert_eq!(c.read(Reg::R0), 4);
    }

    #[test]
    fn rsb_reverses() {
        let mut c = cpu();
        c.write(Reg::R1, 3);
        step(&mut c, &rsb(Reg::R0, Reg::R1, Operand::Imm(10))).unwrap();
        assert_eq!(c.read(Reg::R0), 7);
    }

    #[test]
    fn logical_ops() {
        let mut c = cpu();
        c.write(Reg::R1, 0b1100);
        c.write(Reg::R2, 0b1010);
        step(&mut c, &and(Reg::R0, Reg::R1, Operand::Reg(Reg::R2))).unwrap();
        assert_eq!(c.read(Reg::R0), 0b1000);
        step(&mut c, &orr(Reg::R0, Reg::R1, Operand::Reg(Reg::R2))).unwrap();
        assert_eq!(c.read(Reg::R0), 0b1110);
        step(&mut c, &eor(Reg::R0, Reg::R1, Operand::Reg(Reg::R2))).unwrap();
        assert_eq!(c.read(Reg::R0), 0b0110);
        step(&mut c, &bic(Reg::R0, Reg::R1, Operand::Reg(Reg::R2))).unwrap();
        assert_eq!(c.read(Reg::R0), 0b0100);
        step(&mut c, &mvn(Reg::R0, Operand::Imm(0))).unwrap();
        assert_eq!(c.read(Reg::R0), u32::MAX);
    }

    #[test]
    fn shifted_operand() {
        let mut c = cpu();
        c.write(Reg::R1, 1);
        c.write(Reg::R2, 3);
        let op2 = Operand::Shifted {
            rm: Reg::R2,
            kind: ShiftKind::Lsl,
            amount: 2,
        };
        step(&mut c, &add(Reg::R0, Reg::R1, op2)).unwrap();
        assert_eq!(c.read(Reg::R0), 13);
    }

    #[test]
    fn shift_opcodes() {
        let mut c = cpu();
        c.write(Reg::R1, 0x80);
        step(&mut c, &lsr(Reg::R0, Reg::R1, Operand::Imm(4))).unwrap();
        assert_eq!(c.read(Reg::R0), 8);
        c.write(Reg::R2, 2);
        step(&mut c, &lsl(Reg::R0, Reg::R1, Operand::Reg(Reg::R2))).unwrap();
        assert_eq!(c.read(Reg::R0), 0x200);
        c.write(Reg::R1, 0x8000_0000);
        step(&mut c, &asr(Reg::R0, Reg::R1, Operand::Imm(31))).unwrap();
        assert_eq!(c.read(Reg::R0), u32::MAX);
        // Shift with S sets carry from the last bit shifted out.
        c.write(Reg::R1, 0b11);
        step(&mut c, &lsr(Reg::R0, Reg::R1, Operand::Imm(1)).with_s()).unwrap();
        assert!(c.flags.c);
    }

    #[test]
    fn multiply_family() {
        let mut c = cpu();
        c.write(Reg::R1, 7);
        c.write(Reg::R2, 6);
        c.write(Reg::R3, 100);
        step(&mut c, &mul(Reg::R0, Reg::R1, Reg::R2)).unwrap();
        assert_eq!(c.read(Reg::R0), 42);
        step(&mut c, &mla(Reg::R0, Reg::R1, Reg::R2, Reg::R3)).unwrap();
        assert_eq!(c.read(Reg::R0), 142);
        c.write(Reg::R1, 0);
        c.write(Reg::R2, 0);
        c.write(Reg::R4, 0xffff_ffff);
        c.write(Reg::R5, 0x10);
        step(&mut c, &umull(Reg::R1, Reg::R2, Reg::R4, Reg::R5)).unwrap();
        assert_eq!(c.read(Reg::R1), 0xffff_fff0);
        assert_eq!(c.read(Reg::R2), 0xf);
        step(&mut c, &umlal(Reg::R1, Reg::R2, Reg::R4, Reg::R5)).unwrap();
        assert_eq!(c.read(Reg::R1), 0xffff_ffe0);
        assert_eq!(c.read(Reg::R2), 0x1f);
    }

    #[test]
    fn clz_counts() {
        let mut c = cpu();
        c.write(Reg::R1, 0x10);
        step(&mut c, &clz(Reg::R0, Reg::R1)).unwrap();
        assert_eq!(c.read(Reg::R0), 27);
        c.write(Reg::R1, 0);
        step(&mut c, &clz(Reg::R0, Reg::R1)).unwrap();
        assert_eq!(c.read(Reg::R0), 32);
    }

    #[test]
    fn compare_and_conditional() {
        let mut c = cpu();
        c.write(Reg::R0, 3);
        step(&mut c, &cmp(Reg::R0, Operand::Imm(5))).unwrap();
        assert!(Cond::Lt.eval(c.flags) && Cond::Ne.eval(c.flags));
        // Conditional instruction whose predicate fails has no effect.
        c.write(Reg::R1, 111);
        step(&mut c, &mov(Reg::R1, Operand::Imm(0)).with_cond(Cond::Eq)).unwrap();
        assert_eq!(c.read(Reg::R1), 111);
        step(&mut c, &mov(Reg::R1, Operand::Imm(0)).with_cond(Cond::Ne)).unwrap();
        assert_eq!(c.read(Reg::R1), 0);
    }

    #[test]
    fn tst_and_teq() {
        let mut c = cpu();
        c.write(Reg::R0, 0b1010);
        step(&mut c, &tst(Reg::R0, Operand::Imm(0b0101))).unwrap();
        assert!(c.flags.z);
        step(&mut c, &teq(Reg::R0, Operand::Imm(0b1010))).unwrap();
        assert!(c.flags.z);
        step(&mut c, &teq(Reg::R0, Operand::Imm(0b1000))).unwrap();
        assert!(!c.flags.z);
    }

    #[test]
    fn loads_and_stores() {
        let mut c = cpu();
        c.write(Reg::R1, 0x1_0000);
        c.write(Reg::R0, 0xaabb_ccdd);
        step(
            &mut c,
            &str_(
                Reg::R0,
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: 4,
                },
            ),
        )
        .unwrap();
        step(
            &mut c,
            &ldr(
                Reg::R2,
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: 4,
                },
            ),
        )
        .unwrap();
        assert_eq!(c.read(Reg::R2), 0xaabb_ccdd);
        step(
            &mut c,
            &ldrb(
                Reg::R3,
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: 4,
                },
            ),
        )
        .unwrap();
        assert_eq!(c.read(Reg::R3), 0xdd);
        step(
            &mut c,
            &ldrh(
                Reg::R3,
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: 4,
                },
            ),
        )
        .unwrap();
        assert_eq!(c.read(Reg::R3), 0xccdd);
        // Register-offset addressing.
        c.write(Reg::R4, 8);
        step(
            &mut c,
            &str_(
                Reg::R0,
                MemAddr::BaseReg {
                    base: Reg::R1,
                    index: Reg::R4,
                },
            ),
        )
        .unwrap();
        step(
            &mut c,
            &ldr(
                Reg::R5,
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: 8,
                },
            ),
        )
        .unwrap();
        assert_eq!(c.read(Reg::R5), 0xaabb_ccdd);
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut c = cpu();
        c.write(Reg::R4, 44);
        c.write(Reg::R5, 55);
        let sp0 = c.sp();
        step(&mut c, &push([Reg::R4, Reg::R5])).unwrap();
        assert_eq!(c.sp(), sp0 - 8);
        c.write(Reg::R4, 0);
        c.write(Reg::R5, 0);
        step(&mut c, &pop([Reg::R4, Reg::R5])).unwrap();
        assert_eq!((c.read(Reg::R4), c.read(Reg::R5), c.sp()), (44, 55, sp0));
    }

    #[test]
    fn pop_pc_jumps() {
        let mut c = cpu();
        c.write(Reg::R0, 0x4000);
        step(&mut c, &push([Reg::R0])).unwrap();
        let ctl = step(&mut c, &pop([Reg::Pc])).unwrap();
        assert_eq!(ctl, Control::Jump(0x4000));
    }

    #[test]
    fn branches() {
        let mut c = cpu();
        c.set_pc(0x1000);
        assert_eq!(
            step(&mut c, &b(Cond::Al, 16)).unwrap(),
            Control::Jump(0x1010)
        );
        c.flags.z = true;
        assert_eq!(
            step(&mut c, &b(Cond::Eq, -8)).unwrap(),
            Control::Jump(0xff8)
        );
        assert_eq!(step(&mut c, &b(Cond::Ne, -8)).unwrap(), Control::Next);
        let ctl = step(&mut c, &bl(0x100)).unwrap();
        assert_eq!(
            ctl,
            Control::Call {
                target: 0x1100,
                link: 0x1004
            }
        );
        assert_eq!(c.read(Reg::Lr), 0x1004);
        c.write(Reg::R3, 0x2000);
        assert_eq!(step(&mut c, &bx(Reg::R3)).unwrap(), Control::Jump(0x2000));
    }

    #[test]
    fn pc_relative_load_uses_plus_eight() {
        let mut c = cpu();
        c.mem.map(0x1000, 0x100);
        c.mem.store32(0x1010, 0x1234_5678).unwrap();
        c.set_pc(0x1000);
        // ldr r0, [pc, #8] → address = 0x1000 + 8 + 8 = 0x1010.
        step(
            &mut c,
            &ldr(
                Reg::R0,
                MemAddr::BaseImm {
                    base: Reg::Pc,
                    offset: 8,
                },
            ),
        )
        .unwrap();
        assert_eq!(c.read(Reg::R0), 0x1234_5678);
    }

    #[test]
    fn mov_to_pc_is_a_jump() {
        let mut c = cpu();
        c.write(Reg::Lr, 0x3000);
        assert_eq!(
            step(&mut c, &mov(Reg::Pc, Operand::Reg(Reg::Lr))).unwrap(),
            Control::Jump(0x3000)
        );
    }

    #[test]
    fn svc_semantics() {
        let mut c = cpu();
        assert_eq!(step(&mut c, &svc(0)).unwrap(), Control::Halt);
        c.write(Reg::R0, 99);
        step(&mut c, &svc(1)).unwrap();
        assert_eq!(c.output, vec![99]);
        assert!(matches!(
            step(&mut c, &svc(7)),
            Err(ExecError::Undefined { .. })
        ));
    }

    #[test]
    fn float_ops_and_vcmp() {
        let mut c = cpu();
        c.write_f(FReg::new(1), 1.5);
        c.write_f(FReg::new(2), 2.5);
        step(&mut c, &vadd(FReg::new(0), FReg::new(1), FReg::new(2))).unwrap();
        assert_eq!(c.read_f(FReg::new(0)), 4.0);
        step(&mut c, &vdiv(FReg::new(0), FReg::new(2), FReg::new(1))).unwrap();
        assert!((c.read_f(FReg::new(0)) - 5.0 / 3.0).abs() < 1e-6);
        step(&mut c, &vcmp(FReg::new(1), FReg::new(2))).unwrap();
        assert!(c.flags.n && !c.flags.z, "1.5 < 2.5");
        step(&mut c, &vcmp(FReg::new(2), FReg::new(2))).unwrap();
        assert!(c.flags.z && c.flags.c);
    }

    #[test]
    fn vldr_vstr_roundtrip() {
        let mut c = cpu();
        c.write(Reg::R1, 0x1_0000);
        c.write_f(FReg::new(5), 3.25);
        step(
            &mut c,
            &vstr(
                FReg::new(5),
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: 0,
                },
            ),
        )
        .unwrap();
        step(
            &mut c,
            &vldr(
                FReg::new(6),
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: 0,
                },
            ),
        )
        .unwrap();
        assert_eq!(c.read_f(FReg::new(6)), 3.25);
    }

    #[test]
    fn memory_fault_propagates() {
        let mut c = cpu();
        c.write(Reg::R1, 0xdead_0000);
        let r = step(
            &mut c,
            &ldr(
                Reg::R0,
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: 0,
                },
            ),
        );
        assert!(matches!(r, Err(ExecError::MemoryFault { .. })));
    }
}
