//! Ergonomic constructors for host instructions (panic on shape
//! violations; use [`Inst::new`] for fallible construction).

use crate::inst::{Inst, Op};
use crate::operand::{Cc, Operand};
#[cfg(test)]
use crate::reg::Reg;
use crate::reg::Xmm;

fn build(op: Op, operands: impl IntoIterator<Item = Operand>) -> Inst {
    Inst::new(op, operands).expect("builder produced a malformed instruction")
}

macro_rules! two_op {
    ($(#[$doc:meta] $name:ident => $op:ident),* $(,)?) => {
        $(
            #[$doc]
            #[must_use]
            pub fn $name(dst: Operand, src: Operand) -> Inst {
                build(Op::$op, [dst, src])
            }
        )*
    };
}

two_op! {
    /// `movl dst, src`
    mov => Mov,
    /// `addl dst, src`
    add => Add,
    /// `adcl dst, src`
    adc => Adc,
    /// `subl dst, src`
    sub => Sub,
    /// `sbbl dst, src`
    sbb => Sbb,
    /// `andl dst, src`
    and => And,
    /// `orl dst, src`
    or => Or,
    /// `xorl dst, src`
    xor => Xor,
    /// `imull dst, src`
    imul => Imul,
    /// `shll dst, src`
    shl => Shl,
    /// `shrl dst, src`
    shr => Shr,
    /// `sarl dst, src`
    sar => Sar,
    /// `rorl dst, src`
    ror => Ror,
    /// `cmpl a, b`
    cmp => Cmp,
    /// `testl a, b`
    test => Test,
    /// `movb [mem], reg` — narrow byte store
    movb => MovB,
    /// `movw [mem], reg` — narrow halfword store
    movw => MovW,
    /// `movzbl reg, [mem]` — zero-extending byte load
    movzxb => MovzxB,
    /// `movzwl reg, [mem]` — zero-extending halfword load
    movzxw => MovzxW,
    /// `leal reg, [mem]`
    lea => Lea,
    /// `bsrl reg, r/m`
    bsr => Bsr,
}

/// `notl dst`
#[must_use]
pub fn not(dst: Operand) -> Inst {
    build(Op::Not, [dst])
}

/// `negl dst`
#[must_use]
pub fn neg(dst: Operand) -> Inst {
    build(Op::Neg, [dst])
}

/// `mull src` — `edx:eax = eax * src`
#[must_use]
pub fn mul_wide(src: Operand) -> Inst {
    build(Op::MulWide, [src])
}

/// `pushl src`
#[must_use]
pub fn push(src: Operand) -> Inst {
    build(Op::Push, [src])
}

/// `popl dst`
#[must_use]
pub fn pop(dst: Operand) -> Inst {
    build(Op::Pop, [dst])
}

/// `jmp .+d` — relative jump by `d` instructions.
#[must_use]
pub fn jmp_rel(d: i32) -> Inst {
    build(Op::Jmp, [Operand::Target(d)])
}

/// `jmp r/m/imm` — block exit; the operand value is the next guest PC.
#[must_use]
pub fn jmp_exit(target: Operand) -> Inst {
    build(Op::Jmp, [target])
}

/// `j<cc> .+d`
#[must_use]
pub fn jcc(cc: Cc, d: i32) -> Inst {
    Inst::new_cc(Op::Jcc, cc, [Operand::Target(d)]).expect("valid jcc")
}

/// `set<cc> dst` — dst := 0/1.
#[must_use]
pub fn setcc(cc: Cc, dst: Operand) -> Inst {
    Inst::new_cc(Op::Setcc, cc, [dst]).expect("valid setcc")
}

/// `ret`
#[must_use]
pub fn ret() -> Inst {
    build(Op::Ret, [])
}

/// `call <target>`
#[must_use]
pub fn call(target: Operand) -> Inst {
    build(Op::Call, [target])
}

/// `out` — emit `eax` to the output stream.
#[must_use]
pub fn out() -> Inst {
    build(Op::Out, [])
}

/// `hlt` — stop execution.
#[must_use]
pub fn hlt() -> Inst {
    build(Op::Hlt, [])
}

/// `movss dst, src`
#[must_use]
pub fn movss(dst: Operand, src: Operand) -> Inst {
    build(Op::Movss, [dst, src])
}

/// `addss xmm, src`
#[must_use]
pub fn addss(dst: Xmm, src: Operand) -> Inst {
    build(Op::Addss, [Operand::Xmm(dst), src])
}

/// `subss xmm, src`
#[must_use]
pub fn subss(dst: Xmm, src: Operand) -> Inst {
    build(Op::Subss, [Operand::Xmm(dst), src])
}

/// `mulss xmm, src`
#[must_use]
pub fn mulss(dst: Xmm, src: Operand) -> Inst {
    build(Op::Mulss, [Operand::Xmm(dst), src])
}

/// `divss xmm, src`
#[must_use]
pub fn divss(dst: Xmm, src: Operand) -> Inst {
    build(Op::Divss, [Operand::Xmm(dst), src])
}

/// `ucomiss xmm, src`
#[must_use]
pub fn ucomiss(a: Xmm, b: Operand) -> Inst {
    build(Op::Ucomiss, [Operand::Xmm(a), b])
}

impl From<Xmm> for Operand {
    fn from(x: Xmm) -> Operand {
        Operand::Xmm(x)
    }
}

// Re-export Reg for the common `Reg::Eax.into()` pattern in tests.
pub use crate::reg::Reg as HostReg;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::Mem;

    #[test]
    fn builders_validate() {
        let insts = vec![
            mov(Reg::Eax.into(), Operand::Imm(1)),
            add(Reg::Eax.into(), Mem::base(Reg::Ebp).into()),
            not(Reg::Ecx.into()),
            neg(Mem::base_disp(Reg::Ebp, 4).into()),
            mul_wide(Reg::Ebx.into()),
            push(Operand::Imm(3)),
            pop(Reg::Edx.into()),
            jmp_rel(3),
            jmp_exit(Operand::Imm(0x1000)),
            jcc(Cc::E, -2),
            setcc(Cc::L, Reg::Eax.into()),
            ret(),
            out(),
            hlt(),
            movss(Xmm::new(0).into(), Mem::base(Reg::Eax).into()),
            addss(Xmm::new(1), Xmm::new(2).into()),
            ucomiss(Xmm::new(0), Xmm::new(1).into()),
            lea(Reg::Eax.into(), Mem::base_index(Reg::Ebx, Reg::Ecx).into()),
            bsr(Reg::Eax.into(), Reg::Ecx.into()),
            movzxb(Reg::Eax.into(), Mem::base(Reg::Esi).into()),
            movb(Mem::base(Reg::Edi).into(), Reg::Eax.into()),
        ];
        for i in insts {
            assert!(i.validate().is_ok(), "{i}");
        }
    }
}
