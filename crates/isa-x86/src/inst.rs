//! Host instruction set: opcodes, shape validation, and effects.

#[cfg(test)]
use crate::operand::Mem;
use crate::operand::{Cc, Operand};
use crate::reg::Reg;
use pdbt_isa::effects::{self, Effects};
use pdbt_isa::{ExecError, InlineVec, Width};
use std::fmt;

/// A host opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Op {
    // Moves.
    Mov,
    /// Narrow store of a register's low byte to memory.
    MovB,
    /// Narrow store of a register's low half to memory.
    MovW,
    /// Zero-extending byte load.
    MovzxB,
    /// Zero-extending halfword load.
    MovzxW,
    Lea,
    // Two-operand ALU.
    Add,
    Adc,
    Sub,
    Sbb,
    And,
    Or,
    Xor,
    Imul,
    Shl,
    Shr,
    Sar,
    Ror,
    // One-operand ALU.
    Not,
    Neg,
    /// Widening multiply: `edx:eax = eax * src`.
    MulWide,
    /// Bit-scan-reverse (used to emulate `clz`); sets ZF on zero input.
    Bsr,
    // Compares.
    Cmp,
    Test,
    // Stack.
    Push,
    Pop,
    // Control.
    Jmp,
    Jcc,
    Call,
    Ret,
    Setcc,
    /// Emit `eax` to the output stream (models the forwarded `svc #1`).
    Out,
    /// Stop execution (models the forwarded `svc #0`).
    Hlt,
    // Scalar float (SSE-like).
    Movss,
    Addss,
    Subss,
    Mulss,
    Divss,
    Ucomiss,
}

/// Operand-shape class of a host opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// `op dst, src` — dst is reg/mem, src is reg/imm/mem (not both mem).
    Alu2,
    /// `op dst, src` — `mov`-style (same operand rules as `Alu2`).
    Mov2,
    /// `op mem, reg` — narrow store.
    NarrowStore,
    /// `op reg, mem` — widening load / `lea` / `bsr`.
    RegMem,
    /// `op dst` — `not`, `neg`, `mul`, `push`, `pop`.
    Unary,
    /// `op <target>` or `op reg/mem` — `jmp`/`call`.
    Branch,
    /// `jcc <target>` — conditional branch (carries a [`Cc`]).
    CondBranch,
    /// `setcc dst` — byte materialization of a condition.
    SetCc,
    /// No operands — `ret`, `out`, `hlt`.
    Nullary,
    /// `op xmm, xmm/mem` — scalar-float two-operand.
    Sse2Op,
    /// `movss dst, src` — xmm↔xmm/mem either direction.
    SseMov,
}

impl Op {
    /// All opcodes in encoding order.
    pub const ALL: [Op; 39] = [
        Op::Mov,
        Op::MovB,
        Op::MovW,
        Op::MovzxB,
        Op::MovzxW,
        Op::Lea,
        Op::Add,
        Op::Adc,
        Op::Sub,
        Op::Sbb,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Imul,
        Op::Shl,
        Op::Shr,
        Op::Sar,
        Op::Ror,
        Op::Not,
        Op::Neg,
        Op::MulWide,
        Op::Bsr,
        Op::Cmp,
        Op::Test,
        Op::Push,
        Op::Pop,
        Op::Jmp,
        Op::Jcc,
        Op::Call,
        Op::Ret,
        Op::Setcc,
        Op::Out,
        Op::Hlt,
        Op::Movss,
        Op::Addss,
        Op::Subss,
        Op::Mulss,
        Op::Divss,
        Op::Ucomiss,
    ];

    /// Encoding index.
    #[must_use]
    pub fn index(self) -> u8 {
        Op::ALL.iter().position(|o| *o == self).unwrap() as u8
    }

    /// Inverse of [`Op::index`].
    #[must_use]
    pub fn from_index(i: u8) -> Option<Op> {
        Op::ALL.get(i as usize).copied()
    }

    /// The operand-shape class.
    #[must_use]
    pub fn shape(self) -> Shape {
        use Op::*;
        match self {
            Mov => Shape::Mov2,
            MovB | MovW => Shape::NarrowStore,
            MovzxB | MovzxW | Lea | Bsr => Shape::RegMem,
            Add | Adc | Sub | Sbb | And | Or | Xor | Imul | Shl | Shr | Sar | Ror | Cmp | Test => {
                Shape::Alu2
            }
            Not | Neg | MulWide | Push | Pop => Shape::Unary,
            Jmp | Call => Shape::Branch,
            Jcc => Shape::CondBranch,
            Ret | Out | Hlt => Shape::Nullary,
            Setcc => Shape::SetCc,
            Movss => Shape::SseMov,
            Addss | Subss | Mulss | Divss | Ucomiss => Shape::Sse2Op,
        }
    }

    /// Memory access width for narrow moves.
    #[must_use]
    pub fn access_width(self) -> Width {
        match self {
            Op::MovB | Op::MovzxB => Width::B8,
            Op::MovW | Op::MovzxW => Width::B16,
            _ => Width::B32,
        }
    }

    /// The mnemonic text.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            Mov => "movl",
            MovB => "movb",
            MovW => "movw",
            MovzxB => "movzbl",
            MovzxW => "movzwl",
            Lea => "leal",
            Add => "addl",
            Adc => "adcl",
            Sub => "subl",
            Sbb => "sbbl",
            And => "andl",
            Or => "orl",
            Xor => "xorl",
            Imul => "imull",
            Shl => "shll",
            Shr => "shrl",
            Sar => "sarl",
            Ror => "rorl",
            Not => "notl",
            Neg => "negl",
            MulWide => "mull",
            Bsr => "bsrl",
            Cmp => "cmpl",
            Test => "testl",
            Push => "pushl",
            Pop => "popl",
            Jmp => "jmp",
            Jcc => "j",
            Call => "call",
            Ret => "ret",
            Setcc => "set",
            Out => "out",
            Hlt => "hlt",
            Movss => "movss",
            Addss => "addss",
            Subss => "subss",
            Mulss => "mulss",
            Divss => "divss",
            Ucomiss => "ucomiss",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Operands per host instruction: no [`Shape`] takes more than two.
pub const MAX_OPERANDS: usize = 2;

/// A host instruction's operands, held in the instruction itself — the
/// translator builds and moves host code without a heap allocation per
/// instruction.
pub type Operands = InlineVec<Operand, MAX_OPERANDS>;

/// A host instruction.
///
/// Operand order is **AT&T-free destination-first**: `addl dst, src`
/// means `dst += src` (Intel order), which keeps the rule templates
/// readable next to the paper's figures.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The opcode.
    pub op: Op,
    /// Condition for `Jcc`/`Setcc`.
    pub cc: Option<Cc>,
    /// Positional operands.
    pub operands: Operands,
}

impl Inst {
    /// Creates an instruction and validates its shape.
    ///
    /// # Errors
    ///
    /// [`ExecError::MalformedInstruction`] on a shape violation, more
    /// than [`MAX_OPERANDS`] operands included.
    pub fn new(op: Op, operands: impl IntoIterator<Item = Operand>) -> Result<Inst, ExecError> {
        Inst::checked(op, None, operands)
    }

    /// Creates a `Jcc`/`Setcc` with its condition.
    ///
    /// # Errors
    ///
    /// As [`Inst::new`].
    pub fn new_cc(
        op: Op,
        cc: Cc,
        operands: impl IntoIterator<Item = Operand>,
    ) -> Result<Inst, ExecError> {
        Inst::checked(op, Some(cc), operands)
    }

    fn checked(
        op: Op,
        cc: Option<Cc>,
        operands: impl IntoIterator<Item = Operand>,
    ) -> Result<Inst, ExecError> {
        let mut inst = Inst {
            op,
            cc,
            operands: Operands::new(),
        };
        for o in operands {
            let fits = inst.operands.try_push(o);
            fits.map_err(|_| ExecError::MalformedInstruction {
                detail: format!("{op} given more than {MAX_OPERANDS} operands"),
            })?;
        }
        inst.validate()?;
        Ok(inst)
    }

    /// Validates the operand shape.
    ///
    /// # Errors
    ///
    /// [`ExecError::MalformedInstruction`] describing the violation.
    pub fn validate(&self) -> Result<(), ExecError> {
        let bad = |detail: String| Err(ExecError::MalformedInstruction { detail });
        let ops = &self.operands;
        let is_reg = |o: &Operand| matches!(o, Operand::Reg(_));
        let is_mem = |o: &Operand| matches!(o, Operand::Mem(_));
        let is_rm = |o: &Operand| is_reg(o) || is_mem(o);
        let is_rmi = |o: &Operand| is_rm(o) || matches!(o, Operand::Imm(_));
        let is_xmm = |o: &Operand| matches!(o, Operand::Xmm(_));
        let both_mem = |a: &Operand, b: &Operand| is_mem(a) && is_mem(b);
        let ok = match self.op.shape() {
            Shape::Alu2 | Shape::Mov2 => {
                ops.len() == 2 && is_rm(&ops[0]) && is_rmi(&ops[1]) && !both_mem(&ops[0], &ops[1])
            }
            Shape::NarrowStore => ops.len() == 2 && is_mem(&ops[0]) && is_reg(&ops[1]),
            Shape::RegMem => ops.len() == 2 && is_reg(&ops[0]) && is_rm(&ops[1]),
            Shape::Unary => {
                ops.len() == 1
                    && (is_rm(&ops[0])
                        || (self.op == Op::Push && matches!(ops[0], Operand::Imm(_))))
            }
            Shape::Branch => {
                ops.len() == 1 && (matches!(ops[0], Operand::Target(_)) || is_rmi(&ops[0]))
            }
            Shape::CondBranch => ops.len() == 1 && matches!(ops[0], Operand::Target(_)),
            Shape::SetCc => ops.len() == 1 && is_rm(&ops[0]),
            Shape::Nullary => ops.is_empty(),
            Shape::Sse2Op => {
                ops.len() == 2 && is_xmm(&ops[0]) && (is_xmm(&ops[1]) || is_mem(&ops[1]))
            }
            Shape::SseMov => {
                ops.len() == 2
                    && (is_xmm(&ops[0]) || is_mem(&ops[0]))
                    && (is_xmm(&ops[1]) || is_mem(&ops[1]))
                    && !both_mem(&ops[0], &ops[1])
            }
        };
        if !ok {
            return bad(format!("operand shape mismatch for {self}"));
        }
        if matches!(self.op.shape(), Shape::CondBranch | Shape::SetCc) && self.cc.is_none() {
            return bad(format!("{} requires a condition code", self.op));
        }
        if !matches!(self.op.shape(), Shape::CondBranch | Shape::SetCc) && self.cc.is_some() {
            return bad(format!("{} does not take a condition code", self.op));
        }
        Ok(())
    }

    /// The registers and flags this instruction may read and write:
    /// [`crate::step`] stepped at [`pdbt_isa::effects::Recorder`], both
    /// ways where it decides a condition. `call` and `ret`, which `step`
    /// refuses, have none.
    #[must_use]
    pub fn effects(&self) -> Effects<Reg> {
        effects::record(None, |m| crate::step(m, self))
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)?;
        if let Some(cc) = self.cc {
            write!(f, "{cc}")?;
        }
        let mut first = true;
        for o in &self.operands {
            if first {
                write!(f, " {o}")?;
                first = false;
            } else {
                write!(f, ", {o}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::*;
    use crate::reg::Xmm;

    #[test]
    fn opcode_index_roundtrip() {
        for op in Op::ALL {
            assert_eq!(Op::from_index(op.index()), Some(op));
        }
    }

    #[test]
    fn validation_accepts_and_rejects() {
        assert!(add(Reg::Eax.into(), Reg::Ecx.into()).validate().is_ok());
        assert!(add(Mem::base(Reg::Ebp).into(), Operand::Imm(4))
            .validate()
            .is_ok());
        // mem,mem is illegal.
        let i = Inst {
            op: Op::Add,
            cc: None,
            operands: [Mem::base(Reg::Eax).into(), Mem::base(Reg::Ecx).into()]
                .into_iter()
                .collect(),
        };
        assert!(i.validate().is_err());
        // jcc without cc is illegal.
        let i = Inst {
            op: Op::Jcc,
            cc: None,
            operands: [Operand::Target(1)].into_iter().collect(),
        };
        assert!(i.validate().is_err());
        // cc on a non-cc opcode is illegal.
        let i = Inst {
            op: Op::Add,
            cc: Some(Cc::E),
            operands: [Reg::Eax.into(), Operand::Imm(1)].into_iter().collect(),
        };
        assert!(i.validate().is_err());
        // imm destination is illegal.
        let i = Inst {
            op: Op::Mov,
            cc: None,
            operands: [Operand::Imm(1), Reg::Eax.into()].into_iter().collect(),
        };
        assert!(i.validate().is_err());
        // A third operand is a shape error, not a panic.
        let three = [Reg::Eax.into(), Reg::Ecx.into(), Operand::Imm(1)];
        assert!(Inst::new(Op::Add, three).is_err());
        // So is a conditional opcode with neither its shape nor a cc.
        assert!(Inst::new(Op::Jcc, [Reg::Eax.into(), Reg::Ecx.into()]).is_err());
    }

    #[test]
    fn memory_destinations_read_their_address() {
        let slot = Mem::base_disp(Reg::Ebx, 4);
        assert_eq!(pop(slot.into()).effects().uses, [Reg::Esp, Reg::Ebx]);
        assert_eq!(setcc(Cc::E, slot.into()).effects().uses, [Reg::Ebx]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            add(Reg::Eax.into(), Operand::Imm(5)).to_string(),
            "addl eax, $5"
        );
        assert_eq!(
            mov(Reg::Ecx.into(), Mem::base_disp(Reg::Ebp, 4).into()).to_string(),
            "movl ecx, [ebp+4]"
        );
        assert_eq!(jcc(Cc::Ne, 2).to_string(), "jne .+2");
        assert_eq!(setcc(Cc::E, Reg::Eax.into()).to_string(), "sete eax");
        assert_eq!(hlt().to_string(), "hlt");
        assert_eq!(
            addss(Xmm::new(0), Xmm::new(1).into()).to_string(),
            "addss xmm0, xmm1"
        );
    }
}
