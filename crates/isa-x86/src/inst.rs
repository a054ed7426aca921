//! Host instruction set: opcodes, shape validation, and classification
//! metadata for the host side of parameterized rules.

#[cfg(test)]
use crate::operand::Mem;
use crate::operand::{Cc, Operand};
use crate::reg::Reg;
use pdbt_isa::{DataType, EncodingFormat, ExecError, FlagSet, InlineVec, OpCategory, Width};
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

    /// Data type for host-side subgroup classification.
    #[must_use]
    pub fn data_type(self) -> DataType {
        use Op::*;
        match self {
            Movss | Addss | Subss | Mulss | Divss | Ucomiss => DataType::Float,
            _ => DataType::Int,
        }
    }

    /// Encoding format for host-side subgroup classification.
    #[must_use]
    pub fn format(self) -> EncodingFormat {
        use Op::*;
        match self {
            Add | Adc | Sub | Sbb | And | Or | Xor | Imul | Shl | Shr | Sar | Ror | Cmp | Test => {
                EncodingFormat::HostAlu
            }
            Mov | MovB | MovW | MovzxB | MovzxW | Lea => EncodingFormat::HostMov,
            Not | Neg | MulWide | Bsr | Setcc => EncodingFormat::HostUnary,
            Jmp | Jcc | Call | Ret => EncodingFormat::HostBranch,
            Push | Pop | Out | Hlt => EncodingFormat::HostMisc,
            Movss | Addss | Subss | Mulss | Divss | Ucomiss => EncodingFormat::HostSse,
        }
    }

    /// Whether the two ALU sources commute (`add`, `and`, …).
    #[must_use]
    pub fn is_commutative(self) -> bool {
        use Op::*;
        matches!(
            self,
            Add | Adc | And | Or | Xor | Imul | Test | Addss | Mulss
        )
    }

    /// Flags defined by this opcode (x86 semantics; `c` is CF with borrow
    /// polarity after subtraction).
    #[must_use]
    pub fn flag_defs(self) -> FlagSet {
        use pdbt_isa::Flag;
        use Op::*;
        match self {
            Add | Adc | Sub | Sbb | Neg | Cmp => FlagSet::NZCV,
            And | Or | Xor | Test => FlagSet::NZCV, // CF=OF=0, SF/ZF live
            Shl | Shr | Sar => FlagSet::NZC,
            Ror => FlagSet::single(Flag::C),
            Bsr => FlagSet::single(Flag::Z),
            Ucomiss => FlagSet::NZCV, // ZF/CF live, SF=OF=0
            _ => FlagSet::EMPTY,
        }
    }

    /// Flags read by this opcode.
    #[must_use]
    pub fn flag_uses(self) -> FlagSet {
        use pdbt_isa::Flag;
        match self {
            Op::Adc | Op::Sbb => FlagSet::single(Flag::C),
            Op::Jcc | Op::Setcc => FlagSet::NZCV,
            _ => FlagSet::EMPTY,
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

    /// Operation category for host-side subgroup classification. For
    /// `mov` the category depends on the operand direction, mirroring the
    /// guest's `ldr`/`str`/`mov` split.
    #[must_use]
    pub fn category(&self) -> OpCategory {
        use Op::*;
        match self.op {
            Mov | Movss => {
                if self.operands[0].as_mem().is_some() {
                    OpCategory::StoreToMem
                } else {
                    OpCategory::LoadToReg
                }
            }
            MovB | MovW => OpCategory::StoreToMem,
            MovzxB | MovzxW | Lea | Pop => OpCategory::LoadToReg,
            Add | Adc | Sub | Sbb | And | Or | Xor | Imul | Shl | Shr | Sar | Ror | Not | Neg
            | MulWide | Bsr | Addss | Subss | Mulss | Divss => OpCategory::ArithLogic,
            Cmp | Test | Ucomiss => OpCategory::Compare,
            Push | Jmp | Jcc | Call | Ret | Setcc | Out | Hlt => OpCategory::Other,
        }
    }

    /// Host registers written.
    pub fn defs(&self) -> Vec<Reg> {
        use Shape::*;
        match self.op.shape() {
            Alu2 if matches!(self.op, Op::Cmp | Op::Test) => vec![],
            Alu2 | Mov2 | RegMem | SetCc => self.operands[0].as_reg().into_iter().collect(),
            Unary => match self.op {
                Op::MulWide => vec![Reg::Eax, Reg::Edx],
                Op::Push => vec![Reg::Esp],
                Op::Pop => {
                    let mut v = vec![Reg::Esp];
                    v.extend(self.operands[0].as_reg());
                    v
                }
                _ => self.operands[0].as_reg().into_iter().collect(),
            },
            NarrowStore | Branch | CondBranch | Nullary | Sse2Op | SseMov => match self.op {
                Op::Call => vec![Reg::Esp],
                Op::Ret => vec![Reg::Esp],
                _ => vec![],
            },
        }
    }

    /// Host registers read.
    pub fn uses(&self) -> Vec<Reg> {
        use Shape::*;
        let mut v: Vec<Reg> = match self.op.shape() {
            Alu2 => {
                // dst is read-modify-write except for mov-like ops.
                let mut v = self.operands[0].uses();
                v.extend(self.operands[1].uses());
                v
            }
            Mov2 => {
                let mut v = self.operands[1].uses();
                if let Some(m) = self.operands[0].as_mem() {
                    v.extend(m.uses());
                }
                v
            }
            NarrowStore => {
                let mut v = self.operands[0].uses();
                v.extend(self.operands[1].uses());
                v
            }
            RegMem => self.operands[1].uses(),
            Unary => match self.op {
                Op::MulWide => {
                    let mut v = vec![Reg::Eax];
                    v.extend(self.operands[0].uses());
                    v
                }
                Op::Push => {
                    let mut v = vec![Reg::Esp];
                    v.extend(self.operands[0].uses());
                    v
                }
                Op::Pop => vec![Reg::Esp],
                _ => self.operands[0].uses(),
            },
            Branch => self.operands[0].uses(),
            CondBranch | Nullary => match self.op {
                Op::Ret => vec![Reg::Esp],
                Op::Out => vec![Reg::Eax],
                _ => vec![],
            },
            SetCc => vec![],
            Sse2Op | SseMov => {
                let mut v = vec![];
                for o in &self.operands {
                    if let Some(m) = o.as_mem() {
                        v.extend(m.uses());
                    }
                }
                v
            }
        };
        v.dedup();
        v
    }

    /// Flags defined.
    #[must_use]
    pub fn flag_defs(&self) -> FlagSet {
        self.op.flag_defs()
    }

    /// Flags read.
    #[must_use]
    pub fn flag_uses(&self) -> FlagSet {
        self.op.flag_uses()
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            Op::Jcc | Op::Setcc => write!(f, "{}{}", self.op, self.cc.expect("validated cc"))?,
            _ => write!(f, "{}", self.op)?,
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
    }

    #[test]
    fn mov_category_depends_on_direction() {
        assert_eq!(
            mov(Reg::Eax.into(), Mem::base(Reg::Ebp).into()).category(),
            OpCategory::LoadToReg
        );
        assert_eq!(
            mov(Mem::base(Reg::Ebp).into(), Reg::Eax.into()).category(),
            OpCategory::StoreToMem
        );
        assert_eq!(
            mov(Reg::Eax.into(), Operand::Imm(3)).category(),
            OpCategory::LoadToReg
        );
        assert_eq!(
            add(Reg::Eax.into(), Operand::Imm(3)).category(),
            OpCategory::ArithLogic
        );
        assert_eq!(
            cmp(Reg::Eax.into(), Operand::Imm(3)).category(),
            OpCategory::Compare
        );
    }

    #[test]
    fn defs_uses() {
        let i = add(Reg::Eax.into(), Reg::Ecx.into());
        assert_eq!(i.defs(), vec![Reg::Eax]);
        assert_eq!(i.uses(), vec![Reg::Eax, Reg::Ecx]);
        let i = mov(Mem::base_disp(Reg::Ebp, 8).into(), Reg::Edx.into());
        assert!(i.defs().is_empty());
        assert_eq!(i.uses(), vec![Reg::Edx, Reg::Ebp]);
        let i = mul_wide(Reg::Ecx.into());
        assert_eq!(i.defs(), vec![Reg::Eax, Reg::Edx]);
        assert_eq!(i.uses(), vec![Reg::Eax, Reg::Ecx]);
        let i = cmp(Reg::Eax.into(), Operand::Imm(0));
        assert!(i.defs().is_empty());
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

    #[test]
    fn flags_metadata() {
        assert_eq!(Op::Add.flag_defs(), FlagSet::NZCV);
        assert_eq!(Op::Mov.flag_defs(), FlagSet::EMPTY);
        assert!(Op::Adc.flag_uses().contains(pdbt_isa::Flag::C));
        assert_eq!(Op::Jcc.flag_uses(), FlagSet::NZCV);
        assert!(
            Op::Imul.flag_defs().is_empty(),
            "imul flags are modelled as undefined"
        );
    }
}
