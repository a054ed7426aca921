//! Guest instruction set: opcodes, the instruction struct, shape
//! validation, and the classification metadata (paper §IV-A) the
//! parameterization framework consumes.

use crate::operand::{MemAddr, Operand};
use crate::reg::{Reg, RegList, RegVec};
use pdbt_isa::{Addr, Cond, DataType, EncodingFormat, ExecError, FlagSet, OpCategory, Width};
use std::fmt;

/// A guest opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the mnemonics are their own documentation
pub enum Op {
    // Data-processing, three-operand (rd, rn, op2).
    And,
    Eor,
    Sub,
    Rsb,
    Add,
    Adc,
    Sbc,
    Rsc,
    Orr,
    Bic,
    // Shifts as three-operand ops (rd, rn, op2 = amount reg/imm).
    Lsl,
    Lsr,
    Asr,
    Ror,
    // Data-processing, two-operand (rd, op2).
    Mov,
    Mvn,
    // Multiply family.
    Mul,
    Mla,
    Umull,
    Umlal,
    // Count leading zeros.
    Clz,
    // Compare family (rn, op2) — flag-only.
    Cmp,
    Cmn,
    Tst,
    Teq,
    // Loads and stores (rt, mem).
    Ldr,
    Ldrb,
    Ldrh,
    Str,
    Strb,
    Strh,
    // Stack.
    Push,
    Pop,
    // Branches.
    B,
    Bl,
    Bx,
    // Supervisor call (0 = exit, 1 = emit r0 to the output stream).
    Svc,
    // Scalar floating point.
    Vadd,
    Vsub,
    Vmul,
    Vdiv,
    Vmov,
    Vcmp,
    Vldr,
    Vstr,
}

/// The operand-shape class of an opcode, used for validation, encoding
/// and interpretation dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// `op rd, rn, <op2>` — three-operand data processing.
    Dp3,
    /// `op rd, <op2>` — two-operand data processing (`mov`, `mvn`).
    Dp2,
    /// `op rd, rm` — `clz`.
    Unary2,
    /// `op rd, rm, rs` — `mul`.
    Mul3,
    /// `op rd, rm, rs, ra` / `op rdlo, rdhi, rm, rs` — `mla`, `umull`, `umlal`.
    Mul4,
    /// `op rn, <op2>` — compares.
    Cmp2,
    /// `op rt, <mem>` — loads and stores.
    LdSt,
    /// `op {list}` — `push`/`pop`.
    Stack,
    /// `op <target>` — `b`, `bl`.
    Branch,
    /// `op rm` — `bx`.
    BranchReg,
    /// `op #imm` — `svc`.
    Sys,
    /// `op sd, sn, sm` — VFP three-operand.
    Vfp3,
    /// `op sd, sm` — VFP two-operand (`vmov`, `vcmp`).
    Vfp2,
    /// `op sd, <mem>` — VFP load/store.
    VfpLdSt,
}

impl Op {
    /// All opcodes, in encoding order.
    pub const ALL: [Op; 45] = [
        Op::And,
        Op::Eor,
        Op::Sub,
        Op::Rsb,
        Op::Add,
        Op::Adc,
        Op::Sbc,
        Op::Rsc,
        Op::Orr,
        Op::Bic,
        Op::Lsl,
        Op::Lsr,
        Op::Asr,
        Op::Ror,
        Op::Mov,
        Op::Mvn,
        Op::Mul,
        Op::Mla,
        Op::Umull,
        Op::Umlal,
        Op::Clz,
        Op::Cmp,
        Op::Cmn,
        Op::Tst,
        Op::Teq,
        Op::Ldr,
        Op::Ldrb,
        Op::Ldrh,
        Op::Str,
        Op::Strb,
        Op::Strh,
        Op::Push,
        Op::Pop,
        Op::B,
        Op::Bl,
        Op::Bx,
        Op::Svc,
        Op::Vadd,
        Op::Vsub,
        Op::Vmul,
        Op::Vdiv,
        Op::Vmov,
        Op::Vcmp,
        Op::Vldr,
        Op::Vstr,
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
            And | Eor | Sub | Rsb | Add | Adc | Sbc | Rsc | Orr | Bic | Lsl | Lsr | Asr | Ror => {
                Shape::Dp3
            }
            Mov | Mvn => Shape::Dp2,
            Clz => Shape::Unary2,
            Mul => Shape::Mul3,
            Mla | Umull | Umlal => Shape::Mul4,
            Cmp | Cmn | Tst | Teq => Shape::Cmp2,
            Ldr | Ldrb | Ldrh | Str | Strb | Strh => Shape::LdSt,
            Push | Pop => Shape::Stack,
            B | Bl => Shape::Branch,
            Bx => Shape::BranchReg,
            Svc => Shape::Sys,
            Vadd | Vsub | Vmul | Vdiv => Shape::Vfp3,
            Vmov | Vcmp => Shape::Vfp2,
            Vldr | Vstr => Shape::VfpLdSt,
        }
    }

    /// Data type for subgroup classification (paper §IV-A axis 1).
    #[must_use]
    pub fn data_type(self) -> DataType {
        use Op::*;
        match self {
            Vadd | Vsub | Vmul | Vdiv | Vmov | Vcmp | Vldr | Vstr => DataType::Float,
            _ => DataType::Int,
        }
    }

    /// Operation category (paper §IV-A axis 2, guideline 2 — the five ARM
    /// subgroups of the paper).
    #[must_use]
    pub fn category(self) -> OpCategory {
        use Op::*;
        match self {
            And | Eor | Sub | Rsb | Add | Adc | Sbc | Rsc | Orr | Bic | Lsl | Lsr | Asr | Ror
            | Mul | Mla | Umull | Umlal | Clz | Vadd | Vsub | Vmul | Vdiv => OpCategory::ArithLogic,
            Mov | Mvn | Ldr | Ldrb | Ldrh | Vmov | Vldr => OpCategory::LoadToReg,
            Str | Strb | Strh | Vstr => OpCategory::StoreToMem,
            Cmp | Cmn | Tst | Teq | Vcmp => OpCategory::Compare,
            Push | Pop | B | Bl | Bx | Svc => OpCategory::Other,
        }
    }

    /// Encoding format (paper §IV-A axis 2, guideline 1).
    #[must_use]
    pub fn format(self) -> EncodingFormat {
        use Op::*;
        match self {
            And | Eor | Sub | Rsb | Add | Adc | Sbc | Rsc | Orr | Bic | Lsl | Lsr | Asr | Ror
            | Mov | Mvn | Cmp | Cmn | Tst | Teq => EncodingFormat::GuestDp,
            Mul | Mla | Umull | Umlal => EncodingFormat::GuestMul,
            Clz | Push | Pop | Svc => EncodingFormat::GuestMisc,
            Ldr | Ldrb | Ldrh | Str | Strb | Strh => EncodingFormat::GuestLdSt,
            B | Bl | Bx => EncodingFormat::GuestBranch,
            Vadd | Vsub | Vmul | Vdiv | Vmov | Vcmp => EncodingFormat::GuestVfp,
            Vldr | Vstr => EncodingFormat::GuestVfp,
        }
    }

    /// Whether the `s` (set-flags) suffix is accepted.
    #[must_use]
    pub fn supports_s(self) -> bool {
        use Op::*;
        matches!(
            self,
            And | Eor
                | Sub
                | Rsb
                | Add
                | Adc
                | Sbc
                | Rsc
                | Orr
                | Bic
                | Lsl
                | Lsr
                | Asr
                | Ror
                | Mov
                | Mvn
                | Mul
                | Mla
        )
    }

    /// Flags this opcode *always* sets (compares), ignoring the `s` bit.
    #[must_use]
    pub fn intrinsic_flag_defs(self) -> FlagSet {
        use Op::*;
        match self {
            Cmp | Cmn => FlagSet::NZCV,
            Tst | Teq => FlagSet::NZ,
            Vcmp => FlagSet::NZCV,
            _ => FlagSet::EMPTY,
        }
    }

    /// Flags set when the `s` suffix is present.
    #[must_use]
    pub fn s_flag_defs(self) -> FlagSet {
        use Op::*;
        match self {
            Add | Adc | Sub | Sbc | Rsb | Rsc => FlagSet::NZCV,
            And | Orr | Eor | Bic | Mov | Mvn => FlagSet::NZ,
            Lsl | Lsr | Asr | Ror => FlagSet::NZC,
            Mul | Mla => FlagSet::NZ,
            _ => FlagSet::EMPTY,
        }
    }

    /// Flags this opcode reads (beyond any condition predicate).
    #[must_use]
    pub fn flag_uses(self) -> FlagSet {
        use pdbt_isa::Flag;
        match self {
            Op::Adc | Op::Sbc | Op::Rsc => FlagSet::single(Flag::C),
            _ => FlagSet::EMPTY,
        }
    }

    /// Whether the two source operands commute (paper §IV-C1: `add` is
    /// commutative, `sub` is not; the verifier drops swapped derivations
    /// for non-commutative opcodes).
    #[must_use]
    pub fn is_commutative(self) -> bool {
        use Op::*;
        matches!(
            self,
            And | Eor | Add | Adc | Orr | Mul | Cmn | Tst | Teq | Vadd | Vmul
        )
    }

    /// The "simple" partner of a complex opcode, with the transformation
    /// the complex one applies to its last source operand (paper §IV-C1,
    /// Fig 7: `bic` is `and` with an inverted operand; `mvn` is `mov` with
    /// an inverted operand; `rsb` is `sub` with swapped sources).
    #[must_use]
    pub fn complex_pair(self) -> Option<(Op, OperandTransform)> {
        match self {
            Op::Bic => Some((Op::And, OperandTransform::InvertLastSource)),
            Op::Mvn => Some((Op::Mov, OperandTransform::InvertLastSource)),
            Op::Rsb => Some((Op::Sub, OperandTransform::SwapSources)),
            Op::Rsc => Some((Op::Sbc, OperandTransform::SwapSources)),
            Op::Cmn => Some((Op::Cmp, OperandTransform::NegateLastSource)),
            _ => None,
        }
    }

    /// Memory access width for load/store opcodes.
    #[must_use]
    pub fn access_width(self) -> Option<Width> {
        use Op::*;
        match self {
            Ldr | Str | Vldr | Vstr => Some(Width::B32),
            Ldrh | Strh => Some(Width::B16),
            Ldrb | Strb => Some(Width::B8),
            _ => None,
        }
    }

    /// Whether this is a load (memory → register).
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, Op::Ldr | Op::Ldrb | Op::Ldrh | Op::Vldr | Op::Pop)
    }

    /// Whether this is a store (register → memory).
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self, Op::Str | Op::Strb | Op::Strh | Op::Vstr | Op::Push)
    }

    /// The mnemonic text (without `s`/condition suffixes).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            And => "and",
            Eor => "eor",
            Sub => "sub",
            Rsb => "rsb",
            Add => "add",
            Adc => "adc",
            Sbc => "sbc",
            Rsc => "rsc",
            Orr => "orr",
            Bic => "bic",
            Lsl => "lsl",
            Lsr => "lsr",
            Asr => "asr",
            Ror => "ror",
            Mov => "mov",
            Mvn => "mvn",
            Mul => "mul",
            Mla => "mla",
            Umull => "umull",
            Umlal => "umlal",
            Clz => "clz",
            Cmp => "cmp",
            Cmn => "cmn",
            Tst => "tst",
            Teq => "teq",
            Ldr => "ldr",
            Ldrb => "ldrb",
            Ldrh => "ldrh",
            Str => "str",
            Strb => "strb",
            Strh => "strh",
            Push => "push",
            Pop => "pop",
            B => "b",
            Bl => "bl",
            Bx => "bx",
            Svc => "svc",
            Vadd => "vadd.f32",
            Vsub => "vsub.f32",
            Vmul => "vmul.f32",
            Vdiv => "vdiv.f32",
            Vmov => "vmov.f32",
            Vcmp => "vcmp.f32",
            Vldr => "vldr",
            Vstr => "vstr",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// How a complex opcode transforms its operands relative to its simple
/// partner (see [`Op::complex_pair`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandTransform {
    /// The last source operand is bitwise-inverted before use.
    InvertLastSource,
    /// The last source operand is arithmetically negated before use.
    NegateLastSource,
    /// The two source operands are exchanged.
    SwapSources,
}

/// A guest instruction: opcode, set-flags bit, condition predicate, and
/// positional operands.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The opcode.
    pub op: Op,
    /// Set-flags suffix (`adds` vs `add`).
    pub s: bool,
    /// Condition predicate (`Al` = unconditional).
    pub cond: Cond,
    /// Positional operands; the valid shape is dictated by [`Op::shape`].
    pub operands: Vec<Operand>,
}

impl Inst {
    /// Creates an unconditional, non-flag-setting instruction and
    /// validates its operand shape.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::MalformedInstruction`] if the operands do not
    /// match the opcode's shape.
    pub fn new(op: Op, operands: Vec<Operand>) -> Result<Inst, ExecError> {
        let inst = Inst {
            op,
            s: false,
            cond: Cond::Al,
            operands,
        };
        inst.validate()?;
        Ok(inst)
    }

    /// Sets the `s` (set-flags) bit. Panics if the opcode does not
    /// support it.
    #[must_use]
    pub fn with_s(mut self) -> Inst {
        assert!(
            self.op.supports_s(),
            "{} does not support the s suffix",
            self.op
        );
        self.s = true;
        self
    }

    /// Sets the condition predicate.
    #[must_use]
    pub fn with_cond(mut self, cond: Cond) -> Inst {
        self.cond = cond;
        self
    }

    /// Validates the operand shape against the opcode.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::MalformedInstruction`] on any shape violation.
    pub fn validate(&self) -> Result<(), ExecError> {
        let bad = |detail: String| Err(ExecError::MalformedInstruction { detail });
        let ops = &self.operands;
        let is_reg = |o: &Operand| matches!(o, Operand::Reg(_));
        let is_flex = |o: &Operand| {
            matches!(
                o,
                Operand::Reg(_) | Operand::Imm(_) | Operand::Shifted { .. }
            )
        };
        let is_mem = |o: &Operand| matches!(o, Operand::Mem(_));
        let is_freg = |o: &Operand| matches!(o, Operand::FReg(_));
        let ok = match self.op.shape() {
            Shape::Dp3 => ops.len() == 3 && is_reg(&ops[0]) && is_reg(&ops[1]) && is_flex(&ops[2]),
            Shape::Dp2 => ops.len() == 2 && is_reg(&ops[0]) && is_flex(&ops[1]),
            Shape::Unary2 => ops.len() == 2 && is_reg(&ops[0]) && is_reg(&ops[1]),
            Shape::Mul3 => ops.len() == 3 && ops.iter().all(is_reg),
            Shape::Mul4 => ops.len() == 4 && ops.iter().all(is_reg),
            Shape::Cmp2 => ops.len() == 2 && is_reg(&ops[0]) && is_flex(&ops[1]),
            Shape::LdSt => ops.len() == 2 && is_reg(&ops[0]) && is_mem(&ops[1]),
            Shape::Stack => ops.len() == 1 && matches!(ops[0], Operand::RegList(_)),
            Shape::Branch => ops.len() == 1 && matches!(ops[0], Operand::Target(_)),
            Shape::BranchReg => ops.len() == 1 && is_reg(&ops[0]),
            Shape::Sys => ops.len() == 1 && matches!(ops[0], Operand::Imm(_)),
            Shape::Vfp3 => ops.len() == 3 && ops.iter().all(is_freg),
            Shape::Vfp2 => ops.len() == 2 && ops.iter().all(is_freg),
            Shape::VfpLdSt => ops.len() == 2 && is_freg(&ops[0]) && is_mem(&ops[1]),
        };
        if !ok {
            return bad(format!("operand shape mismatch for {self}"));
        }
        if self.s && !self.op.supports_s() {
            return bad(format!("{} does not support the s suffix", self.op));
        }
        if let Operand::Imm(v) = &ops[ops.len() - 1] {
            if self.op != Op::Svc && *v > crate::encode::MAX_IMM {
                return bad(format!("immediate {v} exceeds encodable range"));
            }
        }
        if let Some(Operand::Mem(MemAddr::BaseImm { offset, .. })) = ops.iter().find(|o| is_mem(o))
        {
            if offset.unsigned_abs() > crate::encode::MAX_MEM_OFFSET {
                return bad(format!("memory offset {offset} exceeds encodable range"));
            }
        }
        if matches!(self.op.shape(), Shape::Stack) {
            if let Operand::RegList(l) = ops[0] {
                if l.is_empty() {
                    return bad("empty register list".to_string());
                }
            }
        }
        Ok(())
    }

    /// Calls `f` with each general-purpose register this instruction
    /// writes, in [`Inst::defs`] order.
    #[inline]
    fn each_def(&self, mut f: impl FnMut(Reg)) {
        use Shape::*;
        let mut plain = |o: &Operand| o.as_reg().into_iter().for_each(&mut f);
        match self.op.shape() {
            Dp3 | Dp2 | Unary2 | Mul3 => plain(&self.operands[0]),
            Mul4 => match self.op {
                // mla rd, rm, rs, ra → writes rd. umull/umlal write lo and hi.
                Op::Mla => plain(&self.operands[0]),
                _ => self.operands[..2].iter().for_each(plain),
            },
            LdSt if self.op.is_load() => plain(&self.operands[0]),
            Stack => {
                f(Reg::Sp);
                if let (Op::Pop, Operand::RegList(l)) = (self.op, self.operands[0]) {
                    l.iter().for_each(&mut f);
                }
            }
            LdSt | Cmp2 | Branch | BranchReg | Sys | Vfp3 | Vfp2 | VfpLdSt => {}
        }
        if self.op == Op::Bl {
            f(Reg::Lr);
        }
    }

    /// The general-purpose registers written by this instruction.
    #[must_use]
    pub fn defs(&self) -> RegVec {
        let mut out = RegVec::new();
        self.each_def(|r| out.push(r));
        out
    }

    /// Whether `pc` is among [`Inst::defs`], asked without listing them:
    /// block collection asks it of every instruction it fetches.
    fn writes_pc(&self) -> bool {
        let mut hit = false;
        self.each_def(|r| hit |= r.is_pc());
        hit
    }

    /// Calls `f` with each general-purpose register this instruction
    /// reads, in operand order, repeats included.
    #[inline]
    fn each_use(&self, mut f: impl FnMut(Reg)) {
        use Shape::*;
        let mut of = |operands: &[Operand]| operands.iter().for_each(|o| o.each_use(&mut f));
        match self.op.shape() {
            Dp3 | Mul3 => of(&self.operands[1..]),
            Dp2 | Unary2 | VfpLdSt => of(&self.operands[1..2]),
            Mul4 => match self.op {
                Op::Mla => of(&self.operands[1..]),
                Op::Umlal => of(&self.operands),
                _ => of(&self.operands[2..]),
            },
            Cmp2 => of(&self.operands),
            LdSt => {
                of(&self.operands[1..2]);
                if self.op.is_store() {
                    of(&self.operands[..1]);
                }
            }
            Stack => {
                f(Reg::Sp);
                if let (Op::Push, Operand::RegList(l)) = (self.op, self.operands[0]) {
                    l.iter().for_each(f);
                }
            }
            BranchReg => of(&self.operands[..1]),
            Branch | Sys | Vfp3 | Vfp2 => {}
        }
    }

    /// The general-purpose registers read by this instruction, in operand
    /// order (register allocation breaks frequency ties by it); a register
    /// read twice in a row is listed once.
    #[must_use]
    pub fn uses(&self) -> RegVec {
        let mut out = RegVec::new();
        self.each_use(|r| {
            if out.last() != Some(&r) {
                out.push(r);
            }
        });
        out
    }

    /// Flags defined by this instruction.
    #[must_use]
    pub fn flag_defs(&self) -> FlagSet {
        let mut set = self.op.intrinsic_flag_defs();
        if self.s {
            set |= self.op.s_flag_defs();
        }
        set
    }

    /// Flags read by this instruction (carry-in opcodes and the condition
    /// predicate).
    #[must_use]
    pub fn flag_uses(&self) -> FlagSet {
        let mut set = self.op.flag_uses();
        if self.cond != Cond::Al {
            set |= FlagSet::NZCV;
        }
        set
    }

    /// Whether control flow may leave the fall-through path
    /// (`svc #0` terminates; other system calls fall through).
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self.op, Op::B | Op::Bl | Op::Bx)
            || (self.op == Op::Svc && self.operands[0].as_imm() == Some(0))
            || self.writes_pc()
    }

    /// The target of a direct branch (`b`/`bl`) at `addr`; `None` for
    /// every other instruction.
    #[must_use]
    pub fn direct_target(&self, addr: Addr) -> Option<Addr> {
        match (self.op, self.operands.first()) {
            (Op::B | Op::Bl, Some(Operand::Target(d))) => Some(addr.wrapping_add(*d as u32)),
            _ => None,
        }
    }

    /// Whether this instruction ends a basic block for translation
    /// purposes.
    #[must_use]
    pub fn ends_block(&self) -> bool {
        self.is_branch()
    }

    /// The push/pop register list, if any.
    #[must_use]
    pub fn reg_list(&self) -> Option<RegList> {
        match self.operands.first() {
            Some(Operand::RegList(l)) => Some(*l),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            self.op,
            if self.s { "s" } else { "" },
            self.cond
        )?;
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

    #[test]
    fn opcode_index_roundtrip() {
        for op in Op::ALL {
            assert_eq!(Op::from_index(op.index()), Some(op));
        }
        assert_eq!(Op::from_index(45), None);
    }

    #[test]
    fn classification_axes() {
        assert_eq!(Op::Add.category(), OpCategory::ArithLogic);
        assert_eq!(Op::Mov.category(), OpCategory::LoadToReg);
        assert_eq!(Op::Str.category(), OpCategory::StoreToMem);
        assert_eq!(Op::Cmp.category(), OpCategory::Compare);
        assert_eq!(Op::B.category(), OpCategory::Other);
        assert_eq!(Op::Vadd.data_type(), DataType::Float);
        assert_eq!(Op::Add.data_type(), DataType::Int);
        assert_eq!(Op::Add.format(), EncodingFormat::GuestDp);
        assert_eq!(Op::Mul.format(), EncodingFormat::GuestMul);
        assert_eq!(Op::Clz.format(), EncodingFormat::GuestMisc);
    }

    #[test]
    fn commutativity() {
        assert!(Op::Add.is_commutative());
        assert!(Op::Eor.is_commutative());
        assert!(!Op::Sub.is_commutative());
        assert!(!Op::Bic.is_commutative());
        assert!(!Op::Lsl.is_commutative());
    }

    #[test]
    fn complex_pairs() {
        assert_eq!(
            Op::Bic.complex_pair(),
            Some((Op::And, OperandTransform::InvertLastSource))
        );
        assert_eq!(
            Op::Mvn.complex_pair(),
            Some((Op::Mov, OperandTransform::InvertLastSource))
        );
        assert_eq!(
            Op::Rsb.complex_pair(),
            Some((Op::Sub, OperandTransform::SwapSources))
        );
        assert_eq!(Op::Add.complex_pair(), None);
    }

    #[test]
    fn shape_validation_accepts_good_shapes() {
        assert!(add(Reg::R0, Reg::R1, Operand::Imm(5)).validate().is_ok());
        assert!(ldr(
            Reg::R0,
            MemAddr::BaseImm {
                base: Reg::R1,
                offset: 8
            }
        )
        .validate()
        .is_ok());
        assert!(cmp(Reg::R0, Operand::Reg(Reg::R1)).validate().is_ok());
        assert!(b(Cond::Ne, -8).validate().is_ok());
    }

    #[test]
    fn shape_validation_rejects_bad_shapes() {
        // add with a memory operand is not a valid guest shape.
        let bad = Inst {
            op: Op::Add,
            s: false,
            cond: Cond::Al,
            operands: vec![
                Operand::Reg(Reg::R0),
                Operand::Reg(Reg::R1),
                Operand::Mem(MemAddr::BaseImm {
                    base: Reg::R2,
                    offset: 0,
                }),
            ],
        };
        assert!(bad.validate().is_err());
        // str needs a memory operand.
        let bad = Inst {
            op: Op::Str,
            s: false,
            cond: Cond::Al,
            operands: vec![Operand::Reg(Reg::R0), Operand::Reg(Reg::R1)],
        };
        assert!(bad.validate().is_err());
        // Immediate out of encodable range.
        let bad = Inst::new(
            Op::Add,
            vec![
                Operand::Reg(Reg::R0),
                Operand::Reg(Reg::R1),
                Operand::Imm(1 << 20),
            ],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn defs_uses_dataproc() {
        let i = add(Reg::R0, Reg::R1, Operand::Reg(Reg::R2));
        assert_eq!(i.defs(), vec![Reg::R0]);
        assert_eq!(i.uses(), vec![Reg::R1, Reg::R2]);
    }

    #[test]
    fn defs_uses_memory() {
        let i = str_(
            Reg::R0,
            MemAddr::BaseReg {
                base: Reg::R1,
                index: Reg::R2,
            },
        );
        assert!(i.defs().is_empty());
        assert_eq!(i.uses(), vec![Reg::R1, Reg::R2, Reg::R0]);
        let i = ldr(
            Reg::R0,
            MemAddr::BaseImm {
                base: Reg::R1,
                offset: 4,
            },
        );
        assert_eq!(i.defs(), vec![Reg::R0]);
        assert_eq!(i.uses(), vec![Reg::R1]);
    }

    #[test]
    fn defs_uses_stack_and_mul() {
        let i = push([Reg::R4, Reg::Lr]);
        assert_eq!(i.defs(), vec![Reg::Sp]);
        assert!(i.uses().contains(&Reg::R4) && i.uses().contains(&Reg::Sp));
        let i = pop([Reg::R4, Reg::Pc]);
        assert!(i.defs().contains(&Reg::Pc) && i.defs().contains(&Reg::Sp));
        let i = mla(Reg::R0, Reg::R1, Reg::R2, Reg::R3);
        assert_eq!(i.defs(), vec![Reg::R0]);
        assert_eq!(i.uses(), vec![Reg::R1, Reg::R2, Reg::R3]);
        let i = umull(Reg::R0, Reg::R1, Reg::R2, Reg::R3);
        assert_eq!(i.defs(), vec![Reg::R0, Reg::R1]);
        assert_eq!(i.uses(), vec![Reg::R2, Reg::R3]);
    }

    #[test]
    fn flags_metadata() {
        assert_eq!(
            add(Reg::R0, Reg::R0, Operand::Imm(1)).flag_defs(),
            FlagSet::EMPTY
        );
        assert_eq!(
            add(Reg::R0, Reg::R0, Operand::Imm(1)).with_s().flag_defs(),
            FlagSet::NZCV
        );
        assert_eq!(
            and(Reg::R0, Reg::R0, Operand::Imm(1)).with_s().flag_defs(),
            FlagSet::NZ
        );
        assert_eq!(cmp(Reg::R0, Operand::Imm(0)).flag_defs(), FlagSet::NZCV);
        assert!(!adc(Reg::R0, Reg::R0, Operand::Imm(0))
            .flag_uses()
            .is_empty());
        assert_eq!(b(Cond::Eq, 8).flag_uses(), FlagSet::NZCV);
        assert_eq!(b(Cond::Al, 8).flag_uses(), FlagSet::EMPTY);
    }

    #[test]
    fn branch_detection() {
        assert!(b(Cond::Al, 4).is_branch());
        assert!(bx(Reg::Lr).is_branch());
        assert!(pop([Reg::Pc]).is_branch());
        assert!(!add(Reg::R0, Reg::R0, Operand::Imm(1)).is_branch());
        // Writing pc via mov is a branch.
        let i = mov(Reg::Pc, Operand::Reg(Reg::Lr));
        assert!(i.is_branch());
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            add(Reg::R0, Reg::R1, Operand::Imm(5)).to_string(),
            "add r0, r1, #5"
        );
        assert_eq!(
            add(Reg::R0, Reg::R1, Operand::Reg(Reg::R2))
                .with_s()
                .to_string(),
            "adds r0, r1, r2"
        );
        assert_eq!(b(Cond::Ne, -12).to_string(), "bne .-12");
        assert_eq!(
            ldr(
                Reg::R3,
                MemAddr::BaseImm {
                    base: Reg::Sp,
                    offset: 16
                }
            )
            .to_string(),
            "ldr r3, [sp, #16]"
        );
        assert_eq!(push([Reg::R4, Reg::Lr]).to_string(), "push {r4, lr}");
        assert_eq!(svc(0).to_string(), "svc #0");
    }

    #[test]
    #[should_panic(expected = "does not support the s suffix")]
    fn with_s_panics_on_unsupported() {
        let _ = cmp(Reg::R0, Operand::Imm(0)).with_s();
    }
}
