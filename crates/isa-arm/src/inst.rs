//! Guest instruction set: opcodes, the instruction struct, shape
//! validation, and the classification metadata (paper §IV-A) the
//! parameterization framework consumes.

use crate::operand::{MemAddr, Operand};
use crate::reg::{Reg, RegList};
use pdbt_isa::effects::{self, Effects};
use pdbt_isa::{Addr, Cond, DataType, EncodingFormat, ExecError, OpCategory, Width};
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
/// partner (paper §IV-C1, Fig 7: `bic` is `and` with an inverted operand,
/// `rsb` is `sub` with swapped sources).
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
    #[inline] // into each `step` instantiation: the interpreter's and the recorder's
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

    /// The registers and flags this instruction may read and write:
    /// [`crate::step`] stepped at [`pdbt_isa::effects::Recorder`], both
    /// ways where it is predicated. `pc` counts only where an operand
    /// names it.
    #[must_use]
    pub fn effects(&self) -> Effects<Reg> {
        let names_pc = self.operands.iter().any(Operand::names_pc);
        effects::record(Some((Reg::Pc, names_pc)), |m| crate::step(m, self))
    }

    /// Whether control flow may leave the fall-through path
    /// (`svc #0` terminates; other system calls fall through).
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self.op, Op::B | Op::Bl | Op::Bx)
            || (self.op == Op::Svc && self.operands[0].as_imm() == Some(0))
            // Only an instruction that names `pc` as a register or in a
            // list can write it, so block collection, which asks of every
            // instruction it fetches, steps only those.
            || ((self.operands.contains(&Operand::Reg(Reg::Pc))
                || self.reg_list().is_some_and(|l| l.contains(Reg::Pc)))
                && self.effects().defs.contains(&Reg::Pc))
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

    /// `(uses, defs)`.
    fn regs(i: &Inst) -> (Vec<Reg>, Vec<Reg>) {
        let fx = i.effects();
        (fx.uses.to_vec(), fx.defs.to_vec())
    }

    #[test]
    fn svc_1_reads_the_register_it_emits() {
        assert_eq!(regs(&svc(1)), (vec![Reg::R0], vec![]));
        assert_eq!(regs(&svc(0)), (vec![], vec![]));
    }

    #[test]
    fn pc_is_an_effect_only_where_an_operand_names_it() {
        use Reg::*;
        assert_eq!(regs(&b(Cond::Al, 8)), (vec![], vec![]));
        assert_eq!(regs(&bl(8)), (vec![], vec![Lr]));
        assert_eq!(regs(&bx(Lr)), (vec![Lr], vec![]));
        assert_eq!(regs(&mov(Pc, Operand::Reg(Lr))), (vec![Lr], vec![Pc]));
        let at = MemAddr::BaseImm {
            base: Pc,
            offset: 8,
        };
        assert_eq!(regs(&ldr(R0, at)), (vec![Pc], vec![R0]));
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
