//! Guest operands: the flexible second operand (immediate / register /
//! shifted register), memory addressing modes, and the uniform operand
//! type the parameterization framework manipulates.

use crate::reg::{FReg, Reg, RegList};
use pdbt_isa::AddrModeKind;
use std::fmt;

/// Barrel-shifter operation applied to a register operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ShiftKind {
    /// Logical shift left.
    Lsl,
    /// Logical shift right.
    Lsr,
    /// Arithmetic shift right.
    Asr,
    /// Rotate right.
    Ror,
}

impl ShiftKind {
    /// All shift kinds, in encoding order.
    pub const ALL: [ShiftKind; 4] = [
        ShiftKind::Lsl,
        ShiftKind::Lsr,
        ShiftKind::Asr,
        ShiftKind::Ror,
    ];

    /// Encoding index (0–3).
    #[must_use]
    pub fn index(self) -> u8 {
        ShiftKind::ALL.iter().position(|k| *k == self).unwrap() as u8
    }

    /// Inverse of [`ShiftKind::index`].
    #[must_use]
    pub fn from_index(i: u8) -> Option<ShiftKind> {
        ShiftKind::ALL.get(i as usize).copied()
    }
}

impl fmt::Display for ShiftKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShiftKind::Lsl => "lsl",
            ShiftKind::Lsr => "lsr",
            ShiftKind::Asr => "asr",
            ShiftKind::Ror => "ror",
        })
    }
}

/// A guest memory addressing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemAddr {
    /// `[base, #offset]` — base register plus signed immediate offset.
    /// With `base == pc` this is the PC-relative mode of paper Fig 9.
    BaseImm {
        /// Base register.
        base: Reg,
        /// Signed byte offset, representable range ±2047.
        offset: i32,
    },
    /// `[base, index]` — base register plus index register.
    BaseReg {
        /// Base register.
        base: Reg,
        /// Index register.
        index: Reg,
    },
}

impl fmt::Display for MemAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemAddr::BaseImm { base, offset: 0 } => write!(f, "[{base}]"),
            MemAddr::BaseImm { base, offset } => write!(f, "[{base}, #{offset}]"),
            MemAddr::BaseReg { base, index } => write!(f, "[{base}, {index}]"),
        }
    }
}

/// A uniform guest operand.
///
/// Instructions carry a positional operand vector of this type, which is
/// what makes the addressing-mode dimension of parameterization (paper
/// §IV-B) a per-slot substitution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Operand {
    /// A general-purpose register.
    Reg(Reg),
    /// An immediate (representable range 0–2047 in the binary encoding).
    Imm(u32),
    /// A register transformed by the barrel shifter.
    Shifted {
        /// The register being shifted.
        rm: Reg,
        /// The shift operation.
        kind: ShiftKind,
        /// Shift amount, 1–31.
        amount: u8,
    },
    /// A memory operand.
    Mem(MemAddr),
    /// A floating-point register.
    FReg(FReg),
    /// A register list (`push`/`pop`).
    RegList(RegList),
    /// A branch displacement in bytes, relative to the branch instruction.
    Target(i32),
}

impl Operand {
    /// The addressing-mode kind of this operand, if it participates in
    /// addressing-mode parameterization (`RegList`/`Target` do not; `FReg`
    /// is classified as a register).
    #[must_use]
    pub fn addr_mode(&self) -> Option<AddrModeKind> {
        match self {
            Operand::Reg(_) => Some(AddrModeKind::Reg),
            Operand::Imm(_) => Some(AddrModeKind::Imm),
            Operand::Shifted { .. } => Some(AddrModeKind::ShiftedReg),
            Operand::Mem(_) => Some(AddrModeKind::Mem),
            Operand::FReg(_) => Some(AddrModeKind::Reg),
            Operand::RegList(_) | Operand::Target(_) => None,
        }
    }

    /// Whether the operand names the program counter.
    #[must_use]
    pub fn names_pc(&self) -> bool {
        match *self {
            Operand::Reg(r)
            | Operand::Shifted { rm: r, .. }
            | Operand::Mem(MemAddr::BaseImm { base: r, .. }) => r.is_pc(),
            Operand::Mem(MemAddr::BaseReg { base, index }) => base.is_pc() || index.is_pc(),
            Operand::RegList(l) => l.contains(Reg::Pc),
            Operand::Imm(_) | Operand::FReg(_) | Operand::Target(_) => false,
        }
    }

    /// Convenience accessor: the register, if this is a plain register.
    #[must_use]
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// Convenience accessor: the immediate, if this is an immediate.
    #[must_use]
    pub fn as_imm(&self) -> Option<u32> {
        match self {
            Operand::Imm(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience accessor: the memory address, if this is a memory
    /// operand.
    #[must_use]
    pub fn as_mem(&self) -> Option<MemAddr> {
        match self {
            Operand::Mem(m) => Some(*m),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "#{v}"),
            Operand::Shifted { rm, kind, amount } => write!(f, "{rm}, {kind} #{amount}"),
            Operand::Mem(m) => write!(f, "{m}"),
            Operand::FReg(r) => write!(f, "{r}"),
            Operand::RegList(l) => write!(f, "{l}"),
            Operand::Target(d) => {
                if *d >= 0 {
                    write!(f, ".+{d}")
                } else {
                    write!(f, ".{d}")
                }
            }
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Operand {
        Operand::Imm(v)
    }
}

impl From<MemAddr> for Operand {
    fn from(m: MemAddr) -> Operand {
        Operand::Mem(m)
    }
}

impl From<FReg> for Operand {
    fn from(r: FReg) -> Operand {
        Operand::FReg(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_index_roundtrip() {
        for k in ShiftKind::ALL {
            assert_eq!(ShiftKind::from_index(k.index()), Some(k));
        }
        assert_eq!(ShiftKind::from_index(4), None);
    }

    #[test]
    fn names_pc_in_any_register_position() {
        let at_pc = MemAddr::BaseImm {
            base: Reg::Pc,
            offset: 16,
        };
        assert!(Operand::Mem(at_pc).names_pc());
        assert!(Operand::RegList([Reg::R4, Reg::Pc].into_iter().collect()).names_pc());
        let m = MemAddr::BaseReg {
            base: Reg::R1,
            index: Reg::R2,
        };
        assert!(!Operand::Mem(m).names_pc());
    }

    #[test]
    fn operand_addr_modes() {
        assert_eq!(Operand::Reg(Reg::R0).addr_mode(), Some(AddrModeKind::Reg));
        assert_eq!(Operand::Imm(5).addr_mode(), Some(AddrModeKind::Imm));
        assert_eq!(
            Operand::Shifted {
                rm: Reg::R1,
                kind: ShiftKind::Lsl,
                amount: 2
            }
            .addr_mode(),
            Some(AddrModeKind::ShiftedReg)
        );
        assert_eq!(
            Operand::Mem(MemAddr::BaseImm {
                base: Reg::R1,
                offset: 0
            })
            .addr_mode(),
            Some(AddrModeKind::Mem)
        );
        assert_eq!(Operand::Target(8).addr_mode(), None);
    }

    #[test]
    fn operand_display() {
        assert_eq!(Operand::Reg(Reg::R3).to_string(), "r3");
        assert_eq!(Operand::Imm(42).to_string(), "#42");
        assert_eq!(
            Operand::Shifted {
                rm: Reg::R1,
                kind: ShiftKind::Lsl,
                amount: 2
            }
            .to_string(),
            "r1, lsl #2"
        );
        assert_eq!(
            Operand::Mem(MemAddr::BaseImm {
                base: Reg::R2,
                offset: -4
            })
            .to_string(),
            "[r2, #-4]"
        );
        assert_eq!(
            Operand::Mem(MemAddr::BaseImm {
                base: Reg::R2,
                offset: 0
            })
            .to_string(),
            "[r2]"
        );
        assert_eq!(Operand::Target(-8).to_string(), ".-8");
        assert_eq!(Operand::Target(12).to_string(), ".+12");
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg::R1), Operand::Reg(Reg::R1));
        assert_eq!(Operand::from(7u32), Operand::Imm(7));
    }
}
