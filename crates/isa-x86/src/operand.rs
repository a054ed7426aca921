//! Host operands: registers, immediates, memory with base+index+disp, and
//! the host condition codes with their guest-condition mapping.

use crate::reg::{Reg, Xmm};
use pdbt_isa::{AddrModeKind, BinOp, Concrete, Cond, Domain, Flag, Flags};
use std::fmt;

/// A host memory operand: `[base + index + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Mem {
    /// Optional base register.
    pub base: Option<Reg>,
    /// Optional index register.
    pub index: Option<Reg>,
    /// Signed displacement.
    pub disp: i32,
}

impl Mem {
    /// `[base]`
    #[must_use]
    pub fn base(base: Reg) -> Mem {
        Mem {
            base: Some(base),
            index: None,
            disp: 0,
        }
    }

    /// `[base + disp]`
    #[must_use]
    pub fn base_disp(base: Reg, disp: i32) -> Mem {
        Mem {
            base: Some(base),
            index: None,
            disp,
        }
    }

    /// `[base + index]`
    #[must_use]
    pub fn base_index(base: Reg, index: Reg) -> Mem {
        Mem {
            base: Some(base),
            index: Some(index),
            disp: 0,
        }
    }

    /// `[disp]` — absolute.
    #[must_use]
    pub fn abs(disp: i32) -> Mem {
        Mem {
            base: None,
            index: None,
            disp,
        }
    }

    /// Registers the address computation reads.
    pub fn uses(self) -> impl Iterator<Item = Reg> {
        self.base.into_iter().chain(self.index)
    }
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut wrote = false;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            wrote = true;
        }
        if let Some(i) = self.index {
            if wrote {
                write!(f, "+")?;
            }
            write!(f, "{i}")?;
            wrote = true;
        }
        if self.disp != 0 || !wrote {
            if wrote && self.disp >= 0 {
                write!(f, "+")?;
            }
            write!(f, "{}", self.disp)?;
        }
        write!(f, "]")
    }
}

/// A uniform host operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Operand {
    /// A general-purpose register.
    Reg(Reg),
    /// A 32-bit immediate.
    Imm(i32),
    /// A memory operand.
    Mem(Mem),
    /// A scalar-float register.
    Xmm(Xmm),
    /// A jump displacement in *instructions*, relative to the next
    /// instruction (the host model is instruction-indexed, not
    /// byte-indexed; the encoder handles the byte-level layout).
    Target(i32),
}

/// `$0`: what pads the unused tail of an instruction's inline operand
/// list, where nothing reads it.
impl Default for Operand {
    fn default() -> Operand {
        Operand::Imm(0)
    }
}

impl Operand {
    /// The addressing-mode kind (for host-side subgroup classification).
    #[must_use]
    pub fn addr_mode(&self) -> Option<AddrModeKind> {
        match self {
            Operand::Reg(_) | Operand::Xmm(_) => Some(AddrModeKind::Reg),
            Operand::Imm(_) => Some(AddrModeKind::Imm),
            Operand::Mem(_) => Some(AddrModeKind::Mem),
            Operand::Target(_) => None,
        }
    }

    /// The register, if this is a plain register.
    #[must_use]
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// The memory operand, if any.
    #[must_use]
    pub fn as_mem(&self) -> Option<Mem> {
        match self {
            Operand::Mem(m) => Some(*m),
            _ => None,
        }
    }

    /// The immediate, if any.
    #[must_use]
    pub fn as_imm(&self) -> Option<i32> {
        match self {
            Operand::Imm(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "${v}"),
            Operand::Mem(m) => write!(f, "{m}"),
            Operand::Xmm(x) => write!(f, "{x}"),
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

impl From<i32> for Operand {
    fn from(v: i32) -> Operand {
        Operand::Imm(v)
    }
}

impl From<Mem> for Operand {
    fn from(m: Mem) -> Operand {
        Operand::Mem(m)
    }
}

/// Host condition codes, evaluated against `EFLAGS` semantics
/// (`c` = CF with *borrow* polarity after subtraction, the opposite of
/// the guest's not-borrow convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cc {
    /// ZF set.
    E,
    /// ZF clear.
    Ne,
    /// CF set (unsigned below).
    B,
    /// CF clear (unsigned above-or-equal).
    Ae,
    /// CF clear and ZF clear (unsigned above).
    A,
    /// CF set or ZF set (unsigned below-or-equal).
    Be,
    /// SF set.
    S,
    /// SF clear.
    Ns,
    /// OF set.
    O,
    /// OF clear.
    No,
    /// SF == OF (signed greater-or-equal).
    Ge,
    /// SF != OF (signed less).
    L,
    /// ZF clear and SF == OF (signed greater).
    G,
    /// ZF set or SF != OF (signed less-or-equal).
    Le,
}

/// How the flag producer preceding a condition treats the carry flag,
/// which decides how guest conditions map onto host conditions.
///
/// After a guest `cmp a, b` (C = not-borrow) the host `cmp a, b`
/// (CF = borrow) holds the *inverted* carry, so `Cs` maps to `Ae`;
/// after a guest `adds` the carries agree, so `Cs` maps to `B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CarrySense {
    /// The producer was an addition: guest C and host CF agree.
    AddLike,
    /// The producer was a subtraction/compare: guest C = !host CF.
    SubLike,
}

impl Cc {
    /// All host condition codes.
    pub const ALL: [Cc; 14] = [
        Cc::E,
        Cc::Ne,
        Cc::B,
        Cc::Ae,
        Cc::A,
        Cc::Be,
        Cc::S,
        Cc::Ns,
        Cc::O,
        Cc::No,
        Cc::Ge,
        Cc::L,
        Cc::G,
        Cc::Le,
    ];

    /// The condition as a truth value of domain `D`, reading host flags
    /// (`N`=SF, `Z`=ZF, `C`=CF, `V`=OF) through `flag`.
    #[inline]
    pub fn holds<D: Domain>(self, mut flag: impl FnMut(Flag) -> D::B) -> D::B {
        use BinOp::{And, Or, Xor};
        use Flag::{C, N, V, Z};
        match self {
            Cc::E => flag(Z),
            Cc::Ne => D::not(flag(Z)),
            Cc::B => flag(C),
            Cc::Ae => D::not(flag(C)),
            Cc::A => D::logic(And, D::not(flag(C)), D::not(flag(Z))),
            Cc::Be => D::logic(Or, flag(C), flag(Z)),
            Cc::S => flag(N),
            Cc::Ns => D::not(flag(N)),
            Cc::O => flag(V),
            Cc::No => D::not(flag(V)),
            Cc::Ge => D::not(D::logic(Xor, flag(N), flag(V))),
            Cc::L => D::logic(Xor, flag(N), flag(V)),
            Cc::G => D::logic(
                And,
                D::not(D::logic(Xor, flag(N), flag(V))),
                D::not(flag(Z)),
            ),
            Cc::Le => D::logic(Or, D::logic(Xor, flag(N), flag(V)), flag(Z)),
        }
    }

    /// The condition's mnemonic suffix (`e` in `sete`), its display form.
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            Cc::E => "e",
            Cc::Ne => "ne",
            Cc::B => "b",
            Cc::Ae => "ae",
            Cc::A => "a",
            Cc::Be => "be",
            Cc::S => "s",
            Cc::Ns => "ns",
            Cc::O => "o",
            Cc::No => "no",
            Cc::Ge => "ge",
            Cc::L => "l",
            Cc::G => "g",
            Cc::Le => "le",
        }
    }

    /// Evaluates against host flags (`n`=SF, `z`=ZF, `c`=CF, `v`=OF).
    #[must_use]
    #[inline]
    pub fn eval(self, f: Flags) -> bool {
        self.holds::<Concrete>(|flag| f.get(flag))
    }

    /// The logical negation.
    #[must_use]
    pub fn invert(self) -> Cc {
        match self {
            Cc::E => Cc::Ne,
            Cc::Ne => Cc::E,
            Cc::B => Cc::Ae,
            Cc::Ae => Cc::B,
            Cc::A => Cc::Be,
            Cc::Be => Cc::A,
            Cc::S => Cc::Ns,
            Cc::Ns => Cc::S,
            Cc::O => Cc::No,
            Cc::No => Cc::O,
            Cc::Ge => Cc::L,
            Cc::L => Cc::Ge,
            Cc::G => Cc::Le,
            Cc::Le => Cc::G,
        }
    }

    /// Maps a guest condition code to the host condition that evaluates
    /// identically, given the carry sense of the flag producer (this is
    /// the kernel of condition-flag *delegation*, paper §IV-D).
    ///
    /// Returns `None` for `Cond::Al` (no branch needed).
    #[must_use]
    pub fn from_guest(cond: Cond, sense: CarrySense) -> Option<Cc> {
        let same_carry = sense == CarrySense::AddLike;
        Some(match cond {
            Cond::Eq => Cc::E,
            Cond::Ne => Cc::Ne,
            Cond::Mi => Cc::S,
            Cond::Pl => Cc::Ns,
            Cond::Vs => Cc::O,
            Cond::Vc => Cc::No,
            Cond::Ge => Cc::Ge,
            Cond::Lt => Cc::L,
            Cond::Gt => Cc::G,
            Cond::Le => Cc::Le,
            // Carry-consulting conditions flip with the producer's sense.
            Cond::Cs => {
                if same_carry {
                    Cc::B
                } else {
                    Cc::Ae
                }
            }
            Cond::Cc => {
                if same_carry {
                    Cc::Ae
                } else {
                    Cc::B
                }
            }
            Cond::Hi => {
                if same_carry {
                    // guest C=1 && Z=0 with agreeing carry: CF=1 && ZF=0.
                    // No single x86 cc tests CF&&!ZF with that polarity;
                    // the translator materializes it, but for the model we
                    // expose the sub-like mapping only.
                    return None;
                } else {
                    Cc::A
                }
            }
            Cond::Ls => {
                if same_carry {
                    return None;
                } else {
                    Cc::Be
                }
            }
            Cond::Al => return None,
        })
    }

    /// Encoding index.
    #[must_use]
    pub fn index(self) -> u8 {
        Cc::ALL.iter().position(|c| *c == self).unwrap() as u8
    }

    /// Inverse of [`Cc::index`].
    #[must_use]
    pub fn from_index(i: u8) -> Option<Cc> {
        Cc::ALL.get(i as usize).copied()
    }
}

impl fmt::Display for Cc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_display() {
        assert_eq!(Mem::base(Reg::Eax).to_string(), "[eax]");
        assert_eq!(Mem::base_disp(Reg::Ebp, -8).to_string(), "[ebp-8]");
        assert_eq!(Mem::base_disp(Reg::Ebp, 8).to_string(), "[ebp+8]");
        assert_eq!(Mem::base_index(Reg::Eax, Reg::Ecx).to_string(), "[eax+ecx]");
        assert_eq!(Mem::abs(0x1000).to_string(), "[4096]");
    }

    #[test]
    fn cc_invert_negates() {
        for cc in Cc::ALL {
            assert_eq!(cc.invert().invert(), cc);
            for bits in 0..16u8 {
                let f = Flags {
                    n: bits & 1 != 0,
                    z: bits & 2 != 0,
                    c: bits & 4 != 0,
                    v: bits & 8 != 0,
                };
                assert_eq!(cc.eval(f), !cc.invert().eval(f));
            }
        }
    }

    #[test]
    fn guest_mapping_after_compare() {
        // Guest: cmp 5, 3 → C=1 (no borrow). Host: cmp 5, 3 → CF=0.
        // Guest `Cs` must hold ⟺ mapped host cc holds.
        let guest = Flags {
            n: false,
            z: false,
            c: true,
            v: false,
        };
        let host = Flags {
            n: false,
            z: false,
            c: false,
            v: false,
        };
        let mapped = Cc::from_guest(Cond::Cs, CarrySense::SubLike).unwrap();
        assert_eq!(Cond::Cs.eval(guest), mapped.eval(host));
        let mapped = Cc::from_guest(Cond::Hi, CarrySense::SubLike).unwrap();
        assert_eq!(Cond::Hi.eval(guest), mapped.eval(host));
    }

    #[test]
    fn guest_mapping_after_add() {
        // adds that carries out: guest C=1, host CF=1.
        let guest = Flags {
            n: false,
            z: true,
            c: true,
            v: false,
        };
        let host = guest;
        let mapped = Cc::from_guest(Cond::Cs, CarrySense::AddLike).unwrap();
        assert_eq!(Cond::Cs.eval(guest), mapped.eval(host));
        assert_eq!(Cc::from_guest(Cond::Hi, CarrySense::AddLike), None);
    }

    #[test]
    fn signed_conditions_map_directly() {
        for (cond, cc) in [
            (Cond::Eq, Cc::E),
            (Cond::Lt, Cc::L),
            (Cond::Gt, Cc::G),
            (Cond::Mi, Cc::S),
        ] {
            assert_eq!(Cc::from_guest(cond, CarrySense::SubLike), Some(cc));
        }
        assert_eq!(Cc::from_guest(Cond::Al, CarrySense::SubLike), None);
    }

    #[test]
    fn cc_index_roundtrip() {
        for cc in Cc::ALL {
            assert_eq!(Cc::from_index(cc.index()), Some(cc));
        }
        assert_eq!(Cc::from_index(14), None);
    }
}
