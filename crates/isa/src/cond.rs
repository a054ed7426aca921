//! Condition codes shared by both machine models.
//!
//! Both ISAs evaluate their conditional branches against the same four
//! flags, so a single condition-code enum serves the guest (`beq`, `bne`,
//! …) and the host (`je`, `jne`, …). `Display` is ARM-flavoured; the host
//! crate maps codes to x86 mnemonic suffixes itself.

use crate::domain::{BinOp, Concrete, Domain};
use crate::effects::Valueless;
use crate::flags::{Flag, FlagSet, Flags};
use std::fmt;

/// A condition code over the N/Z/C/V flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cond {
    /// Equal (Z set).
    Eq,
    /// Not equal (Z clear).
    Ne,
    /// Carry set / unsigned higher-or-same.
    Cs,
    /// Carry clear / unsigned lower.
    Cc,
    /// Minus / negative (N set).
    Mi,
    /// Plus / positive-or-zero (N clear).
    Pl,
    /// Overflow set.
    Vs,
    /// Overflow clear.
    Vc,
    /// Unsigned higher (C set and Z clear).
    Hi,
    /// Unsigned lower-or-same (C clear or Z set).
    Ls,
    /// Signed greater-or-equal (N == V).
    Ge,
    /// Signed less-than (N != V).
    Lt,
    /// Signed greater-than (Z clear and N == V).
    Gt,
    /// Signed less-or-equal (Z set or N != V).
    Le,
    /// Always.
    Al,
}

impl Cond {
    /// All condition codes, in encoding order.
    pub const ALL: [Cond; 15] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Cs,
        Cond::Cc,
        Cond::Mi,
        Cond::Pl,
        Cond::Vs,
        Cond::Vc,
        Cond::Hi,
        Cond::Ls,
        Cond::Ge,
        Cond::Lt,
        Cond::Gt,
        Cond::Le,
        Cond::Al,
    ];

    /// The condition's mnemonic suffix (`eq` in `beq`), its display
    /// form; empty for `al`.
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Cs => "cs",
            Cond::Cc => "cc",
            Cond::Mi => "mi",
            Cond::Pl => "pl",
            Cond::Vs => "vs",
            Cond::Vc => "vc",
            Cond::Hi => "hi",
            Cond::Ls => "ls",
            Cond::Ge => "ge",
            Cond::Lt => "lt",
            Cond::Gt => "gt",
            Cond::Le => "le",
            Cond::Al => "",
        }
    }

    /// The condition as a truth value of domain `D`, reading flags
    /// through `flag`.
    #[inline]
    pub fn holds<D: Domain>(self, mut flag: impl FnMut(Flag) -> D::B) -> D::B {
        use BinOp::{And, Or, Xor};
        use Flag::{C, N, V, Z};
        match self {
            Cond::Eq => flag(Z),
            Cond::Ne => D::not(flag(Z)),
            Cond::Cs => flag(C),
            Cond::Cc => D::not(flag(C)),
            Cond::Mi => flag(N),
            Cond::Pl => D::not(flag(N)),
            Cond::Vs => flag(V),
            Cond::Vc => D::not(flag(V)),
            Cond::Hi => D::logic(And, flag(C), D::not(flag(Z))),
            Cond::Ls => D::logic(Or, D::not(flag(C)), flag(Z)),
            Cond::Ge => D::not(D::logic(Xor, flag(N), flag(V))),
            Cond::Lt => D::logic(Xor, flag(N), flag(V)),
            Cond::Gt => D::not(D::logic(Or, flag(Z), D::logic(Xor, flag(N), flag(V)))),
            Cond::Le => D::logic(Or, flag(Z), D::logic(Xor, flag(N), flag(V))),
            Cond::Al => D::bit(D::c(1)),
        }
    }

    /// Evaluates the condition against concrete flags.
    #[must_use]
    #[inline]
    pub fn eval(self, f: Flags) -> bool {
        self.holds::<Concrete>(|flag| f.get(flag))
    }

    /// The logical negation (`Al` has no negation and returns itself).
    #[must_use]
    pub fn invert(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Cs => Cond::Cc,
            Cond::Cc => Cond::Cs,
            Cond::Mi => Cond::Pl,
            Cond::Pl => Cond::Mi,
            Cond::Vs => Cond::Vc,
            Cond::Vc => Cond::Vs,
            Cond::Hi => Cond::Ls,
            Cond::Ls => Cond::Hi,
            Cond::Ge => Cond::Lt,
            Cond::Lt => Cond::Ge,
            Cond::Gt => Cond::Le,
            Cond::Le => Cond::Gt,
            Cond::Al => Cond::Al,
        }
    }

    /// Encoding index (0–14), used by both models' binary encoders.
    #[must_use]
    pub fn index(self) -> u8 {
        Cond::ALL.iter().position(|c| *c == self).unwrap() as u8
    }

    /// Inverse of [`Cond::index`].
    #[must_use]
    pub fn from_index(i: u8) -> Option<Cond> {
        Cond::ALL.get(i as usize).copied()
    }
}

/// The flags a condition code reads: the ones [`Cond::holds`] asks for.
#[must_use]
pub fn cond_flag_uses(cond: Cond) -> FlagSet {
    let mut read = FlagSet::EMPTY;
    cond.holds::<Valueless>(|f| read |= FlagSet::single(f));
    read
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(n: bool, z: bool, c: bool, v: bool) -> Flags {
        Flags { n, z, c, v }
    }

    #[test]
    fn eval_signed_comparisons() {
        // 3 cmp 5 → N=1 (3-5 negative), Z=0, V=0 → Lt true, Ge false.
        let f = flags(true, false, false, false);
        assert!(Cond::Lt.eval(f));
        assert!(!Cond::Ge.eval(f));
        assert!(Cond::Le.eval(f));
        assert!(!Cond::Gt.eval(f));
    }

    #[test]
    fn eval_unsigned_comparisons() {
        // 5 cmp 3 unsigned → C=1 (no borrow), Z=0 → Hi true, Ls false.
        let f = flags(false, false, true, false);
        assert!(Cond::Hi.eval(f));
        assert!(!Cond::Ls.eval(f));
        assert!(Cond::Cs.eval(f));
    }

    #[test]
    fn invert_is_involution_and_negates() {
        for c in Cond::ALL {
            assert_eq!(c.invert().invert(), c);
            if c != Cond::Al {
                // For every flag combination the inverted condition must
                // evaluate to the opposite value.
                for bits in 0..16u8 {
                    let f = flags(bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
                    assert_eq!(c.eval(f), !c.invert().eval(f), "{c:?} on {f}");
                }
            }
        }
    }

    #[test]
    fn cond_flag_uses_are_exactly_the_flags_eval_reads() {
        for c in Cond::ALL {
            for (i, flag) in Flag::ALL.into_iter().enumerate() {
                // A flag is read iff flipping it changes some outcome.
                let read = (0..16u8).any(|bits| {
                    let of = |b: u8| flags(b & 1 != 0, b & 2 != 0, b & 4 != 0, b & 8 != 0);
                    let mut flipped = of(bits);
                    flipped.set(flag, !flipped.get(flag));
                    c.eval(of(bits)) != c.eval(flipped)
                });
                assert_eq!(cond_flag_uses(c).contains(flag), read, "{c:?} flag {i}");
            }
        }
    }

    #[test]
    fn index_roundtrip() {
        for c in Cond::ALL {
            assert_eq!(Cond::from_index(c.index()), Some(c));
        }
        assert_eq!(Cond::from_index(15), None);
    }

    #[test]
    fn al_always_true() {
        for bits in 0..16u8 {
            let f = flags(bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
            assert!(Cond::Al.eval(f));
        }
    }
}
