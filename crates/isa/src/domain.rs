//! The value domain and the machine interface instruction semantics are
//! written against.
//!
//! Each ISA crate defines its instructions once, as
//! `step<M: Machine>(m, inst)`. What a word *is* — a `u32`, or a
//! symbolic term — is the [`Domain`]; where registers, flags and memory
//! live is the [`Machine`]. The operator vocabulary ([`BinOp`], [`UnOp`],
//! [`PredOp`]) carries its own concrete meaning (`eval`), so the
//! [`Concrete`] domain is that meaning and a symbolic domain is the same
//! operators left unevaluated.

use crate::{Addr, ExecError, Flag, Width};

/// Binary bit-vector operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sar,
    Ror,
    Mul,
    MulhU,
    FAdd,
    FSub,
    FMul,
    FDiv,
}

impl BinOp {
    /// Whether the operator commutes.
    #[must_use]
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::Mul
                | BinOp::MulhU
                | BinOp::FAdd
                | BinOp::FMul
        )
    }

    /// Concrete evaluation. Shift amounts are taken modulo 32; the float
    /// operators work on IEEE-754 single-precision bit patterns.
    #[must_use]
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b & 31),
            BinOp::Shr => a.wrapping_shr(b & 31),
            BinOp::Sar => ((a as i32).wrapping_shr(b & 31)) as u32,
            BinOp::Ror => a.rotate_right(b & 31),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::MulhU => ((u64::from(a) * u64::from(b)) >> 32) as u32,
            BinOp::FAdd => (f32::from_bits(a) + f32::from_bits(b)).to_bits(),
            BinOp::FSub => (f32::from_bits(a) - f32::from_bits(b)).to_bits(),
            BinOp::FMul => (f32::from_bits(a) * f32::from_bits(b)).to_bits(),
            BinOp::FDiv => (f32::from_bits(a) / f32::from_bits(b)).to_bits(),
        }
    }
}

/// Unary bit-vector operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum UnOp {
    Not,
    Neg,
    Clz,
}

impl UnOp {
    /// Concrete evaluation.
    #[must_use]
    #[inline]
    pub fn eval(self, a: u32) -> u32 {
        match self {
            UnOp::Not => !a,
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Clz => a.leading_zeros(),
        }
    }
}

/// Predicate operators (one-bit results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum PredOp {
    Eq,
    Ne,
    Ltu,
    Geu,
    Lts,
    Ges,
    Gts,
    Les,
    Gtu,
    Leu,
    FLt,
    FEq,
    FGe,
}

impl PredOp {
    /// The complement of an integer predicate: `!(a op b)` is
    /// `a op' b`. `None` for a float predicate, whose complement also
    /// holds on an unordered pair.
    #[must_use]
    pub fn negate(self) -> Option<PredOp> {
        Some(match self {
            PredOp::Eq => PredOp::Ne,
            PredOp::Ne => PredOp::Eq,
            PredOp::Ltu => PredOp::Geu,
            PredOp::Geu => PredOp::Ltu,
            PredOp::Lts => PredOp::Ges,
            PredOp::Ges => PredOp::Lts,
            PredOp::Gts => PredOp::Les,
            PredOp::Les => PredOp::Gts,
            PredOp::Gtu => PredOp::Leu,
            PredOp::Leu => PredOp::Gtu,
            PredOp::FLt | PredOp::FEq | PredOp::FGe => return None,
        })
    }

    /// Concrete evaluation. The float predicates are all false on an
    /// unordered pair (either side NaN).
    #[must_use]
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> bool {
        let (sa, sb) = (a as i32, b as i32);
        match self {
            PredOp::Eq => a == b,
            PredOp::Ne => a != b,
            PredOp::Ltu => a < b,
            PredOp::Geu => a >= b,
            PredOp::Lts => sa < sb,
            PredOp::Ges => sa >= sb,
            PredOp::Gts => sa > sb,
            PredOp::Les => sa <= sb,
            PredOp::Gtu => a > b,
            PredOp::Leu => a <= b,
            PredOp::FLt => f32::from_bits(a) < f32::from_bits(b),
            PredOp::FEq => f32::from_bits(a) == f32::from_bits(b),
            PredOp::FGe => f32::from_bits(a) >= f32::from_bits(b),
        }
    }
}

/// A value domain: what a 32-bit word and a one-bit truth value are,
/// and how the operator vocabulary acts on them.
///
/// There are exactly two implementations. [`Concrete`] computes: every
/// method *is* the `eval` of its operator. The verifier's term algebra
/// (`pdbt_symexec::Term`) records: every method builds the node of that
/// name. The contract between them is what makes the verifier
/// trustworthy — for any assignment of the symbols, **evaluating the
/// symbolic result under the assignment equals the concrete result
/// computed from the assigned values**. Because each ISA's `step` is
/// one body instantiated at both, the property holds for whole
/// instructions as soon as it holds for these methods, and
/// `crates/symexec/tests/proptest_machines.rs` checks it end to end.
///
/// The provided methods are the flag arithmetic both ISAs share; they
/// are the workspace's one definition of add-with-carry,
/// subtract-with-borrow and the shifter carry-out.
pub trait Domain {
    /// A 32-bit word.
    type W: Clone;
    /// A truth value (a flag, a predicate result).
    type B: Clone;

    /// The constant `v`.
    fn c(v: u32) -> Self::W;
    /// `op(a, b)`.
    fn bin(op: BinOp, a: Self::W, b: Self::W) -> Self::W;
    /// `op(a)`.
    fn un(op: UnOp, a: Self::W) -> Self::W;
    /// Whether `op(a, b)` holds.
    fn pred(op: PredOp, a: Self::W, b: Self::W) -> Self::B;
    /// Carry out of `a + b + cin`.
    fn carry_add(a: Self::W, b: Self::W, cin: Self::B) -> Self::B;
    /// Borrow out of `a - b - bin`.
    fn borrow_sub(a: Self::W, b: Self::W, bin: Self::B) -> Self::B;
    /// Signed overflow of `a + b + cin`.
    fn overflow_add(a: Self::W, b: Self::W, cin: Self::B) -> Self::B;
    /// Signed overflow of `a - b - bin`.
    fn overflow_sub(a: Self::W, b: Self::W, bin: Self::B) -> Self::B;
    /// `t` where `c` holds, `e` elsewhere.
    fn ite(c: Self::B, t: Self::W, e: Self::W) -> Self::W;
    /// The word `1` where `b` holds, `0` elsewhere.
    fn word(b: Self::B) -> Self::W;
    /// The truth value of a word that is `0` or `1`.
    fn bit(w: Self::W) -> Self::B;

    /// `!a`.
    #[inline]
    fn not(a: Self::B) -> Self::B {
        Self::bit(Self::bin(BinOp::Xor, Self::word(a), Self::c(1)))
    }

    /// A bitwise operator (`And`, `Or`, `Xor`) on truth values.
    #[inline]
    fn logic(op: BinOp, a: Self::B, b: Self::B) -> Self::B {
        Self::bit(Self::bin(op, Self::word(a), Self::word(b)))
    }

    /// The sign and zero tests of a result: `(res < 0, res == 0)`.
    #[inline]
    fn nz(res: &Self::W) -> (Self::B, Self::B) {
        (
            Self::pred(PredOp::Lts, res.clone(), Self::c(0)),
            Self::pred(PredOp::Eq, res.clone(), Self::c(0)),
        )
    }

    /// Whether a float comparison of `a` and `b` is unordered. A value
    /// is NaN exactly when it does not equal itself, so the existing
    /// predicates say it.
    #[inline]
    fn unordered(a: &Self::W, b: &Self::W) -> Self::B {
        let nan = |x: &Self::W| Self::not(Self::pred(PredOp::FEq, x.clone(), x.clone()));
        Self::logic(BinOp::Or, nan(a), nan(b))
    }

    /// `a + b (+ cin)`: the sum, its carry out and its signed overflow.
    #[inline]
    fn add_with_carry(a: Self::W, b: Self::W, cin: Option<Self::B>) -> (Self::W, Self::B, Self::B) {
        let sum = Self::bin(BinOp::Add, a.clone(), b.clone());
        let (sum, cin) = match cin {
            Some(c) => (Self::bin(BinOp::Add, sum, Self::word(c.clone())), c),
            None => (sum, Self::bit(Self::c(0))),
        };
        let carry = Self::carry_add(a.clone(), b.clone(), cin.clone());
        (sum, carry, Self::overflow_add(a, b, cin))
    }

    /// `a - b (- bin)`: the difference, its borrow out and its signed
    /// overflow. The borrow is the host's CF after `sub`; the guest's C
    /// is its negation.
    #[inline]
    fn sub_with_borrow(
        a: Self::W,
        b: Self::W,
        bin: Option<Self::B>,
    ) -> (Self::W, Self::B, Self::B) {
        let diff = Self::bin(BinOp::Sub, a.clone(), b.clone());
        let (diff, bin) = match bin {
            Some(c) => (Self::bin(BinOp::Sub, diff, Self::word(c.clone())), c),
            None => (diff, Self::bit(Self::c(0))),
        };
        let borrow = Self::borrow_sub(a.clone(), b.clone(), bin.clone());
        (diff, borrow, Self::overflow_sub(a, b, bin))
    }

    /// Where the last bit shifted out of a word sits, as a distance from
    /// bit 0, when `op` (`Shl`, `Shr`, `Sar` or `Ror`) shifts by
    /// `amount` in `1..=31`.
    #[inline]
    fn carry_distance(op: BinOp, amount: Self::W) -> Self::W {
        if op == BinOp::Shl {
            Self::bin(BinOp::Sub, Self::c(32), amount)
        } else {
            Self::bin(BinOp::Sub, amount, Self::c(1))
        }
    }

    /// The shifter carry-out: the bit of `a` at `distance`
    /// ([`Domain::carry_distance`]), sign-filled for `Sar`.
    #[inline]
    fn shift_carry(op: BinOp, a: Self::W, distance: Self::W) -> Self::B {
        let down = if op == BinOp::Sar {
            BinOp::Sar
        } else {
            BinOp::Shr
        };
        Self::bit(Self::bin(
            BinOp::And,
            Self::bin(down, a, distance),
            Self::c(1),
        ))
    }
}

/// The concrete domain: words are `u32`, truth values are `bool`, and
/// every operator is evaluated on the spot.
#[derive(Debug, Clone, Copy)]
pub struct Concrete;

impl Domain for Concrete {
    type W = u32;
    type B = bool;

    #[inline]
    fn c(v: u32) -> u32 {
        v
    }
    #[inline]
    fn bin(op: BinOp, a: u32, b: u32) -> u32 {
        op.eval(a, b)
    }
    #[inline]
    fn un(op: UnOp, a: u32) -> u32 {
        op.eval(a)
    }
    #[inline]
    fn pred(op: PredOp, a: u32, b: u32) -> bool {
        op.eval(a, b)
    }
    #[inline]
    fn carry_add(a: u32, b: u32, cin: bool) -> bool {
        u64::from(a) + u64::from(b) + u64::from(cin) > u64::from(u32::MAX)
    }
    #[inline]
    fn borrow_sub(a: u32, b: u32, bin: bool) -> bool {
        u64::from(a) < u64::from(b) + u64::from(bin)
    }
    #[inline]
    fn overflow_add(a: u32, b: u32, cin: bool) -> bool {
        let r = a.wrapping_add(b).wrapping_add(u32::from(cin));
        (!(a ^ b) & (a ^ r)) & 0x8000_0000 != 0
    }
    #[inline]
    fn overflow_sub(a: u32, b: u32, bin: bool) -> bool {
        let r = a.wrapping_sub(b).wrapping_sub(u32::from(bin));
        ((a ^ b) & (a ^ r)) & 0x8000_0000 != 0
    }
    #[inline]
    fn ite(c: bool, t: u32, e: u32) -> u32 {
        if c {
            t
        } else {
            e
        }
    }
    #[inline]
    fn word(b: bool) -> u32 {
        u32::from(b)
    }
    #[inline]
    fn bit(w: u32) -> bool {
        w & 1 != 0
    }
}

/// The state an instruction acts on: registers, float registers,
/// flags, memory and the output stream, holding values of one
/// [`Domain`]. Implemented by the two interpreters' `Cpu`s and by the
/// verifier's symbolic states.
pub trait Machine {
    /// The word type, `D::W`.
    type W: Clone;
    /// The truth-value type, `D::B`.
    type B: Clone;
    /// The domain the machine's values live in.
    type D: Domain<W = Self::W, B = Self::B>;
    /// General-purpose register names.
    type Reg: Copy;
    /// Float register names.
    type FReg: Copy;
    /// What an access or a transfer the machine cannot perform raises,
    /// and what a malformed or undefined instruction is reported as.
    type Error: From<ExecError>;

    /// Reads a register as an operand.
    fn reg(&self, r: Self::Reg) -> Self::W;
    /// Writes a register.
    fn set_reg(&mut self, r: Self::Reg, v: Self::W);
    /// Reads a float register's bit pattern.
    fn freg(&self, r: Self::FReg) -> Self::W;
    /// Writes a float register's bit pattern.
    fn set_freg(&mut self, r: Self::FReg, v: Self::W);
    /// Reads a flag.
    fn flag(&self, f: Flag) -> Self::B;
    /// Writes a flag.
    fn set_flag(&mut self, f: Flag, v: Self::B);
    /// Loads `width` bits, zero-extended.
    ///
    /// # Errors
    ///
    /// The machine's memory fault.
    fn load(&self, addr: Self::W, width: Width) -> Result<Self::W, Self::Error>;
    /// Stores the low `width` bits of `v`.
    ///
    /// # Errors
    ///
    /// The machine's memory fault.
    fn store(&mut self, addr: Self::W, v: Self::W, width: Width) -> Result<(), Self::Error>;
    /// Appends a value to the output stream.
    fn output(&mut self, v: Self::W);
    /// Decides a condition control flow depends on.
    ///
    /// # Errors
    ///
    /// When the machine cannot tell (the condition is symbolic).
    fn decide(&self, cond: Self::B) -> Result<bool, Self::Error>;
    /// Resolves the destination of a control transfer.
    ///
    /// # Errors
    ///
    /// When the machine cannot tell (the address is symbolic).
    fn target(&self, addr: Self::W) -> Result<Addr, Self::Error>;

    /// Writes flag `f` where `cond` holds and keeps it elsewhere. This
    /// is a conditional *definition* of `f` (a shift by a zero amount
    /// leaves the flags alone), not a use of it.
    #[inline]
    fn set_flag_if(&mut self, cond: &Self::B, f: Flag, v: Self::B) {
        let kept = Self::D::word(self.flag(f));
        let v = Self::D::ite(cond.clone(), Self::D::word(v), kept);
        self.set_flag(f, Self::D::bit(v));
    }

    /// Writes N and Z from a result.
    #[inline]
    fn set_nz(&mut self, res: &Self::W) {
        let (n, z) = Self::D::nz(res);
        self.set_flag(Flag::N, n);
        self.set_flag(Flag::Z, z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(op, value, amount)` → `(shifted value, carry out)`.
    fn shift(op: BinOp, v: u32, amount: u32) -> (u32, bool) {
        let at = Concrete::carry_distance(op, amount);
        (op.eval(v, amount), Concrete::shift_carry(op, v, at))
    }

    #[test]
    fn shifter_result_and_carry_out() {
        assert_eq!(shift(BinOp::Shl, 1, 4), (16, false));
        assert_eq!(shift(BinOp::Shl, 0x8000_0000, 1), (0, true));
        assert_eq!(shift(BinOp::Shr, 0x8000_0000, 31), (1, false));
        assert_eq!(shift(BinOp::Shr, 3, 1), (1, true));
        assert_eq!(shift(BinOp::Sar, 0x8000_0000, 31), (0xffff_ffff, false));
        assert_eq!(shift(BinOp::Sar, 0xffff_fffe, 1), (0xffff_ffff, false));
        assert_eq!(shift(BinOp::Ror, 1, 1), (0x8000_0000, true));
        assert_eq!(shift(BinOp::Ror, 0xf000_000f, 4), (0xff00_0000, true));
    }

    #[test]
    fn carries_borrows_and_overflows() {
        let (r, c, v) = Concrete::add_with_carry(u32::MAX, 0, Some(true));
        assert_eq!((r, c, v), (0, true, false));
        let (r, c, v) = Concrete::add_with_carry(0x7fff_ffff, 1, None);
        assert_eq!((r, c, v), (0x8000_0000, false, true));
        let (r, b, v) = Concrete::sub_with_borrow(3, 5, None);
        assert_eq!((r, b, v), ((-2i32) as u32, true, false));
        let (r, b, v) = Concrete::sub_with_borrow(5, 5, Some(true));
        assert_eq!((r, b, v), (u32::MAX, true, false));
        let (r, b, v) = Concrete::sub_with_borrow(0x8000_0000, 1, None);
        assert_eq!((r, b, v), (0x7fff_ffff, false, true));
    }

    #[test]
    fn unordered_is_nan_on_either_side() {
        let (one, nan) = (1.0f32.to_bits(), f32::NAN.to_bits());
        assert!(!Concrete::unordered(&one, &one));
        assert!(Concrete::unordered(&nan, &one) && Concrete::unordered(&one, &nan));
    }

    #[test]
    fn negate_is_the_complement_of_an_integer_predicate() {
        use PredOp::*;
        let words = [0, 1, 0x7fff_ffff, 0x8000_0000, u32::MAX];
        for op in [Eq, Ne, Ltu, Geu, Lts, Ges, Gts, Les, Gtu, Leu] {
            let not = op.negate().expect("integer predicate");
            for (a, b) in words.iter().flat_map(|a| words.map(|b| (*a, b))) {
                assert_eq!(not.eval(a, b), !op.eval(a, b), "{op:?} {a:#x} {b:#x}");
            }
        }
        assert_eq!(FEq.negate(), None, "NaN makes both sides false");
    }
}
