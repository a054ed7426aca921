//! The symbolic term algebra.
//!
//! Terms are 32-bit bit-vector expressions over named symbols. Carry,
//! borrow and overflow are *primitive predicates* rather than derived
//! bit-twiddling, so that the guest and host symbolic evaluators produce
//! structurally aligned terms for semantically matching operations —
//! which is what lets the normalizing checker decide equivalence without
//! a full SMT solver (see DESIGN.md for the substitution rationale).

use pdbt_isa::{Domain, Width};
use std::fmt;
use std::rc::Rc;

/// The operator vocabulary, defined (with its concrete meaning) next to
/// the [`Domain`] trait.
pub use pdbt_isa::{BinOp, PredOp, UnOp};

/// A reference-counted term.
pub type TermRef = Rc<Term>;

/// A named symbolic input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sym {
    /// The initial value of a *rule parameter* — the `i`-th mapped
    /// operand register pair.
    Param(u8),
    /// The initial value of an unmapped guest register.
    GuestReg(u8),
    /// The initial value of an unmapped host register.
    HostReg(u8),
    /// The initial value of a guest flag (N=0, Z=1, C=2, V=3); 0/1-valued.
    Flag(u8),
    /// The initial value of a host flag; 0/1-valued.
    HostFlag(u8),
    /// The guest program counter (for PC-relative rules).
    Pc,
    /// A free symbol.
    Free(u16),
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sym::Param(i) => write!(f, "p{i}"),
            Sym::GuestReg(i) => write!(f, "g{i}"),
            Sym::HostReg(i) => write!(f, "h{i}"),
            Sym::Flag(i) => write!(f, "f{i}"),
            Sym::HostFlag(i) => write!(f, "hf{i}"),
            Sym::Pc => write!(f, "pc"),
            Sym::Free(i) => write!(f, "s{i}"),
        }
    }
}

/// A symbolic memory: the initial memory plus a chain of symbolic stores.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SymMem {
    /// The initial memory state (shared by guest and host — the DBT
    /// identity-maps guest memory).
    Init,
    /// A store on top of `prev`.
    Store {
        /// The memory before this store.
        prev: Rc<SymMem>,
        /// Store address.
        addr: TermRef,
        /// Stored value (low `width` bits significant).
        val: TermRef,
        /// Store width.
        width: Width,
    },
}

impl SymMem {
    /// The store chain from oldest to newest.
    #[must_use]
    pub fn stores(&self) -> Vec<(&TermRef, &TermRef, Width)> {
        let mut out = Vec::new();
        let mut cur = self;
        while let SymMem::Store {
            prev,
            addr,
            val,
            width,
        } = cur
        {
            out.push((addr, val, *width));
            cur = prev;
        }
        out.reverse();
        out
    }
}

/// A 32-bit symbolic term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A constant.
    Const(u32),
    /// A symbolic input.
    Sym(Sym),
    /// A binary operation.
    Bin(BinOp, TermRef, TermRef),
    /// A unary operation.
    Un(UnOp, TermRef),
    /// A comparison predicate (0/1).
    Pred(PredOp, TermRef, TermRef),
    /// Carry out of `a + b + cin` (0/1).
    CarryAdd(TermRef, TermRef, TermRef),
    /// Borrow out of `a - b - bin` (0/1). The guest's subtraction carry
    /// is `1 - borrow`; the host's CF after `sub` is the borrow itself.
    BorrowSub(TermRef, TermRef, TermRef),
    /// Signed overflow of `a + b + cin` (0/1).
    OverflowAdd(TermRef, TermRef, TermRef),
    /// Signed overflow of `a - b - bin` (0/1).
    OverflowSub(TermRef, TermRef, TermRef),
    /// `if c != 0 then t else e`.
    Ite(TermRef, TermRef, TermRef),
    /// A memory read.
    Read(Rc<SymMem>, TermRef, Width),
}

impl Term {
    /// Constant constructor.
    #[must_use]
    pub fn c(v: u32) -> TermRef {
        Rc::new(Term::Const(v))
    }

    /// Symbol constructor.
    #[must_use]
    pub fn sym(s: Sym) -> TermRef {
        Rc::new(Term::Sym(s))
    }

    /// Binary-operation constructor (unnormalized).
    #[must_use]
    pub fn bin(op: BinOp, a: TermRef, b: TermRef) -> TermRef {
        Rc::new(Term::Bin(op, a, b))
    }

    /// Unary-operation constructor (unnormalized).
    #[must_use]
    pub fn un(op: UnOp, a: TermRef) -> TermRef {
        Rc::new(Term::Un(op, a))
    }

    /// Predicate constructor (unnormalized).
    #[must_use]
    pub fn pred(op: PredOp, a: TermRef, b: TermRef) -> TermRef {
        Rc::new(Term::Pred(op, a, b))
    }

    /// Whether the term is the constant `v`.
    #[must_use]
    pub fn is_const(&self, v: u32) -> bool {
        matches!(self, Term::Const(c) if *c == v)
    }

    /// All symbols appearing in the term.
    pub fn collect_syms(&self, out: &mut Vec<Sym>) {
        match self {
            Term::Const(_) => {}
            Term::Sym(s) => {
                if !out.contains(s) {
                    out.push(*s);
                }
            }
            Term::Bin(_, a, b) | Term::Pred(_, a, b) => {
                a.collect_syms(out);
                b.collect_syms(out);
            }
            Term::Un(_, a) => a.collect_syms(out),
            Term::CarryAdd(a, b, c)
            | Term::BorrowSub(a, b, c)
            | Term::OverflowAdd(a, b, c)
            | Term::OverflowSub(a, b, c)
            | Term::Ite(a, b, c) => {
                a.collect_syms(out);
                b.collect_syms(out);
                c.collect_syms(out);
            }
            Term::Read(mem, addr, _) => {
                addr.collect_syms(out);
                let mut cur: &SymMem = mem;
                while let SymMem::Store {
                    prev, addr, val, ..
                } = cur
                {
                    addr.collect_syms(out);
                    val.collect_syms(out);
                    cur = prev;
                }
            }
        }
    }
}

/// The symbolic domain: words and truth values are terms (a truth
/// value is a 0/1-valued term), and every operator builds its node
/// unevaluated. `eval` is the other half of the [`Domain`] contract.
impl Domain for Term {
    type W = TermRef;
    type B = TermRef;

    fn c(v: u32) -> TermRef {
        Term::c(v)
    }
    fn bin(op: BinOp, a: TermRef, b: TermRef) -> TermRef {
        Term::bin(op, a, b)
    }
    fn un(op: UnOp, a: TermRef) -> TermRef {
        Term::un(op, a)
    }
    fn pred(op: PredOp, a: TermRef, b: TermRef) -> TermRef {
        Term::pred(op, a, b)
    }
    fn carry_add(a: TermRef, b: TermRef, cin: TermRef) -> TermRef {
        Rc::new(Term::CarryAdd(a, b, cin))
    }
    fn borrow_sub(a: TermRef, b: TermRef, bin: TermRef) -> TermRef {
        Rc::new(Term::BorrowSub(a, b, bin))
    }
    fn overflow_add(a: TermRef, b: TermRef, cin: TermRef) -> TermRef {
        Rc::new(Term::OverflowAdd(a, b, cin))
    }
    fn overflow_sub(a: TermRef, b: TermRef, bin: TermRef) -> TermRef {
        Rc::new(Term::OverflowSub(a, b, bin))
    }
    fn ite(c: TermRef, t: TermRef, e: TermRef) -> TermRef {
        Rc::new(Term::Ite(c, t, e))
    }
    fn word(b: TermRef) -> TermRef {
        b
    }
    fn bit(w: TermRef) -> TermRef {
        w
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{v:#x}"),
            Term::Sym(s) => write!(f, "{s}"),
            Term::Bin(op, a, b) => write!(f, "({op:?} {a} {b})"),
            Term::Un(op, a) => write!(f, "({op:?} {a})"),
            Term::Pred(op, a, b) => write!(f, "({op:?} {a} {b})"),
            Term::CarryAdd(a, b, c) => write!(f, "(carry+ {a} {b} {c})"),
            Term::BorrowSub(a, b, c) => write!(f, "(borrow- {a} {b} {c})"),
            Term::OverflowAdd(a, b, c) => write!(f, "(ovf+ {a} {b} {c})"),
            Term::OverflowSub(a, b, c) => write!(f, "(ovf- {a} {b} {c})"),
            Term::Ite(c, t, e) => write!(f, "(ite {c} {t} {e})"),
            Term::Read(_, addr, w) => write!(f, "(read{w} {addr})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval() {
        assert_eq!(BinOp::Add.eval(u32::MAX, 1), 0);
        assert_eq!(BinOp::Sub.eval(3, 5), (-2i32) as u32);
        assert_eq!(BinOp::Sar.eval(0x8000_0000, 31), u32::MAX);
        assert_eq!(BinOp::MulhU.eval(u32::MAX, 0x10), 0xf);
        assert_eq!(BinOp::Ror.eval(1, 1), 0x8000_0000);
    }

    #[test]
    fn predop_eval() {
        assert!(PredOp::Ltu.eval(1, u32::MAX));
        assert!(!PredOp::Lts.eval(1, u32::MAX));
        assert!(PredOp::Ges.eval(0, u32::MAX));
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Clz.eval(0), 32);
        assert_eq!(UnOp::Neg.eval(1), u32::MAX);
    }

    #[test]
    fn collect_syms_dedups() {
        let t = Term::bin(
            BinOp::Add,
            Term::sym(Sym::Param(0)),
            Term::bin(
                BinOp::Xor,
                Term::sym(Sym::Param(0)),
                Term::sym(Sym::Param(1)),
            ),
        );
        let mut syms = Vec::new();
        t.collect_syms(&mut syms);
        assert_eq!(syms, vec![Sym::Param(0), Sym::Param(1)]);
    }

    #[test]
    fn store_chain_order() {
        let m0 = Rc::new(SymMem::Init);
        let m1 = Rc::new(SymMem::Store {
            prev: m0,
            addr: Term::c(4),
            val: Term::c(1),
            width: Width::B32,
        });
        let m2 = Rc::new(SymMem::Store {
            prev: m1,
            addr: Term::c(8),
            val: Term::c(2),
            width: Width::B32,
        });
        let stores = m2.stores();
        assert_eq!(stores.len(), 2);
        assert!(stores[0].0.is_const(4) && stores[1].0.is_const(8));
    }
}
