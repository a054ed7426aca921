//! The symbolic term algebra.
//!
//! Terms are 32-bit bit-vector expressions over named symbols. Carry,
//! borrow and overflow are *primitive predicates* rather than derived
//! bit-twiddling, so that the guest and host symbolic evaluators produce
//! structurally aligned terms for semantically matching operations —
//! which is what lets the normalizing checker decide equivalence without
//! a full SMT solver (see DESIGN.md for the substitution rationale).
//!
//! A [`Term`] is a value two words wide. Its leaves — constants and
//! symbols — are inline, so the initial machine states (58 symbols
//! between them) and every immediate cost no allocation and no
//! reference count; only an operation allocates, one shared [`Node`].
//! Interior nodes are immutable and `Rc`-shared, so terms over them are
//! DAGs. [`SymMem`] is built the same way: the initial memory is a
//! value, each store one shared [`Store`].

use pdbt_isa::{Domain, Width};
use std::fmt;
use std::rc::Rc;

/// The operator vocabulary, defined (with its concrete meaning) next to
/// the [`Domain`] trait.
pub use pdbt_isa::{BinOp, PredOp, UnOp};

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
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SymMem {
    /// The initial memory state (shared by guest and host — the DBT
    /// identity-maps guest memory).
    #[default]
    Init,
    /// The memory after a store.
    Store(Rc<Store>),
}

/// One symbolic store. The fields are declared in the order the
/// canonical term order compares two chains: newest store first —
/// width, address, value — then the memory underneath.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Store {
    /// Store width.
    pub width: Width,
    /// Store address.
    pub addr: Term,
    /// Stored value (low `width` bits significant).
    pub val: Term,
    /// The memory before this store.
    pub prev: SymMem,
}

impl SymMem {
    /// This memory after storing the low `width` bits of `val` at `addr`.
    #[must_use]
    pub fn store(self, addr: Term, val: Term, width: Width) -> SymMem {
        SymMem::Store(Rc::new(Store {
            width,
            addr,
            val,
            prev: self,
        }))
    }

    /// The store chain from newest to oldest.
    pub fn stores(&self) -> impl Iterator<Item = &Store> {
        let mut cur = self;
        std::iter::from_fn(move || match cur {
            SymMem::Init => None,
            SymMem::Store(s) => {
                cur = &s.prev;
                Some(&**s)
            }
        })
    }
}

/// A 32-bit symbolic term.
///
/// `Ord` is the *canonical operand order* the normalizer sorts
/// commutative operands by — structural, total, `Equal` exactly when
/// `==` — and the variants are declared in it: symbols, then operations
/// (by [`Node`] variant, then operator, then operands left to right),
/// then constants. Constants sorting last is what makes canonical sums
/// look like `x + c`, which the normalizer's constant-chain
/// reassociation relies on; the rest of the order only has to be total
/// and agree with `==`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A symbolic input.
    Sym(Sym),
    /// An operation over terms.
    Node(Rc<Node>),
    /// A constant.
    Const(u32),
}

/// An interior node: one operation over terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Node {
    /// A unary operation.
    Un(UnOp, Term),
    /// A binary operation.
    Bin(BinOp, Term, Term),
    /// A comparison predicate (0/1).
    Pred(PredOp, Term, Term),
    /// Carry out of `a + b + cin` (0/1).
    CarryAdd(Term, Term, Term),
    /// Borrow out of `a - b - bin` (0/1). The guest's subtraction carry
    /// is `1 - borrow`; the host's CF after `sub` is the borrow itself.
    BorrowSub(Term, Term, Term),
    /// Signed overflow of `a + b + cin` (0/1).
    OverflowAdd(Term, Term, Term),
    /// Signed overflow of `a - b - bin` (0/1).
    OverflowSub(Term, Term, Term),
    /// `if c != 0 then t else e`.
    Ite(Term, Term, Term),
    /// A memory read.
    Read(SymMem, Term, Width),
}

impl Term {
    /// Constant constructor.
    #[must_use]
    pub fn c(v: u32) -> Term {
        Term::Const(v)
    }

    /// Symbol constructor.
    #[must_use]
    pub fn sym(s: Sym) -> Term {
        Term::Sym(s)
    }

    /// Operation constructor (unnormalized): the one place a term
    /// allocates.
    #[must_use]
    pub fn node(n: Node) -> Term {
        Term::Node(Rc::new(n))
    }

    /// Binary-operation constructor (unnormalized).
    #[must_use]
    pub fn bin(op: BinOp, a: Term, b: Term) -> Term {
        Term::node(Node::Bin(op, a, b))
    }

    /// Unary-operation constructor (unnormalized).
    #[must_use]
    pub fn un(op: UnOp, a: Term) -> Term {
        Term::node(Node::Un(op, a))
    }

    /// Predicate constructor (unnormalized).
    #[must_use]
    pub fn pred(op: PredOp, a: Term, b: Term) -> Term {
        Term::node(Node::Pred(op, a, b))
    }

    /// Whether the term is the constant `v`.
    #[must_use]
    pub fn is_const(&self, v: u32) -> bool {
        matches!(self, Term::Const(c) if *c == v)
    }

    /// The operation, if the term is one.
    #[must_use]
    pub fn as_node(&self) -> Option<&Node> {
        match self {
            Term::Node(n) => Some(n),
            Term::Sym(_) | Term::Const(_) => None,
        }
    }

    /// All symbols appearing in the term.
    pub fn collect_syms(&self, out: &mut Vec<Sym>) {
        let node = match self {
            Term::Const(_) => return,
            Term::Sym(s) => {
                if !out.contains(s) {
                    out.push(*s);
                }
                return;
            }
            Term::Node(n) => &**n,
        };
        match node {
            Node::Bin(_, a, b) | Node::Pred(_, a, b) => {
                a.collect_syms(out);
                b.collect_syms(out);
            }
            Node::Un(_, a) => a.collect_syms(out),
            Node::CarryAdd(a, b, c)
            | Node::BorrowSub(a, b, c)
            | Node::OverflowAdd(a, b, c)
            | Node::OverflowSub(a, b, c)
            | Node::Ite(a, b, c) => {
                a.collect_syms(out);
                b.collect_syms(out);
                c.collect_syms(out);
            }
            Node::Read(mem, addr, _) => {
                addr.collect_syms(out);
                for s in mem.stores() {
                    s.addr.collect_syms(out);
                    s.val.collect_syms(out);
                }
            }
        }
    }
}

/// The symbolic domain: words and truth values are terms (a truth
/// value is a 0/1-valued term), and every operator builds its node
/// unevaluated. `eval` is the other half of the [`Domain`] contract.
impl Domain for Term {
    type W = Term;
    type B = Term;

    fn c(v: u32) -> Term {
        Term::c(v)
    }
    fn bin(op: BinOp, a: Term, b: Term) -> Term {
        Term::bin(op, a, b)
    }
    fn un(op: UnOp, a: Term) -> Term {
        Term::un(op, a)
    }
    fn pred(op: PredOp, a: Term, b: Term) -> Term {
        Term::pred(op, a, b)
    }
    fn carry_add(a: Term, b: Term, cin: Term) -> Term {
        Term::node(Node::CarryAdd(a, b, cin))
    }
    fn borrow_sub(a: Term, b: Term, bin: Term) -> Term {
        Term::node(Node::BorrowSub(a, b, bin))
    }
    fn overflow_add(a: Term, b: Term, cin: Term) -> Term {
        Term::node(Node::OverflowAdd(a, b, cin))
    }
    fn overflow_sub(a: Term, b: Term, bin: Term) -> Term {
        Term::node(Node::OverflowSub(a, b, bin))
    }
    fn ite(c: Term, t: Term, e: Term) -> Term {
        Term::node(Node::Ite(c, t, e))
    }
    fn word(b: Term) -> Term {
        b
    }
    fn bit(w: Term) -> Term {
        w
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{v:#x}"),
            Term::Sym(s) => write!(f, "{s}"),
            Term::Node(n) => write!(f, "{n}"),
        }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Bin(op, a, b) => write!(f, "({op:?} {a} {b})"),
            Node::Un(op, a) => write!(f, "({op:?} {a})"),
            Node::Pred(op, a, b) => write!(f, "({op:?} {a} {b})"),
            Node::CarryAdd(a, b, c) => write!(f, "(carry+ {a} {b} {c})"),
            Node::BorrowSub(a, b, c) => write!(f, "(borrow- {a} {b} {c})"),
            Node::OverflowAdd(a, b, c) => write!(f, "(ovf+ {a} {b} {c})"),
            Node::OverflowSub(a, b, c) => write!(f, "(ovf- {a} {b} {c})"),
            Node::Ite(c, t, e) => write!(f, "(ite {c} {t} {e})"),
            Node::Read(_, addr, w) => write!(f, "(read{w} {addr})"),
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
    fn store_chain_is_newest_first() {
        let mem = SymMem::Init
            .store(Term::c(4), Term::c(1), Width::B32)
            .store(Term::c(8), Term::c(2), Width::B32);
        let addrs: Vec<&Term> = mem.stores().map(|s| &s.addr).collect();
        assert_eq!(addrs, [&Term::c(8), &Term::c(4)]);
    }
}
