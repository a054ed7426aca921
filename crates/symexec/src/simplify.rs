//! The normalizing rewriter.
//!
//! Rewrites terms into a canonical form: constants folded, commutative
//! operands ordered, algebraic identities applied. Two semantically
//! matching sequences produced by the aligned guest/host evaluators
//! normalize to structurally equal terms, which is the fast path of the
//! equivalence checker.
//!
//! The rewriter *shares*: it rebuilds a node only where an operand came
//! back different or a rule fired, and otherwise hands back the node it
//! was given — the same `Rc`, no allocation. Normalizing a normal form
//! is therefore free, and `simplify(&simplify(t))` is `simplify(t)` by
//! pointer, not just by value.

use crate::term::{BinOp, Node, PredOp, Sym, SymMem, Term, UnOp};
use std::rc::Rc;

/// Whether normalization handed `old` back: the same leaf, or the same
/// shared node. Equal nodes at different addresses count as changed —
/// that only costs the allocation sharing would have saved.
fn same(new: &Term, old: &Term) -> bool {
    match (new, old) {
        (Term::Node(n), Term::Node(o)) => Rc::ptr_eq(n, o),
        (Term::Node(_), _) | (_, Term::Node(_)) => false,
        _ => new == old,
    }
}

/// [`same`] for memories.
fn same_mem(new: &SymMem, old: &SymMem) -> bool {
    match (new, old) {
        (SymMem::Init, SymMem::Init) => true,
        (SymMem::Store(n), SymMem::Store(o)) => Rc::ptr_eq(n, o),
        _ => false,
    }
}

/// The node `(x op c)` with `c` constant, if `t` is one.
fn bin_with_const(t: &Term) -> Option<(BinOp, &Term, u32)> {
    match t.as_node()? {
        Node::Bin(op, x, Term::Const(c)) => Some((*op, x, *c)),
        _ => None,
    }
}

/// Normalizes a term.
#[must_use]
pub fn simplify(t: &Term) -> Term {
    let node = match t {
        Term::Const(_) | Term::Sym(_) => return t.clone(),
        Term::Node(n) => &**n,
    };
    match node {
        Node::Un(op, a0) => {
            let a = simplify(a0);
            if let Term::Const(v) = a {
                return Term::c(op.eval(v));
            }
            // not(not x) = x, neg(neg x) = x
            if let Some(Node::Un(inner, x)) = a.as_node() {
                if inner == op && matches!(op, UnOp::Not | UnOp::Neg) {
                    return x.clone();
                }
            }
            if same(&a, a0) {
                return t.clone();
            }
            Term::un(*op, a)
        }
        Node::Bin(op, a0, b0) => {
            let mut a = simplify(a0);
            let mut b = simplify(b0);
            if let (Term::Const(x), Term::Const(y)) = (&a, &b) {
                return Term::c(op.eval(*x, *y));
            }
            if op.is_commutative() && a > b {
                std::mem::swap(&mut a, &mut b);
            }
            // Identities.
            match op {
                BinOp::Add => {
                    if a.is_const(0) {
                        return b;
                    }
                    if b.is_const(0) {
                        return a;
                    }
                }
                BinOp::Sub => {
                    if b.is_const(0) {
                        return a;
                    }
                    if a == b {
                        return Term::c(0);
                    }
                }
                BinOp::And => {
                    if a.is_const(0) || b.is_const(0) {
                        return Term::c(0);
                    }
                    if a.is_const(u32::MAX) {
                        return b;
                    }
                    if b.is_const(u32::MAX) {
                        return a;
                    }
                    if a == b {
                        return a;
                    }
                }
                BinOp::Or => {
                    if a.is_const(0) {
                        return b;
                    }
                    if b.is_const(0) {
                        return a;
                    }
                    if a == b {
                        return a;
                    }
                    if a.is_const(u32::MAX) || b.is_const(u32::MAX) {
                        return Term::c(u32::MAX);
                    }
                }
                BinOp::Xor => {
                    if a.is_const(0) {
                        return b;
                    }
                    if b.is_const(0) {
                        return a;
                    }
                    if a == b {
                        return Term::c(0);
                    }
                }
                BinOp::Shl | BinOp::Shr | BinOp::Sar | BinOp::Ror => {
                    if b.is_const(0) {
                        return a;
                    }
                    if a.is_const(0) && *op != BinOp::Sar {
                        return Term::c(0);
                    }
                }
                BinOp::Mul => {
                    if a.is_const(0) || b.is_const(0) {
                        return Term::c(0);
                    }
                    if a.is_const(1) {
                        return b;
                    }
                    if b.is_const(1) {
                        return a;
                    }
                }
                BinOp::MulhU => {
                    if a.is_const(0) || b.is_const(0) {
                        return Term::c(0);
                    }
                }
                // Float identities are not algebraically safe (NaN, -0.0);
                // float terms only fold when both operands are constant.
                BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => {}
            }
            if let Term::Const(c2) = b {
                // Reassociate constant chains: (x + c1) + c2 → x + (c1+c2);
                // also (x - c1) - c2 and (x + c1) - c2 style mixes.
                if let Some((inner_op, x, c1)) = bin_with_const(&a) {
                    let merged = match (inner_op, op) {
                        (BinOp::Add, BinOp::Add) => Some((BinOp::Add, c1.wrapping_add(c2))),
                        (BinOp::Add, BinOp::Sub) => Some((BinOp::Add, c1.wrapping_sub(c2))),
                        (BinOp::Sub, BinOp::Sub) => Some((BinOp::Sub, c1.wrapping_add(c2))),
                        _ => None,
                    };
                    if let Some((op, c)) = merged {
                        return simplify(&Term::bin(op, x.clone(), Term::c(c)));
                    }
                }
                // Canonicalize x - c → x + (-c) so add/sub chains merge.
                if *op == BinOp::Sub {
                    return simplify(&Term::bin(BinOp::Add, a, Term::c(c2.wrapping_neg())));
                }
            }
            if same(&a, a0) && same(&b, b0) {
                return t.clone();
            }
            Term::bin(*op, a, b)
        }
        Node::Pred(op, a0, b0) => {
            let a = simplify(a0);
            let b = simplify(b0);
            if let (Term::Const(x), Term::Const(y)) = (&a, &b) {
                return Term::c(u32::from(op.eval(*x, *y)));
            }
            // Predicates over a 0/1-valued term against 0: `(p != 0)` is
            // `p`, `(p == 0)` is `1 - p` canonicalized as xor 1.
            if b.is_const(0) && is_boolean(&a) {
                match op {
                    PredOp::Ne => return a,
                    PredOp::Eq => {
                        return simplify(&Term::bin(BinOp::Xor, a, Term::c(1)));
                    }
                    _ => {}
                }
            }
            if same(&a, a0) && same(&b, b0) {
                return t.clone();
            }
            Term::pred(*op, a, b)
        }
        Node::CarryAdd(a0, b0, c0) => {
            let (a, b, c) = (simplify(a0), simplify(b0), simplify(c0));
            if let (Term::Const(x), Term::Const(y), Term::Const(z)) = (&a, &b, &c) {
                let wide = u64::from(*x) + u64::from(*y) + u64::from(*z & 1);
                return Term::c(u32::from(wide > u64::from(u32::MAX)));
            }
            let (a, b) = order_pair(a, b);
            if same(&a, a0) && same(&b, b0) && same(&c, c0) {
                return t.clone();
            }
            Term::node(Node::CarryAdd(a, b, c))
        }
        Node::BorrowSub(a0, b0, c0) => {
            let (a, b, c) = (simplify(a0), simplify(b0), simplify(c0));
            if let (Term::Const(x), Term::Const(y), Term::Const(z)) = (&a, &b, &c) {
                let borrow = u64::from(*x) < u64::from(*y) + u64::from(*z & 1);
                return Term::c(u32::from(borrow));
            }
            if same(&a, a0) && same(&b, b0) && same(&c, c0) {
                return t.clone();
            }
            Term::node(Node::BorrowSub(a, b, c))
        }
        Node::OverflowAdd(a0, b0, c0) => {
            let (a, b, c) = (simplify(a0), simplify(b0), simplify(c0));
            if let (Term::Const(x), Term::Const(y), Term::Const(z)) = (&a, &b, &c) {
                let r = x.wrapping_add(*y).wrapping_add(*z & 1);
                let v = (!(x ^ y) & (x ^ r)) & 0x8000_0000 != 0;
                return Term::c(u32::from(v));
            }
            let (a, b) = order_pair(a, b);
            if same(&a, a0) && same(&b, b0) && same(&c, c0) {
                return t.clone();
            }
            Term::node(Node::OverflowAdd(a, b, c))
        }
        Node::OverflowSub(a0, b0, c0) => {
            let (a, b, c) = (simplify(a0), simplify(b0), simplify(c0));
            if let (Term::Const(x), Term::Const(y), Term::Const(z)) = (&a, &b, &c) {
                let r = x.wrapping_sub(*y).wrapping_sub(*z & 1);
                let v = ((x ^ y) & (x ^ r)) & 0x8000_0000 != 0;
                return Term::c(u32::from(v));
            }
            if same(&a, a0) && same(&b, b0) && same(&c, c0) {
                return t.clone();
            }
            Term::node(Node::OverflowSub(a, b, c))
        }
        Node::Ite(c0, th0, el0) => {
            let (c, th, el) = (simplify(c0), simplify(th0), simplify(el0));
            if let Term::Const(v) = c {
                return if v != 0 { th } else { el };
            }
            if th == el {
                return th;
            }
            if same(&c, c0) && same(&th, th0) && same(&el, el0) {
                return t.clone();
            }
            Term::node(Node::Ite(c, th, el))
        }
        Node::Read(mem0, addr0, width) => {
            let addr = simplify(addr0);
            let mem = simplify_mem(mem0);
            // Store-to-load forwarding for syntactically equal addresses
            // and widths (sound but incomplete: differing symbolic
            // addresses conservatively keep the read).
            for s in mem.stores() {
                if s.addr == addr && s.width == *width {
                    return if *width == pdbt_isa::Width::B32 {
                        s.val.clone()
                    } else {
                        simplify(&Term::bin(BinOp::And, s.val.clone(), Term::c(width.mask())))
                    };
                }
                // Distinct constant addresses cannot alias (width-aware).
                let no_alias = matches!((&s.addr, &addr), (Term::Const(sa), Term::Const(da))
                    if sa.wrapping_add(s.width.bytes()) <= *da
                        || da.wrapping_add(width.bytes()) <= *sa);
                if !no_alias {
                    break;
                }
            }
            if same(&addr, addr0) && same_mem(&mem, mem0) {
                return t.clone();
            }
            Term::node(Node::Read(mem, addr, *width))
        }
    }
}

/// The two in canonical order ([`Term`]'s `Ord`).
fn order_pair(a: Term, b: Term) -> (Term, Term) {
    if a > b {
        (b, a)
    } else {
        (a, b)
    }
}

/// Whether a term is known to be 0/1-valued.
fn is_boolean(t: &Term) -> bool {
    match t {
        Term::Const(v) => *v <= 1,
        Term::Sym(s) => matches!(s, Sym::Flag(_) | Sym::HostFlag(_)),
        Term::Node(n) => matches!(
            **n,
            Node::Pred(..)
                | Node::CarryAdd(..)
                | Node::BorrowSub(..)
                | Node::OverflowAdd(..)
                | Node::OverflowSub(..)
        ),
    }
}

/// Normalizes a symbolic memory (simplifying store addresses/values),
/// sharing every store nothing changed under.
#[must_use]
pub fn simplify_mem(m: &SymMem) -> SymMem {
    let SymMem::Store(s) = m else {
        return SymMem::Init;
    };
    let (prev, addr, val) = (simplify_mem(&s.prev), simplify(&s.addr), simplify(&s.val));
    if same_mem(&prev, &s.prev) && same(&addr, &s.addr) && same(&val, &s.val) {
        return m.clone();
    }
    prev.store(addr, val, s.width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdbt_isa::Width;

    fn p(i: u8) -> Term {
        Term::sym(Sym::Param(i))
    }

    #[test]
    fn constant_folding() {
        let t = Term::bin(BinOp::Add, Term::c(3), Term::c(4));
        assert!(simplify(&t).is_const(7));
        let t = Term::un(UnOp::Not, Term::c(0));
        assert!(simplify(&t).is_const(u32::MAX));
        let t = Term::pred(PredOp::Ltu, Term::c(1), Term::c(2));
        assert!(simplify(&t).is_const(1));
    }

    #[test]
    fn commutative_ordering_makes_equal() {
        let ab = simplify(&Term::bin(BinOp::Add, p(0), p(1)));
        let ba = simplify(&Term::bin(BinOp::Add, p(1), p(0)));
        assert_eq!(ab, ba);
        // Non-commutative must not reorder.
        let s1 = simplify(&Term::bin(BinOp::Sub, p(0), p(1)));
        let s2 = simplify(&Term::bin(BinOp::Sub, p(1), p(0)));
        assert_ne!(s1, s2);
    }

    #[test]
    fn identities() {
        assert_eq!(simplify(&Term::bin(BinOp::Add, p(0), Term::c(0))), p(0));
        assert!(simplify(&Term::bin(BinOp::Xor, p(0), p(0))).is_const(0));
        assert_eq!(simplify(&Term::bin(BinOp::And, p(0), p(0))), p(0));
        assert!(simplify(&Term::bin(BinOp::Mul, p(0), Term::c(0))).is_const(0));
        assert_eq!(
            simplify(&Term::un(UnOp::Not, Term::un(UnOp::Not, p(3)))),
            p(3)
        );
        assert!(simplify(&Term::bin(BinOp::Sub, p(2), p(2))).is_const(0));
    }

    #[test]
    fn constant_chain_reassociation() {
        // (p0 + 4) + 8 → p0 + 12
        let t = Term::bin(
            BinOp::Add,
            Term::bin(BinOp::Add, p(0), Term::c(4)),
            Term::c(8),
        );
        let expect = simplify(&Term::bin(BinOp::Add, p(0), Term::c(12)));
        assert_eq!(simplify(&t), expect);
        // (p0 - 4) - 8 → p0 - 12 ≡ p0 + (-12)
        let t = Term::bin(
            BinOp::Sub,
            Term::bin(BinOp::Sub, p(0), Term::c(4)),
            Term::c(8),
        );
        let expect = simplify(&Term::bin(BinOp::Add, p(0), Term::c(12u32.wrapping_neg())));
        assert_eq!(simplify(&t), expect);
    }

    #[test]
    fn sub_const_canonicalizes_to_add() {
        let sub = simplify(&Term::bin(BinOp::Sub, p(0), Term::c(1)));
        let add = simplify(&Term::bin(BinOp::Add, p(0), Term::c(1u32.wrapping_neg())));
        assert_eq!(sub, add);
    }

    #[test]
    fn boolean_predicates_collapse() {
        let carry = Term::node(Node::CarryAdd(p(0), p(1), Term::c(0)));
        // (carry != 0) → carry
        let t = Term::pred(PredOp::Ne, carry.clone(), Term::c(0));
        assert_eq!(simplify(&t), simplify(&carry));
    }

    #[test]
    fn store_to_load_forwarding() {
        let mem = SymMem::Init.store(p(0), p(1), Width::B32);
        let read = Term::node(Node::Read(mem, p(0), Width::B32));
        assert_eq!(simplify(&read), p(1));
    }

    #[test]
    fn read_skips_non_aliasing_constant_store() {
        let mem = SymMem::Init.store(Term::c(0x100), p(1), Width::B32).store(
            Term::c(0x200),
            p(2),
            Width::B32,
        );
        let read = Term::node(Node::Read(mem, Term::c(0x100), Width::B32));
        assert_eq!(simplify(&read), p(1));
    }

    #[test]
    fn ite_simplifies() {
        let t = Term::node(Node::Ite(Term::c(1), p(0), p(1)));
        assert_eq!(simplify(&t), p(0));
        let t = Term::node(Node::Ite(p(2), p(0), p(0)));
        assert_eq!(simplify(&t), p(0));
    }

    /// The canonical order tells apart what `Display` prints alike: two
    /// reads of one address through different store chains.
    #[test]
    fn reads_through_different_chains_are_ordered() {
        // A byte store to `p0` does not forward to a word read of `p0`,
        // so the read after it keeps its chain.
        let before = Term::node(Node::Read(SymMem::Init, p(0), Width::B32));
        let stored = SymMem::Init.store(p(0), p(1), Width::B8);
        let after = Term::node(Node::Read(stored, p(0), Width::B32));
        assert_eq!(before.to_string(), after.to_string());
        assert_ne!(before, after);
        let ab = simplify(&Term::bin(BinOp::Add, before.clone(), after.clone()));
        let ba = simplify(&Term::bin(BinOp::Add, after, before));
        assert_eq!(ab, ba);
    }

    #[test]
    fn a_normal_form_is_shared_not_rebuilt() {
        let t = Term::bin(BinOp::Add, Term::bin(BinOp::Xor, p(1), p(0)), Term::c(4));
        let once = simplify(&t);
        let (Term::Node(a), Term::Node(b)) = (&once, &simplify(&once)) else {
            panic!("an operation stays one");
        };
        assert!(Rc::ptr_eq(a, b));
        // Only the operand that was out of order was rebuilt.
        assert!(!same(&once, &t));
        let ordered = Term::bin(BinOp::Add, Term::bin(BinOp::Xor, p(0), p(1)), Term::c(4));
        assert!(same(&simplify(&ordered), &ordered));
    }

    #[test]
    fn carry_is_commutative_in_addends() {
        let c1 = Term::node(Node::CarryAdd(p(0), p(1), Term::c(0)));
        let c2 = Term::node(Node::CarryAdd(p(1), p(0), Term::c(0)));
        assert_eq!(simplify(&c1), simplify(&c2));
    }
}
