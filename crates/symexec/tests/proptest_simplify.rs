//! Randomized tests for the normalizing rewriter: simplification
//! preserves concrete meaning, is idempotent — by pointer, it shares
//! what it does not rewrite — and canonicalizes commutativity by an
//! order that is total and agrees with `==`.
//!
//! Originally written with `proptest`; the offline build environment has
//! no crates.io access, so the strategies are hand-rolled samplers over
//! the deterministic in-tree PRNG (`pdbt-rng`, aliased as `rand`).

use pdbt_isa::Width;
use pdbt_symexec::term::{BinOp, Node, PredOp, Sym, SymMem, Term, UnOp};
use pdbt_symexec::{eval, simplify, Assignment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::rc::Rc;

fn cases() -> usize {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

fn leaf(rng: &mut StdRng) -> Term {
    match rng.gen_range(0..3) {
        0 => Term::c(rng.gen()),
        1 => Term::sym(Sym::Param(rng.gen_range(0u8..4))),
        _ => Term::sym(Sym::Flag(rng.gen_range(0u8..4))),
    }
}

/// A random term of bounded depth (mirrors the old
/// `leaf().prop_recursive(4, …)` strategy).
fn term(rng: &mut StdRng, depth: usize) -> Term {
    if depth == 0 || rng.gen_bool(0.3) {
        return leaf(rng);
    }
    match rng.gen_range(0..7) {
        0 | 1 => {
            const OPS: [BinOp; 11] = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::And,
                BinOp::Or,
                BinOp::Xor,
                BinOp::Shl,
                BinOp::Shr,
                BinOp::Sar,
                BinOp::Ror,
                BinOp::Mul,
                BinOp::MulhU,
            ];
            Term::bin(
                OPS[rng.gen_range(0..11)],
                term(rng, depth - 1),
                term(rng, depth - 1),
            )
        }
        2 => {
            const OPS: [UnOp; 3] = [UnOp::Not, UnOp::Neg, UnOp::Clz];
            Term::un(OPS[rng.gen_range(0..3)], term(rng, depth - 1))
        }
        3 => {
            const OPS: [PredOp; 10] = [
                PredOp::Eq,
                PredOp::Ne,
                PredOp::Ltu,
                PredOp::Geu,
                PredOp::Lts,
                PredOp::Ges,
                PredOp::Gts,
                PredOp::Les,
                PredOp::Gtu,
                PredOp::Leu,
            ];
            Term::pred(
                OPS[rng.gen_range(0..10)],
                term(rng, depth - 1),
                term(rng, depth - 1),
            )
        }
        4 => Term::node(Node::Ite(
            term(rng, depth - 1),
            term(rng, depth - 1),
            term(rng, depth - 1),
        )),
        5 => {
            // A read through zero to two stores, over few enough
            // addresses and widths that forwarding, the no-alias skip
            // and same-address-different-chain reads all occur.
            const WIDTHS: [Width; 3] = [Width::B8, Width::B16, Width::B32];
            let addr = |rng: &mut StdRng| match rng.gen_range(0..4) {
                0 => Term::c(0x100),
                1 => Term::c(0x104),
                _ => Term::sym(Sym::Param(rng.gen_range(0u8..2))),
            };
            let mut mem = SymMem::Init;
            for _ in 0..rng.gen_range(0..3) {
                let (a, v) = (addr(rng), term(rng, depth - 1));
                mem = mem.store(a, v, WIDTHS[rng.gen_range(0..3)]);
            }
            Term::node(Node::Read(mem, addr(rng), WIDTHS[rng.gen_range(0..3)]))
        }
        _ => {
            let (a, b, c) = (
                term(rng, depth - 1),
                term(rng, depth - 1),
                term(rng, depth - 1),
            );
            Term::node(if rng.gen_bool(0.5) {
                Node::CarryAdd(a, b, c)
            } else {
                Node::BorrowSub(a, b, c)
            })
        }
    }
}

#[test]
fn simplify_preserves_meaning() {
    let mut rng = StdRng::seed_from_u64(0x51_01);
    for _ in 0..cases() {
        let t = term(&mut rng, 4);
        let seed: u64 = rng.gen();
        let s = simplify(&t);
        for k in 0..8u64 {
            let asg = Assignment::new(seed.wrapping_add(k));
            assert_eq!(eval(&t, &asg), eval(&s, &asg), "term {t} vs {s}");
        }
    }
}

/// A normal form comes back as itself: an operation as the same shared
/// node (nothing was allocated to normalize it again), a leaf as the
/// same value.
#[test]
fn simplify_is_idempotent_by_pointer() {
    let mut rng = StdRng::seed_from_u64(0x51_02);
    for _ in 0..cases() {
        let t = term(&mut rng, 4);
        let once = simplify(&t);
        let twice = simplify(&once);
        match (&once, &twice) {
            (Term::Node(a), Term::Node(b)) => assert!(Rc::ptr_eq(a, b), "{t}: {once} rebuilt"),
            _ => assert_eq!(once, twice, "{t}"),
        }
    }
}

/// The canonical order is a total order over everything `==`
/// distinguishes: antisymmetric, transitive, `Equal` exactly on equal
/// terms — including terms that print alike.
#[test]
fn canonical_order_is_total_and_agrees_with_equality() {
    let mut rng = StdRng::seed_from_u64(0x51_05);
    for _ in 0..cases() {
        // Shallow terms, so that equal and nearly equal triples occur.
        let t = [(); 3].map(|()| term(&mut rng, 2));
        for (x, y) in [(0, 1), (1, 2), (0, 2), (0, 0)] {
            let (x, y) = (&t[x], &t[y]);
            assert_eq!(x.cmp(y), y.cmp(x).reverse(), "{x} / {y}");
            assert_eq!(x.cmp(y) == Ordering::Equal, x == y, "{x} / {y}");
        }
        for [i, j, k] in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            if t[i] <= t[j] && t[j] <= t[k] {
                assert!(t[i] <= t[k], "{} <= {} <= {}", t[i], t[j], t[k]);
            }
        }
        // Constants sort after everything else.
        let k = Term::c(rng.gen());
        assert!(matches!(t[0], Term::Const(_)) || t[0] < k, "{} / {k}", t[0]);
    }
}

/// A leaf is a value: two words with the operation pointer, nothing to
/// count, so cloning or dropping one touches no reference count.
#[test]
fn leaves_are_values() {
    #[cfg(target_pointer_width = "64")]
    assert!(std::mem::size_of::<Term>() <= 16);
    let mut rng = StdRng::seed_from_u64(0x51_06);
    for _ in 0..cases() {
        assert!(leaf(&mut rng).as_node().is_none());
    }
}

#[test]
fn commutative_operands_canonicalize() {
    let mut rng = StdRng::seed_from_u64(0x51_03);
    for _ in 0..cases() {
        let a = leaf(&mut rng);
        let b = leaf(&mut rng);
        for op in [BinOp::Add, BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Mul] {
            let ab = simplify(&Term::bin(op, a.clone(), b.clone()));
            let ba = simplify(&Term::bin(op, b.clone(), a.clone()));
            assert_eq!(ab, ba);
        }
    }
}

#[test]
fn constant_terms_fold_completely() {
    let mut rng = StdRng::seed_from_u64(0x51_04);
    for _ in 0..cases() {
        let x: u32 = rng.gen();
        let y: u32 = rng.gen();
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Shr, BinOp::Ror] {
            let t = simplify(&Term::bin(op, Term::c(x), Term::c(y)));
            assert!(matches!(t, Term::Const(_)), "{op:?} did not fold");
        }
    }
}
