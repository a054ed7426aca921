//! Randomized tests for the normalizing rewriter: simplification
//! preserves concrete meaning, is idempotent, and canonicalizes
//! commutativity.
//!
//! Originally written with `proptest`; the offline build environment has
//! no crates.io access, so the strategies are hand-rolled samplers over
//! the deterministic in-tree PRNG (`pdbt-rng`, aliased as `rand`).

use pdbt_symexec::term::{BinOp, Node, PredOp, Sym, Term, UnOp};
use pdbt_symexec::{eval, simplify, Assignment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    match rng.gen_range(0..6) {
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

#[test]
fn simplify_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0x51_02);
    for _ in 0..cases() {
        let t = term(&mut rng, 4);
        let once = simplify(&t);
        let twice = simplify(&once);
        assert_eq!(once, twice);
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
