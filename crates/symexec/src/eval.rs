//! Concrete evaluation of symbolic terms — the randomized differential
//! backstop of the equivalence checker.
//!
//! Initial memory is a deterministic pseudo-random function of the byte
//! address, so guest and host evaluations of the shared initial memory
//! agree without materializing it.

use crate::term::{Node, Sym, SymMem, Term};
use pdbt_isa::{Concrete, Domain};
use std::collections::HashMap;

/// A concrete assignment of symbols (plus the initial-memory seed).
#[derive(Debug, Clone, Default)]
pub struct Assignment {
    map: HashMap<Sym, u32>,
    /// Seed mixed into the initial-memory byte function.
    pub mem_seed: u64,
}

impl Assignment {
    /// Creates an empty assignment.
    #[must_use]
    pub fn new(mem_seed: u64) -> Assignment {
        Assignment {
            map: HashMap::new(),
            mem_seed,
        }
    }

    /// Binds a symbol.
    pub fn set(&mut self, s: Sym, v: u32) {
        self.map.insert(s, v);
    }

    /// The value of a symbol (unbound symbols read as a hash of their
    /// identity and the seed, so evaluation is total and deterministic).
    #[must_use]
    pub fn get(&self, s: Sym) -> u32 {
        if let Some(v) = self.map.get(&s) {
            return *v;
        }
        // splitmix-style hash of (sym, seed).
        let tag = match s {
            Sym::Param(i) => 0x100 + u64::from(i),
            Sym::GuestReg(i) => 0x200 + u64::from(i),
            Sym::HostReg(i) => 0x300 + u64::from(i),
            Sym::Flag(i) => 0x400 + u64::from(i),
            Sym::HostFlag(i) => 0x500 + u64::from(i),
            Sym::Pc => 0x600,
            Sym::Free(i) => 0x700 + u64::from(i),
        };
        let mut x = tag ^ self.mem_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let v = (x ^ (x >> 31)) as u32;
        if matches!(s, Sym::Flag(_) | Sym::HostFlag(_)) {
            v & 1
        } else {
            v
        }
    }

    /// The initial value of the memory byte at `addr`.
    #[must_use]
    pub fn init_byte(&self, addr: u32) -> u8 {
        let mut x = u64::from(addr) ^ self.mem_seed.wrapping_mul(0xd1b5_4a32_d192_ed03);
        x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        (x ^ (x >> 33)) as u8
    }
}

/// Evaluates one byte of a symbolic memory.
fn eval_mem_byte(mem: &SymMem, addr: u32, asg: &Assignment) -> u8 {
    for s in mem.stores() {
        let byte = addr.wrapping_sub(eval(&s.addr, asg));
        if byte < s.width.bytes() {
            return (eval(&s.val, asg) >> (8 * byte)) as u8;
        }
    }
    asg.init_byte(addr)
}

/// Evaluates all bytes a store chain touches, newest-store-wins, into an
/// address → byte map (used to compare memory effects differentially).
#[must_use]
pub fn eval_mem_writes(mem: &SymMem, asg: &Assignment) -> HashMap<u32, u8> {
    let mut touched = Vec::new();
    for s in mem.stores() {
        let a = eval(&s.addr, asg);
        for i in 0..s.width.bytes() {
            touched.push(a.wrapping_add(i));
        }
    }
    touched
        .into_iter()
        .map(|a| (a, eval_mem_byte(mem, a, asg)))
        .collect()
}

/// Evaluates a term under an assignment.
#[must_use]
pub fn eval(t: &Term, asg: &Assignment) -> u32 {
    let val = |t: &Term| eval(t, asg);
    let bit = |t: &Term| Concrete::bit(eval(t, asg));
    let node = match t {
        Term::Const(v) => return *v,
        Term::Sym(s) => return asg.get(*s),
        Term::Node(n) => &**n,
    };
    match node {
        Node::Bin(op, a, b) => op.eval(val(a), val(b)),
        Node::Un(op, a) => op.eval(val(a)),
        Node::Pred(op, a, b) => u32::from(op.eval(val(a), val(b))),
        Node::CarryAdd(a, b, c) => u32::from(Concrete::carry_add(val(a), val(b), bit(c))),
        Node::BorrowSub(a, b, c) => u32::from(Concrete::borrow_sub(val(a), val(b), bit(c))),
        Node::OverflowAdd(a, b, c) => u32::from(Concrete::overflow_add(val(a), val(b), bit(c))),
        Node::OverflowSub(a, b, c) => u32::from(Concrete::overflow_sub(val(a), val(b), bit(c))),
        Node::Ite(c, th, el) => {
            if val(c) != 0 {
                val(th)
            } else {
                val(el)
            }
        }
        Node::Read(mem, addr, width) => {
            let a = val(addr);
            let mut v = 0u32;
            for i in 0..width.bytes() {
                v |= u32::from(eval_mem_byte(mem, a.wrapping_add(i), asg)) << (8 * i);
            }
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{BinOp, PredOp};
    use pdbt_isa::Width;

    #[test]
    fn eval_is_deterministic() {
        let asg = Assignment::new(42);
        let t = Term::bin(
            BinOp::Add,
            Term::sym(Sym::Param(0)),
            Term::sym(Sym::Param(1)),
        );
        assert_eq!(eval(&t, &asg), eval(&t, &asg));
    }

    #[test]
    fn bound_symbols_read_back() {
        let mut asg = Assignment::new(0);
        asg.set(Sym::Param(0), 10);
        asg.set(Sym::Param(1), 32);
        let t = Term::bin(
            BinOp::Add,
            Term::sym(Sym::Param(0)),
            Term::sym(Sym::Param(1)),
        );
        assert_eq!(eval(&t, &asg), 42);
    }

    #[test]
    fn flags_are_boolean() {
        let asg = Assignment::new(7);
        for i in 0..4 {
            assert!(asg.get(Sym::Flag(i)) <= 1);
        }
    }

    #[test]
    fn memory_read_after_write() {
        let mut asg = Assignment::new(1);
        asg.set(Sym::Param(0), 0x1000);
        asg.set(Sym::Param(1), 0xdead_beef);
        let mem = SymMem::Init.store(
            Term::sym(Sym::Param(0)),
            Term::sym(Sym::Param(1)),
            Width::B32,
        );
        let read = |addr, width| Term::node(Node::Read(mem.clone(), Term::c(addr), width));
        assert_eq!(eval(&read(0x1000, Width::B32), &asg), 0xdead_beef);
        assert_eq!(eval(&read(0x1001, Width::B8), &asg), 0xbe);
        // Unwritten bytes come from the deterministic init function.
        let other = read(0x2000, Width::B8);
        assert_eq!(eval(&other, &asg), u32::from(asg.init_byte(0x2000)));
    }

    #[test]
    fn narrow_store_shadows_partially() {
        let mut asg = Assignment::new(3);
        asg.set(Sym::Param(0), 0x11223344);
        let mem = SymMem::Init
            .store(Term::c(0x100), Term::sym(Sym::Param(0)), Width::B32)
            .store(Term::c(0x101), Term::c(0xaa), Width::B8);
        let read = Term::node(Node::Read(mem, Term::c(0x100), Width::B32));
        assert_eq!(eval(&read, &asg), 0x1122_aa44);
    }

    #[test]
    fn eval_mem_writes_collects_touched_bytes() {
        let asg = Assignment::new(5);
        let mem = SymMem::Init.store(Term::c(0x10), Term::c(0x0a0b_0c0d), Width::B32);
        let writes = eval_mem_writes(&mem, &asg);
        assert_eq!(writes.len(), 4);
        assert_eq!(writes[&0x10], 0x0d);
        assert_eq!(writes[&0x13], 0x0a);
    }

    #[test]
    fn predicates_and_carries() {
        let asg = Assignment::new(0);
        let t = Term::pred(PredOp::Ltu, Term::c(1), Term::c(2));
        assert_eq!(eval(&t, &asg), 1);
        let t = Term::bin(
            BinOp::FAdd,
            Term::c(1.5f32.to_bits()),
            Term::c(2.5f32.to_bits()),
        );
        assert_eq!(f32::from_bits(eval(&t, &asg)), 4.0);
        let carry = Term::node(Node::CarryAdd(Term::c(u32::MAX), Term::c(1), Term::c(0)));
        assert_eq!(eval(&carry, &asg), 1);
        let borrow = Term::node(Node::BorrowSub(Term::c(3), Term::c(5), Term::c(0)));
        assert_eq!(eval(&borrow, &asg), 1);
    }
}
