//! Concrete evaluation of symbolic terms — the randomized differential
//! backstop of the equivalence checker.
//!
//! Initial memory is a deterministic pseudo-random function of the byte
//! address, so guest and host evaluations of the shared initial memory
//! agree without materializing it.

use crate::term::{Sym, SymMem, Term};
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
    match mem {
        SymMem::Init => asg.init_byte(addr),
        SymMem::Store {
            prev,
            addr: saddr,
            val,
            width,
        } => {
            let sa = eval(saddr, asg);
            if addr.wrapping_sub(sa) < width.bytes() {
                let byte = addr.wrapping_sub(sa);
                (eval(val, asg) >> (8 * byte)) as u8
            } else {
                eval_mem_byte(prev, addr, asg)
            }
        }
    }
}

/// Evaluates all bytes a store chain touches, newest-store-wins, into an
/// address → byte map (used to compare memory effects differentially).
#[must_use]
pub fn eval_mem_writes(mem: &SymMem, asg: &Assignment) -> HashMap<u32, u8> {
    let mut touched = Vec::new();
    let mut cur = mem;
    while let SymMem::Store {
        prev, addr, width, ..
    } = cur
    {
        let a = eval(addr, asg);
        for i in 0..width.bytes() {
            touched.push(a.wrapping_add(i));
        }
        cur = prev;
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
    match t {
        Term::Const(v) => *v,
        Term::Sym(s) => asg.get(*s),
        Term::Bin(op, a, b) => op.eval(eval(a, asg), eval(b, asg)),
        Term::Un(op, a) => op.eval(eval(a, asg)),
        Term::Pred(op, a, b) => u32::from(op.eval(eval(a, asg), eval(b, asg))),
        Term::CarryAdd(a, b, c) => u32::from(Concrete::carry_add(val(a), val(b), bit(c))),
        Term::BorrowSub(a, b, c) => u32::from(Concrete::borrow_sub(val(a), val(b), bit(c))),
        Term::OverflowAdd(a, b, c) => u32::from(Concrete::overflow_add(val(a), val(b), bit(c))),
        Term::OverflowSub(a, b, c) => u32::from(Concrete::overflow_sub(val(a), val(b), bit(c))),
        Term::Ite(c, th, el) => {
            if eval(c, asg) != 0 {
                eval(th, asg)
            } else {
                eval(el, asg)
            }
        }
        Term::Read(mem, addr, width) => {
            let a = eval(addr, asg);
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
    use std::rc::Rc;

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
        let mem = Rc::new(SymMem::Store {
            prev: Rc::new(SymMem::Init),
            addr: Term::sym(Sym::Param(0)),
            val: Term::sym(Sym::Param(1)),
            width: Width::B32,
        });
        let read = Term::Read(mem.clone(), Term::c(0x1000), Width::B32);
        assert_eq!(eval(&read, &asg), 0xdead_beef);
        let read8 = Term::Read(mem.clone(), Term::c(0x1001), Width::B8);
        assert_eq!(eval(&read8, &asg), 0xbe);
        // Unwritten bytes come from the deterministic init function.
        let other = Term::Read(mem, Term::c(0x2000), Width::B8);
        assert_eq!(eval(&other, &asg), u32::from(asg.init_byte(0x2000)));
    }

    #[test]
    fn narrow_store_shadows_partially() {
        let mut asg = Assignment::new(3);
        asg.set(Sym::Param(0), 0x11223344);
        let m1 = Rc::new(SymMem::Store {
            prev: Rc::new(SymMem::Init),
            addr: Term::c(0x100),
            val: Term::sym(Sym::Param(0)),
            width: Width::B32,
        });
        let m2 = Rc::new(SymMem::Store {
            prev: m1,
            addr: Term::c(0x101),
            val: Term::c(0xaa),
            width: Width::B8,
        });
        let read = Term::Read(m2, Term::c(0x100), Width::B32);
        assert_eq!(eval(&read, &asg), 0x1122_aa44);
    }

    #[test]
    fn eval_mem_writes_collects_touched_bytes() {
        let asg = Assignment::new(5);
        let mem = Rc::new(SymMem::Store {
            prev: Rc::new(SymMem::Init),
            addr: Term::c(0x10),
            val: Term::c(0x0a0b_0c0d),
            width: Width::B32,
        });
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
        let t = Term::Bin(
            BinOp::FAdd,
            Term::c(1.5f32.to_bits()),
            Term::c(2.5f32.to_bits()),
        );
        assert_eq!(f32::from_bits(eval(&t, &asg)), 4.0);
        let carry = Term::CarryAdd(Term::c(u32::MAX), Term::c(1), Term::c(0));
        assert_eq!(eval(&carry, &asg), 1);
        let borrow = Term::BorrowSub(Term::c(3), Term::c(5), Term::c(0));
        assert_eq!(eval(&borrow, &asg), 1);
    }
}
