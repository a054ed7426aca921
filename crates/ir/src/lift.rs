//! Guest → IR lifting: `pdbt_isa_arm::step`, instantiated at a machine
//! that builds IR.
//!
//! What an instruction does is `step`'s, written once for the reference
//! interpreter, the verifier and this lifter. A word here is an
//! [`Expr`], the expression `step` computes: constants fold as it is
//! built, and nothing reaches the IR until an effect needs it — a
//! register, flag, float-register or memory write, an output, a branch
//! — when each operation becomes one temporary. Flag side effects are
//! materialized *eagerly* into the guest environment (`SetFlag`) at
//! their `set_flag`, matching how QEMU's ARM front end stores NF/ZF/CF/VF
//! in the CPU state — exactly the per-flag work the learned-rule path
//! avoids through condition-flag delegation — except the flags the
//! caller proved dead, which are never built.

use crate::env::SPILL_SLOTS;
use crate::op::{Dst, IrOp, Lifted, Terminator, Tmp, Val};
use pdbt_isa::{
    Addr, BinOp, Cond, Control, Domain, ExecError, Flag, FlagSet, Machine, PredOp, UnOp, Width,
};
use pdbt_isa_arm::{step, FReg, Inst, Op, Operand, Reg};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// An error raised when a guest instruction cannot be lifted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiftError {
    /// What was unsupported.
    pub detail: String,
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot lift: {}", self.detail)
    }
}

impl std::error::Error for LiftError {}

/// A malformed or undefined instruction does not lift.
impl From<ExecError> for LiftError {
    fn from(e: ExecError) -> LiftError {
        let detail = e.to_string();
        LiftError { detail }
    }
}

/// A value `step` computed and the IR does not hold yet: leaves inline,
/// each operation one shared node. A register or flag leaf is that
/// location as the instruction found it.
#[derive(Clone, PartialEq, Eq)]
enum Expr {
    Const(u32),
    Reg(Reg),
    FReg(FReg),
    Flag(Flag),
    Op(Rc<Node>),
}

#[derive(PartialEq, Eq)]
enum Node {
    Bin(BinOp, Expr, Expr),
    Un(UnOp, Expr),
    Pred(PredOp, Expr, Expr),
    Load(Expr, Width),
}

fn node(n: Node) -> Expr {
    Expr::Op(Rc::new(n))
}

/// `x + k` or `x - k` as `x` and the (wrapping) offset.
fn offset(e: &Expr) -> Option<(&Expr, u32)> {
    let Expr::Op(n) = e else { return None };
    match &**n {
        Node::Bin(BinOp::Add, x, Expr::Const(k)) => Some((x, *k)),
        Node::Bin(BinOp::Sub, x, Expr::Const(k)) => Some((x, k.wrapping_neg())),
        _ => None,
    }
}

/// An integer comparison, which negates into another.
fn comparison(e: &Expr) -> Option<(PredOp, &Expr, &Expr)> {
    let Expr::Op(n) = e else { return None };
    match &**n {
        Node::Pred(op, a, b) if op.negate().is_some() => Some((*op, a, b)),
        _ => None,
    }
}

fn is_float(op: BinOp) -> bool {
    matches!(op, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
}

/// `x + k`, written the way it reads: `x` itself for 0, and `x - 16`
/// rather than `x + 0xfffffff0`.
fn plus(x: Expr, k: u32) -> Expr {
    match k as i32 {
        0 => x,
        k if k < 0 => node(Node::Bin(BinOp::Sub, x, Expr::Const(k.unsigned_abs()))),
        _ => node(Node::Bin(BinOp::Add, x, Expr::Const(k))),
    }
}

/// The IR-building domain. Truth values are 0/1 words; constants fold,
/// and `(x ± j) ± k` is one offset — `push`'s `sp - 4` per register is
/// `sp - 4k`, so every store addresses `sp` directly.
impl Domain for Expr {
    type W = Expr;
    type B = Expr;

    fn c(v: u32) -> Expr {
        Expr::Const(v)
    }
    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        match (op, &a, &b) {
            (_, Expr::Const(x), Expr::Const(y)) => Expr::Const(op.eval(*x, *y)),
            (BinOp::Add | BinOp::Sub, _, Expr::Const(k)) => {
                let k = if op == BinOp::Add {
                    *k
                } else {
                    k.wrapping_neg()
                };
                let (x, j) = offset(&a).unwrap_or((&a, 0));
                plus(x.clone(), j.wrapping_add(k))
            }
            _ => node(Node::Bin(op, a, b)),
        }
    }
    fn un(op: UnOp, a: Expr) -> Expr {
        match a {
            Expr::Const(x) => Expr::Const(op.eval(x)),
            a => node(Node::Un(op, a)),
        }
    }
    fn pred(op: PredOp, a: Expr, b: Expr) -> Expr {
        match (&a, &b) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(u32::from(op.eval(*x, *y))),
            _ => node(Node::Pred(op, a, b)),
        }
    }
    fn carry_add(a: Expr, b: Expr, cin: Expr) -> Expr {
        let sum = Expr::bin(BinOp::Add, a.clone(), b);
        let carry = Expr::pred(PredOp::Ltu, sum.clone(), a);
        if cin == Expr::Const(0) {
            return carry;
        }
        // Adding the carry in can wrap a sum that did not.
        let total = Expr::bin(BinOp::Add, sum.clone(), cin);
        Expr::logic(BinOp::Or, carry, Expr::pred(PredOp::Ltu, total, sum))
    }
    fn borrow_sub(a: Expr, b: Expr, bin: Expr) -> Expr {
        let borrow = Expr::pred(PredOp::Ltu, a.clone(), b.clone());
        if bin == Expr::Const(0) {
            return borrow;
        }
        let diff = Expr::bin(BinOp::Sub, a, b);
        Expr::logic(BinOp::Or, borrow, Expr::pred(PredOp::Ltu, diff, bin))
    }
    fn overflow_add(a: Expr, b: Expr, cin: Expr) -> Expr {
        // The sign of `(a ^ r) & !(a ^ b)`: like-signed operands, a
        // result signed otherwise.
        let r = Expr::bin(BinOp::Add, Expr::bin(BinOp::Add, a.clone(), b.clone()), cin);
        let like = Expr::un(UnOp::Not, Expr::bin(BinOp::Xor, a.clone(), b));
        let v = Expr::bin(BinOp::And, Expr::bin(BinOp::Xor, a, r), like);
        Expr::bin(BinOp::Shr, v, Expr::Const(31))
    }
    fn overflow_sub(a: Expr, b: Expr, bin: Expr) -> Expr {
        // The sign of `(a ^ r) & (a ^ b)`.
        let r = Expr::bin(BinOp::Sub, Expr::bin(BinOp::Sub, a.clone(), b.clone()), bin);
        let unlike = Expr::bin(BinOp::Xor, a.clone(), b);
        let v = Expr::bin(BinOp::And, Expr::bin(BinOp::Xor, a, r), unlike);
        Expr::bin(BinOp::Shr, v, Expr::Const(31))
    }
    fn ite(c: Expr, t: Expr, e: Expr) -> Expr {
        match c {
            Expr::Const(0) => e,
            Expr::Const(_) => t,
            // `e ^ ((t ^ e) & -c)`: the mask is all ones where `c` holds.
            c => {
                let mask = Expr::un(UnOp::Neg, c);
                let pick = Expr::bin(BinOp::And, Expr::bin(BinOp::Xor, t, e.clone()), mask);
                Expr::bin(BinOp::Xor, e, pick)
            }
        }
    }
    fn word(b: Expr) -> Expr {
        b
    }
    fn bit(w: Expr) -> Expr {
        w
    }
    /// `Setc Eq x, 0` — or, for an integer comparison, its complement,
    /// which a branch then takes as its own condition (`bne` is
    /// `Eq z, 0`, a subtraction's carry `Geu a, b`).
    fn not(a: Expr) -> Expr {
        match comparison(&a) {
            Some((op, x, y)) => Expr::pred(op.negate().expect("integer"), x.clone(), y.clone()),
            None => Expr::pred(PredOp::Eq, a, Expr::Const(0)),
        }
    }
}

/// A location `step` reads and writes through the machine.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(Reg),
    Flag(Flag),
}

impl Loc {
    fn leaf(self) -> Expr {
        match self {
            Loc::Reg(r) => Expr::Reg(r),
            Loc::Flag(f) => Expr::Flag(f),
        }
    }
}

/// What the lifter has emitted and what it knows about the instruction.
#[derive(Default)]
struct Emitter {
    ops: Vec<IrOp>,
    /// What temporary `i` holds: each node is emitted once.
    temps: Vec<Expr>,
    /// Locations the instruction read as it found them.
    read: Vec<Loc>,
    /// The last value written to each location, and whether the write
    /// waits for the end of the instruction.
    writes: Vec<(Loc, Expr, bool)>,
    /// Whether a load was built: no store may follow it.
    loaded: bool,
    cond: Option<(PredOp, Val, Val)>,
    target: Option<Val>,
    refused: Option<String>,
}

impl Emitter {
    /// Fails the lift; the value is a placeholder.
    fn refuse(&mut self, why: &str) -> Val {
        self.refused.get_or_insert_with(|| why.to_string());
        Val::Const(0)
    }

    /// The value of `loc`: the last write, or the location as the
    /// instruction found it.
    fn read(&mut self, loc: Loc) -> Expr {
        if let Some((_, v, _)) = self.writes.iter().find(|w| w.0 == loc) {
            return v.clone();
        }
        if !self.read.contains(&loc) {
            self.read.push(loc);
        }
        loc.leaf()
    }

    /// Writes `v` to `loc` — at once, unless the instruction read `loc`:
    /// a value built from the old contents may still be emitted, so the
    /// write waits for [`Emitter::commit`].
    fn write(&mut self, loc: Loc, v: Expr) {
        self.writes.retain(|w| w.0 != loc);
        if v == loc.leaf() {
            return; // what it held
        }
        let waits = self.read.contains(&loc);
        if !waits {
            let s = self.val(&v);
            self.emit_write(loc, s);
        }
        self.writes.push((loc, v, waits));
    }

    fn emit_write(&mut self, loc: Loc, s: Val) {
        self.ops.push(match loc {
            Loc::Reg(r) => IrOp::Mov { d: Dst::Reg(r), s },
            Loc::Flag(f) => IrOp::SetFlag { f, s },
        });
    }

    /// Emits the writes that waited. Every value is built before any of
    /// them lands, so each sees the state the instruction started from;
    /// they go last-first, which keeps `umlal`'s high half — built from
    /// the low one — forwarded into its move.
    fn commit(&mut self) {
        let waiting: Vec<(Loc, Expr)> = (self.writes.iter().rev())
            .filter(|w| w.2)
            .map(|w| (w.0, w.1.clone()))
            .collect();
        let vals: Vec<Val> = waiting.iter().map(|(_, v)| self.val(v)).collect();
        for ((loc, _), s) in waiting.into_iter().zip(vals) {
            self.emit_write(loc, s);
        }
    }

    /// The IR value of `e`, emitting what it needs first: one temporary
    /// per operation, numbered in emission order. A binary operation's
    /// second operand is built first: the lowering reads it from wherever
    /// it lies, but wants the first one forwarded in `eax`.
    fn val(&mut self, e: &Expr) -> Val {
        match e {
            Expr::Const(c) => return Val::Const(*c),
            Expr::Reg(r) => return Val::Reg(*r),
            Expr::FReg(_) => return self.refuse("a float register as a word"),
            Expr::Flag(_) | Expr::Op(_) => {}
        }
        if let Some(i) = self.temps.iter().position(|t| t == e) {
            return Val::Tmp(Tmp(i as u8));
        }
        let op = match e {
            Expr::Flag(f) => {
                let (f, d) = (*f, self.fresh(e));
                IrOp::GetFlag { d, f }
            }
            Expr::Op(n) => match &**n {
                Node::Bin(op, a, b) if !is_float(*op) => {
                    let (op, b, a) = (*op, self.val(b), self.val(a));
                    let d = self.fresh(e);
                    IrOp::Bin { op, d, a, b }
                }
                Node::Un(op, a) => {
                    let (op, a) = (*op, self.val(a));
                    let d = self.fresh(e);
                    IrOp::Un { op, d, a }
                }
                Node::Pred(cc, a, b) if cc.negate().is_some() => {
                    let (cc, b, a) = (*cc, self.val(b), self.val(a));
                    let d = self.fresh(e);
                    IrOp::Setc { d, cc, a, b }
                }
                Node::Load(addr, width) => {
                    let ((addr, off), width) = (self.address(addr), *width);
                    let d = self.fresh(e);
                    IrOp::Load {
                        d,
                        addr,
                        off,
                        width,
                    }
                }
                _ => return self.refuse("float arithmetic as a word"),
            },
            Expr::Const(_) | Expr::Reg(_) | Expr::FReg(_) => unreachable!("leaves returned above"),
        };
        self.ops.push(op);
        Val::Tmp(Tmp((self.temps.len() - 1) as u8))
    }

    /// The next temporary, holding `e`.
    fn fresh(&mut self, e: &Expr) -> Dst {
        if self.temps.len() == SPILL_SLOTS {
            self.refuse("more temporaries than spill slots");
        }
        self.temps.push(e.clone());
        Dst::Tmp(Tmp((self.temps.len() - 1) as u8))
    }

    /// A memory address as the IR's `(base, offset)`.
    fn address(&mut self, e: &Expr) -> (Val, i32) {
        match offset(e) {
            Some((base, k)) => (self.val(base), k as i32),
            None => (self.val(e), 0),
        }
    }

    /// A branch condition as the terminator's comparison: an integer
    /// comparison is its own, anything else is compared with zero.
    fn branch(&mut self, c: &Expr) -> (PredOp, Val, Val) {
        match comparison(c) {
            Some((op, a, b)) => (op, self.val(a), self.val(b)),
            None => (PredOp::Ne, self.val(c), Val::Const(0)),
        }
    }
}

/// The IR-building [`Machine`]. Its reads take `&self`, so what it
/// records sits behind a `RefCell`.
struct Lifter {
    /// The instruction's address: `pc` reads as `addr + 8`.
    addr: Addr,
    /// Flags whose writes the caller proved dead (or folded into an
    /// adjacent branch — TCG's flag-liveness optimization).
    omit: FlagSet,
    ir: RefCell<Emitter>,
}

impl Machine for Lifter {
    type W = Expr;
    type B = Expr;
    type D = Expr;
    type Reg = Reg;
    type FReg = FReg;
    type Error = LiftError;

    fn reg(&self, r: Reg) -> Expr {
        if r.is_pc() {
            return Expr::Const(self.addr.wrapping_add(8));
        }
        self.ir.borrow_mut().read(Loc::Reg(r))
    }
    fn set_reg(&mut self, r: Reg, v: Expr) {
        self.ir.get_mut().write(Loc::Reg(r), v);
    }
    fn freg(&self, r: FReg) -> Expr {
        Expr::FReg(r)
    }
    /// A float register is written by one IR op that reads its operands
    /// first, so it needs no deferral.
    fn set_freg(&mut self, d: FReg, v: Expr) {
        let ir = self.ir.get_mut();
        let op = match &v {
            Expr::FReg(s) => Some(IrOp::FMov { d, s: *s }),
            Expr::Op(n) => match &**n {
                Node::Bin(op, Expr::FReg(a), Expr::FReg(b)) if is_float(*op) => {
                    let (op, a, b) = (*op, *a, *b);
                    Some(IrOp::FBin { op, d, a, b })
                }
                Node::Load(addr, Width::B32) => {
                    let (addr, off) = ir.address(addr);
                    Some(IrOp::FLoad { d, addr, off })
                }
                _ => None,
            },
            _ => None,
        };
        match op {
            Some(op) => ir.ops.push(op),
            None => _ = ir.refuse("a computed float-register value"),
        }
    }
    fn flag(&self, f: Flag) -> Expr {
        self.ir.borrow_mut().read(Loc::Flag(f))
    }
    fn set_flag(&mut self, f: Flag, v: Expr) {
        if !self.omit.contains(f) {
            self.ir.get_mut().write(Loc::Flag(f), v);
        }
    }
    /// Emitted where its value is first needed.
    fn load(&self, addr: Expr, width: Width) -> Result<Expr, LiftError> {
        self.ir.borrow_mut().loaded = true;
        Ok(node(Node::Load(addr, width)))
    }
    fn store(&mut self, addr: Expr, v: Expr, width: Width) -> Result<(), LiftError> {
        let ir = self.ir.get_mut();
        if ir.loaded {
            ir.refuse("a store after a load");
        }
        let (addr, off) = ir.address(&addr);
        let op = match v {
            Expr::FReg(s) if width == Width::B32 => IrOp::FStore { s, addr, off },
            v => {
                let s = ir.val(&v);
                IrOp::Store {
                    s,
                    addr,
                    off,
                    width,
                }
            }
        };
        ir.ops.push(op);
        Ok(())
    }
    fn output(&mut self, v: Expr) {
        let ir = self.ir.get_mut();
        let s = ir.val(&v);
        ir.ops.push(IrOp::Output { s });
    }
    /// The taken side: the condition becomes the terminator's.
    fn decide(&self, cond: Expr) -> Result<bool, LiftError> {
        let mut ir = self.ir.borrow_mut();
        ir.cond = Some(ir.branch(&cond));
        Ok(true)
    }
    /// A computed target makes the jump indirect; the address returned
    /// for it is a placeholder.
    fn target(&self, addr: Expr) -> Result<Addr, LiftError> {
        if let Expr::Const(a) = addr {
            return Ok(a);
        }
        let mut ir = self.ir.borrow_mut();
        ir.target = Some(ir.val(&addr));
        Ok(0)
    }
}

/// Declines `inst` if the lifter does, saying why; everything else is
/// `step`'s to define. Lifting a refusal means deleting its line.
fn refuse(inst: &Inst) -> Result<(), LiftError> {
    let detail = match inst.op {
        // Straight-line IR cannot skip an effect; only a branch's
        // condition has somewhere to go (its terminator).
        _ if inst.cond != Cond::Al && inst.op != Op::B => {
            format!("conditional execution of non-branch `{inst}`")
        }
        // `step` raises on an undefined system call; the IR has no trap.
        Op::Svc => match inst.operands.first().and_then(Operand::as_imm) {
            Some(0 | 1) => return Ok(()),
            _ => format!("undefined `{inst}`"),
        },
        // The IR has no float predicate, and an unordered compare's
        // flags need three.
        Op::Vcmp => format!("float compare `{inst}`"),
        _ => return Ok(()),
    };
    Err(LiftError { detail })
}

/// Lifts one guest instruction at `addr` into IR.
///
/// # Errors
///
/// [`LiftError`] for the shapes [`refuse`] lists — the synthetic
/// compiler emits none of them — and for a malformed instruction.
pub fn lift(inst: &Inst, addr: Addr) -> Result<Lifted, LiftError> {
    lift_omit(inst, addr, FlagSet::EMPTY)
}

/// Like [`lift`], but skips materializing the given flags into the
/// environment — TCG's flag-liveness optimization: the block translator
/// passes the flags it proved dead (or folded into an adjacent
/// conditional branch), and their computations are never built.
///
/// # Errors
///
/// See [`lift`].
pub fn lift_omit(inst: &Inst, addr: Addr, omit: FlagSet) -> Result<Lifted, LiftError> {
    refuse(inst)?;
    let ir = RefCell::default();
    let mut m = Lifter { addr, omit, ir };
    let control = step(&mut m, inst)?;
    let mut ir = m.ir.into_inner();
    if let Some(Val::Reg(r)) = ir.target {
        if ir.writes.iter().any(|w| w.0 == Loc::Reg(r) && w.2) {
            ir.refuse("a jump through a register the instruction writes");
        }
    }
    ir.commit();
    if let Some(detail) = ir.refused {
        return Err(LiftError { detail });
    }
    let term = match control {
        Control::Next => None,
        Control::Halt => Some(Terminator::Exit),
        Control::Jump(taken) | Control::Call { target: taken, .. } => Some(match ir.target {
            Some(target) => Terminator::BrInd { target },
            None => Terminator::Br {
                cond: ir.cond,
                taken,
                fallthrough: addr.wrapping_add(4),
            },
        }),
    };
    Ok(Lifted { body: ir.ops, term })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{self, RegMap};
    use crate::{lower_branch_cond, lower_ops};
    use pdbt_isa_arm::{builders as g, Cpu, MemAddr, RegList, ShiftKind};
    use pdbt_isa_x86::{builders as hb, Cpu as HCpu, Operand as HOp, Reg as HReg};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every shape the lifter declines, with its reason.
    #[test]
    fn the_refusal_list() {
        let refused = [
            (
                g::mov(Reg::R0, Operand::Imm(1)).with_cond(Cond::Eq),
                "conditional execution of non-branch `moveq r0, #1`",
            ),
            (g::svc(7), "undefined `svc #7`"),
            (
                g::vcmp(FReg::new(2), FReg::new(2)),
                "float compare `vcmp.f32 s2, s2`",
            ),
        ];
        for (inst, why) in refused {
            assert_eq!(lift(&inst, 0).unwrap_err().detail, why);
        }
    }

    fn cases() -> usize {
        std::env::var("FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256)
    }

    /// Data region; the instruction sits at its middle, so `pc`-relative
    /// and register-based accesses within ±256 bytes all land in it.
    const DATA: u32 = 0x10_0000;
    const AT: u32 = DATA + 0x1000;
    const STACK: u32 = 0x20_0000;
    const REGIONS: [(u32, u32); 2] = [(DATA, 0x2000), (STACK, 0x1000)];

    /// Float register seeds: NaNs, both infinities, both zeros, and two
    /// ordinary values.
    const FLOATS: [u32; 8] = [
        0x7fc0_0000,
        0xffc0_0001,
        0x7f80_0000,
        0xff80_0000,
        0x8000_0000,
        0x0000_0000,
        0x3f80_0000,
        0xc020_0000,
    ];

    /// Register seeds where carries, borrows, overflows and shift
    /// amounts change.
    const EDGES: [u32; 9] = [
        0,
        1,
        2,
        31,
        32,
        0x7fff_ffff,
        0x8000_0000,
        0xffff_fffe,
        0xffff_ffff,
    ];

    fn reg(rng: &mut StdRng) -> Reg {
        Reg::from_index(rng.gen_range(0..16)).unwrap()
    }

    fn not_pc(rng: &mut StdRng) -> Reg {
        Reg::from_index(rng.gen_range(0..15)).unwrap()
    }

    fn freg(rng: &mut StdRng) -> FReg {
        FReg::new(rng.gen_range(0..16))
    }

    fn flex(rng: &mut StdRng) -> Operand {
        match rng.gen_range(0..4) {
            0 => Operand::Reg(reg(rng)),
            1 => Operand::Imm(rng.gen_range(0..40)),
            2 => Operand::Imm(rng.gen_range(0..=2047)),
            _ => Operand::Shifted {
                rm: reg(rng),
                kind: ShiftKind::ALL[rng.gen_range(0..4)],
                amount: rng.gen_range(1..32),
            },
        }
    }

    fn mem(rng: &mut StdRng) -> Operand {
        Operand::Mem(if rng.gen_bool(0.5) {
            let offset = rng.gen_range(-0x100..0x100);
            MemAddr::BaseImm {
                base: reg(rng),
                offset,
            }
        } else {
            let (base, index) = (reg(rng), not_pc(rng));
            MemAddr::BaseReg { base, index }
        })
    }

    /// One instruction of any opcode, condition, `s` and operand shape,
    /// `pc` operands and the forms the compiler never emits included.
    fn sample(rng: &mut StdRng) -> Inst {
        use pdbt_isa_arm::Shape;
        let op = Op::ALL[rng.gen_range(0..Op::ALL.len())];
        let operands = match op.shape() {
            Shape::Dp3 => vec![Operand::Reg(reg(rng)), Operand::Reg(reg(rng)), flex(rng)],
            Shape::Dp2 => vec![Operand::Reg(reg(rng)), flex(rng)],
            Shape::Cmp2 => vec![Operand::Reg(reg(rng)), flex(rng)],
            Shape::Unary2 => vec![Operand::Reg(reg(rng)), Operand::Reg(reg(rng))],
            Shape::Mul3 => (0..3).map(|_| Operand::Reg(reg(rng))).collect(),
            Shape::Mul4 => (0..4).map(|_| Operand::Reg(reg(rng))).collect(),
            Shape::LdSt => vec![Operand::Reg(reg(rng)), mem(rng)],
            Shape::Stack => {
                let mut list: RegList = (0..15)
                    .filter(|i| *i != Reg::Sp.index() && rng.gen_bool(0.3))
                    .map(|i| Reg::from_index(i).unwrap())
                    .collect();
                if list.is_empty() || rng.gen_bool(0.3) {
                    list.insert(Reg::Pc);
                }
                vec![Operand::RegList(list)]
            }
            Shape::Branch => vec![Operand::Target(4 * rng.gen_range(-64..64))],
            Shape::BranchReg => vec![Operand::Reg(reg(rng))],
            Shape::Sys => vec![Operand::Imm(rng.gen_range(0..3))],
            Shape::Vfp3 => (0..3).map(|_| Operand::FReg(freg(rng))).collect(),
            Shape::Vfp2 => vec![Operand::FReg(freg(rng)), Operand::FReg(freg(rng))],
            Shape::VfpLdSt => vec![Operand::FReg(freg(rng)), mem(rng)],
        };
        let s = op.supports_s() && rng.gen_bool(0.5);
        let cond = match rng.gen_range(0..4) {
            0 => Cond::ALL[rng.gen_range(0..14)],
            _ => Cond::Al,
        };
        let inst = Inst {
            op,
            s,
            cond,
            operands,
        };
        inst.validate()
            .expect("sampled instructions are well formed");
        inst
    }

    /// The two machines the instruction runs on, from one random state
    /// in which its memory operand addresses the data region and `sp`
    /// the stack.
    fn machines(rng: &mut StdRng, inst: &Inst) -> (Cpu, HCpu) {
        let mut regs: [u32; 16] = std::array::from_fn(|_| match rng.gen_range(0..2) {
            0 => EDGES[rng.gen_range(0..EDGES.len())],
            _ => rng.gen(),
        });
        regs[Reg::Sp.index()] = STACK + 0x800;
        regs[Reg::Pc.index()] = AT;
        if let Some(mem) = inst.operands.iter().find_map(Operand::as_mem) {
            match mem {
                MemAddr::BaseImm { base, .. } => regs[base.index()] = AT,
                MemAddr::BaseReg { base, index } if base == index => regs[base.index()] = AT / 2,
                MemAddr::BaseReg { base, index } => {
                    regs[base.index()] = AT;
                    regs[index.index()] = rng.gen_range(0..0x100);
                }
            }
        }
        let mut cpu = Cpu::new();
        let mut host = HCpu::new();
        host.mem.map(0, env::ENV_SIZE);
        host.write(HReg::Ebp, 0);
        for (base, size) in REGIONS {
            cpu.mem.map(base, size);
            host.mem.map(base, size);
            for a in (base..base + size).step_by(4) {
                let v = rng.gen();
                cpu.mem.store32(a, v).unwrap();
                host.mem.store32(a, v).unwrap();
            }
        }
        let env = |off: i32| off as u32;
        for r in Reg::ALL {
            cpu.write(r, regs[r.index()]);
            host.mem
                .store32(env(env::reg_offset(r)), regs[r.index()])
                .unwrap();
        }
        for f in Flag::ALL {
            let v = rng.gen_bool(0.5);
            cpu.flags.set(f, v);
            host.mem
                .store32(env(env::flag_offset(f)), u32::from(v))
                .unwrap();
        }
        for i in 0..16 {
            let bits = if rng.gen_bool(0.75) {
                FLOATS[rng.gen_range(0..FLOATS.len())]
            } else {
                rng.gen()
            };
            cpu.write_f(FReg::new(i), f32::from_bits(bits));
            let slot = env(env::freg_offset(FReg::new(i)));
            host.mem
                .store32(slot, cpu.read_f(FReg::new(i)).to_bits())
                .unwrap();
        }
        (cpu, host)
    }

    /// Which NaN an operation on NaNs returns is not the lifter's to fix.
    fn same_float(a: u32, b: u32) -> bool {
        a == b || (f32::from_bits(a).is_nan() && f32::from_bits(b).is_nan())
    }

    /// Runs `inst` both ways from one state — `lift_omit` → `lower_ops`
    /// (and the branch compare) on the x86 model, and `step::<Cpu>` —
    /// and asserts that registers, memory, output, the flags not omitted
    /// and where control goes agree. `false` if it does not lift, which
    /// only a listed refusal may do.
    fn agree(inst: &Inst, omit: FlagSet, (mut cpu, mut host): (Cpu, HCpu), what: &str) -> bool {
        let (ctl, l) = match (
            pdbt_isa_arm::step(&mut cpu, inst),
            lift_omit(inst, AT, omit),
        ) {
            (Ok(ctl), Ok(l)) => (ctl, l),
            (_, Err(e)) => {
                assert!(refuse(inst).is_err(), "{what}: {e} is not a listed refusal");
                return false;
            }
            (Err(e), Ok(_)) => panic!("{what}: lifted, but the interpreter raised {e}"),
        };
        let map = RegMap::all_env();
        let mut code = lower_ops(&l.body, &map);
        if let Some(Terminator::Br {
            cond: Some((cc, a, b)),
            ..
        }) = l.term
        {
            let (cmp, hcc) = lower_branch_cond(cc, a, b, &map);
            code.extend(cmp);
            code.push(hb::setcc(hcc, HOp::Reg(HReg::Eax)));
        }
        pdbt_isa_x86::exec_block(&mut host, &code, 10_000).expect(what);
        let slot = |off: i32| host.mem.load32(off as u32).unwrap();
        for r in Reg::ALL {
            let want = cpu.regs[r.index()];
            assert_eq!(slot(env::reg_offset(r)), want, "{what}: {r}");
        }
        for f in Flag::ALL.into_iter().filter(|f| !omit.contains(*f)) {
            let got = slot(env::flag_offset(f)) != 0;
            assert_eq!(got, cpu.flags.get(f), "{what}: flag {f}");
        }
        for i in 0..16 {
            let (got, want) = (slot(env::freg_offset(FReg::new(i))), cpu.fregs[i as usize]);
            assert!(same_float(got, want.to_bits()), "{what}: s{i}");
        }
        for (base, size) in REGIONS {
            for a in (base..base + size).step_by(4) {
                let (got, want) = (host.mem.load32(a), cpu.mem.load32(a));
                assert_eq!(got, want, "{what}: memory at {a:#x}");
            }
        }
        assert_eq!(host.output, cpu.output, "{what}: output");
        let went = match l.term {
            None => Control::Next,
            Some(Terminator::Exit) => Control::Halt,
            Some(Terminator::Br {
                cond,
                taken,
                fallthrough,
            }) => match ctl {
                // A call's link-register write is in the body.
                Control::Call { link, .. } => Control::Call {
                    target: taken,
                    link,
                },
                _ if cond.is_none() || host.read(HReg::Eax) == 1 => Control::Jump(taken),
                _ => Control::Jump(fallthrough),
            },
            Some(Terminator::BrInd { target }) => Control::Jump(match target {
                Val::Reg(r) => slot(env::reg_offset(r)),
                Val::Tmp(t) => slot(env::spill_offset(t.0 as usize)),
                Val::Const(c) => c,
            }),
        };
        // A branch not taken, or a block end that falls through.
        let next = |ctl| match ctl {
            Control::Next if inst.is_branch() => Control::Jump(AT + 4),
            ctl => ctl,
        };
        assert_eq!(next(went), next(ctl), "{what}: control");
        true
    }

    /// Random instructions, each from its own random state. The
    /// translator omits flags of body instructions only: a terminal's
    /// target or condition is read after its body, from where
    /// `lower_ops` spilled it.
    #[test]
    fn lifted_instructions_match_the_interpreter() {
        let mut rng = StdRng::seed_from_u64(0x11F7_0001);
        let mut lifted = 0;
        for case in 0..cases() {
            let inst = sample(&mut rng);
            let omit = Flag::ALL
                .into_iter()
                .filter(|_| !inst.is_branch() && rng.gen_bool(0.3))
                .fold(FlagSet::EMPTY, |set, f| set | FlagSet::single(f));
            let machines = machines(&mut rng, &inst);
            let what = format!("case {case}: `{inst}` omitting {omit}");
            lifted += usize::from(agree(&inst, omit, machines, &what));
        }
        assert!(
            lifted * 2 > cases(),
            "only {lifted} of {} cases lifted",
            cases()
        );
    }

    /// Every flag-setting arithmetic and register-amount shift on every
    /// pair of edge values, with either carry in: where carries, borrows,
    /// overflows and shifter carry-outs change, which random words
    /// seldom reach.
    #[test]
    fn flag_arithmetic_matches_on_edge_values() {
        type Dp = fn(Reg, Reg, Operand) -> Inst;
        let dp: [Dp; 10] = [
            g::add,
            g::adc,
            g::sub,
            g::sbc,
            g::rsb,
            g::rsc,
            g::lsl,
            g::lsr,
            g::asr,
            g::ror,
        ];
        let (a, b) = (Reg::R1, Reg::R2);
        let insts = (dp.iter().map(|op| op(Reg::R0, a, Operand::Reg(b)).with_s()))
            .chain([g::cmp(a, Operand::Reg(b)), g::cmn(a, Operand::Reg(b))]);
        let mut rng = StdRng::seed_from_u64(0x11F7_0002);
        for inst in insts {
            for (x, y, c) in EDGES
                .iter()
                .flat_map(|x| EDGES.map(|y| (*x, y)))
                .flat_map(|(x, y)| [(x, y, false), (x, y, true)])
            {
                let (mut cpu, mut host) = machines(&mut rng, &inst);
                for (r, v) in [(a, x), (b, y)] {
                    cpu.write(r, v);
                    host.mem.store32(env::reg_offset(r) as u32, v).unwrap();
                }
                cpu.flags.set(Flag::C, c);
                host.mem
                    .store32(env::flag_offset(Flag::C) as u32, u32::from(c))
                    .unwrap();
                let what = format!("`{inst}` on {x:#x}, {y:#x}, carry {c}");
                assert!(agree(&inst, FlagSet::EMPTY, (cpu, host), &what), "{what}");
            }
        }
    }
}
