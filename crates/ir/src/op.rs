//! The TCG-like intermediate representation.
//!
//! Each guest instruction lifts to one or more IR operations; each IR
//! operation lowers to one or more host instructions. That two-stage
//! expansion is QEMU's "multiplying effect" (paper §II-A), which the
//! learned rules avoid by translating guest → host directly.

use pdbt_isa::{Addr, BinOp, Flag, PredOp, UnOp, Width};
use pdbt_isa_arm::{FReg, Reg as GReg};

/// An IR temporary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tmp(pub u8);

/// A value read by an IR operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Val {
    /// A guest register (resolved by the block register map at lowering).
    Reg(GReg),
    /// An IR temporary.
    Tmp(Tmp),
    /// A constant.
    Const(u32),
}

/// A location written by an IR operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dst {
    /// A guest register.
    Reg(GReg),
    /// An IR temporary.
    Tmp(Tmp),
}

/// One IR operation (non-terminal).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum IrOp {
    /// `d = s`
    Mov { d: Dst, s: Val },
    /// `d = a <op> b`
    Bin { op: BinOp, d: Dst, a: Val, b: Val },
    /// `d = <op> a`
    Un { op: UnOp, d: Dst, a: Val },
    /// `d = (a <cc> b) ? 1 : 0`, for an integer predicate
    Setc { d: Dst, cc: PredOp, a: Val, b: Val },
    /// `d = guest_flag(f)` as 0/1
    GetFlag { d: Dst, f: Flag },
    /// `guest_flag(f) = (s != 0)`
    SetFlag { f: Flag, s: Val },
    /// `d = mem[a + off]` (zero-extended)
    Load {
        d: Dst,
        addr: Val,
        off: i32,
        width: Width,
    },
    /// `mem[a + off] = s` (narrowed)
    Store {
        s: Val,
        addr: Val,
        off: i32,
        width: Width,
    },
    /// `fd = fa <op> fb`, for a float operator
    FBin {
        op: BinOp,
        d: FReg,
        a: FReg,
        b: FReg,
    },
    /// `fd = fs`
    FMov { d: FReg, s: FReg },
    /// `fd = mem[a + off]` (bit pattern)
    FLoad { d: FReg, addr: Val, off: i32 },
    /// `mem[a + off] = fs`
    FStore { s: FReg, addr: Val, off: i32 },
    /// Emit `s` to the guest output stream.
    Output { s: Val },
}

/// How a lifted guest instruction transfers control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Conditional or unconditional direct branch. `cond == None` means
    /// always taken.
    Br {
        /// Branch condition over IR values (an integer predicate), if
        /// any.
        cond: Option<(PredOp, Val, Val)>,
        /// Guest address when taken.
        taken: Addr,
        /// Guest address when not taken.
        fallthrough: Addr,
    },
    /// Indirect branch to a computed guest address.
    BrInd {
        /// The target value.
        target: Val,
    },
    /// Guest exit (`svc #0`).
    Exit,
}

/// The result of lifting one guest instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lifted {
    /// Straight-line IR body.
    pub body: Vec<IrOp>,
    /// Control transfer, if the instruction ends the block.
    pub term: Option<Terminator>,
}
