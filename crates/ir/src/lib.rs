//! The QEMU-baseline translation pipeline: a TCG-like IR, a guest → IR
//! lifter, and an IR → host lowering.
//!
//! This crate reproduces the paper's baseline. QEMU translates each guest
//! instruction into one or more IR pseudo-instructions and each IR
//! pseudo-instruction into one or more host instructions — the
//! "multiplying effect" (§II-A) that costs the baseline 3.49 core host
//! instructions per guest instruction (Table II). The learned-rule path
//! (`pdbt-core`) bypasses this pipeline entirely.
//!
//! # Example
//!
//! ```
//! use pdbt_ir::{lift, lower_ops, RegMap};
//! use pdbt_isa_arm::builders::*;
//! use pdbt_isa_arm::{Operand, Reg};
//!
//! let guest = add(Reg::R0, Reg::R1, Operand::Imm(1)).with_s();
//! let lifted = lift(&guest, 0x1000).unwrap();
//! let host = lower_ops(&lifted.body, &RegMap::all_env());
//! // Flag materialization makes the QEMU path expensive:
//! assert!(host.len() > 10);
//! ```

pub mod env;
mod lift;
mod lower;
mod op;

pub use env::{Loc, RegMap, ALLOCATABLE, SCRATCH};
pub use lift::{lift, lift_omit, LiftError};
pub use lower::{host_cc, lower_branch_cond, lower_ops};
pub use op::{Dst, IrOp, Lifted, Terminator, Tmp, Val};
