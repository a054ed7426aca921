//! The host machine model: an x86-flavoured 32-bit two-operand CISC ISA.
//!
//! This crate is the host side of the DBT: destructive two-operand
//! instructions, `EFLAGS` with x86 polarity (CF is *borrow* after
//! subtraction — the opposite of the guest, which is what makes
//! condition-flag delegation interesting, see [`Cc::from_guest`]),
//! memory operands with base+index+displacement, and a block executor
//! ([`exec_block`]) with QEMU-style block-exit conventions. Host code
//! lives as [`Inst`] values; its one byte form is the sealed artifact's
//! (`pdbt-artifact`'s codec).
//!
//! # Example
//!
//! ```
//! use pdbt_isa_x86::{builders::*, Cpu, Reg, Operand, BlockExit};
//!
//! let mut cpu = Cpu::new();
//! let block = [
//!     mov(Reg::Eax.into(), Operand::Imm(6)),
//!     imul(Reg::Eax.into(), Operand::Imm(7)),
//!     out(),
//!     hlt(),
//! ];
//! let (exit, _) = pdbt_isa_x86::exec_block(&mut cpu, &block, 100).unwrap();
//! assert_eq!(exit, BlockExit::Halted);
//! assert_eq!(cpu.output, vec![42]);
//! ```

pub mod builders;
mod inst;
mod interp;
mod operand;
mod reg;
mod threaded;

pub use inst::{Inst, Op, Operands, Shape, MAX_OPERANDS};
pub use interp::{
    exec_block, exec_block_traced, exec_block_traced_into, step, BlockExit, Cpu, ExecStats, Step,
};
pub use operand::{CarrySense, Cc, Mem, Operand};
pub use reg::{Reg, Xmm};
pub use threaded::{
    compile_block, compile_block_tagged, exec_threaded, exec_threaded_into, OpTag, RetireTally,
    ThreadedCode, MAX_ANCHOR, RETIRE_CLASSES,
};
