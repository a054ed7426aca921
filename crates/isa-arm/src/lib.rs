//! The guest machine model: an ARM-flavoured 32-bit RISC ISA.
//!
//! This crate is the guest side of the DBT: instruction definitions with
//! the classification axes the parameterizer needs ([`Op::category`],
//! [`Op::format`], [`Op::data_type`]), a reference interpreter ([`step`], [`run`]),
//! a fixed-width binary encoding ([`encode`]/[`decode`]), and a tiny
//! assembler ([`parse_listing`]).
//!
//! The ISA is a *model*, not real ARM — but it preserves every property
//! the paper's mechanisms depend on: a regular encoding split into
//! opcode/addressing-mode fields, optional flag-setting (`s`) variants,
//! flexible second operands with a barrel shifter, PC readable as a
//! general-purpose register (+8 pipeline convention), condition flags with
//! ARM borrow semantics, and the seven instructions the paper found
//! unlearnable (`push`, `pop`, `bl`, `b`, `mla`, `umlal`, `clz`).
//!
//! # Example
//!
//! ```
//! use pdbt_isa_arm::{builders::*, Cpu, Program, Reg, Operand};
//! use pdbt_isa::Cond;
//!
//! // Sum 1..=5, emit the result, exit.
//! let program = Program::new(0x1000, vec![
//!     mov(Reg::R0, Operand::Imm(5)),
//!     mov(Reg::R1, Operand::Imm(0)),
//!     add(Reg::R1, Reg::R1, Operand::Reg(Reg::R0)),
//!     sub(Reg::R0, Reg::R0, Operand::Imm(1)).with_s(),
//!     b(Cond::Ne, -8),
//!     mov(Reg::R0, Operand::Reg(Reg::R1)),
//!     svc(1),
//!     svc(0),
//! ]);
//! let mut cpu = Cpu::new();
//! pdbt_isa_arm::run(&mut cpu, &program, 1_000).unwrap();
//! assert_eq!(cpu.output, vec![15]);
//! ```

pub mod builders;
mod encode;
mod inst;
mod interp;
mod operand;
mod parse;
mod program;
mod reg;
mod state;

pub use encode::{decode, encode, DecodeError, EncodeError, MAX_BRANCH, MAX_IMM, MAX_MEM_OFFSET};
pub use inst::{Inst, Op, OperandTransform, Shape};
pub use interp::step;
pub use operand::{MemAddr, Operand, ShiftKind};
pub use parse::{parse_listing, ParseError};
pub use program::{run, FlagLiveness, Program, RunStats, INST_SIZE};
pub use reg::{FReg, Reg, RegList};
pub use state::Cpu;
