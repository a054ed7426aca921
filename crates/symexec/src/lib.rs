//! Symbolic-execution-based verification for translation rules.
//!
//! The paper verifies rule candidates (and parameterized derivations) by
//! symbolic execution (§II-A, §IV-C). This crate is that verifier: a
//! 32-bit term algebra with carry/borrow/overflow primitives
//! ([`term`]), a normalizing rewriter ([`simplify`]), the symbolic
//! machine states both ISAs' one `step` body runs on ([`machine`]), and
//! the equivalence checker ([`check`]) with a randomized differential
//! backstop.
//!
//! The checker is a *semi-decision procedure* (see DESIGN.md §2): it
//! proves equivalence by normalization, refutes it by differential
//! witness, and rejects anything it cannot prove — strictly sound for
//! the DBT runtime, at the cost of losing some true rules, exactly the
//! trade-off the paper reports for its strict verifier (§II-B).
//!
//! # Example
//!
//! ```
//! use pdbt_symexec::{check, CheckOptions, Mapping};
//! use pdbt_isa_arm::{builders as g, Reg as GReg, Operand as GOp};
//! use pdbt_isa_x86::{builders as h, Reg as HReg};
//!
//! // `add r0, r0, r1` is equivalent to `addl ecx, ebx` under the
//! // mapping r0↔ecx, r1↔ebx.
//! let verdict = check(
//!     &[g::add(GReg::R0, GReg::R0, GOp::Reg(GReg::R1))],
//!     &[h::add(HReg::Ecx.into(), HReg::Ebx.into())],
//!     &Mapping::new(vec![(GReg::R0, HReg::Ecx), (GReg::R1, HReg::Ebx)]),
//!     CheckOptions::default(),
//! );
//! assert!(verdict.is_equivalent());
//! ```

pub mod batch;
mod equiv;
mod eval;
pub mod machine;
mod simplify;
pub mod term;

pub use batch::{check_batch, CheckCase};
pub use equiv::{
    check, propose_mappings, CheckOptions, FlagEquiv, Mapping, Verdict, FUEL_EXHAUSTED,
};
pub use eval::{eval, eval_mem_writes, Assignment};
pub use machine::SymExecError;
pub use simplify::{simplify, simplify_mem};
pub use term::{Node, Sym, SymMem, Term};
