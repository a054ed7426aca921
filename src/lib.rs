//! # pdbt — Parameterized learning-based dynamic binary translation
//!
//! A self-contained reproduction of *"More with Less — Deriving More
//! Translation Rules with Less Training Data for DBTs Using
//! Parameterization"* (Jiang et al., MICRO 2020).
//!
//! This facade crate re-exports the whole workspace. Most users want:
//!
//! * [`core`] — learning translation rules and parameterizing them
//!   (the paper's contribution),
//! * [`runtime`] — the DBT engine that applies them,
//! * [`workloads`] — the synthetic SPEC-CINT-like benchmark suite.
//!
//! ## Quickstart
//!
//! ```
//! use pdbt::core::derive::{derive, DeriveConfig};
//! use pdbt::workloads::{learn_suite, run_dbt, Benchmark, Scale};
//! use pdbt_symexec::CheckOptions;
//!
//! // Learn rules from every benchmark except `mcf`, parameterize them,
//! // and run `mcf` under the parameterized DBT.
//! let suite = pdbt::workloads::suite(Scale::tiny());
//! let learned = learn_suite(&suite, Some(Benchmark::Mcf));
//! let (rules, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
//! let target = suite.iter().find(|w| w.bench == Benchmark::Mcf).unwrap();
//! let report = run_dbt(target, Some(rules), true).unwrap();
//! assert!(report.metrics.coverage() > 0.5);
//! ```

pub use pdbt_artifact as artifact;
pub use pdbt_compiler as compiler;
pub use pdbt_core as core;
pub use pdbt_fleet as fleet;
pub use pdbt_ir as ir;
pub use pdbt_isa as isa;
pub use pdbt_isa_arm as arm;
pub use pdbt_isa_x86 as x86;
pub use pdbt_obs as obs;
pub use pdbt_runtime as runtime;
pub use pdbt_symexec as symexec;
pub use pdbt_workloads as workloads;
