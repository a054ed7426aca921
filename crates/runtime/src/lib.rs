//! The DBT runtime: block discovery, three translation paths (QEMU-IR,
//! learned rules, parameterized rules), condition-flag delegation, a
//! code cache, and class-attributed execution metrics.
//!
//! Which of the paper's configurations an [`Engine`] embodies is decided
//! by what it is given:
//!
//! * `Engine::new(None, …)` — the QEMU 4.1 baseline (pure lift/lower),
//! * a learned-only [`pdbt_core::RuleSet`] — the `w/o para.` learning
//!   baseline,
//! * a parameterized rule set (see `pdbt_core::derive`) — the paper's
//!   `para.` system, with [`TranslateConfig::flag_delegation`] as the
//!   condition-flag knob of Figs 14/15.
//!
//! # Example
//!
//! ```
//! use pdbt_runtime::{Engine, EngineConfig, RunSetup};
//! use pdbt_isa_arm::{builders as g, Program, Reg, Operand as O};
//!
//! let prog = Program::new(0x1000, vec![
//!     g::mov(Reg::R0, O::Imm(41)),
//!     g::add(Reg::R0, Reg::R0, O::Imm(1)),
//!     g::svc(1),
//!     g::svc(0),
//! ]);
//! let mut engine = Engine::new(None, EngineConfig::default());
//! let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
//! let report = engine.run(&prog, &setup).unwrap();
//! assert_eq!(report.output, vec![42]);
//! ```

mod backend;
mod cache;
mod engine;
mod fallback;
mod report;
mod session;
mod shared;
mod translate;

pub use backend::{
    backend_for, BackendKind, BackendObs, HostBackend, ModelBackend, ThreadedBackend,
};
pub use cache::{CachedBlock, ShardedCache};
pub use engine::{Engine, EngineConfig, EngineError, RunSetup, ENV_BASE};
pub use report::{Metrics, Outcome, Report, Resilience, RunObs};
pub use shared::SharedTranslationState;
pub use translate::{
    collect_block, translate_block, translate_trace, BlockSuccs, CodeClass, DelegOutcome,
    MemberMark, RuleAttribution, TranslateConfig, TranslateError, TranslatedBlock,
};
