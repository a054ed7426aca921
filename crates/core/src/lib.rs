//! The paper's contribution: learning translation rules from compiled
//! binaries and **parameterizing** them along the opcode and
//! addressing-mode dimensions to cover instructions never seen in
//! training.
//!
//! Pipeline (paper Figs 1 & 5):
//!
//! 1. [`learning`] — pair guest/host sequences per source statement
//!    (via the synthetic compiler's debug map), verify semantic
//!    equivalence symbolically, normalize and merge into a [`RuleSet`].
//!    A rule's key is a sequence of one or more [`ComboKey`]s, one per
//!    guest instruction, produced by the one operand scanner
//!    ([`key::Scan`]); the rule set is one table over such keys.
//! 2. [`classify`] — split the ISA into subgroups by data type,
//!    encoding format and operation category (§IV-A).
//! 3. [`mod@derive`] — enumerate each seeded subgroup's combo universe,
//!    adapt host templates (opcode substitution, addressing-mode
//!    substitution, auxiliary instructions for complex opcodes and
//!    dependence patterns), verify every derivation, merge (§IV-B/C/D).
//!    Only one-key rules are read and derived (§V-D): [`RuleSet::len`],
//!    `iter` and `lookup` are that view, [`RuleSet::seq_len`] counts the
//!    longer, learned-only rules.
//! 4. [`flags`] — condition-flag delegation for rule application.
//!
//! # Example: Fig 3 in code
//!
//! ```
//! use pdbt_core::{key, emit, ruleset, derive};
//! use pdbt_core::ruleset::{Provenance, RuleEntry, RuleSet};
//! use pdbt_isa_arm::{builders as g, Operand as O, Reg};
//! use pdbt_symexec::CheckOptions;
//!
//! // One learned rule for `add`…
//! let p = key::parameterize(&g::add(Reg::R4, Reg::R4, O::Reg(Reg::R5))).unwrap();
//! let template = emit::emit_for(&p.key).unwrap();
//! let flags = ruleset::verify_combo(&p.key, &template, CheckOptions::default()).unwrap();
//! let mut rules = RuleSet::new();
//! rules.insert(vec![p.key], RuleEntry {
//!     template, flags, provenance: Provenance::Learned, imm_constraint: None,
//! });
//!
//! // …derives the `eor` rule that was never in the training set.
//! let (full, stats) = derive::derive(
//!     &rules, derive::DeriveConfig::full(), CheckOptions::default());
//! assert!(full.lookup(&g::eor(Reg::R9, Reg::R9, O::Reg(Reg::R10))).is_some());
//! assert!(stats.instantiated > 100);
//! ```

pub mod classify;
pub mod derive;
pub mod emit;
pub mod flags;
pub mod key;
pub mod learning;
pub mod ruleset;
pub mod store_io;
pub mod template;

pub use derive::{derive as parameterize_rules, derive_jobs, DeriveConfig, DeriveStats};
pub use key::{parameterize, ComboKey, Instantiation, ModeTag, Parameterized};
pub use learning::{learn_into, FunnelStats, LearnConfig, Reject};
pub use ruleset::{Match, Provenance, RuleEntry, RuleSet};
pub use store_io::{load_rules, load_rules_salvage, save_rules, QuarantinedRule, StoreError};
pub use template::{HostLoc, Template, TemplateError, TemplateInst};
