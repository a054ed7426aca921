//! Sealed translation artifacts: compile once, boot warm forever.
//!
//! This crate turns the in-memory products of a training/translation
//! run — the ruleset, the sharded code cache, and the superblock trace
//! library — into a single sealed, versioned, checksummed file (the
//! **PDBA** format), and turns such a file back into a warm
//! [`SharedTranslationState`] that a serving daemon can answer its
//! first request from with *zero* translate calls.
//!
//! The three layers:
//!
//! * [`bytes`]-level primitives (little-endian writer/reader, CRC-32),
//! * a lossless [`codec`] for [`TranslatedBlock`]s,
//! * the [`format`] container: header, section table, per-section CRCs,
//!   and the salvage loader ([`open_salvage`]) that quarantines exactly
//!   the damaged section and keeps the rest.
//!
//! Plus two pipeline helpers: [`compile`] (train → translate → capture)
//! and [`warm_state`] (opened artifact → warm shared state).
//!
//! # Example
//!
//! ```
//! use pdbt_artifact::{compile, open_salvage, seal, warm_state};
//! use pdbt_runtime::{Engine, EngineConfig, RunSetup};
//! use pdbt_isa_arm::{builders as g, Program, Reg, Operand as O};
//!
//! let prog = Program::new(0x1000, vec![
//!     g::mov(Reg::R0, O::Imm(41)),
//!     g::add(Reg::R0, Reg::R0, O::Imm(1)),
//!     g::svc(1),
//!     g::svc(0),
//! ]);
//! let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
//! let artifact = compile(&prog, None, &setup, EngineConfig::default(), "demo").unwrap();
//! let bytes = seal(&artifact);
//!
//! // ... later, possibly in another process ...
//! let opened = open_salvage(&bytes).unwrap();
//! assert!(opened.quarantined.is_empty());
//! let shared = std::sync::Arc::new(warm_state(&opened, None, 8, 4));
//! let mut engine = Engine::with_shared(shared, EngineConfig::default());
//! let report = engine.run(&prog, &setup).unwrap();
//! assert_eq!(report.output, vec![42]);
//! assert_eq!(report.server.translate_calls, 0); // fully warm
//! ```

pub mod bytes;
pub mod codec;
pub mod format;

pub use format::{
    open_salvage, seal, section_table, Artifact, ArtifactError, Opened, QuarantinedSection,
    FORMAT_VERSION, MAGIC, SECTIONS, TOOLCHAIN,
};

use pdbt_core::RuleSet;
use pdbt_isa_arm::Program;
use pdbt_obs::ArtifactCounters;
use pdbt_runtime::{Engine, EngineConfig, RunSetup, SharedTranslationState};

/// Runs the full translate pipeline over a guest image and captures
/// everything a warm boot needs: the translated blocks (prewarm covers
/// every discoverable block, the run itself covers the executed set),
/// the superblock traces the run formed, and the ruleset used.
///
/// The run is a real execution — compile is translate-and-verify, not
/// translate-and-hope: an image that cannot run cannot be sealed.
///
/// # Errors
///
/// A human-readable message when the verification run fails.
pub fn compile(
    prog: &Program,
    rules: Option<&RuleSet>,
    setup: &RunSetup,
    cfg: EngineConfig,
    label: &str,
) -> Result<Artifact, String> {
    let mut engine = Engine::new(rules.cloned(), cfg);
    engine.prewarm(prog);
    engine
        .run(prog, setup)
        .map_err(|e| format!("verification run failed: {e}"))?;
    let blocks = engine
        .cache()
        .snapshot()
        .into_iter()
        .map(|(_, b)| (*b).clone())
        .collect();
    let traces = engine.export_traces();
    Ok(Artifact {
        label: label.to_string(),
        program: prog.clone(),
        rules: rules.cloned(),
        blocks,
        traces,
    })
}

/// Builds a warm [`SharedTranslationState`] from an opened artifact:
/// the code cache is rehydrated from the BLKS section, the trace
/// library from TRCE, and the ruleset from RULE (falling back to
/// `fallback_rules` when the artifact carries none or the section was
/// quarantined). The partition key is the guest-image fingerprint.
#[must_use]
pub fn warm_state(
    opened: &Opened,
    fallback_rules: Option<&RuleSet>,
    cache_shards: usize,
    slots: usize,
) -> SharedTranslationState {
    let a = &opened.artifact;
    let loaded_rules = a.rules.as_ref().map_or(0, |r| r.len() + r.seq_len());
    let counters = ArtifactCounters {
        loaded_blocks: (a.blocks.len() as u64).into(),
        loaded_traces: (a.traces.len() as u64).into(),
        loaded_rules: (loaded_rules as u64).into(),
        quarantined_sections: (opened.quarantined.len() as u64).into(),
        trace_hits: 0.into(),
    };
    let rules = a.rules.clone().or_else(|| fallback_rules.cloned());
    SharedTranslationState::warm(
        rules,
        cache_shards,
        slots,
        a.fingerprint(),
        a.blocks.clone(),
        a.traces.clone(),
        counters,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdbt_isa_arm::{builders as g, Operand as O, Reg};

    fn loop_program() -> Program {
        Program::new(
            0x1000,
            vec![
                g::mov(Reg::R0, O::Imm(5)),
                g::mov(Reg::R1, O::Imm(0)),
                g::add(Reg::R1, Reg::R1, O::Reg(Reg::R0)),
                g::sub(Reg::R0, Reg::R0, O::Imm(1)).with_s(),
                g::b(pdbt_isa::Cond::Ne, -8),
                g::mov(Reg::R0, O::Reg(Reg::R1)),
                g::svc(1),
                g::svc(0),
            ],
        )
    }

    #[test]
    fn seal_open_roundtrip_is_lossless_and_a_fixpoint() {
        let prog = loop_program();
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let artifact = compile(&prog, None, &setup, EngineConfig::default(), "loop").unwrap();
        assert!(!artifact.blocks.is_empty());
        let bytes = seal(&artifact);
        let opened = open_salvage(&bytes).unwrap();
        assert!(opened.quarantined.is_empty());
        assert_eq!(opened.artifact.label, "loop");
        assert_eq!(opened.artifact.blocks, artifact.blocks);
        assert_eq!(opened.artifact.traces, artifact.traces);
        assert_eq!(opened.artifact.fingerprint(), artifact.fingerprint());
        // Re-sealing the opened artifact must reproduce the bytes.
        assert_eq!(seal(&opened.artifact), bytes);
    }

    #[test]
    fn warm_boot_answers_without_translating() {
        let prog = loop_program();
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let artifact = compile(&prog, None, &setup, EngineConfig::default(), "loop").unwrap();
        let cold = Engine::new(None, EngineConfig::default())
            .run(&prog, &setup)
            .unwrap();

        let opened = open_salvage(&seal(&artifact)).unwrap();
        let shared = std::sync::Arc::new(warm_state(&opened, None, 8, 4));
        let mut engine = Engine::with_shared(shared, EngineConfig::default());
        let warm = engine.run(&prog, &setup).unwrap();
        assert_eq!(warm.output, cold.output);
        assert_eq!(warm.server.translate_calls, 0);
        assert_eq!(warm.server.inserted, 0);
        assert!(warm.artifact.warm());
        assert_eq!(warm.artifact.loaded_blocks, artifact.blocks.len() as u64);
    }
}
