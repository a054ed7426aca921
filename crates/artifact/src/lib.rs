//! Sealed translation artifacts: compile once, boot warm forever.
//!
//! This crate turns the in-memory products of a training/translation
//! run — the ruleset, the sharded code cache, and the superblock trace
//! table — into a single sealed, versioned, checksummed file (the
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
//! Plus three pipeline helpers: [`capture`] (shared state → artifact),
//! [`compile`] (translate → verify → capture) and [`warm_state`]
//! (opened artifact → warm shared state).
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
//! let mut engine = Engine::with_shared(shared.clone(), EngineConfig::default());
//! let report = engine.run(&prog, &setup).unwrap();
//! assert_eq!(report.output, vec![42]);
//! assert_eq!(shared.server().snapshot().translate_calls, 0); // fully warm
//! ```

pub mod bytes;
pub mod codec;
pub mod format;

pub use format::{
    open_salvage, open_salvage_cached, seal, section_table, Artifact, ArtifactError, Opened,
    QuarantinedSection, FORMAT_VERSION, MAGIC, SECTIONS, TOOLCHAIN,
};

/// The cache [`open_salvage_cached`] shares rule blocks through.
pub use pdbt_core::RuleCache;
use pdbt_core::RuleSet;
use pdbt_isa_arm::Program;
use pdbt_obs::ArtifactCounters;
use pdbt_runtime::{Engine, EngineConfig, RunSetup, SharedTranslationState};
use std::sync::Arc;

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
    let state = SharedTranslationState::new(rules.cloned(), cfg.cache_shards);
    let state = Arc::new(state);
    let mut engine = Engine::with_shared(Arc::clone(&state), cfg);
    engine.prewarm(prog);
    engine
        .run(prog, setup)
        .map_err(|e| format!("verification run failed: {e}"))?;
    Ok(capture(label, prog, &state))
}

/// Captures a translation state as an artifact: the shared code cache
/// becomes the blocks, the trace table the traces, and the state's
/// ruleset the rules. The one capture path behind [`compile`] and a
/// serving daemon's re-seal of a live partition.
#[must_use]
pub fn capture(label: &str, program: &Program, state: &SharedTranslationState) -> Artifact {
    let blocks = state.cache().snapshot();
    Artifact {
        label: label.to_string(),
        program: program.clone(),
        rules: state.rules().cloned(),
        blocks: blocks.into_iter().map(|(_, b)| (*b).clone()).collect(),
        traces: state.traces(),
    }
}

/// Builds a warm [`SharedTranslationState`] from an opened artifact:
/// the code cache is rehydrated from the BLKS section, the trace
/// table from TRCE, and the ruleset from RULE (falling back to
/// `fallback_rules` when the artifact carries none or the section was
/// quarantined). The partition key is the guest-image fingerprint.
///
/// An [`Opened`] passed by value moves its rules, blocks and traces into
/// the state; a borrowed one is cloned first.
#[must_use]
pub fn warm_state(
    opened: impl Into<Opened>,
    fallback_rules: Option<&RuleSet>,
    cache_shards: usize,
    slots: usize,
) -> SharedTranslationState {
    let Opened {
        artifact,
        quarantined,
        fingerprint,
        ..
    } = opened.into();
    let loaded_rules = artifact.rules.as_ref().map_or(0, |r| r.len() + r.seq_len());
    let counters = ArtifactCounters {
        loaded_blocks: (artifact.blocks.len() as u64).into(),
        loaded_traces: (artifact.traces.len() as u64).into(),
        loaded_rules: (loaded_rules as u64).into(),
        quarantined_sections: (quarantined.len() as u64).into(),
        trace_hits: 0.into(),
    };
    SharedTranslationState::warm(
        artifact.rules.or_else(|| fallback_rules.cloned()),
        cache_shards,
        slots,
        fingerprint,
        artifact.blocks,
        artifact.traces,
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

    /// Two traces with one head — the taken and the fall-through side
    /// of its branch — seal to the same bytes in either input order.
    #[test]
    fn traces_with_one_head_seal_in_a_total_order() {
        use pdbt_runtime::{translate_trace, TranslateConfig};
        let prog = Program::new(
            0x1000,
            vec![
                g::sub(Reg::R0, Reg::R0, O::Imm(1)).with_s(), // 0x1000: head
                g::b(pdbt_isa::Cond::Ne, 8),                  // 0x1004 -> 0x100c
                g::add(Reg::R1, Reg::R1, O::Imm(1)),          // 0x1008: fall
                g::add(Reg::R2, Reg::R2, O::Imm(1)),          // 0x100c: taken
                g::svc(0),
            ],
        );
        let trace = |second| {
            translate_trace(&prog, &[0x1000, second], None, &TranslateConfig::default()).unwrap()
        };
        let (fall, taken) = (trace(0x1008), trace(0x100c));
        let sealed = |traces| {
            seal(&Artifact {
                label: "one head".to_string(),
                program: prog.clone(),
                rules: None,
                blocks: Vec::new(),
                traces,
            })
        };
        let forward = sealed(vec![fall.clone(), taken.clone()]);
        assert!(
            forward == sealed(vec![taken, fall]),
            "input order reached TRCE"
        );
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
        let mut engine = Engine::with_shared(shared.clone(), EngineConfig::default());
        let warm = engine.run(&prog, &setup).unwrap();
        assert_eq!(warm.output, cold.output);
        let (server, loaded) = (shared.server().snapshot(), shared.artifact().snapshot());
        assert_eq!(server.translate_calls, 0);
        assert_eq!(server.inserted, 0);
        assert!(loaded.warm());
        assert_eq!(loaded.loaded_blocks, artifact.blocks.len() as u64);
    }
}
