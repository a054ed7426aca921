//! Cross-session translation state: the ruleset, the sharded code
//! cache of pure translations, and the server-lifetime counters, held
//! behind one `Arc` so many engines (sessions) can share them.
//!
//! This is the ownership split behind `pdbt serve`: translating a block
//! is the expensive, *session-independent* work — the paper's
//! amortization argument (training cost spread over all future
//! translations) only pays off at scale if translations are likewise
//! amortized across runs. An [`Engine`](crate::Engine) therefore no
//! longer owns its `RuleSet` and `ShardedCache`; it borrows them from
//! here, keeps all *mutable* dispatch state (jump cache, chain links,
//! superblocks, metrics, report counters) session-private, and folds a
//! shared translation's static footprint into its own counters at first
//! session-local sight. The result: the first session translates a
//! block and every later session reuses it, while each session's
//! stripped report stays bit-identical to a cold single-engine run
//! (locked down in `tests/determinism.rs`).
//!
//! One shared state serves one guest image: translations are keyed by
//! guest pc, so sessions running *different* programs must use
//! different states (`pdbt-serve` partitions them by an image
//! fingerprint) or a session would execute another image's code.

use crate::cache::ShardedCache;
use crate::translate::{translate_block, TranslateConfig, TranslateError, TranslatedBlock};
use pdbt_core::RuleSet;
use pdbt_isa::Addr;
use pdbt_isa_arm::Program;
use pdbt_obs::{ArtifactCounters, ServerCounters, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// The translation state shared by every session of one server (or
/// owned exclusively by a standalone engine — `Engine::new` wraps one
/// privately, so the single-process CLI path is the one-session special
/// case of the same machinery).
#[derive(Debug)]
pub struct SharedTranslationState {
    /// The rule set every session translates with (`None` = pure
    /// QEMU-path baseline). Immutable for the state's lifetime: rule
    /// reloads are a new state, not a mutation.
    rules: Option<RuleSet>,
    /// The warm code cache of pure translations.
    cache: ShardedCache,
    /// Server-lifetime counters: probes, inserts, translate calls,
    /// sessions. See `pdbt_obs::ServerCounters` for the determinism
    /// discipline (`hits` is derived, not raced).
    server: ServerCounters,
    /// The serving-plane telemetry attached to this state: per-worker
    /// latency histograms, the flight recorder, and the request
    /// sequence counter. A standalone engine keeps one slot; the
    /// server sizes this to its worker count and stamps the partition
    /// fingerprint.
    telemetry: Telemetry,
    /// The superblock library rehydrated from a translation artifact,
    /// keyed by the full member list. Immutable after boot: a session
    /// forming a trace with exactly these members reuses the stored
    /// translation instead of calling `translate_trace` — translation
    /// is deterministic, so the result is identical and the session's
    /// stripped report stays bit-for-bit what a cold run produces.
    /// Traces a session forms live never enter this map (member choice
    /// follows session-local edge counters).
    traces: HashMap<Vec<Addr>, Arc<TranslatedBlock>>,
    /// What the artifact contributed at boot, plus live library hits.
    /// All-zero for a cold state.
    artifact: ArtifactCounters,
}

impl SharedTranslationState {
    /// Creates a shared state with the given rules and cache shard
    /// count (rounded up to a power of two).
    #[must_use]
    pub fn new(rules: Option<RuleSet>, cache_shards: usize) -> SharedTranslationState {
        Self::with_telemetry(rules, cache_shards, 1, 0)
    }

    /// [`SharedTranslationState::new`] with a sized telemetry plane:
    /// `slots` per-worker latency histogram sets (the server passes its
    /// worker count) and the guest-image `partition` fingerprint this
    /// state serves.
    #[must_use]
    pub fn with_telemetry(
        rules: Option<RuleSet>,
        cache_shards: usize,
        slots: usize,
        partition: u64,
    ) -> SharedTranslationState {
        SharedTranslationState {
            rules,
            cache: ShardedCache::new(cache_shards),
            server: ServerCounters::default(),
            telemetry: Telemetry::with_partition(slots, partition),
            traces: HashMap::new(),
            artifact: ArtifactCounters::default(),
        }
    }

    /// A state pre-warmed from a translation artifact: `blocks` are
    /// installed directly into the shared cache and `traces` become the
    /// superblock library, before any session attaches. Warm installs
    /// deliberately skip the `inserted`/`translate_calls` server
    /// counters — those count *live* translation work, so an
    /// artifact-booted daemon's first request reports pure cache hits
    /// and zero translate calls; the artifact's contribution is
    /// reported separately through `counters`.
    #[must_use]
    pub fn warm(
        rules: Option<RuleSet>,
        cache_shards: usize,
        slots: usize,
        partition: u64,
        blocks: Vec<TranslatedBlock>,
        traces: Vec<TranslatedBlock>,
        counters: ArtifactCounters,
    ) -> SharedTranslationState {
        let mut state = Self::with_telemetry(rules, cache_shards, slots, partition);
        for block in blocks {
            state.cache.insert(block.start, block);
        }
        state.traces = traces
            .into_iter()
            .map(|t| {
                let members: Vec<Addr> = t.member_marks.iter().map(|m| m.start).collect();
                (members, Arc::new(t))
            })
            .collect();
        state.artifact = counters;
        state
    }

    /// The shared rule set.
    #[must_use]
    pub fn rules(&self) -> Option<&RuleSet> {
        self.rules.as_ref()
    }

    /// The shared code cache.
    #[must_use]
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// The translation of the block at `pc`: the cached one, or one
    /// made now and published through the deduplicating insert. Also
    /// the nanoseconds the translator took, when this call ran it.
    ///
    /// # Errors
    ///
    /// What [`translate_block`] refuses; nothing is cached then.
    pub fn fetch_or_translate(
        &self,
        prog: &Program,
        pc: Addr,
        cfg: &TranslateConfig,
    ) -> Result<(Arc<TranslatedBlock>, Option<u64>), TranslateError> {
        if let Some(t) = self.cache.get(pc) {
            return Ok((t, None));
        }
        let t0 = pdbt_obs::now_ns();
        let block = translate_block(prog, pc, self.rules(), cfg)?;
        let ns = pdbt_obs::now_ns().saturating_sub(t0);
        self.server.translate_calls.inc();
        let (t, new) = self.cache.insert(pc, block);
        if new {
            self.server.inserted.inc();
        }
        Ok((t, Some(ns)))
    }

    /// The server-lifetime counters.
    #[must_use]
    pub fn server(&self) -> &ServerCounters {
        &self.server
    }

    /// The serving-plane telemetry.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The library translation for a superblock with exactly these
    /// members, if the boot artifact carried one.
    #[must_use]
    pub fn library_trace(&self, members: &[Addr]) -> Option<Arc<TranslatedBlock>> {
        self.traces.get(members).cloned()
    }

    /// Superblocks in the boot library.
    #[must_use]
    pub fn library_len(&self) -> usize {
        self.traces.len()
    }

    /// A clone of every library superblock, for re-sealing this state
    /// into an artifact (drain write-back). Order is unspecified; the
    /// canonical artifact writer sorts.
    #[must_use]
    pub fn library_traces(&self) -> Vec<TranslatedBlock> {
        self.traces.values().map(|t| (**t).clone()).collect()
    }

    /// The artifact counters.
    #[must_use]
    pub fn artifact(&self) -> &ArtifactCounters {
        &self.artifact
    }
}
