//! One guest image's record — live translation state plus what the
//! replication plane needs to advertise, serve and persist it — and the
//! two ways records meet the disk: the boot scan of `--artifact-dir`
//! and the drain write-back.

use super::{ServeConfig, ServerCtx};
use pdbt_core::RuleSet;
use pdbt_fleet::{artifact_file_name, dedupe_newest, parse_generation, seal_live, ArtifactVersion};
use pdbt_runtime::{EngineConfig, SharedTranslationState};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pdbt_obs::counter_family! {
    /// A point-in-time copy of [`ArtifactBoot`]: the `artifacts`
    /// PING/STATS section, next to the live trace-library hits summed
    /// over partitions.
    pub(super) struct ArtifactTally {
        /// Artifacts that loaded and warmed a partition.
        loaded,
        /// Artifacts rejected wholesale (unreadable, bad header/version,
        /// fingerprint mismatch) or shadowed by a newer generation of
        /// the same image — the image boots from the winner or cold.
        rejected,
        /// Sections quarantined inside scanned or transferred artifacts.
        sections_quarantined,
    }
    /// The artifact warm-boot tally. All-zero when the server boots
    /// cold (no `--artifact-dir`); `sections_quarantined` also moves at
    /// runtime when a wire transfer carries quarantinable damage.
    atomic pub(super) struct ArtifactBoot;
}

/// Everything the server holds for one guest image: the live
/// [`SharedTranslationState`] its sessions share, and what the
/// replication plane needs to advertise it, serve it to a peer, and
/// write it back to disk.
#[derive(Debug)]
pub(super) struct Partition {
    /// The translation state sessions of this image attach to.
    pub(super) state: Arc<SharedTranslationState>,
    /// Human-readable label (`mcf/tiny`, `inline`), recorded on first
    /// sight; shown in STATS, advertised and sealed into write-backs.
    pub(super) label: String,
    /// The guest image — re-sealing needs the GIMG section.
    program: pdbt_isa_arm::Program,
    /// Version of `sealed`, or of the next seal's predecessor.
    pub(super) version: ArtifactVersion,
    /// The current sealed bytes, lazily refreshed when the live cache
    /// outgrows them (`None` until the partition is first sealed).
    pub(super) sealed: Option<Arc<Vec<u8>>>,
    /// How many blocks `sealed` captured — the staleness check: the
    /// shared cache only ever grows and blocks are immutable, so a
    /// length match means the sealed bytes are current.
    pub(super) sealed_blocks: usize,
    /// The generation the artifact dir holds for this image (`None` =
    /// not on disk); drain write-back only writes when it has moved
    /// past this.
    pub(super) disk_generation: Option<u64>,
}

impl Partition {
    /// A cold partition for an image seen for the first time in a
    /// request, with a clone of the server's rules. Its telemetry plane
    /// gets one latency slot per worker and is stamped with the image
    /// fingerprint.
    pub(super) fn cold(
        cfg: &ServeConfig,
        image: u64,
        label: &str,
        program: &pdbt_isa_arm::Program,
    ) -> Partition {
        Partition {
            state: Arc::new(SharedTranslationState::with_telemetry(
                cfg.rules.clone(),
                EngineConfig::default().cache_shards,
                cfg.jobs,
                image,
            )),
            label: label.to_string(),
            program: program.clone(),
            version: ArtifactVersion::default(),
            sealed: None,
            sealed_blocks: 0,
            disk_generation: None,
        }
    }

    /// The one artifact-ingest path, shared by the boot scan and wire
    /// adoption: label (the artifact's own, else the caller's
    /// fallback), then `warm_state` — no counter pollution, so sessions
    /// on the new state report translate-free warm runs — then the
    /// record. When the artifact carries no ruleset, or its RULE section
    /// was quarantined, the partition falls back to the server's own
    /// `rules`, exactly as a cold partition would.
    pub(super) fn from_artifact(
        opened: &pdbt_artifact::Opened,
        fallback_label: impl FnOnce() -> String,
        rules: Option<&RuleSet>,
        slots: usize,
        version: ArtifactVersion,
        bytes: Arc<Vec<u8>>,
        disk_generation: Option<u64>,
    ) -> Partition {
        let label = if opened.artifact.label.is_empty() {
            fallback_label()
        } else {
            opened.artifact.label.clone()
        };
        let state =
            pdbt_artifact::warm_state(opened, rules, EngineConfig::default().cache_shards, slots);
        Partition {
            state: Arc::new(state),
            label,
            program: opened.artifact.program.clone(),
            version,
            // A salvaged (partially quarantined) file is not worth
            // advertising: leave `sealed` empty so the first peer
            // interaction re-seals clean content from live state.
            sealed: opened.quarantined.is_empty().then_some(bytes),
            sealed_blocks: opened.artifact.blocks.len(),
            disk_generation,
        }
    }

    /// The current sealed bytes and version, re-sealing lazily when
    /// the live cache has outgrown the last seal. Every content change
    /// bumps the generation by one, so this node's advertised versions
    /// are monotone — the property the fleet's newest-wins convergence
    /// rests on. Returns `None` when there is nothing to advertise
    /// (empty cache, never sealed). Callers hold `ctx.replication`.
    pub(super) fn seal(&mut self) -> Option<(Arc<Vec<u8>>, ArtifactVersion)> {
        let live_blocks = self.state.cache().len();
        if let Some(sealed) = &self.sealed {
            if self.sealed_blocks == live_blocks {
                return Some((Arc::clone(sealed), self.version));
            }
        }
        if live_blocks == 0 && self.sealed.is_none() {
            return None;
        }
        let generation = if self.sealed.is_some() {
            self.version.generation + 1
        } else {
            // First seal: continue past whatever the disk holds (a
            // quarantined boot artifact leaves `sealed` empty but the
            // file's generation taken), else start at 0.
            self.disk_generation.map_or(0, |g| g + 1)
        };
        let bytes = seal_live(&self.label, &self.program, &self.state);
        let version = ArtifactVersion::of_bytes(generation, &bytes)
            .expect("a self-sealed artifact always parses");
        let sealed = Arc::new(bytes);
        self.sealed = Some(Arc::clone(&sealed));
        self.sealed_blocks = live_blocks;
        self.version = version;
        Some((sealed, version))
    }
}

/// What the bind-time artifact scan produced.
#[derive(Debug, Default)]
pub(super) struct BootScan {
    pub(super) partitions: BTreeMap<u64, Partition>,
    pub(super) boot: ArtifactBoot,
}

/// The bind-time artifact scan: every `*.pdba` file in `dir` (sorted by
/// name for deterministic scan order) is opened in salvage mode; the
/// survivors are deduplicated by guest-image fingerprint keeping the
/// *newest* [`ArtifactVersion`] (file-name generation, section CRCs as
/// the tie-break — never scan order), and each winner pre-creates its
/// image's translation-state partition. Shadowed duplicates are
/// counted as rejects, not silently dropped.
///
/// Failure is never fatal and never aborts the scan: an unreadable or
/// rejected artifact is counted and logged, and that image simply boots
/// cold when its first request arrives.
pub(super) fn load_artifacts(dir: &Path, rules: Option<&RuleSet>, slots: usize) -> BootScan {
    let mut scan = BootScan::default();
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "pdba"))
            .collect(),
        Err(e) => {
            eprintln!(
                "pdbt-serve: artifact dir {} unreadable ({e}); booting cold",
                dir.display()
            );
            return scan;
        }
    };
    paths.sort();
    let mut candidates = Vec::new();
    for path in paths {
        let parsed = std::fs::read(&path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|bytes| {
                let reject = |e| format!("rejected: {e}");
                let opened = pdbt_artifact::open_salvage(&bytes).map_err(reject)?;
                let generation = parse_generation(&path);
                let version = ArtifactVersion::of_bytes(generation, &bytes).map_err(reject)?;
                Ok((bytes, opened, version))
            });
        let (bytes, opened, version) = match parsed {
            Ok(p) => p,
            Err(why) => {
                eprintln!("pdbt-serve: artifact {} {why}", path.display());
                scan.boot.rejected.inc();
                continue;
            }
        };
        let fingerprint = opened.artifact.fingerprint();
        candidates.push((fingerprint, version, (path, bytes, opened)));
    }
    let (winners, shadowed) = dedupe_newest(candidates);
    if shadowed > 0 {
        eprintln!(
            "pdbt-serve: {shadowed} duplicate artifact(s) shadowed by newer generations in {}",
            dir.display()
        );
        scan.boot.rejected.add(shadowed);
    }
    for (fingerprint, version, (path, bytes, opened)) in winners {
        for q in &opened.quarantined {
            eprintln!(
                "pdbt-serve: artifact {}: section {} quarantined: {}",
                path.display(),
                q.section,
                q.reason
            );
        }
        scan.boot
            .sections_quarantined
            .add(opened.quarantined.len() as u64);
        let file_stem = || {
            path.file_stem().map_or_else(
                || "artifact".to_string(),
                |s| s.to_string_lossy().into_owned(),
            )
        };
        let partition = Partition::from_artifact(
            &opened,
            file_stem,
            rules,
            slots,
            version,
            Arc::new(bytes),
            Some(version.generation),
        );
        scan.partitions.insert(fingerprint, partition);
        scan.boot.loaded.inc();
    }
    scan
}

/// Drain write-back: every partition whose current seal has moved past
/// what the artifact dir holds is written out under its generation
/// file name, in fingerprint order. Runs after the queue quiesced, so
/// the seals are final.
pub(super) fn write_back(ctx: &ServerCtx, dir: &Path) {
    let _plane = ctx.plane();
    for (&fp, p) in ctx.partitions().iter_mut() {
        let Some((sealed, version)) = p.seal() else {
            continue;
        };
        if p.disk_generation.is_some_and(|g| version.generation <= g) {
            continue;
        }
        let path = dir.join(artifact_file_name(fp, version.generation));
        match std::fs::write(&path, sealed.as_slice()) {
            Ok(()) => {
                ctx.fleet.written_back.inc();
                ctx.fleet.bytes.add(sealed.len() as u64);
                p.disk_generation = Some(version.generation);
            }
            Err(e) => {
                eprintln!("pdbt-serve: write-back to {} failed: {e}", path.display());
            }
        }
    }
}
