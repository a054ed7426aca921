//! One guest image's record — live translation state plus what the
//! replication plane needs to advertise, serve and persist it — and the
//! two ways records meet the disk: the boot scan of `--artifact-dir`
//! and the drain write-back.

use super::{ServeConfig, ServerCtx};
use pdbt_artifact::{Opened, RuleCache};
use pdbt_core::RuleSet;
use pdbt_fleet::{
    artifact_file_name, dedupe_newest, parse_generation, ArtifactVersion, MAX_ARTIFACT,
};
use pdbt_runtime::{EngineConfig, SharedTranslationState};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pdbt_obs::counter_family! {
    /// A point-in-time copy of [`ArtifactBoot`]: the `artifacts`
    /// PING/STATS section, next to the trace-table hits summed over
    /// partitions.
    pub(super) struct ArtifactTally {
        /// Artifacts that loaded and warmed a partition.
        loaded,
        /// Artifacts rejected wholesale (unreadable, bad header/version,
        /// fingerprint mismatch) or shadowed by a newer generation of
        /// the same image — the image boots from the winner or cold.
        rejected,
        /// Sections quarantined inside scanned or transferred artifacts.
        sections_quarantined,
        /// Rule blocks a boot scan or replication pass took from its
        /// cache of the blocks its earlier artifacts carried, instead of
        /// parsing them again.
        rules_shared,
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
    /// The current sealed bytes, lazily refreshed when the live state
    /// outgrows them (`None` until the partition is first sealed).
    pub(super) sealed: Option<Arc<Vec<u8>>>,
    /// How many blocks and traces `sealed` captured — the staleness
    /// check: both only ever grow and their entries are immutable, so
    /// a match with [`SharedTranslationState::sizes`] means current.
    pub(super) sealed_sizes: (usize, usize),
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
            sealed_sizes: (0, 0),
            disk_generation: None,
        }
    }

    /// The one artifact-ingest path, shared by the boot scan and wire
    /// adoption: label (the artifact's own, else the caller's
    /// fallback), then `warm_state` — no counter pollution, so sessions
    /// on the new state report translate-free warm runs — then the
    /// record. Everything the artifact holds moves into the partition.
    /// When the artifact carries no ruleset, or its RULE section was
    /// quarantined, the partition falls back to the server's own
    /// `rules`, exactly as a cold partition would.
    pub(super) fn from_artifact(
        mut opened: Opened,
        fallback_label: impl FnOnce() -> String,
        rules: Option<&RuleSet>,
        slots: usize,
        version: ArtifactVersion,
        bytes: Arc<Vec<u8>>,
        disk_generation: Option<u64>,
    ) -> Partition {
        let label = match std::mem::take(&mut opened.artifact.label) {
            label if label.is_empty() => fallback_label(),
            label => label,
        };
        // The state is keyed by the fingerprint the open checked, so the
        // image itself can move into the record.
        let program = std::mem::take(&mut opened.artifact.program);
        // A salvaged (partially quarantined) file is not worth
        // advertising: leave `sealed` empty so the first peer
        // interaction re-seals clean content from live state.
        let sealed = opened.quarantined.is_empty().then_some(bytes);
        let state =
            pdbt_artifact::warm_state(opened, rules, EngineConfig::default().cache_shards, slots);
        Partition {
            sealed_sizes: state.sizes(),
            state: Arc::new(state),
            label,
            program,
            version,
            sealed,
            disk_generation,
        }
    }

    /// The current sealed bytes and version, re-sealing lazily when
    /// the live cache or trace table has outgrown the last seal. Every
    /// content change bumps the generation by one, so this node's
    /// advertised versions are monotone — the property the fleet's
    /// newest-wins convergence rests on. Returns `None` when there is
    /// nothing to advertise (empty cache, never sealed). Callers hold
    /// `ctx.replication`.
    pub(super) fn seal(&mut self) -> Option<(Arc<Vec<u8>>, ArtifactVersion)> {
        let (blocks, traces) = self.state.sizes();
        if let Some(sealed) = &self.sealed {
            if self.sealed_sizes == (blocks, traces) {
                return Some((Arc::clone(sealed), self.version));
            }
        }
        if blocks == 0 && self.sealed.is_none() {
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
        let artifact = pdbt_artifact::capture(&self.label, &self.program, &self.state);
        let bytes = pdbt_artifact::seal(&artifact);
        let version = ArtifactVersion::of_bytes(generation, &bytes)
            .expect("a self-sealed artifact always parses");
        let sealed = Arc::new(bytes);
        self.sealed = Some(Arc::clone(&sealed));
        self.sealed_sizes = (artifact.blocks.len(), artifact.traces.len());
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
/// name for deterministic scan order) is opened in salvage mode, all
/// through one [`RuleCache`] so a rule block several artifacts carry is
/// parsed once and its body shared; the survivors are deduplicated by
/// guest-image fingerprint keeping the *newest* [`ArtifactVersion`]
/// (file-name generation, section CRCs as the tie-break — never scan
/// order), and each winner pre-creates its image's translation-state
/// partition. Shadowed duplicates are counted as rejects, not silently
/// dropped.
///
/// Failure is never fatal and never aborts the scan: an unreadable,
/// oversized (past [`MAX_ARTIFACT`], the wire's cap) or rejected
/// artifact is counted and logged, and that image simply boots cold
/// when its first request arrives.
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
    let mut cache = RuleCache::new();
    for path in paths {
        let parsed = read_capped(&path).and_then(|bytes| {
            let reject = |e| format!("rejected: {e}");
            let opened = pdbt_artifact::open_salvage_cached(&bytes, &mut cache).map_err(reject)?;
            let version = ArtifactVersion::of_opened(parse_generation(&path), &opened);
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
        let fingerprint = opened.fingerprint;
        candidates.push((fingerprint, version, (path, bytes, opened)));
    }
    // Every block is parsed: the copies the cache keyed them by go now.
    scan.boot.rules_shared.add(cache.shared());
    drop(cache);
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
            opened,
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

/// Reads an artifact file whole, unless its length is past
/// [`MAX_ARTIFACT`]: the disk is held to the wire's cap, and an
/// oversized file is refused before a byte of it is read. No more than
/// that length is read, should the file grow meanwhile.
fn read_capped(path: &Path) -> Result<Vec<u8>, String> {
    let unreadable = |e: std::io::Error| format!("unreadable: {e}");
    let file = std::fs::File::open(path).map_err(unreadable)?;
    let len = file.metadata().map_err(unreadable)?.len();
    if len > MAX_ARTIFACT {
        return Err(format!(
            "rejected: {len} bytes, past the {MAX_ARTIFACT}-byte artifact cap"
        ));
    }
    let mut bytes = Vec::with_capacity(len as usize);
    file.take(len).read_to_end(&mut bytes).map_err(unreadable)?;
    Ok(bytes)
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
