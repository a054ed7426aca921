//! `pdbt-fleet` — the replication plane behind `pdbt serve --peer`.
//!
//! PR 7 made warm translation state survive a restart (sealed `.pdba`
//! artifacts); this crate makes it survive a *fleet*: daemons advertise
//! the artifacts they hold (`ART_LIST`), stream them to each other
//! (`ART_PULL` / `ART_PUSH`), and write live cache growth back to disk
//! as a new generation on drain — so a hot image is translated once
//! per fleet, not once per node.
//!
//! The crate owns the replication-plane *policy*; the wire frames and
//! the daemon's accept-loop handlers live in `pdbt-serve`:
//!
//! * [`ArtifactVersion`] — the total order replication converges on:
//!   generation first, then the five section CRCs lexicographically.
//!   Taking the max over this order is arrival-order-independent, so
//!   any replication schedule reaches the same adopted state.
//! * [`artifact_file_name`] / [`parse_generation`] — the on-disk
//!   naming scheme that carries the generation *outside* the sealed
//!   bytes: `<fingerprint:016x>-g<N>.pdba`. The PDBA payload is
//!   untouched, so the canonical seal fixpoint and `FORMAT_VERSION`
//!   are preserved.
//! * [`dedupe_newest`] — the boot-scan rule: one artifact per
//!   fingerprint, newest version wins, losers are counted.
//! * [`validate`] — the wire trust boundary: a transferred artifact is
//!   adopted only if it opens with *zero* quarantined sections and its
//!   content fingerprint matches the declared one. The wire is
//!   stricter than the disk scan (which salvages partial artifacts):
//!   a damaged transfer can always be re-pulled, so there is no reason
//!   to adopt a partial copy over a healthy partition.

use pdbt_artifact::{
    open_salvage, open_salvage_cached, section_table, ArtifactError, Opened, RuleCache,
};
use pdbt_obs::json::{Json, TextWriter, ToJson};
use std::collections::BTreeMap;
use std::path::Path;

/// Chunk size for streaming a sealed artifact over the frame
/// transport: comfortably under the 16 MiB frame-payload cap, large
/// enough that small artifacts fit in one frame.
pub const CHUNK: usize = 4 * 1024 * 1024;

/// Upper bound on a transferred artifact (sanity cap on the declared
/// size before any allocation happens).
pub const MAX_ARTIFACT: u64 = 256 * 1024 * 1024;

/// How many `CHUNK`-sized data frames a `len`-byte artifact needs.
#[must_use]
pub fn chunk_count(len: usize) -> usize {
    len.div_ceil(CHUNK)
}

/// The replication order of one fingerprint's artifacts: generation
/// first, then the five section CRCs lexicographically as the
/// deterministic tie-break. The derived `Ord` is exactly that order
/// (field order matters), so `max` over any arrival order converges on
/// the same version — replication order never changes adopted state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ArtifactVersion {
    /// Monotone per-fingerprint counter: bumped by one every time a
    /// node re-seals a partition whose live cache grew past its sealed
    /// artifact.
    pub generation: u64,
    /// The CRC-32 of each section payload in sealed order
    /// (META, GIMG, RULE, BLKS, TRCE); 0 for a section whose range
    /// falls outside the file.
    pub crcs: [u32; 5],
}

impl ArtifactVersion {
    /// The version of an opened artifact: the given generation (carried
    /// out-of-band, see [`parse_generation`]) plus the section CRCs its
    /// open computed — the values [`ArtifactVersion::of_bytes`] would
    /// compute again from the same bytes.
    #[must_use]
    pub fn of_opened(generation: u64, opened: &Opened) -> ArtifactVersion {
        ArtifactVersion {
            generation,
            crcs: opened.crcs,
        }
    }

    /// Computes the version of a sealed artifact: the given generation
    /// plus the CRC of each section's bytes, over the ranges the header
    /// declares (0 for a range past the end of the file).
    ///
    /// # Errors
    ///
    /// Whatever [`section_table`] rejects (bad magic/version/header).
    pub fn of_bytes(generation: u64, bytes: &[u8]) -> Result<ArtifactVersion, ArtifactError> {
        let mut crcs = [0u32; 5];
        for (i, (_, range)) in section_table(bytes)?.into_iter().enumerate().take(5) {
            crcs[i] = bytes.get(range).map_or(0, pdbt_artifact::bytes::crc32);
        }
        Ok(ArtifactVersion { generation, crcs })
    }
}

/// The one text form of a fingerprint, in file names and on the wire:
/// 16 hex digits (the JSON integers here are `i64`-backed).
#[must_use]
pub fn fingerprint_hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

/// The `fingerprint` field of a wire document, parsed back from
/// [`fingerprint_hex`]'s form.
#[must_use]
pub fn fingerprint_field(doc: &Json) -> Option<u64> {
    u64::from_str_radix(doc.get("fingerprint")?.as_str()?, 16).ok()
}

/// The canonical file name of a sealed artifact: the guest-image
/// fingerprint plus the generation, e.g. `00ab…cd-g3.pdba`. The
/// generation lives in the name, not the sealed bytes, so the PDBA
/// payload keeps its format version and seal-fixpoint property.
#[must_use]
pub fn artifact_file_name(fingerprint: u64, generation: u64) -> String {
    format!("{}-g{generation}.pdba", fingerprint_hex(fingerprint))
}

/// The generation encoded in an artifact file name (`…-g<N>.pdba`).
/// A name without the suffix — e.g. a PR 7-era artifact — is
/// generation 0, so pre-fleet artifact dirs keep working unchanged.
#[must_use]
pub fn parse_generation(path: &Path) -> u64 {
    path.file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.rsplit_once("-g"))
        .and_then(|(_, g)| g.parse().ok())
        .unwrap_or(0)
}

/// The boot-scan dedupe rule: one winner per fingerprint, highest
/// [`ArtifactVersion`] wins, ties broken by the version's CRC order
/// (never by scan order). Returns the winners sorted by fingerprint
/// plus the number of losers — which the server counts as rejects
/// instead of silently shadowing them.
#[must_use]
pub fn dedupe_newest<T>(
    items: Vec<(u64, ArtifactVersion, T)>,
) -> (Vec<(u64, ArtifactVersion, T)>, u64) {
    let mut best: BTreeMap<u64, (ArtifactVersion, T)> = BTreeMap::new();
    let mut rejected = 0u64;
    for (fp, version, item) in items {
        match best.get(&fp) {
            Some((held, _)) if *held >= version => rejected += 1,
            Some(_) => {
                rejected += 1;
                best.insert(fp, (version, item));
            }
            None => {
                best.insert(fp, (version, item));
            }
        }
    }
    (
        best.into_iter().map(|(fp, (v, t))| (fp, v, t)).collect(),
        rejected,
    )
}

/// The wire trust boundary: opens a transferred artifact and accepts
/// it only when (a) it opens at all, (b) *no* section was quarantined,
/// and (c) the content fingerprint matches what the sender declared.
/// Stricter than the disk scan's salvage semantics on purpose — a
/// partial artifact over the wire is a failed transfer, not a
/// best-effort boot source. Within a batch of transfers (a pull pass,
/// `pdbt sync`) the artifact opens through the batch's `cache`, the rule
/// blocks of the transfers before it ([`open_salvage_cached`]); a lone
/// transfer passes `None` and opens uncached ([`open_salvage`]).
///
/// # Errors
///
/// A human-readable reason, plus how many sections the transfer had
/// quarantined (0 unless that is the reason). The caller counts the
/// reject, and the quarantines where disk-scan damage is counted.
pub fn validate(
    bytes: &[u8],
    declared_fingerprint: u64,
    cache: Option<&mut RuleCache>,
) -> Result<Opened, (String, usize)> {
    let opened = match cache {
        Some(cache) => open_salvage_cached(bytes, cache),
        None => open_salvage(bytes),
    };
    let opened = opened.map_err(|e| (format!("artifact rejected: {e}"), 0))?;
    if let Some(q) = opened.quarantined.first() {
        return Err((
            format!(
                "artifact section {} quarantined in transfer: {}",
                q.section, q.reason
            ),
            opened.quarantined.len(),
        ));
    }
    // `open` held the header's fingerprint to the image it carries.
    let fp = opened.fingerprint;
    if fp != declared_fingerprint {
        return Err((
            format!(
                "artifact fingerprint {} does not match the declared {}",
                fingerprint_hex(fp),
                fingerprint_hex(declared_fingerprint)
            ),
            0,
        ));
    }
    Ok(opened)
}

/// One entry of an `ART_LIST` advertisement: everything a peer needs
/// to decide whether to pull — identity, version, and rough size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactAd {
    /// The guest-image fingerprint (partition key).
    pub fingerprint: u64,
    /// The advertised version.
    pub version: ArtifactVersion,
    /// Translated blocks in the sealed artifact.
    pub blocks: u64,
    /// Superblock traces in the sealed artifact.
    pub traces: u64,
    /// Sealed size in bytes.
    pub bytes: u64,
    /// Human-readable partition label.
    pub label: String,
}

/// The JSON wire form. Fingerprints travel as [`fingerprint_hex`]
/// strings; CRCs and generations fit in integers.
impl ToJson for ArtifactAd {
    fn emit(&self, out: &mut TextWriter<'_>) {
        out.begin_obj();
        out.field("blocks", &self.blocks);
        out.field("bytes", &self.bytes);
        out.key("crcs");
        out.arr(self.version.crcs.map(u64::from));
        out.field("fingerprint", &fingerprint_hex(self.fingerprint));
        out.field("generation", &self.version.generation);
        out.field("label", &self.label);
        out.field("traces", &self.traces);
        out.end_obj();
    }
}

impl ArtifactAd {
    /// Parses the JSON wire form.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the missing or malformed field.
    pub fn from_json(json: &Json) -> Result<ArtifactAd, String> {
        let fingerprint = fingerprint_field(json).ok_or("advert needs a hex `fingerprint`")?;
        let generation = json
            .get("generation")
            .and_then(Json::as_u64)
            .ok_or("advert needs a `generation`")?;
        let crc_list = json
            .get("crcs")
            .and_then(Json::as_arr)
            .ok_or("advert needs a `crcs` array")?;
        if crc_list.len() != 5 {
            return Err(format!("advert has {} crcs, want 5", crc_list.len()));
        }
        let mut crcs = [0u32; 5];
        for (i, c) in crc_list.iter().enumerate() {
            crcs[i] = c
                .as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or("advert crc out of range")?;
        }
        Ok(ArtifactAd {
            fingerprint,
            version: ArtifactVersion { generation, crcs },
            blocks: json.get("blocks").and_then(Json::as_u64).unwrap_or(0),
            traces: json.get("traces").and_then(Json::as_u64).unwrap_or(0),
            bytes: json.get("bytes").and_then(Json::as_u64).unwrap_or(0),
            label: json
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdbt_artifact::{compile, open_salvage, seal};
    use pdbt_isa_arm::{builders as g, Operand as O, Program, Reg};
    use pdbt_runtime::{EngineConfig, RunSetup};
    use std::path::PathBuf;

    fn sealed_fixture() -> Vec<u8> {
        let prog = Program::new(
            0x1000,
            vec![
                g::mov(Reg::R0, O::Imm(41)),
                g::add(Reg::R0, Reg::R0, O::Imm(1)),
                g::svc(1),
                g::svc(0),
            ],
        );
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let artifact = compile(&prog, None, &setup, EngineConfig::default(), "fixture").unwrap();
        seal(&artifact)
    }

    #[test]
    fn version_order_is_generation_then_crc_lexicographic() {
        let lo = ArtifactVersion {
            generation: 1,
            crcs: [9, 9, 9, 9, 9],
        };
        let hi = ArtifactVersion {
            generation: 2,
            crcs: [0, 0, 0, 0, 0],
        };
        assert!(hi > lo, "generation dominates CRCs");
        let a = ArtifactVersion {
            generation: 2,
            crcs: [1, 0, 0, 0, 0],
        };
        let b = ArtifactVersion {
            generation: 2,
            crcs: [0, 9, 9, 9, 9],
        };
        assert!(a > b, "equal generations tie-break on the CRCs");
        assert_eq!(a.max(b), b.max(a), "max is arrival-order-independent");
    }

    #[test]
    fn of_bytes_computes_each_section_crc() {
        let bytes = sealed_fixture();
        let v = ArtifactVersion::of_bytes(3, &bytes).unwrap();
        assert_eq!(v.generation, 3);
        assert!(v.crcs.iter().any(|&c| c != 0), "sections have content");
        // Flipping one payload byte must change exactly the damaged
        // section's CRC — that's what makes the tie-break see content.
        let mut mutated = bytes.clone();
        let last = mutated.len() - 1;
        mutated[last] ^= 0xFF;
        let w = ArtifactVersion::of_bytes(3, &mutated).unwrap();
        assert_ne!(v, w);
        assert_eq!(v.crcs[..4], w.crcs[..4], "only TRCE differs");
        // And the version is insensitive to anything but content.
        assert_eq!(v, ArtifactVersion::of_bytes(3, &bytes).unwrap());
        assert!(ArtifactVersion::of_bytes(0, b"junk").is_err());
    }

    /// The boot scan and wire adoption take an artifact's version from
    /// its open instead of hashing its bytes a second time: the CRCs the
    /// open returns are the ones `of_bytes` computes, healthy, truncated
    /// (sections past the end count 0) and bit-flipped alike.
    #[test]
    fn opened_crcs_equal_of_bytes() {
        let bytes = sealed_fixture();
        let table = section_table(&bytes).unwrap();
        let mid_blks = (table[3].1.start + table[3].1.end) / 2;
        let mut flipped = bytes.clone();
        flipped[table[2].1.start] ^= 0x10;
        let cases = [
            ("healthy", bytes.clone(), 0),
            ("truncated", bytes[..mid_blks].to_vec(), 2),
            ("flipped", flipped, 1),
        ];
        for (name, case, quarantined) in cases {
            let opened = open_salvage(&case).unwrap();
            assert_eq!(opened.quarantined.len(), quarantined, "{name}");
            assert_eq!(
                ArtifactVersion::of_opened(5, &opened),
                ArtifactVersion::of_bytes(5, &case).unwrap(),
                "{name}"
            );
        }
        let truncated = open_salvage(&bytes[..mid_blks]).unwrap();
        assert_eq!(truncated.crcs[3..], [0, 0], "sections past the end");
        assert!(truncated.crcs[..3].iter().all(|&c| c != 0));
    }

    #[test]
    fn file_names_roundtrip_the_generation() {
        let name = artifact_file_name(0xb22c_388e_f903_e5ae, 7);
        assert_eq!(name, "b22c388ef903e5ae-g7.pdba");
        assert_eq!(parse_generation(&PathBuf::from(name)), 7);
        // Pre-fleet names are generation 0.
        assert_eq!(parse_generation(&PathBuf::from("guest.pdba")), 0);
        assert_eq!(parse_generation(&PathBuf::from("weird-gx.pdba")), 0);
    }

    #[test]
    fn dedupe_keeps_the_newest_and_counts_losers() {
        let v = |generation, c0| ArtifactVersion {
            generation,
            crcs: [c0, 0, 0, 0, 0],
        };
        let items = vec![
            (7, v(1, 0), "old"),
            (7, v(2, 0), "new"),
            (7, v(2, 0), "dup"),
            (9, v(0, 5), "only"),
            (7, v(0, 9), "ancient"),
        ];
        let (kept, rejected) = dedupe_newest(items);
        assert_eq!(rejected, 3);
        assert_eq!(kept.len(), 2);
        assert_eq!((kept[0].0, kept[0].2), (7, "new"));
        assert_eq!((kept[1].0, kept[1].2), (9, "only"));
        // Scan order never matters: reversed input, same winners.
        let items = vec![
            (7, v(0, 9), "ancient"),
            (9, v(0, 5), "only"),
            (7, v(2, 0), "dup"),
            (7, v(2, 0), "new"),
            (7, v(1, 0), "old"),
        ];
        let (kept2, _) = dedupe_newest(items);
        assert_eq!(kept2[0].1, kept[0].1);
    }

    #[test]
    fn validate_rejects_damage_and_fingerprint_lies() {
        let bytes = sealed_fixture();
        let mut mutated = bytes.clone();
        let last = mutated.len() - 1;
        mutated[last] ^= 0xFF;
        assert!(open_salvage(&mutated).is_ok(), "disk scan would salvage");
        // Through a batch's cache or alone, the same verdicts.
        for cached in [true, false] {
            let mut cache = RuleCache::new();
            let mut check = |bytes: &[u8], fp| validate(bytes, fp, cached.then_some(&mut cache));
            let fp = open_salvage(&bytes).unwrap().artifact.fingerprint();
            let opened = check(&bytes, fp).expect("healthy artifact validates");
            assert_eq!(opened.artifact.fingerprint(), fp);
            // Declared fingerprint must match content.
            assert!(check(&bytes, fp ^ 1).is_err());
            // A quarantinable section is a wire reject, not a salvage.
            assert!(check(&mutated, fp).is_err(), "wire rejects");
            assert!(check(b"junk", fp).is_err());
        }
    }

    #[test]
    fn adverts_roundtrip_through_json() {
        let ad = ArtifactAd {
            fingerprint: u64::MAX - 3, // above i64::MAX: must survive as hex
            version: ArtifactVersion {
                generation: 4,
                crcs: [1, 2, 3, u32::MAX, 5],
            },
            blocks: 12,
            traces: 2,
            bytes: 4096,
            label: "mcf/tiny".to_string(),
        };
        let mut text = Vec::new();
        ad.write_json(&mut text);
        let text = String::from_utf8(text).unwrap();
        let json = Json::parse(&text).unwrap();
        assert_eq!(json.to_string(), text, "the advert's text is canonical");
        assert_eq!(ArtifactAd::from_json(&json).unwrap(), ad);
        assert!(ArtifactAd::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn chunking_covers_every_byte() {
        assert_eq!(chunk_count(0), 0);
        assert_eq!(chunk_count(1), 1);
        assert_eq!(chunk_count(CHUNK), 1);
        assert_eq!(chunk_count(CHUNK + 1), 2);
    }
}
