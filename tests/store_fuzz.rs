//! Fuzzes the persistence loaders against corrupted inputs.
//!
//! Two stores, one discipline: the text rule store (`save_rules` /
//! `load_rules_salvage`) and the binary PDBA translation artifact
//! (`seal` / `open_salvage`) both face seeded truncations, bit flips
//! and splices, and neither loader may ever panic. Salvage must keep
//! every healthy entry while quarantining exactly what the mutation
//! destroyed — and a damaged artifact must still *boot*, falling back
//! to cold translation for the quarantined sections with bit-identical
//! guest output. The same matrix is also delivered over the wire
//! (`ART_PUSH` against a live daemon), where the trust boundary is
//! stricter: any quarantine refuses the whole transfer.
//!
//! Hand-rolled seeded fuzz loops over the in-tree PRNG (`pdbt-rng`,
//! aliased as `rand`) — the offline build has no proptest.

use pdbt::artifact::{open_salvage, seal, section_table, warm_state};
use pdbt::core::{load_rules, load_rules_salvage, save_rules};
use pdbt::runtime::{Engine, EngineConfig, RunSetup};
use pdbt::workloads::{learn_suite, suite, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Fuzz iterations per mutation class; FUZZ_CASES scales the file.
fn cases() -> usize {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// A realistic store: everything learnable from the tiny suite.
fn healthy_store() -> String {
    let text = save_rules(&learn_suite(&suite(Scale::tiny()), None));
    assert!(
        text.is_ascii(),
        "store format is ASCII; mutations slice bytes"
    );
    assert!(
        text.lines().count() > 20,
        "store too small to fuzz usefully"
    );
    text
}

/// Neither loader panics on arbitrary prefixes of a valid store.
#[test]
fn truncation_never_panics() {
    let text = healthy_store();
    let mut rng = StdRng::seed_from_u64(0x57_0e_01);
    for _ in 0..cases() {
        let cut = rng.gen_range(0..text.len());
        let mutated = &text[..cut];
        let _ = load_rules(mutated);
        let (rules, quarantined) = load_rules_salvage(mutated);
        // Salvage of a prefix keeps only complete blocks; whatever the
        // cut destroyed is quarantined, never silently dropped, unless
        // the cut fell cleanly on a block boundary.
        let complete = load_rules(&blocks_before(&text, cut)).expect("prefix of valid store");
        assert_eq!(save_rules(&rules), save_rules(&complete));
        assert!(quarantined.len() <= 1, "a cut destroys at most one block");
    }
}

/// The longest prefix of `text` made of whole blocks ending before
/// byte `cut`.
fn blocks_before(text: &str, cut: usize) -> String {
    let mut out = String::new();
    let mut block = String::new();
    let mut pos = 0;
    for line in text.lines() {
        let end = pos + line.len() + 1; // '\n'
        if end > cut {
            break;
        }
        block.push_str(line);
        block.push('\n');
        if line.trim_end() == "end" || line.starts_with('#') || line.trim().is_empty() {
            out.push_str(&block);
            block.clear();
        }
        pos = end;
    }
    out
}

/// Neither loader panics on single-bit corruption, and salvage always
/// returns a loadable subset.
#[test]
fn bit_flips_never_panic() {
    let text = healthy_store();
    let mut rng = StdRng::seed_from_u64(0x57_0e_02);
    for _ in 0..cases() {
        let mut bytes = text.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..4u8) {
            let i = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u8);
            bytes[i] ^= 1 << bit;
        }
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        let _ = load_rules(&mutated);
        let (rules, _) = load_rules_salvage(&mutated);
        // The salvaged subset must itself round-trip.
        let text2 = save_rules(&rules);
        let (again, quarantined2) = load_rules_salvage(&text2);
        assert!(quarantined2.is_empty(), "salvaged output must be clean");
        assert_eq!(save_rules(&again), text2);
    }
}

/// Neither loader panics when whole lines are duplicated, dropped or
/// swapped.
#[test]
fn line_splices_never_panic() {
    let text = healthy_store();
    let mut rng = StdRng::seed_from_u64(0x57_0e_03);
    for _ in 0..cases() {
        let mut lines: Vec<&str> = text.lines().collect();
        match rng.gen_range(0..3u8) {
            0 => {
                let i = rng.gen_range(0..lines.len());
                let l = lines[i];
                lines.insert(i, l);
            }
            1 => {
                let i = rng.gen_range(0..lines.len());
                lines.remove(i);
            }
            _ => {
                let i = rng.gen_range(0..lines.len());
                let j = rng.gen_range(0..lines.len());
                lines.swap(i, j);
            }
        }
        let mutated = lines.join("\n");
        let _ = load_rules(&mutated);
        let (rules, _) = load_rules_salvage(&mutated);
        let _ = save_rules(&rules);
    }
}

/// Targeted corruption: poisoning one interior line of one block must
/// quarantine exactly that block, and the salvaged set must equal a
/// strict load of the store with that block deleted.
#[test]
fn targeted_corruption_quarantines_exactly_the_mutated_entry() {
    let text = healthy_store();
    let mut rng = StdRng::seed_from_u64(0x57_0e_04);
    let lines: Vec<&str> = text.lines().collect();
    // (header, end) line-index ranges of every block.
    let mut blocks = Vec::new();
    let mut start = None;
    for (i, line) in lines.iter().enumerate() {
        if line.starts_with("rule ") || line.starts_with("seq ") {
            start = Some(i);
        } else if line.trim_end() == "end" {
            if let Some(s) = start.take() {
                blocks.push((s, i));
            }
        }
    }
    assert!(!blocks.is_empty());
    for _ in 0..cases() {
        let &(s, e) = &blocks[rng.gen_range(0..blocks.len())];
        assert!(e > s + 1, "blocks have at least one body line");
        let victim = s + 1 + rng.gen_range(0..(e - s - 1));
        // Every line of the second mutation still parses; the header
        // pins more immediates than any key binds, which only the arity
        // check at the block's `end` can see.
        let pinned = lines[s].replace("imms=*", "imms=1,2,3,4,5,6,7,8,9");
        assert_ne!(pinned, lines[s], "no suite rule is pinned");
        // So does every line of the third: the block's first key (in the
        // `rule` header, or the first `g` line of a `seq`) lists more
        // operand modes than the inline key holds, which is likewise
        // reported at the block's `end` — and must not panic before it.
        let keyed = (s..e)
            .find(|i| lines[*i].contains("|modes="))
            .expect("every block has a key");
        let overgrown = lines[keyed].replacen("|pat=", ",reg,reg,reg,reg|pat=", 1);
        assert_ne!(overgrown, lines[keyed]);
        for (at, poison) in [
            (victim, "?? corrupted ??"),
            (s, &pinned[..]),
            (keyed, &overgrown[..]),
        ] {
            let mut mutated = lines.clone();
            mutated[at] = poison;
            let (rules, quarantined) = load_rules_salvage(&mutated.join("\n"));
            assert_eq!(
                quarantined.len(),
                1,
                "exactly the mutated block is quarantined"
            );
            let q = &quarantined[0];
            assert!(
                q.line > s && q.line <= e + 1,
                "quarantine points into the mutated block: line {} not in ({}, {}]",
                q.line,
                s,
                e + 1
            );
            // Deleting the block entirely gives the same surviving set.
            let without: Vec<&str> = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i < s || *i > e)
                .map(|(_, l)| *l)
                .collect();
            let expect = load_rules(&without.join("\n")).expect("remainder is valid");
            assert_eq!(save_rules(&rules), save_rules(&expect));
        }
    }
}

// ---------------------------------------------------------------------
// PDBA artifact corruption matrix
// ---------------------------------------------------------------------

/// A hot two-block loop at `0x1000`: enough to fill every artifact
/// section (blocks, two superblock traces, an embedded ruleset).
fn fuzz_program() -> pdbt::arm::Program {
    let insts = pdbt::arm::parse_listing(
        "mov r0, #100\nmov r1, #0\nadd r1, r1, r0\nb .+4\n\
         subs r0, r0, #1\nbne .-12\nmov r0, r1\nsvc #1\nsvc #0\n",
    )
    .expect("fixture assembles");
    pdbt::arm::Program::new(0x1000, insts)
}

fn fuzz_setup() -> RunSetup {
    RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000)
}

/// The shared fixture: a sealed artifact with every section populated,
/// plus the reference-interpreter output of its guest program.
fn sealed_fixture() -> &'static (Vec<u8>, Vec<u32>) {
    static FIXTURE: OnceLock<(Vec<u8>, Vec<u32>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let rules = learn_suite(&suite(Scale::tiny()), None);
        let prog = fuzz_program();
        let artifact = pdbt::artifact::compile(
            &prog,
            Some(&rules),
            &fuzz_setup(),
            EngineConfig::default(),
            "fuzz-fixture",
        )
        .expect("fixture compiles");
        assert!(!artifact.blocks.is_empty() && !artifact.traces.is_empty());
        assert!(artifact.rules.is_some());

        let mut cpu = pdbt::arm::Cpu::new();
        cpu.mem.map(0x10_0000, 0x1000);
        cpu.mem.map(0x8_0000, 0x1000);
        cpu.write(pdbt::arm::Reg::Sp, 0x8_0000 + 0x1000);
        pdbt::arm::run(&mut cpu, &prog, 1_000_000).expect("reference run");
        (seal(&artifact), cpu.output)
    })
}

/// Boots an engine from an opened artifact and checks the guest output
/// is bit-identical to the reference interpreter, with the quarantine
/// count surfaced in the report.
fn boot_and_check(opened: &pdbt::artifact::Opened, golden: &[u32]) {
    let expected_quarantined = opened.quarantined.len() as u64;
    let shared = std::sync::Arc::new(warm_state(opened, None, 8, 1));
    let mut engine = Engine::with_shared(shared, EngineConfig::default());
    let report = engine
        .run(&fuzz_program(), &fuzz_setup())
        .expect("degraded boot still runs");
    let out: Vec<u32> = report.output.clone();
    assert_eq!(out, golden, "degraded artifact boot diverged from oracle");
    assert_eq!(report.artifact.quarantined_sections, expected_quarantined);
}

/// `open_salvage` never panics on arbitrary prefixes; when a prefix
/// still opens, the damage is confined to counted quarantines and the
/// boot stays bit-identical.
#[test]
fn artifact_truncation_never_panics_and_boots_cold() {
    let (bytes, golden) = sealed_fixture();
    let mut rng = StdRng::seed_from_u64(0xA7_7E_01);
    let mut opened_some = false;
    for _ in 0..cases() {
        let cut = rng.gen_range(0..bytes.len());
        match open_salvage(&bytes[..cut]) {
            Ok(opened) => {
                opened_some = true;
                boot_and_check(&opened, golden);
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
    // A cut inside the last (TRCE) payload keeps the header valid, so
    // at least some prefixes must open in salvage mode.
    let table = section_table(bytes).unwrap();
    let trce_mid = (table[4].1.start + table[4].1.end) / 2;
    let opened = open_salvage(&bytes[..trce_mid]).expect("mid-TRCE cut salvages");
    assert_eq!(opened.quarantined.len(), 1);
    assert_eq!(opened.quarantined[0].section, "TRCE");
    boot_and_check(&opened, golden);
    assert!(opened_some || cases() == 0);
}

/// One- and two-bit flips anywhere in the file: guaranteed CRC-visible,
/// so every flip either rejects the artifact, quarantines a section, or
/// lands in slack the loaders never trusted — and any successful open
/// still boots bit-identically.
#[test]
fn artifact_bit_flips_never_panic_and_never_corrupt_a_boot() {
    let (bytes, golden) = sealed_fixture();
    let mut rng = StdRng::seed_from_u64(0xA7_7E_02);
    for _ in 0..cases() {
        let mut mutated = bytes.clone();
        for _ in 0..rng.gen_range(1..3u8) {
            let i = rng.gen_range(0..mutated.len());
            mutated[i] ^= 1 << rng.gen_range(0..8u8);
        }
        if let Ok(opened) = open_salvage(&mutated) {
            boot_and_check(&opened, golden);
        }
    }
}

/// Splices: whole chunks copied over other chunks, and section payloads
/// swapped wholesale. Never a panic; successful opens still boot.
#[test]
fn artifact_splices_never_panic() {
    let (bytes, golden) = sealed_fixture();
    let mut rng = StdRng::seed_from_u64(0xA7_7E_03);
    for _ in 0..cases() {
        let mut mutated = bytes.clone();
        let len = mutated.len();
        let chunk = rng.gen_range(1..=32usize.min(len));
        let src = rng.gen_range(0..=len - chunk);
        let dst = rng.gen_range(0..=len - chunk);
        let copied: Vec<u8> = mutated[src..src + chunk].to_vec();
        mutated[dst..dst + chunk].copy_from_slice(&copied);
        if let Ok(opened) = open_salvage(&mutated) {
            boot_and_check(&opened, golden);
        }
    }
}

/// Targeted per-section damage: poisoning one payload byte of a
/// non-boundary section quarantines exactly that section (the rest
/// loads), the boot degrades cold for it, and the guest output stays
/// bit-identical. Damage to the trust boundary (header, GIMG) rejects
/// the whole artifact instead — cold fallback, never an abort.
#[test]
fn artifact_section_damage_quarantines_exactly_that_section() {
    let (bytes, golden) = sealed_fixture();
    let table = section_table(bytes).unwrap();
    let mut rng = StdRng::seed_from_u64(0xA7_7E_04);
    let salvageable = ["META", "RULE", "BLKS", "TRCE"];
    for _ in 0..cases() {
        let (tag, range) = &table[rng.gen_range(0..table.len())];
        if range.is_empty() {
            continue;
        }
        let mut mutated = bytes.clone();
        let i = rng.gen_range(range.start..range.end);
        mutated[i] ^= 1 << rng.gen_range(0..8u8);
        if salvageable.contains(&tag.as_str()) {
            let opened = open_salvage(&mutated).expect("section damage must salvage");
            assert_eq!(
                opened.quarantined.len(),
                1,
                "exactly one section quarantined for damage in {tag}"
            );
            assert_eq!(&opened.quarantined[0].section, tag);
            boot_and_check(&opened, golden);
        } else {
            // GIMG is the trust boundary: reject the whole artifact.
            let err = open_salvage(&mutated).expect_err("image damage must reject");
            let _ = err.to_string();
        }
    }
    // Header damage (the declared fingerprint bytes sit before the
    // payload area) is caught by the header CRC.
    let mut mutated = bytes.clone();
    let payload_start = table[0].1.start;
    mutated[payload_start - 5] ^= 0x40;
    assert!(open_salvage(&mutated).is_err(), "header damage must reject");
}

// ---------------------------------------------------------------------
// The corruption matrix over the wire: ART_PUSH / ART_PULL against a
// live daemon
// ---------------------------------------------------------------------

/// Every class of artifact damage, delivered over `ART_PUSH` to a live
/// daemon: the receiver must never panic, must refuse every damaged
/// offer (counted in `fleet.rejected`, with quarantined sections also
/// landing in `artifacts.sections_quarantined`), and after the pristine
/// artifact is finally adopted, a `SUBMIT` of the same guest must run
/// translate-free with the golden output. The pull path is closed the
/// same way: a pulled artifact is bit-identical to the pristine seal,
/// and client-side `pdbt::fleet::validate` refuses any post-pull
/// mutation.
#[test]
fn wire_delivered_corruption_is_rejected_and_serving_stays_golden() {
    use pdbt::obs::json::Json;
    use std::time::Duration;

    const T: Duration = Duration::from_secs(120);
    let (bytes, golden) = sealed_fixture();
    let table = section_table(bytes).unwrap();
    let fp = fuzz_program().fingerprint();
    let mut rng = StdRng::seed_from_u64(0xA7_7E_05);

    let server =
        pdbt_serve::Server::bind("127.0.0.1:0", pdbt_serve::ServeConfig::default()).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    // Generations strictly increase across offers so a refusal is
    // always the trust boundary's verdict, never staleness.
    let mut generation = 0u64;
    let mut push = |mutated: &[u8], declared: u64| -> Json {
        generation += 1;
        pdbt_serve::push_artifact(addr, declared, generation, "fuzz", mutated, T).expect("push")
    };

    let salvageable = ["META", "RULE", "BLKS", "TRCE"];
    let (mut rejected, mut quarantined) = (0u64, 0u64);

    // One poisoned payload byte per section: salvageable sections
    // quarantine (refused wholesale on the wire), GIMG damage rejects
    // the open outright.
    for (tag, range) in &table {
        if range.is_empty() {
            continue;
        }
        let mut mutated = bytes.clone();
        let i = rng.gen_range(range.start..range.end);
        mutated[i] ^= 1 << rng.gen_range(0..8u8);
        let verdict = push(&mutated, fp);
        assert_eq!(
            verdict.get("adopted"),
            Some(&Json::from(false)),
            "damaged {tag} was adopted: {verdict}"
        );
        rejected += 1;
        if salvageable.contains(&tag.as_str()) {
            quarantined += 1;
        }
    }

    // A truncated transfer: opens in salvage mode with one quarantined
    // section — still refused on the wire.
    let trce_mid = (table[4].1.start + table[4].1.end) / 2;
    let verdict = push(&bytes[..trce_mid], fp);
    assert_eq!(verdict.get("adopted"), Some(&Json::from(false)));
    rejected += 1;
    quarantined += 1;

    // A pristine artifact under a lying fingerprint: refused.
    let verdict = push(bytes, fp ^ 1);
    assert_eq!(verdict.get("adopted"), Some(&Json::from(false)));
    rejected += 1;

    // Nothing was adopted; every refusal was counted where the disk
    // scan counts the same damage.
    let pong = pdbt_serve::ping(addr, T).expect("ping");
    assert_eq!(pong.get("images").and_then(Json::as_u64), Some(0));
    let fleet = pong.get("fleet").expect("fleet section");
    assert_eq!(fleet.get("rejected").and_then(Json::as_u64), Some(rejected));
    assert_eq!(fleet.get("adopted").and_then(Json::as_u64), Some(0));
    let arts = pong.get("artifacts").expect("artifacts section");
    assert_eq!(
        arts.get("sections_quarantined").and_then(Json::as_u64),
        Some(quarantined)
    );

    // The pristine artifact is adopted, and the daemon then serves the
    // fixture guest translate-free with the golden output.
    let verdict = push(bytes, fp);
    assert_eq!(verdict.get("adopted"), Some(&Json::from(true)), "{verdict}");
    let req = Json::obj([
        ("id", Json::from(1u64)),
        (
            "program",
            Json::str(
                "mov r0, #100\nmov r1, #0\nadd r1, r1, r0\nb .+4\n\
                 subs r0, r0, #1\nbne .-12\nmov r0, r1\nsvc #1\nsvc #0\n",
            ),
        ),
    ]);
    let resp = pdbt_serve::submit(addr, &req, T).expect("submit");
    assert_eq!(
        resp.get("outcome").and_then(Json::as_str),
        Some("completed")
    );
    let out: Vec<u64> = resp
        .get("report")
        .and_then(|r| r.get("output"))
        .and_then(Json::as_arr)
        .expect("output")
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    let want: Vec<u64> = golden.iter().map(|&v| u64::from(v)).collect();
    assert_eq!(out, want, "wire-adopted artifact corrupted the guest");
    let pong = pdbt_serve::ping(addr, T).expect("ping");
    let srv = pong.get("server").expect("server section");
    assert_eq!(srv.get("translate_calls").and_then(Json::as_u64), Some(0));

    // The pull path: the transfer is bit-identical to the pristine
    // seal, and any post-pull mutation fails client-side validation.
    let pulled = pdbt_serve::pull_artifact(addr, fp, T).expect("pull");
    assert_eq!(&pulled.bytes, bytes, "pulled artifact is not bit-identical");
    pdbt::fleet::validate(&pulled.bytes, fp).expect("pristine pull validates");
    for _ in 0..8 {
        let mut mutated = pulled.bytes.clone();
        let i = rng.gen_range(0..mutated.len());
        mutated[i] ^= 1 << rng.gen_range(0..8u8);
        if mutated == pulled.bytes {
            continue;
        }
        assert!(
            pdbt::fleet::validate(&mutated, fp).is_err()
                || open_salvage(&mutated)
                    .map(|o| seal(&o.artifact) == *bytes)
                    .unwrap_or(false),
            "a post-pull mutation slipped past client-side validation"
        );
    }

    pdbt_serve::shutdown(addr, T).expect("shutdown");
    assert_eq!(handle.join().unwrap().panicked, 0);
}

/// Swapping two whole section payloads (same artifact, valid CRCs
/// recorded for the *other* section) quarantines both — content is
/// bound to its declared section, not just to a checksum.
#[test]
fn artifact_section_swap_quarantines_both_sections() {
    let (bytes, golden) = sealed_fixture();
    let table = section_table(bytes).unwrap();
    let (blks, trce) = (&table[3].1, &table[4].1);
    // Splice TRCE's payload over the front of BLKS (and vice versa is
    // covered by CRC): both sections now fail their checksums.
    let mut mutated = bytes.clone();
    let n = blks.len().min(trce.len());
    assert!(n > 0, "fixture has both blocks and traces");
    let trce_head: Vec<u8> = mutated[trce.start..trce.start + n].to_vec();
    let blks_head: Vec<u8> = mutated[blks.start..blks.start + n].to_vec();
    mutated[blks.start..blks.start + n].copy_from_slice(&trce_head);
    mutated[trce.start..trce.start + n].copy_from_slice(&blks_head);
    let opened = open_salvage(&mutated).expect("section swap must salvage");
    let mut hit: Vec<&str> = opened
        .quarantined
        .iter()
        .map(|q| q.section.as_str())
        .collect();
    hit.sort_unstable();
    assert_eq!(hit, ["BLKS", "TRCE"]);
    assert!(opened.artifact.blocks.is_empty());
    assert!(opened.artifact.traces.is_empty());
    boot_and_check(&opened, golden);
}
