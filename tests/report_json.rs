//! End-to-end check of the machine-readable run report: drive the real
//! `pdbt` binary with `--report-json`, parse the file with the
//! serde-free JSON parser, and verify the attribution invariant — the
//! per-rule dynamic coverage counts sum to the engine's `rule_covered`
//! metric.

mod common;

use common::pdbt;
use pdbt::core::derive::{derive, DeriveConfig};
use pdbt::core::save_rules;
use pdbt::obs::json::Json;
use pdbt::workloads::{learn_suite, suite, Scale};
use pdbt_symexec::CheckOptions;

const GUEST: &str = "\
mov r0, #5
mov r1, #0
add r1, r1, r0
subs r0, r0, #1
bne .-8
mov r0, r1
svc #1
svc #0
";

fn train_rules() -> String {
    let learned = learn_suite(&suite(Scale::tiny()), None);
    let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
    save_rules(&full)
}

#[test]
fn report_json_attribution_sums_to_rule_covered() {
    let dir = std::env::temp_dir().join(format!("pdbt-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (prog, rules, report) = (path("loop.s"), path("rules.txt"), path("report.json"));
    std::fs::write(&prog, GUEST).unwrap();
    std::fs::write(&rules, train_rules()).unwrap();

    let run = pdbt(&["run", &prog, "--rules", &rules, "--report-json", &report]);
    assert!(run.status.success());

    let text = std::fs::read_to_string(&report).unwrap();
    let doc = Json::parse(&text).expect("report is valid JSON");

    let metrics = doc.get("metrics").expect("metrics object");
    let rule_covered = metrics
        .get("rule_covered")
        .and_then(|v| v.as_u64())
        .expect("rule_covered");
    assert!(rule_covered > 0, "trained run should cover instructions");

    // The attribution invariant, end to end through the binary.
    let rows = doc.get("rules").and_then(|r| r.as_arr()).expect("rules");
    let attributed: u64 = rows
        .iter()
        .map(|r| r.get("dyn_covered").and_then(|v| v.as_u64()).unwrap())
        .sum();
    assert_eq!(attributed, rule_covered);

    // Subgroup decomposition covers the same total.
    let by_subgroup: u64 = doc
        .get("coverage_by_subgroup")
        .and_then(|r| r.as_arr())
        .expect("coverage_by_subgroup")
        .iter()
        .map(|r| r.get("dyn_covered").and_then(|v| v.as_u64()).unwrap())
        .sum();
    assert_eq!(by_subgroup, rule_covered);

    // Histograms are present and consistent with the block counts.
    let hists = doc.get("histograms").expect("histograms");
    let blocks_executed = metrics
        .get("blocks_executed")
        .and_then(|v| v.as_u64())
        .unwrap();
    assert_eq!(
        hists
            .get("block_host_len")
            .and_then(|h| h.get("count"))
            .and_then(|v| v.as_u64()),
        Some(blocks_executed)
    );
    for key in ["translate_ns", "deleg_depth"] {
        assert!(hists.get(key).is_some(), "histogram {key} present");
    }

    // Per-class host counts are all present.
    let by_class = metrics.get("host_by_class").expect("host_by_class");
    for key in ["rule_core", "qemu_core", "data_transfer", "control"] {
        assert!(by_class.get(key).and_then(|v| v.as_u64()).is_some());
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A flag producer five non-flag instructions away from its `bne`: the
/// delegation window cannot reach it, so every execution of the block
/// is an environment fallback — the sentinel the `deleg_depth`
/// histogram counts in its catch-all bucket.
const FALLBACK_GUEST: &str = "\
mov r2, #3
mov r1, #0
subs r2, r2, #1
add r1, r1, #1
add r1, r1, #1
add r1, r1, #1
add r1, r1, #1
add r1, r1, #1
bne .-24
mov r0, r1
svc #1
svc #0
";

fn assert_no_negative_int(doc: &Json, path: &str) {
    match doc {
        Json::Int(n) => assert!(*n >= 0, "{path} = {n}"),
        Json::Obj(map) => {
            for (key, value) in map {
                assert_no_negative_int(value, &format!("{path}.{key}"));
            }
        }
        Json::Arr(items) => {
            for item in items {
                assert_no_negative_int(item, &format!("{path}[]"));
            }
        }
        _ => {}
    }
}

/// Regression: the fallback sentinel (`u64::MAX`) used to become the
/// histogram's min/max/quantiles and wrap to `-1` in the report.
#[test]
fn env_fallback_delegations_report_no_negative_numbers() {
    let dir = std::env::temp_dir().join(format!("pdbt-fallback-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (prog, report) = (path("fallback.s"), path("report.json"));
    std::fs::write(&prog, FALLBACK_GUEST).unwrap();

    let out = pdbt(&["stats", &prog, "--report-json", &report]);
    assert!(out.status.success());
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(!table.contains(&u64::MAX.to_string()), "{table}");

    let doc = Json::parse(&std::fs::read_to_string(&report).unwrap()).expect("valid JSON");
    let depth = doc
        .get("histograms")
        .and_then(|h| h.get("deleg_depth"))
        .expect("deleg_depth");
    let fallbacks = depth
        .get("counts")
        .and_then(Json::as_arr)
        .and_then(|c| c.last())
        .and_then(Json::as_u64);
    assert_eq!(fallbacks, Some(3), "every loop iteration falls back");
    assert_eq!(depth.get("count").and_then(Json::as_u64), Some(3));
    assert_no_negative_int(&doc, "report");

    std::fs::remove_dir_all(&dir).ok();
}
