//! Golden-file pin of the `--report-json` schema: the sorted set of
//! field paths (in `rules[].label` style) produced by driving the real
//! `pdbt stats` binary must match `tests/golden/report_schema.txt`.
//!
//! The report is the machine-readable interface of the whole tool —
//! downstream dashboards key on exact field names and nesting — so
//! renaming, moving or dropping a field must show up as a reviewed
//! golden diff, not a silent break. Values are deliberately not
//! pinned; only structure is.
//!
//! The counter sections are rendered from the counter families' tables
//! (`pdbt_obs::counter_family!`), and the paths this test requires are
//! derived from the same tables: removing or renaming a table line
//! fails against the golden, and a renderer that drops a family fails
//! the required-path check.
//!
//! Refresh after an intentional schema change with
//! `UPDATE_GOLDEN=1 cargo test --test report_schema`.

mod common;

use common::{assert_schema, family_paths, pdbt, schema_paths};
use pdbt::obs::json::Json;
use pdbt::obs::DispatchCounters;
use pdbt::runtime::{Metrics, Report, Resilience};
use std::collections::BTreeSet;

/// A guest that exercises every report section: rule-covered ALU work,
/// an unlearnable (`mul`) to force lookup misses, a flag-delegated
/// loop, and output.
const GUEST: &str = "\
mov r0, #5
mov r1, #0
mov r2, #3
add r1, r1, r0
mul r3, r1, r0
subs r2, r2, #1
bne .-12
mov r0, r1
svc #1
mov r0, r3
svc #1
svc #0
";

#[test]
fn report_json_schema_matches_golden() {
    let dir = std::env::temp_dir().join(format!("pdbt-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (prog, rules, report) = (path("prog.s"), path("rules.txt"), path("report.json"));
    std::fs::write(&prog, GUEST).unwrap();

    let train = pdbt(&["train", "--scale", "tiny", "-o", &rules]);
    assert!(train.status.success());

    // `--jobs 2` prewarms through the worker pool, so the pool and
    // per-shard cache sections carry real data.
    let stats = pdbt(&[
        "stats",
        &prog,
        "--rules",
        &rules,
        "--jobs",
        "2",
        "--report-json",
        &report,
    ]);
    assert!(stats.status.success());

    let text = std::fs::read_to_string(&report).unwrap();
    let doc = Json::parse(&text).expect("report is valid JSON");
    let mut paths = BTreeSet::new();
    schema_paths(&doc, "", &mut paths);
    // Every counter a family's table declares must be present, even
    // when zero: consumers poll `outcome` and the `resilience` counters
    // to tell a complete report from a partial one, dashboards
    // distinguish "chaining never engaged" from "flag off" by
    // present-and-zero vs. absent. The paths come from the tables, so a
    // new counter is required here without editing this list.
    let required = [
        family_paths("metrics", Metrics::FIELDS),
        family_paths("resilience", Resilience::FIELDS),
        family_paths("dispatch", DispatchCounters::FIELDS),
        family_paths(
            "resilience.injected",
            &pdbt_faults::Site::ALL.map(|s| s.name()),
        ),
    ]
    .concat();
    // Every path `Report::stripped` drops names a field, itself or as
    // the prefix of its rows: a renamed field fails here instead of
    // silently staying in the stripped report.
    for strip in Report::STRIPPED {
        let names = |row: &String| {
            row.strip_prefix(strip)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with(['.', '[']))
        };
        assert!(paths.iter().any(names), "`{strip}` names no report field");
    }
    assert_schema(paths, &required, "report_schema.txt");

    std::fs::remove_dir_all(&dir).ok();
}
