//! The schema-golden machinery shared by `report_schema.rs` (the
//! `--report-json` document) and `serve.rs` (the PING/STATS payloads):
//! a document's *schema* is the sorted set of its field paths in
//! `rules[].label` style — structure only, no values.

use pdbt::obs::json::Json;
use std::collections::BTreeSet;

pub fn schema_paths(doc: &Json, path: &str, out: &mut BTreeSet<String>) {
    match doc {
        Json::Obj(map) => {
            for (key, value) in map {
                let sub = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                schema_paths(value, &sub, out);
            }
        }
        Json::Arr(items) => {
            let sub = format!("{path}[]");
            if items.is_empty() {
                out.insert(sub);
            } else {
                for item in items {
                    schema_paths(item, &sub, out);
                }
            }
        }
        _ => {
            out.insert(path.to_string());
        }
    }
}

/// `prefix.name` for every counter of a family: the paths a section
/// rendered from the family's table must contain.
pub fn family_paths(prefix: &str, fields: &[&str]) -> Vec<String> {
    fields.iter().map(|f| format!("{prefix}.{f}")).collect()
}

/// Asserts `paths` contains every `required` path and equals the golden
/// file `tests/golden/<name>`; `UPDATE_GOLDEN=1` rewrites the file
/// first.
pub fn assert_schema(paths: BTreeSet<String>, required: &[String], name: &str) {
    for path in required {
        assert!(paths.contains(path), "{name}: missing the `{path}` field");
    }
    let got = paths.into_iter().collect::<Vec<_>>().join("\n") + "\n";
    let golden_path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, &got).unwrap();
    }
    let want = std::fs::read_to_string(&golden_path).expect("golden file present");
    assert_eq!(
        got, want,
        "{name}: schema changed; review and refresh with UPDATE_GOLDEN=1"
    );
}
