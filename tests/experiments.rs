//! The evaluation is pinned: `pdbt experiments --scale full` prints
//! `tests/golden/experiments.txt`, byte for byte, and every measured
//! number in EXPERIMENTS.md is a quotation from that file.
//!
//! After a change that is meant to move a number, refresh with
//! `UPDATE_GOLDEN=1 cargo test --release --test experiments --
//! --include-ignored`; the diff of the golden is the review artefact,
//! and EXPERIMENTS.md then fails until its quotations follow.

use pdbt::workloads::{Experiment, Scale, EXPERIMENTS};
use std::sync::{Mutex, MutexGuard, PoisonError};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/experiments.txt");
const RECORD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");

/// Fig 16 runs 600 workloads under 40 rule sets of its own — nothing to
/// share with the matrix — and costs six times the other ten together.
const SWEEP: &str = "fig16_training_sweep";

/// The golden file cut at its `=== title ===` lines: one chunk per
/// experiment, in [`EXPERIMENTS`] order. The guard is held while the
/// file is read or rewritten, so that under `UPDATE_GOLDEN` the tests
/// of this binary do not see each other's half-written file.
fn golden() -> (Vec<String>, MutexGuard<'static, ()>) {
    static FILE: Mutex<()> = Mutex::new(());
    let guard = FILE.lock().unwrap_or_else(PoisonError::into_inner);
    let text = std::fs::read_to_string(GOLDEN).unwrap();
    let mut cuts: Vec<usize> = text.match_indices("\n=== ").map(|(i, _)| i).collect();
    cuts.push(text.len());
    let chunks: Vec<String> = cuts.windows(2).map(|w| text[w[0]..w[1]].into()).collect();
    assert_eq!(
        chunks.len(),
        EXPERIMENTS.len(),
        "one chunk per experiment (for a new one, add its `=== title ===` line by hand first)"
    );
    (chunks, guard)
}

/// Prints the experiments `pick` selects from one full-scale
/// [`Experiment`] and holds each to its chunk of the golden;
/// `UPDATE_GOLDEN=1` rewrites those chunks first.
fn check(pick: fn(&str) -> bool) {
    let mut exp = Experiment::new(Scale::full());
    let mut printed = Vec::new();
    for (i, (id, view)) in EXPERIMENTS.iter().enumerate().filter(|(_, e)| pick(e.0)) {
        let mut out = Vec::new();
        view(&mut exp, &mut out).unwrap_or_else(|e| panic!("{id}: {e}"));
        printed.push((i, String::from_utf8(out).unwrap()));
    }
    let (mut chunks, _guard) = golden();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        for (i, text) in &printed {
            chunks[*i].clone_from(text);
        }
        std::fs::write(GOLDEN, chunks.concat()).unwrap();
    }
    for (i, got) in printed {
        let (id, want) = (EXPERIMENTS[i].0, &chunks[i]);
        assert!(
            got == *want,
            "{id}: output changed; review and refresh with UPDATE_GOLDEN=1\n\
             --- golden{want}\n--- printed{got}"
        );
    }
}

#[test]
fn the_ten_cheap_experiments_print_the_golden() {
    check(|id| id != SWEEP);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "600 full-scale runs, 43 s unoptimized; CI runs it with --release -- --include-ignored"
)]
fn the_training_sweep_prints_the_golden() {
    check(|id| id == SWEEP);
}

/// Every line inside a ```` ```text ```` block of EXPERIMENTS.md is a
/// line of the golden, verbatim: a measured number in the record cannot
/// differ from what the program prints.
#[test]
fn experiments_md_quotes_the_golden() {
    let golden = golden().0.concat();
    let record = std::fs::read_to_string(RECORD).unwrap();
    let (mut quoting, mut quotes) = (false, 0);
    for line in record.lines() {
        match line {
            "```text" => quoting = true,
            "```" => quoting = false,
            _ if quoting => {
                assert!(
                    golden.lines().any(|l| l == line),
                    "EXPERIMENTS.md quotes a line `pdbt experiments` does not print: {line:?}"
                );
                quotes += 1;
            }
            _ => {}
        }
    }
    assert!(
        quotes >= EXPERIMENTS.len(),
        "EXPERIMENTS.md quotes the golden"
    );
}
