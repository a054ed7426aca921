//! What `train` derives is pinned at full scale: the leave-one-out rule
//! set of every benchmark, as learned (`w/o para.`) and fully
//! parameterized (`para.`), is held to the rule count and FNV-1a digest
//! of its rule-file text in `tests/golden/rule_digests.txt`. These are
//! the sets `pdbt train --exclude`, the ledger's set-up and its `train`
//! workload build; `artifact_digests.txt` pins the tiny suite only and
//! `experiments.txt` pins counts.
//!
//! The table those derivations read — each guest opcode's host
//! counterpart, each subgroup's members and whether it parameterizes —
//! is pinned beside them in `tests/golden/counterparts.txt`.
//!
//! A change that is not meant to move a verdict, a flag report or a
//! template must leave both files alone; one that is refreshes them with
//! `UPDATE_GOLDEN=1 cargo test --test rule_digests` and reviews the
//! diff.

mod common;

use common::{assert_golden, counterparts_text};
use pdbt::core::classify::host_counterpart;
use pdbt::core::store_io::save_rules;
use pdbt::workloads::{Benchmark, Config, Experiment, Scale};

#[test]
fn leave_one_out_rule_sets_match_the_golden() {
    let mut exp = Experiment::new(Scale::full());
    let mut got = String::new();
    for bench in Benchmark::ALL {
        for cfg in [Config::Para, Config::WoPara] {
            let rules = exp.rules_for(cfg, bench).expect("a rule configuration");
            let text = save_rules(&rules);
            got.push_str(&format!(
                "{bench} {} {} {:016x}\n",
                cfg.label(),
                rules.len() + rules.seq_len(),
                pdbt_faults::key_of(text.as_bytes())
            ));
        }
    }
    assert_golden(&got, "rule_digests.txt");
}

#[test]
fn counterpart_table_matches_the_golden() {
    assert_golden(&counterparts_text(host_counterpart), "counterparts.txt");
}
