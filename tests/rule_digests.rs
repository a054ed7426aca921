//! What `train` derives is pinned at full scale: the leave-one-out rule
//! set of every benchmark, as learned (`w/o para.`) and fully
//! parameterized (`para.`), is held to the rule count and FNV-1a digest
//! of its rule-file text in `tests/golden/rule_digests.txt`. These are
//! the sets `pdbt train --exclude`, the ledger's set-up and its `train`
//! workload build; `artifact_digests.txt` pins the tiny suite only and
//! `experiments.txt` pins counts.
//!
//! A change that is not meant to move a verdict, a flag report or a
//! template must leave the file alone; one that is refreshes it with
//! `UPDATE_GOLDEN=1 cargo test --test rule_digests` and reviews the
//! diff.

mod common;

use common::assert_golden;
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
