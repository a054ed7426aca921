//! The evaluation fixture: the suite, each benchmark learned once, each
//! leave-one-out rule set derived once, and each (configuration,
//! benchmark) cell of the evaluation matrix run once and checked
//! against the reference interpreter. Every table and figure of §V
//! (`crate::figures`) is a view of one [`Experiment`].

use crate::{run_dbt, run_reference, suite, Benchmark, Scale, Workload};
use pdbt_core::derive::{derive, DeriveConfig};
use pdbt_core::learning::{learn_into, FunnelStats, LearnConfig};
use pdbt_core::RuleSet;
use pdbt_runtime::{EngineError, Metrics, Report, RunObs};
use pdbt_symexec::CheckOptions;
use std::collections::HashMap;

/// The five system configurations of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Config {
    /// QEMU 4.1 baseline (pure lift/lower).
    Qemu,
    /// Enhanced learning-based DBT, no parameterization (`w/o para.`).
    WoPara,
    /// + opcode parameterization (Fig 14/15 stage 1).
    Opcode,
    /// + addressing-mode parameterization (stage 2).
    OpcodeAddr,
    /// + condition-flag delegation — the full system (`para.`).
    Para,
}

impl Config {
    /// All configurations in ablation order.
    pub const ALL: [Config; 5] = [
        Config::Qemu,
        Config::WoPara,
        Config::Opcode,
        Config::OpcodeAddr,
        Config::Para,
    ];

    /// The label used in the paper's figures, how the leave-one-out
    /// learned rules are parameterized (`None`: applied as learned, or
    /// no rules at all for QEMU), and whether the engine delegates
    /// condition flags.
    fn spec(self) -> (&'static str, Option<DeriveConfig>, bool) {
        match self {
            Config::Qemu => ("qemu4.1", None, true),
            Config::WoPara => ("w/o para.", None, false),
            Config::Opcode => ("opcode", Some(DeriveConfig::opcode_only()), false),
            Config::OpcodeAddr => ("addr-mode", Some(DeriveConfig::opcode_addrmode()), false),
            Config::Para => ("para.", Some(DeriveConfig::full()), true),
        }
    }

    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        self.spec().0
    }
}

/// Shared experiment state. Building one learns each benchmark once;
/// rule sets and matrix cells are computed on first use and kept, so
/// any number of views costs at most 36 leave-one-out derivations and
/// 60 runs.
pub struct Experiment {
    /// The twelve workloads.
    pub suite: Vec<Workload>,
    /// Rules learned from each workload independently, in suite order.
    pub per_rules: Vec<RuleSet>,
    /// Per-benchmark funnel statistics (Table I).
    pub funnels: Vec<(Benchmark, FunnelStats)>,
    /// The reference interpreter's output per workload.
    reference: Vec<Vec<u32>>,
    /// Leave-one-out rule sets per (configuration, target).
    rules: HashMap<(Config, Benchmark), RuleSet>,
    /// The evaluation matrix: every cell run so far.
    cells: HashMap<(Config, Benchmark), Report>,
}

impl Experiment {
    /// Builds the suite, learns every benchmark's rules once and records
    /// the reference output every later run is compared with.
    #[must_use]
    pub fn new(scale: Scale) -> Experiment {
        let suite = suite(scale);
        let mut per_rules = Vec::new();
        let mut funnels = Vec::new();
        let mut reference = Vec::new();
        for w in &suite {
            let mut rules = RuleSet::new();
            let stats = learn_into(&mut rules, &w.pair, &w.debug, LearnConfig::default());
            funnels.push((w.bench, stats));
            per_rules.push(rules);
            reference.push(run_reference(w).expect("generated workloads run"));
        }
        Experiment {
            suite,
            per_rules,
            funnels,
            reference,
            rules: HashMap::new(),
            cells: HashMap::new(),
        }
    }

    fn index(&self, bench: Benchmark) -> usize {
        self.suite
            .iter()
            .position(|w| w.bench == bench)
            .expect("benchmark in suite")
    }

    pub(crate) fn workload(&self, bench: Benchmark) -> &Workload {
        &self.suite[self.index(bench)]
    }

    /// The learned sets of `members` (suite indices) merged in that
    /// order: what [`crate::learn_suite`] learns from those programs,
    /// without learning them again.
    pub(crate) fn merged(&self, members: impl IntoIterator<Item = usize>) -> RuleSet {
        let mut out = RuleSet::new();
        for i in members {
            out.merge(self.per_rules[i].clone());
        }
        out
    }

    /// The rule set one configuration applies to one benchmark: learned
    /// from the other eleven (leave-one-out, §V-A), then parameterized
    /// as the configuration says. `None` for the QEMU baseline.
    pub fn rules_for(&mut self, cfg: Config, target: Benchmark) -> Option<RuleSet> {
        if cfg == Config::Qemu {
            return None;
        }
        if !self.rules.contains_key(&(cfg, target)) {
            let rules = match cfg.spec().1 {
                None => {
                    let skip = self.index(target);
                    self.merged((0..self.suite.len()).filter(|i| *i != skip))
                }
                Some(dc) => {
                    let learned = self.rules_for(Config::WoPara, target)?;
                    derive(&learned, dc, CheckOptions::default()).0
                }
            };
            self.rules.insert((cfg, target), rules);
        }
        self.rules.get(&(cfg, target)).cloned()
    }

    /// Passes a finished run of `target` through only if its output is
    /// the reference interpreter's; the error names `label` and `target`.
    pub(crate) fn checked(
        &self,
        label: &str,
        target: Benchmark,
        run: Result<Report, EngineError>,
    ) -> Result<Report, String> {
        let report = run.map_err(|e| format!("{label} on {target}: {e}"))?;
        if report.output != self.reference[self.index(target)] {
            return Err(format!(
                "{label} on {target}: output differs from the reference interpreter's"
            ));
        }
        Ok(report)
    }

    /// One cell of the evaluation matrix: the whole report — metrics
    /// plus the observability record — of `target` under `cfg`, or why
    /// the run failed or disagreed with the reference interpreter.
    pub fn report(&mut self, cfg: Config, target: Benchmark) -> Result<&Report, String> {
        if !self.cells.contains_key(&(cfg, target)) {
            let rules = self.rules_for(cfg, target);
            let run = run_dbt(self.workload(target), rules, cfg.spec().2);
            let report = self.checked(cfg.label(), target, run)?;
            self.cells.insert((cfg, target), report);
        }
        Ok(&self.cells[&(cfg, target)])
    }

    /// The metrics of one cell ([`Experiment::report`]).
    pub fn metrics(&mut self, cfg: Config, target: Benchmark) -> Result<Metrics, String> {
        self.report(cfg, target).map(|r| r.metrics.clone())
    }

    /// One row of the matrix folded into a single aggregate: summed
    /// [`Metrics`] (via [`Metrics::merge`]) and merged observability
    /// counters.
    pub fn run_suite(&mut self, cfg: Config) -> Result<(Metrics, RunObs), String> {
        let mut metrics = Metrics::default();
        let mut obs = RunObs::default();
        for b in Benchmark::ALL {
            let report = self.report(cfg, b)?;
            metrics.merge(&report.metrics);
            obs.merge(&report.obs);
        }
        Ok((metrics, obs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EXPERIMENTS;

    #[test]
    fn suite_aggregate_folds_attribution() {
        let mut exp = Experiment::new(Scale::tiny());
        let (metrics, obs) = exp.run_suite(Config::Para).unwrap();
        // The merged counters decompose the merged coverage exactly.
        assert_eq!(obs.rules.total_covered(), metrics.rule_covered);
        assert_eq!(obs.block_host_len.count(), metrics.blocks_executed);
        assert_eq!(obs.block_host_len.sum(), metrics.host_retired);
        assert!(metrics.coverage() > 0.5);
    }

    #[test]
    fn leave_one_out_end_to_end_mcf() {
        // The paper's protocol on the smallest benchmark: train on the
        // others, run mcf under the three headline configurations (each
        // checked against the reference inside `metrics`), check the
        // coverage/performance ordering.
        let mut exp = Experiment::new(Scale::tiny());
        assert_eq!(exp.suite.len(), 12);
        let learned = exp.rules_for(Config::WoPara, Benchmark::Mcf).unwrap();
        let full = exp.rules_for(Config::Para, Benchmark::Mcf).unwrap();
        assert!(learned.len() > 10, "learned {} rules", learned.len());
        assert!(full.len() > learned.len() * 5, "{}", full.len());
        assert!(!exp.reference[exp.index(Benchmark::Mcf)].is_empty());

        let qemu = exp.metrics(Config::Qemu, Benchmark::Mcf).unwrap();
        let base = exp.metrics(Config::WoPara, Benchmark::Mcf).unwrap();
        let para = exp.metrics(Config::Para, Benchmark::Mcf).unwrap();
        assert!(base.coverage() > 0.10, "{}", base.coverage());
        assert!(para.coverage() > 0.5);
        assert!(
            para.coverage() > base.coverage() + 0.05,
            "para {} vs base {}",
            para.coverage(),
            base.coverage()
        );
        assert!(para.host_executed() < qemu.host_executed());
    }

    #[test]
    fn views_share_one_matrix() {
        let mut exp = Experiment::new(Scale::tiny());
        let view = |id: &str| EXPERIMENTS.iter().find(|e| e.0 == id).unwrap().1;
        view("fig14_coverage_ablation")(&mut exp, &mut Vec::new()).unwrap();
        // Four configurations × twelve benchmarks, three of them derived.
        assert_eq!(exp.cells.len(), 48);
        assert_eq!(exp.rules.len(), 48);
        // Fig 12 reads two of Fig 14's columns; Fig 15 adds the QEMU row
        // and nothing else, however often it is printed.
        view("fig12_coverage")(&mut exp, &mut Vec::new()).unwrap();
        assert_eq!(exp.cells.len(), 48);
        for _ in 0..2 {
            view("fig15_speedup_ablation")(&mut exp, &mut Vec::new()).unwrap();
            assert_eq!((exp.cells.len(), exp.rules.len()), (60, 48));
        }
    }

    #[test]
    fn a_cell_that_disagrees_with_the_reference_is_an_error() {
        let mut exp = Experiment::new(Scale::tiny());
        let mcf = exp.index(Benchmark::Mcf);
        exp.reference[mcf].push(0);
        let err = exp.metrics(Config::WoPara, Benchmark::Mcf).unwrap_err();
        assert!(err.contains("w/o para.") && err.contains("mcf"), "{err}");
        assert!(exp.cells.is_empty(), "a failed cell must not be kept");
        exp.metrics(Config::WoPara, Benchmark::Gcc).unwrap();
    }
}
