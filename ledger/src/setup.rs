//! Set-up every child pays before it measures: the 12-program suite,
//! the rules the paper's protocol gives each program, and the reference
//! outputs every later result is checked against.

use crate::spans::span;
use pdbt_core::derive::{derive, DeriveConfig, DeriveStats};
use pdbt_core::learning::{learn_into, FunnelStats, LearnConfig};
use pdbt_core::RuleSet;
use pdbt_runtime::{BackendKind, EngineConfig};
use pdbt_symexec::CheckOptions;
use pdbt_workloads::{run_reference, suite, Scale, Workload};
use std::time::Instant;

/// The two sizes the suite is built at: `full` for every recorded
/// number, `tiny` for `--smoke` and the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    /// The name `pdbt submit --scale` uses.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    pub fn scale(self) -> Scale {
        match self {
            Size::Full => Scale::full(),
            Size::Tiny => Scale::tiny(),
        }
    }
}

/// The engine configuration every workload runs: the shipped defaults
/// with the backend pinned, so `PDBT_BACKEND` in the caller's
/// environment cannot change what is measured.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        backend: BackendKind::Threaded,
        ..EngineConfig::default()
    }
}

/// Rules learned from each program alone, and what learning reported.
pub fn learn_each(suite: &[Workload]) -> Vec<(RuleSet, FunnelStats)> {
    suite
        .iter()
        .map(|w| {
            let _s = span("core.learn_into");
            let mut rules = RuleSet::new();
            let stats = learn_into(&mut rules, &w.pair, &w.debug, LearnConfig::default());
            (rules, stats)
        })
        .collect()
}

/// The paper's `para.` rule set for program `target` (§V-A): merge what
/// the other eleven taught, then parameterize. `None` keeps all twelve,
/// which is what a daemon serving every image is started with.
pub fn derive_excluding(
    learned: &[(RuleSet, FunnelStats)],
    target: Option<usize>,
) -> (RuleSet, DeriveStats) {
    let _s = span("core.derive");
    let mut merged = RuleSet::new();
    for (i, (rules, _)) in learned.iter().enumerate() {
        if Some(i) != target {
            merged.merge(rules.clone());
        }
    }
    derive(&merged, DeriveConfig::full(), CheckOptions::default())
}

/// Everything a child builds before its first timed span.
pub struct Fixture {
    pub size: Size,
    pub suite: Vec<Workload>,
    /// `para[i]` is the leave-one-out rule set for `suite[i]`.
    pub para: Vec<(RuleSet, DeriveStats)>,
    /// Rules derived from all twelve programs: the serving daemons'.
    pub para_all: RuleSet,
    /// `reference[i]` is what the independent ARM interpreter prints
    /// for `suite[i]`; the DBT never produces an expected value.
    pub reference: Vec<Vec<u32>>,
    /// Wall-clock of `suite()` alone (`workloads.build_ms`).
    pub build_ms: f64,
    /// Wall-clock of the whole set-up (`setup_s` adds whatever the
    /// workload builds on top, such as a daemon or sealed artifacts).
    pub seconds: f64,
}

impl Fixture {
    /// Σ `DeriveStats::instantiated` over the twelve leave-one-out
    /// sets: how many rules parameterization added to what was learned.
    /// Every child derives these in set-up, so every workload reports
    /// it; `train` derives them again in each pass and must agree.
    pub fn rules_instantiated(&self) -> u64 {
        self.para.iter().map(|(_, s)| s.instantiated as u64).sum()
    }

    pub fn build(size: Size) -> Fixture {
        let start = Instant::now();
        let suite = {
            let _s = span("workloads.suite");
            suite(size.scale())
        };
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        let learned = learn_each(&suite);
        let para = (0..suite.len())
            .map(|i| derive_excluding(&learned, Some(i)))
            .collect();
        let (para_all, _) = derive_excluding(&learned, None);
        let reference = suite
            .iter()
            .map(|w| {
                let _s = span("isa-arm.run_reference");
                run_reference(w).expect("the reference interpreter runs every suite program")
            })
            .collect();
        Fixture {
            size,
            suite,
            para,
            para_all,
            reference,
            build_ms,
            seconds: start.elapsed().as_secs_f64(),
        }
    }
}
