//! The synthetic SPEC CINT 2006 suite and training protocol.
//!
//! Twelve deterministic benchmarks named after the paper's suite, each
//! generated from a per-benchmark [`Profile`] preserving the workload
//! dimensions the experiments measure. The training protocol matches
//! §V-A: leave-one-out — "the rules learned from the other 11
//! benchmarks are applied to the 12th". The paper's evaluation itself
//! is [`Experiment`] (one memoized fixture) and [`EXPERIMENTS`] (the
//! eleven tables and figures printed from it by `pdbt experiments`).
//!
//! # Example
//!
//! ```no_run
//! use pdbt_workloads::{learn_suite, Benchmark, Scale};
//!
//! let suite = pdbt_workloads::suite(Scale::tiny());
//! let rules = learn_suite(&suite, Some(Benchmark::Mcf));
//! let target = suite.iter().find(|w| w.bench == Benchmark::Mcf).unwrap();
//! let report = pdbt_workloads::run_dbt(target, Some(rules), true).unwrap();
//! println!("coverage: {:.1}%", report.metrics.coverage() * 100.0);
//! ```

mod experiment;
mod figures;
mod gen;
mod profile;

pub use experiment::{Config, Experiment};
pub use figures::{View, EXPERIMENTS};
pub use gen::{generate, DATA_BASE, DATA_SIZE, STACK_BASE, STACK_SIZE};
pub use profile::{Benchmark, Profile, Scale};

use pdbt_compiler::{CompiledPair, DebugEntry};
use pdbt_core::learning::{learn_into, LearnConfig};
use pdbt_core::RuleSet;
use pdbt_runtime::{Engine, EngineConfig, EngineError, Report, RunSetup};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A built benchmark: compiled images, (degraded) debug map, run setup.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which benchmark this is.
    pub bench: Benchmark,
    /// The compiled guest/host pair.
    pub pair: CompiledPair,
    /// The degraded (line-table-realistic) debug map used for learning.
    pub debug: Vec<DebugEntry>,
}

impl Workload {
    /// The run setup (memory layout, budget) for this workload.
    #[must_use]
    pub fn setup(&self) -> RunSetup {
        let mut s = RunSetup::basic(DATA_BASE, DATA_SIZE, STACK_BASE, STACK_SIZE);
        s.max_guest = 100_000_000;
        s
    }
}

/// Builds one benchmark at the given scale (deterministic).
#[must_use]
pub fn build(bench: Benchmark, scale: Scale) -> Workload {
    let profile = bench.profile();
    let mut rng = StdRng::seed_from_u64(bench.seed());
    let src = generate(&profile, scale.statements(bench), &mut rng);
    let pair = pdbt_compiler::compile_pair(&src, 0x1000).expect("generated programs compile");
    let accurate = pdbt_compiler::build_debug_map(&pair.guest, &pair.host);
    let debug = pdbt_compiler::degrade(&accurate, profile.degrade, &mut rng);
    Workload { bench, pair, debug }
}

/// Builds the whole suite.
#[must_use]
pub fn suite(scale: Scale) -> Vec<Workload> {
    Benchmark::ALL.iter().map(|b| build(*b, scale)).collect()
}

/// The one training protocol: learns every workload of `suite` in
/// order — all but `exclude` under the paper's leave-one-out protocol
/// (§V-A) — into one rule set. The first-seen rule keeps a key, within
/// a program and across programs.
#[must_use]
pub fn learn_suite(suite: &[Workload], exclude: Option<Benchmark>) -> RuleSet {
    let mut rules = RuleSet::new();
    for w in suite.iter().filter(|w| Some(w.bench) != exclude) {
        learn_into(&mut rules, &w.pair, &w.debug, LearnConfig::default());
    }
    rules
}

/// Runs a workload under the DBT with the given rules and delegation
/// setting, returning the report.
///
/// # Errors
///
/// Forwarded engine errors.
pub fn run_dbt(
    w: &Workload,
    rules: Option<RuleSet>,
    flag_delegation: bool,
) -> Result<Report, EngineError> {
    let mut cfg = EngineConfig::default();
    cfg.translate.flag_delegation = flag_delegation;
    let mut engine = Engine::new(rules, cfg);
    engine.run(&w.pair.guest.program, &w.setup())
}

/// Runs a workload on the reference interpreter, returning its output
/// (the correctness oracle for every DBT configuration).
///
/// # Errors
///
/// Forwarded interpreter errors.
pub fn run_reference(w: &Workload) -> Result<Vec<u32>, pdbt_isa::ExecError> {
    let mut cpu = pdbt_isa_arm::Cpu::new();
    cpu.mem.map(DATA_BASE, DATA_SIZE);
    cpu.mem.map(STACK_BASE, STACK_SIZE);
    cpu.write(pdbt_isa_arm::Reg::Sp, STACK_BASE + STACK_SIZE);
    pdbt_isa_arm::run(&mut cpu, &w.pair.guest.program, 100_000_000)?;
    Ok(cpu.output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = build(Benchmark::Astar, Scale::tiny());
        let b = build(Benchmark::Astar, Scale::tiny());
        assert_eq!(a.pair.guest.program.insts(), b.pair.guest.program.insts());
        assert_eq!(a.debug, b.debug);
    }

    #[test]
    fn funnel_shape_matches_table1() {
        // statements > candidates > learned > unique, with candidate
        // yield broadly around the paper's 54%.
        let w = build(Benchmark::Sjeng, Scale::tiny());
        let s = learn_into(
            &mut RuleSet::new(),
            &w.pair,
            &w.debug,
            LearnConfig::default(),
        );
        assert!(s.candidates < s.statements, "{s:?}");
        assert!(s.learned < s.candidates, "{s:?}");
        assert!(s.unique <= s.learned, "{s:?}");
        assert!(s.unique > 0, "{s:?}");
        let yield_ratio = s.candidates as f64 / s.statements as f64;
        assert!(
            (0.3..0.85).contains(&yield_ratio),
            "candidate yield {yield_ratio}"
        );
    }
}
