//! Cross-crate integration: the full paper pipeline at test scale.
//!
//! One tiny-scale [`Experiment`] — the suite, leave-one-out training,
//! the staged derivations and the (configuration × benchmark) matrix —
//! is shared by the tests below. Every cell it hands out has already
//! been compared with the reference interpreter's output inside the
//! fixture; the tests add the evaluation's headline orderings.

use pdbt::workloads::{Benchmark, Config, Experiment, Scale};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The shared matrix. A test that panics mid-cell leaves it valid (cells
/// are inserted whole, after their check), so poisoning is ignored and
/// the other tests report their own results.
fn matrix() -> MutexGuard<'static, Experiment> {
    static MATRIX: OnceLock<Mutex<Experiment>> = OnceLock::new();
    MATRIX
        .get_or_init(|| Mutex::new(Experiment::new(Scale::tiny())))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The big hammer: every benchmark in the suite, under every
/// configuration from the pure QEMU path to the fully parameterized
/// DBT, must reproduce the reference interpreter's output exactly.
#[test]
fn all_twelve_benchmarks_are_translated_correctly() {
    let mut exp = matrix();
    for b in Benchmark::ALL {
        for cfg in Config::ALL {
            let report = exp.report(cfg, b).unwrap_or_else(|e| panic!("{e}"));
            assert!(!report.output.is_empty(), "{b}: nothing to compare");
        }
        let coverage = exp.metrics(Config::Para, b).unwrap().coverage();
        assert!(coverage > 0.80, "{b}: coverage {coverage:.3}");
    }
}

#[test]
fn every_configuration_is_correct_and_ordered() {
    let mut exp = matrix();
    for target in [Benchmark::Mcf, Benchmark::Libquantum, Benchmark::Astar] {
        let learned = exp.rules_for(Config::WoPara, target).unwrap();
        assert!(learned.len() > 20, "{target}: learned {}", learned.len());
        let full = exp.rules_for(Config::Para, target).unwrap();
        assert!(
            full.len() > learned.len(),
            "{target}: {} instantiated from {} learned",
            full.len(),
            learned.len()
        );

        let qemu = exp.metrics(Config::Qemu, target).unwrap();
        assert_eq!(qemu.coverage(), 0.0);
        let wo = exp.metrics(Config::WoPara, target).unwrap();
        let para = exp.metrics(Config::Para, target).unwrap();

        // Headline orderings (Figs 11/12): parameterization increases
        // coverage and reduces executed host instructions.
        assert!(
            para.coverage() > wo.coverage(),
            "{target}: coverage {} vs {}",
            para.coverage(),
            wo.coverage()
        );
        assert!(para.coverage() > 0.85, "{target}: {}", para.coverage());
        assert!(
            para.host_executed() < qemu.host_executed(),
            "{target}: para {} vs qemu {}",
            para.host_executed(),
            qemu.host_executed()
        );
    }
}

#[test]
fn ablation_stages_are_monotone_in_coverage() {
    let mut exp = matrix();
    for b in Benchmark::ALL {
        let c: Vec<f64> = Config::ALL[1..]
            .iter()
            .map(|cfg| exp.metrics(*cfg, b).unwrap().coverage())
            .collect();
        assert!(c[0] <= c[1] + 1e-9, "{b}: {c:?}");
        assert!(c[1] <= c[2] + 1e-9, "{b}: {c:?}");
        assert!(c[2] < c[3], "{b}: {c:?}");
    }
}

#[test]
fn unlearnable_instructions_fall_back_but_stay_correct() {
    // A program built around the paper's seven unlearnables.
    use pdbt::arm::{builders as g, Operand as O, Program, Reg};
    use pdbt::runtime::{Engine, EngineConfig, RunSetup};
    let prog = Program::new(
        0x1000,
        vec![
            g::mov(Reg::R4, O::Imm(0x321)),
            g::clz(Reg::R5, Reg::R4),                   // clz
            g::mla(Reg::R6, Reg::R5, Reg::R5, Reg::R4), // mla
            g::push([Reg::R4, Reg::R5]),                // push
            g::pop([Reg::R7, Reg::R8]),                 // pop
            g::bl(8),                                   // bl → f
            g::b(pdbt_isa::Cond::Al, 12),               // b → out
            g::add(Reg::R6, Reg::R6, O::Reg(Reg::R7)),  // f:
            g::bx(Reg::Lr),
            g::mov(Reg::R0, O::Reg(Reg::R6)), // out:
            g::svc(1),
            g::svc(0),
        ],
    );
    let full = matrix().rules_for(Config::Para, Benchmark::Mcf);
    let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
    let mut engine = Engine::new(full, EngineConfig::default());
    let report = engine.run(&prog, &setup).unwrap();
    // Reference.
    let mut cpu = pdbt::arm::Cpu::new();
    cpu.mem.map(0x10_0000, 0x1000);
    cpu.mem.map(0x8_0000, 0x1000);
    cpu.write(Reg::Sp, 0x8_1000);
    pdbt::arm::run(&mut cpu, &prog, 10_000).unwrap();
    assert_eq!(report.output, cpu.output);
    // The unlearnables kept coverage below 100%.
    assert!(report.metrics.coverage() < 1.0);
    assert!(report.metrics.coverage() > 0.0);
}
