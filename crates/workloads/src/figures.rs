//! Every table and figure of the paper's evaluation (§V) as a view of
//! one [`Experiment`]: [`EXPERIMENTS`] is the whole list, in
//! EXPERIMENTS.md order, and `pdbt experiments` prints it. Figs 11–15
//! and Table II read the shared (configuration × benchmark) matrix;
//! Tables I/III and Fig 2 read the twelve learned sets; Fig 16 and the
//! window ablation sweep their own runs over those sets. DESIGN.md §5
//! is the index, `tests/golden/experiments.txt` the recorded output.

use crate::{run_dbt, Benchmark, Config, Experiment};
use pdbt_core::derive::{derive, DeriveConfig};
use pdbt_core::RuleSet;
use pdbt_runtime::{CodeClass, Engine, EngineConfig};
use pdbt_symexec::CheckOptions;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::io::Write;

type Res<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// Prints one experiment: its `=== title ===` line, its rows, the
/// paper's numbers. Fails on a run that fails or disagrees with the
/// reference interpreter, and on a failed write.
pub type View = fn(&mut Experiment, &mut dyn Write) -> Res;

/// The evaluation: `(id, view)` per table or figure.
pub const EXPERIMENTS: [(&str, View); 11] = [
    ("table1_learning_funnel", table1),
    ("fig02_rule_growth", fig02),
    ("fig11_speedup", fig11),
    ("fig12_coverage", fig12),
    ("fig13_instr_ratio", fig13),
    ("table2_instr_breakdown", table2),
    ("fig14_coverage_ablation", fig14),
    ("fig15_speedup_ablation", fig15),
    ("fig16_training_sweep", fig16),
    ("table3_rule_counts", table3),
    ("ablation_window", ablation_window),
];

fn geomean(xs: &[f64]) -> f64 {
    let logs: f64 = xs.iter().map(|x| x.ln()).sum();
    (logs / xs.len() as f64).exp()
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

fn percent(x: f64) -> String {
    format!("{x:.1}%")
}

fn heading(out: &mut dyn Write, title: &str) -> Res {
    Ok(writeln!(out, "\n=== {title} ===")?)
}

/// Writes one row of a fixed-width table.
fn row(out: &mut dyn Write, name: &str, cells: impl IntoIterator<Item = String>) -> Res {
    write!(out, "{name:<12}")?;
    for c in cells {
        write!(out, "{c:>12}")?;
    }
    Ok(writeln!(out)?)
}

/// How a table prints its numbers and folds each column into its last
/// row: `(format, summary label, fold)`.
type Style = (fn(f64) -> String, &'static str, fn(&[f64]) -> f64);

/// A per-benchmark table: `values` of each benchmark under `cols`, then
/// the summary row, which is returned.
fn bench_table(
    exp: &mut Experiment,
    out: &mut dyn Write,
    (title, cols): (&str, &[&str]),
    (show, summary, fold): Style,
    values: impl Fn(&mut Experiment, Benchmark) -> Result<Vec<f64>, String>,
) -> Res<Vec<f64>> {
    heading(out, title)?;
    row(out, "benchmark", cols.iter().map(ToString::to_string))?;
    let mut columns = vec![Vec::new(); cols.len()];
    for b in Benchmark::ALL {
        let vals = values(exp, b)?;
        row(out, b.name(), vals.iter().map(|v| show(*v)))?;
        for (col, v) in columns.iter_mut().zip(vals) {
            col.push(v);
        }
    }
    let folded: Vec<f64> = columns.iter().map(|c| fold(c)).collect();
    row(out, summary, folded.iter().map(|v| show(*v)))?;
    Ok(folded)
}

/// One number of the matrix — a metric of a benchmark under a
/// configuration — and the style of a table of them.
type Measure = (
    fn(&mut Experiment, Benchmark, Config) -> Result<f64, String>,
    Style,
);
const SPEEDUP: Measure = (speedup, (ratio, "geomean", geomean));
const COVERAGE: Measure = (coverage, (percent, "mean", mean));
const HOST_PER_GUEST: Measure = (host_per_guest, (ratio, "geomean", geomean));

/// Speedup over QEMU (host-instruction proxy: lower executed count =
/// proportionally faster, §V-B1).
fn speedup(exp: &mut Experiment, b: Benchmark, cfg: Config) -> Result<f64, String> {
    let qemu = exp.metrics(Config::Qemu, b)?.host_executed();
    Ok(qemu as f64 / exp.metrics(cfg, b)?.host_executed() as f64)
}

fn coverage(exp: &mut Experiment, b: Benchmark, cfg: Config) -> Result<f64, String> {
    Ok(exp.metrics(cfg, b)?.coverage() * 100.0)
}

fn host_per_guest(exp: &mut Experiment, b: Benchmark, cfg: Config) -> Result<f64, String> {
    Ok(exp.metrics(cfg, b)?.total_ratio())
}

/// The headline pair of Figs 11/12 and the ablation staircase of Figs
/// 14/15: column titles and the configurations under them.
type Columns<'a> = (&'a [&'a str], &'a [Config]);
const HEADLINE: Columns = (&["w/o para.", "para."], &[Config::WoPara, Config::Para]);
const STAGES: Columns = (
    &["w/o para.", "opcode", "addr-mode", "condition"],
    &[
        Config::WoPara,
        Config::Opcode,
        Config::OpcodeAddr,
        Config::Para,
    ],
);

/// The common shape of the matrix figures: one measure, a column per
/// configuration.
fn config_table(
    exp: &mut Experiment,
    out: &mut dyn Write,
    title: &str,
    (cols, configs): Columns,
    (metric, style): Measure,
) -> Res<Vec<f64>> {
    bench_table(exp, out, (title, cols), style, |exp, b| {
        configs.iter().map(|c| metric(exp, b, *c)).collect()
    })
}

/// Table I — the learning funnel: statements → candidates → learned →
/// unique rules, per benchmark (paper §II-B).
fn table1(exp: &mut Experiment, out: &mut dyn Write) -> Res {
    heading(out, "Table I: rules from the enhanced learning approach")?;
    let cols = ["statement", "candidate", "learned", "unique"];
    row(out, "benchmark", cols.map(String::from))?;
    let mut total = [0usize; 4];
    for (bench, s) in &exp.funnels {
        let cells = [s.statements, s.candidates, s.learned, s.unique];
        row(out, bench.name(), cells.map(|c| c.to_string()))?;
        for (t, c) in total.iter_mut().zip(cells) {
            *t += c;
        }
    }
    let n = exp.funnels.len();
    row(out, "Avg.", total.map(|t| (t / n).to_string()))?;
    let share = |t: usize| percent(100.0 * t as f64 / total[0] as f64);
    let shares = [
        "100%".into(),
        share(total[1]),
        share(total[2]),
        share(total[3]),
    ];
    row(out, "Percent%", shares)?;
    let paper = "100% → 53.8% candidates → 22.6% learned → 1.3% unique";
    Ok(writeln!(out, "\npaper: {paper}")?)
}

/// Figure 2 — number of learned rules as training benchmarks are added
/// one at a time (perlbench first, as in the paper's footnote 2).
fn fig02(exp: &mut Experiment, out: &mut dyn Write) -> Res {
    heading(out, "Fig 2: learned-rule growth with training-set size")?;
    writeln!(out, "{:<6}{:>14}{:>12}", "n", "benchmark", "rules")?;
    let mut merged = RuleSet::new();
    for (n, (w, rules)) in exp.suite.iter().zip(&exp.per_rules).enumerate() {
        merged.merge(rules.clone());
        let (n, name, rules) = (n + 1, w.bench.name(), merged.len());
        writeln!(out, "{n:<6}{name:>14}{rules:>12}")?;
    }
    let paper = "growth slows sharply after ~6 benchmarks";
    Ok(writeln!(out, "\npaper shape: {paper}")?)
}

/// Figure 11 — speedup over QEMU 4.1: learning baseline (`w/o para.`)
/// vs the parameterized system (`para.`).
fn fig11(exp: &mut Experiment, out: &mut dyn Write) -> Res {
    let g = config_table(exp, out, "Fig 11: speedup over qemu4.1", HEADLINE, SPEEDUP)?;
    let (gain, paper) = (g[1] / g[0], "(paper: w/o 1.04x, para 1.29x, ratio 1.24x)");
    Ok(writeln!(out, "\npara/wo-para geomean: {gain:.2}  {paper}")?)
}

/// Figure 12 — dynamic coverage with and without parameterization.
fn fig12(exp: &mut Experiment, out: &mut dyn Write) -> Res {
    config_table(exp, out, "Fig 12: dynamic coverage", HEADLINE, COVERAGE)?;
    Ok(writeln!(out, "\npaper: 69.7% → 95.5%")?)
}

/// Figure 13 — host instructions executed per guest instruction under
/// qemu4.1, the learning baseline, and the parameterized system.
fn fig13(exp: &mut Experiment, out: &mut dyn Write) -> Res {
    let title = "Fig 13: host instrs per guest instr";
    let configs = [Config::Qemu, Config::WoPara, Config::Para];
    let cols = (&configs.map(Config::label)[..], &configs[..]);
    config_table(exp, out, title, cols, HOST_PER_GUEST)?;
    let paper = "qemu 8.18, w/o para 7.51, para 5.66";
    Ok(writeln!(out, "\npaper averages: {paper}")?)
}

/// Table II — where executed host instructions go: rule-translated core,
/// QEMU-translated core, guest-register data transfer, and control
/// stubs, per guest instruction.
fn table2(exp: &mut Experiment, out: &mut dyn Write) -> Res {
    let title = "Table II: host instructions per guest instruction (para. config)";
    let cols = ["rule", "qemu", "data", "control", "rule tot", "qemu tot"];
    let classes = [
        CodeClass::RuleCore,
        CodeClass::QemuCore,
        CodeClass::DataTransfer,
        CodeClass::Control,
    ];
    let values = |exp: &mut Experiment, b| {
        let p = exp.metrics(Config::Para, b)?;
        let mut vals: Vec<f64> = classes.iter().map(|c| p.ratio(*c)).collect();
        vals.extend([p.total_ratio(), host_per_guest(exp, b, Config::Qemu)?]);
        Ok(vals)
    };
    bench_table(exp, out, (title, &cols), (ratio, "Average", mean), values)?;
    let paper = "rule 0.97, qemu 3.49, data 2.02, control 2.68, totals 5.66 / 8.18";
    Ok(writeln!(out, "\npaper averages: {paper}")?)
}

/// Figure 14 — dynamic-coverage contribution of each parameterization
/// factor: opcode, addressing mode, condition-flag delegation.
fn fig14(exp: &mut Experiment, out: &mut dyn Write) -> Res {
    config_table(exp, out, "Fig 14: coverage by factor", STAGES, COVERAGE)?;
    Ok(writeln!(out, "\npaper: 69.7 → 79.8 → 87.0 → 95.5")?)
}

/// Figure 15 — speedup contribution of each parameterization factor.
fn fig15(exp: &mut Experiment, out: &mut dyn Write) -> Res {
    let title = "Fig 15: speedup over qemu4.1 by factor";
    config_table(exp, out, title, STAGES, SPEEDUP)?;
    Ok(writeln!(out, "\npaper: 1.04 → 1.13 → 1.22 → 1.29")?)
}

/// Figure 16 — dynamic coverage as the training set shrinks: randomly
/// selected 1–8 training benchmarks, applied to the remaining ones,
/// averaged over 5 repetitions (paper §V-C).
fn fig16(exp: &mut Experiment, out: &mut dyn Write) -> Res {
    heading(out, "Fig 16: coverage vs training-set size (5 reps)")?;
    writeln!(out, "{:<6}{:>14}{:>14}", "size", "w/o para.", "para.")?;
    for size in 1..=8usize {
        let (mut wo_acc, mut pa_acc, mut n) = (0.0f64, 0.0f64, 0.0f64);
        for rep in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(0xf16 + rep * 97 + size as u64);
            let mut order: Vec<usize> = (0..12).collect();
            order.shuffle(&mut rng);
            let (train, test) = order.split_at(size);
            let learned = exp.merged(train.iter().copied());
            let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
            for i in test {
                let w = &exp.suite[*i];
                let wo = run_dbt(w, Some(learned.clone()), false);
                let pa = run_dbt(w, Some(full.clone()), true);
                wo_acc += exp.checked("w/o para.", w.bench, wo)?.metrics.coverage() * 100.0;
                pa_acc += exp.checked("para.", w.bench, pa)?.metrics.coverage() * 100.0;
                n += 1.0;
            }
        }
        let (wo, pa) = (wo_acc / n, pa_acc / n);
        writeln!(out, "{size:<6}{wo:>13.1}%{pa:>13.1}%")?;
    }
    let paper = "para. always above w/o para.; both saturate around 6 programs";
    Ok(writeln!(out, "\npaper shape: {paper}")?)
}

/// Table III — rule-count comparison: learned rules, parameterized-rule
/// classes after each dimension, and the total applicable (instantiated)
/// rules; plus the instructions that remain uncoverable (§V-B2).
fn table3(exp: &mut Experiment, out: &mut dyn Write) -> Res {
    // Union over the whole suite, as the paper reports for Table III.
    let learned = exp.merged(0..exp.suite.len());
    let (full, stats) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
    // Statically scan the suite for instructions no rule can cover.
    let mut uncovered: BTreeSet<&'static str> = BTreeSet::new();
    for w in &exp.suite {
        for inst in w.pair.guest.program.insts() {
            if full.lookup(inst).is_none() {
                uncovered.insert(inst.op.mnemonic());
            }
        }
    }
    let uncovered: Vec<&str> = uncovered.into_iter().collect();
    write!(
        out,
        "
=== Table III: rule number comparison ===
Orig. learned rules                         {:>10}
  + learned sequence rules (not param.)     {:>10}
Opcode para. (rule classes)                 {:>10}
Addressing mode para. (rule classes)        {:>10}
Instantiated (applicable) rules             {:>10}
  derived by parameterization               {:>10}
  derivations rejected by verification      {:>10}

paper: 2724 learned → 2401 opcode → 1805 addr-mode; 86423 instantiated

static uncoverable opcodes across the suite:
  {}
paper: push, pop, bl, b, mla, umla, clz (b partially via delegation)
",
        stats.learned,
        learned.seq_len(),
        stats.opcode_param_rules,
        stats.addrmode_param_rules,
        stats.instantiated,
        stats.derived,
        stats.rejected,
        uncovered.join(", ")
    )?;
    Ok(())
}

/// Design-choice ablation — the condition-flag delegation window
/// (paper §IV-D fixes it at 3 host-side instructions; we sweep it).
fn ablation_window(exp: &mut Experiment, out: &mut dyn Write) -> Res {
    heading(out, "Ablation: delegation window size")?;
    writeln!(out, "{:<8}{:>12}{:>12}", "window", "coverage", "speedup")?;
    let target = Benchmark::Libquantum; // the flag-coupled benchmark
    let qemu = exp.metrics(Config::Qemu, target)?.host_executed() as f64;
    let rules = exp.rules_for(Config::Para, target);
    for window in [0usize, 1, 3, 8] {
        let mut cfg = EngineConfig::default();
        cfg.translate.flag_delegation = true;
        cfg.translate.window = window;
        let w = exp.workload(target);
        let run = Engine::new(rules.clone(), cfg).run(&w.pair.guest.program, &w.setup());
        let m = exp
            .checked(&format!("window {window}"), target, run)?
            .metrics;
        let (cov, speed) = (m.coverage() * 100.0, qemu / m.host_executed() as f64);
        writeln!(out, "{window:<8}{cov:>11.1}%{speed:>12.2}")?;
    }
    write!(
        out,
        "
expectation: window 0 loses the delegated branches; ≥1 captures the
adjacent producer idiom; larger windows add little (paper fixes 3)
"
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }
}
