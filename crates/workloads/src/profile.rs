//! Per-benchmark workload profiles.
//!
//! Each of the twelve SPEC CINT 2006 benchmarks is modelled by a
//! profile preserving the dimensions the paper's experiments depend on:
//! its statement count (Table I), its opcode diversity (`h264ref` uses
//! far fewer instruction types — §V-B2), its flag-coupling density
//! (`libquantum`'s eor-dominated loop — §V-B2), its call density
//! (ABI-bound `push`/`pop`/`bl` that can never be rule-covered), and
//! its memory intensity.

use pdbt_compiler::lang::BinOp;
use pdbt_compiler::DegradeProfile;
use std::fmt;

/// The SPEC CINT 2006 benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Benchmark {
    Perlbench,
    Bzip2,
    Gcc,
    Mcf,
    Gobmk,
    Hmmer,
    Sjeng,
    Libquantum,
    H264ref,
    Omnetpp,
    Astar,
    Xalancbmk,
}

impl Benchmark {
    /// All twelve, in the paper's table order.
    pub const ALL: [Benchmark; 12] = [
        Benchmark::Perlbench,
        Benchmark::Bzip2,
        Benchmark::Gcc,
        Benchmark::Mcf,
        Benchmark::Gobmk,
        Benchmark::Hmmer,
        Benchmark::Sjeng,
        Benchmark::Libquantum,
        Benchmark::H264ref,
        Benchmark::Omnetpp,
        Benchmark::Astar,
        Benchmark::Xalancbmk,
    ];

    /// The benchmark's name as the paper prints it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Perlbench => "perlbench",
            Benchmark::Bzip2 => "bzip2",
            Benchmark::Gcc => "gcc",
            Benchmark::Mcf => "mcf",
            Benchmark::Gobmk => "gobmk",
            Benchmark::Hmmer => "hmmer",
            Benchmark::Sjeng => "sjeng",
            Benchmark::Libquantum => "libquantum",
            Benchmark::H264ref => "h264ref",
            Benchmark::Omnetpp => "omnetpp",
            Benchmark::Astar => "astar",
            Benchmark::Xalancbmk => "xalancbmk",
        }
    }

    /// The benchmark called `name`, or an error listing the twelve: the
    /// CLI and the serve daemon both resolve user-supplied names here.
    pub fn from_name(name: &str) -> Result<Benchmark, String> {
        let found = Benchmark::ALL.into_iter().find(|b| b.name() == name);
        found.ok_or_else(|| {
            let names = Benchmark::ALL.map(Benchmark::name).join("|");
            format!("unknown benchmark `{name}` (want {names})")
        })
    }

    /// Source-statement count from the paper's Table I.
    #[must_use]
    pub fn paper_statements(self) -> usize {
        match self {
            Benchmark::Perlbench => 48_634,
            Benchmark::Bzip2 => 3_096,
            Benchmark::Gcc => 143_190,
            Benchmark::Mcf => 531,
            Benchmark::Gobmk => 27_975,
            Benchmark::Hmmer => 10_213,
            Benchmark::Sjeng => 4_933,
            Benchmark::Libquantum => 1_012,
            Benchmark::H264ref => 20_165,
            Benchmark::Omnetpp => 14_067,
            Benchmark::Astar => 1_516,
            Benchmark::Xalancbmk => 71_040,
        }
    }

    /// Deterministic per-benchmark RNG seed.
    #[must_use]
    pub fn seed(self) -> u64 {
        0x5eed_0000 + Benchmark::ALL.iter().position(|b| *b == self).unwrap() as u64
    }

    /// The workload profile.
    #[must_use]
    pub fn profile(self) -> Profile {
        let default_ops: Vec<(BinOp, u32)> = vec![
            (BinOp::Add, 24),
            (BinOp::Sub, 14),
            (BinOp::And, 8),
            (BinOp::Or, 6),
            (BinOp::Xor, 6),
            (BinOp::Shl, 5),
            (BinOp::Shr, 4),
            (BinOp::Mul, 5),
        ];
        let base = Profile {
            bench: self,
            op_weights: default_ops,
            mem_ratio: 0.22,
            call_ratio: 0.035,
            if_ratio: 0.10,
            shifted_ratio: 0.06,
            unary_ratio: 0.08,
            high_var_ratio: 0.18,
            flag_coupled_ratio: 0.04,
            special_ratio: 0.01,
            signature_ops: Vec::new(),
            rmw_bias: 0.55,
            imm_bias: 0.45,
            hot_loop_iters: 40,
            outer_iters: 24,
            degrade: DegradeProfile::default(),
        };
        match self {
            Benchmark::H264ref => Profile {
                // Few instruction types (§V-B2): mostly add/sub/mul and
                // memory traffic — no signature tail, so opcode
                // parameterization helps it least (paper: 5.1% coverage
                // gain vs the 10.1% average).
                op_weights: vec![(BinOp::Add, 40), (BinOp::Sub, 16), (BinOp::Mul, 12)],
                mem_ratio: 0.34,
                call_ratio: 0.008,
                if_ratio: 0.04,
                shifted_ratio: 0.01,
                unary_ratio: 0.02,
                hot_loop_iters: 64,
                ..base
            },
            Benchmark::Libquantum => Profile {
                // The eor-dominated, flag-coupled hot loop (§V-B2).
                op_weights: vec![
                    (BinOp::Xor, 40),
                    (BinOp::Add, 12),
                    (BinOp::And, 8),
                    (BinOp::Shl, 6),
                ],
                signature_ops: vec![(BinOp::Xor, 30)],
                rmw_bias: 0.85,
                flag_coupled_ratio: 0.22,
                mem_ratio: 0.15,
                call_ratio: 0.01,
                hot_loop_iters: 64,
                ..base
            },
            Benchmark::Gcc => Profile {
                // Call- and branch-heavy, with a bit-manipulation tail.
                call_ratio: 0.06,
                if_ratio: 0.13,
                high_var_ratio: 0.26,
                hot_loop_iters: 24,
                signature_ops: vec![(BinOp::AndNot, 18), (BinOp::Ror, 14)],
                rmw_bias: 0.30,
                degrade: DegradeProfile {
                    drop: 0.34,
                    merge: 0.12,
                    skew: 0.08,
                },
                ..base
            },
            Benchmark::Perlbench => Profile {
                call_ratio: 0.06,
                if_ratio: 0.13,
                high_var_ratio: 0.26,
                hot_loop_iters: 24,
                signature_ops: vec![(BinOp::Or, 20), (BinOp::Shr, 16)],
                imm_bias: 0.70,
                degrade: DegradeProfile {
                    drop: 0.34,
                    merge: 0.12,
                    skew: 0.08,
                },
                ..base
            },
            Benchmark::Xalancbmk => Profile {
                call_ratio: 0.06,
                if_ratio: 0.13,
                high_var_ratio: 0.26,
                hot_loop_iters: 24,
                signature_ops: vec![(BinOp::Sub, 22), (BinOp::And, 14)],
                rmw_bias: 0.20,
                imm_bias: 0.25,
                degrade: DegradeProfile {
                    drop: 0.34,
                    merge: 0.12,
                    skew: 0.08,
                },
                ..base
            },
            Benchmark::Mcf => Profile {
                // Tiny, pointer-chasing kernel.
                mem_ratio: 0.42,
                call_ratio: 0.01,
                if_ratio: 0.10,
                hot_loop_iters: 96,
                signature_ops: vec![(BinOp::Sar, 16)],
                rmw_bias: 0.25,
                ..base
            },
            Benchmark::Sjeng => Profile {
                // Search codes: branchy with bit tricks.
                if_ratio: 0.14,
                shifted_ratio: 0.10,
                flag_coupled_ratio: 0.07,
                signature_ops: vec![(BinOp::Ror, 20), (BinOp::Xor, 12)],
                imm_bias: 0.65,
                ..base
            },
            Benchmark::Gobmk => Profile {
                if_ratio: 0.14,
                shifted_ratio: 0.12,
                flag_coupled_ratio: 0.07,
                signature_ops: vec![(BinOp::Or, 16), (BinOp::AndNot, 14)],
                rmw_bias: 0.30,
                ..base
            },
            Benchmark::Hmmer => Profile {
                mem_ratio: 0.30,
                hot_loop_iters: 72,
                if_ratio: 0.06,
                signature_ops: vec![(BinOp::Mul, 20), (BinOp::Sar, 12)],
                rmw_bias: 0.25,
                ..base
            },
            Benchmark::Omnetpp => Profile {
                call_ratio: 0.05,
                high_var_ratio: 0.24,
                signature_ops: vec![(BinOp::Shl, 16), (BinOp::Sub, 14)],
                imm_bias: 0.70,
                rmw_bias: 0.25,
                ..base
            },
            Benchmark::Astar => Profile {
                mem_ratio: 0.28,
                shifted_ratio: 0.08,
                signature_ops: vec![(BinOp::Shr, 18)],
                rmw_bias: 0.25,
                imm_bias: 0.65,
                ..base
            },
            Benchmark::Bzip2 => Profile {
                mem_ratio: 0.28,
                shifted_ratio: 0.12,
                signature_ops: vec![(BinOp::Shr, 16), (BinOp::And, 12)],
                imm_bias: 0.70,
                ..base
            },
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tunable workload characteristics.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Which benchmark this profiles.
    pub bench: Benchmark,
    /// Weighted binary-operator mix (diversity is the `h264ref` knob).
    pub op_weights: Vec<(BinOp, u32)>,
    /// Fraction of statements that touch memory.
    pub mem_ratio: f64,
    /// Fraction of statements that are function calls.
    pub call_ratio: f64,
    /// Fraction of statements that open a forward-branch `if` group.
    pub if_ratio: f64,
    /// Fraction of ALU statements using the shifted-register mode.
    pub shifted_ratio: f64,
    /// Fraction of statements that are unary (`mov`/`mvn`/`neg`).
    pub unary_ratio: f64,
    /// Fraction of statements using frame-slot (unmappable) variables.
    pub high_var_ratio: f64,
    /// Fraction of statements forming flag-coupled groups (fused
    /// S-instruction + conditional branch).
    pub flag_coupled_ratio: f64,
    /// Fraction of statements using the special `mla`/`clz` intrinsics
    /// (the unlearnables).
    pub special_ratio: f64,
    /// Benchmark-signature operators mixed into the hot statement
    /// sampler: each benchmark leans on operators (and operand shapes)
    /// that the *other* eleven rarely emit, so leave-one-out training
    /// misses them — the uncovered tail that parameterization recovers
    /// (paper §II-B: 1178 add rules, 34 eor, none for rsc).
    pub signature_ops: Vec<(BinOp, u32)>,
    /// Probability that an ALU statement is read-modify-write
    /// (`dst == a`); varying it shifts the dependence-pattern mix the
    /// addressing-mode dimension must cover.
    pub rmw_bias: f64,
    /// Probability that an ALU second operand is an immediate.
    pub imm_bias: f64,
    /// Iterations of each hot inner loop.
    pub hot_loop_iters: u32,
    /// Iterations of the entry function's outer loop.
    pub outer_iters: u32,
    /// Debug-map imprecision (funnel calibration).
    pub degrade: DegradeProfile,
}

/// Workload scale: divides the paper's statement counts so the learning
/// pipeline stays fast while preserving relative benchmark sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// The divisor applied to Table I statement counts.
    pub divisor: usize,
    /// Cap on statements per benchmark after division.
    pub cap: usize,
}

impl Scale {
    /// Benchmark-quality scale (hundreds of statements per program).
    #[must_use]
    pub fn full() -> Scale {
        Scale {
            divisor: 100,
            cap: 1_500,
        }
    }

    /// Test-quality scale (dozens of statements).
    #[must_use]
    pub fn tiny() -> Scale {
        Scale {
            divisor: 1_000,
            cap: 150,
        }
    }

    /// The scale called `name`: `tiny` or `full`, nothing else.
    pub fn from_name(name: &str) -> Result<Scale, String> {
        match name {
            "tiny" => Ok(Scale::tiny()),
            "full" => Ok(Scale::full()),
            other => Err(format!("unknown scale `{other}` (want tiny|full)")),
        }
    }

    /// The statement budget for a benchmark.
    #[must_use]
    pub fn statements(&self, b: Benchmark) -> usize {
        (b.paper_statements() / self.divisor).clamp(40, self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_benchmarks_with_table1_counts() {
        assert_eq!(Benchmark::ALL.len(), 12);
        let total: usize = Benchmark::ALL.iter().map(|b| b.paper_statements()).sum();
        // Table I's (rounded) average row says 28 864.
        assert_eq!(total / 12, 28_864);
    }

    #[test]
    fn profiles_encode_paper_anomalies() {
        let h264 = Benchmark::H264ref.profile();
        let libq = Benchmark::Libquantum.profile();
        let gcc = Benchmark::Gcc.profile();
        assert!(
            h264.op_weights.len() < gcc.op_weights.len(),
            "h264ref: few opcode types"
        );
        assert!(
            libq.flag_coupled_ratio > gcc.flag_coupled_ratio,
            "libquantum: flag-coupled"
        );
        assert!(
            libq.op_weights
                .iter()
                .any(|(op, w)| *op == BinOp::Xor && *w >= 40),
            "libquantum: eor-dominated"
        );
        assert!(gcc.call_ratio > h264.call_ratio, "gcc: call heavy");
    }

    #[test]
    fn scale_respects_relative_sizes() {
        let s = Scale::full();
        assert!(s.statements(Benchmark::Gcc) > s.statements(Benchmark::Mcf));
        assert!(s.statements(Benchmark::Mcf) >= 40);
        assert!(Scale::tiny().statements(Benchmark::Gcc) <= 150);
    }

    #[test]
    fn seeds_are_distinct() {
        let mut seeds: Vec<u64> = Benchmark::ALL.iter().map(|b| b.seed()).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 12);
    }
}
