use super::*;
use crate::engine::{Engine, EngineConfig, RunSetup};
use pdbt_compiler::lang::{
    BinOp, CmpKind, Function, Label, Rvalue, SourceProgram, Stmt, UnOp, Var,
};
use pdbt_compiler::{build_debug_map, compile_pair};
use pdbt_core::derive::{derive, DeriveConfig};
use pdbt_core::learning::{learn_into, LearnConfig};
use pdbt_core::RuleSet;
use pdbt_isa_arm::Cpu as GuestCpu;
use pdbt_isa_x86::Reg as HReg;
use pdbt_symexec::CheckOptions;

/// A training program rich enough to seed the main subgroups.
fn training_source() -> SourceProgram {
    let c = Rvalue::Const;
    let v = |i: u8| Rvalue::Var(Var(i));
    let stmts = vec![
        Stmt::Un {
            dst: Var(0),
            op: UnOp::Mov,
            a: c(100),
        },
        Stmt::Un {
            dst: Var(1),
            op: UnOp::Mov,
            a: c(7),
        },
        Stmt::Bin {
            dst: Var(0),
            op: BinOp::Add,
            a: v(0),
            b: v(1),
        },
        Stmt::Bin {
            dst: Var(2),
            op: BinOp::Sub,
            a: v(0),
            b: c(3),
        },
        Stmt::Bin {
            dst: Var(2),
            op: BinOp::And,
            a: v(2),
            b: c(255),
        },
        // Memory (base address = 0x10_0000 via shift).
        Stmt::Un {
            dst: Var(3),
            op: UnOp::Mov,
            a: c(0x100),
        },
        Stmt::Bin {
            dst: Var(3),
            op: BinOp::Shl,
            a: v(3),
            b: c(12),
        },
        Stmt::Store {
            src: Var(2),
            base: Var(3),
            offset: 4,
            width: pdbt_isa::Width::B32,
        },
        Stmt::Load {
            dst: Var(1),
            base: Var(3),
            offset: 4,
            width: pdbt_isa::Width::B32,
        },
        // Compare seed.
        Stmt::Branch {
            a: Var(0),
            cmp: CmpKind::LtS,
            b: c(0),
            target: Label(0),
        },
        Stmt::Define { label: Label(0) },
        Stmt::Output { a: Var(1) },
        Stmt::Return,
    ];
    SourceProgram {
        functions: vec![Function {
            name: "train".into(),
            stmts,
            n_vars: 4,
        }],
    }
}

fn learn_rules() -> RuleSet {
    let pair = compile_pair(&training_source(), 0x1000).unwrap();
    let debug = build_debug_map(&pair.guest, &pair.host);
    let mut rules = RuleSet::new();
    learn_into(&mut rules, &pair, &debug, LearnConfig::default());
    assert!(
        rules.len() >= 6,
        "expected a healthy seed set, got {}",
        rules.len()
    );
    rules
}

/// A distinct test program reusing only combos reachable from the
/// training seeds (plus QEMU-path branches/IO).
fn test_program() -> pdbt_isa_arm::Program {
    use pdbt_isa::Cond;
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::{Operand as O, Reg};
    // A loop long enough for block-level register caching to
    // amortize (real blocks are; see the workload suite).
    pdbt_isa_arm::Program::new(
        0x2000,
        vec![
            g::mov(Reg::R4, O::Imm(40)), // 0x2000
            g::mov(Reg::R5, O::Imm(0)),
            // loop: (0x2008)
            g::eor(Reg::R6, Reg::R4, O::Imm(21)), // derived opcode
            g::add(Reg::R5, Reg::R5, O::Reg(Reg::R6)),
            g::and(Reg::R6, Reg::R6, O::Imm(0xff)),
            g::orr(Reg::R5, Reg::R5, O::Imm(1)),
            g::add(Reg::R5, Reg::R5, O::Imm(3)),
            g::eor(Reg::R5, Reg::R5, O::Reg(Reg::R6)),
            g::sub(Reg::R4, Reg::R4, O::Imm(1)).with_s(), // s-variant (delegation)
            g::b(Cond::Ne, -28),
            g::mov(Reg::R0, O::Reg(Reg::R5)),
            g::svc(1),
            g::svc(0),
        ],
    )
}

fn run_config(rules: Option<RuleSet>, delegation: bool) -> crate::Report {
    let mut cfg = EngineConfig::default();
    cfg.translate.flag_delegation = delegation;
    let mut engine = Engine::new(rules, cfg);
    let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
    engine.run(&test_program(), &setup).expect("runs")
}

fn golden_output() -> Vec<u32> {
    let mut cpu = GuestCpu::new();
    cpu.mem.map(0x10_0000, 0x1000);
    cpu.mem.map(0x8_0000, 0x1000);
    cpu.write(pdbt_isa_arm::Reg::Sp, 0x8_1000);
    pdbt_isa_arm::run(&mut cpu, &test_program(), 100_000).unwrap();
    cpu.output
}

#[test]
fn all_configurations_agree_with_the_interpreter() {
    let golden = golden_output();
    let learned = learn_rules();
    let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
    let (opcode_only, _) = derive(
        &learned,
        DeriveConfig::opcode_only(),
        CheckOptions::default(),
    );
    for (name, rules, delegation) in [
        ("qemu", None, true),
        ("learned", Some(learned.clone()), false),
        ("opcode", Some(opcode_only), false),
        ("full", Some(full.clone()), true),
        ("full-no-delegation", Some(full), false),
    ] {
        let report = run_config(rules, delegation);
        assert_eq!(report.output, golden, "config {name}");
    }
}

#[test]
fn coverage_orders_across_configurations() {
    let learned = learn_rules();
    let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
    let (oa, _) = derive(
        &learned,
        DeriveConfig::opcode_addrmode(),
        CheckOptions::default(),
    );
    let qemu = run_config(None, true).metrics;
    let base = run_config(Some(learned), false).metrics;
    let mid = run_config(Some(oa), false).metrics;
    let top = run_config(Some(full), true).metrics;
    assert_eq!(qemu.coverage(), 0.0);
    assert!(base.coverage() > 0.0, "learned rules cover something");
    assert!(
        mid.coverage() >= base.coverage(),
        "{} vs {}",
        mid.coverage(),
        base.coverage()
    );
    assert!(
        top.coverage() > mid.coverage(),
        "delegation adds the branch+s coverage"
    );
    assert!(
        top.coverage() > 0.8,
        "full config covers most of the loop: {}",
        top.coverage()
    );
}

#[test]
fn performance_proxy_orders_across_configurations() {
    let learned = learn_rules();
    let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
    let qemu = run_config(None, true).metrics;
    let top = run_config(Some(full), true).metrics;
    assert!(
        top.host_executed() < qemu.host_executed(),
        "parameterized DBT executes fewer host instructions: {} vs {}",
        top.host_executed(),
        qemu.host_executed()
    );
    assert!(top.total_ratio() < qemu.total_ratio());
}

#[test]
fn attribution_decomposes_coverage_exactly() {
    let learned = learn_rules();
    let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
    let cfg = TranslateConfig::default();
    for start in [0x2000u32, 0x2008, 0x2028] {
        let block = translate_block(&test_program(), start, Some(&full), &cfg).unwrap();
        let sum: u32 = block.attributions.iter().map(|a| a.covered).sum();
        assert_eq!(sum, block.rule_covered, "block {start:#x}");
        for a in &block.attributions {
            assert!(!a.label.is_empty());
            assert!(!a.subgroup.is_empty(), "label {} has a subgroup", a.label);
        }
    }
    // The loop block delegates its terminal bne to the subs producer
    // one instruction back.
    let block = translate_block(&test_program(), 0x2008, Some(&full), &cfg).unwrap();
    assert_eq!(block.deleg, Some(DelegOutcome::Delegated(1)));
    assert!(block
        .attributions
        .iter()
        .any(|a| a.label.contains("delegated")));
    // Without rules every body instruction of the loop is a miss —
    // but only when a rule set is installed.
    let qemu = translate_block(&test_program(), 0x2008, None, &cfg).unwrap();
    assert!(qemu.attributions.is_empty());
    assert!(qemu.lookup_misses.is_empty());
    assert_eq!(qemu.rule_covered, 0);
}

#[test]
fn undelegated_conditional_exit_reports_env_fallback() {
    let learned = learn_rules();
    let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
    let cfg = TranslateConfig {
        window: 0,
        ..TranslateConfig::default()
    };
    // With a zero look-ahead window the producer (distance 1) is out
    // of range, so the branch reads environment flags.
    let block = translate_block(&test_program(), 0x2008, Some(&full), &cfg).unwrap();
    assert_eq!(block.deleg, Some(DelegOutcome::EnvFallback));
}

#[test]
fn delegated_branch_skips_env_flags() {
    let learned = learn_rules();
    let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
    let cfg = TranslateConfig::default();
    // The loop body block at 0x2008 (seven ALU ops + bne).
    let block = translate_block(&test_program(), 0x2008, Some(&full), &cfg).unwrap();
    assert_eq!(block.guest_len, 8);
    assert_eq!(block.rule_covered, 8, "subs delegated into bne");
    // No environment flag reads in the emitted code.
    let flag_addrs: Vec<i32> = pdbt_isa::Flag::ALL
        .iter()
        .map(|f| pdbt_ir::env::flag_offset(*f))
        .collect();
    for inst in &block.code {
        for o in &inst.operands {
            if let pdbt_isa_x86::Operand::Mem(m) = o {
                if m.base == Some(HReg::Ebp) {
                    assert!(
                        !flag_addrs.contains(&m.disp),
                        "unexpected env flag access in {inst}"
                    );
                }
            }
        }
    }
}

#[test]
fn without_delegation_subs_is_not_rule_covered() {
    // Without delegation the s-variant is not derivable, so the
    // producer goes through the QEMU path; TCG-style folding still
    // branches directly, but neither the subs nor the bne count as
    // rule-covered.
    let learned = learn_rules();
    let (oa, _) = derive(
        &learned,
        DeriveConfig::opcode_addrmode(),
        CheckOptions::default(),
    );
    let cfg = TranslateConfig {
        flag_delegation: false,
        ..TranslateConfig::default()
    };
    let block = translate_block(&test_program(), 0x2008, Some(&oa), &cfg).unwrap();
    assert!(
        block.rule_covered + 2 <= block.guest_len,
        "subs and bne stay emulated: {}/{}",
        block.rule_covered,
        block.guest_len
    );
}

#[test]
fn distant_producer_branch_reads_env_flags() {
    // When another instruction separates the flag producer from the
    // branch AND clobbers host flags, the branch must evaluate the
    // guest condition from the environment.
    use pdbt_isa::Cond;
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::{Operand as O, Reg};
    let prog = pdbt_isa_arm::Program::new(
        0x3000,
        vec![
            g::sub(Reg::R4, Reg::R4, O::Imm(1)).with_s(),
            g::add(Reg::R5, Reg::R5, O::Imm(3)), // clobbers host flags
            g::b(Cond::Ne, -8),
            g::svc(0),
        ],
    );
    let cfg = TranslateConfig {
        flag_delegation: false,
        ..TranslateConfig::default()
    };
    let block = translate_block(&prog, 0x3000, None, &cfg).unwrap();
    let z_off = pdbt_ir::env::flag_offset(pdbt_isa::Flag::Z);
    let reads_z = block.code.iter().any(|i| {
        i.operands.iter().any(
            |o| matches!(o, pdbt_isa_x86::Operand::Mem(m) if m.base == Some(HReg::Ebp) && m.disp == z_off),
        )
    });
    assert!(reads_z, "env Z flag consulted by the branch");
    // And execution agrees with the interpreter.
    let mut engine = Engine::new(None, EngineConfig::default());
    let mut setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
    setup.regs[4] = 5;
    let report = engine.run(&prog, &setup).unwrap();
    let mut cpu = pdbt_isa_arm::Cpu::new();
    cpu.write(Reg::R4, 5);
    pdbt_isa_arm::run(&mut cpu, &prog, 1000).unwrap();
    assert_eq!(report.output, cpu.output);
}

#[test]
fn traces_of_fewer_than_two_members_are_errors_not_panics() {
    let cfg = TranslateConfig::default();
    for members in [&[][..], &[0x2008][..]] {
        let err = translate_trace(&test_program(), members, None, &cfg).unwrap_err();
        assert!(err.detail.contains("at least two members"), "{err}");
    }
}

/// The solver is private to `pdbt-isa-arm` and its memo cell cannot
/// be re-initialised (the `cfg(test)` solve counter lives there,
/// with the solver), so what is checked here is the translator's
/// side: every block and trace translation of one program value,
/// on any thread and through a clone, reads the one memo, and the
/// result equals a translation that paid for its own solve.
#[test]
fn every_translation_of_a_program_shares_one_liveness_solve() {
    let learned = learn_rules();
    let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
    let cfg = TranslateConfig::default();
    let prog = test_program();
    let clone = prog.clone();
    let starts: Vec<Addr> = (0..prog.len()).map(|i| prog.addr_of(i)).collect();
    let translate_all = |p: &pdbt_isa_arm::Program| -> Vec<TranslatedBlock> {
        let mut out: Vec<TranslatedBlock> = starts
            .iter()
            .map(|s| translate_block(p, *s, Some(&full), &cfg).unwrap())
            .collect();
        out.push(translate_trace(p, &[0x2008, 0x2008], Some(&full), &cfg).unwrap());
        out
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| translate_all(&prog));
        let b = s.spawn(|| translate_all(&clone));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(std::ptr::eq(prog.flag_liveness(), clone.flag_liveness()));
    assert_eq!(a, b);
    for (i, start) in starts.iter().enumerate() {
        let fresh = test_program();
        assert_eq!(
            translate_block(&fresh, *start, Some(&full), &cfg).unwrap(),
            a[i]
        );
    }
}

#[test]
fn block_collection_stops_at_branches() {
    let prog = test_program();
    let b = collect_block(&prog, 0x2000, 32).unwrap();
    assert_eq!(b.len(), 2 + 8, "up to and including bne");
    let b = collect_block(&prog, 0x2028, 32).unwrap();
    assert_eq!(b.len(), 3, "mov/svc1 continue, svc0 terminates");
}

mod seq_tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig, RunSetup};
    use pdbt_core::classify::subgroup_of;
    use pdbt_core::learning::LearnConfig;
    use pdbt_core::ruleset::{verify_seq, Provenance, RuleEntry};
    use pdbt_core::{key, load_rules, template, RuleSet};
    use pdbt_isa::Cond;
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::{Operand as O, Reg};
    use pdbt_isa_x86::builders as h;
    use pdbt_isa_x86::Reg as HReg;
    use pdbt_symexec::CheckOptions;

    /// Hand-build one sequence rule: `mov rA, #k; add rB, rB, rA`
    /// collapses into a single `addl`.
    fn seq_rule_set() -> RuleSet {
        let seq = [
            g::mov(Reg::R4, O::Imm(5)),
            g::add(Reg::R5, Reg::R5, O::Reg(Reg::R4)),
        ];
        let (keys, concrete) = key::parameterize_seq(&seq).unwrap();
        // Host: movl S0, $I0; addl S1, S0 — the learned pair shape.
        let host = [
            h::mov(HReg::Ecx.into(), pdbt_isa_x86::Operand::Imm(5)),
            h::add(HReg::Ebx.into(), HReg::Ecx.into()),
        ];
        let slot_of = |r: HReg| match r {
            HReg::Ecx => Some(0u8),
            HReg::Ebx => Some(1),
            _ => None,
        };
        let tmpl = template::extract(&host, &slot_of, &concrete.imms).unwrap();
        let flags = verify_seq(&keys, &tmpl, CheckOptions::default()).unwrap();
        let mut rs = RuleSet::new();
        assert!(rs.insert(
            keys,
            RuleEntry {
                template: tmpl,
                flags,
                provenance: Provenance::Learned,
                imm_constraint: None
            },
        ));
        rs
    }

    #[test]
    fn sequence_rule_matches_and_counts_coverage() {
        let rules = seq_rule_set();
        let prog = pdbt_isa_arm::Program::new(
            0x1000,
            vec![
                g::mov(Reg::R8, O::Imm(42)),               // single inst: no rule
                g::mov(Reg::R6, O::Imm(9)),                // seq part 1 (fresh regs)
                g::add(Reg::R7, Reg::R7, O::Reg(Reg::R6)), // seq part 2
                g::svc(0),
            ],
        );
        let block =
            translate_block(&prog, 0x1000, Some(&rules), &TranslateConfig::default()).unwrap();
        assert_eq!(block.guest_len, 4);
        assert_eq!(
            block.rule_covered, 2,
            "the sequence covers two guest instructions"
        );
        // And it executes correctly.
        let mut engine = Engine::new(Some(rules), EngineConfig::default());
        let mut setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        setup.regs[7] = 100;
        let mut prog2 = prog.insts().to_vec();
        prog2.insert(3, g::mov(Reg::R0, O::Reg(Reg::R7)));
        prog2.insert(4, g::svc(1));
        let prog2 = pdbt_isa_arm::Program::new(0x1000, prog2);
        let report = engine.run(&prog2, &setup).unwrap();
        assert_eq!(report.output, vec![109]);
    }

    /// One failure policy at every key length: a rule whose template
    /// instantiates to an invalid host instruction costs the instruction
    /// its rule — a counted lookup miss, translated through the IR — not
    /// the block its translation.
    #[test]
    fn a_rule_that_fails_to_instantiate_is_a_miss_not_an_error() {
        // `addl $I0, S0`: an immediate destination, whatever S0 is.
        let mut rules = load_rules(
            "rule add|s=0|modes=reg,reg,imm|pat=0,0|prov=L|flags=|imms=*\n  addl $I0, S0\nend\n",
        )
        .expect("well-formed and arity-consistent");
        rules.merge(seq_rule_set());
        let prog = pdbt_isa_arm::Program::new(
            0x1000,
            vec![
                g::add(Reg::R0, Reg::R0, O::Imm(7)),
                g::mov(Reg::R6, O::Imm(9)),
                g::add(Reg::R0, Reg::R0, O::Reg(Reg::R6)),
                g::svc(1),
                g::svc(0),
            ],
        );
        let bad = key::parameterize(&prog.insts()[0]).unwrap().key;
        assert!(rules.lookup(&prog.insts()[0]).is_some(), "the rule matches");
        let block =
            translate_block(&prog, 0x1000, Some(&rules), &TranslateConfig::default()).unwrap();
        assert_eq!(
            block.rule_covered, 2,
            "only the healthy sequence rule covers"
        );
        assert!(block
            .attributions
            .iter()
            .all(|a| a.label.starts_with("seq[")));
        assert!(block.lookup_misses.contains(&bad.to_string()));
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        let report = Engine::new(Some(rules), EngineConfig::default())
            .run(&prog, &setup)
            .unwrap();
        let mut cpu = pdbt_isa_arm::Cpu::new();
        pdbt_isa_arm::run(&mut cpu, &prog, 1000).unwrap();
        assert_eq!(report.output, cpu.output);
        assert_eq!(report.output, vec![16]);
    }

    /// An attribution's label and subgroup are the rule set's own
    /// strings — one `Arc` per rule, however often it applies — and read
    /// exactly as they did when every application formatted its own.
    #[test]
    fn attribution_labels_are_shared_per_rule_and_read_as_before() {
        use pdbt_isa_arm::Op;
        let mut rules = load_rules(
            "rule add|s=0|modes=reg,reg,imm|pat=0,0|prov=L|flags=|imms=*\n  addl S0, $I0\nend\n\
             rule sub|s=1|modes=reg,reg,imm|pat=0,0|prov=L|flags=N:E,Z:E,C:I,V:E|imms=*\n  \
             subl S0, $I0\nend\n",
        )
        .expect("well-formed");
        rules.merge(seq_rule_set());
        let prog = pdbt_isa_arm::Program::new(
            0x1000,
            vec![
                g::add(Reg::R0, Reg::R0, O::Imm(7)),
                g::add(Reg::R1, Reg::R1, O::Imm(9)), // the same rule again
                g::mov(Reg::R6, O::Imm(9)),          // seq part 1
                g::add(Reg::R2, Reg::R2, O::Reg(Reg::R6)), // seq part 2
                g::sub(Reg::R3, Reg::R3, O::Imm(1)).with_s(),
                g::b(Cond::Ne, -20),
                g::svc(0),
            ],
        );
        let block =
            translate_block(&prog, 0x1000, Some(&rules), &TranslateConfig::default()).unwrap();
        // The texts, formatted here the way each application used to.
        let key = |i: usize| key::parameterize(&prog.insts()[i]).unwrap().key;
        let (seq, _) = key::parameterize_seq(&prog.insts()[2..4]).unwrap();
        let subgroup = |op: Op| subgroup_of(op).to_string();
        let expected = [
            (key(0).to_string(), subgroup(Op::Add), 1),
            (key(1).to_string(), subgroup(Op::Add), 1),
            (
                format!("seq[{} + {}]", seq[0], seq[1]),
                subgroup(Op::Mov),
                2,
            ),
            (key(4).to_string(), subgroup(Op::Sub), 1),
            ("bne (delegated)".to_string(), subgroup(Op::B), 1),
        ];
        let got: Vec<(String, String, u32)> = block
            .attributions
            .iter()
            .map(|a| (a.label.to_string(), a.subgroup.to_string(), a.covered))
            .collect();
        assert_eq!(got, expected);
        let (first, second) = (&block.attributions[0], &block.attributions[1]);
        assert!(Arc::ptr_eq(&first.label, &second.label));
        assert!(Arc::ptr_eq(&first.subgroup, &second.subgroup));
        let m = rules.lookup(&prog.insts()[0]).expect("the add rule");
        assert!(Arc::ptr_eq(m.label, &first.label), "and they are the set's");
    }

    #[test]
    fn sequence_rules_are_learned_from_merged_candidates() {
        // Force merge-everything debug maps so multi-statement candidates
        // dominate, then check sequence rules appear.
        use pdbt_compiler::lang::*;
        let src = SourceProgram {
            functions: vec![Function {
                name: "m".into(),
                stmts: vec![
                    Stmt::Un {
                        dst: Var(0),
                        op: UnOp::Mov,
                        a: Rvalue::Const(3),
                    },
                    Stmt::Bin {
                        dst: Var(2),
                        op: BinOp::Add,
                        a: Rvalue::Var(Var(2)),
                        b: Rvalue::Var(Var(0)),
                    },
                    Stmt::Bin {
                        dst: Var(3),
                        op: BinOp::Xor,
                        a: Rvalue::Var(Var(3)),
                        b: Rvalue::Const(9),
                    },
                    Stmt::Return,
                ],
                n_vars: 4,
            }],
        };
        let pair = pdbt_compiler::compile_pair(&src, 0x1000).unwrap();
        let accurate = pdbt_compiler::build_debug_map(&pair.guest, &pair.host);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let degraded = pdbt_compiler::degrade(
            &accurate,
            pdbt_compiler::DegradeProfile {
                drop: 0.0,
                merge: 1.0,
                skew: 0.0,
            },
            &mut rng,
        );
        let mut rules = RuleSet::new();
        let stats =
            pdbt_core::learning::learn_into(&mut rules, &pair, &degraded, LearnConfig::default());
        assert!(rules.seq_len() > 0, "sequence rules learned: {stats:?}");
    }
}
