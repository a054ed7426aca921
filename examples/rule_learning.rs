//! The learning + parameterization pipeline, step by step (paper
//! Figs 1, 3, 5): compile one source program for both ISAs, extract and
//! verify rule candidates, then derive rules for opcodes and addressing
//! modes that were never in the training set.
//!
//! ```sh
//! cargo run --release --example rule_learning
//! ```

use pdbt::compiler::lang::*;
use pdbt::compiler::{build_debug_map, compile_pair};
use pdbt::core::derive::{derive, DeriveConfig};
use pdbt::core::learning::{learn_into, LearnConfig};
use pdbt::core::RuleSet;
use pdbt::isa::Width;
use pdbt_isa_arm::{builders as g, Operand as O, Reg};
use pdbt_symexec::CheckOptions;

fn main() {
    // 1. A tiny "training program" — note it only ever uses `add`.
    let src = SourceProgram {
        functions: vec![Function {
            name: "train".into(),
            stmts: vec![
                Stmt::Un {
                    dst: Var(0),
                    op: UnOp::Mov,
                    a: Rvalue::Const(0x100),
                },
                Stmt::Bin {
                    dst: Var(0),
                    op: BinOp::Shl,
                    a: Rvalue::Var(Var(0)),
                    b: Rvalue::Const(12),
                },
                Stmt::Bin {
                    dst: Var(2),
                    op: BinOp::Add,
                    a: Rvalue::Var(Var(2)),
                    b: Rvalue::Var(Var(3)),
                },
                Stmt::Bin {
                    dst: Var(3),
                    op: BinOp::Add,
                    a: Rvalue::Var(Var(2)),
                    b: Rvalue::Const(7),
                },
                Stmt::Load {
                    dst: Var(2),
                    base: Var(0),
                    offset: 8,
                    width: Width::B32,
                },
                Stmt::Store {
                    src: Var(3),
                    base: Var(0),
                    offset: 12,
                    width: Width::B32,
                },
                Stmt::Return,
            ],
            n_vars: 4,
        }],
    };
    let pair = compile_pair(&src, 0x1000).expect("compiles");
    println!("guest binary:\n{}", pair.guest.program.disassemble());

    // 2. Learn: pair per-statement sequences via the debug map, verify
    //    with symbolic execution, merge.
    let debug = build_debug_map(&pair.guest, &pair.host);
    let mut rules = RuleSet::new();
    let stats = learn_into(&mut rules, &pair, &debug, LearnConfig::default());
    println!(
        "learning funnel: {} statements -> {} candidates -> {} learned -> {} unique",
        stats.statements, stats.candidates, stats.learned, stats.unique
    );
    // One table: a rule's key is one combo key per guest instruction.
    for (keys, entry) in rules.entries() {
        let key: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        let tmpl: Vec<String> = entry.template.iter().map(|t| t.to_string()).collect();
        println!(
            "  learned rule  {}   =>   {}",
            key.join(" + "),
            tmpl.join("; ")
        );
    }

    // 3. Parameterize (paper Fig 3): the add rules derive eor/sub/orr/…
    //    rules for opcodes never seen in training.
    let (full, dstats) = derive(&rules, DeriveConfig::full(), CheckOptions::default());
    println!(
        "\nparameterization: {} learned -> {} applicable ({} derived, {} rejected by verification)",
        dstats.learned, dstats.instantiated, dstats.derived, dstats.rejected
    );

    for inst in [
        g::eor(Reg::R9, Reg::R9, O::Reg(Reg::R10)), // opcode dimension
        g::sub(Reg::R4, Reg::R5, O::Imm(3)),        // opcode + addressing mode
        g::bic(Reg::R4, Reg::R4, O::Reg(Reg::R5)),  // complex pair (aux not)
        g::rsb(Reg::R4, Reg::R5, O::Imm(0)),        // swapped-source pair
        g::ldrb(
            Reg::R4,
            pdbt_isa_arm::MemAddr::BaseReg {
                base: Reg::R5,
                index: Reg::R6,
            },
        ),
        g::cmp(Reg::R4, O::Imm(10)),
        g::mla(Reg::R4, Reg::R5, Reg::R6, Reg::R7), // unlearnable → none
    ] {
        match full.lookup(&inst) {
            Some(m) => {
                let tmpl: Vec<String> = m.entry.template.iter().map(|t| t.to_string()).collect();
                println!(
                    "  {:<24} -> {:?}: {}",
                    inst.to_string(),
                    m.entry.provenance,
                    tmpl.join("; ")
                );
            }
            None => println!("  {:<24} -> no rule (emulated)", inst.to_string()),
        }
    }
}
