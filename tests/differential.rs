//! Randomized differential testing: random guest programs must behave
//! identically on the reference interpreter, the QEMU-path DBT, and the
//! fully parameterized DBT.
//!
//! This is the runtime-correctness backstop for the whole stack: any
//! unsound rule derivation, mis-instantiated template, broken flag
//! delegation or translator bug shows up as an output divergence.
//!
//! Originally written with `proptest`; the offline build environment has
//! no crates.io access, so the strategies are hand-rolled samplers over
//! the deterministic in-tree PRNG (`pdbt-rng`, aliased as `rand`).

use common::{body_inst, body_reg, loop_program, op2, DATA_BASE};
use pdbt::arm::{builders as g, Inst, Operand, Program, Reg};
use pdbt::core::derive::{derive, DeriveConfig};
use pdbt::core::RuleSet;
use pdbt::runtime::{Engine, EngineConfig, RunSetup};
use pdbt::workloads::{learn_suite, Benchmark, Scale};
use pdbt_symexec::CheckOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

mod common;

/// Honour FUZZ_CASES when set; default to a CI-friendly 48.
fn cases() -> usize {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// A parameterized rule set trained once for the whole run.
fn rules() -> &'static RuleSet {
    static RULES: OnceLock<RuleSet> = OnceLock::new();
    RULES.get_or_init(|| {
        let suite = pdbt::workloads::suite(Scale::tiny());
        let learned = learn_suite(&suite, Some(Benchmark::Mcf));
        let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        full
    })
}

/// A body engineered to defeat condition-flag delegation: one flag
/// producer, then more intervening ALU instructions than the
/// delegation window tolerates before the conditional consumer. Non-S
/// guest ALU ops still lower to flag-clobbering host arithmetic, so
/// the translator must fall back to flags materialized in the
/// environment — the path the plain samplers rarely reach.
fn flag_fallback_body(rng: &mut StdRng) -> Vec<Inst> {
    let mut body = vec![match rng.gen_range(0..4) {
        0 => g::cmp(body_reg(rng), op2(rng)),
        1 => g::tst(body_reg(rng), op2(rng)),
        2 => g::sub(body_reg(rng), body_reg(rng), op2(rng)).with_s(),
        _ => g::add(body_reg(rng), body_reg(rng), op2(rng)).with_s(),
    }];
    type B = fn(Reg, Reg, Operand) -> Inst;
    const CLOBBER: [B; 6] = [g::add, g::sub, g::and, g::orr, g::eor, g::bic];
    for _ in 0..rng.gen_range(4..9) {
        body.push(CLOBBER[rng.gen_range(0..6)](
            body_reg(rng),
            body_reg(rng),
            op2(rng),
        ));
    }
    body
}

/// A program: base-pointer setup, seeded registers, a body with an
/// optional conditional forward skip, then every body register emitted.
fn program(body: Vec<Inst>, seeds: Vec<u32>, branch_at: Option<(usize, u8)>) -> Program {
    let mut insts = vec![
        g::mov(Reg::R1, Operand::Imm(DATA_BASE >> 12)),
        g::lsl(Reg::R1, Reg::R1, Operand::Imm(12)),
    ];
    for (i, v) in seeds.iter().enumerate() {
        insts.push(g::mov(Reg::from_index(4 + i).unwrap(), Operand::Imm(*v)));
    }
    let body_len = body.len();
    for (i, inst) in body.into_iter().enumerate() {
        if let Some((at, cond_idx)) = branch_at {
            if i == at && at + 2 < body_len {
                // Skip forward over two instructions (always in range).
                let cond = pdbt_isa::Cond::ALL[(cond_idx as usize) % 14];
                insts.push(g::b(cond, 12));
            }
        }
        insts.push(inst);
    }
    for i in 4..12 {
        insts.push(g::mov(Reg::R0, Operand::Reg(Reg::from_index(i).unwrap())));
        insts.push(g::svc(1));
    }
    insts.push(g::svc(0));
    Program::new(0x1000, insts)
}

fn run_reference(prog: &Program) -> Vec<u32> {
    let mut cpu = pdbt::arm::Cpu::new();
    cpu.mem.map(DATA_BASE, 0x1000);
    cpu.mem.map(0x8_0000, 0x1000);
    cpu.write(Reg::Sp, 0x8_1000);
    pdbt::arm::run(&mut cpu, prog, 100_000).expect("reference run");
    cpu.output
}

fn run_engine(prog: &Program, rules: Option<RuleSet>) -> Vec<u32> {
    let mut engine = Engine::new(rules, EngineConfig::default());
    let setup = RunSetup::basic(DATA_BASE, 0x1000, 0x8_0000, 0x1000);
    engine.run(prog, &setup).expect("engine run").output
}

#[test]
fn random_programs_agree_across_translators() {
    let mut rng = StdRng::seed_from_u64(0xD1FF01);
    for _ in 0..cases() {
        let body: Vec<Inst> = (0..rng.gen_range(1..24))
            .map(|_| body_inst(&mut rng))
            .collect();
        let seeds: Vec<u32> = (0..8).map(|_| rng.gen_range(0u32..2048)).collect();
        let branch = rng
            .gen_bool(0.5)
            .then(|| (rng.gen_range(0usize..20), rng.gen_range(0..=u8::MAX)));
        let prog = program(body, seeds, branch);
        let golden = run_reference(&prog);
        let qemu = run_engine(&prog, None);
        assert_eq!(&qemu, &golden, "qemu path diverged");
        let para = run_engine(&prog, Some(rules().clone()));
        assert_eq!(&para, &golden, "parameterized path diverged");
    }
}

#[test]
fn flag_fallback_blocks_agree_across_translators() {
    use pdbt::runtime::{translate_block, DelegOutcome, TranslateConfig};
    let mut rng = StdRng::seed_from_u64(0xD1FF03);
    let mut fallbacks = 0usize;
    for _ in 0..cases() {
        let mut body = flag_fallback_body(&mut rng);
        let branch_at = body.len();
        for _ in 0..3 {
            body.push(body_inst(&mut rng));
        }
        let seeds: Vec<u32> = (0..8).map(|_| rng.gen_range(0u32..2048)).collect();
        let cond_idx = rng.gen_range(0..=u8::MAX);
        let prog = program(body, seeds, Some((branch_at, cond_idx)));
        let block = translate_block(&prog, 0x1000, Some(rules()), &TranslateConfig::default())
            .expect("block translates");
        if block.deleg == Some(DelegOutcome::EnvFallback) {
            fallbacks += 1;
        }
        let golden = run_reference(&prog);
        let qemu = run_engine(&prog, None);
        assert_eq!(&qemu, &golden, "qemu path diverged");
        let para = run_engine(&prog, Some(rules().clone()));
        assert_eq!(&para, &golden, "parameterized path diverged");
    }
    // The bias must actually land on the fallback path, not merely be
    // named after it.
    assert!(
        fallbacks * 2 > cases(),
        "sampler missed the delegation fallback: {fallbacks}/{} cases",
        cases()
    );
}

#[test]
fn random_loops_agree_across_translators() {
    let mut rng = StdRng::seed_from_u64(0xD1FF02);
    for _ in 0..cases() {
        let body: Vec<Inst> = (0..rng.gen_range(1..12))
            .map(|_| body_inst(&mut rng))
            .collect();
        let seeds: Vec<u32> = (0..8).map(|_| rng.gen_range(0u32..2048)).collect();
        let iters = rng.gen_range(1u32..20);
        let prog = loop_program(body, seeds, iters);
        let golden = run_reference(&prog);
        let qemu = run_engine(&prog, None);
        assert_eq!(&qemu, &golden, "qemu path diverged");
        let para = run_engine(&prog, Some(rules().clone()));
        assert_eq!(&para, &golden, "parameterized path diverged");
    }
}

/// A from-scratch solve of the flag-liveness equations, written as a
/// plain Jacobi iteration over explicit successor lists — the oracle
/// for [`Program::flag_liveness`]'s memo. Returns the live-in sets and
/// the return join.
fn fresh_flag_liveins(prog: &Program) -> (Vec<pdbt_isa::FlagSet>, pdbt_isa::FlagSet) {
    use pdbt::arm::Op;
    use pdbt_isa::{cond_flag_uses, Cond, FlagSet};
    let insts = prog.insts();
    let n = insts.len();
    let index_of = |addr: u32| -> Option<usize> {
        let off = addr.checked_sub(prog.base())?;
        (off % 4 == 0 && ((off / 4) as usize) < n).then_some((off / 4) as usize)
    };
    let mut live = vec![FlagSet::EMPTY; n];
    let mut ret = FlagSet::EMPTY;
    loop {
        let at = |j: Option<usize>| j.map_or(FlagSet::NZCV, |j| live[j]);
        let next_ret = (0..n.saturating_sub(1))
            .filter(|i| insts[*i].op == Op::Bl)
            .fold(FlagSet::EMPTY, |acc, i| acc | live[i + 1]);
        let next: Vec<FlagSet> = (0..n)
            .map(|i| {
                let inst = &insts[i];
                let fall = at((i + 1 < n).then_some(i + 1));
                let target = || at(index_of(inst.direct_target(prog.addr_of(i)).unwrap()));
                let halts = inst.op == Op::Svc && inst.operands[0].as_imm() == Some(0);
                let (uses, out) = match inst.op {
                    Op::B if inst.cond == Cond::Al => (FlagSet::EMPTY, target()),
                    Op::B => (cond_flag_uses(inst.cond), target() | fall),
                    Op::Bl => (FlagSet::EMPTY, target() | fall),
                    _ if halts => (FlagSet::EMPTY, FlagSet::EMPTY),
                    _ if inst.is_branch() => (inst.flag_uses(), ret),
                    _ => (inst.flag_uses(), fall),
                };
                uses | (out - inst.flag_defs())
            })
            .collect();
        if next == live && next_ret == ret {
            return (live, ret);
        }
        live = next;
        ret = next_ret;
    }
}

#[test]
fn flag_liveness_memo_matches_a_fresh_solve() {
    let check = |prog: &Program, setup: &RunSetup, what: &str| {
        // Run first, so the memo compared is the one translation read.
        let clone = prog.clone();
        Engine::new(Some(rules().clone()), EngineConfig::default())
            .run(prog, setup)
            .expect("engine run");
        let (live_in, ret_live) = fresh_flag_liveins(prog);
        let memo = prog.flag_liveness();
        assert_eq!(memo.live_in(), &live_in[..], "{what}: live-in sets");
        assert_eq!(memo.ret_live(), ret_live, "{what}: return join");
        assert!(
            std::ptr::eq(memo, clone.flag_liveness()),
            "{what}: a clone taken before the first read shares the memo"
        );
    };
    for (scale, name) in [(Scale::tiny(), "tiny"), (Scale::full(), "full")] {
        for w in pdbt::workloads::suite(scale) {
            let what = format!("{}/{name}", w.bench.name());
            check(&w.pair.guest.program, &w.setup(), &what);
        }
    }
    let mut rng = StdRng::seed_from_u64(0xD1FF04);
    for case in 0..cases() {
        let body: Vec<Inst> = (0..rng.gen_range(1..24))
            .map(|_| body_inst(&mut rng))
            .collect();
        let seeds: Vec<u32> = (0..8).map(|_| rng.gen_range(0u32..2048)).collect();
        let prog = if rng.gen_bool(0.5) {
            let branch = (rng.gen_range(0usize..20), rng.gen_range(0..=u8::MAX));
            program(body, seeds, Some(branch))
        } else {
            loop_program(body, seeds, rng.gen_range(1u32..20))
        };
        let setup = RunSetup::basic(DATA_BASE, 0x1000, 0x8_0000, 0x1000);
        check(&prog, &setup, &format!("random case {case}"));
    }
}
