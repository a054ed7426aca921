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
use pdbt_isa::FlagSet;
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

/// A random body with an optional conditional skip.
fn random_program(rng: &mut StdRng) -> Program {
    let body: Vec<Inst> = (0..rng.gen_range(1..24)).map(|_| body_inst(rng)).collect();
    let seeds: Vec<u32> = (0..8).map(|_| rng.gen_range(0u32..2048)).collect();
    let branch = rng
        .gen_bool(0.5)
        .then(|| (rng.gen_range(0usize..20), rng.gen_range(0..=u8::MAX)));
    program(body, seeds, branch)
}

/// A [`flag_fallback_body`], three random instructions, and a
/// conditional skip over them on the producer's flags.
fn fallback_program(rng: &mut StdRng) -> Program {
    let mut body = flag_fallback_body(rng);
    let branch_at = body.len();
    for _ in 0..3 {
        body.push(body_inst(rng));
    }
    let seeds: Vec<u32> = (0..8).map(|_| rng.gen_range(0u32..2048)).collect();
    let cond_idx = rng.gen_range(0..=u8::MAX);
    program(body, seeds, Some((branch_at, cond_idx)))
}

/// A random body run under a loop counter.
fn random_loop(rng: &mut StdRng) -> Program {
    let body: Vec<Inst> = (0..rng.gen_range(1..12)).map(|_| body_inst(rng)).collect();
    let seeds: Vec<u32> = (0..8).map(|_| rng.gen_range(0u32..2048)).collect();
    let iters = rng.gen_range(1u32..20);
    loop_program(body, seeds, iters)
}

/// Either of the two shapes above, for the liveness oracle.
fn liveness_program(rng: &mut StdRng) -> Program {
    let body: Vec<Inst> = (0..rng.gen_range(1..24)).map(|_| body_inst(rng)).collect();
    let seeds: Vec<u32> = (0..8).map(|_| rng.gen_range(0u32..2048)).collect();
    if rng.gen_bool(0.5) {
        let branch = (rng.gen_range(0usize..20), rng.gen_range(0..=u8::MAX));
        program(body, seeds, Some(branch))
    } else {
        loop_program(body, seeds, rng.gen_range(1u32..20))
    }
}

type Sampler = fn(&mut StdRng) -> Program;

/// The sampler streams of the tests below: seed and program builder.
const SAMPLERS: [(u64, Sampler); 4] = [
    (0xD1FF01, random_program),
    (0xD1FF03, fallback_program),
    (0xD1FF02, random_loop),
    (0xD1FF04, liveness_program),
];

#[test]
fn random_programs_agree_across_translators() {
    let mut rng = StdRng::seed_from_u64(0xD1FF01);
    for _ in 0..cases() {
        let prog = random_program(&mut rng);
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
        let prog = fallback_program(&mut rng);
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
        let prog = random_loop(&mut rng);
        let golden = run_reference(&prog);
        let qemu = run_engine(&prog, None);
        assert_eq!(&qemu, &golden, "qemu path diverged");
        let para = run_engine(&prog, Some(rules().clone()));
        assert_eq!(&para, &golden, "parameterized path diverged");
    }
}

/// `vcmp` of a NaN with itself is unordered: N=0 Z=0 C=1 V=1, so `bvc`
/// falls through and the program prints 1. The TCG path once lowered
/// the compare as if NaNs did not occur (V=0) and printed 0.
#[test]
fn unordered_vcmp_agrees_on_the_tcg_path() {
    use pdbt::runtime::BackendKind;
    let listing = "mov r0, #0\nvdiv.f32 s2, s0, s1\nvcmp.f32 s2, s2\nbvc .+8\n\
                   mov r0, #1\nsvc #1\nsvc #0\n";
    let insts = pdbt::arm::parse_listing(listing).expect("listing parses");
    let prog = Program::new(0x1000, insts);
    let golden = run_reference(&prog);
    assert_eq!(golden, vec![1], "0/0 is NaN, and NaN is unordered");
    for backend in [BackendKind::Model, BackendKind::Threaded] {
        let cfg = EngineConfig {
            backend,
            ..EngineConfig::default()
        };
        let setup = RunSetup::basic(DATA_BASE, 0x1000, 0x8_0000, 0x1000);
        let out = Engine::new(None, cfg)
            .run(&prog, &setup)
            .expect("engine run");
        assert_eq!(out.output, golden, "{backend:?}");
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
        let prog = liveness_program(&mut rng);
        let setup = RunSetup::basic(DATA_BASE, 0x1000, 0x8_0000, 0x1000);
        check(&prog, &setup, &format!("random case {case}"));
    }
}

/// An instruction's form: opcode, `s`, condition, and per operand its
/// shape, with registers named by first appearance (`pc` and `sp` by
/// name) so that aliasing is part of the form, a register list by its
/// length, an immediate as `#` (`#0` when zero, its value for `svc`).
fn ir_form(inst: &Inst) -> String {
    use pdbt::arm::{MemAddr, Op};
    let mut seen: Vec<Reg> = Vec::new();
    let mut reg = |r: Reg| match r {
        Reg::Pc => "pc".to_string(),
        Reg::Sp => "sp".to_string(),
        r => {
            if !seen.contains(&r) {
                seen.push(r);
            }
            let i = seen.iter().position(|s| *s == r).unwrap();
            char::from(b'a' + i as u8).to_string()
        }
    };
    let shape: Vec<String> = inst
        .operands
        .iter()
        .map(|o| match *o {
            Operand::Reg(r) => reg(r),
            Operand::Imm(v) if inst.op == Op::Svc => format!("#{v}"),
            Operand::Imm(0) => "#0".into(),
            Operand::Imm(_) => "#".into(),
            Operand::Shifted { rm, .. } => format!("{} sh #", reg(rm)),
            Operand::Mem(MemAddr::BaseImm { base, .. }) => format!("[{},#]", reg(base)),
            Operand::Mem(MemAddr::BaseReg { base, index }) => {
                format!("[{},{}]", reg(base), reg(index))
            }
            Operand::RegList(l) => {
                let pc = if l.contains(Reg::Pc) { "+pc" } else { "" };
                format!("{{{}{pc}}}", l.len())
            }
            Operand::Target(_) => "t".into(),
            Operand::FReg(_) => "s".into(),
        })
        .collect();
    let s = if inst.s { "s" } else { "" };
    format!("{}{s}{} {}", inst.op, inst.cond, shape.join(","))
}

/// Host instructions the TCG model lowers `inst` at `addr` to, with the
/// `omit` flags left unmaterialized, and the lifted IR; `Err` if it does
/// not lift.
fn ir_cost(inst: &Inst, addr: u32, omit: FlagSet) -> Result<(usize, String), String> {
    use pdbt::ir::{lift_omit, lower_branch_cond, lower_ops, RegMap, Terminator};
    let lifted = lift_omit(inst, addr, omit).map_err(|e| e.to_string())?;
    let env = RegMap::all_env();
    let mut host = lower_ops(&lifted.body, &env).len();
    if let Some(Terminator::Br {
        cond: Some((cc, a, b)),
        ..
    }) = lifted.term
    {
        host += lower_branch_cond(cc, a, b, &env).0.len();
    }
    Ok((host, format!("{lifted:?}")))
}

/// The TCG column of Fig 13 / Table II, pinned per instruction form: for
/// the first instruction of each form in the suite (tiny, then full) and
/// in the sampler streams above (48 programs each, whatever `FUZZ_CASES`
/// says), the IR it lifts to and the host instructions `lower_ops` +
/// `lower_branch_cond` make of it on the environment — under each flag
/// omission the translator may ask for (none, all, each single flag) when
/// the form defines flags. Then, per suite program, that count summed
/// over its instructions. A lifter change must leave every count it
/// moves no higher.
#[test]
fn ir_lift_matches_the_golden() {
    use pdbt_isa::Flag;
    let mut programs: Vec<(String, Program)> = Vec::new();
    for (scale, name) in [(Scale::tiny(), "tiny"), (Scale::full(), "full")] {
        for w in pdbt::workloads::suite(scale) {
            let label = format!("{}/{name}", w.bench.name());
            programs.push((label, w.pair.guest.program));
        }
    }
    let suite_len = programs.len();
    for (seed, sample) in SAMPLERS {
        let mut rng = StdRng::seed_from_u64(seed);
        programs.extend((0..48).map(|_| (String::new(), sample(&mut rng))));
    }
    let omits = [FlagSet::EMPTY, FlagSet::NZCV].into_iter();
    let omits: Vec<FlagSet> = omits.chain(Flag::ALL.map(FlagSet::single)).collect();
    let mut forms: Vec<String> = Vec::new();
    let mut rows = String::new();
    let mut totals = String::new();
    for (p, (label, prog)) in programs.iter().enumerate() {
        let mut total = 0;
        for (i, inst) in prog.insts().iter().enumerate() {
            let addr = prog.addr_of(i);
            if p < suite_len {
                total += ir_cost(inst, addr, FlagSet::EMPTY).map_or(0, |(n, _)| n);
            }
            let form = ir_form(inst);
            if forms.contains(&form) {
                continue;
            }
            let flags = if inst.flag_defs().is_empty() {
                1
            } else {
                omits.len()
            };
            for omit in &omits[..flags] {
                let row = match ir_cost(inst, addr, *omit) {
                    Ok((n, ir)) => format!("{n} | {ir}"),
                    Err(e) => format!("refused | {e}"),
                };
                rows += &format!("{form} | omit {omit} | {inst} | {row}\n");
            }
            forms.push(form);
        }
        if p < suite_len {
            totals += &format!("program {label} | {} insts | {total}\n", prog.insts().len());
        }
    }
    common::assert_golden(&(rows + &totals), "ir_lift.txt");
}
