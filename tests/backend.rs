//! Backend lockdown: the threaded-code executor must be bit-identical
//! to the model interpreter it replaces.
//!
//! Two layers of evidence:
//!
//! * End-to-end: full engine runs over the three differently degraded
//!   training corpora (the same seeds `tests/determinism.rs` locks
//!   down), at `--jobs 1` and `--jobs 4`, under both backends. The
//!   stripped reports must be bit-identical across backends (only
//!   `dispatch.backend`, `dispatch.compiled_blocks` and the wall-clock
//!   `dispatch.compile_ns` may differ) and the per-rule attribution
//!   sums must agree exactly.
//! * Per-block differential fuzz: seeded random host blocks executed
//!   from random CPU states through `exec_block_traced_into` and
//!   `compile_block` + `exec_threaded_into`, comparing the full
//!   architectural outcome — result (exit or error, by `Debug`
//!   equality, which covers error detail strings), registers, flags,
//!   XMM bit patterns, memory, output stream, and per-instruction
//!   retire counts. The same cases run as `CachedBlock`s with random
//!   cost classes and superblock member marks through both
//!   `HostBackend`s, whose retire tallies must equal a fold of the
//!   model's per-instruction counts. `FUZZ_CASES` scales the loop
//!   (deep-fuzz CI runs 512).

mod common;

use common::{learned_for, SEEDS};
use pdbt::core::RuleSet;
use pdbt::obs::{DispatchCounters, ServerCounters};
use pdbt::runtime::{
    BackendKind, BackendObs, BlockSuccs, CachedBlock, CodeClass, Engine, EngineConfig, HostBackend,
    MemberMark, ModelBackend, Report, ThreadedBackend, TranslatedBlock,
};
use pdbt::workloads::{suite, Scale};
use pdbt::x86::builders as hx;
use pdbt::x86::{
    compile_block, exec_block_traced_into, exec_threaded_into, Cc, Cpu, Inst, Mem, Operand, Reg,
    RetireTally, Xmm,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Honour FUZZ_CASES when set; default to a CI-friendly 64.
fn fuzz_cases() -> u64 {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn run_with(rules: &RuleSet, jobs: usize, backend: BackendKind) -> Report {
    let workloads = suite(Scale::tiny());
    let w = &workloads[0];
    let cfg = EngineConfig {
        jobs,
        backend,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(Some(rules.clone()), cfg);
    engine.run(&w.pair.guest.program, &w.setup()).expect("run")
}

/// The stripped report minus `pool` (work-stealing task distribution
/// is scheduling noise under `--jobs 4`) and the two fields that *name*
/// the backend — `dispatch.backend` and `dispatch.compiled_blocks`
/// (always zero under the model). Everything else must be
/// bit-identical.
fn stripped_cross_backend(report: &Report) -> String {
    let mut doc = Report::stripped(&report.to_json());
    for path in ["pool", "dispatch.backend", "dispatch.compiled_blocks"] {
        doc.remove_path(path);
    }
    doc.to_string()
}

/// Full engine runs agree between backends on every degraded corpus,
/// serial and parallel.
#[test]
fn backends_agree_end_to_end_across_corpora_and_jobs() {
    for seed in SEEDS {
        let rules = learned_for(seed);
        for jobs in [1usize, 4] {
            let model = run_with(&rules, jobs, BackendKind::Model);
            let threaded = run_with(&rules, jobs, BackendKind::Threaded);
            assert_eq!(
                model.output, threaded.output,
                "seed {seed:#x} jobs {jobs}: guest output diverged"
            );
            assert_eq!(
                stripped_cross_backend(&model),
                stripped_cross_backend(&threaded),
                "seed {seed:#x} jobs {jobs}: stripped reports diverged"
            );
            // Per-rule attribution sums, asserted directly on top of
            // the JSON identity: coverage is the paper's headline
            // number, so it gets its own check.
            assert_eq!(
                model.obs.rules.coverage_by_subgroup(),
                threaded.obs.rules.coverage_by_subgroup(),
                "seed {seed:#x} jobs {jobs}: attribution sums diverged"
            );
            assert_eq!(model.backend, "model");
            assert_eq!(threaded.backend, "threaded");
            assert_eq!(model.obs.dispatch.compiled_blocks, 0);
            assert!(
                threaded.obs.dispatch.compiled_blocks > 0,
                "seed {seed:#x} jobs {jobs}: vacuous — nothing compiled"
            );
        }
    }
}

/// Every suite workload is the same architectural run under both
/// backends: guest output, retired guest instructions and executed
/// host instructions agree, and only the threaded backend compiles.
#[test]
fn backends_agree_on_every_suite_workload() {
    for w in suite(Scale::tiny()) {
        let run = |backend| {
            let cfg = EngineConfig {
                backend,
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(None, cfg);
            engine.run(&w.pair.guest.program, &w.setup()).expect("run")
        };
        let (model, threaded) = (run(BackendKind::Model), run(BackendKind::Threaded));
        let name = w.bench.name();
        assert_eq!(model.output, threaded.output, "{name}: output diverged");
        assert_eq!(
            model.metrics.guest_retired, threaded.metrics.guest_retired,
            "{name}: guest_retired diverged"
        );
        assert_eq!(
            model.metrics.host_executed(),
            threaded.metrics.host_executed(),
            "{name}: host_executed diverged"
        );
        assert_eq!(model.obs.dispatch.compiled_blocks, 0, "{name}");
        assert!(threaded.obs.dispatch.compiled_blocks > 0, "{name}");
    }
}

/// Compiled-block accounting is deterministic: `compiled_blocks` equals
/// distinct blocks executed, independent of the prewarm worker count.
#[test]
fn compiled_block_counts_are_jobs_invariant() {
    let rules = learned_for(SEEDS[0]);
    let serial = run_with(&rules, 1, BackendKind::Threaded);
    let parallel = run_with(&rules, 4, BackendKind::Threaded);
    assert!(serial.obs.dispatch.compiled_blocks > 0);
    assert_eq!(
        serial.obs.dispatch.compiled_blocks,
        parallel.obs.dispatch.compiled_blocks
    );
}

// ---------------------------------------------------------------------
// Per-block differential fuzz.
// ---------------------------------------------------------------------

const DATA_BASE: u32 = 0x1000;
const DATA_SIZE: u32 = 0x1000;
const STACK_BASE: u32 = 0x8000;
const STACK_SIZE: u32 = 0x1000;

fn rnd_reg(rng: &mut StdRng) -> Reg {
    Reg::ALL[rng.gen_range(0..Reg::ALL.len())]
}

fn rnd_cc(rng: &mut StdRng) -> Cc {
    Cc::ALL[rng.gen_range(0..Cc::ALL.len())]
}

/// A memory operand that usually lands in the mapped data region
/// (Ebp-relative) but sometimes goes absolute or indexed — including
/// occasionally out of bounds, so fault paths are compared too.
fn rnd_mem(rng: &mut StdRng) -> Mem {
    match rng.gen_range(0..6) {
        0 | 1 => Mem::base(Reg::Ebp),
        2 | 3 => Mem::base_disp(Reg::Ebp, rng.gen_range(-16i32..0x200)),
        4 => Mem::base_index(Reg::Ebp, rnd_reg(rng)),
        _ => Mem::abs(rng.gen_range(0i32..0x2_0000)),
    }
}

fn rnd_src(rng: &mut StdRng) -> Operand {
    match rng.gen_range(0..4) {
        0 => Operand::Reg(rnd_reg(rng)),
        1 => Operand::Imm(rng.gen_range(-64i32..64)),
        2 => Operand::Imm(rng.gen::<u32>() as i32),
        _ => Operand::Mem(rnd_mem(rng)),
    }
}

fn rnd_rm(rng: &mut StdRng) -> Operand {
    if rng.gen_range(0..3) == 0 {
        Operand::Mem(rnd_mem(rng))
    } else {
        Operand::Reg(rnd_reg(rng))
    }
}

/// Dst/src pair honouring the not-both-mem shape rule.
fn rnd_ds(rng: &mut StdRng) -> (Operand, Operand) {
    let dst = rnd_rm(rng);
    let src = if dst.as_mem().is_some() {
        match rng.gen_range(0..2) {
            0 => Operand::Reg(rnd_reg(rng)),
            _ => Operand::Imm(rng.gen_range(-64i32..64)),
        }
    } else {
        rnd_src(rng)
    };
    (dst, src)
}

fn rnd_inst(rng: &mut StdRng, len: usize) -> Inst {
    match rng.gen_range(0..16) {
        0 => {
            let (d, s) = rnd_ds(rng);
            hx::mov(d, s)
        }
        1 => {
            let (d, s) = rnd_ds(rng);
            match rng.gen_range(0..6) {
                0 => hx::add(d, s),
                1 => hx::adc(d, s),
                2 => hx::sub(d, s),
                3 => hx::sbb(d, s),
                4 => hx::cmp(d, s),
                _ => hx::imul(d, s),
            }
        }
        2 => {
            let (d, s) = rnd_ds(rng);
            match rng.gen_range(0..4) {
                0 => hx::and(d, s),
                1 => hx::or(d, s),
                2 => hx::xor(d, s),
                _ => hx::test(d, s),
            }
        }
        3 => {
            let d = rnd_rm(rng);
            // Shift counts beyond 31 exercise the masking path.
            let s = if rng.gen_range(0..2) == 0 {
                Operand::Imm(rng.gen_range(0i32..40))
            } else {
                Operand::Reg(rnd_reg(rng))
            };
            match rng.gen_range(0..4) {
                0 => hx::shl(d, s),
                1 => hx::shr(d, s),
                2 => hx::sar(d, s),
                _ => hx::ror(d, s),
            }
        }
        4 => {
            let d = rnd_rm(rng);
            if rng.gen_range(0..2) == 0 {
                hx::not(d)
            } else {
                hx::neg(d)
            }
        }
        5 => hx::mul_wide(rnd_rm(rng)),
        6 => {
            if rng.gen_range(0..2) == 0 {
                hx::push(rnd_src(rng))
            } else {
                hx::pop(rnd_rm(rng))
            }
        }
        7 => {
            let m = Operand::Mem(rnd_mem(rng));
            let r = Operand::Reg(rnd_reg(rng));
            match rng.gen_range(0..4) {
                0 => hx::movb(m, r),
                1 => hx::movw(m, r),
                2 => hx::movzxb(r, m),
                _ => hx::movzxw(r, m),
            }
        }
        8 => hx::lea(Operand::Reg(rnd_reg(rng)), Operand::Mem(rnd_mem(rng))),
        9 => hx::bsr(Operand::Reg(rnd_reg(rng)), rnd_rm(rng)),
        10 => hx::setcc(rnd_cc(rng), rnd_rm(rng)),
        11 => {
            // Mostly in-block targets; the occasional wild one compares
            // the BadPc path.
            let d = rng.gen_range(-(len as i32 + 2)..len as i32 + 2);
            hx::jcc(rnd_cc(rng), d)
        }
        12 => {
            let x = Xmm::new(rng.gen_range(0u8..8));
            match rng.gen_range(0..3) {
                0 => hx::movss(x.into(), rnd_xmm_src(rng)),
                1 => hx::movss(
                    Operand::Mem(rnd_mem(rng)),
                    Xmm::new(rng.gen_range(0u8..8)).into(),
                ),
                _ => hx::movss(x.into(), Operand::Mem(rnd_mem(rng))),
            }
        }
        13 => {
            let x = Xmm::new(rng.gen_range(0u8..8));
            let s = rnd_xmm_src(rng);
            match rng.gen_range(0..5) {
                0 => hx::addss(x, s),
                1 => hx::subss(x, s),
                2 => hx::mulss(x, s),
                3 => hx::divss(x, s),
                _ => hx::ucomiss(x, s),
            }
        }
        14 => hx::out(),
        _ => {
            let (d, s) = rnd_ds(rng);
            hx::mov(d, s)
        }
    }
}

fn rnd_xmm_src(rng: &mut StdRng) -> Operand {
    if rng.gen_range(0..2) == 0 {
        Xmm::new(rng.gen_range(0u8..8)).into()
    } else {
        Operand::Mem(rnd_mem(rng))
    }
}

fn rnd_block(rng: &mut StdRng) -> Vec<Inst> {
    let len = rng.gen_range(1usize..14);
    let mut code: Vec<Inst> = (0..len).map(|_| rnd_inst(rng, len)).collect();
    match rng.gen_range(0..4) {
        0 => code.push(hx::hlt()),
        1 => code.push(hx::jmp_exit(Operand::Imm(rng.gen_range(0i32..0x4000)))),
        2 => code.push(hx::jmp_rel(rng.gen_range(-(len as i32)..3))),
        _ => {} // fall off the end
    }
    code
}

fn rnd_cpu(rng: &mut StdRng) -> Cpu {
    let mut cpu = Cpu::new();
    cpu.mem.map(DATA_BASE, DATA_SIZE);
    cpu.mem.map(STACK_BASE, STACK_SIZE);
    for r in Reg::ALL {
        let v = match rng.gen_range(0..3) {
            0 => rng.gen_range(0u32..0x80),
            1 => DATA_BASE + rng.gen_range(0u32..DATA_SIZE),
            _ => rng.gen::<u32>(),
        };
        cpu.write(r, v);
    }
    // Ebp anchors the common data-region operands; Esp starts inside
    // the stack so short push/pop runs stay mapped.
    cpu.write(Reg::Ebp, DATA_BASE + rng.gen_range(0u32..0x800));
    cpu.write(
        Reg::Esp,
        STACK_BASE + 0x800 + rng.gen_range(0u32..0x100) * 4,
    );
    for i in 0..8 {
        cpu.xmm[i] = f32::from_bits(rng.gen::<u32>());
    }
    for a in (DATA_BASE..DATA_BASE + 0x200).step_by(4) {
        cpu.mem.store32(a, rng.gen::<u32>()).unwrap();
    }
    cpu.flags.n = rng.gen_range(0..2) == 0;
    cpu.flags.z = rng.gen_range(0..2) == 0;
    cpu.flags.c = rng.gen_range(0..2) == 0;
    cpu.flags.v = rng.gen_range(0..2) == 0;
    cpu
}

const CLASSES: [CodeClass; 4] = [
    CodeClass::RuleCore,
    CodeClass::QemuCore,
    CodeClass::DataTransfer,
    CodeClass::Control,
];

/// A member mark anchored at host instruction `anchor`.
fn mark(anchor: usize) -> MemberMark {
    MemberMark {
        start: 0x1000 + 4 * anchor as u32,
        anchor,
        guest_len: 1,
        rule_covered: 0,
        attr_range: (0, 0),
        deleg: None,
    }
}

/// Up to three members at random non-decreasing anchors — repeats are
/// members that share an anchor.
fn rnd_marks(rng: &mut StdRng, len: usize) -> Vec<MemberMark> {
    let mut anchors: Vec<usize> = (0..rng.gen_range(0usize..4))
        .map(|_| rng.gen_range(0..len))
        .collect();
    anchors.sort_unstable();
    anchors.into_iter().map(mark).collect()
}

/// The tally a dispatcher must be handed for per-instruction `counts`,
/// folded straight from the translation's side tables: retires per
/// class, and one mask bit per distinct anchor (numbered from 1 in
/// member order) that retired at least once.
fn fold_counts(classes: &[CodeClass], marks: &[MemberMark], counts: &[u32]) -> RetireTally {
    let mut tally = RetireTally::default();
    for (class, n) in classes.iter().zip(counts) {
        tally.by_class[class.index()] += u64::from(*n);
    }
    let mut distinct: Vec<usize> = marks.iter().map(|m| m.anchor).collect();
    distinct.dedup();
    for (i, anchor) in distinct.iter().enumerate() {
        if counts[*anchor] > 0 {
            tally.anchors |= 1 << (i + 1);
        }
    }
    tally
}

/// Executes `code` — as a block with these classes and member marks —
/// under both backends from `cpu`, and checks each backend's result
/// and retire tally against the model executor's per-instruction
/// counts. Returns the tally both agreed on, if the block ran clean.
fn check_backend_tallies(
    code: &[Inst],
    classes: Vec<CodeClass>,
    marks: Vec<MemberMark>,
    cpu: &Cpu,
    budget: u64,
    ctx: &str,
) -> Option<RetireTally> {
    let mut counts = Vec::new();
    let oracle = exec_block_traced_into(&mut cpu.clone(), code, budget, &mut counts);
    let expect = oracle
        .map(|(exit, stats)| (exit, stats, fold_counts(&classes, &marks, &counts)))
        .map_err(|e| format!("{e:?}"));
    let block = Arc::new(TranslatedBlock {
        start: 0x1000,
        code: code.to_vec(),
        classes,
        guest_len: 1,
        rule_covered: 0,
        attributions: Vec::new(),
        lookup_misses: Vec::new(),
        deleg: None,
        succ: BlockSuccs::None,
        member_marks: marks,
    });
    let server = ServerCounters::default();
    let backends: [&dyn HostBackend; 2] = [&ModelBackend, &ThreadedBackend];
    for backend in backends {
        let cached = CachedBlock::new(Arc::clone(&block), Vec::new());
        let mut dispatch = DispatchCounters::default();
        let mut obs = BackendObs {
            dispatch: &mut dispatch,
            server: &server,
        };
        // Twice: the threaded backend compiles on the first execute
        // and reuses the tagged code on the second.
        for round in 0..2 {
            let got = backend
                .execute(&cached, &mut cpu.clone(), budget, &mut obs)
                .map_err(|e| format!("{e:?}"));
            assert_eq!(got, expect, "{ctx}: {} round {round}", backend.name());
        }
    }
    expect.ok().map(|(_, _, tally)| tally)
}

/// The two superblock shapes member retirement hinges on: members that
/// share an anchor retire together, and a trace left through its first
/// side exit retires its first member only.
#[test]
fn superblock_anchor_masks_agree_across_backends() {
    let mut cpu = Cpu::new();
    cpu.mem.map(DATA_BASE, DATA_SIZE);
    // Members 0 and 1 share anchor 0 (member 0 has no host code of its
    // own); member 2 is anchored at instruction 2.
    let shared = [
        hx::mov(Reg::Eax.into(), Operand::Imm(1)),
        hx::add(Reg::Eax.into(), Operand::Imm(2)),
        hx::mov(Reg::Ecx.into(), Reg::Eax.into()),
        hx::jmp_exit(Operand::Imm(0x2000)),
    ];
    let tally = check_backend_tallies(
        &shared,
        vec![
            CodeClass::RuleCore,
            CodeClass::RuleCore,
            CodeClass::DataTransfer,
            CodeClass::Control,
        ],
        vec![mark(0), mark(0), mark(2)],
        &cpu,
        100,
        "shared anchor",
    )
    .expect("runs clean");
    assert_eq!(tally.by_class, [2, 0, 1, 1]);
    assert_eq!(tally.anchors, 0b110, "two distinct anchors, both ran");
    // `xor` sets Z, the `jne` over the side-exit stub is not taken, and
    // the trace leaves before member 1's anchor at instruction 3.
    let side_exit = [
        hx::xor(Reg::Eax.into(), Reg::Eax.into()),
        hx::jcc(Cc::Ne, 1),
        hx::jmp_exit(Operand::Imm(0x2000)),
        hx::mov(Reg::Ecx.into(), Operand::Imm(1)),
        hx::jmp_exit(Operand::Imm(0x3000)),
    ];
    let tally = check_backend_tallies(
        &side_exit,
        vec![
            CodeClass::QemuCore,
            CodeClass::Control,
            CodeClass::Control,
            CodeClass::QemuCore,
            CodeClass::Control,
        ],
        vec![mark(0), mark(3)],
        &cpu,
        100,
        "first side exit",
    )
    .expect("runs clean");
    assert_eq!(tally.by_class, [0, 1, 0, 2]);
    assert_eq!(tally.anchors, 0b010, "only the first member retired");
}

/// Seeded differential fuzz: random blocks from random states must
/// leave both executors in bit-identical architectural states — on
/// success *and* on every fault path — and both backends must tally
/// what retired exactly as the model's per-instruction counts fold.
#[test]
fn fuzz_threaded_matches_model_per_block() {
    let mut rng = StdRng::seed_from_u64(0xBAC_CE4D);
    let mut faulted = 0u64;
    for case in 0..fuzz_cases() {
        let code = rnd_block(&mut rng);
        let budget = if rng.gen_range(0..4) == 0 {
            rng.gen_range(1u64..24)
        } else {
            4096
        };
        let mut cpu_m = rnd_cpu(&mut rng);
        let mut cpu_t = cpu_m.clone();
        let classes = code.iter().map(|_| CLASSES[rng.gen_range(0..4)]).collect();
        let marks = rnd_marks(&mut rng, code.len());
        check_backend_tallies(
            &code,
            classes,
            marks,
            &cpu_m,
            budget,
            &format!("case {case}"),
        );
        let mut counts_m = Vec::new();
        let mut counts_t = Vec::new();
        let res_m = exec_block_traced_into(&mut cpu_m, &code, budget, &mut counts_m);
        let compiled = compile_block(&code);
        assert_eq!(compiled.len(), code.len(), "case {case}: op count diverged");
        let res_t = exec_threaded_into(&mut cpu_t, &compiled, budget, &mut counts_t);
        let ctx = format!("case {case}: {code:?}");
        if res_m.is_err() {
            faulted += 1;
        }
        assert_eq!(
            format!("{res_m:?}"),
            format!("{res_t:?}"),
            "{ctx}: results diverged"
        );
        assert_eq!(counts_m, counts_t, "{ctx}: retire counts diverged");
        assert_eq!(cpu_m.regs, cpu_t.regs, "{ctx}: registers diverged");
        assert_eq!(cpu_m.flags, cpu_t.flags, "{ctx}: flags diverged");
        assert_eq!(cpu_m.output, cpu_t.output, "{ctx}: output diverged");
        let bits_m: Vec<u32> = cpu_m.xmm.iter().map(|f| f.to_bits()).collect();
        let bits_t: Vec<u32> = cpu_t.xmm.iter().map(|f| f.to_bits()).collect();
        assert_eq!(bits_m, bits_t, "{ctx}: xmm bits diverged");
        assert_eq!(
            cpu_m.mem.read_bytes(DATA_BASE, DATA_SIZE).unwrap(),
            cpu_t.mem.read_bytes(DATA_BASE, DATA_SIZE).unwrap(),
            "{ctx}: data memory diverged"
        );
        assert_eq!(
            cpu_m.mem.read_bytes(STACK_BASE, STACK_SIZE).unwrap(),
            cpu_t.mem.read_bytes(STACK_BASE, STACK_SIZE).unwrap(),
            "{ctx}: stack memory diverged"
        );
    }
    // The generator must actually exercise fault paths, or the error
    // comparisons above are vacuous.
    assert!(faulted > 0, "no fuzz case faulted — tighten the generator");
}
