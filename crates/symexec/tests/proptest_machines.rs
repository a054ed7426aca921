//! Randomized tests for the symbolic machine evaluators: running a
//! random straight-line sequence symbolically and then evaluating the
//! result terms under a concrete assignment must agree with the concrete
//! interpreter started from the same state.
//!
//! This pins the verifier's semantic model to the reference
//! interpreters — the property that makes `check`'s verdicts
//! trustworthy.
//!
//! Originally written with `proptest`; the offline build environment has
//! no crates.io access, so the strategies are hand-rolled samplers over
//! the deterministic in-tree PRNG (`pdbt-rng`, aliased as `rand`).

use pdbt_isa::Flag;
use pdbt_symexec::machine::{guest, host};
use pdbt_symexec::{eval, Assignment, Sym, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MEM_BASE: u32 = 0x10_0000;

/// Float register seeds: the patterns comparisons and arithmetic treat
/// specially (quiet and signalling NaN, both infinities, both zeros, a
/// denormal), and a few ordinary values.
const FLOAT_SEEDS: [u32; 12] = [
    0x7fc0_0000, // NaN
    0xffc0_0001, // -NaN with a payload
    0x7f80_0001, // signalling NaN
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x8000_0000, // -0.0
    0x0000_0000, // +0.0
    0x0000_0001, // smallest denormal
    0x3f80_0000, // 1.0
    0xc020_0000, // -2.5
    0x7f7f_ffff, // f32::MAX
    0x4049_0fdb, // pi
];

fn float_seed(rng: &mut StdRng) -> u32 {
    FLOAT_SEEDS[rng.gen_range(0..FLOAT_SEEDS.len())]
}

/// Float stores go to their own window above the one integer accesses
/// use, and float registers compare equal when both are NaN: which
/// NaN an operation on two NaNs returns depends on operand order, which
/// the compiler may pick differently for the interpreter and for
/// `eval`, so a NaN's payload must not decide an integer or a flag.
const FLOAT_WINDOW: i32 = 0x100;

fn same_float(a: u32, b: u32) -> bool {
    a == b || (f32::from_bits(a).is_nan() && f32::from_bits(b).is_nan())
}

fn cases() -> usize {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(96)
}

// ---------------------------------------------------------------------------
// Guest side
// ---------------------------------------------------------------------------

mod g {
    use super::*;
    use pdbt_isa_arm::{builders as gb, Cpu, FReg, Inst, MemAddr, Operand, Reg, ShiftKind};

    fn reg(rng: &mut StdRng) -> Reg {
        // r1 is reserved as the in-range memory base.
        Reg::from_index(rng.gen_range(4..12)).unwrap()
    }

    fn freg(rng: &mut StdRng) -> FReg {
        FReg::new(rng.gen_range(0..16))
    }

    fn float_slot(rng: &mut StdRng) -> MemAddr {
        MemAddr::BaseImm {
            base: Reg::R1,
            offset: FLOAT_WINDOW + (rng.gen_range(0i32..0xf0) & !3),
        }
    }

    fn op2(rng: &mut StdRng) -> Operand {
        match rng.gen_range(0..3) {
            0 => Operand::Reg(reg(rng)),
            1 => Operand::Imm(rng.gen_range(0u32..2048)),
            _ => Operand::Shifted {
                rm: reg(rng),
                kind: ShiftKind::ALL[rng.gen_range(0..4)],
                amount: rng.gen_range(1u8..32),
            },
        }
    }

    pub fn inst(rng: &mut StdRng) -> Inst {
        match rng.gen_range(0..21) {
            0 => {
                type B = fn(Reg, Reg, Operand) -> Inst;
                const OPS: [B; 10] = [
                    gb::add,
                    gb::sub,
                    gb::and,
                    gb::orr,
                    gb::eor,
                    gb::bic,
                    gb::rsb,
                    gb::adc,
                    gb::sbc,
                    gb::rsc,
                ];
                let opi = rng.gen_range(0..10);
                let i = OPS[opi](reg(rng), reg(rng), op2(rng));
                if rng.gen_bool(0.5) && opi < 7 {
                    i.with_s()
                } else {
                    i
                }
            }
            1 => {
                let i = gb::mov(reg(rng), op2(rng));
                if rng.gen_bool(0.5) {
                    i.with_s()
                } else {
                    i
                }
            }
            2 => gb::mvn(reg(rng), op2(rng)),
            3 => gb::cmp(reg(rng), op2(rng)),
            4 => gb::cmn(reg(rng), op2(rng)),
            5 => gb::tst(reg(rng), op2(rng)),
            6 => gb::teq(reg(rng), op2(rng)),
            7 => gb::mul(reg(rng), reg(rng), reg(rng)),
            8 => gb::mla(reg(rng), reg(rng), reg(rng), reg(rng)),
            9 => gb::umull(reg(rng), reg(rng), reg(rng), reg(rng)),
            10 => gb::ldr(
                reg(rng),
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: rng.gen_range(0i32..0xf0) & !3,
                },
            ),
            11 => gb::str_(
                reg(rng),
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: rng.gen_range(0i32..0xf0) & !3,
                },
            ),
            12 => gb::ldrb(
                reg(rng),
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: rng.gen_range(0i32..0xf0),
                },
            ),
            13 => gb::strb(
                reg(rng),
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: rng.gen_range(0i32..0xf0),
                },
            ),
            14 => gb::umlal(reg(rng), reg(rng), reg(rng), reg(rng)),
            15 => {
                type B = fn(FReg, FReg, FReg) -> Inst;
                const OPS: [B; 4] = [gb::vadd, gb::vsub, gb::vmul, gb::vdiv];
                OPS[rng.gen_range(0..4)](freg(rng), freg(rng), freg(rng))
            }
            16 => gb::vmov(freg(rng), freg(rng)),
            17 | 18 => gb::vcmp(freg(rng), freg(rng)),
            19 => gb::vldr(freg(rng), float_slot(rng)),
            _ => gb::vstr(freg(rng), float_slot(rng)),
        }
    }

    /// Runs `seq` concretely from a seeded state.
    pub fn run_concrete(seq: &[Inst], seeds: &[u32], flags: u8, asg: &Assignment) -> Cpu {
        let mut cpu = Cpu::new();
        cpu.mem.map(MEM_BASE, 0x1000);
        cpu.write(Reg::R1, MEM_BASE);
        for (i, v) in seeds.iter().enumerate() {
            cpu.write(Reg::from_index(4 + i).unwrap(), *v);
        }
        cpu.flags.n = flags & 1 != 0;
        cpu.flags.z = flags & 2 != 0;
        cpu.flags.c = flags & 4 != 0;
        cpu.flags.v = flags & 8 != 0;
        for i in 0..16 {
            let bits = asg.get(Sym::Free(0x80 + i));
            cpu.write_f(FReg::new(i as u8), f32::from_bits(bits));
        }
        // Pre-fill the touched memory window with the assignment's
        // deterministic initial-memory function, so the symbolic
        // memory's `Init` matches.
        for a in (MEM_BASE..MEM_BASE + 0x200).step_by(1) {
            cpu.mem
                .store(a, u32::from(asg.init_byte(a)), pdbt_isa::Width::B8)
                .unwrap();
        }
        for inst in seq {
            // The sampler never emits control flow.
            let _ = pdbt_isa_arm::step(&mut cpu, inst).expect("concrete step");
        }
        cpu
    }
}

#[test]
fn guest_symbolic_matches_interpreter() {
    let mut rng = StdRng::seed_from_u64(0x6E_01);
    for _ in 0..cases() {
        let seq: Vec<_> = (0..rng.gen_range(1..8))
            .map(|_| g::inst(&mut rng))
            .collect();
        let seeds: Vec<u32> = (0..8).map(|_| rng.gen_range(0u32..0xffff)).collect();
        let flags: u8 = rng.gen_range(0..=u8::MAX);
        // Symbolic run with every register a distinct symbol.
        let mut st = guest::State::init(|r| Term::sym(Sym::GuestReg(r.index() as u8)));
        if guest::run(&mut st, &seq).is_err() {
            // e.g. a flag-setting carry-chain op — outside the subset.
            continue;
        }
        // Bind the symbols to the concrete seeds.
        let mut asg = Assignment::new(0xfeed);
        use pdbt_isa_arm::Reg;
        // Bind every register: the concrete CPU starts zeroed except the
        // base and the seeded body registers.
        for r in Reg::ALL {
            asg.set(Sym::GuestReg(r.index() as u8), 0);
        }
        asg.set(Sym::GuestReg(Reg::R1.index() as u8), MEM_BASE);
        for (i, v) in seeds.iter().enumerate() {
            asg.set(Sym::GuestReg(4 + i as u8), *v);
        }
        asg.set(Sym::Flag(0), u32::from(flags & 1 != 0));
        asg.set(Sym::Flag(1), u32::from(flags & 2 != 0));
        asg.set(Sym::Flag(2), u32::from(flags & 4 != 0));
        asg.set(Sym::Flag(3), u32::from(flags & 8 != 0));
        for i in 0..16 {
            asg.set(Sym::Free(0x80 + i), float_seed(&mut rng));
        }
        let cpu = g::run_concrete(&seq, &seeds, flags, &asg);
        // Every register and flag must agree.
        for r in pdbt_isa_arm::Reg::ALL {
            if r == pdbt_isa_arm::Reg::Pc {
                continue;
            }
            let sym_val = eval(&st.regs[r.index()], &asg);
            assert_eq!(
                sym_val,
                cpu.read(r),
                "register {} after {:?}",
                r,
                seq.iter().map(|i| i.to_string()).collect::<Vec<_>>()
            );
        }
        for (i, f) in Flag::ALL.into_iter().enumerate() {
            let sym_val = eval(&st.flags[i], &asg) & 1;
            assert_eq!(
                sym_val != 0,
                cpu.flags.get(f),
                "flag {} after {:?}",
                f,
                seq.iter().map(|i| i.to_string()).collect::<Vec<_>>()
            );
        }
        for (i, f) in cpu.fregs.iter().enumerate() {
            assert!(
                same_float(eval(&st.fregs[i], &asg), f.to_bits()),
                "float register s{} after {:?}",
                i,
                seq.iter().map(|i| i.to_string()).collect::<Vec<_>>()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Host side
// ---------------------------------------------------------------------------

mod h {
    use super::*;
    use pdbt_isa_x86::{builders as hbb, Cpu, Inst, Mem, Operand, Reg, Xmm};

    const REGS: [Reg; 6] = [Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebx, Reg::Esi, Reg::Edi];

    fn reg(rng: &mut StdRng) -> Reg {
        // ebp is reserved as the in-range memory base.
        REGS[rng.gen_range(0..6)]
    }

    fn mem(rng: &mut StdRng) -> Mem {
        Mem::base_disp(Reg::Ebp, rng.gen_range(0i32..0xf0) & !3)
    }

    fn xmm(rng: &mut StdRng) -> Xmm {
        Xmm::new(rng.gen_range(0..8))
    }

    fn float_mem(rng: &mut StdRng) -> Mem {
        Mem::base_disp(Reg::Ebp, FLOAT_WINDOW + (rng.gen_range(0i32..0xf0) & !3))
    }

    /// A scalar-float source: an `xmm` register or a memory word.
    fn xm(rng: &mut StdRng) -> Operand {
        if rng.gen_bool(0.5) {
            Operand::Xmm(xmm(rng))
        } else {
            Operand::Mem(float_mem(rng))
        }
    }

    fn rmi(rng: &mut StdRng) -> Operand {
        match rng.gen_range(0..3) {
            0 => Operand::Reg(reg(rng)),
            1 => Operand::Imm(rng.gen_range(-2048i32..2048)),
            _ => Operand::Mem(mem(rng)),
        }
    }

    pub fn inst(rng: &mut StdRng) -> Inst {
        match rng.gen_range(0..13) {
            0 | 1 => {
                type B = fn(Operand, Operand) -> Inst;
                const OPS: [B; 13] = [
                    hbb::mov,
                    hbb::add,
                    hbb::adc,
                    hbb::sub,
                    hbb::sbb,
                    hbb::and,
                    hbb::or,
                    hbb::xor,
                    hbb::imul,
                    hbb::shl,
                    hbb::shr,
                    hbb::sar,
                    hbb::cmp,
                ];
                OPS[rng.gen_range(0..13)](Operand::Reg(reg(rng)), rmi(rng))
            }
            2 => {
                let m = mem(rng);
                match rmi(rng) {
                    Operand::Mem(_) => hbb::mov(Operand::Mem(m), Operand::Imm(7)),
                    other => hbb::mov(Operand::Mem(m), other),
                }
            }
            3 => hbb::not(Operand::Reg(reg(rng))),
            4 => hbb::neg(Operand::Reg(reg(rng))),
            5 => hbb::movzxb(Operand::Reg(reg(rng)), Operand::Mem(mem(rng))),
            6 => hbb::movb(Operand::Mem(mem(rng)), Operand::Reg(reg(rng))),
            7 => hbb::setcc(
                pdbt_isa_x86::Cc::ALL[rng.gen_range(0..14)],
                Operand::Reg(reg(rng)),
            ),
            8 => hbb::movss(Operand::Xmm(xmm(rng)), xm(rng)),
            9 => hbb::movss(Operand::Mem(float_mem(rng)), Operand::Xmm(xmm(rng))),
            10 => {
                type B = fn(Xmm, Operand) -> Inst;
                const OPS: [B; 4] = [hbb::addss, hbb::subss, hbb::mulss, hbb::divss];
                OPS[rng.gen_range(0..4)](xmm(rng), xm(rng))
            }
            _ => hbb::ucomiss(xmm(rng), xm(rng)),
        }
    }

    pub fn run_concrete(seq: &[Inst], seeds: &[u32], flags: u8, asg: &Assignment) -> Cpu {
        let mut cpu = Cpu::new();
        cpu.mem.map(MEM_BASE, 0x1000);
        cpu.write(Reg::Ebp, MEM_BASE);
        for (r, v) in REGS.into_iter().zip(seeds) {
            cpu.write(r, *v);
        }
        cpu.flags.n = flags & 1 != 0;
        cpu.flags.z = flags & 2 != 0;
        cpu.flags.c = flags & 4 != 0;
        cpu.flags.v = flags & 8 != 0;
        for i in 0..8 {
            let bits = asg.get(Sym::Free(0x100 + i));
            cpu.write_x(Xmm::new(i as u8), f32::from_bits(bits));
        }
        for a in MEM_BASE..MEM_BASE + 0x200 {
            cpu.mem
                .store(a, u32::from(asg.init_byte(a)), pdbt_isa::Width::B8)
                .unwrap();
        }
        let (exit, _) = pdbt_isa_x86::exec_block(&mut cpu, seq, 10_000).expect("runs");
        assert_eq!(exit, pdbt_isa_x86::BlockExit::Fell);
        cpu
    }
}

#[test]
fn host_symbolic_matches_executor() {
    use pdbt_isa_x86::Reg;
    let mut rng = StdRng::seed_from_u64(0x6E_02);
    for _ in 0..cases() {
        let seq: Vec<_> = (0..rng.gen_range(1..8))
            .map(|_| h::inst(&mut rng))
            .collect();
        let seeds: Vec<u32> = (0..6).map(|_| rng.gen_range(0u32..0xffff)).collect();
        let flags: u8 = rng.gen_range(0..=u8::MAX);
        let mut st = host::State::init(|r| {
            if r == Reg::Ebp {
                Term::c(MEM_BASE)
            } else {
                Term::sym(Sym::HostReg(r.index() as u8))
            }
        });
        if host::run(&mut st, &seq).is_err() {
            continue;
        }
        let mut asg = Assignment::new(0xbeef);
        for (r, v) in [Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebx, Reg::Esi, Reg::Edi]
            .into_iter()
            .zip(&seeds)
        {
            asg.set(Sym::HostReg(r.index() as u8), *v);
        }
        asg.set(Sym::HostFlag(0), u32::from(flags & 1 != 0));
        asg.set(Sym::HostFlag(1), u32::from(flags & 2 != 0));
        asg.set(Sym::HostFlag(2), u32::from(flags & 4 != 0));
        asg.set(Sym::HostFlag(3), u32::from(flags & 8 != 0));
        for i in 0..8 {
            asg.set(Sym::Free(0x100 + i), float_seed(&mut rng));
        }
        let cpu = h::run_concrete(&seq, &seeds, flags, &asg);
        for r in Reg::ALL {
            if matches!(r, Reg::Esp | Reg::Ebp) {
                continue;
            }
            let sym_val = eval(&st.regs[r.index()], &asg);
            assert_eq!(
                sym_val,
                cpu.read(r),
                "register {} after {:?}",
                r,
                seq.iter().map(|i| i.to_string()).collect::<Vec<_>>()
            );
        }
        for (i, x) in cpu.xmm.iter().enumerate() {
            assert!(
                same_float(eval(&st.xmm[i], &asg), x.to_bits()),
                "float register xmm{} after {:?}",
                i,
                seq.iter().map(|i| i.to_string()).collect::<Vec<_>>()
            );
        }
        // Flags: imul leaves them modelled-undefined in both, the rest
        // must agree.
        let any_undefined = seq.iter().any(|i| matches!(i.op, pdbt_isa_x86::Op::Imul));
        if !any_undefined {
            for (i, f) in Flag::ALL.into_iter().enumerate() {
                let sym_val = eval(&st.flags[i], &asg) & 1;
                assert_eq!(
                    sym_val != 0,
                    cpu.flags.get(f),
                    "flag {} after {:?}",
                    f,
                    seq.iter().map(|i| i.to_string()).collect::<Vec<_>>()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Effects against the interpreters
// ---------------------------------------------------------------------------

/// What a step is seen to do: its result, the registers and flags it
/// leaves, and everything else — float registers, the memory around
/// `MEM_BASE`, the output — as words.
#[derive(Debug, Clone, PartialEq)]
struct Seen {
    result: String,
    regs: Vec<u32>,
    flags: [bool; 4],
    rest: Vec<u32>,
}

/// Where effects' states keep memory: `MEM_BASE` ± 2 KiB.
const AROUND: (u32, u32) = (MEM_BASE - 0x800, 0x1000);

fn memory(seed: u64) -> pdbt_isa::Memory {
    let mut mem = pdbt_isa::Memory::new();
    mem.map(AROUND.0, AROUND.1);
    let mut fill = StdRng::seed_from_u64(seed);
    let bytes: Vec<u8> = (0..AROUND.1).map(|_| fill.next_u32() as u8).collect();
    mem.write_bytes(AROUND.0, &bytes).unwrap();
    mem
}

fn seen(
    result: String,
    regs: &[u32],
    flags: pdbt_isa::Flags,
    fregs: impl Iterator<Item = u32>,
    mem: &pdbt_isa::Memory,
    output: &[u32],
) -> Seen {
    let bytes = mem.read_bytes(AROUND.0, AROUND.1).unwrap();
    let words = bytes
        .chunks(4)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()));
    Seen {
        result,
        regs: regs.to_vec(),
        flags: Flag::ALL.map(|f| flags.get(f)),
        rest: fregs.chain(words).chain(output.iter().copied()).collect(),
    }
}

/// A register value: an address near `MEM_BASE`, a small number (zero,
/// a shift amount), or anything.
fn value(rng: &mut StdRng) -> u32 {
    match rng.gen_range(0..3) {
        0 => MEM_BASE + (rng.gen_range(0u32..0x100) & !3),
        1 => rng.gen_range(0u32..40),
        _ => rng.next_u32(),
    }
}

/// Holds one instruction's effects — `uses` and `defs` as register
/// masks — to `run`, which steps it from registers and flags. From a
/// random state, stepping changes no register outside `defs` and no flag
/// outside `flag_defs`. Perturbing one register outside `uses`, or one
/// flag outside `flag_uses`, moves nothing else the step is seen to do;
/// the perturbed register itself is overwritten alike or carried.
fn judge(
    what: &dyn std::fmt::Display,
    (uses, defs): (u32, u32),
    (flag_uses, flag_defs): (pdbt_isa::FlagSet, pdbt_isa::FlagSet),
    run: impl Fn(&[u32], [bool; 4]) -> Seen,
    rng: &mut StdRng,
) {
    let regs: Vec<u32> = (0..16).map(|_| value(rng)).collect();
    let flags: [bool; 4] = std::array::from_fn(|_| rng.gen_bool(0.5));
    let base = run(&regs, flags);
    let regs = &regs[..base.regs.len()];
    for r in 0..regs.len() {
        assert!(
            defs >> r & 1 == 1 || base.regs[r] == regs[r],
            "`{what}` wrote register {r}, outside its defs"
        );
        if uses >> r & 1 == 1 {
            continue;
        }
        let mask = rng.next_u32() | 1;
        let mut from = regs.to_vec();
        from[r] ^= mask;
        let mut got = run(&from, flags);
        let (now, was) = (got.regs[r], base.regs[r]);
        assert!(
            now == was || now == was ^ mask,
            "`{what}` read register {r}"
        );
        got.regs[r] = was;
        assert_eq!(got, base, "`{what}` read register {r}, outside its uses");
    }
    for (i, f) in Flag::ALL.into_iter().enumerate() {
        assert!(
            flag_defs.contains(f) || base.flags[i] == flags[i],
            "`{what}` wrote flag {f}, outside its flag defs"
        );
        if flag_uses.contains(f) {
            continue;
        }
        let mut from = flags;
        from[i] = !from[i];
        let mut got = run(regs, from);
        got.flags[i] = base.flags[i];
        assert_eq!(got, base, "`{what}` read flag {f}, outside its flag uses");
    }
}

/// `Inst::effects` against `step::<Cpu>`, for random encodings — every
/// opcode, shape, `s` and condition, `pc` anywhere. `pc` is a register
/// effect only where an operand names it, and then a jump writes it;
/// elsewhere it is the instruction's own address, left aside.
#[test]
fn guest_effects_are_sound_against_the_interpreter() {
    use pdbt_isa::Control;
    use pdbt_isa_arm::{decode, Cpu, FReg, Op, Operand, Reg};
    let mut rng = StdRng::seed_from_u64(0x6E_03);
    for _ in 0..cases() * 8 {
        let word = rng.next_u32();
        let Some(mut inst) = decode(word).ok().filter(|i| i.validate().is_ok()) else {
            continue;
        };
        if let (Op::Svc, Operand::Imm(n)) = (inst.op, &mut inst.operands[0]) {
            *n %= 3; // mostly the defined `svc #0` and `svc #1`
        }
        let fx = inst.effects();
        let names_pc = inst.operands.iter().any(Operand::names_pc);
        let aside = if names_pc { 0 } else { 1 << Reg::Pc.index() };
        let mask = |rs: &[Reg]| rs.iter().fold(aside, |m, r| m | 1 << r.index());
        let seed = rng.next_u64();
        let run = |regs: &[u32], flags: [bool; 4]| {
            let mut cpu = Cpu::new();
            cpu.mem = memory(seed);
            cpu.regs.copy_from_slice(regs);
            for (i, f) in Flag::ALL.into_iter().enumerate() {
                cpu.flags.set(f, flags[i]);
            }
            for i in 0..16 {
                cpu.write_f(FReg::new(i as u8), f32::from_bits(FLOAT_SEEDS[i % 12]));
            }
            let control = pdbt_isa_arm::step(&mut cpu, &inst);
            if names_pc && matches!(control, Ok(Control::Jump(_) | Control::Call { .. })) {
                assert!(fx.defs.contains(&Reg::Pc), "`{inst}` jumps but lacks pc");
            }
            let fregs = cpu.fregs.map(f32::to_bits).into_iter();
            let out = format!("{control:?}");
            seen(out, &cpu.regs, cpu.flags, fregs, &cpu.mem, &cpu.output)
        };
        let regs = (mask(&fx.uses), mask(&fx.defs));
        judge(&inst, regs, (fx.flag_uses, fx.flag_defs), run, &mut rng);
    }
}

/// The same for `pdbt_isa_x86::Inst::effects`, on random operands of
/// every opcode that its shape check accepts.
#[test]
fn host_effects_are_sound_against_the_interpreter() {
    use pdbt_isa_x86::{Cc, Cpu, Inst, Mem, Op, Operand, Reg, Shape, Xmm};
    let mut rng = StdRng::seed_from_u64(0x6E_04);
    let reg = |rng: &mut StdRng| Reg::ALL[rng.gen_range(0..8)];
    for _ in 0..cases() * 8 {
        let op = Op::ALL[rng.gen_range(0..Op::ALL.len())];
        let n = match op.shape() {
            Shape::Nullary => 0,
            Shape::Unary | Shape::Branch | Shape::CondBranch | Shape::SetCc => 1,
            _ => 2,
        };
        let operands: Vec<Operand> = (0..n)
            .map(|_| match rng.gen_range(0..6) {
                0 | 1 => Operand::Reg(reg(&mut rng)),
                2 => Operand::Imm(rng.gen_range(-64i32..64)),
                3 => Operand::Mem(Mem {
                    base: rng.gen_bool(0.9).then(|| reg(&mut rng)),
                    index: rng.gen_bool(0.3).then(|| reg(&mut rng)),
                    disp: rng.gen_range(-64i32..64),
                }),
                4 => Operand::Xmm(Xmm::new(rng.gen_range(0..8))),
                _ => Operand::Target(rng.gen_range(-2i32..3)),
            })
            .collect();
        let inst = match op.shape() {
            Shape::CondBranch | Shape::SetCc => {
                Inst::new_cc(op, Cc::ALL[rng.gen_range(0..Cc::ALL.len())], operands)
            }
            _ => Inst::new(op, operands),
        };
        let Ok(inst) = inst else { continue };
        let fx = inst.effects();
        let mask = |rs: &[Reg]| rs.iter().fold(0, |m, r| m | 1 << r.index());
        let seed = rng.next_u64();
        let run = |regs: &[u32], flags: [bool; 4]| {
            let mut cpu = Cpu::new();
            cpu.mem = memory(seed);
            cpu.regs.copy_from_slice(&regs[..8]);
            for (i, f) in Flag::ALL.into_iter().enumerate() {
                cpu.flags.set(f, flags[i]);
            }
            for (i, bits) in FLOAT_SEEDS[..8].iter().enumerate() {
                cpu.write_x(Xmm::new(i as u8), f32::from_bits(*bits));
            }
            let out = format!("{:?}", pdbt_isa_x86::step(&mut cpu, &inst));
            let fregs = cpu.xmm.map(f32::to_bits).into_iter();
            seen(out, &cpu.regs, cpu.flags, fregs, &cpu.mem, &cpu.output)
        };
        let regs = (mask(&fx.uses), mask(&fx.defs));
        judge(&inst, regs, (fx.flag_uses, fx.flag_defs), run, &mut rng);
    }
}
