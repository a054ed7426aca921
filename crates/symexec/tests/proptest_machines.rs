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
