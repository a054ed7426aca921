//! IR → host lowering.
//!
//! Temporaries live in environment spill slots with a one-register
//! forwarding window through `eax` (TCG-quality local codegen: no global
//! allocation, no cross-instruction value tracking). Guest registers
//! resolve through the block's [`RegMap`]: either a cached host register
//! or an in-environment memory operand.

use crate::env::{self, RegMap};
use crate::op::{Dst, IrOp, Tmp, Val};
use pdbt_isa::{BinOp, PredOp, UnOp, Width};
use pdbt_isa_x86::builders as hb;
use pdbt_isa_x86::{Cc, Inst as HInst, Mem, Operand as HOp, Reg as HReg, Xmm};

const SCRATCH_A: HReg = HReg::Eax;
const SCRATCH_B: HReg = HReg::Edx;

/// Maps an integer predicate to the host condition that holds after
/// `cmpl a, b`. The IR has no float predicate: the lifter refuses what
/// would need one.
#[must_use]
pub fn host_cc(cc: PredOp) -> Cc {
    match cc {
        PredOp::Eq => Cc::E,
        PredOp::Ne => Cc::Ne,
        PredOp::Ltu => Cc::B,
        PredOp::Leu => Cc::Be,
        PredOp::Gtu => Cc::A,
        PredOp::Geu => Cc::Ae,
        PredOp::Lts => Cc::L,
        PredOp::Les => Cc::Le,
        PredOp::Gts => Cc::G,
        PredOp::Ges => Cc::Ge,
        PredOp::FLt | PredOp::FEq | PredOp::FGe => unreachable!("float predicate {cc:?} in IR"),
    }
}

struct Ctx<'a> {
    map: &'a RegMap,
    out: Vec<HInst>,
    /// The temporary whose value currently sits in `eax`.
    fwd: Option<Tmp>,
    /// For each tmp index: the op indices that read it.
    reads: Vec<Vec<usize>>,
}

impl<'a> Ctx<'a> {
    fn emit(&mut self, i: HInst) {
        self.out.push(i);
    }

    fn greg(&self, g: pdbt_isa_arm::Reg) -> HOp {
        match self.map.loc(g) {
            env::Loc::Host(h) => HOp::Reg(h),
            env::Loc::Env => HOp::Mem(env::reg_mem(g)),
        }
    }

    fn resolve(&self, v: Val) -> HOp {
        match v {
            Val::Reg(g) => self.greg(g),
            Val::Const(c) => HOp::Imm(c as i32),
            Val::Tmp(t) => {
                if self.fwd == Some(t) {
                    HOp::Reg(SCRATCH_A)
                } else {
                    HOp::Mem(env::spill_mem(t.0 as usize))
                }
            }
        }
    }

    /// Loads `v` into `eax` (no-op when it is already forwarded there).
    #[allow(clippy::wrong_self_convention)]
    fn to_eax(&mut self, v: Val) {
        let op = self.resolve(v);
        if op != HOp::Reg(SCRATCH_A) {
            self.emit(hb::mov(HOp::Reg(SCRATCH_A), op));
        }
        self.fwd = None;
    }

    /// Resolves `v` for use as a *second* source while `eax` is being
    /// repurposed: a value forwarded in `eax` is first saved to `edx`.
    fn resolve_second(&mut self, v: Val) -> HOp {
        let op = self.resolve(v);
        if op == HOp::Reg(SCRATCH_A) {
            self.emit(hb::mov(HOp::Reg(SCRATCH_B), HOp::Reg(SCRATCH_A)));
            self.fwd = None;
            HOp::Reg(SCRATCH_B)
        } else {
            op
        }
    }

    /// Writes the value in `eax` to `d`, spilling temporaries unless
    /// their only read is the next op (pure forwarding).
    fn write_from_eax(&mut self, d: Dst, op_index: usize) {
        match d {
            Dst::Reg(g) => {
                let loc = self.greg(g);
                self.emit(hb::mov(loc, HOp::Reg(SCRATCH_A)));
                self.fwd = None;
            }
            Dst::Tmp(t) => {
                let reads = &self.reads[t.0 as usize];
                let forward_only = reads.len() == 1 && reads[0] == op_index + 1;
                if !forward_only {
                    self.emit(hb::mov(
                        HOp::Mem(env::spill_mem(t.0 as usize)),
                        HOp::Reg(SCRATCH_A),
                    ));
                }
                self.fwd = Some(t);
            }
        }
    }

    /// Materializes a memory address `base + off` into a host memory
    /// operand, using `edx` when the base is not already in a register.
    fn mem_operand(&mut self, addr: Val, off: i32) -> Mem {
        match self.resolve(addr) {
            HOp::Reg(r) => {
                self.fwd = None; // the address may be the forwarded value
                Mem::base_disp(r, off)
            }
            HOp::Imm(v) => Mem::abs(v.wrapping_add(off)),
            HOp::Mem(_) => {
                let src = self.resolve(addr);
                self.emit(hb::mov(HOp::Reg(SCRATCH_B), src));
                Mem::base_disp(SCRATCH_B, off)
            }
            HOp::Xmm(_) | HOp::Target(_) => unreachable!("address operands are integers"),
        }
    }
}

fn tmp_reads(ops: &[IrOp]) -> Vec<Vec<usize>> {
    let mut reads: Vec<Vec<usize>> = vec![Vec::new(); 64];
    let note = |v: &Val, i: usize, reads: &mut Vec<Vec<usize>>| {
        if let Val::Tmp(t) = v {
            reads[t.0 as usize].push(i);
        }
    };
    for (i, op) in ops.iter().enumerate() {
        match op {
            IrOp::Mov { s, .. } => note(s, i, &mut reads),
            IrOp::Bin { a, b, .. } | IrOp::Setc { a, b, .. } => {
                note(a, i, &mut reads);
                note(b, i, &mut reads);
            }
            IrOp::Un { a, .. } => note(a, i, &mut reads),
            IrOp::SetFlag { s, .. } => note(s, i, &mut reads),
            IrOp::Load { addr, .. } | IrOp::FLoad { addr, .. } => note(addr, i, &mut reads),
            IrOp::Store { s, addr, .. } => {
                note(s, i, &mut reads);
                note(addr, i, &mut reads);
            }
            IrOp::FStore { addr, .. } => note(addr, i, &mut reads),
            IrOp::Output { s } => note(s, i, &mut reads),
            IrOp::GetFlag { .. } | IrOp::FBin { .. } | IrOp::FMov { .. } => {}
        }
    }
    reads
}

fn alu_builder(op: BinOp) -> fn(HOp, HOp) -> HInst {
    match op {
        BinOp::Add => hb::add,
        BinOp::Sub => hb::sub,
        BinOp::And => hb::and,
        BinOp::Or => hb::or,
        BinOp::Xor => hb::xor,
        BinOp::Shl => hb::shl,
        BinOp::Shr => hb::shr,
        BinOp::Sar => hb::sar,
        BinOp::Ror => hb::ror,
        BinOp::Mul => hb::imul,
        BinOp::MulhU | BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => {
            unreachable!("{op:?} is lowered separately")
        }
    }
}

fn lower_op(ctx: &mut Ctx<'_>, op: &IrOp, i: usize) {
    match op {
        IrOp::Mov { d, s } => {
            match (d, ctx.resolve(*s)) {
                // Register-to-register / imm-to-anything moves can go
                // direct when no mem-mem conflict arises.
                (Dst::Reg(g), src) => {
                    let dst = ctx.greg(*g);
                    if matches!(dst, HOp::Mem(_)) && matches!(src, HOp::Mem(_)) {
                        ctx.to_eax(*s);
                        ctx.write_from_eax(Dst::Reg(*g), i);
                    } else {
                        ctx.emit(hb::mov(dst, src));
                        if src == HOp::Reg(SCRATCH_A) {
                            ctx.fwd = None;
                        }
                    }
                }
                (Dst::Tmp(_), _) => {
                    ctx.to_eax(*s);
                    ctx.write_from_eax(*d, i);
                }
            }
        }
        IrOp::Bin {
            op: BinOp::MulhU,
            d,
            a,
            b,
        } => {
            // edx:eax = eax * src; keep the high half.
            let b_op = ctx.resolve_second(*b);
            let b_op = match b_op {
                HOp::Imm(_) => {
                    ctx.emit(hb::mov(HOp::Reg(SCRATCH_B), b_op));
                    HOp::Reg(SCRATCH_B)
                }
                other => other,
            };
            ctx.to_eax(*a);
            ctx.emit(hb::mul_wide(b_op));
            ctx.emit(hb::mov(HOp::Reg(SCRATCH_A), HOp::Reg(SCRATCH_B)));
            ctx.write_from_eax(*d, i);
        }
        IrOp::Bin { op, d, a, b } => {
            let b_op = ctx.resolve_second(*b);
            ctx.to_eax(*a);
            ctx.emit(alu_builder(*op)(HOp::Reg(SCRATCH_A), b_op));
            ctx.write_from_eax(*d, i);
        }
        IrOp::Un {
            op: UnOp::Clz,
            d,
            a,
        } => {
            ctx.to_eax(*a);
            ctx.emit(hb::bsr(HOp::Reg(SCRATCH_B), HOp::Reg(SCRATCH_A)));
            ctx.emit(hb::jcc(Cc::E, 3));
            ctx.emit(hb::mov(HOp::Reg(SCRATCH_A), HOp::Imm(31)));
            ctx.emit(hb::sub(HOp::Reg(SCRATCH_A), HOp::Reg(SCRATCH_B)));
            ctx.emit(hb::jmp_rel(1));
            ctx.emit(hb::mov(HOp::Reg(SCRATCH_A), HOp::Imm(32)));
            ctx.write_from_eax(*d, i);
        }
        IrOp::Un { op, d, a } => {
            ctx.to_eax(*a);
            match op {
                UnOp::Not => ctx.emit(hb::not(HOp::Reg(SCRATCH_A))),
                UnOp::Neg => ctx.emit(hb::neg(HOp::Reg(SCRATCH_A))),
                UnOp::Clz => unreachable!(),
            }
            ctx.write_from_eax(*d, i);
        }
        IrOp::Setc { d, cc, a, b } => {
            let b_op = ctx.resolve_second(*b);
            ctx.to_eax(*a);
            ctx.emit(hb::cmp(HOp::Reg(SCRATCH_A), b_op));
            ctx.emit(hb::setcc(host_cc(*cc), HOp::Reg(SCRATCH_A)));
            ctx.write_from_eax(*d, i);
        }
        IrOp::GetFlag { d, f } => {
            ctx.emit(hb::mov(HOp::Reg(SCRATCH_A), HOp::Mem(env::flag_mem(*f))));
            ctx.fwd = None;
            ctx.write_from_eax(*d, i);
        }
        IrOp::SetFlag { f, s } => {
            let src = ctx.resolve(*s);
            if matches!(src, HOp::Mem(_)) {
                ctx.to_eax(*s);
                ctx.emit(hb::mov(HOp::Mem(env::flag_mem(*f)), HOp::Reg(SCRATCH_A)));
            } else {
                ctx.emit(hb::mov(HOp::Mem(env::flag_mem(*f)), src));
                if src == HOp::Reg(SCRATCH_A) {
                    // eax still holds the forwarded value; keep it.
                }
            }
        }
        IrOp::Load {
            d,
            addr,
            off,
            width,
        } => {
            let mem = ctx.mem_operand(*addr, *off);
            let load = match *width {
                Width::B32 => hb::mov(HOp::Reg(SCRATCH_A), HOp::Mem(mem)),
                Width::B16 => hb::movzxw(HOp::Reg(SCRATCH_A), HOp::Mem(mem)),
                Width::B8 => hb::movzxb(HOp::Reg(SCRATCH_A), HOp::Mem(mem)),
            };
            ctx.emit(load);
            ctx.fwd = None;
            ctx.write_from_eax(*d, i);
        }
        IrOp::Store {
            s,
            addr,
            off,
            width,
        } => {
            let mut mem = ctx.mem_operand(*addr, *off);
            // The store value may need to travel through eax; if the
            // address was forwarded there, rebase it onto edx first.
            if mem.base == Some(SCRATCH_A) {
                ctx.emit(hb::mov(HOp::Reg(SCRATCH_B), HOp::Reg(SCRATCH_A)));
                mem = Mem {
                    base: Some(SCRATCH_B),
                    ..mem
                };
            }
            let src = ctx.resolve(*s);
            match width {
                Width::B32 => {
                    if matches!(src, HOp::Mem(_)) {
                        ctx.to_eax(*s);
                        ctx.emit(hb::mov(HOp::Mem(mem), HOp::Reg(SCRATCH_A)));
                    } else {
                        ctx.emit(hb::mov(HOp::Mem(mem), src));
                    }
                }
                narrow => {
                    if !matches!(src, HOp::Reg(_)) {
                        ctx.to_eax(*s);
                    } else if src != HOp::Reg(SCRATCH_A) {
                        ctx.emit(hb::mov(HOp::Reg(SCRATCH_A), src));
                        ctx.fwd = None;
                    }
                    let store = if *narrow == Width::B8 {
                        hb::movb(HOp::Mem(mem), HOp::Reg(SCRATCH_A))
                    } else {
                        hb::movw(HOp::Mem(mem), HOp::Reg(SCRATCH_A))
                    };
                    ctx.emit(store);
                }
            }
        }
        IrOp::FBin { op, d, a, b } => {
            ctx.emit(hb::movss(
                HOp::Xmm(Xmm::new(0)),
                HOp::Mem(env::freg_mem(*a)),
            ));
            let src = HOp::Mem(env::freg_mem(*b));
            let alu = match op {
                BinOp::FAdd => hb::addss(Xmm::new(0), src),
                BinOp::FSub => hb::subss(Xmm::new(0), src),
                BinOp::FMul => hb::mulss(Xmm::new(0), src),
                BinOp::FDiv => hb::divss(Xmm::new(0), src),
                _ => unreachable!("{op:?} is not a float operator"),
            };
            ctx.emit(alu);
            ctx.emit(hb::movss(
                HOp::Mem(env::freg_mem(*d)),
                HOp::Xmm(Xmm::new(0)),
            ));
        }
        IrOp::FMov { d, s } => {
            ctx.emit(hb::movss(
                HOp::Xmm(Xmm::new(0)),
                HOp::Mem(env::freg_mem(*s)),
            ));
            ctx.emit(hb::movss(
                HOp::Mem(env::freg_mem(*d)),
                HOp::Xmm(Xmm::new(0)),
            ));
        }
        IrOp::FLoad { d, addr, off } => {
            let mem = ctx.mem_operand(*addr, *off);
            ctx.emit(hb::movss(HOp::Xmm(Xmm::new(0)), HOp::Mem(mem)));
            ctx.emit(hb::movss(
                HOp::Mem(env::freg_mem(*d)),
                HOp::Xmm(Xmm::new(0)),
            ));
        }
        IrOp::FStore { s, addr, off } => {
            let mem = ctx.mem_operand(*addr, *off);
            ctx.emit(hb::movss(
                HOp::Xmm(Xmm::new(0)),
                HOp::Mem(env::freg_mem(*s)),
            ));
            ctx.emit(hb::movss(HOp::Mem(mem), HOp::Xmm(Xmm::new(0))));
        }
        IrOp::Output { s } => {
            ctx.to_eax(*s);
            ctx.emit(hb::out());
        }
    }
}

/// Lowers a straight-line IR body to host instructions under the block
/// register map.
#[must_use]
pub fn lower_ops(ops: &[IrOp], map: &RegMap) -> Vec<HInst> {
    let mut ctx = Ctx {
        map,
        out: Vec::new(),
        fwd: None,
        reads: tmp_reads(ops),
    };
    for (i, op) in ops.iter().enumerate() {
        lower_op(&mut ctx, op, i);
    }
    ctx.out
}

/// Lowers a branch condition `(cc, a, b)`: emits the compare and returns
/// the host condition the caller's stub should branch on.
#[must_use]
pub fn lower_branch_cond(cc: PredOp, a: Val, b: Val, map: &RegMap) -> (Vec<HInst>, Cc) {
    let mut ctx = Ctx {
        map,
        out: Vec::new(),
        fwd: None,
        reads: vec![Vec::new(); 64],
    };
    let b_op = ctx.resolve_second(b);
    ctx.to_eax(a);
    ctx.emit(hb::cmp(HOp::Reg(SCRATCH_A), b_op));
    (ctx.out, host_cc(cc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lift::lift;
    use pdbt_isa::Flag;
    use pdbt_isa_arm::builders::*;
    use pdbt_isa_arm::{Operand, Reg as GReg};

    fn all_env() -> RegMap {
        RegMap::all_env()
    }

    #[test]
    fn plain_add_lowers_small() {
        let l = lift(&add(GReg::R0, GReg::R1, Operand::Reg(GReg::R2)), 0).unwrap();
        let host = lower_ops(&l.body, &all_env());
        // mov eax, [r1]; add eax, [r2]; mov [r0], eax.
        assert_eq!(host.len(), 3, "{host:?}");
    }

    #[test]
    fn cached_registers_shrink_code() {
        let l = lift(&add(GReg::R0, GReg::R0, Operand::Imm(1)), 0).unwrap();
        let map = RegMap::allocate(&[GReg::R0]);
        let host = lower_ops(&l.body, &map);
        // With r0 in ecx: mov eax, ecx; add eax, $1; mov ecx, eax.
        assert_eq!(host.len(), 3);
        assert!(host.iter().all(|i| i
            .operands
            .iter()
            .all(|o| !matches!(o, HOp::Mem(m) if m.base == Some(HReg::Ebp)))));
    }

    #[test]
    fn adds_lowers_much_larger_than_add() {
        let plain = lower_ops(
            &lift(&add(GReg::R0, GReg::R1, Operand::Imm(1)), 0)
                .unwrap()
                .body,
            &all_env(),
        );
        let flags = lower_ops(
            &lift(&add(GReg::R0, GReg::R1, Operand::Imm(1)).with_s(), 0)
                .unwrap()
                .body,
            &all_env(),
        );
        assert!(
            flags.len() >= plain.len() * 3,
            "{} vs {}",
            flags.len(),
            plain.len()
        );
    }

    #[test]
    fn lowered_blocks_execute_correctly() {
        // Differential test: run `adds r0, r1, r2` through lift+lower on a
        // host CPU and through the guest interpreter; compare results.
        use pdbt_isa_x86::Cpu as HCpu;
        let guest_inst = add(GReg::R0, GReg::R1, Operand::Reg(GReg::R2)).with_s();
        for (a, b) in [(1u32, 2u32), (u32::MAX, 1), (0x7fff_ffff, 1), (0, 0)] {
            // Host side.
            let mut h = HCpu::new();
            h.mem.map(0, env::ENV_SIZE);
            h.write(HReg::Ebp, 0);
            h.mem.store32(env::reg_offset(GReg::R1) as u32, a).unwrap();
            h.mem.store32(env::reg_offset(GReg::R2) as u32, b).unwrap();
            let l = lift(&guest_inst, 0).unwrap();
            let host = lower_ops(&l.body, &all_env());
            pdbt_isa_x86::exec_block(&mut h, &host, 1000).unwrap();
            // Guest side.
            let mut g = pdbt_isa_arm::Cpu::new();
            g.write(GReg::R1, a);
            g.write(GReg::R2, b);
            pdbt_isa_arm::step(&mut g, &guest_inst).unwrap();
            let host_r0 = h.mem.load32(env::reg_offset(GReg::R0) as u32).unwrap();
            assert_eq!(host_r0, g.read(GReg::R0), "result for {a:#x}+{b:#x}");
            for f in Flag::ALL {
                let hf = h.mem.load32(env::flag_offset(f) as u32).unwrap() != 0;
                assert_eq!(hf, g.flags.get(f), "flag {f} for {a:#x}+{b:#x}");
            }
        }
    }

    #[test]
    fn clz_lowering_executes() {
        use pdbt_isa_x86::Cpu as HCpu;
        for v in [0u32, 1, 0x10, 0x8000_0000, u32::MAX] {
            let mut h = HCpu::new();
            h.mem.map(0, env::ENV_SIZE);
            h.write(HReg::Ebp, 0);
            h.mem.store32(env::reg_offset(GReg::R1) as u32, v).unwrap();
            let l = lift(&clz(GReg::R0, GReg::R1), 0).unwrap();
            let host = lower_ops(&l.body, &all_env());
            pdbt_isa_x86::exec_block(&mut h, &host, 1000).unwrap();
            let r0 = h.mem.load32(env::reg_offset(GReg::R0) as u32).unwrap();
            assert_eq!(r0, v.leading_zeros(), "clz({v:#x})");
        }
    }

    #[test]
    fn branch_cond_lowering() {
        let (insts, cc) =
            lower_branch_cond(PredOp::Ne, Val::Tmp(Tmp(0)), Val::Const(0), &all_env());
        assert_eq!(cc, Cc::Ne);
        assert!(insts.iter().any(|i| i.op == pdbt_isa_x86::Op::Cmp));
    }

    #[test]
    fn umull_lowering_executes() {
        use pdbt_isa_x86::Cpu as HCpu;
        let mut h = HCpu::new();
        h.mem.map(0, env::ENV_SIZE);
        h.write(HReg::Ebp, 0);
        h.mem
            .store32(env::reg_offset(GReg::R2) as u32, 0xffff_ffff)
            .unwrap();
        h.mem
            .store32(env::reg_offset(GReg::R3) as u32, 0x10)
            .unwrap();
        let l = lift(&umull(GReg::R0, GReg::R1, GReg::R2, GReg::R3), 0).unwrap();
        let host = lower_ops(&l.body, &all_env());
        pdbt_isa_x86::exec_block(&mut h, &host, 1000).unwrap();
        assert_eq!(
            h.mem.load32(env::reg_offset(GReg::R0) as u32).unwrap(),
            0xffff_fff0
        );
        assert_eq!(h.mem.load32(env::reg_offset(GReg::R1) as u32).unwrap(), 0xf);
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use crate::lift::{lift, lift_omit};
    use pdbt_isa::{Flag, FlagSet};
    use pdbt_isa_arm::builders::*;
    use pdbt_isa_arm::{MemAddr, Operand, Reg as GReg};
    use pdbt_isa_x86::{Cpu as HCpu, Reg as HReg};

    /// Regression: a `push` whose stored value lives in the environment
    /// must not clobber the store address forwarded in `eax`
    /// (found by the workload integration tests).
    #[test]
    fn store_address_survives_value_materialization() {
        let mut h = HCpu::new();
        h.mem.map(0, env::ENV_SIZE);
        h.mem.map(0x8_0000, 0x1000);
        h.write(HReg::Ebp, 0);
        // Guest sp = 0x81000, r4/r6 in env (nothing cached).
        h.mem
            .store32(env::reg_offset(GReg::Sp) as u32, 0x8_1000)
            .unwrap();
        h.mem
            .store32(env::reg_offset(GReg::R4) as u32, 0xaaaa)
            .unwrap();
        h.mem
            .store32(env::reg_offset(GReg::R6) as u32, 0xbbbb)
            .unwrap();
        let l = lift(&push([GReg::R4, GReg::R6]), 0).unwrap();
        let host = lower_ops(&l.body, &RegMap::all_env());
        pdbt_isa_x86::exec_block(&mut h, &host, 1000).unwrap();
        // Values pushed at the right addresses, sp updated.
        assert_eq!(
            h.mem.load32(env::reg_offset(GReg::Sp) as u32).unwrap(),
            0x8_0ff8
        );
        assert_eq!(h.mem.load32(0x8_0ff8).unwrap(), 0xaaaa);
        assert_eq!(h.mem.load32(0x8_0ffc).unwrap(), 0xbbbb);
    }

    /// Dead flag computations are eliminated entirely.
    #[test]
    fn lift_omit_removes_dead_flag_work() {
        let inst = add(GReg::R0, GReg::R1, Operand::Imm(1)).with_s();
        let full = lift(&inst, 0).unwrap().body.len();
        let none = lift_omit(&inst, 0, FlagSet::NZCV).unwrap().body.len();
        let partial = lift_omit(&inst, 0, FlagSet::NZCV - FlagSet::single(Flag::Z))
            .unwrap()
            .body
            .len();
        assert!(none < partial, "{none} < {partial}");
        assert!(partial < full, "{partial} < {full}");
        // With everything omitted, adds degenerates to plain add.
        let plain = lift(&add(GReg::R0, GReg::R1, Operand::Imm(1)), 0)
            .unwrap()
            .body
            .len();
        assert_eq!(none, plain);
    }

    /// DCE never removes memory operations.
    #[test]
    fn dce_preserves_stores_and_loads() {
        let l = lift_omit(
            &str_(
                GReg::R0,
                MemAddr::BaseImm {
                    base: GReg::R1,
                    offset: 4,
                },
            ),
            0,
            FlagSet::NZCV,
        )
        .unwrap();
        assert!(l.body.iter().any(|op| matches!(op, IrOp::Store { .. })));
        let l = lift_omit(
            &ldr(
                GReg::R0,
                MemAddr::BaseImm {
                    base: GReg::R1,
                    offset: 4,
                },
            ),
            0,
            FlagSet::NZCV,
        )
        .unwrap();
        assert!(l.body.iter().any(|op| matches!(op, IrOp::Load { .. })));
    }

    /// Cross-check: lowered code equals interpreter over a batch of
    /// states for every DP opcode with env-resident registers.
    #[test]
    fn lowered_dp_ops_match_interpreter_in_env_mode() {
        type B = fn(GReg, GReg, Operand) -> pdbt_isa_arm::Inst;
        const OPS: [B; 11] = [add, sub, and, orr, eor, bic, rsb, lsl, lsr, asr, ror];
        for op in OPS {
            for (a, b) in [(5u32, 3u32), (0, 0), (u32::MAX, 1), (0x8000_0000, 31)] {
                let inst = op(GReg::R0, GReg::R1, Operand::Reg(GReg::R2));
                // Host side.
                let mut h = HCpu::new();
                h.mem.map(0, env::ENV_SIZE);
                h.write(HReg::Ebp, 0);
                h.mem.store32(env::reg_offset(GReg::R1) as u32, a).unwrap();
                h.mem.store32(env::reg_offset(GReg::R2) as u32, b).unwrap();
                let l = lift(&inst, 0).unwrap();
                let host = lower_ops(&l.body, &RegMap::all_env());
                pdbt_isa_x86::exec_block(&mut h, &host, 1000).unwrap();
                // Guest side.
                let mut g = pdbt_isa_arm::Cpu::new();
                g.write(GReg::R1, a);
                g.write(GReg::R2, b);
                pdbt_isa_arm::step(&mut g, &inst).unwrap();
                let got = h.mem.load32(env::reg_offset(GReg::R0) as u32).unwrap();
                assert_eq!(got, g.read(GReg::R0), "{inst} with {a:#x},{b:#x}");
            }
        }
    }
}
