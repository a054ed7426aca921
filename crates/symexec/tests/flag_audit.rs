//! Ties `Inst::flag_defs()` / `Inst::flag_uses()` to the semantics.
//!
//! Flag liveness and delegation trust those two tables; the
//! instruction bodies are written without looking at them. `Audit` is
//! a third [`Machine`] (after the interpreters' `Cpu`s and the
//! verifier's symbolic states): it runs the shared `step` bodies on a
//! concrete `Cpu` and records which flags they read and write, so the
//! tables can be checked against what the semantics actually touch —
//! for every opcode, with and without `s`, over operand shapes and
//! values that reach every data-dependent case.

use pdbt_isa::{Addr, Flag, FlagSet, Machine, Width};
use std::cell::Cell;

struct Audit<M> {
    inner: M,
    read: Cell<FlagSet>,
    written: FlagSet,
}

impl<M> Audit<M> {
    fn new(inner: M) -> Audit<M> {
        Audit {
            inner,
            read: Cell::new(FlagSet::EMPTY),
            written: FlagSet::EMPTY,
        }
    }

    /// What stepping `inst` touched must lie within what its tables say.
    fn assert_within(&self, inst: &dyn std::fmt::Display, defs: FlagSet, uses: FlagSet) {
        let (written, read) = (self.written, self.read.get());
        assert!(
            defs.contains_all(written),
            "`{inst}` wrote {written} but defines {defs}"
        );
        assert!(
            uses.contains_all(read),
            "`{inst}` read {read} but uses {uses}"
        );
    }
}

impl<M: Machine> Machine for Audit<M> {
    type W = M::W;
    type B = M::B;
    type D = M::D;
    type Reg = M::Reg;
    type FReg = M::FReg;
    type Error = M::Error;

    fn reg(&self, r: M::Reg) -> M::W {
        self.inner.reg(r)
    }
    fn set_reg(&mut self, r: M::Reg, v: M::W) {
        self.inner.set_reg(r, v);
    }
    fn freg(&self, r: M::FReg) -> M::W {
        self.inner.freg(r)
    }
    fn set_freg(&mut self, r: M::FReg, v: M::W) {
        self.inner.set_freg(r, v);
    }
    fn flag(&self, f: Flag) -> M::B {
        self.read.set(self.read.get() | FlagSet::single(f));
        self.inner.flag(f)
    }
    fn set_flag(&mut self, f: Flag, v: M::B) {
        self.written |= FlagSet::single(f);
        self.inner.set_flag(f, v);
    }
    fn set_flag_if(&mut self, cond: &M::B, f: Flag, v: M::B) {
        // A conditional definition: a write, and not a read.
        self.written |= FlagSet::single(f);
        self.inner.set_flag_if(cond, f, v);
    }
    fn load(&self, addr: M::W, width: Width) -> Result<M::W, M::Error> {
        self.inner.load(addr, width)
    }
    fn store(&mut self, addr: M::W, v: M::W, width: Width) -> Result<(), M::Error> {
        self.inner.store(addr, v, width)
    }
    fn output(&mut self, v: M::W) {
        self.inner.output(v);
    }
    fn decide(&self, cond: M::B) -> Result<bool, M::Error> {
        self.inner.decide(cond)
    }
    fn target(&self, addr: M::W) -> Result<Addr, M::Error> {
        self.inner.target(addr)
    }
}

const DATA: u32 = 0x10_0000;

/// Register values that reach the data-dependent cases: a zero and a
/// nonzero shift amount, a zero `bsr` source, both signs.
const VALUES: [u32; 4] = [0, 1, 33, 0x8000_0000];

#[test]
fn guest_semantics_touch_only_the_flags_the_tables_name() {
    use pdbt_isa::Cond;
    use pdbt_isa_arm::{Cpu, FReg, Inst, MemAddr, Op, Operand, Reg, RegList, Shape, ShiftKind};

    let flex = [
        Operand::Reg(Reg::R2),
        Operand::Imm(0),
        Operand::Imm(5),
        Operand::Shifted {
            rm: Reg::R2,
            kind: ShiftKind::Lsr,
            amount: 3,
        },
    ];
    let (r, f) = (Operand::Reg, |i| Operand::FReg(FReg::new(i)));
    let mem = Operand::Mem(MemAddr::BaseImm {
        base: Reg::R1,
        offset: 8,
    });
    let shapes = |op: Op| -> Vec<Vec<Operand>> {
        match op.shape() {
            Shape::Dp3 => flex
                .iter()
                .map(|o| vec![r(Reg::R0), r(Reg::R3), *o])
                .collect(),
            Shape::Dp2 | Shape::Cmp2 => flex.iter().map(|o| vec![r(Reg::R0), *o]).collect(),
            Shape::Unary2 => vec![vec![r(Reg::R0), r(Reg::R2)]],
            Shape::Mul3 => vec![vec![r(Reg::R0), r(Reg::R2), r(Reg::R3)]],
            Shape::Mul4 => vec![vec![r(Reg::R0), r(Reg::R4), r(Reg::R2), r(Reg::R3)]],
            Shape::LdSt => vec![vec![r(Reg::R0), mem]],
            Shape::Stack => vec![vec![Operand::RegList(RegList::from_regs([
                Reg::R4,
                Reg::R5,
            ]))]],
            Shape::Branch => vec![vec![Operand::Target(16)]],
            Shape::BranchReg => vec![vec![r(Reg::R2)]],
            Shape::Sys => vec![vec![Operand::Imm(0)], vec![Operand::Imm(1)]],
            Shape::Vfp3 => vec![vec![f(0), f(1), f(2)]],
            Shape::Vfp2 => vec![vec![f(0), f(1)]],
            Shape::VfpLdSt => vec![vec![f(0), mem]],
        }
    };
    let mut checked = 0;
    for op in Op::ALL {
        for operands in shapes(op) {
            let base = Inst::new(op, operands).expect("a valid shape");
            for s in [false, true] {
                if s && !op.supports_s() {
                    continue;
                }
                for cond in [Cond::Al, Cond::Gt, Cond::Cc] {
                    let mut inst = base.clone().with_cond(cond);
                    inst.s = s;
                    for v in VALUES {
                        let mut cpu = Cpu::new();
                        cpu.mem.map(DATA, 0x1000);
                        cpu.write(Reg::R1, DATA);
                        cpu.write(Reg::Sp, DATA + 0x800);
                        cpu.write(Reg::R2, v);
                        cpu.write(Reg::R3, v ^ 1);
                        cpu.write_f(FReg::new(1), f32::from_bits(v.wrapping_mul(0x7fc0_0000)));
                        let mut m = Audit::new(cpu);
                        let _ = pdbt_isa_arm::step(&mut m, &inst);
                        m.assert_within(&inst, inst.flag_defs(), inst.flag_uses());
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 45 * 4, "every opcode was stepped");
}

#[test]
fn host_semantics_touch_only_the_flags_the_tables_name() {
    use pdbt_isa_x86::{Cc, Cpu, Inst, Mem, Op, Operand, Reg, Shape, Xmm};

    let r = Operand::Reg;
    let mem = Operand::Mem(Mem::base_disp(Reg::Ebp, 8));
    let x = |i| Operand::Xmm(Xmm::new(i));
    let shapes = |op: Op| -> Vec<Vec<Operand>> {
        match op.shape() {
            Shape::Alu2 | Shape::Mov2 => vec![
                vec![r(Reg::Eax), r(Reg::Ecx)],
                vec![r(Reg::Eax), Operand::Imm(0)],
                vec![r(Reg::Eax), Operand::Imm(3)],
                vec![r(Reg::Eax), mem],
                vec![mem, r(Reg::Ecx)],
            ],
            Shape::NarrowStore => vec![vec![mem, r(Reg::Ecx)]],
            Shape::RegMem => vec![vec![r(Reg::Eax), r(Reg::Ecx)], vec![r(Reg::Eax), mem]],
            Shape::Unary => vec![vec![r(Reg::Ecx)], vec![mem]],
            Shape::Branch => vec![vec![Operand::Target(0)], vec![r(Reg::Ecx)]],
            Shape::CondBranch => vec![vec![Operand::Target(0)]],
            Shape::SetCc => vec![vec![r(Reg::Eax)]],
            Shape::Nullary => vec![vec![]],
            Shape::Sse2Op => vec![vec![x(0), x(1)], vec![x(0), mem]],
            Shape::SseMov => vec![vec![x(0), x(1)], vec![x(0), mem], vec![mem, x(1)]],
        }
    };
    let mut checked = 0;
    for op in Op::ALL {
        let ccs: Vec<Option<Cc>> = match op.shape() {
            Shape::CondBranch | Shape::SetCc => Cc::ALL.into_iter().map(Some).collect(),
            _ => vec![None],
        };
        for operands in shapes(op) {
            for cc in &ccs {
                let inst = match cc {
                    Some(cc) => Inst::new_cc(op, *cc, operands.clone()),
                    None => Inst::new(op, operands.clone()),
                }
                .expect("a valid shape");
                for v in VALUES {
                    let mut cpu = Cpu::new();
                    cpu.mem.map(DATA, 0x1000);
                    cpu.write(Reg::Ebp, DATA);
                    cpu.write(Reg::Esp, DATA + 0x800);
                    cpu.write(Reg::Ecx, v);
                    cpu.mem.store32(DATA + 8, v ^ 1).unwrap();
                    cpu.write_x(Xmm::new(1), f32::from_bits(v.wrapping_mul(0x7fc0_0000)));
                    let mut m = Audit::new(cpu);
                    let _ = pdbt_isa_x86::step(&mut m, &inst);
                    m.assert_within(&inst, inst.flag_defs(), inst.flag_uses());
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 39 * 4, "every opcode was stepped");
}
