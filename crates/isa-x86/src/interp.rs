//! Host CPU state and block executor.
//!
//! Translated code runs as straight-line blocks with instruction-relative
//! internal jumps. A block finishes by executing `hlt` (guest exit),
//! or `jmp <r/m/imm>` whose operand value is the *next guest PC* — the
//! same exit convention QEMU's translation blocks use to return control
//! to the dispatcher.

use crate::inst::{Inst, Op};
use crate::operand::{Mem, Operand};
use crate::reg::{Reg, Xmm};
use pdbt_isa::{
    Addr, BinOp, Concrete, Domain, ExecError, Flag, Flags, Machine, Memory, PredOp, UnOp, Width,
};

/// The architectural state of the host CPU.
#[derive(Debug, Clone, Default)]
pub struct Cpu {
    /// General-purpose registers.
    pub regs: [u32; 8],
    /// Scalar-float registers.
    pub xmm: [f32; 8],
    /// `EFLAGS` (`n`=SF, `z`=ZF, `c`=CF, `v`=OF).
    pub flags: Flags,
    /// Host memory (in the DBT, guest memory is identity-mapped here and
    /// the guest register array lives at the environment base).
    pub mem: Memory,
    /// Values emitted by `out`.
    pub output: Vec<u32>,
}

impl Cpu {
    /// Creates a CPU with zeroed registers and empty memory.
    #[must_use]
    pub fn new() -> Cpu {
        Cpu::default()
    }

    /// Reads a register.
    #[must_use]
    pub fn read(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register.
    pub fn write(&mut self, r: Reg, v: u32) {
        self.regs[r.index()] = v;
    }

    /// Reads a float register.
    #[must_use]
    pub fn read_x(&self, x: Xmm) -> f32 {
        self.xmm[x.index()]
    }

    /// Writes a float register.
    pub fn write_x(&mut self, x: Xmm, v: f32) {
        self.xmm[x.index()] = v;
    }
}

/// How a block finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockExit {
    /// Execution fell off the end of the block.
    Fell,
    /// `jmp <operand>`: continue at this guest PC.
    Jumped(Addr),
    /// `hlt`: the guest program exited.
    Halted,
}

/// The model backend's state: concrete values, real memory, and every
/// condition and jump target decidable.
impl Machine for Cpu {
    type W = u32;
    type B = bool;
    type D = Concrete;
    type Reg = Reg;
    type FReg = Xmm;
    type Error = ExecError;

    #[inline]
    fn reg(&self, r: Reg) -> u32 {
        self.read(r)
    }
    #[inline]
    fn set_reg(&mut self, r: Reg, v: u32) {
        self.write(r, v);
    }
    #[inline]
    fn freg(&self, x: Xmm) -> u32 {
        self.read_x(x).to_bits()
    }
    #[inline]
    fn set_freg(&mut self, x: Xmm, v: u32) {
        self.write_x(x, f32::from_bits(v));
    }
    #[inline]
    fn flag(&self, f: Flag) -> bool {
        self.flags.get(f)
    }
    #[inline]
    fn set_flag(&mut self, f: Flag, v: bool) {
        self.flags.set(f, v);
    }
    #[inline]
    fn load(&self, addr: u32, width: Width) -> Result<u32, ExecError> {
        self.mem.load(addr, width)
    }
    #[inline]
    fn store(&mut self, addr: u32, v: u32, width: Width) -> Result<(), ExecError> {
        self.mem.store(addr, v, width)
    }
    #[inline]
    fn output(&mut self, v: u32) {
        self.output.push(v);
    }
    #[inline]
    fn decide(&self, cond: bool) -> Result<bool, ExecError> {
        Ok(cond)
    }
    #[inline]
    fn target(&self, addr: u32) -> Result<Addr, ExecError> {
        Ok(addr)
    }
}

/// The flags of an arithmetic result, for the threaded handlers (which
/// assign `Cpu::flags` whole where [`step`] writes flag by flag).
#[inline]
pub(crate) fn flags_of(result: u32, c: bool, v: bool) -> Flags {
    let (n, z) = Concrete::nz(&result);
    Flags { n, z, c, v }
}

fn malformed<E: From<ExecError>>(detail: String) -> E {
    ExecError::MalformedInstruction { detail }.into()
}

fn mem_addr<M: Machine<Reg = Reg>>(m: &M, mem: Mem) -> M::W {
    let mut a = M::D::c(mem.disp as u32);
    if let Some(b) = mem.base {
        a = M::D::bin(BinOp::Add, m.reg(b), a);
    }
    if let Some(i) = mem.index {
        a = M::D::bin(BinOp::Add, a, m.reg(i));
    }
    a
}

fn read_operand<M: Machine<Reg = Reg>>(m: &M, o: &Operand, width: Width) -> Result<M::W, M::Error> {
    match o {
        Operand::Reg(r) => Ok(m.reg(*r)),
        Operand::Imm(v) => Ok(M::D::c(*v as u32)),
        Operand::Mem(mem) => m.load(mem_addr(m, *mem), width),
        Operand::Xmm(_) | Operand::Target(_) => {
            Err(malformed(format!("{o} is not an integer source")))
        }
    }
}

fn write_operand<M: Machine<Reg = Reg>>(
    m: &mut M,
    o: &Operand,
    v: M::W,
    width: Width,
) -> Result<(), M::Error> {
    match o {
        Operand::Reg(r) => {
            m.set_reg(*r, v);
            Ok(())
        }
        Operand::Mem(mem) => m.store(mem_addr(m, *mem), v, width),
        other => Err(malformed(format!("{other} is not a writable destination"))),
    }
}

/// A scalar-float source: an `xmm` register or 32 bits of memory.
fn read_f<M: Machine<Reg = Reg, FReg = Xmm>>(m: &M, o: &Operand) -> Result<M::W, M::Error> {
    match o {
        Operand::Xmm(x) => Ok(m.freg(*x)),
        Operand::Mem(mem) => m.load(mem_addr(m, *mem), Width::B32),
        other => Err(malformed(format!("{other} is not a float source"))),
    }
}

/// The operands of `op xmm, xmm/m32`: the register and both values.
fn sse_operands<M: Machine<Reg = Reg, FReg = Xmm>>(
    m: &M,
    ops: &[Operand],
) -> Result<(Xmm, M::W, M::W), M::Error> {
    let Operand::Xmm(x) = ops[0] else {
        unreachable!("validated")
    };
    Ok((x, m.freg(x), read_f(m, &ops[1])?))
}

/// The result of stepping one instruction inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Continue with the next instruction.
    Next,
    /// Continue this many instructions past the next one.
    Rel(i32),
    /// Leave the block.
    Exit(BlockExit),
}

/// Executes one host instruction on `m`: the host ISA's semantics,
/// written once. At [`Cpu`] this is the model backend (and the threaded
/// backend's fallback and oracle); at the verifier's symbolic state it
/// is the host half of the equivalence checker.
///
/// # Errors
///
/// A malformed shape or `call`/`ret`, as the machine's error; whatever
/// the machine's memory raises; whatever it raises when asked to decide
/// a condition or resolve a jump target it cannot.
pub fn step<M: Machine<Reg = Reg, FReg = Xmm>>(m: &mut M, inst: &Inst) -> Result<Step, M::Error> {
    use Op::*;
    use Width::B32;
    let ops = &inst.operands;
    match inst.op {
        Mov | MovB | MovW | MovzxB | MovzxW => {
            // A narrow store narrows the write, a widening load the read.
            let (from, to) = match inst.op {
                MovB | MovW => (B32, inst.op.access_width()),
                _ => (inst.op.access_width(), B32),
            };
            let v = read_operand(m, &ops[1], from)?;
            write_operand(m, &ops[0], v, to)?;
        }
        Lea => {
            let mem = ops[1]
                .as_mem()
                .ok_or_else(|| malformed("lea needs a memory source".into()))?;
            write_operand(m, &ops[0], mem_addr(m, mem), B32)?;
        }
        Add | Adc | Sub | Sbb | Cmp => {
            let a = read_operand(m, &ops[0], B32)?;
            let b = read_operand(m, &ops[1], B32)?;
            // CF after a subtraction is the borrow itself.
            let (res, c, v) = match inst.op {
                Add => M::D::add_with_carry(a, b, None),
                Adc => M::D::add_with_carry(a, b, Some(m.flag(Flag::C))),
                Sbb => M::D::sub_with_borrow(a, b, Some(m.flag(Flag::C))),
                _ => M::D::sub_with_borrow(a, b, None),
            };
            m.set_nz(&res);
            m.set_flag(Flag::C, c);
            m.set_flag(Flag::V, v);
            if inst.op != Cmp {
                write_operand(m, &ops[0], res, B32)?;
            }
        }
        And | Or | Xor | Test => {
            let a = read_operand(m, &ops[0], B32)?;
            let b = read_operand(m, &ops[1], B32)?;
            let op = match inst.op {
                Or => BinOp::Or,
                Xor => BinOp::Xor,
                _ => BinOp::And,
            };
            let res = M::D::bin(op, a, b);
            m.set_nz(&res);
            m.set_flag(Flag::C, M::D::bit(M::D::c(0)));
            m.set_flag(Flag::V, M::D::bit(M::D::c(0)));
            if inst.op != Test {
                write_operand(m, &ops[0], res, B32)?;
            }
        }
        Imul => {
            let a = read_operand(m, &ops[0], B32)?;
            let b = read_operand(m, &ops[1], B32)?;
            // Flags are modelled as undefined (left unchanged).
            write_operand(m, &ops[0], M::D::bin(BinOp::Mul, a, b), B32)?;
        }
        MulWide => {
            let a = m.reg(Reg::Eax);
            let b = read_operand(m, &ops[0], B32)?;
            m.set_reg(Reg::Eax, M::D::bin(BinOp::Mul, a.clone(), b.clone()));
            m.set_reg(Reg::Edx, M::D::bin(BinOp::MulhU, a, b));
        }
        Shl | Shr | Sar | Ror => {
            let op = match inst.op {
                Shl => BinOp::Shl,
                Shr => BinOp::Shr,
                Sar => BinOp::Sar,
                _ => BinOp::Ror,
            };
            let a = read_operand(m, &ops[0], B32)?;
            let amount = M::D::bin(BinOp::And, read_operand(m, &ops[1], B32)?, M::D::c(31));
            let res = M::D::bin(op, a.clone(), amount.clone());
            // A zero (masked) amount leaves every flag unchanged; the
            // destination is rewritten either way.
            let moved = M::D::pred(PredOp::Ne, amount.clone(), M::D::c(0));
            if inst.op != Ror {
                let (n, z) = M::D::nz(&res);
                m.set_flag_if(&moved, Flag::N, n);
                m.set_flag_if(&moved, Flag::Z, z);
            }
            let at = M::D::carry_distance(op, amount);
            m.set_flag_if(&moved, Flag::C, M::D::shift_carry(op, a, at));
            write_operand(m, &ops[0], res, B32)?;
        }
        Not => {
            let a = read_operand(m, &ops[0], B32)?;
            write_operand(m, &ops[0], M::D::un(UnOp::Not, a), B32)?;
        }
        Neg => {
            let a = read_operand(m, &ops[0], B32)?;
            let (_, c, v) = M::D::sub_with_borrow(M::D::c(0), a.clone(), None);
            let res = M::D::un(UnOp::Neg, a);
            m.set_nz(&res);
            m.set_flag(Flag::C, c);
            m.set_flag(Flag::V, v);
            write_operand(m, &ops[0], res, B32)?;
        }
        Bsr => {
            let src = read_operand(m, &ops[1], B32)?;
            let zero = M::D::pred(PredOp::Eq, src.clone(), M::D::c(0));
            m.set_flag(Flag::Z, zero.clone());
            // The destination is untouched when the source is zero.
            if !m.decide(zero)? {
                let top = M::D::bin(BinOp::Sub, M::D::c(31), M::D::un(UnOp::Clz, src));
                write_operand(m, &ops[0], top, B32)?;
            }
        }
        Push => {
            let v = read_operand(m, &ops[0], B32)?;
            let sp = M::D::bin(BinOp::Sub, m.reg(Reg::Esp), M::D::c(4));
            m.store(sp.clone(), v, B32)?;
            m.set_reg(Reg::Esp, sp);
        }
        Pop => {
            let sp = m.reg(Reg::Esp);
            let v = m.load(sp.clone(), B32)?;
            m.set_reg(Reg::Esp, M::D::bin(BinOp::Add, sp, M::D::c(4)));
            write_operand(m, &ops[0], v, B32)?;
        }
        Jmp => match ops[0] {
            Operand::Target(d) => return Ok(Step::Rel(d)),
            _ => {
                let v = read_operand(m, &ops[0], B32)?;
                return Ok(Step::Exit(BlockExit::Jumped(m.target(v)?)));
            }
        },
        Jcc => {
            let Operand::Target(d) = ops[0] else {
                unreachable!("validated")
            };
            if m.decide(inst.cc.expect("validated").holds::<M::D>(|f| m.flag(f)))? {
                return Ok(Step::Rel(d));
            }
        }
        Call | Ret => {
            let detail = format!("{} inside a translation block", inst.op);
            return Err(ExecError::Undefined { detail }.into());
        }
        Setcc => {
            let holds = inst.cc.expect("validated").holds::<M::D>(|f| m.flag(f));
            write_operand(m, &ops[0], M::D::word(holds), B32)?;
        }
        Out => m.output(m.reg(Reg::Eax)),
        Hlt => return Ok(Step::Exit(BlockExit::Halted)),
        Movss => {
            let v = read_f(m, &ops[1]).map_err(|_| malformed(format!("{inst}")))?;
            match &ops[0] {
                Operand::Xmm(x) => m.set_freg(*x, v),
                Operand::Mem(mem) => m.store(mem_addr(m, *mem), v, B32)?,
                other => return Err(malformed(format!("movss destination {other}"))),
            }
        }
        Addss | Subss | Mulss | Divss => {
            let op = match inst.op {
                Addss => BinOp::FAdd,
                Subss => BinOp::FSub,
                Mulss => BinOp::FMul,
                _ => BinOp::FDiv,
            };
            let (x, a, b) = sse_operands(m, ops)?;
            m.set_freg(x, M::D::bin(op, a, b));
        }
        Ucomiss => {
            // ZF = equal, CF = less, both also set when the comparison
            // is unordered; SF = OF = 0.
            let (_, a, b) = sse_operands(m, ops)?;
            let nan = M::D::unordered(&a, &b);
            let eq = M::D::pred(PredOp::FEq, a.clone(), b.clone());
            let lt = M::D::pred(PredOp::FLt, a, b);
            m.set_flag(Flag::Z, M::D::logic(BinOp::Or, nan.clone(), eq));
            m.set_flag(Flag::C, M::D::logic(BinOp::Or, nan, lt));
            m.set_flag(Flag::N, M::D::bit(M::D::c(0)));
            m.set_flag(Flag::V, M::D::bit(M::D::c(0)));
        }
    }
    Ok(Step::Next)
}

/// Statistics of one block execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Host instructions retired.
    pub executed: u64,
}

/// Executes a straight-line block of host instructions on `cpu`.
///
/// # Errors
///
/// Any interpreter error; [`ExecError::Timeout`] if more than `budget`
/// instructions retire; [`ExecError::BadPc`] if a relative jump leaves
/// the block.
pub fn exec_block(
    cpu: &mut Cpu,
    insts: &[Inst],
    budget: u64,
) -> Result<(BlockExit, ExecStats), ExecError> {
    exec_block_impl(cpu, insts, budget, &mut |_| {})
}

/// Like [`exec_block`], but also reports how many times each
/// instruction index retired (the DBT runtime uses this to attribute
/// executed host instructions to their code class).
///
/// # Errors
///
/// See [`exec_block`].
pub fn exec_block_traced(
    cpu: &mut Cpu,
    insts: &[Inst],
    budget: u64,
) -> Result<(BlockExit, ExecStats, Vec<u32>), ExecError> {
    let mut counts = Vec::new();
    let (exit, stats) = exec_block_traced_into(cpu, insts, budget, &mut counts)?;
    Ok((exit, stats, counts))
}

/// Like [`exec_block_traced`], but writes retire counts into a
/// caller-owned buffer (cleared and resized to `insts.len()`) so a
/// dispatch loop executing millions of blocks reuses one allocation.
///
/// # Errors
///
/// See [`exec_block`].
pub fn exec_block_traced_into(
    cpu: &mut Cpu,
    insts: &[Inst],
    budget: u64,
    counts: &mut Vec<u32>,
) -> Result<(BlockExit, ExecStats), ExecError> {
    counts.clear();
    counts.resize(insts.len(), 0);
    exec_block_impl(cpu, insts, budget, &mut |ip| counts[ip] += 1)
}

fn exec_block_impl(
    cpu: &mut Cpu,
    insts: &[Inst],
    budget: u64,
    on_retire: &mut dyn FnMut(usize),
) -> Result<(BlockExit, ExecStats), ExecError> {
    let mut ip: usize = 0;
    let mut stats = ExecStats::default();
    while ip < insts.len() {
        if stats.executed >= budget {
            return Err(ExecError::Timeout { budget });
        }
        let inst = &insts[ip];
        stats.executed += 1;
        on_retire(ip);
        match step(cpu, inst)? {
            Step::Next => ip += 1,
            Step::Rel(d) => {
                let next = ip as i64 + 1 + i64::from(d);
                if next < 0 || next as usize > insts.len() {
                    return Err(ExecError::BadPc { pc: next as u32 });
                }
                ip = next as usize;
            }
            Step::Exit(e) => return Ok((e, stats)),
        }
    }
    Ok((BlockExit::Fell, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::*;
    use crate::operand::Cc;

    fn cpu() -> Cpu {
        let mut c = Cpu::new();
        c.mem.map(0x1_0000, 0x1000);
        c.mem.map(0x8_0000, 0x1000);
        c.write(Reg::Esp, 0x8_1000);
        c
    }

    fn run(cpu: &mut Cpu, insts: &[Inst]) -> BlockExit {
        exec_block(cpu, insts, 10_000).expect("block runs").0
    }

    #[test]
    fn mov_and_add() {
        let mut c = cpu();
        run(
            &mut c,
            &[
                mov(Reg::Eax.into(), Operand::Imm(5)),
                mov(Reg::Ecx.into(), Operand::Imm(7)),
                add(Reg::Eax.into(), Reg::Ecx.into()),
            ],
        );
        assert_eq!(c.read(Reg::Eax), 12);
    }

    #[test]
    fn sub_sets_borrow_carry() {
        let mut c = cpu();
        run(
            &mut c,
            &[
                mov(Reg::Eax.into(), Operand::Imm(3)),
                sub(Reg::Eax.into(), Operand::Imm(5)),
            ],
        );
        assert_eq!(c.read(Reg::Eax) as i32, -2);
        assert!(c.flags.c, "x86 CF is set on borrow");
        assert!(c.flags.n);
        // Compare without writing.
        run(
            &mut c,
            &[
                mov(Reg::Eax.into(), Operand::Imm(9)),
                cmp(Reg::Eax.into(), Operand::Imm(4)),
            ],
        );
        assert_eq!(c.read(Reg::Eax), 9);
        assert!(!c.flags.c);
    }

    #[test]
    fn adc_sbb_chain() {
        let mut c = cpu();
        run(
            &mut c,
            &[
                mov(Reg::Eax.into(), Operand::Imm(-1)),
                add(Reg::Eax.into(), Operand::Imm(1)), // carry out
                mov(Reg::Ecx.into(), Operand::Imm(0)),
                adc(Reg::Ecx.into(), Operand::Imm(0)), // picks up carry
            ],
        );
        assert_eq!(c.read(Reg::Ecx), 1);
    }

    #[test]
    fn logic_clears_carry() {
        let mut c = cpu();
        run(
            &mut c,
            &[
                mov(Reg::Eax.into(), Operand::Imm(3)),
                sub(Reg::Eax.into(), Operand::Imm(5)), // CF=1
                and(Reg::Eax.into(), Operand::Imm(0xff)),
            ],
        );
        assert!(!c.flags.c && !c.flags.v);
    }

    #[test]
    fn memory_operands() {
        let mut c = cpu();
        c.write(Reg::Ebp, 0x1_0000);
        run(
            &mut c,
            &[
                mov(Mem::base_disp(Reg::Ebp, 8).into(), Operand::Imm(0x1234)),
                mov(Reg::Eax.into(), Mem::base_disp(Reg::Ebp, 8).into()),
                add(Mem::base_disp(Reg::Ebp, 8).into(), Operand::Imm(1)),
                mov(Reg::Ecx.into(), Mem::base_disp(Reg::Ebp, 8).into()),
            ],
        );
        assert_eq!(c.read(Reg::Eax), 0x1234);
        assert_eq!(c.read(Reg::Ecx), 0x1235);
    }

    #[test]
    fn narrow_moves() {
        let mut c = cpu();
        c.write(Reg::Ebp, 0x1_0000);
        run(
            &mut c,
            &[
                mov(Mem::base(Reg::Ebp).into(), Operand::Imm(-1)),
                mov(Reg::Eax.into(), Operand::Imm(0xab)),
                movb(Mem::base(Reg::Ebp).into(), Reg::Eax.into()),
                movzxb(Reg::Ecx.into(), Mem::base(Reg::Ebp).into()),
                movzxw(Reg::Edx.into(), Mem::base(Reg::Ebp).into()),
            ],
        );
        assert_eq!(c.read(Reg::Ecx), 0xab);
        assert_eq!(c.read(Reg::Edx), 0xffab);
    }

    #[test]
    fn lea_computes_address() {
        let mut c = cpu();
        c.write(Reg::Ebx, 100);
        c.write(Reg::Ecx, 20);
        run(
            &mut c,
            &[lea(
                Reg::Eax.into(),
                Mem {
                    base: Some(Reg::Ebx),
                    index: Some(Reg::Ecx),
                    disp: 3,
                }
                .into(),
            )],
        );
        assert_eq!(c.read(Reg::Eax), 123);
    }

    #[test]
    fn shifts_and_flags() {
        let mut c = cpu();
        run(
            &mut c,
            &[
                mov(Reg::Eax.into(), Operand::Imm(1)),
                shl(Reg::Eax.into(), Operand::Imm(4)),
            ],
        );
        assert_eq!(c.read(Reg::Eax), 16);
        run(
            &mut c,
            &[
                mov(Reg::Eax.into(), Operand::Imm(3)),
                shr(Reg::Eax.into(), Operand::Imm(1)),
            ],
        );
        assert_eq!(c.read(Reg::Eax), 1);
        assert!(c.flags.c);
        run(
            &mut c,
            &[
                mov(Reg::Eax.into(), Operand::Imm(i32::MIN)),
                sar(Reg::Eax.into(), Operand::Imm(31)),
            ],
        );
        assert_eq!(c.read(Reg::Eax), u32::MAX);
    }

    #[test]
    fn mul_and_bsr() {
        let mut c = cpu();
        run(
            &mut c,
            &[
                mov(Reg::Eax.into(), Operand::Imm(6)),
                imul(Reg::Eax.into(), Operand::Imm(7)),
            ],
        );
        assert_eq!(c.read(Reg::Eax), 42);
        run(
            &mut c,
            &[
                mov(Reg::Eax.into(), Operand::Imm(-1)),
                mov(Reg::Ecx.into(), Operand::Imm(16)),
                mul_wide(Reg::Ecx.into()),
            ],
        );
        assert_eq!(c.read(Reg::Eax), 0xffff_fff0);
        assert_eq!(c.read(Reg::Edx), 0xf);
        run(
            &mut c,
            &[
                mov(Reg::Ecx.into(), Operand::Imm(0x10)),
                bsr(Reg::Eax.into(), Reg::Ecx.into()),
            ],
        );
        assert_eq!(c.read(Reg::Eax), 4);
        assert!(!c.flags.z);
        run(
            &mut c,
            &[
                mov(Reg::Ecx.into(), Operand::Imm(0)),
                bsr(Reg::Eax.into(), Reg::Ecx.into()),
            ],
        );
        assert!(c.flags.z);
    }

    #[test]
    fn not_neg() {
        let mut c = cpu();
        run(
            &mut c,
            &[mov(Reg::Eax.into(), Operand::Imm(0)), not(Reg::Eax.into())],
        );
        assert_eq!(c.read(Reg::Eax), u32::MAX);
        run(
            &mut c,
            &[mov(Reg::Eax.into(), Operand::Imm(5)), neg(Reg::Eax.into())],
        );
        assert_eq!(c.read(Reg::Eax) as i32, -5);
        assert!(c.flags.c, "neg of nonzero sets CF");
    }

    #[test]
    fn push_pop() {
        let mut c = cpu();
        let sp0 = c.read(Reg::Esp);
        run(
            &mut c,
            &[
                push(Operand::Imm(11)),
                push(Operand::Imm(22)),
                pop(Reg::Eax.into()),
                pop(Reg::Ecx.into()),
            ],
        );
        assert_eq!((c.read(Reg::Eax), c.read(Reg::Ecx)), (22, 11));
        assert_eq!(c.read(Reg::Esp), sp0);
    }

    #[test]
    fn internal_jumps_and_exits() {
        let mut c = cpu();
        // if eax == 0 { ecx = 1 } else { ecx = 2 }
        let block = [
            mov(Reg::Eax.into(), Operand::Imm(0)),
            test(Reg::Eax.into(), Reg::Eax.into()),
            jcc(Cc::Ne, 2),
            mov(Reg::Ecx.into(), Operand::Imm(1)),
            jmp_rel(1),
            mov(Reg::Ecx.into(), Operand::Imm(2)),
            hlt(),
        ];
        assert_eq!(run(&mut c, &block), BlockExit::Halted);
        assert_eq!(c.read(Reg::Ecx), 1);
    }

    #[test]
    fn block_exit_jump() {
        let mut c = cpu();
        let exit = run(
            &mut c,
            &[
                mov(Reg::Eax.into(), Operand::Imm(0x40)),
                jmp_exit(Reg::Eax.into()),
            ],
        );
        assert_eq!(exit, BlockExit::Jumped(0x40));
        let exit = run(&mut c, &[jmp_exit(Operand::Imm(0x2000))]);
        assert_eq!(exit, BlockExit::Jumped(0x2000));
    }

    #[test]
    fn out_and_setcc() {
        let mut c = cpu();
        run(
            &mut c,
            &[
                mov(Reg::Eax.into(), Operand::Imm(7)),
                out(),
                cmp(Reg::Eax.into(), Operand::Imm(7)),
                setcc(Cc::E, Reg::Ecx.into()),
            ],
        );
        assert_eq!(c.output, vec![7]);
        assert_eq!(c.read(Reg::Ecx), 1);
    }

    #[test]
    fn float_ops() {
        let mut c = cpu();
        c.write_x(Xmm::new(1), 2.0);
        c.write_x(Xmm::new(2), 8.0);
        run(
            &mut c,
            &[
                movss(Xmm::new(0).into(), Xmm::new(1).into()),
                addss(Xmm::new(0), Xmm::new(2).into()),
                divss(Xmm::new(0), Xmm::new(1).into()),
            ],
        );
        assert_eq!(c.read_x(Xmm::new(0)), 5.0);
        run(&mut c, &[ucomiss(Xmm::new(1), Xmm::new(2).into())]);
        assert!(c.flags.c && !c.flags.z, "2.0 < 8.0");
    }

    #[test]
    fn budget_and_bad_jump() {
        let mut c = cpu();
        let spin = [jmp_rel(-1)];
        assert!(matches!(
            exec_block(&mut c, &spin, 5),
            Err(ExecError::Timeout { .. })
        ));
        let wild = [jmp_rel(100)];
        assert!(matches!(
            exec_block(&mut c, &wild, 5),
            Err(ExecError::BadPc { .. })
        ));
    }

    #[test]
    fn fell_off_end() {
        let mut c = cpu();
        assert_eq!(
            run(&mut c, &[mov(Reg::Eax.into(), Operand::Imm(1))]),
            BlockExit::Fell
        );
    }

    #[test]
    fn call_ret_rejected() {
        let mut c = cpu();
        assert!(matches!(
            exec_block(&mut c, &[ret()], 5),
            Err(ExecError::Undefined { .. })
        ));
    }
}
