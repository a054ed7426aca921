//! Pre-compiled threaded code: the host block executor behind
//! `--backend threaded`.
//!
//! [`compile_block`] lowers a block of [`Inst`]s **once** into a dense
//! array of [`TOp`]s — a handler per op, with register indices,
//! immediates, displacements and condition predicates pre-resolved.
//! [`exec_threaded`] then runs the block as a tight loop over those
//! handlers: no `Inst` re-decode, no operand `match`, no width dispatch
//! on the hot path.
//!
//! A handler is [`step`](crate::step)'s own body, monomorphized at the
//! [`Cpu`], the opcode and the operand shapes the op was bound at, and
//! reading its operands through `Bound` — the second implementation
//! of the operand-access trait `step` reads an `&Inst` through. At a
//! constant opcode and shape the opcode `match` and every operand
//! `match` fold away. An op with no specialization (a mem→mem move, a
//! malformed operand list) runs `step` on its original instruction,
//! kept in a side table: `h_slow` is the one handler that goes through
//! `&Inst`.
//!
//! Retire accounting happens inside the loop. Each op carries an
//! [`OpTag`] — a caller-defined cost class and an optional anchor
//! number — and every retire bumps a [`RetireTally`] (per-class counts
//! plus a mask of the anchors that ran), so a dispatcher learns what an
//! execution cost without a per-op count buffer to clear before and
//! fold after. [`exec_threaded_into`] is the same loop recording per-op
//! counts instead, for differential tests against the model, whose
//! budget and `BadPc` ordering the loop mirrors.

use crate::inst::{Inst, Op, MAX_OPERANDS};
use crate::interp::{self, Access, BlockExit, Cpu, ExecStats, Step};
use crate::operand::{Cc, Operand};
use pdbt_isa::{ExecError, Flags, Width};

/// Operand-shape codes: the const-generic parameters a handler is
/// specialized over, one per operand.
const C_REG: u8 = 0;
const C_IMM: u8 = 1;
/// `[disp]`
const C_ABS: u8 = 2;
/// `[base + disp]`
const C_MB: u8 = 3;
/// `[base + index + disp]`
const C_MBI: u8 = 4;
/// `[index + disp]`
const C_MI: u8 = 5;
/// An `xmm` register.
const C_XMM: u8 = 6;
/// A jump displacement.
const C_REL: u8 = 7;
/// No operand.
const C_NONE: u8 = 8;

/// One pre-compiled op: a handler plus its pre-resolved operands. The
/// handler returns an [`HRes`] — the step, in a register — and parks
/// its error, if any, out of band.
///
/// `a`/`b` are operand 0's and operand 1's register (or xmm) index,
/// `mb`/`mi`/`disp` describe the (at most one) memory operand, `imm`
/// holds an immediate or a relative jump displacement, `cc` is the
/// pre-bound condition predicate, and `aux` indexes the `texts` side
/// table (an `h_slow` op indexes `slow` through `imm`, which it has no
/// other use for and which cannot overflow). `tag` is the op's retire
/// accounting. With the two tag bytes the struct is 32 bytes, no
/// padding.
#[derive(Clone, Copy)]
pub struct TOp {
    exec: ExecFn,
    a: u8,
    b: u8,
    mb: u8,
    mi: u8,
    imm: u32,
    disp: u32,
    cc: fn(Flags) -> bool,
    aux: u16,
    tag: OpTag,
}

/// Number of cost classes a [`RetireTally`] distinguishes.
pub const RETIRE_CLASSES: usize = 4;

/// Highest anchor number an [`OpTag`] can carry (the mask is 64 bits
/// and number 0 means "no anchor").
pub const MAX_ANCHOR: u8 = 63;

/// How one compiled op is accounted when it retires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTag {
    /// Caller-defined cost class, below [`RETIRE_CLASSES`].
    pub class: u8,
    /// `0`, or an anchor number in `1..=MAX_ANCHOR`: retiring the op
    /// sets that bit of [`RetireTally::anchors`].
    pub anchor: u8,
}

/// What one execution retired, by [`OpTag`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetireTally {
    /// Ops retired per cost class (loop iterations count each time).
    pub by_class: [u64; RETIRE_CLASSES],
    /// Bit `k` is set iff an op tagged with anchor number `k` retired.
    pub anchors: u64,
}

impl RetireTally {
    /// Records one retire of an op tagged `tag`.
    #[inline(always)]
    pub fn retire(&mut self, tag: OpTag) {
        self.by_class[usize::from(tag.class) % RETIRE_CLASSES] += 1;
        self.anchors |= u64::from(tag.anchor != 0) << (tag.anchor & MAX_ANCHOR);
    }

    /// Records that an op tagged with anchor number `anchor` retired
    /// (numbers outside `1..=MAX_ANCHOR` are no anchor).
    pub fn mark_anchor(&mut self, anchor: u8) {
        if (1..=MAX_ANCHOR).contains(&anchor) {
            self.anchors |= 1 << anchor;
        }
    }

    /// Whether an op tagged with anchor number `anchor` retired.
    #[must_use]
    pub fn anchor_ran(&self, anchor: u8) -> bool {
        (1..=MAX_ANCHOR).contains(&anchor) && self.anchors >> anchor & 1 == 1
    }
}

/// The fault marker: the handler's error is in the [`Fault`] slot the
/// loop lent it.
#[derive(Debug, Clone, Copy)]
struct Parked;

/// Handler result: the step, or the fault marker. `Parked` is
/// zero-sized, so this is `Step` plus one spare tag value — 8 bytes,
/// handed back in a register. With the error itself in the result
/// (`Result<Step, Box<ExecError>>`, 16 bytes) rustc returned it through
/// a hidden out-pointer, and the loop's read of the step straddled the
/// handler's store of it, which the store buffer cannot forward: a
/// stall on every executed op.
type HRes = Result<Step, Parked>;

/// Where a faulting handler leaves its error: a slot beside the
/// executor loop's state, empty at entry, read only after a handler
/// reports [`Parked`] — the cold path pays for the error, not the return
/// of every op.
type Fault = Option<ExecError>;

type ExecFn = fn(&TOp, &ThreadedCode, &mut Cpu, &mut Fault) -> HRes;

/// Parks `e` in the loop's fault slot.
#[cold]
fn park(fault: &mut Fault, e: ExecError) -> Parked {
    *fault = Some(e);
    Parked
}

/// A block compiled to threaded code, plus its side tables: the text of
/// each `movss` load, which the model reports a fault of as that text,
/// and the original instructions of ops routed through the model
/// fallback.
pub struct ThreadedCode {
    ops: Box<[TOp]>,
    texts: Box<[Box<str>]>,
    slow: Box<[Inst]>,
}

impl std::fmt::Debug for ThreadedCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedCode")
            .field("ops", &self.ops.len())
            .field("slow", &self.slow.len())
            .finish()
    }
}

impl ThreadedCode {
    /// Compiled ops (1:1 with the source instructions, so retire-count
    /// buffers index identically).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the block is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// How many ops took the model-fallback path (diagnostics only).
    #[must_use]
    pub fn slow_ops(&self) -> usize {
        self.slow.len()
    }
}

fn cc_never(_: Flags) -> bool {
    false
}

fn cc_fn(cc: Cc) -> fn(Flags) -> bool {
    match cc {
        Cc::E => |f: Flags| f.z,
        Cc::Ne => |f: Flags| !f.z,
        Cc::B => |f: Flags| f.c,
        Cc::Ae => |f: Flags| !f.c,
        Cc::A => |f: Flags| !f.c && !f.z,
        Cc::Be => |f: Flags| f.c || f.z,
        Cc::S => |f: Flags| f.n,
        Cc::Ns => |f: Flags| !f.n,
        Cc::O => |f: Flags| f.v,
        Cc::No => |f: Flags| !f.v,
        Cc::Ge => |f: Flags| f.n == f.v,
        Cc::L => |f: Flags| f.n != f.v,
        Cc::G => |f: Flags| !f.z && f.n == f.v,
        Cc::Le => |f: Flags| f.z || f.n != f.v,
    }
}

/// An op read at the shapes it was bound at: operand 0 has shape `D`,
/// operand 1 shape `S`. At constant shapes each access is a field read,
/// a register read or one memory access.
struct Bound<'a, const D: u8, const S: u8> {
    t: &'a TOp,
    code: &'a ThreadedCode,
}

impl<const D: u8, const S: u8> Bound<'_, D, S> {
    /// Operand `i`'s shape and register (or xmm) index.
    #[inline(always)]
    fn at(&self, i: usize) -> (u8, usize) {
        if i == 0 {
            (D, usize::from(self.t.a))
        } else {
            (S, usize::from(self.t.b))
        }
    }

    /// The memory operand's address at shape `k`; the absent components
    /// compile out.
    #[inline(always)]
    fn addr(&self, cpu: &Cpu, k: u8) -> u32 {
        let mut a = self.t.disp;
        if k == C_MB || k == C_MBI {
            a = a.wrapping_add(cpu.regs[usize::from(self.t.mb)]);
        }
        if k == C_MI || k == C_MBI {
            a = a.wrapping_add(cpu.regs[usize::from(self.t.mi)]);
        }
        a
    }
}

/// Selection binds no immediate, displacement or absent operand where
/// the body writes one, and no register where it reads a float, so the
/// fall-through arms are memory.
impl<const D: u8, const S: u8> Access<Cpu> for Bound<'_, D, S> {
    #[inline(always)]
    fn int(&self, cpu: &Cpu, i: usize, width: Width) -> Result<u32, ExecError> {
        match self.at(i) {
            (C_REG, r) => Ok(cpu.regs[r]),
            (C_IMM, _) => Ok(self.t.imm),
            (k, _) => cpu.mem.load(self.addr(cpu, k), width),
        }
    }

    #[inline(always)]
    fn set_int(&self, cpu: &mut Cpu, i: usize, v: u32, width: Width) -> Result<(), ExecError> {
        match self.at(i) {
            (C_REG, r) => {
                cpu.regs[r] = v;
                Ok(())
            }
            (k, _) => cpu.mem.store(self.addr(cpu, k), v, width),
        }
    }

    #[inline(always)]
    fn ea(&self, cpu: &Cpu, i: usize) -> Result<u32, ExecError> {
        Ok(self.addr(cpu, self.at(i).0))
    }

    #[inline(always)]
    fn float(&self, cpu: &Cpu, i: usize) -> Result<u32, ExecError> {
        match self.at(i) {
            (C_XMM, x) => Ok(cpu.xmm[x].to_bits()),
            (k, _) => cpu.mem.load32(self.addr(cpu, k)),
        }
    }

    #[inline(always)]
    fn set_float(&self, cpu: &mut Cpu, i: usize, v: u32) -> Result<(), ExecError> {
        match self.at(i) {
            (C_XMM, x) => {
                cpu.xmm[x] = f32::from_bits(v);
                Ok(())
            }
            (k, _) => cpu.mem.store32(self.addr(cpu, k), v),
        }
    }

    #[inline(always)]
    fn cond(&self, cpu: &Cpu) -> bool {
        (self.t.cc)(cpu.flags)
    }

    #[inline(always)]
    fn rel(&self) -> Option<i32> {
        (D == C_REL).then_some(self.t.imm as i32)
    }

    fn text(&self) -> String {
        self.code.texts[usize::from(self.t.aux)].to_string()
    }
}

/// The handler of opcode `O` (an [`Op`]'s discriminant) at operand
/// shapes `D`, `S`: `step`'s body at those constants. `Op::ALL` is in
/// declaration order, so indexing it by the discriminant gives the
/// opcode back.
fn h<const O: u8, const D: u8, const S: u8>(
    t: &TOp,
    code: &ThreadedCode,
    cpu: &mut Cpu,
    f: &mut Fault,
) -> HRes {
    let op = Op::ALL[usize::from(O)];
    interp::exec(cpu, op, &Bound::<D, S> { t, code }).map_err(|e| park(f, e))
}

/// The fallback: `step` on the original instruction, for the ops no
/// specialization was bound for.
fn h_slow(t: &TOp, c: &ThreadedCode, cpu: &mut Cpu, f: &mut Fault) -> HRes {
    interp::step(cpu, &c.slow[t.imm as usize]).map_err(|e| park(f, e))
}

// --- compiler ---------------------------------------------------------

/// `h::<O, d, s>` for each listed (`d`, `s`) shape pair, `None` for the
/// rest.
macro_rules! shapes {
    ($o:ident, $d:expr, $s:expr; $(($dd:ident, $ss:ident))*) => {
        match ($d, $s) {
            $(($dd, $ss) => Some(h::<$o, $dd, $ss> as ExecFn),)*
            _ => None,
        }
    };
}

/// A register or memory destination and a register, immediate or
/// memory source, not both memory.
fn dst_src<const O: u8>(d: u8, s: u8) -> Option<ExecFn> {
    shapes!(O, d, s;
        (C_REG, C_REG) (C_REG, C_IMM) (C_REG, C_ABS) (C_REG, C_MB) (C_REG, C_MBI) (C_REG, C_MI)
        (C_ABS, C_REG) (C_ABS, C_IMM) (C_MB, C_REG) (C_MB, C_IMM)
        (C_MBI, C_REG) (C_MBI, C_IMM) (C_MI, C_REG) (C_MI, C_IMM))
}

/// A lone register or memory operand.
fn dst<const O: u8>(d: u8, s: u8) -> Option<ExecFn> {
    shapes!(O, d, s;
        (C_REG, C_NONE) (C_ABS, C_NONE) (C_MB, C_NONE) (C_MBI, C_NONE) (C_MI, C_NONE))
}

/// A lone source: a register, memory or an immediate.
fn src<const O: u8>(d: u8, s: u8) -> Option<ExecFn> {
    shapes!(O, d, s;
        (C_REG, C_NONE) (C_IMM, C_NONE) (C_ABS, C_NONE) (C_MB, C_NONE) (C_MBI, C_NONE)
        (C_MI, C_NONE))
}

/// A jump within the block.
fn rel<const O: u8>(d: u8, s: u8) -> Option<ExecFn> {
    shapes!(O, d, s; (C_REL, C_NONE))
}

/// `jmp`: within the block, or out of it to a source's value.
fn jmp<const O: u8>(d: u8, s: u8) -> Option<ExecFn> {
    rel::<O>(d, s).or_else(|| src::<O>(d, s))
}

/// A register given a memory operand's address.
fn reg_addr<const O: u8>(d: u8, s: u8) -> Option<ExecFn> {
    shapes!(O, d, s; (C_REG, C_ABS) (C_REG, C_MB) (C_REG, C_MBI) (C_REG, C_MI))
}

/// `op xmm, xmm/m32`.
fn sse<const O: u8>(d: u8, s: u8) -> Option<ExecFn> {
    shapes!(O, d, s;
        (C_XMM, C_XMM) (C_XMM, C_ABS) (C_XMM, C_MB) (C_XMM, C_MBI) (C_XMM, C_MI))
}

/// `movss`: `sse`'s shapes and the stores back.
fn sse_mov<const O: u8>(d: u8, s: u8) -> Option<ExecFn> {
    shapes!(O, d, s;
        (C_XMM, C_XMM) (C_XMM, C_ABS) (C_XMM, C_MB) (C_XMM, C_MBI) (C_XMM, C_MI)
        (C_ABS, C_XMM) (C_MB, C_XMM) (C_MBI, C_XMM) (C_MI, C_XMM))
}

/// An op whose body reads no operand.
fn bare<const O: u8>(_: u8, _: u8) -> Option<ExecFn> {
    Some(h::<O, C_NONE, C_NONE>)
}

/// The handler of `op` at operand shapes (`d`, `s`), if it has one.
fn select(op: Op, d: u8, s: u8) -> Option<ExecFn> {
    macro_rules! by_family {
        ($($family:ident: $($op:ident)|+;)*) => {
            match op {
                $($(Op::$op => $family::<{ Op::$op as u8 }>(d, s),)+)*
            }
        };
    }
    by_family! {
        dst_src: Mov | MovB | MovW | MovzxB | MovzxW | Add | Adc | Sub | Sbb | And | Or | Xor
            | Imul | Shl | Shr | Sar | Ror | Bsr | Cmp | Test;
        reg_addr: Lea;
        dst: Not | Neg | Pop | Setcc;
        src: MulWide | Push;
        jmp: Jmp;
        rel: Jcc;
        bare: Call | Ret | Out | Hlt;
        sse_mov: Movss;
        sse: Addss | Subss | Mulss | Divss | Ucomiss;
    }
}

/// Binds operand `i` into `t` and returns its shape code; `None` for a
/// second memory operand, which a `TOp` has no room for.
fn bind(t: &mut TOp, i: usize, o: &Operand, mem_used: &mut bool) -> Option<u8> {
    let reg = if i == 0 { &mut t.a } else { &mut t.b };
    Some(match *o {
        Operand::Reg(r) => {
            *reg = r.index() as u8;
            C_REG
        }
        Operand::Xmm(x) => {
            *reg = x.index() as u8;
            C_XMM
        }
        Operand::Imm(v) => {
            t.imm = v as u32;
            C_IMM
        }
        Operand::Target(d) => {
            t.imm = d as u32;
            C_REL
        }
        Operand::Mem(m) => {
            if std::mem::replace(mem_used, true) {
                return None;
            }
            t.mb = m.base.map_or(0, |r| r.index() as u8);
            t.mi = m.index.map_or(0, |r| r.index() as u8);
            t.disp = m.disp as u32;
            match (m.base, m.index) {
                (Some(_), Some(_)) => C_MBI,
                (Some(_), None) => C_MB,
                (None, Some(_)) => C_MI,
                (None, None) => C_ABS,
            }
        }
    })
}

/// Binds `inst`'s operands into `t` and picks its handler; `None`
/// routes the instruction to `h_slow`.
fn fast_op(inst: &Inst, t: &mut TOp, texts: &mut Vec<Box<str>>) -> Option<ExecFn> {
    let mut mem = false;
    let mut shape = [C_NONE; MAX_OPERANDS];
    for (i, o) in inst.operands.iter().enumerate() {
        shape[i] = bind(t, i, o, &mut mem)?;
    }
    if matches!(inst.op, Op::Jcc | Op::Setcc) {
        t.cc = cc_fn(inst.cc?);
    }
    let exec = select(inst.op, shape[0], shape[1])?;
    if inst.op == Op::Movss && (C_ABS..=C_MI).contains(&shape[1]) {
        t.aux = u16::try_from(texts.len()).ok()?;
        texts.push(inst.to_string().into_boxed_str());
    }
    Some(exec)
}

/// Compiles a block of host instructions into threaded code, every op
/// tagged with the default [`OpTag`]. Pure and deterministic: the
/// result depends only on the instructions.
#[must_use]
pub fn compile_block(insts: &[Inst]) -> ThreadedCode {
    compile_block_tagged(insts, &[])
}

/// [`compile_block`] with retire accounting: op `i` carries `tags[i]`
/// (the default tag past the end of `tags`).
#[must_use]
pub fn compile_block_tagged(insts: &[Inst], tags: &[OpTag]) -> ThreadedCode {
    let mut ops = Vec::with_capacity(insts.len());
    let mut texts: Vec<Box<str>> = Vec::new();
    let mut slow: Vec<Inst> = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        let mut t = TOp {
            exec: h_slow,
            a: 0,
            b: 0,
            mb: 0,
            mi: 0,
            imm: 0,
            disp: 0,
            cc: cc_never,
            aux: 0,
            tag: tags.get(i).copied().unwrap_or_default(),
        };
        t.exec = match fast_op(inst, &mut t, &mut texts) {
            Some(f) => f,
            None => {
                t.imm = u32::try_from(slow.len()).expect("a block holds fewer than 2^32 ops");
                slow.push(inst.clone());
                h_slow
            }
        };
        ops.push(t);
    }
    ThreadedCode {
        ops: ops.into_boxed_slice(),
        texts: texts.into_boxed_slice(),
        slow: slow.into_boxed_slice(),
    }
}

/// Where the executor loop records a retire: the one loop serves the
/// dispatcher's [`RetireTally`] and the tests' per-op counts.
trait RetireSink {
    fn retire(&mut self, ip: usize, op: &TOp);
}

impl RetireSink for RetireTally {
    #[inline(always)]
    fn retire(&mut self, _ip: usize, op: &TOp) {
        RetireTally::retire(self, op.tag);
    }
}

impl RetireSink for [u32] {
    #[inline(always)]
    fn retire(&mut self, ip: usize, _op: &TOp) {
        self[ip] += 1;
    }
}

/// The executor loop. Mirrors `exec_block_traced_into` exactly: budget
/// is checked before each retire, relative jumps are bounds-checked
/// against the op count, and falling off the end is
/// [`BlockExit::Fell`].
#[inline(always)]
fn run<S: RetireSink + ?Sized>(
    cpu: &mut Cpu,
    code: &ThreadedCode,
    budget: u64,
    sink: &mut S,
) -> Result<(BlockExit, ExecStats), ExecError> {
    let ops = &code.ops;
    let mut ip: usize = 0;
    let mut stats = ExecStats::default();
    let mut fault: Fault = None;
    while ip < ops.len() {
        if stats.executed >= budget {
            return Err(ExecError::Timeout { budget });
        }
        let t = &ops[ip];
        stats.executed += 1;
        sink.retire(ip, t);
        match (t.exec)(t, code, cpu, &mut fault) {
            Ok(Step::Next) => ip += 1,
            Ok(Step::Rel(d)) => {
                let next = ip as i64 + 1 + i64::from(d);
                if next < 0 || next as usize > ops.len() {
                    return Err(ExecError::BadPc { pc: next as u32 });
                }
                ip = next as usize;
            }
            Ok(Step::Exit(e)) => return Ok((e, stats)),
            Err(Parked) => return Err(fault.expect("a handler that reports a fault parks it")),
        }
    }
    Ok((BlockExit::Fell, stats))
}

/// Executes compiled threaded code on `cpu` and returns what it
/// retired, tallied by each op's [`OpTag`].
///
/// # Errors
///
/// Identical to [`crate::exec_block`]: any interpreter error,
/// [`ExecError::Timeout`] past `budget`, [`ExecError::BadPc`] on a
/// wild relative jump.
pub fn exec_threaded(
    cpu: &mut Cpu,
    code: &ThreadedCode,
    budget: u64,
) -> Result<(BlockExit, ExecStats, RetireTally), ExecError> {
    let mut tally = RetireTally::default();
    let (exit, stats) = run(cpu, code, budget, &mut tally)?;
    Ok((exit, stats, tally))
}

/// Like [`exec_threaded`], but writes per-op retire counts into
/// `counts` (cleared and resized to the op count) — the shape the
/// model's `exec_block_traced_into` reports, for differential tests.
///
/// # Errors
///
/// See [`exec_threaded`].
pub fn exec_threaded_into(
    cpu: &mut Cpu,
    code: &ThreadedCode,
    budget: u64,
    counts: &mut Vec<u32>,
) -> Result<(BlockExit, ExecStats), ExecError> {
    counts.clear();
    counts.resize(code.ops.len(), 0);
    run(cpu, code, budget, counts.as_mut_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::*;
    use crate::interp::exec_block_traced_into;
    use crate::reg::Xmm;

    fn cpu() -> Cpu {
        let mut c = Cpu::new();
        c.mem.map(0x1_0000, 0x1000);
        c.mem.map(0x8_0000, 0x1000);
        c.write(Reg::Esp, 0x8_1000);
        c
    }

    /// Runs a block through both executors from identical initial
    /// state and asserts bit-identical results: outcome, stats, retire
    /// counts, registers, flags, xmm bits, memory, output, and error
    /// equality.
    fn check(insts: &[Inst], setup: impl Fn(&mut Cpu)) {
        let mut model = cpu();
        let mut fast = cpu();
        setup(&mut model);
        setup(&mut fast);
        let code = compile_block(insts);
        assert_eq!(code.len(), insts.len());
        let mut mc = Vec::new();
        let mut fc = Vec::new();
        let budget = 10_000.max(2 * insts.len() as u64);
        let mr = exec_block_traced_into(&mut model, insts, budget, &mut mc);
        let fr = exec_threaded_into(&mut fast, &code, budget, &mut fc);
        match (&mr, &fr) {
            (Ok((me, ms)), Ok((fe, fs))) => {
                assert_eq!(me, fe, "exit for {insts:?}");
                assert_eq!(ms, fs, "stats for {insts:?}");
            }
            (Err(m), Err(f)) => assert_eq!(format!("{m:?}"), format!("{f:?}"), "error"),
            _ => panic!("outcome mismatch: model={mr:?} threaded={fr:?} for {insts:?}"),
        }
        assert_eq!(mc, fc, "retire counts for {insts:?}");
        assert_eq!(model.regs, fast.regs, "regs for {insts:?}");
        assert_eq!(model.flags, fast.flags, "flags for {insts:?}");
        assert_eq!(
            model.xmm.map(f32::to_bits),
            fast.xmm.map(f32::to_bits),
            "xmm for {insts:?}"
        );
        assert_eq!(model.output, fast.output, "output for {insts:?}");
        for base in [0x1_0000, 0x8_0000] {
            assert_eq!(
                model.mem.read_bytes(base, 0x1000).unwrap(),
                fast.mem.read_bytes(base, 0x1000).unwrap(),
                "memory at {base:#x}"
            );
        }
    }

    #[test]
    fn alu_and_flags_match_model() {
        check(
            &[
                mov(Reg::Eax.into(), Operand::Imm(-1)),
                add(Reg::Eax.into(), Operand::Imm(1)),
                mov(Reg::Ecx.into(), Operand::Imm(0)),
                adc(Reg::Ecx.into(), Operand::Imm(0)),
                sub(Reg::Ecx.into(), Operand::Imm(5)),
                sbb(Reg::Edx.into(), Reg::Ecx.into()),
                cmp(Reg::Edx.into(), Operand::Imm(7)),
                setcc(Cc::L, Reg::Ebx.into()),
            ],
            |_| {},
        );
    }

    #[test]
    fn logic_shift_bits_match_model() {
        check(
            &[
                mov(Reg::Eax.into(), Operand::Imm(0x0f0f_0f0f)),
                and(Reg::Eax.into(), Operand::Imm(0x00ff_00ff)),
                or(Reg::Eax.into(), Operand::Imm(0x1000_0000)),
                xor(Reg::Eax.into(), Reg::Eax.into()),
                test(Reg::Eax.into(), Reg::Eax.into()),
                mov(Reg::Ecx.into(), Operand::Imm(3)),
                shl(Reg::Ecx.into(), Operand::Imm(30)),
                shr(Reg::Ecx.into(), Operand::Imm(1)),
                sar(Reg::Ecx.into(), Operand::Imm(2)),
                ror(Reg::Ecx.into(), Operand::Imm(4)),
                // Zero shift amounts: no flag change, dst rewritten.
                shl(Reg::Ecx.into(), Operand::Imm(0)),
                not(Reg::Ecx.into()),
                neg(Reg::Ecx.into()),
                bsr(Reg::Edx.into(), Reg::Ecx.into()),
            ],
            |_| {},
        );
    }

    #[test]
    fn memory_shapes_match_model() {
        check(
            &[
                mov(Mem::base_disp(Reg::Ebp, 8).into(), Operand::Imm(0x1234)),
                mov(Reg::Eax.into(), Mem::base_disp(Reg::Ebp, 8).into()),
                add(Mem::base_disp(Reg::Ebp, 8).into(), Operand::Imm(1)),
                mov(
                    Reg::Ecx.into(),
                    Mem {
                        base: Some(Reg::Ebp),
                        index: Some(Reg::Edi),
                        disp: 8,
                    }
                    .into(),
                ),
                movb(Mem::base(Reg::Ebp).into(), Reg::Eax.into()),
                movzxb(Reg::Edx.into(), Mem::base(Reg::Ebp).into()),
                movzxw(Reg::Esi.into(), Mem::base(Reg::Ebp).into()),
                lea(
                    Reg::Ebx.into(),
                    Mem {
                        base: Some(Reg::Ebp),
                        index: Some(Reg::Edi),
                        disp: 3,
                    }
                    .into(),
                ),
                push(Operand::Imm(11)),
                pop(Reg::Eax.into()),
            ],
            |c| c.write(Reg::Ebp, 0x1_0000),
        );
    }

    #[test]
    fn control_flow_matches_model() {
        check(
            &[
                mov(Reg::Eax.into(), Operand::Imm(3)),
                mov(Reg::Ecx.into(), Operand::Imm(0)),
                add(Reg::Ecx.into(), Reg::Eax.into()),
                sub(Reg::Eax.into(), Operand::Imm(1)),
                jcc(Cc::Ne, -3),
                out(),
                hlt(),
            ],
            |_| {},
        );
        check(
            &[
                mov(Reg::Eax.into(), Operand::Imm(0x40)),
                jmp_exit(Reg::Eax.into()),
            ],
            |_| {},
        );
        check(
            &[jmp_rel(1), hlt(), mov(Reg::Eax.into(), Operand::Imm(1))],
            |_| {},
        );
        check(&[mov(Reg::Eax.into(), Operand::Imm(1))], |_| {}); // Fell
    }

    #[test]
    fn errors_match_model() {
        // Wild relative jump → BadPc.
        check(&[jmp_rel(100)], |_| {});
        // Unmapped store fault.
        check(&[mov(Mem::base(Reg::Ecx).into(), Operand::Imm(1))], |_| {});
        // call/ret undefined, with identical detail text.
        check(&[ret()], |_| {});
        check(&[call(Operand::Imm(4))], |_| {});
        // movss from unmapped memory: remapped error text.
        check(
            &[movss(Xmm::new(0).into(), Mem::base(Reg::Ecx).into())],
            |_| {},
        );
    }

    /// A fault past the first op: what retired before it, what it left
    /// of the machine and the error itself all match the model — and the
    /// error stays with the execution that raised it.
    #[test]
    fn a_fault_mid_block_matches_the_model_and_does_not_outlive_its_execution() {
        // `ecx` is the store's base: unmapped unless the caller points it
        // at mapped memory.
        let insts = [
            mov(Reg::Eax.into(), Operand::Imm(7)),
            add(Reg::Edx.into(), Reg::Eax.into()),
            mov(Mem::base_disp(Reg::Ecx, 4).into(), Reg::Edx.into()),
            out(),
            hlt(),
        ];
        check(&insts, |_| {});
        check(&insts, |c| c.write(Reg::Ecx, 0x1_0000));
        let code = compile_block(&insts);
        let mut counts = Vec::new();
        let mut bad = cpu();
        let faulted = exec_threaded_into(&mut bad, &code, 100, &mut counts);
        assert_eq!(faulted, Err(ExecError::MemoryFault { addr: 4 }));
        assert_eq!(counts, [1, 1, 1, 0, 0], "the faulting op counts as retired");
        assert_eq!(bad.read(Reg::Edx), 7, "the ops before it took effect");
        // The same compiled code, on a machine where the store lands.
        for _ in 0..2 {
            let mut good = cpu();
            good.write(Reg::Ecx, 0x1_0000);
            let (exit, stats, _) = exec_threaded(&mut good, &code, 100).expect("no stale fault");
            assert_eq!((exit, stats.executed), (BlockExit::Halted, 5));
            assert_eq!(good.output, [7]);
        }
        assert_eq!(exec_threaded(&mut cpu(), &code, 100).err(), faulted.err());
    }

    #[test]
    fn float_bits_match_model() {
        check(
            &[
                movss(Xmm::new(0).into(), Xmm::new(1).into()),
                addss(Xmm::new(0), Xmm::new(2).into()),
                subss(Xmm::new(0), Xmm::new(1).into()),
                mulss(Xmm::new(0), Xmm::new(2).into()),
                divss(Xmm::new(0), Xmm::new(1).into()),
                ucomiss(Xmm::new(1), Xmm::new(2).into()),
                movss(Mem::base(Reg::Ebp).into(), Xmm::new(0).into()),
                movss(Xmm::new(3).into(), Mem::base(Reg::Ebp).into()),
            ],
            |c| {
                c.write(Reg::Ebp, 0x1_0000);
                c.write_x(Xmm::new(1), 2.5);
                c.write_x(Xmm::new(2), -8.25);
            },
        );
        // NaN comparison: unordered flags.
        check(&[ucomiss(Xmm::new(0), Xmm::new(1).into())], |c| {
            c.write_x(Xmm::new(0), f32::NAN);
        });
    }

    #[test]
    fn mulwide_and_budget_match_model() {
        check(
            &[
                mov(Reg::Eax.into(), Operand::Imm(-1)),
                mov(Reg::Ecx.into(), Operand::Imm(16)),
                mul_wide(Reg::Ecx.into()),
                imul(Reg::Ecx.into(), Reg::Edx.into()),
            ],
            |_| {},
        );
        // Timeout parity: both exhaust the same budget.
        let spin = [jmp_rel(-1)];
        let code = compile_block(&spin);
        let mut c1 = cpu();
        let mut c2 = cpu();
        let mut b1 = Vec::new();
        let mut b2 = Vec::new();
        let m = exec_block_traced_into(&mut c1, &spin, 5, &mut b1);
        let f = exec_threaded_into(&mut c2, &code, 5, &mut b2);
        assert_eq!(format!("{m:?}"), format!("{f:?}"));
        assert_eq!(b1, b2);
    }

    /// mem→mem moves have no specialized handler, so every one lands in
    /// the model-fallback table; past 65 535 entries the table index
    /// used to wrap and rebind every earlier op.
    #[test]
    fn fallback_table_past_65535_entries_keeps_every_op_bound() {
        const N: usize = 65_536 + 64;
        let slot = |i: usize| Mem::base_disp(Reg::Ebp, 4 * (i % 256) as i32);
        // Built directly: the validating builders refuse the shape.
        let insts: Vec<Inst> = (0..N)
            .map(|i| Inst {
                op: Op::Mov,
                cc: None,
                operands: [slot(7 * i + 1).into(), slot(i).into()]
                    .into_iter()
                    .collect(),
            })
            .collect();
        assert_eq!(compile_block(&insts).slow_ops(), N);
        check(&insts, |c| {
            c.write(Reg::Ebp, 0x1_0000);
            for i in 0..256u32 {
                c.mem
                    .store32(0x1_0000 + 4 * i, (i + 1).wrapping_mul(0x9e37_79b9))
                    .unwrap();
            }
        });
    }

    #[test]
    fn tally_is_the_fold_of_the_per_op_counts_by_tag() {
        let insts = [
            mov(Reg::Eax.into(), Operand::Imm(3)),
            mov(Reg::Ecx.into(), Operand::Imm(0)),
            add(Reg::Ecx.into(), Reg::Eax.into()),
            sub(Reg::Eax.into(), Operand::Imm(1)),
            jcc(Cc::Ne, -3),
            jmp_exit(Operand::Imm(0x40)),
            out(), // never reached
        ];
        let tags: Vec<OpTag> = (0..insts.len())
            .map(|i| OpTag {
                class: (i % RETIRE_CLASSES) as u8,
                anchor: [1, 0, 2, 0, 0, MAX_ANCHOR, 7][i],
            })
            .collect();
        let code = compile_block_tagged(&insts, &tags);
        let mut counts = Vec::new();
        let by_counts = exec_threaded_into(&mut cpu(), &code, 100, &mut counts).unwrap();
        let (exit, stats, tally) = exec_threaded(&mut cpu(), &code, 100).unwrap();
        assert_eq!((exit, stats), by_counts);
        assert_eq!(counts, [1, 1, 3, 3, 3, 1, 0]);
        let mut folded = RetireTally::default();
        for (tag, n) in tags.iter().zip(&counts) {
            (0..*n).for_each(|_| folded.retire(*tag));
        }
        assert_eq!(tally, folded);
        assert_eq!(tally.by_class, [1 + 3, 1 + 1, 3, 3]);
        assert_eq!(tally.by_class.iter().sum::<u64>(), stats.executed);
        assert_eq!(tally.anchors, 1 << 1 | 1 << 2 | 1 << MAX_ANCHOR);
        for (anchor, ran) in [
            (0, false),
            (1, true),
            (2, true),
            (7, false),
            (MAX_ANCHOR, true),
        ] {
            assert_eq!(tally.anchor_ran(anchor), ran, "anchor {anchor}");
        }
        // Untagged code tallies everything under class 0, no anchors.
        let (_, _, plain) = exec_threaded(&mut cpu(), &compile_block(&insts), 100).unwrap();
        assert_eq!(plain.by_class, [stats.executed, 0, 0, 0]);
        assert_eq!(plain.anchors, 0);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_tag_fits_the_ops_spare_bytes() {
        assert_eq!(std::mem::size_of::<TOp>(), 32);
    }

    /// What keeps the handler return out of memory: anything wider goes
    /// back through a hidden out-pointer.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_handler_return_fits_a_register() {
        assert!(std::mem::size_of::<HRes>() <= 8);
    }

    use crate::operand::Mem;
    use crate::reg::Reg;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// States per bound shape: an eighth of `FUZZ_CASES` (default 64),
    /// since there are ≈ 370 shapes.
    fn cases() -> usize {
        let fuzz: usize = std::env::var("FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        (fuzz / 8).max(4)
    }

    /// Test-local operand kinds beside the integer shape codes.
    const XMM: u8 = 0xf0;
    const TARGET: u8 = 0xf1;

    /// Register operands. `ebp` and `edi` are kept as the memory base
    /// and index and `esp` as the stack, so most accesses land mapped.
    const REGS: [Reg; 5] = [Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebx, Reg::Esi];

    /// Where carries, borrows, overflows and shift amounts change.
    const EDGES: [u32; 9] = [
        0,
        1,
        2,
        31,
        32,
        0x7fff_ffff,
        0x8000_0000,
        0xffff_fffe,
        0xffff_ffff,
    ];

    /// NaNs, both infinities, both zeros and two ordinary values.
    const FLOATS: [u32; 8] = [
        0x7fc0_0000,
        0xffc0_0001,
        0x7f80_0000,
        0xff80_0000,
        0x8000_0000,
        0x0000_0000,
        0x3f80_0000,
        0xc020_0000,
    ];

    /// Every (op, operand kinds) the compiler binds to a specialized
    /// handler: the `sel_ds!` / `sel_s!` / `sel_d!` families at each
    /// shape they take, `lea`, `movss` and the SSE ops at each memory
    /// shape, and the operand-free and jump forms.
    fn bound_shapes() -> Vec<(Op, Vec<u8>)> {
        use Op::*;
        const MEM: [u8; 4] = [C_ABS, C_MB, C_MBI, C_MI];
        let srcs = [C_REG, C_IMM, C_ABS, C_MB, C_MBI, C_MI];
        let dsts = [C_REG, C_ABS, C_MB, C_MBI, C_MI];
        let mut out = Vec::new();
        let two = [
            Mov, MovB, MovW, MovzxB, MovzxW, Add, Adc, Sub, Sbb, Cmp, And, Or, Xor, Test, Imul,
            Shl, Shr, Sar, Ror, Bsr,
        ];
        for op in two {
            for d in dsts {
                for s in srcs {
                    if d == C_REG || matches!(s, C_REG | C_IMM) {
                        out.push((op, vec![d, s]));
                    }
                }
            }
        }
        for op in [MulWide, Push, Jmp] {
            out.extend(srcs.map(|s| (op, vec![s])));
        }
        for op in [Not, Neg, Pop, Setcc] {
            out.extend(dsts.map(|d| (op, vec![d])));
        }
        for m in MEM {
            out.push((Lea, vec![C_REG, m]));
            out.push((Movss, vec![XMM, m]));
            out.push((Movss, vec![m, XMM]));
        }
        out.push((Movss, vec![XMM, XMM]));
        for op in [Addss, Subss, Mulss, Divss, Ucomiss] {
            for s in [XMM, C_ABS, C_MB, C_MBI, C_MI] {
                out.push((op, vec![XMM, s]));
            }
        }
        out.push((Jmp, vec![TARGET]));
        out.push((Jcc, vec![TARGET]));
        out.push((Call, vec![C_IMM]));
        for op in [Ret, Out, Hlt] {
            out.push((op, vec![]));
        }
        out
    }

    /// An operand of kind `k`. Memory goes through `ebp` (base) and
    /// `edi` (index) with a nonzero displacement; `far` puts every
    /// memory shape's address in unmapped memory (the caller points
    /// `ebp` there too).
    fn operand(k: u8, far: bool, rng: &mut StdRng) -> Operand {
        let disp = rng.gen_range(1i32..0x100);
        let region = if far { 0x4_0000 } else { 0x1_0000 };
        match k {
            C_REG => REGS[rng.gen_range(0..REGS.len())].into(),
            C_IMM if rng.gen::<bool>() => Operand::Imm(EDGES[rng.gen_range(0..EDGES.len())] as i32),
            C_IMM => Operand::Imm(rng.gen::<u32>() as i32),
            C_ABS => Mem::abs(region + disp).into(),
            C_MB => Mem::base_disp(Reg::Ebp, disp).into(),
            C_MBI => Mem {
                base: Some(Reg::Ebp),
                index: Some(Reg::Edi),
                disp,
            }
            .into(),
            C_MI => Mem {
                base: None,
                index: Some(Reg::Edi),
                disp: region + disp,
            }
            .into(),
            XMM => Xmm::new(rng.gen_range(0u8..8)).into(),
            _ => Operand::Target(rng.gen_range(-1i32..3)),
        }
    }

    /// A seeded machine state: registers (edge values or random), flags,
    /// xmm bits (NaN and infinities included) and random bytes where
    /// `operand`'s addresses and the stack top land.
    fn random_state(far: bool, rng: &mut StdRng) -> impl Fn(&mut Cpu) {
        let regs: [u32; 8] = std::array::from_fn(|_| match rng.gen_range(0..3) {
            0 => EDGES[rng.gen_range(0..EDGES.len())],
            _ => rng.gen(),
        });
        let xmm: [u32; 8] = std::array::from_fn(|_| match rng.gen_range(0..2) {
            0 => FLOATS[rng.gen_range(0..FLOATS.len())],
            _ => rng.gen(),
        });
        let flags = Flags {
            n: rng.gen(),
            z: rng.gen(),
            c: rng.gen(),
            v: rng.gen(),
        };
        let ebp = if far { 0x4_0000 } else { 0x1_0000 } + rng.gen_range(0u32..0x400);
        let edi = rng.gen_range(0u32..0x400);
        let bytes: Vec<u8> = (0..0xa20 / 8)
            .flat_map(|_| rng.gen::<u64>().to_le_bytes())
            .collect();
        move |c: &mut Cpu| {
            for (r, v) in Reg::ALL.into_iter().zip(regs) {
                c.write(r, v);
            }
            c.write(Reg::Ebp, ebp);
            c.write(Reg::Edi, edi);
            c.write(Reg::Esp, 0x8_0800);
            c.xmm = xmm.map(f32::from_bits);
            c.flags = flags;
            c.mem.write_bytes(0x1_0000, &bytes[..0xa00]).unwrap();
            c.mem.write_bytes(0x8_07f0, &bytes[0xa00..]).unwrap();
        }
    }

    /// Every specialization the compiler binds runs against the model
    /// from seeded random states, and every memory shape again at a
    /// faulting address. Each one must compile to a specialized handler,
    /// or the comparison would only be testing the fallback.
    #[test]
    fn every_bound_specialization_matches_the_model() {
        let mut rng = StdRng::seed_from_u64(0x7412_ead0);
        for (op, kinds) in bound_shapes() {
            let has_mem = kinds.iter().any(|k| matches!(*k, C_ABS..=C_MI));
            for case in 0..cases() {
                let far = has_mem && case % 4 == 3;
                let inst = Inst {
                    op,
                    cc: matches!(op, Op::Jcc | Op::Setcc).then(|| Cc::ALL[case % Cc::ALL.len()]),
                    operands: kinds.iter().map(|k| operand(*k, far, &mut rng)).collect(),
                };
                let block = [inst, out()];
                assert_eq!(compile_block(&block).slow_ops(), 0, "{}", block[0]);
                check(&block, random_state(far, &mut rng));
            }
        }
        let mem_to_mem = Inst {
            op: Op::Mov,
            cc: None,
            operands: [Mem::base(Reg::Ebp).into(), Mem::abs(0x1_0000).into()]
                .into_iter()
                .collect(),
        };
        assert_eq!(compile_block(&[mem_to_mem]).slow_ops(), 1);
        let fast = mov(Reg::Eax.into(), Operand::Imm(1));
        assert_eq!(compile_block(&[fast]).slow_ops(), 0);
    }
}
