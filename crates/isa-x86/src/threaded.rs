//! Pre-compiled threaded code: the host block executor behind
//! `--backend threaded`.
//!
//! [`compile_block`] lowers a block of [`Inst`]s **once** into a dense
//! array of [`TOp`]s — per-op fn pointers specialized (via const
//! generics) over the operand shapes the translator actually emits,
//! with register indices, immediates, displacements and condition
//! predicates pre-resolved. [`exec_threaded`] then runs the block as a
//! tight loop over those fn pointers: no `Inst` re-decode, no operand
//! `match`, no width dispatch on the hot path.
//!
//! Retire accounting happens inside that loop. Each op carries an
//! [`OpTag`] — a caller-defined cost class and an optional anchor
//! number — and every retire bumps a [`RetireTally`] (per-class counts
//! plus a mask of the anchors that ran), so a dispatcher learns what an
//! execution cost without a per-op count buffer to clear before and
//! fold after. [`exec_threaded_into`] is the same loop recording per-op
//! counts instead, for differential tests against the model.
//!
//! The contract with the model interpreter (`crate::interp`) is
//! **bit-identity**: same architectural effects, same retire counts,
//! same errors (including error `detail` strings, pre-formatted at
//! compile time into a side table), same budget/`BadPc` ordering.
//! Operand shapes the translator never produces (e.g. mem→mem moves)
//! fall back to the model's own `step` through a side table of the
//! original instructions, so the equivalence holds for *every* input,
//! not just the common ones. The lockdown lives in the unit tests here
//! and in the cross-backend suites (`tests/backend.rs`).

use crate::inst::{Inst, Op};
use crate::interp::{self, BlockExit, Cpu, ExecStats, Step};
use crate::operand::{Cc, Mem, Operand};
use crate::reg::Reg;
use pdbt_isa::{BinOp, Concrete, Domain, ExecError, Flags, Width};

/// Operand-shape codes: the const-generic parameters the handlers are
/// specialized over. `C_REG` doubles as "xmm register" for the SSE
/// handlers (the index lives in the same `TOp` slot).
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

/// ALU kinds for the `h_arith` family.
const A_ADD: u8 = 0;
const A_ADC: u8 = 1;
const A_SUB: u8 = 2;
const A_SBB: u8 = 3;
const A_CMP: u8 = 4;

/// Logic kinds for the `h_logic` family.
const L_AND: u8 = 0;
const L_OR: u8 = 1;
const L_XOR: u8 = 2;
const L_TEST: u8 = 3;

/// Shift kinds for the `h_shift` family.
const K_SHL: u8 = 0;
const K_SHR: u8 = 1;
const K_SAR: u8 = 2;
const K_ROR: u8 = 3;

/// Scalar-float kinds for the `h_ssebin` family.
const F_ADD: u8 = 0;
const F_SUB: u8 = 1;
const F_MUL: u8 = 2;
const F_DIV: u8 = 3;

/// One pre-compiled op: a handler plus its pre-resolved operands. The
/// handler returns an [`HRes`] — the step, in a register — and parks
/// its error, if any, out of band.
///
/// Field meaning depends on the handler the compiler bound: `a`/`b`
/// are destination/source register (or xmm) indices, `mb`/`mi`/`disp`
/// describe the (at most one) memory operand, `imm` holds an immediate
/// or a relative jump displacement, `cc` is the pre-bound condition
/// predicate, and `aux` indexes the `texts` side table (an `h_slow`
/// op indexes `slow` through `imm`, which it has no other use for and
/// which cannot overflow). `tag` is the op's retire accounting. With
/// the two tag bytes the struct is 32 bytes, no padding.
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

/// A block compiled to threaded code, plus its side tables:
/// pre-formatted error texts (so error details stay bit-identical to
/// the model without formatting on the hot path) and the original
/// instructions for shapes routed through the model fallback.
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

#[inline(always)]
fn width_of(w: u8) -> Width {
    match w {
        8 => Width::B8,
        16 => Width::B16,
        _ => Width::B32,
    }
}

/// Effective address of the op's memory operand, shape-specialized so
/// the absent-component branches compile out.
#[inline(always)]
fn maddr<const K: u8>(t: &TOp, cpu: &Cpu) -> u32 {
    let mut a = t.disp;
    if K == C_MB || K == C_MBI {
        a = a.wrapping_add(cpu.regs[t.mb as usize]);
    }
    if K == C_MI || K == C_MBI {
        a = a.wrapping_add(cpu.regs[t.mi as usize]);
    }
    a
}

/// 32-bit source read (register / immediate / memory).
#[inline(always)]
fn rd<const S: u8>(t: &TOp, cpu: &Cpu, f: &mut Fault) -> Result<u32, Parked> {
    match S {
        C_REG => Ok(cpu.regs[t.b as usize]),
        C_IMM => Ok(t.imm),
        _ => cpu
            .mem
            .load(maddr::<S>(t, cpu), Width::B32)
            .map_err(|e| park(f, e)),
    }
}

/// 32-bit destination read (register / memory).
#[inline(always)]
fn rd_dst<const D: u8>(t: &TOp, cpu: &Cpu, f: &mut Fault) -> Result<u32, Parked> {
    if D == C_REG {
        Ok(cpu.regs[t.a as usize])
    } else {
        cpu.mem
            .load(maddr::<D>(t, cpu), Width::B32)
            .map_err(|e| park(f, e))
    }
}

/// 32-bit destination write (register / memory). Memory destinations
/// recompute the address at write time, exactly like the model's
/// `write_operand`.
#[inline(always)]
fn wr_dst<const D: u8>(t: &TOp, cpu: &mut Cpu, v: u32, f: &mut Fault) -> Result<(), Parked> {
    if D == C_REG {
        cpu.regs[t.a as usize] = v;
        Ok(())
    } else {
        cpu.mem
            .store(maddr::<D>(t, cpu), v, Width::B32)
            .map_err(|e| park(f, e))
    }
}

// --- handlers ---------------------------------------------------------

fn h_mov<const D: u8, const S: u8>(
    t: &TOp,
    _c: &ThreadedCode,
    cpu: &mut Cpu,
    f: &mut Fault,
) -> HRes {
    let v = rd::<S>(t, cpu, f)?;
    wr_dst::<D>(t, cpu, v, f)?;
    Ok(Step::Next)
}

/// `MovB`/`MovW`: full-width source read, width-narrowed store. A
/// register destination still takes the full 32-bit write (the model's
/// `write_operand` ignores width for registers).
fn h_narrow<const W: u8, const D: u8, const S: u8>(
    t: &TOp,
    _c: &ThreadedCode,
    cpu: &mut Cpu,
    f: &mut Fault,
) -> HRes {
    let v = rd::<S>(t, cpu, f)?;
    if D == C_REG {
        cpu.regs[t.a as usize] = v;
    } else {
        cpu.mem
            .store(maddr::<D>(t, cpu), v, width_of(W))
            .map_err(|e| park(f, e))?;
    }
    Ok(Step::Next)
}

/// `MovzxB`/`MovzxW`: width only narrows *memory* source loads — a
/// register source reads all 32 bits, exactly like the model.
fn h_movzx<const W: u8, const D: u8, const S: u8>(
    t: &TOp,
    _c: &ThreadedCode,
    cpu: &mut Cpu,
    f: &mut Fault,
) -> HRes {
    let v = match S {
        C_REG => cpu.regs[t.b as usize],
        C_IMM => t.imm,
        _ => cpu
            .mem
            .load(maddr::<S>(t, cpu), width_of(W))
            .map_err(|e| park(f, e))?,
    };
    wr_dst::<D>(t, cpu, v, f)?;
    Ok(Step::Next)
}

fn h_lea<const M: u8>(t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, _f: &mut Fault) -> HRes {
    let a = maddr::<M>(t, cpu);
    cpu.regs[t.a as usize] = a;
    Ok(Step::Next)
}

fn h_arith<const K: u8, const D: u8, const S: u8>(
    t: &TOp,
    _c: &ThreadedCode,
    cpu: &mut Cpu,
    f: &mut Fault,
) -> HRes {
    let a = rd_dst::<D>(t, cpu, f)?;
    let b = rd::<S>(t, cpu, f)?;
    let carry = cpu.flags.c;
    let (r, c, v) = match K {
        A_ADD => Concrete::add_with_carry(a, b, None),
        A_ADC => Concrete::add_with_carry(a, b, Some(carry)),
        A_SBB => Concrete::sub_with_borrow(a, b, Some(carry)),
        _ => Concrete::sub_with_borrow(a, b, None),
    };
    cpu.flags = interp::flags_of(r, c, v);
    if K != A_CMP {
        wr_dst::<D>(t, cpu, r, f)?;
    }
    Ok(Step::Next)
}

fn h_logic<const K: u8, const D: u8, const S: u8>(
    t: &TOp,
    _c: &ThreadedCode,
    cpu: &mut Cpu,
    f: &mut Fault,
) -> HRes {
    let a = rd_dst::<D>(t, cpu, f)?;
    let b = rd::<S>(t, cpu, f)?;
    let r = match K {
        L_OR => a | b,
        L_XOR => a ^ b,
        _ => a & b,
    };
    cpu.flags = interp::flags_of(r, false, false);
    if K != L_TEST {
        wr_dst::<D>(t, cpu, r, f)?;
    }
    Ok(Step::Next)
}

fn h_imul<const D: u8, const S: u8>(
    t: &TOp,
    _c: &ThreadedCode,
    cpu: &mut Cpu,
    f: &mut Fault,
) -> HRes {
    let a = rd_dst::<D>(t, cpu, f)?;
    let b = rd::<S>(t, cpu, f)?;
    wr_dst::<D>(t, cpu, a.wrapping_mul(b), f)?;
    Ok(Step::Next)
}

fn h_mulwide<const S: u8>(t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, f: &mut Fault) -> HRes {
    let a = cpu.regs[Reg::Eax.index()];
    let b = rd::<S>(t, cpu, f)?;
    let wide = u64::from(a) * u64::from(b);
    cpu.regs[Reg::Eax.index()] = wide as u32;
    cpu.regs[Reg::Edx.index()] = (wide >> 32) as u32;
    Ok(Step::Next)
}

fn h_shift<const K: u8, const D: u8, const S: u8>(
    t: &TOp,
    _c: &ThreadedCode,
    cpu: &mut Cpu,
    f: &mut Fault,
) -> HRes {
    let a = rd_dst::<D>(t, cpu, f)?;
    let amt = rd::<S>(t, cpu, f)? & 31;
    if amt == 0 {
        wr_dst::<D>(t, cpu, a, f)?;
    } else {
        let op = match K {
            K_SHL => BinOp::Shl,
            K_SHR => BinOp::Shr,
            K_SAR => BinOp::Sar,
            _ => BinOp::Ror,
        };
        let r = op.eval(a, amt);
        let c = Concrete::shift_carry(op, a, Concrete::carry_distance(op, amt));
        if K == K_ROR {
            cpu.flags.c = c;
        } else {
            cpu.flags = interp::flags_of(r, c, cpu.flags.v);
        }
        wr_dst::<D>(t, cpu, r, f)?;
    }
    Ok(Step::Next)
}

fn h_not<const D: u8>(t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, f: &mut Fault) -> HRes {
    let a = rd_dst::<D>(t, cpu, f)?;
    wr_dst::<D>(t, cpu, !a, f)?;
    Ok(Step::Next)
}

fn h_neg<const D: u8>(t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, f: &mut Fault) -> HRes {
    let a = rd_dst::<D>(t, cpu, f)?;
    let (r, c, v) = Concrete::sub_with_borrow(0, a, None);
    cpu.flags = interp::flags_of(r, c, v);
    wr_dst::<D>(t, cpu, r, f)?;
    Ok(Step::Next)
}

fn h_bsr<const D: u8, const S: u8>(
    t: &TOp,
    _c: &ThreadedCode,
    cpu: &mut Cpu,
    f: &mut Fault,
) -> HRes {
    let src = rd::<S>(t, cpu, f)?;
    if src == 0 {
        cpu.flags.z = true;
    } else {
        cpu.flags.z = false;
        wr_dst::<D>(t, cpu, 31 - src.leading_zeros(), f)?;
    }
    Ok(Step::Next)
}

fn h_push<const S: u8>(t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, f: &mut Fault) -> HRes {
    let v = rd::<S>(t, cpu, f)?;
    let sp = cpu.regs[Reg::Esp.index()].wrapping_sub(4);
    cpu.mem.store32(sp, v).map_err(|e| park(f, e))?;
    cpu.regs[Reg::Esp.index()] = sp;
    Ok(Step::Next)
}

/// `Esp` is bumped *before* the destination write, like the model, so
/// a memory destination addressing through `esp` sees the new value.
fn h_pop<const D: u8>(t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, f: &mut Fault) -> HRes {
    let sp = cpu.regs[Reg::Esp.index()];
    let v = cpu.mem.load32(sp).map_err(|e| park(f, e))?;
    cpu.regs[Reg::Esp.index()] = sp.wrapping_add(4);
    wr_dst::<D>(t, cpu, v, f)?;
    Ok(Step::Next)
}

fn h_jmp_rel(t: &TOp, _c: &ThreadedCode, _cpu: &mut Cpu, _f: &mut Fault) -> HRes {
    Ok(Step::Rel(t.imm as i32))
}

fn h_jmp_exit<const S: u8>(t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, f: &mut Fault) -> HRes {
    let v = rd::<S>(t, cpu, f)?;
    Ok(Step::Exit(BlockExit::Jumped(v)))
}

fn h_jcc(t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, _f: &mut Fault) -> HRes {
    if (t.cc)(cpu.flags) {
        Ok(Step::Rel(t.imm as i32))
    } else {
        Ok(Step::Next)
    }
}

fn h_setcc<const D: u8>(t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, f: &mut Fault) -> HRes {
    let v = u32::from((t.cc)(cpu.flags));
    wr_dst::<D>(t, cpu, v, f)?;
    Ok(Step::Next)
}

fn h_out(_t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, _f: &mut Fault) -> HRes {
    let v = cpu.regs[Reg::Eax.index()];
    cpu.output.push(v);
    Ok(Step::Next)
}

fn h_hlt(_t: &TOp, _c: &ThreadedCode, _cpu: &mut Cpu, _f: &mut Fault) -> HRes {
    Ok(Step::Exit(BlockExit::Halted))
}

/// `call`/`ret`: always undefined inside a block; the detail string is
/// pre-formatted so it matches the model byte-for-byte.
fn h_undef(t: &TOp, c: &ThreadedCode, _cpu: &mut Cpu, f: &mut Fault) -> HRes {
    let e = ExecError::Undefined {
        detail: c.texts[t.aux as usize].to_string(),
    };
    Err(park(f, e))
}

fn h_movss_xx(t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, _f: &mut Fault) -> HRes {
    cpu.xmm[t.a as usize] = cpu.xmm[t.b as usize];
    Ok(Step::Next)
}

/// `movss xmm, [mem]`: the model remaps *any* source-read error
/// (including memory faults) to `MalformedInstruction` carrying the
/// instruction's display text — reproduced from the side table.
fn h_movss_xm<const S: u8>(t: &TOp, c: &ThreadedCode, cpu: &mut Cpu, f: &mut Fault) -> HRes {
    let bits = cpu.mem.load32(maddr::<S>(t, cpu)).map_err(|_| {
        let e = ExecError::MalformedInstruction {
            detail: c.texts[t.aux as usize].to_string(),
        };
        park(f, e)
    })?;
    cpu.xmm[t.a as usize] = f32::from_bits(bits);
    Ok(Step::Next)
}

/// `movss [mem], xmm`: the store error propagates unmapped (the
/// model's remap covers only the source read).
fn h_movss_mx<const D: u8>(t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, f: &mut Fault) -> HRes {
    let v = cpu.xmm[t.b as usize];
    cpu.mem
        .store32(maddr::<D>(t, cpu), v.to_bits())
        .map_err(|e| park(f, e))?;
    Ok(Step::Next)
}

#[inline(always)]
fn rd_f<const S: u8>(t: &TOp, cpu: &Cpu, f: &mut Fault) -> Result<f32, Parked> {
    if S == C_REG {
        Ok(cpu.xmm[t.b as usize])
    } else {
        match cpu.mem.load32(maddr::<S>(t, cpu)) {
            Ok(bits) => Ok(f32::from_bits(bits)),
            Err(e) => Err(park(f, e)),
        }
    }
}

fn h_ssebin<const K: u8, const S: u8>(
    t: &TOp,
    _c: &ThreadedCode,
    cpu: &mut Cpu,
    f: &mut Fault,
) -> HRes {
    let a = cpu.xmm[t.a as usize];
    let b = rd_f::<S>(t, cpu, f)?;
    let r = match K {
        F_ADD => a + b,
        F_SUB => a - b,
        F_MUL => a * b,
        _ => a / b,
    };
    cpu.xmm[t.a as usize] = r;
    Ok(Step::Next)
}

fn h_ucomiss<const S: u8>(t: &TOp, _c: &ThreadedCode, cpu: &mut Cpu, f: &mut Fault) -> HRes {
    let a = cpu.xmm[t.a as usize];
    let b = rd_f::<S>(t, cpu, f)?;
    let unordered = a.is_nan() || b.is_nan();
    cpu.flags = Flags {
        z: unordered || a == b,
        c: unordered || a < b,
        n: false,
        v: false,
    };
    Ok(Step::Next)
}

/// Fallback: run the original instruction through the model's `step`.
/// Bit-identical by construction; only shapes the translator never
/// emits land here.
fn h_slow(t: &TOp, c: &ThreadedCode, cpu: &mut Cpu, f: &mut Fault) -> HRes {
    interp::step(cpu, &c.slow[t.imm as usize]).map_err(|e| park(f, e))
}

// --- compiler ---------------------------------------------------------

/// Selects a `<.., D, S>` specialization for a (dst, src) shape pair.
/// Shapes outside the table (notably mem→mem, which would need two
/// memory operands in one `TOp`) return `None` → model fallback.
macro_rules! sel_ds {
    ($f:ident, [$($k:expr),*], $d:expr, $s:expr) => {
        match ($d, $s) {
            (C_REG, C_REG) => Some($f::<$({$k},)* C_REG, C_REG> as ExecFn),
            (C_REG, C_IMM) => Some($f::<$({$k},)* C_REG, C_IMM> as ExecFn),
            (C_REG, C_ABS) => Some($f::<$({$k},)* C_REG, C_ABS> as ExecFn),
            (C_REG, C_MB) => Some($f::<$({$k},)* C_REG, C_MB> as ExecFn),
            (C_REG, C_MBI) => Some($f::<$({$k},)* C_REG, C_MBI> as ExecFn),
            (C_REG, C_MI) => Some($f::<$({$k},)* C_REG, C_MI> as ExecFn),
            (C_ABS, C_REG) => Some($f::<$({$k},)* C_ABS, C_REG> as ExecFn),
            (C_ABS, C_IMM) => Some($f::<$({$k},)* C_ABS, C_IMM> as ExecFn),
            (C_MB, C_REG) => Some($f::<$({$k},)* C_MB, C_REG> as ExecFn),
            (C_MB, C_IMM) => Some($f::<$({$k},)* C_MB, C_IMM> as ExecFn),
            (C_MBI, C_REG) => Some($f::<$({$k},)* C_MBI, C_REG> as ExecFn),
            (C_MBI, C_IMM) => Some($f::<$({$k},)* C_MBI, C_IMM> as ExecFn),
            (C_MI, C_REG) => Some($f::<$({$k},)* C_MI, C_REG> as ExecFn),
            (C_MI, C_IMM) => Some($f::<$({$k},)* C_MI, C_IMM> as ExecFn),
            _ => None,
        }
    };
}

/// Selects a `<.., S>` specialization for a lone source shape.
macro_rules! sel_s {
    ($f:ident, [$($k:expr),*], $s:expr) => {
        match $s {
            C_REG => Some($f::<$({$k},)* C_REG> as ExecFn),
            C_IMM => Some($f::<$({$k},)* C_IMM> as ExecFn),
            C_ABS => Some($f::<$({$k},)* C_ABS> as ExecFn),
            C_MB => Some($f::<$({$k},)* C_MB> as ExecFn),
            C_MBI => Some($f::<$({$k},)* C_MBI> as ExecFn),
            C_MI => Some($f::<$({$k},)* C_MI> as ExecFn),
            _ => None,
        }
    };
}

/// Selects a `<.., D>` specialization for a lone destination shape
/// (no immediate destinations).
macro_rules! sel_d {
    ($f:ident, [$($k:expr),*], $d:expr) => {
        match $d {
            C_REG => Some($f::<$({$k},)* C_REG> as ExecFn),
            C_ABS => Some($f::<$({$k},)* C_ABS> as ExecFn),
            C_MB => Some($f::<$({$k},)* C_MB> as ExecFn),
            C_MBI => Some($f::<$({$k},)* C_MBI> as ExecFn),
            C_MI => Some($f::<$({$k},)* C_MI> as ExecFn),
            _ => None,
        }
    };
}

fn mem_shape(m: Mem) -> (u8, u8, u8) {
    match (m.base, m.index) {
        (Some(b), Some(i)) => (C_MBI, b.index() as u8, i.index() as u8),
        (Some(b), None) => (C_MB, b.index() as u8, 0),
        (None, Some(i)) => (C_MI, 0, i.index() as u8),
        (None, None) => (C_ABS, 0, 0),
    }
}

/// Binds an integer *destination* operand into `t`, returning its
/// shape code; `None` for operands that can't be an integer dst, or a
/// second memory operand (`mem_used`).
fn bind_dst(t: &mut TOp, o: &Operand, mem_used: &mut bool) -> Option<u8> {
    match o {
        Operand::Reg(r) => {
            t.a = r.index() as u8;
            Some(C_REG)
        }
        Operand::Mem(m) => {
            if *mem_used {
                return None;
            }
            *mem_used = true;
            let (code, mb, mi) = mem_shape(*m);
            t.mb = mb;
            t.mi = mi;
            t.disp = m.disp as u32;
            Some(code)
        }
        _ => None,
    }
}

/// Binds an integer *source* operand into `t` (register, immediate,
/// or the single memory operand).
fn bind_src(t: &mut TOp, o: &Operand, mem_used: &mut bool) -> Option<u8> {
    match o {
        Operand::Reg(r) => {
            t.b = r.index() as u8;
            Some(C_REG)
        }
        Operand::Imm(v) => {
            t.imm = *v as u32;
            Some(C_IMM)
        }
        Operand::Mem(m) => {
            if *mem_used {
                return None;
            }
            *mem_used = true;
            let (code, mb, mi) = mem_shape(*m);
            t.mb = mb;
            t.mi = mi;
            t.disp = m.disp as u32;
            Some(code)
        }
        _ => None,
    }
}

/// Tries to compile one instruction to a specialized handler, filling
/// `t`'s operand fields. `None` routes the instruction to `h_slow`.
#[allow(clippy::too_many_lines)]
fn fast_op(inst: &Inst, t: &mut TOp, texts: &mut Vec<Box<str>>) -> Option<ExecFn> {
    use Op::*;
    let ops = &inst.operands;
    let mut mem = false;
    match inst.op {
        Mov => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            let s = bind_src(t, ops.get(1)?, &mut mem)?;
            sel_ds!(h_mov, [], d, s)
        }
        MovB => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            let s = bind_src(t, ops.get(1)?, &mut mem)?;
            sel_ds!(h_narrow, [8], d, s)
        }
        MovW => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            let s = bind_src(t, ops.get(1)?, &mut mem)?;
            sel_ds!(h_narrow, [16], d, s)
        }
        MovzxB => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            let s = bind_src(t, ops.get(1)?, &mut mem)?;
            sel_ds!(h_movzx, [8], d, s)
        }
        MovzxW => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            let s = bind_src(t, ops.get(1)?, &mut mem)?;
            sel_ds!(h_movzx, [16], d, s)
        }
        Lea => {
            // Destination must be a register: the memory fields carry
            // the *source* address expression.
            let Operand::Reg(r) = ops.first()? else {
                return None;
            };
            t.a = r.index() as u8;
            let m = ops.get(1)?.as_mem()?;
            let (code, mb, mi) = mem_shape(m);
            t.mb = mb;
            t.mi = mi;
            t.disp = m.disp as u32;
            match code {
                C_ABS => Some(h_lea::<C_ABS> as ExecFn),
                C_MB => Some(h_lea::<C_MB> as ExecFn),
                C_MBI => Some(h_lea::<C_MBI> as ExecFn),
                _ => Some(h_lea::<C_MI> as ExecFn),
            }
        }
        Add | Adc | Sub | Sbb | Cmp => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            let s = bind_src(t, ops.get(1)?, &mut mem)?;
            match inst.op {
                Add => sel_ds!(h_arith, [A_ADD], d, s),
                Adc => sel_ds!(h_arith, [A_ADC], d, s),
                Sub => sel_ds!(h_arith, [A_SUB], d, s),
                Sbb => sel_ds!(h_arith, [A_SBB], d, s),
                _ => sel_ds!(h_arith, [A_CMP], d, s),
            }
        }
        And | Or | Xor | Test => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            let s = bind_src(t, ops.get(1)?, &mut mem)?;
            match inst.op {
                And => sel_ds!(h_logic, [L_AND], d, s),
                Or => sel_ds!(h_logic, [L_OR], d, s),
                Xor => sel_ds!(h_logic, [L_XOR], d, s),
                _ => sel_ds!(h_logic, [L_TEST], d, s),
            }
        }
        Imul => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            let s = bind_src(t, ops.get(1)?, &mut mem)?;
            sel_ds!(h_imul, [], d, s)
        }
        MulWide => {
            let s = bind_src(t, ops.first()?, &mut mem)?;
            sel_s!(h_mulwide, [], s)
        }
        Shl | Shr | Sar | Ror => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            let s = bind_src(t, ops.get(1)?, &mut mem)?;
            match inst.op {
                Shl => sel_ds!(h_shift, [K_SHL], d, s),
                Shr => sel_ds!(h_shift, [K_SHR], d, s),
                Sar => sel_ds!(h_shift, [K_SAR], d, s),
                _ => sel_ds!(h_shift, [K_ROR], d, s),
            }
        }
        Not => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            sel_d!(h_not, [], d)
        }
        Neg => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            sel_d!(h_neg, [], d)
        }
        Bsr => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            let s = bind_src(t, ops.get(1)?, &mut mem)?;
            sel_ds!(h_bsr, [], d, s)
        }
        Push => {
            let s = bind_src(t, ops.first()?, &mut mem)?;
            sel_s!(h_push, [], s)
        }
        Pop => {
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            sel_d!(h_pop, [], d)
        }
        Jmp => match ops.first()? {
            Operand::Target(d) => {
                t.imm = *d as u32;
                Some(h_jmp_rel as ExecFn)
            }
            o => {
                let s = bind_src(t, o, &mut mem)?;
                sel_s!(h_jmp_exit, [], s)
            }
        },
        Jcc => {
            let Operand::Target(d) = ops.first()? else {
                return None;
            };
            t.imm = *d as u32;
            t.cc = cc_fn(inst.cc?);
            Some(h_jcc as ExecFn)
        }
        Setcc => {
            t.cc = cc_fn(inst.cc?);
            let d = bind_dst(t, ops.first()?, &mut mem)?;
            sel_d!(h_setcc, [], d)
        }
        Out => Some(h_out as ExecFn),
        Hlt => Some(h_hlt as ExecFn),
        Call | Ret => {
            t.aux = u16::try_from(texts.len()).ok()?;
            texts.push(format!("{} inside a translation block", inst.op).into_boxed_str());
            Some(h_undef as ExecFn)
        }
        Movss => match (ops.first()?, ops.get(1)?) {
            (Operand::Xmm(x), Operand::Xmm(y)) => {
                t.a = x.index() as u8;
                t.b = y.index() as u8;
                Some(h_movss_xx as ExecFn)
            }
            (Operand::Xmm(x), Operand::Mem(m)) => {
                t.a = x.index() as u8;
                let (code, mb, mi) = mem_shape(*m);
                t.mb = mb;
                t.mi = mi;
                t.disp = m.disp as u32;
                t.aux = u16::try_from(texts.len()).ok()?;
                texts.push(format!("{inst}").into_boxed_str());
                match code {
                    C_ABS => Some(h_movss_xm::<C_ABS> as ExecFn),
                    C_MB => Some(h_movss_xm::<C_MB> as ExecFn),
                    C_MBI => Some(h_movss_xm::<C_MBI> as ExecFn),
                    _ => Some(h_movss_xm::<C_MI> as ExecFn),
                }
            }
            (Operand::Mem(m), Operand::Xmm(y)) => {
                t.b = y.index() as u8;
                let (code, mb, mi) = mem_shape(*m);
                t.mb = mb;
                t.mi = mi;
                t.disp = m.disp as u32;
                match code {
                    C_ABS => Some(h_movss_mx::<C_ABS> as ExecFn),
                    C_MB => Some(h_movss_mx::<C_MB> as ExecFn),
                    C_MBI => Some(h_movss_mx::<C_MBI> as ExecFn),
                    _ => Some(h_movss_mx::<C_MI> as ExecFn),
                }
            }
            _ => None,
        },
        Addss | Subss | Mulss | Divss | Ucomiss => {
            let Operand::Xmm(x) = ops.first()? else {
                return None;
            };
            t.a = x.index() as u8;
            let s = match ops.get(1)? {
                Operand::Xmm(y) => {
                    t.b = y.index() as u8;
                    C_REG
                }
                Operand::Mem(m) => {
                    let (code, mb, mi) = mem_shape(*m);
                    t.mb = mb;
                    t.mi = mi;
                    t.disp = m.disp as u32;
                    code
                }
                _ => return None,
            };
            match inst.op {
                Addss => sel_s!(h_ssebin, [F_ADD], s),
                Subss => sel_s!(h_ssebin, [F_SUB], s),
                Mulss => sel_s!(h_ssebin, [F_MUL], s),
                Divss => sel_s!(h_ssebin, [F_DIV], s),
                _ => sel_s!(h_ucomiss, [], s),
            }
        }
    }
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
            exec: h_hlt,
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
}
