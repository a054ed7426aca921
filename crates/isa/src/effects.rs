//! What an instruction reads and writes, derived from its semantics.
//!
//! Flag liveness, delegation windows, register allocation and the
//! verifier's mapping proposals all need each instruction's register and
//! flag effects. No ISA writes them down beside its `step`: [`record`]
//! steps the instruction once at a [`Recorder`] — a [`Machine`] over the
//! [`Valueless`] domain, which computes nothing — and keeps the calls
//! `step` made.

use crate::{
    Addr, BinOp, Domain, ExecError, Flag, FlagSet, InlineVec, Machine, PredOp, UnOp, Width,
};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;

/// Registers an instruction reads or writes, each listed once: no ISA
/// has more than sixteen.
pub type Regs<R> = InlineVec<R, 16>;

/// An instruction's register and flag effects: what it may read and
/// what it may write, along any path through its `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effects<R> {
    /// Registers read, in the order `step` first reads them. Register
    /// allocation breaks frequency ties by it.
    pub uses: Regs<R>,
    /// Registers written, in the order `step` first writes them.
    pub defs: Regs<R>,
    /// Flags read.
    pub flag_uses: FlagSet,
    /// Flags written, conditional writes ([`Machine::set_flag_if`])
    /// included.
    pub flag_defs: FlagSet,
}

/// The domain of no values: a word and a truth value are both `()`, so
/// an instruction stepped over it computes nothing and only its machine
/// calls remain.
#[derive(Debug, Clone, Copy)]
pub struct Valueless;

impl Domain for Valueless {
    type W = ();
    type B = ();

    fn c(_: u32) {}
    fn bin(_: BinOp, (): (), (): ()) {}
    fn un(_: UnOp, (): ()) {}
    fn pred(_: PredOp, (): (), (): ()) {}
    fn carry_add((): (), (): (), (): ()) {}
    fn borrow_sub((): (), (): (), (): ()) {}
    fn overflow_add((): (), (): (), (): ()) {}
    fn overflow_sub((): (), (): (), (): ()) {}
    fn ite((): (), (): (), (): ()) {}
    fn word((): ()) {}
    fn bit((): ()) {}
}

/// The [`Machine`] [`record`] steps an instruction at: its state is the
/// record of what the instruction touched.
///
/// The program counter, where an ISA has it as a general register (the
/// guest's `pc`), is a register effect only when the instruction's
/// operands name it: `ldr r0, [pc, #8]` reads it, `mov pc, lr` writes it
/// — as does every control transfer of such an instruction (its
/// [`Machine::target`] call) — while `b` reading its own address and
/// `bx lr` jumping are control flow, not register effects.
pub struct Recorder<R, F> {
    fx: RefCell<Effects<R>>,
    /// The program counter, and whether the operands name it.
    pc: Option<(R, bool)>,
    /// What [`Machine::decide`] answers on this pass.
    answer: bool,
    asked: Cell<bool>,
    freg: PhantomData<F>,
}

fn note<R: Copy + Default + PartialEq>(regs: &mut Regs<R>, r: R) {
    if !regs.contains(&r) {
        regs.push(r);
    }
}

impl<R: Copy + Default + PartialEq, F> Recorder<R, F> {
    /// Whether an access to `r` is a register effect: anything but an
    /// unnamed program counter.
    fn counts(&self, r: R) -> bool {
        !matches!(self.pc, Some((pc, false)) if pc == r)
    }
}

impl<R: Copy + Default + PartialEq, F: Copy> Machine for Recorder<R, F> {
    type W = ();
    type B = ();
    type D = Valueless;
    type Reg = R;
    type FReg = F;
    type Error = ExecError;

    fn reg(&self, r: R) {
        if self.counts(r) {
            note(&mut self.fx.borrow_mut().uses, r);
        }
    }
    fn set_reg(&mut self, r: R, (): ()) {
        if self.counts(r) {
            note(&mut self.fx.get_mut().defs, r);
        }
    }
    fn freg(&self, _: F) {}
    fn set_freg(&mut self, _: F, (): ()) {}
    fn flag(&self, f: Flag) {
        self.fx.borrow_mut().flag_uses |= FlagSet::single(f);
    }
    fn set_flag(&mut self, f: Flag, (): ()) {
        self.fx.get_mut().flag_defs |= FlagSet::single(f);
    }
    /// A conditional definition: a write, and not a read of the value
    /// it may keep.
    fn set_flag_if(&mut self, (): &(), f: Flag, (): ()) {
        self.set_flag(f, ());
    }
    fn load(&self, (): (), _: Width) -> Result<(), ExecError> {
        Ok(())
    }
    fn store(&mut self, (): (), (): (), _: Width) -> Result<(), ExecError> {
        Ok(())
    }
    fn output(&mut self, (): ()) {}
    fn decide(&self, (): ()) -> Result<bool, ExecError> {
        self.asked.set(true);
        Ok(self.answer)
    }
    fn target(&self, (): ()) -> Result<Addr, ExecError> {
        if let Some((pc, true)) = self.pc {
            note(&mut self.fx.borrow_mut().defs, pc);
        }
        Ok(0)
    }
}

/// Steps an instruction at a [`Recorder`] and returns what it touched.
/// `pc` is the ISA's program counter, if it is a general register, and
/// whether this instruction's operands name it (see [`Recorder`]).
///
/// Where `step` asks to decide a condition — a predicated guest
/// instruction, a conditional jump, `bsr`'s zero test — it is stepped a
/// second time with the other answer, and the effects are the union of
/// both paths. An instruction `step` rejects has what it touched before
/// the rejection: nothing, for a malformed one.
pub fn record<R: Copy + Default + PartialEq, F: Copy, T>(
    pc: Option<(R, bool)>,
    mut step: impl FnMut(&mut Recorder<R, F>) -> Result<T, ExecError>,
) -> Effects<R> {
    let mut m = Recorder {
        fx: RefCell::new(Effects {
            uses: Regs::new(),
            defs: Regs::new(),
            flag_uses: FlagSet::EMPTY,
            flag_defs: FlagSet::EMPTY,
        }),
        pc,
        answer: true,
        asked: Cell::new(false),
        freg: PhantomData,
    };
    let _ = step(&mut m);
    if m.asked.get() {
        m.answer = false;
        let _ = step(&mut m);
    }
    m.fx.into_inner()
}
