//! The symbolic machines: guest and host state over the [`Term`]
//! algebra, and the verifier's policy about what it will execute.
//!
//! What an instruction *does* is not written here. Each ISA crate
//! defines its semantics once, as `step<M: Machine>`; the [`State`]s
//! below are the [`Machine`]s that instantiate those bodies at the
//! symbolic domain, so the terms the checker compares are built by the
//! same code the reference interpreters run. Both states share one
//! symbolic memory root (the DBT identity-maps guest memory into host
//! memory), so equivalent computations normalize to equal terms.
//!
//! What the verifier *declines* to execute is policy, and is written
//! here: one refusal list per ISA, consulted before the shared body
//! runs — the shapes the paper's verification also rejects (§II-B).
//!
//! [`State`]: guest::State

use crate::term::{BinOp, Node, Sym, SymMem, Term};
use pdbt_isa::{Addr, ExecError, Flag, Machine, Width};

/// An error raised when a sequence cannot be evaluated symbolically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymExecError {
    /// What was unsupported.
    pub detail: String,
}

impl std::fmt::Display for SymExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "symbolic execution unsupported: {}", self.detail)
    }
}

impl std::error::Error for SymExecError {}

/// A malformed or undefined instruction is outside the symbolic subset.
impl From<ExecError> for SymExecError {
    fn from(e: ExecError) -> SymExecError {
        let detail = e.to_string();
        SymExecError { detail }
    }
}

fn unsupported<T>(detail: impl Into<String>) -> Result<T, SymExecError> {
    let detail = detail.into();
    Err(SymExecError { detail })
}

/// The [`Machine`] methods both states implement alike: flags, the
/// store chain, the output list, and the two questions a symbolic
/// machine cannot answer.
macro_rules! symbolic_machine_common {
    () => {
        type W = Term;
        type B = Term;
        type D = Term;
        type Error = SymExecError;

        fn flag(&self, f: Flag) -> Term {
            self.flags[f as usize].clone()
        }
        fn set_flag(&mut self, f: Flag, v: Term) {
            self.flags[f as usize] = v;
        }
        fn load(&self, addr: Term, width: Width) -> Result<Term, SymExecError> {
            Ok(Term::node(Node::Read(self.mem.clone(), addr, width)))
        }
        fn store(&mut self, addr: Term, val: Term, width: Width) -> Result<(), SymExecError> {
            self.mem = std::mem::take(&mut self.mem).store(addr, val, width);
            Ok(())
        }
        fn output(&mut self, v: Term) {
            self.output.push(v);
        }
        fn decide(&self, _cond: Term) -> Result<bool, SymExecError> {
            unsupported("data-dependent control flow")
        }
        fn target(&self, _addr: Term) -> Result<Addr, SymExecError> {
            unsupported("symbolic jump target")
        }
    };
}

// ---------------------------------------------------------------------------
// Guest
// ---------------------------------------------------------------------------

pub mod guest {
    use super::*;
    use pdbt_isa::Cond;
    use pdbt_isa_arm::{FReg, Inst, Op, Operand, Reg};

    /// Symbolic guest machine state.
    #[derive(Debug, Clone)]
    pub struct State {
        /// One term per general-purpose register.
        pub regs: [Term; 16],
        /// N, Z, C, V flag terms (0/1-valued).
        pub flags: [Term; 4],
        /// Float registers (bit patterns).
        pub fregs: [Term; 16],
        /// Symbolic memory.
        pub mem: SymMem,
        /// Values emitted by `svc #1`.
        pub output: Vec<Term>,
    }

    impl State {
        /// Creates an initial state: register `r` is `init(r)` (so the
        /// caller chooses parameter vs. free symbols), flags are flag
        /// symbols, memory is the shared initial memory. Every one of
        /// them is a leaf, so a state of symbols allocates nothing.
        pub fn init(init: impl Fn(Reg) -> Term) -> State {
            State {
                regs: std::array::from_fn(|i| init(Reg::from_index(i).unwrap())),
                flags: std::array::from_fn(|i| Term::sym(Sym::Flag(i as u8))),
                fregs: std::array::from_fn(|i| Term::sym(Sym::Free(0x80 + i as u16))),
                mem: SymMem::Init,
                output: Vec::new(),
            }
        }
    }

    impl Machine for State {
        type Reg = Reg;
        type FReg = FReg;
        symbolic_machine_common!();

        /// `pc` reads as the `pc + 8` symbol-based term.
        fn reg(&self, r: Reg) -> Term {
            if r.is_pc() {
                Term::bin(BinOp::Add, Term::sym(Sym::Pc), Term::c(8))
            } else {
                self.regs[r.index()].clone()
            }
        }
        fn set_reg(&mut self, r: Reg, v: Term) {
            self.regs[r.index()] = v;
        }
        fn freg(&self, r: FReg) -> Term {
            self.fregs[r.index()].clone()
        }
        fn set_freg(&mut self, r: FReg, v: Term) {
            self.fregs[r.index()] = v;
        }
    }

    /// Declines `inst` if the verifier does, saying why. Lifting a refusal
    /// means deleting its line: the shared semantics already cover
    /// every shape listed here.
    fn refuse(inst: &Inst) -> Result<(), SymExecError> {
        use Op::*;
        if inst.cond != Cond::Al {
            return unsupported("conditional execution");
        }
        match inst.op {
            B | Bl | Bx => unsupported(format!("control flow `{inst}`")),
            Push | Pop => unsupported(format!("ABI-coupled stack op `{inst}`")),
            Svc => match inst.operands[0].as_imm().expect("validated") {
                1 => Ok(()),
                imm => unsupported(format!("svc #{imm}")),
            },
            Lsl | Lsr | Asr | Ror
                if inst.s && !matches!(inst.operands[2], Operand::Imm(1..=31)) =>
            {
                unsupported(format!("flag-setting shift amount {}", inst.operands[2]))
            }
            Adc | Sbc | Rsc if inst.s => unsupported("flag-setting carry-chain op"),
            // Only an instruction that names `pc` as a register can define
            // it; `defs` allocates, so ask it last.
            _ if inst.operands.contains(&Operand::Reg(Reg::Pc))
                && inst.defs().contains(&Reg::Pc) =>
            {
                unsupported("write to pc")
            }
            _ => Ok(()),
        }
    }

    /// Symbolically executes one straight-line guest instruction.
    ///
    /// # Errors
    ///
    /// [`SymExecError`] for control flow, conditional execution, `pc`
    /// writes, and flag-setting variable shifts — the shapes the paper's
    /// verification also rejects (§II-B).
    pub fn step(st: &mut State, inst: &Inst) -> Result<(), SymExecError> {
        refuse(inst)?;
        pdbt_isa_arm::step(st, inst).map(|_| ())
    }

    /// Symbolically executes a straight-line sequence.
    ///
    /// # Errors
    ///
    /// See [`step`].
    pub fn run(st: &mut State, insts: &[Inst]) -> Result<(), SymExecError> {
        insts.iter().try_for_each(|i| step(st, i))
    }
}

// ---------------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------------

pub mod host {
    use super::*;
    use pdbt_isa_x86::{Inst, Op, Reg, Xmm};

    /// Symbolic host machine state.
    #[derive(Debug, Clone)]
    pub struct State {
        /// One term per general-purpose register.
        pub regs: [Term; 8],
        /// SF, ZF, CF, OF flag terms, read by the guest-aligned flag
        /// (N/SF, Z/ZF, C/CF, V/OF).
        pub flags: [Term; 4],
        /// Scalar-float registers (bit patterns).
        pub xmm: [Term; 8],
        /// Symbolic memory (shared root with the guest side).
        pub mem: SymMem,
        /// Values emitted by `out`.
        pub output: Vec<Term>,
    }

    impl State {
        /// Creates an initial state with the caller choosing each
        /// register's initial term.
        pub fn init(init: impl Fn(Reg) -> Term) -> State {
            State {
                regs: std::array::from_fn(|i| init(Reg::from_index(i).unwrap())),
                flags: std::array::from_fn(|i| Term::sym(Sym::HostFlag(i as u8))),
                xmm: std::array::from_fn(|i| Term::sym(Sym::Free(0x100 + i as u16))),
                mem: SymMem::Init,
                output: Vec::new(),
            }
        }
    }

    impl Machine for State {
        type Reg = Reg;
        type FReg = Xmm;
        symbolic_machine_common!();

        fn reg(&self, r: Reg) -> Term {
            self.regs[r.index()].clone()
        }
        fn set_reg(&mut self, r: Reg, v: Term) {
            self.regs[r.index()] = v;
        }
        fn freg(&self, x: Xmm) -> Term {
            self.xmm[x.index()].clone()
        }
        fn set_freg(&mut self, x: Xmm, v: Term) {
            self.xmm[x.index()] = v;
        }
    }

    /// Declines `inst` if the verifier does, saying why (see the guest
    /// list).
    fn refuse(inst: &Inst) -> Result<(), SymExecError> {
        use Op::*;
        match inst.op {
            Jmp | Jcc | Call | Ret | Hlt => unsupported(format!("control flow `{inst}`")),
            Push | Pop => unsupported(format!("stack op `{inst}`")),
            Bsr => unsupported("bsr (branchy clz emulation)"),
            _ => Ok(()),
        }
    }

    /// Symbolically executes one straight-line host instruction.
    ///
    /// # Errors
    ///
    /// [`SymExecError`] for control flow and stack operations.
    pub fn step(st: &mut State, inst: &Inst) -> Result<(), SymExecError> {
        refuse(inst)?;
        pdbt_isa_x86::step(st, inst).map(|_| ())
    }

    /// Symbolically executes a straight-line sequence.
    ///
    /// # Errors
    ///
    /// See [`step`].
    pub fn run(st: &mut State, insts: &[Inst]) -> Result<(), SymExecError> {
        insts.iter().try_for_each(|i| step(st, i))
    }
}

#[cfg(test)]
mod tests {
    use crate::{check, CheckOptions, Mapping, Verdict};
    use pdbt_isa::Cond;
    use pdbt_isa_arm::{builders as g, Operand as GOp, Reg as GReg, ShiftKind};
    use pdbt_isa_x86::{builders as h, Cc, Operand as HOp, Reg as HReg};

    fn reason(guest: &[pdbt_isa_arm::Inst], host: &[pdbt_isa_x86::Inst]) -> String {
        match check(guest, host, &Mapping::default(), CheckOptions::default()) {
            Verdict::Unsupported { reason } => reason,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    /// Every refused shape, with the reason text rule files, derive
    /// statistics and `Verdict` consumers have always seen.
    #[test]
    fn refusals_keep_their_reason_text() {
        use GReg::{Pc, R0, R1, R2};
        let shifted = GOp::Shifted {
            rm: R2,
            kind: ShiftKind::Lsl,
            amount: 1,
        };
        let guest = [
            (
                g::mov(R0, GOp::Imm(1)).with_cond(Cond::Eq),
                "conditional execution".to_string(),
            ),
            (g::b(Cond::Al, 8), "control flow `b .+8`".into()),
            (g::bl(8), "control flow `bl .+8`".into()),
            (g::bx(R1), "control flow `bx r1`".into()),
            (g::push([R0]), "ABI-coupled stack op `push {r0}`".into()),
            (g::pop([R0]), "ABI-coupled stack op `pop {r0}`".into()),
            (g::svc(0), "svc #0".into()),
            (g::svc(7), "svc #7".into()),
            (
                g::lsl(R0, R1, GOp::Reg(R2)).with_s(),
                "flag-setting shift amount r2".into(),
            ),
            (
                g::lsr(R0, R1, GOp::Imm(0)).with_s(),
                "flag-setting shift amount #0".into(),
            ),
            (
                g::asr(R0, R1, shifted).with_s(),
                "flag-setting shift amount r2, lsl #1".into(),
            ),
            (
                g::adc(R0, R1, GOp::Reg(R2)).with_s(),
                "flag-setting carry-chain op".into(),
            ),
            (
                g::sbc(R0, R1, GOp::Reg(R2)).with_s(),
                "flag-setting carry-chain op".into(),
            ),
            (
                g::rsc(Pc, R1, GOp::Reg(R2)).with_s(),
                "flag-setting carry-chain op".into(),
            ),
            (g::mov(Pc, GOp::Reg(R1)), "write to pc".into()),
            (g::add(Pc, R1, GOp::Imm(4)), "write to pc".into()),
            (g::umull(R0, Pc, R1, R2), "write to pc".into()),
        ];
        for (inst, why) in guest {
            assert_eq!(
                reason(std::slice::from_ref(&inst), &[]),
                format!("guest: {why}"),
                "{inst}"
            );
        }
        let eax = HOp::Reg(HReg::Eax);
        let host = [
            (h::jmp_rel(1), "control flow `jmp .+1`".to_string()),
            (h::jmp_exit(eax), "control flow `jmp eax`".into()),
            (h::jcc(Cc::E, 1), "control flow `je .+1`".into()),
            (h::call(eax), "control flow `call eax`".into()),
            (h::ret(), "control flow `ret`".into()),
            (h::hlt(), "control flow `hlt`".into()),
            (h::push(eax), "stack op `pushl eax`".into()),
            (h::pop(eax), "stack op `popl eax`".into()),
            (
                h::bsr(eax, HOp::Reg(HReg::Ecx)),
                "bsr (branchy clz emulation)".into(),
            ),
        ];
        for (inst, why) in host {
            assert_eq!(
                reason(&[], std::slice::from_ref(&inst)),
                format!("host: {why}"),
                "{inst}"
            );
        }
    }
}
