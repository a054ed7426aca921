//! Guest program container, the reference execution loop, and the
//! program's flag liveness.
//!
//! A [`Program`] is immutable once built, so whole-program facts that
//! depend on nothing but its instructions are solved here, once, and
//! kept with it: [`Program::flag_liveness`] is the cross-block half of
//! the paper's §IV-D condition-flag delegation. Every block and trace
//! translation, session, prewarm worker and clone of one program reads
//! the same memo; the translator owns only the per-block backward scan
//! that starts from it.

use crate::inst::{Inst, Op};
use crate::interp;
use crate::state::Cpu;
use pdbt_isa::{cond_flag_uses, Addr, Cond, Control, ExecError, FlagSet};
use std::sync::{Arc, OnceLock};

/// Size of one encoded guest instruction in bytes.
pub const INST_SIZE: u32 = 4;

/// A guest text section: a base address and a sequence of instructions.
#[derive(Debug, Clone, Default)]
pub struct Program {
    base: Addr,
    insts: Vec<Inst>,
    /// Solved at the first [`Program::flag_liveness`] call. Behind an
    /// `Arc` so that clones — which are the same immutable program —
    /// share one solution whichever of them asks first.
    flag_liveness: Arc<OnceLock<FlagLiveness>>,
}

/// Whole-program flag liveness: which flags may be read, along some
/// path, before being redefined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagLiveness {
    live_in: Box<[FlagSet]>,
    ret_live: FlagSet,
}

impl FlagLiveness {
    /// Flags live into each instruction, by instruction index.
    #[must_use]
    pub fn live_in(&self) -> &[FlagSet] {
        &self.live_in
    }

    /// Flags live out of an indirect control transfer: the join over
    /// every call continuation (see [`Program::flag_liveness`]).
    #[must_use]
    pub fn ret_live(&self) -> FlagSet {
        self.ret_live
    }
}

/// Fixpoint solves started, over all threads. Every test that solves
/// holds `tests::SOLVES_LOCK`.
#[cfg(test)]
static SOLVES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

impl Program {
    /// Creates a program at `base` from an instruction sequence.
    #[must_use]
    pub fn new(base: Addr, insts: Vec<Inst>) -> Program {
        Program {
            base,
            insts,
            flag_liveness: Arc::default(),
        }
    }

    /// The base (entry) address.
    #[must_use]
    pub fn base(&self) -> Addr {
        self.base
    }

    /// The instructions.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The address of instruction `index`.
    #[must_use]
    pub fn addr_of(&self, index: usize) -> Addr {
        self.base + (index as u32) * INST_SIZE
    }

    /// One past the last instruction address.
    #[must_use]
    pub fn end(&self) -> Addr {
        self.addr_of(self.insts.len())
    }

    /// Fetches the instruction at `pc`.
    ///
    /// # Errors
    ///
    /// [`ExecError::BadPc`] if `pc` is outside the text section or
    /// unaligned.
    pub fn fetch(&self, pc: Addr) -> Result<&Inst, ExecError> {
        self.index_of(pc)
            .map(|i| &self.insts[i])
            .ok_or(ExecError::BadPc { pc })
    }

    /// The index of the instruction at `addr`, if `addr` is an aligned
    /// address inside the text section.
    fn index_of(&self, addr: Addr) -> Option<usize> {
        let off = addr.checked_sub(self.base)?;
        let i = (off / INST_SIZE) as usize;
        (off.is_multiple_of(INST_SIZE) && i < self.insts.len()).then_some(i)
    }

    /// Whole-program flag live-in analysis, solved once per program
    /// (clones included) at the first call and read from the memo
    /// afterwards; concurrent first calls block on the one solve.
    ///
    /// A backward fixpoint over the static CFG. Indirect control
    /// transfers (`bx`, `pop {…, pc}`, `mov pc, …`) are overwhelmingly
    /// returns; their flag live-out is the join over every call
    /// continuation (the instruction after each `bl`). Truly unknown
    /// targets (computed jumps) would need NZCV, but the guest compiler
    /// only produces indirect control flow for returns. Direct branches
    /// out of the text section conservatively treat all flags as live.
    /// The block translator uses this to decide which flag definitions
    /// must be materialized into the environment for *successor* blocks
    /// — the cross-block counterpart of the paper's "emulated by their
    /// corresponding memory locations to guarantee the correctness"
    /// fallback (§IV-D).
    #[must_use]
    pub fn flag_liveness(&self) -> &FlagLiveness {
        self.flag_liveness
            .get_or_init(|| self.solve_flag_liveness())
    }

    /// The flags live into the instruction at `addr` — the conservative
    /// NZCV for addresses outside the program (unknown continuations).
    #[must_use]
    pub fn flag_live_in_at(&self, addr: Addr) -> FlagSet {
        self.index_of(addr)
            .map_or(FlagSet::NZCV, |i| self.flag_liveness().live_in[i])
    }

    /// The flags live out of the instruction at `addr` — what a block
    /// ending there must leave correct for its successors: the join of
    /// their live-ins (for an indirect transfer, of every call
    /// continuation's). NZCV for addresses outside the program.
    #[must_use]
    pub fn flag_live_out_at(&self, addr: Addr) -> FlagSet {
        let live = self.flag_liveness();
        self.index_of(addr).map_or(FlagSet::NZCV, |i| {
            self.flag_flow(i, &live.live_in, live.ret_live).1
        })
    }

    /// The flags instruction `i` reads itself, and the flags live out
    /// of it given the live-in sets and the return join so far: one
    /// definition of the static successors, for the solver and for
    /// [`Program::flag_live_out_at`].
    fn flag_flow(&self, i: usize, live_in: &[FlagSet], ret_live: FlagSet) -> (FlagSet, FlagSet) {
        let inst = &self.insts[i];
        let at = |j: Option<usize>| j.map_or(FlagSet::NZCV, |j| live_in[j]);
        let fall = || at((i + 1 < live_in.len()).then_some(i + 1));
        let target = || {
            at(inst
                .direct_target(self.addr_of(i))
                .and_then(|t| self.index_of(t)))
        };
        match inst.op {
            Op::B if inst.cond == Cond::Al => (FlagSet::EMPTY, target()),
            Op::B => (cond_flag_uses(inst.cond), target() | fall()),
            // The callee's entry, plus (conservatively) the return
            // continuation.
            Op::Bl => (FlagSet::EMPTY, target() | fall()),
            Op::Svc if inst.operands[0].as_imm() == Some(0) => (FlagSet::EMPTY, FlagSet::EMPTY),
            _ if inst.is_branch() => (inst.flag_uses(), ret_live),
            _ => (inst.flag_uses(), fall()),
        }
    }

    fn solve_flag_liveness(&self) -> FlagLiveness {
        #[cfg(test)]
        SOLVES.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let insts = &self.insts;
        let n = insts.len();
        let mut live_in = vec![FlagSet::EMPTY; n];
        loop {
            let mut changed = false;
            let mut ret_live = FlagSet::EMPTY;
            for (i, inst) in insts.iter().enumerate() {
                if inst.op == Op::Bl && i + 1 < n {
                    ret_live |= live_in[i + 1];
                }
            }
            for i in (0..n).rev() {
                let (uses, out) = self.flag_flow(i, &live_in, ret_live);
                let new = uses | (out - insts[i].flag_defs());
                if new != live_in[i] {
                    live_in[i] = new;
                    changed = true;
                }
            }
            if !changed {
                // Nothing moved in this sweep, so `ret_live`, joined
                // before it, is the join over the final sets.
                return FlagLiveness {
                    live_in: live_in.into_boxed_slice(),
                    ret_live,
                };
            }
        }
    }

    /// Iterates over `(address, instruction)` pairs.
    pub fn iter_with_addr(&self) -> impl Iterator<Item = (Addr, &Inst)> {
        self.insts
            .iter()
            .enumerate()
            .map(|(i, inst)| (self.addr_of(i), inst))
    }

    /// Pretty disassembly listing.
    #[must_use]
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (addr, inst) in self.iter_with_addr() {
            out.push_str(&format!("{addr:#010x}:  {inst}\n"));
        }
        out
    }

    /// A stable 64-bit fingerprint of the image: seeded FNV-1a over the
    /// base address and each instruction's binary encoding, finished
    /// with a splitmix64 avalanche. Unlike `DefaultHasher` this is
    /// pinned by the ISA's encoding layout, not by the standard
    /// library's hasher-of-the-day — the value survives rebuilds and
    /// toolchain upgrades, so it can key persisted translation
    /// artifacts and partition guest images across daemon restarts.
    /// Instructions outside the encodable envelope (oversized
    /// immediates) hash their display form instead, which the assembler
    /// round-trips just as losslessly.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h
        }
        let mut h = fnv(FNV_OFFSET, &self.base.to_le_bytes());
        for inst in &self.insts {
            h = match crate::encode::encode(inst) {
                Ok(word) => fnv(h, &word.to_le_bytes()),
                Err(_) => fnv(h, inst.to_string().as_bytes()),
            };
        }
        // splitmix64 finalizer: avalanches the FNV state so nearby
        // images land far apart in partition space.
        h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

/// Statistics of one reference-interpreter run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of guest instructions retired (including predicated-false).
    pub executed: u64,
}

/// Runs `program` on `cpu` until it halts or exhausts `budget`
/// instructions. This is the golden reference every DBT configuration is
/// compared against.
///
/// # Errors
///
/// Any interpreter error, or [`ExecError::Timeout`] if the budget runs
/// out before the guest exits.
pub fn run(cpu: &mut Cpu, program: &Program, budget: u64) -> Result<RunStats, ExecError> {
    cpu.set_pc(program.base());
    let mut stats = RunStats::default();
    loop {
        if stats.executed >= budget {
            return Err(ExecError::Timeout { budget });
        }
        let pc = cpu.pc();
        let inst = program.fetch(pc)?;
        let ctl = interp::step(cpu, inst)?;
        stats.executed += 1;
        match ctl {
            Control::Next => cpu.set_pc(pc + INST_SIZE),
            Control::Jump(t) => cpu.set_pc(t),
            Control::Call { target, .. } => cpu.set_pc(target),
            Control::Halt => return Ok(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::*;
    use crate::operand::Operand;
    use crate::reg::Reg;
    use pdbt_isa::Cond;

    #[test]
    fn fetch_and_addresses() {
        let p = Program::new(0x1000, vec![mov(Reg::R0, Operand::Imm(1)), svc(0)]);
        assert_eq!(p.addr_of(1), 0x1004);
        assert_eq!(p.end(), 0x1008);
        assert!(p.fetch(0x1004).is_ok());
        assert!(matches!(p.fetch(0x1008), Err(ExecError::BadPc { .. })));
        assert!(matches!(p.fetch(0x1002), Err(ExecError::BadPc { .. })));
        assert!(matches!(p.fetch(0xfff), Err(ExecError::BadPc { .. })));
    }

    #[test]
    fn run_countdown_loop() {
        // r0 = 5; loop: r1 += r0; r0 -= 1 (flags); bne loop; output r1; exit.
        let p = Program::new(
            0x1000,
            vec![
                mov(Reg::R0, Operand::Imm(5)),
                mov(Reg::R1, Operand::Imm(0)),
                add(Reg::R1, Reg::R1, Operand::Reg(Reg::R0)),
                sub(Reg::R0, Reg::R0, Operand::Imm(1)).with_s(),
                b(Cond::Ne, -8),
                mov(Reg::R0, Operand::Reg(Reg::R1)),
                svc(1),
                svc(0),
            ],
        );
        let mut cpu = Cpu::new();
        let stats = run(&mut cpu, &p, 1000).unwrap();
        assert_eq!(cpu.output, vec![15]);
        // 2 + 5 * 3 + 3 = 20 retired instructions.
        assert_eq!(stats.executed, 20);
    }

    #[test]
    fn run_times_out() {
        let p = Program::new(0, vec![b(Cond::Al, 0)]);
        let mut cpu = Cpu::new();
        assert!(matches!(
            run(&mut cpu, &p, 10),
            Err(ExecError::Timeout { budget: 10 })
        ));
    }

    #[test]
    fn call_and_return() {
        // main: bl f; svc0 / f: mov r0, #7; svc 1; bx lr
        let p = Program::new(
            0,
            vec![
                bl(8),                         // 0x0 → f at 0x8
                svc(0),                        // 0x4
                mov(Reg::R0, Operand::Imm(7)), // 0x8
                svc(1),                        // 0xc
                bx(Reg::Lr),                   // 0x10 → 0x4
            ],
        );
        let mut cpu = Cpu::new();
        run(&mut cpu, &p, 100).unwrap();
        assert_eq!(cpu.output, vec![7]);
    }

    #[test]
    fn fingerprint_depends_on_base_and_every_instruction() {
        let insts = || {
            vec![
                mov(Reg::R0, Operand::Imm(41)),
                add(Reg::R0, Reg::R0, Operand::Imm(1)),
                svc(1),
                svc(0),
            ]
        };
        let p = Program::new(0x1000, insts());
        assert_eq!(p.fingerprint(), Program::new(0x1000, insts()).fingerprint());
        assert_ne!(
            p.fingerprint(),
            Program::new(0x2000, insts()).fingerprint(),
            "base must feed the fingerprint"
        );
        let mut tweaked = insts();
        tweaked[0] = mov(Reg::R0, Operand::Imm(42));
        assert_ne!(
            p.fingerprint(),
            Program::new(0x1000, tweaked).fingerprint(),
            "one immediate flip must change the fingerprint"
        );
    }

    /// Serializes the tests that solve, so [`SOLVES`] deltas are exact.
    static SOLVES_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn solves() -> usize {
        SOLVES.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// main: cmp; bl f; beq +4 (reads Z after the call); svc 0 twice /
    /// f: adds (defines NZCV); bx lr.
    fn call_program() -> Program {
        Program::new(
            0x1000,
            vec![
                cmp(Reg::R0, Operand::Imm(1)),                   // 0x1000
                bl(12),                                          // 0x1004 → f at 0x1010
                b(Cond::Eq, 4),                                  // 0x1008 → 0x100c
                svc(0),                                          // 0x100c
                add(Reg::R1, Reg::R1, Operand::Imm(1)).with_s(), // 0x1010
                adc(Reg::R2, Reg::R2, Operand::Imm(0)),          // 0x1014 reads C
                bx(Reg::Lr),                                     // 0x1018
                b(Cond::Al, 0x4000),                             // 0x101c → outside
            ],
        )
    }

    #[test]
    fn flag_liveness_follows_calls_returns_and_unknown_targets() {
        use pdbt_isa::Flag;
        let _serial = SOLVES_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let p = call_program();
        let z = FlagSet::single(Flag::Z);
        let live = p.flag_liveness();
        // The return join is what the one call continuation reads.
        assert_eq!(live.ret_live(), z);
        assert_eq!(
            live.live_in(),
            &[
                FlagSet::EMPTY,               // cmp defines everything it passes on
                z,                            // bl: callee entry | continuation
                z,                            // beq
                FlagSet::EMPTY,               // svc #0 halts
                FlagSet::EMPTY,               // adds redefines NZCV
                z | FlagSet::single(Flag::C), // adc reads C, bx passes Z on
                z,                            // bx lr: the return join
                FlagSet::NZCV,                // target outside the text section
            ]
        );
        assert_eq!(p.flag_live_in_at(0x1014), z | FlagSet::single(Flag::C));
        // Live-outs: a call joins callee entry and continuation, a
        // return exits into the return join, the halt into nothing.
        assert_eq!(p.flag_live_out_at(0x1004), z);
        assert_eq!(p.flag_live_out_at(0x1018), z);
        assert_eq!(p.flag_live_out_at(0x100c), FlagSet::EMPTY);
        assert_eq!(p.flag_live_out_at(0x101c), FlagSet::NZCV);
        // Unknown continuations: below, past, and between instructions.
        for addr in [0xffc, 0x1020, 0x1006] {
            assert_eq!(p.flag_live_in_at(addr), FlagSet::NZCV, "{addr:#x}");
        }
    }

    #[test]
    fn flag_liveness_is_solved_once_per_program_and_shared_by_clones() {
        let _serial = SOLVES_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let p = call_program();
        let early_clone = p.clone();
        let before = solves();
        let first = p.flag_liveness();
        for i in 0..p.len() {
            assert!(std::ptr::eq(first, p.flag_liveness()));
            let _ = p.flag_live_in_at(p.addr_of(i));
        }
        let late_clone = p.clone();
        assert!(std::ptr::eq(first, early_clone.flag_liveness()));
        assert!(std::ptr::eq(first, late_clone.flag_liveness()));
        assert_eq!(solves() - before, 1);
        // A separately built program is a separate value: its own solve,
        // same answer.
        let rebuilt = Program::new(p.base(), p.insts().to_vec());
        assert_eq!(rebuilt.flag_liveness(), first);
        assert!(!std::ptr::eq(first, rebuilt.flag_liveness()));
        assert_eq!(solves() - before, 2);
    }

    #[test]
    fn racing_first_reads_observe_one_solve() {
        let _serial = SOLVES_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let p = call_program();
        let clone = p.clone();
        let before = solves();
        let start = std::sync::Barrier::new(2);
        let read = |prog: &Program| {
            start.wait();
            prog.flag_liveness().live_in().as_ptr() as usize
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| read(&p));
            let b = s.spawn(|| read(&clone));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b, "both threads read the same slice");
        assert_eq!(solves() - before, 1);
    }

    #[test]
    fn disassemble_listing() {
        let p = Program::new(0x400, vec![mov(Reg::R0, Operand::Imm(3)), svc(0)]);
        let text = p.disassemble();
        assert!(text.contains("0x00000400:  mov r0, #3"));
        assert!(text.contains("0x00000404:  svc #0"));
    }
}
