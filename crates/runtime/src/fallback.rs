//! The interpreter fallback: what runs a block the translator could not.

use crate::engine::{Engine, ENV_BASE};
use crate::translate::MAX_BLOCK;
use pdbt_ir::env;
use pdbt_isa::{Addr, Control, ExecError, Flag};
use pdbt_isa_arm::{step, Cpu as GuestCpu, FReg, Program, Reg as GReg, INST_SIZE};
use pdbt_isa_x86::Cpu as HostCpu;

impl Engine {
    /// Interprets the guest block starting at `pc` directly against the
    /// environment state — the graceful-degradation path for blocks the
    /// translator cannot handle (or that an injected `cache` fault
    /// poisoned). Architectural state (registers, flags, float
    /// registers, icount, guest memory, output) round-trips through the
    /// environment block so translated and interpreted blocks compose
    /// transparently.
    ///
    /// Returns the next guest pc, or `None` when the guest halted.
    pub(crate) fn interpret_block(
        &mut self,
        prog: &Program,
        pc: Addr,
        host: &mut HostCpu,
    ) -> Result<Option<Addr>, ExecError> {
        let mut gc = GuestCpu::new();
        // Guest memory is identity-mapped in the host, so the host
        // memory *is* the guest memory (plus the env block, which the
        // guest never touches). Borrow it wholesale for the block.
        std::mem::swap(&mut gc.mem, &mut host.mem);
        let env = |off: i32| ENV_BASE.wrapping_add(off as u32);
        // Load the architectural state out of the environment.
        let mut load = || -> Result<(), ExecError> {
            for r in GReg::ALL {
                if r != GReg::Pc {
                    gc.regs[r.index()] = gc.mem.load32(env(env::reg_offset(r)))?;
                }
            }
            for f in Flag::ALL {
                let v = gc.mem.load32(env(env::flag_offset(f)))? != 0;
                gc.flags.set(f, v);
            }
            for i in 0..16u8 {
                let s = FReg::new(i);
                let bits = gc.mem.load32(env(env::freg_offset(s)))?;
                gc.fregs[s.index()] = f32::from_bits(bits);
            }
            Ok(())
        };
        if let Err(e) = load() {
            std::mem::swap(&mut gc.mem, &mut host.mem);
            return Err(e);
        }
        let (stepped, executed) = interpret_steps(&mut gc, prog, pc, MAX_BLOCK);
        // Write the state back even when stepping faulted, so the
        // partial report reflects everything that retired.
        let mut store = || -> Result<(), ExecError> {
            for r in GReg::ALL {
                if r != GReg::Pc {
                    gc.mem
                        .store32(env(env::reg_offset(r)), gc.regs[r.index()])?;
                }
            }
            for f in Flag::ALL {
                gc.mem
                    .store32(env(env::flag_offset(f)), u32::from(gc.flags.get(f)))?;
            }
            for i in 0..16u8 {
                let s = FReg::new(i);
                gc.mem
                    .store32(env(env::freg_offset(s)), gc.fregs[s.index()].to_bits())?;
            }
            let icount = gc.mem.load32(env(env::ICOUNT_OFFSET))?;
            gc.mem.store32(
                env(env::ICOUNT_OFFSET),
                icount.wrapping_add(executed as u32),
            )?;
            Ok(())
        };
        let store_res = store();
        std::mem::swap(&mut gc.mem, &mut host.mem);
        host.output.extend(gc.output);
        self.metrics.blocks_executed += 1;
        self.metrics.guest_retired += executed;
        self.obs.block_host_len.record(0);
        self.resilience.degraded_blocks += 1;
        self.resilience.interpreted_guest += executed;
        store_res?;
        stepped
    }
}

/// Steps the interpreter from `pc` until the end of the basic block: a
/// control transfer, a halt, at most `max_block` straight-line
/// instructions, or a fault. Returns the stepping result (next pc, halt
/// or error) plus how many instructions retired.
fn interpret_steps(
    gc: &mut GuestCpu,
    prog: &Program,
    mut pc: Addr,
    max_block: usize,
) -> (Result<Option<Addr>, ExecError>, u64) {
    let mut executed = 0u64;
    loop {
        let inst = match prog.fetch(pc) {
            Ok(inst) => inst,
            Err(e) => return (Err(e), executed),
        };
        gc.set_pc(pc);
        match step(gc, inst) {
            Ok(Control::Next) => {
                executed += 1;
                pc = pc.wrapping_add(INST_SIZE);
                if executed >= max_block as u64 {
                    return (Ok(Some(pc)), executed);
                }
            }
            Ok(Control::Jump(target)) | Ok(Control::Call { target, .. }) => {
                executed += 1;
                return (Ok(Some(target)), executed);
            }
            Ok(Control::Halt) => {
                executed += 1;
                return (Ok(None), executed);
            }
            Err(e) => return (Err(e), executed),
        }
    }
}
