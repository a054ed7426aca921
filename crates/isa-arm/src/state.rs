//! Guest CPU state.

use crate::reg::{FReg, Reg};
use pdbt_isa::{Addr, Concrete, ExecError, Flag, Flags, Machine, Memory, Width};

/// The architectural state of the guest CPU.
///
/// `regs[15]` (the PC) holds the address of the *current* instruction;
/// reading the PC as an operand yields that address **plus 8**, matching
/// the ARM pipeline convention the paper's Fig 9 relies on.
#[derive(Debug, Clone, Default)]
pub struct Cpu {
    /// General-purpose registers (`r0`–`r12`, `sp`, `lr`, `pc`).
    pub regs: [u32; 16],
    /// Single-precision floating-point registers.
    pub fregs: [f32; 16],
    /// Condition flags (`CPSR.NZCV`).
    pub flags: Flags,
    /// Guest memory.
    pub mem: Memory,
    /// Values emitted by `svc #1` — the observable output stream used to
    /// compare DBT configurations against the reference interpreter.
    pub output: Vec<u32>,
}

impl Cpu {
    /// Creates a CPU with zeroed registers and empty memory.
    #[must_use]
    pub fn new() -> Cpu {
        Cpu::default()
    }

    /// Reads a register *as an operand*: the PC reads as the current
    /// instruction address plus 8.
    #[must_use]
    pub fn read(&self, r: Reg) -> u32 {
        if r.is_pc() {
            self.regs[15].wrapping_add(8)
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register. Writing the PC is allowed; the interpreter
    /// turns it into a control transfer.
    pub fn write(&mut self, r: Reg, v: u32) {
        self.regs[r.index()] = v;
    }

    /// Reads a floating-point register.
    #[must_use]
    pub fn read_f(&self, r: FReg) -> f32 {
        self.fregs[r.index()]
    }

    /// Writes a floating-point register.
    pub fn write_f(&mut self, r: FReg, v: f32) {
        self.fregs[r.index()] = v;
    }

    /// Current program counter (address of the instruction being
    /// executed).
    #[must_use]
    pub fn pc(&self) -> Addr {
        self.regs[15]
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: Addr) {
        self.regs[15] = pc;
    }

    /// Stack pointer.
    #[must_use]
    pub fn sp(&self) -> Addr {
        self.regs[Reg::Sp.index()]
    }
}

/// The reference interpreter's state: concrete values, real memory,
/// and every condition and jump target decidable.
impl Machine for Cpu {
    type W = u32;
    type B = bool;
    type D = Concrete;
    type Reg = Reg;
    type FReg = FReg;
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
    fn freg(&self, r: FReg) -> u32 {
        self.read_f(r).to_bits()
    }
    #[inline]
    fn set_freg(&mut self, r: FReg, v: u32) {
        self.write_f(r, f32::from_bits(v));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_reads_plus_eight() {
        let mut cpu = Cpu::new();
        cpu.set_pc(0x1000);
        assert_eq!(cpu.read(Reg::Pc), 0x1008);
        assert_eq!(cpu.pc(), 0x1000);
    }

    #[test]
    fn plain_registers_read_back() {
        let mut cpu = Cpu::new();
        cpu.write(Reg::R3, 42);
        assert_eq!(cpu.read(Reg::R3), 42);
        cpu.write_f(FReg::new(2), 1.5);
        assert_eq!(cpu.read_f(FReg::new(2)), 1.5);
    }
}
