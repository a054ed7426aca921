//! The guest environment block: the in-host-memory array holding the
//! guest's architectural state, and the block-level register map.
//!
//! QEMU emulates guest registers "through an array in the host memory
//! space" (paper §V-B1); translated code addresses it via `ebp`. Both the
//! QEMU-path and rule-path translators share this layout, which is what
//! lets the runtime count *data transfer* instructions (guest-register
//! loads/stores around each block) identically for both configurations,
//! as Table II does.

use pdbt_isa::Flag;
use pdbt_isa_arm::{FReg, Reg as GReg};
use pdbt_isa_x86::{Mem, Reg as HReg};

/// Byte offset of guest register `r` inside the environment block.
#[must_use]
pub fn reg_offset(r: GReg) -> i32 {
    (r.index() as i32) * 4
}

/// Byte offset of guest flag `f`.
#[must_use]
pub fn flag_offset(f: Flag) -> i32 {
    64 + 4 * match f {
        Flag::N => 0,
        Flag::Z => 1,
        Flag::C => 2,
        Flag::V => 3,
    }
}

/// Byte offset of guest float register `s`.
#[must_use]
pub fn freg_offset(s: FReg) -> i32 {
    80 + (s.index() as i32) * 4
}

/// Byte offset of the retired-instruction counter the block stubs
/// maintain (modelling QEMU's icount bookkeeping).
pub const ICOUNT_OFFSET: i32 = 144;

/// Byte offset of the pending-work word the block stubs poll (modelling
/// QEMU's interrupt/exit-request check).
pub const PENDING_OFFSET: i32 = 148;

/// Byte offset of spill slot `i` (temporaries that do not fit in host
/// registers).
#[must_use]
pub fn spill_offset(i: usize) -> i32 {
    160 + (i as i32) * 4
}

/// Spill slots: the temporaries one lifted instruction may hold.
pub const SPILL_SLOTS: usize = 16;

/// Total size of the environment block in bytes.
pub const ENV_SIZE: u32 = 160 + SPILL_SLOTS as u32 * 4;

/// Host memory operand addressing guest register `r` (via `ebp`).
#[must_use]
pub fn reg_mem(r: GReg) -> Mem {
    Mem::base_disp(HReg::Ebp, reg_offset(r))
}

/// Host memory operand addressing guest flag `f`.
#[must_use]
pub fn flag_mem(f: Flag) -> Mem {
    Mem::base_disp(HReg::Ebp, flag_offset(f))
}

/// Host memory operand addressing guest float register `s`.
#[must_use]
pub fn freg_mem(s: FReg) -> Mem {
    Mem::base_disp(HReg::Ebp, freg_offset(s))
}

/// Host memory operand addressing spill slot `i`.
#[must_use]
pub fn spill_mem(i: usize) -> Mem {
    Mem::base_disp(HReg::Ebp, spill_offset(i))
}

/// Host memory operand addressing the retired-instruction counter.
#[must_use]
pub fn mem_icount() -> Mem {
    Mem::base_disp(HReg::Ebp, ICOUNT_OFFSET)
}

/// Host memory operand addressing the pending-work word.
#[must_use]
pub fn mem_pending() -> Mem {
    Mem::base_disp(HReg::Ebp, PENDING_OFFSET)
}

/// Where a guest register lives during one translated block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// Cached in a host register (loaded by the block prologue).
    Host(HReg),
    /// Accessed in place in the environment block.
    Env,
}

/// The block-level guest-register allocation.
///
/// The host reserves `ebp` (environment pointer), `esp` (host stack) and
/// two scratch registers (`eax`, `edx`) for the translators, leaving four
/// allocatable registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegMap {
    locs: [Loc; 16],
    allocated: Vec<(GReg, HReg)>,
}

/// Host registers available for caching guest registers.
pub const ALLOCATABLE: [HReg; 4] = [HReg::Ecx, HReg::Ebx, HReg::Esi, HReg::Edi];

/// Host scratch registers reserved for translator-generated temporaries.
pub const SCRATCH: [HReg; 2] = [HReg::Eax, HReg::Edx];

impl RegMap {
    /// Allocates the (up to four) most-used guest registers of a block to
    /// host registers; the rest stay in the environment.
    ///
    /// `used` lists the guest registers the block touches, most frequent
    /// first (duplicates allowed and counted by the caller's ordering).
    #[must_use]
    pub fn allocate(used: &[GReg]) -> RegMap {
        let mut locs = [Loc::Env; 16];
        let mut allocated = Vec::new();
        let mut pool = ALLOCATABLE.iter();
        let mut seen = [false; 16];
        for &g in used {
            if g == GReg::Pc || seen[g.index()] {
                continue; // pc is rematerialized, never cached
            }
            seen[g.index()] = true;
            if let Some(&h) = pool.next() {
                locs[g.index()] = Loc::Host(h);
                allocated.push((g, h));
            }
        }
        RegMap { locs, allocated }
    }

    /// A map with no guest registers cached (pure in-environment access).
    #[must_use]
    pub fn all_env() -> RegMap {
        RegMap {
            locs: [Loc::Env; 16],
            allocated: Vec::new(),
        }
    }

    /// Where guest register `g` lives.
    #[must_use]
    pub fn loc(&self, g: GReg) -> Loc {
        self.locs[g.index()]
    }

    /// The `(guest, host)` pairs cached in host registers, in allocation
    /// order (the prologue/epilogue emission order).
    #[must_use]
    pub fn allocated(&self) -> &[(GReg, HReg)] {
        &self.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_do_not_overlap() {
        let mut seen = std::collections::HashSet::new();
        for r in GReg::ALL {
            assert!(seen.insert(reg_offset(r)));
        }
        for f in Flag::ALL {
            assert!(seen.insert(flag_offset(f)));
        }
        for i in 0..16 {
            assert!(seen.insert(freg_offset(FReg::new(i))));
        }
        assert!(seen.insert(ICOUNT_OFFSET));
        assert!(seen.insert(PENDING_OFFSET));
        for i in 0..16 {
            assert!(seen.insert(spill_offset(i)));
        }
        assert!(seen.iter().all(|&o| (o as u32) < ENV_SIZE));
    }

    #[test]
    fn allocate_caps_at_four_and_skips_pc() {
        let used = [
            GReg::R0,
            GReg::R1,
            GReg::Pc,
            GReg::R2,
            GReg::R3,
            GReg::R4,
            GReg::R0,
        ];
        let map = RegMap::allocate(&used);
        assert_eq!(map.allocated().len(), 4);
        assert_eq!(map.loc(GReg::R0), Loc::Host(HReg::Ecx));
        assert_eq!(map.loc(GReg::R3), Loc::Host(HReg::Edi));
        assert_eq!(map.loc(GReg::R4), Loc::Env);
        assert_eq!(map.loc(GReg::Pc), Loc::Env);
    }

    #[test]
    fn all_env_caches_nothing() {
        let map = RegMap::all_env();
        assert!(map.allocated().is_empty());
        assert_eq!(map.loc(GReg::R5), Loc::Env);
    }
}
