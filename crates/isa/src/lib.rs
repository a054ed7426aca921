//! Shared ISA vocabulary for the `pdbt` workspace.
//!
//! Both machine models (`pdbt-isa-arm`, the guest, and `pdbt-isa-x86`, the
//! host) and the parameterization framework (`pdbt-core`) speak in terms of
//! the types defined here: condition flags, condition codes, operand
//! addressing-mode kinds, operation categories and data types used for
//! instruction-subgroup classification (paper §IV-A), and the common
//! execution-error type.

mod cond;
mod domain;
pub mod effects;
mod error;
mod flags;
mod inline;
pub mod mem;
mod operand;

pub use cond::{cond_flag_uses, Cond};
pub use domain::{BinOp, Concrete, Domain, Machine, PredOp, UnOp};
pub use effects::Effects;
pub use error::ExecError;
pub use flags::{Flag, FlagSet, Flags};
pub use inline::{CapacityError, InlineVec};
pub use mem::Memory;
pub use operand::{AddrModeKind, AddrModeSet, DataType, EncodingFormat, OpCategory, Width};

/// A guest or host memory address (the models are 32-bit machines).
pub type Addr = u32;

/// Outcome of interpreting one instruction: where control goes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Fall through to the next sequential instruction.
    Next,
    /// Jump to an absolute address.
    Jump(Addr),
    /// A call: jump to `target`, return address is `link`.
    Call { target: Addr, link: Addr },
    /// Stop execution (the guest executed its exit system call).
    Halt,
}

impl Control {
    /// Whether this outcome ends a basic block.
    #[must_use]
    pub fn ends_block(&self) -> bool {
        !matches!(self, Control::Next)
    }
}

/// Sign-extend the low `bits` bits of `v`.
#[must_use]
pub fn sign_extend(v: u32, bits: u32) -> u32 {
    debug_assert!((1..=32).contains(&bits));
    if bits == 32 {
        return v;
    }
    let shift = 32 - bits;
    (((v << shift) as i32) >> shift) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_extend_basics() {
        assert_eq!(sign_extend(0xff, 8), 0xffff_ffff);
        assert_eq!(sign_extend(0x7f, 8), 0x7f);
        assert_eq!(sign_extend(0x8000, 16), 0xffff_8000);
        assert_eq!(sign_extend(0x1234, 32), 0x1234);
        assert_eq!(sign_extend(1, 1), u32::MAX);
    }

    #[test]
    fn control_ends_block() {
        assert!(!Control::Next.ends_block());
        assert!(Control::Jump(4).ends_block());
        assert!(Control::Call { target: 8, link: 4 }.ends_block());
        assert!(Control::Halt.ends_block());
    }
}
