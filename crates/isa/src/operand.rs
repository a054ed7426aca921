//! Classification vocabulary: addressing-mode kinds, operation categories,
//! data types and encoding formats.
//!
//! These are the two parameterization dimensions of the paper plus the
//! classification axes of §IV-A: instructions are first split by *data
//! type*, then by *encoding format* and *operation category*; within a
//! subgroup, rules are parameterized over *opcode* and *addressing mode*.

use std::fmt;

/// Access width of a memory operand or operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Width {
    /// 8 bits.
    B8,
    /// 16 bits.
    B16,
    /// 32 bits.
    B32,
}

impl Width {
    /// Width in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        match self {
            Width::B8 => 1,
            Width::B16 => 2,
            Width::B32 => 4,
        }
    }

    /// Width in bits.
    #[must_use]
    pub fn bits(self) -> u32 {
        self.bytes() * 8
    }

    /// Mask selecting the low `bits()` bits.
    #[must_use]
    pub fn mask(self) -> u32 {
        match self {
            Width::B8 => 0xff,
            Width::B16 => 0xffff,
            Width::B32 => 0xffff_ffff,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bits())
    }
}

/// The addressing-mode *kind* of one operand position.
///
/// This is the unit of the paper's addressing-mode parameterization: a
/// parameterized rule records, per operand slot, the set of kinds the slot
/// may take (see [`AddrModeSet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddrModeKind {
    /// A register operand.
    Reg,
    /// An immediate operand.
    Imm,
    /// A register operand transformed by the barrel shifter (guest only).
    ShiftedReg,
    /// A memory operand.
    Mem,
}

impl AddrModeKind {
    /// All kinds, in canonical order.
    pub const ALL: [AddrModeKind; 4] = [
        AddrModeKind::Reg,
        AddrModeKind::Imm,
        AddrModeKind::ShiftedReg,
        AddrModeKind::Mem,
    ];

    fn bit(self) -> u8 {
        match self {
            AddrModeKind::Reg => 1,
            AddrModeKind::Imm => 2,
            AddrModeKind::ShiftedReg => 4,
            AddrModeKind::Mem => 8,
        }
    }
}

impl fmt::Display for AddrModeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddrModeKind::Reg => "reg",
            AddrModeKind::Imm => "imm",
            AddrModeKind::ShiftedReg => "sreg",
            AddrModeKind::Mem => "mem",
        };
        f.write_str(s)
    }
}

/// A set of addressing-mode kinds an operand slot may take.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct AddrModeSet(u8);

impl AddrModeSet {
    /// The empty set.
    pub const EMPTY: AddrModeSet = AddrModeSet(0);
    /// Register only.
    pub const REG: AddrModeSet = AddrModeSet(1);
    /// Register or immediate — the usual flexible-operand generalization.
    pub const REG_IMM: AddrModeSet = AddrModeSet(1 | 2);
    /// Register, immediate or shifted register.
    pub const REG_IMM_SREG: AddrModeSet = AddrModeSet(1 | 2 | 4);
    /// Memory only (load sources / store targets, paper §IV-B guideline 3).
    pub const MEM: AddrModeSet = AddrModeSet(8);

    /// The singleton set `{k}`.
    #[must_use]
    pub fn single(k: AddrModeKind) -> AddrModeSet {
        AddrModeSet(k.bit())
    }

    /// Set from an iterator of kinds.
    pub fn from_kinds<I: IntoIterator<Item = AddrModeKind>>(iter: I) -> AddrModeSet {
        let mut s = AddrModeSet::EMPTY;
        for k in iter {
            s.0 |= k.bit();
        }
        s
    }

    /// Whether the set contains `k`.
    #[must_use]
    pub fn contains(self, k: AddrModeKind) -> bool {
        self.0 & k.bit() != 0
    }

    /// Inserts `k`.
    pub fn insert(&mut self, k: AddrModeKind) {
        self.0 |= k.bit();
    }

    /// Removes `k`.
    pub fn remove(&mut self, k: AddrModeKind) {
        self.0 &= !k.bit();
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of kinds in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over the kinds in canonical order.
    pub fn iter(self) -> impl Iterator<Item = AddrModeKind> {
        AddrModeKind::ALL
            .into_iter()
            .filter(move |k| self.contains(*k))
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: AddrModeSet) -> AddrModeSet {
        AddrModeSet(self.0 | other.0)
    }
}

impl FromIterator<AddrModeKind> for AddrModeSet {
    fn from_iter<I: IntoIterator<Item = AddrModeKind>>(iter: I) -> AddrModeSet {
        AddrModeSet::from_kinds(iter)
    }
}

impl fmt::Debug for AddrModeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AddrModeSet{{")?;
        let mut first = true;
        for k in self.iter() {
            if !first {
                write!(f, "|")?;
            }
            write!(f, "{k}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for AddrModeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        let mut first = true;
        for k in self.iter() {
            if !first {
                f.write_str("/")?;
            }
            write!(f, "{k}")?;
            first = false;
        }
        Ok(())
    }
}

/// Data type embedded in an opcode (paper §IV-A: the first classification
/// axis — rules never parameterize across data types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataType {
    /// Integer operations.
    Int,
    /// Scalar floating-point operations.
    Float,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DataType::Int => "int",
            DataType::Float => "float",
        })
    }
}

/// Operation category (paper §IV-A, second classification guideline): the
/// five ARM subgroups of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpCategory {
    /// Arithmetic and logic (`add`, `and`, `sub`, …).
    ArithLogic,
    /// Data transfer from memory (or operand) into registers (`mov`, `ldr`).
    LoadToReg,
    /// Data transfer from registers to memory (`str`).
    StoreToMem,
    /// Compare (`cmp`, `tst`) — flag-only producers.
    Compare,
    /// Everything else (`b`, `push`, `pop`, …) — not parameterizable.
    Other,
}

impl fmt::Display for OpCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpCategory::ArithLogic => "arith-logic",
            OpCategory::LoadToReg => "load-to-reg",
            OpCategory::StoreToMem => "store-to-mem",
            OpCategory::Compare => "compare",
            OpCategory::Other => "other",
        })
    }
}

/// Encoding format (paper §IV-A, first classification guideline: "the same
/// length for X86 or the same R-type for MIPS").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EncodingFormat {
    /// Guest data-processing format (3-operand, flexible second source).
    GuestDp,
    /// Guest load/store format (register + memory operand).
    GuestLdSt,
    /// Guest multiply format (`mul`/`mla` family — distinct encoding).
    GuestMul,
    /// Guest branch format.
    GuestBranch,
    /// Guest floating-point format.
    GuestVfp,
    /// Guest miscellaneous format (`push`/`pop`/`svc`/`clz`).
    GuestMisc,
}

impl fmt::Display for EncodingFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EncodingFormat::GuestDp => "g-dp",
            EncodingFormat::GuestLdSt => "g-ldst",
            EncodingFormat::GuestMul => "g-mul",
            EncodingFormat::GuestBranch => "g-br",
            EncodingFormat::GuestVfp => "g-vfp",
            EncodingFormat::GuestMisc => "g-misc",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_accessors() {
        assert_eq!(Width::B8.bytes(), 1);
        assert_eq!(Width::B16.bits(), 16);
        assert_eq!(Width::B32.mask(), u32::MAX);
        assert_eq!(Width::B8.mask(), 0xff);
        assert_eq!(Width::B32.to_string(), "32");
    }

    #[test]
    fn addrmode_set_ops() {
        let mut s = AddrModeSet::EMPTY;
        assert!(s.is_empty());
        s.insert(AddrModeKind::Reg);
        s.insert(AddrModeKind::Imm);
        assert_eq!(s, AddrModeSet::REG_IMM);
        assert!(s.contains(AddrModeKind::Reg));
        assert!(!s.contains(AddrModeKind::Mem));
        s.remove(AddrModeKind::Imm);
        assert_eq!(s, AddrModeSet::REG);
        assert_eq!(s.len(), 1);
        assert_eq!(AddrModeSet::REG_IMM.union(AddrModeSet::MEM).len(), 3);
    }

    #[test]
    fn addrmode_set_display() {
        assert_eq!(AddrModeSet::REG_IMM.to_string(), "reg/imm");
        assert_eq!(AddrModeSet::EMPTY.to_string(), "none");
        assert_eq!(AddrModeSet::MEM.to_string(), "mem");
    }

    #[test]
    fn addrmode_set_from_iter() {
        let s: AddrModeSet = [AddrModeKind::Mem, AddrModeKind::Reg].into_iter().collect();
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![AddrModeKind::Reg, AddrModeKind::Mem]
        );
    }
}
