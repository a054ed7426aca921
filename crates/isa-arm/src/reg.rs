//! Guest register file: sixteen general-purpose registers (with `pc`
//! usable as a general-purpose register, paper Fig 9) and sixteen
//! single-precision floating-point registers.

use std::fmt;
use std::str::FromStr;

/// A guest general-purpose register.
///
/// `R13`–`R15` carry their conventional roles (`sp`, `lr`, `pc`), and —
/// as on real ARM — `pc` can appear as an ordinary operand, which is one
/// of the addressing-mode constraints the parameterizer must handle
/// (paper §IV-C2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Reg {
    #[default]
    R0,
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
    R11,
    R12,
    /// Stack pointer (`r13`).
    Sp,
    /// Link register (`r14`).
    Lr,
    /// Program counter (`r15`).
    Pc,
}

impl Reg {
    /// All sixteen registers in index order.
    pub const ALL: [Reg; 16] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::Sp,
        Reg::Lr,
        Reg::Pc,
    ];

    /// The register's index (0–15): its position in [`Reg::ALL`], which
    /// lists the variants in declaration order.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Register from index.
    #[must_use]
    pub fn from_index(i: usize) -> Option<Reg> {
        Reg::ALL.get(i).copied()
    }

    /// Whether this is the program counter.
    #[must_use]
    pub fn is_pc(self) -> bool {
        self == Reg::Pc
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Sp => f.write_str("sp"),
            Reg::Lr => f.write_str("lr"),
            Reg::Pc => f.write_str("pc"),
            r => write!(f, "r{}", r.index()),
        }
    }
}

impl FromStr for Reg {
    type Err = String;

    fn from_str(s: &str) -> Result<Reg, String> {
        match s {
            "sp" | "r13" => return Ok(Reg::Sp),
            "lr" | "r14" => return Ok(Reg::Lr),
            "pc" | "r15" => return Ok(Reg::Pc),
            _ => {}
        }
        let n: usize = s
            .strip_prefix('r')
            .ok_or_else(|| format!("bad register `{s}`"))?
            .parse()
            .map_err(|_| format!("bad register `{s}`"))?;
        Reg::from_index(n).ok_or_else(|| format!("register index out of range: `{s}`"))
    }
}

/// A guest single-precision floating-point register (`s0`–`s15`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FReg(u8);

impl FReg {
    /// Creates `s<i>`; panics if `i >= 16`.
    #[must_use]
    pub fn new(i: u8) -> FReg {
        assert!(i < 16, "float register index out of range: {i}");
        FReg(i)
    }

    /// The register's index (0–15).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl FromStr for FReg {
    type Err = String;

    fn from_str(s: &str) -> Result<FReg, String> {
        let n: u8 = s
            .strip_prefix('s')
            .ok_or_else(|| format!("bad float register `{s}`"))?
            .parse()
            .map_err(|_| format!("bad float register `{s}`"))?;
        if n < 16 {
            Ok(FReg(n))
        } else {
            Err(format!("float register index out of range: `{s}`"))
        }
    }
}

/// A set of general-purpose registers, used by `push`/`pop`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct RegList(u16);

impl RegList {
    /// The empty list.
    pub const EMPTY: RegList = RegList(0);

    /// Creates a list from registers.
    pub fn from_regs<I: IntoIterator<Item = Reg>>(iter: I) -> RegList {
        let mut l = RegList(0);
        for r in iter {
            l.insert(r);
        }
        l
    }

    /// Raw bitmask (bit *i* = `r<i>`).
    #[must_use]
    pub fn bits(self) -> u16 {
        self.0
    }

    /// List from a raw bitmask.
    #[must_use]
    pub fn from_bits(bits: u16) -> RegList {
        RegList(bits)
    }

    /// Inserts a register.
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1 << r.index();
    }

    /// Whether the list contains `r`.
    #[must_use]
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of registers in the list.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates in ascending register order (the order `pop` restores and
    /// the reverse of the order `push` stores).
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        Reg::ALL.into_iter().filter(move |r| self.contains(*r))
    }
}

impl FromIterator<Reg> for RegList {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> RegList {
        RegList::from_regs(iter)
    }
}

impl fmt::Debug for RegList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RegList({self})")
    }
}

impl fmt::Display for RegList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for r in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_index_roundtrip() {
        for r in Reg::ALL {
            assert_eq!(Reg::from_index(r.index()), Some(r));
        }
        assert_eq!(Reg::from_index(16), None);
    }

    #[test]
    fn reg_display_and_parse() {
        assert_eq!(Reg::R0.to_string(), "r0");
        assert_eq!(Reg::Sp.to_string(), "sp");
        assert_eq!("r7".parse::<Reg>(), Ok(Reg::R7));
        assert_eq!("pc".parse::<Reg>(), Ok(Reg::Pc));
        assert_eq!("r13".parse::<Reg>(), Ok(Reg::Sp));
        assert!("r16".parse::<Reg>().is_err());
        assert!("x0".parse::<Reg>().is_err());
    }

    #[test]
    fn freg_basics() {
        let s3 = FReg::new(3);
        assert_eq!(s3.index(), 3);
        assert_eq!(s3.to_string(), "s3");
        assert_eq!("s15".parse::<FReg>(), Ok(FReg::new(15)));
        assert!("s16".parse::<FReg>().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn freg_out_of_range_panics() {
        let _ = FReg::new(16);
    }

    #[test]
    fn reglist_ops() {
        let l: RegList = [Reg::R4, Reg::R5, Reg::Lr].into_iter().collect();
        assert_eq!(l.len(), 3);
        assert!(l.contains(Reg::R4) && l.contains(Reg::Lr));
        assert!(!l.contains(Reg::R0));
        assert_eq!(
            l.iter().collect::<Vec<_>>(),
            vec![Reg::R4, Reg::R5, Reg::Lr]
        );
        assert_eq!(l.to_string(), "{r4, r5, lr}");
        assert_eq!(RegList::from_bits(l.bits()), l);
        assert!(RegList::EMPTY.is_empty());
    }
}
