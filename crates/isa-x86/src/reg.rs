//! Host register file: eight 32-bit general-purpose registers and eight
//! scalar-float (XMM-like) registers.

use std::fmt;
use std::str::FromStr;

/// A host general-purpose register.
///
/// By the DBT's convention (see `pdbt-runtime`), `ebp` holds the guest
/// environment pointer (the in-memory guest register array) and `esp` the
/// host stack pointer; the remaining six are allocatable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[allow(missing_docs)]
pub enum Reg {
    #[default]
    Eax,
    Ecx,
    Edx,
    Ebx,
    Esp,
    Ebp,
    Esi,
    Edi,
}

impl Reg {
    /// All eight registers in encoding order.
    pub const ALL: [Reg; 8] = [
        Reg::Eax,
        Reg::Ecx,
        Reg::Edx,
        Reg::Ebx,
        Reg::Esp,
        Reg::Ebp,
        Reg::Esi,
        Reg::Edi,
    ];

    /// Encoding index (0–7).
    #[must_use]
    pub fn index(self) -> usize {
        Reg::ALL.iter().position(|r| *r == self).unwrap()
    }

    /// Register from index.
    #[must_use]
    pub fn from_index(i: usize) -> Option<Reg> {
        Reg::ALL.get(i).copied()
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Reg::Eax => "eax",
            Reg::Ecx => "ecx",
            Reg::Edx => "edx",
            Reg::Ebx => "ebx",
            Reg::Esp => "esp",
            Reg::Ebp => "ebp",
            Reg::Esi => "esi",
            Reg::Edi => "edi",
        };
        f.write_str(s)
    }
}

impl FromStr for Reg {
    type Err = String;

    fn from_str(s: &str) -> Result<Reg, String> {
        Reg::ALL
            .into_iter()
            .find(|r| r.to_string() == s)
            .ok_or_else(|| format!("bad host register `{s}`"))
    }
}

/// A host scalar-float register (`xmm0`–`xmm7`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Xmm(u8);

impl Xmm {
    /// Creates `xmm<i>`; panics if `i >= 8`.
    #[must_use]
    pub fn new(i: u8) -> Xmm {
        assert!(i < 8, "xmm register index out of range: {i}");
        Xmm(i)
    }

    /// Encoding index (0–7).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Xmm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xmm{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for r in Reg::ALL {
            assert_eq!(Reg::from_index(r.index()), Some(r));
        }
        assert_eq!(Reg::from_index(8), None);
    }

    #[test]
    fn display_and_parse() {
        assert_eq!(Reg::Eax.to_string(), "eax");
        assert_eq!("edi".parse::<Reg>(), Ok(Reg::Edi));
        assert!("rax".parse::<Reg>().is_err());
    }

    #[test]
    fn xmm_basics() {
        assert_eq!(Xmm::new(3).index(), 3);
        assert_eq!(Xmm::new(0).to_string(), "xmm0");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn xmm_out_of_range() {
        let _ = Xmm::new(8);
    }
}
