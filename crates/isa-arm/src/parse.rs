//! A small assembler: parses the disassembly syntax back into
//! instructions, so tests and examples can write guest code as text.
//!
//! The grammar is exactly what [`Inst`]'s `Display` produces, e.g.
//! `adds r0, r1, #5`, `ldr r3, [sp, #16]`, `bne .-8`, `push {r4, lr}`.

use crate::inst::{Inst, Op};
use crate::operand::{MemAddr, Operand, ShiftKind};
use crate::reg::{FReg, Reg, RegList};
use pdbt_isa::Cond;
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::OnceLock;

/// An assembler parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.detail)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(detail: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        detail: detail.into(),
    })
}

/// The operand text's pieces, split on top-level commas (commas inside
/// `[...]` and `{...}` do not split), each trimmed. A last piece that is
/// empty is no piece.
struct Pieces<'a>(&'a str);

impl<'a> Iterator for Pieces<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let mut depth = 0usize;
        for (i, b) in self.0.bytes().enumerate() {
            match b {
                b'[' | b'{' => depth += 1,
                b']' | b'}' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    let piece = self.0[..i].trim();
                    self.0 = &self.0[i + 1..];
                    return Some(piece);
                }
                _ => {}
            }
        }
        let last = std::mem::take(&mut self.0).trim();
        (!last.is_empty()).then_some(last)
    }
}

fn parse_imm(s: &str) -> Result<i64, ParseError> {
    let body = s.strip_prefix('#').unwrap_or(s);
    let (neg, digits) = match body.strip_prefix('-') {
        Some(d) => (true, d),
        None => (false, body),
    };
    let v = if let Some(hex) = digits.strip_prefix("0x") {
        i64::from_str_radix(hex, 16)
    } else {
        digits.parse::<i64>()
    };
    match v {
        Ok(v) => Ok(if neg { -v } else { v }),
        Err(_) => err(format!("bad immediate `{s}`")),
    }
}

fn parse_mem(s: &str) -> Result<MemAddr, ParseError> {
    let inner = s
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| ParseError {
            detail: format!("bad memory operand `{s}`"),
        })?;
    let mut parts = inner.split(',').map(str::trim);
    let base = Reg::from_str(parts.next().unwrap_or("")).map_err(|e| ParseError { detail: e })?;
    match (parts.next(), parts.next()) {
        (None, _) => Ok(MemAddr::BaseImm { base, offset: 0 }),
        (Some(second), None) => {
            if second.starts_with('#') {
                Ok(MemAddr::BaseImm {
                    base,
                    offset: parse_imm(second)? as i32,
                })
            } else {
                let index = Reg::from_str(second).map_err(|e| ParseError { detail: e })?;
                Ok(MemAddr::BaseReg { base, index })
            }
        }
        _ => err(format!("bad memory operand `{s}`")),
    }
}

fn parse_reglist(s: &str) -> Result<RegList, ParseError> {
    let inner = s
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| ParseError {
            detail: format!("bad register list `{s}`"),
        })?;
    let mut list = RegList::EMPTY;
    for part in inner.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        list.insert(Reg::from_str(part).map_err(|e| ParseError { detail: e })?);
    }
    Ok(list)
}

/// Parses one operand. A trailing shifted-register pair such as
/// `r1, lsl #2` arrives as two comma-split pieces, so the caller glues
/// them; this function only sees single pieces.
fn parse_operand(s: &str) -> Result<Operand, ParseError> {
    if s.starts_with('#') {
        return Ok(Operand::Imm(parse_imm(s)? as u32));
    }
    if s.starts_with('[') {
        return Ok(Operand::Mem(parse_mem(s)?));
    }
    if s.starts_with('{') {
        return Ok(Operand::RegList(parse_reglist(s)?));
    }
    if let Some(rest) = s.strip_prefix(".") {
        let d = parse_imm(rest.strip_prefix('+').unwrap_or(rest))?;
        return Ok(Operand::Target(d as i32));
    }
    if s.starts_with('s') && s[1..].chars().all(|c| c.is_ascii_digit()) {
        return Ok(Operand::FReg(
            FReg::from_str(s).map_err(|e| ParseError { detail: e })?,
        ));
    }
    Ok(Operand::Reg(
        Reg::from_str(s).map_err(|e| ParseError { detail: e })?,
    ))
}

/// Recognizes `<reg>, <shift> #<amount>` produced when the last two
/// comma-split pieces form a shifted-register operand.
fn try_glue_shift(a: &str, b: &str) -> Option<Operand> {
    let mut it = b.split_whitespace();
    let kind = match it.next()? {
        "lsl" => ShiftKind::Lsl,
        "lsr" => ShiftKind::Lsr,
        "asr" => ShiftKind::Asr,
        "ror" => ShiftKind::Ror,
        _ => return None,
    };
    let amount: u8 = it.next()?.strip_prefix('#')?.parse().ok()?;
    let rm = Reg::from_str(a).ok()?;
    Some(Operand::Shifted { rm, kind, amount })
}

/// What a mnemonic means: opcode, `s` suffix, condition.
type Mnemonic = (Op, bool, Cond);

/// Every mnemonic the grammar spells — an opcode, then `s` where the
/// opcode takes it, then a condition suffix or none — built once. Where
/// two spellings coincide the longer opcode wins, ties going to the
/// first in `Op::ALL`: what matching the opcodes longest first against
/// the text would pick. No condition starts with `s`, so `s` after an
/// opcode that takes it is always the suffix.
fn mnemonics() -> &'static HashMap<String, Mnemonic> {
    static TABLE: OnceLock<HashMap<String, Mnemonic>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut ops = Op::ALL.to_vec();
        ops.sort_by_key(|o| std::cmp::Reverse(o.mnemonic().len()));
        let mut table = HashMap::new();
        for op in ops {
            let suffixes: &[bool] = if op.supports_s() {
                &[false, true]
            } else {
                &[false]
            };
            for &s in suffixes {
                for cond in std::iter::once(Cond::Al).chain(Cond::ALL) {
                    let text = format!(
                        "{}{}{}",
                        op.mnemonic(),
                        if s { "s" } else { "" },
                        cond.suffix()
                    );
                    table.entry(text).or_insert((op, s, cond));
                }
            }
        }
        table
    })
}

/// Splits a mnemonic into `(opcode, s, cond)`.
fn parse_mnemonic(m: &str) -> Result<Mnemonic, ParseError> {
    match mnemonics().get(m) {
        Some(&meaning) => Ok(meaning),
        None => err(format!("unknown mnemonic `{m}`")),
    }
}

impl FromStr for Inst {
    type Err = ParseError;

    fn from_str(line: &str) -> Result<Inst, ParseError> {
        let line = line.trim();
        let (mnemonic, rest) = match line.find(char::is_whitespace) {
            Some(i) => (&line[..i], line[i..].trim()),
            None => (line, ""),
        };
        let (op, s, cond) = parse_mnemonic(mnemonic)?;
        // The instruction's own `Vec`, the one allocation of a line: no
        // shape takes more than four operands.
        let mut operands = Vec::with_capacity(4);
        let mut pieces = Pieces(rest).peekable();
        while let Some(piece) = pieces.next() {
            match pieces.peek().and_then(|next| try_glue_shift(piece, next)) {
                Some(glued) => {
                    pieces.next();
                    operands.push(glued);
                }
                None => operands.push(parse_operand(piece)?),
            }
        }
        let mut inst = Inst::new(op, operands).map_err(|e| ParseError {
            detail: e.to_string(),
        })?;
        if s {
            inst = inst.with_s();
        }
        Ok(inst.with_cond(cond))
    }
}

/// Parses a multi-line listing (blank lines and `;` comments ignored).
///
/// # Errors
///
/// The first [`ParseError`] encountered, annotated with its line.
pub fn parse_listing(text: &str) -> Result<Vec<Inst>, ParseError> {
    let mut out = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let inst: Inst = line.parse().map_err(|e: ParseError| ParseError {
            detail: format!("line {}: {}", no + 1, e.detail),
        })?;
        out.push(inst);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::*;

    fn roundtrip(i: &Inst) {
        let text = i.to_string();
        let back: Inst = text
            .parse()
            .unwrap_or_else(|e| panic!("parse `{text}`: {e}"));
        assert_eq!(&back, i, "text roundtrip of `{text}`");
    }

    #[test]
    fn parse_roundtrips_display() {
        let cases = vec![
            add(Reg::R0, Reg::R1, Operand::Imm(5)),
            add(Reg::R0, Reg::R1, Operand::Reg(Reg::R2)).with_s(),
            sub(Reg::R0, Reg::Sp, Operand::Imm(16)),
            eor(
                Reg::R3,
                Reg::R3,
                Operand::Shifted {
                    rm: Reg::R4,
                    kind: ShiftKind::Lsl,
                    amount: 2,
                },
            ),
            mov(Reg::R0, Operand::Imm(0)).with_cond(Cond::Eq),
            mvn(Reg::R7, Operand::Reg(Reg::R8)).with_s(),
            clz(Reg::R1, Reg::R2),
            mla(Reg::R0, Reg::R1, Reg::R2, Reg::R3),
            cmp(Reg::R0, Operand::Imm(100)),
            ldr(
                Reg::R0,
                MemAddr::BaseImm {
                    base: Reg::Sp,
                    offset: -8,
                },
            ),
            ldr(
                Reg::R2,
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: 0,
                },
            ),
            strb(
                Reg::R1,
                MemAddr::BaseReg {
                    base: Reg::R2,
                    index: Reg::R3,
                },
            ),
            push([Reg::R4, Reg::Lr]),
            pop([Reg::R4, Reg::Pc]),
            b(Cond::Ne, -8),
            b(Cond::Al, 64),
            bl(256),
            bx(Reg::Lr),
            svc(0),
            vadd(FReg::new(0), FReg::new(1), FReg::new(2)),
            vldr(
                FReg::new(3),
                MemAddr::BaseImm {
                    base: Reg::R0,
                    offset: 4,
                },
            ),
        ];
        for i in &cases {
            roundtrip(i);
        }
    }

    #[test]
    fn parse_listing_with_comments() {
        let text = "
            mov r0, #5      ; counter
            mov r1, #0

            add r1, r1, r0
            subs r0, r0, #1
            bne .-8
            svc #0
        ";
        let insts = parse_listing(text).unwrap();
        assert_eq!(insts.len(), 6);
        assert_eq!(insts[3], sub(Reg::R0, Reg::R0, Operand::Imm(1)).with_s());
        assert_eq!(insts[4], b(Cond::Ne, -8));
    }

    #[test]
    fn parse_errors_are_located() {
        let e = parse_listing("mov r0, #1\nbogus r1").unwrap_err();
        assert!(e.detail.contains("line 2"), "{e}");
    }

    #[test]
    fn parse_hex_immediates() {
        let i: Inst = "mov r0, #0xff".parse().unwrap();
        assert_eq!(i, mov(Reg::R0, Operand::Imm(255)));
    }

    #[test]
    fn ambiguous_mnemonics_resolve() {
        // `muls` is mul + s, not m + uls; `bls` is b + ls condition.
        let i: Inst = "muls r0, r1, r2".parse().unwrap();
        assert_eq!(i.op, Op::Mul);
        assert!(i.s);
        let i: Inst = "bls .+8".parse().unwrap();
        assert_eq!(i.op, Op::B);
        assert_eq!(i.cond, Cond::Ls);
        // `bics` = bic + s.
        let i: Inst = "bics r0, r0, r1".parse().unwrap();
        assert_eq!(i.op, Op::Bic);
        assert!(i.s);
    }
}
