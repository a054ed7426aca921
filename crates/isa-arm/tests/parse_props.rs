//! The listing parser's contract (`parse_listing`, `Inst::from_str`):
//! every instruction `Display` prints parses back to itself, and every
//! malformed line fails with its pinned error text.
//!
//! The property draws seeded instructions of every opcode in `Op::ALL`,
//! with every operand kind its shape takes, random `s` and condition,
//! and round-trips each one alone and inside a listing. The mnemonic
//! table is held to its definition too: matching the opcodes longest
//! first against the text, over every spelling and its near misses.
//! `FUZZ_CASES` scales the property.

use pdbt_isa::Cond;
use pdbt_isa_arm::{
    parse_listing, FReg, Inst, MemAddr, Op, Operand, Reg, RegList, Shape, ShiftKind, MAX_IMM,
    MAX_MEM_OFFSET,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cases() -> usize {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

fn reg(rng: &mut StdRng) -> Reg {
    Reg::ALL[rng.gen_range(0..16)]
}

fn freg(rng: &mut StdRng) -> Operand {
    Operand::FReg(FReg::new(rng.gen_range(0u8..16)))
}

/// A flexible second operand: register, immediate or shifted register.
fn flex(rng: &mut StdRng) -> Operand {
    match rng.gen_range(0..3) {
        0 => Operand::Reg(reg(rng)),
        1 => Operand::Imm(rng.gen_range(0..=MAX_IMM)),
        _ => Operand::Shifted {
            rm: reg(rng),
            kind: ShiftKind::ALL[rng.gen_range(0..4)],
            amount: rng.gen_range(0u8..32),
        },
    }
}

fn mem(rng: &mut StdRng) -> Operand {
    let max = MAX_MEM_OFFSET as i32;
    Operand::Mem(match rng.gen_range(0..3) {
        0 => MemAddr::BaseImm {
            base: reg(rng),
            offset: 0,
        },
        1 => MemAddr::BaseImm {
            base: reg(rng),
            offset: rng.gen_range(-max..=max),
        },
        _ => MemAddr::BaseReg {
            base: reg(rng),
            index: reg(rng),
        },
    })
}

/// The operands of a random instruction of shape `shape`.
fn operands(rng: &mut StdRng, shape: Shape) -> Vec<Operand> {
    let r = |rng: &mut StdRng| Operand::Reg(reg(rng));
    match shape {
        Shape::Dp3 => vec![r(rng), r(rng), flex(rng)],
        Shape::Dp2 | Shape::Cmp2 => vec![r(rng), flex(rng)],
        Shape::Unary2 => vec![r(rng), r(rng)],
        Shape::Mul3 => vec![r(rng), r(rng), r(rng)],
        Shape::Mul4 => vec![r(rng), r(rng), r(rng), r(rng)],
        Shape::LdSt => vec![r(rng), mem(rng)],
        Shape::Stack => {
            let mut list = RegList::EMPTY;
            for _ in 0..rng.gen_range(1..8) {
                list.insert(reg(rng));
            }
            vec![Operand::RegList(list)]
        }
        Shape::Branch => vec![Operand::Target(match rng.gen_range(0..3) {
            0 => rng.gen_range(-64..64) * 4,
            1 => rng.gen::<u32>() as i32,
            _ => [i32::MIN, i32::MAX, 0][rng.gen_range(0..3)],
        })],
        Shape::BranchReg => vec![r(rng)],
        Shape::Sys => vec![Operand::Imm(rng.gen())],
        Shape::Vfp3 => vec![freg(rng), freg(rng), freg(rng)],
        Shape::Vfp2 => vec![freg(rng), freg(rng)],
        Shape::VfpLdSt => vec![freg(rng), mem(rng)],
    }
}

/// A random instruction of opcode `op`: operands of its shape, `s` where
/// it takes it, any condition.
fn inst(rng: &mut StdRng, op: Op) -> Inst {
    let mut inst = Inst::new(op, operands(rng, op.shape())).expect("a well-shaped instruction");
    if op.supports_s() && rng.gen_bool(0.5) {
        inst = inst.with_s();
    }
    inst.with_cond(Cond::ALL[rng.gen_range(0..Cond::ALL.len())])
}

#[test]
fn every_opcode_and_shape_parses_back_from_its_text() {
    let mut rng = StdRng::seed_from_u64(0x9A25_E11D);
    for case in 0..cases() {
        let insts: Vec<Inst> = Op::ALL.iter().map(|&op| inst(&mut rng, op)).collect();
        for i in &insts {
            let text = i.to_string();
            let back: Inst = text
                .parse()
                .unwrap_or_else(|e| panic!("case {case}: `{text}`: {e}"));
            assert_eq!(&back, i, "case {case}: `{text}`");
        }
        // The same instructions as one listing, with the blank lines,
        // comments and indentation a listing may carry.
        let listing: String = insts
            .iter()
            .enumerate()
            .map(|(n, i)| match n % 3 {
                0 => format!("  {i}  ; #{n}\n"),
                1 => format!("{i}\n\n"),
                _ => format!("\t{i}\r\n; a comment line\n"),
            })
            .collect();
        assert_eq!(parse_listing(&listing).expect("the listing parses"), insts);
    }
}

/// The mnemonic matcher the table must agree with: opcodes longest
/// first (ties in `Op::ALL` order), then an optional `s`, then an
/// optional condition; a remainder that is no condition moves on to
/// the next opcode.
fn longest_match(m: &str) -> Option<(Op, bool, Cond)> {
    let mut ops = Op::ALL.to_vec();
    ops.sort_by_key(|o| std::cmp::Reverse(o.mnemonic().len()));
    ops.into_iter().find_map(|op| {
        let rest = m.strip_prefix(op.mnemonic())?;
        let (s, rest) = match rest.strip_prefix('s') {
            Some(after) if op.supports_s() => (true, after),
            _ => (false, rest),
        };
        let cond = if rest.is_empty() {
            Cond::Al
        } else {
            *Cond::ALL.iter().find(|c| c.suffix() == rest)?
        };
        Some((op, s, cond))
    })
}

#[test]
fn the_mnemonic_table_matches_the_longest_opcode_first() {
    let mut spellings = vec![String::new(), "s".into(), "bl".into(), "bls".into()];
    for op in Op::ALL {
        for s in ["", "s"] {
            for cond in Cond::ALL {
                spellings.push(format!("{}{s}{}", op.mnemonic(), cond.suffix()));
            }
        }
    }
    // Near misses: each spelling cut short, and with a letter after.
    let near: Vec<String> = spellings
        .iter()
        .flat_map(|m| {
            let cut = m.char_indices().last().map(|(i, _)| m[..i].to_string());
            cut.into_iter()
                .chain(["s", "x", "q", "al"].map(|t| format!("{m}{t}")))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0x3A7C);
    for m in spellings.iter().chain(&near) {
        match longest_match(m) {
            None => {
                let err = m.parse::<Inst>().expect_err(m);
                assert_eq!(err.detail, format!("unknown mnemonic `{m}`"));
            }
            Some(want) => {
                // Operands that fit the opcode, borrowed from an
                // instruction of it.
                let text = inst(&mut rng, want.0).to_string();
                let operands = text.split_once(' ').map_or("", |(_, rest)| rest);
                let i: Inst = format!("{m} {operands}")
                    .parse()
                    .unwrap_or_else(|e| panic!("`{m} {operands}`: {e}"));
                assert_eq!((i.op, i.s, i.cond), want, "mnemonic `{m}`");
            }
        }
    }
}

/// Malformed lines, each after a good first line, and the exact error
/// `parse_listing` gives for each: unknown mnemonics, bad condition
/// suffixes, bad immediates, bad memory operands, bad register lists,
/// bad registers and shape mismatches.
const MALFORMED: &[(&str, &str)] = &[
    (
        "frob r0, r1",
        "parse error: line 2: unknown mnemonic `frob`",
    ),
    (
        "addz r0, r0, #1",
        "parse error: line 2: unknown mnemonic `addz`",
    ),
    (
        "movss r0, #1",
        "parse error: line 2: unknown mnemonic `movss`",
    ),
    ("bxeq2 lr", "parse error: line 2: unknown mnemonic `bxeq2`"),
    ("s0", "parse error: line 2: unknown mnemonic `s0`"),
    (
        "addxx r0, r1, r2",
        "parse error: line 2: unknown mnemonic `addxx`",
    ),
    ("beqq .+8", "parse error: line 2: unknown mnemonic `beqq`"),
    ("bal .+8", "parse error: line 2: unknown mnemonic `bal`"),
    (
        "clzs r0, r1",
        "parse error: line 2: unknown mnemonic `clzs`",
    ),
    (
        "pusheqs {r4}",
        "parse error: line 2: unknown mnemonic `pusheqs`",
    ),
    ("mov r0, #x", "parse error: line 2: bad immediate `#x`"),
    (
        "mov r0, #0xzz",
        "parse error: line 2: bad immediate `#0xzz`",
    ),
    (
        "add r0, r1, #99999999999999999999",
        "parse error: line 2: bad immediate `#99999999999999999999`",
    ),
    ("svc #", "parse error: line 2: bad immediate `#`"),
    ("b .+x", "parse error: line 2: bad immediate `x`"),
    ("mov r0, 5", "parse error: line 2: bad register `5`"),
    (
        "ldr r0, [r1",
        "parse error: line 2: bad memory operand `[r1`",
    ),
    (
        "ldr r0, [r1, #4, r2]",
        "parse error: line 2: bad memory operand `[r1, #4, r2]`",
    ),
    ("str r0, [x9]", "parse error: line 2: bad register `x9`"),
    (
        "ldr r0, [r1, #y]",
        "parse error: line 2: bad immediate `#y`",
    ),
    ("ldr r0, r1]", "parse error: line 2: bad register `r1]`"),
    (
        "push {r4, lr",
        "parse error: line 2: bad register list `{r4, lr`",
    ),
    ("push {r4, x}", "parse error: line 2: bad register `x`"),
    (
        "pop {}",
        "parse error: line 2: malformed instruction: empty register list",
    ),
    ("push r4}", "parse error: line 2: bad register `r4}`"),
    (
        "add r0, r1",
        "parse error: line 2: malformed instruction: operand shape mismatch for add r0, r1",
    ),
    (
        "mov r0, r1, r2, r3",
        "parse error: line 2: malformed instruction: operand shape mismatch for mov r0, r1, r2, r3",
    ),
    (
        "mov r16, #1",
        "parse error: line 2: register index out of range: `r16`",
    ),
    ("mov q0, #1", "parse error: line 2: bad register `q0`"),
    (
        "add r0, r1, r2, lsl #x",
        "parse error: line 2: bad register `lsl #x`",
    ),
    (
        "add r0, r1, r2, lsx #2",
        "parse error: line 2: bad register `lsx #2`",
    ),
    (
        "mov r0, #4096",
        "parse error: line 2: malformed instruction: immediate 4096 exceeds encodable range",
    ),
    (
        "ldr r0, [r1, #4096]",
        "parse error: line 2: malformed instruction: memory offset 4096 exceeds encodable range",
    ),
    (
        "vadd s0, s1, s16",
        "parse error: line 2: unknown mnemonic `vadd`",
    ),
    ("mov r0,, r1", "parse error: line 2: bad register ``"),
    (
        "vadd.f32 s0, s1, s16",
        "parse error: line 2: float register index out of range: `s16`",
    ),
    (
        "vldr s0, [r1, #8",
        "parse error: line 2: bad memory operand `[r1, #8`",
    ),
    (
        "ADD r0, r1, r2",
        "parse error: line 2: unknown mnemonic `ADD`",
    ),
    (
        "add r0, r1, #-1",
        "parse error: line 2: malformed instruction: immediate 4294967295 exceeds encodable range",
    ),
];

#[test]
fn malformed_lines_fail_with_their_pinned_text() {
    for &(line, want) in MALFORMED {
        let err = parse_listing(&format!("mov r0, #1\n{line}")).expect_err(line);
        assert_eq!(err.to_string(), want, "`{line}`");
    }
}
