//! Guest-instruction parameterization: canonical combo keys.
//!
//! "When a guest instruction is being translated, it is first
//! parameterized to retrieve the rules for translation" (paper §IV-D).
//! [`parameterize`] strips a guest instruction down to its *combo key* —
//! opcode, set-flags bit, per-operand addressing-mode tags, and the
//! operand dependence pattern (paper Fig 8) — plus the concrete register
//! and immediate values needed to instantiate a matched rule.

use pdbt_isa_arm::{Inst, MemAddr, Op, Operand, Reg, ShiftKind};
use std::fmt;

/// Addressing-mode tag of one operand position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModeTag {
    /// A register.
    Reg,
    /// An immediate (value becomes an immediate slot).
    Imm,
    /// A barrel-shifted register (amount becomes an immediate slot).
    Shifted(ShiftKind),
    /// `[base, #disp]` memory (disp becomes an immediate slot).
    MemBaseImm,
    /// `[base, index]` memory.
    MemBaseReg,
    /// A branch target / register list — not parameterizable.
    Opaque,
}

impl fmt::Display for ModeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModeTag::Reg => f.write_str("reg"),
            ModeTag::Imm => f.write_str("imm"),
            ModeTag::Shifted(k) => write!(f, "sreg-{k}"),
            ModeTag::MemBaseImm => f.write_str("mem-bi"),
            ModeTag::MemBaseReg => f.write_str("mem-br"),
            ModeTag::Opaque => f.write_str("opaque"),
        }
    }
}

/// The canonical shape of one guest instruction: everything about it
/// except *which* registers and immediates it names.
///
/// `reg_pattern` lists, for every register mention in operand-scan
/// order, the *slot index* it resolves to — so `add r0, r0, r1` has
/// pattern `[0, 0, 1]` and `add r2, r0, r1` has `[0, 1, 2]`, distinct
/// keys with distinct (aux-move-bearing) templates, which is how the
/// paper's dependence constraints (§IV-C2, Fig 8) are enforced.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComboKey {
    /// The opcode.
    pub op: Op,
    /// The set-flags bit.
    pub s: bool,
    /// Addressing-mode tag per operand position.
    pub modes: Vec<ModeTag>,
    /// Slot index per register mention (scan order).
    pub reg_pattern: Vec<u8>,
}

impl fmt::Display for ComboKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.op, if self.s { "s" } else { "" })?;
        for m in &self.modes {
            write!(f, " {m}")?;
        }
        write!(f, " /")?;
        for p in &self.reg_pattern {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// The concrete part of a parameterized guest instruction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Instantiation {
    /// Slot index → guest register.
    pub slots: Vec<Reg>,
    /// Immediate slot index → value (op2 immediates, shift amounts,
    /// memory displacements, in scan order).
    pub imms: Vec<u32>,
}

/// The result of parameterizing one guest instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parameterized {
    /// The canonical key.
    pub key: ComboKey,
    /// The concrete registers and immediates.
    pub inst: Instantiation,
}

struct Builder {
    modes: Vec<ModeTag>,
    reg_pattern: Vec<u8>,
    slots: Vec<Reg>,
    imms: Vec<u32>,
    opaque: bool,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            modes: Vec::new(),
            reg_pattern: Vec::new(),
            slots: Vec::new(),
            imms: Vec::new(),
            opaque: false,
        }
    }

    fn reg(&mut self, r: Reg) {
        let idx = match self.slots.iter().position(|s| *s == r) {
            Some(i) => i,
            None => {
                self.slots.push(r);
                self.slots.len() - 1
            }
        };
        self.reg_pattern.push(idx as u8);
    }

    fn operand(&mut self, o: &Operand) {
        match o {
            Operand::Reg(r) => {
                self.modes.push(ModeTag::Reg);
                self.reg(*r);
            }
            Operand::Imm(v) => {
                self.modes.push(ModeTag::Imm);
                self.imms.push(*v);
            }
            Operand::Shifted { rm, kind, amount } => {
                self.modes.push(ModeTag::Shifted(*kind));
                self.reg(*rm);
                self.imms.push(u32::from(*amount));
            }
            Operand::Mem(MemAddr::BaseImm { base, offset }) => {
                self.modes.push(ModeTag::MemBaseImm);
                self.reg(*base);
                self.imms.push(*offset as u32);
            }
            Operand::Mem(MemAddr::BaseReg { base, index }) => {
                self.modes.push(ModeTag::MemBaseReg);
                self.reg(*base);
                self.reg(*index);
            }
            Operand::FReg(_) | Operand::RegList(_) | Operand::Target(_) => {
                self.modes.push(ModeTag::Opaque);
                self.opaque = true;
            }
        }
    }
}

/// Parameterizes a guest instruction into its combo key and concrete
/// instantiation. Returns `None` for instructions outside the
/// rule-translatable universe (branches, stack ops, predicated
/// execution, system calls, floating point, PC-mentioning operands —
/// the paper's Fig 9 constraint).
#[must_use]
pub fn parameterize(inst: &Inst) -> Option<Parameterized> {
    if inst.cond != pdbt_isa::Cond::Al {
        return None;
    }
    if matches!(
        inst.op,
        Op::B | Op::Bl | Op::Bx | Op::Push | Op::Pop | Op::Svc
    ) {
        return None;
    }
    let mut b = Builder::new();
    for o in &inst.operands {
        b.operand(o);
    }
    if b.opaque || b.slots.iter().any(|r| r.is_pc()) {
        return None;
    }
    Some(Parameterized {
        key: ComboKey {
            op: inst.op,
            s: inst.s,
            modes: b.modes,
            reg_pattern: b.reg_pattern,
        },
        inst: Instantiation {
            slots: b.slots,
            imms: b.imms,
        },
    })
}

/// Reconstructs a concrete guest instruction from a key and an
/// instantiation — the inverse of [`parameterize`], used to build
/// verification instances of derived rules (paper §IV-C: "we first
/// instantiate all possible derived rules from the parameterized rule,
/// and verify each").
///
/// Returns `None` if the slot/immediate counts do not fit the key.
#[must_use]
pub fn reconstruct(key: &ComboKey, inst: &Instantiation) -> Option<Inst> {
    reconstruct_from(key, &inst.slots, &inst.imms)
}

fn reconstruct_from(key: &ComboKey, slots: &[Reg], imms: &[u32]) -> Option<Inst> {
    let mut pattern = key.reg_pattern.iter();
    let mut imms = imms.iter();
    let mut next_reg = || -> Option<Reg> {
        let slot = *pattern.next()?;
        slots.get(slot as usize).copied()
    };
    let mut operands = Vec::with_capacity(key.modes.len());
    for m in &key.modes {
        let o = match m {
            ModeTag::Reg => Operand::Reg(next_reg()?),
            ModeTag::Imm => Operand::Imm(*imms.next()?),
            ModeTag::Shifted(kind) => {
                let rm = next_reg()?;
                let amount = *imms.next()? as u8;
                Operand::Shifted {
                    rm,
                    kind: *kind,
                    amount,
                }
            }
            ModeTag::MemBaseImm => {
                let base = next_reg()?;
                let offset = *imms.next()? as i32;
                Operand::Mem(MemAddr::BaseImm { base, offset })
            }
            ModeTag::MemBaseReg => {
                let base = next_reg()?;
                let index = next_reg()?;
                Operand::Mem(MemAddr::BaseReg { base, index })
            }
            ModeTag::Opaque => return None,
        };
        operands.push(o);
    }
    let mut out = Inst::new(key.op, operands).ok()?;
    if key.s {
        if !key.op.supports_s() {
            return None;
        }
        out = out.with_s();
    }
    Some(out)
}

/// The number of register slots a key binds.
#[must_use]
pub fn slot_count(key: &ComboKey) -> usize {
    key.reg_pattern
        .iter()
        .map(|p| *p as usize + 1)
        .max()
        .unwrap_or(0)
}

/// The number of immediate slots a key binds.
#[must_use]
pub fn imm_count(key: &ComboKey) -> usize {
    key.modes
        .iter()
        .filter(|m| matches!(m, ModeTag::Imm | ModeTag::Shifted(_) | ModeTag::MemBaseImm))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdbt_isa_arm::builders::*;

    #[test]
    fn rmw_and_distinct_have_different_keys() {
        let rmw = parameterize(&add(Reg::R0, Reg::R0, Operand::Reg(Reg::R1))).unwrap();
        let distinct = parameterize(&add(Reg::R2, Reg::R0, Operand::Reg(Reg::R1))).unwrap();
        assert_eq!(rmw.key.reg_pattern, vec![0, 0, 1]);
        assert_eq!(distinct.key.reg_pattern, vec![0, 1, 2]);
        assert_ne!(rmw.key, distinct.key);
        // Same key regardless of which registers are named.
        let rmw2 = parameterize(&add(Reg::R7, Reg::R7, Operand::Reg(Reg::R3))).unwrap();
        assert_eq!(rmw.key, rmw2.key);
        assert_eq!(rmw2.inst.slots, vec![Reg::R7, Reg::R3]);
    }

    #[test]
    fn immediates_become_slots() {
        let p = parameterize(&add(Reg::R0, Reg::R1, Operand::Imm(42))).unwrap();
        assert_eq!(p.key.modes, vec![ModeTag::Reg, ModeTag::Reg, ModeTag::Imm]);
        assert_eq!(p.inst.imms, vec![42]);
        // Different immediate, same key.
        let q = parameterize(&add(Reg::R0, Reg::R1, Operand::Imm(7))).unwrap();
        assert_eq!(p.key, q.key);
    }

    #[test]
    fn shifted_and_memory_modes() {
        let p = parameterize(&add(
            Reg::R0,
            Reg::R1,
            Operand::Shifted {
                rm: Reg::R2,
                kind: ShiftKind::Lsl,
                amount: 3,
            },
        ))
        .unwrap();
        assert_eq!(p.key.modes[2], ModeTag::Shifted(ShiftKind::Lsl));
        assert_eq!(p.inst.imms, vec![3]);

        let p = parameterize(&ldr(
            Reg::R0,
            MemAddr::BaseImm {
                base: Reg::R1,
                offset: -4,
            },
        ))
        .unwrap();
        assert_eq!(p.key.modes, vec![ModeTag::Reg, ModeTag::MemBaseImm]);
        assert_eq!(p.inst.imms, vec![(-4i32) as u32]);

        let p = parameterize(&str_(
            Reg::R0,
            MemAddr::BaseReg {
                base: Reg::R1,
                index: Reg::R2,
            },
        ))
        .unwrap();
        assert_eq!(p.key.modes, vec![ModeTag::Reg, ModeTag::MemBaseReg]);
        assert_eq!(p.key.reg_pattern, vec![0, 1, 2]);
    }

    #[test]
    fn excluded_instructions() {
        assert!(parameterize(&b(pdbt_isa::Cond::Al, 8)).is_none());
        assert!(parameterize(&bl(8)).is_none());
        assert!(parameterize(&push([Reg::R4])).is_none());
        assert!(parameterize(&svc(0)).is_none());
        assert!(
            parameterize(&mov(Reg::R0, Operand::Imm(1)).with_cond(pdbt_isa::Cond::Eq)).is_none()
        );
        // PC-mentioning operands are constrained out (Fig 9).
        assert!(parameterize(&ldr(
            Reg::R0,
            MemAddr::BaseImm {
                base: Reg::Pc,
                offset: 8
            }
        ))
        .is_none());
    }

    #[test]
    fn s_bit_distinguishes_keys() {
        let plain = parameterize(&add(Reg::R0, Reg::R0, Operand::Imm(1))).unwrap();
        let s = parameterize(&add(Reg::R0, Reg::R0, Operand::Imm(1)).with_s()).unwrap();
        assert_ne!(plain.key, s.key);
        assert!(s.key.s);
    }

    #[test]
    fn reconstruct_roundtrips() {
        let cases = vec![
            add(Reg::R0, Reg::R0, Operand::Reg(Reg::R1)),
            add(Reg::R2, Reg::R0, Operand::Imm(5)).with_s(),
            eor(
                Reg::R3,
                Reg::R3,
                Operand::Shifted {
                    rm: Reg::R4,
                    kind: ShiftKind::Asr,
                    amount: 7,
                },
            ),
            mov(Reg::R1, Operand::Imm(0)),
            mvn(Reg::R1, Operand::Reg(Reg::R2)),
            cmp(Reg::R5, Operand::Imm(10)),
            ldr(
                Reg::R0,
                MemAddr::BaseImm {
                    base: Reg::R1,
                    offset: 16,
                },
            ),
            ldrb(
                Reg::R0,
                MemAddr::BaseReg {
                    base: Reg::R1,
                    index: Reg::R2,
                },
            ),
            strh(
                Reg::R6,
                MemAddr::BaseImm {
                    base: Reg::Sp,
                    offset: 2,
                },
            ),
            mul(Reg::R0, Reg::R1, Reg::R2),
            mla(Reg::R0, Reg::R1, Reg::R2, Reg::R3),
            clz(Reg::R0, Reg::R1),
        ];
        for inst in cases {
            let p = parameterize(&inst).unwrap_or_else(|| panic!("parameterize {inst}"));
            let back = reconstruct(&p.key, &p.inst).unwrap_or_else(|| panic!("reconstruct {inst}"));
            assert_eq!(back, inst, "roundtrip of {inst}");
        }
    }

    #[test]
    fn reconstruct_with_fresh_registers() {
        // The whole point: instantiate a key with registers never seen in
        // training.
        let p = parameterize(&add(Reg::R0, Reg::R0, Operand::Reg(Reg::R1))).unwrap();
        let fresh = Instantiation {
            slots: vec![Reg::R9, Reg::R10],
            imms: vec![],
        };
        let inst = reconstruct(&p.key, &fresh).unwrap();
        assert_eq!(inst, add(Reg::R9, Reg::R9, Operand::Reg(Reg::R10)));
    }

    #[test]
    fn slot_and_imm_counts() {
        let p = parameterize(&add(Reg::R2, Reg::R0, Operand::Imm(5))).unwrap();
        assert_eq!(slot_count(&p.key), 2);
        assert_eq!(imm_count(&p.key), 1);
        let p = parameterize(&str_(
            Reg::R0,
            MemAddr::BaseReg {
                base: Reg::R1,
                index: Reg::R2,
            },
        ))
        .unwrap();
        assert_eq!(slot_count(&p.key), 3);
        assert_eq!(imm_count(&p.key), 0);
    }

    #[test]
    fn reconstruct_rejects_bad_shapes() {
        let p = parameterize(&add(Reg::R0, Reg::R0, Operand::Imm(1))).unwrap();
        // Too few slots.
        assert!(reconstruct(
            &p.key,
            &Instantiation {
                slots: vec![],
                imms: vec![1]
            }
        )
        .is_none());
        // Too few immediates.
        assert!(reconstruct(
            &p.key,
            &Instantiation {
                slots: vec![Reg::R0],
                imms: vec![]
            }
        )
        .is_none());
    }
}

/// Parameterizes a short *sequence* of guest instructions as one unit:
/// register slots and immediate slots are numbered across the whole
/// sequence, so `Vec<ComboKey>` (whose `reg_pattern`s index the shared
/// slots) is the canonical sequence key. Learned sequence rules use
/// this; per §V-D they are matched as-is and never parameterized.
#[must_use]
pub fn parameterize_seq(insts: &[Inst]) -> Option<(Vec<ComboKey>, Instantiation)> {
    if insts.is_empty() {
        return None;
    }
    let mut b = Builder::new();
    let mut keys = Vec::with_capacity(insts.len());
    for inst in insts {
        if inst.cond != pdbt_isa::Cond::Al {
            return None;
        }
        if matches!(
            inst.op,
            Op::B | Op::Bl | Op::Bx | Op::Push | Op::Pop | Op::Svc
        ) {
            return None;
        }
        let modes_start = b.modes.len();
        let pattern_start = b.reg_pattern.len();
        for o in &inst.operands {
            b.operand(o);
        }
        keys.push(ComboKey {
            op: inst.op,
            s: inst.s,
            modes: b.modes[modes_start..].to_vec(),
            reg_pattern: b.reg_pattern[pattern_start..].to_vec(),
        });
    }
    if b.opaque || b.slots.iter().any(|r| r.is_pc()) {
        return None;
    }
    Some((
        keys,
        Instantiation {
            slots: b.slots,
            imms: b.imms,
        },
    ))
}

/// A single-pass incremental [`parameterize_seq`]: scans the longest
/// clean prefix of a window once, recording per-length checkpoints so a
/// caller probing every candidate length (longest-first sequence
/// lookup) can slice the key/immediate prefix instead of re-running the
/// whole parameterization per length.
///
/// This is sound because sequence parameterization is prefix-stable:
/// slots are numbered by first appearance and immediates appended in
/// scan order, so the keys and instantiation of `insts[..len]` are
/// literal prefixes of those of the full window; and every rejection
/// (predication, banned opcode, opaque operand, PC slot) is pinned to
/// the instruction that introduces it, so validity is monotone in the
/// prefix length.
#[derive(Debug)]
pub struct SeqScan {
    keys: Vec<ComboKey>,
    slots: Vec<Reg>,
    imms: Vec<u32>,
    /// `slot_marks[i]` / `imm_marks[i]`: slot / immediate counts after
    /// the first `i + 1` instructions.
    slot_marks: Vec<usize>,
    imm_marks: Vec<usize>,
}

impl SeqScan {
    /// Scans at most `max_len` instructions, stopping at the first one
    /// that would make the prefix unparameterizable.
    #[must_use]
    pub fn scan(insts: &[Inst], max_len: usize) -> SeqScan {
        let n = insts.len().min(max_len);
        let mut b = Builder::new();
        let mut out = SeqScan {
            keys: Vec::with_capacity(n),
            slots: Vec::new(),
            imms: Vec::new(),
            slot_marks: Vec::with_capacity(n),
            imm_marks: Vec::with_capacity(n),
        };
        for inst in &insts[..n] {
            if inst.cond != pdbt_isa::Cond::Al
                || matches!(
                    inst.op,
                    Op::B | Op::Bl | Op::Bx | Op::Push | Op::Pop | Op::Svc
                )
            {
                break;
            }
            let modes_start = b.modes.len();
            let pattern_start = b.reg_pattern.len();
            let slots_start = b.slots.len();
            for o in &inst.operands {
                b.operand(o);
            }
            // Opaque operands and PC slots invalidate the prefix from
            // the instruction that introduces them (a PC slot seen
            // earlier would already have stopped the scan).
            if b.opaque || b.slots[slots_start..].iter().any(|r| r.is_pc()) {
                break;
            }
            out.keys.push(ComboKey {
                op: inst.op,
                s: inst.s,
                modes: b.modes[modes_start..].to_vec(),
                reg_pattern: b.reg_pattern[pattern_start..].to_vec(),
            });
            out.slot_marks.push(b.slots.len());
            out.imm_marks.push(b.imms.len());
        }
        out.slots = b.slots;
        out.imms = b.imms;
        out.slots
            .truncate(out.slot_marks.last().copied().unwrap_or(0));
        out.imms
            .truncate(out.imm_marks.last().copied().unwrap_or(0));
        out
    }

    /// Longest prefix length that parameterizes cleanly.
    #[must_use]
    pub fn valid_len(&self) -> usize {
        self.keys.len()
    }

    /// The sequence key of the first `len` instructions
    /// (`len <= valid_len`).
    #[must_use]
    pub fn keys(&self, len: usize) -> &[ComboKey] {
        &self.keys[..len]
    }

    /// The immediates consumed by the first `len` instructions.
    #[must_use]
    pub fn imms(&self, len: usize) -> &[u32] {
        &self.imms[..self.imm_marks[len - 1]]
    }

    /// The concrete instantiation of the first `len` instructions —
    /// identical to what `parameterize_seq(&insts[..len])` returns.
    #[must_use]
    pub fn instantiation(&self, len: usize) -> Instantiation {
        Instantiation {
            slots: self.slots[..self.slot_marks[len - 1]].to_vec(),
            imms: self.imms(len).to_vec(),
        }
    }
}

/// Reconstructs a concrete instruction sequence from a sequence key —
/// the inverse of [`parameterize_seq`].
#[must_use]
pub fn reconstruct_seq(keys: &[ComboKey], inst: &Instantiation) -> Option<Vec<Inst>> {
    let mut out = Vec::with_capacity(keys.len());
    let mut imm_cursor = 0usize;
    for key in keys {
        let n_imms = imm_count(key);
        let imms = inst.imms.get(imm_cursor..imm_cursor + n_imms)?;
        imm_cursor += n_imms;
        out.push(reconstruct_from(key, &inst.slots, imms)?);
    }
    (imm_cursor == inst.imms.len()).then_some(out)
}

#[cfg(test)]
mod seq_tests {
    use super::*;
    use pdbt_isa_arm::builders::*;

    #[test]
    fn sequence_slots_are_shared() {
        let seq = [
            add(Reg::R4, Reg::R4, Operand::Reg(Reg::R5)),
            eor(Reg::R6, Reg::R4, Operand::Imm(7)),
        ];
        let (keys, inst) = parameterize_seq(&seq).unwrap();
        assert_eq!(keys.len(), 2);
        // r4 appears in both instructions under one slot index.
        assert_eq!(inst.slots, vec![Reg::R4, Reg::R5, Reg::R6]);
        assert_eq!(keys[0].reg_pattern, vec![0, 0, 1]);
        assert_eq!(keys[1].reg_pattern, vec![2, 0]);
        assert_eq!(inst.imms, vec![7]);
        // Renaming registers consistently produces the same key.
        let renamed = [
            add(Reg::R8, Reg::R8, Operand::Reg(Reg::R9)),
            eor(Reg::R10, Reg::R8, Operand::Imm(3)),
        ];
        let (keys2, _) = parameterize_seq(&renamed).unwrap();
        assert_eq!(keys, keys2);
    }

    #[test]
    fn sequence_roundtrips() {
        let seq = vec![
            mov(Reg::R4, Operand::Imm(10)),
            add(Reg::R5, Reg::R4, Operand::Imm(3)),
            str_(
                Reg::R5,
                MemAddr::BaseImm {
                    base: Reg::R6,
                    offset: 8,
                },
            ),
        ];
        let (keys, inst) = parameterize_seq(&seq).unwrap();
        let back = reconstruct_seq(&keys, &inst).unwrap();
        assert_eq!(back, seq);
        // Fresh registers and immediates instantiate the same shape.
        let fresh = Instantiation {
            slots: vec![Reg::R7, Reg::R8, Reg::R9],
            imms: vec![1, 2, 4],
        };
        let derived = reconstruct_seq(&keys, &fresh).unwrap();
        assert_eq!(derived[0], mov(Reg::R7, Operand::Imm(1)));
        assert_eq!(derived[1], add(Reg::R8, Reg::R7, Operand::Imm(2)));
        assert_eq!(
            derived[2],
            str_(
                Reg::R8,
                MemAddr::BaseImm {
                    base: Reg::R9,
                    offset: 4
                }
            )
        );
    }

    #[test]
    fn sequences_with_control_flow_rejected() {
        let seq = [mov(Reg::R4, Operand::Imm(1)), b(pdbt_isa::Cond::Al, 8)];
        assert!(parameterize_seq(&seq).is_none());
    }
}
