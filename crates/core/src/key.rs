//! Guest-instruction parameterization: canonical combo keys.
//!
//! "When a guest instruction is being translated, it is first
//! parameterized to retrieve the rules for translation" (paper §IV-D).
//! [`parameterize`] strips a guest instruction down to its *combo key* —
//! opcode, set-flags bit, per-operand addressing-mode tags, and the
//! operand dependence pattern (paper Fig 8) — plus the concrete register
//! and immediate values needed to instantiate a matched rule.

use pdbt_isa::InlineVec;
use pdbt_isa_arm::{Inst, MemAddr, Op, Operand, Reg, ShiftKind};
use std::fmt;

/// Operands per key: the widest guest shape (`mla`, `umull`, `umlal`)
/// takes four.
pub const MAX_OPERANDS: usize = 4;

/// Register mentions per key: four plain registers at most (a load or
/// store mentions three — value, base, index).
pub const MAX_REG_MENTIONS: usize = 4;

/// Keys per scanned window, and so per rule. Learning stops at
/// [`crate::learning::MAX_SEQ`]; the spare key is for hand-written rule
/// files, which [`crate::load_rules`] holds to this bound.
pub const MAX_WINDOW: usize = 4;

/// Register slots per window: every mention of every key distinct.
pub const MAX_WINDOW_SLOTS: usize = MAX_WINDOW * MAX_REG_MENTIONS;

/// Immediates per window: every operand of every key an immediate. With
/// the two window capacities the products of the per-key ones, a window
/// can only outgrow its storage at an instruction that outgrows a key.
pub const MAX_WINDOW_IMMS: usize = MAX_WINDOW * MAX_OPERANDS;

const _: () = assert!(crate::learning::MAX_SEQ <= MAX_WINDOW);

/// Addressing-mode tag of one operand position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum ModeTag {
    /// A register.
    #[default]
    Reg,
    /// An immediate (value becomes an immediate slot).
    Imm,
    /// A barrel-shifted register (amount becomes an immediate slot).
    Shifted(ShiftKind),
    /// `[base, #disp]` memory (disp becomes an immediate slot).
    MemBaseImm,
    /// `[base, index]` memory.
    MemBaseReg,
}

impl fmt::Display for ModeTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModeTag::Reg => f.write_str("reg"),
            ModeTag::Imm => f.write_str("imm"),
            ModeTag::Shifted(k) => write!(f, "sreg-{k}"),
            ModeTag::MemBaseImm => f.write_str("mem-bi"),
            ModeTag::MemBaseReg => f.write_str("mem-br"),
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
///
/// A key is a value: both lists are inline ([`MAX_OPERANDS`],
/// [`MAX_REG_MENTIONS`]) and compare, order and hash as the slices they
/// hold, so building, probing and copying one never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComboKey {
    /// The opcode.
    pub op: Op,
    /// The set-flags bit.
    pub s: bool,
    /// Addressing-mode tag per operand position.
    pub modes: InlineVec<ModeTag, MAX_OPERANDS>,
    /// Slot index per register mention (scan order).
    pub reg_pattern: InlineVec<u8, MAX_REG_MENTIONS>,
}

/// The operand-less `mov`: the key of no instruction. It pads the unused
/// tail of a [`Scan`]'s inline key list.
impl Default for ComboKey {
    fn default() -> ComboKey {
        ComboKey {
            op: Op::Mov,
            s: false,
            modes: InlineVec::new(),
            reg_pattern: InlineVec::new(),
        }
    }
}

impl fmt::Display for ComboKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.op.mnemonic())?;
        if self.s {
            f.write_str("s")?;
        }
        for m in &self.modes {
            f.write_str(" ")?;
            fmt::Display::fmt(m, f)?;
        }
        f.write_str(" /")?;
        for &p in &self.reg_pattern {
            match char::from_digit(u32::from(p), 10) {
                Some(digit) => fmt::Write::write_char(f, digit)?,
                None => write!(f, "{p}")?,
            }
        }
        Ok(())
    }
}

/// The concrete part of a parameterized guest instruction (or window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Instantiation {
    /// Slot index → guest register.
    pub slots: InlineVec<Reg, MAX_WINDOW_SLOTS>,
    /// Immediate slot index → value (op2 immediates, shift amounts,
    /// memory displacements, in scan order).
    pub imms: InlineVec<u32, MAX_WINDOW_IMMS>,
}

/// The result of parameterizing one guest instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parameterized {
    /// The canonical key.
    pub key: ComboKey,
    /// The concrete registers and immediates.
    pub inst: Instantiation,
}

/// The one walk over guest operands: scans the longest clean prefix of
/// an instruction window, numbering register slots by first appearance
/// and collecting immediates in scan order *across the whole window*, so
/// the keys' `reg_pattern`s index shared slots and the key list is the
/// canonical key of the window. [`parameterize`] is the one-instruction
/// call.
///
/// The scan is prefix-stable — the keys, slots and immediates of the
/// first `len` instructions are literal prefixes of the whole scan's —
/// and every rejection (predication, a banned opcode, an opaque operand,
/// a PC slot) is pinned to the instruction that introduces it, so
/// validity is monotone in the prefix length. One scan therefore serves
/// every candidate length of a longest-first lookup.
/// `tests/scan_props.rs` holds it to both.
///
/// A scan is a value of [`MAX_WINDOW`] keys at most, built without
/// touching the heap — which is why nothing memoizes one: scanning a
/// window again costs less than finding where its scan was kept.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scan {
    keys: InlineVec<ComboKey, MAX_WINDOW>,
    inst: Instantiation,
}

impl Scan {
    /// Scans at most `max_len` instructions — and never more than
    /// [`MAX_WINDOW`], whatever length a rule file claims — stopping at
    /// the first one outside the rule-translatable universe (branches,
    /// stack ops, predicated execution, system calls, floating point,
    /// PC-mentioning operands — the paper's Fig 9 constraint). An
    /// instruction with more operands or register mentions than a key
    /// holds (no validated shape has) is outside it too.
    #[must_use]
    pub fn of<'a>(insts: impl IntoIterator<Item = &'a Inst>, max_len: usize) -> Scan {
        let mut scan = Scan::default();
        for inst in insts.into_iter().take(max_len.min(MAX_WINDOW)) {
            if inst.cond != pdbt_isa::Cond::Al
                || matches!(
                    inst.op,
                    Op::B | Op::Bl | Op::Bx | Op::Push | Op::Pop | Op::Svc
                )
            {
                break;
            }
            let (n_slots, n_imms) = (scan.inst.slots.len(), scan.inst.imms.len());
            let mut key = ComboKey {
                op: inst.op,
                s: inst.s,
                ..ComboKey::default()
            };
            let fits = inst
                .operands
                .iter()
                .all(|o| scan.operand(&mut key, o).is_some());
            // A PC slot seen earlier would already have stopped the scan.
            if !fits || scan.inst.slots[n_slots..].iter().any(|r| r.is_pc()) {
                scan.inst.slots.truncate(n_slots);
                scan.inst.imms.truncate(n_imms);
                break;
            }
            scan.keys.push(key);
        }
        scan
    }

    fn reg(&mut self, key: &mut ComboKey, r: Reg) -> Option<()> {
        let idx = match self.inst.slots.iter().position(|s| *s == r) {
            Some(i) => i,
            None => {
                self.inst.slots.try_push(r).ok()?;
                self.inst.slots.len() - 1
            }
        };
        key.reg_pattern.try_push(idx as u8).ok()
    }

    /// Appends one operand to `key`; `None` for the unparameterizable
    /// shapes and for an operand that would overflow a capacity.
    fn operand(&mut self, key: &mut ComboKey, o: &Operand) -> Option<()> {
        let mode = match o {
            Operand::Reg(r) => {
                self.reg(key, *r)?;
                ModeTag::Reg
            }
            Operand::Imm(v) => {
                self.inst.imms.try_push(*v).ok()?;
                ModeTag::Imm
            }
            Operand::Shifted { rm, kind, amount } => {
                self.reg(key, *rm)?;
                self.inst.imms.try_push(u32::from(*amount)).ok()?;
                ModeTag::Shifted(*kind)
            }
            Operand::Mem(MemAddr::BaseImm { base, offset }) => {
                self.reg(key, *base)?;
                self.inst.imms.try_push(*offset as u32).ok()?;
                ModeTag::MemBaseImm
            }
            Operand::Mem(MemAddr::BaseReg { base, index }) => {
                self.reg(key, *base)?;
                self.reg(key, *index)?;
                ModeTag::MemBaseReg
            }
            Operand::FReg(_) | Operand::RegList(_) | Operand::Target(_) => return None,
        };
        key.modes.try_push(mode).ok()
    }

    /// Longest prefix length that parameterizes cleanly.
    #[must_use]
    pub fn valid_len(&self) -> usize {
        self.keys.len()
    }

    /// The first instruction's key — what [`parameterize`] gives it —
    /// unless that instruction is outside the universe.
    #[must_use]
    pub fn first(&self) -> Option<&ComboKey> {
        self.keys.first()
    }

    /// The key of the first `len` instructions (`len <= valid_len`).
    #[must_use]
    pub fn keys(&self, len: usize) -> &[ComboKey] {
        &self.keys[..len]
    }

    /// The registers bound by the first `len` instructions, by slot.
    #[must_use]
    pub fn slots(&self, len: usize) -> &[Reg] {
        &self.inst.slots[..seq_arity(self.keys(len)).0]
    }

    /// The immediates consumed by the first `len` instructions.
    #[must_use]
    pub fn imms(&self, len: usize) -> &[u32] {
        &self.inst.imms[..seq_arity(self.keys(len)).1]
    }

    /// The concrete instantiation of the first `len` instructions.
    #[must_use]
    pub fn instantiation(&self, len: usize) -> Instantiation {
        let (slots, imms) = seq_arity(self.keys(len));
        let mut inst = self.inst;
        inst.slots.truncate(slots);
        inst.imms.truncate(imms);
        inst
    }
}

/// Parameterizes a guest instruction into its combo key and concrete
/// instantiation. Returns `None` for instructions outside the
/// rule-translatable universe (see [`Scan::of`]).
#[must_use]
pub fn parameterize(inst: &Inst) -> Option<Parameterized> {
    let scan = Scan::of([inst], 1);
    Some(Parameterized {
        key: *scan.first()?,
        inst: scan.inst,
    })
}

/// Parameterizes a short *sequence* of guest instructions as one unit —
/// the whole-window [`Scan`]. Learned sequence rules use this; per §V-D
/// they are matched as-is and never parameterized further. The keys come
/// back as the `Vec` a rule is [inserted](crate::RuleSet::insert) under.
/// `None` also for a sequence longer than [`MAX_WINDOW`].
#[must_use]
pub fn parameterize_seq(insts: &[Inst]) -> Option<(Vec<ComboKey>, Instantiation)> {
    let scan = Scan::of(insts, insts.len());
    let whole = !insts.is_empty() && scan.valid_len() == insts.len();
    whole.then(|| (scan.keys.to_vec(), scan.inst))
}

/// Reconstructs a concrete instruction sequence from a key and an
/// instantiation — the inverse of [`parameterize_seq`], used to build
/// verification instances of learned and derived rules (paper §IV-C: "we
/// first instantiate all possible derived rules from the parameterized
/// rule, and verify each"). The instructions are appended to `out`, the
/// caller's buffer (verification reuses one across its samples).
///
/// Returns `None`, leaving `out` as it found it, if the slot/immediate
/// counts do not fit the key.
#[must_use]
pub fn reconstruct_seq(keys: &[ComboKey], inst: &Instantiation, out: &mut Vec<Inst>) -> Option<()> {
    let start = out.len();
    let mut imms = inst.imms.iter();
    let all = keys.iter().try_for_each(|key| {
        out.push(reconstruct_one(key, &inst.slots, &mut imms)?);
        Some(())
    });
    let fits = all.is_some() && imms.next().is_none();
    if !fits {
        out.truncate(start);
    }
    fits.then_some(())
}

/// Reconstructs one instruction, taking its immediates off `imms`.
fn reconstruct_one(
    key: &ComboKey,
    slots: &[Reg],
    imms: &mut std::slice::Iter<'_, u32>,
) -> Option<Inst> {
    let mut pattern = key.reg_pattern.iter();
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

/// The register slots and immediate slots a key (of any length) binds.
/// Slots are numbered by first appearance, so the highest index
/// mentioned names the count.
#[must_use]
pub fn seq_arity(keys: &[ComboKey]) -> (usize, usize) {
    let patterns = keys.iter().flat_map(|k| &k.reg_pattern);
    let modes = keys.iter().flat_map(|k| &k.modes);
    (
        patterns.map(|p| usize::from(*p) + 1).max().unwrap_or(0),
        modes
            .filter(|m| matches!(m, ModeTag::Imm | ModeTag::Shifted(_) | ModeTag::MemBaseImm))
            .count(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdbt_isa_arm::builders::*;

    fn rebuilt(keys: &[ComboKey], inst: &Instantiation) -> Option<Vec<Inst>> {
        let mut out = Vec::new();
        reconstruct_seq(keys, inst, &mut out).map(|()| out)
    }

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

    /// Instructions built with a struct literal skip shape validation;
    /// one that would overflow a key ends the window like an opaque
    /// operand does, and leaves nothing of itself in the scan.
    #[test]
    fn an_instruction_too_wide_for_a_key_ends_the_window() {
        let unvalidated = |operands: Vec<Operand>| Inst {
            op: Op::Add,
            s: false,
            cond: pdbt_isa::Cond::Al,
            operands,
        };
        let base_index = Operand::Mem(MemAddr::BaseReg {
            base: Reg::R1,
            index: Reg::R2,
        });
        // What exactly fills a key still parameterizes.
        let four = parameterize(&unvalidated(vec![Operand::Imm(9); MAX_OPERANDS])).unwrap();
        assert_eq!(
            (four.key.modes.len(), &four.inst.imms[..]),
            (4, &[9; 4][..])
        );
        for too_wide in [
            unvalidated(vec![Operand::Imm(9); MAX_OPERANDS + 1]),
            // Three base+index operands mention six registers.
            unvalidated(vec![base_index; 3]),
        ] {
            assert_eq!(parameterize(&too_wide), None);
            let head = mov(Reg::R4, Operand::Imm(1));
            let window = [head.clone(), too_wide, mov(Reg::R5, Operand::Imm(2))];
            let scan = Scan::of(&window, window.len());
            assert_eq!(scan.valid_len(), 1);
            assert_eq!(scan.instantiation(1), parameterize(&head).unwrap().inst);
            assert_eq!(parameterize_seq(&window), None);
        }
        // However long a window is asked for, a scan holds MAX_WINDOW keys.
        let long = vec![mov(Reg::R4, Operand::Imm(1)); MAX_WINDOW + 2];
        assert_eq!(Scan::of(&long, usize::MAX).valid_len(), MAX_WINDOW);
        assert_eq!(parameterize_seq(&long), None);
        assert!(parameterize_seq(&long[..MAX_WINDOW]).is_some());
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
            let back = rebuilt(&[p.key], &p.inst);
            assert_eq!(back, Some(vec![inst.clone()]), "roundtrip of {inst}");
        }
    }

    #[test]
    fn reconstruct_with_fresh_registers() {
        // The whole point: instantiate a key with registers never seen in
        // training.
        let p = parameterize(&add(Reg::R0, Reg::R0, Operand::Reg(Reg::R1))).unwrap();
        let fresh = Instantiation {
            slots: [Reg::R9, Reg::R10].into_iter().collect(),
            ..Instantiation::default()
        };
        let inst = rebuilt(&[p.key], &fresh).unwrap();
        assert_eq!(inst, [add(Reg::R9, Reg::R9, Operand::Reg(Reg::R10))]);
    }

    #[test]
    fn slot_and_imm_counts() {
        let p = parameterize(&add(Reg::R2, Reg::R0, Operand::Imm(5))).unwrap();
        assert_eq!(seq_arity(&[p.key]), (2, 1));
        let p = parameterize(&str_(
            Reg::R0,
            MemAddr::BaseReg {
                base: Reg::R1,
                index: Reg::R2,
            },
        ))
        .unwrap();
        assert_eq!(seq_arity(&[p.key]), (3, 0));
    }

    #[test]
    fn reconstruct_rejects_bad_shapes() {
        let keys = [parameterize(&add(Reg::R0, Reg::R0, Operand::Imm(1)))
            .unwrap()
            .key];
        let with = |slots: Vec<Reg>, imms: Vec<u32>| {
            let inst = Instantiation {
                slots: slots.into_iter().collect(),
                imms: imms.into_iter().collect(),
            };
            rebuilt(&keys, &inst)
        };
        assert!(with(vec![Reg::R0], vec![1]).is_some());
        assert!(with(vec![], vec![1]).is_none(), "too few slots");
        assert!(with(vec![Reg::R0], vec![]).is_none(), "too few immediates");
        assert!(
            with(vec![Reg::R0], vec![1, 2]).is_none(),
            "too many immediates"
        );
    }

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
        let back = rebuilt(&keys, &inst).unwrap();
        assert_eq!(back, seq);
        // Fresh registers and immediates instantiate the same shape.
        let fresh = Instantiation {
            slots: [Reg::R7, Reg::R8, Reg::R9].into_iter().collect(),
            imms: [1, 2, 4].into_iter().collect(),
        };
        let derived = rebuilt(&keys, &fresh).unwrap();
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
