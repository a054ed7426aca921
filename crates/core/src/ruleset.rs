//! The translation-rule store: a hash table from combo keys to verified
//! host templates, with the canonical verification harness used by both
//! the learning pipeline and the parameterization engine.
//!
//! "A hash algorithm is used to retrieve the translation rules from a
//! hash table. The matched rule will then be instantiated to generate
//! host instructions" (paper §V-A).

use crate::key::{self, ComboKey, Instantiation, ModeTag, Parameterized};
use crate::template::{instantiate, HostLoc, Template};
use pdbt_isa::Flag;
use pdbt_isa_arm::{Inst as GInst, Op as GOpc, Reg as GReg};
use pdbt_isa_x86::{Inst as HInst, Reg as HReg};
use pdbt_symexec::{check, CheckOptions, FlagEquiv, Mapping, Verdict};
use std::collections::HashMap;
use std::fmt::Write as _;

/// How a rule entered the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Verified directly from a training candidate.
    Learned,
    /// Derived by opcode parameterization (paper §IV-B dimension 1).
    OpcodeDerived,
    /// Derived by addressing-mode parameterization (dimension 2).
    AddrModeDerived,
}

/// A verified translation rule for one combo key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleEntry {
    /// The host template.
    pub template: Template,
    /// Per-flag relationship for the flags the guest combo defines
    /// (drives condition-flag delegation, §IV-D).
    pub flags: Vec<(Flag, FlagEquiv)>,
    /// Where the rule came from.
    pub provenance: Provenance,
    /// When set, the rule only applies to these exact immediate values
    /// (immediate generalization failed re-verification).
    pub imm_constraint: Option<Vec<u32>>,
}

impl RuleEntry {
    /// The relationship recorded for flag `f`, if any.
    #[must_use]
    pub fn flag_equiv(&self, f: Flag) -> Option<FlagEquiv> {
        self.flags.iter().find(|(ff, _)| *ff == f).map(|(_, e)| *e)
    }
}

/// The canonical guest registers used for verification instances.
#[must_use]
pub fn canonical_guest_slots(n: usize) -> Vec<GReg> {
    (0..n)
        .map(|i| GReg::from_index(4 + i).expect("canonical guest slot"))
        .collect()
}

/// The canonical host registers used for verification instances.
#[must_use]
pub fn canonical_host_slots(n: usize) -> Vec<HReg> {
    const POOL: [HReg; 4] = [HReg::Ecx, HReg::Ebx, HReg::Esi, HReg::Edi];
    POOL[..n].to_vec()
}

/// Sample immediate vectors for a key, respecting slot roles (shift
/// amounts must stay in 1–31, displacements small, generic immediates
/// anywhere in the encodable range).
#[must_use]
pub fn sample_imm_vectors(key: &ComboKey) -> Vec<Vec<u32>> {
    let roles: Vec<&ModeTag> = key
        .modes
        .iter()
        .filter(|m| matches!(m, ModeTag::Imm | ModeTag::Shifted(_) | ModeTag::MemBaseImm))
        .collect();
    let samples = [0usize, 1, 2];
    samples
        .iter()
        .map(|s| {
            roles
                .iter()
                .map(|m| match m {
                    ModeTag::Imm => [5u32, 0, 2047][*s],
                    ModeTag::Shifted(_) => [1u32, 7, 31][*s],
                    ModeTag::MemBaseImm => [4u32, 0, (-8i32) as u32][*s],
                    _ => unreachable!(),
                })
                .collect()
        })
        .collect()
}

/// Verifies a `(key, template)` pair over canonical registers and the
/// sample immediate vectors. Returns the flag report on success.
///
/// This is the verification step shared by learning (imm
/// generalization) and parameterization (derived-rule validation,
/// §IV-C: "instantiate all possible derived rules … and verify each").
///
/// # Errors
///
/// A human-readable reason on the first failing sample.
pub fn verify_combo(
    key: &ComboKey,
    template: &Template,
    opts: CheckOptions,
) -> Result<Vec<(Flag, FlagEquiv)>, String> {
    verify_seq(
        std::slice::from_ref(key),
        template,
        key::slot_count(key),
        opts,
    )
}

/// Verifies a `(sequence key, template)` pair over canonical registers
/// and sample immediates: [`verify_combo`] is the one-key call, learned
/// sequence rules pass several keys.
///
/// # Errors
///
/// A human-readable reason on the first failing sample.
pub fn verify_seq(
    keys: &[ComboKey],
    template: &Template,
    n_slots: usize,
    opts: CheckOptions,
) -> Result<Vec<(Flag, FlagEquiv)>, String> {
    let _span = pdbt_obs::span_with("verify", || {
        let mut label = String::new();
        for (i, k) in keys.iter().enumerate() {
            let sep = if i == 0 { "" } else { " + " };
            let _ = write!(label, "{sep}{k}");
        }
        label
    });
    if n_slots > 4 {
        return Err(format!(
            "{n_slots} parameter slots exceed the canonical pool"
        ));
    }
    let gslots = canonical_guest_slots(n_slots);
    let hslots = canonical_host_slots(n_slots);
    let mapping = Mapping::new(gslots.iter().copied().zip(hslots.iter().copied()).collect());
    let mut inst = Instantiation {
        slots: gslots,
        imms: Vec::new(),
    };
    let locs: Vec<HostLoc> = hslots.iter().map(|h| HostLoc::Reg(*h)).collect();
    // Sample vector built per-key, concatenated in key order.
    let per_key: Vec<Vec<Vec<u32>>> = keys.iter().map(sample_imm_vectors).collect();
    let mut report: Option<Vec<(Flag, FlagEquiv)>> = None;
    for sample in 0..3usize {
        inst.imms.clear();
        for vecs in &per_key {
            inst.imms.extend_from_slice(&vecs[sample]);
        }
        let ginsts = key::reconstruct_seq(keys, &inst).ok_or_else(|| {
            let what = if keys.len() == 1 {
                "key"
            } else {
                "sequence key"
            };
            format!("{what} does not reconstruct")
        })?;
        let host = instantiate(template, &locs, &inst.imms).map_err(|e| e.to_string())?;
        match check(&ginsts, &host, &mapping, opts) {
            Verdict::Equivalent { flags } => {
                report = Some(match report {
                    None => flags,
                    Some(prev) => prev
                        .into_iter()
                        .zip(flags)
                        .map(|((f, a), (_, b))| (f, if a == b { a } else { FlagEquiv::Mismatch }))
                        .collect(),
                });
            }
            Verdict::NotEquivalent { reason }
            | Verdict::Unproven { reason }
            | Verdict::Unsupported { reason } => return Err(reason),
        }
    }
    Ok(report.unwrap_or_default())
}

/// A matched rule ready to instantiate.
#[derive(Debug, Clone)]
pub struct Match<'a> {
    /// The key that matched (attribution label for observability).
    pub key: ComboKey,
    /// The rule.
    pub entry: &'a RuleEntry,
    /// The guest instruction's concrete registers and immediates.
    pub inst: Instantiation,
}

/// A matched sequence rule ready to instantiate.
#[derive(Debug, Clone)]
pub struct SeqMatch<'a> {
    /// The keys that matched, in sequence order.
    pub keys: Vec<ComboKey>,
    /// The rule.
    pub entry: &'a RuleEntry,
    /// Concrete registers and immediates for the whole sequence.
    pub inst: Instantiation,
    /// Guest instructions the match consumes.
    pub len: usize,
}

/// The rule hash table: single-instruction rules plus learned
/// multi-instruction *sequence rules* (matched as-is; the paper
/// parameterizes only single-instruction rules, §V-D).
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    entries: HashMap<ComboKey, RuleEntry>,
    seq_entries: HashMap<Vec<ComboKey>, RuleEntry>,
    /// Longest sequence key, for the runtime's greedy matcher.
    max_seq: usize,
    /// Dense `(opcode, s)`-indexed entry counts. Translation probes the
    /// store once per guest instruction and most probes miss (every
    /// QEMU-path body instruction); a zero bucket rejects the lookup
    /// before the allocating `parameterize` call builds a `ComboKey`.
    op_index: Vec<u32>,
}

/// The `op_index` bucket of an `(opcode, s)` pair.
fn op_bucket(op: GOpc, s: bool) -> usize {
    (op as usize) * 2 + usize::from(s)
}

impl RuleSet {
    /// Creates an empty rule set.
    #[must_use]
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a rule; returns `false` (and keeps the existing rule) if
    /// the key is already present — the merging step of §IV-D.
    pub fn insert(&mut self, key: ComboKey, entry: RuleEntry) -> bool {
        use std::collections::hash_map::Entry;
        let bucket = op_bucket(key.op, key.s);
        match self.entries.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(entry);
                if self.op_index.is_empty() {
                    self.op_index = vec![0; GOpc::ALL.len() * 2];
                }
                self.op_index[bucket] += 1;
                true
            }
        }
    }

    /// Whether any rule exists for this `(opcode, s)` pair — the O(1)
    /// probe the translator uses to skip parameterization on guaranteed
    /// misses.
    #[must_use]
    pub fn op_present(&self, op: GOpc, s: bool) -> bool {
        self.op_index
            .get(op_bucket(op, s))
            .is_some_and(|count| *count != 0)
    }

    /// Inserts a sequence rule (merging duplicates like [`RuleSet::insert`]).
    pub fn insert_seq(&mut self, keys: Vec<ComboKey>, entry: RuleEntry) -> bool {
        use std::collections::hash_map::Entry;
        self.max_seq = self.max_seq.max(keys.len());
        match self.seq_entries.entry(keys) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(entry);
                true
            }
        }
    }

    /// Number of sequence rules.
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.seq_entries.len()
    }

    /// Length of the longest sequence rule (0 when there are none).
    #[must_use]
    pub fn max_seq_len(&self) -> usize {
        self.max_seq
    }

    /// Greedy longest-first sequence lookup starting at `insts[0]`.
    ///
    /// The window is parameterized once ([`key::SeqScan`]) and each
    /// candidate length probes a sliced key prefix — `Vec<ComboKey>`
    /// hashes as its slice, so `seq_entries` is queried through
    /// `Borrow<[ComboKey]>` without re-scanning per length.
    #[must_use]
    pub fn lookup_seq(&self, insts: &[GInst]) -> Option<SeqMatch<'_>> {
        let max = self.max_seq.min(insts.len());
        if max < 2 {
            return None;
        }
        let scan = key::SeqScan::scan(insts, max);
        for len in (2..=max.min(scan.valid_len())).rev() {
            if let Some(entry) = self.seq_entries.get(scan.keys(len)) {
                if let Some(required) = &entry.imm_constraint {
                    if required[..] != *scan.imms(len) {
                        continue;
                    }
                }
                return Some(SeqMatch {
                    keys: scan.keys(len).to_vec(),
                    entry,
                    inst: scan.instantiation(len),
                    len,
                });
            }
        }
        None
    }

    /// Instantiates a sequence match with the actual host locations of
    /// its slots.
    ///
    /// # Errors
    ///
    /// Forwarded template errors.
    pub fn instantiate_seq_match(
        &self,
        m: &SeqMatch<'_>,
        locs: &[HostLoc],
    ) -> Result<Vec<HInst>, crate::template::TemplateError> {
        instantiate(&m.entry.template, locs, &m.inst.imms)
    }

    /// Whether a key is present.
    #[must_use]
    pub fn contains(&self, key: &ComboKey) -> bool {
        self.entries.contains_key(key)
    }

    /// The entry for a key.
    #[must_use]
    pub fn get(&self, key: &ComboKey) -> Option<&RuleEntry> {
        self.entries.get(key)
    }

    /// Looks up a guest instruction: parameterize, hash, check immediate
    /// constraints (paper §IV-D rule application).
    #[must_use]
    pub fn lookup(&self, inst: &GInst) -> Option<Match<'_>> {
        if !self.op_present(inst.op, inst.s) {
            return None;
        }
        let Parameterized {
            key,
            inst: concrete,
        } = key::parameterize(inst)?;
        let entry = self.entries.get(&key)?;
        if let Some(required) = &entry.imm_constraint {
            if *required != concrete.imms {
                return None;
            }
        }
        Some(Match {
            key,
            entry,
            inst: concrete,
        })
    }

    /// Instantiates a match with the actual host locations of its slots.
    ///
    /// # Errors
    ///
    /// Forwarded template errors (arity mismatches).
    pub fn instantiate_match(
        &self,
        m: &Match<'_>,
        locs: &[HostLoc],
    ) -> Result<Vec<HInst>, crate::template::TemplateError> {
        instantiate(&m.entry.template, locs, &m.inst.imms)
    }

    /// Iterates over all rules.
    pub fn iter(&self) -> impl Iterator<Item = (&ComboKey, &RuleEntry)> {
        self.entries.iter()
    }

    /// Rule count by provenance.
    #[must_use]
    pub fn count_by_provenance(&self, p: Provenance) -> usize {
        self.entries.values().filter(|e| e.provenance == p).count()
    }

    /// Merges another rule set into this one (existing keys win);
    /// returns how many entries were newly added.
    pub fn merge(&mut self, other: RuleSet) -> usize {
        let mut added = 0;
        for (k, v) in other.entries {
            if self.insert(k, v) {
                added += 1;
            }
        }
        for (k, v) in other.seq_entries {
            if self.insert_seq(k, v) {
                added += 1;
            }
        }
        added
    }

    /// Iterates over the sequence rules.
    pub fn iter_seq(&self) -> impl Iterator<Item = (&Vec<ComboKey>, &RuleEntry)> {
        self.seq_entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::extract;
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::Operand as GOp;
    use pdbt_isa_x86::builders as h;
    use pdbt_isa_x86::Operand as HOperand;

    fn rmw_add_rule() -> (ComboKey, RuleEntry) {
        // add r0, r0, #imm ↔ addl S0, $imm
        let p = key::parameterize(&g::add(GReg::R4, GReg::R4, GOp::Imm(5))).unwrap();
        let host = [h::add(HReg::Ecx.into(), HOperand::Imm(5))];
        let template = extract(&host, &|r| (r == HReg::Ecx).then_some(0), &[5]).unwrap();
        let flags = verify_combo(&p.key, &template, CheckOptions::default()).unwrap();
        (
            p.key,
            RuleEntry {
                template,
                flags,
                provenance: Provenance::Learned,
                imm_constraint: None,
            },
        )
    }

    #[test]
    fn verify_combo_accepts_correct_rule() {
        let (_, entry) = rmw_add_rule();
        assert_eq!(entry.flags, vec![], "non-S add defines no flags");
    }

    #[test]
    fn verify_combo_rejects_wrong_rule() {
        // add key with a subl template must fail.
        let p = key::parameterize(&g::add(GReg::R4, GReg::R4, GOp::Imm(5))).unwrap();
        let host = [h::sub(HReg::Ecx.into(), HOperand::Imm(5))];
        let template = extract(&host, &|r| (r == HReg::Ecx).then_some(0), &[5]).unwrap();
        assert!(verify_combo(&p.key, &template, CheckOptions::default()).is_err());
    }

    #[test]
    fn verify_combo_reports_s_flags() {
        let p = key::parameterize(&g::add(GReg::R4, GReg::R4, GOp::Imm(5)).with_s()).unwrap();
        let host = [h::add(HReg::Ecx.into(), HOperand::Imm(5))];
        let template = extract(&host, &|r| (r == HReg::Ecx).then_some(0), &[5]).unwrap();
        let flags = verify_combo(&p.key, &template, CheckOptions::default()).unwrap();
        assert!(flags.contains(&(Flag::C, FlagEquiv::Exact)));
        assert!(flags.contains(&(Flag::Z, FlagEquiv::Exact)));
    }

    #[test]
    fn lookup_matches_any_registers_and_imms() {
        let (key, entry) = rmw_add_rule();
        let mut rs = RuleSet::new();
        assert!(rs.insert(key, entry));
        // Different registers and immediate, same combo.
        let m = rs
            .lookup(&g::add(GReg::R9, GReg::R9, GOp::Imm(77)))
            .unwrap();
        assert_eq!(m.inst.slots, vec![GReg::R9]);
        assert_eq!(m.inst.imms, vec![77]);
        let code = rs
            .instantiate_match(&m, &[HostLoc::Reg(HReg::Edi)])
            .unwrap();
        assert_eq!(code, vec![h::add(HReg::Edi.into(), HOperand::Imm(77))]);
        // A different dependence pattern does not match.
        assert!(rs
            .lookup(&g::add(GReg::R0, GReg::R1, GOp::Imm(77)))
            .is_none());
        // A different opcode does not match.
        assert!(rs
            .lookup(&g::eor(GReg::R9, GReg::R9, GOp::Imm(77)))
            .is_none());
    }

    #[test]
    fn imm_constraint_restricts_lookup() {
        let (key, mut entry) = rmw_add_rule();
        entry.imm_constraint = Some(vec![5]);
        let mut rs = RuleSet::new();
        rs.insert(key, entry);
        assert!(rs
            .lookup(&g::add(GReg::R4, GReg::R4, GOp::Imm(5)))
            .is_some());
        assert!(rs
            .lookup(&g::add(GReg::R4, GReg::R4, GOp::Imm(6)))
            .is_none());
    }

    #[test]
    fn duplicate_insert_is_merged() {
        let (key, entry) = rmw_add_rule();
        let mut rs = RuleSet::new();
        assert!(rs.insert(key.clone(), entry.clone()));
        assert!(!rs.insert(key, entry), "second insert is a duplicate");
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.count_by_provenance(Provenance::Learned), 1);
    }

    #[test]
    fn op_index_gates_lookup() {
        let (key, entry) = rmw_add_rule();
        let mut rs = RuleSet::new();
        assert!(!rs.op_present(GOpc::Add, false), "empty set has no buckets");
        rs.insert(key, entry);
        assert!(rs.op_present(GOpc::Add, false));
        assert!(!rs.op_present(GOpc::Add, true), "s-variant is distinct");
        assert!(!rs.op_present(GOpc::Eor, false));
        // The index survives clones and still admits real matches.
        let cloned = rs.clone();
        assert!(cloned
            .lookup(&g::add(GReg::R1, GReg::R1, GOp::Imm(9)))
            .is_some());
    }

    #[test]
    fn merge_counts_new_entries() {
        let (key, entry) = rmw_add_rule();
        let mut a = RuleSet::new();
        a.insert(key.clone(), entry.clone());
        let mut b = RuleSet::new();
        b.insert(key, entry);
        assert_eq!(a.merge(b), 0);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn sample_imm_vectors_respect_roles() {
        let p = key::parameterize(&g::add(
            GReg::R4,
            GReg::R5,
            GOp::Shifted {
                rm: GReg::R6,
                kind: pdbt_isa_arm::ShiftKind::Lsl,
                amount: 2,
            },
        ))
        .unwrap();
        for v in sample_imm_vectors(&p.key) {
            assert_eq!(v.len(), 1);
            assert!((1..=31).contains(&v[0]), "shift amount {v:?}");
        }
    }
}
