//! The translation-rule store: one hash table from key sequences (one
//! combo key per guest instruction a rule consumes) to verified host
//! templates, with the canonical verification harness used by both the
//! learning pipeline and the parameterization engine.
//!
//! "A hash algorithm is used to retrieve the translation rules from a
//! hash table. The matched rule will then be instantiated to generate
//! host instructions" (paper §V-A).

use crate::classify::subgroup_of;
use crate::key::{self, ComboKey, Instantiation, ModeTag, Scan, MAX_WINDOW_IMMS};
use crate::template::{instantiate, HostLoc, Template};
use pdbt_isa::{Flag, InlineVec};
use pdbt_isa_arm::{Inst as GInst, Op as GOpc, Reg as GReg};
use pdbt_isa_x86::{Inst as HInst, Reg as HReg};
use pdbt_symexec::{check, CheckOptions, FlagEquiv, Mapping, Verdict};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::RangeInclusive;
use std::sync::Arc;

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

/// A verified translation rule for one key sequence.
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

/// The most parameter slots a rule can bind: the size of the canonical
/// register pools every rule is verified over.
pub(crate) const MAX_SLOTS: usize = 4;

/// The canonical registers of a verification instance: slot `i` is
/// `GUEST_POOL[i]` in the guest sequence and `HOST_POOL[i]` in the host's.
const GUEST_POOL: [GReg; MAX_SLOTS] = [GReg::R4, GReg::R5, GReg::R6, GReg::R7];
const HOST_POOL: [HReg; MAX_SLOTS] = [HReg::Ecx, HReg::Ebx, HReg::Esi, HReg::Edi];

/// The canonical host registers used for verification instances.
#[must_use]
pub fn canonical_host_slots(n: usize) -> Vec<HReg> {
    HOST_POOL[..n].to_vec()
}

/// The immediates of one verification instance, in scan order.
pub type Imms = InlineVec<u32, MAX_WINDOW_IMMS>;

/// Three sample immediate vectors for a key sequence, respecting slot
/// roles (shift amounts must stay in 1–31, displacements small, generic
/// immediates anywhere in the encodable range).
///
/// # Panics
///
/// If the keys bind more immediates than a window holds
/// ([`MAX_WINDOW_IMMS`]).
#[must_use]
pub fn sample_imm_vectors(keys: &[ComboKey]) -> [Imms; 3] {
    [0, 1, 2].map(|s| {
        let modes = keys.iter().flat_map(|k| &k.modes);
        modes
            .filter_map(|m| match m {
                ModeTag::Imm => Some([5u32, 0, 2047][s]),
                ModeTag::Shifted(_) => Some([1u32, 7, 31][s]),
                ModeTag::MemBaseImm => Some([4u32, 0, (-8i32) as u32][s]),
                _ => None,
            })
            .collect()
    })
}

/// Verifies a `(key, template)` pair over canonical registers and the
/// sample immediate vectors: the one-key call of [`verify_seq`].
///
/// # Errors
///
/// A human-readable reason on the first failing sample.
pub fn verify_combo(
    key: &ComboKey,
    template: &Template,
    opts: CheckOptions,
) -> Result<Vec<(Flag, FlagEquiv)>, String> {
    verify_seq(std::slice::from_ref(key), template, opts)
}

/// Verifies a `(key sequence, template)` pair over canonical registers
/// and the sample immediate vectors. Returns the flag report on success.
///
/// This is the verification step shared by learning (imm
/// generalization) and parameterization (derived-rule validation,
/// §IV-C: "instantiate all possible derived rules … and verify each").
///
/// # Errors
///
/// A human-readable reason on the first failing sample.
pub fn verify_seq(
    keys: &[ComboKey],
    template: &Template,
    opts: CheckOptions,
) -> Result<Vec<(Flag, FlagEquiv)>, String> {
    let n_imms = key::seq_arity(keys).1;
    if n_imms > MAX_WINDOW_IMMS {
        return Err(format!("{n_imms} immediates exceed a window"));
    }
    verify_at(keys, template, sample_imm_vectors(keys), opts)
}

/// Verifies a `(key sequence, template)` pair over canonical registers
/// at each of the given immediate vectors, joining the per-sample flag
/// reports (a flag whose relationship differs between samples is a
/// `Mismatch`). Everything but the mapping is built inline or into a
/// buffer the samples share: a derivation calls this once per candidate.
///
/// # Errors
///
/// A human-readable reason on the first failing vector.
pub(crate) fn verify_at(
    keys: &[ComboKey],
    template: &Template,
    imm_vectors: impl IntoIterator<Item = Imms>,
    opts: CheckOptions,
) -> Result<Vec<(Flag, FlagEquiv)>, String> {
    let _span = pdbt_obs::span_with("verify", || {
        // Sized for the keys' display forms: a traced build formats this
        // once per candidate, and growing it would allocate three times.
        let mut label = String::with_capacity(32 * keys.len());
        for (i, k) in keys.iter().enumerate() {
            let sep = if i == 0 { "" } else { " + " };
            let _ = write!(label, "{sep}{k}");
        }
        label
    });
    let n_slots = key::seq_arity(keys).0;
    if n_slots > MAX_SLOTS {
        return Err(format!(
            "{n_slots} parameter slots exceed the canonical pool"
        ));
    }
    let (gslots, hslots) = (&GUEST_POOL[..n_slots], &HOST_POOL[..n_slots]);
    let mapping = Mapping::new(gslots.iter().copied().zip(hslots.iter().copied()).collect());
    let mut inst = Instantiation {
        slots: gslots.iter().copied().collect(),
        ..Instantiation::default()
    };
    let locs = HOST_POOL.map(HostLoc::Reg);
    let mut report: Option<Vec<(Flag, FlagEquiv)>> = None;
    let (mut guest, mut host) = (Vec::new(), Vec::new());
    for imms in imm_vectors {
        inst.imms = imms;
        guest.clear();
        key::reconstruct_seq(keys, &inst, &mut guest).ok_or_else(|| {
            let what = if keys.len() == 1 {
                "key"
            } else {
                "sequence key"
            };
            format!("{what} does not reconstruct")
        })?;
        host.clear();
        instantiate(template, &locs[..n_slots], &inst.imms, &mut host)
            .map_err(|e| e.to_string())?;
        match check(&guest, &host, &mapping, opts) {
            Verdict::Equivalent { flags } => match &mut report {
                None => report = Some(flags),
                Some(joined) => {
                    for ((_, a), (_, b)) in joined.iter_mut().zip(flags) {
                        if *a != b {
                            *a = FlagEquiv::Mismatch;
                        }
                    }
                }
            },
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
    /// The rule's key, one [`ComboKey`] per guest instruction.
    pub keys: &'a [ComboKey],
    /// The rule.
    pub entry: &'a RuleEntry,
    /// The rule's attribution label for observability: its key's display
    /// form, `seq[k1 + k2]` for a multi-key rule. Formatted once, when
    /// the rule was inserted; every application shares it.
    pub label: &'a Arc<str>,
    /// Instruction-class subgroup of the rule's root opcode (`Int/Dp/Alu`
    /// style), formatted once like the label.
    pub subgroup: &'a Arc<str>,
    /// The matched instructions' concrete registers and immediates.
    pub inst: Instantiation,
}

/// The rule hash table. A rule's key is a sequence of one or more combo
/// keys: length one for the single-instruction rules — the only ones
/// parameterization reads and derives (§V-D) — and up to
/// [`crate::learning::MAX_SEQ`] for learned multi-instruction rules,
/// which are matched as learned.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    entries: HashMap<Vec<ComboKey>, Rule, KeyBuild>,
    /// How many entries have a one-key sequence.
    one_key: usize,
    /// Longest key sequence, where the longest-first lookup starts.
    max_len: usize,
    /// Dense entry counts indexed by the `(opcode, s)` of a rule's first
    /// key. Translation probes the store at every guest instruction; a
    /// zero bucket rejects the probe before anything is hashed (and, in
    /// [`RuleSet::lookup`], before the window is scanned).
    op_index: Vec<u32>,
}

/// What the table holds per key: the rule, and the two strings every
/// application of it is attributed under. The set owns them so that the
/// translator hands out a reference count, not a freshly formatted
/// `String`, per rule application.
#[derive(Debug, Clone)]
struct Rule {
    entry: RuleEntry,
    label: Arc<str>,
    subgroup: Arc<str>,
}

/// A rule's attribution label: its key's display form, `seq[k1 + k2]`
/// for a multi-key rule.
fn rule_label(keys: &[ComboKey]) -> String {
    match keys {
        [key] => key.to_string(),
        _ => {
            let shown: Vec<String> = keys.iter().map(ComboKey::to_string).collect();
            format!("seq[{}]", shown.join(" + "))
        }
    }
}

/// The rule table's hasher: rotate, xor, multiply per word. The table's
/// keys are the rules the operator installed — a rule file, or what
/// learning and derivation produced — while guest code, the input
/// nobody vouches for, only ever *probes* it. No guest can grow a bucket,
/// so SipHash's collision resistance buys nothing here and its cost
/// lands on every translated guest instruction ([`pdbt_isa::Memory`]'s
/// page map makes the same trade).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyHasher(u64);

/// Builds [`KeyHasher`]s, for any map keyed by the operator's own rules.
pub(crate) type KeyBuild = BuildHasherDefault<KeyHasher>;

impl KeyHasher {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }
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

    /// Number of one-key (single-instruction) rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.one_key
    }

    /// Whether the set has no one-key rule.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.one_key == 0
    }

    /// Number of multi-key (sequence) rules.
    #[must_use]
    pub fn seq_len(&self) -> usize {
        self.entries.len() - self.one_key
    }

    /// Length of the longest key (0 for an empty set).
    #[must_use]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Inserts a rule; returns `false` (and keeps the existing rule) if
    /// the key is already present — the merging step of §IV-D.
    ///
    /// # Panics
    ///
    /// If `keys` is empty.
    pub fn insert(&mut self, keys: Vec<ComboKey>, entry: RuleEntry) -> bool {
        let rule = Rule {
            entry,
            label: rule_label(&keys).into(),
            subgroup: subgroup_of(keys[0].op).to_string().into(),
        };
        self.insert_rule(keys, rule)
    }

    fn insert_rule(&mut self, keys: Vec<ComboKey>, rule: Rule) -> bool {
        use std::collections::hash_map::Entry;
        let (bucket, len) = (op_bucket(keys[0].op, keys[0].s), keys.len());
        match self.entries.entry(keys) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(rule);
                if self.op_index.is_empty() {
                    self.op_index = vec![0; GOpc::ALL.len() * 2];
                }
                self.op_index[bucket] += 1;
                self.one_key += usize::from(len == 1);
                self.max_len = self.max_len.max(len);
                true
            }
        }
    }

    /// Whether any rule's key starts with this `(opcode, s)` pair.
    #[must_use]
    pub fn op_present(&self, op: GOpc, s: bool) -> bool {
        self.op_index
            .get(op_bucket(op, s))
            .is_some_and(|count| *count != 0)
    }

    /// Whether a one-key rule is present.
    #[must_use]
    pub fn contains(&self, key: &ComboKey) -> bool {
        self.entries.contains_key(std::slice::from_ref(key))
    }

    /// The entry of a one-key rule.
    #[must_use]
    pub fn get(&self, key: &ComboKey) -> Option<&RuleEntry> {
        let rule = self.entries.get(std::slice::from_ref(key))?;
        Some(&rule.entry)
    }

    /// Looks up the one-key rule for a guest instruction: parameterize,
    /// hash, check immediate constraints (paper §IV-D rule application).
    #[must_use]
    pub fn lookup(&self, inst: &GInst) -> Option<Match<'_>> {
        if !self.op_present(inst.op, inst.s) {
            return None;
        }
        self.lookup_scan(&Scan::of([inst], 1), 1..=1)
    }

    /// Longest-first lookup at the head of a scanned window, over the
    /// key lengths in `lens`: the longest prefix of the scan that is the
    /// key of a rule whose immediate constraint (if any) the window
    /// meets. `Vec<ComboKey>` hashes as its slice, so each length probes
    /// a prefix of the one scan; neither the probe nor the match it
    /// returns touches the heap.
    #[must_use]
    pub fn lookup_scan(&self, scan: &Scan, lens: RangeInclusive<usize>) -> Option<Match<'_>> {
        let first = scan.first()?;
        if !self.op_present(first.op, first.s) {
            return None;
        }
        let longest = (*lens.end()).min(self.max_len).min(scan.valid_len());
        (*lens.start()..=longest).rev().find_map(|len| {
            let (keys, rule) = self.entries.get_key_value(scan.keys(len))?;
            if let Some(required) = &rule.entry.imm_constraint {
                if required[..] != *scan.imms(len) {
                    return None;
                }
            }
            Some(Match {
                keys,
                entry: &rule.entry,
                label: &rule.label,
                subgroup: &rule.subgroup,
                inst: scan.instantiation(len),
            })
        })
    }

    /// Instantiates a match with the actual host locations of its slots,
    /// into a buffer of its own. The translator appends to the block's
    /// with [`instantiate`] directly.
    ///
    /// # Errors
    ///
    /// Forwarded template errors (a slot or immediate the match does not
    /// bind, an invalid host instruction shape).
    pub fn instantiate_match(
        &self,
        m: &Match<'_>,
        locs: &[HostLoc],
    ) -> Result<Vec<HInst>, crate::template::TemplateError> {
        let mut out = Vec::new();
        instantiate(&m.entry.template, locs, &m.inst.imms, &mut out).map(|()| out)
    }

    /// Iterates over the one-key rules.
    pub fn iter(&self) -> impl Iterator<Item = (&ComboKey, &RuleEntry)> {
        self.entries().filter_map(|(keys, entry)| match keys {
            [key] => Some((key, entry)),
            _ => None,
        })
    }

    /// Iterates over every rule, of any key length.
    pub fn entries(&self) -> impl Iterator<Item = (&[ComboKey], &RuleEntry)> {
        self.entries
            .iter()
            .map(|(keys, rule)| (&keys[..], &rule.entry))
    }

    /// Merges another rule set into this one (existing keys win);
    /// returns how many entries were newly added.
    pub fn merge(&mut self, other: RuleSet) -> usize {
        other
            .entries
            .into_iter()
            .map(|(keys, rule)| usize::from(self.insert_rule(keys, rule)))
            .sum()
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

    fn rmw_add_rule() -> (Vec<ComboKey>, RuleEntry) {
        // add r0, r0, #imm ↔ addl S0, $imm
        let p = key::parameterize(&g::add(GReg::R4, GReg::R4, GOp::Imm(5))).unwrap();
        let host = [h::add(HReg::Ecx.into(), HOperand::Imm(5))];
        let template = extract(&host, &|r| (r == HReg::Ecx).then_some(0), &[5]).unwrap();
        let flags = verify_combo(&p.key, &template, CheckOptions::default()).unwrap();
        (
            vec![p.key],
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
    fn lookup_is_none_outside_the_rule_universe() {
        // Both share the rule's (opcode, s) bucket, so the presence gate
        // passes and the empty scan is what has to say no.
        let (key, entry) = rmw_add_rule();
        let mut rs = RuleSet::new();
        rs.insert(key, entry);
        let add = g::add(GReg::R0, GReg::R0, GOp::Imm(1));
        assert!(rs.lookup(&add).is_some());
        assert!(rs.lookup(&add.with_cond(pdbt_isa::Cond::Eq)).is_none());
        assert!(rs
            .lookup(&g::add(GReg::Pc, GReg::Pc, GOp::Imm(4)))
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
        for v in sample_imm_vectors(&[p.key]) {
            assert_eq!(v.len(), 1);
            assert!((1..=31).contains(&v[0]), "shift amount {v:?}");
        }
    }
}
