//! The translation-rule store: one hash table from key sequences (one
//! combo key per guest instruction a rule consumes) to verified host
//! templates, with the canonical verification harness used by both the
//! learning pipeline and the parameterization engine.
//!
//! "A hash algorithm is used to retrieve the translation rules from a
//! hash table. The matched rule will then be instantiated to generate
//! host instructions" (paper §V-A).

use crate::classify::subgroup_of;
use crate::key::{self, ComboKey, Instantiation, ModeTag, Scan, MAX_WINDOW, MAX_WINDOW_IMMS};
use crate::template::{instantiate, HostLoc, Template};
use pdbt_isa::{Flag, InlineVec};
use pdbt_isa_arm::{Inst as GInst, Op as GOpc, Reg as GReg};
use pdbt_isa_x86::{Inst as HInst, Reg as HReg};
use pdbt_symexec::{check, CheckOptions, FlagEquiv, Mapping, Verdict};
use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::RangeInclusive;
use std::sync::{Arc, OnceLock};

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
    // The samples of a key with no immediate operand are all empty, and
    // one check covers them.
    let samples = if n_imms == 0 { 1 } else { 3 };
    verify_at(
        keys,
        template,
        sample_imm_vectors(keys).into_iter().take(samples),
        opts,
    )
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
    /// style), formatted once per opcode and shared by its rules.
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
    /// Shared until written: cloning a set — every session state, cold
    /// partition and warm boot takes a copy of one — counts a reference,
    /// and the first insert into a shared table copies it. The rules in
    /// it are shared too ([`SharedRule`]), so that copy, and a set loaded
    /// from a block another set already parsed, count references.
    entries: Arc<HashSet<SharedRule, KeyBuild>>,
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

/// What the table holds per key: the key sequence, the rule, and the two
/// strings every application of it is attributed under. The set owns
/// them so that the translator hands out a reference count, not a
/// freshly formatted `String`, per rule application. Laid out in this
/// order so that the keys a lookup compares and the entry its match
/// reads next share cache lines.
#[derive(Debug)]
#[repr(C)]
struct Rule {
    keys: InlineVec<ComboKey, MAX_WINDOW>,
    entry: RuleEntry,
    label: Arc<str>,
    subgroup: Arc<str>,
}

/// One rule as sets hold it: behind an `Arc`, so sets that hold the same
/// rule — the partitions a daemon boots from artifacts whose rule sets
/// overlap — share one parsed copy, and inserting it into another set
/// counts a reference. It hashes, compares and borrows as its key
/// sequence, so a set of them is the table from keys to rules.
#[derive(Debug, Clone)]
pub(crate) struct SharedRule(Arc<Rule>);

impl SharedRule {
    /// The rule for `keys`, its label and subgroup formatted here.
    ///
    /// # Panics
    ///
    /// If `keys` is empty or longer than a [`MAX_WINDOW`] window.
    pub(crate) fn new(keys: &[ComboKey], entry: RuleEntry) -> SharedRule {
        SharedRule(Arc::new(Rule {
            keys: keys.iter().copied().collect(),
            label: rule_label(keys),
            subgroup: subgroup_label(keys[0].op),
            entry,
        }))
    }
}

impl Borrow<[ComboKey]> for SharedRule {
    fn borrow(&self) -> &[ComboKey] {
        &self.0.keys
    }
}

impl Hash for SharedRule {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.keys.hash(state);
    }
}

impl PartialEq for SharedRule {
    fn eq(&self, other: &SharedRule) -> bool {
        self.0.keys == other.0.keys
    }
}

impl Eq for SharedRule {}

/// A rule's attribution label: its key's display form, `seq[k1 + k2]`
/// for a multi-key rule. Formatted on the stack, so the `Arc` is the
/// label's one allocation.
fn rule_label(keys: &[ComboKey]) -> Arc<str> {
    let mut label = LabelBuf {
        bytes: [0; 160],
        len: 0,
    };
    if write_label(&mut label, keys).is_ok() {
        let written = std::str::from_utf8(&label.bytes[..label.len]);
        return written.expect("written as whole strs").into();
    }
    // A label past the buffer (a long sequence rule): format on the heap.
    let mut label = String::new();
    let _ = write_label(&mut label, keys);
    label.into()
}

fn write_label(out: &mut impl std::fmt::Write, keys: &[ComboKey]) -> std::fmt::Result {
    match keys {
        [key] => write!(out, "{key}"),
        _ => {
            out.write_str("seq[")?;
            for (i, key) in keys.iter().enumerate() {
                let sep = if i == 0 { "" } else { " + " };
                write!(out, "{sep}{key}")?;
            }
            out.write_str("]")
        }
    }
}

/// A fixed stack buffer a label is formatted into; writing past its end
/// fails.
struct LabelBuf {
    bytes: [u8; 160],
    len: usize,
}

impl std::fmt::Write for LabelBuf {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        let dst = self.bytes.get_mut(self.len..end).ok_or(std::fmt::Error)?;
        dst.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// The subgroup label of a rule's root opcode. There are a few dozen
/// opcodes and each has one subgroup, so the labels are formatted once
/// per process and every rule shares its opcode's.
fn subgroup_label(op: GOpc) -> Arc<str> {
    static LABELS: OnceLock<Vec<Arc<str>>> = OnceLock::new();
    let labels = LABELS.get_or_init(|| {
        let mut labels = vec![Arc::from(""); GOpc::ALL.len()];
        for op in GOpc::ALL {
            labels[op as usize] = subgroup_of(op).to_string().into();
        }
        labels
    });
    Arc::clone(&labels[op as usize])
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
    /// If `keys` is empty or longer than a [`MAX_WINDOW`] window, the
    /// longest sequence a rule is matched over.
    pub fn insert(&mut self, keys: Vec<ComboKey>, entry: RuleEntry) -> bool {
        self.insert_shared(SharedRule::new(&keys, entry))
    }

    /// Inserts a rule other sets may hold too, as [`RuleSet::insert`]
    /// does.
    pub(crate) fn insert_shared(&mut self, rule: SharedRule) -> bool {
        let keys = &rule.0.keys;
        let (bucket, len) = (op_bucket(keys[0].op, keys[0].s), keys.len());
        if !Arc::make_mut(&mut self.entries).insert(rule) {
            return false;
        }
        if self.op_index.is_empty() {
            self.op_index = vec![0; GOpc::ALL.len() * 2];
        }
        self.op_index[bucket] += 1;
        self.one_key += usize::from(len == 1);
        self.max_len = self.max_len.max(len);
        true
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
        self.entries.contains(std::slice::from_ref(key))
    }

    /// The entry of a one-key rule.
    #[must_use]
    pub fn get(&self, key: &ComboKey) -> Option<&RuleEntry> {
        let rule = self.entries.get(std::slice::from_ref(key))?;
        Some(&rule.0.entry)
    }

    /// Looks up the one-key rule for a guest instruction: parameterize,
    /// hash, check immediate constraints (paper §IV-D rule application).
    #[must_use]
    pub fn lookup(&self, inst: &GInst) -> Option<Match<'_>> {
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
            let rule = &self.entries.get(scan.keys(len))?.0;
            if let Some(required) = &rule.entry.imm_constraint {
                if required[..] != *scan.imms(len) {
                    return None;
                }
            }
            Some(Match {
                keys: &rule.keys,
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
            .map(|rule| (&rule.0.keys[..], &rule.0.entry))
    }

    /// Merges another rule set into this one (existing keys win);
    /// returns how many entries were newly added.
    pub fn merge(&mut self, other: RuleSet) -> usize {
        let entries = Arc::try_unwrap(other.entries).unwrap_or_else(|shared| (*shared).clone());
        entries
            .into_iter()
            .map(|rule| usize::from(self.insert_shared(rule)))
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

    /// A label that fits the stack buffer and one that does not come out
    /// as the key's display form, `seq[k1 + k2 …]` for a sequence.
    #[test]
    fn labels_are_the_keys_display_form_at_any_length() {
        let key = ComboKey {
            op: GOpc::Umlal,
            s: true,
            modes: [ModeTag::Shifted(pdbt_isa_arm::ShiftKind::Ror); 4]
                .into_iter()
                .collect(),
            reg_pattern: [0, 1, 2, 3].into_iter().collect(),
        };
        let keys = [key; 4];
        let shown: Vec<String> = keys.iter().map(ComboKey::to_string).collect();
        let seq = format!("seq[{}]", shown.join(" + "));
        assert!(seq.len() > 160, "past the stack buffer: {seq}");
        assert_eq!(*rule_label(&keys), *seq);
        assert_eq!(
            *rule_label(&keys[..2]),
            format!("seq[{} + {}]", shown[0], shown[1])
        );
        assert_eq!(*rule_label(&keys[..1]), *shown[0]);
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
