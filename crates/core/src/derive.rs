//! Rule parameterization: deriving new rules from learned ones
//! (paper §IV — classification, parameterization, verification,
//! merging).
//!
//! For every subgroup that contributed at least one learned rule, the
//! engine enumerates the subgroup's combo universe along the two
//! parameterization dimensions — *opcode* (other members of the
//! subgroup) and *addressing mode* (operand-kind and dependence-pattern
//! variants, subject to the §IV-B guidelines) — emits an adapted host
//! template for each target combo, verifies it symbolically, and merges
//! the survivors into the rule store.

use crate::classify::{self, Subgroup};
use crate::emit::emit_for;
use crate::key::{ComboKey, ModeTag, MAX_OPERANDS, MAX_REG_MENTIONS};
use crate::ruleset::{verify_combo, KeyBuild, Provenance, RuleEntry, RuleSet};
use pdbt_isa::InlineVec;
use pdbt_isa_arm::{Op as GOp, Shape, ShiftKind};
use pdbt_par::Pool;
use pdbt_symexec::CheckOptions;
use std::collections::{HashMap, HashSet};

/// Parameterization configuration (the ablation knobs of Figs 14/15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeriveConfig {
    /// Opcode parameterization (dimension 1).
    pub opcode: bool,
    /// Addressing-mode parameterization (dimension 2).
    pub addrmode: bool,
    /// Condition-flag delegation: when enabled, flag-setting variants
    /// (`s` bit, compares with differing flag formulas) are derivable
    /// because the runtime handles flags separately (§IV-B/D); when
    /// disabled, only flag-silent combos and exact-flag seeds derive.
    pub flag_delegation: bool,
}

impl DeriveConfig {
    /// Full parameterization (the paper's `para.` configuration).
    #[must_use]
    pub fn full() -> DeriveConfig {
        DeriveConfig {
            opcode: true,
            addrmode: true,
            flag_delegation: true,
        }
    }

    /// No parameterization (the `w/o para.` learned-rules baseline).
    #[must_use]
    pub fn none() -> DeriveConfig {
        DeriveConfig {
            opcode: false,
            addrmode: false,
            flag_delegation: false,
        }
    }

    /// Only opcode parameterization (first bar of Fig 14).
    #[must_use]
    pub fn opcode_only() -> DeriveConfig {
        DeriveConfig {
            opcode: true,
            addrmode: false,
            flag_delegation: false,
        }
    }

    /// Opcode + addressing mode (second bar of Fig 14).
    #[must_use]
    pub fn opcode_addrmode() -> DeriveConfig {
        DeriveConfig {
            opcode: true,
            addrmode: true,
            flag_delegation: false,
        }
    }
}

/// Derivation statistics (feeds Table III).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeriveStats {
    /// Learned rules in the input store.
    pub learned: usize,
    /// Distinct rules after opcode parameterization (learned rules that
    /// share a subgroup and operand signature collapse together).
    pub opcode_param_rules: usize,
    /// Distinct rules after addressing-mode parameterization (signatures
    /// collapse across modes and dependence patterns).
    pub addrmode_param_rules: usize,
    /// Derived entries added by the engine.
    pub derived: usize,
    /// Derivation attempts rejected by verification.
    pub rejected: usize,
    /// Candidates quarantined because their worker panicked or an
    /// injected fault (`emit`/`pool` sites) failed them — a subset of
    /// `rejected` (each quarantined candidate also counts its
    /// occurrences there), counted per candidate. Zero in a healthy,
    /// fault-free run.
    pub quarantined: usize,
    /// Candidates whose verification ran out of fuel
    /// ([`CheckOptions::fuel`]) — also a subset of `rejected`, counted
    /// per candidate. Zero under the default budget.
    pub fuel_exhausted: usize,
    /// Total applicable (instantiable) rules in the output store.
    pub instantiated: usize,
}

/// A dependence pattern: slot index per register mention.
type Pattern = InlineVec<u8, MAX_REG_MENTIONS>;

/// Restricted-growth strings: all canonical dependence patterns over
/// `n` register positions (position 0 is always slot 0).
fn patterns(n: usize) -> Vec<Pattern> {
    fn rec(cur: &mut Pattern, i: usize, max: u8, out: &mut Vec<Pattern>) {
        if i == cur.len() {
            out.push(*cur);
            return;
        }
        for v in 0..=max + 1 {
            cur[i] = v;
            rec(cur, i + 1, max.max(v), out);
        }
    }
    let mut cur =
        Pattern::from_slice(&[0; MAX_REG_MENTIONS][..n]).expect("an arity a key can have");
    if n == 0 {
        return vec![cur];
    }
    let mut out = Vec::new();
    rec(&mut cur, 1, 0, &mut out);
    out
}

/// The flexible-operand mode variants for the addressing-mode dimension.
const FLEX_MODES: [ModeTag; 6] = [
    ModeTag::Reg,
    ModeTag::Imm,
    ModeTag::Shifted(ShiftKind::Lsl),
    ModeTag::Shifted(ShiftKind::Lsr),
    ModeTag::Shifted(ShiftKind::Asr),
    ModeTag::Shifted(ShiftKind::Ror),
];

/// Register-mention count of a mode vector (the dst/base positions are
/// `Reg`; the flex position contributes 0 or 1).
fn reg_mentions(modes: &[ModeTag]) -> usize {
    modes
        .iter()
        .map(|m| match m {
            ModeTag::Reg | ModeTag::Shifted(_) => 1,
            ModeTag::MemBaseImm => 1,
            ModeTag::MemBaseReg => 2,
            ModeTag::Imm | ModeTag::Opaque => 0,
        })
        .sum()
}

/// Enumerates the combo universe of one opcode under the guidelines of
/// §IV-B: the target operand is never an immediate, non-load/store
/// operands never generalize to memory, load sources / store targets
/// stay memory. `patterns[n]` is [`patterns`]`(n)`: a derivation
/// enumerates them once, not once per opcode and mode set.
fn combo_universe(op: GOp, s: bool, patterns: &[Vec<Pattern>]) -> Vec<ComboKey> {
    use ModeTag::{MemBaseImm, MemBaseReg, Reg};
    // The fixed operand positions, then each mode of the last one.
    let (fixed, last): (&[ModeTag], &[ModeTag]) = match op.shape() {
        Shape::Dp3 => (&[Reg, Reg], &FLEX_MODES),
        Shape::Dp2 | Shape::Cmp2 => (&[Reg], &FLEX_MODES),
        Shape::LdSt => (&[Reg], &[MemBaseImm, MemBaseReg]),
        Shape::Mul3 => (&[Reg, Reg], &[Reg]),
        _ => return Vec::new(),
    };
    let mut out = Vec::new();
    for m in last {
        let modes: InlineVec<ModeTag, MAX_OPERANDS> = fixed.iter().chain([m]).copied().collect();
        for &reg_pattern in &patterns[reg_mentions(&modes)] {
            out.push(ComboKey {
                op,
                s,
                modes,
                reg_pattern,
            });
        }
    }
    out
}

/// The operand signature of a key (everything except the opcode), used
/// to group learned rules into opcode-parameterized rules.
fn opcode_signature(key: &ComboKey) -> impl std::hash::Hash + Eq {
    (
        classify::pseudo_op(classify::subgroup_of(key.op)),
        key.s,
        key.modes,
        key.reg_pattern,
    )
}

/// The shape signature of a key (subgroup + operand count only), used to
/// group opcode-parameterized rules into addressing-mode-parameterized
/// rules.
fn addrmode_signature(key: &ComboKey) -> (usize, bool, usize) {
    (
        classify::pseudo_op(classify::subgroup_of(key.op)),
        key.s,
        key.modes.len(),
    )
}

/// One deduplicated derivation candidate. `occurrences` counts how many
/// times the enumeration visits the key — a candidate that fails
/// verification is rejected once per visit, exactly as the serial loop
/// (which never caches failures) would count it.
struct Candidate {
    key: ComboKey,
    provenance: Provenance,
    occurrences: usize,
}

/// A verification worker's decision for one candidate.
enum Outcome {
    Accepted(Box<RuleEntry>),
    Rejected,
    /// Rejected because the checker ran out of fuel — tracked apart so
    /// a starved run is distinguishable from genuine non-equivalence.
    RejectedFuel,
    /// Failed by an injected `emit`-site fault; merged like a panicking
    /// worker (which surfaces as `None` from the catching map).
    Quarantined,
}

/// Phase 1 of [`derive_jobs`]: the deduplicated candidate universe, in
/// a serial, deterministic order. Seeds: which subgroups have learned
/// rules, and which operand signatures appear per subgroup (for the
/// opcode-only stage). Everything is sorted so the candidate order does
/// not depend on `HashMap` iteration order. The maps are keyed by the
/// operator's own rules, never by guest input, so they hash as the rule
/// table does ([`KeyBuild`]).
fn enumerate(learned: &RuleSet, cfg: DeriveConfig) -> Vec<Candidate> {
    let mut subgroup_seeds: HashMap<Subgroup, Vec<ComboKey>, KeyBuild> = HashMap::default();
    for (key, _) in learned.iter() {
        subgroup_seeds
            .entry(classify::subgroup_of(key.op))
            .or_default()
            .push(*key);
    }
    let mut groups: Vec<(Subgroup, Vec<ComboKey>)> = subgroup_seeds.into_iter().collect();
    groups.sort_by_key(|(sg, _)| *sg);

    let by_arity: Vec<Vec<Pattern>> = (0..=MAX_REG_MENTIONS).map(patterns).collect();
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut index: HashMap<ComboKey, usize, KeyBuild> = HashMap::default();
    for (sg, seeds) in &mut groups {
        if !classify::is_parameterizable(*sg) {
            continue;
        }
        seeds.sort();
        for op in classify::members(*sg) {
            // Flag-setting variants are always enumerated; without
            // delegation, the post-verification filter below keeps only
            // the ones whose host flags are *exactly* the guest's (the
            // baseline's flag-inclusive rules), while delegation also
            // admits inverted-carry relationships (§IV-D).
            let s_variants: &[bool] = if op.supports_s() {
                &[false, true]
            } else {
                &[false]
            };
            for &s in s_variants {
                let universe = if cfg.addrmode {
                    combo_universe(op, s, &by_arity)
                } else {
                    // Opcode dimension only: project the learned operand
                    // signatures of this subgroup onto the new opcode.
                    seeds
                        .iter()
                        .filter(|k| k.s == s || cfg.flag_delegation)
                        .map(|k| ComboKey { op, s, ..*k })
                        .collect()
                };
                for key in universe {
                    if learned.contains(&key) {
                        continue;
                    }
                    use std::collections::hash_map::Entry;
                    match index.entry(key) {
                        Entry::Occupied(e) => candidates[*e.get()].occurrences += 1,
                        Entry::Vacant(v) => {
                            let key = *v.key();
                            // A key names its opcode, so duplicates can
                            // only repeat within one subgroup: the
                            // provenance decision is safe to make on the
                            // first visit.
                            let provenance = if seeds.iter().any(|k| {
                                k.modes == key.modes
                                    && k.reg_pattern == key.reg_pattern
                                    && k.s == key.s
                            }) {
                                Provenance::OpcodeDerived
                            } else {
                                Provenance::AddrModeDerived
                            };
                            v.insert(candidates.len());
                            candidates.push(Candidate {
                                key,
                                provenance,
                                occurrences: 1,
                            });
                        }
                    }
                }
            }
        }
    }
    candidates
}

/// Runs parameterization over a learned rule set, returning the expanded
/// store and the statistics. Serial shorthand for
/// [`derive_jobs`]`(learned, cfg, check, 1)`.
#[must_use]
pub fn derive(learned: &RuleSet, cfg: DeriveConfig, check: CheckOptions) -> (RuleSet, DeriveStats) {
    derive_jobs(learned, cfg, check, 1)
}

/// Runs parameterization with verification fanned out over `jobs` worker
/// threads.
///
/// The pipeline has three phases: a serial, deterministically ordered
/// enumeration of the candidate universe (subgroups, seeds, and
/// duplicates all sorted or folded in a fixed order); a parallel
/// emit-and-verify map over the deduplicated candidates ([`verify_combo`]
/// is pure, so verdicts are position-stable); and a serial merge in
/// enumeration order. The resulting `RuleSet` and `DeriveStats` are
/// therefore **identical for every `jobs` value** — `jobs` buys
/// wall-clock time only. `tests/determinism.rs` pins this down.
///
/// Verification workers are panic-isolated ([`Pool::map_catch_util`]):
/// a candidate whose worker panics — organically or via the `pool`
/// fault site — is quarantined as a counted rejection
/// ([`DeriveStats::quarantined`]) instead of aborting the whole
/// derivation. Injected faults are keyed on the candidate's combo key,
/// so the serial-vs-parallel identity holds under fault injection too.
#[must_use]
pub fn derive_jobs(
    learned: &RuleSet,
    cfg: DeriveConfig,
    check: CheckOptions,
    jobs: usize,
) -> (RuleSet, DeriveStats) {
    let _span = pdbt_obs::span("parameterize");
    let mut stats = DeriveStats {
        learned: learned.len(),
        ..DeriveStats::default()
    };
    // Rule-count aggregations for Table III.
    let mut opcode_sigs = HashSet::new();
    let mut addr_sigs = HashSet::new();
    for (key, _) in learned.iter() {
        opcode_sigs.insert(opcode_signature(key));
        addr_sigs.insert(addrmode_signature(key));
    }
    stats.opcode_param_rules = opcode_sigs.len();
    stats.addrmode_param_rules = addr_sigs.len();

    let mut out = learned.clone();
    if !cfg.opcode && !cfg.addrmode {
        stats.instantiated = out.len();
        return (out, stats);
    }

    let candidates = enumerate(learned, cfg);

    // Phase 2 — emit and verify every candidate over the pool, with
    // panic isolation so one poisoned candidate degrades to a
    // quarantine instead of killing the run.
    let pool = Pool::new(jobs);
    let (outcomes, util) = pool.map_catch_util(&candidates, |c| {
        if pdbt_faults::hit_with(pdbt_faults::Site::Pool, || {
            pdbt_faults::key_of(format!("{}", c.key).as_bytes())
        }) {
            panic!("injected fault: pool worker");
        }
        if pdbt_faults::hit_with(pdbt_faults::Site::Emit, || {
            pdbt_faults::key_of(format!("{}", c.key).as_bytes())
        }) {
            return Outcome::Quarantined;
        }
        let Some(template) = emit_for(&c.key) else {
            return Outcome::Rejected;
        };
        match verify_combo(&c.key, &template, check) {
            Ok(flags) => {
                // Without delegation a derived rule may not introduce
                // flag effects that differ from exact host behaviour.
                if !cfg.flag_delegation
                    && flags
                        .iter()
                        .any(|(_, e)| *e != pdbt_symexec::FlagEquiv::Exact)
                {
                    return Outcome::Rejected;
                }
                Outcome::Accepted(Box::new(RuleEntry {
                    template,
                    flags,
                    provenance: c.provenance,
                    imm_constraint: None,
                }))
            }
            Err(reason) if reason.starts_with(pdbt_symexec::FUEL_EXHAUSTED) => {
                Outcome::RejectedFuel
            }
            Err(_) => Outcome::Rejected,
        }
    });
    drop(pdbt_obs::span_with("derive_pool", || {
        format!(
            "jobs={} candidates={} tasks_per_worker={util:?}",
            pool.jobs(),
            candidates.len()
        )
    }));

    // Phase 3 — merge in enumeration order. A `None` outcome is a
    // panicked (quarantined) worker; quarantines and fuel exhaustions
    // fold into `rejected` (so totals are stable) and are additionally
    // counted in their own fields.
    for (c, outcome) in candidates.iter().zip(outcomes) {
        match outcome {
            Some(Outcome::Accepted(entry)) => {
                if out.insert(vec![c.key], *entry) {
                    stats.derived += 1;
                }
            }
            Some(Outcome::Rejected) => stats.rejected += c.occurrences,
            Some(Outcome::RejectedFuel) => {
                stats.rejected += c.occurrences;
                stats.fuel_exhausted += 1;
            }
            Some(Outcome::Quarantined) | None => {
                stats.rejected += c.occurrences;
                stats.quarantined += 1;
            }
        }
    }
    stats.instantiated = out.len();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::parameterize;
    use crate::ruleset::RuleSet;
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::{Operand as O, Reg};

    fn learned_add_rule() -> RuleSet {
        // One learned rule: add r0, r0, r1 (reg mode, RMW pattern).
        let p = parameterize(&g::add(Reg::R4, Reg::R4, O::Reg(Reg::R5))).unwrap();
        let template = emit_for(&p.key).unwrap();
        let flags = verify_combo(&p.key, &template, CheckOptions::default()).unwrap();
        let mut rs = RuleSet::new();
        rs.insert(
            vec![p.key],
            RuleEntry {
                template,
                flags,
                provenance: Provenance::Learned,
                imm_constraint: None,
            },
        );
        rs
    }

    #[test]
    fn patterns_are_restricted_growth_strings() {
        assert_eq!(patterns(1), vec![vec![0]]);
        assert_eq!(patterns(2), vec![vec![0, 0], vec![0, 1]]);
        assert_eq!(patterns(3).len(), 5); // Bell(3)
        for p in [[0, 1, 2], [0, 0, 1], [0, 1, 0]] {
            assert!(patterns(3).iter().any(|q| *q == p), "{p:?}");
        }
    }

    /// Every candidate `derive(full)` enumerates from the one add rule,
    /// with what `emit_for` + `verify_combo` say of it — accepted or
    /// not, and the flag report — held to the recorded table
    /// (`UPDATE_GOLDEN=1` rewrites it). The full-scale goldens say
    /// *that* a verdict moved; this says which key's.
    #[test]
    fn candidate_verdicts_match_the_recorded_table() {
        use std::fmt::Write as _;
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/derive_verdicts.txt"
        );
        let mut got = String::new();
        for c in enumerate(&learned_add_rule(), DeriveConfig::full()) {
            let verdict = emit_for(&c.key).ok_or("no template").and_then(|t| {
                verify_combo(&c.key, &t, CheckOptions::default()).or(Err("rejected"))
            });
            let _ = writeln!(got, "{} x{}: {verdict:?}", c.key, c.occurrences);
        }
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            std::fs::write(path, &got).unwrap();
        }
        let want = std::fs::read_to_string(path).unwrap();
        assert!(got == want, "a candidate's verdict moved:\n{got}");
    }

    #[test]
    fn opcode_dimension_reaches_unseen_opcodes() {
        // Paper Fig 3: an add rule derives the eor rule that was never
        // in the training set.
        let learned = learned_add_rule();
        let (full, stats) = derive(
            &learned,
            DeriveConfig::opcode_only(),
            CheckOptions::default(),
        );
        assert!(stats.derived > 0, "{stats:?}");
        let eor = g::eor(Reg::R9, Reg::R9, O::Reg(Reg::R10));
        assert!(full.lookup(&eor).is_some(), "eor derived from add");
        let sub = g::sub(Reg::R9, Reg::R9, O::Reg(Reg::R10));
        assert!(full.lookup(&sub).is_some(), "sub derived from add");
        // But not a different addressing mode (that is dimension 2).
        let imm = g::add(Reg::R9, Reg::R9, O::Imm(4));
        assert!(
            full.lookup(&imm).is_none(),
            "imm mode needs addr-mode parameterization"
        );
    }

    #[test]
    fn addrmode_dimension_reaches_unseen_modes() {
        // Paper Fig 4: immediate mode generalizes to register mode —
        // and here the reverse plus shifted modes and fresh dependence
        // patterns.
        let learned = learned_add_rule();
        let (full, stats) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        assert!(stats.derived > stats.learned, "{stats:?}");
        assert!(full.lookup(&g::add(Reg::R9, Reg::R9, O::Imm(4))).is_some());
        assert!(full
            .lookup(&g::add(Reg::R4, Reg::R5, O::Reg(Reg::R6)))
            .is_some());
        assert!(full
            .lookup(&g::eor(
                Reg::R4,
                Reg::R5,
                O::Shifted {
                    rm: Reg::R6,
                    kind: ShiftKind::Lsl,
                    amount: 2
                }
            ))
            .is_some());
        // The dst-aliases-src2 dependence pattern (Fig 8) verifies with
        // its auxiliary move.
        assert!(full
            .lookup(&g::sub(Reg::R5, Reg::R4, O::Reg(Reg::R5)))
            .is_some());
    }

    #[test]
    fn flag_delegation_unlocks_s_variants() {
        let learned = learned_add_rule();
        let (without, _) = derive(
            &learned,
            DeriveConfig::opcode_addrmode(),
            CheckOptions::default(),
        );
        let (with, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        // adds has exact flags → derivable in both configurations.
        let adds = g::add(Reg::R4, Reg::R4, O::Imm(1)).with_s();
        assert!(without.lookup(&adds).is_some());
        assert!(with.lookup(&adds).is_some());
        // subs (inverted carry) needs delegation.
        let subs = g::sub(Reg::R4, Reg::R4, O::Imm(1)).with_s();
        assert!(
            without.lookup(&subs).is_none(),
            "no inverted-carry rules without delegation"
        );
        assert!(with.lookup(&subs).is_some(), "delegation unlocks them");
    }

    #[test]
    fn flag_delegation_gates_inverted_carry_rules() {
        // Exact-flag compares (cmn/tst/teq from a cmp seed) derive in
        // every configuration; derived cmp mode-variants carry an
        // inverted carry and need delegation.
        let mut rs = RuleSet::new();
        let p = parameterize(&g::cmp(Reg::R4, O::Reg(Reg::R5))).unwrap();
        let template = emit_for(&p.key).unwrap();
        let flags = verify_combo(&p.key, &template, CheckOptions::default()).unwrap();
        rs.insert(
            vec![p.key],
            RuleEntry {
                template,
                flags,
                provenance: Provenance::Learned,
                imm_constraint: None,
            },
        );
        let (without, _) = derive(
            &rs,
            DeriveConfig::opcode_addrmode(),
            CheckOptions::default(),
        );
        let (with, _) = derive(&rs, DeriveConfig::full(), CheckOptions::default());
        // Exact compares derive in both.
        assert!(without.lookup(&g::cmn(Reg::R4, O::Reg(Reg::R5))).is_some());
        assert!(without.lookup(&g::tst(Reg::R4, O::Imm(1))).is_some());
        // cmp's immediate mode variant has inverted C → delegation only.
        assert!(without.lookup(&g::cmp(Reg::R4, O::Imm(3))).is_none());
        assert!(with.lookup(&g::cmp(Reg::R4, O::Imm(3))).is_some());
    }

    #[test]
    fn parallel_derivation_matches_serial() {
        let learned = learned_add_rule();
        let opts = CheckOptions::default();
        let (serial, s_stats) = derive_jobs(&learned, DeriveConfig::full(), opts, 1);
        let (par, p_stats) = derive_jobs(&learned, DeriveConfig::full(), opts, 8);
        assert_eq!(s_stats, p_stats, "stats must not depend on jobs");
        assert_eq!(serial.len(), par.len());
        for (k, e) in serial.iter() {
            assert_eq!(par.get(k), Some(e), "entry for {k} differs");
        }
    }

    #[test]
    fn derivation_requires_seeds() {
        // No learned load rule → no derived load rules (training-set
        // dependence, the premise of Figs 2/16).
        let learned = learned_add_rule();
        let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        let ldr = g::ldr(
            Reg::R4,
            pdbt_isa_arm::MemAddr::BaseImm {
                base: Reg::R5,
                offset: 4,
            },
        );
        assert!(full.lookup(&ldr).is_none(), "no seed in the load subgroup");
    }

    #[test]
    fn derived_rules_instantiate_and_run() {
        use crate::template::HostLoc;
        use pdbt_isa_x86::Reg as HReg;
        let learned = learned_add_rule();
        let (full, _) = derive(&learned, DeriveConfig::full(), CheckOptions::default());
        // Translate `eor r9, r10, r11` and execute the host code.
        let inst = g::eor(Reg::R9, Reg::R10, O::Reg(Reg::R11));
        let m = full.lookup(&inst).unwrap();
        let code = full
            .instantiate_match(
                &m,
                &[
                    HostLoc::Reg(HReg::Ecx),
                    HostLoc::Reg(HReg::Ebx),
                    HostLoc::Reg(HReg::Esi),
                ],
            )
            .unwrap();
        let mut h = pdbt_isa_x86::Cpu::new();
        h.write(HReg::Ebx, 0b1100);
        h.write(HReg::Esi, 0b1010);
        pdbt_isa_x86::exec_block(&mut h, &code, 100).unwrap();
        assert_eq!(h.read(HReg::Ecx), 0b0110);
    }

    #[test]
    fn table3_shape_counts_decrease_then_expand() {
        // learned ≥ opcode-param ≥ addr-param classes; instantiated ≫
        // learned (Table III's compression-then-expansion shape).
        let mut rs = learned_add_rule();
        for inst in [
            g::add(Reg::R4, Reg::R4, O::Imm(3)),
            g::sub(Reg::R4, Reg::R4, O::Reg(Reg::R5)),
            g::orr(Reg::R4, Reg::R5, O::Reg(Reg::R6)),
            g::mov(Reg::R4, O::Imm(9)),
        ] {
            let p = parameterize(&inst).unwrap();
            let template = emit_for(&p.key).unwrap();
            let flags = verify_combo(&p.key, &template, CheckOptions::default()).unwrap();
            rs.insert(
                vec![p.key],
                RuleEntry {
                    template,
                    flags,
                    provenance: Provenance::Learned,
                    imm_constraint: None,
                },
            );
        }
        let (_, stats) = derive(&rs, DeriveConfig::full(), CheckOptions::default());
        assert_eq!(stats.learned, 5);
        assert!(stats.opcode_param_rules <= stats.learned);
        assert!(stats.addrmode_param_rules <= stats.opcode_param_rules);
        assert!(
            stats.instantiated > stats.learned * 10,
            "expansion: {} from {}",
            stats.instantiated,
            stats.learned
        );
    }
}
