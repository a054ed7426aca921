//! The learning pipeline: candidate extraction, verification, merging.
//!
//! Implements the workflow of paper Fig 1 over the synthetic compiler's
//! output: every debug-map entry pairs a guest sequence with a host
//! sequence compiled from the same source statement; the pair is
//! verified by symbolic execution; survivors are normalized into combo
//! keys and merged into the rule store. The per-stage counters reproduce
//! the funnel of Table I.

use crate::key::{self, ComboKey};
use crate::ruleset::{verify_at, verify_seq, Imms, KeyBuild, Provenance, RuleEntry, RuleSet};
use crate::template::{self, Template};
use pdbt_compiler::{CompiledPair, DebugEntry};
use pdbt_isa::Flag;
use pdbt_isa_arm::{Inst as GInst, Op as GOp};
use pdbt_isa_x86::Inst as HInst;
use pdbt_symexec::{check, propose_mappings, CheckOptions, FlagEquiv};
use std::collections::HashMap;

/// Why a candidate was rejected (reported per benchmark; the categories
/// map to the paper's §II-B discussion and §V-B2 unlearnables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reject {
    /// Contains one of the instructions the paper found unlearnable
    /// (`push`, `pop`, `bl`, `b`, `mla`, `umull`, `umlal`, `clz`) or
    /// another non-parameterizable shape.
    Unlearnable,
    /// Multi-instruction sequences longer than the supported maximum
    /// (sequence rules are learned up to [`MAX_SEQ`] instructions and
    /// matched as-is; per §V-D they are never parameterized).
    Sequence,
    /// No register mapping between the sides could be inferred.
    NoMapping,
    /// Symbolic verification failed (non-equivalent or unproven).
    Verification,
    /// The host side is not templatable (frame slots, control flow).
    Template,
    /// A duplicate of an already-learned rule (the merging step).
    Duplicate,
}

/// Per-benchmark funnel counters (one row of Table I).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FunnelStats {
    /// Source statements in the program.
    pub statements: usize,
    /// Rule candidates surviving the debug map.
    pub candidates: usize,
    /// Candidates passing verification (pre-merge).
    pub learned: usize,
    /// New unique rules after merging.
    pub unique: usize,
    /// Rejection counts by reason.
    pub rejects: HashMap<Reject, usize>,
}

impl FunnelStats {
    fn reject(&mut self, r: Reject) {
        *self.rejects.entry(r).or_insert(0) += 1;
    }
}

/// Learning configuration.
#[derive(Debug, Clone, Copy)]
pub struct LearnConfig {
    /// Verifier options.
    pub check: CheckOptions,
    /// Mapping proposals to try per candidate.
    pub max_mappings: usize,
}

impl Default for LearnConfig {
    fn default() -> LearnConfig {
        LearnConfig {
            check: CheckOptions::default(),
            max_mappings: 16,
        }
    }
}

/// Longest learnable instruction sequence.
pub const MAX_SEQ: usize = 3;

/// The paper's seven unlearnable opcodes (§V-B2) plus `umull`, which
/// shares `umlal`'s no-single-host-counterpart property in this model.
#[must_use]
pub fn is_unlearnable(op: GOp) -> bool {
    matches!(
        op,
        GOp::Push
            | GOp::Pop
            | GOp::Bl
            | GOp::B
            | GOp::Bx
            | GOp::Mla
            | GOp::Umlal
            | GOp::Umull
            | GOp::Clz
            | GOp::Svc
    )
}

/// The canonical re-checks one [`learn_into`] call has made, keyed by
/// what they verified: the keys, the template and, for a rule pinned to
/// its learned immediates, those. The value is the flag report, `None`
/// for a rejection. A re-check is a function of its key under the call's
/// one [`CheckOptions`], so a candidate that re-learns a verified pair
/// reads its verdict here.
type Verified =
    HashMap<(Vec<ComboKey>, Template, Option<Imms>), Option<Vec<(Flag, FlagEquiv)>>, KeyBuild>;

/// Tries to learn one candidate pair: a rule whose key has one
/// [`ComboKey`] per guest instruction (paper §V-D: the multi-instruction
/// ones are learned but never parameterized).
fn learn_candidate(
    guest: &[GInst],
    host: &[HInst],
    cfg: LearnConfig,
    verified: &mut Verified,
) -> Result<(Vec<ComboKey>, RuleEntry), Reject> {
    // Line tables attribute a conditional statement's compare and its
    // branch to the same line; the compare is learnable even though the
    // branch is not (paper §V-B2: "an individual b instruction cannot be
    // learned"). Strip trailing control flow from both sides before
    // extraction.
    let mut guest = guest;
    while let Some(last) = guest.last() {
        if matches!(last.op, GOp::B | GOp::Bl | GOp::Bx) {
            guest = &guest[..guest.len() - 1];
        } else {
            break;
        }
    }
    let mut host = host;
    while let Some(last) = host.last() {
        if matches!(
            last.op,
            pdbt_isa_x86::Op::Jmp | pdbt_isa_x86::Op::Jcc | pdbt_isa_x86::Op::Call
        ) {
            host = &host[..host.len() - 1];
        } else {
            break;
        }
    }
    if guest.is_empty() || host.is_empty() {
        return Err(Reject::Template);
    }
    if guest.iter().any(|i| is_unlearnable(i.op)) {
        return Err(Reject::Unlearnable);
    }
    if guest.len() > MAX_SEQ {
        return Err(Reject::Sequence);
    }
    let Some((keys, concrete)) = key::parameterize_seq(guest) else {
        return Err(Reject::Unlearnable);
    };
    // Infer the register mapping and verify the concrete pair.
    let mappings = propose_mappings(guest, host, cfg.max_mappings);
    if mappings.is_empty() {
        return Err(Reject::NoMapping);
    }
    let Some(mapping) = mappings
        .iter()
        .find(|m| check(guest, host, m, cfg.check).is_equivalent())
    else {
        return Err(Reject::Verification);
    };
    // Align the mapping with the parameterization's slot order.
    let slot_of = |h: pdbt_isa_x86::Reg| -> Option<u8> {
        let g = mapping.pairs.iter().find(|(_, hh)| *hh == h)?.0;
        concrete.slots.iter().position(|s| *s == g).map(|i| i as u8)
    };
    // Every slot must be reachable through the mapping.
    for s in &concrete.slots {
        if !mapping.pairs.iter().any(|(g, _)| g == s) {
            return Err(Reject::NoMapping);
        }
    }
    let tmpl = template::extract(host, &slot_of, &concrete.imms).map_err(|_| Reject::Template)?;
    // Canonical re-verification also validates immediate generalization;
    // when it fails, re-verify canonically at the learned immediates
    // only and keep the rule pinned to them (a constrained rule, §IV-C).
    let canonical = verified
        .entry((keys.clone(), tmpl.clone(), None))
        .or_insert_with(|| verify_seq(&keys, &tmpl, cfg.check).ok())
        .clone();
    let (flags, imm_constraint) = match canonical {
        Some(flags) => (flags, None),
        None if !concrete.imms.is_empty() => (
            verified
                .entry((keys.clone(), tmpl.clone(), Some(concrete.imms)))
                .or_insert_with(|| verify_at(&keys, &tmpl, [concrete.imms], cfg.check).ok())
                .clone()
                .ok_or(Reject::Verification)?,
            Some(concrete.imms.to_vec()),
        ),
        None => return Err(Reject::Verification),
    };
    Ok((
        keys,
        RuleEntry {
            template: tmpl,
            flags,
            provenance: Provenance::Learned,
            imm_constraint,
        },
    ))
}

/// Runs the learning pipeline over one compiled benchmark, adding new
/// rules to `rules`.
pub fn learn_into(
    rules: &mut RuleSet,
    pair: &CompiledPair,
    debug: &[DebugEntry],
    cfg: LearnConfig,
) -> FunnelStats {
    let _span = pdbt_obs::span("learn");
    let mut stats = FunnelStats {
        statements: pair.guest.spans.len(),
        candidates: debug.len(),
        ..FunnelStats::default()
    };
    let mut verified = Verified::default();
    for entry in debug {
        // Skewed line tables can point past the section ends; such
        // entries are unusable candidates (§II-B's "lose the
        // connection").
        if entry.guest.end > pair.guest.program.len() || entry.host.end > pair.host.insts.len() {
            stats.reject(Reject::Template);
            continue;
        }
        let guest = &pair.guest.program.insts()[entry.guest.clone()];
        let host = &pair.host.insts[entry.host.clone()];
        match learn_candidate(guest, host, cfg, &mut verified) {
            Ok((keys, rule)) => {
                stats.learned += 1;
                if rules.insert(keys, rule) {
                    stats.unique += 1;
                } else {
                    stats.reject(Reject::Duplicate);
                }
            }
            Err(r) => stats.reject(r),
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdbt_compiler::lang::*;
    use pdbt_compiler::{build_debug_map, compile_pair};

    fn compile(stmts: Vec<Stmt>, n_vars: u8) -> (CompiledPair, Vec<DebugEntry>) {
        let src = SourceProgram {
            functions: vec![Function {
                name: "main".into(),
                stmts,
                n_vars,
            }],
        };
        let pair = compile_pair(&src, 0x1000).unwrap();
        let debug = build_debug_map(&pair.guest, &pair.host);
        (pair, debug)
    }

    #[test]
    fn learns_simple_arithmetic_rules() {
        let (pair, debug) = compile(
            vec![
                Stmt::Un {
                    dst: Var(0),
                    op: UnOp::Mov,
                    a: Rvalue::Const(5),
                },
                Stmt::Bin {
                    dst: Var(0),
                    op: BinOp::Add,
                    a: Rvalue::Var(Var(0)),
                    b: Rvalue::Const(3),
                },
                Stmt::Bin {
                    dst: Var(2),
                    op: BinOp::Xor,
                    a: Rvalue::Var(Var(0)),
                    b: Rvalue::Var(Var(1)),
                },
                Stmt::Return,
            ],
            3,
        );
        let mut rules = RuleSet::new();
        let stats = learn_into(&mut rules, &pair, &debug, LearnConfig::default());
        assert_eq!(stats.statements, 4);
        assert!(stats.unique >= 3, "{stats:?}");
        // The learned rules apply to fresh register/immediate choices.
        use pdbt_isa_arm::builders as g;
        use pdbt_isa_arm::{Operand as O, Reg};
        assert!(rules.lookup(&g::mov(Reg::R9, O::Imm(1000))).is_some());
        assert!(rules
            .lookup(&g::add(Reg::R11, Reg::R11, O::Imm(9)))
            .is_some());
    }

    #[test]
    fn unlearnable_instructions_are_rejected() {
        let (pair, debug) = compile(
            vec![
                Stmt::MulAdd {
                    dst: Var(0),
                    a: Var(1),
                    b: Var(2),
                    c: Var(0),
                },
                Stmt::Un {
                    dst: Var(1),
                    op: UnOp::Clz,
                    a: Rvalue::Var(Var(2)),
                },
                Stmt::Goto { target: Label(0) },
                Stmt::Define { label: Label(0) },
                Stmt::Return,
            ],
            3,
        );
        let mut rules = RuleSet::new();
        let stats = learn_into(&mut rules, &pair, &debug, LearnConfig::default());
        assert_eq!(stats.unique, 0, "{stats:?}");
        assert!(
            stats
                .rejects
                .get(&Reject::Unlearnable)
                .copied()
                .unwrap_or(0)
                >= 2
        );
    }

    #[test]
    fn frame_slot_candidates_fail_templating() {
        // v5 lives in a host frame slot → operand-type mismatch (§II-B).
        let (pair, debug) = compile(
            vec![
                Stmt::Bin {
                    dst: Var(5),
                    op: BinOp::Add,
                    a: Rvalue::Var(Var(5)),
                    b: Rvalue::Const(1),
                },
                Stmt::Return,
            ],
            6,
        );
        let mut rules = RuleSet::new();
        let stats = learn_into(&mut rules, &pair, &debug, LearnConfig::default());
        assert_eq!(stats.unique, 0);
        let losses = stats.rejects.get(&Reject::NoMapping).copied().unwrap_or(0)
            + stats.rejects.get(&Reject::Template).copied().unwrap_or(0)
            + stats
                .rejects
                .get(&Reject::Verification)
                .copied()
                .unwrap_or(0);
        assert!(losses >= 1, "{stats:?}");
    }

    #[test]
    fn duplicates_are_merged() {
        let (pair, debug) = compile(
            vec![
                Stmt::Bin {
                    dst: Var(0),
                    op: BinOp::Add,
                    a: Rvalue::Var(Var(0)),
                    b: Rvalue::Const(1),
                },
                Stmt::Bin {
                    dst: Var(0),
                    op: BinOp::Add,
                    a: Rvalue::Var(Var(0)),
                    b: Rvalue::Const(2),
                },
                Stmt::Bin {
                    dst: Var(1),
                    op: BinOp::Add,
                    a: Rvalue::Var(Var(1)),
                    b: Rvalue::Const(3),
                },
                Stmt::Return,
            ],
            2,
        );
        let mut rules = RuleSet::new();
        let stats = learn_into(&mut rules, &pair, &debug, LearnConfig::default());
        assert_eq!(stats.learned, 3);
        assert_eq!(stats.unique, 1, "same combo key for all three");
        assert_eq!(stats.rejects.get(&Reject::Duplicate), Some(&2));
    }

    #[test]
    fn learned_rules_include_aux_move_shapes() {
        // v2 = v0 - v1 needs the three-address aux move on the host.
        let (pair, debug) = compile(
            vec![
                Stmt::Bin {
                    dst: Var(2),
                    op: BinOp::Sub,
                    a: Rvalue::Var(Var(0)),
                    b: Rvalue::Var(Var(1)),
                },
                Stmt::Return,
            ],
            3,
        );
        let mut rules = RuleSet::new();
        let stats = learn_into(&mut rules, &pair, &debug, LearnConfig::default());
        assert_eq!(stats.unique, 1, "{stats:?}");
        use pdbt_isa_arm::builders as g;
        use pdbt_isa_arm::{Operand as O, Reg};
        let m = rules
            .lookup(&g::sub(Reg::R6, Reg::R4, O::Reg(Reg::R5)))
            .unwrap();
        assert!(m.entry.template.len() >= 2, "aux move preserved");
    }

    #[test]
    fn flag_setting_rules_record_flag_reports() {
        // A fused subs (from sub + branch) carries NZCV with C inverted.
        let (pair, debug) = compile(
            vec![
                Stmt::Bin {
                    dst: Var(0),
                    op: BinOp::Sub,
                    a: Rvalue::Var(Var(0)),
                    b: Rvalue::Const(1),
                },
                Stmt::Branch {
                    a: Var(0),
                    cmp: CmpKind::Ne,
                    b: Rvalue::Const(0),
                    target: Label(0),
                },
                Stmt::Define { label: Label(0) },
                Stmt::Return,
            ],
            1,
        );
        let mut rules = RuleSet::new();
        learn_into(&mut rules, &pair, &debug, LearnConfig::default());
        use pdbt_isa::Flag;
        use pdbt_isa_arm::builders as g;
        use pdbt_isa_arm::{Operand as O, Reg};
        use pdbt_symexec::FlagEquiv;
        let m = rules
            .lookup(&g::sub(Reg::R4, Reg::R4, O::Imm(1)).with_s())
            .unwrap();
        assert_eq!(m.entry.flag_equiv(Flag::Z), Some(FlagEquiv::Exact));
        assert_eq!(m.entry.flag_equiv(Flag::C), Some(FlagEquiv::Inverted));
    }

    /// A host side that bakes in an immediate derived from the guest's
    /// (`x - 5` as `x + -5`) does not generalize over immediates; the
    /// rule is kept pinned to the learned ones, verified canonically at
    /// them, and carries the verifier's flag report like any other rule.
    #[test]
    fn pinned_sequence_rules_are_verified_and_keep_their_flag_report() {
        use pdbt_isa_arm::builders as g;
        use pdbt_isa_arm::{Operand as O, Reg};
        use pdbt_isa_x86::builders as h;
        use pdbt_isa_x86::{Operand as HO, Reg as HReg};
        let guest = [
            g::sub(Reg::R6, Reg::R6, O::Imm(5)),
            g::add(Reg::R7, Reg::R7, O::Reg(Reg::R6)).with_s(),
        ];
        let host = [
            h::add(HReg::Esi.into(), HO::Imm(-5)),
            h::add(HReg::Edi.into(), HReg::Esi.into()),
        ];
        let (keys, rule) = learn_candidate(
            &guest,
            &host,
            LearnConfig::default(),
            &mut Verified::default(),
        )
        .expect("learned");
        assert_eq!(keys.len(), 2);
        assert_eq!(rule.imm_constraint, Some(vec![5]));
        assert_eq!(
            rule.flag_equiv(pdbt_isa::Flag::Z),
            Some(pdbt_symexec::FlagEquiv::Exact),
            "the report of the flag-setting last instruction is kept: {:?}",
            rule.flags
        );
    }

    /// A candidate that verifies under its own register mapping but not
    /// canonically — here it binds more registers than the canonical
    /// pool has — is rejected even when it has immediates to pin.
    #[test]
    fn pinned_candidates_failing_the_canonical_recheck_are_rejected() {
        use pdbt_isa_arm::builders as g;
        use pdbt_isa_arm::{Operand as O, Reg};
        use pdbt_isa_x86::builders as h;
        use pdbt_isa_x86::{Operand as HO, Reg as HReg};
        let guest = [
            g::add(Reg::R4, Reg::R4, O::Reg(Reg::R5)),
            g::add(Reg::R6, Reg::R6, O::Reg(Reg::R7)),
            g::add(Reg::R8, Reg::R8, O::Imm(3)),
        ];
        let host = [
            h::add(HReg::Ecx.into(), HReg::Ebx.into()),
            h::add(HReg::Esi.into(), HReg::Edi.into()),
            h::add(HReg::Eax.into(), HO::Imm(3)),
        ];
        let mappings = propose_mappings(&guest, &host, 16);
        assert!(
            mappings
                .iter()
                .any(|m| check(&guest, &host, m, CheckOptions::default()).is_equivalent()),
            "the concrete pair verifies under a proposed mapping"
        );
        assert_eq!(
            learn_candidate(
                &guest,
                &host,
                LearnConfig::default(),
                &mut Verified::default()
            )
            .map(|(keys, _)| keys),
            Err(Reject::Verification)
        );
    }

    /// Learns each tiny-suite workload's debug map, and the same map with
    /// every entry listed twice, into fresh sets. The second pass
    /// re-learns every candidate of the first under the same mapping
    /// search, so its canonical re-checks are all replays: it must reject
    /// what the first pass rejected, learn what it learned, and add
    /// nothing.
    #[test]
    fn doubled_debug_maps_learn_the_single_maps_rules() {
        use crate::store_io::save_rules;
        use pdbt_workloads::{suite, Scale};
        for w in &suite(Scale::tiny()) {
            let doubled: Vec<DebugEntry> = w.debug.iter().chain(&w.debug).cloned().collect();
            let (mut once, mut twice) = (RuleSet::new(), RuleSet::new());
            let single = learn_into(&mut once, &w.pair, &w.debug, LearnConfig::default());
            let double = learn_into(&mut twice, &w.pair, &doubled, LearnConfig::default());
            let bench = w.bench;
            assert!(single.unique > 0, "{bench:?}: {single:?}");
            assert_eq!(save_rules(&once), save_rules(&twice), "{bench:?}");
            assert_eq!(double.statements, single.statements, "{bench:?}");
            assert_eq!(double.candidates, 2 * single.candidates, "{bench:?}");
            assert_eq!(double.learned, 2 * single.learned, "{bench:?}");
            assert_eq!(double.unique, single.unique, "{bench:?}");
            let count = |s: &FunnelStats, r| s.rejects.get(&r).copied().unwrap_or(0);
            for r in [
                Reject::Unlearnable,
                Reject::Sequence,
                Reject::NoMapping,
                Reject::Verification,
                Reject::Template,
            ] {
                assert_eq!(count(&double, r), 2 * count(&single, r), "{bench:?} {r:?}");
            }
            assert_eq!(
                count(&double, Reject::Duplicate),
                count(&single, Reject::Duplicate) + single.learned,
                "{bench:?}"
            );
        }
    }

    /// Learns every in-range candidate of each tiny-suite debug map twice:
    /// once with a fresh [`Verified`] map, so every re-check runs, and once
    /// through one map shared by the workload's candidates, as
    /// [`learn_into`] does. The results must be equal, and the shared map
    /// must have answered some candidate without a new check. A last group
    /// learns one key with two templates, one that generalizes over the
    /// immediate and one pinned to it. Returns the symexec faults injected.
    fn assert_shared_verdicts_match_fresh_checks() -> u64 {
        use pdbt_faults::Site;
        use pdbt_isa_arm::builders as g;
        use pdbt_isa_arm::{Operand as O, Reg};
        use pdbt_isa_x86::builders as h;
        use pdbt_isa_x86::{Operand as HO, Reg as HReg};
        use pdbt_workloads::{suite, Scale};
        let mut groups: Vec<Vec<(Vec<GInst>, Vec<HInst>)>> = suite(Scale::tiny())
            .iter()
            .map(|w| {
                let (guest, host) = (w.pair.guest.program.insts(), &w.pair.host.insts);
                let in_range =
                    |e: &DebugEntry| Some((guest.get(e.guest.clone())?, host.get(e.host.clone())?));
                let pairs = w.debug.iter().filter_map(in_range);
                pairs.map(|(g, h)| (g.to_vec(), h.to_vec())).collect()
            })
            .collect();
        let guest = vec![g::sub(Reg::R6, Reg::R6, O::Imm(5))];
        let pinned = (guest.clone(), vec![h::add(HReg::Esi.into(), HO::Imm(-5))]);
        let general = (guest, vec![h::sub(HReg::Esi.into(), HO::Imm(5))]);
        groups.push(vec![pinned.clone(), general, pinned]);
        let injected = || pdbt_faults::scoped_injected()[Site::Symexec.index()];
        let (before, mut replays) = (injected(), 0);
        for group in &groups {
            let mut shared = Verified::default();
            for (g, h) in group {
                let cfg = LearnConfig::default();
                let fresh = learn_candidate(g, h, cfg, &mut Verified::default());
                let checks = shared.len();
                let replayed = learn_candidate(g, h, cfg, &mut shared);
                assert_eq!(replayed, fresh, "{g:?} -> {h:?}");
                if shared.len() == checks && matches!(fresh, Ok(_) | Err(Reject::Verification)) {
                    replays += 1;
                }
            }
        }
        assert!(replays > 0, "no candidate read a recorded verdict");
        injected() - before
    }

    #[test]
    fn shared_verdicts_match_fresh_checks() {
        assert_shared_verdicts_match_fresh_checks();
    }

    /// Under a `symexec` fault plan a re-check may be injected to fail;
    /// a replayed verdict must be the one a fresh check injects.
    #[test]
    fn shared_verdicts_replay_injected_faults() {
        use pdbt_faults::{Plan, Site};
        let _plan = pdbt_faults::scoped(Some(Plan::single(Site::Symexec, 0xFA_37, 0.2)));
        assert!(
            assert_shared_verdicts_match_fresh_checks() > 0,
            "the plan never fired"
        );
    }

    #[test]
    fn cmp_rules_learn_from_unfused_branches() {
        let (pair, debug) = compile(
            vec![
                Stmt::Branch {
                    a: Var(0),
                    cmp: CmpKind::LtS,
                    b: Rvalue::Const(10),
                    target: Label(0),
                },
                Stmt::Define { label: Label(0) },
                Stmt::Return,
            ],
            1,
        );
        // The branch statement's span contains cmp + b; trailing control
        // flow is stripped (the paper's `b` stays unlearnable, §V-B2),
        // leaving a learnable cmp rule.
        let mut rules = RuleSet::new();
        let stats = learn_into(&mut rules, &pair, &debug, LearnConfig::default());
        assert_eq!(stats.unique, 1, "{stats:?}");
        use pdbt_isa_arm::builders as g;
        use pdbt_isa_arm::{Operand as O, Reg};
        assert!(rules.lookup(&g::cmp(Reg::R8, O::Imm(55))).is_some());
    }
}
