//! Condition-flag delegation (paper §IV-B, §IV-D, Fig 10).
//!
//! When a rule-translated guest instruction sets flags that a nearby
//! conditional branch consumes, the translator checks whether the host
//! instruction's own flags can stand in for the guest's — directly or
//! through an inverted condition (the subtraction-carry polarity). If
//! so, the branch uses the live host flags and no memory emulation is
//! needed; otherwise the flags are materialized into the guest
//! environment.

pub use pdbt_isa::cond_flag_uses;
use pdbt_isa::{Cond, Flag, FlagSet};
use pdbt_isa_x86::{CarrySense, Cc};
use pdbt_symexec::FlagEquiv;

/// Default look-ahead window: "we only check three instructions
/// following a condition flag-setting instruction" (§IV-D).
pub const DELEGATION_WINDOW: usize = 3;

/// Decides whether a guest condition consumed after a rule-translated
/// flag producer can branch directly on the live host flags, and if so
/// on which host condition code.
///
/// `report` is the producer rule's per-flag relationship. Returns `None`
/// when any consumed flag has no usable host counterpart (the branch
/// must then read materialized flags from the environment).
#[must_use]
pub fn delegated_cc(cond: Cond, report: &[(Flag, FlagEquiv)]) -> Option<Cc> {
    let used = cond_flag_uses(cond);
    if used.is_empty() {
        return None;
    }
    let equiv_of = |f: Flag| report.iter().find(|(ff, _)| *ff == f).map(|(_, e)| *e);
    // N, Z, V must match exactly; C may be exact or inverted, which
    // selects the carry sense of the condition mapping.
    let mut sense = CarrySense::AddLike;
    for f in used.iter() {
        match (f, equiv_of(f)) {
            (Flag::C, Some(FlagEquiv::Exact)) => sense = CarrySense::AddLike,
            (Flag::C, Some(FlagEquiv::Inverted)) => sense = CarrySense::SubLike,
            (_, Some(FlagEquiv::Exact)) => {}
            _ => return None,
        }
    }
    Cc::from_guest(cond, sense)
}

/// Whether a rule's flag report allows *materializing* a set of flags
/// into the environment from the live host flags (every flag must be
/// exact or inverted — a mismatched flag cannot be recovered).
#[must_use]
pub fn can_materialize(flags: FlagSet, report: &[(Flag, FlagEquiv)]) -> bool {
    flags.iter().all(|f| {
        report
            .iter()
            .any(|(ff, e)| *ff == f && matches!(e, FlagEquiv::Exact | FlagEquiv::Inverted))
    })
}

/// The host `setcc` condition that reads flag `f` from the live host
/// flags, honouring an inverted relationship.
#[must_use]
pub fn setcc_for_flag(f: Flag, equiv: FlagEquiv) -> Option<Cc> {
    let direct = match f {
        Flag::N => Cc::S,
        Flag::Z => Cc::E,
        Flag::C => Cc::B,
        Flag::V => Cc::O,
    };
    match equiv {
        FlagEquiv::Exact => Some(direct),
        FlagEquiv::Inverted => Some(direct.invert()),
        FlagEquiv::Mismatch => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_nzcv() -> Vec<(Flag, FlagEquiv)> {
        Flag::ALL
            .into_iter()
            .map(|f| (f, FlagEquiv::Exact))
            .collect()
    }

    fn cmp_report() -> Vec<(Flag, FlagEquiv)> {
        // cmp ↔ cmpl: C inverted, others exact.
        vec![
            (Flag::N, FlagEquiv::Exact),
            (Flag::Z, FlagEquiv::Exact),
            (Flag::C, FlagEquiv::Inverted),
            (Flag::V, FlagEquiv::Exact),
        ]
    }

    #[test]
    fn delegation_after_exact_flags() {
        // adds ↔ addl: all flags exact → every condition delegates with
        // add-like carry sense.
        assert_eq!(delegated_cc(Cond::Eq, &exact_nzcv()), Some(Cc::E));
        assert_eq!(delegated_cc(Cond::Lt, &exact_nzcv()), Some(Cc::L));
        assert_eq!(delegated_cc(Cond::Cs, &exact_nzcv()), Some(Cc::B));
    }

    #[test]
    fn delegation_after_compare_inverts_carry_conditions() {
        // Paper Fig 10's scenario: cmp/subs feeding a branch. Guest Cs
        // (no borrow) maps to host AE (CF clear).
        assert_eq!(delegated_cc(Cond::Cs, &cmp_report()), Some(Cc::Ae));
        assert_eq!(delegated_cc(Cond::Cc, &cmp_report()), Some(Cc::B));
        assert_eq!(delegated_cc(Cond::Hi, &cmp_report()), Some(Cc::A));
        assert_eq!(delegated_cc(Cond::Eq, &cmp_report()), Some(Cc::E));
        assert_eq!(delegated_cc(Cond::Ge, &cmp_report()), Some(Cc::Ge));
    }

    #[test]
    fn delegation_fails_on_missing_or_mismatched_flags() {
        // NZ-only report (logical ops): Z-conditions delegate, V-reading
        // conditions do not.
        let nz = vec![(Flag::N, FlagEquiv::Exact), (Flag::Z, FlagEquiv::Exact)];
        assert_eq!(delegated_cc(Cond::Ne, &nz), Some(Cc::Ne));
        assert_eq!(delegated_cc(Cond::Ge, &nz), None);
        assert_eq!(delegated_cc(Cond::Cs, &nz), None);
        let mismatch = vec![(Flag::Z, FlagEquiv::Mismatch)];
        assert_eq!(delegated_cc(Cond::Eq, &mismatch), None);
    }

    #[test]
    fn materialization_requirements() {
        assert!(can_materialize(FlagSet::NZ, &cmp_report()));
        assert!(can_materialize(FlagSet::NZCV, &cmp_report()));
        assert!(!can_materialize(
            FlagSet::NZ,
            &[(Flag::N, FlagEquiv::Exact)]
        ));
        assert!(!can_materialize(
            FlagSet::single(Flag::Z),
            &[(Flag::Z, FlagEquiv::Mismatch)]
        ));
    }

    #[test]
    fn setcc_mapping() {
        assert_eq!(setcc_for_flag(Flag::Z, FlagEquiv::Exact), Some(Cc::E));
        assert_eq!(setcc_for_flag(Flag::C, FlagEquiv::Inverted), Some(Cc::Ae));
        assert_eq!(setcc_for_flag(Flag::N, FlagEquiv::Exact), Some(Cc::S));
        assert_eq!(setcc_for_flag(Flag::V, FlagEquiv::Mismatch), None);
    }
}
