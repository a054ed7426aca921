//! Instruction-subgroup classification (paper §IV-A).
//!
//! Instructions are classified first by data type, then by encoding
//! format and operation category. All instructions in a subgroup share
//! one pseudo opcode and parameterize against each other; each guest
//! opcode reaches host code through its *host counterpart* — a host
//! opcode plus the operand transform that turns a complex opcode into
//! its simple partner (§IV-C1) — which is not tabled but proved: the
//! cheapest candidate the verifier accepts.

use crate::derive::canonical_key;
use crate::emit::emit_with;
use crate::ruleset::verify_combo;
use crate::template::Template;
use pdbt_isa::{DataType, EncodingFormat, OpCategory};
use pdbt_isa_arm::{Op as GOp, OperandTransform, Shape};
use pdbt_isa_x86::Op as HOp;
use pdbt_symexec::{CheckOptions, FlagEquiv};
use std::fmt;
use std::sync::OnceLock;

/// A classification subgroup: (data type, encoding format, operation
/// category, operand shape). The shape component enforces the "same
/// encoding format" guideline at operand-count granularity (`mul` and
/// `mla` share the multiply format but not a shape, so they do not
/// parameterize into each other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Subgroup {
    /// Data type (axis 1).
    pub data_type: DataType,
    /// Encoding format (axis 2, guideline 1).
    pub format: EncodingFormat,
    /// Operation category (axis 2, guideline 2).
    pub category: OpCategory,
    /// Operand-shape discriminant.
    shape_tag: u8,
}

impl fmt::Display for Subgroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.data_type, self.format, self.category)
    }
}

fn shape_tag(s: Shape) -> u8 {
    // Any stable injection works; derive an index from a match to stay
    // robust against enum reordering.
    match s {
        Shape::Dp3 => 0,
        Shape::Dp2 => 1,
        Shape::Unary2 => 2,
        Shape::Mul3 => 3,
        Shape::Mul4 => 4,
        Shape::Cmp2 => 5,
        Shape::LdSt => 6,
        Shape::Stack => 7,
        Shape::Branch => 8,
        Shape::BranchReg => 9,
        Shape::Sys => 10,
        Shape::Vfp3 => 11,
        Shape::Vfp2 => 12,
        Shape::VfpLdSt => 13,
    }
}

/// The subgroup of a guest opcode.
#[must_use]
pub fn subgroup_of(op: GOp) -> Subgroup {
    Subgroup {
        data_type: op.data_type(),
        format: op.format(),
        category: op.category(),
        shape_tag: shape_tag(op.shape()),
    }
}

/// A dense pseudo-opcode id for a subgroup (`guestpara_op_i` in the
/// paper's notation).
#[must_use]
pub fn pseudo_op(sg: Subgroup) -> usize {
    all_subgroups()
        .iter()
        .position(|s| *s == sg)
        .unwrap_or(usize::MAX)
}

/// Every subgroup, in a stable order.
#[must_use]
pub fn all_subgroups() -> Vec<Subgroup> {
    let mut out: Vec<Subgroup> = Vec::new();
    for op in GOp::ALL {
        let sg = subgroup_of(op);
        if !out.contains(&sg) {
            out.push(sg);
        }
    }
    out
}

/// All guest opcodes belonging to a subgroup.
#[must_use]
pub fn members(sg: Subgroup) -> Vec<GOp> {
    GOp::ALL
        .into_iter()
        .filter(|op| subgroup_of(*op) == sg)
        .collect()
}

/// Whether the subgroup participates in parameterization at all: some
/// member has a host counterpart. Branches, stack and system ops, `clz`,
/// the four-operand multiplies and floating point have none.
#[must_use]
pub fn is_parameterizable(sg: Subgroup) -> bool {
    members(sg)
        .into_iter()
        .any(|op| host_counterpart(op).is_some())
}

/// How a guest opcode reaches host code: its host opcode, plus the
/// operand transform (if the guest opcode is the *complex* member of a
/// pair, §IV-C1) that auxiliary host instructions implement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCounterpart {
    /// The core host opcode.
    pub hop: HOp,
    /// Transform applied to the last source operand before the core op.
    pub transform: Option<OperandTransform>,
}

/// The host counterpart of a guest opcode, when one is proved: the
/// table [`search_counterparts`] derives, computed once per process.
#[must_use]
pub fn host_counterpart(op: GOp) -> Option<HostCounterpart> {
    static TABLE: OnceLock<Vec<Option<HostCounterpart>>> = OnceLock::new();
    TABLE.get_or_init(search_counterparts)[usize::from(op.index())]
}

/// The search behind [`host_counterpart`], uncached, indexed by
/// [`GOp::index`]. For each guest opcode it emits every (host opcode,
/// transform) candidate at the opcode's canonical key, orders them by
/// template length, then host opcode, then transform, and keeps the
/// first that verifies with no mismatched flag — the length-1 case of
/// cost-ordered rewrite-rule synthesis. It runs shielded from any armed
/// fault plan, which could otherwise drop a counterpart for good.
#[must_use]
pub fn search_counterparts() -> Vec<Option<HostCounterpart>> {
    let _shield = pdbt_faults::scoped(None);
    GOp::ALL.into_iter().map(search).collect()
}

fn search(op: GOp) -> Option<HostCounterpart> {
    use OperandTransform as T;
    let key = canonical_key(op)?;
    let transforms = [
        None,
        Some(T::InvertLastSource),
        Some(T::NegateLastSource),
        Some(T::SwapSources),
    ];
    let mut candidates: Vec<(Template, HostCounterpart)> = HOp::ALL
        .into_iter()
        .flat_map(|hop| transforms.map(|transform| HostCounterpart { hop, transform }))
        .filter_map(|c| Some((emit_with(&key, c)?, c)))
        .collect();
    // Stable: equal lengths keep the host-opcode, then transform order.
    candidates.sort_by_key(|(t, _)| t.len());
    candidates
        .into_iter()
        .find(|(t, _)| {
            verify_combo(&key, t, CheckOptions::default())
                .is_ok_and(|flags| flags.iter().all(|(_, e)| *e != FlagEquiv::Mismatch))
        })
        .map(|(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_subgroups_emerge() {
        // The paper's five integer ARM subsets (§IV-A) appear among ours
        // (we additionally split by shape and keep misc/branch groups
        // non-parameterizable).
        let arith = subgroup_of(GOp::Add);
        assert_eq!(members(arith).len(), 14, "{:?}", members(arith));
        assert!(members(arith).contains(&GOp::Eor));
        assert!(members(arith).contains(&GOp::Bic));
        assert!(!members(arith).contains(&GOp::Mul), "different format");
        assert!(!members(arith).contains(&GOp::Cmp), "different category");

        let movlike = subgroup_of(GOp::Mov);
        assert_eq!(members(movlike), vec![GOp::Mov, GOp::Mvn]);

        let loads = subgroup_of(GOp::Ldr);
        assert_eq!(members(loads), vec![GOp::Ldr, GOp::Ldrb, GOp::Ldrh]);

        let stores = subgroup_of(GOp::Str);
        assert_eq!(members(stores), vec![GOp::Str, GOp::Strb, GOp::Strh]);

        let cmps = subgroup_of(GOp::Cmp);
        assert_eq!(members(cmps), vec![GOp::Cmp, GOp::Cmn, GOp::Tst, GOp::Teq]);
    }

    #[test]
    fn parameterizable_subgroups() {
        assert!(is_parameterizable(subgroup_of(GOp::Add)));
        assert!(is_parameterizable(subgroup_of(GOp::Mov)));
        assert!(is_parameterizable(subgroup_of(GOp::Ldr)));
        assert!(is_parameterizable(subgroup_of(GOp::Str)));
        assert!(is_parameterizable(subgroup_of(GOp::Cmp)));
        assert!(
            is_parameterizable(subgroup_of(GOp::Mul)),
            "mul alone in its shape"
        );
        // The Other category and the unlearnable shapes are not.
        assert!(!is_parameterizable(subgroup_of(GOp::B)));
        assert!(!is_parameterizable(subgroup_of(GOp::Push)));
        assert!(!is_parameterizable(subgroup_of(GOp::Mla)));
        assert!(!is_parameterizable(subgroup_of(GOp::Umull)));
        assert!(!is_parameterizable(subgroup_of(GOp::Clz)));
        assert!(!is_parameterizable(subgroup_of(GOp::Vadd)));
    }

    #[test]
    fn data_types_never_mix() {
        assert_ne!(subgroup_of(GOp::Add), subgroup_of(GOp::Vadd));
        assert_ne!(subgroup_of(GOp::Ldr), subgroup_of(GOp::Vldr));
    }

    #[test]
    fn pseudo_ops_are_dense_and_stable() {
        let all = all_subgroups();
        for (i, sg) in all.iter().enumerate() {
            assert_eq!(pseudo_op(*sg), i);
        }
        // Every opcode maps into some subgroup.
        for op in GOp::ALL {
            assert!(pseudo_op(subgroup_of(op)) < all.len());
        }
    }
}
