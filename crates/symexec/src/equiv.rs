//! The semantic-equivalence checker for rule candidates and derived
//! (parameterized) rules.
//!
//! Fast path: both sequences are evaluated symbolically and normalized;
//! structural equality of every mapped output decides equivalence.
//! Backstop: randomized differential evaluation refutes non-equivalent
//! pairs and classifies flag relationships. Structurally different but
//! differentially indistinguishable *data* results are rejected
//! (`Unproven`), keeping the checker sound for the runtime — the same
//! strictness the paper reports losing candidates to (§II-B).

use crate::eval::{eval, eval_mem_writes, Assignment};
use crate::machine::{guest, host, SymExecError};
use crate::simplify::{simplify, simplify_mem};
use crate::term::{BinOp, Node, Sym, Term};
use pdbt_isa::{Flag, Machine};
use pdbt_isa_arm::{Inst as GInst, Reg as GReg};
use pdbt_isa_x86::{Inst as HInst, Reg as HReg};

/// How a guest flag relates to its host counterpart after the sequences
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagEquiv {
    /// Host flag equals the guest flag — delegation can use it directly.
    Exact,
    /// Host flag is the inverse (the carry-polarity case after
    /// subtraction) — delegation uses the inverted host condition.
    Inverted,
    /// No usable relationship — the translator must materialize the flag.
    Mismatch,
}

/// The verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// All mapped registers, memory effects and outputs are equal; the
    /// per-flag report describes how guest flags map onto host flags.
    Equivalent {
        /// Relationship for each flag the guest sequence defines.
        flags: Vec<(Flag, FlagEquiv)>,
    },
    /// A differential witness distinguishes the sequences.
    NotEquivalent {
        /// Human-readable reason.
        reason: String,
    },
    /// Data results agree on every random trial but could not be proven
    /// structurally equal — rejected for soundness.
    Unproven {
        /// What failed to normalize equal.
        reason: String,
    },
    /// One side contains constructs outside the symbolic subset.
    Unsupported {
        /// What was unsupported.
        reason: String,
    },
}

impl Verdict {
    /// Whether the verdict accepts the rule.
    #[must_use]
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Verdict::Equivalent { .. })
    }
}

/// A guest-register ↔ host-register correspondence; pair `i` becomes
/// rule parameter `i`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Mapping {
    /// The ordered register pairs.
    pub pairs: Vec<(GReg, HReg)>,
}

impl Mapping {
    /// Creates a mapping from pairs.
    #[must_use]
    pub fn new(pairs: Vec<(GReg, HReg)>) -> Mapping {
        Mapping { pairs }
    }

    /// The parameter index of a guest register.
    #[must_use]
    pub fn param_of_guest(&self, g: GReg) -> Option<u8> {
        self.pairs
            .iter()
            .position(|(gg, _)| *gg == g)
            .map(|i| i as u8)
    }

    /// The parameter index of a host register.
    #[must_use]
    pub fn param_of_host(&self, h: HReg) -> Option<u8> {
        self.pairs
            .iter()
            .position(|(_, hh)| *hh == h)
            .map(|i| i as u8)
    }
}

/// Options for the checker.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Differential trials.
    pub trials: u32,
    /// RNG seed for the trials.
    pub seed: u64,
    /// Work budget for one `check` call, in abstract steps (symbolic
    /// instructions, term nodes visited by normalization, differential
    /// trials). On exhaustion the checker stops and returns
    /// [`Verdict::Unproven`] with a reason starting with
    /// [`FUEL_EXHAUSTED`] — a conservative *rejection*, never a wrong
    /// acceptance, so a starved checker costs coverage but not
    /// soundness. The default is far above what any in-tree rule
    /// needs; it exists so pathological candidates (or fault-injection
    /// harnesses) bound the checker instead of hanging derivation.
    pub fuel: u64,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions {
            trials: 48,
            seed: 0x5eed_cafe,
            fuel: 1_000_000,
        }
    }
}

/// Prefix of the [`Verdict::Unproven`] reason produced when a check
/// runs out of fuel; callers (derivation statistics) match on it to
/// count fuel exhaustions separately from ordinary rejections.
pub const FUEL_EXHAUSTED: &str = "fuel exhausted";

/// The checker's work meter. Every unit of work is charged before it
/// happens, so a `false` return means "stop now" with the expensive
/// step not yet taken.
struct Fuel {
    left: u64,
}

impl Fuel {
    fn charge(&mut self, n: u64) -> bool {
        if n > self.left {
            self.left = 0;
            return false;
        }
        self.left -= n;
        true
    }
}

/// Term size with a cap: counts nodes but stops descending once `cap`
/// is reached. The cap matters beyond saving time — interior nodes are
/// `Rc`-shared, so terms are DAGs and an uncapped tree walk could be
/// exponential in the DAG depth.
fn term_size(t: &Term, cap: u64) -> u64 {
    if cap == 0 {
        return 0;
    }
    let mut n = 1;
    let kids: &[&Term] = match t.as_node() {
        None => &[],
        Some(Node::Un(_, a) | Node::Read(_, a, _)) => &[a],
        Some(Node::Bin(_, a, b) | Node::Pred(_, a, b)) => &[a, b],
        Some(
            Node::CarryAdd(a, b, c)
            | Node::BorrowSub(a, b, c)
            | Node::OverflowAdd(a, b, c)
            | Node::OverflowSub(a, b, c)
            | Node::Ite(a, b, c),
        ) => &[a, b, c],
    };
    for k in kids {
        if n >= cap {
            break;
        }
        n += term_size(k, cap - n);
    }
    n
}

fn sym_env(mapping: &Mapping) -> (guest::State, host::State) {
    let g = guest::State::init(|r| match mapping.param_of_guest(r) {
        Some(i) => Term::sym(Sym::Param(i)),
        None => Term::sym(Sym::GuestReg(r.index() as u8)),
    });
    let h = host::State::init(|r| match mapping.param_of_host(r) {
        Some(i) => Term::sym(Sym::Param(i)),
        None => Term::sym(Sym::HostReg(r.index() as u8)),
    });
    (g, h)
}

/// Differentially compares two terms; returns `(always_equal,
/// always_inverted)` over the trials.
fn diff_classify(a: &Term, b: &Term, opts: CheckOptions) -> (bool, bool) {
    let mut equal = true;
    let mut inverted = true;
    for trial in 0..opts.trials {
        let asg = Assignment::new(opts.seed.wrapping_add(u64::from(trial) * 0x9e37));
        let va = eval(a, &asg);
        let vb = eval(b, &asg);
        if va != vb {
            equal = false;
        }
        if va != (vb ^ 1) || va > 1 || vb > 1 {
            inverted = false;
        }
        if !equal && !inverted {
            break;
        }
    }
    (equal, inverted)
}

/// Checks semantic equivalence of a guest sequence and a host sequence
/// under a register mapping.
///
/// Work is bounded by [`CheckOptions::fuel`]; exhaustion degrades to a
/// conservative [`Verdict::Unproven`] whose reason starts with
/// [`FUEL_EXHAUSTED`]. Under an active fault plan (see `pdbt-faults`),
/// the `symexec` site may deterministically degrade a check to
/// `Unproven` the same way; the decision is keyed on the sequences and
/// mapping, not call order, so injection is schedule-independent.
#[must_use]
pub fn check(
    guest_seq: &[GInst],
    host_seq: &[HInst],
    mapping: &Mapping,
    opts: CheckOptions,
) -> Verdict {
    if pdbt_faults::hit_with(pdbt_faults::Site::Symexec, || {
        pdbt_faults::key_of(format!("{guest_seq:?}|{host_seq:?}|{mapping:?}").as_bytes())
    }) {
        return Verdict::Unproven {
            reason: "injected fault: symexec checker degraded".into(),
        };
    }
    let mut fuel = Fuel { left: opts.fuel };
    let fuel_out = |stage: &str| Verdict::Unproven {
        reason: format!("{FUEL_EXHAUSTED} during {stage}"),
    };
    /// Charges for normalizing a term (by its capped node count), then
    /// simplifies it; bails out of `check` with an `Unproven` fuel
    /// verdict if the budget is spent.
    macro_rules! simp {
        ($stage:expr, $t:expr) => {{
            let t = $t;
            if !fuel.charge(term_size(t, fuel.left.saturating_add(1))) {
                return fuel_out($stage);
            }
            simplify(t)
        }};
    }
    if !fuel.charge((guest_seq.len() + host_seq.len()) as u64) {
        return fuel_out("symbolic execution");
    }
    let (mut gst, mut hst) = sym_env(mapping);
    if let Err(SymExecError { detail }) = guest::run(&mut gst, guest_seq) {
        return Verdict::Unsupported {
            reason: format!("guest: {detail}"),
        };
    }
    if let Err(SymExecError { detail }) = host::run(&mut hst, host_seq) {
        return Verdict::Unsupported {
            reason: format!("host: {detail}"),
        };
    }

    // 1. Mapped registers must be structurally equal after normalization;
    //    a differential mismatch is a definite rejection, a differential
    //    match without structural equality is rejected as unproven.
    for (i, (g, h)) in mapping.pairs.iter().enumerate() {
        let ng = simp!("mapped-register normalization", &gst.regs[g.index()]);
        let nh = simp!("mapped-register normalization", &hst.regs[h.index()]);
        if ng != nh {
            if !fuel.charge(u64::from(opts.trials)) {
                return fuel_out("differential trials");
            }
            let (equal, _) = diff_classify(&ng, &nh, opts);
            if !equal {
                return Verdict::NotEquivalent {
                    reason: format!("parameter {i} ({g}↔{h}) differs: {ng} vs {nh}"),
                };
            }
            return Verdict::Unproven {
                reason: format!("parameter {i} ({g}↔{h}): {ng} vs {nh}"),
            };
        }
    }

    // 2. Guest registers outside the mapping must be untouched.
    for r in GReg::ALL {
        if r == GReg::Pc || mapping.param_of_guest(r).is_some() {
            continue;
        }
        let ng = simp!("unmapped-register normalization", &gst.regs[r.index()]);
        if ng != Term::Sym(Sym::GuestReg(r.index() as u8)) {
            return Verdict::NotEquivalent {
                reason: format!("guest register {r} modified but not mapped"),
            };
        }
    }

    // 3. Outputs must match exactly.
    if gst.output.len() != hst.output.len() {
        return Verdict::NotEquivalent {
            reason: "output count differs".into(),
        };
    }
    for (a, b) in gst.output.iter().zip(&hst.output) {
        let na = simp!("output normalization", a);
        let nb = simp!("output normalization", b);
        if na != nb {
            return Verdict::NotEquivalent {
                reason: "output value differs".into(),
            };
        }
    }

    // 4. Memory effects: structural store-chain equality, with a
    //    differential fallback over evaluated byte maps.
    let gmem = simplify_mem(&gst.mem);
    let hmem = simplify_mem(&hst.mem);
    if gmem != hmem {
        if !fuel.charge(u64::from(opts.trials)) {
            return fuel_out("memory differential trials");
        }
        for trial in 0..opts.trials {
            let asg = Assignment::new(opts.seed.wrapping_add(u64::from(trial) * 0x51d7));
            if eval_mem_writes(&gmem, &asg) != eval_mem_writes(&hmem, &asg) {
                return Verdict::NotEquivalent {
                    reason: "memory effects differ".into(),
                };
            }
        }
        return Verdict::Unproven {
            reason: "memory effects not structurally equal".into(),
        };
    }

    // 5. Classify flags the guest sequence defines.
    let mut flag_defs = pdbt_isa::FlagSet::EMPTY;
    for inst in guest_seq {
        flag_defs |= inst.flag_defs();
    }
    let mut flags = Vec::new();
    for f in flag_defs.iter() {
        let ng = simp!("flag normalization", &gst.flag(f));
        let nh = simp!("flag normalization", &hst.flag(f));
        let verdict = if ng == nh {
            FlagEquiv::Exact
        } else if ng
            == simp!(
                "flag normalization",
                &Term::bin(BinOp::Xor, nh.clone(), Term::c(1))
            )
        {
            FlagEquiv::Inverted
        } else {
            if !fuel.charge(u64::from(opts.trials)) {
                return fuel_out("flag differential trials");
            }
            match diff_classify(&ng, &nh, opts) {
                (true, _) => FlagEquiv::Exact,
                (_, true) => FlagEquiv::Inverted,
                _ => FlagEquiv::Mismatch,
            }
        };
        flags.push((f, verdict));
    }

    Verdict::Equivalent { flags }
}

/// Proposes candidate register mappings between a guest and a host
/// sequence.
///
/// Registers are classified into *live-ins* (read before written) and
/// *pure outputs* (written but never live-in). Guest live-ins pair with
/// host live-ins (all permutations, positional order first), and guest
/// pure outputs pair with host written registers — which leaves host
/// scratch registers (written first, like the aux `movl` temporaries of
/// the paper's Fig 6) free to stay unmapped. The learning pipeline tries
/// the proposals in order until one verifies, standing in for the
/// original system's mapping inference during symbolic matching.
#[must_use]
pub fn propose_mappings(guest_seq: &[GInst], host_seq: &[HInst], max: usize) -> Vec<Mapping> {
    // Guest live-ins and defs.
    let mut g_livein: Vec<GReg> = Vec::new();
    let mut g_written: Vec<GReg> = Vec::new();
    for inst in guest_seq {
        for r in inst.uses() {
            if r != GReg::Pc && !g_written.contains(&r) && !g_livein.contains(&r) {
                g_livein.push(r);
            }
        }
        for r in inst.defs() {
            if r != GReg::Pc && !g_written.contains(&r) {
                g_written.push(r);
            }
        }
    }
    let g_outs: Vec<GReg> = g_written
        .iter()
        .copied()
        .filter(|r| !g_livein.contains(r))
        .collect();
    // Host live-ins and writes (ebp = environment/frame, esp = stack are
    // never rule parameters).
    let excluded = |r: HReg| matches!(r, HReg::Ebp | HReg::Esp);
    let mut h_livein: Vec<HReg> = Vec::new();
    let mut h_written: Vec<HReg> = Vec::new();
    for inst in host_seq {
        for r in inst.uses() {
            if !excluded(r) && !h_written.contains(&r) && !h_livein.contains(&r) {
                h_livein.push(r);
            }
        }
        for r in inst.defs() {
            if !excluded(r) && !h_written.contains(&r) {
                h_written.push(r);
            }
        }
    }
    let h_outs: Vec<HReg> = h_written
        .iter()
        .copied()
        .filter(|r| !h_livein.contains(r))
        .collect();
    if g_livein.len() != h_livein.len() || g_outs.len() > h_outs.len() {
        return Vec::new();
    }
    if g_livein.is_empty() && g_outs.is_empty() {
        return Vec::new();
    }
    let mut out: Vec<Mapping> = Vec::new();
    let mut livein_perms: Vec<Vec<HReg>> = Vec::new();
    permute(&mut h_livein.clone(), 0, &mut |p| {
        if livein_perms.len() < 24 {
            livein_perms.push(p.to_vec());
        }
    });
    if livein_perms.is_empty() {
        livein_perms.push(Vec::new());
    }
    let mut out_perms: Vec<Vec<HReg>> = Vec::new();
    permute(&mut h_outs.clone(), 0, &mut |p| {
        if out_perms.len() < 24 {
            out_perms.push(p[..g_outs.len().min(p.len())].to_vec());
        }
    });
    if out_perms.is_empty() {
        out_perms.push(Vec::new());
    }
    out_perms.dedup();
    // Pairs keep guest scan order: live-ins and outs interleaved in the
    // order guest registers first appear overall.
    let mut ordered: Vec<GReg> = Vec::new();
    for inst in guest_seq {
        for r in inst.uses().into_iter().chain(inst.defs()) {
            if r != GReg::Pc && !ordered.contains(&r) {
                ordered.push(r);
            }
        }
    }
    for lp in &livein_perms {
        for op in &out_perms {
            if op.len() < g_outs.len() {
                continue;
            }
            let mut pairs: Vec<(GReg, HReg)> = Vec::new();
            for g in &ordered {
                if let Some(idx) = g_livein.iter().position(|x| x == g) {
                    pairs.push((*g, lp[idx]));
                } else if let Some(idx) = g_outs.iter().position(|x| x == g) {
                    pairs.push((*g, op[idx]));
                }
            }
            // A host register may serve only one parameter.
            let distinct = (pairs.iter().enumerate())
                .all(|(i, (_, h))| pairs[..i].iter().all(|(_, seen)| seen != h));
            if distinct && !pairs.is_empty() && out.iter().all(|m| m.pairs != pairs) {
                out.push(Mapping { pairs });
                if out.len() >= max {
                    return out;
                }
            }
        }
    }
    out
}

fn permute<T: Copy>(items: &mut [T], k: usize, f: &mut impl FnMut(&[T])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, f);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::{MemAddr, Operand as GOp};
    use pdbt_isa_x86::builders as h;
    use pdbt_isa_x86::{Mem, Operand as HOp};

    fn m(pairs: &[(GReg, HReg)]) -> Mapping {
        Mapping::new(pairs.to_vec())
    }

    fn opts() -> CheckOptions {
        CheckOptions::default()
    }

    #[test]
    fn add_reg_reg_equivalent() {
        // guest: add r0, r0, r1  /  host: addl ecx, ebx
        let verdict = check(
            &[g::add(GReg::R0, GReg::R0, GOp::Reg(GReg::R1))],
            &[h::add(HReg::Ecx.into(), HReg::Ebx.into())],
            &m(&[(GReg::R0, HReg::Ecx), (GReg::R1, HReg::Ebx)]),
            opts(),
        );
        assert!(verdict.is_equivalent(), "{verdict:?}");
    }

    #[test]
    fn three_address_needs_aux_move() {
        // guest: add r0, r1, r2 (r0 ≠ r1) / host two-address form needs the
        // aux move the paper's Fig 6 shows.
        let mapping = m(&[
            (GReg::R0, HReg::Ecx),
            (GReg::R1, HReg::Ebx),
            (GReg::R2, HReg::Esi),
        ]);
        let bad = check(
            &[g::add(GReg::R0, GReg::R1, GOp::Reg(GReg::R2))],
            &[h::add(HReg::Ecx.into(), HReg::Esi.into())],
            &mapping,
            opts(),
        );
        assert!(!bad.is_equivalent());
        let good = check(
            &[g::add(GReg::R0, GReg::R1, GOp::Reg(GReg::R2))],
            &[
                h::mov(HReg::Ecx.into(), HReg::Ebx.into()),
                h::add(HReg::Ecx.into(), HReg::Esi.into()),
            ],
            &mapping,
            opts(),
        );
        assert!(good.is_equivalent(), "{good:?}");
    }

    #[test]
    fn swapped_subtraction_rejected() {
        // sub is non-commutative: a host that computes b - a must be
        // refuted (paper §IV-C1).
        let mapping = m(&[(GReg::R0, HReg::Ecx), (GReg::R1, HReg::Ebx)]);
        let verdict = check(
            &[g::sub(GReg::R0, GReg::R0, GOp::Reg(GReg::R1))],
            &[
                // ecx = ebx - ecx (wrong order)
                h::mov(HReg::Esi.into(), HReg::Ebx.into()),
                h::sub(HReg::Esi.into(), HReg::Ecx.into()),
                h::mov(HReg::Ecx.into(), HReg::Esi.into()),
            ],
            &mapping,
            opts(),
        );
        assert!(
            matches!(verdict, Verdict::NotEquivalent { .. }),
            "{verdict:?}"
        );
    }

    #[test]
    fn flags_exact_after_add_inverted_after_cmp() {
        // adds ↔ addl: carries agree → C Exact.
        let verdict = check(
            &[g::add(GReg::R0, GReg::R0, GOp::Reg(GReg::R1)).with_s()],
            &[h::add(HReg::Ecx.into(), HReg::Ebx.into())],
            &m(&[(GReg::R0, HReg::Ecx), (GReg::R1, HReg::Ebx)]),
            opts(),
        );
        let Verdict::Equivalent { flags } = &verdict else {
            panic!("{verdict:?}");
        };
        assert!(flags.contains(&(Flag::C, FlagEquiv::Exact)), "{flags:?}");
        assert!(flags.contains(&(Flag::Z, FlagEquiv::Exact)));
        // cmp ↔ cmpl: guest C = !borrow, host CF = borrow → Inverted.
        let verdict = check(
            &[g::cmp(GReg::R0, GOp::Reg(GReg::R1))],
            &[h::cmp(HReg::Ecx.into(), HReg::Ebx.into())],
            &m(&[(GReg::R0, HReg::Ecx), (GReg::R1, HReg::Ebx)]),
            opts(),
        );
        let Verdict::Equivalent { flags } = &verdict else {
            panic!("{verdict:?}");
        };
        assert!(flags.contains(&(Flag::C, FlagEquiv::Inverted)), "{flags:?}");
        assert!(flags.contains(&(Flag::N, FlagEquiv::Exact)));
        assert!(flags.contains(&(Flag::V, FlagEquiv::Exact)));
    }

    #[test]
    fn load_store_equivalent() {
        // guest: ldr r0, [r1, #8] / host: movl ecx, [ebx+8]
        let verdict = check(
            &[g::ldr(
                GReg::R0,
                MemAddr::BaseImm {
                    base: GReg::R1,
                    offset: 8,
                },
            )],
            &[h::mov(
                HReg::Ecx.into(),
                Mem::base_disp(HReg::Ebx, 8).into(),
            )],
            &m(&[(GReg::R0, HReg::Ecx), (GReg::R1, HReg::Ebx)]),
            opts(),
        );
        assert!(verdict.is_equivalent(), "{verdict:?}");
        // guest: str r0, [r1] / host: movl [ebx], ecx
        let verdict = check(
            &[g::str_(
                GReg::R0,
                MemAddr::BaseImm {
                    base: GReg::R1,
                    offset: 0,
                },
            )],
            &[h::mov(Mem::base(HReg::Ebx).into(), HReg::Ecx.into())],
            &m(&[(GReg::R0, HReg::Ecx), (GReg::R1, HReg::Ebx)]),
            opts(),
        );
        assert!(verdict.is_equivalent(), "{verdict:?}");
    }

    #[test]
    fn wrong_store_value_rejected() {
        let verdict = check(
            &[g::str_(
                GReg::R0,
                MemAddr::BaseImm {
                    base: GReg::R1,
                    offset: 0,
                },
            )],
            &[h::mov(Mem::base(HReg::Ebx).into(), HOp::Imm(0))],
            &m(&[(GReg::R0, HReg::Ecx), (GReg::R1, HReg::Ebx)]),
            opts(),
        );
        assert!(
            matches!(verdict, Verdict::NotEquivalent { .. }),
            "{verdict:?}"
        );
    }

    #[test]
    fn bic_needs_inversion_aux() {
        // guest: bic r0, r0, r1 / host andl with explicit not (Fig 7).
        let mapping = m(&[(GReg::R0, HReg::Ecx), (GReg::R1, HReg::Ebx)]);
        let plain_and = check(
            &[g::bic(GReg::R0, GReg::R0, GOp::Reg(GReg::R1))],
            &[h::and(HReg::Ecx.into(), HReg::Ebx.into())],
            &mapping,
            opts(),
        );
        assert!(!plain_and.is_equivalent());
        let with_aux = check(
            &[g::bic(GReg::R0, GReg::R0, GOp::Reg(GReg::R1))],
            &[
                h::mov(HReg::Eax.into(), HReg::Ebx.into()),
                h::not(HReg::Eax.into()),
                h::and(HReg::Ecx.into(), HReg::Eax.into()),
            ],
            &mapping,
            opts(),
        );
        assert!(with_aux.is_equivalent(), "{with_aux:?}");
    }

    #[test]
    fn scratch_clobber_is_allowed() {
        // The host may freely clobber eax/edx (dead between guest
        // instructions).
        let verdict = check(
            &[g::mov(GReg::R0, GOp::Imm(5))],
            &[
                h::mov(HReg::Eax.into(), HOp::Imm(99)),
                h::mov(HReg::Ecx.into(), HOp::Imm(5)),
            ],
            &m(&[(GReg::R0, HReg::Ecx)]),
            opts(),
        );
        assert!(verdict.is_equivalent(), "{verdict:?}");
    }

    #[test]
    fn unmapped_guest_write_rejected() {
        let verdict = check(
            &[g::mov(GReg::R5, GOp::Imm(1)), g::mov(GReg::R0, GOp::Imm(5))],
            &[h::mov(HReg::Ecx.into(), HOp::Imm(5))],
            &m(&[(GReg::R0, HReg::Ecx)]),
            opts(),
        );
        assert!(matches!(verdict, Verdict::NotEquivalent { .. }));
    }

    #[test]
    fn control_flow_unsupported() {
        let verdict = check(
            &[g::b(pdbt_isa::Cond::Al, 8)],
            &[h::mov(HReg::Ecx.into(), HOp::Imm(0))],
            &Mapping::default(),
            opts(),
        );
        assert!(matches!(verdict, Verdict::Unsupported { .. }));
        let verdict = check(
            &[g::push([GReg::R4])],
            &[h::push(HReg::Ecx.into())],
            &Mapping::default(),
            opts(),
        );
        assert!(matches!(verdict, Verdict::Unsupported { .. }));
    }

    #[test]
    fn multi_instruction_sequences() {
        // guest: add r0, r0, r1; lsl r0, r0, #2
        // host:  addl ecx, ebx; shll ecx, $2
        let verdict = check(
            &[
                g::add(GReg::R0, GReg::R0, GOp::Reg(GReg::R1)),
                g::lsl(GReg::R0, GReg::R0, GOp::Imm(2)),
            ],
            &[
                h::add(HReg::Ecx.into(), HReg::Ebx.into()),
                h::shl(HReg::Ecx.into(), HOp::Imm(2)),
            ],
            &m(&[(GReg::R0, HReg::Ecx), (GReg::R1, HReg::Ebx)]),
            opts(),
        );
        assert!(verdict.is_equivalent(), "{verdict:?}");
    }

    #[test]
    fn shifted_operand_equivalence() {
        // guest: add r0, r1, r2 lsl #2 / host: mov eax, esi; shl eax, 2;
        // mov ecx, ebx; add ecx, eax.
        let verdict = check(
            &[g::add(
                GReg::R0,
                GReg::R1,
                GOp::Shifted {
                    rm: GReg::R2,
                    kind: pdbt_isa_arm::ShiftKind::Lsl,
                    amount: 2,
                },
            )],
            &[
                h::mov(HReg::Eax.into(), HReg::Esi.into()),
                h::shl(HReg::Eax.into(), HOp::Imm(2)),
                h::mov(HReg::Ecx.into(), HReg::Ebx.into()),
                h::add(HReg::Ecx.into(), HReg::Eax.into()),
            ],
            &m(&[
                (GReg::R0, HReg::Ecx),
                (GReg::R1, HReg::Ebx),
                (GReg::R2, HReg::Esi),
            ]),
            opts(),
        );
        assert!(verdict.is_equivalent(), "{verdict:?}");
    }

    #[test]
    fn fuel_exhaustion_degrades_to_unproven() {
        let guest_seq = [g::add(GReg::R0, GReg::R0, GOp::Reg(GReg::R1))];
        let host_seq = [h::add(HReg::Ecx.into(), HReg::Ebx.into())];
        let mapping = m(&[(GReg::R0, HReg::Ecx), (GReg::R1, HReg::Ebx)]);
        // Zero fuel exhausts before symbolic execution even starts.
        let verdict = check(
            &guest_seq,
            &host_seq,
            &mapping,
            CheckOptions {
                fuel: 0,
                ..CheckOptions::default()
            },
        );
        let Verdict::Unproven { reason } = &verdict else {
            panic!("{verdict:?}");
        };
        assert!(reason.starts_with(FUEL_EXHAUSTED), "{reason}");
        // A budget that survives execution but not normalization still
        // degrades conservatively rather than mis-verdicting.
        let verdict = check(
            &guest_seq,
            &host_seq,
            &mapping,
            CheckOptions {
                fuel: 3,
                ..CheckOptions::default()
            },
        );
        assert!(
            matches!(&verdict, Verdict::Unproven { reason } if reason.starts_with(FUEL_EXHAUSTED)),
            "{verdict:?}"
        );
        // Default fuel is ample: the same inputs verify.
        assert!(check(&guest_seq, &host_seq, &mapping, opts()).is_equivalent());
    }

    #[test]
    fn propose_mappings_positional_first() {
        let guest_seq = [g::add(GReg::R0, GReg::R0, GOp::Reg(GReg::R1))];
        let host_seq = [h::add(HReg::Ecx.into(), HReg::Ebx.into())];
        let mappings = propose_mappings(&guest_seq, &host_seq, 24);
        assert!(!mappings.is_empty());
        assert_eq!(
            mappings[0].pairs,
            vec![(GReg::R0, HReg::Ecx), (GReg::R1, HReg::Ebx)]
        );
        // The first proposal verifies.
        assert!(check(&guest_seq, &host_seq, &mappings[0], opts()).is_equivalent());
    }

    #[test]
    fn mismatched_register_counts_propose_nothing() {
        let guest_seq = [g::add(GReg::R0, GReg::R1, GOp::Reg(GReg::R2))];
        let host_seq = [h::add(HReg::Ecx.into(), HReg::Ebx.into())];
        assert!(propose_mappings(&guest_seq, &host_seq, 24).is_empty());
    }
}
