//! The contract of [`Scan`], the one walk over guest operands: prefix
//! stability and monotone validity are what let one scan serve every
//! candidate length of the longest-first rule lookup.
//!
//! Checked over every instruction window (length 1–3) of the twelve
//! suite programs, and over seeded random windows of suite instructions
//! salted with each rejecting shape. `FUZZ_CASES` scales the random half.
//!
//! Also here, because the same programs feed it: the register lists
//! `Inst::effects` hands the translator, pinned element for element.

use pdbt_core::key::{parameterize, reconstruct_seq, ComboKey, ModeTag, Scan};
use pdbt_isa::Cond;
use pdbt_isa_arm::builders as g;
use pdbt_isa_arm::{FReg, Inst, MemAddr, Op, Operand, Reg};
use pdbt_workloads::{suite, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The rule-translatable universe, written independently of the scanner
/// (paper Fig 9): unpredicated, not control flow / stack / system, no
/// float, register-list or target operand, PC in no register position.
fn in_universe(inst: &Inst) -> bool {
    inst.cond == Cond::Al
        && !matches!(
            inst.op,
            Op::B | Op::Bl | Op::Bx | Op::Push | Op::Pop | Op::Svc
        )
        && inst.operands.iter().all(|o| match o {
            Operand::Imm(_) => true,
            Operand::Reg(r) | Operand::Shifted { rm: r, .. } => !r.is_pc(),
            Operand::Mem(MemAddr::BaseImm { base, .. }) => !base.is_pc(),
            Operand::Mem(MemAddr::BaseReg { base, index }) => !base.is_pc() && !index.is_pc(),
            Operand::FReg(_) | Operand::RegList(_) | Operand::Target(_) => false,
        })
}

fn check_window(window: &[Inst]) {
    let scan = Scan::of(window, window.len());
    // Monotone validity: the scan stops at the first instruction outside
    // the universe, and at nothing else.
    let valid = window.iter().take_while(|i| in_universe(i)).count();
    assert_eq!(scan.valid_len(), valid, "{window:?}");
    for len in 1..=valid {
        let head = &window[..len];
        // Each prefix view is the inverse image of the instructions…
        let mut back = Vec::new();
        let fits = reconstruct_seq(scan.keys(len), &scan.instantiation(len), &mut back);
        assert_eq!(fits.map(|()| &back[..]), Some(head), "{window:?} at {len}");
        // …and a literal prefix: exactly what scanning only them gives.
        let alone = Scan::of(head, len);
        assert_eq!(alone.valid_len(), len);
        assert_eq!(alone.keys(len), scan.keys(len), "{window:?} at {len}");
        assert_eq!(alone.slots(len), scan.slots(len), "{window:?} at {len}");
        assert_eq!(alone.imms(len), scan.imms(len), "{window:?} at {len}");
    }
    // The one-instruction scan is `parameterize`.
    let p = parameterize(&window[0]);
    assert_eq!(p.as_ref().map(|p| &p.key), scan.first(), "{window:?}");
    assert_eq!(p.is_some(), in_universe(&window[0]));
    if let Some(p) = p {
        assert_eq!(p.inst, scan.instantiation(1), "{window:?}");
    }
}

/// One instruction outside the universe, of a seeded kind.
fn rejecting(rng: &mut StdRng, donor: &Inst) -> Inst {
    let mem = MemAddr::BaseImm {
        base: Reg::R1,
        offset: 4,
    };
    match rng.gen_range(0..11u8) {
        0 => donor.clone().with_cond(Cond::Ne),
        1 => g::b(Cond::Al, 8),
        2 => g::bl(-8),
        3 => g::bx(Reg::Lr),
        4 => g::push([Reg::R4, Reg::Lr]),
        5 => g::pop([Reg::R4]),
        6 => g::svc(1),
        7 => g::vadd(FReg::new(0), FReg::new(1), FReg::new(2)),
        8 => g::vldr(FReg::new(0), mem),
        // PC in a register position of the donor, from a seeded start.
        _ => {
            let mut inst = donor.clone();
            let n = inst.operands.len();
            let start = rng.gen_range(0..n.max(1));
            for k in 0..n {
                match &mut inst.operands[(start + k) % n] {
                    Operand::Reg(r) | Operand::Shifted { rm: r, .. } => *r = Reg::Pc,
                    Operand::Mem(MemAddr::BaseImm { base, .. }) => *base = Reg::Pc,
                    Operand::Mem(MemAddr::BaseReg { index, .. }) => *index = Reg::Pc,
                    _ => continue,
                }
                return inst;
            }
            g::mov(Reg::Pc, Operand::Imm(0))
        }
    }
}

/// Every window the properties are checked over: each instruction
/// window (length 1–3) of the twelve suite programs, then `FUZZ_CASES`
/// seeded random windows, most salted with a rejecting shape.
fn for_each_window(mut check: impl FnMut(&[Inst])) {
    let programs: Vec<Vec<Inst>> = suite(Scale::tiny())
        .iter()
        .map(|w| w.pair.guest.program.insts().to_vec())
        .collect();
    assert_eq!(programs.len(), 12);
    for insts in &programs {
        for len in 1..=3 {
            insts.windows(len).for_each(&mut check);
        }
    }
    let cases = std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    let mut rng = StdRng::seed_from_u64(0x5CA9_0001);
    for _ in 0..cases {
        let insts = &programs[rng.gen_range(0..programs.len())];
        let mut window: Vec<Inst> = (0..rng.gen_range(1..=3usize))
            .map(|_| insts[rng.gen_range(0..insts.len())].clone())
            .collect();
        // Salt one position of most windows with a rejecting shape.
        if rng.gen_range(0..4u8) != 0 {
            let at = rng.gen_range(0..window.len());
            window[at] = rejecting(&mut rng, &window[at]);
            assert!(!in_universe(&window[at]), "{:?}", window[at]);
        }
        check(&window);
    }
}

#[test]
fn scans_are_prefix_stable_and_validity_is_monotone() {
    let (mut windows, mut clean) = (0usize, 0usize);
    for_each_window(|window| {
        check_window(window);
        windows += 1;
        clean += usize::from(window.iter().all(in_universe));
    });
    assert!(
        clean > windows / 4,
        "{clean} of {windows} windows scan whole"
    );
}

/// A key's lists are inline arrays with padding past their length; the
/// rule table, `save_rules`' order and every sealed byte rely on a key
/// comparing, ordering and hashing as the `(op, s, modes, pattern)` of
/// slices it stands for — padding never taking part.
#[test]
fn inline_keys_compare_order_and_hash_as_their_slices() {
    use std::hash::{Hash, Hasher};
    fn hash_of(v: impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }
    let as_slices = |k: &'_ ComboKey| (k.op, k.s, k.modes.to_vec(), k.reg_pattern.to_vec());
    let mut keys: Vec<ComboKey> = Vec::new();
    for_each_window(|window| {
        // Later keys of a window number their slots from the earlier
        // ones', so they are keys no one-instruction scan yields.
        let scan = Scan::of(window, window.len());
        for key in scan.keys(scan.valid_len()) {
            if !keys.iter().any(|k| as_slices(k) == as_slices(key)) {
                keys.push(*key);
            }
        }
    });
    assert!(keys.len() > 50, "{} distinct keys", keys.len());
    for a in &keys {
        let (op, s, modes, pattern) = as_slices(a);
        assert_eq!(
            hash_of(a),
            hash_of((op, s, &modes[..], &pattern[..])),
            "{a}"
        );
        // A shorter list that once was longer keeps stale elements past
        // its length: they must not show either.
        let mut shrunk = *a;
        while shrunk.modes.try_push(ModeTag::MemBaseReg).is_ok() {}
        shrunk.modes.truncate(modes.len());
        assert_eq!((shrunk, hash_of(shrunk)), (*a, hash_of(a)), "{a}");
        for b in &keys {
            assert_eq!(a == b, as_slices(a) == as_slices(b), "{a} == {b}");
            assert_eq!(a.cmp(b), as_slices(a).cmp(&as_slices(b)), "{a} cmp {b}");
        }
    }
}

/// `uses`/`defs` order is load-bearing — register allocation breaks
/// frequency ties by first appearance — and the translation goldens
/// cannot say which list moved. Each line of the golden is a function
/// of the instruction's text, so the distinct instructions of the twelve
/// programs cover every instruction in them. The lists were recorded
/// while both functions still returned a `Vec`; `UPDATE_GOLDEN=1`
/// rewrites the file when the suite's programs change.
#[test]
fn uses_and_defs_list_registers_in_the_recorded_order() {
    let mut lines = std::collections::BTreeSet::new();
    for w in suite(Scale::tiny()) {
        for inst in w.pair.guest.program.insts() {
            let fx = inst.effects();
            lines.insert(format!(
                "{inst} | uses {:?} | defs {:?}\n",
                &fx.uses[..],
                &fx.defs[..]
            ));
        }
    }
    let got: String = lines.into_iter().collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/uses_defs.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
    }
    let want = std::fs::read_to_string(path).expect("golden file present");
    assert!(
        got == want,
        "uses/defs lists changed; review and refresh with UPDATE_GOLDEN=1"
    );
}
