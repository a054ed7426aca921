//! Algebraic properties of the aggregation layer: `Metrics::merge` and
//! `RunObs::merge` must be associative, commutative (up to the sorted
//! export views), and have `default()` as identity.
//!
//! These laws are what make suite-level aggregation order-independent:
//! bench harnesses fold per-workload runs in arbitrary order, and the
//! parallel pipeline folds per-worker observations — any fold shape
//! must land on the same totals.
//!
//! Hand-rolled seeded fuzz loops over the in-tree PRNG (`pdbt-rng`,
//! aliased as `rand`) — the offline build has no proptest. Several obs
//! types carry no `PartialEq` (histograms, counter tables), so
//! equality is checked over a fingerprint of their exported views.

use pdbt::runtime::{Metrics, RunObs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fuzz iterations per law; FUZZ_CASES scales the whole file.
fn cases() -> usize {
    std::env::var("FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// Every counter of the family's table, whatever it lists today, plus
/// the per-class array.
fn random_metrics(rng: &mut StdRng) -> Metrics {
    let mut m = Metrics::default();
    for v in m.values_mut() {
        *v = rng.gen_range(0..1_000_000);
    }
    for v in &mut m.host_by_class {
        *v = rng.gen_range(0..100_000);
    }
    m
}

const LABELS: [&str; 6] = [
    "add r,r,#i",
    "sub r,r,r",
    "mov r,#i",
    "ldr",
    "str",
    "cmp r,#i",
];
const SUBGROUPS: [&str; 3] = ["alu-imm", "alu-reg", "mem"];

fn random_obs(rng: &mut StdRng) -> RunObs {
    let mut o = RunObs::default();
    for _ in 0..rng.gen_range(0..12) {
        // A label always carries the same subgroup (as in the real
        // pipeline, where the rule key determines its subgroup).
        let li = rng.gen_range(0..LABELS.len());
        let id = o.rules.intern(LABELS[li], SUBGROUPS[li % SUBGROUPS.len()]);
        o.rules.hit(id, rng.gen_range(0..50));
        o.rules.covered(id, rng.gen_range(0..5_000));
    }
    for _ in 0..rng.gen_range(0..6) {
        o.rules.miss(LABELS[rng.gen_range(0..LABELS.len())]);
    }
    for _ in 0..rng.gen_range(0..20) {
        o.translate_ns.record(rng.gen_range(0..2_000_000));
        o.block_host_len.record(rng.gen_range(0..200));
        o.deleg_depth.record(rng.gen_range(0..8));
    }
    for _ in 0..rng.gen_range(0..30) {
        let shard = rng.gen_range(0..8);
        if rng.gen_bool(0.7) {
            o.cache.record_hit(shard);
        } else {
            o.cache.record_miss(shard);
        }
    }
    for _ in 0..rng.gen_range(0..3) {
        let workers = rng.gen_range(1..5);
        let tasks: Vec<u64> = (0..workers).map(|_| rng.gen_range(0..40)).collect();
        o.pool.record(&tasks);
    }
    for v in o.dispatch.values_mut() {
        *v = rng.gen_range(0..10_000);
    }
    o
}

/// Order-independent digest of a `RunObs` through its sorted export
/// views (the underlying tables have no `PartialEq`).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    rules: Vec<(String, String, u64, u64)>,
    misses: Vec<(String, u64)>,
    by_subgroup: Vec<(String, u64)>,
    hists: Vec<(Vec<u64>, u64, u64, u64, u64)>,
    cache: (Vec<u64>, Vec<u64>),
    pool: Vec<u64>,
    dispatch: pdbt::obs::DispatchCounters,
}

fn fingerprint(o: &RunObs) -> Fingerprint {
    let hist = |h: &pdbt::obs::Histogram| {
        (
            h.raw_counts().to_vec(),
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
        )
    };
    Fingerprint {
        rules: o
            .rules
            .rows_by_coverage()
            .into_iter()
            .map(|r| {
                (
                    r.label.clone(),
                    r.subgroup.clone(),
                    r.static_hits,
                    r.dyn_covered,
                )
            })
            .collect(),
        misses: o
            .rules
            .misses()
            .into_iter()
            .map(|(l, n)| (l.to_string(), n))
            .collect(),
        by_subgroup: o.rules.coverage_by_subgroup(),
        hists: vec![
            hist(&o.translate_ns),
            hist(&o.block_host_len),
            hist(&o.deleg_depth),
        ],
        cache: (o.cache.hits().to_vec(), o.cache.misses().to_vec()),
        pool: o.pool.tasks().to_vec(),
        dispatch: o.dispatch.clone(),
    }
}

fn merged_metrics(a: &Metrics, b: &Metrics) -> Metrics {
    let mut out = a.clone();
    out.merge(b);
    out
}

fn merged_obs(a: &RunObs, b: &RunObs) -> RunObs {
    let mut out = a.clone();
    out.merge(b);
    out
}

#[test]
fn metrics_merge_is_commutative_and_associative() {
    let mut rng = StdRng::seed_from_u64(0x4D45_0001);
    for _ in 0..cases() {
        let (a, b, c) = (
            random_metrics(&mut rng),
            random_metrics(&mut rng),
            random_metrics(&mut rng),
        );
        assert_eq!(merged_metrics(&a, &b), merged_metrics(&b, &a));
        assert_eq!(
            merged_metrics(&merged_metrics(&a, &b), &c),
            merged_metrics(&a, &merged_metrics(&b, &c)),
        );
    }
}

#[test]
fn metrics_merge_has_default_identity() {
    let mut rng = StdRng::seed_from_u64(0x4D45_0002);
    for _ in 0..cases() {
        let a = random_metrics(&mut rng);
        assert_eq!(merged_metrics(&a, &Metrics::default()), a);
        assert_eq!(merged_metrics(&Metrics::default(), &a), a);
    }
}

#[test]
fn run_obs_merge_is_commutative_and_associative() {
    let mut rng = StdRng::seed_from_u64(0x4D45_0003);
    for _ in 0..cases() {
        let (a, b, c) = (
            random_obs(&mut rng),
            random_obs(&mut rng),
            random_obs(&mut rng),
        );
        assert_eq!(
            fingerprint(&merged_obs(&a, &b)),
            fingerprint(&merged_obs(&b, &a)),
        );
        assert_eq!(
            fingerprint(&merged_obs(&merged_obs(&a, &b), &c)),
            fingerprint(&merged_obs(&a, &merged_obs(&b, &c))),
        );
    }
}

#[test]
fn run_obs_merge_has_default_identity() {
    let mut rng = StdRng::seed_from_u64(0x4D45_0004);
    for _ in 0..cases() {
        let a = random_obs(&mut rng);
        let fp = fingerprint(&a);
        assert_eq!(fingerprint(&merged_obs(&a, &RunObs::default())), fp);
        assert_eq!(fingerprint(&merged_obs(&RunObs::default(), &a)), fp);
    }
}
