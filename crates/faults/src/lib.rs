//! Deterministic fault injection for the pdbt pipeline.
//!
//! A production DBT must *degrade* under partial failure — a combo that
//! cannot be verified is a rejection, a corrupt rule-store entry is a
//! quarantine, an untranslatable block falls back to interpretation —
//! and degraded paths that are never executed rot. This crate provides
//! the seeded fault points that exercise them on demand: each
//! hardened consumer asks [`hit`] at a named [`Site`], and the answer
//! is a pure function of `(seed, site, key)`, so the same plan injects
//! the same faults no matter how work is scheduled across worker
//! threads. That keying is what preserves the pipeline's
//! serial-vs-parallel bit-identity even while faults are firing.
//!
//! A fault plan is configured programmatically ([`configure`]), from
//! the `PDBT_FAULTS` environment variable, or from the `--faults` CLI
//! flag, all sharing one spec syntax:
//!
//! ```text
//! seed=7,rate=0.01,sites=symexec,emit,store,pool,cache
//! ```
//!
//! There is one build: a site fires only while a plan is installed.
//! With none, [`hit`] costs one thread-local read and one relaxed
//! atomic load, and [`hit_with`] never runs its key closure. Per-site
//! injection counters ([`injected`]) are folded into the engine's run
//! report so a fault-matrix harness can assert that faults actually
//! fired.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of fault sites (the length of [`Site::ALL`]).
pub const SITE_COUNT: usize = 5;

/// A named fault point in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Inside `symexec::check`: the verdict degrades to a conservative
    /// rejection, as if the checker timed out.
    Symexec,
    /// Template emission during derivation: the candidate is treated as
    /// un-emittable and quarantined.
    Emit,
    /// Rule-store parsing: the entry is treated as corrupt; salvage
    /// mode quarantines it and loads the rest.
    Store,
    /// Inside a worker-pool task: the worker panics; the isolating map
    /// quarantines the item instead of propagating.
    Pool,
    /// Code-cache/translation lookup in the engine: the block fails to
    /// translate and execution degrades to the interpreter.
    Cache,
}

impl Site {
    /// Every site, in counter-index order.
    pub const ALL: [Site; SITE_COUNT] = [
        Site::Symexec,
        Site::Emit,
        Site::Store,
        Site::Pool,
        Site::Cache,
    ];

    /// The site's dense counter index.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Site::Symexec => 0,
            Site::Emit => 1,
            Site::Store => 2,
            Site::Pool => 3,
            Site::Cache => 4,
        }
    }

    /// The site's spec-syntax name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Site::Symexec => "symexec",
            Site::Emit => "emit",
            Site::Store => "store",
            Site::Pool => "pool",
            Site::Cache => "cache",
        }
    }

    /// Parses a spec-syntax site name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Site> {
        Site::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fault-injection plan: which sites fire, how often, under which
/// seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Seed mixed into every per-site decision.
    pub seed: u64,
    /// Per-key firing probability in `[0, 1]`.
    pub rate: f64,
    /// Bitmask of enabled sites (bit = [`Site::index`]).
    pub sites: u8,
}

impl Plan {
    /// A plan enabling a single site.
    #[must_use]
    pub fn single(site: Site, seed: u64, rate: f64) -> Plan {
        Plan {
            seed,
            rate,
            sites: 1 << site.index(),
        }
    }

    /// A plan enabling every site.
    #[must_use]
    pub fn all_sites(seed: u64, rate: f64) -> Plan {
        Plan {
            seed,
            rate,
            sites: (1 << SITE_COUNT) - 1,
        }
    }

    /// Parses the shared spec syntax, e.g.
    /// `seed=7,rate=0.01,sites=symexec,emit`. Fields may appear in any
    /// order; `sites` consumes the comma-separated names that follow it
    /// until the next `key=value` field. Omitted fields default to
    /// `seed=0`, `rate=1.0`, all sites.
    ///
    /// # Errors
    ///
    /// A description of the malformed field.
    pub fn parse(spec: &str) -> Result<Plan, String> {
        let mut plan = Plan {
            seed: 0,
            rate: 1.0,
            sites: (1 << SITE_COUNT) - 1,
        };
        let mut in_sites = false;
        for piece in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match piece.split_once('=') {
                Some(("seed", v)) => {
                    in_sites = false;
                    plan.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
                }
                Some(("rate", v)) => {
                    in_sites = false;
                    plan.rate = v.parse().map_err(|_| format!("bad rate `{v}`"))?;
                    if !(0.0..=1.0).contains(&plan.rate) {
                        return Err(format!("rate `{v}` outside [0, 1]"));
                    }
                }
                Some(("sites", v)) => {
                    in_sites = true;
                    plan.sites = 0;
                    if !v.is_empty() {
                        let site = Site::parse(v).ok_or_else(|| format!("unknown site `{v}`"))?;
                        plan.sites |= 1 << site.index();
                    }
                }
                Some((k, _)) => return Err(format!("unknown field `{k}`")),
                None if in_sites => {
                    let site =
                        Site::parse(piece).ok_or_else(|| format!("unknown site `{piece}`"))?;
                    plan.sites |= 1 << site.index();
                }
                None => return Err(format!("bad field `{piece}`")),
            }
        }
        Ok(plan)
    }
}

/// FNV-1a over raw bytes — the canonical way call sites derive a
/// stable `u64` key from an item's identity (never use a randomized
/// std hasher here: the decision must be identical across processes
/// and worker schedules).
#[must_use]
pub fn key_of(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Clone, Copy)]
struct State {
    seed: u64,
    /// `rate` pre-scaled to an integer threshold so the per-key
    /// decision is a single u64 compare.
    threshold: u64,
    sites: u8,
}

impl State {
    fn of(p: Plan) -> State {
        State {
            seed: p.seed,
            threshold: (p.rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64,
            sites: p.sites,
        }
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<State>> = Mutex::new(None);
static COUNTS: [AtomicU64; SITE_COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

thread_local! {
    /// Request-scoped overlay: `Some(Some(state))` = a scoped plan
    /// shadows the process plan on this thread, `Some(None)` = the
    /// thread is explicitly shielded (no faults at all, even with a
    /// process plan installed), `None` = fall through to the process
    /// plan.
    static SCOPED: Cell<Option<Option<State>>> = const { Cell::new(None) };
    /// Per-site injection counts of the innermost scoped plan.
    static SCOPED_COUNTS: RefCell<[u64; SITE_COUNT]> = const { RefCell::new([0; SITE_COUNT]) };
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Installs (or, with `None`, clears) the process-wide fault plan and
/// resets every injection counter.
pub fn configure(plan: Option<Plan>) {
    let state = plan.map(State::of);
    for c in &COUNTS {
        c.store(0, Ordering::SeqCst);
    }
    let active = state.is_some();
    *STATE.lock().expect("fault plan lock") = state;
    ACTIVE.store(active, Ordering::SeqCst);
}

/// Installs a plan from the `PDBT_FAULTS` environment variable.
/// Returns `Ok(true)` if a plan was installed, `Ok(false)` if the
/// variable is unset.
///
/// # Errors
///
/// The variable is set but malformed.
pub fn configure_from_env() -> Result<bool, String> {
    match std::env::var("PDBT_FAULTS") {
        Ok(spec) => {
            let plan = Plan::parse(&spec).map_err(|e| format!("PDBT_FAULTS: {e}"))?;
            configure(Some(plan));
            Ok(true)
        }
        Err(_) => Ok(false),
    }
}

/// Whether a fault plan is in force on this thread: its scoped plan,
/// or, with no scoped overlay, the process-wide one.
#[must_use]
pub fn active() -> bool {
    SCOPED.with(|s| match s.get() {
        Some(over) => over.is_some(),
        None => ACTIVE.load(Ordering::Relaxed),
    })
}

fn decide(state: State, site: Site, key: impl FnOnce() -> u64) -> bool {
    if state.sites & (1 << site.index()) == 0 {
        return false;
    }
    let decision = splitmix(
        state
            .seed
            .wrapping_add(splitmix(site.index() as u64 ^ splitmix(key()))),
    );
    decision < state.threshold
}

/// Decides whether the fault at `site` fires for `key`.
///
/// The decision is a pure function of `(plan seed, site, key)` — call
/// sites key by stable item identity (a candidate key, a file line, a
/// block address), never by call order, so injection is identical
/// under any worker schedule. A `true` return increments the site's
/// injection counter.
#[must_use]
pub fn hit(site: Site, key: u64) -> bool {
    hit_with(site, || key)
}

/// Like [`hit`], but computes the key lazily — the closure never runs
/// when no plan is in force, so call sites can hash item identity
/// without paying for it on the hot path.
#[must_use]
pub fn hit_with(site: Site, key: impl FnOnce() -> u64) -> bool {
    // The scoped overlay wins: it both arms per-request plans and
    // shields scoped threads from the process-wide plan.
    if let Some(over) = SCOPED.with(Cell::get) {
        let Some(state) = over else { return false };
        if decide(state, site, key) {
            SCOPED_COUNTS.with(|c| c.borrow_mut()[site.index()] += 1);
            return true;
        }
        return false;
    }
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    let Some(state) = *STATE.lock().expect("fault plan lock") else {
        return false;
    };
    if decide(state, site, key) {
        COUNTS[site.index()].fetch_add(1, Ordering::Relaxed);
        return true;
    }
    false
}

/// Per-site injection counts since the last [`configure`].
#[must_use]
pub fn injected() -> [u64; SITE_COUNT] {
    let mut out = [0u64; SITE_COUNT];
    for (o, c) in out.iter_mut().zip(&COUNTS) {
        *o = c.load(Ordering::Relaxed);
    }
    out
}

/// RAII guard for a request-scoped fault plan (see [`scoped`]): the
/// previous overlay and counts, restored on drop.
pub struct ScopedGuard {
    prev: Option<Option<State>>,
    prev_counts: [u64; SITE_COUNT],
}

impl Drop for ScopedGuard {
    fn drop(&mut self) {
        SCOPED.with(|s| s.set(self.prev));
        SCOPED_COUNTS.with(|c| *c.borrow_mut() = self.prev_counts);
    }
}

/// Installs a *request-scoped* fault plan on the current thread,
/// shadowing the process-wide plan until the returned guard drops.
///
/// `Some(plan)` arms the plan for this thread only, with its own
/// injection counters ([`scoped_injected`]); `None` explicitly
/// *shields* the thread — no faults fire even when a process-wide plan
/// is installed. Either way the process-wide plan and its counters are
/// untouched, so concurrent sessions of a translation server can arm
/// per-request plans without cross-talk.
///
/// Scoped plans do not propagate to threads spawned inside the scope
/// (worker pools see the process-wide plan); serve sessions run
/// single-threaded, which is what makes the scope airtight there.
/// Guards nest: dropping restores the previous overlay and counts.
#[must_use]
pub fn scoped(plan: Option<Plan>) -> ScopedGuard {
    let prev = SCOPED.with(|s| s.replace(Some(plan.map(State::of))));
    let prev_counts =
        SCOPED_COUNTS.with(|c| std::mem::replace(&mut *c.borrow_mut(), [0; SITE_COUNT]));
    ScopedGuard { prev, prev_counts }
}

/// Whether a scoped overlay (armed or shielding) is installed on the
/// current thread.
#[must_use]
pub fn scoped_active() -> bool {
    SCOPED.with(|s| s.get().is_some())
}

/// Per-site injection counts of the current thread's scoped plan
/// (zeros when none is installed).
#[must_use]
pub fn scoped_injected() -> [u64; SITE_COUNT] {
    SCOPED_COUNTS.with(|c| *c.borrow())
}

/// The injection counters that describe *this context*: the scoped
/// plan's counts when one is installed on the current thread, the
/// process-wide counts otherwise. Run reports snapshot through this so
/// a request-scoped session reports only its own faults.
#[must_use]
pub fn snapshot() -> [u64; SITE_COUNT] {
    if scoped_active() {
        scoped_injected()
    } else {
        injected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_fields_in_any_order() {
        let p = Plan::parse("seed=7,rate=0.25,sites=symexec,emit").unwrap();
        assert_eq!(p.seed, 7);
        assert!((p.rate - 0.25).abs() < 1e-12);
        assert_eq!(p.sites, 0b11);
        let p = Plan::parse("sites=cache,seed=9").unwrap();
        assert_eq!(p.seed, 9);
        assert_eq!(p.sites, 1 << Site::Cache.index());
        assert!((p.rate - 1.0).abs() < 1e-12);
        let p = Plan::parse("").unwrap();
        assert_eq!(p.sites, (1 << SITE_COUNT) - 1);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(Plan::parse("seed=x").is_err());
        assert!(Plan::parse("rate=2.0").is_err());
        assert!(Plan::parse("sites=bogus").is_err());
        assert!(Plan::parse("frobnicate=1").is_err());
        assert!(Plan::parse("cache").is_err(), "site name outside `sites=`");
    }

    #[test]
    fn site_names_roundtrip() {
        for s in Site::ALL {
            assert_eq!(Site::parse(s.name()), Some(s));
        }
        assert_eq!(Site::parse("nope"), None);
    }

    #[test]
    fn key_of_is_stable() {
        assert_eq!(key_of(b"abc"), key_of(b"abc"));
        assert_ne!(key_of(b"abc"), key_of(b"abd"));
    }

    /// The process-wide plan is global; tests that configure it take
    /// this lock.
    static PLAN: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn decisions_are_keyed_and_counted() {
        let _lock = PLAN.lock().unwrap();
        configure(Some(Plan::all_sites(42, 0.5)));
        let a: Vec<bool> = (0..256).map(|k| hit(Site::Emit, k)).collect();
        let b: Vec<bool> = (0..256).map(|k| hit(Site::Emit, k)).collect();
        assert_eq!(a, b, "same (seed, site, key) → same decision");
        let fired = a.iter().filter(|x| **x).count();
        assert!(fired > 64 && fired < 192, "rate≈0.5 fired {fired}/256");
        assert_eq!(injected()[Site::Emit.index()] as usize, 2 * fired);
        // Disabled sites never fire; clearing the plan resets counters.
        configure(Some(Plan::single(Site::Store, 42, 1.0)));
        assert!(!hit(Site::Emit, 1));
        assert!(hit(Site::Store, 1));
        configure(None);
        assert!(!hit(Site::Store, 1));
        assert_eq!(injected(), [0; SITE_COUNT]);
    }

    #[test]
    fn scoped_plans_shadow_and_shield() {
        let _lock = PLAN.lock().unwrap();
        configure(Some(Plan::single(Site::Store, 42, 1.0)));
        assert!(hit(Site::Store, 1));
        let global_before = injected()[Site::Store.index()];
        {
            // A scoped plan arms a different site and counts locally.
            let _g = scoped(Some(Plan::single(Site::Cache, 7, 1.0)));
            assert!(scoped_active());
            assert!(active());
            assert!(hit(Site::Cache, 9));
            assert!(
                !hit(Site::Store, 1),
                "the process plan is shadowed inside the scope"
            );
            assert_eq!(scoped_injected()[Site::Cache.index()], 1);
            assert_eq!(snapshot(), scoped_injected());
            // Nested shield: no faults at all.
            {
                let _inner = scoped(None);
                assert!(!active());
                assert!(!hit(Site::Cache, 9));
            }
            // Back in the armed scope after the shield drops.
            assert!(hit(Site::Cache, 9));
            assert_eq!(scoped_injected()[Site::Cache.index()], 2);
        }
        // The scope is gone: process plan visible again, its counters
        // untouched by the scoped firings.
        assert!(!scoped_active());
        assert_eq!(injected()[Site::Store.index()], global_before);
        assert_eq!(injected()[Site::Cache.index()], 0);
        assert!(hit(Site::Store, 1));
        assert_eq!(snapshot(), injected());
        // Scoped decisions are deterministic per (seed, site, key),
        // independent of the thread that evaluates them.
        let on_main: Vec<bool> = {
            let _g = scoped(Some(Plan::all_sites(11, 0.5)));
            (0..64).map(|k| hit(Site::Emit, k)).collect()
        };
        let on_thread: Vec<bool> = std::thread::spawn(|| {
            let _g = scoped(Some(Plan::all_sites(11, 0.5)));
            (0..64).map(|k| hit(Site::Emit, k)).collect()
        })
        .join()
        .unwrap();
        assert_eq!(on_main, on_thread);
        configure(None);
    }

    #[test]
    fn no_plan_fires_nothing_and_never_computes_a_key() {
        let _lock = PLAN.lock().unwrap();
        configure(None);
        assert!(!active());
        assert!(!hit(Site::Cache, 0));
        assert!(!hit_with(Site::Cache, || unreachable!(
            "key must stay lazy"
        )));
        assert_eq!(injected(), [0; SITE_COUNT]);
        // A shielding scope keeps a process plan off this thread, key
        // closure included.
        configure(Some(Plan::all_sites(1, 1.0)));
        {
            let _g = scoped(None);
            assert!(!active());
            assert!(!hit_with(Site::Cache, || unreachable!(
                "key must stay lazy"
            )));
            assert_eq!(snapshot(), [0; SITE_COUNT]);
        }
        assert!(hit(Site::Cache, 0));
        configure(None);
    }
}
