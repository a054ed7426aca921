//! Per-rule attribution counters.
//!
//! Rule labels (the `Display` form of a `ComboKey`, or a synthetic name
//! like `seq:...`) are interned once into a dense [`RuleId`] so the hot
//! path touches only `Vec` indexing. Two counts are kept per rule:
//!
//! * `static_hits` — how many times translation selected the rule
//!   (once per translated site), plus `static_misses` for lookups that
//!   found no rule;
//! * `dyn_covered` — how many *executed* guest instructions the rule
//!   supplied, i.e. static coverage weighted by block execution counts.
//!   Summed over all rules this equals the engine's `rule_covered`
//!   metric, so coverage decomposes exactly into per-rule shares.

use crate::json::{TextWriter, ToJson};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Dense handle for an interned rule label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RuleId(pub u32);

/// One rule's attribution row.
#[derive(Clone, Debug, Default)]
pub struct RuleRow {
    /// Display label (`add reg reg imm /00`, `seq:...`, `qemu:...`).
    pub label: String,
    /// Instruction-class subgroup the rule's root op belongs to
    /// (`Int/Dp/Alu` style), empty when not applicable.
    pub subgroup: String,
    /// Times translation instantiated this rule.
    pub static_hits: u64,
    /// Executed guest instructions this rule covered.
    pub dyn_covered: u64,
}

/// Interned per-rule hit/coverage counters plus a miss table.
#[derive(Clone, Debug, Default)]
pub struct RuleCounters {
    index: HashMap<String, RuleId>,
    rows: Vec<RuleRow>,
    /// Lookup misses keyed by the un-matched opcode/key label.
    misses: HashMap<String, u64>,
}

impl RuleCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `label`, recording `subgroup` on first sight.
    pub fn intern(&mut self, label: &str, subgroup: &str) -> RuleId {
        if let Some(&id) = self.index.get(label) {
            return id;
        }
        let id = RuleId(self.rows.len() as u32);
        self.index.insert(label.to_string(), id);
        self.rows.push(RuleRow {
            label: label.to_string(),
            subgroup: subgroup.to_string(),
            ..RuleRow::default()
        });
        id
    }

    #[inline]
    pub fn hit(&mut self, id: RuleId, n: u64) {
        self.rows[id.0 as usize].static_hits += n;
    }

    #[inline]
    pub fn covered(&mut self, id: RuleId, n: u64) {
        self.rows[id.0 as usize].dyn_covered += n;
    }

    /// Records a translate-time lookup that matched no rule.
    pub fn miss(&mut self, label: &str) {
        *self.misses.entry(label.to_string()).or_insert(0) += 1;
    }

    pub fn rows(&self) -> &[RuleRow] {
        &self.rows
    }

    /// Rows sorted by dynamic coverage, heaviest first.
    pub fn rows_by_coverage(&self) -> Vec<&RuleRow> {
        let mut v: Vec<_> = self.rows.iter().collect();
        v.sort_by(|a, b| {
            b.dyn_covered
                .cmp(&a.dyn_covered)
                .then(b.static_hits.cmp(&a.static_hits))
                .then(a.label.cmp(&b.label))
        });
        v
    }

    /// `(label, count)` miss rows, heaviest first.
    pub fn misses(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<_> = self.misses.iter().map(|(k, &n)| (k.as_str(), n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    pub fn total_static_hits(&self) -> u64 {
        self.rows.iter().map(|r| r.static_hits).sum()
    }

    pub fn total_covered(&self) -> u64 {
        self.rows.iter().map(|r| r.dyn_covered).sum()
    }

    pub fn total_misses(&self) -> u64 {
        self.misses.values().sum()
    }

    /// Per-subgroup `(subgroup, dyn_covered)` totals, heaviest first.
    /// Subgroups are few, so each row finds its total by a scan.
    pub fn coverage_by_subgroup(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = Vec::new();
        for r in self.rows.iter().filter(|r| !r.subgroup.is_empty()) {
            match v.iter_mut().find(|(subgroup, _)| *subgroup == r.subgroup) {
                Some((_, n)) => *n += r.dyn_covered,
                None => v.push((&r.subgroup, r.dyn_covered)),
            }
        }
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Folds `other` into `self`, re-interning by label.
    pub fn merge(&mut self, other: &RuleCounters) {
        for row in &other.rows {
            let id = self.intern(&row.label, &row.subgroup);
            self.rows[id.0 as usize].static_hits += row.static_hits;
            self.rows[id.0 as usize].dyn_covered += row.dyn_covered;
        }
        for (label, n) in &other.misses {
            *self.misses.entry(label.clone()).or_insert(0) += n;
        }
    }
}

/// Per-shard hit/miss counters for a sharded cache (the engine's code
/// cache). Indexed by shard; recording grows the vectors on demand so a
/// default-constructed instance can absorb any shard count, and
/// [`ShardCounters::merge`] aligns lengths, so per-run counters fold
/// into suite aggregates like the histograms do.
#[derive(Clone, Debug, Default)]
pub struct ShardCounters {
    hits: Vec<u64>,
    misses: Vec<u64>,
}

impl ShardCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter pre-sized to `n` shards, so exported per-shard rows
    /// have a deterministic length even for shards never touched.
    #[must_use]
    pub fn with_shards(n: usize) -> Self {
        ShardCounters {
            hits: vec![0; n],
            misses: vec![0; n],
        }
    }

    fn ensure(&mut self, shard: usize) {
        if shard >= self.hits.len() {
            self.hits.resize(shard + 1, 0);
            self.misses.resize(shard + 1, 0);
        }
    }

    #[inline]
    pub fn record_hit(&mut self, shard: usize) {
        self.ensure(shard);
        self.hits[shard] += 1;
    }

    #[inline]
    pub fn record_miss(&mut self, shard: usize) {
        self.ensure(shard);
        self.misses[shard] += 1;
    }

    /// Number of shards observed (or pre-sized).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.hits.len()
    }

    pub fn hits(&self) -> &[u64] {
        &self.hits
    }

    pub fn misses(&self) -> &[u64] {
        &self.misses
    }

    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Hit fraction over all shards (0.0 when nothing was recorded).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_hits() + self.total_misses();
        if total == 0 {
            return 0.0;
        }
        self.total_hits() as f64 / total as f64
    }

    /// Folds `other` into `self`, aligning shard-vector lengths. An
    /// empty `other` is a no-op (it must not pad `self` to one shard).
    pub fn merge(&mut self, other: &ShardCounters) {
        if other.hits.is_empty() {
            return;
        }
        self.ensure(other.hits.len() - 1);
        for (a, b) in self.hits.iter_mut().zip(&other.hits) {
            *a += b;
        }
        for (a, b) in self.misses.iter_mut().zip(&other.misses) {
            *a += b;
        }
    }
}

/// Per-worker task counters for a worker pool (the parallel
/// pre-translation and derivation stages). Worker `i` of a pool maps to
/// slot `i`; merging is element-wise with length alignment.
#[derive(Clone, Debug, Default)]
pub struct PoolCounters {
    tasks: Vec<u64>,
}

impl PoolCounters {
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter pre-sized to `n` worker slots, so `workers()` reports
    /// the *effective* pool width even before (or without) any pool
    /// invocation being recorded — a `jobs: 0` CLI request that clamps
    /// to one worker must surface as `workers: 1`, not `workers: 0`.
    #[must_use]
    pub fn with_workers(n: usize) -> Self {
        PoolCounters { tasks: vec![0; n] }
    }

    /// Adds one pool invocation's per-worker task counts.
    pub fn record(&mut self, per_worker: &[u64]) {
        if per_worker.len() > self.tasks.len() {
            self.tasks.resize(per_worker.len(), 0);
        }
        for (a, b) in self.tasks.iter_mut().zip(per_worker) {
            *a += b;
        }
    }

    /// Worker slots observed.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.tasks.len()
    }

    pub fn tasks(&self) -> &[u64] {
        &self.tasks
    }

    pub fn total(&self) -> u64 {
        self.tasks.iter().sum()
    }

    /// Folds `other` into `self`, aligning worker-vector lengths.
    pub fn merge(&mut self, other: &PoolCounters) {
        self.record(&other.tasks);
    }
}

/// One relaxed atomic statistic: a field of a shared counter family.
/// It publishes no other data, so every access is `Relaxed`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl From<u64> for Counter {
    fn from(n: u64) -> Counter {
        Counter(AtomicU64::new(n))
    }
}

/// A member an object holds beside its counters: a key and its value.
pub type Member<'a> = (&'a str, &'a dyn ToJson);

/// Counters and other members as one object's members, in key order:
/// `fields[i]` keyed to `values[i]`, taken in `order` (the indices of
/// `fields` in key order), merged with the runs of `extra` (each in key
/// order too), except the keys in `skip`. What `counter_family!`'s
/// `emit_with` and every section that adds to a family write through:
/// the writer writes members in the order they are said.
pub fn emit_counters<const N: usize>(
    out: &mut TextWriter<'_>,
    fields: &[&str],
    order: &[usize],
    values: &[u64],
    skip: &[&str],
    mut extra: [&[Member<'_>]; N],
) {
    for &i in order {
        let key = fields[i];
        while let Some((k, v)) = least(&mut extra, Some(key)) {
            if !skip.contains(k) {
                out.field(k, *v);
            }
        }
        if !skip.contains(&key) {
            out.key(key);
            out.uint(values[i]);
        }
    }
    while let Some((k, v)) = least(&mut extra, None) {
        if !skip.contains(k) {
            out.field(k, *v);
        }
    }
}

/// Takes the member with the least key off the front of `runs` (the
/// first run's on a tie), if it sorts before `before`; with `None`,
/// whatever it is.
fn least<'r, 'a>(runs: &mut [&'r [Member<'a>]], before: Option<&str>) -> Option<&'r Member<'a>> {
    let run = runs
        .iter_mut()
        .filter(|run| !run.is_empty())
        .min_by_key(|run| run[0].0)?;
    let (first, rest) = (*run).split_first()?;
    if before.is_some_and(|key| first.0 >= key) {
        return None;
    }
    *run = rest;
    Some(first)
}

/// Whether key `a` sorts before key `b`: byte order, which is `str`
/// order and the order of a `BTreeMap<String, _>`. Compared inline, as
/// a `const fn` must.
const fn key_less(a: &[u8], b: &[u8]) -> bool {
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

/// The indices of `fields` in the order of their keys: byte order, the
/// order a section says an object's members in.
#[must_use]
pub const fn key_order<const N: usize>(fields: &[&str]) -> [usize; N] {
    let mut order = [0; N];
    let mut i = 0;
    while i < N {
        order[i] = i;
        let mut j = i;
        while j > 0 && key_less(fields[order[j]].as_bytes(), fields[order[j - 1]].as_bytes()) {
            let moved = order[j];
            order[j] = order[j - 1];
            order[j - 1] = moved;
            j -= 1;
        }
        i += 1;
    }
    order
}

/// Declares a counter family from one table: each line is a doc
/// comment and a name, and the name is at once the `pub u64` field, the
/// entry in `FIELDS` and the JSON key.
///
/// ```text
/// counter_family! {
///     /// What the family measures.
///     pub struct Name {
///         /// What this counter counts.
///         some_counter,
///     }
/// }
/// ```
///
/// generates `struct Name` (`Clone`, `Debug`, `Default`, `PartialEq`,
/// `Eq`) with:
///
/// * `Name::FIELDS` — the names in table order;
/// * `values()` / `values_mut()` — the fields in that order, for code
///   that must treat every counter alike (the merge-law tests);
/// * `KEY_ORDER` — the indices of `FIELDS` in key order;
/// * `merge(&other)` — field-wise sum;
/// * `emit_with(out, extra)` — one member per line, into the object a
///   [`TextWriter`](crate::json::TextWriter) has open, with the `extra`
///   members merged in, all in key order; and
///   [`ToJson`](crate::json::ToJson): the family as a flat object.
///
/// A trailing `atomic pub struct Twin;` adds the shared twin — the same
/// names as `pub` [`Counter`] fields, bumped concurrently through
/// `twin.some_counter.inc()` — with `Default` and `snapshot() -> Name`.
///
/// A trailing `also { name: [u64; N] = op, }` block adds array fields
/// that `merge` folds element-wise with `op` (a `fn(u64, u64) -> u64`);
/// they are not in `FIELDS` and their members are written by hand.
///
/// What stays hand-written, beside the invocation: anything derived
/// from the counters (`hits`, `hit_rate`, `warm`, coverage ratios), the
/// JSON of the `also` arrays (their keys come from another enum), and
/// which section of a payload a family is rendered into. Adding a
/// counter is one table line plus `UPDATE_GOLDEN=1 cargo test --test
/// report_schema --test serve`.
#[macro_export]
macro_rules! counter_family {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident, )+
        }
        $( also {
            $( $(#[$ameta:meta])* $afield:ident : [u64; $alen:expr] = $aop:expr, )+
        } )?
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
            $($( $(#[$ameta])* pub $afield: [u64; $alen], )+)?
        }

        // A private family need not use every generated view.
        #[allow(dead_code)]
        impl $name {
            /// The counter names, in table order.
            pub const FIELDS: &'static [&'static str] = &[$(stringify!($field)),+];

            /// The indices of `FIELDS` in key order.
            pub const KEY_ORDER: [usize; $name::FIELDS.len()] =
                $crate::counters::key_order($name::FIELDS);

            /// The counters, in `FIELDS` order.
            #[must_use]
            pub fn values(&self) -> [u64; $name::FIELDS.len()] {
                [$(self.$field),+]
            }

            /// The counters, in `FIELDS` order.
            pub fn values_mut(&mut self) -> [&mut u64; $name::FIELDS.len()] {
                [$(&mut self.$field),+]
            }

            /// Folds `other` into `self` field-wise.
            pub fn merge(&mut self, other: &$name) {
                $( self.$field += other.$field; )+
                $($(
                    for (a, b) in self.$afield.iter_mut().zip(&other.$afield) {
                        *a = $aop(*a, *b);
                    }
                )+)?
            }

            /// One member per counter, into the object `out` has open,
            /// with `extra` members merged in: all in key order.
            pub fn emit_with(
                &self,
                out: &mut $crate::json::TextWriter<'_>,
                extra: &[$crate::counters::Member<'_>],
            ) {
                $crate::counters::emit_counters(
                    out,
                    Self::FIELDS,
                    &Self::KEY_ORDER,
                    &self.values(),
                    &[],
                    [extra],
                );
            }
        }

        /// The family as a flat JSON object.
        impl $crate::json::ToJson for $name {
            fn emit(&self, out: &mut $crate::json::TextWriter<'_>) {
                out.begin_obj();
                self.emit_with(out, &[]);
                out.end_obj();
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident, )+
        }
        $(#[$tmeta:meta])*
        atomic $tvis:vis struct $twin:ident;
    ) => {
        $crate::counter_family! {
            $(#[$meta])*
            $vis struct $name {
                $( $(#[$fmeta])* $field, )+
            }
        }

        $(#[$tmeta])*
        #[derive(Debug, Default)]
        $tvis struct $twin {
            $( $(#[$fmeta])* pub $field: $crate::counters::Counter, )+
        }

        #[allow(dead_code)]
        impl $twin {
            /// A point-in-time copy of the counters.
            #[must_use]
            pub fn snapshot(&self) -> $name {
                $name { $( $field: self.$field.get(), )+ }
            }
        }
    };
}

counter_family! {
    /// Dispatch hot-path counters: how block transitions were resolved
    /// (direct-mapped jump cache, inline chain links, or the full
    /// dispatcher) and how many hot traces were promoted to
    /// superblocks. The report's `dispatch` section.
    pub struct DispatchCounters {
        /// Direct-mapped jump-cache probes that hit.
        jump_cache_hits,
        /// Jump-cache probes that missed (fell through to the
        /// dispatcher).
        jump_cache_misses,
        /// Block transitions followed through an inline chain link
        /// without re-entering the dispatcher.
        chain_followed,
        /// Chain links lazily resolved (first follow, or re-resolved
        /// after an epoch bump).
        links_resolved,
        /// Hot traces promoted to superblocks.
        traces_formed,
        /// Superblock executions.
        trace_execs,
        /// Chain/jump-cache invalidation epochs (trace formation or a
        /// member block degrading).
        invalidations,
        /// Blocks compiled to threaded code by this session
        /// (first-execute lazy compiles; deterministic — one per
        /// distinct block executed).
        compiled_blocks,
        /// Wall-clock nanoseconds spent compiling threaded code.
        /// Timing, so the stripped report drops it.
        compile_ns,
    }
}

counter_family! {
    /// A point-in-time copy of [`ServerCounters`], the counters of the
    /// `server` section of PING and STATS.
    pub struct ServerSnapshot {
        /// Session-first-sight probes of the shared cache (one per
        /// distinct pc per session).
        probes,
        /// Translations that won the insert race: distinct blocks in
        /// the shared cache (the insert dedups, so exactly one per
        /// distinct pc server-wide).
        inserted,
        /// `translate_block` invocations, including race losers whose
        /// result was discarded (≥ `inserted`; the excess is duplicate
        /// work from insert races).
        translate_calls,
        /// Sessions that attached to the shared state.
        sessions,
        /// Blocks compiled to threaded code across all sessions (0
        /// under the model backend).
        compiled_blocks,
    }
    /// Server-lifetime shared-translation counters, updated
    /// concurrently by every session attached to one
    /// `SharedTranslationState`.
    ///
    /// What keeps them *deterministic* under concurrency: `probes` and
    /// `inserted` are schedule-independent, and `hits` is *derived* as
    /// `probes - inserted` — a session that raced another to translate
    /// the same block and lost counts as a hit; its duplicate work
    /// shows up only in `translate_calls`.
    atomic pub struct ServerCounters;
}

impl ServerSnapshot {
    /// Probes served without a new translation entering the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.probes.saturating_sub(self.inserted)
    }

    /// Fraction of probes served from the warm cache (0.0 when nothing
    /// was probed).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            return 0.0;
        }
        self.hits() as f64 / self.probes as f64
    }

    /// The `server` section's counter members, into the object `out`
    /// has open: the table plus the derived `hits` and `hit_rate`, less
    /// the keys in `skip`, with the members of `own` and `extra` (each
    /// in key order) merged in.
    pub fn emit_section(
        &self,
        out: &mut TextWriter<'_>,
        skip: &[&str],
        own: &[Member<'_>],
        extra: &[Member<'_>],
    ) {
        let (hit_rate, hits) = (self.hit_rate(), self.hits());
        let derived: [Member<'_>; 2] = [("hit_rate", &hit_rate), ("hits", &hits)];
        let values = self.values();
        emit_counters(
            out,
            Self::FIELDS,
            &Self::KEY_ORDER,
            &values,
            skip,
            [&derived, own, extra],
        );
    }
}

counter_family! {
    /// A point-in-time copy of [`ArtifactCounters`], read into the
    /// `partitions[]` rows of STATS.
    pub struct ArtifactSnapshot {
        /// Pre-translated blocks rehydrated into the shared cache at
        /// boot.
        loaded_blocks,
        /// Superblock traces loaded into the trace table at boot.
        loaded_traces,
        /// Rules carried by the artifact's embedded ruleset (0 when the
        /// artifact had no RULE section or it was quarantined).
        loaded_rules,
        /// Artifact sections whose checksum or parse failed and were
        /// quarantined at load (the rest of the artifact still boots).
        quarantined_sections,
        /// Trace formations served from the shared trace table — a
        /// boot artifact's trace or one an earlier session published —
        /// instead of a fresh `translate_trace` call.
        trace_hits,
    }
    /// Translation-artifact counters of one shared state: what a sealed
    /// `.pdba` artifact contributed at boot (set once, at load) plus
    /// the trace-table hits. A fresh state starts all-zero.
    atomic pub struct ArtifactCounters;
}

impl ArtifactSnapshot {
    /// Whether any artifact content reached this state.
    #[must_use]
    pub fn warm(&self) -> bool {
        self.loaded_blocks > 0 || self.loaded_traces > 0 || self.loaded_rules > 0
    }
}

counter_family! {
    /// A point-in-time copy of [`FleetCounters`]: the `fleet` section
    /// of the PING/STATS payloads.
    pub struct FleetSnapshot {
        /// Artifacts fetched from peers (boot pull or refresh tick),
        /// whether or not they were subsequently adopted.
        pulled,
        /// Artifacts served out to peers (answering their `ART_PULL`).
        pushed,
        /// Incoming artifacts that replaced (or created) a partition.
        adopted,
        /// Incoming artifacts refused: validation failure, fingerprint
        /// mismatch, or a stale generation.
        rejected,
        /// Partitions re-sealed to the artifact dir on drain.
        written_back,
        /// Total artifact payload bytes moved (in + out + written back).
        bytes,
    }
    /// Replication-plane counters of one serving daemon: what the fleet
    /// protocol (`ART_LIST`/`ART_PULL`/`ART_PUSH`) moved in and out, and
    /// what the drain write-back persisted. Server-global (not per
    /// partition), updated concurrently by the accept loop and the
    /// replication tick.
    atomic pub struct FleetCounters;
}

impl fmt::Display for RuleCounters {
    /// Human-readable table, heaviest coverage first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {:<40} {:<24} {:>8} {:>10}",
            "rule", "subgroup", "hits", "covered"
        )?;
        for r in self.rows_by_coverage() {
            writeln!(
                f,
                "  {:<40} {:<24} {:>8} {:>10}",
                r.label, r.subgroup, r.static_hits, r.dyn_covered
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    #[test]
    fn interning_is_stable_and_counts_accumulate() {
        let mut c = RuleCounters::new();
        let a = c.intern("add reg reg imm /00", "Int/Dp/Alu");
        let b = c.intern("ldr reg mem /01", "Int/Mem/Load");
        let a2 = c.intern("add reg reg imm /00", "Int/Dp/Alu");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        c.hit(a, 1);
        c.hit(a, 1);
        c.covered(a, 10);
        c.hit(b, 1);
        c.covered(b, 4);
        assert_eq!(c.total_static_hits(), 3);
        assert_eq!(c.total_covered(), 14);
        assert_eq!(c.rows_by_coverage()[0].label, "add reg reg imm /00");
    }

    #[test]
    fn merge_reinterns_by_label() {
        let mut a = RuleCounters::new();
        let ra = a.intern("add", "Int/Dp/Alu");
        a.hit(ra, 2);
        a.covered(ra, 20);
        a.miss("vadd");

        let mut b = RuleCounters::new();
        // Different interning order on the other side.
        let rb_other = b.intern("sub", "Int/Dp/Alu");
        let rb = b.intern("add", "Int/Dp/Alu");
        b.hit(rb, 3);
        b.covered(rb, 30);
        b.hit(rb_other, 1);
        b.covered(rb_other, 5);
        b.miss("vadd");
        b.miss("svc");

        a.merge(&b);
        assert_eq!(a.total_static_hits(), 6);
        assert_eq!(a.total_covered(), 55);
        assert_eq!(a.total_misses(), 3);
        let add = a.rows().iter().find(|r| r.label == "add").unwrap();
        assert_eq!(add.static_hits, 5);
        assert_eq!(add.dyn_covered, 50);
        assert_eq!(a.misses()[0], ("vadd", 2));
    }

    #[test]
    fn shard_counters_grow_merge_and_rate() {
        let mut a = ShardCounters::with_shards(4);
        assert_eq!(a.shards(), 4);
        a.record_hit(0);
        a.record_hit(0);
        a.record_miss(3);
        assert_eq!(a.total_hits(), 2);
        assert_eq!(a.total_misses(), 1);
        assert!((a.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        // A default-constructed counter grows on demand and merges in.
        let mut b = ShardCounters::new();
        b.record_hit(7);
        a.merge(&b);
        assert_eq!(a.shards(), 8);
        assert_eq!(a.hits()[7], 1);
        assert_eq!(a.total_hits(), 3);
        assert_eq!(ShardCounters::new().hit_rate(), 0.0);
    }

    #[test]
    fn pool_counters_accumulate_per_worker() {
        let mut p = PoolCounters::new();
        p.record(&[3, 1]);
        p.record(&[2, 2, 4]);
        assert_eq!(p.workers(), 3);
        assert_eq!(p.tasks(), &[5, 3, 4]);
        assert_eq!(p.total(), 12);
        let mut q = PoolCounters::new();
        q.merge(&p);
        assert_eq!(q.tasks(), p.tasks());
    }

    #[test]
    fn pool_counters_presized_report_effective_workers() {
        let p = PoolCounters::with_workers(4);
        assert_eq!(p.workers(), 4);
        assert_eq!(p.total(), 0);
        let mut p = PoolCounters::with_workers(1);
        // Recording a wider invocation still grows the vector.
        p.record(&[1, 2]);
        assert_eq!(p.workers(), 2);
        assert_eq!(p.tasks(), &[1, 2]);
    }

    counter_family! {
        /// A plain family with an array field folded by `max`.
        struct Sample {
            first,
            second,
        }
        also {
            peak: [u64; 2] = u64::max,
        }
    }

    counter_family! {
        struct Shot {
            seen,
            bytes,
        }
        atomic struct Shared;
    }

    #[test]
    fn counter_family_views_all_come_from_the_one_table() {
        assert_eq!(Sample::FIELDS, ["first", "second"]);
        let mut a = Sample {
            first: 1,
            second: 2,
            peak: [5, 0],
        };
        let b = Sample {
            first: 10,
            second: 20,
            peak: [3, 4],
        };
        a.merge(&b);
        assert_eq!(a.values(), [11, 22]);
        assert_eq!(a.peak, [5, 4], "`also` arrays fold with their own op");
        assert_eq!(a.to_json().to_string(), r#"{"first":11,"second":22}"#);
        let mut text = Vec::new();
        a.write_json(&mut text);
        assert_eq!(text, br#"{"first":11,"second":22}"#);
        for v in a.values_mut() {
            *v = 7;
        }
        assert_eq!((a.first, a.second), (7, 7));

        let shared = Shared::default();
        shared.seen.inc();
        shared.bytes.add(40);
        shared.bytes.add(2);
        assert_eq!(shared.snapshot(), Shot { seen: 1, bytes: 42 });
    }

    #[test]
    fn server_counters_derive_hits_from_probes_and_inserts() {
        let c = ServerCounters::default();
        // 3 sessions × 4 blocks probed; only the first session's 4
        // translations entered the cache, but one race loser also
        // called the translator.
        c.sessions.add(3);
        c.probes.add(12);
        c.inserted.add(4);
        c.translate_calls.add(5);
        let s = c.snapshot();
        assert_eq!(s.values(), [12, 4, 5, 3, 0]);
        assert_eq!(s.hits(), 8, "hits = probes - inserted");
        assert!((s.hit_rate() - 8.0 / 12.0).abs() < 1e-12);
        assert_eq!(ServerSnapshot::default().hit_rate(), 0.0);
        // Concurrent recording keeps the derived totals exact.
        std::thread::scope(|sc| {
            for _ in 0..4 {
                sc.spawn(|| {
                    for _ in 0..100 {
                        c.probes.inc();
                    }
                });
            }
        });
        assert_eq!(c.snapshot().probes, 412);
    }

    #[test]
    fn subgroup_rollup_sums_dynamic_coverage() {
        let mut c = RuleCounters::new();
        let a = c.intern("add", "Int/Dp/Alu");
        let s = c.intern("sub", "Int/Dp/Alu");
        let l = c.intern("ldr", "Int/Mem/Load");
        c.covered(a, 7);
        c.covered(s, 3);
        c.covered(l, 5);
        assert_eq!(
            c.coverage_by_subgroup(),
            vec![("Int/Dp/Alu", 10), ("Int/Mem/Load", 5)]
        );
    }
}
