//! The session block table and the dispatcher that reads it: the one
//! place that knows how a block is found, linked, heated, promoted and
//! invalidated. Every block a session adopted or formed sits once in
//! [`SessionTable::slots`] and is named by index everywhere else; the
//! segment loop in `engine.rs` asks for the next [`BlockId`] and
//! executes what [`SessionTable::cached`] returns.

use crate::cache::CachedBlock;
use crate::engine::Engine;
use crate::translate::{translate_trace, BlockSuccs, TranslateError, TranslatedBlock};
use pdbt_isa::Addr;
use pdbt_isa_arm::Program;
use pdbt_obs::RuleId;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Direct-mapped jump cache size (power of two). At 12 bytes a slot
/// this is a few KiB — small enough to stay cache-resident, large
/// enough that the workloads' working sets don't thrash it.
const JC_SIZE: usize = 1024;

/// The jump-cache slot an address maps to. Block starts are
/// word-aligned, so the two always-zero bits are dropped (same trick as
/// [`ShardedCache::shard_of`]).
fn jc_slot(pc: Addr) -> usize {
    ((pc >> 2) as usize) & (JC_SIZE - 1)
}

/// A block of this session, as the `pc` map, the jump cache, chain
/// links and a head's superblock name it: an index into the slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockId(u32);

/// One block of the session and its dispatch state. Plain fields: only
/// the session's one thread ever touches a slot.
#[derive(Debug)]
struct Slot {
    /// What a backend executes.
    cached: CachedBlock,
    /// Chain links of the direct-branch exits, each stamped with the
    /// epoch it was resolved in: `[0]` the branch-taken (or only)
    /// successor, `[1]` the fall-through of a conditional. A link is
    /// current while its epoch is the table's and its target is `live`.
    links: [Option<(BlockId, u32)>; 2],
    /// Times each edge was followed; picks the hotter side of a
    /// conditional when a trace is formed.
    edge: [u32; 2],
    /// Completed executions, for hot-trace promotion.
    hotness: u32,
    /// Cleared when a superblock is dropped: links into it re-resolve.
    live: bool,
    /// On a plain block, the superblock it heads. Preferred over the
    /// block itself by the dispatcher once formed.
    trace: Option<BlockId>,
    /// On a plain block, whether a trace was attempted from it
    /// (successful or not) — each head is tried once.
    trace_attempted: bool,
}

impl Slot {
    /// Whether the block has `pc` as a direct-branch successor.
    fn targets(&self, pc: Addr) -> bool {
        match self.cached.block.succ {
            BlockSuccs::One(t) => t == pc,
            BlockSuccs::Two { taken, fall } => taken == pc || fall == pc,
            BlockSuccs::None => false,
        }
    }
}

/// The session block table: every block this session adopted or formed,
/// and every way the dispatcher finds one.
#[derive(Debug)]
pub(crate) struct SessionTable {
    /// Plain blocks and superblocks, in adoption order; never shrinks,
    /// so a [`BlockId`] stays valid for the session.
    slots: Vec<Slot>,
    /// The plain block adopted at each guest pc.
    by_pc: HashMap<Addr, BlockId>,
    /// Direct-mapped `pc → block` cache probed before anything else: one
    /// array index, no hashing. A slot holds the full key because
    /// distinct pcs alias the same slot.
    jump_cache: Box<[Option<(Addr, BlockId)>]>,
    /// Current invalidation epoch; chain links resolved under an older
    /// epoch are stale and re-resolve.
    epoch: u32,
    /// Blocks that degraded to the interpreter (translation fault):
    /// never chained through, and traces containing them are dropped.
    poisoned: HashSet<Addr>,
}

impl Default for SessionTable {
    fn default() -> SessionTable {
        SessionTable {
            slots: Vec::new(),
            by_pc: HashMap::new(),
            jump_cache: vec![None; JC_SIZE].into_boxed_slice(),
            epoch: 0,
            poisoned: HashSet::new(),
        }
    }
}

impl SessionTable {
    fn slot(&self, id: BlockId) -> &Slot {
        &self.slots[id.0 as usize]
    }

    fn slot_mut(&mut self, id: BlockId) -> &mut Slot {
        &mut self.slots[id.0 as usize]
    }

    fn push(&mut self, cached: CachedBlock) -> BlockId {
        let id = BlockId(u32::try_from(self.slots.len()).expect("block table outgrew u32"));
        self.slots.push(Slot {
            cached,
            links: [None; 2],
            edge: [0; 2],
            hotness: 0,
            live: true,
            trace: None,
            trace_attempted: false,
        });
        id
    }

    /// The block a backend executes for `id`.
    pub(crate) fn cached(&self, id: BlockId) -> &CachedBlock {
        &self.slot(id).cached
    }

    /// Whether a plain block was adopted at `pc`.
    pub(crate) fn contains(&self, pc: Addr) -> bool {
        self.by_pc.contains_key(&pc)
    }

    /// Counts one completed execution of the plain block `id` and says
    /// whether that made it hot: it just reached `threshold` and no
    /// trace was attempted from it yet.
    pub(crate) fn heat(&mut self, id: BlockId, threshold: u32) -> bool {
        let slot = self.slot_mut(id);
        slot.hotness = slot.hotness.wrapping_add(1);
        slot.hotness == threshold.max(1) && !slot.trace_attempted
    }

    /// The live superblocks, each with the plain block that heads it.
    fn traces(&self) -> impl Iterator<Item = (BlockId, BlockId)> + '_ {
        (0u32..)
            .map(BlockId)
            .zip(&self.slots)
            .filter_map(|(head, s)| Some((head, s.trace?)))
    }
}

impl Engine {
    /// Adopts a shared translation into this session at first
    /// session-local sight: folds its static footprint — block/host
    /// counts, attribution interning and static hits, lookup misses —
    /// into the session counters and gives it a slot with fresh
    /// dispatch state. The fold happens whether or not *this* session
    /// produced the translation; that is the invariant that keeps a
    /// warm-cache session's report bit-identical to a cold run.
    pub(crate) fn adopt(&mut self, pc: Addr, block: Arc<TranslatedBlock>) -> BlockId {
        self.metrics.blocks_translated += 1;
        self.metrics.host_generated += block.code.len() as u64;
        // Intern this block's rule attributions once; executions only
        // bump dense counters.
        let attr_ids: Vec<(RuleId, u32)> = block
            .attributions
            .iter()
            .map(|a| {
                let id = self.obs.rules.intern(&a.label, &a.subgroup);
                self.obs.rules.hit(id, 1);
                (id, a.covered)
            })
            .collect();
        for miss in &block.lookup_misses {
            self.obs.rules.miss(miss);
        }
        let id = self.table.push(CachedBlock::new(block, attr_ids));
        self.table.by_pc.insert(pc, id);
        id
    }

    /// Resolves the plain block at `pc` for this session: session block
    /// table, then the shared cache, then the translator. The shard
    /// hit/miss counters record *session-local* sights (hit = seen
    /// before in this session), so they are identical for a cold and a
    /// warm shared cache; the cross-session sharing shows up only in
    /// the server-lifetime counters.
    fn block(&mut self, prog: &Program, pc: Addr) -> Result<BlockId, TranslateError> {
        // Fault site `cache`: keyed by pc so the same blocks fail on
        // every run with the same plan, cached or not. `run` degrades a
        // translation failure to the interpreter, so this exercises the
        // per-block fallback path.
        if pdbt_faults::hit(pdbt_faults::Site::Cache, u64::from(pc)) {
            return Err(TranslateError {
                detail: format!("injected fault: cache/translation failed at {pc:#x}"),
            });
        }
        let shard = self.shared.cache().shard_of(pc);
        if let Some(&id) = self.table.by_pc.get(&pc) {
            self.obs.cache.record_hit(shard);
            return Ok(id);
        }
        self.obs.cache.record_miss(shard);
        let (translation, ns) = self
            .shared
            .fetch_or_translate(prog, pc, &self.cfg.translate)?;
        self.record_translate_ns(ns);
        // One probe per distinct pc per session, counted only for
        // successful resolutions — so the server counters stay
        // schedule-independent (see `ServerCounters`).
        self.shared.server().probes.inc();
        Ok(self.adopt(pc, translation))
    }

    /// Whether executing `id` in full keeps the run within the guest
    /// budget. Plain blocks always qualify — the dispatcher's per-block
    /// budget check already ran, and a partial final block is fine
    /// (matches the unchained engine). Superblocks retire in member
    /// granularity, so they only run when the *whole* trace fits: every
    /// per-member budget check of the unchained engine would then have
    /// passed, keeping `guest_retired` identical. Otherwise the
    /// dispatcher falls back to plain blocks.
    fn budget_ok(&self, id: BlockId, retired: u64, max_guest: u64) -> bool {
        let b = &self.table.cached(id).block;
        b.member_marks.is_empty() || retired + u64::from(b.guest_len) <= max_guest
    }

    /// The dispatcher's slow path: the superblock headed at `pc`
    /// (budget allowing), then the plain block.
    fn resolve_slow(
        &mut self,
        prog: &Program,
        pc: Addr,
        retired: u64,
        max_guest: u64,
    ) -> Result<BlockId, TranslateError> {
        if self.cfg.traces {
            let head = self.table.by_pc.get(&pc);
            if let Some(t) = head.and_then(|&head| self.table.slot(head).trace) {
                if self.budget_ok(t, retired, max_guest) {
                    return Ok(t);
                }
            }
        }
        self.block(prog, pc)
    }

    /// Resolves the block to execute at `pc`: the direct-mapped jump
    /// cache first (hash-free), then the slow path. The jump cache is
    /// refilled on miss — except when the slow path had to bypass a
    /// budget-blocked superblock, which must not evict the trace's
    /// jump-cache entry semantics (the plain block is a one-off near
    /// the budget edge).
    pub(crate) fn resolve_entry(
        &mut self,
        prog: &Program,
        pc: Addr,
        retired: u64,
        max_guest: u64,
    ) -> Result<BlockId, TranslateError> {
        if !self.cfg.chaining {
            return self.resolve_slow(prog, pc, retired, max_guest);
        }
        let slot = jc_slot(pc);
        if let Some((key, id)) = self.table.jump_cache[slot] {
            if key == pc && self.budget_ok(id, retired, max_guest) {
                self.obs.dispatch.jump_cache_hits += 1;
                return Ok(id);
            }
        }
        self.obs.dispatch.jump_cache_misses += 1;
        let id = self.resolve_slow(prog, pc, retired, max_guest)?;
        // Only a plain block heads a trace, and the slow path returns
        // it only when that trace did not fit.
        let bypassed_trace = self.cfg.traces && self.table.slot(id).trace.is_some();
        if !bypassed_trace {
            self.table.jump_cache[slot] = Some((pc, id));
        }
        Ok(id)
    }

    /// Follows (resolving lazily) the chain link of `cur` for the
    /// observed exit to `next`. Returns `None` when the edge is not a
    /// direct-branch successor, resolution fails (the dispatcher's
    /// degradation path handles it), or the budget guard rejects a
    /// superblock — the caller re-enters the dispatcher. A current
    /// link costs an index, an epoch compare and a `live` test.
    pub(crate) fn follow_link(
        &mut self,
        prog: &Program,
        cur: BlockId,
        next: Addr,
        retired: u64,
        max_guest: u64,
    ) -> Option<BlockId> {
        let slot = self.table.slot_mut(cur);
        let edge = match slot.cached.block.succ {
            BlockSuccs::One(t) if t == next => 0,
            BlockSuccs::Two { taken, .. } if taken == next => 0,
            BlockSuccs::Two { fall, .. } if fall == next => 1,
            _ => return None,
        };
        slot.edge[edge] = slot.edge[edge].wrapping_add(1);
        let link = slot.links[edge];
        let target = match link {
            Some((target, epoch)) if epoch == self.table.epoch && self.table.slot(target).live => {
                target
            }
            // Stale, unresolved or into a dropped superblock: resolve
            // through the dispatcher's slow path and install the link.
            // Resolution failure (an injected translation fault) leaves
            // the link as it was; the dispatcher's own attempt at
            // `next` handles degradation.
            _ => {
                let resolved = self.resolve_slow(prog, next, retired, max_guest).ok()?;
                self.table.slot_mut(cur).links[edge] = Some((resolved, self.table.epoch));
                self.obs.dispatch.links_resolved += 1;
                resolved
            }
        };
        if !self.budget_ok(target, retired, max_guest) {
            return None;
        }
        self.obs.dispatch.chain_followed += 1;
        Some(target)
    }

    /// Attempts to promote the hot chain headed at `head` into a
    /// superblock: walks the static successor links (picking the hotter
    /// edge of conditionals), retranslates the member sequence as one
    /// trace, and gives it a slot the head points to. Each head is
    /// attempted once; failures (short chains, indirect exits,
    /// unsupported shapes) are permanent no-ops.
    pub(crate) fn form_trace(&mut self, prog: &Program, head: BlockId) {
        const MAX_MEMBERS: usize = 8;
        self.table.slot_mut(head).trace_attempted = true;
        let mut members = vec![self.table.cached(head).block.start];
        let mut cur = head;
        while members.len() < MAX_MEMBERS {
            let slot = self.table.slot(cur);
            let next = match slot.cached.block.succ {
                BlockSuccs::One(t) => t,
                BlockSuccs::Two { taken, .. } if slot.edge[0] >= slot.edge[1] => taken,
                BlockSuccs::Two { fall, .. } => fall,
                BlockSuccs::None => break,
            };
            // Loop closure: stop extending when the trace would revisit
            // a member (the backedge exits to the trace head, which the
            // jump cache catches).
            if members.contains(&next) || self.table.poisoned.contains(&next) {
                break;
            }
            let Ok(b) = self.block(prog, next) else { break };
            members.push(next);
            cur = b;
        }
        if members.len() < 2 {
            return;
        }
        // The boot artifact's superblock library is consulted *after*
        // member selection: on an exact member-list match the stored
        // translation is reused (translation is deterministic, so it
        // equals what `translate_trace` would produce and the stripped
        // report stays bit-identical to a cold run); any other member
        // choice simply misses and retranslates.
        let tb = match self.shared.library_trace(&members) {
            Some(t) => {
                self.shared.artifact().trace_hits.inc();
                t
            }
            None => {
                // Timed like `block`'s translation: a trace is translated
                // work, and most of a cold run's at that.
                let t0 = pdbt_obs::now_ns();
                let translated =
                    translate_trace(prog, &members, self.shared.rules(), &self.cfg.translate);
                self.record_translate_ns(Some(pdbt_obs::now_ns().saturating_sub(t0)));
                let Ok(tb) = translated else {
                    return;
                };
                Arc::new(tb)
            }
        };
        // Intern attribution ids only — no static `hit` and no miss
        // recording: the members' own translations already counted
        // them, and a superblock must not perturb the static rule
        // counters relative to the unchained engine. Superblocks are
        // session-local (member choice follows session edge counters),
        // so the trace translation stays out of the shared cache.
        let attr_ids: Vec<(RuleId, u32)> = tb
            .attributions
            .iter()
            .map(|a| (self.obs.rules.intern(&a.label, &a.subgroup), a.covered))
            .collect();
        let trace = self.table.push(CachedBlock::new(tb, attr_ids));
        self.table.slot_mut(head).trace = Some(trace);
        self.obs.dispatch.traces_formed += 1;
        // Links into the old head block must re-route through the
        // dispatcher to pick the trace up.
        self.bump_epoch();
    }

    /// Advances the invalidation epoch: every chain link goes stale at
    /// once, without any slot being walked, and the jump cache empties.
    fn bump_epoch(&mut self) {
        self.table.epoch = self.table.epoch.wrapping_add(1);
        self.table.jump_cache.fill(None);
        self.obs.dispatch.invalidations += 1;
    }

    /// Scoped invalidation when the block at `pc` degrades to the
    /// interpreter: drop only the superblocks actually containing it,
    /// scrub only the jump-cache slots holding it (or a dropped trace),
    /// clear only the chain links of plain blocks with `pc` as a
    /// successor, and bar it from future traces. Everything else
    /// survives — a poisoned pc in one corner of the program must not
    /// cold-start the rest. Links *into* a dropped trace need no epoch
    /// bump: its slot is no longer `live`, so the next follow
    /// re-resolves through the dispatcher.
    pub(crate) fn invalidate_for(&mut self, pc: Addr) {
        if !(self.cfg.chaining || self.cfg.traces) || !self.table.poisoned.insert(pc) {
            return;
        }
        let table = &mut self.table;
        let mut scrub = vec![pc];
        for (head, trace) in table.traces().collect::<Vec<_>>() {
            let marks = &table.cached(trace).block.member_marks;
            if marks.iter().any(|m| m.start == pc) {
                table.slot_mut(trace).live = false;
                table.slot_mut(head).trace = None;
                scrub.push(table.cached(head).block.start);
            }
        }
        for entry in table.jump_cache.iter_mut() {
            if entry.is_some_and(|(key, _)| scrub.contains(&key)) {
                *entry = None;
            }
        }
        // The poisoned pc's plain block keeps its slot, so links
        // targeting it are cleared explicitly: the next follow goes
        // through the dispatcher and its fault check.
        for &id in table.by_pc.values() {
            let slot = &mut table.slots[id.0 as usize];
            if slot.targets(pc) {
                slot.links = [None; 2];
            }
        }
        self.obs.dispatch.invalidations += 1;
    }

    /// A copy of every superblock this session formed, sorted by head
    /// address — the canonical order translation artifacts persist them
    /// in. The member list of each trace is recoverable from its
    /// `member_marks`, which is how an artifact loader keys the
    /// library.
    #[must_use]
    pub fn export_traces(&self) -> Vec<TranslatedBlock> {
        let mut traces: Vec<TranslatedBlock> = self
            .table
            .traces()
            .map(|(_, t)| (*self.table.cached(t).block).clone())
            .collect();
        traces.sort_unstable_by_key(|t| t.start);
        traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, Outcome, RunSetup};
    use pdbt_isa_arm::builders as g;
    use pdbt_isa_arm::{Operand as O, Program, Reg};

    /// Two independent two-block loops (each body split by an
    /// unconditional branch, so hot chains span multiple members and
    /// superblocks can form).
    fn two_loop_program() -> Program {
        Program::new(
            0x1000,
            vec![
                g::mov(Reg::R0, O::Imm(80)),                  // 0x1000
                g::sub(Reg::R0, Reg::R0, O::Imm(1)).with_s(), // 0x1004: A1
                g::b(pdbt_isa::Cond::Al, 8),                  // 0x1008 -> 0x1010
                g::svc(0),                                    // 0x100c (dead)
                g::add(Reg::R1, Reg::R1, O::Imm(1)),          // 0x1010: A2
                g::b(pdbt_isa::Cond::Ne, -16),                // 0x1014 -> 0x1004
                g::mov(Reg::R2, O::Imm(80)),                  // 0x1018
                g::sub(Reg::R2, Reg::R2, O::Imm(1)).with_s(), // 0x101c: B1
                g::b(pdbt_isa::Cond::Al, 8),                  // 0x1020 -> 0x1028
                g::svc(0),                                    // 0x1024 (dead)
                g::add(Reg::R3, Reg::R3, O::Imm(1)),          // 0x1028: B2
                g::b(pdbt_isa::Cond::Ne, -16),                // 0x102c -> 0x101c
                g::svc(0),                                    // 0x1030
            ],
        )
    }

    /// An engine that ran [`two_loop_program`] twice: the first run
    /// promotes both loops, the rerun (no head is tried twice, so no
    /// epoch moves) leaves every link it followed current.
    fn two_loop_engine() -> Engine {
        let cfg = EngineConfig {
            trace_threshold: 5,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(None, cfg);
        let setup = RunSetup::basic(0x10_0000, 0x1000, 0x8_0000, 0x1000);
        for _ in 0..2 {
            let report = engine.run(&two_loop_program(), &setup).unwrap();
            assert_eq!(report.outcome, Outcome::Completed);
        }
        assert!(engine.table.traces().count() >= 2, "both loops promoted");
        engine
    }

    /// Every chain link of every slot, as stored.
    fn all_links(engine: &Engine) -> Vec<[Option<(BlockId, u32)>; 2]> {
        engine.table.slots.iter().map(|s| s.links).collect()
    }

    /// Poisoning a pc drops exactly the superblocks containing it and
    /// clears exactly the links of the plain blocks it succeeds. A link
    /// that was resolved to a dropped superblock lands on the plain
    /// block at its next follow, for one `links_resolved` tick; every
    /// other link is followed as it stands; the export omits the drop.
    #[test]
    fn poisoning_a_pc_takes_only_what_leads_to_it() {
        let prog = two_loop_program();
        let mut engine = two_loop_engine();
        // Loop B has two superblocks, [B1, B2] and [B2, B1]; plain B1
        // chains into the second, and only plain B2 leads to B1.
        let (b1, b2) = (engine.table.by_pc[&0x101c], engine.table.by_pc[&0x1028]);
        let trace = engine.table.slot(b2).trace.expect("loop B promoted");
        let epoch = engine.table.epoch;
        assert_eq!(engine.table.slot(b1).links[0], Some((trace, epoch)));
        let mut links = all_links(&engine);
        let jump_cache = engine.table.jump_cache.clone();
        let mut exported = engine.export_traces();
        let invalidations = engine.obs.dispatch.invalidations;
        let resolved = engine.obs.dispatch.links_resolved;

        engine.invalidate_for(0x101c);
        engine.invalidate_for(0x101c); // Already poisoned: not an invalidation.

        assert_eq!(engine.obs.dispatch.invalidations, invalidations + 1);
        assert!(
            engine.table.poisoned.contains(&0x101c),
            "barred from traces"
        );
        assert!(!engine.table.slot(trace).live);
        assert_eq!(engine.table.traces().count(), exported.len() - 2);
        links[b2.0 as usize] = [None; 2];
        assert_eq!(all_links(&engine), links, "no other link was written");
        for (before, after) in jump_cache.iter().zip(engine.table.jump_cache.iter()) {
            let scrubbed = matches!(before, Some((0x101c | 0x1028, _)));
            assert_eq!(*after, if scrubbed { None } else { *before });
        }
        exported.retain(|t| !matches!(t.start, 0x101c | 0x1028));
        assert!(!exported.is_empty() && exported.windows(2).all(|w| w[0].start < w[1].start));
        assert_eq!(engine.export_traces(), exported);

        // The link into the dropped superblock: one re-resolution, to
        // plain B2, then current again.
        for _ in 0..2 {
            let next = engine.follow_link(&prog, b1, 0x1028, 0, u64::MAX);
            assert_eq!(next, Some(b2));
            assert_eq!(engine.obs.dispatch.links_resolved, resolved + 1);
        }
        // Every other current link: followed as it stands.
        let mut followed = 0;
        for (id, links) in (0u32..).map(BlockId).zip(links) {
            for (target, stamped) in links.into_iter().flatten() {
                if stamped == epoch && engine.table.slot(target).live && engine.table.slot(id).live
                {
                    let next = engine.table.cached(target).block.start;
                    let got = engine.follow_link(&prog, id, next, 0, u64::MAX);
                    assert_eq!(got, Some(target));
                    followed += 1;
                }
            }
        }
        assert!(followed > 0, "loop A's chains are current");
        assert_eq!(engine.obs.dispatch.links_resolved, resolved + 1);
    }

    /// An epoch bump empties the jump cache and stales every link by
    /// moving the epoch alone: no slot is written.
    #[test]
    fn an_epoch_bump_stales_every_link_without_touching_one() {
        let mut engine = two_loop_engine();
        let links = all_links(&engine);
        assert!(links.iter().flatten().any(Option::is_some));
        assert!(engine.table.jump_cache.iter().any(Option::is_some));
        engine.bump_epoch();
        assert!(engine.table.jump_cache.iter().all(Option::is_none));
        assert_eq!(all_links(&engine), links);
        let epoch = engine.table.epoch;
        assert!(links.iter().flatten().flatten().all(|l| l.1 != epoch));
    }

    /// A session moves to the thread that runs it, and a chain link is
    /// two words and a tag.
    #[test]
    fn engine_is_send_and_a_link_is_small() {
        fn assert_send<T: Send>() {}
        assert_send::<Engine>();
        assert!(std::mem::size_of::<Option<(BlockId, u32)>>() <= 12);
    }
}
