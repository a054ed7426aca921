//! The sharded code cache: translated blocks keyed by guest address
//! (paper §V-B1), split across independently locked shards.
//!
//! The cache stores *pure translations* (`Arc<TranslatedBlock>`): the
//! immutable, session-independent product of `translate_block`, the
//! only thing sessions and prewarm workers share. What a session layers
//! on top — interned attribution ids and compiled code in a
//! [`CachedBlock`], chain links, hotness and edge counters in the block
//! table slot that holds it — is private to the session and its one
//! thread. That split is what lets one warm cache serve many concurrent
//! sessions (`pdbt serve`) while every session's dispatch behaviour and
//! report stay bit-identical to a run against a cold, exclusively owned
//! engine.
//!
//! The access pattern is read-mostly — every block is translated once
//! and then fetched on each session's first sight — so translations
//! live behind per-shard `RwLock`s and are handed out as [`Arc`]s: a
//! fetch takes one shard's read lock for a hash probe and never blocks
//! readers of other shards, which is what lets prewarm fan translation
//! out across workers while dispatchers keep running.

use crate::translate::TranslatedBlock;
use pdbt_isa::Addr;
use pdbt_isa_x86::ThreadedCode;
use pdbt_obs::RuleId;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// One shard: a locked address → translation map.
type Shard = RwLock<HashMap<Addr, Arc<TranslatedBlock>>>;

/// The block a backend executes: the shared translation, the session's
/// pre-interned attribution ids — `(rule id, per-execution coverage)`
/// pairs resolved once at adoption time so block executions only bump
/// dense counters — and the threaded code compiled from it. A session
/// holds each one exactly once, in a slot of its block table
/// (`session.rs`), which keeps the dispatch state (links, edge counts,
/// hotness) beside it; nothing here is shared between sessions or
/// threads.
#[derive(Debug)]
pub struct CachedBlock {
    /// The shared, immutable translation.
    pub block: Arc<TranslatedBlock>,
    /// Interned rule attributions (session-local ids).
    pub attr_ids: Vec<(RuleId, u32)>,
    /// Threaded code, compiled lazily on the block's *first execute*
    /// (never at adopt/prewarm time, so the `compiled_blocks` counter
    /// stays deterministic across worker counts and warm boots — see
    /// the counter-neutral rule in DESIGN §16). Empty forever under
    /// the model backend.
    pub compiled: OnceLock<ThreadedCode>,
}

impl CachedBlock {
    /// Wraps a translation, not yet compiled.
    #[must_use]
    pub fn new(block: Arc<TranslatedBlock>, attr_ids: Vec<(RuleId, u32)>) -> CachedBlock {
        CachedBlock {
            block,
            attr_ids,
            compiled: OnceLock::new(),
        }
    }
}

/// A code cache of `N` independently locked shards (`N` is the
/// requested count rounded up to a power of two), storing shared
/// translations.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Box<[Shard]>,
}

impl ShardedCache {
    /// Creates a cache with at least `shards` shards.
    #[must_use]
    pub fn new(shards: usize) -> ShardedCache {
        let n = shards.max(1).next_power_of_two();
        ShardedCache {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    /// The shard count.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an address lands in. Block starts are word-aligned, so
    /// the two always-zero bits are dropped to spread consecutive
    /// blocks across shards.
    #[must_use]
    pub fn shard_of(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & (self.shards.len() - 1)
    }

    /// Fetches the translation at `pc` under its shard's read lock.
    #[must_use]
    pub fn get(&self, pc: Addr) -> Option<Arc<TranslatedBlock>> {
        self.shards[self.shard_of(pc)]
            .read()
            .expect("cache shard poisoned")
            .get(&pc)
            .cloned()
    }

    /// Inserts a translation, returning the cached `Arc` and whether it
    /// was new. When another insert won the race the existing
    /// translation is kept — translation is deterministic, so the two
    /// are identical (the loser's duplicate work is visible only as an
    /// extra `translate_calls` tick in the server counters).
    pub fn insert(&self, pc: Addr, block: TranslatedBlock) -> (Arc<TranslatedBlock>, bool) {
        use std::collections::hash_map::Entry;
        let mut shard = self.shards[self.shard_of(pc)]
            .write()
            .expect("cache shard poisoned");
        match shard.entry(pc) {
            Entry::Occupied(e) => (e.get().clone(), false),
            Entry::Vacant(v) => (v.insert(Arc::new(block)).clone(), true),
        }
    }

    /// A point-in-time copy of every cached translation, sorted by
    /// guest address — the canonical order persisted translation
    /// artifacts use, so sealing the same cache twice yields identical
    /// bytes regardless of shard geometry or insertion schedule.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(Addr, Arc<TranslatedBlock>)> {
        let mut all: Vec<(Addr, Arc<TranslatedBlock>)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("cache shard poisoned")
                    .iter()
                    .map(|(pc, b)| (*pc, b.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable_by_key(|(pc, _)| *pc);
        all
    }

    /// Cached block count across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether no blocks are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_block(start: Addr) -> TranslatedBlock {
        TranslatedBlock {
            start,
            code: Vec::new(),
            classes: Vec::new(),
            guest_len: 1,
            rule_covered: 0,
            attributions: Vec::new(),
            lookup_misses: Vec::new(),
            deleg: None,
            succ: crate::translate::BlockSuccs::None,
            member_marks: Vec::new(),
        }
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(ShardedCache::new(0).shard_count(), 1);
        assert_eq!(ShardedCache::new(1).shard_count(), 1);
        assert_eq!(ShardedCache::new(5).shard_count(), 8);
        assert_eq!(ShardedCache::new(8).shard_count(), 8);
    }

    #[test]
    fn word_aligned_addresses_spread_over_shards() {
        let cache = ShardedCache::new(8);
        let shards: Vec<usize> = (0..8u32).map(|i| cache.shard_of(0x1000 + i * 4)).collect();
        let mut unique = shards.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            8,
            "consecutive blocks land in distinct shards"
        );
    }

    #[test]
    fn insert_get_and_racing_insert() {
        let cache = ShardedCache::new(4);
        assert!(cache.get(0x1000).is_none());
        let (a, new) = cache.insert(0x1000, dummy_block(0x1000));
        assert!(new);
        let (b, new) = cache.insert(0x1000, dummy_block(0x1000));
        assert!(!new, "second insert keeps the first block");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &cache.get(0x1000).unwrap()));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        // 8 threads hammer insert+get over 64 addresses; afterwards every
        // address holds exactly one block with the right start field.
        let cache = ShardedCache::new(8);
        let addrs: Vec<Addr> = (0..64u32).map(|i| 0x2000 + i * 4).collect();
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = &cache;
                let addrs = &addrs;
                s.spawn(move || {
                    for (i, &pc) in addrs.iter().enumerate() {
                        if (i + t) % 2 == 0 {
                            cache.insert(pc, dummy_block(pc));
                        }
                        if let Some(b) = cache.get(pc) {
                            assert_eq!(b.start, pc);
                        }
                    }
                });
            }
        });
        for &pc in &addrs {
            cache.insert(pc, dummy_block(pc));
            assert_eq!(cache.get(pc).unwrap().start, pc);
        }
        assert_eq!(cache.len(), addrs.len());
    }
}
