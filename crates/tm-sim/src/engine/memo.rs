//! Seen-set and interning backends of the exploration kernel.
//!
//! Every search in this crate keys some table on canonical configuration
//! digests: the safety explorer memoizes subtree summaries, the liveness
//! checker interns graph nodes. Two backends cover both:
//!
//! * **worker-local** hash maps — lock-free and run-to-run
//!   deterministic (the default everywhere);
//! * the 64-way lock-striped [`StripedTable`] — one table shared across
//!   rayon workers for cross-subtree hits, at stripe-lock cost. Sound
//!   because digests are thread-agnostic: a memoized value is exact
//!   wherever it was computed.
//!
//! Keys are already digests, so every table hashes them with the cheap
//! seedless [`StableHasher`] rather than the standard library's
//! DoS-resistant SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex};

use tm_core::StableHasher;

/// A hash map keyed on configuration digests.
type DigestMap<K, V> = HashMap<K, V, BuildHasherDefault<StableHasher>>;

/// A sharded, lock-striped concurrent map: each key hashes to one of 64
/// shards and operations take only that shard's lock, so concurrent
/// workers contend per stripe, not per table.
#[derive(Debug)]
pub struct StripedTable<K, V> {
    shards: Vec<Mutex<DigestMap<K, V>>>,
}

impl<K: Hash + Eq, V: Copy> StripedTable<K, V> {
    /// Number of stripes.
    pub const SHARDS: usize = 64;

    /// An empty table.
    pub fn new() -> Self {
        StripedTable {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(DigestMap::default()))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<DigestMap<K, V>> {
        let mut h = StableHasher::new();
        key.hash(&mut h);
        // The stripe's own map indexes by the low bits and tags by the
        // top seven, so pick the stripe from bits neither uses.
        &self.shards[((h.finish() >> 32) % Self::SHARDS as u64) as usize]
    }

    /// Looks `key` up in its stripe.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key)
            .lock()
            .expect("stripe poisoned")
            .get(key)
            .copied()
    }

    /// Inserts into `key`'s stripe.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key)
            .lock()
            .expect("stripe poisoned")
            .insert(key, value);
    }
}

impl<K: Hash + Eq, V: Copy> Default for StripedTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// The digest seen set of one search walk: disabled, worker-local, or a
/// handle to a shared [`StripedTable`]. The uniform `get`/`insert`
/// surface lets the walkers stay backend-agnostic.
#[derive(Debug)]
pub struct SeenSet<K, V> {
    enabled: bool,
    backend: SeenBackend<K, V>,
}

#[derive(Debug)]
enum SeenBackend<K, V> {
    Local(DigestMap<K, V>),
    Shared(Arc<StripedTable<K, V>>),
}

impl<K: Hash + Eq, V: Copy> SeenSet<K, V> {
    /// A worker-local seen set (a no-op table when `enabled` is false).
    pub fn new(enabled: bool) -> Self {
        SeenSet {
            enabled,
            backend: SeenBackend::Local(DigestMap::default()),
        }
    }

    /// A handle onto a table shared with other workers.
    pub fn shared(table: Arc<StripedTable<K, V>>) -> Self {
        SeenSet {
            enabled: true,
            backend: SeenBackend::Shared(table),
        }
    }

    /// Whether lookups/inserts do anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Looks `key` up.
    pub fn get(&self, key: &K) -> Option<V> {
        match &self.backend {
            SeenBackend::Local(map) => map.get(key).copied(),
            SeenBackend::Shared(table) => table.get(key),
        }
    }

    /// Records `key → value`.
    pub fn insert(&mut self, key: K, value: V) {
        match &mut self.backend {
            SeenBackend::Local(map) => {
                map.insert(key, value);
            }
            SeenBackend::Shared(table) => table.insert(key, value),
        }
    }
}

/// Dense interning of configuration keys: the liveness checker's
/// digest → node-id table. Ids are assigned in first-seen order, so a
/// traversal with a canonical discovery order (sequential DFS, or the
/// parallel frontier's deterministic level merge) yields identical ids
/// regardless of thread count.
#[derive(Debug, Default)]
pub struct Interner<K> {
    ids: DigestMap<K, u32>,
}

impl<K: Hash + Eq> Interner<K> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            ids: DigestMap::default(),
        }
    }

    /// The id of `key`, assigning the next dense id on first sight.
    /// Returns `(id, freshly_assigned)`.
    pub fn intern(&mut self, key: K) -> (u32, bool) {
        let next = u32::try_from(self.ids.len()).expect("state graph exceeds u32 nodes");
        match self.ids.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(next);
                (next, true)
            }
        }
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_table_round_trips() {
        let table: StripedTable<u64, u32> = StripedTable::new();
        for i in 0..1000u64 {
            table.insert(i, (i * 2) as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(table.get(&i), Some((i * 2) as u32));
        }
        assert_eq!(table.get(&1_000_000), None);
    }

    #[test]
    fn disabled_seen_set_is_inert_shared_is_cross_handle() {
        let mut local: SeenSet<u64, u32> = SeenSet::new(false);
        assert!(!local.enabled());
        local.insert(1, 2);
        // (Callers gate on enabled(); the table itself still stores.)
        let table = Arc::new(StripedTable::new());
        let mut a: SeenSet<u64, u32> = SeenSet::shared(Arc::clone(&table));
        let b: SeenSet<u64, u32> = SeenSet::shared(table);
        a.insert(7, 9);
        assert_eq!(b.get(&7), Some(9));
    }

    #[test]
    fn interner_assigns_dense_first_seen_ids() {
        let mut interner = Interner::new();
        assert!(interner.is_empty());
        assert_eq!(interner.intern("a"), (0, true));
        assert_eq!(interner.intern("b"), (1, true));
        assert_eq!(interner.intern("a"), (0, false));
        assert_eq!(interner.len(), 2);
    }
}
