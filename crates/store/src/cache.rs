//! A small O(1) LRU cache: the table's row cache and the durable tier's
//! block cache, and the block cache's ghost list of refused keys.
//!
//! Entries live in a slab (`Vec`) threaded into a doubly linked recency
//! list by slot index, and one `HashMap` maps a key to its slot: a `get`
//! or a `put` is one hash look-up plus a few index writes (a `put` that
//! evicts also unmaps its victim).
//!
//! Which hash a map uses depends on who picks its keys. The row cache
//! ([`Lru::new`]) keeps the standard library's keyed SipHash: its keys are
//! partition keys that arrive off the wire, and a fixed hash would let a
//! client choose keys that collide. The block cache and its ghost
//! ([`Lru::with_hasher`] with [`FixedState`]) are keyed by a run's own
//! `(generation, offset)`, which the store mints and no client names, so
//! they use a fixed multiply-and-rotate hash at a fraction of the cost.
//! The cluster's placement directory (`kvs_cluster::ClusterData`) hashes
//! partition keys with it too, which is safe there for another reason:
//! the loader mints those keys before any request arrives, and no client
//! adds one, so none can lengthen the map's chains.
//!
//! The paper's database model calls out caches as a variance source:
//! "a miss in a cache … can arbitrarily make a request orders of magnitude
//! slower than average" (§VI-a), and its related-work discussion notes that
//! replica-spreading defeats caching. The row cache here lets the cost
//! model and the ablation benches quantify both effects; the block cache
//! admits a block only on its second miss, so a scan larger than the cache
//! cannot flush it (`crate::sst_file::BlockCache`).

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// A fixed, unkeyed hash for maps whose keys no client can choose — a
/// run's `(generation, offset)`, which the store mints, or a loaded
/// partition's key, which the loader places: each word is added and
/// multiplied by an odd constant, and the result rotated (the scheme and
/// constants of rustc-hash 2).
///
/// The rotate matters: block offsets step by the ≈ 4 KiB block size, so
/// their low bits take few values; a product's low bits depend only on its
/// factors' low bits; and the map picks buckets from the low bits of the
/// hash. The rotate folds the well-mixed high bits down to where buckets
/// are chosen.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedState;

/// The hasher [`FixedState`] builds.
#[derive(Debug)]
pub struct FixedHasher(u64);

/// rustc-hash 2's multiplier: odd, so multiplication is a bijection.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

impl BuildHasher for FixedState {
    type Hasher = FixedHasher;

    fn build_hasher(&self) -> FixedHasher {
        FixedHasher(0)
    }
}

impl Hasher for FixedHasher {
    /// A word at a time, the last one zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        let (words, tail) = bytes.as_chunks::<8>();
        for word in words {
            self.write_u64(u64::from_le_bytes(*word));
        }
        if !tail.is_empty() {
            let word =
                (tail.iter().enumerate()).fold(0, |word, (i, &b)| word | (b as u64) << (8 * i));
            self.write_u64(word);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// "No slot": the list's ends, and both links of an empty list.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// Towards the most recently used entry.
    prev: usize,
    /// Towards the least recently used entry.
    next: usize,
}

/// An LRU cache over hashable keys, its map hashed by `S`.
#[derive(Debug)]
pub struct Lru<K, V, S = RandomState> {
    capacity: usize,
    /// key → index into `slots`; exactly one entry per slot.
    map: HashMap<K, usize, S>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the eviction victim.
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// Creates a cache holding up to `capacity` entries under the keyed
    /// hasher, for keys from outside the program. Capacity 0 is a legal
    /// "always miss" cache.
    pub fn new(capacity: usize) -> Self {
        Lru::with_hasher(capacity, RandomState::new())
    }
}

impl<K: Eq + Hash + Clone, V, S: BuildHasher> Lru<K, V, S> {
    /// Creates a cache holding up to `capacity` entries whose map hashes
    /// with `hasher`.
    pub fn with_hasher(capacity: usize, hasher: S) -> Self {
        Lru {
            capacity,
            map: HashMap::with_hasher(hasher),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Points the forward link of `prev` (the head, when `prev` is no slot)
    /// at `forward`, and the back link of `next` (or the tail) at `back`.
    fn join(&mut self, prev: usize, next: usize, forward: usize, back: usize) {
        match prev {
            NIL => self.head = forward,
            _ => self.slots[prev].next = forward,
        }
        match next {
            NIL => self.tail = back,
            _ => self.slots[next].prev = back,
        }
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        self.join(prev, next, next, prev);
    }

    /// Puts an unlinked `slot` at the most recently used end.
    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            head => self.slots[head].prev = slot,
        }
        self.head = slot;
    }

    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.map.get(key)?;
        self.touch(slot);
        Some(&self.slots[slot].value)
    }

    /// Inserts or replaces an entry, evicting the least recently used entry
    /// if the cache is over capacity.
    pub fn put(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let full = self.is_full();
        // A new key takes the victim's slot when full, a fresh one otherwise.
        let target = if full { self.tail } else { self.slots.len() };
        let key = match self.map.entry(key) {
            Entry::Occupied(held) => {
                let slot = *held.get();
                self.slots[slot].value = value;
                self.touch(slot);
                return;
            }
            Entry::Vacant(vacant) => {
                let key = vacant.key().clone();
                vacant.insert(target);
                key
            }
        };
        if full {
            let victim = std::mem::replace(&mut self.slots[target].key, key);
            self.map.remove(&victim);
            self.slots[target].value = value;
            self.touch(target);
        } else {
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.link_front(target);
        }
    }

    /// Removes an entry (used on writes to keep the cache coherent).
    /// Returns whether the cache held it.
    pub fn invalidate(&mut self, key: &K) -> bool {
        let Some(slot) = self.map.remove(key) else {
            return false;
        };
        self.unlink(slot);
        // Keep the slab dense: the last slot moves into the hole.
        self.slots.swap_remove(slot);
        if let Some(moved) = self.slots.get(slot) {
            let (prev, next) = (moved.prev, moved.next);
            if let Some(at) = self.map.get_mut(&moved.key) {
                *at = slot;
            }
            self.join(prev, next, slot, slot);
        }
        true
    }

    /// Drops everything (used after compaction rewrites the data).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when a new key would evict one (always, at capacity 0).
    pub fn is_full(&self) -> bool {
        self.slots.len() == self.capacity
    }
}

#[cfg(test)]
impl<K: Eq + Hash + Clone, V, S: BuildHasher> Lru<K, V, S> {
    /// Every entry from most to least recently used, checking the list
    /// against the slab and the map on the way; reads without touching.
    pub(crate) fn recency(&self) -> Vec<(&K, &V)> {
        let mut entries = Vec::new();
        let (mut at, mut prev) = (self.head, NIL);
        while at != NIL {
            let slot = &self.slots[at];
            assert_eq!(slot.prev, prev, "back link of slot {at}");
            assert_eq!(self.map.get(&slot.key), Some(&at), "map entry of slot {at}");
            entries.push((&slot.key, &slot.value));
            (prev, at) = (at, slot.next);
        }
        assert_eq!(self.tail, prev);
        assert_eq!(entries.len(), self.slots.len(), "every slot is on the list");
        assert_eq!(entries.len(), self.map.len());
        entries
    }

    /// The keys alone, most recently used first ([`Lru::recency`]).
    pub(crate) fn keys(&self) -> Vec<K> {
        self.recency().into_iter().map(|(k, _)| k.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_get_put() {
        let mut c = Lru::new(2);
        c.put("a", 1);
        c.put("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.get(&"z"), None);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = Lru::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.get(&"a"); // refresh a → b is LRU
        c.put("c", 3);
        assert_eq!(c.get(&"b"), None, "b should have been evicted");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn put_refreshes_recency() {
        let mut c = Lru::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.put("a", 10); // a refreshed → b is LRU
        c.put("c", 3);
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&10));
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c = Lru::new(4);
        c.put(1, "x");
        c.put(2, "y");
        c.invalidate(&1);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        // The recency list must not leak stale entries.
        c.put(3, "z");
        assert_eq!(c.get(&3), Some(&"z"));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = Lru::new(0);
        c.put("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn heavy_churn_respects_capacity() {
        let mut c = Lru::new(16);
        for i in 0..10_000u32 {
            c.put(i, i * 2);
        }
        assert_eq!(c.len(), 16);
        // The 16 newest keys survive.
        for i in 10_000 - 16..10_000 {
            assert_eq!(c.get(&i), Some(&(i * 2)), "key {i} missing");
        }
    }

    #[test]
    fn random_streams_match_a_naive_vec_model() {
        random_streams_match(Lru::new);
        random_streams_match(|capacity| Lru::with_hasher(capacity, FixedState));
    }

    fn random_streams_match<S: BuildHasher>(new: impl Fn(usize) -> Lru<u8, u32, S>) {
        // The model: (key, value) pairs, most recently used first.
        for capacity in [0usize, 1, 2, 3, 8] {
            let mut lru = new(capacity);
            let mut model: Vec<(u8, u32)> = Vec::new();
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ capacity as u64;
            for step in 0..20_000u32 {
                // xorshift: the store crate reads no ambient randomness.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let key = (state >> 8) as u8 % 12;
                match state % 16 {
                    0..=6 => {
                        let want = model.iter().position(|(k, _)| *k == key).map(|i| {
                            let hit = model.remove(i);
                            model.insert(0, hit);
                            hit.1
                        });
                        assert_eq!(lru.get(&key).copied(), want, "step {step}: get {key}");
                    }
                    7..=13 => {
                        if capacity > 0 {
                            model.retain(|(k, _)| *k != key);
                            model.insert(0, (key, step));
                            model.truncate(capacity); // drops the LRU victim
                        }
                        lru.put(key, step);
                    }
                    14 => {
                        let held = model.iter().any(|(k, _)| *k == key);
                        model.retain(|(k, _)| *k != key);
                        assert_eq!(lru.invalidate(&key), held, "step {step}: invalidate {key}");
                    }
                    _ => {
                        if step % 64 == 0 {
                            model.clear();
                            lru.clear();
                        }
                    }
                }
                // Same survivors in the same recency order: the next victim,
                // and every one after it, is the model's.
                let keys: Vec<u8> = model.iter().map(|(k, _)| *k).collect();
                assert_eq!(lru.keys(), keys, "step {step}, capacity {capacity}");
                assert_eq!(lru.len(), model.len());
                assert_eq!(lru.is_empty(), model.is_empty());
                assert_eq!(lru.is_full(), model.len() == capacity);
            }
            for (key, value) in model {
                assert_eq!(lru.slots[lru.map[&key]].value, value);
            }
        }
    }

    #[test]
    fn the_fixed_hash_spreads_block_offsets_over_buckets() {
        // The first 256 blocks of a run of 10 000-cell partitions (112
        // blocks of 4 140 B, the last 460 B), bucketed by the low 9 bits
        // as a 512-bucket table would. Without the final rotate a hash's
        // low 9 bits depend only on the offset's, which are multiples of
        // 4, so at most 128 buckets are used; a uniform hash fills ≈ 201.
        let bucket = |hash: u64| hash & 511;
        let mut fixed = std::collections::BTreeSet::new();
        let mut unrotated = std::collections::BTreeSet::new();
        for block in 0..256u64 {
            let offset = block / 112 * 460_000 + block % 112 * 4_140;
            let hash = FixedState.hash_one((1u64, offset));
            fixed.insert(bucket(hash));
            unrotated.insert(bucket(hash.rotate_right(26)));
        }
        assert!(unrotated.len() <= 128, "{}", unrotated.len());
        assert!(fixed.len() >= 170, "{} of 512 buckets used", fixed.len());
    }
}
