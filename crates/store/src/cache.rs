//! A small O(1) LRU cache: the table's row cache and the durable tier's
//! block cache.
//!
//! Entries live in a slab (`Vec`) threaded into a doubly linked recency
//! list by slot index, and one `HashMap` maps a key to its slot: a `get`
//! or a `put` is one hash look-up plus a few index writes (a `put` that
//! evicts also unmaps its victim). The map keeps the standard library's
//! keyed hasher — row-cache keys arrive off the wire.
//!
//! The paper's database model calls out caches as a variance source:
//! "a miss in a cache … can arbitrarily make a request orders of magnitude
//! slower than average" (§VI-a), and its related-work discussion notes that
//! replica-spreading defeats caching. The row cache here lets the cost
//! model and the ablation benches quantify both effects.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

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

/// An LRU cache over hashable keys.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    /// key → index into `slots`; exactly one entry per slot.
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the eviction victim.
    tail: usize,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// Creates a cache holding up to `capacity` entries. Capacity 0 is a
    /// legal "always miss" cache.
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            map: HashMap::new(),
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
        let full = self.slots.len() == self.capacity;
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
    pub fn invalidate(&mut self, key: &K) {
        let Some(slot) = self.map.remove(key) else {
            return;
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

    /// The cache's keys from most to least recently used, checking the
    /// list against the slab and the map on the way.
    fn recency<K: Eq + Hash + Clone, V>(c: &Lru<K, V>) -> Vec<K> {
        let mut keys = Vec::new();
        let (mut at, mut prev) = (c.head, NIL);
        while at != NIL {
            assert_eq!(c.slots[at].prev, prev, "back link of slot {at}");
            assert_eq!(
                c.map.get(&c.slots[at].key),
                Some(&at),
                "map entry of slot {at}"
            );
            keys.push(c.slots[at].key.clone());
            (prev, at) = (at, c.slots[at].next);
        }
        assert_eq!(c.tail, prev);
        assert_eq!(keys.len(), c.slots.len(), "every slot is on the list");
        assert_eq!(keys.len(), c.map.len());
        keys
    }

    #[test]
    fn random_streams_match_a_naive_vec_model() {
        // The model: (key, value) pairs, most recently used first.
        for capacity in [0usize, 1, 2, 3, 8] {
            let mut lru = Lru::new(capacity);
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
                        model.retain(|(k, _)| *k != key);
                        lru.invalidate(&key);
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
                assert_eq!(recency(&lru), keys, "step {step}, capacity {capacity}");
                assert_eq!(lru.len(), model.len());
                assert_eq!(lru.is_empty(), model.is_empty());
            }
            for (key, value) in model {
                assert_eq!(lru.slots[lru.map[&key]].value, value);
            }
        }
    }
}
