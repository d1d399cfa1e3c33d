//! A small O(1) LRU cache: the RAM table's row cache.
//!
//! Entries live in a slab (`Vec`) threaded into a doubly linked recency
//! list by slot index ([`Slab`], which the durable tier's block cache
//! keeps its lists in too), and one `HashMap` maps a key to its slot: a
//! `get` or a `put` is one hash look-up plus a few index writes (a `put`
//! that evicts also unmaps its victim). The map keeps the standard library's
//! keyed SipHash: its keys are partition keys that arrive off the wire,
//! and a fixed hash would let a client choose keys that collide.
//!
//! The paper's database model calls out caches as a variance source:
//! "a miss in a cache … can arbitrarily make a request orders of magnitude
//! slower than average" (§VI-a), and its related-work discussion notes that
//! replica-spreading defeats caching. The row cache lets the cost model and
//! the ablation benches quantify both effects. The durable tier's block
//! cache is not this one: it names a block by its run and its number in
//! the run and hashes nothing (`crate::sst_file::BlockCache`).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// "No slot": the list's ends, and both links of an empty list.
const NIL: usize = usize::MAX;

/// A recency list threaded through a slab by slot index: what both of the
/// store's caches keep their entries in, the row cache ([`Lru`]) and the
/// block cache's resident and ghost lists (`crate::sst_file::BlockCache`).
/// Its owner finds a slot by its own means and keeps track of where each
/// entry lies, which a [`Slab::push`] or a [`Slab::remove`] can change.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    nodes: Vec<Node<T>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the eviction victim.
    tail: usize,
}

#[derive(Debug)]
struct Node<T> {
    value: T,
    /// Towards the most recently used node.
    prev: usize,
    /// Towards the least recently used node.
    next: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<T> Slab<T> {
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        (self.head, self.tail) = (NIL, NIL);
    }

    /// Points the forward link of `prev` (the head, when `prev` is no slot)
    /// at `forward`, and the back link of `next` (or the tail) at `back`.
    fn join(&mut self, prev: usize, next: usize, forward: usize, back: usize) {
        match prev {
            NIL => self.head = forward,
            _ => self.nodes[prev].next = forward,
        }
        match next {
            NIL => self.tail = back,
            _ => self.nodes[next].prev = back,
        }
    }

    /// Takes `slot` out of the list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        self.join(prev, next, next, prev);
    }

    /// Puts an unlinked `slot` at the most recently used end.
    fn link_front(&mut self, slot: usize) {
        let head = self.head;
        (self.nodes[slot].prev, self.nodes[slot].next) = (NIL, head);
        self.join(NIL, head, slot, slot);
    }

    /// Makes `slot` the most recently used, and its value the caller's.
    pub(crate) fn touch(&mut self, slot: usize) -> &mut T {
        if self.head != slot {
            self.unlink(slot);
            self.link_front(slot);
        }
        &mut self.nodes[slot].value
    }

    /// Puts `value` at the most recently used end: in a new slot while
    /// fewer than `capacity` (not 0) are in use, else in the least recently
    /// used one's. Returns the slot and the value it held, if any.
    pub(crate) fn push(&mut self, value: T, capacity: usize) -> (usize, Option<T>) {
        if self.nodes.len() < capacity {
            let (prev, next) = (NIL, NIL);
            self.nodes.push(Node { value, prev, next });
            let slot = self.nodes.len() - 1;
            self.link_front(slot);
            return (slot, None);
        }
        let slot = self.tail;
        let victim = std::mem::replace(self.touch(slot), value);
        (slot, Some(victim))
    }

    /// Takes `slot` out of the list and the slab. The last slot moves into
    /// the hole, so this returns the value it holds, if any, for its owner
    /// to find it at `slot` from now on.
    pub(crate) fn remove(&mut self, slot: usize) -> Option<&T> {
        self.unlink(slot);
        self.nodes.swap_remove(slot);
        let (prev, next) = (self.nodes.get(slot)?.prev, self.nodes[slot].next);
        self.join(prev, next, slot, slot);
        Some(&self.nodes[slot].value)
    }
}

#[cfg(test)]
impl<T> Slab<T> {
    /// The value in `slot`.
    fn get(&self, slot: usize) -> &T {
        &self.nodes[slot].value
    }

    /// Every slot and its value from most to least recently used, checking
    /// the links against the slab on the way.
    pub(crate) fn walk(&self) -> impl Iterator<Item = (usize, &T)> {
        let mut walked = Vec::new();
        let (mut at, mut prev) = (self.head, NIL);
        while at != NIL {
            let node = &self.nodes[at];
            assert_eq!(node.prev, prev, "back link of slot {at}");
            walked.push((at, &node.value));
            (prev, at) = (at, node.next);
        }
        assert_eq!(self.tail, prev);
        assert_eq!(walked.len(), self.nodes.len(), "every slot is on the list");
        walked.into_iter()
    }
}

/// An LRU cache over hashable keys: a map from each key to its slot.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    /// key → its slot in `slab`; exactly one entry per slot.
    map: HashMap<K, usize>,
    slab: Slab<(K, V)>,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// Creates a cache holding up to `capacity` entries. Capacity 0 is a
    /// legal "always miss" cache.
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            map: HashMap::new(),
            slab: Slab::default(),
        }
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.map.get(key)?;
        Some(&self.slab.touch(slot).1)
    }

    /// Inserts or replaces an entry, evicting the least recently used entry
    /// if the cache is over capacity.
    pub fn put(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        match self.map.entry(key) {
            Entry::Occupied(held) => self.slab.touch(*held.get()).1 = value,
            Entry::Vacant(vacant) => {
                let entry = (vacant.key().clone(), value);
                let (slot, victim) = self.slab.push(entry, self.capacity);
                vacant.insert(slot);
                if let Some((victim, _)) = victim {
                    self.map.remove(&victim);
                }
            }
        }
    }

    /// Removes an entry (used on writes to keep the cache coherent).
    /// Returns whether the cache held it.
    pub fn invalidate(&mut self, key: &K) -> bool {
        let Some(slot) = self.map.remove(key) else {
            return false;
        };
        if let Some((moved, _)) = self.slab.remove(slot) {
            if let Some(at) = self.map.get_mut(moved) {
                *at = slot;
            }
        }
        true
    }

    /// Drops everything (used after compaction rewrites the data).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.slab.len() == 0
    }
}

#[cfg(test)]
impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// Every key from most to least recently used, checking the list
    /// against the slab and the map on the way; reads without touching.
    fn keys(&self) -> Vec<K> {
        let walked = self.slab.walk().map(|(slot, (key, _))| {
            assert_eq!(self.map.get(key), Some(&slot), "map entry of slot {slot}");
            key.clone()
        });
        let keys: Vec<K> = walked.collect();
        assert_eq!(keys.len(), self.map.len());
        keys
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
            }
            for (key, value) in model {
                assert_eq!(lru.slab.get(lru.map[&key]).1, value);
            }
        }
    }
}
