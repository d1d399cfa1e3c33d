//! Collection strategies: vectors and maps of generated values.

use crate::Strategy;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Sizes a collection strategy accepts: a fixed length or a half-open
/// range of lengths.
pub trait IntoSizeRange {
    /// Draws a concrete length.
    fn pick_len(&self, rng: &mut StdRng) -> usize;
}

impl IntoSizeRange for usize {
    fn pick_len(&self, _rng: &mut StdRng) -> usize {
        *self
    }
}

impl IntoSizeRange for std::ops::Range<usize> {
    fn pick_len(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl IntoSizeRange for std::ops::RangeInclusive<usize> {
    fn pick_len(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// Strategy for `Vec<S::Value>` (see [`vec()`]).
pub struct VecStrategy<S, L> {
    element: S,
    len: L,
}

/// A vector whose elements come from `element` and whose length comes from
/// `len` (a fixed `usize` or a range).
pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
    VecStrategy { element, len }
}

impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let n = self.len.pick_len(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Strategy for `BTreeMap<K::Value, V::Value>` (see [`btree_map`]).
pub struct BTreeMapStrategy<K, V, L> {
    key: K,
    value: V,
    len: L,
}

/// A map with up to `len` entries (duplicate generated keys collapse, as
/// in upstream proptest).
pub fn btree_map<K: Strategy, V: Strategy, L: IntoSizeRange>(
    key: K,
    value: V,
    len: L,
) -> BTreeMapStrategy<K, V, L>
where
    K::Value: Ord,
{
    BTreeMapStrategy { key, value, len }
}

impl<K: Strategy, V: Strategy, L: IntoSizeRange> Strategy for BTreeMapStrategy<K, V, L>
where
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let n = self.len.pick_len(rng);
        (0..n)
            .map(|_| (self.key.generate(rng), self.value.generate(rng)))
            .collect()
    }
}
