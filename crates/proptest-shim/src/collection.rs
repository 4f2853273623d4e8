//! Collection strategies: `vec`, `btree_map`, `btree_set`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::rng::TestRng;
use crate::strategy::Strategy;

/// A `Vec` of values from an element strategy, with length drawn from a
/// half-open range.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

/// The strategy returned by [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn gen(&self, rng: &mut TestRng) -> Self::Value {
        let n = rng.usize_in(self.size.start, self.size.end);
        (0..n).map(|_| self.element.gen(rng)).collect()
    }
}

/// A `BTreeMap` built from key and value strategies, with size drawn
/// from a half-open range. If the key space is too small to reach the
/// drawn size, a smaller map is produced (as many distinct keys as can
/// be found in a bounded number of attempts).
pub fn btree_map<K, V>(keys: K, values: V, size: Range<usize>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    BTreeMapStrategy { keys, values, size }
}

/// The strategy returned by [`btree_map`].
#[derive(Clone)]
pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: Range<usize>,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn gen(&self, rng: &mut TestRng) -> Self::Value {
        let target = rng.usize_in(self.size.start, self.size.end);
        let mut out = BTreeMap::new();
        let mut attempts = 0;
        while out.len() < target && attempts < target * 20 + 50 {
            attempts += 1;
            out.insert(self.keys.gen(rng), self.values.gen(rng));
        }
        out
    }
}

/// A `BTreeSet` built from an element strategy, with size drawn from a
/// half-open range (smaller if the element space is exhausted first).
pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy { element, size }
}

/// The strategy returned by [`btree_set`].
#[derive(Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;

    fn gen(&self, rng: &mut TestRng) -> Self::Value {
        let target = rng.usize_in(self.size.start, self.size.end);
        let mut out = BTreeSet::new();
        let mut attempts = 0;
        while out.len() < target && attempts < target * 20 + 50 {
            attempts += 1;
            out.insert(self.element.gen(rng));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_lengths_follow_the_range() {
        let mut rng = TestRng::from_seed(11);
        let s = vec(0i64..5, 0..10);
        for _ in 0..100 {
            let v = s.gen(&mut rng);
            assert!(v.len() < 10);
            assert!(v.iter().all(|x| (0..5).contains(x)));
        }
    }

    #[test]
    fn map_respects_reachable_sizes() {
        let mut rng = TestRng::from_seed(11);
        // Key space has only 3 elements; target sizes up to 3 are
        // reachable and the map never exceeds the requested bound.
        let s = btree_map("[a-c]", 0i64..100, 0..4);
        for _ in 0..100 {
            let m = s.gen(&mut rng);
            assert!(m.len() < 4);
            assert!(m.keys().all(|k| ["a", "b", "c"].contains(&k.as_str())));
        }
    }

    #[test]
    fn set_deduplicates() {
        let mut rng = TestRng::from_seed(11);
        let s = btree_set(0i64..3, 2..3);
        for _ in 0..50 {
            let set = s.gen(&mut rng);
            assert_eq!(set.len(), 2);
        }
    }
}
