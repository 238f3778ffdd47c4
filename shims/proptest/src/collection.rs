//! Collection strategies: `vec` and `btree_map`.

use std::collections::BTreeMap;
use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;

/// An inclusive size range for generated collections.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.lo..=self.hi)
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange { lo: r.start, hi: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        assert!(r.start() <= r.end(), "empty collection size range");
        SizeRange { lo: *r.start(), hi: *r.end() }
    }
}

/// Strategy for `Vec<S::Value>` with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.sample(rng);
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// Strategy for `BTreeMap<K::Value, V::Value>` with a target size drawn
/// from `size`. Duplicate keys are retried a bounded number of times, so
/// the realized size can fall below the target when the key domain is
/// small (matching proptest's tolerance for under-filled maps).
pub fn btree_map<K, V>(keys: K, values: V, size: impl Into<SizeRange>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    BTreeMapStrategy { keys, values, size: size.into() }
}

/// See [`btree_map`].
pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: SizeRange,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn sample(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let target = self.size.sample(rng);
        let mut map = BTreeMap::new();
        let mut attempts = 0usize;
        while map.len() < target && attempts < 10 * target + 16 {
            attempts += 1;
            map.insert(self.keys.sample(rng), self.values.sample(rng));
        }
        map
    }
}
