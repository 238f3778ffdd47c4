//! A plain `u64`-word bitset for struct-of-arrays hot paths.
//!
//! The engine's frontier layout and the protocol fast paths keep their node
//! sets (transmitters, listeners touched this round, informed nodes) as one
//! bit per node instead of a stamp or `Option` per node: at
//! `n = 10⁶` a membership table is 125 KB — resident in L2 — where the
//! stamp-vector equivalent is 8 MB of random-access traffic. Membership
//! flips are done sparsely (the caller clears exactly the bits it set, via
//! its own touched list), so a round's cost stays proportional to activity.

/// A fixed-capacity bitset over `0..len` backed by `u64` words.
///
/// # Example
///
/// ```
/// use rn_sim::WordBitset;
///
/// let mut s = WordBitset::new(100);
/// assert!(s.set(3), "newly set");
/// assert!(!s.set(3), "already present");
/// assert!(s.contains(3));
/// s.clear(3);
/// assert!(!s.contains(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordBitset {
    words: Vec<u64>,
    len: usize,
}

impl WordBitset {
    /// An empty bitset with capacity for indices `0..len`.
    pub fn new(len: usize) -> WordBitset {
        WordBitset { words: vec![0; len.div_ceil(64)], len }
    }

    /// Capacity (the exclusive index bound given at construction).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capacity is zero (clippy convention; an all-zero bitset
    /// with positive capacity is *not* "empty" in this sense).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` (via the word-index bounds check).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range for capacity {}", self.len);
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Sets bit `i`; returns `true` iff it was previously clear.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range for capacity {}", self.len);
        let w = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range for capacity {}", self.len);
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Clears every bit (dense `O(len/64)` sweep; hot paths prefer clearing
    /// sparsely through their touched lists).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Resizes the capacity to `n`, zeroing every bit — but only when the
    /// capacity actually changes. Pooled reuse paths whose bits are already
    /// clear (the engine's between-rounds invariant) pay nothing on an
    /// unchanged `n`; callers that need a guaranteed-empty set at the same
    /// capacity call [`WordBitset::clear_all`] instead.
    pub fn reset_capacity(&mut self, n: usize) {
        if self.len != n {
            self.words.clear();
            self.words.resize(n.div_ceil(64), 0);
            self.len = n;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set bits in increasing index order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi << 6;
            std::iter::successors((w != 0).then_some(w), |&rest| {
                let next = rest & (rest - 1);
                (next != 0).then_some(next)
            })
            .map(move |rest| base + rest.trailing_zeros() as usize)
        })
    }

    /// The backing words (low bit of word 0 is index 0). Bits at or above
    /// `len` in the last word are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words, for word-at-a-time kernels
    /// (dense-round OR/AND accumulation over adjacency rows).
    ///
    /// Callers must preserve the invariant that bits at or above `len` in
    /// the last word stay zero — scattering only rows that respect the
    /// bitset's capacity (e.g. adjacency rows of the same graph) does so
    /// automatically.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Debug-build coherence check, compiled to nothing in release: the
    /// backing vector holds exactly `⌈len/64⌉` words and no stray bit is
    /// set at or above `len` in the last word. Word-level kernels that take
    /// [`WordBitset::words_mut`] call this after scattering to prove they
    /// upheld the capacity contract.
    #[inline]
    pub fn debug_validate(&self) {
        debug_assert_eq!(
            self.words.len(),
            self.len.div_ceil(64),
            "WordBitset: backing words out of sync with capacity {}",
            self.len
        );
        #[cfg(debug_assertions)]
        if self.len & 63 != 0 {
            if let Some(&last) = self.words.last() {
                debug_assert_eq!(
                    last & !((1u64 << (self.len & 63)) - 1),
                    0,
                    "WordBitset: stray bits at or above len {}",
                    self.len
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_contains_clear_round_trip() {
        let mut s = WordBitset::new(200);
        assert_eq!(s.len(), 200);
        assert!(!s.is_empty());
        for i in [0usize, 1, 63, 64, 65, 127, 128, 199] {
            assert!(!s.contains(i));
            assert!(s.set(i), "first set of {i} is fresh");
            assert!(!s.set(i), "second set of {i} is not");
            assert!(s.contains(i));
        }
        assert_eq!(s.count_ones(), 8);
        s.clear(64);
        assert!(!s.contains(64));
        assert!(s.contains(63) && s.contains(65), "neighbors untouched");
        s.clear_all();
        assert_eq!(s.count_ones(), 0);
    }

    #[test]
    fn iter_ones_is_sorted_and_complete() {
        let mut s = WordBitset::new(300);
        let bits = [299usize, 0, 64, 7, 128, 191, 192, 63];
        for &b in &bits {
            s.set(b);
        }
        let got: Vec<usize> = s.iter_ones().collect();
        let mut want = bits.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_full_edges() {
        let s = WordBitset::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter_ones().count(), 0);
        let mut s = WordBitset::new(64);
        for i in 0..64 {
            s.set(i);
        }
        assert_eq!(s.count_ones(), 64);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), (0..64).collect::<Vec<_>>());
        assert_eq!(s.words(), &[u64::MAX]);
    }

    #[test]
    fn capacity_not_multiple_of_64() {
        let mut s = WordBitset::new(65);
        s.set(64);
        assert_eq!(s.words().len(), 2);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![64]);
    }
}
