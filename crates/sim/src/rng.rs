//! Deterministic seed derivation.
//!
//! Every randomized component of the workspace (generators, protocols,
//! experiment trials) is seeded from a single master seed through the
//! [`fn@derive`] function, so whole experiment tables are reproducible from one
//! recorded `u64`. Derivation uses the SplitMix64 finalizer, which maps
//! nearby inputs to statistically independent outputs.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 output function: a high-quality 64-bit mixer.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives an independent sub-seed for logical `stream` from `master`.
///
/// # Example
///
/// ```
/// let a = rn_sim::rng::derive(42, 0);
/// let b = rn_sim::rng::derive(42, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, rn_sim::rng::derive(42, 0), "pure function");
/// ```
#[inline]
pub fn derive(master: u64, stream: u64) -> u64 {
    splitmix64(master ^ splitmix64(stream.wrapping_add(0xA5A5_A5A5_5A5A_5A5A)))
}

/// A seeded [`SmallRng`] for logical `stream` of `master`.
#[inline]
pub fn stream_rng(master: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(derive(master, stream))
}

/// A [`SmallRng`] seeded directly from a raw `u64` — the one sanctioned
/// home of bare RNG construction (the `rng-discipline` lint denies
/// `seed_from_u64` everywhere else).
///
/// Prefer [`stream_rng`] for new code: it derives per-axis independent
/// streams from a master seed. `rng_from_seed` exists for legacy seed
/// schemes whose byte output is pinned by committed baselines, where the
/// caller's `u64` *is* the contract.
#[inline]
pub fn rng_from_seed(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// A sequential SplitMix64 word generator: the batched-coin counterpart of
/// [`stream_rng`], drawing raw 64-bit words instead of going through a
/// `rand` adapter. One word is 64 independent fair coin lanes, so decay-style
/// "each of `k` nodes flips Bernoulli(2^-j)" draws batch into `⌈k/64⌉·j`
/// word draws and word ANDs — see [`bernoulli_pow2_indices`].
///
/// The stream for `(master, stream)` is independent of (and different from)
/// the [`stream_rng`] stream for the same pair, so a protocol can expose
/// both samplers side by side without coin reuse.
#[derive(Debug, Clone)]
pub struct WordStream {
    state: u64,
}

/// Dedicated sub-stream tag so `WordStream` and [`stream_rng`] never share
/// a seed even for identical `(master, stream)` pairs.
const WORD_STREAM_TAG: u64 = 0x30D5_7EA1;

impl WordStream {
    /// A word stream for logical `stream` of `master` (same derivation
    /// discipline as [`stream_rng`]).
    pub fn new(master: u64, stream: u64) -> WordStream {
        WordStream { state: derive(derive(master, WORD_STREAM_TAG), stream) }
    }

    /// The next 64 independent fair coin lanes.
    #[inline]
    pub fn next_word(&mut self) -> u64 {
        let w = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        w
    }
}

/// One word of 64 independent Bernoulli(`2^-j`) lanes: the AND of `j` raw
/// words (each lane succeeds iff all `j` of its fair coins do). `j = 0`
/// yields all-ones (probability 1).
#[inline]
pub fn bernoulli_pow2_word(ws: &mut WordStream, j: u32) -> u64 {
    let mut w = !0u64;
    for _ in 0..j {
        w &= ws.next_word();
    }
    w
}

/// Samples the success indices of `k` independent Bernoulli(`2^-j`) trials
/// by drawing whole 64-lane words — `⌈k/64⌉·j` word draws total, instead of
/// `k` per-index coin flips. Indices are appended to `out` in increasing
/// order, like [`bernoulli_indices`].
///
/// The word-batched draw is the fast shape for *dense* steps (small `j`,
/// where a constant fraction of lanes succeed); for large `j` the geometric
/// skipping of [`bernoulli_indices`] does less work per success. Callers
/// pick per step; the two samplers draw from different streams and are not
/// interchangeable mid-run.
pub fn bernoulli_pow2_indices(ws: &mut WordStream, k: usize, j: u32, out: &mut Vec<usize>) {
    let mut base = 0usize;
    while base < k {
        let mut w = bernoulli_pow2_word(ws, j);
        if base + 64 > k {
            w &= (1u64 << (k - base)) - 1; // partial last word: drop lanes >= k
        }
        while w != 0 {
            out.push(base + w.trailing_zeros() as usize);
            w &= w - 1;
        }
        base += 64;
    }
}

/// Samples the index set of successes among `k` independent Bernoulli(`p`)
/// trials, in `O(successes)` expected time via geometric skipping. The joint
/// distribution is exactly that of `k` independent coin flips, which lets
/// decay-style protocols ("every informed node transmits with probability
/// `2^-i`") be simulated in time proportional to the transmitters rather
/// than to the population.
///
/// Indices are appended to `out` in increasing order.
pub fn bernoulli_indices(rng: &mut impl rand::Rng, k: usize, p: f64, out: &mut Vec<usize>) {
    if k == 0 || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        out.extend(0..k);
        return;
    }
    bernoulli_indices_ln_q(rng, k, (1.0 - p).ln(), out);
}

/// The core of [`bernoulli_indices`] for `0 < p < 1`, given
/// `ln_q = (1 − p).ln()`: draw for draw the same indices and generator
/// state, for callers that reuse a few fixed probabilities and keep their
/// logarithms instead of recomputing one per call.
///
/// The skip is `⌊ln u / ln q⌋`, taken without a `floor` call: for an
/// integer `r`, `⌊t⌋ ≥ r` exactly when `t ≥ r`, `⌊t⌋` is finite exactly when
/// `t` is, and below `r` the saturating `t as usize` equals
/// `t.floor() as usize`. On baseline x86-64 (SSE2, no `roundsd`)
/// `f64::floor` is an out-of-line software routine.
pub fn bernoulli_indices_ln_q(rng: &mut impl rand::Rng, k: usize, ln_q: f64, out: &mut Vec<usize>) {
    if k == 0 {
        return;
    }
    let mut i = 0usize;
    loop {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let skip = u.ln() / ln_q;
        if !skip.is_finite() || skip >= (k - i) as f64 {
            return;
        }
        i += skip as usize;
        if i >= k {
            return;
        }
        out.push(i);
        i += 1;
        if i >= k {
            return;
        }
    }
}

/// Samples `k` **distinct** values from `0..n` in `O(k)` time and `O(k²)`
/// comparisons (Floyd's algorithm). The returned *set* is uniform over all
/// `k`-subsets; the order is not a uniform permutation. Used for source and
/// jammer placement, where sampling with replacement would silently merge
/// roles onto one node.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_distinct(rng: &mut impl rand::Rng, k: usize, n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    sample_distinct_into(rng, k, n, &mut out);
    out
}

/// [`sample_distinct`] into a caller-owned buffer (cleared first): pooled
/// trial loops reuse one buffer across trials so steady-state placement
/// stays off the heap. Draw-for-draw identical to [`sample_distinct`].
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_distinct_into(rng: &mut impl rand::Rng, k: usize, n: usize, out: &mut Vec<usize>) {
    assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
    out.clear();
    out.reserve(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        if out.contains(&t) {
            out.push(j);
        } else {
            out.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, RngCore};

    /// The skip taken through `floor`, as the geometric draw was first
    /// written: the oracle [`bernoulli_indices_ln_q`] must replay.
    fn bernoulli_indices_floor(rng: &mut impl Rng, k: usize, ln_q: f64, out: &mut Vec<usize>) {
        if k == 0 {
            return;
        }
        let mut i = 0usize;
        loop {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let skip = (u.ln() / ln_q).floor();
            if !skip.is_finite() || skip >= (k - i) as f64 {
                return;
            }
            i += skip as usize;
            if i >= k {
                return;
            }
            out.push(i);
            i += 1;
            if i >= k {
                return;
            }
        }
    }

    /// Words whose uniform lands within four 2^-53 grid steps of `q^r`, so
    /// that `ln u / ln q` sits next to the integer `r`. The generator follows
    /// the draw's remaining range `rest = k − i` with the oracle's
    /// arithmetic, and half of its words aim at `r = rest`: the
    /// `skip >= k − i` boundary itself. The other half aim at a smaller
    /// `r`, a skip that lands next to an integer.
    #[derive(Clone)]
    struct NearBoundary {
        ln_q: f64,
        rest: usize,
        picks: rand::rngs::SmallRng,
    }

    impl RngCore for NearBoundary {
        fn next_u64(&mut self) -> u64 {
            let r = if self.picks.gen::<bool>() {
                self.rest
            } else {
                self.picks.gen_range(0..=self.rest)
            };
            let unit = 1.0 / (1u64 << 53) as f64;
            let grid = ((r as f64 * self.ln_q).exp() / unit) as i64;
            let m = (grid + self.picks.gen_range(-4i64..=4)).clamp(0, (1 << 53) - 1) as u64;
            let u = (m as f64 * unit).max(f64::MIN_POSITIVE);
            let skip = (u.ln() / self.ln_q).floor();
            if skip.is_finite() && skip < self.rest as f64 {
                self.rest -= skip as usize + 1;
            }
            (m << 11) | (self.picks.next_u64() >> 53)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn truncated_skip_replays_the_floor_form_at_the_boundaries(
            j in 1i32..=24,
            k in 0usize..=10_000,
            seed in any::<u64>(),
        ) {
            let ln_q = (1.0 - 2f64.powi(-j)).ln();
            let mut a = NearBoundary { ln_q, rest: k, picks: stream_rng(seed, 1) };
            let mut b = a.clone();
            let (mut oracle, mut fast) = (Vec::new(), Vec::new());
            bernoulli_indices_floor(&mut a, k, ln_q, &mut oracle);
            bernoulli_indices_ln_q(&mut b, k, ln_q, &mut fast);
            prop_assert_eq!(&oracle, &fast);
            prop_assert_eq!(a.next_u64(), b.next_u64());
            // And on the plain generator the samplers run on.
            let (mut a, mut b) = (stream_rng(seed, 0), stream_rng(seed, 0));
            let (mut oracle, mut fast) = (Vec::new(), Vec::new());
            bernoulli_indices_floor(&mut a, k, ln_q, &mut oracle);
            bernoulli_indices_ln_q(&mut b, k, ln_q, &mut fast);
            prop_assert_eq!(&oracle, &fast);
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }

        #[test]
        fn ln_q_core_replays_bernoulli_indices(
            j in 1i32..=24,
            k in 0usize..=10_000,
            seed in any::<u64>(),
        ) {
            // p = 2^-j, as decay-style callers draw it: the core fed the
            // cached logarithm returns the same indices and leaves the
            // generator where the wrapper does.
            let p = 2f64.powi(-j);
            let (mut a, mut b) = (stream_rng(seed, 0), stream_rng(seed, 0));
            let (mut wrapped, mut core) = (Vec::new(), Vec::new());
            bernoulli_indices(&mut a, k, p, &mut wrapped);
            bernoulli_indices_ln_q(&mut b, k, (1.0 - p).ln(), &mut core);
            prop_assert_eq!(&wrapped, &core);
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn truncated_skip_replays_the_floor_form_on_degenerate_logarithms() {
        // ln q = ±0 and NaN end the draw at once (the skip is ±∞ or NaN);
        // ln q = ±∞ and a positive ln q give a zero or negative skip, which
        // both forms read as 0, so every index is drawn.
        for ln_q in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.7] {
            for k in [0usize, 1, 2, 17, 300] {
                let (mut a, mut b) = (stream_rng(k as u64, 9), stream_rng(k as u64, 9));
                let (mut oracle, mut fast) = (Vec::new(), Vec::new());
                bernoulli_indices_floor(&mut a, k, ln_q, &mut oracle);
                bernoulli_indices_ln_q(&mut b, k, ln_q, &mut fast);
                assert_eq!(oracle, fast, "ln_q={ln_q} k={k}");
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "ln_q={ln_q} k={k}");
                let every = ln_q.is_infinite() || ln_q > 0.0;
                let expect = if every { (0..k).collect() } else { Vec::new() };
                assert_eq!(fast, expect, "ln_q={ln_q} k={k}");
            }
        }
    }

    #[test]
    fn derive_is_deterministic_and_stream_sensitive() {
        assert_eq!(derive(7, 3), derive(7, 3));
        assert_ne!(derive(7, 3), derive(7, 4));
        assert_ne!(derive(7, 3), derive(8, 3));
    }

    #[test]
    fn nearby_seeds_decorrelate() {
        // Consecutive masters should produce wildly different first draws.
        let mut prev: Option<u64> = None;
        for master in 0..16u64 {
            let x: u64 = stream_rng(master, 0).gen();
            if let Some(p) = prev {
                assert_ne!(p, x);
            }
            prev = Some(x);
        }
    }

    #[test]
    fn splitmix_known_nonfixed_points() {
        // Sanity: the mixer is not the identity and spreads zero.
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), 1);
        assert_ne!(splitmix64(0), splitmix64(1));
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut rng = stream_rng(5, 0);
        for (k, n) in [(0usize, 0usize), (0, 10), (1, 1), (4, 10), (10, 10), (7, 1000)] {
            let s = sample_distinct(&mut rng, k, n);
            assert_eq!(s.len(), k, "k={k} n={n}");
            assert!(s.iter().all(|&v| v < n));
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "all distinct for k={k} n={n}");
        }
    }

    #[test]
    fn sample_distinct_covers_every_element_eventually() {
        let mut rng = stream_rng(6, 0);
        let mut seen = [false; 10];
        for _ in 0..200 {
            for v in sample_distinct(&mut rng, 3, 10) {
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every index reachable: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_distinct_rejects_oversized_k() {
        let mut rng = stream_rng(7, 0);
        sample_distinct(&mut rng, 11, 10);
    }

    #[test]
    fn word_stream_is_deterministic_and_distinct_from_stream_rng() {
        let a: Vec<u64> = {
            let mut ws = WordStream::new(9, 4);
            (0..8).map(|_| ws.next_word()).collect()
        };
        let b: Vec<u64> = {
            let mut ws = WordStream::new(9, 4);
            (0..8).map(|_| ws.next_word()).collect()
        };
        assert_eq!(a, b, "pure function of (master, stream)");
        let other: u64 = WordStream::new(9, 5).next_word();
        assert_ne!(a[0], other, "stream-sensitive");
        // The first word must not equal the first draw of the SmallRng
        // stream for the same pair — the two samplers own disjoint coins.
        let small: u64 = stream_rng(9, 4).gen();
        assert_ne!(a[0], small);
    }

    #[test]
    fn word_stream_lanes_are_fair() {
        let mut ws = WordStream::new(3, 0);
        let words = 4000;
        let ones: u64 = (0..words).map(|_| ws.next_word().count_ones() as u64).sum();
        let total = words * 64;
        let freq = ones as f64 / total as f64;
        assert!((freq - 0.5).abs() < 0.01, "bit frequency {freq}");
    }

    #[test]
    fn bernoulli_pow2_word_halves_density_per_level() {
        let mut ws = WordStream::new(4, 0);
        for j in 0..6u32 {
            let trials = 2000;
            let ones: u64 =
                (0..trials).map(|_| bernoulli_pow2_word(&mut ws, j).count_ones() as u64).sum();
            let freq = ones as f64 / (trials * 64) as f64;
            let expect = 0.5f64.powi(j as i32);
            assert!(
                (freq - expect).abs() < 0.05 * expect.max(0.05),
                "j={j}: density {freq} vs {expect}"
            );
        }
        assert_eq!(bernoulli_pow2_word(&mut WordStream::new(1, 1), 0), !0, "j=0 is certainty");
    }

    #[test]
    fn bernoulli_pow2_indices_shape_and_mean() {
        let mut ws = WordStream::new(5, 0);
        let mut out = Vec::new();
        // k = 0: nothing. Partial word: indices stay < k.
        bernoulli_pow2_indices(&mut ws, 0, 1, &mut out);
        assert!(out.is_empty());
        bernoulli_pow2_indices(&mut ws, 70, 0, &mut out);
        assert_eq!(out, (0..70).collect::<Vec<_>>(), "j=0 selects everything");
        let trials = 3000;
        let (k, j) = (100usize, 3u32);
        let mut total = 0usize;
        for _ in 0..trials {
            out.clear();
            bernoulli_pow2_indices(&mut ws, k, j, &mut out);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            assert!(out.iter().all(|&i| i < k));
            total += out.len();
        }
        let mean = total as f64 / trials as f64;
        let expect = k as f64 * 0.125;
        assert!((mean - expect).abs() < 0.3, "mean {mean} vs {expect}");
    }

    #[test]
    fn bernoulli_indices_edge_probabilities() {
        let mut rng = stream_rng(1, 1);
        let mut out = Vec::new();
        bernoulli_indices(&mut rng, 100, 0.0, &mut out);
        assert!(out.is_empty());
        bernoulli_indices(&mut rng, 100, 1.0, &mut out);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        out.clear();
        bernoulli_indices(&mut rng, 0, 0.5, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn bernoulli_indices_mean_matches_p() {
        let mut rng = stream_rng(2, 0);
        let trials = 2000;
        let k = 50;
        let p = 0.3;
        let mut total = 0usize;
        let mut out = Vec::new();
        for _ in 0..trials {
            out.clear();
            bernoulli_indices(&mut rng, k, p, &mut out);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
            assert!(out.iter().all(|&i| i < k));
            total += out.len();
        }
        let mean = total as f64 / trials as f64;
        let expect = k as f64 * p;
        // 2000 trials of Binomial(50, .3): std of the mean ≈ 0.07.
        assert!((mean - expect).abs() < 0.5, "mean {mean} vs {expect}");
    }

    #[test]
    fn bernoulli_indices_per_index_frequency_is_uniform() {
        let mut rng = stream_rng(3, 0);
        let trials = 4000;
        let k = 10;
        let p = 0.5;
        let mut counts = vec![0u32; k];
        let mut out = Vec::new();
        for _ in 0..trials {
            out.clear();
            bernoulli_indices(&mut rng, k, p, &mut out);
            for &i in &out {
                counts[i] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / trials as f64;
            assert!((freq - p).abs() < 0.05, "index {i} frequency {freq}");
        }
    }
}
