//! Hybrid CSR / bitmap adjacency for dense-round kernels.
//!
//! A radio round whose transmitter degree sum rivals `n` (decay's early
//! layers on dense geometric graphs, floods on near-complete topologies)
//! spends its time scattering per-edge writes through [`Graph::neighbors`].
//! For exactly those rounds a simulator wants the *word* form of a row —
//! one `u64` bitmap word per 64 nodes — so "everyone adjacent to `u` hears
//! energy" becomes `⌈n/64⌉` OR/AND word operations instead of `deg(u)`
//! random writes.
//!
//! Materializing a bitmap row for every node costs `n²/8` bytes, which is
//! unaffordable beyond a few thousand nodes. [`HybridAdjacency`] therefore
//! keeps bitmap rows only for nodes above a degree threshold (the rows that
//! amortize: a row with `deg(u) ≥ n/64` touches at least one bit per word
//! on average) and answers every other node from the graph's existing CSR
//! row. The structure is a cache — it borrows nothing and adds no new
//! semantics; [`HybridAdjacency::row`] agrees bit-for-bit with
//! [`Graph::neighbors`], which a unit test pins.
//!
//! Many graphs get no bitmap row at all: grids, paths and sparse random
//! graphs stay far below degree 64. [`HybridAdjacency::has_bitmap_rows`]
//! says so without building the cache, and the simulator uses it to keep
//! such graphs below 8192 nodes off its word kernel entirely: there the
//! kernel would walk the same CSR rows as the per-edge path and add its
//! node-order sweep on top.

use crate::graph::{Graph, NodeId};

/// Bitmap rows for the high-degree nodes of one [`Graph`], CSR fallback for
/// the rest. See the module docs for the cost model.
#[derive(Debug, Clone)]
pub struct HybridAdjacency {
    /// Words per bitmap row: `⌈n/64⌉`.
    words: usize,
    /// For each node, the index of its bitmap row, or `u32::MAX` if the
    /// node is below the threshold and answers from CSR.
    row_of: Vec<u32>,
    /// Concatenated bitmap rows, `words` words each.
    bits: Vec<u64>,
    /// The degree threshold rows were built at (diagnostics/tests).
    threshold: usize,
}

impl HybridAdjacency {
    /// Builds bitmap rows for every node with `degree ≥ threshold`
    /// (unconditionally — callers wanting the memory-capped default policy
    /// use [`HybridAdjacency::for_graph`]).
    pub fn build(g: &Graph, threshold: usize) -> HybridAdjacency {
        let candidates: Vec<NodeId> =
            g.nodes().filter(|&v| g.degree(v) >= threshold.max(1)).collect();
        HybridAdjacency::with_rows(g, &candidates, threshold)
    }

    /// Builds the default policy for `g`: threshold `max(64, n/64)` (below
    /// that a bitmap row does not beat the CSR walk), with total bitmap
    /// memory capped at ~8 words per node by keeping only the highest-degree
    /// rows when the graph is dense enough to blow the budget.
    pub fn for_graph(g: &Graph) -> HybridAdjacency {
        let n = g.n();
        let threshold = default_threshold(n);
        let words = n.div_ceil(64);
        let budget_words = 8 * n;
        let max_rows = budget_words.checked_div(words).map_or(0, |r| r.max(1));
        let mut candidates: Vec<NodeId> = g.nodes().filter(|&v| g.degree(v) >= threshold).collect();
        if candidates.len() > max_rows {
            // Keep the top-k rows by (degree desc, id asc): the highest
            // degrees are exactly the rows the word kernel profits from.
            candidates.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
            candidates.truncate(max_rows);
        }
        HybridAdjacency::with_rows(g, &candidates, threshold)
    }

    /// Whether [`HybridAdjacency::for_graph`] gives `g` at least one bitmap
    /// row: some node reaches the default threshold `max(64, n/64)`. A graph
    /// without one (every grid, path and sparse random graph) answers every
    /// row from CSR, so a word kernel over it gains nothing from the cache.
    pub fn has_bitmap_rows(g: &Graph) -> bool {
        g.max_degree() >= default_threshold(g.n())
    }

    fn with_rows(g: &Graph, rows: &[NodeId], threshold: usize) -> HybridAdjacency {
        let n = g.n();
        let words = n.div_ceil(64);
        let mut row_of = vec![u32::MAX; n];
        let mut bits = vec![0u64; rows.len() * words];
        for (ri, &v) in rows.iter().enumerate() {
            row_of[v as usize] = ri as u32;
            let row = &mut bits[ri * words..(ri + 1) * words];
            for &u in g.neighbors(v) {
                row[(u as usize) >> 6] |= 1u64 << (u as usize & 63);
            }
        }
        let adj = HybridAdjacency { words, row_of, bits, threshold };
        // Debug-build round-trip check, compiled out in release: every
        // bitmap row decodes to exactly its node's CSR neighbor list.
        #[cfg(debug_assertions)]
        for &v in rows {
            let row = adj.row(v).expect("row was just built");
            let pop: usize = row.iter().map(|w| w.count_ones() as usize).sum();
            debug_assert_eq!(
                pop,
                g.degree(v),
                "HybridAdjacency: row popcount diverged from degree of node {v}"
            );
            for &u in g.neighbors(v) {
                debug_assert!(
                    row[(u as usize) >> 6] & (1u64 << (u as usize & 63)) != 0,
                    "HybridAdjacency: neighbor {u} of {v} missing from bitmap row"
                );
            }
        }
        adj
    }

    /// The bitmap row of `v` (one bit per neighbor), or `None` if `v` is
    /// below the threshold / outside the memory cap and should be answered
    /// from [`Graph::neighbors`].
    #[inline]
    pub fn row(&self, v: NodeId) -> Option<&[u64]> {
        let ri = self.row_of[v as usize];
        (ri != u32::MAX).then(|| {
            let start = ri as usize * self.words;
            &self.bits[start..start + self.words]
        })
    }

    /// The degree threshold this cache was built at.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Number of nodes holding a bitmap row.
    pub fn bitmap_rows(&self) -> usize {
        self.bits.len().checked_div(self.words).unwrap_or(0)
    }
}

/// The default bitmap-row threshold of an `n`-node graph.
fn default_threshold(n: usize) -> usize {
    (n / 64).max(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    /// Expands a bitmap row back into the sorted neighbor list.
    fn expand(row: &[u64]) -> Vec<NodeId> {
        let mut out = Vec::new();
        for (wi, &w) in row.iter().enumerate() {
            let mut rest = w;
            while rest != 0 {
                out.push((wi * 64 + rest.trailing_zeros() as usize) as NodeId);
                rest &= rest - 1;
            }
        }
        out
    }

    #[test]
    fn rows_match_graph_neighbors_exactly() {
        // Shapes chosen to exercise: uniform degree (complete), hub + leaves
        // (star), and irregular degrees with n not a multiple of 64.
        for g in [generators::complete(70), generators::star(130), generators::grid(9, 7)] {
            let adj = HybridAdjacency::build(&g, 1); // every node gets a row
            assert_eq!(adj.bitmap_rows(), g.n());
            for v in g.nodes() {
                let row = adj.row(v).expect("threshold 1 covers every node");
                assert_eq!(row.len(), g.n().div_ceil(64), "row of {v} is ⌈n/64⌉ words");
                assert_eq!(expand(row), g.neighbors(v), "row of {v}");
            }
        }
    }

    #[test]
    fn threshold_splits_rows_from_csr_fallback() {
        // Star: only the hub (degree n-1) clears any threshold above 1.
        let g = generators::star(100);
        let adj = HybridAdjacency::build(&g, 50);
        assert_eq!(adj.threshold(), 50);
        assert_eq!(adj.bitmap_rows(), 1, "only the hub qualifies");
        assert_eq!(expand(adj.row(0).unwrap()), g.neighbors(0));
        for leaf in 1..100 {
            assert!(adj.row(leaf).is_none(), "leaf {leaf} answers from CSR");
        }
    }

    #[test]
    fn default_policy_caps_memory_but_keeps_highest_degrees() {
        // Complete(256): every node has degree 255 ≥ threshold 64, but the
        // 8-words-per-node budget only affords 8·256/4 = 512 ≥ 256 rows, so
        // all fit. Complete(1024): words = 16, budget rows = 8·1024/16 =
        // 512 < 1024 — exactly 512 rows survive.
        let g = generators::complete(1024);
        let adj = HybridAdjacency::for_graph(&g);
        assert_eq!(adj.bitmap_rows(), 512, "memory cap binds");
        // Ties broken by id: nodes 0..512 hold the rows.
        assert!(adj.row(0).is_some() && adj.row(511).is_some());
        assert!(adj.row(512).is_none() && adj.row(1023).is_none());
        let g = generators::complete(256);
        assert_eq!(HybridAdjacency::for_graph(&g).bitmap_rows(), 256, "budget not binding");
    }

    #[test]
    fn empty_and_tiny_graphs_are_safe() {
        let g = generators::path(2);
        let adj = HybridAdjacency::for_graph(&g);
        assert_eq!(adj.bitmap_rows(), 0, "path degrees are below the floor threshold");
        assert!(adj.row(0).is_none() && adj.row(1).is_none());
    }

    #[test]
    fn has_bitmap_rows_predicts_the_default_policy() {
        // complete(64)/(65): degree 63 misses the floor threshold 64, degree
        // 64 meets it; star(8193): only the hub reaches max(64, 8193/64).
        for g in [
            generators::path(2),
            generators::complete(64),
            generators::complete(65),
            generators::complete(96),
            generators::grid(128, 64),
            generators::star(8193),
            generators::star(64),
        ] {
            let rows = HybridAdjacency::for_graph(&g).bitmap_rows();
            assert_eq!(HybridAdjacency::has_bitmap_rows(&g), rows > 0, "n={} rows={rows}", g.n());
        }
        assert!(!HybridAdjacency::has_bitmap_rows(&generators::complete(64)));
        assert!(HybridAdjacency::has_bitmap_rows(&generators::complete(65)));
    }
}
