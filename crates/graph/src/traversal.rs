//! Breadth-first traversals and distance statistics.
//!
//! The paper's analysis is phrased in terms of BFS distances: cluster radii,
//! diameter `D`, shortest `(u, v)`-paths, and the distance-layer histograms
//! `x_i = |A_i(v)|` used throughout Section 6. This module provides those
//! primitives over [`Graph`].

use crate::graph::{Graph, NodeId, INVALID_NODE};
use std::collections::VecDeque;

/// Distances from `src` to every node; `u32::MAX` marks unreachable nodes.
///
/// # Example
///
/// ```
/// use rn_graph::{Graph, traversal};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
/// assert_eq!(traversal::bfs(&g, 0), vec![0, 1, 2, 3]);
/// # Ok::<(), rn_graph::GraphError>(())
/// ```
pub fn bfs(g: &Graph, src: NodeId) -> Vec<u32> {
    bfs_filtered(g, &[src], |_| true)
}

/// BFS restricted to nodes accepted by `keep` (sources are always kept).
///
/// Used for *strong* (intra-cluster) distances: pass a membership predicate
/// to confine the traversal to one cluster.
pub fn bfs_filtered(g: &Graph, sources: &[NodeId], keep: impl Fn(NodeId) -> bool) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue = VecDeque::with_capacity(sources.len().max(16));
    for &s in sources {
        if dist[s as usize] == u32::MAX {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == u32::MAX && keep(v) {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS that also records a parent pointer per node (`INVALID_NODE` for the
/// source and unreachable nodes). Parents are the smallest-id neighbor at the
/// previous layer, making trees deterministic.
pub fn bfs_with_parents(g: &Graph, src: NodeId) -> (Vec<u32>, Vec<NodeId>) {
    let mut dist = vec![u32::MAX; g.n()];
    let mut parent = vec![INVALID_NODE; g.n()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// Eccentricity of `v`: the largest BFS distance from `v`. `None` if some
/// node is unreachable from `v`.
pub fn eccentricity(g: &Graph, v: NodeId) -> Option<u32> {
    let dist = bfs(g, v);
    let mut ecc = 0;
    for &d in &dist {
        if d == u32::MAX {
            return None;
        }
        ecc = ecc.max(d);
    }
    Some(ecc)
}

/// Reconstructs one shortest `src → dst` path (inclusive) from a parent
/// array produced by [`bfs_with_parents`]. Returns `None` if `dst` is
/// unreachable.
pub fn path_from_parents(parent: &[NodeId], src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        let p = parent[cur as usize];
        if p == INVALID_NODE {
            return None;
        }
        path.push(p);
        cur = p;
        if path.len() > parent.len() {
            return None; // cycle guard; cannot happen with a valid parent array
        }
    }
    path.reverse();
    Some(path)
}

/// The canonical shortest `(u, v)`-path used by the paper's Lemma 4.4/4.7
/// arguments: BFS from `u` with smallest-id parent selection makes the path
/// unique and reproducible.
pub fn canonical_shortest_path(g: &Graph, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
    let (_, parent) = bfs_with_parents(g, u);
    path_from_parents(&parent, u, v)
}

/// An iterator-style BFS frontier walker, exposing one distance layer at a
/// time. Useful for layer-synchronous protocol bootstraps.
#[derive(Debug)]
pub struct Bfs<'g> {
    graph: &'g Graph,
    dist: Vec<u32>,
    frontier: Vec<NodeId>,
    depth: u32,
}

impl<'g> Bfs<'g> {
    /// Starts a layered BFS from `sources` (all at depth 0).
    pub fn new(graph: &'g Graph, sources: &[NodeId]) -> Self {
        let mut dist = vec![u32::MAX; graph.n()];
        let mut frontier = Vec::with_capacity(sources.len());
        for &s in sources {
            if dist[s as usize] == u32::MAX {
                dist[s as usize] = 0;
                frontier.push(s);
            }
        }
        Bfs { graph, dist, frontier, depth: 0 }
    }

    /// The current frontier (nodes at distance [`Bfs::depth`]).
    pub fn frontier(&self) -> &[NodeId] {
        &self.frontier
    }

    /// Depth of the current frontier.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Distances discovered so far (`u32::MAX` = not yet reached).
    pub fn dist(&self) -> &[u32] {
        &self.dist
    }

    /// Advances to the next layer; returns `false` when exhausted.
    pub fn advance(&mut self) -> bool {
        let mut next = Vec::new();
        for &u in &self.frontier {
            for &v in self.graph.neighbors(u) {
                if self.dist[v as usize] == u32::MAX {
                    self.dist[v as usize] = self.depth + 1;
                    next.push(v);
                }
            }
        }
        self.frontier = next;
        self.depth += 1;
        !self.frontier.is_empty()
    }
}

/// The distance-layer histogram `x` of a node `v`: `x[i] = |A_i(v)|`, the
/// number of nodes at distance exactly `i`. This is the vector the paper's
/// Section 6 analysis operates on (`S_{x,β}` etc.).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerHistogram {
    /// `counts[i]` is the number of nodes at distance exactly `i` from the root.
    pub counts: Vec<u64>,
}

impl LayerHistogram {
    /// Computes the histogram for `v`; entries beyond the eccentricity are
    /// omitted. Unreachable nodes are ignored.
    pub fn of(g: &Graph, v: NodeId) -> LayerHistogram {
        let dist = bfs(g, v);
        let max = dist.iter().copied().filter(|&d| d != u32::MAX).max().unwrap_or(0);
        let mut counts = vec![0u64; max as usize + 1];
        for &d in &dist {
            if d != u32::MAX {
                counts[d as usize] += 1;
            }
        }
        LayerHistogram { counts }
    }

    /// Total number of reachable nodes (including the root itself).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Eccentricity implied by the histogram.
    pub fn eccentricity(&self) -> u32 {
        (self.counts.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path(5);
        assert_eq!(bfs(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn filtered_bfs_respects_membership() {
        // Path 0-1-2-3-4; forbid node 2: nodes 3,4 unreachable from 0.
        let g = generators::path(5);
        let d = bfs_filtered(&g, &[0], |v| v != 2);
        assert_eq!(d, vec![0, 1, u32::MAX, u32::MAX, u32::MAX]);
    }

    #[test]
    fn parents_produce_shortest_paths() {
        let g = generators::grid(4, 4);
        let (dist, parent) = bfs_with_parents(&g, 0);
        for v in g.nodes() {
            let p = path_from_parents(&parent, 0, v).unwrap();
            assert_eq!(p.len() as u32 - 1, dist[v as usize]);
            assert_eq!(*p.first().unwrap(), 0);
            assert_eq!(*p.last().unwrap(), v);
            for w in p.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn canonical_path_is_deterministic() {
        let g = generators::grid(5, 5);
        let p1 = canonical_shortest_path(&g, 0, 24).unwrap();
        let p2 = canonical_shortest_path(&g, 0, 24).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), 9); // 8 hops on a 5x5 grid corner to corner
    }

    #[test]
    fn unreachable_path_is_none() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(canonical_shortest_path(&g, 0, 2).is_none());
        assert_eq!(eccentricity(&g, 0), None);
    }

    #[test]
    fn eccentricity_on_star() {
        let g = generators::star(9);
        assert_eq!(eccentricity(&g, 0), Some(1));
        assert_eq!(eccentricity(&g, 1), Some(2));
    }

    #[test]
    fn layered_walker_matches_bfs() {
        let g = generators::grid(6, 6);
        let mut walker = Bfs::new(&g, &[0]);
        while walker.advance() {}
        assert_eq!(walker.dist(), &bfs(&g, 0)[..]);
    }

    #[test]
    fn layer_histogram_of_grid_corner() {
        let g = generators::grid(3, 3);
        let h = LayerHistogram::of(&g, 0);
        assert_eq!(h.counts, vec![1, 2, 3, 2, 1]);
        assert_eq!(h.total(), 9);
        assert_eq!(h.eccentricity(), 4);
    }
}
