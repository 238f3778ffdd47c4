use crate::error::GraphError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a node (station) in a radio network.
///
/// Node ids are dense: a graph with `n` nodes uses ids `0..n`.
pub type NodeId = u32;

/// Sentinel id used by traversals to mean "no node" (e.g. unreachable).
pub const INVALID_NODE: NodeId = u32::MAX;

/// A simple undirected graph in CSR (compressed sparse row) form.
///
/// This is the topology substrate shared by the simulator and all algorithm
/// crates. The representation is immutable after construction: radio-network
/// topologies are fixed for the duration of an execution.
///
/// Invariants (enforced by every constructor):
/// * no self loops, no parallel edges;
/// * adjacency lists are sorted ascending;
/// * the graph is symmetric (undirected): `v ∈ adj(u) ⇔ u ∈ adj(v)`.
///
/// # Example
///
/// ```
/// use rn_graph::Graph;
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])?;
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.neighbors(0), &[1, 3]);
/// assert_eq!(g.degree(2), 2);
/// # Ok::<(), rn_graph::GraphError>(())
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    /// `offsets[v]..offsets[v + 1]` indexes `targets` for node `v`'s adjacency.
    offsets: Vec<u32>,
    /// Concatenated sorted adjacency lists.
    targets: Vec<NodeId>,
    /// See [`Graph::instance_id`]. Marked for a serde backend to skip it
    /// and stamp a fresh id on deserialization; the workspace's `serde`
    /// shim derives nothing, so no code path here exercises that.
    #[serde(skip, default = "next_instance_id")]
    instance_id: u64,
}

/// Source of [`Graph::instance_id`]s; `0` is never handed out.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

fn next_instance_id() -> u64 {
    // The read-modify-write alone makes ids unique, and no other data is
    // published through the counter, so `Relaxed` suffices.
    NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Structural equality: the same node count and edge set, whatever the
/// graphs' [`Graph::instance_id`]s.
impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        self.n == other.n && self.offsets == other.offsets && self.targets == other.targets
    }
}

impl Eq for Graph {}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Duplicate edges (in either orientation) are merged; edge order is
    /// irrelevant. Isolated nodes are allowed here (connectivity is checked
    /// separately by [`Graph::is_connected`]).
    ///
    /// # Errors
    ///
    /// * [`GraphError::Empty`] if `n == 0`;
    /// * [`GraphError::TooManyNodes`] if `n` exceeds the `u32` id space;
    /// * [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`;
    /// * [`GraphError::SelfLoop`] if an edge connects a node to itself.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Graph, GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        if n >= INVALID_NODE as usize {
            return Err(GraphError::TooManyNodes { requested: n });
        }
        for &(u, v) in edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
        }

        // Counting sort into CSR, then dedup each adjacency list. `deg` is
        // reused as the scatter cursor once the prefix sums are in
        // `offsets`, so the build allocates exactly three buffers (degrees,
        // offsets, targets), each at its final size.
        let mut deg = vec![0u32; n];
        for &(u, v) in edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + deg[v];
        }
        let mut targets = vec![0 as NodeId; offsets[n] as usize];
        let cursor = &mut deg;
        cursor.copy_from_slice(&offsets[..n]);
        for &(u, v) in edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }

        // Sort + dedup per node, then re-compact.
        let mut compact_targets = Vec::with_capacity(targets.len());
        let mut compact_offsets = vec![0u32; n + 1];
        for v in 0..n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            let list = &mut targets[lo..hi];
            list.sort_unstable();
            let mut prev = INVALID_NODE;
            for &t in list.iter() {
                if t != prev {
                    compact_targets.push(t);
                    prev = t;
                }
            }
            compact_offsets[v + 1] = compact_targets.len() as u32;
        }

        Ok(Graph {
            n,
            offsets: compact_offsets,
            targets: compact_targets,
            instance_id: next_instance_id(),
        })
    }

    /// A process-unique identity for this graph value, stamped at
    /// construction and kept by clones (a clone has the same edges, and a
    /// graph never changes after construction).
    ///
    /// Caches keyed on a graph — the simulator's dense-kernel adjacency,
    /// the Compete connectivity memo — key on this id rather than the
    /// graph's address: a variable reassigned in place to a different graph
    /// keeps its address, and may keep `n` and `m` too. Two graphs built
    /// separately never share an id, even when they are equal.
    #[inline]
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges `m = |E|`.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Maximum degree over all nodes (0 for the single-node graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v as NodeId)).max().unwrap_or(0)
    }

    /// Sorted adjacency list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Whether `{u, v}` is an edge (binary search over `u`'s list).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all nodes `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n as NodeId
    }

    /// Iterates over each undirected edge exactly once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Whether the graph is connected (single-node graphs are connected).
    pub fn is_connected(&self) -> bool {
        let dist = crate::traversal::bfs(self, 0);
        dist.iter().all(|&d| d != u32::MAX)
    }

    /// Exact diameter via all-pairs BFS (`O(n·m)`).
    ///
    /// Suitable for the graph sizes used in tests and experiments; for very
    /// large instances prefer [`Graph::diameter_double_sweep`].
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub fn diameter(&self) -> u32 {
        let mut best = 0;
        for v in self.nodes() {
            let ecc =
                crate::traversal::eccentricity(self, v).expect("diameter of a disconnected graph");
            best = best.max(ecc);
        }
        best
    }

    /// Lower bound on the diameter via the double-sweep heuristic (`O(m)`);
    /// exact on trees, and typically exact or near-exact on the geometric and
    /// grid-like topologies radio networks model.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub fn diameter_double_sweep(&self) -> u32 {
        let d0 = crate::traversal::bfs(self, 0);
        let far = argmax_dist(&d0).expect("disconnected graph");
        let d1 = crate::traversal::bfs(self, far);
        d1.iter().copied().max().unwrap_or(0)
    }
}

fn argmax_dist(dist: &[u32]) -> Option<NodeId> {
    let mut best: Option<(u32, NodeId)> = None;
    for (v, &d) in dist.iter().enumerate() {
        if d == u32::MAX {
            return None;
        }
        if best.is_none_or(|(bd, _)| d > bd) {
            best = Some((d, v as NodeId));
        }
    }
    best.map(|(_, v)| v)
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("m", &self.m())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap()
    }

    #[test]
    fn builds_and_reports_basic_shape() {
        let g = cycle4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = Graph::from_edges(5, &[(3, 1), (0, 3), (4, 0), (1, 0)]).unwrap();
        for u in g.nodes() {
            let adj = g.neighbors(u);
            assert!(adj.windows(2).all(|w| w[0] < w[1]), "sorted");
            for &v in adj {
                assert!(g.has_edge(v, u), "symmetric");
            }
        }
    }

    #[test]
    fn parallel_edges_are_merged() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]).unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(Graph::from_edges(0, &[]), Err(GraphError::Empty));
        assert_eq!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::NodeOutOfRange { node: 2, n: 2 })
        );
        assert_eq!(Graph::from_edges(2, &[(1, 1)]), Err(GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn single_node_graph_is_connected_with_zero_diameter() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.diameter(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn isolated_node_disconnects() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = cycle4();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn diameter_of_cycle() {
        let g = cycle4();
        assert_eq!(g.diameter(), 2);
        assert_eq!(g.diameter_double_sweep(), 2);
    }

    #[test]
    fn instance_ids_follow_construction_not_content() {
        let (a, b) = (cycle4(), cycle4());
        assert_eq!(a, b, "equality is structural");
        assert_ne!(a.instance_id(), b.instance_id(), "separate builds get separate ids");
        assert_eq!(a.clone().instance_id(), a.instance_id(), "a clone is the same graph");
    }

    #[test]
    fn debug_output_mentions_shape() {
        let g = cycle4();
        let s = format!("{g:?}");
        assert!(s.contains("n: 4") && s.contains("m: 4"));
    }
}
