//! Topology generators for radio-network experiments.
//!
//! Two families dominate the evaluation:
//!
//! * **deterministic shapes** with controllable diameter `D` — paths, cycles,
//!   grids, tori, trees, barbells — used to sweep the `D` axis of the paper's
//!   running-time bounds;
//! * **random models of ad-hoc deployments** — random geometric (unit-disk)
//!   graphs, `G(n, p)`, random trees — the standard stand-ins for physical
//!   radio deployments.
//!
//! All randomized generators take an explicit `&mut impl Rng` so experiments
//! are exactly reproducible from a master seed.

use crate::graph::{Graph, NodeId, INVALID_NODE};
use rand::seq::SliceRandom;
use rand::Rng;

/// Simple path `0 - 1 - … - (n-1)`; diameter `n - 1`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|v| ((v - 1) as NodeId, v as NodeId)).collect();
    Graph::from_edges(n, &edges).expect("path construction")
}

/// Cycle on `n ≥ 3` nodes; diameter `⌊n/2⌋`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let mut edges: Vec<_> = (1..n).map(|v| ((v - 1) as NodeId, v as NodeId)).collect();
    edges.push(((n - 1) as NodeId, 0));
    Graph::from_edges(n, &edges).expect("cycle construction")
}

/// `w × h` grid; node `(x, y)` has id `y * w + x`; diameter `(w-1) + (h-1)`.
///
/// # Panics
///
/// Panics if `w == 0 || h == 0`.
pub fn grid(w: usize, h: usize) -> Graph {
    assert!(w > 0 && h > 0, "grid dimensions must be positive");
    let mut edges = Vec::with_capacity(2 * w * h);
    let id = |x: usize, y: usize| (y * w + x) as NodeId;
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    Graph::from_edges(w * h, &edges).expect("grid construction")
}

/// `w × h` torus (grid with wraparound); diameter `⌊w/2⌋ + ⌊h/2⌋`.
///
/// # Panics
///
/// Panics if `w < 3 || h < 3` (smaller tori degenerate to multi-edges).
pub fn torus(w: usize, h: usize) -> Graph {
    assert!(w >= 3 && h >= 3, "torus dimensions must be at least 3");
    let mut edges = Vec::with_capacity(2 * w * h);
    let id = |x: usize, y: usize| (y * w + x) as NodeId;
    for y in 0..h {
        for x in 0..w {
            edges.push((id(x, y), id((x + 1) % w, y)));
            edges.push((id(x, y), id(x, (y + 1) % h)));
        }
    }
    Graph::from_edges(w * h, &edges).expect("torus construction")
}

/// Complete graph `K_n`; diameter 1.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u as NodeId, v as NodeId));
        }
    }
    Graph::from_edges(n, &edges).expect("complete construction")
}

/// Star: node 0 is the hub, nodes `1..n` are leaves; diameter 2.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    let edges: Vec<_> = (1..n).map(|v| (0, v as NodeId)).collect();
    Graph::from_edges(n, &edges).expect("star construction")
}

/// Complete binary tree with `n` nodes (heap indexing: children of `v` are
/// `2v+1`, `2v+2`); diameter `Θ(log n)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for v in 1..n {
        edges.push((((v - 1) / 2) as NodeId, v as NodeId));
    }
    Graph::from_edges(n, &edges).expect("binary tree construction")
}

/// `d`-dimensional hypercube (`n = 2^d` nodes); diameter `d`.
///
/// # Panics
///
/// Panics if `d == 0` or `d > 24`.
pub fn hypercube(d: u32) -> Graph {
    assert!((1..=24).contains(&d), "hypercube dimension must be in 1..=24");
    let n = 1usize << d;
    let mut edges = Vec::with_capacity(n * d as usize / 2);
    for v in 0..n {
        for b in 0..d {
            let u = v ^ (1 << b);
            if v < u {
                edges.push((v as NodeId, u as NodeId));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("hypercube construction")
}

/// Uniform random labelled tree on `n` nodes via a random Prüfer sequence.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Graph {
    if n <= 2 {
        return path(n);
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1u32; n];
    for &p in &prufer {
        degree[p] += 1;
    }
    // Standard Prüfer decoding with a min-heap of current leaves.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut leaves: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&v| degree[v] == 1).map(Reverse).collect();
    let mut edges = Vec::with_capacity(n - 1);
    for &p in &prufer {
        let Reverse(leaf) = leaves.pop().expect("Prüfer decoding invariant");
        edges.push((leaf as NodeId, p as NodeId));
        degree[leaf] -= 1;
        degree[p] -= 1;
        if degree[p] == 1 {
            leaves.push(Reverse(p));
        }
    }
    let Reverse(u) = leaves.pop().expect("two leaves remain");
    let Reverse(v) = leaves.pop().expect("two leaves remain");
    edges.push((u as NodeId, v as NodeId));
    Graph::from_edges(n, &edges).expect("random tree construction")
}

/// Caterpillar: a spine path of length `spine` with `legs` leaves hanging off
/// every spine node. `n = spine · (1 + legs)`; diameter `spine + 1` for
/// `legs ≥ 1`. A high-boundary-density topology that stresses the clustering.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine > 0, "caterpillar needs a spine");
    let n = spine * (1 + legs);
    let mut edges = Vec::with_capacity(n);
    for s in 1..spine {
        edges.push(((s - 1) as NodeId, s as NodeId));
    }
    for s in 0..spine {
        for l in 0..legs {
            let leaf = spine + s * legs + l;
            edges.push((s as NodeId, leaf as NodeId));
        }
    }
    Graph::from_edges(n, &edges).expect("caterpillar construction")
}

/// Barbell: two cliques of size `k` joined by a path of `bridge` nodes.
/// `n = 2k + bridge`; diameter `bridge + 3` (for `k ≥ 2`). Exhibits the
/// dense-cluster/long-bottleneck structure where coarse-cluster boundaries
/// (the paper's "bad subpaths") actually bite.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn barbell(k: usize, bridge: usize) -> Graph {
    assert!(k > 0, "barbell cliques must be nonempty");
    let n = 2 * k + bridge;
    let mut edges = Vec::new();
    for u in 0..k {
        for v in (u + 1)..k {
            edges.push((u as NodeId, v as NodeId));
        }
    }
    let right = k + bridge;
    for u in right..n {
        for v in (u + 1)..n {
            edges.push((u as NodeId, v as NodeId));
        }
    }
    // Path through the bridge connecting clique exits.
    let mut prev = (k - 1) as NodeId;
    for b in 0..bridge {
        let cur = (k + b) as NodeId;
        edges.push((prev, cur));
        prev = cur;
    }
    edges.push((prev, right as NodeId));
    Graph::from_edges(n, &edges).expect("barbell construction")
}

/// Ring of cliques: `k` cliques of `size` nodes each, arranged in a cycle
/// with one bridge edge between consecutive cliques (the first node of each
/// clique is its port). `n = k · size`; diameter `⌊k/2⌋ + 2` for `size ≥ 2`.
/// A many-dense-clusters topology where every inter-cluster hop crosses a
/// single contended edge — the regime stressing the paper's coarse-cluster
/// boundary machinery from all sides at once.
///
/// # Panics
///
/// Panics if `k < 3` (no ring) or `size == 0`.
pub fn ring_of_cliques(k: usize, size: usize) -> Graph {
    assert!(k >= 3, "ring of cliques needs at least 3 cliques");
    assert!(size > 0, "cliques must be nonempty");
    let n = k * size;
    let mut edges = Vec::with_capacity(k * (size * (size - 1) / 2 + 1));
    for c in 0..k {
        let base = c * size;
        for u in 0..size {
            for v in (u + 1)..size {
                edges.push(((base + u) as NodeId, (base + v) as NodeId));
            }
        }
        edges.push(((c * size) as NodeId, (((c + 1) % k) * size) as NodeId));
    }
    Graph::from_edges(n, &edges).expect("ring of cliques construction")
}

/// Lollipop: a clique of size `k` with a path of `tail` nodes attached.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn lollipop(k: usize, tail: usize) -> Graph {
    assert!(k > 0, "lollipop clique must be nonempty");
    let n = k + tail;
    let mut edges = Vec::new();
    for u in 0..k {
        for v in (u + 1)..k {
            edges.push((u as NodeId, v as NodeId));
        }
    }
    let mut prev = (k - 1) as NodeId;
    for t in 0..tail {
        let cur = (k + t) as NodeId;
        edges.push((prev, cur));
        prev = cur;
    }
    Graph::from_edges(n, &edges).expect("lollipop construction")
}

/// Random geometric graph (unit-disk model), made connected: `n` points
/// uniform in the unit square, an edge between two points at Euclidean
/// distance `≤ radius` that lie in adjacent cells of the grid below, and
/// nearest-pair edges that join every other component to node 0's (the
/// standard "connected RGG" used in radio-network simulation; the join
/// count is tiny for radii near the connectivity threshold
/// `~sqrt(ln n / (π n))`).
///
/// The points take `2n` draws from `rng` (`x` then `y` per point) and
/// nothing else does. The graph is built in three passes:
///
/// 1. **Pair scan.** The points are counting-sorted into a grid of
///    `c = min(⌈1/radius⌉, ⌈√n⌉)` cells per side and stored cell by cell.
///    Each unordered pair of Chebyshev-adjacent cells (a cell with itself,
///    then with its four forward neighbours) is visited once, and two of
///    its points become an edge when `(Δx)² + (Δy)² ≤ radius²`. Points in
///    cells further apart are not tested.
/// 2. **Components.** One union-find pass over the edges labels each node
///    with the smallest node of its component.
/// 3. **Joins.** While a node lies outside node 0's component, the pair of
///    a node `v` outside and a node `u` inside with the smallest
///    `(d², v, u)` (`d²` their squared distance) becomes the edge `(u, v)`,
///    and `v`'s whole component moves inside. This is Prim's algorithm over
///    components: each outside node keeps its nearest inside node (the
///    smallest id on a distance tie), refreshed only against the nodes that
///    just moved inside.
///
/// [`Graph::from_edges`] then runs once. Time `O(n + m + n·k₀)` for `m`
/// scanned pairs (`O(n + edges)` in expectation, since the cells are about
/// `radius` wide or hold `O(1)` points), where `k₀` is the number of nodes
/// outside node 0's component after the scan.
///
/// # Panics
///
/// Panics if `n == 0` or `radius <= 0.0`.
pub fn random_geometric(n: usize, radius: f64, rng: &mut impl Rng) -> Graph {
    assert!(n > 0 && radius > 0.0, "invalid RGG parameters");
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
    let mut edges = rgg_pairs(&pts, radius);
    let roots = component_roots(n, &edges);
    join_to_node_zero(&pts, &roots, &mut edges);
    Graph::from_edges(n, &edges).expect("RGG construction")
}

/// Squared Euclidean distance: the one expression of both the edge test and
/// the joins (exactly symmetric in its arguments).
fn dist2(p: (f64, f64), q: (f64, f64)) -> f64 {
    (p.0 - q.0).powi(2) + (p.1 - q.1).powi(2)
}

/// The pair scan of [`random_geometric`]: every pair `(u, v)`, `u < v`, of
/// points in Chebyshev-adjacent cells at squared distance `≤ radius²`.
fn rgg_pairs(pts: &[(f64, f64)], radius: f64) -> Vec<(NodeId, NodeId)> {
    let n = pts.len();
    let r2 = radius * radius;
    // At most ⌈√n⌉ cells per side: a tiny radius would otherwise ask for
    // ⌈1/radius⌉² cells (the product wraps past usize for radius ≲ 2⁻³²).
    // Wider cells only enlarge the candidate set, and `from_edges` sorts
    // adjacency, so the graph does not depend on the cell count.
    let cells = ((1.0 / radius).ceil() as usize).clamp(1, (n as f64).sqrt().ceil() as usize);
    let cell_of = |p: (f64, f64)| {
        let cx = ((p.0 * cells as f64) as usize).min(cells - 1);
        let cy = ((p.1 * cells as f64) as usize).min(cells - 1);
        cy * cells + cx
    };
    // Counting sort: count each cell, take inclusive prefix sums (the end
    // of each cell), then place the points from the last id down, which
    // leaves `start[c]` at the first slot of cell `c` and every cell in
    // ascending id order.
    let num_cells = cells * cells;
    let mut start = vec![0u32; num_cells + 1];
    for &p in pts {
        start[cell_of(p)] += 1;
    }
    let mut end = 0;
    for s in &mut start {
        end += *s;
        *s = end;
    }
    let mut sorted = vec![((0.0, 0.0), 0 as NodeId); n];
    for (i, &p) in pts.iter().enumerate().rev() {
        let at = &mut start[cell_of(p)];
        *at -= 1;
        sorted[*at as usize] = (p, i as NodeId);
    }
    let cell = |cx: usize, cy: usize| {
        let c = cy * cells + cx;
        &sorted[start[c] as usize..start[c + 1] as usize]
    };

    // Expected edge count n(n-1)/2 · πr² (pairs within radius, ignoring
    // boundary loss); reserving it up front keeps the hot collection loop
    // from regrowing the edge list log(m) times.
    let expected_edges =
        (0.5 * n as f64 * (n as f64 - 1.0) * std::f64::consts::PI * r2).ceil() as usize;
    let mut edges = Vec::with_capacity(expected_edges.min(n.saturating_mul(n) / 2));
    let mut test = |&(p, u): &((f64, f64), NodeId), &(q, v): &((f64, f64), NodeId)| {
        if dist2(p, q) <= r2 {
            edges.push((u.min(v), u.max(v)));
        }
    };
    for cy in 0..cells {
        for cx in 0..cells {
            let here = cell(cx, cy);
            for (k, a) in here.iter().enumerate() {
                for b in &here[k + 1..] {
                    test(a, b);
                }
            }
            for (nx, ny) in
                [(cx + 1, cy), (cx.wrapping_sub(1), cy + 1), (cx, cy + 1), (cx + 1, cy + 1)]
            {
                if nx < cells && ny < cells {
                    let there = cell(nx, ny);
                    for a in here {
                        for b in there {
                            test(a, b);
                        }
                    }
                }
            }
        }
    }
    edges
}

/// Each node's component root, the smallest node of its connected
/// component in the graph `edges` spans on `0..n`. One union-find pass with
/// path halving; the smaller of two roots absorbs the larger, so links only
/// ever point to a smaller node.
fn component_roots(n: usize, edges: &[(NodeId, NodeId)]) -> Vec<NodeId> {
    fn find(root: &mut [NodeId], mut v: NodeId) -> NodeId {
        while root[v as usize] != v {
            let up = root[root[v as usize] as usize];
            root[v as usize] = up;
            v = up;
        }
        v
    }
    let mut root: Vec<NodeId> = (0..n as NodeId).collect();
    for &(u, v) in edges {
        let (a, b) = (find(&mut root, u), find(&mut root, v));
        root[a.max(b) as usize] = a.min(b);
    }
    // Ascending ids see each link's target already resolved.
    for v in 0..n {
        root[v] = root[root[v] as usize];
    }
    root
}

/// The joins of [`random_geometric`]: appends to `edges` the `(u, v)` of
/// smallest `(d², v, u)` between a node `v` outside node 0's component and a
/// node `u` inside, moves `v`'s component inside, and repeats until no node
/// is outside. `roots` comes from [`component_roots`] over `edges`.
fn join_to_node_zero(pts: &[(f64, f64)], roots: &[NodeId], edges: &mut Vec<(NodeId, NodeId)>) {
    // Each outside node `v` as `(d², v, u)`: its nearest inside node `u`,
    // the smallest id on a distance tie. Kept in ascending `v`.
    let mut outside: Vec<(f64, NodeId, NodeId)> = (0..pts.len())
        .filter(|&v| roots[v] != 0)
        .map(|v| (f64::INFINITY, v as NodeId, INVALID_NODE))
        .collect();
    for (u, &p) in pts.iter().enumerate().filter(|&(u, _)| roots[u] == 0) {
        for o in &mut outside {
            let d2 = dist2(pts[o.1 as usize], p);
            if d2 < o.0 {
                (o.0, o.2) = (d2, u as NodeId);
            }
        }
    }
    let mut moved = Vec::new();
    // The first of equal distances in ascending `v` is the smallest `(d², v, u)`.
    let nearest =
        |a: (f64, NodeId, NodeId), b: (f64, NodeId, NodeId)| if b.0 < a.0 { b } else { a };
    while let Some((_, v, u)) = outside.iter().copied().reduce(nearest) {
        edges.push((u, v));
        let comp = roots[v as usize];
        moved.clear();
        outside.retain(|o| {
            let stays = roots[o.1 as usize] != comp;
            if !stays {
                moved.push(o.1);
            }
            stays
        });
        for o in &mut outside {
            for &x in &moved {
                let d2 = dist2(pts[o.1 as usize], pts[x as usize]);
                if d2 < o.0 || (d2 == o.0 && x < o.2) {
                    (o.0, o.2) = (d2, x);
                }
            }
        }
    }
}

/// Erdős–Rényi `G(n, p)`, augmented with a uniformly random spanning tree's
/// missing edges when disconnected, so the result is always connected.
///
/// The pairs `u < v` are walked in row-major order with geometric gaps (one
/// draw per gap). The smallest nodes of the components, in ascending order,
/// are then shuffled (no draw when the sample is connected) and chained by
/// edges. Time `O(n + m)`, one [`Graph::from_edges`].
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn gnp_connected(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    assert!(n > 0 && (0.0..=1.0).contains(&p), "invalid G(n,p) parameters");
    let mut edges = Vec::new();
    // Geometric skipping for sparse p.
    if p > 0.0 {
        let ln_q = (1.0 - p).ln();
        if ln_q == 0.0 {
            // p == 0: no random edges.
        } else if p >= 1.0 {
            for u in 0..n {
                for v in (u + 1)..n {
                    edges.push((u as NodeId, v as NodeId));
                }
            }
        } else {
            // Iterate over pair index with geometric gaps. Row `u` holds the
            // `row_len = n - 1 - u` pairs `(u, u+1..n)` from index
            // `row_start` on; the index only grows, so the row only advances.
            let total = n * (n - 1) / 2;
            let (mut u, mut row_start, mut row_len) = (0usize, 0usize, n - 1);
            let mut idx = 0usize;
            while idx < total {
                let r: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let skip = (r.ln() / ln_q).floor() as usize;
                idx = idx.saturating_add(skip);
                if idx >= total {
                    break;
                }
                while idx - row_start >= row_len {
                    row_start += row_len;
                    u += 1;
                    row_len -= 1;
                }
                edges.push((u as NodeId, (u + 1 + idx - row_start) as NodeId));
                idx += 1;
            }
        }
    }
    // Connect components along a random permutation.
    let roots = component_roots(n, &edges);
    let mut reps: Vec<NodeId> = (0..n as NodeId).filter(|&v| roots[v as usize] == v).collect();
    reps.shuffle(rng);
    edges.extend(reps.windows(2).map(|w| (w[0], w[1])));
    Graph::from_edges(n, &edges).expect("G(n,p) construction")
}

/// A "cluster chain": `k` dense blobs (G(b, p_in) subgraphs) connected in a
/// chain by single bridge edges. Produces long chains of natural clusters —
/// the regime where Partition(β) boundary effects are most visible.
///
/// # Panics
///
/// Panics if `k == 0 || blob == 0`.
pub fn cluster_chain(k: usize, blob: usize, p_in: f64, rng: &mut impl Rng) -> Graph {
    assert!(k > 0 && blob > 0, "invalid cluster chain parameters");
    let n = k * blob;
    let mut edges = Vec::new();
    for c in 0..k {
        let base = c * blob;
        // Spanning path inside the blob to guarantee connectivity.
        for i in 1..blob {
            edges.push(((base + i - 1) as NodeId, (base + i) as NodeId));
        }
        for i in 0..blob {
            for j in (i + 1)..blob {
                if rng.gen::<f64>() < p_in {
                    edges.push(((base + i) as NodeId, (base + j) as NodeId));
                }
            }
        }
        if c + 1 < k {
            // Bridge from a random node of this blob to a random node of the next.
            let u = base + rng.gen_range(0..blob);
            let v = (c + 1) * blob + rng.gen_range(0..blob);
            edges.push((u as NodeId, v as NodeId));
        }
    }
    Graph::from_edges(n, &edges).expect("cluster chain construction")
}

/// A grid with `extra` random "long-range" chords, shrinking the diameter
/// while keeping bounded growth — a small-world-ish radio topology.
pub fn grid_with_chords(w: usize, h: usize, extra: usize, rng: &mut impl Rng) -> Graph {
    let base = grid(w, h);
    let n = base.n();
    let mut edges: Vec<_> = base.edges().collect();
    for _ in 0..extra {
        let u = rng.gen_range(0..n) as NodeId;
        let v = rng.gen_range(0..n) as NodeId;
        if u != v {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges).expect("grid with chords construction")
}

/// The constructions [`random_geometric`] and [`gnp_connected`] replaced,
/// kept as the oracle they must match graph for graph and draw for draw: a
/// 9-cell scan per node, then per RGG join a nearest-pair scan over all
/// node pairs, a full graph build and a BFS labelling of every component;
/// and a `G(n, p)` pair walk that restarts from row 0 for every edge.
#[cfg(test)]
mod oracle {
    use crate::graph::{Graph, NodeId};
    use rand::seq::SliceRandom;
    use rand::Rng;

    pub fn random_geometric(n: usize, radius: f64, rng: &mut impl Rng) -> Graph {
        assert!(n > 0 && radius > 0.0, "invalid RGG parameters");
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
        let r2 = radius * radius;
        let cells = ((1.0 / radius).ceil() as usize).clamp(1, (n as f64).sqrt().ceil() as usize);
        let cell_of = |p: (f64, f64)| {
            let cx = ((p.0 * cells as f64) as usize).min(cells - 1);
            let cy = ((p.1 * cells as f64) as usize).min(cells - 1);
            (cx, cy)
        };
        let num_cells = cells * cells;
        let mut bucket_start = vec![0u32; num_cells + 1];
        for &p in &pts {
            let (cx, cy) = cell_of(p);
            bucket_start[cy * cells + cx + 1] += 1;
        }
        for c in 0..num_cells {
            bucket_start[c + 1] += bucket_start[c];
        }
        let mut bucket_nodes = vec![0u32; n];
        let mut head = bucket_start.clone();
        for (i, &p) in pts.iter().enumerate() {
            let (cx, cy) = cell_of(p);
            let at = &mut head[cy * cells + cx];
            bucket_nodes[*at as usize] = i as u32;
            *at += 1;
        }
        let mut edges = Vec::new();
        for (i, &p) in pts.iter().enumerate() {
            let (cx, cy) = cell_of(p);
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let nx = cx as i64 + dx;
                    let ny = cy as i64 + dy;
                    if nx < 0 || ny < 0 || nx >= cells as i64 || ny >= cells as i64 {
                        continue;
                    }
                    let c = ny as usize * cells + nx as usize;
                    for &j in &bucket_nodes[bucket_start[c] as usize..bucket_start[c + 1] as usize]
                    {
                        if (j as usize) > i {
                            let q = pts[j as usize];
                            let d2 = (p.0 - q.0).powi(2) + (p.1 - q.1).powi(2);
                            if d2 <= r2 {
                                edges.push((i as NodeId, j));
                            }
                        }
                    }
                }
            }
        }

        let g = Graph::from_edges(n, &edges).expect("RGG construction");
        if g.is_connected() {
            return g;
        }
        let mut comp = component_labels(&g);
        let mut extra = edges;
        loop {
            let root_comp = comp[0];
            let mut best: Option<(f64, NodeId, NodeId)> = None;
            for v in 0..n {
                if comp[v] == root_comp {
                    continue;
                }
                for u in 0..n {
                    if comp[u] != root_comp {
                        continue;
                    }
                    let d2 = (pts[v].0 - pts[u].0).powi(2) + (pts[v].1 - pts[u].1).powi(2);
                    if best.is_none_or(|(bd, _, _)| d2 < bd) {
                        best = Some((d2, u as NodeId, v as NodeId));
                    }
                }
            }
            let (_, u, v) = best.expect("a node outside node 0's component");
            extra.push((u, v));
            let g2 = Graph::from_edges(n, &extra).expect("RGG augmentation");
            if g2.is_connected() {
                return g2;
            }
            comp = component_labels(&g2);
        }
    }

    pub fn gnp_connected(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
        assert!(n > 0 && (0.0..=1.0).contains(&p), "invalid G(n,p) parameters");
        let mut edges = Vec::new();
        if p > 0.0 {
            let ln_q = (1.0 - p).ln();
            if ln_q == 0.0 {
            } else if p >= 1.0 {
                for u in 0..n {
                    for v in (u + 1)..n {
                        edges.push((u as NodeId, v as NodeId));
                    }
                }
            } else {
                let total = n * (n - 1) / 2;
                let mut idx = 0usize;
                while idx < total {
                    let r: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    let skip = (r.ln() / ln_q).floor() as usize;
                    idx = idx.saturating_add(skip);
                    if idx >= total {
                        break;
                    }
                    edges.push(pair_from_index(idx, n));
                    idx += 1;
                }
            }
        }
        let g = Graph::from_edges(n, &edges).expect("G(n,p) construction");
        if g.is_connected() {
            return g;
        }
        let labels = component_labels(&g);
        let ncomp = *labels.iter().max().unwrap() as usize + 1;
        let mut reps: Vec<NodeId> = vec![u32::MAX; ncomp];
        for (v, &label) in labels.iter().enumerate() {
            let c = label as usize;
            if reps[c] == u32::MAX {
                reps[c] = v as NodeId;
            }
        }
        reps.shuffle(rng);
        for w in reps.windows(2) {
            edges.push((w[0], w[1]));
        }
        Graph::from_edges(n, &edges).expect("G(n,p) augmentation")
    }

    /// Row-major enumeration of pairs `(u, v)`, `u < v`.
    pub fn pair_from_index(idx: usize, n: usize) -> (NodeId, NodeId) {
        let mut u = 0usize;
        let mut remaining = idx;
        let mut row = n - 1;
        while remaining >= row {
            remaining -= row;
            u += 1;
            row -= 1;
        }
        let v = u + 1 + remaining;
        (u as NodeId, v as NodeId)
    }

    /// Component labels `0, 1, …` in order of each component's smallest
    /// node, one full-graph BFS per component.
    fn component_labels(g: &Graph) -> Vec<u32> {
        let mut labels = vec![u32::MAX; g.n()];
        let mut next = 0u32;
        for v in 0..g.n() {
            if labels[v] != u32::MAX {
                continue;
            }
            let dist = crate::traversal::bfs(g, v as NodeId);
            for (u, &d) in dist.iter().enumerate() {
                if d != u32::MAX && labels[u] == u32::MAX {
                    labels[u] = next;
                }
            }
            next += 1;
        }
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn path_shape() {
        let g = path(10);
        assert_eq!((g.n(), g.m()), (10, 9));
        assert_eq!(g.diameter(), 9);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(9);
        assert_eq!((g.n(), g.m()), (9, 9));
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 7);
        assert_eq!(g.n(), 28);
        assert_eq!(g.m(), 4 * 6 + 3 * 7);
        assert_eq!(g.diameter(), 9);
    }

    #[test]
    fn torus_shape() {
        let g = torus(4, 6);
        assert_eq!(g.n(), 24);
        assert_eq!(g.m(), 48);
        assert_eq!(g.diameter(), 2 + 3);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
    }

    #[test]
    fn complete_and_star() {
        assert_eq!(complete(6).m(), 15);
        assert_eq!(complete(6).diameter(), 1);
        let s = star(8);
        assert_eq!(s.m(), 7);
        assert_eq!(s.degree(0), 7);
        assert_eq!(s.diameter(), 2);
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(15);
        assert_eq!(g.m(), 14);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), 6); // leaf -> root -> leaf in a depth-3 tree
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(5);
        assert_eq!(g.n(), 32);
        assert!(g.nodes().all(|v| g.degree(v) == 5));
        assert_eq!(g.diameter(), 5);
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut r = rng();
        for n in [1usize, 2, 3, 10, 100, 500] {
            let g = random_tree(n, &mut r);
            assert_eq!(g.n(), n);
            assert_eq!(g.m(), n.saturating_sub(1));
            assert!(g.is_connected(), "tree with n={n} disconnected");
        }
    }

    #[test]
    fn random_tree_varies_with_seed() {
        let a = random_tree(64, &mut SmallRng::seed_from_u64(1));
        let b = random_tree(64, &mut SmallRng::seed_from_u64(2));
        assert_ne!(a, b);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(5, 3);
        assert_eq!(g.n(), 20);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), 6); // leaf-spine...spine-leaf
    }

    #[test]
    fn barbell_shape() {
        let g = barbell(5, 4);
        assert_eq!(g.n(), 14);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), 4 + 3);
    }

    #[test]
    fn ring_of_cliques_shape() {
        let g = ring_of_cliques(6, 5);
        assert_eq!(g.n(), 30);
        assert_eq!(g.m(), 6 * (5 * 4 / 2) + 6);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), 6 / 2 + 2);
        // size = 1 degenerates to a cycle.
        let c = ring_of_cliques(7, 1);
        assert_eq!(c.n(), 7);
        assert_eq!(c.m(), 7);
        assert_eq!(c.diameter(), 3);
    }

    #[test]
    fn lollipop_shape() {
        let g = lollipop(4, 3);
        assert_eq!(g.n(), 7);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), 4);
    }

    #[test]
    fn rgg_is_connected_and_deterministic() {
        let g1 = random_geometric(300, 0.09, &mut rng());
        let g2 = random_geometric(300, 0.09, &mut rng());
        assert!(g1.is_connected());
        assert_eq!(g1, g2, "same seed, same graph");
    }

    #[test]
    fn rgg_sparse_radius_still_connected_via_augmentation() {
        let g = random_geometric(100, 0.02, &mut rng());
        assert!(g.is_connected());
    }

    #[test]
    fn rgg_tiny_radius_builds_on_a_clamped_bucket_grid() {
        // ⌈1/radius⌉² buckets would be ~10²⁴ here; the grid is clamped to
        // ⌈√n⌉ cells per side, and every pair within the radius (checked by
        // brute force over the replayed points) is still an edge.
        for (n, radius) in [(5, 1e-12), (50, 1e-5), (400, 0.01)] {
            let g = random_geometric(n, radius, &mut rng());
            assert_eq!(g.n(), n);
            assert!(g.is_connected(), "rgg({n},{radius})");
            let mut r = rng();
            let pts: Vec<(f64, f64)> = (0..n).map(|_| (r.gen::<f64>(), r.gen::<f64>())).collect();
            for u in 0..n {
                for v in u + 1..n {
                    let d2 = (pts[u].0 - pts[v].0).powi(2) + (pts[u].1 - pts[v].1).powi(2);
                    if d2 <= radius * radius {
                        assert!(g.has_edge(u as NodeId, v as NodeId), "rgg({n},{radius}): {u}-{v}");
                    }
                }
            }
        }
        let g = "rgg(5,1e-12)".parse::<crate::TopologySpec>().expect("spec parses").build(0);
        assert_eq!(g.n(), 5);
        assert!(g.is_connected());
    }

    #[test]
    fn gnp_connected_connects() {
        let mut r = rng();
        for p in [0.0, 0.001, 0.01, 0.2] {
            let g = gnp_connected(200, p, &mut r);
            assert!(g.is_connected(), "p={p}");
            assert_eq!(g.n(), 200);
        }
    }

    #[test]
    fn gnp_dense_is_nearly_complete() {
        let g = gnp_connected(40, 1.0, &mut rng());
        assert_eq!(g.m(), 40 * 39 / 2);
    }

    #[test]
    fn pair_index_enumerates_all_pairs() {
        let n = 7;
        // Deterministic membership: a dense pair-indexed bitmap (the
        // enumeration domain is exactly the u<v pairs of an n-clique).
        let mut seen = vec![false; n * n];
        let mut count = 0usize;
        for idx in 0..(n * (n - 1) / 2) {
            let (u, v) = oracle::pair_from_index(idx, n);
            assert!(u < v && (v as usize) < n);
            let slot = u as usize * n + v as usize;
            assert!(!seen[slot], "pair ({u},{v}) enumerated twice");
            seen[slot] = true;
            count += 1;
        }
        assert_eq!(count, n * (n - 1) / 2);
    }

    #[test]
    fn cluster_chain_is_connected() {
        let g = cluster_chain(8, 20, 0.3, &mut rng());
        assert_eq!(g.n(), 160);
        assert!(g.is_connected());
    }

    /// Builds with `build` and `oracle`, each from a fresh `rng()`; asserts
    /// the same graph and the same next draw.
    fn assert_matches_oracle<R: Rng>(
        rng: impl Fn() -> R,
        build: impl FnOnce(&mut R) -> Graph,
        oracle: impl FnOnce(&mut R) -> Graph,
    ) -> Result<(), TestCaseError> {
        let (mut a, mut b) = (rng(), rng());
        prop_assert_eq!(build(&mut a), oracle(&mut b));
        prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "the generator left the RNG elsewhere");
        Ok(())
    }

    /// Draws only multiples of 1/16: points on a 16×16 lattice, where
    /// squared distances tie exactly (or are 0) and the joins' tie-breaks
    /// decide which edge is added.
    struct Lattice(SmallRng);

    impl rand::RngCore for Lattice {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64() >> 60 << 60
        }
    }

    #[test]
    fn rgg_matches_the_oracle_at_the_edges_of_its_range() {
        // One node, a radius below every gap, one cell, and samples with
        // hundreds of joins.
        for (n, radius, seed) in
            [(1, 0.5, 0), (40, 1e-9, 1), (40, 5.0, 2), (200, 0.001, 0), (300, 0.01, 0)]
        {
            assert_matches_oracle(
                || SmallRng::seed_from_u64(seed),
                |r| random_geometric(n, radius, r),
                |r| oracle::random_geometric(n, radius, r),
            )
            .unwrap_or_else(|e| panic!("rgg({n},{radius}) @ {seed}: {e:?}"));
        }
    }

    #[test]
    fn rgg_breaks_distance_ties_as_the_oracle_does() {
        // Below, at and above the lattice spacing 1/16.
        for seed in 0..10 {
            for (n, radius) in [(60, 0.01), (150, 0.0625), (200, 0.07), (100, 0.13)] {
                assert_matches_oracle(
                    || Lattice(SmallRng::seed_from_u64(seed)),
                    |r| random_geometric(n, radius, r),
                    |r| oracle::random_geometric(n, radius, r),
                )
                .unwrap_or_else(|e| panic!("lattice rgg({n},{radius}) @ {seed}: {e:?}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn rgg_matches_the_oracle(
            n in 1usize..=300,
            ln_radius in 1e-3f64.ln()..1.5f64.ln(),
            seed in any::<u64>(),
        ) {
            let radius = ln_radius.exp();
            assert_matches_oracle(
                || SmallRng::seed_from_u64(seed),
                |r| random_geometric(n, radius, r),
                |r| oracle::random_geometric(n, radius, r),
            )?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn gnp_matches_the_oracle(
            n in 1usize..=300,
            ln_p in -12.0f64..0.0,
            seed in any::<u64>(),
        ) {
            let p = ln_p.exp();
            assert_matches_oracle(
                || SmallRng::seed_from_u64(seed),
                |r| gnp_connected(n, p, r),
                |r| oracle::gnp_connected(n, p, r),
            )?;
        }
    }

    #[test]
    fn grid_with_chords_shrinks_diameter() {
        let mut r = rng();
        let plain = grid(20, 20);
        let chord = grid_with_chords(20, 20, 60, &mut r);
        assert!(chord.is_connected());
        assert!(chord.diameter() <= plain.diameter());
    }
}
