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

use crate::graph::{Graph, NodeId};
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

/// Random geometric graph (unit-disk model): `n` points uniform in the unit
/// square, edges between pairs at Euclidean distance `≤ radius`. If the
/// sample is disconnected, nearest-component augmentation edges are added so
/// the result is always connected (the standard "connected RGG" used in
/// radio-network simulation; the augmentation count is tiny for radii near
/// the connectivity threshold `~sqrt(ln n / (π n))`).
///
/// # Panics
///
/// Panics if `n == 0` or `radius <= 0.0`.
pub fn random_geometric(n: usize, radius: f64, rng: &mut impl Rng) -> Graph {
    assert!(n > 0 && radius > 0.0, "invalid RGG parameters");
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
    let r2 = radius * radius;

    // Grid-bucket neighbor search: cells of side at least `radius`, so every
    // neighbor sits in the 3×3 block around a point's cell. At most ⌈√n⌉
    // cells per side: a tiny radius would otherwise ask for ⌈1/radius⌉²
    // buckets (the product wraps past usize for radius ≲ 2⁻³²). Wider cells
    // only enlarge the candidate set, and `from_edges` sorts adjacency, so
    // the graph does not depend on the cell count.
    let cells = ((1.0 / radius).ceil() as usize).clamp(1, (n as f64).sqrt().ceil() as usize);
    let cell_of = |p: (f64, f64)| {
        let cx = ((p.0 * cells as f64) as usize).min(cells - 1);
        let cy = ((p.1 * cells as f64) as usize).min(cells - 1);
        (cx, cy)
    };
    // Counting-sorted CSR buckets (`bucket_start` offsets into a flat
    // `bucket_nodes`) instead of a Vec-per-cell: two exact-size allocations
    // for the whole grid, where per-cell Vecs would allocate (and
    // repeatedly regrow) each occupied cell.
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
    // Expected edge count n(n-1)/2 · πr² (pairs within radius, ignoring
    // boundary loss); reserving it up front keeps the hot collection loop
    // from regrowing the edge list log(m) times.
    let expected_edges =
        (0.5 * n as f64 * (n as f64 - 1.0) * std::f64::consts::PI * r2).ceil() as usize;
    let mut edges = Vec::with_capacity(expected_edges.min(n.saturating_mul(n) / 2));
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
                for &j in &bucket_nodes[bucket_start[c] as usize..bucket_start[c + 1] as usize] {
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
    // Augment: connect each non-root component to its geometrically nearest
    // node in the growing connected region.
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
        match best {
            None => break,
            Some((_, u, v)) => {
                extra.push((u, v));
                let g2 = Graph::from_edges(n, &extra).expect("RGG augmentation");
                if g2.is_connected() {
                    return g2;
                }
                comp = component_labels(&g2);
            }
        }
    }
    Graph::from_edges(n, &extra).expect("RGG construction")
}

/// Erdős–Rényi `G(n, p)`, augmented with a uniformly random spanning tree's
/// missing edges when disconnected, so the result is always connected.
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
            // Iterate over pair index with geometric gaps.
            let total = n * (n - 1) / 2;
            let mut idx = 0usize;
            while idx < total {
                let r: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let skip = (r.ln() / ln_q).floor() as usize;
                idx = idx.saturating_add(skip);
                if idx >= total {
                    break;
                }
                let (u, v) = pair_from_index(idx, n);
                edges.push((u, v));
                idx += 1;
            }
        }
    }
    let g = Graph::from_edges(n, &edges).expect("G(n,p) construction");
    if g.is_connected() {
        return g;
    }
    // Connect components along a random permutation.
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

fn pair_from_index(idx: usize, n: usize) -> (NodeId, NodeId) {
    // Row-major enumeration of pairs (u, v), u < v.
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

#[cfg(test)]
mod tests {
    use super::*;
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
            let (u, v) = pair_from_index(idx, n);
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

    #[test]
    fn grid_with_chords_shrinks_diameter() {
        let mut r = rng();
        let plain = grid(20, 20);
        let chord = grid_with_chords(20, 20, 60, &mut r);
        assert!(chord.is_connected());
        assert!(chord.diameter() <= plain.diameter());
    }
}
