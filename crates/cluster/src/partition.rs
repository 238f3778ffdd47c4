use crate::shifts::ExponentialShifts;
use rand::Rng;
use rn_graph::{Graph, NodeId, INVALID_NODE};

/// Total-order wrapper for `f64` race keys (shifts are continuous, so ties
/// are measure-zero — except where `ExponentialShifts::clamp_max` caps many
/// shifts at one value; `total_cmp` still makes the race fully deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key(f64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A clustering of the network produced by Partition(β).
///
/// Guarantees (the paper's §2.1 requirements, upheld by construction and
/// checked by tests):
///
/// * each node identifies exactly one cluster center;
/// * any node that is a cluster center to anyone is its own center;
/// * the subgraph of each cluster is connected, and moreover each node has a
///   shortest path to its center that stays inside the cluster (so *strong*
///   distance to the center equals graph distance).
///
/// Every partition also carries a BFS forest of its clusters:
/// [`Partition::parent`] and [`Partition::depth`] give each node's parent
/// on a shortest in-cluster path to its center and the length of that path.
/// It is the forest a BFS of each cluster from its center yields, scanning
/// adjacency in order, so a node's parent is its first dequeued in-cluster
/// neighbour. Tree schedules are built on it. It has two producers:
///
/// * the race ([`Partition::compute`] and its in-place and region-bound
///   twins) records it as it settles nodes. Within one cluster the race's
///   FIFO of settled nodes *is* that BFS queue: it starts at the center,
///   scans adjacency in the same order, and a node is claimed by the first
///   dequeued neighbour that reaches it;
/// * the distributed construction's extraction, whose centers come from
///   outside any race, runs that per-cluster BFS after it writes the
///   centers. A cluster the protocol left internally disconnected keeps
///   `INVALID_NODE` parents and `u32::MAX` depths on its unreached nodes.
///
/// The forest costs `2n` `u32`s, reused by pooled recomputes.
#[derive(Debug, Clone)]
pub struct Partition {
    beta: f64,
    /// Cluster center per node.
    center: Vec<NodeId>,
    /// Dense cluster index per node.
    cluster_of: Vec<u32>,
    /// Distinct centers; `centers[cluster_of[v]] == center[v]`.
    centers: Vec<NodeId>,
    /// CSR member lists: cluster `i` owns
    /// `member_data[member_start[i]..member_start[i + 1]]`, in ascending
    /// node-id order. Flat (rather than `Vec<Vec<_>>`) so pooled recomputes
    /// reuse two `n`-bounded buffers even when the cluster count changes.
    member_start: Vec<u32>,
    member_data: Vec<NodeId>,
    /// The BFS forest (see the type docs): parent per node, `INVALID_NODE`
    /// for centers, and depth per node, 0 for centers.
    parent: Vec<NodeId>,
    depth: Vec<u32>,
}

/// Reusable workspace for [`Partition::recompute`] /
/// [`Partition::recompute_within`]: the race's two streams (the seeds in
/// key order and the FIFO of settled nodes), the shift vector, and the
/// center-index table. Every buffer holds at most `n` entries — `2n` race
/// entries in all — so after the first recompute on a given graph
/// subsequent recomputes perform no heap allocation.
#[derive(Debug, Default)]
pub struct PartitionScratch {
    shifts: Option<ExponentialShifts>,
    race: RaceScratch,
    index_of_center: Vec<u32>,
}

/// The two streams [`Partition::race_in_place`] merges: every node's seed
/// `(Key(−δ_u), u)` sorted once, and the settled nodes in settlement order,
/// each with the key it offers its neighbours.
#[derive(Debug, Default)]
struct RaceScratch {
    seeds: Vec<(Key, NodeId)>,
    settled: Vec<(f64, NodeId)>,
}

/// Fills (or refreshes) the pooled shift slot and returns a shared borrow.
/// The slot starts `None` so the first use goes through the ordinary
/// [`ExponentialShifts::sample`]; thereafter `resample` replays the same
/// draw sequence with zero heap traffic.
fn resample_into<'s>(
    slot: &'s mut Option<ExponentialShifts>,
    n: usize,
    beta: f64,
    rng: &mut impl rand::Rng,
) -> &'s ExponentialShifts {
    if let Some(s) = slot.as_mut() {
        s.resample(n, beta, rng);
    } else {
        *slot = Some(ExponentialShifts::sample(n, beta, rng));
    }
    slot.as_ref().expect("slot was just filled")
}

impl Partition {
    /// Runs the oracle Partition(β) construction: samples fresh exponential
    /// shifts and resolves the shifted BFS race exactly.
    ///
    /// # Panics
    ///
    /// Panics if `beta <= 0`.
    pub fn compute(g: &Graph, beta: f64, rng: &mut impl Rng) -> Partition {
        let shifts = ExponentialShifts::sample(g.n(), beta, rng);
        Partition::with_shifts(g, &shifts)
    }

    /// Resolves the race for pre-sampled shifts: node `v` joins the cluster
    /// of `argmin_u (dist(u, v) − δ_u)` (equivalently `argmax δ_u − dist`),
    /// ties broken by smaller node id.
    pub fn with_shifts(g: &Graph, shifts: &ExponentialShifts) -> Partition {
        Partition::race(g, shifts, None)
    }

    /// Partition(β) **within regions**: the race never crosses a region
    /// boundary, so every cluster is contained in one region. This is how
    /// the paper computes *fine* clusterings inside each *coarse* cluster
    /// (Algorithm 1, step 3): pass the coarse cluster indices as `region`.
    ///
    /// # Panics
    ///
    /// Panics if `region.len() != g.n()` or `beta <= 0`.
    pub fn compute_within(g: &Graph, beta: f64, region: &[u32], rng: &mut impl Rng) -> Partition {
        assert_eq!(region.len(), g.n(), "one region label per node");
        let shifts = ExponentialShifts::sample(g.n(), beta, rng);
        Partition::race(g, &shifts, Some(region))
    }

    /// In-place [`Partition::compute`]: byte-identical result (single shared
    /// race code path), but every buffer — shifts, race streams, per-node
    /// tables, member CSR — is reused from `self` and `scratch`.
    pub fn recompute(
        &mut self,
        g: &Graph,
        beta: f64,
        rng: &mut impl Rng,
        scratch: &mut PartitionScratch,
    ) {
        let PartitionScratch { shifts, race, index_of_center } = scratch;
        let shifts = resample_into(shifts, g.n(), beta, rng);
        self.race_in_place(g, shifts, None, race, index_of_center);
    }

    /// In-place [`Partition::compute_within`] (see [`Partition::recompute`]).
    ///
    /// # Panics
    ///
    /// Panics if `region.len() != g.n()` or `beta <= 0`.
    pub fn recompute_within(
        &mut self,
        g: &Graph,
        beta: f64,
        region: &[u32],
        rng: &mut impl Rng,
        scratch: &mut PartitionScratch,
    ) {
        assert_eq!(region.len(), g.n(), "one region label per node");
        let PartitionScratch { shifts, race, index_of_center } = scratch;
        let shifts = resample_into(shifts, g.n(), beta, rng);
        self.race_in_place(g, shifts, Some(region), race, index_of_center);
    }

    fn race(g: &Graph, shifts: &ExponentialShifts, region: Option<&[u32]>) -> Partition {
        let mut p = Partition::shell(shifts.beta());
        p.race_in_place(g, shifts, region, &mut RaceScratch::default(), &mut Vec::new());
        p
    }

    /// An empty partition to be filled by `race_in_place` or
    /// [`Partition::finish_rebuild`] (pooled extraction slots start here).
    pub(crate) fn shell(beta: f64) -> Partition {
        Partition {
            beta,
            center: Vec::new(),
            cluster_of: Vec::new(),
            centers: Vec::new(),
            member_start: Vec::new(),
            member_data: Vec::new(),
            parent: Vec::new(),
            depth: Vec::new(),
        }
    }

    /// Resolves the shifted race exactly: node `v` joins the center `u`
    /// minimizing `(dist(u, v) − δ_u, u)`, with distances inside `v`'s
    /// region when one is given. Settling `w` from `v` also records the
    /// forest edge: `parent(w) = v`, `depth(w) = depth(v) + 1`.
    ///
    /// Edges have unit weight, so the shifted Dijkstra race is a multi-source
    /// BFS in which center `u` starts at time `−δ_u` (Miller–Peng–Xu). Two
    /// streams replace the priority queue: the seeds sorted once by
    /// `(Key(−δ_u), u)`, and a FIFO of settled nodes, each carrying the key
    /// it offers its neighbours, `fl(key + 1.0)`. Each step takes the
    /// smaller `(key, center)` head; a FIFO head settles all of its node's
    /// unsettled same-region neighbours at once. The FIFO needs no sorting:
    /// an offer that can still win `w` is at most `−δ_w < 0`, so it came from
    /// a key below `−1`, where `+ 1.0` is exact and keeps the settlement
    /// order. Once every seed is consumed every node is settled, and the
    /// race stops. The result equals a lazy-deletion Dijkstra over
    /// `(key, center, node)` (the tests' oracle), smaller-center tie-break
    /// included, whenever every shift is below `2^53` — any `β` above
    /// `8·10^-14`, since `Exp(β)` draws here are at most `709/β`. Beyond
    /// that, keys lose their unit steps; the race still yields connected
    /// clusters, each holding its own center.
    fn race_in_place(
        &mut self,
        g: &Graph,
        shifts: &ExponentialShifts,
        region: Option<&[u32]>,
        race: &mut RaceScratch,
        index_of_center: &mut Vec<u32>,
    ) {
        assert_eq!(shifts.len(), g.n(), "one shift per node");
        let n = g.n();
        let RaceScratch { seeds, settled } = race;
        // Clear before reserving: both streams hold at most `n` entries.
        seeds.clear();
        seeds.reserve(n);
        seeds.extend(g.nodes().map(|u| (Key(-shifts.delta(u)), u)));
        seeds.sort_unstable();
        settled.clear();
        settled.reserve(n);
        self.beta = shifts.beta();
        self.center.clear();
        self.center.resize(n, INVALID_NODE);
        self.parent.clear();
        self.parent.resize(n, INVALID_NODE);
        self.depth.clear();
        self.depth.resize(n, 0);
        let Partition { center, parent, depth, .. } = self;
        let mut head = 0;
        for &(seed_key, u) in seeds.iter() {
            // Drain every settled node whose offer beats this seed.
            while let Some(&(offer, v)) = settled.get(head) {
                let c = center[v as usize];
                if (Key(offer), c) >= (seed_key, u) {
                    break;
                }
                head += 1;
                let next = offer + 1.0;
                let below = depth[v as usize] + 1;
                for &w in g.neighbors(v) {
                    if center[w as usize] == INVALID_NODE
                        && region.is_none_or(|r| r[w as usize] == r[v as usize])
                    {
                        center[w as usize] = c;
                        parent[w as usize] = v;
                        depth[w as usize] = below;
                        settled.push((next, w));
                    }
                }
            }
            if center[u as usize] == INVALID_NODE {
                center[u as usize] = u;
                settled.push((seed_key.0 + 1.0, u));
            }
        }
        self.rebuild_bookkeeping(index_of_center);
    }

    /// The raw center assignment, writable. Callers that fill it directly
    /// must follow up with [`Partition::finish_rebuild`] — the pooled
    /// extraction path in `distributed.rs` does exactly that.
    pub(crate) fn center_vec_mut(&mut self) -> &mut Vec<NodeId> {
        &mut self.center
    }

    /// Rebuilds every derived table from `self.center` (reusing existing
    /// buffer capacity) after a caller wrote a new center assignment, the
    /// forest included: a BFS of each cluster from its center, restricted
    /// to the cluster. `index_of_center` is `n`-bounded scratch, reused as
    /// the BFS queue.
    ///
    /// # Panics
    ///
    /// Panics if `g.n()` differs from the length of the center assignment.
    pub(crate) fn finish_rebuild(&mut self, g: &Graph, beta: f64, index_of_center: &mut Vec<u32>) {
        assert_eq!(self.center.len(), g.n(), "one center per node");
        self.beta = beta;
        self.rebuild_bookkeeping(index_of_center);
        let n = g.n();
        let queue = index_of_center;
        queue.clear();
        queue.reserve(n);
        self.parent.clear();
        self.parent.resize(n, INVALID_NODE);
        self.depth.clear();
        self.depth.resize(n, u32::MAX);
        let Partition { cluster_of, centers, parent, depth, .. } = self;
        // Each node is enqueued at most once over all clusters, so one
        // queue serves them all.
        let mut head = 0;
        for (idx, &c) in centers.iter().enumerate() {
            depth[c as usize] = 0;
            queue.push(c);
            while let Some(&u) = queue.get(head) {
                head += 1;
                let below = depth[u as usize] + 1;
                for &w in g.neighbors(u) {
                    if cluster_of[w as usize] == idx as u32 && depth[w as usize] == u32::MAX {
                        depth[w as usize] = below;
                        parent[w as usize] = u;
                        queue.push(w);
                    }
                }
            }
        }
    }

    /// Recomputes `cluster_of` / `centers` / the member CSR from
    /// `self.center`. `index_of_center` is caller-provided scratch (reused
    /// as the counting-sort cursor array, so `n` entries cover both uses).
    fn rebuild_bookkeeping(&mut self, index_of_center: &mut Vec<u32>) {
        let n = self.center.len();
        index_of_center.clear();
        index_of_center.resize(n, u32::MAX);
        if self.cluster_of.len() != n {
            self.cluster_of.clear();
            self.cluster_of.resize(n, u32::MAX);
        }
        self.centers.clear();
        self.centers.reserve(n);
        for v in 0..n {
            let c = self.center[v] as usize;
            debug_assert!(self.center[c] == c as NodeId, "center of anyone is center of itself");
            if index_of_center[c] == u32::MAX {
                index_of_center[c] = self.centers.len() as u32;
                self.centers.push(c as NodeId);
            }
            self.cluster_of[v] = index_of_center[c];
        }
        // Counting sort into the member CSR (ascending node id per cluster).
        let k = self.centers.len();
        self.member_start.clear();
        self.member_start.reserve(n + 1);
        self.member_start.resize(k + 1, 0);
        for v in 0..n {
            self.member_start[self.cluster_of[v] as usize + 1] += 1;
        }
        for i in 0..k {
            self.member_start[i + 1] += self.member_start[i];
        }
        if self.member_data.len() != n {
            self.member_data.clear();
            self.member_data.resize(n, 0);
        }
        // `index_of_center` doubles as the per-cluster write cursor.
        index_of_center[..k].copy_from_slice(&self.member_start[..k]);
        for v in 0..n {
            let cursor = &mut index_of_center[self.cluster_of[v] as usize];
            self.member_data[*cursor as usize] = v as NodeId;
            *cursor += 1;
        }
    }

    /// The β this partition was computed with.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.center.len()
    }

    /// The cluster center of `v`.
    #[inline]
    pub fn center_of(&self, v: NodeId) -> NodeId {
        self.center[v as usize]
    }

    /// `v`'s parent in its cluster's BFS forest (see the type docs):
    /// `INVALID_NODE` for centers and for nodes a distributed extraction
    /// left cut off from their center.
    #[inline]
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// `v`'s depth in its cluster's BFS forest: its strong distance to its
    /// center, 0 for centers, `u32::MAX` for nodes a distributed extraction
    /// left cut off from their center.
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v as usize]
    }

    /// Dense index (in `0..num_clusters()`) of `v`'s cluster.
    #[inline]
    pub fn cluster_index(&self, v: NodeId) -> u32 {
        self.cluster_of[v as usize]
    }

    /// Whether `u` and `v` are in the same cluster.
    #[inline]
    pub fn same_cluster(&self, u: NodeId, v: NodeId) -> bool {
        self.cluster_of[u as usize] == self.cluster_of[v as usize]
    }

    /// Whether `v` is a cluster center.
    #[inline]
    pub fn is_center(&self, v: NodeId) -> bool {
        self.center[v as usize] == v
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.centers.len()
    }

    /// The distinct cluster centers (index = cluster index).
    pub fn centers(&self) -> &[NodeId] {
        &self.centers
    }

    /// The members of cluster `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_clusters()`.
    pub fn members(&self, idx: u32) -> &[NodeId] {
        let i = idx as usize;
        assert!(i < self.centers.len(), "cluster index {idx} out of range");
        &self.member_data[self.member_start[i] as usize..self.member_start[i + 1] as usize]
    }

    /// Strong (intra-cluster) BFS distance from every node to its cluster
    /// center. With the exact oracle construction this equals the global
    /// graph distance (MPX shortest-path property); entries are `u32::MAX`
    /// if a cluster is internally disconnected, which the oracle
    /// construction never produces.
    pub fn strong_dist_to_center(&self, g: &Graph) -> Vec<u32> {
        let mut scratch = ValidateScratch::default();
        self.strong_dist_into(g, &mut scratch);
        std::mem::take(&mut scratch.dist)
    }

    /// [`Partition::strong_dist_to_center`] into pooled buffers: the result
    /// lands in `scratch.dist`, and `scratch.queue` holds the BFS FIFO.
    ///
    /// One BFS from all centers at once, stepping from `u` to `w` only
    /// inside one cluster: no step crosses clusters, so each cluster's
    /// distances are those of a BFS of that cluster alone from its center
    /// (every center is in its own cluster), in `O(n + m)` for all clusters.
    fn strong_dist_into(&self, g: &Graph, scratch: &mut ValidateScratch) {
        let ValidateScratch { dist, queue } = scratch;
        let cluster_of = &self.cluster_of;
        dist.clear();
        dist.resize(g.n(), u32::MAX);
        queue.clear();
        queue.reserve(g.n());
        for &c in &self.centers {
            dist[c as usize] = 0;
            queue.push(c);
        }
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let (below, cu) = (dist[u as usize] + 1, cluster_of[u as usize]);
            for &w in g.neighbors(u) {
                if dist[w as usize] == u32::MAX && cluster_of[w as usize] == cu {
                    dist[w as usize] = below;
                    queue.push(w);
                }
            }
        }
    }

    /// Validates the three §2.1 invariants; returns a human-readable reason
    /// on failure. Used by tests and by the distributed construction's
    /// repair logic.
    pub fn validate(&self, g: &Graph) -> Result<(), String> {
        self.validate_pooled(g, &mut ValidateScratch::default())
    }

    /// [`Partition::validate`] with caller-pooled traversal buffers: a
    /// passing validation performs no heap allocation once `scratch` has
    /// been warmed on a graph of this size (failures allocate only the
    /// returned diagnostic string).
    pub fn validate_pooled(&self, g: &Graph, scratch: &mut ValidateScratch) -> Result<(), String> {
        for v in g.nodes() {
            let c = self.center_of(v);
            if self.center_of(c) != c {
                return Err(format!("center {c} of node {v} is not its own center"));
            }
            if self.cluster_of[v as usize] != self.cluster_of[c as usize] {
                return Err(format!("node {v} not in its center {c}'s cluster"));
            }
        }
        self.strong_dist_into(g, scratch);
        if let Some(v) = (0..g.n()).find(|&v| scratch.dist[v] == u32::MAX) {
            return Err(format!("cluster of node {v} is internally disconnected"));
        }
        Ok(())
    }
}

/// Reusable traversal buffers for [`Partition::validate_pooled`]: the
/// strong-distance result and the BFS queue, both bounded by `n`, so
/// steady-state validation stays off the heap.
#[derive(Debug, Default)]
pub struct ValidateScratch {
    dist: Vec<u32>,
    queue: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rn_graph::{generators, traversal};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    /// The race as a lazy-deletion Dijkstra over `(key, center, node)` with
    /// unit edge weights: the oracle for the two-stream merge.
    fn heap_race(g: &Graph, shifts: &ExponentialShifts, region: Option<&[u32]>) -> Vec<NodeId> {
        let mut heap = BinaryHeap::new();
        for u in g.nodes() {
            heap.push(Reverse((Key(-shifts.delta(u)), u, u)));
        }
        let mut center = vec![INVALID_NODE; g.n()];
        while let Some(Reverse((key, c, v))) = heap.pop() {
            if center[v as usize] != INVALID_NODE {
                continue;
            }
            center[v as usize] = c;
            for &w in g.neighbors(v) {
                let crosses = region.is_some_and(|r| r[w as usize] != r[v as usize]);
                if center[w as usize] == INVALID_NODE && !crosses {
                    heap.push(Reverse((Key(key.0 + 1.0), c, w)));
                }
            }
        }
        center
    }

    /// One of the five race-test families (path, grid, rgg, random tree,
    /// barbell), sized by `size` in `0..1`.
    fn family_graph(family: u8, size: f64, seed: u64) -> Graph {
        let k = |lo: usize, hi: usize| lo + ((hi - lo) as f64 * size) as usize;
        let r = &mut rng(seed);
        match family % 5 {
            0 => generators::path(k(1, 300)),
            1 => generators::grid(k(1, 30), k(1, 12)),
            2 => generators::random_geometric(k(2, 400), 0.05 + 0.2 * size, r),
            3 => generators::random_tree(k(2, 300), r),
            _ => generators::barbell(k(3, 20), k(1, 30)),
        }
    }

    /// One race input: a family graph, region labels and shifts. β is
    /// log-uniform in [1e-9, 1]. Regions: none; random labels from 1–3
    /// values (regions need not be connected); or the clusters of a coarser
    /// partition, as the precompute's fine races use. Shifts: raw, capped at
    /// their median (half of them tie exactly, so the smaller-center
    /// tie-break decides), or capped at 1/β.
    fn race_case(
        family: u8,
        size: f64,
        seed: u64,
        log_beta: f64,
        regions: u32,
        cap: u8,
    ) -> (Graph, Option<Vec<u32>>, ExponentialShifts) {
        let g = family_graph(family, size, seed);
        let beta = 10f64.powf(log_beta);
        let mut r = rng(seed ^ 0x5EED);
        let labels: Vec<u32> = if regions == 4 {
            let coarse = Partition::compute(&g, beta.sqrt(), &mut r);
            g.nodes().map(|v| coarse.cluster_index(v)).collect()
        } else {
            g.nodes().map(|_| r.gen_range(0..regions.max(1))).collect()
        };
        let mut shifts = ExponentialShifts::sample(g.n(), beta, &mut r);
        match cap {
            1 => {
                let mut sorted: Vec<f64> = g.nodes().map(|v| shifts.delta(v)).collect();
                sorted.sort_by(f64::total_cmp);
                shifts.clamp_max(sorted[sorted.len() / 2]);
            }
            2 => {
                shifts.clamp_max(1.0 / beta);
            }
            _ => {}
        }
        (g, (regions > 0).then_some(labels), shifts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn merge_race_equals_heap_race(
            family in 0u8..5,
            size in 0.0f64..1.0,
            seed in any::<u64>(),
            log_beta in -9.0f64..0.0,
            regions in 0u32..5,
            cap in 0u8..3,
        ) {
            let (g, labels, shifts) = race_case(family, size, seed, log_beta, regions, cap);
            let region = labels.as_deref();
            let merged = Partition::race(&g, &shifts, region);
            prop_assert_eq!(&merged.center, &heap_race(&g, &shifts, region));
            prop_assert!(merged.validate(&g).is_ok());
        }

        #[test]
        fn strong_dist_equals_per_cluster_bfs(
            family in 0u8..5,
            size in 0.0f64..1.0,
            seed in any::<u64>(),
            log_beta in -9.0f64..0.0,
            regions in 0u32..5,
            cap in 0u8..3,
            scattered in 0usize..4,
        ) {
            // The multi-source BFS against one BFS per cluster, on raced
            // partitions and (`scattered > 0`) on centers assigned at
            // random, whose clusters are mostly disconnected: the same
            // distances, and the same verdict.
            let (g, labels, shifts) = race_case(family, size, seed, log_beta, regions, cap);
            let mut p = Partition::race(&g, &shifts, labels.as_deref());
            if scattered > 0 {
                let mut r = rng(seed ^ 0xD15C);
                let centers: Vec<NodeId> =
                    (0..scattered.min(g.n())).map(|_| r.gen_range(0..g.n() as NodeId)).collect();
                let center = p.center_vec_mut();
                for v in 0..center.len() {
                    center[v] = centers[r.gen_range(0..centers.len())];
                }
                for &c in &centers {
                    center[c as usize] = c;
                }
                p.finish_rebuild(&g, p.beta(), &mut Vec::new());
            }
            let oracle = per_cluster_strong_dist(&p, &g);
            prop_assert_eq!(&p.strong_dist_to_center(&g), &oracle);
            prop_assert_eq!(p.validate(&g).is_ok(), !oracle.contains(&u32::MAX));
        }

        #[test]
        fn race_forest_equals_per_cluster_bfs(
            family in 0u8..5,
            size in 0.0f64..1.0,
            seed in any::<u64>(),
            log_beta in -9.0f64..0.0,
            regions in 0u32..5,
            cap in 0u8..3,
        ) {
            // The forest the race records equals the one `finish_rebuild`
            // computes by a BFS of each cluster from the same centers, and
            // its depths are the strong distances to the centers.
            let (g, labels, shifts) = race_case(family, size, seed, log_beta, regions, cap);
            let region = labels.as_deref();
            let raced = Partition::race(&g, &shifts, region);
            let mut bfs = raced.clone();
            bfs.finish_rebuild(&g, raced.beta(), &mut Vec::new());
            prop_assert_eq!(&raced.center, &bfs.center);
            prop_assert_eq!(&raced.parent, &bfs.parent);
            prop_assert_eq!(&raced.depth, &bfs.depth);
            prop_assert_eq!(&raced.depth, &raced.strong_dist_to_center(&g));
        }
    }

    /// Strong distances as first computed: one BFS per cluster from its
    /// center, restricted to the cluster, each over an `n`-entry array.
    fn per_cluster_strong_dist(p: &Partition, g: &Graph) -> Vec<u32> {
        let mut dist = vec![u32::MAX; g.n()];
        for (idx, &c) in p.centers().iter().enumerate() {
            let idx = idx as u32;
            let bfs = traversal::bfs_filtered(g, &[c], |v| p.cluster_index(v) == idx);
            for &m in p.members(idx) {
                dist[m as usize] = bfs[m as usize];
            }
        }
        dist
    }

    #[test]
    fn huge_shifts_still_give_a_valid_partition() {
        // Beyond 2^53 keys lose their unit steps; β down to the smallest
        // positive float must still yield connected, self-centered clusters.
        let g = generators::grid(20, 20);
        for beta in [1e-15, 1e-200, f64::MIN_POSITIVE] {
            let p = Partition::compute(&g, beta, &mut rng(13));
            p.validate(&g).expect("valid partition");
        }
    }

    #[test]
    fn partition_covers_all_nodes_exactly_once() {
        let g = generators::grid(15, 15);
        let p = Partition::compute(&g, 0.3, &mut rng(1));
        let total: usize = (0..p.num_clusters() as u32).map(|i| p.members(i).len()).sum();
        assert_eq!(total, g.n());
        for v in g.nodes() {
            assert!(p.members(p.cluster_index(v)).contains(&v));
        }
    }

    #[test]
    fn invariants_hold_across_graphs_and_betas() {
        let mut r = rng(2);
        let graphs = vec![
            generators::path(100),
            generators::grid(12, 12),
            generators::random_geometric(150, 0.12, &mut r),
            generators::random_tree(120, &mut r),
            generators::barbell(20, 15),
        ];
        for g in &graphs {
            for beta in [0.05, 0.2, 0.7] {
                let p = Partition::compute(g, beta, &mut r);
                p.validate(g).expect("invariants");
            }
        }
    }

    #[test]
    fn strong_distance_equals_graph_distance() {
        // The MPX property: the shortest path to your center stays in your
        // cluster, so strong distance = BFS distance.
        let g = generators::grid(14, 14);
        let p = Partition::compute(&g, 0.2, &mut rng(3));
        let strong = p.strong_dist_to_center(&g);
        for v in g.nodes() {
            let c = p.center_of(v);
            let global = traversal::bfs(&g, c)[v as usize];
            assert_eq!(strong[v as usize], global, "node {v} center {c}");
        }
    }

    #[test]
    fn beta_one_half_gives_many_clusters_beta_tiny_gives_one() {
        let g = generators::grid(16, 16);
        let many = Partition::compute(&g, 0.9, &mut rng(4));
        let few = Partition::compute(&g, 1e-6, &mut rng(4));
        assert!(many.num_clusters() > 20, "large beta fragments: {}", many.num_clusters());
        assert_eq!(few.num_clusters(), 1, "tiny beta produces one giant cluster");
    }

    #[test]
    fn with_shifts_is_deterministic() {
        let g = generators::grid(10, 10);
        let shifts = ExponentialShifts::sample(g.n(), 0.3, &mut rng(5));
        let p1 = Partition::with_shifts(&g, &shifts);
        let p2 = Partition::with_shifts(&g, &shifts);
        assert_eq!(p1.center, p2.center);
    }

    #[test]
    fn winner_has_max_shifted_distance() {
        // Brute-force check of the defining argmax on a small graph.
        let g = generators::grid(6, 6);
        let shifts = ExponentialShifts::sample(g.n(), 0.4, &mut rng(6));
        let p = Partition::with_shifts(&g, &shifts);
        for v in g.nodes() {
            let dist = traversal::bfs(&g, v);
            let winner = p.center_of(v);
            let wkey = shifts.delta(winner) - dist[winner as usize] as f64;
            for u in g.nodes() {
                let ukey = shifts.delta(u) - dist[u as usize] as f64;
                assert!(
                    ukey <= wkey + 1e-9,
                    "node {v}: center {winner} (key {wkey}) beaten by {u} (key {ukey})"
                );
            }
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let p = Partition::compute(&g, 0.5, &mut rng(7));
        assert_eq!(p.num_clusters(), 1);
        assert!(p.is_center(0));
    }

    #[test]
    fn compute_within_respects_region_boundaries() {
        // Coarse: grid split into left/right halves. Fine clusters must not
        // span the boundary.
        let g = generators::grid(12, 6);
        let region: Vec<u32> = g.nodes().map(|v| if v % 12 < 6 { 0 } else { 1 }).collect();
        for seed in 0..5 {
            let p = Partition::compute_within(&g, 0.2, &region, &mut rng(seed));
            p.validate(&g).expect("valid partition");
            for idx in 0..p.num_clusters() as u32 {
                let members = p.members(idx);
                let r0 = region[members[0] as usize];
                assert!(
                    members.iter().all(|&m| region[m as usize] == r0),
                    "cluster {idx} spans regions"
                );
            }
        }
    }

    #[test]
    fn recompute_matches_fresh_compute_exactly() {
        let g = generators::grid(12, 12);
        let region: Vec<u32> = g.nodes().map(|v| if v % 12 < 6 { 0 } else { 1 }).collect();
        let mut scratch = PartitionScratch::default();
        // Warm the pool on an unrelated graph, then recompute across seeds
        // and betas: every result must equal the fresh construction.
        let warm = generators::path(30);
        let mut pooled = Partition::compute(&warm, 0.5, &mut rng(0));
        pooled.recompute(&warm, 0.5, &mut rng(0), &mut scratch);
        for seed in 0..4 {
            for beta in [0.1, 0.4] {
                pooled.recompute(&g, beta, &mut rng(seed), &mut scratch);
                let fresh = Partition::compute(&g, beta, &mut rng(seed));
                assert_eq!(pooled.center, fresh.center, "seed {seed} beta {beta}");
                assert_eq!(pooled.cluster_of, fresh.cluster_of);
                assert_eq!(pooled.centers, fresh.centers);
                assert_eq!(pooled.member_start, fresh.member_start);
                assert_eq!(pooled.member_data, fresh.member_data);
                assert_eq!(pooled.parent, fresh.parent);
                assert_eq!(pooled.depth, fresh.depth);

                pooled.recompute_within(&g, beta, &region, &mut rng(seed), &mut scratch);
                let fresh = Partition::compute_within(&g, beta, &region, &mut rng(seed));
                assert_eq!(pooled.center, fresh.center, "within: seed {seed} beta {beta}");
                assert_eq!(pooled.member_data, fresh.member_data);
                assert_eq!(pooled.parent, fresh.parent);
                assert_eq!(pooled.depth, fresh.depth);
            }
        }
    }

    #[test]
    fn compute_within_single_region_matches_unrestricted_shape() {
        let g = generators::grid(10, 10);
        let region = vec![0u32; g.n()];
        let p = Partition::compute_within(&g, 0.3, &region, &mut rng(8));
        p.validate(&g).expect("valid partition");
        // With one region the restriction is vacuous: same invariants,
        // plausible cluster count.
        assert!(p.num_clusters() >= 1 && p.num_clusters() <= g.n());
    }
}
