use rn_cluster::Partition;
use rn_graph::{Graph, NodeId, INVALID_NODE};
use rn_sim::NetParams;

/// How the window width `W` (slots per tree layer = schedule period) is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotPolicy {
    /// Use the maximum number of colors any layer needs, capped at
    /// `4·⌈log₂ n⌉` (the cap keeps the period `O(log n)` as in Lemma 2.3;
    /// layers needing more overflow onto reused slots and are repaired by
    /// the ICP background process).
    Auto,
    /// A fixed window width.
    Fixed(u32),
}

/// Per-cluster BFS trees plus a conflict-free layer/slot schedule, for all
/// clusters of one [`Partition`] at once. The trees are the partition's BFS
/// forest ([`Partition::parent`], [`Partition::depth`]), copied;
/// [`TreeScheduleScratch`] describes how the slots are colored.
///
/// Besides the per-node slots, it keeps each depth layer twice more, once
/// ordered by downcast slot and once by upcast slot (ascending node id
/// within a slot, slotless nodes last): two `n`-entry `u32` arrays, the
/// *sender lists*. With each list goes a table of *runs*: for every layer,
/// where each slot's nodes start in the list, `min(W, |layer|) + 1` entries
/// (the last one where the slotless nodes start), `n + max_depth + 1` in
/// all. [`TreeSchedule::down_senders`] and [`TreeSchedule::up_senders`]
/// return a step's transmitters as one slice of a sender list, bounded by
/// two entries of its table, so schedule walks visit only the nodes of
/// their slot.
///
/// # Example
///
/// ```
/// use rn_cluster::Partition;
/// use rn_graph::generators;
/// use rn_schedule::{SlotPolicy, TreeSchedule};
/// use rand::SeedableRng;
///
/// let g = generators::grid(12, 12);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let part = Partition::compute(&g, 0.3, &mut rng);
/// let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
/// assert!(sched.window() >= 1);
/// assert_eq!(sched.pass_len(sched.max_depth()), (sched.max_depth() as u64 + 1) * sched.window() as u64);
/// ```
#[derive(Debug, Clone)]
pub struct TreeSchedule {
    window: u32,
    max_depth: u32,
    /// BFS-tree parent within the cluster; `INVALID_NODE` for centers.
    parent: Vec<NodeId>,
    /// Depth within the cluster tree (0 for centers).
    depth: Vec<u32>,
    /// Cluster index per node (copied from the partition).
    cluster: Vec<u32>,
    /// Downcast slot of a node (valid if it has tree children), else `u32::MAX`.
    down_slot: Vec<u32>,
    /// Upcast slot of a node (valid unless it is a center), else `u32::MAX`.
    up_slot: Vec<u32>,
    /// CSR of nodes grouped by depth across all clusters (they share
    /// windows): depth `d` owns `depth_nodes[depth_start[d]..depth_start[d+1]]`.
    /// Flat so pooled rebuilds reuse two `n`-bounded buffers even when
    /// `max_depth` changes between trials.
    depth_start: Vec<u32>,
    depth_nodes: Vec<NodeId>,
    /// The sender lists (see the type docs), under the same `depth_start`
    /// bounds as `depth_nodes`.
    down_order: Vec<NodeId>,
    up_order: Vec<NodeId>,
    /// Their runs: layer `d`'s slot `s` owns
    /// `down_order[down_runs[i]..down_runs[i + 1]]` with
    /// `i = depth_start[d] + d + s`, for `s < min(W, |layer d|)`.
    down_runs: Vec<u32>,
    up_runs: Vec<u32>,
    /// CSR of tree children: node `v` owns
    /// `child_data[child_start[v]..child_start[v+1]]`.
    child_start: Vec<u32>,
    child_data: Vec<NodeId>,
    /// Number of nodes whose down/up color exceeded the window and wrapped.
    overflow: usize,
}

/// Reusable workspace for [`TreeSchedule::rebuild`]: the layer lists the
/// colorings read, the per-receiver color masks, the fallback's used-color
/// stamps, and the counting-sort cursors.
///
/// * **Layer lists.** One branch-free pass over the adjacency gives every
///   node `v` its *down list*, its same-cluster neighbours one layer deeper
///   (children included), and its *up list*, its same-cluster neighbours
///   one layer up (parent included), both in adjacency order. A packed
///   `(cluster, depth)` key makes each test one comparison. Each edge lands
///   in at most one down list and one up list, so `m + 1` slots cover each
///   branch-free append (a slot is overwritten unless its node qualifies).
/// * **Masks.** The greedy colorings keep one 64-bit mask per receiver and
///   role, updated as nodes get colored. Bit `c` of `up_mask[x]` is set once
///   a downcast transmitter in `x`'s up list holds color `c`; `dl_mask[r]`
///   does the same for upcast colors over `r`'s down list, and
///   `kid_mask[r]` over `r`'s children. A node ORs the masks of its
///   receivers (and, in the downcast, the colors of its down list's
///   parents) into the exact set of colors below 64 that its conflicting
///   nodes hold, so its color is the lowest zero bit.
/// * **Fallback.** When all 64 low colors are taken, the conflicting colors
///   are enumerated instead, stamping `mark` (slot `n` absorbs `u32::MAX`,
///   the color of a node not yet colored): the upcast then walks two hops,
///   to the children of its up list.
///
/// Every buffer is bounded by the graph (`n + 2` or `m + 1` entries), so
/// after the first rebuild on a given graph subsequent rebuilds perform no
/// heap allocation.
#[derive(Debug, Default)]
pub struct TreeScheduleScratch {
    /// `(cluster << 32) | depth` per node.
    key: Vec<u64>,
    /// CSR of down lists: node `v` owns
    /// `down_data[down_start[v]..down_start[v + 1]]`.
    down_start: Vec<u32>,
    down_data: Vec<NodeId>,
    /// CSR of up lists, laid out as the down lists.
    up_start: Vec<u32>,
    up_data: Vec<NodeId>,
    up_mask: Vec<u64>,
    dl_mask: Vec<u64>,
    kid_mask: Vec<u64>,
    /// `mark[c] == stamp` iff color `c` is taken by a conflicting node.
    mark: Vec<u32>,
    cursor: Vec<u32>,
}

impl TreeSchedule {
    /// Builds trees and slot colorings for every cluster of `partition`.
    pub fn build(g: &Graph, partition: &Partition, policy: SlotPolicy) -> TreeSchedule {
        let mut sched = TreeSchedule {
            window: 1,
            max_depth: 0,
            parent: Vec::new(),
            depth: Vec::new(),
            cluster: Vec::new(),
            down_slot: Vec::new(),
            up_slot: Vec::new(),
            depth_start: Vec::new(),
            depth_nodes: Vec::new(),
            down_order: Vec::new(),
            up_order: Vec::new(),
            down_runs: Vec::new(),
            up_runs: Vec::new(),
            child_start: Vec::new(),
            child_data: Vec::new(),
            overflow: 0,
        };
        sched.rebuild(g, partition, policy, &mut TreeScheduleScratch::default());
        sched
    }

    /// In-place [`TreeSchedule::build`]: byte-identical result (it *is* the
    /// build code path), but every buffer is reused from `self` and
    /// `scratch`. Pooled trial loops call this once per clustering instead
    /// of constructing fresh schedules.
    pub fn rebuild(
        &mut self,
        g: &Graph,
        partition: &Partition,
        policy: SlotPolicy,
        scratch: &mut TreeScheduleScratch,
    ) {
        let n = g.n();
        let TreeScheduleScratch {
            key,
            down_start,
            down_data,
            up_start,
            up_data,
            up_mask,
            dl_mask,
            kid_mask,
            mark,
            cursor,
        } = scratch;
        self.parent.clear();
        self.parent.extend(g.nodes().map(|v| partition.parent(v)));
        self.depth.clear();
        self.depth.extend(g.nodes().map(|v| partition.depth(v)));
        self.cluster.clear();
        self.cluster.extend(g.nodes().map(|v| partition.cluster_index(v)));
        let TreeSchedule {
            parent,
            depth,
            cluster,
            down_slot,
            up_slot,
            depth_start,
            depth_nodes,
            down_order,
            up_order,
            down_runs,
            up_runs,
            child_start,
            child_data,
            ..
        } = self;
        debug_assert!(depth.iter().all(|&d| d != u32::MAX), "clusters are connected");

        let max_depth = depth.iter().copied().max().unwrap_or(0);
        self.max_depth = max_depth;

        // Nodes-by-depth CSR via counting sort (ascending node id per layer,
        // matching the old push order). `cursor` doubles as the write heads.
        depth_start.clear();
        depth_start.reserve(n + 2);
        depth_start.resize(max_depth as usize + 2, 0);
        for v in 0..n {
            depth_start[depth[v] as usize + 1] += 1;
        }
        for d in 0..max_depth as usize + 1 {
            depth_start[d + 1] += depth_start[d];
        }
        if depth_nodes.len() != n {
            depth_nodes.clear();
            depth_nodes.resize(n, 0);
        }
        cursor.clear();
        cursor.reserve(n + 2);
        cursor.extend_from_slice(&depth_start[..max_depth as usize + 1]);
        for v in 0..n {
            let at = &mut cursor[depth[v] as usize];
            depth_nodes[*at as usize] = v as NodeId;
            *at += 1;
        }

        // Children CSR (ascending child id per parent, as before).
        child_start.clear();
        child_start.resize(n + 1, 0);
        for &p in parent.iter() {
            if p != INVALID_NODE {
                child_start[p as usize + 1] += 1;
            }
        }
        for v in 0..n {
            child_start[v + 1] += child_start[v];
        }
        child_data.clear();
        // Reserve the worst case (every node a child) rather than the exact
        // edge count: the count is partition- and therefore seed-dependent,
        // and chasing it would realloc on the first trial whose trees are
        // bushier than every one before it.
        child_data.reserve(n);
        child_data.resize(child_start[n] as usize, 0);
        cursor.clear();
        cursor.extend_from_slice(&child_start[..n]);
        for (v, &p) in parent.iter().enumerate() {
            if p != INVALID_NODE {
                let at = &mut cursor[p as usize];
                child_data[*at as usize] = v as NodeId;
                *at += 1;
            }
        }

        // Down and up lists in one adjacency pass. With the packed key, `w`
        // is one layer below `u` in `u`'s cluster iff `key[w] == key[u] + 1`,
        // and one layer above iff `key[w] + 1 == key[u]`; depths stay below
        // `u32::MAX`, so neither sum carries into the cluster bits.
        key.clear();
        key.extend((0..n).map(|v| (cluster[v] as u64) << 32 | depth[v] as u64));
        for (start, data) in [(&mut *down_start, &mut *down_data), (&mut *up_start, &mut *up_data)]
        {
            start.clear();
            start.resize(n + 1, 0);
            if data.len() != g.m() + 1 {
                data.clear();
                data.resize(g.m() + 1, 0);
            }
        }
        let (mut down_len, mut up_len) = (0, 0);
        for u in 0..n {
            let ku = key[u];
            for &w in g.neighbors(u as NodeId) {
                let kw = key[w as usize];
                down_data[down_len] = w;
                down_len += usize::from(kw == ku + 1);
                up_data[up_len] = w;
                up_len += usize::from(kw + 1 == ku);
            }
            down_start[u + 1] = down_len as u32;
            up_start[u + 1] = up_len as u32;
        }

        // Greedy conflict colorings, one layer at a time in ascending id,
        // written directly into the slot arrays (folded modulo the window
        // afterwards). Each color is the lowest free bit of the masks (see
        // `TreeScheduleScratch`); only a node whose 64 low colors are all
        // taken enumerates its conflict set. A node not yet colored — or
        // never, like a peer without children in the downcast, or the node
        // being colored, which the lists also reach — holds `u32::MAX`,
        // which sets no mask bit and stamps the spare slot `n`; a color is
        // below `n`, since fewer than `n` nodes conflict with any one node.
        down_slot.clear();
        down_slot.resize(n, u32::MAX);
        up_slot.clear();
        up_slot.resize(n, u32::MAX);
        for mask in [&mut *up_mask, &mut *dl_mask, &mut *kid_mask] {
            mask.clear();
            mask.resize(n, 0);
        }
        mark.clear();
        mark.resize(n + 1, 0);
        let spare = n as u32;
        let mut stamp = 0u32;
        let down_color = down_slot;
        let up_color = up_slot;
        let children = |v: NodeId| {
            &child_data[child_start[v as usize] as usize..child_start[v as usize + 1] as usize]
        };
        let down_list = |v: NodeId| {
            &down_data[down_start[v as usize] as usize..down_start[v as usize + 1] as usize]
        };
        let up_list =
            |v: NodeId| &up_data[up_start[v as usize] as usize..up_start[v as usize + 1] as usize];
        let mut max_color = 0u32;
        for d in 0..max_depth as usize + 1 {
            let layer = &depth_nodes[depth_start[d] as usize..depth_start[d + 1] as usize];
            // --- Downcast: transmitters are nodes with children.
            for &p in layer {
                let kids = children(p);
                if kids.is_empty() {
                    continue;
                }
                // Conflicts: same cluster+depth transmitters p' adjacent to
                // one of p's children (its up list, gathered in `up_mask`)
                // ... or whose children are adjacent to p (p's down list).
                let mut taken = 0;
                for &u in kids {
                    taken |= up_mask[u as usize];
                }
                for &w in down_list(p) {
                    taken |= bit(down_color[parent[w as usize] as usize]);
                }
                let c = if taken != u64::MAX {
                    taken.trailing_ones()
                } else {
                    stamp += 1;
                    for &u in kids {
                        for &w in up_list(u) {
                            mark[down_color[w as usize].min(spare) as usize] = stamp;
                        }
                    }
                    for &w in down_list(p) {
                        let pw = parent[w as usize];
                        mark[down_color[pw as usize].min(spare) as usize] = stamp;
                    }
                    smallest_unmarked(mark, stamp)
                };
                down_color[p as usize] = c;
                max_color = max_color.max(c);
                for &w in down_list(p) {
                    up_mask[w as usize] |= bit(c);
                }
            }

            // --- Upcast: transmitters are all non-center nodes of the layer;
            // the receiver that matters is the tree parent.
            for &u in layer {
                let pu = parent[u as usize];
                if pu == INVALID_NODE {
                    continue;
                }
                // u' adjacent to u's parent (same cluster+depth) collides at
                // p(u): p(u)'s down list, gathered in `dl_mask`. u adjacent
                // to p(u') collides at p(u'): the children of u's up list,
                // gathered in `kid_mask`.
                let mut taken = dl_mask[pu as usize];
                for &r in up_list(u) {
                    taken |= kid_mask[r as usize];
                }
                let c = if taken != u64::MAX {
                    taken.trailing_ones()
                } else {
                    stamp += 1;
                    for &w in down_list(pu) {
                        mark[up_color[w as usize].min(spare) as usize] = stamp;
                    }
                    for &r in up_list(u) {
                        for &ch in children(r) {
                            mark[up_color[ch as usize].min(spare) as usize] = stamp;
                        }
                    }
                    smallest_unmarked(mark, stamp)
                };
                up_color[u as usize] = c;
                max_color = max_color.max(c);
                kid_mask[pu as usize] |= bit(c);
                for &r in up_list(u) {
                    dl_mask[r as usize] |= bit(c);
                }
            }
        }

        let params_cap = 4 * NetParams::new(n, max_depth).log2_n();
        let window = match policy {
            SlotPolicy::Auto => (max_color + 1).min(params_cap.max(1)),
            SlotPolicy::Fixed(w) => w.max(1),
        };
        self.window = window;

        // Fold colors into the window; count overflows.
        let mut overflow = 0;
        for v in 0..n {
            if down_color[v] != u32::MAX {
                if down_color[v] >= window {
                    overflow += 1;
                }
                down_color[v] %= window;
            }
            if up_color[v] != u32::MAX {
                if up_color[v] >= window {
                    overflow += 1;
                }
                up_color[v] %= window;
            }
        }
        self.overflow = overflow;

        for (slot, order, runs) in
            [(down_color, down_order, down_runs), (up_color, up_order, up_runs)]
        {
            order_layers_by_slot(depth_start, depth_nodes, slot, window, cursor, order, runs);
        }
    }

    /// The window width `W` (slots per layer; the schedule's period).
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Deepest layer over all clusters.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Length in rounds of one downcast or upcast pass to `radius`:
    /// `(min(radius, max_depth) + 1) · W`.
    pub fn pass_len(&self, radius: u32) -> u64 {
        (radius.min(self.max_depth) as u64 + 1) * self.window as u64
    }

    /// Tree parent of `v` (`INVALID_NODE` for cluster centers).
    pub fn parent(&self, v: NodeId) -> NodeId {
        self.parent[v as usize]
    }

    /// Tree depth of `v` within its cluster.
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v as usize]
    }

    /// Cluster index of `v`.
    pub fn cluster(&self, v: NodeId) -> u32 {
        self.cluster[v as usize]
    }

    /// Downcast slot of `v` (`u32::MAX` if `v` has no tree children).
    pub fn down_slot(&self, v: NodeId) -> u32 {
        self.down_slot[v as usize]
    }

    /// Upcast slot of `v` (`u32::MAX` for centers).
    pub fn up_slot(&self, v: NodeId) -> u32 {
        self.up_slot[v as usize]
    }

    /// Tree children of `v`.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.child_data[self.child_start[v] as usize..self.child_start[v + 1] as usize]
    }

    /// Nodes at tree depth `d`, across all clusters.
    pub fn nodes_at_depth(&self, d: u32) -> &[NodeId] {
        if d > self.max_depth {
            return &[];
        }
        let d = d as usize;
        &self.depth_nodes[self.depth_start[d] as usize..self.depth_start[d + 1] as usize]
    }

    /// The nodes at depth `d` that transmit in downcast slot `slot`: exactly
    /// [`TreeSchedule::nodes_at_depth`] filtered on
    /// [`TreeSchedule::down_slot`], in the same ascending-id order; empty
    /// for `d > max_depth`.
    pub fn down_senders(&self, d: u32, slot: u32) -> &[NodeId] {
        self.senders(&self.down_order, &self.down_runs, d, slot)
    }

    /// The nodes at depth `d` that transmit in upcast slot `slot`: exactly
    /// [`TreeSchedule::nodes_at_depth`] filtered on
    /// [`TreeSchedule::up_slot`], in the same ascending-id order; empty for
    /// `d > max_depth`.
    pub fn up_senders(&self, d: u32, slot: u32) -> &[NodeId] {
        self.senders(&self.up_order, &self.up_runs, d, slot)
    }

    /// The run of layer `d` of `order` holding `slot`, read off `runs` (see
    /// the type docs). A layer's slots are below `min(W, |layer|)`, so any
    /// other slot has no senders.
    fn senders<'a>(&self, order: &'a [NodeId], runs: &[u32], d: u32, slot: u32) -> &'a [NodeId] {
        if d > self.max_depth {
            return &[];
        }
        let d = d as usize;
        let (lo, hi) = (self.depth_start[d], self.depth_start[d + 1]);
        if slot >= self.window.min(hi - lo) {
            return &[];
        }
        let at = lo as usize + d + slot as usize;
        &order[runs[at] as usize..runs[at + 1] as usize]
    }

    /// How many node colors wrapped past the window (0 = fully conflict-free
    /// within clusters).
    pub fn overflow(&self) -> usize {
        self.overflow
    }

    /// Charged preprocessing cost of building this schedule distributedly,
    /// per the Lemma 2.3 contract: `O((max_depth + 1) · W · log n)` rounds
    /// (`log n` passes of one wave each). Used by the Compete pipeline's
    /// `Charged` precompute mode.
    pub fn charged_build_rounds(&self, params: &NetParams) -> u64 {
        (self.max_depth as u64 + 1) * self.window as u64 * params.log2_n() as u64
    }

    /// Verifies the intra-cluster conflict-freeness guarantee: for every
    /// non-center node `u`, no same-cluster, same-depth transmitter other
    /// than `parent(u)` shares `parent(u)`'s downcast slot among `u`'s
    /// neighbors; and symmetrically for upcast at `parent(u)`. Returns the
    /// number of violations (0 unless slots overflowed).
    pub fn conflict_violations(&self, g: &Graph) -> usize {
        let mut violations = 0;
        for u in g.nodes() {
            let p = self.parent[u as usize];
            if p == INVALID_NODE {
                continue;
            }
            let pslot = self.down_slot[p as usize];
            let pdepth = self.depth[p as usize];
            for &w in g.neighbors(u) {
                if w != p
                    && self.cluster[w as usize] == self.cluster[u as usize]
                    && self.depth[w as usize] == pdepth
                    && self.down_slot[w as usize] == pslot
                {
                    violations += 1;
                }
            }
            // Upcast: at p, another same-cluster same-depth-as-u neighbor of p
            // sharing u's up slot would collide with u's transmission.
            let uslot = self.up_slot[u as usize];
            let udepth = self.depth[u as usize];
            for &w in g.neighbors(p) {
                if w != u
                    && self.cluster[w as usize] == self.cluster[u as usize]
                    && self.depth[w as usize] == udepth
                    && self.up_slot[w as usize] == uslot
                {
                    violations += 1;
                }
            }
        }
        violations
    }
}

/// Writes each layer of the depth CSR into `out` ordered by `slot`: a stable
/// counting sort per layer, so ascending node id is kept within a slot and
/// slotless nodes (`u32::MAX`) come last. A layer's slots are below both the
/// window and its size (greedy colors count same-layer conflicts), so its
/// `min(window, size) + 2` counters stay within `count`'s `n + 2` reservation.
/// The bucket starts go to `runs` (layer `d`'s from `depth_start[d] + d`),
/// whose `n + max_depth + 1 ≤ 2n` entries stay within its reservation.
fn order_layers_by_slot(
    depth_start: &[u32],
    depth_nodes: &[NodeId],
    slot: &[u32],
    window: u32,
    count: &mut Vec<u32>,
    out: &mut Vec<NodeId>,
    runs: &mut Vec<u32>,
) {
    let n = depth_nodes.len();
    if out.len() != n {
        out.clear();
        out.resize(n, 0);
    }
    runs.clear();
    runs.reserve(2 * n);
    runs.resize(n + depth_start.len() - 1, 0);
    for (d, span) in depth_start.windows(2).enumerate() {
        let (lo, hi) = (span[0] as usize, span[1] as usize);
        let layer = &depth_nodes[lo..hi];
        // Bucket `s` holds slot `s`; bucket `top` the slotless nodes.
        let top = window.min(layer.len() as u32);
        let bucket = |v: NodeId| slot[v as usize].min(top) as usize;
        count.clear();
        count.resize(top as usize + 2, 0);
        for &v in layer {
            debug_assert!(slot[v as usize] == u32::MAX || slot[v as usize] < top);
            count[bucket(v) + 1] += 1;
        }
        for b in 0..=top as usize {
            count[b + 1] += count[b];
        }
        for (run, &start) in runs[lo + d..].iter_mut().zip(&count[..=top as usize]) {
            *run = (lo + start as usize) as u32;
        }
        for &v in layer {
            let at = &mut count[bucket(v)];
            out[lo + *at as usize] = v;
            *at += 1;
        }
    }
}

/// The smallest color whose `mark` is not `stamp`.
#[inline]
fn smallest_unmarked(mark: &[u32], stamp: u32) -> u32 {
    mark.iter().position(|&m| m != stamp).expect("fewer than n nodes conflict") as u32
}

/// Color `c`'s mask bit: none for colors from 64 up, `u32::MAX` included.
#[inline]
fn bit(c: u32) -> u64 {
    1u64.checked_shl(c).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rn_cluster::Partition;
    use rn_graph::generators;

    fn push_color(used: &mut Vec<u32>, c: u32) {
        if c != u32::MAX && !used.contains(&c) {
            used.push(c);
        }
    }

    fn smallest_free(used: &[u32]) -> u32 {
        (0..).find(|c| !used.contains(c)).expect("a free color")
    }

    /// The greedy colorings as first written — adjacency walks with
    /// separate cluster, depth and has-children peer tests, and every child
    /// of every neighbour walked in the upcast — over `s`'s trees, folded
    /// into the window `policy` gives. Kept as the oracle for the
    /// layer-list coloring; returns `(down_slot, up_slot, window, overflow)`.
    fn reference_slots(
        g: &Graph,
        s: &TreeSchedule,
        policy: SlotPolicy,
    ) -> (Vec<u32>, Vec<u32>, u32, usize) {
        let n = g.n();
        let peer = |w: NodeId, p: NodeId| {
            s.cluster(w) == s.cluster(p) && s.depth(w) == s.depth(p) && !s.children(w).is_empty()
        };
        let mut down = vec![u32::MAX; n];
        let mut up = vec![u32::MAX; n];
        let mut used = Vec::new();
        let mut max_color = 0u32;
        for d in 0..=s.max_depth() {
            for &p in s.nodes_at_depth(d) {
                if s.children(p).is_empty() {
                    continue;
                }
                used.clear();
                for &u in s.children(p) {
                    for &w in g.neighbors(u) {
                        if w != p && peer(w, p) {
                            push_color(&mut used, down[w as usize]);
                        }
                    }
                }
                for &w in g.neighbors(p) {
                    let pw = s.parent(w);
                    if pw != INVALID_NODE && pw != p && peer(pw, p) {
                        push_color(&mut used, down[pw as usize]);
                    }
                }
                down[p as usize] = smallest_free(&used);
                max_color = max_color.max(down[p as usize]);
            }
            for &u in s.nodes_at_depth(d) {
                let pu = s.parent(u);
                if pu == INVALID_NODE {
                    continue;
                }
                let same_layer = |w: NodeId| s.cluster(w) == s.cluster(u) && s.depth(w) == d;
                used.clear();
                for &w in g.neighbors(pu) {
                    if w != u && same_layer(w) {
                        push_color(&mut used, up[w as usize]);
                    }
                }
                for &w in g.neighbors(u) {
                    for &ch in s.children(w) {
                        if ch != u && same_layer(ch) {
                            push_color(&mut used, up[ch as usize]);
                        }
                    }
                }
                up[u as usize] = smallest_free(&used);
                max_color = max_color.max(up[u as usize]);
            }
        }
        let window = match policy {
            SlotPolicy::Auto => {
                (max_color + 1).min((4 * NetParams::new(n, s.max_depth()).log2_n()).max(1))
            }
            SlotPolicy::Fixed(w) => w.max(1),
        };
        let mut overflow = 0;
        for c in down.iter_mut().chain(up.iter_mut()).filter(|c| **c != u32::MAX) {
            overflow += usize::from(*c >= window);
            *c %= window;
        }
        (down, up, window, overflow)
    }

    /// One of the six schedule-test families (path, grid, rgg, random
    /// tree, barbell, and a clique whose layers can need more than 64
    /// colors), sized by `size` in `0..1`.
    fn family_graph(family: u8, size: f64, rng: &mut SmallRng) -> Graph {
        let k = |lo: usize, hi: usize| lo + ((hi - lo) as f64 * size) as usize;
        match family % 6 {
            0 => generators::path(k(1, 300)),
            1 => generators::grid(k(1, 30), k(1, 12)),
            2 => generators::random_geometric(k(2, 400), 0.05 + 0.2 * size, rng),
            3 => generators::random_tree(k(2, 300), rng),
            4 => generators::barbell(k(3, 20), k(1, 30)),
            _ => generators::complete(k(2, 150)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn layer_list_coloring_equals_reference(
            family in 0u8..6,
            size in 0.0f64..1.0,
            seed in any::<u64>(),
            log_beta in -9.0f64..0.0,
            within in any::<bool>(),
            fixed in 0u32..4,
        ) {
            // β log-uniform in [1e-9, 1]; partitions either global or
            // within a coarse clustering, as the precompute builds them;
            // the window either automatic or fixed (0 = automatic).
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = family_graph(family, size, &mut rng);
            let beta = 10f64.powf(log_beta);
            let part = if within {
                let coarse = Partition::compute(&g, beta.sqrt(), &mut rng);
                let region: Vec<u32> = g.nodes().map(|v| coarse.cluster_index(v)).collect();
                Partition::compute_within(&g, beta, &region, &mut rng)
            } else {
                Partition::compute(&g, beta, &mut rng)
            };
            let policy = if fixed == 0 { SlotPolicy::Auto } else { SlotPolicy::Fixed(fixed) };
            let sched = TreeSchedule::build(&g, &part, policy);
            let (down, up, window, overflow) = reference_slots(&g, &sched, policy);
            prop_assert_eq!(&sched.down_slot, &down);
            prop_assert_eq!(&sched.up_slot, &up);
            prop_assert_eq!(sched.window, window);
            prop_assert_eq!(sched.overflow, overflow);
            for d in 0..=sched.max_depth() + 1 {
                for slot in 0..=sched.window() {
                    let (down, up) = filtered_senders(&sched, d, slot);
                    prop_assert_eq!(sched.down_senders(d, slot), &down[..], "depth {} slot {}", d, slot);
                    prop_assert_eq!(sched.up_senders(d, slot), &up[..], "depth {} slot {}", d, slot);
                }
            }
        }
    }

    /// The sender lists as the transmit walks first computed them: layer
    /// `d` filtered on each slot array, in layer order.
    fn filtered_senders(s: &TreeSchedule, d: u32, slot: u32) -> (Vec<NodeId>, Vec<NodeId>) {
        let layer = s.nodes_at_depth(d).iter().copied();
        (
            layer.clone().filter(|&v| s.down_slot(v) == slot).collect(),
            layer.filter(|&v| s.up_slot(v) == slot).collect(),
        )
    }

    fn single_cluster(g: &Graph) -> Partition {
        let mut rng = SmallRng::seed_from_u64(0);
        let p = Partition::compute(g, 1e-9, &mut rng);
        assert_eq!(p.num_clusters(), 1);
        p
    }

    #[test]
    fn tree_depths_match_bfs_on_single_cluster() {
        let g = generators::grid(9, 9);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let center = part.centers()[0];
        let dist = rn_graph::traversal::bfs(&g, center);
        for v in g.nodes() {
            assert_eq!(sched.depth(v), dist[v as usize]);
        }
        assert_eq!(sched.parent(center), INVALID_NODE);
    }

    #[test]
    fn parents_are_one_layer_up_and_in_cluster() {
        let g = generators::grid(10, 10);
        let mut rng = SmallRng::seed_from_u64(1);
        let part = Partition::compute(&g, 0.3, &mut rng);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        for v in g.nodes() {
            let p = sched.parent(v);
            if p == INVALID_NODE {
                assert!(part.is_center(v));
                assert_eq!(sched.depth(v), 0);
            } else {
                assert!(g.has_edge(v, p));
                assert_eq!(sched.depth(v), sched.depth(p) + 1);
                assert_eq!(sched.cluster(v), sched.cluster(p));
                assert!(sched.children(p).contains(&v));
            }
        }
    }

    #[test]
    fn coloring_is_conflict_free_without_overflow() {
        let mut rng = SmallRng::seed_from_u64(2);
        for g in [
            generators::path(150),
            generators::grid(13, 13),
            generators::random_geometric(200, 0.12, &mut rng),
            generators::binary_tree(127),
        ] {
            for beta in [1e-9, 0.2, 0.5] {
                let part = Partition::compute(&g, beta, &mut rng);
                let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
                if sched.overflow() == 0 {
                    assert_eq!(sched.conflict_violations(&g), 0, "graph n={} beta={beta}", g.n());
                }
            }
        }
    }

    /// A graph whose downcast needs `k` colors in one layer: a hub, `k`
    /// nodes `p_1 < … < p_k` around it and `k` nodes `c_i`, each adjacent to
    /// `p_i, …, p_k`. The BFS from the hub makes `c_i` the child of `p_i`,
    /// so `p_i`'s down list reaches the children of every earlier `p_j`.
    /// Shifts depend only on `n`, so the hub takes the id that
    /// `single_cluster` makes the center; the other ids keep their order.
    fn half_graph(k: usize) -> Graph {
        let n = 2 * k + 1;
        let hub = single_cluster(&generators::path(n)).centers()[0] as usize;
        let id = |x: usize| match x {
            0 => hub,
            _ if x - 1 < hub => x - 1,
            _ => x,
        } as NodeId;
        let mut edges = Vec::new();
        for i in 1..=k {
            edges.push((id(0), id(i)));
            edges.extend((i..=k).map(|j| (id(k + i), id(j))));
        }
        Graph::from_edges(n, &edges).expect("half graph")
    }

    #[test]
    fn colors_past_64_fall_back_to_enumeration() {
        // One cluster each, under a 1000-slot window that leaves the raw
        // colors unfolded. In a 100-clique the 99 nodes of layer 1 all
        // conflict at the center, so the upcast needs 99 colors; in the half
        // graph the downcast and the upcast both need 70.
        let policy = SlotPolicy::Fixed(1000);
        let top = |slots: &[u32]| slots.iter().copied().filter(|&c| c != u32::MAX).max();
        for (g, down_top, up_top) in [(generators::complete(100), 0, 98), (half_graph(70), 69, 69)]
        {
            let part = single_cluster(&g);
            let sched = TreeSchedule::build(&g, &part, policy);
            assert_eq!(top(&sched.down_slot), Some(down_top), "n = {}", g.n());
            assert_eq!(top(&sched.up_slot), Some(up_top), "n = {}", g.n());
            let (down, up, window, overflow) = reference_slots(&g, &sched, policy);
            assert_eq!(sched.down_slot, down);
            assert_eq!(sched.up_slot, up);
            assert_eq!((sched.window, sched.overflow), (window, overflow));
        }
    }

    #[test]
    fn window_respects_fixed_policy_and_floors_at_one() {
        let g = generators::path(20);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Fixed(7));
        assert_eq!(sched.window(), 7);
        let sched0 = TreeSchedule::build(&g, &part, SlotPolicy::Fixed(0));
        assert_eq!(sched0.window(), 1, "floored");
    }

    #[test]
    fn path_needs_tiny_window() {
        // On a path every layer has ≤ 2 nodes per cluster; greedy coloring
        // needs O(1) colors — the bounded-growth property the design relies on.
        let g = generators::path(300);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        assert!(sched.window() <= 3, "window {} too large for a path", sched.window());
        assert_eq!(sched.overflow(), 0);
    }

    #[test]
    fn pass_len_clamps_to_max_depth() {
        let g = generators::path(50);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let full = sched.pass_len(u32::MAX);
        assert_eq!(full, (sched.max_depth() as u64 + 1) * sched.window() as u64);
        assert!(sched.pass_len(3) <= full);
        assert_eq!(sched.pass_len(3), 4 * sched.window() as u64);
    }

    #[test]
    fn nodes_at_depth_partitions_nodes() {
        let g = generators::grid(8, 8);
        let mut rng = SmallRng::seed_from_u64(3);
        let part = Partition::compute(&g, 0.4, &mut rng);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let total: usize = (0..=sched.max_depth()).map(|d| sched.nodes_at_depth(d).len()).sum();
        assert_eq!(total, g.n());
        assert!(sched.nodes_at_depth(sched.max_depth() + 5).is_empty());
    }

    #[test]
    fn rebuild_matches_fresh_build_exactly() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = generators::grid(11, 11);
        // Warm graphs of another size and of `g`'s size: the second keeps
        // every `n`-sized buffer at its length, so a position a rebuild
        // fails to overwrite still holds the path's value.
        let warms = [generators::path(40), generators::path(121)];
        let mut scratch = TreeScheduleScratch::default();
        let mut pooled = TreeSchedule::build(
            &warms[0],
            &Partition::compute(&warms[0], 0.5, &mut rng),
            SlotPolicy::Auto,
        );
        for beta in [1e-9, 0.2, 0.6] {
            let part = Partition::compute(&g, beta, &mut rng);
            for policy in [SlotPolicy::Auto, SlotPolicy::Fixed(3)] {
                for warm in &warms {
                    let warm_part = Partition::compute(warm, 0.5, &mut rng);
                    pooled.rebuild(warm, &warm_part, SlotPolicy::Auto, &mut scratch);
                }
                pooled.rebuild(&g, &part, policy, &mut scratch);
                let fresh = TreeSchedule::build(&g, &part, policy);
                assert_eq!(pooled.window, fresh.window, "beta {beta}");
                assert_eq!(pooled.max_depth, fresh.max_depth);
                assert_eq!(pooled.parent, fresh.parent);
                assert_eq!(pooled.depth, fresh.depth);
                assert_eq!(pooled.cluster, fresh.cluster);
                assert_eq!(pooled.down_slot, fresh.down_slot);
                assert_eq!(pooled.up_slot, fresh.up_slot);
                assert_eq!(pooled.depth_start, fresh.depth_start);
                assert_eq!(pooled.depth_nodes, fresh.depth_nodes);
                assert_eq!(pooled.down_order, fresh.down_order);
                assert_eq!(pooled.up_order, fresh.up_order);
                assert_eq!(pooled.down_runs, fresh.down_runs);
                assert_eq!(pooled.up_runs, fresh.up_runs);
                assert_eq!(pooled.child_start, fresh.child_start);
                assert_eq!(pooled.child_data, fresh.child_data);
                assert_eq!(pooled.overflow, fresh.overflow);
            }
        }
    }

    #[test]
    fn charged_cost_formula() {
        let g = generators::grid(8, 8);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let params = rn_sim::NetParams::of_graph(&g);
        assert_eq!(
            sched.charged_build_rounds(&params),
            (sched.max_depth() as u64 + 1) * sched.window() as u64 * params.log2_n() as u64
        );
    }
}
