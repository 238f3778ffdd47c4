use crate::params::{CompeteParams, SequenceScope};
use crate::precompute::{FineClustering, Precomputed};
use rand::rngs::SmallRng;
use rn_graph::NodeId;
use rn_sim::{rng, NodeValues, Protocol, Round, TxBuf, WordBitset};

/// Messages on the channel during Compete's propagation phase. Every message
/// names the clustering and cluster it belongs to, so receivers can filter
/// (intra-cluster propagation is per-cluster; cross-cluster transfer happens
/// across successive clusterings). The round a message travels in says which
/// process sent it, and so which clustering family `clustering` indexes: the
/// main process's fine clusterings or the background clusterings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompeteMsg {
    /// ICP schedule transmission (Algorithm 3 over Algorithm 1's fine
    /// clusterings or Algorithm 2's background clusterings).
    Sched {
        /// Index into the sending process's clusterings.
        clustering: u32,
        /// Cluster index within that clustering.
        cluster: u32,
        /// The message value being propagated.
        value: u64,
    },
    /// ICP background decay (Algorithm 4).
    Alg4 {
        /// Index into the sending process's clusterings.
        clustering: u32,
        /// Cluster index within that clustering.
        cluster: u32,
        /// The message value being propagated.
        value: u64,
    },
}

/// ICP phase geometry: where a within-slot position falls in the
/// down/up/down structure of Algorithm 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Down1(u64),
    Up(u64),
    Down2(u64),
    Idle,
}

fn icp_phase(pos: u64, pass: u64) -> Phase {
    if pos < pass {
        Phase::Down1(pos)
    } else if pos < 2 * pass {
        Phase::Up(pos - pass)
    } else if pos < 3 * pass {
        Phase::Down2(pos - 2 * pass)
    } else {
        Phase::Idle
    }
}

/// Stamped per-node scratch value (reset implicitly at each slot).
///
/// Callers stamp each slot with a value that is strictly monotone per
/// instance (slot indices derived from the round counter), so instead of a
/// per-node stamp array the scratch keeps one current stamp, a membership
/// bitset, and the list of touched nodes: rolling to a new stamp lazily
/// clears only the nodes actually written in the previous slot. A `get`
/// with any stamp other than the current one reads as unset — exactly the
/// behavior of the old per-node stamp compare under monotone stamps.
#[derive(Debug)]
struct Scratch {
    has: WordBitset,
    val: Vec<u64>,
    touched: Vec<NodeId>,
    cur_stamp: u64,
}

impl Default for Scratch {
    fn default() -> Scratch {
        // Real stamps are >= 1 (slot indices offset by one), so starting at
        // 0 means "no slot written yet".
        Scratch { has: WordBitset::new(0), val: Vec::new(), touched: Vec::new(), cur_stamp: 0 }
    }
}

impl Scratch {
    /// Back to the all-unset state for `n` nodes without dropping storage.
    /// Relies on the `has ⊆ touched` invariant (every set bit was pushed),
    /// so the sparse clear is exact; stale `val` entries are unobservable
    /// behind cleared bits.
    fn reset(&mut self, n: usize) {
        if self.val.len() != n {
            self.has.reset_capacity(n);
            self.has.clear_all();
            self.val.clear();
            self.val.resize(n, 0);
            self.touched.clear();
        } else {
            for &v in &self.touched {
                self.has.clear(v as usize);
            }
            self.touched.clear();
        }
        self.touched.reserve(n);
        self.cur_stamp = 0;
    }

    #[inline]
    fn roll(&mut self, stamp: u64) {
        if stamp != self.cur_stamp {
            for &v in &self.touched {
                self.has.clear(v as usize);
            }
            self.touched.clear();
            self.cur_stamp = stamp;
        }
    }

    #[inline]
    fn get(&self, v: NodeId, stamp: u64) -> Option<u64> {
        (stamp == self.cur_stamp && self.has.contains(v as usize)).then(|| self.val[v as usize])
    }

    #[inline]
    fn merge_max(&mut self, v: NodeId, stamp: u64, value: u64) {
        self.roll(stamp);
        let vi = v as usize;
        if self.has.set(vi) {
            self.val[vi] = value;
            self.touched.push(v);
        } else if self.val[vi] < value {
            self.val[vi] = value;
        }
    }
}

/// The main process's index in [`CompeteState`]'s process pair (the
/// background process is 1).
const MAIN: usize = 0;

/// Algorithm 4's coin salt per process.
const ALG4_SALT: [u64; 2] = [0xF1, 0xB6];

/// Process `p`'s clusterings, slot length and slot count: Algorithm 1's fine
/// clusterings over a `seq_len`-slot sequence, or Algorithm 2's background
/// clusterings without end.
fn family(pre: &Precomputed, p: usize) -> (&[FineClustering], u64, u64) {
    if p == MAIN {
        (&pre.fines, pre.main_slot_len, pre.seq_len)
    } else {
        (&pre.bg, pre.bg_slot_len, u64::MAX)
    }
}

/// One Compete process — Algorithm 1's main process or Algorithm 2's
/// background process — running one curtailed ICP (Algorithm 3) per slot
/// plus Algorithm 4's in-cluster decay over its clustering family.
#[derive(Debug, Default)]
struct Process {
    /// Current slot, the clustering each coarse cluster chose for it, and
    /// the distinct chosen clusterings.
    cur_slot: Option<u64>,
    chosen: Vec<u32>,
    active: Vec<u32>,
    /// The clustering each node's coarse cluster chose for the slot,
    /// `chosen[coarse_idx[v]]`, refreshed at every roll: one load for the
    /// sender and receiver filters.
    node_ci: Vec<u32>,

    /// Per-clustering count of knowing members per cluster, plus the list of
    /// clusters that have any knowledge (grow-only).
    knowing: Vec<Vec<u32>>,
    live: Vec<Vec<u32>>,
    /// Per clustering, the coarse cluster of each cluster's center, and
    /// Algorithm 4's candidates: the live clusters whose coarse cluster
    /// chose that clustering for the slot, in `live` order. Rebuilt at every
    /// roll; a cluster joins when it goes live.
    center_cc: Vec<Vec<u32>>,
    eligible: Vec<Vec<u32>>,

    /// Scratch of the three ICP passes: downcast, upcast, second downcast.
    down: Scratch,
    up: Scratch,
    down2: Scratch,

    /// `(clustering index, cluster index)` pairs participating in the
    /// current Algorithm 4 block, and the `(slot, block)` key they were
    /// drawn for.
    alg4: Vec<(u32, u32)>,
    alg4_key: Option<(u64, u64)>,
}

impl Process {
    /// Back to the start-of-trial state over `clusterings` within the
    /// coarse clustering `pre`. Per-clustering tables are re-sized to the
    /// current cluster counts with worst-case (`n`) reservations, so
    /// cluster-count changes between trials never reallocate.
    fn reset(&mut self, clusterings: &[FineClustering], pre: &Precomputed) {
        let n = pre.net.n();
        self.cur_slot = None;
        self.chosen.clear();
        self.chosen.reserve(n);
        self.chosen.resize(pre.coarse.num_clusters(), 0);
        self.active.clear();
        self.active.reserve(clusterings.len());
        self.node_ci.clear();
        self.node_ci.resize(n, 0);

        let k = clusterings.len();
        for table in [&mut self.knowing, &mut self.live, &mut self.center_cc, &mut self.eligible] {
            table.truncate(k);
            table.resize_with(k, Vec::new);
        }
        for (i, f) in clusterings.iter().enumerate() {
            self.knowing[i].clear();
            self.knowing[i].reserve(n);
            self.knowing[i].resize(f.partition.num_clusters(), 0);
            self.live[i].clear();
            self.live[i].reserve(n);
            self.center_cc[i].clear();
            self.center_cc[i].reserve(n);
            self.center_cc[i]
                .extend(f.partition.centers().iter().map(|&c| pre.coarse_idx[c as usize]));
            self.eligible[i].clear();
            self.eligible[i].reserve(n);
        }

        self.down.reset(n);
        self.up.reset(n);
        self.down2.reset(n);

        self.alg4.clear();
        self.alg4.reserve(n);
        self.alg4_key = None;
    }
}

/// All per-trial mutable state of [`CompeteProtocol`], separated from the
/// borrowed [`Precomputed`] so trial loops keep one `CompeteState` alive
/// across trials: [`CompeteProtocol::reuse`] borrows it for one trial and
/// [`CompeteState::reset`]s it to the instance, reusing every buffer. Start
/// from `CompeteState::default()`. After the first trial on a given
/// `(graph, params)` pair, resets perform no heap allocation.
///
/// The main and background processes are two instances of one process
/// type (slot, per-coarse choices, per-cluster knowledge counts, ICP pass
/// scratch, Algorithm 4 participation); node knowledge is one
/// [`NodeValues`] both share.
#[derive(Debug)]
pub struct CompeteState {
    know: NodeValues,
    target: u64,
    num_know_target: usize,

    /// The main and background processes, indexed by the process number
    /// the round routes to.
    procs: [Process; 2],

    /// Algorithm 4's member coins, shared by both processes and drawn in
    /// round order, and `ln(1 − 2^-(s+1))` for each sub-block `s`: the
    /// coins' transmit probabilities as the geometric skip reads them.
    rng: SmallRng,
    scratch_idx: Vec<usize>,
    ln_q_tx: Vec<f64>,
}

impl Default for CompeteState {
    /// The empty shell trial loops start from; [`CompeteState::reset`] (run
    /// by [`CompeteProtocol::reuse`] for every trial) grows it to the
    /// instance.
    fn default() -> CompeteState {
        CompeteState {
            know: NodeValues::new(0),
            target: 0,
            num_know_target: 0,
            procs: Default::default(),
            rng: rng::rng_from_seed(0),
            scratch_idx: Vec::new(),
            ln_q_tx: Vec::new(),
        }
    }
}

impl CompeteState {
    /// Restores the exact start-of-trial state for a (possibly different)
    /// precompute, seed, and source set, reusing all buffers: whatever ran
    /// before, the trial is byte-identical to one from an empty shell.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an out-of-range node.
    pub fn reset(&mut self, pre: &Precomputed, sources: &[(NodeId, u64)], seed: u64) {
        assert!(!sources.is_empty(), "Compete needs at least one source");
        let n = pre.net.n();
        self.know.reset(n);
        let target = sources.iter().map(|&(_, v)| v).max().expect("nonempty");
        for &(s, v) in sources {
            assert!((s as usize) < n, "source {s} out of range");
            self.know.merge_max(s, v);
        }
        self.target = target;
        self.num_know_target =
            (0..n as NodeId).filter(|&v| self.know.get(v).is_some_and(|x| x >= target)).count();

        for (p, proc) in self.procs.iter_mut().enumerate() {
            proc.reset(family(pre, p).0, pre);
        }

        self.rng = rng::stream_rng(seed, 0xC0);
        self.scratch_idx.clear();
        self.scratch_idx.reserve(n);
        self.ln_q_tx.clear();
        self.ln_q_tx.extend((0..pre.net.log2_n() as i32).map(|s| (1.0 - 2f64.powi(-(s + 1))).ln()));

        // Register initial knowledge in the per-cluster counters.
        for v in 0..n as u32 {
            if self.know.is_informed(v) {
                self.register_knowing(pre, v);
            }
        }
    }

    fn register_knowing(&mut self, pre: &Precomputed, v: NodeId) {
        for (p, proc) in self.procs.iter_mut().enumerate() {
            for (ci, clustering) in family(pre, p).0.iter().enumerate() {
                let c = clustering.partition.cluster_index(v) as usize;
                if proc.knowing[ci][c] == 0 {
                    proc.live[ci].push(c as u32);
                    if proc.chosen[proc.center_cc[ci][c] as usize] == ci as u32 {
                        proc.eligible[ci].push(c as u32);
                    }
                }
                proc.knowing[ci][c] += 1;
            }
        }
    }

    fn learn(&mut self, pre: &Precomputed, v: NodeId, value: u64) {
        let old = self.know.get(v);
        if old.is_some_and(|o| o >= value) {
            return; // nothing to merge, register or count
        }
        if self.know.merge_max(v, value) {
            self.register_knowing(pre, v);
        }
        if old.is_none_or(|o| o < self.target) && value >= self.target {
            self.num_know_target += 1;
        }
    }

    /// Moves process `p` to `slot`. Each coarse cluster picks its
    /// clustering: the main process draws from that coarse cluster's
    /// sequence (or takes the one global pick under
    /// [`SequenceScope::Global`]); the background process round-robins.
    fn roll_slot(
        &mut self,
        pre: &Precomputed,
        params: &CompeteParams,
        seed: u64,
        p: usize,
        slot: u64,
    ) {
        let proc = &mut self.procs[p];
        proc.cur_slot = Some(slot);
        if p != MAIN {
            proc.chosen.fill((slot % pre.bg.len() as u64) as u32);
        } else {
            let nf = pre.fines.len() as u64;
            match params.sequence_scope {
                SequenceScope::PerCoarseCluster => {
                    for (cc, c) in proc.chosen.iter_mut().enumerate() {
                        let r = rng::derive(rng::derive(seed, 0xA11CE ^ cc as u64), slot);
                        *c = (r % nf) as u32;
                    }
                }
                SequenceScope::Global => {
                    proc.chosen.fill((rng::derive(seed, 0xA11CE ^ slot) % nf) as u32);
                }
            }
        }
        proc.active.clear();
        for &f in &proc.chosen {
            if !proc.active.contains(&f) {
                proc.active.push(f);
            }
        }
        for (ci, &cc) in proc.node_ci.iter_mut().zip(&pre.coarse_idx) {
            *ci = proc.chosen[cc as usize];
        }
        for list in &mut proc.eligible {
            list.clear();
        }
        for &ci in &proc.active {
            let (chosen, center_cc) = (&proc.chosen, &proc.center_cc[ci as usize]);
            let live = proc.live[ci as usize].iter().copied();
            proc.eligible[ci as usize]
                .extend(live.filter(|&c| chosen[center_cc[c as usize] as usize] == ci));
        }
    }

    /// Executes the schedule step `r` routes to: the current ICP pass of
    /// every clustering some coarse cluster chose for the slot.
    fn sched_transmit(
        &mut self,
        pre: &Precomputed,
        params: &CompeteParams,
        seed: u64,
        r: Route,
        tx: &mut TxBuf<CompeteMsg>,
    ) {
        let Route { p, slot, pos, .. } = r;
        let (clusterings, _, slots) = family(pre, p);
        if slot >= slots {
            return; // sequence exhausted (Algorithm 1's fixed budget)
        }
        if self.procs[p].cur_slot != Some(slot) {
            self.roll_slot(pre, params, seed, p, slot);
        }
        let stamp = slot + 1;
        for &ci in &self.procs[p].active {
            let fine = &clusterings[ci as usize];
            match icp_phase(pos, fine.pass_len) {
                Phase::Down1(q) => self.down_transmit(p, ci, fine, q, stamp, false, tx),
                Phase::Up(q) => self.up_transmit(p, ci, fine, q, stamp, tx),
                Phase::Down2(q) => self.down_transmit(p, ci, fine, q, stamp, true, tx),
                Phase::Idle => {}
            }
        }
    }

    /// A downcast step (`second_pass` selects the post-upcast repeat).
    #[allow(clippy::too_many_arguments)]
    fn down_transmit(
        &self,
        p: usize,
        ci: u32,
        fine: &FineClustering,
        ppos: u64,
        stamp: u64,
        second_pass: bool,
        tx: &mut TxBuf<CompeteMsg>,
    ) {
        let proc = &self.procs[p];
        let w = fine.schedule.window() as u64;
        let window = (ppos / w) as u32;
        let slot_in = (ppos % w) as u32;
        let pass = if second_pass { &proc.down2 } else { &proc.down };
        for &u in fine.schedule.down_senders(window, slot_in) {
            if proc.node_ci[u as usize] != ci {
                continue;
            }
            let value = if window == 0 { self.know.get(u) } else { pass.get(u, stamp) };
            if let Some(v) = value {
                let cluster = fine.schedule.cluster(u);
                tx.send(u, CompeteMsg::Sched { clustering: ci, cluster, value: v });
            }
        }
    }

    /// An upcast step: deepest layers first, values aggregated via scratch.
    fn up_transmit(
        &self,
        p: usize,
        ci: u32,
        fine: &FineClustering,
        ppos: u64,
        stamp: u64,
        tx: &mut TxBuf<CompeteMsg>,
    ) {
        let proc = &self.procs[p];
        let w = fine.schedule.window() as u64;
        let window = (ppos / w) as u32;
        let slot_in = (ppos % w) as u32;
        let top = fine.radius.min(fine.schedule.max_depth());
        if window > top {
            return;
        }
        let depth = top - window;
        if depth == 0 {
            return; // centers do not transmit upward
        }
        for &u in fine.schedule.up_senders(depth, slot_in) {
            if proc.node_ci[u as usize] != ci {
                continue;
            }
            // Aggregated value from children plus own participation:
            // a node participates if it knows a message strictly higher than
            // what the first downcast delivered to it (Algorithm 3 step 2).
            let aggregated = proc.up.get(u, stamp);
            let own = match (self.know.get(u), proc.down.get(u, stamp)) {
                (Some(k), Some(d)) if k > d => Some(k),
                (Some(k), None) => Some(k),
                _ => None,
            };
            let value = match (aggregated, own) {
                (Some(a), Some(o)) => Some(a.max(o)),
                (Some(a), None) => Some(a),
                (None, Some(o)) => Some(o),
                (None, None) => None,
            };
            if let Some(v) = value {
                let cluster = fine.schedule.cluster(u);
                tx.send(u, CompeteMsg::Sched { clustering: ci, cluster, value: v });
            }
        }
    }

    /// One Algorithm-4 decay step of process `p`.
    fn alg4_transmit(
        &mut self,
        pre: &Precomputed,
        seed: u64,
        log_n: u64,
        p: usize,
        step: u64,
        tx: &mut TxBuf<CompeteMsg>,
    ) {
        let block = step / log_n;
        let sblock = step % log_n;
        let i = (block % log_n) as i32 + 1;
        let clusterings = family(pre, p).0;
        let proc = &mut self.procs[p];

        // The participants are redrawn per block, and whenever the slot
        // (and with it the chosen clusterings) moves.
        let key = Some((proc.cur_slot.unwrap_or(0), block));
        if proc.alg4_key != key {
            let p_participate = (2.0f64).powi(-i);
            proc.alg4.clear();
            for &ci in &proc.active {
                // Only clusters whose coarse cluster chose this clustering
                // take part: the eligible list, kept in `live` order.
                let eligible = &proc.eligible[ci as usize];
                debug_assert!(
                    eligible.iter().eq(proc.live[ci as usize].iter().filter(|&&c| {
                        let center = clusterings[ci as usize].partition.centers()[c as usize];
                        proc.chosen[pre.coarse_idx[center as usize] as usize] == ci
                    })),
                    "eligible clusters of clustering {ci} drifted from the live ones chosen"
                );
                let base = rng::derive(seed, ALG4_SALT[p] ^ ci as u64);
                for &c in eligible {
                    let coin = rng::derive(rng::derive(base, c as u64), block);
                    if (coin as f64 / u64::MAX as f64) < p_participate {
                        proc.alg4.push((ci, c));
                    }
                }
            }
            proc.alg4_key = key;
        }

        let ln_q = self.ln_q_tx[sblock as usize];
        for &(ci, c) in &proc.alg4 {
            let members = clusterings[ci as usize].partition.members(c);
            self.scratch_idx.clear();
            rng::bernoulli_indices_ln_q(&mut self.rng, members.len(), ln_q, &mut self.scratch_idx);
            for &mi in &self.scratch_idx {
                let u = members[mi];
                if let Some(v) = self.know.get(u) {
                    tx.send(u, CompeteMsg::Alg4 { clustering: ci, cluster: c, value: v });
                }
            }
        }
    }

    /// A schedule message delivered in the schedule step `r` routes to.
    fn deliver_sched(
        &mut self,
        pre: &Precomputed,
        r: Route,
        node: NodeId,
        ci: u32,
        cluster: u32,
        value: u64,
    ) {
        let Route { p, slot, pos, .. } = r;
        let proc = &mut self.procs[p];
        // The receiver must currently be using the same clustering.
        if proc.cur_slot != Some(slot) || proc.node_ci[node as usize] != ci {
            return;
        }
        let fine = &family(pre, p).0[ci as usize];
        if fine.schedule.cluster(node) != cluster {
            return;
        }
        if fine.schedule.depth(node) > fine.radius {
            return; // curtailment
        }
        let stamp = slot + 1;
        match icp_phase(pos, fine.pass_len) {
            Phase::Down1(_) => proc.down.merge_max(node, stamp, value),
            Phase::Up(_) => proc.up.merge_max(node, stamp, value),
            Phase::Down2(_) => proc.down2.merge_max(node, stamp, value),
            Phase::Idle => return,
        }
        self.learn(pre, node, value);
    }
}

/// The Compete propagation protocol (Algorithms 1–4 combined):
///
/// * global even rounds run the **main process**, odd rounds the
///   **background process** (Algorithm 2), exactly the paper's interleaving;
/// * within each process, even sub-rounds execute the current Intra-Cluster
///   Propagation schedule step and odd sub-rounds the ICP **background
///   decay** (Algorithm 4);
/// * the main process consumes, per coarse cluster, a random sequence of
///   fine clusterings (Algorithm 1 steps 5–7), executing one curtailed ICP
///   (down/up/down, Algorithm 3) per sequence element;
/// * the background process round-robins over its global clusterings.
///
/// Both processes are one process type run twice, differing only in data:
/// clusterings, slot length and count, the per-slot choice, and the
/// Algorithm 4 coin salt. The round decides which process runs, and so
/// which clustering family a [`CompeteMsg`]'s `clustering` index refers
/// to; every step has one implementation.
///
/// The per-node state is the highest message known (`know`); completion is
/// every node knowing the highest source message. All of that mutable state
/// lives in a borrowed [`CompeteState`], so repeated trials are
/// allocation-free.
#[derive(Debug)]
pub struct CompeteProtocol<'p> {
    pre: &'p Precomputed,
    params: CompeteParams,
    seed: u64,
    log_n: u64,
    st: &'p mut CompeteState,
    /// The last round routed: `transmit` routes each round once, and its
    /// deliveries read the result.
    route: Route,
}

/// Where a protocol-local round falls: its process (0 = main, 1 =
/// background), whether it is an Algorithm 4 decay step or a schedule step,
/// the step index within that kind, and for a schedule step its slot and
/// position in the slot.
#[derive(Debug, Clone, Copy)]
struct Route {
    round: Round,
    p: usize,
    alg4: bool,
    step: u64,
    slot: u64,
    pos: u64,
}

impl<'p> CompeteProtocol<'p> {
    /// Creates the propagation protocol with the given informed `sources`
    /// over `state`, which is reset to the instance first (so any earlier
    /// trial in it is unobservable) while keeping its buffers.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an out-of-range node.
    pub fn reuse(
        pre: &'p Precomputed,
        params: CompeteParams,
        sources: &[(NodeId, u64)],
        seed: u64,
        state: &'p mut CompeteState,
    ) -> CompeteProtocol<'p> {
        state.reset(pre, sources, seed);
        let route = Route::of(pre, &params, 0);
        CompeteProtocol { pre, params, seed, log_n: pre.net.log2_n() as u64, st: state, route }
    }

    /// Highest message known by `node`.
    pub fn value_of(&self, node: NodeId) -> Option<u64> {
        self.st.know.get(node)
    }

    /// Whether every node knows the highest source message.
    pub fn all_know_target(&self) -> bool {
        self.st.num_know_target == self.st.know.len()
    }

    /// Number of nodes that know the highest source message.
    pub fn num_knowing(&self) -> usize {
        self.st.num_know_target
    }

    /// The highest source message (the value Compete must spread).
    pub fn target(&self) -> u64 {
        self.st.target
    }

    /// The route of `round`, computed once per round: deliveries of the
    /// round `transmit` routed read it back.
    fn routed(&mut self, round: Round) -> Route {
        if self.route.round != round {
            self.route = Route::of(self.pre, &self.params, round);
        }
        self.route
    }
}

impl Route {
    /// Routes protocol-local round `m`.
    fn of(pre: &Precomputed, params: &CompeteParams, m: Round) -> Route {
        let (p, sub) =
            if params.background_process { ((m % 2) as usize, m / 2) } else { (MAIN, m) };
        let (alg4, step) =
            if params.icp_background { (sub % 2 == 1, sub / 2) } else { (false, sub) };
        let (slot, pos) = if alg4 {
            (0, 0)
        } else {
            let slot_len = family(pre, p).1;
            (step / slot_len, step % slot_len)
        };
        Route { round: m, p, alg4, step, slot, pos }
    }
}

impl Protocol for CompeteProtocol<'_> {
    type Msg = CompeteMsg;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<CompeteMsg>) {
        let r = self.routed(round);
        let (pre, seed) = (self.pre, self.seed);
        if r.alg4 {
            self.st.alg4_transmit(pre, seed, self.log_n, r.p, r.step, tx);
        } else {
            self.st.sched_transmit(pre, &self.params, seed, r, tx);
        }
    }

    fn deliver(&mut self, round: Round, node: NodeId, _from: NodeId, msg: &CompeteMsg) {
        let r = self.routed(round);
        let pre = self.pre;
        match (*msg, r.alg4) {
            (CompeteMsg::Sched { clustering, cluster, value }, false) => {
                self.st.deliver_sched(pre, r, node, clustering, cluster, value)
            }
            (CompeteMsg::Alg4 { clustering, cluster, value }, true) => {
                // Accept if the node's coarse cluster currently uses this
                // clustering and the cluster matches — or unconditionally
                // when foreign values are merged (they are true source
                // messages; see `CompeteParams::alg4_accept_foreign`).
                let clusterings = family(pre, r.p).0;
                if self.params.alg4_accept_foreign
                    || (self.st.procs[r.p].node_ci[node as usize] == clustering
                        && clusterings[clustering as usize].partition.cluster_index(node)
                            == cluster)
                {
                    self.st.learn(pre, node, value);
                }
            }
            // Message kind arriving on the wrong sub-round: the transmission
            // was triggered by the matching kind, so this cannot happen.
            _ => {}
        }
    }

    fn done(&self, _round: Round) -> bool {
        self.all_know_target()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CompeteParams;
    use crate::precompute::Precomputed;
    use rn_graph::generators;
    use rn_sim::{CollisionModel, NetParams, Simulator};

    fn run_broadcast(g: &rn_graph::Graph, seed: u64, params: CompeteParams) -> (bool, u64) {
        let net = NetParams::of_graph(g);
        let pre = Precomputed::build(g, net, &params, seed);
        let mut state = CompeteState::default();
        let mut proto = CompeteProtocol::reuse(&pre, params, &[(0, 42)], seed, &mut state);
        let mut sim = Simulator::new(g, CollisionModel::NoCollisionDetection, seed);
        let stats = sim.run(&mut proto, params.max_rounds(&net));
        (proto.all_know_target(), stats.rounds)
    }

    #[test]
    fn phase_geometry() {
        assert_eq!(icp_phase(0, 10), Phase::Down1(0));
        assert_eq!(icp_phase(9, 10), Phase::Down1(9));
        assert_eq!(icp_phase(10, 10), Phase::Up(0));
        assert_eq!(icp_phase(25, 10), Phase::Down2(5));
        assert_eq!(icp_phase(30, 10), Phase::Idle);
    }

    #[test]
    fn completes_on_small_grid() {
        let g = generators::grid(8, 8);
        let (ok, rounds) = run_broadcast(&g, 3, CompeteParams::default());
        assert!(ok, "broadcast did not complete in {rounds} rounds");
    }

    #[test]
    fn completes_on_path() {
        let g = generators::path(96);
        let (ok, rounds) = run_broadcast(&g, 5, CompeteParams::default());
        assert!(ok, "broadcast did not complete in {rounds} rounds");
    }

    #[test]
    fn reused_state_replays_fresh_runs_exactly() {
        // One CompeteState across graphs and seeds: every reused run must
        // report the same completion round and per-node values as a run on
        // a cold `CompeteState::default()`.
        let graphs = [generators::grid(8, 8), generators::path(60)];
        let params = CompeteParams::default();
        let mut warm = CompeteState::default();
        for g in &graphs {
            let net = NetParams::of_graph(g);
            for seed in 0..3u64 {
                let pre = Precomputed::build(g, net, &params, seed);
                let mut cold_state = CompeteState::default();
                let mut cold =
                    CompeteProtocol::reuse(&pre, params, &[(0, 42)], seed, &mut cold_state);
                let mut sim = Simulator::new(g, CollisionModel::NoCollisionDetection, seed);
                let cold_stats = sim.run(&mut cold, params.max_rounds(&net));

                let mut pooled = CompeteProtocol::reuse(&pre, params, &[(0, 42)], seed, &mut warm);
                let mut sim = Simulator::new(g, CollisionModel::NoCollisionDetection, seed);
                let pooled_stats = sim.run(&mut pooled, params.max_rounds(&net));

                assert_eq!(cold_stats.rounds, pooled_stats.rounds, "seed {seed}");
                assert_eq!(cold.num_knowing(), pooled.num_knowing());
                for v in g.nodes() {
                    assert_eq!(cold.value_of(v), pooled.value_of(v), "node {v} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn completes_without_compete_background_inside_one_coarse_cluster() {
        // Fine clusterings live strictly inside coarse clusters, so the main
        // process can never cross a coarse boundary — crossing is the
        // background process's entire job (the paper analyzes bad subpaths
        // with "only the background process", Lemma 4.5). With a single
        // coarse cluster, main + Algorithm 4 must complete on their own.
        let g = generators::grid(8, 8);
        let params = CompeteParams {
            background_process: false,
            coarse_beta_exp: 4.0, // β_c = D^-4: one giant coarse cluster
            ..CompeteParams::default()
        };
        let net = NetParams::of_graph(&g);
        let pre = Precomputed::build(&g, net, &params, 7);
        assert_eq!(pre.coarse.num_clusters(), 1, "test needs a single coarse cluster");
        let mut state = CompeteState::default();
        let mut proto = CompeteProtocol::reuse(&pre, params, &[(0, 42)], 7, &mut state);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 7);
        let stats = sim.run(&mut proto, params.max_rounds(&net));
        assert!(proto.all_know_target(), "did not complete in {} rounds", stats.rounds);
    }

    #[test]
    fn main_process_fills_the_source_coarse_cluster() {
        // With BOTH background processes off, the main process must inform
        // (at least) the source's entire coarse cluster — and, since fine
        // clusters cannot span coarse boundaries, nothing outside it.
        let g = generators::grid(8, 8);
        let params = CompeteParams {
            background_process: false,
            icp_background: false,
            ..CompeteParams::default()
        };
        let net = NetParams::of_graph(&g);
        let pre = Precomputed::build(&g, net, &params, 7);
        let source: NodeId = 0;
        let cc = pre.coarse.cluster_index(source);
        let coarse_size = pre.coarse.members(cc).len();
        let mut state = CompeteState::default();
        let mut proto = CompeteProtocol::reuse(&pre, params, &[(source, 42)], 7, &mut state);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 7);
        sim.run(&mut proto, 200_000);
        let knowing = proto.num_knowing();
        assert!(
            knowing >= coarse_size * 3 / 4,
            "main process informed {knowing} < 3/4 of the coarse cluster ({coarse_size})"
        );
        for v in g.nodes() {
            if proto.value_of(v).is_some() {
                assert_eq!(
                    pre.coarse.cluster_index(v),
                    cc,
                    "knowledge escaped the coarse cluster without the background process"
                );
            }
        }
    }

    #[test]
    fn multi_source_highest_wins() {
        let g = generators::grid(8, 8);
        let params = CompeteParams::default();
        let net = NetParams::of_graph(&g);
        let pre = Precomputed::build(&g, net, &params, 9);
        let sources = vec![(0 as NodeId, 10u64), (63, 99), (32, 50)];
        let mut state = CompeteState::default();
        let mut proto = CompeteProtocol::reuse(&pre, params, &sources, 9, &mut state);
        assert_eq!(proto.target(), 99);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 9);
        sim.run(&mut proto, params.max_rounds(&net));
        assert!(proto.all_know_target());
        for v in g.nodes() {
            assert_eq!(proto.value_of(v), Some(99));
        }
    }

    #[test]
    fn single_node_network_is_trivially_done() {
        let g = rn_graph::Graph::from_edges(1, &[]).unwrap();
        let net = NetParams::of_graph(&g);
        let params = CompeteParams::default();
        let pre = Precomputed::build(&g, net, &params, 1);
        let mut state = CompeteState::default();
        let proto = CompeteProtocol::reuse(&pre, params, &[(0, 5)], 1, &mut state);
        assert!(proto.all_know_target());
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_rejected() {
        let g = generators::path(4);
        let net = NetParams::of_graph(&g);
        let params = CompeteParams::default();
        let pre = Precomputed::build(&g, net, &params, 1);
        let mut state = CompeteState::default();
        let _ = CompeteProtocol::reuse(&pre, params, &[], 1, &mut state);
    }

    #[test]
    fn knowledge_only_grows() {
        let g = generators::grid(6, 6);
        let net = NetParams::of_graph(&g);
        let params = CompeteParams::default();
        let pre = Precomputed::build(&g, net, &params, 2);
        let mut state = CompeteState::default();
        let mut proto = CompeteProtocol::reuse(&pre, params, &[(0, 7)], 2, &mut state);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 2);
        let mut last = proto.num_knowing();
        for _ in 0..50 {
            sim.run(&mut proto, 100);
            let now = proto.num_knowing();
            assert!(now >= last, "knowledge must be monotone");
            last = now;
            if proto.all_know_target() {
                break;
            }
        }
    }
}
