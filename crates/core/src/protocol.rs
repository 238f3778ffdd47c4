use crate::params::{CompeteParams, SequenceScope};
use crate::precompute::{FineClustering, Precomputed};
use rand::rngs::SmallRng;
use rn_graph::NodeId;
use rn_sim::{rng, Protocol, Round, TxBuf, WordBitset};

/// Per-node knowledge in struct-of-arrays form: membership as one bit per
/// node plus a dense value word, instead of a `Vec<Option<u64>>` — half the
/// memory (8 B + 1 bit vs 16 B per node) and a branch-free value read on
/// the propagation hot paths.
#[derive(Debug)]
struct KnowTable {
    informed: WordBitset,
    val: Vec<u64>,
}

impl KnowTable {
    fn new(n: usize) -> KnowTable {
        KnowTable { informed: WordBitset::new(n), val: vec![0; n] }
    }

    /// Back to all-uninformed for `n` nodes, reusing the backing storage.
    /// Stale values behind cleared bits are unobservable (`get` gates on
    /// the bit).
    fn reset(&mut self, n: usize) {
        self.informed.reset_capacity(n);
        self.informed.clear_all();
        if self.val.len() != n {
            self.val.clear();
            self.val.resize(n, 0);
        }
    }

    fn n(&self) -> usize {
        self.val.len()
    }

    #[inline]
    fn get(&self, v: NodeId) -> Option<u64> {
        self.informed.contains(v as usize).then(|| self.val[v as usize])
    }

    /// Stores `value` for `v`; returns `true` iff `v` was previously
    /// uninformed. Callers own the max-merge policy.
    #[inline]
    fn set(&mut self, v: NodeId, value: u64) -> bool {
        self.val[v as usize] = value;
        self.informed.set(v as usize)
    }
}

/// Messages on the channel during Compete's propagation phase. Every message
/// names the clustering and cluster it belongs to, so receivers can filter
/// (intra-cluster propagation is per-cluster; cross-cluster transfer happens
/// across successive clusterings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompeteMsg {
    /// Main-process ICP schedule transmission (Algorithm 3 over Algorithm 1's
    /// fine clusterings).
    Sched {
        /// Index into the precomputed fine clusterings.
        fine: u32,
        /// Cluster index within that clustering.
        cluster: u32,
        /// The message value being propagated.
        value: u64,
    },
    /// Main-process ICP background decay (Algorithm 4).
    Alg4 {
        /// Index into the precomputed fine clusterings.
        fine: u32,
        /// Cluster index within that clustering.
        cluster: u32,
        /// The message value being propagated.
        value: u64,
    },
    /// Background-process ICP schedule transmission (Algorithm 2).
    BgSched {
        /// Index into the background clusterings.
        bg: u32,
        /// Cluster index within that clustering.
        cluster: u32,
        /// The message value being propagated.
        value: u64,
    },
    /// Background-process ICP decay (Algorithm 4 under Algorithm 2).
    BgAlg4 {
        /// Index into the background clusterings.
        bg: u32,
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

impl Scratch {
    fn new(n: usize) -> Scratch {
        // Real stamps are >= 1 (slot indices offset by one), so starting at
        // 0 means "no slot written yet".
        Scratch { has: WordBitset::new(n), val: vec![0; n], touched: Vec::new(), cur_stamp: 0 }
    }

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

/// Per-process Algorithm 4 state: which clusters participate in the current
/// decay block.
#[derive(Debug, Default)]
struct Alg4State {
    /// `(clustering index, cluster index)` pairs participating this block.
    participating: Vec<(u32, u32)>,
    /// Key identifying the block the list was computed for.
    key: Option<(u64, u64)>, // (slot-scope, block)
}

impl Alg4State {
    fn reset(&mut self) {
        self.participating.clear();
        self.key = None;
    }
}

/// All owned, per-trial mutable state of [`CompeteProtocol`], separated from
/// the borrowed [`Precomputed`] so pooled trial loops can keep one
/// `CompeteState` alive across trials: [`CompeteState::reset`] restores the
/// exact post-construction state while reusing every buffer, and
/// [`CompeteProtocol::reuse`] wraps it for one trial. After the first trial
/// on a given `(graph, params)` pair, resets perform no heap allocation.
#[derive(Debug)]
pub struct CompeteState {
    know: KnowTable,
    target: u64,
    num_know_target: usize,

    /// Current main-process slot and the fine clustering chosen by each
    /// coarse cluster for it.
    cur_slot: Option<u64>,
    chosen: Vec<u32>,
    active_fines: Vec<u32>,

    /// Per-fine count of knowing members per cluster, plus the list of
    /// clusters that have any knowledge (grow-only).
    fine_knowing: Vec<Vec<u32>>,
    fine_live: Vec<Vec<u32>>,
    bg_knowing: Vec<Vec<u32>>,
    bg_live: Vec<Vec<u32>>,

    // Main ICP scratch.
    m_down: Scratch,
    m_up: Scratch,
    m_down2: Scratch,
    // Background ICP scratch.
    b_down: Scratch,
    b_up: Scratch,
    b_down2: Scratch,

    alg4_main: Alg4State,
    alg4_bg: Alg4State,

    rng: SmallRng,
    scratch_idx: Vec<usize>,
}

impl Default for CompeteState {
    /// The empty shell pools start from; [`CompeteState::reset`] (run by
    /// every constructor and every pooled trial) grows it to the instance.
    fn default() -> CompeteState {
        CompeteState {
            know: KnowTable::new(0),
            target: 0,
            num_know_target: 0,
            cur_slot: None,
            chosen: Vec::new(),
            active_fines: Vec::new(),
            fine_knowing: Vec::new(),
            fine_live: Vec::new(),
            bg_knowing: Vec::new(),
            bg_live: Vec::new(),
            m_down: Scratch::new(0),
            m_up: Scratch::new(0),
            m_down2: Scratch::new(0),
            b_down: Scratch::new(0),
            b_up: Scratch::new(0),
            b_down2: Scratch::new(0),
            alg4_main: Alg4State::default(),
            alg4_bg: Alg4State::default(),
            rng: rng::rng_from_seed(0),
            scratch_idx: Vec::new(),
        }
    }
}

impl CompeteState {
    /// Fresh state for one trial (equivalent to `reset` on an empty shell —
    /// there is exactly one initialization code path).
    pub fn new(pre: &Precomputed, sources: &[(NodeId, u64)], seed: u64) -> CompeteState {
        let mut st = CompeteState::default();
        st.reset(pre, sources, seed);
        st
    }

    /// Restores the exact post-[`CompeteState::new`] state for a (possibly
    /// different) precompute, seed, and source set, reusing all buffers.
    /// Per-fine tables are re-sized to the new cluster counts with
    /// worst-case (`n`) reservations, so steady-state resets are
    /// allocation-free even though cluster counts vary by seed.
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
            let merged = self.know.get(s).map_or(v, |old| old.max(v));
            self.know.set(s, merged);
        }
        self.target = target;
        self.num_know_target =
            (0..n as NodeId).filter(|&v| self.know.get(v).is_some_and(|x| x >= target)).count();

        self.cur_slot = None;
        self.chosen.clear();
        self.chosen.reserve(n);
        self.chosen.resize(pre.coarse.num_clusters(), 0);
        self.active_fines.clear();
        self.active_fines.reserve(pre.fines.len());

        reset_cluster_tables(&mut self.fine_knowing, &mut self.fine_live, &pre.fines, n);
        reset_cluster_tables(&mut self.bg_knowing, &mut self.bg_live, &pre.bg, n);

        self.m_down.reset(n);
        self.m_up.reset(n);
        self.m_down2.reset(n);
        self.b_down.reset(n);
        self.b_up.reset(n);
        self.b_down2.reset(n);

        self.alg4_main.reset();
        self.alg4_main.participating.reserve(n);
        self.alg4_bg.reset();
        self.alg4_bg.participating.reserve(n);

        self.rng = rng::stream_rng(seed, 0xC0);
        self.scratch_idx.clear();
        self.scratch_idx.reserve(n);

        // Register initial knowledge in the per-cluster counters.
        for v in 0..n as u32 {
            if self.know.get(v).is_some() {
                self.register_knowing(pre, v);
            }
        }
    }

    fn register_knowing(&mut self, pre: &Precomputed, v: NodeId) {
        for (fi, fine) in pre.fines.iter().enumerate() {
            let c = fine.partition.cluster_index(v) as usize;
            if self.fine_knowing[fi][c] == 0 {
                self.fine_live[fi].push(c as u32);
            }
            self.fine_knowing[fi][c] += 1;
        }
        for (bi, bg) in pre.bg.iter().enumerate() {
            let c = bg.partition.cluster_index(v) as usize;
            if self.bg_knowing[bi][c] == 0 {
                self.bg_live[bi].push(c as u32);
            }
            self.bg_knowing[bi][c] += 1;
        }
    }

    fn learn(&mut self, pre: &Precomputed, v: NodeId, value: u64) {
        let old = self.know.get(v);
        let new = old.map_or(value, |o| o.max(value));
        if old == Some(new) {
            return;
        }
        self.know.set(v, new);
        if old.is_none() {
            self.register_knowing(pre, v);
        }
        if old.is_none_or(|o| o < self.target) && new >= self.target {
            self.num_know_target += 1;
        }
    }

    fn roll_slot(&mut self, pre: &Precomputed, params: &CompeteParams, seed: u64, slot: u64) {
        if self.cur_slot == Some(slot) {
            return;
        }
        self.cur_slot = Some(slot);
        let nf = pre.fines.len() as u64;
        match params.sequence_scope {
            SequenceScope::PerCoarseCluster => {
                for cc in 0..self.chosen.len() {
                    let r = rng::derive(rng::derive(seed, 0xA11CE ^ cc as u64), slot);
                    self.chosen[cc] = (r % nf) as u32;
                }
            }
            SequenceScope::Global => {
                let pick = (rng::derive(seed, 0xA11CE ^ slot) % nf) as u32;
                for c in self.chosen.iter_mut() {
                    *c = pick;
                }
            }
        }
        self.active_fines.clear();
        for i in 0..self.chosen.len() {
            let f = self.chosen[i];
            if !self.active_fines.contains(&f) {
                self.active_fines.push(f);
            }
        }
    }

    /// Executes one main-process schedule step.
    fn main_sched_transmit(
        &mut self,
        pre: &Precomputed,
        params: &CompeteParams,
        seed: u64,
        step: u64,
        tx: &mut TxBuf<CompeteMsg>,
    ) {
        let slot = step / pre.main_slot_len;
        if slot >= pre.seq_len {
            return; // sequence exhausted (Algorithm 1's fixed budget)
        }
        let pos = step % pre.main_slot_len;
        if pos == 0 || self.cur_slot != Some(slot) {
            self.roll_slot(pre, params, seed, slot);
        }
        let stamp = slot + 1;
        for k in 0..self.active_fines.len() {
            let fi = self.active_fines[k];
            let fine = &pre.fines[fi as usize];
            match icp_phase(pos, fine.pass_len) {
                Phase::Down1(p) => self.down_transmit(pre, fi, fine, p, stamp, false, false, tx),
                Phase::Up(p) => self.up_transmit(pre, fi, fine, p, stamp, false, tx),
                Phase::Down2(p) => self.down_transmit(pre, fi, fine, p, stamp, true, false, tx),
                Phase::Idle => {}
            }
        }
    }

    /// Executes one background-process schedule step.
    fn bg_sched_transmit(&mut self, pre: &Precomputed, step: u64, tx: &mut TxBuf<CompeteMsg>) {
        let slot = step / pre.bg_slot_len;
        let pos = step % pre.bg_slot_len;
        let bgi = (slot % pre.bg.len() as u64) as u32;
        let fine = &pre.bg[bgi as usize];
        let stamp = slot + 1;
        match icp_phase(pos, fine.pass_len) {
            Phase::Down1(p) => self.down_transmit(pre, bgi, fine, p, stamp, false, true, tx),
            Phase::Up(p) => self.up_transmit(pre, bgi, fine, p, stamp, true, tx),
            Phase::Down2(p) => self.down_transmit(pre, bgi, fine, p, stamp, true, true, tx),
            Phase::Idle => {}
        }
    }

    /// A downcast step (`second_pass` selects the post-upcast repeat; `bg`
    /// selects the background process structures).
    #[allow(clippy::too_many_arguments)]
    fn down_transmit(
        &mut self,
        pre: &Precomputed,
        ci: u32,
        fine: &FineClustering,
        ppos: u64,
        stamp: u64,
        second_pass: bool,
        bg: bool,
        tx: &mut TxBuf<CompeteMsg>,
    ) {
        let w = fine.schedule.window() as u64;
        let window = (ppos / w) as u32;
        let slot_in = (ppos % w) as u32;
        for &u in fine.schedule.down_senders(window, slot_in) {
            if !bg && self.chosen[pre.coarse_idx[u as usize] as usize] != ci {
                continue;
            }
            let value = if window == 0 {
                self.know.get(u)
            } else if second_pass {
                let s = if bg { &self.b_down2 } else { &self.m_down2 };
                s.get(u, stamp)
            } else {
                let s = if bg { &self.b_down } else { &self.m_down };
                s.get(u, stamp)
            };
            if let Some(v) = value {
                let cluster = fine.schedule.cluster(u);
                let msg = if bg {
                    CompeteMsg::BgSched { bg: ci, cluster, value: v }
                } else {
                    CompeteMsg::Sched { fine: ci, cluster, value: v }
                };
                tx.send(u, msg);
            }
        }
    }

    /// An upcast step: deepest layers first, values aggregated via scratch.
    #[allow(clippy::too_many_arguments)]
    fn up_transmit(
        &mut self,
        pre: &Precomputed,
        ci: u32,
        fine: &FineClustering,
        ppos: u64,
        stamp: u64,
        bg: bool,
        tx: &mut TxBuf<CompeteMsg>,
    ) {
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
            if !bg && self.chosen[pre.coarse_idx[u as usize] as usize] != ci {
                continue;
            }
            // Aggregated value from children plus own participation:
            // a node participates if it knows a message strictly higher than
            // what the first downcast delivered to it (Algorithm 3 step 2).
            let up = if bg { &self.b_up } else { &self.m_up };
            let down = if bg { &self.b_down } else { &self.m_down };
            let aggregated = up.get(u, stamp);
            let own = match (self.know.get(u), down.get(u, stamp)) {
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
                let msg = if bg {
                    CompeteMsg::BgSched { bg: ci, cluster, value: v }
                } else {
                    CompeteMsg::Sched { fine: ci, cluster, value: v }
                };
                tx.send(u, msg);
            }
        }
    }

    /// One Algorithm-4 decay step for the main or background process.
    fn alg4_transmit(
        &mut self,
        pre: &Precomputed,
        seed: u64,
        log_n: u64,
        step: u64,
        bg: bool,
        tx: &mut TxBuf<CompeteMsg>,
    ) {
        let block = step / log_n;
        let sblock = step % log_n;
        let i = (block % log_n) as i32 + 1;

        // Scope key: which clusterings are active (main: depends on slot).
        let scope = if bg {
            (step / pre.bg_slot_len) % pre.bg.len() as u64
        } else {
            self.cur_slot.unwrap_or(0)
        };
        let state_key = Some((scope, block));
        let need_refresh =
            if bg { self.alg4_bg.key != state_key } else { self.alg4_main.key != state_key };
        if need_refresh {
            let p_participate = (2.0f64).powi(-i);
            if bg {
                let bgi = scope as u32;
                self.alg4_bg.participating.clear();
                for &c in &self.bg_live[bgi as usize] {
                    let coin = rng::derive(
                        rng::derive(rng::derive(seed, 0xB6 ^ bgi as u64), c as u64),
                        block,
                    );
                    if (coin as f64 / u64::MAX as f64) < p_participate {
                        self.alg4_bg.participating.push((bgi, c));
                    }
                }
                self.alg4_bg.key = state_key;
            } else {
                self.alg4_main.participating.clear();
                for k in 0..self.active_fines.len() {
                    let fi = self.active_fines[k];
                    for &c in &self.fine_live[fi as usize] {
                        // Only clusters whose coarse cluster chose this fine
                        // clustering take part.
                        let center = pre.fines[fi as usize].partition.centers()[c as usize];
                        let cc = pre.coarse_idx[center as usize] as usize;
                        if self.chosen[cc] != fi {
                            continue;
                        }
                        let coin = rng::derive(
                            rng::derive(rng::derive(seed, 0xF1 ^ fi as u64), c as u64),
                            block,
                        );
                        if (coin as f64 / u64::MAX as f64) < p_participate {
                            self.alg4_main.participating.push((fi, c));
                        }
                    }
                }
                self.alg4_main.key = state_key;
            }
        }

        let p_tx = (2.0f64).powi(-(sblock as i32 + 1));
        let participating =
            if bg { &self.alg4_bg.participating } else { &self.alg4_main.participating };
        for &(ci, c) in participating {
            let fine = if bg { &pre.bg[ci as usize] } else { &pre.fines[ci as usize] };
            let members = fine.partition.members(c);
            self.scratch_idx.clear();
            bernoulli_into(&mut self.rng, members.len(), p_tx, &mut self.scratch_idx);
            for &mi in &self.scratch_idx {
                let u = members[mi];
                if let Some(v) = self.know.get(u) {
                    let msg = if bg {
                        CompeteMsg::BgAlg4 { bg: ci, cluster: c, value: v }
                    } else {
                        CompeteMsg::Alg4 { fine: ci, cluster: c, value: v }
                    };
                    tx.send(u, msg);
                }
            }
        }
    }

    fn deliver_sched(
        &mut self,
        pre: &Precomputed,
        step: u64,
        node: NodeId,
        fine_idx: u32,
        cluster: u32,
        value: u64,
    ) {
        let slot = step / pre.main_slot_len;
        let pos = step % pre.main_slot_len;
        // The receiver must currently be using the same fine clustering.
        let cc = pre.coarse_idx[node as usize] as usize;
        if self.cur_slot != Some(slot) || self.chosen[cc] != fine_idx {
            return;
        }
        let fine = &pre.fines[fine_idx as usize];
        if fine.schedule.cluster(node) != cluster {
            return;
        }
        if fine.schedule.depth(node) > fine.radius {
            return; // curtailment
        }
        let stamp = slot + 1;
        match icp_phase(pos, fine.pass_len) {
            Phase::Down1(_) => self.m_down.merge_max(node, stamp, value),
            Phase::Up(_) => self.m_up.merge_max(node, stamp, value),
            Phase::Down2(_) => self.m_down2.merge_max(node, stamp, value),
            Phase::Idle => return,
        }
        self.learn(pre, node, value);
    }

    fn deliver_bg_sched(
        &mut self,
        pre: &Precomputed,
        step: u64,
        node: NodeId,
        bgi: u32,
        cluster: u32,
        value: u64,
    ) {
        let slot = step / pre.bg_slot_len;
        let pos = step % pre.bg_slot_len;
        if (slot % pre.bg.len() as u64) as u32 != bgi {
            return;
        }
        let fine = &pre.bg[bgi as usize];
        if fine.schedule.cluster(node) != cluster {
            return;
        }
        if fine.schedule.depth(node) > fine.radius {
            return;
        }
        let stamp = slot + 1;
        match icp_phase(pos, fine.pass_len) {
            Phase::Down1(_) => self.b_down.merge_max(node, stamp, value),
            Phase::Up(_) => self.b_up.merge_max(node, stamp, value),
            Phase::Down2(_) => self.b_down2.merge_max(node, stamp, value),
            Phase::Idle => return,
        }
        self.learn(pre, node, value);
    }
}

/// Re-sizes the per-clustering `(knowing counts, live lists)` tables to the
/// current cluster counts, reusing inner buffers with worst-case (`n`)
/// reservations so cluster-count changes between trials never reallocate.
fn reset_cluster_tables(
    knowing: &mut Vec<Vec<u32>>,
    live: &mut Vec<Vec<u32>>,
    fines: &[FineClustering],
    n: usize,
) {
    knowing.truncate(fines.len());
    knowing.resize_with(fines.len(), Vec::new);
    live.truncate(fines.len());
    live.resize_with(fines.len(), Vec::new);
    for (i, f) in fines.iter().enumerate() {
        let k = f.partition.num_clusters();
        knowing[i].clear();
        knowing[i].reserve(n);
        knowing[i].resize(k, 0);
        live[i].clear();
        live[i].reserve(n);
    }
}

/// How a [`CompeteProtocol`] holds its mutable state: owned for one-shot
/// runs, borrowed from a pool for reused trials.
#[derive(Debug)]
enum StateStore<'s> {
    Owned(Box<CompeteState>),
    Pooled(&'s mut CompeteState),
}

impl StateStore<'_> {
    #[inline]
    fn get(&self) -> &CompeteState {
        match self {
            StateStore::Owned(st) => st,
            StateStore::Pooled(st) => st,
        }
    }

    #[inline]
    fn get_mut(&mut self) -> &mut CompeteState {
        match self {
            StateStore::Owned(st) => st,
            StateStore::Pooled(st) => st,
        }
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
/// The per-node state is the highest message known (`know`); completion is
/// every node knowing the highest source message. All of that mutable state
/// lives in a [`CompeteState`] — owned by default, or borrowed from a pool
/// via [`CompeteProtocol::reuse`] for allocation-free repeated trials.
#[derive(Debug)]
pub struct CompeteProtocol<'p> {
    pre: &'p Precomputed,
    params: CompeteParams,
    seed: u64,
    log_n: u64,
    st: StateStore<'p>,
}

impl<'p> CompeteProtocol<'p> {
    /// Creates the propagation protocol with the given informed `sources`.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an out-of-range node.
    pub fn new(
        pre: &'p Precomputed,
        params: CompeteParams,
        sources: &[(NodeId, u64)],
        seed: u64,
    ) -> CompeteProtocol<'p> {
        let st = StateStore::Owned(Box::new(CompeteState::new(pre, sources, seed)));
        CompeteProtocol { pre, params, seed, log_n: pre.net.log2_n() as u64, st }
    }

    /// Like [`CompeteProtocol::new`] but reusing a pooled [`CompeteState`]:
    /// `state` is reset to exactly the fresh construction (same single code
    /// path), so runs are byte-identical to the owned form while steady-state
    /// trials perform no heap allocation.
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
        CompeteProtocol {
            pre,
            params,
            seed,
            log_n: pre.net.log2_n() as u64,
            st: StateStore::Pooled(state),
        }
    }

    /// Highest message known by `node`.
    pub fn value_of(&self, node: NodeId) -> Option<u64> {
        self.st.get().know.get(node)
    }

    /// Whether every node knows the highest source message.
    pub fn all_know_target(&self) -> bool {
        let st = self.st.get();
        st.num_know_target == st.know.n()
    }

    /// Number of nodes that know the highest source message.
    pub fn num_knowing(&self) -> usize {
        self.st.get().num_know_target
    }

    /// The highest source message (the value Compete must spread).
    pub fn target(&self) -> u64 {
        self.st.get().target
    }

    /// Routes a protocol-local round to (stream, kind, step).
    /// stream: 0 = main, 1 = background; kind: 0 = schedule, 1 = Alg-4 decay.
    fn route(&self, m: Round) -> (u8, u8, u64) {
        let (stream, sub) =
            if self.params.background_process { ((m % 2) as u8, m / 2) } else { (0u8, m) };
        let (kind, step) =
            if self.params.icp_background { ((sub % 2) as u8, sub / 2) } else { (0u8, sub) };
        (stream, kind, step)
    }
}

/// `bernoulli_indices` over `usize` output (local alias to keep call sites
/// short).
fn bernoulli_into(rng: &mut SmallRng, k: usize, p: f64, out: &mut Vec<usize>) {
    rn_sim::rng::bernoulli_indices(rng, k, p, out);
}

impl Protocol for CompeteProtocol<'_> {
    type Msg = CompeteMsg;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<CompeteMsg>) {
        let (stream, kind, step) = self.route(round);
        let (pre, params, seed, log_n) = (self.pre, &self.params, self.seed, self.log_n);
        let st = self.st.get_mut();
        match (stream, kind) {
            (0, 0) => st.main_sched_transmit(pre, params, seed, step, tx),
            (0, 1) => st.alg4_transmit(pre, seed, log_n, step, false, tx),
            (1, 0) => st.bg_sched_transmit(pre, step, tx),
            (1, 1) => st.alg4_transmit(pre, seed, log_n, step, true, tx),
            _ => unreachable!(),
        }
    }

    fn deliver(&mut self, round: Round, node: NodeId, _from: NodeId, msg: &CompeteMsg) {
        let (stream, kind, step) = self.route(round);
        let (pre, accept_foreign) = (self.pre, self.params.alg4_accept_foreign);
        let st = self.st.get_mut();
        match (msg, stream, kind) {
            (&CompeteMsg::Sched { fine, cluster, value }, 0, 0) => {
                st.deliver_sched(pre, step, node, fine, cluster, value)
            }
            (&CompeteMsg::Alg4 { fine, cluster, value }, 0, 1) => {
                // Accept if the node's coarse cluster currently uses this
                // clustering and the cluster matches — or unconditionally
                // when foreign values are merged (they are true source
                // messages; see `CompeteParams::alg4_accept_foreign`).
                let cc = pre.coarse_idx[node as usize] as usize;
                if accept_foreign
                    || (st.chosen[cc] == fine
                        && pre.fines[fine as usize].partition.cluster_index(node) == cluster)
                {
                    st.learn(pre, node, value);
                }
            }
            (&CompeteMsg::BgSched { bg, cluster, value }, 1, 0) => {
                st.deliver_bg_sched(pre, step, node, bg, cluster, value)
            }
            (&CompeteMsg::BgAlg4 { bg, cluster, value }, 1, 1) => {
                let slot = step / pre.bg_slot_len;
                if accept_foreign
                    || ((slot % pre.bg.len() as u64) as u32 == bg
                        && pre.bg[bg as usize].partition.cluster_index(node) == cluster)
                {
                    st.learn(pre, node, value);
                }
            }
            // Message type arriving on the wrong parity: the transmission
            // was triggered by the matching stream, so this cannot happen.
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
        let mut proto = CompeteProtocol::new(&pre, params, &[(0, 42)], seed);
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
        // report the same completion round and per-node values as a fresh
        // construction.
        let graphs = [generators::grid(8, 8), generators::path(60)];
        let params = CompeteParams::default();
        let mut state: Option<CompeteState> = None;
        for g in &graphs {
            let net = NetParams::of_graph(g);
            for seed in 0..3u64 {
                let pre = Precomputed::build(g, net, &params, seed);
                let mut fresh = CompeteProtocol::new(&pre, params, &[(0, 42)], seed);
                let mut sim = Simulator::new(g, CollisionModel::NoCollisionDetection, seed);
                let fresh_stats = sim.run(&mut fresh, params.max_rounds(&net));

                match &mut state {
                    Some(st) => st.reset(&pre, &[(0, 42)], seed),
                    slot @ None => *slot = Some(CompeteState::new(&pre, &[(0, 42)], seed)),
                }
                let st = state.as_mut().expect("slot was just filled");
                let mut pooled = CompeteProtocol::reuse(&pre, params, &[(0, 42)], seed, st);
                let mut sim = Simulator::new(g, CollisionModel::NoCollisionDetection, seed);
                let pooled_stats = sim.run(&mut pooled, params.max_rounds(&net));

                assert_eq!(fresh_stats.rounds, pooled_stats.rounds, "seed {seed}");
                assert_eq!(fresh.num_knowing(), pooled.num_knowing());
                for v in g.nodes() {
                    assert_eq!(fresh.value_of(v), pooled.value_of(v), "node {v} seed {seed}");
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
        let mut proto = CompeteProtocol::new(&pre, params, &[(0, 42)], 7);
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
        let mut proto = CompeteProtocol::new(&pre, params, &[(source, 42)], 7);
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
        let mut proto = CompeteProtocol::new(&pre, params, &sources, 9);
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
        let proto = CompeteProtocol::new(&pre, params, &[(0, 5)], 1);
        assert!(proto.all_know_target());
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_sources_rejected() {
        let g = generators::path(4);
        let net = NetParams::of_graph(&g);
        let params = CompeteParams::default();
        let pre = Precomputed::build(&g, net, &params, 1);
        let _ = CompeteProtocol::new(&pre, params, &[], 1);
    }

    #[test]
    fn knowledge_only_grows() {
        let g = generators::grid(6, 6);
        let net = NetParams::of_graph(&g);
        let params = CompeteParams::default();
        let pre = Precomputed::build(&g, net, &params, 2);
        let mut proto = CompeteProtocol::new(&pre, params, &[(0, 7)], 2);
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
