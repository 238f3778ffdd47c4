use crate::bitset::WordBitset;
use crate::faults::FaultSchedule;
use crate::protocol::{Protocol, Round, TxBuf};
use rn_graph::{Graph, HybridAdjacency, NodeId};
use serde::{Deserialize, Serialize};

/// Which interference model the channel follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollisionModel {
    /// The model of the paper: a listening node receives iff exactly one
    /// neighbor transmits; collisions are indistinguishable from silence.
    NoCollisionDetection,
    /// A listening node with ≥ 2 transmitting neighbors is told a collision
    /// happened (via [`Protocol::collision`]). Used for ablations only.
    CollisionDetection,
}

/// Cumulative channel statistics for a simulator instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Rounds executed.
    pub rounds: u64,
    /// Individual node transmissions.
    pub transmissions: u64,
    /// Successful receptions (exactly-one-transmitter events).
    pub deliveries: u64,
    /// Listener-side collision events (≥ 2 transmitting neighbors).
    pub collisions: u64,
}

impl Metrics {
    fn diff(self, earlier: Metrics) -> Metrics {
        Metrics {
            rounds: self.rounds - earlier.rounds,
            transmissions: self.transmissions - earlier.transmissions,
            deliveries: self.deliveries - earlier.deliveries,
            collisions: self.collisions - earlier.collisions,
        }
    }
}

/// Why a [`Simulator::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// The protocol reported [`Protocol::done`].
    ProtocolDone,
    /// The external stop predicate fired (see [`Simulator::run_until`]).
    StopConditionMet,
    /// The round budget was exhausted.
    BudgetExhausted,
}

/// Result of one [`Simulator::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Rounds executed by this call.
    pub rounds: u64,
    /// Metrics accumulated during this call only.
    pub metrics: Metrics,
    /// Why the run stopped.
    pub outcome: RunOutcome,
}

/// Per-round channel scratch, reset implicitly (reference) or sparsely
/// (frontier) each round. Each [`SimScratch`] holds one variant, fixed by
/// its constructor — a million-node frontier simulator carries ~4.4 MB of
/// scratch (one `u32` plus three bits per node) where the reference layout
/// carries 24 MB.
#[derive(Debug)]
enum Scratch {
    /// Stamp-based per-node vectors (stamp = round + 1 avoids clearing):
    /// the executable specification the frontier layout is differentially
    /// tested against.
    Reference {
        hear_stamp: Vec<u64>,
        hear_count: Vec<u32>,
        hear_from: Vec<u32>,
        tx_stamp: Vec<u64>,
    },
    /// Struct-of-arrays bitsets, cleared sparsely via the touched/active
    /// lists after every round.
    Frontier {
        /// Effective transmitters this round.
        tx: WordBitset,
        /// Nodes with ≥ 1 transmitting neighbor this round.
        heard: WordBitset,
        /// Nodes with ≥ 2 transmitting neighbors this round.
        collided: WordBitset,
        /// Index into the active list of the unique transmitter heard; only
        /// meaningful where `heard` is set and `collided` is not.
        hear_from: Vec<u32>,
    },
}

/// Scratch for the degree-sum–triggered dense-round kernel of
/// [`Simulator::step_frontier`], built lazily on the first round whose
/// transmitter degree sum rivals `n`. Rounds below the trigger never touch
/// it, so sparse workloads pay nothing.
#[derive(Debug)]
struct DenseScratch {
    /// Hybrid CSR/bitmap adjacency cache (see [`HybridAdjacency`]).
    adj: HybridAdjacency,
    /// `(first-toucher active index, listener, is_collision)` events of the
    /// round, ordered before callback emission to reproduce the reference
    /// order (active index asc, then listener id asc).
    events: Vec<(u32, NodeId, bool)>,
    /// Counting-sort bucket cursors, one per active transmitter (+1 for the
    /// exclusive prefix sum). Under CD nearly every listener emits an event,
    /// so the per-round ordering is a stable O(events + active) counting
    /// sort by active index rather than an O(E log E) comparison sort.
    event_counts: Vec<u32>,
    /// Counting-sort output buffer (same worst case as `events`: one event
    /// per listener).
    events_ordered: Vec<(u32, NodeId, bool)>,
}

/// Reusable engine state: everything a [`Simulator`] would otherwise
/// allocate per construction (channel bitsets or stamp vectors, the
/// dense-kernel adjacency cache, the touched/active lists), hoisted into a
/// value that survives across trials. The scratch also fixes the engine:
/// [`SimScratch::new`] steps the Frontier engine, [`SimScratch::reference`]
/// the stamp-vector oracle.
///
/// [`Simulator::reuse`] adopts a pool's `SimScratch` for one trial and
/// resets it sparsely — the frontier bitsets are already all-clear between
/// rounds (each step clears exactly the bits it set), so a steady-state
/// trial on an unchanged topology performs **zero heap allocations** for
/// engine state. The dense-kernel cache is keyed by
/// [`Graph::instance_id`], so it survives any number of trials on one graph
/// and is rebuilt when a trial brings a different graph — however that
/// graph was stored (the bench executor keeps one pool per worker thread
/// for its whole life, across every topology of a campaign).
#[derive(Debug)]
pub struct SimScratch {
    scratch: Scratch,
    dense: Option<DenseScratch>,
    /// [`Graph::instance_id`] of the graph `dense` was built for (`0`, an
    /// id no graph has, while there is none).
    dense_graph: u64,
    touched: Vec<NodeId>,
    active_tx: Vec<(NodeId, u32)>,
}

impl SimScratch {
    /// An empty Frontier-engine scratch; the first adopting
    /// [`Simulator::reuse`] sizes it for its graph.
    pub fn new() -> SimScratch {
        SimScratch::with_scratch(Scratch::Frontier {
            tx: WordBitset::new(0),
            heard: WordBitset::new(0),
            collided: WordBitset::new(0),
            hear_from: Vec::new(),
        })
    }

    /// An empty scratch for the stamp-vector reference engine — the
    /// executable specification that differential tests and engine A/B
    /// benchmarks compare the Frontier engine against.
    pub fn reference() -> SimScratch {
        SimScratch::with_scratch(Scratch::Reference {
            hear_stamp: Vec::new(),
            hear_count: Vec::new(),
            hear_from: Vec::new(),
            tx_stamp: Vec::new(),
        })
    }

    fn with_scratch(scratch: Scratch) -> SimScratch {
        SimScratch {
            scratch,
            dense: None,
            dense_graph: 0,
            touched: Vec::new(),
            active_tx: Vec::new(),
        }
    }

    /// Readies the scratch for a trial over `graph`: reuses every buffer
    /// whose capacity still fits, clears sparsely where the between-rounds
    /// invariant guarantees emptiness, and reserves the worst-case bounds
    /// (`n` touched listeners, `n` active transmitters) so steady-state
    /// rounds can never trigger mid-trial growth.
    fn prepare(&mut self, graph: &Graph) {
        let n = graph.n();
        if self.dense_graph != graph.instance_id() {
            self.dense = None;
            self.dense_graph = graph.instance_id();
        }
        match &mut self.scratch {
            Scratch::Reference { hear_stamp, hear_count, hear_from, tx_stamp } => {
                // The protocol clock restarts each trial, so stale stamps
                // from a previous trial could alias fresh ones: zero both
                // stamp vectors (hear_count/hear_from are only read behind a
                // matching hear_stamp, so their stale contents are inert).
                hear_stamp.clear();
                hear_stamp.resize(n, 0);
                tx_stamp.clear();
                tx_stamp.resize(n, 0);
                hear_count.resize(n, 0);
                hear_from.resize(n, 0);
            }
            Scratch::Frontier { tx, heard, collided, hear_from } => {
                // tx/heard/collided are all-clear between rounds; only a
                // capacity change forces a re-zero.
                tx.reset_capacity(n);
                heard.reset_capacity(n);
                collided.reset_capacity(n);
                debug_assert!(tx.words().iter().all(|&w| w == 0), "tx bits leak across trials");
                debug_assert!(heard.words().iter().all(|&w| w == 0), "heard bits leak");
                debug_assert!(collided.words().iter().all(|&w| w == 0), "collided bits leak");
                if hear_from.len() != n {
                    hear_from.clear();
                    hear_from.resize(n, 0);
                }
            }
        }
        self.touched.clear();
        self.touched.reserve(n);
        self.active_tx.clear();
        self.active_tx.reserve(n);
    }
}

impl Default for SimScratch {
    fn default() -> Self {
        SimScratch::new()
    }
}

/// Where a simulator's [`SimScratch`] lives: owned by the simulator (the
/// fresh-construction path) or borrowed from a caller's pool.
#[derive(Debug)]
enum Store<'s> {
    Owned(Box<SimScratch>),
    Pooled(&'s mut SimScratch),
}

impl Store<'_> {
    fn get(&self) -> &SimScratch {
        match self {
            Store::Owned(s) => s,
            Store::Pooled(s) => s,
        }
    }

    fn get_mut(&mut self) -> &mut SimScratch {
        match self {
            Store::Owned(s) => s,
            Store::Pooled(s) => s,
        }
    }
}

/// A read-only view of one finished round's channel outcome, passed to
/// [`Protocol::round_end`].
///
/// The view abstracts over the engine's two scratch layouts — queries
/// answer from stamp vectors on a [`SimScratch::reference`] scratch and from
/// `u64`-word bitsets on the Frontier one, with identical results (the
/// differential tests compare them node for node).
///
/// [`RoundView::frontier`] is the round's *unordered* set of nodes that
/// heard channel energy; protocols keeping struct-of-arrays state walk it
/// to advance bookkeeping in time proportional to activity instead of `n`.
pub struct RoundView<'a> {
    inner: ViewInner<'a>,
    frontier: &'a [NodeId],
    faults: Option<&'a FaultSchedule>,
    round: Round,
}

enum ViewInner<'a> {
    Reference { hear_stamp: &'a [u64], hear_count: &'a [u32], tx_stamp: &'a [u64], stamp: u64 },
    Frontier { heard: &'a WordBitset, collided: &'a WordBitset, tx: &'a WordBitset },
}

impl RoundView<'_> {
    /// The nodes that heard channel energy this round, as an **unordered**
    /// set (the traversal order differs between the engines and kernels;
    /// sort before relying on order).
    pub fn frontier(&self) -> &[NodeId] {
        self.frontier
    }

    /// Whether `node` had at least one transmitting neighbor this round.
    pub fn heard(&self, node: NodeId) -> bool {
        let vi = node as usize;
        match &self.inner {
            ViewInner::Reference { hear_stamp, stamp, .. } => hear_stamp[vi] == *stamp,
            ViewInner::Frontier { heard, .. } => heard.contains(vi),
        }
    }

    /// Whether `node` had two or more transmitting neighbors this round
    /// (implies [`RoundView::heard`]).
    pub fn collided(&self, node: NodeId) -> bool {
        let vi = node as usize;
        match &self.inner {
            ViewInner::Reference { hear_stamp, hear_count, stamp, .. } => {
                hear_stamp[vi] == *stamp && hear_count[vi] > 1
            }
            ViewInner::Frontier { collided, .. } => collided.contains(vi),
        }
    }

    /// Whether `node` effectively transmitted this round (protocol
    /// transmissions surviving the fault model, plus jammer noise).
    pub fn transmitted(&self, node: NodeId) -> bool {
        let vi = node as usize;
        match &self.inner {
            ViewInner::Reference { tx_stamp, stamp, .. } => tx_stamp[vi] == *stamp,
            ViewInner::Frontier { tx, .. } => tx.contains(vi),
        }
    }

    /// Whether `node` was down this round (crashed or dropped by the fault
    /// schedule) — down nodes heard nothing regardless of the bits above.
    pub fn down(&self, node: NodeId) -> bool {
        self.faults.is_some_and(|f| f.is_down(self.round, node))
    }
}

/// The radio-channel engine: executes a [`Protocol`] over a [`Graph`] under
/// exact radio collision semantics.
///
/// Per-round cost is proportional to the degree sum of the transmitting
/// nodes, not to `n` — protocols with sparse activity (decay frontiers,
/// schedule waves) simulate cheaply even on large networks. The scratch the
/// per-round loops touch comes in two layouts (see [`SimScratch`]): the
/// production Frontier layout keeps channel sets as one-bit-per-node
/// bitsets so `10⁵`–`10⁶`-node campaigns stay cache-resident, and the
/// stamp-vector reference path, reached only through a
/// [`SimScratch::reference`] scratch, is retained as the executable
/// specification the fast path is differentially tested against.
///
/// The engine optionally runs under a [`FaultSchedule`] (jammers, per-round
/// dropout and crash-stop, see [`crate::faults`]): a schedule passed
/// explicitly at construction via [`Simulator::with_faults`] or
/// [`Simulator::reuse`] is applied at the channel level, so *any* protocol
/// degrades under the same fault model without protocol-side code.
#[derive(Debug)]
pub struct Simulator<'g> {
    graph: &'g Graph,
    model: CollisionModel,
    round: Round,
    metrics: Metrics,
    faults: Option<FaultSchedule>,
    // Engine scratch: owned for fresh constructions, borrowed from a
    // caller's pool via `Simulator::reuse`.
    store: Store<'g>,
    seed: u64,
}

/// `active_tx` tag marking a jammer noise burst (carries no message).
const NOISE_TAG: u32 = u32::MAX;

impl<'g> Simulator<'g> {
    /// Creates a Frontier engine over `graph` with the given interference
    /// `model`, running fault-free.
    ///
    /// `seed` is recorded for reproducibility metadata (protocols own their
    /// actual randomness; see [`crate::rng`] for seed derivation helpers).
    pub fn new(graph: &'g Graph, model: CollisionModel, seed: u64) -> Simulator<'g> {
        Simulator::with_faults(graph, model, seed, None)
    }

    /// As [`Simulator::new`], with an explicit fault schedule (`None` runs
    /// fault-free) — fault injection is plain parameter passing, safe to
    /// drive from any worker thread.
    ///
    /// # Panics
    ///
    /// Panics if the schedule was resolved for a different node count than
    /// `graph` has.
    pub fn with_faults(
        graph: &'g Graph,
        model: CollisionModel,
        seed: u64,
        faults: Option<FaultSchedule>,
    ) -> Simulator<'g> {
        let mut scratch = Box::new(SimScratch::new());
        scratch.prepare(graph);
        Simulator::from_store(Store::Owned(scratch), graph, model, seed, faults)
    }

    /// As [`Simulator::with_faults`], adopting a pooled [`SimScratch`]
    /// instead of allocating fresh engine state — the steady-state trial
    /// constructor, and the one way to step the engine the scratch was
    /// built for (see [`SimScratch::reference`]). The scratch is reset
    /// sparsely (see [`SimScratch`]); on an unchanged topology the
    /// construction performs no heap allocation, and the dense-kernel
    /// adjacency cache survives across trials.
    ///
    /// # Panics
    ///
    /// Panics if the schedule was resolved for a different node count than
    /// `graph` has.
    pub fn reuse(
        scratch: &'g mut SimScratch,
        graph: &'g Graph,
        model: CollisionModel,
        seed: u64,
        faults: Option<FaultSchedule>,
    ) -> Simulator<'g> {
        scratch.prepare(graph);
        Simulator::from_store(Store::Pooled(scratch), graph, model, seed, faults)
    }

    fn from_store(
        store: Store<'g>,
        graph: &'g Graph,
        model: CollisionModel,
        seed: u64,
        faults: Option<FaultSchedule>,
    ) -> Simulator<'g> {
        if let Some(f) = &faults {
            let n = graph.n();
            assert!(f.n() == n, "fault schedule was resolved for {} nodes, graph has {n}", f.n());
        }
        Simulator { graph, model, round: 0, metrics: Metrics::default(), faults, store, seed }
    }

    /// Master seed recorded at construction.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Cumulative metrics since construction.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Runs `protocol` for at most `max_rounds` rounds.
    pub fn run<P: Protocol>(&mut self, protocol: &mut P, max_rounds: u64) -> RunStats {
        self.run_until(protocol, max_rounds, |_, _| false)
    }

    /// Runs `protocol` until `stop(round, protocol)` returns true (checked
    /// before each round), the protocol reports done, or the budget runs out.
    ///
    /// The protocol sees a fresh clock starting at round 0 for this call
    /// (the engine's global round keeps advancing across calls), so one
    /// protocol corresponds to one `run`/`run_until` invocation.
    ///
    /// The stop predicate is *measurement instrumentation* — e.g. "all nodes
    /// informed" oracles — and is allowed to inspect global protocol state
    /// that real nodes could not observe.
    pub fn run_until<P: Protocol>(
        &mut self,
        protocol: &mut P,
        max_rounds: u64,
        stop: impl FnMut(Round, &P) -> bool,
    ) -> RunStats {
        self.run_until_with_buf(protocol, &mut TxBuf::new(), max_rounds, stop)
    }

    /// As [`Simulator::run`], reusing a caller-provided transmission buffer
    /// (pooled trial loops pass their pool's buffer so per-round capacity
    /// growth happens once per topology, not once per trial).
    pub fn run_with_buf<P: Protocol>(
        &mut self,
        protocol: &mut P,
        tx: &mut TxBuf<P::Msg>,
        max_rounds: u64,
    ) -> RunStats {
        self.run_until_with_buf(protocol, tx, max_rounds, |_, _| false)
    }

    /// As [`Simulator::run_until`], reusing a caller-provided transmission
    /// buffer.
    pub fn run_until_with_buf<P: Protocol>(
        &mut self,
        protocol: &mut P,
        tx: &mut TxBuf<P::Msg>,
        max_rounds: u64,
        mut stop: impl FnMut(Round, &P) -> bool,
    ) -> RunStats {
        let before = self.metrics;
        let start = self.round;
        tx.clear();
        let outcome = loop {
            let local = self.round - start;
            if local >= max_rounds {
                break RunOutcome::BudgetExhausted;
            }
            if stop(local, protocol) {
                break RunOutcome::StopConditionMet;
            }
            if protocol.done(local) {
                break RunOutcome::ProtocolDone;
            }
            self.step_at(protocol, tx, local);
        };
        RunStats { rounds: self.round - start, metrics: self.metrics.diff(before), outcome }
    }

    /// Executes exactly one round of `protocol`, presenting the engine's
    /// global round as the protocol's round (manual stepping; prefer
    /// [`Simulator::run`] which gives the protocol a fresh clock).
    ///
    /// # Panics
    ///
    /// Panics if the protocol transmits twice from one node in one round, or
    /// transmits from an out-of-range node id.
    pub fn step_with<P: Protocol>(&mut self, protocol: &mut P) {
        let mut tx = TxBuf::new();
        let local = self.round;
        self.step_at(protocol, &mut tx, local);
    }

    /// One round of `protocol` with an explicit protocol-local round number,
    /// reusing a caller-provided buffer.
    fn step_at<P: Protocol>(&mut self, protocol: &mut P, tx: &mut TxBuf<P::Msg>, local: Round) {
        match self.store.get().scratch {
            Scratch::Reference { .. } => self.step_reference(protocol, tx, local),
            Scratch::Frontier { .. } => self.step_frontier(protocol, tx, local),
        }
    }

    /// The stamp-vector step: the executable specification of one channel
    /// round. [`Simulator::step_frontier`] must match it call for call.
    fn step_reference<P: Protocol>(
        &mut self,
        protocol: &mut P,
        tx: &mut TxBuf<P::Msg>,
        local: Round,
    ) {
        tx.clear();
        protocol.transmit(local, tx);
        let stamp = self.round + 1;
        let global = self.round;
        // Move the schedule and the active-transmitter scratch out of `self`
        // for the round, so they can be read alongside mutable scratch state.
        let faults = self.faults.take();
        let st = self.store.get_mut();
        let mut active = std::mem::take(&mut st.active_tx);
        let touched = &mut st.touched;
        let Scratch::Reference { hear_stamp, hear_count, hear_from, tx_stamp } = &mut st.scratch
        else {
            unreachable!("reference step dispatched with frontier scratch");
        };

        // Validate and mark protocol transmitters. Double transmission is a
        // protocol bug whether or not the fault model would suppress it.
        for &(u, _) in tx.entries() {
            let ui = u as usize;
            assert!(ui < self.graph.n(), "protocol transmitted from invalid node {u}");
            assert!(
                tx_stamp[ui] != stamp,
                "protocol bug: node {u} transmitted twice in round {}",
                self.round
            );
            tx_stamp[ui] = stamp;
        }

        // Effective transmitter set: protocol transmissions that survive the
        // fault model (jammers never act for the protocol; down nodes are
        // silent), plus jammer noise bursts.
        active.clear();
        for (idx, &(u, _)) in tx.entries().iter().enumerate() {
            if let Some(f) = &faults {
                if f.suppresses_tx(global, u) {
                    tx_stamp[u as usize] = 0; // physically silent: may listen
                    continue;
                }
            }
            active.push((u, idx as u32));
        }
        if let Some(f) = &faults {
            for &j in f.jammer_ids() {
                if f.jam_fires(global, j) {
                    tx_stamp[j as usize] = stamp;
                    active.push((j, NOISE_TAG));
                }
            }
        }

        // Count what every potential listener hears.
        touched.clear();
        for (ai, &(u, _)) in active.iter().enumerate() {
            for &v in self.graph.neighbors(u) {
                let vi = v as usize;
                if hear_stamp[vi] != stamp {
                    hear_stamp[vi] = stamp;
                    hear_count[vi] = 1;
                    hear_from[vi] = ai as u32;
                    touched.push(v);
                } else {
                    hear_count[vi] += 1;
                }
            }
        }

        // Deliver / report collisions to listeners.
        for i in 0..touched.len() {
            let v = touched[i];
            let vi = v as usize;
            if tx_stamp[vi] == stamp {
                continue; // transmitters cannot listen
            }
            if let Some(f) = &faults {
                if f.is_down(global, v) {
                    continue; // down nodes hear nothing
                }
            }
            if hear_count[vi] == 1 {
                let (_, tag) = active[hear_from[vi] as usize];
                if tag == NOISE_TAG {
                    continue; // a uniquely heard noise burst is garbage
                }
                let (from, msg) = &tx.entries()[tag as usize];
                protocol.deliver(local, v, *from, msg);
                self.metrics.deliveries += 1;
            } else {
                self.metrics.collisions += 1;
                if self.model == CollisionModel::CollisionDetection {
                    protocol.collision(local, v);
                }
            }
        }

        protocol.round_end(
            local,
            &RoundView {
                inner: ViewInner::Reference {
                    hear_stamp: hear_stamp.as_slice(),
                    hear_count: hear_count.as_slice(),
                    tx_stamp: tx_stamp.as_slice(),
                    stamp,
                },
                frontier: touched.as_slice(),
                faults: faults.as_ref(),
                round: global,
            },
        );

        self.metrics.transmissions += active.len() as u64;
        self.metrics.rounds += 1;
        self.round += 1;
        self.store.get_mut().active_tx = active;
        self.faults = faults;
    }

    /// The struct-of-arrays bitset step. Semantically identical to
    /// [`Simulator::step_reference`] — same protocol-call order, same
    /// metrics — with channel membership kept as one bit per node and
    /// cleared sparsely through the active/touched lists, so a round's
    /// memory traffic is proportional to activity and the membership
    /// tables stay cache-resident at `10⁶` nodes. Rounds whose
    /// transmitter degree sum reaches `n` additionally dispatch to a
    /// word-level dense kernel over a cached [`HybridAdjacency`].
    fn step_frontier<P: Protocol>(
        &mut self,
        protocol: &mut P,
        tx: &mut TxBuf<P::Msg>,
        local: Round,
    ) {
        tx.clear();
        protocol.transmit(local, tx);
        let global = self.round;
        let faults = self.faults.take();
        let st = self.store.get_mut();
        let mut active = std::mem::take(&mut st.active_tx);
        let SimScratch { scratch, dense, touched, .. } = st;
        let Scratch::Frontier { tx: tx_bits, heard, collided, hear_from } = scratch else {
            unreachable!("frontier step dispatched with reference scratch");
        };

        // Validate and mark protocol transmitters (one bit per node; double
        // transmission is a protocol bug whether or not the fault model
        // would suppress it).
        for &(u, _) in tx.entries() {
            let ui = u as usize;
            assert!(ui < self.graph.n(), "protocol transmitted from invalid node {u}");
            assert!(
                tx_bits.set(ui),
                "protocol bug: node {u} transmitted twice in round {}",
                self.round
            );
        }

        // Effective transmitter set, exactly as in the reference path.
        active.clear();
        for (idx, &(u, _)) in tx.entries().iter().enumerate() {
            if let Some(f) = &faults {
                if f.suppresses_tx(global, u) {
                    tx_bits.clear(u as usize); // physically silent: may listen
                    continue;
                }
            }
            active.push((u, idx as u32));
        }
        if let Some(f) = &faults {
            for &j in f.jammer_ids() {
                if f.jam_fires(global, j) {
                    tx_bits.set(j as usize);
                    active.push((j, NOISE_TAG));
                }
            }
        }

        // Dense-round dispatch: when the transmitters' degree sum rivals
        // `n`, per-edge scatter writes lose to whole-word OR/AND
        // accumulation over adjacency rows. The word kernel reproduces the
        // reference callback order — for deliveries *and* CD collision
        // notifications — by recording each listener's first-toucher active
        // index during accumulation and sorting the merged event list
        // (proof in the kernel comments).
        let graph = self.graph;
        touched.clear();
        let dense_round = !active.is_empty()
            && active.iter().map(|&(u, _)| graph.degree(u)).sum::<usize>() >= graph.n();

        if dense_round {
            let dense = dense.get_or_insert_with(|| DenseScratch {
                adj: HybridAdjacency::for_graph(graph),
                events: Vec::with_capacity(graph.n()),
                event_counts: Vec::with_capacity(graph.n() + 1),
                events_ordered: Vec::with_capacity(graph.n()),
            });
            let cd = self.model == CollisionModel::CollisionDetection;

            // Accumulate heard/collided word-wise: a word's second energy
            // is exactly `already-heard AND row`, so the one/many lattice
            // needs two ops per word (bitmap rows) or per edge (CSR rows),
            // plus one `hear_from` write per *first touch* (bounded by the
            // frontier size, not the degree sum) recording which active
            // index reached the listener first. For uniquely heard
            // listeners that index *is* the transmitter; for collided
            // listeners it is the reference path's touch order key.
            {
                let hw = heard.words_mut();
                let cw = collided.words_mut();
                for (ai, &(u, _)) in active.iter().enumerate() {
                    if let Some(row) = dense.adj.row(u) {
                        for (wi, &rw) in row.iter().enumerate() {
                            let h = hw[wi];
                            cw[wi] |= h & rw;
                            let mut fresh = rw & !h;
                            hw[wi] = h | rw;
                            while fresh != 0 {
                                let bit = fresh & fresh.wrapping_neg();
                                fresh ^= bit;
                                hear_from[(wi << 6) | bit.trailing_zeros() as usize] = ai as u32;
                            }
                        }
                    } else {
                        for &v in graph.neighbors(u) {
                            let vi = v as usize;
                            let mask = 1u64 << (vi & 63);
                            let wi = vi >> 6;
                            let h = hw[wi];
                            cw[wi] |= h & mask;
                            if h & mask == 0 {
                                hear_from[vi] = ai as u32;
                            }
                            hw[wi] = h | mask;
                        }
                    }
                }
            }

            // Sweep the heard words in ascending node order: rebuild the
            // touched list, then emit one event per listening hearer —
            // `(first-toucher active index, listener, is_collision)` —
            // sorted before the callback loop. In the reference path a
            // listener enters the touched list when its first toucher's
            // adjacency is scanned (active index asc, neighbor id asc
            // within it), and callbacks replay the touched list, so the
            // sorted order reproduces the reference interleaving of
            // deliveries and CD collision notifications exactly. Under
            // nocd, collisions carry no callback and skip the event list.
            dense.events.clear();
            let tw = tx_bits.words();
            for (wi, &hword) in heard.words().iter().enumerate() {
                if hword == 0 {
                    continue;
                }
                let cword = collided.words()[wi];
                let tword = tw[wi];
                let mut rest = hword;
                while rest != 0 {
                    let bit = rest & rest.wrapping_neg();
                    rest ^= bit;
                    let vi = (wi << 6) | bit.trailing_zeros() as usize;
                    let v = vi as NodeId;
                    touched.push(v);
                    if tword & bit != 0 {
                        continue; // transmitters cannot listen
                    }
                    if let Some(f) = &faults {
                        if f.is_down(global, v) {
                            continue; // down nodes hear nothing
                        }
                    }
                    if cword & bit != 0 {
                        self.metrics.collisions += 1;
                        if cd {
                            dense.events.push((hear_from[vi], v, true));
                        }
                    } else {
                        dense.events.push((hear_from[vi], v, false));
                    }
                }
            }
            // Stable counting sort by active index: the sweep above emits
            // events in ascending listener order, so bucketing by `ai`
            // (stable) yields exactly (active index asc, listener asc) —
            // the order `sort_unstable` on the `(ai, v, _)` key would
            // produce, at O(events + active) instead of O(E log E). Under
            // CD almost every listener is an event, so this is the round's
            // second-largest cost after accumulation.
            let counts = &mut dense.event_counts;
            counts.clear();
            counts.resize(active.len() + 1, 0);
            for &(ai, _, _) in &dense.events {
                counts[ai as usize + 1] += 1;
            }
            for i in 0..active.len() {
                counts[i + 1] += counts[i];
            }
            let ordered = &mut dense.events_ordered;
            ordered.clear();
            ordered.resize(dense.events.len(), (0, 0, false));
            for &(ai, v, c) in &dense.events {
                let slot = &mut counts[ai as usize];
                ordered[*slot as usize] = (ai, v, c);
                *slot += 1;
            }
            for &(ai, v, is_collision) in ordered.iter() {
                if is_collision {
                    protocol.collision(local, v);
                    continue;
                }
                let (_, tag) = active[ai as usize];
                if tag == NOISE_TAG {
                    continue; // a uniquely heard noise burst is garbage
                }
                let (from, msg) = &tx.entries()[tag as usize];
                protocol.deliver(local, v, *from, msg);
                self.metrics.deliveries += 1;
            }
        } else {
            // Mark what every potential listener hears: first energy sets
            // `heard` and records the source, any further energy sets
            // `collided`. (`hear_count` is only ever compared against 1, so
            // a two-bitset one/many lattice replaces the count vector.)
            for (ai, &(u, _)) in active.iter().enumerate() {
                for &v in graph.neighbors(u) {
                    let vi = v as usize;
                    if heard.set(vi) {
                        hear_from[vi] = ai as u32;
                        touched.push(v);
                    } else {
                        collided.set(vi);
                    }
                }
            }

            // Deliver / report collisions to listeners.
            for i in 0..touched.len() {
                let v = touched[i];
                let vi = v as usize;
                if tx_bits.contains(vi) {
                    continue; // transmitters cannot listen
                }
                if let Some(f) = &faults {
                    if f.is_down(global, v) {
                        continue; // down nodes hear nothing
                    }
                }
                if !collided.contains(vi) {
                    let (_, tag) = active[hear_from[vi] as usize];
                    if tag == NOISE_TAG {
                        continue; // a uniquely heard noise burst is garbage
                    }
                    let (from, msg) = &tx.entries()[tag as usize];
                    protocol.deliver(local, v, *from, msg);
                    self.metrics.deliveries += 1;
                } else {
                    self.metrics.collisions += 1;
                    if self.model == CollisionModel::CollisionDetection {
                        protocol.collision(local, v);
                    }
                }
            }
        }

        protocol.round_end(
            local,
            &RoundView {
                inner: ViewInner::Frontier { heard: &*heard, collided: &*collided, tx: &*tx_bits },
                frontier: touched.as_slice(),
                faults: faults.as_ref(),
                round: global,
            },
        );

        // Debug-build post-round coherence checks, compiled out in release
        // (scale-smoke timings untouched). The frontier state's contract:
        // a collision implies energy was heard (`collided ⊆ heard`
        // word-wise), and `touched` enumerates the heard set exactly — the
        // sparse clears below rely on the latter to restore the all-zero
        // between-rounds state.
        #[cfg(debug_assertions)]
        {
            for (wi, (&hw, &cw)) in heard.words().iter().zip(collided.words()).enumerate() {
                debug_assert_eq!(cw & !hw, 0, "collided ⊄ heard in word {wi}");
            }
            debug_assert_eq!(
                heard.count_ones(),
                touched.len(),
                "touched list diverged from heard set"
            );
            heard.debug_validate();
            collided.debug_validate();
            tx_bits.debug_validate();
        }

        // Sparse clears: the set bits are exactly the active and touched
        // lists, so resetting costs activity, not `n`.
        for &(u, _) in &active {
            tx_bits.clear(u as usize);
        }
        for &v in touched.iter() {
            let vi = v as usize;
            heard.clear(vi);
            collided.clear(vi);
        }

        // The between-rounds invariant the next round's sparse marking
        // assumes: every frontier bitset back to all-zero.
        #[cfg(debug_assertions)]
        for (name, set) in [("heard", &*heard), ("collided", &*collided), ("tx_bits", &*tx_bits)] {
            debug_assert!(
                set.words().iter().all(|&w| w == 0),
                "{name} not fully cleared after round {global}"
            );
        }

        self.metrics.transmissions += active.len() as u64;
        self.metrics.rounds += 1;
        self.round += 1;
        self.store.get_mut().active_tx = active;
        self.faults = faults;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{OneShot, Silence};
    use rn_graph::generators;

    #[test]
    fn silence_delivers_nothing() {
        let g = generators::complete(5);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        let stats = sim.run(&mut Silence, 10);
        assert_eq!(stats.rounds, 10);
        assert_eq!(stats.metrics.deliveries, 0);
        assert_eq!(stats.metrics.transmissions, 0);
        assert_eq!(stats.outcome, RunOutcome::BudgetExhausted);
    }

    #[test]
    fn unique_transmitter_reaches_all_neighbors() {
        let g = generators::star(5);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        let mut p = OneShot::new(5, vec![(0, 99u64)]); // hub speaks
        sim.run(&mut p, 1);
        for leaf in 1..5 {
            assert_eq!(p.received(leaf), &[(0, 99)]);
        }
    }

    #[test]
    fn two_transmitters_collide_at_common_neighbor_only() {
        // Path 0-1-2-3: 0 and 2 transmit. Node 1 hears both (collision);
        // node 3 hears only 2 (delivery). Node 0 and 2 transmit, hear nothing.
        let g = generators::path(4);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        let mut p = OneShot::new(4, vec![(0, 5u64), (2, 6u64)]);
        let stats = sim.run(&mut p, 1);
        assert!(p.received(1).is_empty(), "collision at node 1");
        assert_eq!(p.received(3), &[(2, 6)]);
        assert_eq!(stats.metrics.collisions, 1);
        assert_eq!(stats.metrics.deliveries, 1);
    }

    #[test]
    fn transmitter_does_not_hear_its_neighbor() {
        // Edge 0-1, both transmit: neither receives.
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        let mut p = OneShot::new(2, vec![(0, 1u64), (1, 2u64)]);
        sim.run(&mut p, 1);
        assert!(p.received(0).is_empty());
        assert!(p.received(1).is_empty());
    }

    #[test]
    fn collision_detection_model_notifies_listeners() {
        let g = generators::star(4);
        let mut sim = Simulator::new(&g, CollisionModel::CollisionDetection, 1);
        let mut p = OneShot::new(4, vec![(1, 1u64), (2, 2u64)]);
        sim.run(&mut p, 1);
        assert_eq!(p.collisions(0), 1, "hub detects the collision");
        assert_eq!(p.collisions(3), 0, "leaf 3 hears plain silence");
    }

    #[test]
    fn no_cd_model_stays_silent_on_collision() {
        let g = generators::star(4);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        let mut p = OneShot::new(4, vec![(1, 1u64), (2, 2u64)]);
        sim.run(&mut p, 1);
        assert_eq!(p.collisions(0), 0, "no notification without CD");
        assert_eq!(sim.metrics().collisions, 1, "engine still counts it");
    }

    #[test]
    #[should_panic(expected = "transmitted twice")]
    fn double_transmission_is_a_protocol_bug() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        let mut p = OneShot::new(2, vec![(0, 1u64), (0, 2u64)]);
        sim.run(&mut p, 1);
    }

    #[test]
    #[should_panic(expected = "transmitted twice")]
    fn double_transmission_is_a_protocol_bug_in_reference_mode_too() {
        let g = generators::path(2);
        let mut scratch = SimScratch::reference();
        let mut sim =
            Simulator::reuse(&mut scratch, &g, CollisionModel::NoCollisionDetection, 1, None);
        let mut p = OneShot::new(2, vec![(0, 1u64), (0, 2u64)]);
        sim.run(&mut p, 1);
    }

    #[test]
    fn run_until_stop_condition() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        let stats = sim.run_until(&mut Silence, 100, |round, _| round == 7);
        assert_eq!(stats.outcome, RunOutcome::StopConditionMet);
        assert_eq!(stats.rounds, 7);
    }

    #[test]
    fn metrics_accumulate_across_runs() {
        let g = generators::star(3);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        let mut p = OneShot::new(3, vec![(0, 1u64)]);
        sim.run(&mut p, 1);
        let mut p2 = OneShot::new(3, vec![(0, 2u64)]);
        sim.run(&mut p2, 1);
        assert_eq!(sim.metrics().rounds, 2);
        assert_eq!(sim.metrics().transmissions, 2);
        assert_eq!(sim.metrics().deliveries, 4);
    }

    #[test]
    fn engine_faults_jammer_noise_collides_with_real_traffic() {
        // Star: leaf 1 transmits every round, leaf 2 jams with probability 1
        // — the hub always hears a collision, never a delivery.
        let g = generators::star(3);
        let faults = Some(FaultSchedule::new(3, vec![2], 1.0, 0.0, 0.0, 7));
        let mut sim = Simulator::with_faults(&g, CollisionModel::NoCollisionDetection, 1, faults);
        let mut p = crate::testing::EveryRound::new(1, 7u64);
        let stats = sim.run(&mut p, 8);
        assert_eq!(stats.metrics.deliveries, 0, "hub always hears a collision");
        assert_eq!(stats.metrics.collisions, 8);
        assert_eq!(stats.metrics.transmissions, 16, "leaf 1 and the jammer each round");
    }

    #[test]
    fn engine_faults_unique_noise_is_garbage_not_delivery() {
        // Only the jammer transmits: listeners hear garbage — no delivery,
        // no collision notification, but the transmission is real.
        let g = generators::star(3);
        let faults = Some(FaultSchedule::new(3, vec![0], 1.0, 0.0, 0.0, 7));
        let mut sim = Simulator::with_faults(&g, CollisionModel::CollisionDetection, 1, faults);
        let mut p = OneShot::new(3, vec![]);
        let stats = sim.run(&mut p, 4);
        assert_eq!(stats.metrics.transmissions, 4);
        assert_eq!(stats.metrics.deliveries, 0);
        assert_eq!(stats.metrics.collisions, 0);
        assert_eq!(p.collisions(1), 0, "a single noise burst is not a collision signal");
    }

    #[test]
    fn engine_faults_jammer_suppresses_protocol_transmissions() {
        // The hub wants to broadcast every round, but the hub is a jammer
        // that never fires: total silence.
        let g = generators::star(3);
        let faults = Some(FaultSchedule::new(3, vec![0], 0.0, 0.0, 0.0, 7));
        let mut sim = Simulator::with_faults(&g, CollisionModel::NoCollisionDetection, 1, faults);
        let mut p = crate::testing::EveryRound::new(0, 7u64);
        let stats = sim.run(&mut p, 4);
        assert_eq!(stats.metrics.transmissions, 0);
        assert_eq!(stats.metrics.deliveries, 0);
    }

    #[test]
    fn engine_faults_down_nodes_neither_transmit_nor_receive() {
        // Path 0-1, node 0 transmitting every round under 40% dropout. The
        // schedule's coins are public and stateless, so the exact expected
        // channel activity can be recomputed independently: a transmission
        // happens iff 0 is up, a delivery iff additionally 1 is up.
        let g = generators::path(2);
        let schedule = FaultSchedule::new(2, vec![], 0.0, 0.4, 0.0, 7);
        let expect_tx = (0..32).filter(|&r| !schedule.is_down(r, 0)).count() as u64;
        let expect_del =
            (0..32).filter(|&r| !schedule.is_down(r, 0) && !schedule.is_down(r, 1)).count() as u64;
        assert!(expect_del < expect_tx && expect_tx < 32, "seed exercises both fault kinds");
        let mut sim =
            Simulator::with_faults(&g, CollisionModel::NoCollisionDetection, 1, Some(schedule));
        let mut p = crate::testing::EveryRound::new(0, 7u64);
        let stats = sim.run(&mut p, 32);
        assert_eq!(stats.metrics.transmissions, expect_tx);
        assert_eq!(stats.metrics.deliveries, expect_del);
    }

    #[test]
    fn engine_faults_crashed_nodes_stay_silent_forever() {
        // Path 0-1, node 0 transmitting every round under crash-stop only.
        // Channel activity must be a prefix: once either endpoint crashes,
        // deliveries stop for good (unlike transient dropout, which can
        // resume).
        let g = generators::path(2);
        let schedule = FaultSchedule::new(2, vec![], 0.0, 0.0, 0.15, 11);
        let tx_end = schedule.crash_round(0).min(64);
        let del_end = tx_end.min(schedule.crash_round(1));
        assert!(del_end < 64, "seed crashes an endpoint inside the horizon");
        let mut sim =
            Simulator::with_faults(&g, CollisionModel::NoCollisionDetection, 1, Some(schedule));
        let mut p = crate::testing::EveryRound::new(0, 7u64);
        let stats = sim.run(&mut p, 64);
        assert_eq!(stats.metrics.transmissions, tx_end, "transmissions stop at 0's crash");
        assert_eq!(stats.metrics.deliveries, del_end, "deliveries stop at the first crash");
    }

    #[test]
    fn engine_faults_jammers_fire_through_total_dropout() {
        // Total dropout silences every protocol transmission and deafens
        // every listener.
        let g = generators::path(2);
        let all_down = FaultSchedule::new(2, vec![], 0.0, 1.0, 0.0, 9);
        let mut sim =
            Simulator::with_faults(&g, CollisionModel::NoCollisionDetection, 5, Some(all_down));
        let stats = sim.run(&mut crate::testing::EveryRound::new(0, 1u64), 8);
        assert_eq!(stats.metrics.transmissions, 0, "down nodes are silent");
        assert_eq!(stats.metrics.deliveries, 0);

        // Jammers are exempt from dropout: node 1 keeps jamming through
        // total dropout, and down node 0 receives none of it.
        let jam_through = FaultSchedule::new(2, vec![1], 1.0, 1.0, 0.0, 9);
        let mut sim =
            Simulator::with_faults(&g, CollisionModel::NoCollisionDetection, 5, Some(jam_through));
        let mut p = crate::testing::EveryRound::new(0, 1u64);
        let stats = sim.run(&mut p, 8);
        assert_eq!(stats.metrics.transmissions, 8, "the adversary is reliable");
        assert_eq!(stats.metrics.deliveries, 0);
        assert_eq!(p.rounds_seen(), 8, "the protocol still runs");
    }

    #[test]
    fn engine_faults_heavy_jamming_blocks_completion_in_both_models() {
        // Path 0-1-2-3: node 1 jams with probability 1, so nothing the
        // source says ever gets past it — the flood must not report all
        // nodes informed, under either collision model or engine.
        let g = generators::path(4);
        for make in [FRONTIER, REFERENCE] {
            for model in [CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection]
            {
                let schedule = FaultSchedule::new(4, vec![1], 1.0, 0.0, 0.0, 9);
                let mut scratch = make();
                let mut sim = Simulator::reuse(&mut scratch, &g, model, 5, Some(schedule));
                let mut p = crate::testing::NaiveFlood::new(4, 0);
                sim.run(&mut p, 256);
                assert_eq!(p.informed_count(), 1, "only the source knows it ({model:?})");
            }
        }
    }

    #[test]
    fn with_faults_constructor_installs_the_schedule() {
        let g = generators::star(3);
        let schedule = FaultSchedule::new(3, vec![2], 1.0, 0.0, 0.0, 7);
        let mut sim =
            Simulator::with_faults(&g, CollisionModel::NoCollisionDetection, 1, Some(schedule));
        let mut p = crate::testing::EveryRound::new(1, 7u64);
        let jammed = sim.run(&mut p, 8).metrics;
        assert_eq!(jammed.deliveries, 0, "the constructor's jammer blocks every delivery");
        // `new` is exactly `with_faults(.., None)`.
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        let mut p = crate::testing::EveryRound::new(1, 7u64);
        assert!(sim.run(&mut p, 8).metrics.deliveries > 0, "no schedule unless one is passed");
    }

    #[test]
    #[should_panic(expected = "resolved for 5 nodes")]
    fn engine_rejects_mismatched_fault_schedule() {
        let g = generators::star(3);
        let faults = Some(FaultSchedule::new(5, vec![0], 0.5, 0.0, 0.0, 7));
        Simulator::with_faults(&g, CollisionModel::NoCollisionDetection, 1, faults);
    }

    #[test]
    fn scratch_constructors_pick_the_engine_mode() {
        let g = generators::path(2);
        let model = CollisionModel::NoCollisionDetection;
        let is_reference = |s: &SimScratch| matches!(s.scratch, Scratch::Reference { .. });
        let sim = Simulator::new(&g, model, 1);
        assert!(!is_reference(sim.store.get()), "fresh simulators step the Frontier engine");
        for (mut scratch, reference) in [
            (SimScratch::new(), false),
            (SimScratch::default(), false),
            (SimScratch::reference(), true),
        ] {
            // The scratch keeps its engine across trials.
            for seed in 1..3 {
                Simulator::reuse(&mut scratch, &g, model, seed, None).run(&mut Silence, 2);
            }
            assert_eq!(is_reference(&scratch), reference);
        }
    }

    /// Wraps a protocol and logs every engine callback in order — the
    /// differential tests compare these logs, which pins not just the
    /// totals but the exact sequence of protocol calls both engines make.
    struct Recorder<P> {
        inner: P,
        log: Vec<(Round, &'static str, NodeId, NodeId)>,
    }

    impl<P: Protocol<Msg = u64>> Protocol for Recorder<P> {
        type Msg = u64;

        fn transmit(&mut self, round: Round, tx: &mut TxBuf<u64>) {
            self.inner.transmit(round, tx);
        }

        fn deliver(&mut self, round: Round, node: NodeId, from: NodeId, msg: &u64) {
            self.log.push((round, "deliver", node, from));
            self.inner.deliver(round, node, from, msg);
        }

        fn collision(&mut self, round: Round, node: NodeId) {
            self.log.push((round, "collision", node, 0));
            self.inner.collision(round, node);
        }
    }

    /// Everything observable from one trial: run stats, the full callback
    /// log, and the final informed count.
    type FloodObservation = (RunStats, Vec<(Round, &'static str, NodeId, NodeId)>, usize);

    /// The two engines, by scratch constructor.
    const REFERENCE: fn() -> SimScratch = SimScratch::reference;
    const FRONTIER: fn() -> SimScratch = SimScratch::new;

    /// Runs one flood trial on a fresh scratch from `scratch` and returns
    /// everything observable: run stats plus the full callback log.
    fn flood_trial(
        scratch: fn() -> SimScratch,
        g: &rn_graph::Graph,
        model: CollisionModel,
        faults: Option<FaultSchedule>,
        seed: u64,
        rounds: u64,
    ) -> FloodObservation {
        let mut scratch = scratch();
        let mut sim = Simulator::reuse(&mut scratch, g, model, seed, faults);
        let mut p = Recorder { inner: crate::testing::NaiveFlood::new(g.n(), 0), log: Vec::new() };
        let stats = sim.run(&mut p, rounds);
        (stats, p.log, p.inner.informed_count())
    }

    #[test]
    fn frontier_matches_reference_exactly_across_models_and_faults() {
        // The frontier path must be byte-identical to the reference path:
        // same stats AND the same per-node delivery log (which pins the
        // protocol-call order, not just the totals). Swept over topologies,
        // both collision models, and every fault axis.
        // `complete(8)` / `complete(40)` floods cross the sparse↔dense
        // dispatch boundary mid-run (round 0 is below the degree-sum
        // trigger, the all-informed rounds are far above it), so this sweep
        // also pins the dense kernel against the reference path.
        let graphs = [
            generators::path(16),
            generators::star(12),
            generators::grid(5, 5),
            generators::complete(8),
            generators::complete(40),
        ];
        type PlanFn = fn(usize, u64) -> FaultSchedule;
        let plans: [Option<PlanFn>; 4] = [
            None,
            Some(|n, s| FaultSchedule::new(n, vec![1, 2], 0.5, 0.0, 0.0, s)),
            Some(|n, s| FaultSchedule::new(n, vec![], 0.0, 0.3, 0.0, s)),
            Some(|n, s| FaultSchedule::new(n, vec![0], 0.4, 0.2, 0.05, s)),
        ];
        for g in &graphs {
            for model in [CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection]
            {
                for plan in &plans {
                    for seed in 0..4u64 {
                        let faults = plan.map(|mk| mk(g.n(), seed + 31));
                        let a = flood_trial(REFERENCE, g, model, faults.clone(), seed, 48);
                        let b = flood_trial(FRONTIER, g, model, faults, seed, 48);
                        assert_eq!(a, b, "mode divergence: n={} {model:?} seed={seed}", g.n());
                    }
                }
            }
        }
    }

    #[test]
    fn dense_kernel_engages_and_matches_reference() {
        // A flood on complete(64): round 0 has one transmitter (degree sum
        // 63 < 64 — sparse), round 1 has 63 (degree sum ≫ n — dense). The
        // frontier run must both *use* the dense kernel (the scratch is
        // built lazily, so its existence proves dispatch happened) and stay
        // identical to the reference engine.
        let g = generators::complete(64);
        let a = flood_trial(REFERENCE, &g, CollisionModel::NoCollisionDetection, None, 1, 16);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        let mut p = Recorder { inner: crate::testing::NaiveFlood::new(g.n(), 0), log: Vec::new() };
        let stats = sim.run(&mut p, 16);
        assert!(sim.store.get().dense.is_some(), "degree-sum trigger must engage the dense kernel");
        assert_eq!(a, (stats, p.log, p.inner.informed_count()));
    }

    #[test]
    fn dense_kernel_engages_under_cd_and_matches_reference() {
        // Since the CD extension, dense rounds cover both collision models:
        // the kernel surfaces collision notifications through the sorted
        // event list in the reference callback order. A flood on
        // complete(64) under CD must engage the kernel *and* replay the
        // reference log byte for byte (deliver/collision interleaving
        // included).
        let g = generators::complete(64);
        let a = flood_trial(REFERENCE, &g, CollisionModel::CollisionDetection, None, 1, 16);
        let mut sim = Simulator::new(&g, CollisionModel::CollisionDetection, 1);
        let mut p = Recorder { inner: crate::testing::NaiveFlood::new(g.n(), 0), log: Vec::new() };
        let stats = sim.run(&mut p, 16);
        assert!(sim.store.get().dense.is_some(), "CD rounds engage the dense kernel");
        assert!(p.log.iter().any(|&(_, kind, _, _)| kind == "collision"), "CD callbacks fired");
        assert_eq!(a, (stats, p.log, p.inner.informed_count()));
    }

    #[test]
    fn dense_kernel_stays_unbuilt_below_the_trigger() {
        // One round of the complete(64) flood has one transmitter (degree
        // sum 63 < 64): the round stays sparse and never builds the dense
        // scratch, so sparse workloads pay nothing for the kernel.
        let g = generators::complete(64);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        let mut p = crate::testing::NaiveFlood::new(g.n(), 0);
        let stats = sim.run(&mut p, 1);
        assert_eq!((stats.metrics.transmissions, stats.metrics.deliveries), (1, 63));
        assert!(sim.store.get().dense.is_none(), "a sparse round leaves the dense scratch unbuilt");
    }

    #[test]
    fn reused_scratch_replays_trials_exactly() {
        // A reused scratch must replay a fresh one exactly — stats,
        // callback log, and informed count — for either engine, across
        // graph switches, fault schedules and model changes between trials.
        let graphs = [generators::path(16), generators::complete(40), generators::star(12)];
        for make in [FRONTIER, REFERENCE] {
            let mut scratch = make();
            for g in &graphs {
                for model in
                    [CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection]
                {
                    for seed in 0..3u64 {
                        let faults = (seed == 2)
                            .then(|| FaultSchedule::new(g.n(), vec![0], 0.4, 0.2, 0.05, seed));
                        let fresh = flood_trial(make, g, model, faults.clone(), seed, 24);
                        let mut sim = Simulator::reuse(&mut scratch, g, model, seed, faults);
                        let mut p = Recorder {
                            inner: crate::testing::NaiveFlood::new(g.n(), 0),
                            log: Vec::new(),
                        };
                        let stats = sim.run(&mut p, 24);
                        let pooled = (stats, p.log, p.inner.informed_count());
                        assert_eq!(fresh, pooled, "pooled divergence: n={} {model:?}", g.n());
                    }
                }
            }
        }
    }

    /// Per-node (heard, collided, transmitted, down) snapshot of one round.
    type NodeBits = Vec<(bool, bool, bool, bool)>;

    /// Logs everything a [`RoundView`] exposes at every round end.
    struct RoundEndProbe<P> {
        inner: P,
        n: usize,
        log: Vec<(Round, Vec<NodeId>, NodeBits)>,
    }

    impl<P: Protocol<Msg = u64>> Protocol for RoundEndProbe<P> {
        type Msg = u64;

        fn transmit(&mut self, round: Round, tx: &mut TxBuf<u64>) {
            self.inner.transmit(round, tx);
        }

        fn deliver(&mut self, round: Round, node: NodeId, from: NodeId, msg: &u64) {
            self.inner.deliver(round, node, from, msg);
        }

        fn collision(&mut self, round: Round, node: NodeId) {
            self.inner.collision(round, node);
        }

        fn round_end(&mut self, round: Round, view: &RoundView<'_>) {
            let mut frontier = view.frontier().to_vec();
            frontier.sort_unstable();
            let bits = (0..self.n as NodeId)
                .map(|v| (view.heard(v), view.collided(v), view.transmitted(v), view.down(v)))
                .collect();
            self.log.push((round, frontier, bits));
        }
    }

    #[test]
    fn round_end_view_is_identical_across_modes_and_kernels() {
        // Every query the RoundView answers must agree bit for bit between
        // the stamp path, the bitset path, and the dense kernel — including
        // under jam/drop/crash faults. The probe also cross-checks the
        // frontier against the per-node heard bits.
        let graphs = [generators::path(12), generators::star(10), generators::complete(24)];
        type PlanFn = fn(usize, u64) -> FaultSchedule;
        let plans: [Option<PlanFn>; 2] =
            [None, Some(|n, s| FaultSchedule::new(n, vec![0], 0.4, 0.2, 0.05, s))];
        for g in &graphs {
            for model in [CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection]
            {
                for plan in &plans {
                    for seed in 0..2u64 {
                        let run = |make: fn() -> SimScratch| {
                            let faults = plan.map(|mk| mk(g.n(), seed + 5));
                            let mut scratch = make();
                            let mut sim = Simulator::reuse(&mut scratch, g, model, seed, faults);
                            let mut p = RoundEndProbe {
                                inner: crate::testing::NaiveFlood::new(g.n(), 0),
                                n: g.n(),
                                log: Vec::new(),
                            };
                            sim.run(&mut p, 24);
                            p.log
                        };
                        let reference = run(REFERENCE);
                        let frontier = run(FRONTIER);
                        assert_eq!(reference.len(), 24, "round_end fires every round");
                        for (r, f) in reference.iter().zip(&frontier) {
                            assert_eq!(r, f, "view divergence: n={} {model:?} seed={seed}", g.n());
                        }
                        for (_, front, bits) in &reference {
                            let heard: Vec<NodeId> =
                                (0..g.n() as NodeId).filter(|&v| bits[v as usize].0).collect();
                            assert_eq!(front, &heard, "frontier == heard set");
                        }
                    }
                }
            }
        }
    }
}
