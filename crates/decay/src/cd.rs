//! **Beep-wave assisted layered decay** — decay broadcasting that actually
//! *exploits* collision detection instead of merely tolerating it.
//!
//! In the CD model a listener distinguishes silence from collision, so any
//! channel energy carries one bit. This protocol spends that bit twice:
//!
//! 1. **Wave phase** (rounds `0..D+1`): the sources beep in round 0 and
//!    every node that hears *anything* — delivery or collision — beeps once
//!    in the next round. After `D + 1` rounds each reached node knows its
//!    **layer**: its BFS distance to the nearest source, read off the round
//!    in which the wave arrived. Simultaneous sources cost nothing extra
//!    (collisions propagate the wave just as well — they are the wave).
//! 2. **Layered decay phase**: rounds are time-sliced `ℓ mod 3`; in a slot
//!    only nodes whose layer is congruent to it run decay steps. A listener
//!    in layer `ℓ` therefore never suffers collisions between its
//!    same-layer neighbors and the layers `ℓ±1` it actually wants to hear
//!    from — the wave's distance labels convert one bit of CD feedback per
//!    round into a collision-avoiding transmission schedule.
//!
//! Values are max-merged at every hop (the multi-source form is a
//! CD-exploiting Compete analogue: with `K` sources holding distinct
//! values, the protocol completes when every node knows the *maximum*).
//! A node the wave missed (possible under faults) still learns a layer from
//! the first data message it hears, so the labeling self-heals.
//!
//! Run under [`rn_sim::CollisionModel::NoCollisionDetection`] the wave
//! stalls (collisions read as silence) — scenarios built on this protocol
//! therefore pin the CD model via `Runnable::effective_model`, exactly like
//! the beep-probe leader election in `rn_baselines`.

use rn_graph::NodeId;
use rn_sim::{rng, NetParams, NodeValues, Protocol, Round, TxBuf, WordBitset};

/// Message alphabet of [`LayeredDecayCd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdMsg {
    /// Wave-phase presence beep (content-free; collisions carry it too).
    Beep,
    /// Decay-phase payload: the transmitter's current value and layer.
    Value(u64, u32),
}

/// The beep-wave assisted layered decay protocol: a `D + 1`-round beep wave
/// labels every node with its layer (distance to the nearest source), then
/// decay rounds are time-sliced by `layer mod 3`, so a listener never hears
/// its own layer collide with the layers it wants to hear from. It needs
/// the collision-detection model; without it the wave stalls.
#[derive(Debug)]
pub struct LayeredDecayCd {
    net: NetParams,
    /// Wave phase length: rounds `0..wave_len` belong to the wave.
    wave_len: u64,
    /// Decay depth (number of densities per decay sweep).
    depth: u32,
    /// Nodes that have (or are scheduled to) beep; `beep_round` holds the
    /// round for set bits only. Sources beep in round 0.
    beeped: WordBitset,
    /// Beep round per node, valid where `beeped` is set.
    beep_round: Vec<u64>,
    /// Nodes whose layer is known; `layer` holds the distance for set bits.
    has_layer: WordBitset,
    /// Layer (distance to the nearest source), valid where `has_layer` is
    /// set.
    layer: Vec<u32>,
    /// Highest value known per node (sources start informed); the informed
    /// bitset + dense value array replaces the old `Vec<Option<u64>>`.
    values: NodeValues,
    /// Wave-phase beep schedule as a flat arena of per-round buckets:
    /// `wave_nodes[wave_cur_start..]` is the bucket for the next wave
    /// round. Pushes are strictly monotone in bucket index — round `r`'s
    /// deliveries/collisions only ever schedule beeps for round `r + 1`,
    /// and `transmit(r)` retires its bucket by advancing `wave_cur_start`
    /// — so one `Vec` with a moving start replaces a `Vec<Vec>` per round.
    /// Each node enters at most once (`beeped` gates pushes), so one
    /// up-front reserve of `n` keeps steady-state pooled trials
    /// allocation-free. Buckets are sorted at emission, so the beep order
    /// matches the original full `beep_at` scan without touching all `n`
    /// nodes every wave round.
    wave_nodes: Vec<NodeId>,
    /// Start offset in `wave_nodes` of the bucket currently being filled.
    wave_cur_start: usize,
    /// Decay-phase participants by time slot (`layer % 3`): a node joins
    /// the moment it becomes informed (its layer is fixed by then and never
    /// changes). Iterating set bits in increasing id order reproduces the
    /// original full-vector scan's transmission order exactly — the decay
    /// coins are stateless per `(round, node)` — while a decay round's cost
    /// is proportional to the informed frontier, not `n`.
    slot_members: [WordBitset; 3],
    /// The maximum source value — the completion target of the
    /// Compete-style scenarios built on this protocol.
    max_source_value: u64,
    /// Nodes whose value has reached `max_source_value`, maintained
    /// incrementally so the per-round completion predicate is `O(1)`.
    know_max: usize,
    seed: u64,
}

impl LayeredDecayCd {
    /// Creates the protocol for `sources` (node, value) pairs on an
    /// `n = params.n()` node network.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or names a node `>= n`.
    pub fn new(params: NetParams, sources: &[(NodeId, u64)], seed: u64) -> LayeredDecayCd {
        let mut p = LayeredDecayCd {
            net: params,
            wave_len: 1,
            depth: 1,
            beeped: WordBitset::new(0),
            beep_round: Vec::new(),
            has_layer: WordBitset::new(0),
            layer: Vec::new(),
            values: NodeValues::new(0),
            wave_nodes: Vec::new(),
            wave_cur_start: 0,
            slot_members: [WordBitset::new(0), WordBitset::new(0), WordBitset::new(0)],
            max_source_value: 0,
            know_max: 0,
            seed,
        };
        p.reset(params, sources, seed);
        p
    }

    /// Re-arms the protocol for a fresh trial, reusing every allocation —
    /// observably identical to [`LayeredDecayCd::new`] with the same
    /// arguments (the fresh constructor is this method applied to an empty
    /// shell). Stale per-node entries are unobservable behind their cleared
    /// bitsets, except for the sources' `beep_round`/`layer`, which are
    /// re-zeroed explicitly. Wave buckets keep their capacities; their
    /// per-trial fill varies, so the decay-CD pooled path is low-alloc
    /// rather than provably allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or names a node `>= n`.
    pub fn reset(&mut self, params: NetParams, sources: &[(NodeId, u64)], seed: u64) {
        assert!(!sources.is_empty(), "layered decay needs at least one source");
        let n = params.n();
        self.net = params;
        self.wave_len = params.diameter() as u64 + 1;
        self.depth = params.log2_n().max(1);
        self.beeped.reset_capacity(n);
        self.beeped.clear_all();
        if self.beep_round.len() != n {
            self.beep_round.clear();
            self.beep_round.resize(n, 0);
        }
        self.has_layer.reset_capacity(n);
        self.has_layer.clear_all();
        if self.layer.len() != n {
            self.layer.clear();
            self.layer.resize(n, 0);
        }
        self.values.reset(n);
        self.wave_nodes.clear();
        self.wave_nodes.reserve(n);
        self.wave_cur_start = 0;
        for s in &mut self.slot_members {
            s.reset_capacity(n);
            s.clear_all();
        }
        for &(s, v) in sources {
            assert!((s as usize) < n, "source {s} out of range for {n} nodes");
            if self.beeped.set(s as usize) {
                // Sources beep in round 0 at layer 0 — overwrite any stale
                // entry from a previous trial.
                self.beep_round[s as usize] = 0;
                self.layer[s as usize] = 0;
                self.wave_nodes.push(s);
            }
            self.has_layer.set(s as usize);
            if self.values.merge_max(s, v) {
                self.slot_members[0].set(s as usize);
            }
        }
        self.max_source_value = sources.iter().map(|&(_, v)| v).max().unwrap();
        self.know_max = (0..n)
            .filter(|&v| self.values.get(v as NodeId).is_some_and(|x| x >= self.max_source_value))
            .count();
        self.seed = seed;
    }

    /// Round budget within which the protocol completes on a connected
    /// graph in the sunny case: the wave plus three times the classical
    /// decay budget (the `mod 3` slicing idles each layer two rounds in
    /// three).
    pub fn budget(&self) -> u64 {
        self.wave_len + 3 * self.net.decay_broadcast_budget()
    }

    /// Whether every node knows a value `>= target` (use the maximum source
    /// value for the Compete-style completion predicate).
    ///
    /// For the canonical target — the maximum source value, which is what
    /// the registered scenarios poll every round — this is an `O(1)`
    /// counter read; other targets fall back to a full scan.
    pub fn all_know_at_least(&self, target: u64) -> bool {
        if target == self.max_source_value {
            return self.know_max == self.values.len();
        }
        self.values.all_know_at_least(target)
    }

    /// The value currently known by `node`.
    pub fn value_of(&self, node: NodeId) -> Option<u64> {
        self.values.get(node)
    }

    /// The layer (distance to the nearest source) `node` has learned, if
    /// any.
    pub fn layer_of(&self, node: NodeId) -> Option<u32> {
        self.has_layer.contains(node as usize).then(|| self.layer[node as usize])
    }

    /// Number of informed nodes.
    pub fn informed_count(&self) -> usize {
        self.values.informed_count()
    }

    fn wave_hears(&mut self, round: Round, node: NodeId) {
        if round + 1 >= self.wave_len {
            return;
        }
        if self.beeped.set(node as usize) {
            self.beep_round[node as usize] = round + 1;
            self.has_layer.set(node as usize);
            self.layer[node as usize] = (round + 1) as u32;
            self.wave_nodes.push(node);
        }
    }

    /// Records that `node` just became informed (first `merge_max` hit):
    /// joins its layer's decay slot. The layer is always known by this
    /// point and never changes afterwards, so slot membership is final.
    fn joins_decay(&mut self, node: NodeId) {
        assert!(self.has_layer.contains(node as usize), "informed node must have a layer");
        let layer = self.layer[node as usize];
        self.slot_members[(layer % 3) as usize].set(node as usize);
    }
}

impl Protocol for LayeredDecayCd {
    type Msg = CdMsg;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<CdMsg>) {
        if round < self.wave_len {
            // This round's bucket was filled during round - 1 (in engine
            // discovery order) and is complete by now; sorting restores the
            // increasing-id emission order of the original beep_at scan.
            self.wave_nodes[self.wave_cur_start..].sort_unstable();
            for i in self.wave_cur_start..self.wave_nodes.len() {
                tx.send(self.wave_nodes[i], CdMsg::Beep);
            }
            // Retire the bucket: deliveries of this round fill the next.
            self.wave_cur_start = self.wave_nodes.len();
            return;
        }
        let r2 = round - self.wave_len;
        let slot = (r2 % 3) as usize;
        // Decay density for this slot's sweep position.
        let i = ((r2 / 3) % self.depth as u64) as u32;
        let p = 0.5f64.powi(i as i32);
        let round_seed = rng::derive(self.seed, round);
        // Only this slot's informed nodes, in increasing id order — the
        // same nodes the original 0..n scan would have reached, drawing the
        // same stateless per-(round, node) coins.
        for v in self.slot_members[slot].iter_ones() {
            let Some(val) = self.values.get(v as NodeId) else { continue };
            let layer = self.layer[v];
            let coin = (rng::derive(round_seed, v as u64) >> 11) as f64 / (1u64 << 53) as f64;
            if coin < p {
                tx.send(v as NodeId, CdMsg::Value(val, layer));
            }
        }
    }

    fn deliver(&mut self, round: Round, node: NodeId, _from: NodeId, msg: &CdMsg) {
        match *msg {
            CdMsg::Beep => self.wave_hears(round, node),
            CdMsg::Value(val, sender_layer) => {
                // Wave stragglers adopt a layer from the first data message
                // (one hop further out than the sender).
                if self.has_layer.set(node as usize) {
                    self.layer[node as usize] = sender_layer + 1;
                }
                let max = self.max_source_value;
                let was_at_max = self.values.get(node).is_some_and(|x| x >= max);
                let newly_informed = self.values.merge_max(node, val);
                if !was_at_max && val >= max {
                    self.know_max += 1;
                }
                if newly_informed {
                    self.joins_decay(node);
                }
            }
        }
    }

    fn collision(&mut self, round: Round, node: NodeId) {
        // The CD model's extra power: during the wave, a collision carries
        // the presence bit exactly like a delivery.
        if round < self.wave_len {
            self.wave_hears(round, node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_sim::{CollisionModel, Simulator};

    #[test]
    fn wave_labels_layers_with_bfs_distances() {
        let g = generators::grid(8, 8);
        let net = NetParams::of_graph(&g);
        let mut p = LayeredDecayCd::new(net, &[(0, 7)], 3);
        let wave = p.wave_len;
        let mut sim = Simulator::new(&g, CollisionModel::CollisionDetection, 3);
        sim.run(&mut p, wave);
        let dist = rn_graph::traversal::bfs(&g, 0);
        for v in g.nodes() {
            assert_eq!(p.layer_of(v), Some(dist[v as usize]), "layer of node {v}");
        }
    }

    #[test]
    fn single_source_completes_under_cd_and_stalls_without_it() {
        let g = generators::grid(8, 8);
        let net = NetParams::of_graph(&g);
        let mut p = LayeredDecayCd::new(net, &[(0, 42)], 5);
        let budget = p.budget();
        let mut sim = Simulator::new(&g, CollisionModel::CollisionDetection, 5);
        sim.run_until(&mut p, budget, |_, p| p.all_know_at_least(42));
        assert!(p.all_know_at_least(42), "CD run informs everyone");

        // The identical protocol without collision detection: the wave
        // stalls wherever two beepers collide, so layers go missing and the
        // run cannot complete on a graph wide enough to collide.
        let g = generators::grid(6, 6);
        let net = NetParams::of_graph(&g);
        let mut p = LayeredDecayCd::new(net, &[(0, 42), (35, 41)], 5);
        let budget = p.wave_len;
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 5);
        sim.run(&mut p, budget);
        let labeled = g.nodes().filter(|&v| p.layer_of(v).is_some()).count();
        assert!(labeled < g.n(), "without CD the wave must lose nodes to collisions");
    }

    #[test]
    fn multi_source_max_reaches_everyone() {
        // Competing sources at opposite corners: the max value must cross
        // the watershed between their wave regions.
        let g = generators::grid(9, 9);
        let net = NetParams::of_graph(&g);
        let sources = [(0u32, 5u64), (80u32, 9u64), (8u32, 3u64)];
        let mut p = LayeredDecayCd::new(net, &sources, 11);
        let budget = p.budget();
        let mut sim = Simulator::new(&g, CollisionModel::CollisionDetection, 11);
        let stats = sim.run_until(&mut p, budget, |_, p| p.all_know_at_least(9));
        assert!(p.all_know_at_least(9), "everyone learns the maximum");
        assert!(stats.rounds > p.wave_len, "completion needs the decay phase");
    }

    #[test]
    fn fast_path_transmissions_match_the_dense_scan_every_round() {
        // The bucketed wave and slot-bitset decay iteration must transmit
        // exactly the nodes the original dense 0..n scans selected. The
        // dense scans are re-derived here from the protocol's full state
        // (the coins are stateless per (round, node), so they can be
        // recomputed) and checked against the engine's per-round
        // transmission count, round by round.
        let g = generators::grid(7, 7);
        let net = NetParams::of_graph(&g);
        let mut p = LayeredDecayCd::new(net, &[(0, 5), (48, 9)], 13);
        let budget = p.budget().min(200);
        let mut sim = Simulator::new(&g, CollisionModel::CollisionDetection, 13);
        let mut last_tx = 0;
        for round in 0..budget {
            let expected = if round < p.wave_len {
                (0..g.n()).filter(|&v| p.beeped.contains(v) && p.beep_round[v] == round).count()
                    as u64
            } else {
                let r2 = round - p.wave_len;
                let slot = (r2 % 3) as u32;
                let i = ((r2 / 3) % p.depth as u64) as u32;
                let prob = 0.5f64.powi(i as i32);
                let round_seed = rng::derive(p.seed, round);
                (0..p.values.len())
                    .filter(|&v| {
                        if !p.has_layer.contains(v) || !p.values.is_informed(v as NodeId) {
                            return false;
                        }
                        p.layer[v] % 3 == slot
                            && ((rng::derive(round_seed, v as u64) >> 11) as f64
                                / (1u64 << 53) as f64)
                                < prob
                    })
                    .count() as u64
            };
            sim.step_with(&mut p);
            let tx = sim.metrics().transmissions;
            assert_eq!(tx - last_tx, expected, "transmitter count diverged in round {round}");
            last_tx = tx;
        }
        assert!(p.all_know_at_least(9), "the run completes within budget");
        assert_eq!(
            p.informed_count(),
            p.values.informed().count_ones(),
            "incremental informed counter matches a dense recount"
        );
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let g = generators::grid(6, 6);
        let net = NetParams::of_graph(&g);
        let run = |seed: u64| {
            let mut p = LayeredDecayCd::new(net, &[(0, 1), (20, 2)], seed);
            let budget = p.budget();
            let mut sim = Simulator::new(&g, CollisionModel::CollisionDetection, seed);
            let stats = sim.run_until(&mut p, budget, |_, p| p.all_know_at_least(2));
            (stats.rounds, stats.metrics)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds give different executions");
    }
}
