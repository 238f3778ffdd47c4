use crate::primitive::DecaySteps;
use rand::rngs::SmallRng;
use rn_graph::NodeId;
use rn_sim::rng::{self, bernoulli_indices, bernoulli_pow2_indices, WordStream};
use rn_sim::{NetParams, NodeValues, Protocol, Round, TxBuf};

/// How a decay protocol draws its per-round transmission coins.
///
/// The two samplers draw *different* (equally valid) random sequences, so
/// the choice is part of a run's identity: registered scenario families pin
/// [`CoinSampler::PerIndex`] — the historical sequence all committed
/// baselines were recorded under — and the batched sampler is opt-in for
/// large-scale runs, where drawing 64 coins per `u64` word beats the
/// per-success geometric skipping once frontiers reach `10⁵`–`10⁶` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoinSampler {
    /// Geometric index skipping over the informed list (`SmallRng`);
    /// cost `O(successes)` per round. The default and baseline-pinned
    /// sequence.
    #[default]
    PerIndex,
    /// Word-batched sampling from a [`WordStream`]: one `u64` draw yields
    /// 64 fair coins, AND-ed `j` deep for the decay probability `2^-j`;
    /// cost `O(frontier/64 · j)` per round regardless of density.
    Batched,
}

/// The sampler state behind a [`CoinSampler`] choice.
#[derive(Debug)]
enum CoinState {
    PerIndex(SmallRng),
    Batched(WordStream),
}

impl CoinState {
    fn new(sampler: CoinSampler, seed: u64) -> CoinState {
        match sampler {
            CoinSampler::PerIndex => CoinState::PerIndex(rng::rng_from_seed(seed)),
            CoinSampler::Batched => CoinState::Batched(WordStream::new(seed, 0xC01)),
        }
    }
}

/// The Bar-Yehuda–Goldreich–Itai broadcasting algorithm (1992).
///
/// All informed nodes run globally synchronized decay rounds; a node that
/// receives the message joins from the next step on. Completes broadcasting
/// in `O((D + log n)·log n)` rounds with high probability — the classical
/// baseline of the paper's §1.3. Nodes *never transmit spontaneously*: this
/// algorithm is correct in the more restrictive no-spontaneous-transmissions
/// model, which is exactly why it is the comparison point for the paper's
/// spontaneous-transmission speedups.
///
/// The implementation is multi-source and max-propagating: every source
/// starts with a `u64` value, informed nodes always transmit the highest
/// value they know, and receivers upgrade. With a single source this is
/// plain broadcasting; with many it is the multi-source broadcast needed by
/// the binary-search leader-election reduction.
#[derive(Debug)]
pub struct DecayBroadcast {
    steps: DecaySteps,
    /// Highest value known per node, frontier-native layout: informed
    /// bitset + dense value vector (see [`NodeValues`]).
    values: NodeValues,
    /// Dense list of informed nodes, in the order they were informed — the
    /// coin-index space of the decay draw, so its push order is part of a
    /// run's identity.
    informed_list: Vec<NodeId>,
    coins: CoinState,
    scratch: Vec<usize>,
}

impl DecayBroadcast {
    /// Multi-source broadcast: each `(node, value)` pair starts informed.
    /// Coins come from the default [`CoinSampler::PerIndex`] sampler.
    pub fn new(params: NetParams, sources: &[(NodeId, u64)], seed: u64) -> DecayBroadcast {
        DecayBroadcast::with_coin_sampler(params, sources, seed, CoinSampler::default())
    }

    /// Multi-source broadcast with an explicit coin sampler (see
    /// [`CoinSampler`] for when the batched variant pays off).
    pub fn with_coin_sampler(
        params: NetParams,
        sources: &[(NodeId, u64)],
        seed: u64,
        sampler: CoinSampler,
    ) -> DecayBroadcast {
        let mut p = DecayBroadcast {
            steps: DecaySteps::for_params(&params),
            values: NodeValues::new(0),
            informed_list: Vec::new(),
            coins: CoinState::new(sampler, seed),
            scratch: Vec::new(),
        };
        p.reset(params, sources, seed, sampler);
        p
    }

    /// Re-arms the protocol for a fresh trial, reusing every allocation —
    /// observably identical to [`DecayBroadcast::with_coin_sampler`] with
    /// the same arguments (the fresh constructor is this method applied to
    /// an empty shell, so the two paths cannot drift). Buffers are reserved
    /// to their worst-case bound `n`, so a pooled steady-state trial never
    /// touches the heap.
    pub fn reset(
        &mut self,
        params: NetParams,
        sources: &[(NodeId, u64)],
        seed: u64,
        sampler: CoinSampler,
    ) {
        self.steps = DecaySteps::for_params(&params);
        self.values.reset(params.n());
        self.informed_list.clear();
        self.informed_list.reserve(params.n());
        for &(s, v) in sources {
            if self.values.merge_max(s, v) {
                self.informed_list.push(s);
            }
        }
        self.coins = CoinState::new(sampler, seed);
        self.scratch.clear();
        self.scratch.reserve(params.n());
    }

    /// Single-source broadcast of `value` from `source`.
    pub fn single_source(
        params: NetParams,
        source: NodeId,
        value: u64,
        seed: u64,
    ) -> DecayBroadcast {
        DecayBroadcast::new(params, &[(source, value)], seed)
    }

    /// Whether every node knows some value.
    pub fn all_informed(&self) -> bool {
        self.values.all_informed()
    }

    /// Whether every node knows a value `>= target`.
    pub fn all_know_at_least(&self, target: u64) -> bool {
        self.values.all_know_at_least(target)
    }

    /// The value currently known by `node`.
    pub fn value_of(&self, node: NodeId) -> Option<u64> {
        self.values.get(node)
    }

    /// Number of informed nodes.
    pub fn informed_count(&self) -> usize {
        self.informed_list.len()
    }
}

impl Protocol for DecayBroadcast {
    type Msg = u64;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<u64>) {
        self.scratch.clear();
        match &mut self.coins {
            CoinState::PerIndex(rng) => {
                let p = self.steps.probability(round);
                bernoulli_indices(rng, self.informed_list.len(), p, &mut self.scratch);
            }
            CoinState::Batched(ws) => {
                let j = self.steps.exponent(round);
                bernoulli_pow2_indices(ws, self.informed_list.len(), j, &mut self.scratch);
            }
        }
        for &idx in &self.scratch {
            let u = self.informed_list[idx];
            let v = self.values.get(u).expect("informed nodes have values");
            tx.send(u, v);
        }
    }

    fn deliver(&mut self, _round: Round, node: NodeId, _from: NodeId, msg: &u64) {
        if self.values.merge_max(node, *msg) {
            self.informed_list.push(node);
        }
    }
}

/// Truncated-decay broadcast: the Czumaj–Rytter / Kowalski–Pelc-*style*
/// baseline with running time shape `O(D·log(n/D) + log² n)`.
///
/// Informed nodes run decay rounds truncated to depth
/// `k = ⌈log₂(n/D)⌉ + 2`: along a shortest path the number of simultaneously
/// competing informed neighbors is typically `O(n/D)`, so the truncated
/// rounds advance the frontier in `O(log(n/D))` steps instead of
/// `O(log n)`. Every `full_every`-th decay round runs at full depth
/// `⌈log₂ n⌉` to resolve high-degree hot spots (dense blobs attached to long
/// paths), which truncation alone cannot break.
///
/// This reproduces the *complexity shape* of [9, 14], not their exact
/// selection-sequence constructions.
#[derive(Debug)]
pub struct TruncatedDecayBroadcast {
    trunc: DecaySteps,
    full: DecaySteps,
    /// Full-depth decay round every this many rounds (≥ 1).
    full_every: u64,
    /// Highest value known per node (frontier-native layout).
    values: NodeValues,
    informed_list: Vec<NodeId>,
    coins: CoinState,
    scratch: Vec<usize>,
    /// Precomputed cycle: step offsets → probability, spanning
    /// `(full_every - 1)` truncated rounds followed by one full round.
    cycle_probs: Vec<f64>,
    /// The same cycle as exponents `j` (probability `2^-j`), for the
    /// word-batched sampler.
    cycle_exponents: Vec<u32>,
}

impl TruncatedDecayBroadcast {
    /// Multi-source truncated-decay broadcast with the default
    /// [`CoinSampler::PerIndex`] sampler.
    pub fn new(params: NetParams, sources: &[(NodeId, u64)], seed: u64) -> TruncatedDecayBroadcast {
        TruncatedDecayBroadcast::with_coin_sampler(params, sources, seed, CoinSampler::default())
    }

    /// Multi-source truncated-decay broadcast with an explicit coin
    /// sampler (see [`CoinSampler`]).
    pub fn with_coin_sampler(
        params: NetParams,
        sources: &[(NodeId, u64)],
        seed: u64,
        sampler: CoinSampler,
    ) -> TruncatedDecayBroadcast {
        let mut p = TruncatedDecayBroadcast {
            trunc: DecaySteps::new(2),
            full: DecaySteps::new(2),
            full_every: 2,
            values: NodeValues::new(0),
            informed_list: Vec::new(),
            coins: CoinState::new(sampler, seed),
            scratch: Vec::new(),
            cycle_probs: Vec::new(),
            cycle_exponents: Vec::new(),
        };
        p.reset(params, sources, seed, sampler);
        p
    }

    /// Re-arms the protocol for a fresh trial, reusing every allocation —
    /// observably identical to
    /// [`TruncatedDecayBroadcast::with_coin_sampler`] with the same
    /// arguments (the fresh constructor is this method applied to an empty
    /// shell). The cycle tables are rebuilt in place; for a pool reused on
    /// one topology their length never changes, so steady-state trials
    /// never touch the heap.
    pub fn reset(
        &mut self,
        params: NetParams,
        sources: &[(NodeId, u64)],
        seed: u64,
        sampler: CoinSampler,
    ) {
        let log_n = params.log2_n();
        let d = params.diameter().max(1) as f64;
        let ratio = (params.n() as f64 / d).max(2.0);
        let trunc_depth = (ratio.log2().ceil() as u32 + 2).clamp(2, log_n.max(2));
        // Full rounds rare enough not to dominate: one per ⌈log n / k⌉ rounds.
        let full_every = ((log_n as f64 / trunc_depth as f64).ceil() as u64).max(2);

        self.trunc = DecaySteps::new(trunc_depth);
        self.full = DecaySteps::new(log_n.max(trunc_depth));
        self.full_every = full_every;
        self.cycle_probs.clear();
        self.cycle_exponents.clear();
        for _ in 0..(full_every - 1) {
            for i in 0..self.trunc.round_len() {
                self.cycle_probs.push(self.trunc.probability(i as u64));
                self.cycle_exponents.push(self.trunc.exponent(i as u64));
            }
        }
        for i in 0..self.full.round_len() {
            self.cycle_probs.push(self.full.probability(i as u64));
            self.cycle_exponents.push(self.full.exponent(i as u64));
        }

        self.values.reset(params.n());
        self.informed_list.clear();
        self.informed_list.reserve(params.n());
        for &(s, v) in sources {
            if self.values.merge_max(s, v) {
                self.informed_list.push(s);
            }
        }
        self.coins = CoinState::new(sampler, seed);
        self.scratch.clear();
        self.scratch.reserve(params.n());
    }

    /// Single-source variant.
    pub fn single_source(
        params: NetParams,
        source: NodeId,
        value: u64,
        seed: u64,
    ) -> TruncatedDecayBroadcast {
        TruncatedDecayBroadcast::new(params, &[(source, value)], seed)
    }

    /// Whether every node knows some value.
    pub fn all_informed(&self) -> bool {
        self.values.all_informed()
    }

    /// The value currently known by `node`.
    pub fn value_of(&self, node: NodeId) -> Option<u64> {
        self.values.get(node)
    }

    /// Depth of the truncated rounds (exposed for tests/diagnostics).
    pub fn truncated_depth(&self) -> u32 {
        self.trunc.round_len()
    }

    /// Depth of the periodic full rounds.
    pub fn full_depth(&self) -> u32 {
        self.full.round_len()
    }

    /// How often (in decay rounds) a full-depth round runs.
    pub fn full_round_period(&self) -> u64 {
        self.full_every
    }
}

impl Protocol for TruncatedDecayBroadcast {
    type Msg = u64;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<u64>) {
        let step = (round % self.cycle_probs.len() as u64) as usize;
        self.scratch.clear();
        match &mut self.coins {
            CoinState::PerIndex(rng) => {
                let p = self.cycle_probs[step];
                bernoulli_indices(rng, self.informed_list.len(), p, &mut self.scratch);
            }
            CoinState::Batched(ws) => {
                let j = self.cycle_exponents[step];
                bernoulli_pow2_indices(ws, self.informed_list.len(), j, &mut self.scratch);
            }
        }
        for &idx in &self.scratch {
            let u = self.informed_list[idx];
            let v = self.values.get(u).expect("informed nodes have values");
            tx.send(u, v);
        }
    }

    fn deliver(&mut self, _round: Round, node: NodeId, _from: NodeId, msg: &u64) {
        if self.values.merge_max(node, *msg) {
            self.informed_list.push(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::{generators, Graph};
    use rn_sim::{CollisionModel, Simulator};

    fn run_to_completion<P: Protocol>(
        g: &Graph,
        p: &mut P,
        all_done: impl Fn(&P) -> bool,
        budget: u64,
        seed: u64,
    ) -> Option<u64> {
        let mut sim = Simulator::new(g, CollisionModel::NoCollisionDetection, seed);
        let stats = sim.run_until(p, budget, |_, p| all_done(p));
        if all_done(p) {
            Some(stats.rounds)
        } else {
            None
        }
    }

    #[test]
    fn bgi_completes_on_path() {
        let g = generators::path(64);
        let params = NetParams::of_graph(&g);
        let mut p = DecayBroadcast::single_source(params, 0, 42, 7);
        let rounds =
            run_to_completion(&g, &mut p, |p| p.all_informed(), 200_000, 7).expect("completes");
        assert!(rounds > 0);
        assert!(g.nodes().all(|v| p.value_of(v) == Some(42)));
    }

    #[test]
    fn bgi_completes_on_dense_star() {
        // High-degree hub: decay's low-probability steps are what resolve it.
        let g = generators::star(256);
        let params = NetParams::of_graph(&g);
        let mut p = DecayBroadcast::single_source(params, 5, 1, 3);
        assert!(run_to_completion(&g, &mut p, |p| p.all_informed(), 100_000, 3).is_some());
    }

    #[test]
    fn bgi_multi_source_propagates_max() {
        let g = generators::path(32);
        let params = NetParams::of_graph(&g);
        let mut p = DecayBroadcast::new(params, &[(0, 10), (31, 99), (16, 50)], 11);
        run_to_completion(&g, &mut p, |p| p.all_know_at_least(99), 200_000, 11)
            .expect("max value reaches everyone");
        assert!(g.nodes().all(|v| p.value_of(v) == Some(99)));
    }

    #[test]
    fn bgi_never_transmits_spontaneously() {
        // Uninformed nodes must stay silent: run on a disconnected-ish star
        // where the source is a leaf; total transmissions in the first round
        // can only come from the single informed node.
        let g = generators::star(8);
        let params = NetParams::new(8, 2);
        let mut p = DecayBroadcast::single_source(params, 1, 1, 13);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 13);
        let stats = sim.run(&mut p, 1);
        assert!(stats.metrics.transmissions <= 1);
    }

    #[test]
    fn bgi_batched_coins_complete_and_differ_from_per_index() {
        // The batched sampler is a different (equally valid) random
        // sequence: broadcasting must still complete, and the default
        // sampler's sequence — which all committed baselines pin — must be
        // untouched by its existence.
        let g = generators::path(64);
        let params = NetParams::of_graph(&g);
        let mut batched =
            DecayBroadcast::with_coin_sampler(params, &[(0, 42)], 7, CoinSampler::Batched);
        let batched_rounds = run_to_completion(&g, &mut batched, |p| p.all_informed(), 200_000, 7)
            .expect("batched sampler completes");
        assert!(g.nodes().all(|v| batched.value_of(v) == Some(42)));

        let run_default = || {
            let mut p = DecayBroadcast::single_source(params, 0, 42, 7);
            run_to_completion(&g, &mut p, |p| p.all_informed(), 200_000, 7).expect("completes")
        };
        assert_eq!(run_default(), run_default(), "default sampler is deterministic");
        assert_ne!(
            batched_rounds,
            run_default(),
            "the samplers draw different sequences (same seed)"
        );
    }

    #[test]
    fn duplicate_sources_are_merged() {
        let g = generators::path(4);
        let params = NetParams::of_graph(&g);
        let p = DecayBroadcast::new(params, &[(0, 5), (0, 9)], 1);
        assert_eq!(p.informed_count(), 1);
        assert_eq!(p.value_of(0), Some(9), "keeps the max");
    }

    #[test]
    fn truncated_completes_on_path() {
        let g = generators::path(128);
        let params = NetParams::of_graph(&g);
        let mut p = TruncatedDecayBroadcast::single_source(params, 0, 1, 17);
        assert!(p.truncated_depth() < p.full_depth() || params.log2_n() <= 3);
        assert!(run_to_completion(&g, &mut p, |p| p.all_informed(), 400_000, 17).is_some());
    }

    #[test]
    fn truncated_completes_on_barbell() {
        // The hard case for pure truncation: a dense clique must elect a
        // single speaker to push the message over the bridge. The periodic
        // full-depth rounds handle it.
        let g = generators::barbell(40, 20);
        let params = NetParams::of_graph(&g);
        let mut p = TruncatedDecayBroadcast::single_source(params, 0, 1, 23);
        assert!(run_to_completion(&g, &mut p, |p| p.all_informed(), 400_000, 23).is_some());
    }

    #[test]
    fn truncated_batched_coins_complete_and_differ_from_per_index() {
        // Same contract as the BGI variant: the word-batched sampler is a
        // different valid sequence, completion still holds, and the default
        // per-index sequence is untouched.
        let g = generators::path(128);
        let params = NetParams::of_graph(&g);
        let mut batched = TruncatedDecayBroadcast::with_coin_sampler(
            params,
            &[(0, 42)],
            17,
            CoinSampler::Batched,
        );
        let batched_rounds = run_to_completion(&g, &mut batched, |p| p.all_informed(), 400_000, 17)
            .expect("batched sampler completes");
        assert!(g.nodes().all(|v| batched.value_of(v) == Some(42)));
        let run_default = || {
            let mut p = TruncatedDecayBroadcast::single_source(params, 0, 42, 17);
            run_to_completion(&g, &mut p, |p| p.all_informed(), 400_000, 17).expect("completes")
        };
        assert_eq!(run_default(), run_default(), "default sampler is deterministic");
        assert_ne!(batched_rounds, run_default(), "different sequences for the same seed");
    }

    #[test]
    fn truncated_cycle_exponents_match_probabilities() {
        // The batched sampler draws Bernoulli(2^-j) from the exponent
        // cycle; it must describe exactly the same schedule as the float
        // probabilities the per-index sampler uses.
        let g = generators::barbell(40, 20);
        let params = NetParams::of_graph(&g);
        let p = TruncatedDecayBroadcast::single_source(params, 0, 1, 1);
        assert_eq!(p.cycle_probs.len(), p.cycle_exponents.len());
        for (&prob, &j) in p.cycle_probs.iter().zip(&p.cycle_exponents) {
            assert_eq!(prob, 0.5f64.powi(j as i32), "exponent {j} vs probability {prob}");
        }
    }

    #[test]
    fn truncated_beats_bgi_on_long_paths() {
        // On a long path with n/D = O(1), truncated rounds are ~2-4 steps vs
        // log n for BGI: the paper's §1.3 complexity separation in miniature.
        let g = generators::path(512);
        let params = NetParams::of_graph(&g);
        let mut bgi_total = 0u64;
        let mut trunc_total = 0u64;
        for seed in 0..3 {
            let mut bgi = DecayBroadcast::single_source(params, 0, 1, seed);
            bgi_total +=
                run_to_completion(&g, &mut bgi, |p| p.all_informed(), 2_000_000, seed).unwrap();
            let mut tr = TruncatedDecayBroadcast::single_source(params, 0, 1, seed);
            trunc_total +=
                run_to_completion(&g, &mut tr, |p| p.all_informed(), 2_000_000, seed).unwrap();
        }
        assert!(
            trunc_total < bgi_total,
            "truncated ({trunc_total}) should beat BGI ({bgi_total}) on paths"
        );
    }
}
