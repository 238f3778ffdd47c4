use crate::primitive::DecaySteps;
use rand::rngs::SmallRng;
use rn_graph::NodeId;
use rn_sim::rng::{self, bernoulli_indices_ln_q, bernoulli_pow2_indices, WordStream};
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

/// Which cycle of decay depths a [`DecayBroadcast`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecaySchedule {
    /// Bar-Yehuda–Goldreich–Itai (1992): every decay round runs at full
    /// depth `⌈log₂ n⌉`. Completes in `O((D + log n)·log n)` rounds whp.
    #[default]
    Full,
    /// Czumaj–Rytter / Kowalski–Pelc-*style* truncation, with running time
    /// shape `O(D·log(n/D) + log² n)`: decay rounds truncated to depth
    /// `k = ⌈log₂(n/D)⌉ + 2`, since along a shortest path the number of
    /// simultaneously competing informed neighbors is typically `O(n/D)`.
    /// Every `⌈log₂ n / k⌉`-th round (at least every second) runs at full
    /// depth to resolve high-degree hot spots (dense blobs attached to long
    /// paths), which truncation alone cannot break. This reproduces the
    /// *complexity shape* of [9, 14], not their exact selection-sequence
    /// constructions.
    Truncated,
}

/// Multi-source, max-propagating decay broadcast: the BGI'92 algorithm and
/// its truncated variant, the two classical baselines of the paper's §1.3.
///
/// All informed nodes run globally synchronized decay rounds, whose depths
/// follow the [`DecaySchedule`]; a node that receives the message joins
/// from the next step on. Nodes *never transmit spontaneously*: both
/// schedules are correct in the more restrictive
/// no-spontaneous-transmissions model, which is exactly why they are the
/// comparison point for the paper's spontaneous-transmission speedups.
///
/// Every source starts with a `u64` value, informed nodes always transmit
/// the highest value they know, and receivers upgrade. With a single source
/// this is plain broadcasting; with many it is the multi-source broadcast
/// needed by the binary-search leader-election reduction.
#[derive(Debug)]
pub struct DecayBroadcast {
    /// The cycle of decay depths. [`DecayBroadcast::reset`] reads it to lay
    /// out the trial's exponent cycle, so a change takes effect from the
    /// next reset.
    pub schedule: DecaySchedule,
    /// One period of the schedule as decay exponents `j` (transmission
    /// probability `2^-j`), indexed by `round mod len`.
    cycle: Vec<u32>,
    /// `ln(1 − 2^-j)` for each entry of `cycle`: the per-index sampler's
    /// geometric-skip constant, computed once per reset instead of once per
    /// round.
    ln_q: Vec<f64>,
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

impl Default for DecayBroadcast {
    /// The empty shell pools start from; [`DecayBroadcast::reset`] arms it.
    fn default() -> DecayBroadcast {
        DecayBroadcast {
            schedule: DecaySchedule::default(),
            cycle: Vec::new(),
            ln_q: Vec::new(),
            values: NodeValues::new(0),
            informed_list: Vec::new(),
            coins: CoinState::new(CoinSampler::default(), 0),
            scratch: Vec::new(),
        }
    }
}

impl DecayBroadcast {
    /// Multi-source BGI broadcast: each `(node, value)` pair starts
    /// informed. Coins come from the default [`CoinSampler::PerIndex`]
    /// sampler.
    pub fn new(params: NetParams, sources: &[(NodeId, u64)], seed: u64) -> DecayBroadcast {
        DecayBroadcast::with_coin_sampler(params, sources, seed, CoinSampler::default())
    }

    /// Multi-source BGI broadcast with an explicit coin sampler (see
    /// [`CoinSampler`] for when the batched variant pays off).
    pub fn with_coin_sampler(
        params: NetParams,
        sources: &[(NodeId, u64)],
        seed: u64,
        sampler: CoinSampler,
    ) -> DecayBroadcast {
        let mut p = DecayBroadcast::default();
        p.reset(params, sources, seed, sampler);
        p
    }

    /// Re-arms the protocol for a fresh trial under its current
    /// [`DecayBroadcast::schedule`], reusing every allocation. Both
    /// constructors are this method applied to the empty
    /// [`DecayBroadcast::default`] shell (schedule [`DecaySchedule::Full`]),
    /// so the paths cannot drift; set `schedule` on a shell before the
    /// reset to run another one. Buffers are reserved to their worst-case
    /// bound `n`, and the cycle's length depends only on `n` and `D`, so a
    /// pooled steady-state trial never touches the heap.
    pub fn reset(
        &mut self,
        params: NetParams,
        sources: &[(NodeId, u64)],
        seed: u64,
        sampler: CoinSampler,
    ) {
        let decay_round =
            |steps: DecaySteps| (0..steps.round_len() as u64).map(move |i| steps.exponent(i));
        let mut full = DecaySteps::for_params(&params);
        self.cycle.clear();
        if self.schedule == DecaySchedule::Truncated {
            let log_n = full.round_len();
            let d = params.diameter().max(1) as f64;
            let ratio = (params.n() as f64 / d).max(2.0);
            let k = (ratio.log2().ceil() as u32 + 2).clamp(2, log_n.max(2));
            // Full rounds rare enough not to dominate: one per ⌈log n / k⌉.
            let full_every = ((log_n as f64 / k as f64).ceil() as u64).max(2);
            for _ in 1..full_every {
                self.cycle.extend(decay_round(DecaySteps::new(k)));
            }
            full = DecaySteps::new(log_n.max(k));
        }
        self.cycle.extend(decay_round(full));
        self.ln_q.clear();
        self.ln_q.extend(self.cycle.iter().map(|&j| (1.0 - 2f64.powi(-(j as i32))).ln()));

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

    /// One period of the decay cycle as exponents `j` (probability `2^-j`),
    /// the layout [`DecayBroadcast::reset`] built from the schedule.
    pub fn cycle(&self) -> &[u32] {
        &self.cycle
    }
}

impl Protocol for DecayBroadcast {
    type Msg = u64;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<u64>) {
        let pos = (round % self.cycle.len() as u64) as usize;
        self.scratch.clear();
        match &mut self.coins {
            // `bernoulli_indices` with p = 2^-j ∈ (0, 1/2], minus its
            // per-call logarithm.
            CoinState::PerIndex(rng) => {
                let k = self.informed_list.len();
                bernoulli_indices_ln_q(rng, k, self.ln_q[pos], &mut self.scratch);
            }
            CoinState::Batched(ws) => {
                let j = self.cycle[pos];
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

    /// A broadcast from `sources` under `schedule`, armed the way
    /// `DecayScenario` arms its pooled shell.
    fn scheduled(
        params: NetParams,
        sources: &[(NodeId, u64)],
        seed: u64,
        coins: CoinSampler,
        schedule: DecaySchedule,
    ) -> DecayBroadcast {
        let mut p = DecayBroadcast { schedule, ..DecayBroadcast::default() };
        p.reset(params, sources, seed, coins);
        p
    }

    /// Single-source truncated-decay broadcast with the default sampler.
    fn truncated(params: NetParams, source: NodeId, value: u64, seed: u64) -> DecayBroadcast {
        let coins = CoinSampler::default();
        scheduled(params, &[(source, value)], seed, coins, DecaySchedule::Truncated)
    }

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
        let mut p = DecayBroadcast::new(params, &[(0, 42)], 7);
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
        let mut p = DecayBroadcast::new(params, &[(5, 1)], 3);
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
        let mut p = DecayBroadcast::new(params, &[(1, 1)], 13);
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
            let mut p = DecayBroadcast::new(params, &[(0, 42)], 7);
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
        let mut p = truncated(params, 0, 1, 17);
        assert_eq!(p.cycle()[..4], [1, 2, 3, 1], "depth-3 truncated rounds on a path");
        assert!(run_to_completion(&g, &mut p, |p| p.all_informed(), 400_000, 17).is_some());
    }

    #[test]
    fn truncated_completes_on_barbell() {
        // The hard case for pure truncation: a dense clique must elect a
        // single speaker to push the message over the bridge. The periodic
        // full-depth rounds handle it.
        let g = generators::barbell(40, 20);
        let params = NetParams::of_graph(&g);
        let mut p = truncated(params, 0, 1, 23);
        assert!(run_to_completion(&g, &mut p, |p| p.all_informed(), 400_000, 23).is_some());
    }

    #[test]
    fn truncated_batched_coins_complete_and_differ_from_per_index() {
        // Same contract as the BGI variant: the word-batched sampler is a
        // different valid sequence, completion still holds, and the default
        // per-index sequence is untouched.
        let g = generators::path(128);
        let params = NetParams::of_graph(&g);
        let schedule = DecaySchedule::Truncated;
        let mut batched = scheduled(params, &[(0, 42)], 17, CoinSampler::Batched, schedule);
        let batched_rounds = run_to_completion(&g, &mut batched, |p| p.all_informed(), 400_000, 17)
            .expect("batched sampler completes");
        assert!(g.nodes().all(|v| batched.value_of(v) == Some(42)));
        let run_default = || {
            let mut p = truncated(params, 0, 42, 17);
            run_to_completion(&g, &mut p, |p| p.all_informed(), 400_000, 17).expect("completes")
        };
        assert_eq!(run_default(), run_default(), "default sampler is deterministic");
        assert_ne!(batched_rounds, run_default(), "different sequences for the same seed");
    }

    #[test]
    fn decay_cycles_lay_out_full_and_truncated_rounds() {
        // Full: one decay round of depth ⌈log₂ n⌉. Truncated: full_every − 1
        // rounds of depth k = ⌈log₂(n/D)⌉ + 2 (clamped to [2, ⌈log₂ n⌉]),
        // then one of depth max(⌈log₂ n⌉, k).
        let cycle = |n, d, schedule| {
            let net = NetParams::new(n, d);
            let coins = CoinSampler::default();
            scheduled(net, &[(0, 1)], 1, coins, schedule).cycle().to_vec()
        };
        let run = |depth: u32| (1..=depth).collect::<Vec<u32>>();
        let (full, trunc) = (DecaySchedule::Full, DecaySchedule::Truncated);
        // log n = 9, n/D < 2 → k = 3, full_every = ⌈9/3⌉ = 3.
        assert_eq!(cycle(512, 511, full), run(9));
        assert_eq!(cycle(512, 511, trunc), [run(3), run(3), run(9)].concat());
        // log n = 7, n/D ≈ 4.3 → k = 5, full_every = ⌈7/5⌉ = 2.
        assert_eq!(cycle(100, 23, trunc), [run(5), run(7)].concat());
        // log n = 10, n/D = 512 → k clamps to 10, full_every floors at 2.
        assert_eq!(cycle(1024, 2, trunc), [run(10), run(10)].concat());
        // log n = 1: k floors at 2, so the full round deepens to k.
        assert_eq!(cycle(2, 1, full), run(1));
        assert_eq!(cycle(2, 1, trunc), [run(2), run(2)].concat());
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
            let mut bgi = DecayBroadcast::new(params, &[(0, 1)], seed);
            bgi_total +=
                run_to_completion(&g, &mut bgi, |p| p.all_informed(), 2_000_000, seed).unwrap();
            let mut tr = truncated(params, 0, 1, seed);
            trunc_total +=
                run_to_completion(&g, &mut tr, |p| p.all_informed(), 2_000_000, seed).unwrap();
        }
        assert!(
            trunc_total < bgi_total,
            "truncated ({trunc_total}) should beat BGI ({bgi_total}) on paths"
        );
    }
}
