//! The [`Runnable`] scenario for the paper's algorithms — the plug the
//! campaign registry uses to run Compete, broadcasting and leader election
//! uniformly against any topology and collision model.

use crate::api::{compete_trial, leader_election_trial, CompetePool};
use crate::params::CompeteParams;
use rn_graph::{traversal, Graph, NodeId};
use rn_sim::{rng, Runnable, TrialCtx, TrialPool, TrialRecord};
use std::fmt;
use std::str::FromStr;

/// Where [`CompeteScenario`] places its `K` sources on the graph.
///
/// The paper's Theorem 4.1 bounds hold for *any* source set; the placement
/// axis probes how much the constants depend on source geometry — uniform
/// spread (every cluster sees a source early) versus adversarially
/// concentrated sets that must escape one neighborhood first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SourcePlacement {
    /// Distinct uniform-random nodes, redrawn each trial (the default).
    #[default]
    Uniform,
    /// A BFS ball: the `K` nodes nearest a trial-random center (ties broken
    /// by node id), modelling a localized burst of messages.
    Clustered,
    /// The deterministic worst corner: the `K` nodes nearest node 0 —
    /// reproducible across trials, so only protocol randomness varies.
    Corner,
}

impl SourcePlacement {
    /// Every placement policy, in listing order.
    pub const ALL: &'static [SourcePlacement] =
        &[SourcePlacement::Uniform, SourcePlacement::Clustered, SourcePlacement::Corner];

    /// The policy's stable string form (used in `compete(K,POLICY)` specs).
    pub fn as_str(self) -> &'static str {
        match self {
            SourcePlacement::Uniform => "uniform",
            SourcePlacement::Clustered => "clustered",
            SourcePlacement::Corner => "corner",
        }
    }

    /// Picks `k` distinct source nodes on `g` under this policy. `seed` is
    /// the trial's placement stream (ignored by deterministic policies).
    ///
    /// # Panics
    ///
    /// Panics if `k > g.n()`.
    pub fn place(self, g: &Graph, k: usize, seed: u64) -> Vec<NodeId> {
        let (mut idx, mut out) = (Vec::new(), Vec::new());
        self.place_into(g, k, seed, &mut idx, &mut out);
        out
    }

    /// [`SourcePlacement::place`] into caller-owned buffers (both cleared
    /// first): `idx_scratch` holds the raw Floyd sample, `out` the node
    /// ids. Pooled trial loops reuse the buffers across trials, keeping
    /// steady-state `Uniform` placement off the heap (the BFS-ball
    /// policies still allocate their traversal internally).
    ///
    /// # Panics
    ///
    /// Panics if `k > g.n()`.
    pub fn place_into(
        self,
        g: &Graph,
        k: usize,
        seed: u64,
        idx_scratch: &mut Vec<usize>,
        out: &mut Vec<NodeId>,
    ) {
        assert!(k <= g.n(), "cannot place {k} distinct sources on {} nodes", g.n());
        out.clear();
        match self {
            SourcePlacement::Uniform => {
                let mut srng = rng::stream_rng(seed, 0x50C);
                rng::sample_distinct_into(&mut srng, k, g.n(), idx_scratch);
                out.extend(idx_scratch.iter().map(|&v| v as NodeId));
            }
            SourcePlacement::Clustered => {
                let center = (rng::derive(seed, 0xCE27) % g.n() as u64) as NodeId;
                out.extend(nearest_k(g, center, k));
            }
            SourcePlacement::Corner => out.extend(nearest_k(g, 0, k)),
        }
    }
}

/// The `k` nodes nearest `center` in BFS distance, ties broken by node id —
/// deterministic for a fixed graph.
///
/// The walk stops at the first layer that fills the ball, so the per-trial
/// cost is proportional to the ball (plus its frontier), not to a
/// whole-graph BFS and an `O(n log n)` sort — placement must stay cheap on
/// the million-node sweeps the campaign executor targets.
fn nearest_k(g: &Graph, center: NodeId, k: usize) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::with_capacity(k);
    let mut walker = traversal::Bfs::new(g, &[center]);
    loop {
        // Frontier order is traversal order; sorting one layer restores the
        // (distance, id) tie-break of a full sort.
        let mut layer = walker.frontier().to_vec();
        layer.sort_unstable();
        layer.truncate(k - out.len());
        out.extend(layer);
        if out.len() == k {
            return out;
        }
        if !walker.advance() {
            // Fewer than k reachable nodes (disconnected graph): fill with
            // the unreachable remainder in id order, matching a full
            // (distance, id) sort with distance = ∞.
            let dist = walker.dist();
            out.extend(g.nodes().filter(|&v| dist[v as usize] == u32::MAX).take(k - out.len()));
            return out;
        }
    }
}

impl fmt::Display for SourcePlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for SourcePlacement {
    type Err = String;

    fn from_str(s: &str) -> Result<SourcePlacement, String> {
        SourcePlacement::ALL.iter().copied().find(|p| p.as_str() == s.trim()).ok_or_else(|| {
            format!(
                "unknown source placement {s:?} (known: {})",
                SourcePlacement::ALL.iter().map(|p| p.as_str()).collect::<Vec<_>>().join(" | ")
            )
        })
    }
}

/// Which nodes start a [`CompeteScenario`] with which values, and what
/// completes a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceRule {
    /// Broadcasting (Theorem 5.1): node 0 holds value 1.
    Origin,
    /// **Compete(S)** (Theorem 4.1): `k` sources on distinct nodes, placed
    /// per trial by `placement`, holding values `1..=k` in placement order.
    /// Sampling with replacement would silently merge two messages onto one
    /// node, measuring `Compete(S')` with `|S'| < |S|`.
    Placed {
        /// Number of sources `|S| ≥ 1`.
        k: usize,
        /// Where the sources land on the graph.
        placement: SourcePlacement,
    },
    /// Leader election (Algorithm 6): self-selected candidates with random
    /// IDs run Compete on the IDs. A trial completes only when exactly one
    /// node holds the winning ID.
    Candidates,
}

/// One trial of Compete under a [`SourceRule`]: broadcasting, multi-source
/// Compete(S) or leader election, all through the same pooled Compete core.
#[derive(Debug, Clone)]
pub struct CompeteScenario {
    /// Algorithm constants.
    pub params: CompeteParams,
    /// Who starts, and what completes a trial.
    pub sources: SourceRule,
}

impl CompeteScenario {
    /// A scenario running `params` under `sources`.
    ///
    /// # Panics
    ///
    /// Panics on [`SourceRule::Placed`] with `k == 0` — a sourceless
    /// Compete is meaningless and used to be silently clamped to 1.
    pub fn new(params: CompeteParams, sources: SourceRule) -> CompeteScenario {
        if let SourceRule::Placed { k, .. } = sources {
            assert!(k >= 1, "compete needs at least one source (got 0)");
        }
        CompeteScenario { params, sources }
    }
}

impl Runnable for CompeteScenario {
    fn run(&self, ctx: &TrialCtx<'_>, pool: &mut TrialPool) -> TrialRecord {
        let (completed, r) = match self.sources {
            SourceRule::Origin => {
                let r = compete_trial(ctx, &[(0, 1)], &self.params, pool)
                    .expect("campaign graphs are connected with an in-range source");
                (r.completed, r)
            }
            SourceRule::Placed { k, placement } => {
                let g = ctx.graph();
                assert!(
                    k <= g.n(),
                    "compete({k}) needs {k} distinct sources but the graph has only {} nodes",
                    g.n()
                );
                // Source placement is part of the trial's randomness (for
                // the randomized policies): distinct nodes, drawn from the
                // trial seed on a separate stream. The buffers come from
                // the pool, so steady-state uniform placement stays on the
                // zero-allocation contract the alloc_count gate pins.
                let cp = pool.parts(CompetePool::default).1;
                let mut sources = std::mem::take(&mut cp.sources);
                placement.place_into(g, k, ctx.seed(), &mut cp.place_idx, &mut cp.source_ids);
                sources.clear();
                sources.extend(cp.source_ids.iter().enumerate().map(|(i, &v)| (v, (i + 1) as u64)));
                let r = compete_trial(ctx, &sources, &self.params, pool)
                    .expect("campaign graphs are connected with in-range sources");
                // Hand the buffer back for the next trial.
                pool.parts(CompetePool::default).1.sources = sources;
                (r.completed, r)
            }
            SourceRule::Candidates => {
                let le = leader_election_trial(ctx, &self.params, pool)
                    .expect("campaign graphs are connected");
                (le.compete.completed && le.unique_winner, le.compete)
            }
        };
        TrialRecord::new(completed, r.total_rounds, r.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_sim::{CollisionModel, FaultPlan, NetParams};

    /// One `nocd` trial under `plan` on a throwaway pool.
    fn faulted(s: &dyn Runnable, g: &Graph, seed: u64, plan: &FaultPlan) -> TrialRecord {
        let model = CollisionModel::NoCollisionDetection;
        let ctx = TrialCtx::new(g, NetParams::of_graph(g), model, seed, plan);
        s.run(&ctx, &mut TrialPool::new())
    }

    fn trial(s: &dyn Runnable, g: &Graph, seed: u64) -> TrialRecord {
        faulted(s, g, seed, &FaultPlan::none())
    }

    /// Default-parameter Compete under `sources`.
    fn scenario(sources: SourceRule) -> CompeteScenario {
        CompeteScenario::new(CompeteParams::default(), sources)
    }

    /// Default-parameter Compete(S) with `k` uniform-random sources.
    fn compete(k: usize) -> CompeteScenario {
        scenario(SourceRule::Placed { k, placement: SourcePlacement::Uniform })
    }

    #[test]
    fn broadcast_scenario_completes_on_grid() {
        let g = generators::grid(8, 8);
        let s = scenario(SourceRule::Origin);
        let r = trial(&s, &g, 3);
        assert!(r.completed);
        assert!(r.rounds > 0);
        assert!(r.metrics.deliveries > 0);
    }

    #[test]
    fn leader_election_scenario_elects() {
        let g = generators::grid(8, 8);
        let s = scenario(SourceRule::Candidates);
        let r = trial(&s, &g, 5);
        assert!(r.completed);
    }

    #[test]
    fn compete_scenario_is_seed_deterministic() {
        let g = generators::grid(6, 6);
        let s = compete(4);
        let a = trial(&s, &g, 11);
        let b = trial(&s, &g, 11);
        assert_eq!(a, b, "same seed, same trial");
        assert!(a.completed);
    }

    #[test]
    fn compete_scenario_places_all_sources_distinctly() {
        // Regression: with-replacement sampling would collide two of K
        // messages onto one node with probability ≈ 1 - exp(-K²/2n); on a
        // 9-node graph with 9 sources it is certain to, across seeds. With
        // distinct placement, Compete(S) sees exactly |S| = n sources, so
        // the run completes with every node a source.
        let g = generators::grid(3, 3);
        let s = compete(9);
        for seed in 0..16 {
            let r = trial(&s, &g, seed);
            assert!(r.completed, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn compete_scenario_rejects_zero_sources() {
        // Regression: K = 0 used to be silently clamped to 1.
        compete(0);
    }

    #[test]
    #[should_panic(expected = "only 9 nodes")]
    fn compete_scenario_rejects_more_sources_than_nodes() {
        let g = generators::grid(3, 3);
        let s = compete(10);
        trial(&s, &g, 1);
    }

    #[test]
    fn placement_policy_strings_round_trip() {
        for p in SourcePlacement::ALL {
            let back: SourcePlacement = p.as_str().parse().expect("round trips");
            assert_eq!(back, *p);
        }
        assert!("nearby".parse::<SourcePlacement>().is_err());
    }

    #[test]
    fn corner_placement_is_the_bfs_ball_around_node_zero() {
        // On a path, the 4 nodes nearest node 0 are exactly 0..4, every
        // trial, regardless of seed.
        let g = generators::path(100);
        for seed in 0..4 {
            assert_eq!(SourcePlacement::Corner.place(&g, 4, seed), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn nearest_k_matches_the_full_sort_reference() {
        // The layer-by-layer early-exit walk must agree with the
        // definitional "sort all nodes by (BFS distance, id)" computation —
        // including on a disconnected graph, where the unreachable
        // remainder fills in id order.
        let reference = |g: &Graph, center: NodeId, k: usize| -> Vec<NodeId> {
            let dist = traversal::bfs(g, center);
            let mut order: Vec<NodeId> = g.nodes().collect();
            order.sort_by_key(|&v| (dist[v as usize], v));
            order.truncate(k);
            order
        };
        let grid = generators::grid(7, 5);
        for center in [0, 17, 34] {
            for k in [1, 4, 12, 35] {
                assert_eq!(
                    nearest_k(&grid, center, k),
                    reference(&grid, center, k),
                    "grid center {center} k {k}"
                );
            }
        }
        let disconnected = Graph::from_edges(6, &[(0, 1), (1, 2), (4, 5)]).expect("builds");
        for k in [2, 4, 6] {
            assert_eq!(nearest_k(&disconnected, 1, k), reference(&disconnected, 1, k), "k {k}");
        }
    }

    #[test]
    fn clustered_placement_is_a_tight_ball_around_a_random_center() {
        // On a path, a BFS ball is a contiguous interval: K nodes spanning
        // at most K-1 hops — far tighter than uniform placement, which
        // spreads across the whole path with overwhelming probability.
        let g = generators::path(100);
        for seed in 0..8 {
            let mut s = SourcePlacement::Clustered.place(&g, 5, seed);
            s.sort_unstable();
            assert_eq!(s.len(), 5);
            let span = s[4] - s[0];
            assert!(span <= 5, "ball of 5 nodes spans {span} hops: {s:?}");
            assert!(s.windows(2).all(|w| w[0] != w[1]), "distinct sources");
        }
        // Different seeds move the center.
        let a = SourcePlacement::Clustered.place(&g, 5, 1);
        let b = SourcePlacement::Clustered.place(&g, 5, 2);
        assert_ne!(a, b, "center is part of trial randomness");
    }

    #[test]
    fn compete_scenario_with_placement_completes_and_is_deterministic() {
        let g = generators::grid(6, 6);
        for &placement in SourcePlacement::ALL {
            let s = scenario(SourceRule::Placed { k: 4, placement });
            let a = trial(&s, &g, 11);
            let b = trial(&s, &g, 11);
            assert_eq!(a, b, "{placement}: same seed, same trial");
            assert!(a.completed, "{placement}: completes on grid-6x6");
        }
    }

    #[test]
    fn broadcast_scenario_degrades_gracefully_under_faults() {
        // The paper's broadcast run under the uniform fault seam: with every
        // non-source node jamming at probability 1, nothing can spread — and
        // the trial must report that honestly rather than complete falsely.
        let g = generators::grid(4, 4);
        let s = scenario(SourceRule::Origin);
        let r = faulted(&s, &g, 3, &FaultPlan::jam(16, 1.0));
        assert!(!r.completed, "no false completion under total jamming");
        // A mild fault plan still runs deterministically.
        let plan = FaultPlan::jam(2, 0.3);
        assert_eq!(faulted(&s, &g, 3, &plan), faulted(&s, &g, 3, &plan));
    }
}
