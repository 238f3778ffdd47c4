//! [`Runnable`] scenarios for the decay family: multi-source max-propagating
//! decay broadcast under either [`DecaySchedule`], and the CD-*exploiting*
//! beep-wave-assisted variants (`broadcast_cd` / `compete_cd(K)`) — the
//! building blocks measured on their own terms in campaigns. At one source
//! the decay scenario is also `rn_baselines`' `bgi` and `truncated`.

use crate::broadcast::{CoinSampler, DecayBroadcast, DecaySchedule};
use crate::cd::{CdMsg, LayeredDecayCd};
use rn_graph::NodeId;
use rn_sim::{rng, CollisionModel, Runnable, TrialCtx, TrialPool, TrialRecord, TxBuf};

/// Multi-source decay broadcast with `sources` evenly spread sources holding
/// distinct values; completes when every node is informed. At one source
/// it starts from node 0 with value 1.
#[derive(Debug, Clone)]
pub struct DecayScenario {
    /// Number of sources (evenly spaced over the id range, values `1..=k`).
    pub sources: usize,
    /// The decay rounds [`DecayBroadcast`] runs.
    pub schedule: DecaySchedule,
}

impl DecayScenario {
    /// Decay with `sources` sources (at least one) under `schedule`.
    pub fn new(sources: usize, schedule: DecaySchedule) -> DecayScenario {
        DecayScenario { sources: sources.max(1), schedule }
    }

    /// Evenly spaced source placement (deterministic in the graph size),
    /// into a pooled buffer.
    fn place_sources(&self, n: usize, out: &mut Vec<(NodeId, u64)>) {
        let k = self.sources.min(n);
        out.clear();
        out.extend((0..k).map(|i| (((i * n) / k) as NodeId, (i + 1) as u64)));
    }
}

/// Per-worker reusable state behind [`DecayScenario`]'s trials: the source
/// list, the protocol (re-armed per trial via `reset`, whichever schedule
/// the trial runs) and the typed transmission buffer.
#[derive(Debug, Default)]
struct DecayPool {
    sources: Vec<(NodeId, u64)>,
    protocol: DecayBroadcast,
    tx: TxBuf<u64>,
}

impl Runnable for DecayScenario {
    fn run(&self, ctx: &TrialCtx<'_>, pool: &mut TrialPool) -> TrialRecord {
        let (n, net, seed) = (ctx.graph().n(), ctx.net(), ctx.seed());
        let (engine, st) = pool.parts(DecayPool::default);
        self.place_sources(n, &mut st.sources);
        let p = &mut st.protocol;
        p.schedule = self.schedule;
        p.reset(net, &st.sources, seed, CoinSampler::default());
        st.tx.clear();
        st.tx.reserve(n);
        let budget = net.decay_broadcast_budget();
        let stats = ctx
            .simulator(engine)
            .run_until_with_buf(p, &mut st.tx, budget, |_, p| p.all_informed());
        TrialRecord::new(p.all_informed(), stats.rounds, stats.metrics)
    }
}

/// Which nodes start a [`CdDecayScenario`] with which values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdSourceRule {
    /// `broadcast_cd`: node 0 holds value 1, so its cells compare directly
    /// with `broadcast`/`bgi` cells.
    Origin,
    /// `compete_cd(K)`: `K` distinct uniform-random nodes, drawn per trial,
    /// hold values `1..=K` in draw order — the placement `compete(K)` uses.
    /// `compete_cd(1)` keeps this random placement.
    Uniform(usize),
}

/// CD-exploiting scenario over [`LayeredDecayCd`]: `broadcast_cd` or
/// `compete_cd(K)` (see [`CdSourceRule`]); a trial completes when everyone
/// knows the maximum value — the CD analogue of `compete(K)`.
///
/// The beep wave only works when listeners can tell collisions from
/// silence, so [`Runnable::effective_model`] pins the collision-detection
/// model whatever the campaign axis requested — records always state the
/// model trials truly ran under, and the `cd` axis gets an algorithm that
/// *uses* the extra bit rather than merely tolerating it.
#[derive(Debug, Clone, Copy)]
pub struct CdDecayScenario {
    /// Who starts, with which values.
    pub sources: CdSourceRule,
}

impl CdDecayScenario {
    /// Single-source `broadcast_cd` from node 0.
    pub fn broadcast() -> CdDecayScenario {
        CdDecayScenario { sources: CdSourceRule::Origin }
    }

    /// Multi-source `compete_cd(K)`.
    ///
    /// # Panics
    ///
    /// Panics if `sources == 0`.
    pub fn compete(sources: usize) -> CdDecayScenario {
        assert!(sources >= 1, "compete_cd needs at least one source (got 0)");
        CdDecayScenario { sources: CdSourceRule::Uniform(sources) }
    }
}

impl Runnable for CdDecayScenario {
    fn effective_model(&self, _requested: CollisionModel) -> CollisionModel {
        CollisionModel::CollisionDetection
    }

    fn run(&self, ctx: &TrialCtx<'_>, pool: &mut TrialPool) -> TrialRecord {
        let (n, net, seed) = (ctx.graph().n(), ctx.net(), ctx.seed());
        let (engine, st) = pool.parts(CdDecayPool::default);
        st.sources.clear();
        match self.sources {
            CdSourceRule::Origin => st.sources.push((0, 1)),
            CdSourceRule::Uniform(k) => {
                assert!(
                    k <= n,
                    "compete_cd({k}) needs {k} distinct sources but the graph has only {n} nodes"
                );
                // Distinct uniform nodes from a dedicated stream of the
                // trial seed, drawn into the pooled index buffer so
                // steady-state placement stays off the heap.
                let mut srng = rng::stream_rng(seed, 0x50C);
                rng::sample_distinct_into(&mut srng, k, n, &mut st.place_idx);
                st.sources.extend(
                    st.place_idx.iter().enumerate().map(|(i, &v)| (v as NodeId, (i + 1) as u64)),
                );
            }
        }
        let target = st.sources.iter().map(|&(_, v)| v).max().expect("at least one source");
        match &mut st.protocol {
            Some(p) => p.reset(net, &st.sources, seed),
            slot @ None => *slot = Some(LayeredDecayCd::new(net, &st.sources, seed)),
        }
        let p = st.protocol.as_mut().expect("slot was just filled");
        let budget = p.budget();
        st.tx.clear();
        st.tx.reserve(n);
        let stats = ctx
            .simulator(engine)
            .run_until_with_buf(p, &mut st.tx, budget, |_, p| p.all_know_at_least(target));
        TrialRecord::new(p.all_know_at_least(target), stats.rounds, stats.metrics)
    }
}

/// Per-worker reusable state behind [`CdDecayScenario`]'s trials.
#[derive(Debug, Default)]
struct CdDecayPool {
    place_idx: Vec<usize>,
    sources: Vec<(NodeId, u64)>,
    protocol: Option<LayeredDecayCd>,
    tx: TxBuf<CdMsg>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::{generators, Graph};
    use rn_sim::{FaultPlan, NetParams};

    /// One trial of `s` on `g` under `model` and `plan`, through `pool`.
    fn trial_in(
        s: &dyn Runnable,
        g: &Graph,
        model: CollisionModel,
        seed: u64,
        plan: &FaultPlan,
        pool: &mut TrialPool,
    ) -> TrialRecord {
        s.run(&TrialCtx::new(g, NetParams::of_graph(g), model, seed, plan), pool)
    }

    /// One fault-free trial on a throwaway pool.
    fn trial(s: &dyn Runnable, g: &Graph, model: CollisionModel, seed: u64) -> TrialRecord {
        trial_in(s, g, model, seed, &FaultPlan::none(), &mut TrialPool::new())
    }

    /// One `nocd` trial under `plan` on a throwaway pool.
    fn faulted(s: &dyn Runnable, g: &Graph, seed: u64, plan: &FaultPlan) -> TrialRecord {
        let model = CollisionModel::NoCollisionDetection;
        trial_in(s, g, model, seed, plan, &mut TrialPool::new())
    }

    #[test]
    fn decay_scenario_completes_and_names_stably() {
        let g = generators::grid(10, 10);
        let nocd = CollisionModel::NoCollisionDetection;
        let plain = DecayScenario::new(4, DecaySchedule::Full);
        let r = trial(&plain, &g, nocd, 3);
        assert!(r.completed);
        assert!(r.metrics.deliveries > 0);

        let trunc = DecayScenario::new(2, DecaySchedule::Truncated);
        assert!(trial(&trunc, &g, nocd, 3).completed);
    }

    #[test]
    fn decay_scenario_runs_under_faults_without_scenario_code() {
        let g = generators::grid(6, 6);
        let s = DecayScenario::new(2, DecaySchedule::Full);
        // Total jamming: decay cannot inform anyone beyond the sources.
        let r = faulted(&s, &g, 3, &FaultPlan::jam(36, 1.0));
        assert!(!r.completed, "no false completion under total jamming");
        assert_eq!(r.metrics.deliveries, 0, "noise is not a delivery");
        // A faulted trial is a pure function of (seed, plan).
        let plan = FaultPlan::try_new(3, 0.5, 0.02, 0.0).expect("valid plan");
        assert_eq!(faulted(&s, &g, 3, &plan), faulted(&s, &g, 3, &plan));
    }

    #[test]
    fn cd_scenarios_complete_under_the_pinned_cd_model() {
        let g = generators::grid(8, 8);
        let b = CdDecayScenario::broadcast();
        // The axis may request nocd; the scenario pins CD.
        let model = b.effective_model(CollisionModel::NoCollisionDetection);
        assert_eq!(model, CollisionModel::CollisionDetection);
        let r = trial(&b, &g, model, 3);
        assert!(r.completed, "broadcast_cd completes on grid-8x8");
        assert!(r.metrics.deliveries > 0);

        let c = CdDecayScenario::compete(4);
        let a = trial(&c, &g, model, 9);
        assert_eq!(a, trial(&c, &g, model, 9), "same seed, same trial");
        assert!(a.completed, "compete_cd(4) completes on grid-8x8");
    }

    #[test]
    fn cd_scenario_degrades_honestly_under_faults() {
        let g = generators::grid(6, 6);
        let s = CdDecayScenario::broadcast();
        let model = CollisionModel::CollisionDetection;
        let run = |plan: &FaultPlan| trial_in(&s, &g, model, 3, plan, &mut TrialPool::new());
        // Crash-stop everyone almost immediately: the wave dies, nothing
        // completes — and the trial reports that honestly.
        let r = run(&FaultPlan::crash(0.9));
        assert!(!r.completed, "no false completion when the network crash-stops");
        // A mild crash plan is deterministic in (seed, plan).
        let plan = FaultPlan::crash(0.001);
        assert_eq!(run(&plan), run(&plan));
    }

    #[test]
    fn compete_cd_at_one_source_keeps_its_name_and_random_placement() {
        // Regression: compete_cd(1) used to instantiate as "broadcast_cd"
        // (mislabeling campaign cells and bench-diff keys) with its source
        // silently pinned to node 0. The two forms stay distinct.
        let one = CdDecayScenario::compete(1);
        assert_eq!(
            one.sources,
            CdSourceRule::Uniform(1),
            "compete_cd(1) draws its source per trial"
        );
        assert_eq!(CdDecayScenario::broadcast().sources, CdSourceRule::Origin);
        // And it is a genuinely different workload: on a path, the trial
        // stream differs from the node-0-pinned broadcast for some seed.
        let g = generators::path(40);
        let model = CollisionModel::CollisionDetection;
        let differs = (0..8).any(|seed| {
            trial(&one, &g, model, seed) != trial(&CdDecayScenario::broadcast(), &g, model, seed)
        });
        assert!(differs, "random placement must not collapse onto node 0 for every seed");
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn compete_cd_rejects_zero_sources() {
        CdDecayScenario::compete(0);
    }

    /// A connected random graph on 256 nodes with exactly 6,000 edges
    /// (mean degree ≈ 47): dense enough for most decay rounds to take the
    /// engine's dense kernel.
    fn dense_graph(seed: u64) -> Graph {
        use rand::Rng;
        let mut r = rng::stream_rng(seed, 0xDE5E);
        let mut edges = std::collections::BTreeSet::new();
        for v in 1..256u32 {
            edges.insert((r.gen_range(0..v), v)); // a random spanning tree
        }
        while edges.len() < 6000 {
            let (u, v) = (r.gen_range(0..256u32), r.gen_range(0..256u32));
            if u < v {
                edges.insert((u, v));
            }
        }
        Graph::from_edges(256, &edges.into_iter().collect::<Vec<_>>()).expect("builds")
    }

    #[test]
    fn a_reused_pool_rebuilds_the_dense_cache_for_a_graph_reassigned_in_place() {
        // Regression: the engine's dense-kernel adjacency cache was keyed on
        // the graph's address plus (n, m), so a binding reassigned in place
        // to another graph of the same shape stepped dense rounds over the
        // old graph's adjacency rows.
        let s = DecayScenario::new(4, DecaySchedule::Full);
        let model = CollisionModel::NoCollisionDetection;
        let mut pool = TrialPool::new();
        let mut g = dense_graph(1);
        trial_in(&s, &g, model, 0, &FaultPlan::none(), &mut pool);
        g = dense_graph(2);
        assert_eq!((g.n(), g.m()), (256, 6000));
        for seed in 0..20 {
            let warm = trial_in(&s, &g, model, seed, &FaultPlan::none(), &mut pool);
            assert_eq!(warm, trial(&s, &g, model, seed), "seed {seed}");
        }
    }

    #[test]
    fn sources_are_clamped_to_graph_size() {
        let s = DecayScenario::new(100, DecaySchedule::Full);
        let mut placed = Vec::new();
        s.place_sources(10, &mut placed);
        assert_eq!(placed.len(), 10);
        assert!(placed.iter().all(|&(v, _)| (v as usize) < 10));
        // Distinct placements.
        let mut ids: Vec<_> = placed.iter().map(|&(v, _)| v).collect();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }
}
