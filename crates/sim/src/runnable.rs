//! The [`Runnable`] protocol-factory trait: the uniform entry point every
//! algorithm crate implements so campaigns can cross *any* protocol with
//! *any* topology and collision model without naming either in code.
//!
//! A `Runnable` is a self-contained scenario: given a [`TrialCtx`] (the
//! graph, the network knowledge ([`NetParams`]) the model grants nodes, a
//! collision model, a trial seed and the trial's fault schedule) and a
//! [`TrialPool`] of reusable state, it sets up its protocol (sources,
//! parameters, budgets), runs it to completion or budget exhaustion, and
//! reports one machine-readable [`TrialRecord`]. A one-off trial passes a
//! throwaway `TrialPool::new()`; campaign workers pass one long-lived pool.
//! Implementations live next to their algorithms — `rn_core` (Compete /
//! broadcast / leader election), `rn_baselines` (BGI, truncated decay,
//! binary-search leader election), `rn_decay` (raw multi-source decay),
//! `rn_cluster` and `rn_schedule` (the sub-protocols) — and are registered
//! through [`crate::ProtocolFamily`] values in `rn_bench`'s scenario
//! registry. A `Runnable` has no name of its own: the registry spec that
//! instantiated it labels its results.

use crate::engine::{SimScratch, Simulator};
use crate::faults::{FaultPlan, FaultSchedule};
use crate::{rng, CollisionModel, Metrics, NetParams};
use rn_graph::Graph;
use std::any::Any;

/// Everything one trial is a pure function of: the graph, the network
/// knowledge nodes are granted, the collision model, the trial seed and the
/// fault schedule resolved from the trial's [`FaultPlan`].
///
/// [`TrialCtx::new`] is the one place a fault plan is resolved, so every
/// caller — campaign executor, bench workload, test — places jammers and
/// draws fault coins from the same seed stream.
#[derive(Debug)]
pub struct TrialCtx<'g> {
    graph: &'g Graph,
    net: NetParams,
    model: CollisionModel,
    seed: u64,
    faults: Option<FaultSchedule>,
}

impl<'g> TrialCtx<'g> {
    /// The context of one trial of `seed` on `graph`, resolving `plan` on
    /// the trial seed's `0xFA17` stream (jammer placement is part of the
    /// trial's randomness). A fault-free plan resolves to no schedule and
    /// allocates nothing.
    ///
    /// `model` must be the value [`Runnable::effective_model`] mapped the
    /// caller's request to.
    pub fn new(
        graph: &'g Graph,
        net: NetParams,
        model: CollisionModel,
        seed: u64,
        plan: &FaultPlan,
    ) -> TrialCtx<'g> {
        let faults = (!plan.is_none()).then(|| plan.resolve(graph.n(), rng::derive(seed, 0xFA17)));
        TrialCtx { graph, net, model, seed, faults }
    }

    /// The topology the trial runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The `n`/`D` knowledge the model grants every node.
    pub fn net(&self) -> NetParams {
        self.net
    }

    /// The trial seed; all of a trial's randomness derives from it.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The trial's fault schedule (`None` when fault-free).
    pub fn faults(&self) -> Option<&FaultSchedule> {
        self.faults.as_ref()
    }

    /// A simulator for this trial over `scratch`, running under the trial's
    /// fault schedule (cloned per call) on the engine `scratch` was
    /// built for.
    pub fn simulator<'a>(&'a self, scratch: &'a mut SimScratch) -> Simulator<'a> {
        Simulator::reuse(scratch, self.graph, self.model, self.seed, self.faults.clone())
    }
}

/// Reusable trial state: one [`SimScratch`] of engine scratch plus one
/// type-erased slot for whatever protocol/scenario state a scenario carries
/// across trials (protocol bitsets, value vectors, transmission buffers, …).
///
/// The bench executor keeps one pool per worker thread for the worker's
/// whole life, across every cell, scenario and topology it runs: a
/// scenario-type switch re-creates the slot, a graph switch re-arms the
/// scratch in place, and every further trial of a scenario on one graph
/// runs allocation-free. Pool history never shows in a record — a fresh
/// `TrialPool::new()` and a long-lived pool replay a trial identically.
#[derive(Debug, Default)]
pub struct TrialPool {
    engine: SimScratch,
    protocol: Option<Box<dyn Any + Send>>,
}

impl TrialPool {
    /// An empty pool over the Frontier engine; the first trial populates
    /// it.
    pub fn new() -> TrialPool {
        TrialPool::default()
    }

    /// An empty pool over the stamp-vector reference engine
    /// ([`SimScratch::reference`]) — the oracle differential tests and
    /// engine A/B benchmarks compare [`TrialPool::new`] against.
    pub fn reference() -> TrialPool {
        TrialPool { engine: SimScratch::reference(), protocol: None }
    }

    /// Splits the pool into its engine scratch and the scenario-state slot,
    /// creating the latter with `make` when the pool is fresh or was last
    /// used by a scenario with a different state type.
    pub fn parts<T: Send + 'static>(
        &mut self,
        make: impl FnOnce() -> T,
    ) -> (&mut SimScratch, &mut T) {
        if !self.protocol.as_deref().is_some_and(|b| b.is::<T>()) {
            self.protocol = Some(Box::new(make()));
        }
        let state = self
            .protocol
            .as_deref_mut()
            .and_then(|b| b.downcast_mut::<T>())
            .expect("slot was just ensured to hold a T");
        (&mut self.engine, state)
    }
}

/// Machine-readable outcome of one scenario trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrialRecord {
    /// Whether the scenario reached its goal (all informed, unique leader,
    /// …) within its budget.
    pub completed: bool,
    /// Rounds consumed, including any charged precomputation.
    pub rounds: u64,
    /// Channel statistics, when the scenario runs packet-level through the
    /// simulator (scenarios that only account rounds leave this zeroed).
    pub metrics: Metrics,
    /// Whether [`TrialRecord::metrics`] holds real channel statistics.
    /// `false` for rounds-accounted scenarios (e.g. `binsearch_le`), whose
    /// zeroed `Metrics` are a placeholder, not a sample — aggregators must
    /// not fold them into delivery/collision/transmission distributions.
    pub metrics_recorded: bool,
}

impl TrialRecord {
    /// A record for a packet-level run: rounds and metrics from the
    /// simulator, plus the goal predicate.
    pub fn new(completed: bool, rounds: u64, metrics: Metrics) -> TrialRecord {
        TrialRecord { completed, rounds, metrics, metrics_recorded: true }
    }

    /// A record for a rounds-accounted run with no channel metrics.
    pub fn rounds_only(completed: bool, rounds: u64) -> TrialRecord {
        TrialRecord { completed, rounds, metrics: Metrics::default(), metrics_recorded: false }
    }
}

/// A repeatable scenario: one protocol family plus its setup policy,
/// runnable on any graph under any collision model.
///
/// Implementations must be cheap to construct and reusable across trials —
/// [`Runnable::run`] takes `&self` and is called concurrently from the
/// campaign runner's worker threads (hence the `Send + Sync` supertraits).
/// All randomness must derive from the context's seed so a `(scenario,
/// graph, model, seed, faults)` tuple pins the trial exactly.
pub trait Runnable: Send + Sync {
    /// The collision model a trial actually runs under when `requested` is
    /// asked for. Most scenarios honor the request (the default); scenarios
    /// whose probe dictates a fixed model (e.g. a beep wave needs collision
    /// detection) override this so campaign records stay truthful — the
    /// campaign runner records and passes the *effective* model.
    fn effective_model(&self, requested: CollisionModel) -> CollisionModel {
        requested
    }

    /// Runs one trial of the scenario in `ctx`, drawing engine and protocol
    /// state from `pool`.
    ///
    /// Implementations build their simulators through
    /// [`TrialCtx::simulator`] (or hand [`TrialCtx::faults`] to every
    /// simulator they construct) — fault injection is explicit parameter
    /// passing, never ambient state, so trials can run from any executor
    /// worker thread. The record must not depend on what `pool` ran before.
    fn run(&self, ctx: &TrialCtx<'_>, pool: &mut TrialPool) -> TrialRecord;
}

// Campaign executors move boxed scenarios across worker threads; this fails
// to compile if the trait object ever stops being `Send + Sync`.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<dyn Runnable>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::NaiveFlood;
    use rn_graph::generators;

    /// A minimal in-crate Runnable over the testing flood protocol.
    struct FloodScenario;

    impl Runnable for FloodScenario {
        fn run(&self, ctx: &TrialCtx<'_>, pool: &mut TrialPool) -> TrialRecord {
            let (engine, _) = pool.parts(|| ());
            let mut p = NaiveFlood::new(ctx.graph().n(), 0);
            let stats = ctx.simulator(engine).run(&mut p, 4 * ctx.net().diameter() as u64 + 8);
            TrialRecord::new(p.informed_count() == ctx.graph().n(), stats.rounds, stats.metrics)
        }
    }

    fn trial(g: &Graph, seed: u64, plan: &FaultPlan) -> TrialRecord {
        let ctx = TrialCtx::new(
            g,
            NetParams::of_graph(g),
            CollisionModel::NoCollisionDetection,
            seed,
            plan,
        );
        FloodScenario.run(&ctx, &mut TrialPool::new())
    }

    #[test]
    fn runnable_objects_are_usable_through_dyn() {
        let g = generators::path(8);
        let ctx = TrialCtx::new(
            &g,
            NetParams::of_graph(&g),
            CollisionModel::NoCollisionDetection,
            1,
            &FaultPlan::none(),
        );
        let scenario: Box<dyn Runnable> = Box::new(FloodScenario);
        // A path floods fine (each frontier node is alone); a record with
        // metrics comes back.
        let r = scenario.run(&ctx, &mut TrialPool::new());
        assert!(r.completed);
        assert!(r.rounds > 0);
        assert!(r.metrics.deliveries > 0);
    }

    #[test]
    fn trial_ctx_resolves_fault_plans_on_the_trial_seed() {
        let g = generators::path(12);
        let net = NetParams::of_graph(&g);
        let model = CollisionModel::NoCollisionDetection;
        assert!(TrialCtx::new(&g, net, model, 1, &FaultPlan::none()).faults().is_none());
        // The schedule is the plan resolved on the trial seed's fault
        // stream: the same seed places the same jammers.
        let plan = FaultPlan::jam(3, 0.5);
        let ctx = TrialCtx::new(&g, net, model, 1, &plan);
        let expected = plan.resolve(g.n(), rng::derive(1, 0xFA17));
        assert_eq!(ctx.faults(), Some(&expected));
        // Every node jamming at probability 1 makes completion impossible.
        let jammed = trial(&g, 1, &FaultPlan::jam(12, 1.0));
        assert!(!jammed.completed, "no false completion when every node jams");
        assert!(trial(&g, 1, &FaultPlan::none()).completed);
        // Determinism: the same (seed, plan) reproduces the trial exactly.
        assert_eq!(jammed, trial(&g, 1, &FaultPlan::jam(12, 1.0)));
    }

    #[test]
    fn trial_record_constructors() {
        let r = TrialRecord::rounds_only(true, 42);
        assert!(r.completed);
        assert_eq!(r.rounds, 42);
        assert_eq!(r.metrics, Metrics::default());
        assert!(!r.metrics_recorded, "rounds-only records carry placeholder metrics");
        let m = TrialRecord::new(true, 7, Metrics::default());
        assert!(m.metrics_recorded, "packet-level records carry real metrics");
    }
}
