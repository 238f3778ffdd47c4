//! Shared setup for the criterion `scale` suite: resolve a registry
//! [`ScenarioSpec`] string into everything a bench loop needs.
//!
//! Bench workloads are scenario strings — the same grammar campaigns and
//! the `experiments` CLI use — so bench and experiment workloads cannot
//! drift apart: changing what is benchmarked is a string edit, not code.

use crate::registry::ScenarioSpec;
use rn_graph::Graph;
use rn_sim::{CollisionModel, NetParams, Runnable, TrialCtx, TrialPool, TrialRecord};

/// A resolved bench workload: the built topology, the instantiated
/// [`Runnable`] and the effective collision model.
pub struct BenchWorkload {
    /// The parsed scenario (faults included, if the string carries a
    /// suffix).
    pub spec: ScenarioSpec,
    /// Canonical protocol name (criterion benchmark id).
    pub name: String,
    /// The topology, built once and pinned for every iteration.
    pub graph: Graph,
    /// Network knowledge handed to trials.
    pub net: NetParams,
    /// The protocol under measurement.
    pub runnable: Box<dyn Runnable>,
    /// The *effective* model trials run under (the runnable may remap the
    /// requested one, e.g. beep probes pin CD).
    pub model: CollisionModel,
}

impl BenchWorkload {
    /// Resolves `spec_str` with the topology built from `topology_seed`.
    /// The requested model is `nocd`; the workload records whatever the
    /// runnable maps it to.
    ///
    /// # Panics
    ///
    /// Panics on an invalid scenario string — bench workloads are
    /// compile-time constants, so failing loudly is the right behavior.
    pub fn resolve(spec_str: &str, topology_seed: u64) -> BenchWorkload {
        let spec: ScenarioSpec =
            spec_str.parse().unwrap_or_else(|e| panic!("bench scenario {spec_str:?}: {e}"));
        let graph = spec.topology.build(topology_seed);
        let net = NetParams::new(graph.n(), graph.diameter_double_sweep());
        let runnable = spec.protocol.instantiate();
        let model = runnable.effective_model(CollisionModel::NoCollisionDetection);
        BenchWorkload { name: spec.protocol.to_string(), spec, graph, net, runnable, model }
    }

    /// Runs one trial under the workload's fault plan (most workloads have
    /// none) through a caller's pool: a new [`TrialPool::new`] per trial
    /// pays allocation, a long-lived one measures the steady state, and a
    /// [`TrialPool::reference`] one the reference engine.
    pub fn run_trial_in(&self, seed: u64, pool: &mut TrialPool) -> TrialRecord {
        let ctx = TrialCtx::new(&self.graph, self.net, self.model, seed, &self.spec.faults);
        self.runnable.run(&ctx, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_resolve_and_run() {
        let w = BenchWorkload::resolve("bgi@grid(6x6)", 0xB0);
        assert_eq!(w.name, "bgi");
        assert_eq!(w.graph.n(), 36);
        let r = w.run_trial_in(1, &mut TrialPool::new());
        assert!(r.completed && r.rounds > 0);
        // A CD-pinning workload reports the model it truly runs under.
        let w = BenchWorkload::resolve("broadcast_cd@grid(6x6)", 0xB0);
        assert_eq!(w.model, CollisionModel::CollisionDetection);
    }

    #[test]
    fn pools_of_either_engine_replay_the_throwaway_trial() {
        // The scale bench's engine A/Bs and its pooled arm go through
        // `run_trial_in`; each must record what a throwaway pool records.
        let w = BenchWorkload::resolve("decay(3)@complete(40)!drop(0.1)", 0xB0);
        let mut warm = TrialPool::new();
        for seed in 1..4 {
            let fresh = w.run_trial_in(seed, &mut TrialPool::new());
            assert_eq!(w.run_trial_in(seed, &mut TrialPool::reference()), fresh, "seed {seed}");
            assert_eq!(w.run_trial_in(seed, &mut warm), fresh, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "bench scenario")]
    fn invalid_bench_scenarios_fail_loudly() {
        BenchWorkload::resolve("nosuch@grid(6x6)", 0);
    }
}
