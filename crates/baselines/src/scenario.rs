//! [`Runnable`] scenarios for the comparator algorithms, so baselines plug
//! into campaigns on exactly the same footing as the paper's algorithms.
//! The `bgi` and `truncated` families run `rn_decay`'s one-source
//! [`rn_decay::DecayScenario`]; this module holds the leader-election
//! reduction.

use crate::binary_search::{binary_search_leader_election, BroadcastKind};
use rn_sim::{CollisionModel, Runnable, TrialCtx, TrialPool, TrialRecord};

/// The classical binary-search leader-election reduction over a pluggable
/// broadcast probe (`Θ(T_BC · log n)` — the overhead Algorithm 6 removes).
///
/// The probe kind dictates the channel model it needs
/// ([`BroadcastKind::BeepWaveCd`] runs under collision detection, the others
/// without), so this scenario overrides [`Runnable::effective_model`] to the
/// probe's native model — campaign records always state the model the trial
/// truly ran under, whatever the requested axis value.
#[derive(Debug, Clone, Copy)]
pub struct BinarySearchLeScenario {
    /// The broadcast subroutine probed in each search phase.
    pub kind: BroadcastKind,
}

impl Runnable for BinarySearchLeScenario {
    fn effective_model(&self, _requested: CollisionModel) -> CollisionModel {
        match self.kind {
            BroadcastKind::BeepWaveCd => CollisionModel::CollisionDetection,
            BroadcastKind::Bgi | BroadcastKind::CzumajDavies => {
                CollisionModel::NoCollisionDetection
            }
        }
    }

    fn run(&self, ctx: &TrialCtx<'_>, pool: &mut TrialPool) -> TrialRecord {
        let r = binary_search_leader_election(
            pool.parts(|| ()).0,
            ctx.graph(),
            ctx.net(),
            self.kind,
            ctx.seed(),
            ctx.faults(),
        );
        TrialRecord::rounds_only(r.consistent && r.leader.is_some(), r.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{BGI, TRUNCATED};
    use rn_graph::{generators, Graph};
    use rn_sim::family::ProtocolFamily;
    use rn_sim::{FaultPlan, NetParams};

    /// The registered `bgi` and `truncated` runnables, by name.
    fn decay_baselines() -> [(&'static str, Box<dyn Runnable>); 2] {
        [&BGI, &TRUNCATED].map(|f| (f.name(), f.instantiate(None, &[])))
    }

    /// One `nocd` trial under `plan` on a throwaway pool.
    fn faulted(s: &dyn Runnable, g: &Graph, seed: u64, plan: &FaultPlan) -> TrialRecord {
        let model = CollisionModel::NoCollisionDetection;
        let ctx = TrialCtx::new(g, NetParams::of_graph(g), model, seed, plan);
        s.run(&ctx, &mut TrialPool::new())
    }

    #[test]
    fn baseline_scenarios_complete_on_small_grid() {
        let g = generators::grid(8, 8);
        let beep: Box<dyn Runnable> =
            Box::new(BinarySearchLeScenario { kind: BroadcastKind::BeepWaveCd });
        for (name, s) in decay_baselines().into_iter().chain([("binsearch_le(beep)", beep)]) {
            let r = faulted(s.as_ref(), &g, 5, &FaultPlan::none());
            assert!(r.completed, "{name} must complete on grid-8x8");
            assert!(r.rounds > 0);
        }
    }

    #[test]
    fn binsearch_effective_model_follows_the_probe() {
        for req in [CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection] {
            assert_eq!(
                BinarySearchLeScenario { kind: BroadcastKind::BeepWaveCd }.effective_model(req),
                CollisionModel::CollisionDetection,
                "beep probes always run under CD"
            );
            assert_eq!(
                BinarySearchLeScenario { kind: BroadcastKind::Bgi }.effective_model(req),
                CollisionModel::NoCollisionDetection,
                "decay probes always run without CD"
            );
        }
        // Plain scenarios honor the request (trait default).
        let [(_, bgi), _] = decay_baselines();
        assert_eq!(
            bgi.effective_model(CollisionModel::CollisionDetection),
            CollisionModel::CollisionDetection
        );
    }

    #[test]
    fn baseline_scenarios_run_under_faults_without_scenario_code() {
        // The uniform fault seam: these scenarios contain no fault logic at
        // all beyond building their simulator from the trial context. Under
        // total jamming no broadcast can complete.
        let g = generators::grid(6, 6);
        let jam_all = FaultPlan::jam(36, 1.0);
        for (name, s) in decay_baselines() {
            let r = faulted(s.as_ref(), &g, 7, &jam_all);
            assert!(!r.completed, "{name}: no false completion under total jamming");
            // Mild dropout still runs, deterministically.
            let plan = FaultPlan::drop(0.05);
            let (a, b) = (faulted(s.as_ref(), &g, 7, &plan), faulted(s.as_ref(), &g, 7, &plan));
            assert_eq!(a, b, "{name}: faulted trials are seed-deterministic");
        }
    }

    #[test]
    fn scenario_names_are_stable() {
        // Scenarios carry no name: the registry names them by family, in
        // this crate's listing order.
        let names: Vec<&str> = crate::family::families().iter().map(|f| f.name()).collect();
        assert_eq!(names, ["bgi", "truncated", "binsearch_le"]);
    }
}
