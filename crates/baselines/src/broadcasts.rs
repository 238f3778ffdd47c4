use rn_decay::{DecayScenario, DecaySchedule};
use rn_graph::Graph;
use rn_sim::{CollisionModel, FaultPlan, NetParams, Runnable, TrialCtx, TrialPool, TrialRecord};

/// Runs BGI'92 decay broadcasting from node 0 and reports rounds until all
/// nodes are informed: one fault-free trial of the registered `bgi`
/// scenario.
pub fn bgi_broadcast(g: &Graph, net: NetParams, seed: u64) -> TrialRecord {
    decay_trial(g, net, seed, DecaySchedule::Full)
}

/// Runs the truncated-decay (CR/KP-style) broadcast from node 0: one
/// fault-free trial of the registered `truncated` scenario.
pub fn truncated_broadcast(g: &Graph, net: NetParams, seed: u64) -> TrialRecord {
    decay_trial(g, net, seed, DecaySchedule::Truncated)
}

fn decay_trial(g: &Graph, net: NetParams, seed: u64, schedule: DecaySchedule) -> TrialRecord {
    let ctx = TrialCtx::new(g, net, CollisionModel::NoCollisionDetection, seed, &FaultPlan::none());
    DecayScenario::new(1, schedule).run(&ctx, &mut TrialPool::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;

    #[test]
    fn bgi_completes_on_grid() {
        let g = generators::grid(12, 12);
        let net = NetParams::of_graph(&g);
        let out = bgi_broadcast(&g, net, 3);
        assert!(out.completed);
        assert!(out.rounds > 0);
    }

    #[test]
    fn truncated_completes_on_grid() {
        let g = generators::grid(12, 12);
        let net = NetParams::of_graph(&g);
        let out = truncated_broadcast(&g, net, 3);
        assert!(out.completed);
    }
}
