use rn_decay::{CoinSampler, DecayBroadcast, DecaySchedule};
use rn_graph::{Graph, NodeId};
use rn_sim::{CollisionModel, NetParams, Simulator};
use serde::{Deserialize, Serialize};

/// Outcome of a baseline broadcast run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BroadcastOutcome {
    /// Whether every node was informed within the budget.
    pub completed: bool,
    /// Rounds until completion (or the budget, if not completed).
    pub rounds: u64,
}

/// Runs BGI'92 decay broadcasting from `source` and reports rounds until all
/// nodes are informed.
pub fn bgi_broadcast(g: &Graph, net: NetParams, source: NodeId, seed: u64) -> BroadcastOutcome {
    decay_broadcast(g, net, source, seed, DecaySchedule::Full)
}

/// Runs the truncated-decay (CR/KP-style) broadcast from `source`.
pub fn truncated_broadcast(
    g: &Graph,
    net: NetParams,
    source: NodeId,
    seed: u64,
) -> BroadcastOutcome {
    decay_broadcast(g, net, source, seed, DecaySchedule::Truncated)
}

fn decay_broadcast(
    g: &Graph,
    net: NetParams,
    source: NodeId,
    seed: u64,
    schedule: DecaySchedule,
) -> BroadcastOutcome {
    let coins = CoinSampler::default();
    let mut p = DecayBroadcast::with_schedule(net, &[(source, 1)], seed, coins, schedule);
    let mut sim = Simulator::new(g, CollisionModel::NoCollisionDetection, seed);
    let stats = sim.run_until(&mut p, net.decay_broadcast_budget(), |_, p| p.all_informed());
    BroadcastOutcome { completed: p.all_informed(), rounds: stats.rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;

    #[test]
    fn bgi_completes_on_grid() {
        let g = generators::grid(12, 12);
        let net = NetParams::of_graph(&g);
        let out = bgi_broadcast(&g, net, 0, 3);
        assert!(out.completed);
        assert!(out.rounds > 0);
    }

    #[test]
    fn truncated_completes_on_grid() {
        let g = generators::grid(12, 12);
        let net = NetParams::of_graph(&g);
        let out = truncated_broadcast(&g, net, 0, 3);
        assert!(out.completed);
    }
}
