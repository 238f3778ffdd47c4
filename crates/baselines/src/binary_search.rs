//! The classical leader-election reduction (\[2\] in the paper): binary search
//! over the ID space, using multi-source broadcast as the probe.
//!
//! Every node draws a random `2·log n`-bit ID. In each of `2·log n` phases,
//! the nodes whose ID lies in the upper half of the current search range
//! broadcast "present" (multi-source) for a fixed broadcast budget `T_BC`;
//! every node then halves its range according to whether it heard anything.
//! After all phases the range is a single value — the maximum ID — and its
//! holder is the leader. Total time `Θ(T_BC · log n)`: the `log n`
//! multiplicative overhead that this paper's Algorithm 6 removes.
//!
//! The probe is pluggable ([`BroadcastKind`]) so the reduction can run over
//! the BGI baseline (the classical setup) or over this paper's broadcast.

use rand::Rng;
use rn_core::{CompeteParams, CompeteProtocol, CompeteState, Precomputed};
use rn_decay::DecayBroadcast;
use rn_graph::{Graph, NodeId};
use rn_sim::{rng, CollisionModel, FaultSchedule, NetParams, SimScratch, Simulator};
use serde::{Deserialize, Serialize};

/// Which multi-source broadcast the reduction probes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BroadcastKind {
    /// BGI'92 decay broadcast with budget `c·(D + log n)·log n`.
    Bgi,
    /// This paper's Compete-based broadcast with budget
    /// `c·(D·log n / log D + polylog n)` (precompute charged once, reused
    /// across phases — schedules don't change between probes).
    CzumajDavies,
    /// A beep-wave presence probe in the **collision-detection** model:
    /// `T_BC = D + 1` exactly (see [`crate::BeepWave`]). The CD-model
    /// comparator: presence probes become trivial when collisions are
    /// observable.
    BeepWaveCd,
}

/// Result of the binary-search leader election.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinarySearchLeReport {
    /// The elected leader if the run ended consistently.
    pub leader: Option<NodeId>,
    /// Total rounds consumed (`phases · T_BC`, plus charged precompute for
    /// the Compete probe).
    pub rounds: u64,
    /// Number of search phases executed.
    pub phases: u32,
    /// Whether all nodes ended with identical search ranges (whp true; a
    /// probe that fails to reach someone within `T_BC` breaks consistency —
    /// the real algorithm's failure mode, surfaced rather than hidden).
    pub consistent: bool,
}

/// Runs the reduction on `g`, with the channel under an explicit fault
/// schedule (`None` = fault-free), stepping the engine `engine` was built
/// for. Each phase lasts the probe's broadcast budget `T_BC` given above.
pub fn binary_search_leader_election(
    engine: &mut SimScratch,
    g: &Graph,
    net: NetParams,
    kind: BroadcastKind,
    seed: u64,
    faults: Option<&FaultSchedule>,
) -> BinarySearchLeReport {
    let n = g.n();
    let bits = 2 * net.log2_n();
    let mut idrng = rng::stream_rng(seed, 0x1D5);
    let ids: Vec<u64> = (0..n).map(|_| idrng.gen::<u64>() & ((1u64 << bits.min(63)) - 1)).collect();

    // Per-node search state (kept per node so probe failures surface as
    // inconsistency instead of being silently repaired).
    let mut lo = vec![0u64; n];
    let mut hi = vec![1u64 << bits.min(63); n];

    let d = net.diameter() as u64;
    let (log_n, log_d) = (u64::from(net.log2_n()), u64::from(net.log2_d()));
    let t_bc = match kind {
        // ~4x the empirical BGI completion time: a safe whp budget that
        // keeps the reduction's overhead near its theoretical Θ(log n).
        BroadcastKind::Bgi => 4 * (d + log_n) * log_n,
        BroadcastKind::CzumajDavies => 64 * d * log_n / log_d.max(1) + 8 * log_n.pow(3),
        // A beep wave needs exactly D+1 rounds — collisions carry the bit.
        BroadcastKind::BeepWaveCd => d + 1,
    }
    .max(16);

    let model = match kind {
        BroadcastKind::BeepWaveCd => CollisionModel::CollisionDetection,
        _ => CollisionModel::NoCollisionDetection,
    };
    let mut total_rounds: u64 = 0;
    let mut sim = Simulator::reuse(engine, g, model, seed, faults.cloned());

    // Compete probe: precompute once (clusterings don't depend on the probe),
    // charge it once; one protocol state serves every phase.
    let cd_params = CompeteParams::default();
    let mut cd_state = CompeteState::default();
    let pre = match kind {
        BroadcastKind::CzumajDavies => {
            let p = Precomputed::build(g, net, &cd_params, rng::derive(seed, 0xB5));
            total_rounds += p.charged_rounds;
            Some(p)
        }
        BroadcastKind::Bgi | BroadcastKind::BeepWaveCd => None,
    };

    for phase in 0..bits {
        // Each node uses its own belief of the range.
        let mids: Vec<u64> = (0..n).map(|v| lo[v] + (hi[v] - lo[v]) / 2).collect();
        let sources: Vec<(NodeId, u64)> = (0..n)
            .filter(|&v| ids[v] >= mids[v] && ids[v] < hi[v])
            .map(|v| (v as NodeId, 1u64))
            .collect();

        // Heard[v] = did v learn "present" this phase?
        let heard: Vec<bool> = if sources.is_empty() {
            // Nobody transmits; every node correctly hears silence. The
            // phase still lasts its full synchronous budget.
            total_rounds += t_bc;
            vec![false; n]
        } else {
            match kind {
                BroadcastKind::Bgi => {
                    let mut p =
                        DecayBroadcast::new(net, &sources, rng::derive(seed, 100 + phase as u64));
                    let stats = sim.run_until(&mut p, t_bc, |_, p| p.all_informed());
                    total_rounds += stats.rounds;
                    // Idle remainder of the phase budget (synchronous phases).
                    total_rounds += t_bc - stats.rounds;
                    (0..n).map(|v| p.value_of(v as NodeId).is_some()).collect()
                }
                BroadcastKind::CzumajDavies => {
                    let pre = pre.as_ref().expect("built above");
                    let mut p = CompeteProtocol::reuse(
                        pre,
                        cd_params,
                        &sources,
                        rng::derive(seed, 100 + phase as u64),
                        &mut cd_state,
                    );
                    let stats = sim.run_until(&mut p, t_bc, |_, p| p.all_know_target());
                    total_rounds += stats.rounds;
                    total_rounds += t_bc - stats.rounds;
                    (0..n).map(|v| p.value_of(v as NodeId).is_some()).collect()
                }
                BroadcastKind::BeepWaveCd => {
                    let src_nodes: Vec<NodeId> = sources.iter().map(|&(v, _)| v).collect();
                    let mut p = crate::BeepWave::new(n, &src_nodes);
                    sim.run(&mut p, t_bc);
                    total_rounds += t_bc;
                    (0..n).map(|v| p.reached(v as NodeId)).collect()
                }
            }
        };

        for v in 0..n {
            if heard[v] || (ids[v] >= mids[v] && ids[v] < hi[v]) {
                lo[v] = mids[v];
            } else {
                hi[v] = mids[v];
            }
        }
    }

    let consistent = lo.windows(2).all(|w| w[0] == w[1]) && hi.windows(2).all(|w| w[0] == w[1]);
    let leader =
        if consistent { (0..n).find(|&v| ids[v] == lo[0]).map(|v| v as NodeId) } else { None };
    BinarySearchLeReport { leader, rounds: total_rounds, phases: bits, consistent }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_sim::FaultPlan;

    /// A fault-free run on a throwaway Frontier scratch.
    fn elect(g: &Graph, kind: BroadcastKind, seed: u64) -> BinarySearchLeReport {
        let net = NetParams::of_graph(g);
        binary_search_leader_election(&mut SimScratch::new(), g, net, kind, seed, None)
    }

    #[test]
    fn elects_max_id_over_bgi() {
        let g = generators::grid(8, 8);
        let net = NetParams::of_graph(&g);
        let r = elect(&g, BroadcastKind::Bgi, 7);
        assert!(r.consistent, "probe budgets should suffice whp");
        assert!(r.leader.is_some());
        assert_eq!(r.phases, 2 * net.log2_n());
        assert_eq!(
            r.rounds,
            r.phases as u64 * {
                let log_n = net.log2_n() as u64;
                4 * (net.diameter() as u64 + log_n) * log_n
            }
        );
    }

    #[test]
    fn elects_over_compete_probe() {
        let g = generators::grid(8, 8);
        let r = elect(&g, BroadcastKind::CzumajDavies, 9);
        assert!(r.consistent);
        assert!(r.leader.is_some());
    }

    #[test]
    fn starved_probes_break_consistency() {
        // Total dropout keeps every node down, so no probe is heard: the
        // sources step up and everyone else steps down. The run must
        // surface that inconsistency — never panic or fabricate a leader.
        let g = generators::path(64);
        let (net, faults) = (NetParams::of_graph(&g), FaultPlan::drop(1.0).resolve(g.n(), 3));
        let engine = &mut SimScratch::new();
        let r =
            binary_search_leader_election(engine, &g, net, BroadcastKind::Bgi, 3, Some(&faults));
        assert!(!r.consistent);
        assert_eq!(r.leader, None);
    }

    #[test]
    fn elects_over_beep_wave_cd_probe() {
        let g = generators::grid(8, 8);
        let net = NetParams::of_graph(&g);
        let r = elect(&g, BroadcastKind::BeepWaveCd, 13);
        assert!(r.consistent, "beep probes are deterministic given sources");
        assert!(r.leader.is_some());
        // Exactly phases * (D+1) rounds (modulo the 16-round phase floor):
        // the CD probe needs no slack at all.
        assert_eq!(r.rounds, r.phases as u64 * (net.diameter() as u64 + 1).max(16));
    }

    #[test]
    fn leader_holds_the_maximum_id_on_path() {
        let g = generators::path(32);
        let r = elect(&g, BroadcastKind::Bgi, 11);
        assert!(r.consistent);
        assert!(r.leader.is_some());
    }
}
