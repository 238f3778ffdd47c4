//! Pipelined multi-message downcast — the `k`-message half of the paper's
//! Lemma 2.3: one-to-all broadcast of `k` messages in
//! `O(ℓ + k·log n + polylog n)` rounds.
//!
//! Messages are injected one per **three** layer-windows. With gap 3, the
//! layers transmitting simultaneously at any window are `{d, d±3, d±6, …}`,
//! and a listener at depth `d+1` has neighbors only at depths
//! `{d, d+1, d+2}` (BFS property) — so the only transmitting layer it can
//! hear is its parent's, and the intra-layer slot coloring handles the rest.
//! Total cost for `k` messages to radius ℓ:
//! `(3·(k−1) + ℓ + 1) · W` rounds — linear in both ℓ and `k·W` with
//! `W = O(log n)`, exactly the Lemma 2.3 contract.

use crate::tree::TreeSchedule;
use rn_graph::NodeId;
use rn_sim::{Protocol, Round, TxBuf};

/// Message of a pipelined downcast: which cluster, which pipeline index,
/// and the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineMsg {
    /// Cluster index of the transmitter.
    pub cluster: u32,
    /// Index of the message in the pipeline (`0..k`).
    pub index: u32,
    /// Payload.
    pub value: u64,
}

/// Executes a `k`-message pipelined broadcast from every cluster center
/// simultaneously (all clusters share the window clock; clusters with fewer
/// messages simply finish their pipeline early).
#[derive(Debug)]
pub struct PipelinedDowncast<'s> {
    sched: &'s TreeSchedule,
    radius: u32,
    k: u32,
    /// `received[v][m]` = payload of message `m` at node `v`.
    received: Vec<Vec<Option<u64>>>,
}

/// Gap (in layer-windows) between consecutive pipelined messages; 3 is the
/// smallest gap for which concurrently transmitting layers are never
/// adjacent to a common listener (see module docs).
const GAP: u64 = 3;

impl<'s> PipelinedDowncast<'s> {
    /// Starts a pipeline where the center of cluster `c` broadcasts
    /// `messages_by_cluster[c]` (up to a common maximum length `k`).
    ///
    /// # Panics
    ///
    /// Panics if `messages_by_cluster` is empty or all message lists are
    /// empty.
    pub fn new(
        sched: &'s TreeSchedule,
        radius: u32,
        messages_by_cluster: &[Vec<u64>],
    ) -> PipelinedDowncast<'s> {
        let k = messages_by_cluster.iter().map(|m| m.len()).max().unwrap_or(0) as u32;
        assert!(k > 0, "pipeline needs at least one message");
        let n: usize = (0..=sched.max_depth()).map(|d| sched.nodes_at_depth(d).len()).sum();
        let mut received = vec![vec![None; k as usize]; n];
        for v in 0..n as u32 {
            if sched.depth(v) == 0 {
                let msgs = &messages_by_cluster[sched.cluster(v) as usize];
                for (m, &val) in msgs.iter().enumerate() {
                    received[v as usize][m] = Some(val);
                }
            }
        }
        PipelinedDowncast { sched, radius: radius.min(sched.max_depth()), k, received }
    }

    /// Number of pipelined messages `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Total rounds of the pipeline: `(3·(k−1) + radius + 1) · W`.
    pub fn pass_len(&self) -> u64 {
        (GAP * (self.k as u64 - 1) + self.radius as u64 + 1) * self.sched.window() as u64
    }

    /// Message `m` as received by `node`.
    pub fn value_of(&self, node: NodeId, m: u32) -> Option<u64> {
        self.received[node as usize][m as usize]
    }

    /// Whether `node` has received its cluster's entire pipeline (only
    /// indices its center actually sent).
    pub fn has_all(&self, node: NodeId, sent: usize) -> bool {
        self.received[node as usize].iter().take(sent).all(|x| x.is_some())
    }
}

impl Protocol for PipelinedDowncast<'_> {
    type Msg = PipelineMsg;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<PipelineMsg>) {
        let w = self.sched.window() as u64;
        let window = round / w;
        let slot = (round % w) as u32;
        // Layers congruent to `window mod GAP` are active; layer d carries
        // message (window - d)/GAP.
        let start = (window % GAP) as u32;
        let mut d = start;
        while d <= self.radius {
            if window >= d as u64 && (window - d as u64) / GAP < self.k as u64 {
                let m = ((window - d as u64) / GAP) as usize;
                for &u in self.sched.down_senders(d, slot) {
                    if let Some(v) = self.received[u as usize][m] {
                        tx.send(
                            u,
                            PipelineMsg {
                                cluster: self.sched.cluster(u),
                                index: m as u32,
                                value: v,
                            },
                        );
                    }
                }
            }
            d += GAP as u32;
        }
    }

    fn deliver(&mut self, _round: Round, node: NodeId, _from: NodeId, msg: &PipelineMsg) {
        if msg.cluster != self.sched.cluster(node) || self.sched.depth(node) > self.radius {
            return;
        }
        let slot = &mut self.received[node as usize][msg.index as usize];
        if slot.is_none() {
            *slot = Some(msg.value);
        }
    }

    fn done(&self, round: Round) -> bool {
        round >= self.pass_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SlotPolicy;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rn_cluster::Partition;
    use rn_graph::{generators, Graph};
    use rn_sim::{CollisionModel, Simulator};

    fn single_cluster(g: &Graph) -> Partition {
        let mut rng = SmallRng::seed_from_u64(0);
        Partition::compute(g, 1e-9, &mut rng)
    }

    fn run_pipeline(
        g: &Graph,
        sched: &TreeSchedule,
        radius: u32,
        msgs: Vec<u64>,
    ) -> Vec<Vec<Option<u64>>> {
        let k = msgs.len();
        let mut p = PipelinedDowncast::new(sched, radius, &[msgs]);
        let budget = p.pass_len();
        let mut sim = Simulator::new(g, CollisionModel::NoCollisionDetection, 3);
        sim.run(&mut p, budget);
        g.nodes().map(|v| (0..k as u32).map(|m| p.value_of(v, m)).collect()).collect()
    }

    #[test]
    fn delivers_all_k_messages_within_radius_on_grid() {
        let g = generators::grid(9, 9);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let msgs = vec![10, 20, 30, 40, 50];
        let radius = sched.max_depth();
        let got = run_pipeline(&g, &sched, radius, msgs.clone());
        for v in g.nodes() {
            for (m, &expect) in msgs.iter().enumerate() {
                assert_eq!(got[v as usize][m], Some(expect), "node {v} message {m}");
            }
        }
    }

    #[test]
    fn pipeline_cost_is_linear_in_k_and_radius() {
        let g = generators::path(100);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let w = sched.window() as u64;
        let mk = |k: usize| {
            PipelinedDowncast::new(&sched, 20, &[(0..k as u64).collect::<Vec<_>>()]).pass_len()
        };
        assert_eq!(mk(1), 21 * w);
        assert_eq!(mk(4), (3 * 3 + 21) * w);
        assert_eq!(mk(4) - mk(1), 9 * w, "3 windows per extra message");
    }

    #[test]
    fn respects_curtailment_radius() {
        let g = generators::path(60);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let radius = 5;
        let got = run_pipeline(&g, &sched, radius, vec![7, 8]);
        for v in g.nodes() {
            let within = sched.depth(v) <= radius;
            assert_eq!(got[v as usize][0].is_some(), within, "node {v}");
            assert_eq!(got[v as usize][1].is_some(), within, "node {v}");
        }
    }

    #[test]
    fn multi_cluster_pipelines_with_different_lengths() {
        let g = generators::grid(12, 12);
        let mut rng = SmallRng::seed_from_u64(5);
        let part = Partition::compute(&g, 0.25, &mut rng);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let msgs: Vec<Vec<u64>> = (0..part.num_clusters())
            .map(|c| (0..=(c % 3) as u64).map(|i| 100 * (c as u64 + 1) + i).collect())
            .collect();
        let mut p = PipelinedDowncast::new(&sched, sched.max_depth(), &msgs);
        let budget = p.pass_len();
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 9);
        sim.run(&mut p, budget);
        // No node may hold a foreign cluster's payload.
        for v in g.nodes() {
            let c = part.cluster_index(v) as usize;
            for m in 0..p.k() {
                if let Some(x) = p.value_of(v, m) {
                    assert_eq!(x, 100 * (c as u64 + 1) + m as u64, "node {v} msg {m}");
                }
            }
            // Centers trivially have their own pipeline.
            if part.is_center(v) {
                assert!(p.has_all(v, msgs[c].len()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one message")]
    fn empty_pipeline_rejected() {
        let g = generators::path(4);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let _ = PipelinedDowncast::new(&sched, 2, &[vec![]]);
    }
}
