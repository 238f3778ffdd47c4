use crate::tree::TreeSchedule;
use rn_graph::NodeId;
use rn_sim::{Protocol, Round, TxBuf};

/// Message carried by schedule executions: the transmitting node's cluster
/// index and the value being moved. Receivers discard messages from other
/// clusters (intra-cluster propagation is, by definition, per cluster; value
/// exchange *between* clusters happens across successive clusterings, not
/// within one schedule pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedMsg {
    /// Cluster index of the transmitter.
    pub cluster: u32,
    /// The `u64` value being propagated (Compete messages are totally
    /// ordered; `u64` covers the paper's integer-valued messages).
    pub value: u64,
}

/// Which way a [`SchedulePass`] moves values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleOp {
    /// One-to-all: every center's value flows down its cluster tree, one
    /// layer window at a time, out to the radius.
    Downcast,
    /// All-to-one: max-convergecast of participating nodes' values to their
    /// cluster centers, deepest layer first. Values are aggregated (max) at
    /// every hop, so the center learns the maximum of all participants
    /// within the radius whose path was not jammed by another cluster.
    Upcast,
}

/// One **schedule pass** over a [`TreeSchedule`], in the direction of its
/// [`ScheduleOp`]. All clusters run simultaneously; intra-cluster
/// collisions are prevented by the slot coloring, inter-cluster collisions
/// are left to the caller's background process (paper Algorithm 4). Every
/// node within the radius keeps the maximum own-cluster value it holds or
/// hears.
#[derive(Debug)]
pub struct SchedulePass<'s> {
    op: ScheduleOp,
    sched: &'s TreeSchedule,
    radius: u32,
    value: Vec<Option<u64>>,
}

impl<'s> SchedulePass<'s> {
    /// Starts an `op` pass to `radius` from per-node values: for a downcast
    /// the seed values (typically centers hold their cluster's current max,
    /// everyone else `None`), for an upcast `Some(value)` at exactly the
    /// participating nodes.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the schedule's node count.
    pub fn new(
        op: ScheduleOp,
        sched: &'s TreeSchedule,
        radius: u32,
        values: Vec<Option<u64>>,
    ) -> SchedulePass<'s> {
        assert_eq!(values.len(), sched_len(sched), "one value per node");
        SchedulePass { op, sched, radius: radius.min(sched.max_depth()), value: values }
    }

    /// Convenience: a downcast seeding each cluster center with
    /// `values_by_cluster[its cluster index]`.
    pub fn downcast_from_centers(
        sched: &'s TreeSchedule,
        radius: u32,
        values_by_cluster: &[Option<u64>],
    ) -> SchedulePass<'s> {
        let n = sched_len(sched);
        let mut seed = vec![None; n];
        for v in 0..n {
            let v = v as NodeId;
            if sched.depth(v) == 0 {
                seed[v as usize] = values_by_cluster[sched.cluster(v) as usize];
            }
        }
        SchedulePass::new(ScheduleOp::Downcast, sched, radius, seed)
    }

    /// Number of rounds a full pass takes.
    pub fn pass_len(&self) -> u64 {
        self.sched.pass_len(self.radius)
    }

    /// Value held by `node`: its cluster's center value once a downcast
    /// reached it; for upcast centers, the convergecast result.
    pub fn value_of(&self, node: NodeId) -> Option<u64> {
        self.value[node as usize]
    }

    /// Consumes the executor, returning the per-node values.
    pub fn into_values(self) -> Vec<Option<u64>> {
        self.value
    }
}

impl Protocol for SchedulePass<'_> {
    type Msg = SchedMsg;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<SchedMsg>) {
        let w = self.sched.window() as u64;
        let window = (round / w) as u32;
        let slot = (round % w) as u32;
        if window > self.radius {
            return;
        }
        let senders = match self.op {
            ScheduleOp::Downcast => self.sched.down_senders(window, slot),
            ScheduleOp::Upcast => {
                let depth = self.radius - window; // deepest first
                if depth == 0 {
                    return; // centers never transmit upward
                }
                self.sched.up_senders(depth, slot)
            }
        };
        for &u in senders {
            if let Some(v) = self.value[u as usize] {
                tx.send(u, SchedMsg { cluster: self.sched.cluster(u), value: v });
            }
        }
    }

    fn deliver(&mut self, _round: Round, node: NodeId, _from: NodeId, msg: &SchedMsg) {
        if msg.cluster != self.sched.cluster(node) {
            return;
        }
        if self.sched.depth(node) > self.radius {
            return; // curtailment: nodes beyond the radius do not participate
        }
        let slot = &mut self.value[node as usize];
        match slot {
            None => *slot = Some(msg.value),
            Some(old) if msg.value > *old => *old = msg.value,
            _ => {}
        }
    }

    fn done(&self, round: Round) -> bool {
        round >= self.pass_len()
    }
}

fn sched_len(sched: &TreeSchedule) -> usize {
    // nodes_at_depth partitions the node set.
    (0..=sched.max_depth()).map(|d| sched.nodes_at_depth(d).len()).sum()
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

    #[test]
    fn downcast_informs_exactly_the_radius_ball() {
        let g = generators::grid(11, 11);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let radius = 6;
        let mut dc = SchedulePass::downcast_from_centers(&sched, radius, &[Some(77)]);
        let budget = dc.pass_len();
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        sim.run(&mut dc, budget);
        for v in g.nodes() {
            if sched.depth(v) <= radius {
                assert_eq!(dc.value_of(v), Some(77), "node {v} at depth {}", sched.depth(v));
            } else {
                assert_eq!(dc.value_of(v), None, "node {v} beyond radius");
            }
        }
    }

    #[test]
    fn downcast_radius_zero_reaches_center_only() {
        let g = generators::path(20);
        let part = single_cluster(&g);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let mut dc = SchedulePass::downcast_from_centers(&sched, 0, &[Some(5)]);
        let budget = dc.pass_len();
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
        sim.run(&mut dc, budget);
        let informed = g.nodes().filter(|&v| dc.value_of(v).is_some()).count();
        assert_eq!(informed, 1);
    }

    #[test]
    fn upcast_delivers_max_to_center() {
        let g = generators::grid(9, 9);
        let part = single_cluster(&g);
        let center = part.centers()[0];
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        // Three participants with different values; deepest holds the max.
        let mut participating = vec![None; g.n()];
        let deepest = g.nodes().max_by_key(|&v| sched.depth(v)).unwrap();
        participating[deepest as usize] = Some(900);
        participating[10] = Some(5);
        participating[30] = Some(17);
        let mut uc =
            SchedulePass::new(ScheduleOp::Upcast, &sched, sched.max_depth(), participating);
        let budget = uc.pass_len();
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 2);
        sim.run(&mut uc, budget);
        assert_eq!(uc.value_of(center), Some(900));
    }

    #[test]
    fn upcast_with_no_participants_leaves_center_empty() {
        let g = generators::path(30);
        let part = single_cluster(&g);
        let center = part.centers()[0];
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let mut uc =
            SchedulePass::new(ScheduleOp::Upcast, &sched, sched.max_depth(), vec![None; g.n()]);
        let budget = uc.pass_len();
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 3);
        let stats = sim.run(&mut uc, budget);
        assert_eq!(uc.value_of(center), None);
        assert_eq!(stats.metrics.transmissions, 0, "silence when nobody participates");
    }

    #[test]
    fn upcast_curtailment_ignores_deep_participants() {
        let g = generators::path(40); // center lands somewhere in the middle
        let part = single_cluster(&g);
        let center = part.centers()[0];
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let deepest = g.nodes().max_by_key(|&v| sched.depth(v)).unwrap();
        let d = sched.depth(deepest);
        assert!(d >= 4, "need some depth for the test");
        let mut participating = vec![None; g.n()];
        participating[deepest as usize] = Some(123);
        let radius = d - 2; // curtail below the participant
        let mut uc = SchedulePass::new(ScheduleOp::Upcast, &sched, radius, participating);
        let budget = uc.pass_len();
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 4);
        sim.run(&mut uc, budget);
        assert_eq!(uc.value_of(center), None, "curtailed participant must not reach center");
    }

    #[test]
    fn multi_cluster_downcast_never_delivers_foreign_values() {
        let g = generators::grid(14, 14);
        let mut rng = SmallRng::seed_from_u64(5);
        let part = Partition::compute(&g, 0.4, &mut rng);
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let values: Vec<Option<u64>> =
            (0..part.num_clusters()).map(|i| Some(1000 + i as u64)).collect();
        let mut dc = SchedulePass::downcast_from_centers(&sched, sched.max_depth(), &values);
        let budget = dc.pass_len();
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 5);
        sim.run(&mut dc, budget);
        let mut informed = 0;
        for v in g.nodes() {
            match dc.value_of(v) {
                None => {}
                Some(x) => {
                    assert_eq!(
                        x,
                        1000 + part.cluster_index(v) as u64,
                        "node {v} got a foreign cluster's value"
                    );
                    informed += 1;
                }
            }
        }
        // Centers at least are informed; boundary interference may block some
        // others, but the majority should be reached on a grid.
        assert!(informed > g.n() / 2, "only {informed} of {} informed", g.n());
    }

    #[test]
    fn round_trip_down_then_up() {
        // Down: center value reaches everyone. Up: a planted higher value
        // returns to the center. This is exactly one Intra-Cluster
        // Propagation step 1 + 2 (Algorithm 3).
        let g = generators::grid(8, 8);
        let part = single_cluster(&g);
        let center = part.centers()[0];
        let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
        let radius = sched.max_depth();

        let mut dc = SchedulePass::downcast_from_centers(&sched, radius, &[Some(10)]);
        let b = dc.pass_len();
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 6);
        sim.run(&mut dc, b);
        let after_down = dc.into_values();

        // One node knows a higher value (e.g. learnt in an earlier clustering).
        let mut participating = vec![None; g.n()];
        for v in g.nodes() {
            if after_down[v as usize] == Some(10) && v == 63 {
                participating[v as usize] = Some(99);
            }
        }
        let mut uc = SchedulePass::new(ScheduleOp::Upcast, &sched, radius, participating);
        let b = uc.pass_len();
        sim.run(&mut uc, b);
        assert_eq!(uc.value_of(center), Some(99));
    }
}
