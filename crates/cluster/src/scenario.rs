//! [`Runnable`] scenario + [`ProtocolFamily`] registration for the cluster
//! sub-protocol: `partition(BETA)` runs the **distributed** Partition(β)
//! construction as a real radio protocol and reports its cost and quality
//! as a [`TrialRecord`] — so the registry can measure the primitive the
//! paper's headline algorithms are built from, on the same footing (same
//! topologies, collision models and fault plans) as the algorithms
//! themselves.

use crate::distributed::{Announce, DistributedPartition, DistributedPartitionConfig};
use crate::partition::{Partition, ValidateScratch};
use rn_graph::NodeId;
use rn_sim::family::{ParsedArgs, ProtocolFamily};
use rn_sim::{Runnable, TrialCtx, TrialPool, TrialRecord, TxBuf};

/// `partition(BETA)`: one trial runs the discretized Haeupler–Wajc race
/// ([`DistributedPartition`]) to its full phase budget, extracts the
/// clustering, and scores it.
///
/// * `rounds` — the radio rounds the construction consumed (its
///   `O(log³ n / β)` budget), plus the channel metrics;
/// * `completed` — whether the extracted clustering is a *valid* §2.1
///   partition with **no repairs**: every node adopted a claim, every used
///   center is its own center, and each cluster is connected with strong
///   center distances (checked by [`crate::Partition::validate`]). Collisions
///   losing announcements — or faults silencing nodes — surface as
///   incomplete trials, which is exactly the quality signal the cell's
///   `completed` column is for.
#[derive(Debug, Clone)]
pub struct PartitionScenario {
    /// The clustering parameter β ∈ (0, 1].
    pub beta: f64,
}

impl PartitionScenario {
    /// A scenario for `beta`.
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not in `(0, 1]`.
    pub fn new(beta: f64) -> PartitionScenario {
        assert!(
            beta > 0.0 && beta <= 1.0 && beta.is_finite(),
            "partition beta {beta} not in (0, 1]"
        );
        PartitionScenario { beta }
    }
}

impl Runnable for PartitionScenario {
    fn run(&self, ctx: &TrialCtx<'_>, pool: &mut TrialPool) -> TrialRecord {
        let (g, net, seed) = (ctx.graph(), ctx.net(), ctx.seed());
        let (engine, st) = pool.parts(PartitionPool::default);
        let config = DistributedPartitionConfig::default();
        match &mut st.protocol {
            Some(p) => p.reset(net, self.beta, config, seed),
            slot @ None => *slot = Some(DistributedPartition::new(net, self.beta, config, seed)),
        }
        let p = st.protocol.as_mut().expect("slot was just filled");
        let budget = p.total_rounds();
        st.tx.clear();
        st.tx.reserve(g.n());
        let stats = ctx.simulator(engine).run_with_buf(p, &mut st.tx, budget);
        let partition = st.partition.get_or_insert_with(|| Partition::shell(self.beta));
        let repairs = p.extract_partition(partition, &mut st.used, &mut st.idx);
        let valid = repairs == 0 && partition.validate_pooled(g, &mut st.validate).is_ok();
        TrialRecord::new(valid, stats.rounds, stats.metrics)
    }
}

/// Per-worker reusable state behind [`PartitionScenario`]'s trials:
/// the protocol (re-armed in place per trial), the transmission buffer, the
/// extracted partition slot, and the extraction/validation scratch.
#[derive(Debug, Default)]
struct PartitionPool {
    protocol: Option<DistributedPartition>,
    tx: TxBuf<Announce>,
    partition: Option<Partition>,
    used: Vec<NodeId>,
    idx: Vec<u32>,
    validate: ValidateScratch,
}

/// `partition(BETA)` — the family registration.
pub struct PartitionFamily;

impl PartitionFamily {
    fn parse_beta(args: Option<&str>) -> Result<f64, String> {
        let a = args.ok_or("partition needs a beta argument, e.g. partition(0.5)")?;
        let beta: f64 = a.parse().map_err(|_| format!("partition: {a:?} is not a number"))?;
        if !(beta > 0.0 && beta <= 1.0 && beta.is_finite()) {
            return Err(format!("partition: beta {a} not in (0, 1]"));
        }
        Ok(beta)
    }
}

impl ProtocolFamily for PartitionFamily {
    fn name(&self) -> &'static str {
        "partition"
    }

    fn grammar(&self) -> &'static str {
        "partition(BETA)"
    }

    fn about(&self) -> &'static str {
        "distributed Partition(beta) construction; completed = valid clustering"
    }

    fn canonical_instances(&self) -> &'static [Option<&'static str>] {
        &[Some("0.5")]
    }

    fn parse_args(&self, args: Option<&str>) -> Result<ParsedArgs, String> {
        let beta = PartitionFamily::parse_beta(args)?;
        Ok(ParsedArgs::with_args(beta.to_string()))
    }

    fn instantiate(
        &self,
        args: Option<&str>,
        _overrides: &[(&'static rn_sim::OverrideSpec, f64)],
    ) -> Box<dyn Runnable> {
        let beta = PartitionFamily::parse_beta(args).expect("canonical partition args");
        Box::new(PartitionScenario::new(beta))
    }
}

/// The protocol families this crate contributes to the registry.
pub fn families() -> Vec<&'static dyn ProtocolFamily> {
    vec![&PartitionFamily]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::{generators, Graph};
    use rn_sim::{CollisionModel, FaultPlan, NetParams};

    /// One `nocd` trial under `plan` on a throwaway pool.
    fn faulted(s: &PartitionScenario, g: &Graph, seed: u64, plan: &FaultPlan) -> TrialRecord {
        let model = CollisionModel::NoCollisionDetection;
        let ctx = TrialCtx::new(g, NetParams::of_graph(g), model, seed, plan);
        s.run(&ctx, &mut TrialPool::new())
    }

    #[test]
    fn partition_scenario_runs_and_scores_validity() {
        let g = generators::grid(10, 10);
        let s = PartitionScenario::new(0.5);
        let r = faulted(&s, &g, 7, &FaultPlan::none());
        assert!(r.rounds > 0, "the construction consumes radio rounds");
        assert!(r.metrics.transmissions > 0, "announcements really go on the air");
        // Determinism in the trial seed.
        let again = faulted(&s, &g, 7, &FaultPlan::none());
        assert_eq!(r, again);
    }

    #[test]
    fn partition_scenario_fails_honestly_when_jammed_flat() {
        let g = generators::grid(6, 6);
        let s = PartitionScenario::new(0.5);
        // Every node jamming: no announcement survives, so nodes fall back
        // to singletons — still a valid partition? No: nodes never adopt a
        // claim and become singleton centers, which *is* §2.1-valid. The
        // honest failure signal is the repair/validity path under partial
        // jamming; under total jamming every node is its own center and the
        // trial may legitimately complete. What must never happen is a
        // panic — the scenario degrades, it does not crash.
        let r = faulted(&s, &g, 3, &FaultPlan::jam(36, 1.0));
        assert_eq!(r.metrics.deliveries, 0, "nothing is ever delivered under total jamming");
    }

    #[test]
    fn family_parses_and_canonicalizes_beta() {
        let f = PartitionFamily;
        let p = f.parse_args(Some("0.50")).expect("parses");
        assert_eq!(p.canonical.as_deref(), Some("0.5"), "beta canonicalizes via f64 Display");
        assert!(f.parse_args(None).is_err());
        assert!(f.parse_args(Some("0")).is_err());
        assert!(f.parse_args(Some("1.5")).is_err());
        assert!(f.parse_args(Some("x")).is_err());
    }

    #[test]
    #[should_panic(expected = "not in (0, 1]")]
    fn scenario_rejects_out_of_range_beta() {
        PartitionScenario::new(0.0);
    }
}
