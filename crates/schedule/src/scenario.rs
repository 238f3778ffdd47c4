//! [`Runnable`] scenario + [`ProtocolFamily`] registration for the schedule
//! executor: `schedule(downcast|upcast[,BETA])` measures one
//! [`SchedulePass`] over a **fresh Partition(β)** — the Lemma 2.3
//! substrate the paper's pipeline is built on — as a real radio protocol on
//! the campaign's footing (topologies × models × faults).
//!
//! Per trial: sample a fresh oracle Partition(β) from the trial seed, build
//! the [`TreeSchedule`], seed per-cluster values, and run one full-radius
//! pass through the simulator. `completed` reports whether the pass met the
//! *simultaneous-clusters* contract — downcast: every node received its own
//! cluster's center value; upcast: every center aggregated its cluster's
//! maximum. Intra-cluster collisions cannot happen (the slot coloring
//! forbids them); *inter*-cluster collisions can and do, which is exactly
//! what the paper's Intra-Cluster Propagation background process exists to
//! absorb — so the completion rate of these cells quantifies how much work
//! ICP has to do at a given β.

use crate::executors::{ScheduleOp, SchedulePass};
use crate::tree::{SlotPolicy, TreeSchedule, TreeScheduleScratch};
use rn_cluster::{Partition, PartitionScratch};
use rn_graph::Graph;
use rn_sim::family::{ParsedArgs, ProtocolFamily};
use rn_sim::{rng, Runnable, Simulator, TrialCtx, TrialPool, TrialRecord};

/// Per-worker reusable state behind [`ScheduleScenario`]'s trials:
/// the per-trial partition and tree schedule (recomputed in place) plus
/// their construction scratch. The executors themselves still allocate
/// their value tables — this scenario is not on the zero-allocation
/// contract; pooling just removes the dominant construction buffers.
#[derive(Debug, Default)]
struct SchedulePool {
    partition: Option<Partition>,
    pscratch: PartitionScratch,
    schedule: Option<TreeSchedule>,
    sscratch: TreeScheduleScratch,
}

impl ScheduleOp {
    fn as_str(self) -> &'static str {
        match self {
            ScheduleOp::Downcast => "downcast",
            ScheduleOp::Upcast => "upcast",
        }
    }
}

/// Default clustering parameter when the spec elides it.
pub const DEFAULT_SCHEDULE_BETA: f64 = 0.25;

/// One Downcast/Upcast pass over a fresh per-trial Partition(β). A trial
/// completes when the pass met the simultaneous-clusters contract:
/// downcast, every node received its own cluster's center value; upcast,
/// every center aggregated its cluster's maximum.
#[derive(Debug, Clone)]
pub struct ScheduleScenario {
    /// The pass under measurement.
    pub op: ScheduleOp,
    /// Clustering parameter of the per-trial partition.
    pub beta: f64,
}

impl ScheduleScenario {
    /// A scenario for `op` over Partition(`beta`).
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not in `(0, 1]`.
    pub fn new(op: ScheduleOp, beta: f64) -> ScheduleScenario {
        assert!(
            beta > 0.0 && beta <= 1.0 && beta.is_finite(),
            "schedule beta {beta} not in (0, 1]"
        );
        ScheduleScenario { op, beta }
    }

    /// One executor pass over the trial's clustering + schedule.
    fn run_pass(
        &self,
        g: &Graph,
        part: &Partition,
        sched: &TreeSchedule,
        sim: &mut Simulator<'_>,
    ) -> TrialRecord {
        let (radius, n) = (sched.max_depth(), g.n() as u64);
        let mut pass = match self.op {
            // Every center broadcasts a distinct per-cluster value.
            ScheduleOp::Downcast => {
                let values: Vec<Option<u64>> =
                    (0..part.num_clusters()).map(|i| Some(i as u64 + 1)).collect();
                SchedulePass::downcast_from_centers(sched, radius, &values)
            }
            // Every node participates with a value decreasing in node id,
            // so each center must learn the smallest member id's value — a
            // max that genuinely has to travel.
            ScheduleOp::Upcast => {
                let participating = g.nodes().map(|v| Some(n - v as u64)).collect();
                SchedulePass::new(ScheduleOp::Upcast, sched, radius, participating)
            }
        };
        let budget = pass.pass_len();
        let stats = sim.run(&mut pass, budget);
        let complete = match self.op {
            ScheduleOp::Downcast => {
                g.nodes().all(|v| pass.value_of(v) == Some(part.cluster_index(v) as u64 + 1))
            }
            ScheduleOp::Upcast => part.centers().iter().all(|&c| {
                let members = part.members(part.cluster_index(c)).iter();
                pass.value_of(c) == members.map(|&v| n - v as u64).max()
            }),
        };
        TrialRecord::new(complete, stats.rounds, stats.metrics)
    }
}

impl Runnable for ScheduleScenario {
    fn run(&self, ctx: &TrialCtx<'_>, pool: &mut TrialPool) -> TrialRecord {
        let g = ctx.graph();
        let (engine, st) = pool.parts(SchedulePool::default);
        // The partition is part of the trial's randomness: a fresh oracle
        // clustering per trial, from a dedicated stream of the trial seed.
        let mut prng = rng::stream_rng(ctx.seed(), 0x5CED);
        if let Some(p) = st.partition.as_mut() {
            p.recompute(g, self.beta, &mut prng, &mut st.pscratch);
        } else {
            st.partition = Some(Partition::compute(g, self.beta, &mut prng));
        }
        let part = st.partition.as_ref().expect("slot was just filled");
        if let Some(s) = st.schedule.as_mut() {
            s.rebuild(g, part, SlotPolicy::Auto, &mut st.sscratch);
        } else {
            st.schedule = Some(TreeSchedule::build(g, part, SlotPolicy::Auto));
        }
        let sched = st.schedule.as_ref().expect("slot was just filled");
        self.run_pass(g, part, sched, &mut ctx.simulator(engine))
    }
}

/// `schedule(downcast|upcast[,BETA])` — the family registration.
pub struct ScheduleFamily;

impl ScheduleFamily {
    fn parse(args: Option<&str>) -> Result<(ScheduleOp, f64), String> {
        let a = args.ok_or("schedule needs an executor, e.g. schedule(downcast)")?;
        let (op_str, beta_str) = match a.split_once(',') {
            Some((op, b)) => (op.trim(), Some(b.trim())),
            None => (a.trim(), None),
        };
        let op = match op_str {
            "downcast" => ScheduleOp::Downcast,
            "upcast" => ScheduleOp::Upcast,
            other => {
                return Err(format!("unknown schedule executor {other:?} (downcast | upcast)"))
            }
        };
        let beta = match beta_str {
            None => DEFAULT_SCHEDULE_BETA,
            Some(b) => {
                let beta: f64 =
                    b.parse().map_err(|_| format!("schedule: {b:?} is not a number"))?;
                if !(beta > 0.0 && beta <= 1.0 && beta.is_finite()) {
                    return Err(format!("schedule: beta {b} not in (0, 1]"));
                }
                beta
            }
        };
        Ok((op, beta))
    }
}

impl ProtocolFamily for ScheduleFamily {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn grammar(&self) -> &'static str {
        "schedule(downcast|upcast[,BETA])"
    }

    fn about(&self) -> &'static str {
        "one Downcast/Upcast pass over a fresh Partition(beta) (Lemma 2.3)"
    }

    fn canonical_instances(&self) -> &'static [Option<&'static str>] {
        &[Some("downcast"), Some("upcast")]
    }

    fn parse_args(&self, args: Option<&str>) -> Result<ParsedArgs, String> {
        let (op, beta) = ScheduleFamily::parse(args)?;
        let canonical = if beta == DEFAULT_SCHEDULE_BETA {
            op.as_str().to_string()
        } else {
            format!("{},{beta}", op.as_str())
        };
        Ok(ParsedArgs::with_args(canonical))
    }

    fn instantiate(
        &self,
        args: Option<&str>,
        _overrides: &[(&'static rn_sim::OverrideSpec, f64)],
    ) -> Box<dyn Runnable> {
        let (op, beta) = ScheduleFamily::parse(args).expect("canonical schedule args");
        Box::new(ScheduleScenario::new(op, beta))
    }
}

/// The protocol families this crate contributes to the registry.
pub fn families() -> Vec<&'static dyn ProtocolFamily> {
    vec![&ScheduleFamily]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_sim::{CollisionModel, FaultPlan, NetParams};

    /// One `nocd` trial under `plan` on a throwaway pool.
    fn faulted(s: &ScheduleScenario, g: &Graph, seed: u64, plan: &FaultPlan) -> TrialRecord {
        let model = CollisionModel::NoCollisionDetection;
        let ctx = TrialCtx::new(g, NetParams::of_graph(g), model, seed, plan);
        s.run(&ctx, &mut TrialPool::new())
    }

    #[test]
    fn schedule_scenarios_run_and_are_deterministic() {
        let g = generators::grid(10, 10);
        for op in [ScheduleOp::Downcast, ScheduleOp::Upcast] {
            let s = ScheduleScenario::new(op, DEFAULT_SCHEDULE_BETA);
            let a = faulted(&s, &g, 5, &FaultPlan::none());
            let b = faulted(&s, &g, 5, &FaultPlan::none());
            assert_eq!(a, b, "{op:?}: same seed, same trial");
            assert!(a.rounds > 0);
            assert!(a.metrics.transmissions > 0, "{op:?} really transmits");
        }
    }

    #[test]
    fn near_single_cluster_passes_complete() {
        // With a tiny beta the partition is (almost surely) one cluster, so
        // there is no inter-cluster interference and the Lemma 2.3 contract
        // holds exactly: both passes must complete.
        let g = generators::grid(8, 8);
        for op in [ScheduleOp::Downcast, ScheduleOp::Upcast] {
            let s = ScheduleScenario::new(op, 1e-6);
            let r = faulted(&s, &g, 3, &FaultPlan::none());
            assert!(r.completed, "{op:?} completes without inter-cluster interference");
        }
    }

    #[test]
    fn family_grammar_parses_and_canonicalizes() {
        let f = ScheduleFamily;
        let p = f.parse_args(Some("downcast")).expect("parses");
        assert_eq!(p.canonical.as_deref(), Some("downcast"), "default beta is elided");
        let p = f.parse_args(Some("upcast, 0.1")).expect("parses");
        assert_eq!(p.canonical.as_deref(), Some("upcast,0.1"));
        let p = f.parse_args(Some("upcast,0.25")).expect("parses");
        assert_eq!(p.canonical.as_deref(), Some("upcast"), "explicit default canonicalizes away");
        assert!(f.parse_args(None).is_err());
        assert!(f.parse_args(Some("sideways")).is_err());
        assert!(f.parse_args(Some("upcast,2")).is_err());
    }

    #[test]
    fn upcast_scenario_fails_honestly_when_everyone_crashes() {
        let g = generators::grid(6, 6);
        let s = ScheduleScenario::new(ScheduleOp::Downcast, 0.000001);
        let r = faulted(&s, &g, 4, &FaultPlan::crash(1.0));
        assert!(!r.completed, "a crashed network cannot complete a pass");
        assert_eq!(r.metrics.deliveries, 0);
    }
}
