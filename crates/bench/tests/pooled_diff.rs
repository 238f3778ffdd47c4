//! Cold-vs-warm gate for the one trial path: every registered protocol
//! family, run through [`rn_sim::Runnable::run`] with ONE long-lived
//! [`rn_sim::TrialPool`] (warm), must produce a [`rn_sim::TrialRecord`]
//! byte-identical to a run on a new `TrialPool` per trial (cold) — across
//! topologies of different sizes and shapes, both collision models, every
//! fault-plan form, and repeated seeds.
//!
//! Sharing a single pool across the whole sweep is the point: it forces
//! every scenario-type switch (the pool's `Any` slot is recreated), every
//! graph switch (scratch re-arms, graph-keyed caches rebuild), and every
//! back-to-back reuse (stale state from the previous trial must be
//! unobservable) that the campaign executor's per-worker pools see in
//! production.

use rn_bench::ProtocolSpec;
use rn_graph::TopologySpec;
use rn_sim::{CollisionModel, FaultPlan, NetParams, TrialCtx, TrialPool};

#[test]
fn pooled_trials_match_fresh_trials_across_the_whole_registry() {
    let topologies = [
        TopologySpec::Grid { w: 8, h: 8 },
        TopologySpec::Complete(24),
        TopologySpec::Path(40),
        TopologySpec::Rgg { n: 48, radius: 0.3 },
    ];
    let faults =
        [FaultPlan::none(), FaultPlan::drop(0.05), FaultPlan::jam(2, 0.5), FaultPlan::crash(0.01)];
    // One pool for everything — the worst-case reuse schedule.
    let mut warm = TrialPool::new();
    for topo in &topologies {
        let g = topo.build(0xD1FF);
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        for spec in ProtocolSpec::all() {
            if spec.required_nodes() > g.n() {
                continue;
            }
            let runnable = spec.instantiate();
            for model in [CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection]
            {
                for (fi, fault) in faults.iter().enumerate() {
                    for seed in 0..2u64 {
                        let ctx = TrialCtx::new(&g, net, model, seed, fault);
                        let cold = runnable.run(&ctx, &mut TrialPool::new());
                        let pooled = runnable.run(&ctx, &mut warm);
                        assert_eq!(
                            cold, pooled,
                            "{spec} × {topo} × {model:?} × fault[{fi}] × seed {seed} diverged \
                             between a cold pool and the warm one"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn pooled_path_is_deterministic_across_distinct_pools() {
    // Two pools with different histories must replay the same trial
    // identically: records depend on (scenario, graph, model, seed, faults),
    // never on what a pool ran before.
    let g = TopologySpec::Grid { w: 8, h: 8 }.build(1);
    let net = NetParams::new(g.n(), g.diameter_double_sweep());
    let ctx = |seed| {
        TrialCtx::new(&g, net, CollisionModel::NoCollisionDetection, seed, &FaultPlan::none())
    };
    let mut warm = TrialPool::new();
    for spec in ProtocolSpec::all() {
        if spec.required_nodes() > g.n() {
            continue;
        }
        // Warm this pool with a different seed first.
        let r = spec.instantiate();
        r.run(&ctx(99), &mut warm);
        let a = r.run(&ctx(7), &mut warm);
        let b = r.run(&ctx(7), &mut TrialPool::new());
        assert_eq!(a, b, "{spec}: pool history leaked into the record");
    }
}
