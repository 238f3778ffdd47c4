//! Differential gate for the engine's frontier fast path: every registered
//! protocol family, run through the real scenario plumbing
//! ([`rn_sim::Runnable::run`]), must produce an *identical*
//! [`rn_sim::TrialRecord`] on a [`TrialPool::new`] (the Frontier engine) and
//! on a [`TrialPool::reference`] (the stamp-vector reference engine) — same
//! completion, same round count, same channel metrics — across random small
//! topologies, both collision models and every fault-plan form (`none`,
//! `jam`, `drop`, `crash`).
//!
//! This is the cross-crate complement of the in-crate engine tests: those
//! pin the channel semantics callback-by-callback on hand-built protocols;
//! this one pins the full registry surface, so a new family (or a
//! frontier-aware protocol fast path) cannot drift from the reference
//! engine without failing here.

use proptest::prelude::*;
use rn_bench::ProtocolSpec;
use rn_graph::TopologySpec;
use rn_sim::{CollisionModel, FaultPlan, NetParams, TrialCtx, TrialPool, TrialRecord};

/// Runs one trial of every canonical registry instance that fits the graph,
/// under both collision models, each on a fresh pool from `pool` (which
/// fixes the engine). Returns labelled records for comparison.
fn run_registry(
    topo: &TopologySpec,
    fault: &FaultPlan,
    seed: u64,
    pool: fn() -> TrialPool,
) -> Vec<(String, &'static str, TrialRecord)> {
    let g = topo.build(seed);
    let net = NetParams::new(g.n(), g.diameter_double_sweep());
    let mut out = Vec::new();
    for spec in ProtocolSpec::all() {
        if spec.required_nodes() > g.n() {
            continue;
        }
        let runnable = spec.instantiate();
        for (model, tag) in [
            (CollisionModel::NoCollisionDetection, "nocd"),
            (CollisionModel::CollisionDetection, "cd"),
        ] {
            let record = runnable.run(&TrialCtx::new(&g, net, model, seed, fault), &mut pool());
            out.push((spec.to_string(), tag, record));
        }
    }
    out
}

fn topology() -> impl Strategy<Value = TopologySpec> {
    // The shim's strategy surface has no prop_oneof; an index-mapped pair of
    // ranges draws uniformly over the same shapes. The last three families
    // are dense on purpose: a complete graph or near-critical RGG/Gnp makes
    // the frontier engine's degree-sum trigger fire *within* a single run
    // (small frontier early, saturated mid-broadcast). Below 8192 nodes the
    // word kernel takes such a round only on a graph with a bitmap row
    // (degree ≥ 64), so the RGG family is sized to have them: its central
    // nodes reach nearly every other node, and its cases cross the
    // dispatch boundary both ways.
    (0usize..9, 0usize..64).prop_map(|(family, x)| match family {
        0 => TopologySpec::Path(9 + x % 19),
        1 => TopologySpec::Cycle(9 + x % 19),
        2 => TopologySpec::Star(9 + x % 11),
        3 => TopologySpec::Grid { w: 3 + x % 3, h: 3 + (x / 3) % 3 },
        4 => TopologySpec::RandomTree(9 + x % 15),
        5 => TopologySpec::Rgg { n: 12 + x % 12, radius: 0.45 },
        6 => TopologySpec::Complete(9 + x % 24),
        7 => TopologySpec::Rgg { n: 72 + x % 24, radius: 0.9 },
        _ => TopologySpec::Gnp { n: 24 + x % 24, p: 0.6 },
    })
}

fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (0usize..4, 0usize..2).prop_map(|(kind, x)| match kind {
        0 => FaultPlan::none(),
        1 => FaultPlan::jam(1 + x, [0.3, 0.7][x]),
        2 => FaultPlan::drop([0.05, 0.2][x]),
        _ => format!("crash({})", [0.1, 0.3][x]).parse().expect("crash plan parses"),
    })
}

proptest! {
    // Each case runs the whole registry (≈ 18 instances × 2 models) twice;
    // a handful of cases already crosses every family with every fault
    // form over the run history.
    #![proptest_config(ProptestConfig { cases: 5 })]

    #[test]
    fn frontier_engine_matches_reference_for_every_registered_family(
        topo in topology(),
        fault in fault_plan(),
        seed in any::<u64>(),
    ) {
        // Every case runs the drawn topology *and* a complete graph: the
        // complete graph saturates the degree-sum trigger from round one and
        // has a bitmap row at every node (degree ≥ 64), so the CD-model
        // word-level dense kernel (whole-frontier collisions, busy-channel
        // noise at every listener) is exercised on every single proptest
        // case, not just when the draw lands on a dense family.
        for topo in [&topo, &TopologySpec::Complete(65 + (seed % 16) as usize)] {
            let reference = run_registry(topo, &fault, seed, TrialPool::reference);
            let frontier = run_registry(topo, &fault, seed, TrialPool::new);
            prop_assert_eq!(reference.len(), frontier.len());
            for (r, f) in reference.iter().zip(&frontier) {
                prop_assert_eq!(r, f, "{} × {} × {} × {} diverged", r.0, r.1, topo, fault);
            }
        }
    }
}
