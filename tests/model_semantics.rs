//! Cross-crate checks of the radio model semantics: the collision rule is
//! exactly the paper's, and protocols experience it identically whichever
//! crate they come from.

use radio_networks::prelude::*;
use radio_networks::sim::testing::NaiveFlood;
use radio_networks::sim::FaultSchedule;

/// A jam-only engine fault schedule: each of `jammers` transmits noise with
/// probability `prob` every round instead of its protocol action.
fn jamming(n: usize, jammers: Vec<NodeId>, prob: f64, seed: u64) -> Option<FaultSchedule> {
    Some(FaultSchedule::new(n, jammers, prob, 0.0, 0.0, seed))
}

#[test]
fn naive_flooding_hits_the_deterministic_collision_trap() {
    // The canonical example: on an even cycle, symmetric flooding produces a
    // permanent collision at the antipode. Randomized decay resolves it.
    let g = graph::generators::cycle(4);
    let mut flood = NaiveFlood::new(4, 0);
    let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
    sim.run(&mut flood, 100);
    assert_eq!(flood.informed_count(), 3, "antipode starves forever");

    let net = NetParams::of_graph(&g);
    let mut bgi = decay::DecayBroadcast::new(net, &[(0, 1)], 1);
    let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 1);
    sim.run_until(&mut bgi, 10_000, |_, p| p.all_informed());
    assert!(bgi.all_informed(), "decay breaks the symmetry");
}

#[test]
fn collision_detection_model_changes_observations_not_deliveries() {
    // The same protocol run under CD and no-CD must deliver identically —
    // CD only adds collision notifications.
    let g = graph::generators::grid(6, 6);
    let net = NetParams::of_graph(&g);
    let run = |model: CollisionModel| {
        let mut p = decay::DecayBroadcast::new(net, &[(0, 1)], 9);
        let mut sim = Simulator::new(&g, model, 9);
        let stats = sim.run_until(&mut p, 100_000, |_, p| p.all_informed());
        (stats.rounds, stats.metrics.deliveries, stats.metrics.collisions)
    };
    let nocd = run(CollisionModel::NoCollisionDetection);
    let cd = run(CollisionModel::CollisionDetection);
    assert_eq!(nocd, cd, "DecayBroadcast ignores collision events, so runs must be identical");
}

#[test]
fn jamming_degrades_gracefully_never_panics() {
    // Failure injection: jammed nodes never relay (their protocol actions
    // are replaced by noise), so the message must route around them. On a
    // grid with two interior jammers every other node is still reached.
    let g = graph::generators::grid(8, 8);
    let net = NetParams::of_graph(&g);
    let jammers = vec![9u32, 18];
    let mut p = decay::DecayBroadcast::new(net, &[(0, 1)], 5);
    let faults = jamming(g.n(), jammers.clone(), 0.5, 99);
    let mut simulator = Simulator::with_faults(&g, CollisionModel::NoCollisionDetection, 5, faults);
    simulator.run_until(&mut p, 100_000, |_, p| {
        g.nodes().all(|v| p.value_of(v).is_some() || jammers.contains(&v))
    });
    for v in g.nodes() {
        if !jammers.contains(&v) {
            assert_eq!(p.value_of(v), Some(1), "node {v} not reached");
        }
    }

    // An always-on jammer at a cut vertex stops everything behind it.
    let path = graph::generators::path(40);
    let pnet = NetParams::of_graph(&path);
    let mut blocked = decay::DecayBroadcast::new(pnet, &[(0, 1)], 5);
    let faults = jamming(path.n(), vec![1], 1.0, 99);
    let mut simulator =
        Simulator::with_faults(&path, CollisionModel::NoCollisionDetection, 5, faults);
    simulator.run(&mut blocked, 20_000);
    let informed = path.nodes().filter(|&v| blocked.value_of(v).is_some()).count();
    assert!(informed <= 2, "nothing can pass a permanently jammed cut vertex");
}

#[test]
fn compete_survives_jamming_without_false_completion() {
    let g = graph::generators::grid(8, 8);
    let net = NetParams::of_graph(&g);
    let params = core::CompeteParams::default();
    let pre = core::Precomputed::build(&g, net, &params, 3);
    let mut state = core::CompeteState::default();
    let mut p = core::CompeteProtocol::reuse(&pre, params, &[(0, 7)], 3, &mut state);
    let faults = jamming(g.n(), (1..8).collect(), 0.9, 17);
    let mut simulator = Simulator::with_faults(&g, CollisionModel::NoCollisionDetection, 3, faults);
    simulator.run_until(&mut p, 200_000, |_, p| p.all_know_target());
    // Whatever happened, knowledge must only ever be the true source value.
    for v in g.nodes() {
        if let Some(x) = p.value_of(v) {
            assert_eq!(x, 7, "node {v} learned a fabricated value");
        }
    }
}
