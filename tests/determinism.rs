//! Determinism: every run is a pure function of (graph, params, seed).

use radio_networks::prelude::*;

#[test]
fn broadcast_reports_are_seed_deterministic() {
    let g = graph::generators::grid(9, 9);
    let params = core::CompeteParams::default();
    let a = core::broadcast(&g, 0, &params, 77).unwrap();
    let b = core::broadcast(&g, 0, &params, 77).unwrap();
    assert_eq!(a, b, "same seed must give identical reports");
    let c = core::broadcast(&g, 0, &params, 78).unwrap();
    assert_ne!(
        (a.propagation_rounds, a.metrics.transmissions),
        (c.propagation_rounds, c.metrics.transmissions),
        "different seeds should differ (overwhelmingly likely)"
    );
}

#[test]
fn leader_election_is_seed_deterministic() {
    let g = graph::generators::random_geometric(150, 0.12, &mut SmallRng::seed_from_u64(5));
    let params = core::CompeteParams::default();
    let a = core::leader_election(&g, &params, 9).unwrap();
    let b = core::leader_election(&g, &params, 9).unwrap();
    assert_eq!(a.leader, b.leader);
    assert_eq!(a.compete, b.compete);
}

#[test]
fn generators_are_seed_deterministic() {
    let a = graph::generators::random_geometric(200, 0.1, &mut SmallRng::seed_from_u64(3));
    let b = graph::generators::random_geometric(200, 0.1, &mut SmallRng::seed_from_u64(3));
    assert_eq!(a, b);
    let t1 = graph::generators::random_tree(64, &mut SmallRng::seed_from_u64(4));
    let t2 = graph::generators::random_tree(64, &mut SmallRng::seed_from_u64(4));
    assert_eq!(t1, t2);
}

#[test]
fn baseline_runs_are_seed_deterministic() {
    let g = graph::generators::grid(10, 10);
    let net = NetParams::of_graph(&g);
    let a = baselines::bgi_broadcast(&g, net, 21);
    let b = baselines::bgi_broadcast(&g, net, 21);
    assert_eq!(a, b);
    let bgi = baselines::BroadcastKind::Bgi;
    // A reused scratch replays the run exactly.
    let engine = &mut sim::SimScratch::new();
    let l1 = baselines::binary_search_leader_election(engine, &g, net, bgi, 5, None);
    let l2 = baselines::binary_search_leader_election(engine, &g, net, bgi, 5, None);
    assert_eq!(l1, l2);
}

#[test]
fn simulator_transcripts_are_deterministic() {
    // Two identically-seeded decay broadcasts must produce identical
    // round-by-round metrics, not just identical outcomes.
    let g = graph::generators::grid(8, 8);
    let net = NetParams::of_graph(&g);
    let run = || {
        let mut p = decay::DecayBroadcast::new(net, &[(0, 1)], 33);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 33);
        let mut trail = Vec::new();
        for _ in 0..200 {
            sim.step_with(&mut p);
            let m = sim.metrics();
            trail.push((m.transmissions, m.deliveries, m.collisions));
        }
        trail
    };
    assert_eq!(run(), run());
}
