//! End-to-end integration: broadcast and leader election across topology
//! families, exercising the whole stack (graph → sim → cluster → schedule →
//! core).

use radio_networks::prelude::*;

fn topologies(seed: u64) -> Vec<(String, Graph)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    vec![
        ("path-120".into(), graph::generators::path(120)),
        ("cycle-90".into(), graph::generators::cycle(90)),
        ("grid-12x12".into(), graph::generators::grid(12, 12)),
        ("torus-8x8".into(), graph::generators::torus(8, 8)),
        ("rgg-200".into(), graph::generators::random_geometric(200, 0.12, &mut rng)),
        ("gnp-150".into(), graph::generators::gnp_connected(150, 0.03, &mut rng)),
        ("tree-100".into(), graph::generators::random_tree(100, &mut rng)),
        ("caterpillar".into(), graph::generators::caterpillar(30, 3)),
        ("barbell".into(), graph::generators::barbell(15, 20)),
        ("chain".into(), graph::generators::cluster_chain(5, 24, 0.2, &mut rng)),
    ]
}

#[test]
fn broadcast_completes_on_every_topology_family() {
    let params = core::CompeteParams::default();
    for (name, g) in topologies(1) {
        let report = core::broadcast(&g, 0, &params, 7).expect("connected");
        assert!(
            report.completed,
            "{name}: broadcast incomplete after {} rounds",
            report.propagation_rounds
        );
        assert_eq!(report.nodes_knowing, g.n(), "{name}");
    }
}

#[test]
fn leader_election_agrees_on_every_topology_family() {
    let params = core::CompeteParams::default();
    for (name, g) in topologies(2) {
        let report = core::leader_election(&g, &params, 11).expect("connected");
        assert!(report.compete.completed, "{name}: LE incomplete");
        assert!(report.leader.is_some(), "{name}: no leader");
        assert!(report.unique_winner, "{name}: ID collision (improbable)");
        assert!(report.num_candidates >= 1, "{name}");
    }
}

#[test]
fn broadcast_from_every_corner_of_a_grid() {
    let g = graph::generators::grid(10, 10);
    let params = core::CompeteParams::default();
    for source in [0u32, 9, 90, 99, 55] {
        let report = core::broadcast(&g, source, &params, 13).expect("connected");
        assert!(report.completed, "source {source}");
    }
}

#[test]
fn disconnected_graph_is_rejected() {
    let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
    let params = core::CompeteParams::default();
    let err = core::broadcast(&g, 0, &params, 1).unwrap_err();
    assert_eq!(err, core::CompeteError::Disconnected);
    let err = core::leader_election(&g, &params, 1).unwrap_err();
    assert_eq!(err, core::CompeteError::Disconnected);
    // Invalid sources are reported before connectivity is looked at.
    let err = core::compete(&g, &[], &params, 1).unwrap_err();
    assert_eq!(err, core::CompeteError::NoSources);
    let err = core::broadcast(&g, 9, &params, 1).unwrap_err();
    assert_eq!(err, core::CompeteError::SourceOutOfRange { node: 9 });
}

#[test]
fn invalid_source_is_rejected() {
    let g = graph::generators::path(4);
    let params = core::CompeteParams::default();
    let err = core::broadcast(&g, 9, &params, 1).unwrap_err();
    assert_eq!(err, core::CompeteError::SourceOutOfRange { node: 9 });
    let err = core::compete(&g, &[], &params, 1).unwrap_err();
    assert_eq!(err, core::CompeteError::NoSources);
}

#[test]
fn single_node_network_works() {
    let g = Graph::from_edges(1, &[]).unwrap();
    let report = core::broadcast(&g, 0, &core::CompeteParams::default(), 1).expect("trivial");
    assert!(report.completed);
    assert_eq!(report.propagation_rounds, 0);
}

#[test]
fn haeupler_wajc_mode_also_completes() {
    let g = graph::generators::grid(10, 10);
    let report = core::broadcast(&g, 0, &core::CompeteParams::haeupler_wajc(), 3).expect("runs");
    assert!(report.completed);
}
