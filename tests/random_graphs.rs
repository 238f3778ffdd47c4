//! Property tests of the full pipeline on randomly generated connected
//! graphs: completion, value conservation, and leader agreement must hold on
//! *arbitrary* topologies, not just the curated families.

use proptest::prelude::*;
use radio_networks::prelude::*;

/// Strategy: a connected graph on 2..=40 nodes (spanning path + chords).
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 1..n as u32).prop_map(move |(u, k)| {
            let v = (u + k) % n as u32;
            if u < v {
                (u, v)
            } else {
                (v, u)
            }
        });
        proptest::collection::vec(edge, 0..60).prop_map(move |mut edges| {
            for v in 1..n as u32 {
                edges.push((v - 1, v));
            }
            Graph::from_edges(n, &edges).expect("valid")
        })
    })
}

proptest! {
    // End-to-end runs are comparatively expensive; keep the case count
    // moderate — these are breadth tests, the curated suites go deep.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn broadcast_completes_on_arbitrary_connected_graphs(
        g in arb_connected_graph(),
        seed in any::<u64>(),
    ) {
        let source = (seed % g.n() as u64) as NodeId;
        let report = core::broadcast(&g, source, &core::CompeteParams::default(), seed)
            .expect("connected by construction");
        prop_assert!(report.completed, "n={} source={source} seed={seed}", g.n());
        prop_assert_eq!(report.nodes_knowing, g.n());
    }

    #[test]
    fn compete_agrees_on_the_maximum(
        g in arb_connected_graph(),
        seed in any::<u64>(),
        values in proptest::collection::vec(1u64..1_000_000, 1..6),
    ) {
        let sources: Vec<(NodeId, u64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (((seed as usize + i * 7) % g.n()) as NodeId, v))
            .collect();
        let max = *values.iter().max().unwrap();
        let report = core::compete(&g, &sources, &core::CompeteParams::default(), seed)
            .expect("connected");
        prop_assert!(report.completed);
        prop_assert_eq!(report.target, max);
    }

    #[test]
    fn leader_election_elects_exactly_one(
        g in arb_connected_graph(),
        seed in any::<u64>(),
    ) {
        let report = core::leader_election(&g, &core::CompeteParams::default(), seed)
            .expect("connected");
        prop_assert!(report.compete.completed);
        prop_assert!(report.leader.is_some());
        // ID collisions have probability ~ n²/2^32 — negligible at n ≤ 40;
        // surface them loudly if the RNG ever misbehaves.
        prop_assert!(report.unique_winner);
    }

    #[test]
    fn baselines_complete_on_arbitrary_connected_graphs(
        g in arb_connected_graph(),
        seed in any::<u64>(),
    ) {
        let net = NetParams::new(g.n(), g.diameter());
        let bgi = baselines::bgi_broadcast(&g, net, seed);
        prop_assert!(bgi.completed, "BGI failed on n={}", g.n());
        let cr = baselines::truncated_broadcast(&g, net, seed);
        prop_assert!(cr.completed, "truncated decay failed on n={}", g.n());
    }
}
