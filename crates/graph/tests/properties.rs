//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rn_graph::{generators, traversal, Graph, TopologySpec};

/// Rejection-free random edge over `n ≥ 2` nodes: pick `u` and an offset.
fn arb_edge(n: usize) -> impl Strategy<Value = (u32, u32)> {
    (0..n as u32, 1..n as u32).prop_map(move |(u, k)| {
        let v = (u + k) % n as u32;
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    })
}

/// Strategy: an arbitrary edge list over `n ∈ [1, 40]` nodes.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (1usize..40).prop_flat_map(|n| {
        if n == 1 {
            Just(Graph::from_edges(1, &[]).expect("singleton")).boxed()
        } else {
            proptest::collection::vec(arb_edge(n), 0..120)
                .prop_map(move |edges| Graph::from_edges(n, &edges).expect("valid edges"))
                .boxed()
        }
    })
}

/// Strategy: a connected graph (arbitrary edges over a spanning path).
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec(arb_edge(n), 0..120).prop_map(move |mut edges| {
            for v in 1..n as u32 {
                edges.push((v - 1, v));
            }
            Graph::from_edges(n, &edges).expect("valid edges")
        })
    })
}

proptest! {
    #[test]
    fn csr_is_sorted_symmetric_simple(g in arb_graph()) {
        for u in g.nodes() {
            let adj = g.neighbors(u);
            // sorted strictly ascending => no duplicates
            prop_assert!(adj.windows(2).all(|w| w[0] < w[1]));
            for &v in adj {
                prop_assert!(v != u, "no self loops");
                prop_assert!(g.has_edge(v, u), "symmetry");
            }
        }
        // Sum of degrees is twice the edge count.
        let degsum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.m());
    }

    #[test]
    fn bfs_satisfies_triangle_inequality_over_edges(g in arb_connected_graph()) {
        let dist = traversal::bfs(&g, 0);
        for (u, v) in g.edges() {
            let du = dist[u as usize] as i64;
            let dv = dist[v as usize] as i64;
            prop_assert!((du - dv).abs() <= 1, "adjacent nodes differ by at most one layer");
        }
    }

    #[test]
    fn bfs_parents_reconstruct_shortest_paths(g in arb_connected_graph()) {
        let (dist, parent) = traversal::bfs_with_parents(&g, 0);
        for v in g.nodes() {
            let p = traversal::path_from_parents(&parent, 0, v).expect("connected");
            prop_assert_eq!(p.len() as u32 - 1, dist[v as usize]);
            for w in p.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn double_sweep_lower_bounds_exact_diameter(g in arb_connected_graph()) {
        let exact = g.diameter();
        let ds = g.diameter_double_sweep();
        prop_assert!(ds <= exact);
        // Double sweep is at least half the diameter on connected graphs.
        prop_assert!(2 * ds >= exact);
    }

    #[test]
    fn layer_histogram_sums_to_reachable(g in arb_connected_graph()) {
        let h = traversal::LayerHistogram::of(&g, 0);
        prop_assert_eq!(h.total(), g.n() as u64);
        prop_assert_eq!(h.counts[0], 1);
    }

    #[test]
    fn topology_spec_round_trips_and_builds(
        kind in 0usize..6,
        a in 3usize..24,
        b in 3usize..12,
        seed in 0u64..1000,
    ) {
        let spec = match kind {
            0 => TopologySpec::Path(a),
            1 => TopologySpec::Grid { w: a, h: b },
            2 => TopologySpec::Torus { w: a, h: b },
            3 => TopologySpec::RingOfCliques { cliques: a, size: b },
            4 => TopologySpec::Barbell { clique: a, bridge: b },
            _ => TopologySpec::RandomTree(a * b),
        };
        let s = spec.to_string();
        let back: TopologySpec = s.parse().expect("stable form parses");
        prop_assert_eq!(&back, &spec);
        let g = spec.build(seed);
        prop_assert!(g.is_connected());
        prop_assert_eq!(g, back.build(seed), "same spec + seed, same graph");
    }

    #[test]
    fn ring_of_cliques_structure(k in 3usize..12, size in 1usize..10) {
        let g = generators::ring_of_cliques(k, size);
        prop_assert_eq!(g.n(), k * size);
        prop_assert_eq!(g.m(), k * (size * (size - 1) / 2) + k);
        prop_assert!(g.is_connected());
        let expect = if size >= 2 { k as u32 / 2 + 2 } else { k as u32 / 2 };
        prop_assert_eq!(g.diameter(), expect);
    }

    #[test]
    fn random_trees_have_n_minus_1_edges(n in 1usize..200, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = generators::random_tree(n, &mut rng);
        prop_assert_eq!(t.m(), n.saturating_sub(1));
        prop_assert!(t.is_connected());
    }

    #[test]
    fn gnp_always_connected(n in 2usize..100, p in 0.0f64..0.3, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::gnp_connected(n, p, &mut rng);
        prop_assert!(g.is_connected());
    }

    #[test]
    fn rgg_always_connected(n in 2usize..120, seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::random_geometric(n, 0.08, &mut rng);
        prop_assert!(g.is_connected());
    }
}
