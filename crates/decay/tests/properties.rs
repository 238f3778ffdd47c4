//! Property tests for the decay broadcasts: completion on arbitrary
//! connected graphs and structural invariants of the truncated schedule.

use proptest::prelude::*;
use rn_decay::{CoinSampler, DecayBroadcast, DecaySchedule, DecaySteps};
use rn_graph::Graph;
use rn_sim::{CollisionModel, NetParams, Simulator};

/// Single-source truncated-decay broadcast of `value` from node 0.
fn truncated(net: NetParams, value: u64, seed: u64) -> DecayBroadcast {
    let coins = CoinSampler::default();
    DecayBroadcast::with_schedule(net, &[(0, value)], seed, coins, DecaySchedule::Truncated)
}

fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..36).prop_flat_map(|n| {
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bgi_completes_on_arbitrary_connected_graphs(
        g in arb_connected_graph(), seed in any::<u64>(),
    ) {
        let net = NetParams::new(g.n(), g.diameter());
        let source = (seed % g.n() as u64) as u32;
        let mut p = DecayBroadcast::single_source(net, source, 9, seed);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, seed);
        sim.run_until(&mut p, 500_000, |_, p| p.all_informed());
        prop_assert!(p.all_informed(), "BGI stalled on n={}", g.n());
        for v in g.nodes() {
            prop_assert_eq!(p.value_of(v), Some(9));
        }
    }

    #[test]
    fn truncated_completes_on_arbitrary_connected_graphs(
        g in arb_connected_graph(), seed in any::<u64>(),
    ) {
        let net = NetParams::new(g.n(), g.diameter());
        let mut p = truncated(net, 9, seed);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, seed);
        sim.run_until(&mut p, 500_000, |_, p| p.all_informed());
        prop_assert!(p.all_informed(), "truncated decay stalled on n={}", g.n());
    }

    #[test]
    fn truncated_depths_are_ordered(n in 4usize..100_000, d in 2u32..10_000) {
        prop_assume!((d as usize) < n);
        let net = NetParams::new(n, d);
        // The cycle splits into decay rounds 1..=depth: at least one
        // truncated round, all of one depth k >= 2, then a full round >= k.
        let p = truncated(net, 1, 0);
        let mut depths: Vec<u32> = Vec::new();
        for &j in p.cycle() {
            match depths.last_mut() {
                Some(depth) if j == *depth + 1 => *depth = j,
                _ => {
                    prop_assert_eq!(j, 1, "each decay round starts at 2^-1");
                    depths.push(1);
                }
            }
        }
        let (&full, trunc) = depths.split_last().expect("nonempty cycle");
        prop_assert!(!trunc.is_empty(), "a full round at most every second round");
        prop_assert!(trunc[0] >= 2);
        prop_assert!(trunc.iter().all(|&k| k == trunc[0]));
        prop_assert!(trunc[0] <= full);
    }

    #[test]
    fn decay_probabilities_are_halving_and_bounded(depth in 1u32..40, step in 0u64..500) {
        let d = DecaySteps::new(depth);
        let p = d.probability(step);
        prop_assert!(p > 0.0 && p <= 0.5);
        // Within one round, each step halves the previous step's probability.
        if step % depth as u64 != 0 {
            prop_assert!((d.probability(step - 1) - 2.0 * p).abs() < 1e-12);
        }
    }

    #[test]
    fn informed_set_grows_monotonically(g in arb_connected_graph(), seed in any::<u64>()) {
        let net = NetParams::new(g.n(), g.diameter());
        let mut p = DecayBroadcast::single_source(net, 0, 1, seed);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, seed);
        let mut last = p.informed_count();
        for _ in 0..50 {
            sim.step_with(&mut p);
            let now = p.informed_count();
            prop_assert!(now >= last);
            last = now;
        }
    }
}
