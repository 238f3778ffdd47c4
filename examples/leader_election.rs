//! Leader election in a sensor field (Algorithm 6 of the paper): candidates
//! self-select with probability Θ(log n / n), draw random IDs, and the
//! network Competes on the IDs — completing in broadcast time.
//!
//! ```text
//! cargo run --release --example leader_election
//! ```

use radio_networks::prelude::*;

fn main() {
    // A long corridor deployment: the hard, large-diameter regime.
    let g = graph::generators::grid(100, 6);
    println!("corridor: n = {}, D = {}", g.n(), g.diameter());

    let params = core::CompeteParams::default();
    for seed in 0..3 {
        let report = core::leader_election(&g, &params, seed).expect("connected");
        println!(
            "seed {seed}: leader = {:?} ({} candidates, unique winner: {}), \
             rounds = {} (+{} charged precompute)",
            report.leader,
            report.num_candidates,
            report.unique_winner,
            report.compete.propagation_rounds,
            report.compete.charged_precompute_rounds,
        );
        assert!(report.compete.completed, "leader election must reach everyone");
    }

    // Compare with the classical reduction: binary search over the ID space
    // with multi-source BGI broadcast probes — a Θ(log n) multiplicative
    // overhead that Algorithm 6 removes.
    let net = NetParams::new(g.n(), g.diameter());
    let classic = baselines::binary_search_leader_election(
        &mut sim::SimScratch::new(),
        &g,
        net,
        baselines::BroadcastKind::Bgi,
        0,
        None,
    );
    println!(
        "classical binary-search reduction: leader = {:?}, rounds = {} ({} phases)",
        classic.leader, classic.rounds, classic.phases
    );
}
