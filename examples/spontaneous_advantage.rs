//! Why spontaneous transmissions matter: (a) uninformed nodes build the
//! clustering infrastructure before any message exists — forbidden in the
//! classical lower-bound regime; (b) in the n = poly(D) regime that
//! infrastructure buys asymptotically optimal O(D) broadcasting.
//!
//! ```text
//! cargo run --release --example spontaneous_advantage
//! ```

use radio_networks::cluster::{DistributedPartition, DistributedPartitionConfig};
use radio_networks::prelude::*;

fn main() {
    // (a) The distributed Partition(β) protocol: every transmission happens
    // before any broadcast message exists — all of them spontaneous.
    let g = graph::generators::grid(24, 24);
    let net = NetParams::of_graph(&g);
    let mut proto = DistributedPartition::new(net, 0.25, DistributedPartitionConfig::default(), 11);
    let budget = proto.total_rounds();
    let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 11);
    let stats = sim.run(&mut proto, budget);
    let (partition, repairs) = proto.into_partition(&g);
    println!(
        "distributed Partition(1/4) on grid-24x24: {} clusters in {} rounds \
         ({} spontaneous transmissions, {} repairs)",
        partition.num_clusters(),
        stats.rounds,
        stats.metrics.transmissions,
        repairs
    );
    println!(
        "  -> a no-spontaneous-transmissions algorithm cannot run this phase at all;\n\
         it is the infrastructure behind beating the Ω(D·log(n/D) + log²n) lower bound.\n"
    );

    // (b) The optimality regime: on paths (n = D+1), BGI pays Θ(D·log n)
    // while the spontaneous-transmission algorithm pays Θ(D).
    println!("{:>10} {:>12} {:>8} {:>12} {:>8}", "n=D+1", "BGI", "BGI/D", "CD'17", "CD/D");
    for n in [512usize, 1024, 2048] {
        let g = graph::generators::path(n);
        let net = NetParams::new(n, (n - 1) as u32);
        let bgi = baselines::bgi_broadcast(&g, net, 3);
        // The double-sweep diameter the convenience derives is exact on paths.
        let cd = core::broadcast(&g, 0, &core::CompeteParams::default(), 3).expect("valid");
        let d = (n - 1) as f64;
        println!(
            "{:>10} {:>12} {:>8.1} {:>12} {:>8.1}",
            n,
            bgi.rounds,
            bgi.rounds as f64 / d,
            cd.propagation_rounds,
            cd.propagation_rounds as f64 / d
        );
    }
    println!("\nBGI/D grows with log n; CD/D stays flat — the paper's O(D) optimality claim.");
}
