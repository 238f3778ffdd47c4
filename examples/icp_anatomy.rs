//! Anatomy of one Intra-Cluster Propagation (Algorithm 3): watch the
//! down/up/down passes move values between a cluster center and its members,
//! step by step, on a single cluster.
//!
//! ```text
//! cargo run --release --example icp_anatomy
//! ```

use radio_networks::cluster::Partition;
use radio_networks::prelude::*;
use radio_networks::schedule::{ScheduleOp, SchedulePass, SlotPolicy, TreeSchedule};

fn main() {
    // One cluster spanning a small grid (β → 0 keeps everything together).
    let g = graph::generators::grid(9, 9);
    let mut rng = SmallRng::seed_from_u64(1);
    let part = Partition::compute(&g, 1e-9, &mut rng);
    let center = part.centers()[0];
    let sched = TreeSchedule::build(&g, &part, SlotPolicy::Auto);
    println!(
        "cluster: n = {}, center = {center}, tree depth = {}, window W = {}",
        g.n(),
        sched.max_depth(),
        sched.window()
    );

    // --- Step 1 (down): the center's value reaches everyone within ℓ.
    let radius = sched.max_depth();
    let mut down = SchedulePass::downcast_from_centers(&sched, radius, &[Some(41)]);
    let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 7);
    let mut served_trace = Vec::new();
    let budget = down.pass_len();
    for _ in 0..budget {
        sim.step_with(&mut down);
        served_trace.push(g.nodes().filter(|&v| down.value_of(v).is_some()).count());
    }
    println!(
        "down pass: {} rounds, served {} nodes (one tree layer per {}-round window)",
        budget,
        served_trace.last().unwrap(),
        sched.window()
    );

    // --- Step 2 (up): two nodes know a *higher* message (learnt in an
    // earlier clustering, says the algorithm); the max convergecasts back.
    let after_down = down.into_values();
    let mut participating = vec![None; g.n()];
    let deep = g.nodes().max_by_key(|&v| sched.depth(v)).unwrap();
    participating[deep as usize] = Some(77);
    participating[40] = Some(55);
    println!(
        "up pass: node {deep} (depth {}) holds 77, node 40 (depth {}) holds 55",
        sched.depth(deep),
        sched.depth(40)
    );
    let mut up = SchedulePass::new(ScheduleOp::Upcast, &sched, radius, participating);
    let budget = up.pass_len();
    sim.run(&mut up, budget);
    println!("          center now knows {:?} (the maximum wins)", up.value_of(center));

    // --- Step 3 (down again): the upgraded value floods back out.
    let center_value = up.value_of(center).max(after_down[center as usize]);
    let mut down2 = SchedulePass::downcast_from_centers(&sched, radius, &[center_value]);
    let budget = down2.pass_len();
    sim.run(&mut down2, budget);
    let knowing_77 = g.nodes().filter(|&v| down2.value_of(v) == Some(77)).count();
    println!("down pass 2: {} rounds, {} of {} nodes now know 77", budget, knowing_77, g.n());
    println!(
        "\ntotal: 3 passes × (depth+1)·W = {} rounds — Lemma 2.3's O(ℓ + polylog) at work;\n\
         Compete chains thousands of these slots over ever-changing clusterings.",
        3 * (sched.max_depth() as u64 + 1) * sched.window() as u64
    );
}
