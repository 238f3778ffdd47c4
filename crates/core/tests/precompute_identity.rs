//! Oracle-precompute byte-identity regression gate.
//!
//! Every broadcast and leader-election trial starts with
//! [`Precomputed::rebuild`]: a coarse Partition(β), fine partitions within
//! the coarse clusters, background partitions, and one Lemma 2.3 tree
//! schedule per clustering. The committed baselines pin the rounds those
//! trials report, so the precompute must stay bit-reproducible: the same
//! graph and seed give the exact same centers, slots and charged rounds. This
//! test pins a SplitMix64 fold over all of them, on the two benchmark
//! topologies at two trial seeds. A change to the race's tie-breaking, the
//! greedy coloring's conflict sets, the RNG streams or the rebuild's call
//! order shows up here as a fingerprint mismatch before it shows up as a
//! baseline diff.

use rn_cluster::Partition;
use rn_core::{CompeteParams, PrecomputeScratch, Precomputed};
use rn_graph::{Graph, TopologySpec};
use rn_schedule::TreeSchedule;
use rn_sim::rng::{derive, splitmix64};
use rn_sim::NetParams;

fn fold(h: &mut u64, x: u64) {
    *h = splitmix64(*h ^ x);
}

/// Order-sensitive fold of one clustering: every node's center, downcast
/// slot and upcast slot, then the window.
fn fold_clustering(h: &mut u64, g: &Graph, p: &Partition, s: &TreeSchedule) {
    for v in g.nodes() {
        fold(h, (p.center_of(v) as u64) << 32 | v as u64);
        fold(h, (s.down_slot(v) as u64) << 32 | s.up_slot(v) as u64);
    }
    fold(h, s.window() as u64);
}

fn fingerprint(pre: &Precomputed, g: &Graph) -> u64 {
    let mut h = splitmix64(g.n() as u64);
    fold_clustering(&mut h, g, &pre.coarse, &pre.coarse_sched);
    for f in pre.fines.iter().chain(&pre.bg) {
        fold_clustering(&mut h, g, &f.partition, &f.schedule);
    }
    fold(&mut h, pre.charged_rounds);
    h
}

#[test]
fn benchmark_precomputes_are_byte_identical() {
    // (topology, trial seed, pinned fingerprint). The graphs are built at
    // topology seed 0 and given the executor's double-sweep `D`; the
    // precompute seed is derived from the trial seed on the same stream the
    // broadcast and leader-election entry points use.
    // Trial seeds are the first two the executor would hand a cell seeded
    // with the experiments CLI's default master seed.
    let pinned: &[(&str, u64, u64)] = &[
        ("rgg(5000,0.03)", derive(20170725, 0), 0x99f3_d6e2_9046_b5fe),
        ("rgg(5000,0.03)", derive(20170725, 1), 0x06e5_a776_8b33_5c2e),
        ("grid(500x10)", derive(20170725, 0), 0xd147_ce70_99df_2d72),
        ("grid(500x10)", derive(20170725, 1), 0x46dc_2d53_6eb0_1ac5),
    ];
    let params = CompeteParams::default();
    // One pooled value carried across the cases, as an executor worker
    // carries it across cells: it must land on the fresh bytes every time.
    let warm = rn_graph::generators::path(20);
    let mut pooled = Precomputed::build(&warm, NetParams::new(20, 19), &params, 1);
    let mut scratch = PrecomputeScratch::default();
    for &(spec, trial_seed, want) in pinned {
        let g = spec.parse::<TopologySpec>().expect("spec parses").build(0);
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        let pre_seed = derive(trial_seed, 0x9DE);
        let got = fingerprint(&Precomputed::build(&g, net, &params, pre_seed), &g);
        pooled.rebuild(&g, net, &params, pre_seed, &mut scratch);
        assert_eq!(fingerprint(&pooled, &g), got, "{spec} @ {trial_seed:#x}: pooled != fresh");
        assert_eq!(
            got, want,
            "precompute bytes changed for {spec} @ trial seed {trial_seed:#x}: \
             fingerprint {got:#018x} != pinned {want:#018x}"
        );
    }
}
