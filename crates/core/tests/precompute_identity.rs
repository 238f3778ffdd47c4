//! Oracle-precompute byte-identity regression gate.
//!
//! Every broadcast and leader-election trial starts with
//! [`Precomputed::rebuild`]: a coarse Partition(β), fine partitions within
//! the coarse clusters, background partitions, and one Lemma 2.3 tree
//! schedule per clustering. The committed baselines pin the rounds those
//! trials report, so the precompute must stay bit-reproducible: the same
//! graph and seed give the exact same centers, slots and charged rounds. This
//! test pins a SplitMix64 fold over all of them: on the two benchmark
//! topologies at two trial seeds, on `bcast_rgg`'s own topology seed, and on
//! a dense graph whose greedy colorings need more than 64 colors. A change to
//! the race's tie-breaking, the greedy coloring's conflict sets, the RNG
//! streams or the rebuild's call order shows up here as a fingerprint
//! mismatch before it shows up as a baseline diff.

use rn_cluster::Partition;
use rn_core::{CompeteParams, PrecomputeScratch, Precomputed};
use rn_graph::{Graph, TopologySpec};
use rn_schedule::{SlotPolicy, TreeSchedule};
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

/// The graph a precompute row runs on: `spec` built at `topology_seed`.
fn topology(spec: &str, topology_seed: u64) -> Graph {
    spec.parse::<TopologySpec>().expect("spec parses").build(topology_seed)
}

#[test]
fn benchmark_precomputes_are_byte_identical() {
    // (topology, topology seed, trial seed, pinned fingerprint). The graphs
    // are given the executor's double-sweep `D`; the precompute seed is
    // derived from the trial seed on the same stream the broadcast and
    // leader-election entry points use. Trial seeds are the first two the
    // executor would hand a cell seeded with the experiments CLI's default
    // master seed. `0x25f7806d620ad6fc` is the topology seed `bcast_rgg`'s
    // benchmark runs build `rgg(5000,0.03)` at. The ring of cliques has
    // layers that need more than 64 colors (see
    // `dense_precompute_colors_past_64`).
    let pinned: &[(&str, u64, u64, u64)] = &[
        ("rgg(5000,0.03)", 0, derive(20170725, 0), 0x99f3_d6e2_9046_b5fe),
        ("rgg(5000,0.03)", 0, derive(20170725, 1), 0x06e5_a776_8b33_5c2e),
        ("grid(500x10)", 0, derive(20170725, 0), 0xd147_ce70_99df_2d72),
        ("grid(500x10)", 0, derive(20170725, 1), 0x46dc_2d53_6eb0_1ac5),
        ("rgg(5000,0.03)", 0x25f7_806d_620a_d6fc, derive(20170725, 0), 0xe656_4401_1171_3cee),
        (DENSE, 0, derive(20170725, 0), 0x5242_62f9_819b_e9bd),
    ];
    let params = CompeteParams::default();
    // One pooled value carried across the cases, as an executor worker
    // carries it across cells: it must land on the fresh bytes every time.
    let warm = rn_graph::generators::path(20);
    let mut pooled = Precomputed::build(&warm, NetParams::new(20, 19), &params, 1);
    let mut scratch = PrecomputeScratch::default();
    for &(spec, topology_seed, trial_seed, want) in pinned {
        let g = topology(spec, topology_seed);
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        let pre_seed = derive(trial_seed, 0x9DE);
        let got = fingerprint(&Precomputed::build(&g, net, &params, pre_seed), &g);
        pooled.rebuild(&g, net, &params, pre_seed, &mut scratch);
        assert_eq!(fingerprint(&pooled, &g), got, "{spec} @ {trial_seed:#x}: pooled != fresh");
        assert_eq!(
            got, want,
            "precompute bytes changed for {spec} (topology seed {topology_seed:#x}) @ trial \
             seed {trial_seed:#x}: fingerprint {got:#018x} != pinned {want:#018x}"
        );
    }
}

/// The pinned dense topology: cliques of 80 nodes, so a cluster's first
/// layer can hold dozens of mutually conflicting transmitters.
const DENSE: &str = "ring_of_cliques(8,80)";

#[test]
fn dense_precompute_colors_past_64() {
    // The pinned dense row must exercise colorings with more than 64
    // colors in a layer. `SlotPolicy::Auto` folds colors into a window of
    // at most `4·⌈log₂ n⌉`, so rebuild each clustering with a window wide
    // enough to leave the raw greedy colors unfolded.
    let g = topology(DENSE, 0);
    let net = NetParams::new(g.n(), g.diameter_double_sweep());
    let pre =
        Precomputed::build(&g, net, &CompeteParams::default(), derive(derive(20170725, 0), 0x9DE));
    let partitions =
        std::iter::once(&pre.coarse).chain(pre.fines.iter().chain(&pre.bg).map(|f| &f.partition));
    let max_color = partitions
        .map(|p| {
            let s = TreeSchedule::build(&g, p, SlotPolicy::Fixed(1000));
            assert_eq!(s.overflow(), 0, "a 1000-slot window folds nothing");
            g.nodes()
                .flat_map(|v| [s.down_slot(v), s.up_slot(v)])
                .filter(|&c| c != u32::MAX)
                .max()
                .unwrap_or(0)
        })
        .max()
        .expect("the precompute has clusterings");
    assert!(max_color >= 64, "{DENSE}: largest raw color {max_color} < 64");
}
