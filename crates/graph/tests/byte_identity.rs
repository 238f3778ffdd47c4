//! Generated-graph byte-identity regression gate.
//!
//! The committed benchmark baselines (`benchmarks/baseline_smoke.json`,
//! `baseline_scale*.json`) are byte-identical reruns of campaigns over
//! generated topologies, so the generators themselves must stay
//! bit-reproducible: same spec + same seed ⇒ the exact same adjacency
//! structure, forever. This test pins a SplitMix64 fold over the full
//! adjacency of every baseline-covered topology family (the smoke pair
//! verbatim, the scale family at a CI-sized `n`) at the seeds the executor
//! uses. Any change to a generator's edge order, RNG draw order, or seed
//! plumbing shows up here as a fingerprint mismatch *before* it shows up as
//! a baseline diff in CI.

use rn_graph::{Graph, TopologySpec};

/// SplitMix64 output function (kept local: `rn_graph` cannot depend on
/// `rn_sim`, and the constant fold below is the whole contract).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Order-sensitive fingerprint of the full adjacency structure: node and
/// edge counts, then every `(v, neighbor)` pair in CSR iteration order.
fn fingerprint(g: &Graph) -> u64 {
    let mut h = splitmix64(g.n() as u64 ^ ((g.m() as u64) << 32));
    for v in g.nodes() {
        for &u in g.neighbors(v) {
            h = splitmix64(h ^ ((v as u64) << 32 | u as u64));
        }
    }
    h
}

fn built(spec: &str, seed: u64) -> Graph {
    spec.parse::<TopologySpec>().expect("spec parses").build(seed)
}

#[test]
fn baseline_covered_topologies_are_byte_identical() {
    // (spec, seed, pinned fingerprint). Seeds mirror the smoke campaign's
    // `topology_seed` (0) plus a second seed per seeded family to catch
    // seed-plumbing regressions that happen to fix one stream.
    let pinned: &[(&str, u64, u64)] = &[
        ("grid(8x8)", 0, 0x6937_9acc_b494_d3e1),
        ("ring_of_cliques(4,6)", 0, 0x7537_7c04_f48e_1b36),
        ("rgg(2000,0.05)", 0, 0xfb68_5f12_0d48_edfb),
        ("rgg(2000,0.05)", 42, 0x4cb6_a3aa_c49b_9596),
        ("rgg(1024,0.06)", 7, 0x5d75_2548_296f_e9fa),
        // Rows whose sample is disconnected, so the generator's join path
        // runs: bcast_rgg's topology (2 joins), two sparse RGGs (254 and 86
        // joins), one whose node 0's component holds 1,201 of 20,000 nodes
        // (1,052 joins move the other 18,799) and a G(n,p) with many
        // components.
        ("rgg(5000,0.03)", 0x25f7_806d_620a_d6fc, 0xd78d_1ae9_19e0_50d4),
        ("rgg(300,0.02)", 0, 0xe378_1310_b22d_92d2),
        ("rgg(300,0.05)", 0, 0x1938_8402_2f65_83a9),
        ("rgg(20000,0.008)", 0, 0x06e4_258f_1a1e_d192),
        ("gnp(2000,0.0005)", 0, 0xb5a3_3de4_fbba_4938),
    ];
    for &(spec, seed, want) in pinned {
        let got = fingerprint(&built(spec, seed));
        assert_eq!(
            got, want,
            "generated-graph bytes changed for {spec} @ seed {seed}: \
             fingerprint {got:#018x} != pinned {want:#018x} — this breaks \
             byte-identity of the committed benchmark baselines"
        );
    }
}

#[test]
fn same_seed_same_bytes_across_builds() {
    for spec in ["rgg(2000,0.05)", "gnp(300,0.05)", "cluster_chain(8,20,0.3)"] {
        let a = fingerprint(&built(spec, 123));
        let b = fingerprint(&built(spec, 123));
        assert_eq!(a, b, "{spec}: rebuild with the same seed must be identical");
        let c = fingerprint(&built(spec, 124));
        assert_ne!(a, c, "{spec}: distinct seeds should differ");
    }
}
