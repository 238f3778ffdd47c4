//! Decay-family byte-identity regression gate.
//!
//! The §1.3 baselines (`bgi`, `truncated`), the raw multi-source decay
//! families (`decay(K)`, `decay_trunc(K)`) and the binary-search
//! leader-election reduction over its two no-CD probes all run
//! decay-style protocols whose rounds the committed baselines and
//! the paper tables report. The byte-pinned baselines cover only `bgi` and
//! `decay(16)`, so this test pins the rest: a SplitMix64 fold over every
//! [`TrialRecord`] field the results report (completion, rounds,
//! deliveries, collisions, transmissions), per protocol, over three
//! topologies, fault-free and under dropout, at two trial seeds.
//!
//! Every case runs through ONE [`TrialPool`], with the protocols
//! interleaved innermost: the pool's decay slot switches between the full
//! and the truncated schedule and between source counts on every trial, as
//! an executor worker's pool does across the cells of a mixed campaign. A
//! stale schedule, coin stream or informed list surviving a reset shows up
//! here as a fingerprint mismatch.

use rn_bench::ProtocolSpec;
use rn_graph::TopologySpec;
use rn_sim::rng::{derive, splitmix64};
use rn_sim::{CollisionModel, FaultPlan, NetParams, TrialCtx, TrialPool, TrialRecord};

fn fold(h: &mut u64, x: u64) {
    *h = splitmix64(*h ^ x);
}

fn fold_record(h: &mut u64, r: &TrialRecord) {
    fold(h, r.completed as u64);
    fold(h, r.rounds);
    fold(h, r.metrics.deliveries);
    fold(h, r.metrics.collisions);
    fold(h, r.metrics.transmissions);
}

#[test]
fn decay_family_trials_are_byte_identical() {
    // (protocol spec, pinned fingerprint over every case below).
    let pinned: &[(&str, u64)] = &[
        ("bgi", 0x62dc_c1fa_c52a_ce52),
        ("truncated", 0xf2b9_3712_633c_e257),
        ("decay(4)", 0x7373_fd8d_e234_fae1),
        ("decay_trunc(4)", 0x2129_47c9_ef25_26e9),
        ("binsearch_le(bgi)", 0xcea6_d43f_dae0_3394),
        ("binsearch_le(cd17)", 0xdf62_9f78_e3e5_3ad0),
    ];
    let topologies = ["grid(12x12)", "barbell(40,20)", "rgg(400,0.1)"];
    let faults = [FaultPlan::none(), FaultPlan::drop(0.05)];
    // The first two trial seeds the executor hands a cell seeded with the
    // experiments CLI's default master seed.
    let seeds = [derive(20170725, 0), derive(20170725, 1)];

    let runnables: Vec<_> =
        pinned.iter().map(|&(s, _)| ProtocolSpec::parse(s).instantiate()).collect();
    let mut got = vec![0u64; pinned.len()];
    let mut pool = TrialPool::new();
    for spec in topologies {
        let g = spec.parse::<TopologySpec>().expect("spec parses").build(0);
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        for plan in &faults {
            for &seed in &seeds {
                for (r, h) in runnables.iter().zip(&mut got) {
                    let model = r.effective_model(CollisionModel::NoCollisionDetection);
                    let record = r.run(&TrialCtx::new(&g, net, model, seed, plan), &mut pool);
                    fold_record(h, &record);
                }
            }
        }
    }
    let mismatches: Vec<String> = pinned
        .iter()
        .zip(&got)
        .filter(|&(&(_, want), &got)| got != want)
        .map(|(&(spec, want), got)| format!("{spec}: {got:#018x} != pinned {want:#018x}"))
        .collect();
    assert!(mismatches.is_empty(), "decay trial bytes changed:\n{}", mismatches.join("\n"));
}
