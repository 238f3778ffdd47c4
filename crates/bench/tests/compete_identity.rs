//! Compete-family byte-identity regression gate.
//!
//! The committed baselines pin Compete's exact output only for default
//! `broadcast` and `leader_election` cells. This test pins the variants
//! they leave out — the ablation switches (`background=0`, `icp_bg=0`,
//! `foreign=0`), curtailment short enough to cut clusters, a coarse
//! exponent that splits the graph into many coarse clusters (so many
//! per-coarse clustering sequences run side by side), multi-source
//! placements, and [`SequenceScope::Global`], which no override key
//! reaches: a SplitMix64 fold over every [`TrialRecord`] field the results
//! report (completion, rounds, deliveries, collisions, transmissions), per
//! protocol, over three topologies, fault-free and under dropout, under
//! both collision models, at two trial seeds.
//!
//! Every case runs through ONE [`TrialPool`], with the protocols
//! interleaved innermost, so the pooled Compete state is reset across
//! parameter sets, source counts and graphs on every trial. A stale slot,
//! participation list or knowledge table surviving a reset shows up here as
//! a fingerprint mismatch.

use rn_bench::ProtocolSpec;
use rn_core::{CompeteParams, CompeteScenario, Precomputed, SequenceScope, SourceRule};
use rn_graph::TopologySpec;
use rn_sim::rng::{derive, splitmix64};
use rn_sim::{CollisionModel, FaultPlan, NetParams, Runnable, TrialCtx, TrialPool, TrialRecord};

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

const GLOBAL: &str = "broadcast under SequenceScope::Global";

#[test]
fn compete_family_trials_are_byte_identical() {
    // (protocol spec, pinned fingerprint over every case below).
    let pinned: &[(&str, u64)] = &[
        ("broadcast", 0xa965_1f9a_18fc_fe48),
        ("broadcast{curtail=0.3,bg_curtail=0.3}", 0xa5d1_d5c5_bdad_030f),
        ("broadcast{background=0}", 0xe75f_a2b6_fab8_2489),
        ("broadcast{icp_bg=0}", 0xd7ca_7e8d_22e8_9578),
        ("broadcast{foreign=0}", 0x1c5b_ab2c_55a7_0bba),
        ("compete(3,clustered)", 0x109e_16d5_2cd5_68ed),
        ("leader_election", 0xd2c7_48cc_28f1_956a),
        ("broadcast{coarse_exp=0.1}", 0x7909_1ab7_72a6_11d3),
        ("compete(3){coarse_exp=0.1,foreign=0}", 0xf797_d143_55b1_1ce5),
        (GLOBAL, 0x2264_063e_670b_b5d9),
    ];
    // (topology, coarse clusters at the default exponent and at
    // `coarse_exp=0.1`, precompute seed 7): the matrix must run sequences
    // over several coarse clusters, not one.
    let topologies = [("grid(8x8)", 3, 12), ("ring_of_cliques(4,6)", 3, 3), ("path(40)", 5, 17)];
    let faults = [FaultPlan::none(), FaultPlan::drop(0.05)];
    let models = [CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection];
    // The first two trial seeds the executor hands a cell seeded with the
    // experiments CLI's default master seed.
    let seeds = [derive(20170725, 0), derive(20170725, 1)];

    let global = CompeteParams { sequence_scope: SequenceScope::Global, ..Default::default() };
    let runnables: Vec<Box<dyn Runnable>> = pinned
        .iter()
        .map(|&(s, _)| match s {
            GLOBAL => {
                Box::new(CompeteScenario::new(global, SourceRule::Origin)) as Box<dyn Runnable>
            }
            _ => ProtocolSpec::parse(s).instantiate(),
        })
        .collect();
    let mut got = vec![0u64; pinned.len()];
    let mut pool = TrialPool::new();
    for (spec, coarse, coarse_fine) in topologies {
        let g = spec.parse::<TopologySpec>().expect("spec parses").build(0);
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        for (exp, want) in [(CompeteParams::default().coarse_beta_exp, coarse), (0.1, coarse_fine)]
        {
            let params = CompeteParams { coarse_beta_exp: exp, ..Default::default() };
            let pre = Precomputed::build(&g, net, &params, 7);
            assert_eq!(pre.coarse.num_clusters(), want, "{spec} coarse clusters at exponent {exp}");
        }
        for plan in &faults {
            for &model in &models {
                for &seed in &seeds {
                    for (r, h) in runnables.iter().zip(&mut got) {
                        let model = r.effective_model(model);
                        let record = r.run(&TrialCtx::new(&g, net, model, seed, plan), &mut pool);
                        fold_record(h, &record);
                    }
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
    assert!(mismatches.is_empty(), "compete trial bytes changed:\n{}", mismatches.join("\n"));
}
