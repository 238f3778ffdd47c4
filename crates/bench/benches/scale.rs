//! Scale suite: what the campaign executor cannot time, at `10⁵` nodes and
//! on the benchmark's precompute topologies.
//!
//! A registered scenario string is timed by the executor itself:
//! `experiments --scenario S --trials N --threads 1 --timing --json F`
//! records per-trial wall-clock for any cell. This suite keeps the A/Bs and
//! layers no command-line flag reaches. Six groups:
//!
//! * `scale_engine_mode`, `scale_dense_rounds` and `scale_dense_cd` — one
//!   `10⁵`-node workload each on a [`TrialPool::new`] (Frontier SoA/bitset
//!   scratch, the production engine) and a [`TrialPool::reference`] (stamp
//!   vectors). Round counts are byte-identical by construction — the
//!   differential tests pin that — so any wall-clock gap is the engine's.
//!   The dense rows run on a mean-degree-`~125` RGG whose rows are all CSR
//!   (the maximum degree, 172, is below the 1562 bitmap-row threshold), so
//!   the degree-sum trigger routes almost every round through the
//!   word-level dense kernel and the gap measures that kernel plus SoA
//!   state together.
//! * `scale_pooled_vs_fresh` — multi-trial `decay(16)` batches (ten at
//!   `10⁵` nodes, one hundred at the `2×10³` campaign scale) on a new
//!   [`TrialPool`] per trial vs one long-lived pool — the steady-state
//!   zero-allocation contract's wall-clock payoff.
//! * `scale_precompute` — [`Precomputed::rebuild`], the per-trial oracle
//!   precompute of broadcast and leader election (coarse, fine and
//!   background Partition(β) races, one tree schedule each), with a pooled
//!   [`PrecomputeScratch`] on the two benchmark topologies: `rgg(5000,0.03)`
//!   (precompute-bound broadcast) and the `grid(500x10)` strip. Two more
//!   benches split one fine clustering of `bcast_rgg`'s topology into its
//!   layers: a pooled [`Partition::recompute_within`] at `β = 0.5` inside
//!   the coarse clustering (`partition_within`), and a pooled
//!   [`TreeSchedule::rebuild`] on such a partition (`tree_schedule`).
//! * `scale_topology` — [`TopologySpec::build`] of `rgg(5000,0.03)` at the
//!   topology seed the benchmark's `bcast_rgg` plan gives it (two stray
//!   components to join) and of `rgg(100000,0.006)`: the pair scan,
//!   union-find and joins of the random-geometric generator, and the one
//!   CSR build.

use criterion::{criterion_group, criterion_main, Criterion};
use rn_bench::BenchWorkload;
use rn_cluster::{Partition, PartitionScratch};
use rn_core::{CompeteParams, PrecomputeScratch, Precomputed};
use rn_graph::TopologySpec;
use rn_schedule::{SlotPolicy, TreeSchedule, TreeScheduleScratch};
use rn_sim::{rng, NetParams, TrialPool};

/// Graph-build seed: benches pin one topology instance across all runs.
const TOPOLOGY_SEED: u64 = 0x5CA1E;

/// The topology seed of `bcast_rgg`'s `rgg(5000,0.03)`: its sample leaves
/// two components to join.
const BCAST_RGG_TOPOLOGY_SEED: u64 = 0x25f7_806d_620a_d6fc;

/// The frontier-vs-reference groups: `(group, scenario)`.
const ENGINE_AB: [(&str, &str); 3] = [
    // The scale-smoke CI cell's topology, under a cheaper protocol than its broadcast.
    ("scale_engine_mode", "bgi@rgg(100000,0.006)"),
    // Mean degree ~125: almost every round takes the word-level dense kernel.
    ("scale_dense_rounds", "decay(16)@rgg(100000,0.02)"),
    // The same RGG with collision detection pinned: the CD word-level dense kernel.
    ("scale_dense_cd", "broadcast_cd@rgg(100000,0.02)"),
];

/// A pool constructor; it fixes the engine a trial steps.
type NewPool = fn() -> TrialPool;

/// The two engines of the A/B groups.
const ENGINES: [(NewPool, &str); 2] =
    [(TrialPool::new, "frontier"), (TrialPool::reference, "reference")];

fn bench_engines(c: &mut Criterion) {
    for (group_name, scenario) in ENGINE_AB {
        let w = BenchWorkload::resolve(scenario, TOPOLOGY_SEED);
        let mut group = c.benchmark_group(group_name);
        group.sample_size(5);
        for (pool, label) in ENGINES {
            group.bench_function(format!("{}/{label}", w.name), |b| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let r = w.run_trial_in(seed, &mut pool());
                    assert!(r.completed, "{scenario} must complete under {label}");
                    r.rounds
                });
            });
        }
        group.finish();
    }
}

fn bench_pooled_vs_fresh(c: &mut Criterion) {
    // Multi-trial batches, matching the executor's unit of steady-state
    // reuse: the fresh arm pays per-trial protocol construction and scratch
    // allocation every trial (a new pool each); the pooled arm pays them
    // once per *benchmark* (the pool persists across iterations). Records
    // are byte-identical — the pooled_diff test pins that — so any gap is
    // pure allocation and initialization overhead. Two cells bracket the regime: at 10⁵ nodes
    // the per-trial setup is amortized into sub-second trials; at the
    // campaign scale (the smoke cell's 2×10³-node topology, hundred-trial
    // batches) setup is a visible fraction of every trial.
    let mut group = c.benchmark_group("scale_pooled_vs_fresh");
    group.sample_size(5);
    for (scenario, trials) in
        [("decay(16)@rgg(100000,0.006)", 10u64), ("decay(16)@rgg(2000,0.05)", 100u64)]
    {
        let w = BenchWorkload::resolve(scenario, TOPOLOGY_SEED);
        group.bench_function(format!("{}x{trials}/fresh", w.name), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                let mut rounds = 0u64;
                for _ in 0..trials {
                    seed += 1;
                    let r = w.run_trial_in(seed, &mut TrialPool::new());
                    assert!(r.completed, "decay must complete (fresh)");
                    rounds += r.rounds;
                }
                rounds
            });
        });
        group.bench_function(format!("{}x{trials}/pooled", w.name), |b| {
            let mut pool = TrialPool::new();
            let mut seed = 0u64;
            b.iter(|| {
                let mut rounds = 0u64;
                for _ in 0..trials {
                    seed += 1;
                    let r = w.run_trial_in(seed, &mut pool);
                    assert!(r.completed, "decay must complete (pooled)");
                    rounds += r.rounds;
                }
                rounds
            });
        });
    }
    group.finish();
}

fn bench_precompute(c: &mut Criterion) {
    // The pooled steady state a trial loop runs: one long-lived
    // `Precomputed` and scratch, rebuilt for a fresh seed per iteration
    // (allocation-free after the first rebuild).
    let mut group = c.benchmark_group("scale_precompute");
    group.sample_size(10);
    for spec in ["rgg(5000,0.03)", "grid(500x10)"] {
        let g = spec.parse::<TopologySpec>().expect("spec parses").build(TOPOLOGY_SEED);
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        let params = CompeteParams::default();
        group.bench_function(spec, |b| {
            let mut pre = Precomputed::build(&g, net, &params, 0);
            let mut scratch = PrecomputeScratch::default();
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                pre.rebuild(&g, net, &params, seed, &mut scratch);
                pre.charged_rounds
            });
        });
    }
    // One fine clustering of `bcast_rgg`'s topology, layer by layer: the
    // race inside the coarse clustering, then the tree schedule on it.
    let g = "rgg(5000,0.03)"
        .parse::<TopologySpec>()
        .expect("spec parses")
        .build(BCAST_RGG_TOPOLOGY_SEED);
    let net = NetParams::new(g.n(), g.diameter_double_sweep());
    let region = Precomputed::build(&g, net, &CompeteParams::default(), 0).coarse_idx;
    let fine = Partition::compute_within(&g, 0.5, &region, &mut rng::rng_from_seed(0));
    group.bench_function("rgg(5000,0.03)/partition_within", |b| {
        let mut part = fine.clone();
        let mut scratch = PartitionScratch::default();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            part.recompute_within(&g, 0.5, &region, &mut rng::rng_from_seed(seed), &mut scratch);
            part.num_clusters()
        });
    });
    group.bench_function("rgg(5000,0.03)/tree_schedule", |b| {
        let mut sched = TreeSchedule::build(&g, &fine, SlotPolicy::Auto);
        let mut scratch = TreeScheduleScratch::default();
        b.iter(|| {
            sched.rebuild(&g, &fine, SlotPolicy::Auto, &mut scratch);
            sched.window()
        });
    });
    group.finish();
}

fn bench_topology(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_topology");
    group.sample_size(10);
    for (name, seed) in
        [("rgg(5000,0.03)", BCAST_RGG_TOPOLOGY_SEED), ("rgg(100000,0.006)", TOPOLOGY_SEED)]
    {
        let spec: TopologySpec = name.parse().expect("spec parses");
        group.bench_function(name, |b| b.iter(|| spec.build(seed).m()));
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_pooled_vs_fresh, bench_precompute, bench_topology);
criterion_main!(benches);
