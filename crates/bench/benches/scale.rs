//! Scale suite: the engine hot path at `10⁵`–`10⁶` nodes.
//!
//! Eight groups, on the random-geometric topologies the scale-smoke CI lane
//! exercises and on the benchmark's precompute and propagation topologies:
//!
//! * `scale_engine_mode` — the same `10⁵`-node broadcast workload on a
//!   [`TrialPool::new`] (Frontier SoA/bitset scratch, the production
//!   engine) and a [`TrialPool::reference`] (stamp vectors). Round counts
//!   are byte-identical by construction — the differential tests pin that —
//!   so any wall-clock gap is pure engine-layout effect.
//! * `scale_dense_rounds` — `decay(16)` on a mean-degree-`~125` RGG at
//!   `10⁵` nodes, frontier vs reference. The frontier engine's degree-sum
//!   trigger routes almost every round of this workload through the
//!   word-level dense kernel, whose rows are all CSR here (the maximum
//!   degree, 172, is below the 1562 bitmap-row threshold), so the gap over
//!   reference measures the dense kernel plus SoA state together.
//! * `scale_pooled_vs_fresh` — multi-trial `decay(16)` batches (ten at
//!   `10⁵` nodes, one hundred at the `2×10³` campaign scale) on a new
//!   [`TrialPool`] per trial vs one long-lived pool — the steady-state
//!   zero-allocation contract's wall-clock payoff.
//! * `scale_dense_cd` — `broadcast_cd` (collision detection pinned) on the
//!   same mean-degree-`~125` RGG, frontier vs reference: the CD word-level
//!   dense kernel A/B.
//! * `scale_precompute` — [`Precomputed::rebuild`], the per-trial oracle
//!   precompute of broadcast and leader election (coarse, fine and
//!   background Partition(β) races, one tree schedule each), with a pooled
//!   [`PrecomputeScratch`] on the two benchmark topologies: `rgg(5000,0.03)`
//!   (precompute-bound broadcast) and the `grid(500x10)` strip. Two more
//!   benches split one fine clustering of `bcast_rgg`'s topology into its
//!   layers: a pooled [`Partition::recompute_within`] at `β = 0.5` inside
//!   the coarse clustering (`partition_within`), and a pooled
//!   [`TreeSchedule::rebuild`] on such a partition (`tree_schedule`).
//! * `scale_propagation` — pooled end-to-end trials of the shapes whose
//!   trials are mostly Compete's propagation: leader election on the
//!   `grid(500x10)` strip (D ≈ 508) and broadcast on `path(1024)`.
//! * `scale_topology` — [`TopologySpec::build`] of `rgg(5000,0.03)` at the
//!   topology seed the benchmark's `bcast_rgg` plan gives it (two stray
//!   components to join) and of `rgg(100000,0.006)`: the pair scan,
//!   union-find and joins of the random-geometric generator, and the one
//!   CSR build.
//! * `scale_million` — one `10⁶`-node end-to-end trial, **gated** behind
//!   `RN_BENCH_SCALE_MILLION=1` so a default `cargo bench` stays minutes,
//!   not tens of minutes.

use criterion::{criterion_group, criterion_main, Criterion};
use rn_bench::BenchWorkload;
use rn_cluster::{Partition, PartitionScratch};
use rn_core::{CompeteParams, PrecomputeScratch, Precomputed};
use rn_graph::TopologySpec;
use rn_schedule::{SlotPolicy, TreeSchedule, TreeScheduleScratch};
use rn_sim::{rng, NetParams, TrialPool};

/// The 10⁵-node workload both A/B groups share (same shape as the CI
/// scale-smoke cell, cheaper protocol so ten samples stay under a minute).
const SCALE_SCENARIO: &str = "bgi@rgg(100000,0.006)";

/// Graph-build seed: benches pin one topology instance across all runs.
const TOPOLOGY_SEED: u64 = 0x5CA1E;

/// The topology seed of `bcast_rgg`'s `rgg(5000,0.03)`: its sample leaves
/// two components to join.
const BCAST_RGG_TOPOLOGY_SEED: u64 = 0x25f7_806d_620a_d6fc;

/// A pool constructor; it fixes the engine a trial steps.
type NewPool = fn() -> TrialPool;

/// The two engines of the A/B groups.
const ENGINES: [(NewPool, &str); 2] =
    [(TrialPool::new, "frontier"), (TrialPool::reference, "reference")];

fn bench_engine_modes(c: &mut Criterion) {
    let w = BenchWorkload::resolve(SCALE_SCENARIO, TOPOLOGY_SEED);
    let mut group = c.benchmark_group("scale_engine_mode");
    group.sample_size(5);
    for (pool, label) in ENGINES {
        group.bench_function(format!("{}/{label}", w.name), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let r = w.run_trial_in(seed, &mut pool());
                assert!(r.completed, "{SCALE_SCENARIO} must complete under {label}");
                r.rounds
            });
        });
    }
    group.finish();
}

fn bench_dense_rounds(c: &mut Criterion) {
    let w = BenchWorkload::resolve("decay(16)@rgg(100000,0.02)", TOPOLOGY_SEED);
    let mut group = c.benchmark_group("scale_dense_rounds");
    group.sample_size(5);
    for (pool, label) in ENGINES {
        group.bench_function(format!("{}/{label}", w.name), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let r = w.run_trial_in(seed, &mut pool());
                assert!(r.completed, "dense decay broadcast must complete under {label}");
                r.rounds
            });
        });
    }
    group.finish();
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
                    let r = w.run_trial(seed);
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

fn bench_dense_cd(c: &mut Criterion) {
    // CD-model complement of `scale_dense_rounds`: `broadcast_cd` pins
    // collision detection, and at mean degree ~125 the frontier engine
    // routes nearly every round through the CD word-level dense kernel
    // (merged informed/uninformed event accumulation, busy-channel noise at
    // every silent listener). Reference runs the same rounds per-edge.
    let w = BenchWorkload::resolve("broadcast_cd@rgg(100000,0.02)", TOPOLOGY_SEED);
    let mut group = c.benchmark_group("scale_dense_cd");
    group.sample_size(5);
    for (pool, label) in ENGINES {
        group.bench_function(format!("{}/{label}", w.name), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let r = w.run_trial_in(seed, &mut pool());
                assert!(r.completed, "CD dense broadcast must complete under {label}");
                r.rounds
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

fn bench_propagation(c: &mut Criterion) {
    // One long-lived pool per scenario, as the executor runs a cell, so the
    // steady state is measured: the precompute is rebuilt every trial, but
    // most of a trial is the schedule walk, Algorithm 4 and the deliveries.
    let mut group = c.benchmark_group("scale_propagation");
    group.sample_size(10);
    for scenario in ["leader_election@grid(500x10)", "broadcast@path(1024)"] {
        let w = BenchWorkload::resolve(scenario, TOPOLOGY_SEED);
        group.bench_function(scenario, |b| {
            let mut pool = TrialPool::new();
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let r = w.run_trial_in(seed, &mut pool);
                assert!(r.completed, "{scenario} must complete");
                r.rounds
            });
        });
    }
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

fn bench_million(c: &mut Criterion) {
    if std::env::var("RN_BENCH_SCALE_MILLION").is_err() {
        println!("bench scale_million skipped (set RN_BENCH_SCALE_MILLION=1 to run)");
        return;
    }
    let w = BenchWorkload::resolve("bgi@rgg(1000000,0.002)", TOPOLOGY_SEED);
    let mut group = c.benchmark_group("scale_million");
    group.sample_size(2);
    group.bench_function(w.name.clone(), |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let r = w.run_trial(seed);
            assert!(r.completed, "10⁶-node broadcast must complete");
            r.rounds
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_modes,
    bench_dense_rounds,
    bench_pooled_vs_fresh,
    bench_dense_cd,
    bench_precompute,
    bench_propagation,
    bench_topology,
    bench_million
);
criterion_main!(benches);
