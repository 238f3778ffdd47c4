//! The paper-reproduction experiment suite: one function per experiment id
//! `e1`…`e12`.
//!
//! Every function takes a master seed and a worker-thread budget, runs its
//! sweep (parallel over trials, on at most that many threads), and returns
//! markdown [`Table`]s — the same bytes for any budget. The `experiments`
//! binary reaches these through the preset registry ([`crate::presets`]),
//! which also hosts the declarative campaign presets built on
//! [`crate::campaign`].

use crate::harness::{mean, parallel_trials, Table};
use rn_baselines::{
    bgi_broadcast, binary_search_leader_election, truncated_broadcast, BroadcastKind,
};

use rn_cluster::{stats, theory, DistributedPartition, DistributedPartitionConfig, Partition};
use rn_core::{compete_trial, leader_election_trial, CompeteParams, CompeteReport, SequenceScope};
use rn_decay::SingleDecayRound;
use rn_graph::{generators, Graph, NodeId};
use rn_sim::{
    rng, CollisionModel, FaultPlan, NetParams, SimScratch, Simulator, TrialCtx, TrialPool,
};

fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// E1 — Lemma 3.1: a single decay round informs a listener with constant
/// probability, uniformly in the number of participating neighbors.
pub fn e1_decay_success(seed: u64, threads: usize) -> Vec<Table> {
    let mut t = Table::new(
        "E1 (Lemma 3.1): single decay-round success probability at the hub of a star",
        &["participants k", "trials", "success rate"],
    );
    let trials = 3000u64;
    let depth = 13; // ⌈log₂ 8193⌉
    let mut min_rate: f64 = 1.0;
    for k in [1usize, 2, 4, 16, 64, 256, 1024, 4096] {
        let g = generators::star(k + 1);
        let participants: Vec<NodeId> = (1..=k as NodeId).collect();
        let successes: u64 = parallel_trials(trials, threads, |i| {
            let s = rng::derive(seed, i ^ (k as u64) << 32);
            let mut p = SingleDecayRound::new(k + 1, depth, participants.clone(), s);
            let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, s);
            sim.run(&mut p, depth as u64);
            u64::from(p.has_received(0))
        })
        .into_iter()
        .sum();
        let rate = successes as f64 / trials as f64;
        min_rate = min_rate.min(rate);
        t.row(&[k.to_string(), trials.to_string(), fmt_f(rate)]);
    }
    t.note(format!(
        "Paper: constant success probability per decay round for any k ≥ 1. \
         Measured minimum over k: {:.3} (seed {seed}).",
        min_rate
    ));
    vec![t]
}

/// E2 — Lemma 2.1: Partition(β) strong radius `O(log n / β)` and edge-cut
/// probability `O(β)`.
pub fn e2_partition_properties(seed: u64, threads: usize) -> Vec<Table> {
    let mut rng0 = rng::stream_rng(seed, 1);
    let graphs: Vec<(&str, Graph)> = vec![
        ("grid-40x40", generators::grid(40, 40)),
        ("rgg-1600", generators::random_geometric(1600, 0.05, &mut rng0)),
        ("gnp-1600", generators::gnp_connected(1600, 0.004, &mut rng0)),
    ];
    let mut t = Table::new(
        "E2 (Lemma 2.1): Partition(β) cluster radius, edge-cut rate and bordering clusters (30 trials)",
        &["graph", "β", "mean max radius", "radius·β/ln n", "cut fraction", "cut/β", "max q (Cor 3.9)"],
    );
    for (name, g) in &graphs {
        let ln_n = (g.n() as f64).ln();
        for j in [1u32, 2, 3, 4, 5, 6, 7] {
            let beta = (2.0f64).powi(-(j as i32));
            let results = parallel_trials(30, threads, |i| {
                let mut r = rng::stream_rng(seed, i ^ (j as u64) << 40);
                let p = Partition::compute(g, beta, &mut r);
                let s = stats::PartitionStats::measure(g, &p);
                (s.max_radius as f64, s.cut_fraction, s.max_bordering_clusters as f64)
            });
            let rad = mean(&results.iter().map(|r| r.0).collect::<Vec<_>>());
            let cut = mean(&results.iter().map(|r| r.1).collect::<Vec<_>>());
            let q = results.iter().map(|r| r.2).fold(0.0f64, f64::max);
            t.row(&[
                name.to_string(),
                format!("2^-{j}"),
                fmt_f(rad),
                fmt_f(rad * beta / ln_n),
                fmt_f(cut),
                fmt_f(cut / beta),
                fmt_f(q),
            ]);
        }
    }
    t.note(
        "Paper: radius·β/ln n bounded by a constant whp; cut/β bounded by a constant. \
         Both normalized columns should be flat across β and graphs. The last column is the \
         worst number of *other* clusters any node borders — Corollary 3.9 of [12] bounds it \
         by O(log n / log D) whp (≈ 3–11 here), the quantity behind Lemma 4.2's waiting time.",
    );
    vec![t]
}

/// E3 — Theorem 2.2: for a random `j`, with probability ≥ 0.55 the expected
/// distance to the cluster center is `O(log n / (β log D))`.
pub fn e3_theorem_2_2(seed: u64, threads: usize) -> Vec<Table> {
    let mut rng0 = rng::stream_rng(seed, 2);
    let graphs: Vec<(&str, Graph)> = vec![
        ("path-2048", generators::path(2048)),
        ("grid-64x64", generators::grid(64, 64)),
        ("rgg-2000", generators::random_geometric(2000, 0.045, &mut rng0)),
    ];
    let mut t = Table::new(
        "E3 (Theorem 2.2): E[dist to cluster center]·β·log D / log n by j (30 trials)",
        &["graph", "j", "β", "E[dist]", "normalized"],
    );
    let mut good_fraction = Vec::new();
    for (name, g) in &graphs {
        let log_n = (g.n() as f64).log2();
        let d = g.diameter_double_sweep();
        let log_d = (d.max(2) as f64).log2();
        let v = (g.n() / 2) as NodeId;
        let mut normalized_all = Vec::new();
        for j in 1u32..=7 {
            let beta = (2.0f64).powi(-(j as i32));
            let dists = parallel_trials(30, threads, |i| {
                let mut r = rng::stream_rng(seed, i ^ (j as u64) << 44);
                let p = Partition::compute(g, beta, &mut r);
                p.strong_dist_to_center(g)[v as usize] as f64
            });
            let e_dist = mean(&dists);
            let normalized = e_dist * beta * log_d / log_n;
            normalized_all.push(normalized);
            t.row(&[
                name.to_string(),
                j.to_string(),
                format!("2^-{j}"),
                fmt_f(e_dist),
                fmt_f(normalized),
            ]);
        }
        // Fraction of j whose normalized distance is within 3x the per-graph
        // median — the "good j" of Theorem 2.2.
        let mut sorted = normalized_all.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        let good = normalized_all.iter().filter(|&&x| x <= 3.0 * median.max(1e-9)).count() as f64;
        good_fraction.push((name.to_string(), good / normalized_all.len() as f64));
    }
    for (name, frac) in good_fraction {
        t.note(format!(
            "{name}: fraction of j with normalized distance ≤ 3×median: {frac:.2} \
             (Theorem 2.2 needs ≥ 0.55)."
        ));
    }
    t.note(
        "Haeupler–Wajc would allow an extra log log n factor in the normalized column; \
         flatness near a small constant is this paper's improvement.",
    );
    vec![t]
}

/// E4 — Section 6 machinery: Lemmas 6.1, 6.2, 6.4, 6.7 on real layer
/// vectors.
pub fn e4_section6(seed: u64, threads: usize) -> Vec<Table> {
    let mut rng0 = rng::stream_rng(seed, 3);
    let graphs: Vec<(&str, Graph)> = vec![
        ("path-1024", generators::path(1024)),
        ("grid-48x48", generators::grid(48, 48)),
        ("btree-1023", generators::binary_tree(1023)),
        ("rgg-1500", generators::random_geometric(1500, 0.05, &mut rng0)),
    ];
    let mut t = Table::new(
        "E4 (Section 6): computable analysis quantities on real layer vectors",
        &[
            "graph",
            "β",
            "S_x",
            "S_x/S_f(x) (≤11)",
            "S_x/S_g(f(x))·… (≤22)",
            "5·S_x vs MC E[dist]",
            "bad j (≤0.04·logD)",
        ],
    );
    for (name, g) in &graphs {
        let v = (g.n() / 3) as NodeId;
        let x = theory::layer_vector(g, v);
        let d = g.diameter_double_sweep().max(2);
        let log_d = (d as f64).log2();
        let log_n = (g.n() as f64).log2();
        let ks = theory::ratio_sequence(&theory::x_prime(&x));
        let bad = theory::count_bad_j(&ks, 1, (0.5 * log_d).round() as i64, log_n, log_d);
        for j in [2u32, 4] {
            let beta = (2.0f64).powi(-(j as i32));
            let s_x = theory::s_value(&x, beta);
            let f = theory::transform_f(&x);
            let ratio_f =
                if theory::b_value(&f, beta) > 0.0 { s_x / theory::s_value(&f, beta) } else { 0.0 };
            let xp = theory::x_prime(&x);
            let ratio_fg = if theory::b_value(&xp, beta) > 0.0 {
                s_x / theory::s_value(&xp, beta)
            } else {
                0.0
            };
            // Monte-Carlo E[dist to center] for Lemma 6.1.
            let dists = parallel_trials(20, threads, |i| {
                let mut r = rng::stream_rng(seed, i ^ (j as u64) << 48);
                let p = Partition::compute(g, beta, &mut r);
                p.strong_dist_to_center(g)[v as usize] as f64
            });
            let e_dist = mean(&dists);
            t.row(&[
                name.to_string(),
                format!("2^-{j}"),
                fmt_f(s_x),
                fmt_f(ratio_f),
                fmt_f(ratio_fg),
                format!("{} vs {}", fmt_f(5.0 * s_x), fmt_f(e_dist)),
                format!("{bad} (≤{})", fmt_f(0.04 * log_d)),
            ]);
        }
    }
    t.note(
        "Lemma 6.1: E[dist] ≤ 5·S_x — the MC column must not exceed the bound column. \
         Lemma 6.2: S_x ≤ 11·S_f(x). Lemmas 6.2+6.4 composed: S_x ≤ 22·S_{g(f(x))}. \
         Lemma 6.7: few bad j. (Property tests cover random vectors; this table, real graphs.)",
    );
    vec![t]
}

/// E5 — Lemma 4.3 (cluster counts near a node) and Lemma 4.4 (bad subpaths).
pub fn e5_bad_subpaths(seed: u64, threads: usize) -> Vec<Table> {
    let mut rng0 = rng::stream_rng(seed, 4);
    let graphs: Vec<(&str, Graph)> = vec![
        ("grid-64x64", generators::grid(64, 64)),
        ("rgg-2500", generators::random_geometric(2500, 0.04, &mut rng0)),
    ];
    let mut t43 = Table::new(
        "E5a (Lemma 4.3): P[≥ 2 coarse clusters within distance d] vs the paper bound",
        &["graph", "d", "empirical", "bound 1−e^{−β(2d+1)}"],
    );
    let mut t44 = Table::new(
        "E5b (Lemma 4.4): bad subpaths along canonical shortest paths (coarse β = D^-0.5)",
        &["graph", "D", "sub len", "nbhd radius", "paths", "mean subpaths", "mean bad", "D^0.63"],
    );
    for (name, g) in &graphs {
        let d_diam = g.diameter_double_sweep().max(4);
        let beta = (d_diam as f64).powf(-0.5);
        // Lemma 4.3: sample nodes, three radii.
        for probe_d in [1u32, 2, 4] {
            let hits = parallel_trials(25, threads, |i| {
                let mut r = rng::stream_rng(seed, i ^ 0xE5);
                let p = Partition::compute(g, beta, &mut r);
                let mut count = 0usize;
                let mut total = 0usize;
                for k in 0..20 {
                    let v = ((k * g.n()) / 20) as NodeId;
                    total += 1;
                    if stats::clusters_within(g, &p, v, probe_d) >= 2 {
                        count += 1;
                    }
                }
                count as f64 / total as f64
            });
            let emp = mean(&hits);
            let bound = 1.0 - (-beta * (2.0 * probe_d as f64 + 1.0)).exp();
            t43.row(&[name.to_string(), probe_d.to_string(), fmt_f(emp), fmt_f(bound)]);
        }
        // Lemma 4.4: canonical paths between spread pairs.
        let sub_len = ((d_diam as f64).powf(0.12).round() as usize).max(3);
        let nbhd = ((d_diam as f64).powf(0.11).round() as u32).max(1);
        let outcomes = parallel_trials(15, threads, |i| {
            let mut r = rng::stream_rng(seed, i ^ 0xE5B);
            let p = Partition::compute(g, beta, &mut r);
            let u = ((i as usize * 37) % g.n()) as NodeId;
            let w = ((i as usize * 101 + g.n() / 2) % g.n()) as NodeId;
            match rn_graph::traversal::canonical_shortest_path(g, u, w) {
                Some(path) if path.len() >= 2 => {
                    let b = stats::classify_subpaths(g, &p, &path, sub_len, nbhd);
                    (b.total as f64, b.bad as f64)
                }
                _ => (0.0, 0.0),
            }
        });
        let totals = mean(&outcomes.iter().map(|o| o.0).collect::<Vec<_>>());
        let bads = mean(&outcomes.iter().map(|o| o.1).collect::<Vec<_>>());
        t44.row(&[
            name.to_string(),
            d_diam.to_string(),
            sub_len.to_string(),
            nbhd.to_string(),
            "15".into(),
            fmt_f(totals),
            fmt_f(bads),
            fmt_f((d_diam as f64).powf(0.63)),
        ]);
    }
    t43.note("The empirical column must stay at or below the bound column.");
    t44.note("Paper: all shortest paths have O(D^0.63) bad subpaths whp; mean bad ≪ D^0.63.");
    vec![t43, t44]
}

/// E6 — Lemma 2.3 contract: schedule passes reach distance ℓ in
/// `(ℓ+1)·W` rounds with period `W = O(log n)`. Runs on the calling thread.
pub fn e6_schedule_contract(seed: u64, _threads: usize) -> Vec<Table> {
    use rn_schedule::{SchedulePass, SlotPolicy, TreeSchedule};
    let mut rng0 = rng::stream_rng(seed, 5);
    let graphs: Vec<(&str, Graph)> = vec![
        ("path-512", generators::path(512)),
        ("grid-32x32", generators::grid(32, 32)),
        ("rgg-1200", generators::random_geometric(1200, 0.055, &mut rng0)),
        ("btree-511", generators::binary_tree(511)),
    ];
    let mut t = Table::new(
        "E6 (Lemma 2.3): intra-cluster downcast cost — rounds to serve radius ℓ",
        &["graph", "window W", "4·log n cap", "overflow", "ℓ", "rounds", "rounds/(ℓ+1)"],
    );
    for (name, g) in &graphs {
        let mut r = rng::stream_rng(seed, 6);
        let single = Partition::compute(g, 1e-9, &mut r);
        let sched = TreeSchedule::build(g, &single, SlotPolicy::Auto);
        let cap = 4 * NetParams::new(g.n(), sched.max_depth()).log2_n();
        for l in [2u32, 4, 8, 16, 32] {
            let l = l.min(sched.max_depth());
            let mut dc = SchedulePass::downcast_from_centers(&sched, l, &[Some(1)]);
            let budget = dc.pass_len();
            let mut sim = Simulator::new(g, CollisionModel::NoCollisionDetection, seed);
            // Stop as soon as every node within ℓ is served.
            let stats = sim.run_until(&mut dc, budget, |_, dc| {
                g.nodes().filter(|&v| sched.depth(v) <= l).all(|v| dc.value_of(v).is_some())
            });
            t.row(&[
                name.to_string(),
                sched.window().to_string(),
                cap.to_string(),
                sched.overflow().to_string(),
                l.to_string(),
                stats.rounds.to_string(),
                fmt_f(stats.rounds as f64 / (l as f64 + 1.0)),
            ]);
        }
    }
    t.note(
        "Paper contract: O(ℓ + polylog) rounds with period O(log n). rounds/(ℓ+1) ≈ W \
         (constant per graph) and W stays below its 4·log n cap.",
    );
    vec![t]
}

/// A fault-free `nocd` trial context with explicit network knowledge.
fn nocd_ctx(g: &Graph, net: NetParams, seed: u64) -> TrialCtx<'_> {
    TrialCtx::new(g, net, CollisionModel::NoCollisionDetection, seed, &FaultPlan::none())
}

/// Helper: one Compete run with explicit network knowledge.
fn compete_with(
    g: &Graph,
    net: NetParams,
    sources: &[(NodeId, u64)],
    params: &CompeteParams,
    seed: u64,
) -> CompeteReport {
    compete_trial(&nocd_ctx(g, net, seed), sources, params, &mut TrialPool::new())
        .expect("valid run")
}

/// Helper: our broadcast, returning (completed, propagation rounds, total).
fn cd_rounds(g: &Graph, net: NetParams, params: &CompeteParams, seed: u64) -> (bool, u64, u64) {
    let r = compete_with(g, net, &[(0, 1)], params, seed);
    (r.completed, r.propagation_rounds, r.total_rounds)
}

/// E7 — Theorem 5.1 headline: broadcast scaling `O(D·log n / log D)`.
pub fn e7_broadcast_scaling(seed: u64, threads: usize) -> Vec<Table> {
    let mut t = Table::new(
        "E7 (Theorem 5.1): broadcast rounds vs D (3 seeds each)",
        &["graph", "n", "D", "prop rounds", "prop/D", "prop/(D·logn/logD)", "completed"],
    );
    let mut configs: Vec<(String, Graph)> = Vec::new();
    for m in [32usize, 48, 64, 96, 128] {
        configs.push((format!("grid-{m}x{m}"), generators::grid(m, m)));
    }
    for n in [512usize, 1024, 2048, 4096] {
        configs.push((format!("path-{n}"), generators::path(n)));
    }
    let params = CompeteParams::default();
    for (name, g) in &configs {
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        let outcomes =
            parallel_trials(3, threads, |i| cd_rounds(g, net, &params, rng::derive(seed, i)));
        let prop = mean(&outcomes.iter().map(|o| o.1 as f64).collect::<Vec<_>>());
        let all_ok = outcomes.iter().all(|o| o.0);
        let d = net.diameter() as f64;
        let norm = d * net.log2_n() as f64 / net.log2_d() as f64;
        t.row(&[
            name.clone(),
            g.n().to_string(),
            net.diameter().to_string(),
            fmt_f(prop),
            fmt_f(prop / d),
            fmt_f(prop / norm),
            all_ok.to_string(),
        ]);
    }
    t.note(
        "Paper: rounds = O(D·log n/log D + polylog n); the last normalized column should be \
         flat (constant) across the sweep, and prop/D bounded — optimal O(D) when n = poly(D).",
    );
    vec![t]
}

/// E8 — the §1.3 comparison table: ours vs BGI'92 vs CR/KP-style vs HW'16.
pub fn e8_comparison(seed: u64, threads: usize) -> Vec<Table> {
    let mut t = Table::new(
        "E8 (§1.3 table): broadcast rounds by algorithm (3 seeds each)",
        &[
            "graph",
            "n",
            "D",
            "BGI'92",
            "CR/KP-style",
            "HW'16 (prop)",
            "CD'17 (prop)",
            "CD speedup vs BGI",
        ],
    );
    let mut configs: Vec<(String, Graph)> = Vec::new();
    for m in [32usize, 64, 96] {
        configs.push((format!("grid-{m}x{m}"), generators::grid(m, m)));
    }
    for n in [1024usize, 2048] {
        configs.push((format!("path-{n}"), generators::path(n)));
    }
    for (name, g) in &configs {
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        let bgi = mean(&parallel_trials(3, threads, |i| {
            bgi_broadcast(g, net, 0, rng::derive(seed, i)).rounds as f64
        }));
        let cr = mean(&parallel_trials(3, threads, |i| {
            truncated_broadcast(g, net, 0, rng::derive(seed, 0x10 + i)).rounds as f64
        }));
        let hw_params = CompeteParams::haeupler_wajc();
        let hw = mean(&parallel_trials(3, threads, |i| {
            cd_rounds(g, net, &hw_params, rng::derive(seed, 0x20 + i)).1 as f64
        }));
        let cd_params = CompeteParams::default();
        let cd = mean(&parallel_trials(3, threads, |i| {
            cd_rounds(g, net, &cd_params, rng::derive(seed, 0x30 + i)).1 as f64
        }));
        t.row(&[
            name.clone(),
            g.n().to_string(),
            net.diameter().to_string(),
            fmt_f(bgi),
            fmt_f(cr),
            fmt_f(hw),
            fmt_f(cd),
            fmt_f(bgi / cd),
        ]);
    }
    t.note(
        "Asymptotic ordering per the paper: CD'17 ≤ HW'16 ≤ CR/KP ≤ BGI. At laptop scale the \
         decay baselines win on constants: BGI costs ≈ 1·D·log n while the clustering pipeline \
         costs ≈ 40·D·log n/log D, so the predicted crossover sits at log D ≈ 40. The *growth \
         rates* (E7's flat normalized column vs E12c's growing BGI/D) are the reproducible \
         claim.",
    );
    vec![t]
}

/// E9 — Theorem 5.2: leader election ≈ broadcast time; binary-search
/// reduction costs Θ(log n)× more.
pub fn e9_leader_election(seed: u64, threads: usize) -> Vec<Table> {
    let mut t = Table::new(
        "E9 (Theorem 5.2): leader election vs broadcast (3 seeds each)",
        &[
            "graph",
            "n",
            "D",
            "Alg6 LE (prop)",
            "broadcast (prop)",
            "LE/BC",
            "binsearch-BGI LE",
            "binsearch/BGI-BC",
        ],
    );
    let mut configs: Vec<(String, Graph)> = Vec::new();
    for m in [32usize, 64] {
        configs.push((format!("grid-{m}x{m}"), generators::grid(m, m)));
    }
    configs.push(("path-1024".into(), generators::path(1024)));
    let params = CompeteParams::default();
    for (name, g) in &configs {
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        let le = mean(&parallel_trials(3, threads, |i| {
            let ctx = nocd_ctx(g, net, rng::derive(seed, i));
            let r = leader_election_trial(&ctx, &params, &mut TrialPool::new()).expect("connected");
            assert!(r.compete.completed && r.unique_winner);
            r.compete.propagation_rounds as f64
        }));
        let bc = mean(&parallel_trials(3, threads, |i| {
            cd_rounds(g, net, &params, rng::derive(seed, 0x40 + i)).1 as f64
        }));
        let bgi_bc = mean(&parallel_trials(3, threads, |i| {
            bgi_broadcast(g, net, 0, rng::derive(seed, 0x50 + i)).rounds as f64
        }));
        let bs = mean(&parallel_trials(2, threads, |i| {
            let seed = rng::derive(seed, i);
            let (kind, engine) = (BroadcastKind::Bgi, &mut SimScratch::new());
            binary_search_leader_election(engine, g, net, kind, 1.0, seed, None).rounds as f64
        }));
        t.row(&[
            name.clone(),
            g.n().to_string(),
            net.diameter().to_string(),
            fmt_f(le),
            fmt_f(bc),
            fmt_f(le / bc),
            fmt_f(bs),
            fmt_f(bs / bgi_bc),
        ]);
    }
    t.note(
        "Paper: Algorithm 6 matches broadcasting (LE/BC = O(1)) — previously leader election \
         was strictly slower; the classical reduction pays Θ(log n)× its broadcast (last column).",
    );
    vec![t]
}

/// E10 — Theorem 4.1: Compete cost vs |S|.
pub fn e10_compete_sources(seed: u64, threads: usize) -> Vec<Table> {
    let mut t = Table::new(
        "E10 (Theorem 4.1): Compete propagation rounds vs |S| on grid-64x64 (3 seeds)",
        &["|S|", "prop rounds", "completed", "rounds/bound(D·logn/logD + |S|·D^0.125)"],
    );
    let g = generators::grid(64, 64);
    let net = NetParams::new(g.n(), g.diameter_double_sweep());
    let params = CompeteParams::default();
    let d = net.diameter() as f64;
    for s_count in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let outcomes = parallel_trials(3, threads, |i| {
            let mut srng = rng::stream_rng(seed, 0xE10 + i);
            let mut sources = Vec::with_capacity(s_count);
            for k in 0..s_count {
                use rand::Rng;
                let v = srng.gen_range(0..g.n()) as NodeId;
                sources.push((v, (k + 1) as u64));
            }
            let r = compete_with(&g, net, &sources, &params, rng::derive(seed, i));
            (r.completed, r.propagation_rounds as f64)
        });
        let rounds = mean(&outcomes.iter().map(|o| o.1).collect::<Vec<_>>());
        let ok = outcomes.iter().all(|o| o.0);
        let bound = d * net.log2_n() as f64 / net.log2_d() as f64 + s_count as f64 * d.powf(0.125);
        t.row(&[s_count.to_string(), fmt_f(rounds), ok.to_string(), fmt_f(rounds / bound)]);
    }
    t.note(
        "Paper: O(D·logn/logD + |S|·D^0.125 + polylog). More sources generally *help* \
         propagation (more seeds) while the bound grows — the normalized column must stay \
         bounded (it may shrink).",
    );
    vec![t]
}

/// E11 — ablations of the paper's design choices.
pub fn e11_ablations(seed: u64, threads: usize) -> Vec<Table> {
    let mut rng0 = rng::stream_rng(seed, 7);
    let graphs: Vec<(&str, Graph)> = vec![
        ("grid-48x48", generators::grid(48, 48)),
        ("chain-10x60", generators::cluster_chain(10, 60, 0.15, &mut rng0)),
    ];
    let mut t = Table::new(
        "E11: ablations (3 seeds; prop rounds, budget-capped)",
        &["graph", "variant", "completed", "prop rounds"],
    );
    let base = CompeteParams::default();
    let variants: Vec<(&str, CompeteParams)> = vec![
        ("default (CD'17)", base),
        ("HW curtailment", CompeteParams::haeupler_wajc()),
        ("no curtailment (full radius)", CompeteParams { curtail_const: 1e6, ..base }),
        ("wide j range (0.5 log D)", CompeteParams { j_frac_max: 0.5, ..base }),
        ("no Alg-4 decay", CompeteParams { icp_background: false, ..base }),
        (
            "strict Alg-4 filter (paper-literal)",
            CompeteParams { alg4_accept_foreign: false, ..base },
        ),
        ("no background process", CompeteParams { background_process: false, ..base }),
        (
            "strict filter + no background",
            CompeteParams { alg4_accept_foreign: false, background_process: false, ..base },
        ),
        ("global sequence", CompeteParams { sequence_scope: SequenceScope::Global, ..base }),
    ];
    for (gname, g) in &graphs {
        let net = NetParams::new(g.n(), g.diameter_double_sweep());
        for (vname, params) in &variants {
            // Cap the budget so failing variants terminate in bounded time.
            let capped = CompeteParams { max_rounds_factor: 8, ..*params };
            let outcomes = parallel_trials(3, threads, |i| {
                cd_rounds(g, net, &capped, rng::derive(seed, 0xAB + i))
            });
            let ok = outcomes.iter().filter(|o| o.0).count();
            let rounds = mean(&outcomes.iter().map(|o| o.1 as f64).collect::<Vec<_>>());
            t.row(&[gname.to_string(), vname.to_string(), format!("{ok}/3"), fmt_f(rounds)]);
        }
    }
    t.note(
        "Crossing a coarse-cluster boundary requires either the background process (Algorithm \
         2) or physically-received foreign values in Algorithm 4 (the default channel \
         semantics, CompeteParams::alg4_accept_foreign): removing BOTH (strict filter + no background) strands \
         every coarse cluster except the source's, and those rows hit the round cap (0/3). \
         Disabling Algorithm 4 alone halves the time-division tax and still completes at this \
         scale because the background process covers boundary nodes. Curtailment variants \
         coincide at this scale: fine clusters are already smaller than the curtail radius.",
    );
    vec![t]
}

/// E12 — model sanity: exact collision semantics and the role of
/// spontaneous transmissions.
pub fn e12_model(seed: u64, threads: usize) -> Vec<Table> {
    // Part A: the deterministic collision trap.
    let mut ta = Table::new(
        "E12a: exact collision semantics — naive flooding on a 4-cycle",
        &["round budget", "informed nodes (of 4)"],
    );
    {
        use rn_sim::testing::NaiveFlood;
        let g = generators::cycle(4);
        let mut p = NaiveFlood::new(4, 0);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, seed);
        sim.run(&mut p, 50);
        ta.row(&["50".into(), p.informed_count().to_string()]);
        ta.note(
            "The two neighbors of the source are informed simultaneously and collide at the \
             antipode forever: deterministic flooding stalls at 3/4 — the collision model is \
             exact, which is why randomized decay exists at all.",
        );
    }

    // Part B: spontaneous transmissions do the precomputation work.
    let mut tb = Table::new(
        "E12b: spontaneous transmissions build the clustering (distributed Partition(β))",
        &["graph", "β", "protocol rounds", "transmissions", "clusters (vs oracle)"],
    );
    {
        let g = generators::grid(24, 24);
        let net = NetParams::of_graph(&g);
        for beta in [0.5, 0.25] {
            let mut proto = DistributedPartition::new(
                net,
                beta,
                DistributedPartitionConfig::default(),
                rng::derive(seed, 21),
            );
            let budget = proto.total_rounds();
            let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, seed);
            let stats = sim.run(&mut proto, budget);
            let (p, _) = proto.into_partition(&g);
            let mut r = rng::stream_rng(seed, 22);
            let oracle = Partition::compute(&g, beta, &mut r);
            tb.row(&[
                "grid-24x24".into(),
                fmt_f(beta),
                stats.rounds.to_string(),
                stats.metrics.transmissions.to_string(),
                format!("{} (vs {})", p.num_clusters(), oracle.num_clusters()),
            ]);
        }
        tb.note(
            "Every one of these transmissions is *spontaneous* (no node holds any broadcast \
             message yet). Algorithms barred from spontaneous transmissions — the classical \
             lower-bound regime — cannot run this phase at all; that is precisely the paper's \
             separation.",
        );
    }

    // Part C: the n = poly(D) optimality regime.
    let mut tc = Table::new(
        "E12c: the optimality regime n = O(poly D): ours vs BGI on paths (3 seeds)",
        &["n = D+1", "BGI rounds", "BGI/D", "CD'17 prop", "CD/D"],
    );
    {
        let params = CompeteParams::default();
        for n in [512usize, 1024, 2048] {
            let g = generators::path(n);
            let net = NetParams::new(g.n(), (n - 1) as u32);
            let bgi = mean(&parallel_trials(3, threads, |i| {
                bgi_broadcast(&g, net, 0, rng::derive(seed, 0x60 + i)).rounds as f64
            }));
            let cd = mean(&parallel_trials(3, threads, |i| {
                cd_rounds(&g, net, &params, rng::derive(seed, 0x70 + i)).1 as f64
            }));
            let d = (n - 1) as f64;
            tc.row(&[n.to_string(), fmt_f(bgi), fmt_f(bgi / d), fmt_f(cd), fmt_f(cd / d)]);
        }
        tc.note(
            "BGI/D grows like log n; CD/D stays near-constant — the paper's asymptotically \
             optimal O(D) broadcasting when n is polynomial in D.",
        );
    }
    // Part D: collision detection changes the problem entirely.
    let mut td = Table::new(
        "E12d: with collision detection, presence probes are free — binary-search LE by model",
        &["graph", "D", "no-CD probe (BGI) rounds", "CD probe (beep) rounds", "ratio"],
    );
    {
        for m in [24usize, 48] {
            let g = generators::grid(m, m);
            let net = NetParams::new(g.n(), (2 * (m - 1)) as u32);
            let engine = &mut SimScratch::new();
            let nocd = binary_search_leader_election(
                engine,
                &g,
                net,
                BroadcastKind::Bgi,
                1.0,
                rng::derive(seed, 0x80),
                None,
            );
            let cd = binary_search_leader_election(
                engine,
                &g,
                net,
                BroadcastKind::BeepWaveCd,
                1.0,
                rng::derive(seed, 0x81),
                None,
            );
            td.row(&[
                format!("grid-{m}x{m}"),
                net.diameter().to_string(),
                nocd.rounds.to_string(),
                cd.rounds.to_string(),
                fmt_f(nocd.rounds as f64 / cd.rounds as f64),
            ]);
        }
        td.note(
            "With CD, any channel energy carries one presence bit, so each probe costs exactly              D+1 rounds; without CD each probe must pay a whp decay-broadcast budget. This is              the model separation behind the paper's restriction to the harder no-CD setting.",
        );
    }
    vec![ta, tb, tc, td]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_runs_tiny() {
        // Smoke: the harness path works end to end (full runs live in the bin).
        let tables = e1_decay_success(1, 2);
        assert_eq!(tables.len(), 1);
        assert!(tables[0].len() >= 4);
    }
}
