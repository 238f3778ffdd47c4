use crate::params::{CompeteParams, PrecomputeMode};
use rn_cluster::{Partition, PartitionScratch};
use rn_graph::Graph;
use rn_schedule::{SlotPolicy, TreeSchedule, TreeScheduleScratch};
use rn_sim::{rng, NetParams};
use std::num::Saturating;

/// One fine clustering ready for Intra-Cluster Propagation: its partition,
/// its tree schedule, and the curtailment geometry derived from the paper's
/// parameters.
#[derive(Debug)]
pub struct FineClustering {
    /// The `j` such that `β = 2^-j` (0 for background clusterings, which use
    /// `β = D^-0.1` directly).
    pub j: u32,
    /// The clustering rate β.
    pub beta: f64,
    /// The Partition(β) result.
    pub partition: Partition,
    /// The per-cluster BFS-tree schedule.
    pub schedule: TreeSchedule,
    /// ICP curtailment radius ℓ for this clustering.
    pub radius: u32,
    /// Rounds per down- or up-cast pass: `(min(ℓ, depth)+1)·W`.
    pub pass_len: u64,
    /// Rounds per full ICP (down + up + down).
    pub icp_len: u64,
}

impl FineClustering {
    /// Refreshes the curtailment geometry after an in-place partition /
    /// schedule rebuild.
    fn reset_meta(&mut self, j: u32, beta: f64, radius: u32) {
        self.j = j;
        self.beta = beta;
        self.radius = radius;
        self.pass_len = self.schedule.pass_len(radius);
        self.icp_len = 3 * self.pass_len;
    }
}

/// Reusable workspace for [`Precomputed::rebuild`]: the cluster-race and
/// tree-schedule scratch spaces shared by every partition/schedule pair the
/// precompute constructs.
#[derive(Debug, Default)]
pub struct PrecomputeScratch {
    partition: PartitionScratch,
    schedule: TreeScheduleScratch,
}

/// Everything Algorithm 1 steps 1–6 and Algorithm 2 steps 1–2 produce,
/// plus the charged round cost of producing it distributedly.
#[derive(Debug)]
pub struct Precomputed {
    /// Network parameters the computation was done for.
    pub net: NetParams,
    /// The coarse clustering (`β = D^-0.5`), whose only role is to scope the
    /// shared randomness of the fine-clustering sequences.
    pub coarse: Partition,
    /// The coarse schedule (only charged, never replayed; kept so pooled
    /// rebuilds reuse its buffers).
    pub coarse_sched: TreeSchedule,
    /// Coarse cluster index per node (cached).
    pub coarse_idx: Vec<u32>,
    /// The `j` values in use (so `fines[ji * copies + t]` has `j = js[ji]`).
    pub js: Vec<u32>,
    /// Copies per `j`.
    pub copies: u32,
    /// Main-process fine clusterings, computed *within* coarse clusters.
    pub fines: Vec<FineClustering>,
    /// Background-process clusterings (global, `β = D^-0.1`), round-robin.
    pub bg: Vec<FineClustering>,
    /// Global ICP slot length of the main process: every slot lasts this
    /// long so heterogeneous per-coarse choices stay globally aligned
    /// (slower β's finish early and idle).
    pub main_slot_len: u64,
    /// Global ICP slot length of the background process.
    pub bg_slot_len: u64,
    /// Sequence length (`D^0.99` scaled).
    pub seq_len: u64,
    /// Rounds charged for the whole precomputation per the paper's formulas
    /// (0 under [`PrecomputeMode::Ignored`]).
    pub charged_rounds: u64,
}

impl Precomputed {
    /// Runs the oracle precomputation for `g` under `params`, seeding all
    /// randomness from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected (cluster BFS would not cover it).
    pub fn build(g: &Graph, net: NetParams, params: &CompeteParams, seed: u64) -> Precomputed {
        let mut pre = Precomputed::shell();
        pre.rebuild(g, net, params, seed, &mut PrecomputeScratch::default());
        pre
    }

    /// A trivial (one-node) precompute whose buffers [`Precomputed::rebuild`]
    /// replaces. Keeps fresh and pooled construction on one code path.
    pub(crate) fn shell() -> Precomputed {
        let g1 = Graph::from_edges(1, &[]).expect("one-node graph");
        let mut r = rng::rng_from_seed(0);
        let coarse = Partition::compute(&g1, 1.0, &mut r);
        let coarse_sched = TreeSchedule::build(&g1, &coarse, SlotPolicy::Fixed(1));
        Precomputed {
            net: NetParams::new(1, 1),
            coarse,
            coarse_sched,
            coarse_idx: Vec::new(),
            js: Vec::new(),
            copies: 0,
            fines: Vec::new(),
            bg: Vec::new(),
            main_slot_len: 1,
            bg_slot_len: 1,
            seq_len: 1,
            charged_rounds: 0,
        }
    }

    /// In-place [`Precomputed::build`]: recomputes every clustering and
    /// schedule for a fresh `seed` (the precompute is seed-dependent, so
    /// pooled trial loops must rebuild it each trial) while reusing all
    /// existing buffers. After the first rebuild on a given `(graph, params)`
    /// pair, subsequent rebuilds perform no heap allocation.
    pub fn rebuild(
        &mut self,
        g: &Graph,
        net: NetParams,
        params: &CompeteParams,
        seed: u64,
        scratch: &mut PrecomputeScratch,
    ) {
        let log_n = net.log2_n() as u64;
        // The charge saturates: a long enough sequence (`seq_len = D^seq_exp`
        // saturates at `u64::MAX`) must not wrap it into a smaller total.
        let mut charged = Saturating(0u64);
        self.net = net;

        // Step 1: coarse clustering with β = D^-0.5.
        let beta_c = params.coarse_beta(&net);
        let mut rng_c = rng::stream_rng(seed, 1);
        self.coarse.recompute(g, beta_c, &mut rng_c, &mut scratch.partition);
        charged += ((log_n * log_n * log_n) as f64 / beta_c).ceil() as u64;

        // Step 2: coarse schedule (needed for charging the sequence
        // transmission; the propagation phase itself does not replay it).
        self.coarse_sched.rebuild(g, &self.coarse, SlotPolicy::Auto, &mut scratch.schedule);
        charged += self.coarse_sched.charged_build_rounds(&net);

        self.coarse_idx.clear();
        self.coarse_idx.extend(g.nodes().map(|v| self.coarse.cluster_index(v)));

        // Steps 3–4: fine clusterings within coarse clusters, for every j and
        // copy, plus their schedules.
        params.j_values_into(&net, &mut self.js);
        let copies = params.fine_copies(&net);
        self.copies = copies;
        let want = self.js.len() * copies as usize;
        self.fines.truncate(want);
        for i in 0..want {
            let (ji, t) = (i / copies as usize, (i % copies as usize) as u32);
            let j = self.js[ji];
            let beta = (2.0f64).powi(-(j as i32));
            let radius = params.curtail_radius(&net, j);
            let stream = 1000 + (ji as u64) * 512 + t as u64;
            let mut r = rng::stream_rng(seed, stream);
            if i == self.fines.len() {
                self.fines.push(self.new_slot());
            }
            let f = &mut self.fines[i];
            f.partition.recompute_within(g, beta, &self.coarse_idx, &mut r, &mut scratch.partition);
            f.schedule.rebuild(g, &f.partition, SlotPolicy::Auto, &mut scratch.schedule);
            f.reset_meta(j, beta, radius);
            charged += ((log_n * log_n * log_n) as f64 / beta).ceil() as u64;
            charged += self.fines[i].schedule.charged_build_rounds(&net);
        }

        // Steps 5–6: sequences are generated lazily from per-coarse-cluster
        // seed streams (local computation, free); their transmission through
        // the coarse schedule is charged per Lemma 2.3's k-message bound.
        self.seq_len = params.seq_len(&net);
        charged += self.coarse_sched.pass_len(self.coarse_sched.max_depth());
        charged += self.seq_len.saturating_mul(log_n);
        charged += log_n * log_n * log_n;

        // Background process steps 1–2: global clusterings at β = D^-0.1.
        let beta_bg = params.bg_beta(&net);
        let bg_radius = params.bg_curtail_radius(&net);
        let bg_count = copies.max(2) as usize;
        self.bg.truncate(bg_count);
        for t in 0..bg_count {
            let mut r = rng::stream_rng(seed, 9000 + t as u64);
            if t == self.bg.len() {
                self.bg.push(self.new_slot());
            }
            let f = &mut self.bg[t];
            f.partition.recompute(g, beta_bg, &mut r, &mut scratch.partition);
            f.schedule.rebuild(g, &f.partition, SlotPolicy::Auto, &mut scratch.schedule);
            f.reset_meta(0, beta_bg, bg_radius);
            charged += ((log_n * log_n * log_n) as f64 / beta_bg).ceil() as u64;
            charged += self.bg[t].schedule.charged_build_rounds(&net);
        }

        self.main_slot_len = self.fines.iter().map(|f| f.icp_len).max().unwrap_or(1).max(1);
        self.bg_slot_len = self.bg.iter().map(|f| f.icp_len).max().unwrap_or(1).max(1);

        self.charged_rounds = match params.precompute {
            PrecomputeMode::Charged => charged.0,
            PrecomputeMode::Ignored => 0,
        };
    }

    /// A slot for one more fine or background clustering: a copy of the
    /// coarse one, which the in-place recompute and rebuild then overwrite.
    /// New slots thus go through the pooled scratch too, so a first
    /// rebuild allocates no per-clustering race or schedule scratch.
    fn new_slot(&self) -> FineClustering {
        FineClustering {
            j: 0,
            beta: self.coarse.beta(),
            partition: self.coarse.clone(),
            schedule: self.coarse_sched.clone(),
            radius: 0,
            pass_len: 0,
            icp_len: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;

    fn build(g: &Graph) -> Precomputed {
        let net = NetParams::of_graph(g);
        Precomputed::build(g, net, &CompeteParams::default(), 42)
    }

    #[test]
    fn fine_clusters_stay_within_coarse_clusters() {
        let g = generators::grid(14, 14);
        let pre = build(&g);
        for fine in &pre.fines {
            for idx in 0..fine.partition.num_clusters() as u32 {
                let members = fine.partition.members(idx);
                let cc = pre.coarse_idx[members[0] as usize];
                assert!(
                    members.iter().all(|&m| pre.coarse_idx[m as usize] == cc),
                    "fine cluster spans coarse clusters"
                );
            }
        }
    }

    #[test]
    fn counts_follow_params() {
        let g = generators::grid(14, 14);
        let net = NetParams::of_graph(&g);
        let params = CompeteParams::default();
        let pre = build(&g);
        assert_eq!(pre.fines.len(), pre.js.len() * pre.copies as usize);
        assert_eq!(pre.js, params.j_values(&net));
        assert!(pre.bg.len() >= 2);
    }

    #[test]
    fn slot_lengths_cover_every_icp() {
        let g = generators::grid(12, 12);
        let pre = build(&g);
        for f in &pre.fines {
            assert!(f.icp_len <= pre.main_slot_len);
            assert_eq!(f.icp_len, 3 * f.pass_len);
        }
        for f in &pre.bg {
            assert!(f.icp_len <= pre.bg_slot_len);
        }
    }

    #[test]
    fn charged_cost_is_positive_and_suppressible() {
        let g = generators::grid(10, 10);
        let net = NetParams::of_graph(&g);
        let pre = Precomputed::build(&g, net, &CompeteParams::default(), 1);
        assert!(pre.charged_rounds > 0);
        let free = Precomputed::build(
            &g,
            net,
            &CompeteParams { precompute: PrecomputeMode::Ignored, ..CompeteParams::default() },
            1,
        );
        assert_eq!(free.charged_rounds, 0);
    }

    #[test]
    fn charge_saturates_on_a_long_sequence() {
        // Regression: `seq_len · log n` overflowed once `seq_len = D^seq_exp`
        // saturated, wrapping (release) to a charge below the default's or
        // panicking (debug).
        let g = generators::grid(8, 8);
        let params = CompeteParams { seq_len_exp: 40.0, ..CompeteParams::default() };
        let pre = Precomputed::build(&g, NetParams::of_graph(&g), &params, 7);
        assert_eq!(pre.seq_len, u64::MAX);
        assert_eq!(pre.charged_rounds, u64::MAX);
    }

    #[test]
    fn rebuild_matches_fresh_build_exactly() {
        let g = generators::grid(10, 10);
        let net = NetParams::of_graph(&g);
        let params = CompeteParams::default();
        // Warm the pooled value on a different graph, then rebuild across
        // seeds: every observable must equal the fresh construction.
        let warm = generators::path(20);
        let mut pooled = Precomputed::build(&warm, NetParams::of_graph(&warm), &params, 5);
        let mut scratch = PrecomputeScratch::default();
        for seed in [7u64, 8, 9] {
            pooled.rebuild(&g, net, &params, seed, &mut scratch);
            let fresh = Precomputed::build(&g, net, &params, seed);
            assert_eq!(pooled.charged_rounds, fresh.charged_rounds, "seed {seed}");
            assert_eq!(pooled.js, fresh.js);
            assert_eq!(pooled.copies, fresh.copies);
            assert_eq!(pooled.coarse_idx, fresh.coarse_idx);
            assert_eq!(pooled.main_slot_len, fresh.main_slot_len);
            assert_eq!(pooled.bg_slot_len, fresh.bg_slot_len);
            assert_eq!(pooled.seq_len, fresh.seq_len);
            assert_eq!(pooled.fines.len(), fresh.fines.len());
            for (fp, ff) in
                pooled.fines.iter().zip(&fresh.fines).chain(pooled.bg.iter().zip(&fresh.bg))
            {
                assert_eq!(fp.j, ff.j);
                assert_eq!(fp.radius, ff.radius);
                assert_eq!(fp.pass_len, ff.pass_len);
                assert_eq!(fp.schedule.window(), ff.schedule.window());
                for v in g.nodes() {
                    assert_eq!(fp.partition.center_of(v), ff.partition.center_of(v));
                    assert_eq!(fp.schedule.down_slot(v), ff.schedule.down_slot(v));
                    assert_eq!(fp.schedule.up_slot(v), ff.schedule.up_slot(v));
                }
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generators::grid(10, 10);
        let net = NetParams::of_graph(&g);
        let a = Precomputed::build(&g, net, &CompeteParams::default(), 7);
        let b = Precomputed::build(&g, net, &CompeteParams::default(), 7);
        assert_eq!(a.charged_rounds, b.charged_rounds);
        for (fa, fb) in a.fines.iter().zip(&b.fines) {
            for v in g.nodes() {
                assert_eq!(fa.partition.center_of(v), fb.partition.center_of(v));
            }
        }
    }

    #[test]
    fn background_clusterings_are_global_and_coarser_than_fines() {
        // β_bg = 0.25·D^-0.1 is smaller than the finest β = 2^-j_min = 0.5,
        // so background clusters should be no more fragmented than the
        // finest main clusterings (and they ignore coarse boundaries).
        let g = generators::grid(20, 20);
        let pre = build(&g);
        let bg_clusters = pre.bg[0].partition.num_clusters();
        let finest =
            pre.fines.iter().max_by(|a, b| a.beta.total_cmp(&b.beta)).expect("fines nonempty");
        assert!(finest.beta > pre.bg[0].beta, "finest β above background β");
        assert!(
            bg_clusters <= finest.partition.num_clusters(),
            "bg {bg_clusters} should be no more fragmented than finest {}",
            finest.partition.num_clusters()
        );
    }
}
