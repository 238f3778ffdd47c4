//! Distributed radio-protocol construction of Partition(β).
//!
//! Implements the discretized exponential race of Haeupler–Wajc §3 as a real
//! [`rn_sim::Protocol`]: each node delays by (a capped version of) its shift,
//! then floods its candidacy one hop per *phase*, where every phase is a
//! window of repeated Decay rounds so that announcements survive collisions
//! with high probability. Nodes adopt the best (earliest, in shifted time)
//! announcement they hear and forward it in the next phase.
//!
//! Cost: `O(K · R · log n)` rounds with `K = O(log n / β)` phases and `R`
//! decay repetitions per phase — the paper's `O(log³ n / β)` when
//! `R = Θ(log n)`.
//!
//! The discretization and residual collision losses make this an
//! *approximate* sampler of the MPX distribution; `Partition::compute` is
//! the exact oracle. Tests compare the two statistically. It runs as the
//! `partition(β)` scenario and in experiment E12b; the Compete pipeline's
//! precompute builds its clusterings with the oracle only.

use crate::partition::Partition;
use crate::shifts::ExponentialShifts;
use rand::rngs::SmallRng;
use rn_graph::{Graph, NodeId};
use rn_sim::{rng, rng::bernoulli_indices, NetParams, Protocol, Round, TxBuf};

/// Tuning for the distributed construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedPartitionConfig {
    /// Decay-round repetitions per phase (`R`); the paper's whp guarantee
    /// corresponds to `Θ(log n)`, smaller values trade fidelity for rounds.
    pub repeats_per_phase: u32,
    /// Shift cap multiplier: shifts are capped at `cap_factor · ln n / β`
    /// (the race conditions on `δ_max ≤ K`, true whp).
    pub cap_factor: f64,
}

impl Default for DistributedPartitionConfig {
    fn default() -> Self {
        DistributedPartitionConfig { repeats_per_phase: 2, cap_factor: 3.0 }
    }
}

/// One node's best-known candidacy.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Claim {
    /// Shifted birth time `K − δ_c` of the originating center `c`.
    birth: f64,
    /// Hops travelled from the center.
    hops: u32,
    /// The center.
    center: NodeId,
}

impl Claim {
    /// Total arrival key: smaller wins; ties by center id (deterministic).
    fn key(&self) -> (f64, NodeId) {
        (self.birth + self.hops as f64, self.center)
    }

    fn beats(&self, other: &Claim) -> bool {
        let (a, ac) = self.key();
        let (b, bc) = other.key();
        a < b || (a == b && ac < bc)
    }
}

/// Announcement message: "center `center`, born at shifted time `birth`, is
/// `hops` hops away from me".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Announce {
    center: NodeId,
    birth: f64,
    hops: u32,
}

/// The Partition(β) radio protocol. Run it for [`DistributedPartition::total_rounds`]
/// rounds, then extract the clustering with
/// [`DistributedPartition::into_partition`].
#[derive(Debug)]
pub struct DistributedPartition {
    beta: f64,
    phase_len: u64,
    num_phases: u64,
    /// Activation phase per node (`⌊K − δ_v⌋`).
    activation: Vec<u64>,
    /// Own birth time per node (`K − δ_v`).
    own_birth: Vec<f64>,
    /// Best claim adopted so far.
    claim: Vec<Option<Claim>>,
    /// Whether the node's claim changed and must be (re)announced.
    dirty: Vec<bool>,
    /// Snapshot of announcers for the current phase.
    announcers: Vec<NodeId>,
    depth: u32,
    rng: SmallRng,
    scratch: Vec<usize>,
    /// Pooled shift buffer: [`DistributedPartition::reset`] resamples into
    /// it so repeated trials pay no shift allocation.
    shifts: Option<ExponentialShifts>,
}

impl DistributedPartition {
    /// Prepares the protocol: samples shifts from `seed` and derives the
    /// phase structure from `params` and `config`.
    ///
    /// # Panics
    ///
    /// Panics if `beta <= 0` or the config's `repeats_per_phase` is 0.
    pub fn new(
        params: NetParams,
        beta: f64,
        config: DistributedPartitionConfig,
        seed: u64,
    ) -> DistributedPartition {
        let mut p = DistributedPartition {
            beta,
            phase_len: 0,
            num_phases: 0,
            activation: Vec::new(),
            own_birth: Vec::new(),
            claim: Vec::new(),
            dirty: Vec::new(),
            announcers: Vec::new(),
            depth: 0,
            rng: rng::rng_from_seed(seed),
            scratch: Vec::new(),
            shifts: None,
        };
        p.reset(params, beta, config, seed);
        p
    }

    /// In-place [`DistributedPartition::new`]: byte-identical protocol state
    /// (the shift resample replays the sample draw sequence), but every
    /// buffer is reused, so pooled trial loops re-arm the construction with
    /// zero heap traffic once capacity covers `params.n()`.
    ///
    /// # Panics
    ///
    /// Panics if `beta <= 0` or the config's `repeats_per_phase` is 0.
    pub fn reset(
        &mut self,
        params: NetParams,
        beta: f64,
        config: DistributedPartitionConfig,
        seed: u64,
    ) {
        assert!(config.repeats_per_phase > 0, "need at least one decay repeat per phase");
        let n = params.n();
        let mut shift_rng = rng::rng_from_seed(seed);
        let shifts = match &mut self.shifts {
            Some(s) => {
                s.resample(n, beta, &mut shift_rng);
                s
            }
            slot @ None => {
                *slot = Some(ExponentialShifts::sample(n, beta, &mut shift_rng));
                slot.as_mut().expect("slot was just filled")
            }
        };
        let cap = (config.cap_factor * (n.max(2) as f64).ln() / beta).max(1.0);
        shifts.clamp_max(cap);
        let k = cap.ceil();

        self.beta = beta;
        self.depth = params.log2_n();
        self.phase_len = (config.repeats_per_phase * self.depth) as u64;
        // Activation spread over K phases, flood for up to K more.
        self.num_phases = (2.0 * k).ceil() as u64 + 2;

        self.activation.clear();
        self.activation
            .extend((0..n).map(|v| (k - shifts.delta(v as NodeId)).floor().max(0.0) as u64));
        self.own_birth.clear();
        self.own_birth.extend((0..n).map(|v| k - shifts.delta(v as NodeId)));
        self.claim.clear();
        self.claim.resize(n, None);
        self.dirty.clear();
        self.dirty.resize(n, false);
        // Both are bounded by n; reserving up front keeps later trials with
        // more announcers (a per-seed quantity) from reallocating.
        self.announcers.clear();
        self.announcers.reserve(n);
        self.scratch.clear();
        self.scratch.reserve(n);
        self.rng = rng::rng_from_seed(seed ^ 0x9E37_79B9_7F4A_7C15);
    }

    /// Total number of rounds the protocol needs.
    pub fn total_rounds(&self) -> u64 {
        self.num_phases * self.phase_len
    }

    /// Number of phases (`≈ 2K`).
    pub fn num_phases(&self) -> u64 {
        self.num_phases
    }

    /// Rounds per phase (`R · ⌈log n⌉`).
    pub fn phase_len(&self) -> u64 {
        self.phase_len
    }

    fn begin_phase(&mut self, phase: u64) {
        // Activate centers whose time has come and nobody claimed them yet
        // with a strictly better key.
        for v in 0..self.claim.len() {
            if self.activation[v] == phase {
                let own = Claim { birth: self.own_birth[v], hops: 0, center: v as NodeId };
                let adopt = match &self.claim[v] {
                    None => true,
                    Some(c) => own.beats(c),
                };
                if adopt {
                    self.claim[v] = Some(own);
                    self.dirty[v] = true;
                }
            }
        }
        // Snapshot this phase's announcers.
        self.announcers.clear();
        for v in 0..self.claim.len() {
            if self.dirty[v] {
                self.announcers.push(v as NodeId);
                self.dirty[v] = false;
            }
        }
    }

    /// Extracts the clustering of `g`, the graph the protocol ran on. Nodes
    /// that never adopted a claim (possible only if the budget was cut
    /// short) become singleton centers; centers that themselves adopted
    /// another cluster are *repaired* to be their own center, preserving the
    /// paper's §2.1 invariant. The partition's BFS forest is a per-cluster
    /// BFS from these centers. Returns the partition and the number of
    /// repairs performed.
    ///
    /// # Panics
    ///
    /// Panics if `g` does not have the protocol's node count.
    pub fn into_partition(self, g: &Graph) -> (Partition, usize) {
        let mut out = Partition::shell(self.beta);
        let repairs = self.extract_partition(g, &mut out, &mut Vec::new(), &mut Vec::new());
        (out, repairs)
    }

    /// Non-consuming [`DistributedPartition::into_partition`]: writes the
    /// clustering into `out` (reusing its buffers) and returns the repair
    /// count. `used` and `idx_scratch` are caller-pooled scratch, both
    /// bounded by `n` — steady-state extraction performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `g` does not have the protocol's node count.
    pub fn extract_partition(
        &self,
        g: &Graph,
        out: &mut Partition,
        used: &mut Vec<NodeId>,
        idx_scratch: &mut Vec<u32>,
    ) -> usize {
        let n = self.claim.len();
        let center = out.center_vec_mut();
        center.clear();
        center.extend((0..n).map(|v| self.claim[v].map_or(v as NodeId, |c| c.center)));
        // Repair pass: any node used as a center must be its own center.
        used.clear();
        used.extend_from_slice(center);
        used.sort_unstable();
        used.dedup();
        let mut repairs = 0;
        for &c in used.iter() {
            if center[c as usize] != c {
                center[c as usize] = c;
                repairs += 1;
            }
        }
        out.finish_rebuild(g, self.beta, idx_scratch);
        repairs
    }
}

impl Protocol for DistributedPartition {
    type Msg = Announce;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<Announce>) {
        if round >= self.total_rounds() {
            return;
        }
        let phase = round / self.phase_len;
        let step_in_phase = round % self.phase_len;
        if step_in_phase == 0 {
            self.begin_phase(phase);
        }
        // Decay step within the phase window.
        let i = (step_in_phase % self.depth as u64) as i32;
        let p = (2.0f64).powi(-(i + 1));
        self.scratch.clear();
        bernoulli_indices(&mut self.rng, self.announcers.len(), p, &mut self.scratch);
        for &idx in &self.scratch {
            let v = self.announcers[idx];
            let c = self.claim[v as usize].expect("announcers have claims");
            tx.send(v, Announce { center: c.center, birth: c.birth, hops: c.hops });
        }
    }

    fn deliver(&mut self, _round: Round, node: NodeId, _from: NodeId, msg: &Announce) {
        let candidate = Claim { birth: msg.birth, hops: msg.hops + 1, center: msg.center };
        let adopt = match &self.claim[node as usize] {
            None => true,
            Some(current) => candidate.beats(current),
        };
        if adopt {
            self.claim[node as usize] = Some(candidate);
            self.dirty[node as usize] = true;
        }
    }

    fn done(&self, round: Round) -> bool {
        round >= self.total_rounds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::PartitionStats;
    use rand::SeedableRng;
    use rn_graph::generators;
    use rn_sim::{CollisionModel, Simulator};

    fn build(
        g: &rn_graph::Graph,
        beta: f64,
        seed: u64,
        config: DistributedPartitionConfig,
    ) -> (Partition, usize) {
        let params = NetParams::of_graph(g);
        let mut proto = DistributedPartition::new(params, beta, config, seed);
        let budget = proto.total_rounds();
        let mut sim = Simulator::new(g, CollisionModel::NoCollisionDetection, seed);
        sim.run(&mut proto, budget);
        proto.into_partition(g)
    }

    #[test]
    fn produces_valid_partition_on_grid() {
        let g = generators::grid(10, 10);
        let (p, _repairs) = build(&g, 0.3, 7, DistributedPartitionConfig::default());
        p.validate(&g).expect("partition invariants");
        assert!(p.num_clusters() >= 1);
    }

    #[test]
    fn produces_valid_partition_on_rgg() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::random_geometric(120, 0.15, &mut rng);
        let (p, _) = build(&g, 0.25, 11, DistributedPartitionConfig::default());
        p.validate(&g).expect("partition invariants");
    }

    #[test]
    fn respects_beta_scaling_like_the_oracle() {
        let g = generators::path(200);
        let (coarse, _) = build(&g, 0.05, 3, DistributedPartitionConfig::default());
        let (fine, _) = build(&g, 0.5, 3, DistributedPartitionConfig::default());
        assert!(
            fine.num_clusters() > 2 * coarse.num_clusters(),
            "large beta should fragment: {} vs {}",
            fine.num_clusters(),
            coarse.num_clusters()
        );
    }

    #[test]
    fn statistics_comparable_to_oracle() {
        // Distributed and oracle constructions should land in the same
        // ballpark for cut fraction and radius on the same graph/β.
        let g = generators::grid(16, 16);
        let beta = 0.25;
        let mut cut_d = 0.0;
        let mut cut_o = 0.0;
        let trials = 10;
        for seed in 0..trials {
            let (pd, _) = build(&g, beta, seed, DistributedPartitionConfig::default());
            cut_d += PartitionStats::measure(&g, &pd).cut_fraction;
            let mut rng = SmallRng::seed_from_u64(seed + 1000);
            let po = Partition::compute(&g, beta, &mut rng);
            cut_o += PartitionStats::measure(&g, &po).cut_fraction;
        }
        cut_d /= trials as f64;
        cut_o /= trials as f64;
        assert!(
            (cut_d - cut_o).abs() < 0.15,
            "cut fractions diverge: distributed {cut_d} vs oracle {cut_o}"
        );
    }

    #[test]
    fn round_cost_matches_formula() {
        let g = generators::grid(8, 8);
        let params = NetParams::of_graph(&g);
        let config = DistributedPartitionConfig { repeats_per_phase: 3, cap_factor: 2.0 };
        let proto = DistributedPartition::new(params, 0.5, config, 1);
        assert_eq!(proto.phase_len(), 3 * params.log2_n() as u64);
        assert_eq!(proto.total_rounds(), proto.num_phases() * proto.phase_len());
    }

    #[test]
    fn zero_budget_degrades_to_singletons() {
        let g = generators::path(10);
        let params = NetParams::of_graph(&g);
        let proto =
            DistributedPartition::new(params, 0.3, DistributedPartitionConfig::default(), 5);
        // Never run: every node is its own singleton center.
        let (p, repairs) = proto.into_partition(&g);
        assert_eq!(p.num_clusters(), 10);
        assert_eq!(repairs, 0);
        p.validate(&g).expect("singletons are valid");
    }
}
