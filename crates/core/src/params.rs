use rn_sim::NetParams;
use serde::{Deserialize, Serialize};

/// How schedule lengths are curtailed per Intra-Cluster Propagation — the
/// paper's central algorithmic lever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CurtailMode {
    /// Czumaj–Davies (this paper): each ICP with clustering parameter
    /// `β = 2^-j` runs for radius `Θ(log n / (β·log D))`, justified by
    /// Theorem 2.2. This is what removes Haeupler–Wajc's `log log n` factor.
    CzumajDavies,
    /// Haeupler–Wajc (PODC 2016): radius `Θ(log n · log log n / (β·log D))`
    /// — the predecessor's bound, used as the ablation baseline (E11).
    HaeuplerWajc,
}

/// Whether the sequence of fine clusterings is drawn per coarse cluster
/// (the paper's design, requiring the coarse layer for shared randomness) or
/// from a single global stream (an idealized ablation with free global
/// coordination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SequenceScope {
    /// Each coarse cluster draws its own random sequence (Algorithm 1).
    PerCoarseCluster,
    /// One global sequence shared by everyone (ablation).
    Global,
}

/// All tunable constants of the Compete algorithm. Every asymptotic constant
/// of the paper appears here explicitly; defaults are the practical
/// rescalings documented on each field (the paper's literal constants like
/// `0.01·log D` degenerate at implementable scales).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompeteParams {
    /// Coarse clustering uses `β = D^-coarse_beta_exp` (paper: 0.5).
    pub coarse_beta_exp: f64,
    /// Fine clustering `j` range lower fraction: `j_min = max(1, j_frac_min·log D)`
    /// (paper: 0.01).
    pub j_frac_min: f64,
    /// Fine clustering `j` range upper fraction: `j_max = max(j_min+1, j_frac_max·log D)`
    /// (paper: 0.1).
    pub j_frac_max: f64,
    /// Number of fine clusterings per `j` is `max(1, D^fine_copies_exp)`
    /// capped at [`CompeteParams::fine_copies_cap`] (paper: `D^0.2`).
    pub fine_copies_exp: f64,
    /// Hard cap on fine clusterings per `j` (memory guard).
    pub fine_copies_cap: u32,
    /// Length of each coarse cluster's clustering sequence is
    /// `D^seq_len_exp` (paper: `D^0.99`); the sequence is consumed lazily,
    /// so this only bounds the charged transmission cost and the round
    /// budget.
    pub seq_len_exp: f64,
    /// Multiplier `c` in the main-process curtailment radius
    /// `ℓ(j) = c·2^j·log n / log D`.
    pub curtail_const: f64,
    /// Curtailment regime (this paper vs Haeupler–Wajc).
    pub curtail_mode: CurtailMode,
    /// Background process uses `β = bg_beta_factor · D^-bg_beta_exp`
    /// (paper: exponent 0.1; the factor is a practical-scale correction —
    /// at implementable diameters `D^-0.1` is ≈ 0.5–0.7, which would make
    /// "background" clusters *smaller* than fine ones, inverting the
    /// asymptotic design).
    pub bg_beta_exp: f64,
    /// Multiplier on the background β (see [`CompeteParams::bg_beta_exp`]).
    pub bg_beta_factor: f64,
    /// Multiplier in the background curtailment radius `ℓ_bg = c·log n / β`.
    pub bg_curtail_const: f64,
    /// Run the Compete background process (Algorithm 2)? Off = ablation E11.
    pub background_process: bool,
    /// Run the ICP background process (Algorithm 4)? Off = ablation E11.
    pub icp_background: bool,
    /// Whether Algorithm-4 receivers merge values heard from *other*
    /// clusters. The paper states Algorithm 4 in terms of a node's own
    /// cluster, but physically a uniquely-received transmission is received
    /// whatever its origin, and the value is a true source message — merging
    /// can only help. Keeping it on (default) prevents a measure-zero
    /// deadlock on very small graphs where every precomputed clustering
    /// happens to cut the same edge; turning it off gives the paper-literal
    /// filter (E11 ablation).
    pub alg4_accept_foreign: bool,
    /// Sequence randomness scope.
    pub sequence_scope: SequenceScope,
    /// Safety budget: the run aborts after
    /// `max_rounds_factor · (D+1) · log²n + 10⁵` propagation rounds.
    pub max_rounds_factor: u64,
}

impl Default for CompeteParams {
    fn default() -> Self {
        CompeteParams {
            coarse_beta_exp: 0.5,
            j_frac_min: 0.01,
            j_frac_max: 0.1,
            fine_copies_exp: 0.2,
            fine_copies_cap: 6,
            seq_len_exp: 0.99,
            curtail_const: 3.0,
            curtail_mode: CurtailMode::CzumajDavies,
            bg_beta_exp: 0.1,
            bg_beta_factor: 0.25,
            bg_curtail_const: 2.0,
            background_process: true,
            icp_background: true,
            alg4_accept_foreign: true,
            sequence_scope: SequenceScope::PerCoarseCluster,
            max_rounds_factor: 64,
        }
    }
}

impl CompeteParams {
    /// The Haeupler–Wajc ablation configuration: identical pipeline with the
    /// predecessor's longer, fixed curtailment.
    pub fn haeupler_wajc() -> CompeteParams {
        CompeteParams { curtail_mode: CurtailMode::HaeuplerWajc, ..CompeteParams::default() }
    }

    /// Coarse clustering rate `β_c = D^-coarse_beta_exp`, clamped to `(0, 1]`.
    pub fn coarse_beta(&self, net: &NetParams) -> f64 {
        let d = net.diameter().max(2) as f64;
        d.powf(-self.coarse_beta_exp).clamp(1e-12, 1.0)
    }

    /// Background clustering rate `β_bg = factor · D^-bg_beta_exp`, clamped
    /// to `(0, 1]`.
    pub fn bg_beta(&self, net: &NetParams) -> f64 {
        let d = net.diameter().max(2) as f64;
        (self.bg_beta_factor * d.powf(-self.bg_beta_exp)).clamp(1e-12, 1.0)
    }

    /// The integer `j` values of the fine clusterings (so `β = 2^-j`), the
    /// practical rescaling of the paper's `[0.01·log D, 0.1·log D]`.
    pub fn j_values(&self, net: &NetParams) -> Vec<u32> {
        let mut js = Vec::new();
        self.j_values_into(net, &mut js);
        js
    }

    /// [`CompeteParams::j_values`] into a reused buffer (pooled precompute
    /// rebuilds refresh the list without allocating).
    pub fn j_values_into(&self, net: &NetParams, out: &mut Vec<u32>) {
        let log_d = net.log2_d() as f64;
        let j_min = ((self.j_frac_min * log_d).round() as u32).max(1);
        let j_max = ((self.j_frac_max * log_d).round() as u32).max(j_min + 1);
        out.clear();
        out.extend(j_min..=j_max);
    }

    /// Number of fine clustering copies per `j`: `min(D^fine_copies_exp, cap)`.
    pub fn fine_copies(&self, net: &NetParams) -> u32 {
        // Cap before narrowing: `D^fine_copies_exp` can exceed `u32::MAX`.
        (net.d_pow(self.fine_copies_exp, 1).min(u64::from(self.fine_copies_cap)) as u32).max(1)
    }

    /// Sequence length `D^seq_len_exp` (≥ 1).
    pub fn seq_len(&self, net: &NetParams) -> u64 {
        net.d_pow(self.seq_len_exp, 1)
    }

    /// Main-process curtailment radius for fine parameter `j`:
    /// `ℓ(j) = ⌈c·2^j·log n / log D⌉` (Czumaj–Davies), times `log log n`
    /// under [`CurtailMode::HaeuplerWajc`].
    pub fn curtail_radius(&self, net: &NetParams, j: u32) -> u32 {
        let base = self.curtail_const * (2.0f64).powi(j as i32) * net.log2_n() as f64
            / net.log2_d() as f64;
        let factor = match self.curtail_mode {
            CurtailMode::CzumajDavies => 1.0,
            CurtailMode::HaeuplerWajc => ((net.log2_n() as f64).log2()).max(1.0),
        };
        (base * factor).ceil().max(1.0) as u32
    }

    /// Background curtailment radius `ℓ_bg = ⌈c·log n / β_bg⌉`.
    pub fn bg_curtail_radius(&self, net: &NetParams) -> u32 {
        (self.bg_curtail_const * net.log2_n() as f64 / self.bg_beta(net)).ceil().max(1.0) as u32
    }

    /// Safety budget on propagation rounds, saturating at `u64::MAX`.
    pub fn max_rounds(&self, net: &NetParams) -> u64 {
        let log_n = net.log2_n() as u64;
        self.max_rounds_factor
            .saturating_mul(net.diameter() as u64 + 1)
            .saturating_mul(log_n * log_n)
            .saturating_add(100_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetParams {
        NetParams::new(4096, 512)
    }

    #[test]
    fn default_is_czumaj_davies() {
        let p = CompeteParams::default();
        assert_eq!(p.curtail_mode, CurtailMode::CzumajDavies);
        assert!(p.background_process && p.icp_background);
    }

    #[test]
    fn betas_scale_with_diameter() {
        let p = CompeteParams::default();
        let n = net(); // D = 512
        assert!((p.coarse_beta(&n) - (512f64).powf(-0.5)).abs() < 1e-12);
        assert!((p.bg_beta(&n) - 0.25 * (512f64).powf(-0.1)).abs() < 1e-12);
        // Coarse clusters are much larger than background fine clusters.
        assert!(p.coarse_beta(&n) < p.bg_beta(&n));
    }

    #[test]
    fn j_range_is_nonempty_and_ordered() {
        let p = CompeteParams::default();
        for d in [2u32, 16, 512, 65535] {
            let n = NetParams::new(1 << 16, d);
            let js = p.j_values(&n);
            assert!(!js.is_empty());
            assert!(js.windows(2).all(|w| w[0] < w[1]));
            assert!(js[0] >= 1);
        }
    }

    #[test]
    fn curtail_radius_grows_with_j_and_mode() {
        let p = CompeteParams::default();
        let n = net();
        let r1 = p.curtail_radius(&n, 1);
        let r3 = p.curtail_radius(&n, 3);
        assert!(r3 > r1, "bigger j (smaller beta) → larger radius");
        let hw = CompeteParams::haeupler_wajc();
        assert!(
            hw.curtail_radius(&n, 2) > p.curtail_radius(&n, 2),
            "HW mode runs schedules longer (the log log n factor)"
        );
    }

    #[test]
    fn copies_and_seq_len_respect_caps() {
        let p = CompeteParams::default();
        let n = net();
        assert!(p.fine_copies(&n) <= p.fine_copies_cap);
        assert!(p.fine_copies(&n) >= 1);
        assert!(p.seq_len(&n) >= 1);
        // D = 512: D^0.99 ≈ 482.
        assert!((p.seq_len(&n) as i64 - 482).abs() <= 2);
    }

    #[test]
    fn copies_cap_applies_before_narrowing() {
        // Regression: `D^fine_copies_exp` was narrowed to `u32` before the
        // cap, so 2^32 copies truncated to 0 and ran one clustering per `j`.
        let p = CompeteParams { fine_copies_exp: 32.0, ..CompeteParams::default() };
        assert_eq!(p.fine_copies(&NetParams::new(3, 2)), p.fine_copies_cap);
    }

    #[test]
    fn max_rounds_budget_is_superlinear_in_d() {
        let p = CompeteParams::default();
        let small = p.max_rounds(&NetParams::new(1024, 32));
        let large = p.max_rounds(&NetParams::new(1024, 512));
        assert!(large > 4 * (small - 100_000));
    }

    #[test]
    fn max_rounds_budget_saturates_instead_of_wrapping() {
        // Regression: a large `max_rounds` factor wrapped (release) or
        // panicked (debug), so asking for more rounds could give fewer.
        let p = CompeteParams { max_rounds_factor: u64::MAX, ..CompeteParams::default() };
        assert_eq!(p.max_rounds(&net()), u64::MAX);
        let big = CompeteParams { max_rounds_factor: 1 << 50, ..CompeteParams::default() };
        assert_eq!(big.max_rounds(&net()), u64::MAX, "the product alone overflows");
    }
}
