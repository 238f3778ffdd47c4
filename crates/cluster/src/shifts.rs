use rand::Rng;
use serde::{Deserialize, Serialize};

/// The per-node exponential random shifts `δ_v ~ Exp(β)` driving
/// Partition(β).
///
/// `P[δ_v ≤ y] = 1 − e^{−βy}`, so `E[δ_v] = 1/β`: smaller `β` means larger
/// shifts and therefore larger clusters.
///
/// # Example
///
/// ```
/// use rn_cluster::ExponentialShifts;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let shifts = ExponentialShifts::sample(1000, 0.5, &mut rng);
/// let mean: f64 = (0..1000).map(|v| shifts.delta(v)).sum::<f64>() / 1000.0;
/// assert!((mean - 2.0).abs() < 0.3, "sample mean near 1/β = 2");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExponentialShifts {
    beta: f64,
    delta: Vec<f64>,
}

impl ExponentialShifts {
    /// Samples `n` independent `Exp(beta)` shifts.
    ///
    /// # Panics
    ///
    /// Panics if `beta <= 0` or `n == 0`.
    pub fn sample(n: usize, beta: f64, rng: &mut impl Rng) -> ExponentialShifts {
        assert!(beta > 0.0, "beta must be positive");
        assert!(n > 0, "need at least one node");
        let delta = (0..n)
            .map(|_| {
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                -u.ln() / beta
            })
            .collect();
        ExponentialShifts { beta, delta }
    }

    /// Re-samples in place: after this call the value is indistinguishable
    /// from [`ExponentialShifts::sample`]`(n, beta, rng)` (same draw
    /// sequence), but the backing vector is reused — pooled trial loops pay
    /// no heap traffic once capacity covers `n`.
    ///
    /// # Panics
    ///
    /// Panics if `beta <= 0` or `n == 0`.
    pub fn resample(&mut self, n: usize, beta: f64, rng: &mut impl Rng) {
        assert!(beta > 0.0, "beta must be positive");
        assert!(n > 0, "need at least one node");
        self.beta = beta;
        self.delta.clear();
        self.delta.extend((0..n).map(|_| {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            -u.ln() / beta
        }));
    }

    /// The rate parameter β.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The shift of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn delta(&self, v: rn_graph::NodeId) -> f64 {
        self.delta[v as usize]
    }

    /// Number of shifts.
    pub fn len(&self) -> usize {
        self.delta.len()
    }

    /// Whether the collection is empty (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.delta.is_empty()
    }

    /// Caps every shift at `cap` (the distributed construction conditions on
    /// `δ_max ≤ K`, which holds whp; capping implements that conditioning).
    /// Returns how many shifts were clipped.
    pub fn clamp_max(&mut self, cap: f64) -> usize {
        let mut clipped = 0;
        for d in &mut self.delta {
            if *d > cap {
                *d = cap;
                clipped += 1;
            }
        }
        clipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn shifts_are_nonnegative_and_beta_scaled() {
        let mut rng = SmallRng::seed_from_u64(2);
        let s1 = ExponentialShifts::sample(2000, 1.0, &mut rng);
        let s2 = ExponentialShifts::sample(2000, 0.25, &mut rng);
        assert!((0..2000).all(|v| s1.delta(v) >= 0.0));
        let m1: f64 = (0..2000).map(|v| s1.delta(v)).sum::<f64>() / 2000.0;
        let m2: f64 = (0..2000).map(|v| s2.delta(v)).sum::<f64>() / 2000.0;
        assert!((m1 - 1.0).abs() < 0.15, "mean {m1} vs 1.0");
        assert!((m2 - 4.0).abs() < 0.5, "mean {m2} vs 4.0");
    }

    #[test]
    fn tail_matches_exponential_distribution() {
        // P[δ > t] = e^{-βt}; check at t = 1/β (should be e^{-1} ≈ 0.368).
        let mut rng = SmallRng::seed_from_u64(3);
        let s = ExponentialShifts::sample(5000, 0.5, &mut rng);
        let over = (0..5000).filter(|&v| s.delta(v) > 2.0).count() as f64 / 5000.0;
        assert!((over - (-1.0f64).exp()).abs() < 0.03, "tail fraction {over}");
    }

    #[test]
    fn clamp_caps_and_counts() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut s = ExponentialShifts::sample(1000, 1.0, &mut rng);
        let clipped = s.clamp_max(1.0);
        assert!(clipped > 200, "about e^{{-1}} of draws exceed 1/β");
        assert!((0..1000).all(|v| s.delta(v) <= 1.0));
        assert_eq!(s.clamp_max(1.0), 0, "idempotent");
    }

    #[test]
    fn resample_matches_fresh_sample_exactly() {
        let mut s = ExponentialShifts::sample(16, 1.0, &mut SmallRng::seed_from_u64(9));
        s.resample(500, 0.3, &mut SmallRng::seed_from_u64(10));
        let fresh = ExponentialShifts::sample(500, 0.3, &mut SmallRng::seed_from_u64(10));
        assert_eq!(s, fresh, "resample replays the sample draw sequence");
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn invalid_beta_rejected() {
        let mut rng = SmallRng::seed_from_u64(5);
        let _ = ExponentialShifts::sample(10, 0.0, &mut rng);
    }
}
