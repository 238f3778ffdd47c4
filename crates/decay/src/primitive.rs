use rand::rngs::SmallRng;
use rn_graph::NodeId;
use rn_sim::{rng, rng::bernoulli_indices, NetParams, Protocol, Round, TxBuf};

/// Step/probability bookkeeping for the Decay primitive (Algorithm 5).
///
/// One *decay round* consists of `depth = ⌈log₂ n⌉` steps; in step
/// `i ∈ 0..depth` a participating node transmits with probability `2^-(i+1)`.
///
/// # Example
///
/// ```
/// use rn_decay::DecaySteps;
/// use rn_sim::NetParams;
///
/// let d = DecaySteps::for_params(&NetParams::new(256, 10));
/// assert_eq!(d.round_len(), 8);
/// assert_eq!(d.probability(0), 0.5);
/// assert_eq!(d.probability(8), 0.5); // wraps to a new decay round
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecaySteps {
    depth: u32,
}

impl DecaySteps {
    /// A decay schedule of `depth` steps per round (probabilities
    /// `2^-1 … 2^-depth`).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(depth: u32) -> DecaySteps {
        assert!(depth > 0, "decay depth must be positive");
        DecaySteps { depth }
    }

    /// The standard depth for a network: `⌈log₂ n⌉` (at least 1).
    pub fn for_params(params: &NetParams) -> DecaySteps {
        DecaySteps::new(params.log2_n())
    }

    /// Steps per decay round.
    #[inline]
    pub fn round_len(&self) -> u32 {
        self.depth
    }

    /// Transmission probability at global step `step` (wraps every round):
    /// `2^-(step mod depth + 1)`.
    #[inline]
    pub fn probability(&self, step: u64) -> f64 {
        let i = (step % self.depth as u64) as i32;
        (2.0f64).powi(-(i + 1))
    }

    /// The exponent `j` such that [`DecaySteps::probability`] is exactly
    /// `2^-j` at `step` — decay probabilities are all exact powers of two.
    /// [`DecayBroadcast`](crate::DecayBroadcast) lays out its cycle of
    /// decay depths from these exponents.
    #[inline]
    pub fn exponent(&self, step: u64) -> u32 {
        (step % self.depth as u64) as u32 + 1
    }
}

/// Experiment protocol for Lemma 3.1: a fixed set of participants performs
/// exactly one decay round; every listener that receives is recorded.
///
/// Used by experiment E1 to estimate the per-round success probability as a
/// function of the number of participating neighbors.
#[derive(Debug)]
pub struct SingleDecayRound {
    steps: DecaySteps,
    participants: Vec<NodeId>,
    received: Vec<bool>,
    rng: SmallRng,
    scratch: Vec<usize>,
}

impl SingleDecayRound {
    /// Participants all hold a message and run one decay round of the given
    /// `depth`; `n` is the network size.
    pub fn new(n: usize, depth: u32, participants: Vec<NodeId>, seed: u64) -> SingleDecayRound {
        SingleDecayRound {
            steps: DecaySteps::new(depth),
            participants,
            received: vec![false; n],
            rng: rng::rng_from_seed(seed),
            scratch: Vec::new(),
        }
    }

    /// Whether `node` received the message during the round.
    pub fn has_received(&self, node: NodeId) -> bool {
        self.received[node as usize]
    }

    /// Number of steps the round takes.
    pub fn round_len(&self) -> u32 {
        self.steps.round_len()
    }
}

impl Protocol for SingleDecayRound {
    type Msg = u64;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<u64>) {
        if round >= self.steps.round_len() as u64 {
            return;
        }
        let p = self.steps.probability(round);
        self.scratch.clear();
        bernoulli_indices(&mut self.rng, self.participants.len(), p, &mut self.scratch);
        for &idx in &self.scratch {
            tx.send(self.participants[idx], 1);
        }
    }

    fn deliver(&mut self, _round: Round, node: NodeId, _from: NodeId, _msg: &u64) {
        self.received[node as usize] = true;
    }

    fn done(&self, round: Round) -> bool {
        round >= self.steps.round_len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;
    use rn_sim::{CollisionModel, Simulator};

    #[test]
    fn probabilities_halve_and_wrap() {
        let d = DecaySteps::new(4);
        assert_eq!(d.probability(0), 0.5);
        assert_eq!(d.probability(1), 0.25);
        assert_eq!(d.probability(3), 0.0625);
        assert_eq!(d.probability(4), 0.5, "wraps");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_depth_rejected() {
        let _ = DecaySteps::new(0);
    }

    #[test]
    fn single_participant_always_succeeds_eventually() {
        // One leaf transmitting alone: the hub must receive within the round
        // with probability 1 - prod(1 - 2^-i) ≈ high; check over seeds that
        // the empirical rate is well above the Lemma 3.1 constant.
        let g = generators::star(2); // hub 0, leaf 1
        let mut successes = 0;
        let trials = 200;
        for seed in 0..trials {
            let mut p = SingleDecayRound::new(2, 8, vec![1], seed);
            let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, seed);
            sim.run(&mut p, 64);
            if p.has_received(0) {
                successes += 1;
            }
        }
        let rate = successes as f64 / trials as f64;
        assert!(rate > 0.6, "single-participant success rate {rate}");
    }

    #[test]
    fn many_participants_still_succeed_constant_fraction() {
        // Lemma 3.1 with k = 64 participating leaves: success probability per
        // decay round is a constant bounded away from zero.
        let k = 64;
        let g = generators::star(k + 1);
        let participants: Vec<NodeId> = (1..=k as NodeId).collect();
        let mut successes = 0;
        let trials = 300;
        for seed in 0..trials {
            let mut p = SingleDecayRound::new(k + 1, 10, participants.clone(), seed);
            let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, seed);
            sim.run(&mut p, 64);
            if p.has_received(0) {
                successes += 1;
            }
        }
        let rate = successes as f64 / trials as f64;
        assert!(rate > 0.25, "k=64 success rate {rate} too low for Lemma 3.1");
    }

    #[test]
    fn done_after_one_round() {
        let g = generators::star(3);
        let mut p = SingleDecayRound::new(3, 5, vec![1, 2], 9);
        let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 9);
        let stats = sim.run(&mut p, 1000);
        assert_eq!(stats.rounds, 5, "stops after exactly one decay round");
    }
}
