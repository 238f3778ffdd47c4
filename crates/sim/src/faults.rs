//! Fault injection: declarative fault plans (adversarial jammers, per-round
//! node dropout, crash-stop failures) that any protocol can be run under
//! without protocol-side code.
//!
//! A [`FaultPlan`] is pure data — *how many* jammers, with what noise
//! probability, what per-round dropout probability, and what per-round
//! crash-stop probability — with a stable string form (`jam(3,0.5)`,
//! `drop(0.1)`, `crash(0.01)`, `jam(3,0.5)!drop(0.1)!crash(0.01)`, `none`;
//! `Display` and `FromStr` round-trip), so fault configurations travel
//! through scenario strings, campaign definitions and JSON results exactly
//! like topologies and protocols do.
//!
//! Resolving a plan against a concrete graph size and seed yields a
//! [`FaultSchedule`]: concrete jammer node ids plus a *stateless* source of
//! per-`(round, node)` fault coins (SplitMix64-hashed, so querying a coin is
//! `O(1)`, order-independent, and perfectly reproducible). The
//! [`crate::Simulator`] engine applies the schedule at the channel level —
//! dropped nodes neither transmit nor receive that round, jammers never
//! perform protocol actions and instead emit noise with their firing
//! probability (noise collides with real traffic; a *uniquely* heard noise
//! burst is garbage and delivers nothing).
//!
//! The engine receives its schedule **explicitly**, at construction via
//! [`crate::Simulator::with_faults`] / [`crate::Simulator::reuse`], and keeps
//! it fixed for the simulator's life. Trials resolve their plan once, in
//! [`crate::TrialCtx::new`], and scenario implementations
//! build every simulator through [`crate::TrialCtx::simulator`], so the
//! campaign executor can run trials from any worker thread without ambient
//! (thread-local) state. `FaultSchedule` is plain data — `Send + Sync` —
//! and cheap to clone.
//!
//! Fault semantics in detail:
//!
//! * **Jammers** are adversarial nodes. They never execute the
//!   protocol's actions; each round, each jammer independently transmits
//!   noise with probability `P`. Noise collides with real transmissions like
//!   any other packet; a listener whose only transmitting neighbor is a
//!   noise burst hears garbage (no delivery, no collision notification).
//!   Jammers are exempt from dropout — the adversary is reliable.
//! * **Dropout** is transient: each round, each non-jammer node is
//!   independently *down* with probability `P` (the unreliable-node regime
//!   of the dual-graph literature). A down node's transmission is
//!   suppressed and it hears nothing that round.
//! * **Crash-stop** is permanent: each round, each still-alive non-jammer
//!   node independently *crashes* with probability `P` and stays down for
//!   the rest of the trial (the fail-stop regime). Equivalently, each
//!   node's crash round is an independent geometric draw — which is exactly
//!   how the schedule evaluates it, from a single stateless per-node coin,
//!   so crash queries stay `O(1)` and order-independent like the other
//!   fault coins.

use crate::rng;
use rn_graph::NodeId;
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Declarative fault configuration: jammer count + firing probability, a
/// per-round dropout probability and a per-round crash-stop probability.
/// Construct via [`FaultPlan::none`], [`FaultPlan::jam`],
/// [`FaultPlan::drop`], [`FaultPlan::crash`] or [`FaultPlan::try_new`];
/// fields are validated invariants, not raw data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    jammers: usize,
    jam_prob: f64,
    drop_prob: f64,
    crash_prob: f64,
}

/// Error from validating or parsing a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    msg: String,
}

impl FaultError {
    fn new(msg: impl Into<String>) -> FaultError {
        FaultError { msg: msg.into() }
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.msg)
    }
}

impl Error for FaultError {}

impl FaultPlan {
    /// The string forms accepted by [`FromStr`], for help text.
    pub const GRAMMAR: &'static [&'static str] = &["jam(K,P)", "drop(P)", "crash(P)", "none"];

    /// The fault-free plan (the default everywhere).
    pub fn none() -> FaultPlan {
        FaultPlan { jammers: 0, jam_prob: 0.0, drop_prob: 0.0, crash_prob: 0.0 }
    }

    /// Validating constructor.
    ///
    /// # Errors
    ///
    /// [`FaultError`] if a probability is outside `[0, 1]` (or NaN). A plan
    /// with zero jammers normalizes its jam probability to 0, so plans are
    /// canonical by construction.
    pub fn try_new(
        jammers: usize,
        jam_prob: f64,
        drop_prob: f64,
        crash_prob: f64,
    ) -> Result<FaultPlan, FaultError> {
        if !(0.0..=1.0).contains(&jam_prob) {
            return Err(FaultError::new(format!("jam probability {jam_prob} not in [0, 1]")));
        }
        if !(0.0..=1.0).contains(&drop_prob) {
            return Err(FaultError::new(format!("drop probability {drop_prob} not in [0, 1]")));
        }
        if !(0.0..=1.0).contains(&crash_prob) {
            return Err(FaultError::new(format!("crash probability {crash_prob} not in [0, 1]")));
        }
        let jam_prob = if jammers == 0 { 0.0 } else { jam_prob };
        Ok(FaultPlan { jammers, jam_prob, drop_prob, crash_prob })
    }

    /// `count` jammers, each firing noise with probability `prob` per round.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]`.
    pub fn jam(count: usize, prob: f64) -> FaultPlan {
        FaultPlan::try_new(count, prob, 0.0, 0.0).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Per-round node dropout with probability `prob`.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]`.
    pub fn drop(prob: f64) -> FaultPlan {
        FaultPlan::try_new(0, 0.0, prob, 0.0).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Crash-stop failures: each round, each alive non-jammer node crashes
    /// with probability `prob` and stays down for the rest of the trial.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]`.
    pub fn crash(prob: f64) -> FaultPlan {
        FaultPlan::try_new(0, 0.0, 0.0, prob).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Whether this plan injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.jammers == 0 && self.drop_prob == 0.0 && self.crash_prob == 0.0
    }

    /// Number of jammer nodes.
    pub fn jammers(&self) -> usize {
        self.jammers
    }

    /// Per-round noise probability of each jammer.
    pub fn jam_prob(&self) -> f64 {
        self.jam_prob
    }

    /// Per-round per-node dropout probability.
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// Per-round per-node crash-stop probability.
    pub fn crash_prob(&self) -> f64 {
        self.crash_prob
    }

    /// Resolves the plan against an `n`-node graph: samples the distinct
    /// jammer ids from `seed` and packages the coin source. Placement is
    /// part of trial randomness — derive `seed` from the trial seed.
    ///
    /// # Panics
    ///
    /// Panics if the plan wants more jammers than the graph has nodes
    /// (callers going through the scenario-spec grammar are rejected at
    /// parse time instead).
    pub fn resolve(&self, n: usize, seed: u64) -> FaultSchedule {
        assert!(
            self.jammers <= n,
            "fault plan wants {} jammers but the graph has only {n} nodes",
            self.jammers
        );
        let mut r = rng::stream_rng(seed, 0x7A44);
        let ids = rng::sample_distinct(&mut r, self.jammers, n)
            .into_iter()
            .map(|v| v as NodeId)
            .collect();
        FaultSchedule::new(n, ids, self.jam_prob, self.drop_prob, self.crash_prob, seed)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "none");
        }
        let mut sep = "";
        if self.jammers > 0 {
            write!(f, "jam({},{})", self.jammers, self.jam_prob)?;
            sep = "!";
        }
        if self.drop_prob > 0.0 {
            write!(f, "{sep}drop({})", self.drop_prob)?;
            sep = "!";
        }
        if self.crash_prob > 0.0 {
            write!(f, "{sep}crash({})", self.crash_prob)?;
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = FaultError;

    fn from_str(s: &str) -> Result<FaultPlan, FaultError> {
        let s = s.trim();
        if s == "none" {
            return Ok(FaultPlan::none());
        }
        if s.is_empty() {
            return Err(FaultError::new("empty fault spec"));
        }
        let mut jam: Option<(usize, f64)> = None;
        let mut dropout: Option<f64> = None;
        let mut crash: Option<f64> = None;
        for item in s.split('!') {
            let item = item.trim();
            let open = item
                .find('(')
                .ok_or_else(|| FaultError::new(format!("{item:?} has no parameter list")))?;
            if !item.ends_with(')') {
                return Err(FaultError::new(format!("{item:?} is missing a closing parenthesis")));
            }
            let name = &item[..open];
            let args: Vec<&str> =
                item[open + 1..item.len() - 1].split(',').map(str::trim).collect();
            match name {
                "jam" => {
                    if jam.is_some() {
                        return Err(FaultError::new("duplicate jam(...) clause"));
                    }
                    if args.len() != 2 {
                        return Err(FaultError::new(format!(
                            "jam takes 2 arguments (count, probability), got {}",
                            args.len()
                        )));
                    }
                    let k: usize = args[0].parse().map_err(|_| {
                        FaultError::new(format!("jam: {:?} is not an integer", args[0]))
                    })?;
                    if k == 0 {
                        return Err(FaultError::new("jam needs at least one jammer"));
                    }
                    jam = Some((k, parse_prob("jam", args[1])?));
                }
                "drop" => {
                    if dropout.is_some() {
                        return Err(FaultError::new("duplicate drop(...) clause"));
                    }
                    if args.len() != 1 {
                        return Err(FaultError::new(format!(
                            "drop takes 1 argument (probability), got {}",
                            args.len()
                        )));
                    }
                    dropout = Some(parse_prob("drop", args[0])?);
                }
                "crash" => {
                    if crash.is_some() {
                        return Err(FaultError::new("duplicate crash(...) clause"));
                    }
                    if args.len() != 1 {
                        return Err(FaultError::new(format!(
                            "crash takes 1 argument (probability), got {}",
                            args.len()
                        )));
                    }
                    crash = Some(parse_prob("crash", args[0])?);
                }
                other => {
                    return Err(FaultError::new(format!(
                        "unknown fault {other:?} (known: {})",
                        FaultPlan::GRAMMAR.join(" | ")
                    )))
                }
            }
        }
        let (jammers, jam_prob) = jam.unwrap_or((0, 0.0));
        FaultPlan::try_new(jammers, jam_prob, dropout.unwrap_or(0.0), crash.unwrap_or(0.0))
    }
}

fn parse_prob(what: &str, s: &str) -> Result<f64, FaultError> {
    let p: f64 =
        s.parse().map_err(|_| FaultError::new(format!("{what}: {s:?} is not a number")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultError::new(format!("{what}: probability {s} not in [0, 1]")));
    }
    Ok(p)
}

/// A [`FaultPlan`] resolved against a concrete graph: explicit jammer ids
/// plus a stateless per-`(round, node)` coin source. Cheap to clone (one
/// small id list, one `n`-bit membership table).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    n: usize,
    jammer_ids: Vec<NodeId>,
    is_jammer: Vec<bool>,
    jam_prob: f64,
    drop_prob: f64,
    crash_prob: f64,
    /// Per-node crash round (empty when `crash_prob == 0`), precomputed at
    /// construction so the per-(round, node) hot path never pays the
    /// geometric-quantile `ln()` math.
    crash_round: Vec<u64>,
    /// `derive(seed, STREAM_JAM)` and `derive(seed, STREAM_DROP)`: the
    /// first link of every coin's derive chain, taken once at construction.
    jam_stream: u64,
    drop_stream: u64,
}

/// Coin streams must not collide: jam, drop and crash decisions for the
/// same `(round, node)` are independent draws.
const STREAM_JAM: u64 = 0x4A40;
const STREAM_DROP: u64 = 0xD209;
const STREAM_CRASH: u64 = 0xC2A5;

/// A uniform coin in `[0, 1)` from the 53 high bits of a derived word.
#[inline]
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A [`FaultSchedule`]'s coins for one round.
///
/// A coin for `(stream, round, node)` is
/// `derive(derive(derive(seed, stream), round), node)`. The schedule keeps
/// the first link per stream; the view takes the second once per round, so
/// each coin the engine asks for in the round costs one `derive`. Both
/// engine steps build one view per round; the schedule's own per-call
/// queries build one per call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultRound<'a> {
    schedule: &'a FaultSchedule,
    round: u64,
    /// `derive(jam_stream, round)`; unused when `jam_prob == 0`.
    jam_base: u64,
    /// `derive(drop_stream, round)`; unused when `drop_prob == 0`.
    drop_base: u64,
}

impl FaultRound<'_> {
    /// Whether jammer `node` fires noise this round.
    #[inline]
    pub(crate) fn jam_fires(&self, node: NodeId) -> bool {
        let s = self.schedule;
        s.jam_prob > 0.0 && unit(rng::derive(self.jam_base, node as u64)) < s.jam_prob
    }

    /// Whether `node` is down this round: dropped by its coin, or past its
    /// crash round. Jammers are never down.
    #[inline]
    pub(crate) fn is_down(&self, node: NodeId) -> bool {
        self.is_dropped(node) || self.round >= self.schedule.crash_round(node)
    }

    /// The transient-dropout component of [`FaultRound::is_down`].
    #[inline]
    fn is_dropped(&self, node: NodeId) -> bool {
        let s = self.schedule;
        !s.is_jammer[node as usize]
            && s.drop_prob > 0.0
            && unit(rng::derive(self.drop_base, node as u64)) < s.drop_prob
    }

    /// Whether a protocol transmission from `node` is suppressed this round:
    /// the node is a jammer or down.
    #[inline]
    pub(crate) fn suppresses_tx(&self, node: NodeId) -> bool {
        self.schedule.is_jammer[node as usize] || self.is_down(node)
    }
}

impl FaultSchedule {
    /// Builds a schedule over an `n`-node graph with explicit `jammer_ids`.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if a probability is outside
    /// `[0, 1]`, a jammer id is `>= n`, or an id is listed twice.
    pub fn new(
        n: usize,
        jammer_ids: Vec<NodeId>,
        jam_prob: f64,
        drop_prob: f64,
        crash_prob: f64,
        seed: u64,
    ) -> FaultSchedule {
        assert!((0.0..=1.0).contains(&jam_prob), "jam probability {jam_prob} not in [0, 1]");
        assert!((0.0..=1.0).contains(&drop_prob), "drop probability {drop_prob} not in [0, 1]");
        assert!((0.0..=1.0).contains(&crash_prob), "crash probability {crash_prob} not in [0, 1]");
        let mut is_jammer = vec![false; n];
        for &j in &jammer_ids {
            assert!((j as usize) < n, "jammer id {j} out of range for a {n}-node graph");
            assert!(!is_jammer[j as usize], "jammer id {j} listed twice");
            is_jammer[j as usize] = true;
        }
        let mut schedule = FaultSchedule {
            n,
            jammer_ids,
            is_jammer,
            jam_prob,
            drop_prob,
            crash_prob,
            crash_round: Vec::new(),
            jam_stream: rng::derive(seed, STREAM_JAM),
            drop_stream: rng::derive(seed, STREAM_DROP),
        };
        // Crash rounds are per-node constants; precompute them once so the
        // per-(round, node) hot path stays a vector read rather than two
        // `ln()` calls.
        if crash_prob > 0.0 {
            let base = rng::derive(rng::derive(seed, STREAM_CRASH), 0);
            schedule.crash_round =
                (0..n).map(|v| schedule.sample_crash_round(base, v as NodeId)).collect();
        }
        schedule
    }

    /// The schedule's coins for `round` (see [`FaultRound`]).
    #[inline]
    pub(crate) fn round(&self, round: u64) -> FaultRound<'_> {
        let base = |prob: f64, stream: u64| if prob > 0.0 { rng::derive(stream, round) } else { 0 };
        FaultRound {
            schedule: self,
            round,
            jam_base: base(self.jam_prob, self.jam_stream),
            drop_base: base(self.drop_prob, self.drop_stream),
        }
    }

    /// Number of nodes the schedule was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The jammer node ids.
    pub fn jammer_ids(&self) -> &[NodeId] {
        &self.jammer_ids
    }

    /// Whether jammer `node` fires noise in `round`. Only meaningful for
    /// nodes in [`FaultSchedule::jammer_ids`].
    ///
    /// Coins are stateless — `derive(derive(derive(seed, stream), round),
    /// node)` — so they can be queried lazily in any order without
    /// perturbing each other (this is what keeps the engine's per-round cost
    /// proportional to activity, not to `n`).
    pub fn jam_fires(&self, round: u64, node: NodeId) -> bool {
        self.round(round).jam_fires(node)
    }

    /// The round in which `node` crash-stops (it is down from that round
    /// on), or `u64::MAX` if it never crashes under this schedule —
    /// precomputed at construction, so the query is a vector read.
    pub fn crash_round(&self, node: NodeId) -> u64 {
        if self.crash_round.is_empty() {
            return u64::MAX;
        }
        self.crash_round[node as usize]
    }

    /// The geometric crash-round draw for `node`: the quantile of one
    /// stateless per-node coin — exactly the distribution of "crash each
    /// round with probability `P`". Called once per node at construction,
    /// with `base = derive(derive(seed, STREAM_CRASH), 0)`.
    fn sample_crash_round(&self, base: u64, node: NodeId) -> u64 {
        if self.crash_prob <= 0.0 || self.is_jammer[node as usize] {
            return u64::MAX;
        }
        if self.crash_prob >= 1.0 {
            return 0;
        }
        let u = unit(rng::derive(base, node as u64));
        let t = ((1.0 - u).ln() / (1.0 - self.crash_prob).ln()).floor();
        if t.is_finite() && t < u64::MAX as f64 {
            t as u64
        } else {
            u64::MAX
        }
    }

    /// Whether `node` is down (neither transmits nor receives) in `round` —
    /// transiently via dropout, or permanently once its crash round has
    /// passed. Jammers are exempt: the adversary is reliable.
    pub fn is_down(&self, round: u64, node: NodeId) -> bool {
        self.round(round).is_down(node)
    }

    /// Whether a protocol transmission from `node` in `round` is suppressed
    /// (the node is a jammer — which never executes protocol actions — or
    /// down this round).
    pub fn suppresses_tx(&self, round: u64, node: NodeId) -> bool {
        self.round(round).suppresses_tx(node)
    }
}

// The executor runs trials from arbitrary worker threads and hands the
// schedule around by reference; this fails to compile if `FaultSchedule`
// ever stops being freely shareable.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FaultSchedule>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A coin as the schedule defines it, one full derive chain per call:
    /// the oracle the per-round view must replay.
    fn coin(seed: u64, stream: u64, round: u64, node: NodeId) -> f64 {
        unit(rng::derive(rng::derive(rng::derive(seed, stream), round), node as u64))
    }

    /// `(is_down, suppresses_tx, jam_fires)` of `node` in `round` from the
    /// triple-derive coins alone, crash rounds included.
    fn oracle(
        s: &FaultSchedule,
        (seed, jam, drop, crash): (u64, f64, f64, f64),
        round: u64,
        node: NodeId,
    ) -> (bool, bool, bool) {
        let jammer = s.jammer_ids().contains(&node);
        let crash_round = if crash <= 0.0 || jammer {
            u64::MAX
        } else if crash >= 1.0 {
            0
        } else {
            let t = ((1.0 - coin(seed, STREAM_CRASH, 0, node)).ln() / (1.0 - crash).ln()).floor();
            if t.is_finite() && t < u64::MAX as f64 {
                t as u64
            } else {
                u64::MAX
            }
        };
        let dropped = !jammer && drop > 0.0 && coin(seed, STREAM_DROP, round, node) < drop;
        let down = dropped || round >= crash_round;
        let fires = jam > 0.0 && coin(seed, STREAM_JAM, round, node) < jam;
        (down, jammer || down, fires)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn round_view_coins_replay_the_triple_derive_formula(
            n in 1usize..=40,
            jammers in 0usize..=4,
            probs in (0usize..5, 0usize..5, 0usize..5),
            seed in any::<u64>(),
            first in 0u64..1_000_000,
        ) {
            let levels = [0.0, 0.02, 0.3, 0.5, 1.0];
            let (jam, drop, crash) = (levels[probs.0], levels[probs.1], levels[probs.2] / 10.0);
            let jammers = jammers.min(n);
            let s = FaultPlan::try_new(jammers, jam, drop, crash).expect("valid plan").resolve(n, seed);
            let plan = (seed, if jammers == 0 { 0.0 } else { jam }, drop, crash);
            for round in first..first + 48 {
                let view = s.round(round);
                for v in 0..n as NodeId {
                    let want = oracle(&s, plan, round, v);
                    let got = (view.is_down(v), view.suppresses_tx(v), view.jam_fires(v));
                    prop_assert_eq!(got, want, "round {} node {}", round, v);
                    let public = (s.is_down(round, v), s.suppresses_tx(round, v), s.jam_fires(round, v));
                    prop_assert_eq!(public, want, "round {} node {}", round, v);
                }
            }
        }
    }

    #[test]
    fn plan_string_forms_round_trip() {
        for s in [
            "none",
            "jam(3,0.5)",
            "drop(0.1)",
            "crash(0.01)",
            "jam(3,0.5)!drop(0.1)",
            "jam(3,0.5)!drop(0.1)!crash(0.01)",
            "drop(0.1)!crash(0.5)",
            "jam(1,1)",
            "drop(1)",
            "crash(1)",
        ] {
            let plan: FaultPlan = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(plan.to_string(), s, "display(parse({s:?}))");
            let back: FaultPlan = plan.to_string().parse().expect("reparses");
            assert_eq!(back, plan);
        }
        // Clause order is free on input; display is canonical
        // (jam, then drop, then crash).
        let plan: FaultPlan = "drop(0.1)!jam(2,0.25)".parse().expect("parses");
        assert_eq!(plan.to_string(), "jam(2,0.25)!drop(0.1)");
        let plan: FaultPlan = "crash(0.2)!jam(2,0.25)".parse().expect("parses");
        assert_eq!(plan.to_string(), "jam(2,0.25)!crash(0.2)");
    }

    #[test]
    fn crash_is_permanent_and_monotone() {
        // Crash-stop: once a node goes down it never comes back. With no
        // dropout in the plan, is_down must be monotone in the round.
        let s = FaultSchedule::new(32, vec![], 0.0, 0.0, 0.05, 13);
        for v in 0..32u32 {
            let first = (0..400u64).find(|&r| s.is_down(r, v));
            assert_eq!(
                s.crash_round(v),
                first.unwrap_or(u64::MAX),
                "is_down flips exactly at the crash round"
            );
            if let Some(r0) = first {
                assert!((r0..r0 + 200).all(|r| s.is_down(r, v)), "node {v} stays down");
            }
        }
        // A 5% per-round hazard kills most of 32 nodes within 400 rounds.
        let crashed = (0..32u32).filter(|&v| s.is_down(400, v)).count();
        assert!(crashed > 16, "only {crashed}/32 crashed after 400 rounds");
        // Deterministic in the seed, sensitive to it.
        let again = FaultSchedule::new(32, vec![], 0.0, 0.0, 0.05, 13);
        assert_eq!(
            (0..32u32).map(|v| s.crash_round(v)).collect::<Vec<_>>(),
            (0..32u32).map(|v| again.crash_round(v)).collect::<Vec<_>>()
        );
        let other = FaultSchedule::new(32, vec![], 0.0, 0.0, 0.05, 14);
        assert_ne!(
            (0..32u32).map(|v| s.crash_round(v)).collect::<Vec<_>>(),
            (0..32u32).map(|v| other.crash_round(v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn crash_edge_probabilities_and_jammer_exemption() {
        // P = 1: everyone (except jammers) is down from round 0.
        let all = FaultSchedule::new(8, vec![3], 0.5, 0.0, 1.0, 5);
        for v in 0..8u32 {
            if v == 3 {
                assert_eq!(all.crash_round(v), u64::MAX, "jammers never crash");
                assert!(!all.is_down(50, v));
            } else {
                assert_eq!(all.crash_round(v), 0);
                assert!(all.is_down(0, v));
            }
        }
        // P = 0: nobody ever crashes.
        let none = FaultSchedule::new(8, vec![], 0.0, 0.0, 0.0, 5);
        assert!((0..8u32).all(|v| none.crash_round(v) == u64::MAX));
        // Tiny P: geometric crash rounds land far out (whp beyond any
        // realistic trial budget; deterministic for this seed).
        let rare = FaultSchedule::new(64, vec![], 0.0, 0.0, 1e-6, 5);
        assert!((0..64u32).all(|v| rare.crash_round(v) > 1000));
    }

    #[test]
    fn plan_parse_rejects_malformed_specs() {
        for bad in [
            "",
            "jam",
            "jam(3)",
            "jam(0,0.5)",
            "jam(3,1.5)",
            "jam(3,-0.1)",
            "jam(3,nan)",
            "jam(x,0.5)",
            "drop()",
            "drop(2)",
            "drop(0.1,0.2)",
            "crash()",
            "crash(2)",
            "crash(-0.1)",
            "crash(0.1,0.2)",
            "crash(0.1)!crash(0.2)",
            "jam(3,0.5)!jam(2,0.5)",
            "drop(0.1)!drop(0.2)",
            "flood(0.5)",
            "jam(3,0.5",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn plan_constructors_validate_probabilities() {
        assert!(FaultPlan::try_new(3, 1.1, 0.0, 0.0).is_err());
        assert!(FaultPlan::try_new(3, 0.5, -0.2, 0.0).is_err());
        assert!(FaultPlan::try_new(3, f64::NAN, 0.0, 0.0).is_err());
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::jam(1, 0.0).is_none(), "a silent jammer still occupies its node");
        // Zero jammers normalize the jam probability away.
        assert_eq!(FaultPlan::try_new(0, 0.9, 0.0, 0.0).expect("valid"), FaultPlan::none());
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn jam_constructor_panics_on_bad_probability() {
        FaultPlan::jam(2, 1.5);
    }

    #[test]
    fn resolve_places_distinct_in_range_jammers() {
        let plan = FaultPlan::jam(5, 0.5);
        let s = plan.resolve(12, 99);
        assert_eq!(s.jammer_ids().len(), 5);
        let mut ids: Vec<_> = s.jammer_ids().to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5, "distinct jammers");
        assert!(ids.iter().all(|&j| (j as usize) < 12));
        // Deterministic in the seed, sensitive to it.
        assert_eq!(plan.resolve(12, 99), s);
        assert_ne!(plan.resolve(12, 100).jammer_ids(), s.jammer_ids());
    }

    #[test]
    #[should_panic(expected = "only 3 nodes")]
    fn resolve_rejects_more_jammers_than_nodes() {
        FaultPlan::jam(4, 0.5).resolve(3, 1);
    }

    #[test]
    #[should_panic(expected = "jammer id 9 out of range")]
    fn schedule_rejects_out_of_range_jammer_ids() {
        FaultSchedule::new(4, vec![1, 9], 0.5, 0.0, 0.0, 7);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn schedule_rejects_duplicate_jammer_ids() {
        FaultSchedule::new(4, vec![1, 1], 0.5, 0.0, 0.0, 7);
    }

    #[test]
    fn coins_are_deterministic_and_respect_edge_probabilities() {
        let s = FaultSchedule::new(8, vec![0, 1], 1.0, 0.0, 0.0, 3);
        for round in 0..50 {
            assert!(s.jam_fires(round, 0), "probability 1 always fires");
            assert!(!s.is_down(round, 5), "drop probability 0 never drops");
        }
        let silent = FaultSchedule::new(8, vec![0], 0.0, 1.0, 0.0, 3);
        for round in 0..50 {
            assert!(!silent.jam_fires(round, 0), "probability 0 never fires");
            assert!(silent.is_down(round, 5), "drop probability 1 always drops");
            assert!(!silent.is_down(round, 0), "jammers are exempt from dropout");
        }
        // Intermediate probabilities are reproducible and round-sensitive.
        let s = FaultSchedule::new(8, vec![2], 0.5, 0.5, 0.0, 11);
        let fires: Vec<bool> = (0..64).map(|r| s.jam_fires(r, 2)).collect();
        assert_eq!(fires, (0..64).map(|r| s.jam_fires(r, 2)).collect::<Vec<_>>());
        assert!(fires.iter().any(|&b| b) && fires.iter().any(|&b| !b), "a fair coin varies");
    }

    #[test]
    fn is_down_decomposes_into_dropout_plus_crash() {
        // For every (round, node), is_down == is_dropped || round >=
        // crash_round: dropout is transient, a crash permanent.
        let s = FaultSchedule::new(24, vec![5, 11], 0.5, 0.3, 0.02, 21);
        for round in 0..200u64 {
            for v in 0..24u32 {
                assert_eq!(
                    s.is_down(round, v),
                    s.round(round).is_dropped(v) || round >= s.crash_round(v),
                    "round {round} node {v}"
                );
            }
        }
        // Jammers: neither component ever fires.
        assert!((0..200u64).all(|r| !s.round(r).is_dropped(5) && s.crash_round(5) == u64::MAX));
    }

    #[test]
    fn jam_and_drop_coins_are_independent_streams() {
        let s = FaultSchedule::new(64, (0..64).collect(), 0.5, 0.5, 0.0, 5);
        // If the streams collided, the jam and drop coins would agree
        // everywhere. (is_down exempts jammers, so compare the raw coins.)
        let agree = (0..64u64)
            .filter(|&r| {
                let c = s.round(r);
                let (jam, drop) = (rng::derive(c.jam_base, 7), rng::derive(c.drop_base, 7));
                (unit(jam) < 0.5) == (unit(drop) < 0.5)
            })
            .count();
        assert!(agree < 64, "streams must not be identical");
    }

    #[test]
    fn schedules_are_shareable_across_threads() {
        // The executor hands one schedule to many workers by reference; the
        // coins must read identically from any thread.
        let s = FaultSchedule::new(16, vec![3], 0.5, 0.5, 0.0, 11);
        let local: Vec<bool> = (0..64).map(|r| s.jam_fires(r, 3)).collect();
        let remote = std::thread::scope(|scope| {
            scope.spawn(|| (0..64).map(|r| s.jam_fires(r, 3)).collect::<Vec<bool>>()).join()
        })
        .expect("worker thread");
        assert_eq!(local, remote);
    }
}
