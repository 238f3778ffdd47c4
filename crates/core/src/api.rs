use crate::params::CompeteParams;
use crate::precompute::{PrecomputeScratch, Precomputed};
use crate::protocol::{CompeteMsg, CompeteProtocol, CompeteState};
use rand::Rng;
use rn_graph::{Graph, NodeId};
use rn_sim::{
    rng, CollisionModel, FaultPlan, Metrics, NetParams, RunOutcome, SimScratch, TrialCtx,
    TrialPool, TxBuf,
};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors from the top-level Compete entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompeteError {
    /// The graph is not connected; global propagation is impossible.
    Disconnected,
    /// No sources were provided.
    NoSources,
    /// A source node id is out of range.
    SourceOutOfRange {
        /// The offending node id.
        node: NodeId,
    },
}

impl fmt::Display for CompeteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompeteError::Disconnected => write!(f, "graph is not connected"),
            CompeteError::NoSources => write!(f, "source set is empty"),
            CompeteError::SourceOutOfRange { node } => {
                write!(f, "source node {node} out of range")
            }
        }
    }
}

impl Error for CompeteError {}

/// Outcome of one Compete (or broadcast / leader election) execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompeteReport {
    /// Whether every node learned the highest source message within budget.
    pub completed: bool,
    /// Rounds of the packet-level propagation phase actually executed.
    pub propagation_rounds: u64,
    /// Rounds charged by formula for the oracle precomputation (see
    /// [`Precomputed::charged_rounds`]).
    pub charged_precompute_rounds: u64,
    /// `propagation_rounds + charged_precompute_rounds`, saturating at
    /// `u64::MAX`.
    pub total_rounds: u64,
    /// Channel statistics of the propagation phase.
    pub metrics: Metrics,
    /// The highest source message (what had to be spread).
    pub target: u64,
    /// Number of nodes knowing the target at the end.
    pub nodes_knowing: usize,
    /// The master seed used (for exact reproduction).
    pub seed: u64,
}

/// Outcome of a leader-election execution (Algorithm 6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeaderElectionReport {
    /// The underlying Compete execution.
    pub compete: CompeteReport,
    /// Number of candidates that self-selected.
    pub num_candidates: usize,
    /// The elected leader (node whose ID won), if election completed cleanly.
    pub leader: Option<NodeId>,
    /// Whether exactly one node holds the winning ID (whp true; collisions
    /// in the ID space are detected and reported here).
    pub unique_winner: bool,
}

fn validate_sources(g: &Graph, sources: &[(NodeId, u64)]) -> Result<(), CompeteError> {
    if sources.is_empty() {
        return Err(CompeteError::NoSources);
    }
    for &(s, _) in sources {
        if s as usize >= g.n() {
            return Err(CompeteError::SourceOutOfRange { node: s });
        }
    }
    Ok(())
}

/// Cross-trial Compete state, kept in a [`TrialPool`]'s scenario slot: the
/// precompute and its rebuild scratch, the protocol state, the transmission
/// buffer, the leader-election candidate list, the source-placement
/// buffers, and a connectivity-check memo. After the first trial on a given
/// graph, further trials allocate nothing on the heap.
#[derive(Debug, Default)]
pub(crate) struct CompetePool {
    pre: Option<Precomputed>,
    pre_scratch: PrecomputeScratch,
    state: CompeteState,
    tx: TxBuf<CompeteMsg>,
    candidates: Vec<(NodeId, u64)>,
    /// Source-placement scratch for placed-source Compete trials: the raw
    /// Floyd sample, the placed node ids, and the `(node, value)` list
    /// handed to the protocol — reused so steady-state placement is
    /// allocation-free.
    pub(crate) place_idx: Vec<usize>,
    pub(crate) source_ids: Vec<NodeId>,
    pub(crate) sources: Vec<(NodeId, u64)>,
    /// [`Graph::instance_id`] of the last graph whose connectivity check
    /// passed; a match skips the allocating BFS.
    connected: Option<u64>,
}

impl CompetePool {
    fn check_connected(&mut self, g: &Graph) -> Result<(), CompeteError> {
        if self.connected != Some(g.instance_id()) {
            if !g.is_connected() {
                return Err(CompeteError::Disconnected);
            }
            self.connected = Some(g.instance_id());
        }
        Ok(())
    }
}

/// The validated execution core: callers must have validated `sources` and
/// checked connectivity. `seed` is the Compete seed, which leader election
/// re-derives when its candidate draw comes up empty.
fn run_compete(
    ctx: &TrialCtx<'_>,
    seed: u64,
    sources: &[(NodeId, u64)],
    params: &CompeteParams,
    engine: &mut SimScratch,
    pool: &mut CompetePool,
) -> CompeteReport {
    let (g, net) = (ctx.graph(), ctx.net());
    let pre = pool.pre.get_or_insert_with(Precomputed::shell);
    pre.rebuild(g, net, params, rng::derive(seed, 0x9DE), &mut pool.pre_scratch);
    let mut proto =
        CompeteProtocol::reuse(pre, *params, sources, rng::derive(seed, 0x9D0), &mut pool.state);
    let mut sim = ctx.simulator(engine);
    let budget = params.max_rounds(&net);
    // Worst case: every node transmits in one round. Reserving it up front
    // keeps the buffer's capacity from chasing a seed-dependent per-round
    // maximum (which would allocate mid-trial on the unluckiest trial).
    // Clear first — the buffer still holds the previous trial's final round,
    // and `reserve` counts beyond the current length.
    pool.tx.clear();
    pool.tx.reserve(g.n());
    let stats = sim.run_with_buf(&mut proto, &mut pool.tx, budget);
    debug_assert!(matches!(stats.outcome, RunOutcome::ProtocolDone | RunOutcome::BudgetExhausted));
    CompeteReport {
        completed: proto.all_know_target(),
        propagation_rounds: stats.rounds,
        charged_precompute_rounds: pre.charged_rounds,
        total_rounds: stats.rounds.saturating_add(pre.charged_rounds),
        metrics: stats.metrics,
        target: proto.target(),
        nodes_knowing: proto.num_knowing(),
        seed,
    }
}

/// Runs **Compete(S)** (Algorithm 1 + 2) as one trial in `ctx` — explicit
/// network knowledge, collision model, seed and fault schedule — with its
/// state drawn from `pool`. The collision model is an ablation axis: the
/// algorithm is designed for (and analyzed in) the no-collision-detection
/// model, and under [`CollisionModel::CollisionDetection`] it ignores
/// collision notifications while delivery semantics stay identical.
///
/// A throwaway `TrialPool::new()` gives a one-off run; a reused pool gives
/// the same report and, after its first trial on a graph, allocates
/// nothing (except cloning the fault schedule when the context has one).
///
/// # Errors
///
/// [`CompeteError`] on empty/invalid sources or a disconnected graph.
pub fn compete_trial(
    ctx: &TrialCtx<'_>,
    sources: &[(NodeId, u64)],
    params: &CompeteParams,
    pool: &mut TrialPool,
) -> Result<CompeteReport, CompeteError> {
    validate_sources(ctx.graph(), sources)?;
    let (engine, cp) = pool.parts(CompetePool::default);
    cp.check_connected(ctx.graph())?;
    Ok(run_compete(ctx, ctx.seed(), sources, params, engine, cp))
}

/// Runs **leader election** (Algorithm 6) as one trial in `ctx`: nodes
/// self-select as candidates with probability `Θ(log n / n)`, draw random
/// IDs, and Compete on the IDs (see [`compete_trial`] for the context and
/// pool contract).
///
/// # Errors
///
/// [`CompeteError::Disconnected`] on a disconnected graph.
pub fn leader_election_trial(
    ctx: &TrialCtx<'_>,
    params: &CompeteParams,
    pool: &mut TrialPool,
) -> Result<LeaderElectionReport, CompeteError> {
    let (engine, cp) = pool.parts(CompetePool::default);
    let g = ctx.graph();
    cp.check_connected(g)?;
    // Step 1: candidates with probability Θ(log n / n); the constant 2 keeps
    // P[no candidate] ≤ n^-2 while |C| = O(log n) whp.
    let p_cand = (2.0 * ctx.net().log2_n() as f64 / g.n() as f64).min(1.0);
    let mut seed = ctx.seed();
    loop {
        let mut crng = rng::stream_rng(seed, 0xCA4D);
        cp.candidates.clear();
        for v in g.nodes() {
            if crng.gen::<f64>() < p_cand {
                // Step 2: random Θ(log n)-bit IDs (node id in the low bits
                // only as a deterministic tiebreaker against measure-zero
                // collisions).
                let id: u64 = crng.gen::<u64>() & !0xFFFF_FFFFu64 | v as u64;
                cp.candidates.push((v, id));
            }
        }
        if !cp.candidates.is_empty() {
            break;
        }
        // Degenerate (probability ≤ n^-2): retry with the next seed stream,
        // exactly as restarting the algorithm would.
        seed = rng::derive(seed, 0x9999);
    }
    let candidates = std::mem::take(&mut cp.candidates);
    let report = run_compete(ctx, seed, &candidates, params, engine, cp);
    let mut winners = candidates.iter().filter(|&&(_, id)| id == report.target);
    let leader = winners.next().map(|&(v, _)| v);
    let unique_winner = leader.is_some() && winners.next().is_none();
    let num_candidates = candidates.len();
    cp.candidates = candidates; // hand the buffer back for the next trial
    Ok(LeaderElectionReport { compete: report, num_candidates, leader, unique_winner })
}

/// A one-off fault-free `nocd` context on `g`, with `n` and the
/// double-sweep diameter as network knowledge. The sweep needs a connected
/// graph, so connectivity is checked first — memoized in `pool`, so the
/// trial entry does not repeat the BFS.
fn swept_ctx<'g>(
    g: &'g Graph,
    seed: u64,
    pool: &mut TrialPool,
) -> Result<TrialCtx<'g>, CompeteError> {
    pool.parts(CompetePool::default).1.check_connected(g)?;
    let net = NetParams::new(g.n(), g.diameter_double_sweep());
    Ok(TrialCtx::new(g, net, CollisionModel::NoCollisionDetection, seed, &FaultPlan::none()))
}

/// Runs **Compete(S)** (Algorithm 1 + 2): spreads the highest source message
/// to every node. Network parameters are derived from the graph with the
/// double-sweep diameter estimate; use [`compete_trial`] to supply exact
/// values, another collision model or faults.
///
/// # Errors
///
/// [`CompeteError`] on empty/invalid sources or a disconnected graph.
pub fn compete(
    g: &Graph,
    sources: &[(NodeId, u64)],
    params: &CompeteParams,
    seed: u64,
) -> Result<CompeteReport, CompeteError> {
    validate_sources(g, sources)?;
    let mut pool = TrialPool::new();
    let ctx = swept_ctx(g, seed, &mut pool)?;
    compete_trial(&ctx, sources, params, &mut pool)
}

/// Runs **broadcasting** (Theorem 5.1): `Compete({source})`.
///
/// # Errors
///
/// [`CompeteError`] on an invalid source or a disconnected graph.
pub fn broadcast(
    g: &Graph,
    source: NodeId,
    params: &CompeteParams,
    seed: u64,
) -> Result<CompeteReport, CompeteError> {
    compete(g, &[(source, 1)], params, seed)
}

/// Runs **leader election** (Algorithm 6) with network parameters derived
/// as in [`compete`]; use [`leader_election_trial`] for full control.
///
/// # Errors
///
/// [`CompeteError::Disconnected`] on a disconnected graph.
pub fn leader_election(
    g: &Graph,
    params: &CompeteParams,
    seed: u64,
) -> Result<LeaderElectionReport, CompeteError> {
    let mut pool = TrialPool::new();
    let ctx = swept_ctx(g, seed, &mut pool)?;
    leader_election_trial(&ctx, params, &mut pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::generators;

    #[test]
    fn a_reused_pool_rechecks_a_graph_reassigned_in_place() {
        // Regression: the connectivity memo was keyed on the graph's address
        // plus (n, m), so a binding reassigned in place to a different graph
        // of the same shape inherited the old graph's verdict — a path(6)
        // followed by a 5-cycle plus an isolated node (6 nodes, 5 edges
        // each) ran Compete on the disconnected graph and reported
        // `completed: false` instead of an error.
        let (params, net) = (CompeteParams::default(), NetParams::new(6, 5));
        let model = CollisionModel::NoCollisionDetection;
        let mut pool = TrialPool::new();
        let mut g = generators::path(6);
        {
            let ctx = TrialCtx::new(&g, net, model, 1, &FaultPlan::none());
            let r = compete_trial(&ctx, &[(0, 1)], &params, &mut pool).expect("connected");
            assert!(r.completed);
        }
        g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).expect("builds");
        let ctx = TrialCtx::new(&g, net, model, 1, &FaultPlan::none());
        assert_eq!(
            compete_trial(&ctx, &[(0, 1)], &params, &mut pool),
            Err(CompeteError::Disconnected)
        );
        assert_eq!(
            leader_election_trial(&ctx, &params, &mut pool),
            Err(CompeteError::Disconnected)
        );
    }
}
