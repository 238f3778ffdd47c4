//! Traced run of one workload: per-layer numbers measured from outside the
//! program.
//!
//! 1. Each topology is built, swept for its diameter and given a
//!    `HybridAdjacency`, repeatedly, with a span around each call.
//! 2. The campaign runs untraced through `execute_with`, on one worker and
//!    on two; the one-worker cells are the reference statistics.
//! 3. Every trial of each replayable cell (`broadcast`, `leader_election`,
//!    `decay(K)`) is replayed at the reference run's seeds through the
//!    layers' public functions, with spans around `Precomputed::rebuild`
//!    and the simulated propagation. A `Protocol` wrapper times and counts
//!    the protocol callbacks. After each trial, every clustering of its
//!    precompute is replayed through `Partition::recompute[_within]` and
//!    `TreeSchedule::rebuild`, outside the trial's span.
//! 4. The replayed records, folded through `TrialAccumulator`, must equal
//!    the reference cells exactly; otherwise the run fails.
//!
//! The spans are written out at the end, and the per-layer metrics are
//! derived from them.

use perfbench::report::{self, PER_LAYER};
use perfbench::{
    check_run, digest, enough_reps, host, out_dir, run_campaign, topology_seeds, Args, Checks,
    TopologyFacts, USAGE,
};
use rand::Rng;
use rn_bench::{CellResult, CellSpec, TrialAccumulator};
use rn_cluster::{Partition, PartitionScratch};
use rn_core::{
    CompeteMsg, CompeteParams, CompeteProtocol, CompeteState, PrecomputeScratch, Precomputed,
};
use rn_decay::{CoinSampler, DecayBroadcast};
use rn_graph::{Graph, HybridAdjacency, NodeId, TopologySpec};
use rn_schedule::{SlotPolicy, TreeSchedule, TreeScheduleScratch};
use rn_sim::{
    rng, Metrics, NetParams, Protocol, Round, RoundView, SimScratch, Simulator, TrialRecord, TxBuf,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Totals a [`Traced`] wrapper collects over one propagation run.
#[derive(Debug, Default, Clone, Copy)]
struct Callbacks {
    transmit: Duration,
    round_end: Duration,
    /// The wrapper's own bookkeeping (the transmitter degree sum).
    probe: Duration,
    rounds: u64,
    /// Rounds whose transmitter degree sum reaches `n` (the engine's dense
    /// kernel trigger; exact on fault-free cells).
    dense_rounds: u64,
    edges_scanned: u64,
    deliver_calls: u64,
    collision_calls: u64,
}

/// A benchmark-side `Protocol` wrapper: times `transmit` and `round_end`,
/// counts every callback, and sums the transmitters' degrees.
struct Traced<'g, P> {
    inner: P,
    g: &'g Graph,
    cb: Callbacks,
}

impl<P: Protocol> Protocol for Traced<'_, P> {
    type Msg = P::Msg;

    fn transmit(&mut self, round: Round, tx: &mut TxBuf<P::Msg>) {
        let started = Instant::now();
        self.inner.transmit(round, tx);
        let returned = Instant::now();
        let degree_sum: usize = tx.entries().iter().map(|&(u, _)| self.g.degree(u)).sum();
        self.cb.rounds += 1;
        self.cb.edges_scanned += degree_sum as u64;
        self.cb.dense_rounds += u64::from(!tx.is_empty() && degree_sum >= self.g.n());
        self.cb.transmit += returned - started;
        self.cb.probe += returned.elapsed();
    }

    fn deliver(&mut self, round: Round, node: NodeId, from: NodeId, msg: &P::Msg) {
        self.cb.deliver_calls += 1;
        self.inner.deliver(round, node, from, msg);
    }

    fn collision(&mut self, round: Round, node: NodeId) {
        self.cb.collision_calls += 1;
        self.inner.collision(round, node);
    }

    fn round_end(&mut self, round: Round, view: &RoundView<'_>) {
        let started = Instant::now();
        self.inner.round_end(round, view);
        self.cb.round_end += started.elapsed();
    }

    fn done(&self, round: Round) -> bool {
        self.inner.done(round)
    }
}

/// What a span carries beyond its interval.
#[derive(Debug, Clone, Copy)]
enum Detail {
    None,
    Precompute { charged_rounds: u64 },
    Propagation { callbacks: Callbacks, metrics: Metrics },
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    /// Plan index of the cell, or the topology index for graph probes.
    cell: usize,
    /// Trial index, or the repetition for graph probes.
    trial: u64,
    detail: Detail,
}

impl Span {
    fn took(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Spans kept in memory until the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: usize,
        trial: u64,
    ) -> usize {
        let start = self.origin.elapsed();
        let span = Span { name, start, end: start, parent, cell, trial, detail: Detail::None };
        self.spans.push(span);
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize, detail: Detail) {
        self.spans[id].end = self.origin.elapsed();
        self.spans[id].detail = detail;
    }

    /// Runs `f` inside a span; returns its result and duration in ms.
    fn time<T>(
        &mut self,
        name: &'static str,
        cell: usize,
        trial: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, None, cell, trial);
        let out = f();
        self.close(id, Detail::None);
        (out, self.spans[id].took().as_secs_f64() * 1e3)
    }

    /// One JSON object per span.
    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"cell\":{},\"trial\":{}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.cell,
                s.trial
            );
            match s.detail {
                Detail::None => {}
                Detail::Precompute { charged_rounds } => {
                    let _ = write!(out, ",\"charged_rounds\":{charged_rounds}");
                }
                Detail::Propagation { callbacks: c, metrics: m } => {
                    let _ = write!(
                        out,
                        ",\"transmit_us\":{:.3},\"round_end_us\":{:.3},\"probe_us\":{:.3},\"rounds\":{},\
                         \"dense_rounds\":{},\"edges_scanned\":{},\"deliver_calls\":{},\"collision_calls\":{},\
                         \"deliveries\":{},\"collisions\":{},\"transmissions\":{}",
                        c.transmit.as_secs_f64() * 1e6,
                        c.round_end.as_secs_f64() * 1e6,
                        c.probe.as_secs_f64() * 1e6,
                        c.rounds,
                        c.dense_rounds,
                        c.edges_scanned,
                        c.deliver_calls,
                        c.collision_calls,
                        m.deliveries,
                        m.collisions,
                        m.transmissions
                    );
                }
            }
            out.push_str("}\n");
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }
}

/// A topology of the plan, built for the replay, with its probe medians.
struct Probe {
    graph: Graph,
    facts: TopologyFacts,
    build_ms: f64,
    diameter_ms: f64,
    hybrid_ms: f64,
}

fn probe_topology(t: &mut Tracer, ti: usize, spec: &TopologySpec, seed: u64) -> Probe {
    let (mut build, mut diameter, mut hybrid) = (Vec::new(), Vec::new(), Vec::new());
    let mut spent = Duration::ZERO;
    let mut rep = 0u64;
    loop {
        let started = Instant::now();
        let (g, b) = t.time("graph.build", ti, rep, || spec.build(seed));
        let (d, dm) = t.time("graph.diameter", ti, rep, || g.diameter_double_sweep());
        let (adj, h) = t.time("graph.hybrid", ti, rep, || HybridAdjacency::for_graph(&g));
        std::hint::black_box(adj.bitmap_rows());
        spent += started.elapsed();
        build.push(b);
        diameter.push(dm);
        hybrid.push(h);
        rep += 1;
        if enough_reps(build.len(), spent) {
            let facts = TopologyFacts { n: g.n(), m: g.m(), diameter: d };
            return Probe {
                graph: g,
                facts,
                build_ms: report::median(&mut build),
                diameter_ms: report::median(&mut diameter),
                hybrid_ms: report::median(&mut hybrid),
            };
        }
    }
}

/// The cell families the replay reproduces exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Broadcast,
    LeaderElection,
    Decay(usize),
}

fn replayable(protocol: &str) -> Option<Family> {
    match protocol {
        "broadcast" => Some(Family::Broadcast),
        "leader_election" => Some(Family::LeaderElection),
        _ => protocol
            .strip_prefix("decay(")
            .and_then(|rest| rest.strip_suffix(')'))
            .and_then(|k| k.parse().ok())
            .map(Family::Decay),
    }
}

/// Partition and tree-schedule scratch for replaying a precompute's
/// clusterings.
struct ClusterReplay {
    partition: Partition,
    partition_scratch: PartitionScratch,
    tree: TreeSchedule,
    tree_scratch: TreeScheduleScratch,
}

impl ClusterReplay {
    fn new() -> ClusterReplay {
        let g1 = Graph::from_edges(1, &[]).expect("one-node graph");
        let partition = Partition::compute(&g1, 1.0, &mut rng::rng_from_seed(0));
        let tree = TreeSchedule::build(&g1, &partition, SlotPolicy::Fixed(1));
        ClusterReplay {
            partition,
            partition_scratch: PartitionScratch::default(),
            tree,
            tree_scratch: TreeScheduleScratch::default(),
        }
    }

    /// Replays every clustering `pre` holds (seeded from `seed`, the
    /// precompute's own seed) and checks each against the original.
    fn run(
        &mut self,
        t: &mut Tracer,
        g: &Graph,
        pre: &Precomputed,
        seed: u64,
        cell: usize,
        trial: u64,
    ) -> Result<(), String> {
        let root = t.open("replay", None, cell, trial);
        let copies = pre.copies.max(1) as usize;
        // (stream, within coarse clusters, the original partition, its schedule)
        let mut work = vec![(1u64, false, &pre.coarse, &pre.coarse_sched)];
        for (i, f) in pre.fines.iter().enumerate() {
            work.push((
                1000 + (i / copies) as u64 * 512 + (i % copies) as u64,
                true,
                &f.partition,
                &f.schedule,
            ));
        }
        for (i, f) in pre.bg.iter().enumerate() {
            work.push((9000 + i as u64, false, &f.partition, &f.schedule));
        }
        for (stream, within, original, schedule) in work {
            let mut r = rng::stream_rng(seed, stream);
            let beta = original.beta();
            let span = t.open("cluster.partition", Some(root), cell, trial);
            if within {
                self.partition.recompute_within(
                    g,
                    beta,
                    &pre.coarse_idx,
                    &mut r,
                    &mut self.partition_scratch,
                );
            } else {
                self.partition.recompute(g, beta, &mut r, &mut self.partition_scratch);
            }
            t.close(span, Detail::None);
            let span = t.open("schedule.tree", Some(root), cell, trial);
            self.tree.rebuild(g, &self.partition, SlotPolicy::Auto, &mut self.tree_scratch);
            t.close(span, Detail::None);
            if self.partition.centers() != original.centers()
                || self.tree.window() != schedule.window()
                || self.tree.max_depth() != schedule.max_depth()
            {
                return Err(format!(
                    "replayed clustering (stream {stream}) differs from the precompute's"
                ));
            }
        }
        t.close(root, Detail::None);
        Ok(())
    }
}

/// Replay state carried across trials, as the executor's worker pool is.
struct Replayer {
    params: CompeteParams,
    engine: SimScratch,
    pre: Option<Precomputed>,
    pre_scratch: PrecomputeScratch,
    state: CompeteState,
    compete_tx: TxBuf<CompeteMsg>,
    sources: Vec<(NodeId, u64)>,
    decay: Option<DecayBroadcast>,
    decay_tx: TxBuf<u64>,
    clusters: ClusterReplay,
}

impl Replayer {
    fn new() -> Replayer {
        Replayer {
            params: CompeteParams::default(),
            engine: SimScratch::new(),
            pre: None,
            pre_scratch: PrecomputeScratch::default(),
            state: CompeteState::default(),
            compete_tx: TxBuf::new(),
            sources: Vec::new(),
            decay: None,
            decay_tx: TxBuf::new(),
            clusters: ClusterReplay::new(),
        }
    }

    /// Replays trial `trial` of `cell` (plan index `ci`) and returns its
    /// record.
    #[allow(clippy::too_many_arguments)]
    fn trial(
        &mut self,
        t: &mut Tracer,
        g: &Graph,
        net: NetParams,
        cell: &CellSpec,
        ci: usize,
        trial: u64,
        family: Family,
    ) -> Result<TrialRecord, String> {
        let seed = rng::derive(cell.cell_seed, trial);
        let root = t.open("trial", None, ci, trial);
        let faults =
            (!cell.faults.is_none()).then(|| cell.faults.resolve(g.n(), rng::derive(seed, 0xFA17)));
        if let Family::Decay(k) = family {
            let span = t.open("decay.propagation", Some(root), ci, trial);
            let n = g.n();
            let k = k.min(n);
            self.sources.clear();
            self.sources.extend((0..k).map(|i| (((i * n) / k) as NodeId, (i + 1) as u64)));
            let coins = CoinSampler::default();
            match &mut self.decay {
                Some(p) => p.reset(net, &self.sources, seed, coins),
                slot @ None => {
                    *slot = Some(DecayBroadcast::with_coin_sampler(net, &self.sources, seed, coins))
                }
            }
            let inner = self.decay.as_mut().expect("slot was just filled");
            let mut traced = Traced { inner, g, cb: Callbacks::default() };
            let mut sim = Simulator::reuse(&mut self.engine, g, cell.model, seed, faults);
            self.decay_tx.clear();
            self.decay_tx.reserve(n);
            let stats = sim.run_until_with_buf(
                &mut traced,
                &mut self.decay_tx,
                net.decay_broadcast_budget(),
                |_, p| p.inner.all_informed(),
            );
            let record = TrialRecord::new(traced.inner.all_informed(), stats.rounds, stats.metrics);
            t.close(span, Detail::Propagation { callbacks: traced.cb, metrics: stats.metrics });
            t.close(root, Detail::None);
            return Ok(record);
        }

        // Leader election draws its candidates and their ids first; an
        // empty draw moves on to the next seed stream.
        let mut run_seed = seed;
        self.sources.clear();
        if family == Family::LeaderElection {
            let p_cand = (2.0 * net.log2_n() as f64 / g.n() as f64).min(1.0);
            loop {
                let mut crng = rng::stream_rng(run_seed, 0xCA4D);
                for v in g.nodes() {
                    if crng.gen::<f64>() < p_cand {
                        let id: u64 = crng.gen::<u64>() & !0xFFFF_FFFFu64 | v as u64;
                        self.sources.push((v, id));
                    }
                }
                if !self.sources.is_empty() {
                    break;
                }
                run_seed = rng::derive(run_seed, 0x9999);
            }
        } else {
            self.sources.push((0, 1));
        }

        let pre_seed = rng::derive(run_seed, 0x9DE);
        let span = t.open("core.precompute", Some(root), ci, trial);
        match &mut self.pre {
            Some(pre) => pre.rebuild(g, net, &self.params, pre_seed, &mut self.pre_scratch),
            slot @ None => *slot = Some(Precomputed::build(g, net, &self.params, pre_seed)),
        }
        let pre = self.pre.as_ref().expect("slot was just filled");
        t.close(span, Detail::Precompute { charged_rounds: pre.charged_rounds });

        let span = t.open("core.propagation", Some(root), ci, trial);
        let proto = CompeteProtocol::reuse(
            pre,
            self.params,
            &self.sources,
            rng::derive(run_seed, 0x9D0),
            &mut self.state,
        );
        let mut traced = Traced { inner: proto, g, cb: Callbacks::default() };
        let mut sim = Simulator::reuse(&mut self.engine, g, cell.model, run_seed, faults);
        self.compete_tx.clear();
        self.compete_tx.reserve(g.n());
        let stats =
            sim.run_with_buf(&mut traced, &mut self.compete_tx, self.params.max_rounds(&net));
        let target = traced.inner.target();
        let mut completed = traced.inner.all_know_target();
        if family == Family::LeaderElection {
            completed &= self.sources.iter().filter(|&&(_, id)| id == target).count() == 1;
        }
        t.close(span, Detail::Propagation { callbacks: traced.cb, metrics: stats.metrics });
        t.close(root, Detail::None);
        let record = TrialRecord::new(completed, stats.rounds + pre.charged_rounds, stats.metrics);
        self.clusters.run(t, g, pre, pre_seed, ci, trial)?;
        Ok(record)
    }
}

/// Whether the replayed records fold to exactly the reference cell.
fn same_statistics(acc: &TrialAccumulator, cell: &CellResult) -> bool {
    acc.folded() == cell.trials
        && acc.completed() == cell.completed
        && acc.rounds_stats() == cell.rounds
        && acc.metrics_present() == cell.metrics_present
        && (!cell.metrics_present
            || (acc.deliveries_stats() == cell.deliveries
                && acc.collisions_stats() == cell.collisions
                && acc.transmissions_stats() == cell.transmissions))
}

/// Per-trial layer totals, derived from the spans.
#[derive(Debug, Default)]
struct TrialLayers {
    trial: Duration,
    precompute: Option<(Duration, u64)>,
    propagation: Option<(Duration, Callbacks, Metrics)>,
    decay: bool,
    partition: (Duration, u64),
    tree: (Duration, u64),
}

fn layers_by_trial(spans: &[Span]) -> BTreeMap<(usize, u64), TrialLayers> {
    let mut by_trial: BTreeMap<(usize, u64), TrialLayers> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.name.starts_with("graph.")) {
        let entry = by_trial.entry((s.cell, s.trial)).or_default();
        match (s.name, s.detail) {
            ("trial", _) => entry.trial = s.took(),
            ("core.precompute", Detail::Precompute { charged_rounds }) => {
                entry.precompute = Some((s.took(), charged_rounds))
            }
            (name, Detail::Propagation { callbacks, metrics }) => {
                entry.propagation = Some((s.took(), callbacks, metrics));
                entry.decay = name == "decay.propagation";
            }
            ("cluster.partition", _) => {
                entry.partition.0 += s.took();
                entry.partition.1 += 1;
            }
            ("schedule.tree", _) => {
                entry.tree.0 += s.took();
                entry.tree.1 += 1;
            }
            _ => {}
        }
    }
    by_trial
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median over `trials` of `f` (0 when there are none).
fn median_of<'a>(
    trials: impl Iterator<Item = &'a TrialLayers>,
    f: impl Fn(&TrialLayers) -> f64,
) -> f64 {
    let mut values: Vec<f64> = trials.map(f).collect();
    report::median(&mut values)
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    // The timed run's first quarter of trials: same cell seeds, same trial
    // seeds.
    let timed_trials = w.trials_per_cell(args.seconds, args.smoke);
    let trials = if args.smoke { timed_trials } else { (timed_trials / 4).max(20) };
    let campaign = w.campaign(trials);
    let plan = campaign.plan_cells(args.seed);
    println!(
        "traced workload {} ({}): {} cell(s) x {trials} trials, seed {}",
        w.name(),
        w.scenario().unwrap_or("mix sweep"),
        plan.len(),
        args.seed
    );
    let mut tracer = Tracer { origin: Instant::now(), spans: Vec::new() };

    let topologies = topology_seeds(&campaign, &plan);
    let probes: Vec<Probe> = topologies
        .iter()
        .enumerate()
        .map(|(ti, (spec, seed))| probe_topology(&mut tracer, ti, spec, *seed))
        .collect();
    let facts: Vec<TopologyFacts> = probes.iter().map(|p| p.facts).collect();

    let dir = out_dir().map_err(|e| e.to_string())?;
    let stem = format!("{}-seed{}-trace", w.name(), args.seed);
    let reference = |threads: usize| {
        let path = dir.join(format!("{stem}-{threads}w.json"));
        catch_unwind(AssertUnwindSafe(|| run_campaign(&campaign, args.seed, threads, &path)))
            .map_err(|_| "a trial panicked in the untraced run".to_string())?
            .map_err(|e| format!("results file {}: {e}", path.display()))
    };
    let one = reference(1)?;
    let two = reference(2)?;
    let mut checks = check_run(&plan, trials, &facts, &one);
    let mut checks_two = check_run(&plan, trials, &facts, &two);
    checks.failed_trials += checks_two.failed_trials;
    checks.problems.append(&mut checks_two.problems);
    if digest(&one.cells) != digest(&two.cells) {
        checks.fail(trials * plan.len() as u64, "two workers changed the cell statistics".into());
    }

    // Replay.
    let runq_before = host::thread_runq_wait_ns();
    let steal_before = host::steal_ticks();
    let mut replayer = Replayer::new();
    let mut replayed_cells = Vec::new();
    let mut attempted = 0u64;
    for (ci, cell) in plan.iter().enumerate() {
        let Some(family) = replayable(&cell.protocol.to_string()) else { continue };
        let probe = &probes[cell.topology_index];
        let net = NetParams::new(probe.graph.n(), probe.facts.diameter);
        let mut acc = TrialAccumulator::new(trials, false);
        attempted += trials;
        let replay = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
            for ti in 0..trials {
                let record =
                    replayer.trial(&mut tracer, &probe.graph, net, cell, ci, ti, family)?;
                acc.push(ti, record, None);
            }
            Ok(())
        }));
        let key = format!(
            "{}@{}/{}/{}",
            cell.protocol,
            cell.topology,
            rn_bench::model_name(cell.model),
            cell.faults
        );
        match replay {
            Ok(Ok(())) if same_statistics(&acc, &one.cells[ci]) => replayed_cells.push(ci),
            Ok(Ok(())) => checks
                .fail(trials, format!("{key}: replayed records differ from the untraced cell")),
            Ok(Err(e)) => checks.fail(trials, format!("{key}: {e}")),
            Err(_) => checks.fail(trials, format!("{key}: the replay panicked")),
        }
    }
    let runq_ms = runq_before
        .zip(host::thread_runq_wait_ns())
        .map_or(0.0, |(a, b)| b.saturating_sub(a) as f64 / 1e6);
    let steal_ms = steal_before
        .zip(host::steal_ticks())
        .map_or(0.0, |(a, b)| b.saturating_sub(a) as f64 * host::MS_PER_TICK);

    let spans_path = dir.join(format!("{stem}.spans.jsonl"));
    tracer.write_jsonl(&spans_path).map_err(|e| format!("{}: {e}", spans_path.display()))?;

    // Per-layer numbers from the spans, over the replayed cells' trials.
    let by_trial = layers_by_trial(&tracer.spans);
    let trials_of =
        || by_trial.iter().filter(|((c, _), _)| replayed_cells.contains(c)).map(|(_, l)| l);
    let compete = || trials_of().filter(|l| l.precompute.is_some());
    let decay = || trials_of().filter(|l| l.decay);
    let propagation = |l: &TrialLayers| l.propagation.expect("every replayed trial propagates");
    let engine = |l: &TrialLayers| {
        let (took, cb, _) = propagation(l);
        took.saturating_sub(cb.transmit + cb.round_end + cb.probe)
    };
    let (edges, engine_us, deliveries) = trials_of().fold((0u64, 0.0, 0u64), |(e, u, d), l| {
        let (_, cb, m) = propagation(l);
        (e + cb.edges_scanned, u + engine(l).as_secs_f64() * 1e6, d + m.deliveries)
    });
    let traced_ms: f64 = trials_of().map(|l| ms(l.trial)).sum();
    let untraced_ms: f64 =
        replayed_cells.iter().map(|&ci| one.cells[ci].elapsed_ms.unwrap_or(0) as f64).sum();
    let trial_sum_ms: f64 = one.cells.iter().map(|c| c.elapsed_ms.unwrap_or(0) as f64).sum();
    let sum = |f: fn(&Probe) -> f64| probes.iter().map(f).sum::<f64>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let values = [
        ("graph.build_ms", sum(|p| p.build_ms)),
        ("graph.diameter_ms", sum(|p| p.diameter_ms)),
        ("graph.hybrid_ms", sum(|p| p.hybrid_ms)),
        ("graph.edges", sum(|p| p.facts.m as f64)),
        ("cluster.partition_ms", median_of(compete(), |l| ms(l.partition.0))),
        ("cluster.partition_calls", median_of(compete(), |l| l.partition.1 as f64)),
        ("schedule.tree_ms", median_of(compete(), |l| ms(l.tree.0))),
        ("schedule.tree_calls", median_of(compete(), |l| l.tree.1 as f64)),
        ("core.precompute_ms", median_of(compete(), |l| l.precompute.map_or(0.0, |(d, _)| ms(d)))),
        ("core.propagation_ms", median_of(compete(), |l| ms(propagation(l).0))),
        ("core.transmit_ms", median_of(compete(), |l| ms(propagation(l).1.transmit))),
        ("core.sim_rounds", median_of(compete(), |l| propagation(l).1.rounds as f64)),
        (
            "core.charged_rounds",
            median_of(compete(), |l| l.precompute.map_or(0.0, |(_, c)| c as f64)),
        ),
        ("decay.transmit_ms", median_of(decay(), |l| ms(propagation(l).1.transmit))),
        ("sim.rounds", median_of(trials_of(), |l| propagation(l).1.rounds as f64)),
        ("sim.dense_rounds", median_of(trials_of(), |l| propagation(l).1.dense_rounds as f64)),
        ("sim.edges_scanned", median_of(trials_of(), |l| propagation(l).1.edges_scanned as f64)),
        ("sim.deliveries", median_of(trials_of(), |l| propagation(l).2.deliveries as f64)),
        ("sim.collisions", median_of(trials_of(), |l| propagation(l).2.collisions as f64)),
        ("sim.engine_ms", median_of(trials_of(), |l| ms(engine(l)))),
        ("sim.edges_per_us", ratio(edges as f64, engine_us)),
        ("sim.delivery_ratio", ratio(deliveries as f64, edges as f64)),
        ("bench.execute_ms", ms(one.wall)),
        ("bench.trial_sum_ms", trial_sum_ms),
        ("bench.overhead_ms", ms(one.wall) - trial_sum_ms),
        ("bench.sink_ms", ms(one.sink)),
        ("bench.cells", plan.len() as f64),
        ("bench.scaling_2w", ratio(one.wall.as_secs_f64(), two.wall.as_secs_f64())),
        ("host.runq_wait_ms", runq_ms),
        ("host.steal_ms", steal_ms),
        ("trace.overhead_frac", ratio(traced_ms, untraced_ms) - 1.0),
    ];

    for problem in &checks.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!(
        "replayed {} of {} cells ({attempted} trials); spans in {}",
        replayed_cells.len(),
        plan.len(),
        spans_path.display()
    );
    for (name, value) in &values {
        println!("{name:<24} {value:.4}");
    }
    let Checks { failed_trials, problems } = checks;
    let correct = problems.is_empty();
    let failed = failed_trials.min(attempted.max(1));
    println!("{}", report::result_line(correct, attempted.max(1), failed, PER_LAYER, &values)?);
    Ok(correct)
}
