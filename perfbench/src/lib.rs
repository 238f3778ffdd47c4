//! Benchmark of the campaign executor: the workloads, the command line, the
//! timed campaign run and its output checks.
//!
//! Everything here reaches the program through the campaign surface only —
//! `ScenarioSpec`/`Campaign` → `rn_bench::execute_with` → a `CampaignSink` —
//! plus `TopologySpec::build` and `Graph::diameter_double_sweep` for the
//! set-up timing. It calls no per-trial entry point, so the untraced binary
//! keeps building when those change. The traced binary
//! (`src/bin/perfbench-trace.rs`) is the only code that touches layer
//! internals.

#![forbid(unsafe_code)]

pub mod host;
pub mod report;

use rn_bench::{
    execute_with, parse_model, validate_results, Campaign, CampaignSink, CellResult, CellSpec,
    CellStats, ExecOptions, Json, JsonStreamSink, ProtocolSpec, RunHeader, ScenarioSpec, TrialPlan,
};
use rn_graph::TopologySpec;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The `experiments` CLI's default master seed.
pub const DEFAULT_SEED: u64 = 20170725;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's broadcast on a random geometric graph: precompute-bound.
    BcastRgg,
    /// The paper's leader election on a long strip: propagation-bound.
    LeGrid,
    /// Decay on a dense random geometric graph: dense engine rounds, no
    /// precompute.
    DecayDense,
    /// The preset sweep shape: many small cells across every layer.
    CampaignMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] =
        [Workload::BcastRgg, Workload::LeGrid, Workload::DecayDense, Workload::CampaignMix];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BcastRgg => "bcast_rgg",
            Workload::LeGrid => "le_grid",
            Workload::DecayDense => "decay_dense",
            Workload::CampaignMix => "campaign_mix",
        }
    }

    /// The scenario string of a single-cell workload (`None` for the mix).
    pub fn scenario(self) -> Option<&'static str> {
        match self {
            Workload::BcastRgg => Some("broadcast@rgg(5000,0.03)"),
            Workload::LeGrid => Some("leader_election@grid(500x10)"),
            Workload::DecayDense => Some("decay(16)@rgg(20000,0.05)"),
            Workload::CampaignMix => None,
        }
    }

    /// Trials per cell for a run measuring about `seconds` on a 2-core
    /// x86-64 container (about 100, 150 and 75 ms per trial for the three
    /// single-cell workloads; about 650 trials/s over the mix's 112 cells).
    /// Single-cell workloads run at least 200 trials, so the executor's p95
    /// has ten trials beyond it.
    pub fn trials_per_cell(self, seconds: u64, smoke: bool) -> u64 {
        match (self, smoke) {
            (Workload::CampaignMix, true) => 1,
            (_, true) => 3,
            (Workload::BcastRgg, false) => (10 * seconds).max(200),
            (Workload::LeGrid, false) => (7 * seconds).max(200),
            (Workload::DecayDense, false) => (14 * seconds).max(200),
            (Workload::CampaignMix, false) => (6 * seconds).max(1),
        }
    }

    /// The campaign the workload runs, with `trials` trials per cell.
    pub fn campaign(self, trials: u64) -> Campaign {
        if let Some(spec) = self.scenario() {
            let spec: ScenarioSpec = spec.parse().expect("workload scenarios parse");
            return Campaign::single(&spec, trials);
        }
        // No jammers: a jammed cell never completes, so it would run to its
        // round budget and dominate the sweep's time.
        Campaign {
            id: self.name().into(),
            topologies: ["grid(24x24)", "torus(16x16)", "rgg(400,0.1)", "ring_of_cliques(8,16)"]
                .iter()
                .map(|t| t.parse().expect("mix topologies parse"))
                .collect(),
            protocols: [
                "broadcast",
                "leader_election",
                "bgi",
                "decay(4)",
                "compete_cd(4)",
                "partition(0.5)",
                "schedule(downcast)",
                "binsearch_le(bgi)",
            ]
            .iter()
            .map(|p| ProtocolSpec::parse(p))
            .collect(),
            models: ["nocd", "cd"].iter().map(|m| parse_model(m).expect("model names")).collect(),
            faults: ["none", "drop(0.02)"]
                .iter()
                .map(|f| f.parse().expect("mix fault plans parse"))
                .collect(),
            plan: TrialPlan::new(trials),
        }
    }
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Master seed of the campaign.
    pub seed: u64,
    /// Nominal measuring time, in seconds.
    pub seconds: u64,
    /// Whether the traced mode was asked for.
    pub trace: bool,
    /// A few trials only, for the benchmark's own tests.
    pub smoke: bool,
}

/// Usage text for command-line errors.
pub const USAGE: &str = "usage: --workload bcast_rgg|le_grid|decay_dense|campaign_mix \
                         [--seed N] [--seconds N] [--trace 0|1] [--smoke]";

impl Args {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// A message naming the first unknown flag or malformed value.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut parsed = Args {
            workload: Workload::BcastRgg,
            seed: DEFAULT_SEED,
            seconds: 30,
            trace: false,
            smoke: false,
        };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == name)
                            .ok_or(format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--smoke" => parsed.smoke = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        Ok(parsed)
    }
}

/// Where runs write their results files: a directory next to the running
/// binary, inside the build directory.
pub fn out_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(Path::new(".")).join("perfbench-out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// What the set-up probe learned about one topology of the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyFacts {
    /// Nodes.
    pub n: usize,
    /// Edges.
    pub m: usize,
    /// `diameter_double_sweep` of the built graph.
    pub diameter: u32,
}

/// The topology seed of each topology axis position, read off the plan.
pub fn topology_seeds(campaign: &Campaign, plan: &[CellSpec]) -> Vec<(TopologySpec, u64)> {
    (0..campaign.topologies.len())
        .map(|ti| {
            let cell =
                plan.iter().find(|c| c.topology_index == ti).expect("every topology planned");
            (cell.topology.clone(), cell.topology_seed)
        })
        .collect()
}

/// Whether a window of repeated probes is long enough: at least 5
/// repetitions and 0.5 s, at most 10000 repetitions. A host shared with
/// other tenants runs the same code up to twice as slowly for tens of
/// milliseconds at a time, so a window spans many such phases.
pub fn enough_reps(reps: usize, spent: Duration) -> bool {
    reps >= 10_000 || (reps >= 5 && spent >= Duration::from_millis(500))
}

/// Set-up timing: `build` + `diameter_double_sweep` of every topology of
/// the plan, repeated in windows (see [`enough_reps`]). The untraced run
/// takes one window before the campaign and one after it, so one slow
/// phase of the host does not set the median.
#[derive(Debug)]
pub struct SetupProbe {
    topologies: Vec<(TopologySpec, u64)>,
    samples: Vec<Vec<f64>>,
    /// What the builds showed about each topology.
    pub facts: Vec<TopologyFacts>,
}

impl SetupProbe {
    /// A probe of `topologies` (spec and topology seed, from
    /// [`topology_seeds`]) with no samples yet.
    pub fn new(topologies: Vec<(TopologySpec, u64)>) -> SetupProbe {
        let samples = vec![Vec::new(); topologies.len()];
        SetupProbe { topologies, samples, facts: Vec::new() }
    }

    /// Takes one window of repetitions for every topology.
    pub fn window(&mut self) {
        self.facts.clear();
        for ((spec, seed), samples) in self.topologies.iter().zip(&mut self.samples) {
            let (mut reps, mut spent) = (0, Duration::ZERO);
            loop {
                let started = Instant::now();
                let g = spec.build(*seed);
                let diameter = g.diameter_double_sweep();
                let took = started.elapsed();
                samples.push(took.as_secs_f64());
                (reps, spent) = (reps + 1, spent + took);
                if enough_reps(reps, spent) {
                    self.facts.push(TopologyFacts { n: g.n(), m: g.m(), diameter });
                    break;
                }
            }
        }
    }

    /// The set-up time: per topology the median repetition, summed.
    pub fn setup_s(&mut self) -> f64 {
        self.samples.iter_mut().map(|s| report::median(s)).sum()
    }

    /// Repetitions taken so far, over all topologies.
    pub fn reps(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }
}

/// A finished `execute_with` call.
#[derive(Debug)]
pub struct CampaignRun {
    /// Cells in plan order.
    pub cells: Vec<CellResult>,
    /// Wall time of the `execute_with` call.
    pub wall: Duration,
    /// Time spent inside the `JsonStreamSink`.
    pub sink: Duration,
    /// Run-queue wait of the worker thread, read when it handed over its
    /// last cell.
    pub worker_runq_wait_ns: Option<u64>,
    /// Host steal ticks during the call.
    pub steal_ticks: Option<u64>,
    /// The streamed results file.
    pub json_path: PathBuf,
}

/// The benchmark's sink: streams every cell through `JsonStreamSink` to a
/// file, keeps a copy in memory for the checks, and times the stream.
struct BenchSink {
    stream: JsonStreamSink<BufWriter<File>>,
    cells: Vec<CellResult>,
    busy: Duration,
    worker_runq_wait_ns: Option<u64>,
}

impl BenchSink {
    fn timed<T>(&mut self, f: impl FnOnce(&mut JsonStreamSink<BufWriter<File>>) -> T) -> T {
        let started = Instant::now();
        let out = f(&mut self.stream);
        self.busy += started.elapsed();
        out
    }
}

impl CampaignSink for BenchSink {
    fn begin(&mut self, header: &RunHeader) -> io::Result<()> {
        self.timed(|s| s.begin(header))
    }

    fn cell(&mut self, cell: &CellResult) -> io::Result<()> {
        self.timed(|s| s.cell(cell))?;
        self.cells.push(cell.clone());
        // The executor calls the sink from the worker that finished the
        // cell, so this reads the worker's own scheduler statistics.
        self.worker_runq_wait_ns = host::thread_runq_wait_ns();
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.timed(|s| s.finish())
    }
}

/// Runs `campaign` through `execute_with` on `threads` workers with timing
/// on, streaming the results to `json_path`.
///
/// # Errors
///
/// Creating or writing the results file.
///
/// # Panics
///
/// Propagates a panicking trial, as `execute_with` does.
pub fn run_campaign(
    campaign: &Campaign,
    seed: u64,
    threads: usize,
    json_path: &Path,
) -> io::Result<CampaignRun> {
    let file = BufWriter::new(File::create(json_path)?);
    let mut sink = BenchSink {
        stream: JsonStreamSink::new(file),
        cells: Vec::new(),
        busy: Duration::ZERO,
        worker_runq_wait_ns: None,
    };
    let steal_before = host::steal_ticks();
    let started = Instant::now();
    execute_with(campaign, seed, threads, &mut sink, ExecOptions { timing: true })?;
    let wall = started.elapsed();
    let steal_ticks = steal_before.zip(host::steal_ticks()).map(|(a, b)| b.saturating_sub(a));
    let BenchSink { stream, cells, busy, worker_runq_wait_ns } = sink;
    stream.into_inner()?;
    Ok(CampaignRun {
        cells,
        wall,
        sink: busy,
        worker_runq_wait_ns,
        steal_ticks,
        json_path: json_path.to_path_buf(),
    })
}

/// Outcome of the output checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Trials of cells that failed a check.
    pub failed_trials: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Checks {
    /// Records a failed check covering `trials` trials.
    pub fn fail(&mut self, trials: u64, problem: String) {
        self.failed_trials += trials;
        self.problems.push(problem);
    }
}

fn stats_ordered(s: &CellStats) -> bool {
    let (lo, hi) = (s.min as f64, s.max as f64);
    [s.mean, s.p50, s.p95, s.p99].iter().all(|&v| lo <= v && v <= hi)
}

/// Checks the run's cells against the plan and the set-up probe, and the
/// streamed results file against the schema and the in-memory cells.
pub fn check_run(
    plan: &[CellSpec],
    trials: u64,
    facts: &[TopologyFacts],
    run: &CampaignRun,
) -> Checks {
    let mut checks = Checks::default();
    let planned = trials * plan.len() as u64;
    if run.cells.len() != plan.len() {
        checks.fail(planned, format!("{} cells emitted, {} planned", run.cells.len(), plan.len()));
        return checks;
    }
    for (spec, cell) in plan.iter().zip(&run.cells) {
        let topo = facts[spec.topology_index];
        let key = format!("{}/{}/{}/{}", cell.topology, cell.protocol, cell.model, cell.faults);
        let mut problems = Vec::new();
        if cell.topology != spec.topology.to_string() || cell.faults != spec.faults.to_string() {
            problems.push("cell does not match its plan entry".to_string());
        }
        if cell.trials != trials || cell.completed > cell.trials {
            problems.push(format!(
                "{} of {} trials completed, {trials} planned",
                cell.completed, cell.trials
            ));
        }
        if cell.n != topo.n || cell.diameter != topo.diameter {
            problems.push(format!(
                "graph n={} D={} differs from the set-up probe's n={} D={}",
                cell.n, cell.diameter, topo.n, topo.diameter
            ));
        }
        if cell.rounds.min == 0 || !stats_ordered(&cell.rounds) {
            problems.push(format!("implausible rounds {:?}", cell.rounds));
        }
        if cell.metrics_present
            && ![cell.deliveries, cell.collisions, cell.transmissions].iter().all(stats_ordered)
        {
            problems.push("channel statistics out of order".to_string());
        }
        if cell.trial_elapsed_ms.is_none() || cell.elapsed_ms.is_none() {
            problems.push("timing fields missing on a timed run".to_string());
        }
        if !problems.is_empty() {
            checks.fail(trials, format!("{key}: {}", problems.join("; ")));
        }
    }
    match reread_digest(&run.json_path) {
        Ok(file_digest) if file_digest == digest(&run.cells) => {}
        Ok(_) => {
            checks.fail(planned, "streamed results file differs from the emitted cells".into())
        }
        Err(e) => checks.fail(planned, format!("streamed results file: {e}")),
    }
    checks
}

/// FNV-1a over 64-bit words.
fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold_stats(hash: u64, s: &CellStats) -> u64 {
    [
        s.mean.to_bits(),
        s.min,
        s.max,
        s.stddev.to_bits(),
        s.p50.to_bits(),
        s.p95.to_bits(),
        s.p99.to_bits(),
    ]
    .into_iter()
    .fold(hash, fnv)
}

/// Digest of the cells' simulated statistics (completions, rounds,
/// deliveries, collisions, transmissions), independent of timing: a change
/// that only makes the program faster leaves it unchanged.
pub fn digest(cells: &[CellResult]) -> u64 {
    cells.iter().fold(FNV_OFFSET, |h, c| {
        let h = fnv(fnv(h, c.trials), c.completed);
        let h = fold_stats(h, &c.rounds);
        if c.metrics_present {
            [c.deliveries, c.collisions, c.transmissions].iter().fold(h, fold_stats)
        } else {
            h
        }
    })
}

/// Re-reads a streamed results file, validates it with
/// `rn_bench::validate_results`, and digests it like [`digest`].
fn reread_digest(path: &Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    validate_results(&doc)?;
    let cells = doc.get("cells").and_then(Json::as_arr).ok_or("no cells")?;
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).ok_or(format!("missing {k}"));
    let int = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).ok_or(format!("missing {k}"));
    let stats = |j: &Json| -> Result<CellStats, String> {
        Ok(CellStats {
            mean: num(j, "mean")?,
            min: int(j, "min")?,
            max: int(j, "max")?,
            stddev: num(j, "stddev")?,
            p50: num(j, "p50")?,
            p95: num(j, "p95")?,
            p99: num(j, "p99")?,
        })
    };
    let mut hash = FNV_OFFSET;
    for c in cells {
        hash = fnv(fnv(hash, int(c, "trials")?), int(c, "completed")?);
        hash = fold_stats(hash, &stats(c.get("rounds").ok_or("missing rounds")?)?);
        for key in ["deliveries", "collisions", "transmissions"] {
            if let Some(s) = c.get(key) {
                hash = fold_stats(hash, &stats(s)?);
            }
        }
    }
    Ok(hash)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line_defaults_to_the_cli_seed() {
        let a = args("--workload le_grid").expect("parses");
        assert_eq!(
            (a.workload, a.seed, a.trace, a.smoke),
            (Workload::LeGrid, DEFAULT_SEED, false, false)
        );
        let a =
            args("--workload campaign_mix --seed 7 --seconds 3 --trace 1 --smoke").expect("parses");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.smoke),
            (Workload::CampaignMix, 7, 3, true, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload le_grid --trace 2",
            "--workload le_grid --seed",
            "--bogus",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn the_mix_plans_112_cells_without_jammers() {
        let c = Workload::CampaignMix.campaign(1);
        let plan = c.plan_cells(DEFAULT_SEED);
        assert_eq!(plan.len(), 112);
        assert!(plan.iter().all(|cell| cell.faults.jammers() == 0));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn single_cell_workloads_plan_one_cell_like_the_cli() {
        for w in Workload::ALL.into_iter().filter(|w| w.scenario().is_some()) {
            let c = w.campaign(5);
            assert_eq!(c.id, w.scenario().expect("single cell"), "id matches `--scenario`");
            assert_eq!(c.plan_cells(1).len(), 1);
            assert!(w.trials_per_cell(30, false) >= 200, "{}: p95 needs 200 trials", w.name());
        }
    }
}
