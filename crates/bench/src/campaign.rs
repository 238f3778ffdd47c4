//! The campaign data model: the declarative cross of topology × protocol ×
//! collision model × fault plan × trial plan, its **plan** (the pure
//! enumeration of cells to run), and the aggregated results that render as a
//! markdown table and as a versioned, machine-readable JSON document for
//! cross-PR performance tracking.
//!
//! Execution is split into a plan/execute/sink pipeline:
//!
//! * [`Campaign::plan_cells`] enumerates the cross product into [`CellSpec`]s —
//!   pure data, instantly testable, carrying every derived seed;
//! * [`crate::executor`] runs the planned cells on a work-queue of worker
//!   threads, sharing one built graph per topology;
//! * a [`crate::CampaignSink`] receives finished [`CellResult`]s in plan
//!   order — in memory ([`Campaign::run`]) or streamed incrementally to a
//!   JSON writer so huge sweeps never hold every record at once.
//!
//! A [`Campaign`] is pure data — strings for protocols and topologies — so
//! defining a new workload never touches experiment code. Running one is
//! deterministic in the master seed *and independent of the thread count*:
//! topologies, per-trial seeds and cell order all derive from the seed, and
//! [`CampaignResult::to_json`] renders through the order-preserving
//! [`crate::json`] writer, so the same `(campaign, seed)` pair always
//! produces a byte-identical results file.

use crate::executor::{self, ExecOptions};
use crate::harness::Table;
use crate::json::Json;
use crate::registry::{model_name, ProtocolSpec, ScenarioSpec};
use crate::sink::{CampaignSink, JsonStreamSink, MemorySink, RunHeader};
pub use crate::stats::CellStats;
use crate::stats::TrialAccumulator;
use rn_graph::TopologySpec;
use rn_sim::{rng, CollisionModel, FaultPlan, NetParams};

/// Schema tag written into every results file; bump on breaking changes.
pub const RESULTS_SCHEMA: &str = "rn-bench-results/v1";

/// How many trials each cell runs (the "trial plan" axis of a campaign);
/// always at least 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialPlan {
    trials: u64,
}

impl TrialPlan {
    /// A plan with `trials` trials per cell (at least 1).
    pub fn new(trials: u64) -> TrialPlan {
        TrialPlan { trials: trials.max(1) }
    }

    /// Trials per cell (each trial gets an independent derived seed).
    pub fn trials(self) -> u64 {
        self.trials
    }
}

/// A declarative experiment campaign: the full cross product of its axes.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Identifier used in output headers and the JSON `id` field.
    pub id: String,
    /// Topology axis.
    pub topologies: Vec<TopologySpec>,
    /// Protocol axis.
    pub protocols: Vec<ProtocolSpec>,
    /// Collision-model axis.
    pub models: Vec<CollisionModel>,
    /// Fault axis (jammers / dropout per cell); use
    /// [`Campaign::no_faults`] for the sunny-day-only default.
    pub faults: Vec<FaultPlan>,
    /// Trial plan shared by every cell.
    pub plan: TrialPlan,
}

impl Campaign {
    /// The single-entry fault axis meaning "no faults" — what every
    /// non-fault campaign uses.
    pub fn no_faults() -> Vec<FaultPlan> {
        vec![FaultPlan::none()]
    }

    /// A one-cell campaign from a `protocol@topology[!faults]` scenario
    /// spec.
    pub fn single(scenario: &ScenarioSpec, trials: u64) -> Campaign {
        Campaign {
            id: scenario.to_string(),
            topologies: vec![scenario.topology.clone()],
            protocols: vec![scenario.protocol.clone()],
            models: vec![CollisionModel::NoCollisionDetection],
            faults: vec![scenario.faults],
            plan: TrialPlan::new(trials),
        }
    }

    /// Number of axis-cross positions (topologies × protocols × models ×
    /// fault plans); an upper bound on emitted cells, since positions whose
    /// effective model duplicates an earlier one are skipped (see
    /// [`Campaign::run`]).
    pub fn num_cells(&self) -> usize {
        self.topologies.len() * self.protocols.len() * self.models.len() * self.faults.len()
    }

    /// Checks the cross-axis placement preconditions that scenario-string
    /// parsing enforces (`compete(K)` sources and jammer counts must fit
    /// every topology), for campaigns assembled programmatically — e.g. a
    /// preset whose fault axis was replaced from the command line. Without
    /// this, an oversized plan panics mid-run inside a trial worker.
    ///
    /// # Errors
    ///
    /// A description of the first violated pairing.
    pub fn validate(&self) -> Result<(), String> {
        for topo in &self.topologies {
            let n = topo.nodes();
            for proto in &self.protocols {
                let need = proto.required_nodes();
                if need > n {
                    return Err(format!(
                        "{} needs {need} distinct source nodes but {topo} has only {n}",
                        proto.base()
                    ));
                }
            }
            for fault in &self.faults {
                if fault.jammers() > n {
                    return Err(format!(
                        "fault plan {fault} wants {} jammers but {topo} has only {n} nodes",
                        fault.jammers()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Enumerates the full axis cross into the ordered list of cells to run
    /// — a pure function of the campaign and the master seed, with no graph
    /// building or trial execution.
    ///
    /// The enumeration preserves the original runner's semantics exactly:
    ///
    /// * **seed streams** — every axis position (topology × protocol × model
    ///   × fault, in nested-loop order) owns one slot of the cell-seed
    ///   stream whether or not it runs, so adding a model or fault plan
    ///   never reseeds later cells;
    /// * **model dedup** — axis values whose [`rn_sim::Runnable::
    ///   effective_model`] collapses onto an already-planned model for the
    ///   same (topology, protocol) are skipped (their seed slot is still
    ///   consumed), keeping `(topology, protocol, model, faults)` keys
    ///   unique.
    pub fn plan_cells(&self, master_seed: u64) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(self.num_cells());
        let mut cell_index = 0u64;
        for (ti, topo) in self.topologies.iter().enumerate() {
            for proto in &self.protocols {
                let runnable = proto.instantiate();
                let mut models_run = Vec::with_capacity(self.models.len());
                for &requested in &self.models {
                    let model = runnable.effective_model(requested);
                    let duplicate = models_run.contains(&model);
                    if !duplicate {
                        models_run.push(model);
                    }
                    for &fault in &self.faults {
                        let cell_seed = rng::derive(master_seed, CELL_STREAM + cell_index);
                        cell_index += 1;
                        if duplicate {
                            continue;
                        }
                        cells.push(CellSpec {
                            order: cells.len(),
                            topology_index: ti,
                            topology: topo.clone(),
                            topology_seed: rng::derive(master_seed, TOPOLOGY_STREAM + ti as u64),
                            protocol: proto.clone(),
                            model,
                            faults: fault,
                            cell_seed,
                        });
                    }
                }
            }
        }
        cells
    }

    /// Runs every cell in memory with the default thread budget (see
    /// [`crate::executor::resolve_threads`]) and returns the aggregated
    /// result. Convenience wrapper over [`Campaign::run_with_threads`].
    pub fn run(&self, master_seed: u64) -> CampaignResult {
        self.run_with_threads(master_seed, executor::resolve_threads(None))
    }

    /// Runs every cell on `threads` worker threads, collecting results in
    /// memory. The output is a pure function of `(self, master_seed)` —
    /// byte-identical JSON for any thread count.
    ///
    /// Cells *and* trials share one work queue: a single-cell campaign still
    /// saturates the budget, and a wide sweep overlaps cells. Each topology
    /// is built once (from a seed derived off `master_seed` and the
    /// topology's position) and shared by all its cells; each trial seed
    /// derives from the cell seed and the trial index, so any single trial
    /// can be reproduced in isolation. Every trial resolves its cell's fault
    /// plan in [`rn_sim::TrialCtx::new`], so the same fault schedule
    /// semantics apply to every protocol uniformly.
    ///
    /// To stream cells to a sink instead of collecting them (bounded
    /// memory), use [`crate::executor::execute_with`] directly.
    pub fn run_with_threads(&self, master_seed: u64, threads: usize) -> CampaignResult {
        let mut sink = MemorySink::new();
        executor::execute_with(self, master_seed, threads, &mut sink, ExecOptions::default())
            .expect("the in-memory sink cannot fail");
        sink.into_result()
    }
}

/// Seed stream for building the topology at a given axis position.
pub(crate) const TOPOLOGY_STREAM: u64 = 0x7070_0000;
/// Seed stream for the cell at a given axis-cross index.
pub(crate) const CELL_STREAM: u64 = 0xCE11_0000;

/// One planned campaign cell: pure data describing *what* to run — produced
/// by [`Campaign::plan_cells`], consumed by [`crate::executor`]. Carries
/// every derived seed so a cell (or any single trial inside it) can be
/// reproduced in isolation.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Position in the deterministic plan order (results are emitted in
    /// this order regardless of completion order).
    pub order: usize,
    /// Index into [`Campaign::topologies`] — cells sharing it share one
    /// built graph.
    pub topology_index: usize,
    /// The topology to build.
    pub topology: TopologySpec,
    /// Seed the topology is built from.
    pub topology_seed: u64,
    /// The protocol to instantiate.
    pub protocol: ProtocolSpec,
    /// The *effective* collision model the cell runs under.
    pub model: CollisionModel,
    /// The fault plan applied to every trial.
    pub faults: FaultPlan,
    /// Seed of the cell's trial stream (trial `i` runs under
    /// `rng::derive(cell_seed, i)`).
    pub cell_seed: u64,
}

/// Aggregated outcome of one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Topology spec string.
    pub topology: String,
    /// Protocol registry name.
    pub protocol: String,
    /// Collision model (`nocd` / `cd`).
    pub model: &'static str,
    /// Fault plan string (`none`, `jam(3,0.5)`, `drop(0.1)`, …).
    pub faults: String,
    /// Number of nodes of the built graph.
    pub n: usize,
    /// Diameter handed to protocols (double-sweep estimate).
    pub diameter: u32,
    /// Trials run.
    pub trials: u64,
    /// Trials that reached their goal within budget.
    pub completed: u64,
    /// Rounds per trial (including charged precomputation).
    pub rounds: CellStats,
    /// Successful receptions per trial. Meaningful only when
    /// [`CellResult::metrics_present`].
    pub deliveries: CellStats,
    /// Listener-side collisions per trial. Meaningful only when
    /// [`CellResult::metrics_present`].
    pub collisions: CellStats,
    /// Node transmissions per trial. Meaningful only when
    /// [`CellResult::metrics_present`].
    pub transmissions: CellStats,
    /// Whether the channel-metric distributions are real samples. `false`
    /// for rounds-only scenarios (e.g. `binsearch_le`), whose records carry
    /// zeroed placeholder [`rn_sim::Metrics`] — those cells omit the three
    /// metric objects from JSON and render `-` in tables instead of
    /// reporting fake 0-means.
    pub metrics_present: bool,
    /// Total wall-clock spent running this cell's trials, in milliseconds,
    /// summed over workers (so it measures CPU-time-like cost, not
    /// end-to-end latency). `None` unless the run opted into timing
    /// ([`crate::executor::ExecOptions::timing`]): wall-clock is
    /// machine-dependent, so it must stay out of byte-pinned baselines.
    pub elapsed_ms: Option<u64>,
    /// Per-trial wall-clock distribution in milliseconds — the tail view of
    /// [`CellResult::elapsed_ms`]. `None` unless the run opted into timing,
    /// for the same byte-stability reason.
    pub trial_elapsed_ms: Option<CellStats>,
}

impl CellResult {
    /// Assembles the cell from a completed [`TrialAccumulator`] — the
    /// executor's streaming path. Timing annotations come from the
    /// accumulator itself (populated only when it was constructed timed).
    pub(crate) fn from_accum(
        topology: String,
        protocol: String,
        model: CollisionModel,
        faults: FaultPlan,
        net: NetParams,
        acc: &TrialAccumulator,
    ) -> CellResult {
        CellResult {
            topology,
            protocol,
            model: model_name(model),
            faults: faults.to_string(),
            n: net.n(),
            diameter: net.diameter(),
            trials: acc.folded(),
            completed: acc.completed(),
            rounds: acc.rounds_stats(),
            deliveries: acc.deliveries_stats(),
            collisions: acc.collisions_stats(),
            transmissions: acc.transmissions_stats(),
            metrics_present: acc.metrics_present(),
            elapsed_ms: acc.elapsed_ms(),
            trial_elapsed_ms: acc.trial_elapsed_stats(),
        }
    }

    /// The cell's JSON record (one element of the results file's `cells`
    /// array; the streaming sink emits these one at a time).
    pub(crate) fn to_json(&self) -> Json {
        let mut fields = vec![
            ("topology", Json::Str(self.topology.clone())),
            ("protocol", Json::Str(self.protocol.clone())),
            ("model", Json::Str(self.model.to_string())),
            ("faults", Json::Str(self.faults.clone())),
            ("n", Json::UInt(self.n as u64)),
            ("diameter", Json::UInt(self.diameter as u64)),
            ("trials", Json::UInt(self.trials)),
            ("completed", Json::UInt(self.completed)),
            ("rounds", self.rounds.to_json()),
        ];
        // The channel-metric trio is emitted only when the records carried
        // real simulator metrics: rounds-only cells would otherwise report
        // fabricated all-zero distributions.
        if self.metrics_present {
            fields.push(("deliveries", self.deliveries.to_json()));
            fields.push(("collisions", self.collisions.to_json()));
            fields.push(("transmissions", self.transmissions.to_json()));
        }
        // Additive v1 fields, emitted only on timed runs: untimed documents
        // (including the committed byte-pinned baselines) stay bit-for-bit
        // unchanged run to run.
        if let Some(ms) = self.elapsed_ms {
            fields.push(("elapsed_ms", Json::UInt(ms)));
        }
        if let Some(dist) = self.trial_elapsed_ms {
            fields.push(("trial_elapsed_ms", dist.to_json()));
        }
        Json::obj(fields)
    }
}

/// All cell results of one campaign run, renderable as markdown or JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Campaign identifier.
    pub id: String,
    /// The master seed the run derived everything from.
    pub master_seed: u64,
    /// Trials per cell.
    pub trials_per_cell: u64,
    /// One aggregate per cell, in deterministic axis order.
    pub cells: Vec<CellResult>,
}

impl CampaignResult {
    /// Renders the campaign as one markdown [`Table`] (the human half of the
    /// output; [`CampaignResult::to_json`] is the machine half).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Campaign {} (seed {}, {} trials/cell)",
                self.id, self.master_seed, self.trials_per_cell
            ),
            &[
                "topology",
                "protocol",
                "model",
                "faults",
                "n",
                "D",
                "ok",
                "rounds mean",
                "rounds p50/p95/p99",
                "rounds min..max",
                "deliveries",
                "collisions",
            ],
        );
        for c in &self.cells {
            // Channel-metric columns are dashes for rounds-only cells: their
            // zeroed Metrics are placeholders, not samples.
            let metric = |s: &CellStats| {
                if c.metrics_present {
                    format!("{:.0}", s.mean)
                } else {
                    "-".to_string()
                }
            };
            t.row(&[
                c.topology.clone(),
                c.protocol.clone(),
                c.model.to_string(),
                c.faults.clone(),
                c.n.to_string(),
                c.diameter.to_string(),
                format!("{}/{}", c.completed, c.trials),
                format!("{:.1}", c.rounds.mean),
                format!("{:.1}/{:.1}/{:.1}", c.rounds.p50, c.rounds.p95, c.rounds.p99),
                format!("{}..{}", c.rounds.min, c.rounds.max),
                metric(&c.deliveries),
                metric(&c.collisions),
            ]);
        }
        t.note(format!(
            "Machine-readable form: schema {RESULTS_SCHEMA}; reproduce any cell with \
             --seed {}. Quantiles are streaming P² estimates (exact for ≤ 5 trials).",
            self.master_seed
        ));
        t
    }

    /// Renders the versioned JSON results document (compact, byte-stable
    /// for a fixed campaign and master seed) through a [`JsonStreamSink`],
    /// so in-memory and streamed documents have one writer.
    pub fn to_json(&self) -> String {
        let header = RunHeader {
            id: self.id.clone(),
            master_seed: self.master_seed,
            trials_per_cell: self.trials_per_cell,
        };
        let mut sink = JsonStreamSink::new(Vec::new());
        let mut write = || -> std::io::Result<()> {
            sink.begin(&header)?;
            self.cells.iter().try_for_each(|c| sink.cell(c))?;
            sink.finish()
        };
        write().expect("writing to memory cannot fail");
        let bytes = sink.into_inner().expect("writing to memory cannot fail");
        String::from_utf8(bytes).expect("the JSON writer emits UTF-8")
    }
}

/// Validates a parsed results document against the v1 schema, returning a
/// short human summary (`id`, cell count) on success. Used by the CLI
/// `--check` flag and the CI campaign-smoke job.
///
/// # Errors
///
/// A description of the first schema violation.
pub fn validate_results(doc: &Json) -> Result<String, String> {
    let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing schema field")?;
    if schema != RESULTS_SCHEMA {
        return Err(format!("unknown schema {schema:?} (expected {RESULTS_SCHEMA})"));
    }
    let id = doc.get("id").and_then(Json::as_str).ok_or("missing id field")?;
    doc.get("master_seed").and_then(Json::as_u64).ok_or("missing master_seed field")?;
    let cells = doc.get("cells").and_then(Json::as_arr).ok_or("missing cells array")?;
    if cells.is_empty() {
        return Err("results file has no cells".into());
    }
    for (i, cell) in cells.iter().enumerate() {
        for key in ["topology", "protocol", "model"] {
            cell.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("cell {i}: missing string field {key:?}"))?;
        }
        // Additive v1 field: absent in pre-fault-axis files, a string (and
        // a parseable fault plan) when present.
        if let Some(f) = cell.get("faults") {
            let s = f.as_str().ok_or(format!("cell {i}: faults field must be a string"))?;
            s.parse::<rn_sim::FaultPlan>().map_err(|e| format!("cell {i}: faults field: {e}"))?;
        }
        for key in ["n", "diameter", "trials", "completed"] {
            cell.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("cell {i}: missing integer field {key:?}"))?;
        }
        // Additive v1 field: absent on untimed runs, a millisecond count
        // when the run opted into `--timing`.
        if let Some(ms) = cell.get("elapsed_ms") {
            ms.as_u64().ok_or(format!("cell {i}: elapsed_ms must be an integer"))?;
        }
        let check_stats = |key: &str, stats: &Json| -> Result<(), String> {
            for sub in ["mean", "min", "max"] {
                stats
                    .get(sub)
                    .and_then(Json::as_f64)
                    .ok_or(format!("cell {i}: {key}.{sub} missing or non-numeric"))?;
            }
            // Additive v1 fields: stddev predates the quantiles, and both
            // generations of old files must keep validating — bench-diff
            // falls back to a zero band / ungated quantiles without them.
            for sub in ["stddev", "p50", "p95", "p99"] {
                if let Some(v) = stats.get(sub) {
                    v.as_f64().ok_or(format!("cell {i}: {key}.{sub} must be numeric"))?;
                }
            }
            Ok(())
        };
        check_stats(
            "rounds",
            cell.get("rounds").ok_or(format!("cell {i}: missing stats field \"rounds\""))?,
        )?;
        // The channel-metric trio is all-or-nothing: rounds-only cells omit
        // all three (their Metrics are placeholders); packet-level cells
        // carry all three.
        let metric_keys = ["deliveries", "collisions", "transmissions"];
        let present = metric_keys.iter().filter(|k| cell.get(k).is_some()).count();
        if present != 0 && present != metric_keys.len() {
            return Err(format!(
                "cell {i}: channel metrics must be all present or all absent \
                 ({present} of {} found)",
                metric_keys.len()
            ));
        }
        for key in metric_keys {
            if let Some(stats) = cell.get(key) {
                check_stats(key, stats)?;
            }
        }
        // Additive v1 field: the per-trial wall-clock distribution of timed
        // runs.
        if let Some(stats) = cell.get("trial_elapsed_ms") {
            check_stats("trial_elapsed_ms", stats)?;
        }
    }
    Ok(format!("{id}: {} cell(s), schema {RESULTS_SCHEMA}", cells.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign() -> Campaign {
        Campaign {
            id: "unit".into(),
            topologies: vec![TopologySpec::Path(16), TopologySpec::Star(9)],
            protocols: vec![ProtocolSpec::parse("bgi"), ProtocolSpec::parse("decay(2)")],
            models: vec![CollisionModel::NoCollisionDetection],
            faults: Campaign::no_faults(),
            plan: TrialPlan::new(2),
        }
    }

    #[test]
    fn campaign_runs_all_cells_in_axis_order() {
        let r = tiny_campaign().run(5);
        assert_eq!(r.cells.len(), 4);
        assert_eq!(r.cells[0].topology, "path(16)");
        assert_eq!(r.cells[0].protocol, "bgi");
        assert_eq!(r.cells[1].protocol, "decay(2)");
        assert_eq!(r.cells[2].topology, "star(9)");
        for c in &r.cells {
            assert_eq!(c.trials, 2);
            assert_eq!(c.completed, 2, "{}/{} must complete", c.topology, c.protocol);
            assert!(c.rounds.min <= c.rounds.max);
            assert!(c.rounds.mean > 0.0);
        }
    }

    #[test]
    fn campaign_json_validates_and_table_renders() {
        let r = tiny_campaign().run(5);
        let doc = Json::parse(&r.to_json()).expect("own JSON parses");
        let summary = validate_results(&doc).expect("schema-valid");
        assert!(summary.contains("4 cell(s)"), "{summary}");
        let md = r.to_table().to_markdown();
        assert!(md.contains("path(16)") && md.contains("bgi"));
    }

    #[test]
    fn single_scenario_campaign_from_spec_string() {
        let spec: ScenarioSpec = "binsearch_le(beep)@grid(6x6)".parse().expect("parses");
        assert_eq!(spec.protocol, ProtocolSpec::parse("binsearch_le(beep)"));
        let r = Campaign::single(&spec, 2).run(9);
        assert_eq!(r.cells.len(), 1);
        assert_eq!(r.cells[0].protocol, "binsearch_le(beep)");
        assert_eq!(r.cells[0].faults, "none");
        assert_eq!(r.cells[0].completed, 2);
    }

    #[test]
    fn fault_axis_produces_labeled_cells_that_degrade() {
        let campaign = Campaign {
            id: "faulted".into(),
            topologies: vec![TopologySpec::Grid { w: 6, h: 6 }],
            protocols: vec![ProtocolSpec::parse("bgi")],
            models: vec![CollisionModel::NoCollisionDetection],
            faults: vec![FaultPlan::none(), FaultPlan::jam(36, 1.0)],
            plan: TrialPlan::new(2),
        };
        let r = campaign.run(8);
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.cells[0].faults, "none");
        assert_eq!(r.cells[1].faults, "jam(36,1)");
        assert_eq!(r.cells[0].completed, 2, "sunny-day cell completes");
        assert_eq!(r.cells[1].completed, 0, "total jamming defeats broadcast");
        // The JSON carries the fault axis and stays schema-valid.
        let doc = Json::parse(&r.to_json()).expect("parses");
        validate_results(&doc).expect("schema-valid with fault fields");
        let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
        assert_eq!(cells[1].get("faults").and_then(Json::as_str), Some("jam(36,1)"));
    }

    #[test]
    fn validate_catches_cross_axis_placement_violations() {
        let mut campaign = tiny_campaign();
        assert!(campaign.validate().is_ok());
        // star(9) has 9 nodes: 10 jammers cannot be placed.
        campaign.faults = vec![FaultPlan::jam(10, 0.5)];
        let err = campaign.validate().unwrap_err();
        assert!(err.contains("10 jammers") && err.contains("star(9)"), "{err}");
        // Same guard for compete(K) sources, whatever the placement.
        campaign.faults = Campaign::no_faults();
        campaign.protocols = vec![ProtocolSpec::parse("compete(10,corner)")];
        let err = campaign.validate().unwrap_err();
        assert!(err.contains("10 distinct source nodes"), "{err}");
    }

    #[test]
    fn model_axis_collapsing_onto_one_effective_model_dedupes_cells() {
        // Both axis values remap to CD for a beep probe: one cell, not two
        // identically-keyed ones.
        let campaign = Campaign {
            id: "dedup".into(),
            topologies: vec![TopologySpec::Grid { w: 6, h: 6 }],
            protocols: vec![ProtocolSpec::parse("binsearch_le(beep)"), ProtocolSpec::parse("bgi")],
            models: vec![CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection],
            faults: Campaign::no_faults(),
            plan: TrialPlan::new(1),
        };
        let r = campaign.run(4);
        assert_eq!(r.cells.len(), 3, "beep collapses to one cell, bgi keeps both models");
        assert_eq!((r.cells[0].protocol.as_str(), r.cells[0].model), ("binsearch_le(beep)", "cd"));
        assert_eq!((r.cells[1].protocol.as_str(), r.cells[1].model), ("bgi", "nocd"));
        assert_eq!((r.cells[2].protocol.as_str(), r.cells[2].model), ("bgi", "cd"));
        // Keys are unique across the whole result.
        let mut keys: Vec<_> =
            r.cells.iter().map(|c| (c.topology.clone(), c.protocol.clone(), c.model)).collect();
        keys.dedup();
        assert_eq!(keys.len(), r.cells.len());
    }

    #[test]
    fn plan_preserves_axis_order_seed_streams_and_dedup() {
        // Same dedup shape as the model-collapsing test above, but checked
        // on the pure plan: beep remaps both axis values onto CD (one cell),
        // bgi keeps both. Seed slots are burned per axis *position* —
        // including the skipped duplicate — in nested-loop order.
        let campaign = Campaign {
            id: "plan".into(),
            topologies: vec![TopologySpec::Grid { w: 6, h: 6 }],
            protocols: vec![ProtocolSpec::parse("binsearch_le(beep)"), ProtocolSpec::parse("bgi")],
            models: vec![CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection],
            faults: Campaign::no_faults(),
            plan: TrialPlan::new(1),
        };
        let plan = campaign.plan_cells(4);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[0].protocol.to_string(), "binsearch_le(beep)");
        assert_eq!(plan[0].model, CollisionModel::CollisionDetection);
        // Axis positions 0..4; position 1 (beep × cd, a duplicate) consumed
        // its seed slot without planning a cell.
        assert_eq!(plan[0].cell_seed, rng::derive(4, CELL_STREAM));
        assert_eq!(plan[1].cell_seed, rng::derive(4, CELL_STREAM + 2));
        assert_eq!(plan[2].cell_seed, rng::derive(4, CELL_STREAM + 3));
        // Emit order and topology sharing are explicit in the spec.
        assert!(plan.iter().enumerate().all(|(i, c)| c.order == i));
        assert!(plan.iter().all(|c| c.topology_index == 0));
        assert_eq!(plan[0].topology_seed, rng::derive(4, TOPOLOGY_STREAM));
    }

    #[test]
    fn degenerate_cell_stats_stay_well_defined() {
        // The heavy single-pass / quantile coverage lives in crate::stats;
        // this pins the degenerate shapes the campaign layer leans on.
        assert_eq!(
            CellStats::over(std::iter::empty()),
            CellStats { mean: 0.0, min: 0, max: 0, stddev: 0.0, p50: 0.0, p95: 0.0, p99: 0.0 }
        );
        let one = CellStats::over([42u64]);
        assert_eq!((one.mean, one.min, one.max, one.stddev), (42.0, 42, 42, 0.0));
        assert_eq!((one.p50, one.p95, one.p99), (42.0, 42.0, 42.0));
    }

    #[test]
    fn distribution_fields_are_recorded_in_the_json_stats() {
        let r = tiny_campaign().run(5);
        let doc = Json::parse(&r.to_json()).expect("parses");
        let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
        let rounds = cells[0].get("rounds").expect("rounds stats");
        let sd = rounds.get("stddev").and_then(Json::as_f64).expect("stddev present");
        assert!(sd >= 0.0);
        let p50 = rounds.get("p50").and_then(Json::as_f64).expect("p50 present");
        let p99 = rounds.get("p99").and_then(Json::as_f64).expect("p99 present");
        let stat = |k: &str| rounds.get(k).and_then(Json::as_f64).expect("numeric");
        assert!(stat("min") <= p50 && p50 <= p99 && p99 <= stat("max"));
        validate_results(&doc).expect("distribution fields are schema-valid");
        // Malformed additive fields are rejected.
        for field in ["\"stddev\":", "\"p95\":"] {
            let bad = r.to_json().replacen(field, &format!("{field}\"x\",\"old\":"), 1);
            let doc = Json::parse(&bad).expect("parses");
            assert!(validate_results(&doc).is_err(), "non-numeric {field} must fail");
        }
        // The table renders the percentile column for every cell.
        let md = r.to_table().to_markdown();
        assert!(md.contains("rounds p50/p95/p99"), "{md}");
    }

    #[test]
    fn rounds_only_cells_omit_channel_metrics() {
        let spec: ScenarioSpec = "binsearch_le(beep)@grid(6x6)".parse().expect("parses");
        let r = Campaign::single(&spec, 3).run(9);
        assert!(!r.cells[0].metrics_present, "binsearch_le accounts rounds only");
        let json = r.to_json();
        for key in ["deliveries", "collisions", "transmissions"] {
            assert!(!json.contains(key), "placeholder metrics must not be serialized: {key}");
        }
        let doc = Json::parse(&json).expect("parses");
        validate_results(&doc).expect("metric-less cells are schema-valid");
        // The table shows dashes, not fabricated 0-means.
        let md = r.to_table().to_markdown();
        let row = md
            .lines()
            .find(|l| l.starts_with('|') && l.contains("binsearch_le"))
            .expect("data row");
        let dashes = row.split('|').filter(|cell| cell.trim() == "-").count();
        assert_eq!(dashes, 2, "deliveries and collisions are dashes: {row}");
        // A partially present trio is rejected (all-or-nothing).
        let bad = json.replacen(
            "\"rounds\":",
            "\"collisions\":{\"mean\":0,\"min\":0,\"max\":0},\"rounds\":",
            1,
        );
        assert!(validate_results(&Json::parse(&bad).expect("parses")).is_err());
    }

    #[test]
    fn validate_rejects_broken_documents() {
        for bad in [
            r#"{}"#,
            r#"{"schema":"other/v9","id":"x","master_seed":1,"cells":[{}]}"#,
            r#"{"schema":"rn-bench-results/v1","id":"x","master_seed":1,"cells":[]}"#,
            r#"{"schema":"rn-bench-results/v1","id":"x","master_seed":1,"cells":[{"topology":"p"}]}"#,
            r#"{"schema":"rn-bench-results/v1","id":"x","master_seed":1,"cells":[{"topology":"p","protocol":"q","model":"nocd","faults":"zap(1)"}]}"#,
            r#"{"schema":"rn-bench-results/v1","id":"x","master_seed":1,"cells":[{"topology":"p","protocol":"q","model":"nocd","faults":7}]}"#,
        ] {
            let doc = Json::parse(bad).expect("well-formed JSON");
            assert!(validate_results(&doc).is_err(), "{bad} must fail validation");
        }
    }

    #[test]
    fn deeply_nested_input_is_an_error_not_a_stack_overflow() {
        // `--check` and `bench-diff` parse then validate user files; 10⁵
        // levels of nesting once overflowed the parser's stack.
        let levels = 100_000;
        for deep in [
            "[".repeat(levels),
            format!("{}{}", "[".repeat(levels), "]".repeat(levels)),
            format!(r#"{{"schema":"rn-bench-results/v1","cells":{}"#, "[".repeat(levels)),
        ] {
            let checked = Json::parse(&deep)
                .map_err(|e| e.to_string())
                .and_then(|doc| validate_results(&doc));
            assert!(checked.is_err(), "{levels}-deep input must be rejected");
        }
    }
}
