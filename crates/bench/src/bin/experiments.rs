//! Experiment runner: dispatches through the preset registry
//! (`rn_bench::presets`) and the scenario registry (`rn_bench::registry`).
//!
//! Usage:
//!
//! ```text
//! experiments [--seed N] [--trials N] [--threads N] [--model nocd|cd]
//!             [--faults SPEC] [--json PATH] [--no-table] [--timing]
//!             (--list | --check PATH | --scenario SPEC | all | ID [ID ...])
//! ```
//!
//! * `--list` — print every topology form, protocol, fault form, override
//!   key and preset, then exit;
//! * `--scenario "PROTO@TOPO[!FAULTS]"` — run an ad-hoc one-cell campaign,
//!   e.g. `--scenario "broadcast{curtail=1e6}@rgg(500,0.08)!jam(5,0.5)"
//!   --trials 20 --json out.json`;
//! * `ID` — a preset id: a table experiment (`e1`…`e12`) or a campaign
//!   (`smoke`, `sweep_broadcast`, `sweep_faults`, …); `all` runs every
//!   preset;
//! * `--trials N` — trials per campaign cell (a positive integer; default
//!   10 for `--scenario`, the preset's own count otherwise);
//! * `--threads N` — worker-thread budget of campaigns and table
//!   experiments alike (default: available parallelism capped at 16);
//!   results are byte-identical for any value;
//! * `--faults SPEC` — replace a campaign target's fault axis with one plan
//!   (`jam(K,P)`, `drop(P)`, `jam(K,P)!drop(P)` or `none`);
//! * `--json PATH` — additionally stream the campaign's versioned JSON
//!   results file, cell by cell as they finish (campaign targets only, one
//!   target per run);
//! * `--no-table` — skip the in-memory markdown table entirely (requires
//!   `--json`): huge streamed sweeps then hold only the cells in flight,
//!   never the whole result;
//! * `--timing` — annotate every emitted cell with `elapsed_ms` (summed
//!   per-trial wall-clock) and its per-trial distribution. Off by default
//!   because wall-clock is machine-dependent: byte-compared baselines must
//!   be generated without it, scale-lane files with it. `--scenario S
//!   --trials N --threads 1 --timing --json F` is how a scenario string is
//!   timed; the criterion `scale` suite keeps only what no flag reaches;
//! * `--check PATH` — parse and schema-validate a results file, then exit
//!   (the CI smoke gate).

#![forbid(unsafe_code)]

use rn_bench::presets::{self, PresetKind};
use rn_bench::registry::parse_model;
use rn_bench::sink::{CampaignSink, RunHeader};
use rn_bench::{
    executor, registry_listing, Campaign, CellResult, Json, JsonStreamSink, MemorySink,
    ScenarioSpec, TrialPlan,
};
use rn_sim::{CollisionModel, FaultPlan};
use std::io::{self, BufWriter};
use std::time::Instant;

/// Everything the CLI accepted, before target resolution.
struct Args {
    seed: u64,
    trials: Option<u64>,
    threads: Option<usize>,
    model: Option<CollisionModel>,
    faults: Option<FaultPlan>,
    json: Option<String>,
    no_table: bool,
    timing: bool,
    scenario: Option<String>,
    check: Option<String>,
    list: bool,
    ids: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 20170725, // PODC 2017 paper, why not
        trials: None,
        threads: None,
        model: None,
        faults: None,
        json: None,
        no_table: false,
        timing: false,
        scenario: None,
        check: None,
        list: false,
        ids: Vec::new(),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| usage(&format!("missing value for {flag}")))
        };
        match a.as_str() {
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an unsigned integer"));
            }
            "--trials" => {
                args.trials = Some(
                    value("--trials")
                        .parse::<u64>()
                        .ok()
                        .filter(|&t| t >= 1)
                        .unwrap_or_else(|| usage("--trials takes a positive integer")),
                );
            }
            "--threads" => {
                args.threads = Some(
                    value("--threads")
                        .parse::<usize>()
                        .ok()
                        .filter(|&t| t >= 1)
                        .unwrap_or_else(|| usage("--threads takes a positive integer")),
                );
            }
            "--model" => {
                args.model =
                    Some(parse_model(&value("--model")).unwrap_or_else(|e| usage(&e.to_string())));
            }
            "--faults" => {
                args.faults =
                    Some(value("--faults").parse().unwrap_or_else(|e| usage(&format!("{e}"))));
            }
            "--json" => args.json = Some(value("--json")),
            "--no-table" => args.no_table = true,
            "--timing" => args.timing = true,
            "--scenario" => args.scenario = Some(value("--scenario")),
            "--check" => args.check = Some(value("--check")),
            "--list" => args.list = true,
            "all" => {
                args.ids.extend(presets::presets().iter().map(|p| p.id.to_string()));
            }
            other if !other.starts_with('-') => args.ids.push(other.to_string()),
            other => usage(&format!("unexpected argument {other:?}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    if args.list {
        print_list();
        return;
    }
    if let Some(path) = &args.check {
        // --check is exclusive: silently skipping other targets would let a
        // typo'd invocation look like it ran them.
        if args.scenario.is_some() || !args.ids.is_empty() {
            usage("--check cannot be combined with --scenario or preset ids");
        }
        check_results_file(path);
        return;
    }
    if args.scenario.is_some() && !args.ids.is_empty() {
        usage("--scenario cannot be combined with preset ids (run them separately)");
    }
    if args.no_table && args.json.is_none() {
        usage("--no-table only makes sense with --json (there would be no output at all)");
    }

    // rn-lint: allow(no-wall-clock) — CLI progress timing only, not results.
    let t_total = Instant::now();
    if let Some(spec_str) = &args.scenario {
        run_scenario(&args, spec_str);
    } else if args.ids.is_empty() {
        usage("no experiments requested");
    } else {
        run_presets(&args);
    }
    println!("\n_total: {:.1?}_", t_total.elapsed());
}

/// Runs an ad-hoc one-cell campaign from a `protocol@topology[!faults]`
/// spec.
fn run_scenario(args: &Args, spec_str: &str) {
    let spec: ScenarioSpec =
        spec_str.parse().unwrap_or_else(|e| usage(&format!("--scenario: {e}")));
    let mut campaign = Campaign::single(&spec, args.trials.unwrap_or(10));
    if let Some(model) = args.model {
        campaign.models = vec![model];
    }
    if let Some(faults) = args.faults {
        if !spec.faults.is_none() {
            usage("faults specified twice (both --faults and a !suffix on --scenario)");
        }
        campaign.faults = vec![faults];
    }
    println!("# Scenario run: {spec} (seed {})\n", args.seed);
    run_campaign(&campaign, args);
}

/// Runs every requested preset id through the registry.
fn run_presets(args: &Args) {
    let campaign_targets = args
        .ids
        .iter()
        .filter(
            |id| matches!(presets::find(id), Some(p) if matches!(p.kind, PresetKind::Campaign(_))),
        )
        .count();
    if args.json.is_some() && campaign_targets != 1 {
        usage("--json needs exactly one campaign target (a campaign preset or --scenario)");
    }
    // Table presets have hard-coded sweeps: silently ignoring --trials,
    // --model or --faults would print tables that look like the requested
    // configuration but are not.
    if (args.trials.is_some() || args.model.is_some() || args.faults.is_some())
        && campaign_targets != args.ids.len()
    {
        usage(
            "--trials/--model/--faults only apply to campaign targets, not table presets (e1..e12)",
        );
    }
    println!("# Experiment run (seed {})\n", args.seed);
    for id in &args.ids {
        let preset = presets::find(id).unwrap_or_else(|| {
            usage(&format!("unknown preset {id:?} (run with --list to see the registry)"))
        });
        // rn-lint: allow(no-wall-clock) — CLI progress timing only, not results.
        let t0 = Instant::now();
        match preset.kind {
            PresetKind::Tables(run) => {
                for t in run(args.seed, executor::resolve_threads(args.threads)) {
                    t.print();
                }
            }
            PresetKind::Campaign(build) => {
                let mut campaign = build();
                if let Some(trials) = args.trials {
                    campaign.plan = TrialPlan::new(trials);
                }
                if let Some(model) = args.model {
                    campaign.models = vec![model];
                }
                if let Some(faults) = args.faults {
                    campaign.faults = vec![faults];
                }
                run_campaign(&campaign, args);
            }
        }
        println!("\n_[{id} took {:.1?}]_", t0.elapsed());
    }
}

/// A sink that both streams JSON to a writer and keeps the cells the
/// markdown table needs — so the results file is written incrementally
/// while the table still renders at the end.
struct TableAndJson<W: io::Write + Send> {
    table: MemorySink,
    json: JsonStreamSink<W>,
}

impl<W: io::Write + Send> CampaignSink for TableAndJson<W> {
    fn begin(&mut self, header: &RunHeader) -> io::Result<()> {
        self.table.begin(header)?;
        self.json.begin(header)
    }

    fn cell(&mut self, cell: &CellResult) -> io::Result<()> {
        self.table.cell(cell)?;
        self.json.cell(cell)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.table.finish()?;
        self.json.finish()
    }
}

/// Runs one campaign on the resolved thread budget: markdown to stdout,
/// and — when `--json` is given — the results file streamed cell-by-cell
/// (byte-identical to the in-memory rendering for the same seed). With
/// `--no-table` the in-memory tee is skipped entirely, so memory stays
/// proportional to the cells in flight, never the whole sweep.
fn run_campaign(campaign: &Campaign, args: &Args) {
    // --faults/--model edits bypass the scenario-string parser's placement
    // checks; re-validate so an oversized plan is a usage error, not a
    // panic inside a trial worker.
    if let Err(e) = campaign.validate() {
        usage(&e);
    }
    let threads = executor::resolve_threads(args.threads);
    let seed = args.seed;
    let options = executor::ExecOptions { timing: args.timing };
    match args.json.as_deref() {
        None => {
            let mut sink = MemorySink::new();
            executor::execute_with(campaign, seed, threads, &mut sink, options)
                .expect("the in-memory sink cannot fail");
            sink.into_result().to_table().print();
        }
        Some(path) => {
            let file = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            });
            let stream = JsonStreamSink::new(BufWriter::new(file));
            let io_error = |e: io::Error| -> ! {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            };
            let cells = if args.no_table {
                let mut sink = stream;
                executor::execute_with(campaign, seed, threads, &mut sink, options)
                    .unwrap_or_else(|e| io_error(e));
                sink.cells_written()
            } else {
                let mut sink = TableAndJson { table: MemorySink::new(), json: stream };
                executor::execute_with(campaign, seed, threads, &mut sink, options)
                    .unwrap_or_else(|e| io_error(e));
                sink.table.into_result().to_table().print();
                sink.json.cells_written()
            };
            println!("\n_[results streamed to {path} ({cells} cells, {threads} threads)]_");
        }
    }
}

/// Parses and schema-validates a results file (CI smoke gate).
fn check_results_file(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    });
    match rn_bench::validate_results(&doc) {
        Ok(summary) => println!("ok: {path}: {summary}"),
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints the full registry: topology grammar, protocol families (grammar,
/// about, override schemas), fault grammar, presets. Rendered by
/// [`registry_listing`], which `tests/golden_list.rs` pins against a
/// committed golden file so grammar drift is caught in review.
fn print_list() {
    print!("{}", registry_listing());
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: experiments [--seed N] [--trials N] [--threads N] [--model nocd|cd]\n\
         \x20                  [--faults SPEC] [--json PATH] [--no-table] [--timing]\n\
         \x20                  (--list | --check PATH | --scenario SPEC | all | ID [ID ...])"
    );
    std::process::exit(2);
}
