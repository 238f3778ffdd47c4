//! Untraced run of one workload: set-up timing, then the campaign through
//! `execute_with` on one worker, the output checks, and the end-to-end
//! metrics as the last line of standard output.

use perfbench::report::{self, END_TO_END, EXECUTOR_PERCENTILES};
use perfbench::{
    check_run, digest, host, out_dir, run_campaign, topology_seeds, Args, SetupProbe, USAGE,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) if !args.trace => args,
        Ok(_) => {
            eprintln!("the traced mode is the perfbench-trace binary (run.py routes --trace 1)");
            return ExitCode::from(2);
        }
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

/// Runs the workload; `Ok(correct)` once the result line is printed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let trials = w.trials_per_cell(args.seconds, args.smoke);
    let campaign = w.campaign(trials);
    let plan = campaign.plan_cells(args.seed);
    let attempted = trials * plan.len() as u64;
    println!(
        "workload {} ({}): {} cell(s) x {trials} trials, seed {}, 1 worker",
        w.name(),
        w.scenario().unwrap_or("mix sweep"),
        plan.len(),
        args.seed
    );

    let topologies = topology_seeds(&campaign, &plan);
    let mut setup = SetupProbe::new(topologies.clone());
    setup.window();
    let facts = setup.facts.clone();
    for ((spec, _), f) in topologies.iter().zip(&facts) {
        println!("topology {spec}: n={} m={} D={}", f.n, f.m, f.diameter);
    }

    let json_path =
        out_dir().map_err(|e| e.to_string())?.join(format!("{}-seed{}.json", w.name(), args.seed));
    let run = match catch_unwind(AssertUnwindSafe(|| {
        run_campaign(&campaign, args.seed, 1, &json_path)
    })) {
        Ok(run) => run.map_err(|e| format!("results file {}: {e}", json_path.display()))?,
        Err(_) => {
            println!("fail_frac 1 ({attempted} of {attempted} trials): a trial panicked");
            return Ok(false);
        }
    };
    // Peak memory of set-up and campaign; the second set-up window below
    // only re-times the builds, on a heap the campaign has fragmented.
    let peak_rss_mb = host::peak_rss_mb().ok_or("no /proc/self/status")?;
    setup.window();
    if setup.facts != facts {
        return Err("the topologies built differently after the campaign".into());
    }
    println!("setup_s is the median of {} build + diameter repetitions per topology", setup.reps());
    let checks = check_run(&plan, trials, &facts, &run);
    for problem in &checks.problems {
        println!("CHECK FAILED: {problem}");
    }

    let cells = &run.cells;
    let finished: u64 = cells.iter().map(|c| c.trials).sum();
    let completed: u64 = cells.iter().map(|c| c.completed).sum();
    let (trial_p50, trial_tail, rounds_p50) = match cells.as_slice() {
        [cell] => {
            // The executor's per-trial timer counts whole milliseconds.
            let t = cell.trial_elapsed_ms.ok_or("timing fields missing")?;
            let tail = report::tail_percentile(cell.trials, EXECUTOR_PERCENTILES);
            println!("trial_ms_tail is p{} of {} trials", tail.unwrap_or(50), cell.trials);
            let tail = match tail {
                Some(99) => t.p99,
                Some(95) => t.p95,
                _ => t.p50,
            };
            (t.p50, tail, cell.rounds.p50)
        }
        _ => {
            // Mix trials are shorter than the per-trial timer's millisecond,
            // so the typical trial is the mean (summed trial time over
            // trials: the median over cells jumps across a gap between fast
            // and slow families), and the tail runs over cells' means.
            let mut per_cell: Vec<f64> = cells
                .iter()
                .map(|c| c.elapsed_ms.unwrap_or(0) as f64 / c.trials.max(1) as f64)
                .collect();
            per_cell.sort_by(f64::total_cmp);
            let tail = report::tail_percentile(cells.len() as u64, &[50, 90, 95, 99]).unwrap_or(50);
            println!(
                "trial_ms_p50 is the mean trial; trial_ms_tail is p{tail} of {} cell means",
                cells.len()
            );
            let summed: u64 = cells.iter().map(|c| c.elapsed_ms.unwrap_or(0)).sum();
            let mut rounds: Vec<f64> = cells.iter().map(|c| c.rounds.p50).collect();
            (
                summed as f64 / finished.max(1) as f64,
                rn_bench::exact_quantile_sorted(&per_cell, f64::from(tail) / 100.0),
                report::median(&mut rounds),
            )
        }
    };

    let failed = checks.failed_trials.min(attempted);
    let runq =
        run.worker_runq_wait_ns.map_or("n/a".into(), |ns| format!("{:.1} ms", ns as f64 / 1e6));
    let steal =
        run.steal_ticks.map_or("n/a".into(), |t| format!("{:.0} ms", t as f64 * host::MS_PER_TICK));
    println!("host noise (not metrics): worker run-queue wait {runq}, host steal {steal}");
    println!("fail_frac {} ({failed} of {attempted} trials)", failed as f64 / attempted as f64);
    println!(
        "digest {:016x} over {} cell(s): completions, rounds, deliveries, collisions, transmissions",
        digest(cells),
        cells.len()
    );
    println!("results file {}", run.json_path.display());

    let values = [
        ("trials_per_s", finished as f64 / run.wall.as_secs_f64()),
        ("setup_s", setup.setup_s()),
        ("peak_rss_mb", peak_rss_mb),
        ("done_frac", completed as f64 / finished.max(1) as f64),
        ("trial_ms_p50", trial_p50),
        ("trial_ms_tail", trial_tail),
        ("rounds_p50", rounds_p50),
    ];
    let correct = checks.problems.is_empty();
    println!("{}", report::result_line(correct, attempted, failed, END_TO_END, &values)?);
    Ok(correct)
}
