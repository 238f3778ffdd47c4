//! The campaign executor: a work-queue of worker threads over *trial units*
//! of a planned campaign.
//!
//! [`execute_with`] turns a [`Campaign`]'s plan (see [`Campaign::plan_cells`])
//! into `cells × trials` work units claimed off a single atomic cursor, so
//! parallelism covers both axes at once: a one-cell `--scenario` run
//! saturates the thread budget with its trials, while a wide sweep overlaps
//! many cells. Each topology's graph is built exactly once (lazily, by the
//! first worker to need it) and shared read-only by every cell on it.
//!
//! Determinism: every trial's seed comes from the plan
//! (`derive(cell_seed, trial)`), never from execution order, and each cell
//! folds its records into a streaming [`TrialAccumulator`] whose own
//! reorder buffer guarantees trial-index fold order — so results (moments
//! *and* P² quantile sketches, both order-sensitive in floating point) are
//! byte-identical for any thread count, while per-cell memory stays
//! O(out-of-order window) instead of O(trials). Finished cells pass through
//! a second reorder buffer that releases them to the [`CampaignSink`] in
//! plan order as soon as they are contiguous, keeping sink memory
//! proportional to the cells in flight rather than the whole sweep.
//!
//! Fault injection on this path is **explicit**: the worker resolves the
//! cell's [`rn_sim::FaultPlan`] per trial into a [`rn_sim::TrialCtx`], and
//! the schedule travels by parameter into [`rn_sim::Runnable::run`] — no
//! thread-local ambient state, so trials are safe to run from any worker.

use crate::campaign::{Campaign, CellResult};
use crate::sink::{CampaignSink, RunHeader};
use crate::stats::TrialAccumulator;
use rn_graph::Graph;
use rn_sim::{rng, NetParams, Runnable, TrialCtx, TrialPool};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Resolves the worker-thread budget: an explicit request (CLI `--threads`)
/// wins, else the machine's available parallelism capped at 16. Always at
/// least 1.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    match explicit {
        Some(t) => t.max(1),
        None => std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4).min(16),
    }
}

/// Knobs for [`execute_with`] beyond the campaign itself.
///
/// The defaults are a plain run: every committed byte-pinned baseline is
/// generated with them, so new options never change those bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Record per-cell wall-clock as [`CellResult::elapsed_ms`] (the sum of
    /// trial durations across workers). Off by default: timing is
    /// machine-dependent, so it must never leak into byte-compared output.
    pub timing: bool,
}

/// The in-order release valve between out-of-order cell completion and the
/// strictly ordered sink.
struct Emitter<'s> {
    next: usize,
    pending: BTreeMap<usize, CellResult>,
    sink: &'s mut dyn CampaignSink,
    error: Option<io::Error>,
}

impl Emitter<'_> {
    fn push(&mut self, order: usize, cell: CellResult) {
        self.pending.insert(order, cell);
        while let Some(ready) = self.pending.remove(&self.next) {
            self.next += 1;
            if self.error.is_none() {
                if let Err(e) = self.sink.cell(&ready) {
                    // Keep draining (workers must not deadlock on a full
                    // buffer) but stop writing; the first error surfaces
                    // from execute_with().
                    self.error = Some(e);
                }
            }
        }
    }
}

/// Runs `campaign` on `threads` workers, emitting cells to `sink` in plan
/// order. Returns the number of cells emitted.
///
/// The simulation results are a pure function of `(campaign,
/// master_seed)` — the thread count affects wall-clock only, and the
/// optional `elapsed_ms` annotation ([`ExecOptions::timing`], the CLI's
/// `--timing` flag) is the only part that varies run to run. See the
/// [module docs](self) for the execution model.
///
/// # Errors
///
/// The first sink I/O error. The work queue is drained on error — each
/// worker finishes at most its in-flight trial — so a full disk does not
/// burn the rest of a large sweep.
///
/// # Panics
///
/// Propagates panics from trial workers (a protocol bug or an invalid
/// campaign assembled without [`Campaign::validate`]).
pub fn execute_with(
    campaign: &Campaign,
    master_seed: u64,
    threads: usize,
    sink: &mut dyn CampaignSink,
    options: ExecOptions,
) -> io::Result<usize> {
    let plan = campaign.plan_cells(master_seed);
    sink.begin(&RunHeader {
        id: campaign.id.clone(),
        master_seed,
        trials_per_cell: campaign.plan.trials(),
    })?;
    let trials = usize::try_from(campaign.plan.trials()).expect("trial count fits in memory");
    let total = plan.len() * trials;
    let emitted = plan.len();

    // One lazily built graph per topology axis position, shared by all its
    // cells; OnceLock makes the first worker to need it the builder.
    let graphs: Vec<OnceLock<(Graph, NetParams)>> =
        (0..campaign.topologies.len()).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    // One streaming accumulator per cell: workers fold records incrementally
    // (O(1)-ish state per cell), instead of buffering every TrialRecord and
    // aggregating at the end.
    let accums: Vec<Mutex<TrialAccumulator>> = plan
        .iter()
        .map(|_| Mutex::new(TrialAccumulator::new(campaign.plan.trials(), options.timing)))
        .collect();
    let emitter = Mutex::new(Emitter { next: 0, pending: BTreeMap::new(), sink, error: None });

    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(total.max(1)) {
            scope.spawn(|| {
                // Per-worker steady-state: one TrialPool for the worker's
                // whole life (scenario-type and graph-size switches re-arm
                // it in place) and the current cell's instantiated scenario,
                // so consecutive trials of a cell — the common unit order —
                // reuse both instead of re-allocating per trial.
                let mut pool = TrialPool::new();
                let mut current: Option<(usize, Box<dyn Runnable>)> = None;
                loop {
                    let unit = cursor.fetch_add(1, Ordering::Relaxed);
                    if unit >= total {
                        break;
                    }
                    let (ci, ti) = (unit / trials, unit % trials);
                    let spec = &plan[ci];
                    let (g, net) = graphs[spec.topology_index].get_or_init(|| {
                        let g = spec.topology.build(spec.topology_seed);
                        let net = NetParams::new(g.n(), g.diameter_double_sweep());
                        (g, net)
                    });
                    if current.as_ref().map(|&(c, _)| c) != Some(ci) {
                        current = Some((ci, spec.protocol.instantiate()));
                    }
                    let runnable = &current.as_ref().expect("slot was just filled").1;
                    // rn-lint: allow(no-wall-clock) — opt-in timing telemetry, stripped from diffable result bytes
                    let started = options.timing.then(Instant::now);
                    let seed = rng::derive(spec.cell_seed, ti as u64);
                    let ctx = TrialCtx::new(g, *net, spec.model, seed, &spec.faults);
                    let record = runnable.run(&ctx, &mut pool);
                    let trial_time = started.map(|t| t.elapsed());
                    let complete = {
                        // The accumulator's reorder buffer folds in trial-index
                        // order whatever order workers finish in — the moments
                        // and quantile sketches are order-sensitive in floating
                        // point. A duplicate claim panics inside push().
                        let mut acc = accums[ci].lock().expect("cell accumulator lock");
                        acc.push(ti as u64, record, trial_time);
                        acc.is_complete()
                            .then(|| std::mem::replace(&mut *acc, TrialAccumulator::new(0, false)))
                    };
                    if let Some(acc) = complete {
                        let cell = CellResult::from_accum(
                            spec.topology.to_string(),
                            spec.protocol.to_string(),
                            spec.model,
                            spec.faults,
                            *net,
                            &acc,
                        );
                        let failed = {
                            let mut em = emitter.lock().expect("emitter lock");
                            em.push(spec.order, cell);
                            em.error.is_some()
                        };
                        if failed {
                            // Drain the queue: nothing written past the first
                            // error is useful, so stop handing out units.
                            cursor.store(total, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let Emitter { pending, error, next, .. } = emitter.into_inner().expect("emitter lock");
    if let Some(e) = error {
        return Err(e);
    }
    debug_assert!(pending.is_empty() && next == emitted, "every planned cell must be emitted");
    sink.finish()?;
    Ok(emitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::TrialPlan;
    use crate::registry::ProtocolSpec;
    use rn_graph::TopologySpec;
    use rn_sim::{CollisionModel, FaultPlan};

    fn campaign() -> Campaign {
        Campaign {
            id: "executor-unit".into(),
            topologies: vec![TopologySpec::Grid { w: 5, h: 5 }, TopologySpec::Path(20)],
            protocols: vec![ProtocolSpec::parse("bgi"), ProtocolSpec::parse("decay(3)")],
            models: vec![CollisionModel::NoCollisionDetection],
            faults: vec![FaultPlan::none(), FaultPlan::drop(0.05)],
            plan: TrialPlan::new(5),
        }
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let c = campaign();
        let baseline = c.run_with_threads(42, 1).to_json();
        for threads in [2, 3, 8, 32] {
            assert_eq!(
                c.run_with_threads(42, threads).to_json(),
                baseline,
                "thread count {threads} must not change the bytes"
            );
        }
    }

    #[test]
    fn single_cell_campaigns_still_use_the_full_budget() {
        // cells × trials work units: one cell with 8 trials yields 8 units,
        // so an 8-thread run must produce the same record set as serial.
        let c = Campaign {
            id: "one-cell".into(),
            topologies: vec![TopologySpec::Grid { w: 6, h: 6 }],
            protocols: vec![ProtocolSpec::parse("bgi")],
            models: vec![CollisionModel::NoCollisionDetection],
            faults: Campaign::no_faults(),
            plan: TrialPlan::new(8),
        };
        assert_eq!(c.run_with_threads(7, 8).to_json(), c.run_with_threads(7, 1).to_json());
    }

    #[test]
    fn resolve_threads_prefers_an_explicit_budget() {
        assert_eq!(resolve_threads(Some(5)), 5);
        assert_eq!(resolve_threads(Some(64)), 64, "explicit budgets are not capped");
        assert_eq!(resolve_threads(Some(0)), 1, "explicit budgets clamp to ≥ 1");
        // No explicit budget: available parallelism, capped at 16.
        assert!((1..=16).contains(&resolve_threads(None)));
    }

    #[test]
    fn timing_is_opt_in_and_additive() {
        use crate::campaign::validate_results;
        use crate::json::Json;
        use crate::sink::MemorySink;

        let c = campaign();
        // Default path: no elapsed_ms anywhere — the committed baselines
        // depend on this staying byte-stable.
        let plain = c.run_with_threads(11, 2);
        assert!(plain.cells.iter().all(|cell| cell.elapsed_ms.is_none()));
        assert!(plain.cells.iter().all(|cell| cell.trial_elapsed_ms.is_none()));
        assert!(!plain.to_json().contains("elapsed_ms"));

        // Timed path: every cell annotated (sum + per-trial distribution),
        // simulation results unchanged, and the document still
        // schema-validates.
        let mut sink = MemorySink::new();
        execute_with(&c, 11, 2, &mut sink, ExecOptions { timing: true }).expect("in-memory run");
        let timed = sink.into_result();
        assert!(timed.cells.iter().all(|cell| cell.elapsed_ms.is_some()));
        assert!(timed.cells.iter().all(|cell| cell.trial_elapsed_ms.is_some()));
        let json = timed.to_json();
        assert!(json.contains("\"elapsed_ms\":"));
        assert!(json.contains("\"trial_elapsed_ms\":"));
        validate_results(&Json::parse(&json).expect("own JSON parses")).expect("schema-valid");
        let strip = |r: &crate::campaign::CampaignResult| {
            let mut r = r.clone();
            for cell in &mut r.cells {
                cell.elapsed_ms = None;
                cell.trial_elapsed_ms = None;
            }
            r
        };
        assert_eq!(strip(&timed), strip(&plain), "timing must not perturb results");
    }

    #[test]
    fn oversized_thread_budgets_are_harmless() {
        let c = Campaign { plan: TrialPlan::new(1), ..campaign() };
        // 64 threads for 8 units: workers beyond the unit count idle out.
        let r = c.run_with_threads(3, 64);
        assert_eq!(r.cells.len(), 8);
        // A zero-trial request clamps to one trial per cell.
        let zero = Campaign { plan: TrialPlan::new(0), ..campaign() };
        assert_eq!(zero.plan.trials(), 1);
        let z = zero.run_with_threads(3, 64);
        assert!(z.cells.iter().all(|cell| cell.trials == 1));
        assert_eq!(z.to_json(), r.to_json());
    }
}
