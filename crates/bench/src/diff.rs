//! Cross-run regression detection: compares two `rn-bench-results/v1`
//! documents cell-by-cell and flags mean-rounds movements that exceed trial
//! noise.
//!
//! Cells are keyed on `topology × protocol × model × faults`. For a matched
//! pair the mean-rounds delta is judged against a noise band derived from
//! the recorded per-cell `stddev` and trial counts: the standard error of a
//! difference of means,
//!
//! ```text
//! band = sigma · sqrt(s_a²/t_a + s_b²/t_b)
//! ```
//!
//! with `sigma` the confidence multiplier [`DEFAULT_SIGMA`] (3). Files
//! predating the `stddev` field get a zero-width band, so *any* movement is
//! flagged — strict, but honest about having no noise estimate. A cell
//! present in the baseline but missing from the new run counts as a
//! regression (coverage loss must fail loudly); cells only in the new run
//! are reported informationally.
//!
//! Beyond the mean, matched cells also report their rounds p50/p95 tail
//! estimates side by side (when the files carry the additive quantile
//! fields). The tail is the paper's actual guarantee — w.h.p. round bounds
//! — so [`DiffOptions::p95_gate_pct`] opts into failing cells whose rounds
//! p95 grew by more than a percentage, exactly parallel to the opt-in
//! wall-clock gate. Cells missing p95 on either side (pre-quantile files)
//! are never p95-gated, so old baselines keep diffing gracefully.
//!
//! The `bench-diff` binary wraps this module: markdown report to stdout,
//! exit code 1 when [`DiffReport::has_regressions`].

use crate::campaign::validate_results;
use crate::harness::Table;
use crate::json::Json;

/// Confidence multiplier for the noise band (≈ 3 standard errors).
pub const DEFAULT_SIGMA: f64 = 3.0;

/// How one baseline/new cell pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Mean rounds rose beyond the noise band — the failure condition.
    Regressed,
    /// Mean rounds fell beyond the noise band.
    Improved,
    /// The delta is within the noise band.
    WithinNoise,
    /// The cell exists in the baseline but not in the new run (treated as a
    /// regression: coverage was lost).
    MissingInNew,
    /// The cell exists only in the new run (informational).
    NewOnly,
}

impl DiffStatus {
    /// Short human label for the report table.
    pub fn label(self) -> &'static str {
        match self {
            DiffStatus::Regressed => "REGRESSED",
            DiffStatus::Improved => "improved",
            DiffStatus::WithinNoise => "ok",
            DiffStatus::MissingInNew => "MISSING",
            DiffStatus::NewOnly => "new",
        }
    }
}

/// One row of the comparison: a cell key and how its mean rounds moved.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// `topology × protocol × model × faults` key.
    pub key: String,
    /// Baseline mean rounds (`None` for [`DiffStatus::NewOnly`]).
    pub base_mean: Option<f64>,
    /// New mean rounds (`None` for [`DiffStatus::MissingInNew`]).
    pub new_mean: Option<f64>,
    /// Half-width of the noise band the delta was judged against.
    pub noise: f64,
    /// The verdict.
    pub status: DiffStatus,
    /// Baseline rounds p50 (absent in pre-quantile files).
    pub base_p50: Option<f64>,
    /// New-run rounds p50 (absent in pre-quantile files).
    pub new_p50: Option<f64>,
    /// Baseline rounds p95 — informational unless
    /// [`DiffOptions::p95_gate_pct`] opts into gating on it.
    pub base_p95: Option<f64>,
    /// New-run rounds p95, same default-informational status.
    pub new_p95: Option<f64>,
    /// Baseline `elapsed_ms` annotation, when the file has one.
    /// **Informational by default** — wall-clock is machine-dependent, so
    /// it only gates when the caller opts in via
    /// [`DiffOptions::time_gate_pct`] (the scale lane, where machine and scenario are
    /// pinned); elsewhere wall-clock is read from `--timing` runs and the
    /// `perfbench` workloads, not gated here.
    pub base_elapsed_ms: Option<u64>,
    /// New-run `elapsed_ms` annotation, same default-informational status.
    pub new_elapsed_ms: Option<u64>,
}

impl DiffRow {
    /// `new_mean - base_mean` when both sides exist.
    pub fn delta(&self) -> Option<f64> {
        Some(self.new_mean? - self.base_mean?)
    }
}

/// Full comparison of two results documents.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Baseline document id.
    pub base_id: String,
    /// New document id.
    pub new_id: String,
    /// Opt-in wall-clock gate: cells whose `elapsed_ms` grew by more than
    /// this percentage count as regressed. `None` (the default) keeps
    /// elapsed time informational.
    pub time_gate_pct: Option<f64>,
    /// Opt-in tail gate: cells whose rounds p95 grew by more than this
    /// percentage count as regressed. `None` (the default) keeps the
    /// quantile columns informational.
    pub p95_gate_pct: Option<f64>,
    /// One row per cell key, in baseline order (new-only cells last).
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Whether any row fails the gate (regressed or missing coverage).
    pub fn has_regressions(&self) -> bool {
        self.rows
            .iter()
            .any(|r| matches!(r.status, DiffStatus::Regressed | DiffStatus::MissingInNew))
    }

    /// Count of rows with the given status.
    pub fn count(&self, status: DiffStatus) -> usize {
        self.rows.iter().filter(|r| r.status == status).count()
    }

    /// Renders the comparison as a markdown table with a verdict footnote.
    pub fn to_markdown(&self) -> String {
        let time_gate =
            self.time_gate_pct.map_or(String::new(), |pct| format!(", elapsed-ms gate +{pct}%"));
        let p95_gate = self.p95_gate_pct.map_or(String::new(), |pct| format!(", p95 gate +{pct}%"));
        let mut t = Table::new(
            format!(
                "bench-diff: {} → {} (±{DEFAULT_SIGMA}σ noise band{p95_gate}{time_gate})",
                self.base_id, self.new_id
            ),
            &[
                "cell",
                "base mean",
                "new mean",
                "delta",
                "band",
                "p50",
                "p95",
                "verdict",
                "elapsed ms",
            ],
        );
        let num = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.1}"));
        let ms = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |x| x.to_string());
        // "base → new" pairs collapse to "-" when neither side has the
        // value (pre-quantile / untimed files).
        let pair = |base: String, new: String| {
            if base == "-" && new == "-" {
                "-".to_string()
            } else {
                format!("{base} → {new}")
            }
        };
        for r in &self.rows {
            let delta = r.delta().map_or_else(
                || "-".to_string(),
                |d| format!("{}{:.1}", if d >= 0.0 { "+" } else { "" }, d),
            );
            t.row(&[
                r.key.clone(),
                num(r.base_mean),
                num(r.new_mean),
                delta,
                format!("±{:.1}", r.noise),
                // Tail estimates are shown whenever a side has them but
                // only judged under an explicit p95-gate percentage.
                pair(num(r.base_p50), num(r.new_p50)),
                pair(num(r.base_p95), num(r.new_p95)),
                r.status.label().to_string(),
                // Wall-clock likewise gates only under an explicit
                // time-gate percentage; by default the seed-deterministic
                // round counts alone gate.
                pair(ms(r.base_elapsed_ms), ms(r.new_elapsed_ms)),
            ]);
        }
        t.note(if self.has_regressions() {
            format!(
                "FAIL: {} regressed, {} missing (of {} cells)",
                self.count(DiffStatus::Regressed),
                self.count(DiffStatus::MissingInNew),
                self.rows.len()
            )
        } else {
            format!(
                "PASS: {} cells — {} within noise, {} improved, {} new",
                self.rows.len(),
                self.count(DiffStatus::WithinNoise),
                self.count(DiffStatus::Improved),
                self.count(DiffStatus::NewOnly)
            )
        });
        t.to_markdown()
    }
}

/// Knobs for a diff beyond the two documents: the two opt-in gates.
/// `Default` reproduces the plain informational diff.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffOptions {
    /// Opt-in wall-clock gate percentage (see [`DiffReport::time_gate_pct`]).
    pub time_gate_pct: Option<f64>,
    /// Opt-in rounds-p95 tail gate percentage (see
    /// [`DiffReport::p95_gate_pct`]).
    pub p95_gate_pct: Option<f64>,
}

/// A cell's comparison-relevant numbers.
struct CellNums {
    key: String,
    mean: f64,
    stddev: f64,
    p50: Option<f64>,
    p95: Option<f64>,
    trials: f64,
    elapsed_ms: Option<u64>,
}

fn extract(doc: &Json) -> Result<(String, Vec<CellNums>), String> {
    validate_results(doc)?;
    let id = doc.get("id").and_then(Json::as_str).expect("validated above").to_string();
    let cells = doc.get("cells").and_then(Json::as_arr).expect("validated above");
    let mut out = Vec::with_capacity(cells.len());
    for cell in cells {
        let s = |k: &str| cell.get(k).and_then(Json::as_str).expect("validated above");
        // `faults` is additive in v1: absent means the pre-fault-axis
        // fault-free default, which keys identically to "none".
        let faults = cell.get("faults").and_then(Json::as_str).unwrap_or("none");
        let rounds = cell.get("rounds").expect("validated above");
        out.push(CellNums {
            key: format!("{} × {} × {} × {}", s("topology"), s("protocol"), s("model"), faults),
            mean: rounds.get("mean").and_then(Json::as_f64).expect("validated above"),
            stddev: rounds.get("stddev").and_then(Json::as_f64).unwrap_or(0.0),
            // Additive quantile fields: absent in pre-quantile files, in
            // which case the tail columns degrade to "-" and the p95 gate
            // never fires.
            p50: rounds.get("p50").and_then(Json::as_f64),
            p95: rounds.get("p95").and_then(Json::as_f64),
            trials: cell.get("trials").and_then(Json::as_u64).expect("validated above") as f64,
            elapsed_ms: cell.get("elapsed_ms").and_then(Json::as_u64),
        });
    }
    Ok((id, out))
}

/// Compares `base` and `new` (parsed results documents) under the noise
/// multiplier and opt-in gates of `options`; [`DiffOptions::default`] is
/// the plain informational diff.
///
/// When [`DiffOptions::time_gate_pct`] is `Some(pct)`, a matched cell whose
/// `elapsed_ms` grew by more than `pct` percent over the baseline counts as
/// [`DiffStatus::Regressed`] even if its rounds are within noise. The p95
/// gate mirrors it: a matched cell whose rounds p95 grew by more than
/// [`DiffOptions::p95_gate_pct`] percent counts as regressed. Cells
/// missing `elapsed_ms` (or p95) on either side are never gated on it —
/// there is nothing to judge — and the round gate still applies to them.
///
/// # Errors
///
/// A schema-validation message if either document is not a well-formed
/// `rn-bench-results/v1` file, or a description of duplicate cell keys.
pub fn diff_results_with(
    base: &Json,
    new: &Json,
    options: DiffOptions,
) -> Result<DiffReport, String> {
    let DiffOptions { time_gate_pct, p95_gate_pct } = options;
    let (base_id, base_cells) = extract(base)?;
    let (new_id, new_cells) = extract(new)?;
    for cells in [&base_cells, &new_cells] {
        let mut keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        keys.sort_unstable();
        if let Some(w) = keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate cell key {:?} (not a valid campaign cross)", w[0]));
        }
    }
    let mut rows = Vec::with_capacity(base_cells.len());
    for b in &base_cells {
        let row = match new_cells.iter().find(|n| n.key == b.key) {
            None => DiffRow {
                key: b.key.clone(),
                base_mean: Some(b.mean),
                new_mean: None,
                noise: 0.0,
                status: DiffStatus::MissingInNew,
                base_p50: b.p50,
                new_p50: None,
                base_p95: b.p95,
                new_p95: None,
                base_elapsed_ms: b.elapsed_ms,
                new_elapsed_ms: None,
            },
            Some(n) => {
                let noise = DEFAULT_SIGMA
                    * (b.stddev * b.stddev / b.trials.max(1.0)
                        + n.stddev * n.stddev / n.trials.max(1.0))
                    .sqrt();
                let delta = n.mean - b.mean;
                let mut status = if delta > noise {
                    DiffStatus::Regressed
                } else if -delta > noise {
                    DiffStatus::Improved
                } else {
                    DiffStatus::WithinNoise
                };
                // Both opt-in gates share the missing-field semantics: a
                // side without the value cannot be judged, so the gate
                // stays silent and the mean gate alone applies.
                if let (Some(pct), Some(bp), Some(np)) = (p95_gate_pct, b.p95, n.p95) {
                    if np > bp * (1.0 + pct / 100.0) {
                        status = DiffStatus::Regressed;
                    }
                }
                if let (Some(pct), Some(be), Some(ne)) = (time_gate_pct, b.elapsed_ms, n.elapsed_ms)
                {
                    if ne as f64 > be as f64 * (1.0 + pct / 100.0) {
                        status = DiffStatus::Regressed;
                    }
                }
                DiffRow {
                    key: b.key.clone(),
                    base_mean: Some(b.mean),
                    new_mean: Some(n.mean),
                    noise,
                    status,
                    base_p50: b.p50,
                    new_p50: n.p50,
                    base_p95: b.p95,
                    new_p95: n.p95,
                    base_elapsed_ms: b.elapsed_ms,
                    new_elapsed_ms: n.elapsed_ms,
                }
            }
        };
        rows.push(row);
    }
    for n in &new_cells {
        if !base_cells.iter().any(|b| b.key == n.key) {
            rows.push(DiffRow {
                key: n.key.clone(),
                base_mean: None,
                new_mean: Some(n.mean),
                noise: 0.0,
                status: DiffStatus::NewOnly,
                base_p50: None,
                new_p50: n.p50,
                base_p95: None,
                new_p95: n.p95,
                base_elapsed_ms: None,
                new_elapsed_ms: n.elapsed_ms,
            });
        }
    }
    Ok(DiffReport { base_id, new_id, time_gate_pct, p95_gate_pct, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain diff plus a 10 % wall-clock gate.
    const TIME_GATE_10: DiffOptions = DiffOptions { time_gate_pct: Some(10.0), p95_gate_pct: None };

    /// A minimal schema-valid document with one tweakable cell.
    fn doc(mean: f64, stddev: f64, trials: u64, protocol: &str) -> String {
        format!(
            r#"{{"schema":"rn-bench-results/v1","id":"unit","master_seed":1,"trials_per_cell":{trials},"cells":[{{"topology":"grid(4x4)","protocol":"{protocol}","model":"nocd","faults":"none","n":16,"diameter":6,"trials":{trials},"completed":{trials},"rounds":{{"mean":{mean},"min":1,"max":9,"stddev":{stddev}}},"deliveries":{{"mean":1,"min":1,"max":1,"stddev":0}},"collisions":{{"mean":1,"min":1,"max":1,"stddev":0}},"transmissions":{{"mean":1,"min":1,"max":1,"stddev":0}}}}]}}"#
        )
    }

    fn parse(s: &str) -> Json {
        Json::parse(s).expect("test doc parses")
    }

    #[test]
    fn identical_files_report_zero_regressions() {
        let a = parse(&doc(100.0, 5.0, 10, "bgi"));
        let r = diff_results_with(&a, &a, DiffOptions::default()).expect("diffs");
        assert!(!r.has_regressions());
        assert_eq!(r.count(DiffStatus::WithinNoise), 1);
        assert!(r.to_markdown().contains("PASS"), "{}", r.to_markdown());
    }

    #[test]
    fn regression_beyond_the_noise_band_is_flagged() {
        // band = 3·sqrt(25/10 + 25/10) ≈ 6.7; a +50 move is far outside.
        let a = parse(&doc(100.0, 5.0, 10, "bgi"));
        let b = parse(&doc(150.0, 5.0, 10, "bgi"));
        let r = diff_results_with(&a, &b, DiffOptions::default()).expect("diffs");
        assert!(r.has_regressions());
        assert_eq!(r.rows[0].status, DiffStatus::Regressed);
        assert_eq!(r.rows[0].delta(), Some(50.0));
        assert!(r.to_markdown().contains("REGRESSED"));
        // The same move downward is an improvement, not a failure.
        let r = diff_results_with(&b, &a, DiffOptions::default()).expect("diffs");
        assert!(!r.has_regressions());
        assert_eq!(r.rows[0].status, DiffStatus::Improved);
    }

    #[test]
    fn small_moves_stay_within_noise_and_zero_stddev_is_strict() {
        // +4 against a ±6.7 band: noise.
        let a = parse(&doc(100.0, 5.0, 10, "bgi"));
        let b = parse(&doc(104.0, 5.0, 10, "bgi"));
        let r = diff_results_with(&a, &b, DiffOptions::default()).expect("diffs");
        assert_eq!(r.rows[0].status, DiffStatus::WithinNoise);
        // stddev 0 (deterministic cells or pre-stddev files): any upward
        // movement is out of band.
        let a = parse(&doc(100.0, 0.0, 10, "bgi"));
        let b = parse(&doc(100.5, 0.0, 10, "bgi"));
        assert!(diff_results_with(&a, &b, DiffOptions::default())
            .expect("diffs")
            .has_regressions());
    }

    #[test]
    fn missing_cells_fail_and_new_cells_inform() {
        let a = parse(&doc(100.0, 5.0, 10, "bgi"));
        let b = parse(&doc(100.0, 5.0, 10, "truncated"));
        let r = diff_results_with(&a, &b, DiffOptions::default()).expect("diffs");
        assert!(r.has_regressions(), "losing a baseline cell must fail the gate");
        assert_eq!(r.count(DiffStatus::MissingInNew), 1);
        assert_eq!(r.count(DiffStatus::NewOnly), 1);
        let md = r.to_markdown();
        assert!(md.contains("MISSING") && md.contains("new"), "{md}");
    }

    #[test]
    fn pre_stddev_files_diff_with_a_zero_band() {
        // Drop the stddev fields entirely (a PR-3-era file): still diffs.
        let old = doc(100.0, 0.0, 10, "bgi").replace(",\"stddev\":0}", "}");
        assert!(!old.contains("stddev"));
        let a = parse(&old);
        let r = diff_results_with(&a, &a, DiffOptions::default()).expect("old schema diffs");
        assert!(!r.has_regressions());
        assert_eq!(r.rows[0].noise, 0.0);
    }

    #[test]
    fn elapsed_ms_is_reported_but_never_gates() {
        // A timed new run that is 100× slower on the wall clock but has
        // identical rounds must still pass: elapsed_ms is informational.
        let a = parse(&doc(100.0, 5.0, 10, "bgi"));
        let timed = doc(100.0, 5.0, 10, "bgi")
            .replace("\"stddev\":0}}]}", "\"stddev\":0},\"elapsed_ms\":52100}]}");
        let b = parse(&timed);
        assert!(b.get("cells").unwrap().as_arr().unwrap()[0].get("elapsed_ms").is_some());
        let r = diff_results_with(&a, &b, DiffOptions::default()).expect("diffs");
        assert!(!r.has_regressions());
        assert_eq!(r.rows[0].base_elapsed_ms, None);
        assert_eq!(r.rows[0].new_elapsed_ms, Some(52100));
        let md = r.to_markdown();
        assert!(md.contains("- → 52100"), "{md}");
        // Both sides timed: rendered as base → new.
        let r = diff_results_with(&b, &b, DiffOptions::default()).expect("diffs");
        assert!(r.to_markdown().contains("52100 → 52100"));
    }

    /// A timed variant of [`doc`] (fixed rounds, tweakable wall-clock).
    fn timed_doc(ms: u64) -> Json {
        parse(
            &doc(100.0, 5.0, 10, "bgi")
                .replace("\"stddev\":0}}]}", &format!("\"stddev\":0}},\"elapsed_ms\":{ms}}}]}}")),
        )
    }

    #[test]
    fn time_gate_passes_growth_within_the_percentage() {
        let r = diff_results_with(&timed_doc(1000), &timed_doc(1040), TIME_GATE_10).expect("diffs");
        assert!(!r.has_regressions(), "+4% elapsed is inside a 10% gate");
        assert_eq!(r.rows[0].status, DiffStatus::WithinNoise);
        assert!(r.to_markdown().contains("elapsed-ms gate +10%"), "{}", r.to_markdown());
        // Exactly at the threshold is still a pass (the gate is strict >).
        let r = diff_results_with(&timed_doc(1000), &timed_doc(1100), TIME_GATE_10).expect("diffs");
        assert!(!r.has_regressions());
    }

    #[test]
    fn time_gate_flags_elapsed_regressions_beyond_the_percentage() {
        let base = timed_doc(1000);
        let slow = timed_doc(1200);
        // Without the gate the same pair passes (informational default).
        let r = diff_results_with(&base, &slow, DiffOptions::default()).expect("diffs");
        assert!(!r.has_regressions(), "default stays informational");
        // With a 10% gate, +20% wall-clock is a regression even though the
        // round counts are identical.
        let r = diff_results_with(&base, &slow, TIME_GATE_10).expect("diffs");
        assert!(r.has_regressions());
        assert_eq!(r.rows[0].status, DiffStatus::Regressed);
        assert!(r.to_markdown().contains("FAIL"), "{}", r.to_markdown());
    }

    #[test]
    fn time_gate_ignores_cells_missing_elapsed_on_either_side() {
        let untimed = parse(&doc(100.0, 5.0, 10, "bgi"));
        for (a, b) in [(&untimed, &timed_doc(9999)), (&timed_doc(9999), &untimed)] {
            let r = diff_results_with(a, b, TIME_GATE_10).expect("diffs");
            assert!(!r.has_regressions(), "absent elapsed_ms cannot be judged");
            assert_eq!(r.rows[0].status, DiffStatus::WithinNoise);
        }
    }

    /// A quantile-carrying variant of [`doc`] (fixed mean, tweakable tail).
    fn quantile_doc(p95: f64) -> Json {
        parse(&doc(100.0, 5.0, 10, "bgi").replace(
            "\"stddev\":5}",
            &format!("\"stddev\":5,\"p50\":99.0,\"p95\":{p95},\"p99\":{}}}", p95 + 4.0),
        ))
    }

    #[test]
    fn p95_gate_flags_tail_regressions_beyond_the_percentage() {
        let base = quantile_doc(120.0);
        let heavy_tail = quantile_doc(150.0);
        // Without the gate the same pair passes: quantiles are
        // informational by default, and the means are identical.
        let r = diff_results_with(&base, &heavy_tail, DiffOptions::default()).expect("diffs");
        assert!(!r.has_regressions(), "default keeps the tail informational");
        assert!(r.to_markdown().contains("120.0 → 150.0"), "{}", r.to_markdown());
        // With a 10% gate, +25% p95 is a regression even at equal means.
        let opts = DiffOptions { p95_gate_pct: Some(10.0), ..DiffOptions::default() };
        let r = diff_results_with(&base, &heavy_tail, opts).expect("diffs");
        assert!(r.has_regressions());
        assert_eq!(r.rows[0].status, DiffStatus::Regressed);
        let md = r.to_markdown();
        assert!(md.contains("p95 gate +10%") && md.contains("FAIL"), "{md}");
        // Growth inside the gate — and an identical pair — both pass.
        let mild = quantile_doc(126.0);
        assert!(!diff_results_with(&base, &mild, opts).expect("diffs").has_regressions());
        assert!(!diff_results_with(&base, &base, opts).expect("diffs").has_regressions());
    }

    #[test]
    fn new_results_degrade_gracefully_against_pre_quantile_files() {
        // Satellite: a v1 file written before the quantile fields existed
        // diffs against a quantile-carrying one with "-" tail columns, a
        // silent p95 gate, a live mean gate, and unchanged exit semantics.
        let old = parse(&doc(100.0, 5.0, 10, "bgi"));
        let new = quantile_doc(120.0);
        let opts = DiffOptions { p95_gate_pct: Some(0.0), ..DiffOptions::default() };
        for (a, b) in [(&old, &new), (&new, &old)] {
            let r = diff_results_with(a, b, opts).expect("mixed generations diff");
            assert!(!r.has_regressions(), "absent p95 cannot be judged, even at gate 0%");
            assert_eq!(r.rows[0].status, DiffStatus::WithinNoise);
        }
        // One-sided tails render as "- → x" (and x → -), like elapsed ms.
        let md = diff_results_with(&old, &new, opts).expect("diffs").to_markdown();
        assert!(md.contains("- → 120.0"), "{md}");
        // Two pre-quantile files: tail columns collapse to "-".
        let r = diff_results_with(&old, &old, opts).expect("diffs");
        assert_eq!(r.rows[0].base_p95, None);
        let md = r.to_markdown();
        let data_row = md.lines().find(|l| l.contains("bgi")).expect("row");
        let dashes = data_row.split('|').filter(|cell| cell.trim() == "-").count();
        assert!(dashes >= 3, "p50/p95/elapsed columns degrade to '-': {data_row}");
        // The mean gate still fires across generations.
        let regressed = parse(&doc(150.0, 5.0, 10, "bgi"));
        assert!(diff_results_with(&old, &regressed, opts).expect("diffs").has_regressions());
    }

    #[test]
    fn invalid_documents_are_rejected() {
        let good = parse(&doc(1.0, 0.0, 1, "bgi"));
        let bad = parse(r#"{"schema":"other/v9","id":"x","master_seed":1,"cells":[{}]}"#);
        assert!(diff_results_with(&bad, &good, DiffOptions::default()).is_err());
        assert!(diff_results_with(&good, &bad, DiffOptions::default()).is_err());
    }
}
