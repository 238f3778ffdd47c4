//! Cross-run regression gate: compares two `rn-bench-results/v1` files
//! cell-by-cell and fails on mean-rounds regressions beyond trial noise.
//!
//! Usage:
//!
//! ```text
//! bench-diff [--gate-p95 PCT] [--gate-time PCT] BASELINE.json NEW.json
//! ```
//!
//! Prints a markdown report to stdout. Exit codes: `0` — no regressions
//! (improvements and within-noise movements are fine); `1` — at least one
//! cell regressed beyond its noise band or vanished from the new file;
//! `2` — usage or I/O error. The noise band is
//! `3 · sqrt(s_a²/t_a + s_b²/t_b)` per cell, from the files' recorded
//! `stddev` and trial counts (see `rn_bench::diff`). By default the
//! rounds-p50/p95 and `elapsed_ms` columns are informational only:
//! `--gate-p95 PCT` opts into failing cells whose rounds p95 — the paper's
//! w.h.p. tail, the production metric — grew by more than `PCT` percent,
//! and `--gate-time PCT` does the same for wall-clock (for the scale lane,
//! where machine and scenario are pinned). Cells missing the respective
//! field on either side (e.g. pre-quantile baselines) are never gated on
//! it. CI runs this against the committed `benchmarks/baseline_smoke.json`.

#![forbid(unsafe_code)]

use rn_bench::{diff_results_with, DiffOptions, Json};

fn main() {
    let mut gate_time: Option<f64> = None;
    let mut gate_p95: Option<f64> = None;
    let mut files: Vec<String> = Vec::new();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--gate-time" => {
                let v = it.next().unwrap_or_else(|| usage("missing value for --gate-time"));
                gate_time = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|p| p.is_finite() && *p >= 0.0)
                        .unwrap_or_else(|| usage("--gate-time takes a non-negative percentage")),
                );
            }
            "--gate-p95" => {
                let v = it.next().unwrap_or_else(|| usage("missing value for --gate-p95"));
                gate_p95 = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|p| p.is_finite() && *p >= 0.0)
                        .unwrap_or_else(|| usage("--gate-p95 takes a non-negative percentage")),
                );
            }
            other if !other.starts_with('-') => files.push(other.to_string()),
            other => usage(&format!("unexpected argument {other:?}")),
        }
    }
    let [base_path, new_path] = files.as_slice() else {
        usage("expected exactly two results files (BASELINE NEW)");
    };

    let base = load(base_path);
    let new = load(new_path);
    let options = DiffOptions { time_gate_pct: gate_time, p95_gate_pct: gate_p95 };
    let report = diff_results_with(&base, &new, options).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    print!("{}", report.to_markdown());
    if report.has_regressions() {
        std::process::exit(1);
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    })
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("usage: bench-diff [--gate-p95 PCT] [--gate-time PCT] BASELINE.json NEW.json");
    std::process::exit(2);
}
