//! The metric catalogue and the result line the benchmark prints last.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

use rn_bench::Json;

/// One reported metric: its stable name and its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`).
    pub name: &'static str,
    /// Unit (`[A-Za-z0-9_/%.-]{1,16}`).
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the executor sees, printed by every untraced run.
///
/// `fail_frac` is not in this list: it is 0 on a healthy run, so it travels
/// as the result line's `attempted`/`failed` pair instead.
pub const END_TO_END: &[MetricDef] = &[
    def("trials_per_s", "1/s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
    def("done_frac", "ratio"),
    def("trial_ms_p50", "ms"),
    def("trial_ms_tail", "ms"),
    def("rounds_p50", "rounds"),
];

/// Per-layer numbers, printed by every traced run. A layer that does no
/// work on a workload reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("graph.build_ms", "ms"),
    def("graph.diameter_ms", "ms"),
    def("graph.hybrid_ms", "ms"),
    def("graph.edges", "count"),
    def("cluster.partition_ms", "ms"),
    def("cluster.partition_calls", "count"),
    def("schedule.tree_ms", "ms"),
    def("schedule.tree_calls", "count"),
    def("core.precompute_ms", "ms"),
    def("core.propagation_ms", "ms"),
    def("core.transmit_ms", "ms"),
    def("core.sim_rounds", "rounds"),
    def("core.charged_rounds", "rounds"),
    def("decay.transmit_ms", "ms"),
    def("sim.rounds", "rounds"),
    def("sim.dense_rounds", "rounds"),
    def("sim.edges_scanned", "count"),
    def("sim.deliveries", "count"),
    def("sim.collisions", "count"),
    def("sim.engine_ms", "ms"),
    def("sim.edges_per_us", "1/us"),
    def("sim.delivery_ratio", "ratio"),
    def("bench.execute_ms", "ms"),
    def("bench.trial_sum_ms", "ms"),
    def("bench.overhead_ms", "ms"),
    def("bench.sink_ms", "ms"),
    def("bench.cells", "count"),
    def("bench.scaling_2w", "ratio"),
    def("host.runq_wait_ms", "ms"),
    def("host.steal_ms", "ms"),
    def("trace.overhead_frac", "ratio"),
];

/// The percentiles the executor's cell statistics carry.
pub const EXECUTOR_PERCENTILES: &[u32] = &[50, 95, 99];

/// The tail rule: the highest of `percentiles` with at least ten of
/// `samples` beyond it (`samples · (100 − p) ≥ 1000`). `None` when even the
/// lowest has fewer than ten beyond it.
pub fn tail_percentile(samples: u64, percentiles: &[u32]) -> Option<u32> {
    percentiles.iter().copied().filter(|&p| samples * u64::from(100 - p) >= 1000).max()
}

/// The median of `values` (sorted in place; 0 for an empty slice).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    rn_bench::exact_quantile_sorted(values, 0.5)
}

/// Renders the result line: `correct`, `attempted`, `failed` and one
/// `{value, unit}` object per entry of `defs`, in catalogue order.
///
/// # Errors
///
/// A metric of `defs` missing from `values`, a value not in `defs`, or a
/// non-finite value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[(&str, f64)],
) -> Result<String, String> {
    if let Some((name, _)) = values.iter().find(|(n, _)| !defs.iter().any(|d| d.name == *n)) {
        return Err(format!("metric {name} is not in the catalogue"));
    }
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let value = values
            .iter()
            .find(|(n, _)| *n == d.name)
            .map(|&(_, v)| v)
            .ok_or(format!("metric {} was not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite ({value})", d.name));
        }
        let entry =
            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::Str(d.unit.into()))]);
        metrics.push((d.name, entry));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric-name charset of `BENCHMARK.json`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The unit charset of `BENCHMARK.json`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(19, EXECUTOR_PERCENTILES), None);
        assert_eq!(tail_percentile(20, EXECUTOR_PERCENTILES), Some(50));
        assert_eq!(tail_percentile(199, EXECUTOR_PERCENTILES), Some(50));
        assert_eq!(tail_percentile(200, EXECUTOR_PERCENTILES), Some(95));
        assert_eq!(tail_percentile(999, EXECUTOR_PERCENTILES), Some(95));
        assert_eq!(tail_percentile(1000, EXECUTOR_PERCENTILES), Some(99));
        // Cell-level tails of the mix offer p90 as well.
        assert_eq!(tail_percentile(112, &[50, 90, 95, 99]), Some(90));
        assert_eq!(tail_percentile(99, &[50, 90, 95, 99]), Some(50));
    }

    #[test]
    fn every_catalogued_name_and_unit_fits_the_charset() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} of {}", d.unit, d.name);
        }
        let mut names: Vec<_> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are used once");
    }

    #[test]
    fn charset_rejects_what_benchmark_json_forbids() {
        for bad in ["", "_lead", ".lead", "has space", "dash–en", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        for good in ["a", "9lives", "graph.build_ms", "x-y_z.w", &"x".repeat(64)] {
            assert!(valid_name(good), "{good:?} must be accepted");
        }
        for bad in ["", "–", "ms per trial", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?} must be rejected");
        }
        for good in ["ms", "1/s", "%", "count", "1/us"] {
            assert!(valid_unit(good), "{good:?} must be accepted");
        }
    }

    #[test]
    fn catalogue_matches_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(listed, ours, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_carries_every_metric_or_refuses() {
        let defs = &END_TO_END[..2];
        let line = result_line(true, 10, 0, defs, &[("setup_s", 0.25), ("trials_per_s", 12.5)])
            .expect("complete metric set");
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"trials_per_s":{"value":12.5,"unit":"1/s"},"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
        assert!(result_line(true, 1, 0, defs, &[("setup_s", 1.0)]).is_err(), "missing metric");
        assert!(
            result_line(true, 1, 0, defs, &[("setup_s", 1.0), ("trials_per_s", f64::NAN)]).is_err()
        );
        assert!(result_line(
            true,
            1,
            0,
            defs,
            &[("setup_s", 1.0), ("trials_per_s", 1.0), ("extra", 1.0)]
        )
        .is_err());
    }
}
