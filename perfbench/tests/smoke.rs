//! Smoke runs of both binaries on every workload: a few trials each, checked
//! for a passing result line that carries exactly the catalogued metrics.

use perfbench::report::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::Workload;
use rn_bench::Json;
use std::process::Command;

fn smoke(binary: &str, workload: Workload, trace: bool, defs: &[MetricDef]) {
    let out = Command::new(binary)
        .args(["--workload", workload.name(), "--seed", "11", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{} failed:\n{stdout}", workload.name());
    let last = stdout.lines().last().expect("a result line");
    let doc = Json::parse(last).expect("the last line is JSON");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{last}");
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0), "{last}");
    assert!(doc.get("attempted").and_then(Json::as_u64).is_some_and(|n| n >= 1), "{last}");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("no metrics object: {last}") };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, expected, "{}", workload.name());
    for (d, (_, m)) in defs.iter().zip(metrics) {
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit), "{}", d.name);
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{} has a numeric value", d.name);
    }
}

#[test]
fn untraced_smoke_runs_pass_on_every_workload() {
    for w in Workload::ALL {
        smoke(env!("CARGO_BIN_EXE_perfbench"), w, false, END_TO_END);
    }
}

#[test]
fn traced_smoke_runs_pass_on_every_workload() {
    for w in Workload::ALL {
        smoke(env!("CARGO_BIN_EXE_perfbench-trace"), w, true, PER_LAYER);
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
