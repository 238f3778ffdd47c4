//! Argument checks of the `experiments` binary, run as a child process.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("binary runs")
}

#[test]
fn zero_trials_is_a_usage_error() {
    // Regression: `--trials 0` used to run one trial silently and record
    // `"trials_per_cell":1`, where `--threads 0` was already rejected.
    for flag in ["--trials", "--threads"] {
        let out = experiments(&["--scenario", "broadcast@path(5)", flag, "0"]);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: usage errors exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{flag} takes a positive integer")), "stderr: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} 0: nothing runs");
    }
}

#[test]
fn a_positive_trial_count_runs() {
    let out = experiments(&["--scenario", "broadcast@path(5)", "--trials", "2"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn a_node_count_beyond_the_id_space_is_a_spec_error() {
    // Regression: the spec used to parse, and building it aborted the
    // process on a failed allocation (exit 134).
    let out = experiments(&["--scenario", "broadcast@grid(4294967296x2)", "--trials", "1"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("too many nodes"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing runs");
}
