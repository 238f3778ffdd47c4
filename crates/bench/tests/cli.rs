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

#[test]
fn a_fine_clustering_fraction_outside_the_unit_interval_is_a_usage_error() {
    // Regression: these parsed as plain floats, then panicked a trial worker
    // (exit 101), aborted on a failed allocation (exit 134), or reported a
    // wrapped round count with exit 0.
    for (scenario, key) in [
        ("broadcast{jmin=1e300}@grid(8x8)", "jmin"),
        ("broadcast{jmax=1e300}@grid(8x8)", "jmax"),
        ("broadcast{jmax=20}@grid(8x8)", "jmax"),
    ] {
        let out = experiments(&["--scenario", scenario, "--trials", "1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{scenario}: stderr: {stderr}");
        assert!(stderr.contains(&format!("{key} takes a fraction in [0, 1]")), "stderr: {stderr}");
        assert!(out.stdout.is_empty(), "{scenario}: nothing runs");
    }
}

#[test]
fn check_rejects_a_results_file_outside_the_json_grammar() {
    // Regression: a signed `\u` escape, a raw tab inside a string and a
    // leading zero all passed `--check`, which read the id as "A<TAB>x".
    let smoke = include_str!("../../../benchmarks/baseline_smoke.json");
    let id = r#""id":"smoke""#;
    let seed = r#""master_seed":20170725"#;
    let cases = [
        ("unedited", smoke.to_string()),
        ("signed_escape", smoke.replacen(id, r#""id":"\u+041""#, 1)),
        ("raw_tab", smoke.replacen(id, "\"id\":\"a\tx\"", 1)),
        ("leading_zero", smoke.replacen(seed, r#""master_seed":020170725"#, 1)),
        (
            "all_three",
            smoke.replacen(id, "\"id\":\"\\u+041\tx\"", 1).replacen(
                seed,
                r#""master_seed":020170725"#,
                1,
            ),
        ),
    ];
    for (name, text) in cases {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
        std::fs::write(&path, &text).expect("results file written");
        let out = experiments(&["--check", path.to_str().expect("UTF-8 path")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        if name == "unedited" {
            assert_eq!(out.status.code(), Some(0), "{name}: stderr: {stderr}");
        } else {
            assert_ne!(text, smoke, "{name}: the edit applies");
            assert_eq!(out.status.code(), Some(1), "{name}: stderr: {stderr}");
            assert!(stderr.contains("JSON parse error"), "{name}: stderr: {stderr}");
        }
    }
}
