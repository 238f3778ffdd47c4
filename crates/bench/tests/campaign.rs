//! Integration tests for the scenario subsystem: registry-driven campaign
//! runs, seed determinism of the JSON results file, and the zero-code-change
//! scenario path the CLI exposes.

use rn_bench::{
    executor, validate_results, Campaign, ExecOptions, Json, JsonStreamSink, ProtocolSpec,
    ScenarioSpec, TrialPlan,
};
use rn_graph::TopologySpec;
use rn_sim::{CollisionModel, FaultPlan};

fn small_campaign() -> Campaign {
    Campaign {
        id: "determinism".into(),
        // One deterministic and one seeded topology, one paper protocol and
        // one baseline, one faulted cell per pair — exercises every
        // seed-derivation path.
        topologies: vec![
            TopologySpec::Grid { w: 6, h: 6 },
            TopologySpec::Rgg { n: 64, radius: 0.25 },
        ],
        protocols: vec![ProtocolSpec::parse("broadcast"), ProtocolSpec::parse("bgi")],
        models: vec![CollisionModel::NoCollisionDetection],
        faults: vec![FaultPlan::none(), FaultPlan::jam(2, 0.5)],
        plan: TrialPlan::new(3),
    }
}

#[test]
fn same_master_seed_gives_byte_identical_json() {
    let campaign = small_campaign();
    let a = campaign.run(1234).to_json();
    let b = campaign.run(1234).to_json();
    assert_eq!(a, b, "same campaign + same master seed must be byte-identical");

    let c = campaign.run(1235).to_json();
    assert_ne!(a, c, "a different master seed must change the results file");

    let doc = Json::parse(&a).expect("results parse");
    validate_results(&doc).expect("results validate against the v1 schema");
    assert_eq!(doc.get("master_seed").and_then(Json::as_u64), Some(1234));
    assert_eq!(doc.get("cells").and_then(Json::as_arr).map(<[Json]>::len), Some(8));
}

#[test]
fn scenario_string_runs_protocol_topology_pair_without_bench_edits() {
    // The acceptance path: an algorithm/topology pairing that exists nowhere
    // in the bench crate as code — only as this string.
    let spec: ScenarioSpec =
        "leader_election@ring_of_cliques(5,6)".parse().expect("scenario parses");
    let result = Campaign::single(&spec, 3).run(99);
    assert_eq!(result.cells.len(), 1);
    let cell = &result.cells[0];
    assert_eq!(cell.protocol, "leader_election");
    assert_eq!(cell.topology, "ring_of_cliques(5,6)");
    assert_eq!(cell.n, 30);
    assert_eq!(cell.completed, cell.trials, "leader election must elect on every trial");
    assert!(cell.rounds.mean > 0.0);
}

#[test]
fn collision_model_axis_produces_distinct_cells() {
    let campaign = Campaign {
        id: "models".into(),
        topologies: vec![TopologySpec::Star(64)],
        protocols: vec![ProtocolSpec::parse("decay(8)")],
        models: vec![CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection],
        faults: Campaign::no_faults(),
        plan: TrialPlan::new(2),
    };
    let result = campaign.run(7);
    assert_eq!(result.cells.len(), 2);
    assert_eq!(result.cells[0].model, "nocd");
    assert_eq!(result.cells[1].model, "cd");
}

#[test]
fn faulted_scenario_string_runs_records_and_reproduces() {
    // The acceptance path: a Compete-family protocol with a parameter
    // override, crossed with interference, all from one string. (Scaled-down
    // topology versus the CLI example so the test stays fast.)
    let spec: ScenarioSpec =
        "broadcast{curtail=1e6}@rgg(100,0.2)!jam(3,0.5)".parse().expect("scenario parses");
    let campaign = Campaign::single(&spec, 3);
    let a = campaign.run(42);
    let b = campaign.run(42);
    assert_eq!(a.to_json(), b.to_json(), "faulted runs are byte-identical per master seed");

    assert_eq!(a.cells.len(), 1);
    let cell = &a.cells[0];
    assert_eq!(cell.protocol, "broadcast{curtail=1000000}");
    assert_eq!(cell.faults, "jam(3,0.5)");
    let doc = Json::parse(&a.to_json()).expect("parses");
    validate_results(&doc).expect("fault fields are schema-valid");
    let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(cells[0].get("faults").and_then(Json::as_str), Some("jam(3,0.5)"));
}

#[test]
fn jammed_cells_degrade_relative_to_sunny_day_cells() {
    // Same protocol, same topology, fault axis [none, heavy jam]: the
    // faulted cell must never beat the sunny-day cell on completions, and
    // under total jamming nothing completes.
    let campaign = Campaign {
        id: "degrade".into(),
        topologies: vec![TopologySpec::Grid { w: 8, h: 8 }],
        protocols: vec![ProtocolSpec::parse("bgi")],
        models: vec![CollisionModel::NoCollisionDetection],
        faults: vec![FaultPlan::none(), FaultPlan::jam(64, 1.0)],
        plan: TrialPlan::new(3),
    };
    let r = campaign.run(5);
    assert_eq!(r.cells.len(), 2);
    assert_eq!(r.cells[0].completed, 3);
    assert_eq!(r.cells[1].completed, 0, "total jamming defeats every trial");
    // With every node jamming every round there are no listeners left at
    // all: the channel is saturated with noise and delivers nothing.
    assert!(r.cells[1].transmissions.mean > 0.0, "the jammers really transmit");
    assert_eq!(r.cells[1].deliveries.mean, 0.0, "nothing gets through");
}

#[test]
fn thread_count_never_changes_the_results_file() {
    // The acceptance property behind `--threads`: the executor's output is a
    // pure function of (campaign, master seed). One thread and eight threads
    // must produce byte-identical JSON, faulted cells included.
    let campaign = small_campaign();
    let serial = campaign.run_with_threads(1234, 1).to_json();
    let parallel = campaign.run_with_threads(1234, 8).to_json();
    assert_eq!(serial, parallel, "--threads 1 and --threads 8 must agree byte-for-byte");
    validate_results(&Json::parse(&serial).expect("parses")).expect("schema-valid");
}

#[test]
fn streamed_json_is_byte_identical_to_the_in_memory_path() {
    // The CLI's --json path streams cells as they complete; the bytes on
    // disk must equal CampaignResult::to_json exactly — same master seed,
    // any thread count.
    let campaign = small_campaign();
    let expected = campaign.run_with_threads(77, 1).to_json();
    let mut sink = JsonStreamSink::new(Vec::new());
    executor::execute_with(&campaign, 77, 8, &mut sink, ExecOptions::default())
        .expect("streamed run");
    let streamed = String::from_utf8(sink.into_inner().expect("flush")).expect("utf8");
    assert_eq!(streamed, expected);
}

#[test]
fn placement_scenario_string_runs_and_separates_from_uniform() {
    // The new placement axis end-to-end: corner placement runs from a pure
    // string, labels its cells, and (being a different source set) produces
    // a different trial stream than uniform placement under the same seed.
    let corner: ScenarioSpec = "compete(4,corner)@grid(8x8)".parse().expect("parses");
    let r = Campaign::single(&corner, 3).run(21);
    assert_eq!(r.cells[0].protocol, "compete(4,corner)");
    assert_eq!(r.cells[0].completed, 3);
    let uniform: ScenarioSpec = "compete(4)@grid(8x8)".parse().expect("parses");
    let u = Campaign::single(&uniform, 3).run(21);
    assert_ne!(
        r.cells[0].rounds, u.cells[0].rounds,
        "corner and uniform placement are distinct workloads"
    );
}

#[test]
fn model_record_is_the_effective_model_not_the_requested_one() {
    // A beep-wave probe can only run under collision detection; requesting
    // nocd must not mislabel the results file.
    let spec: ScenarioSpec = "binsearch_le(beep)@grid(6x6)".parse().expect("parses");
    let campaign = Campaign::single(&spec, 2); // requests nocd by default
    let result = campaign.run(3);
    assert_eq!(result.cells[0].model, "cd", "record states the model trials truly ran under");
    assert_eq!(result.cells[0].completed, 2);
}

#[test]
fn smoke_preset_json_is_byte_identical_to_the_committed_baseline() {
    // The registry redesign's byte-compatibility gate: the `smoke` preset
    // under the CI seed must reproduce `benchmarks/baseline_smoke.json`
    // (generated before the ProtocolFamily redesign) byte for byte — same
    // grammar canonicalization, same per-axis seed streams, same
    // aggregation. If this fails after an *intentional* workload change,
    // refresh the baseline as documented in `.github/workflows/ci.yml`.
    let baseline = include_str!("../../../benchmarks/baseline_smoke.json");
    let preset = rn_bench::presets::find("smoke").expect("smoke preset registered");
    let rn_bench::presets::PresetKind::Campaign(build) = preset.kind else {
        panic!("smoke must be a campaign preset");
    };
    let json = build().run(20170725).to_json();
    assert_eq!(json, baseline, "smoke campaign JSON drifted from the committed baseline");
}

#[test]
fn subprotocol_scenarios_run_and_land_in_campaign_json() {
    // The acceptance strings for the new families, scaled to test size
    // where the full-size topology is slow; each must parse, run, and
    // appear in schema-valid campaign JSON under its canonical name.
    for (spec_str, trials) in [
        ("partition(0.5)@grid(16x16)", 2),
        ("schedule(upcast)@torus(12x12)", 2),
        ("schedule(downcast)@grid(12x12)", 2),
        ("compete_cd(4)@rgg(200,0.12)!crash(0.01)", 2),
        ("broadcast_cd@grid(12x12)", 2),
    ] {
        let spec: ScenarioSpec = spec_str.parse().unwrap_or_else(|e| panic!("{spec_str}: {e}"));
        let r = Campaign::single(&spec, trials).run(17);
        assert_eq!(r.cells.len(), 1, "{spec_str}");
        let cell = &r.cells[0];
        assert_eq!(cell.protocol, spec.protocol.to_string(), "{spec_str}");
        assert_eq!(cell.trials, trials);
        assert!(cell.rounds.mean > 0.0, "{spec_str} consumed rounds");
        let doc = Json::parse(&r.to_json()).expect("parses");
        validate_results(&doc).unwrap_or_else(|e| panic!("{spec_str}: {e}"));
        let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
        assert_eq!(
            cells[0].get("protocol").and_then(Json::as_str),
            Some(spec.protocol.to_string().as_str()),
            "{spec_str} appears in campaign JSON"
        );
    }
}

#[test]
fn cd_exploiting_cells_complete_where_the_wave_has_cd() {
    // The point of the cd axis redesign: broadcast_cd *uses* the extra bit.
    // On a modest grid its cells complete, and the recorded model is cd
    // regardless of the requested axis value.
    let spec: ScenarioSpec = "broadcast_cd@grid(10x10)".parse().expect("parses");
    let r = Campaign::single(&spec, 3).run(5);
    assert_eq!(r.cells[0].model, "cd", "record states the model trials truly ran under");
    assert_eq!(r.cells[0].completed, 3, "broadcast_cd completes on grid-10x10");
}

#[test]
fn crash_faulted_scenarios_degrade_and_reproduce() {
    // Crash-stop end to end through the campaign path: heavy crash defeats
    // broadcasting, and the fault plan travels into the results file.
    let spec: ScenarioSpec = "bgi@grid(8x8)!crash(0.2)".parse().expect("parses");
    let campaign = Campaign::single(&spec, 3);
    let a = campaign.run(9);
    let b = campaign.run(9);
    assert_eq!(a.to_json(), b.to_json(), "crash-faulted runs are byte-identical per seed");
    assert_eq!(a.cells[0].faults, "crash(0.2)");
    assert!(
        a.cells[0].completed < 3,
        "a 20%/round crash hazard must defeat some grid-8x8 broadcasts"
    );
    let doc = Json::parse(&a.to_json()).expect("parses");
    validate_results(&doc).expect("crash fault fields are schema-valid");
}
