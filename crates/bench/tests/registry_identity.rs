//! Registry byte-identity regression gate: one fingerprint per protocol
//! instance over the exact JSON cells a campaign emits for it.
//!
//! The committed baselines pin only `broadcast`, `bgi`, `leader_election`
//! and `decay(16)` cells, and the other identity gates fold
//! [`rn_sim::TrialRecord`]s, not the cell labels. This test covers every
//! registered family: each canonical instance of [`ProtocolSpec::all`], plus
//! a non-default schedule β, a Compete override on the Haeupler–Wajc base
//! parameters and a deterministic source placement. Each runs as a 2-trial
//! [`Campaign::single`] on `grid(6x6)` under a list of fault plans, and
//! every rendered cell — `protocol` label, effective model, fault plan,
//! round and channel statistics — is folded byte for byte into a
//! SplitMix64 fingerprint. One table pins the cells fault-free and under
//! `drop(0.05)`; a second pins them under crash-stop and jamming, the fault
//! paths the engine resolves per listener.

use rn_bench::{Campaign, Json, ProtocolSpec, ScenarioSpec};
use rn_sim::rng::splitmix64;
use rn_sim::FaultPlan;

fn fold(h: &mut u64, x: u64) {
    *h = splitmix64(*h ^ x);
}

/// Folds `bytes` (length first, then little-endian 8-byte words).
fn fold_bytes(h: &mut u64, bytes: &[u8]) {
    fold(h, bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        fold(h, u64::from_le_bytes(word));
    }
}

/// The fingerprint of `protocol`'s cells on `grid(6x6)`, one per plan in
/// `plans`.
fn fingerprint(protocol: &str, plans: &[FaultPlan]) -> u64 {
    let mut h = 0;
    for faults in plans {
        let suffix = if faults.is_none() { String::new() } else { format!("!{faults}") };
        let scenario: ScenarioSpec = format!("{protocol}@grid(6x6){suffix}")
            .parse()
            .unwrap_or_else(|e| panic!("{protocol}: {e}"));
        let doc = Campaign::single(&scenario, 2).run_with_threads(20170725, 2).to_json();
        let doc = Json::parse(&doc).expect("results parse");
        let cells = doc.get("cells").and_then(Json::as_arr).expect("a cells array");
        assert_eq!(cells.len(), 1, "{scenario}: one cell");
        let label = cells[0].get("protocol").and_then(Json::as_str);
        assert_eq!(label, Some(protocol), "{scenario}: the cell is labelled by its spec");
        fold_bytes(&mut h, cells[0].render().as_bytes());
    }
    h
}

#[test]
fn every_family_cell_is_byte_identical() {
    // (protocol spec, pinned fingerprint of its two cells).
    let pinned: &[(&str, u64)] = &[
        ("broadcast", 0x9eb2_f7b0_f3b6_8499),
        ("broadcast_hw", 0xa188_1344_f9e5_e8c3),
        ("compete(4)", 0x2f89_90fe_f7fe_38db),
        ("compete(4,clustered)", 0xde1d_d506_beee_e3f5),
        ("compete(4,corner)", 0xee1d_0ed6_cc69_4707),
        ("leader_election", 0x2d13_d82c_ace6_357b),
        ("bgi", 0x336e_84a7_fe1a_e521),
        ("truncated", 0xd6c1_4b5c_a553_f697),
        ("binsearch_le(bgi)", 0xca40_5533_087d_bfea),
        ("binsearch_le(cd17)", 0x2879_564d_1f0f_9b23),
        ("binsearch_le(beep)", 0xb220_6b6d_8af9_8c64),
        ("decay(4)", 0x1478_87d8_972c_187d),
        ("decay_trunc(4)", 0x4238_75ea_c28d_0eae),
        ("broadcast_cd", 0x0e90_6930_1d4c_f7f8),
        ("compete_cd(4)", 0xeb6b_49e7_5b53_4e52),
        ("partition(0.5)", 0xd4b9_a1cf_bd7f_eea0),
        ("schedule(downcast)", 0x41eb_ef00_bb83_e5bf),
        ("schedule(upcast)", 0xa176_920e_1053_1e66),
        ("schedule(upcast,0.1)", 0xf99e_5f88_d878_a2d6),
        ("broadcast_hw{mu=0.5}", 0xf887_8af2_5eeb_3668),
        ("compete(3,corner)", 0x7f79_8b7a_6067_e383),
    ];
    check(pinned, &[FaultPlan::none(), FaultPlan::drop(0.05)]);
}

#[test]
fn every_family_cell_is_byte_identical_under_crash_and_jam() {
    // (protocol spec, pinned fingerprint of its two cells).
    let pinned: &[(&str, u64)] = &[
        ("broadcast", 0x29a9_3147_f1d2_2bd5),
        ("broadcast_hw", 0x1596_c738_ae37_bc33),
        ("compete(4)", 0x3edb_b16d_635f_729d),
        ("compete(4,clustered)", 0x1868_82d2_6257_79d4),
        ("compete(4,corner)", 0x8bb6_270d_36f4_4a3e),
        ("leader_election", 0xcf42_8f19_5d99_951d),
        ("bgi", 0xc240_e185_5265_21e0),
        ("truncated", 0xfd2f_88ff_5fe5_cd5b),
        ("binsearch_le(bgi)", 0x512b_8dcb_2209_7b6c),
        ("binsearch_le(cd17)", 0x5080_028b_647b_8f12),
        ("binsearch_le(beep)", 0x3e00_4c5c_7806_b72e),
        ("decay(4)", 0xf994_4430_de3e_ba44),
        ("decay_trunc(4)", 0xc3ec_7101_07d9_1306),
        ("broadcast_cd", 0x4d12_bb54_fcae_ffdf),
        ("compete_cd(4)", 0x2a3f_f789_1d8b_d979),
        ("partition(0.5)", 0x633d_b08e_f67c_78b4),
        ("schedule(downcast)", 0xac7d_9cfd_e317_2c8c),
        ("schedule(upcast)", 0xcfcc_3c4d_f8fe_6ca3),
        ("schedule(upcast,0.1)", 0x69e4_73c4_61e8_6ea6),
        ("broadcast_hw{mu=0.5}", 0xb8c6_fd2f_d753_ee69),
        ("compete(3,corner)", 0xcffe_995c_8d24_a45f),
    ];
    check(pinned, &[FaultPlan::crash(0.00005), FaultPlan::jam(1, 0.05)]);
}

/// Asserts that `pinned` covers every canonical registry instance and that
/// each entry's cells under `plans` still fold to its fingerprint.
fn check(pinned: &[(&str, u64)], plans: &[FaultPlan]) {
    for spec in ProtocolSpec::all() {
        let s = spec.to_string();
        assert!(pinned.iter().any(|&(p, _)| p == s), "{s} has no pinned fingerprint");
    }
    let mismatches: Vec<String> = pinned
        .iter()
        .map(|&(spec, want)| (spec, want, fingerprint(spec, plans)))
        .filter(|&(_, want, got)| got != want)
        .map(|(spec, want, got)| format!("(\"{spec}\", {got:#018x}), // pinned {want:#018x}"))
        .collect();
    assert!(mismatches.is_empty(), "registry cell bytes changed:\n{}", mismatches.join("\n"));
}
