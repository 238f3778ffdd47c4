//! Property-based round-trip tests for the scenario-string grammar over the
//! **open family registry**: `!jam(K,P)` / `!drop(P)` / `!crash(P)` fault
//! suffixes, `{key=value}` parameter overrides, per-family positional
//! arguments (`compete(K,POLICY)`, `partition(BETA)`,
//! `schedule(OP[,BETA])`, …). `parse(display(x)) == x` must hold for every
//! constructible value, not just hand-picked examples — float values rely
//! on Rust's shortest-round-trip `Display`, which these tests pin down.
//! Arbitrary strings must never panic any of the four parsers.

use proptest::prelude::*;
use rn_bench::{families, find_family, Overrides, ProtocolSpec, ScenarioSpec};
use rn_graph::TopologySpec;
use rn_sim::{FaultPlan, OverrideClass};
use std::fmt::{Debug, Display};
use std::str::FromStr;

/// Strategy: an arbitrary *valid* fault plan (including the fault-free one).
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (0usize..5, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0u8..8).prop_map(
        |(jammers, jp, dp, cp, shape)| {
            // The shape bits toggle each clause so all eight combinations of
            // jam/drop/crash (including none) are exercised.
            let jammers = if shape & 1 != 0 { jammers.max(1) } else { 0 };
            let dp = if shape & 2 != 0 { dp } else { 0.0 };
            let cp = if shape & 4 != 0 { cp } else { 0.0 };
            FaultPlan::try_new(jammers, jp, dp, cp).expect("generated plans are valid")
        },
    )
}

/// Strategy: a valid override list over distinct keys of the Compete
/// schema (possibly empty), with values in each key's class.
fn arb_overrides() -> impl Strategy<Value = Overrides> {
    let family = find_family("broadcast").expect("broadcast is registered");
    let schema = family.overrides();
    let bits = schema.len() as u32;
    (0u32..(1 << bits), proptest::collection::vec(0.0f64..8.0, schema.len())).prop_map(
        move |(mask, raw)| {
            let pairs = schema.iter().enumerate().filter_map(|(i, spec)| {
                if mask & (1 << i) == 0 {
                    return None;
                }
                let v = raw[i];
                let v = match spec.class {
                    OverrideClass::Flag => {
                        if v < 4.0 {
                            0.0
                        } else {
                            1.0
                        }
                    }
                    OverrideClass::Int => 1.0 + v.floor(),
                    OverrideClass::Float => v,
                    OverrideClass::Fraction => v / 8.0,
                };
                Some((spec.key, v))
            });
            Overrides::try_from_pairs(family, pairs).expect("generated overrides are valid")
        },
    )
}

/// Strategy: a canonical protocol-spec *string* drawn from every registered
/// family, with randomized positional arguments where the family takes any.
fn arb_protocol_string() -> impl Strategy<Value = String> {
    (0usize..13, 1usize..16, 0usize..3, 1u32..10, 0u8..2).prop_map(
        |(pick, k, policy, beta_grid, with_beta)| {
            let with_beta = with_beta == 1;
            let beta = f64::from(beta_grid) / 10.0;
            let policy = ["", ",clustered", ",corner"][policy];
            match pick {
                0 => "broadcast".into(),
                1 => "broadcast_hw".into(),
                2 => format!("compete({k}{policy})"),
                3 => "leader_election".into(),
                4 => "bgi".into(),
                5 => "truncated".into(),
                6 => {
                    ["binsearch_le(bgi)", "binsearch_le(cd17)", "binsearch_le(beep)"][k % 3].into()
                }
                7 => format!("decay({k})"),
                8 => format!("decay_trunc({k})"),
                9 => "broadcast_cd".into(),
                10 => format!("compete_cd({k})"),
                11 => format!("partition({beta})"),
                12 => {
                    let op = ["downcast", "upcast"][k % 2];
                    if with_beta && beta != 0.25 {
                        format!("schedule({op},{beta})")
                    } else {
                        format!("schedule({op})")
                    }
                }
                _ => unreachable!(),
            }
        },
    )
}

/// The words scenario strings are made of: every registered family name
/// and override key, every topology and fault form's name, the
/// grammar's punctuation, signed, huge and non-finite numbers, and
/// multibyte characters.
fn vocabulary() -> Vec<String> {
    let head = |form: &str| form.split('(').next().unwrap_or(form).to_string();
    let mut words: Vec<String> = Vec::new();
    for f in families() {
        words.push(f.name().into());
        words.extend(f.overrides().iter().map(|key| key.key.to_string()));
    }
    words.extend(TopologySpec::GRAMMAR.iter().map(|form| head(form)));
    words.extend(FaultPlan::GRAMMAR.iter().map(|form| head(form)));
    // `|`-separated so that a space is one of the words.
    let extra = "uniform|clustered|corner|bgi|cd17|beep|downcast|upcast|(|)|{|}|=|,|@|!|x| \
                 |0|1|2|4|7|-1|+3|0.5|-0.5|0.25|1e6|1e-300|1e308|1e400|-1e400|NaN|nan|inf|-inf\
                 |4x4|6x6|0x3|18446744073709551616|99999999999999999999|σ|é|日本|🦀|\u{202e}|\0";
    words.extend(extra.split('|').map(String::from));
    words
}

/// Strategy: a scenario-ish string — a valid scenario (or nothing) edited by
/// up to eight random insertions of vocabulary words and deletions of
/// characters.
fn arb_scenario_soup() -> impl Strategy<Value = String> {
    let words = vocabulary();
    let n = words.len();
    let edits = proptest::collection::vec((0u8..3, 0..n, 0usize..64), 0..8);
    (0usize..4, edits).prop_map(move |(base, edits)| {
        let mut s = [
            "",
            "broadcast@grid(4x4)",
            "compete(4,corner){mu=0.2}@rgg(50,0.3)!jam(2,0.5)",
            "schedule(upcast,0.1)@torus(6x6)!drop(0.1)!crash(0.01)",
        ][base]
            .to_string();
        for (op, word, at) in edits {
            let chars = s.chars().count();
            let pos = s.char_indices().nth(at % (chars + 1)).map_or(s.len(), |(i, _)| i);
            if op == 0 && pos < s.len() {
                s.remove(pos);
            } else {
                s.insert_str(pos, &words[word]);
            }
        }
        s
    })
}

/// Parses `s` as a `T`: an `Err` is fine, a panic fails the case, and an
/// `Ok` value must re-parse from its `Display` to an equal value.
fn parses_or_rejects<T>(s: &str) -> Result<(), TestCaseError>
where
    T: FromStr + Display + PartialEq + Debug,
    T::Err: Display,
{
    if let Ok(v) = s.parse::<T>() {
        let shown = v.to_string();
        match shown.parse::<T>() {
            Ok(back) => prop_assert_eq!(back, v, "{:?} displays as {:?}", s, shown),
            Err(e) => prop_assert!(false, "{:?} displays as {:?}, which fails: {}", s, shown, e),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn arbitrary_scenario_strings_never_panic_the_parsers(s in arb_scenario_soup()) {
        parses_or_rejects::<ScenarioSpec>(&s)?;
        // The halves of a scenario feed the other three parsers, so edited
        // protocols, topologies and fault plans all reach their own parser.
        let (proto, rest) = s.split_once('@').unwrap_or((&s, ""));
        let (topo, faults) = rest.split_once('!').unwrap_or((rest, ""));
        for part in [s.as_str(), proto, topo, faults] {
            parses_or_rejects::<ProtocolSpec>(part)?;
            parses_or_rejects::<TopologySpec>(part)?;
            parses_or_rejects::<FaultPlan>(part)?;
        }
    }
}

proptest! {
    #[test]
    fn fault_plan_strings_round_trip(plan in arb_fault_plan()) {
        let s = plan.to_string();
        let back: FaultPlan = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
        prop_assert_eq!(back, plan, "parse(display) for {}", s);
    }

    #[test]
    fn fault_suffixes_round_trip_through_scenario_specs(plan in arb_fault_plan()) {
        let mut s = "bgi@grid(4x4)".to_string();
        if !plan.is_none() {
            s.push('!');
            s.push_str(&plan.to_string());
        }
        let spec: ScenarioSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
        prop_assert_eq!(spec.faults, plan);
        prop_assert_eq!(spec.to_string(), s, "canonical form is stable");
    }

    #[test]
    fn override_lists_round_trip_through_protocol_specs(overrides in arb_overrides()) {
        let mut spec = ProtocolSpec::parse("broadcast");
        spec.overrides = overrides;
        let s = spec.to_string();
        let back: ProtocolSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
        prop_assert_eq!(back, spec, "parse(display) for {}", s);
    }

    #[test]
    fn every_registered_family_round_trips(proto in arb_protocol_string()) {
        let spec: ProtocolSpec = proto.parse().unwrap_or_else(|e| panic!("{proto}: {e}"));
        prop_assert_eq!(spec.to_string(), proto.clone(), "canonical form is stable");
        let back: ProtocolSpec = spec.to_string().parse().expect("reparses");
        prop_assert_eq!(back, spec, "parse(display) for {}", proto);
    }

    #[test]
    fn full_scenario_strings_round_trip(
        proto in arb_protocol_string(),
        overrides in arb_overrides(),
        plan in arb_fault_plan(),
    ) {
        let mut protocol: ProtocolSpec = proto.parse().expect("protocol");
        // The generated overrides reference the Compete schema, so they only
        // attach to families sharing it.
        let compete_schema = find_family("broadcast").expect("registered").overrides();
        if protocol.family().overrides() != compete_schema {
            protocol = ProtocolSpec::parse("compete(4)");
        }
        protocol.overrides = overrides;
        let spec = ScenarioSpec {
            protocol,
            topology: "grid(4x4)".parse().expect("topology"),
            faults: plan,
        };
        let s = spec.to_string();
        let back: ScenarioSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
        prop_assert_eq!(back, spec, "parse(display) for {}", s);
    }

    #[test]
    fn overridden_specs_survive_the_string_trip_exactly(value in 0.001f64..1000.0) {
        let spec: ProtocolSpec = format!("broadcast{{curtail={value}}}")
            .parse()
            .unwrap_or_else(|e| panic!("curtail={value}: {e}"));
        let (key, parsed) = spec.overrides.pairs()[0];
        prop_assert_eq!(key.key, "curtail");
        prop_assert_eq!(parsed, value, "float survives the string trip");
    }
}
