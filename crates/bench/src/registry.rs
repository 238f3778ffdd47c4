//! The scenario registry: the assembled **open protocol-family registry**,
//! plus the combined `protocol@topology` scenario spec.
//!
//! The registry is the seam that makes workloads data instead of code: a
//! campaign (or the `experiments --scenario` CLI) names protocols and
//! topologies as strings, and the registry instantiates the matching
//! [`Runnable`] from whichever crate registered the family. Since the
//! [`ProtocolFamily`] redesign, this module no longer *knows* the
//! protocols: it assembles the family lists contributed by `rn_core`,
//! `rn_baselines`, `rn_decay`, `rn_cluster` and `rn_schedule` (in that
//! order) and drives everything — parsing, validation, override schemas,
//! help output, instantiation — through the trait. Adding an algorithm
//! anywhere in the workspace is one `ProtocolFamily` value plus one line in
//! its crate's `families()`; no code here changes.
//!
//! A [`ProtocolSpec`]'s `Display` is the only name a protocol has: the
//! executor labels every result cell, and bench workloads their ids, with
//! that string. A `Runnable` never names itself.
//!
//! Three orthogonal string axes ride on the base grammar:
//!
//! * **parameter overrides** — families with an override schema (the
//!   Compete family: `broadcast`, `broadcast_hw`, `compete`,
//!   `leader_election`) accept per-cell numeric `{key=value}` overrides,
//!   e.g. `broadcast{curtail=1e6}` or `compete(4){mu=0.2,background=0}`;
//! * **positional arguments** — per-family grammar, e.g. `compete(4,corner)`,
//!   `binsearch_le(beep)`, `partition(0.5)`, `schedule(upcast,0.1)`;
//! * **fault suffixes** — a scenario may append `!jam(K,P)`, `!drop(P)`
//!   and/or `!crash(P)` after the topology, e.g.
//!   `broadcast@rgg(500,0.08)!jam(5,0.5)!crash(0.01)`, parsed into an
//!   [`rn_sim::FaultPlan`].
//!
//! All round-trip through `Display`/`FromStr` exactly like the base
//! grammar; non-canonical input (`compete(4,uniform)`) normalizes on the
//! first round trip.

use rn_graph::TopologySpec;
use rn_sim::{CollisionModel, FaultPlan, OverrideSpec, ProtocolFamily, Runnable};
use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::OnceLock;

/// Every registered protocol family, in listing order (assembly order of
/// the contributing crates; the pre-redesign families keep their historic
/// positions so `--list` and error messages stay stable).
pub fn families() -> &'static [&'static dyn ProtocolFamily] {
    static REGISTRY: OnceLock<Vec<&'static dyn ProtocolFamily>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut all: Vec<&'static dyn ProtocolFamily> = Vec::new();
        all.extend(rn_core::families());
        all.extend(rn_baselines::families());
        all.extend(rn_decay::families());
        all.extend(rn_cluster::families());
        all.extend(rn_schedule::families());
        for (i, f) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|g| g.name() != f.name()),
                "duplicate protocol family name {:?} in the registry",
                f.name()
            );
        }
        all
    })
}

/// Looks a family up by name.
pub fn find_family(name: &str) -> Option<&'static dyn ProtocolFamily> {
    families().iter().copied().find(|f| f.name() == name)
}

/// Error from parsing a [`ProtocolSpec`] or [`ScenarioSpec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryError {
    msg: String,
}

impl RegistryError {
    fn new(msg: impl Into<String>) -> RegistryError {
        RegistryError { msg: msg.into() }
    }
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario spec: {}", self.msg)
    }
}

impl Error for RegistryError {}

/// An ordered list of per-cell parameter overrides, written
/// `{key=value,key=value}` after a protocol name. Each pair references an
/// entry of the owning family's [`OverrideSpec`] schema; values display in
/// Rust's shortest-round-trip float form, so `parse(display(x)) == x`
/// exactly.
#[derive(Debug, Clone, Default)]
pub struct Overrides(Vec<(&'static OverrideSpec, f64)>);

impl PartialEq for Overrides {
    fn eq(&self, other: &Overrides) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(&(a, av), &(b, bv))| a.key == b.key && av == bv)
    }
}

impl Overrides {
    /// No overrides (the default for every plain protocol name).
    pub fn none() -> Overrides {
        Overrides(Vec::new())
    }

    /// Builds from `(key, value)` pairs resolved against `family`'s schema.
    ///
    /// # Errors
    ///
    /// [`RegistryError`] on a key the family does not declare (the message
    /// suggests the family's own keys), an invalid value for the key's
    /// class, or a duplicated key.
    pub fn try_from_pairs<'k>(
        family: &'static dyn ProtocolFamily,
        pairs: impl IntoIterator<Item = (&'k str, f64)>,
    ) -> Result<Overrides, RegistryError> {
        let schema = family.overrides();
        let mut out: Vec<(&'static OverrideSpec, f64)> = Vec::new();
        for (key, v) in pairs {
            let spec = schema.iter().find(|s| s.key == key).ok_or_else(|| {
                RegistryError::new(format!(
                    "unknown override key {key:?} for {} (known: {})",
                    family.name(),
                    schema.iter().map(|s| s.key).collect::<Vec<_>>().join(", ")
                ))
            })?;
            spec.validate(v).map_err(RegistryError::new)?;
            if out.iter().any(|&(seen, _)| seen.key == key) {
                return Err(RegistryError::new(format!("duplicate override key {key:?}")));
            }
            out.push((spec, v));
        }
        Ok(Overrides(out))
    }

    /// Whether there are no overrides.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The override pairs, in spec order.
    pub fn pairs(&self) -> &[(&'static OverrideSpec, f64)] {
        &self.0
    }

    /// Parses the inside of a brace list (`key=value,key=value`) against
    /// `family`'s schema.
    fn parse_inner(
        family: &'static dyn ProtocolFamily,
        s: &str,
    ) -> Result<Overrides, RegistryError> {
        if s.trim().is_empty() {
            return Err(RegistryError::new("empty override list {} (omit the braces instead)"));
        }
        let mut pairs = Vec::new();
        for item in s.split(',') {
            let item = item.trim();
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| RegistryError::new(format!("override {item:?} is not key=value")))?;
            let (key, value) = (key.trim(), value.trim());
            let v: f64 = value
                .parse()
                .map_err(|_| RegistryError::new(format!("{key}: {value:?} is not a number")))?;
            pairs.push((key, v));
        }
        Overrides::try_from_pairs(family, pairs)
    }
}

impl fmt::Display for Overrides {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return Ok(());
        }
        write!(f, "{{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}={v}", k.key)?;
        }
        write!(f, "}}")
    }
}

/// A protocol from the registry, in declarative form: a registered
/// [`ProtocolFamily`], its canonical positional arguments, and optional
/// per-cell parameter [`Overrides`]. `Display` and `FromStr` round-trip.
#[derive(Clone)]
pub struct ProtocolSpec {
    family: &'static dyn ProtocolFamily,
    /// Canonical argument text (inside the parentheses), `None` for a bare
    /// name. Always the output of the family's own `parse_args`.
    args: Option<String>,
    /// Distinct nodes the protocol needs of a topology (cached at parse
    /// time).
    required_nodes: usize,
    /// Per-cell parameter overrides (empty for most specs; only families
    /// with an override schema accept any).
    pub overrides: Overrides,
}

impl PartialEq for ProtocolSpec {
    fn eq(&self, other: &ProtocolSpec) -> bool {
        self.family.name() == other.family.name()
            && self.args == other.args
            && self.overrides == other.overrides
    }
}

impl fmt::Debug for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProtocolSpec({self})")
    }
}

impl ProtocolSpec {
    /// Parses a spec, panicking on failure — for statically known strings
    /// (presets, tests). Runtime input should use `FromStr`.
    ///
    /// # Panics
    ///
    /// Panics with the parse error if `s` is not a valid protocol spec.
    pub fn parse(s: &str) -> ProtocolSpec {
        s.parse().unwrap_or_else(|e| panic!("invalid protocol spec {s:?}: {e}"))
    }

    /// The registered family this spec names.
    pub fn family(&self) -> &'static dyn ProtocolFamily {
        self.family
    }

    /// Canonical positional-argument text, if any.
    pub fn args(&self) -> Option<&str> {
        self.args.as_deref()
    }

    /// The number of distinct nodes this protocol needs the topology to
    /// provide (source placement); 1 for single-source protocols.
    pub fn required_nodes(&self) -> usize {
        self.required_nodes
    }

    /// The spec without its overrides (for error messages).
    pub fn base(&self) -> String {
        match &self.args {
            None => self.family.name().to_string(),
            Some(a) => format!("{}({a})", self.family.name()),
        }
    }

    /// Every protocol in the registry, one canonical instance per
    /// [`ProtocolFamily::canonical_instances`] entry (parameterized forms
    /// use their default arity, no overrides) — the completeness surface
    /// `--list` and the registry tests enumerate.
    pub fn all() -> Vec<ProtocolSpec> {
        families()
            .iter()
            .flat_map(|f| {
                f.canonical_instances().iter().map(|args| {
                    let parsed = f
                        .parse_args(*args)
                        .unwrap_or_else(|e| panic!("{}: bad canonical instance: {e}", f.name()));
                    ProtocolSpec {
                        family: *f,
                        args: parsed.canonical,
                        required_nodes: parsed.required_nodes,
                        overrides: Overrides::none(),
                    }
                })
            })
            .collect()
    }

    /// Instantiates the matching [`Runnable`] from its home crate, with
    /// this spec's overrides applied. The runnable carries no name: results
    /// it produces are labelled with `self.to_string()`.
    pub fn instantiate(&self) -> Box<dyn Runnable> {
        self.family.instantiate(self.args.as_deref(), self.overrides.pairs())
    }
}

impl fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.base(), self.overrides)
    }
}

impl FromStr for ProtocolSpec {
    type Err = RegistryError;

    fn from_str(s: &str) -> Result<ProtocolSpec, RegistryError> {
        let s = s.trim();
        let (base, overrides_str) = match s.find('{') {
            Some(open) if s.ends_with('}') => (&s[..open], Some(&s[open + 1..s.len() - 1])),
            Some(_) => return Err(RegistryError::new(format!("{s:?} is missing a closing brace"))),
            None => (s, None),
        };
        let (name, args) = match base.find('(') {
            Some(open) if base.ends_with(')') => {
                (base[..open].trim(), Some(base[open + 1..base.len() - 1].trim()))
            }
            Some(_) => {
                return Err(RegistryError::new(format!(
                    "{base:?} is missing a closing parenthesis"
                )))
            }
            None => (base.trim(), None),
        };
        let family = find_family(name).ok_or_else(|| {
            RegistryError::new(format!(
                "unknown protocol {base:?} (known: {})",
                ProtocolSpec::all()
                    .iter()
                    .map(ProtocolSpec::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;
        let parsed = family.parse_args(args).map_err(RegistryError::new)?;
        let overrides = match overrides_str {
            None => Overrides::none(),
            Some(inner) => {
                if family.overrides().is_empty() {
                    let takers: Vec<&str> = families()
                        .iter()
                        .filter(|f| !f.overrides().is_empty())
                        .map(|f| f.name())
                        .collect();
                    return Err(RegistryError::new(format!(
                        "{} takes no {{...}} overrides (only {} do)",
                        family.name(),
                        takers.join(", ")
                    )));
                }
                Overrides::parse_inner(family, inner)?
            }
        };
        Ok(ProtocolSpec {
            family,
            args: parsed.canonical,
            required_nodes: parsed.required_nodes,
            overrides,
        })
    }
}

/// A full scenario: `protocol@topology` with an optional fault suffix, e.g.
/// `leader_election@torus(32x32)`, `partition(0.5)@grid(32x32)` or
/// `compete_cd(4)@rgg(500,0.08)!crash(0.01)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The protocol half (before `@`).
    pub protocol: ProtocolSpec,
    /// The topology half (after `@`, before any `!`).
    pub topology: TopologySpec,
    /// Fault plan from the `!jam(K,P)` / `!drop(P)` / `!crash(P)` suffixes
    /// ([`FaultPlan::none`] when absent).
    pub faults: FaultPlan,
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.protocol, self.topology)?;
        if !self.faults.is_none() {
            write!(f, "!{}", self.faults)?;
        }
        Ok(())
    }
}

impl FromStr for ScenarioSpec {
    type Err = RegistryError;

    fn from_str(s: &str) -> Result<ScenarioSpec, RegistryError> {
        let (proto, rest) = s
            .split_once('@')
            .ok_or_else(|| RegistryError::new(format!("{s:?} must be protocol@topology")))?;
        let (topo, faults) = match rest.split_once('!') {
            Some((topo, faults)) => {
                let plan: FaultPlan = faults
                    .parse()
                    .map_err(|e: rn_sim::FaultError| RegistryError::new(e.to_string()))?;
                (topo, plan)
            }
            None => (rest, FaultPlan::none()),
        };
        let spec = ScenarioSpec {
            protocol: proto.parse()?,
            topology: topo
                .trim()
                .parse()
                .map_err(|e: rn_graph::TopologySpecError| RegistryError::new(e.to_string()))?,
            faults,
        };
        // Placement preconditions are checkable right here, because node
        // counts are static per topology family — reject instead of letting
        // a trial panic (or silently clamp) later.
        let n = spec.topology.nodes();
        let need = spec.protocol.required_nodes();
        if need > n {
            return Err(RegistryError::new(format!(
                "{} needs {need} distinct source nodes but {} has only {n}",
                spec.protocol.base(),
                spec.topology
            )));
        }
        if spec.faults.jammers() > n {
            return Err(RegistryError::new(format!(
                "fault plan {} wants {} jammers but {} has only {n} nodes",
                spec.faults,
                spec.faults.jammers(),
                spec.topology
            )));
        }
        Ok(spec)
    }
}

/// Stable string form of a collision model (`nocd` / `cd`).
pub fn model_name(model: CollisionModel) -> &'static str {
    match model {
        CollisionModel::NoCollisionDetection => "nocd",
        CollisionModel::CollisionDetection => "cd",
    }
}

/// Parses a collision-model name (`nocd` / `cd`).
///
/// # Errors
///
/// [`RegistryError`] on anything else.
pub fn parse_model(s: &str) -> Result<CollisionModel, RegistryError> {
    match s.trim() {
        "nocd" => Ok(CollisionModel::NoCollisionDetection),
        "cd" => Ok(CollisionModel::CollisionDetection),
        other => Err(RegistryError::new(format!("unknown collision model {other:?} (nocd | cd)"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_assembles_all_contributing_crates() {
        let names: Vec<&str> = families().iter().map(|f| f.name()).collect();
        for expected in [
            // rn_core
            "broadcast",
            "broadcast_hw",
            "compete",
            "leader_election",
            // rn_baselines
            "bgi",
            "truncated",
            "binsearch_le",
            // rn_decay
            "decay",
            "decay_trunc",
            "broadcast_cd",
            "compete_cd",
            // rn_cluster
            "partition",
            // rn_schedule
            "schedule",
        ] {
            assert!(names.contains(&expected), "family {expected:?} missing from the registry");
        }
        // Names are unique (the assembly assert guards this; double-check).
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn every_family_appears_in_all_and_every_instance_round_trips() {
        let all = ProtocolSpec::all();
        for f in families() {
            assert!(
                all.iter().any(|spec| spec.family().name() == f.name()),
                "family {} has no canonical instance in ProtocolSpec::all()",
                f.name()
            );
        }
        for spec in all {
            let s = spec.to_string();
            let back: ProtocolSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(back, spec, "parse(display) round trip for {s}");
            spec.instantiate();
        }
    }

    #[test]
    fn pre_redesign_spec_strings_parse_and_display_unchanged() {
        // Byte-compatibility: every spelling that parsed before the
        // ProtocolFamily redesign parses to the same canonical form.
        for (input, canonical) in [
            ("broadcast", "broadcast"),
            ("broadcast_hw", "broadcast_hw"),
            ("compete(4)", "compete(4)"),
            ("compete(4,uniform)", "compete(4)"),
            ("compete(4,clustered)", "compete(4,clustered)"),
            ("compete(4,corner)", "compete(4,corner)"),
            ("leader_election", "leader_election"),
            ("bgi", "bgi"),
            ("truncated", "truncated"),
            ("decay(4)", "decay(4)"),
            ("decay_trunc(4)", "decay_trunc(4)"),
            ("binsearch_le(bgi)", "binsearch_le(bgi)"),
            ("binsearch_le(cd17)", "binsearch_le(cd17)"),
            ("binsearch_le(beep)", "binsearch_le(beep)"),
            ("broadcast{curtail=1e6}", "broadcast{curtail=1000000}"),
            ("compete(4){mu=0.2,background=0}", "compete(4){mu=0.2,background=0}"),
        ] {
            let spec: ProtocolSpec = input.parse().unwrap_or_else(|e| panic!("{input}: {e}"));
            assert_eq!(spec.to_string(), canonical, "canonical form of {input}");
        }
    }

    #[test]
    fn new_families_parse_args_and_validate() {
        for (s, nodes) in [
            ("partition(0.5)", 1),
            ("schedule(downcast)", 1),
            ("schedule(upcast)", 1),
            ("schedule(upcast,0.1)", 1),
            ("broadcast_cd", 1),
            ("compete_cd(4)", 4),
        ] {
            let spec: ProtocolSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s);
            assert_eq!(spec.required_nodes(), nodes, "{s}");
            spec.instantiate();
        }
        // Arg canonicalization mirrors the compete(K,uniform) precedent.
        assert_eq!(ProtocolSpec::parse("partition(0.50)").to_string(), "partition(0.5)");
        assert_eq!(ProtocolSpec::parse("schedule(upcast,0.25)").to_string(), "schedule(upcast)");
        for bad in [
            "partition",
            "partition()",
            "partition(0)",
            "partition(2)",
            "partition(x)",
            "schedule",
            "schedule(sideways)",
            "schedule(upcast,9)",
            "compete_cd",
            "compete_cd(0)",
            "broadcast_cd(1)",
        ] {
            assert!(bad.parse::<ProtocolSpec>().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn override_specs_round_trip_and_name_their_runnable() {
        for s in [
            "broadcast{curtail=1e6}",
            "broadcast_hw{curtail=2.5,mu=0.2}",
            "compete(4){mu=0.2}",
            "leader_election{background=0,max_rounds=128}",
        ] {
            let spec: ProtocolSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(!spec.overrides.is_empty());
            let back: ProtocolSpec = spec.to_string().parse().expect("reparses");
            assert_eq!(back, spec, "value round trip for {s}");
            // The spec names what it runs: the executor labels the cell with
            // the canonical override string.
            let scenario = ScenarioSpec {
                protocol: spec.clone(),
                topology: TopologySpec::Grid { w: 4, h: 4 },
                faults: FaultPlan::none(),
            };
            let result = crate::campaign::Campaign::single(&scenario, 1).run_with_threads(1, 1);
            assert_eq!(result.cells[0].protocol, spec.to_string());
        }
        // Display is the shortest float form: 1e6 renders as 1000000 but
        // parses back to the same value.
        let spec: ProtocolSpec = "broadcast{curtail=1e6}".parse().expect("parses");
        assert_eq!(spec.to_string(), "broadcast{curtail=1000000}");
    }

    #[test]
    fn unknown_override_keys_suggest_the_familys_own_schema() {
        let err = "broadcast{nosuch=1}".parse::<ProtocolSpec>().unwrap_err().to_string();
        assert!(err.contains("unknown override key \"nosuch\" for broadcast"), "{err}");
        assert!(err.contains("curtail") && err.contains("max_rounds"), "suggests keys: {err}");
        // Schema-less families name who does accept overrides instead.
        let err = "partition(0.5){curtail=1}".parse::<ProtocolSpec>().unwrap_err().to_string();
        assert!(err.contains("partition takes no {...} overrides"), "{err}");
        assert!(err.contains("broadcast") && err.contains("leader_election"), "{err}");
        // The decay families draw their coins one way and take no key.
        for (s, family) in [
            ("decay(4){coins=batched}", "decay"),
            ("decay_trunc(2){coins=per_index}", "decay_trunc"),
        ] {
            let err = s.parse::<ProtocolSpec>().unwrap_err().to_string();
            assert!(err.contains(&format!("{family} takes no {{...}} overrides")), "{err}");
        }
    }

    #[test]
    fn override_parse_rejects_malformed_lists() {
        for bad in [
            "broadcast{}",
            "broadcast{curtail}",
            "broadcast{curtail=}",
            "broadcast{curtail=abc}",
            "broadcast{nosuch=1}",
            "broadcast{curtail=1,curtail=2}",
            "broadcast{background=2}",
            "broadcast{copies_cap=0}",
            "broadcast{copies_cap=1.5}",
            "broadcast{max_rounds=inf}",
            "broadcast{jmin=1e300}",
            "broadcast{jmax=1e300}",
            "broadcast{jmax=20}",
            "broadcast{jmin=-0.5}",
            "broadcast{curtail=1",
            "bgi{curtail=1}",
            "decay(4){mu=0.2}",
            "binsearch_le(bgi){curtail=1}",
            "schedule(downcast){mu=0.2}",
            "compete_cd(4){curtail=1}",
        ] {
            assert!(bad.parse::<ProtocolSpec>().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn scenario_spec_round_trips() {
        for s in [
            "leader_election@torus(32x32)",
            "broadcast@rgg(500,0.08)!jam(5,0.5)",
            "bgi@grid(8x8)!drop(0.1)",
            "broadcast{curtail=5}@grid(8x8)!jam(2,0.5)!drop(0.01)",
            "partition(0.5)@grid(32x32)",
            "schedule(upcast)@torus(24x24)",
            "compete_cd(4)@rgg(500,0.08)!crash(0.01)",
            "decay(2)@grid(6x6)!crash(0.05)",
        ] {
            let spec: ScenarioSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s);
        }
        let spec: ScenarioSpec = "broadcast@rgg(500,0.08)!jam(5,0.5)".parse().expect("parses");
        assert_eq!(spec.faults, FaultPlan::jam(5, 0.5));
        let spec: ScenarioSpec = "bgi@grid(4x4)!crash(0.1)".parse().expect("parses");
        assert_eq!(spec.faults, FaultPlan::crash(0.1));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nosuch",
            "compete",
            "compete(0)",
            "compete(x)",
            "binsearch_le",
            "binsearch_le(zz)",
            "broadcast(3)",
            "decay(3",
        ] {
            assert!(bad.parse::<ProtocolSpec>().is_err(), "{bad:?} must be rejected");
        }
        for bad in [
            "broadcast",
            "broadcast@",
            "@grid(3x3)",
            "broadcast@nosuch(1)",
            "broadcast@grid(3x3)!",
            "broadcast@grid(3x3)!flood(1)",
            "broadcast@grid(3x3)!jam(0,0.5)",
            "broadcast@grid(3x3)!jam(2,1.5)",
            "broadcast@grid(3x3)!jam(2,0.5)!jam(2,0.5)",
            "broadcast@grid(3x3)!crash(1.5)",
        ] {
            assert!(bad.parse::<ScenarioSpec>().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn placement_preconditions_are_checked_at_parse_time() {
        // compete(K) with K > n: rejected up front, not clamped or panicked.
        let err = "compete(10)@grid(3x3)".parse::<ScenarioSpec>().unwrap_err();
        assert!(err.to_string().contains("10 distinct source nodes"), "{err}");
        assert!("compete(9)@grid(3x3)".parse::<ScenarioSpec>().is_ok(), "K = n is fine");
        // compete_cd inherits the same guard through its family.
        assert!("compete_cd(10)@grid(3x3)".parse::<ScenarioSpec>().is_err());
        // More jammers than nodes: same treatment.
        let err = "broadcast@grid(3x3)!jam(10,0.5)".parse::<ScenarioSpec>().unwrap_err();
        assert!(err.to_string().contains("10 jammers"), "{err}");
        assert!("broadcast@grid(3x3)!jam(9,0.5)".parse::<ScenarioSpec>().is_ok());
    }

    #[test]
    fn model_names_round_trip() {
        for m in [CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection] {
            assert_eq!(parse_model(model_name(m)).expect("round trips"), m);
        }
        assert!(parse_model("loud").is_err());
    }
}
