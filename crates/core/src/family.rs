//! [`ProtocolFamily`] registrations for the paper's algorithms: `broadcast`,
//! `broadcast_hw`, `compete(K[,POLICY])` and `leader_election`.
//!
//! All four run [`CompeteScenario`] over [`CompeteParams`], so they share
//! one override schema ([`COMPETE_OVERRIDES`]): every `{key=value}` pair
//! addresses one `CompeteParams` field, class-validated at parse time and
//! applied by [`apply_overrides`] at instantiation. The three bare names
//! differ only in constants — base parameters and a [`SourceRule`] — so they
//! are `static` values of one [`BareCompeteFamily`]; `compete` parses its
//! own arguments.

use crate::params::CompeteParams;
use crate::scenario::{CompeteScenario, SourcePlacement, SourceRule};
use rn_sim::family::{parse_count, OverrideClass, OverrideSpec, ParsedArgs, ProtocolFamily};
use rn_sim::Runnable;

/// The shared override schema of the Compete-family protocols: each key
/// addresses one [`CompeteParams`] field. Keys are deliberately short — they
/// live inside scenario strings.
// A `static` (not `const`): both family types' `overrides()` methods must
// return the *same* slice address — the listing groups shared schemas by
// pointer identity, and const promotion does not guarantee one allocation
// per use.
pub static COMPETE_OVERRIDES: &[OverrideSpec] = &[
    OverrideSpec::new("curtail", "main-process curtailment multiplier", OverrideClass::Float),
    OverrideSpec::new("bg_curtail", "background curtailment multiplier", OverrideClass::Float),
    OverrideSpec::new("mu", "background density multiplier (bg_beta_factor)", OverrideClass::Float),
    OverrideSpec::new("coarse_exp", "coarse clustering exponent", OverrideClass::Float),
    OverrideSpec::new("bg_exp", "background clustering exponent", OverrideClass::Float),
    OverrideSpec::new("jmin", "fine-clustering j range lower fraction", OverrideClass::Fraction),
    OverrideSpec::new("jmax", "fine-clustering j range upper fraction", OverrideClass::Fraction),
    OverrideSpec::new("copies_exp", "fine clusterings per j (exponent)", OverrideClass::Float),
    OverrideSpec::new("copies_cap", "fine clusterings per j (hard cap, int)", OverrideClass::Int),
    OverrideSpec::new("seq_exp", "clustering-sequence length exponent", OverrideClass::Float),
    OverrideSpec::new("background", "Compete background process (0|1)", OverrideClass::Flag),
    OverrideSpec::new("icp_bg", "ICP background process (0|1)", OverrideClass::Flag),
    OverrideSpec::new("foreign", "accept foreign-cluster values (0|1)", OverrideClass::Flag),
    OverrideSpec::new("max_rounds", "safety budget factor (int)", OverrideClass::Int),
];

/// Applies schema-validated `(key, value)` override pairs to `p`. The keys
/// must come from [`COMPETE_OVERRIDES`] (the registry guarantees this for
/// parsed specs).
///
/// # Panics
///
/// Panics on a key that is not in the schema.
pub fn apply_overrides(p: &mut CompeteParams, pairs: &[(&'static OverrideSpec, f64)]) {
    for &(spec, v) in pairs {
        match spec.key {
            "curtail" => p.curtail_const = v,
            "bg_curtail" => p.bg_curtail_const = v,
            "mu" => p.bg_beta_factor = v,
            "coarse_exp" => p.coarse_beta_exp = v,
            "bg_exp" => p.bg_beta_exp = v,
            "jmin" => p.j_frac_min = v,
            "jmax" => p.j_frac_max = v,
            "copies_exp" => p.fine_copies_exp = v,
            "copies_cap" => p.fine_copies_cap = v as u32,
            "seq_exp" => p.seq_len_exp = v,
            "background" => p.background_process = v != 0.0,
            "icp_bg" => p.icp_background = v != 0.0,
            "foreign" => p.alg4_accept_foreign = v != 0.0,
            "max_rounds" => p.max_rounds_factor = v as u64,
            other => panic!("override key {other:?} is not in the Compete schema"),
        }
    }
}

/// [`CompeteScenario`] over `params` with `overrides` applied.
fn scenario(
    mut params: CompeteParams,
    overrides: &[(&'static OverrideSpec, f64)],
    sources: SourceRule,
) -> Box<dyn Runnable> {
    apply_overrides(&mut params, overrides);
    Box::new(CompeteScenario::new(params, sources))
}

/// A bare-name Compete-family protocol: base parameters plus a fixed
/// [`SourceRule`]. [`BROADCAST`], [`BROADCAST_HW`] and [`LEADER_ELECTION`]
/// are its values.
pub struct BareCompeteFamily {
    name: &'static str,
    about: &'static str,
    /// The parameters overrides apply onto.
    base: fn() -> CompeteParams,
    sources: SourceRule,
}

/// `broadcast` — the paper's broadcast (Theorem 5.1, default parameters).
pub static BROADCAST: BareCompeteFamily = BareCompeteFamily {
    name: "broadcast",
    about: "the paper's broadcast (Theorem 5.1, default params)",
    base: CompeteParams::default,
    sources: SourceRule::Origin,
};

/// `broadcast_hw` — the same pipeline under Haeupler–Wajc curtailment.
pub static BROADCAST_HW: BareCompeteFamily = BareCompeteFamily {
    name: "broadcast_hw",
    about: "same pipeline under Haeupler-Wajc curtailment",
    base: CompeteParams::haeupler_wajc,
    sources: SourceRule::Origin,
};

/// `leader_election` — Algorithm 6 (Theorem 5.2).
pub static LEADER_ELECTION: BareCompeteFamily = BareCompeteFamily {
    name: "leader_election",
    about: "Algorithm 6 leader election (Theorem 5.2)",
    base: CompeteParams::default,
    sources: SourceRule::Candidates,
};

impl ProtocolFamily for BareCompeteFamily {
    fn name(&self) -> &'static str {
        self.name
    }

    fn about(&self) -> &'static str {
        self.about
    }

    fn overrides(&self) -> &'static [OverrideSpec] {
        COMPETE_OVERRIDES
    }

    fn instantiate(
        &self,
        _args: Option<&str>,
        overrides: &[(&'static OverrideSpec, f64)],
    ) -> Box<dyn Runnable> {
        scenario((self.base)(), overrides, self.sources)
    }
}

/// `compete(K[,POLICY])` — Compete(S) with `K` distinct sources
/// (Theorem 4.1), placed per the [`SourcePlacement`] policy.
pub struct CompeteFamily;

impl CompeteFamily {
    /// Shared arg parser: `K` or `K,POLICY` (canonical form elides
    /// `uniform`).
    fn parse(&self, args: Option<&str>) -> Result<(usize, SourcePlacement), String> {
        let (k_arg, policy) = match args.map(|a| a.split_once(',')) {
            Some(Some((k, p))) => (Some(k.trim()), Some(p.trim())),
            _ => (args, None),
        };
        let placement = match policy {
            None => SourcePlacement::Uniform,
            Some(p) => p.parse()?,
        };
        Ok((parse_count(self.name(), k_arg)?, placement))
    }
}

impl ProtocolFamily for CompeteFamily {
    fn name(&self) -> &'static str {
        "compete"
    }

    fn grammar(&self) -> &'static str {
        "compete(K[,uniform|clustered|corner])"
    }

    fn about(&self) -> &'static str {
        "Compete(S) with K distinct sources (Theorem 4.1), placed per policy"
    }

    fn overrides(&self) -> &'static [OverrideSpec] {
        COMPETE_OVERRIDES
    }

    fn canonical_instances(&self) -> &'static [Option<&'static str>] {
        &[Some("4"), Some("4,clustered"), Some("4,corner")]
    }

    fn parse_args(&self, args: Option<&str>) -> Result<ParsedArgs, String> {
        let (k, placement) = self.parse(args)?;
        let canonical = match placement {
            SourcePlacement::Uniform => k.to_string(),
            other => format!("{k},{other}"),
        };
        Ok(ParsedArgs::with_args(canonical).needing_nodes(k))
    }

    fn instantiate(
        &self,
        args: Option<&str>,
        overrides: &[(&'static OverrideSpec, f64)],
    ) -> Box<dyn Runnable> {
        let (k, placement) = self.parse(args).expect("canonical compete args");
        scenario(CompeteParams::default(), overrides, SourceRule::Placed { k, placement })
    }
}

/// The protocol families this crate contributes to the registry.
pub fn families() -> Vec<&'static dyn ProtocolFamily> {
    vec![&BROADCAST, &BROADCAST_HW, &CompeteFamily, &LEADER_ELECTION]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_parse_and_canonicalize_args() {
        let f = CompeteFamily;
        let p = f.parse_args(Some("4,uniform")).expect("parses");
        assert_eq!(p.canonical.as_deref(), Some("4"), "uniform is elided");
        assert_eq!(p.required_nodes, 4);
        let p = f.parse_args(Some("7, corner")).expect("parses");
        assert_eq!(p.canonical.as_deref(), Some("7,corner"));
        assert!(f.parse_args(None).is_err());
        assert!(f.parse_args(Some("0")).is_err());
        assert!(f.parse_args(Some("4,nearby")).is_err());
        assert!(BROADCAST.parse_args(Some("3")).is_err(), "broadcast takes no args");
        assert_eq!(BROADCAST.parse_args(None).expect("bare").required_nodes, 1);
    }

    #[test]
    fn overrides_apply_onto_the_family_base_params() {
        let schema = COMPETE_OVERRIDES;
        let by_key = |k: &str| schema.iter().find(|s| s.key == k).expect("schema key");
        let mut p = CompeteParams::default();
        apply_overrides(
            &mut p,
            &[(by_key("mu"), 0.2), (by_key("background"), 0.0), (by_key("copies_cap"), 3.0)],
        );
        assert_eq!(p.bg_beta_factor, 0.2);
        assert!(!p.background_process);
        assert_eq!(p.fine_copies_cap, 3);
        assert_eq!(p.curtail_const, CompeteParams::default().curtail_const);
        // Every schema key must be applicable (no typos between the schema
        // and the match).
        let mut p = CompeteParams::default();
        let pairs: Vec<_> = schema.iter().map(|s| (s, 1.0)).collect();
        apply_overrides(&mut p, &pairs);
    }

    #[test]
    fn hw_base_params_survive_override_application() {
        let mut p = CompeteParams::haeupler_wajc();
        apply_overrides(&mut p, &[(&COMPETE_OVERRIDES[2], 0.5)]); // mu
        assert_eq!(p.curtail_mode, CompeteParams::haeupler_wajc().curtail_mode);
        assert_eq!(p.bg_beta_factor, 0.5);
    }
}
