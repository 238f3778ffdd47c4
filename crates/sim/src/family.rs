//! The open **protocol-family registry API**: the trait a crate implements
//! to contribute its protocols to the scenario-string grammar.
//!
//! A [`ProtocolFamily`] is one *name* of the grammar (`broadcast`,
//! `compete`, `partition`, …) together with everything the registry needs to
//! treat that name as data: its positional-argument grammar, its typed
//! override schema ([`OverrideSpec`]), parse-time validation (argument
//! ranges, the number of distinct nodes the protocol demands of a topology)
//! and a factory producing the matching [`Runnable`].
//!
//! Families live next to their algorithms — `rn_core` registers the paper's
//! protocols, `rn_baselines` the comparators, `rn_decay` the decay family
//! and the CD-exploiting variants, `rn_cluster` the `Partition(β)`
//! sub-protocol and `rn_schedule` the schedule-pass executor — and
//! `rn_bench` merely *assembles* the lists. Adding an algorithm anywhere in
//! the workspace is one `ProtocolFamily` value plus one line in that
//! crate's `families()`; no registry code changes.
//!
//! A family does not name the [`Runnable`] it builds: the registry's spec
//! string (`compete(4,corner){mu=0.2}`) is the only name a protocol has.
//! Bare-name families need only [`ProtocolFamily::name`],
//! [`ProtocolFamily::about`] and [`ProtocolFamily::instantiate`] — the
//! grammar and the argument check default to the bare name. Families that
//! differ only in constants (base parameters, a decay schedule) are
//! `static` values of one family type, not one type each.
//!
//! The trait lives here (not in `rn_bench`) because `rn_sim` is the one
//! crate every protocol crate already depends on: it is the lowest layer at
//! which "a runnable scenario" is meaningful.

use crate::Runnable;

/// Value class of an override key: what values `{key=value}` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverrideClass {
    /// Any finite float.
    Float,
    /// A float in `[0, 1]`.
    Fraction,
    /// `0` or `1`.
    Flag,
    /// An integer ≥ 1.
    Int,
}

/// One key of a family's typed override schema: name, help text and value
/// class. Schemas are `'static` tables declared next to the family.
#[derive(Debug, PartialEq, Eq)]
pub struct OverrideSpec {
    /// The key's string form (short — it lives inside scenario strings).
    pub key: &'static str,
    /// One-line description of the targeted parameter (for `--list`).
    pub about: &'static str,
    /// What values the key accepts.
    pub class: OverrideClass,
}

impl OverrideSpec {
    /// Declares a schema entry (const-friendly, for `'static` tables).
    pub const fn new(key: &'static str, about: &'static str, class: OverrideClass) -> OverrideSpec {
        OverrideSpec { key, about, class }
    }

    /// Validates `value` against this key's class.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violation.
    pub fn validate(&self, value: f64) -> Result<(), String> {
        if !value.is_finite() {
            return Err(format!("{}: value must be finite", self.key));
        }
        match self.class {
            OverrideClass::Flag if value != 0.0 && value != 1.0 => {
                Err(format!("{} is a flag: use 0 or 1", self.key))
            }
            OverrideClass::Fraction if !(0.0..=1.0).contains(&value) => {
                Err(format!("{} takes a fraction in [0, 1]", self.key))
            }
            OverrideClass::Int if value < 1.0 || value.fract() != 0.0 => {
                Err(format!("{} takes an integer ≥ 1", self.key))
            }
            _ => Ok(()),
        }
    }
}

/// The parse-time outcome of a family validating its positional arguments:
/// the canonical argument string plus everything the registry checks before
/// any graph exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// Canonical text inside the parentheses (`None` for a bare name).
    /// `Display` of the spec re-emits exactly this, so non-canonical input
    /// (`compete(4,uniform)`) normalizes on the first round trip.
    pub canonical: Option<String>,
    /// Distinct nodes the protocol needs the topology to provide (source
    /// placement); the registry rejects pairings with smaller topologies at
    /// parse time.
    pub required_nodes: usize,
}

impl ParsedArgs {
    /// A bare name: no arguments, one required node.
    pub fn bare() -> ParsedArgs {
        ParsedArgs { canonical: None, required_nodes: 1 }
    }

    /// Canonical argument text with one required node.
    pub fn with_args(canonical: impl Into<String>) -> ParsedArgs {
        ParsedArgs { canonical: Some(canonical.into()), required_nodes: 1 }
    }

    /// Overrides the required-node count (builder style).
    pub fn needing_nodes(mut self, n: usize) -> ParsedArgs {
        self.required_nodes = n;
        self
    }
}

/// One protocol family of the open registry. See the [module docs](self).
///
/// Implementations are unit structs or `static` values of a family type,
/// registered as `&'static dyn ProtocolFamily` in their crate's
/// `families()` list; all methods take `&self` so a single static serves
/// every spec of the family.
pub trait ProtocolFamily: Send + Sync {
    /// The family name — the identifier before any `(...)` / `{...}` in a
    /// spec. Must be unique across the assembled registry (checked at
    /// assembly time).
    fn name(&self) -> &'static str;

    /// The positional-argument grammar, for help output — e.g.
    /// `"compete(K[,uniform|clustered|corner])"`. Defaults to the bare
    /// name.
    fn grammar(&self) -> &'static str {
        self.name()
    }

    /// One-line description for `--list`.
    fn about(&self) -> &'static str;

    /// The family's typed override schema; empty (the default) means the
    /// family takes no `{key=value}` overrides.
    fn overrides(&self) -> &'static [OverrideSpec] {
        &[]
    }

    /// Canonical argument forms enumerated by registry listings and
    /// `ProtocolSpec::all()` — one entry per representative instance
    /// (`None` = the bare name). Every entry must parse via
    /// [`ProtocolFamily::parse_args`].
    fn canonical_instances(&self) -> &'static [Option<&'static str>] {
        &[None]
    }

    /// Validates and canonicalizes the positional arguments (the text
    /// between the parentheses; `None` when absent). Defaults to a bare
    /// name: no arguments allowed, one required node.
    ///
    /// # Errors
    ///
    /// A human-readable description of what is wrong with the arguments.
    fn parse_args(&self, args: Option<&str>) -> Result<ParsedArgs, String> {
        match args {
            None => Ok(ParsedArgs::bare()),
            Some(_) => Err(format!("{} takes no arguments", self.name())),
        }
    }

    /// Builds the family's [`Runnable`] for previously validated canonical
    /// `args`, with `overrides` (pairs from this family's own schema,
    /// already class-validated) applied.
    ///
    /// # Panics
    ///
    /// May panic on arguments that did not come out of
    /// [`ProtocolFamily::parse_args`] — the registry never passes any
    /// others.
    fn instantiate(
        &self,
        args: Option<&str>,
        overrides: &[(&'static OverrideSpec, f64)],
    ) -> Box<dyn Runnable>;
}

/// Parses a `K`-style positive count argument (shared by several families).
///
/// # Errors
///
/// A description naming `family` when `arg` is absent, non-integer or zero.
pub fn parse_count(family: &str, arg: Option<&str>) -> Result<usize, String> {
    let a = arg.ok_or_else(|| format!("{family} needs a source count"))?;
    let k: usize = a.parse().map_err(|_| format!("{family}: {a:?} is not an integer"))?;
    if k == 0 {
        return Err(format!("{family} needs at least one source"));
    }
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_spec_validates_by_class() {
        let f = OverrideSpec::new("x", "", OverrideClass::Float);
        assert!(f.validate(0.5).is_ok());
        assert!(f.validate(f64::NAN).is_err());
        assert!(f.validate(f64::INFINITY).is_err());
        let frac = OverrideSpec::new("j", "", OverrideClass::Fraction);
        assert!(frac.validate(0.0).is_ok() && frac.validate(1.0).is_ok());
        assert!(frac.validate(1.5).is_err());
        assert!(frac.validate(-0.1).is_err());
        let flag = OverrideSpec::new("b", "", OverrideClass::Flag);
        assert!(flag.validate(0.0).is_ok() && flag.validate(1.0).is_ok());
        assert!(flag.validate(2.0).is_err());
        let int = OverrideSpec::new("i", "", OverrideClass::Int);
        assert!(int.validate(3.0).is_ok());
        assert!(int.validate(0.0).is_err());
        assert!(int.validate(1.5).is_err());
    }

    #[test]
    fn parsed_args_builders() {
        assert_eq!(ParsedArgs::bare(), ParsedArgs { canonical: None, required_nodes: 1 });
        let p = ParsedArgs::with_args("4,corner").needing_nodes(4);
        assert_eq!(p.canonical.as_deref(), Some("4,corner"));
        assert_eq!(p.required_nodes, 4);
    }

    /// A bare-name family relying on every default.
    struct Bare;

    impl ProtocolFamily for Bare {
        fn name(&self) -> &'static str {
            "bare"
        }

        fn about(&self) -> &'static str {
            "a bare name"
        }

        fn instantiate(
            &self,
            _args: Option<&str>,
            _overrides: &[(&'static OverrideSpec, f64)],
        ) -> Box<dyn Runnable> {
            unreachable!("the defaults test never instantiates")
        }
    }

    #[test]
    fn bare_name_families_default_their_grammar_and_args() {
        assert_eq!(Bare.grammar(), "bare");
        assert_eq!(Bare.parse_args(None), Ok(ParsedArgs::bare()));
        assert_eq!(Bare.parse_args(Some("1")), Err("bare takes no arguments".to_string()));
        assert!(Bare.overrides().is_empty());
        assert_eq!(Bare.canonical_instances(), &[None]);
    }

    #[test]
    fn count_parser_rejects_bad_counts() {
        assert_eq!(parse_count("decay", Some("3")), Ok(3));
        assert!(parse_count("decay", None).unwrap_err().contains("source count"));
        assert!(parse_count("decay", Some("x")).unwrap_err().contains("not an integer"));
        assert!(parse_count("decay", Some("0")).unwrap_err().contains("at least one"));
    }
}
