//! [`ProtocolFamily`] registrations for the comparator algorithms: `bgi`,
//! `truncated` and `binsearch_le(PROBE)`.
//!
//! `bgi` and `truncated` differ only in their [`DecaySchedule`], so they
//! are `static` values of one [`DecayBaselineFamily`].

use crate::binary_search::BroadcastKind;
use crate::scenario::BinarySearchLeScenario;
use rn_decay::{DecayScenario, DecaySchedule};
use rn_sim::family::{ParsedArgs, ProtocolFamily};
use rn_sim::{OverrideSpec, Runnable};

/// A §1.3 decay broadcast baseline: `rn_decay`'s [`DecayScenario`] at one
/// source — node 0 with value 1 — under one [`DecaySchedule`]. [`BGI`] and
/// [`TRUNCATED`] are its values.
pub struct DecayBaselineFamily {
    name: &'static str,
    about: &'static str,
    schedule: DecaySchedule,
}

/// `bgi` — BGI'92 decay broadcast baseline: `decay(1)`.
pub static BGI: DecayBaselineFamily = DecayBaselineFamily {
    name: "bgi",
    about: "BGI'92 decay broadcast baseline",
    schedule: DecaySchedule::Full,
};

/// `truncated` — CR/KP-style truncated decay baseline: `decay_trunc(1)`.
pub static TRUNCATED: DecayBaselineFamily = DecayBaselineFamily {
    name: "truncated",
    about: "CR/KP-style truncated decay baseline",
    schedule: DecaySchedule::Truncated,
};

impl ProtocolFamily for DecayBaselineFamily {
    fn name(&self) -> &'static str {
        self.name
    }

    fn about(&self) -> &'static str {
        self.about
    }

    fn instantiate(
        &self,
        _args: Option<&str>,
        _overrides: &[(&'static OverrideSpec, f64)],
    ) -> Box<dyn Runnable> {
        Box::new(DecayScenario::new(1, self.schedule))
    }
}

/// `binsearch_le(PROBE)` — the classical binary-search leader-election
/// reduction over probe `bgi`, `cd17` or `beep`.
pub struct BinsearchLeFamily;

impl BinsearchLeFamily {
    fn probe(&self, args: Option<&str>) -> Result<BroadcastKind, String> {
        match args {
            Some("bgi") => Ok(BroadcastKind::Bgi),
            Some("cd17") => Ok(BroadcastKind::CzumajDavies),
            Some("beep") => Ok(BroadcastKind::BeepWaveCd),
            Some(other) => Err(format!("unknown binsearch_le probe {other:?} (bgi | cd17 | beep)")),
            None => Err("binsearch_le needs a probe (bgi | cd17 | beep)".into()),
        }
    }
}

impl ProtocolFamily for BinsearchLeFamily {
    fn name(&self) -> &'static str {
        "binsearch_le"
    }

    fn grammar(&self) -> &'static str {
        "binsearch_le(bgi|cd17|beep)"
    }

    fn about(&self) -> &'static str {
        "binary-search leader election over a pluggable broadcast probe"
    }

    fn canonical_instances(&self) -> &'static [Option<&'static str>] {
        &[Some("bgi"), Some("cd17"), Some("beep")]
    }

    fn parse_args(&self, args: Option<&str>) -> Result<ParsedArgs, String> {
        let probe = self.probe(args.map(str::trim))?;
        let canonical = match probe {
            BroadcastKind::Bgi => "bgi",
            BroadcastKind::CzumajDavies => "cd17",
            BroadcastKind::BeepWaveCd => "beep",
        };
        Ok(ParsedArgs::with_args(canonical))
    }

    fn instantiate(
        &self,
        args: Option<&str>,
        _overrides: &[(&'static OverrideSpec, f64)],
    ) -> Box<dyn Runnable> {
        let kind = self.probe(args).expect("canonical binsearch_le probe");
        Box::new(BinarySearchLeScenario { kind })
    }
}

/// The protocol families this crate contributes to the registry.
pub fn families() -> Vec<&'static dyn ProtocolFamily> {
    vec![&BGI, &TRUNCATED, &BinsearchLeFamily]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_parsing_and_names() {
        let f = BinsearchLeFamily;
        for probe in ["bgi", "cd17", "beep"] {
            let p = f.parse_args(Some(probe)).expect("parses");
            assert_eq!(p.canonical.as_deref(), Some(probe));
        }
        assert!(f.parse_args(None).is_err());
        assert!(f.parse_args(Some("zz")).is_err());
        assert!(BGI.parse_args(Some("1")).is_err());
        assert_eq!((BGI.name(), BGI.grammar()), ("bgi", "bgi"));
        assert_eq!(TRUNCATED.name(), "truncated");
    }
}
