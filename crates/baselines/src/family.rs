//! [`ProtocolFamily`] registrations for the comparator algorithms: `bgi`,
//! `truncated` and `binsearch_le(PROBE)`.

use crate::binary_search::BroadcastKind;
use crate::scenario::BinarySearchLeScenario;
use rn_decay::{CoinSampler, DecayScenario};
use rn_sim::family::{reject_args, ParsedArgs, ProtocolFamily};
use rn_sim::Runnable;

/// `bgi` — BGI'92 decay broadcast baseline: `decay(1)`, whose one source
/// is node 0 with value 1.
pub struct BgiFamily;

impl ProtocolFamily for BgiFamily {
    fn name(&self) -> &'static str {
        "bgi"
    }

    fn grammar(&self) -> &'static str {
        "bgi"
    }

    fn about(&self) -> &'static str {
        "BGI'92 decay broadcast baseline"
    }

    fn parse_args(&self, args: Option<&str>) -> Result<ParsedArgs, String> {
        reject_args(self.name(), args)
    }

    fn instantiate(
        &self,
        _args: Option<&str>,
        _overrides: &[(&'static rn_sim::OverrideSpec, f64)],
        label: &str,
    ) -> Box<dyn Runnable> {
        Box::new(DecayScenario::new(1).with_coins(CoinSampler::default(), label))
    }
}

/// `truncated` — CR/KP-style truncated decay baseline: `decay_trunc(1)`,
/// whose one source is node 0 with value 1.
pub struct TruncatedFamily;

impl ProtocolFamily for TruncatedFamily {
    fn name(&self) -> &'static str {
        "truncated"
    }

    fn grammar(&self) -> &'static str {
        "truncated"
    }

    fn about(&self) -> &'static str {
        "CR/KP-style truncated decay baseline"
    }

    fn parse_args(&self, args: Option<&str>) -> Result<ParsedArgs, String> {
        reject_args(self.name(), args)
    }

    fn instantiate(
        &self,
        _args: Option<&str>,
        _overrides: &[(&'static rn_sim::OverrideSpec, f64)],
        label: &str,
    ) -> Box<dyn Runnable> {
        Box::new(DecayScenario::truncated(1).with_coins(CoinSampler::default(), label))
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
        _overrides: &[(&'static rn_sim::OverrideSpec, f64)],
        _label: &str,
    ) -> Box<dyn Runnable> {
        let kind = self.probe(args).expect("canonical binsearch_le probe");
        Box::new(BinarySearchLeScenario { kind })
    }
}

/// The protocol families this crate contributes to the registry.
pub fn families() -> Vec<&'static dyn ProtocolFamily> {
    vec![&BgiFamily, &TruncatedFamily, &BinsearchLeFamily]
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
            let label = format!("binsearch_le({probe})");
            let r = f.instantiate(Some(probe), &[], &label);
            assert_eq!(r.name(), label, "Runnable name matches the spec");
        }
        assert!(f.parse_args(None).is_err());
        assert!(f.parse_args(Some("zz")).is_err());
        assert!(BgiFamily.parse_args(Some("1")).is_err());
        assert_eq!(BgiFamily.instantiate(None, &[], "bgi").name(), "bgi");
        assert_eq!(TruncatedFamily.instantiate(None, &[], "truncated").name(), "truncated");
    }
}
