//! [`ProtocolFamily`] registrations for the decay family: the raw
//! multi-source primitives (`decay(K)`, `decay_trunc(K)`) and the
//! CD-exploiting beep-wave-assisted variants (`broadcast_cd`,
//! `compete_cd(K)`).
//!
//! `decay` and `decay_trunc` differ only in their [`DecaySchedule`], so
//! they are `static` values of one [`DecayFamily`].

use crate::broadcast::DecaySchedule;
use crate::scenario::{CdDecayScenario, DecayScenario};
use rn_sim::family::{parse_count, ParsedArgs, ProtocolFamily};
use rn_sim::{OverrideSpec, Runnable};

/// Raw multi-source decay with `K` spread sources under one
/// [`DecaySchedule`]. [`DECAY`] and [`DECAY_TRUNC`] are its values.
pub struct DecayFamily {
    name: &'static str,
    grammar: &'static str,
    about: &'static str,
    schedule: DecaySchedule,
}

/// `decay(K)` — raw multi-source decay with `K` spread sources.
pub static DECAY: DecayFamily = DecayFamily {
    name: "decay",
    grammar: "decay(K)",
    about: "raw multi-source decay with K spread sources",
    schedule: DecaySchedule::Full,
};

/// `decay_trunc(K)` — truncated multi-source decay.
pub static DECAY_TRUNC: DecayFamily = DecayFamily {
    name: "decay_trunc",
    grammar: "decay_trunc(K)",
    about: "truncated multi-source decay",
    schedule: DecaySchedule::Truncated,
};

impl ProtocolFamily for DecayFamily {
    fn name(&self) -> &'static str {
        self.name
    }

    fn grammar(&self) -> &'static str {
        self.grammar
    }

    fn about(&self) -> &'static str {
        self.about
    }

    fn canonical_instances(&self) -> &'static [Option<&'static str>] {
        &[Some("4")]
    }

    fn parse_args(&self, args: Option<&str>) -> Result<ParsedArgs, String> {
        let k = parse_count(self.name, args)?;
        Ok(ParsedArgs::with_args(k.to_string()))
    }

    fn instantiate(
        &self,
        args: Option<&str>,
        _overrides: &[(&'static OverrideSpec, f64)],
    ) -> Box<dyn Runnable> {
        let k = parse_count(self.name, args).expect("canonical decay args");
        Box::new(DecayScenario::new(k, self.schedule))
    }
}

/// `broadcast_cd` — beep-wave assisted layered decay broadcast (single
/// source); pins the collision-detection model.
pub struct BroadcastCdFamily;

impl ProtocolFamily for BroadcastCdFamily {
    fn name(&self) -> &'static str {
        "broadcast_cd"
    }

    fn about(&self) -> &'static str {
        "CD-exploiting broadcast: beep-wave layer labels + layered decay"
    }

    fn instantiate(
        &self,
        _args: Option<&str>,
        _overrides: &[(&'static OverrideSpec, f64)],
    ) -> Box<dyn Runnable> {
        Box::new(CdDecayScenario::broadcast())
    }
}

/// `compete_cd(K)` — the multi-source CD-exploiting variant: `K` distinct
/// sources, completion when everyone knows the maximum.
pub struct CompeteCdFamily;

impl ProtocolFamily for CompeteCdFamily {
    fn name(&self) -> &'static str {
        "compete_cd"
    }

    fn grammar(&self) -> &'static str {
        "compete_cd(K)"
    }

    fn about(&self) -> &'static str {
        "CD-exploiting Compete analogue: K sources, max wins via layered decay"
    }

    fn canonical_instances(&self) -> &'static [Option<&'static str>] {
        &[Some("4")]
    }

    fn parse_args(&self, args: Option<&str>) -> Result<ParsedArgs, String> {
        let k = parse_count(self.name(), args)?;
        Ok(ParsedArgs::with_args(k.to_string()).needing_nodes(k))
    }

    fn instantiate(
        &self,
        args: Option<&str>,
        _overrides: &[(&'static OverrideSpec, f64)],
    ) -> Box<dyn Runnable> {
        let k = parse_count(self.name(), args).expect("canonical compete_cd args");
        Box::new(CdDecayScenario::compete(k))
    }
}

/// The protocol families this crate contributes to the registry.
pub fn families() -> Vec<&'static dyn ProtocolFamily> {
    vec![&DECAY, &DECAY_TRUNC, &BroadcastCdFamily, &CompeteCdFamily]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_args_parse_and_runnables_name_themselves() {
        let p = CompeteCdFamily.parse_args(Some("4")).expect("parses");
        assert_eq!(p.canonical.as_deref(), Some("4"));
        assert_eq!(p.required_nodes, 4, "compete_cd needs K distinct nodes");
        assert_eq!(
            DECAY_TRUNC.parse_args(Some("2")).expect("parses").canonical.as_deref(),
            Some("2")
        );
        assert_eq!(DECAY.grammar(), "decay(K)");
        assert_eq!(BroadcastCdFamily.grammar(), "broadcast_cd", "bare names default their grammar");
        assert!(DECAY.parse_args(None).is_err());
        assert!(CompeteCdFamily.parse_args(Some("0")).is_err());
        assert!(BroadcastCdFamily.parse_args(Some("1")).is_err());
    }
}
