//! The preset registry the `experiments` binary dispatches through.
//!
//! Two preset kinds coexist:
//!
//! * **table presets** — the paper-reproduction experiments `e1`…`e12`
//!   (README, *Running campaigns*), kept verbatim as functions in
//!   [`crate::experiments`] and registered here by id;
//! * **campaign presets** — declarative topology × protocol × model sweeps
//!   built on [`Campaign`], which additionally emit the versioned JSON
//!   results file for cross-PR perf tracking.
//!
//! `experiments --list` prints this registry; `experiments <id>` runs any
//! entry of either kind.

use crate::campaign::{Campaign, TrialPlan};
use crate::experiments;
use crate::harness::Table;
use crate::registry::ProtocolSpec;
use rn_graph::TopologySpec;
use rn_sim::{CollisionModel, FaultPlan};

/// Shorthand: parse a statically known protocol spec.
fn p(spec: &str) -> ProtocolSpec {
    ProtocolSpec::parse(spec)
}

/// What a preset id resolves to.
pub enum PresetKind {
    /// A legacy markdown-table experiment: a pure function of the seed.
    Tables(fn(u64) -> Vec<Table>),
    /// A declarative campaign (tables + JSON results).
    Campaign(fn() -> Campaign),
}

/// One registry entry.
pub struct Preset {
    /// The id accepted on the command line (`e7`, `smoke`, …).
    pub id: &'static str,
    /// One-line description for `--list`.
    pub about: &'static str,
    /// How to run it.
    pub kind: PresetKind,
}

impl Preset {
    /// `"tables"` or `"campaign"`, for `--list` output.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            PresetKind::Tables(_) => "tables",
            PresetKind::Campaign(_) => "campaign",
        }
    }
}

macro_rules! table_preset {
    ($id:literal, $f:path, $about:literal) => {
        Preset { id: $id, about: $about, kind: PresetKind::Tables($f) }
    };
}

/// The full preset registry, in listing order.
pub fn presets() -> Vec<Preset> {
    vec![
        table_preset!("e1", experiments::e1_decay_success, "Lemma 3.1: single decay-round success"),
        table_preset!(
            "e2",
            experiments::e2_partition_properties,
            "Lemma 2.1: Partition(β) radius/cut"
        ),
        table_preset!(
            "e3",
            experiments::e3_theorem_2_2,
            "Theorem 2.2: distance to cluster centers"
        ),
        table_preset!("e4", experiments::e4_section6, "Section 6 quantities on real layer vectors"),
        table_preset!(
            "e5",
            experiments::e5_bad_subpaths,
            "Lemmas 4.3/4.4: clusters near nodes, bad subpaths"
        ),
        table_preset!(
            "e6",
            experiments::e6_schedule_contract,
            "Lemma 2.3: intra-cluster schedule contract"
        ),
        table_preset!(
            "e7",
            experiments::e7_broadcast_scaling,
            "Theorem 5.1: broadcast scaling in D"
        ),
        table_preset!("e8", experiments::e8_comparison, "§1.3 table: ours vs BGI / CR-KP / HW"),
        table_preset!("e9", experiments::e9_leader_election, "Theorem 5.2: LE ≈ broadcast"),
        table_preset!("e10", experiments::e10_compete_sources, "Theorem 4.1: Compete cost vs |S|"),
        table_preset!("e11", experiments::e11_ablations, "Design-choice ablations"),
        table_preset!("e12", experiments::e12_model, "Model sanity: collisions, spontaneity, CD"),
        Preset {
            id: "smoke",
            about: "tiny registry cross (2 topologies × 2 protocols); the CI artifact",
            kind: PresetKind::Campaign(smoke),
        },
        Preset {
            id: "sweep_broadcast",
            about: "broadcast family vs baselines across shapes incl. torus/ring-of-cliques",
            kind: PresetKind::Campaign(sweep_broadcast),
        },
        Preset {
            id: "sweep_le",
            about: "leader election (Alg 6) vs the binary-search reduction",
            kind: PresetKind::Campaign(sweep_le),
        },
        Preset {
            id: "sweep_models",
            about: "collision-model ablation: the same protocols under nocd and cd",
            kind: PresetKind::Campaign(sweep_models),
        },
        Preset {
            id: "sweep_faults",
            about: "robustness axis: broadcast family vs baselines under jamming and dropout",
            kind: PresetKind::Campaign(sweep_faults),
        },
        Preset {
            id: "sweep_placement",
            about: "compete(K) source geometry: uniform vs clustered vs corner placement",
            kind: PresetKind::Campaign(sweep_placement),
        },
        Preset {
            id: "sweep_cd",
            about: "CD ablation: nocd-tolerant protocols vs the CD-exploiting *_cd variants",
            kind: PresetKind::Campaign(sweep_cd),
        },
        Preset {
            id: "sweep_subprotocols",
            about: "sub-protocol primitives: Partition(beta) and schedule passes across shapes",
            kind: PresetKind::Campaign(sweep_subprotocols),
        },
        Preset {
            id: "sweep_tails",
            about: "tail telemetry: p50/p95/p99 round distributions at 100 trials/cell",
            kind: PresetKind::Campaign(sweep_tails),
        },
    ]
}

/// Looks a preset up by id.
pub fn find(id: &str) -> Option<Preset> {
    presets().into_iter().find(|p| p.id == id)
}

fn nocd() -> Vec<CollisionModel> {
    vec![CollisionModel::NoCollisionDetection]
}

fn smoke() -> Campaign {
    Campaign {
        id: "smoke".into(),
        topologies: vec![
            TopologySpec::Grid { w: 8, h: 8 },
            TopologySpec::RingOfCliques { cliques: 4, size: 6 },
        ],
        protocols: vec![p("broadcast"), p("bgi")],
        models: nocd(),
        faults: Campaign::no_faults(),
        plan: TrialPlan::new(3),
    }
}

fn sweep_broadcast() -> Campaign {
    Campaign {
        id: "sweep_broadcast".into(),
        topologies: vec![
            TopologySpec::Grid { w: 24, h: 24 },
            TopologySpec::Torus { w: 24, h: 24 },
            TopologySpec::Path(512),
            TopologySpec::RingOfCliques { cliques: 12, size: 24 },
            TopologySpec::Barbell { clique: 64, bridge: 64 },
            TopologySpec::Rgg { n: 1024, radius: 0.06 },
        ],
        protocols: vec![p("broadcast"), p("broadcast_hw"), p("bgi"), p("truncated"), p("decay(4)")],
        models: nocd(),
        faults: Campaign::no_faults(),
        plan: TrialPlan::new(5),
    }
}

fn sweep_le() -> Campaign {
    Campaign {
        id: "sweep_le".into(),
        topologies: vec![
            TopologySpec::Grid { w: 16, h: 16 },
            TopologySpec::Torus { w: 16, h: 16 },
            TopologySpec::RingOfCliques { cliques: 8, size: 16 },
        ],
        protocols: vec![p("leader_election"), p("binsearch_le(bgi)"), p("binsearch_le(beep)")],
        models: nocd(),
        faults: Campaign::no_faults(),
        plan: TrialPlan::new(3),
    }
}

fn sweep_models() -> Campaign {
    Campaign {
        id: "sweep_models".into(),
        topologies: vec![TopologySpec::Grid { w: 16, h: 16 }, TopologySpec::Star(256)],
        protocols: vec![p("broadcast"), p("bgi"), p("decay(8)")],
        models: vec![CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection],
        faults: Campaign::no_faults(),
        plan: TrialPlan::new(3),
    }
}

fn sweep_faults() -> Campaign {
    Campaign {
        id: "sweep_faults".into(),
        topologies: vec![
            TopologySpec::Grid { w: 16, h: 16 },
            TopologySpec::RingOfCliques { cliques: 8, size: 16 },
            TopologySpec::Rgg { n: 400, radius: 0.1 },
        ],
        protocols: vec![p("broadcast"), p("bgi"), p("decay(4)")],
        models: nocd(),
        faults: vec![FaultPlan::none(), FaultPlan::jam(3, 0.5), FaultPlan::drop(0.02)],
        plan: TrialPlan::new(3),
    }
}

fn sweep_placement() -> Campaign {
    Campaign {
        id: "sweep_placement".into(),
        topologies: vec![
            TopologySpec::Grid { w: 16, h: 16 },
            TopologySpec::Path(256),
            TopologySpec::RingOfCliques { cliques: 8, size: 16 },
        ],
        protocols: vec![p("compete(4)"), p("compete(4,clustered)"), p("compete(4,corner)")],
        models: nocd(),
        faults: Campaign::no_faults(),
        plan: TrialPlan::new(3),
    }
}

fn sweep_cd() -> Campaign {
    Campaign {
        id: "sweep_cd".into(),
        topologies: vec![
            TopologySpec::Grid { w: 16, h: 16 },
            TopologySpec::Rgg { n: 400, radius: 0.1 },
        ],
        protocols: vec![
            p("broadcast"),
            p("broadcast_cd"),
            p("bgi"),
            p("compete(4)"),
            p("compete_cd(4)"),
        ],
        models: vec![CollisionModel::NoCollisionDetection, CollisionModel::CollisionDetection],
        faults: Campaign::no_faults(),
        plan: TrialPlan::new(3),
    }
}

fn sweep_subprotocols() -> Campaign {
    Campaign {
        id: "sweep_subprotocols".into(),
        topologies: vec![
            TopologySpec::Grid { w: 24, h: 24 },
            TopologySpec::Torus { w: 24, h: 24 },
            TopologySpec::Rgg { n: 400, radius: 0.1 },
        ],
        protocols: vec![
            p("partition(0.5)"),
            p("partition(0.125)"),
            p("schedule(downcast)"),
            p("schedule(upcast)"),
        ],
        models: nocd(),
        faults: Campaign::no_faults(),
        plan: TrialPlan::new(3),
    }
}

/// Tail telemetry: enough trials per cell (100) for the streaming
/// p50/p95/p99 estimates to mean something — the paper's guarantees are
/// w.h.p. round bounds, so the tail is the quantity to watch. CI's
/// campaign-smoke lane runs this with a reduced `--trials` override.
fn sweep_tails() -> Campaign {
    Campaign {
        id: "sweep_tails".into(),
        topologies: vec![
            TopologySpec::Rgg { n: 2000, radius: 0.05 },
            TopologySpec::Grid { w: 32, h: 32 },
        ],
        protocols: vec![p("decay(16)"), p("bgi"), p("broadcast")],
        models: nocd(),
        faults: Campaign::no_faults(),
        plan: TrialPlan::new(100),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_table_ids_and_campaigns() {
        let ids: Vec<&str> = presets().iter().map(|p| p.id).collect();
        for e in experiments::ALL_IDS {
            assert!(ids.contains(&e), "table preset {e} must stay registered");
        }
        for c in [
            "smoke",
            "sweep_broadcast",
            "sweep_le",
            "sweep_models",
            "sweep_faults",
            "sweep_placement",
            "sweep_cd",
            "sweep_subprotocols",
            "sweep_tails",
        ] {
            assert!(ids.contains(&c), "campaign preset {c} must be registered");
        }
        // Ids are unique.
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate preset ids");
    }

    #[test]
    fn campaign_presets_build_nonempty_crosses() {
        for p in presets() {
            if let PresetKind::Campaign(build) = p.kind {
                let c = build();
                assert!(c.num_cells() > 0, "{} has no cells", p.id);
                assert_eq!(c.id, p.id, "campaign id must match preset id");
            }
        }
    }

    #[test]
    fn find_resolves_known_and_rejects_unknown() {
        assert!(find("e7").is_some());
        assert!(find("smoke").is_some());
        assert!(find("e99").is_none());
    }
}
