//! **Compete, broadcasting and leader election via spontaneous
//! transmissions** — the algorithms of Czumaj & Davies, *"Exploiting
//! Spontaneous Transmissions for Broadcasting and Leader Election in Radio
//! Networks"* (PODC 2017).
//!
//! The paper's contribution is an `O(D·log n / log D + polylog n)`-round
//! randomized algorithm for both problems in multi-hop radio networks
//! without collision detection — optimal `O(D)` whenever `n` is polynomial
//! in `D`, and the first leader-election bound matching broadcasting. The
//! engine is a generalized primitive, **Compete(S)**: every source in `S`
//! holds an integer message, and on completion every node knows the highest
//! one (Theorem 4.1). Broadcasting is `Compete({source})` (Theorem 5.1);
//! leader election self-selects `Θ(log n)` candidates with random IDs and
//! Competes on them (Algorithm 6, Theorem 5.2).
//!
//! The algorithm structure implemented here follows the paper exactly:
//!
//! 1. **Precomputation** ([`Precomputed`]): a coarse Partition(`D^-0.5`)
//!    whose clusters scope shared randomness; per coarse cluster, many fine
//!    Partition(`2^-j`) clusterings for `j` in a range scaling with `log D`;
//!    BFS-tree schedules for every clustering; random per-coarse sequences
//!    of fine clusterings; plus the background process's own global
//!    clusterings at `β = D^-0.1`.
//! 2. **Propagation** ([`CompeteProtocol`]): the main process executes one
//!    curtailed Intra-Cluster Propagation (down/up/down, Algorithm 3) per
//!    sequence element, with radius `Θ(log n/(β·log D))` justified by
//!    Theorem 2.2; interleaved step-for-step with the slower but
//!    boundary-free background process (Algorithm 2); both with Algorithm
//!    4's decay sub-process papering over inter-cluster collisions.
//!
//! Every constant is a tunable in [`CompeteParams`]; ablation modes
//! ([`CurtailMode::HaeuplerWajc`], background switches) reproduce the
//! predecessors the paper compares against.
//!
//! # Example
//!
//! ```
//! use rn_core::{broadcast, CompeteParams};
//! use rn_graph::generators;
//!
//! let g = generators::grid(8, 8);
//! let report = broadcast(&g, 0, &CompeteParams::default(), 7)?;
//! assert!(report.completed);
//! assert_eq!(report.nodes_knowing, 64);
//! # Ok::<(), rn_core::CompeteError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod family;
mod params;
mod precompute;
mod protocol;
mod scenario;

pub use api::{
    broadcast, compete, compete_trial, leader_election, leader_election_trial, CompeteError,
    CompeteReport, LeaderElectionReport,
};
pub use family::{
    apply_overrides, families, BareCompeteFamily, CompeteFamily, BROADCAST, BROADCAST_HW,
    COMPETE_OVERRIDES, LEADER_ELECTION,
};
pub use params::{CompeteParams, CurtailMode, SequenceScope};
pub use precompute::{FineClustering, PrecomputeScratch, Precomputed};
pub use protocol::{CompeteMsg, CompeteProtocol, CompeteState};
pub use scenario::{CompeteScenario, SourcePlacement, SourceRule};
