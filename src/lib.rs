//! Umbrella crate for the radio-networks workspace: a complete, tested
//! reproduction of *"Exploiting Spontaneous Transmissions for Broadcasting
//! and Leader Election in Radio Networks"* (Czumaj & Davies, PODC 2017).
//!
//! This crate re-exports the public APIs of every subsystem so examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`graph`] — topologies and graph algorithms;
//! * [`sim`] — the synchronous radio-network simulator;
//! * [`decay`] — the Decay primitive and classic decay broadcasts;
//! * [`cluster`] — Partition(β) clustering and the Section 6 analysis;
//! * [`schedule`] — intra-cluster broadcast/convergecast schedules;
//! * [`core`] — Compete, broadcasting and leader election (the paper);
//! * [`baselines`] — the comparison algorithms of the paper's §1.3;
//! * [`bench`](mod@bench) — the scenario registry and campaign runner (plus the
//!   `experiments` binary's experiment suite).
//!
//! # Quickstart
//!
//! ```
//! use radio_networks::prelude::*;
//!
//! // An ad-hoc deployment: 300 stations, unit-disk connectivity.
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let g = graph::generators::random_geometric(300, 0.08, &mut rng);
//!
//! // Broadcast from station 0 with the paper's algorithm.
//! let report = core::broadcast(&g, 0, &core::CompeteParams::default(), 42)
//!     .expect("broadcast run");
//! assert!(report.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rn_baselines as baselines;
pub use rn_bench as bench;
pub use rn_cluster as cluster;
pub use rn_core as core;
pub use rn_decay as decay;
pub use rn_graph as graph;
pub use rn_schedule as schedule;
pub use rn_sim as sim;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use crate::{baselines, cluster, core, decay, graph, schedule, sim};
    pub use rand::rngs::SmallRng;
    pub use rand::{Rng, SeedableRng};
    pub use rn_graph::{Graph, NodeId};
    pub use rn_sim::{CollisionModel, NetParams, Protocol, Simulator};
}
