//! Graph substrate for multi-hop radio-network simulation.
//!
//! Radio networks are modeled as undirected, connected graphs `N = (V, E)`
//! where nodes are transmitter–receiver stations and an edge means the two
//! stations are within transmission range of each other. This crate provides:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) representation of a
//!   simple undirected graph, the shared substrate of every other crate in the
//!   workspace;
//! * [`traversal`] — BFS, multi-source BFS, eccentricity / diameter
//!   computations and distance-layer histograms (the `x_i = |A_i(v)|` vectors
//!   of the paper's Section 6);
//! * [`generators`] — topology families used throughout the evaluation:
//!   paths, cycles, grids, tori, random geometric (unit-disk) graphs,
//!   `G(n, p)`, random trees, hypercubes, barbells, rings of cliques,
//!   caterpillars and more;
//! * [`spec`] — [`TopologySpec`], the declarative string form of those
//!   families (`"torus(32x32)"`, `"rgg(1600,0.05)"`) used by the scenario
//!   registry and campaign runner.
//!
//! # Example
//!
//! ```
//! use rn_graph::{Graph, generators};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let g = generators::grid(16, 16);
//! assert!(g.is_connected());
//! assert_eq!(g.n(), 256);
//! assert_eq!(g.diameter(), 30); // (16-1) + (16-1)
//! # let _ = generators::random_geometric(100, 0.2, &mut rng);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod generators;
mod graph;
mod hybrid;
pub mod spec;
pub mod traversal;

pub use error::GraphError;
pub use graph::{Graph, NodeId, INVALID_NODE};
pub use hybrid::HybridAdjacency;
pub use spec::{TopologySpec, TopologySpecError};
pub use traversal::{Bfs, LayerHistogram};
