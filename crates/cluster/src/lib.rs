//! **Partition(β)** — the exponential-shift graph clustering of Miller, Peng
//! & Xu (SPAA 2013), as used by Haeupler–Wajc (PODC 2016) and Czumaj–Davies
//! (PODC 2017) for radio-network broadcasting, together with the full
//! analysis machinery of the paper's Section 6.
//!
//! Every node `v` draws an independent exponential shift `δ_v ~ Exp(β)` and
//! joins the cluster of the node `u` maximizing `δ_u − dist(u, v)`. The
//! resulting partition satisfies (paper's Lemma 2.1):
//!
//! * every cluster has strong diameter `O(log n / β)` with high probability;
//! * every edge is cut (endpoints in different clusters) with probability
//!   `O(β)`.
//!
//! Two constructions are provided:
//!
//! * [`Partition::compute`] — the exact *oracle* construction: a
//!   multi-source BFS in which center `u` starts at time `−δ_u`, resolved
//!   by merging two sorted streams (the seeds sorted once by shift, and a
//!   FIFO of settled nodes) in `O(n log n + m)` time and `2n` scratch
//!   entries, with ties going to the smaller center id. It also records
//!   each cluster's BFS tree ([`Partition::parent`],
//!   [`Partition::depth`]), on which tree schedules are built. The paper notes
//!   its clustering results "apply … in any setting, not just radio
//!   networks"; clustering-property experiments use this form, and the
//!   Compete algorithm uses it in its `Charged` precomputation mode.
//! * [`DistributedPartition`] — a genuine radio protocol (discretized race
//!   with per-phase Decay windows, as in Haeupler–Wajc §3) costing
//!   `O(log³ n / β)` rounds. It runs as the `partition(β)` scenario and is
//!   compared with the oracle in tests; the Compete pipeline does not run it.
//!
//! The [`theory`] module implements the quantities of the paper's Section 6
//! (`S_{x,β}`, the transformations `f` and `g`, the `k_i` ratio sequence and
//! the Lemma 6.6/6.7 conditions) so that Theorem 2.2 — the paper's key
//! improvement over Haeupler–Wajc — can be checked computationally.
//!
//! # Example
//!
//! ```
//! use rn_cluster::Partition;
//! use rn_graph::generators;
//! use rand::SeedableRng;
//!
//! let g = generators::grid(20, 20);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
//! let p = Partition::compute(&g, 0.25, &mut rng);
//! assert!(p.num_clusters() >= 1);
//! // Every cluster center is its own center.
//! for v in g.nodes() {
//!     let c = p.center_of(v);
//!     assert_eq!(p.center_of(c), c);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distributed;
mod partition;
mod scenario;
mod shifts;
pub mod stats;
pub mod theory;

pub use distributed::{DistributedPartition, DistributedPartitionConfig};
pub use partition::{Partition, PartitionScratch, ValidateScratch};
pub use scenario::{families, PartitionFamily, PartitionScenario};
pub use shifts::ExponentialShifts;
