//! Intra-cluster **schedules** — the substrate behind the paper's Lemma 2.3.
//!
//! The paper (following Ghaffari–Haeupler–Khabbazian \[11\] and Haeupler–Wajc
//! \[12\]) assumes each cluster can be preprocessed into a *schedule* that
//! afterwards moves messages between the cluster center and nodes at
//! distance ℓ in `O(ℓ + polylog n)` rounds, with period `O(log n)`. This
//! crate realizes that contract concretely:
//!
//! * [`TreeSchedule::build`] takes, for every cluster of a
//!   [`rn_cluster::Partition`] simultaneously, the BFS tree rooted at the
//!   cluster center that the partition carries, and computes a
//!   **conflict-free slot coloring** of each tree layer: within a cluster,
//!   a node's reception from its tree parent is never collided by another
//!   same-layer transmitter of the same cluster. One pass over the
//!   adjacency lists each node's same-cluster neighbours one layer down and
//!   one layer up, and one greedy pass colors the layers, reading each
//!   conflict set off 64-bit per-receiver color masks (an exact enumeration
//!   takes over for a node whose 64 low colors are all taken).
//!   Layers are served in consecutive *windows* of a fixed width `W`
//!   (the schedule's period), so a downcast pass to radius ℓ costs exactly
//!   `(ℓ + 1) · W` rounds — the `O(ℓ + polylog n)` of Lemma 2.3 with the
//!   `polylog` spread across windows.
//! * Each layer is also kept as two *sender lists*, ordered by downcast and
//!   by upcast slot ([`TreeSchedule::down_senders`],
//!   [`TreeSchedule::up_senders`]), at `2·n` `u32` per schedule. Every
//!   schedule walk (these executors and Compete's ICP) reads a step's
//!   transmitters off them, so a step costs its slot's senders, not its
//!   layer.
//! * [`SchedulePass`] executes one pass in either direction of a
//!   [`ScheduleOp`]: a **downcast** is one-to-all broadcast of every cluster
//!   center's value out to radius ℓ, as real radio transmissions in all
//!   clusters at once (inter-cluster collisions are *not* prevented —
//!   exactly as in the paper, where they are handled by the Intra-Cluster
//!   Propagation background process, Algorithm 4); an **upcast** is the
//!   reverse max-convergecast, participating nodes' values flowing layer by
//!   layer to the center, aggregated at each hop.
//!
//! The construction itself is performed centrally (the oracle stand-in for
//! \[11\]'s `O(D·polylog n)`-round distributed preprocessing) and its
//! charged cost is reported by [`TreeSchedule::charged_build_rounds`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod executors;
mod pipeline;
mod scenario;
mod tree;

pub use executors::{SchedMsg, ScheduleOp, SchedulePass};
pub use pipeline::{PipelineMsg, PipelinedDowncast};
pub use scenario::{families, ScheduleFamily, ScheduleScenario, DEFAULT_SCHEDULE_BETA};
pub use tree::{SlotPolicy, TreeSchedule, TreeScheduleScratch};
