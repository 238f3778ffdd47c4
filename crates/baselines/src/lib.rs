//! Comparator algorithms for the paper's §1.3 complexity table.
//!
//! * [`bgi_broadcast`] — Bar-Yehuda–Goldreich–Itai decay broadcasting,
//!   `O((D + log n)·log n)` (no spontaneous transmissions);
//! * [`truncated_broadcast`] — Czumaj–Rytter / Kowalski–Pelc-*style*
//!   truncated decay, `O(D·log(n/D) + log² n)` shape;
//! * [`binary_search_leader_election`] — the classical leader-election
//!   reduction \[2\]: network-wide binary search over the ID space using
//!   multi-source broadcast as a subroutine, `O(T_BC · log n)`. Run it over
//!   the BGI baseline or over this paper's broadcast to reproduce the gap
//!   Algorithm 6 closes;
//! * [`BeepWave`] — a collision-*detection* presence probe (`D + 1` rounds
//!   exactly), the CD-model comparator: with observable collisions the
//!   binary-search reduction costs `O(D·log n)`, while in the paper's no-CD
//!   model the same wave provably stalls.
//!
//! The `bgi` and `truncated` registry families run the first two as
//! campaign cells: they are `rn_decay`'s `decay(1)` and `decay_trunc(1)`
//! scenarios, whose one source is node 0. [`bgi_broadcast`] and
//! [`truncated_broadcast`] run one fault-free trial of the same scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod beep;
mod binary_search;
mod broadcasts;
mod family;
mod scenario;

pub use beep::BeepWave;
pub use binary_search::{binary_search_leader_election, BinarySearchLeReport, BroadcastKind};
pub use broadcasts::{bgi_broadcast, truncated_broadcast};
pub use family::{families, BinsearchLeFamily, DecayBaselineFamily, BGI, TRUNCATED};
pub use scenario::BinarySearchLeScenario;
