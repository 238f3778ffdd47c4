//! The **Decay** transmission primitive and the classic decay-based
//! broadcasting algorithms.
//!
//! Decay (Bar-Yehuda, Goldreich & Itai, 1992 — Algorithm 5 of Czumaj &
//! Davies) is the fundamental randomized collision-avoidance primitive of
//! radio networks: over `⌈log n⌉` steps, each participating node transmits
//! with probability `2^-i` in step `i`. Whatever the number of participants
//! around a listener, some step's probability is within a factor two of the
//! inverse of that number, so the listener receives with constant
//! probability per decay round (Lemma 3.1).
//!
//! This crate provides:
//!
//! * [`DecaySteps`] — the step/probability bookkeeping shared by every
//!   decay-based protocol in the workspace;
//! * [`SingleDecayRound`] — a one-round experiment protocol for measuring
//!   Lemma 3.1 directly;
//! * [`DecayBroadcast`] — multi-source max-propagating decay broadcasting,
//!   the baseline the paper's §1.3 compares against. Its [`DecaySchedule`]
//!   picks the cycle of decay depths: [`DecaySchedule::Full`] is the BGI
//!   algorithm (`O((D + log n)·log n)` whp), [`DecaySchedule::Truncated`]
//!   a truncated-decay variant exhibiting the `O(D·log(n/D) + log² n)`
//!   complexity *shape* of Czumaj–Rytter / Kowalski–Pelc, not their
//!   selection-sequence constructions;
//! * [`LayeredDecayCd`] — beep-wave assisted layered decay, which exploits
//!   collision detection.
//!
//! # Example
//!
//! ```
//! use rn_decay::DecayBroadcast;
//! use rn_graph::generators;
//! use rn_sim::{CollisionModel, NetParams, Simulator};
//!
//! let g = generators::path(32);
//! let params = NetParams::of_graph(&g);
//! let mut p = DecayBroadcast::single_source(params, 0, 7, 123);
//! let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 123);
//! let stats = sim.run_until(&mut p, 100_000, |_, p| p.all_informed());
//! assert!(p.all_informed());
//! assert!(stats.rounds < 100_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broadcast;
mod cd;
mod family;
mod primitive;
mod scenario;

pub use broadcast::{CoinSampler, DecayBroadcast, DecaySchedule};
pub use cd::{CdMsg, LayeredDecayCd};
pub use family::{families, BroadcastCdFamily, CompeteCdFamily, DecayFamily, DECAY, DECAY_TRUNC};
pub use primitive::{DecaySteps, SingleDecayRound};
pub use scenario::{CdDecayScenario, DecayScenario};
