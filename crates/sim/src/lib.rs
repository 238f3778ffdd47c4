//! A synchronous multi-hop radio-network simulator.
//!
//! This crate implements, exactly, the classical radio-network model used by
//! Czumaj & Davies (PODC 2017) and the literature it builds on:
//!
//! * nodes operate in discrete, synchronous **rounds**;
//! * in each round a node either **transmits** a message to all of its
//!   neighbors at once, or stays silent and **listens**;
//! * **no collision detection** (default): a listening node receives a
//!   message iff *exactly one* of its neighbors transmits in that round; it
//!   cannot distinguish silence from collision;
//! * a **collision detection** variant is provided for ablations
//!   ([`CollisionModel::CollisionDetection`]), where a listening node with
//!   two or more transmitting neighbors is notified of the collision;
//! * **spontaneous transmissions are allowed**: the simulator never restricts
//!   who may transmit — restraint (e.g. "only informed nodes speak") is a
//!   property of individual protocols;
//! * running time is the number of rounds; local computation is free.
//!
//! An orthogonal **fault axis** (adversarial jammers, per-round node
//! dropout, crash-stop) can be imposed on any protocol at the channel level
//! — see [`faults`] and [`TrialCtx::new`].
//!
//! Algorithms implement the [`Protocol`] trait and are executed by
//! [`Simulator::run`]. Protocols only ever see the knowledge the model grants
//! them — [`NetParams`] (`n` and `D`), their own node ids, their own random
//! bits, and messages they receive; the graph itself stays inside the engine.
//!
//! # Example: one-round delivery vs collision
//!
//! ```
//! use rn_graph::generators;
//! use rn_sim::{testing::OneShot, CollisionModel, Simulator};
//!
//! let g = generators::star(4); // hub 0, leaves 1..=3
//! // Exactly one leaf transmits: the hub hears it.
//! let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 42);
//! let mut p = OneShot::new(4, vec![(1, 7u64)]);
//! sim.run(&mut p, 1);
//! assert_eq!(p.received(0), &[(1, 7)]);
//!
//! // Two leaves transmit: collision, the hub hears nothing.
//! let mut sim = Simulator::new(&g, CollisionModel::NoCollisionDetection, 42);
//! let mut p = OneShot::new(4, vec![(1, 7u64), (2, 9u64)]);
//! sim.run(&mut p, 1);
//! assert!(p.received(0).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod engine;
pub mod family;
pub mod faults;
mod params;
mod protocol;
pub mod rng;
mod runnable;
pub mod testing;
mod values;

pub use bitset::WordBitset;
pub use engine::{CollisionModel, Metrics, RoundView, RunOutcome, RunStats, SimScratch, Simulator};
pub use family::{OverrideClass, OverrideSpec, ParsedArgs, ProtocolFamily};
pub use faults::{FaultError, FaultPlan, FaultSchedule};
pub use params::NetParams;
pub use protocol::{Protocol, Round, TxBuf};
pub use runnable::{Runnable, TrialCtx, TrialPool, TrialRecord};
pub use values::NodeValues;
