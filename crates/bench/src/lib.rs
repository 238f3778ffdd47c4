//! Benchmark harness: the declarative scenario subsystem (registry +
//! campaign runner), the paper-reproduction experiment suite `e1`…`e12`
//! (README, *Running campaigns*), and shared table / trial utilities used by the
//! criterion benches.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p rn_bench --bin experiments -- all
//! ```
//!
//! a single preset with its id (`e1` … `e12`, `smoke`, `sweep_*`), or any
//! ad-hoc protocol/topology pair with
//!
//! ```text
//! cargo run --release -p rn_bench --bin experiments -- \
//!     --scenario "leader_election@torus(32x32)" --trials 20 --json out.json
//! ```
//!
//! Every run is a pure function of a master seed; campaign JSON results are
//! byte-identical for a fixed seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod diff;
pub mod executor;
pub mod experiments;
mod harness;
pub mod json;
pub mod listing;
pub mod presets;
pub mod registry;
pub mod sink;
pub mod stats;
pub mod workload;

pub use campaign::{
    validate_results, Campaign, CampaignResult, CellResult, CellSpec, CellStats, TrialPlan,
    RESULTS_SCHEMA,
};
pub use diff::{
    diff_results, diff_results_gated, diff_results_with, DiffOptions, DiffReport, DiffStatus,
};
pub use executor::{execute_with, resolve_threads, ExecOptions};
pub use harness::{parallel_trials, Table};
pub use json::{Json, JsonError};
pub use listing::registry_listing;
pub use registry::{
    families, find_family, model_name, parse_model, Overrides, ProtocolSpec, RegistryError,
    ScenarioSpec,
};
pub use rn_core::SourcePlacement;
pub use rn_sim::{OverrideClass, OverrideSpec, ProtocolFamily};
pub use sink::{CampaignSink, JsonStreamSink, MemorySink, RunHeader};
pub use stats::{exact_quantile_sorted, P2Sketch, QuantityAccum, TrialAccumulator};
pub use workload::BenchWorkload;
