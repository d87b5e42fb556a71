//! # uba-bench
//!
//! Workload generators, the E1–E14 experiment harness, the property fuzzer and
//! the committed `BENCH_*.json` artifacts.
//!
//! The paper is a theory paper with no empirical tables; its "results" are theorems
//! about correctness, resiliency and complexity. The experiment suite here validates
//! each of those claims empirically. Every experiment is a pure function returning a
//! [`Table`], so the same code backs the `experiments` binary and the integration
//! tests. The artifacts (`baseline`, `scaling`, `stream`, `soak`) are read, written
//! and drift-checked through the one [`artifact`] module.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p uba-bench --release --bin experiments -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod baseline;
pub mod experiments;
pub mod experiments_ext;
pub mod fuzz;
pub mod montecarlo;
pub mod scaling;
pub mod search;
pub mod soak;
pub mod stream;
pub mod table;
pub mod workload;

pub use baseline::{baseline_file, BaselineFile};
pub use experiments::{all_experiments, experiment_by_name};
pub use fuzz::{
    boundary_grid, boundary_grid_with, boundary_id_spaces, boundary_matrix, boundary_violations,
    default_grid, fuzz_boundary, fuzz_grid, property_id, replay_failures, run_case, Counterexample,
    FamilyBoundary, FuzzCase, ProtocolId,
};
pub use montecarlo::{ResilienceSweep, SweepConfig};
pub use scaling::{scaling_file, ScalingFile};
pub use search::{search_grid, SearchConfig, SearchOutcome, SearchStep};
pub use soak::{run_soak, soak_table, SoakConfig, SoakFile, SoakRow};
pub use stream::{
    run_consensus_stream, run_total_order_stream, stream_drift, stream_file, stream_table,
    StreamConfig, StreamFile, StreamOutcome, StreamRow,
};
pub use table::Table;
