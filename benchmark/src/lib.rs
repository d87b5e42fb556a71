//! The repository benchmark.
//!
//! What this repository *serves* is simulated agreement — fuzz grids of small
//! adversarial runs, large-`n` single shots, served streams and crash/restart
//! soaks — so the benchmark measures the host cost of exactly those, end to
//! end (generator → mux → engine → WAL → checker → serialised `RunReport`)
//! and layer by layer, through the driver-level public API only
//! ([`surface`]). See `README.md` for the workload and metric definitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod measure;
pub mod results;
pub mod spec;
pub mod stats;
pub mod surface;
pub mod trace;
pub mod workloads;
