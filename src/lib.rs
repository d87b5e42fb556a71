//! # uba
//!
//! Workspace facade for the reproduction of Khanchandani & Wattenhofer,
//! *"Byzantine Agreement with Unknown Participants and Failures"* (IPDPS 2021).
//!
//! This crate re-exports the workspace members so the examples and the cross-crate
//! integration tests have a single dependency root:
//!
//! * [`simnet`] — the deterministic synchronous engine and the generic
//!   [`Simulation`](uba_simnet::sim) driver;
//! * [`core`] — the paper's id-only algorithms and their protocol factories;
//! * [`checker`] — executable property oracles for the paper's theorems;
//! * [`baselines`] — classic known-`(n, f)` comparison algorithms;
//! * [`mod@bench`] — workloads, the E1–E14 experiment harness and Monte-Carlo sweeps.

#![forbid(unsafe_code)]

pub use uba_baselines as baselines;
pub use uba_bench as bench;
pub use uba_checker as checker;
pub use uba_core as core;
pub use uba_simnet as simnet;
