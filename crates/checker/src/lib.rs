//! # uba-checker
//!
//! Post-hoc **property oracles** for the agreement guarantees proved in
//! Khanchandani & Wattenhofer, *"Byzantine Agreement with Unknown Participants and
//! Failures"* (IPDPS 2021).
//!
//! The protocols in `uba-core` are state machines; the theorems of the paper are
//! statements about what the collection of correct nodes outputs. This crate turns
//! every theorem into an executable check over the observable outcome of an
//! execution, so that integration tests, the Monte-Carlo sweeps and the experiment
//! harness all verify the *same* formal properties instead of re-implementing ad-hoc
//! assertions:
//!
//! | Paper statement | Oracle |
//! |---|---|
//! | Theorem 1 — reliable broadcast: correctness, unforgeability, relay | [`broadcast::check_reliable_broadcast`] |
//! | Theorem 2 — rotor-coordinator: good round, `O(n)` termination | [`rotor::check_rotor`] |
//! | Theorem 3 — consensus: agreement, validity, `O(f)` rounds | [`consensus::check_consensus`] |
//! | Theorem 4 — approximate agreement: containment, contraction | [`approx::check_approx`], [`approx::check_convergence`] |
//! | Theorem 5 — parallel consensus: validity, agreement, termination | [`parallel::check_parallel_consensus`] |
//! | Theorem 6 — total ordering: chain-prefix, chain-growth | [`chain::check_chain_prefix`], [`chain::check_chain_growth`] |
//!
//! Crash/restart executions additionally run the [`recovery`] oracles —
//! cross-restart equivocation, state-prefix consistency and double-consume —
//! whenever a report carries a recovery section (see `docs/RECOVERY.md`).
//!
//! The [`run_report`] module replays the applicable oracles directly over a
//! [`RunReport`](uba_core::sim::RunReport) produced by the `Simulation` driver —
//! [`attach_verdicts`] stamps the verdicts into the report itself, which is how the
//! recorded JSON baselines carry their own verification.
//!
//! Every oracle returns a [`CheckReport`]: the list of concrete [`Violation`]s found
//! (empty on success) together with how many individual checks were evaluated, so a
//! passing report over zero checks is distinguishable from a passing report over
//! thousands.
//!
//! The oracles deliberately take *observations* (decisions, accept records, chains)
//! rather than engine or protocol handles, so they can also be applied to recorded
//! traces, to the known-`(n, f)` baselines in `uba-baselines`, or to any future
//! implementation of the same interfaces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod broadcast;
pub mod chain;
pub mod consensus;
pub mod margin;
pub mod parallel;
pub mod recovery;
pub mod report;
pub mod rotor;
pub mod run_report;
pub mod stream;
pub mod trace;

pub use margin::margin_section;
pub use recovery::check_recovery;
pub use report::{CheckReport, Violation};
pub use run_report::{attach_verdicts, check_run_report};
pub use stream::check_stream;
pub use trace::{attribute_trace, check_zero_copy, TraceAttribution};
