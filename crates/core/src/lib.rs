//! # uba-core
//!
//! Byzantine agreement **without knowing the number of participants or failures** —
//! a faithful implementation of the algorithms in Khanchandani & Wattenhofer,
//! *"Byzantine Agreement with Unknown Participants and Failures"* (IPDPS 2021).
//!
//! ## The id-only model
//!
//! The system has `n` nodes, at most `f` of them Byzantine, and **no node knows `n`
//! or `f`**. Nodes have unique but non-consecutive identifiers, the system is
//! synchronous, and the sender identifier is attached to every message. The paper
//! shows that all the fundamental agreement primitives can still be solved with the
//! optimal resiliency `n > 3f`, by replacing the unknown `f` with local `n_v/3`
//! thresholds, where `n_v` is the number of distinct nodes this node has heard from.
//!
//! ## What this crate provides
//!
//! | Paper | Module | Primitive | Factory ([`sim`]) |
//! |---|---|---|---|
//! | Algorithm 1 (§V) | [`reliable_broadcast`] | Reliable broadcast | [`sim::BroadcastFactory`] |
//! | Algorithm 2 (§VI) | [`rotor`] | Rotor-coordinator (leader rotation) | [`sim::RotorFactory`] |
//! | Algorithm 3 (§VII) | [`consensus`] | Consensus in `O(f)` rounds | [`sim::ConsensusFactory`] |
//! | Algorithm 4 (§VIII) | [`approx`] | Approximate agreement | [`sim::ApproxFactory`], [`sim::IteratedApproxFactory`] |
//! | §XI, §XII | [`approx`] | Approximate agreement under churn, subset join | [`sim::IteratedApproxFactory`] + a churn schedule |
//! | Algorithm 5 (§X) | [`early_consensus`], [`parallel_consensus`] | Parallel consensus | [`sim::ParallelConsensusFactory`] |
//! | Algorithm 6 (§XI) | [`total_order`] | Total ordering in dynamic networks | [`sim::TotalOrderFactory`] |
//! | Lemmas 14–15 (§IX) | [`impossibility`] | Impossibility constructions | — (delay engine) |
//!
//! Supporting modules: [`quorum`] (exact threshold arithmetic), [`membership`]
//! (`n_v` tracking), [`vote`] (distinct-sender tallies), [`value`] (opinion types),
//! [`adversaries`] (the payload-typed Byzantine strategies: the scripted worst cases
//! from the proofs and the rushing, traffic-aware attackers) and [`sim`] (protocol
//! factories and fluent sugar for the unified `Simulation` driver — the single
//! driver API; the old one-call `runner` shims have been removed).
//!
//! All protocols implement [`uba_simnet::Protocol`] and run on the deterministic
//! synchronous engine from the `uba-simnet` crate.
//!
//! ## Quick start
//!
//! Describe the system once with the [`sim::Simulation`] builder — correct and
//! Byzantine counts, identifier space, seed, adversary, optional churn — then point
//! it at any protocol and read the [`sim::RunReport`]:
//!
//! ```
//! use uba_core::sim::{AdversaryKind, ScenarioExt, Simulation};
//!
//! // Seven correct nodes with sparse identifiers and split opinions; two Byzantine
//! // identities trying to split the vote. Nobody is told n = 9 or f = 2.
//! let report = Simulation::scenario()
//!     .correct(7)
//!     .byzantine(2)
//!     .seed(42)
//!     .adversary(AdversaryKind::SplitVote)
//!     .consensus(&[0, 1, 0, 1, 0, 1, 0])
//!     .run()
//!     .unwrap();
//!
//! assert!(report.completed() && report.rounds > 0);
//! let consensus = report.consensus.expect("consensus section");
//! assert!(consensus.agreement, "agreement");
//! assert!(consensus.validity, "validity");
//! ```
//!
//! The same builder drives every other primitive (`.broadcast(..)`, `.rotor()`,
//! `.approx(..)`, `.parallel_consensus(..)`, `.total_order(..)`), the known-`(n, f)`
//! baselines in `uba-baselines` (via `.build(PhaseKingFactory::new(..))` etc.), and
//! custom adversaries (via `.build_with_adversary(..)`). Reports serialize through
//! serde and are verified by the `uba-checker` oracles
//! (`uba_checker::attach_verdicts`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversaries;
pub mod approx;
pub mod consensus;
pub mod early_consensus;
pub mod impossibility;
pub mod membership;
pub mod parallel_consensus;
pub mod quorum;
pub mod reliable_broadcast;
pub mod rotor;
pub mod sim;
pub mod total_order;
pub mod value;
pub mod vote;

pub use approx::{subset_join_value, ApproxAgreement, IteratedApproxAgreement};
pub use consensus::{Consensus, ConsensusMessage, Decision};
pub use early_consensus::{EarlyConsensus, InstanceId, ParallelMessage};
pub use parallel_consensus::{ParallelConsensus, ParallelDecision};
pub use reliable_broadcast::{Accepted, RbMessage, ReliableBroadcast};
pub use rotor::{RotorCoordinator, RotorMessage, RotorOutcome, RotorState};
pub use total_order::{OrderedEvent, TotalOrderMessage, TotalOrderNode};
pub use value::{Opinion, Real};
