//! # uba-simnet
//!
//! A deterministic, round-based message-passing simulator for the
//! *id-only* Byzantine model of Khanchandani & Wattenhofer (IPDPS 2021,
//! "Byzantine Agreement with Unknown Participants and Failures").
//!
//! In the id-only model the system consists of `n` nodes, at most `f` of which are
//! Byzantine, and **no node knows `n` or `f`**. Nodes have unique but not necessarily
//! consecutive identifiers, know only their own identifier at initialisation, and the
//! computation proceeds in synchronous rounds: messages sent in round `r` are delivered
//! at the beginning of round `r + 1`. A node can broadcast to everyone or reply to a
//! node it has already heard from. The sender identifier is attached to every message
//! by the network, so a Byzantine node cannot forge its identifier when communicating
//! directly — but it can lie about anything else, including claiming to have heard from
//! non-existent nodes.
//!
//! This crate provides the substrate on which the algorithms of the paper
//! (implemented in `uba-core`) and the classic known-`(n, f)` baselines
//! (implemented in `uba-baselines`) run:
//!
//! * [`NodeId`] and [`IdSpace`] — unique, non-consecutive identifier generation;
//! * [`Shared`] — the reference-counted, digest-caching payload handle behind the
//!   zero-copy message plane (one allocation per payload, regardless of fan-out);
//! * [`Protocol`] — the state-machine interface a correct node implements;
//! * [`Inbox`] — the borrowed view a node reads its round's messages through: a
//!   broadcast lands once, on the round's common list, and every recipient reads
//!   it in place;
//! * [`Adversary`] — the interface through which Byzantine nodes inject traffic,
//!   with a *rushing* view of the round's correct messages;
//! * [`Engine`] — the one round scheduler (with dynamic membership). *When* a
//!   produced message becomes an inbox entry is a delivery policy the engine
//!   holds as a value: lock-step next-round delivery ([`Engine::new`], also
//!   reachable under its historical name [`SyncEngine`]) or timed delivery
//!   under an [`EventTiming`] ([`Engine::with_timing`]), whose per-link
//!   [`LinkDelay`]s reproduce the semi-synchronous / asynchronous
//!   impossibility constructions of Section IX;
//! * [`Metrics`] and [`TraceLog`] — round, message and delivery accounting;
//! * [`ChurnSchedule`] — declarative join/leave schedules for dynamic networks,
//!   applied by the engine itself via [`Engine::set_churn`];
//! * [`attack`] — composable, serialisable [`AttackPlan`]s: round-windowed,
//!   actor-scoped Byzantine behaviours generalising the scripted
//!   [`AdversaryKind`] presets. [`PlanAdversary`] is the only combinator: a
//!   crash, an attack window or a collusion split is a plan step, never a
//!   wrapper type around an [`Adversary`];
//! * [`sweep`] — the [`ScenarioGrid`] DSL enumerating protocols × sizes × attack
//!   plans × churn schedules × derived seeds as replayable [`SweepCase`]s;
//! * [`sim`] — the unified `Simulation` driver: a fluent [`ScenarioBuilder`], the
//!   [`ProtocolFactory`] trait every protocol (and baseline) implements, and the
//!   serialisable [`RunReport`] all experiment tooling consumes.
//!
//! Executions are fully deterministic given a seed (see [`rng`]), which makes every
//! experiment in the repository reproducible.
//!
//! ## Example
//!
//! ```
//! use uba_simnet::{NodeId, Protocol, RoundContext, Inbox, Outgoing, Destination,
//!                  SyncEngine, adversary::SilentAdversary};
//!
//! /// A toy protocol: every node broadcasts a greeting and outputs the number of
//! /// distinct greetings it received.
//! struct Greeter { id: NodeId, heard: usize, done: bool }
//!
//! impl Protocol for Greeter {
//!     type Payload = &'static str;
//!     type Output = usize;
//!     fn id(&self) -> NodeId { self.id }
//!     fn step(&mut self, ctx: &RoundContext, inbox: Inbox<'_, &'static str>)
//!         -> Vec<Outgoing<&'static str>>
//!     {
//!         match ctx.round {
//!             1 => vec![Outgoing { dest: Destination::Broadcast, payload: "hello" }],
//!             _ => { self.heard = inbox.len(); self.done = true; vec![] }
//!         }
//!     }
//!     fn output(&self) -> Option<usize> { self.done.then_some(self.heard) }
//! }
//!
//! let nodes = (0..4).map(|i| Greeter { id: NodeId::new(10 * i + 7), heard: 0, done: false });
//! let mut engine = SyncEngine::new(nodes.collect(), SilentAdversary::default(), vec![]);
//! engine.run_until_all_terminated(10).unwrap();
//! for (_, out) in engine.outputs() {
//!     assert_eq!(out, Some(4)); // every node heard all four greetings (self included)
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod attack;
pub mod dynamic;
pub mod engine;
pub mod error;
pub mod event;
pub mod id;
pub mod message;
pub mod metrics;
pub mod node;
pub mod rng;
pub mod shared;
pub mod sim;
pub mod stats;
pub mod stream;
pub mod sweep;
pub mod trace;
pub mod traffic;
pub mod vocab;
pub mod wal;

pub use adversary::{Adversary, AdversaryView, FnAdversary, SilentAdversary};
pub use attack::{
    ActorRange, AdaptiveStrategy, AttackBehavior, AttackPlan, AttackStep, PlanAdversary,
    SemanticStrategy,
};
pub use dynamic::{ChurnEvent, ChurnSchedule};
pub use engine::{Engine, EngineConfig, PhaseTimings, RunOutcome, SyncEngine};
pub use error::SimError;
pub use event::{DelaySpec, EngineKind, EventTiming, LinkDelay, PartitionSpec, TimingSpec};
pub use id::{IdSpace, NodeId};
pub use message::{Destination, Directed, Envelope, Inbox, InboxIter, Outgoing};
pub use metrics::{Metrics, RoundMetrics};
pub use node::{Protocol, Recoverable, RoundContext};
pub use shared::Shared;
pub use sim::{
    AdversaryKind, BoxedAdversary, BuildContext, Harness, NamedAdversary, ProtocolFactory,
    RecoverySection, RunReport, RunStatus, ScenarioBuilder, ScenarioSpec, Simulation,
    StopCondition,
};
pub use stats::{Histogram, RateEstimate, Summary};
pub use stream::{
    CompletedInstance, InstanceSlot, InstanceState, MuxNode, MuxWork, StreamDriver, StreamInstance,
    StreamInstanceReport, StreamSection,
};
pub use sweep::{CrashPlan, ScenarioGrid, SweepCase};
pub use trace::{TraceEvent, TraceLog};
pub use traffic::{RoundTraffic, SentRef, TrafficItem};
pub use vocab::{input_extremes, AdaptiveAdversary, PayloadVocab, VocabAdversary, VocabScene};
pub use wal::{
    RecoveryManager, RestartPolicy, RestartRecord, Snapshotter, Wal, WalConfig, WalFault, WalRecord,
};
