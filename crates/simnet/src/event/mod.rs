//! The `Timed` delivery policy of the [`Engine`](crate::Engine): virtual time,
//! per-link delays, reordering and partial synchrony on the same engine — and
//! behind the same `Simulation` plumbing — as lock-step rounds.
//!
//! The paper's hardest results are *about* timing: Section IX proves that
//! agreement without knowledge of `n` and `f` is impossible in asynchronous
//! and semi-synchronous systems, and the constructions behind Lemmas 14/15 are
//! delay schedules. This module generalises the repository's scenario space
//! from "synchronous rounds only" to arbitrary deterministic timing:
//!
//! * [`VirtualClock`] / [`NodeTimers`] — virtual time and seeded per-node
//!   round timers (zero skew degenerates to lock-step rounds);
//! * `queue` — the calendar of arrival instants: messages in flight wait in
//!   one bucket per instant, a broadcast as one entry, and land in
//!   `(arrival, reorder key, sequence)` order;
//! * [`DelaySpec`] / [`TimingSpec`] / [`EngineKind`] — the one public,
//!   serialisable timing language, carried by
//!   [`ScenarioSpec`](crate::sim::ScenarioSpec) and taken by
//!   [`Engine::with_timing`](crate::Engine::with_timing);
//! * `LinkDelay` — the crate-private runtime delay model a spec resolves to
//!   against a run's nodes and seed (constant, seeded jitter, two-group
//!   partition, GST partial synchrony);
//! * `timed` — the policy itself (schedule into the calendar, dispatch what
//!   is due through the engine's staged fan-out), selected by
//!   [`Engine::with_timing`](crate::Engine::with_timing) and byte-identical to
//!   lock-step rounds under [`TimingSpec::synchronous`].

pub mod clock;
pub mod delay;
pub(crate) mod queue;
pub(crate) mod timed;

pub use clock::{NodeTimers, VirtualClock};
pub use delay::{DelaySpec, EngineKind, TimingSpec};
