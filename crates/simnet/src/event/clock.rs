//! Virtual time and per-node round timers.
//!
//! Under timed delivery the engine does not tick a global barrier: every node
//! owns a [`NodeTimers`] entry that says when it next wakes up. The engine
//! advances a [`VirtualClock`] to the earliest due timer, steps exactly the
//! nodes whose timers fired, and re-arms them one period later. With zero skew
//! every timer fires at the same instants — `period, 2·period, …` — and the
//! schedule degenerates to lock-step rounds; with a
//! non-zero skew budget each node is offset by a seeded, per-identifier phase,
//! so "round `r`" becomes a purely local notion.

use std::collections::HashMap;

use crate::engine::FastState;
use crate::id::NodeId;
use crate::rng::derive_seed;

/// A monotone virtual clock measured in abstract time units. One synchronous
/// round corresponds to `round_units` of virtual time (see
/// [`TimingSpec::round_units`](super::TimingSpec::round_units)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now: u64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the clock to `to`. Time never moves backwards; an earlier
    /// target leaves the clock unchanged.
    pub fn advance_to(&mut self, to: u64) {
        self.now = self.now.max(to);
    }
}

/// The per-node wake-up state: when the node's timer next fires and how many
/// times it has fired so far (the node's *local* round count).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct NodeTimer {
    next_fire: u64,
    fires: u64,
}

/// Seeded, per-node round timers.
///
/// Every registered node fires every `period` units, phase-shifted by a
/// deterministic skew in `0..=max_skew` derived from `(skew_seed, id)`. A zero
/// `max_skew` puts all nodes on the same schedule, which is what the
/// zero-jitter equivalence with lock-step rounds relies on.
#[derive(Debug)]
pub struct NodeTimers {
    period: u64,
    max_skew: u64,
    skew_seed: u64,
    timers: HashMap<NodeId, NodeTimer, FastState>,
}

impl NodeTimers {
    /// Creates an empty timer table. `period` must be non-zero (it is clamped
    /// to at least 1 so a degenerate spec cannot stall virtual time).
    pub fn new(period: u64, max_skew: u64, skew_seed: u64) -> Self {
        NodeTimers {
            period: period.max(1),
            max_skew,
            skew_seed,
            timers: HashMap::default(),
        }
    }

    /// The tick period shared by every node.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// The deterministic phase offset of `id` in `0..=max_skew`.
    fn skew(&self, id: NodeId) -> u64 {
        if self.max_skew == 0 {
            0
        } else {
            derive_seed(self.skew_seed, id.raw()) % (self.max_skew + 1)
        }
    }

    /// Registers a node whose first fire is one period (plus skew) after time
    /// zero — the schedule every initial member starts on.
    pub fn register(&mut self, id: NodeId) {
        let next_fire = self.period + self.skew(id);
        self.timers.insert(
            id,
            NodeTimer {
                next_fire,
                fires: 0,
            },
        );
    }

    /// Registers a node joining mid-run: its first fire is at time `at`, so a
    /// churn joiner steps together with the batch that admitted it.
    pub fn register_at(&mut self, id: NodeId, at: u64) {
        self.timers.insert(
            id,
            NodeTimer {
                next_fire: at,
                fires: 0,
            },
        );
    }

    /// Removes a node's timer (dynamic leave).
    pub fn remove(&mut self, id: NodeId) {
        self.timers.remove(&id);
    }

    /// The earliest pending fire time across all registered nodes, or `None`
    /// if no node is registered.
    pub fn next_due(&self) -> Option<u64> {
        self.timers.values().map(|t| t.next_fire).min()
    }

    /// Whether `id`'s timer is due at or before time `t`.
    pub fn due_at(&self, id: NodeId, t: u64) -> bool {
        self.timers
            .get(&id)
            .is_some_and(|timer| timer.next_fire <= t)
    }

    /// Fires `id`'s timer: re-arms it one period later and bumps its local
    /// round count. A node without a timer is ignored.
    pub fn fire(&mut self, id: NodeId) {
        if let Some(timer) = self.timers.get_mut(&id) {
            timer.next_fire += self.period;
            timer.fires += 1;
        }
    }

    /// How many times `id`'s timer has fired — the node's local round count.
    pub fn fires(&self, id: NodeId) -> u64 {
        self.timers.get(&id).map_or(0, |timer| timer.fires)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let mut clock = VirtualClock::new();
        clock.advance_to(5);
        clock.advance_to(3);
        assert_eq!(clock.now(), 5);
        clock.advance_to(9);
        assert_eq!(clock.now(), 9);
    }

    #[test]
    fn zero_skew_timers_fire_in_lock_step() {
        let mut timers = NodeTimers::new(4, 0, 0);
        for raw in [3u64, 17, 42] {
            timers.register(NodeId::new(raw));
        }
        assert_eq!(timers.next_due(), Some(4));
        for raw in [3u64, 17, 42] {
            assert!(timers.due_at(NodeId::new(raw), 4));
            timers.fire(NodeId::new(raw));
        }
        assert_eq!(timers.next_due(), Some(8));
        assert_eq!(timers.fires(NodeId::new(17)), 1);
    }

    #[test]
    fn skewed_timers_are_deterministic_and_bounded() {
        let a = NodeTimers::new(10, 3, 77);
        let b = NodeTimers::new(10, 3, 77);
        for raw in 0..20u64 {
            let id = NodeId::new(raw);
            assert_eq!(a.skew(id), b.skew(id), "skew must be a pure function");
            assert!(a.skew(id) <= 3, "skew exceeds its budget");
        }
    }

    #[test]
    fn joiners_fire_with_the_admitting_batch() {
        let mut timers = NodeTimers::new(5, 0, 0);
        timers.register(NodeId::new(1));
        timers.register_at(NodeId::new(2), 15);
        assert!(timers.due_at(NodeId::new(2), 15));
        assert!(!timers.due_at(NodeId::new(2), 14));
    }
}
