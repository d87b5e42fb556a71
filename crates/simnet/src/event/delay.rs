//! Delay models and the serialisable timing axis of a scenario.
//!
//! Two layers live here:
//!
//! * the **serde layer** — [`DelaySpec`], [`TimingSpec`] and [`EngineKind`] —
//!   the declarative, replayable description stored on a
//!   [`ScenarioSpec`](crate::sim::ScenarioSpec) and enumerated by sweep grids;
//! * the **runtime layer** — [`LinkDelay`], [`PartitionSpec`] and
//!   [`EventTiming`] — the resolved form the engine's `Timed` delivery policy
//!   actually consults per message, produced by [`EventTiming::from_spec`]
//!   once the scenario's node set and seed are known (a partition spec needs
//!   concrete identifiers; a jitter model needs a derived seed stream).
//!
//! All models are pure functions of `(from, to, send time, sequence number)`,
//! so executions stay bit-for-bit deterministic for a fixed scenario seed.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::id::NodeId;
use crate::rng::derive_seed;

/// Seed stream tag for the jitter delay model (see [`EventTiming::from_spec`]).
const JITTER_STREAM: u64 = 0x6a69_7474; // "jitt"
/// Seed stream tag for the per-node round skew.
const SKEW_STREAM: u64 = 0x736b_6577; // "skew"

/// Declarative per-link delay model (the serialisable scenario axis).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DelaySpec {
    /// Every message arrives at the recipient's next activation — the
    /// zero-jitter special case that is byte-identical to the synchronous
    /// engine.
    Synchronous,
    /// Every message takes exactly `units` virtual time units.
    Constant {
        /// Fixed link delay (clamped to at least 1 unit when resolved).
        units: u64,
    },
    /// Seeded uniform delay in `min..=max` units, derived from the scenario
    /// seed and the message sequence number.
    Jitter {
        /// Smallest possible delay in units.
        min: u64,
        /// Largest possible delay in units.
        max: u64,
    },
    /// The Lemma 14/15 construction as a declarative axis: the correct nodes
    /// are split into two halves (first half = group 0), intra-half messages
    /// take one round, cross-half messages take `cross` units — or are never
    /// delivered when `cross` is `None` (the asynchronous case).
    PartitionHalves {
        /// Cross-partition delay (`None` = dropped, the Lemma 14 omission).
        cross: Option<u64>,
    },
    /// Partial synchrony with a global stabilisation time: a message sent at
    /// `t < gst` may be delayed until `gst + bound`; a message sent at
    /// `t >= gst` arrives within `bound` units. The adversary-worst-case
    /// schedule (every pre-GST message held as long as allowed) is used, which
    /// is what makes pre-GST executions indistinguishable from asynchrony.
    Gst {
        /// Global stabilisation time, in virtual units.
        gst: u64,
        /// Post-GST delivery bound, in units (clamped to at least 1).
        bound: u64,
    },
}

/// The full timing axis of an event-engine scenario.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingSpec {
    /// Virtual time units per node round (the timer period). Purely a scale
    /// factor; 1 keeps virtual time equal to round numbers.
    pub round_units: u64,
    /// Per-link delay model.
    pub delay: DelaySpec,
    /// When set, deliveries due at the same instant are shuffled by a seeded
    /// key derived from this seed (same seed ⇒ same order, always).
    pub reorder_seed: Option<u64>,
    /// Per-node round-timer skew budget in units (0 = lock-step timers).
    pub max_skew: u64,
}

impl TimingSpec {
    /// The timing under which the event engine is byte-identical to the
    /// synchronous engine: one unit per round, synchronous delays, no
    /// reordering, no skew.
    pub fn synchronous() -> Self {
        TimingSpec {
            round_units: 1,
            delay: DelaySpec::Synchronous,
            reorder_seed: None,
            max_skew: 0,
        }
    }

    /// Replaces the delay model.
    pub fn with_delay(mut self, delay: DelaySpec) -> Self {
        self.delay = delay;
        self
    }

    /// Enables seeded same-instant reordering.
    pub fn reorder(mut self, seed: u64) -> Self {
        self.reorder_seed = Some(seed);
        self
    }

    /// Sets the per-node timer skew budget.
    pub fn skew(mut self, max_skew: u64) -> Self {
        self.max_skew = max_skew;
        self
    }

    /// Sets the virtual units per round.
    pub fn units(mut self, round_units: u64) -> Self {
        self.round_units = round_units;
        self
    }

    /// Whether this timing is the zero-jitter special case (equivalent to the
    /// synchronous engine, and admissible under the paper's theorems).
    pub fn is_synchronous(&self) -> bool {
        self.delay == DelaySpec::Synchronous && self.max_skew == 0 && self.reorder_seed.is_none()
    }
}

impl Default for TimingSpec {
    fn default() -> Self {
        TimingSpec::synchronous()
    }
}

/// Which delivery policy the [`Engine`](crate::Engine) executes a scenario
/// under — the axis stored on [`ScenarioSpec`](crate::sim::ScenarioSpec).
/// Serde-compatible with older recorded scenarios: an absent field
/// deserialises as "sync" through the `Option<EngineKind>` the spec carries.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// The lock-step `NextRound` policy ([`Engine::new`](crate::Engine::new)).
    #[default]
    Sync,
    /// The `Timed` policy ([`Engine::with_timing`](crate::Engine::with_timing))
    /// under the given timing — the queue runs even when the timing is
    /// synchronous.
    Event(TimingSpec),
}

impl EngineKind {
    /// The `Timed` policy under synchronous timing (the zero-jitter case).
    pub fn event() -> Self {
        EngineKind::Event(TimingSpec::synchronous())
    }
}

/// Assignment of nodes to partition groups — the two sides `A` and `B` of the
/// Lemma 14/15 constructions, generalised to any number of groups.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionSpec {
    groups: HashMap<NodeId, u32>,
}

impl PartitionSpec {
    /// Creates an empty spec (every node defaults to group 0).
    pub fn new() -> Self {
        PartitionSpec::default()
    }

    /// Assigns a node to a group.
    pub fn assign(&mut self, id: NodeId, group: u32) {
        self.groups.insert(id, group);
    }

    /// Builder-style variant of [`PartitionSpec::assign`] for a whole group.
    pub fn with_group(mut self, group: u32, ids: impl IntoIterator<Item = NodeId>) -> Self {
        for id in ids {
            self.assign(id, group);
        }
        self
    }

    /// The group of a node (0 if unassigned).
    pub fn group_of(&self, id: NodeId) -> u32 {
        self.groups.get(&id).copied().unwrap_or(0)
    }

    /// Whether two nodes are in the same group.
    pub fn same_group(&self, a: NodeId, b: NodeId) -> bool {
        self.group_of(a) == self.group_of(b)
    }
}

/// The resolved per-link delay function the engine consults per message.
#[derive(Clone, Debug)]
pub enum LinkDelay {
    /// Fixed delay in units.
    Constant(u64),
    /// Seeded uniform delay in `min..=max`.
    Jitter {
        /// Smallest delay.
        min: u64,
        /// Largest delay.
        max: u64,
        /// Derived seed for the per-message draw.
        seed: u64,
    },
    /// Partitioned links: `same` units within a group, `cross` across groups
    /// (`None` = never delivered).
    Partitioned {
        /// Node-to-group assignment.
        spec: PartitionSpec,
        /// Intra-group delay.
        same: u64,
        /// Cross-group delay (`None` = dropped).
        cross: Option<u64>,
    },
    /// GST partial synchrony (see [`DelaySpec::Gst`]).
    Gst {
        /// Global stabilisation time.
        gst: u64,
        /// Post-GST delivery bound.
        bound: u64,
    },
}

impl LinkDelay {
    /// Arrival time of a message sent `from → to` at time `now` with global
    /// sequence number `seq`, or `None` if the message is never delivered.
    pub fn arrival(&self, from: NodeId, to: NodeId, now: u64, seq: u64) -> Option<u64> {
        match self {
            LinkDelay::Constant(_) | LinkDelay::Gst { .. } => self.broadcast_arrival(now),
            LinkDelay::Jitter { min, max, seed } => {
                let span = max.saturating_sub(*min) + 1;
                Some(now + min + derive_seed(*seed, seq) % span)
            }
            LinkDelay::Partitioned { spec, same, cross } => {
                if spec.same_group(from, to) {
                    Some(now + same)
                } else {
                    cross.map(|units| now + units)
                }
            }
        }
    }

    /// The one arrival time shared by every recipient of a broadcast sent at
    /// `now` — for the models whose delay depends on neither the link nor the
    /// sequence number (and which never drop); `None` for the per-message
    /// models. This is what lets a broadcast stay one entry in flight.
    pub(crate) fn broadcast_arrival(&self, now: u64) -> Option<u64> {
        match self {
            LinkDelay::Constant(units) => Some(now + units),
            LinkDelay::Gst { gst, bound } => {
                // Worst-case partially-synchronous schedule: pre-GST messages
                // are held until the stabilisation time plus the bound.
                if now >= *gst {
                    Some(now + bound)
                } else {
                    Some(gst + bound)
                }
            }
            LinkDelay::Jitter { .. } | LinkDelay::Partitioned { .. } => None,
        }
    }
}

/// The fully resolved timing configuration of the engine's `Timed` delivery
/// policy (see [`Engine::with_timing`](crate::Engine::with_timing)).
#[derive(Clone, Debug)]
pub struct EventTiming {
    /// Virtual units per node round (the timer period).
    pub round_units: u64,
    /// Resolved per-link delay function.
    pub delay: LinkDelay,
    /// Seeded same-instant reordering (see [`TimingSpec::reorder_seed`]).
    pub reorder_seed: Option<u64>,
    /// Per-node timer skew budget.
    pub max_skew: u64,
    /// Derived seed for the per-node skew draw.
    pub skew_seed: u64,
}

impl EventTiming {
    /// The zero-jitter timing under which `Timed` is byte-identical to
    /// `NextRound`.
    pub fn synchronous() -> Self {
        EventTiming {
            round_units: 1,
            delay: LinkDelay::Constant(1),
            reorder_seed: None,
            max_skew: 0,
            skew_seed: 0,
        }
    }

    /// Resolves a declarative [`TimingSpec`] against a concrete scenario: the
    /// seed feeds the jitter and skew streams, and the correct-node list
    /// anchors the `PartitionHalves` group assignment (first half = group 0),
    /// mirroring the Lemma 14/15 constructions.
    pub fn from_spec(spec: &TimingSpec, seed: u64, correct_ids: &[NodeId]) -> Self {
        let round_units = spec.round_units.max(1);
        let delay = match &spec.delay {
            DelaySpec::Synchronous => LinkDelay::Constant(round_units),
            DelaySpec::Constant { units } => LinkDelay::Constant((*units).max(1)),
            DelaySpec::Jitter { min, max } => {
                let min = (*min).max(1);
                LinkDelay::Jitter {
                    min,
                    max: (*max).max(min),
                    seed: derive_seed(seed, JITTER_STREAM),
                }
            }
            DelaySpec::PartitionHalves { cross } => {
                let half = correct_ids.len() / 2;
                let partition = PartitionSpec::new()
                    .with_group(0, correct_ids.iter().take(half).copied())
                    .with_group(1, correct_ids.iter().skip(half).copied());
                LinkDelay::Partitioned {
                    spec: partition,
                    same: round_units,
                    cross: *cross,
                }
            }
            DelaySpec::Gst { gst, bound } => LinkDelay::Gst {
                gst: *gst,
                bound: (*bound).max(1),
            },
        };
        EventTiming {
            round_units,
            delay,
            reorder_seed: spec.reorder_seed,
            max_skew: spec.max_skew,
            skew_seed: derive_seed(seed, SKEW_STREAM),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_spec_round_trips_through_serde() {
        let specs = vec![
            TimingSpec::synchronous(),
            TimingSpec::synchronous()
                .with_delay(DelaySpec::Jitter { min: 1, max: 4 })
                .reorder(9)
                .skew(2),
            TimingSpec::synchronous().with_delay(DelaySpec::Gst { gst: 40, bound: 2 }),
            TimingSpec::synchronous().with_delay(DelaySpec::PartitionHalves { cross: None }),
        ];
        for spec in specs {
            let kind = EngineKind::Event(spec);
            let back: EngineKind =
                Deserialize::from_value(&Serialize::to_value(&kind)).expect("round trip");
            assert_eq!(back, kind);
        }
        let sync: EngineKind =
            Deserialize::from_value(&Serialize::to_value(&EngineKind::Sync)).unwrap();
        assert_eq!(sync, EngineKind::Sync);
    }

    #[test]
    fn synchronous_timing_is_flagged_as_such() {
        assert!(TimingSpec::synchronous().is_synchronous());
        assert!(!TimingSpec::synchronous().reorder(1).is_synchronous());
        assert!(!TimingSpec::synchronous().skew(1).is_synchronous());
        assert!(!TimingSpec::synchronous()
            .with_delay(DelaySpec::Constant { units: 3 })
            .is_synchronous());
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let delay = LinkDelay::Jitter {
            min: 2,
            max: 5,
            seed: 123,
        };
        for seq in 0..50 {
            let a = delay
                .arrival(NodeId::new(1), NodeId::new(2), 10, seq)
                .unwrap();
            let b = delay
                .arrival(NodeId::new(1), NodeId::new(2), 10, seq)
                .unwrap();
            assert_eq!(a, b);
            assert!((12..=15).contains(&a));
        }
    }

    #[test]
    fn gst_holds_early_messages_until_stabilisation() {
        let delay = LinkDelay::Gst { gst: 100, bound: 3 };
        let pre = delay.arrival(NodeId::new(1), NodeId::new(2), 7, 0).unwrap();
        assert_eq!(pre, 103, "pre-GST messages are held until gst + bound");
        let post = delay
            .arrival(NodeId::new(1), NodeId::new(2), 150, 1)
            .unwrap();
        assert_eq!(post, 153, "post-GST messages respect the bound");
    }

    #[test]
    fn partition_spec_defaults_to_group_zero() {
        let spec = PartitionSpec::new();
        assert_eq!(spec.group_of(NodeId::new(42)), 0);
        assert!(spec.same_group(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn partition_halves_split_the_correct_ids() {
        let ids: Vec<NodeId> = (1..=6).map(NodeId::new).collect();
        let timing = EventTiming::from_spec(
            &TimingSpec::synchronous().with_delay(DelaySpec::PartitionHalves { cross: None }),
            0,
            &ids,
        );
        let LinkDelay::Partitioned { spec, .. } = &timing.delay else {
            panic!("expected a partitioned link delay");
        };
        assert!(spec.same_group(ids[0], ids[2]));
        assert!(spec.same_group(ids[3], ids[5]));
        assert!(!spec.same_group(ids[0], ids[3]));
    }
}
