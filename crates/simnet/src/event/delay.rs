//! Delay models and the serialisable timing axis of a scenario.
//!
//! Two layers live here:
//!
//! * the **serde layer** — [`DelaySpec`], [`TimingSpec`] and [`EngineKind`] —
//!   the declarative, replayable description stored on a
//!   [`ScenarioSpec`](crate::sim::ScenarioSpec) and enumerated by sweep grids;
//! * the crate-private **runtime layer** — `LinkDelay`, the resolved form
//!   the engine's `Timed` delivery policy consults per message, produced by
//!   [`Engine::with_timing`](crate::Engine::with_timing) once the run's nodes
//!   and seed are known (a partition needs concrete identifiers; a jitter
//!   model needs a derived seed stream).
//!
//! All models are pure functions of `(from, to, send time, sequence number)`,
//! so executions stay bit-for-bit deterministic for a fixed scenario seed.

use std::collections::HashSet;

use serde::{Deserialize, Serialize, Value};

use crate::id::NodeId;
use crate::rng::derive_seed;

/// Seed stream tag for the jitter delay model (see `LinkDelay::resolve`).
const JITTER_STREAM: u64 = 0x6a69_7474; // "jitt"

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
    /// The Lemma 14/15 construction: the first `first` correct nodes (in
    /// construction order) are group 0, the others group 1; identities in
    /// neither, such as Byzantine ones, count as group 0. Intra-group
    /// messages take one round, cross-group messages take `cross` units — or
    /// are never delivered when `cross` is `None` (the asynchronous case).
    Partition {
        /// Size of group 0.
        first: usize,
        /// Cross-partition delay (`None` = dropped, the Lemma 14 omission).
        cross: Option<u64>,
    },
    /// [`DelaySpec::Partition`] with `first` = half the correct nodes, rounded
    /// down.
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
    /// Virtual time units per round. Purely a scale factor; 1 keeps virtual
    /// time equal to round numbers.
    pub round_units: u64,
    /// Per-link delay model.
    pub delay: DelaySpec,
    /// When set, deliveries due at the same instant are shuffled by a seeded
    /// key derived from this seed (same seed ⇒ same order, always).
    pub reorder_seed: Option<u64>,
    /// Serialised as `"max_skew":0`, so recorded scenarios and reports keep
    /// their bytes; every node steps every round, so no other value exists.
    max_skew: NoSkew,
}

/// The wire form of per-node timer skew, which the engine does not have: it
/// writes `0` and reads nothing else. It keeps the `u64`'s layout, so every
/// struct that embeds a `TimingSpec` keeps its size and the allocation
/// pattern of a run stays as it was.
#[derive(Clone, Debug, PartialEq, Eq)]
#[repr(u64)]
enum NoSkew {
    Zero = 0,
}

impl Serialize for NoSkew {
    fn to_value(&self) -> Value {
        Value::U64(0)
    }
}

impl Deserialize for NoSkew {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        match value.as_u64() {
            Some(0) => Ok(NoSkew::Zero),
            _ => Err(serde::Error::msg(format!(
                "max_skew must be 0 (every node steps every round), found {value:?}"
            ))),
        }
    }
}

impl TimingSpec {
    /// The timing under which the event engine is byte-identical to the
    /// synchronous engine: one unit per round, synchronous delays, no
    /// reordering.
    pub fn synchronous() -> Self {
        TimingSpec {
            round_units: 1,
            delay: DelaySpec::Synchronous,
            reorder_seed: None,
            max_skew: NoSkew::Zero,
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

    /// Sets the virtual units per round.
    pub fn units(mut self, round_units: u64) -> Self {
        self.round_units = round_units;
        self
    }

    /// Whether this timing is the zero-jitter special case (equivalent to the
    /// synchronous engine, and admissible under the paper's theorems).
    pub fn is_synchronous(&self) -> bool {
        self.delay == DelaySpec::Synchronous && self.reorder_seed.is_none()
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

/// The resolved per-link delay function the engine consults per message.
#[derive(Clone, Debug)]
pub(crate) enum LinkDelay {
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
    /// Two groups: `same` units within a group, `cross` across them (`None` =
    /// never delivered). `second` is group 1; every other identity is in
    /// group 0, Byzantine and joining ones included.
    Partitioned {
        /// The members of group 1.
        second: HashSet<NodeId>,
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
    /// Resolves `timing`'s delay model against a concrete run: the seed feeds
    /// the jitter stream, and `ids` — the correct nodes in construction order —
    /// anchor a partition (its first `first` are group 0, the rest group 1).
    /// Only a partition reads `ids`.
    pub(crate) fn resolve(
        timing: &TimingSpec,
        seed: u64,
        ids: impl ExactSizeIterator<Item = NodeId>,
    ) -> Self {
        let round_units = timing.round_units.max(1);
        let (first, cross) = match &timing.delay {
            DelaySpec::Partition { first, cross } => (*first, *cross),
            DelaySpec::PartitionHalves { cross } => (ids.len() / 2, *cross),
            DelaySpec::Synchronous => return LinkDelay::Constant(round_units),
            DelaySpec::Constant { units } => return LinkDelay::Constant((*units).max(1)),
            DelaySpec::Jitter { min, max } => {
                let min = (*min).max(1);
                return LinkDelay::Jitter {
                    min,
                    max: (*max).max(min),
                    seed: derive_seed(seed, JITTER_STREAM),
                };
            }
            DelaySpec::Gst { gst, bound } => {
                return LinkDelay::Gst {
                    gst: *gst,
                    bound: (*bound).max(1),
                }
            }
        };
        LinkDelay::Partitioned {
            second: ids.skip(first).collect(),
            same: round_units,
            cross,
        }
    }

    /// Arrival time of a message sent `from → to` at time `now` with global
    /// sequence number `seq`, or `None` if the message is never delivered.
    pub(crate) fn arrival(&self, from: NodeId, to: NodeId, now: u64, seq: u64) -> Option<u64> {
        match self {
            LinkDelay::Constant(_) | LinkDelay::Gst { .. } => self.broadcast_arrival(now),
            LinkDelay::Jitter { min, max, seed } => {
                let span = max.saturating_sub(*min) + 1;
                Some(now + min + derive_seed(*seed, seq) % span)
            }
            LinkDelay::Partitioned {
                second,
                same,
                cross,
            } => {
                if second.contains(&from) == second.contains(&to) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_spec_round_trips_through_serde() {
        let specs = vec![
            TimingSpec::synchronous(),
            TimingSpec::synchronous()
                .with_delay(DelaySpec::Jitter { min: 1, max: 4 })
                .reorder(9),
            TimingSpec::synchronous().with_delay(DelaySpec::Gst { gst: 40, bound: 2 }),
            TimingSpec::synchronous().with_delay(DelaySpec::PartitionHalves { cross: None }),
            TimingSpec::synchronous().with_delay(DelaySpec::Partition {
                first: 3,
                cross: Some(9),
            }),
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

        // The wire format of every recorded scenario and report: the
        // `max_skew` key stays, at 0, and no other value reads back.
        let json = |spec: &TimingSpec| serde_json::to_string(spec).expect("specs serialise");
        let synchronous = json(&TimingSpec::synchronous());
        assert_eq!(
            synchronous,
            r#"{"round_units":1,"delay":"Synchronous","reorder_seed":null,"max_skew":0}"#
        );
        let jitter = TimingSpec::synchronous()
            .units(8)
            .with_delay(DelaySpec::Jitter { min: 1, max: 8 })
            .reorder(0x5EED);
        assert_eq!(
            json(&jitter),
            r#"{"round_units":8,"delay":{"Jitter":{"min":1,"max":8}},"reorder_seed":24301,"max_skew":0}"#
        );
        let skewed = synchronous.replace(r#""max_skew":0"#, r#""max_skew":3"#);
        let error = serde_json::from_str::<TimingSpec>(&skewed).expect_err("only 0 reads back");
        assert!(error.to_string().contains("max_skew"), "{error}");
    }

    #[test]
    fn synchronous_timing_is_flagged_as_such() {
        assert!(TimingSpec::synchronous().is_synchronous());
        assert!(!TimingSpec::synchronous().reorder(1).is_synchronous());
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

    fn partitioned(delay: DelaySpec, ids: &[NodeId]) -> HashSet<NodeId> {
        let timing = TimingSpec::synchronous().with_delay(delay);
        let LinkDelay::Partitioned { second, .. } =
            LinkDelay::resolve(&timing, 0, ids.iter().copied())
        else {
            panic!("expected a partitioned link delay");
        };
        second
    }

    #[test]
    fn identities_in_no_group_are_in_group_zero() {
        let ids: Vec<NodeId> = (1..=4).map(NodeId::new).collect();
        let timing = TimingSpec::synchronous().with_delay(DelaySpec::Partition {
            first: 1,
            cross: None,
        });
        let delay = LinkDelay::resolve(&timing, 0, ids.iter().copied());
        let stranger = NodeId::new(42);
        assert_eq!(delay.arrival(stranger, ids[0], 5, 0), Some(6));
        assert_eq!(delay.arrival(stranger, ids[1], 5, 0), None);
    }

    #[test]
    fn partition_halves_split_the_correct_ids() {
        let ids: Vec<NodeId> = (1..=6).map(NodeId::new).collect();
        let halves = partitioned(DelaySpec::PartitionHalves { cross: None }, &ids);
        assert_eq!(halves, ids[3..].iter().copied().collect());
        let first = partitioned(
            DelaySpec::Partition {
                first: 3,
                cross: None,
            },
            &ids,
        );
        assert_eq!(first, halves, "halves are the partition at correct / 2");
        let uneven = partitioned(
            DelaySpec::Partition {
                first: 1,
                cross: None,
            },
            &ids,
        );
        assert_eq!(uneven, ids[1..].iter().copied().collect());
    }
}
