//! Declarative churn schedules for dynamic networks (Section XI of the paper).
//!
//! The paper's dynamic model lets the adversary decide, before each round, which nodes
//! join the network — subject to `n > 3f` holding when the round starts — while nodes
//! leave by announcing it. A [`ChurnSchedule`] captures such a plan: a list of
//! [`ChurnEvent`]s keyed by the round *before* which they take effect. Experiment
//! drivers read the schedule and apply it to a [`SyncEngine`](crate::SyncEngine)
//! through its `add_node` / `remove_node` / `add_byzantine_id` /
//! `remove_byzantine_id` methods.

use serde::{Deserialize, Serialize};

use crate::id::NodeId;
use crate::wal::RestartPolicy;

/// A single membership change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnEvent {
    /// A correct node with the given identifier joins.
    JoinCorrect(NodeId),
    /// A Byzantine identity joins (becomes controllable by the adversary).
    JoinByzantine(NodeId),
    /// A correct node announces that it leaves.
    LeaveCorrect(NodeId),
    /// A Byzantine identity leaves.
    LeaveByzantine(NodeId),
    /// A node crashes: its volatile state is lost, its durable WAL survives.
    /// A schedule holding this event enables recovery on the engine it is set
    /// on (see [`Engine::set_churn`](crate::Engine::set_churn)).
    Crash(NodeId),
    /// A previously crashed node restarts, replaying its WAL (after the
    /// policy's fault, if any) and re-announcing through the membership path.
    Restart {
        /// The crashed node that restarts.
        id: NodeId,
        /// The log fault applied before replay (or [`RestartPolicy::Clean`]).
        policy: RestartPolicy,
    },
}

impl ChurnEvent {
    /// The identifier affected by the event.
    pub fn id(&self) -> NodeId {
        match *self {
            ChurnEvent::JoinCorrect(id)
            | ChurnEvent::JoinByzantine(id)
            | ChurnEvent::LeaveCorrect(id)
            | ChurnEvent::LeaveByzantine(id)
            | ChurnEvent::Crash(id)
            | ChurnEvent::Restart { id, .. } => id,
        }
    }

    /// Whether the event is a join (of either kind). A [`ChurnEvent::Restart`]
    /// is *not* a join: the identity was already admitted before it crashed.
    pub fn is_join(&self) -> bool {
        matches!(
            self,
            ChurnEvent::JoinCorrect(_) | ChurnEvent::JoinByzantine(_)
        )
    }

    /// Whether the event is part of a crash/restart cycle.
    pub fn is_crash_cycle(&self) -> bool {
        matches!(self, ChurnEvent::Crash(_) | ChurnEvent::Restart { .. })
    }
}

/// A plan of membership changes over time.
///
/// Events are stored as `(round, event)` pairs; an event with round `r` takes effect
/// *before* round `r` executes.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnSchedule {
    events: Vec<(u64, ChurnEvent)>,
}

impl ChurnSchedule {
    /// Creates an empty schedule (a static network).
    pub fn empty() -> Self {
        ChurnSchedule::default()
    }

    /// Adds an event that takes effect before the given round.
    pub fn push(&mut self, round: u64, event: ChurnEvent) {
        self.events.push((round, event));
    }

    /// Builder-style variant of [`ChurnSchedule::push`].
    pub fn with(mut self, round: u64, event: ChurnEvent) -> Self {
        self.push(round, event);
        self
    }

    /// Every scheduled `(round, event)` pair, in insertion order.
    pub fn events(&self) -> &[(u64, ChurnEvent)] {
        &self.events
    }

    /// The schedule with the `index`-th event (in insertion order) removed — the
    /// shrinking move of the fuzz harness. Indices out of range return the
    /// schedule unchanged.
    pub fn without_event(&self, index: usize) -> ChurnSchedule {
        let mut shrunk = self.clone();
        if index < shrunk.events.len() {
            shrunk.events.remove(index);
        }
        shrunk
    }

    /// The schedule with every [`ChurnEvent::Crash`] / [`ChurnEvent::Restart`]
    /// affecting `id` removed — the crash-cycle shrinking move. Dropping a
    /// crash without its restart (or vice versa) would leave an inapplicable
    /// schedule, so the cycle shrinks as a unit.
    pub fn without_crash_cycle(&self, id: NodeId) -> ChurnSchedule {
        let mut shrunk = self.clone();
        shrunk
            .events
            .retain(|(_, e)| !(e.is_crash_cycle() && e.id() == id));
        shrunk
    }

    /// The schedule with each crash/restart event whose identifier appears as
    /// an `old` key of `mapping` redirected onto its `new` replacement. The
    /// mapping is applied in one pass, so replacements cannot cascade into each
    /// other even when a `new` identifier equals another pair's `old` one.
    /// Non-crash events are never retargeted — join/leave identifiers are part
    /// of the scenario, not resolved against a population layout.
    pub fn retarget_crash_cycles(&self, mapping: &[(NodeId, NodeId)]) -> ChurnSchedule {
        let mut out = self.clone();
        for (_, event) in &mut out.events {
            if !event.is_crash_cycle() {
                continue;
            }
            if let Some(&(_, new)) = mapping.iter().find(|(old, _)| *old == event.id()) {
                *event = match *event {
                    ChurnEvent::Restart { policy, .. } => ChurnEvent::Restart { id: new, policy },
                    _ => ChurnEvent::Crash(new),
                };
            }
        }
        out
    }

    /// Whether the schedule contains any crash or restart event.
    pub fn has_crash_events(&self) -> bool {
        self.events.iter().any(|(_, e)| e.is_crash_cycle())
    }

    /// The distinct identifiers with at least one crash/restart event, in first
    /// appearance order.
    pub fn crash_cycle_ids(&self) -> Vec<NodeId> {
        let mut ids = Vec::new();
        for (_, event) in &self.events {
            if event.is_crash_cycle() && !ids.contains(&event.id()) {
                ids.push(event.id());
            }
        }
        ids
    }

    /// All events scheduled to take effect before `round`, in insertion order.
    pub fn events_before_round(&self, round: u64) -> Vec<ChurnEvent> {
        self.events
            .iter()
            .filter(|(r, _)| *r == round)
            .map(|(_, e)| *e)
            .collect()
    }

    /// Total number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The last round for which an event is scheduled, or 0 if empty.
    pub fn horizon(&self) -> u64 {
        self.events.iter().map(|(r, _)| *r).max().unwrap_or(0)
    }

    /// The largest number of Byzantine identities simultaneously in the system at
    /// any point of the schedule, starting from `initial` — the failure bound a
    /// known-`f` protocol must be told, since a promise that covers only the
    /// initial adversaries is broken the moment a Byzantine identity joins.
    pub fn peak_byzantine(&self, initial: usize) -> usize {
        let mut population = Population::new(0, initial);
        self.walk(&mut population, |_| false);
        population.peak_byzantine.max(0) as usize
    }

    /// Checks that, assuming `initial_correct` correct and `initial_byzantine`
    /// Byzantine members, the schedule keeps `n > 3f` at the start of every round up
    /// to its horizon. Returns the first violating round, if any.
    ///
    /// This is the constraint the paper places on the adversary's churn choices; the
    /// experiment generators use this check to only produce admissible schedules.
    pub fn first_resiliency_violation(
        &self,
        initial_correct: usize,
        initial_byzantine: usize,
    ) -> Option<u64> {
        let mut population = Population::new(initial_correct, initial_byzantine);
        self.walk(&mut population, |p| {
            p.correct + p.byzantine <= 3 * p.byzantine || p.correct < 0 || p.byzantine < 0
        })
    }

    /// Applies the schedule to `population` round by round, through round
    /// `horizon` or the first round whose starting population satisfies `stop`,
    /// which is returned.
    fn walk(&self, population: &mut Population, stop: impl Fn(&Population) -> bool) -> Option<u64> {
        (1..=self.horizon()).find(|&round| {
            for event in self.events_before_round(round) {
                population.apply(event);
            }
            stop(population)
        })
    }
}

/// The membership a [`ChurnSchedule`] moves: the correct and Byzantine counts,
/// plus the identities that tell a Byzantine crash/restart cycle from a correct
/// one. A Byzantine identity known from a `JoinByzantine` event that crashes
/// leaves the system until its restart, which restores it rather than counting
/// a new join; a crash of any other identifier is a correct node's.
struct Population {
    correct: i64,
    byzantine: i64,
    /// The largest `byzantine` seen after any event.
    peak_byzantine: i64,
    known_byzantine: Vec<NodeId>,
    crashed_byzantine: Vec<NodeId>,
}

impl Population {
    fn new(correct: usize, byzantine: usize) -> Self {
        Population {
            correct: correct as i64,
            byzantine: byzantine as i64,
            peak_byzantine: byzantine as i64,
            known_byzantine: Vec::new(),
            crashed_byzantine: Vec::new(),
        }
    }

    fn apply(&mut self, event: ChurnEvent) {
        match event {
            ChurnEvent::JoinCorrect(_) => self.correct += 1,
            ChurnEvent::LeaveCorrect(_) => self.correct -= 1,
            ChurnEvent::JoinByzantine(id) => {
                self.byzantine += 1;
                if !self.known_byzantine.contains(&id) {
                    self.known_byzantine.push(id);
                }
            }
            ChurnEvent::LeaveByzantine(id) => {
                self.byzantine -= 1;
                self.known_byzantine.retain(|&b| b != id);
            }
            ChurnEvent::Crash(id) => {
                if self.known_byzantine.contains(&id) {
                    self.byzantine -= 1;
                    self.known_byzantine.retain(|&b| b != id);
                    self.crashed_byzantine.push(id);
                } else {
                    self.correct -= 1;
                }
            }
            ChurnEvent::Restart { id, .. } => {
                if self.crashed_byzantine.contains(&id) {
                    self.byzantine += 1;
                    self.crashed_byzantine.retain(|&b| b != id);
                    self.known_byzantine.push(id);
                } else {
                    self.correct += 1;
                }
            }
        }
        self.peak_byzantine = self.peak_byzantine.max(self.byzantine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_report_id_and_kind() {
        let e = ChurnEvent::JoinCorrect(NodeId::new(7));
        assert_eq!(e.id(), NodeId::new(7));
        assert!(e.is_join());
        assert!(!ChurnEvent::LeaveByzantine(NodeId::new(1)).is_join());
    }

    #[test]
    fn schedule_filters_by_round() {
        let schedule = ChurnSchedule::empty()
            .with(3, ChurnEvent::JoinCorrect(NodeId::new(1)))
            .with(3, ChurnEvent::LeaveCorrect(NodeId::new(2)))
            .with(5, ChurnEvent::JoinByzantine(NodeId::new(3)));
        assert_eq!(schedule.len(), 3);
        assert!(!schedule.is_empty());
        assert_eq!(schedule.horizon(), 5);
        assert_eq!(schedule.events_before_round(3).len(), 2);
        assert_eq!(schedule.events_before_round(4).len(), 0);
        assert_eq!(schedule.events_before_round(5).len(), 1);
    }

    #[test]
    fn resiliency_check_accepts_admissible_schedule() {
        // 7 correct, 2 byzantine initially; add one correct node at round 2.
        let schedule = ChurnSchedule::empty().with(2, ChurnEvent::JoinCorrect(NodeId::new(100)));
        assert_eq!(schedule.first_resiliency_violation(7, 2), None);
    }

    #[test]
    fn resiliency_check_catches_violation() {
        // 4 correct, 1 byzantine; adding another byzantine at round 2 gives n = 6, f = 2:
        // 6 > 6 is false, so round 2 violates n > 3f.
        let schedule = ChurnSchedule::empty().with(2, ChurnEvent::JoinByzantine(NodeId::new(50)));
        assert_eq!(schedule.first_resiliency_violation(4, 1), Some(2));
    }

    #[test]
    fn peak_byzantine_does_not_double_count_a_crash_restart_cycle() {
        // One initial Byzantine identity; id 9 joins as Byzantine before round
        // 2 (peak 2), crashes before round 3 (back to 1) and restarts before
        // round 5. The restart restores the crashed identity — it must not be
        // counted as a *new* Byzantine join, so the peak stays 2.
        let id9 = NodeId::new(9);
        let schedule = ChurnSchedule::empty()
            .with(2, ChurnEvent::JoinByzantine(id9))
            .with(3, ChurnEvent::Crash(id9))
            .with(
                5,
                ChurnEvent::Restart {
                    id: id9,
                    policy: RestartPolicy::Clean,
                },
            );
        assert_eq!(schedule.peak_byzantine(1), 2);
        // Without the crash the same join alone already peaks at 2.
        assert_eq!(
            ChurnSchedule::empty()
                .with(2, ChurnEvent::JoinByzantine(id9))
                .peak_byzantine(1),
            2
        );
    }

    #[test]
    fn resiliency_follows_a_byzantine_crash_restart_cycle() {
        // 5 correct, 1 Byzantine; id 9 joins as Byzantine before round 2
        // (n = 7, f = 2), crashes before round 3 and restarts before round 5.
        // The crash removes a Byzantine identity, not a correct node: counted
        // as a correct crash it would leave 4 correct against 2 Byzantine
        // (6 ≤ 6) and violate at round 3.
        let id9 = NodeId::new(9);
        let schedule = ChurnSchedule::empty()
            .with(2, ChurnEvent::JoinByzantine(id9))
            .with(3, ChurnEvent::Crash(id9))
            .with(
                5,
                ChurnEvent::Restart {
                    id: id9,
                    policy: RestartPolicy::Clean,
                },
            );
        assert_eq!(schedule.first_resiliency_violation(5, 1), None);
        // The restart brings the Byzantine identity back (n = 7, f = 2), so one
        // correct crash afterwards violates (6 ≤ 6); had the restart been
        // counted as a correct node's, the crash would leave 5 against 1.
        let schedule = schedule.with(6, ChurnEvent::Crash(NodeId::new(1)));
        assert_eq!(schedule.first_resiliency_violation(5, 1), Some(6));
    }

    #[test]
    fn crash_cycle_helpers_identify_and_remove_cycles() {
        let a = NodeId::new(4);
        let b = NodeId::new(5);
        let schedule = ChurnSchedule::empty()
            .with(2, ChurnEvent::Crash(a))
            .with(3, ChurnEvent::JoinCorrect(NodeId::new(8)))
            .with(
                4,
                ChurnEvent::Restart {
                    id: a,
                    policy: RestartPolicy::Clean,
                },
            )
            .with(5, ChurnEvent::Crash(b));
        assert!(schedule.has_crash_events());
        assert_eq!(schedule.crash_cycle_ids(), vec![a, b]);
        let shrunk = schedule.without_crash_cycle(a);
        assert_eq!(shrunk.len(), 2);
        assert_eq!(shrunk.crash_cycle_ids(), vec![b]);
        assert!(!ChurnSchedule::empty()
            .with(1, ChurnEvent::JoinCorrect(a))
            .has_crash_events());
    }

    #[test]
    fn retargeting_crash_cycles_is_one_pass_and_leaves_other_events_alone() {
        let a = NodeId::new(4);
        let b = NodeId::new(5);
        let schedule = ChurnSchedule::empty()
            .with(2, ChurnEvent::Crash(a))
            .with(3, ChurnEvent::JoinCorrect(b))
            .with(
                4,
                ChurnEvent::Restart {
                    id: a,
                    policy: RestartPolicy::Clean,
                },
            )
            .with(5, ChurnEvent::Crash(b));
        // a → b and b → 6 in one pass: the crash of `a` must land on `b`
        // without then cascading through the second pair onto 6, and the
        // JoinCorrect(b) event must keep its identifier.
        let retargeted = schedule.retarget_crash_cycles(&[(a, b), (b, NodeId::new(6))]);
        assert_eq!(
            retargeted.events()[0],
            (2, ChurnEvent::Crash(b)),
            "crash retargeted once"
        );
        assert_eq!(retargeted.events()[1], (3, ChurnEvent::JoinCorrect(b)));
        assert_eq!(
            retargeted.events()[2],
            (
                4,
                ChurnEvent::Restart {
                    id: b,
                    policy: RestartPolicy::Clean,
                }
            ),
            "restart follows its crash and keeps the policy"
        );
        assert_eq!(
            retargeted.events()[3],
            (5, ChurnEvent::Crash(NodeId::new(6)))
        );
        // An empty mapping is the identity.
        assert_eq!(schedule.retarget_crash_cycles(&[]), schedule);
    }

    #[test]
    fn resiliency_counts_a_correct_crash_as_a_departure() {
        // 4 correct, 1 Byzantine: crashing a correct node before round 2 gives
        // n = 4, f = 1 — 4 > 3 still holds; crashing two violates (3 ≤ 3).
        let schedule = ChurnSchedule::empty().with(2, ChurnEvent::Crash(NodeId::new(1)));
        assert_eq!(schedule.first_resiliency_violation(4, 1), None);
        let schedule = schedule.with(2, ChurnEvent::Crash(NodeId::new(2)));
        assert_eq!(schedule.first_resiliency_violation(4, 1), Some(2));
    }

    #[test]
    fn empty_schedule_has_no_violation() {
        assert_eq!(
            ChurnSchedule::empty().first_resiliency_violation(1, 0),
            None
        );
        assert_eq!(ChurnSchedule::empty().horizon(), 0);
    }
}
