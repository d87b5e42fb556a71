//! Approximate agreement in dynamic networks (Section XI, first part, and the
//! subset-join observation of Section XII).
//!
//! The paper notes that Algorithm 4 keeps its two guarantees — outputs inside the
//! correct range, range at least halved per iteration — *per round* even when
//! participants enter and leave between rounds, subject to `n > 3f` holding in every
//! round. Whether the range shrinks over time then depends on the values the joining
//! nodes bring. This module provides:
//!
//! * [`ChurnPlan`] and [`run_dynamic_approx`] — a driver that executes a join/leave
//!   schedule on the synchronous engine and records the correct-node spread after
//!   every round (the measurement behind experiment E11). Its nodes are Algorithm
//!   4's own [`IteratedApproxAgreement`] with no iteration bound: the dynamic
//!   setting changes who is in the network, not the rule each node applies, so
//!   every node re-runs one iteration per round on whatever membership currently
//!   exists;
//! * [`subset_join_value`] — the Section XII observation that a newly joining node
//!   can run Algorithm 4 against only a *subset* of the existing nodes and still land
//!   inside (the trimmed core of) their value range.

use uba_simnet::adversary::SilentAdversary;
use uba_simnet::{ChurnEvent, ChurnSchedule, NodeId, Protocol, SimError, SyncEngine};

use crate::approx::{trimmed_midpoint, IteratedApproxAgreement};
use crate::value::Real;

/// A join/leave schedule for the dynamic approximate-agreement driver. Rounds are the
/// engine's 1-based round numbers; an event scheduled for round `r` is applied just
/// before round `r` executes.
///
/// The plan is a thin value-carrying layer over the engine-level [`ChurnSchedule`]:
/// the schedule records *who* joins or leaves and *when* (and is handed verbatim to
/// [`SyncEngine::set_churn`]), while the plan only adds the one thing the engine
/// cannot know — the starting value each correct joiner brings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChurnPlan {
    schedule: ChurnSchedule,
    /// `(round, id, value)` mirroring the schedule's `JoinCorrect` events — kept
    /// as a list (not a map) so an identifier that leaves and rejoins can carry a
    /// different value each time.
    join_values: Vec<(u64, NodeId, Real)>,
}

impl ChurnPlan {
    /// A plan with no churn.
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// Adds a correct join.
    pub fn join(mut self, round: u64, id: NodeId, value: Real) -> Self {
        self.schedule.push(round, ChurnEvent::JoinCorrect(id));
        self.join_values.push((round, id, value));
        self
    }

    /// Adds a correct leave.
    pub fn leave(mut self, round: u64, id: NodeId) -> Self {
        self.schedule.push(round, ChurnEvent::LeaveCorrect(id));
        self
    }

    /// Adds a Byzantine join (the joining identity is counted by whoever it talks
    /// to but is driven by the adversary; with the default silent adversary it only
    /// dilutes quorums).
    pub fn byzantine_join(mut self, round: u64, id: NodeId) -> Self {
        self.schedule.push(round, ChurnEvent::JoinByzantine(id));
        self
    }

    /// The engine-level schedule the plan wraps.
    pub fn schedule(&self) -> &ChurnSchedule {
        &self.schedule
    }

    /// `(round, id, starting value)` of every scheduled correct join, in insertion
    /// order.
    pub fn joins(&self) -> Vec<(u64, NodeId, Real)> {
        self.join_values.clone()
    }

    /// `(round, id)` of every scheduled correct leave, in insertion order.
    pub fn leaves(&self) -> Vec<(u64, NodeId)> {
        self.schedule
            .events()
            .iter()
            .filter_map(|&(round, event)| match event {
                ChurnEvent::LeaveCorrect(id) => Some((round, id)),
                _ => None,
            })
            .collect()
    }
}

/// What the dynamic driver measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DynamicApproxReport {
    /// Spread (max − min) of the correct nodes' values after each round, in round
    /// order. Joins can make this grow; in churn-free stretches it halves.
    pub spread_per_round: Vec<f64>,
    /// `(id, value)` of every correct node still present at the end.
    pub final_values: Vec<(NodeId, f64)>,
}

impl DynamicApproxReport {
    /// The spread after the last round (0.0 if nothing was recorded).
    pub fn final_spread(&self) -> f64 {
        self.spread_per_round.last().copied().unwrap_or(0.0)
    }
}

/// Runs unbounded [`IteratedApproxAgreement`] nodes for `rounds` rounds under the given churn plan and a
/// silent adversary, recording the correct-node spread after every round. The plan's
/// [`ChurnSchedule`] is handed to the engine's own churn mechanism
/// ([`SyncEngine::set_churn`]) unchanged; the driver only observes.
pub fn run_dynamic_approx(
    initial: &[(NodeId, Real)],
    plan: &ChurnPlan,
    rounds: u64,
) -> Result<DynamicApproxReport, SimError> {
    let nodes: Vec<IteratedApproxAgreement> = initial
        .iter()
        .map(|&(id, value)| IteratedApproxAgreement::new(id, value, u64::MAX))
        .collect();
    let mut engine = SyncEngine::new(nodes, SilentAdversary, Vec::new());
    engine.validate_ids()?;
    // Joins are consumed earliest-round-first per identifier, so a leave/rejoin
    // of the same id picks up each scheduled value in order.
    let mut pending_joins = plan.joins();
    engine.set_churn(plan.schedule().clone(), move |id| {
        let position = pending_joins
            .iter()
            .enumerate()
            .filter(|(_, &(_, jid, _))| jid == id)
            .min_by_key(|(_, &(round, _, _))| round)
            .map(|(index, _)| index)
            .expect("every scheduled joiner has a starting value in the plan");
        let (_, _, value) = pending_joins.remove(position);
        IteratedApproxAgreement::new(id, value, u64::MAX)
    });

    let mut report = DynamicApproxReport::default();
    for _ in 1..=rounds {
        engine.run_round()?;
        let values: Vec<f64> = engine.nodes().iter().map(|n| n.value().to_f64()).collect();
        report.spread_per_round.push(spread(&values));
    }
    report.final_values = engine
        .nodes()
        .iter()
        .map(|n| (Protocol::id(n), n.value().to_f64()))
        .collect();
    Ok(report)
}

/// The Section XII observation: a node joining a system whose members are already in
/// (approximate) agreement can run a single Algorithm 4 step against only a subset of
/// the members. The returned value is the trimmed midpoint of the subset's values
/// together with the joiner's own input — by Lemma 12 it lies within the range spanned
/// by those values, so the joiner lands inside the correct range without ever talking
/// to the whole network.
pub fn subset_join_value(joiner_input: Real, subset_values: &[Real]) -> Real {
    let mut values = Vec::with_capacity(subset_values.len() + 1);
    values.push(joiner_input);
    values.extend_from_slice(subset_values);
    trimmed_midpoint(values).unwrap_or(joiner_input)
}

fn spread(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::IdSpace;

    fn real(x: f64) -> Real {
        Real::from_f64(x)
    }

    fn initial(n: usize, seed: u64, spread: f64) -> Vec<(NodeId, Real)> {
        IdSpace::default()
            .generate(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, real(i as f64 * spread / (n - 1) as f64)))
            .collect()
    }

    #[test]
    fn static_membership_converges_like_iterated_agreement() {
        let report = run_dynamic_approx(&initial(9, 1, 80.0), &ChurnPlan::none(), 8).unwrap();
        assert_eq!(report.spread_per_round.len(), 8);
        // The first recorded spread follows the first exchange; after that it halves.
        for window in report.spread_per_round.windows(2) {
            assert!(
                window[1] <= window[0] / 2.0 + 1e-5,
                "spread must halve: {window:?}"
            );
        }
        assert!(report.final_spread() < 1.0);
    }

    #[test]
    fn join_with_outlier_value_can_expand_the_range_then_reconverges() {
        let plan = ChurnPlan::none().join(4, NodeId::new(9_999), real(500.0));
        let report = run_dynamic_approx(&initial(9, 2, 10.0), &plan, 12).unwrap();
        // The joiner's outlier value may push the spread up around the join round...
        let before_join = report.spread_per_round[2];
        let after_join_max = report.spread_per_round[3..7]
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        assert!(
            after_join_max >= before_join,
            "an outlier joiner should not shrink the spread"
        );
        // ... but the system reconverges afterwards.
        assert!(report.final_spread() < after_join_max / 2.0);
        assert_eq!(report.final_values.len(), 10);
    }

    #[test]
    fn leaves_do_not_break_convergence() {
        let ids = IdSpace::default().generate(10, 3);
        let start: Vec<(NodeId, Real)> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, real(i as f64 * 10.0)))
            .collect();
        let plan = ChurnPlan::none().leave(3, ids[0]).leave(5, ids[1]);
        let report = run_dynamic_approx(&start, &plan, 10).unwrap();
        assert_eq!(report.final_values.len(), 8);
        assert!(report.final_spread() < 1.0);
    }

    #[test]
    fn byzantine_joins_dilute_but_do_not_break_convergence() {
        let plan = ChurnPlan::none()
            .byzantine_join(2, NodeId::new(77_001))
            .byzantine_join(2, NodeId::new(77_002));
        let report = run_dynamic_approx(&initial(9, 4, 40.0), &plan, 10).unwrap();
        assert!(report.final_spread() < 1.0);
    }

    #[test]
    fn rejoining_id_carries_each_scheduled_value_in_round_order() {
        let start = initial(6, 8, 10.0);
        let id = NodeId::new(50_000);
        let plan = ChurnPlan::none()
            .join(2, id, real(100.0))
            .leave(5, id)
            .join(8, id, real(200.0));
        assert_eq!(plan.joins().len(), 2, "both joins are preserved");
        let report = run_dynamic_approx(&start, &plan, 12).unwrap();
        // The round-2 join must bring 100 (spread ≈ 100), the round-8 rejoin 200
        // (spread ≈ 200 against the reconverged cluster) — an id-keyed overwrite
        // would make the first join bring 200 as well.
        assert!(
            report.spread_per_round[1] > 50.0 && report.spread_per_round[1] < 150.0,
            "first join must carry 100: spread {}",
            report.spread_per_round[1]
        );
        assert!(
            report.spread_per_round[7] > 150.0,
            "rejoin must carry 200: spread {}",
            report.spread_per_round[7]
        );
        assert_eq!(report.final_values.len(), 7);
    }

    #[test]
    fn duplicate_join_id_is_rejected() {
        let start = initial(4, 5, 10.0);
        let plan = ChurnPlan::none().join(2, start[0].0, real(1.0));
        let err = run_dynamic_approx(&start, &plan, 5).unwrap_err();
        assert!(matches!(err, SimError::DuplicateId(_)));
    }

    #[test]
    fn subset_join_lands_within_the_subset_range() {
        let subset: Vec<Real> = [10.0, 11.0, 12.0, 13.0, 14.0]
            .iter()
            .map(|&x| real(x))
            .collect();
        let joined = subset_join_value(real(1_000.0), &subset);
        assert!(joined >= real(10.0) && joined <= real(1_000.0));
        // With five subset values + the joiner, the trim removes two from each end, so
        // the outlier input itself is discarded and the result is inside the subset.
        assert!(
            joined <= real(14.0),
            "joiner outlier must be trimmed away: {joined}"
        );
        // Degenerate subset: falls back to the joiner's own value only when trimming
        // would consume everything (empty subset).
        assert_eq!(subset_join_value(real(3.0), &[]), real(3.0));
    }
}
