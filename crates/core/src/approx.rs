//! Approximate agreement in the id-only model (Algorithm 4, Section VIII).
//!
//! Each correct node holds a real-valued input and must output a value that
//!
//! 1. lies within the range of correct inputs, and
//! 2. such that the range of correct outputs is strictly smaller than the range of
//!    correct inputs (the paper's single-round algorithm halves it).
//!
//! The algorithm is a one-round trimmed-range midpoint: broadcast the input, discard
//! the `⌊n_v/3⌋` smallest and largest received values, and output the midpoint of what
//! remains. Because at most `⌊n_v/3⌋` of the received values can be Byzantine
//! (Section III), the trimming removes every possible Byzantine influence from the
//! extremes, and the median of the correct inputs always survives (Lemma 13), which is
//! what makes the ranges of any two correct nodes overlap and the output range shrink.
//!
//! [`IteratedApproxAgreement`] is the one node: it repeats that step for a given
//! number of iterations, each halving the correct range again. The single-shot
//! protocol of Theorem 4 is the node with one iteration
//! ([`ApproxFactory`](crate::sim::ApproxFactory) builds it); the convergence
//! experiment E6 and the sensor-fusion example run more.
//!
//! The paper notes (Section XI) that the same algorithm keeps its two guarantees
//! *per round* while participants join and leave, subject to `n > 3f` in every
//! round. So the dynamic setting needs no node of its own: experiment E11 runs
//! [`IteratedApproxAgreement`] unchanged, with no iteration bound, through the
//! ordinary scenario harness under a churn schedule
//! ([`IteratedApproxFactory::joiners`](crate::sim::IteratedApproxFactory::joiners)
//! hands each correct joiner its starting value) and records the spread after
//! every round. [`IteratedApproxAgreement::inject_value`] models a node whose own
//! value changes between iterations, and [`subset_join_value`] is the Section XII
//! observation that a joiner can run one step against a subset of the members.

use uba_simnet::{Inbox, NodeId, Outgoing, Protocol, RoundContext};

use crate::quorum::trim_count;
use crate::value::Real;

/// Wire message: just the sender's current value.
pub type ApproxMessage = Real;

/// Applies the core trimming rule of Algorithm 4 to a multiset of received values
/// (one per distinct sender): sort, drop `⌊n_v/3⌋` from each end, return the midpoint
/// of the extremes of what is left. Returns `None` when the trim would consume
/// everything (can only happen when almost nothing was received).
pub fn trimmed_midpoint(mut values: Vec<Real>) -> Option<Real> {
    let n_v = values.len();
    let trim = trim_count(n_v);
    if n_v == 0 || 2 * trim >= n_v {
        return None;
    }
    values.sort_unstable();
    let kept = &values[trim..n_v - trim];
    let min = *kept.first()?;
    let max = *kept.last()?;
    Some(min.midpoint(max))
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

/// A node that repeats Algorithm 4 for a fixed number of iterations, feeding each
/// iteration's output into the next as its new value. Each iteration takes one round
/// (broadcast, then compute at the start of the next round, which doubles as the next
/// broadcast round). A round with an empty inbox completes no iteration: the node
/// broadcasts its unchanged value again, so a node that missed a round (a crash
/// victim, say) still finishes once traffic reaches it. After the last iteration the
/// node ignores its inbox, so its output is final.
#[derive(Clone, Debug)]
pub struct IteratedApproxAgreement {
    id: NodeId,
    value: Real,
    iterations: u64,
    completed: u64,
    /// Value of the node after each completed iteration (for convergence plots).
    history: Vec<Real>,
    received: Vec<(NodeId, Real)>,
}

impl IteratedApproxAgreement {
    /// Creates a node that will run `iterations` rounds of approximate agreement
    /// starting from `input`.
    pub fn new(id: NodeId, input: Real, iterations: u64) -> Self {
        IteratedApproxAgreement {
            id,
            value: input,
            iterations,
            completed: 0,
            history: Vec::new(),
            received: Vec::new(),
        }
    }

    /// The node's current value.
    pub fn value(&self) -> Real {
        self.value
    }

    /// The node's value after each completed iteration.
    pub fn history(&self) -> &[Real] {
        &self.history
    }

    /// The number of distinct senders whose values the last completed iteration
    /// used (`n_v = |R_v|`); 0 before the first.
    pub fn n_v(&self) -> usize {
        self.received.len()
    }

    /// Overrides the node's current value between iterations — models a dynamic
    /// network where a joining node brings a fresh (possibly range-expanding) value,
    /// as discussed in Section XI.
    pub fn inject_value(&mut self, value: Real) {
        self.value = value;
    }
}

impl Protocol for IteratedApproxAgreement {
    type Payload = ApproxMessage;
    type Output = Real;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(&mut self, _ctx: &RoundContext, inbox: Inbox<'_, Real>) -> Vec<Outgoing<Real>> {
        // An output is final: traffic after the last iteration changes nothing.
        if self.completed >= self.iterations {
            return Vec::new();
        }
        // Finish the previous iteration (if one was in flight).
        if !inbox.is_empty() {
            self.received.clear();
            for (sender, value) in inbox {
                // At most one value per sender counts: a Byzantine node may stuff
                // several distinct values, and only its first is kept.
                if !self.received.iter().any(|(from, _)| *from == sender) {
                    self.received.push((sender, *value));
                }
            }
            let values: Vec<Real> = self.received.iter().map(|(_, v)| *v).collect();
            if let Some(next) = trimmed_midpoint(values) {
                self.value = next;
            }
            self.completed += 1;
            self.history.push(self.value);
        }
        if self.completed < self.iterations {
            vec![Outgoing::broadcast(self.value)]
        } else {
            Vec::new()
        }
    }

    fn output(&self) -> Option<Real> {
        (self.completed >= self.iterations).then_some(self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::adversary::SilentAdversary;
    use uba_simnet::{AdversaryView, Directed, FnAdversary, IdSpace, SyncEngine};

    fn real(x: f64) -> Real {
        Real::from_f64(x)
    }

    fn range(values: &[Real]) -> (Real, Real) {
        (*values.iter().min().unwrap(), *values.iter().max().unwrap())
    }

    #[test]
    fn trimmed_midpoint_matches_hand_computation() {
        // n_v = 7 → trim 2 from each end; kept = [3, 5, 9] → midpoint 6.
        let values = vec![
            real(1.0),
            real(2.0),
            real(3.0),
            real(5.0),
            real(9.0),
            real(20.0),
            real(30.0),
        ];
        assert_eq!(trimmed_midpoint(values), Some(real(6.0)));
        // Too few values to survive trimming.
        assert_eq!(trimmed_midpoint(vec![]), None);
        // n_v = 2: trim 0, midpoint of the two.
        assert_eq!(
            trimmed_midpoint(vec![real(0.0), real(1.0)]),
            Some(real(0.5))
        );
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

    #[test]
    fn outputs_stay_within_correct_input_range_without_faults() {
        let ids = IdSpace::default().generate(9, 7);
        let inputs: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let nodes: Vec<_> = ids
            .iter()
            .zip(&inputs)
            .map(|(&id, &x)| IteratedApproxAgreement::new(id, real(x), 1))
            .collect();
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
        engine.run_to_output(5).unwrap();
        let outputs: Vec<Real> = engine
            .outputs()
            .into_iter()
            .map(|(_, o)| o.unwrap())
            .collect();
        let (omin, omax) = range(&outputs);
        assert!(omin >= real(0.0) && omax <= real(8.0));
        let spread = omax - omin;
        assert!(spread < real(8.0), "output range must shrink strictly");
    }

    #[test]
    fn byzantine_outliers_cannot_drag_outputs_outside_the_correct_range() {
        // 7 correct nodes with inputs in [10, 20]; 2 Byzantine nodes send wildly
        // different extreme values to different nodes.
        let ids = IdSpace::default().generate(9, 8);
        let byz: Vec<NodeId> = ids[7..].to_vec();
        let inputs: Vec<f64> = vec![10.0, 12.0, 13.0, 15.0, 17.0, 19.0, 20.0];
        let nodes: Vec<_> = ids[..7]
            .iter()
            .zip(&inputs)
            .map(|(&id, &x)| IteratedApproxAgreement::new(id, real(x), 1))
            .collect();
        let byz_clone = byz.clone();
        let adversary = FnAdversary::new(move |view: &AdversaryView<'_, Real>| {
            if view.round != 1 {
                return vec![];
            }
            let mut out = Vec::new();
            for (b, &from) in byz_clone.iter().enumerate() {
                for (i, &to) in view.correct_ids.iter().enumerate() {
                    let value = if (i + b) % 2 == 0 {
                        real(-1e6)
                    } else {
                        real(1e6)
                    };
                    out.push(Directed::new(from, to, value));
                }
            }
            out
        });
        let mut engine = SyncEngine::new(nodes, adversary, byz);
        engine.run_to_output(5).unwrap();
        let outputs: Vec<Real> = engine
            .outputs()
            .into_iter()
            .map(|(_, o)| o.unwrap())
            .collect();
        let (omin, omax) = range(&outputs);
        assert!(
            omin >= real(10.0),
            "Byzantine low outlier leaked into an output: {omin}"
        );
        assert!(
            omax <= real(20.0),
            "Byzantine high outlier leaked into an output: {omax}"
        );
        assert!(omax - omin < real(10.0), "range must shrink");
    }

    #[test]
    fn iterated_agreement_halves_the_range_every_iteration() {
        let ids = IdSpace::default().generate(10, 9);
        let inputs: Vec<f64> = (0..10).map(|i| (i * 10) as f64).collect();
        let nodes: Vec<_> = ids
            .iter()
            .zip(&inputs)
            .map(|(&id, &x)| IteratedApproxAgreement::new(id, real(x), 6))
            .collect();
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
        engine.run_to_termination(20).unwrap();
        // Collect the per-iteration ranges.
        let histories: Vec<&[Real]> = engine.nodes().iter().map(|n| n.history()).collect();
        let iterations = histories[0].len();
        let mut previous = real(90.0) - real(0.0);
        for i in 0..iterations {
            let values: Vec<Real> = histories.iter().map(|h| h[i]).collect();
            let (lo, hi) = range(&values);
            let spread = hi - lo;
            assert!(
                spread <= previous.midpoint(Real::ZERO) + real(1e-6) || spread == Real::ZERO,
                "iteration {i}: spread {spread} did not halve from {previous}"
            );
            previous = spread;
        }
        assert!(
            previous < real(2.0),
            "after 6 iterations the range must be tiny"
        );
    }

    #[test]
    fn accessors_report_inputs_and_counts() {
        let mut iterated = IteratedApproxAgreement::new(NodeId::new(4), real(2.0), 3);
        assert_eq!(iterated.n_v(), 0);
        assert_eq!(iterated.value(), real(2.0));
        iterated.inject_value(real(5.0));
        assert_eq!(iterated.value(), real(5.0));
        assert!(iterated.history().is_empty());
    }

    #[test]
    fn an_empty_inbox_completes_no_iteration() {
        // A node whose first inbox is empty (a crash victim back after round 1's
        // traffic went by) keeps its value on the wire until traffic reaches it.
        let ids = IdSpace::default().generate(3, 11);
        let mut node = IteratedApproxAgreement::new(ids[0], real(4.0), 1);
        let sent = node.step(&RoundContext::new(2), Inbox::default());
        assert!(node.history().is_empty());
        assert_eq!(node.output(), None);
        assert_eq!(sent, vec![Outgoing::broadcast(real(4.0))]);
        let values = [real(4.0), real(6.0), real(8.0)];
        let inbox: Vec<(NodeId, &Real)> = ids.iter().copied().zip(&values).collect();
        let sent = node.step(&RoundContext::new(3), Inbox::from(inbox.as_slice()));
        assert_eq!(node.history(), [real(6.0)]);
        assert_eq!(node.output(), Some(real(6.0)));
        assert!(sent.is_empty());
    }

    #[test]
    fn an_output_is_final() {
        // Traffic after the last iteration (a Byzantine straggler, a late
        // joiner's broadcast) neither moves the output nor starts an iteration.
        let ids = IdSpace::default().generate(3, 12);
        let mut node = IteratedApproxAgreement::new(ids[0], real(4.0), 1);
        let values = [real(4.0), real(6.0), real(8.0)];
        let inbox: Vec<(NodeId, &Real)> = ids.iter().copied().zip(&values).collect();
        node.step(&RoundContext::new(2), Inbox::from(inbox.as_slice()));
        assert_eq!(node.output(), Some(real(6.0)));
        let outlier = [real(1e9)];
        let late: Vec<(NodeId, &Real)> = ids.iter().copied().zip(&outlier).collect();
        let sent = node.step(&RoundContext::new(3), Inbox::from(late.as_slice()));
        assert!(sent.is_empty());
        assert_eq!(node.output(), Some(real(6.0)));
        assert_eq!(node.history(), [real(6.0)]);
        assert_eq!(node.n_v(), 3);
    }
}
