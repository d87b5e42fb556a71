//! Oracle for Theorem 3: consensus agreement, validity and round complexity
//! (Section VII).

use std::fmt::Debug;

use uba_core::consensus::Decision;
use uba_simnet::NodeId;

use crate::report::CheckReport;

/// What one correct node put in and got out of a consensus execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusObservation<V> {
    /// The observing node.
    pub node: NodeId,
    /// Its input opinion.
    pub input: V,
    /// Its decision, if it terminated (a `None` here is itself a termination
    /// violation when `expect_termination` is set).
    pub decision: Option<Decision<V>>,
}

/// Configuration of the consensus oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConsensusCheck {
    /// Whether every correct node must have decided.
    pub expect_termination: bool,
    /// If set, the latest network round by which every node must have decided
    /// (the `O(f)` bound instantiated by the caller, e.g. `3 + 5 * (f + c)`).
    pub round_bound: Option<u64>,
}

impl Default for ConsensusCheck {
    fn default() -> Self {
        ConsensusCheck {
            expect_termination: true,
            round_bound: None,
        }
    }
}

/// Runs the Theorem 3 oracle over the observations of all correct nodes.
pub fn check_consensus<V: Clone + Eq + Debug>(
    observations: &[ConsensusObservation<V>],
    config: ConsensusCheck,
) -> CheckReport {
    let mut report = CheckReport::new();
    if observations.is_empty() {
        return report;
    }

    // Termination.
    if config.expect_termination {
        for obs in observations {
            report.expect(obs.decision.is_some(), "consensus/termination", || {
                format!("node {} never decided", obs.node)
            });
        }
    }

    let decided: Vec<(&NodeId, &Decision<V>)> = observations
        .iter()
        .filter_map(|o| o.decision.as_ref().map(|d| (&o.node, d)))
        .collect();

    // Agreement: all decided values are identical.
    if let Some((first_node, first)) = decided.first() {
        for (node, decision) in decided.iter().skip(1) {
            report.expect(decision.value == first.value, "consensus/agreement", || {
                format!(
                    "node {first_node} decided {:?} but node {node} decided {:?}",
                    first.value, decision.value
                )
            });
        }

        // Validity: the decided value is the input of some correct node, and unanimous
        // inputs force that value.
        let inputs: Vec<&V> = observations.iter().map(|o| &o.input).collect();
        report.expect(inputs.contains(&&first.value), "consensus/validity", || {
            format!(
                "decided value {:?} is not the input of any correct node ({inputs:?})",
                first.value
            )
        });
        let unanimous = inputs.windows(2).all(|w| w[0] == w[1]);
        if unanimous {
            report.expect(
                &first.value == inputs[0],
                "consensus/validity-unanimous",
                || {
                    format!(
                        "all correct inputs were {:?} but the decision was {:?}",
                        inputs[0], first.value
                    )
                },
            );
        }
    }

    // Round bound.
    if let Some(bound) = config.round_bound {
        for (node, decision) in &decided {
            report.expect(decision.round <= bound, "consensus/round-bound", || {
                format!(
                    "node {node} decided in round {} which exceeds the bound {bound}",
                    decision.round
                )
            });
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(node: u64, input: u64, decision: Option<(u64, u64)>) -> ConsensusObservation<u64> {
        ConsensusObservation {
            node: NodeId::new(node),
            input,
            decision: decision.map(|(value, round)| Decision {
                value,
                phase: 1,
                round,
            }),
        }
    }

    #[test]
    fn agreeing_valid_decisions_pass() {
        let observations = vec![
            obs(1, 0, Some((0, 8))),
            obs(2, 1, Some((0, 8))),
            obs(3, 0, Some((0, 9))),
        ];
        check_consensus(&observations, ConsensusCheck::default()).assert_passed("agreeing run");
    }

    #[test]
    fn disagreement_is_reported() {
        let observations = vec![obs(1, 0, Some((0, 8))), obs(2, 1, Some((1, 8)))];
        let report = check_consensus(&observations, ConsensusCheck::default());
        assert!(report
            .violations
            .iter()
            .any(|v| v.property == "consensus/agreement"));
    }

    #[test]
    fn decision_outside_inputs_violates_validity() {
        let observations = vec![obs(1, 0, Some((7, 8))), obs(2, 1, Some((7, 8)))];
        let report = check_consensus(&observations, ConsensusCheck::default());
        assert!(report
            .violations
            .iter()
            .any(|v| v.property == "consensus/validity"));
    }

    #[test]
    fn unanimous_inputs_must_win() {
        let observations = vec![obs(1, 5, Some((5, 8))), obs(2, 5, Some((5, 8)))];
        check_consensus(&observations, ConsensusCheck::default()).assert_passed("unanimity");
        // Same inputs but a different (still "valid-looking") decision value.
        let bad = vec![
            obs(1, 5, Some((5, 8))),
            obs(2, 5, Some((5, 8))),
            obs(3, 5, None),
        ];
        let report = check_consensus(&bad, ConsensusCheck::default());
        assert!(report
            .violations
            .iter()
            .any(|v| v.property == "consensus/termination"));
    }

    #[test]
    fn missing_decision_is_only_a_violation_when_termination_expected() {
        let observations = vec![obs(1, 0, Some((0, 8))), obs(2, 0, None)];
        let strict = check_consensus(&observations, ConsensusCheck::default());
        assert!(!strict.passed());
        let lenient = check_consensus(
            &observations,
            ConsensusCheck {
                expect_termination: false,
                round_bound: None,
            },
        );
        lenient.assert_passed("partial run without termination requirement");
    }

    #[test]
    fn round_bound_is_enforced() {
        let observations = vec![obs(1, 0, Some((0, 30))), obs(2, 0, Some((0, 8)))];
        let report = check_consensus(
            &observations,
            ConsensusCheck {
                expect_termination: true,
                round_bound: Some(20),
            },
        );
        assert!(report
            .violations
            .iter()
            .any(|v| v.property == "consensus/round-bound"));
    }

    #[test]
    fn empty_observation_set_is_trivially_ok() {
        let report = check_consensus::<u64>(&[], ConsensusCheck::default());
        assert!(report.passed());
        assert_eq!(report.checks, 0);
    }
}
