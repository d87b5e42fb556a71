//! The impossibility constructions of Section IX: synchrony is necessary.
//!
//! Lemmas 14 and 15 show that when nodes know neither `n` nor `f`, consensus is
//! impossible — even with probabilistic termination, even with **zero** failures — in
//! asynchronous and semi-synchronous systems. Both proofs construct a partitioned
//! execution: nodes are split into `A` (all input 1) and `B` (all input 0), messages
//! inside a partition flow normally, and messages across the partition are delayed
//! past the point where each side — having no way to know that anyone else exists —
//! has already decided on its own unanimous input.
//!
//! This module reproduces those executions *with the actual consensus algorithm of
//! this crate* (Algorithm 3): a [`ConsensusFactory`] scenario run through the
//! [`Harness`] on the timed engine, its timing one serialisable [`DelaySpec`].
//! Under [`DelaySpec::Synchronous`] the algorithm reaches agreement; under
//! [`DelaySpec::Partition`] with `first = |A|` the two sides decide opposite
//! values, whether cross-partition messages take a bounded delay the nodes do
//! not know (`cross: Some(Δ)`, Lemma 15) or never arrive (`cross: None`,
//! Lemma 14). [`DelaySpec::Gst`] is DLS partial synchrony: a stabilisation
//! time later than the initialisation rounds silences the whole network while
//! the member estimates freeze, and the run never terminates. Experiment E7
//! sweeps partition sizes and delay models over these constructions.

use uba_simnet::{DelaySpec, EngineKind, NodeId, SimError, TimingSpec};

use crate::sim::{ConsensusFactory, Harness, Simulation};

/// The outcome of one partition experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionOutcome {
    /// Every node's decision (binary, as in the lemmas).
    pub decisions: Vec<(NodeId, u64)>,
    /// Whether all nodes decided the same value.
    pub agreement: bool,
    /// Ticks executed until every node decided.
    pub ticks: u64,
    /// Cross-partition messages still undelivered when the last node decided — these
    /// are the "too late" messages of the construction.
    pub undelivered: usize,
}

/// The Lemma 14 / 15 construction as a scenario: `size_a` correct nodes with
/// input 1, then `size_b` with input 0, running Algorithm 3 under `delay` with
/// one time unit per tick and a 2,000-tick budget. `A` is group 0 of a
/// [`DelaySpec::Partition`], so a partition's `first` must equal `size_a`.
///
/// All nodes are correct; the only adversarial power used is message timing, which is
/// exactly what makes the result an impossibility argument rather than a resiliency
/// bound. The report's `scenario` replays the run through
/// [`ScenarioBuilder::from_spec`](crate::sim::ScenarioBuilder::from_spec).
pub fn partition_harness(
    size_a: usize,
    size_b: usize,
    delay: DelaySpec,
    seed: u64,
) -> Harness<ConsensusFactory> {
    assert!(
        size_a > 0 && size_b > 0,
        "both partitions must be non-empty"
    );
    if let DelaySpec::Partition { first, .. } = delay {
        assert_eq!(first, size_a, "partition A is the delay's first group");
    }
    let inputs = [vec![1; size_a], vec![0; size_b]].concat();
    Simulation::scenario()
        .correct(size_a + size_b)
        .byzantine(0)
        .seed(seed)
        .max_rounds(2_000)
        .engine(EngineKind::Event(
            TimingSpec::synchronous().with_delay(delay),
        ))
        .build(ConsensusFactory::new(inputs))
}

/// Runs [`partition_harness`] to termination. A run that does not terminate
/// within its budget (a late GST) is [`SimError::MaxRoundsExceeded`].
pub fn run_partition_experiment(
    size_a: usize,
    size_b: usize,
    delay: DelaySpec,
    seed: u64,
) -> Result<PartitionOutcome, SimError> {
    let mut harness = partition_harness(size_a, size_b, delay, seed);
    let report = harness.run()?;
    let ticks = report.status.expect_completed()?;
    let section = report
        .consensus
        .expect("the consensus factory records a section");
    Ok(PartitionOutcome {
        decisions: section
            .decisions
            .iter()
            .map(|d| (d.node, d.value))
            .collect(),
        agreement: section.agreement,
        ticks,
        undelivered: harness.engine().in_flight(),
    })
}

/// Runs `trials` independent partition experiments (different identifier seeds) and
/// returns the fraction that ended in disagreement. Used by experiment E7 to report a
/// disagreement *probability* per delay model, as the lemmas are phrased.
pub fn disagreement_rate(
    size_a: usize,
    size_b: usize,
    delay: &DelaySpec,
    trials: u64,
    seed: u64,
) -> f64 {
    let mut disagreements = 0u64;
    for trial in 0..trials {
        let outcome = run_partition_experiment(size_a, size_b, delay.clone(), seed ^ (trial + 1))
            .expect("partition experiment completes");
        if !outcome.agreement {
            disagreements += 1;
        }
    }
    disagreements as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_control_always_agrees() {
        for seed in 0..3 {
            let outcome = run_partition_experiment(3, 3, DelaySpec::Synchronous, seed).unwrap();
            assert!(
                outcome.agreement,
                "synchronous execution must agree: {outcome:?}"
            );
        }
    }

    #[test]
    fn asynchronous_partition_disagrees() {
        let asynchronous = DelaySpec::Partition {
            first: 3,
            cross: None,
        };
        let outcome = run_partition_experiment(3, 4, asynchronous, 7).unwrap();
        assert!(
            !outcome.agreement,
            "Lemma 14: the partitions decide their own inputs"
        );
        // Partition A (input 1) decided 1, partition B decided 0.
        let ones = outcome.decisions.iter().filter(|&&(_, v)| v == 1).count();
        assert_eq!(ones, 3);
    }

    #[test]
    fn semi_synchronous_partition_disagrees_despite_bounded_delay() {
        let semi_synchronous = DelaySpec::Partition {
            first: 4,
            cross: Some(500),
        };
        let outcome = run_partition_experiment(4, 4, semi_synchronous, 11).unwrap();
        assert!(
            !outcome.agreement,
            "Lemma 15: a finite but unknown delay is enough"
        );
        assert!(
            outcome.undelivered > 0,
            "the cross-partition messages exist but arrive after the decisions"
        );
    }

    #[test]
    fn partial_synchrony_with_a_late_gst_denies_termination() {
        // A GST after the algorithm's initialisation rounds silences the whole
        // network during rounds 1–2 — a node does not even hear its own
        // broadcast. Algorithm 3 freezes its member estimate `n_v` after those
        // rounds, so every node is stuck with an empty membership and the phase
        // machinery never produces a coordinator to decide with: the silent
        // prologue costs liveness *permanently*, even though the network is
        // fully synchronous after GST. This is behaviour the synchronous
        // engine cannot express — there, round-1 traffic always arrives.
        let err =
            run_partition_experiment(3, 3, DelaySpec::Gst { gst: 5, bound: 1 }, 13).unwrap_err();
        assert!(
            matches!(err, SimError::MaxRoundsExceeded { .. }),
            "a late GST starves the round-driven algorithm forever: {err:?}"
        );

        // GST at time zero is the synchronous control: same model, same code
        // path, agreement as usual.
        let control =
            run_partition_experiment(3, 3, DelaySpec::Gst { gst: 0, bound: 1 }, 13).unwrap();
        assert!(control.agreement, "gst = 0 is synchrony: {control:?}");
    }

    #[test]
    fn disagreement_rate_is_zero_iff_synchronous() {
        assert_eq!(disagreement_rate(2, 2, &DelaySpec::Synchronous, 3, 1), 0.0);
        let asynchronous = DelaySpec::Partition {
            first: 2,
            cross: None,
        };
        assert_eq!(disagreement_rate(2, 2, &asynchronous, 3, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_partitions_are_rejected() {
        let _ = run_partition_experiment(0, 3, DelaySpec::Synchronous, 1);
    }

    #[test]
    #[should_panic(expected = "first group")]
    fn a_partition_that_is_not_a_and_b_is_rejected() {
        let smaller_a = DelaySpec::Partition {
            first: 2,
            cross: None,
        };
        let _ = run_partition_experiment(3, 3, smaller_a, 1);
    }
}
