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
//! this crate* (Algorithm 3) running on `uba-simnet`'s engine under timed delivery:
//! with the synchronous link delay the algorithm reaches agreement, with the
//! partitioned (semi-synchronous or asynchronous) delays the two sides decide
//! opposite values. Experiment E7 sweeps partition sizes and delay models over
//! these constructions.

use uba_simnet::adversary::SilentAdversary;
use uba_simnet::{Engine, EventTiming, IdSpace, LinkDelay, NodeId, PartitionSpec, SimError};

use crate::consensus::Consensus;

/// The timing model under which the partition experiment runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingModel {
    /// Every message is delivered in the next round — the control arm, where the
    /// synchronous algorithm is guaranteed to agree.
    Synchronous,
    /// Cross-partition messages take `cross_delay` ticks (Lemma 15: the bound exists
    /// but is unknown to the nodes, so they decide before it elapses).
    SemiSynchronous {
        /// Delay, in ticks, of every message crossing the partition.
        cross_delay: u64,
    },
    /// Cross-partition messages are never delivered (Lemma 14).
    Asynchronous,
    /// Partial synchrony in the DLS sense: **every** message sent before the
    /// global stabilisation time `gst` arrives at `gst + bound`; afterwards
    /// the network is synchronous with delay `bound`. Unlike the partitioned
    /// models this delays traffic uniformly — the adversary needs no knowledge
    /// of the partition, only control of the clock. A `gst` later than the
    /// algorithm's decision point silences the whole network long enough that
    /// each side decides on its own unanimous input, and the late GST traffic
    /// cannot take the decisions back.
    PartialSynchrony {
        /// Global stabilisation time, in ticks.
        gst: u64,
        /// Post-stabilisation delivery bound, in ticks.
        bound: u64,
    },
}

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

/// Runs the Lemma 14 / 15 construction: `size_a` nodes with input 1 and `size_b`
/// nodes with input 0, under the given timing model.
///
/// All nodes are correct; the only adversarial power used is message timing, which is
/// exactly what makes the result an impossibility argument rather than a resiliency
/// bound.
pub fn run_partition_experiment(
    size_a: usize,
    size_b: usize,
    model: TimingModel,
    seed: u64,
) -> Result<PartitionOutcome, SimError> {
    assert!(
        size_a > 0 && size_b > 0,
        "both partitions must be non-empty"
    );
    let ids = IdSpace::default().generate(size_a + size_b, seed);
    let (a_ids, b_ids) = ids.split_at(size_a);

    let nodes: Vec<Consensus<u64>> = a_ids
        .iter()
        .map(|&id| Consensus::new(id, 1u64))
        .chain(b_ids.iter().map(|&id| Consensus::new(id, 0u64)))
        .collect();

    let partitioned = |cross: Option<u64>| LinkDelay::Partitioned {
        spec: PartitionSpec::new()
            .with_group(0, a_ids.iter().copied())
            .with_group(1, b_ids.iter().copied()),
        same: 1,
        cross,
    };
    let delay = match model {
        TimingModel::Synchronous => LinkDelay::Constant(1),
        TimingModel::SemiSynchronous { cross_delay } => partitioned(Some(cross_delay)),
        TimingModel::Asynchronous => partitioned(None),
        TimingModel::PartialSynchrony { gst, bound } => LinkDelay::Gst {
            gst,
            bound: bound.max(1),
        },
    };

    // One time unit per tick, zero timer skew: every live node steps every
    // tick, and the link delay alone decides when (or whether) each message
    // arrives. All nodes are correct, so the adversary is silent.
    let timing = EventTiming {
        delay,
        ..EventTiming::synchronous()
    };
    let mut engine = Engine::with_timing(nodes, SilentAdversary, Vec::new(), timing);
    let ticks = engine.run_to_termination(2_000)?;
    let decisions: Vec<(NodeId, u64)> = engine
        .outputs()
        .into_iter()
        .map(|(id, decision)| (id, decision.expect("all nodes decided").value))
        .collect();
    let first = decisions[0].1;
    let agreement = decisions.iter().all(|&(_, value)| value == first);
    Ok(PartitionOutcome {
        decisions,
        agreement,
        ticks,
        undelivered: engine.in_flight(),
    })
}

/// Runs `trials` independent partition experiments (different identifier seeds) and
/// returns the fraction that ended in disagreement. Used by experiment E7 to report a
/// disagreement *probability* per timing model, as the lemmas are phrased.
pub fn disagreement_rate(
    size_a: usize,
    size_b: usize,
    model: TimingModel,
    trials: u64,
    seed: u64,
) -> f64 {
    let mut disagreements = 0u64;
    for trial in 0..trials {
        let outcome = run_partition_experiment(size_a, size_b, model, seed ^ (trial + 1))
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
            let outcome = run_partition_experiment(3, 3, TimingModel::Synchronous, seed).unwrap();
            assert!(
                outcome.agreement,
                "synchronous execution must agree: {outcome:?}"
            );
        }
    }

    #[test]
    fn asynchronous_partition_disagrees() {
        let outcome = run_partition_experiment(3, 4, TimingModel::Asynchronous, 7).unwrap();
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
        let outcome =
            run_partition_experiment(4, 4, TimingModel::SemiSynchronous { cross_delay: 500 }, 11)
                .unwrap();
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
            run_partition_experiment(3, 3, TimingModel::PartialSynchrony { gst: 5, bound: 1 }, 13)
                .unwrap_err();
        assert!(
            matches!(err, SimError::MaxRoundsExceeded { .. }),
            "a late GST starves the round-driven algorithm forever: {err:?}"
        );

        // GST at time zero is the synchronous control: same model, same code
        // path, agreement as usual.
        let control =
            run_partition_experiment(3, 3, TimingModel::PartialSynchrony { gst: 0, bound: 1 }, 13)
                .unwrap();
        assert!(control.agreement, "gst = 0 is synchrony: {control:?}");
    }

    #[test]
    fn disagreement_rate_is_zero_iff_synchronous() {
        assert_eq!(disagreement_rate(2, 2, TimingModel::Synchronous, 3, 1), 0.0);
        assert_eq!(
            disagreement_rate(2, 2, TimingModel::Asynchronous, 3, 1),
            1.0
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_partitions_are_rejected() {
        let _ = run_partition_experiment(0, 3, TimingModel::Synchronous, 1);
    }
}
