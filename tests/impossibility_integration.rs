//! Integration tests for Section IX: consensus without knowledge of `n` and `f` is
//! impossible (even with probabilistic termination) in asynchronous and
//! semi-synchronous systems. The tests reproduce the constructive partition arguments
//! of Lemmas 14 and 15 on the timed engine and confirm that the synchronous control
//! arm never disagrees.

use uba_core::impossibility::{disagreement_rate, partition_harness, run_partition_experiment};
use uba_core::sim::{ConsensusFactory, ScenarioBuilder, ScenarioSpec};
use uba_simnet::DelaySpec;

/// Partition `A` of `first` nodes cut off from `B`: cross-partition messages
/// take `cross` ticks, or never arrive when `cross` is `None`.
fn partition(first: usize, cross: Option<u64>) -> DelaySpec {
    DelaySpec::Partition { first, cross }
}

#[test]
fn synchronous_control_never_disagrees() {
    for &(a, b) in &[(2usize, 2usize), (3, 5), (8, 8)] {
        for seed in 0..5 {
            let outcome = run_partition_experiment(a, b, DelaySpec::Synchronous, seed)
                .expect("synchronous run completes");
            assert!(
                outcome.agreement,
                "synchronous execution disagreed for |A| = {a}, |B| = {b}, seed {seed}"
            );
        }
    }
}

#[test]
fn asynchronous_partition_forces_disagreement() {
    // Lemma 14: with cross-partition messages never delivered, each side only ever
    // hears its own input and decides it — a guaranteed disagreement in every trial.
    for &(a, b) in &[(2usize, 2usize), (3, 4), (6, 6)] {
        let outcome = run_partition_experiment(a, b, partition(a, None), 7)
            .expect("asynchronous run completes");
        assert!(
            !outcome.agreement,
            "partitioned async execution must disagree"
        );
        // Each side decided its own input.
        let ones = outcome.decisions.iter().filter(|(_, v)| *v == 1).count();
        let zeros = outcome.decisions.iter().filter(|(_, v)| *v == 0).count();
        assert_eq!((ones, zeros), (a, b));
    }
}

#[test]
fn semi_synchronous_partition_disagrees_when_the_bound_is_large_enough() {
    // Lemma 15: the delay bound Δ exists but exceeds the time both sides need to
    // decide, so the execution is indistinguishable from the two isolated systems.
    let outcome = run_partition_experiment(4, 4, partition(4, Some(500)), 11)
        .expect("semi-synchronous run completes");
    assert!(
        !outcome.agreement,
        "large-Δ semi-synchronous execution must disagree"
    );
    assert!(
        outcome.ticks < 500,
        "both sides must decide before the cross delay elapses"
    );
}

#[test]
fn small_cross_delay_behaves_like_the_synchronous_control() {
    // If Δ is so small that cross-partition messages arrive before anyone decides, the
    // execution is effectively synchronous and must agree.
    let outcome = run_partition_experiment(3, 3, partition(3, Some(1)), 13).expect("run completes");
    assert!(outcome.agreement, "tiny cross delays cannot be exploited");
}

#[test]
fn disagreement_rates_separate_the_three_timing_models() {
    let trials = 6;
    let sync = disagreement_rate(3, 3, &DelaySpec::Synchronous, trials, 1);
    let semi = disagreement_rate(3, 3, &partition(3, Some(400)), trials, 1);
    let asynchronous = disagreement_rate(3, 3, &partition(3, None), trials, 1);
    assert_eq!(sync, 0.0, "synchrony guarantees agreement");
    assert_eq!(
        semi, 1.0,
        "the Lemma 15 construction disagrees in every trial"
    );
    assert_eq!(
        asynchronous, 1.0,
        "the Lemma 14 construction disagrees in every trial"
    );
}

#[test]
fn unbalanced_partitions_still_disagree() {
    // The argument does not depend on the partition sizes being equal — a single
    // isolated node already decides its own input.
    let outcome = run_partition_experiment(1, 9, partition(1, None), 23).expect("run completes");
    assert!(!outcome.agreement);
    assert_eq!(outcome.decisions.iter().filter(|(_, v)| *v == 1).count(), 1);
}

#[test]
fn a_lemma_14_run_is_a_replayable_scenario() {
    // The construction is a plain scenario: its recorded spec, parsed back
    // from JSON and handed to the builder with the same inputs, runs the same
    // execution node for node.
    let report = partition_harness(3, 4, partition(3, None), 7)
        .run()
        .expect("run completes");
    let json = serde_json::to_string(&report.scenario).expect("the spec serialises");
    let spec: ScenarioSpec = serde_json::from_str(&json).expect("the spec parses");
    assert_eq!(spec, report.scenario);
    assert!(
        !spec.admissible(),
        "a partitioned network is outside the synchronous model"
    );
    let replay = ScenarioBuilder::from_spec(spec)
        .build(ConsensusFactory::new([1, 1, 1, 0, 0, 0, 0]))
        .run()
        .expect("replay completes");
    let decisions = |report: &uba_core::sim::RunReport| report.consensus.clone().unwrap().decisions;
    assert_eq!(decisions(&replay), decisions(&report));
    let outcome = run_partition_experiment(3, 4, partition(3, None), 7).expect("run completes");
    let pairs: Vec<_> = decisions(&replay)
        .iter()
        .map(|d| (d.node, d.value))
        .collect();
    assert_eq!(pairs, outcome.decisions);
    assert!(!outcome.agreement);
}
