//! Integration tests for parallel consensus (Algorithm 5 / Theorem 5), verified
//! through the `uba-checker` oracle: validity on commonly held pairs, agreement on the
//! full output set, termination, and the no-fabrication guarantee against Byzantine
//! identifier injection.

use std::collections::BTreeMap;

use uba_checker::parallel::{check_parallel_consensus, ParallelObservation};
use uba_core::adversaries::{AnnounceToSubset, GhostPairInjector};
use uba_core::early_consensus::{InstanceId, ParallelMessage};
use uba_core::parallel_consensus::ParallelConsensus;
use uba_core::sim::{
    AdversaryKind, AttackBehavior, AttackPlan, ParallelConsensusFactory, Simulation,
};
use uba_simnet::adversary::SilentAdversary;
use uba_simnet::{Adversary, IdSpace, NodeId, Protocol, SyncEngine};

type Msg = ParallelMessage<u64>;

/// Runs parallel consensus with the given per-node input pair sets and adversary, and
/// returns the checker observations.
fn run<A: Adversary<Msg>>(
    inputs: Vec<Vec<(InstanceId, u64)>>,
    byzantine: usize,
    adversary: A,
    seed: u64,
) -> Vec<ParallelObservation<u64>> {
    let ids = IdSpace::default().generate(inputs.len() + byzantine, seed);
    let byz: Vec<NodeId> = ids[inputs.len()..].to_vec();
    let nodes: Vec<ParallelConsensus<u64>> = ids[..inputs.len()]
        .iter()
        .zip(&inputs)
        .map(|(&id, pairs)| ParallelConsensus::new(id, pairs.clone()))
        .collect();
    let mut engine = SyncEngine::new(nodes, adversary, byz);
    engine
        .run_to_termination(500)
        .expect("parallel consensus terminates");
    observe(engine.nodes())
}

fn observe(nodes: &[ParallelConsensus<u64>]) -> Vec<ParallelObservation<u64>> {
    nodes
        .iter()
        .map(|node| ParallelObservation {
            node: Protocol::id(node),
            inputs: node.inputs().clone(),
            decision: node.decision().cloned(),
        })
        .collect()
}

#[test]
fn universal_pairs_are_agreed_and_output() {
    let inputs = vec![vec![(1, 100), (2, 200), (3, 300)]; 6];
    let observations = run(inputs, 0, SilentAdversary, 1);
    check_parallel_consensus(&observations).assert_passed("universal pairs");
    let pairs = &observations[0].decision.as_ref().unwrap().pairs;
    assert_eq!(*pairs, BTreeMap::from([(1, 100), (2, 200), (3, 300)]));
}

#[test]
fn partially_known_pairs_remain_consistent_under_silent_faults() {
    // Pair 7 is known to four of seven nodes, pair 9 to a single node; the Byzantine
    // identities are counted (they announce) but never vote.
    let mut inputs = vec![vec![(7, 70)]; 4];
    inputs.push(vec![(9, 90)]);
    inputs.extend(vec![vec![]; 2]);
    let observations = run(inputs, 2, AnnounceToSubset::everyone(), 2);
    check_parallel_consensus(&observations).assert_passed("partially known pairs");
}

#[test]
fn byzantine_injected_identifiers_never_reach_the_output() {
    let ghost_pairs = vec![(555u64, 5u64), (777u64, 7u64)];
    let inputs = vec![vec![(1, 11)]; 7];
    let observations = run(inputs, 2, GhostPairInjector::new(ghost_pairs), 3);
    let report = check_parallel_consensus(&observations);
    report.assert_passed("ghost pair injection");
    let pairs = &observations[0].decision.as_ref().unwrap().pairs;
    assert!(pairs.contains_key(&1));
    assert!(!pairs.contains_key(&555) && !pairs.contains_key(&777));
}

#[test]
fn collusion_of_silence_and_injection_is_still_contained() {
    // One Byzantine identity plays announce-then-silent (diluting n_v), the other
    // injects ghost pairs (the factory's worst-case preset). Both attacks run in the
    // same execution, as the two steps of a collusion plan.
    let plan = AttackPlan::collusion(
        AttackBehavior::Preset(AdversaryKind::AnnounceThenSilent),
        1,
        AttackBehavior::Preset(AdversaryKind::Worst),
    );
    let factory =
        ParallelConsensusFactory::new(vec![(1, 10), (2, 20)]).with_ghost_pairs(vec![(4_040, 4)]);
    let mut harness = Simulation::scenario()
        .correct(7)
        .byzantine(2)
        .seed(4)
        .max_rounds(500)
        .attack(plan)
        .build(factory);
    let report = harness.run().expect("parallel consensus terminates");
    assert!(report.completed());
    // Both halves spoke: two identities announce to seven nodes in round 1, and only
    // the injector's one ghost pair follows in round 4.
    assert_eq!(report.messages.per_round[0].byzantine_messages, 14);
    assert_eq!(report.messages.per_round[3].byzantine_messages, 7);
    let observations = observe(harness.nodes());
    check_parallel_consensus(&observations).assert_passed("colluding attackers");
    let pairs = &observations[0].decision.as_ref().unwrap().pairs;
    assert_eq!(pairs.get(&1), Some(&10));
    assert_eq!(pairs.get(&2), Some(&20));
    assert!(!pairs.contains_key(&4_040));
}

#[test]
fn wide_instance_fan_out_terminates_in_one_phase() {
    // 32 concurrent instances shared by everyone decide together in the first phase.
    let pairs: Vec<(InstanceId, u64)> = (0..32).map(|i| (i, i * 3 + 1)).collect();
    let observations = run(vec![pairs.clone(); 5], 0, SilentAdversary, 5);
    check_parallel_consensus(&observations).assert_passed("wide fan-out");
    let decision = observations[0].decision.as_ref().unwrap();
    assert_eq!(decision.pairs.len(), 32);
    assert_eq!(decision.phase, 1);
}

#[test]
fn empty_input_sets_terminate_with_empty_outputs() {
    let observations = run(vec![vec![]; 5], 1, AnnounceToSubset::everyone(), 6);
    check_parallel_consensus(&observations).assert_passed("no inputs anywhere");
    assert!(observations
        .iter()
        .all(|o| o.decision.as_ref().unwrap().pairs.is_empty()));
}

#[test]
fn conflicting_opinions_for_the_same_identifier_resolve_to_one_value() {
    // Every node holds instance 5 but with its own opinion; agreement requires that
    // all nodes end up with the same (possibly absent) value for it.
    let inputs: Vec<Vec<(InstanceId, u64)>> = (0..7).map(|i| vec![(5, 1_000 + i as u64)]).collect();
    let observations = run(inputs, 2, AnnounceToSubset::everyone(), 7);
    check_parallel_consensus(&observations).assert_passed("conflicting opinions");
    // If the pair is output, the value must be one of the submitted opinions.
    if let Some(value) = observations[0].decision.as_ref().unwrap().pairs.get(&5) {
        assert!((1_000..1_007).contains(value));
    }
}
