//! End-to-end tests of the `uba-checker` oracles against live protocol executions:
//! real runs must pass, and *tampered* observations must be caught. The tampering
//! tests are what protect the rest of the suite from a silently vacuous oracle.

use std::collections::BTreeSet;

use uba_checker::broadcast::{check_reliable_broadcast, observe, NodeAcceptances, SenderTruth};
use uba_checker::chain::{check_chain_growth, check_chain_prefix, ChainObservation};
use uba_checker::consensus::{check_consensus, ConsensusCheck, ConsensusObservation};
use uba_checker::rotor::{check_rotor, RotorCheck, RotorObservation};
use uba_core::adversaries::{AnnounceToSubset, EquivocatingSource};
use uba_core::consensus::Consensus;
use uba_core::reliable_broadcast::ReliableBroadcast;
use uba_core::rotor::RotorCoordinator;
use uba_core::total_order::{OrderedEvent, TotalOrderNode};
use uba_simnet::adversary::SilentAdversary;
use uba_simnet::{IdSpace, NodeId, Protocol, SyncEngine};

#[test]
fn live_broadcast_run_passes_and_tampered_observations_fail() {
    let ids = IdSpace::default().generate(9, 1);
    let byz: Vec<NodeId> = ids[7..].to_vec();
    let source = ids[0];
    let nodes: Vec<ReliableBroadcast<u64>> = ids[..7]
        .iter()
        .map(|&id| {
            if id == source {
                ReliableBroadcast::sender(id, 42u64)
            } else {
                ReliableBroadcast::receiver(id, source)
            }
        })
        .collect();
    let mut engine = SyncEngine::new(nodes, AnnounceToSubset::everyone(), byz);
    engine.run_rounds(12).unwrap();

    let observations = observe(engine.nodes());
    let truth = SenderTruth::Correct(42u64);
    check_reliable_broadcast(&truth, &observations, engine.round())
        .assert_passed("live reliable broadcast");

    // Tamper 1: pretend one node accepted a value the correct source never sent.
    let mut forged = observations.clone();
    forged[2]
        .accepted
        .push(uba_core::reliable_broadcast::Accepted {
            message: 666,
            source,
            round: 5,
        });
    let report = check_reliable_broadcast(&truth, &forged, engine.round());
    assert!(report
        .violations
        .iter()
        .any(|v| v.property == "reliable-broadcast/unforgeability"));

    // Tamper 2: erase one node's acceptance entirely.
    let mut missing = observations.clone();
    missing[3].accepted.clear();
    let report = check_reliable_broadcast(&truth, &missing, engine.round());
    assert!(report
        .violations
        .iter()
        .any(|v| v.property == "reliable-broadcast/correctness"));
}

#[test]
fn equivocating_source_run_is_consistent_across_nodes() {
    let ids = IdSpace::default().generate(9, 3);
    let byz: Vec<NodeId> = ids[7..].to_vec();
    let source = byz[0];
    let nodes: Vec<ReliableBroadcast<u64>> = ids[..7]
        .iter()
        .map(|&id| ReliableBroadcast::receiver(id, source))
        .collect();
    let mut engine = SyncEngine::new(nodes, EquivocatingSource::new(source, 1u64, 2u64), byz);
    engine.run_rounds(12).unwrap();
    let observations: Vec<NodeAcceptances<u64>> = observe(engine.nodes());
    check_reliable_broadcast(&SenderTruth::Byzantine, &observations, engine.round())
        .assert_passed("equivocating source is exposed consistently");
}

#[test]
fn live_consensus_passes_and_a_flipped_decision_fails() {
    let ids = IdSpace::default().generate(7, 5);
    let nodes: Vec<Consensus<u64>> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| Consensus::new(id, (i % 2) as u64))
        .collect();
    let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
    engine.run_to_termination(300).unwrap();
    let observations: Vec<ConsensusObservation<u64>> = engine
        .nodes()
        .iter()
        .map(|node| ConsensusObservation {
            node: Protocol::id(node),
            input: *node.input(),
            decision: node.decision().cloned(),
        })
        .collect();
    check_consensus(&observations, ConsensusCheck::default()).assert_passed("live consensus");

    let mut tampered = observations.clone();
    if let Some(decision) = tampered[0].decision.as_mut() {
        decision.value = 1 - decision.value;
    }
    let report = check_consensus(&tampered, ConsensusCheck::default());
    assert!(report
        .violations
        .iter()
        .any(|v| v.property == "consensus/agreement"));

    // A too-tight round bound is also reported.
    let strict = check_consensus(
        &observations,
        ConsensusCheck {
            expect_termination: true,
            round_bound: Some(1),
        },
    );
    assert!(strict
        .violations
        .iter()
        .any(|v| v.property == "consensus/round-bound"));
}

#[test]
fn live_rotor_passes_and_a_fabricated_history_fails() {
    let ids = IdSpace::default().generate(7, 9);
    let nodes: Vec<RotorCoordinator<u64>> = ids
        .iter()
        .map(|&id| RotorCoordinator::new(id, id.raw()))
        .collect();
    let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
    engine.run_to_termination(100).unwrap();
    let correct: BTreeSet<NodeId> = engine.correct_ids().into_iter().collect();
    let observations: Vec<RotorObservation<u64>> = engine
        .nodes()
        .iter()
        .map(|node| RotorObservation {
            node: Protocol::id(node),
            history: node.state().history().to_vec(),
            terminated: node.state().terminated(),
        })
        .collect();
    check_rotor(
        &correct,
        &observations,
        RotorCheck {
            n: 7,
            expect_termination: true,
        },
    )
    .assert_passed("live rotor");

    // Tamper: rewrite one node's selections so no common correct coordinator exists.
    let mut tampered = observations.clone();
    for record in &mut tampered[0].history {
        record.coordinator = NodeId::new(123_456_789);
    }
    let report = check_rotor(
        &correct,
        &tampered,
        RotorCheck {
            n: 7,
            expect_termination: true,
        },
    );
    assert!(report
        .violations
        .iter()
        .any(|v| v.property == "rotor/good-round"));
}

#[test]
fn live_total_order_chains_pass_and_a_reordered_chain_fails() {
    // A small static total-ordering run: every node submits one event per round.
    let ids = IdSpace::default().generate(4, 13);
    let nodes: Vec<TotalOrderNode<u64>> =
        ids.iter().map(|&id| TotalOrderNode::founding(id)).collect();
    let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
    for round in 0..60u64 {
        for (i, node) in engine.nodes_mut().iter_mut().enumerate() {
            if round % 4 == 0 {
                node.submit_event(1_000 * (i as u64 + 1) + round);
            }
        }
        engine.run_round().unwrap();
    }
    let observations: Vec<ChainObservation<u64>> = engine
        .nodes()
        .iter()
        .map(|node| ChainObservation {
            node: Protocol::id(node),
            chain: node.chain().to_vec(),
            joined_round: 0,
        })
        .collect();
    assert!(
        observations.iter().any(|o| !o.chain.is_empty()),
        "the run must have finalised some events"
    );
    check_chain_prefix(&observations).assert_passed("live total ordering");

    // Tamper: swap two entries of one node's chain.
    let mut tampered = observations.clone();
    if tampered[0].chain.len() >= 2 {
        tampered[0].chain.swap(0, 1);
        if tampered[0].chain[0] != observations[0].chain[0] {
            let report = check_chain_prefix(&tampered);
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.property == "total-order/chain-prefix"),
                "a reordered chain must be caught"
            );
        }
    }
}

#[test]
fn chain_growth_oracle_distinguishes_progress_from_stalls() {
    let growing = vec![
        vec![(NodeId::new(1), 0), (NodeId::new(2), 0)],
        vec![(NodeId::new(1), 3), (NodeId::new(2), 3)],
        vec![(NodeId::new(1), 6), (NodeId::new(2), 6)],
    ];
    check_chain_growth(&growing, 1).assert_passed("growing chains");
    let stalled = vec![vec![(NodeId::new(1), 4)], vec![(NodeId::new(1), 4)]];
    let report = check_chain_growth(&stalled, 1);
    assert!(report
        .violations
        .iter()
        .any(|v| v.property == "total-order/chain-growth"));
}

#[test]
fn ordered_event_round_is_what_joins_chains_across_nodes() {
    // Sanity check of the OrderedEvent shape used throughout: ordering is by round
    // first, so two nodes that finalise the same instances produce identical chains.
    let a = OrderedEvent {
        round: 1,
        witness: NodeId::new(5),
        event: 10u64,
    };
    let b = OrderedEvent {
        round: 2,
        witness: NodeId::new(4),
        event: 20u64,
    };
    assert!(a < b);
}
