//! Adversarial integration suite: every algorithm against every applicable Byzantine
//! strategy, at the resiliency boundary n = 3f + 1.

use std::collections::BTreeSet;

use uba_core::adversaries::{
    AnnounceToSubset, CandidatePoisoner, EquivocatingSource, GhostPairInjector,
};
use uba_core::sim::{
    AdversaryKind, AttackBehavior, AttackPlan, AttackStep, ScenarioExt, Simulation,
};
use uba_core::{Consensus, ParallelConsensus, ReliableBroadcast, RotorCoordinator};
use uba_simnet::{IdSpace, NodeId, SyncEngine};

#[test]
fn consensus_survives_a_crash_after_participation() {
    // Byzantine nodes behave like split-voters for a while and then crash mid-phase:
    // a crash at round 9 is a plan step that runs `until(8)`.
    let inputs: Vec<u64> = (0..7).map(|i| i % 2).collect();
    let split_vote = AttackBehavior::Equivocate { low: 0, high: 1 };
    let report = Simulation::scenario()
        .correct(7)
        .byzantine(2)
        .seed(41)
        .max_rounds(400)
        .attack(AttackPlan::new().step(AttackStep::new(split_vote).until(8)))
        .consensus(&inputs)
        .run()
        .unwrap();
    assert!(report.completed());
    let decisions = &report.consensus.as_ref().unwrap().decisions;
    assert_eq!(decisions.len(), 7);
    assert!(decisions.windows(2).all(|w| w[0].value == w[1].value));
    // The attack happened, and stopped at the crash round.
    let per_round = &report.messages.per_round;
    assert!(per_round.iter().any(|r| r.byzantine_messages > 0));
    assert!(per_round
        .iter()
        .all(|r| r.round <= 8 || r.byzantine_messages == 0));
    assert!(per_round.len() > 8, "the run outlives the crash");
}

#[test]
fn reliable_broadcast_under_equivocation_plus_extra_byzantine_echoers() {
    // The designated sender equivocates AND two more Byzantine nodes amplify one of
    // the two values towards half of the network.
    let ids = IdSpace::default().generate(10, 43);
    let correct: Vec<NodeId> = ids[..7].to_vec();
    let byz: Vec<NodeId> = ids[7..].to_vec();
    let source = byz[0];
    let nodes: Vec<ReliableBroadcast<u64>> = correct
        .iter()
        .map(|&id| ReliableBroadcast::receiver(id, source))
        .collect();
    // Reuse the library equivocator for the source; the other Byzantine identities
    // stay silent (they are still counted against the thresholds by their presence in
    // the byzantine id list, without ever being seen — the hardest case for n_v).
    let adversary = EquivocatingSource::new(source, 111u64, 222u64);
    let mut engine = SyncEngine::new(nodes, adversary, byz);
    engine.run_rounds(25).unwrap();
    let accept_sets: Vec<BTreeSet<u64>> = engine
        .nodes()
        .iter()
        .map(|n| n.accepted().iter().map(|a| a.message).collect())
        .collect();
    assert!(
        accept_sets.iter().all(|s| s == &accept_sets[0]),
        "{accept_sets:?}"
    );
}

#[test]
fn rotor_excludes_fabricated_candidates_and_still_finds_a_good_round() {
    let ids = IdSpace::default().generate(13, 47);
    let correct: Vec<NodeId> = ids[..9].to_vec();
    let byz: Vec<NodeId> = ids[9..].to_vec();
    let ghosts = vec![NodeId::new(1), NodeId::new(3)];
    let nodes: Vec<RotorCoordinator<u64>> = correct
        .iter()
        .map(|&id| RotorCoordinator::new(id, id.raw()))
        .collect();
    let adversary = CandidatePoisoner::new(ghosts.clone());
    let mut engine = SyncEngine::new(nodes, adversary, byz);
    engine.run_to_termination(300).unwrap();

    for node in engine.nodes() {
        for ghost in &ghosts {
            assert!(
                !node.state().candidates().contains(ghost),
                "a fabricated identifier entered a candidate set"
            );
        }
    }
    // Good round: some loop round in which everyone selected the same correct node.
    let correct_set: BTreeSet<NodeId> = correct.iter().copied().collect();
    let histories: Vec<_> = engine.nodes().iter().map(|n| n.state().history()).collect();
    let rounds = histories.iter().map(|h| h.len()).min().unwrap();
    assert!((0..rounds).any(|r| {
        let selections: BTreeSet<NodeId> = histories.iter().map(|h| h[r].coordinator).collect();
        selections.len() == 1 && correct_set.contains(selections.iter().next().unwrap())
    }));
}

#[test]
fn parallel_consensus_rejects_ghost_pairs_even_with_many_real_instances() {
    let correct = 7usize;
    let ids = IdSpace::default().generate(correct + 2, 53);
    let real_pairs: Vec<(u64, u64)> = (0..8).map(|i| (i, 1000 + i)).collect();
    let nodes: Vec<ParallelConsensus<u64>> = ids[..correct]
        .iter()
        .map(|&id| ParallelConsensus::new(id, real_pairs.clone()))
        .collect();
    let adversary = GhostPairInjector::new(vec![(900_001, 66u64), (900_002, 67u64)]);
    let mut engine = SyncEngine::new(nodes, adversary, ids[correct..].to_vec());
    engine.run_to_termination(500).unwrap();
    let decisions: Vec<_> = engine
        .outputs()
        .into_iter()
        .map(|(_, d)| d.unwrap())
        .collect();
    for decision in &decisions {
        assert_eq!(decision.pairs, decisions[0].pairs);
        for id in decision.pairs.keys() {
            assert!(*id < 900_000, "a ghost pair was output: {id}");
        }
        for (id, value) in &real_pairs {
            assert_eq!(
                decision.pairs.get(id),
                Some(value),
                "a unanimous real pair was dropped"
            );
        }
    }
}

#[test]
fn builder_adversary_matrix_is_consistent_across_seeds() {
    // A quick sweep over seeds (the deterministic analogue of repeated random trials):
    // agreement and validity must hold on every single run.
    for seed in 0..10u64 {
        let inputs: Vec<u64> = (0..7).map(|i| (i as u64 + seed) % 2).collect();
        for kind in [AdversaryKind::AnnounceThenSilent, AdversaryKind::SplitVote] {
            let report = Simulation::scenario()
                .correct(7)
                .byzantine(2)
                .seed(seed)
                .adversary(kind)
                .consensus(&inputs)
                .run()
                .unwrap();
            let section = report.consensus.as_ref().expect("consensus section");
            assert!(
                section.agreement && section.validity,
                "seed {seed}, {kind:?}"
            );
        }
    }
}

#[test]
fn announce_then_silent_inflates_n_v_but_not_forever() {
    // Verify the core mechanism directly: Byzantine nodes are counted in n_v but the
    // substitution rule keeps the protocol live.
    let ids = IdSpace::default().generate(10, 59);
    let byz: Vec<NodeId> = ids[7..].to_vec();
    let nodes: Vec<Consensus<u64>> = ids[..7]
        .iter()
        .enumerate()
        .map(|(i, &id)| Consensus::new(id, (i % 2) as u64))
        .collect();
    let mut engine = SyncEngine::new(nodes, AnnounceToSubset::everyone(), byz);
    engine.run_to_termination(400).unwrap();
    for node in engine.nodes() {
        assert_eq!(
            node.n_v(),
            10,
            "the silent Byzantine nodes were counted towards n_v"
        );
        assert!(node.decision().is_some());
    }
}
