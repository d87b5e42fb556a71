//! Integration tests for the rotor-coordinator (Algorithm 2, Theorem 2), verified
//! end-to-end through the `uba-checker` oracle: the protocol runs on the synchronous
//! engine against a range of adversaries and the oracle checks termination, the
//! `O(n)` round bound and the existence of a good round.

use std::collections::BTreeSet;

use uba_checker::rotor::{check_rotor, RotorCheck, RotorObservation};
use uba_core::adversaries::{AnnounceToSubset, CandidatePoisoner};
use uba_core::rotor::{RotorCoordinator, RotorMessage};
use uba_simnet::adversary::SilentAdversary;
use uba_simnet::attack::{CompiledStep, PlanAdversary};
use uba_simnet::{ActorRange, Adversary, IdSpace, NodeId, Protocol, SyncEngine};

type Msg = RotorMessage<u64>;

/// Runs the standalone rotor with `n_correct` correct nodes, `byzantine` Byzantine
/// identities and the given adversary; returns the engine for inspection after every
/// correct node terminated.
fn run_rotor<A: Adversary<Msg>>(
    n_correct: usize,
    byzantine: usize,
    adversary: A,
    seed: u64,
) -> SyncEngine<RotorCoordinator<u64>, A> {
    let ids = IdSpace::default().generate(n_correct + byzantine, seed);
    let byz: Vec<NodeId> = ids[n_correct..].to_vec();
    let nodes: Vec<RotorCoordinator<u64>> = ids[..n_correct]
        .iter()
        .map(|&id| RotorCoordinator::new(id, id.raw()))
        .collect();
    let mut engine = SyncEngine::new(nodes, adversary, byz);
    engine
        .run_to_termination(10 * (n_correct + byzantine) as u64 + 20)
        .expect("rotor terminates within O(n) rounds");
    engine
}

fn observe<A: Adversary<Msg>>(
    engine: &SyncEngine<RotorCoordinator<u64>, A>,
) -> (BTreeSet<NodeId>, Vec<RotorObservation<u64>>) {
    let correct: BTreeSet<NodeId> = engine.correct_ids().into_iter().collect();
    let observations = engine
        .nodes()
        .iter()
        .map(|node| RotorObservation {
            node: Protocol::id(node),
            history: node.state().history().to_vec(),
            terminated: node.state().terminated(),
        })
        .collect();
    (correct, observations)
}

#[test]
fn rotor_satisfies_theorem_2_without_faults() {
    for &n in &[4usize, 7, 13, 25] {
        let engine = run_rotor(n, 0, SilentAdversary, 100 + n as u64);
        let (correct, observations) = observe(&engine);
        check_rotor(
            &correct,
            &observations,
            RotorCheck {
                n,
                expect_termination: true,
            },
        )
        .assert_passed(&format!("fault-free rotor with n = {n}"));
    }
}

#[test]
fn rotor_survives_counted_but_silent_byzantine_nodes() {
    for &f in &[1usize, 2, 3] {
        let n = 3 * f + 1;
        let engine = run_rotor(n - f, f, AnnounceToSubset::everyone(), 200 + f as u64);
        let (correct, observations) = observe(&engine);
        check_rotor(
            &correct,
            &observations,
            RotorCheck {
                n,
                expect_termination: true,
            },
        )
        .assert_passed(&format!("announce-then-silent rotor with f = {f}"));
    }
}

#[test]
fn rotor_survives_partial_announcement() {
    // Byzantine identities announce to only half the nodes, so different correct nodes
    // hold different n_v — the situation the candidate-set relay (Lemma 6) handles.
    let engine = run_rotor(7, 2, AnnounceToSubset::every_other(), 77);
    let (correct, observations) = observe(&engine);
    check_rotor(
        &correct,
        &observations,
        RotorCheck {
            n: 9,
            expect_termination: true,
        },
    )
    .assert_passed("partial announcement");
}

#[test]
fn rotor_survives_candidate_set_poisoning() {
    // The adversary vouches for identifiers that never announced themselves; the
    // 2n_v/3 threshold must keep the ghosts out of every correct candidate set, so the
    // poisoning only wastes Byzantine bandwidth. The engine's metrics assert that
    // the attack actually injected traffic.
    let ghosts = vec![NodeId::new(1_000_001), NodeId::new(1_000_002)];
    let engine = run_rotor(7, 2, CandidatePoisoner::new(ghosts.clone()), 78);
    let (correct, observations) = observe(&engine);
    check_rotor(
        &correct,
        &observations,
        RotorCheck {
            n: 9,
            expect_termination: true,
        },
    )
    .assert_passed("candidate poisoning");
    // No ghost identifier was ever selected as a coordinator by a correct node.
    for obs in &observations {
        assert!(
            obs.history
                .iter()
                .all(|record| !ghosts.contains(&record.coordinator)),
            "a fabricated identifier was selected as coordinator by {}",
            obs.node
        );
    }
    assert!(
        engine.metrics().byzantine_messages > 0,
        "the poisoner must actually have attacked"
    );
}

#[test]
fn rotor_selects_every_correct_candidate_before_repeating() {
    // With no faults, the selection order is the sorted candidate set; the node
    // terminates right after wrapping around, so it selects each correct node exactly
    // once before the repeat.
    let engine = run_rotor(6, 0, SilentAdversary, 55);
    let correct: BTreeSet<NodeId> = engine.correct_ids().into_iter().collect();
    for node in engine.nodes() {
        let selected: BTreeSet<NodeId> = node.state().selected().iter().copied().collect();
        assert_eq!(
            selected, correct,
            "every correct node is selected exactly once"
        );
    }
}

#[test]
fn rotor_termination_rounds_grow_linearly_with_n() {
    // Theorem 2: termination in O(n) rounds. Measure the actual network rounds for a
    // range of n and check the growth is (roughly) linear, not quadratic.
    let mut rounds = Vec::new();
    for &n in &[5usize, 10, 20, 40] {
        let engine = run_rotor(n, 0, SilentAdversary, 300 + n as u64);
        rounds.push((n as f64, engine.round() as f64));
    }
    for window in rounds.windows(2) {
        let (n0, r0) = window[0];
        let (n1, r1) = window[1];
        let growth = (r1 / r0) / (n1 / n0);
        assert!(
            growth < 1.6,
            "rounds must scale (sub-)linearly with n: {n0}->{r0} rounds, {n1}->{r1} rounds"
        );
    }
}

#[test]
fn late_attack_window_cannot_poison_after_candidates_are_fixed() {
    // The poisoner only becomes active from round 5 onwards — after every correct node
    // already echoed the genuine candidates. Correctness must be unaffected.
    let adversary = PlanAdversary::new(vec![CompiledStep {
        from_round: 5,
        to_round: Some(50),
        actors: ActorRange::all(),
        strategy: Box::new(CandidatePoisoner::new(vec![NodeId::new(999_999)])),
    }]);
    let engine = run_rotor(7, 2, adversary, 91);
    let per_round = &engine.metrics().per_round;
    assert!(per_round.iter().any(|r| r.byzantine_messages > 0));
    assert!(per_round
        .iter()
        .all(|r| (5..=50).contains(&r.round) || r.byzantine_messages == 0));
    let (correct, observations) = observe(&engine);
    check_rotor(
        &correct,
        &observations,
        RotorCheck {
            n: 9,
            expect_termination: true,
        },
    )
    .assert_passed("late poisoning window");
}
