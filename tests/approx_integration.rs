//! Integration tests for approximate agreement (Algorithm 4, Theorem 4), its iterated
//! and dynamic variants (Section XI) and the subset-join observation (Section XII),
//! verified through the `uba-checker` oracles.

use uba_bench::workload::{clustered_with_outliers, rolling_churn_plan, uniform_reals};
use uba_checker::approx::{check_approx, check_approx_real, check_convergence};
use uba_core::approx::{subset_join_value, IteratedApproxAgreement};
use uba_core::sim::{AdversaryKind, Harness, IteratedApproxFactory, ScenarioExt, Simulation};
use uba_core::Real;
use uba_simnet::adversary::SilentAdversary;
use uba_simnet::{
    AdversaryView, ChurnEvent, ChurnSchedule, Directed, FnAdversary, IdSpace, NodeId, Protocol,
    SyncEngine,
};

#[test]
fn single_shot_satisfies_theorem_4_across_sizes_and_inputs() {
    for &(n, f) in &[(4usize, 1usize), (7, 2), (13, 4), (31, 10)] {
        let inputs = uniform_reals(n - f, -50.0, 150.0, 2_000 + n as u64);
        let report = Simulation::scenario()
            .correct(n - f)
            .byzantine(f)
            .seed(1_000 + n as u64)
            .adversary(AdversaryKind::Worst)
            .approx(&inputs)
            .run()
            .expect("approx run completes");
        let section = report.approx.as_ref().expect("approx section");
        check_approx(&section.inputs, &section.outputs)
            .assert_passed(&format!("single-shot approx with n = {n}, f = {f}"));
        assert!(section.outputs_in_range);
        assert!(section.contraction < 1.0);
    }
}

#[test]
fn sensor_style_outliers_are_trimmed_away() {
    // Most correct inputs cluster around 100; three are wild outliers. The Byzantine
    // nodes additionally push extreme values. Outputs must stay inside the *correct*
    // input range (which includes the honest outliers) and contract.
    let inputs = clustered_with_outliers(10, 100.0, 2.0, 3, 7);
    let report = Simulation::scenario()
        .correct(10)
        .byzantine(3)
        .seed(31)
        .adversary(AdversaryKind::Worst)
        .approx(&inputs)
        .run()
        .expect("approx run completes");
    let section = report.approx.as_ref().expect("approx section");
    check_approx(&section.inputs, &section.outputs)
        .assert_passed("clustered inputs with honest outliers");
}

#[test]
fn per_sender_deduplication_keeps_byzantine_stuffing_out() {
    // A single Byzantine identity sends five different extreme values to the same
    // node in round 1; only one of them may count towards R_v.
    let ids = IdSpace::default().generate(5, 17);
    let byz = NodeId::new(999_000);
    let inputs = [10.0, 11.0, 12.0, 13.0, 14.0];
    let nodes: Vec<IteratedApproxAgreement> = ids
        .iter()
        .zip(&inputs)
        .map(|(&id, &x)| IteratedApproxAgreement::new(id, Real::from_f64(x), 1))
        .collect();
    let adversary = FnAdversary::new(move |view: &AdversaryView<'_, Real>| {
        if view.round != 1 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for &to in view.correct_ids {
            for k in 0..5 {
                out.push(Directed::new(byz, to, Real::from_f64(-1e6 - k as f64)));
            }
        }
        out
    });
    let mut engine = SyncEngine::new(nodes, adversary, vec![byz]);
    engine.run_to_output(4).unwrap();
    let outputs: Vec<Real> = engine
        .outputs()
        .into_iter()
        .map(|(_, o)| o.unwrap())
        .collect();
    let input_reals: Vec<Real> = inputs.iter().map(|&x| Real::from_f64(x)).collect();
    check_approx_real(&input_reals, &outputs).assert_passed("value-stuffing adversary");
    for node in engine.nodes() {
        assert_eq!(
            node.n_v(),
            6,
            "5 correct senders + exactly one counted Byzantine sender"
        );
    }
}

#[test]
fn iterated_agreement_halves_every_iteration_and_checker_confirms() {
    let inputs = uniform_reals(12, 0.0, 640.0, 5);
    let spreads = Simulation::scenario()
        .correct(12)
        .byzantine(3)
        .seed(99)
        .iterated_approx(&inputs, 8)
        .run()
        .expect("iterated run completes")
        .spreads
        .expect("spread section")
        .per_iteration;
    assert_eq!(spreads.len(), 8);
    check_convergence(&spreads).assert_passed("iterated halving");
    assert!(*spreads.last().unwrap() < 640.0 / 2f64.powi(7) * 1.01);
}

#[test]
fn iterated_agreement_with_injected_values_recovers() {
    // Model a value injection between iterations (a proxy for a node replacing its
    // state after a reconfiguration): convergence must resume afterwards.
    let ids = IdSpace::default().generate(9, 3);
    let nodes: Vec<IteratedApproxAgreement> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| IteratedApproxAgreement::new(id, Real::from_int(i as i64 * 8), 10))
        .collect();
    let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
    engine.run_rounds(3).unwrap();
    engine.nodes_mut()[0].inject_value(Real::from_int(10_000));
    engine.run_to_termination(20).unwrap();
    let finals: Vec<f64> = engine
        .outputs()
        .into_iter()
        .map(|(_, o)| o.unwrap().to_f64())
        .collect();
    let spread = finals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - finals.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        spread < 200.0,
        "convergence must resume after the injection, spread = {spread}"
    );
}

/// Algorithm 4 with no iteration bound: in a dynamic network every round is one
/// more iteration over whatever membership the churn schedule has made.
fn dynamic(inputs: &[f64], joiners: Vec<(NodeId, f64)>) -> IteratedApproxFactory {
    IteratedApproxFactory::new(inputs, u64::MAX).joiners(joiners)
}

/// Spread (max − min) of the correct nodes' current values.
fn spread(nodes: &[IteratedApproxAgreement]) -> f64 {
    let values = nodes.iter().map(|node| node.value().to_f64());
    let (lo, hi) = values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    });
    hi - lo
}

/// Steps the harness to its round count, recording the correct spread after
/// every round.
fn spreads(harness: &mut Harness<IteratedApproxFactory>) -> Vec<f64> {
    let mut spreads = Vec::new();
    while !harness.stopped() {
        harness.step_round().expect("dynamic run completes");
        spreads.push(spread(harness.nodes()));
    }
    spreads
}

#[test]
fn dynamic_network_reconverges_after_every_join() {
    let scenario = Simulation::scenario().correct(10).seed(11);
    let ids = scenario.context().correct_ids;
    let inputs = uniform_reals(10, 0.0, 100.0, 13);
    // Churn stops at round 24; the run continues to round 32 so the system has a
    // churn-free tail to reconverge in.
    let (schedule, joiners) = rolling_churn_plan(&ids, 24, 6, 0.0, 100.0, 17);
    let mut harness = scenario
        .churn(schedule)
        .build(dynamic(&inputs, joiners))
        .rounds(32);
    let spreads = spreads(&mut harness);
    // Joiner values come from the same [0, 100] range, so the spread can never exceed
    // the original range, and well after the last join it must have collapsed again.
    assert!(spreads.iter().all(|&s| s <= 100.0 + 1e-6));
    let last = spreads[spreads.len() - 1];
    assert!(last < 5.0, "final spread {last}");
}

#[test]
fn dynamic_network_without_churn_matches_the_static_iterated_protocol() {
    let inputs = uniform_reals(8, -10.0, 10.0, 22);
    let mut harness = Simulation::scenario()
        .correct(8)
        .seed(21)
        .build(dynamic(&inputs, Vec::new()))
        .rounds(6);
    check_convergence(&spreads(&mut harness)[1..]).assert_passed("churn-free dynamic run");
}

/// The churn schedule of the dynamic pins: a join, a Byzantine join, two leaves,
/// a rejoin and a second join, with the correct joiners' starting values.
fn pinned_churn(ids: &[NodeId]) -> (ChurnSchedule, Vec<(NodeId, f64)>) {
    let joiner = NodeId::new(90_001);
    let schedule = ChurnSchedule::empty()
        .with(2, ChurnEvent::JoinCorrect(joiner))
        .with(3, ChurnEvent::JoinByzantine(NodeId::new(90_002)))
        .with(4, ChurnEvent::LeaveCorrect(ids[0]))
        .with(5, ChurnEvent::LeaveCorrect(joiner))
        .with(7, ChurnEvent::JoinCorrect(joiner))
        .with(8, ChurnEvent::JoinCorrect(NodeId::new(90_003)));
    let joiners = vec![
        (joiner, 100.0),
        (joiner, -40.0),
        (NodeId::new(90_003), 55.5),
    ];
    (schedule, joiners)
}

const PINNED_INPUTS: [f64; 10] = [3.5, 17.25, 4.0, 61.0, 29.75, 8.5, 44.0, 12.125, 90.0, 0.5];

/// Exact spreads and final values of one dynamic run with a join, a Byzantine
/// join, two leaves, a rejoin and a second join. The values are a recording, not
/// a derivation: a change to the per-round rule, to the per-sender dedup or to
/// how the driver applies churn and hands joiners their values moves them.
#[test]
fn dynamic_run_reproduces_its_recorded_spreads_and_values() {
    let scenario = Simulation::scenario().correct(10).seed(31);
    let (schedule, joiners) = pinned_churn(&scenario.context().correct_ids);
    let mut harness = scenario
        .churn(schedule)
        .build(dynamic(&PINNED_INPUTS, joiners))
        .rounds(10);
    assert_eq!(
        spreads(&mut harness),
        [89.5, 80.875, 0.0, 0.0, 0.0, 0.0, 59.125, 36.375, 0.0, 0.0]
    );
    let finals: Vec<(u64, f64)> = harness
        .nodes()
        .iter()
        .map(|node| (node.id().raw(), node.value().to_f64()))
        .collect();
    let survivors = [117, 201, 250, 332, 341, 415, 442, 459, 463, 90_001, 90_003];
    assert_eq!(finals, survivors.map(|id| (id, 19.125)));
}

/// The pinned churn schedule again, now with three more Byzantine identities
/// sending the protocol's worst-case outliers every round (`n > 3f` holds in
/// every round: at least 9 correct against at most 4 Byzantine). Per round,
/// Algorithm 4 keeps every correct value inside the range of the values it
/// was computed from, so the spread can only grow when a correct node joins,
/// and no value ever leaves the hull of the inputs and the joiners' values.
#[test]
fn dynamic_run_under_byzantine_outliers_stays_in_the_hull() {
    let scenario = Simulation::scenario()
        .correct(10)
        .byzantine(3)
        .seed(31)
        .adversary(AdversaryKind::Worst);
    let (schedule, joiners) = pinned_churn(&scenario.context().correct_ids);
    assert!(scenario.clone().churn(schedule.clone()).spec().admissible());
    let correct_join_rounds: Vec<u64> = schedule
        .events()
        .iter()
        .filter(|(_, event)| matches!(event, ChurnEvent::JoinCorrect(_)))
        .map(|&(round, _)| round)
        .collect();
    let hull = PINNED_INPUTS
        .iter()
        .chain(joiners.iter().map(|(_, value)| value))
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mut harness = scenario
        .churn(schedule)
        .build(dynamic(&PINNED_INPUTS, joiners))
        .rounds(12);
    let mut previous = spread(harness.nodes());
    while !harness.stopped() {
        harness.step_round().expect("nothing is forged");
        let round = harness.rounds_executed();
        for node in harness.nodes() {
            let value = node.value().to_f64();
            assert!(
                (hull.0..=hull.1).contains(&value),
                "round {round}: {} holds {value}, outside the hull {hull:?}",
                node.id()
            );
        }
        let now = spread(harness.nodes());
        if !correct_join_rounds.contains(&round) {
            assert!(
                now <= previous,
                "round {round}: the spread grew from {previous} to {now} with no correct join"
            );
        }
        previous = now;
    }
    assert!(
        harness.engine().metrics().byzantine_messages > 0,
        "the adversary sent its outliers"
    );
}

#[test]
fn subset_join_brings_a_newcomer_into_the_cluster() {
    // Section XII: nodes already agree around 42; a newcomer with a wild value runs
    // one Algorithm 4 step against a 7-node subset and must land inside the cluster.
    let subset: Vec<Real> = [41.8, 41.9, 42.0, 42.0, 42.1, 42.2, 42.3]
        .iter()
        .map(|&x| Real::from_f64(x))
        .collect();
    for &outlier in &[-1e6, 0.0, 1e9] {
        let joined = subset_join_value(Real::from_f64(outlier), &subset);
        assert!(
            joined >= Real::from_f64(41.8) && joined <= Real::from_f64(42.3),
            "joiner with input {outlier} landed at {joined}, outside the cluster"
        );
    }
}
