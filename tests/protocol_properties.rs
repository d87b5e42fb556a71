//! Randomised adversarial tests: the paper's guarantees must hold for *every*
//! Byzantine behaviour, so beyond the scripted worst cases this suite throws
//! randomised (but seed-reproducible) adversaries at the protocols — vocabulary
//! noise, randomly staggered crashes, random attack windows and random collusions,
//! all of them attack-plan steps — and verifies the outcomes with the
//! `uba-checker` oracles. Cases are drawn from the workspace's deterministic RNG
//! (proptest is unavailable offline).

use rand::Rng;

use uba_checker::approx::check_approx_real;
use uba_checker::consensus::{check_consensus, ConsensusCheck, ConsensusObservation};
use uba_checker::parallel::{check_parallel_consensus, ParallelObservation};
use uba_core::adversaries::MinorityBooster;
use uba_core::sim::{
    ActorRange, AttackBehavior, AttackPlan, AttackStep, ConsensusFactory, Harness,
    ParallelConsensusFactory, RunReport, ScenarioBuilder, ScenarioExt, Simulation,
};
use uba_core::Real;
use uba_simnet::attack::{CompiledStep, PlanAdversary};
use uba_simnet::rng::seeded_rng;
use uba_simnet::Protocol;

/// The scenario every sweep builds on: `correct + byzantine` nodes under `seed`,
/// capped at `max_rounds`.
fn scenario(correct: usize, byzantine: usize, seed: u64, max_rounds: u64) -> ScenarioBuilder {
    Simulation::scenario()
        .correct(correct)
        .byzantine(byzantine)
        .seed(seed)
        .max_rounds(max_rounds)
}

/// Random well-formed traffic: everything the protocol's payload vocabulary can say.
fn noise() -> AttackPlan {
    AttackPlan::new().behavior(AttackBehavior::Noise)
}

/// Runs consensus to termination and checks agreement/validity/termination.
fn run_and_check_consensus(mut harness: Harness<ConsensusFactory>) -> RunReport {
    let report = harness.run().expect("no engine error");
    assert!(
        report.completed(),
        "consensus terminates under every admissible adversary"
    );
    let observations: Vec<ConsensusObservation<u64>> = harness
        .nodes()
        .iter()
        .map(|node| ConsensusObservation {
            node: Protocol::id(node),
            input: *node.input(),
            decision: node.decision().cloned(),
        })
        .collect();
    check_consensus(&observations, ConsensusCheck::default())
        .assert_passed("randomised adversarial consensus");
    report
}

/// The round cap the consensus sweeps run under.
fn consensus_cap(n: usize) -> u64 {
    80 * n as u64 + 200
}

#[test]
fn consensus_survives_random_noise() {
    let mut rng = seeded_rng(0x901);
    for _ in 0..10 {
        let f = rng.gen_range(1usize..3);
        let seed = rng.gen_range(0u64..10_000);
        // Vocabulary noise has no rate; the draw keeps the sweep's parameter stream.
        let _rate = rng.gen_range(0.05f64..1.0);
        let input_bits = rng.gen_range(0u32..64);
        let correct = 2 * f + 1;
        let inputs: Vec<u64> = (0..correct)
            .map(|i| ((input_bits >> i) & 1) as u64)
            .collect();
        let report = run_and_check_consensus(
            scenario(correct, f, seed, consensus_cap(correct + f))
                .attack(noise())
                .consensus(&inputs),
        );
        assert!(report.messages.byzantine > 0, "no attack traffic");
    }
}

#[test]
fn consensus_survives_random_collusion_and_crashes() {
    let mut rng = seeded_rng(0x902);
    for _ in 0..10 {
        let f = rng.gen_range(1usize..3);
        let seed = rng.gen_range(0u64..10_000);
        let crash_lo = rng.gen_range(3u64..10);
        let crash_span = rng.gen_range(1u64..30);
        let correct = 2 * f + 1;
        let inputs: Vec<u64> = (0..correct).map(|i| (i % 2) as u64).collect();
        // The first `f / 2 + 1` identities split the vote, the rest make noise, and
        // every identity crashes at its own round: one plan step per identity.
        let mut crash_rng = seeded_rng(seed);
        let mut plan = AttackPlan::new();
        let mut last_crash = 0;
        for i in 0..f {
            let crash = crash_rng.gen_range(crash_lo..=crash_lo + crash_span);
            last_crash = last_crash.max(crash);
            let behavior = if i < f / 2 + 1 {
                AttackBehavior::Equivocate { low: 0, high: 1 }
            } else {
                AttackBehavior::Noise
            };
            let actor = ActorRange::slice(i, 1);
            plan = plan.step(AttackStep::new(behavior).actors(actor).until(crash - 1));
        }
        let report = run_and_check_consensus(
            scenario(correct, f, seed, consensus_cap(correct + f))
                .attack(plan)
                .consensus(&inputs),
        );
        // Every identity spoke before its crash and none after the last one.
        let per_round = &report.messages.per_round;
        assert_eq!(per_round[0].byzantine_messages, (f * correct) as u64);
        assert!(per_round
            .iter()
            .all(|r| r.round < last_crash || r.byzantine_messages == 0));
    }
}

#[test]
fn consensus_survives_windowed_adaptive_attacks() {
    let mut rng = seeded_rng(0x903);
    let mut opened = 0;
    for _ in 0..10 {
        let f = rng.gen_range(1usize..3);
        let seed = rng.gen_range(0u64..10_000);
        let from = rng.gen_range(1u64..12);
        let length = rng.gen_range(1u64..25);
        let correct = 2 * f + 1;
        let inputs: Vec<u64> = (0..correct).map(|i| (i % 2) as u64).collect();
        let adversary = PlanAdversary::new(vec![CompiledStep {
            from_round: from,
            to_round: Some(from + length),
            actors: ActorRange::all(),
            strategy: Box::new(MinorityBooster::new(0u64, 1u64)),
        }]);
        let report = run_and_check_consensus(
            scenario(correct, f, seed, consensus_cap(correct + f)).build_with_adversary(
                ConsensusFactory::new(inputs),
                "windowed-minority-booster",
                adversary,
            ),
        );
        assert!(report
            .messages
            .per_round
            .iter()
            .all(|r| (from..=from + length).contains(&r.round) || r.byzantine_messages == 0));
        // A run that decides before its window opens never meets the attacker; every
        // other run must.
        assert!(report.rounds < from || report.messages.byzantine > 0);
        opened += (report.rounds >= from) as usize;
    }
    assert_eq!(opened, 7, "windows that open before the run decides");
}

#[test]
fn approx_agreement_survives_random_values() {
    let mut rng = seeded_rng(0x904);
    for _ in 0..10 {
        let f = rng.gen_range(1usize..4);
        let extra = rng.gen_range(0usize..4);
        let seed = rng.gen_range(0u64..10_000);
        let spread = rng.gen_range(1.0f64..1_000.0);
        let correct = 2 * f + 1 + extra;
        let inputs: Vec<f64> = (0..correct)
            .map(|i| i as f64 * spread / correct as f64)
            .collect();
        let mut harness = scenario(correct, f, seed, 4)
            .attack(noise())
            .approx(&inputs);
        let report = harness.run().expect("no engine error");
        assert!(report.completed(), "approx produces outputs");
        assert!(report.messages.byzantine > 0, "no attack traffic");
        let inputs: Vec<Real> = inputs.iter().map(|&x| Real::from_f64(x)).collect();
        let outputs: Vec<Real> = harness
            .nodes()
            .iter()
            .map(|node| node.output().unwrap())
            .collect();
        check_approx_real(&inputs, &outputs).assert_passed("random-value approx agreement");
    }
}

#[test]
fn parallel_consensus_survives_random_instance_noise() {
    let mut rng = seeded_rng(0x905);
    for _ in 0..10 {
        let f = rng.gen_range(1usize..3);
        let seed = rng.gen_range(0u64..10_000);
        let shared_pairs = rng.gen_range(1usize..5);
        let correct = 2 * f + 1;
        let pairs: Vec<(u64, u64)> = (0..shared_pairs as u64).map(|i| (i, 100 + i)).collect();
        let mut harness = scenario(correct, f, seed, 600)
            .attack(noise())
            .build(ParallelConsensusFactory::new(pairs.clone()));
        let report = harness.run().expect("no engine error");
        assert!(report.completed());
        assert!(report.messages.byzantine > 0, "no attack traffic");
        let observations: Vec<ParallelObservation<u64>> = harness
            .nodes()
            .iter()
            .map(|node| ParallelObservation {
                node: Protocol::id(node),
                inputs: node.inputs().clone(),
                decision: node.decision().cloned(),
            })
            .collect();
        check_parallel_consensus(&observations).assert_passed("random instance noise");
        // All the genuinely shared pairs must be in every output.
        let output = &observations[0].decision.as_ref().unwrap().pairs;
        for (id, value) in &pairs {
            assert_eq!(output.get(id), Some(value));
        }
    }
}
