//! Legacy-preset equivalence pins: for every protocol/baseline family and every
//! scripted [`AdversaryKind`], running the kind through the builder's `adversary()`
//! path and running its [`AttackPlan::preset`] encoding through the plan path must
//! produce *identical* `RunReport`s — same adversary name, same counts, same
//! per-node outcomes. This is the contract that makes attack plans a strict
//! generalisation of the closed enum rather than a parallel implementation that
//! could drift.
//!
//! The only permitted difference is the scenario's own `attack` field (the plan run
//! records the plan it ran; the kind run records none) — the test checks it
//! explicitly and then normalises it away before the full-report comparison.
//!
//! A second pin records what every family resolves every fuzzed plan to: the
//! adversary name the report carries and the Byzantine traffic it sent
//! (`adversary_mapping.txt`).

use std::fmt::Write as _;

use uba_baselines::{DolevApproxFactory, KnownRotorFactory, PhaseKingFactory, StBroadcastFactory};
use uba_bench::fuzz::{boundary_plans, default_plans};
use uba_core::sim::{
    AdversaryKind, AttackPlan, BroadcastFactory, IteratedApproxFactory, ParallelConsensusFactory,
    RunReport, ScenarioBuilder, ScenarioExt, Simulation, TotalOrderPlan,
};
use uba_simnet::IdSpace;

const KINDS: [AdversaryKind; 5] = [
    AdversaryKind::Silent,
    AdversaryKind::AnnounceThenSilent,
    AdversaryKind::PartialAnnounce,
    AdversaryKind::SplitVote,
    AdversaryKind::Worst,
];

type Runner = Box<dyn Fn(ScenarioBuilder) -> RunReport>;

/// Every family paired with its base scenario and a runner that attaches the
/// factory — mirrors the ten-family list of `tests/engine_equivalence.rs`.
fn families() -> Vec<(&'static str, ScenarioBuilder, Runner)> {
    let inputs: Vec<u64> = (0..7).map(|i| i % 2).collect();
    let approx_inputs: Vec<f64> = (0..7).map(|i| i as f64 * 5.0).collect();
    let consecutive = |seed: u64| {
        Simulation::scenario()
            .correct(7)
            .byzantine(2)
            .ids(IdSpace::Consecutive)
            .seed(seed)
    };
    vec![
        (
            "consensus",
            Simulation::scenario().correct(7).byzantine(2).seed(42),
            Box::new({
                let inputs = inputs.clone();
                move |b: ScenarioBuilder| b.consensus(&inputs).run().unwrap()
            }) as Runner,
        ),
        (
            "reliable-broadcast",
            Simulation::scenario().correct(7).byzantine(2).seed(43),
            Box::new(|b: ScenarioBuilder| b.broadcast(42).run().unwrap()),
        ),
        (
            "rotor",
            Simulation::scenario().correct(7).byzantine(2).seed(44),
            Box::new(|b: ScenarioBuilder| b.rotor().run().unwrap()),
        ),
        (
            "approx",
            Simulation::scenario().correct(7).byzantine(2).seed(45),
            Box::new({
                let approx_inputs = approx_inputs.clone();
                move |b: ScenarioBuilder| b.approx(&approx_inputs).run().unwrap()
            }),
        ),
        (
            "parallel-consensus",
            Simulation::scenario()
                .correct(7)
                .byzantine(2)
                .seed(46)
                .max_rounds(500),
            Box::new(|b: ScenarioBuilder| {
                b.build(ParallelConsensusFactory::new(vec![(0, 50), (1, 51)]))
                    .run()
                    .unwrap()
            }),
        ),
        (
            "total-order",
            Simulation::scenario()
                .correct(7)
                .byzantine(2)
                .seed(0xE0)
                .max_rounds(100),
            Box::new(|b: ScenarioBuilder| {
                let plan = TotalOrderPlan::rounds(20)
                    .event(2, 0, 11)
                    .event(3, 1, 22)
                    .leave(10, 2);
                b.total_order(plan).run().unwrap()
            }),
        ),
        (
            "phase-king",
            consecutive(0).max_rounds(300),
            Box::new({
                let inputs = inputs.clone();
                move |b: ScenarioBuilder| {
                    b.build(PhaseKingFactory::new(inputs.clone()))
                        .run()
                        .unwrap()
                }
            }),
        ),
        (
            "srikanth-toueg",
            consecutive(0),
            Box::new(|b: ScenarioBuilder| b.build(StBroadcastFactory::new(42)).run().unwrap()),
        ),
        (
            "dolev-approx",
            Simulation::scenario()
                .correct(8)
                .byzantine(2)
                .ids(IdSpace::Consecutive)
                .seed(0),
            Box::new(|b: ScenarioBuilder| {
                let inputs: Vec<f64> = (0..8).map(|i| i as f64 * 3.0).collect();
                b.build(DolevApproxFactory::new(inputs)).run().unwrap()
            }),
        ),
        (
            "known-rotor",
            consecutive(0).max_rounds(100),
            Box::new(|b: ScenarioBuilder| b.build(KnownRotorFactory).run().unwrap()),
        ),
    ]
}

#[test]
fn every_kind_preset_plan_reproduces_the_kind_report_for_all_ten_families() {
    for (family, base, run) in families() {
        for kind in KINDS {
            let kind_report = run(base.clone().adversary(kind));
            let plan = AttackPlan::preset(kind);
            let mut plan_report = run(base.clone().attack(plan.clone()));

            assert_eq!(
                plan_report.scenario.attack,
                Some(plan),
                "{family}/{kind:?}: the plan run must record its plan"
            );
            assert_eq!(
                plan_report.scenario.adversary, kind,
                "{family}/{kind:?}: a preset plan normalises the spec's kind"
            );
            plan_report.scenario.attack = None;
            assert_eq!(
                plan_report, kind_report,
                "{family}/{kind:?}: plan encoding drifted from the legacy kind"
            );
        }
    }
}

/// A windowed preset is *not* the legacy kind: the compiled plan must actually
/// cut the strategy off at the window edge (guards against the equivalence above
/// passing because plans are silently ignored).
#[test]
fn windowed_plans_differ_from_their_whole_run_preset() {
    let inputs: Vec<u64> = (0..7).map(|i| i % 2).collect();
    let base = Simulation::scenario().correct(7).byzantine(2).seed(42);
    let whole = base
        .clone()
        .attack(AttackPlan::preset(AdversaryKind::SplitVote))
        .consensus(&inputs)
        .run()
        .unwrap();
    let windowed = base
        .attack(AttackPlan::crash_window(AdversaryKind::SplitVote, 1, 2))
        .consensus(&inputs)
        .run()
        .unwrap();
    assert_eq!(windowed.adversary, "plan(split-vote@1..2)");
    assert!(
        windowed.messages.byzantine < whole.messages.byzantine,
        "the crash window must cut Byzantine traffic ({} !< {})",
        windowed.messages.byzantine,
        whole.messages.byzantine
    );
    let section = windowed.consensus.expect("consensus section");
    assert!(section.agreement && section.validity);
}

/// [`families`] plus the two factories whose own arms no family above reaches:
/// the equivocating broadcast source and iterated approximate agreement.
fn mapped_families() -> Vec<(&'static str, ScenarioBuilder, Runner)> {
    let mut all = families();
    all.push((
        "equivocating-source",
        Simulation::scenario().correct(7).byzantine(2).seed(43),
        Box::new(|b: ScenarioBuilder| {
            b.build(BroadcastFactory::equivocating_source(42, 43))
                .run()
                .unwrap()
        }),
    ));
    all.push((
        "iterated-approx",
        Simulation::scenario().correct(7).byzantine(2).seed(47),
        Box::new(|b: ScenarioBuilder| {
            let inputs: Vec<f64> = (0..7).map(|i| i as f64 * 5.0).collect();
            b.build(IteratedApproxFactory::new(inputs, 4))
                .run()
                .unwrap()
        }),
    ));
    all
}

/// Every plan of the fuzz grid and of the boundary sweep, plus the five
/// presets, each once.
fn mapped_plans() -> Vec<AttackPlan> {
    let mut plans: Vec<AttackPlan> = Vec::new();
    let every = default_plans(false)
        .into_iter()
        .chain(boundary_plans())
        .chain(KINDS.map(AttackPlan::preset));
    for plan in every {
        if !plans.contains(&plan) {
            plans.push(plan);
        }
    }
    plans
}

/// `family | plan | recorded adversary | Byzantine messages`, one line per
/// pair.
const MAPPING: &str = include_str!("adversary_mapping.txt");

#[test]
fn every_family_resolves_every_plan_to_its_recorded_adversary() {
    let mut table = String::new();
    for (family, base, run) in mapped_families() {
        for plan in mapped_plans() {
            let report = run(base.clone().attack(plan.clone()));
            writeln!(
                table,
                "{family} | {} | {} | {}",
                plan.label(),
                report.adversary,
                report.messages.byzantine
            )
            .unwrap();
        }
    }
    let drift: Vec<String> = table
        .lines()
        .zip(MAPPING.lines())
        .filter(|(fresh, recorded)| fresh != recorded)
        .map(|(fresh, recorded)| format!("  recorded {recorded}\n  now      {fresh}"))
        .collect();
    assert!(
        drift.is_empty() && table.lines().count() == MAPPING.lines().count(),
        "the adversary mapping drifted:\n{}\nthe whole table now:\n{table}",
        drift.join("\n")
    );
}
