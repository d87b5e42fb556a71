//! `grid-small`: what `fuzz`, `search` and Monte-Carlo users pay — thousands
//! of tiny adversarial cases, where fixed per-run cost (build, plan compile,
//! checker, report, serde) does the work and per-message cost almost none.
//!
//! 3 360 cases a pass: 10 families × {(4,1), (7,2), (10,3)} × 14 attack plans
//! × {static, Byzantine join at round 3} × {no crash, crash@2 / clean
//! restart@4} × 2 trials — trial 0 on the sync engine, trial 1 on the
//! zero-jitter event engine (admissible, so every theorem property is
//! asserted on both). The axes are written out here, not read from the
//! fuzzer's `default_grid`, so the inputs cannot drift with it; and the ten
//! families are wired here, mirroring `uba_bench::fuzz::run_case`, so that
//! build, run, report and check are separate calls the benchmark can time.

use std::time::Instant;

use crate::surface::{
    case_failures, derive_seed, AdversaryKind, ApproxFactory, AttackBehavior, AttackPlan,
    AttackStep, BroadcastFactory, ChurnEvent, ChurnSchedule, ConsensusFactory, CrashPlan,
    DolevApproxFactory, EngineKind, FuzzCase, KnownRotorFactory, NodeId, ParallelConsensusFactory,
    PhaseKingFactory, ProtocolFactory, ProtocolId, RestartPolicy, RotorFactory, RunReport,
    ScenarioBuilder, ScenarioGrid, SemanticStrategy, StBroadcastFactory, TotalOrderFactory,
    TotalOrderPlan,
};
use crate::trace::Tracer;
use crate::workloads::{digest, histogram, Driver, Outcome, Plan, Size, DIGEST_SEED};

/// Per-case round budget.
const MAX_ROUNDS: u64 = 400;

/// `--quick` runs every this-many-th case of the full grid: coprime with every
/// axis length, so the sample still crosses all of them.
const QUICK_STRIDE: usize = 41;

/// The attack-plan axis: the five scripted presets plus the composed and
/// vocabulary-driven shapes.
fn plans() -> Vec<AttackPlan> {
    let preset = AttackPlan::preset;
    let behavior = |behavior| AttackPlan::new().behavior(behavior);
    vec![
        preset(AdversaryKind::SplitVote),
        preset(AdversaryKind::PartialAnnounce),
        AttackPlan::crash_window(AdversaryKind::SplitVote, 1, 4),
        AttackPlan::collusion(
            AttackBehavior::Preset(AdversaryKind::SplitVote),
            1,
            AttackBehavior::Preset(AdversaryKind::AnnounceThenSilent),
        ),
        behavior(AttackBehavior::Replay {
            visible_to_even_raw_ids: true,
        }),
        behavior(AttackBehavior::AnnounceToSubset {
            modulus: 3,
            remainder: 1,
        }),
        behavior(AttackBehavior::Outliers { magnitude: 1e6 }),
        preset(AdversaryKind::Silent),
        preset(AdversaryKind::AnnounceThenSilent),
        preset(AdversaryKind::Worst),
        behavior(AttackBehavior::Equivocate { low: 0, high: 1 }),
        behavior(AttackBehavior::Noise),
        behavior(AttackBehavior::Semantic {
            strategy: SemanticStrategy::Valid,
        }),
        behavior(AttackBehavior::Preset(AdversaryKind::PartialAnnounce))
            .step(AttackStep::new(AttackBehavior::Preset(AdversaryKind::SplitVote)).window(3, 9)),
    ]
}

/// The pass's cases, in grid order. Trial 1 of every grid point runs on the
/// zero-jitter event engine.
pub fn cases(seed: u64, size: Size) -> Vec<FuzzCase> {
    let grid = ScenarioGrid::new()
        .protocols(ProtocolId::ALL.to_vec())
        .sizes(vec![(4, 1), (7, 2), (10, 3)])
        .plans(plans())
        .churns(vec![
            ChurnSchedule::empty(),
            ChurnSchedule::empty().with(3, ChurnEvent::JoinByzantine(NodeId::new(9_000_001))),
        ])
        .crash_plans(vec![CrashPlan {
            victim: 1,
            crash_round: 2,
            restart_round: 4,
            policy: RestartPolicy::Clean,
        }])
        .trials(2)
        .base_seed(derive_seed(seed, 0x6D))
        .max_rounds(MAX_ROUNDS);
    let stride = match size {
        Size::Full => 1,
        Size::Quick => QUICK_STRIDE,
    };
    (0..grid.len())
        .step_by(stride)
        .map(|index| {
            let sweep = grid.case(index);
            let mut case = FuzzCase::from_sweep(&sweep);
            if sweep.trial == 1 {
                case.spec.engine = Some(EngineKind::event());
            }
            case
        })
        .collect()
}

fn binary_inputs(correct: usize) -> Vec<u64> {
    (0..correct).map(|i| (i % 2) as u64).collect()
}

fn real_inputs(correct: usize) -> Vec<f64> {
    (0..correct).map(|i| i as f64 * 10.0).collect()
}

/// A round-robin event stream plus one mid-run leave when enough founders
/// exist, over a fixed 16-round window.
fn total_order_plan(correct: usize) -> TotalOrderPlan<u64> {
    let mut plan = TotalOrderPlan::rounds(16);
    for round in 1..=8u64 {
        plan = plan.event(round, (round as usize) % correct.max(1), round);
    }
    if correct >= 4 {
        plan = plan.leave(10, correct - 1);
    }
    plan
}

/// What one case produced.
pub struct CaseOutcome {
    /// The report, verdicts attached.
    pub report: RunReport,
    /// Its JSON.
    pub json: String,
    /// Violated properties (`case_failures`, or the engine error).
    pub failures: Vec<String>,
    /// Seconds spent building the harness.
    pub build_s: f64,
}

/// Runs one case through the family's factory: the ten-arm wiring.
pub fn run_wired(case: &FuzzCase, index: u64, driver: &mut Driver<'_>) -> CaseOutcome {
    let correct = case.spec.correct;
    match case.protocol {
        ProtocolId::Consensus => pipeline(
            case,
            index,
            driver,
            ConsensusFactory::new(binary_inputs(correct)),
        ),
        ProtocolId::ReliableBroadcast => {
            pipeline(case, index, driver, BroadcastFactory::correct_source(42))
        }
        ProtocolId::Rotor => pipeline(case, index, driver, RotorFactory),
        ProtocolId::Approx => pipeline(
            case,
            index,
            driver,
            ApproxFactory::new(real_inputs(correct)),
        ),
        ProtocolId::ParallelConsensus => pipeline(
            case,
            index,
            driver,
            ParallelConsensusFactory::new(vec![(0, 100), (1, 101), (2, 102)])
                .with_partial_pair((7, 700)),
        ),
        ProtocolId::TotalOrder => pipeline(
            case,
            index,
            driver,
            TotalOrderFactory::new(total_order_plan(correct)),
        ),
        ProtocolId::PhaseKing => pipeline(
            case,
            index,
            driver,
            PhaseKingFactory::new(binary_inputs(correct)),
        ),
        ProtocolId::SrikanthToueg => pipeline(case, index, driver, StBroadcastFactory::new(42)),
        ProtocolId::DolevApprox => pipeline(
            case,
            index,
            driver,
            DolevApproxFactory::new(real_inputs(correct)),
        ),
        ProtocolId::KnownRotor => pipeline(case, index, driver, KnownRotorFactory),
    }
}

/// Build → run → report → check → serialise → properties, each a separate
/// timed call.
fn pipeline<F: ProtocolFactory>(
    case: &FuzzCase,
    index: u64,
    driver: &mut Driver<'_>,
    factory: F,
) -> CaseOutcome {
    let span = driver.tracer.open("sim.build", index);
    let clock = Instant::now();
    let mut harness = ScenarioBuilder::from_spec(case.spec.clone()).build(factory);
    let build_s = clock.elapsed().as_secs_f64();
    driver.tracer.close(span);

    let span = driver.tracer.open("sim.run", index);
    let mut error = None;
    while !harness.stopped() && harness.rounds_executed() < case.spec.max_rounds {
        if let Err(violation) = harness.step_round() {
            error = Some(format!("engine: {violation}"));
            break;
        }
    }
    if span.is_some() {
        driver.reset_phases();
        driver.phase_children(&harness, span, index);
    }
    driver.tracer.close(span);

    let (report, json) = driver.finish(&harness, index);
    let span = driver.tracer.open("grid.property", index);
    let mut failures = case_failures(case, &report);
    failures.extend(error);
    driver.tracer.close(span);
    CaseOutcome {
        report,
        json,
        failures,
        build_s,
    }
}

/// One pass over the grid.
pub fn iterate(plan: &Plan, tracer: &mut Tracer) -> Outcome {
    let mut driver = Driver::start(tracer);
    let span = driver.tracer.open("grid.enumerate", 0);
    let cases = cases(plan.seed, plan.size);
    driver.tracer.close(span);
    driver.setup_done();

    let mut setup_s = driver.out.setup_s;
    let (mut rounds, mut messages, mut deliveries) = (0, 0, 0);
    let (mut verdicts, mut verdicts_failed, mut report_bytes, mut failed) = (0, 0, 0, 0);
    let mut report_digest = DIGEST_SEED;
    let mut stop_rounds = Vec::with_capacity(cases.len());
    for (index, case) in cases.iter().enumerate() {
        let span = driver.tracer.open("case", index as u64);
        let clock = Instant::now();
        let outcome = run_wired(case, index as u64, &mut driver);
        let case_s = clock.elapsed().as_secs_f64();
        driver.tracer.close(span);

        driver.out.steps_us.push(case_s * 1e6);
        if case.spec.engine.is_some() {
            driver.out.engine_split_s.1 += case_s;
        } else {
            driver.out.engine_split_s.0 += case_s;
        }
        setup_s += outcome.build_s;
        let report = &outcome.report;
        rounds += report.rounds;
        messages += report.messages.correct + report.messages.byzantine;
        deliveries += report.messages.deliveries;
        verdicts += report.verdicts.len() as u64;
        verdicts_failed += report.verdicts.iter().filter(|v| !v.passed).count() as u64;
        report_bytes += outcome.json.len() as u64;
        report_digest = digest(report_digest, outcome.json.as_bytes());
        failed += u64::from(!outcome.failures.is_empty());
        stop_rounds.push((report.rounds, 1));
        if index == 0 && driver.tracer.enabled() {
            driver.out.report = Some((outcome.report, outcome.json));
        }
    }

    let allocations = driver.allocations();
    let mut out = driver.out;
    out.setup_s = setup_s;
    out.attempted = cases.len() as u64;
    out.failed = failed;
    out.latency_rounds = histogram(stop_rounds);
    out.counts = vec![
        ("cases", out.attempted),
        ("rounds", rounds),
        ("messages", messages),
        ("deliveries", deliveries),
        ("decisions", out.decisions()),
        ("verdicts", verdicts),
        ("verdicts_failed", verdicts_failed),
        ("report_bytes", report_bytes),
        ("report_digest", report_digest),
        ("shared_allocations", allocations),
    ];
    out
}
