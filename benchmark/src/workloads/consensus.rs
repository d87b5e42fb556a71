//! The three single-shot consensus workloads: the per-message constant over
//! the n² floor, once per delivery policy.
//!
//! One scenario — id-only consensus under the split-vote adversary at
//! `n = 3f + 2`, alternating 0/1 inputs — on the sync engine (`produce` and
//! `deliver` each take about half of the wall), on the zero-jitter event
//! engine (report byte-identical; isolates the scheduler), and under
//! in-round jitter with same-instant reordering (the same queue with eight
//! arrival instants a round). No delay leaves its round, so all three decide
//! in the same number of rounds with the same traffic.

use crate::surface::{
    derive_seed, AdversaryKind, ConsensusFactory, DelaySpec, EngineKind, Simulation, TimingSpec,
};
use crate::trace::Tracer;
use crate::workloads::{histogram, Driver, Outcome, Plan, Size, Twin};

/// Which of the three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 86 correct + 42 Byzantine, sync engine.
    N128,
    /// The same on `EngineKind::event()`.
    N128Event,
    /// 65 correct + 31 Byzantine, 8 units a round, delays jittered in `1..=8`
    /// units, same-instant deliveries shuffled.
    N96Jitter,
}

impl Shape {
    fn population(self, size: Size) -> (usize, usize) {
        match (self, size) {
            (_, Size::Quick) => (11, 5),
            (Shape::N128 | Shape::N128Event, Size::Full) => (86, 42),
            (Shape::N96Jitter, Size::Full) => (65, 31),
        }
    }

    fn engine(self, seed: u64) -> Option<EngineKind> {
        match self {
            Shape::N128 => None,
            Shape::N128Event => Some(EngineKind::event()),
            Shape::N96Jitter => Some(EngineKind::Event(
                TimingSpec::synchronous()
                    .units(8)
                    .with_delay(DelaySpec::Jitter { min: 1, max: 8 })
                    .reorder(derive_seed(seed, 0x4A17)),
            )),
        }
    }
}

/// Rounds after which an undecided run counts as failed (it decides in 12).
const ROUND_CAP: u64 = 200;

/// One single-shot run.
pub fn iterate(shape: Shape, plan: &Plan, tracer: &mut Tracer) -> Outcome {
    let mut driver = Driver::start(tracer);

    let span = driver.tracer.open("workload.gen", 0);
    let (correct, byzantine) = shape.population(plan.size);
    let inputs: Vec<u64> = (0..correct).map(|i| (i % 2) as u64).collect();
    driver.tracer.close(span);

    let span = driver.tracer.open("sim.build", 0);
    let mut scenario = Simulation::scenario()
        .correct(correct)
        .byzantine(byzantine)
        .seed(derive_seed(plan.seed, 0xC0))
        .max_rounds(ROUND_CAP)
        .adversary(AdversaryKind::SplitVote);
    let engine = match plan.twin {
        Twin::SyncEngine => None,
        _ => shape.engine(plan.seed),
    };
    if let Some(engine) = engine {
        scenario = scenario.engine(engine);
    }
    let mut harness = scenario.build(ConsensusFactory::new(inputs));
    if plan.twin == Twin::Parallel {
        harness = harness.parallel_stepping();
    }
    driver.tracer.close(span);
    driver.setup_done();

    driver.drive(&mut harness, ROUND_CAP, |_| {});
    let (report, json) = driver.finish(&harness, 0);

    let decided = report.completed()
        && report
            .consensus
            .as_ref()
            .is_some_and(|section| section.undecided.is_empty() && section.agreement);
    let decide_rounds = histogram(
        report
            .consensus
            .iter()
            .flat_map(|section| &section.decisions)
            .map(|decision| (decision.round, 1)),
    );
    driver.seal(report, json, 1, u64::from(!decided), decide_rounds, vec![])
}
