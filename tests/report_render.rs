//! The report renders an agreed output once — and still renders every output right.
//!
//! `Harness::base_report` `Debug`-formats a node's output only when it differs from
//! the output rendered just before it (`Protocol::Output: Eq`), so n agreeing nodes
//! cost one formatting pass. Two things are gated here. Correctness: for all ten
//! families over a small adversarial grid, every `NodeReport.output` is what
//! formatting that node's own output gives, including where neighbours differ — an
//! undecided node between two decided ones, a joiner's shorter chain after the
//! founders', and an A, B, A interleaving, where the second A is rendered again
//! because only the last rendering is remembered. Cost: wall clock cannot gate a
//! rendering that is not made; a count of `Debug` calls can.

use std::cell::Cell;
use std::fmt;

use uba_baselines::{DolevApproxFactory, KnownRotorFactory, PhaseKingFactory, StBroadcastFactory};
use uba_core::sim::{
    AdversaryKind, ParallelConsensusFactory, RunReport, ScenarioBuilder, ScenarioExt, Simulation,
    TotalOrderPlan,
};
use uba_simnet::sim::{BuildContext, Harness, NamedAdversary, ProtocolFactory, StopCondition};
use uba_simnet::{
    AttackBehavior, ChurnEvent, ChurnSchedule, IdSpace, Inbox, NodeId, Outgoing, Protocol,
    RoundContext,
};

/// Runs the harness and checks every node's reported output against that node's
/// own output, formatted on its own. Returns the outputs as reported.
fn outputs_node_by_node<F: ProtocolFactory>(
    label: &str,
    mut harness: Harness<F>,
) -> Vec<Option<String>> {
    let report = harness.run().expect("no scenario here forges a sender");
    let expected: Vec<Option<String>> = harness
        .nodes()
        .iter()
        .map(|node| node.output().map(|output| format!("{output:?}")))
        .collect();
    let reported: Vec<Option<String>> = report.nodes.iter().map(|n| n.output.clone()).collect();
    assert_eq!(reported, expected, "{label}");
    assert_eq!(harness.report_now().nodes, report.nodes, "{label}");
    reported
}

/// The outputs' shape: a letter per distinct rendering in order of first
/// appearance, `-` for a node without an output.
fn shape(outputs: &[Option<String>]) -> String {
    let mut seen: Vec<&String> = Vec::new();
    outputs
        .iter()
        .map(|output| match output {
            None => '-',
            Some(text) => {
                let at = seen.iter().position(|s| *s == text).unwrap_or_else(|| {
                    seen.push(text);
                    seen.len() - 1
                });
                (b'A' + at.min(25) as u8) as char
            }
        })
        .collect()
}

/// Every family on one scenario; the shapes seen, labelled.
fn all_families(label: &str, base: &ScenarioBuilder) -> Vec<(String, String)> {
    let correct = base.spec().correct;
    let bits: Vec<u64> = (0..correct as u64).map(|i| i % 2).collect();
    let reals: Vec<f64> = (0..correct).map(|i| i as f64 * 5.0).collect();
    let consecutive = base.clone().ids(IdSpace::Consecutive);
    let plan = TotalOrderPlan::rounds(30).event(2, 0, 11).event(3, 1, 22);
    let runs: Vec<(&str, Vec<Option<String>>)> = vec![
        (
            "consensus",
            outputs_node_by_node(label, base.clone().consensus(&bits)),
        ),
        (
            "reliable-broadcast",
            outputs_node_by_node(label, base.clone().broadcast(42)),
        ),
        ("rotor", outputs_node_by_node(label, base.clone().rotor())),
        (
            "approx",
            outputs_node_by_node(label, base.clone().approx(&reals)),
        ),
        (
            "parallel-consensus",
            outputs_node_by_node(
                label,
                base.clone().build(
                    ParallelConsensusFactory::new(vec![(0, 50), (1, 51)])
                        .with_partial_pair((7, 700)),
                ),
            ),
        ),
        (
            "total-order",
            outputs_node_by_node(label, base.clone().total_order(plan)),
        ),
        (
            "phase-king",
            outputs_node_by_node(
                label,
                consecutive
                    .clone()
                    .build(PhaseKingFactory::new(bits.clone())),
            ),
        ),
        (
            "srikanth-toueg",
            outputs_node_by_node(
                label,
                consecutive.clone().build(StBroadcastFactory::new(42)),
            ),
        ),
        (
            "dolev-approx",
            outputs_node_by_node(
                label,
                consecutive
                    .clone()
                    .build(DolevApproxFactory::new(reals.clone())),
            ),
        ),
        (
            "known-rotor",
            outputs_node_by_node(label, consecutive.build(KnownRotorFactory)),
        ),
    ];
    runs.into_iter()
        .map(|(family, outputs)| (format!("{label}/{family}"), shape(&outputs)))
        .collect()
}

#[test]
fn every_family_reports_each_node_as_that_node_renders() {
    let mut shapes: Vec<(String, String)> = Vec::new();
    for (correct, byzantine) in [(4, 1), (7, 2)] {
        for kind in [
            AdversaryKind::Silent,
            AdversaryKind::SplitVote,
            AdversaryKind::Worst,
        ] {
            // Caps that cut the families at different points of their runs, and
            // one that lets every family finish.
            for cap in [2, 5, 8, 400] {
                let base = Simulation::scenario()
                    .correct(correct)
                    .byzantine(byzantine)
                    .seed(0x5EED + cap)
                    .adversary(kind)
                    .max_rounds(cap);
                let label = format!("{correct}+{byzantine}/{kind:?}/cap{cap}");
                shapes.extend(all_families(&label, &base));
            }
        }
    }
    let shape_of = |label: &str| {
        let (_, shape) = shapes
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("{label} is in the grid"));
        shape.as_str()
    };
    // The grid is only worth its name if neighbours differ in it. An undecided
    // node between two decided ones (a split-vote run cut at round 8, when every
    // other node has decided) …
    assert_eq!(shape_of("7+2/SplitVote/cap8/parallel-consensus"), "A-A-A-A");
    // … an A, B, A interleaving, where the second A is rendered a second time …
    assert_eq!(
        shape_of("7+2/SplitVote/cap400/parallel-consensus"),
        "ABABABA"
    );
    assert_eq!(shape_of("4+1/Worst/cap400/approx"), "ABAB");
    // … and the plain cases: nobody, and everybody alike.
    assert_eq!(shape_of("4+1/Silent/cap2/consensus"), "----");
    assert_eq!(shape_of("7+2/Worst/cap400/consensus"), "AAAAAAA");
    for family in [
        "consensus",
        "reliable-broadcast",
        "rotor",
        "approx",
        "parallel-consensus",
        "total-order",
        "phase-king",
        "srikanth-toueg",
        "dolev-approx",
        "known-rotor",
    ] {
        let rendered = shapes
            .iter()
            .filter(|(label, shape)| {
                label.rsplit('/').next() == Some(family) && shape.contains('A')
            })
            .count();
        assert!(rendered >= 6, "{family}: {rendered} runs with an output");
    }
}

#[test]
fn a_joiner_reports_its_own_shorter_chain_after_the_founders() {
    let joiner = NodeId::new(999_999);
    let mut plan = TotalOrderPlan::rounds(60);
    for round in 1..=40u64 {
        plan = plan.event(round, (round % 3) as usize, round);
    }
    let harness = Simulation::scenario()
        .correct(4)
        .byzantine(0)
        .seed(13)
        .churn(ChurnSchedule::empty().with(13, ChurnEvent::JoinCorrect(joiner)))
        .total_order(plan);
    let outputs = outputs_node_by_node("total-order with a joiner", harness);
    assert_eq!(shape(&outputs), "AAAAB");
    let (founder, late) = (outputs[0].as_ref().unwrap(), outputs[4].as_ref().unwrap());
    assert!(
        late.len() > 2 && late.len() < founder.len(),
        "the joiner holds a chain, and a shorter one: {} against {} bytes",
        late.len(),
        founder.len()
    );
}

// ---------------------------------------------------------------------------
// The count: how many times an output is formatted.
// ---------------------------------------------------------------------------

thread_local! {
    /// `Debug` calls on [`Counted`] made by this thread (each test has its own).
    static RENDERINGS: Cell<usize> = const { Cell::new(0) };
}

/// An output that counts how often it is formatted.
#[derive(Clone, PartialEq, Eq)]
struct Counted(u64);

impl fmt::Debug for Counted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        RENDERINGS.set(RENDERINGS.get() + 1);
        write!(f, "Counted({})", self.0)
    }
}

/// A node that was born with its output (`None` for 0) and never speaks.
struct Fixed {
    id: NodeId,
    value: u64,
}

impl Protocol for Fixed {
    type Payload = u64;
    type Output = Counted;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(&mut self, _ctx: &RoundContext, _inbox: Inbox<'_, u64>) -> Vec<Outgoing<u64>> {
        Vec::new()
    }

    fn output(&self) -> Option<Counted> {
        (self.value != 0).then_some(Counted(self.value))
    }
}

/// One [`Fixed`] node per value, in order.
struct FixedFactory(Vec<u64>);

impl ProtocolFactory for FixedFactory {
    type Node = Fixed;

    fn protocol_name(&self) -> String {
        "fixed".into()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<Fixed> {
        ctx.correct_ids
            .iter()
            .zip(&self.0)
            .map(|(&id, &value)| Fixed { id, value })
            .collect()
    }

    fn adversary(&self, _kind: AdversaryKind, _ctx: &BuildContext) -> NamedAdversary<u64> {
        NamedAdversary::new("silent", uba_simnet::adversary::SilentAdversary)
    }

    fn attack_behavior(
        &self,
        _behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<u64> {
        self.adversary(AdversaryKind::Silent, ctx)
    }

    fn stop_condition(&self) -> StopCondition {
        StopCondition::FixedRounds(1)
    }

    fn record(&self, _ctx: &BuildContext, _nodes: &[Fixed], _report: &mut RunReport) {}
}

/// The `Debug` calls one report of these sixteen outputs makes, after checking
/// the report against the values.
fn renderings(values: [u64; 16]) -> usize {
    let mut harness = Simulation::scenario()
        .correct(values.len())
        .byzantine(0)
        .seed(16)
        .build(FixedFactory(values.to_vec()));
    harness.step_round().expect("nobody sends");
    let before = RENDERINGS.get();
    let report = harness.report_now();
    let made = RENDERINGS.get() - before;
    let expected: Vec<Option<String>> = values
        .iter()
        .map(|&value| (value != 0).then(|| format!("Counted({value})")))
        .collect();
    let reported: Vec<Option<String>> = report.nodes.iter().map(|n| n.output.clone()).collect();
    assert_eq!(reported, expected);
    made
}

#[test]
fn an_output_is_rendered_once_per_run_of_equal_neighbours() {
    // Sixteen agreeing nodes: one rendering, not sixteen.
    assert_eq!(renderings([7; 16]), 1);
    // k runs of equal neighbours: k renderings.
    assert_eq!(
        renderings([1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4]),
        4
    );
    // Only the last rendering is remembered: A, B, A renders A twice.
    assert_eq!(
        renderings([1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]),
        16
    );
    assert_eq!(
        renderings([5, 5, 5, 5, 5, 9, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5]),
        3
    );
    // A node without an output renders nothing and does not end its neighbours' run.
    assert_eq!(renderings([0; 16]), 0);
    assert_eq!(
        renderings([0, 4, 4, 0, 0, 4, 4, 4, 0, 4, 0, 0, 0, 0, 0, 4]),
        1
    );
}
