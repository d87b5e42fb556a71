//! Engine-equivalence suite: the broadcast-aware `run_round` rewrite (compact
//! traffic, hashed dedup, O(1) membership, buffer reuse) must be
//! *behaviour-preserving*. Two layers of evidence:
//!
//! 1. re-running the recorded `BENCH_baseline.json` grid — every core protocol
//!    family and the head-to-head baselines under their scripted adversaries —
//!    reproduces the recorded `RunReport`s (rounds, message counts, deliveries,
//!    per-round metrics, node outputs and oracle verdicts) exactly;
//! 2. the two protocols the baseline grid does not cover (total ordering and the
//!    Dolev et al. approximate-agreement baseline) match counts measured on the
//!    pre-rewrite engine (commit 229ef56), pinned here as constants.

use uba_baselines::DolevApproxFactory;
use uba_bench::baseline::baseline_file;
use uba_bench::scaling::load_baseline;
use uba_core::sim::{AdversaryKind, RunReport, ScenarioExt, Simulation, TotalOrderPlan};
use uba_simnet::IdSpace;

#[test]
fn baseline_grid_reports_are_reproduced_exactly() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_baseline.json");
    let recorded = load_baseline(&path).expect("BENCH_baseline.json is readable");
    let current = baseline_file();
    assert_eq!(
        recorded.summary, current.summary,
        "aggregate rows (rounds, messages, bytes, verdict status) must not move"
    );
    assert_eq!(recorded.reports.len(), current.reports.len());
    for (recorded_report, current_report) in recorded.reports.iter().zip(&current.reports) {
        assert_eq!(
            recorded_report,
            current_report,
            "full RunReport drifted for {}/{} (n = {})",
            recorded_report.protocol,
            recorded_report.adversary,
            recorded_report.scenario.n(),
        );
    }
}

/// `(rounds, correct messages, byzantine messages, deliveries)` measured on the
/// pre-rewrite engine for the scenarios below.
///
/// The total-order pin was re-measured when the family's `Worst` adversary gained
/// the split-brain schedule (it used to degrade to silent, hence the old zero
/// Byzantine-message count): same engine, the adversary now actually fights —
/// its `present` spam draws `ack` replies and its equivocated instance votes add
/// both Byzantine traffic and correct-side responses.
const TOTAL_ORDER_PRE_CHANGE: (u64, u64, u64, u64) = (20, 25_308, 1_326, 20_814);
const DOLEV_APPROX_PRE_CHANGE: (u64, u64, u64, u64) = (2, 80, 0, 64);

fn counts(report: &RunReport) -> (u64, u64, u64, u64) {
    (
        report.rounds,
        report.messages.correct,
        report.messages.byzantine,
        report.messages.deliveries,
    )
}

fn total_order_report() -> RunReport {
    let plan = TotalOrderPlan::rounds(20)
        .event(2, 0, 11)
        .event(3, 1, 22)
        .leave(10, 2);
    let mut harness = Simulation::scenario()
        .correct(7)
        .byzantine(2)
        .seed(0xE0)
        .max_rounds(100)
        .adversary(AdversaryKind::Worst)
        .total_order(plan);
    harness.run().expect("total-order run completes")
}

fn dolev_approx_report() -> RunReport {
    let inputs: Vec<f64> = (0..8).map(|i| i as f64 * 3.0).collect();
    let mut harness = Simulation::scenario()
        .correct(8)
        .byzantine(2)
        .ids(IdSpace::Consecutive)
        .seed(0)
        .build(DolevApproxFactory::new(inputs));
    harness.run().expect("dolev-approx run completes")
}

#[test]
fn uncovered_protocols_match_pre_rewrite_counts() {
    let total_order = total_order_report();
    assert!(total_order.completed());
    assert_eq!(counts(&total_order), TOTAL_ORDER_PRE_CHANGE);

    let dolev = dolev_approx_report();
    assert!(dolev.completed());
    assert_eq!(counts(&dolev), DOLEV_APPROX_PRE_CHANGE);
}
