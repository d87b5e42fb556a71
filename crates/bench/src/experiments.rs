//! The E1–E10 experiment suite: one experiment per theorem-level claim of the
//! paper (E11–E14 live in [`crate::experiments_ext`]).
//!
//! Every experiment is a pure, deterministic function of a seed and returns a
//! [`Table`], which the `experiments` binary prints. All experiments drive their
//! executions through the unified [`Simulation`] builder, so an id-only protocol and
//! its known-`(n, f)` baseline run the *same* scenario description head-to-head.

use uba_baselines::{DolevApproxFactory, KnownRotorFactory, PhaseKingFactory, StBroadcastFactory};
use uba_core::impossibility::{disagreement_rate, run_partition_experiment};
use uba_core::quorum::max_faults;
use uba_core::sim::{
    AdversaryKind, ParallelConsensusFactory, RunReport, ScenarioBuilder, ScenarioExt, Simulation,
    TotalOrderFactory, TotalOrderPlan,
};
use uba_simnet::{ChurnEvent, ChurnSchedule, DelaySpec, IdSpace, NodeId};

use crate::table::Table;

const SEED: u64 = 2021;

fn scenario(correct: usize, byzantine: usize, seed: u64) -> ScenarioBuilder {
    Simulation::scenario()
        .correct(correct)
        .byzantine(byzantine)
        .seed(seed)
}

/// The same scenario shape pointed at a known-`(n, f)` baseline: consecutive
/// identifiers (the knowledge the classic algorithms assume), seed 0 as the historic
/// experiment tables used.
fn baseline_scenario(correct: usize, byzantine: usize) -> ScenarioBuilder {
    Simulation::scenario()
        .correct(correct)
        .byzantine(byzantine)
        .ids(IdSpace::Consecutive)
        .seed(0)
}

/// Asserts a run met its stop condition. `Harness::run` reports cap exhaustion as a
/// *status* rather than an error, so experiments that publish absolute numbers must
/// check it explicitly — otherwise a livelocked run would be tabulated as a result.
fn completed(report: RunReport, what: &str) -> RunReport {
    assert!(
        report.completed(),
        "{what} hit its round cap ({:?}) instead of finishing",
        report.status
    );
    report
}

fn accepted_preview(report: &RunReport) -> String {
    let section = report.broadcast.as_ref().expect("broadcast section");
    let values: Vec<u64> = section
        .accepted
        .first()
        .map(|set| set.values.iter().map(|&(message, _)| message).collect())
        .unwrap_or_default();
    format!("{values:?}")
}

/// E1 — reliable broadcast: correctness, unforgeability and relay across system sizes
/// and source behaviours (Theorem 1).
pub fn e1_reliable_broadcast() -> Table {
    let mut table = Table::new(
        "E1: reliable broadcast properties (n > 3f, f = max)",
        &[
            "n",
            "f",
            "source",
            "consistent",
            "accepted",
            "rounds",
            "messages",
        ],
    );
    for &n in &[4usize, 7, 13, 25, 49] {
        let f = max_faults(n);
        for equivocate in [false, true] {
            let builder =
                scenario(n - f, f, SEED + n as u64).adversary(AdversaryKind::AnnounceThenSilent);
            let report = if equivocate {
                builder.broadcast_equivocating(1, 2).rounds(12).run()
            } else {
                builder.broadcast(42).rounds(12).run()
            }
            .expect("run completes");
            let section = report.broadcast.as_ref().expect("broadcast section");
            table.push_row(vec![
                n.to_string(),
                f.to_string(),
                if equivocate {
                    "equivocating".into()
                } else {
                    "correct".into()
                },
                section.consistent.to_string(),
                accepted_preview(&report),
                report.rounds.to_string(),
                report.messages.correct.to_string(),
            ]);
        }
    }
    table
}

/// E2 — the resiliency boundary: the guarantees hold for `n > 3f` and are allowed to
/// fail beyond it.
pub fn e2_resiliency_boundary() -> Table {
    let mut table = Table::new(
        "E2: resiliency boundary (consensus under split-vote adversary, n = 10)",
        &[
            "n",
            "f",
            "n > 3f",
            "terminated",
            "agreement",
            "validity",
            "rounds",
        ],
    );
    let n = 10usize;
    for f in 0..=4usize {
        let correct = n - f;
        let inputs: Vec<u64> = (0..correct).map(|i| (i % 2) as u64).collect();
        let report = scenario(correct, f, SEED + f as u64)
            .max_rounds(300)
            .adversary(AdversaryKind::SplitVote)
            .consensus(&inputs)
            .run()
            .expect("runs never violate engine rules");
        if report.completed() {
            let section = report.consensus.as_ref().expect("consensus section");
            table.push_row(vec![
                n.to_string(),
                f.to_string(),
                (n > 3 * f).to_string(),
                "true".into(),
                section.agreement.to_string(),
                section.validity.to_string(),
                report.rounds.to_string(),
            ]);
        } else {
            table.push_row(vec![
                n.to_string(),
                f.to_string(),
                (n > 3 * f).to_string(),
                "false (stuck)".into(),
                "-".into(),
                "-".into(),
                ">300".into(),
            ]);
        }
    }
    table
}

/// E3 — rotor-coordinator: termination in `O(n)` rounds, existence of a good round,
/// and cost relative to the trivial known-`f` rotor (Theorem 2).
pub fn e3_rotor() -> Table {
    let mut table = Table::new(
        "E3: rotor-coordinator rounds vs n (announce-then-silent adversary, f = max)",
        &[
            "n",
            "f",
            "rounds",
            "coordinators",
            "good round",
            "messages",
            "known-rotor rounds",
        ],
    );
    for &n in &[4usize, 8, 16, 32, 64] {
        let f = max_faults(n);
        let report = scenario(n - f, f, SEED + n as u64)
            .adversary(AdversaryKind::AnnounceThenSilent)
            .rotor()
            .run()
            .expect("terminates");
        let report = completed(report, "E3 id-only rotor");
        let section = report.rotor.as_ref().expect("rotor section");

        // Baseline: rotating through f + 1 known, consecutive identifiers.
        let baseline = baseline_scenario(n - f, f)
            .max_rounds(3 * n as u64 + 10)
            .build(KnownRotorFactory)
            .run()
            .expect("baseline terminates");
        let baseline = completed(baseline, "E3 known-rotor baseline");

        table.push_row(vec![
            n.to_string(),
            f.to_string(),
            report.rounds.to_string(),
            section.selected.to_string(),
            section.good_round.to_string(),
            report.messages.correct.to_string(),
            baseline.rounds.to_string(),
        ]);
    }
    table
}

/// E4 — consensus: round complexity grows linearly in `f`, agreement and validity hold
/// under every adversary (Theorem 3).
pub fn e4_consensus() -> Table {
    let mut table = Table::new(
        "E4: consensus rounds vs f (n = 3f + 1, split inputs)",
        &[
            "f",
            "n",
            "adversary",
            "rounds",
            "messages",
            "agreement",
            "validity",
        ],
    );
    for f in 1..=5usize {
        let n = 3 * f + 1;
        let correct = n - f;
        let inputs: Vec<u64> = (0..correct).map(|i| (i % 2) as u64).collect();
        for kind in [AdversaryKind::AnnounceThenSilent, AdversaryKind::SplitVote] {
            let report = scenario(correct, f, SEED + (f * 7) as u64)
                .adversary(kind)
                .consensus(&inputs)
                .run()
                .expect("terminates");
            let report = completed(report, "E4 consensus");
            let section = report.consensus.as_ref().expect("consensus section");
            table.push_row(vec![
                f.to_string(),
                n.to_string(),
                format!("{kind:?}"),
                report.rounds.to_string(),
                report.messages.correct.to_string(),
                section.agreement.to_string(),
                section.validity.to_string(),
            ]);
        }
    }
    table
}

/// E5 — the cost of not knowing `n` and `f`: id-only consensus vs the classic
/// phase-king on identical workloads (Section XII's "does not change much" claim).
pub fn e5_consensus_vs_phase_king() -> Table {
    let mut table = Table::new(
        "E5: id-only consensus vs phase-king (identical workloads, silent-after-announce faults)",
        &[
            "f",
            "n",
            "id-only rounds",
            "id-only messages",
            "phase-king rounds",
            "phase-king messages",
        ],
    );
    for f in 1..=4usize {
        let n = 3 * f + 1;
        let correct = n - f;
        let inputs: Vec<u64> = (0..correct).map(|i| (i % 2) as u64).collect();
        let ours = scenario(correct, f, SEED + f as u64)
            .adversary(AdversaryKind::AnnounceThenSilent)
            .consensus(&inputs)
            .run()
            .expect("terminates");
        let ours = completed(ours, "E5 id-only consensus");

        let baseline = baseline_scenario(correct, f)
            .max_rounds(300)
            .build(PhaseKingFactory::new(inputs.clone()))
            .run()
            .expect("baseline terminates");
        let baseline = completed(baseline, "E5 phase-king baseline");

        table.push_row(vec![
            f.to_string(),
            n.to_string(),
            ours.rounds.to_string(),
            ours.messages.correct.to_string(),
            baseline.rounds.to_string(),
            baseline.messages.correct.to_string(),
        ]);
    }
    table
}

/// E6 — approximate agreement: outputs stay in range and the range halves per
/// iteration; the contraction matches the known-`f` Dolev et al. baseline (Theorem 4).
pub fn e6_approx() -> Table {
    let mut table = Table::new(
        "E6: approximate agreement contraction (n = 16, f = 5, Byzantine outliers)",
        &["algorithm", "iteration", "correct-value spread", "in range"],
    );
    let correct = 11usize;
    let f = 5usize;
    let inputs: Vec<f64> = (0..correct).map(|i| i as f64 * 10.0).collect();

    // Single-shot: ours vs Dolev baseline.
    let ours = scenario(correct, f, SEED)
        .adversary(AdversaryKind::Worst)
        .approx(&inputs)
        .run()
        .expect("completes");
    let ours = completed(ours, "E6 id-only approx");
    let section = ours.approx.as_ref().expect("approx section");
    table.push_row(vec![
        "id-only (Alg. 4)".into(),
        "1".into(),
        format!("{:.2}", section.output_range.1 - section.output_range.0),
        section.outputs_in_range.to_string(),
    ]);

    let baseline = baseline_scenario(correct, f)
        .max_rounds(4)
        .build(DolevApproxFactory::new(inputs.clone()))
        .run()
        .expect("baseline completes");
    let baseline = completed(baseline, "E6 Dolev baseline");
    let baseline_section = baseline.approx.as_ref().expect("approx section");
    table.push_row(vec![
        "Dolev et al. (knows f)".into(),
        "1".into(),
        format!(
            "{:.2}",
            baseline_section.output_range.1 - baseline_section.output_range.0
        ),
        baseline_section.outputs_in_range.to_string(),
    ]);

    // Iterated convergence of the id-only algorithm.
    let spreads = completed(
        scenario(correct, f, SEED)
            .iterated_approx(&inputs, 6)
            .run()
            .expect("completes"),
        "E6 iterated approx",
    )
    .spreads
    .expect("spread section")
    .per_iteration;
    for (i, spread) in spreads.iter().enumerate() {
        table.push_row(vec![
            "id-only iterated".into(),
            (i + 1).to_string(),
            format!("{spread:.3}"),
            "true".into(),
        ]);
    }
    table
}

/// E7 — synchrony is necessary: disagreement probability by timing model
/// (Lemmas 14–15).
pub fn e7_impossibility() -> Table {
    let mut table = Table::new(
        "E7: partition construction — disagreement rate by timing model (5 trials each)",
        &[
            "|A|",
            "|B|",
            "model",
            "disagreement rate",
            "example ticks",
            "undelivered msgs",
        ],
    );
    for &(a, b) in &[(2usize, 2usize), (4, 4), (8, 8), (4, 12)] {
        for model in [
            DelaySpec::Synchronous,
            DelaySpec::Partition {
                first: a,
                cross: Some(1_000),
            },
            DelaySpec::Partition {
                first: a,
                cross: None,
            },
        ] {
            let rate = disagreement_rate(a, b, &model, 5, SEED);
            let example = run_partition_experiment(a, b, model.clone(), SEED).expect("completes");
            table.push_row(vec![
                a.to_string(),
                b.to_string(),
                format!("{model:?}"),
                format!("{rate:.2}"),
                example.ticks.to_string(),
                example.undelivered.to_string(),
            ]);
        }
    }
    table
}

/// E8 — parallel consensus: validity, agreement and termination for growing numbers of
/// concurrent instances, with Byzantine ghost-pair injection (Theorem 5).
pub fn e8_parallel_consensus() -> Table {
    let mut table = Table::new(
        "E8: parallel consensus (n = 9, f = 2, ghost-pair injection)",
        &[
            "instances",
            "rounds",
            "pairs output",
            "ghost pairs output",
            "agreement",
        ],
    );
    for &k in &[1usize, 4, 16, 64] {
        let pairs: Vec<(u64, u64)> = (0..k as u64).map(|i| (i, i * 10)).collect();
        let report = scenario(7, 2, SEED + k as u64)
            .max_rounds(400)
            .adversary(AdversaryKind::Worst)
            .build(
                ParallelConsensusFactory::new(pairs)
                    .with_ghost_pairs(vec![(1_000_001, 13u64), (1_000_002, 17u64)]),
            )
            .run()
            .expect("terminates");
        let report = completed(report, "E8 parallel consensus");
        let section = report.parallel.as_ref().expect("parallel section");
        let first = section.decisions.first().expect("all nodes decided");
        let ghost_output = first
            .pairs
            .iter()
            .filter(|(id, _)| *id >= 1_000_000)
            .count();
        table.push_row(vec![
            k.to_string(),
            report.rounds.to_string(),
            first.pairs.len().to_string(),
            ghost_output.to_string(),
            section.agreement.to_string(),
        ]);
    }
    table
}

/// E9 — dynamic total ordering: chain-prefix and chain-growth under churn, and the
/// observed finality lag vs the paper's `5|S|/2 + 2` bound (Theorem 6).
pub fn e9_total_order() -> Table {
    let mut table = Table::new(
        "E9: dynamic total ordering (events every round, join at round 12, leave at round 24)",
        &[
            "founders",
            "rounds run",
            "chain length",
            "chain-prefix",
            "joiner in S",
            "finality lag",
        ],
    );
    for &founders in &[4usize, 6, 8] {
        let joiner = NodeId::new(999_999);
        let total_rounds = 70u64;
        // One event per round, submitted by rotating founders; one founder leaves
        // mid-run, and a fresh participant joins through the engine's churn plan.
        let mut plan = TotalOrderPlan::rounds(total_rounds);
        for round in 0..total_rounds {
            plan = plan.event(round + 1, (round as usize) % (founders - 1), round);
        }
        let plan = plan.leave(25, founders - 1);
        let churn = ChurnSchedule::empty().with(13, ChurnEvent::JoinCorrect(joiner));
        let mut harness = scenario(founders, 0, SEED + founders as u64)
            .max_rounds(total_rounds)
            .churn(churn)
            .build(TotalOrderFactory::new(plan));
        let report = harness.run().expect("run completes");
        let section = report.chain.as_ref().expect("chain section");
        let reference = section
            .lengths
            .iter()
            .map(|&(_, len)| len)
            .max()
            .unwrap_or(0);
        let node0 = &harness.nodes()[0];
        let joiner_known = node0.members().contains(&joiner);
        let lag = node0.round() - node0.finalized_upto();
        table.push_row(vec![
            founders.to_string(),
            total_rounds.to_string(),
            reference.to_string(),
            section.prefix_ok.to_string(),
            joiner_known.to_string(),
            lag.to_string(),
        ]);
    }
    table
}

/// E10 — message complexity of reliable broadcast: id-only Algorithm 1 vs the classic
/// Srikanth–Toueg broadcast that knows `f` (Section XII).
pub fn e10_message_complexity() -> Table {
    let mut table = Table::new(
        "E10: reliable broadcast message complexity (correct source, messages per node per round)",
        &[
            "n",
            "f",
            "id-only messages",
            "Srikanth-Toueg messages",
            "ratio",
        ],
    );
    for &n in &[4usize, 7, 13, 25, 49] {
        let f = max_faults(n);
        let ours = scenario(n - f, f, SEED + n as u64)
            .adversary(AdversaryKind::AnnounceThenSilent)
            .broadcast(7)
            .rounds(8)
            .run()
            .expect("completes");
        let ours = completed(ours, "E10 id-only broadcast");

        let baseline = baseline_scenario(n - f, f)
            .build(StBroadcastFactory::new(7))
            .rounds(8)
            .run()
            .expect("completes");
        let baseline = completed(baseline, "E10 Srikanth-Toueg baseline");

        let st_messages = baseline.messages.correct;
        let ratio = ours.messages.correct as f64 / st_messages.max(1) as f64;
        table.push_row(vec![
            n.to_string(),
            f.to_string(),
            ours.messages.correct.to_string(),
            st_messages.to_string(),
            format!("{ratio:.2}"),
        ]);
    }
    table
}

/// All experiments, in order, as `(short name, function)` pairs.
#[allow(clippy::type_complexity)]
pub fn all_experiments() -> Vec<(&'static str, fn() -> Table)> {
    vec![
        ("e1", e1_reliable_broadcast as fn() -> Table),
        ("e2", e2_resiliency_boundary),
        ("e3", e3_rotor),
        ("e4", e4_consensus),
        ("e5", e5_consensus_vs_phase_king),
        ("e6", e6_approx),
        ("e7", e7_impossibility),
        ("e8", e8_parallel_consensus),
        ("e9", e9_total_order),
        ("e10", e10_message_complexity),
        ("e11", crate::experiments_ext::e11_dynamic_approx_churn),
        ("e12", crate::experiments_ext::e12_resilience_matrix),
        ("e13", crate::experiments_ext::e13_adaptive_attackers),
        ("e14", crate::experiments_ext::e14_parallel_scaling),
    ]
}

/// Looks up one experiment by its short name (`"e1"` … `"e14"`).
pub fn experiment_by_name(name: &str) -> Option<fn() -> Table> {
    all_experiments()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_fourteen_experiments() {
        let all = all_experiments();
        assert_eq!(all.len(), 14);
        assert!(experiment_by_name("e1").is_some());
        assert!(experiment_by_name("e10").is_some());
        assert!(experiment_by_name("e14").is_some());
        assert!(experiment_by_name("e15").is_none());
    }

    #[test]
    fn quick_experiments_produce_rows() {
        // Only the fast experiments are exercised here; the full suite runs via the
        // `experiments` binary and the benches.
        let e7 = e7_impossibility();
        assert_eq!(e7.rows.len(), 12);
        let e2 = e2_resiliency_boundary();
        assert_eq!(e2.rows.len(), 5);
    }

    #[test]
    fn e7_renders_its_recorded_rows() {
        // A recording, not a derivation: a change to how a partition delay
        // resolves, to the consensus rules or to the run budget moves a cell.
        let table = e7_impossibility();
        let rows: Vec<Vec<&str>> = table
            .rows
            .iter()
            .map(|row| row.iter().map(String::as_str).collect())
            .collect();
        let semi = |first| format!("Partition {{ first: {first}, cross: Some(1000) }}");
        let asynchronous = |first| format!("Partition {{ first: {first}, cross: None }}");
        let (semi2, async2) = (semi(2), asynchronous(2));
        let (semi4, async4) = (semi(4), asynchronous(4));
        let (semi8, async8) = (semi(8), asynchronous(8));
        assert_eq!(
            rows,
            [
                ["2", "2", "Synchronous", "0.00", "12", "0"],
                ["2", "2", &semi2, "1.00", "7", "68"],
                ["2", "2", &async2, "1.00", "7", "0"],
                ["4", "4", "Synchronous", "0.00", "12", "0"],
                ["4", "4", &semi4, "1.00", "7", "392"],
                ["4", "4", &async4, "1.00", "7", "0"],
                ["8", "8", "Synchronous", "0.00", "12", "0"],
                ["8", "8", &semi8, "1.00", "7", "2576"],
                ["8", "8", &async8, "1.00", "7", "0"],
                ["4", "12", "Synchronous", "0.00", "7", "0"],
                ["4", "12", &semi4, "1.00", "7", "1936"],
                ["4", "12", &async4, "1.00", "7", "0"],
            ]
        );
    }
}
