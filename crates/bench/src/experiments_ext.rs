//! The extended experiment suite E11–E14: dynamic-network behaviour, Monte-Carlo
//! resilience, adaptive-attacker ablations and the parallel sweep harness itself.
//!
//! E1–E10 (in [`crate::experiments`]) validate the paper's theorems one by one; the
//! experiments here cover the claims that are quantified over *behaviour* rather than
//! over a single execution:
//!
//! * **E11** — Section XI's observation that approximate agreement keeps converging
//!   under churn, with the convergence/expansion balance set by the joiners' values;
//! * **E12** — the resiliency claim as a Monte-Carlo matrix: agreement/validity rates
//!   over many seeds for every scripted adversary, inside and outside `n > 3f`;
//! * **E13** — an ablation of adversary adaptivity: scripted (oblivious) strategies
//!   versus the rushing, traffic-aware attackers, both from `uba_core::adversaries`;
//! * **E14** — the scaling of the parallel Monte-Carlo harness itself (wall-clock
//!   speedup versus worker count), which is infrastructure validation rather than a
//!   paper claim.

use std::time::Instant;

use uba_checker::check_run_report;
use uba_core::adversaries::{
    AnnounceToSubset, EquivocatingCoordinator, MinorityBooster, SplitVote,
};
use uba_core::consensus::ConsensusMessage;
use uba_core::sim::{AdversaryKind, ConsensusFactory, IteratedApproxFactory, Simulation};
use uba_simnet::adversary::SilentAdversary;
use uba_simnet::{Adversary, ChurnEvent, ChurnSchedule};

use crate::montecarlo::{ResilienceSweep, SweepConfig};
use crate::table::Table;
use crate::workload::{binary_inputs, rolling_churn_plan, uniform_reals};

const SEED: u64 = 2021;

/// E11 — approximate agreement in a dynamic network: final spread after 24 rounds for
/// increasingly aggressive churn (one join+leave every `period` rounds, joiner values
/// drawn from the original input range).
pub fn e11_dynamic_approx_churn() -> Table {
    let mut table = Table::new(
        "E11: dynamic approximate agreement under churn (n0 = 10, 24 churn rounds + 6 quiet rounds)",
        &[
            "churn period",
            "joins",
            "initial spread",
            "peak spread after a join",
            "spread 2 rounds after last join",
            "final spread",
        ],
    );
    let churn_rounds = 24u64;
    let total_rounds = churn_rounds + 6;
    for &period in &[0u64, 12, 6, 3] {
        let scenario = Simulation::scenario().correct(10).seed(SEED);
        let ids = scenario.context().correct_ids;
        let (schedule, joiners) = if period == 0 {
            (ChurnSchedule::empty(), Vec::new())
        } else {
            rolling_churn_plan(&ids, churn_rounds, period, 0.0, 100.0, SEED + period)
        };
        let join_rounds: Vec<u64> = schedule
            .events()
            .iter()
            .filter(|(_, event)| matches!(event, ChurnEvent::JoinCorrect(_)))
            .map(|&(round, _)| round)
            .collect();
        // Algorithm 4 with no iteration bound: every round is one more iteration
        // over whatever membership the schedule has made.
        let factory =
            IteratedApproxFactory::new(uniform_reals(10, 0.0, 100.0, SEED + period), u64::MAX)
                .joiners(joiners);
        let mut harness = scenario.churn(schedule).build(factory).rounds(total_rounds);
        let mut spreads = Vec::new();
        while !harness.stopped() {
            harness.step_round().expect("dynamic run completes");
            let values = harness.nodes().iter().map(|node| node.value().to_f64());
            let (lo, hi) = values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
            spreads.push(hi - lo);
        }
        // Spread recorded right after a join round is the range expansion the joiner
        // caused; two rounds later one full exchange has absorbed it.
        let peak_after_join = join_rounds
            .iter()
            .map(|&round| spreads[round as usize - 1])
            .fold(0.0f64, f64::max);
        let after_last_join = join_rounds
            .iter()
            .max()
            .map(|&round| spreads[(round + 2) as usize - 1])
            .unwrap_or(0.0);
        table.push_row(vec![
            if period == 0 {
                "none".into()
            } else {
                period.to_string()
            },
            join_rounds.len().to_string(),
            format!("{:.2}", spreads[0]),
            format!("{:.3}", peak_after_join),
            format!("{:.4}", after_last_join),
            format!("{:.4}", spreads[spreads.len() - 1]),
        ]);
    }
    table
}

/// E12 — Monte-Carlo resilience matrix: agreement and validity rates of consensus
/// over repeated seeds, for every scripted adversary, at the resiliency boundary
/// `n = 3f + 1`.
pub fn e12_resilience_matrix() -> Table {
    let mut table = Table::new(
        "E12: consensus agreement/validity rates over 16 seeds (n = 3f + 1)",
        &[
            "f",
            "adversary",
            "agreement",
            "validity",
            "rounds (mean ± ci)",
        ],
    );
    for &f in &[1usize, 2, 3] {
        for (name, adversary) in [
            ("silent", AdversaryKind::Silent),
            ("announce-then-silent", AdversaryKind::AnnounceThenSilent),
            ("partial-announce", AdversaryKind::PartialAnnounce),
            ("split-vote", AdversaryKind::SplitVote),
        ] {
            let sweep = ResilienceSweep {
                correct: 2 * f + 1,
                byzantine: f,
                adversary,
                config: SweepConfig::new(16, SEED + f as u64).with_workers(4),
            };
            let outcome = sweep.run();
            table.push_row(vec![
                f.to_string(),
                name.into(),
                outcome.agreement.display(),
                outcome.validity.display(),
                outcome.rounds.display(1),
            ]);
        }
    }
    table
}

/// Drives one consensus execution under an arbitrary adversary and verifies it with
/// the `uba-checker` oracle; returns `(rounds, messages, decided value)`.
///
/// This is the workhorse behind E13 and the `ablation_adversary` bench: it goes
/// through [`ScenarioBuilder::build_with_adversary`](uba_core::sim::ScenarioBuilder)
/// rather than a named [`AdversaryKind`], which is what lets the ablation pit the
/// scripted strategies against the adaptive attackers on identical workloads.
pub fn consensus_under<A>(
    correct: usize,
    byzantine: usize,
    seed: u64,
    adversary: A,
) -> (u64, u64, u64)
where
    A: Adversary<ConsensusMessage<u64>> + 'static,
{
    let inputs = binary_inputs(correct, 0.5, seed);
    let report = Simulation::scenario()
        .correct(correct)
        .byzantine(byzantine)
        .seed(seed)
        .max_rounds(60 * (correct + byzantine) as u64 + 100)
        .build_with_adversary(ConsensusFactory::new(inputs), "ablation", adversary)
        .run()
        .expect("no engine error");
    assert!(
        report.completed(),
        "consensus terminates under every ablation adversary"
    );
    check_run_report(&report).assert_passed("consensus under ablation adversary");
    let section = report.consensus.as_ref().expect("consensus section");
    let decided = section.decisions.first().expect("checked above").value;
    (report.rounds, report.messages.correct, decided)
}

/// E13 — adversary-adaptivity ablation: termination round and message cost of
/// consensus under oblivious (scripted) versus rushing (traffic-aware) attackers.
/// Agreement and validity are asserted by the `uba-checker` oracle inside every cell.
pub fn e13_adaptive_attackers() -> Table {
    let mut table = Table::new(
        "E13: consensus under oblivious vs adaptive attackers (agreement checked)",
        &["f", "attacker", "adaptive", "rounds", "messages"],
    );
    for &f in &[2usize, 3] {
        let correct = 2 * f + 1;
        let seed = SEED + 31 * f as u64;
        let cells: Vec<(&str, bool, (u64, u64, u64))> = vec![
            (
                "silent",
                false,
                consensus_under(correct, f, seed, SilentAdversary),
            ),
            (
                "announce-then-silent",
                false,
                consensus_under(correct, f, seed, AnnounceToSubset::everyone()),
            ),
            (
                "partial-announce",
                false,
                consensus_under(correct, f, seed, AnnounceToSubset::every_other()),
            ),
            (
                "split-vote",
                false,
                consensus_under(correct, f, seed, SplitVote::new(0u64, 1u64)),
            ),
            (
                "minority-booster",
                true,
                consensus_under(correct, f, seed, MinorityBooster::new(0u64, 1u64)),
            ),
            (
                "equivocating-coordinator",
                true,
                consensus_under(correct, f, seed, EquivocatingCoordinator::new(0u64, 1u64)),
            ),
        ];
        for (name, adaptive, (rounds, messages, _)) in cells {
            table.push_row(vec![
                f.to_string(),
                name.into(),
                adaptive.to_string(),
                rounds.to_string(),
                messages.to_string(),
            ]);
        }
    }
    table
}

/// E14 — scaling of the parallel Monte-Carlo harness: wall-clock time of the same
/// 64-trial sweep on 1, 2, 4 and 8 workers. The aggregated results are asserted to be
/// identical across worker counts (determinism), so the only thing that changes is
/// the wall-clock time.
pub fn e14_parallel_scaling() -> Table {
    let mut table = Table::new(
        "E14: Monte-Carlo sweep wall-clock vs worker count (64 trials, f = 2)",
        &[
            "workers",
            "wall-clock (ms)",
            "speedup vs 1 worker",
            "agreement rate",
        ],
    );
    let mut baseline_ms = None;
    let mut baseline_outcome = None;
    for &workers in &[1usize, 2, 4, 8] {
        let sweep = ResilienceSweep {
            correct: 5,
            byzantine: 2,
            adversary: AdversaryKind::SplitVote,
            config: SweepConfig {
                trials: 64,
                base_seed: SEED,
                workers,
            },
        };
        let started = Instant::now();
        let outcome = sweep.run();
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        if let Some(previous) = &baseline_outcome {
            assert_eq!(
                previous, &outcome,
                "the sweep outcome must not depend on the worker count"
            );
        } else {
            baseline_outcome = Some(outcome.clone());
        }
        let speedup = match baseline_ms {
            None => {
                baseline_ms = Some(elapsed_ms);
                1.0
            }
            Some(base) => base / elapsed_ms,
        };
        table.push_row(vec![
            workers.to_string(),
            format!("{elapsed_ms:.1}"),
            format!("{speedup:.2}x"),
            outcome.agreement.display(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_renders_its_recorded_rows() {
        // A recording, not a derivation: a change to the per-round rule, to
        // how churn is applied or to the joiners' values moves a column.
        let table = e11_dynamic_approx_churn();
        let rows: Vec<Vec<&str>> = table
            .rows
            .iter()
            .map(|row| row.iter().map(String::as_str).collect())
            .collect();
        assert_eq!(
            rows,
            [
                ["none", "0", "81.74", "0.000", "0.0000", "0.0000"],
                ["12", "2", "95.66", "10.601", "0.0000", "0.0000"],
                ["6", "4", "90.83", "28.360", "0.0000", "0.0000"],
                ["3", "8", "76.18", "47.759", "0.0000", "0.0000"],
            ]
        );
    }

    #[test]
    fn e13_checks_and_reports_all_attackers() {
        let table = e13_adaptive_attackers();
        assert_eq!(table.rows.len(), 12, "6 attackers × 2 values of f");
        assert!(table
            .rows
            .iter()
            .all(|row| row[3].parse::<u64>().unwrap() > 0));
    }

    #[test]
    fn consensus_under_helper_reports_positive_costs() {
        let (rounds, messages, decided) = consensus_under(5, 1, 42, SilentAdversary);
        assert!(rounds >= 8, "at least initialisation plus one phase");
        assert!(messages > 0);
        assert!(decided == 0 || decided == 1);
    }
}
