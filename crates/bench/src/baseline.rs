//! Machine-readable performance baseline (`BENCH_baseline.json`).
//!
//! The experiment tables are for humans; the perf trajectory needs numbers a future
//! PR can diff mechanically. [`baseline_reports`] runs a fixed grid of scenarios —
//! every core protocol, the head-to-head baselines, several sizes and adversaries —
//! through the unified `Simulation` driver, attaches the `uba-checker` oracle
//! verdicts, and [`baseline_file`] pairs the full [`RunReport`]s with an aggregate
//! summary for [`crate::artifact::write`] to serialise. Regenerate with:
//!
//! ```text
//! cargo run -p uba-bench --release --bin experiments -- baseline
//! ```
//!
//! The grid is deterministic (fixed seeds), so two runs of the same code produce
//! byte-identical files and any diff is a behaviour or cost change.

use serde::{Deserialize, Serialize};
use serde_json::Value;

use uba_baselines::{KnownRotorFactory, PhaseKingFactory, StBroadcastFactory};
use uba_checker::attach_verdicts;
use uba_core::sim::{AdversaryKind, ParallelConsensusFactory, RunReport, ScenarioExt, Simulation};
use uba_simnet::IdSpace;

/// Base seed of the baseline grid.
pub const SEED: u64 = 0xBA5E;

/// One aggregate line per report, for cheap diffing without parsing whole reports.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BaselineSummaryRow {
    /// Protocol name.
    pub protocol: String,
    /// Adversary name.
    pub adversary: String,
    /// System size `n`.
    pub n: usize,
    /// Byzantine count `f`.
    pub f: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Correct-node messages.
    pub messages: u64,
    /// Estimated correct-node bytes.
    pub bytes_estimate: u64,
    /// Whether the run completed and every oracle verdict passed.
    pub ok: bool,
}

impl BaselineSummaryRow {
    /// The columns that name a row; unique over the grid.
    pub const KEY: &'static [&'static str] = &["protocol", "adversary", "n", "f"];
    /// The columns the drift gate compares. `deliveries` is not a summary
    /// column: [`BaselineFile::gated_rows`] adds it from the row's report.
    pub const DETERMINISTIC: &'static [&'static str] =
        &["rounds", "messages", "bytes_estimate", "ok", "deliveries"];
}

/// The serialised baseline file: full reports plus the aggregate summary.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BaselineFile {
    /// Base seed of the grid.
    pub seed: u64,
    /// One aggregate row per report.
    pub summary: Vec<BaselineSummaryRow>,
    /// The full run reports, verdicts attached.
    pub reports: Vec<RunReport>,
}

impl BaselineFile {
    /// The rows the drift gate compares: each summary row plus its report's
    /// delivery count.
    pub fn gated_rows(&self) -> Vec<Value> {
        self.summary
            .iter()
            .zip(&self.reports)
            .map(|(row, report)| {
                let deliveries = Value::U64(report.messages.deliveries);
                let mut value = serde_json::to_value(row);
                if let Value::Object(fields) = &mut value {
                    fields.push(("deliveries".to_string(), deliveries));
                }
                value
            })
            .collect()
    }
}

fn summarise(report: &RunReport) -> BaselineSummaryRow {
    BaselineSummaryRow {
        protocol: report.protocol.clone(),
        adversary: report.adversary.clone(),
        n: report.scenario.n(),
        f: report.scenario.byzantine,
        rounds: report.rounds,
        messages: report.messages.correct,
        bytes_estimate: report.messages.correct_bytes_estimate,
        ok: report.completed() && report.verdicts_passed(),
    }
}

/// Runs the fixed baseline grid and returns the verdict-annotated reports.
pub fn baseline_reports() -> Vec<RunReport> {
    let mut reports = Vec::new();

    // Consensus across f and adversaries, at the resiliency boundary n = 3f + 1.
    for f in 1..=3usize {
        let correct = 2 * f + 1;
        let inputs: Vec<u64> = (0..correct).map(|i| (i % 2) as u64).collect();
        for kind in [
            AdversaryKind::Silent,
            AdversaryKind::AnnounceThenSilent,
            AdversaryKind::SplitVote,
        ] {
            reports.push(
                Simulation::scenario()
                    .correct(correct)
                    .byzantine(f)
                    .seed(SEED + f as u64)
                    .adversary(kind)
                    .consensus(&inputs)
                    .run()
                    .expect("consensus baseline completes"),
            );
        }
        // Head-to-head: phase-king on the same workload.
        reports.push(
            Simulation::scenario()
                .correct(correct)
                .byzantine(f)
                .ids(IdSpace::Consecutive)
                .seed(0)
                .max_rounds(300)
                .build(PhaseKingFactory::new(inputs))
                .run()
                .expect("phase-king baseline completes"),
        );
    }

    // Reliable broadcast, correct and equivocating sources, plus Srikanth–Toueg.
    for &n in &[7usize, 13, 25] {
        let f = (n - 1) / 3;
        reports.push(
            Simulation::scenario()
                .correct(n - f)
                .byzantine(f)
                .seed(SEED + n as u64)
                .adversary(AdversaryKind::AnnounceThenSilent)
                .broadcast(42)
                .rounds(12)
                .run()
                .expect("broadcast baseline completes"),
        );
        reports.push(
            Simulation::scenario()
                .correct(n - f)
                .byzantine(f)
                .seed(SEED + n as u64)
                .broadcast_equivocating(1, 2)
                .rounds(12)
                .run()
                .expect("equivocating baseline completes"),
        );
        reports.push(
            Simulation::scenario()
                .correct(n - f)
                .byzantine(f)
                .ids(IdSpace::Consecutive)
                .seed(0)
                .build(StBroadcastFactory::new(42))
                .rounds(8)
                .run()
                .expect("srikanth-toueg baseline completes"),
        );
    }

    // Rotor (id-only and known-f) across sizes.
    for &n in &[8usize, 16, 32] {
        let f = (n - 1) / 3;
        reports.push(
            Simulation::scenario()
                .correct(n - f)
                .byzantine(f)
                .seed(SEED + n as u64)
                .adversary(AdversaryKind::AnnounceThenSilent)
                .rotor()
                .run()
                .expect("rotor baseline completes"),
        );
        reports.push(
            Simulation::scenario()
                .correct(n - f)
                .byzantine(f)
                .ids(IdSpace::Consecutive)
                .seed(0)
                .max_rounds(3 * n as u64 + 10)
                .build(KnownRotorFactory)
                .run()
                .expect("known-rotor baseline completes"),
        );
    }

    // Approximate agreement under extreme outliers, single-shot and iterated.
    let inputs: Vec<f64> = (0..11).map(|i| i as f64 * 10.0).collect();
    reports.push(
        Simulation::scenario()
            .correct(11)
            .byzantine(3)
            .seed(SEED)
            .adversary(AdversaryKind::Worst)
            .approx(&inputs)
            .run()
            .expect("approx baseline completes"),
    );
    reports.push(
        Simulation::scenario()
            .correct(11)
            .byzantine(3)
            .seed(SEED)
            .iterated_approx(&inputs, 6)
            .run()
            .expect("iterated approx baseline completes"),
    );

    // Parallel consensus with ghost-pair injection.
    let pairs: Vec<(u64, u64)> = (0..8).map(|i| (i, 100 + i)).collect();
    reports.push(
        Simulation::scenario()
            .correct(7)
            .byzantine(2)
            .seed(SEED + 8)
            .max_rounds(500)
            .adversary(AdversaryKind::Worst)
            .build(
                ParallelConsensusFactory::new(pairs)
                    .with_ghost_pairs(vec![(1_000_001, 13), (1_000_002, 17)]),
            )
            .run()
            .expect("parallel baseline completes"),
    );

    for report in &mut reports {
        attach_verdicts(report);
    }
    reports
}

/// Assembles the full baseline file structure.
pub fn baseline_file() -> BaselineFile {
    let reports = baseline_reports();
    BaselineFile {
        seed: SEED,
        summary: reports.iter().map(summarise).collect(),
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_grid_passes_all_oracles_and_round_trips() {
        let file = baseline_file();
        assert_eq!(file.summary.len(), file.reports.len());
        assert!(
            file.reports.len() >= 20,
            "the grid covers every protocol family"
        );
        for row in &file.summary {
            assert!(
                row.ok,
                "{} under {} failed its oracles",
                row.protocol, row.adversary
            );
        }
        let json = serde_json::to_string(&file).unwrap();
        let back: BaselineFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn baseline_grid_is_deterministic() {
        let a = baseline_file();
        let b = baseline_file();
        assert_eq!(a, b);
    }
}
