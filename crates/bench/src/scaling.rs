//! Wall-clock scaling sweep (`BENCH_scaling.json`).
//!
//! `BENCH_baseline.json` records *what* the protocols do (rounds, messages,
//! verdicts) on a small grid; this module records *how fast the engine executes
//! them* as the system grows. [`scaling_file`] runs a broadcast-heavy grid —
//! id-only consensus and the phase-king baseline up to `n = 1024`, reliable
//! broadcast at the largest sizes — through the unified `Simulation` driver and
//! measures the wall-clock time of every run, including the engine's per-phase
//! split. Phases are *named*, not a fixed schema: the synchronous engine reports
//! `step` / `produce` / `adversary` / `deliver`, the discrete-event engine adds
//! `schedule` and `dispatch` slots (see `docs/ENGINE.md` for how to read them;
//! the [`PhaseSplit::deliver_share`] column is the zero-copy headline). At
//! `n = 128` the recorded grid re-runs the consensus scenarios through the
//! discrete-event engine under zero-jitter timing, asserting identical counts
//! and recording the scheduler's overhead as `engine: "event"` rows. Regenerate
//! with:
//!
//! ```text
//! cargo run -p uba-bench --release --bin experiments -- scaling
//! ```
//!
//! Two consumers read the result differently:
//!
//! * **Perf tracking** reads the `wall_ms` column and the [`SpeedupRow`]s, which
//!   compare the current engine against the recorded pre-rewrite reference
//!   timings (see [`PRE_CHANGE_REFERENCE_MS`]). Wall-clock is machine-dependent,
//!   so these numbers are documentation, not a gate.
//! * **CI** runs `experiments -- scaling --quick`, which executes the small-`n`
//!   prefix of the grid plus the full `BENCH_baseline.json` grid and **fails on
//!   any drift in rounds, message or delivery counts** — the deterministic part
//!   of the result. This is the regression guard that keeps engine rewrites
//!   behaviour-preserving. The unit test
//!   `the_event_engine_reproduces_the_sync_grid_counts` runs the prefix through
//!   the discrete-event engine and fails unless its rows reproduce the sync
//!   rows' [`ScalingRow::DETERMINISTIC`] columns.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use uba_baselines::PhaseKingFactory;
use uba_core::sim::{AdversaryKind, Harness, ProtocolFactory, RunReport, ScenarioExt, Simulation};
use uba_simnet::{EngineKind, IdSpace, PhaseTimings};

/// Base seed of the scaling grid (distinct from the baseline grid's seed so the
/// two files never share identifier layouts).
pub const SEED: u64 = 0x5CA1E;

/// System sizes of the full grid. `--quick` stops at 32 to keep CI fast.
pub const FULL_SIZES: &[usize] = &[8, 16, 32, 64, 128, 256, 512, 1024];

/// System sizes exercised by `--quick`.
pub const QUICK_SIZES: &[usize] = &[8, 16, 32];

/// Wall-clock (milliseconds) of the grid's scenarios measured **before** the
/// broadcast-aware engine rewrite (eager per-recipient expansion, `Vec::contains`
/// membership checks and O(k²) inbox dedup), on the machine that recorded
/// `BENCH_scaling.json`. Scenarios are keyed as `protocol/adversary/n`. These
/// reference points are what the ≥5× speedup claim in the scaling file is
/// measured against; scenarios missing here produce no [`SpeedupRow`].
pub const PRE_CHANGE_REFERENCE_MS: &[(&str, f64)] = &[
    ("consensus/silent/n32", 7.45),
    ("consensus/split-vote/n32", 13.40),
    ("consensus/silent/n64", 147.18),
    ("consensus/split-vote/n64", 345.78),
    ("consensus/silent/n128", 5756.39),
    ("consensus/split-vote/n128", 11262.76),
    ("phase-king/silent/n128", 88.60),
    ("reliable-broadcast/announce-then-silent/n128", 4.48),
];

/// One named engine phase and its wall-clock share of a run, in milliseconds
/// (machine-dependent, like `wall_ms`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseMs {
    /// Phase name as reported by the engine (`step`, `produce`, `adversary`,
    /// `deliver` for the synchronous engine; the event engine adds `schedule`
    /// and `dispatch`).
    pub phase: String,
    /// Wall-clock spent in this phase across the whole run.
    pub ms: f64,
}

/// Wall-clock split of one run across the engine's named round phases. The
/// schema is open-ended on purpose: the split mirrors whatever phase names the
/// engine recorded, so the event engine's `schedule` / `dispatch` slots appear
/// here instead of silently reporting as zero — see `docs/ENGINE.md` for how to
/// read the names.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseSplit {
    /// Per-phase wall clock, in the order the engine first entered each phase.
    pub phases: Vec<PhaseMs>,
}

impl PhaseSplit {
    fn from_timings(timings: PhaseTimings) -> Self {
        PhaseSplit {
            phases: timings
                .phases()
                .iter()
                .map(|&(phase, ns)| PhaseMs {
                    phase: phase.to_string(),
                    ms: ns as f64 / 1_000_000.0,
                })
                .collect(),
        }
    }

    /// Wall-clock of the named phase, `0.0` when the engine never entered it.
    pub fn ms(&self, phase: &str) -> f64 {
        self.phases
            .iter()
            .find(|p| p.phase == phase)
            .map_or(0.0, |p| p.ms)
    }

    /// Total engine-phase time (excludes driver overhead around `run_round`).
    pub fn total_ms(&self) -> f64 {
        self.phases.iter().map(|p| p.ms).sum()
    }

    /// The delivery work's share of the engine-phase total (0.0 when nothing
    /// was measured): the sync engine's `deliver` phase plus the event engine's
    /// `dispatch` phase, which plays the same role there. The zero-copy
    /// headline: at large `n` this used to approach 1.0 and now stays well
    /// below the produce share. (For the dominant-phase *name*, use
    /// [`PhaseTimings::dominant`] on the live harness — this split only exists
    /// so the JSON carries the recorded numbers.)
    pub fn deliver_share(&self) -> f64 {
        let total = self.total_ms();
        if total > 0.0 {
            (self.ms("deliver") + self.ms("dispatch")) / total
        } else {
            0.0
        }
    }
}

/// One measured run of the scaling grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScalingRow {
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
    /// Correct-node point-to-point messages.
    pub messages: u64,
    /// Deliveries to correct nodes after deduplication.
    pub deliveries: u64,
    /// Whether the run completed before its round cap.
    pub ok: bool,
    /// Which engine executed the run: `"sync"` for the lock-step scheduler,
    /// `"event"` for the discrete-event scheduler under zero-jitter timing
    /// (same counts by construction; the wall-clock difference is the
    /// scheduler's overhead).
    pub engine: String,
    /// Wall-clock time of the run in milliseconds (machine-dependent).
    pub wall_ms: f64,
    /// Engine-phase wall-clock split (machine-dependent).
    pub phases: PhaseSplit,
    /// `phases.deliver_share()`, precomputed so the JSON carries the headline.
    pub deliver_share: f64,
}

impl ScalingRow {
    /// The columns that name a scenario, whichever engine ran it.
    pub const KEY: &'static [&'static str] = &["protocol", "adversary", "n"];
    /// The columns every engine must reproduce for the same scenario.
    pub const DETERMINISTIC: &'static [&'static str] = &["rounds", "messages", "deliveries", "ok"];
}

/// A measured-vs-reference comparison for one scenario.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpeedupRow {
    /// The `protocol/adversary/n` scenario key.
    pub scenario: String,
    /// Pre-rewrite wall-clock in milliseconds (from [`PRE_CHANGE_REFERENCE_MS`]).
    pub pre_change_ms: f64,
    /// Wall-clock of this run in milliseconds.
    pub measured_ms: f64,
    /// `pre_change_ms / measured_ms`.
    pub speedup: f64,
}

/// The serialised scaling file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScalingFile {
    /// Base seed of the grid.
    pub seed: u64,
    /// Whether this file holds the quick (CI) prefix or the full grid.
    pub quick: bool,
    /// One row per measured run.
    pub rows: Vec<ScalingRow>,
    /// Speedup against the recorded pre-rewrite engine, where a reference exists.
    pub speedups: Vec<SpeedupRow>,
}

fn timed_run<F: ProtocolFactory>(mut harness: Harness<F>) -> (RunReport, f64, PhaseSplit) {
    let started = Instant::now();
    let report = harness.run().expect("scaling run completes");
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    (
        report,
        wall_ms,
        PhaseSplit::from_timings(harness.phase_timings()),
    )
}

fn row(report: &RunReport, wall_ms: f64, phases: PhaseSplit) -> ScalingRow {
    ScalingRow {
        protocol: report.protocol.clone(),
        adversary: report.adversary.clone(),
        n: report.scenario.n(),
        f: report.scenario.byzantine,
        rounds: report.rounds,
        messages: report.messages.correct,
        deliveries: report.messages.deliveries,
        ok: report.completed(),
        engine: match report.scenario.engine {
            None | Some(EngineKind::Sync) => "sync".to_string(),
            Some(EngineKind::Event(_)) => "event".to_string(),
        },
        wall_ms,
        deliver_share: phases.deliver_share(),
        phases,
    }
}

/// Runs the scaling grid (`quick` restricts it to the small-`n` prefix) and
/// returns one measured row per scenario. `engine = None` runs the recorded
/// sync-engine grid (with the event overhead re-runs at `n = 128` on the full
/// grid); `engine = Some(..)` forces every run through that engine instead,
/// which is how the unit tests check the event engine against the sync grid.
pub fn scaling_rows(quick: bool, engine: Option<EngineKind>) -> Vec<ScalingRow> {
    let sizes = if quick { QUICK_SIZES } else { FULL_SIZES };
    let mut rows = Vec::new();

    for &n in sizes {
        let f = (n - 1) / 3;
        let correct = n - f;
        let inputs: Vec<u64> = (0..correct).map(|i| (i % 2) as u64).collect();

        // Id-only consensus: every phase is a sequence of all-to-all broadcasts,
        // which is the traffic pattern the zero-copy message plane targets.
        // Split-vote is the broadcast-heavy headline (the adversary keeps the
        // phases coming). On the recorded grid, at n = 128 the same scenario is
        // re-run through the discrete-event scheduler under zero-jitter timing;
        // the counts must not move (equality is asserted), only the wall clock
        // may — the event rows record the scheduler's overhead.
        for kind in [AdversaryKind::Silent, AdversaryKind::SplitVote] {
            let build = |engine: Option<EngineKind>| {
                let mut scenario = Simulation::scenario()
                    .correct(correct)
                    .byzantine(f)
                    .seed(SEED + n as u64)
                    .max_rounds(5_000)
                    .adversary(kind);
                if let Some(engine) = engine {
                    scenario = scenario.engine(engine);
                }
                scenario.consensus(&inputs)
            };
            let (report, wall_ms, phases) = timed_run(build(engine.clone()));
            rows.push(row(&report, wall_ms, phases));
            if engine.is_none() && n == 128 {
                let (event_report, event_ms, event_phases) =
                    timed_run(build(Some(EngineKind::event())));
                assert_eq!(
                    (event_report.rounds, &event_report.messages),
                    (report.rounds, &report.messages),
                    "the zero-jitter event engine must not change behaviour"
                );
                rows.push(row(&event_report, event_ms, event_phases));
            }
        }

        // Phase-king head-to-head on the same sizes (known `(n, f)`, silent
        // faults — the only behaviour its wire format admits).
        let mut scenario = Simulation::scenario()
            .correct(correct)
            .byzantine(f)
            .ids(IdSpace::Consecutive)
            .seed(0)
            .max_rounds(5_000);
        if let Some(engine) = engine.clone() {
            scenario = scenario.engine(engine);
        }
        let (report, wall_ms, phases) =
            timed_run(scenario.build(PhaseKingFactory::new(inputs.clone())));
        rows.push(row(&report, wall_ms, phases));
    }

    // Reliable broadcast at the largest sizes: a fixed round budget, so the cost
    // is pure per-round engine work (echo broadcasts every round).
    let broadcast_sizes: &[usize] = if quick { &[32] } else { &[64, 128, 256] };
    for &n in broadcast_sizes {
        let f = (n - 1) / 3;
        let mut scenario = Simulation::scenario()
            .correct(n - f)
            .byzantine(f)
            .seed(SEED + n as u64)
            .adversary(AdversaryKind::AnnounceThenSilent);
        if let Some(engine) = engine.clone() {
            scenario = scenario.engine(engine);
        }
        let (report, wall_ms, phases) = timed_run(scenario.broadcast(42).rounds(12));
        rows.push(row(&report, wall_ms, phases));
    }

    rows
}

/// Assembles the scaling file: the rows of [`scaling_rows`] plus speedups of
/// the sync rows against the recorded pre-rewrite reference.
pub fn scaling_file(quick: bool) -> ScalingFile {
    let rows = scaling_rows(quick, None);
    let speedups = rows
        .iter()
        // Event rows measure the discrete-event scheduler's overhead, not the
        // engine-rewrite speedup — only the sync rows are comparable to the
        // recorded pre-rewrite timings.
        .filter(|r| r.engine == "sync")
        .filter_map(|r| {
            let scenario = format!("{}/{}/n{}", r.protocol, r.adversary, r.n);
            PRE_CHANGE_REFERENCE_MS
                .iter()
                .find(|(reference, _)| *reference == scenario)
                .map(|&(_, pre_change_ms)| SpeedupRow {
                    scenario,
                    pre_change_ms,
                    measured_ms: r.wall_ms,
                    speedup: pre_change_ms / r.wall_ms,
                })
        })
        .collect();
    ScalingFile {
        seed: SEED,
        quick,
        rows,
        speedups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact;

    #[test]
    fn quick_grid_is_deterministic_up_to_wall_clock() {
        let a = scaling_rows(true, None);
        let b = scaling_rows(true, None);
        let drift = artifact::drift("quick", &a, &b, ScalingRow::KEY, ScalingRow::DETERMINISTIC);
        assert!(drift.is_empty(), "{drift:?}");
        assert!(a.iter().all(|r| r.ok), "every quick scenario completes");
    }

    #[test]
    fn phase_split_totals_and_shares_follow_the_named_slots() {
        let split = PhaseSplit {
            phases: vec![
                PhaseMs {
                    phase: "produce".into(),
                    ms: 6.0,
                },
                PhaseMs {
                    phase: "deliver".into(),
                    ms: 3.0,
                },
                PhaseMs {
                    phase: "dispatch".into(),
                    ms: 1.0,
                },
            ],
        };
        assert_eq!(split.ms("deliver"), 3.0);
        assert_eq!(split.ms("schedule"), 0.0, "unknown phases read as zero");
        assert_eq!(split.total_ms(), 10.0);
        // deliver + dispatch over the total: the share stays meaningful for
        // event-engine rows where delivery work lives in `dispatch`.
        assert_eq!(split.deliver_share(), 0.4);
        assert_eq!(PhaseSplit::default().deliver_share(), 0.0);
    }

    #[test]
    fn the_event_engine_reproduces_the_sync_grid_counts() {
        // The scaling grid run end-to-end through the discrete-event scheduler
        // under zero-jitter timing must be count-identical to the sync grid —
        // the engine-level equivalence (tests/event_equivalence.rs) surfacing
        // at the benchmark layer, through the same drift the CLI gate runs.
        let sync = scaling_rows(true, None);
        let event = scaling_rows(true, Some(EngineKind::event()));
        let drift = artifact::drift(
            "event",
            &event,
            &sync,
            ScalingRow::KEY,
            ScalingRow::DETERMINISTIC,
        );
        assert!(drift.is_empty(), "{drift:?}");
    }

    #[test]
    fn scaling_file_round_trips_through_serde() {
        let file = scaling_file(true);
        let json = serde_json::to_string(&file).unwrap();
        let back: ScalingFile = serde_json::from_str(&json).unwrap();
        // Wall-clock survives serialisation; equality is over the whole struct.
        assert_eq!(back, file);
    }
}
