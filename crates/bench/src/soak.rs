//! Long-horizon soak runs under continuous crash/restart churn
//! (`BENCH_soak_smoke.json`).
//!
//! The crash-recovery subsystem (`uba_simnet::wal`, `docs/RECOVERY.md`) adds a
//! per-node write-ahead log and a restart path to both engines; the failure
//! mode such machinery invites is not a wrong answer on round 3 but a slow one
//! on round 3000 — logs that never compact, inboxes that accumulate envelopes
//! for nodes that keep leaving, restart bookkeeping that grows per cycle. The
//! soak driver runs the dynamic total-ordering workload in one shape,
//! [`SoakConfig::smoke`] (`n = 64` for 300 rounds — the horizon, not the
//! population, is the soak axis) while a rotating set of correct nodes
//! crashes and restarts every few rounds — the restart policy itself rotates
//! through [`SOAK_POLICIES`]:
//! clean replays and all three write-ahead-log fault shapes (torn tail, lost
//! unsynced suffix, corrupt record), with [`SoakConfig::sync_every`] raised
//! above 1 so the faults have an unsynced suffix to bite. Each run samples two
//! things per round:
//!
//! * a **peak-RSS proxy** — live [`Shared`](uba_simnet::Shared) payload
//!   allocations ([`uba_simnet::shared::live_allocations`]) plus the envelopes
//!   held by the engine's inboxes (a broadcast's one entry on the common list
//!   counts once) plus the records held across the write-ahead logs. A leak shows up here long before wall-clock memory measurements
//!   would notice it, and deterministically;
//! * the **per-round step latency**, reported as p50/p95/p99 percentiles,
//!   plus a **slope gate**: the median step latency over the last third of
//!   the run must stay within [`LATENCY_SLOPE_MARGIN`] of the middle third's
//!   median (warm-up excluded). Percentiles drifting against the *committed*
//!   artifact are machine-dependent and only warned about; the slope compares
//!   the run against *itself*, so a run that gets slower round over round —
//!   the time-shaped twin of a memory leak — hard-fails.
//!
//! The counts — rounds, restarts, the proxy's floors and peak and the three
//! verdicts ([`SoakRow::DETERMINISTIC`]) — are exact functions of the seed,
//! so [`count_drift`] holds them to the committed artifact.
//!
//! The proxy is a sawtooth by construction — logs fill and compact, inboxes
//! fill and drain — so the leak gate discards the first third of the run as
//! warm-up (logs filling from empty look exactly like a leak) and compares
//! the **floor** (minimum) of the proxy over the middle third against the
//! floor over the last third: compaction cycles leave the floor flat, while a
//! true leak raises it round over round. A run whose floor keeps climbing
//! fails ([`SoakRow::leak`]); the sawtooth's peak is recorded alongside as
//! the headline RSS proxy.
//! Every run also replays the recovery oracles over its final report
//! ([`SoakRow::oracles_passed`]) — a soak that survives on memory but
//! equivocates across a restart is still a failure. Both engines produce a row
//! (`engine: "sync"` / `"event"`), and the whole file fails if any row does.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run -p uba-bench --release --bin experiments -- soak
//! ```

use std::time::Instant;

use serde::{Deserialize, Serialize};

use uba_checker::attach_verdicts;
use uba_core::sim::{TotalOrderFactory, TotalOrderPlan};
use uba_simnet::stats::quantile_sorted;
use uba_simnet::{
    ChurnEvent, ChurnSchedule, EngineKind, Harness, IdSpace, NodeId, RestartPolicy, Simulation,
    WalConfig, WalFault,
};

use crate::artifact;
use crate::table::Table;

/// Base seed of the soak grid (distinct from the baseline and scaling seeds so
/// the three files never share identifier layouts).
pub const SEED: u64 = 0x50AC_5EED;

/// Minimum samples each leak-gate window must hold for the floor comparison to
/// mean anything. Below this the gate cannot distinguish a leak from noise —
/// `third = live.len() / 3` can even reach 0, making both window floors vacuous
/// — so the row is reported as [`SoakRow::insufficient_samples`] and fails
/// instead of silently passing.
pub const MIN_WINDOW_SAMPLES: usize = 8;

/// The restart-policy rotation of the soak churn: every completed
/// crash/restart cycle uses the next policy, so a long run exercises clean
/// replays and every write-ahead-log fault shape continuously. Faults only
/// damage the unsynced suffix (≤ [`SoakConfig::sync_every`] rounds of
/// records), far inside the ~5n/2-round finality window, so replay from the
/// durable prefix always converges — the recovery oracles hold the soak to
/// that.
pub const SOAK_POLICIES: [RestartPolicy; 4] = [
    RestartPolicy::Clean,
    RestartPolicy::Fault(WalFault::TornTail),
    RestartPolicy::Fault(WalFault::LoseUnsynced),
    RestartPolicy::Fault(WalFault::Corrupt),
];

/// The latency slope gate's margin: the last third's median step latency may
/// exceed the middle third's by at most this factor plus
/// [`LATENCY_SLOPE_FLOOR_US`] (medians are robust, but short windows on a
/// noisy box still jitter). A run that degrades beyond this is getting slower
/// as it ages — the failure mode the soak exists to catch.
pub const LATENCY_SLOPE_MARGIN: f64 = 2.0;

/// Absolute slack added on top of [`LATENCY_SLOPE_MARGIN`], microseconds.
pub const LATENCY_SLOPE_FLOOR_US: f64 = 500.0;

/// The shape of one soak run: how many nodes, for how long, and how hard the
/// crash/restart churn hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SoakConfig {
    /// Correct-node population (the soak runs without Byzantine identities —
    /// the adversary under test is time, not equivocation).
    pub nodes: usize,
    /// Rounds to execute.
    pub rounds: u64,
    /// A crash is scheduled every `crash_period` rounds.
    pub crash_period: u64,
    /// Rounds a victim stays down before its clean restart.
    pub downtime: u64,
    /// Distinct victims the crash schedule rotates over.
    pub victims: usize,
    /// Scenario seed.
    pub seed: u64,
    /// Write-ahead-log records per node before the round commit folds the log
    /// into a fresh snapshot base ([`WalConfig::compact_after`]). A restart
    /// replays everything since the last compaction, so this — not the
    /// horizon — must bound replay cost: the library default of 1024 records
    /// never triggered inside a 300-round smoke, which made every restart
    /// replay the whole run so far and pushed p50 step latency near a second.
    pub compact_after: usize,
    /// Fsync cadence ([`WalConfig::sync_every`]): round commits between
    /// syncs. The library default of 1 makes every [`WalFault`] a no-op
    /// (faults only damage the unsynced suffix), so the soak raises it — the
    /// rotating faulty restarts then each lose up to `sync_every - 1` rounds
    /// of records and must still replay to oracle-accepted state.
    pub sync_every: u64,
}

impl SoakConfig {
    /// The soak shape, run by CI and committed as `BENCH_soak_smoke.json`:
    /// 300 rounds at `n = 64`.
    pub fn smoke() -> Self {
        SoakConfig {
            nodes: 64,
            rounds: 300,
            crash_period: 5,
            downtime: 2,
            victims: 8,
            seed: SEED,
            compact_after: 64,
            sync_every: 2,
        }
    }

    /// A tiny shape for the integration tests (a second, not minutes). Long
    /// enough that the write-ahead logs complete at least one fill/compact
    /// cycle per third of the run — the floor-based leak gate needs a full
    /// sawtooth period inside each window it compares.
    pub fn tiny() -> Self {
        SoakConfig {
            nodes: 8,
            rounds: 400,
            crash_period: 5,
            downtime: 2,
            victims: 3,
            seed: SEED,
            compact_after: 64,
            sync_every: 2,
        }
    }
}

/// One soak run: one engine, one population, one long churn-ridden execution.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SoakRow {
    /// Which engine executed the run (`"sync"` or `"event"`).
    pub engine: String,
    /// Correct-node population.
    pub nodes: usize,
    /// Rounds executed.
    pub rounds: u64,
    /// Crash/restart cycles completed (restart records written).
    pub restarts: usize,
    /// Median per-round step latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile per-round step latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile per-round step latency, microseconds.
    pub p99_us: f64,
    /// Floor (minimum) of the memory proxy over the middle third of the run
    /// (the first third is warm-up and not compared).
    pub live_mid_third: f64,
    /// Floor (minimum) of the memory proxy over the last third of the run.
    pub live_last_third: f64,
    /// Peak of the memory proxy over the whole run — the RSS-proxy headline.
    pub live_peak: f64,
    /// `live_last_third / live_mid_third` — the monotone-growth signal.
    pub growth: f64,
    /// Whether the leak gate tripped (the last third's floor meaningfully
    /// above the first's).
    pub leak: bool,
    /// Whether the run was too short for the leak gate to judge: each
    /// comparison window held fewer than [`MIN_WINDOW_SAMPLES`] samples, so
    /// the floors are noise (or, below 3 samples, literally empty). Such a
    /// row fails — "too short to check" must not read as "no leak".
    pub insufficient_samples: bool,
    /// Whether the recovery oracles accepted the final report.
    pub oracles_passed: bool,
    /// Median step latency over the middle third of the run, microseconds
    /// (the slope gate's baseline window; the first third is warm-up).
    pub lat_mid_third_us: f64,
    /// Median step latency over the last third of the run, microseconds.
    pub lat_last_third_us: f64,
    /// `lat_last_third_us / lat_mid_third_us` — the slowdown signal.
    pub lat_slope: f64,
    /// Whether the slope gate tripped: the run got meaningfully slower as it
    /// aged (last third beyond [`LATENCY_SLOPE_MARGIN`] × the middle third
    /// plus [`LATENCY_SLOPE_FLOOR_US`]).
    pub lat_drift: bool,
    /// Wall-clock of the whole run, milliseconds (documentation, not a gate).
    pub wall_ms: f64,
}

impl SoakRow {
    /// The columns that identify a row.
    pub const KEY: &'static [&'static str] = &["engine", "nodes"];
    /// The columns the drift gate compares: exact functions of the seed. The
    /// memory proxy is counted by the single-threaded `experiments` binary,
    /// so its floors and peak reproduce there; latencies are wall clock.
    pub const DETERMINISTIC: &'static [&'static str] = &[
        "rounds",
        "restarts",
        "live_mid_third",
        "live_last_third",
        "live_peak",
        "leak",
        "insufficient_samples",
        "oracles_passed",
    ];

    /// Whether the row passes its gates: enough samples to judge, flat
    /// memory, flat step latency, and clean oracles.
    pub fn passed(&self) -> bool {
        !self.leak && !self.insufficient_samples && !self.lat_drift && self.oracles_passed
    }
}

/// The serialised soak result (`BENCH_soak_smoke.json`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SoakFile {
    /// Seed the runs derive from.
    pub seed: u64,
    /// Always `true`: the file holds the one soak shape, [`SoakConfig::smoke`].
    pub smoke: bool,
    /// One row per engine.
    pub rows: Vec<SoakRow>,
}

impl SoakFile {
    /// Whether every row passes its gates.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(SoakRow::passed)
    }
}

/// The continuous crash/restart schedule of a soak run: every
/// `crash_period` rounds the next victim (rotating over `victims`) crashes,
/// restarting `downtime` rounds later under the next [`SOAK_POLICIES`] entry
/// — clean, torn tail, lost suffix, corrupt record, repeating. Cycles that
/// would not complete inside the round budget are not scheduled — a node left
/// down at the end of the run would turn the leak gate into a population
/// measurement.
pub fn soak_churn(
    victims: &[NodeId],
    rounds: u64,
    crash_period: u64,
    downtime: u64,
) -> ChurnSchedule {
    let mut churn = ChurnSchedule::empty();
    let mut slot = 0usize;
    let mut round = 2u64;
    while round + downtime < rounds && !victims.is_empty() {
        let victim = victims[slot % victims.len()];
        churn = churn.with(round, ChurnEvent::Crash(victim)).with(
            round + downtime,
            ChurnEvent::Restart {
                id: victim,
                policy: SOAK_POLICIES[slot % SOAK_POLICIES.len()],
            },
        );
        slot += 1;
        round += crash_period;
    }
    churn
}

/// The floor of a window: its minimum, or 0 when empty. Sawtooth signals
/// (fill/compact logs, fill/drain inboxes) keep a flat floor; leaks raise it.
fn floor(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Builds the soak workload harness: the dynamic total-ordering protocol under
/// rotating clean/faulty crash/restart churn, with the write-ahead logs
/// syncing every [`SoakConfig::sync_every`] commits (so faults have a suffix
/// to damage) and compacting every [`SoakConfig::compact_after`] records (the
/// replay-cost bound).
pub fn build_soak_harness(
    config: &SoakConfig,
    engine: Option<EngineKind>,
) -> Harness<TotalOrderFactory<u64>> {
    let ids = IdSpace::default().generate(config.nodes, config.seed);
    // Victims rotate over indices 1.. so the event-submitting founder (index 0)
    // is always up when the workload hands it an event.
    let victims: Vec<NodeId> = (1..=config.victims.min(config.nodes.saturating_sub(1)))
        .map(|i| ids[i])
        .collect();
    let churn = soak_churn(
        &victims,
        config.rounds,
        config.crash_period,
        config.downtime,
    );
    // A steady total-ordering workload: founder 0 submits one event every
    // other round, so chains keep growing for the whole horizon.
    let mut plan = TotalOrderPlan::rounds(config.rounds);
    for round in (1..config.rounds).step_by(2) {
        plan = plan.event(round, 0, round);
    }
    let mut scenario = Simulation::scenario()
        .correct(config.nodes)
        .seed(config.seed)
        .max_rounds(config.rounds + 1)
        .churn(churn);
    if let Some(kind) = engine {
        scenario = scenario.engine(kind);
    }
    scenario
        .build(TotalOrderFactory::new(plan))
        .wal_config(WalConfig {
            compact_after: config.compact_after,
            sync_every: config.sync_every,
        })
}

/// Executes one soak run and reduces it to a [`SoakRow`]. `engine: None` is
/// the synchronous engine, `Some(EngineKind::event())` the discrete-event one.
pub fn run_soak(config: &SoakConfig, engine: Option<EngineKind>) -> SoakRow {
    let mut harness = build_soak_harness(config, engine.clone());

    let mut latencies_us: Vec<f64> = Vec::with_capacity(config.rounds as usize);
    let mut live: Vec<f64> = Vec::with_capacity(config.rounds as usize);
    let started = Instant::now();
    while !harness.stopped() && harness.rounds_executed() < config.rounds {
        let step = Instant::now();
        harness.step_round().expect("soak schedules are admissible");
        latencies_us.push(step.elapsed().as_secs_f64() * 1e6);
        let proxy = uba_simnet::shared::live_allocations() as usize
            + harness.queued_envelopes()
            + harness.wal_entries();
        live.push(proxy as f64);
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut report = harness.report_now();
    attach_verdicts(&mut report);
    let restarts = harness.recovery_restarts().len();

    let third = live.len() / 3;
    let insufficient_samples = third < MIN_WINDOW_SAMPLES;
    let live_mid_third = floor(&live[third..2 * third]);
    let live_last_third = floor(&live[live.len() - third..]);
    let live_peak = live.iter().copied().fold(0.0, f64::max);
    let growth = if live_mid_third > 0.0 {
        live_last_third / live_mid_third
    } else {
        1.0
    };
    // The allocation counter is process-global, so tolerate a small absolute
    // drift (concurrent test threads allocate payloads too) on top of the
    // relative margin; a real leak accumulates every round and dwarfs both.
    // Windows below MIN_WINDOW_SAMPLES cannot support the comparison at all;
    // they fail via `insufficient_samples` rather than judging leakiness.
    let leak = !insufficient_samples && live_last_third > live_mid_third * 1.25 + 256.0;

    // The latency slope gate over the same thirds the leak gate uses: medians,
    // not floors, because step latency is noise around a level, not a
    // sawtooth. A run that ages into slowness fails against itself — no
    // committed artifact or machine baseline involved.
    let window_median = |window: &[f64]| -> f64 {
        let mut sorted = window.to_vec();
        sorted.sort_by(f64::total_cmp);
        quantile_sorted(&sorted, 0.50)
    };
    let lat_mid_third_us = window_median(&latencies_us[third..2 * third]);
    let lat_last_third_us = window_median(&latencies_us[latencies_us.len() - third..]);
    let lat_slope = if lat_mid_third_us > 0.0 {
        lat_last_third_us / lat_mid_third_us
    } else {
        1.0
    };
    let lat_drift = !insufficient_samples
        && lat_last_third_us > lat_mid_third_us * LATENCY_SLOPE_MARGIN + LATENCY_SLOPE_FLOOR_US;

    let mut sorted = latencies_us.clone();
    sorted.sort_by(f64::total_cmp);
    SoakRow {
        engine: match engine {
            None => "sync".to_string(),
            Some(_) => "event".to_string(),
        },
        nodes: config.nodes,
        rounds: harness.rounds_executed(),
        restarts,
        p50_us: quantile_sorted(&sorted, 0.50),
        p95_us: quantile_sorted(&sorted, 0.95),
        p99_us: quantile_sorted(&sorted, 0.99),
        live_mid_third,
        live_last_third,
        live_peak,
        growth,
        leak,
        insufficient_samples,
        oracles_passed: report.verdicts_passed(),
        lat_mid_third_us,
        lat_last_third_us,
        lat_slope,
        lat_drift,
        wall_ms,
    }
}

/// Compares a fresh soak run's step-latency percentiles against the committed
/// artifact, returning one human-readable line per regression. The margin is
/// deliberately generous — committed percentiles × `factor`, plus `floor_us`
/// to absorb scheduler noise on short rows — because these are wall-clock
/// numbers: CI records the drift lines without hard-failing on them (the same
/// policy `scaling-smoke` applies to wall-clock columns), while a developer
/// chasing a latency regression runs the gate strictly.
pub fn latency_drift(
    current: &SoakFile,
    committed: &SoakFile,
    factor: f64,
    floor_us: f64,
) -> Vec<String> {
    let mut drift = Vec::new();
    for row in &current.rows {
        let Some(base) = committed
            .rows
            .iter()
            .find(|base| base.engine == row.engine && base.nodes == row.nodes)
        else {
            drift.push(format!(
                "latency gate: no committed row for engine {} at n = {}",
                row.engine, row.nodes
            ));
            continue;
        };
        for (name, fresh, recorded) in [
            ("p95", row.p95_us, base.p95_us),
            ("p99", row.p99_us, base.p99_us),
        ] {
            let bound = recorded * factor + floor_us;
            if fresh > bound {
                drift.push(format!(
                    "latency gate: {} n={} {name} = {fresh:.1}µs exceeds committed \
                     {recorded:.1}µs × {factor} + {floor_us:.0}µs = {bound:.1}µs",
                    row.engine, row.nodes
                ));
            }
        }
    }
    drift
}

/// Compares the deterministic columns of `current` against the `committed`
/// rows; a committed engine row the run did not produce is drift too.
/// Returns human-readable drift lines; empty means no drift. Wall-clock
/// columns are never compared.
pub fn count_drift(current: &SoakFile, committed: &SoakFile) -> Vec<String> {
    artifact::drift(
        "soak",
        &current.rows,
        &committed.rows,
        SoakRow::KEY,
        SoakRow::DETERMINISTIC,
    )
}

/// Runs the soak shape on each engine and assembles the file.
pub fn soak_file(config: &SoakConfig, engines: &[Option<EngineKind>]) -> SoakFile {
    SoakFile {
        seed: config.seed,
        smoke: true,
        rows: engines
            .iter()
            .map(|engine| run_soak(config, engine.clone()))
            .collect(),
    }
}

/// Renders the file as the table the `experiments` binary prints.
pub fn soak_table(file: &SoakFile) -> Table {
    let mut table = Table::new(
        format!(
            "soak: long-horizon crash/restart churn (seed {:#x})",
            file.seed
        ),
        &[
            "engine",
            "n",
            "rounds",
            "restarts",
            "p50 µs",
            "p95 µs",
            "p99 µs",
            "floor 2/3",
            "floor 3/3",
            "peak",
            "growth",
            "lat slope",
            "verdict",
        ],
    );
    for row in &file.rows {
        table.push_row(vec![
            row.engine.clone(),
            row.nodes.to_string(),
            row.rounds.to_string(),
            row.restarts.to_string(),
            format!("{:.1}", row.p50_us),
            format!("{:.1}", row.p95_us),
            format!("{:.1}", row.p99_us),
            format!("{:.1}", row.live_mid_third),
            format!("{:.1}", row.live_last_third),
            format!("{:.1}", row.live_peak),
            format!("{:.3}", row.growth),
            format!("{:.3}", row.lat_slope),
            if row.passed() {
                "ok".to_string()
            } else if row.insufficient_samples {
                "TOO SHORT".to_string()
            } else if row.leak {
                "LEAK".to_string()
            } else if row.lat_drift {
                "SLOW".to_string()
            } else {
                "ORACLE FAIL".to_string()
            },
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_churn_schedule_rotates_victims_and_completes_every_cycle() {
        let victims: Vec<NodeId> = (1..=3).map(NodeId::new).collect();
        let churn = soak_churn(&victims, 30, 5, 2);
        assert!(churn.has_crash_events());
        // Every crash has its restart inside the horizon.
        let crashes = churn
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, ChurnEvent::Crash(_)))
            .count();
        let restarts = churn
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, ChurnEvent::Restart { .. }))
            .count();
        assert_eq!(crashes, restarts);
        assert!(churn.horizon() < 30);
        // All three victims get their turn.
        assert_eq!(churn.crash_cycle_ids().len(), 3);
        // The restart policy rotates: a long enough schedule exercises clean
        // replays and faulty ones.
        let policies: Vec<RestartPolicy> = churn
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                ChurnEvent::Restart { policy, .. } => Some(*policy),
                _ => None,
            })
            .collect();
        assert!(policies.contains(&RestartPolicy::Clean));
        assert!(policies
            .iter()
            .any(|p| matches!(p, RestartPolicy::Fault(_))));
        assert_eq!(&policies[..4], &SOAK_POLICIES);
        assert_eq!(
            churn.first_resiliency_violation(8, 0),
            None,
            "rotating single crashes keep n > 3f trivially at f = 0"
        );
    }

    #[test]
    fn a_tiny_soak_run_is_flat_and_clean_on_both_engines() {
        let config = SoakConfig::tiny();
        for engine in [None, Some(EngineKind::event())] {
            let row = run_soak(&config, engine);
            assert_eq!(row.rounds, config.rounds);
            assert!(
                row.restarts > SOAK_POLICIES.len(),
                "churn cycles through every restart policy at least once: {row:?}"
            );
            assert!(row.oracles_passed, "recovery oracles clean: {row:?}");
            assert!(!row.leak, "no monotone growth: {row:?}");
            assert!(!row.lat_drift, "no round-over-round slowdown: {row:?}");
            assert!(row.lat_slope > 0.0, "slope computed: {row:?}");
            assert!(row.p50_us > 0.0 && row.p99_us >= row.p50_us);
        }
    }

    #[test]
    fn the_slope_gate_fails_runs_that_age_into_slowness() {
        let config = SoakConfig::tiny();
        let mut file = soak_file(&config, &[None]);
        assert!(file.passed());
        let row = &mut file.rows[0];
        row.lat_last_third_us =
            row.lat_mid_third_us * LATENCY_SLOPE_MARGIN + LATENCY_SLOPE_FLOOR_US + 1.0;
        row.lat_drift = true;
        assert!(!file.passed(), "a slowing run must fail the file");
        assert!(format!("{}", soak_table(&file)).contains("SLOW"));
    }

    #[test]
    fn soak_files_serialise_and_gate_on_their_rows() {
        let config = SoakConfig::tiny();
        let file = soak_file(&config, &[None]);
        assert_eq!(file.rows.len(), 1);
        assert_eq!(file.rows[0].engine, "sync");
        assert!(file.passed());
        let json = serde_json::to_string_pretty(&file).unwrap();
        let back: SoakFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, file);
        let mut failing = file.clone();
        failing.rows[0].leak = true;
        assert!(!failing.passed());
        // The table renders a row per engine without panicking.
        assert!(format!("{}", soak_table(&file)).contains("sync"));
    }

    #[test]
    fn runs_too_short_for_the_leak_gate_fail_explicitly() {
        // 12 samples → windows of 4 < MIN_WINDOW_SAMPLES: the old gate would
        // have reported growth 1.0 / leak false and silently passed.
        let config = SoakConfig {
            rounds: 12,
            ..SoakConfig::tiny()
        };
        let row = run_soak(&config, None);
        assert!(row.insufficient_samples, "windows of 4 are not judgeable");
        assert!(!row.leak, "no leak verdict without samples");
        assert!(
            !row.passed(),
            "too-short rows must fail, not pass vacuously"
        );
        assert!(format!("{}", soak_table(&soak_file(&config, &[None]))).contains("TOO SHORT"));
    }

    #[test]
    fn restart_replay_cost_is_bounded_by_the_compaction_period_not_the_horizon() {
        // Doubling the horizon must not grow the worst-case restart replay:
        // with `compact_after` well below the horizon, every restart replays at
        // most one compaction period of records, however long the run has been
        // going. (With the library default of 1024 records this was linear —
        // every restart replayed the whole run so far.)
        let max_replay = |rounds: u64| -> u64 {
            let config = SoakConfig {
                rounds,
                ..SoakConfig::tiny()
            };
            let mut harness = build_soak_harness(&config, None);
            while !harness.stopped() && harness.rounds_executed() < config.rounds {
                harness.step_round().expect("soak schedules are admissible");
            }
            harness
                .recovery_restarts()
                .iter()
                .map(|restart| restart.replayed_rounds)
                .max()
                .expect("the churn schedule restarts nodes")
        };
        let short = max_replay(150);
        let long = max_replay(300);
        assert!(short > 0, "restarts replay at least the round in flight");
        assert!(
            long <= short,
            "replay cost grew with the horizon: max {long} rounds at 300 vs \
             {short} at 150 — compaction is not bounding the log"
        );
    }

    #[test]
    fn the_latency_gate_flags_only_percentiles_beyond_the_margin() {
        let config = SoakConfig::tiny();
        let committed = soak_file(&config, &[None]);
        let mut current = committed.clone();
        assert_eq!(
            latency_drift(&current, &committed, 3.0, 2_000.0),
            Vec::<String>::new(),
            "identical files are inside any margin"
        );
        current.rows[0].p99_us = committed.rows[0].p99_us * 3.0 + 2_001.0;
        let drift = latency_drift(&current, &committed, 3.0, 2_000.0);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("p99"), "{drift:?}");
        current.rows[0].engine = "exotic".to_string();
        let missing = latency_drift(&current, &committed, 3.0, 2_000.0);
        assert!(missing[0].contains("no committed row"), "{missing:?}");
    }
}
