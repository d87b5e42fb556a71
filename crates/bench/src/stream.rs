//! Pipelined multi-shot agreement streams: the throughput measurement substrate.
//!
//! A single-shot scenario measures one agreement; a serving deployment runs a
//! *stream* of them. This module feeds both streaming families from one
//! open-loop client-request generator ([`open_loop_requests`]: configurable
//! arrival rate, Zipf-skewed keys) and measures decisions/sec, msgs/sec, batch
//! sizes and end-to-end request latency:
//!
//! * **consensus-stream** — overlapping [`consensus_stream`] instances behind
//!   [`StreamDriver`](uba_core::sim::StreamDriver) mux nodes: instance *k*
//!   batches the requests that arrived in its window, starts once the window
//!   closes, and all nodes vote on the batch's content-addressed digest (the
//!   way replicas vote on a block hash). The checker's `stream/*` oracles
//!   verify per-instance agreement and cross-instance total order.
//! * **total-order-stream** — the paper's total-ordering protocol with
//!   *batched* events: each round's arrivals form one `Vec<u64>` event
//!   submitted by that round's proposer, so each (instance, proposer) pair
//!   broadcasts exactly one `Shared` arena payload no matter how many requests
//!   it carries. The chain-prefix oracle is the cross-instance consistency
//!   check; per-request latency is the distance from arrival to the round the
//!   batch entered the finalised chain.
//!
//! **Conservative extension:** the consensus runner always multiplexes through
//! [`consensus_stream`]'s mux nodes, and a one-instance stream decides in the
//! same round with the same message and delivery counts as single-shot
//! consensus; the total-order runner always uses the plain
//! [`TotalOrderFactory`], so its degenerate run is byte-identical to the
//! single-shot `RunReport` (`tests/stream_equivalence.rs` pins both).
//!
//! Determinism contract (same policy as `scaling`/`soak`): request counts,
//! message counts, decisions and latency percentiles *in rounds* are exact
//! functions of the seed and are gated by [`stream_drift`]; wall-clock rates
//! (`decisions_per_sec`, `msgs_per_sec`, `wall_ms`) are recorded, never gated.
//!
//! **Window sweep** ([`window_sweep_rows`]): the active-window cost model made
//! measurable. Waves of `W` simultaneous instances start every fixed period;
//! decided instances retire, so the per-round mux cost tracks the *active
//! window* `W`, not the total horizon. Each row records the deterministic
//! [`MuxWork`] counters summed across nodes; [`window_sweep_slope`] hard-gates
//! the retirement property — doubling the horizon at fixed `W` must not move
//! per-round cost by more than 10%.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use uba_checker::attach_verdicts;
use uba_core::sim::{
    consensus_stream, Harness, RunReport, Simulation, TotalOrderFactory, TotalOrderPlan,
};
use uba_simnet::rng::derive_seed;
use uba_simnet::shared::payload_digest;
use uba_simnet::stats::quantile_sorted;
use uba_simnet::{EngineKind, Histogram, MuxWork};

use crate::artifact;
use crate::table::Table;
use crate::workload::{open_loop_requests, StreamRequest};

/// Seed every recorded stream artifact derives from.
pub const STREAM_SEED: u64 = 0x57EA_4D00;

/// Rounds a consensus-stream scenario allows past the last instance start.
/// Fault-free unanimous consensus terminates in a handful of rounds; the tail
/// only caps runaway runs.
pub const CONSENSUS_TAIL: u64 = 60;

/// One streaming workload shape.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Correct node count (streams run fault-free; see `uba_simnet::stream`).
    pub nodes: usize,
    /// Number of pipelined consensus instances (consensus-stream only).
    pub instances: usize,
    /// Rounds between consecutive instance starts (the batching window).
    pub spacing: u64,
    /// Proposal horizon in rounds (total-order-stream only).
    pub rounds: u64,
    /// Open-loop arrival rate, requests per round.
    pub rate: f64,
    /// Zipf skew of the request keys.
    pub zipf_s: f64,
    /// Number of distinct keys.
    pub key_space: usize,
    /// Workload seed.
    pub seed: u64,
}

impl StreamConfig {
    /// CI smoke shape: small and fast, same code paths.
    pub fn smoke() -> Self {
        StreamConfig {
            nodes: 6,
            instances: 24,
            spacing: 2,
            rounds: 60,
            rate: 40.0,
            zipf_s: 1.1,
            key_space: 64,
            seed: STREAM_SEED,
        }
    }

    /// The recorded full artifact shape: a million-request open-loop stream
    /// per family.
    pub fn full() -> Self {
        StreamConfig {
            nodes: 16,
            instances: 500,
            spacing: 2,
            rounds: 500,
            rate: 1_000.0,
            zipf_s: 1.1,
            key_space: 4_096,
            seed: STREAM_SEED,
        }
    }
}

/// The content-addressed value a consensus-stream instance votes on: a stable
/// digest of the batch's keys (what a block hash is to a block).
pub fn batch_value(batch: &[u64]) -> u64 {
    payload_digest(&batch)
}

/// The finality tail a total-order stream needs after its proposal horizon:
/// the protocol finalises a round once `2 * age > 5 * |S| + 4`, plus slack for
/// the per-round consensus instances to settle.
pub fn total_order_tail(nodes: usize) -> u64 {
    (5 * nodes as u64 + 4) / 2 + 16
}

/// The batched total-order plan for a config, plus the generated requests.
/// Round `r`'s arrivals form one `Vec<u64>` event submitted by proposer
/// `(r - 1) % nodes` in round `r`; empty rounds submit nothing.
pub fn total_order_plan(config: &StreamConfig) -> (TotalOrderPlan<Vec<u64>>, Vec<StreamRequest>) {
    let requests = open_loop_requests(
        config.rounds,
        config.rate,
        config.zipf_s,
        config.key_space,
        derive_seed(config.seed, 0x70),
    );
    let mut plan = TotalOrderPlan::rounds(config.rounds + total_order_tail(config.nodes));
    for round in 1..=config.rounds {
        let batch: Vec<u64> = requests
            .iter()
            .filter(|r| r.arrival_round == round)
            .map(|r| r.key)
            .collect();
        if !batch.is_empty() {
            plan = plan.event(round, ((round - 1) as usize) % config.nodes, batch);
        }
    }
    (plan, requests)
}

/// Everything one stream run produces: the report (oracle verdicts attached)
/// plus the request-level accounting the artifact rows are computed from.
pub struct StreamOutcome {
    /// The run report, with verdicts attached.
    pub report: RunReport,
    /// Total requests the generator produced.
    pub requests: u64,
    /// Requests whose batch was decided / finalised.
    pub decided_requests: u64,
    /// Agreement decisions reached (instances decided / batches finalised).
    pub decisions: u64,
    /// Batch size per scheduled (instance, proposer) payload.
    pub batch_sizes: Vec<usize>,
    /// Per-request latency in rounds, arrival → decision/finalisation.
    pub latencies_rounds: Vec<f64>,
    /// Wall-clock milliseconds spent driving the run.
    pub wall_ms: f64,
}

/// Runs a pipelined consensus stream. `engine = None` is the sync engine.
pub fn run_consensus_stream(config: &StreamConfig, engine: Option<EngineKind>) -> StreamOutcome {
    let requests = open_loop_requests(
        config.instances as u64 * config.spacing,
        config.rate,
        config.zipf_s,
        config.key_space,
        derive_seed(config.seed, 0xC5),
    );
    // Instance k batches the arrivals of its window
    // ((k * spacing) .. (k + 1) * spacing] and starts once the window closes.
    let mut batches: Vec<Vec<u64>> = vec![Vec::new(); config.instances];
    for request in &requests {
        let window = ((request.arrival_round - 1) / config.spacing) as usize;
        batches[window.min(config.instances - 1)].push(request.key);
    }
    let mut builder = Simulation::scenario()
        .correct(config.nodes)
        .byzantine(0)
        .seed(config.seed)
        .max_rounds(config.instances as u64 * config.spacing + 1 + CONSENSUS_TAIL);
    if let Some(kind) = engine {
        builder = builder.engine(kind);
    }
    // Each instance starts the round after its batching window closes.
    let driver = consensus_stream(
        config.nodes,
        batches.iter().enumerate().map(|(k, batch)| {
            (
                (k as u64 + 1) * config.spacing + 1,
                batch.len(),
                batch_value(batch),
            )
        }),
    );
    let started = Instant::now();
    let mut report = builder.build(driver).run().expect("consensus stream run");
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    attach_verdicts(&mut report);

    // Request accounting: an instance's commit round is the round its slowest
    // node decided; every request in its batch is served at that round.
    let mut decided_requests = 0u64;
    let mut decisions = 0u64;
    let mut latencies = Vec::new();
    let stream = report
        .stream
        .as_ref()
        .expect("the mux reports a stream section");
    for instance in &stream.instances {
        if !instance.decided {
            continue;
        }
        let commit = instance
            .decide_rounds
            .iter()
            .filter_map(|(_, round)| *round)
            .max()
            .unwrap_or(instance.start_round);
        decisions += 1;
        let batch = &batches[instance.instance as usize];
        decided_requests += batch.len() as u64;
        for request in &requests {
            let window = (request.arrival_round - 1) / config.spacing;
            if window == instance.instance {
                latencies.push((commit - request.arrival_round) as f64);
            }
        }
    }
    StreamOutcome {
        report,
        requests: requests.len() as u64,
        decided_requests,
        decisions,
        batch_sizes: batches.iter().map(Vec::len).collect(),
        latencies_rounds: latencies,
        wall_ms,
    }
}

/// Runs a batched total-order stream, sampling the finalised chain every round
/// so each batch's finalisation round (and hence per-request latency) is known.
/// The total-order node retires finalised instances itself
/// (`advance_finality`). `engine = None` is the sync engine.
pub fn run_total_order_stream(config: &StreamConfig, engine: Option<EngineKind>) -> StreamOutcome {
    let (plan, requests) = total_order_plan(config);
    let total_rounds = config.rounds + total_order_tail(config.nodes);
    let mut builder = Simulation::scenario()
        .correct(config.nodes)
        .byzantine(0)
        .seed(config.seed)
        .max_rounds(total_rounds + 1);
    if let Some(kind) = engine {
        builder = builder.engine(kind);
    }
    let mut harness: Harness<TotalOrderFactory<Vec<u64>>> =
        builder.build(TotalOrderFactory::new(plan));
    let started = Instant::now();
    // Manual stepping (the same loop `Harness::run` uses) so the round each
    // chain position became final is observable; chains agree across nodes
    // (the chain-prefix oracle checks this), so node 0's view suffices.
    let mut finalized_round: Vec<u64> = Vec::new();
    while !harness.stopped() && harness.rounds_executed() < total_rounds + 1 {
        harness.step_round().expect("total-order stream round");
        let chain_len = harness.nodes()[0].chain().len();
        while finalized_round.len() < chain_len {
            finalized_round.push(harness.rounds_executed());
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
    let mut report = harness.report_now();
    attach_verdicts(&mut report);

    let mut decided_requests = 0u64;
    let mut latencies = Vec::new();
    let mut batch_sizes = Vec::new();
    let chain = harness.nodes()[0].chain();
    for (position, ordered) in chain.iter().enumerate() {
        let batch = &ordered.event;
        batch_sizes.push(batch.len());
        decided_requests += batch.len() as u64;
        // The batch holds exactly the arrivals of `ordered.round`.
        for _ in batch {
            latencies.push((finalized_round[position] - ordered.round) as f64);
        }
    }
    StreamOutcome {
        report,
        requests: requests.len() as u64,
        decided_requests,
        decisions: chain.len() as u64,
        batch_sizes,
        latencies_rounds: latencies,
        wall_ms,
    }
}

fn batch_histogram(sizes: &[usize]) -> Vec<(f64, f64, u64)> {
    if sizes.is_empty() {
        return Vec::new();
    }
    let max = *sizes.iter().max().expect("non-empty") as f64;
    let bins = (max as usize + 1).clamp(1, 8);
    let mut histogram = Histogram::new(0.0, max + 1.0, bins);
    for &size in sizes {
        histogram.record(size as f64);
    }
    histogram.edges()
}

/// One recorded stream measurement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamRow {
    /// `"smoke"` or `"full"`.
    pub preset: String,
    /// `"consensus-stream"` or `"total-order-stream"`.
    pub family: String,
    /// `"sync"` or `"event"`.
    pub engine: String,
    /// Correct node count.
    pub nodes: usize,
    /// Scheduled agreement instances (consensus) or proposal rounds (total order).
    pub instances: u64,
    /// Rounds the run executed.
    pub rounds: u64,
    /// Requests the open-loop generator produced.
    pub requests: u64,
    /// Requests whose batch was decided / finalised.
    pub decided_requests: u64,
    /// Agreement decisions reached.
    pub decisions: u64,
    /// Correct-node messages sent.
    pub msgs: u64,
    /// Message deliveries.
    pub deliveries: u64,
    /// Batch-size histogram `(lo, hi, count)` over scheduled payloads.
    pub batch_hist: Vec<(f64, f64, u64)>,
    /// Median request latency, in rounds.
    pub lat_p50_rounds: f64,
    /// 95th-percentile request latency, in rounds.
    pub lat_p95_rounds: f64,
    /// 99th-percentile request latency, in rounds.
    pub lat_p99_rounds: f64,
    /// Decisions per wall-clock second (recorded, never gated).
    pub decisions_per_sec: f64,
    /// Correct messages per wall-clock second (recorded, never gated).
    pub msgs_per_sec: f64,
    /// Wall-clock milliseconds (recorded, never gated).
    pub wall_ms: f64,
    /// Whether every attached oracle verdict passed.
    pub oracles_passed: bool,
}

impl StreamRow {
    /// The columns that name a row.
    pub const KEY: &'static [&'static str] = &["preset", "family", "engine", "nodes"];
    /// The columns that are exact functions of the seed; the per-second
    /// rates and `wall_ms` are not.
    pub const DETERMINISTIC: &'static [&'static str] = &[
        "instances",
        "rounds",
        "requests",
        "decided_requests",
        "decisions",
        "msgs",
        "deliveries",
        "batch_hist",
        "lat_p50_rounds",
        "lat_p95_rounds",
        "lat_p99_rounds",
        "oracles_passed",
    ];
}

/// One point of the active-window cost sweep: waves of `window` simultaneous
/// consensus instances, `waves` waves in total, with decided slots retiring.
/// Everything but `wall_ms` is an exact function of the seed (the [`MuxWork`]
/// counters are pure message-count arithmetic).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowSweepRow {
    /// Active-window size: instances started simultaneously per wave.
    pub window: usize,
    /// Number of waves (the horizon; doubling it must not move per-round cost).
    pub waves: u64,
    /// Total instances scheduled (`window * waves`).
    pub instances: u64,
    /// Rounds the run executed.
    pub rounds: u64,
    /// Live-slot steps summed across nodes (the per-round work the mux does).
    pub slot_steps: u64,
    /// Inbox envelopes demuxed into the tag index, summed across nodes.
    pub envelopes_indexed: u64,
    /// Envelopes consumed at zero clones for retired/unscheduled tags.
    pub dropped_retired: u64,
    /// `slot_steps / rounds`: the per-round cost the sweep plots against
    /// `window`. Flat in `waves` iff retirement keeps the window bounded.
    pub steps_per_round: f64,
    /// Wall-clock milliseconds (recorded, never gated).
    pub wall_ms: f64,
}

impl WindowSweepRow {
    /// The columns that name a row.
    pub const KEY: &'static [&'static str] = &["window", "waves"];
    /// Every column but `wall_ms`.
    pub const DETERMINISTIC: &'static [&'static str] = &[
        "instances",
        "rounds",
        "slot_steps",
        "envelopes_indexed",
        "dropped_retired",
        "steps_per_round",
    ];
}

/// Rounds between consecutive waves in the window sweep: comfortably above
/// the fault-free decide latency, so one wave retires before the next starts
/// and the active window is exactly `window`.
pub const SWEEP_WAVE_PERIOD: u64 = 8;

/// Horizon doubling at fixed window may move per-round cost by at most this
/// factor (the tail after the last wave dilutes the average slightly, so the
/// honest ratio sits just *below* 1.0; anything above 1.1 means decided
/// instances are still being paid for).
pub const SWEEP_SLOPE_MARGIN: f64 = 1.1;

/// Runs the active-window sweep: `window ∈ {1, 2, 4, 8}` × `waves ∈ {8, 16}`,
/// on the sync engine.
pub fn window_sweep_rows() -> Vec<WindowSweepRow> {
    let nodes = 6;
    let mut rows = Vec::new();
    for &window in &[1usize, 2, 4, 8] {
        for &waves in &[8u64, 16] {
            let schedule: Vec<(u64, usize, u64)> = (0..waves)
                .flat_map(|wave| {
                    (0..window).map(move |slot| {
                        let tag = wave * window as u64 + slot as u64;
                        (
                            wave * SWEEP_WAVE_PERIOD + 1,
                            1usize,
                            payload_digest(&(STREAM_SEED ^ tag)),
                        )
                    })
                })
                .collect();
            let instances = schedule.len() as u64;
            let last_start = (waves - 1) * SWEEP_WAVE_PERIOD + 1;
            let driver = consensus_stream(nodes, schedule);
            let mut harness = Simulation::scenario()
                .correct(nodes)
                .byzantine(0)
                .seed(STREAM_SEED)
                .max_rounds(last_start + CONSENSUS_TAIL)
                .build(driver);
            let started = Instant::now();
            let report = harness.run().expect("window sweep run");
            let wall_ms = started.elapsed().as_secs_f64() * 1_000.0;
            let mut work = MuxWork::default();
            for node in harness.nodes() {
                let w = node.work();
                work.envelopes_indexed += w.envelopes_indexed;
                work.slot_steps += w.slot_steps;
                work.dropped_retired += w.dropped_retired;
            }
            rows.push(WindowSweepRow {
                window,
                waves,
                instances,
                rounds: report.rounds,
                slot_steps: work.slot_steps,
                envelopes_indexed: work.envelopes_indexed,
                dropped_retired: work.dropped_retired,
                steps_per_round: work.slot_steps as f64 / report.rounds.max(1) as f64,
                wall_ms,
            });
        }
    }
    rows
}

/// The sweep's hard gate: for every window size present at two horizons, the
/// per-round cost at the longer horizon must stay within
/// [`SWEEP_SLOPE_MARGIN`] of the shorter one. Returns violation lines; empty
/// means the active-window property holds.
pub fn window_sweep_slope(rows: &[WindowSweepRow]) -> Vec<String> {
    let mut violations = Vec::new();
    let mut windows: Vec<usize> = rows.iter().map(|r| r.window).collect();
    windows.sort_unstable();
    windows.dedup();
    for window in windows {
        let mut at_window: Vec<&WindowSweepRow> =
            rows.iter().filter(|r| r.window == window).collect();
        at_window.sort_by_key(|r| r.waves);
        for pair in at_window.windows(2) {
            let (short, long) = (pair[0], pair[1]);
            if short.steps_per_round <= 0.0 {
                violations.push(format!(
                    "window {window}: zero per-round cost at {} waves (no work measured)",
                    short.waves
                ));
                continue;
            }
            let ratio = long.steps_per_round / short.steps_per_round;
            if ratio > SWEEP_SLOPE_MARGIN {
                violations.push(format!(
                    "window {window}: per-round cost grew {ratio:.3}× going from {} to {} \
                     waves ({:.3} → {:.3} slot steps/round; bound {SWEEP_SLOPE_MARGIN})",
                    short.waves, long.waves, short.steps_per_round, long.steps_per_round
                ));
            }
        }
    }
    violations
}

/// The `BENCH_stream.json` artifact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamFile {
    /// Seed the workloads derive from.
    pub seed: u64,
    /// One row per (preset, family, engine).
    pub rows: Vec<StreamRow>,
    /// The active-window cost sweep.
    pub window_sweep: Vec<WindowSweepRow>,
}

fn outcome_row(
    outcome: &StreamOutcome,
    preset: &str,
    family: &str,
    engine: &str,
    config: &StreamConfig,
    instances: u64,
) -> StreamRow {
    let wall_secs = (outcome.wall_ms / 1_000.0).max(1e-9);
    let mut latencies = outcome.latencies_rounds.clone();
    latencies.sort_by(f64::total_cmp);
    StreamRow {
        preset: preset.to_string(),
        family: family.to_string(),
        engine: engine.to_string(),
        nodes: config.nodes,
        instances,
        rounds: outcome.report.rounds,
        requests: outcome.requests,
        decided_requests: outcome.decided_requests,
        decisions: outcome.decisions,
        msgs: outcome.report.messages.correct,
        deliveries: outcome.report.messages.deliveries,
        batch_hist: batch_histogram(&outcome.batch_sizes),
        lat_p50_rounds: quantile_sorted(&latencies, 0.50),
        lat_p95_rounds: quantile_sorted(&latencies, 0.95),
        lat_p99_rounds: quantile_sorted(&latencies, 0.99),
        decisions_per_sec: outcome.decisions as f64 / wall_secs,
        msgs_per_sec: outcome.report.messages.correct as f64 / wall_secs,
        wall_ms: outcome.wall_ms,
        oracles_passed: outcome.report.verdicts_passed(),
    }
}

/// Runs one preset across both families and both engines (four rows).
pub fn stream_rows(preset: &str, config: &StreamConfig) -> Vec<StreamRow> {
    let engines: [(Option<EngineKind>, &str); 2] =
        [(None, "sync"), (Some(EngineKind::event()), "event")];
    let mut rows = Vec::new();
    for (engine, engine_name) in engines {
        let outcome = run_consensus_stream(config, engine.clone());
        rows.push(outcome_row(
            &outcome,
            preset,
            "consensus-stream",
            engine_name,
            config,
            config.instances as u64,
        ));
        let outcome = run_total_order_stream(config, engine);
        rows.push(outcome_row(
            &outcome,
            preset,
            "total-order-stream",
            engine_name,
            config,
            config.rounds,
        ));
    }
    rows
}

/// Builds the artifact: smoke rows always, full rows unless `smoke_only`, and
/// the (cheap, deterministic) active-window sweep in both shapes.
pub fn stream_file(smoke_only: bool) -> StreamFile {
    let mut rows = stream_rows("smoke", &StreamConfig::smoke());
    if !smoke_only {
        rows.extend(stream_rows("full", &StreamConfig::full()));
    }
    StreamFile {
        seed: STREAM_SEED,
        rows,
        window_sweep: window_sweep_rows(),
    }
}

/// Compares the deterministic columns of two stream files: the rows of the
/// presets `current` ran, and the active-window sweep. Returns human-readable
/// drift lines; empty means no drift. Wall-clock columns are never compared.
pub fn stream_drift(current: &StreamFile, committed: &StreamFile) -> Vec<String> {
    // A smoke run re-runs only the smoke preset; the full rows ride along.
    let ran: Vec<StreamRow> = committed
        .rows
        .iter()
        .filter(|row| current.rows.iter().any(|r| r.preset == row.preset))
        .cloned()
        .collect();
    let mut drift = artifact::drift(
        "stream",
        &current.rows,
        &ran,
        StreamRow::KEY,
        StreamRow::DETERMINISTIC,
    );
    drift.extend(artifact::drift(
        "window sweep",
        &current.window_sweep,
        &committed.window_sweep,
        WindowSweepRow::KEY,
        WindowSweepRow::DETERMINISTIC,
    ));
    drift
}

/// Renders the active-window sweep as a terminal table.
pub fn window_sweep_table(rows: &[WindowSweepRow]) -> Table {
    let mut table = Table::new(
        "window sweep: per-round mux cost vs active-window size".to_string(),
        &[
            "window",
            "waves",
            "instances",
            "rounds",
            "slot steps",
            "indexed",
            "dropped",
            "steps/round",
            "wall ms",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.window.to_string(),
            row.waves.to_string(),
            row.instances.to_string(),
            row.rounds.to_string(),
            row.slot_steps.to_string(),
            row.envelopes_indexed.to_string(),
            row.dropped_retired.to_string(),
            format!("{:.3}", row.steps_per_round),
            format!("{:.1}", row.wall_ms),
        ]);
    }
    table
}

/// Renders the artifact as a terminal table.
pub fn stream_table(file: &StreamFile) -> Table {
    let mut table = Table::new(
        format!(
            "stream: pipelined multi-shot agreement throughput (seed {:#x})",
            file.seed
        ),
        &[
            "preset",
            "family",
            "engine",
            "n",
            "requests",
            "decided",
            "decisions",
            "msgs",
            "lat p50",
            "lat p99",
            "dec/s",
            "msg/s",
            "verdict",
        ],
    );
    for row in &file.rows {
        table.push_row(vec![
            row.preset.clone(),
            row.family.clone(),
            row.engine.clone(),
            row.nodes.to_string(),
            row.requests.to_string(),
            row.decided_requests.to_string(),
            row.decisions.to_string(),
            row.msgs.to_string(),
            format!("{:.1}", row.lat_p50_rounds),
            format!("{:.1}", row.lat_p99_rounds),
            format!("{:.1}", row.decisions_per_sec),
            format!("{:.1}", row.msgs_per_sec),
            if row.oracles_passed {
                "ok".to_string()
            } else {
                "FAIL".to_string()
            },
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StreamConfig {
        StreamConfig {
            nodes: 4,
            instances: 6,
            spacing: 2,
            rounds: 16,
            rate: 3.0,
            zipf_s: 1.1,
            key_space: 16,
            seed: 0xBEEF,
        }
    }

    #[test]
    fn the_consensus_stream_decides_every_instance_and_passes_its_oracles() {
        let outcome = run_consensus_stream(&tiny(), None);
        assert_eq!(outcome.decisions, 6, "every pipelined instance decides");
        assert_eq!(outcome.requests, 36);
        assert_eq!(outcome.decided_requests, 36);
        assert_eq!(outcome.latencies_rounds.len(), 36);
        assert!(outcome.report.verdicts_passed());
        let stream = outcome.report.stream.as_ref().expect("stream section");
        assert!(stream.agreement);
        assert_eq!(stream.completed, 6);
        assert!(outcome
            .report
            .verdicts
            .iter()
            .any(|verdict| verdict.oracle == "stream"));
        // Latency is positive: a batch cannot decide before it arrives.
        assert!(outcome.latencies_rounds.iter().all(|&l| l >= 1.0));
    }

    #[test]
    fn the_total_order_stream_finalises_every_batch() {
        let outcome = run_total_order_stream(&tiny(), None);
        assert_eq!(outcome.requests, 48);
        assert_eq!(
            outcome.decided_requests, 48,
            "the finality tail covers the whole horizon"
        );
        assert_eq!(outcome.decisions, 16, "one batch per non-empty round");
        assert!(outcome.report.verdicts_passed());
        assert!(outcome.latencies_rounds.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn stream_runs_are_deterministic_in_the_seed() {
        let a = run_consensus_stream(&tiny(), None);
        let b = run_consensus_stream(&tiny(), None);
        assert_eq!(a.report, b.report);
        assert_eq!(a.latencies_rounds, b.latencies_rounds);
    }

    #[test]
    fn the_window_sweep_is_deterministic_and_flat_in_the_horizon() {
        let rows = window_sweep_rows();
        assert_eq!(rows.len(), 8, "4 windows × 2 horizons");
        let again = window_sweep_rows();
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.slot_steps, b.slot_steps);
            assert_eq!(a.envelopes_indexed, b.envelopes_indexed);
            assert_eq!(a.dropped_retired, b.dropped_retired);
            assert_eq!(a.rounds, b.rounds);
        }
        let violations = window_sweep_slope(&rows);
        assert!(violations.is_empty(), "{violations:?}");
        // Doubling the window roughly doubles per-round cost (the sweep's
        // point): the widest window costs strictly more per round than the
        // narrowest at the same horizon.
        let narrow = rows
            .iter()
            .find(|r| r.window == 1 && r.waves == 8)
            .expect("window 1 row");
        let wide = rows
            .iter()
            .find(|r| r.window == 8 && r.waves == 8)
            .expect("window 8 row");
        assert!(wide.steps_per_round > 4.0 * narrow.steps_per_round);
    }

    #[test]
    fn the_slope_gate_flags_cost_that_grows_with_the_horizon() {
        let flat = |waves: u64, steps: u64| WindowSweepRow {
            window: 2,
            waves,
            instances: 2 * waves,
            rounds: 10 * waves,
            slot_steps: steps,
            envelopes_indexed: steps,
            dropped_retired: 0,
            steps_per_round: steps as f64 / (10 * waves) as f64,
            wall_ms: 0.0,
        };
        assert!(window_sweep_slope(&[flat(8, 800), flat(16, 1_600)]).is_empty());
        let violations = window_sweep_slope(&[flat(8, 800), flat(16, 3_200)]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("window 2"));
    }
}
