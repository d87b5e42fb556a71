//! The measurement loops: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer budget.
//!
//! Noise model: one process per workload, single-threaded (the only threaded
//! measurement is the traced run's `engine.parallel_speedup` twin). The first
//! iteration warms allocator and caches and is discarded; times are medians
//! over the timed iterations; step samples are pooled over them. Everything
//! simulated (latency in rounds, message counts) repeats exactly under the
//! seed and is checked to do so on every run.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, weighted_percentile};
use crate::surface::{json_from_str, RunReport};
use crate::trace::{self_times_ns, Span, Tracer};
use crate::workloads::{Outcome, Plan, Size, Twin, Workload};

/// How long to measure.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Timed iterations for as close to this many seconds as whole
    /// iterations come: another one starts only if at least half of it fits.
    Seconds(f64),
    /// Exactly this many timed iterations and no warm-up (tests).
    Iterations(usize),
}

impl Budget {
    fn warm_up(self) -> bool {
        matches!(self, Budget::Seconds(_))
    }

    fn spent(self, elapsed_s: f64, walls: &[f64]) -> bool {
        match self {
            Budget::Seconds(seconds) => {
                !walls.is_empty() && elapsed_s + walls[walls.len() - 1] / 2.0 >= seconds
            }
            Budget::Iterations(count) => walls.len() >= count,
        }
    }
}

/// A reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind it (iterations, steps or latency samples).
    pub samples: usize,
}

/// What one run of one workload measured.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The workload.
    pub workload: Workload,
    /// Timed iterations.
    pub iterations: usize,
    /// The end-to-end metrics the workload reports, in table order.
    pub end_to_end: Vec<Value>,
    /// Every per-layer metric, in table order (traced run only).
    pub per_layer: Vec<Value>,
    /// Operations asked for, over the timed iterations.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The deterministic columns of one iteration, latency percentiles included.
    pub columns: Vec<(&'static str, u64)>,
    /// Why the run is not correct (empty when it is): failed operations,
    /// columns that differed between iterations, a twin that changed the
    /// traffic, a report that did not survive the JSON round trip.
    pub faults: Vec<String>,
}

impl Measurement {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`; 0 off Linux).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn timed(workload: Workload, plan: &Plan, tracer: &mut Tracer, iter: u32) -> (Outcome, f64) {
    tracer.set_iteration(iter);
    let root = tracer.open("iteration", 0);
    let clock = Instant::now();
    let outcome = workload.iterate(plan, tracer);
    let wall_s = clock.elapsed().as_secs_f64();
    tracer.close(root);
    (outcome, wall_s)
}

/// The deterministic columns of an iteration: its counts plus the simulated
/// latency percentiles.
fn columns(outcome: &Outcome) -> Vec<(&'static str, u64)> {
    let mut columns = outcome.counts.clone();
    columns.push((
        "lat_p50_rounds",
        weighted_percentile(&outcome.latency_rounds, 0.50),
    ));
    columns.push((
        "lat_p99_rounds",
        weighted_percentile(&outcome.latency_rounds, 0.99),
    ));
    columns
}

fn step_percentiles(outcomes: &[Outcome]) -> (Vec<f64>, Option<(f64, f64)>) {
    let mut steps: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.steps_us.iter().copied())
        .collect();
    steps.sort_by(f64::total_cmp);
    let both = percentile(&steps, 0.50)
        .and_then(|p50| percentile(&steps, 0.95).map(|p95| (p50, p95)))
        .ok();
    (steps, both)
}

/// Reduces timed iterations to the end-to-end metrics and the correctness
/// verdict.
fn summarise(workload: Workload, outcomes: &[Outcome], walls: &[f64]) -> Measurement {
    let last = outcomes.last().expect("at least one timed iteration");
    let iteration_s = median(walls);
    let setups: Vec<f64> = outcomes.iter().map(|o| o.setup_s).collect();
    let latency_samples: u64 = last.latency_rounds.iter().map(|&(_, weight)| weight).sum();
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let columns = columns(last);
    let (steps, step_percentiles) = step_percentiles(outcomes);

    let mut end_to_end = Vec::new();
    for metric in &END_TO_END {
        let (value, samples) = match metric.name {
            "setup_s" => (median(&setups), outcomes.len()),
            "decisions_per_s" => (last.decisions() as f64 / iteration_s, outcomes.len()),
            "ns_per_delivery" => (
                iteration_s * 1e9 / last.count("deliveries").max(1) as f64,
                outcomes.len(),
            ),
            "step_p50_us" | "step_p95_us" => {
                let (true, Some((p50, p95))) = (workload.reports_steps(), step_percentiles) else {
                    continue;
                };
                let value = if metric.name == "step_p50_us" {
                    p50
                } else {
                    p95
                };
                (value, steps.len())
            }
            "lat_p50_rounds" => (
                weighted_percentile(&last.latency_rounds, 0.50) as f64,
                latency_samples as usize,
            ),
            "lat_p99_rounds" => (
                weighted_percentile(&last.latency_rounds, 0.99) as f64,
                latency_samples as usize,
            ),
            "peak_rss_mb" => (peak_rss_mb(), 1),
            "failed_share" => (failed as f64 / attempted.max(1) as f64, attempted as usize),
            other => unreachable!("end-to-end metric `{other}` has no definition"),
        };
        end_to_end.push(Value {
            name: metric.name,
            value,
            unit: metric.unit,
            samples,
        });
    }

    let mut faults = Vec::new();
    if failed > 0 {
        faults.push(format!("{failed} of {attempted} operations failed"));
    }
    if let Some(position) = outcomes.iter().position(|o| self::columns(o) != columns) {
        faults.push(format!(
            "deterministic columns of iteration {position} differ from the last iteration's"
        ));
    }
    Measurement {
        workload,
        iterations: outcomes.len(),
        end_to_end,
        per_layer: Vec::new(),
        attempted,
        failed,
        columns,
        faults,
    }
}

/// The untraced run: a discarded warm-up iteration, then timed iterations
/// until the budget is spent.
pub fn measure(workload: Workload, seed: u64, size: Size, budget: Budget) -> Measurement {
    let plan = Plan {
        seed,
        size,
        twin: Twin::None,
    };
    let mut tracer = Tracer::off();
    if budget.warm_up() {
        workload.iterate(&plan, &mut tracer);
    }
    let window = Instant::now();
    let (mut outcomes, mut walls) = (Vec::new(), Vec::new());
    while !budget.spent(window.elapsed().as_secs_f64(), &walls) {
        let (outcome, wall_s) = timed(workload, &plan, &mut tracer, 0);
        outcomes.push(outcome);
        walls.push(wall_s);
    }
    summarise(workload, &outcomes, &walls)
}

/// The traffic columns a differential twin must not change.
fn traffic(outcome: &Outcome) -> [u64; 4] {
    ["rounds", "messages", "deliveries", "decisions"].map(|name| outcome.count(name))
}

/// Span names whose durations are the engine's own phase timings.
const PHASE_SPANS: [&str; 6] = [
    "engine.step",
    "engine.produce",
    "engine.adversary",
    "engine.deliver",
    "event.schedule",
    "event.dispatch",
];

/// Per traced iteration: summed span milliseconds by name, the root span's
/// self-time share, and the share of the stepped time the phase spans cover.
struct IterationSpans {
    ms: BTreeMap<&'static str, f64>,
    self_share: f64,
    phase_coverage: f64,
}

fn iteration_spans(spans: &[Span], self_ns: &[u64], iter: u32) -> IterationSpans {
    let mut ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut self_share, mut phases_ns, mut stepped_ns) = (0.0, 0u64, 0u64);
    for (span, &self_ns) in spans.iter().zip(self_ns).filter(|(s, _)| s.iter == iter) {
        *ms.entry(span.name).or_default() += span.duration_ns() as f64 / 1e6;
        if span.name == "iteration" {
            self_share = self_ns as f64 / span.duration_ns().max(1) as f64;
        }
        if PHASE_SPANS.contains(&span.name) {
            phases_ns += span.duration_ns();
        }
        if matches!(span.name, "round" | "sim.run") {
            stepped_ns += span.duration_ns();
        }
    }
    IterationSpans {
        ms,
        self_share,
        phase_coverage: phases_ns as f64 / stepped_ns.max(1) as f64,
    }
}

/// What the traced run returns: the measurement (per-layer metrics filled in)
/// and the trace to write out.
pub struct Traced {
    /// End-to-end values here come from the untraced half of the run.
    pub measurement: Measurement,
    /// The spans, as JSON.
    pub trace_json: String,
}

/// The traced run: after a warm-up, untraced and traced iterations alternate
/// until half the budget is spent (the ratio of their medians prices the
/// tracing); then each differential twin runs once, traced; then one small
/// report is parsed back and compared, after the clock.
pub fn trace(workload: Workload, seed: u64, size: Size, budget: Budget) -> Traced {
    let plan = Plan {
        seed,
        size,
        twin: Twin::None,
    };
    let budget = match budget {
        Budget::Seconds(seconds) => Budget::Seconds(seconds / 2.0),
        fixed => fixed,
    };
    let mut tracer = Tracer::on();
    if budget.warm_up() {
        tracer.set_enabled(false);
        workload.iterate(&plan, &mut tracer);
    }
    let window = Instant::now();
    let (mut plain, mut plain_walls) = (Vec::new(), Vec::new());
    let (mut traced, mut traced_walls) = (Vec::new(), Vec::new());
    while !budget.spent(window.elapsed().as_secs_f64(), &traced_walls) {
        tracer.set_enabled(false);
        let (outcome, wall_s) = timed(workload, &plan, &mut tracer, 0);
        plain.push(outcome);
        plain_walls.push(wall_s);
        tracer.set_enabled(true);
        let (outcome, wall_s) = timed(workload, &plan, &mut tracer, traced.len() as u32 + 1);
        traced.push(outcome);
        traced_walls.push(wall_s);
    }
    let mut measurement = summarise(workload, &plain, &plain_walls);
    let base = traced.last().expect("at least one traced iteration");
    let base_wall = median(&traced_walls);

    // Differential twins: one traced run each, labelled past the timed ones.
    let mut twins: BTreeMap<Twin, (f64, u64)> = BTreeMap::new();
    let mut quiet_digests = Vec::new();
    for (offset, &twin) in workload.twins().iter().enumerate() {
        let twin_plan = Plan { twin, ..plan };
        let (outcome, wall_s) = timed(workload, &twin_plan, &mut tracer, 1_000 + offset as u32);
        if outcome.failed > 0 {
            measurement.faults.push(format!(
                "twin {twin:?}: {} operations failed",
                outcome.failed
            ));
        }
        // Parallel stepping, traffic GC and write-ahead logging are pinned
        // observationally silent: the report must come out byte-identical.
        // The sync twin's report names another engine, so only its traffic
        // is compared.
        let same = match twin {
            Twin::QuietWalOn | Twin::QuietWalOff => {
                quiet_digests.push(outcome.count("report_digest"));
                true
            }
            Twin::SyncEngine => traffic(&outcome) == traffic(base),
            _ => outcome.count("report_digest") == base.count("report_digest"),
        };
        if !same {
            measurement
                .faults
                .push(format!("twin {twin:?} changed the run's report"));
        }
        twins.insert(twin, (wall_s, outcome.gauges.queued_peak));
    }
    if quiet_digests.windows(2).any(|pair| pair[0] != pair[1]) {
        measurement
            .faults
            .push("write-ahead logging changed the report of a crash-free run".into());
    }

    // After the clock: the report must survive a JSON round trip.
    let mut parse_ms = 0.0;
    if let Some((report, json)) = &base.report {
        tracer.set_iteration(2_000);
        let span = tracer.open("report.parse", 0);
        let parsed = json_from_str::<RunReport>(json);
        tracer.close(span);
        parse_ms = tracer.spans().last().map_or(0, Span::duration_ns) as f64 / 1e6;
        if parsed.as_ref() != Ok(report) {
            measurement
                .faults
                .push("a report did not survive the JSON round trip".into());
        }
    }

    let self_ns = self_times_ns(tracer.spans());
    let per_iteration: Vec<IterationSpans> = (1..=traced.len() as u32)
        .map(|iter| iteration_spans(tracer.spans(), &self_ns, iter))
        .collect();
    let span_ms = |name: &str| {
        let sums: Vec<f64> = per_iteration
            .iter()
            .map(|spans| spans.ms.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&sums)
    };
    let ratio = |numerator: f64, denominator: f64| {
        if denominator > 0.0 {
            numerator / denominator
        } else {
            0.0
        }
    };
    let twin_wall = |twin: Twin| twins.get(&twin).map_or(0.0, |&(wall_s, _)| wall_s);
    let over_twin = |twin: Twin| ratio(base_wall, twin_wall(twin));
    let count = |name: &str| base.count(name) as f64;
    let messages = count("messages");
    let deliveries = count("deliveries");
    let cases_per_engine = count("cases") / 2.0;
    let (steps, step_percentiles) = step_percentiles(&traced);
    let (step_p50, step_p95) = match step_percentiles {
        Some(both) if workload.reports_steps() => both,
        _ => (0.0, 0.0),
    };

    // The benchmark knows the churn schedule, so it can split the soak's step
    // samples (sample `i` is round `i + 1`) by whether a restart was due.
    let (mut restart_steps, mut quiet_steps) = (Vec::new(), Vec::new());
    for outcome in traced.iter().filter(|o| !o.restart_rounds.is_empty()) {
        for (index, &step) in outcome.steps_us.iter().enumerate() {
            if outcome
                .restart_rounds
                .binary_search(&(index as u64 + 1))
                .is_ok()
            {
                restart_steps.push(step);
            } else {
                quiet_steps.push(step);
            }
        }
    }
    let median_or_zero = |values: &[f64]| {
        if values.is_empty() {
            0.0
        } else {
            median(values)
        }
    };

    measurement.per_layer = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "workload.gen_ms" => span_ms("workload.gen"),
                "workload.requests" => count("requests"),
                "workload.batches" => count("batches"),
                "sim.build_ms" => span_ms("sim.build"),
                "sim.report_ms" => span_ms("sim.report"),
                "grid.enumerate_ms" => span_ms("grid.enumerate"),
                "grid.property_ms" => span_ms("grid.property"),
                "grid.sync_cases_per_s" => ratio(cases_per_engine, base.engine_split_s.0),
                "grid.event_cases_per_s" => ratio(cases_per_engine, base.engine_split_s.1),
                "engine.rounds" => count("rounds"),
                "engine.messages" => messages,
                "engine.deliveries" => deliveries,
                "engine.step_ms" => span_ms("engine.step"),
                "engine.produce_ms" => span_ms("engine.produce"),
                "engine.adversary_ms" => span_ms("engine.adversary"),
                "engine.deliver_ms" => span_ms("engine.deliver"),
                "engine.deliver_ns_per_delivery" => {
                    ratio(span_ms("engine.deliver") * 1e6, deliveries)
                }
                "engine.produce_ns_per_message" => ratio(span_ms("engine.produce") * 1e6, messages),
                "engine.queued_peak" => base.gauges.queued_peak as f64,
                "engine.phase_coverage" => median(
                    &per_iteration
                        .iter()
                        .map(|s| s.phase_coverage)
                        .collect::<Vec<_>>(),
                ),
                "engine.parallel_speedup" => over_twin(Twin::Parallel),
                "engine.gc_wall_ratio" => over_twin(Twin::GcOff),
                "engine.gc_queued_peak_ratio" => ratio(
                    base.gauges.queued_peak as f64,
                    twins.get(&Twin::GcOff).map_or(0, |&(_, queued)| queued) as f64,
                ),
                "event.schedule_ms" => span_ms("event.schedule"),
                "event.dispatch_ms" => span_ms("event.dispatch"),
                "event.dispatch_ns_per_delivery" => {
                    ratio(span_ms("event.dispatch") * 1e6, deliveries)
                }
                "event.over_sync" if workload == Workload::GridSmall => {
                    ratio(base.engine_split_s.1, base.engine_split_s.0)
                }
                "event.over_sync" => over_twin(Twin::SyncEngine),
                "mux.slot_steps" => count("mux_slot_steps"),
                "mux.envelopes_indexed" => count("mux_envelopes_indexed"),
                "mux.dropped_retired" => count("mux_dropped_retired"),
                "mux.slot_steps_per_round" => ratio(count("mux_slot_steps"), count("rounds")),
                "mux.ns_per_slot_step" => {
                    ratio(span_ms("engine.produce") * 1e6, count("mux_slot_steps"))
                }
                "wal.restarts" => count("restarts"),
                "wal.recovered_rounds" => count("wal_recovered_rounds"),
                "wal.replayed_rounds" => count("wal_replayed_rounds"),
                "wal.dropped_records" => count("wal_dropped_records"),
                "wal.entries_peak" => base.gauges.wal_entries_peak as f64,
                "wal.restart_step_p50_us" => median_or_zero(&restart_steps),
                "wal.quiet_step_p50_us" => median_or_zero(&quiet_steps),
                "wal.logging_wall_ratio" => {
                    ratio(twin_wall(Twin::QuietWalOn), twin_wall(Twin::QuietWalOff))
                }
                "shared.allocations" => count("shared_allocations"),
                "shared.live_peak" => base.gauges.live_peak as f64,
                "shared.allocs_per_message" => ratio(count("shared_allocations"), messages),
                "checker.attach_ms" => span_ms("checker.attach"),
                "checker.verdicts" => count("verdicts"),
                "checker.failed" => count("verdicts_failed"),
                "report.serialize_ms" => span_ms("report.serialize"),
                "report.bytes" => count("report_bytes"),
                "report.parse_ms" => parse_ms,
                "step_p50_us" => step_p50,
                "step_p95_us" => step_p95,
                "step_samples" => steps.len() as f64,
                "bench.iteration_ms" => base_wall * 1e3,
                "bench.self_share" => median(
                    &per_iteration
                        .iter()
                        .map(|s| s.self_share)
                        .collect::<Vec<_>>(),
                ),
                "bench.trace_overhead" => ratio(base_wall, median(&plain_walls)),
                "bench.traced_iterations" => traced.len() as f64,
                other => unreachable!("per-layer metric `{other}` has no definition"),
            };
            Value {
                name,
                value,
                unit,
                samples: traced.len(),
            }
        })
        .collect();
    Traced {
        measurement,
        trace_json: tracer.to_json(),
    }
}
