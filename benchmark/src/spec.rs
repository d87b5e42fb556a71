//! The metric tables: names, units, directions and regression bounds.
//!
//! `BENCHMARK.json` at the repository root carries the same tables for the
//! acceptance driver; `tests/benchmark.rs` holds the two in agreement.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before `compare` calls it a regression.
///
/// The host-time bounds are sized to the reference sandbox, whose speed shifts
/// by up to 15 % for minutes at a time (README, "Noise"): the quartile spread
/// of ten runs reads 15 % whenever such a shift lands inside them, and the
/// median of ten `soak-crash` runs moved by 14.7 % between two passes of the
/// same code. A 10 % bound would refuse the benchmark's own repeat.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Worse by more than this share of the first value.
    Relative(f64),
    /// Worse by more than the share *and* by more than the absolute slack, in
    /// the metric's unit (a swing of a sub-millisecond set-up is noise).
    RelativeOrAbsolute(f64, f64),
    /// Any worsening: the value repeats exactly under the seed.
    Exact,
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound `compare` applies.
    pub bound: Bound,
    /// Whether every workload reports it and it is never 0 — the condition
    /// for the acceptance driver to gate it (`BENCHMARK.json` `end_to_end`).
    /// The step percentiles are not reported by the single-shot workloads and
    /// `failed_share` is 0 on a healthy tree, so those three reach the driver
    /// as per-layer metrics and as the result line's `failed`/`attempted`.
    pub gated: bool,
}

/// The nine end-to-end metrics.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::RelativeOrAbsolute(0.25, 0.005),
        gated: true,
    },
    EndToEnd {
        name: "decisions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Relative(0.25),
        gated: true,
    },
    EndToEnd {
        name: "ns_per_delivery",
        unit: "ns",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        gated: true,
    },
    EndToEnd {
        name: "step_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        gated: false,
    },
    EndToEnd {
        name: "step_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Relative(0.25),
        gated: false,
    },
    EndToEnd {
        name: "lat_p50_rounds",
        unit: "rounds",
        better: Better::Lower,
        bound: Bound::Exact,
        gated: true,
    },
    EndToEnd {
        name: "lat_p99_rounds",
        unit: "rounds",
        better: Better::Lower,
        bound: Bound::Exact,
        gated: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        gated: true,
    },
    EndToEnd {
        name: "failed_share",
        unit: "fraction",
        better: Better::Lower,
        bound: Bound::Exact,
        gated: false,
    },
];

/// One per-layer metric: `(name, unit, direction)`. Counts repeat exactly
/// under the seed; times and ratios come from the traced run. A metric that
/// does not apply to a workload reads 0 there.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The per-layer metrics, grouped by the repository module they budget.
pub const PER_LAYER: [PerLayer; 56] = [
    // bench.workload
    ("workload.gen_ms", "ms", Lower),
    ("workload.requests", "count", Higher),
    ("workload.batches", "count", Higher),
    // simnet.sim
    ("sim.build_ms", "ms", Lower),
    ("sim.report_ms", "ms", Lower),
    // simnet.sweep + bench.fuzz
    ("grid.enumerate_ms", "ms", Lower),
    ("grid.property_ms", "ms", Lower),
    ("grid.sync_cases_per_s", "1/s", Higher),
    ("grid.event_cases_per_s", "1/s", Higher),
    // simnet.engine
    ("engine.rounds", "count", Lower),
    ("engine.messages", "count", Lower),
    ("engine.deliveries", "count", Lower),
    ("engine.step_ms", "ms", Lower),
    ("engine.produce_ms", "ms", Lower),
    ("engine.adversary_ms", "ms", Lower),
    ("engine.deliver_ms", "ms", Lower),
    ("engine.deliver_ns_per_delivery", "ns", Lower),
    ("engine.produce_ns_per_message", "ns", Lower),
    ("engine.queued_peak", "count", Lower),
    ("engine.phase_coverage", "fraction", Higher),
    ("engine.parallel_speedup", "ratio", Higher),
    ("engine.gc_wall_ratio", "ratio", Lower),
    ("engine.gc_queued_peak_ratio", "ratio", Lower),
    // simnet.event
    ("event.schedule_ms", "ms", Lower),
    ("event.dispatch_ms", "ms", Lower),
    ("event.dispatch_ns_per_delivery", "ns", Lower),
    ("event.over_sync", "ratio", Lower),
    // simnet.stream
    ("mux.slot_steps", "count", Lower),
    ("mux.envelopes_indexed", "count", Lower),
    ("mux.dropped_retired", "count", Lower),
    ("mux.slot_steps_per_round", "count", Lower),
    ("mux.ns_per_slot_step", "ns", Lower),
    // simnet.wal
    ("wal.restarts", "count", Higher),
    ("wal.recovered_rounds", "count", Lower),
    ("wal.replayed_rounds", "count", Lower),
    ("wal.dropped_records", "count", Lower),
    ("wal.entries_peak", "count", Lower),
    ("wal.restart_step_p50_us", "us", Lower),
    ("wal.quiet_step_p50_us", "us", Lower),
    ("wal.logging_wall_ratio", "ratio", Lower),
    // simnet.shared
    ("shared.allocations", "count", Lower),
    ("shared.live_peak", "count", Lower),
    ("shared.allocs_per_message", "ratio", Lower),
    // checker
    ("checker.attach_ms", "ms", Lower),
    ("checker.verdicts", "count", Higher),
    ("checker.failed", "count", Lower),
    // serde_json + RunReport
    ("report.serialize_ms", "ms", Lower),
    ("report.bytes", "count", Lower),
    ("report.parse_ms", "ms", Lower),
    // the driver step a user waits on (end-to-end where a workload has one)
    ("step_p50_us", "us", Lower),
    ("step_p95_us", "us", Lower),
    ("step_samples", "count", Higher),
    // the benchmark itself
    ("bench.iteration_ms", "ms", Lower),
    ("bench.self_share", "fraction", Lower),
    ("bench.trace_overhead", "ratio", Lower),
    ("bench.traced_iterations", "count", Higher),
];
