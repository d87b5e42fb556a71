//! The seven workloads and the pipeline pieces they share.
//!
//! An *iteration* is the whole pipeline a user pays for: generate inputs →
//! build harness → drive rounds → `report_now` → `attach_verdicts` →
//! `serde_json::to_string`, plus the benchmark's own request accounting (its
//! share is the `iteration` span's self time). Every workload is a function
//! from a [`Plan`] to one iteration's [`Outcome`].

use std::time::Instant;

use crate::surface::{attach_verdicts, json_to_string, Harness, ProtocolFactory, RunReport};
use crate::trace::Tracer;

pub mod consensus;
pub mod grid;
pub mod soak;
pub mod stream;

/// Reports at or above this size are never parsed back: the offline JSON
/// parser is superlinear (0.5 s at 282 KB, 2 s at 467 KB).
pub const PARSE_LIMIT_BYTES: usize = 1 << 20;

/// Seed of the reference numbers and of `expected.json`.
pub const DEFAULT_SEED: u64 = 0xBE_4C_11;

/// Workload size: the measured shape, or the tiny one the tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The shape the reference numbers were taken at.
    Full,
    /// Same code paths at a fraction of the size (`--quick`).
    Quick,
}

/// A differential twin of a workload: the same inputs with one mechanism
/// switched, run once in the traced run to price that mechanism.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Twin {
    /// The workload as defined.
    None,
    /// Parallel node stepping on (`engine.parallel_speedup`).
    Parallel,
    /// Traffic GC off (`engine.gc_*_ratio`).
    GcOff,
    /// The sync engine on identical traffic (`event.over_sync`).
    SyncEngine,
    /// Crash-free, write-ahead logging forced on (`wal.logging_wall_ratio`).
    QuietWalOn,
    /// Crash-free, no write-ahead logging.
    QuietWalOff,
}

/// What to run: inputs are a pure function of `seed` and `size`.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Workload seed; every input stream derives from it.
    pub seed: u64,
    /// Workload size.
    pub size: Size,
    /// Which differential twin to run.
    pub twin: Twin,
}

/// The seven workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fuzz grid of small adversarial cases on both engines.
    GridSmall,
    /// Single-shot split-vote consensus at n = 128, sync engine.
    ConsensusN128,
    /// The same scenario on the zero-jitter event engine.
    ConsensusN128Event,
    /// Split-vote consensus at n = 96 under in-round jitter and reordering.
    ConsensusN96Jitter,
    /// 1 000 pipelined consensus instances behind the mux.
    StreamConsensus,
    /// Batched total-order stream.
    StreamTotalOrder,
    /// Total order under continuous crash/restart churn with WAL faults.
    SoakCrash,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 7] = [
        Workload::GridSmall,
        Workload::ConsensusN128,
        Workload::ConsensusN128Event,
        Workload::ConsensusN96Jitter,
        Workload::StreamConsensus,
        Workload::StreamTotalOrder,
        Workload::SoakCrash,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridSmall => "grid-small",
            Workload::ConsensusN128 => "consensus-n128",
            Workload::ConsensusN128Event => "consensus-n128-event",
            Workload::ConsensusN96Jitter => "consensus-n96-jitter",
            Workload::StreamConsensus => "stream-consensus",
            Workload::StreamTotalOrder => "stream-total-order",
            Workload::SoakCrash => "soak-crash",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether one driver step is a homogeneous unit that supports the step
    /// percentiles. A single-shot consensus run is 12 heterogeneous rounds:
    /// its pooled median would sit on the boundary between two round shapes.
    pub fn reports_steps(self) -> bool {
        !matches!(
            self,
            Workload::ConsensusN128 | Workload::ConsensusN128Event | Workload::ConsensusN96Jitter
        )
    }

    /// The differential twins the traced run adds for this workload.
    pub fn twins(self) -> &'static [Twin] {
        match self {
            // The grid splits its own pass by engine; no extra run.
            Workload::GridSmall => &[],
            Workload::ConsensusN128 => &[Twin::Parallel],
            Workload::ConsensusN128Event | Workload::ConsensusN96Jitter => {
                &[Twin::Parallel, Twin::SyncEngine]
            }
            Workload::StreamConsensus | Workload::StreamTotalOrder => &[Twin::GcOff],
            Workload::SoakCrash => &[Twin::GcOff, Twin::QuietWalOn, Twin::QuietWalOff],
        }
    }

    /// Runs one iteration.
    pub fn iterate(self, plan: &Plan, tracer: &mut Tracer) -> Outcome {
        match self {
            Workload::GridSmall => grid::iterate(plan, tracer),
            Workload::ConsensusN128 => consensus::iterate(consensus::Shape::N128, plan, tracer),
            Workload::ConsensusN128Event => {
                consensus::iterate(consensus::Shape::N128Event, plan, tracer)
            }
            Workload::ConsensusN96Jitter => {
                consensus::iterate(consensus::Shape::N96Jitter, plan, tracer)
            }
            Workload::StreamConsensus => stream::consensus(plan, tracer),
            Workload::StreamTotalOrder => stream::total_order(plan, tracer),
            Workload::SoakCrash => soak::iterate(plan, tracer),
        }
    }
}

/// The per-round gauges, sampled in the traced run only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauges {
    /// Peak of `Harness::queued_envelopes`.
    pub queued_peak: u64,
    /// Peak of `Harness::wal_entries`.
    pub wal_entries_peak: u64,
    /// Peak of `shared::live_allocations`.
    pub live_peak: u64,
}

/// Everything one iteration produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds before the first round ran: input generation, batching,
    /// factory construction, `ScenarioBuilder::build`, WAL/GC enablement.
    pub setup_s: f64,
    /// Host microseconds of each driver step (one `step_round`, or one grid
    /// case build → run → check).
    pub steps_us: Vec<f64>,
    /// Soak only: the rounds before which the churn schedule restarts a node
    /// (ascending), so step samples can be split by whether one was due.
    pub restart_rounds: Vec<u64>,
    /// Grid only: seconds spent in sync-engine and event-engine cases.
    pub engine_split_s: (f64, f64),
    /// Simulated latency histogram, ascending `(rounds, samples)`.
    pub latency_rounds: Vec<(u64, u64)>,
    /// Agreement instances the workload asked for.
    pub attempted: u64,
    /// Instances undecided at the end, red under an oracle, or errored.
    pub failed: u64,
    /// Deterministic columns, `(name, value)` — equal across iterations and
    /// processes under one seed.
    pub counts: Vec<(&'static str, u64)>,
    /// Traced run only.
    pub gauges: Gauges,
    /// Traced run only: one report under [`PARSE_LIMIT_BYTES`] and its JSON,
    /// for the parse-back equality check made after the clock stops.
    pub report: Option<(RunReport, String)>,
}

impl Outcome {
    /// A deterministic column by name (0 when the workload does not have it).
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(key, _)| *key == name)
            .map_or(0, |&(_, value)| value)
    }

    /// Instances decided with every oracle green.
    pub fn decisions(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Folds `bytes` into a running 64-bit digest (FNV-1a over 8-byte words).
/// Reports are digested so that byte-identity — across iterations, processes
/// and the differential twins — is one comparable column.
pub fn digest(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        hash = (hash ^ word).wrapping_mul(PRIME);
    }
    for &byte in words.remainder() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    hash
}

/// Starting value of [`digest`].
pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Collapses latency samples into the ascending histogram [`Outcome`] carries.
pub fn histogram(samples: impl IntoIterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mut bins = std::collections::BTreeMap::new();
    for (rounds, weight) in samples {
        *bins.entry(rounds).or_insert(0) += weight;
    }
    bins.into_iter().collect()
}

/// The engine phases `Harness::phase_timings` names, with their span names.
const PHASES: [(&str, &str); 6] = [
    ("step", "engine.step"),
    ("produce", "engine.produce"),
    ("adversary", "engine.adversary"),
    ("deliver", "engine.deliver"),
    ("schedule", "event.schedule"),
    ("dispatch", "event.dispatch"),
];

/// Drives a harness round by round and records what the benchmark sees of it.
pub struct Driver<'t> {
    /// The span recorder (off in the untraced run).
    pub tracer: &'t mut Tracer,
    /// The outcome under construction.
    pub out: Outcome,
    started: Instant,
    allocations_before: u64,
    phase_ns: [u64; PHASES.len()],
    errored: bool,
}

impl<'t> Driver<'t> {
    /// Starts the iteration clock.
    pub fn start(tracer: &'t mut Tracer) -> Self {
        Driver {
            tracer,
            out: Outcome::default(),
            started: Instant::now(),
            allocations_before: crate::surface::allocations(),
            phase_ns: [0; PHASES.len()],
            errored: false,
        }
    }

    /// Marks the end of set-up: everything since [`Driver::start`] was input
    /// generation and harness construction.
    pub fn setup_done(&mut self) {
        self.out.setup_s = self.started.elapsed().as_secs_f64();
    }

    /// `Shared` payload allocations since [`Driver::start`] (the counter is
    /// process-global; the benchmark is single-threaded while it is read).
    pub fn allocations(&self) -> u64 {
        crate::surface::allocations() - self.allocations_before
    }

    /// Steps the harness to its stop condition or `cap` rounds, timing every
    /// `step_round` (sample `i` is round `i + 1`). `after_round` sees the
    /// harness after each round: stream accounting samples the finalised chain
    /// there.
    pub fn drive<F: ProtocolFactory>(
        &mut self,
        harness: &mut Harness<F>,
        cap: u64,
        mut after_round: impl FnMut(&Harness<F>),
    ) {
        self.reset_phases();
        while !harness.stopped() && harness.rounds_executed() < cap {
            let round = harness.rounds_executed() + 1;
            let span = self.tracer.open("round", round);
            let clock = Instant::now();
            let stepped = harness.step_round();
            self.out.steps_us.push(clock.elapsed().as_secs_f64() * 1e6);
            if span.is_some() {
                self.phase_children(harness, span, round);
                self.sample_gauges(harness);
                self.tracer.close(span);
            }
            if stepped.is_err() {
                self.errored = true;
                break;
            }
            after_round(harness);
        }
    }

    /// Records the growth of each engine phase since the last call as children
    /// of `parent`, laid end to end from its start.
    pub fn phase_children<F: ProtocolFactory>(
        &mut self,
        harness: &Harness<F>,
        parent: crate::trace::Open,
        round: u64,
    ) {
        let timings = harness.phase_timings();
        let mut cursor = self.tracer.start_of(parent);
        for (slot, (phase, name)) in PHASES.iter().enumerate() {
            let total = timings.get(phase);
            let delta = total - self.phase_ns[slot];
            self.phase_ns[slot] = total;
            if delta > 0 {
                self.tracer.leaf(name, round, cursor, cursor + delta);
                cursor += delta;
            }
        }
    }

    /// Forgets the phase totals (a new harness starts its timings from zero).
    pub fn reset_phases(&mut self) {
        self.phase_ns = [0; PHASES.len()];
    }

    fn sample_gauges<F: ProtocolFactory>(&mut self, harness: &Harness<F>) {
        let gauges = &mut self.out.gauges;
        gauges.queued_peak = gauges.queued_peak.max(harness.queued_envelopes() as u64);
        gauges.wal_entries_peak = gauges.wal_entries_peak.max(harness.wal_entries() as u64);
        gauges.live_peak = gauges.live_peak.max(crate::surface::live_allocations());
    }

    /// The tail of the pipeline: `report_now` → `attach_verdicts` →
    /// `serde_json::to_string`. Returns the report and its JSON.
    /// `round` labels the spans (the grid passes its case index).
    pub fn finish<F: ProtocolFactory>(
        &mut self,
        harness: &Harness<F>,
        round: u64,
    ) -> (RunReport, String) {
        let span = self.tracer.open("sim.report", round);
        let mut report = harness.report_now();
        self.tracer.close(span);
        let span = self.tracer.open("checker.attach", round);
        attach_verdicts(&mut report);
        self.tracer.close(span);
        let span = self.tracer.open("report.serialize", round);
        let json = json_to_string(&report).expect("reports serialise");
        self.tracer.close(span);
        (report, json)
    }

    /// Closes the iteration: fills in the operation accounting, the
    /// deterministic columns every harness workload reports (plus the
    /// workload's `extra` ones), and keeps a small report for the traced
    /// run's parse-back check. An engine error fails every operation.
    pub fn seal(
        mut self,
        report: RunReport,
        json: String,
        attempted: u64,
        failed: u64,
        latency_rounds: Vec<(u64, u64)>,
        extra: Vec<(&'static str, u64)>,
    ) -> Outcome {
        // The total-order and stream guarantees live in report sections, not
        // in oracle verdicts.
        let green = !self.errored
            && report.verdicts_passed()
            && report.chain.as_ref().is_none_or(|chain| chain.prefix_ok)
            && report.stream.as_ref().is_none_or(|stream| stream.agreement);
        self.out.attempted = attempted;
        self.out.failed = if green { failed } else { attempted };
        self.out.latency_rounds = latency_rounds;
        self.out.counts = vec![
            ("rounds", report.rounds),
            (
                "messages",
                report.messages.correct + report.messages.byzantine,
            ),
            ("deliveries", report.messages.deliveries),
            ("decisions", self.out.decisions()),
            ("verdicts", report.verdicts.len() as u64),
            (
                "verdicts_failed",
                report.verdicts.iter().filter(|v| !v.passed).count() as u64,
            ),
            ("report_bytes", json.len() as u64),
            ("report_digest", digest(DIGEST_SEED, json.as_bytes())),
            ("shared_allocations", self.allocations()),
        ];
        self.out.counts.extend(extra);
        if self.tracer.enabled() && json.len() < PARSE_LIMIT_BYTES {
            self.out.report = Some((report, json));
        }
        self.out
    }
}
