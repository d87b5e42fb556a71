//! Event-order pins: the `Timed` policy's delivery order is a contract *off*
//! the zero-jitter diagonal too.
//!
//! `tests/event_equivalence.rs` pins event ≡ sync only under synchronous
//! timing and checks jitter, reordering and GST only for determinism, so a
//! change that permuted a jittered inbox would pass it. This suite pins the
//! order itself: every scenario below runs under a timing the lock-step policy
//! cannot express, and the FNV-1a digest of its serialised `RunReport` (or of
//! its full delivery trace) must equal the value **recorded on the commit
//! before the flight queue became a calendar of arrival instants** — when one
//! binary heap popped one flight per recipient in `(arrival, reorder key,
//! sequence)` order. Any divergence in a recipient's inbox order changes what
//! a protocol decides, or when, and shows up in the report.
//!
//! To re-record after an *intended* behaviour change, run the suite: a
//! mismatch prints the full table of actual digests.

use uba_core::sim::{AdversaryKind, RunReport, ScenarioExt, Simulation, TotalOrderPlan};
use uba_core::Consensus;
use uba_simnet::adversary::SilentAdversary;
use uba_simnet::sim::ScenarioBuilder;
use uba_simnet::{
    ChurnEvent, ChurnSchedule, DelaySpec, Engine, EngineKind, IdSpace, NodeId, RestartPolicy,
    TimingSpec,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn report_digest(report: &RunReport) -> u64 {
    fnv1a(
        serde_json::to_string(report)
            .expect("reports serialise")
            .as_bytes(),
    )
}

/// The timings under test, none of them synchronous.
fn timings() -> Vec<(&'static str, TimingSpec)> {
    let sync = TimingSpec::synchronous;
    vec![
        // (a) eight arrival instants inside every round, same-instant order
        // shuffled by a seeded key.
        (
            "jitter+reorder",
            sync()
                .units(8)
                .with_delay(DelaySpec::Jitter { min: 1, max: 8 })
                .reorder(0x5EED),
        ),
        // (b) every message crosses two round boundaries.
        (
            "constant-3",
            sync().with_delay(DelaySpec::Constant { units: 3 }),
        ),
        // (c) a silent prologue, then a two-unit bound.
        (
            "gst-3-2",
            sync().with_delay(DelaySpec::Gst { gst: 3, bound: 2 }),
        ),
        // (d) cross-half messages arrive two rounds after intra-half ones.
        (
            "partition-cross-3",
            sync().with_delay(DelaySpec::PartitionHalves { cross: Some(3) }),
        ),
        // (e) skewed timers: partial batches under local round numbers.
        ("skew-2", sync().units(4).skew(2)),
        // (f) jitter across round boundaries in scheduling order (no reorder
        // key): a broadcast splits into one run per arrival instant.
        (
            "jitter-cross-round",
            sync().with_delay(DelaySpec::Jitter { min: 1, max: 3 }),
        ),
    ]
}

fn scenario(seed: u64, timing: &TimingSpec) -> ScenarioBuilder {
    Simulation::scenario()
        .correct(7)
        .byzantine(2)
        .seed(seed)
        .max_rounds(80)
        .engine(EngineKind::Event(timing.clone()))
}

fn consensus(timing: &TimingSpec) -> RunReport {
    let inputs: Vec<u64> = (0..7).map(|i| i % 2).collect();
    scenario(42, timing)
        .adversary(AdversaryKind::SplitVote)
        .consensus(&inputs)
        .run()
        .unwrap()
}

fn reliable_broadcast(timing: &TimingSpec) -> RunReport {
    scenario(43, timing)
        .adversary(AdversaryKind::PartialAnnounce)
        .broadcast(42)
        .rounds(16)
        .run()
        .unwrap()
}

fn total_order(timing: &TimingSpec) -> RunReport {
    let plan = TotalOrderPlan::rounds(24)
        .event(2, 0, 11)
        .event(3, 1, 22)
        .event(9, 3, 33)
        .leave(10, 2);
    scenario(0xE0, timing)
        .adversary(AdversaryKind::Worst)
        .total_order(plan)
        .run()
        .unwrap()
}

/// The second correct identifier of a 7 + 2 scenario under `seed`.
fn victim(seed: u64) -> NodeId {
    IdSpace::default().generate(9, seed)[1]
}

/// A crash/restart cycle under a four-unit link delay: flights sent to the
/// victim before it crashed come due while it is down (discarded) and after it
/// is back (delivered to the restarted node).
fn consensus_crash_restart() -> RunReport {
    let timing = TimingSpec::synchronous().with_delay(DelaySpec::Constant { units: 4 });
    let inputs: Vec<u64> = (0..7).map(|i| i % 2).collect();
    let victim = victim(42);
    let churn = ChurnSchedule::empty()
        .with(3, ChurnEvent::Crash(victim))
        .with(
            5,
            ChurnEvent::Restart {
                id: victim,
                policy: RestartPolicy::Clean,
            },
        );
    scenario(42, &timing)
        .adversary(AdversaryKind::SplitVote)
        .churn(churn)
        .consensus(&inputs)
        .run()
        .unwrap()
}

/// A `Leave` with flights still in the air: the leaver is gone when the
/// three-unit-delayed messages addressed to it arrive.
fn broadcast_leave() -> RunReport {
    let timing = TimingSpec::synchronous()
        .with_delay(DelaySpec::Constant { units: 3 })
        .reorder(9);
    let churn = ChurnSchedule::empty().with(3, ChurnEvent::LeaveCorrect(victim(43)));
    scenario(43, &timing)
        .adversary(AdversaryKind::PartialAnnounce)
        .churn(churn)
        .broadcast(42)
        .rounds(16)
        .run()
        .unwrap()
}

/// The global delivery order — not only each inbox's — under timing (a): the
/// digest of the full trace of a seven-node consensus run.
fn consensus_trace_digest() -> u64 {
    let ids = IdSpace::default().generate(7, 42);
    let nodes: Vec<Consensus<u64>> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| Consensus::new(id, i as u64 % 2))
        .collect();
    let mut engine = Engine::with_timing(nodes, SilentAdversary, vec![], &timings()[0].1, 42);
    engine.enable_trace();
    engine.run_to_termination(80).unwrap();
    let trace = engine.trace().expect("tracing enabled");
    assert_eq!(trace.dropped(), 0, "the trace holds every delivery");
    assert_eq!(trace.events().len() as u64, engine.metrics().deliveries);
    let rendered: String = trace
        .events()
        .iter()
        .map(|e| format!("{} {:?} {:?} {:?}\n", e.round, e.from, e.to, e.payload()))
        .collect();
    fnv1a(rendered.as_bytes())
}

/// `(name, digest)` as recorded on the parent commit (see module docs).
const PINS: &[(&str, u64)] = &[
    ("consensus/jitter+reorder", 0xf2e5c06f2355ce81),
    ("reliable-broadcast/jitter+reorder", 0x32cd552039215af5),
    ("total-order/jitter+reorder", 0x69efe8d3fb0b363f),
    ("consensus/constant-3", 0x97f791a26f0f5cf8),
    ("reliable-broadcast/constant-3", 0xf3b559c734158971),
    ("total-order/constant-3", 0xd4ccde32102e7c23),
    ("consensus/gst-3-2", 0x7d3f1f4dc2d5c061),
    ("reliable-broadcast/gst-3-2", 0x8e9cfbcefb919ffc),
    ("total-order/gst-3-2", 0x637f44561a1ae8d7),
    ("consensus/partition-cross-3", 0xc0a9d047e051d09b),
    ("reliable-broadcast/partition-cross-3", 0x6b43b5daf85c18bf),
    ("total-order/partition-cross-3", 0x4b21cf6a04b4134e),
    ("consensus/skew-2", 0x71ebf15f7f9e8f7e),
    ("reliable-broadcast/skew-2", 0xad3873fb457df776),
    ("total-order/skew-2", 0xfe54a9491781a78f),
    ("consensus/jitter-cross-round", 0x38b1b0d72ef002bc),
    ("reliable-broadcast/jitter-cross-round", 0xf9954381ef466b0e),
    ("total-order/jitter-cross-round", 0x3348b4d193396c30),
    ("consensus/crash-restart", 0x2ecca44a95bb5c7e),
    ("reliable-broadcast/leave", 0x2824b253bec80fab),
    ("consensus/jitter+reorder/trace", 0x42694862db29b2da),
];

#[test]
fn reports_and_traces_match_the_digests_recorded_before_the_calendar() {
    type Family = (&'static str, fn(&TimingSpec) -> RunReport);
    let families: [Family; 3] = [
        ("consensus", consensus),
        ("reliable-broadcast", reliable_broadcast),
        ("total-order", total_order),
    ];
    let mut actual: Vec<(String, u64)> = Vec::new();
    for (timing_name, timing) in &timings() {
        assert!(!timing.is_synchronous());
        for (family, run) in &families {
            let report = run(timing);
            assert!(
                report.messages.deliveries > 0,
                "{family}/{timing_name}: nothing was delivered, the pin is vacuous"
            );
            actual.push((format!("{family}/{timing_name}"), report_digest(&report)));
        }
    }
    let crash = consensus_crash_restart();
    let recovery = crash.recovery.as_ref().expect("a recovery section");
    assert_eq!(recovery.restarts.len(), 1, "one crash/restart cycle");
    actual.push(("consensus/crash-restart".into(), report_digest(&crash)));
    actual.push((
        "reliable-broadcast/leave".into(),
        report_digest(&broadcast_leave()),
    ));
    actual.push((
        "consensus/jitter+reorder/trace".into(),
        consensus_trace_digest(),
    ));

    let table: String = actual
        .iter()
        .map(|(name, digest)| format!("    (\"{name}\", {digest:#018x}),\n"))
        .collect();
    let recorded: Vec<(String, u64)> = PINS
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert!(
        actual == recorded,
        "delivery order diverged from the recorded pins; actual digests:\n{table}"
    );
}
