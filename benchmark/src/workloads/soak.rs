//! `soak-crash`: total order under continuous crash/restart churn — the only
//! workload where write-ahead-log append, compaction and replay do most of
//! the work.
//!
//! A correct node crashes every [`Shape::crash_period`] rounds and restarts
//! [`Shape::downtime`] rounds later, rotating over three seed-chosen victims
//! and the four restart policies (clean, torn tail, lost unsynced suffix,
//! corrupt record). The log syncs every second commit, so the faulty restarts
//! have an unsynced suffix to lose: durability is tested by discarding
//! everything after the last sync. Founder 0 never crashes and submits one
//! event every other round until the finality tail before the horizon, so
//! every submitted event can finalise.

use crate::surface::{
    derive_seed, ChurnEvent, ChurnSchedule, IdSpace, RestartPolicy, Simulation, TotalOrderFactory,
    TotalOrderPlan, WalConfig, WalFault,
};
use crate::trace::Tracer;
use crate::workloads::stream::finality_tail;
use crate::workloads::{histogram, Driver, Outcome, Plan, Size, Twin};

/// The restart-policy rotation: each completed cycle uses the next policy.
const POLICIES: [RestartPolicy; 4] = [
    RestartPolicy::Clean,
    RestartPolicy::Fault(WalFault::TornTail),
    RestartPolicy::Fault(WalFault::LoseUnsynced),
    RestartPolicy::Fault(WalFault::Corrupt),
];

/// Distinct victims the crash schedule rotates over.
const VICTIMS: usize = 3;

/// The soak shape.
struct Shape {
    /// Correct nodes (no Byzantine identities: the adversary is time).
    nodes: usize,
    /// Horizon in rounds.
    rounds: u64,
    /// A crash is scheduled every this many rounds, from round 2.
    crash_period: u64,
    /// Rounds a victim stays down.
    downtime: u64,
}

impl Shape {
    fn of(size: Size) -> Shape {
        match size {
            Size::Full => Shape {
                nodes: 24,
                rounds: 240,
                crash_period: 5,
                downtime: 2,
            },
            Size::Quick => Shape {
                nodes: 5,
                rounds: 64,
                crash_period: 5,
                downtime: 2,
            },
        }
    }

    /// The rounds before which a victim restarts, ascending. A cycle that
    /// would not complete inside the horizon is not scheduled.
    fn restart_rounds(&self) -> Vec<u64> {
        (2..)
            .step_by(self.crash_period as usize)
            .map(|crash| crash + self.downtime)
            .take_while(|&restart| restart < self.rounds)
            .collect()
    }
}

/// One soak run.
pub fn iterate(plan: &Plan, tracer: &mut Tracer) -> Outcome {
    let shape = Shape::of(plan.size);
    let mut driver = Driver::start(tracer);

    let span = driver.tracer.open("workload.gen", 0);
    let scenario_seed = derive_seed(plan.seed, 0x50);
    let ids = IdSpace::default().generate(shape.nodes, scenario_seed);
    // Victims are drawn from indices 1.. by a seeded ranking, so founder 0
    // (the submitter) is always up.
    let mut ranked: Vec<usize> = (1..shape.nodes).collect();
    ranked.sort_by_key(|&index| derive_seed(derive_seed(plan.seed, 0x51), index as u64));
    let victims = &ranked[..VICTIMS.min(ranked.len())];
    let quiet = matches!(plan.twin, Twin::QuietWalOn | Twin::QuietWalOff);
    let mut churn = ChurnSchedule::empty();
    if !quiet {
        driver.out.restart_rounds = shape.restart_rounds();
        for (cycle, &restart) in driver.out.restart_rounds.iter().enumerate() {
            let victim = ids[victims[cycle % victims.len()]];
            churn = churn
                .with(restart - shape.downtime, ChurnEvent::Crash(victim))
                .with(
                    restart,
                    ChurnEvent::Restart {
                        id: victim,
                        policy: POLICIES[cycle % POLICIES.len()],
                    },
                );
        }
    }
    let last_submission = shape.rounds.saturating_sub(finality_tail(shape.nodes));
    let mut order = TotalOrderPlan::rounds(shape.rounds);
    let mut submitted = 0;
    for round in (1..last_submission).step_by(2) {
        order = order.event(round, 0, round);
        submitted += 1;
    }
    driver.tracer.close(span);

    let span = driver.tracer.open("sim.build", 0);
    let mut harness = Simulation::scenario()
        .correct(shape.nodes)
        .seed(scenario_seed)
        .max_rounds(shape.rounds + 1)
        .churn(churn)
        .build(TotalOrderFactory::new(order));
    if plan.twin != Twin::QuietWalOff {
        harness = harness.wal_config(WalConfig {
            compact_after: 64,
            sync_every: 2,
        });
    }
    if plan.twin != Twin::GcOff {
        harness = harness.traffic_gc();
    }
    driver.tracer.close(span);
    driver.setup_done();

    let mut finalised_in = Vec::new();
    driver.drive(&mut harness, shape.rounds, |harness| {
        finalised_in.resize(harness.nodes()[0].chain().len(), harness.rounds_executed());
    });
    let (report, json) = driver.finish(&harness, 0);

    let chain = harness.nodes()[0].chain();
    // The event's payload is the round it was due.
    let latencies = chain
        .iter()
        .zip(&finalised_in)
        .map(|(ordered, &finalised)| (finalised - ordered.event, 1));
    let restarts = harness.recovery_restarts();
    let sum = |field: fn(&crate::surface::RestartRecord) -> u64| restarts.iter().map(field).sum();
    let extra = vec![
        ("restarts", restarts.len() as u64),
        ("wal_recovered_rounds", sum(|r| r.recovered_rounds)),
        ("wal_replayed_rounds", sum(|r| r.replayed_rounds)),
        ("wal_dropped_records", sum(|r| r.dropped_records)),
    ];
    let unfinalised = submitted - (chain.len() as u64).min(submitted);
    driver.seal(
        report,
        json,
        submitted,
        unfinalised,
        histogram(latencies),
        extra,
    )
}
