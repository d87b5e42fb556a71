//! WAL fault-injection suite: crash/restart cycles whose restart policy
//! damages the log ([`WalFault::TornTail`], [`WalFault::LoseUnsynced`],
//! [`WalFault::Corrupt`]) must be (1) deterministic under a fixed seed —
//! repeated runs produce byte-identical reports, fault damage included — and
//! (2) safe: a damaged log loses *suffix* rounds, never integrity, so replay
//! from the surviving durable prefix always passes the recovery oracles.
//!
//! Faults only ever touch the unsynced suffix of a log, so the default
//! `sync_every = 1` cadence makes them no-ops; these tests raise the cadence
//! through [`SyncEngine::enable_recovery`] to open a suffix worth damaging.
//!
//! [`SyncEngine::enable_recovery`]: uba_simnet::SyncEngine::enable_recovery

use uba_checker::attach_verdicts;
use uba_core::sim::{consensus_stream, RunReport, ScenarioExt, Simulation};
use uba_simnet::{ChurnEvent, ChurnSchedule, RestartPolicy, RestartRecord, WalConfig, WalFault};

const SEED: u64 = 0xFA_117;

/// One consensus run (7 correct + 2 Byzantine) whose second correct node
/// crashes at round 3 and restarts at round 6 under `policy`, write-ahead
/// logged at the given fsync cadence. Verdicts are attached so callers can
/// read the recovery oracle's opinion directly off the report.
fn faulted_run(policy: RestartPolicy, sync_every: u64) -> RunReport {
    let inputs: Vec<u64> = (0..7).map(|i| i % 2).collect();
    let builder = Simulation::scenario().correct(7).byzantine(2).seed(SEED);
    // The first 7 generated identifiers are the correct nodes; crash one that
    // is not the protocol's structural anchor.
    let victim = builder.spec().id_space.generate(9, SEED)[1];
    let churn = ChurnSchedule::empty()
        .with(3, ChurnEvent::Crash(victim))
        .with(6, ChurnEvent::Restart { id: victim, policy });
    let mut harness = builder.max_rounds(100).churn(churn).consensus(&inputs);
    // Replace the auto-enabled recovery manager (default config) with one that
    // syncs lazily enough to leave an unsynced suffix at the crash point.
    harness.engine_mut().enable_recovery(WalConfig {
        sync_every,
        compact_after: 1024,
    });
    let mut report = harness.run().expect("crash/restart run completes");
    attach_verdicts(&mut report);
    report
}

/// The single restart record of a faulted run.
fn restart(report: &RunReport) -> &RestartRecord {
    let restarts = &report
        .recovery
        .as_ref()
        .expect("a crash/restart run records a recovery section")
        .restarts;
    assert_eq!(restarts.len(), 1, "exactly one crash/restart cycle");
    &restarts[0]
}

/// Whether the report's recovery oracle passed.
fn recovery_oracle_passed(report: &RunReport) -> bool {
    report
        .verdicts
        .iter()
        .find(|verdict| verdict.oracle == "recovery")
        .expect("the recovery oracle runs on every report with a recovery section")
        .passed
}

const POLICIES: [RestartPolicy; 4] = [
    RestartPolicy::Clean,
    RestartPolicy::Fault(WalFault::TornTail),
    RestartPolicy::Fault(WalFault::LoseUnsynced),
    RestartPolicy::Fault(WalFault::Corrupt),
];

#[test]
fn every_fault_policy_is_deterministic_under_a_fixed_seed() {
    for policy in POLICIES {
        let first = faulted_run(policy, 4);
        let second = faulted_run(policy, 4);
        assert_eq!(
            first, second,
            "{policy:?}: fault damage must be a pure function of the seed"
        );
        assert_eq!(restart(&first).policy, policy);
    }
}

#[test]
fn faults_only_bite_an_unsynced_suffix() {
    // At the default every-round fsync cadence there is nothing undurable to
    // damage: every fault replays exactly like a clean restart.
    for policy in POLICIES {
        let report = faulted_run(policy, 1);
        let record = restart(&report);
        assert_eq!(
            record.dropped_records, 0,
            "{policy:?}: a fully synced log has no suffix to lose"
        );
        assert!(recovery_oracle_passed(&report));
    }

    // A lazy cadence leaves the pre-crash rounds unsynced: every fault now
    // costs replayable rounds. `dropped_records` only witnesses *checksum*
    // truncation — `LoseUnsynced` physically removes its records, so replay
    // sees a shorter but valid log and reports zero drops; the fault-damage
    // ordering lives in `recovered_rounds` instead.
    let clean = faulted_run(RestartPolicy::Clean, 4);
    let torn = faulted_run(RestartPolicy::Fault(WalFault::TornTail), 4);
    let lost = faulted_run(RestartPolicy::Fault(WalFault::LoseUnsynced), 4);
    let corrupt = faulted_run(RestartPolicy::Fault(WalFault::Corrupt), 4);
    assert_eq!(restart(&clean).dropped_records, 0);
    assert!(
        restart(&torn).dropped_records >= 1,
        "a torn tail must checksum-truncate at least the torn record"
    );
    assert_eq!(
        restart(&lost).dropped_records,
        0,
        "records the disk never saw cannot be dropped by replay"
    );
    let clean_rounds = restart(&clean).recovered_rounds;
    let torn_rounds = restart(&torn).recovered_rounds;
    let lost_rounds = restart(&lost).recovered_rounds;
    let corrupt_rounds = restart(&corrupt).recovered_rounds;
    assert!(
        torn_rounds < clean_rounds,
        "tearing the tail ({torn_rounds}) must lose a round versus clean replay ({clean_rounds})"
    );
    assert!(
        lost_rounds <= torn_rounds,
        "losing the whole suffix ({lost_rounds}) cannot recover more than tearing its tail ({torn_rounds})"
    );
    assert!(
        corrupt_rounds <= torn_rounds,
        "a corrupt first suffix record ({corrupt_rounds}) truncates at least as much as a torn tail ({torn_rounds})"
    );
}

#[test]
fn damaged_logs_still_replay_to_oracle_accepted_state() {
    // The satellite claim: a torn tail (or any fault) never yields a state the
    // recovery oracles reject — replay resumes from the durable prefix, the
    // re-produced sends match their durable records, and consumed inputs stay
    // monotone. Exercised across two lazy cadences to vary the suffix size.
    for sync_every in [2, 4] {
        for policy in POLICIES {
            let report = faulted_run(policy, sync_every);
            let record = restart(&report);
            assert!(
                recovery_oracle_passed(&report),
                "{policy:?} (sync_every = {sync_every}): recovery oracle rejected the replayed state"
            );
            assert_eq!(
                record.send_conflicts, 0,
                "{policy:?}: replay must reproduce the logged sends exactly"
            );
            assert!(
                record.consumed_monotone,
                "{policy:?}: replayed rounds must consume inputs in order"
            );
        }
    }
}

#[test]
fn a_crash_bearing_stream_restarts_its_victim_safely() {
    // A pipelined stream crashes and restarts like any single-shot run: the
    // crash-bearing schedule enables recovery in the engine, whatever the
    // factory. Safety only — the victim's in-flight instance owes no answer
    // here, so completion is not asserted.
    let builder = Simulation::scenario().correct(7).byzantine(0).seed(SEED);
    let victim = builder.spec().id_space.generate(7, SEED)[1];
    let churn = ChurnSchedule::empty()
        .with(6, ChurnEvent::Crash(victim))
        .with(
            9,
            ChurnEvent::Restart {
                id: victim,
                policy: RestartPolicy::Clean,
            },
        );
    let driver = consensus_stream(7, (0..6).map(|k| (1 + 3 * k, 1, k)));
    let mut report = builder
        .max_rounds(100)
        .churn(churn)
        .build(driver)
        .run()
        .expect("a crash-bearing stream runs");
    attach_verdicts(&mut report);
    assert_eq!(restart(&report).send_conflicts, 0);
    assert!(recovery_oracle_passed(&report));
    assert!(report
        .verdicts
        .iter()
        .any(|verdict| verdict.oracle == "stream" && verdict.passed));
}
