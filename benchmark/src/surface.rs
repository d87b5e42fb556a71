//! The repository surface the benchmark stands on — every symbol of the
//! measured program that this crate calls, re-exported from one place.
//!
//! Later changes are measured by building this crate, unchanged, against their
//! tree. A change that renames or reshapes anything listed here must keep the
//! old signature alive (as a shim if need be) until a `benchmark` change moves
//! off it. `README.md` carries the same list with the methods used on each
//! type.

/// The scenario builder, the typed harness and the report currency.
pub use uba_simnet::sim::{ProtocolFactory, RunReport, ScenarioBuilder, ScenarioSpec, Simulation};
/// `Harness::{step_round, stopped, rounds_executed, report_now, traffic_gc,
/// wal_config, parallel_stepping, phase_timings, queued_envelopes,
/// wal_entries, recovery_restarts, nodes}` are the only methods called.
pub use uba_simnet::Harness;

/// Engine selection and timing.
pub use uba_simnet::{DelaySpec, EngineKind, TimingSpec};

/// Scenario axes: attacks, churn, crash/restart policies, WAL tuning.
pub use uba_simnet::attack::{AttackBehavior, AttackPlan, AttackStep, SemanticStrategy};
pub use uba_simnet::sim::AdversaryKind;
pub use uba_simnet::{
    ChurnEvent, ChurnSchedule, CrashPlan, IdSpace, NodeId, RestartPolicy, RestartRecord,
    ScenarioGrid, WalConfig, WalFault,
};

/// Seed derivation (every input stream of the benchmark goes through this).
pub use uba_simnet::rng::derive_seed;

/// Process-global payload allocation counters (`simnet.shared` layer).
pub use uba_simnet::shared::{allocations, live_allocations};

/// The stream plane: `MuxNode::work()` and its counters.
pub use uba_simnet::MuxWork;

/// The id-only protocol factories and the pipelined consensus stream.
pub use uba_core::sim::{
    consensus_stream, ApproxFactory, BroadcastFactory, ConsensusFactory, ParallelConsensusFactory,
    RotorFactory, TotalOrderFactory, TotalOrderPlan,
};

/// The known-`(n, f)` baseline factories.
pub use uba_baselines::{
    DolevApproxFactory, KnownRotorFactory, PhaseKingFactory, StBroadcastFactory,
};

/// The oracle layer.
pub use uba_checker::attach_verdicts;

/// The fuzz layer: case lowering and the property set. `run_case` is the
/// reference the benchmark's own ten-family wiring is tested against.
pub use uba_bench::fuzz::{case_failures, run_case, FuzzCase, ProtocolId};

/// The open-loop request generator.
pub use uba_bench::workload::{open_loop_requests, StreamRequest};

/// Report serialisation (the offline `serde_json` stand-in).
pub use serde_json::{
    from_str as json_from_str, to_string as json_to_string,
    to_string_pretty as json_to_string_pretty, Value as Json,
};
