//! Property-based fuzzing over the scenario-sweep DSL, with a shrinking
//! counterexample minimiser.
//!
//! The pipeline is: a [`ScenarioGrid`] enumerates protocols × `(n, f)` sizes ×
//! [`AttackPlan`]s × churn schedules × crash plans × derived seeds
//! (`uba_simnet::sweep`); each
//! case runs through the `Simulation` builder via [`run_case`] with deterministic,
//! seed-derived inputs; the `uba-checker` oracles plus a few structural liveness
//! checks act as the *properties* ([`case_failures`]); and any failing case is
//! greedily minimised by [`shrink_case`] — fewer correct nodes, fewer Byzantine
//! identities, fewer plan steps, fewer churn events — into a small serialized
//! [`FuzzCase`] reproducer that replays with [`run_case`] (or
//! `experiments -- fuzz --replay <file>`).
//!
//! Trials fan out over the [`run_trials`] worker pool; because the grid's case
//! enumeration and per-case seeds are pure functions of the grid definition, the
//! fuzz outcome is byte-for-byte identical regardless of the worker count.
//!
//! Properties are only asserted on *admissible* scenarios
//! ([`ScenarioSpec::admissible`]: `n > 3f` at the start and across the churn
//! horizon) — outside the bound the theorems make no promise and a violated
//! property is not a bug.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use uba_baselines::{DolevApproxFactory, KnownRotorFactory, PhaseKingFactory, StBroadcastFactory};
use uba_checker::{attach_verdicts, margin};
use uba_core::sim::{
    ApproxFactory, BroadcastFactory, ConsensusFactory, ParallelConsensusFactory, RotorFactory,
    TotalOrderFactory, TotalOrderPlan,
};
use uba_simnet::attack::{
    AdaptiveStrategy, AttackBehavior, AttackPlan, AttackStep, SemanticStrategy,
};
use uba_simnet::sim::{AdversaryKind, RunReport, ScenarioBuilder, ScenarioSpec};
use uba_simnet::sweep::{CrashPlan, ScenarioGrid, SweepCase};
use uba_simnet::{
    ChurnEvent, ChurnSchedule, EngineKind, IdSpace, NodeId, RestartPolicy, TimingSpec,
};

use crate::montecarlo::{run_trials, SweepConfig};
use crate::table::Table;

/// Every protocol and baseline family the `Simulation` driver can run — the
/// protocol axis of the fuzz grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolId {
    /// Algorithm 3, id-only consensus.
    Consensus,
    /// Algorithm 1, id-only reliable broadcast with a correct designated sender.
    ReliableBroadcast,
    /// Algorithm 2, id-only rotor-coordinator.
    Rotor,
    /// Algorithm 4, id-only approximate agreement.
    Approx,
    /// Algorithm 5, id-only parallel consensus.
    ParallelConsensus,
    /// Algorithm 6, id-only dynamic total ordering.
    TotalOrder,
    /// Berman–Garay–Perry phase-king consensus (knows `n`, `f`).
    PhaseKing,
    /// Srikanth–Toueg authenticated broadcast (knows `f`).
    SrikanthToueg,
    /// Dolev et al. approximate agreement (knows `f`).
    DolevApprox,
    /// The known-`f` rotating coordinator.
    KnownRotor,
}

impl ProtocolId {
    /// All ten protocol/baseline families, in a stable order.
    pub const ALL: [ProtocolId; 10] = [
        ProtocolId::Consensus,
        ProtocolId::ReliableBroadcast,
        ProtocolId::Rotor,
        ProtocolId::Approx,
        ProtocolId::ParallelConsensus,
        ProtocolId::TotalOrder,
        ProtocolId::PhaseKing,
        ProtocolId::SrikanthToueg,
        ProtocolId::DolevApprox,
        ProtocolId::KnownRotor,
    ];

    /// Stable lowercase name (matches the factory's `protocol_name`).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolId::Consensus => "consensus",
            ProtocolId::ReliableBroadcast => "reliable-broadcast",
            ProtocolId::Rotor => "rotor",
            ProtocolId::Approx => "approx-agreement",
            ProtocolId::ParallelConsensus => "parallel-consensus",
            ProtocolId::TotalOrder => "total-order",
            ProtocolId::PhaseKing => "phase-king",
            ProtocolId::SrikanthToueg => "srikanth-toueg",
            ProtocolId::DolevApprox => "dolev-approx",
            ProtocolId::KnownRotor => "known-rotor",
        }
    }

    /// Whether the family's factories assume consecutive identifiers.
    pub(crate) fn needs_consecutive_ids(self) -> bool {
        matches!(self, ProtocolId::PhaseKing | ProtocolId::KnownRotor)
    }

    /// For families whose theorem oracle **cannot** fail at `n = 3f`, the
    /// documented reason why — the "test-documented impossibility" half of the
    /// boundary matrix. `None` means the family is expected to yield an
    /// `n = 3f` counterexample under the boundary grid's attack plans.
    pub fn boundary_immunity(self) -> Option<&'static str> {
        match self {
            // The known-f rotating coordinator only ever consults the
            // coordinators with identifiers 0…f. Under the consecutive layout
            // the factory requires, those are all correct nodes (the adversary
            // holds the *top* f identifiers), the schedule needs no
            // communication to agree on, and sender authentication stops a
            // Byzantine identity from speaking as a scheduled coordinator. The
            // first slot is therefore always a good round and the run always
            // terminates after f + 2 rounds — at n = 3f exactly as at n > 3f.
            ProtocolId::KnownRotor => Some(
                "the known-f schedule consults only coordinators 0…f, which the consecutive \
                 layout makes all-correct; sender authentication blocks every vocabulary payload",
            ),
            _ => None,
        }
    }
}

/// A self-contained, serialisable fuzz reproducer: one protocol family plus the
/// full scenario (sizes, seed, plan, churn, budget). Inputs are derived
/// deterministically from the spec inside [`run_case`], so the case is the whole
/// recipe.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FuzzCase {
    /// The protocol family to run.
    pub protocol: ProtocolId,
    /// The scenario to run it in.
    pub spec: ScenarioSpec,
}

impl FuzzCase {
    /// Lowers a sweep case onto a runnable fuzz case, normalising the identifier
    /// space for the families that require consecutive identifiers.
    pub fn from_sweep(case: &SweepCase<ProtocolId>) -> Self {
        let mut spec = case.spec.clone();
        if case.protocol.needs_consecutive_ids() {
            // The sweep grid resolved any crash-plan victims against the
            // *original* identifier layout; switching the layout out from
            // under them would leave the schedule crashing ghosts.
            spec.id_space = IdSpace::Consecutive;
            rebind_crash_victims(&mut spec);
        }
        FuzzCase {
            protocol: case.protocol,
            spec,
        }
    }

    /// A one-line description used in logs and tables.
    pub fn describe(&self) -> String {
        format!(
            "{} n={} f={} seed={} plan={}",
            self.protocol.name(),
            self.spec.correct,
            self.spec.byzantine,
            self.spec.seed,
            self.spec
                .attack
                .as_ref()
                .map(AttackPlan::label)
                .unwrap_or_else(|| self.spec.adversary.name().to_string()),
        )
    }
}

/// Re-resolves the crash/restart victims of a spec whose population or
/// identifier layout changed after the sweep grid resolved them (the
/// consecutive-id normalisation of [`FuzzCase::from_sweep`], the
/// population-shrinking moves of [`shrink_case`]): any crash-cycle identifier
/// that is no longer a live *correct* identifier of the current layout is
/// redirected onto the first correct identifier not already claimed by another
/// cycle, and cycles that cannot be re-homed (more victims than correct nodes)
/// are dropped. A spec whose victims are all still valid is left untouched, so
/// the pass is idempotent and free on crash-less specs.
pub(crate) fn rebind_crash_victims(spec: &mut ScenarioSpec) {
    let victims = spec.churn.crash_cycle_ids();
    if victims.is_empty() {
        return;
    }
    let ids = spec
        .id_space
        .generate(spec.correct + spec.byzantine, spec.seed);
    let correct_ids = &ids[..spec.correct];
    let mut taken: Vec<NodeId> = victims
        .iter()
        .copied()
        .filter(|v| correct_ids.contains(v))
        .collect();
    let mut mapping = Vec::new();
    for old in victims.iter().filter(|v| !correct_ids.contains(v)) {
        match correct_ids.iter().find(|id| !taken.contains(id)) {
            Some(&new) => {
                taken.push(new);
                mapping.push((*old, new));
            }
            None => spec.churn = spec.churn.without_crash_cycle(*old),
        }
    }
    if !mapping.is_empty() {
        spec.churn = spec.churn.retarget_crash_cycles(&mapping);
    }
}

/// Deterministic binary inputs (half 0s, half 1s) for the consensus families.
fn binary_inputs(correct: usize) -> Vec<u64> {
    (0..correct).map(|i| (i % 2) as u64).collect()
}

/// Deterministic spread-out real inputs for the approximate-agreement families.
fn real_inputs(correct: usize) -> Vec<f64> {
    (0..correct).map(|i| i as f64 * 10.0).collect()
}

/// The total-ordering workload: a round-robin event stream plus one mid-run leave
/// when enough founders exist, over a fixed 16-round window.
fn total_order_plan(correct: usize) -> TotalOrderPlan<u64> {
    let mut plan = TotalOrderPlan::rounds(16);
    for round in 1..=8u64 {
        plan = plan.event(round, (round as usize) % correct.max(1), round);
    }
    if correct >= 4 {
        plan = plan.leave(10, correct - 1);
    }
    plan
}

/// Runs one fuzz case through the `Simulation` builder and attaches the checker
/// oracle verdicts to the report.
pub fn run_case(case: &FuzzCase) -> RunReport {
    let builder = ScenarioBuilder::from_spec(case.spec.clone());
    let correct = case.spec.correct;
    let mut report = match case.protocol {
        ProtocolId::Consensus => builder
            .build(ConsensusFactory::new(binary_inputs(correct)))
            .run(),
        ProtocolId::ReliableBroadcast => builder.build(BroadcastFactory::correct_source(42)).run(),
        ProtocolId::Rotor => builder.build(RotorFactory).run(),
        ProtocolId::Approx => builder
            .build(ApproxFactory::new(real_inputs(correct)))
            .run(),
        ProtocolId::ParallelConsensus => builder
            .build(
                ParallelConsensusFactory::new(vec![(0, 100), (1, 101), (2, 102)])
                    // The partial pair (held by the even-indexed correct nodes
                    // only) is the workload where Theorem 5's consistency clause
                    // binds — and what the vocabulary's boundary campaign splits
                    // at n = 3f.
                    .with_partial_pair((7, 700)),
            )
            .run(),
        ProtocolId::TotalOrder => builder
            .build(TotalOrderFactory::new(total_order_plan(correct)))
            .run(),
        ProtocolId::PhaseKing => builder
            .build(PhaseKingFactory::new(binary_inputs(correct)))
            .run(),
        ProtocolId::SrikanthToueg => builder.build(StBroadcastFactory::new(42)).run(),
        ProtocolId::DolevApprox => builder
            .build(DolevApproxFactory::new(real_inputs(correct)))
            .run(),
        ProtocolId::KnownRotor => builder.build(KnownRotorFactory).run(),
    }
    .expect("fuzz scenarios never violate engine rules");
    attach_verdicts(&mut report);
    report
}

/// The violated properties of an **admissible** case, as the margin judge
/// ([`uba_checker::margin::violations`]) reads them from the report: failed
/// oracle verdicts plus the structural guarantees (termination within the
/// budget, rotor good rounds, parallel agreement, chain-prefix consistency),
/// narrowed to the recovery oracles on crash-bearing cases. Non-admissible
/// scenarios vacuously pass. Admissibility is read from the report, as the
/// judge reads it; `case` only keeps the signature the callers name.
pub fn case_failures(_case: &FuzzCase, report: &RunReport) -> Vec<String> {
    if !report.scenario.admissible() {
        return Vec::new();
    }
    margin::violations(report)
}

/// The *expected-failure* properties of an **inadmissible** scenario (`n ≤ 3f`
/// somewhere along the churn horizon): outside the resiliency bound the paper
/// makes no promise, so a violated theorem-property is not a bug — it is the
/// demonstration that the `n > 3f` bound is *tight*. This returns the violations
/// such a case exhibits (the same judge as [`case_failures`], without the
/// admissibility gate); admissible cases return nothing, because for them a
/// violation belongs to [`case_failures`]. Like [`case_failures`], it reads
/// admissibility from the report and ignores `case`.
pub fn boundary_violations(_case: &FuzzCase, report: &RunReport) -> Vec<String> {
    if report.scenario.admissible() {
        return Vec::new();
    }
    margin::violations(report)
}

/// The attack-plan axis of the boundary grids: the legacy scripted presets plus
/// the vocabulary-driven behaviours that speak every family's payload language
/// (noise, per-class semantic fabrication, and a late-window boundary step that
/// starves fixed-budget primitives of the relay rounds they need).
pub fn boundary_plans() -> Vec<AttackPlan> {
    vec![
        AttackPlan::preset(AdversaryKind::Silent),
        AttackPlan::preset(AdversaryKind::SplitVote),
        AttackPlan::preset(AdversaryKind::Worst),
        AttackPlan::new().behavior(AttackBehavior::Equivocate { low: 0, high: 1 }),
        AttackPlan::new().behavior(AttackBehavior::Noise),
        AttackPlan::new().behavior(AttackBehavior::Semantic {
            strategy: SemanticStrategy::Boundary,
        }),
        AttackPlan::new().behavior(AttackBehavior::Semantic {
            strategy: SemanticStrategy::Garbage,
        }),
        // Late-window threshold pressure: amplification started this close to a
        // fixed round budget cannot finish relaying, so accept sets diverge.
        AttackPlan::new().step(
            AttackStep::new(AttackBehavior::Semantic {
                strategy: SemanticStrategy::Boundary,
            })
            .starting(9),
        ),
        // A composed plan with a redundant silent step: the violation survives
        // dropping it, so the shrinker demonstrably minimises the *plan* too.
        AttackPlan::collusion(
            AttackBehavior::Preset(AdversaryKind::SplitVote),
            1,
            AttackBehavior::Preset(AdversaryKind::Silent),
        ),
        // Stateful adaptive schedules: asymmetric delivery keyed off observed
        // traffic. At `n = 3f` the starvation schedule is the sharpest equivocation
        // -by-omission the library owns — it is what demonstrates tightness for the
        // families whose oracles survive every *oblivious* plan above.
        AttackPlan::new().behavior(AttackBehavior::Adaptive {
            strategy: AdaptiveStrategy::StarveWeakest,
        }),
        AttackPlan::new().behavior(AttackBehavior::Adaptive {
            strategy: AdaptiveStrategy::WithholdNearQuorum,
        }),
    ]
}

/// The identifier-layout axis of the default boundary grids: the sparse default
/// plus the adversary-chosen layout (Byzantine identities take the smallest
/// identifiers, fronting every identifier-ordered structure).
pub fn boundary_id_spaces() -> Vec<IdSpace> {
    vec![IdSpace::default(), IdSpace::AdversaryLow { stride: 97 }]
}

/// The grid `fuzz --boundary` sweeps: scenarios pinned *at* the `n = 3f`
/// resiliency boundary (correct = 2f, so `n = 3f` exactly) under the strong
/// attacks, for **all ten** protocol/baseline families and every boundary
/// identifier layout. The expected-failure property of this grid is that **some**
/// case exhibits a violation — if every inadmissible case still satisfied the
/// theorems, the bound would not be demonstrably tight (and our attacks would be
/// toothless).
pub fn boundary_grid(smoke: bool) -> ScenarioGrid<ProtocolId> {
    boundary_grid_with(smoke, ProtocolId::ALL.to_vec(), boundary_id_spaces())
}

/// [`boundary_grid`] with explicit protocol and identifier-layout axes — the
/// form behind the per-family boundary matrix and the CI layout matrix
/// (`experiments -- fuzz --boundary --ids <layout>`).
pub fn boundary_grid_with(
    smoke: bool,
    protocols: Vec<ProtocolId>,
    id_spaces: Vec<IdSpace>,
) -> ScenarioGrid<ProtocolId> {
    let sizes: Vec<(usize, usize)> = if smoke {
        vec![(2, 1), (4, 2)]
    } else {
        vec![(2, 1), (4, 2), (6, 3)]
    };
    ScenarioGrid::new()
        .protocols(protocols)
        .sizes(sizes)
        .plans(boundary_plans())
        .id_spaces(id_spaces)
        .trials(if smoke { 1 } else { 2 })
        .base_seed(0xB0BD_5EED)
        .max_rounds(150)
}

/// Runs the boundary grid and returns the cases that *do* violate a theorem
/// property outside the bound, each shrunk to a locally minimal demonstration.
/// Shrinking preserves both inadmissibility and the violation, so a shrunk
/// demonstration is still at (or below) the boundary — the pinned regression
/// test asserts a ≤ 6-node `n = 3f` consensus demonstration survives shrinking.
pub fn fuzz_boundary(
    grid: &ScenarioGrid<ProtocolId>,
    workers: usize,
    max_demonstrations: usize,
) -> FuzzOutcome {
    let total = grid.len();
    let config = SweepConfig {
        trials: total,
        base_seed: 0, // unused: each case's seed is derived by the grid itself
        workers,
    };
    let violating: Vec<Option<FuzzCase>> = run_trials(&config, |index, _seed| {
        let case = FuzzCase::from_sweep(&grid.case(index));
        let report = run_case(&case);
        if boundary_violations(&case, &report).is_empty() {
            None
        } else {
            Some(case)
        }
    });
    let counterexamples = violating
        .into_iter()
        .flatten()
        .take(max_demonstrations)
        .map(|case| {
            shrink_case_with(&case, &|candidate| {
                let report = run_case(candidate);
                boundary_violations(candidate, &report)
            })
        })
        .collect();
    FuzzOutcome {
        cases: total,
        counterexamples,
    }
}

/// One row of the per-family boundary matrix: either a shrunk `n = 3f`
/// counterexample for the family, or nothing — in which case the family's
/// [`ProtocolId::boundary_immunity`] is expected to document why.
#[derive(Clone, Debug, PartialEq)]
pub struct FamilyBoundary {
    /// The protocol/baseline family.
    pub protocol: ProtocolId,
    /// Boundary cases enumerated for the family.
    pub cases: u64,
    /// The first violating case, shrunk to a locally minimal demonstration.
    pub counterexample: Option<Counterexample>,
}

impl FamilyBoundary {
    /// Whether the row states a theorem-shaped result: a violating demonstration
    /// *or* a documented impossibility. A row that is neither means the attack
    /// library cannot yet speak the family's payload language sharply enough.
    pub fn theorem_shaped(&self) -> bool {
        self.counterexample.is_some() || self.protocol.boundary_immunity().is_some()
    }
}

/// Runs the boundary grid family by family: for each of the ten families, the
/// first `n = 3f` case violating a theorem property is shrunk and returned. This
/// is the machine behind the full-boundary theorem suite — the claim "`n > 3f`
/// is tight for family X" is `counterexample.is_some()`, and the claim "family
/// X's oracle cannot fail at the boundary" is `boundary_immunity().is_some()`.
pub fn boundary_matrix(
    smoke: bool,
    workers: usize,
    id_spaces: Vec<IdSpace>,
) -> Vec<FamilyBoundary> {
    ProtocolId::ALL
        .into_iter()
        .map(|protocol| {
            let grid = boundary_grid_with(smoke, vec![protocol], id_spaces.clone());
            let outcome = fuzz_boundary(&grid, workers, 1);
            FamilyBoundary {
                protocol,
                cases: grid.len(),
                counterexample: outcome.counterexamples.into_iter().next(),
            }
        })
        .collect()
}

/// The failing properties of a *replayed* case, on either side of the bound:
/// [`case_failures`] for an admissible case, [`boundary_violations`] for an
/// inadmissible one — both the margin judge. This is what makes a boundary
/// counterexample JSON replayable — judging it by the admissible-only property
/// set would wave every `n = 3f` reproducer through as vacuously green.
/// `case` only keeps the signature the callers name.
pub fn replay_failures(_case: &FuzzCase, report: &RunReport) -> Vec<String> {
    margin::violations(report)
}

/// The attack-plan axis of the default grids: the five legacy presets plus the
/// composed shapes the scripted enum could not express.
pub fn default_plans(smoke: bool) -> Vec<AttackPlan> {
    let mut plans = vec![
        AttackPlan::preset(AdversaryKind::SplitVote),
        AttackPlan::preset(AdversaryKind::PartialAnnounce),
        AttackPlan::crash_window(AdversaryKind::SplitVote, 1, 4),
        AttackPlan::collusion(
            AttackBehavior::Preset(AdversaryKind::SplitVote),
            1,
            AttackBehavior::Preset(AdversaryKind::AnnounceThenSilent),
        ),
        AttackPlan::new().behavior(AttackBehavior::Replay {
            visible_to_even_raw_ids: true,
        }),
        AttackPlan::new().behavior(AttackBehavior::AnnounceToSubset {
            modulus: 3,
            remainder: 1,
        }),
        AttackPlan::new().behavior(AttackBehavior::Outliers { magnitude: 1e6 }),
    ];
    if !smoke {
        plans.extend([
            AttackPlan::preset(AdversaryKind::Silent),
            AttackPlan::preset(AdversaryKind::AnnounceThenSilent),
            AttackPlan::preset(AdversaryKind::Worst),
            AttackPlan::new().behavior(AttackBehavior::Equivocate { low: 0, high: 1 }),
            AttackPlan::new().behavior(AttackBehavior::Noise),
            AttackPlan::new().behavior(AttackBehavior::Semantic {
                strategy: SemanticStrategy::Valid,
            }),
            AttackPlan::new()
                .behavior(AttackBehavior::Preset(AdversaryKind::PartialAnnounce))
                .step(
                    uba_simnet::attack::AttackStep::new(AttackBehavior::Preset(
                        AdversaryKind::SplitVote,
                    ))
                    .window(3, 9),
                ),
        ]);
    }
    plans
}

/// The churn axis of the default grids: a static network plus a mid-run Byzantine
/// join (fresh identifier, so it composes with every identifier layout).
pub fn default_churns() -> Vec<ChurnSchedule> {
    vec![
        ChurnSchedule::empty(),
        ChurnSchedule::empty().with(3, ChurnEvent::JoinByzantine(NodeId::new(9_000_001))),
    ]
}

/// The crash/restart axis of the default grids: alongside the implicit
/// crash-free point, one mid-agreement crash of a correct node with a clean
/// restart two rounds later — enough to drive the WAL replay path and the
/// recovery oracles through every family, engine and attack plan. Admissible
/// crash-bearing cases assert *only* the recovery properties (the crash
/// suspension of [`uba_checker::margin::asserted`]).
pub fn default_crash_plans() -> Vec<CrashPlan> {
    vec![CrashPlan {
        victim: 1,
        crash_round: 2,
        restart_round: 4,
        policy: RestartPolicy::Clean,
    }]
}

/// The bounded deterministic grid behind `experiments -- fuzz`: every protocol
/// family under every default plan, churn schedule and crash plan. `smoke`
/// trims the axes to the CI-sized grid (fixed seed, a few hundred cases, a
/// handful of seconds).
pub fn default_grid(smoke: bool) -> ScenarioGrid<ProtocolId> {
    let sizes: Vec<(usize, usize)> = if smoke {
        vec![(4, 1), (7, 2)]
    } else {
        vec![(4, 1), (7, 2), (10, 3), (13, 4)]
    };
    ScenarioGrid::new()
        .protocols(ProtocolId::ALL.to_vec())
        .sizes(sizes)
        .plans(default_plans(smoke))
        .churns(default_churns())
        .crash_plans(default_crash_plans())
        .trials(if smoke { 2 } else { 4 })
        .base_seed(0xF0CC_5EED)
        .max_rounds(400)
}

/// One minimised counterexample: the case as found, the case after shrinking, and
/// the properties the shrunk case still violates.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Counterexample {
    /// The failing case exactly as the grid enumerated it.
    pub original: FuzzCase,
    /// The minimised case (replay with `experiments -- fuzz --replay`).
    pub shrunk: FuzzCase,
    /// Violated properties of the shrunk case.
    pub failures: Vec<String>,
    /// Number of accepted shrinking moves.
    pub shrink_steps: u64,
}

/// The outcome of one fuzz run.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzOutcome {
    /// Cases enumerated and executed.
    pub cases: u64,
    /// Minimised counterexamples, in grid order (capped by the runner).
    pub counterexamples: Vec<Counterexample>,
}

impl FuzzOutcome {
    /// Whether every property held on every case.
    pub fn passed(&self) -> bool {
        self.counterexamples.is_empty()
    }
}

/// Runs every case of the grid across `workers` threads (deterministically in the
/// worker count), then shrinks up to `max_counterexamples` failing cases.
pub fn fuzz_grid(
    grid: &ScenarioGrid<ProtocolId>,
    workers: usize,
    max_counterexamples: usize,
) -> FuzzOutcome {
    let total = grid.len();
    let config = SweepConfig {
        trials: total,
        base_seed: 0, // unused: each case's seed is derived by the grid itself
        workers,
    };
    let failing: Vec<Option<FuzzCase>> = run_trials(&config, |index, _seed| {
        let case = FuzzCase::from_sweep(&grid.case(index));
        let report = run_case(&case);
        if case_failures(&case, &report).is_empty() {
            None
        } else {
            Some(case)
        }
    });
    let counterexamples = failing
        .into_iter()
        .flatten()
        .take(max_counterexamples)
        .map(|case| shrink_case(&case))
        .collect();
    FuzzOutcome {
        cases: total,
        counterexamples,
    }
}

/// The candidate shrinking moves for a failing case, most aggressive first:
/// halve/decrement the correct population, halve/decrement/zero the Byzantine
/// population, simplify an exotic identifier layout back to the default, drop
/// the engine axis (or soften non-synchronous timing to zero-jitter), drop one
/// churn event (whole crash/restart cycles count as one event), drop one
/// attack-plan step. Every move re-resolves crash victims against the mutated
/// population ([`rebind_crash_victims`]), so shrinking the network out from
/// under a crash schedule yields a runnable candidate rather than an
/// unknown-node engine error.
fn shrink_candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let spec = &case.spec;
    let mut with_spec = |mutate: &dyn Fn(&mut ScenarioSpec)| {
        let mut candidate = case.clone();
        mutate(&mut candidate.spec);
        rebind_crash_victims(&mut candidate.spec);
        out.push(candidate);
    };
    for correct in [spec.correct / 2, spec.correct.saturating_sub(1)] {
        if correct >= 1 && correct < spec.correct {
            with_spec(&|s: &mut ScenarioSpec| s.correct = correct);
        }
    }
    for byzantine in [0, spec.byzantine / 2, spec.byzantine.saturating_sub(1)] {
        if byzantine < spec.byzantine {
            with_spec(&|s: &mut ScenarioSpec| s.byzantine = byzantine);
        }
    }
    // An adversary-chosen or random identifier layout is only part of a minimal
    // demonstration if the failure actually needs it.
    if spec.id_space != IdSpace::default() && !case.protocol.needs_consecutive_ids() {
        with_spec(&|s: &mut ScenarioSpec| s.id_space = IdSpace::default());
    }
    // Timing shrinks toward synchrony, mirroring the identifier-layout move: a
    // non-synchronous engine is only part of a minimal demonstration if the
    // failure needs it. Dropping the axis entirely is the aggressive move;
    // softening the timing to zero-jitter keeps the event engine but removes
    // the delay behaviour.
    if spec.engine.is_some() {
        with_spec(&|s: &mut ScenarioSpec| s.engine = None);
    }
    if matches!(&spec.engine, Some(EngineKind::Event(t)) if *t != TimingSpec::synchronous()) {
        with_spec(&|s: &mut ScenarioSpec| {
            s.engine = Some(EngineKind::Event(TimingSpec::synchronous()));
        });
    }
    for index in 0..spec.churn.len() {
        // A crash or a restart never shrinks alone: dropping the crash leaves a
        // restart of a never-crashed node, dropping the restart strands the
        // victim — both are engine errors, not smaller demonstrations. Whole
        // cycles shrink as one move below.
        if spec.churn.events()[index].1.is_crash_cycle() {
            continue;
        }
        with_spec(&|s: &mut ScenarioSpec| s.churn = s.churn.without_event(index));
    }
    for id in spec.churn.crash_cycle_ids() {
        with_spec(&|s: &mut ScenarioSpec| s.churn = s.churn.without_crash_cycle(id));
    }
    if let Some(plan) = &spec.attack {
        for index in 0..plan.len() {
            with_spec(&|s: &mut ScenarioSpec| {
                let shrunk = s.attack.as_ref().expect("plan present").without_step(index);
                s.attack = Some(shrunk);
            });
        }
    }
    out
}

/// Greedily minimises a failing case: in each pass the first candidate move that
/// still violates a property is accepted, until no move survives. The result is a
/// local minimum — removing anything else makes the failure disappear.
pub fn shrink_case(original: &FuzzCase) -> Counterexample {
    shrink_case_with(original, &|case| {
        let report = run_case(case);
        case_failures(case, &report)
    })
}

/// The stable identity of a failing property: the bracketed `[oracle/property]`
/// tag when the failure carries one, the prefix before the first `:` otherwise
/// (`liveness`, `parallel-consensus`, …). Shrinking compares candidates by this
/// id, and the replay round-trip test uses it to assert a reproducer still
/// demonstrates the bug it was minimised from.
pub fn property_id(failure: &str) -> &str {
    if let (Some(open), Some(close)) = (failure.find('['), failure.find(']')) {
        if open < close {
            return &failure[open + 1..close];
        }
    }
    failure.split(':').next().unwrap_or(failure).trim()
}

/// The shrinker behind [`shrink_case`], parameterised over the "still
/// interesting" oracle. A candidate move is accepted iff the oracle still
/// reports a violation **with the same property id** as one of the original
/// failures ([`property_id`]) — "smaller but failing differently" is a
/// *different* bug, and accepting it would shrink one reproducer into another.
/// Boundary fuzzing passes [`boundary_violations`] here, so a shrunk
/// demonstration cannot drift back into the admissible region either (the
/// oracle returns nothing there).
pub fn shrink_case_with(
    original: &FuzzCase,
    still_failing: &dyn Fn(&FuzzCase) -> Vec<String>,
) -> Counterexample {
    let original_ids: BTreeSet<String> = still_failing(original)
        .iter()
        .map(|failure| property_id(failure).to_string())
        .collect();
    // Admissibility is part of the bug's identity too: an in-bound agreement
    // violation is a protocol bug, an `n = 3f` one is a tightness demonstration
    // — shrinking must not turn one into the other even when the property id
    // matches. (The grid oracles enforce this implicitly by returning nothing
    // on the other side; the guard makes it hold for every oracle, including
    // the [`replay_failures`] one the margin-guided search shrinks through.)
    let admissible = original.spec.admissible();
    let keeps_the_bug = |case: &FuzzCase| {
        case.spec.admissible() == admissible
            && still_failing(case)
                .iter()
                .any(|failure| original_ids.contains(property_id(failure)))
    };
    let mut current = original.clone();
    let mut shrink_steps = 0u64;
    loop {
        let accepted = shrink_candidates(&current)
            .into_iter()
            .find(|candidate| keeps_the_bug(candidate));
        match accepted {
            Some(candidate) => {
                current = candidate;
                shrink_steps += 1;
            }
            None => break,
        }
    }
    let failures = still_failing(&current);
    Counterexample {
        original: original.clone(),
        shrunk: current,
        failures,
        shrink_steps,
    }
}

/// Renders a per-protocol summary of a fuzz run (rows only for the protocols the
/// grid actually enumerates, counted from its case list).
pub fn fuzz_table(grid: &ScenarioGrid<ProtocolId>, outcome: &FuzzOutcome) -> Table {
    let mut table = Table::new(
        format!("fuzz: {} cases over the scenario grid", outcome.cases),
        &["protocol", "cases", "counterexamples"],
    );
    let mut case_counts = vec![0u64; ProtocolId::ALL.len()];
    for case in grid.cases() {
        if let Some(slot) = ProtocolId::ALL.iter().position(|&p| p == case.protocol) {
            case_counts[slot] += 1;
        }
    }
    for (protocol, cases) in ProtocolId::ALL.into_iter().zip(case_counts) {
        if cases == 0 {
            continue;
        }
        let counterexamples = outcome
            .counterexamples
            .iter()
            .filter(|ce| ce.original.protocol == protocol)
            .count();
        table.push_row(vec![
            protocol.name().to_string(),
            cases.to_string(),
            counterexamples.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::sim::Simulation;

    #[test]
    fn protocol_ids_serialise_and_name_stably() {
        for protocol in ProtocolId::ALL {
            let value = serde::Serialize::to_value(&protocol);
            let back: ProtocolId = serde::Deserialize::from_value(&value).unwrap();
            assert_eq!(back, protocol);
            assert!(!protocol.name().is_empty());
        }
    }

    #[test]
    fn fuzz_cases_normalise_baseline_id_spaces() {
        let grid = ScenarioGrid::new()
            .protocols(vec![ProtocolId::PhaseKing, ProtocolId::Consensus])
            .sizes(vec![(4, 1)]);
        let phase_king = FuzzCase::from_sweep(&grid.case(0));
        assert_eq!(phase_king.spec.id_space, IdSpace::Consecutive);
        let consensus = FuzzCase::from_sweep(&grid.case(1));
        assert_eq!(consensus.spec.id_space, IdSpace::default());
        assert!(consensus.describe().starts_with("consensus n=4 f=1"));
    }

    #[test]
    fn a_clean_case_runs_and_passes_all_properties() {
        let case = FuzzCase {
            protocol: ProtocolId::Consensus,
            spec: Simulation::scenario()
                .correct(5)
                .byzantine(1)
                .seed(7)
                .attack(AttackPlan::preset(AdversaryKind::SplitVote))
                .spec()
                .clone(),
        };
        let report = run_case(&case);
        assert!(report.completed());
        assert!(!report.verdicts.is_empty(), "oracles must have run");
        assert_eq!(case_failures(&case, &report), Vec::<String>::new());
    }

    #[test]
    fn inadmissible_cases_pass_vacuously() {
        // n = 3f: the split-vote adversary may prevent agreement, and that is not
        // a counterexample.
        let case = FuzzCase {
            protocol: ProtocolId::Consensus,
            spec: Simulation::scenario()
                .correct(4)
                .byzantine(2)
                .seed(23)
                .max_rounds(60)
                .attack(AttackPlan::preset(AdversaryKind::SplitVote))
                .spec()
                .clone(),
        };
        assert!(!case.spec.admissible());
        let report = run_case(&case);
        assert_eq!(case_failures(&case, &report), Vec::<String>::new());
    }

    #[test]
    fn shrink_candidates_cover_every_axis() {
        let case = FuzzCase {
            protocol: ProtocolId::Consensus,
            spec: Simulation::scenario()
                .correct(8)
                .byzantine(2)
                .churn(
                    ChurnSchedule::empty()
                        .with(3, ChurnEvent::JoinByzantine(NodeId::new(9_000_001))),
                )
                .attack(AttackPlan::collusion(
                    AttackBehavior::Preset(AdversaryKind::SplitVote),
                    1,
                    AttackBehavior::Preset(AdversaryKind::Silent),
                ))
                .spec()
                .clone(),
        };
        let candidates = shrink_candidates(&case);
        assert!(candidates.iter().any(|c| c.spec.correct == 4), "halving");
        assert!(candidates.iter().any(|c| c.spec.correct == 7), "decrement");
        assert!(candidates.iter().any(|c| c.spec.byzantine == 0), "no byz");
        assert!(candidates.iter().any(|c| c.spec.churn.is_empty()));
        assert!(candidates
            .iter()
            .any(|c| c.spec.attack.as_ref().unwrap().len() == 1));
    }

    #[test]
    fn crash_cycles_shrink_as_a_unit_and_victims_rebind() {
        let base = Simulation::scenario()
            .correct(8)
            .byzantine(2)
            .seed(11)
            .spec()
            .clone();
        let victim = base.id_space.generate(10, base.seed)[1];
        let case = FuzzCase {
            protocol: ProtocolId::Consensus,
            spec: Simulation::scenario()
                .correct(8)
                .byzantine(2)
                .seed(11)
                .churn(
                    ChurnSchedule::empty()
                        .with(2, ChurnEvent::Crash(victim))
                        .with(3, ChurnEvent::JoinByzantine(NodeId::new(9_000_001)))
                        .with(
                            4,
                            ChurnEvent::Restart {
                                id: victim,
                                policy: RestartPolicy::Clean,
                            },
                        ),
                )
                .spec()
                .clone(),
        };
        let candidates = shrink_candidates(&case);
        // No candidate ever carries half a cycle: a crash without its restart
        // (or vice versa) is an engine error, not a smaller demonstration.
        for candidate in &candidates {
            let crashes = candidate
                .spec
                .churn
                .events()
                .iter()
                .filter(|(_, e)| matches!(e, ChurnEvent::Crash(_)))
                .count();
            let restarts = candidate
                .spec
                .churn
                .events()
                .iter()
                .filter(|(_, e)| matches!(e, ChurnEvent::Restart { .. }))
                .count();
            assert_eq!(crashes, restarts, "orphaned cycle in {candidate:?}");
        }
        // The whole-cycle move exists and leaves the join event alone…
        assert!(candidates
            .iter()
            .any(|c| !c.spec.churn.has_crash_events() && c.spec.churn.len() == 1));
        // …and the join event still shrinks individually, keeping the cycle.
        assert!(candidates
            .iter()
            .any(|c| c.spec.churn.len() == 2 && c.spec.churn.has_crash_events()));
        // Population moves re-home the victim inside the shrunken layout.
        let halved = candidates
            .iter()
            .find(|c| c.spec.correct == 4)
            .expect("halving move");
        let ids = halved.spec.id_space.generate(6, halved.spec.seed);
        let rebound = halved.spec.churn.crash_cycle_ids()[0];
        assert!(
            ids[..4].contains(&rebound),
            "victim {rebound:?} is a live correct identifier"
        );
    }

    #[test]
    fn from_sweep_rebinds_crash_victims_for_consecutive_id_families() {
        let grid = ScenarioGrid::new()
            .protocols(vec![ProtocolId::PhaseKing])
            .sizes(vec![(4, 1)])
            .crash_plans(default_crash_plans())
            .max_rounds(60);
        // Index 0 is the implicit crash-free point; index 1 carries the plan.
        let case = FuzzCase::from_sweep(&grid.case(1));
        assert_eq!(case.spec.id_space, IdSpace::Consecutive);
        let victims = case.spec.churn.crash_cycle_ids();
        assert_eq!(victims.len(), 1);
        let ids = IdSpace::Consecutive.generate(5, case.spec.seed);
        assert!(
            ids[..4].contains(&victims[0]),
            "victim survives the consecutive-id normalisation"
        );
        // The rebound schedule is actually runnable and clean.
        let report = run_case(&case);
        assert_eq!(case_failures(&case, &report), Vec::<String>::new());
    }

    #[test]
    fn crash_cases_assert_only_the_recovery_properties() {
        let grid = ScenarioGrid::new()
            .protocols(vec![ProtocolId::Consensus])
            .sizes(vec![(4, 1)])
            .crash_plans(default_crash_plans())
            .max_rounds(60);
        let case = FuzzCase::from_sweep(&grid.case(1));
        assert!(case.spec.churn.has_crash_events());
        assert!(case.spec.admissible(), "one crash keeps n > 3f");
        let mut report = run_case(&case);
        assert_eq!(case_failures(&case, &report), Vec::<String>::new());
        let restarts = &report.recovery.as_ref().expect("crash run").restarts;
        assert_eq!(restarts.len(), 1);
        // A tampered theorem section is invisible to a crash-bearing case —
        // the paper makes no promise once a correct node loses rounds…
        let section = report.consensus.as_mut().expect("consensus section");
        assert!(!section.decisions.is_empty());
        section.decisions[0].value = 1 - section.decisions[0].value;
        attach_verdicts(&mut report);
        assert_eq!(case_failures(&case, &report), Vec::<String>::new());
        // …but a violated recovery property is exactly what it must catch.
        report.recovery.as_mut().expect("crash run").restarts[0].send_conflicts = 3;
        attach_verdicts(&mut report);
        let failures = case_failures(&case, &report);
        assert!(
            failures
                .iter()
                .any(|f| property_id(f) == "recovery/equivocation"),
            "unexpected failures: {failures:?}"
        );
    }

    #[test]
    fn shrinking_moves_the_engine_axis_toward_synchrony() {
        let mut case = FuzzCase {
            protocol: ProtocolId::Consensus,
            spec: Simulation::scenario()
                .correct(4)
                .byzantine(1)
                .engine(EngineKind::Event(
                    TimingSpec::synchronous()
                        .with_delay(uba_simnet::DelaySpec::Jitter { min: 1, max: 3 }),
                ))
                .spec()
                .clone(),
        };
        let candidates = shrink_candidates(&case);
        assert!(
            candidates.iter().any(|c| c.spec.engine.is_none()),
            "the aggressive move drops the axis"
        );
        assert!(
            candidates
                .iter()
                .any(|c| c.spec.engine == Some(EngineKind::Event(TimingSpec::synchronous()))),
            "the soft move keeps the engine but zeroes the timing"
        );

        // Once the timing is synchronous only the drop-the-axis move touches
        // the engine: every candidate either keeps it verbatim or clears it.
        case.spec.engine = Some(EngineKind::Event(TimingSpec::synchronous()));
        let candidates = shrink_candidates(&case);
        let engine_moves: Vec<_> = candidates
            .iter()
            .filter(|c| c.spec.engine != case.spec.engine)
            .collect();
        assert_eq!(engine_moves.len(), 1);
        assert!(engine_moves[0].spec.engine.is_none());

        // And with no engine set, neither move fires.
        case.spec.engine = None;
        assert!(shrink_candidates(&case)
            .iter()
            .all(|c| c.spec.engine.is_none()));
    }
}
