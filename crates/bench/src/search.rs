//! Margin-guided adversarial search: a feedback-driven fuzzer.
//!
//! Where [`crate::fuzz::fuzz_grid`] *enumerates* a fixed grid, [`search_grid`]
//! *searches*: a seeded hill-climb with restarts that mutates [`FuzzCase`]s —
//! population sizes, seeds, identifier layouts and attack-plan steps, including
//! the stateful [`AttackBehavior::Adaptive`] behaviours — using the checker
//! margins ([`uba_checker::margin`]) as the fitness signal. A run whose
//! smallest asserted margin shrinks moved *toward* the violation surface even
//! though every verdict still passes; the climb keeps the mutation and tries
//! again from there. A run with a violated property is a found counterexample:
//! it is minimised through the same property-id-preserving shrinker the grid
//! fuzzer uses ([`crate::fuzz::shrink_case_with`] over
//! [`crate::fuzz::replay_failures`]), so search reproducers replay and shrink
//! exactly like grid ones (`experiments -- fuzz --replay`).
//!
//! Determinism contract (pinned by `tests/rng_properties.rs`): the whole search
//! is a pure function of the seed grid and the [`SearchConfig`]. Every restart
//! derives its RNG stream from `derive_seed(base_seed, restart)`, restarts fan
//! out over the same striped [`run_trials`] pool as every other sweep, and the
//! per-restart climbs never communicate — so the trajectory and the final
//! counterexamples are byte-identical for any worker count.
//!
//! The mutation vocabulary is the shrinker's move set in reverse — grow the
//! populations the shrinker shrinks, add the plan steps the shrinker drops,
//! re-derive the seeds the shrinker keeps — plus the adaptive-step moves the
//! grid cannot express at all.

use serde::{Deserialize, Serialize};

use uba_checker::margin;
use uba_simnet::attack::{
    ActorRange, AdaptiveStrategy, AttackBehavior, AttackStep, SemanticStrategy,
};
use uba_simnet::rng::derive_seed;
use uba_simnet::IdSpace;

use crate::fuzz::{
    replay_failures, run_case, shrink_case_with, Counterexample, FuzzCase, ProtocolId,
};
use crate::montecarlo::{run_trials, SweepConfig};
use uba_simnet::sweep::ScenarioGrid;

/// Tuning of one search run. All fields participate in the determinism
/// contract: same config + same grid ⇒ same outcome, any worker count.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Independent hill-climb restarts (each seeded from a different grid case).
    pub restarts: u64,
    /// Mutation evaluations per restart (the per-climb budget).
    pub steps: u64,
    /// Root seed for restart RNG streams and seed-mutation moves.
    pub base_seed: u64,
    /// Worker threads for the restart fan-out (does not affect results).
    pub workers: usize,
    /// Maximum number of violating cases to shrink into reproducers.
    pub max_counterexamples: usize,
}

impl SearchConfig {
    /// The bounded-budget configuration CI's `search-smoke` job runs.
    pub fn smoke(workers: usize) -> Self {
        SearchConfig {
            restarts: 8,
            steps: 24,
            base_seed: 0x5EA2_C45E,
            workers,
            max_counterexamples: 3,
        }
    }

    /// The full-depth configuration behind `experiments -- fuzz --search`.
    pub fn full(workers: usize) -> Self {
        SearchConfig {
            restarts: 24,
            steps: 64,
            base_seed: 0x5EA2_C45E,
            workers,
            max_counterexamples: 5,
        }
    }
}

/// One evaluated mutation in a search trajectory — the serialisable record the
/// determinism pins compare byte-for-byte.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStep {
    /// Which restart the step belongs to.
    pub restart: u64,
    /// Evaluation index within the restart (0 = the seed case itself).
    pub step: u64,
    /// One-line description of the evaluated case.
    pub case: String,
    /// Smallest asserted margin of the evaluated run (0 on a violation).
    pub min_margin: u64,
    /// Sum of the asserted margins (the hill-climb tie-breaker).
    pub margin_sum: u64,
    /// Whether the case violated an asserted property.
    pub violation: bool,
    /// Whether the climb accepted the mutation and moved to this case.
    pub accepted: bool,
}

/// The outcome of one search run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// Total cases executed across every restart.
    pub evaluations: u64,
    /// Every evaluated step, in `(restart, step)` order.
    pub trajectory: Vec<SearchStep>,
    /// Shrunk reproducers for the violations found, in restart order (deduped
    /// by protocol and violated property set, capped by the config).
    pub counterexamples: Vec<Counterexample>,
}

impl SearchOutcome {
    /// Whether the search found at least one violation.
    pub fn found_violation(&self) -> bool {
        !self.counterexamples.is_empty()
    }
}

/// Splitmix-style step of the search's own RNG stream (kept local so search
/// determinism does not depend on any other consumer of the shim RNG).
fn next_rand(state: &mut u64) -> u64 {
    *state = derive_seed(*state, 0x9E37);
    *state
}

/// The fitness of an evaluated case, ordered lexicographically (lower is
/// better): violations first, then the smallest asserted margin, then the sum
/// of asserted margins as the gradient tie-breaker.
fn fitness(violation: bool, margins: &[u64]) -> (u64, u64, u64) {
    let min = margins.iter().copied().min().unwrap_or(u64::MAX);
    let sum = margins.iter().fold(0u64, |a, &m| a.saturating_add(m));
    (u64::from(!violation), min, sum)
}

/// Applies the mutation selected by `roll` to the case, if applicable. The
/// moves are the shrinker's vocabulary reversed (grow populations, add plan
/// steps, re-derive seeds) plus the adaptive-step moves.
fn mutate(case: &FuzzCase, roll: u64, rng: &mut u64) -> Option<FuzzCase> {
    let mut next = case.clone();
    let spec = &mut next.spec;
    match roll % 10 {
        // Population moves: the reverse of the shrinker's halve/decrement.
        0 => spec.correct = (spec.correct + 1).min(13),
        1 => {
            if spec.correct <= 2 {
                return None;
            }
            spec.correct -= 1;
        }
        2 => spec.byzantine = (spec.byzantine + 1).min(6),
        3 => {
            if spec.byzantine <= 1 {
                return None;
            }
            spec.byzantine -= 1;
        }
        // Seed move: re-derive, never re-roll (keeps the climb reproducible).
        4 => spec.seed = derive_seed(spec.seed, next_rand(rng)),
        // Plan moves: add an adaptive step, re-aim an existing step, add a
        // boundary-probing semantic step, drop a step.
        5 => {
            let strategy =
                AdaptiveStrategy::ALL[next_rand(rng) as usize % AdaptiveStrategy::ALL.len()];
            let plan = spec.attack.clone().unwrap_or_default();
            if plan.steps.len() >= 4 {
                return None;
            }
            spec.attack = Some(plan.step(
                AttackStep::new(AttackBehavior::Adaptive { strategy }).actors(ActorRange::all()),
            ));
        }
        6 => {
            let plan = spec.attack.as_mut()?;
            if plan.steps.is_empty() {
                return None;
            }
            let index = (next_rand(rng) as usize) % plan.steps.len();
            let strategy =
                AdaptiveStrategy::ALL[next_rand(rng) as usize % AdaptiveStrategy::ALL.len()];
            plan.steps[index].behavior = AttackBehavior::Adaptive { strategy };
        }
        7 => {
            let plan = spec.attack.clone().unwrap_or_default();
            if plan.steps.len() >= 4 {
                return None;
            }
            spec.attack = Some(
                plan.step(
                    AttackStep::new(AttackBehavior::Semantic {
                        strategy: SemanticStrategy::Boundary,
                    })
                    .actors(ActorRange::all()),
                ),
            );
        }
        8 => {
            let plan = spec.attack.as_ref()?;
            if plan.steps.len() < 2 {
                return None;
            }
            let index = (next_rand(rng) as usize) % plan.steps.len();
            spec.attack = Some(plan.without_step(index));
        }
        // Identifier-layout move: the reverse of the shrinker's simplification.
        _ => {
            if case.protocol.needs_consecutive_ids() {
                return None;
            }
            spec.id_space = match spec.id_space {
                IdSpace::AdversaryLow { .. } => IdSpace::default(),
                _ => IdSpace::AdversaryLow { stride: 97 },
            };
        }
    }
    if case.protocol.needs_consecutive_ids() {
        spec.id_space = IdSpace::Consecutive;
    }
    crate::fuzz::rebind_crash_victims(spec);
    Some(next)
}

/// One restart's private result, merged in restart order by [`search_grid`].
struct RestartResult {
    trajectory: Vec<SearchStep>,
    /// An *admissible* violation — the prize; ends the restart immediately.
    violating: Option<FuzzCase>,
    /// The first inadmissible (boundary) violation stumbled on while climbing.
    /// Boundary demonstrations are cheap — one mutation past `n = 3f` or one
    /// crash too many — so they are recorded without ending the climb.
    boundary_hit: Option<FuzzCase>,
    evaluations: u64,
}

/// Runs a case and reads the judge's verdict and asserted margins
/// ([`uba_checker::margin`]) off its report.
fn evaluate(case: &FuzzCase) -> (bool, Vec<u64>) {
    let report = run_case(case);
    let violation = !replay_failures(case, &report).is_empty();
    let margins = margin::asserted(&report)
        .map(|entry| entry.margin)
        .collect();
    (violation, margins)
}

/// The restart's starting point: the first grid case (scanning from a
/// seed-derived offset, wrapping) whose family is the restart's assigned one —
/// restarts stripe across all ten families so every oracle gets climbed no
/// matter how the grid orders its axes.
fn seed_case(grid: &ScenarioGrid<ProtocolId>, config: &SearchConfig, restart: u64) -> FuzzCase {
    let family = ProtocolId::ALL[(restart % ProtocolId::ALL.len() as u64) as usize];
    let offset = derive_seed(config.base_seed, restart ^ 0x00A1_1CE5) % grid.len();
    for probe in 0..grid.len() {
        let case = grid.case((offset + probe) % grid.len());
        if case.protocol == family {
            return FuzzCase::from_sweep(&case);
        }
    }
    FuzzCase::from_sweep(&grid.case(offset))
}

fn run_restart(
    grid: &ScenarioGrid<ProtocolId>,
    config: &SearchConfig,
    restart: u64,
) -> RestartResult {
    let mut rng = derive_seed(config.base_seed, restart);
    let mut current = seed_case(grid, config, restart);
    let mut trajectory = Vec::new();
    let mut boundary_hit: Option<FuzzCase> = None;
    let mut evaluations = 0u64;

    let (violation, margins) = evaluate(&current);
    evaluations += 1;
    let mut current_fitness = fitness(violation, &margins);
    trajectory.push(SearchStep {
        restart,
        step: 0,
        case: current.describe(),
        min_margin: current_fitness.1,
        margin_sum: current_fitness.2,
        violation,
        accepted: true,
    });
    if violation {
        if current.spec.admissible() {
            return RestartResult {
                trajectory,
                violating: Some(current),
                boundary_hit,
                evaluations,
            };
        }
        boundary_hit = Some(current.clone());
        // The climb cannot stand on a boundary violation (its fitness would
        // beat every lawful candidate); treat the position as worst-possible
        // so the first applicable mutation moves off it.
        current_fitness = (u64::MAX, u64::MAX, u64::MAX);
    }

    for step in 1..=config.steps {
        // Try a handful of rolls until one yields an applicable move; a step
        // with no applicable move is recorded as a rejected no-op.
        let mut candidate = None;
        for _ in 0..8 {
            let roll = next_rand(&mut rng);
            if let Some(mutated) = mutate(&current, roll, &mut rng) {
                candidate = Some(mutated);
                break;
            }
        }
        let Some(candidate) = candidate else {
            continue;
        };
        let (violation, margins) = evaluate(&candidate);
        evaluations += 1;
        let candidate_fitness = fitness(violation, &margins);
        // A violated *admissible* candidate ends the restart; a violated
        // boundary candidate is recorded but never climbed onto (its margins
        // are vacuous — the theorems are not asserted out there). The same
        // vacuousness keeps the climb from *standing* on a passing inadmissible
        // case: from admissible ground, a mutation across the `n > 3f` line is
        // evaluated (it may be the boundary demonstration) but never accepted,
        // so the walk stays where the margins mean something.
        let admissible_violation = violation && candidate.spec.admissible();
        let lawful = candidate.spec.admissible() || !current.spec.admissible();
        let accepted = !violation && lawful && candidate_fitness <= current_fitness;
        trajectory.push(SearchStep {
            restart,
            step,
            case: candidate.describe(),
            min_margin: candidate_fitness.1,
            margin_sum: candidate_fitness.2,
            violation,
            accepted,
        });
        if admissible_violation {
            return RestartResult {
                trajectory,
                violating: Some(candidate),
                boundary_hit,
                evaluations,
            };
        }
        if violation && boundary_hit.is_none() {
            boundary_hit = Some(candidate);
        } else if accepted {
            current = candidate;
            current_fitness = candidate_fitness;
        }
    }

    RestartResult {
        trajectory,
        violating: None,
        boundary_hit,
        evaluations,
    }
}

/// Runs the margin-guided search seeded from the given grid. Restarts fan out
/// across `config.workers` threads; results are merged in restart order, so
/// the outcome is byte-identical for any worker count (same contract as
/// [`run_trials`]). Violating cases found by the climbs are shrunk through the
/// property-id-preserving shrinker over [`replay_failures`] — the same oracle
/// the `--replay` path uses — and deduped by protocol and violated property
/// set.
pub fn search_grid(grid: &ScenarioGrid<ProtocolId>, config: &SearchConfig) -> SearchOutcome {
    let sweep = SweepConfig {
        trials: config.restarts,
        base_seed: config.base_seed,
        workers: config.workers,
    };
    let results: Vec<RestartResult> =
        run_trials(&sweep, |restart, _seed| run_restart(grid, config, restart));

    let mut trajectory = Vec::new();
    let mut evaluations = 0u64;
    let mut admissible_hits = Vec::new();
    let mut boundary_hits = Vec::new();
    for result in results {
        trajectory.extend(result.trajectory);
        evaluations += result.evaluations;
        admissible_hits.extend(result.violating);
        boundary_hits.extend(result.boundary_hit);
    }

    // Admissible violations are the prize; boundary demonstrations fill the
    // remaining counterexample slots. Both shrink through the same
    // property-id-preserving shrinker and dedup by (family, property set).
    let mut counterexamples: Vec<Counterexample> = Vec::new();
    let mut seen: Vec<(ProtocolId, Vec<String>)> = Vec::new();
    for case in admissible_hits.into_iter().chain(boundary_hits) {
        if counterexamples.len() >= config.max_counterexamples {
            break;
        }
        let counterexample = shrink_case_with(&case, &|candidate| {
            let report = run_case(candidate);
            replay_failures(candidate, &report)
        });
        let mut ids: Vec<String> = counterexample
            .failures
            .iter()
            .map(|f| crate::fuzz::property_id(f).to_string())
            .collect();
        ids.sort();
        ids.dedup();
        let key = (counterexample.shrunk.protocol, ids);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        counterexamples.push(counterexample);
    }

    SearchOutcome {
        evaluations,
        trajectory,
        counterexamples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::boundary_grid;
    use uba_simnet::attack::AttackPlan;

    #[test]
    fn mutations_preserve_consecutive_id_families() {
        let grid = boundary_grid(true);
        let case = FuzzCase::from_sweep(&grid.case(0));
        let mut rng = 7u64;
        for roll in 0..40u64 {
            if let Some(mutated) = mutate(&case, roll, &mut rng) {
                if mutated.protocol.needs_consecutive_ids() {
                    assert_eq!(mutated.spec.id_space, IdSpace::Consecutive);
                }
            }
        }
    }

    #[test]
    fn the_adaptive_move_adds_a_serialisable_step() {
        let grid = boundary_grid(true);
        let case = FuzzCase::from_sweep(&grid.case(0));
        let mut rng = 3u64;
        let mutated = mutate(&case, 5, &mut rng).expect("adaptive move applies");
        let plan = mutated.spec.attack.expect("plan exists");
        assert!(plan
            .steps
            .iter()
            .any(|s| matches!(s.behavior, AttackBehavior::Adaptive { .. })));
        let json = serde_json::to_string(&plan).unwrap();
        let back: AttackPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
