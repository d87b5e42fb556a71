//! Quantitative distance-to-violation margins for every oracle family.
//!
//! Verdicts ([`crate::run_report::attach_verdicts`]) are pass/fail; they say
//! nothing about *how close* a run came to violating a theorem. This module
//! pairs every applicable oracle with a [`OracleMargin`]: a non-negative
//! integer that is `0` exactly when the paired verdict fails and grows with
//! the run's distance from the violation surface — rounds-to-budget slack for
//! liveness, resiliency headroom above `n = 3f`, scaled containment and
//! contraction slack for approximate agreement, acceptance and unanimity
//! distance for broadcast, clean-replay counts for recovery.
//!
//! The margins are the fitness signal of the search-guided fuzzer
//! (`uba_bench::search`): mutation moves that shrink a margin move the
//! scenario toward the violation surface even while every verdict still
//! passes, which is what lets a hill-climb find violations a blind grid sweep
//! cannot.
//!
//! Two kinds of entries are attached:
//!
//! * **verdict-paired** — one entry per [`OracleVerdict`] family (`consensus`,
//!   `reliable-broadcast`, `approx-agreement`, `recovery`, `stream`): the
//!   margin is clamped to 0 when the verdict fails and to ≥ 1 when it passes,
//!   so the invariant holds by construction regardless of how informative the
//!   gradient metrics are.
//! * **structural** — families whose properties are recorded as section booleans
//!   rather than verdicts: `liveness` (paired with `RunStatus::is_completed`),
//!   `resiliency` (paired with [`ScenarioSpec::admissible`]), `rotor`
//!   (`RotorSection::good_round`), `parallel-consensus`
//!   (`ParallelSection::agreement`), `total-order` (`ChainSection::prefix_ok`)
//!   and `convergence` (the [`crate::approx::check_convergence`] oracle over
//!   the spread section).
//!
//! The same section is what the fuzzer, the boundary sweep and the search
//! judge a run by: [`asserted`] picks the entries a run must keep above 0 and
//! [`violations`] renders the ones at 0.
//!
//! [`OracleMargin`]: uba_core::sim::OracleMargin
//! [`OracleVerdict`]: uba_core::sim::OracleVerdict
//! [`ScenarioSpec::admissible`]: uba_simnet::sim::ScenarioSpec::admissible

use uba_core::sim::{MarginMetric, MarginSection, OracleMargin, RunReport};

use crate::report::CheckReport;

/// Scale applied to real-valued slacks (approximate-agreement spreads) before
/// truncating to the integer margin domain: one margin unit per `10^-6` of
/// slack, matching the fixed-point resolution of `uba_core::Real`.
const REAL_SCALE: f64 = 1e6;

/// Renders a failed structural entry's line from its report.
type Line = fn(&RunReport) -> String;

/// The structural entries, in the order [`margin_section`] appends them, each
/// with the line [`violations`] prints when it is asserted and at 0. Both read
/// this table, so an entry cannot be built without its line.
const STRUCTURAL: [(&str, Line); 5] = [
    ("liveness", |report| {
        format!(
            "liveness: run exhausted its {}-round budget",
            report.scenario.max_rounds
        )
    }),
    ("rotor", |_| {
        "rotor: no good round (all-correct coordinator) occurred".into()
    }),
    ("parallel-consensus", |_| {
        "parallel-consensus: decided pair sets differ".into()
    }),
    ("total-order", |_| {
        "total-order: chain prefixes disagree".into()
    }),
    ("convergence", |_| {
        "convergence: an iteration failed to halve the spread".into()
    }),
];

/// Computes the full margin section for a report, given the per-section oracle
/// outcomes already produced by the verdict pass. `section_outcomes` must be
/// the `(oracle name, CheckReport)` pairs of
/// `crate::run_report::section_reports` for the same report — the clamp that
/// enforces the `margin == 0 ⟺ verdict fails` invariant reads pass/fail from
/// them, so margins and verdicts can never disagree.
pub fn margin_section(
    report: &RunReport,
    section_outcomes: &[(&'static str, CheckReport)],
) -> MarginSection {
    let mut oracles = Vec::new();

    oracles.push(structural(
        "liveness",
        report.status.is_completed(),
        vec![metric(
            "rounds-slack",
            report
                .scenario
                .max_rounds
                .saturating_sub(report.rounds)
                .saturating_add(1),
        )],
    ));

    let headroom = report
        .scenario
        .n()
        .saturating_sub(3 * report.scenario.byzantine) as u64;
    oracles.push(clamped(
        "resiliency",
        report.scenario.admissible(),
        vec![metric("headroom-above-3f", headroom)],
    ));

    for (oracle, outcome) in section_outcomes {
        let metrics = match *oracle {
            "consensus" => consensus_metrics(report),
            "reliable-broadcast" => broadcast_metrics(report),
            "approx-agreement" => approx_metrics(report),
            "recovery" => recovery_metrics(report),
            "stream" => stream_metrics(report),
            _ => Vec::new(),
        };
        oracles.push(clamped(oracle, outcome.passed(), metrics));
    }

    if let Some(rotor) = &report.rotor {
        oracles.push(structural(
            "rotor",
            rotor.good_round,
            vec![metric("coordinators-selected", rotor.selected as u64)],
        ));
    }
    if let Some(parallel) = &report.parallel {
        let instances = parallel
            .decisions
            .first()
            .map(|d| d.pairs.len() as u64)
            .unwrap_or(0);
        oracles.push(structural(
            "parallel-consensus",
            parallel.agreement,
            vec![metric("agreed-instances", instances)],
        ));
    }
    if let Some(chain) = &report.chain {
        let shortest = chain
            .lengths
            .iter()
            .map(|&(_, len)| len as u64)
            .min()
            .unwrap_or(0);
        oracles.push(structural(
            "total-order",
            chain.prefix_ok,
            vec![metric("common-prefix", shortest)],
        ));
    }
    if let Some(spreads) = &report.spreads {
        let outcome = crate::approx::check_convergence(&spreads.per_iteration);
        oracles.push(structural(
            "convergence",
            outcome.passed(),
            convergence_metrics(&spreads.per_iteration),
        ));
    }

    MarginSection { oracles }
}

/// The margin entries a run asserts: every entry except `resiliency`, which
/// records where the scenario sits relative to `n = 3f` rather than a property
/// of the run. Admissibility does not narrow the list — callers that assert
/// only inside (or only outside) the bound gate on it themselves.
///
/// The one narrowing is the crash suspension. On an admissible scenario with a
/// crash/restart event only `recovery` is asserted: the victim loses its
/// volatile state and the messages sent to it while it was down, and the
/// paper's theorems assume a correct node takes part in every round, so they
/// make no promise there. What such a run must still satisfy are the recovery
/// oracles — no cross-restart equivocation, a replay consistent with the
/// pre-crash prefix, no double-consumed input.
pub fn asserted(report: &RunReport) -> impl Iterator<Item = &OracleMargin> {
    let scenario = &report.scenario;
    let crash_suspended = scenario.admissible() && scenario.churn.has_crash_events();
    report.margins.oracles.iter().filter(move |entry| {
        entry.oracle != "resiliency" && (!crash_suspended || entry.oracle == "recovery")
    })
}

/// The violated properties of a run: for every [`asserted`] entry at 0, a
/// failed verdict's violations as `oracle {name}: …` (in verdict order), then
/// one line per structural entry (a section boolean with no verdict), in
/// section order, such as `liveness: run exhausted its 60-round budget`. A
/// report with no margin section was never judged by
/// [`crate::attach_verdicts`], and says so rather than passing.
pub fn violations(report: &RunReport) -> Vec<String> {
    if report.margins.oracles.is_empty() {
        return vec!["judge: the report has no margin section (attach_verdicts never ran)".into()];
    }
    let (mut lines, mut structural) = (Vec::new(), Vec::new());
    for entry in asserted(report).filter(|entry| entry.margin == 0) {
        match report.verdicts.iter().find(|v| v.oracle == entry.oracle) {
            Some(verdict) => lines.extend(
                verdict
                    .violations
                    .iter()
                    .map(|violation| format!("oracle {}: {violation}", verdict.oracle)),
            ),
            None => structural.push(structural_line(&entry.oracle)(report)),
        }
    }
    lines.extend(structural);
    lines
}

fn metric(name: &str, value: u64) -> MarginMetric {
    MarginMetric {
        name: name.to_string(),
        value,
    }
}

/// The [`STRUCTURAL`] line of `oracle`. An entry with neither a verdict nor a
/// row is a fault of this module, so it panics rather than print a made-up
/// line.
fn structural_line(oracle: &str) -> Line {
    match STRUCTURAL.iter().find(|&&(name, _)| name == oracle) {
        Some(&(_, line)) => line,
        None => panic!("margin entry `{oracle}` has neither a verdict nor a structural line"),
    }
}

/// [`clamped`] for a structural entry; a debug build panics when `oracle` has
/// no [`STRUCTURAL`] row, so every test that builds the entry catches it.
fn structural(oracle: &str, passed: bool, metrics: Vec<MarginMetric>) -> OracleMargin {
    if cfg!(debug_assertions) {
        structural_line(oracle);
    }
    clamped(oracle, passed, metrics)
}

/// Builds an entry from a verdict or a section boolean: margin 0 when it
/// failed, otherwise the smallest gradient metric clamped to ≥ 1 (so a passing
/// oracle never reports 0 even when no metric yields a useful gradient).
fn clamped(oracle: &str, passed: bool, metrics: Vec<MarginMetric>) -> OracleMargin {
    let margin = if passed {
        metrics.iter().map(|m| m.value).min().unwrap_or(1).max(1)
    } else {
        0
    };
    OracleMargin {
        oracle: oracle.to_string(),
        margin,
        metrics,
    }
}

fn consensus_metrics(report: &RunReport) -> Vec<MarginMetric> {
    let Some(section) = &report.consensus else {
        return Vec::new();
    };
    let mut metrics = Vec::new();
    // Rounds-to-termination slack: how much round budget remained when the
    // last node decided. Zero gradient (metric 1) while anyone is undecided.
    let termination_slack = if section.undecided.is_empty() {
        let last = section.decisions.iter().map(|d| d.round).max().unwrap_or(0);
        report
            .scenario
            .max_rounds
            .saturating_sub(last)
            .saturating_add(1)
    } else {
        1
    };
    metrics.push(metric("termination-slack", termination_slack));
    // Validity support: how many correct inputs equal the decided value — the
    // decision's distance from being forged out of thin air.
    let support = section
        .decisions
        .first()
        .map(|first| {
            section
                .inputs
                .iter()
                .filter(|&&(_, input)| input == first.value)
                .count() as u64
        })
        .unwrap_or(1);
    metrics.push(metric("validity-support", support));
    // Agreement spread: number of distinct decided values (1 = unanimous).
    let mut values: Vec<u64> = section.decisions.iter().map(|d| d.value).collect();
    values.sort_unstable();
    values.dedup();
    let spread_slack = if values.len() <= 1 { 2 } else { 0 };
    metrics.push(metric("agreement-spread-slack", spread_slack));
    metrics
}

fn broadcast_metrics(report: &RunReport) -> Vec<MarginMetric> {
    let Some(section) = &report.broadcast else {
        return Vec::new();
    };
    let mut metrics = Vec::new();
    // Unanimity distance: number of distinct accepted value sets (1 = consistent).
    let mut sets: Vec<Vec<u64>> = section
        .accepted
        .iter()
        .map(|set| set.values.iter().map(|&(value, _)| value).collect())
        .collect();
    sets.sort();
    sets.dedup();
    let unanimity = if sets.len() <= 1 { 2 } else { 0 };
    metrics.push(metric("unanimity-slack", unanimity));
    // Acceptance slack for a correct sender: round budget left after the last
    // correct node accepted the sent value.
    if section.source_correct {
        if let Some(sent) = section.sent {
            let accepted_rounds: Vec<u64> = section
                .accepted
                .iter()
                .filter_map(|set| {
                    set.values
                        .iter()
                        .find(|&&(value, _)| value == sent)
                        .map(|&(_, round)| round)
                })
                .collect();
            let slack = if accepted_rounds.len() == section.accepted.len() {
                let last = accepted_rounds.iter().copied().max().unwrap_or(0);
                report
                    .scenario
                    .max_rounds
                    .saturating_sub(last)
                    .saturating_add(1)
            } else {
                0
            };
            metrics.push(metric("acceptance-slack", slack));
        }
    }
    metrics
}

fn approx_metrics(report: &RunReport) -> Vec<MarginMetric> {
    let Some(section) = &report.approx else {
        return Vec::new();
    };
    let mut metrics = Vec::new();
    let (imin, imax) = section.input_range;
    // Containment slack: the worst output's distance inside the input range,
    // scaled to margin units. Zero once any output escapes the range.
    let containment = section
        .outputs
        .iter()
        .map(|&output| (output - imin).min(imax - output))
        .fold(f64::INFINITY, f64::min);
    let containment_units = if section.outputs.is_empty() {
        1
    } else if containment < 0.0 {
        0
    } else {
        (containment * REAL_SCALE) as u64 + 1
    };
    metrics.push(metric("containment-slack", containment_units));
    // Contraction slack: how far the output spread is below the input spread.
    let input_spread = imax - imin;
    let (omin, omax) = section.output_range;
    let output_spread = omax - omin;
    let contraction_units =
        if section.inputs.is_empty() || section.outputs.is_empty() || input_spread <= 0.0 {
            // Degenerate cases (no population, or an already-point input range)
            // cannot violate contraction — a unit margin, never a violation.
            1
        } else if output_spread < input_spread {
            ((input_spread - output_spread) * REAL_SCALE) as u64 + 1
        } else {
            0
        };
    metrics.push(metric("contraction-slack", contraction_units));
    metrics
}

fn recovery_metrics(report: &RunReport) -> Vec<MarginMetric> {
    let Some(section) = &report.recovery else {
        return Vec::new();
    };
    let clean = section
        .restarts
        .iter()
        .filter(|r| {
            r.send_conflicts == 0 && r.replayed_rounds == r.recovered_rounds && r.consumed_monotone
        })
        .count() as u64;
    vec![
        metric("clean-restarts", clean.saturating_add(1)),
        metric("restarts", section.restarts.len() as u64),
    ]
}

fn stream_metrics(report: &RunReport) -> Vec<MarginMetric> {
    let Some(section) = &report.stream else {
        return Vec::new();
    };
    vec![
        metric("completed-instances", section.completed as u64 + 1),
        metric("instances", section.instances.len() as u64),
    ]
}

fn convergence_metrics(spreads: &[f64]) -> Vec<MarginMetric> {
    // Halving slack: the tightest iteration's distance below the required
    // half-contraction. Zero once some iteration contracts by less than half.
    let slack = spreads
        .windows(2)
        .map(|w| w[0] / 2.0 - w[1])
        .fold(f64::INFINITY, f64::min);
    let units = if spreads.len() < 2 {
        1
    } else if slack < 0.0 {
        0
    } else {
        (slack * REAL_SCALE) as u64 + 1
    };
    vec![metric("halving-slack", units)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_report::attach_verdicts;
    use uba_core::sim::{AdversaryKind, ScenarioExt, Simulation};
    use uba_simnet::{ChurnEvent, ChurnSchedule, RestartPolicy};

    #[test]
    fn margins_pair_with_verdicts_and_respect_the_invariant() {
        let mut report = Simulation::scenario()
            .correct(7)
            .byzantine(2)
            .seed(41)
            .adversary(AdversaryKind::SplitVote)
            .consensus(&[0, 1, 0, 1, 0, 1, 0])
            .run()
            .unwrap();
        attach_verdicts(&mut report);
        assert!(!report.margins.oracles.is_empty());
        for verdict in &report.verdicts {
            let margin = report
                .margins
                .margin_for(&verdict.oracle)
                .expect("every verdict has a paired margin");
            assert_eq!(
                margin == 0,
                !verdict.passed,
                "margin invariant broken for {}",
                verdict.oracle
            );
        }
        assert!(report.margins.margin_for("liveness").unwrap() >= 1);
        assert!(report.margins.margin_for("resiliency").unwrap() >= 1);
    }

    #[test]
    fn a_failing_oracle_zeroes_its_margin() {
        let mut report = Simulation::scenario()
            .correct(5)
            .byzantine(1)
            .seed(45)
            .adversary(AdversaryKind::SplitVote)
            .consensus(&[0, 1, 0, 1, 0])
            .run()
            .unwrap();
        let section = report.consensus.as_mut().unwrap();
        section.decisions[0].value = 1 - section.decisions[0].value;
        attach_verdicts(&mut report);
        let consensus = report
            .verdicts
            .iter()
            .find(|v| v.oracle == "consensus")
            .unwrap();
        assert!(!consensus.passed);
        assert_eq!(report.margins.margin_for("consensus"), Some(0));
        assert_eq!(report.margins.min_margin(), Some(0));
    }

    #[test]
    fn inadmissible_scenarios_have_zero_resiliency_headroom() {
        let mut report = Simulation::scenario()
            .correct(2)
            .byzantine(1)
            .seed(7)
            .adversary(AdversaryKind::Silent)
            .consensus(&[0, 1])
            .run()
            .unwrap();
        attach_verdicts(&mut report);
        assert!(!report.scenario.admissible());
        assert_eq!(report.margins.margin_for("resiliency"), Some(0));
    }

    /// A consensus report over `correct` nodes plus one Byzantine, with the
    /// second correct node crashed at round 2 and restarted clean at round 4.
    fn crash_bearing_report(correct: usize) -> RunReport {
        let seed = 11;
        let base = Simulation::scenario()
            .correct(correct)
            .byzantine(1)
            .seed(seed)
            .spec()
            .clone();
        let victim = base.id_space.generate(correct + 1, seed)[1];
        let inputs: Vec<u64> = (0..correct as u64).map(|i| i % 2).collect();
        let mut report = Simulation::scenario()
            .correct(correct)
            .byzantine(1)
            .seed(seed)
            .churn(
                ChurnSchedule::empty()
                    .with(2, ChurnEvent::Crash(victim))
                    .with(
                        4,
                        ChurnEvent::Restart {
                            id: victim,
                            policy: RestartPolicy::Clean,
                        },
                    ),
            )
            .consensus(&inputs)
            .run()
            .unwrap();
        attach_verdicts(&mut report);
        assert!(report.scenario.churn.has_crash_events());
        assert!(report.recovery.is_some(), "the victim restarted");
        report
    }

    fn asserted_names(report: &RunReport) -> Vec<&str> {
        asserted(report)
            .map(|entry| entry.oracle.as_str())
            .collect()
    }

    #[test]
    fn an_admissible_crash_bearing_run_asserts_only_recovery() {
        let report = crash_bearing_report(4);
        assert!(report.scenario.admissible());
        assert_eq!(asserted_names(&report), ["recovery"]);
    }

    #[test]
    fn an_inadmissible_crash_bearing_run_asserts_everything_but_resiliency() {
        let report = crash_bearing_report(2);
        assert!(!report.scenario.admissible());
        let expected: Vec<&str> = report
            .margins
            .oracles
            .iter()
            .map(|entry| entry.oracle.as_str())
            .filter(|&oracle| oracle != "resiliency")
            .collect();
        assert!(expected.contains(&"liveness") && expected.contains(&"recovery"));
        assert_eq!(asserted_names(&report), expected);
    }

    #[test]
    fn a_fixed_round_family_asserts_liveness_and_meets_it() {
        let mut report = Simulation::scenario()
            .correct(4)
            .byzantine(1)
            .seed(43)
            .adversary(AdversaryKind::AnnounceThenSilent)
            .broadcast(42)
            .run()
            .unwrap();
        attach_verdicts(&mut report);
        let liveness = asserted(&report)
            .find(|entry| entry.oracle == "liveness")
            .expect("liveness is asserted for every family");
        assert!(liveness.margin >= 1);
        assert_eq!(violations(&report), Vec::<String>::new());
    }

    #[test]
    fn each_structural_entry_at_zero_yields_its_line_after_the_verdicts() {
        let mut report = Simulation::scenario()
            .correct(5)
            .byzantine(1)
            .seed(45)
            .max_rounds(60)
            .adversary(AdversaryKind::SplitVote)
            .consensus(&[0, 1, 0, 1, 0])
            .run()
            .unwrap();
        let section = report.consensus.as_mut().unwrap();
        section.decisions[0].value = 1 - section.decisions[0].value;
        attach_verdicts(&mut report);
        for entry in &mut report.margins.oracles {
            if matches!(entry.oracle.as_str(), "liveness" | "resiliency") {
                entry.margin = 0;
            }
        }
        for (oracle, _) in &STRUCTURAL[1..] {
            report
                .margins
                .oracles
                .push(structural(oracle, false, Vec::new()));
        }
        let lines = violations(&report);
        let (verdict_lines, structural) = lines.split_at(lines.len() - 5);
        assert!(!verdict_lines.is_empty());
        assert!(verdict_lines
            .iter()
            .all(|line| line.starts_with("oracle consensus: [consensus/")));
        assert_eq!(
            structural,
            [
                "liveness: run exhausted its 60-round budget",
                "rotor: no good round (all-correct coordinator) occurred",
                "parallel-consensus: decided pair sets differ",
                "total-order: chain prefixes disagree",
                "convergence: an iteration failed to halve the spread",
            ]
        );
    }

    #[test]
    fn a_report_without_margins_is_a_judge_violation() {
        let report = Simulation::scenario()
            .correct(4)
            .byzantine(1)
            .seed(7)
            .consensus(&[0, 1, 0, 1])
            .run()
            .unwrap();
        assert!(report.margins.oracles.is_empty());
        let lines = violations(&report);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("judge: "), "{lines:?}");
    }

    #[test]
    fn margins_survive_serde_round_trips() {
        let mut report = Simulation::scenario()
            .correct(7)
            .byzantine(2)
            .seed(47)
            .broadcast_equivocating(1, 2)
            .run()
            .unwrap();
        attach_verdicts(&mut report);
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.margins, report.margins);
    }
}
