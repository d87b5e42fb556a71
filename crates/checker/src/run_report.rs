//! Oracles over the unified [`RunReport`] produced by the `Simulation` driver.
//!
//! The driver records protocol-agnostic sections (decisions, accept sets, value
//! ranges); this module replays the corresponding theorem oracles over those
//! sections, so any consumer holding a report — the experiment harness, a JSON
//! baseline loaded from disk, a test — can verify the paper's properties without
//! access to the live engine:
//!
//! * a `consensus` section runs the Theorem 3 oracle ([`crate::consensus`]);
//! * a `broadcast` section runs the Theorem 1 oracle ([`crate::broadcast`]),
//!   except the relay property, which needs per-round traces the report does not
//!   carry;
//! * an `approx` section runs the Theorem 4 containment/contraction oracle
//!   ([`crate::approx`]).
//!
//! [`attach_verdicts`] writes the outcomes back into [`RunReport::verdicts`], the
//! form in which reports are serialised to recorded baselines.

use uba_core::consensus::Decision;
use uba_core::reliable_broadcast::Accepted;
use uba_core::sim::{OracleVerdict, RunReport};

use crate::broadcast::{check_reliable_broadcast, NodeAcceptances, SenderTruth};
use crate::consensus::{check_consensus, ConsensusCheck, ConsensusObservation};
use crate::report::CheckReport;

/// Runs every applicable oracle over the report's sections and returns the merged
/// [`CheckReport`]. Sections that are absent contribute nothing.
pub fn check_run_report(report: &RunReport) -> CheckReport {
    let mut merged = CheckReport::new();
    for (_, section_report) in section_reports(report) {
        merged.merge(section_report);
    }
    merged
}

/// Runs every applicable oracle and stores both the verdicts and the paired
/// distance-to-violation margins (see [`crate::margin`]) in the report itself.
pub fn attach_verdicts(report: &mut RunReport) {
    let sections = section_reports(report);
    report.verdicts = sections
        .iter()
        .map(|(oracle, section_report)| OracleVerdict {
            oracle: oracle.to_string(),
            passed: section_report.passed(),
            checks: section_report.checks,
            violations: section_report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect(),
        })
        .collect();
    report.margins = crate::margin::margin_section(report, &sections);
}

pub(crate) fn section_reports(report: &RunReport) -> Vec<(&'static str, CheckReport)> {
    let mut reports = Vec::new();
    if let Some(consensus) = &report.consensus {
        let observations: Vec<ConsensusObservation<u64>> = consensus
            .inputs
            .iter()
            .map(|&(node, input)| ConsensusObservation {
                node,
                input,
                decision: consensus
                    .decisions
                    .iter()
                    .find(|d| d.node == node)
                    .map(|d| Decision {
                        value: d.value,
                        phase: d.phase,
                        round: d.round,
                    }),
            })
            .collect();
        let config = ConsensusCheck {
            // A capped run legitimately leaves nodes undecided; agreement and
            // validity must hold regardless.
            expect_termination: report.status.is_completed(),
            round_bound: None,
        };
        reports.push(("consensus", check_consensus(&observations, config)));
    }
    if let Some(broadcast) = &report.broadcast {
        let truth = match broadcast.sent {
            Some(message) if broadcast.source_correct => SenderTruth::Correct(message),
            _ => SenderTruth::Byzantine,
        };
        let observations: Vec<NodeAcceptances<u64>> = broadcast
            .accepted
            .iter()
            .map(|set| NodeAcceptances {
                node: set.node,
                accepted: set
                    .values
                    .iter()
                    .map(|&(message, round)| Accepted {
                        message,
                        source: broadcast.source,
                        round,
                    })
                    .collect(),
            })
            .collect();
        // The relay property needs acceptance-vs-trace timing the report does not
        // record, so the report-level oracle checks correctness, unforgeability and
        // consistency with the relay deadline disabled (final_round = 0 skips it).
        reports.push((
            "reliable-broadcast",
            check_reliable_broadcast(&truth, &observations, 0),
        ));
    }
    if let Some(approx) = &report.approx {
        reports.push((
            "approx-agreement",
            crate::approx::check_approx(&approx.inputs, &approx.outputs),
        ));
    }
    if let Some(recovery) = &report.recovery {
        reports.push(("recovery", crate::recovery::check_recovery(recovery)));
    }
    if let Some(stream) = &report.stream {
        reports.push(("stream", crate::stream::check_stream(stream)));
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_core::sim::{AdversaryKind, ScenarioExt, Simulation};

    #[test]
    fn consensus_report_is_accepted_by_the_oracle() {
        let mut report = Simulation::scenario()
            .correct(7)
            .byzantine(2)
            .seed(41)
            .adversary(AdversaryKind::SplitVote)
            .consensus(&[0, 1, 0, 1, 0, 1, 0])
            .run()
            .unwrap();
        check_run_report(&report).assert_passed("consensus run report");
        attach_verdicts(&mut report);
        assert_eq!(report.verdicts.len(), 1);
        assert_eq!(report.verdicts[0].oracle, "consensus");
        assert!(report.verdicts_passed());
        assert!(report.verdicts[0].checks > 0);
    }

    #[test]
    fn broadcast_report_is_accepted_by_the_oracle() {
        let mut report = Simulation::scenario()
            .correct(7)
            .byzantine(2)
            .seed(43)
            .adversary(AdversaryKind::AnnounceThenSilent)
            .broadcast(42)
            .run()
            .unwrap();
        attach_verdicts(&mut report);
        assert_eq!(report.verdicts.len(), 1);
        assert_eq!(report.verdicts[0].oracle, "reliable-broadcast");
        assert!(report.verdicts_passed());
    }

    #[test]
    fn tampered_report_fails_the_oracle() {
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
        let checked = check_run_report(&report);
        assert!(!checked.passed(), "a flipped decision must be caught");
        assert!(checked
            .violations
            .iter()
            .any(|v| v.property == "consensus/agreement"));
    }

    #[test]
    fn verdicts_survive_serde_round_trips() {
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
        assert_eq!(back, report);
        assert!(back.verdicts_passed());
    }
}
