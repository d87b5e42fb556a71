//! Violation reports shared by every oracle.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A single concrete violation of a paper property, with enough context to debug the
/// failing execution.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The property that was violated (e.g. `"reliable-broadcast/correctness"`).
    pub property: String,
    /// Human-readable description of what was observed.
    pub details: String,
}

impl Violation {
    /// Creates a violation record.
    pub fn new(property: impl Into<String>, details: impl Into<String>) -> Self {
        Violation {
            property: property.into(),
            details: details.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.property, self.details)
    }
}

/// The outcome of running one or more oracles over an execution.
///
/// A report *passes* when it contains no violations. `checks` counts the individual
/// property evaluations performed, so that callers can assert both "no violations"
/// and "the oracle actually looked at something".
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckReport {
    /// Violations found, in discovery order.
    pub violations: Vec<Violation>,
    /// Number of individual property evaluations performed.
    pub checks: usize,
}

impl CheckReport {
    /// An empty report (no checks run yet).
    pub fn new() -> Self {
        CheckReport::default()
    }

    /// Records that one property evaluation was performed.
    pub fn record_check(&mut self) {
        self.checks += 1;
    }

    /// Records a violation.
    pub fn violate(&mut self, property: impl Into<String>, details: impl Into<String>) {
        self.violations.push(Violation::new(property, details));
    }

    /// Evaluates a predicate as one check, recording a violation when it is false.
    pub fn expect(
        &mut self,
        condition: bool,
        property: impl Into<String>,
        details: impl FnOnce() -> String,
    ) {
        self.record_check();
        if !condition {
            self.violate(property, details());
        }
    }

    /// Whether no violation was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: CheckReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }

    /// Panics with a readable message if the report contains violations. Convenience
    /// for tests: `report.assert_passed("consensus under split-vote adversary")`.
    pub fn assert_passed(&self, context: &str) {
        assert!(
            self.passed(),
            "{context}: {} violation(s) across {} checks:\n{}",
            self.violations.len(),
            self.checks,
            self.violations
                .iter()
                .map(|v| format!("  - {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.passed() {
            write!(f, "ok ({} checks)", self.checks)
        } else {
            writeln!(
                f,
                "FAILED ({} violations / {} checks)",
                self.violations.len(),
                self.checks
            )?;
            for violation in &self.violations {
                writeln!(f, "  - {violation}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_passes_with_zero_checks() {
        let report = CheckReport::new();
        assert!(report.passed());
        assert_eq!(report.checks, 0);
        assert_eq!(report.to_string(), "ok (0 checks)");
    }

    #[test]
    fn expect_records_checks_and_violations() {
        let mut report = CheckReport::new();
        report.expect(true, "p1", || {
            unreachable!("details must not be built on success")
        });
        report.expect(false, "p2", || "observed the bad thing".to_string());
        assert_eq!(report.checks, 2);
        assert_eq!(report.violations.len(), 1);
        assert!(!report.passed());
        assert_eq!(report.violations[0].property, "p2");
        assert!(report.to_string().contains("observed the bad thing"));
    }

    #[test]
    fn merge_accumulates_both_fields() {
        let mut a = CheckReport::new();
        a.expect(true, "x", String::new);
        let mut b = CheckReport::new();
        b.expect(false, "y", || "boom".into());
        a.merge(b);
        assert_eq!(a.checks, 2);
        assert_eq!(a.violations.len(), 1);
    }

    #[test]
    #[should_panic(expected = "under attack: 1 violation")]
    fn assert_passed_panics_with_context() {
        let mut report = CheckReport::new();
        report.expect(false, "agreement", || "nodes disagree".into());
        report.assert_passed("under attack");
    }

    #[test]
    fn violation_display_includes_property() {
        let v = Violation::new(
            "consensus/agreement",
            "node n3 decided 1, node n4 decided 0",
        );
        assert_eq!(
            v.to_string(),
            "[consensus/agreement] node n3 decided 1, node n4 decided 0"
        );
    }
}
