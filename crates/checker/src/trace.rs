//! Trace attribution: who delivered what, and did the message plane stay
//! zero-copy?
//!
//! The engine's [`TraceLog`] records one event per delivery, carrying the payload
//! behind the same [`Shared`](uba_simnet::Shared) handle the recipient's inbox holds. That gives this
//! oracle two capabilities the report-level oracles lack:
//!
//! * **attribution** — deliveries split by honest vs Byzantine sender, per the
//!   engine's authoritative `byzantine` flag (the sender id is attached by the
//!   network and cannot be forged, so the split is ground truth);
//! * **sharing** — the handle *tokens* reveal whether a broadcast's fan-out
//!   re-used one payload allocation or silently re-materialised it per
//!   recipient. [`check_zero_copy`] turns that into an executable property, so a
//!   future engine change that re-introduces per-recipient deep clones fails a
//!   test instead of quietly regressing the allocation profile.

use std::collections::HashSet;

use uba_simnet::{NodeId, TraceLog};

use crate::report::{CheckReport, Violation};

/// Per-sender-class delivery accounting over a recorded trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceAttribution {
    /// Total deliveries recorded (excluding events dropped at capacity).
    pub deliveries: u64,
    /// Deliveries whose sender was a correct node.
    pub honest: u64,
    /// Deliveries whose sender was controlled by the adversary.
    pub byzantine: u64,
    /// Distinct payload *allocations* observed across all deliveries (by handle
    /// token). With a zero-copy plane this is bounded by the number of messages
    /// produced, never by the delivery fan-out.
    pub distinct_allocations: u64,
    /// Distinct payload *values* observed (by cached digest). `distinct_allocations`
    /// may exceed this (equal payloads of different rounds, or a fabrication equal
    /// to an honest broadcast, are separate allocations), but
    /// with a healthy plane it stays far below `deliveries`.
    pub distinct_values: u64,
}

/// Summarises a trace: deliveries per sender class plus payload-sharing counts.
pub fn attribute_trace<P>(trace: &TraceLog<P>) -> TraceAttribution {
    let mut allocations: HashSet<usize> = HashSet::new();
    let mut values: HashSet<u64> = HashSet::new();
    let mut attribution = TraceAttribution::default();
    for event in trace.events() {
        attribution.deliveries += 1;
        if event.byzantine {
            attribution.byzantine += 1;
        } else {
            attribution.honest += 1;
        }
        allocations.insert(event.payload.token());
        values.insert(event.payload.digest());
    }
    attribution.distinct_allocations = allocations.len() as u64;
    attribution.distinct_values = values.len() as u64;
    attribution
}

/// Deliveries to one recipient attributed by sender class: `(honest, byzantine)`.
pub fn deliveries_to<P>(trace: &TraceLog<P>, to: NodeId) -> (u64, u64) {
    let mut honest = 0;
    let mut byzantine = 0;
    for event in trace.to_node(to) {
        if event.byzantine {
            byzantine += 1;
        } else {
            honest += 1;
        }
    }
    (honest, byzantine)
}

/// The zero-copy property of the shared-payload message plane: across a recorded
/// trace, the number of distinct payload allocations must not exceed
/// `produced_messages` — the count of compact message-production events (broadcasts
/// counted once, not once per recipient) plus adversary injections. A violation
/// means some layer re-materialised payloads per recipient.
pub fn check_zero_copy<P>(trace: &TraceLog<P>, produced_messages: u64) -> CheckReport {
    let mut report = CheckReport::new();
    let attribution = attribute_trace(trace);
    report.checks += 1;
    if attribution.distinct_allocations > produced_messages {
        report.violations.push(Violation::new(
            "message-plane/zero-copy",
            format!(
                "{} distinct payload allocations observed across {} deliveries, but only \
                 {} messages were produced — a layer is deep-cloning payloads per recipient",
                attribution.distinct_allocations, attribution.deliveries, produced_messages,
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::{Shared, TraceEvent};

    fn event(from: u64, to: u64, byzantine: bool, payload: Shared<u32>) -> TraceEvent<u32> {
        TraceEvent {
            round: 1,
            from: NodeId::new(from),
            to: NodeId::new(to),
            byzantine,
            payload,
        }
    }

    #[test]
    fn attribution_counts_classes_and_sharing() {
        let broadcast = Shared::new(7u32);
        let mut trace = TraceLog::with_capacity(16);
        // One broadcast delivered to three nodes (shared handle), one Byzantine
        // injection with a fresh payload that happens to equal the broadcast.
        for to in [1, 2, 3] {
            trace.record(event(10, to, false, broadcast.clone()));
        }
        trace.record(event(99, 1, true, Shared::new(7u32)));

        let attribution = attribute_trace(&trace);
        assert_eq!(attribution.deliveries, 4);
        assert_eq!(attribution.honest, 3);
        assert_eq!(attribution.byzantine, 1);
        assert_eq!(attribution.distinct_allocations, 2, "broadcast + injection");
        assert_eq!(attribution.distinct_values, 1, "equal payload value");
        assert_eq!(deliveries_to(&trace, NodeId::new(1)), (1, 1));
    }

    #[test]
    fn zero_copy_check_flags_per_recipient_cloning() {
        let mut shared = TraceLog::with_capacity(16);
        let payload = Shared::new(1u32);
        for to in [1, 2, 3] {
            shared.record(event(10, to, false, payload.clone()));
        }
        assert!(
            check_zero_copy(&shared, 1).passed(),
            "one broadcast, one allocation"
        );

        let mut cloned = TraceLog::with_capacity(16);
        for to in [1, 2, 3] {
            cloned.record(event(10, to, false, Shared::new(1u32)));
        }
        let report = check_zero_copy(&cloned, 1);
        assert!(!report.passed(), "three allocations for one broadcast");
        assert!(report.violations[0].property.contains("zero-copy"));
    }
}
