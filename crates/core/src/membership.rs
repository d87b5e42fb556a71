//! Tracking `n_v`: the set of nodes a correct node has heard from.
//!
//! In the id-only model the only way a correct node learns about another node's
//! existence is by receiving a message from it. `n_v` — "the number of nodes that sent
//! at least one message to `v` until the current round" — is the local substitute for
//! the unknown `n` in every threshold of the paper's algorithms.

use std::collections::BTreeSet;

use uba_simnet::{Inbox, NodeId};

/// Cumulative record of the distinct senders a node has observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SenderTracker {
    seen: BTreeSet<NodeId>,
    frozen: bool,
}

impl SenderTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        SenderTracker::default()
    }

    /// Records a sender. Has no effect once the tracker is frozen.
    pub fn record(&mut self, from: NodeId) {
        if !self.frozen {
            self.seen.insert(from);
        }
    }

    /// Records every sender of an inbox. Has no effect once frozen.
    pub fn record_inbox<P>(&mut self, inbox: Inbox<'_, P>) {
        for (from, _) in inbox {
            self.record(from);
        }
    }

    /// Freezes the membership: later `record*` calls are ignored.
    ///
    /// The consensus algorithms (Algorithms 3 and 5) compute `n_v` once during
    /// initialisation and from then on "only accept messages from a node if it counted
    /// towards `n_v` during the initialization"; freezing implements that.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Whether the tracker has been frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// `n_v`: the number of distinct senders observed (so far, or at freeze time).
    pub fn n_v(&self) -> usize {
        self.seen.len()
    }

    /// Whether the given node has been observed.
    pub fn contains(&self, id: NodeId) -> bool {
        self.seen.contains(&id)
    }

    /// The observed senders in increasing identifier order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.seen.iter().copied()
    }

    /// Filters an inbox down to the messages whose sender counted towards `n_v`.
    /// Used by the frozen-membership algorithms to discard messages from unknown nodes.
    pub fn filter_inbox<'s, 'a: 's, P>(
        &'s self,
        inbox: Inbox<'a, P>,
    ) -> impl Iterator<Item = (NodeId, &'a P)> + Clone + 's {
        inbox.iter().filter(move |&(from, _)| self.contains(from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::Envelope;

    fn envelope(from: u64, payload: u32) -> Envelope<u32> {
        Envelope::new(NodeId::new(from), payload)
    }

    #[test]
    fn records_distinct_senders() {
        let mut tracker = SenderTracker::new();
        tracker.record(NodeId::new(1));
        tracker.record(NodeId::new(2));
        tracker.record(NodeId::new(1));
        assert_eq!(tracker.n_v(), 2);
        assert!(tracker.contains(NodeId::new(1)));
        assert!(!tracker.contains(NodeId::new(3)));
    }

    #[test]
    fn records_inbox_senders() {
        let mut tracker = SenderTracker::new();
        let inbox = [envelope(5, 0), envelope(6, 0), envelope(5, 1)];
        tracker.record_inbox(Inbox::from(&inbox[..]));
        assert_eq!(tracker.n_v(), 2);
        let members: Vec<NodeId> = tracker.members().collect();
        assert_eq!(members, vec![NodeId::new(5), NodeId::new(6)]);
    }

    #[test]
    fn freeze_stops_growth() {
        let mut tracker = SenderTracker::new();
        tracker.record(NodeId::new(1));
        tracker.freeze();
        assert!(tracker.is_frozen());
        tracker.record(NodeId::new(2));
        let inbox = [envelope(3, 0)];
        tracker.record_inbox(Inbox::from(&inbox[..]));
        assert_eq!(tracker.n_v(), 1);
        assert!(!tracker.contains(NodeId::new(2)));
    }

    #[test]
    fn filter_inbox_drops_unknown_senders() {
        let mut tracker = SenderTracker::new();
        tracker.record(NodeId::new(1));
        tracker.record(NodeId::new(2));
        tracker.freeze();
        let inbox = [envelope(1, 10), envelope(9, 11), envelope(2, 12)];
        let kept: Vec<u32> = tracker
            .filter_inbox(Inbox::from(&inbox[..]))
            .map(|(_, payload)| *payload)
            .collect();
        assert_eq!(kept, vec![10, 12]);
    }
}
