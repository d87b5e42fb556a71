//! Tracking `n_v`: the roster of nodes a correct node has heard from.
//!
//! In the id-only model the only way a correct node learns about another node's
//! existence is by receiving a message from it. `n_v` — "the number of nodes that sent
//! at least one message to `v` until the current round" — is the local substitute for
//! the unknown `n` in every threshold of the paper's algorithms.
//!
//! Counting its peers, a node also *numbers* them: the [`SenderTracker`] is a roster,
//! and a member's [`Rank`] is its number — 0 for the first node heard from, 1 for the
//! second, `n_v − 1` for the latest. Every tally in this crate ([`crate::vote`], the
//! rotor's [`EchoVotes`](crate::rotor::EchoVotes)) is indexed by rank: "did this
//! member vote" is one bit.
//!
//! A rank, once given, never changes, so a bit row stays valid however the roster
//! grows afterwards. That matters because not every roster freezes: reliable
//! broadcast and the standalone rotor never freeze theirs, and a consensus node whose
//! first step comes after round 3 (a late joiner, a node restarted from a log that
//! ends before round 3) never reaches the freeze either and keeps admitting senders
//! while it holds votes from earlier rounds.
//!
//! The roster is kept in increasing identifier order, and [`SenderTracker::members`]
//! and [`SenderTracker::ranks`] walk it in that order — whatever depends on the order
//! members are visited in sees identifier order.

use uba_simnet::{Inbox, NodeId};

/// A member's number in the roster: the count of distinct senders heard from before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rank(u32);

impl Rank {
    /// The number as an index, `0..n_v`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Cumulative record of the distinct senders a node has observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SenderTracker {
    /// In increasing identifier order.
    members: Vec<(NodeId, Rank)>,
    frozen: bool,
}

impl SenderTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        SenderTracker::default()
    }

    fn position(&self, id: NodeId) -> Result<usize, usize> {
        self.members
            .binary_search_by_key(&id, |&(member, _)| member)
    }

    /// Records a sender. Has no effect once the tracker is frozen.
    pub fn record(&mut self, from: NodeId) {
        if !self.frozen {
            if let Err(at) = self.position(from) {
                let rank = Rank(self.members.len() as u32);
                self.members.insert(at, (from, rank));
            }
        }
    }

    /// Records every sender of an inbox. Has no effect once frozen. A sender's
    /// broadcasts sit next to each other in an inbox, so only the first entry of
    /// each run of one sender is looked up.
    pub fn record_inbox<P>(&mut self, inbox: Inbox<'_, P>) {
        if self.frozen {
            return;
        }
        let mut previous = None;
        for (from, _) in inbox {
            if previous != Some(from) {
                self.record(from);
                previous = Some(from);
            }
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

    /// Whether the membership is frozen: no inbox can change `n_v` any more.
    pub(crate) fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Whether `other` numbers the same members the same way: equal
    /// rank-ordered rosters, whether or not either is frozen.
    pub(crate) fn same_roster(&self, other: &SenderTracker) -> bool {
        self.members == other.members
    }

    /// `n_v`: the number of distinct senders observed (so far, or at freeze time).
    pub fn n_v(&self) -> usize {
        self.members.len()
    }

    /// The rank of an observed node; `None` for a node never heard from.
    pub fn rank_of(&self, id: NodeId) -> Option<Rank> {
        self.position(id).ok().map(|at| self.members[at].1)
    }

    /// The observed senders in increasing identifier order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().map(|&(member, _)| member)
    }

    /// The rank of every member, in the order of [`members`](Self::members).
    pub fn ranks(&self) -> impl Iterator<Item = Rank> + '_ {
        self.members.iter().map(|&(_, rank)| rank)
    }

    /// Resolves the sender of each inbox entry to its rank, looking a sender up once
    /// per run of consecutive entries; entries from non-members are skipped.
    pub fn ranked<'s, 'a: 's, P>(
        &'s self,
        inbox: Inbox<'a, P>,
    ) -> impl Iterator<Item = (NodeId, Rank, &'a P)> + 's {
        let mut run: Option<(NodeId, Option<Rank>)> = None;
        inbox.iter().filter_map(move |(from, payload)| {
            let rank = match run {
                Some((sender, rank)) if sender == from => rank,
                _ => {
                    let rank = self.rank_of(from);
                    run = Some((from, rank));
                    rank
                }
            };
            rank.map(|rank| (from, rank, payload))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::BTreeSet;
    use uba_simnet::rng::seeded_rng;
    use uba_simnet::{Envelope, IdSpace};

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
        assert!(tracker.rank_of(NodeId::new(1)).is_some());
        assert!(tracker.rank_of(NodeId::new(3)).is_none());
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
        tracker.record(NodeId::new(2));
        let inbox = [envelope(3, 0)];
        tracker.record_inbox(Inbox::from(&inbox[..]));
        assert_eq!(tracker.n_v(), 1);
        assert!(tracker.rank_of(NodeId::new(2)).is_none());
    }

    #[test]
    fn ranked_skips_unknown_senders_and_numbers_the_rest() {
        let mut tracker = SenderTracker::new();
        tracker.record(NodeId::new(2));
        tracker.record(NodeId::new(1));
        tracker.freeze();
        let inbox = [
            envelope(2, 10),
            envelope(2, 11),
            envelope(9, 12),
            envelope(1, 13),
            envelope(2, 14),
        ];
        let kept: Vec<(u64, usize, u32)> = tracker
            .ranked(Inbox::from(&inbox[..]))
            .map(|(from, rank, payload)| (from.raw(), rank.index(), *payload))
            .collect();
        assert_eq!(kept, vec![(2, 0, 10), (2, 0, 11), (1, 1, 13), (2, 0, 14)]);
    }

    /// The tree form the roster replaced, as the reference: the same seeded
    /// operation sequences drive both, compared after every operation. Ranks are
    /// checked against the order of first hearing, and never change once given.
    #[test]
    fn roster_matches_the_sorted_set_model() {
        for seed in 0..1_000u64 {
            let mut rng = seeded_rng(seed);
            let universe = IdSpace::default().generate(rng.gen_range(1..24), seed);
            let mut roster = SenderTracker::new();
            let mut model: BTreeSet<NodeId> = BTreeSet::new();
            let mut heard_in_order: Vec<NodeId> = Vec::new();
            let mut frozen = false;
            for _ in 0..rng.gen_range(1..40) {
                let mut senders: Vec<NodeId> = Vec::new();
                match rng.gen_range(0..10) {
                    0 => {
                        roster.freeze();
                        frozen = true;
                    }
                    1..=4 => {
                        // An inbox with runs, repeats and interleaving.
                        let inbox: Vec<Envelope<u32>> = (0..rng.gen_range(0..12))
                            .flat_map(|_| {
                                let from = universe[rng.gen_range(0..universe.len())];
                                (0..rng.gen_range(1..4)).map(move |k| Envelope::new(from, k))
                            })
                            .collect();
                        roster.record_inbox(Inbox::from(&inbox[..]));
                        senders.extend(inbox.iter().map(|e| e.from));
                    }
                    _ => {
                        let id = universe[rng.gen_range(0..universe.len())];
                        roster.record(id);
                        senders.push(id);
                    }
                }
                for id in senders {
                    if !frozen && model.insert(id) {
                        heard_in_order.push(id);
                    }
                }
                assert_eq!(roster.n_v(), model.len());
                assert!(roster.members().eq(model.iter().copied()), "members order");
                for &id in &universe {
                    assert_eq!(
                        roster.rank_of(id).map(Rank::index),
                        heard_in_order.iter().position(|&m| m == id),
                        "rank_of ≡ position in the order of first hearing"
                    );
                }
                assert!(
                    roster
                        .ranks()
                        .eq(roster.members().map(|id| roster.rank_of(id).unwrap())),
                    "ranks() walks members() order"
                );
            }
        }
    }
}
