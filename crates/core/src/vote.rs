//! Vote tallying: counting distinct supporters per value.
//!
//! Every threshold in the paper is of the form "received at least `n_v/3` (or
//! `2n_v/3`) messages *of a particular content*". A [`VoteTally`] counts, per value,
//! the distinct senders supporting it — duplicate votes from the same sender are
//! ignored, matching the model's "duplicate messages from the same node in a round are
//! simply discarded".
//!
//! A node numbers the senders it has heard from (the roster,
//! [`crate::membership`]), so a set of voters is a [`VoterSet`]: one bit per
//! [`Rank`] and a count beside it. Recording a vote is a test-and-set; a tally
//! holds a handful of values, kept as a short vector in value order. A rank never
//! changes, so a set stays valid while the roster grows: it simply extends to the
//! highest rank it has been given.

use crate::membership::Rank;
use crate::quorum::meets_two_thirds;
use crate::value::Opinion;

/// A set of roster members: a bit per rank and the number of bits set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VoterSet {
    /// Bit `rank % 64` of word `rank / 64`; as many words as the highest rank needs.
    words: Vec<u64>,
    count: usize,
}

impl VoterSet {
    /// Adds a member. Returns true if it was not in the set.
    pub fn insert(&mut self, rank: Rank) -> bool {
        let (word, bit) = (rank.index() / 64, 1 << (rank.index() % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let new = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.count += new as usize;
        new
    }

    /// Whether the member is in the set.
    pub fn contains(&self, rank: Rank) -> bool {
        self.words
            .get(rank.index() / 64)
            .is_some_and(|word| word & (1 << (rank.index() % 64)) != 0)
    }

    /// Number of members in the set.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Adds every member of `other`: a word union.
    pub fn union(&mut self, other: &VoterSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (word, theirs) in self.words.iter_mut().zip(&other.words) {
            *word |= theirs;
        }
        self.count = self
            .words
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum();
    }

    /// Empties the set, keeping its allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.count = 0;
    }
}

/// Distinct-sender vote counts per value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VoteTally<V: Opinion> {
    /// In increasing value order.
    votes: Vec<(V, VoterSet)>,
}

impl<V: Opinion> Default for VoteTally<V> {
    fn default() -> Self {
        VoteTally::new()
    }
}

impl<V: Opinion> VoteTally<V> {
    /// Creates an empty tally.
    pub fn new() -> Self {
        VoteTally { votes: Vec::new() }
    }

    /// Records that `voter` supports `value`. Returns true if this was a new vote.
    /// The value is cloned only the first time it is seen.
    ///
    /// A value's row is found with `==`, not `cmp`: the rows are few (placing a
    /// new one is O(rows) anyway), and for byte-like values `==` is one `memcmp`
    /// where `cmp` walks the elements. The order is consulted only to place a
    /// new row.
    pub fn insert(&mut self, voter: Rank, value: &V) -> bool {
        let at = self.row(value);
        self.votes[at].1.insert(voter)
    }

    /// Adds every vote of `other`: a word union per value.
    pub fn union(&mut self, other: &VoteTally<V>) {
        for (value, voters) in &other.votes {
            let at = self.row(value);
            self.votes[at].1.union(voters);
        }
    }

    /// The row of `value`, added (the value cloned) if it has none.
    fn row(&mut self, value: &V) -> usize {
        match self.votes.iter().position(|(v, _)| v == value) {
            Some(at) => at,
            None => {
                let at = self.votes.partition_point(|(v, _)| v.cmp(value).is_lt());
                self.votes.insert(at, (value.clone(), VoterSet::default()));
                at
            }
        }
    }

    /// Number of distinct supporters of `value`.
    pub fn count(&self, value: &V) -> usize {
        self.votes
            .binary_search_by(|(v, _)| v.cmp(value))
            .map_or(0, |at| self.votes[at].1.count())
    }

    /// The value with the most supporters, ties broken towards the smaller value so
    /// the choice is deterministic. `None` if the tally is empty.
    pub fn plurality(&self) -> Option<(&V, usize)> {
        let mut best: Option<(&V, usize)> = None;
        for (value, count) in self.iter().map(|(v, s)| (v, s.count())) {
            if best.is_none_or(|(_, most)| count > most) {
                best = Some((value, count));
            }
        }
        best
    }

    /// Values whose support meets the `2n_v/3` threshold, in value order.
    pub fn meeting_two_thirds(&self, n_v: usize) -> impl Iterator<Item = (&V, usize)> {
        self.iter()
            .map(|(v, s)| (v, s.count()))
            .filter(move |&(_, c)| meets_two_thirds(c, n_v))
    }

    /// Iterates over `(value, supporter set)` pairs in value order.
    pub fn iter(&self) -> impl Iterator<Item = (&V, &VoterSet)> {
        self.votes.iter().map(|(v, s)| (v, s))
    }

    /// Whether no votes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.votes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::SenderTracker;
    use rand::seq::SliceRandom;
    use rand::Rng;
    use std::collections::{BTreeMap, BTreeSet};
    use uba_simnet::rng::seeded_rng;
    use uba_simnet::{IdSpace, NodeId};

    fn roster(n_v: usize, seed: u64) -> SenderTracker {
        let mut roster = SenderTracker::new();
        for id in IdSpace::default().generate(n_v, seed) {
            roster.record(id);
        }
        roster
    }

    #[test]
    fn duplicate_votes_from_same_sender_are_ignored() {
        let ranks: Vec<Rank> = roster(2, 1).ranks().collect();
        let mut tally = VoteTally::new();
        assert!(tally.insert(ranks[0], &"a"));
        assert!(!tally.insert(ranks[0], &"a"));
        assert!(tally.insert(ranks[0], &"b"));
        assert_eq!(tally.count(&"a"), 1);
        assert_eq!(tally.count(&"b"), 1);
        assert_eq!(tally.count(&"c"), 0);
    }

    #[test]
    fn plurality_breaks_ties_towards_smaller_value() {
        let ranks: Vec<Rank> = roster(4, 2).ranks().collect();
        let mut tally = VoteTally::new();
        tally.insert(ranks[0], &5u32);
        tally.insert(ranks[1], &5u32);
        tally.insert(ranks[2], &2u32);
        tally.insert(ranks[3], &2u32);
        let (value, count) = tally.plurality().unwrap();
        assert_eq!((*value, count), (2, 2));
        assert!(VoteTally::<u32>::new().plurality().is_none());
    }

    #[test]
    fn threshold_filter_respects_quorum_math() {
        let ranks: Vec<Rank> = roster(9, 3).ranks().collect();
        let mut tally = VoteTally::new();
        assert!(tally.is_empty());
        for &rank in &ranks[..4] {
            tally.insert(rank, &"major");
        }
        tally.insert(ranks[8], &"minor");
        assert!(!tally.is_empty());
        // n_v = 9: two thirds needs 6.
        assert_eq!(tally.meeting_two_thirds(9).count(), 0);
        // n_v = 6: two thirds needs 4.
        let two_thirds: Vec<&&str> = tally.meeting_two_thirds(6).map(|(v, _)| v).collect();
        assert_eq!(two_thirds, vec![&"major"]);
    }

    #[test]
    fn voter_sets_hold_at_the_word_boundaries() {
        for n_v in [0usize, 1, 63, 64, 65, 129] {
            let roster = roster(n_v, n_v as u64);
            let mut set = VoterSet::default();
            for (k, rank) in roster.ranks().enumerate() {
                assert!(!set.contains(rank));
                assert!(set.insert(rank));
                assert!(!set.insert(rank));
                assert!(set.contains(rank));
                assert_eq!(set.count(), k + 1);
            }
            assert_eq!(set.count(), n_v);
            set.clear();
            assert_eq!(set.count(), 0);
            assert!(roster.ranks().all(|rank| !set.contains(rank)));
        }
    }

    thread_local! {
        static ORDERINGS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A value whose ordering comparisons are counted (on the comparing thread).
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Counted(Vec<u64>);

    impl Ord for Counted {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            ORDERINGS.with(|count| count.set(count.get() + 1));
            self.0.cmp(&other.0)
        }
    }

    impl PartialOrd for Counted {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    #[test]
    fn repeated_votes_for_a_present_value_make_no_ordering_comparison() {
        let ranks: Vec<Rank> = roster(40, 4).ranks().collect();
        let values: Vec<Counted> = [3u64, 1, 2].map(|v| Counted(vec![v; 1_000])).to_vec();
        let mut tally = VoteTally::new();
        for (rank, value) in ranks.iter().zip(&values) {
            assert!(tally.insert(*rank, value));
        }
        let sorted: Vec<u64> = tally.iter().map(|(v, _)| v.0[0]).collect();
        assert_eq!(sorted, [1, 2, 3], "rows are placed in value order");
        let before = ORDERINGS.with(std::cell::Cell::get);
        for (k, rank) in ranks.iter().enumerate() {
            tally.insert(*rank, &values[k % 3].clone());
        }
        assert_eq!(
            ORDERINGS.with(std::cell::Cell::get) - before,
            0,
            "votes for present values are found by equality"
        );
        let counts: Vec<(u64, usize)> = tally.iter().map(|(v, s)| (v.0[0], s.count())).collect();
        assert_eq!(counts, [(1, 13), (2, 13), (3, 14)]);
    }

    /// A union is what inserting the other side's votes would have left:
    /// split seeded vote sequences at a seeded point, tally the halves apart,
    /// join them, and compare with the tally of the whole sequence.
    #[test]
    fn unions_equal_inserting_the_other_sides_votes() {
        for seed in 0..500u64 {
            let mut rng = seeded_rng(seed);
            let n_v = [1usize, 2, 5, 63, 64, 65, 129][seed as usize % 7];
            let ranks: Vec<Rank> = roster(n_v, seed).ranks().collect();
            let votes: Vec<(Rank, u8)> = (0..rng.gen_range(0..80))
                .map(|_| (ranks[rng.gen_range(0..n_v)], rng.gen_range(0..4u8)))
                .collect();
            let split = rng.gen_range(0..=votes.len());
            let tally = |votes: &[(Rank, u8)]| {
                let mut tally = VoteTally::new();
                for (rank, value) in votes {
                    tally.insert(*rank, value);
                }
                tally
            };
            let mut joined = tally(&votes[..split]);
            joined.union(&tally(&votes[split..]));
            assert_eq!(joined, tally(&votes), "seed {seed}");

            let set = |votes: &[(Rank, u8)]| {
                let mut set = VoterSet::default();
                for (rank, _) in votes {
                    set.insert(*rank);
                }
                set
            };
            let mut joined = set(&votes[..split]);
            joined.union(&set(&votes[split..]));
            assert_eq!(joined, set(&votes), "seed {seed}");
        }
    }

    /// The tree form the bit rows replaced.
    type Model = BTreeMap<u8, BTreeSet<NodeId>>;

    fn assert_matches_model(tally: &VoteTally<u8>, model: &Model, roster: &SenderTracker) {
        let n_v = roster.n_v();
        let counts: Vec<(u8, usize)> = tally.iter().map(|(v, s)| (*v, s.count())).collect();
        let expected: Vec<(u8, usize)> = model.iter().map(|(v, s)| (*v, s.len())).collect();
        assert_eq!(counts, expected, "iter() order and counts");
        for value in 0..6u8 {
            assert_eq!(
                tally.count(&value),
                model.get(&value).map_or(0, |s| s.len())
            );
        }
        assert_eq!(
            tally.plurality().map(|(v, c)| (*v, c)),
            model
                .iter()
                .map(|(v, s)| (*v, s.len()))
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0))),
            "plurality, ties towards the smaller value"
        );
        assert!(tally.meeting_two_thirds(n_v).map(|(v, c)| (*v, c)).eq(model
            .iter()
            .map(|(v, s)| (*v, s.len()))
            .filter(|&(_, c)| meets_two_thirds(c, n_v))));
        for (value, set) in tally.iter() {
            let voters: Vec<NodeId> = roster
                .members()
                .zip(roster.ranks())
                .filter(|&(_, rank)| set.contains(rank))
                .map(|(id, _)| id)
                .collect();
            assert!(voters.iter().eq(model[value].iter()), "who voted {value}");
        }
        assert_eq!(tally.is_empty(), model.is_empty());
    }

    /// The same seeded vote sequences drive the tally and the tree model, compared
    /// after every operation: repeated `(voter, value)` pairs, one voter on several
    /// values, non-member voters (dropped at the roster), ties, and a roster that
    /// admits new members — below and above the identifiers it holds — while the
    /// tally is carried across the insertions (the late joiner whose roster never
    /// freezes; reliable broadcast and the standalone rotor between rounds).
    #[test]
    fn tally_matches_the_tree_model() {
        for seed in 0..1_000u64 {
            let mut rng = seeded_rng(seed);
            let n_v = [0usize, 1, 2, 5, 13, 63, 64, 65, 129][seed as usize % 9];
            let mut universe = IdSpace::default().generate(n_v + 3, seed);
            // The three outsiders are drawn from anywhere in the identifier order.
            universe.shuffle(&mut rng);
            let mut roster = SenderTracker::new();
            for &id in &universe[..n_v] {
                roster.record(id);
            }
            let mut tally = VoteTally::new();
            let mut model = Model::new();
            for step in 0..rng.gen_range(0..90) {
                if step % 30 == 29 {
                    roster.record(universe[n_v + step / 30]);
                    assert_matches_model(&tally, &model, &roster);
                }
                let voter = universe[rng.gen_range(0..universe.len())];
                let value = rng.gen_range(0..4u8);
                for _ in 0..rng.gen_range(1..3) {
                    let Some(rank) = roster.rank_of(voter) else {
                        continue;
                    };
                    let new = tally.insert(rank, &value);
                    assert_eq!(new, model.entry(value).or_default().insert(voter));
                    assert_matches_model(&tally, &model, &roster);
                }
            }
        }
    }
}
