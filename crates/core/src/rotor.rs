//! The rotor-coordinator (Algorithm 2, Section VI).
//!
//! Classic synchronous Byzantine agreement algorithms rotate through `f + 1`
//! coordinators so that at least one of them is correct. With consecutive identifiers
//! and a known `f` that is trivial; in the id-only model it is the central obstacle,
//! because nodes neither agree on the candidate set nor know how many candidates are
//! enough. Algorithm 2 solves it by growing a *candidate set* `C_v` in reliable-
//! broadcast fashion (so candidate sets of correct nodes never diverge for more than a
//! round) and selecting `C_v[r mod |C_v|]` in loop round `r`; a node stops as soon as
//! it would select the same coordinator twice. The paper proves (Theorem 2) that every
//! correct node terminates within `O(n)` rounds and that before terminating it
//! witnesses a *good round* — a round in which every correct node selected the same,
//! correct, coordinator — whose opinion every correct node accepts in the next round.
//!
//! The module exposes three layers:
//!
//! * [`RotorState`] — the reusable core (candidate tracking, selection, termination),
//!   consumed by the consensus algorithms which interleave one rotor round per phase;
//! * [`EchoVotes`] — the one accumulator of `echo(p)` votes all three embeddings
//!   (consensus, parallel consensus, the standalone protocol) feed and
//!   [`RotorState::loop_round`] reads the counts of;
//! * [`RotorCoordinator`] — a standalone [`Protocol`] running one rotor round per
//!   network round, used directly by the leader-election example and experiment E3.
//!
//! # Counting echoes
//!
//! The echo rounds put ~n² broadcasts in every inbox, so [`EchoVotes`] is where a
//! node's time goes. A row per candidate holds one bit per voter [`Rank`] and a
//! count; rows widen to the highest rank seen, so they stay valid while a roster
//! that never froze grows. Voters are members, so they have ranks; **candidates are
//! keyed by identifier**, not by rank: a Byzantine node that sent `Init` to only
//! some correct nodes is a candidate the others must still tally, echo at `n_v/3`
//! and admit at `2n_v/3` without its ever having been heard from. Finding a
//! candidate's row is the one search left per message, and it is usually skipped:
//! every correct sender echoes the candidates in the same order, so the row after
//! the one the previous echo named is guessed first and the guess verified by
//! comparing the identifier. A wrong guess costs a binary search; correctness never
//! depends on it.

use std::collections::BTreeSet;

use uba_simnet::{Inbox, NodeId, Outgoing, Protocol, RoundContext};

use crate::membership::{Rank, SenderTracker};
use crate::quorum::{meets_one_third, meets_two_thirds};
use crate::value::Opinion;

/// Wire messages of the rotor-coordinator.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RotorMessage<V> {
    /// Round-1 announcement of willingness to act as a coordinator.
    Init,
    /// "I support `candidate` as a coordinator candidate" (reliable-broadcast echo).
    Echo(NodeId),
    /// The opinion the current coordinator distributes.
    Opinion(V),
}

/// What happened in one rotor loop round at one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RotorRecord<V> {
    /// The loop-round counter `r` (starting at 0).
    pub loop_round: u64,
    /// The coordinator selected this loop round (`C_v[r mod |C_v|]`).
    pub coordinator: NodeId,
    /// The opinion accepted from the *previous* loop round's coordinator, if any
    /// arrived.
    pub accepted_opinion: Option<V>,
}

/// The embeddable core of Algorithm 2.
///
/// The caller is responsible for driving rounds and delivering, for each loop round,
/// the tally of `echo(p)` votes and the opinions received. This indirection is what
/// lets the consensus algorithm (Algorithm 3) run one rotor round per five-round phase
/// while the standalone [`RotorCoordinator`] runs one per network round.
#[derive(Clone, Debug, Default)]
pub struct RotorState<V: Opinion> {
    /// `C_v`: the ordered candidate set.
    candidates: BTreeSet<NodeId>,
    /// `S_v`: the coordinators selected so far, in selection order.
    selected: Vec<NodeId>,
    /// Loop-round counter `r`.
    loop_round: u64,
    /// Coordinator selected in the previous loop round (`p'`).
    previous_coordinator: Option<NodeId>,
    /// Whether the node re-selected a coordinator and stopped.
    terminated: bool,
    /// Per-loop-round records for analysis and tests.
    history: Vec<RotorRecord<V>>,
}

impl<V: Opinion> RotorState<V> {
    /// Creates an empty rotor state (before the init/echo rounds).
    pub fn new() -> Self {
        RotorState {
            candidates: BTreeSet::new(),
            selected: Vec::new(),
            loop_round: 0,
            previous_coordinator: None,
            terminated: false,
            history: Vec::new(),
        }
    }

    /// The ordered candidate set `C_v`.
    pub fn candidates(&self) -> &BTreeSet<NodeId> {
        &self.candidates
    }

    /// The selected coordinators `S_v`, in selection order.
    pub fn selected(&self) -> &[NodeId] {
        &self.selected
    }

    /// Whether the rotor has terminated (re-selected a coordinator).
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    /// Per-loop-round records.
    pub fn history(&self) -> &[RotorRecord<V>] {
        &self.history
    }

    /// The coordinator selected in the most recent loop round, if any.
    pub fn current_coordinator(&self) -> Option<NodeId> {
        self.history.last().map(|r| r.coordinator)
    }

    /// The coordinator whose opinion the next loop round accepts (`p'`), if any.
    pub fn previous_coordinator(&self) -> Option<NodeId> {
        self.previous_coordinator
    }

    /// Executes one loop round of Algorithm 2 (lines 6–29).
    ///
    /// * `my_id` / `my_opinion` — the executing node and the opinion it would
    ///   distribute if selected as coordinator;
    /// * `n_v` — the node's current count of distinct senders;
    /// * `echo_counts` — for each candidate `p`, in increasing candidate order, the
    ///   number of distinct nodes from which an `echo(p)` was received since the
    ///   previous loop round ([`EchoVotes::counts`]);
    /// * `previous_opinion` — the opinion received from
    ///   [`previous_coordinator`](Self::previous_coordinator) since the previous loop
    ///   round, if one arrived.
    ///
    /// Returns the rotor messages to broadcast this round (`B_v`). After termination
    /// the state ignores further calls and returns nothing.
    pub fn loop_round(
        &mut self,
        my_id: NodeId,
        my_opinion: &V,
        n_v: usize,
        echo_counts: impl IntoIterator<Item = (NodeId, usize)>,
        previous_opinion: Option<V>,
    ) -> Vec<RotorMessage<V>> {
        if self.terminated {
            return Vec::new();
        }
        let mut broadcast = Vec::new();

        for (candidate, voters) in echo_counts {
            // Lines 8–11: support candidates that reached the n_v/3 threshold and are
            // not yet in C_v.
            if meets_one_third(voters, n_v) && !self.candidates.contains(&candidate) {
                broadcast.push(RotorMessage::Echo(candidate));
            }
            // Lines 12–15: admit candidates that reached the 2n_v/3 threshold into C_v.
            if meets_two_thirds(voters, n_v) {
                self.candidates.insert(candidate);
            }
        }

        // Line 16: select the next coordinator. C_v can only be empty if the node has
        // heard from nobody, in which case there is nothing to select yet.
        let Some(coordinator) = self
            .candidates
            .iter()
            .copied()
            .nth((self.loop_round % self.candidates.len().max(1) as u64) as usize)
        else {
            self.loop_round += 1;
            return broadcast;
        };

        // Lines 17–20: accept the opinion of the previous round's coordinator.
        self.history.push(RotorRecord {
            loop_round: self.loop_round,
            coordinator,
            accepted_opinion: self.previous_coordinator.and(previous_opinion),
        });

        // Lines 21–23: terminate upon re-selecting a coordinator; nothing is broadcast
        // in the terminating round.
        if self.selected.contains(&coordinator) {
            self.terminated = true;
            return Vec::new();
        }

        // Line 24: remember the selection.
        self.selected.push(coordinator);

        // Lines 25–28: if this node is the coordinator, distribute its opinion.
        if coordinator == my_id {
            broadcast.push(RotorMessage::Opinion(my_opinion.clone()));
        }

        self.previous_coordinator = Some(coordinator);
        self.loop_round += 1;
        broadcast
    }
}

/// The `echo(p)` votes received since the last rotor round: per candidate, a bit row
/// of voter ranks and the number of bits set.
#[derive(Clone, Debug, Default)]
pub struct EchoVotes {
    /// Candidate and distinct-voter count of each row, in arrival order.
    rows: Vec<(NodeId, u32)>,
    /// Row numbers in increasing candidate order.
    by_candidate: Vec<u32>,
    /// `rows.len()` bit rows of `words` words each.
    bits: Vec<u64>,
    /// Words per row: as many as the highest voter rank seen needs.
    words: usize,
    /// The row after the one the previous echo named: the first guess for the next.
    next: usize,
}

impl EchoVotes {
    /// Records an `echo(candidate)` from `voter`; a repeated echo counts once.
    pub fn insert(&mut self, candidate: NodeId, voter: Rank) {
        if voter.index() / 64 >= self.words {
            self.widen(voter.index() / 64 + 1);
        }
        let guess = if self.next < self.rows.len() {
            self.next
        } else {
            0
        };
        let row = match self.rows.get(guess) {
            Some(&(guessed, _)) if guessed == candidate => guess,
            _ => self.row_of(candidate),
        };
        self.next = row + 1;
        let word = &mut self.bits[row * self.words + voter.index() / 64];
        let bit = 1 << (voter.index() % 64);
        self.rows[row].1 += (*word & bit == 0) as u32;
        *word |= bit;
    }

    /// Re-lays the rows out `words` words wide.
    fn widen(&mut self, words: usize) {
        let mut bits = vec![0; self.rows.len() * words];
        if self.words > 0 {
            for (old, new) in self
                .bits
                .chunks_exact(self.words)
                .zip(bits.chunks_exact_mut(words))
            {
                new[..self.words].copy_from_slice(old);
            }
        }
        self.bits = bits;
        self.words = words;
    }

    /// The candidate's row, added if this is its first echo.
    fn row_of(&mut self, candidate: NodeId) -> usize {
        let rows = &self.rows;
        match self
            .by_candidate
            .binary_search_by_key(&candidate, |&row| rows[row as usize].0)
        {
            Ok(at) => self.by_candidate[at] as usize,
            Err(at) => {
                let row = self.rows.len();
                self.by_candidate.insert(at, row as u32);
                self.rows.push((candidate, 0));
                self.bits.resize(self.bits.len() + self.words, 0);
                row
            }
        }
    }

    /// Adds every echo of `other`: a word union per candidate row. The
    /// result — rows, their order, the next guess — is what inserting
    /// `other`'s echoes one by one would have left.
    pub fn union(&mut self, other: &EchoVotes) {
        if other.words > self.words {
            self.widen(other.words);
        }
        for (row, &(candidate, _)) in other.rows.iter().enumerate() {
            let mine = self.row_of(candidate);
            let words = &mut self.bits[mine * self.words..][..other.words];
            let theirs = &other.bits[row * other.words..][..other.words];
            for (word, &bits) in words.iter_mut().zip(theirs) {
                self.rows[mine].1 += (bits & !*word).count_ones();
                *word |= bits;
            }
            if row + 1 == other.next {
                self.next = mine + 1;
            }
        }
    }

    /// `(candidate, distinct voters)` in increasing candidate order.
    pub fn counts(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.by_candidate.iter().map(|&row| {
            let (candidate, voters) = self.rows[row as usize];
            (candidate, voters as usize)
        })
    }

    /// Forgets every vote, keeping the allocations and the row width.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.by_candidate.clear();
        self.bits.clear();
        self.next = 0;
    }
}

/// The output of a completed standalone rotor run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RotorOutcome<V> {
    /// The coordinators this node selected, in order (the paper's `S_v`).
    pub selected: Vec<NodeId>,
    /// Per-loop-round records, including accepted coordinator opinions.
    pub records: Vec<RotorRecord<V>>,
    /// Rounds (network rounds) executed before termination.
    pub rounds: u64,
}

/// A standalone node running Algorithm 2, one loop round per network round.
#[derive(Clone, Debug)]
pub struct RotorCoordinator<V: Opinion> {
    id: NodeId,
    opinion: V,
    senders: SenderTracker,
    state: RotorState<V>,
    rounds: u64,
}

impl<V: Opinion> RotorCoordinator<V> {
    /// Creates a rotor node with the opinion it would distribute when selected.
    pub fn new(id: NodeId, opinion: V) -> Self {
        RotorCoordinator {
            id,
            opinion,
            senders: SenderTracker::new(),
            state: RotorState::new(),
            rounds: 0,
        }
    }

    /// Access to the underlying rotor state (candidate set, selections, history).
    pub fn state(&self) -> &RotorState<V> {
        &self.state
    }

    /// The node's current `n_v`.
    pub fn n_v(&self) -> usize {
        self.senders.n_v()
    }
}

impl<V: Opinion> Protocol for RotorCoordinator<V> {
    type Payload = RotorMessage<V>;
    type Output = RotorOutcome<V>;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: Inbox<'_, RotorMessage<V>>,
    ) -> Vec<Outgoing<RotorMessage<V>>> {
        self.rounds = ctx.round;
        self.senders.record_inbox(inbox);
        match ctx.round {
            // Round 1 (line 3): announce willingness to coordinate.
            1 => vec![Outgoing::broadcast(RotorMessage::Init)],
            // Round 2 (line 4): echo every init received.
            2 => inbox
                .iter()
                .filter(|(_, message)| **message == RotorMessage::Init)
                .map(|(from, _)| Outgoing::broadcast(RotorMessage::Echo(from)))
                .collect(),
            // Rounds 3… (lines 5–30): the selection loop.
            _ => {
                let n_v = self.senders.n_v();
                let previous = self.state.previous_coordinator();
                let mut echoes = EchoVotes::default();
                let mut opinion = None;
                for (from, voter, message) in self.senders.ranked(inbox) {
                    match message {
                        RotorMessage::Echo(candidate) => echoes.insert(*candidate, voter),
                        // The last one wins, as the coordinator's final word.
                        RotorMessage::Opinion(value) if Some(from) == previous => {
                            opinion = Some(value)
                        }
                        _ => {}
                    }
                }
                self.state
                    .loop_round(
                        self.id,
                        &self.opinion,
                        n_v,
                        echoes.counts(),
                        opinion.cloned(),
                    )
                    .into_iter()
                    .map(Outgoing::broadcast)
                    .collect()
            }
        }
    }

    fn output(&self) -> Option<RotorOutcome<V>> {
        self.state.terminated().then(|| RotorOutcome {
            selected: self.state.selected().to_vec(),
            records: self.state.history().to_vec(),
            rounds: self.rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::Rng;
    use std::collections::BTreeMap;
    use uba_simnet::adversary::SilentAdversary;
    use uba_simnet::rng::seeded_rng;
    use uba_simnet::{AdversaryView, Directed, FnAdversary, IdSpace, SyncEngine};

    fn run_rotor(
        n_correct: usize,
        byzantine: usize,
        seed: u64,
    ) -> SyncEngine<RotorCoordinator<u64>, impl uba_simnet::Adversary<RotorMessage<u64>>> {
        let ids = IdSpace::default().generate(n_correct + byzantine, seed);
        let byz: Vec<NodeId> = ids[n_correct..].to_vec();
        let nodes: Vec<_> = ids[..n_correct]
            .iter()
            .map(|&id| RotorCoordinator::new(id, id.raw()))
            .collect();
        let byz_clone = byz.clone();
        // Byzantine nodes announce themselves and echo arbitrary candidates towards a
        // subset of the correct nodes, attempting to poison the candidate sets.
        let adversary = FnAdversary::new(move |view: &AdversaryView<'_, RotorMessage<u64>>| {
            let mut out = Vec::new();
            for (i, &from) in byz_clone.iter().enumerate() {
                for (j, &to) in view.correct_ids.iter().enumerate() {
                    if view.round == 1 {
                        out.push(Directed::new(from, to, RotorMessage::Init));
                    } else if (i + j) % 2 == 0 {
                        out.push(Directed::new(from, to, RotorMessage::Echo(byz_clone[i])));
                    }
                }
            }
            out
        });
        let mut engine = SyncEngine::new(nodes, adversary, byz);
        engine
            .run_to_termination(10 * (n_correct + byzantine) as u64 + 20)
            .expect("rotor terminates in O(n) rounds");
        engine
    }

    #[test]
    fn all_correct_nodes_terminate_without_faults() {
        let ids = IdSpace::default().generate(6, 11);
        let nodes: Vec<_> = ids
            .iter()
            .map(|&id| RotorCoordinator::new(id, id.raw()))
            .collect();
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
        engine.run_to_termination(100).unwrap();
        // With no faults every node selects every correct node exactly once before
        // cycling, so |S_v| = 6 everywhere and the selections are identical.
        let outcomes: Vec<RotorOutcome<u64>> = engine
            .outputs()
            .into_iter()
            .map(|(_, o)| o.unwrap())
            .collect();
        for outcome in &outcomes {
            assert_eq!(outcome.selected, outcomes[0].selected);
            assert_eq!(outcome.selected.len(), 6);
        }
    }

    #[test]
    fn termination_is_linear_in_n() {
        for &n in &[4usize, 8, 16] {
            let ids = IdSpace::default().generate(n, 17);
            let nodes: Vec<_> = ids
                .iter()
                .map(|&id| RotorCoordinator::new(id, 0u64))
                .collect();
            let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
            let rounds = engine.run_to_termination(10 * n as u64 + 20).unwrap();
            assert!(
                rounds <= n as u64 + 4,
                "rotor with {n} fault-free nodes should finish within n + 4 rounds, took {rounds}"
            );
        }
    }

    #[test]
    fn good_round_exists_under_byzantine_candidates() {
        let engine = run_rotor(7, 2, 23);
        let correct_ids: BTreeSet<NodeId> = engine.correct_ids().into_iter().collect();
        // Find a loop round where every correct node selected the same correct node.
        let histories: Vec<&RotorState<u64>> = engine.nodes().iter().map(|n| n.state()).collect();
        let max_loop = histories.iter().map(|h| h.history().len()).min().unwrap();
        let mut good_round_found = false;
        for r in 0..max_loop {
            let selections: BTreeSet<NodeId> = histories
                .iter()
                .map(|h| h.history()[r].coordinator)
                .collect();
            if selections.len() == 1 && correct_ids.contains(selections.iter().next().unwrap()) {
                good_round_found = true;
                break;
            }
        }
        assert!(
            good_round_found,
            "every correct node must witness a good round"
        );
    }

    #[test]
    fn opinion_of_common_correct_coordinator_is_accepted() {
        // With no Byzantine nodes, in every loop round after the first the previous
        // coordinator's opinion (its id) must have been accepted by everyone.
        let ids = IdSpace::default().generate(5, 31);
        let nodes: Vec<_> = ids
            .iter()
            .map(|&id| RotorCoordinator::new(id, id.raw()))
            .collect();
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
        engine.run_to_termination(100).unwrap();
        for node in engine.nodes() {
            let history = node.state().history();
            for pair in history.windows(2) {
                let expected = pair[0].coordinator.raw();
                assert_eq!(
                    pair[1].accepted_opinion,
                    Some(expected),
                    "the opinion accepted in loop round {} must come from the previous coordinator",
                    pair[1].loop_round
                );
            }
        }
    }

    #[test]
    fn candidate_sets_of_correct_nodes_agree_at_termination() {
        let engine = run_rotor(10, 3, 41);
        let candidate_sets: Vec<BTreeSet<NodeId>> = engine
            .nodes()
            .iter()
            .map(|n| n.state().candidates().clone())
            .collect();
        // All correct ids are in every candidate set (correctness of the underlying
        // reliable-broadcast style dissemination).
        let correct: BTreeSet<NodeId> = engine.correct_ids().into_iter().collect();
        for set in &candidate_sets {
            assert!(correct.is_subset(set));
        }
    }

    #[test]
    fn rotor_state_ignores_calls_after_termination() {
        let mut state: RotorState<u64> = RotorState::new();
        let me = NodeId::new(1);
        // n_v = 3: three votes meet the 2/3 threshold, so `me` joins C_v and is selected.
        state.loop_round(me, &0, 3, [(me, 3)], None);
        assert_eq!(state.selected(), &[me]);
        // Selecting again terminates.
        state.loop_round(me, &0, 3, [], None);
        assert!(state.terminated());
        let after = state.loop_round(me, &0, 3, [(me, 3)], None);
        assert!(after.is_empty());
        assert_eq!(state.history().len(), 2);
    }

    #[test]
    fn empty_candidate_set_selects_nothing() {
        let mut state: RotorState<u64> = RotorState::new();
        let out = state.loop_round(NodeId::new(1), &0, 0, [], None);
        assert!(out.is_empty());
        assert!(state.history().is_empty());
        assert!(!state.terminated());
    }

    /// A union leaves exactly what inserting the other side's echoes would
    /// have — rows, their order, widths and the next guess — both into an
    /// empty accumulator (fresh, or cleared at a wider width) and into one
    /// holding echoes of its own.
    #[test]
    fn echo_vote_unions_equal_inserting_the_echoes() {
        for seed in 0..500u64 {
            let mut rng = seeded_rng(seed);
            let n_v = [1usize, 5, 63, 64, 65, 129][seed as usize % 6];
            let mut roster = SenderTracker::new();
            for id in IdSpace::default().generate(n_v, seed) {
                roster.record(id);
            }
            let ranks: Vec<Rank> = roster.ranks().collect();
            let candidates = IdSpace::default().generate(9, seed ^ 0xEC);
            let mut echoes = || -> Vec<(NodeId, Rank)> {
                (0..rng.gen_range(0..60))
                    .map(|_| {
                        (
                            candidates[rng.gen_range(0..9usize)],
                            ranks[rng.gen_range(0..n_v)],
                        )
                    })
                    .collect()
            };
            let (before, theirs) = (echoes(), echoes());
            let insert = |votes: &mut EchoVotes, echoes: &[(NodeId, Rank)]| {
                for &(candidate, voter) in echoes {
                    votes.insert(candidate, voter);
                }
            };
            let mut other = EchoVotes::default();
            insert(&mut other, &theirs);
            let mut wide = EchoVotes::default();
            let mut crowd = SenderTracker::new();
            for id in IdSpace::default().generate(201, seed) {
                crowd.record(id);
            }
            let last = crowd
                .ranks()
                .max_by_key(|rank| rank.index())
                .expect("201 ranks");
            wide.insert(candidates[0], last);
            wide.clear();
            for mut start in [EchoVotes::default(), wide] {
                for held in [&[][..], &before[..]] {
                    insert(&mut start, held);
                    let mut expected = start.clone();
                    insert(&mut expected, &theirs);
                    start.union(&other);
                    assert_eq!(format!("{start:?}"), format!("{expected:?}"), "seed {seed}");
                }
            }
        }
    }

    /// The tree of trees `EchoVotes` replaced, as the reference: seeded echo
    /// sequences shaped like the real thing — sender after sender, most of them
    /// echoing the candidates in one common order (the arrival-order guess holds),
    /// some in an order of their own or with repeats (it fails and the search takes
    /// over) — with candidates that are not members, senders that are not members
    /// (dropped), a roster that grows while the votes are held, and the accumulator
    /// cleared and reused. Compared after every echo.
    #[test]
    fn echo_votes_match_the_tree_of_trees_model() {
        for seed in 0..1_000u64 {
            let mut rng = seeded_rng(seed);
            let n_v = [0usize, 1, 2, 5, 13, 63, 64, 65, 129][seed as usize % 9];
            let mut universe = IdSpace::default().generate(n_v + 4, seed);
            universe.shuffle(&mut rng);
            let mut roster = SenderTracker::new();
            for &id in &universe[..n_v] {
                roster.record(id);
            }
            // Candidates: a few members and the four outsiders, in the order the
            // well-behaved senders echo them.
            let candidates: Vec<NodeId> = universe.iter().rev().take(9).copied().collect();
            let mut echoes = EchoVotes::default();
            for round in 0..2 {
                let mut model: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
                for turn in 0..rng.gen_range(0..12) {
                    if turn == 5 {
                        // The roster admits an outsider while the votes are held.
                        roster.record(universe[n_v + round]);
                    }
                    let from = universe[rng.gen_range(0..universe.len())];
                    let mut order = candidates.clone();
                    match rng.gen_range(0..4) {
                        // Reversed: every guess but the middle one is wrong.
                        0 => order.reverse(),
                        1 => {
                            order.truncate(rng.gen_range(0..candidates.len()));
                            order.extend_from_within(..);
                        }
                        _ => {}
                    }
                    for candidate in order {
                        let Some(voter) = roster.rank_of(from) else {
                            continue;
                        };
                        echoes.insert(candidate, voter);
                        model.entry(candidate).or_default().insert(from);
                        assert!(echoes
                            .counts()
                            .eq(model.iter().map(|(&c, voters)| (c, voters.len()))));
                    }
                }
                echoes.clear();
                assert_eq!(echoes.counts().count(), 0);
            }
        }
    }
}
