//! Per-instance state of the parallel consensus algorithm
//! (`EarlyConsensus(id)`, Algorithm 5, Section X).
//!
//! Parallel consensus lets every correct node submit a *set* of `(identifier, opinion)`
//! pairs and agree on an output pair for every identifier submitted by a correct node
//! — even though nodes do not initially agree on which identifiers exist. Each
//! identifier is handled by one `EarlyConsensus` instance, which is Algorithm 3
//! extended with three mechanisms:
//!
//! * a node that has no input pair for the identifier participates with the opinion
//!   `⊥` (represented as `None` here), and `⊥` outputs are suppressed;
//! * explicit `nopreference` / `nostrongpreference` messages distinguish "I am alive
//!   but have nothing to say" from "I am silent", so the missing-message substitution
//!   of Algorithm 3 can be applied per *message type*;
//! * messages of a type first heard in the second phase or later are discarded, which
//!   is what guarantees that identifiers never submitted by any correct node die out
//!   with `⊥` and produce no output.
//!
//! The instances share the initialisation (membership freeze) and the
//! rotor-coordinator; that shared machinery lives in
//! [`ParallelConsensus`](crate::parallel_consensus::ParallelConsensus), which drives
//! the per-instance [`EarlyConsensus`] state machines defined here.

use uba_simnet::NodeId;

use crate::membership::{Rank, SenderTracker};
use crate::quorum::{meets_one_third, meets_two_thirds};
use crate::value::Opinion;
use crate::vote::{VoteTally, VoterSet};

/// Identifier of a parallel-consensus instance (the paper's `id` in `(id, x)` pairs).
pub type InstanceId = u64;

/// Wire messages of parallel consensus. `None` opinions encode the paper's `⊥`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ParallelMessage<V> {
    /// Rotor initialisation (round 1).
    Init,
    /// Rotor candidate echo.
    Echo(NodeId),
    /// `id:input(x)` — only ever carries a real opinion, never `⊥`.
    Input(InstanceId, V),
    /// `id:prefer(x)`; `None` is `prefer(⊥)`.
    Prefer(InstanceId, Option<V>),
    /// `id:nopreference`.
    NoPreference(InstanceId),
    /// `id:strongprefer(x)`; `None` is `strongprefer(⊥)`.
    StrongPrefer(InstanceId, Option<V>),
    /// `id:nostrongpreference`.
    NoStrongPreference(InstanceId),
    /// The coordinator's opinion for one instance.
    Opinion(InstanceId, Option<V>),
}

impl<V> ParallelMessage<V> {
    /// The instance this message belongs to, if it is instance-scoped.
    pub fn instance(&self) -> Option<InstanceId> {
        match self {
            ParallelMessage::Init | ParallelMessage::Echo(_) => None,
            ParallelMessage::Input(id, _)
            | ParallelMessage::Prefer(id, _)
            | ParallelMessage::NoPreference(id)
            | ParallelMessage::StrongPrefer(id, _)
            | ParallelMessage::NoStrongPreference(id)
            | ParallelMessage::Opinion(id, _) => Some(*id),
        }
    }
}

/// The three counted message kinds of Algorithm 5 (the set `M` in the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Input,
    Prefer,
    StrongPrefer,
}

/// A vote for an instance: the sender either proposed an opinion (possibly `⊥`) or
/// explicitly declared it has nothing to propose. The opinion is **borrowed** from
/// the message that carried it — collecting and tallying votes clones no value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceVote<'a, V> {
    /// `m(x)` or `m(⊥)`.
    Value(Option<&'a V>),
    /// `nopreference` / `nostrongpreference` — counts as "heard from" but carries no vote.
    Abstain,
}

/// What this node itself sent for one message kind: the owned counterpart of
/// [`InstanceVote`], kept for the substitution rule.
#[derive(Clone, Debug)]
enum SentVote<V> {
    Value(Option<V>),
    Abstain,
}

/// The state of one `EarlyConsensus(id)` instance at one node.
#[derive(Clone, Debug)]
pub struct EarlyConsensus<V: Opinion> {
    instance: InstanceId,
    /// The node's current opinion for this instance (`None` = `⊥`).
    opinion: Option<V>,
    /// The phase (1-based) in which this node started the instance.
    started_phase: u64,
    /// Whether a message of each kind has been received during the first phase.
    seen_in_phase1: [bool; 3],
    /// The most recent message of each kind this node sent, tagged with the phase it
    /// was sent in (`None` = never sent). The substitution rule only ever uses the
    /// vote when it is from the *current* phase; a stale vote must not be replayed on
    /// behalf of members that have since decided and gone silent.
    last_sent: [Option<(u64, SentVote<V>)>; 3],
    /// The plurality of the strong-prefer tally (value and support), stashed in the
    /// rotor round and resolved one round later; `None` if the tally was empty.
    stashed_strong: Option<(Option<V>, usize)>,
    /// The decision (`Some(None)` means "decided ⊥" — terminated with no output pair).
    decided: Option<Option<V>>,
    /// Phase in which the decision happened.
    decided_phase: Option<u64>,
}

impl<V: Opinion> EarlyConsensus<V> {
    /// Creates an instance for a pair this node has as input.
    pub fn with_input(instance: InstanceId, opinion: V, phase: u64) -> Self {
        Self::new_inner(instance, Some(opinion), phase)
    }

    /// Creates an instance this node first learned about from the network; it
    /// participates with opinion `⊥`.
    pub fn without_input(instance: InstanceId, phase: u64) -> Self {
        Self::new_inner(instance, None, phase)
    }

    fn new_inner(instance: InstanceId, opinion: Option<V>, phase: u64) -> Self {
        EarlyConsensus {
            instance,
            opinion,
            started_phase: phase.max(1),
            seen_in_phase1: [false; 3],
            last_sent: [None, None, None],
            stashed_strong: None,
            decided: None,
            decided_phase: None,
        }
    }

    /// The instance identifier.
    pub fn instance(&self) -> InstanceId {
        self.instance
    }

    /// The node's current opinion for this instance.
    pub fn opinion(&self) -> &Option<V> {
        &self.opinion
    }

    /// The phase in which the instance was started at this node.
    pub fn started_phase(&self) -> u64 {
        self.started_phase
    }

    /// The decision: `None` = undecided, `Some(None)` = decided `⊥` (no output pair),
    /// `Some(Some(x))` = decided `x`.
    pub fn decision(&self) -> Option<&Option<V>> {
        self.decided.as_ref()
    }

    /// The phase in which the node decided, if it has.
    pub fn decided_phase(&self) -> Option<u64> {
        self.decided_phase
    }

    /// Whether the instance has decided.
    pub fn is_decided(&self) -> bool {
        self.decided.is_some()
    }

    /// Whether the instance has decided by the end of a resolve step at `n_v`,
    /// whatever coordinator opinion that step hears: it has decided already, or
    /// its stashed strong-prefer plurality meets `2n_v/3`.
    pub(crate) fn resolve_is_fixed(&self, n_v: usize) -> bool {
        self.is_decided()
            || self
                .stashed_strong
                .as_ref()
                .is_some_and(|&(_, count)| meets_two_thirds(count, n_v))
    }

    /// Tallies this round's votes of one kind, applying Algorithm 5's reception rules:
    ///
    /// * a kind first heard in phase ≥ 2 is discarded entirely;
    /// * a kind first heard in phase 1 fills `⊥` for every member that sent nothing of
    ///   that kind;
    /// * afterwards, a silent member is substituted with whatever this node itself
    ///   sent for that kind **in the current phase** (possibly an abstention, which
    ///   adds nothing); if this node sent nothing for the kind this phase, the silent
    ///   are read as `⊥`. Replaying a vote from an earlier phase would let a single
    ///   straggler manufacture a unanimous quorum out of its own stale vote once the
    ///   other members have decided and stopped talking — violating agreement.
    fn tally<'a>(
        &'a mut self,
        kind: Kind,
        votes: &[(Rank, InstanceVote<'a, V>)],
        members: &SenderTracker,
        phase: u64,
    ) -> VoteTally<Option<&'a V>> {
        let idx = kind as usize;
        let mut tally = VoteTally::new();
        let mut heard = VoterSet::default();

        let first_contact = !self.seen_in_phase1[idx];
        if first_contact && !votes.is_empty() {
            if phase == 1 {
                self.seen_in_phase1[idx] = true;
            } else {
                // First heard in the second phase or later: discard.
                return tally;
            }
        }

        for (from, vote) in votes {
            heard.insert(*from);
            if let InstanceVote::Value(v) = vote {
                tally.insert(*from, v);
            }
        }

        // A node is "aware" of this kind once it has received it in phase 1 or has
        // itself sent it; only aware nodes substitute for the silent.
        let aware = self.seen_in_phase1[idx] || self.last_sent[idx].is_some();
        if !aware {
            return tally;
        }

        // Substitution for silent members: this node's own vote from the current
        // phase if it cast one (an abstention substitutes nothing), otherwise `⊥`.
        let substitute: Option<&V> = match &self.last_sent[idx] {
            Some((sent_phase, SentVote::Abstain)) if *sent_phase == phase => return tally,
            Some((sent_phase, SentVote::Value(value))) if *sent_phase == phase => value.as_ref(),
            _ => None,
        };
        for member in members.ranks() {
            if !heard.contains(member) {
                tally.insert(member, &substitute);
            }
        }
        tally
    }

    fn record_sent(&mut self, kind: Kind, phase: u64, vote: SentVote<V>) {
        self.last_sent[kind as usize] = Some((phase, vote));
    }

    /// The smallest value whose support meets `2n_v/3`, cloned out of the borrowed
    /// tally (the caller keeps and sends it).
    fn two_thirds_value(tally: &VoteTally<Option<&V>>, n_v: usize) -> Option<Option<V>> {
        tally
            .meeting_two_thirds(n_v)
            .next()
            .map(|(value, _)| value.cloned())
    }

    /// Phase step 1: the node broadcasts its input opinion if it has one (lines 4–6).
    pub fn step_input(&mut self, phase: u64) -> Option<ParallelMessage<V>> {
        if self.decided.is_some() {
            return None;
        }
        let value = self.opinion.clone()?;
        self.record_sent(Kind::Input, phase, SentVote::Value(Some(value.clone())));
        Some(ParallelMessage::Input(self.instance, value))
    }

    /// Phase step 2: evaluate the received `input` votes, answer with `prefer` or
    /// `nopreference` (lines 7–11).
    pub fn step_prefer(
        &mut self,
        votes: &[(Rank, InstanceVote<'_, V>)],
        members: &SenderTracker,
        n_v: usize,
        phase: u64,
    ) -> ParallelMessage<V> {
        let preferred =
            Self::two_thirds_value(&self.tally(Kind::Input, votes, members, phase), n_v);
        match preferred {
            Some(value) => {
                self.record_sent(Kind::Prefer, phase, SentVote::Value(value.clone()));
                ParallelMessage::Prefer(self.instance, value)
            }
            None => {
                self.record_sent(Kind::Prefer, phase, SentVote::Abstain);
                ParallelMessage::NoPreference(self.instance)
            }
        }
    }

    /// Phase step 3: evaluate the received `prefer` votes, adopt a value with `n_v/3`
    /// support, answer with `strongprefer` or `nostrongpreference` (lines 12–19).
    pub fn step_strong(
        &mut self,
        votes: &[(Rank, InstanceVote<'_, V>)],
        members: &SenderTracker,
        n_v: usize,
        phase: u64,
    ) -> ParallelMessage<V> {
        let (adopted, strong) = {
            let tally = self.tally(Kind::Prefer, votes, members, phase);
            let adopted = tally
                .plurality()
                .filter(|&(_, count)| meets_one_third(count, n_v))
                .map(|(value, _)| value.cloned());
            (adopted, Self::two_thirds_value(&tally, n_v))
        };
        if let Some(value) = adopted {
            self.opinion = value;
        }
        match strong {
            Some(value) => {
                self.record_sent(Kind::StrongPrefer, phase, SentVote::Value(value.clone()));
                ParallelMessage::StrongPrefer(self.instance, value)
            }
            None => {
                self.record_sent(Kind::StrongPrefer, phase, SentVote::Abstain);
                ParallelMessage::NoStrongPreference(self.instance)
            }
        }
    }

    /// Phase step 4 (rotor round): the `strongprefer` votes physically arrive now;
    /// the resolve step only ever reads their plurality, so that is what is kept.
    pub fn step_rotor_stash(
        &mut self,
        votes: &[(Rank, InstanceVote<'_, V>)],
        members: &SenderTracker,
        phase: u64,
    ) {
        let strongest = self
            .tally(Kind::StrongPrefer, votes, members, phase)
            .plurality()
            .map(|(value, count)| (value.cloned(), count));
        self.stashed_strong = strongest;
    }

    /// Phase step 5: apply the strong-prefer rule, possibly adopting the coordinator's
    /// opinion or deciding (lines 20–27).
    pub fn step_resolve(
        &mut self,
        coordinator_opinion: Option<Option<&V>>,
        n_v: usize,
        phase: u64,
    ) {
        if self.decided.is_some() {
            return;
        }
        match self.stashed_strong.take() {
            Some((value, count)) if meets_two_thirds(count, n_v) => {
                self.decided = Some(value);
                self.decided_phase = Some(phase);
            }
            Some((_, count)) if meets_one_third(count, n_v) => {}
            // Strong support below `n_v/3` (or none at all): follow the coordinator.
            _ => {
                if let Some(c) = coordinator_opinion {
                    self.opinion = c.cloned();
                }
            }
        }
    }

    /// The output pair, if the instance decided a non-`⊥` value (line 26).
    pub fn output_pair(&self) -> Option<(InstanceId, V)> {
        match &self.decided {
            Some(Some(value)) => Some((self.instance, value.clone())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(ids: &[u64]) -> SenderTracker {
        let mut tracker = SenderTracker::new();
        for &id in ids {
            tracker.record(NodeId::new(id));
        }
        tracker.freeze();
        tracker
    }

    fn rank(members: &SenderTracker, id: u64) -> Rank {
        members.rank_of(NodeId::new(id)).expect("a member")
    }

    fn value_votes<'a>(
        members: &SenderTracker,
        pairs: &'a [(u64, Option<u32>)],
    ) -> Vec<(Rank, InstanceVote<'a, u32>)> {
        pairs
            .iter()
            .map(|(id, v)| (rank(members, *id), InstanceVote::Value(v.as_ref())))
            .collect()
    }

    #[test]
    fn unanimous_instance_decides_its_value_in_one_phase() {
        let m = members(&[1, 2, 3, 4]);
        let mut inst = EarlyConsensus::with_input(7, 9u32, 1);
        assert_eq!(inst.step_input(1), Some(ParallelMessage::Input(7, 9)));
        // Everyone sent input(9).
        let prefer = inst.step_prefer(
            &value_votes(
                &m,
                &[(1, Some(9)), (2, Some(9)), (3, Some(9)), (4, Some(9))],
            ),
            &m,
            4,
            1,
        );
        assert_eq!(prefer, ParallelMessage::Prefer(7, Some(9)));
        let strong = inst.step_strong(
            &value_votes(
                &m,
                &[(1, Some(9)), (2, Some(9)), (3, Some(9)), (4, Some(9))],
            ),
            &m,
            4,
            1,
        );
        assert_eq!(strong, ParallelMessage::StrongPrefer(7, Some(9)));
        inst.step_rotor_stash(
            &value_votes(
                &m,
                &[(1, Some(9)), (2, Some(9)), (3, Some(9)), (4, Some(9))],
            ),
            &m,
            1,
        );
        inst.step_resolve(None, 4, 1);
        assert_eq!(inst.decision(), Some(&Some(9)));
        assert_eq!(inst.output_pair(), Some((7, 9)));
        assert_eq!(inst.decided_phase(), Some(1));
        assert!(inst.is_decided());
        assert_eq!(inst.instance(), 7);
        assert_eq!(inst.started_phase(), 1);
    }

    #[test]
    fn unknown_instance_converges_to_bottom_and_produces_no_output() {
        // The node learned about the instance from a single (Byzantine) input message;
        // no correct node has the pair, so the ⊥ fills dominate and the instance dies.
        let m = members(&[1, 2, 3, 4, 5]);
        let mut inst: EarlyConsensus<u32> = EarlyConsensus::without_input(3, 1);
        assert_eq!(inst.step_input(1), None);
        // Only the Byzantine node 5 sent input(42); members 1–4 are filled with ⊥.
        let prefer = inst.step_prefer(&value_votes(&m, &[(5, Some(42))]), &m, 5, 1);
        assert_eq!(
            prefer,
            ParallelMessage::Prefer(3, None),
            "⊥ reaches the 2n_v/3 quorum"
        );
        // Everyone correct ends up preferring ⊥.
        let strong = inst.step_strong(
            &value_votes(&m, &[(1, None), (2, None), (3, None), (4, None)]),
            &m,
            5,
            1,
        );
        assert_eq!(strong, ParallelMessage::StrongPrefer(3, None));
        inst.step_rotor_stash(
            &value_votes(&m, &[(1, None), (2, None), (3, None), (4, None)]),
            &m,
            1,
        );
        inst.step_resolve(None, 5, 1);
        assert_eq!(inst.decision(), Some(&None));
        assert_eq!(
            inst.output_pair(),
            None,
            "⊥ decisions produce no output pair"
        );
    }

    #[test]
    fn messages_first_heard_in_second_phase_are_discarded() {
        let m = members(&[1, 2, 3, 4]);
        let mut inst: EarlyConsensus<u32> = EarlyConsensus::without_input(9, 2);
        // Strong-prefer votes arrive, but this is phase 2 and the kind was never seen
        // in phase 1 → discarded, no decision.
        inst.step_rotor_stash(
            &value_votes(
                &m,
                &[(1, Some(5)), (2, Some(5)), (3, Some(5)), (4, Some(5))],
            ),
            &m,
            2,
        );
        inst.step_resolve(None, 4, 2);
        assert!(inst.decision().is_none());
    }

    #[test]
    fn abstentions_suppress_substitution_for_their_sender() {
        let m = members(&[1, 2, 3, 4, 5, 6]);
        let mut inst = EarlyConsensus::with_input(1, 7u32, 1);
        inst.step_input(1);
        // Nodes 1–3 vote 7, nodes 4–5 abstain explicitly, node 6 is silent.
        // n_v = 6 → two thirds needs 4. Votes: 3 real + 1 substitution (node 6 silent,
        // we sent input(7)) = 4 → prefer(7).
        let mut votes = value_votes(&m, &[(1, Some(7)), (2, Some(7)), (3, Some(7))]);
        votes.push((rank(&m, 4), InstanceVote::Abstain));
        votes.push((rank(&m, 5), InstanceVote::Abstain));
        let prefer = inst.step_prefer(&votes, &m, 6, 1);
        assert_eq!(prefer, ParallelMessage::Prefer(1, Some(7)));
    }

    #[test]
    fn stale_votes_are_not_replayed_for_silent_members_in_later_phases() {
        // Regression: a node whose opinion was reset to ⊥ at the end of phase 1 must
        // not substitute its *phase-1* input(x) for members that decided ⊥ and went
        // silent — that manufactured a unanimous quorum for x at a single straggler
        // and broke agreement (found by the margin-guided search on total-order).
        let m = members(&[1, 2, 3, 4]);
        let mut inst = EarlyConsensus::with_input(199, 1u32, 1);
        inst.step_input(1);
        inst.step_prefer(&value_votes(&m, &[(1, Some(1))]), &m, 4, 1);
        inst.step_strong(&[], &m, 4, 1);
        // The rotor round shows explicit abstentions, so strong support stays below
        // n_v/3 and the node adopts the coordinator's ⊥ opinion.
        let abstentions: Vec<(Rank, InstanceVote<'_, u32>)> = (2..=4)
            .map(|id| (rank(&m, id), InstanceVote::Abstain))
            .collect();
        inst.step_rotor_stash(&abstentions, &m, 1);
        inst.step_resolve(Some(None), 4, 1);
        assert_eq!(inst.opinion(), &None);
        assert!(inst.decision().is_none());

        // Phase 2: opinion is ⊥, so the node broadcasts no input; every other member
        // is silent (they already decided ⊥). The silent must be read as ⊥ — not as
        // echoes of this node's stale phase-1 input(1).
        assert_eq!(inst.step_input(2), None);
        let prefer = inst.step_prefer(&[], &m, 4, 2);
        assert_eq!(prefer, ParallelMessage::Prefer(199, None));
    }

    #[test]
    fn a_sender_counts_once_per_value_but_may_support_two_values() {
        let m = members(&[1, 2, 3, 4, 5, 6]);
        let mut inst: EarlyConsensus<u32> = EarlyConsensus::without_input(4, 1);
        // Node 1 votes 7 twice and 8 once; nodes 2–4 vote 7; 5 and 6 abstain (so
        // nothing is substituted for them). 7 has four distinct supporters — the
        // duplicate adds none — which is exactly 2n_v/3 at n_v = 6.
        let mut votes = value_votes(
            &m,
            &[
                (1, Some(7)),
                (1, Some(7)),
                (1, Some(8)),
                (2, Some(7)),
                (3, Some(7)),
                (4, Some(7)),
            ],
        );
        votes.push((rank(&m, 5), InstanceVote::Abstain));
        votes.push((rank(&m, 6), InstanceVote::Abstain));
        let tally = inst.tally(Kind::Input, &votes, &m, 1);
        assert_eq!(tally.count(&Some(&7)), 4);
        assert_eq!(tally.count(&Some(&8)), 1, "the same sender, a second value");
        assert_eq!(
            inst.step_prefer(&votes[..votes.len() - 3], &m, 6, 1),
            ParallelMessage::NoPreference(4),
            "without node 4 the duplicate must not lift 7 to the quorum"
        );
    }

    #[test]
    fn the_smallest_value_wins_when_two_meet_two_thirds() {
        // Only possible outside n > 3f: every member equivocates between 3 and 5,
        // so both reach 2n_v/3. Preference, adoption and the stashed plurality all
        // break towards the smaller value, and ⊥ orders below every value.
        let m = members(&[1, 2, 3]);
        let both = [
            (1, Some(5)),
            (1, Some(3)),
            (2, Some(5)),
            (2, Some(3)),
            (3, Some(5)),
            (3, Some(3)),
        ];
        let mut inst: EarlyConsensus<u32> = EarlyConsensus::without_input(2, 1);
        assert_eq!(
            inst.step_prefer(&value_votes(&m, &both), &m, 3, 1),
            ParallelMessage::Prefer(2, Some(3))
        );
        assert_eq!(
            inst.step_strong(&value_votes(&m, &both), &m, 3, 1),
            ParallelMessage::StrongPrefer(2, Some(3))
        );
        assert_eq!(inst.opinion(), &Some(3));
        let with_bottom = [
            (1, Some(5)),
            (1, None),
            (2, Some(5)),
            (2, None),
            (3, Some(5)),
            (3, None),
        ];
        inst.step_rotor_stash(&value_votes(&m, &with_bottom), &m, 1);
        inst.step_resolve(None, 3, 1);
        assert_eq!(inst.decision(), Some(&None), "a three-all tie breaks to ⊥");
    }

    #[test]
    fn coordinator_opinion_is_adopted_when_strong_support_is_low() {
        let m = members(&[1, 2, 3, 4, 5, 6]);
        let mut inst = EarlyConsensus::with_input(2, 1u32, 1);
        inst.step_input(1);
        inst.step_prefer(&value_votes(&m, &[(1, Some(1)), (2, Some(0))]), &m, 6, 1);
        inst.step_strong(&value_votes(&m, &[(1, Some(1))]), &m, 6, 1);
        // Almost everyone explicitly reports "no strong preference", so fewer than
        // n_v/3 strong-prefer votes exist → adopt the coordinator's opinion.
        let abstentions: Vec<(Rank, InstanceVote<'_, u32>)> = (2..=6)
            .map(|id| (rank(&m, id), InstanceVote::Abstain))
            .collect();
        inst.step_rotor_stash(&abstentions, &m, 1);
        inst.step_resolve(Some(Some(&5)), 6, 1);
        assert_eq!(inst.opinion(), &Some(5));
        assert!(inst.decision().is_none());
    }

    #[test]
    fn message_instance_extraction() {
        assert_eq!(ParallelMessage::<u32>::Init.instance(), None);
        assert_eq!(
            ParallelMessage::<u32>::Echo(NodeId::new(1)).instance(),
            None
        );
        assert_eq!(ParallelMessage::Input(4, 1u32).instance(), Some(4));
        assert_eq!(ParallelMessage::<u32>::NoPreference(6).instance(), Some(6));
        assert_eq!(ParallelMessage::<u32>::Opinion(8, None).instance(), Some(8));
    }
}
