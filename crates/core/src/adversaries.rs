//! Protocol-aware Byzantine strategies.
//!
//! The generic strategies (silent, closure-driven, replay) live in
//! `uba_simnet::adversary`; this module holds every strategy that needs to craft
//! payloads of the protocols implemented in this crate. Two kinds live here:
//!
//! * **oblivious** strategies follow a fixed script regardless of what the correct
//!   nodes do — the worst cases of the paper's proofs: partial self-announcement
//!   ([`AnnounceToSubset`]), equivocation ([`EquivocatingSource`]), split votes
//!   ([`SplitVote`]), candidate poisoning ([`CandidatePoisoner`]) and ghost
//!   instances ([`GhostPairInjector`]);
//! * **rushing** strategies use the strongest capability the model grants — the
//!   adversary speaks last, having seen the round's correct traffic — to adapt:
//!   [`MinorityBooster`] votes per recipient for whichever value is behind,
//!   [`EquivocatingCoordinator`] campaigns to be the rotor coordinator and then
//!   equivocates, [`MembershipFlapper`] flaps `present`/`absent` and spams events
//!   tagged with the round the correct nodes are using.
//!
//! The oblivious ones are what the factories in [`crate::sim`] resolve
//! `AdversaryKind`s and `AttackBehavior`s to; the rushing ones have no data name
//! yet and are reached through `build_with_adversary`. Restricting any of them
//! to a round window or to some of the identities is a
//! [`PlanAdversary`](uba_simnet::PlanAdversary) step.

use std::hash::Hash;

use uba_simnet::vocab::fabricate;
use uba_simnet::{Adversary, AdversaryView, Directed, NodeId, Shared};

use crate::consensus::ConsensusMessage;
use crate::early_consensus::{InstanceId, ParallelMessage};
use crate::reliable_broadcast::RbMessage;
use crate::rotor::RotorMessage;
use crate::total_order::TotalOrderMessage;
use crate::value::Opinion;

/// Payloads that have a round-1 "I exist" announcement. Implemented by every protocol
/// message type in this crate so that [`AnnounceToSubset`] can be reused across
/// protocols.
pub trait Announce {
    /// The message a node broadcasts in round 1 to make itself known.
    fn announce() -> Self;
}

impl<M: Clone> Announce for RbMessage<M> {
    fn announce() -> Self {
        RbMessage::Present
    }
}

impl<V: Opinion> Announce for RotorMessage<V> {
    fn announce() -> Self {
        RotorMessage::Init
    }
}

impl<V: Opinion> Announce for ConsensusMessage<V> {
    fn announce() -> Self {
        ConsensusMessage::Init
    }
}

impl<V: Opinion> Announce for ParallelMessage<V> {
    fn announce() -> Self {
        ParallelMessage::Init
    }
}

/// Byzantine nodes that announce themselves in round 1 — so that the correct nodes
/// they reach count them towards `n_v` — and then never send another message. They
/// reach only the correct nodes whose construction index `i` satisfies
/// `i % modulus == remainder`; sweeping the modulus
/// ([`AttackBehavior::AnnounceToSubset`](uba_simnet::AttackBehavior)) explores how
/// uneven the per-node `n_v` counts can be made.
#[derive(Clone, Copy, Debug)]
pub struct AnnounceToSubset {
    modulus: u64,
    remainder: u64,
}

impl AnnounceToSubset {
    /// Creates the adversary; a modulus below 2 degrades to announcing to everyone.
    pub fn new(modulus: u64, remainder: u64) -> Self {
        let modulus = modulus.max(1);
        AnnounceToSubset {
            modulus,
            remainder: remainder % modulus,
        }
    }

    /// The `announce-then-silent` preset: every correct node counts the Byzantine
    /// identities, which then never vote. This is the canonical stress test for the
    /// paper's `n_v/3` thresholds — the counted but silent nodes inflate `n_v`
    /// without ever contributing, which is exactly the situation the
    /// missing-message substitution rule exists for.
    pub fn everyone() -> Self {
        AnnounceToSubset::new(1, 0)
    }

    /// The `partial-announce` preset: only the even-indexed half of the correct
    /// nodes hears the announcement, so different correct nodes hold different
    /// values of `n_v` — the "a Byzantine node may get itself known to only a
    /// subset of nodes" behaviour from the model.
    pub fn every_other() -> Self {
        AnnounceToSubset::new(2, 0)
    }
}

impl<P: Announce + Hash> Adversary<P> for AnnounceToSubset {
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        let mut out = Vec::new();
        if view.round == 1 {
            fabricate(&mut out, view, vec![P::announce()], |i, _| {
                i as u64 % self.modulus == self.remainder
            });
        }
        out
    }
}

/// A Byzantine *designated sender* for reliable broadcast that sends a different
/// message to each half of the correct nodes in round 1 (equivocation). Reliable
/// broadcast must either expose both values to everyone or accept neither — what it
/// must never allow is two correct nodes accepting different, *conflicting* views.
#[derive(Clone, Debug)]
pub struct EquivocatingSource<M> {
    source: NodeId,
    value_for_evens: M,
    value_for_odds: M,
}

impl<M> EquivocatingSource<M> {
    /// Creates the adversary; `source` must be registered as a Byzantine identity.
    pub fn new(source: NodeId, value_for_evens: M, value_for_odds: M) -> Self {
        EquivocatingSource {
            source,
            value_for_evens,
            value_for_odds,
        }
    }
}

impl<M: Clone + Ord + std::fmt::Debug + std::hash::Hash> Adversary<RbMessage<M>>
    for EquivocatingSource<M>
{
    fn step(&mut self, view: &AdversaryView<'_, RbMessage<M>>) -> Vec<Directed<RbMessage<M>>> {
        // Only speak when the source identity is in the view's Byzantine set: an
        // attack-plan step whose actor range excludes the source must silence it,
        // not keep sending from an identity the step does not drive.
        if view.round != 1 || !view.byzantine_ids.contains(&self.source) {
            return Vec::new();
        }
        // Exactly two fabricated payloads — the tamper cost of equivocation —
        // shared across however many recipients each half has.
        let for_evens = Shared::new(RbMessage::Init(self.value_for_evens.clone()));
        let for_odds = Shared::new(RbMessage::Init(self.value_for_odds.clone()));
        view.correct_ids
            .iter()
            .enumerate()
            .map(|(i, &to)| {
                let payload = if i % 2 == 0 { &for_evens } else { &for_odds };
                Directed::new(self.source, to, payload.clone())
            })
            .collect()
    }
}

/// Phase step the correct nodes are executing in a given engine round, mirroring the
/// five-round schedule of Algorithm 3 (rounds 1 and 2 are initialisation).
fn consensus_step(round: u64) -> Option<u64> {
    if round < 3 {
        None
    } else {
        Some((round - 3) % 5)
    }
}

/// Byzantine nodes that try to split a consensus execution: they participate in the
/// initialisation and then, in every voting round, tell half of the correct nodes they
/// support `low` and the other half that they support `high`, mirroring whichever
/// message kind is expected in that round.
#[derive(Clone, Debug)]
pub struct SplitVote<V> {
    low: V,
    high: V,
}

impl<V> SplitVote<V> {
    /// Creates a split-vote adversary pushing the two given values.
    pub fn new(low: V, high: V) -> Self {
        SplitVote { low, high }
    }
}

impl<V: Opinion> Adversary<ConsensusMessage<V>> for SplitVote<V> {
    fn step(
        &mut self,
        view: &AdversaryView<'_, ConsensusMessage<V>>,
    ) -> Vec<Directed<ConsensusMessage<V>>> {
        // The attack fabricates at most two distinct values per voting round (the
        // equivocation pair) — so at most two payload allocations per round, plus
        // one `Echo(from)` per identity in round 2, shared across all recipients.
        let split_pair = |make: fn(V) -> ConsensusMessage<V>| {
            Some((
                Shared::new(make(self.low.clone())),
                Shared::new(make(self.high.clone())),
            ))
        };
        let pair = match consensus_step(view.round) {
            Some(0) => split_pair(ConsensusMessage::Input),
            Some(1) => split_pair(ConsensusMessage::Prefer),
            Some(2) => split_pair(ConsensusMessage::StrongPrefer),
            Some(3) => split_pair(ConsensusMessage::Opinion),
            _ => None,
        };
        let init = (view.round == 1).then(|| Shared::new(ConsensusMessage::Init));
        let mut out = Vec::new();
        for (b, &from) in view.byzantine_ids.iter().enumerate() {
            let echo = (view.round == 2).then(|| Shared::new(ConsensusMessage::Echo(from)));
            for (i, &to) in view.correct_ids.iter().enumerate() {
                let payload = match (&init, &echo, &pair) {
                    (Some(init), _, _) => init.clone(),
                    (_, Some(echo), _) => echo.clone(),
                    (_, _, Some((low, high))) => {
                        if (i + b) % 2 == 0 {
                            low.clone()
                        } else {
                            high.clone()
                        }
                    }
                    _ => break,
                };
                out.push(Directed::new(from, to, payload));
            }
        }
        out
    }
}

/// Byzantine nodes that try to poison the rotor-coordinator's candidate set by
/// echoing never-announced, non-existent identifiers, and that echo genuine candidates
/// only towards a subset of nodes to desynchronise the candidate sets.
#[derive(Clone, Debug)]
pub struct CandidatePoisoner {
    /// Fabricated identifiers the adversary vouches for.
    pub fabricated: Vec<NodeId>,
}

impl CandidatePoisoner {
    /// Creates a poisoner pushing the given fabricated identifiers.
    pub fn new(fabricated: Vec<NodeId>) -> Self {
        CandidatePoisoner { fabricated }
    }
}

impl<V: Opinion> Adversary<RotorMessage<V>> for CandidatePoisoner {
    fn step(
        &mut self,
        view: &AdversaryView<'_, RotorMessage<V>>,
    ) -> Vec<Directed<RotorMessage<V>>> {
        // The Init announcement in round 1; afterwards one ghost echo per
        // fabricated identifier, each towards alternating halves of the nodes.
        let mut out = Vec::new();
        if view.round == 1 {
            fabricate(&mut out, view, vec![RotorMessage::Init], |_, _| true);
        } else {
            let ghosts = self
                .fabricated
                .iter()
                .map(|&ghost| RotorMessage::Echo(ghost))
                .collect();
            fabricate(&mut out, view, ghosts, |i, j| (i + j) % 2 == 0);
        }
        out
    }
}

/// Byzantine nodes that flood parallel consensus with input pairs for identifiers no
/// correct node has, trying to bloat the instance set or sneak a fabricated pair into
/// the output.
#[derive(Clone, Debug)]
pub struct GhostPairInjector<V> {
    /// The fabricated `(identifier, opinion)` pairs to push.
    pub pairs: Vec<(InstanceId, V)>,
}

impl<V> GhostPairInjector<V> {
    /// Creates an injector pushing the given fabricated pairs.
    pub fn new(pairs: Vec<(InstanceId, V)>) -> Self {
        GhostPairInjector { pairs }
    }
}

impl<V: Opinion> Adversary<ParallelMessage<V>> for GhostPairInjector<V> {
    fn step(
        &mut self,
        view: &AdversaryView<'_, ParallelMessage<V>>,
    ) -> Vec<Directed<ParallelMessage<V>>> {
        // Phase-1 rounds in which the correct nodes evaluate inputs, prefers and
        // strong-prefers respectively.
        let payloads: Vec<ParallelMessage<V>> = match view.round {
            1 => vec![ParallelMessage::Init],
            4 => self
                .pairs
                .iter()
                .map(|(id, value)| ParallelMessage::Input(*id, value.clone()))
                .collect(),
            5 => self
                .pairs
                .iter()
                .map(|(id, value)| ParallelMessage::Prefer(*id, Some(value.clone())))
                .collect(),
            6 => self
                .pairs
                .iter()
                .map(|(id, value)| ParallelMessage::StrongPrefer(*id, Some(value.clone())))
                .collect(),
            _ => Vec::new(),
        };
        let mut out = Vec::new();
        fabricate(&mut out, view, payloads, |_, _| true);
        out
    }
}

/// A rushing consensus adversary that keeps the network split: in every voting round
/// it inspects, per correct recipient, how much correct support each of the two
/// configured values has *in the traffic addressed to that recipient this round*, and
/// casts all of its votes for the value that is currently behind.
///
/// Against the `n_v/3` / `2n_v/3` thresholds this is the natural adaptive
/// generalisation of [`SplitVote`]; Lemma 9 (no two conflicting
/// quorums) and the rotor-coordinator rounds are what bound the damage to `O(f)`
/// phases.
#[derive(Clone, Debug)]
pub struct MinorityBooster<V> {
    low: V,
    high: V,
}

impl<V> MinorityBooster<V> {
    /// Creates the attacker fighting over the two given values.
    pub fn new(low: V, high: V) -> Self {
        MinorityBooster { low, high }
    }
}

impl<V: Opinion> Adversary<ConsensusMessage<V>> for MinorityBooster<V> {
    fn step(
        &mut self,
        view: &AdversaryView<'_, ConsensusMessage<V>>,
    ) -> Vec<Directed<ConsensusMessage<V>>> {
        let mut out = Vec::new();
        for &to in view.correct_ids {
            // Count correct support per value in the traffic addressed to `to`.
            let mut low_support = 0usize;
            let mut high_support = 0usize;
            for msg in view.traffic_to(to) {
                let value = match msg.payload() {
                    ConsensusMessage::Input(v)
                    | ConsensusMessage::Prefer(v)
                    | ConsensusMessage::StrongPrefer(v) => v,
                    _ => continue,
                };
                if *value == self.low {
                    low_support += 1;
                } else if *value == self.high {
                    high_support += 1;
                }
            }
            let minority = if low_support <= high_support {
                self.low.clone()
            } else {
                self.high.clone()
            };
            for &from in view.byzantine_ids {
                let payload = match view.round {
                    1 => ConsensusMessage::Init,
                    2 => ConsensusMessage::Echo(from),
                    _ => match consensus_step(view.round) {
                        Some(0) => ConsensusMessage::Input(minority.clone()),
                        Some(1) => ConsensusMessage::Prefer(minority.clone()),
                        Some(2) => ConsensusMessage::StrongPrefer(minority.clone()),
                        Some(3) => ConsensusMessage::Opinion(minority.clone()),
                        _ => continue,
                    },
                };
                out.push(Directed::new(from, to, payload));
            }
        }
        out
    }
}

/// A consensus adversary that tries to become the selected coordinator (its identities
/// echo themselves aggressively during initialisation) and, in every rotor round,
/// sends opinion `low` to even-indexed correct nodes and `high` to odd-indexed ones.
///
/// Lemma 11 only promises a common opinion when the coordinator is *correct*; this
/// attacker checks that Byzantine coordinators merely delay (never derail) agreement.
#[derive(Clone, Debug)]
pub struct EquivocatingCoordinator<V> {
    low: V,
    high: V,
}

impl<V> EquivocatingCoordinator<V> {
    /// Creates the attacker distributing the two given opinions.
    pub fn new(low: V, high: V) -> Self {
        EquivocatingCoordinator { low, high }
    }
}

impl<V: Opinion> Adversary<ConsensusMessage<V>> for EquivocatingCoordinator<V> {
    fn step(
        &mut self,
        view: &AdversaryView<'_, ConsensusMessage<V>>,
    ) -> Vec<Directed<ConsensusMessage<V>>> {
        let mut out = Vec::new();
        for &from in view.byzantine_ids {
            for (index, &to) in view.correct_ids.iter().enumerate() {
                let payload = match view.round {
                    // Announce and echo itself so the correct nodes add it to their
                    // candidate sets (it is a legitimate candidate — it announced).
                    1 => ConsensusMessage::Init,
                    2 => ConsensusMessage::Echo(from),
                    _ => match consensus_step(view.round) {
                        // Participate honestly enough in the vote rounds to stay
                        // counted, parroting its own identity's echo.
                        Some(0) => ConsensusMessage::Echo(from),
                        // In the rotor round, equivocate as a would-be coordinator.
                        Some(3) => {
                            let value = if index % 2 == 0 {
                                self.low.clone()
                            } else {
                                self.high.clone()
                            };
                            ConsensusMessage::Opinion(value)
                        }
                        _ => continue,
                    },
                };
                out.push(Directed::new(from, to, payload));
            }
        }
        out
    }
}

/// A dynamic-total-ordering adversary whose identities flap between `present` and
/// `absent` every round while spamming fabricated events tagged with whatever round
/// number the correct nodes are currently using (gleaned from their `Event` traffic).
#[derive(Clone, Debug)]
pub struct MembershipFlapper<E> {
    spam_event: E,
}

impl<E> MembershipFlapper<E> {
    /// Creates the attacker injecting the given event payload.
    pub fn new(spam_event: E) -> Self {
        MembershipFlapper { spam_event }
    }
}

impl<E: Opinion> Adversary<TotalOrderMessage<E>> for MembershipFlapper<E> {
    fn step(
        &mut self,
        view: &AdversaryView<'_, TotalOrderMessage<E>>,
    ) -> Vec<Directed<TotalOrderMessage<E>>> {
        // Learn the round number the correct nodes currently tag their events with.
        let current_round = view
            .correct_traffic
            .iter()
            .filter_map(|msg| match msg.payload() {
                TotalOrderMessage::Event(round, _) => Some(*round),
                _ => None,
            })
            .max();
        let mut out = Vec::new();
        for &from in view.byzantine_ids {
            for &to in view.correct_ids {
                let flap = if view.round.is_multiple_of(2) {
                    TotalOrderMessage::Absent
                } else {
                    TotalOrderMessage::Present
                };
                out.push(Directed::new(from, to, flap));
                if let Some(round) = current_round {
                    out.push(Directed::new(
                        from,
                        to,
                        TotalOrderMessage::Event(round, self.spam_event.clone()),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::RoundTraffic;

    static CORRECT: [NodeId; 4] = [
        NodeId::new(2),
        NodeId::new(4),
        NodeId::new(5),
        NodeId::new(7),
    ];
    static BYZ: [NodeId; 2] = [NodeId::new(100), NodeId::new(101)];

    fn view<P>(round: u64, traffic: &RoundTraffic<P>) -> AdversaryView<'_, P> {
        AdversaryView {
            round,
            correct_ids: &CORRECT,
            byzantine_ids: &BYZ,
            correct_traffic: traffic,
        }
    }

    #[test]
    fn announce_to_subset_speaks_in_round_one_to_its_remainder_class() {
        let t: RoundTraffic<RbMessage<u64>> = RoundTraffic::new();
        // The announce-then-silent preset reaches everyone, once.
        let mut all = AnnounceToSubset::everyone();
        assert_eq!(Adversary::step(&mut all, &view(1, &t)).len(), 8);
        assert!(Adversary::<RbMessage<u64>>::step(&mut all, &view(2, &t)).is_empty());
        // The partial-announce preset reaches the even-indexed half, identities
        // outermost.
        let mut halves = AnnounceToSubset::every_other();
        let halved = Adversary::step(&mut halves, &view(1, &t));
        let expected: Vec<Directed<RbMessage<u64>>> = BYZ
            .iter()
            .flat_map(|&from| {
                [CORRECT[0], CORRECT[2]].map(|to| Directed::new(from, to, RbMessage::Present))
            })
            .collect();
        assert_eq!(halved, expected);
        // modulus 4 picks exactly one of the four correct nodes per remainder.
        let mut quarter = AnnounceToSubset::new(4, 3);
        let out = Adversary::step(&mut quarter, &view(1, &t));
        assert_eq!(out.len(), 2, "2 byzantine × 1 recipient");
        assert!(out.iter().all(|m| m.to == CORRECT[3]));
        assert!(Adversary::<RbMessage<u64>>::step(&mut quarter, &view(2, &t)).is_empty());
        // A degenerate modulus announces to everyone.
        let mut degenerate = AnnounceToSubset::new(0, 5);
        assert_eq!(Adversary::step(&mut degenerate, &view(1, &t)).len(), 8);
    }

    #[test]
    fn equivocating_source_sends_two_values() {
        let mut adv = EquivocatingSource::new(BYZ[0], 1u64, 2u64);
        let t: RoundTraffic<RbMessage<u64>> = RoundTraffic::new();
        let out = adv.step(&view(1, &t));
        assert_eq!(out.len(), 4);
        let ones = out
            .iter()
            .filter(|m| m.payload == RbMessage::Init(1))
            .count();
        let twos = out
            .iter()
            .filter(|m| m.payload == RbMessage::Init(2))
            .count();
        assert_eq!((ones, twos), (2, 2));
        assert!(adv.step(&view(2, &t)).is_empty());
    }

    #[test]
    fn equivocating_source_respects_a_restricted_actor_view() {
        // An attack-plan step whose actor range excludes the source identity must
        // silence it — the strategy may only drive identities in its view.
        let mut adv = EquivocatingSource::new(BYZ[0], 1u64, 2u64);
        let t: RoundTraffic<RbMessage<u64>> = RoundTraffic::new();
        let mut restricted = view(1, &t);
        restricted.byzantine_ids = &BYZ[1..];
        assert!(adv.step(&restricted).is_empty());
        assert_eq!(adv.step(&view(1, &t)).len(), 4, "full view still attacks");
    }

    #[test]
    fn split_vote_tracks_the_phase_schedule() {
        let mut adv = SplitVote::new(0u64, 1u64);
        let t: RoundTraffic<ConsensusMessage<u64>> = RoundTraffic::new();
        let round3 = adv.step(&view(3, &t));
        assert!(round3
            .iter()
            .all(|m| matches!(m.payload(), ConsensusMessage::Input(_))));
        let round4 = adv.step(&view(4, &t));
        assert!(round4
            .iter()
            .all(|m| matches!(m.payload(), ConsensusMessage::Prefer(_))));
        let round7 = adv.step(&view(7, &t));
        assert!(round7.is_empty(), "nothing to say in the resolve round");
    }

    #[test]
    fn candidate_poisoner_vouches_for_ghosts() {
        let mut adv = CandidatePoisoner::new(vec![NodeId::new(999)]);
        let t: RoundTraffic<RotorMessage<u64>> = RoundTraffic::new();
        let out = adv.step(&view(3, &t));
        assert!(out
            .iter()
            .all(|m| m.payload == RotorMessage::Echo(NodeId::new(999))));
        assert!(!out.is_empty());
    }

    #[test]
    fn ghost_pair_injector_targets_phase_one_rounds() {
        let mut adv = GhostPairInjector::new(vec![(77, 7u64)]);
        let t: RoundTraffic<ParallelMessage<u64>> = RoundTraffic::new();
        assert!(adv
            .step(&view(4, &t))
            .iter()
            .all(|m| matches!(m.payload(), ParallelMessage::Input(77, 7))));
        assert!(adv
            .step(&view(6, &t))
            .iter()
            .all(|m| matches!(m.payload(), ParallelMessage::StrongPrefer(77, Some(7)))));
        assert!(adv.step(&view(8, &t)).is_empty());
    }

    #[test]
    fn minority_booster_backs_the_value_with_less_support() {
        // Every correct node is being sent two Input(1) and one Input(0) this round,
        // so the attacker must push Input(0) to all of them.
        let mut messages = Vec::new();
        for &to in &CORRECT {
            messages.push(Directed::new(CORRECT[0], to, ConsensusMessage::Input(1u64)));
            messages.push(Directed::new(CORRECT[1], to, ConsensusMessage::Input(1u64)));
            messages.push(Directed::new(CORRECT[2], to, ConsensusMessage::Input(0u64)));
        }
        let traffic = RoundTraffic::from_directed(messages);
        let mut adv = MinorityBooster::new(0u64, 1u64);
        let out = adv.step(&view(3, &traffic));
        assert_eq!(out.len(), CORRECT.len() * BYZ.len());
        assert!(out.iter().all(|m| m.payload == ConsensusMessage::Input(0)));
    }

    #[test]
    fn minority_booster_follows_the_phase_schedule() {
        let traffic: RoundTraffic<ConsensusMessage<u64>> = RoundTraffic::new();
        let mut adv = MinorityBooster::new(0u64, 1u64);
        assert!(adv
            .step(&view(1, &traffic))
            .iter()
            .all(|m| m.payload == ConsensusMessage::Init));
        assert!(adv
            .step(&view(4, &traffic))
            .iter()
            .all(|m| matches!(m.payload(), ConsensusMessage::Prefer(_))));
        assert!(adv
            .step(&view(5, &traffic))
            .iter()
            .all(|m| matches!(m.payload(), ConsensusMessage::StrongPrefer(_))));
        // Resolve round: nothing useful to inject.
        assert!(adv.step(&view(7, &traffic)).is_empty());
    }

    #[test]
    fn equivocating_coordinator_splits_opinions_in_rotor_rounds() {
        let traffic: RoundTraffic<ConsensusMessage<u64>> = RoundTraffic::new();
        let mut adv = EquivocatingCoordinator::new(10u64, 20u64);
        // Round 6 is the first rotor round (step 3).
        let out = adv.step(&view(6, &traffic));
        let lows = out
            .iter()
            .filter(|m| m.payload == ConsensusMessage::Opinion(10))
            .count();
        let highs = out
            .iter()
            .filter(|m| m.payload == ConsensusMessage::Opinion(20))
            .count();
        assert_eq!(
            lows, highs,
            "opinions must be split evenly across recipients"
        );
        assert_eq!(lows + highs, CORRECT.len() * BYZ.len());
        // Initialisation rounds campaign for candidacy.
        assert!(adv
            .step(&view(2, &traffic))
            .iter()
            .all(|m| matches!(m.payload(), ConsensusMessage::Echo(_))));
    }

    #[test]
    fn membership_flapper_alternates_presence_and_spams_events() {
        let traffic = RoundTraffic::from_directed(vec![Directed::new(
            CORRECT[0],
            CORRECT[1],
            TotalOrderMessage::Event(9, 555u64),
        )]);
        let mut adv = MembershipFlapper::new(777u64);
        let odd = adv.step(&view(3, &traffic));
        assert!(odd.iter().any(|m| m.payload == TotalOrderMessage::Present));
        assert!(odd
            .iter()
            .any(|m| m.payload == TotalOrderMessage::Event(9, 777)));
        let even = adv.step(&view(4, &traffic));
        assert!(even.iter().any(|m| m.payload == TotalOrderMessage::Absent));
        // Without observed event traffic there is nothing to tag spam with.
        let no_traffic: RoundTraffic<TotalOrderMessage<u64>> = RoundTraffic::new();
        let quiet = adv.step(&view(5, &no_traffic));
        assert!(quiet
            .iter()
            .all(|m| !matches!(m.payload(), TotalOrderMessage::Event(_, _))));
    }
}
