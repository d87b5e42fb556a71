//! The Byzantine adversary interface and generic adversary strategies.
//!
//! In the paper's model the faulty nodes "can behave in any way whatsoever". The
//! engine therefore drives Byzantine identities through a single [`Adversary`] object
//! that, once per round, observes everything the correct nodes sent in that round
//! (a *rushing* adversary) and injects an arbitrary set of directed messages. The
//! only thing it cannot do is forge a sender identity it does not control, because
//! the network attaches sender identifiers — the engine enforces this.
//!
//! Protocol-agnostic strategies live here ([`SilentAdversary`], [`FnAdversary`],
//! [`ReplayAdversary`]); strategies that need to craft protocol-specific payloads
//! (equivocating echoes, split votes, …) live next to the protocols in
//! `uba-core::adversaries`. Nothing here wraps another adversary: restricting a
//! strategy to a round window or to some of the Byzantine identities — a crash, a
//! late attack, a collusion split — is a step of a
//! [`PlanAdversary`](crate::attack::PlanAdversary).

use std::collections::BTreeSet;

use crate::id::NodeId;
use crate::message::Directed;
use crate::traffic::{RoundTraffic, SentRef, TrafficIter};

/// What the adversary gets to see before injecting its messages for a round.
///
/// `correct_traffic` holds everything the correct nodes sent *this* round in its
/// compact, broadcast-aware form — the adversary is rushing: it speaks last, with
/// full knowledge of the round's honest messages, which is the strongest position
/// the synchronous model allows. The full point-to-point expansion is available
/// through the lazy [`AdversaryView::traffic`] / [`AdversaryView::traffic_to`]
/// iterators; the engine never allocates it.
#[derive(Debug)]
pub struct AdversaryView<'a, P> {
    /// Current round number (1-based, same numbering the correct nodes see).
    pub round: u64,
    /// Identifiers of the correct nodes currently in the system.
    pub correct_ids: &'a [NodeId],
    /// Identifiers controlled by the adversary.
    pub byzantine_ids: &'a [NodeId],
    /// The round's correct traffic, broadcasts unexpanded.
    pub correct_traffic: &'a RoundTraffic<P>,
}

impl<'a, P> AdversaryView<'a, P> {
    /// All identifiers currently in the system (correct and Byzantine).
    pub fn all_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self
            .correct_ids
            .iter()
            .chain(self.byzantine_ids.iter())
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Lazily iterates the full point-to-point expansion of the round's correct
    /// traffic, in the order the old eager engine materialised it.
    pub fn traffic(&self) -> TrafficIter<'a, P> {
        self.correct_traffic.iter()
    }

    /// Messages the correct nodes sent to a particular recipient this round
    /// (lazily expanded; a full pass costs O(traffic items), not O(items × n)).
    pub fn traffic_to(&self, to: NodeId) -> impl Iterator<Item = SentRef<'a, P>> + 'a {
        self.correct_traffic.to(to)
    }
}

/// A Byzantine adversary controlling a (possibly empty) set of identities.
pub trait Adversary<P> {
    /// Produces the messages the Byzantine identities send this round.
    ///
    /// Every returned message must have `from` equal to one of
    /// `view.byzantine_ids`; the engine rejects anything else with
    /// [`SimError::ForgedSender`](crate::SimError::ForgedSender).
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>>;
}

/// An adversary whose nodes never send anything (fail-silent / crashed from the
/// start). With this adversary the Byzantine nodes are invisible: correct nodes never
/// even learn that they exist, which is the "a Byzantine node may get itself known to
/// only a subset of nodes" corner of the model taken to the extreme.
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentAdversary;

impl<P> Adversary<P> for SilentAdversary {
    fn step(&mut self, _view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        Vec::new()
    }
}

/// An adversary defined by a closure — the escape hatch used by tests and by
/// experiment drivers for one-off behaviours.
pub struct FnAdversary<P, F>
where
    F: FnMut(&AdversaryView<'_, P>) -> Vec<Directed<P>>,
{
    f: F,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P, F> FnAdversary<P, F>
where
    F: FnMut(&AdversaryView<'_, P>) -> Vec<Directed<P>>,
{
    /// Wraps a closure as an adversary.
    pub fn new(f: F) -> Self {
        FnAdversary {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<P, F> Adversary<P> for FnAdversary<P, F>
where
    F: FnMut(&AdversaryView<'_, P>) -> Vec<Directed<P>>,
{
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        (self.f)(view)
    }
}

/// An adversary that imitates a correct node by replaying, under each of its own
/// identities, the payloads that some designated correct node sent this round — but
/// only towards a chosen subset of recipients. This realises the "a Byzantine node may
/// get itself known to only a subset of nodes" behaviour from the model: different
/// correct nodes end up with different values of `n_v`.
#[derive(Clone, Debug)]
pub struct ReplayAdversary {
    /// Only recipients satisfying this predicate receive the replayed traffic.
    visible_to_even_raw_ids: bool,
}

impl ReplayAdversary {
    /// Creates a replay adversary. If `visible_to_even_raw_ids` is true the Byzantine
    /// identities only talk to correct nodes whose raw identifier is even, otherwise
    /// to those with odd raw identifiers.
    pub fn new(visible_to_even_raw_ids: bool) -> Self {
        ReplayAdversary {
            visible_to_even_raw_ids,
        }
    }
}

impl<P> Adversary<P> for ReplayAdversary {
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        // Pick the lexicographically smallest correct sender as the template.
        let Some(template_sender) = view.correct_ids.iter().copied().min() else {
            return Vec::new();
        };
        // Built once a round: a linear `correct_ids.contains` per expanded
        // message would make the replay O(n³).
        let correct: BTreeSet<NodeId> = view.correct_ids.iter().copied().collect();
        let mut out = Vec::new();
        for &byz in view.byzantine_ids {
            for msg in view.traffic().filter(|m| m.from == template_sender) {
                let parity_ok = (msg.to.raw() % 2 == 0) == self.visible_to_even_raw_ids;
                if parity_ok && correct.contains(&msg.to) {
                    // Forward by handle: replayed honest traffic never clones the
                    // payload (which is why this impl needs no `P: Clone`).
                    out.push(Directed::new(byz, msg.to, msg.payload.clone()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static CORRECT: [NodeId; 3] = [NodeId::new(2), NodeId::new(4), NodeId::new(5)];
    static BYZ: [NodeId; 1] = [NodeId::new(9)];

    fn traffic(messages: Vec<Directed<u32>>) -> RoundTraffic<u32> {
        RoundTraffic::from_directed(messages)
    }

    fn view<'a>(traffic: &'a RoundTraffic<u32>) -> AdversaryView<'a, u32> {
        AdversaryView {
            round: 3,
            correct_ids: &CORRECT,
            byzantine_ids: &BYZ,
            correct_traffic: traffic,
        }
    }

    #[test]
    fn silent_adversary_sends_nothing() {
        let traffic = traffic(vec![Directed::new(NodeId::new(2), NodeId::new(4), 7u32)]);
        let mut adv = SilentAdversary;
        assert!(Adversary::<u32>::step(&mut adv, &view(&traffic)).is_empty());
    }

    #[test]
    fn fn_adversary_uses_closure() {
        let traffic = traffic(vec![]);
        let mut adv = FnAdversary::new(|v: &AdversaryView<'_, u32>| {
            vec![Directed::new(v.byzantine_ids[0], v.correct_ids[0], 99)]
        });
        let out = adv.step(&view(&traffic));
        assert_eq!(out, vec![Directed::new(NodeId::new(9), NodeId::new(2), 99)]);
    }

    #[test]
    fn replay_adversary_copies_template_to_parity_subset() {
        // Template sender is n2 (smallest correct id); it broadcast payload 5. The
        // broadcast is stored compactly; the replay adversary sees its expansion.
        let mut traffic = RoundTraffic::new();
        traffic.begin_round(CORRECT.iter().copied().chain(BYZ.iter().copied()));
        traffic.push_broadcast(NodeId::new(2), 5u32);
        traffic.push_unicast(Directed::new(NodeId::new(4), NodeId::new(2), 8u32));
        let mut adv = ReplayAdversary::new(true);
        let out = adv.step(&view(&traffic));
        // Only even-raw-id correct recipients (n2, n4) get the replayed payload 5, from n9.
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|m| m.from == NodeId::new(9) && m.payload == 5));
        assert!(out.iter().any(|m| m.to == NodeId::new(2)));
        assert!(out.iter().any(|m| m.to == NodeId::new(4)));
        // Zero-copy forwarding: the replayed messages share the broadcast's one
        // payload allocation instead of cloning it.
        let crate::traffic::TrafficItem::Broadcast { payload, .. } = &traffic.items()[0] else {
            panic!("first item is the broadcast");
        };
        assert!(out
            .iter()
            .all(|m| crate::shared::Shared::ptr_eq(&m.payload, payload)));
    }

    #[test]
    fn view_all_ids_is_sorted_union() {
        let traffic = traffic(vec![]);
        let v = view(&traffic);
        let all = v.all_ids();
        assert_eq!(
            all,
            vec![
                NodeId::new(2),
                NodeId::new(4),
                NodeId::new(5),
                NodeId::new(9)
            ]
        );
    }

    #[test]
    fn view_traffic_to_filters_recipient() {
        let traffic = traffic(vec![
            Directed::new(NodeId::new(2), NodeId::new(4), 1u32),
            Directed::new(NodeId::new(5), NodeId::new(4), 2u32),
            Directed::new(NodeId::new(5), NodeId::new(2), 3u32),
        ]);
        let v = view(&traffic);
        assert_eq!(v.traffic_to(NodeId::new(4)).count(), 2);
        assert_eq!(v.traffic_to(NodeId::new(2)).count(), 1);
    }

    #[test]
    fn view_traffic_expands_broadcasts_lazily() {
        let mut traffic = RoundTraffic::new();
        traffic.begin_round(CORRECT.iter().copied().chain(BYZ.iter().copied()));
        traffic.push_broadcast(NodeId::new(4), 11u32);
        let v = view(&traffic);
        let expanded: Vec<Directed<u32>> = v.traffic().map(|m| m.to_directed()).collect();
        assert_eq!(expanded.len(), 4, "one copy per member, including n9");
        assert!(expanded.iter().all(|m| m.from == NodeId::new(4)));
        assert_eq!(v.traffic_to(NodeId::new(9)).count(), 1);
    }
}
