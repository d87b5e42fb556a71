//! Broadcast-aware, shared-payload round traffic.
//!
//! The engine used to expand every broadcast into `n` cloned [`Directed`] messages
//! the moment a node produced it, which made each round cost O(messages × n) in
//! allocation alone. [`RoundTraffic`] keeps a round's correct traffic in its compact
//! form instead — one [`TrafficItem::Broadcast`] entry per broadcast, holding a
//! single [`Shared`] payload handle — and only materialises point-to-point messages
//! where someone actually consumes them:
//!
//! * the engine walks the items once at delivery time; a broadcast's payload is
//!   digest-hashed **exactly once**, in [`RoundTraffic::push_broadcast`], and
//!   allocated at most once: the digest is looked up among the round's earlier
//!   broadcasts, a hit confirmed with `==` reuses that handle (**hash-consing**),
//!   and only a new value is allocated. Correct nodes broadcast the same echoes,
//!   inputs and preferences, so on the benchmark's `stream-total-order` 202,280
//!   broadcasts cost 13,475 allocations and traced `engine.produce_ms` fell 345 →
//!   179 ms (with the tally and resolve-step changes of the same PR). Every
//!   correct recipient's envelope is a reference-count bump of that one
//!   allocation (messages to Byzantine identities never exist as values; the
//!   adversary already saw everything through its view);
//! * a rushing adversary observes the full point-to-point expansion through the
//!   lazy [`RoundTraffic::iter`] / [`RoundTraffic::to`] iterators, which yield
//!   borrowed [`SentRef`]s without allocating, and forwards whatever it wants to
//!   replay by cloning the handle — not the payload.
//!
//! The expansion order is fixed — items in production order, broadcast recipients
//! in the engine's recipient order (correct nodes first, then Byzantine
//! identities) — so executions are bit-for-bit identical to the old eager engine.

use std::collections::HashMap;
use std::hash::Hash;

use crate::engine::FastState;
use crate::id::NodeId;
use crate::message::Directed;
use crate::shared::{payload_digest, Shared};

/// One message-production event of a round, in its compact form.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficItem<P> {
    /// A broadcast to every current member (including the sender); the payload is
    /// allocated once, not once per recipient.
    Broadcast {
        /// The broadcasting node.
        from: NodeId,
        /// The payload every member receives (one allocation, shared handles).
        payload: Shared<P>,
    },
    /// A point-to-point message.
    Unicast(Directed<P>),
}

impl<P: Eq> Eq for TrafficItem<P> {}

/// A borrowed view of one point-to-point message in the round's expansion.
///
/// This is what the lazy iterators yield: sender, recipient and a reference to the
/// shared payload handle. Adversaries that forward a message call
/// [`SentRef::to_directed`], which clones the handle — never the payload.
#[derive(Debug)]
pub struct SentRef<'a, P> {
    /// The sending correct node.
    pub from: NodeId,
    /// The recipient.
    pub to: NodeId,
    /// The payload handle (shared across all recipients of a broadcast).
    pub payload: &'a Shared<P>,
}

impl<'a, P> SentRef<'a, P> {
    /// The payload value, borrowed for the traffic's full lifetime (method
    /// shadowing the field, for ergonomic matching).
    pub fn payload(&self) -> &'a P {
        self.payload.get()
    }

    /// Materialises the message as an owned [`Directed`] value by forwarding the
    /// payload handle (a reference-count bump, not a payload clone).
    pub fn to_directed(&self) -> Directed<P> {
        Directed::new(self.from, self.to, self.payload.clone())
    }
}

impl<P> Clone for SentRef<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for SentRef<'_, P> {}

/// A round's correct traffic in compact, broadcast-aware form.
///
/// Built by the engine during the node-step phase; read by the adversary (lazily
/// expanded) and by the delivery phase (expanded only towards correct recipients).
/// The buffers are reused across rounds via [`RoundTraffic::begin_round`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundTraffic<P> {
    items: Vec<TrafficItem<P>>,
    recipients: Vec<NodeId>,
    broadcasts: usize,
    /// The round's distinct broadcast payloads, by digest: the first payload
    /// broadcast with each digest.
    interned: HashMap<u64, Shared<P>, FastState>,
    /// Distinct payloads whose digest an unequal payload already holds in
    /// `interned` — empty unless two payloads of one round hash alike.
    collided: Vec<Shared<P>>,
}

impl<P> RoundTraffic<P> {
    /// An empty traffic set with no broadcast recipients (broadcasts added to it
    /// expand to nobody). Mostly useful for tests and adversary unit fixtures.
    pub fn new() -> Self {
        RoundTraffic {
            items: Vec::new(),
            recipients: Vec::new(),
            broadcasts: 0,
            interned: HashMap::default(),
            collided: Vec::new(),
        }
    }

    /// Wraps a list of explicit point-to-point messages — the shape of the old
    /// eager engine — as a traffic set. Used by tests and adversary fixtures that
    /// want to describe traffic per recipient.
    pub fn from_directed(messages: Vec<Directed<P>>) -> Self {
        RoundTraffic {
            items: messages.into_iter().map(TrafficItem::Unicast).collect(),
            ..RoundTraffic::new()
        }
    }

    /// Clears the buffers and installs the round's broadcast recipient set (every
    /// current member, correct first, then Byzantine — the engine's delivery
    /// order). Reuses the allocations of the previous round.
    pub fn begin_round(&mut self, recipients: impl IntoIterator<Item = NodeId>) {
        self.items.clear();
        self.recipients.clear();
        self.recipients.extend(recipients);
        self.broadcasts = 0;
        self.interned.clear();
        self.collided.clear();
    }

    /// Records a unicast.
    pub fn push_unicast(&mut self, message: Directed<P>) {
        self.items.push(TrafficItem::Unicast(message));
    }

    /// The compact items, in production order.
    pub fn items(&self) -> &[TrafficItem<P>] {
        &self.items
    }

    /// The round's broadcast recipient set, in delivery order.
    pub fn recipients(&self) -> &[NodeId] {
        &self.recipients
    }

    /// Number of point-to-point messages in the expansion (what the old engine
    /// would have allocated): `broadcasts × |recipients| + unicasts`.
    pub fn point_to_point_count(&self) -> u64 {
        let unicasts = (self.items.len() - self.broadcasts) as u64;
        self.broadcasts as u64 * self.recipients.len() as u64 + unicasts
    }

    /// Whether the round produced no traffic at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Lazily iterates the full point-to-point expansion, in the exact order the
    /// old eager engine produced it: items in production order, broadcast
    /// recipients in recipient order. Nothing is allocated.
    pub fn iter(&self) -> TrafficIter<'_, P> {
        TrafficIter {
            items: self.items.iter(),
            recipients: &self.recipients,
            pending: None,
        }
    }

    /// Lazily iterates the messages addressed to one recipient. A broadcast
    /// contributes one message iff `to` is in the recipient set; the membership
    /// test is hoisted out of the loop, so a full pass costs O(items), not
    /// O(items × recipients).
    pub fn to<'a>(&'a self, to: NodeId) -> impl Iterator<Item = SentRef<'a, P>> + 'a {
        let broadcast_reaches = self.recipients.contains(&to);
        self.items.iter().filter_map(move |item| match item {
            TrafficItem::Broadcast { from, payload } if broadcast_reaches => Some(SentRef {
                from: *from,
                to,
                payload,
            }),
            TrafficItem::Unicast(message) if message.to == to => Some(SentRef {
                from: message.from,
                to,
                payload: &message.payload,
            }),
            _ => None,
        })
    }

    /// Number of payload allocations the compact form holds — one per unicast
    /// and one per distinct broadcast payload. The zero-copy invariant asserted
    /// by tests: this never depends on the recipient count.
    pub fn payload_allocations(&self) -> u64 {
        let unicasts = self.items.len() - self.broadcasts;
        (unicasts + self.interned.len() + self.collided.len()) as u64
    }
}

impl<P: Hash + PartialEq> RoundTraffic<P> {
    /// Records a broadcast: the one place its payload is allocated, regardless of
    /// how many recipients the expansion reaches — and regardless of how many
    /// senders broadcast it this round. The payload is hashed once; a payload
    /// equal (`==`, behind an equal digest) to one already broadcast this round
    /// shares that one's handle, so a round allocates one payload per distinct
    /// broadcast value.
    pub fn push_broadcast(&mut self, from: NodeId, payload: P) {
        let digest = payload_digest(&payload);
        let payload = match self.interned.get(&digest) {
            Some(first) if **first == payload => first.clone(),
            Some(_) => match self
                .collided
                .iter()
                .find(|held| held.digest() == digest && ***held == payload)
            {
                Some(held) => held.clone(),
                None => {
                    let handle = Shared::with_digest(payload, digest);
                    self.collided.push(handle.clone());
                    handle
                }
            },
            None => {
                let handle = Shared::with_digest(payload, digest);
                self.interned.insert(digest, handle.clone());
                handle
            }
        };
        self.broadcasts += 1;
        self.items.push(TrafficItem::Broadcast { from, payload });
    }
}

impl<'a, P> IntoIterator for &'a RoundTraffic<P> {
    type Item = SentRef<'a, P>;
    type IntoIter = TrafficIter<'a, P>;

    fn into_iter(self) -> TrafficIter<'a, P> {
        self.iter()
    }
}

/// Lazy point-to-point expansion of a [`RoundTraffic`] (see [`RoundTraffic::iter`]).
#[derive(Clone, Debug)]
pub struct TrafficIter<'a, P> {
    items: std::slice::Iter<'a, TrafficItem<P>>,
    recipients: &'a [NodeId],
    /// A broadcast mid-expansion: sender, payload, index of the next recipient.
    pending: Option<(NodeId, &'a Shared<P>, usize)>,
}

impl<'a, P> Iterator for TrafficIter<'a, P> {
    type Item = SentRef<'a, P>;

    fn next(&mut self) -> Option<SentRef<'a, P>> {
        loop {
            if let Some((from, payload, index)) = self.pending {
                if let Some(&to) = self.recipients.get(index) {
                    self.pending = Some((from, payload, index + 1));
                    return Some(SentRef { from, to, payload });
                }
                self.pending = None;
            }
            match self.items.next()? {
                TrafficItem::Broadcast { from, payload } => {
                    self.pending = Some((*from, payload, 0));
                }
                TrafficItem::Unicast(message) => {
                    return Some(SentRef {
                        from: message.from,
                        to: message.to,
                        payload: &message.payload,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::thread_allocations;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn sample() -> RoundTraffic<u32> {
        let mut traffic = RoundTraffic::new();
        traffic.begin_round([n(1), n(2), n(9)]);
        traffic.push_broadcast(n(1), 100);
        traffic.push_unicast(Directed::new(n(2), n(1), 200));
        traffic.push_broadcast(n(2), 300);
        traffic
    }

    #[test]
    fn expansion_matches_the_eager_order() {
        let traffic = sample();
        let expanded: Vec<Directed<u32>> = traffic.iter().map(|m| m.to_directed()).collect();
        assert_eq!(
            expanded,
            vec![
                Directed::new(n(1), n(1), 100),
                Directed::new(n(1), n(2), 100),
                Directed::new(n(1), n(9), 100),
                Directed::new(n(2), n(1), 200),
                Directed::new(n(2), n(1), 300),
                Directed::new(n(2), n(2), 300),
                Directed::new(n(2), n(9), 300),
            ]
        );
        assert_eq!(traffic.point_to_point_count(), 7);
        assert_eq!(
            traffic.payload_allocations(),
            3,
            "one per distinct payload, not per copy"
        );
    }

    #[test]
    fn expansion_shares_one_payload_allocation_per_broadcast() {
        let traffic = sample();
        let tokens: Vec<usize> = traffic
            .iter()
            .filter(|m| m.from == n(1))
            .map(|m| m.payload.token())
            .collect();
        assert_eq!(tokens.len(), 3);
        assert!(
            tokens.windows(2).all(|w| w[0] == w[1]),
            "all recipients see the same allocation"
        );
        let forwarded = traffic.iter().next().unwrap().to_directed();
        assert_eq!(
            forwarded.payload.token(),
            tokens[0],
            "to_directed forwards the handle"
        );
    }

    #[test]
    fn per_recipient_iteration_filters_and_expands() {
        let traffic = sample();
        let to_1: Vec<u32> = traffic.to(n(1)).map(|m| *m.payload()).collect();
        assert_eq!(to_1, vec![100, 200, 300]);
        let to_9: Vec<u32> = traffic.to(n(9)).map(|m| *m.payload()).collect();
        assert_eq!(to_9, vec![100, 300]);
        // Not a recipient: broadcasts do not reach it, unicasts still would.
        let to_5: Vec<u32> = traffic.to(n(5)).map(|m| *m.payload()).collect();
        assert!(to_5.is_empty());
    }

    #[test]
    fn buffers_are_reusable_across_rounds() {
        let mut traffic = sample();
        traffic.begin_round([n(4)]);
        assert!(traffic.is_empty());
        assert_eq!(traffic.point_to_point_count(), 0);
        traffic.push_broadcast(n(4), 7);
        assert_eq!(traffic.point_to_point_count(), 1);
        assert_eq!(traffic.recipients(), &[n(4)]);
    }

    #[test]
    fn from_directed_wraps_explicit_messages() {
        let traffic = RoundTraffic::from_directed(vec![Directed::new(n(1), n(2), 5u32)]);
        assert_eq!(traffic.point_to_point_count(), 1);
        let all: Vec<Directed<u32>> = traffic.iter().map(|m| m.to_directed()).collect();
        assert_eq!(all, vec![Directed::new(n(1), n(2), 5)]);
        assert_eq!(traffic.to(n(2)).count(), 1);
        assert_eq!(traffic.to(n(1)).count(), 0);
    }

    #[test]
    fn equal_broadcasts_of_a_round_share_one_allocation() {
        let mut traffic = RoundTraffic::new();
        traffic.begin_round([n(1), n(2)]);
        let before = thread_allocations();
        traffic.push_broadcast(n(1), 11u32);
        traffic.push_broadcast(n(2), 11u32);
        traffic.push_broadcast(n(2), 12u32);
        assert_eq!(thread_allocations() - before, 2, "one per distinct value");
        assert_eq!(traffic.payload_allocations(), 2);
        let elevens: Vec<&Shared<u32>> = traffic
            .iter()
            .filter(|m| *m.payload() == 11)
            .map(|m| m.payload)
            .collect();
        assert_eq!(elevens.len(), 4);
        assert!(elevens.iter().all(|h| Shared::ptr_eq(h, elevens[0])));
        // The next round interns afresh.
        traffic.begin_round([n(1)]);
        traffic.push_broadcast(n(1), 11u32);
        assert_eq!(thread_allocations() - before, 3);
    }

    /// Equal values hash alike, so a `Hash` that writes nothing is legal: every
    /// payload then collides, and only `==` may decide what is shared.
    #[derive(Clone, Debug, PartialEq)]
    struct Colliding(u32);

    impl std::hash::Hash for Colliding {
        fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
    }

    #[test]
    fn colliding_digests_are_told_apart_by_equality() {
        let mut traffic = RoundTraffic::new();
        traffic.begin_round([n(1), n(2), n(3)]);
        let before = thread_allocations();
        for (from, value) in [(1, 7), (2, 8), (3, 9), (1, 8), (2, 9), (3, 7)] {
            traffic.push_broadcast(n(from), Colliding(value));
        }
        assert_eq!(thread_allocations() - before, 3);
        assert_eq!(traffic.payload_allocations(), 3);
        let sent: Vec<(u64, u32)> = traffic
            .to(n(1))
            .map(|m| (m.from.raw(), m.payload().0))
            .collect();
        assert_eq!(sent, [(1, 7), (2, 8), (3, 9), (1, 8), (2, 9), (3, 7)]);
        for value in [7, 8, 9] {
            let tokens: Vec<usize> = traffic
                .to(n(2))
                .filter(|m| m.payload().0 == value)
                .map(|m| m.payload.token())
                .collect();
            assert_eq!(tokens, [tokens[0]; 2], "value {value}");
        }
    }
}
