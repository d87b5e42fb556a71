//! Message envelopes exchanged through the simulated network.
//!
//! The network attaches the *true* sender identifier to every delivered message
//! ([`Envelope::from`]), so a Byzantine node cannot forge its identity when talking
//! directly to another node — exactly the guarantee the paper's model gives.
//! Payloads themselves are protocol-defined and completely opaque to the engine.
//!
//! Everything on the *receive side* — [`Envelope`], [`Directed`], the traffic plane
//! in [`traffic`](crate::traffic) — stores its payload behind a [`Shared`] handle:
//! a broadcast's payload is allocated once and every recipient's envelope holds a
//! reference-count bump of the same allocation. Only the *produce side*
//! ([`Outgoing`]) carries an owned payload, because a node's freshly produced
//! message is the one place a payload legitimately comes into existence.
//!
//! What a node *reads* is not a list of envelopes of its own but an [`Inbox`]:
//! a borrowed view over wherever its messages landed. A broadcast reaches every
//! correct recipient identically, so the engine holds one envelope for it, on
//! the round's common list, and every recipient's view walks that list in place.

use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;
use std::hash::Hash;

use crate::id::NodeId;
use crate::shared::Shared;

/// Where an outgoing message should be delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Destination {
    /// Deliver to every node currently in the system, including the sender itself.
    ///
    /// Self-delivery matches the paper's algorithms (e.g. Algorithm 4 broadcasts the
    /// input "to all the nodes (including self)") and keeps the counting arguments of
    /// the proofs, which include the sender among the `g` correct nodes, literal.
    Broadcast,
    /// Deliver to a single node. The model only allows a correct node to unicast to a
    /// node it has already heard from; protocol implementations are responsible for
    /// respecting that restriction (the engine does not track it).
    Unicast(NodeId),
}

/// A message produced by a correct node in a round, before the sender id is attached.
///
/// The payload is owned: production is where a payload is born. The engine wraps it
/// into a [`Shared`] handle exactly once when it enters the round's traffic.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outgoing<P> {
    /// Where the message goes.
    pub dest: Destination,
    /// Protocol-defined payload.
    pub payload: P,
}

impl<P> Outgoing<P> {
    /// Convenience constructor for a broadcast message.
    pub fn broadcast(payload: P) -> Self {
        Outgoing {
            dest: Destination::Broadcast,
            payload,
        }
    }

    /// Convenience constructor for a unicast message.
    pub fn unicast(to: NodeId, payload: P) -> Self {
        Outgoing {
            dest: Destination::Unicast(to),
            payload,
        }
    }
}

/// A message as delivered to a recipient: shared payload plus the authenticated
/// sender id.
///
/// Every recipient of a broadcast holds an envelope whose `payload` handle points at
/// the *same* allocation; inspect it through [`Envelope::payload`] (or deref the
/// field). Cloning an envelope clones the handle, never the payload.
#[derive(Debug)]
pub struct Envelope<P> {
    /// The true identifier of the sender (attached by the network, unforgeable).
    pub from: NodeId,
    /// Protocol-defined payload, shared across all recipients of a broadcast.
    pub payload: Shared<P>,
}

impl<P> Envelope<P> {
    /// Creates an envelope. Accepts either an owned payload (allocated into a fresh
    /// handle) or an existing [`Shared`] handle (forwarded without a copy).
    pub fn new(from: NodeId, payload: impl Into<Shared<P>>) -> Self {
        Envelope {
            from,
            payload: payload.into(),
        }
    }

    /// The payload value (the method shadows the field for ergonomic matching:
    /// `match envelope.payload() { … }`).
    pub fn payload(&self) -> &P {
        &self.payload
    }
}

impl<P> Clone for Envelope<P> {
    /// A handle clone — no payload copy, regardless of `P`.
    fn clone(&self) -> Self {
        Envelope {
            from: self.from,
            payload: self.payload.clone(),
        }
    }
}

impl<P: PartialEq> PartialEq for Envelope<P> {
    fn eq(&self, other: &Self) -> bool {
        self.from == other.from && self.payload == other.payload
    }
}

impl<P: Eq> Eq for Envelope<P> {}

impl<P: Serialize> Serialize for Envelope<P> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("from".to_string(), self.from.to_value()),
            ("payload".to_string(), self.payload.to_value()),
        ])
    }
}

impl<P: Deserialize + Hash> Deserialize for Envelope<P> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Envelope {
            from: field(value, "from")?,
            payload: field(value, "payload")?,
        })
    }
}

/// The messages a node received this round, as a borrowed **view**: `(sender,
/// &payload)` pairs in delivery order, read in place from wherever they landed.
///
/// A broadcast reaches every correct recipient of a round identically, so the
/// engine keeps it once, on the round's *common list*, and keeps per recipient
/// only what is that recipient's own (directed traffic, and whatever landed
/// after a directed message froze its share of the common list). A node's
/// inbox is then a prefix of the common list followed by its own entries —
/// two slices of [`Envelope`]s the view walks without copying either. The
/// second backing is a caller's buffer of `(sender, &payload)` pairs: what a
/// multiplexing node ([`MuxNode`](crate::MuxNode), total order) hands an inner
/// instance after sorting its own inbox by tag, the payloads still living in
/// the outer envelopes. Which backing a view has is private to the type; both
/// come in through `From`:
///
/// ```
/// use uba_simnet::{Envelope, Inbox, NodeId};
///
/// let delivered = vec![Envelope::new(NodeId::new(7), 42u64)];
/// let inbox = Inbox::from(&delivered[..]);
/// assert_eq!(inbox.len(), 1);
/// let heard: Vec<(NodeId, &u64)> = inbox.iter().collect();
/// assert_eq!(Inbox::from(&heard[..]).iter().next(), Some((NodeId::new(7), &42)));
/// ```
///
/// The view is `Copy`, and its iterator `Clone`, so a protocol can make as
/// many passes as it likes.
pub struct Inbox<'a, P> {
    /// The recipient's prefix of the round's common list…
    common: &'a [Envelope<P>],
    /// …followed by its own entries. Both empty for a borrowed buffer.
    own: &'a [Envelope<P>],
    /// A caller's buffer of borrowed payloads. Empty for an envelope view.
    pairs: &'a [(NodeId, &'a P)],
}

impl<'a, P> Inbox<'a, P> {
    /// The view the engine hands a stepping node: `common` then `own`.
    pub(crate) fn envelopes(common: &'a [Envelope<P>], own: &'a [Envelope<P>]) -> Self {
        Inbox {
            common,
            own,
            pairs: &[],
        }
    }

    /// The `(sender, &payload)` pairs, in delivery order.
    pub fn iter(&self) -> InboxIter<'a, P> {
        InboxIter {
            common: self.common.iter(),
            own: self.own.iter(),
            pairs: self.pairs.iter(),
        }
    }

    /// Number of messages in the inbox.
    pub fn len(&self) -> usize {
        self.common.len() + self.own.len() + self.pairs.len()
    }

    /// Whether the inbox holds no message.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every entry together with a payload handle, in delivery order —
    /// what the write-ahead log keeps of a consumed inbox. An envelope lends
    /// its handle (a reference-count bump); a borrowed pair has none, so one
    /// is allocated for it.
    pub(crate) fn for_each_handle(&self, mut visit: impl FnMut(NodeId, Shared<P>))
    where
        P: Clone + Hash,
    {
        for envelope in self.common.iter().chain(self.own) {
            visit(envelope.from, envelope.payload.clone());
        }
        for &(from, payload) in self.pairs {
            visit(from, Shared::new(payload.clone()));
        }
    }
}

impl<P> Clone for Inbox<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for Inbox<'_, P> {}

impl<P> Default for Inbox<'_, P> {
    /// The empty inbox (what every node sees in its first round).
    fn default() -> Self {
        Inbox::envelopes(&[], &[])
    }
}

impl<P: fmt::Debug> fmt::Debug for Inbox<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, P> From<&'a [Envelope<P>]> for Inbox<'a, P> {
    /// A view of delivered envelopes (a replayed round, a test's script).
    fn from(envelopes: &'a [Envelope<P>]) -> Self {
        Inbox::envelopes(envelopes, &[])
    }
}

impl<'a, P> From<&'a [(NodeId, &'a P)]> for Inbox<'a, P> {
    /// A view of payloads borrowed from wherever the caller received them.
    fn from(pairs: &'a [(NodeId, &'a P)]) -> Self {
        Inbox {
            pairs,
            ..Inbox::default()
        }
    }
}

impl<'a, P> IntoIterator for Inbox<'a, P> {
    type Item = (NodeId, &'a P);
    type IntoIter = InboxIter<'a, P>;

    fn into_iter(self) -> InboxIter<'a, P> {
        self.iter()
    }
}

/// The iterator of an [`Inbox`]: `(sender, &payload)` in delivery order.
pub struct InboxIter<'a, P> {
    common: std::slice::Iter<'a, Envelope<P>>,
    own: std::slice::Iter<'a, Envelope<P>>,
    pairs: std::slice::Iter<'a, (NodeId, &'a P)>,
}

impl<P> Clone for InboxIter<'_, P> {
    fn clone(&self) -> Self {
        InboxIter {
            common: self.common.clone(),
            own: self.own.clone(),
            pairs: self.pairs.clone(),
        }
    }
}

impl<'a, P> Iterator for InboxIter<'a, P> {
    type Item = (NodeId, &'a P);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, &'a P)> {
        if let Some(envelope) = self.common.next().or_else(|| self.own.next()) {
            return Some((envelope.from, envelope.payload.get()));
        }
        self.pairs.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.common.len() + self.own.len() + self.pairs.len();
        (len, Some(len))
    }
}

/// A fully addressed message: sender, recipient and shared payload.
///
/// This is the form in which the [`Adversary`](crate::Adversary) injects traffic —
/// Byzantine nodes may send *different* payloads to different recipients
/// (equivocation), which is why the adversary works with `Directed` messages rather
/// than [`Outgoing`] ones. The engine verifies that `from` is one of the adversary's
/// own identities, so even a Byzantine node cannot forge someone else's sender id.
///
/// An adversary that *forwards* observed honest traffic passes the handle along
/// (one reference-count bump); only a message it actually fabricates or tampers
/// with allocates a payload.
#[derive(Debug)]
pub struct Directed<P> {
    /// Claimed (and engine-verified) sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Protocol-defined payload, possibly shared with other messages.
    pub payload: Shared<P>,
}

impl<P> Directed<P> {
    /// Creates a directed message from an owned payload or an existing handle.
    pub fn new(from: NodeId, to: NodeId, payload: impl Into<Shared<P>>) -> Self {
        Directed {
            from,
            to,
            payload: payload.into(),
        }
    }

    /// The payload value (method shadowing the field, for ergonomic matching).
    pub fn payload(&self) -> &P {
        &self.payload
    }
}

impl<P> Clone for Directed<P> {
    /// A handle clone — no payload copy, regardless of `P`.
    fn clone(&self) -> Self {
        Directed {
            from: self.from,
            to: self.to,
            payload: self.payload.clone(),
        }
    }
}

impl<P: PartialEq> PartialEq for Directed<P> {
    fn eq(&self, other: &Self) -> bool {
        self.from == other.from && self.to == other.to && self.payload == other.payload
    }
}

impl<P: Eq> Eq for Directed<P> {}

impl<P: Serialize> Serialize for Directed<P> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("from".to_string(), self.from.to_value()),
            ("to".to_string(), self.to.to_value()),
            ("payload".to_string(), self.payload.to_value()),
        ])
    }
}

impl<P: Deserialize + Hash> Deserialize for Directed<P> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Directed {
            from: field(value, "from")?,
            to: field(value, "to")?,
            payload: field(value, "payload")?,
        })
    }
}

/// Deserialises one named field of an object [`Value`] (the impls above are
/// hand-written because the shared payload field needs a `P: Hash` bound the
/// derive does not know to add).
fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, Error> {
    T::from_value(value.field(name)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::Shared;

    #[test]
    fn constructors_set_fields() {
        let b = Outgoing::broadcast("x");
        assert_eq!(b.dest, Destination::Broadcast);
        assert_eq!(b.payload, "x");

        let u = Outgoing::unicast(NodeId::new(3), 7u32);
        assert_eq!(u.dest, Destination::Unicast(NodeId::new(3)));
        assert_eq!(u.payload, 7);

        let e = Envelope::new(NodeId::new(1), "hi");
        assert_eq!(e.from, NodeId::new(1));
        assert_eq!(*e.payload(), "hi");

        let d = Directed::new(NodeId::new(1), NodeId::new(2), 9u8);
        assert_eq!(
            (d.from, d.to, *d.payload()),
            (NodeId::new(1), NodeId::new(2), 9)
        );
    }

    #[test]
    fn destinations_compare_by_target() {
        assert_ne!(Destination::Broadcast, Destination::Unicast(NodeId::new(0)));
        assert_eq!(
            Destination::Unicast(NodeId::new(5)),
            Destination::Unicast(NodeId::new(5))
        );
    }

    #[test]
    fn envelopes_accept_and_forward_shared_handles() {
        let handle = Shared::new(41u64);
        let a = Envelope::new(NodeId::new(1), handle.clone());
        let b = a.clone();
        assert!(
            Shared::ptr_eq(&a.payload, &b.payload),
            "cloning an envelope shares the payload"
        );
        assert!(Shared::ptr_eq(&a.payload, &handle));
        assert_eq!(a, b);
        // Value comparison works directly against a payload.
        assert_eq!(a.payload, 41u64);
    }

    #[test]
    fn directed_serde_round_trips_with_the_derived_shape() {
        let d = Directed::new(NodeId::new(1), NodeId::new(2), 9u64);
        let value = Serialize::to_value(&d);
        let back: Directed<u64> = Deserialize::from_value(&value).unwrap();
        assert_eq!(back, d);

        let e = Envelope::new(NodeId::new(4), 5u32);
        let back: Envelope<u32> = Deserialize::from_value(&Serialize::to_value(&e)).unwrap();
        assert_eq!(back, e);
    }
}
