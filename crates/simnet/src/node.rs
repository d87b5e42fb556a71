//! The [`Protocol`] trait: the interface a correct node implements.
//!
//! Every algorithm in `uba-core` and `uba-baselines` is a deterministic state machine
//! driven by the engine one round at a time. The engine delivers the messages that
//! were sent to the node in the previous round — as an [`Inbox`] view read in
//! place, never a per-recipient copy — and collects the messages the node wants
//! to send in the current round.

use crate::id::NodeId;
use crate::message::{Inbox, Outgoing};

/// Per-round information handed to a protocol by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundContext {
    /// The current round number, starting at 1 for the first round in which the node
    /// participates. In the first round the inbox is always empty (nothing has been
    /// sent yet), mirroring the paper's convention that computation starts with a send.
    pub round: u64,
}

impl RoundContext {
    /// Creates a round context for the given round number.
    pub fn new(round: u64) -> Self {
        RoundContext { round }
    }
}

/// A correct node's protocol logic.
///
/// Implementations must be deterministic functions of their construction parameters
/// and the sequence of inboxes they observe: the engine relies on this for
/// reproducible executions, and the experiments rely on it for seed-stable results.
///
/// The protocol **must not** assume anything about the number of participants: the
/// only information available about the rest of the system is the set of sender
/// identifiers observed in inboxes — exactly the id-only model.
pub trait Protocol {
    /// The wire payload exchanged by this protocol.
    ///
    /// The `Hash` bound is what lets the engine deduplicate deliveries through a
    /// per-inbox `(sender, payload hash)` set in O(1) expected time instead of a
    /// linear scan; every wire format is a plain data enum, so the bound costs
    /// implementations a `#[derive(Hash)]` at most.
    type Payload: Clone + std::fmt::Debug + PartialEq + std::hash::Hash;
    /// The value the node eventually outputs (decision, accepted message, chain, …).
    ///
    /// The `Eq` bound is what lets the report render an agreed output once: a
    /// node whose output equals the one rendered just before it reuses that
    /// text. It is `Eq`, not `PartialEq`, so that equal outputs are guaranteed
    /// to print alike — a float keyed this way would print `-0.0` as `0.0`.
    type Output: Clone + std::fmt::Debug + Eq;

    /// The node's own identifier (the only global knowledge it starts with).
    fn id(&self) -> NodeId;

    /// Executes one synchronous round.
    ///
    /// `inbox` is a view of every message delivered to this node at the beginning of
    /// the round, i.e. the messages addressed to it in the previous round, deduplicated
    /// per `(sender, payload)` pair as required by the model ("duplicate messages from
    /// the same node in a round are simply discarded"). It yields `(sender, &payload)`
    /// in delivery order and borrows the messages from where they landed — the
    /// engine's per-round common list and the node's own entries, or the buffer of a
    /// multiplexing node that sorted its own inbox by instance — so handing a node
    /// its inbox copies nothing. The return value is the set of messages to send in
    /// this round, which will be delivered at the beginning of the next one.
    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: Inbox<'_, Self::Payload>,
    ) -> Vec<Outgoing<Self::Payload>>;

    /// The node's output, if it has produced one.
    ///
    /// Some protocols (e.g. reliable broadcast) never *terminate* in the paper but do
    /// produce an output (the accepted message); the engine therefore distinguishes
    /// [`Protocol::output`] from [`Protocol::terminated`].
    fn output(&self) -> Option<Self::Output>;

    /// Whether the node has terminated and will not send any further messages.
    ///
    /// The default considers a node terminated as soon as it has an output, which is
    /// correct for the one-shot algorithms (consensus, approximate agreement). The
    /// non-terminating primitives (reliable broadcast, total ordering) override this.
    fn terminated(&self) -> bool {
        self.output().is_some()
    }
}

/// A protocol whose state can be snapshotted and restored — the extension the
/// crash-recovery subsystem requires (see [`wal`](crate::wal)).
///
/// The engine's [`RecoveryManager`](crate::wal::RecoveryManager) snapshots a
/// node's state when its write-ahead log opens (and on compaction), and after a
/// crash rebuilds the node by replaying the logged rounds over the snapshot.
/// For the deterministic state machines of this workspace a snapshot is simply
/// a clone, so implementations are one line:
///
/// ```ignore
/// impl Recoverable for MyNode {
///     fn snapshot(&self) -> Self { self.clone() }
/// }
/// ```
pub trait Recoverable: Protocol + Sized {
    /// A faithful copy of the node's current protocol state.
    fn snapshot(&self) -> Self;

    /// Reconstructs a node from a snapshot. The default is the identity —
    /// WAL replay, not this hook, brings the state forward to the crash point.
    fn restore(snapshot: Self) -> Self {
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Destination, Envelope};

    struct Echoer {
        id: NodeId,
        seen: Vec<NodeId>,
    }

    impl Protocol for Echoer {
        type Payload = u32;
        type Output = usize;

        fn id(&self) -> NodeId {
            self.id
        }

        fn step(&mut self, ctx: &RoundContext, inbox: Inbox<'_, u32>) -> Vec<Outgoing<u32>> {
            self.seen.extend(inbox.iter().map(|(from, _)| from));
            if ctx.round == 1 {
                vec![Outgoing {
                    dest: Destination::Broadcast,
                    payload: 1,
                }]
            } else {
                vec![]
            }
        }

        fn output(&self) -> Option<usize> {
            (!self.seen.is_empty()).then_some(self.seen.len())
        }
    }

    #[test]
    fn default_terminated_follows_output() {
        let mut node = Echoer {
            id: NodeId::new(1),
            seen: vec![],
        };
        assert!(!node.terminated());
        let ctx = RoundContext::new(2);
        let inbox = [Envelope::new(NodeId::new(2), 5)];
        node.step(&ctx, Inbox::from(&inbox[..]));
        assert!(node.terminated());
        assert_eq!(node.output(), Some(1));
    }

    #[test]
    fn round_context_stores_round() {
        assert_eq!(RoundContext::new(7).round, 7);
    }
}
