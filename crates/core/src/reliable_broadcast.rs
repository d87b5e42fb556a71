//! Reliable broadcast in the id-only model (Algorithm 1, Section V).
//!
//! Reliable broadcast forces a (possibly Byzantine) designated sender `s` to be
//! consistent: whatever it sends, all correct nodes see the *same* thing. The paper
//! generalises Srikanth–Toueg's authenticated-broadcast simulation to the setting
//! where nobody knows `n` or `f`, replacing the `f + 1` and `2f + 1` thresholds with
//! `n_v/3` and `2n_v/3`, where `n_v` is the number of distinct nodes that have sent
//! `v` at least one message so far.
//!
//! Properties (all proved for `n > 3f` in the paper, and checked empirically by the
//! E1 experiment and the test-suite here):
//!
//! * **Correctness** — if `s` is correct, every correct node accepts `(m, s)`;
//! * **Unforgeability** — if a correct node accepts `(m, s)` and `s` is correct,
//!   then `s` really broadcast `(m, s)`;
//! * **Relay** — if a correct node accepts `(m, s)` in round `r`, every correct node
//!   accepts it by round `r + 1`.
//!
//! The primitive deliberately never terminates (the accepting loop runs forever); the
//! algorithms that embed it implement their own termination. The driver therefore
//! uses [`SyncEngine::run_until_all_output`](uba_simnet::SyncEngine) or a fixed round
//! budget.

use uba_simnet::{Inbox, NodeId, Outgoing, Protocol, RoundContext};

use crate::membership::SenderTracker;
use crate::quorum::{meets_one_third, meets_two_thirds};
use crate::vote::VoteTally;

/// Deliberate-bug switches for the property-fuzz mutation check.
///
/// The fuzz harness (`uba-bench::fuzz`) must itself be tested: a harness that never
/// fires is indistinguishable from a correct protocol. These process-global,
/// default-off toggles let the mutation-check test inject a known protocol bug at
/// runtime and assert the fuzzer detects it and shrinks the counterexample. They
/// exist **only** for that test; nothing in the repository sets them outside
/// `tests/fuzz_mutation.rs`.
#[doc(hidden)]
pub mod mutation {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// When set, every node skips the round-2 echo of the designated sender's
    /// `Init` — echoes then never reach the `2n_v/3` acceptance threshold, which
    /// breaks Theorem 1's correctness property for every correct sender.
    pub static SKIP_ECHO_ROUND: AtomicBool = AtomicBool::new(false);

    /// Whether the echo-skipping mutation is active.
    pub fn skip_echo_round() -> bool {
        SKIP_ECHO_ROUND.load(Ordering::Relaxed)
    }

    /// Enables or disables the echo-skipping mutation.
    pub fn set_skip_echo_round(enabled: bool) {
        SKIP_ECHO_ROUND.store(enabled, Ordering::Relaxed);
    }
}

/// Wire messages of the reliable-broadcast protocol.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RbMessage<M> {
    /// Round-1 message of every non-sender node; it only serves to make the node
    /// known to everyone so that `n_v` reflects the true membership.
    Present,
    /// The designated sender's round-1 broadcast of its message `m`.
    Init(M),
    /// "I have witnessed the sender broadcasting `m`" — the echo that drives the
    /// two-threshold acceptance rule.
    Echo(M),
}

/// The acceptance produced by the protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Accepted<M> {
    /// The accepted message.
    pub message: M,
    /// The designated sender it is attributed to.
    pub source: NodeId,
    /// The round in which this node accepted.
    pub round: u64,
}

/// A node running Algorithm 1 for one designated sender `s`.
///
/// Construct the designated sender itself with [`ReliableBroadcast::sender`] and every
/// other node with [`ReliableBroadcast::receiver`].
#[derive(Clone, Debug)]
pub struct ReliableBroadcast<M> {
    id: NodeId,
    source: NodeId,
    /// The message to broadcast; `Some` only on the designated sender.
    input: Option<M>,
    senders: SenderTracker,
    /// Messages already accepted (at most one per distinct `m` in practice).
    accepted: Vec<Accepted<M>>,
    /// Values already echoed at least once (used only to satisfy the "not accepted
    /// already" guard efficiently; re-echoing is governed by the per-round counts).
    round: u64,
}

impl<M: Clone + Ord + std::fmt::Debug + std::hash::Hash> ReliableBroadcast<M> {
    /// Creates the designated sender node, which will broadcast `message` in round 1.
    pub fn sender(id: NodeId, message: M) -> Self {
        ReliableBroadcast {
            id,
            source: id,
            input: Some(message),
            senders: SenderTracker::new(),
            accepted: Vec::new(),
            round: 0,
        }
    }

    /// Creates a receiver node that waits for the designated sender `source`.
    pub fn receiver(id: NodeId, source: NodeId) -> Self {
        ReliableBroadcast {
            id,
            source,
            input: None,
            senders: SenderTracker::new(),
            accepted: Vec::new(),
            round: 0,
        }
    }

    /// The designated sender this instance listens to.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The messages accepted so far (with the round in which each was accepted).
    pub fn accepted(&self) -> &[Accepted<M>] {
        &self.accepted
    }

    /// The current value of `n_v` as seen by this node.
    pub fn n_v(&self) -> usize {
        self.senders.n_v()
    }

    fn already_accepted(&self, message: &M) -> bool {
        self.accepted.iter().any(|a| &a.message == message)
    }

    /// Tallies this round's `echo(m)` votes: distinct senders per message value. The
    /// roster keeps growing, so the tally is built after this round's senders were
    /// recorded and lives for this round only.
    fn echo_tally(&self, inbox: Inbox<'_, RbMessage<M>>) -> VoteTally<M> {
        let mut tally = VoteTally::new();
        for (_, voter, message) in self.senders.ranked(inbox) {
            if let RbMessage::Echo(m) = message {
                tally.insert(voter, m);
            }
        }
        tally
    }
}

impl<M: Clone + Ord + std::fmt::Debug + std::hash::Hash> Protocol for ReliableBroadcast<M> {
    type Payload = RbMessage<M>;
    type Output = Accepted<M>;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: Inbox<'_, RbMessage<M>>,
    ) -> Vec<Outgoing<RbMessage<M>>> {
        self.round = ctx.round;
        self.senders.record_inbox(inbox);

        match ctx.round {
            // Round 1: the designated sender broadcasts its message; everyone else
            // announces its presence so that n_v counts the full membership.
            1 => {
                if let Some(message) = &self.input {
                    vec![Outgoing::broadcast(RbMessage::Init(message.clone()))]
                } else {
                    vec![Outgoing::broadcast(RbMessage::Present)]
                }
            }
            // Round 2: echo the sender's message if (and only if) it arrived from the
            // designated sender itself — the network-attached sender id makes this
            // unforgeable.
            2 => {
                if mutation::skip_echo_round() {
                    return Vec::new();
                }
                let mut out = Vec::new();
                for (from, message) in inbox {
                    if from == self.source {
                        if let RbMessage::Init(m) = message {
                            out.push(Outgoing::broadcast(RbMessage::Echo(m.clone())));
                        }
                    }
                }
                out
            }
            // Rounds 3…: the amplification loop of Algorithm 1.
            _ => {
                let n_v = self.senders.n_v();
                let tally = self.echo_tally(inbox);
                let mut out = Vec::new();
                for (message, voters) in tally.iter() {
                    let votes = voters.count();
                    // Line 11–14: support the echo once n_v/3 distinct nodes vouch for it.
                    if meets_one_third(votes, n_v) && !self.already_accepted(message) {
                        out.push(Outgoing::broadcast(RbMessage::Echo(message.clone())));
                    }
                    // Line 15–18: accept once 2n_v/3 distinct nodes vouch for it.
                    if meets_two_thirds(votes, n_v) && !self.already_accepted(message) {
                        self.accepted.push(Accepted {
                            message: message.clone(),
                            source: self.source,
                            round: ctx.round,
                        });
                    }
                }
                out
            }
        }
    }

    fn output(&self) -> Option<Accepted<M>> {
        self.accepted.first().cloned()
    }

    /// Reliable broadcast never terminates on its own (the paper leaves termination to
    /// the embedding algorithm), so the engine must be driven with an explicit round
    /// budget or an output-based stop condition.
    fn terminated(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use uba_simnet::adversary::SilentAdversary;
    use uba_simnet::{Adversary, AdversaryView, Directed, FnAdversary, IdSpace, SyncEngine};

    type Msg = RbMessage<u64>;

    fn build_nodes(n: usize, seed: u64) -> (Vec<ReliableBroadcast<u64>>, Vec<NodeId>) {
        let ids = IdSpace::default().generate(n, seed);
        let source = ids[0];
        let nodes = ids
            .iter()
            .map(|&id| {
                if id == source {
                    ReliableBroadcast::sender(id, 4242)
                } else {
                    ReliableBroadcast::receiver(id, source)
                }
            })
            .collect();
        (nodes, ids)
    }

    #[test]
    fn correct_sender_is_accepted_by_everyone_in_three_rounds() {
        let (nodes, _) = build_nodes(7, 1);
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
        engine.run_to_output(10).unwrap();
        for node in engine.nodes() {
            let accepted = node.accepted();
            assert_eq!(accepted.len(), 1);
            assert_eq!(accepted[0].message, 4242);
            assert_eq!(
                accepted[0].round, 3,
                "acceptance happens in the third round"
            );
        }
    }

    #[test]
    fn silent_byzantine_sender_is_never_accepted() {
        // The designated sender is Byzantine and never sends anything.
        let ids = IdSpace::default().generate(5, 2);
        let source = ids[4];
        let nodes: Vec<_> = ids[..4]
            .iter()
            .map(|&id| ReliableBroadcast::<u64>::receiver(id, source))
            .collect();
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![source]);
        engine.run_rounds(20).unwrap();
        for node in engine.nodes() {
            assert!(node.accepted().is_empty());
        }
    }

    #[test]
    fn equivocating_sender_yields_identical_accept_sets_everywhere() {
        // Byzantine designated sender sends value 1 to half the nodes and value 2 to
        // the other half. Reliable broadcast does not forbid accepting both values —
        // what it guarantees is consistency: every correct node ends up accepting the
        // exact same set of (message, sender) pairs, so the equivocation is exposed
        // identically to everyone.
        let ids = IdSpace::default().generate(7, 3);
        let source = ids[6];
        let correct: Vec<NodeId> = ids[..6].to_vec();
        let nodes: Vec<_> = correct
            .iter()
            .map(|&id| ReliableBroadcast::<u64>::receiver(id, source))
            .collect();
        let correct_clone = correct.clone();
        let adversary = FnAdversary::new(move |view: &AdversaryView<'_, Msg>| {
            if view.round != 1 {
                return vec![];
            }
            correct_clone
                .iter()
                .enumerate()
                .map(|(i, &to)| {
                    let value = if i % 2 == 0 { 1 } else { 2 };
                    Directed::new(source, to, RbMessage::Init(value))
                })
                .collect()
        });
        let mut engine = SyncEngine::new(nodes, adversary, vec![source]);
        engine.run_rounds(20).unwrap();
        let accept_sets: Vec<BTreeSet<u64>> = engine
            .nodes()
            .iter()
            .map(|node| node.accepted().iter().map(|a| a.message).collect())
            .collect();
        for set in &accept_sets {
            assert_eq!(
                set, &accept_sets[0],
                "all correct nodes must accept exactly the same set of values"
            );
        }
    }

    #[test]
    fn byzantine_echoes_cannot_forge_acceptance() {
        // Unforgeability: the designated sender is correct but never broadcasts the
        // forged value; f Byzantine nodes echo a forged value and it must not be
        // accepted. n = 7, f = 2.
        let ids = IdSpace::default().generate(7, 4);
        let byz: Vec<NodeId> = ids[5..].to_vec();
        let source = ids[0];
        let nodes: Vec<_> = ids[..5]
            .iter()
            .map(|&id| {
                if id == source {
                    ReliableBroadcast::sender(id, 7)
                } else {
                    ReliableBroadcast::receiver(id, source)
                }
            })
            .collect();
        let byz_clone = byz.clone();
        let adversary = FnAdversary::new(move |view: &AdversaryView<'_, Msg>| {
            let mut out = Vec::new();
            for &from in &byz_clone {
                for &to in view.correct_ids {
                    out.push(Directed::new(from, to, RbMessage::Echo(666)));
                }
            }
            out
        });
        let mut engine = SyncEngine::new(nodes, adversary, vec![byz[0], byz[1]]);
        engine.run_rounds(20).unwrap();
        for node in engine.nodes() {
            assert!(node.accepted().iter().all(|a| a.message == 7));
            assert_eq!(
                node.accepted().len(),
                1,
                "the genuine value is still accepted"
            );
        }
    }

    #[test]
    fn relay_property_holds_under_partial_byzantine_support() {
        // The Byzantine nodes echo the genuine value only to a subset of nodes, trying
        // to make one node accept much earlier than the others. Relay guarantees the
        // gap between the first and the last acceptance round is at most one.
        let ids = IdSpace::default().generate(10, 5);
        let byz: Vec<NodeId> = ids[7..].to_vec();
        let source = ids[0];
        let correct: Vec<NodeId> = ids[..7].to_vec();
        let nodes: Vec<_> = correct
            .iter()
            .map(|&id| {
                if id == source {
                    ReliableBroadcast::sender(id, 99)
                } else {
                    ReliableBroadcast::receiver(id, source)
                }
            })
            .collect();
        let byz_clone = byz.clone();
        let favoured = correct[1];
        let adversary = FnAdversary::new(move |view: &AdversaryView<'_, Msg>| {
            // Echo the genuine value, but only towards one favoured node.
            if view.round < 2 {
                return vec![];
            }
            byz_clone
                .iter()
                .map(|&from| Directed::new(from, favoured, RbMessage::Echo(99)))
                .collect()
        });
        let mut engine = SyncEngine::new(nodes, adversary, byz.clone());
        engine.run_rounds(20).unwrap();
        let rounds: Vec<u64> = engine
            .nodes()
            .iter()
            .map(|n| {
                n.accepted()
                    .first()
                    .expect("all correct nodes accept")
                    .round
            })
            .collect();
        let min = *rounds.iter().min().unwrap();
        let max = *rounds.iter().max().unwrap();
        assert!(
            max - min <= 1,
            "relay: acceptance rounds {rounds:?} differ by more than 1"
        );
    }

    #[test]
    fn n_v_counts_distinct_senders_only() {
        let (nodes, ids) = build_nodes(4, 6);
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
        engine.run_rounds(3).unwrap();
        for node in engine.nodes() {
            assert_eq!(node.n_v(), ids.len());
        }
    }

    #[test]
    fn adversary_trait_objects_compose_with_rb_payloads() {
        // Regression guard: the generic adversary helpers stay usable with RbMessage.
        let mut silent = SilentAdversary;
        let traffic = uba_simnet::RoundTraffic::new();
        let view = AdversaryView::<Msg> {
            round: 1,
            correct_ids: &[],
            byzantine_ids: &[],
            correct_traffic: &traffic,
        };
        assert!(Adversary::<Msg>::step(&mut silent, &view).is_empty());
    }
}
