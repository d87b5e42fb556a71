//! Total ordering of events in a dynamic network (Algorithm 6, Section XI).
//!
//! The most useful agreement task in a network whose membership keeps changing is not
//! a one-shot decision but an ever-growing, totally ordered log of events — the
//! abstraction a permissionless ledger provides. Algorithm 6 builds it by running one
//! [`ParallelConsensus`] instance *per round*: each node that witnesses an event
//! broadcasts it tagged with its current round number, everybody collects the
//! `(witness, event)` pairs of the previous round as the input pairs of that round's
//! instance, and the decided pairs of old-enough ("final") instances are appended to
//! the log in round order (ties broken by witness identifier).
//!
//! Dynamic membership is handled with three plain messages: a joiner broadcasts
//! `present`, existing members answer `(ack, r)` so the joiner can adopt the correct
//! round number (by majority) and learn the member set `S`, and a leaver broadcasts
//! `absent`. The adversary may add nodes before any round as long as `n > 3f` keeps
//! holding — the guarantee the whole construction rests on.
//!
//! The two properties proved in Theorem 6 and checked by the tests and experiment E9:
//!
//! * **Chain-prefix** — the logs of any two correct nodes are prefixes of one another;
//! * **Chain-growth** — the log keeps growing as long as correct nodes keep
//!   submitting events.
//!
//! # Cost
//!
//! The node is a multiplexer: the membership lines of the algorithm plus the
//! stream plane's [`Window`], with one instance pushed every round. The window
//! routes each `Instance` message, as a *borrowed* `(sender, &inner)` pair, to
//! the running instance it belongs to if the sender is in that instance's
//! frozen member set, and steps the instance over an [`Inbox`] view of those
//! pairs; nothing is cloned, hashed or reference-counted per message. An
//! instance is driven until it terminates (fault-free: its local round 7, so
//! seven run at once) and then leaves the window: only its decided pairs,
//! moved out of it, and its `|S|` wait out the finality window. An instance at
//! a resolve step whose outcome is already fixed still steps, but reads
//! nothing: the second rotor echo wave its inbox would carry is left unread.
//! [`TotalOrderNode::work`] counts the work; `docs/STREAMING.md` has the cost
//! model.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use uba_simnet::{
    Inbox, InstanceSlot, MuxWork, NodeId, Outgoing, Protocol, RoundContext, Slot, Window,
};

use crate::early_consensus::ParallelMessage;
use crate::parallel_consensus::ParallelConsensus;
use crate::value::Opinion;

/// Wire messages of the total-ordering protocol.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TotalOrderMessage<E> {
    /// A joining node announcing itself.
    Present,
    /// `(ack, r)`: an existing member telling a joiner the current round number.
    Ack(u64),
    /// A leaving node announcing its departure.
    Absent,
    /// An event witnessed by the sender in the tagged round.
    Event(u64, E),
    /// A message belonging to the parallel-consensus instance of the tagged round.
    Instance(u64, ParallelMessage<E>),
}

/// One entry of the totally ordered log.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderedEvent<E> {
    /// The round whose consensus instance ordered the event.
    pub round: u64,
    /// The node that witnessed and submitted the event.
    pub witness: NodeId,
    /// The event itself.
    pub event: E,
}

/// Checks the agreement between finalised logs, restricted to the rounds the logs
/// have in common.
///
/// A node that joined late cannot know events finalised before it joined (the paper's
/// join protocol transfers no history), so its log starts later; likewise two nodes
/// may have finalised up to different rounds. The chain-prefix property therefore
/// amounts to: for every pair of logs, the entries for the rounds covered by both —
/// from the later of their first events' rounds to the earlier of their last
/// events' rounds — are identical. Returns `true` when that holds for every pair.
/// Logs are sorted by round (they are appended in round order), so each common
/// window is a sub-slice.
///
/// The pairs are not enumerated. Two logs agree on a window exactly when they
/// hold the same entries for every round in it, so the property reads: every log
/// covering a round holds the same entries for that round — and equality being
/// transitive, it is enough to compare each log against **one reference**. The
/// reference is assembled round by round from the logs themselves, taken in
/// order of first round: a log is compared with the reference over the rounds
/// both cover and then extends it with the rounds only the log covers, so the
/// reference's entries for a round are those of the first log that reached it,
/// and every other log covering the round is compared with them once. That is one
/// window compare a log instead of one a pair, with the same verdict — including
/// for a log that covers a round without an entry while another holds one, and
/// for two logs that disagree only beyond a shorter third one.
pub fn chains_agree<E: Opinion, C: AsRef<[OrderedEvent<E>]>>(chains: &[C]) -> bool {
    let mut by_first_round: Vec<&[OrderedEvent<E>]> = chains
        .iter()
        .map(AsRef::as_ref)
        .filter(|chain| !chain.is_empty())
        .collect();
    by_first_round.sort_by_key(|chain| chain[0].round);
    // Sorted by round. No later log starts before the current one, so what the
    // reference holds below a log's first round is never read again — which is
    // also why a gap between two logs needs no special case.
    let mut reference: Vec<&OrderedEvent<E>> = Vec::new();
    for chain in by_first_round {
        let (first, last) = (chain[0].round, chain[chain.len() - 1].round);
        let theirs = &reference[reference.partition_point(|e| e.round < first)..];
        let theirs = &theirs[..theirs.partition_point(|e| e.round <= last)];
        // The log's entries up to the last round the reference covers.
        let shared = reference.last().map_or(0, |covered| {
            chain.partition_point(|e| e.round <= covered.round)
        });
        if !chain[..shared].iter().eq(theirs.iter().copied()) {
            return false;
        }
        reference.extend(&chain[shared..]);
    }
    true
}

/// A per-round consensus instance together with the membership snapshot it runs
/// against ("running a parallel consensus instance with respect to `S`").
#[derive(Clone, Debug)]
struct RoundInstance<E: Opinion> {
    /// Tagged, and started, with the round that started it.
    slot: InstanceSlot<ParallelConsensus<E>>,
    /// The member set recorded when the instance started.
    members: BTreeSet<NodeId>,
}

impl<E: Opinion> Slot for RoundInstance<E> {
    type Node = ParallelConsensus<E>;

    fn slot(&self) -> &InstanceSlot<ParallelConsensus<E>> {
        &self.slot
    }

    fn slot_mut(&mut self) -> &mut InstanceSlot<ParallelConsensus<E>> {
        &mut self.slot
    }

    fn hears(&self, from: NodeId) -> bool {
        self.members.contains(&from)
    }

    fn reads_inbox(&self, local_round: u64) -> bool {
        self.slot.node.reads_inbox(local_round)
    }
}

/// A node running Algorithm 6.
#[derive(Clone, Debug)]
pub struct TotalOrderNode<E: Opinion> {
    id: NodeId,
    /// Whether the node has completed the join handshake.
    joined: bool,
    /// Local step counter used only while joining (to know when the acks are in).
    local_steps: u64,
    /// The node's current round number `r` (meaningful once joined).
    round: u64,
    /// The current member set `S`.
    members: BTreeSet<NodeId>,
    /// Events submitted by the application, waiting to be broadcast (one per round).
    pending_events: VecDeque<E>,
    /// Whether the node has announced (or wants to announce) that it is leaving.
    leaving: bool,
    announced_leave: bool,
    /// Whether the node has already broadcast `present` (founders do it in their first
    /// round so that every founder learns the initial membership; joiners do it as
    /// part of the join handshake).
    announced_presence: bool,
    /// The running per-round consensus instances, tagged by round.
    window: Window<RoundInstance<E>>,
    /// Decided instances awaiting finality, by round: their decided pairs
    /// (witness raw id → event) and the size of the member set they ran with.
    decided: BTreeMap<u64, (BTreeMap<u64, E>, usize)>,
    /// The finalised log.
    chain: Vec<OrderedEvent<E>>,
    /// Largest round up to which every round is final and appended to the chain.
    finalized_upto: u64,
}

impl<E: Opinion> TotalOrderNode<E> {
    /// Creates a founding member: it is part of the system from round 0 and needs no
    /// join handshake.
    pub fn founding(id: NodeId) -> Self {
        TotalOrderNode {
            id,
            joined: true,
            local_steps: 0,
            round: 0,
            members: BTreeSet::from([id]),
            pending_events: VecDeque::new(),
            leaving: false,
            announced_leave: false,
            announced_presence: false,
            window: Window::new(Vec::new()),
            decided: BTreeMap::new(),
            chain: Vec::new(),
            finalized_upto: 0,
        }
    }

    /// Creates a node that wants to join a running system: it broadcasts `present`,
    /// adopts the majority round number from the acks and only then participates.
    pub fn joining(id: NodeId) -> Self {
        TotalOrderNode {
            id,
            joined: false,
            local_steps: 0,
            round: 0,
            members: BTreeSet::from([id]),
            pending_events: VecDeque::new(),
            leaving: false,
            announced_leave: false,
            announced_presence: true,
            window: Window::new(Vec::new()),
            decided: BTreeMap::new(),
            chain: Vec::new(),
            finalized_upto: 0,
        }
    }

    /// Submits an event to be ordered; it is broadcast in the node's next round.
    pub fn submit_event(&mut self, event: E) {
        self.pending_events.push_back(event);
    }

    /// Announces that the node wants to leave. It broadcasts `absent` in its next
    /// round and keeps participating in outstanding instances until the driver
    /// removes it.
    pub fn announce_leave(&mut self) {
        self.leaving = true;
    }

    /// Whether the node has completed the join handshake.
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// The node's current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The node's current member set `S`.
    pub fn members(&self) -> &BTreeSet<NodeId> {
        &self.members
    }

    /// The finalised, totally ordered log.
    pub fn chain(&self) -> &[OrderedEvent<E>] {
        &self.chain
    }

    /// The largest round up to which the log is final.
    pub fn finalized_upto(&self) -> u64 {
        self.finalized_upto
    }

    /// The demux work counters of the node's [`Window`], in the stream plane's
    /// currency: `envelopes_indexed` is the inbox sizes summed over steps,
    /// `slot_steps` the per-round instance steps executed, and `dropped_retired`
    /// the instance traffic that matched no running instance (decided,
    /// finalised or never started here). Measurement only — never part of a
    /// report.
    pub fn work(&self) -> MuxWork {
        self.window.work()
    }

    /// The finality rule of Algorithm 6 (line 28): round `r'` is final at round `r`
    /// if `r − r' > 5·|S_{r'}|/2 + 2`, evaluated in exact arithmetic.
    fn is_final(current_round: u64, instance_round: u64, members_at_start: usize) -> bool {
        let age = current_round.saturating_sub(instance_round);
        2 * age > 5 * members_at_start as u64 + 4
    }

    /// Advances finalisation and appends newly final rounds to the chain, in
    /// order: the oldest decided round is final once it is old enough and no
    /// older instance is still running.
    fn advance_finality(&mut self) {
        while let Some(entry) = self.decided.first_entry() {
            let next = *entry.key();
            let ready = next < self.round
                && Self::is_final(self.round, next, entry.get().1)
                && self
                    .window
                    .slots()
                    .first()
                    .is_none_or(|running| running.slot.tag > next);
            if !ready {
                break;
            }
            let (pairs, _) = entry.remove();
            self.chain
                .extend(pairs.into_iter().map(|(witness_raw, event)| OrderedEvent {
                    round: next,
                    witness: NodeId::new(witness_raw),
                    event,
                }));
            self.finalized_upto = next;
        }
    }
}

/// The window's view of a wire message: the instance it belongs to, if any.
fn untag<E>(message: &TotalOrderMessage<E>) -> Option<(u64, &ParallelMessage<E>)> {
    match message {
        TotalOrderMessage::Instance(round, inner) => Some((*round, inner)),
        _ => None,
    }
}

impl<E: Opinion> Protocol for TotalOrderNode<E> {
    type Payload = TotalOrderMessage<E>;
    type Output = Vec<OrderedEvent<E>>;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(
        &mut self,
        _ctx: &RoundContext,
        inbox: Inbox<'_, TotalOrderMessage<E>>,
    ) -> Vec<Outgoing<TotalOrderMessage<E>>> {
        self.local_steps += 1;
        let mut out: Vec<Outgoing<TotalOrderMessage<E>>> = Vec::new();

        // Join handshake (lines 1–6).
        if !self.joined {
            match self.local_steps {
                1 => out.push(Outgoing::broadcast(TotalOrderMessage::Present)),
                2 => {}
                _ => {
                    let mut acks: BTreeMap<u64, usize> = BTreeMap::new();
                    let mut senders: BTreeSet<NodeId> = BTreeSet::new();
                    for (from, message) in inbox {
                        if let TotalOrderMessage::Ack(r) = message {
                            *acks.entry(*r).or_default() += 1;
                            senders.insert(from);
                        }
                    }
                    // No acks yet: keep waiting.
                    if let Some((&r0, _)) = acks.iter().max_by_key(|(_, count)| **count) {
                        self.round = r0 + 1;
                        self.finalized_upto = self.round;
                        self.members = senders;
                        self.members.insert(self.id);
                        self.joined = true;
                    }
                }
            }
        } else {
            // Line 8: advance the round.
            self.round += 1;
            let r = self.round;

            // Founders make themselves known to each other in their first round, so that
            // the member set S reflects the initial membership.
            if !self.announced_presence {
                self.announced_presence = true;
                out.push(Outgoing::broadcast(TotalOrderMessage::Present));
            }

            // Lines 10–20: membership messages. Instance traffic is the window's.
            let mut event_inputs: Vec<(u64, E)> = Vec::new();
            for (from, message) in inbox {
                match message {
                    TotalOrderMessage::Present => {
                        self.members.insert(from);
                        out.push(Outgoing::unicast(from, TotalOrderMessage::Ack(r)));
                    }
                    TotalOrderMessage::Absent => {
                        self.members.remove(&from);
                    }
                    // Line 24–26: events witnessed in the previous round become input pairs
                    // of this round's instance, identified by the witnessing node.
                    TotalOrderMessage::Event(tag, event) => {
                        if *tag + 1 == r {
                            event_inputs.push((from.raw(), event.clone()));
                        }
                    }
                    TotalOrderMessage::Ack(_) | TotalOrderMessage::Instance(..) => {}
                }
            }

            // Lines 14–17: leaving.
            if self.leaving && !self.announced_leave {
                self.announced_leave = true;
                out.push(Outgoing::broadcast(TotalOrderMessage::Absent));
            }

            // Lines 21–23: broadcast one witnessed event, tagged with the current round.
            if !self.leaving {
                if let Some(event) = self.pending_events.pop_front() {
                    out.push(Outgoing::broadcast(TotalOrderMessage::Event(r, event)));
                }
            }

            // Line 27: start this round's parallel consensus instance with the collected
            // pairs, with respect to the member set as the whole inbox left it. Leaving
            // nodes only finish outstanding instances and do not start new ones.
            if !self.leaving {
                self.window.push(RoundInstance {
                    slot: InstanceSlot {
                        tag: r,
                        start_round: r,
                        node: ParallelConsensus::new(self.id, event_inputs),
                    },
                    members: self.members.clone(),
                });
            }
        }

        // Drive every running instance by one (local) round — a joining node has
        // none, so its window only counts the instance traffic that arrives. A
        // decided instance leaves its pairs to wait for finality.
        let decided = self.window.step(
            self.round,
            inbox,
            untag,
            TotalOrderMessage::Instance,
            &mut out,
        );
        for mut instance in decided {
            let decision = instance.slot.node.take_decision();
            let pairs = decision.expect("a terminated instance has decided").pairs;
            self.decided
                .insert(instance.slot.tag, (pairs, instance.members.len()));
        }

        // Lines 28–30: finality and chain construction.
        self.advance_finality();

        out
    }

    fn output(&self) -> Option<Vec<OrderedEvent<E>>> {
        Some(self.chain.clone())
    }

    /// Total ordering never terminates; the driver decides how long to run.
    fn terminated(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::adversary::SilentAdversary;
    use uba_simnet::{Envelope, IdSpace, SyncEngine};

    type Node = TotalOrderNode<u64>;

    fn founders(n: usize, seed: u64) -> Vec<Node> {
        IdSpace::default()
            .generate(n, seed)
            .into_iter()
            .map(TotalOrderNode::founding)
            .collect()
    }

    fn assert_chain_prefix(chains: &[Vec<OrderedEvent<u64>>]) {
        for a in chains {
            for b in chains {
                let short = a.len().min(b.len());
                assert_eq!(&a[..short], &b[..short], "chain-prefix violated");
            }
        }
    }

    #[test]
    fn events_are_ordered_identically_at_all_nodes() {
        let mut engine = SyncEngine::new(founders(4, 1), SilentAdversary, vec![]);
        // Submit one event per node in each of the first 5 rounds, then run long
        // enough for those rounds to become final.
        for round in 0..5u64 {
            for (i, node) in engine.nodes_mut().iter_mut().enumerate() {
                node.submit_event(round * 100 + i as u64);
            }
            engine.run_rounds(1).unwrap();
        }
        engine.run_rounds(60).unwrap();
        let chains: Vec<Vec<OrderedEvent<u64>>> =
            engine.nodes().iter().map(|n| n.chain().to_vec()).collect();
        assert!(!chains[0].is_empty(), "events must eventually be finalised");
        assert_chain_prefix(&chains);
        // All submitted events that made it into the final prefix are unique.
        let shortest = chains.iter().map(|c| c.len()).min().unwrap();
        let events: BTreeSet<u64> = chains[0][..shortest].iter().map(|e| e.event).collect();
        assert_eq!(events.len(), shortest, "no event is ordered twice");
    }

    #[test]
    fn chain_growth_with_continuous_events() {
        let mut engine = SyncEngine::new(founders(4, 2), SilentAdversary, vec![]);
        let mut lengths = Vec::new();
        for round in 0..80u64 {
            {
                let node = &mut engine.nodes_mut()[0];
                node.submit_event(round);
            }
            engine.run_rounds(1).unwrap();
            lengths.push(engine.nodes()[0].chain().len());
        }
        assert!(
            lengths.last().unwrap() > &lengths[30],
            "the chain must keep growing while events keep being submitted"
        );
    }

    #[test]
    fn chains_agree_handles_offset_and_empty_logs() {
        let full = vec![ev(1, 1, 10), ev(2, 2, 20), ev(3, 3, 30)];
        let suffix = vec![ev(2, 2, 20), ev(3, 3, 30)];
        let empty: Vec<OrderedEvent<u64>> = vec![];
        assert!(chains_agree(&[full.clone(), suffix.clone(), empty]));
        let conflicting = vec![ev(2, 2, 99)];
        assert!(!chains_agree(&[full, conflicting]));
    }

    /// The definition, pair by pair — what `chains_agree` computed before it
    /// compared every log with one reference, kept as its oracle.
    fn chains_agree_pairwise(chains: &[Vec<OrderedEvent<u64>>]) -> bool {
        for (i, a) in chains.iter().enumerate() {
            for b in &chains[i + 1..] {
                let (Some(a_first), Some(b_first)) = (a.first(), b.first()) else {
                    continue;
                };
                let (Some(a_last), Some(b_last)) = (a.last(), b.last()) else {
                    continue;
                };
                let lo = a_first.round.max(b_first.round);
                let hi = a_last.round.min(b_last.round);
                if lo > hi {
                    continue;
                }
                let window = |chain: &[OrderedEvent<u64>]| {
                    let from = chain.partition_point(|e| e.round < lo);
                    let to = chain.partition_point(|e| e.round <= hi);
                    from..to
                };
                if a[window(a)] != b[window(b)] {
                    return false;
                }
            }
        }
        true
    }

    fn ev(round: u64, witness: u64, event: u64) -> OrderedEvent<u64> {
        OrderedEvent {
            round,
            witness: NodeId::new(witness),
            event,
        }
    }

    #[test]
    fn chains_agree_has_the_pairwise_verdict_where_agreement_is_not_transitive() {
        // Two logs that disagree only in round 3, beyond a third that ends at
        // round 2 and agrees with both: the bridge must not vouch for them.
        let bridge = vec![ev(1, 1, 10), ev(2, 2, 20)];
        let left = vec![ev(1, 1, 10), ev(2, 2, 20), ev(3, 3, 30)];
        let right = vec![ev(1, 1, 10), ev(2, 2, 20), ev(3, 3, 31)];
        for chains in [
            [bridge.clone(), left.clone(), right.clone()],
            [left.clone(), bridge.clone(), right.clone()],
            [left.clone(), right.clone(), bridge.clone()],
        ] {
            assert!(!chains_agree(&chains));
            assert!(!chains_agree_pairwise(&chains));
        }
        assert!(chains_agree(&[bridge.clone(), left.clone()]));
        assert!(chains_agree(&[bridge, right]));
        // A log covers the rounds between its first and last entry: holding
        // nothing for round 2 contradicts a log that holds an entry there …
        let hole = vec![ev(1, 1, 10), ev(3, 3, 30)];
        assert!(!chains_agree(&[hole.clone(), left.clone()]));
        assert!(!chains_agree(&[left.clone(), hole.clone()]));
        // … but not one that ends before it, nor one separated from it by a gap.
        assert!(chains_agree(&[hole.clone(), vec![ev(1, 1, 10)]]));
        assert!(chains_agree(&[vec![ev(7, 1, 1)], hole, vec![ev(5, 5, 5)]]));
        // Entries of one round are compared in order, repeated witnesses included.
        let twice = vec![ev(1, 1, 10), ev(1, 1, 11)];
        assert!(chains_agree(&[twice.clone(), twice.clone()]));
        assert!(!chains_agree(&[twice, vec![ev(1, 1, 11), ev(1, 1, 10)]]));
    }

    #[test]
    fn chains_agree_matches_the_pairwise_definition() {
        use rand::Rng;
        use uba_simnet::rng::seeded_rng;

        let (mut agreed, mut disagreed, mut flipped) = (0, 0, 0);
        for seed in 0..2_000u64 {
            let mut rng = seeded_rng(seed);
            // The log every chain is a window of: up to three entries a round,
            // some rounds empty, witnesses free to repeat inside a round.
            let rounds = rng.gen_range(1..12u64);
            let mut truth = Vec::new();
            for round in 1..=rounds {
                for _ in 0..rng.gen_range(0..4) {
                    truth.push(ev(round, rng.gen_range(1..4), rng.gen_range(0..3)));
                }
            }
            let mut chains: Vec<Vec<OrderedEvent<u64>>> = (0..rng.gen_range(0..7))
                .map(|_| {
                    let from = rng.gen_range(1..=rounds + 1);
                    let to = rng.gen_range(from.saturating_sub(1)..=rounds);
                    truth
                        .iter()
                        .filter(|e| (from..=to).contains(&e.round))
                        .cloned()
                        .collect()
                })
                .collect();
            // Windows of one log agree, whatever their offsets and order.
            assert!(chains_agree(&chains), "seed {seed}: {chains:?}");
            assert!(chains_agree_pairwise(&chains), "seed {seed}");

            // Damage one chain: rewrite an entry, drop a round's entries (the
            // chain may still cover the round) or add an entry nobody else has.
            let damaged = rng.gen_range(0..chains.len().max(1));
            if let Some(chain) = chains.get_mut(damaged).filter(|chain| !chain.is_empty()) {
                let at = rng.gen_range(0..chain.len());
                let round = chain[at].round;
                match rng.gen_range(0..3) {
                    0 => chain[at].event += 7,
                    1 => chain.retain(|e| e.round != round),
                    _ => chain.insert(at, ev(round, 9, 9)),
                }
                let verdict = chains_agree(&chains);
                assert_eq!(
                    verdict,
                    chains_agree_pairwise(&chains),
                    "seed {seed}: {chains:?}"
                );
                match verdict {
                    true => agreed += 1,
                    false => disagreed += 1,
                }
            }

            // Flipping one entry of an agreeing set is caught as soon as another
            // chain covers the entry's round.
            let mut chains: Vec<_> = chains
                .iter()
                .filter_map(|chain| {
                    let (first, last) = (chain.first()?.round, chain.last()?.round);
                    Some(
                        truth
                            .iter()
                            .filter(|e| (first..=last).contains(&e.round))
                            .cloned()
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            assert!(chains_agree(&chains), "seed {seed}: {chains:?}");
            if chains.len() >= 2 {
                let victim = rng.gen_range(0..chains.len());
                let at = rng.gen_range(0..chains[victim].len());
                let round = chains[victim][at].round;
                chains[victim][at].event += 7;
                let covered = chains.iter().enumerate().any(|(other, chain)| {
                    other != victim
                        && chain[0].round <= round
                        && round <= chain[chain.len() - 1].round
                });
                assert_eq!(chains_agree(&chains), !covered, "seed {seed}: {chains:?}");
                assert_eq!(chains_agree_pairwise(&chains), !covered, "seed {seed}");
                flipped += usize::from(covered);
            }
        }
        // The sweep reaches both verdicts often enough to mean something.
        assert!(
            agreed >= 100 && disagreed >= 200 && flipped >= 500,
            "{agreed} agreeing, {disagreed} disagreeing, {flipped} flipped"
        );
    }

    #[test]
    fn a_new_instance_is_filtered_by_the_membership_after_the_whole_inbox() {
        // `Instance(r, …)` from x, then `Absent` from x, in round r's inbox: the
        // instance started in round r runs with respect to S *after* the inbox,
        // so x's message must not reach it — while y, who turns up `Present`
        // later in the same inbox than its instance message, is heard.
        let (me, x, y) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
        let mut node = Node::founding(me);
        node.members.insert(x);
        let init = |from: NodeId, round: u64| {
            Envelope::new(
                from,
                TotalOrderMessage::Instance(round, ParallelMessage::<u64>::Init),
            )
        };
        let inbox = [
            init(x, 1),
            init(y, 1),
            Envelope::new(x, TotalOrderMessage::Absent),
            Envelope::new(y, TotalOrderMessage::Present),
        ];
        node.step(&RoundContext::new(1), Inbox::from(&inbox[..]));
        let started = node
            .window
            .slots()
            .last()
            .expect("round 1 started an instance");
        assert_eq!(started.members, BTreeSet::from([me, y]));
        let consensus = &started.slot.node;
        assert_eq!(consensus.n_v(), 1, "heard from y, not from the departed x");

        // For an outstanding instance the filter is its frozen member set: y was
        // not in S when round 1's instance started in a second node, x was.
        let mut other = Node::founding(me);
        other.members.insert(x);
        other.step(&RoundContext::new(1), Inbox::default());
        let inbox = [init(x, 1), init(y, 1)];
        other.step(&RoundContext::new(2), Inbox::from(&inbox[..]));
        let consensus = &other.window.slots()[0].slot.node;
        assert_eq!(consensus.n_v(), 1, "heard from x, not from the stranger y");
    }

    #[test]
    fn finality_rule_matches_the_paper_formula() {
        // |S| = 4: final once r - r' > 12, i.e. age ≥ 13.
        assert!(!TotalOrderNode::<u64>::is_final(13, 1, 4));
        assert!(TotalOrderNode::<u64>::is_final(14, 1, 4));
        // |S| = 5: 5·5/2 + 2 = 14.5, so age ≥ 15.
        assert!(!TotalOrderNode::<u64>::is_final(15, 1, 5));
        assert!(TotalOrderNode::<u64>::is_final(16, 1, 5));
    }

    #[test]
    fn joining_node_adopts_round_and_membership() {
        let mut engine = SyncEngine::new(founders(4, 3), SilentAdversary, vec![]);
        engine.run_rounds(10).unwrap();
        let joiner_id = NodeId::new(999_983);
        engine.add_node(TotalOrderNode::joining(joiner_id)).unwrap();
        engine.run_rounds(6).unwrap();
        let joiner = engine.node(joiner_id).unwrap();
        assert!(joiner.is_joined());
        assert_eq!(
            joiner.members().len(),
            5,
            "the joiner learns every acking member plus itself"
        );
        // The joiner's round tracks the founders' round (they are one step ahead at
        // most, depending on when the acks were processed).
        let founder_round = engine.nodes()[0].round();
        assert!(founder_round.abs_diff(joiner.round()) <= 1);
        // Founders learned about the joiner.
        assert!(engine.nodes()[0].members().contains(&joiner_id));
    }

    #[test]
    fn leaving_node_is_removed_from_membership() {
        let mut engine = SyncEngine::new(founders(5, 4), SilentAdversary, vec![]);
        engine.run_rounds(5).unwrap();
        let leaver = engine.correct_ids()[4];
        engine
            .nodes_mut()
            .iter_mut()
            .find(|n| n.id() == leaver)
            .unwrap()
            .announce_leave();
        engine.run_rounds(3).unwrap();
        for node in engine.nodes() {
            if node.id() != leaver {
                assert!(
                    !node.members().contains(&leaver),
                    "absent node must be dropped from S"
                );
            }
        }
    }

    #[test]
    fn submitted_events_appear_in_the_final_chain() {
        let mut engine = SyncEngine::new(founders(4, 5), SilentAdversary, vec![]);
        engine.nodes_mut()[2].submit_event(777);
        engine.run_rounds(40).unwrap();
        let chain = engine.nodes()[0].chain();
        assert!(
            chain.iter().any(|e| e.event == 777),
            "an event submitted by a correct node must eventually be ordered: {chain:?}"
        );
        assert_chain_prefix(
            &engine
                .nodes()
                .iter()
                .map(|n| n.chain().to_vec())
                .collect::<Vec<_>>(),
        );
    }
}
