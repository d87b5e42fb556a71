//! Parallel consensus (Section X): agreeing on every pair submitted by a correct node.
//!
//! [`ParallelConsensus`] is the [`Protocol`] that multiplexes any number of
//! [`EarlyConsensus`] instances — one per submitted pair identifier — over a single
//! sequence of rounds. All instances share the two initialisation rounds (membership
//! freeze) and the rotor-coordinator; a node starts an instance either because it has
//! the pair as input, or lazily when it first hears `id:input`, `id:prefer` or
//! `id:strongprefer` during the first phase (later sightings are discarded, per
//! Algorithm 5's reception rules).
//!
//! Guarantees (Theorem 5), checked by the tests below and experiment E8:
//!
//! * **Validity** — a pair input at *every* correct node is output by every correct node;
//! * **Agreement** — if any correct node outputs `(id, x)`, every correct node does;
//! * **Termination** — every correct node outputs a (possibly empty) set of pairs in a
//!   finite number of rounds.
//!
//! A pair submitted by only *some* correct nodes may or may not be output — but it is
//! output consistently.
//!
//! The protocol only ever reads who sent a message and what the message says, so
//! the borrowed [`Inbox`] view [`Protocol::step`] takes is all it needs: the engine
//! hands it envelopes read in place, total order (Algorithm 6) feeds it borrows out
//! of its own wire format — the same entry point, the messages staying wherever
//! they arrived. Votes and tallies borrow the opinions they count — a value is
//! cloned only where the node keeps or sends it. A resolve step whose outcome is
//! already fixed reads nothing (`ParallelConsensus::reads_inbox`), and total
//! order routes nothing to it.

use std::collections::BTreeMap;

use uba_simnet::{Inbox, NodeId, Outgoing, Protocol, RoundContext};

use crate::consensus::PhaseStep;
use crate::early_consensus::{EarlyConsensus, InstanceId, InstanceVote, ParallelMessage};
use crate::membership::{Rank, SenderTracker};
use crate::rotor::{EchoVotes, RotorMessage, RotorState};
use crate::value::Opinion;

/// The output of a parallel consensus node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParallelDecision<V> {
    /// The agreed `(identifier, opinion)` pairs (⊥ decisions are omitted).
    pub pairs: BTreeMap<InstanceId, V>,
    /// The phase in which the node terminated.
    pub phase: u64,
    /// The network round in which the node terminated.
    pub round: u64,
}

/// One round's votes per instance, in arrival order.
type InstanceVotes<'a, V> = BTreeMap<InstanceId, Vec<(Rank, InstanceVote<'a, V>)>>;

/// A node running the parallel consensus algorithm.
#[derive(Clone, Debug)]
pub struct ParallelConsensus<V: Opinion> {
    id: NodeId,
    /// Input pairs handed to the node at construction.
    inputs: BTreeMap<InstanceId, V>,
    senders: SenderTracker,
    rotor: RotorState<u8>,
    /// Rotor echoes received from members since the last rotor round; created at
    /// the first echo, reused for every later rotor round, released with the decision.
    rotor_echoes: Option<Box<EchoVotes>>,
    instances: BTreeMap<InstanceId, EarlyConsensus<V>>,
    phase: u64,
    phase_coordinator: Option<NodeId>,
    decision: Option<ParallelDecision<V>>,
}

impl<V: Opinion> ParallelConsensus<V> {
    /// Creates a node with a set of `(identifier, opinion)` input pairs.
    pub fn new(id: NodeId, inputs: impl IntoIterator<Item = (InstanceId, V)>) -> Self {
        ParallelConsensus {
            id,
            inputs: inputs.into_iter().collect(),
            senders: SenderTracker::new(),
            rotor: RotorState::new(),
            rotor_echoes: None,
            instances: BTreeMap::new(),
            phase: 0,
            phase_coordinator: None,
            decision: None,
        }
    }

    /// The node's input pairs.
    pub fn inputs(&self) -> &BTreeMap<InstanceId, V> {
        &self.inputs
    }

    /// The frozen membership size `n_v`.
    pub fn n_v(&self) -> usize {
        self.senders.n_v()
    }

    /// The instances this node is currently running, keyed by identifier.
    pub fn instances(&self) -> &BTreeMap<InstanceId, EarlyConsensus<V>> {
        &self.instances
    }

    /// The decision, if the node has terminated.
    pub fn decision(&self) -> Option<&ParallelDecision<V>> {
        self.decision.as_ref()
    }

    /// Moves the decision out, for a caller that drops the node next.
    pub(crate) fn take_decision(&mut self) -> Option<ParallelDecision<V>> {
        self.decision.take()
    }

    /// Whether the step at (local) `round` reads its inbox: not once the node
    /// has terminated, nor at a resolve step whose outcome is already fixed —
    /// the roster is frozen, so the inbox cannot move `n_v`, and every instance
    /// has decided or stashed a strong-prefer plurality meeting `2n_v/3`. Then
    /// every instance decides and the node terminates, discarding all the inbox
    /// could feed: rotor echoes and the coordinator's opinions.
    pub(crate) fn reads_inbox(&self, round: u64) -> bool {
        let n_v = self.senders.n_v();
        let fixed = PhaseStep::from_round(round) == Some(PhaseStep::Resolve)
            && self.senders.is_frozen()
            && self.instances.values().all(|i| i.resolve_is_fixed(n_v));
        self.decision.is_none() && !fixed
    }

    /// Sorts one round's inbox in a single pass, in arrival order: rotor echoes go
    /// to the echo votes, the coordinator's opinions (resolve step) and the votes of
    /// the kind this phase step expects are grouped per instance — as **borrows**
    /// of the messages that carry them — and instances for identifiers first heard
    /// now are spawned (first phase only). Senders that did not count towards
    /// `n_v` are skipped.
    fn sort_inbox<'a>(
        &mut self,
        inbox: Inbox<'a, ParallelMessage<V>>,
        step: PhaseStep,
    ) -> (InstanceVotes<'a, V>, BTreeMap<InstanceId, Option<&'a V>>) {
        let mut votes = InstanceVotes::new();
        let mut opinions = BTreeMap::new();
        for (from, member, message) in self.senders.ranked(inbox) {
            let (instance, vote) = match (message, step) {
                (ParallelMessage::Echo(candidate), _) => {
                    self.rotor_echoes
                        .get_or_insert_with(Box::default)
                        .insert(*candidate, member);
                    continue;
                }
                (ParallelMessage::Input(id, v), PhaseStep::Prefer) => {
                    (*id, InstanceVote::Value(Some(v)))
                }
                (ParallelMessage::Prefer(id, v), PhaseStep::StrongPrefer)
                | (ParallelMessage::StrongPrefer(id, v), PhaseStep::Rotor) => {
                    (*id, InstanceVote::Value(v.as_ref()))
                }
                (ParallelMessage::NoPreference(id), PhaseStep::StrongPrefer)
                | (ParallelMessage::NoStrongPreference(id), PhaseStep::Rotor) => {
                    (*id, InstanceVote::Abstain)
                }
                (ParallelMessage::Opinion(id, v), PhaseStep::Resolve) => {
                    // Last writer wins, as the coordinator's final word.
                    if self.phase_coordinator == Some(from) {
                        opinions.insert(*id, v.as_ref());
                    }
                    continue;
                }
                _ => continue,
            };
            // Lazy instance creation: only during the first phase, and only on a real
            // vote (abstentions never introduce a new identifier).
            if !self.instances.contains_key(&instance) {
                if self.phase == 1 && matches!(vote, InstanceVote::Value(_)) {
                    self.instances
                        .insert(instance, EarlyConsensus::without_input(instance));
                } else {
                    continue;
                }
            }
            votes.entry(instance).or_default().push((member, vote));
        }
        (votes, opinions)
    }

    /// One round of the algorithm: the messages to broadcast, given the round's
    /// `(sender, message)` pairs in arrival order.
    fn round(
        &mut self,
        round: u64,
        inbox: Inbox<'_, ParallelMessage<V>>,
    ) -> Vec<ParallelMessage<V>> {
        if self.decision.is_some() {
            return Vec::new();
        }
        self.senders.record_inbox(inbox);
        match round {
            1 => return vec![ParallelMessage::Init],
            2 => {
                return inbox
                    .iter()
                    .filter(|(_, message)| matches!(message, ParallelMessage::Init))
                    .map(|(from, _)| ParallelMessage::Echo(from))
                    .collect()
            }
            3 => self.senders.freeze(),
            _ => {}
        }
        let step = PhaseStep::from_round(round).expect("round ≥ 3");
        let inbox = if self.reads_inbox(round) {
            inbox
        } else {
            Inbox::default()
        };
        let (votes, opinions) = self.sort_inbox(inbox, step);
        let votes_of = |instance: &InstanceId| votes.get(instance).map_or(&[][..], Vec::as_slice);
        let n_v = self.senders.n_v();
        let phase = self.phase;

        match step {
            PhaseStep::Input => {
                self.phase += 1;
                self.phase_coordinator = None;
                let phase = self.phase;
                if phase == 1 {
                    // Start an instance for every input pair.
                    for (&instance, value) in &self.inputs {
                        self.instances.insert(
                            instance,
                            EarlyConsensus::with_input(instance, value.clone()),
                        );
                    }
                }
                self.instances
                    .values_mut()
                    .filter_map(|i| i.step_input(phase))
                    .collect()
            }
            PhaseStep::Prefer => self
                .instances
                .iter_mut()
                .filter(|(_, state)| !state.is_decided())
                .map(|(id, state)| state.step_prefer(votes_of(id), &self.senders, n_v, phase))
                .collect(),
            PhaseStep::StrongPrefer => self
                .instances
                .iter_mut()
                .filter(|(_, state)| !state.is_decided())
                .map(|(id, state)| state.step_strong(votes_of(id), &self.senders, n_v, phase))
                .collect(),
            PhaseStep::Rotor => {
                for (id, state) in self.instances.iter_mut() {
                    if !state.is_decided() {
                        state.step_rotor_stash(votes_of(id), &self.senders, phase);
                    }
                }
                // One shared rotor round for all instances, over the echoes
                // received since the previous one.
                let echoes = self.rotor_echoes.get_or_insert_with(Box::default);
                let rotor_out = self
                    .rotor
                    .loop_round(self.id, &0, n_v, echoes.counts(), None);
                echoes.clear();
                self.phase_coordinator = self.rotor.current_coordinator();
                let mut out: Vec<ParallelMessage<V>> = rotor_out
                    .into_iter()
                    .filter_map(|m| match m {
                        RotorMessage::Init => Some(ParallelMessage::Init),
                        RotorMessage::Echo(p) => Some(ParallelMessage::Echo(p)),
                        // The per-instance opinions below replace the scalar one.
                        RotorMessage::Opinion(_) => None,
                    })
                    .collect();
                // If this node is the coordinator, distribute its opinion for
                // every live instance.
                if self.phase_coordinator == Some(self.id) {
                    for (instance, state) in &self.instances {
                        if !state.is_decided() {
                            out.push(ParallelMessage::Opinion(*instance, state.opinion().clone()));
                        }
                    }
                }
                out
            }
            PhaseStep::Resolve => {
                for (instance, state) in self.instances.iter_mut() {
                    state.step_resolve(opinions.get(instance).copied(), n_v);
                }
                // The instance set is final after the first phase's rotor round,
                // so the node may terminate at any resolve step at which every
                // instance has decided.
                if self.instances.values().all(|i| i.is_decided()) {
                    let pairs = self
                        .instances
                        .values()
                        .filter_map(|i| i.output_pair())
                        .collect();
                    self.decision = Some(ParallelDecision {
                        pairs,
                        phase,
                        round,
                    });
                    // A decided node never reads a vote again.
                    self.rotor_echoes = None;
                }
                Vec::new()
            }
        }
    }
}

impl<V: Opinion> Protocol for ParallelConsensus<V> {
    type Payload = ParallelMessage<V>;
    type Output = ParallelDecision<V>;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: Inbox<'_, ParallelMessage<V>>,
    ) -> Vec<Outgoing<ParallelMessage<V>>> {
        self.round(ctx.round, inbox)
            .into_iter()
            .map(Outgoing::broadcast)
            .collect()
    }

    fn output(&self) -> Option<ParallelDecision<V>> {
        self.decision.clone()
    }

    /// Reads the decision in place: the default would clone it.
    fn terminated(&self) -> bool {
        self.decision.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::adversary::SilentAdversary;
    use uba_simnet::{AdversaryView, Directed, Envelope, FnAdversary, IdSpace, SyncEngine};

    type Msg = ParallelMessage<u64>;

    fn run<A: uba_simnet::Adversary<Msg>>(
        inputs: Vec<Vec<(InstanceId, u64)>>,
        byzantine: usize,
        adversary: A,
        seed: u64,
    ) -> Vec<ParallelDecision<u64>> {
        let ids = IdSpace::default().generate(inputs.len() + byzantine, seed);
        let byz: Vec<NodeId> = ids[inputs.len()..].to_vec();
        let nodes: Vec<_> = ids[..inputs.len()]
            .iter()
            .zip(inputs)
            .map(|(&id, pairs)| ParallelConsensus::new(id, pairs))
            .collect();
        let mut engine = SyncEngine::new(nodes, adversary, byz);
        engine
            .run_to_termination(500)
            .expect("parallel consensus terminates");
        let decisions: Vec<ParallelDecision<u64>> = engine
            .outputs()
            .into_iter()
            .map(|(_, o)| o.unwrap())
            .collect();
        // Agreement: all output pair sets are identical.
        for d in &decisions {
            assert_eq!(
                d.pairs, decisions[0].pairs,
                "agreement on the output pair set"
            );
        }
        decisions
    }

    #[test]
    fn pairs_input_everywhere_are_output_everywhere() {
        let inputs = vec![vec![(1, 10), (2, 20)]; 5];
        let decisions = run(inputs, 0, SilentAdversary, 1);
        assert_eq!(decisions[0].pairs, BTreeMap::from([(1, 10), (2, 20)]));
        assert_eq!(
            decisions[0].phase, 1,
            "unanimous pairs decide in the first phase"
        );
    }

    #[test]
    fn pairs_known_to_some_nodes_are_output_consistently() {
        // Pair 7 is input at three of the five nodes; pair 9 at one node only.
        let inputs = vec![
            vec![(7, 70)],
            vec![(7, 70)],
            vec![(7, 70), (9, 90)],
            vec![],
            vec![],
        ];
        let decisions = run(inputs, 0, SilentAdversary, 2);
        // Whatever the outcome for 7 and 9, it is consistent (checked inside `run`);
        // additionally no pair may be invented out of thin air.
        for id in decisions[0].pairs.keys() {
            assert!([7, 9].contains(id));
        }
    }

    #[test]
    fn byzantine_only_identifiers_are_never_output() {
        // The adversary floods a fresh identifier (555) that no correct node has.
        let adversary = FnAdversary::new(move |view: &AdversaryView<'_, Msg>| {
            let mut out = Vec::new();
            for &from in view.byzantine_ids {
                for &to in view.correct_ids {
                    let payload = match view.round {
                        1 => ParallelMessage::Init,
                        4 => ParallelMessage::Input(555, 5),
                        5 => ParallelMessage::Prefer(555, Some(5)),
                        6 => ParallelMessage::StrongPrefer(555, Some(5)),
                        _ => continue,
                    };
                    out.push(Directed::new(from, to, payload));
                }
            }
            out
        });
        let inputs = vec![vec![(1, 11)]; 7];
        let decisions = run(inputs, 2, adversary, 3);
        assert!(decisions[0].pairs.contains_key(&1));
        assert!(
            !decisions[0].pairs.contains_key(&555),
            "an identifier submitted only by Byzantine nodes must not be output"
        );
    }

    #[test]
    fn nodes_with_no_inputs_terminate_with_an_empty_set() {
        let decisions = run(vec![vec![]; 4], 0, SilentAdversary, 4);
        assert!(decisions.iter().all(|d| d.pairs.is_empty()));
    }

    #[test]
    fn many_concurrent_instances_all_decide() {
        let pairs: Vec<(InstanceId, u64)> = (0..16).map(|i| (i, i * 100)).collect();
        let inputs = vec![pairs.clone(); 6];
        let decisions = run(inputs, 0, SilentAdversary, 5);
        assert_eq!(decisions[0].pairs.len(), 16);
        for (id, value) in &decisions[0].pairs {
            assert_eq!(*value, id * 100);
        }
    }

    #[test]
    fn a_scripted_inbox_reaches_the_reception_corners() {
        // Two copies of one node, one stepped over delivered envelopes, the
        // other over borrows of the same messages — the two backings of the
        // one `Inbox` view — through an inbox script that reaches the corners:
        // a non-member (node 9 is first heard after the freeze), one sender
        // voting two values and one value twice, an unknown identifier,
        // abstentions, and the coordinator's opinion overwritten by a later one
        // in the same inbox.
        let ids: Vec<NodeId> = [1, 2, 3, 4].map(NodeId::new).to_vec();
        let outsider = NodeId::new(9);
        let from_all = |message: fn(NodeId) -> Msg| -> Vec<(NodeId, Msg)> {
            ids.iter().map(|&id| (id, message(id))).collect()
        };
        let mut script: Vec<Vec<(NodeId, Msg)>> = vec![
            vec![],
            from_all(|_| ParallelMessage::Init),
            ids.iter()
                .flat_map(|&from| ids.iter().map(move |&p| (from, ParallelMessage::Echo(p))))
                .collect(),
        ];
        let mut prefer_round = from_all(|_| ParallelMessage::Input(1, 10));
        prefer_round.extend([
            (ids[1], ParallelMessage::Input(1, 10)),
            (ids[1], ParallelMessage::Input(1, 11)),
            (ids[2], ParallelMessage::Input(5, 50)),
            (outsider, ParallelMessage::Input(6, 60)),
        ]);
        script.push(prefer_round);
        let mut strong_round = from_all(|_| ParallelMessage::Prefer(1, Some(10)));
        strong_round.extend([
            (ids[3], ParallelMessage::NoPreference(5)),
            (outsider, ParallelMessage::Prefer(1, Some(11))),
        ]);
        script.push(strong_round);
        let mut rotor_round = from_all(|_| ParallelMessage::NoStrongPreference(1));
        rotor_round.push((ids[0], ParallelMessage::StrongPrefer(5, None)));
        script.push(rotor_round);
        let mut resolve_round = from_all(ParallelMessage::Echo);
        resolve_round.extend([
            (ids[0], ParallelMessage::Opinion(1, Some(11))),
            (ids[0], ParallelMessage::Opinion(1, Some(12))),
            (outsider, ParallelMessage::Opinion(1, Some(13))),
        ]);
        script.push(resolve_round);
        script.push(vec![]);

        let mut by_envelope = ParallelConsensus::new(ids[0], vec![(1, 10u64)]);
        let mut by_borrow = by_envelope.clone();
        for (index, messages) in script.iter().enumerate() {
            let round = index as u64 + 1;
            let envelopes: Vec<Envelope<Msg>> = messages
                .iter()
                .map(|(from, message)| Envelope::new(*from, message.clone()))
                .collect();
            let borrowed: Vec<(NodeId, &Msg)> = messages
                .iter()
                .map(|(from, message)| (*from, message))
                .collect();
            let ctx = RoundContext::new(round);
            assert_eq!(
                by_envelope.step(&ctx, Inbox::from(&envelopes[..])),
                by_borrow.step(&ctx, Inbox::from(&borrowed[..])),
                "round {round}"
            );
            assert_eq!(
                format!("{by_envelope:?}"),
                format!("{by_borrow:?}"),
                "state after round {round}"
            );
        }
        // The script did reach those corners: the outsider never counted, the
        // unknown identifier 5 was spawned (and 6, the outsider's, was not), and
        // the coordinator's last word was the one adopted.
        assert_eq!(by_borrow.n_v(), 4);
        assert_eq!(
            by_borrow.instances().keys().copied().collect::<Vec<_>>(),
            [1, 5]
        );
        assert_eq!(by_borrow.instances()[&1].opinion(), &Some(12));
    }

    #[test]
    fn accessors_expose_inputs_and_state() {
        let node = ParallelConsensus::new(NodeId::new(1), vec![(3, 30u64)]);
        assert_eq!(node.inputs().len(), 1);
        assert_eq!(node.n_v(), 0);
        assert!(node.instances().is_empty());
        assert!(node.decision().is_none());
    }

    /// Lock-steps fault-free nodes, every broadcast reaching every node, and
    /// returns the inbox each round delivered (`inboxes[r - 1]` for round `r`,
    /// one more than `rounds` — the next round's).
    fn lockstep(nodes: &mut [ParallelConsensus<u64>], rounds: u64) -> Vec<Vec<Envelope<Msg>>> {
        let mut inboxes = vec![Vec::new()];
        for round in 1..=rounds {
            let inbox = inboxes.last().expect("the round's inbox");
            let mut next = Vec::new();
            for node in nodes.iter_mut() {
                let sent = node.step(&RoundContext::new(round), Inbox::from(&inbox[..]));
                next.extend(sent.into_iter().map(|m| Envelope::new(node.id, m.payload)));
            }
            inboxes.push(next);
        }
        inboxes
    }

    /// An instance whose rotor round stashed `support` strong-prefers for 10 —
    /// from the first `support` members; the rest abstained.
    fn stashed(
        node: &ParallelConsensus<u64>,
        instance: InstanceId,
        support: usize,
    ) -> EarlyConsensus<u64> {
        let mut state = EarlyConsensus::with_input(instance, 10);
        let votes: Vec<(Rank, InstanceVote<'_, u64>)> = node
            .senders
            .ranks()
            .enumerate()
            .map(|(k, rank)| match k < support {
                true => (rank, InstanceVote::Value(Some(&10))),
                false => (rank, InstanceVote::Abstain),
            })
            .collect();
        state.step_rotor_stash(&votes, &node.senders, 1);
        state
    }

    #[test]
    fn a_resolve_step_whose_outcome_is_fixed_reads_nothing() {
        let ids: Vec<NodeId> = [11, 12, 13, 14].map(NodeId::new).to_vec();
        let mut nodes: Vec<ParallelConsensus<u64>> = ids
            .iter()
            .map(|&id| ParallelConsensus::new(id, vec![(1, 10), (2, 20)]))
            .collect();
        let inboxes = lockstep(&mut nodes, 6);
        let real = &inboxes[6];
        let node = &nodes[0];
        // Round 7 resolves phase 1: both instances stashed four of four.
        assert!(node.reads_inbox(6) && !node.reads_inbox(7));
        assert!(real
            .iter()
            .any(|e| matches!(*e.payload, ParallelMessage::Echo(_))));

        let coordinator = node.phase_coordinator.expect("a coordinator");
        let bystander = *ids.iter().find(|&&id| id != coordinator).unwrap();
        let stranger = NodeId::new(99);
        let adversarial = [
            Envelope::new(bystander, ParallelMessage::Echo(stranger)),
            Envelope::new(stranger, ParallelMessage::Echo(stranger)),
            Envelope::new(coordinator, ParallelMessage::Opinion(1, Some(11))),
            Envelope::new(coordinator, ParallelMessage::Opinion(2, None)),
            Envelope::new(bystander, ParallelMessage::Opinion(1, Some(12))),
            Envelope::new(stranger, ParallelMessage::Opinion(2, Some(13))),
        ];
        let ctx = RoundContext::new(7);
        let stepped: Vec<(Vec<Outgoing<Msg>>, ParallelConsensus<u64>)> =
            [&real[..], &[][..], &adversarial[..]]
                .into_iter()
                .map(|inbox| {
                    let mut clone = node.clone();
                    (clone.step(&ctx, Inbox::from(inbox)), clone)
                })
                .collect();
        let (sent, decided) = &stepped[0];
        assert_eq!(
            decided.decision().map(|d| d.pairs.clone()),
            Some(BTreeMap::from([(1, 10), (2, 20)]))
        );
        for (other_sent, other) in &stepped[1..] {
            assert_eq!(other_sent, sent);
            assert_eq!(other.decision(), decided.decision());
            assert_eq!(other.output(), decided.output());
            assert_eq!(format!("{other:?}"), format!("{decided:?}"));
        }
        assert!(!decided.reads_inbox(8), "a decided node reads nothing");

        // A further instance stashed at four of four keeps the step fixed; one
        // below 2n_v/3, or one with nothing stashed, makes it read.
        let with = |instance: EarlyConsensus<u64>| {
            let mut clone = node.clone();
            clone.instances.insert(instance.instance(), instance);
            clone.reads_inbox(7)
        };
        assert!(!with(stashed(node, 3, 4)));
        assert!(with(stashed(node, 3, 2)), "plurality below 2n_v/3");
        assert!(with(EarlyConsensus::without_input(3)), "nothing stashed");

        // A node whose first step comes after round 3 never freezes its roster,
        // so its inbox can still grow n_v: it reads, although every instance it
        // runs (none) is fixed.
        let mut late = ParallelConsensus::new(NodeId::new(15), vec![(1, 10)]);
        for round in 4..=6 {
            late.step(
                &RoundContext::new(round),
                Inbox::from(&inboxes[round as usize - 1][..]),
            );
        }
        assert!(late.instances.is_empty() && !late.senders.is_frozen());
        assert!(late.reads_inbox(7));
        late.senders.freeze();
        assert!(!late.reads_inbox(7), "frozen, the same node would skip");
    }
}
