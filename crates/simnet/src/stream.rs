//! Multi-instance pipelined agreement streams.
//!
//! A single scenario runs *one* agreement; a serving workload runs a **stream**
//! of them, overlapping in time so the next instance starts before the previous
//! one decides. This module provides the generic machinery for that shape:
//!
//! * [`Window`] — a node's undecided instances of an inner [`Protocol`], in
//!   tag order. Each round it routes every tagged entry of the inbox to the
//!   instance it belongs to, steps every started instance at its local round
//!   and hands each one that terminated back to its owner. [`MuxNode`] and
//!   `uba-core`'s total-order node are both built on it; a [`Slot`] is how an
//!   owner tells the window whom an instance hears and when it reads.
//! * [`MuxNode`] — a node that multiplexes many instances of an inner
//!   [`Protocol`] over one wire. Every payload is tagged with the instance it
//!   belongs to (`(instance, inner)`), so a single engine round carries traffic
//!   for every in-flight instance and the tag travels through
//!   [`Envelope`](crate::Envelope) exactly like any other payload.
//! * [`StreamDriver`] — a [`ProtocolFactory`] that builds one inner factory per
//!   instance, staggers their start rounds (the pipeline), and records a
//!   [`StreamSection`] into the [`RunReport`] with per-instance decisions,
//!   decide rounds and batch sizes for the checker's cross-instance oracle.
//!
//! Per-round cost is proportional to the **active window**, not the horizon:
//! each step makes one pass over its inbox, pushing every inner payload, as a
//! borrowed `(sender, &inner)` pair, onto the buffer of the started instance
//! it belongs to; every instance is stepped over its buffer (an [`Inbox`]
//! view — no payload clone, no handle, no envelope), and decided instances
//! leave the window, so [`MuxNode::output`] and [`MuxNode::terminated`] are
//! O(1) counter reads and a long-finished stream prefix costs nothing per
//! round. Traffic addressed to a retired tag is dropped by the window and
//! handed to nobody (counted in [`MuxWork`]); the engine prunes nothing.
//! `docs/STREAMING.md` documents the cost model.
//!
//! The batching rule lives one layer up (see `docs/STREAMING.md`): client
//! requests are packed into one batch per (instance, proposer), so each
//! broadcast is **one** [`Shared`](crate::shared::Shared) arena payload no
//! matter how many requests it carries — per-delivery cost is paid once per
//! batch, not once per request.
//!
//! Streams model the fault-free serving path: the driver maps every adversary
//! kind to the silent strategy and stream scenarios run with `byzantine(0)`.
//! Under faults, per-instance safety is already covered by the single-shot
//! scenarios; the stream exists to measure pipelined throughput.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::adversary::SilentAdversary;
use crate::attack::AttackBehavior;
use crate::id::NodeId;
use crate::message::{Inbox, Outgoing};
use crate::node::{Protocol, RoundContext};
use crate::sim::{
    scripted_attack_behavior, BuildContext, NamedAdversary, ProtocolFactory, RunReport,
};

/// One inner-protocol instance inside a [`MuxNode`].
#[derive(Clone, Debug)]
pub struct InstanceSlot<N> {
    /// The tag carried by every payload of this instance.
    pub tag: u64,
    /// Global round in which the instance starts (its local round 1).
    pub start_round: u64,
    /// The inner protocol node.
    pub node: N,
}

/// The compact record a decided slot retires into: everything the stream
/// report needs, without the inner node's state or a place in the scan path.
#[derive(Clone, Debug)]
pub struct CompletedInstance<N: Protocol> {
    /// The tag the instance carried on the wire.
    pub tag: u64,
    /// Global round in which the instance started.
    pub start_round: u64,
    /// Global round in which this node's instance terminated (`None` only for
    /// slots already terminated when the mux was built, which never step).
    pub decided_round: Option<u64>,
    /// The instance's final output.
    pub output: Option<N::Output>,
}

/// Per-node demux work counters, maintained by the [`Window`] that both
/// [`MuxNode`] and `uba-core`'s total-order node step. Measurement only —
/// these never enter a [`RunReport`], so they cannot perturb the
/// byte-identity pins; the window-sweep benchmark reads them to prove per-round
/// cost tracks the active window rather than the horizon.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MuxWork {
    /// Messages examined while routing each step's inbox by tag (exactly the
    /// inbox sizes summed over steps — every message is counted once).
    pub envelopes_indexed: u64,
    /// Inner-instance steps executed (started slots × rounds they were live).
    pub slot_steps: u64,
    /// Tagged messages dropped because their tag matched no slot in the window
    /// (instance already retired, or never scheduled or started here) — at
    /// zero payload clones.
    pub dropped_retired: u64,
}

/// An instance a [`Window`] holds, and the two questions the window asks it
/// while routing a round's inbox. The defaults hear every sender and read
/// every round, which is what a [`MuxNode`]'s [`InstanceSlot`]s answer.
pub trait Slot {
    /// The instance's protocol.
    type Node: Protocol;

    /// The instance's tag, start round and node.
    fn slot(&self) -> &InstanceSlot<Self::Node>;

    /// Mutable access to the same.
    fn slot_mut(&mut self) -> &mut InstanceSlot<Self::Node>;

    /// Whether a message from `from` reaches the instance; one that does not
    /// is dropped silently.
    fn hears(&self, _from: NodeId) -> bool {
        true
    }

    /// Whether the instance's step at `local_round` reads its inbox. One that
    /// does not still steps, over an empty inbox, and its traffic is dropped
    /// silently.
    fn reads_inbox(&self, _local_round: u64) -> bool {
        true
    }
}

impl<N: Protocol> Slot for InstanceSlot<N> {
    type Node = N;

    fn slot(&self) -> &Self {
        self
    }

    fn slot_mut(&mut self) -> &mut Self {
        self
    }
}

/// The payload type of the instances a window of `S` holds.
type Inner<S> = <<S as Slot>::Node as Protocol>::Payload;

/// A node's undecided instances, in tag order, and the one demux that feeds
/// them.
///
/// Each [`Window::step`] makes one pass over the inbox. A tagged entry of a
/// started instance is pushed, as a borrowed `(sender, &inner)` pair, onto
/// that instance's buffer for the round — found through a table indexed by
/// `tag − lowest started tag`, so tags are expected to be dense (the stream
/// driver numbers instances 0, 1, …; total order tags them by round). Every
/// started instance is then stepped at its local round (`round − start + 1`)
/// over its buffer, and the instances that terminated leave the window.
/// What arrives for a tag the window does not hold is counted in
/// [`MuxWork::dropped_retired`], unless the tag is scheduled here and has not
/// started yet: nobody sends for such an instance, so that is dropped silently.
#[derive(Clone, Debug)]
pub struct Window<S> {
    slots: Vec<S>,
    work: MuxWork,
}

impl<S: Slot> Window<S> {
    /// A window over `slots`, whose tags must be strictly increasing.
    pub fn new(slots: Vec<S>) -> Self {
        let mut window = Window {
            slots: Vec::with_capacity(slots.len()),
            work: MuxWork::default(),
        };
        slots.into_iter().for_each(|slot| window.push(slot));
        window
    }

    /// The undecided slots, started or not, in tag order.
    pub fn slots(&self) -> &[S] {
        &self.slots
    }

    /// The demux work counters accumulated so far.
    pub fn work(&self) -> MuxWork {
        self.work
    }

    /// Appends a slot; its tag must exceed every tag the window holds.
    pub fn push(&mut self, slot: S) {
        assert!(
            self.slots
                .last()
                .is_none_or(|last| last.slot().tag < slot.slot().tag),
            "window slots must be in strictly increasing tag order"
        );
        self.slots.push(slot);
    }

    /// One step at global `round`: routes the entries of `inbox` that `untag`
    /// maps to `(tag, inner)`, steps every started slot, appends what the
    /// slots send — wrapped by `retag` — to `out`, and returns the slots that
    /// terminated, in tag order. Entries `untag` maps to `None` are only
    /// counted in [`MuxWork::envelopes_indexed`].
    pub fn step<'a, P>(
        &mut self,
        round: u64,
        inbox: Inbox<'a, P>,
        untag: impl Fn(&'a P) -> Option<(u64, &'a Inner<S>)>,
        retag: impl Fn(u64, Inner<S>) -> P,
        out: &mut Vec<Outgoing<P>>,
    ) -> Vec<S>
    where
        Inner<S>: 'a,
    {
        self.work.envelopes_indexed += inbox.len() as u64;
        // The started slots: their index and, if this step reads, their buffer.
        let mut started = Vec::new();
        for (index, slot) in self.slots.iter().enumerate() {
            let start = slot.slot().start_round;
            if start <= round {
                started.push((index, slot.reads_inbox(round - start + 1).then(Vec::new)));
            }
        }
        let tag_of = |&(index, _): &(usize, _)| self.slots[index].slot().tag;
        let base = started.first().map_or(0, tag_of);
        let span = started.last().map_or(0, |last| tag_of(last) - base + 1);
        let mut route: Vec<Option<usize>> = vec![None; span as usize];
        for (at, entry) in started.iter().enumerate() {
            route[(tag_of(entry) - base) as usize] = Some(at);
        }

        for (from, payload) in inbox.iter() {
            let Some((tag, inner)) = untag(payload) else {
                continue;
            };
            let routed = tag
                .checked_sub(base)
                .and_then(|offset| route.get(usize::try_from(offset).ok()?))
                .copied()
                .flatten();
            match routed {
                Some(at) => {
                    let (index, buffer) = &mut started[at];
                    if let Some(buffer) = buffer {
                        if self.slots[*index].hears(from) {
                            buffer.push((from, inner));
                        }
                    }
                }
                // Every started slot is routed, so a scheduled tag found here
                // has not started yet.
                None => {
                    let scheduled = self
                        .slots
                        .binary_search_by_key(&tag, |slot| slot.slot().tag)
                        .is_ok();
                    if !scheduled {
                        self.work.dropped_retired += 1;
                    }
                }
            }
        }

        let mut terminated = false;
        for (index, buffer) in started {
            let InstanceSlot {
                tag,
                start_round,
                node,
            } = self.slots[index].slot_mut();
            self.work.slot_steps += 1;
            let local = RoundContext::new(round - *start_round + 1);
            let inbox = Inbox::from(buffer.as_deref().unwrap_or_default());
            out.extend(node.step(&local, inbox).into_iter().map(|sent| Outgoing {
                dest: sent.dest,
                payload: retag(*tag, sent.payload),
            }));
            terminated |= node.terminated();
        }
        if !terminated {
            return Vec::new();
        }
        // Order-preserving: wire traffic depends on the order slots step in.
        self.slots
            .extract_if(.., |slot| slot.slot().node.terminated())
            .collect()
    }
}

/// A node multiplexing many instances of an inner [`Protocol`] over one wire.
///
/// Payloads are `(instance_tag, inner_payload)`. The node's [`Window`] steps
/// every started-and-undecided instance with a *local* round number
/// (`global - start_round + 1`) over a borrowed (not cloned) inbox, and the
/// node retags everything the instances send. An instance whose start round
/// has not arrived yet neither sends nor receives. Decided instances are
/// retired into [`CompletedInstance`] records, and the node terminates when
/// every instance has.
#[derive(Clone, Debug)]
pub struct MuxNode<N: Protocol> {
    id: NodeId,
    window: Window<InstanceSlot<N>>,
    completed: Vec<CompletedInstance<N>>,
    total: usize,
}

impl<N: Protocol> MuxNode<N> {
    /// Builds a mux node over the given instance slots (all for the same
    /// [`NodeId`]). Tags must be strictly increasing, and dense in the sense
    /// [`Window`] describes; start rounds must be ≥ 1.
    pub fn new(id: NodeId, slots: Vec<InstanceSlot<N>>) -> Self {
        // A slot already terminated at build time never steps: it retires now,
        // with no decide round.
        let total = slots.len();
        let (done, live): (Vec<_>, Vec<_>) =
            slots.into_iter().partition(|slot| slot.node.terminated());
        MuxNode {
            id,
            window: Window::new(live),
            completed: done.into_iter().map(|slot| retire(slot, None)).collect(),
            total,
        }
    }

    /// The **live** (undecided) instance slots, started or not, in tag order.
    pub fn slots(&self) -> &[InstanceSlot<N>] {
        self.window.slots()
    }

    /// The retired instances, in retirement order.
    pub fn completed(&self) -> &[CompletedInstance<N>] {
        &self.completed
    }

    /// The demux work counters accumulated so far.
    pub fn work(&self) -> MuxWork {
        self.window.work()
    }
}

/// The record a slot retires into, decided in `decided_round`.
fn retire<N: Protocol>(slot: InstanceSlot<N>, decided_round: Option<u64>) -> CompletedInstance<N> {
    CompletedInstance {
        tag: slot.tag,
        start_round: slot.start_round,
        decided_round,
        output: slot.node.output(),
    }
}

impl<N: Protocol> Protocol for MuxNode<N> {
    type Payload = (u64, N::Payload);
    /// The number of instances that have terminated (present once all have).
    type Output = usize;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: Inbox<'_, Self::Payload>,
    ) -> Vec<Outgoing<Self::Payload>> {
        let mut outgoing = Vec::new();
        let retired = self.window.step(
            ctx.round,
            inbox,
            |(tag, inner)| Some((*tag, inner)),
            |tag, inner| (tag, inner),
            &mut outgoing,
        );
        let decided = retired
            .into_iter()
            .map(|slot| retire(slot, Some(ctx.round)));
        self.completed.extend(decided);
        outgoing
    }

    fn output(&self) -> Option<Self::Output> {
        self.terminated().then_some(self.total)
    }

    fn terminated(&self) -> bool {
        self.completed.len() == self.total
    }
}

/// How a [`StreamDriver`] renders an inner output into the per-instance
/// agreement digest recorded in the [`StreamSection`]. Two digests are equal
/// iff the instance's decision is (for the oracle's purposes) the same.
pub type OutputDigest<N> = Arc<dyn Fn(&<N as Protocol>::Output) -> String + Send + Sync>;

/// One instance scheduled on a [`StreamDriver`].
pub struct StreamInstance<F> {
    /// Global round in which the instance starts.
    pub start_round: u64,
    /// Number of client requests batched into this instance (recorded only).
    pub batch_size: usize,
    /// The factory building this instance's nodes.
    pub factory: F,
}

/// A [`ProtocolFactory`] running a pipelined stream of inner-protocol
/// instances behind [`MuxNode`]s.
///
/// Each scheduled [`StreamInstance`] gets its own inner factory; `build_nodes`
/// builds every instance's nodes and transposes them into one [`MuxNode`] per
/// participant. Instances start at their scheduled rounds and overlap freely;
/// the run stops when all of them have terminated.
///
/// Restrictions (checked where possible, documented otherwise):
/// * inner factories must not rely on `before_round` input injection — the
///   slots are scattered across mux nodes, so there is no per-instance
///   `&mut [Node]` slice to hand them (consensus-style factories, which take
///   their inputs at construction, stream fine; total-order streams batch
///   through the plan instead and need no mux);
/// * streams are fault-free: every adversary kind maps to the silent strategy.
pub struct StreamDriver<F: ProtocolFactory> {
    name: String,
    instances: Vec<StreamInstance<F>>,
    digest: OutputDigest<F::Node>,
}

impl<F: ProtocolFactory> StreamDriver<F> {
    /// Creates an empty driver. `inner_name` is the inner protocol's name; the
    /// driver reports as `stream(inner_name)`.
    pub fn new(inner_name: &str) -> Self {
        StreamDriver {
            name: format!("stream({inner_name})"),
            instances: Vec::new(),
            digest: Arc::new(|output| format!("{output:?}")),
        }
    }

    /// Replaces the agreement digest (default: the output's `Debug` rendering).
    /// Use this when the inner output carries per-node fields (e.g. a decide
    /// round) that must not count as disagreement.
    pub fn digest(mut self, digest: OutputDigest<F::Node>) -> Self {
        self.digest = digest;
        self
    }

    /// Schedules an instance. Tags are assigned in push order, starting at 0.
    pub fn push(mut self, start_round: u64, batch_size: usize, factory: F) -> Self {
        assert!(start_round >= 1, "instance start rounds are 1-based");
        self.instances.push(StreamInstance {
            start_round,
            batch_size,
            factory,
        });
        self
    }

    /// Number of scheduled instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether no instances are scheduled.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }
}

impl<F: ProtocolFactory> ProtocolFactory for StreamDriver<F> {
    type Node = MuxNode<F::Node>;

    fn protocol_name(&self) -> String {
        self.name.clone()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<Self::Node> {
        assert!(
            !self.instances.is_empty(),
            "a stream needs at least one scheduled instance"
        );
        let mut muxes: Vec<Vec<InstanceSlot<F::Node>>> =
            ctx.correct_ids.iter().map(|_| Vec::new()).collect();
        for (tag, instance) in self.instances.iter_mut().enumerate() {
            let nodes = instance.factory.build_nodes(ctx);
            assert_eq!(
                nodes.len(),
                ctx.correct_ids.len(),
                "inner factory built a different node count than the scenario"
            );
            for (participant, node) in nodes.into_iter().enumerate() {
                muxes[participant].push(InstanceSlot {
                    tag: tag as u64,
                    start_round: instance.start_round,
                    node,
                });
            }
        }
        ctx.correct_ids
            .iter()
            .zip(muxes)
            .map(|(&id, slots)| MuxNode::new(id, slots))
            .collect()
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<<Self::Node as Protocol>::Payload> {
        match behavior {
            // Streams measure the fault-free serving path; see the module docs.
            AttackBehavior::Preset(_) => NamedAdversary::new("silent", SilentAdversary),
            other => scripted_attack_behavior(self, other, ctx),
        }
    }

    fn record(&self, _ctx: &BuildContext, nodes: &[Self::Node], report: &mut RunReport) {
        // Per node, each instance's (digest, decide round), indexed by tag.
        let mut tables: Vec<Vec<(Option<String>, Option<u64>)>> = nodes
            .iter()
            .map(|node| {
                let mut table = vec![(None, None); self.instances.len()];
                for done in node.completed() {
                    let digest = done.output.as_ref().map(|o| (self.digest)(o));
                    table[done.tag as usize] = (digest, done.decided_round);
                }
                for slot in node.slots() {
                    table[slot.tag as usize].0 = slot.node.output().map(|o| (self.digest)(&o));
                }
                table
            })
            .collect();
        let mut instances = Vec::with_capacity(self.instances.len());
        for (tag, instance) in self.instances.iter().enumerate() {
            let mut outputs = Vec::with_capacity(nodes.len());
            let mut decide_rounds = Vec::with_capacity(nodes.len());
            for (node, table) in nodes.iter().zip(&mut tables) {
                let (output, decided_round) = std::mem::take(&mut table[tag]);
                outputs.push((node.id(), output));
                decide_rounds.push((node.id(), decided_round));
            }
            let digests: Vec<&String> = outputs.iter().filter_map(|(_, d)| d.as_ref()).collect();
            let agreement = digests.windows(2).all(|pair| pair[0] == pair[1]);
            let decided = outputs.iter().all(|(_, digest)| digest.is_some());
            instances.push(StreamInstanceReport {
                instance: tag as u64,
                start_round: instance.start_round,
                batch_size: instance.batch_size,
                outputs,
                decide_rounds,
                agreement,
                decided,
            });
        }
        let agreement = instances.iter().all(|i| i.agreement);
        let completed = instances.iter().filter(|i| i.decided).count();
        report.stream = Some(StreamSection {
            instances,
            agreement,
            completed,
        });
    }
}

/// Per-instance outcome recorded by a [`StreamDriver`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamInstanceReport {
    /// The instance tag (its position in the stream's total order).
    pub instance: u64,
    /// Global round in which the instance started.
    pub start_round: u64,
    /// Number of client requests batched into the instance.
    pub batch_size: usize,
    /// Per-node agreement digest of the instance output (`None` = undecided).
    pub outputs: Vec<(NodeId, Option<String>)>,
    /// Global round in which each node's instance terminated.
    pub decide_rounds: Vec<(NodeId, Option<u64>)>,
    /// Whether every node that decided produced the same digest.
    pub agreement: bool,
    /// Whether every node decided this instance.
    pub decided: bool,
}

/// Stream-level results recorded into a [`RunReport`] by a [`StreamDriver`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamSection {
    /// One report per scheduled instance, in tag order.
    pub instances: Vec<StreamInstanceReport>,
    /// Whether every instance satisfied per-instance agreement.
    pub agreement: bool,
    /// How many instances every node decided.
    pub completed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Destination, Envelope};
    use crate::shared::thread_allocations;

    /// A toy protocol: broadcasts its input in round 1, outputs the smallest
    /// value heard in round 2, then terminates.
    #[derive(Clone, Debug)]
    struct MinOnce {
        id: NodeId,
        input: u64,
        output: Option<u64>,
    }

    impl Protocol for MinOnce {
        type Payload = u64;
        type Output = u64;

        fn id(&self) -> NodeId {
            self.id
        }

        fn step(&mut self, ctx: &RoundContext, inbox: Inbox<'_, u64>) -> Vec<Outgoing<u64>> {
            match ctx.round {
                1 => vec![Outgoing::broadcast(self.input)],
                _ => {
                    if self.output.is_none() {
                        let heard = inbox.iter().map(|(_, payload)| *payload).min();
                        self.output = Some(heard.map_or(self.input, |m| m.min(self.input)));
                    }
                    Vec::new()
                }
            }
        }

        fn output(&self) -> Option<u64> {
            self.output
        }
    }

    fn slot(tag: u64, start: u64, id: NodeId, input: u64) -> InstanceSlot<MinOnce> {
        InstanceSlot {
            tag,
            start_round: start,
            node: MinOnce {
                id,
                input,
                output: None,
            },
        }
    }

    fn completed_of(node: &MuxNode<MinOnce>, tag: u64) -> &CompletedInstance<MinOnce> {
        node.completed()
            .iter()
            .find(|done| done.tag == tag)
            .unwrap_or_else(|| panic!("instance {tag} should be retired"))
    }

    #[test]
    fn the_mux_demuxes_by_tag_and_staggers_starts() {
        let a = NodeId::new(1);
        let mut node = MuxNode::new(a, vec![slot(0, 1, a, 10), slot(1, 3, a, 20)]);

        // Round 1: only instance 0 is live; it broadcasts tagged payloads.
        let out = node.step(&RoundContext::new(1), Inbox::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, (0, 10));
        assert!(matches!(out[0].dest, Destination::Broadcast));

        // Round 2: instance 0 hears a tagged 7 (and ignores instance 1 traffic),
        // decides min(10, 7) = 7; instance 1 still has not started.
        let b = NodeId::new(2);
        let inbox = [
            Envelope::new(b, (0u64, 7u64)),
            Envelope::new(b, (1u64, 999u64)),
        ];
        let out = node.step(&RoundContext::new(2), Inbox::from(&inbox[..]));
        assert!(out.is_empty());
        let done = completed_of(&node, 0);
        assert_eq!(done.output, Some(7));
        assert_eq!(done.decided_round, Some(2));
        assert_eq!(node.slots().len(), 1, "only instance 1 is still live");
        assert_eq!(
            node.work().dropped_retired,
            0,
            "traffic for a slot that has not started is not retired traffic"
        );
        assert!(!node.terminated());

        // Round 3: instance 1 starts at its local round 1 and broadcasts.
        let out = node.step(&RoundContext::new(3), Inbox::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].payload, (1, 20));

        // Round 4: instance 1 decides on its own input; the mux terminates.
        let out = node.step(&RoundContext::new(4), Inbox::default());
        assert!(out.is_empty());
        assert_eq!(completed_of(&node, 1).output, Some(20));
        assert!(node.terminated());
        assert_eq!(node.output(), Some(2));
    }

    #[test]
    fn terminated_instances_stop_stepping() {
        let a = NodeId::new(1);
        let mut node = MuxNode::new(a, vec![slot(0, 1, a, 5)]);
        node.step(&RoundContext::new(1), Inbox::default());
        node.step(&RoundContext::new(2), Inbox::default());
        assert!(node.terminated());
        // Further rounds are no-ops and do not disturb the decide round.
        let out = node.step(&RoundContext::new(3), Inbox::default());
        assert!(out.is_empty());
        assert_eq!(node.completed()[0].decided_round, Some(2));
        // The decided instance never steps again.
        assert_eq!(node.work().slot_steps, 2);
    }

    #[test]
    fn demuxing_borrows_instead_of_cloning() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut node = MuxNode::new(a, vec![slot(0, 1, a, 10)]);
        node.step(&RoundContext::new(1), Inbox::default());
        let inbox = [Envelope::new(b, (0u64, 7u64))];
        let before = thread_allocations();
        node.step(&RoundContext::new(2), Inbox::from(&inbox[..]));
        assert_eq!(
            thread_allocations() - before,
            0,
            "demuxing a delivery must not allocate a payload copy"
        );
        assert_eq!(completed_of(&node, 0).output, Some(7));
    }

    /// A toy instance that records every inbox it steps on and terminates
    /// after local round `rounds`.
    #[derive(Clone, Debug)]
    struct Recorder {
        id: NodeId,
        rounds: usize,
        heard: Vec<Vec<(NodeId, u64)>>,
    }

    impl Protocol for Recorder {
        type Payload = u64;
        type Output = usize;

        fn id(&self) -> NodeId {
            self.id
        }

        fn step(&mut self, _ctx: &RoundContext, inbox: Inbox<'_, u64>) -> Vec<Outgoing<u64>> {
            self.heard
                .push(inbox.iter().map(|(from, inner)| (from, *inner)).collect());
            Vec::new()
        }

        fn output(&self) -> Option<usize> {
            (self.heard.len() >= self.rounds).then_some(self.heard.len())
        }
    }

    /// A slot answering both of the window's queries itself.
    #[derive(Clone, Debug)]
    struct Picky {
        slot: InstanceSlot<Recorder>,
        deaf_to: Option<NodeId>,
        reads: bool,
    }

    impl Slot for Picky {
        type Node = Recorder;

        fn slot(&self) -> &InstanceSlot<Recorder> {
            &self.slot
        }

        fn slot_mut(&mut self) -> &mut InstanceSlot<Recorder> {
            &mut self.slot
        }

        fn hears(&self, from: NodeId) -> bool {
            self.deaf_to != Some(from)
        }

        fn reads_inbox(&self, _local_round: u64) -> bool {
            self.reads
        }
    }

    fn picky(tag: u64, start_round: u64, rounds: usize) -> Picky {
        Picky {
            slot: InstanceSlot {
                tag,
                start_round,
                node: Recorder {
                    id: NodeId::new(1),
                    rounds,
                    heard: Vec::new(),
                },
            },
            deaf_to: None,
            reads: true,
        }
    }

    #[test]
    fn retired_and_unscheduled_traffic_is_dropped_at_zero_clones() {
        let (b, c) = (NodeId::new(2), NodeId::new(3));
        // Tag 0 is deaf to c, tag 1 retires after round 1, tag 2 never reads,
        // tag 3 starts in round 5 and tag 4 hears everyone.
        let slots = vec![
            Picky {
                deaf_to: Some(c),
                ..picky(0, 1, 10)
            },
            picky(1, 1, 1),
            Picky {
                reads: false,
                ..picky(2, 1, 10)
            },
            picky(3, 5, 10),
            picky(4, 1, 10),
        ];
        let mut window = Window::new(slots);
        fn untag((tag, inner): &(Option<u64>, u64)) -> Option<(u64, &u64)> {
            tag.map(|tag| (tag, inner))
        }
        let retag = |tag, inner| (Some(tag), inner);
        let mut out = Vec::new();
        let retired = window.step(1, Inbox::default(), untag, retag, &mut out);
        let tags: Vec<u64> = retired.iter().map(|slot| slot.slot.tag).collect();
        assert_eq!(tags, [1]);
        let before = window.work();

        // Every class of entry the window tells apart, in one round's inbox:
        // (what it is, sender, tag, payload, whether it counts as dropped).
        let table = [
            ("for tag 0", b, Some(0), 10, false),
            ("a retired tag", b, Some(1), 11, true),
            ("a sender tag 0's filter rejects", c, Some(0), 12, false),
            ("a slot that does not read", b, Some(2), 13, false),
            ("scheduled, not started", b, Some(3), 14, false),
            ("a tag never scheduled", b, Some(9), 15, true),
            ("untagged", b, None, 16, false),
            ("for tag 4", c, Some(4), 17, false),
            ("for tag 0 again", b, Some(0), 18, false),
        ];
        let inbox: Vec<_> = table
            .iter()
            .map(|&(_, from, tag, inner, _)| Envelope::new(from, (tag, inner)))
            .collect();
        let allocations = thread_allocations();
        window.step(2, Inbox::from(&inbox[..]), untag, retag, &mut out);
        assert_eq!(
            thread_allocations() - allocations,
            0,
            "dropping must not clone"
        );
        assert!(out.is_empty());

        let after = window.work();
        let dropped: Vec<&str> = table.iter().filter(|row| row.4).map(|row| row.0).collect();
        assert_eq!(
            after.dropped_retired - before.dropped_retired,
            dropped.len() as u64,
            "counted: {dropped:?}"
        );
        assert_eq!(
            after.envelopes_indexed - before.envelopes_indexed,
            table.len() as u64
        );
        // Tags 0, 2 and 4 stepped; tag 3 has not started.
        assert_eq!(after.slot_steps - before.slot_steps, 3);
        let heard = |tag: u64| {
            let slot = window.slots().iter().find(|slot| slot.slot.tag == tag);
            slot.expect("live slot").slot.node.heard.clone()
        };
        // Arrival order within a tag is kept.
        assert_eq!(heard(0), [vec![], vec![(b, 10), (b, 18)]]);
        assert_eq!(heard(2), [vec![], vec![]], "it steps, over nothing");
        assert!(heard(3).is_empty());
        assert_eq!(heard(4), [vec![], vec![(c, 17)]]);
    }

    #[test]
    fn instances_retire_in_decision_order_not_tag_order() {
        let a = NodeId::new(1);
        // Instance 1 decides before instance 0 (it starts earlier).
        let mut node = MuxNode::new(a, vec![slot(0, 4, a, 5), slot(1, 1, a, 6)]);
        node.step(&RoundContext::new(1), Inbox::default());
        node.step(&RoundContext::new(2), Inbox::default());
        assert_eq!(node.completed().len(), 1, "instance 1 has retired");
        assert_eq!(node.slots()[0].tag, 0, "instance 0 is still live");
        node.step(&RoundContext::new(4), Inbox::default());
        node.step(&RoundContext::new(5), Inbox::default());
        assert!(node.terminated());
        let order: Vec<u64> = node.completed().iter().map(|done| done.tag).collect();
        assert_eq!(order, [1, 0]);
    }
}
