//! Multi-instance pipelined agreement streams.
//!
//! A single scenario runs *one* agreement; a serving workload runs a **stream**
//! of them, overlapping in time so the next instance starts before the previous
//! one decides. This module provides the generic machinery for that shape:
//!
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
//! each step sorts its inbox by tag once, into one flat buffer of borrowed
//! inner payloads, every inner instance is stepped over its sub-slice of that
//! buffer (an [`Inbox`] view — no payload clone, no handle, no envelope), and
//! decided slots are **retired** out of the scan path into
//! compact [`CompletedInstance`] records, so [`MuxNode::output`] and
//! [`MuxNode::terminated`] are O(1) counter reads and a long-finished stream
//! prefix costs nothing per round. Traffic addressed to a retired tag is
//! never handed to anybody (counted in [`MuxWork`]); the engine
//! can additionally prune such traffic before delivery (see
//! `SyncEngine::enable_traffic_gc`). Retirement is observationally silent:
//! reports are byte-identical with it on or off (see
//! `tests/stream_equivalence.rs`), and `docs/STREAMING.md` documents the cost
//! model.
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

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::adversary::SilentAdversary;
use crate::engine::FastState;
use crate::id::NodeId;
use crate::message::{Inbox, Outgoing};
use crate::node::{Protocol, RoundContext};
use crate::sim::{AdversaryKind, BuildContext, NamedAdversary, ProtocolFactory, RunReport};

/// One inner-protocol instance inside a [`MuxNode`].
#[derive(Clone, Debug)]
pub struct InstanceSlot<N> {
    /// The tag carried by every payload of this instance.
    pub tag: u64,
    /// Global round in which the instance starts (its local round 1).
    pub start_round: u64,
    /// The inner protocol node.
    pub node: N,
    /// Global round in which this node's instance terminated, if it has.
    pub decided_round: Option<u64>,
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

/// A live or retired instance, as seen through [`MuxNode::instance`].
pub enum InstanceState<'a, N: Protocol> {
    /// The instance still occupies a slot in the scan path.
    Live(&'a InstanceSlot<N>),
    /// The instance has decided and been retired.
    Completed(&'a CompletedInstance<N>),
}

/// Per-node demux work counters, maintained by [`MuxNode::step`] (and, in the
/// same currency, by `uba-core`'s total-order node, which multiplexes its own
/// per-round instances). Measurement
/// only — these never enter a [`RunReport`], so they cannot perturb the
/// byte-identity pins; the window-sweep benchmark reads them to prove per-round
/// cost tracks the active window rather than the horizon.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MuxWork {
    /// Messages examined while sorting each step's inbox by tag (exactly the
    /// inbox sizes summed over steps — every message is counted once).
    pub envelopes_indexed: u64,
    /// Inner-instance steps executed (live slots × rounds they were live).
    pub slot_steps: u64,
    /// Messages dropped because their tag matched no live slot (instance
    /// already retired or never scheduled) — at zero payload clones.
    pub dropped_retired: u64,
}

/// A node multiplexing many instances of an inner [`Protocol`] over one wire.
///
/// Payloads are `(instance_tag, inner_payload)`; each round the node sorts its
/// inbox by tag, steps every started-and-undecided instance with a *local*
/// round number (`global - start_round`) over a borrowed (not cloned) inbox,
/// and retags everything the instances send. An instance whose start
/// round has not arrived yet neither sends nor receives. Decided instances are
/// retired into [`CompletedInstance`] records, and the node terminates when
/// the decided count reaches the instance count.
///
/// Tags are assumed dense from 0 (the [`StreamDriver`] assigns them in push
/// order); the retired frontier reported to the engine's traffic GC is the
/// length of the decided prefix.
#[derive(Clone, Debug)]
pub struct MuxNode<N: Protocol> {
    id: NodeId,
    slots: Vec<InstanceSlot<N>>,
    completed: Vec<CompletedInstance<N>>,
    completed_index: HashMap<u64, usize, FastState>,
    total: usize,
    decided: usize,
    work: MuxWork,
    frontier: u64,
    pending_decided: BTreeSet<u64>,
}

impl<N: Protocol> MuxNode<N> {
    /// Builds a mux node over the given instance slots (all for the same
    /// [`NodeId`]). Tags must be unique; start rounds must be ≥ 1.
    pub fn new(id: NodeId, slots: Vec<InstanceSlot<N>>) -> Self {
        let total = slots.len();
        let mut node = MuxNode {
            id,
            slots,
            completed: Vec::new(),
            completed_index: HashMap::default(),
            total,
            decided: 0,
            work: MuxWork::default(),
            frontier: 0,
            pending_decided: BTreeSet::new(),
        };
        // A slot already terminated at build time counts as decided now and is
        // swept into `completed` lazily on the first step; `decided_round`
        // stays `None`, matching the step guard that never assigns one.
        let built_decided: Vec<u64> = node
            .slots
            .iter()
            .filter(|slot| slot.node.terminated())
            .map(|slot| slot.tag)
            .collect();
        node.decided += built_decided.len();
        for tag in built_decided {
            node.note_decided(tag);
        }
        node
    }

    /// The **live** (undecided) instance slots, in tag order.
    pub fn slots(&self) -> &[InstanceSlot<N>] {
        &self.slots
    }

    /// The retired instances, in retirement order.
    pub fn completed(&self) -> &[CompletedInstance<N>] {
        &self.completed
    }

    /// The demux work counters accumulated so far.
    pub fn work(&self) -> MuxWork {
        self.work
    }

    /// Looks an instance up by tag, live or retired.
    pub fn instance(&self, tag: u64) -> Option<InstanceState<'_, N>> {
        if let Some(&at) = self.completed_index.get(&tag) {
            return Some(InstanceState::Completed(&self.completed[at]));
        }
        self.slots
            .iter()
            .find(|slot| slot.tag == tag)
            .map(InstanceState::Live)
    }

    /// Records a decided tag and advances the contiguous decided-prefix
    /// frontier past it if possible.
    fn note_decided(&mut self, tag: u64) {
        self.pending_decided.insert(tag);
        while self.pending_decided.remove(&self.frontier) {
            self.frontier += 1;
        }
    }

    /// Moves every terminated slot out of the scan path into `completed`,
    /// preserving the order of the remaining live slots (wire-traffic
    /// byte-identity depends on slot order, so no swap-remove here).
    fn retire_terminated(&mut self) {
        let mut completed = std::mem::take(&mut self.completed);
        let index = &mut self.completed_index;
        self.slots.retain(|slot| {
            if slot.node.terminated() {
                index.insert(slot.tag, completed.len());
                completed.push(CompletedInstance {
                    tag: slot.tag,
                    start_round: slot.start_round,
                    decided_round: slot.decided_round,
                    output: slot.node.output(),
                });
                false
            } else {
                true
            }
        });
        self.completed = completed;
    }
}

/// One step's inbox sorted by instance tag: every inner payload borrowed out
/// of its `(tag, inner)` tuple into **one** flat buffer, the messages of a tag
/// contiguous and in arrival order, so a slot's inbox is a sub-slice of it —
/// nothing is cloned, reference-counted or allocated per message or per slot.
struct Demux<'a, P> {
    /// Tag → its bucket, numbered in first-seen order.
    buckets: HashMap<u64, usize, FastState>,
    /// Where each bucket ends in `sorted` (it starts where the previous ends).
    ends: Vec<usize>,
    sorted: Vec<(NodeId, &'a P)>,
}

impl<'a, P> Demux<'a, P> {
    /// A counting sort by tag: one pass to number and count the tags, one to
    /// place the messages.
    fn new(inbox: Inbox<'a, (u64, P)>) -> Self {
        let mut buckets: HashMap<u64, usize, FastState> = HashMap::default();
        let mut ends: Vec<usize> = Vec::new();
        let mut bucket_of = Vec::with_capacity(inbox.len());
        for (_, (tag, _)) in inbox.iter() {
            let bucket = *buckets.entry(*tag).or_insert(ends.len());
            if bucket == ends.len() {
                ends.push(0);
            }
            ends[bucket] += 1;
            bucket_of.push(bucket);
        }
        // Counts become start offsets, which placing advances to end offsets.
        let mut start = 0;
        for end in &mut ends {
            let count = *end;
            *end = start;
            start += count;
        }
        // The buffer is sized up front and every position written exactly
        // once; the first message only serves as the filler a slice needs.
        let mut sorted: Vec<(NodeId, &P)> = inbox
            .iter()
            .next()
            .map_or_else(Vec::new, |(from, (_, inner))| {
                vec![(from, inner); inbox.len()]
            });
        for ((from, (_, inner)), bucket) in inbox.iter().zip(bucket_of) {
            sorted[ends[bucket]] = (from, inner);
            ends[bucket] += 1;
        }
        Demux {
            buckets,
            ends,
            sorted,
        }
    }

    /// The messages tagged `tag`, in arrival order.
    fn of(&self, tag: u64) -> &[(NodeId, &'a P)] {
        let Some(&bucket) = self.buckets.get(&tag) else {
            return &[];
        };
        let start = bucket
            .checked_sub(1)
            .map_or(0, |previous| self.ends[previous]);
        &self.sorted[start..self.ends[bucket]]
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
        let demux = Demux::new(inbox);
        self.work.envelopes_indexed += inbox.len() as u64;

        // Messages no started slot has claimed (stepped on, or dropped with it).
        let mut unclaimed = inbox.len();
        let mut outgoing = Vec::new();
        let mut newly_decided: Vec<u64> = Vec::new();
        let mut sweep = false;
        for slot in &mut self.slots {
            if ctx.round < slot.start_round {
                continue;
            }
            let inner_inbox = demux.of(slot.tag);
            unclaimed -= inner_inbox.len();
            if slot.node.terminated() {
                // Reachable only for a slot that was terminated at build time
                // and awaits its lazy sweep. Count its traffic exactly as the
                // retired path does.
                self.work.dropped_retired += inner_inbox.len() as u64;
                sweep = true;
                continue;
            }
            self.work.slot_steps += 1;
            let local = RoundContext::new(ctx.round - slot.start_round + 1);
            for sent in slot.node.step(&local, Inbox::from(inner_inbox)) {
                outgoing.push(Outgoing {
                    dest: sent.dest,
                    payload: (slot.tag, sent.payload),
                });
            }
            if slot.node.terminated() && slot.decided_round.is_none() {
                slot.decided_round = Some(ctx.round);
                newly_decided.push(slot.tag);
                sweep = true;
            }
        }
        if unclaimed > 0 {
            // Nobody has sent for a slot that has not started yet, so a match
            // there cannot occur on the wire; it is dropped silently. Whatever
            // else is left matched no slot at all: the instance was already
            // retired (or never scheduled).
            let early = self
                .slots
                .iter()
                .filter(|slot| ctx.round < slot.start_round);
            unclaimed -= early.map(|slot| demux.of(slot.tag).len()).sum::<usize>();
            self.work.dropped_retired += unclaimed as u64;
        }
        self.decided += newly_decided.len();
        for tag in newly_decided {
            self.note_decided(tag);
        }
        if sweep {
            self.retire_terminated();
        }
        outgoing
    }

    fn output(&self) -> Option<Self::Output> {
        (self.decided == self.total).then_some(self.decided)
    }

    fn terminated(&self) -> bool {
        self.decided == self.total
    }

    fn instance_of(&self, payload: &Self::Payload) -> Option<u64> {
        Some(payload.0)
    }

    fn retired_frontier(&self) -> u64 {
        self.frontier
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
                    decided_round: None,
                });
            }
        }
        ctx.correct_ids
            .iter()
            .zip(muxes)
            .map(|(&id, slots)| MuxNode::new(id, slots))
            .collect()
    }

    fn adversary(
        &self,
        _kind: AdversaryKind,
        _ctx: &BuildContext,
    ) -> NamedAdversary<<Self::Node as Protocol>::Payload> {
        // Streams measure the fault-free serving path; see the module docs.
        NamedAdversary::new("silent", SilentAdversary)
    }

    fn record(&self, _ctx: &BuildContext, nodes: &[Self::Node], report: &mut RunReport) {
        let mut instances = Vec::with_capacity(self.instances.len());
        for (tag, instance) in self.instances.iter().enumerate() {
            let mut outputs = Vec::with_capacity(nodes.len());
            let mut decide_rounds = Vec::with_capacity(nodes.len());
            for node in nodes {
                let (output, decided_round) = match node.instance(tag as u64) {
                    Some(InstanceState::Live(slot)) => (
                        slot.node.output().map(|o| (self.digest)(&o)),
                        slot.decided_round,
                    ),
                    Some(InstanceState::Completed(done)) => (
                        done.output.as_ref().map(|o| (self.digest)(o)),
                        done.decided_round,
                    ),
                    None => (None, None),
                };
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
            decided_round: None,
        }
    }

    fn completed_of(node: &MuxNode<MinOnce>, tag: u64) -> &CompletedInstance<MinOnce> {
        match node.instance(tag) {
            Some(InstanceState::Completed(done)) => done,
            _ => panic!("instance {tag} should be retired"),
        }
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
        assert_eq!(node.retired_frontier(), 1, "tag 0 is globally done locally");

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
        assert_eq!(node.retired_frontier(), 2);
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

    #[test]
    fn retired_and_unscheduled_traffic_is_dropped_at_zero_clones() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut node = MuxNode::new(a, vec![slot(0, 1, a, 5), slot(1, 1, a, 6)]);
        // Both instances decide in round 2 and retire.
        node.step(&RoundContext::new(1), Inbox::default());
        node.step(&RoundContext::new(2), Inbox::default());
        assert!(node.terminated());
        assert_eq!(node.slots().len(), 0);
        assert_eq!(node.completed().len(), 2);

        // Late traffic for a retired tag and for a tag never scheduled: both
        // are dropped during indexing, with no payload clone.
        let inbox = [
            Envelope::new(b, (0u64, 1u64)),
            Envelope::new(b, (0u64, 2u64)),
            Envelope::new(b, (9u64, 3u64)),
        ];
        let before = thread_allocations();
        let out = node.step(&RoundContext::new(3), Inbox::from(&inbox[..]));
        assert!(out.is_empty());
        assert_eq!(thread_allocations() - before, 0, "dropping must not clone");
        assert_eq!(node.work().dropped_retired, 3);
        assert_eq!(node.work().envelopes_indexed, 3);
    }

    #[test]
    fn the_frontier_advances_over_the_decided_prefix_only() {
        let a = NodeId::new(1);
        // Instance 1 decides before instance 0 (it starts earlier).
        let mut node = MuxNode::new(a, vec![slot(0, 4, a, 5), slot(1, 1, a, 6)]);
        node.step(&RoundContext::new(1), Inbox::default());
        node.step(&RoundContext::new(2), Inbox::default());
        assert_eq!(node.completed().len(), 1, "instance 1 has retired");
        assert_eq!(
            node.retired_frontier(),
            0,
            "tag 0 is still live, so nothing below it is retired"
        );
        node.step(&RoundContext::new(4), Inbox::default());
        node.step(&RoundContext::new(5), Inbox::default());
        assert!(node.terminated());
        assert_eq!(node.retired_frontier(), 2, "the prefix closed in one jump");
    }
}
