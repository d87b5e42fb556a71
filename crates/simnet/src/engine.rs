//! The round engine: one machine, two delivery policies.
//!
//! [`Engine`] owns the correct nodes (any [`Protocol`] implementation) and one
//! [`Adversary`]. The paper proves its algorithms in the synchronous model and
//! then shows (Section IX, Lemmas 14/15) that synchrony is *necessary*:
//! semi-synchrony and asynchrony are the same system under a different
//! message-timing rule. The engine is built the same way. Membership, churn,
//! crash/restart, the write-ahead hooks, the adversary phase, tracing and
//! metrics exist once; the only thing that varies is **when a produced message
//! becomes an inbox entry**, and that one decision sits behind a delivery
//! policy the engine holds as a value:
//!
//! * **`NextRound`** ([`Engine::new`]) — the lock-step rounds of the id-only
//!   model: everything sent in round `r` is in its recipient's inbox for round
//!   `r + 1`. Every node steps every round.
//! * **`Timed`** ([`Engine::with_timing`]) — a virtual clock, per-node round
//!   timers and a deterministic queue of timestamped flights (see
//!   [`event`](crate::event)): a message lands when its link delay says so,
//!   and a node steps when its own timer fires. Under
//!   [`TimingSpec::synchronous`] this is byte-identical to `NextRound`.
//!
//! [`Engine::run_round`] asks the policy exactly three questions — *which
//! nodes are due, and under which round number*; *what to do when a node joins
//! or leaves* (arm or disarm a timer); and *how to route the round's traffic
//! into inboxes* — and does everything else itself. One call performs one
//! round (one *batch* under `Timed`), with the following phases and per-round
//! costs (for `n` nodes, `m` compact traffic items produced this round, and `d`
//! point-to-point deliveries to correct nodes):
//!
//! 1. **Produce — O(n + m).** Every due, live correct node is handed a **view**
//!    of the inbox accumulated for it ([`Inbox`]: the round's common list, then
//!    its own entries — read in place, nothing is copied per recipient) and
//!    produces its outgoing messages. Broadcasts are *not* expanded: a
//!    broadcast is stored once as a compact [`TrafficItem`] in the round's
//!    [`RoundTraffic`], and its payload is wrapped into a [`Shared`] handle —
//!    **the only payload allocation it will ever cost**, with the dedup digest
//!    computed right there; inbox buffers are recycled across rounds instead of
//!    reallocated.
//! 2. **Adversary — O(1) + whatever the strategy reads.** The rushing adversary
//!    observes the full point-to-point expansion of the round's correct traffic
//!    through the lazy [`AdversaryView`] iterators (nothing is allocated by the
//!    engine) and injects arbitrary directed messages — forwarded honest traffic
//!    rides on cloned handles, only fabricated payloads allocate; sender
//!    identities are verified against an O(1) membership index.
//! 3. **Route — O(m) expected for what is broadcast, O(1) per directed
//!    message, zero-copy.** In the id-only model a correct node cannot address a
//!    peer it has not heard from, so correct traffic is broadcast and every
//!    correct recipient of a round receives the *same* list of it. The policy
//!    lands a broadcast **once**, on the round's common list (one envelope, one
//!    reference-count bump, one insert of the payload's **cached** digest into a
//!    shared `(sender, digest)` set), and credits one delivery per correct
//!    recipient; only what is directed — Byzantine traffic, a unicast, a leg of
//!    a jittered broadcast — lands per recipient, in the addressee's own part
//!    (see `Inboxes`). Messages to Byzantine identities never materialise (the
//!    adversary already saw everything via its view). Either way a message is
//!    dropped iff an equal `(sender, payload)` is already in the recipient's
//!    inbox, and neither a payload clone nor a payload hash happens on the way
//!    in. `NextRound` does this in one `deliver` phase over pre-staged slots;
//!    `Timed` stamps arrival times (`schedule`) and pops the due flights
//!    (`dispatch`). A *delivery* stays a logical point-to-point message:
//!    [`Metrics::deliveries`] counts `d`, whatever the engine holds.
//!
//! The wall-clock cost of each phase is accumulated in [`PhaseTimings`]
//! (`produce` / `adversary` / `deliver` or `schedule` + `dispatch` / `step`,
//! where *step* is the bookkeeping around the phases: churn, inbox staging and
//! recycling, metrics); the scaling benchmark records the split so "delivery no
//! longer dominates" is a measured statement.
//!
//! The engine supports **dynamic membership** (nodes joining and leaving between
//! rounds), which Section XI of the paper relies on, via [`Engine::add_node`],
//! [`Engine::remove_node`], [`Engine::add_byzantine_id`] and
//! [`Engine::remove_byzantine_id`]; the membership indices are maintained
//! incrementally, so none of these paths rescans the node vectors.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::adversary::{Adversary, AdversaryView};
use crate::dynamic::{ChurnEvent, ChurnSchedule};
use crate::error::SimError;
use crate::event::timed::Timed;
use crate::event::TimingSpec;
use crate::id::NodeId;
use crate::message::{Destination, Directed, Envelope, Inbox};
use crate::metrics::{Metrics, RoundMetrics};
use crate::node::{Protocol, RoundContext};
use crate::shared::Shared;
use crate::trace::{TraceEvent, TraceLog};
use crate::traffic::{RoundTraffic, TrafficItem};
use crate::wal::{RecoveryManager, RestartPolicy, RestartRecord, WalConfig};

/// The most delivery events an engine's trace keeps; later ones are counted as
/// dropped.
const TRACE_CAPACITY: usize = 1 << 20;

/// When a run is finished: the one stop rule behind [`Engine::run`] and
/// [`Harness`](crate::sim::Harness).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopCondition {
    /// Every correct node has terminated.
    AllTerminated,
    /// Every correct node has produced an output (it may keep participating).
    AllOutput,
    /// Exactly this many rounds have been executed.
    FixedRounds(u64),
}

impl StopCondition {
    /// Whether the condition holds for `nodes` after `round` rounds.
    pub(crate) fn holds<N: Protocol>(self, round: u64, nodes: &[N]) -> bool {
        match self {
            StopCondition::AllTerminated => nodes.iter().all(|n| n.terminated()),
            StopCondition::AllOutput => nodes.iter().all(|n| n.output().is_some()),
            StopCondition::FixedRounds(rounds) => round >= rounds,
        }
    }
}

/// Why a run stopped, serialisable for recorded results.
///
/// Cap exhaustion is part of the *outcome*, not an error: outside the `n > 3f`
/// resiliency bound a protocol may legitimately never meet its stop condition, and
/// experiments record that as a result rather than aborting. Engine errors
/// ([`SimError`]) remain reserved for genuine rule violations such as forged sender
/// identities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[must_use = "check whether the run completed or exhausted its round cap"]
pub enum RunStatus {
    /// The stop condition was satisfied.
    Completed {
        /// Rounds executed when the condition became true.
        rounds: u64,
    },
    /// The round cap was exhausted first.
    MaxRoundsExceeded {
        /// The cap that was hit.
        limit: u64,
    },
}

impl RunStatus {
    /// Whether the run met its stop condition.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunStatus::Completed { .. })
    }

    /// Converts cap exhaustion into [`SimError::MaxRoundsExceeded`] for callers that
    /// treat an unfinished run as a hard failure; returns the rounds executed.
    pub fn expect_completed(self) -> Result<u64, SimError> {
        match self {
            RunStatus::Completed { rounds } => Ok(rounds),
            RunStatus::MaxRoundsExceeded { limit } => Err(SimError::MaxRoundsExceeded { limit }),
        }
    }
}

/// A churn plan bound to a node constructor, applied by the engine between rounds.
///
/// The schedule says *who* joins or leaves and *when*; the `joiner` callback says how
/// to construct a correct node for a joining identifier (the engine cannot know how
/// to initialise protocol state). Registered with [`Engine::set_churn`].
struct ChurnDriver<N> {
    schedule: ChurnSchedule,
    joiner: Box<dyn FnMut(NodeId) -> N>,
    /// Highest round whose events have been (at least partially) applied. Guards a
    /// retried `run_round` after a failed event from re-applying the round's earlier
    /// events (which would turn one inapplicable event into spurious DuplicateId
    /// errors for the events that did apply).
    applied_upto: u64,
}

/// A deterministic, multiply-rotate hasher for the engine's *internal* maps
/// (inbox registry, dedup sets, delivery slot index, write-ahead logs). These
/// maps are hot — a dedup set is touched once per entry landed — and never
/// observed through their iteration order, so the default SipHash's DoS
/// resistance buys nothing here. Collisions are harmless for correctness: the
/// maps store full keys, and a payload-digest collision still falls back to
/// the exact scan of the landing path (see [`FanOut`]).
#[derive(Clone, Copy, Default)]
pub(crate) struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.mix(value as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so the high bits (hashbrown's control bytes) carry
        // entropy from every mixed word.
        let mut hash = self.0;
        hash ^= hash >> 32;
        hash = hash.wrapping_mul(0xd6e8_feb8_6659_fd93);
        hash ^= hash >> 32;
        hash
    }
}

pub(crate) type FastState = BuildHasherDefault<FastHasher>;

/// A recipient's **own** part of its inbox: the entries only it holds —
/// directed traffic, and whatever landed after a directed message froze its
/// share of the round's common list — plus their `(sender, payload digest)`
/// pairs, for O(1)-expected deduplication. A recipient reads
/// `common[..prefix]` and then `own` (see [`Inboxes`]). Buffers are recycled
/// through the spare pool rather than reallocated.
#[derive(Debug)]
pub(crate) struct Mailbox<P> {
    own: Vec<Envelope<P>>,
    seen: HashSet<(NodeId, u64), FastState>,
    /// How many leading entries of the common list precede `own` in the
    /// recipient's inbox. Meaningful while the mailbox is registered or
    /// staged; set when it is taken from the spare pool.
    prefix: usize,
}

impl<P> Default for Mailbox<P> {
    fn default() -> Self {
        Mailbox {
            own: Vec::new(),
            seen: HashSet::default(),
            prefix: 0,
        }
    }
}

impl<P> Mailbox<P> {
    fn recycle(&mut self) {
        self.own.clear();
        self.seen.clear();
    }
}

/// Wall-clock time accumulated per named phase of the engine's round loop, in
/// nanoseconds. The engine itself accumulates `produce` (phase 1, nodes
/// consuming inboxes and producing traffic), `adversary` (phase 2) and `step`
/// (the per-round bookkeeping around them: churn application, inbox staging
/// and recycling, membership maintenance, metrics); the delivery policy names
/// the rest — `deliver` under `NextRound`, `schedule` (clock advance plus
/// delay-model expansion into the delivery queue) and `dispatch` (popping due
/// deliveries into inboxes) under `Timed`. Timings are measurement-only: they
/// never influence execution, and reports never contain them, so runs stay
/// bit-for-bit reproducible.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// `(phase name, accumulated nanoseconds)`, in first-recorded order.
    slots: Vec<(&'static str, u64)>,
}

impl PhaseTimings {
    /// An empty record (no phase measured yet).
    pub fn new() -> Self {
        PhaseTimings::default()
    }

    /// Adds `ns` nanoseconds to a named phase, creating the slot on first use.
    pub fn add(&mut self, phase: &'static str, ns: u64) {
        match self.slots.iter_mut().find(|(name, _)| *name == phase) {
            Some(slot) => slot.1 += ns,
            None => self.slots.push((phase, ns)),
        }
    }

    /// Accumulated nanoseconds of a named phase (0 if never recorded).
    pub fn get(&self, phase: &str) -> u64 {
        self.slots
            .iter()
            .find(|(name, _)| *name == phase)
            .map_or(0, |(_, ns)| *ns)
    }

    /// The recorded `(phase, nanoseconds)` slots, in first-recorded order.
    pub fn phases(&self) -> &[(&'static str, u64)] {
        &self.slots
    }

    /// Total time spent across all phases.
    pub fn total_ns(&self) -> u64 {
        self.slots.iter().map(|(_, ns)| ns).sum()
    }

    /// Name of the phase with the largest accumulated time (`"idle"` if nothing
    /// was recorded yet).
    pub fn dominant(&self) -> &'static str {
        self.slots
            .iter()
            .max_by_key(|(_, ns)| *ns)
            .map(|(name, _)| *name)
            .unwrap_or("idle")
    }
}

pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Steps one node over its inbox view and appends what it sends.
#[inline]
fn step_node<N: Protocol>(
    node: &mut N,
    ctx: &RoundContext,
    inbox: Inbox<'_, N::Payload>,
    traffic: &mut RoundTraffic<N::Payload>,
) {
    let id = node.id();
    for message in node.step(ctx, inbox) {
        match message.dest {
            Destination::Broadcast => traffic.push_broadcast(id, message.payload),
            Destination::Unicast(to) => {
                traffic.push_unicast(Directed::new(id, to, message.payload))
            }
        }
    }
}

/// Steps a full batch: every live node under the same round context, in node
/// order. Returns the live-node count.
fn step_serial<N: Protocol>(
    nodes: &mut [N],
    ctx: &RoundContext,
    inboxes: &Inboxes<N::Payload>,
    traffic: &mut RoundTraffic<N::Payload>,
) -> u64 {
    let mut live = 0u64;
    for (index, node) in nodes.iter_mut().enumerate() {
        if node.terminated() {
            continue;
        }
        live += 1;
        step_node(node, ctx, inboxes.view(index), traffic);
    }
    live
}

/// Steps a skewed partial batch: only the nodes with a `due` entry, each under
/// its own local round number. Kept apart from [`step_serial`] so the
/// full-batch path pays nothing for the mask.
fn step_due<N: Protocol>(
    nodes: &mut [N],
    due: &[Option<u64>],
    inboxes: &Inboxes<N::Payload>,
    traffic: &mut RoundTraffic<N::Payload>,
) -> u64 {
    let mut live = 0u64;
    for (index, (node, local_round)) in nodes.iter_mut().zip(due).enumerate() {
        let Some(local_round) = *local_round else {
            continue;
        };
        if node.terminated() {
            continue;
        }
        live += 1;
        let ctx = RoundContext::new(local_round);
        step_node(node, &ctx, inboxes.view(index), traffic);
    }
    live
}

/// What a delivery policy sees of the engine while it routes one round's
/// traffic into inboxes: the round's correct and Byzantine traffic, the
/// membership indices, the inboxes, and the trace, metrics and timings it
/// reports into.
pub(crate) struct Routing<'a, P> {
    /// The sending round (deliveries are traced under `round + 1`).
    pub(crate) round: u64,
    /// The round's correct recipients, in membership order.
    pub(crate) correct_ids: &'a [NodeId],
    pub(crate) traffic: &'a RoundTraffic<P>,
    pub(crate) byzantine_traffic: &'a [Directed<P>],
    pub(crate) byzantine_index: &'a HashSet<NodeId>,
    pub(crate) inboxes: &'a mut Inboxes<P>,
    pub(crate) trace: &'a mut Option<TraceLog<P>>,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) timings: &'a mut PhaseTimings,
}

/// Every inbox of the engine, as **one common list plus per-recipient own
/// parts**.
///
/// In the id-only model correct traffic is broadcast, so every correct
/// recipient of a round receives the same list of it. That list is kept once:
/// [`FanOut::land_all`] appends a broadcast to `common` (one envelope, one
/// reference-count bump, one insert into the shared dedup set) and credits
/// one delivery per recipient. What is *not* common — a directed message, a
/// leg of a jittered broadcast — lands in the addressee's own [`Mailbox`] and
/// **freezes** the addressee's share of the common list at its current length
/// `k`: from then on everything for that recipient, later broadcasts
/// included, goes to its own list, so it still reads exactly the sequence a
/// per-recipient expansion would have pushed for it — `common[..k]` then
/// `own`. A recipient nothing was directed at has no mailbox at all and reads
/// the whole common list in place.
///
/// The common list belongs to the batch that was staged while it was filled
/// (a node admitted since — `newcomers` — reads none of it), and each staging
/// draws a fresh, process-unique generation for it: a view's
/// [`CommonKey`](crate::CommonKey) is that generation and the view's prefix
/// length `k`, so two recipients that read the same entries carry the same
/// key, and a recycled buffer never passes for last round's list. The next
/// [`Inboxes::open_round`] consumes it: a
/// node that steps reads its view and both parts are recycled; a member that
/// does not step (terminated, or not due under skewed timers) gets its prefix
/// *materialised* into its own list and dedup set before the common list is
/// cleared, and is from then on a frozen recipient with `k = 0` — its dedup
/// state persists across rounds, per recipient, exactly as before.
pub(crate) struct Inboxes<P> {
    /// The broadcasts landed for the whole current batch, deduplicated once.
    common: Vec<Envelope<P>>,
    /// The batch `common` was filled for (see [`next_generation`]).
    generation: u64,
    /// `(sender, digest)` → position of the first such entry of `common`.
    /// Only consulted while the list is being filled (between `stage` and
    /// `unstage`); a digest hit is confirmed by an exact scan.
    common_seen: HashMap<(NodeId, u64), usize, FastState>,
    /// The nodes admitted since `common`'s batch was staged: they are no
    /// recipients of it.
    newcomers: Vec<NodeId>,
    /// The own parts, by recipient — only of recipients that have one.
    own: HashMap<NodeId, Mailbox<P>, FastState>,
    /// Recycled mailboxes, reused instead of reallocating every round.
    spare: Vec<Mailbox<P>>,
    /// The step phase's views, aligned with the engine's nodes: the common
    /// prefix and the own part of every node that steps this round.
    stepping: Vec<(usize, Option<Mailbox<P>>)>,
    /// The routing phase's delivery slots, aligned with the round's correct
    /// recipients, so a fan-out indexes straight into its targets instead of
    /// paying a map lookup per delivery. `None`: not frozen.
    slots: Vec<Option<Mailbox<P>>>,
    /// `NodeId → delivery slot`, rebuilt each round (one hash op per *member*
    /// per round instead of one per *delivery*).
    slot_index: HashMap<NodeId, usize, FastState>,
    /// The frozen slots, in freezing order.
    frozen: Vec<usize>,
}

impl<P> Default for Inboxes<P> {
    fn default() -> Self {
        Inboxes {
            common: Vec::new(),
            generation: 0,
            common_seen: HashMap::default(),
            newcomers: Vec::new(),
            own: HashMap::default(),
            spare: Vec::new(),
            stepping: Vec::new(),
            slots: Vec::new(),
            slot_index: HashMap::default(),
            frozen: Vec::new(),
        }
    }
}

impl<P> Inboxes<P> {
    /// Opens a round over the engine's nodes, in node order (`steps`: the node
    /// is due and live): a stepping node's view is set aside for
    /// [`Inboxes::view`]; a member of the common list's batch that does not
    /// step has its prefix materialised, so the list can be cleared when the
    /// round [closes](Inboxes::close_round).
    fn open_round(&mut self, nodes: impl Iterator<Item = (NodeId, bool)>) {
        self.stepping.clear();
        for (id, steps) in nodes {
            let whole = if self.newcomers.contains(&id) {
                0
            } else {
                self.common.len()
            };
            if steps {
                let own = self.own.remove(&id);
                let prefix = own.as_ref().map_or(whole, |mailbox| mailbox.prefix);
                self.stepping.push((prefix, own));
                continue;
            }
            self.stepping.push((0, None));
            let prefix = self.own.get(&id).map_or(whole, |mailbox| mailbox.prefix);
            if prefix == 0 {
                continue;
            }
            let Inboxes {
                common, own, spare, ..
            } = self;
            let mailbox = own
                .entry(id)
                .or_insert_with(|| spare.pop().unwrap_or_default());
            let prefix = &common[..prefix];
            mailbox
                .seen
                .extend(prefix.iter().map(|e| (e.from, e.payload.digest())));
            mailbox.own.splice(0..0, prefix.iter().cloned());
            mailbox.prefix = 0;
        }
    }

    /// The inbox of the engine's `index`-th node this round: its prefix of the
    /// common list, then its own entries — read in place.
    #[inline]
    fn view(&self, index: usize) -> Inbox<'_, P> {
        let (prefix, own) = &self.stepping[index];
        let own = own.as_ref().map_or(&[][..], |mailbox| &mailbox.own);
        Inbox::keyed(&self.common[..*prefix], own, self.generation)
    }

    /// Closes the round: everything a view showed has been consumed.
    fn close_round(&mut self) {
        for (_, own) in self.stepping.drain(..) {
            if let Some(mut mailbox) = own {
                mailbox.recycle();
                self.spare.push(mailbox);
            }
        }
        self.common.clear();
    }

    /// Admits a joining node: its inbox starts empty, whatever has landed.
    fn admit(&mut self, id: NodeId) {
        self.newcomers.push(id);
    }

    /// Drops the inbox of a leaving node.
    fn remove(&mut self, id: NodeId) {
        self.newcomers.retain(|&newcomer| newcomer != id);
        if let Some(mut mailbox) = self.own.remove(&id) {
            mailbox.recycle();
            self.spare.push(mailbox);
        }
    }

    /// Entries held: the common list once, plus every own part.
    fn queued(&self) -> usize {
        let own: usize = self.own.values().map(|mailbox| mailbox.own.len()).sum();
        self.common.len() + own
    }

    /// Stages the round's correct recipients into index-aligned slots (the
    /// round's recipient list leads with the correct nodes, in this exact
    /// order) and opens a new common list for them, so a broadcast lands once
    /// and a unicast target costs one fast-map lookup — no per-delivery
    /// hashing of recipient ids. A recipient that carries dedup state from
    /// earlier rounds starts out frozen. Everything the returned [`FanOut`]
    /// lands is traced under `delivery_round`. Hand the slots back through
    /// [`Inboxes::unstage`].
    pub(crate) fn stage<'a>(
        &'a mut self,
        correct_ids: &'a [NodeId],
        trace: &'a mut Option<TraceLog<P>>,
        byzantine_index: &'a HashSet<NodeId>,
        delivery_round: u64,
    ) -> FanOut<'a, P> {
        debug_assert!(self.common.is_empty(), "the last round was closed");
        self.generation = next_generation();
        self.common_seen.clear();
        self.newcomers.clear();
        self.slot_index.clear();
        self.slots.clear();
        self.frozen.clear();
        for (slot, &id) in correct_ids.iter().enumerate() {
            let own = self.own.remove(&id);
            if own.is_some() {
                self.frozen.push(slot);
            }
            self.slot_index.insert(id, slot);
            self.slots.push(own);
        }
        FanOut {
            common: &mut self.common,
            common_seen: &mut self.common_seen,
            slots: &mut self.slots,
            frozen: &mut self.frozen,
            spare: &mut self.spare,
            slot_index: &self.slot_index,
            correct_ids,
            trace,
            byzantine_index,
            delivery_round,
        }
    }

    /// Unstages: own parts that hold state go into the registry; a frozen slot
    /// nothing came of returns to the spare pool.
    pub(crate) fn unstage(&mut self, correct_ids: &[NodeId]) {
        let whole = self.common.len();
        for (&id, slot) in correct_ids.iter().zip(self.slots.drain(..)) {
            let Some(mailbox) = slot else { continue };
            if mailbox.own.is_empty() && mailbox.seen.is_empty() && mailbox.prefix == whole {
                self.spare.push(mailbox);
            } else {
                self.own.insert(id, mailbox);
            }
        }
    }
}

/// A generation no routed batch of any engine in the process has had: what
/// keys a common list ([`CommonKey`](crate::CommonKey)), whose buffer is
/// reused from round to round and so cannot be named by its address. Only
/// uniqueness matters, so the counter publishes nothing and is `Relaxed`.
fn next_generation() -> u64 {
    static GENERATIONS: AtomicU64 = AtomicU64::new(0);
    GENERATIONS.fetch_add(1, Ordering::Relaxed) + 1
}

/// One round's staged recipients (see [`Inboxes::stage`]): slot `i` belongs to
/// the round's `i`-th correct node. A broadcast reaches the *correct*
/// recipients as one entry of the common list — messages to Byzantine
/// identities are "delivered" to the adversary, which already saw everything
/// via the rushing view, so nothing is stored (or cloned) for them.
///
/// Both delivery policies land through here, so both dedup the same way: a
/// message is dropped iff an equal `(sender, payload)` is already in the
/// recipient's inbox. The payload handle is cloned (a reference-count bump)
/// and its **cached** digest keys the dedup sets — neither a payload clone nor
/// a payload hash happens on the way in, and the exact comparison runs only
/// on a digest hit.
pub(crate) struct FanOut<'a, P> {
    common: &'a mut Vec<Envelope<P>>,
    common_seen: &'a mut HashMap<(NodeId, u64), usize, FastState>,
    slots: &'a mut [Option<Mailbox<P>>],
    frozen: &'a mut Vec<usize>,
    spare: &'a mut Vec<Mailbox<P>>,
    slot_index: &'a HashMap<NodeId, usize, FastState>,
    correct_ids: &'a [NodeId],
    trace: &'a mut Option<TraceLog<P>>,
    byzantine_index: &'a HashSet<NodeId>,
    delivery_round: u64,
}

impl<P: PartialEq> FanOut<'_, P> {
    /// The slot of a correct recipient, if `id` is one this round.
    #[inline]
    pub(crate) fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.slot_index.get(&id).copied()
    }

    /// Lands a payload for every staged recipient: once on the common list,
    /// for all whose share of it is not frozen, and in the own part of each
    /// that is. Recipients are walked one by one only to reach the frozen
    /// ones — or, with tracing on, to record one event per recipient in
    /// membership order.
    #[inline]
    pub(crate) fn land_all(&mut self, from: NodeId, payload: &Shared<P>, deliveries: &mut u64) {
        let fresh = match self.common_seen.entry((from, payload.digest())) {
            Entry::Vacant(first) => {
                first.insert(self.common.len());
                true
            }
            Entry::Occupied(first) => !holds(&self.common[*first.get()..], from, payload),
        };
        if fresh {
            self.common.push(Envelope::new(from, payload.clone()));
        }
        if self.trace.is_none() {
            if fresh {
                *deliveries += (self.slots.len() - self.frozen.len()) as u64;
            }
            for index in 0..self.frozen.len() {
                self.land_own(self.frozen[index], from, payload, deliveries);
            }
            return;
        }
        for slot in 0..self.slots.len() {
            if self.slots[slot].is_some() {
                self.land_own(slot, from, payload, deliveries);
            } else if fresh {
                *deliveries += 1;
                self.record(from, self.correct_ids[slot], payload);
            }
        }
    }

    /// Lands a payload for one staged recipient, freezing its share of the
    /// common list at what has landed so far.
    #[inline]
    pub(crate) fn land_slot(
        &mut self,
        slot: usize,
        from: NodeId,
        payload: &Shared<P>,
        deliveries: &mut u64,
    ) {
        if self.slots[slot].is_none() {
            let mut mailbox = self.spare.pop().unwrap_or_default();
            mailbox.prefix = self.common.len();
            self.slots[slot] = Some(mailbox);
            self.frozen.push(slot);
        }
        self.land_own(slot, from, payload, deliveries);
    }

    /// Lands a point-to-point message, if its recipient is correct this round.
    #[inline]
    pub(crate) fn land_message(&mut self, message: &Directed<P>, deliveries: &mut u64) {
        if let Some(slot) = self.slot_of(message.to) {
            self.land_slot(slot, message.from, &message.payload, deliveries);
        }
    }

    /// Appends to a frozen slot's own part, unless an equal message is already
    /// in the recipient's inbox — within its prefix of the common list, or in
    /// the own part itself.
    fn land_own(&mut self, slot: usize, from: NodeId, payload: &Shared<P>, deliveries: &mut u64) {
        let mailbox = self.slots[slot].as_mut().expect("a frozen slot");
        let key = (from, payload.digest());
        if mailbox.prefix > 0 {
            if let Some(&first) = self.common_seen.get(&key) {
                if first < mailbox.prefix
                    && holds(&self.common[first..mailbox.prefix], from, payload)
                {
                    return;
                }
            }
        }
        // The digest pair was already present: either a true duplicate (drop it)
        // or a 64-bit collision between distinct payloads (deliver anyway). The
        // exact check runs only on digest hits, so the common path stays O(1).
        if !mailbox.seen.insert(key) && holds(&mailbox.own, from, payload) {
            return;
        }
        mailbox.own.push(Envelope::new(from, payload.clone()));
        *deliveries += 1;
        self.record(from, self.correct_ids[slot], payload);
    }

    /// Traces one delivery, if tracing is on.
    #[inline]
    fn record(&mut self, from: NodeId, to: NodeId, payload: &Shared<P>) {
        if let Some(trace) = self.trace {
            trace.record(TraceEvent {
                round: self.delivery_round,
                from,
                to,
                byzantine: self.byzantine_index.contains(&from),
                payload: payload.clone(),
            });
        }
    }
}

/// Whether `entries` hold a message equal to `(from, payload)`.
fn holds<P: PartialEq>(entries: &[Envelope<P>], from: NodeId, payload: &Shared<P>) -> bool {
    entries
        .iter()
        .any(|e| e.from == from && e.payload == *payload)
}

/// The `NextRound` delivery policy: everything sent in a round is landed in
/// its recipients' next-round inboxes before the round ends (`deliver`).
fn route_next_round<P: PartialEq>(routing: Routing<'_, P>) {
    let deliver_started = Instant::now();
    let Routing {
        round,
        correct_ids,
        traffic,
        byzantine_traffic,
        byzantine_index,
        inboxes,
        trace,
        metrics,
        timings,
        ..
    } = routing;
    let mut deliveries = 0u64;
    let mut fan = inboxes.stage(correct_ids, trace, byzantine_index, round + 1);
    for item in traffic.items() {
        match item {
            TrafficItem::Broadcast { from, payload } => {
                fan.land_all(*from, payload, &mut deliveries)
            }
            TrafficItem::Unicast(message) => fan.land_message(message, &mut deliveries),
        }
    }
    for message in byzantine_traffic {
        fan.land_message(message, &mut deliveries);
    }
    inboxes.unstage(correct_ids);
    metrics.credit_deliveries(round, deliveries);
    timings.add("deliver", elapsed_ns(deliver_started));
}

/// When a produced message becomes an inbox entry — the one decision an
/// engine can legitimately vary (see module docs). [`Engine::run_round`],
/// [`Engine::add_node`] and [`Engine::remove_node`] are the only places that
/// look inside.
enum Delivery<P> {
    /// Lock-step rounds: sent in round `r`, consumed in round `r + 1`.
    NextRound,
    /// Virtual time: a message lands when its link delay says so, a node steps
    /// when its own timer fires.
    Timed(Box<Timed<P>>),
}

/// The round engine (see module docs).
pub struct Engine<N: Protocol, A: Adversary<N::Payload>> {
    nodes: Vec<N>,
    adversary: A,
    byzantine_ids: Vec<NodeId>,
    /// O(1) membership index mirroring `nodes` (by id).
    correct_index: HashSet<NodeId>,
    /// O(1) membership index mirroring `byzantine_ids`.
    byzantine_index: HashSet<NodeId>,
    /// Every inbox: the round's common list plus the per-recipient own parts.
    inboxes: Inboxes<N::Payload>,
    /// Reusable compact traffic buffer for the current round.
    traffic: RoundTraffic<N::Payload>,
    /// When a produced message becomes an inbox entry.
    delivery: Delivery<N::Payload>,
    round: u64,
    metrics: Metrics,
    timings: PhaseTimings,
    /// The delivery trace; `None` until [`Engine::enable_trace`].
    trace: Option<TraceLog<N::Payload>>,
    churn: Option<ChurnDriver<N>>,
    /// The crash-recovery subsystem; `None` until [`Engine::enable_recovery`]
    /// (which a crash-bearing [`Engine::set_churn`] calls).
    recovery: Option<RecoveryManager<N>>,
}

/// The engine under its default `NextRound` policy — the name the protocol
/// crates, baselines, benches and tests construct it by.
pub type SyncEngine<N, A> = Engine<N, A>;

impl<N: Protocol, A: Adversary<N::Payload>> Engine<N, A> {
    /// Creates a lock-step (`NextRound`) engine.
    ///
    /// `byzantine_ids` are the identities controlled by `adversary`; they may overlap
    /// with nothing (a purely silent adversary may control zero identities).
    pub fn new(nodes: Vec<N>, adversary: A, byzantine_ids: Vec<NodeId>) -> Self {
        Self::assemble(nodes, adversary, byzantine_ids, None)
    }

    /// Creates a `Timed` engine: deliveries follow `timing`'s link delays and
    /// nodes step on their own round timers (see [`event`](crate::event)).
    /// The spec is resolved against `nodes` in order (a
    /// [`DelaySpec::Partition`](crate::DelaySpec::Partition)'s first group is
    /// its first nodes); `seed` feeds the jitter and skew streams.
    pub fn with_timing(
        nodes: Vec<N>,
        adversary: A,
        byzantine_ids: Vec<NodeId>,
        timing: &TimingSpec,
        seed: u64,
    ) -> Self {
        Self::assemble(nodes, adversary, byzantine_ids, Some((timing, seed)))
    }

    fn assemble(
        nodes: Vec<N>,
        adversary: A,
        byzantine_ids: Vec<NodeId>,
        timing: Option<(&TimingSpec, u64)>,
    ) -> Self {
        let correct_index = nodes.iter().map(|n| n.id()).collect();
        let byzantine_index = byzantine_ids.iter().copied().collect();
        let delivery = match timing {
            None => Delivery::NextRound,
            Some((timing, seed)) => Delivery::Timed(Box::new(Timed::new(
                timing,
                seed,
                nodes.iter().map(|n| n.id()),
            ))),
        };
        Engine {
            nodes,
            adversary,
            byzantine_ids,
            correct_index,
            byzantine_index,
            inboxes: Inboxes::default(),
            traffic: RoundTraffic::new(),
            delivery,
            round: 0,
            metrics: Metrics::new(),
            timings: PhaseTimings::default(),
            trace: None,
            churn: None,
            recovery: None,
        }
    }

    /// Registers a churn plan that the engine applies itself: before executing round
    /// `r`, every [`ChurnEvent`] scheduled for `r` takes effect — correct joiners are
    /// constructed through `joiner`, leavers are removed, and Byzantine identities
    /// are handed to (or taken from) the adversary. This replaces the older pattern
    /// of drivers interleaving `add_node` / `remove_node` calls with `run_rounds`.
    ///
    /// A schedule with [`ChurnEvent::Crash`] / [`ChurnEvent::Restart`] events
    /// needs the crash-recovery subsystem, so it enables recovery with the
    /// default [`WalConfig`] unless [`Engine::enable_recovery`] already
    /// installed one. A crash-free schedule leaves recovery off.
    pub fn set_churn(
        &mut self,
        schedule: ChurnSchedule,
        joiner: impl FnMut(NodeId) -> N + 'static,
    ) {
        if schedule.has_crash_events() && self.recovery.is_none() {
            self.enable_recovery(WalConfig::default());
        }
        self.churn = Some(ChurnDriver {
            schedule,
            joiner: Box::new(joiner),
            applied_upto: 0,
        });
    }

    /// Applies the churn events scheduled to take effect before `round`. Each round's
    /// events are applied at most once, even if an error made the caller retry
    /// `run_round`; the error surfaces once and a retry proceeds with whatever did
    /// apply.
    fn apply_churn(&mut self, round: u64) -> Result<(), SimError> {
        let Some(mut driver) = self.churn.take() else {
            return Ok(());
        };
        if round <= driver.applied_upto {
            self.churn = Some(driver);
            return Ok(());
        }
        driver.applied_upto = round;
        let mut result = Ok(());
        for event in driver.schedule.events_before_round(round) {
            let applied = match event {
                ChurnEvent::JoinCorrect(id) => self.add_node((driver.joiner)(id)),
                ChurnEvent::LeaveCorrect(id) => self.remove_node(id).map(|_| ()),
                ChurnEvent::JoinByzantine(id) => self.add_byzantine_id(id),
                ChurnEvent::LeaveByzantine(id) => self.remove_byzantine_id(id),
                ChurnEvent::Crash(id) => self.crash_node(id, round),
                ChurnEvent::Restart { id, policy } => self.restart_node(id, policy, round),
            };
            if let Err(error) = applied {
                result = Err(error);
                break;
            }
        }
        self.churn = Some(driver);
        result
    }

    /// Crashes a node before `round` executes: a Byzantine identity is handed
    /// back by the adversary (only bookkeeping — its "state" is the
    /// adversary's); a correct node is removed and its volatile state dropped,
    /// leaving the base snapshot plus write-ahead log as the only survivors.
    fn crash_node(&mut self, id: NodeId, round: u64) -> Result<(), SimError> {
        if self.byzantine_index.contains(&id) {
            self.remove_byzantine_id(id)?;
            self.recovery_mut().crash_byzantine(id);
            return Ok(());
        }
        let node = self.remove_node(id)?;
        self.recovery_mut().crash(node, round);
        Ok(())
    }

    /// Restarts a crashed node before `round` executes: replays its log per
    /// the policy and re-admits it through the ordinary membership path (so it
    /// re-announces exactly like a churn joiner).
    fn restart_node(
        &mut self,
        id: NodeId,
        policy: RestartPolicy,
        round: u64,
    ) -> Result<(), SimError> {
        let recovery = self.recovery_mut();
        if recovery.take_crashed_byzantine(id) {
            return self.add_byzantine_id(id);
        }
        let node = recovery.restart(id, policy, round)?;
        self.add_node(node)
    }

    /// The recovery manager a crash or restart event goes through; the
    /// schedule that holds the event enabled it in [`Engine::set_churn`].
    fn recovery_mut(&mut self) -> &mut RecoveryManager<N> {
        self.recovery
            .as_mut()
            .expect("set_churn enables recovery for a crash schedule")
    }

    /// Validates that no identifier is used twice across correct and Byzantine nodes.
    pub fn validate_ids(&self) -> Result<(), SimError> {
        let mut seen = HashSet::new();
        for id in self
            .nodes
            .iter()
            .map(|n| n.id())
            .chain(self.byzantine_ids.iter().copied())
        {
            if !seen.insert(id) {
                return Err(SimError::DuplicateId(id));
            }
        }
        Ok(())
    }

    /// The number of rounds (batches, under `Timed`) executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current virtual time; under `NextRound` time is the round count.
    pub fn now(&self) -> u64 {
        match &self.delivery {
            Delivery::NextRound => self.round,
            Delivery::Timed(timed) => timed.now(),
        }
    }

    /// Number of messages still in flight (scheduled, not yet delivered) —
    /// always 0 under `NextRound`, which lands everything within the round.
    pub fn in_flight(&self) -> usize {
        match &self.delivery {
            Delivery::NextRound => 0,
            Delivery::Timed(timed) => timed.in_flight(),
        }
    }

    /// Entries pushed into the `Timed` policy's calendar so far — one per
    /// sender × payload × arrival instant, however many recipients it fans out
    /// to (compare [`Engine::in_flight`] and the delivery count, which are per
    /// point-to-point message). Always 0 under `NextRound`. A deterministic
    /// work counter: it gates the broadcast compaction of the flight store.
    pub fn flight_entries(&self) -> u64 {
        match &self.delivery {
            Delivery::NextRound => 0,
            Delivery::Timed(timed) => timed.flight_entries(),
        }
    }

    /// The correct nodes, in insertion order.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Mutable access to the correct nodes (used by dynamic-network drivers that need
    /// to feed external inputs, e.g. events to order, between rounds).
    pub fn nodes_mut(&mut self) -> &mut [N] {
        &mut self.nodes
    }

    /// Looks up a correct node by identifier.
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.nodes.iter().find(|n| n.id() == id)
    }

    /// Identifiers of the correct nodes currently in the system.
    pub fn correct_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.id()).collect()
    }

    /// Identifiers currently controlled by the adversary.
    pub fn byzantine_ids(&self) -> &[NodeId] {
        &self.byzantine_ids
    }

    /// Whether `id` is currently a correct node (O(1)).
    pub fn is_correct(&self, id: NodeId) -> bool {
        self.correct_index.contains(&id)
    }

    /// Whether `id` is currently controlled by the adversary (O(1)).
    pub fn is_byzantine(&self, id: NodeId) -> bool {
        self.byzantine_index.contains(&id)
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Wall-clock time accumulated per round phase since the engine was created
    /// (see [`PhaseTimings`]). Measurement-only; never part of a report.
    pub fn phase_timings(&self) -> PhaseTimings {
        self.timings.clone()
    }

    /// The trace log, if [`Engine::enable_trace`] was called.
    pub fn trace(&self) -> Option<&TraceLog<N::Payload>> {
        self.trace.as_ref()
    }

    /// Keeps a [`TraceLog`] of every delivery from now on, up to 2^20 events
    /// (memory-heavy; off by default). Call before any round has run to trace
    /// the whole run.
    pub fn enable_trace(&mut self) {
        self.trace = Some(TraceLog::with_capacity(TRACE_CAPACITY));
    }

    /// Enables crash recovery under `config`: every correct node's rounds are
    /// write-ahead logged (inbox consumed, message digests sent, round
    /// committed) and a node's snapshot is its clone. [`Engine::set_churn`]
    /// calls this with the default [`WalConfig`] for a schedule with crash
    /// events; call it yourself to force recovery on a crash-free run or to
    /// pick a configuration (tests use a `sync_every > 1` cadence to open an
    /// unsynced suffix for fault injection). It replaces any manager already
    /// installed, so call it before any round has run. On a crash-free run the
    /// logging is observationally silent: reports, metrics and traces are
    /// byte-identical to a run without recovery.
    pub fn enable_recovery(&mut self, config: WalConfig) {
        self.recovery = Some(RecoveryManager::new(config));
    }

    /// Whether crash recovery is enabled.
    pub fn recovery_enabled(&self) -> bool {
        self.recovery.is_some()
    }

    /// Every restart performed so far (empty if recovery is disabled or no
    /// crash/restart cycle has completed yet).
    pub fn recovery_restarts(&self) -> &[RestartRecord] {
        self.recovery.as_ref().map_or(&[], |r| r.restarts())
    }

    /// Envelopes currently held by the inboxes — the round's common list
    /// counted once, however many recipients read it, plus every recipient's
    /// own entries. One component of the soak driver's memory proxy.
    pub fn queued_envelopes(&self) -> usize {
        self.inboxes.queued()
    }

    /// Records currently held across all write-ahead logs (0 if recovery is
    /// disabled) — the other component of the soak memory proxy.
    pub fn wal_entries(&self) -> usize {
        self.recovery.as_ref().map_or(0, |r| r.wal_entries())
    }

    /// Adds a correct node between rounds (dynamic join). The node starts executing
    /// from its own round 1 in the next engine round; its inbox starts empty.
    pub fn add_node(&mut self, node: N) -> Result<(), SimError> {
        let id = node.id();
        if self.correct_index.contains(&id) || self.byzantine_index.contains(&id) {
            return Err(SimError::DuplicateId(id));
        }
        // Policy question 2 — what happens when a node joins or leaves?
        if let Delivery::Timed(timed) = &mut self.delivery {
            timed.arm(id, self.round > 0);
        }
        self.inboxes.admit(id);
        self.correct_index.insert(id);
        self.nodes.push(node);
        Ok(())
    }

    /// Removes a correct node between rounds (dynamic leave). Pending messages to the
    /// node are dropped. Returns the removed node.
    pub fn remove_node(&mut self, id: NodeId) -> Result<N, SimError> {
        let idx = self
            .nodes
            .iter()
            .position(|n| n.id() == id)
            .ok_or(SimError::UnknownNode(id))?;
        self.correct_index.remove(&id);
        if let Delivery::Timed(timed) = &mut self.delivery {
            timed.disarm(id);
        }
        self.inboxes.remove(id);
        Ok(self.nodes.remove(idx))
    }

    /// Registers an additional Byzantine identity (dynamic join of a faulty node).
    pub fn add_byzantine_id(&mut self, id: NodeId) -> Result<(), SimError> {
        if self.correct_index.contains(&id) || self.byzantine_index.contains(&id) {
            return Err(SimError::DuplicateId(id));
        }
        self.byzantine_index.insert(id);
        self.byzantine_ids.push(id);
        Ok(())
    }

    /// Removes a Byzantine identity (dynamic leave of a faulty node).
    pub fn remove_byzantine_id(&mut self, id: NodeId) -> Result<(), SimError> {
        let idx = self
            .byzantine_ids
            .iter()
            .position(|&b| b == id)
            .ok_or(SimError::UnknownNode(id))?;
        self.byzantine_index.remove(&id);
        self.byzantine_ids.remove(idx);
        Ok(())
    }

    /// Executes one round (one batch, under `Timed`). Returns an error only if
    /// the adversary tried to forge a sender identity or a registered churn
    /// event was inapplicable.
    pub fn run_round(&mut self) -> Result<(), SimError> {
        // Policy question 1 — which nodes are due, and under which round
        // number? `Timed` first advances its clock to the earliest due timer.
        if let Delivery::Timed(timed) = &mut self.delivery {
            let schedule_started = Instant::now();
            timed.advance();
            self.timings.add("schedule", elapsed_ns(schedule_started));
        }
        let step_started = Instant::now();
        self.apply_churn(self.round + 1)?;
        self.round += 1;
        let correct_ids = self.correct_ids();

        // Phase 1 (produce): the due correct nodes consume their inboxes and
        // produce outgoing messages, kept compact (broadcasts unexpanded,
        // payloads allocated once into shared handles) in the round traffic.
        self.traffic.begin_round(
            correct_ids
                .iter()
                .copied()
                .chain(self.byzantine_ids.iter().copied()),
        );
        // `None`: every node steps under the engine's round number (always,
        // under `NextRound`); otherwise one `Some(local round)` per due node.
        let due = match &mut self.delivery {
            Delivery::NextRound => None,
            Delivery::Timed(timed) => timed.fire_due(&correct_ids),
        };
        // The round number node `index` steps under this batch, if it is due.
        let round = self.round;
        let round_of = |index: usize| due.as_ref().map_or(Some(round), |due| due[index]);
        self.inboxes.open_round(
            self.nodes
                .iter()
                .enumerate()
                .map(|(index, node)| (node.id(), round_of(index).is_some() && !node.terminated())),
        );
        // Write-ahead: the inbox a node is about to consume is logged, under
        // the round number its step context will carry, before the node steps,
        // so a crash mid-round loses the step, never tears it.
        if let Some(recovery) = &mut self.recovery {
            for (index, node) in self.nodes.iter().enumerate() {
                let Some(node_round) = round_of(index).filter(|_| !node.terminated()) else {
                    continue;
                };
                recovery.begin_step(node, node_round, self.inboxes.view(index));
            }
        }
        self.timings.add("step", elapsed_ns(step_started));
        let produce_started = Instant::now();
        let live = match &due {
            None => step_serial(
                &mut self.nodes,
                &RoundContext::new(self.round),
                &self.inboxes,
                &mut self.traffic,
            ),
            Some(due) => step_due(&mut self.nodes, due, &self.inboxes, &mut self.traffic),
        };
        self.timings.add("produce", elapsed_ns(produce_started));
        let step_started = Instant::now();
        // Every view has been consumed; what was left unconsumed belongs to
        // nodes that did not step (terminated ones, whose dedup state must
        // persist, or not yet due) and sits in their own parts.
        self.inboxes.close_round();
        // Log the digests of every produced message and commit the round —
        // *before* the adversary phase: a send becomes network-visible only
        // once it is durable in its sender's log.
        if let Some(recovery) = &mut self.recovery {
            recovery.log_sends(self.traffic.items().iter().map(|item| match item {
                TrafficItem::Broadcast { from, payload } => (*from, payload.digest()),
                TrafficItem::Unicast(message) => (message.from, message.payload.digest()),
            }));
            for node in &self.nodes {
                recovery.commit_step(node);
            }
        }
        self.timings.add("step", elapsed_ns(step_started));

        // Phase 2 (adversary): the rushing adversary observes the round's traffic
        // (lazily expanded) and injects its own directed messages.
        let adversary_started = Instant::now();
        let view = AdversaryView {
            round: self.round,
            correct_ids: &correct_ids,
            byzantine_ids: &self.byzantine_ids,
            correct_traffic: &self.traffic,
        };
        let byzantine_traffic = self.adversary.step(&view);
        for msg in &byzantine_traffic {
            if !self.byzantine_index.contains(&msg.from) {
                return Err(SimError::ForgedSender { claimed: msg.from });
            }
        }
        self.timings.add("adversary", elapsed_ns(adversary_started));

        // The round's metrics row opens before routing so deliveries can be
        // credited to the *sending* round as they land — within the round under
        // `NextRound`, possibly batches later under `Timed`.
        let step_started = Instant::now();
        self.metrics.record_round(RoundMetrics {
            round: self.round,
            correct_messages: self.traffic.point_to_point_count(),
            byzantine_messages: byzantine_traffic.len() as u64,
            deliveries: 0,
            live_correct_nodes: live,
        });
        self.timings.add("step", elapsed_ns(step_started));

        // Phase 3, policy question 3 — how does the round's traffic reach
        // inboxes? The policy lands what is due, credits it to the sending
        // round's metrics row and records its own phase timings.
        let routing = Routing {
            round: self.round,
            correct_ids: &correct_ids,
            traffic: &self.traffic,
            byzantine_traffic: &byzantine_traffic,
            byzantine_index: &self.byzantine_index,
            inboxes: &mut self.inboxes,
            trace: &mut self.trace,
            metrics: &mut self.metrics,
            timings: &mut self.timings,
        };
        match &mut self.delivery {
            Delivery::NextRound => route_next_round(routing),
            Delivery::Timed(timed) => timed.route(routing),
        }
        Ok(())
    }

    /// Runs rounds until `stop` holds (checked before every round) or
    /// `max_rounds` rounds have been executed in total.
    ///
    /// Cap exhaustion is reported as [`RunStatus::MaxRoundsExceeded`], not as an
    /// error — use [`RunStatus::expect_completed`] where an unfinished run should be
    /// treated as a failure.
    pub fn run(&mut self, stop: StopCondition, max_rounds: u64) -> Result<RunStatus, SimError> {
        while !stop.holds(self.round, &self.nodes) {
            if self.round >= max_rounds {
                return Ok(RunStatus::MaxRoundsExceeded { limit: max_rounds });
            }
            self.run_round()?;
        }
        Ok(RunStatus::Completed { rounds: self.round })
    }

    /// Runs until every correct node has terminated, treating cap exhaustion as
    /// [`SimError::MaxRoundsExceeded`]; returns the rounds executed. Convenience for
    /// callers (mostly tests) for which an unfinished run *is* a failure.
    pub fn run_to_termination(&mut self, max_rounds: u64) -> Result<u64, SimError> {
        self.run(StopCondition::AllTerminated, max_rounds)?
            .expect_completed()
    }

    /// Runs until every correct node has produced an output, treating cap exhaustion
    /// as [`SimError::MaxRoundsExceeded`]; returns the rounds executed.
    pub fn run_to_output(&mut self, max_rounds: u64) -> Result<u64, SimError> {
        self.run(StopCondition::AllOutput, max_rounds)?
            .expect_completed()
    }

    /// Runs exactly `rounds` additional rounds.
    pub fn run_rounds(&mut self, rounds: u64) -> Result<(), SimError> {
        for _ in 0..rounds {
            self.run_round()?;
        }
        Ok(())
    }

    /// The `(id, output)` pairs of all correct nodes, in insertion order.
    pub fn outputs(&self) -> Vec<(NodeId, Option<N::Output>)> {
        self.nodes.iter().map(|n| (n.id(), n.output())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FnAdversary, SilentAdversary};
    use crate::event::DelaySpec;
    use crate::message::Outgoing;

    /// A node that broadcasts its id until `decide_round`, when it outputs the
    /// number of distinct senders it has heard from.
    #[derive(Clone, Debug)]
    struct Counter {
        id: NodeId,
        senders: std::collections::HashSet<NodeId>,
        decided: Option<usize>,
        decide_round: u64,
    }

    impl Counter {
        fn new(id: NodeId, decide_round: u64) -> Self {
            Counter {
                id,
                senders: Default::default(),
                decided: None,
                decide_round,
            }
        }
    }

    impl Protocol for Counter {
        type Payload = u64;
        type Output = usize;

        fn id(&self) -> NodeId {
            self.id
        }

        fn step(&mut self, ctx: &RoundContext, inbox: Inbox<'_, u64>) -> Vec<Outgoing<u64>> {
            self.senders.extend(inbox.iter().map(|(from, _)| from));
            if ctx.round >= self.decide_round {
                self.decided = Some(self.senders.len());
                vec![]
            } else {
                vec![Outgoing::broadcast(self.id.raw())]
            }
        }

        fn output(&self) -> Option<usize> {
            self.decided
        }
    }

    fn nodes(n: usize) -> Vec<Counter> {
        (0..n)
            .map(|i| Counter::new(NodeId::new(10 + 3 * i as u64), 3))
            .collect()
    }

    /// A default-configured engine: `NextRound` without a timing, `Timed` with.
    fn engine<A: Adversary<u64>>(
        timing: Option<TimingSpec>,
        nodes: Vec<Counter>,
        adversary: A,
        byzantine_ids: Vec<NodeId>,
    ) -> Engine<Counter, A> {
        match timing {
            None => Engine::new(nodes, adversary, byzantine_ids),
            Some(timing) => Engine::with_timing(nodes, adversary, byzantine_ids, &timing, 0),
        }
    }

    /// Runs `scenario` under both delivery policies — `NextRound`, and `Timed`
    /// at [`TimingSpec::synchronous`], the corner pinned identical to it — and
    /// checks that the two observe exactly the same thing.
    fn both<T: PartialEq + std::fmt::Debug>(scenario: impl Fn(Option<TimingSpec>) -> T) -> T {
        let next_round = scenario(None);
        let timed = scenario(Some(TimingSpec::synchronous()));
        assert_eq!(next_round, timed, "Timed(synchronous) ≡ NextRound");
        next_round
    }

    fn timed(n: usize, timing: TimingSpec, seed: u64) -> Engine<Counter, SilentAdversary> {
        Engine::with_timing(nodes(n), SilentAdversary, vec![], &timing, seed)
    }

    #[test]
    fn all_nodes_hear_everyone_without_adversary() {
        let (metrics, outputs) = both(|timing| {
            let mut engine = engine(timing, nodes(5), SilentAdversary, vec![]);
            engine.validate_ids().unwrap();
            let status = engine.run(StopCondition::AllTerminated, 10).unwrap();
            assert_eq!(status, RunStatus::Completed { rounds: 3 });
            assert!(status.is_completed());
            assert_eq!(status.expect_completed().unwrap(), 3);
            assert_eq!(engine.round(), engine.metrics().rounds);
            assert_eq!(engine.now(), 3, "one time unit per round");
            assert_eq!(engine.in_flight(), 0, "synchronous flights land at once");
            (engine.metrics().clone(), engine.outputs())
        });
        // Two broadcast rounds × 5 senders × 5 recipients.
        assert_eq!(metrics.correct_messages, 50);
        assert_eq!(metrics.deliveries, 50);
        for (_, out) in outputs {
            assert_eq!(out, Some(5));
        }
    }

    #[test]
    fn byzantine_messages_reach_correct_nodes() {
        let (metrics, outputs) = both(|timing| {
            let byz = NodeId::new(999);
            let adv = FnAdversary::new(move |v: &AdversaryView<'_, u64>| {
                v.correct_ids
                    .iter()
                    .map(|&to| Directed::new(byz, to, 4242))
                    .collect()
            });
            let mut engine = engine(timing, nodes(4), adv, vec![byz]);
            engine.run_to_termination(10).unwrap();
            (engine.metrics().clone(), engine.outputs())
        });
        for (_, out) in outputs {
            assert_eq!(out, Some(5)); // 4 correct + 1 byzantine sender seen
        }
        assert!(metrics.byzantine_messages > 0);
    }

    #[test]
    fn forged_sender_is_rejected() {
        both(|timing| {
            let adv = FnAdversary::new(|v: &AdversaryView<'_, u64>| {
                // Claim to be a correct node — must be rejected.
                vec![Directed::new(v.correct_ids[0], v.correct_ids[1], 1)]
            });
            let mut engine = engine(timing, nodes(3), adv, vec![NodeId::new(999)]);
            let err = engine.run_rounds(1).unwrap_err();
            assert!(matches!(err, SimError::ForgedSender { .. }));
        });
    }

    #[test]
    fn duplicate_payload_from_same_sender_is_deduplicated() {
        let m = both(|timing| {
            let byz = NodeId::new(777);
            let adv = FnAdversary::new(move |v: &AdversaryView<'_, u64>| {
                // Send the same payload to the first correct node 5 times.
                vec![Directed::new(byz, v.correct_ids[0], 1); 5]
            });
            let mut engine = engine(timing, nodes(3), adv, vec![byz]);
            engine.run_rounds(1).unwrap();
            engine.metrics().clone()
        });
        // 3 broadcasts × 4 recipients (3 correct + 1 byz) = 12 correct messages;
        // deliveries to correct nodes: each correct node gets 3 correct messages,
        // plus exactly ONE deduplicated byzantine delivery to the first node.
        assert_eq!(m.correct_messages, 12);
        assert_eq!(m.byzantine_messages, 5);
        assert_eq!(m.deliveries, 9 + 1);
    }

    #[test]
    fn dedup_state_persists_for_terminated_nodes() {
        // Every correct node decides in round 1 (decide_round 1 → no broadcasts);
        // the adversary keeps sending the identical (sender, payload) pair. The
        // accumulated inbox of a terminated node is never consumed, so the pair
        // must be delivered exactly once across all rounds — the behaviour the
        // linear-scan dedup of the eager engine had.
        let m = both(|timing| {
            let byz = NodeId::new(777);
            let adv = FnAdversary::new(move |v: &AdversaryView<'_, u64>| {
                vec![Directed::new(byz, v.correct_ids[0], 42)]
            });
            let ns: Vec<Counter> = (0..2).map(|i| Counter::new(NodeId::new(i), 1)).collect();
            let mut engine = engine(timing, ns, adv, vec![byz]);
            engine.run_rounds(4).unwrap();
            engine.metrics().clone()
        });
        assert_eq!(m.byzantine_messages, 4);
        assert_eq!(m.deliveries, 1, "cross-round duplicate dropped");
    }

    #[test]
    fn membership_queries_are_maintained_incrementally() {
        both(|timing| {
            let mut engine = engine(timing, nodes(3), SilentAdversary, vec![NodeId::new(900)]);
            assert!(engine.is_correct(NodeId::new(10)));
            assert!(!engine.is_byzantine(NodeId::new(10)));
            assert!(engine.is_byzantine(NodeId::new(900)));
            engine.remove_node(NodeId::new(10)).unwrap();
            assert!(!engine.is_correct(NodeId::new(10)));
            engine.add_node(Counter::new(NodeId::new(10), 3)).unwrap();
            assert!(engine.is_correct(NodeId::new(10)));
            engine.remove_byzantine_id(NodeId::new(900)).unwrap();
            assert!(!engine.is_byzantine(NodeId::new(900)));
        });
    }

    #[test]
    fn phase_timings_accumulate_and_name_a_dominant_phase() {
        both(|timing| {
            let routing_phases: &[_] = match timing {
                None => &["deliver"],
                Some(_) => &["schedule", "dispatch"],
            };
            let mut engine = engine(timing, nodes(5), SilentAdversary, vec![]);
            assert_eq!(engine.phase_timings(), PhaseTimings::default());
            engine.run_rounds(3).unwrap();
            let timings = engine.phase_timings();
            assert!(timings.total_ns() > 0, "rounds take measurable time");
            let mut expected = vec!["step", "produce", "adversary"];
            expected.extend(routing_phases);
            let mut recorded: Vec<_> = timings.phases().iter().map(|(name, _)| *name).collect();
            recorded.sort_unstable();
            expected.sort_unstable();
            assert_eq!(recorded, expected, "the policy names its own phases");
            assert!(
                timings.total_ns() >= expected.iter().map(|p| timings.get(p)).max().unwrap(),
                "the total covers every phase"
            );
            assert!(expected.contains(&timings.dominant()));
        });
    }

    #[test]
    fn duplicate_ids_are_detected() {
        both(|timing| {
            let mut ns = nodes(3);
            ns.push(Counter::new(NodeId::new(10), 3));
            let engine = engine(timing, ns, SilentAdversary, vec![]);
            assert_eq!(
                engine.validate_ids().unwrap_err(),
                SimError::DuplicateId(NodeId::new(10))
            );
        });
    }

    #[test]
    fn run_respects_max_rounds() {
        both(|timing| {
            // Nodes decide at round 100, cap at 5 rounds.
            let ns: Vec<Counter> = (0..3).map(|i| Counter::new(NodeId::new(i), 100)).collect();
            let mut engine = engine(timing, ns, SilentAdversary, vec![]);
            let status = engine.run(StopCondition::AllTerminated, 5).unwrap();
            assert_eq!(status, RunStatus::MaxRoundsExceeded { limit: 5 });
            assert!(!status.is_completed());
            assert_eq!(
                status.expect_completed().unwrap_err(),
                SimError::MaxRoundsExceeded { limit: 5 }
            );
            assert_eq!(engine.round(), 5);
        });
    }

    #[test]
    fn engine_applies_registered_churn() {
        both(|timing| {
            let mut engine = engine(timing, nodes(3), SilentAdversary, vec![]);
            let schedule = ChurnSchedule::empty()
                .with(2, ChurnEvent::JoinCorrect(NodeId::new(500)))
                .with(2, ChurnEvent::JoinByzantine(NodeId::new(600)))
                .with(3, ChurnEvent::LeaveCorrect(NodeId::new(500)))
                .with(3, ChurnEvent::LeaveByzantine(NodeId::new(600)));
            engine.set_churn(schedule, |id| Counter::new(id, 100));
            engine.run_rounds(1).unwrap();
            assert_eq!(engine.correct_ids().len(), 3);
            engine.run_rounds(1).unwrap();
            assert_eq!(
                engine.correct_ids().len(),
                4,
                "joiner arrives before round 2"
            );
            assert_eq!(engine.byzantine_ids().len(), 1);
            assert_eq!(
                engine.metrics().per_round[1].live_correct_nodes,
                4,
                "the joiner steps with the round that admitted it"
            );
            engine.run_rounds(1).unwrap();
            assert_eq!(
                engine.correct_ids().len(),
                3,
                "leaver departs before round 3"
            );
            assert!(engine.byzantine_ids().is_empty());
            engine.metrics().clone()
        });
    }

    #[test]
    fn inapplicable_churn_event_is_an_error() {
        both(|timing| {
            let mut engine = engine(timing, nodes(3), SilentAdversary, vec![]);
            let schedule =
                ChurnSchedule::empty().with(1, ChurnEvent::LeaveCorrect(NodeId::new(424_242)));
            engine.set_churn(schedule, |id| Counter::new(id, 100));
            assert_eq!(
                engine.run_rounds(1).unwrap_err(),
                SimError::UnknownNode(NodeId::new(424_242))
            );
        });
    }

    #[test]
    fn dynamic_join_and_leave() {
        both(|timing| {
            let mut engine = engine(timing, nodes(3), SilentAdversary, vec![]);
            engine.run_rounds(1).unwrap();
            engine.add_node(Counter::new(NodeId::new(500), 4)).unwrap();
            assert_eq!(engine.correct_ids().len(), 4);
            // Duplicate join is rejected.
            assert!(engine.add_node(Counter::new(NodeId::new(500), 4)).is_err());
            let removed = engine.remove_node(NodeId::new(500)).unwrap();
            assert_eq!(removed.id(), NodeId::new(500));
            assert!(engine.remove_node(NodeId::new(500)).is_err());
            // Byzantine identity management.
            engine.add_byzantine_id(NodeId::new(600)).unwrap();
            assert!(engine.add_byzantine_id(NodeId::new(600)).is_err());
            engine.remove_byzantine_id(NodeId::new(600)).unwrap();
            assert!(engine.remove_byzantine_id(NodeId::new(600)).is_err());
        });
    }

    /// What a crash/restart run is compared on: metrics, restarts, outputs.
    type CrashRun = (Metrics, Vec<RestartRecord>, Vec<(NodeId, Option<usize>)>);

    /// Four nodes; `n10` crashes before round 2 and restarts cleanly before
    /// round 3. `explicit` enables recovery before the schedule is set; without
    /// it the crash-bearing schedule enables recovery itself.
    fn crash_and_restart(timing: Option<TimingSpec>, explicit: bool) -> CrashRun {
        let crashed = NodeId::new(10);
        let mut engine = engine(timing, nodes(4), SilentAdversary, vec![]);
        if explicit {
            engine.enable_recovery(WalConfig::default());
        }
        let schedule = ChurnSchedule::empty()
            .with(2, ChurnEvent::Crash(crashed))
            .with(
                3,
                ChurnEvent::Restart {
                    id: crashed,
                    policy: RestartPolicy::Clean,
                },
            );
        engine.set_churn(schedule, |id| Counter::new(id, 3));
        assert!(engine.recovery_enabled());
        engine.run_rounds(3).unwrap();
        (
            engine.metrics().clone(),
            engine.recovery_restarts().to_vec(),
            engine.outputs(),
        )
    }

    #[test]
    fn a_crash_schedule_enables_recovery_on_a_bare_engine() {
        let bare = both(|timing| crash_and_restart(timing, false));
        assert_eq!(bare.1.len(), 1, "the crashed node restarted");
        assert_eq!(bare.1[0].node, NodeId::new(10));
        assert_eq!(bare, both(|timing| crash_and_restart(timing, true)));
    }

    #[test]
    fn a_crash_free_schedule_leaves_recovery_off() {
        both(|timing| {
            let mut engine = engine(timing, nodes(3), SilentAdversary, vec![]);
            let schedule =
                ChurnSchedule::empty().with(2, ChurnEvent::JoinCorrect(NodeId::new(500)));
            engine.set_churn(schedule, |id| Counter::new(id, 3));
            assert!(!engine.recovery_enabled());
        });
    }

    #[test]
    fn crash_and_restart_recover_a_correct_node_through_the_wal() {
        let crashed = NodeId::new(10);
        let (metrics, restarts, outputs) = both(|timing| crash_and_restart(timing, true));
        // Round 2 ran without the crashed node.
        assert_eq!(metrics.per_round[1].live_correct_nodes, 3);
        // The restart replayed the one committed pre-crash round faithfully.
        assert_eq!(restarts.len(), 1);
        assert_eq!(restarts[0].node, crashed);
        assert_eq!(restarts[0].crash_round, 2);
        assert_eq!(restarts[0].restart_round, 3);
        assert_eq!(restarts[0].recovered_rounds, 1);
        assert_eq!(restarts[0].replayed_rounds, 1);
        assert_eq!(restarts[0].send_conflicts, 0);
        assert!(restarts[0].consumed_monotone);
        // The survivors heard all four senders; the crashed node lost the
        // deliveries addressed to it while it was down but still decided.
        for (id, out) in outputs {
            if id == crashed {
                assert_eq!(out, Some(0), "inboxes queued while down are dropped");
            } else {
                assert_eq!(out, Some(4));
            }
        }
    }

    #[test]
    fn byzantine_crash_cycle_moves_the_identity_out_and_back() {
        both(|timing| {
            let byz = NodeId::new(900);
            let mut engine = engine(timing, nodes(3), SilentAdversary, vec![byz]);
            let schedule = ChurnSchedule::empty().with(1, ChurnEvent::Crash(byz)).with(
                2,
                ChurnEvent::Restart {
                    id: byz,
                    policy: RestartPolicy::Clean,
                },
            );
            engine.set_churn(schedule, |id| Counter::new(id, 100));
            engine.run_rounds(1).unwrap();
            assert!(engine.byzantine_ids().is_empty(), "crashed before round 1");
            engine.run_rounds(1).unwrap();
            assert_eq!(engine.byzantine_ids(), &[byz], "restored before round 2");
            assert!(
                engine.recovery_restarts().is_empty(),
                "a Byzantine cycle is membership bookkeeping, not a WAL replay"
            );
        });
    }

    #[test]
    fn restart_of_a_never_crashed_node_is_unknown() {
        both(|timing| {
            let mut engine = engine(timing, nodes(3), SilentAdversary, vec![]);
            let schedule = ChurnSchedule::empty().with(
                1,
                ChurnEvent::Restart {
                    id: NodeId::new(77),
                    policy: RestartPolicy::Clean,
                },
            );
            engine.set_churn(schedule, |id| Counter::new(id, 100));
            assert_eq!(
                engine.run_rounds(1).unwrap_err(),
                SimError::UnknownNode(NodeId::new(77))
            );
        });
    }

    #[test]
    fn recovery_on_a_crash_free_run_is_observationally_silent() {
        let run = |timing: Option<TimingSpec>, recover: bool| {
            let mut engine = engine(timing, nodes(5), SilentAdversary, vec![]);
            if recover {
                engine.enable_recovery(WalConfig::default());
            }
            engine.run_to_termination(10).unwrap();
            (engine.metrics().clone(), engine.outputs())
        };
        both(|timing| {
            let plain = run(timing.clone(), false);
            assert_eq!(plain, run(timing, true));
            plain
        });
    }

    #[test]
    fn trace_records_deliveries_when_enabled() {
        let events = both(|timing| {
            let mut engine = engine(timing, nodes(3), SilentAdversary, vec![]);
            engine.enable_trace();
            engine.run_rounds(2).unwrap();
            engine.trace().expect("tracing enabled").events().to_vec()
        });
        assert!(!events.is_empty());
        // All traced events are from correct nodes here.
        assert!(events.iter().all(|e| !e.byzantine));
    }

    #[test]
    fn terminated_nodes_stop_sending() {
        both(|timing| {
            let mut engine = engine(timing, nodes(3), SilentAdversary, vec![]);
            engine.run_to_termination(10).unwrap();
            let before = engine.metrics().correct_messages;
            engine.run_rounds(2).unwrap();
            assert_eq!(engine.metrics().correct_messages - before, 0);
        });
    }

    // What only `Timed` can express: delays, partitions, GST, skew, reordering.

    #[test]
    fn constant_delay_postpones_hearing_from_peers() {
        // With a 3-unit link delay and 1-unit rounds, round-1 broadcasts arrive
        // for the round-4 step — after everyone decided in round 3 having heard
        // nobody.
        let timing = TimingSpec::synchronous().with_delay(DelaySpec::Constant { units: 3 });
        let mut engine = timed(4, timing, 0);
        assert!(engine
            .run(StopCondition::AllTerminated, 10)
            .unwrap()
            .is_completed());
        for (_, output) in engine.outputs() {
            assert_eq!(output, Some(0), "messages arrived only after deciding");
        }
    }

    #[test]
    fn gst_stalls_deliveries_until_stabilisation() {
        let gst = |gst: u64| TimingSpec::synchronous().with_delay(DelaySpec::Gst { gst, bound: 1 });
        // With gst = 0 the model is synchronous-with-bound-1 from the start:
        // everything arrives within its round.
        let mut engine = timed(3, gst(0), 0);
        engine.run_rounds(2).unwrap();
        assert_eq!(engine.in_flight(), 0);
        assert_eq!(engine.metrics().deliveries, 2 * 3 * 3);

        let mut engine = timed(3, gst(50), 0);
        engine.run_rounds(2).unwrap();
        // Two broadcast rounds before deciding, 3 × 3 flights each.
        assert_eq!(
            engine.in_flight(),
            2 * 3 * 3,
            "pre-GST broadcasts stay queued"
        );
        assert_eq!(engine.metrics().deliveries, 0, "nothing arrives before GST");
        engine.run_rounds(1).unwrap();
        assert!(
            engine.outputs().iter().all(|(_, out)| *out == Some(0)),
            "nodes decide without hearing anybody"
        );
        // Long after GST the flights have landed — in inboxes nobody consumes
        // any more, so each round-2 repeat of a round-1 payload is a duplicate.
        engine.run_rounds(60).unwrap();
        assert_eq!(engine.in_flight(), 0);
        assert_eq!(engine.metrics().deliveries, 3 * 3);
    }

    #[test]
    fn skewed_timers_still_terminate_and_stay_deterministic() {
        let run = || {
            let mut engine = timed(6, TimingSpec::synchronous().units(4).skew(3), 99);
            assert!(engine
                .run(StopCondition::AllTerminated, 50)
                .unwrap()
                .is_completed());
            (engine.round(), engine.metrics().clone(), engine.outputs())
        };
        let first = run();
        assert!(
            first.0 > 3,
            "skewed timers split the three rounds into partial batches"
        );
        assert_eq!(first, run());
    }

    #[test]
    fn reordering_is_seeded_and_reproducible() {
        let run = |seed: u64| {
            let mut engine = timed(5, TimingSpec::synchronous().reorder(seed), 0);
            assert!(engine
                .run(StopCondition::AllTerminated, 10)
                .unwrap()
                .is_completed());
            engine.metrics().clone()
        };
        assert_eq!(run(7), run(7), "same seed, same execution");
    }

    #[test]
    fn a_flight_lands_iff_its_recipient_was_correct_at_send_and_is_at_arrival() {
        // Two-unit links: what batch r sends lands at the end of batch r + 1.
        let timing = TimingSpec::synchronous().with_delay(DelaySpec::Constant { units: 2 });
        let ns = (0..3).map(|i| Counter::new(NodeId::new(10 + i), 100));
        let mut engine = Engine::with_timing(ns.collect(), SilentAdversary, vec![], &timing, 0);
        let schedule = ChurnSchedule::empty()
            .with(2, ChurnEvent::JoinCorrect(NodeId::new(500)))
            .with(3, ChurnEvent::LeaveCorrect(NodeId::new(10)));
        engine.set_churn(schedule, |id| Counter::new(id, 100));
        engine.run_rounds(1).unwrap();
        assert_eq!(engine.in_flight(), 3 * 3);
        // The joiner was not a member when batch 1 sent: none of those nine
        // flights is for it, though it is staged when they land.
        engine.run_rounds(1).unwrap();
        assert_eq!(engine.metrics().per_round[0].deliveries, 3 * 3);
        assert_eq!(engine.in_flight(), 4 * 4, "batch 2 sent to the joiner too");
        // The leaver is gone when batch 2's flights arrive: its four are
        // discarded, the joiner's four land.
        engine.run_rounds(1).unwrap();
        assert_eq!(engine.metrics().per_round[1].deliveries, 4 * 3);
        assert_eq!(engine.in_flight(), 3 * 3);
        assert_eq!(engine.flight_entries(), 3 + 4 + 3, "one entry a broadcast");
    }

    #[test]
    fn calendar_entries_count_traffic_items_not_deliveries() {
        // Zero jitter: one entry per broadcast plus one per Byzantine message
        // addressed to a correct node — however many recipients a broadcast
        // fans out to.
        let byz = NodeId::new(999);
        let stranger = NodeId::new(31_337);
        let run = |timing: Option<TimingSpec>| {
            let adv = FnAdversary::new(move |v: &AdversaryView<'_, u64>| {
                let mut out: Vec<_> = v
                    .correct_ids
                    .iter()
                    .map(|&to| Directed::new(byz, to, v.round))
                    .collect();
                out.push(Directed::new(byz, stranger, v.round));
                out
            });
            let mut engine = engine(timing, nodes(6), adv, vec![byz]);
            let mut entries = vec![];
            for _ in 0..3 {
                engine.run_rounds(1).unwrap();
                assert_eq!(engine.in_flight(), 0);
                entries.push(engine.flight_entries());
            }
            (engine.metrics().clone(), entries)
        };
        let (metrics, entries) = run(Some(TimingSpec::synchronous()));
        // Rounds 1 and 2: six broadcasts and six Byzantine messages to correct
        // nodes; round 3 (everyone decides): the six Byzantine messages alone.
        assert_eq!(entries, vec![12, 24, 30]);
        assert_eq!(metrics.deliveries, 2 * (6 * 6 + 6) + 6);
        let (sync_metrics, sync_entries) = run(None);
        assert_eq!(sync_metrics, metrics);
        assert_eq!(sync_entries, vec![0, 0, 0], "`NextRound` has no calendar");
    }

    #[test]
    fn jittered_broadcasts_split_into_at_most_one_entry_per_arrival_instant() {
        let jitter = TimingSpec::synchronous()
            .units(8)
            .with_delay(DelaySpec::Jitter { min: 1, max: 8 });
        for spec in [jitter.clone(), jitter.reorder(5)] {
            let mut engine = timed(24, spec, 3);
            engine.run_rounds(2).unwrap();
            let items = 2 * 24;
            assert_eq!(engine.in_flight(), 0, "in-round jitter lands in its round");
            assert_eq!(engine.metrics().deliveries, items * 24);
            let entries = engine.flight_entries();
            assert!(entries > items, "24 draws from 8 instants do split");
            assert!(entries <= 8 * items, "{entries} entries for {items} items");
        }
    }

    fn partitioned_halves(cross: Option<u64>) -> Engine<Counter, SilentAdversary> {
        let timing = TimingSpec::synchronous().with_delay(DelaySpec::PartitionHalves { cross });
        let mut engine = timed(4, timing, 0);
        assert!(engine
            .run(StopCondition::AllTerminated, 10)
            .unwrap()
            .is_completed());
        for (_, output) in engine.outputs() {
            assert_eq!(output, Some(2), "each half hears only its own two members");
        }
        engine
    }

    #[test]
    fn delay_spec_none_cross_drops_messages_for_good() {
        // The Lemma 14 construction: cross-partition messages never arrive.
        let engine = partitioned_halves(None);
        assert_eq!(engine.in_flight(), 0, "dropped flights are never queued");
    }

    #[test]
    fn bounded_cross_partition_delay_is_delivered_but_too_late() {
        // The Lemma 15 construction: the cross-partition messages exist but are
        // still in flight when both halves have decided — a bounded delay,
        // unknown to the nodes, is enough to split them.
        let engine = partitioned_halves(Some(50));
        assert!(engine.in_flight() > 0);
    }

    // -----------------------------------------------------------------------
    // Common keys: what names a view's common part.
    // -----------------------------------------------------------------------

    /// Routes one batch to `ids` through the inboxes as a delivery policy
    /// does: `land` drives the fan-out between staging and unstaging.
    fn route(inboxes: &mut Inboxes<u64>, ids: &[NodeId], land: impl FnOnce(&mut FanOut<'_, u64>)) {
        let mut trace = None;
        let byzantine = HashSet::new();
        let mut fan = inboxes.stage(ids, &mut trace, &byzantine, 2);
        land(&mut fan);
        inboxes.unstage(ids);
    }

    /// Broadcasts `payload` from `from` to every staged recipient.
    fn broadcast(fan: &mut FanOut<'_, u64>, from: NodeId, payload: u64) {
        fan.land_all(from, &Shared::new(payload), &mut 0);
    }

    fn keyed_ids() -> Vec<NodeId> {
        [3, 5, 7].map(NodeId::new).to_vec()
    }

    #[test]
    fn consecutive_rounds_reusing_one_common_buffer_get_different_keys() {
        let ids = keyed_ids();
        let mut inboxes = Inboxes::default();
        let mut keys = Vec::new();
        let mut buffers = Vec::new();
        for _ in 0..2 {
            route(&mut inboxes, &ids, |fan| {
                for &from in &ids {
                    broadcast(fan, from, 1);
                }
            });
            inboxes.open_round(ids.iter().map(|&id| (id, true)));
            let key = inboxes.view(0).common_key().expect("a keyed view");
            assert!((1..3).all(|index| inboxes.view(index).common_key() == Some(key)));
            keys.push(key);
            buffers.push(inboxes.common.as_ptr());
            inboxes.close_round();
        }
        assert_eq!(buffers[0], buffers[1], "the common list's buffer is reused");
        assert_eq!(keys[0].prefix(), keys[1].prefix());
        assert_ne!(
            keys[0], keys[1],
            "yet the second round's list has a key of its own"
        );
    }

    #[test]
    fn a_frozen_recipient_carries_its_own_prefix_in_its_key() {
        let ids = keyed_ids();
        let mut inboxes = Inboxes::default();
        route(&mut inboxes, &ids, |fan| {
            broadcast(fan, ids[0], 1);
            fan.land_message(&Directed::new(ids[2], ids[1], 9), &mut 0);
            broadcast(fan, ids[2], 2);
        });
        inboxes.open_round(ids.iter().map(|&id| (id, true)));
        let whole = inboxes.view(0).common_key().expect("keyed");
        let frozen = inboxes.view(1).common_key().expect("keyed");
        assert_eq!((whole.prefix(), frozen.prefix()), (2, 1));
        assert_eq!(whole.generation(), frozen.generation());

        let view = inboxes.view(1);
        let (key, common, own) = view.split_common().expect("keyed");
        assert_eq!(key, frozen);
        assert_eq!((common.len(), own.len()), (1, 2));
        assert!(common.common_key().is_none() && own.common_key().is_none());
        let split: Vec<(NodeId, &u64)> = common.iter().chain(own.iter()).collect();
        assert!(split.into_iter().eq(view.iter()), "the parts walk the view");
        inboxes.close_round();
    }

    #[test]
    fn views_without_a_common_prefix_are_keyless() {
        let ids = keyed_ids();
        let newcomer = NodeId::new(11);
        let mut inboxes = Inboxes::default();
        route(&mut inboxes, &ids, |fan| broadcast(fan, ids[0], 1));
        inboxes.admit(newcomer);
        // The third member does not step: its prefix is materialised.
        let stepping = [
            (ids[0], true),
            (ids[1], true),
            (ids[2], false),
            (newcomer, true),
        ];
        inboxes.open_round(stepping.into_iter());
        assert!(inboxes.view(0).common_key().is_some());
        assert!(
            inboxes.view(3).common_key().is_none(),
            "a newcomer reads no prefix"
        );
        assert!(inboxes.view(3).is_empty());
        inboxes.close_round();

        let mut all = ids.clone();
        all.push(newcomer);
        route(&mut inboxes, &all, |fan| broadcast(fan, ids[1], 2));
        inboxes.open_round(all.iter().map(|&id| (id, true)));
        let materialised = inboxes.view(2);
        assert_eq!(
            materialised.len(),
            2,
            "last round's entry, then this round's"
        );
        assert!(
            materialised.common_key().is_none(),
            "a materialised member's entries are its own"
        );
        assert!(inboxes.view(0).common_key().is_some());
        inboxes.close_round();
    }

    #[test]
    fn two_engines_in_one_process_never_share_a_generation() {
        let mut first = engine(None, nodes(3), SilentAdversary, vec![]);
        let mut second = engine(
            Some(TimingSpec::synchronous()),
            nodes(3),
            SilentAdversary,
            vec![],
        );
        let mut generations = Vec::new();
        for _ in 0..3 {
            first.run_round().unwrap();
            second.run_round().unwrap();
            generations.extend([first.inboxes.generation, second.inboxes.generation]);
        }
        let distinct: HashSet<u64> = generations.iter().copied().collect();
        assert_eq!(distinct.len(), generations.len(), "{generations:?}");
    }
}
