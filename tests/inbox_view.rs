//! The inbox view against the per-recipient expansion it replaced.
//!
//! The engine keeps a round's broadcasts once, on a common list every recipient
//! reads in place, and per recipient only what is its own (see
//! `docs/ENGINE.md`). Two layers of evidence that this is the old behaviour at a
//! fraction of the entries:
//!
//! 1. a **model check** — a reference that expands every landed message into a
//!    per-recipient `Vec` with its own dedup set, exactly as the engine did
//!    before the view, driven next to the real engine by seeded random rounds
//!    of scripted nodes and a scripted adversary, under both delivery
//!    policies, and compared entry for entry (what every node read, every
//!    round) and on the whole `Metrics`;
//! 2. the **deterministic gate** — split-vote consensus at n = 32 holds
//!    O(n²) entries at its fattest round, not O(n³), on both engines, with the
//!    message and delivery counts of the parent commit.
//!
//! CI's `scaling-smoke` job runs this file in release as well.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

use rand::Rng;
use uba_core::sim::{AdversaryKind, ConsensusFactory, Simulation};
use uba_simnet::rng::{derive_seed, seeded_rng};
use uba_simnet::{
    AdversaryView, ChurnEvent, ChurnSchedule, DelaySpec, Destination, Directed, Engine, EngineKind,
    FnAdversary, Inbox, Metrics, NodeId, Outgoing, Protocol, RoundContext, RoundMetrics,
    TimingSpec,
};

// ---------------------------------------------------------------------------
// The script: what nodes and adversary send, as pure functions of the seed.
// ---------------------------------------------------------------------------

/// A payload is `tag << 16 | value`. Few values and few tags, so equal
/// payloads recur within a round and across rounds.
fn payload(tag: u64, value: u64) -> u64 {
    tag << 16 | value
}

/// What the whole run shares: the seed, every identifier anybody may address,
/// and the dial the driver turns between rounds.
struct Plan {
    seed: u64,
    /// The initial correct nodes, the joiners, the Byzantine ids, a stranger.
    universe: Vec<NodeId>,
    /// Set for the last rounds, so everything in flight lands before the end.
    quiet: Cell<bool>,
}

impl Plan {
    /// What node `id` sends in its `step`-th step.
    fn sends(&self, id: NodeId, step: u64) -> Vec<Outgoing<u64>> {
        if self.quiet.get() {
            return Vec::new();
        }
        let first = self.universe[0];
        if id == first && step == 2 {
            // The corners, by hand: the same payload broadcast twice, a
            // unicast between two broadcasts, and a unicast repeating what its
            // sender has just broadcast.
            return vec![
                Outgoing::broadcast(payload(0, 1)),
                Outgoing::unicast(self.universe[1], payload(0, 2)),
                Outgoing::broadcast(payload(0, 1)),
                Outgoing::broadcast(payload(0, 3)),
                Outgoing::unicast(self.universe[2], payload(0, 3)),
            ];
        }
        let mut rng = seeded_rng(derive_seed(derive_seed(self.seed, id.raw()), step));
        (0..rng.gen_range(0..4u32))
            .map(|_| {
                let tag = match rng.gen_range(0..2u32) {
                    0 => 0,
                    _ => (step + 1).saturating_sub(rng.gen_range(0..5u64)),
                };
                let message = payload(tag, rng.gen_range(0..4u64));
                match rng.gen_range(0..4u32) {
                    0 => {
                        let to = self.universe[rng.gen_range(0..self.universe.len())];
                        Outgoing::unicast(to, message)
                    }
                    _ => Outgoing::broadcast(message),
                }
            })
            .collect()
    }

    /// What the adversary injects in `round`, given who is correct.
    fn byzantine_traffic(
        &self,
        round: u64,
        correct: &[NodeId],
        byzantine: &[NodeId],
    ) -> Vec<Directed<u64>> {
        if self.quiet.get() || byzantine.is_empty() {
            return Vec::new();
        }
        // Every round, twice: the same message to the node that terminates
        // early — a duplicate within the round and across rounds.
        let nagged = Directed::new(byzantine[0], self.universe[1], payload(0, 777));
        let mut out = vec![nagged.clone(), nagged];
        let mut rng = seeded_rng(derive_seed(derive_seed(self.seed, 0xB12), round));
        for _ in 0..rng.gen_range(0..6u32) {
            let from = byzantine[rng.gen_range(0..byzantine.len())];
            let to = match rng.gen_range(0..8u32) {
                0 => self.universe[rng.gen_range(0..self.universe.len())],
                _ => correct[rng.gen_range(0..correct.len())],
            };
            let message = payload(0, rng.gen_range(0..3u64));
            out.push(Directed::new(from, to, message));
            if rng.gen_range(0..3u32) == 0 {
                out.push(Directed::new(from, to, message));
            }
        }
        out
    }
}

/// One step of a scripted node, as the node saw it.
#[derive(Clone)]
struct Record {
    /// The round number the node stepped under.
    round: u64,
    inbox: Vec<(NodeId, u64)>,
    sent: Vec<Outgoing<u64>>,
}

/// A node that reads its inbox view into its record and sends what the plan
/// says; it terminates after `stop_after` steps, if set.
#[derive(Clone)]
struct Scripted {
    id: NodeId,
    plan: Rc<Plan>,
    stop_after: Option<u64>,
    records: Vec<Record>,
}

impl Protocol for Scripted {
    type Payload = u64;
    type Output = ();

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(&mut self, ctx: &RoundContext, inbox: Inbox<'_, u64>) -> Vec<Outgoing<u64>> {
        let read: Vec<(NodeId, u64)> = inbox.iter().map(|(from, p)| (from, *p)).collect();
        assert_eq!(inbox.len(), read.len());
        assert_eq!(inbox.is_empty(), read.is_empty());
        let again: Vec<(NodeId, u64)> = inbox.iter().map(|(from, p)| (from, *p)).collect();
        assert_eq!(read, again, "a second pass reads the same inbox");
        let sent = self.plan.sends(self.id, self.records.len() as u64 + 1);
        self.records.push(Record {
            round: ctx.round,
            inbox: read,
            sent: sent.clone(),
        });
        sent
    }

    fn output(&self) -> Option<()> {
        self.stop_after
            .filter(|&steps| self.records.len() as u64 >= steps)
            .map(|_| ())
    }
}

// ---------------------------------------------------------------------------
// The reference: one expanded inbox per recipient.
// ---------------------------------------------------------------------------

/// A recipient's inbox as the engine kept it before the view: every message
/// pushed per recipient, deduplicated through the recipient's own `seen` set
/// with an exact scan on a hit (the payload stands in for its digest).
#[derive(Default)]
struct Expanded {
    messages: Vec<(NodeId, u64)>,
    seen: HashSet<(NodeId, u64)>,
}

impl Expanded {
    fn deliver(&mut self, from: NodeId, payload: u64) -> bool {
        if !self.seen.insert((from, payload)) && self.messages.contains(&(from, payload)) {
            return false;
        }
        self.messages.push((from, payload));
        true
    }
}

/// A point-to-point message in flight.
struct Flight {
    from: NodeId,
    to: NodeId,
    payload: u64,
    sent_round: u64,
}

/// The reference model of the engine's delivery: membership, one [`Expanded`]
/// inbox per recipient, the flights by arrival instant, and the metrics.
struct Model {
    /// Link delay in virtual units (1 under `NextRound`, whose time is the
    /// round number).
    delay: u64,
    correct: Vec<NodeId>,
    byzantine: Vec<NodeId>,
    inboxes: HashMap<NodeId, Expanded>,
    calendar: BTreeMap<u64, Vec<Flight>>,
    metrics: Metrics,
    /// What the script exercised: duplicates dropped on arrival.
    duplicates: u64,
}

impl Model {
    fn apply(&mut self, event: ChurnEvent) {
        match event {
            ChurnEvent::JoinCorrect(id) => self.correct.push(id),
            ChurnEvent::LeaveCorrect(id) => {
                self.correct.retain(|&member| member != id);
                self.inboxes.remove(&id);
            }
            other => panic!("the script has no {other:?}"),
        }
    }

    /// Enters one round's traffic, sent at `now`: items in production order,
    /// a broadcast expanded over the correct members in membership order, the
    /// Byzantine messages last; a message is in flight only towards a node
    /// that is correct now.
    fn send(
        &mut self,
        now: u64,
        round: u64,
        live: u64,
        produced: &[(NodeId, &[Outgoing<u64>])],
        byzantine_traffic: &[Directed<u64>],
    ) {
        let recipients = (self.correct.len() + self.byzantine.len()) as u64;
        let mut correct_messages = 0;
        let mut flights = Vec::new();
        for &(from, sent) in produced {
            for outgoing in sent {
                let payload = outgoing.payload;
                let targets = match outgoing.dest {
                    Destination::Broadcast => {
                        correct_messages += recipients;
                        self.correct.clone()
                    }
                    Destination::Unicast(to) => {
                        correct_messages += 1;
                        vec![to]
                    }
                };
                flights.extend(targets.into_iter().map(|to| (from, to, payload)));
            }
        }
        flights.extend(
            byzantine_traffic
                .iter()
                .map(|message| (message.from, message.to, *message.payload())),
        );
        let bucket = self.calendar.entry(now + self.delay).or_default();
        for (from, to, payload) in flights {
            if self.correct.contains(&to) {
                bucket.push(Flight {
                    from,
                    to,
                    payload,
                    sent_round: round,
                });
            }
        }
        self.metrics.record_round(RoundMetrics {
            round,
            correct_messages,
            byzantine_messages: byzantine_traffic.len() as u64,
            deliveries: 0,
            live_correct_nodes: live,
        });
    }

    /// Lands everything arriving up to `horizon`, instants in time order and
    /// messages in sending order, towards the recipients that are still
    /// correct; a delivery is credited to the round that sent it.
    fn dispatch(&mut self, horizon: u64) {
        while let Some(first) = self.calendar.first_entry() {
            if *first.key() > horizon {
                break;
            }
            for flight in first.remove() {
                if !self.correct.contains(&flight.to) {
                    continue;
                }
                let inbox = self.inboxes.entry(flight.to).or_default();
                if inbox.deliver(flight.from, flight.payload) {
                    self.metrics.deliveries += 1;
                    self.metrics.per_round[flight.sent_round as usize - 1].deliveries += 1;
                } else {
                    self.duplicates += 1;
                }
            }
        }
    }

    fn queued(&self) -> usize {
        self.inboxes
            .values()
            .map(|inbox| inbox.messages.len())
            .sum()
    }
}

// ---------------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------------

/// Rounds with traffic, then rounds for what is in flight to land.
const ROUNDS: u64 = 14;
const DRAIN: u64 = 4;

/// Runs one seeded script on the real engine and on the model, side by side,
/// and returns how many duplicates the model dropped on arrival — proof that
/// the script reached that corner and did not just list it.
fn check(seed: u64, timing: Option<TimingSpec>) -> u64 {
    let label = format!("seed {seed}, timing {timing:?}");
    let initial: Vec<NodeId> = (0..6).map(|i| NodeId::new(10 + 3 * i)).collect();
    let joiners = [NodeId::new(500), NodeId::new(501)];
    let byzantine = vec![NodeId::new(900), NodeId::new(901)];
    let mut universe = initial.clone();
    universe.extend(joiners);
    universe.extend(&byzantine);
    universe.push(NodeId::new(31_337));
    let plan = Rc::new(Plan {
        seed,
        universe,
        quiet: Cell::new(false),
    });

    let node = |id: NodeId, stop_after: Option<u64>, plan: &Rc<Plan>| Scripted {
        id,
        plan: Rc::clone(plan),
        stop_after,
        records: Vec::new(),
    };
    // The second node terminates after three steps, the fifth after seven;
    // their inboxes are never read again but keep deduplicating.
    let nodes: Vec<Scripted> = initial
        .iter()
        .enumerate()
        .map(|(index, &id)| {
            let stop_after = match index {
                1 => Some(3),
                4 => Some(7),
                _ => None,
            };
            node(id, stop_after, &plan)
        })
        .collect();
    let adversary = {
        let plan = Rc::clone(&plan);
        FnAdversary::new(move |view: &AdversaryView<'_, u64>| {
            plan.byzantine_traffic(view.round, view.correct_ids, view.byzantine_ids)
        })
    };
    let (mut engine, delay) = match &timing {
        None => (Engine::new(nodes, adversary, byzantine.clone()), 1),
        Some(spec) => {
            let delay = match spec.delay {
                DelaySpec::Synchronous => spec.round_units,
                DelaySpec::Constant { units } => units,
                _ => panic!("the model knows link-independent delays only"),
            };
            let engine = Engine::with_timing(nodes, adversary, byzantine.clone(), spec, seed);
            (engine, delay)
        }
    };
    // Joins and a leave, each between a send and its consumption; the second
    // joiner arrives in the very round the leaver goes.
    let schedule = ChurnSchedule::empty()
        .with(5, ChurnEvent::JoinCorrect(joiners[0]))
        .with(8, ChurnEvent::LeaveCorrect(initial[3]))
        .with(8, ChurnEvent::JoinCorrect(joiners[1]));
    {
        let plan = Rc::clone(&plan);
        engine.set_churn(schedule.clone(), move |id| node(id, None, &plan));
    }

    let mut model = Model {
        delay,
        correct: initial.clone(),
        byzantine,
        inboxes: HashMap::new(),
        calendar: BTreeMap::new(),
        metrics: Metrics::new(),
        duplicates: 0,
    };
    for round in 1..=ROUNDS + DRAIN {
        plan.quiet.set(round > ROUNDS);
        let steps_before: HashMap<NodeId, usize> = engine
            .nodes()
            .iter()
            .map(|node| (node.id, node.records.len()))
            .collect();
        engine.run_round().expect("the script forges nothing");

        // What the last round's routing did, now that its horizon — the
        // instant of this round — is known: land what was due.
        let now = engine.now();
        model.dispatch(now);
        for event in schedule.events_before_round(round) {
            model.apply(event);
        }

        // What every node that stepped read, against its expanded inbox, and
        // the round it stepped under: the engine's, joiners' included.
        let mut live = 0;
        let mut produced: Vec<(NodeId, &[Outgoing<u64>])> = Vec::new();
        for node in engine.nodes() {
            let before = steps_before.get(&node.id).copied().unwrap_or(0);
            if node.records.len() == before {
                continue;
            }
            assert_eq!(node.records.len(), before + 1, "{label}");
            live += 1;
            let record = node.records.last().expect("just stepped");
            assert_eq!(
                record.round,
                engine.round(),
                "{label}: node {} stepped under another round number",
                node.id
            );
            let expected = model.inboxes.remove(&node.id).unwrap_or_default().messages;
            assert_eq!(
                record.inbox, expected,
                "{label}: node {} read a different inbox in round {round}",
                node.id
            );
            produced.push((node.id, &record.sent));
        }
        let byzantine_traffic = plan.byzantine_traffic(round, &model.correct, &model.byzantine);
        model.send(now, round, live, &produced, &byzantine_traffic);
    }
    assert_eq!(engine.in_flight(), 0, "{label}: the drain rounds drained");
    model.dispatch(u64::MAX);
    assert_eq!(engine.metrics(), &model.metrics, "{label}");
    assert!(
        engine.queued_envelopes() <= model.queued(),
        "{label}: the view never holds more than the expansion"
    );
    model.duplicates
}

#[test]
fn the_view_reads_what_the_per_recipient_expansion_held() {
    let synchronous = TimingSpec::synchronous();
    let delayed = TimingSpec::synchronous().with_delay(DelaySpec::Constant { units: 2 });
    for seed in 0..24u64 {
        let seed = derive_seed(0x1B0C_5EED, seed);
        assert!(check(seed, None) > 0, "the script repeats itself");
        check(seed, Some(synchronous.clone()));
        check(seed, Some(delayed.clone()));
    }
}

// ---------------------------------------------------------------------------
// The deterministic gate.
// ---------------------------------------------------------------------------

/// `(correct, byzantine, deliveries)` of the run below on the parent commit
/// (`a8747e6`), whose inboxes peaked at 15,730 envelopes: in an echo round
/// every one of the 22 correct recipients held its own copy of the 22 · 32 =
/// 704 broadcasts next to its ten Byzantine extras.
const PARENT_MESSAGES: (u64, u64, u64) = (48_640, 2_200, 35_640);

#[test]
fn split_vote_consensus_holds_n_squared_entries_not_n_cubed() {
    let n = 32;
    let run = |engine: Option<EngineKind>| {
        let inputs: Vec<u64> = (0..22).map(|i| (i % 2) as u64).collect();
        let mut scenario = Simulation::scenario()
            .correct(22)
            .byzantine(10)
            .seed(0x1B0C)
            .max_rounds(200)
            .adversary(AdversaryKind::SplitVote);
        if let Some(engine) = engine {
            scenario = scenario.engine(engine);
        }
        let mut harness = scenario.build(ConsensusFactory::new(inputs));
        let mut held = Vec::new();
        while !harness.stopped() {
            harness.step_round().expect("nothing is forged");
            held.push(harness.queued_envelopes());
        }
        let report = harness.report_now();
        assert_eq!(report.rounds, 12);
        assert_eq!(
            (
                report.messages.correct,
                report.messages.byzantine,
                report.messages.deliveries
            ),
            PARENT_MESSAGES,
            "a delivery stays a logical point-to-point message"
        );
        held
    };
    let held = run(None);
    assert_eq!(held, run(Some(EngineKind::event())), "sync ≡ event");
    // The echo round: 22 · 32 broadcasts on the common list, once, plus the
    // 10 · 22 directed Byzantine messages in their recipients' own parts.
    assert_eq!(held[1], 22 * 32 + 10 * 22);
    let peak = held.iter().copied().max().expect("twelve rounds");
    assert!(
        peak <= 2 * n * n,
        "{peak} entries held at the fattest round"
    );
}
