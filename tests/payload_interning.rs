//! The hash-consing gate: equal correct broadcasts of a round share one payload.
//!
//! In the id-only model every correct node broadcasts, and the paper's
//! algorithms have them broadcast the *same* messages — the rotor's echoes,
//! `input(x)`, `prefer(x)`, `strongprefer(x)` — which is how the `2n_v/3`
//! quorums form. `RoundTraffic::push_broadcast` hashes a payload once, looks the
//! digest up among the round's broadcasts and confirms a hit with `==`, so a
//! round allocates one payload per distinct broadcast value. This binary checks
//! that count exactly (its own process, so `shared::allocations()` is exact; the
//! tests take a lock because they run on sibling threads), that a digest
//! collision never merges unequal payloads, and that over a grid of families,
//! attacks and both engines the honest allocations are the distinct
//! `(round, payload)` pairs of the traffic, counted here independently.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Mutex;

use uba_baselines::{DolevApproxFactory, KnownRotorFactory, PhaseKingFactory, StBroadcastFactory};
use uba_core::sim::{
    AdversaryKind, ApproxFactory, AttackPlan, BroadcastFactory, ConsensusFactory,
    ParallelConsensusFactory, RotorFactory, ScenarioBuilder, Simulation, TotalOrderFactory,
    TotalOrderPlan,
};
use uba_simnet::adversary::SilentAdversary;
use uba_simnet::shared::allocations;
use uba_simnet::sim::compile_attack_plan;
use uba_simnet::{
    Adversary, AdversaryView, BoxedAdversary, Directed, Engine, EngineConfig, EngineKind,
    EventTiming, IdSpace, Inbox, NodeId, Outgoing, Protocol, ProtocolFactory, RoundContext,
    TrafficItem,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Broadcasts `payload(round, index)` every round and remembers every inbox.
struct Broadcaster<P> {
    id: NodeId,
    index: u64,
    payload: fn(u64, u64) -> P,
    heard: Vec<(u64, NodeId, P)>,
}

impl<P: Clone + std::fmt::Debug + PartialEq + Hash> Protocol for Broadcaster<P> {
    type Payload = P;
    type Output = ();

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(&mut self, ctx: &RoundContext, inbox: Inbox<'_, P>) -> Vec<Outgoing<P>> {
        self.heard.extend(
            inbox
                .iter()
                .map(|(from, payload)| (ctx.round, from, payload.clone())),
        );
        vec![Outgoing::broadcast((self.payload)(ctx.round, self.index))]
    }

    fn output(&self) -> Option<()> {
        None
    }

    fn terminated(&self) -> bool {
        false
    }
}

fn broadcasters<P>(n: usize, payload: fn(u64, u64) -> P) -> Vec<Broadcaster<P>> {
    (0..n as u64)
        .map(|index| Broadcaster {
            id: NodeId::new(100 + 3 * index),
            index,
            payload,
            heard: Vec::new(),
        })
        .collect()
}

/// Both engines over the same nodes, with the delivery trace on.
fn engines<P>(
    nodes: impl Fn() -> Vec<Broadcaster<P>>,
) -> [Engine<Broadcaster<P>, SilentAdversary>; 2]
where
    P: Clone + std::fmt::Debug + PartialEq + Hash,
{
    let config = EngineConfig {
        trace: true,
        trace_capacity: 1 << 20,
        ..Default::default()
    };
    [
        Engine::with_config(nodes(), SilentAdversary, vec![], config),
        Engine::with_timing_config(
            nodes(),
            SilentAdversary,
            vec![],
            EventTiming::synchronous(),
            config,
        ),
    ]
}

#[test]
fn one_equal_broadcast_a_round_is_one_allocation_a_round() {
    let _guard = serial();
    const N: usize = 32;
    const ROUNDS: u64 = 6;
    for mut engine in engines(|| broadcasters(N, |round, _| vec![round; 1_000])) {
        let before = allocations();
        engine.run_rounds(ROUNDS).expect("flood rounds run");
        assert_eq!(allocations() - before, ROUNDS, "one payload a round");
        assert_eq!(engine.metrics().correct_messages, ROUNDS * (N * N) as u64);

        // Every delivered copy of a round's broadcast is the one handle.
        let trace = engine.trace().expect("tracing enabled");
        let mut tokens: BTreeSet<(u64, usize)> = BTreeSet::new();
        for event in trace.events() {
            tokens.insert((event.payload()[0], event.payload.token()));
        }
        assert_eq!(trace.events().len(), ROUNDS as usize * N * N);
        assert_eq!(
            tokens.len() as u64,
            ROUNDS,
            "one token per round: {tokens:?}"
        );
    }
}

/// Equal values must hash alike, so a `Hash` that writes nothing is legal —
/// and makes every payload collide with every other.
#[derive(Clone, Debug, PartialEq)]
struct Colliding(u64);

impl Hash for Colliding {
    fn hash<H: Hasher>(&self, _state: &mut H) {}
}

#[test]
fn colliding_digests_never_merge_unequal_payloads() {
    let _guard = serial();
    const N: usize = 9;
    const ROUNDS: u64 = 5;
    const VALUES: u64 = 4;
    // Node `i` broadcasts `round · 10 + i % 4`: four distinct values a round,
    // each from two or three senders, all under one digest.
    fn value(round: u64, index: u64) -> u64 {
        round * 10 + index % VALUES
    }
    for mut engine in engines(|| broadcasters(N, |round, index| Colliding(value(round, index)))) {
        let before = allocations();
        engine.run_rounds(ROUNDS).expect("rounds run");
        assert_eq!(
            allocations() - before,
            ROUNDS * VALUES,
            "one allocation per distinct value, none per sender"
        );
        let senders: Vec<NodeId> = engine.nodes().iter().map(|node| node.id).collect();
        for node in engine.nodes() {
            // What round r + 1 heard is what every sender broadcast in round r.
            let expected: Vec<(u64, NodeId, Colliding)> = (1..ROUNDS)
                .flat_map(|round| {
                    senders.iter().enumerate().map(move |(index, &from)| {
                        (round + 1, from, Colliding(value(round, index as u64)))
                    })
                })
                .collect();
            assert_eq!(node.heard, expected, "node {:?}", node.id);
        }
    }
}

/// What the traffic showed the adversary, counted with `==` and nothing else.
#[derive(Debug, Default)]
struct Counts {
    broadcasts: u64,
    /// Distinct broadcast payloads, summed over rounds.
    distinct: u64,
    /// Correct unicasts: each is its own allocation.
    unicasts: u64,
    /// Payloads the wrapped adversary allocated.
    adversary: u64,
}

/// Wraps a factory's compiled attack, counting the round's correct traffic
/// before handing the view on.
struct Counting<P> {
    inner: BoxedAdversary<P>,
    counts: Rc<RefCell<Counts>>,
}

impl<P: PartialEq> Adversary<P> for Counting<P> {
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        let mut counts = self.counts.borrow_mut();
        let mut distinct: Vec<&P> = Vec::new();
        for item in view.correct_traffic.items() {
            match item {
                TrafficItem::Broadcast { payload, .. } => {
                    counts.broadcasts += 1;
                    if !distinct.contains(&payload.get()) {
                        distinct.push(payload.get());
                    }
                }
                TrafficItem::Unicast(_) => counts.unicasts += 1,
            }
        }
        counts.distinct += distinct.len() as u64;
        let before = allocations();
        let out = self.inner.step(view);
        counts.adversary += allocations() - before;
        out
    }
}

/// Runs one family under every attack of the grid on both engines and checks
/// that the honest allocations are the distinct payloads of each round.
/// Returns `(broadcasts, distinct)` over the whole grid.
fn check_family<F: ProtocolFactory>(
    family: &str,
    base: ScenarioBuilder,
    factory: impl Fn() -> F,
) -> (u64, u64) {
    let mut totals = (0, 0);
    for (k, kind) in [
        AdversaryKind::Silent,
        AdversaryKind::SplitVote,
        AdversaryKind::Worst,
    ]
    .into_iter()
    .enumerate()
    {
        for engine in [EngineKind::Sync, EngineKind::event()] {
            let scenario = base
                .clone()
                .seed(0x1A7E + 7 * k as u64)
                .adversary(kind)
                .engine(engine.clone());
            let factory = factory();
            let attack =
                compile_attack_plan(&factory, &AttackPlan::preset(kind), &scenario.context());
            let counts = Rc::new(RefCell::new(Counts::default()));
            let adversary = Counting {
                inner: attack.strategy,
                counts: Rc::clone(&counts),
            };
            let before = allocations();
            scenario
                .build_with_adversary(factory, attack.name, adversary)
                .run()
                .expect("the grid case runs");
            let allocated = allocations() - before;
            let counts = counts.borrow();
            assert_eq!(
                allocated - counts.adversary - counts.unicasts,
                counts.distinct,
                "{family}/{kind:?}/{engine:?}: honest allocations ≡ distinct (round, payload) \
                 pairs ({counts:?})"
            );
            totals.0 += counts.broadcasts;
            totals.1 += counts.distinct;
        }
    }
    totals
}

#[test]
fn honest_allocations_are_the_distinct_payloads_of_each_round() {
    let _guard = serial();
    let inputs: Vec<u64> = (0..7).map(|i| i % 2).collect();
    let base = Simulation::scenario()
        .correct(7)
        .byzantine(2)
        .max_rounds(300);
    let consecutive = base.clone().ids(IdSpace::Consecutive);
    let grid = [
        check_family("consensus", base.clone(), || {
            ConsensusFactory::new(inputs.clone())
        }),
        check_family("reliable-broadcast", base.clone(), || {
            BroadcastFactory::correct_source(42)
        }),
        check_family("rotor", base.clone(), || RotorFactory),
        check_family("approx", base.clone(), || {
            ApproxFactory::new((0..7).map(|i| i as f64 * 5.0).collect::<Vec<_>>())
        }),
        check_family("parallel-consensus", base.clone(), || {
            ParallelConsensusFactory::new(vec![(0, 50), (1, 51)])
        }),
        check_family("total-order", base.clone(), || {
            TotalOrderFactory::new(
                TotalOrderPlan::rounds(30)
                    .event(2, 0, 11)
                    .event(3, 1, 22)
                    .event(4, 2, 33),
            )
        }),
        check_family("phase-king", consecutive.clone(), || {
            PhaseKingFactory::new(inputs.clone())
        }),
        check_family("srikanth-toueg", consecutive.clone(), || {
            StBroadcastFactory::new(42)
        }),
        check_family("dolev-approx", consecutive.clone().correct(8), || {
            DolevApproxFactory::new((0..8).map(|i| i as f64 * 3.0).collect::<Vec<_>>())
        }),
        check_family("known-rotor", consecutive, || KnownRotorFactory),
    ];
    // The grid did share: correct nodes broadcast the same messages.
    let (broadcasts, distinct) = grid
        .iter()
        .fold((0, 0), |(b, d), &(fb, fd)| (b + fb, d + fd));
    assert!(
        distinct * 3 < broadcasts,
        "{distinct} distinct payloads for {broadcasts} broadcasts"
    );
}
