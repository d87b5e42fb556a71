//! The deterministic gate on what tallying costs the allocator.
//!
//! A node numbers the senders it has heard from and counts votes in bit rows
//! (`uba_core::membership`, `uba_core::vote`, `uba_core::rotor::EchoVotes`), so the
//! rotor's ~n² echoes a round cost no tree operation and no allocation per
//! delivered message. Wall clock cannot gate that; an allocation count can. This
//! binary installs a counting `#[global_allocator]` that forwards to `System` — an
//! integration test is its own crate, so the library crates keep
//! `#![forbid(unsafe_code)]` — and holds a single test, because the counters are
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use uba_core::consensus::{Consensus, ConsensusMessage, Decision};
use uba_core::sim::{AdversaryKind, ConsensusFactory, Simulation};
use uba_core::{EarlyConsensus, ParallelConsensus, ReliableBroadcast, RotorCoordinator};
use uba_simnet::sim::{BuildContext, NamedAdversary, ProtocolFactory, RunReport};
use uba_simnet::{AttackBehavior, EngineKind, Inbox, NodeId, Outgoing, Protocol, RoundContext};

/// Allocations made so far (`alloc` and `realloc` both count).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Whether a `Protocol::step` is running.
static IN_STEP: AtomicBool = AtomicBool::new(false);
/// The largest single allocation requested while `IN_STEP`.
static LARGEST_IN_STEP: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if IN_STEP.load(Ordering::Relaxed) {
        LARGEST_IN_STEP.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A consensus node that flags the allocator while it steps.
struct Stepping(Consensus<u64>);

impl Protocol for Stepping {
    type Payload = ConsensusMessage<u64>;
    type Output = Decision<u64>;

    fn id(&self) -> NodeId {
        self.0.id()
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: Inbox<'_, ConsensusMessage<u64>>,
    ) -> Vec<Outgoing<ConsensusMessage<u64>>> {
        IN_STEP.store(true, Ordering::Relaxed);
        let out = self.0.step(ctx, inbox);
        IN_STEP.store(false, Ordering::Relaxed);
        out
    }

    fn output(&self) -> Option<Decision<u64>> {
        self.0.output()
    }
}

/// `ConsensusFactory` building [`Stepping`] nodes; the adversary is the factory's own.
struct SteppingFactory(ConsensusFactory);

impl ProtocolFactory for SteppingFactory {
    type Node = Stepping;

    fn protocol_name(&self) -> String {
        self.0.protocol_name()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<Stepping> {
        self.0.build_nodes(ctx).into_iter().map(Stepping).collect()
    }

    fn adversary(
        &self,
        kind: AdversaryKind,
        ctx: &BuildContext,
    ) -> NamedAdversary<ConsensusMessage<u64>> {
        self.0.adversary(kind, ctx)
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<ConsensusMessage<u64>> {
        self.0.attack_behavior(behavior, ctx)
    }

    fn record(&self, _ctx: &BuildContext, _nodes: &[Stepping], _report: &mut RunReport) {}
}

/// What one split-vote run cost: heap allocations from the built harness to the
/// last round, and the broadcasts correct nodes made.
struct Cost {
    allocations: u64,
    correct_broadcasts: u64,
}

/// Id-only consensus, `correct` + `byzantine` split-vote, on one engine. Checks the
/// report's message counts against the parent's and returns the allocation bill.
fn split_vote(
    correct: usize,
    byzantine: usize,
    engine: Option<EngineKind>,
    parent_messages: (u64, u64, u64),
) -> Cost {
    let inputs: Vec<u64> = (0..correct).map(|i| (i % 2) as u64).collect();
    let mut scenario = Simulation::scenario()
        .correct(correct)
        .byzantine(byzantine)
        .seed(0x1B0C)
        .max_rounds(200)
        .adversary(AdversaryKind::SplitVote);
    if let Some(engine) = engine {
        scenario = scenario.engine(engine);
    }
    let mut harness = scenario.build(SteppingFactory(ConsensusFactory::new(inputs)));
    let before = allocations();
    while !harness.stopped() {
        harness.step_round().expect("nothing is forged");
    }
    let allocations = allocations() - before;
    let report = harness.report_now();
    assert_eq!(report.rounds, 12);
    assert_eq!(
        (
            report.messages.correct,
            report.messages.byzantine,
            report.messages.deliveries
        ),
        parent_messages,
        "{correct} + {byzantine}: the traffic is the parent's"
    );
    Cost {
        allocations,
        correct_broadcasts: report.messages.correct / (correct + byzantine) as u64,
    }
}

#[test]
fn tallies_cost_allocations_per_broadcast_not_per_delivery() {
    // (a) Building a node allocates nothing: tables are created at first use.
    let id = NodeId::new(7);
    let before = allocations();
    let nodes = (
        Consensus::new(id, 1u64),
        ParallelConsensus::<u64>::new(id, []),
        RotorCoordinator::new(id, 1u64),
        ReliableBroadcast::sender(id, 1u64),
        ReliableBroadcast::<u64>::receiver(id, NodeId::new(8)),
    );
    assert_eq!(allocations() - before, 0, "constructors allocate nothing");
    drop(nodes);

    // (b) Nodes are no larger than before the bit rows (sizes of the parent commit):
    // a stream builds thousands of them inside its set-up.
    assert!(size_of::<Consensus<u64>>() <= 312);
    assert!(size_of::<ParallelConsensus<u64>>() <= 288);
    assert!(size_of::<EarlyConsensus<u64>>() <= 168);
    assert!(size_of::<RotorCoordinator<u64>>() <= 160);
    assert!(size_of::<ReliableBroadcast<u64>>() <= 96);

    // (c)–(e) at n = 32 and n = 64, on both engines.
    let sizes = [
        (22, 10, (48_640, 2_200, 35_640)),
        (43, 21, (366_144, 9_030, 255_033)),
    ];
    for engine in [None, Some(EngineKind::event())] {
        let [small, large] = sizes.map(|(correct, byzantine, parent_messages)| {
            split_vote(correct, byzantine, engine.clone(), parent_messages)
        });
        for cost in [&small, &large] {
            assert!(
                cost.allocations <= 3 * cost.correct_broadcasts,
                "{} allocations for {} correct broadcasts ({engine:?})",
                cost.allocations,
                cost.correct_broadcasts
            );
        }
        // Doubling n quadruples the broadcasts; allocations follow them (n²), not
        // the deliveries (n³).
        assert!(
            10 * large.allocations <= 46 * small.allocations,
            "{} → {} allocations from n = 32 to n = 64 ({engine:?})",
            small.allocations,
            large.allocations
        );
    }

    // (d) No step asked for a big block: an inbox is read in place, not copied.
    let largest = LARGEST_IN_STEP.load(Ordering::Relaxed);
    assert!(largest > 0, "the steps were observed");
    assert!(
        largest < 64 * 1024,
        "a step allocated {largest} bytes at once"
    );
}
