//! Deterministic work gates for total order's per-round instances.
//!
//! The host cost of Algorithm 6 is (live instances) × (per-delivery constant);
//! both are pure functions of the message pattern, so they are pinned here as
//! counts rather than as wall-clock: how many instances a node drives a round,
//! that every delivered envelope is looked at exactly once, how often an event
//! value is cloned on its way through an instance, and how many payloads the
//! benchmark's total-order shape allocates. CI runs this file in release.

use std::cell::Cell;
use std::sync::Mutex;

use uba_core::sim::{Simulation, TotalOrderFactory, TotalOrderPlan};
use uba_core::{Opinion, ParallelMessage, TotalOrderMessage, TotalOrderNode};
use uba_simnet::shared::allocations;
use uba_simnet::sim::Harness;
use uba_simnet::{Envelope, Inbox, MuxWork, Protocol, RoundContext};

/// `shared::allocations()` is process-global and the tests of one binary run on
/// sibling threads: every test here holds this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A fault-free total-order run of `n` founders over `rounds` rounds in which
/// founder `i % n` submits `event(i)` before round `i + 1`, for `i < events`.
fn fault_free<E>(
    n: usize,
    events: u64,
    rounds: u64,
    event: impl Fn(u64) -> E,
) -> Harness<TotalOrderFactory<E>>
where
    E: Opinion + 'static,
{
    let mut plan = TotalOrderPlan::rounds(rounds);
    for i in 0..events {
        plan = plan.event(i + 1, i as usize % n, event(i));
    }
    Simulation::scenario()
        .correct(n)
        .byzantine(0)
        .seed(0x70741)
        .max_rounds(rounds + 1)
        .build(TotalOrderFactory::new(plan))
}

fn run_to_stop<E>(harness: &mut Harness<TotalOrderFactory<E>>)
where
    E: Opinion + 'static,
{
    while !harness.stopped() {
        harness.step_round().expect("fault-free run");
    }
}

#[test]
fn a_fault_free_node_drives_seven_instances_a_round_not_the_finality_window() {
    let _guard = serial();
    let n = 16;
    let rounds = 60;
    let mut harness = fault_free(n, rounds, rounds, |i| i);
    let mut before: Vec<u64> = vec![0; n];
    while !harness.stopped() {
        harness.step_round().expect("fault-free run");
        let round = harness.rounds_executed();
        for (node, before) in harness.nodes().iter().zip(&mut before) {
            let steps = node.work().slot_steps;
            // An instance is started every round and decides in its local
            // round 7 (two initialisation rounds plus one five-round phase), so
            // seven are running at once — although 2·age > 5·16 + 4 keeps each
            // of them unread for 42 rounds.
            assert_eq!(
                steps - *before,
                round.min(7),
                "instances driven by one node in round {round}"
            );
            *before = steps;
        }
    }

    let report = harness.report_now();
    assert!(report.chain.as_ref().is_some_and(|chain| chain.prefix_ok));
    let work: Vec<MuxWork> = harness.nodes().iter().map(|node| node.work()).collect();
    let indexed: u64 = work.iter().map(|work| work.envelopes_indexed).sum();
    // Every delivery is examined exactly once by the node it was delivered to;
    // what the last round sent was delivered but never stepped on.
    let unread = report
        .messages
        .per_round
        .last()
        .map_or(0, |row| row.deliveries);
    assert_eq!(indexed + unread, report.messages.deliveries);
    // Fault-free, every node decides an instance in the same round and the
    // deciding step sends nothing: no traffic is ever addressed to a decided
    // instance.
    assert!(work.iter().all(|work| work.dropped_retired == 0));

    // Traffic for a decided, a finalised or a never-started instance costs a
    // counter bump: no buffer, no instance step.
    let mut node: TotalOrderNode<u64> = harness.nodes()[0].clone();
    let peer = harness.nodes()[1].id();
    let stale = |round: u64| {
        Envelope::new(
            peer,
            TotalOrderMessage::Instance(round, ParallelMessage::<u64>::Init),
        )
    };
    let finalised = node.finalized_upto();
    let decided = node.round() - 10;
    assert!(finalised > 0 && decided > finalised);
    let inbox = [stale(finalised), stale(decided), stale(node.round() + 5)];
    let before = node.work();
    node.step(&RoundContext::new(rounds + 1), Inbox::from(&inbox[..]));
    let after = node.work();
    assert_eq!(after.envelopes_indexed - before.envelopes_indexed, 3);
    assert_eq!(after.dropped_retired - before.dropped_retired, 3);
    assert_eq!(after.slot_steps - before.slot_steps, 7);
}

thread_local! {
    static VALUE_CLONES: Cell<u64> = const { Cell::new(0) };
}

/// An event whose `Clone` is counted (on the cloning thread).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Counted(u64);

impl Clone for Counted {
    fn clone(&self) -> Self {
        VALUE_CLONES.with(|count| count.set(count.get() + 1));
        Counted(self.0)
    }
}

/// Event clones per node per ordered event, from submission to the chain.
fn clones_per_node_per_instance(n: usize) -> f64 {
    let events = 24;
    let rounds = events + (5 * n as u64 + 4) / 2 + 10;
    let mut harness = fault_free(n, events, rounds, Counted);
    let before = VALUE_CLONES.with(Cell::get);
    run_to_stop(&mut harness);
    let clones = VALUE_CLONES.with(Cell::get) - before;
    for node in harness.nodes() {
        assert_eq!(node.chain().len() as u64, events, "every event is final");
    }
    clones as f64 / (n as u64 * events) as f64
}

#[test]
fn value_clones_per_instance_do_not_grow_with_n() {
    let _guard = serial();
    // A node clones an event where the protocol keeps or sends it — the input
    // pair, its opinion, the three votes it sends and remembers, the stashed
    // plurality: eleven times (the finished instance's decision is moved into
    // the waiting pairs, not cloned). Receiving and tallying n votes clones
    // nothing, so the count per node is the same at every n but for the
    // submitter's and the coordinator's one extra clone, shared among n nodes
    // (it was ~6n + 10 when votes and tallies owned their values).
    const BOUND: f64 = 12.0;
    let small = clones_per_node_per_instance(4);
    let large = clones_per_node_per_instance(16);
    assert!(
        small <= BOUND,
        "{small} clones per node per instance at n = 4"
    );
    assert!(
        large <= BOUND,
        "{large} clones per node per instance at n = 16"
    );
    assert!(
        (large - small).abs() < 1.0,
        "n = 4: {small}, n = 16: {large} clones per node per instance"
    );
}

#[test]
fn the_benchmark_shape_allocates_the_pinned_number_of_payloads() {
    let _guard = serial();
    // `stream-total-order` of the repository benchmark: 16 nodes, 300 proposal
    // rounds plus the finality tail, one event a round. One payload per
    // distinct broadcast value a round, whatever the demux does with it on the
    // receiving side: the sixteen nodes broadcast the same rotor echoes and the
    // same `input`, `prefer` and `strongprefer` of an instance, so 202,280
    // broadcasts share 13,475 payloads (`shared_allocations` in benchmark/expected.json still reads
    // 202,280, one per broadcast — its re-pin is ROADMAP item 3's).
    let rounds = 300 + (5 * 16 + 4) / 2 + 16;
    let before = allocations();
    let mut harness = fault_free(16, 300, rounds, |i| vec![i; 4]);
    run_to_stop(&mut harness);
    let report = harness.report_now();
    assert_eq!(allocations() - before, 13_475);
    assert_eq!(report.messages.deliveries, 3_232_640);
}
