//! The two served-stream workloads, driven open-loop in simulated time.
//!
//! Requests are scheduled per round whatever the system decides, and a
//! request's latency counts from the round it was due, so generator lateness
//! is 0 by construction. Batching and request accounting are the benchmark's
//! own and run in O(requests): every request of a batch shares its batch's
//! latency, so the histogram takes one weighted entry per batch.

use crate::surface::{
    consensus_stream, derive_seed, open_loop_requests, MuxWork, Simulation, StreamRequest,
    TotalOrderFactory, TotalOrderPlan,
};
use crate::trace::Tracer;
use crate::workloads::{histogram, Driver, Outcome, Plan, Size, Twin};

/// Zipf skew of the request keys.
const ZIPF_S: f64 = 1.1;

/// Rounds allowed past the last consensus instance start (a fault-free
/// instance decides in a handful; the tail only caps a runaway run).
const CONSENSUS_TAIL: u64 = 60;

/// One open-loop request stream shape.
struct Shape {
    nodes: usize,
    /// Rounds in which requests arrive (one batch a round).
    rounds: u64,
    /// Requests per round.
    rate: f64,
    key_space: usize,
}

/// Generates the requests and groups them by arrival round: `batches[r - 1]`
/// holds the keys that arrived in round `r`.
fn batches(shape: &Shape, seed: u64) -> (Vec<StreamRequest>, Vec<Vec<u64>>) {
    let requests = open_loop_requests(shape.rounds, shape.rate, ZIPF_S, shape.key_space, seed);
    let mut batches = vec![Vec::new(); shape.rounds as usize];
    for request in &requests {
        batches[(request.arrival_round - 1) as usize].push(request.key);
    }
    (requests, batches)
}

/// The content-addressed value a consensus instance votes on (what a block
/// hash is to a block).
fn batch_digest(batch: &[u64]) -> u64 {
    batch
        .iter()
        .fold(batch.len() as u64, |digest, &key| derive_seed(digest, key))
}

/// `stream-consensus`: 16 nodes, 1 000 pipelined consensus instances behind
/// `MuxNode`, one start per round, 1 000 requests a round over 4 096 Zipf
/// keys, retirement and traffic GC on. Spacing is 1: with a start every other
/// round, heavy and light rounds alternate and the step median sits between
/// two modes.
pub fn consensus(plan: &Plan, tracer: &mut Tracer) -> Outcome {
    let shape = match plan.size {
        Size::Full => Shape {
            nodes: 16,
            rounds: 1_000,
            rate: 1_000.0,
            key_space: 4_096,
        },
        Size::Quick => Shape {
            nodes: 4,
            rounds: 24,
            rate: 20.0,
            key_space: 64,
        },
    };
    let mut driver = Driver::start(tracer);

    let span = driver.tracer.open("workload.gen", 0);
    let (requests, batches) = batches(&shape, derive_seed(plan.seed, 0xC5));
    driver.tracer.close(span);

    let span = driver.tracer.open("sim.build", 0);
    // The batch of round r is proposed by the instance starting in round r + 1.
    let schedule = batches
        .iter()
        .enumerate()
        .map(|(k, batch)| (k as u64 + 2, batch.len(), batch_digest(batch)));
    let cap = shape.rounds + 1 + CONSENSUS_TAIL;
    let mut harness = Simulation::scenario()
        .correct(shape.nodes)
        .byzantine(0)
        .seed(derive_seed(plan.seed, 0xC6))
        .max_rounds(cap)
        .build(consensus_stream(shape.nodes, schedule));
    if plan.twin != Twin::GcOff {
        harness = harness.traffic_gc();
    }
    driver.tracer.close(span);
    driver.setup_done();

    driver.drive(&mut harness, cap, |_| {});
    let (report, json) = driver.finish(&harness, 0);

    // An instance commits in the round its slowest node decided; every
    // request of its batch is served then.
    let mut undecided = batches.len() as u64;
    let mut latencies = Vec::with_capacity(batches.len());
    for instance in report.stream.iter().flat_map(|stream| &stream.instances) {
        let commit = instance.decide_rounds.iter().filter_map(|&(_, r)| r).max();
        if let (true, Some(commit)) = (instance.decided && instance.agreement, commit) {
            undecided -= 1;
            let arrival = instance.instance + 1;
            latencies.push((commit - arrival, instance.batch_size as u64));
        }
    }
    let work =
        harness
            .nodes()
            .iter()
            .map(|node| node.work())
            .fold(MuxWork::default(), |sum, work| MuxWork {
                envelopes_indexed: sum.envelopes_indexed + work.envelopes_indexed,
                slot_steps: sum.slot_steps + work.slot_steps,
                dropped_retired: sum.dropped_retired + work.dropped_retired,
            });
    let extra = vec![
        ("requests", requests.len() as u64),
        ("batches", batches.len() as u64),
        ("mux_slot_steps", work.slot_steps),
        ("mux_envelopes_indexed", work.envelopes_indexed),
        ("mux_dropped_retired", work.dropped_retired),
    ];
    driver.seal(
        report,
        json,
        batches.len() as u64,
        undecided,
        histogram(latencies),
        extra,
    )
}

/// Rounds a total-order run needs after its last submission: the protocol
/// finalises a round once `2 × age > 5 × |S| + 4`, plus slack for the
/// per-round consensus instances to settle.
pub fn finality_tail(nodes: usize) -> u64 {
    (5 * nodes as u64 + 4) / 2 + 16
}

/// `stream-total-order`: 16 nodes, 300 proposal rounds plus the finality
/// tail, one batched `Vec<u64>` event of 1 000 keys a round submitted by that
/// round's proposer, traffic GC on, no write-ahead log.
pub fn total_order(plan: &Plan, tracer: &mut Tracer) -> Outcome {
    let shape = match plan.size {
        Size::Full => Shape {
            nodes: 16,
            rounds: 300,
            rate: 1_000.0,
            key_space: 4_096,
        },
        Size::Quick => Shape {
            nodes: 4,
            rounds: 12,
            rate: 20.0,
            key_space: 64,
        },
    };
    let mut driver = Driver::start(tracer);

    let span = driver.tracer.open("workload.gen", 0);
    let (requests, batches) = batches(&shape, derive_seed(plan.seed, 0x70));
    let total_rounds = shape.rounds + finality_tail(shape.nodes);
    let submitted = batches.len() as u64;
    let mut order = TotalOrderPlan::rounds(total_rounds);
    for (index, batch) in batches.into_iter().enumerate() {
        order = order.event(index as u64 + 1, index % shape.nodes, batch);
    }
    driver.tracer.close(span);

    let span = driver.tracer.open("sim.build", 0);
    let mut harness = Simulation::scenario()
        .correct(shape.nodes)
        .byzantine(0)
        .seed(derive_seed(plan.seed, 0x71))
        .max_rounds(total_rounds + 1)
        .build(TotalOrderFactory::new(order));
    if plan.twin != Twin::GcOff {
        harness = harness.traffic_gc();
    }
    driver.tracer.close(span);
    driver.setup_done();

    // Chains agree across nodes (the chain-prefix oracle checks it), so node
    // 0's view gives the round each chain position became final.
    let mut finalised_in = Vec::new();
    driver.drive(&mut harness, total_rounds + 1, |harness| {
        finalised_in.resize(harness.nodes()[0].chain().len(), harness.rounds_executed());
    });
    let (report, json) = driver.finish(&harness, 0);

    let chain = harness.nodes()[0].chain();
    let latencies = chain
        .iter()
        .zip(&finalised_in)
        .map(|(ordered, &finalised)| {
            // The batch holds exactly the arrivals of `ordered.round`.
            (finalised - ordered.round, ordered.event.len() as u64)
        });
    let extra = vec![("requests", requests.len() as u64), ("batches", submitted)];
    let unfinalised = submitted.saturating_sub(chain.len() as u64);
    driver.seal(
        report,
        json,
        submitted,
        unfinalised,
        histogram(latencies),
        extra,
    )
}
