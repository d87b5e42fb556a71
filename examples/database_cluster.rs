//! Database cluster reconfiguration: the paper's introductory motivation.
//!
//! A replicated database cluster scales up and down with load, so no replica can be
//! initialised with "the" cluster size `n` or a failure bound `f`. The replicas still
//! need a single, totally ordered history of configuration operations (add shard,
//! move shard, change replication factor), or they drift apart. This example runs the
//! dynamic total-ordering protocol (Algorithm 6) as that configuration log:
//!
//! * three replicas found the cluster;
//! * replicas are added while the load grows (via the scenario's churn schedule) and
//!   retired while it shrinks (via the total-order input plan);
//! * two Byzantine replicas flap their membership and spam fabricated operations
//!   (a custom attack passed through `build_with_adversary`);
//! * at the end, the surviving replicas' configuration logs are checked for the
//!   chain-prefix property with the `uba-checker` oracle.
//!
//! Run with `cargo run --example database_cluster`.

use uba_checker::chain::{check_chain_prefix, ChainObservation};
use uba_core::adversaries::MembershipFlapper;
use uba_core::sim::{Simulation, TotalOrderFactory, TotalOrderPlan};
use uba_simnet::{ChurnEvent, ChurnSchedule, NodeId, Protocol};

/// A configuration operation: (operation code, parameter).
type ConfigOp = (u64, u64);

const OP_ADD_SHARD: u64 = 1;
const OP_MOVE_SHARD: u64 = 2;
const OP_SET_REPLICATION: u64 = 3;

fn op_name(op: u64) -> &'static str {
    match op {
        OP_ADD_SHARD => "add-shard",
        OP_MOVE_SHARD => "move-shard",
        OP_SET_REPLICATION => "set-replication",
        _ => "unknown",
    }
}

fn main() {
    let total_rounds = 110u64;

    // Every third round the operator submits a configuration operation through one
    // of the founders; one founder retires at round 60.
    let mut plan: TotalOrderPlan<ConfigOp> = TotalOrderPlan::rounds(total_rounds);
    for round in (0..total_rounds).step_by(3) {
        let submitter = (round as usize / 3) % 2;
        let op = match (round / 3) % 3 {
            0 => (OP_ADD_SHARD, round),
            1 => (OP_MOVE_SHARD, round),
            _ => (OP_SET_REPLICATION, 3),
        };
        plan = plan.event(round + 1, submitter, op);
    }
    let plan = plan.leave(61, 2);

    // Scale-up replicas join through the engine's churn schedule.
    let scale_up: Vec<(u64, NodeId)> = vec![
        (16, NodeId::new(5_000_010)),
        (31, NodeId::new(5_000_020)),
        (46, NodeId::new(5_000_030)),
    ];
    let mut churn = ChurnSchedule::empty();
    for &(round, id) in &scale_up {
        churn.push(round, ChurnEvent::JoinCorrect(id));
    }

    let mut harness = Simulation::scenario()
        .correct(3)
        .byzantine(2)
        .seed(99)
        .max_rounds(total_rounds)
        .churn(churn)
        .build_with_adversary(
            TotalOrderFactory::new(plan),
            "membership-flapper",
            MembershipFlapper::new((OP_SET_REPLICATION, 666)),
        );
    println!("founding replicas: {:?}", harness.context().correct_ids);
    println!(
        "byzantine replicas (membership flapping + op spam): {:?}\n",
        harness.context().byzantine_ids
    );
    for &(round, id) in &scale_up {
        println!("round {:>3}: scaling up — replica {id} joins", round - 1);
    }
    println!(
        "round  60: scaling down — replica {} retires",
        harness.context().correct_ids[2]
    );

    let report = harness.run().expect("run completes");
    assert!(report.completed());

    println!("\nreplica        | config-log length | finalized up to round");
    println!("---------------+-------------------+----------------------");
    for node in harness.nodes() {
        println!(
            "{:<14} | {:>17} | {:>21}",
            Protocol::id(node).to_string(),
            node.chain().len(),
            node.finalized_upto()
        );
    }

    // Verify the chain-prefix property across all surviving replicas. A joiner's log
    // necessarily starts a couple of rounds after it was added (its join handshake has
    // to complete before it participates in an instance), so the comparable part of
    // its log starts at its first finalised round.
    let observations: Vec<ChainObservation<ConfigOp>> = harness
        .nodes()
        .iter()
        .map(|node| ChainObservation {
            node: Protocol::id(node),
            chain: node.chain().to_vec(),
            joined_round: node.chain().first().map(|entry| entry.round).unwrap_or(0),
        })
        .collect();
    let checked = check_chain_prefix(&observations);
    checked.assert_passed("database cluster configuration log");
    println!(
        "\nchain-prefix verified across {} replicas ({checked})",
        observations.len()
    );

    // Operations fabricated by the Byzantine replicas may only appear if every
    // correct replica agreed to order them (agreement still holds); count them.
    let fabricated: usize = observations[0]
        .chain
        .iter()
        .filter(|entry| entry.event == (OP_SET_REPLICATION, 666))
        .count();
    println!(
        "Byzantine-fabricated operations that made it into the agreed log: {fabricated} \
         (whatever the number, it is the same for every correct replica)"
    );

    let longest = observations.iter().max_by_key(|o| o.chain.len()).unwrap();
    println!("\nfirst eight agreed configuration operations:");
    for entry in longest.chain.iter().take(8) {
        println!(
            "  round {:>3}  proposed by {:<12} {} ({})",
            entry.round,
            entry.witness.to_string(),
            op_name(entry.event.0),
            entry.event.1
        );
    }
}
