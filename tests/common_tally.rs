//! Counted once per roster: the consensus nodes one factory builds share a memo
//! of common-list walks (`uba_core::consensus::CommonTally`, docs/ENGINE.md
//! "Counted once per roster"). Two layers of evidence:
//!
//! 1. a **model check** — every scenario of a grid (attack plans × engines ×
//!    churn × seeds) runs three ways: factory-built nodes sharing one memo,
//!    every node holding a private memo, and standalone nodes that walk every
//!    entry themselves. The three `RunReport`s must serialise byte-identically:
//!    a summary is shared only where the node that computed it and the node
//!    that merges it would have walked the same entries to the same state;
//! 2. the **deterministic gate** — split-vote consensus at n = 32 and n = 64,
//!    on both engines, walks each round's common list once (one summary per
//!    round that has one) and every node's own part once: entries walked are
//!    the common lists times their distinct keys plus the own parts, where
//!    every node used to walk every delivery. The counter is measurement only
//!    (`CommonTally::work`) and never enters a report.
//!
//! CI's `scaling-smoke` job runs this file in release.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use uba_bench::fuzz::boundary_plans;
use uba_core::adversaries::SplitVote;
use uba_core::consensus::{CommonTally, Consensus, ConsensusMessage, Decision, TallyWork};
use uba_core::sim::{AdversaryKind, ConsensusFactory, Simulation};
use uba_simnet::sim::{BuildContext, NamedAdversary, ProtocolFactory, RunReport};
use uba_simnet::{
    AttackBehavior, AttackPlan, ChurnEvent, ChurnSchedule, CommonKey, DelaySpec, EngineKind,
    IdSpace, Inbox, NodeId, Outgoing, PayloadVocab, Protocol, RestartPolicy, RoundContext,
    StopCondition, SyncEngine, TimingSpec, WalConfig, WalFault,
};

// ---------------------------------------------------------------------------
// The model check.
// ---------------------------------------------------------------------------

/// How the nodes of a run hold the memo.
#[derive(Clone, Copy, Debug)]
enum Holding {
    /// One memo for the whole run, as the factory hands it out.
    Shared,
    /// A memo per node: every common part is walked by the node reading it.
    Private,
    /// No memo: every node walks its whole inbox in one pass.
    Standalone,
}

/// [`ConsensusFactory`] with the nodes' memo replaced as `holding` says;
/// everything else is the factory's own.
struct Holder {
    factory: ConsensusFactory,
    holding: Holding,
}

impl ProtocolFactory for Holder {
    type Node = Consensus<u64>;

    fn protocol_name(&self) -> String {
        self.factory.protocol_name()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<Consensus<u64>> {
        let nodes = self.factory.build_nodes(ctx).into_iter();
        match self.holding {
            Holding::Shared => nodes.collect(),
            Holding::Private => nodes
                .map(|node| node.sharing(&CommonTally::new()))
                .collect(),
            Holding::Standalone => nodes
                .map(|node| Consensus::new(node.id(), *node.input()))
                .collect(),
        }
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<ConsensusMessage<u64>> {
        self.factory.attack_behavior(behavior, ctx)
    }

    fn payload_vocab(
        &self,
        ctx: &BuildContext,
    ) -> Option<Box<dyn PayloadVocab<ConsensusMessage<u64>>>> {
        self.factory.payload_vocab(ctx)
    }

    fn record(&self, ctx: &BuildContext, nodes: &[Consensus<u64>], report: &mut RunReport) {
        self.factory.record(ctx, nodes, report);
    }
}

/// The churn axis.
#[derive(Clone, Copy, Debug)]
enum Churn {
    Static,
    /// A fresh Byzantine identity joins before round 3.
    ByzantineJoin,
    /// The second correct node crashes before round 2 and restarts before
    /// round 4 from a log that lost its unsynced records — all of them: it
    /// starts over, and numbers its peers in an order of its own.
    CrashRestart,
}

/// The engine axis: lock-step; timed at zero jitter; at zero jitter with
/// same-instant reordering; and with in-round jitter and reordering. Jittered
/// legs land in their recipients' own parts, so it is reordering (a Byzantine
/// message landing between two broadcasts) that puts a common list before
/// nodes that read different prefixes of it or heard their peers first in
/// different orders — what the memo's key must tell apart.
fn engines(seed: u64) -> [EngineKind; 4] {
    let zero_jitter = TimingSpec::synchronous();
    let jittered = TimingSpec::synchronous()
        .units(8)
        .with_delay(DelaySpec::Jitter { min: 1, max: 8 })
        .reorder(seed);
    [
        EngineKind::Sync,
        EngineKind::Event(zero_jitter.clone()),
        EngineKind::Event(zero_jitter.reorder(seed)),
        EngineKind::Event(jittered),
    ]
}

/// One scenario under `holding`, as report JSON. Even seeds run 7 + 2 nodes,
/// odd seeds the `n = 3f` boundary, 4 + 2.
fn run(
    plan: &AttackPlan,
    engine: &EngineKind,
    churn: Churn,
    seed: u64,
    holding: Holding,
) -> String {
    let (correct, byzantine) = if seed.is_multiple_of(2) {
        (7, 2)
    } else {
        (4, 2)
    };
    let builder = Simulation::scenario()
        .correct(correct)
        .byzantine(byzantine)
        .seed(seed)
        .max_rounds(150)
        .attack(plan.clone())
        .engine(engine.clone());
    let victim = builder.spec().id_space.generate(correct + byzantine, seed)[1];
    let schedule = match churn {
        Churn::Static => ChurnSchedule::empty(),
        Churn::ByzantineJoin => {
            ChurnSchedule::empty().with(3, ChurnEvent::JoinByzantine(NodeId::new(9_000_001)))
        }
        Churn::CrashRestart => ChurnSchedule::empty()
            .with(2, ChurnEvent::Crash(victim))
            .with(
                4,
                ChurnEvent::Restart {
                    id: victim,
                    policy: RestartPolicy::Fault(WalFault::LoseUnsynced),
                },
            ),
    };
    let inputs: Vec<u64> = (0..correct).map(|i| (i % 2) as u64).collect();
    let mut harness = builder.churn(schedule).build(Holder {
        factory: ConsensusFactory::new(inputs),
        holding,
    });
    if let Churn::CrashRestart = churn {
        // Fsync every fourth round, so the crash leaves a tail to lose.
        harness.engine_mut().enable_recovery(WalConfig {
            sync_every: 4,
            compact_after: 1024,
        });
    }
    let report = harness.run().expect("nothing is forged");
    serde_json::to_string(&report).expect("reports serialise")
}

#[test]
fn shared_private_and_standalone_tallies_report_byte_identically() {
    let plans = boundary_plans();
    assert!(
        plans.len() >= 10,
        "the boundary plans, adaptive ones included"
    );
    let mut scenarios = 0;
    for seed in 0..8u64 {
        for engine in engines(seed) {
            for churn in [Churn::Static, Churn::ByzantineJoin, Churn::CrashRestart] {
                for plan in &plans {
                    let label = format!("{} / {engine:?} / {churn:?} / seed {seed}", plan.label());
                    let shared = run(plan, &engine, churn, seed, Holding::Shared);
                    let private = run(plan, &engine, churn, seed, Holding::Private);
                    assert_eq!(shared, private, "{label}: shared ≢ private memo");
                    let standalone = run(plan, &engine, churn, seed, Holding::Standalone);
                    assert_eq!(shared, standalone, "{label}: shared memo ≢ no memo");
                    scenarios += 1;
                }
            }
        }
    }
    assert_eq!(scenarios, 8 * 4 * 3 * plans.len());
}

/// The two corners the grid above does not reach, because correct consensus
/// nodes only broadcast and step in lock-step.
#[derive(Clone, Copy, Debug)]
enum Corner {
    /// From round 2 on every node first broadcasts an `Init` (which no step
    /// past round 2 counts) and then unicasts an opinion nobody holds to its
    /// successor: the successor of the `i`-th node reads what the first `i`
    /// nodes broadcast from the common list, the `i`-th node's `Init`
    /// included, and the rest after that opinion — a prefix of its own, in
    /// which the coordinator's successor hears the coordinator's unicast
    /// opinion first.
    Prefixes,
    /// Every third node sits engine round 8 out and from then on steps one
    /// phase step behind, reading the same common lists as its peers under
    /// another step.
    Steps,
}

/// A consensus node in a [`Corner`], logging after every step what it sent
/// and its whole state — votes, echoes, who spoke, first opinions — so a
/// merged summary that leaves any of it other than a walk would is caught
/// where it happens, not only if it changes a decision.
#[derive(Clone)]
struct Cornered {
    node: Consensus<u64>,
    corner: Corner,
    index: usize,
    successor: NodeId,
    log: Vec<String>,
}

impl Protocol for Cornered {
    type Payload = ConsensusMessage<u64>;
    type Output = Decision<u64>;

    fn id(&self) -> NodeId {
        self.node.id()
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: Inbox<'_, ConsensusMessage<u64>>,
    ) -> Vec<Outgoing<ConsensusMessage<u64>>> {
        let mut round = ctx.round;
        let mut out = Vec::new();
        match self.corner {
            Corner::Prefixes if round >= 2 => {
                let opinion = ConsensusMessage::Opinion(99);
                out.push(Outgoing::broadcast(ConsensusMessage::Init));
                out.push(Outgoing::unicast(self.successor, opinion));
            }
            Corner::Steps if self.index % 3 == 1 && round >= 8 => {
                if round == 8 {
                    return Vec::new();
                }
                round -= 1;
            }
            _ => {}
        }
        out.extend(self.node.step(&RoundContext::new(round), inbox));
        // The memo handle is how a node counts, not what it knows.
        let state = format!("{:?}", self.node).replace("Some(CommonTally { .. })", "None");
        self.log.push(format!("{out:?} {state}"));
        out
    }

    fn output(&self) -> Option<Decision<u64>> {
        self.node.output()
    }
}

/// Runs a corner under `holding` on the lock-step engine, against the
/// split-vote adversary: every node's log and decision.
fn cornered(corner: Corner, correct: usize, seed: u64, holding: Holding) -> String {
    let ids = IdSpace::default().generate(correct + 2, seed);
    let (correct_ids, byzantine) = ids.split_at(correct);
    let memo = CommonTally::new();
    let nodes: Vec<Cornered> = correct_ids
        .iter()
        .enumerate()
        .map(|(index, &id)| {
            let node = Consensus::new(id, (index % 2) as u64);
            Cornered {
                node: match holding {
                    Holding::Shared => node.sharing(&memo),
                    Holding::Private => node.sharing(&CommonTally::new()),
                    Holding::Standalone => node,
                },
                corner,
                index,
                successor: correct_ids[(index + 1) % correct],
                log: Vec::new(),
            }
        })
        .collect();
    let mut engine = SyncEngine::new(nodes, SplitVote::new(0, 1), byzantine.to_vec());
    engine
        .run(StopCondition::AllTerminated, 120)
        .expect("nothing is forged")
        .expect_completed()
        .expect("every node decides");
    let trajectories: Vec<String> = engine
        .nodes()
        .iter()
        .map(|node| format!("{:?} {:?}", node.log, node.output()))
        .collect();
    trajectories.join("\n")
}

#[test]
fn prefixes_and_phase_steps_the_grid_does_not_reach_are_told_apart() {
    for corner in [Corner::Prefixes, Corner::Steps] {
        for seed in 0..8u64 {
            for correct in [7, 10] {
                let label = format!("{corner:?}, seed {seed}, {correct} correct");
                let shared = cornered(corner, correct, seed, Holding::Shared);
                let private = cornered(corner, correct, seed, Holding::Private);
                assert_eq!(shared, private, "{label}: shared ≢ private memo");
                let standalone = cornered(corner, correct, seed, Holding::Standalone);
                assert_eq!(shared, standalone, "{label}: shared memo ≢ no memo");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The deterministic gate.
// ---------------------------------------------------------------------------

/// What one step read, seen from outside the node.
struct View {
    round: u64,
    key: Option<CommonKey>,
    /// Entries of the common part, then the rest (the whole view if keyless).
    common: u64,
    rest: u64,
}

/// A consensus node that logs every view its tally pass reads.
#[derive(Clone)]
struct Watched {
    node: Consensus<u64>,
    views: Rc<RefCell<Vec<View>>>,
}

impl Protocol for Watched {
    type Payload = ConsensusMessage<u64>;
    type Output = Decision<u64>;

    fn id(&self) -> NodeId {
        self.node.id()
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: Inbox<'_, ConsensusMessage<u64>>,
    ) -> Vec<Outgoing<ConsensusMessage<u64>>> {
        // The tally pass runs from round 3 on, on a step that reads its inbox.
        if ctx.round >= 3 && self.node.reads_inbox(ctx.round) {
            let (key, common, rest) = match inbox.split_common() {
                Some((key, common, own)) => (Some(key), common.len(), own.len()),
                None => (None, 0, inbox.len()),
            };
            self.views.borrow_mut().push(View {
                round: ctx.round,
                key,
                common: common as u64,
                rest: rest as u64,
            });
        }
        self.node.step(ctx, inbox)
    }

    fn output(&self) -> Option<Decision<u64>> {
        self.node.output()
    }
}

/// [`ConsensusFactory`] building [`Watched`] nodes around the factory's own.
struct Watching {
    factory: ConsensusFactory,
    views: Rc<RefCell<Vec<View>>>,
}

impl ProtocolFactory for Watching {
    type Node = Watched;

    fn protocol_name(&self) -> String {
        self.factory.protocol_name()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<Watched> {
        let views = &self.views;
        self.factory
            .build_nodes(ctx)
            .into_iter()
            .map(|node| Watched {
                node,
                views: Rc::clone(views),
            })
            .collect()
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<ConsensusMessage<u64>> {
        self.factory.attack_behavior(behavior, ctx)
    }

    fn record(&self, _ctx: &BuildContext, _nodes: &[Watched], _report: &mut RunReport) {}
}

/// `(correct, byzantine, (correct messages, Byzantine messages, deliveries))`
/// of the gate's runs on the parent commit (`8b6f3c8`): the traffic is
/// unchanged.
const SIZES: [(usize, usize, (u64, u64, u64)); 2] = [
    (22, 10, (48_640, 2_200, 35_640)),
    (43, 21, (366_144, 9_030, 255_033)),
];

#[test]
fn split_vote_walks_each_common_list_once_per_key() {
    for engine in [EngineKind::Sync, EngineKind::event()] {
        for (correct, byzantine, parent_messages) in SIZES {
            let label = format!("{correct} + {byzantine}, {engine:?}");
            let views = Rc::new(RefCell::new(Vec::new()));
            let inputs: Vec<u64> = (0..correct).map(|i| (i % 2) as u64).collect();
            let mut harness = Simulation::scenario()
                .correct(correct)
                .byzantine(byzantine)
                .seed(0x1B0C)
                .max_rounds(200)
                .adversary(AdversaryKind::SplitVote)
                .engine(engine.clone())
                .build(Watching {
                    factory: ConsensusFactory::new(inputs),
                    views: Rc::clone(&views),
                });
            let report = harness.run().expect("nothing is forged");
            assert_eq!(report.rounds, 12, "{label}");
            assert_eq!(
                (
                    report.messages.correct,
                    report.messages.byzantine,
                    report.messages.deliveries
                ),
                parent_messages,
                "{label}: the traffic is the parent's"
            );
            let work: TallyWork = harness.nodes()[0]
                .node
                .common_tally()
                .expect("the factory's nodes share a memo")
                .work();

            let views = views.borrow();
            let mut keys: BTreeMap<u64, BTreeSet<(u64, usize)>> = BTreeMap::new();
            let mut common_once = 0;
            for view in views.iter() {
                if let Some(key) = view.key {
                    if keys
                        .entry(view.round)
                        .or_default()
                        .insert((key.generation(), key.prefix()))
                    {
                        common_once += view.common;
                    }
                }
            }
            let rest: u64 = views.iter().map(|view| view.rest).sum();
            let every_entry: u64 = views.iter().map(|view| view.common + view.rest).sum();

            // Every node of a split-vote run holds one roster, and nothing is
            // directed before a broadcast: one key a round.
            assert!(
                keys.values().all(|round| round.len() == 1),
                "{label}: {keys:?}"
            );
            assert_eq!(
                work.summaries,
                keys.len() as u64,
                "{label}: one summary per round with a common list"
            );
            assert_eq!(
                work.entries_walked,
                common_once + rest,
                "{label}: the common lists once per key, every own part once"
            );
            // Every node used to walk all it read.
            assert!(
                10 * work.entries_walked <= every_entry,
                "{label}: {} entries walked where each node walking its view walks {every_entry}",
                work.entries_walked
            );
        }
    }
}
