//! Protocol factories and fluent sugar for the unified [`Simulation`] driver.
//!
//! The generic pieces — [`Simulation`], [`ScenarioBuilder`], [`ProtocolFactory`],
//! [`Harness`], [`RunReport`] — live in [`uba_simnet::sim`] and are re-exported
//! here; this module adds a [`ProtocolFactory`] implementation for every id-only
//! algorithm of the paper, so any scenario description can be pointed at any
//! protocol:
//!
//! | Factory | Protocol | Report section |
//! |---|---|---|
//! | [`ConsensusFactory`] | Algorithm 3 (`Consensus<u64>`) | `consensus` |
//! | [`BroadcastFactory`] | Algorithm 1 (`ReliableBroadcast<u64>`) | `broadcast` |
//! | [`RotorFactory`] | Algorithm 2 (`RotorCoordinator<u64>`) | `rotor` |
//! | [`ApproxFactory`] | Algorithm 4 (`ApproxAgreement`) | `approx` |
//! | [`IteratedApproxFactory`] | iterated Algorithm 4 | `spreads` + `approx` |
//! | [`ParallelConsensusFactory`] | Algorithm 5 (`ParallelConsensus<u64>`) | `parallel` |
//! | [`TotalOrderFactory`] | Algorithm 6 (`TotalOrderNode<E>`) | `chain` |
//!
//! The [`ScenarioExt`] trait hangs protocol-specific conveniences off the generic
//! builder, so the common cases are one chain:
//!
//! ```
//! use uba_core::sim::{AdversaryKind, ScenarioExt, Simulation};
//!
//! let report = Simulation::scenario()
//!     .correct(7)
//!     .byzantine(2)
//!     .seed(42)
//!     .adversary(AdversaryKind::SplitVote)
//!     .consensus(&[0, 1, 0, 1, 0, 1, 0])
//!     .run()
//!     .unwrap();
//! assert!(report.consensus.unwrap().agreement);
//! ```

use std::collections::BTreeSet;

use uba_simnet::adversary::SilentAdversary;
use uba_simnet::sim::scripted_attack_behavior;
use uba_simnet::vocab::{PayloadVocab, VocabScene};
use uba_simnet::{
    Adversary, AdversaryView, Directed, FnAdversary, NodeId, Protocol, Recoverable, Snapshotter,
};

pub use uba_simnet::attack::{
    ActorRange, AdaptiveStrategy, AttackBehavior, AttackPlan, AttackStep,
};
pub use uba_simnet::sim::{
    approx_section_from_values, consensus_section_from_parts, ApproxSection, BroadcastSection,
    ChainSection, ConsensusDecision, ConsensusSection, MarginMetric, MarginSection, MessageStats,
    NodeAcceptSet, NodePairs, NodeReport, OracleMargin, OracleVerdict, ParallelSection,
    RecoverySection, RotorSection, SpreadSection,
};
pub use uba_simnet::sim::{
    AdversaryKind, BoxedAdversary, BuildContext, Harness, NamedAdversary, ProtocolFactory,
    RunReport, RunStatus, ScenarioBuilder, ScenarioSpec, Simulation, StopCondition,
};
pub use uba_simnet::stream::{
    MuxNode, StreamDriver, StreamInstance, StreamInstanceReport, StreamSection,
};
pub use uba_simnet::sweep::{CrashPlan, ScenarioGrid, SweepCase};
pub use uba_simnet::wal::{RestartPolicy, RestartRecord, WalConfig, WalFault};

use crate::adversaries::{AnnounceToSubset, EquivocatingSource, GhostPairInjector, SplitVote};
use crate::approx::{ApproxAgreement, IteratedApproxAgreement};
use crate::consensus::{Consensus, ConsensusMessage};
use crate::parallel_consensus::ParallelConsensus;
use crate::reliable_broadcast::{RbMessage, ReliableBroadcast};
use crate::rotor::{RotorCoordinator, RotorMessage};
use crate::total_order::{chains_agree, TotalOrderNode};
use crate::value::{Opinion, Real};

// ---------------------------------------------------------------------------
// Consensus (Algorithm 3)
// ---------------------------------------------------------------------------

/// Factory for binary/multi-valued consensus over `u64` opinions.
#[derive(Clone, Debug)]
pub struct ConsensusFactory {
    inputs: Vec<u64>,
}

impl ConsensusFactory {
    /// One input per correct node, in construction order.
    pub fn new(inputs: impl Into<Vec<u64>>) -> Self {
        ConsensusFactory {
            inputs: inputs.into(),
        }
    }

    /// The two most popular correct input values (ties broken by value), which is
    /// what a split-vote adversary pushes — splitting between values nobody holds
    /// would degrade the attack to background noise. Falls back to `(v, v ^ 1)` for
    /// unanimous inputs and `(0, 1)` for an empty input set.
    fn split_values(&self) -> (u64, u64) {
        let mut counts: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        for &input in &self.inputs {
            *counts.entry(input).or_default() += 1;
        }
        let mut ranked: Vec<(u64, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        match (ranked.first(), ranked.get(1)) {
            (Some(&(first, _)), Some(&(second, _))) => (first, second),
            (Some(&(only, _)), None) => (only, only ^ 1),
            _ => (0, 1),
        }
    }
}

/// Builds a pipelined consensus stream: one [`ConsensusFactory`] instance per
/// schedule entry `(start_round, batch_size, batch_value)`, all `n` nodes of an
/// instance proposing the same content-addressed batch value (the leader's
/// batch digest, the way a blockchain's replicas vote on a block hash). The
/// agreement digest compares decided *values* only, so two nodes deciding the
/// same value in different phases or rounds do not count as disagreement.
pub fn consensus_stream(
    n: usize,
    schedule: impl IntoIterator<Item = (u64, usize, u64)>,
) -> StreamDriver<ConsensusFactory> {
    let mut driver = StreamDriver::new("consensus").digest(std::sync::Arc::new(
        |decision: &crate::consensus::Decision<u64>| decision.value.to_string(),
    ));
    for (start_round, batch_size, batch_value) in schedule {
        driver = driver.push(
            start_round,
            batch_size,
            ConsensusFactory::new(vec![batch_value; n]),
        );
    }
    driver
}

impl ProtocolFactory for ConsensusFactory {
    type Node = Consensus<u64>;

    fn snapshotter(&self) -> Option<Snapshotter<Self::Node>> {
        Some(Box::new(|node| node.snapshot()))
    }

    fn protocol_name(&self) -> String {
        "consensus".into()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<Consensus<u64>> {
        assert_eq!(
            self.inputs.len(),
            ctx.correct_ids.len(),
            "one consensus input per correct node"
        );
        ctx.correct_ids
            .iter()
            .zip(&self.inputs)
            .map(|(&id, &input)| Consensus::new(id, input))
            .collect()
    }

    fn adversary(
        &self,
        kind: AdversaryKind,
        _ctx: &BuildContext,
    ) -> NamedAdversary<crate::consensus::ConsensusMessage<u64>> {
        match kind {
            AdversaryKind::Silent => NamedAdversary::new(kind.name(), SilentAdversary),
            AdversaryKind::AnnounceThenSilent => {
                NamedAdversary::new(kind.name(), AnnounceToSubset::everyone())
            }
            AdversaryKind::PartialAnnounce => {
                NamedAdversary::new(kind.name(), AnnounceToSubset::every_other())
            }
            AdversaryKind::SplitVote | AdversaryKind::Worst => {
                let (low, high) = self.split_values();
                NamedAdversary::new("split-vote", SplitVote::new(low, high))
            }
        }
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<crate::consensus::ConsensusMessage<u64>> {
        match *behavior {
            // Vote equivocation *is* the split-vote attack, with the plan choosing
            // the pushed values instead of the input histogram.
            AttackBehavior::Equivocate { low, high } => {
                NamedAdversary::new("split-vote", SplitVote::new(low, high))
            }
            AttackBehavior::AnnounceToSubset { modulus, remainder } => NamedAdversary::new(
                "announce-to-subset",
                AnnounceToSubset::new(modulus, remainder),
            ),
            ref other => scripted_attack_behavior(self, other, ctx),
        }
    }

    fn payload_vocab(
        &self,
        _ctx: &BuildContext,
    ) -> Option<Box<dyn PayloadVocab<crate::consensus::ConsensusMessage<u64>>>> {
        Some(Box::new(self.clone()))
    }

    fn record(&self, ctx: &BuildContext, nodes: &[Consensus<u64>], report: &mut RunReport) {
        let inputs: Vec<(NodeId, u64)> = ctx
            .correct_ids
            .iter()
            .copied()
            .zip(self.inputs.iter().copied())
            .collect();
        let mut decisions = Vec::new();
        let mut undecided = Vec::new();
        for node in nodes {
            match node.decision() {
                Some(decision) => decisions.push(ConsensusDecision {
                    node: node.id(),
                    value: decision.value,
                    phase: decision.phase,
                    round: decision.round,
                }),
                None => undecided.push(node.id()),
            }
        }
        report.consensus = Some(consensus_section_from_parts(inputs, decisions, undecided));
    }
}

/// The consensus wire vocabulary, phase-aware: Algorithm 3 runs `Init`/`Echo`
/// rounds and then five-round phases (`Input`, `Prefer`, `StrongPrefer`,
/// `Opinion`, resolve), so valid and boundary payloads must carry the message
/// shape the correct nodes are counting *this* round.
impl PayloadVocab<ConsensusMessage<u64>> for ConsensusFactory {
    fn valid(&self, scene: &VocabScene<'_>) -> Vec<ConsensusMessage<u64>> {
        let (low, _) = self.split_values();
        match scene.round {
            1 => vec![ConsensusMessage::Init],
            2 => scene
                .byzantine_ids
                .iter()
                .take(2)
                .map(|&b| ConsensusMessage::Echo(b))
                .collect(),
            r => match (r - 3) % 5 {
                0 => vec![ConsensusMessage::Input(low)],
                1 => vec![ConsensusMessage::Prefer(low)],
                2 => vec![ConsensusMessage::StrongPrefer(low)],
                3 => vec![ConsensusMessage::Opinion(low)],
                _ => Vec::new(),
            },
        }
    }

    fn boundary(&self, scene: &VocabScene<'_>) -> Vec<ConsensusMessage<u64>> {
        // The equivocation pair at the phase-appropriate shape — the split-vote
        // attack with the plan (not the input histogram) choosing the values.
        let (low, high) = self.split_values();
        match scene.round {
            1 => vec![ConsensusMessage::Init],
            2 => scene
                .byzantine_ids
                .iter()
                .take(2)
                .map(|&b| ConsensusMessage::Echo(b))
                .collect(),
            r => match (r - 3) % 5 {
                0 => vec![ConsensusMessage::Input(low), ConsensusMessage::Input(high)],
                1 => vec![
                    ConsensusMessage::Prefer(low),
                    ConsensusMessage::Prefer(high),
                ],
                2 => vec![
                    ConsensusMessage::StrongPrefer(low),
                    ConsensusMessage::StrongPrefer(high),
                ],
                3 => vec![
                    ConsensusMessage::Opinion(low),
                    ConsensusMessage::Opinion(high),
                ],
                _ => Vec::new(),
            },
        }
    }

    fn garbage(&self, scene: &VocabScene<'_>) -> Vec<ConsensusMessage<u64>> {
        vec![
            ConsensusMessage::Echo(scene.ghost_id(0)),
            ConsensusMessage::Opinion(scene.derived_value(0)),
            ConsensusMessage::Input(u64::MAX),
        ]
    }
}

// ---------------------------------------------------------------------------
// Reliable broadcast (Algorithm 1)
// ---------------------------------------------------------------------------

/// Factory for reliable broadcast over `u64` messages, with either a correct
/// designated sender or an equivocating Byzantine one.
#[derive(Clone, Debug)]
pub struct BroadcastFactory {
    value: u64,
    equivocate: Option<(u64, u64)>,
}

impl BroadcastFactory {
    /// A **correct** designated sender (the first correct node) broadcasting `value`.
    pub fn correct_source(value: u64) -> Self {
        BroadcastFactory {
            value,
            equivocate: None,
        }
    }

    /// A **Byzantine** designated sender (the first Byzantine identity) sending
    /// `value_a` to half the correct nodes and `value_b` to the other half.
    pub fn equivocating_source(value_a: u64, value_b: u64) -> Self {
        BroadcastFactory {
            value: value_a,
            equivocate: Some((value_a, value_b)),
        }
    }

    fn source(&self, ctx: &BuildContext) -> NodeId {
        if self.equivocate.is_some() {
            *ctx.byzantine_ids
                .first()
                .expect("an equivocating source needs a Byzantine identity")
        } else {
            *ctx.correct_ids
                .first()
                .expect("a correct source needs a correct node")
        }
    }
}

impl ProtocolFactory for BroadcastFactory {
    type Node = ReliableBroadcast<u64>;

    fn snapshotter(&self) -> Option<Snapshotter<Self::Node>> {
        Some(Box::new(|node| node.snapshot()))
    }

    fn protocol_name(&self) -> String {
        "reliable-broadcast".into()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<ReliableBroadcast<u64>> {
        let source = self.source(ctx);
        ctx.correct_ids
            .iter()
            .map(|&id| {
                if id == source {
                    ReliableBroadcast::sender(id, self.value)
                } else {
                    ReliableBroadcast::receiver(id, source)
                }
            })
            .collect()
    }

    fn adversary(
        &self,
        kind: AdversaryKind,
        ctx: &BuildContext,
    ) -> NamedAdversary<crate::reliable_broadcast::RbMessage<u64>> {
        if let Some((value_a, value_b)) = self.equivocate {
            // The equivocating source *is* the attack; the kind is irrelevant.
            return NamedAdversary::new(
                "equivocating-source",
                EquivocatingSource::new(self.source(ctx), value_a, value_b),
            );
        }
        match kind {
            AdversaryKind::Silent => NamedAdversary::new(kind.name(), SilentAdversary),
            AdversaryKind::PartialAnnounce => {
                NamedAdversary::new(kind.name(), AnnounceToSubset::every_other())
            }
            AdversaryKind::AnnounceThenSilent | AdversaryKind::SplitVote | AdversaryKind::Worst => {
                NamedAdversary::new("announce-then-silent", AnnounceToSubset::everyone())
            }
        }
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<crate::reliable_broadcast::RbMessage<u64>> {
        match *behavior {
            // Sender equivocation needs a Byzantine designated sender; with one
            // configured, the plan chooses the two conflicting values.
            AttackBehavior::Equivocate { low, high } if self.equivocate.is_some() => {
                NamedAdversary::new(
                    "equivocating-source",
                    EquivocatingSource::new(self.source(ctx), low, high),
                )
            }
            AttackBehavior::AnnounceToSubset { modulus, remainder } => NamedAdversary::new(
                "announce-to-subset",
                AnnounceToSubset::new(modulus, remainder),
            ),
            ref other => scripted_attack_behavior(self, other, ctx),
        }
    }

    fn payload_vocab(
        &self,
        _ctx: &BuildContext,
    ) -> Option<Box<dyn PayloadVocab<crate::reliable_broadcast::RbMessage<u64>>>> {
        Some(Box::new(self.clone()))
    }

    fn stop_condition(&self) -> StopCondition {
        // Reliable broadcast never terminates in the paper; 12 rounds comfortably
        // cover acceptance plus the relay deadline at every size the suite uses.
        StopCondition::FixedRounds(12)
    }

    fn record(&self, ctx: &BuildContext, nodes: &[ReliableBroadcast<u64>], report: &mut RunReport) {
        let accepted: Vec<NodeAcceptSet> = nodes
            .iter()
            .map(|node| {
                let mut values: Vec<(u64, u64)> = node
                    .accepted()
                    .iter()
                    .map(|a| (a.message, a.round))
                    .collect();
                values.sort_unstable();
                NodeAcceptSet {
                    node: node.id(),
                    values,
                }
            })
            .collect();
        let sets: Vec<Vec<u64>> = accepted
            .iter()
            .map(|set| set.values.iter().map(|&(message, _)| message).collect())
            .collect();
        let consistent = sets.windows(2).all(|w| w[0] == w[1]);
        report.broadcast = Some(BroadcastSection {
            source: self.source(ctx),
            source_correct: self.equivocate.is_none(),
            sent: self.equivocate.is_none().then_some(self.value),
            accepted,
            consistent,
        });
    }
}

/// The broadcast wire vocabulary. The boundary payload is a **forged-value
/// echo**: `f` Byzantine echoes of a value the correct sender never broadcast
/// meet the `n_v/3` support rule *exactly* at `n = 3f` (`3·f ≥ n_v`), at which
/// point the correct nodes amplify the forgery to full acceptance — an
/// unforgeability violation. One node inside the bound (`n > 3f`) the same
/// echoes fall below every threshold and are inert, which is precisely the
/// tightness argument Theorem 1's bound needs.
impl PayloadVocab<RbMessage<u64>> for BroadcastFactory {
    fn valid(&self, scene: &VocabScene<'_>) -> Vec<RbMessage<u64>> {
        match scene.round {
            1 => vec![RbMessage::Present],
            _ => vec![RbMessage::Echo(self.value)],
        }
    }

    fn boundary(&self, scene: &VocabScene<'_>) -> Vec<RbMessage<u64>> {
        let forged = self.value ^ 0x5A5A;
        match scene.round {
            1 => vec![RbMessage::Present],
            _ => vec![RbMessage::Echo(forged)],
        }
    }

    fn garbage(&self, scene: &VocabScene<'_>) -> Vec<RbMessage<u64>> {
        vec![
            RbMessage::Init(scene.derived_value(0)),
            RbMessage::Echo(scene.derived_value(1)),
            RbMessage::Present,
        ]
    }
}

// ---------------------------------------------------------------------------
// Rotor-coordinator (Algorithm 2)
// ---------------------------------------------------------------------------

/// Factory for the standalone rotor-coordinator; each node's opinion is its raw
/// identifier, which makes coordinator acceptance observable in reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct RotorFactory;

impl ProtocolFactory for RotorFactory {
    type Node = RotorCoordinator<u64>;

    fn snapshotter(&self) -> Option<Snapshotter<Self::Node>> {
        Some(Box::new(|node| node.snapshot()))
    }

    fn protocol_name(&self) -> String {
        "rotor".into()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<RotorCoordinator<u64>> {
        ctx.correct_ids
            .iter()
            .map(|&id| RotorCoordinator::new(id, id.raw()))
            .collect()
    }

    fn adversary(
        &self,
        kind: AdversaryKind,
        _ctx: &BuildContext,
    ) -> NamedAdversary<crate::rotor::RotorMessage<u64>> {
        match kind {
            AdversaryKind::Silent => NamedAdversary::new(kind.name(), SilentAdversary),
            AdversaryKind::PartialAnnounce => {
                NamedAdversary::new(kind.name(), AnnounceToSubset::every_other())
            }
            AdversaryKind::AnnounceThenSilent | AdversaryKind::SplitVote | AdversaryKind::Worst => {
                NamedAdversary::new("announce-then-silent", AnnounceToSubset::everyone())
            }
        }
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<crate::rotor::RotorMessage<u64>> {
        match *behavior {
            AttackBehavior::AnnounceToSubset { modulus, remainder } => NamedAdversary::new(
                "announce-to-subset",
                AnnounceToSubset::new(modulus, remainder),
            ),
            ref other => scripted_attack_behavior(self, other, ctx),
        }
    }

    fn payload_vocab(
        &self,
        _ctx: &BuildContext,
    ) -> Option<Box<dyn PayloadVocab<crate::rotor::RotorMessage<u64>>>> {
        Some(Box::new(*self))
    }

    fn record(&self, _ctx: &BuildContext, nodes: &[RotorCoordinator<u64>], report: &mut RunReport) {
        let correct: BTreeSet<NodeId> = nodes.iter().map(|n| n.id()).collect();
        let histories: Vec<_> = nodes.iter().map(|n| n.state().history()).collect();
        let shortest = histories.iter().map(|h| h.len()).min().unwrap_or(0);
        let good_round = (0..shortest).any(|r| {
            let selections: BTreeSet<NodeId> = histories.iter().map(|h| h[r].coordinator).collect();
            selections.len() == 1 && correct.contains(selections.iter().next().unwrap())
        });
        report.rotor = Some(RotorSection {
            selected: nodes
                .first()
                .map(|n| n.state().selected().len())
                .unwrap_or(0),
            good_round,
        });
    }
}

/// The rotor wire vocabulary. The garbage class emits **one fresh ghost
/// candidate echo per round**: at `n = 3f` the `f` Byzantine votes meet the
/// `n_v/3` support rule, the correct nodes amplify the ghost past `2n_v/3`, and
/// the candidate set `C_v` grows by one forever — the rotation index never
/// revisits a selected coordinator, so Algorithm 2 never terminates. Inside the
/// bound the same echoes never reach support and the rotor is untouched.
impl PayloadVocab<RotorMessage<u64>> for RotorFactory {
    fn valid(&self, scene: &VocabScene<'_>) -> Vec<RotorMessage<u64>> {
        match scene.round {
            1 => vec![RotorMessage::Init],
            _ => scene
                .correct_ids
                .iter()
                .take(1)
                .map(|&c| RotorMessage::Echo(c))
                .collect(),
        }
    }

    fn boundary(&self, scene: &VocabScene<'_>) -> Vec<RotorMessage<u64>> {
        // Vouch for the Byzantine identities as coordinators, and equivocate the
        // opinion a (selected) Byzantine coordinator distributes.
        let mut out: Vec<RotorMessage<u64>> = scene
            .byzantine_ids
            .iter()
            .take(2)
            .map(|&b| RotorMessage::Echo(b))
            .collect();
        if scene.round == 1 {
            out.push(RotorMessage::Init);
        } else {
            out.push(RotorMessage::Opinion(0));
            out.push(RotorMessage::Opinion(u64::MAX));
        }
        out
    }

    fn garbage(&self, scene: &VocabScene<'_>) -> Vec<RotorMessage<u64>> {
        vec![
            RotorMessage::Echo(scene.ghost_id(0)),
            RotorMessage::Opinion(scene.derived_value(0)),
        ]
    }
}

// ---------------------------------------------------------------------------
// Approximate agreement (Algorithm 4)
// ---------------------------------------------------------------------------

/// Value-outlier adversary for the approximate-agreement family: Byzantine
/// identities push `±magnitude` to alternating halves of the correct nodes, in
/// round 1 only (`every_round = false`) or in every round.
fn outliers_with(name: &str, magnitude: f64, every_round: bool) -> NamedAdversary<Real> {
    NamedAdversary::new(
        name,
        FnAdversary::new(move |view: &AdversaryView<'_, Real>| {
            if !every_round && view.round != 1 {
                return Vec::new();
            }
            let mut out = Vec::new();
            for (b, &from) in view.byzantine_ids.iter().enumerate() {
                for (i, &to) in view.correct_ids.iter().enumerate() {
                    let value = if (i + b) % 2 == 0 {
                        -magnitude
                    } else {
                        magnitude
                    };
                    out.push(uba_simnet::Directed::new(from, to, Real::from_f64(value)));
                }
            }
            out
        }),
    )
}

/// The round-1 extreme-outlier adversary from the Theorem 4 experiments: Byzantine
/// identities push `±10⁹` to alternating halves of the correct nodes.
fn extreme_outliers() -> NamedAdversary<Real> {
    outliers_with("extreme-outliers", 1e9, false)
}

/// Factory for single-shot approximate agreement on `f64` inputs.
#[derive(Clone, Debug)]
pub struct ApproxFactory {
    inputs: Vec<f64>,
}

impl ApproxFactory {
    /// One input per correct node, in construction order.
    pub fn new(inputs: impl Into<Vec<f64>>) -> Self {
        ApproxFactory {
            inputs: inputs.into(),
        }
    }
}

impl ProtocolFactory for ApproxFactory {
    type Node = ApproxAgreement;

    fn snapshotter(&self) -> Option<Snapshotter<Self::Node>> {
        Some(Box::new(|node| node.snapshot()))
    }

    fn protocol_name(&self) -> String {
        "approx-agreement".into()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<ApproxAgreement> {
        assert_eq!(
            self.inputs.len(),
            ctx.correct_ids.len(),
            "one input per correct node"
        );
        ctx.correct_ids
            .iter()
            .zip(&self.inputs)
            .map(|(&id, &input)| ApproxAgreement::new(id, Real::from_f64(input)))
            .collect()
    }

    fn adversary(&self, kind: AdversaryKind, _ctx: &BuildContext) -> NamedAdversary<Real> {
        match kind {
            AdversaryKind::Silent => NamedAdversary::new(kind.name(), SilentAdversary),
            // Every active strategy maps to the proof's worst case: values have no
            // votes to split and no announcements to withhold, only outliers.
            _ => extreme_outliers(),
        }
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<Real> {
        match *behavior {
            AttackBehavior::Outliers { magnitude } => outliers_with("outliers", magnitude, false),
            ref other => scripted_attack_behavior(self, other, ctx),
        }
    }

    fn payload_vocab(&self, _ctx: &BuildContext) -> Option<Box<dyn PayloadVocab<Real>>> {
        Some(Box::new(ApproxVocab {
            inputs: self.inputs.clone(),
        }))
    }

    fn stop_condition(&self) -> StopCondition {
        StopCondition::AllOutput
    }

    fn record(&self, _ctx: &BuildContext, nodes: &[ApproxAgreement], report: &mut RunReport) {
        let outputs: Vec<f64> = nodes
            .iter()
            .filter_map(|n| n.output())
            .map(|real| real.to_f64())
            .collect();
        report.approx = Some(approx_section_from_values(self.inputs.clone(), outputs));
    }
}

/// The approximate-agreement vocabulary (shared by the single-shot and iterated
/// factories): real-valued payloads need no phase awareness, only placement.
/// The boundary pair `±10⁹` is dispatched per recipient (payload `j` to nodes
/// `i % 2 == j`), which at `n = 3f` leaves each node's trimmed multiset anchored
/// at a different end of the correct range — with `f = 1` the outputs *equal*
/// the input extremes and the contraction property fails outright.
struct ApproxVocab {
    inputs: Vec<f64>,
}

impl PayloadVocab<Real> for ApproxVocab {
    fn valid(&self, _scene: &VocabScene<'_>) -> Vec<Real> {
        let (lo, hi) = uba_simnet::vocab::input_extremes(&self.inputs);
        vec![Real::from_f64(lo), Real::from_f64(hi)]
    }

    fn boundary(&self, _scene: &VocabScene<'_>) -> Vec<Real> {
        vec![Real::from_f64(-1e9), Real::from_f64(1e9)]
    }

    fn garbage(&self, scene: &VocabScene<'_>) -> Vec<Real> {
        let wobble = (scene.round % 7) as f64;
        vec![
            Real::from_f64(1e12 + wobble),
            Real::from_f64(-1e12 - wobble),
            Real::ZERO,
        ]
    }
}

/// Factory for iterated approximate agreement: convergence over a fixed number of
/// iterations, recorded as a per-iteration spread series.
#[derive(Clone, Debug)]
pub struct IteratedApproxFactory {
    inputs: Vec<f64>,
    iterations: u64,
}

impl IteratedApproxFactory {
    /// One input per correct node; the protocol runs `iterations` halving rounds.
    pub fn new(inputs: impl Into<Vec<f64>>, iterations: u64) -> Self {
        IteratedApproxFactory {
            inputs: inputs.into(),
            iterations,
        }
    }
}

impl ProtocolFactory for IteratedApproxFactory {
    type Node = IteratedApproxAgreement;

    fn snapshotter(&self) -> Option<Snapshotter<Self::Node>> {
        Some(Box::new(|node| node.snapshot()))
    }

    fn protocol_name(&self) -> String {
        "iterated-approx".into()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<IteratedApproxAgreement> {
        assert_eq!(
            self.inputs.len(),
            ctx.correct_ids.len(),
            "one input per correct node"
        );
        ctx.correct_ids
            .iter()
            .zip(&self.inputs)
            .map(|(&id, &input)| {
                IteratedApproxAgreement::new(id, Real::from_f64(input), self.iterations)
            })
            .collect()
    }

    fn adversary(&self, kind: AdversaryKind, _ctx: &BuildContext) -> NamedAdversary<Real> {
        match kind {
            AdversaryKind::Silent => NamedAdversary::new(kind.name(), SilentAdversary),
            _ => outliers_with("per-round-outliers", 1e9, true),
        }
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<Real> {
        match *behavior {
            AttackBehavior::Outliers { magnitude } => {
                outliers_with("per-round-outliers", magnitude, true)
            }
            ref other => scripted_attack_behavior(self, other, ctx),
        }
    }

    fn payload_vocab(&self, _ctx: &BuildContext) -> Option<Box<dyn PayloadVocab<Real>>> {
        Some(Box::new(ApproxVocab {
            inputs: self.inputs.clone(),
        }))
    }

    fn record(
        &self,
        _ctx: &BuildContext,
        nodes: &[IteratedApproxAgreement],
        report: &mut RunReport,
    ) {
        let mut per_iteration = Vec::new();
        for iteration in 0..self.iterations as usize {
            let values: Vec<f64> = nodes
                .iter()
                .filter(|n| n.history().len() > iteration)
                .map(|n| n.history()[iteration].to_f64())
                .collect();
            if values.is_empty() {
                break;
            }
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            per_iteration.push(hi - lo);
        }
        report.spreads = Some(SpreadSection { per_iteration });
        let outputs: Vec<f64> = nodes
            .iter()
            .filter_map(|n| n.output())
            .map(|real| real.to_f64())
            .collect();
        report.approx = Some(approx_section_from_values(self.inputs.clone(), outputs));
    }
}

// ---------------------------------------------------------------------------
// Parallel consensus (Algorithm 5)
// ---------------------------------------------------------------------------

/// Factory for parallel consensus over shared `(instance, value)` pairs.
#[derive(Clone, Debug)]
pub struct ParallelConsensusFactory {
    pairs: Vec<(u64, u64)>,
    ghosts: Vec<(u64, u64)>,
    partial: Option<(u64, u64)>,
}

impl ParallelConsensusFactory {
    /// Every correct node starts with the same `(instance, value)` input pairs.
    pub fn new(pairs: impl Into<Vec<(u64, u64)>>) -> Self {
        ParallelConsensusFactory {
            pairs: pairs.into(),
            ghosts: Vec::new(),
            partial: None,
        }
    }

    /// Fabricated pairs the [`AdversaryKind::Worst`] strategy injects.
    pub fn with_ghost_pairs(mut self, ghosts: impl Into<Vec<(u64, u64)>>) -> Self {
        self.ghosts = ghosts.into();
        self
    }

    /// Adds a pair held by only the **even-indexed** correct nodes (construction
    /// order). The paper guarantees such a pair "may or may not be output — but
    /// is output consistently" inside the bound; it is also exactly where the
    /// `n > 3f` requirement binds, because at `n = 3f` the `f` holders plus the
    /// `f` Byzantine identities form a `2n_v/3` quorum the non-holders cannot
    /// see through (the vocabulary's boundary campaign exploits this).
    pub fn with_partial_pair(mut self, pair: (u64, u64)) -> Self {
        self.partial = Some(pair);
        self
    }
}

impl ProtocolFactory for ParallelConsensusFactory {
    type Node = ParallelConsensus<u64>;

    fn snapshotter(&self) -> Option<Snapshotter<Self::Node>> {
        Some(Box::new(|node| node.snapshot()))
    }

    fn protocol_name(&self) -> String {
        "parallel-consensus".into()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<ParallelConsensus<u64>> {
        ctx.correct_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let mut pairs = self.pairs.clone();
                if let Some(partial) = self.partial {
                    if i % 2 == 0 {
                        pairs.push(partial);
                    }
                }
                ParallelConsensus::new(id, pairs)
            })
            .collect()
    }

    fn adversary(
        &self,
        kind: AdversaryKind,
        _ctx: &BuildContext,
    ) -> NamedAdversary<crate::early_consensus::ParallelMessage<u64>> {
        match kind {
            AdversaryKind::Silent => NamedAdversary::new(kind.name(), SilentAdversary),
            AdversaryKind::PartialAnnounce => {
                NamedAdversary::new(kind.name(), AnnounceToSubset::every_other())
            }
            AdversaryKind::Worst if !self.ghosts.is_empty() => NamedAdversary::new(
                "ghost-pair-injector",
                GhostPairInjector::new(self.ghosts.clone()),
            ),
            AdversaryKind::AnnounceThenSilent | AdversaryKind::SplitVote | AdversaryKind::Worst => {
                NamedAdversary::new("announce-then-silent", AnnounceToSubset::everyone())
            }
        }
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<crate::early_consensus::ParallelMessage<u64>> {
        match *behavior {
            AttackBehavior::AnnounceToSubset { modulus, remainder } => NamedAdversary::new(
                "announce-to-subset",
                AnnounceToSubset::new(modulus, remainder),
            ),
            ref other => scripted_attack_behavior(self, other, ctx),
        }
    }

    fn payload_vocab(
        &self,
        _ctx: &BuildContext,
    ) -> Option<Box<dyn PayloadVocab<crate::early_consensus::ParallelMessage<u64>>>> {
        Some(Box::new(self.clone()))
    }

    fn record(
        &self,
        _ctx: &BuildContext,
        nodes: &[ParallelConsensus<u64>],
        report: &mut RunReport,
    ) {
        let decisions: Vec<NodePairs> = nodes
            .iter()
            .filter_map(|node| {
                node.decision().map(|decision| NodePairs {
                    node: node.id(),
                    pairs: decision.pairs.iter().map(|(&k, &v)| (k, v)).collect(),
                })
            })
            .collect();
        let agreement = decisions.windows(2).all(|w| w[0].pairs == w[1].pairs);
        report.parallel = Some(ParallelSection {
            decisions,
            agreement,
        });
    }
}

/// The parallel-consensus vocabulary, following the five-round phase schedule
/// the instances evaluate (inputs at `(r − 3) % 5 == 0`, prefers next, strong
/// prefers after — the same cadence the consensus split-vote attack tracks, in
/// *every* phase, not just the first). The boundary class equivocates between a
/// partial pair's value and `⊥` on the same instance — the sharpest pressure on
/// Theorem 5's "a partially submitted pair is output *consistently*" clause —
/// falling back to a ghost-instance campaign when the factory has no partial
/// pair.
impl PayloadVocab<crate::early_consensus::ParallelMessage<u64>> for ParallelConsensusFactory {
    fn valid(&self, scene: &VocabScene<'_>) -> Vec<crate::early_consensus::ParallelMessage<u64>> {
        use crate::early_consensus::ParallelMessage as Pm;
        match scene.round {
            1 => vec![Pm::Init],
            2 => scene
                .byzantine_ids
                .iter()
                .take(1)
                .map(|&b| Pm::Echo(b))
                .collect(),
            r => match (r - 3) % 5 {
                0 => self.pairs.iter().map(|&(id, v)| Pm::Input(id, v)).collect(),
                1 => self
                    .pairs
                    .iter()
                    .map(|&(id, v)| Pm::Prefer(id, Some(v)))
                    .collect(),
                2 => self
                    .pairs
                    .iter()
                    .map(|&(id, v)| Pm::StrongPrefer(id, Some(v)))
                    .collect(),
                _ => Vec::new(),
            },
        }
    }

    fn boundary(
        &self,
        scene: &VocabScene<'_>,
    ) -> Vec<crate::early_consensus::ParallelMessage<u64>> {
        use crate::early_consensus::ParallelMessage as Pm;
        // The sharp campaign targets a *partial* pair (one held by the
        // even-indexed correct nodes only, see [`Self::with_partial_pair`]): at
        // n = 3f its f holders plus the f Byzantine identities form a 2n_v/3
        // quorum that only the recipients the adversary courts can see. The
        // boundary partition (payload 0 to even recipients, payload 1 to odd)
        // therefore splits the correct nodes into one half that observes a
        // two-thirds quorum for the pair's value at every step — and decides it —
        // and one half for which the adversary stays silent on the instance, so
        // the phase-1 ⊥-fills (f silent non-holders + f silent Byzantine = 2f =
        // 2n_v/3) drive it to decide ⊥: the pair is output inconsistently, which
        // is exactly the consistency clause of Theorem 5 failing at the
        // boundary. One node inside the bound neither quorum closes, the odd
        // half adopts the value via the n_v/3 rule and decides it one phase
        // later — the bound is tight.
        if let Some((instance, value)) = self.partial {
            return match scene.round {
                1 => vec![Pm::Init],
                2 => Vec::new(),
                r => match (r - 3) % 5 {
                    // `NoPreference` is ignored at the input-counting step, so the
                    // odd half sees the adversary as silent on the instance and
                    // fills ⊥ for it.
                    0 => vec![Pm::Input(instance, value), Pm::NoPreference(instance)],
                    1 => vec![
                        Pm::Prefer(instance, Some(value)),
                        Pm::Prefer(instance, None),
                    ],
                    2 => vec![
                        Pm::StrongPrefer(instance, Some(value)),
                        Pm::StrongPrefer(instance, None),
                    ],
                    // If the rotor happens to select a Byzantine coordinator, its
                    // opinion equivocates along the same partition.
                    3 => vec![
                        Pm::Opinion(instance, Some(value)),
                        Pm::Opinion(instance, None),
                    ],
                    _ => Vec::new(),
                },
            };
        }
        // Without a partial pair the fallback is a *ghost* instance no correct
        // node has as input: its vote landscape is entirely adversary-controlled,
        // though the phase-1 ⊥-fills (2f ≥ 2n_v/3 even at the boundary) mean the
        // ghost always dies consistently — the campaign pressures the reception
        // rules without a theorem-violating payoff. The id is fixed across
        // rounds (campaigns need continuity) and far above every real instance.
        const GHOST_INSTANCE: u64 = 1 << 41;
        match scene.round {
            1 => vec![Pm::Init],
            2 => Vec::new(),
            r => match (r - 3) % 5 {
                0 => vec![Pm::Input(GHOST_INSTANCE, 0), Pm::Input(GHOST_INSTANCE, 1)],
                1 => vec![
                    Pm::Prefer(GHOST_INSTANCE, Some(0)),
                    Pm::Prefer(GHOST_INSTANCE, Some(1)),
                ],
                2 => vec![
                    Pm::StrongPrefer(GHOST_INSTANCE, Some(0)),
                    Pm::StrongPrefer(GHOST_INSTANCE, Some(1)),
                ],
                _ => Vec::new(),
            },
        }
    }

    fn garbage(&self, scene: &VocabScene<'_>) -> Vec<crate::early_consensus::ParallelMessage<u64>> {
        use crate::early_consensus::ParallelMessage as Pm;
        vec![
            Pm::Input(scene.ghost_id(0).raw(), scene.derived_value(0)),
            Pm::NoPreference(scene.ghost_id(1).raw()),
            Pm::Opinion(scene.ghost_id(2).raw(), None),
        ]
    }
}

// ---------------------------------------------------------------------------
// Total ordering (Algorithm 6)
// ---------------------------------------------------------------------------

/// External inputs for a total-ordering run: who submits which event before which
/// round, and who announces a leave. Joins go through the scenario's
/// [`ChurnSchedule`](uba_simnet::ChurnSchedule) — the engine constructs joiners via
/// [`TotalOrderFactory`]'s churn constructor.
#[derive(Clone, Debug, Default)]
pub struct TotalOrderPlan<E> {
    /// Total rounds to run.
    pub total_rounds: u64,
    /// `(before round, founder index, payload)` event submissions.
    pub events: Vec<(u64, usize, E)>,
    /// `(before round, founder index)` leave announcements.
    pub leaves: Vec<(u64, usize)>,
}

impl<E> TotalOrderPlan<E> {
    /// A plan running `total_rounds` rounds with no events.
    pub fn rounds(total_rounds: u64) -> Self {
        TotalOrderPlan {
            total_rounds,
            events: Vec::new(),
            leaves: Vec::new(),
        }
    }

    /// Adds an event submitted by the `founder`-th correct node before `round`.
    pub fn event(mut self, round: u64, founder: usize, payload: E) -> Self {
        self.events.push((round, founder, payload));
        self
    }

    /// Has the `founder`-th correct node announce its departure before `round`.
    pub fn leave(mut self, round: u64, founder: usize) -> Self {
        self.leaves.push((round, founder));
        self
    }
}

/// Factory for dynamic total ordering over events of type `E`.
#[derive(Clone, Debug)]
pub struct TotalOrderFactory<E: Opinion> {
    plan: TotalOrderPlan<E>,
    founders: Vec<NodeId>,
}

impl<E: Opinion> TotalOrderFactory<E> {
    /// Creates the factory from an input plan.
    pub fn new(plan: TotalOrderPlan<E>) -> Self {
        TotalOrderFactory {
            plan,
            founders: Vec::new(),
        }
    }

    fn leaver_ids(&self) -> Vec<NodeId> {
        self.plan
            .leaves
            .iter()
            .filter_map(|&(_, index)| self.founders.get(index).copied())
            .collect()
    }
}

impl<E: Opinion + 'static> ProtocolFactory for TotalOrderFactory<E> {
    type Node = TotalOrderNode<E>;

    fn snapshotter(&self) -> Option<Snapshotter<Self::Node>> {
        Some(Box::new(|node| node.snapshot()))
    }

    fn protocol_name(&self) -> String {
        "total-order".into()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<TotalOrderNode<E>> {
        self.founders = ctx.correct_ids.clone();
        ctx.correct_ids
            .iter()
            .map(|&id| TotalOrderNode::founding(id))
            .collect()
    }

    fn adversary(
        &self,
        kind: AdversaryKind,
        _ctx: &BuildContext,
    ) -> NamedAdversary<crate::total_order::TotalOrderMessage<E>> {
        match kind {
            AdversaryKind::Silent => NamedAdversary::new(kind.name(), SilentAdversary),
            // The strongest attack the family's message language admits: a
            // split-brain schedule equivocating the embedded consensus votes of a
            // Byzantine-witnessed event between the two halves of the correct
            // nodes (see [`total_order_split_brain`]). At `n = 3f` it splits the
            // chain; inside the bound the correct majority heals the split.
            AdversaryKind::SplitVote | AdversaryKind::Worst => NamedAdversary::new(
                "split-brain",
                total_order_split_brain(self.plan.events.first().map(|(_, _, e)| e.clone())),
            ),
            // The remaining scripted strategies cannot fabricate arbitrary event
            // payloads; protocol-specific attacks (e.g.
            // `adversaries::MembershipFlapper`) go through `build_with_adversary`.
            _ => NamedAdversary::new("silent", SilentAdversary),
        }
    }

    fn payload_vocab(
        &self,
        _ctx: &BuildContext,
    ) -> Option<Box<dyn PayloadVocab<crate::total_order::TotalOrderMessage<E>>>> {
        Some(Box::new(self.clone()))
    }

    fn stop_condition(&self) -> StopCondition {
        StopCondition::FixedRounds(self.plan.total_rounds)
    }

    fn joiner(&self, _ctx: &BuildContext) -> Box<dyn FnMut(NodeId) -> TotalOrderNode<E>> {
        Box::new(TotalOrderNode::joining)
    }

    fn before_round(&mut self, round: u64, nodes: &mut [TotalOrderNode<E>]) {
        for (at, founder, payload) in &self.plan.events {
            if *at == round {
                let submitter = self.founders.get(*founder).copied();
                if let Some(node) = nodes
                    .iter_mut()
                    .find(|n| Some(Protocol::id(*n)) == submitter)
                {
                    node.submit_event(payload.clone());
                }
            }
        }
        for (at, founder) in &self.plan.leaves {
            if *at == round {
                let leaver = self.founders.get(*founder).copied();
                if let Some(node) = nodes.iter_mut().find(|n| Some(Protocol::id(*n)) == leaver) {
                    node.announce_leave();
                }
            }
        }
    }

    fn record(&self, _ctx: &BuildContext, nodes: &[TotalOrderNode<E>], report: &mut RunReport) {
        let leavers = self.leaver_ids();
        let lengths: Vec<(NodeId, usize)> =
            nodes.iter().map(|n| (n.id(), n.chain().len())).collect();
        let chains: Vec<&[_]> = nodes
            .iter()
            .filter(|n| !leavers.contains(&n.id()))
            .map(|n| n.chain())
            .collect();
        report.chain = Some(ChainSection {
            lengths,
            prefix_ok: chains_agree(&chains),
        });
    }
}

/// The total-ordering vocabulary. Event payloads of type `E` cannot be
/// synthesised generically, so the vocabulary *replays* the plan's own event
/// payloads under Byzantine identities — mis-tagged rounds, equivocated
/// embedded-consensus votes, spurious `Absent` departures — which is exactly the
/// material a membership-tracking total order has to survive.
impl<E: Opinion + 'static> PayloadVocab<crate::total_order::TotalOrderMessage<E>>
    for TotalOrderFactory<E>
{
    fn valid(&self, scene: &VocabScene<'_>) -> Vec<crate::total_order::TotalOrderMessage<E>> {
        use crate::total_order::TotalOrderMessage as Tm;
        let mut out = vec![Tm::Present, Tm::Ack(scene.round)];
        if let Some((_, _, event)) = self.plan.events.first() {
            out.push(Tm::Event(scene.round, event.clone()));
        }
        out
    }

    fn boundary(&self, scene: &VocabScene<'_>) -> Vec<crate::total_order::TotalOrderMessage<E>> {
        use crate::early_consensus::ParallelMessage as Pm;
        use crate::total_order::TotalOrderMessage as Tm;
        let instance = scene.byzantine_ids.first().map(|b| b.raw()).unwrap_or(0);
        let mut out = vec![Tm::Absent];
        if let Some((_, _, event)) = self.plan.events.first() {
            // Equivocate the embedded consensus instance of the current round
            // between a real event value and ⊥, and re-witness the event under a
            // stale round tag.
            out.push(Tm::Instance(
                scene.round,
                Pm::Prefer(instance, Some(event.clone())),
            ));
            out.push(Tm::Instance(scene.round, Pm::Prefer(instance, None)));
            out.push(Tm::Event(scene.round.saturating_sub(1), event.clone()));
        }
        out
    }

    fn garbage(&self, scene: &VocabScene<'_>) -> Vec<crate::total_order::TotalOrderMessage<E>> {
        use crate::early_consensus::ParallelMessage as Pm;
        use crate::total_order::TotalOrderMessage as Tm;
        let mut out = vec![
            Tm::Ack(scene.round + 997),
            Tm::Instance(scene.round, Pm::NoPreference(scene.ghost_id(0).raw())),
        ];
        if let Some((_, _, event)) = self.plan.events.first() {
            out.push(Tm::Event(scene.round + 50, event.clone()));
        }
        out
    }
}

/// The split-brain adversary for the total-order family: the sharpest attack its
/// message language admits, and the machine behind the family's `n = 3f` boundary
/// demonstration.
///
/// Each Byzantine identity runs the same deterministic schedule every round `t`:
///
/// * `present` to everyone (membership), and `Instance(t, Init)` to everyone so the
///   identity is counted into every embedded instance's `n_v` before the sender set
///   freezes (the `Init` lands on the instance's echo round);
/// * a fabricated `Event(t, e)` witnessed by the Byzantine identity — but only to
///   the first half **A** of the correct nodes, so only A holds the input pair;
/// * the equivocated vote ladder for that fabricated instance, each message timed
///   to land exactly on the inner round that tallies its kind (input votes on local
///   round 4, prefer on 5, strong-prefer on 6): value-side votes to A, `⊥`-side
///   votes to the other half **B**.
///
/// At `n = 3f` the `2n_v/3` quorum at an A-node is reachable with the `f` Byzantine
/// votes on top of A's own, while B simultaneously reaches a `⊥` quorum — the two
/// halves decide differently in the very first phase and the chains diverge. Inside
/// the bound (`n > 3f`) neither side can reach a quorum without a majority of the
/// correct nodes, the plurality rule pulls every straggler onto the common value,
/// and agreement holds — which is exactly the tightness statement of Theorem 6.
pub fn total_order_split_brain<E: Opinion>(
    event: Option<E>,
) -> impl Adversary<crate::total_order::TotalOrderMessage<E>> {
    FnAdversary::new(
        move |view: &AdversaryView<'_, crate::total_order::TotalOrderMessage<E>>| {
            use crate::early_consensus::ParallelMessage as Pm;
            use crate::total_order::TotalOrderMessage as Tm;
            let Some(event) = event.clone() else {
                return Vec::new();
            };
            let t = view.round;
            let half = view.correct_ids.len().div_ceil(2);
            let (side_a, side_b) = view.correct_ids.split_at(half);
            let mut out = Vec::new();
            for &actor in view.byzantine_ids {
                let instance = actor.raw();
                for &to in view.correct_ids {
                    out.push(Directed::new(actor, to, Tm::Present));
                    out.push(Directed::new(actor, to, Tm::Instance(t, Pm::Init)));
                }
                for &to in side_a {
                    out.push(Directed::new(actor, to, Tm::Event(t, event.clone())));
                    if let Some(target) = t.checked_sub(2).filter(|r| *r >= 1) {
                        out.push(Directed::new(
                            actor,
                            to,
                            Tm::Instance(target, Pm::Input(instance, event.clone())),
                        ));
                    }
                    if let Some(target) = t.checked_sub(3).filter(|r| *r >= 1) {
                        out.push(Directed::new(
                            actor,
                            to,
                            Tm::Instance(target, Pm::Prefer(instance, Some(event.clone()))),
                        ));
                    }
                    if let Some(target) = t.checked_sub(4).filter(|r| *r >= 1) {
                        out.push(Directed::new(
                            actor,
                            to,
                            Tm::Instance(target, Pm::StrongPrefer(instance, Some(event.clone()))),
                        ));
                    }
                }
                for &to in side_b {
                    if let Some(target) = t.checked_sub(3).filter(|r| *r >= 1) {
                        out.push(Directed::new(
                            actor,
                            to,
                            Tm::Instance(target, Pm::Prefer(instance, None)),
                        ));
                    }
                    if let Some(target) = t.checked_sub(4).filter(|r| *r >= 1) {
                        out.push(Directed::new(
                            actor,
                            to,
                            Tm::Instance(target, Pm::StrongPrefer(instance, None)),
                        ));
                    }
                }
            }
            out
        },
    )
}

// ---------------------------------------------------------------------------
// Fluent sugar
// ---------------------------------------------------------------------------

/// Protocol-specific conveniences on the generic [`ScenarioBuilder`]: each method is
/// `.build(<factory>)` with the factory spelled inline.
pub trait ScenarioExt: Sized {
    /// Consensus with one input per correct node.
    fn consensus(self, inputs: &[u64]) -> Harness<ConsensusFactory>;
    /// Reliable broadcast with a correct designated sender broadcasting `value`.
    fn broadcast(self, value: u64) -> Harness<BroadcastFactory>;
    /// Reliable broadcast with an equivocating Byzantine designated sender.
    fn broadcast_equivocating(self, value_a: u64, value_b: u64) -> Harness<BroadcastFactory>;
    /// The standalone rotor-coordinator.
    fn rotor(self) -> Harness<RotorFactory>;
    /// Single-shot approximate agreement on the given correct inputs.
    fn approx(self, inputs: &[f64]) -> Harness<ApproxFactory>;
    /// Iterated approximate agreement over `iterations` halving rounds.
    fn iterated_approx(self, inputs: &[f64], iterations: u64) -> Harness<IteratedApproxFactory>;
    /// Parallel consensus over shared `(instance, value)` pairs.
    fn parallel_consensus(self, pairs: &[(u64, u64)]) -> Harness<ParallelConsensusFactory>;
    /// Dynamic total ordering driven by an input plan.
    fn total_order(self, plan: TotalOrderPlan<u64>) -> Harness<TotalOrderFactory<u64>>;
}

impl ScenarioExt for ScenarioBuilder {
    fn consensus(self, inputs: &[u64]) -> Harness<ConsensusFactory> {
        self.build(ConsensusFactory::new(inputs.to_vec()))
    }

    fn broadcast(self, value: u64) -> Harness<BroadcastFactory> {
        self.build(BroadcastFactory::correct_source(value))
    }

    fn broadcast_equivocating(self, value_a: u64, value_b: u64) -> Harness<BroadcastFactory> {
        self.build(BroadcastFactory::equivocating_source(value_a, value_b))
    }

    fn rotor(self) -> Harness<RotorFactory> {
        self.build(RotorFactory)
    }

    fn approx(self, inputs: &[f64]) -> Harness<ApproxFactory> {
        self.build(ApproxFactory::new(inputs.to_vec()))
    }

    fn iterated_approx(self, inputs: &[f64], iterations: u64) -> Harness<IteratedApproxFactory> {
        self.build(IteratedApproxFactory::new(inputs.to_vec(), iterations))
    }

    fn parallel_consensus(self, pairs: &[(u64, u64)]) -> Harness<ParallelConsensusFactory> {
        self.build(ParallelConsensusFactory::new(pairs.to_vec()))
    }

    fn total_order(self, plan: TotalOrderPlan<u64>) -> Harness<TotalOrderFactory<u64>> {
        self.build(TotalOrderFactory::new(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consensus_factory_reports_agreement_and_validity() {
        let inputs = [0u64, 1, 0, 1, 0, 1, 0];
        for kind in [
            AdversaryKind::Silent,
            AdversaryKind::AnnounceThenSilent,
            AdversaryKind::PartialAnnounce,
            AdversaryKind::SplitVote,
        ] {
            let report = Simulation::scenario()
                .correct(7)
                .byzantine(2)
                .seed(3)
                .adversary(kind)
                .consensus(&inputs)
                .run()
                .unwrap();
            assert!(report.completed(), "consensus finished under {kind:?}");
            let section = report.consensus.expect("consensus section");
            assert!(section.agreement, "agreement under {kind:?}");
            assert!(section.validity, "validity under {kind:?}");
            assert!(section.undecided.is_empty());
            assert!(report.rounds > 0 && report.messages.correct > 0);
        }
    }

    #[test]
    fn broadcast_factories_report_consistency() {
        let correct = Simulation::scenario()
            .correct(7)
            .byzantine(2)
            .seed(5)
            .adversary(AdversaryKind::AnnounceThenSilent)
            .broadcast(42)
            .run()
            .unwrap();
        let section = correct.broadcast.expect("broadcast section");
        assert!(section.consistent);
        assert!(section.source_correct);
        assert!(section
            .accepted
            .iter()
            .all(|set| set.values.iter().map(|&(m, _)| m).eq([42u64])));

        let equivocating = Simulation::scenario()
            .correct(7)
            .byzantine(2)
            .seed(5)
            .broadcast_equivocating(1, 2)
            .run()
            .unwrap();
        let section = equivocating.broadcast.expect("broadcast section");
        assert_eq!(equivocating.adversary, "equivocating-source");
        assert!(!section.source_correct);
        assert!(
            section.consistent,
            "equivocation must be exposed consistently"
        );
    }

    #[test]
    fn rotor_factory_finds_a_good_round() {
        let report = Simulation::scenario()
            .correct(7)
            .byzantine(2)
            .seed(7)
            .adversary(AdversaryKind::AnnounceThenSilent)
            .rotor()
            .run()
            .unwrap();
        let section = report.rotor.expect("rotor section");
        assert!(section.good_round);
        assert!(section.selected >= 1);
    }

    #[test]
    fn approx_factory_reports_contraction() {
        let inputs: Vec<f64> = (0..10).map(|i| i as f64 * 10.0).collect();
        let report = Simulation::scenario()
            .correct(10)
            .byzantine(3)
            .seed(9)
            .adversary(AdversaryKind::Worst)
            .approx(&inputs)
            .run()
            .unwrap();
        assert_eq!(report.adversary, "extreme-outliers");
        let section = report.approx.expect("approx section");
        assert!(section.outputs_in_range);
        assert!(section.contraction < 1.0);

        let spreads = Simulation::scenario()
            .correct(10)
            .byzantine(3)
            .seed(9)
            .iterated_approx(&inputs, 5)
            .run()
            .unwrap()
            .spreads
            .expect("spread section")
            .per_iteration;
        assert_eq!(spreads.len(), 5);
        assert!(
            spreads.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "spread is non-increasing"
        );
        assert!(spreads.last().unwrap() < &10.0);
    }

    #[test]
    fn parallel_factory_rejects_ghost_pairs() {
        let pairs: Vec<(u64, u64)> = (0..4).map(|i| (i, 100 + i)).collect();
        let report = Simulation::scenario()
            .correct(7)
            .byzantine(2)
            .seed(11)
            .max_rounds(500)
            .adversary(AdversaryKind::Worst)
            .build(
                ParallelConsensusFactory::new(pairs.clone())
                    .with_ghost_pairs(vec![(1_000_001, 13), (1_000_002, 17)]),
            )
            .run()
            .unwrap();
        assert_eq!(report.adversary, "ghost-pair-injector");
        let section = report.parallel.expect("parallel section");
        assert!(section.agreement);
        for decision in &section.decisions {
            assert!(
                decision.pairs.iter().all(|&(id, _)| id < 1_000_000),
                "ghost pair output"
            );
            for pair in &pairs {
                assert!(
                    decision.pairs.contains(pair),
                    "a unanimous real pair was dropped"
                );
            }
        }
    }

    #[test]
    fn total_order_factory_runs_events_under_churn() {
        use uba_simnet::{ChurnEvent, ChurnSchedule};
        let joiner = NodeId::new(999_999);
        let mut plan = TotalOrderPlan::rounds(60);
        for round in 1..=50u64 {
            plan = plan.event(round, (round % 3) as usize, round);
        }
        let plan = plan.leave(40, 3);
        let churn = ChurnSchedule::empty().with(13, ChurnEvent::JoinCorrect(joiner));
        let report = Simulation::scenario()
            .correct(4)
            .byzantine(0)
            .seed(13)
            .churn(churn)
            .total_order(plan)
            .run()
            .unwrap();
        let section = report.chain.expect("chain section");
        assert!(section.prefix_ok, "chain-prefix violated");
        assert!(
            section.lengths.iter().any(|&(id, _)| id == joiner),
            "joiner still present"
        );
        assert!(
            section.lengths.iter().any(|&(_, len)| len > 0),
            "events were finalised"
        );
        assert_eq!(section.lengths.len(), 5, "4 founders + 1 joiner");
    }

    #[test]
    fn run_report_round_trips_through_serde_json_shapes() {
        let inputs = [0u64, 1, 0, 1, 0];
        let report = Simulation::scenario()
            .correct(5)
            .byzantine(1)
            .seed(21)
            .adversary(AdversaryKind::SplitVote)
            .consensus(&inputs)
            .run()
            .unwrap();
        let value = serde::Serialize::to_value(&report);
        let back: RunReport = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn cap_exhaustion_is_a_status_not_an_error() {
        // n = 3f with a split-vote adversary may never decide; the report must say
        // so instead of erroring.
        let inputs = [0u64, 1, 0, 1];
        let report = Simulation::scenario()
            .correct(4)
            .byzantine(2)
            .seed(23)
            .max_rounds(60)
            .adversary(AdversaryKind::SplitVote)
            .consensus(&inputs)
            .run()
            .unwrap();
        match report.status {
            RunStatus::Completed { .. } => {
                assert!(report.consensus.unwrap().undecided.is_empty());
            }
            RunStatus::MaxRoundsExceeded { limit } => {
                assert_eq!(limit, 60);
                assert_eq!(report.rounds, 60);
            }
        }
    }
}
