//! [`ProtocolFactory`] implementations for the known-`(n, f)` baselines.
//!
//! These factories let the same [`ScenarioBuilder`](uba_simnet::sim::ScenarioBuilder)
//! that drives the id-only algorithms drive the classic baselines head-to-head: the
//! factory reads `n` and `f` off the [`BuildContext`] (the knowledge the classic
//! model grants every node) and fills the same [`RunReport`] sections as the
//! corresponding id-only factory, so E5/E10-style comparisons are a matter of
//! building the same scenario twice.
//!
//! The baselines assume consecutive identifiers; pair these factories with
//! `IdSpace::Consecutive` (they assert it where the protocol depends on it).
//!
//! Scripted [`AdversaryKind`]s beyond [`AdversaryKind::Silent`] craft id-only
//! protocol payloads that do not exist for the baseline wire formats, so every
//! preset maps to silent faults here — the comparison experiments have always
//! measured the baselines under fail-silent behaviour. The other plan behaviours
//! follow [`scripted_attack_behavior`]: replay runs as is, the payload-vocabulary
//! behaviours speak each baseline's own wire format, and the value-shaped ones
//! substitute the silent preset.

use uba_simnet::adversary::SilentAdversary;
use uba_simnet::sim::{
    approx_section_from_values, broadcast_section, consensus_section, scripted_attack_behavior,
    AdversaryKind, BuildContext, ConsensusDecision, NamedAdversary, ProtocolFactory, RotorSection,
    RunReport, StopCondition,
};
use uba_simnet::vocab::{PayloadVocab, VocabScene};
use uba_simnet::{AttackBehavior, IdSpace, Protocol};

use crate::dolev_approx::{DolevApprox, Micro};
use crate::phase_king::{PhaseKing, PhaseKingMessage};
use crate::rotor_known::{KnownRotor, KnownRotorMessage};
use crate::srikanth_toueg::{StBroadcast, StMessage};

/// The baselines' one attack mapping: every preset fails silent, and every other
/// behaviour follows [`scripted_attack_behavior`].
fn silent<F: ProtocolFactory>(
    factory: &F,
    behavior: &AttackBehavior,
    ctx: &BuildContext,
) -> NamedAdversary<<F::Node as Protocol>::Payload> {
    let name = match behavior {
        AttackBehavior::Preset(AdversaryKind::Silent) => "silent",
        // The scripted strategies speak id-only wire formats; for the baselines the
        // Byzantine nodes simply fail silent (see module docs).
        AttackBehavior::Preset(_) => "silent (baseline substitution)",
        other => return scripted_attack_behavior(factory, other, ctx),
    };
    NamedAdversary::new(name, SilentAdversary)
}

/// Factory for Berman–Garay–Perry phase-king consensus (knows `n`, `f` and the full
/// participant list).
#[derive(Clone, Debug)]
pub struct PhaseKingFactory {
    inputs: Vec<u64>,
}

impl PhaseKingFactory {
    /// One input per correct node, in construction order.
    pub fn new(inputs: impl Into<Vec<u64>>) -> Self {
        PhaseKingFactory {
            inputs: inputs.into(),
        }
    }
}

impl ProtocolFactory for PhaseKingFactory {
    type Node = PhaseKing<u64>;

    fn protocol_name(&self) -> String {
        "phase-king".into()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<PhaseKing<u64>> {
        assert_eq!(
            self.inputs.len(),
            ctx.correct_ids.len(),
            "one input per correct node"
        );
        assert_eq!(
            ctx.spec.id_space,
            IdSpace::Consecutive,
            "phase-king's rotating king needs consecutive identifiers"
        );
        let participants = ctx.all_ids();
        ctx.correct_ids
            .iter()
            .zip(&self.inputs)
            .map(|(&id, &input)| PhaseKing::new(id, participants.clone(), ctx.known_f(), input))
            .collect()
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<crate::phase_king::PhaseKingMessage<u64>> {
        silent(self, behavior, ctx)
    }

    fn payload_vocab(
        &self,
        _ctx: &BuildContext,
    ) -> Option<Box<dyn PayloadVocab<PhaseKingMessage<u64>>>> {
        Some(Box::new(self.clone()))
    }

    fn record(&self, ctx: &BuildContext, nodes: &[PhaseKing<u64>], report: &mut RunReport) {
        let decisions = nodes.iter().map(|node| {
            let decision = node.output().map(|value| ConsensusDecision {
                node: node.id(),
                value,
                phase: 0,
                round: node.decided_round(),
            });
            (node.id(), decision)
        });
        report.consensus = Some(consensus_section(ctx, &self.inputs, decisions));
    }
}

/// The phase-king wire vocabulary, following the three-round phase schedule
/// (value, proposal, king). The boundary class is the classic split: the two
/// binary values at the phase-appropriate message shape, partitioned across the
/// correct nodes — the attack Berman–Garay–Perry's `n > 3f` requirement guards
/// against, which the silent baseline substitution never exercised.
impl PayloadVocab<PhaseKingMessage<u64>> for PhaseKingFactory {
    fn valid(&self, scene: &VocabScene<'_>) -> Vec<PhaseKingMessage<u64>> {
        let value = self.inputs.first().copied().unwrap_or(0);
        vec![phase_king_message(scene.round, value)]
    }

    fn boundary(&self, scene: &VocabScene<'_>) -> Vec<PhaseKingMessage<u64>> {
        vec![
            phase_king_message(scene.round, 0),
            phase_king_message(scene.round, 1),
        ]
    }

    fn garbage(&self, scene: &VocabScene<'_>) -> Vec<PhaseKingMessage<u64>> {
        vec![phase_king_message(scene.round, scene.derived_value(0))]
    }
}

/// The message shape phase-king counts in `round` (three rounds per phase:
/// value, proposal, king).
fn phase_king_message(round: u64, value: u64) -> PhaseKingMessage<u64> {
    match (round.max(1) - 1) % 3 {
        0 => PhaseKingMessage::Value(value),
        1 => PhaseKingMessage::Proposal(value),
        _ => PhaseKingMessage::King(value),
    }
}

/// Factory for Srikanth–Toueg authenticated broadcast (knows `f`); the designated
/// sender is the first correct node.
#[derive(Clone, Debug)]
pub struct StBroadcastFactory {
    value: u64,
}

impl StBroadcastFactory {
    /// The value the (correct) designated sender broadcasts.
    pub fn new(value: u64) -> Self {
        StBroadcastFactory { value }
    }
}

impl ProtocolFactory for StBroadcastFactory {
    type Node = StBroadcast<u64>;

    fn protocol_name(&self) -> String {
        "srikanth-toueg".into()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<StBroadcast<u64>> {
        let source = *ctx
            .correct_ids
            .first()
            .expect("a correct designated sender");
        ctx.correct_ids
            .iter()
            .map(|&id| {
                if id == source {
                    StBroadcast::sender(id, ctx.known_f(), self.value)
                } else {
                    StBroadcast::receiver(id, source, ctx.known_f())
                }
            })
            .collect()
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<crate::srikanth_toueg::StMessage<u64>> {
        silent(self, behavior, ctx)
    }

    fn payload_vocab(&self, _ctx: &BuildContext) -> Option<Box<dyn PayloadVocab<StMessage<u64>>>> {
        Some(Box::new(self.clone()))
    }

    fn stop_condition(&self) -> StopCondition {
        StopCondition::FixedRounds(8)
    }

    fn record(&self, ctx: &BuildContext, nodes: &[StBroadcast<u64>], report: &mut RunReport) {
        let source = *ctx
            .correct_ids
            .first()
            .expect("a correct designated sender");
        let accepted = nodes
            .iter()
            .map(|node| (node.id(), node.accepted().to_vec()));
        report.broadcast = Some(broadcast_section(source, true, Some(self.value), accepted));
    }
}

/// The Srikanth–Toueg wire vocabulary. Unlike the id-only broadcast, the
/// thresholds here are the *absolute* `f + 1` and `2f + 1`, which `f` Byzantine
/// echoes can never reach — the vocabulary exists to demonstrate exactly that:
/// forged echoes stay inert at every `n`, while at `n = 3f` the protocol loses
/// *correctness* instead (the `2f` correct echoers cannot reach `2f + 1`).
impl PayloadVocab<StMessage<u64>> for StBroadcastFactory {
    fn valid(&self, _scene: &VocabScene<'_>) -> Vec<StMessage<u64>> {
        vec![StMessage::Echo(self.value)]
    }

    fn boundary(&self, _scene: &VocabScene<'_>) -> Vec<StMessage<u64>> {
        vec![StMessage::Echo(self.value ^ 0x5A5A)]
    }

    fn garbage(&self, scene: &VocabScene<'_>) -> Vec<StMessage<u64>> {
        vec![
            StMessage::Init(scene.derived_value(0)),
            StMessage::Echo(scene.derived_value(1)),
        ]
    }
}

/// Factory for Dolev et al. approximate agreement with exact-`f` trimming; inputs
/// are `f64`s scaled to micro units on the wire, like the id-only comparison feeds.
#[derive(Clone, Debug)]
pub struct DolevApproxFactory {
    inputs: Vec<f64>,
}

impl DolevApproxFactory {
    /// One input per correct node, in construction order.
    pub fn new(inputs: impl Into<Vec<f64>>) -> Self {
        DolevApproxFactory {
            inputs: inputs.into(),
        }
    }

    /// The correct input range in wire (micro) units, `[min, max]`.
    fn input_extremes(&self) -> [Micro; 2] {
        let (lo, hi) = uba_simnet::vocab::input_extremes(&self.inputs);
        [(lo * 1e6) as Micro, (hi * 1e6) as Micro]
    }
}

impl ProtocolFactory for DolevApproxFactory {
    type Node = DolevApprox;

    fn protocol_name(&self) -> String {
        "dolev-approx".into()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<DolevApprox> {
        assert_eq!(
            self.inputs.len(),
            ctx.correct_ids.len(),
            "one input per correct node"
        );
        ctx.correct_ids
            .iter()
            .zip(&self.inputs)
            .map(|(&id, &input)| DolevApprox::new(id, ctx.known_f(), (input * 1e6) as i64))
            .collect()
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<crate::dolev_approx::Micro> {
        silent(self, behavior, ctx)
    }

    fn payload_vocab(&self, _ctx: &BuildContext) -> Option<Box<dyn PayloadVocab<Micro>>> {
        Some(Box::new(self.clone()))
    }

    fn stop_condition(&self) -> StopCondition {
        StopCondition::AllOutput
    }

    fn record(&self, _ctx: &BuildContext, nodes: &[DolevApprox], report: &mut RunReport) {
        let outputs: Vec<f64> = nodes
            .iter()
            .filter_map(|n| n.output())
            .map(|micro| micro as f64 / 1e6)
            .collect();
        report.approx = Some(approx_section_from_values(self.inputs.clone(), outputs));
    }
}

/// The Dolev et al. wire vocabulary (bare micro-unit integers). The boundary
/// class is the *valid-range* extremes, partitioned per recipient: at `n = 3f`
/// each node's exact-`f` trim then anchors its kept window at a different end of
/// the correct range, and with `f = 1` the outputs equal the input extremes —
/// the contraction guarantee fails without a single out-of-range value on the
/// wire.
impl PayloadVocab<Micro> for DolevApproxFactory {
    fn valid(&self, _scene: &VocabScene<'_>) -> Vec<Micro> {
        self.input_extremes().to_vec()
    }

    fn boundary(&self, _scene: &VocabScene<'_>) -> Vec<Micro> {
        self.input_extremes().to_vec()
    }

    fn garbage(&self, scene: &VocabScene<'_>) -> Vec<Micro> {
        let wobble = (scene.round % 5) as Micro;
        vec![
            1_000_000_000_000_000 + wobble,
            -1_000_000_000_000_000 - wobble,
        ]
    }
}

/// Factory for the trivial known-`f` rotating coordinator over consecutive
/// identifiers.
#[derive(Clone, Copy, Debug, Default)]
pub struct KnownRotorFactory;

impl ProtocolFactory for KnownRotorFactory {
    type Node = KnownRotor;

    fn protocol_name(&self) -> String {
        "known-rotor".into()
    }

    fn build_nodes(&mut self, ctx: &BuildContext) -> Vec<KnownRotor> {
        assert_eq!(
            ctx.spec.id_space,
            IdSpace::Consecutive,
            "the known-f rotor schedule needs consecutive identifiers"
        );
        ctx.correct_ids
            .iter()
            .map(|&id| KnownRotor::new(id, ctx.known_f(), id.raw()))
            .collect()
    }

    fn attack_behavior(
        &self,
        behavior: &AttackBehavior,
        ctx: &BuildContext,
    ) -> NamedAdversary<crate::rotor_known::KnownRotorMessage> {
        silent(self, behavior, ctx)
    }

    fn payload_vocab(
        &self,
        _ctx: &BuildContext,
    ) -> Option<Box<dyn PayloadVocab<KnownRotorMessage>>> {
        Some(Box::new(*self))
    }

    fn record(&self, _ctx: &BuildContext, nodes: &[KnownRotor], report: &mut RunReport) {
        // A good round: some schedule slot in which every correct node accepted the
        // same (necessarily correct) coordinator's opinion.
        let slots = nodes.iter().map(|n| n.accepted().len()).min().unwrap_or(0);
        let good_round = (0..slots).any(|slot| {
            let mut opinions = nodes.iter().map(|n| &n.accepted()[slot]);
            match opinions.next() {
                Some((coordinator, Some(opinion))) => {
                    let (c, o) = (*coordinator, *opinion);
                    nodes.iter().all(|n| n.accepted()[slot] == (c, Some(o)))
                }
                _ => false,
            }
        });
        report.rotor = Some(RotorSection {
            selected: nodes.first().map(|n| n.accepted().len()).unwrap_or(0),
            good_round,
        });
    }
}

/// The known-rotor wire vocabulary (bare `u64` opinions). Provided for
/// completeness and as a *negative control*: the known-`f` schedule only ever
/// consults the coordinators with identifiers `0 … f`, which under the required
/// consecutive layout are all correct, and the network's sender authentication
/// stops a Byzantine identity from speaking as one of them — so no vocabulary
/// payload can move this baseline's oracle, at the boundary or anywhere else.
impl PayloadVocab<KnownRotorMessage> for KnownRotorFactory {
    fn valid(&self, _scene: &VocabScene<'_>) -> Vec<KnownRotorMessage> {
        vec![0]
    }

    fn boundary(&self, _scene: &VocabScene<'_>) -> Vec<KnownRotorMessage> {
        vec![0, u64::MAX]
    }

    fn garbage(&self, scene: &VocabScene<'_>) -> Vec<KnownRotorMessage> {
        vec![scene.derived_value(0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::sim::Simulation;

    fn consecutive(correct: usize, byzantine: usize) -> uba_simnet::sim::ScenarioBuilder {
        Simulation::scenario()
            .correct(correct)
            .byzantine(byzantine)
            .ids(IdSpace::Consecutive)
            .seed(0)
    }

    #[test]
    fn phase_king_factory_reaches_agreement() {
        let inputs = [0u64, 1, 0, 1, 0];
        let report = consecutive(5, 2)
            .max_rounds(300)
            .build(PhaseKingFactory::new(inputs.to_vec()))
            .run()
            .unwrap();
        assert!(report.completed());
        let section = report.consensus.expect("consensus section");
        assert!(section.agreement && section.validity);
        assert!(section.undecided.is_empty());
    }

    #[test]
    fn srikanth_toueg_factory_reports_consistent_acceptance() {
        let report = consecutive(5, 2)
            .build(StBroadcastFactory::new(7))
            .run()
            .unwrap();
        let section = report.broadcast.expect("broadcast section");
        assert!(section.consistent);
        assert!(section
            .accepted
            .iter()
            .all(|set| set.values.iter().map(|&(m, _)| m).eq([7u64])));
    }

    #[test]
    fn dolev_factory_contracts_within_range() {
        let inputs: Vec<f64> = (0..11).map(|i| i as f64 * 9.0).collect();
        let report = consecutive(11, 4)
            .max_rounds(6)
            .build(DolevApproxFactory::new(inputs))
            .run()
            .unwrap();
        let section = report.approx.expect("approx section");
        assert!(section.outputs_in_range);
        assert!(section.contraction <= 0.5 + 1e-9);
    }

    #[test]
    fn known_rotor_factory_terminates_fast_with_a_good_round() {
        let report = consecutive(5, 2)
            .max_rounds(50)
            .build(KnownRotorFactory)
            .run()
            .unwrap();
        assert!(report.completed());
        assert!(report.rounds <= 2 + 2 + 2, "f + 2 rounds for f = 2");
        let section = report.rotor.expect("rotor section");
        assert_eq!(section.selected, 3, "f + 1 coordinators");
        assert!(section.good_round);
    }
}
