//! Composable, serialisable attack plans.
//!
//! The scripted [`AdversaryKind`] strategies are single, whole-run behaviours; the
//! paper's adversary is quantified over *arbitrary* behaviour, which includes
//! switching strategies mid-run, splitting the Byzantine identities between
//! different attacks and crashing at inconvenient moments. An [`AttackPlan`] captures
//! that richer space as plain data:
//!
//! * an [`AttackStep`] is one behaviour ([`AttackBehavior`]) restricted to a round
//!   window (`from_round..=to_round`) and to a slice of the Byzantine identities
//!   (an [`ActorRange`]);
//! * an [`AttackPlan`] is a list of steps whose injected traffic is concatenated
//!   every round — two steps with disjoint actor ranges are a *collusion split*,
//!   a step whose window ends early is a *crash*, one step per identity with its
//!   own end is a *staggered crash*, and [`AttackPlan::preset`] embeds every
//!   legacy [`AdversaryKind`] unchanged. Nothing else in the workspace windows,
//!   splits or crashes an adversary.
//!
//! Plans are interpreted against a concrete protocol by the
//! [`ProtocolFactory`](crate::sim::ProtocolFactory): each behaviour is mapped onto a
//! payload-typed strategy (`ProtocolFactory::attack_behavior`), and the compiled
//! steps run inside a [`PlanAdversary`]. Because a plan is serde-serialisable it can
//! ride inside a [`ScenarioSpec`](crate::sim::ScenarioSpec), which is what makes
//! fuzzed counterexamples replayable from JSON (see `uba-bench::fuzz`).

use serde::{Deserialize, Serialize};

use crate::adversary::{Adversary, AdversaryView};
use crate::id::NodeId;
use crate::message::Directed;
use crate::sim::{AdversaryKind, BoxedAdversary};

/// A contiguous slice of the Byzantine identity list (by position, not by id, so a
/// range stays meaningful when the identifier layout changes with the seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActorRange {
    /// First Byzantine index (0-based) driven by the step.
    pub start: usize,
    /// Number of identities driven; `None` means "through the end of the list".
    pub len: Option<usize>,
}

impl Default for ActorRange {
    fn default() -> Self {
        ActorRange::all()
    }
}

impl ActorRange {
    /// Every Byzantine identity.
    pub fn all() -> Self {
        ActorRange {
            start: 0,
            len: None,
        }
    }

    /// The first `len` Byzantine identities.
    pub fn first(len: usize) -> Self {
        ActorRange {
            start: 0,
            len: Some(len),
        }
    }

    /// Every Byzantine identity from index `start` onwards.
    pub fn from(start: usize) -> Self {
        ActorRange { start, len: None }
    }

    /// `len` Byzantine identities starting at index `start`.
    pub fn slice(start: usize, len: usize) -> Self {
        ActorRange {
            start,
            len: Some(len),
        }
    }

    /// Whether the range covers the whole identity list regardless of its length.
    pub fn is_all(&self) -> bool {
        self.start == 0 && self.len.is_none()
    }

    /// The sub-slice of `ids` this range selects (clamped to the list).
    pub fn select<'a>(&self, ids: &'a [NodeId]) -> &'a [NodeId] {
        let start = self.start.min(ids.len());
        let end = match self.len {
            None => ids.len(),
            Some(len) => start.saturating_add(len).min(ids.len()),
        };
        &ids[start..end]
    }
}

/// One abstract Byzantine behaviour, interpreted per protocol by the factory.
///
/// Every factory maps each [`AttackBehavior::Preset`], so the legacy scripted
/// strategies are a strict subset of what plans can express. The remaining
/// variants are the behaviours the scripted enum could not parameterise; factories
/// whose payloads support them map them exactly and everything else substitutes the
/// factory's mapping of the closest applicable kind (see
/// [`scripted_attack_behavior`](crate::sim::scripted_attack_behavior)).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AttackBehavior {
    /// Exactly the named legacy strategy.
    Preset(AdversaryKind),
    /// Replay a correct node's traffic under the Byzantine identities towards a
    /// raw-id-parity subset of the correct nodes (protocol-agnostic).
    Replay {
        /// Replay towards even raw identifiers if true, odd otherwise.
        visible_to_even_raw_ids: bool,
    },
    /// Announce in round 1 to only the correct nodes whose construction index `i`
    /// satisfies `i % modulus == remainder` — the generalised "known to only a
    /// subset" behaviour (the `PartialAnnounce` preset is `modulus = 2`,
    /// `remainder = 0`).
    AnnounceToSubset {
        /// Index modulus (values below 2 degrade to announcing to everyone).
        modulus: u64,
        /// Selected remainder class.
        remainder: u64,
    },
    /// Push two conflicting values to alternating halves of the correct nodes —
    /// vote equivocation for consensus-shaped protocols, sender equivocation where
    /// a Byzantine designated sender exists.
    Equivocate {
        /// Value pushed to one half.
        low: u64,
        /// Value pushed to the other half.
        high: u64,
    },
    /// Inject extreme values `±magnitude` (value-carrying protocols only; others
    /// substitute their worst scripted attack).
    Outliers {
        /// Absolute magnitude of the injected outliers.
        magnitude: f64,
    },
    /// Flood the protocol with everything its payload vocabulary can express —
    /// valid traffic, threshold-probing payloads and fresh per-round garbage,
    /// scattered across recipients (see
    /// [`VocabAdversary`](crate::vocab::VocabAdversary)). Factories without a
    /// vocabulary substitute their worst scripted attack.
    Noise,
    /// Fabricate exactly one vocabulary class, with its class-specific dispatch
    /// (valid → full flood, boundary → equivocation partition, garbage →
    /// sustained nonsense flood).
    Semantic {
        /// The vocabulary class to draw from.
        strategy: SemanticStrategy,
    },
    /// A stateful adversary that *reacts to the observed traffic*: it tracks how
    /// many messages every correct node has received so far and re-targets its
    /// vocabulary payloads each round according to the chosen
    /// [`AdaptiveStrategy`]. Deterministic under the run seed (ties break on the
    /// smallest identifier), so plans containing adaptive steps replay and
    /// shrink exactly like scripted ones. Factories without a payload vocabulary
    /// substitute their worst scripted attack (same rule as [`Noise`]).
    ///
    /// [`Noise`]: AttackBehavior::Noise
    Adaptive {
        /// The traffic-reactive targeting rule.
        strategy: AdaptiveStrategy,
    },
}

/// Which class of a [`PayloadVocab`](crate::vocab::PayloadVocab) the
/// [`AttackBehavior::Semantic`] behaviour fabricates from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SemanticStrategy {
    /// Semantically valid payloads, sent to every correct node — the Byzantine
    /// identities imitate correct participants at full volume.
    Valid,
    /// Threshold-probing payloads, partitioned across the correct nodes
    /// (equivocation-shaped: payload `j` to recipients with `i % len == j`).
    Boundary,
    /// Fresh per-round garbage, sent to every correct node.
    Garbage,
}

impl SemanticStrategy {
    /// A stable lowercase label used in plan and adversary names.
    pub fn name(&self) -> &'static str {
        match self {
            SemanticStrategy::Valid => "valid",
            SemanticStrategy::Boundary => "boundary",
            SemanticStrategy::Garbage => "garbage",
        }
    }
}

impl AttackBehavior {
    /// A stable lowercase label used when naming composed plans.
    pub fn label(&self) -> String {
        match self {
            AttackBehavior::Preset(kind) => kind.name().to_string(),
            AttackBehavior::Replay { .. } => "replay".to_string(),
            AttackBehavior::AnnounceToSubset { .. } => "announce-to-subset".to_string(),
            AttackBehavior::Equivocate { .. } => "equivocate".to_string(),
            AttackBehavior::Outliers { .. } => "outliers".to_string(),
            AttackBehavior::Noise => "noise".to_string(),
            AttackBehavior::Semantic { strategy } => format!("semantic-{}", strategy.name()),
            AttackBehavior::Adaptive { strategy } => format!("adaptive-{}", strategy.name()),
        }
    }
}

/// Traffic-reactive targeting rules for [`AttackBehavior::Adaptive`]. All three
/// read the same signal — the cumulative number of messages each correct node
/// has received from correct nodes since the step began — and differ only in
/// where they aim the payload vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdaptiveStrategy {
    /// Flood the correct node that has received the *fewest* messages so far
    /// with the full plausible vocabulary (valid + boundary payloads, no
    /// garbage): the node with the least information gets force-fed every
    /// conflicting story at once, while everyone else hears nothing.
    StarveWeakest,
    /// Equivocate only toward the minority partition: nodes below the median
    /// received-message count get the high boundary payload, the rest get the
    /// low one — concentrated equivocation aimed where it is least likely to be
    /// outvoted.
    EquivocateMinority,
    /// Imitate correct participants (valid payloads) toward everyone *except*
    /// the node that has received the most traffic — starving whichever node is
    /// closest to assembling a quorum.
    WithholdNearQuorum,
}

impl AdaptiveStrategy {
    /// Every adaptive strategy, for grids and mutation moves.
    pub const ALL: [AdaptiveStrategy; 3] = [
        AdaptiveStrategy::StarveWeakest,
        AdaptiveStrategy::EquivocateMinority,
        AdaptiveStrategy::WithholdNearQuorum,
    ];

    /// Stable lowercase name used in plan labels.
    pub fn name(&self) -> &'static str {
        match self {
            AdaptiveStrategy::StarveWeakest => "starve-weakest",
            AdaptiveStrategy::EquivocateMinority => "equivocate-minority",
            AdaptiveStrategy::WithholdNearQuorum => "withhold-near-quorum",
        }
    }
}

/// The one round-window test: `from..=to`, or `from..` when `to` is `None`.
fn in_window(round: u64, from: u64, to: Option<u64>) -> bool {
    round >= from && to.is_none_or(|to| round <= to)
}

/// One behaviour bound to a round window and an actor range.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttackStep {
    /// The behaviour to run.
    pub behavior: AttackBehavior,
    /// First round (1-based, inclusive) in which the step is active.
    pub from_round: u64,
    /// Last active round (inclusive); `None` means "until the run ends".
    pub to_round: Option<u64>,
    /// The Byzantine identities the step drives.
    pub actors: ActorRange,
}

impl AttackStep {
    /// A step running `behavior` for the whole run with every Byzantine identity.
    pub fn new(behavior: AttackBehavior) -> Self {
        AttackStep {
            behavior,
            from_round: 1,
            to_round: None,
            actors: ActorRange::all(),
        }
    }

    /// Restricts the step to rounds `from..=to`.
    pub fn window(mut self, from: u64, to: u64) -> Self {
        assert!(from <= to, "attack window must be non-empty");
        self.from_round = from;
        self.to_round = Some(to);
        self
    }

    /// Restricts the step to rounds `..=to` — the behaviour then crashes.
    pub fn until(mut self, to: u64) -> Self {
        self.to_round = Some(to);
        self
    }

    /// Restricts the step to rounds `from..`.
    pub fn starting(mut self, from: u64) -> Self {
        self.from_round = from;
        self
    }

    /// Restricts the step to a slice of the Byzantine identities.
    pub fn actors(mut self, actors: ActorRange) -> Self {
        self.actors = actors;
        self
    }

    /// Whether the step is active in `round`.
    pub fn active_in(&self, round: u64) -> bool {
        in_window(round, self.from_round, self.to_round)
    }

    /// Whether the step covers every round and every Byzantine identity — i.e. it
    /// behaves exactly like its bare behaviour.
    pub fn covers_everything(&self) -> bool {
        self.from_round <= 1 && self.to_round.is_none() && self.actors.is_all()
    }

    /// Label used when naming composed plans, e.g. `split-vote@2..5[0..2]`.
    pub fn describe(&self) -> String {
        self.describe_as(&self.behavior.label())
    }

    /// Like [`AttackStep::describe`] but around an externally resolved strategy
    /// name (what the factory actually instantiated for the behaviour).
    pub fn describe_as(&self, resolved: &str) -> String {
        let mut label = resolved.to_string();
        match (self.from_round, self.to_round) {
            (from, Some(to)) => label.push_str(&format!("@{from}..{to}")),
            (from, None) if from > 1 => label.push_str(&format!("@{from}..")),
            _ => {}
        }
        if !self.actors.is_all() {
            match self.actors.len {
                Some(len) => label.push_str(&format!(
                    "[{}..{}]",
                    self.actors.start,
                    self.actors.start + len
                )),
                None => label.push_str(&format!("[{}..]", self.actors.start)),
            }
        }
        label
    }
}

/// A composable, serialisable attack: the union of its steps' traffic each round.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AttackPlan {
    /// The steps, evaluated in order every round.
    pub steps: Vec<AttackStep>,
}

impl AttackPlan {
    /// An empty plan: the Byzantine identities never speak (equivalent to, but
    /// distinguishable in reports from, the `silent` preset).
    pub fn new() -> Self {
        AttackPlan::default()
    }

    /// The exact plan encoding of a legacy [`AdversaryKind`]: one step, every
    /// round, every Byzantine identity. Running this plan is byte-for-byte
    /// equivalent to selecting the kind through
    /// [`ScenarioBuilder::adversary`](crate::sim::ScenarioBuilder::adversary).
    pub fn preset(kind: AdversaryKind) -> Self {
        AttackPlan::new().step(AttackStep::new(AttackBehavior::Preset(kind)))
    }

    /// Appends a step.
    pub fn step(mut self, step: AttackStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Appends a whole-run step running `behavior`.
    pub fn behavior(self, behavior: AttackBehavior) -> Self {
        self.step(AttackStep::new(behavior))
    }

    /// A crash window: the kind's strategy runs for rounds `from..=to` and is
    /// silent afterwards (and before).
    pub fn crash_window(kind: AdversaryKind, from: u64, to: u64) -> Self {
        AttackPlan::new().step(AttackStep::new(AttackBehavior::Preset(kind)).window(from, to))
    }

    /// A collusion split: the first `first_count` Byzantine identities run
    /// `first`, the rest run `second`, simultaneously.
    pub fn collusion(first: AttackBehavior, first_count: usize, second: AttackBehavior) -> Self {
        AttackPlan::new()
            .step(AttackStep::new(first).actors(ActorRange::first(first_count)))
            .step(AttackStep::new(second).actors(ActorRange::from(first_count)))
    }

    /// If the plan is exactly the encoding of one legacy kind, that kind.
    pub fn as_preset(&self) -> Option<AdversaryKind> {
        match self.steps.as_slice() {
            [step] if step.covers_everything() => match step.behavior {
                AttackBehavior::Preset(kind) => Some(kind),
                _ => None,
            },
            _ => None,
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The plan with step `index` removed — the shrinking move of the fuzz
    /// harness. Indices out of range return the plan unchanged.
    pub fn without_step(&self, index: usize) -> AttackPlan {
        let mut shrunk = self.clone();
        if index < shrunk.steps.len() {
            shrunk.steps.remove(index);
        }
        shrunk
    }

    /// A human-readable label, e.g. `plan(split-vote@1..4 + replay)`.
    pub fn label(&self) -> String {
        if self.steps.is_empty() {
            return "plan(empty)".to_string();
        }
        let parts: Vec<String> = self.steps.iter().map(AttackStep::describe).collect();
        format!("plan({})", parts.join(" + "))
    }
}

/// One compiled plan step: the window and actor range from the [`AttackStep`] plus
/// the payload-typed strategy the factory produced for its behaviour.
pub struct CompiledStep<P> {
    /// First active round (inclusive).
    pub from_round: u64,
    /// Last active round (inclusive); `None` = forever.
    pub to_round: Option<u64>,
    /// Byzantine identities visible to the strategy.
    pub actors: ActorRange,
    /// The strategy driving the step.
    pub strategy: BoxedAdversary<P>,
}

/// The adversary a compiled [`AttackPlan`] runs as: every round, each active step
/// sees a view restricted to its actor range and its injected traffic is
/// concatenated in step order. A step outside its window is not called at all,
/// so a stateful strategy first observes the round its window opens.
///
/// This is the only combinator over adversaries. Tests that drive a
/// payload-typed strategy no [`AttackBehavior`] names build it directly from
/// [`CompiledStep`]s.
///
/// A plan with a single whole-run, all-actors step forwards the exact view it
/// received, so preset plans reproduce their legacy kind's executions bit for bit.
pub struct PlanAdversary<P> {
    steps: Vec<CompiledStep<P>>,
}

impl<P> PlanAdversary<P> {
    /// Assembles the adversary from compiled steps.
    pub fn new(steps: Vec<CompiledStep<P>>) -> Self {
        PlanAdversary { steps }
    }
}

impl<P> Adversary<P> for PlanAdversary<P> {
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        let mut out = Vec::new();
        for step in &mut self.steps {
            if !in_window(view.round, step.from_round, step.to_round) {
                continue;
            }
            let restricted = AdversaryView {
                round: view.round,
                correct_ids: view.correct_ids,
                byzantine_ids: step.actors.select(view.byzantine_ids),
                correct_traffic: view.correct_traffic,
            };
            out.extend(step.strategy.step(&restricted));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::FnAdversary;
    use crate::traffic::RoundTraffic;

    static CORRECT: [NodeId; 3] = [NodeId::new(2), NodeId::new(4), NodeId::new(5)];
    static BYZ: [NodeId; 3] = [NodeId::new(90), NodeId::new(91), NodeId::new(92)];

    fn view(round: u64, traffic: &RoundTraffic<u32>) -> AdversaryView<'_, u32> {
        AdversaryView {
            round,
            correct_ids: &CORRECT,
            byzantine_ids: &BYZ,
            correct_traffic: traffic,
        }
    }

    fn flooder() -> BoxedAdversary<u32> {
        Box::new(FnAdversary::new(|v: &AdversaryView<'_, u32>| {
            let mut out = Vec::new();
            for &from in v.byzantine_ids {
                for &to in v.correct_ids {
                    out.push(Directed::new(from, to, 7u32));
                }
            }
            out
        }))
    }

    #[test]
    fn actor_ranges_select_and_clamp() {
        let ids = &BYZ;
        assert_eq!(ActorRange::all().select(ids), ids);
        assert_eq!(ActorRange::first(2).select(ids), &ids[..2]);
        assert_eq!(ActorRange::from(1).select(ids), &ids[1..]);
        assert_eq!(ActorRange::slice(1, 1).select(ids), &ids[1..2]);
        assert_eq!(ActorRange::first(99).select(ids), ids, "len clamps");
        assert!(ActorRange::from(99).select(ids).is_empty(), "start clamps");
        assert!(ActorRange::all().is_all());
        assert!(!ActorRange::first(2).is_all());
    }

    #[test]
    fn preset_plans_round_trip_and_normalise() {
        let plan = AttackPlan::preset(AdversaryKind::SplitVote);
        assert_eq!(plan.as_preset(), Some(AdversaryKind::SplitVote));
        let windowed = AttackPlan::crash_window(AdversaryKind::SplitVote, 1, 4);
        assert_eq!(windowed.as_preset(), None, "a window is not a pure preset");
        let value = serde::Serialize::to_value(&windowed);
        let back: AttackPlan = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, windowed);
    }

    #[test]
    fn step_windows_and_activity() {
        let step = AttackStep::new(AttackBehavior::Preset(AdversaryKind::Silent)).window(2, 4);
        assert!(!step.active_in(1));
        assert!(step.active_in(2) && step.active_in(4));
        assert!(!step.active_in(5));
        assert!(!step.covers_everything());
        assert!(AttackStep::new(AttackBehavior::Replay {
            visible_to_even_raw_ids: true
        })
        .covers_everything());
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn inverted_windows_are_rejected() {
        let _ = AttackStep::new(AttackBehavior::Preset(AdversaryKind::Silent)).window(5, 4);
    }

    #[test]
    fn plan_adversary_respects_windows_and_actors() {
        let mut adv = PlanAdversary::new(vec![
            CompiledStep {
                from_round: 1,
                to_round: Some(2),
                actors: ActorRange::first(1),
                strategy: flooder(),
            },
            CompiledStep {
                from_round: 3,
                to_round: None,
                actors: ActorRange::from(1),
                strategy: flooder(),
            },
        ]);
        let t = RoundTraffic::from_directed(vec![]);
        let round1 = adv.step(&view(1, &t));
        assert_eq!(round1.len(), 3, "one actor × three recipients");
        assert!(round1.iter().all(|m| m.from == BYZ[0]));
        let round3 = adv.step(&view(3, &t));
        assert_eq!(round3.len(), 6, "two actors × three recipients");
        assert!(round3.iter().all(|m| m.from != BYZ[0]));

        let step = |to_round, actors| CompiledStep {
            from_round: 1,
            to_round,
            actors,
            strategy: flooder(),
        };
        // A crash at round 4 is `until(3)`: silent from round 4 on, for good.
        let mut crash = PlanAdversary::new(vec![step(Some(3), ActorRange::all())]);
        assert_eq!(crash.step(&view(3, &t)).len(), 9);
        assert!(crash.step(&view(4, &t)).is_empty());
        assert!(crash.step(&view(40, &t)).is_empty());
        // An oversized split hands every identity to the first half.
        let mut split = PlanAdversary::new(vec![
            step(Some(1), ActorRange::first(99)),
            step(None, ActorRange::from(99)),
        ]);
        assert_eq!(
            split.step(&view(1, &t)).len(),
            9,
            "first half drives all three"
        );
        assert!(
            split.step(&view(2, &t)).is_empty(),
            "second half drives nobody"
        );
        // Per-identity steps with their own `until` crash identities one by one.
        let mut staggered = PlanAdversary::new(
            (0..BYZ.len())
                .map(|i| step(Some(i as u64 + 1), ActorRange::slice(i, 1)))
                .collect(),
        );
        for (round, alive) in [(1, &BYZ[..]), (2, &BYZ[1..]), (3, &BYZ[2..]), (4, &[])] {
            let out = staggered.step(&view(round, &t));
            assert_eq!(out.len(), 3 * alive.len(), "round {round}");
            assert!(out.iter().all(|m| alive.contains(&m.from)), "round {round}");
        }
    }

    #[test]
    fn an_inactive_step_does_not_call_its_strategy() {
        // A stateful strategy behind `starting(5)` must first observe round 5:
        // "since the step began" (`AdaptiveAdversary`) depends on it.
        let observed = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let log = observed.clone();
        let mut adv = PlanAdversary::new(vec![CompiledStep {
            from_round: 5,
            to_round: Some(6),
            actors: ActorRange::all(),
            strategy: Box::new(FnAdversary::new(move |v: &AdversaryView<'_, u32>| {
                log.borrow_mut().push(v.round);
                Vec::new()
            })),
        }]);
        let t = RoundTraffic::from_directed(vec![]);
        for round in 1..=8 {
            adv.step(&view(round, &t));
        }
        assert_eq!(*observed.borrow(), vec![5, 6]);
    }

    #[test]
    fn collusion_and_shrinking_helpers() {
        let plan = AttackPlan::collusion(
            AttackBehavior::Preset(AdversaryKind::SplitVote),
            1,
            AttackBehavior::Preset(AdversaryKind::AnnounceThenSilent),
        );
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.as_preset(), None);
        let shrunk = plan.without_step(0);
        assert_eq!(shrunk.len(), 1);
        assert_eq!(plan.without_step(7), plan, "out of range is a no-op");
        assert!(AttackPlan::new().is_empty());
        assert_eq!(AttackPlan::new().label(), "plan(empty)");
        assert!(plan.label().starts_with("plan(split-vote"));
    }
}
