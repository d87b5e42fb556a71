//! Per-protocol payload vocabularies and the vocabulary-driven adversaries.
//!
//! The scripted strategies in `uba-core::adversaries` each hard-code one payload
//! shape (a split vote, an equivocating init, a ghost echo). That is enough to
//! break the consensus family at the `n = 3f` boundary, but the broadcast and
//! rotor families survive those attacks — not because they are more robust, but
//! because the attack plans cannot *speak their payload languages*. A
//! [`PayloadVocab`] closes that gap: every
//! [`ProtocolFactory`](crate::sim::ProtocolFactory) describes, for its own wire
//! format, which payloads are
//!
//! * **valid** — something a correct participant could plausibly send in the
//!   current scene (round, membership): announcements, echoes of real values,
//!   round-tagged votes;
//! * **boundary** — payloads aimed at the protocol's counting thresholds:
//!   forged-value echoes (which meet the `n_v/3` support rule *exactly* at
//!   `n = 3f` and are harmless inside the bound), equivocation pairs, extreme
//!   values at the trim limits;
//! * **garbage** — type-correct nonsense: ghost identifiers, out-of-phase
//!   messages, saturating values. Garbage is seeded by the scene's round, so a
//!   flooding adversary can fabricate *fresh* nonsense every round (e.g. a new
//!   ghost rotor candidate per round).
//!
//! The [`VocabAdversary`] interprets those vocabularies as the
//! `AttackBehavior::Noise` / `AttackBehavior::Semantic` behaviours of the plan
//! DSL (see [`crate::attack`]): payloads are enumerated once per round, allocated
//! into [`Shared`] handles once per distinct fabrication, and fanned out by
//! handle — so a noise round costs O(|vocabulary|) payload allocations, never
//! O(|vocabulary| · n), keeping the zero-copy allocation accounting intact.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

use crate::adversary::{Adversary, AdversaryView};
use crate::attack::{AdaptiveStrategy, SemanticStrategy};
use crate::id::NodeId;
use crate::message::Directed;
use crate::shared::Shared;

/// What a vocabulary gets to see when enumerating payloads: the live scenario as
/// of the current round. All fields are borrowed from the adversary's view, so a
/// vocabulary can tailor payloads to the actual membership (echo real candidate
/// identifiers, replay real values) and to the round (phase-appropriate vote
/// shapes, fresh per-round ghosts).
#[derive(Debug)]
pub struct VocabScene<'a> {
    /// Current round (1-based).
    pub round: u64,
    /// The scenario seed — vocabularies derive any extra variety from it so runs
    /// stay reproducible.
    pub seed: u64,
    /// Identifiers of the correct nodes currently in the system.
    pub correct_ids: &'a [NodeId],
    /// Identifiers controlled by the adversary.
    pub byzantine_ids: &'a [NodeId],
}

impl VocabScene<'_> {
    /// A deterministic identifier that no real node holds, fresh per `(round, k)`
    /// pair — the raw material for ghost candidates and fabricated instances.
    /// The base sits far above every generated [`IdSpace`](crate::id::IdSpace)
    /// layout, and successive rounds produce strictly increasing identifiers, so
    /// a per-round ghost always sorts *after* the real membership.
    pub fn ghost_id(&self, k: u64) -> NodeId {
        NodeId::new((1 << 40) + self.round * 64 + k)
    }

    /// A deterministic 64-bit value derived from the scene's seed and round, for
    /// vocabularies that want per-round value variety without their own RNG.
    pub fn derived_value(&self, k: u64) -> u64 {
        crate::rng::derive_seed(self.seed, self.round * 131 + k)
    }
}

/// The `(min, max)` of a real-valued correct input set — the raw material for
/// the value-shaped vocabularies (approximate agreement and its baselines),
/// whose valid payloads are the extremes of the correct range and whose
/// boundary campaigns anchor the trimmed multisets at those extremes. Returns
/// `(0.0, 0.0)` for an empty set.
pub fn input_extremes(inputs: &[f64]) -> (f64, f64) {
    let lo = inputs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = inputs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if lo.is_finite() {
        (lo, hi)
    } else {
        (0.0, 0.0)
    }
}

/// A per-protocol payload vocabulary (see module docs). Implemented by every
/// `ProtocolFactory` in `uba-core::sim` and `uba-baselines::factory`, and
/// returned (boxed) from
/// [`ProtocolFactory::payload_vocab`](crate::sim::ProtocolFactory::payload_vocab).
///
/// All three methods are *enumerations for one round*: they are called once per
/// round by the vocabulary adversaries and must be pure in the scene (same
/// scene, same payloads), which keeps fuzzed runs byte-for-byte reproducible.
pub trait PayloadVocab<P> {
    /// Semantically valid payloads for the scene — what a correct participant
    /// could plausibly send this round.
    fn valid(&self, scene: &VocabScene<'_>) -> Vec<P>;

    /// Threshold-probing payloads: forged echoes, equivocation pairs, values at
    /// the protocol's trim/count limits. When this returns more than one
    /// payload, [`VocabAdversary`] *partitions* the correct nodes across them
    /// (payload `j` to recipients with `i % len == j`) — the equivocation
    /// dispatch.
    fn boundary(&self, scene: &VocabScene<'_>) -> Vec<P>;

    /// Type-correct nonsense: ghost identifiers, out-of-phase messages,
    /// saturating values. Should use the scene's round for freshness where the
    /// protocol accumulates state (e.g. one new ghost candidate per round).
    fn garbage(&self, scene: &VocabScene<'_>) -> Vec<P>;
}

impl<P, V: PayloadVocab<P> + ?Sized> PayloadVocab<P> for Box<V> {
    fn valid(&self, scene: &VocabScene<'_>) -> Vec<P> {
        (**self).valid(scene)
    }
    fn boundary(&self, scene: &VocabScene<'_>) -> Vec<P> {
        (**self).boundary(scene)
    }
    fn garbage(&self, scene: &VocabScene<'_>) -> Vec<P> {
        (**self).garbage(scene)
    }
}

/// The fan-out every oblivious fabrication shares: each payload is allocated
/// into a [`Shared`] handle once, then pushed from every Byzantine identity to
/// every correct recipient `i` for which `deliver(i, j)` holds (`j` is the
/// payload's index) — identities outermost, payloads innermost, which is the
/// inbox order the strategies built on it are pinned to.
pub fn fabricate<P: Hash>(
    out: &mut Vec<Directed<P>>,
    view: &AdversaryView<'_, P>,
    payloads: Vec<P>,
    mut deliver: impl FnMut(usize, usize) -> bool,
) {
    let handles: Vec<Shared<P>> = payloads.into_iter().map(Shared::new).collect();
    for &from in view.byzantine_ids {
        for (i, &to) in view.correct_ids.iter().enumerate() {
            for (j, handle) in handles.iter().enumerate() {
                if deliver(i, j) {
                    out.push(Directed::new(from, to, handle.clone()));
                }
            }
        }
    }
}

/// The adversary behind `AttackBehavior::Noise` and `AttackBehavior::Semantic`:
/// fabricates payloads from a [`PayloadVocab`] every round.
///
/// Dispatch rules (deterministic, so plans replay exactly):
///
/// * [`SemanticStrategy::Valid`] — every valid payload, from every driven
///   identity, to every correct node: the Byzantine nodes imitate correct
///   participants at full volume.
/// * [`SemanticStrategy::Boundary`] — the boundary payloads *partition* the
///   correct nodes (payload `j` to recipients with `i % len == j`), from every
///   driven identity: concentrated, equivocation-shaped threshold pressure.
/// * [`SemanticStrategy::Garbage`] — every garbage payload to everyone: a
///   sustained flood of fresh nonsense.
/// * `Noise` ([`VocabAdversary::noise`]) — all three classes at once, each
///   payload scattered to the recipients with `(i + j + round) % 2 == 0`: the
///   chaos-monkey default for fuzz grids.
///
/// Fabrications go through [`fabricate`]: each distinct payload is allocated
/// into a [`Shared`] handle once per round and fanned out by handle.
pub struct VocabAdversary<P> {
    vocab: Box<dyn PayloadVocab<P>>,
    mode: VocabMode,
    seed: u64,
}

/// Internal dispatch mode (the `Noise` behaviour has no `SemanticStrategy`).
enum VocabMode {
    Semantic(SemanticStrategy),
    Noise,
}

impl<P: Hash> VocabAdversary<P> {
    /// A single-class semantic adversary. `seed` is the scenario seed, exposed
    /// to the vocabulary through the scene.
    pub fn semantic(
        vocab: Box<dyn PayloadVocab<P>>,
        strategy: SemanticStrategy,
        seed: u64,
    ) -> Self {
        VocabAdversary {
            vocab,
            mode: VocabMode::Semantic(strategy),
            seed,
        }
    }

    /// The all-classes, scattered-dispatch noise adversary.
    pub fn noise(vocab: Box<dyn PayloadVocab<P>>, seed: u64) -> Self {
        VocabAdversary {
            vocab,
            mode: VocabMode::Noise,
            seed,
        }
    }
}

impl<P: Hash> Adversary<P> for VocabAdversary<P> {
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        let scene = VocabScene {
            round: view.round,
            seed: self.seed,
            correct_ids: view.correct_ids,
            byzantine_ids: view.byzantine_ids,
        };
        let mut out = Vec::new();
        match &self.mode {
            VocabMode::Semantic(SemanticStrategy::Valid) => {
                let payloads = self.vocab.valid(&scene);
                fabricate(&mut out, view, payloads, |_, _| true);
            }
            VocabMode::Semantic(SemanticStrategy::Boundary) => {
                let payloads = self.vocab.boundary(&scene);
                let len = payloads.len().max(1);
                fabricate(&mut out, view, payloads, |i, j| i % len == j);
            }
            VocabMode::Semantic(SemanticStrategy::Garbage) => {
                let payloads = self.vocab.garbage(&scene);
                fabricate(&mut out, view, payloads, |_, _| true);
            }
            VocabMode::Noise => {
                let round = view.round as usize;
                let valid = self.vocab.valid(&scene);
                fabricate(&mut out, view, valid, |i, j| {
                    (i + j + round).is_multiple_of(2)
                });
                let boundary = self.vocab.boundary(&scene);
                let len = boundary.len().max(1);
                fabricate(&mut out, view, boundary, |i, j| i % len == j);
                let garbage = self.vocab.garbage(&scene);
                fabricate(&mut out, view, garbage, |i, j| {
                    (i + j + round).is_multiple_of(2)
                });
            }
        }
        out
    }
}

/// The adversary behind `AttackBehavior::Adaptive`: a *stateful* strategy that
/// accumulates, round over round, how many messages every correct node has
/// received from correct nodes, and re-aims its vocabulary payloads at
/// whichever node the chosen [`AdaptiveStrategy`] singles out.
///
/// Everything is deterministic: the received counts live in a [`BTreeMap`], all
/// arg-min/arg-max ties break toward the smallest identifier, and payload
/// enumeration goes through the same pure-in-the-scene [`PayloadVocab`] calls
/// the scripted vocabulary adversaries use — so runs replay byte-for-byte under
/// the scenario seed and adaptive plan steps shrink like scripted ones.
///
/// Fabrications are hoisted exactly like [`VocabAdversary`]: one [`Shared`]
/// allocation per distinct payload per round, fan-out by handle.
pub struct AdaptiveAdversary<P> {
    vocab: Box<dyn PayloadVocab<P>>,
    strategy: AdaptiveStrategy,
    seed: u64,
    /// Cumulative messages received by each correct node since the step began.
    received: BTreeMap<NodeId, u64>,
}

impl<P: Hash> AdaptiveAdversary<P> {
    /// Creates an adaptive adversary over the factory's vocabulary. `seed` is
    /// the scenario seed, exposed to the vocabulary through the scene.
    pub fn new(vocab: Box<dyn PayloadVocab<P>>, strategy: AdaptiveStrategy, seed: u64) -> Self {
        AdaptiveAdversary {
            vocab,
            strategy,
            seed,
            received: BTreeMap::new(),
        }
    }

    /// Folds this round's observed correct traffic into the cumulative counts.
    fn observe(&mut self, view: &AdversaryView<'_, P>) {
        for &id in view.correct_ids {
            self.received.entry(id).or_insert(0);
        }
        // The round's live set, built once: `received` also remembers nodes that
        // have left, and a linear `correct_ids.contains` per expanded message
        // would make the round O(n³).
        let live: BTreeSet<NodeId> = view.correct_ids.iter().copied().collect();
        for sent in view.traffic().filter(|sent| live.contains(&sent.to)) {
            *self.received.entry(sent.to).or_insert(0) += 1;
        }
    }

    /// The live node with the smallest received count (ties → smallest id).
    fn weakest(&self, correct_ids: &[NodeId]) -> Option<NodeId> {
        correct_ids
            .iter()
            .copied()
            .min_by_key(|id| (self.received.get(id).copied().unwrap_or(0), *id))
    }

    /// The live node with the largest received count (ties → smallest id).
    fn strongest(&self, correct_ids: &[NodeId]) -> Option<NodeId> {
        correct_ids.iter().copied().max_by_key(|id| {
            (
                self.received.get(id).copied().unwrap_or(0),
                std::cmp::Reverse(*id),
            )
        })
    }

    /// Median received count over the live correct nodes.
    fn median_received(&self, correct_ids: &[NodeId]) -> u64 {
        let mut counts: Vec<u64> = correct_ids
            .iter()
            .map(|id| self.received.get(id).copied().unwrap_or(0))
            .collect();
        counts.sort_unstable();
        counts.get(counts.len() / 2).copied().unwrap_or(0)
    }
}

impl<P: Hash> Adversary<P> for AdaptiveAdversary<P> {
    fn step(&mut self, view: &AdversaryView<'_, P>) -> Vec<Directed<P>> {
        self.observe(view);
        let scene = VocabScene {
            round: view.round,
            seed: self.seed,
            correct_ids: view.correct_ids,
            byzantine_ids: view.byzantine_ids,
        };
        let mut out = Vec::new();
        match self.strategy {
            AdaptiveStrategy::StarveWeakest => {
                let Some(victim) = self.weakest(view.correct_ids) else {
                    return out;
                };
                // The full *plausible* vocabulary — every valid and boundary
                // payload, but no garbage — concentrated on the single node
                // with the least information. No scripted behaviour produces
                // this shape: the boundary pair lands on one recipient from
                // one sender without the garbage flood that tags Noise.
                let mut payloads = self.vocab.valid(&scene);
                payloads.extend(self.vocab.boundary(&scene));
                let victim_index = view.correct_ids.iter().position(|&id| id == victim);
                fabricate(&mut out, view, payloads, |i, _| Some(i) == victim_index);
            }
            AdaptiveStrategy::EquivocateMinority => {
                let payloads = self.vocab.boundary(&scene);
                if payloads.len() < 2 {
                    // No equivocation pair to aim: fall back to imitation.
                    let valid = self.vocab.valid(&scene);
                    fabricate(&mut out, view, valid, |_, _| true);
                    return out;
                }
                let median = self.median_received(view.correct_ids);
                let minority: Vec<bool> = view
                    .correct_ids
                    .iter()
                    .map(|id| self.received.get(id).copied().unwrap_or(0) < median)
                    .collect();
                // Minority partition hears the last boundary payload (the
                // "high" story), everyone else the first ("low") — each
                // recipient hears exactly one side, aimed by observed traffic.
                let last = payloads.len() - 1;
                fabricate(&mut out, view, payloads, |i, j| {
                    if minority.get(i).copied().unwrap_or(false) {
                        j == last
                    } else {
                        j == 0
                    }
                });
            }
            AdaptiveStrategy::WithholdNearQuorum => {
                let leader = self.strongest(view.correct_ids);
                let leader_index =
                    leader.and_then(|id| view.correct_ids.iter().position(|&node| node == id));
                let valid = self.vocab.valid(&scene);
                fabricate(&mut out, view, valid, |i, _| Some(i) != leader_index);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared;
    use crate::traffic::RoundTraffic;

    static CORRECT: [NodeId; 4] = [
        NodeId::new(2),
        NodeId::new(4),
        NodeId::new(5),
        NodeId::new(7),
    ];
    static BYZ: [NodeId; 2] = [NodeId::new(90), NodeId::new(91)];

    /// A toy vocabulary over `u64` payloads: valid = {1}, boundary = {10, 11},
    /// garbage = one fresh value per round.
    struct ToyVocab;

    impl PayloadVocab<u64> for ToyVocab {
        fn valid(&self, _scene: &VocabScene<'_>) -> Vec<u64> {
            vec![1]
        }
        fn boundary(&self, _scene: &VocabScene<'_>) -> Vec<u64> {
            vec![10, 11]
        }
        fn garbage(&self, scene: &VocabScene<'_>) -> Vec<u64> {
            vec![1000 + scene.round]
        }
    }

    fn view(round: u64, traffic: &RoundTraffic<u64>) -> AdversaryView<'_, u64> {
        AdversaryView {
            round,
            correct_ids: &CORRECT,
            byzantine_ids: &BYZ,
            correct_traffic: traffic,
        }
    }

    #[test]
    fn valid_strategy_floods_every_recipient() {
        let t = RoundTraffic::new();
        let mut adv = VocabAdversary::semantic(Box::new(ToyVocab), SemanticStrategy::Valid, 0);
        let out = adv.step(&view(1, &t));
        assert_eq!(out.len(), 2 * 4, "2 actors × 4 recipients × 1 payload");
        assert!(out.iter().all(|m| m.payload == 1));
    }

    #[test]
    fn boundary_strategy_partitions_recipients_across_payloads() {
        let t = RoundTraffic::new();
        let mut adv = VocabAdversary::semantic(Box::new(ToyVocab), SemanticStrategy::Boundary, 0);
        let out = adv.step(&view(3, &t));
        assert_eq!(out.len(), 2 * 4, "each recipient gets exactly one payload");
        for m in &out {
            let i = CORRECT.iter().position(|&c| c == m.to).unwrap();
            let expected = if i % 2 == 0 { 10 } else { 11 };
            assert_eq!(*m.payload(), expected, "equivocation partition by index");
        }
    }

    #[test]
    fn garbage_is_fresh_per_round() {
        let t = RoundTraffic::new();
        let mut adv = VocabAdversary::semantic(Box::new(ToyVocab), SemanticStrategy::Garbage, 0);
        let r1 = adv.step(&view(1, &t));
        let r2 = adv.step(&view(2, &t));
        assert!(r1.iter().all(|m| m.payload == 1001));
        assert!(r2.iter().all(|m| m.payload == 1002));
    }

    #[test]
    fn fabrications_are_hoisted_to_one_allocation_per_payload() {
        // Every dispatch mode pays O(|payloads of the round|) allocations, never
        // O(|payloads| · recipients): the fan-out below each count is strictly
        // larger than the allocation delta.
        let t = RoundTraffic::new();
        for (mode, expected) in [
            // ToyVocab at round 5: valid = {1}.
            (SemanticStrategy::Valid, 1),
            // boundary = {10, 11}.
            (SemanticStrategy::Boundary, 2),
            // garbage = {1005}.
            (SemanticStrategy::Garbage, 1),
        ] {
            let mut adv = VocabAdversary::semantic(Box::new(ToyVocab), mode, 0);
            let before = shared::thread_allocations();
            let out = adv.step(&view(5, &t));
            let allocated = shared::thread_allocations() - before;
            assert_eq!(
                allocated, expected,
                "{mode:?}: one allocation per distinct payload"
            );
            assert!(
                out.len() > expected as usize,
                "{mode:?}: fan-out forwards handles, not copies"
            );
        }
        // Noise enumerates all three classes once: 1 + 2 + 1 allocations.
        let mut adv = VocabAdversary::noise(Box::new(ToyVocab), 0);
        let before = shared::thread_allocations();
        let out = adv.step(&view(5, &t));
        assert_eq!(
            shared::thread_allocations() - before,
            4,
            "noise = Σ class sizes"
        );
        assert!(out.len() > 4, "noise fan-out forwards handles too");
    }

    #[test]
    fn noise_mixes_all_classes_with_scattered_dispatch() {
        let t = RoundTraffic::new();
        let mut adv = VocabAdversary::noise(Box::new(ToyVocab), 0);
        let out = adv.step(&view(2, &t));
        // Boundary payloads always land (partition dispatch); valid/garbage are
        // scattered by parity. Everything stays inside the declared vocabulary.
        assert!(out.iter().any(|m| m.payload == 10 || m.payload == 11));
        assert!(out.iter().any(|m| m.payload == 1));
        assert!(out.iter().any(|m| m.payload == 1002));
        assert!(out
            .iter()
            .all(|m| [1u64, 10, 11, 1002].contains(m.payload())));
    }

    #[test]
    fn ghost_ids_sit_above_real_layouts_and_vary_per_round() {
        let scene = VocabScene {
            round: 7,
            seed: 3,
            correct_ids: &CORRECT,
            byzantine_ids: &BYZ,
        };
        let later = VocabScene { round: 8, ..scene };
        assert!(scene.ghost_id(0).raw() > u32::MAX as u64);
        assert_ne!(scene.ghost_id(0), scene.ghost_id(1));
        assert!(
            later.ghost_id(0) > scene.ghost_id(63),
            "rounds never collide"
        );
        assert_eq!(scene.derived_value(1), scene.derived_value(1));
        assert_ne!(scene.derived_value(1), later.derived_value(1));
    }

    #[test]
    fn starve_weakest_concentrates_the_plausible_vocab_on_one_victim() {
        let t = RoundTraffic::new();
        let mut adv =
            AdaptiveAdversary::new(Box::new(ToyVocab), AdaptiveStrategy::StarveWeakest, 0);
        let out = adv.step(&view(1, &t));
        // No traffic observed yet: every count is 0, the tie breaks to the
        // smallest id. valid {1} + boundary {10, 11} from both actors.
        assert_eq!(out.len(), 2 * 3);
        assert!(out.iter().all(|m| m.to == CORRECT[0]));
        let mut values: Vec<u64> = out.iter().map(|m| *m.payload()).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values, vec![1, 10, 11], "valid + boundary, no garbage");
    }

    #[test]
    fn starve_weakest_retargets_as_observed_traffic_accumulates() {
        let mut t = RoundTraffic::new();
        t.begin_round(CORRECT.iter().copied().chain(BYZ.iter().copied()));
        // Every correct node except CORRECT[2] hears something in round 1.
        for &to in &[CORRECT[0], CORRECT[1], CORRECT[3]] {
            t.push_unicast(Directed::new(CORRECT[0], to, 5u64));
        }
        let mut adv =
            AdaptiveAdversary::new(Box::new(ToyVocab), AdaptiveStrategy::StarveWeakest, 0);
        let out = adv.step(&view(1, &t));
        assert!(
            out.iter().all(|m| m.to == CORRECT[2]),
            "the victim is the node with the fewest received messages"
        );
    }

    #[test]
    fn withhold_near_quorum_starves_the_busiest_node() {
        let mut t = RoundTraffic::new();
        t.begin_round(CORRECT.iter().copied().chain(BYZ.iter().copied()));
        t.push_unicast(Directed::new(CORRECT[0], CORRECT[1], 5u64));
        let mut adv =
            AdaptiveAdversary::new(Box::new(ToyVocab), AdaptiveStrategy::WithholdNearQuorum, 0);
        let out = adv.step(&view(1, &t));
        assert!(
            out.iter().all(|m| m.to != CORRECT[1]),
            "the leader hears nothing"
        );
        assert!(out.iter().all(|m| m.payload == 1), "imitation uses valid");
        assert_eq!(out.len(), 2 * 3, "2 actors × the 3 non-leader nodes");
    }

    #[test]
    fn equivocate_minority_splits_the_boundary_pair_by_received_count() {
        let mut t = RoundTraffic::new();
        t.begin_round(CORRECT.iter().copied().chain(BYZ.iter().copied()));
        // CORRECT[0] and CORRECT[1] are behind; the rest hear one message.
        for &to in &[CORRECT[2], CORRECT[3]] {
            t.push_unicast(Directed::new(CORRECT[0], to, 5u64));
        }
        let mut adv =
            AdaptiveAdversary::new(Box::new(ToyVocab), AdaptiveStrategy::EquivocateMinority, 0);
        let out = adv.step(&view(1, &t));
        for m in &out {
            let minority = m.to == CORRECT[0] || m.to == CORRECT[1];
            let expected = if minority { 11 } else { 10 };
            assert_eq!(
                *m.payload(),
                expected,
                "minority hears high, majority hears low"
            );
        }
    }

    #[test]
    fn adaptive_state_accumulates_across_rounds_deterministically() {
        let make =
            || AdaptiveAdversary::new(Box::new(ToyVocab), AdaptiveStrategy::StarveWeakest, 7);
        let mut t1 = RoundTraffic::new();
        t1.begin_round(CORRECT.iter().copied().chain(BYZ.iter().copied()));
        t1.push_unicast(Directed::new(CORRECT[1], CORRECT[0], 9u64));
        let replay = |adv: &mut AdaptiveAdversary<u64>, t1: &RoundTraffic<u64>| {
            let empty = RoundTraffic::new();
            let r1: Vec<(NodeId, u64)> = adv
                .step(&view(1, t1))
                .into_iter()
                .map(|m| (m.to, *m.payload()))
                .collect();
            let r2: Vec<(NodeId, u64)> = adv
                .step(&view(2, &empty))
                .into_iter()
                .map(|m| (m.to, *m.payload()))
                .collect();
            (r1, r2)
        };
        let a = replay(&mut make(), &t1);
        let b = replay(&mut make(), &t1);
        assert_eq!(a, b, "same observations, same targeting");
        // After round 1, CORRECT[0] has heard one message; the round-2 victim
        // moves to the next-smallest untouched id.
        assert!(a.1.iter().all(|&(to, _)| to == CORRECT[1]));
    }

    #[test]
    fn restricted_actor_views_restrict_the_fanout() {
        let t = RoundTraffic::new();
        let mut adv = VocabAdversary::semantic(Box::new(ToyVocab), SemanticStrategy::Valid, 0);
        let mut v = view(1, &t);
        v.byzantine_ids = &BYZ[..1];
        let out = adv.step(&v);
        assert_eq!(out.len(), 4, "one actor × 4 recipients");
        assert!(out.iter().all(|m| m.from == BYZ[0]));
    }
}
