//! Berman–Garay–Perry phase-king consensus with known `n`, `f` and consecutive
//! identifiers.
//!
//! This is the classic `O(f)`-round, polynomial-message consensus the paper's
//! Algorithm 3 generalises. It runs `f + 1` phases of three rounds each; phase `k` is
//! presided over by the node with the `k`-th smallest identifier (the *king*), which
//! is why consecutive (or at least globally known) identifiers and a known `f` are
//! required — exactly the knowledge the id-only model removes.
//!
//! Structure of a phase (the `n > 3f` variant with an explicit proposal round):
//!
//! 1. broadcast the current value; a value seen at least `n − f` times becomes the
//!    node's *proposal*;
//! 2. broadcast the proposal; adopt a proposal seen at least `f + 1` times, and call
//!    it *strong* if seen at least `n − f` times;
//! 3. the king broadcasts its value; every node whose proposal was not strong adopts
//!    the king's value. After phase `f + 1`, output the current value.

use std::collections::BTreeMap;

use uba_simnet::{Inbox, NodeId, Outgoing, Protocol, Recoverable, RoundContext};

/// Wire messages of phase-king.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseKingMessage<V> {
    /// Round-1 value broadcast.
    Value(V),
    /// Round-2 proposal broadcast.
    Proposal(V),
    /// Round-3 king broadcast.
    King(V),
}

/// A node running phase-king consensus. It must be constructed with the full sorted
/// list of participant identifiers (that is the knowledge the classic model grants).
#[derive(Clone, Debug)]
pub struct PhaseKing<V> {
    id: NodeId,
    /// All participant identifiers, sorted; index `k − 1` is the king of phase `k`.
    participants: Vec<NodeId>,
    f: usize,
    value: V,
    input: V,
    phase: usize,
    strong: bool,
    decided: Option<V>,
    decided_round: u64,
}

impl<V: Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug> PhaseKing<V> {
    /// Creates a node. `participants` must be identical at every correct node.
    pub fn new(id: NodeId, mut participants: Vec<NodeId>, f: usize, input: V) -> Self {
        participants.sort_unstable();
        PhaseKing {
            id,
            participants,
            f,
            value: input.clone(),
            input,
            phase: 1,
            strong: false,
            decided: None,
            decided_round: 0,
        }
    }

    /// The node's original input.
    pub fn input(&self) -> &V {
        &self.input
    }

    /// The round in which the node decided (0 if undecided).
    pub fn decided_round(&self) -> u64 {
        self.decided_round
    }

    fn n(&self) -> usize {
        self.participants.len()
    }

    fn king_of_phase(&self, phase: usize) -> NodeId {
        self.participants[(phase - 1) % self.participants.len()]
    }

    fn count<'a>(inbox: impl Iterator<Item = &'a V>) -> BTreeMap<&'a V, usize>
    where
        V: 'a,
    {
        let mut counts = BTreeMap::new();
        for v in inbox {
            *counts.entry(v).or_insert(0) += 1;
        }
        counts
    }
}

impl<V: Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug> Recoverable for PhaseKing<V> {
    fn snapshot(&self) -> Self {
        self.clone()
    }
}

impl<V: Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug> Protocol for PhaseKing<V> {
    type Payload = PhaseKingMessage<V>;
    type Output = V;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: Inbox<'_, PhaseKingMessage<V>>,
    ) -> Vec<Outgoing<PhaseKingMessage<V>>> {
        if self.decided.is_some() {
            return Vec::new();
        }
        let n = self.n();
        let f = self.f;
        // Round schedule: three rounds per phase, starting at round 1.
        let phase = ((ctx.round - 1) / 3 + 1) as usize;
        let step = (ctx.round - 1) % 3;
        self.phase = phase;

        match step {
            // Round 1 of the phase: broadcast the value. (The evaluation of the
            // previous phase's king round happens first, on this round's inbox.)
            0 => {
                if phase > 1 {
                    let king = self.king_of_phase(phase - 1);
                    let king_value = inbox.iter().find_map(|(from, message)| match message {
                        PhaseKingMessage::King(v) if from == king => Some(v.clone()),
                        _ => None,
                    });
                    if !self.strong {
                        if let Some(v) = king_value {
                            self.value = v;
                        }
                    }
                    if phase > f + 1 {
                        self.decided = Some(self.value.clone());
                        self.decided_round = ctx.round;
                        return Vec::new();
                    }
                }
                vec![Outgoing::broadcast(PhaseKingMessage::Value(
                    self.value.clone(),
                ))]
            }
            // Round 2: evaluate values, broadcast a proposal if one value reached n − f.
            1 => {
                let values: Vec<&V> = inbox
                    .iter()
                    .filter_map(|(_, message)| match message {
                        PhaseKingMessage::Value(v) => Some(v),
                        _ => None,
                    })
                    .collect();
                let counts = Self::count(values.into_iter());
                let proposal = counts
                    .iter()
                    .find(|(_, &c)| c >= n - f)
                    .map(|(v, _)| (*v).clone());
                match proposal {
                    Some(v) => vec![Outgoing::broadcast(PhaseKingMessage::Proposal(v))],
                    None => Vec::new(),
                }
            }
            // Round 3: evaluate proposals; the king broadcasts its value.
            _ => {
                let proposals: Vec<&V> = inbox
                    .iter()
                    .filter_map(|(_, message)| match message {
                        PhaseKingMessage::Proposal(v) => Some(v),
                        _ => None,
                    })
                    .collect();
                let counts = Self::count(proposals.into_iter());
                self.strong = false;
                if let Some((v, &c)) = counts.iter().max_by_key(|(_, &c)| c) {
                    if c > f {
                        self.value = (*v).clone();
                    }
                    if c >= n - f {
                        self.strong = true;
                    }
                }
                if self.king_of_phase(phase) == self.id {
                    vec![Outgoing::broadcast(PhaseKingMessage::King(
                        self.value.clone(),
                    ))]
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn output(&self) -> Option<V> {
        self.decided.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::adversary::SilentAdversary;
    use uba_simnet::{AdversaryView, Directed, FnAdversary, IdSpace, SyncEngine};

    fn run(inputs: &[u64], byzantine: usize) -> Vec<u64> {
        let n = inputs.len() + byzantine;
        let f = byzantine;
        let ids = IdSpace::Consecutive.generate(n, 0);
        let nodes: Vec<_> = ids[..inputs.len()]
            .iter()
            .zip(inputs)
            .map(|(&id, &x)| PhaseKing::new(id, ids.clone(), f, x))
            .collect();
        let byz = ids[inputs.len()..].to_vec();
        let byz_clone = byz.clone();
        // Byzantine nodes split their value votes.
        let adversary = FnAdversary::new(move |view: &AdversaryView<'_, PhaseKingMessage<u64>>| {
            let mut out = Vec::new();
            for (b, &from) in byz_clone.iter().enumerate() {
                for (i, &to) in view.correct_ids.iter().enumerate() {
                    let v = ((i + b) % 2) as u64;
                    let payload = match (view.round - 1) % 3 {
                        0 => PhaseKingMessage::Value(v),
                        1 => PhaseKingMessage::Proposal(v),
                        _ => PhaseKingMessage::King(v),
                    };
                    out.push(Directed::new(from, to, payload));
                }
            }
            out
        });
        let mut engine = SyncEngine::new(nodes, adversary, byz);
        engine.run_to_termination(200).unwrap();
        engine
            .outputs()
            .into_iter()
            .map(|(_, o)| o.unwrap())
            .collect()
    }

    #[test]
    fn unanimous_inputs_are_decided() {
        let out = run(&[1; 7], 2);
        assert!(out.iter().all(|&v| v == 1));
    }

    #[test]
    fn split_inputs_reach_agreement() {
        let out = run(&[0, 1, 0, 1, 0, 1, 1], 2);
        assert!(out.windows(2).all(|w| w[0] == w[1]), "agreement: {out:?}");
        assert!(out[0] == 0 || out[0] == 1);
    }

    #[test]
    fn fault_free_run_decides_quickly() {
        let ids = IdSpace::Consecutive.generate(4, 0);
        let nodes: Vec<_> = ids
            .iter()
            .map(|&id| PhaseKing::new(id, ids.clone(), 1, id.raw() % 2))
            .collect();
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
        engine.run_to_termination(50).unwrap();
        // f = 1 → 2 phases of 3 rounds plus the final evaluation round.
        assert!(engine.round() <= 8);
        let outputs: Vec<u64> = engine
            .outputs()
            .into_iter()
            .map(|(_, o)| o.unwrap())
            .collect();
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    }
}
