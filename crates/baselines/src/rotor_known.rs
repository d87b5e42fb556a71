//! The trivial rotating coordinator with known `f` and consecutive identifiers.
//!
//! When `f` is known and identifiers are `0, 1, 2, …`, ensuring that some coordinator
//! is correct is trivial: rotate through the nodes with identifiers `0 … f`. One of
//! those `f + 1` nodes must be correct, no communication is needed to agree on the
//! schedule, and the whole thing takes exactly `f + 1` rounds. This is the baseline
//! against which the cost of the id-only rotor-coordinator (Algorithm 2) is measured
//! in experiment E3.

use uba_simnet::{Inbox, NodeId, Outgoing, Protocol, Recoverable, RoundContext};

/// Wire message: the coordinator of the round distributes its opinion.
pub type KnownRotorMessage = u64;

/// A node rotating through the known coordinators `0 … f`.
#[derive(Clone, Debug)]
pub struct KnownRotor {
    id: NodeId,
    f: usize,
    opinion: u64,
    /// Opinion accepted from each round's coordinator.
    accepted: Vec<(NodeId, Option<u64>)>,
    done: bool,
}

impl KnownRotor {
    /// Creates a node with the known failure bound and the opinion it would
    /// distribute as a coordinator.
    pub fn new(id: NodeId, f: usize, opinion: u64) -> Self {
        KnownRotor {
            id,
            f,
            opinion,
            accepted: Vec::new(),
            done: false,
        }
    }

    /// The `(coordinator, accepted opinion)` pairs, one per round.
    pub fn accepted(&self) -> &[(NodeId, Option<u64>)] {
        &self.accepted
    }
}

impl Recoverable for KnownRotor {
    fn snapshot(&self) -> Self {
        self.clone()
    }
}

impl Protocol for KnownRotor {
    type Payload = KnownRotorMessage;
    type Output = Vec<(NodeId, Option<u64>)>;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(&mut self, ctx: &RoundContext, inbox: Inbox<'_, u64>) -> Vec<Outgoing<u64>> {
        // The coordinator of round r is the node with identifier r − 1; its opinion is
        // received (and recorded) in round r + 1.
        if ctx.round >= 2 {
            let previous = NodeId::new(ctx.round - 2);
            let opinion = inbox
                .iter()
                .find(|&(from, _)| from == previous)
                .map(|(_, opinion)| *opinion);
            self.accepted.push((previous, opinion));
            if self.accepted.len() > self.f {
                self.done = true;
                return Vec::new();
            }
        }
        if self.id == NodeId::new(ctx.round - 1) {
            vec![Outgoing::broadcast(self.opinion)]
        } else {
            Vec::new()
        }
    }

    fn output(&self) -> Option<Vec<(NodeId, Option<u64>)>> {
        self.done.then(|| self.accepted.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::adversary::SilentAdversary;
    use uba_simnet::{IdSpace, SyncEngine};

    #[test]
    fn rotates_through_f_plus_one_coordinators() {
        let ids = IdSpace::Consecutive.generate(7, 0);
        let f = 2;
        let nodes: Vec<_> = ids
            .iter()
            .map(|&id| KnownRotor::new(id, f, id.raw() * 10))
            .collect();
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
        engine.run_to_termination(20).unwrap();
        assert_eq!(
            engine.round(),
            (f + 2) as u64,
            "terminates right after f + 1 coordinators"
        );
        for (_, output) in engine.outputs() {
            let accepted = output.unwrap();
            assert_eq!(accepted.len(), f + 1);
            // Every coordinator was correct here, so every opinion was received.
            for (i, (coordinator, opinion)) in accepted.iter().enumerate() {
                assert_eq!(*coordinator, NodeId::new(i as u64));
                assert_eq!(*opinion, Some(i as u64 * 10));
            }
        }
    }

    #[test]
    fn silent_byzantine_coordinator_yields_no_opinion_but_one_good_round_remains() {
        let ids = IdSpace::Consecutive.generate(5, 0);
        let f = 1;
        // Node 0 is Byzantine (silent); nodes 1–4 are correct.
        let nodes: Vec<_> = ids[1..]
            .iter()
            .map(|&id| KnownRotor::new(id, f, id.raw()))
            .collect();
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![ids[0]]);
        engine.run_to_termination(20).unwrap();
        for (_, output) in engine.outputs() {
            let accepted = output.unwrap();
            assert_eq!(
                accepted[0].1, None,
                "the Byzantine coordinator sent nothing"
            );
            assert_eq!(
                accepted[1].1,
                Some(1),
                "the correct coordinator's opinion is accepted"
            );
        }
    }
}
