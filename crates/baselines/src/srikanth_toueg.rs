//! Srikanth–Toueg authenticated broadcast with known `n` and `f`.
//!
//! This is the classic reliable-broadcast simulation the paper's Algorithm 1
//! generalises: the thresholds are the absolute `f + 1` ("at least one correct node
//! vouches") and `2f + 1` ("a quorum of correct nodes vouches") instead of the local
//! `n_v/3` and `2n_v/3`. It needs `n > 3f` and, crucially, needs every node to be
//! initialised with `f`.

use std::collections::{BTreeMap, BTreeSet};

use uba_simnet::{Inbox, NodeId, Outgoing, Protocol, RoundContext};

/// Wire messages of the Srikanth–Toueg broadcast.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StMessage<M> {
    /// The designated sender's initial broadcast.
    Init(M),
    /// An echo vouching for the sender's message.
    Echo(M),
}

/// A node running the Srikanth–Toueg broadcast for one designated sender.
#[derive(Clone, Debug)]
pub struct StBroadcast<M> {
    id: NodeId,
    source: NodeId,
    f: usize,
    input: Option<M>,
    echoed: BTreeSet<M>,
    accepted: Vec<(M, u64)>,
    echo_votes: BTreeMap<M, BTreeSet<NodeId>>,
}

impl<M: Clone + Ord + std::fmt::Debug> StBroadcast<M> {
    /// Creates the designated sender, which knows the failure bound `f`.
    pub fn sender(id: NodeId, f: usize, message: M) -> Self {
        StBroadcast {
            id,
            source: id,
            f,
            input: Some(message),
            echoed: BTreeSet::new(),
            accepted: Vec::new(),
            echo_votes: BTreeMap::new(),
        }
    }

    /// Creates a receiver that waits for the designated sender `source`.
    pub fn receiver(id: NodeId, source: NodeId, f: usize) -> Self {
        StBroadcast {
            id,
            source,
            f,
            input: None,
            echoed: BTreeSet::new(),
            accepted: Vec::new(),
            echo_votes: BTreeMap::new(),
        }
    }

    /// The values accepted so far, with the round each was accepted in.
    pub fn accepted(&self) -> &[(M, u64)] {
        &self.accepted
    }
}

impl<M: Clone + Ord + std::fmt::Debug + std::hash::Hash> Protocol for StBroadcast<M> {
    type Payload = StMessage<M>;
    type Output = M;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(
        &mut self,
        ctx: &RoundContext,
        inbox: Inbox<'_, StMessage<M>>,
    ) -> Vec<Outgoing<StMessage<M>>> {
        let mut out = Vec::new();
        // Cumulative distinct-sender echo counting (the classic formulation).
        for (from, message) in inbox {
            match message {
                StMessage::Init(m) if from == self.source => {
                    if self.echoed.insert(m.clone()) {
                        out.push(Outgoing::broadcast(StMessage::Echo(m.clone())));
                    }
                }
                StMessage::Echo(m) => match self.echo_votes.get_mut(m) {
                    Some(votes) => {
                        votes.insert(from);
                    }
                    None => {
                        self.echo_votes.insert(m.clone(), BTreeSet::from([from]));
                    }
                },
                StMessage::Init(_) => {}
            }
        }
        if ctx.round == 1 {
            if let Some(m) = &self.input {
                out.push(Outgoing::broadcast(StMessage::Init(m.clone())));
            }
        }
        let mut newly_echoed = Vec::new();
        for (m, votes) in &self.echo_votes {
            // Relay rule: f + 1 echoes prove a correct node vouched for m.
            if votes.len() > self.f && !self.echoed.contains(m) {
                newly_echoed.push(m.clone());
            }
            // Accept rule: 2f + 1 echoes.
            if votes.len() > 2 * self.f && !self.accepted.iter().any(|(a, _)| a == m) {
                self.accepted.push((m.clone(), ctx.round));
            }
        }
        for m in newly_echoed {
            self.echoed.insert(m.clone());
            out.push(Outgoing::broadcast(StMessage::Echo(m)));
        }
        out
    }

    fn output(&self) -> Option<M> {
        self.accepted.first().map(|(m, _)| m.clone())
    }

    fn terminated(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::adversary::SilentAdversary;
    use uba_simnet::{IdSpace, SyncEngine};

    #[test]
    fn correct_sender_is_accepted_by_all() {
        let ids = IdSpace::Consecutive.generate(7, 0);
        let f = 2;
        let source = ids[0];
        let nodes: Vec<_> = ids
            .iter()
            .map(|&id| {
                if id == source {
                    StBroadcast::sender(id, f, 99u64)
                } else {
                    StBroadcast::receiver(id, source, f)
                }
            })
            .collect();
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
        engine.run_to_output(10).unwrap();
        for node in engine.nodes() {
            assert_eq!(node.output(), Some(99));
        }
    }

    #[test]
    fn silent_byzantine_sender_is_never_accepted() {
        let ids = IdSpace::Consecutive.generate(7, 0);
        let f = 2;
        let source = ids[6];
        let nodes: Vec<_> = ids[..5]
            .iter()
            .map(|&id| StBroadcast::<u64>::receiver(id, source, f))
            .collect();
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![ids[5], ids[6]]);
        engine.run_rounds(15).unwrap();
        assert!(engine.nodes().iter().all(|n| n.output().is_none()));
    }

    #[test]
    fn accepted_values_are_consistent_across_nodes() {
        let ids = IdSpace::Consecutive.generate(4, 0);
        let source = ids[0];
        let nodes: Vec<_> = ids
            .iter()
            .map(|&id| {
                if id == source {
                    StBroadcast::sender(id, 1, 7u64)
                } else {
                    StBroadcast::receiver(id, source, 1)
                }
            })
            .collect();
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
        engine.run_rounds(10).unwrap();
        let sets: Vec<Vec<u64>> = engine
            .nodes()
            .iter()
            .map(|n| n.accepted().iter().map(|(m, _)| *m).collect())
            .collect();
        assert!(sets.iter().all(|s| s == &sets[0]));
    }
}
