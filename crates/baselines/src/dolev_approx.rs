//! Dolev et al. approximate agreement with a known `f`.
//!
//! The classic single-round step: broadcast the value, collect `n` values (missing
//! ones are ignored), discard exactly the `f` smallest and `f` largest, and output the
//! midpoint of the remainder. Identical in spirit to the paper's Algorithm 4, except
//! that the trim width is the *known* `f` rather than the locally derived `⌊n_v/3⌋`.

use uba_simnet::{Inbox, NodeId, Outgoing, Protocol, Recoverable, RoundContext};

/// Fixed-point value re-exported from `uba-core`'s value module would create a
/// dependency cycle, so the baseline simply works on integer-scaled values (micro
/// units), which is what the experiment harness feeds both implementations.
pub type Micro = i64;

/// A node running one round of Dolev-style approximate agreement.
#[derive(Clone, Debug)]
pub struct DolevApprox {
    id: NodeId,
    f: usize,
    input: Micro,
    output: Option<Micro>,
}

impl DolevApprox {
    /// Creates a node with the known failure bound `f` and its input value.
    pub fn new(id: NodeId, f: usize, input: Micro) -> Self {
        DolevApprox {
            id,
            f,
            input,
            output: None,
        }
    }

    /// The node's input.
    pub fn input(&self) -> Micro {
        self.input
    }
}

impl Recoverable for DolevApprox {
    fn snapshot(&self) -> Self {
        self.clone()
    }
}

impl Protocol for DolevApprox {
    type Payload = Micro;
    type Output = Micro;

    fn id(&self) -> NodeId {
        self.id
    }

    fn step(&mut self, ctx: &RoundContext, inbox: Inbox<'_, Micro>) -> Vec<Outgoing<Micro>> {
        match ctx.round {
            1 => vec![Outgoing::broadcast(self.input)],
            2 => {
                let mut values: Vec<Micro> = Vec::new();
                let mut seen: Vec<NodeId> = Vec::new();
                for (from, value) in inbox {
                    if !seen.contains(&from) {
                        seen.push(from);
                        values.push(*value);
                    }
                }
                values.sort_unstable();
                if values.len() > 2 * self.f {
                    let kept = &values[self.f..values.len() - self.f];
                    self.output = Some((kept[0] + kept[kept.len() - 1]).div_euclid(2));
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn output(&self) -> Option<Micro> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_simnet::adversary::SilentAdversary;
    use uba_simnet::{AdversaryView, Directed, FnAdversary, IdSpace, SyncEngine};

    #[test]
    fn outputs_lie_within_correct_range_despite_outliers() {
        let ids = IdSpace::Consecutive.generate(9, 0);
        let f = 2;
        let inputs: Vec<Micro> = vec![10, 12, 14, 16, 18, 20, 22];
        let nodes: Vec<_> = ids[..7]
            .iter()
            .zip(&inputs)
            .map(|(&id, &x)| DolevApprox::new(id, f, x))
            .collect();
        let byz = vec![ids[7], ids[8]];
        let byz_clone = byz.clone();
        let adversary = FnAdversary::new(move |view: &AdversaryView<'_, Micro>| {
            if view.round != 1 {
                return vec![];
            }
            let mut out = Vec::new();
            for (b, &from) in byz_clone.iter().enumerate() {
                for (i, &to) in view.correct_ids.iter().enumerate() {
                    let v = if (i + b) % 2 == 0 {
                        -1_000_000
                    } else {
                        1_000_000
                    };
                    out.push(Directed::new(from, to, v));
                }
            }
            out
        });
        let mut engine = SyncEngine::new(nodes, adversary, byz);
        engine.run_to_output(4).unwrap();
        for (_, out) in engine.outputs() {
            let v = out.unwrap();
            assert!(
                (10..=22).contains(&v),
                "output {v} escaped the correct range"
            );
        }
    }

    #[test]
    fn fault_free_outputs_contract_the_range() {
        let ids = IdSpace::Consecutive.generate(5, 0);
        let nodes: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| DolevApprox::new(id, 1, (i as Micro) * 100))
            .collect();
        let mut engine = SyncEngine::new(nodes, SilentAdversary, vec![]);
        engine.run_to_output(4).unwrap();
        let outputs: Vec<Micro> = engine
            .outputs()
            .into_iter()
            .map(|(_, o)| o.unwrap())
            .collect();
        let lo = *outputs.iter().min().unwrap();
        let hi = *outputs.iter().max().unwrap();
        assert!(lo >= 0 && hi <= 400);
        assert!(hi - lo < 400);
    }

    #[test]
    fn accessor_reports_input() {
        assert_eq!(DolevApprox::new(NodeId::new(1), 1, 55).input(), 55);
    }
}
