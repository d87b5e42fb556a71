//! Round, message and delivery accounting.
//!
//! The paper argues (Section XII) that dropping the knowledge of `n` and `f` leaves
//! the message and round complexity of the classic algorithms essentially unchanged.
//! The experiments that check this claim (E5, E10) read the counters collected here.

use serde::{Deserialize, Serialize};

/// Counters for a single round of execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundMetrics {
    /// Round number these counters belong to.
    pub round: u64,
    /// Messages produced by correct nodes this round (a broadcast counts once per
    /// recipient, i.e. as the number of point-to-point deliveries it generates).
    pub correct_messages: u64,
    /// Messages injected by the adversary this round.
    pub byzantine_messages: u64,
    /// Messages actually delivered to correct nodes at the start of the next round
    /// (after deduplication).
    pub deliveries: u64,
    /// Number of correct nodes that were live (not yet terminated) this round.
    pub live_correct_nodes: u64,
}

/// Aggregated counters for an execution.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Number of rounds executed so far.
    pub rounds: u64,
    /// Total point-to-point messages produced by correct nodes.
    pub correct_messages: u64,
    /// Total messages injected by the adversary.
    pub byzantine_messages: u64,
    /// Total deliveries to correct nodes (after deduplication).
    pub deliveries: u64,
    /// Per-round breakdown, in round order.
    pub per_round: Vec<RoundMetrics>,
}

impl Metrics {
    /// Creates an empty metrics record.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records the counters of a completed round.
    pub fn record_round(&mut self, round: RoundMetrics) {
        self.rounds += 1;
        self.correct_messages += round.correct_messages;
        self.byzantine_messages += round.byzantine_messages;
        self.deliveries += round.deliveries;
        self.per_round.push(round);
    }

    /// Credits `count` deliveries to the row of the round that *sent* them
    /// (rows are recorded one per round, from round 1) and to the total.
    pub(crate) fn credit_deliveries(&mut self, sent_round: u64, count: u64) {
        self.deliveries += count;
        if let Some(row) = self
            .per_round
            .get_mut(sent_round.saturating_sub(1) as usize)
        {
            row.deliveries += count;
        }
    }

    /// Total messages (correct + Byzantine) produced during the execution.
    pub fn total_messages(&self) -> u64 {
        self.correct_messages + self.byzantine_messages
    }

    /// Average point-to-point messages produced by correct nodes per round, or 0.0 if
    /// no round has been executed.
    pub fn avg_correct_messages_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.correct_messages as f64 / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new();
        assert_eq!(m.rounds, 0);
        assert_eq!(m.total_messages(), 0);
        assert_eq!(m.avg_correct_messages_per_round(), 0.0);
    }

    #[test]
    fn record_round_accumulates() {
        let mut m = Metrics::new();
        m.record_round(RoundMetrics {
            round: 1,
            correct_messages: 10,
            byzantine_messages: 2,
            deliveries: 12,
            live_correct_nodes: 4,
        });
        m.record_round(RoundMetrics {
            round: 2,
            correct_messages: 20,
            byzantine_messages: 0,
            deliveries: 20,
            live_correct_nodes: 4,
        });
        assert_eq!(m.rounds, 2);
        assert_eq!(m.correct_messages, 30);
        assert_eq!(m.byzantine_messages, 2);
        assert_eq!(m.deliveries, 32);
        assert_eq!(m.total_messages(), 32);
        assert!((m.avg_correct_messages_per_round() - 15.0).abs() < 1e-12);
        assert_eq!(m.per_round.len(), 2);
    }
}
