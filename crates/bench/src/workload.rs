//! Deterministic workload generators.
//!
//! Every experiment and benchmark draws its inputs from here, so that (a) two
//! experiments stressing the same claim use the same input distributions and (b) a
//! table can be regenerated exactly from its seed. All generators are pure functions
//! of their parameters and a seed.

use rand::seq::SliceRandom;
use rand::Rng;

use uba_simnet::rng::{derive_seed, seeded_rng};
use uba_simnet::{ChurnEvent, ChurnSchedule, IdSpace, NodeId};

/// Binary consensus inputs: `n` opinions of which a `ones_fraction` share are 1, the
/// rest 0, in a seed-determined order.
pub fn binary_inputs(n: usize, ones_fraction: f64, seed: u64) -> Vec<u64> {
    assert!(
        (0.0..=1.0).contains(&ones_fraction),
        "fraction must be a probability"
    );
    let ones = (n as f64 * ones_fraction).round() as usize;
    let mut inputs: Vec<u64> = (0..n).map(|i| u64::from(i < ones)).collect();
    inputs.shuffle(&mut seeded_rng(derive_seed(seed, 0xB1)));
    inputs
}

/// Real-valued inputs drawn uniformly from `[lo, hi]`.
pub fn uniform_reals(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    assert!(hi >= lo, "range must be non-empty");
    let mut rng = seeded_rng(derive_seed(seed, 0xA1));
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// Real-valued inputs clustered around `center` with a few far outliers — the
/// sensor-fusion shape: most readings agree, a handful are wildly off.
pub fn clustered_with_outliers(
    n: usize,
    center: f64,
    spread: f64,
    outliers: usize,
    seed: u64,
) -> Vec<f64> {
    assert!(outliers <= n, "cannot have more outliers than values");
    let mut rng = seeded_rng(derive_seed(seed, 0xC1));
    let mut values: Vec<f64> = (0..n - outliers)
        .map(|_| center + rng.gen_range(-spread..=spread))
        .collect();
    for _ in 0..outliers {
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        values.push(center + sign * spread * rng.gen_range(50.0..100.0));
    }
    values.shuffle(&mut rng);
    values
}

/// A join/leave schedule for dynamic approximate agreement: every `period` rounds
/// one node joins with a value drawn from `[lo, hi]` and (when the correct
/// population allows it) one of the original nodes leaves, keeping the system size
/// roughly constant. Returns the schedule and the joiners' starting values in join
/// order (what [`IteratedApproxFactory::joiners`] takes).
///
/// [`IteratedApproxFactory::joiners`]: uba_core::sim::IteratedApproxFactory::joiners
pub fn rolling_churn_plan(
    initial_ids: &[NodeId],
    rounds: u64,
    period: u64,
    lo: f64,
    hi: f64,
    seed: u64,
) -> (ChurnSchedule, Vec<(NodeId, f64)>) {
    assert!(period > 0, "churn period must be positive");
    let mut rng = seeded_rng(derive_seed(seed, 0xD1));
    let mut schedule = ChurnSchedule::empty();
    let mut joiners = Vec::new();
    let mut leavers: Vec<NodeId> = initial_ids.to_vec();
    leavers.shuffle(&mut rng);
    let mut next_fresh_id = initial_ids.iter().map(|id| id.raw()).max().unwrap_or(0) + 1_000;
    for round in (period..=rounds).step_by(period as usize) {
        let joiner = NodeId::new(next_fresh_id);
        schedule.push(round, ChurnEvent::JoinCorrect(joiner));
        joiners.push((joiner, rng.gen_range(lo..=hi)));
        next_fresh_id += 17;
        // Only let an original node leave once a replacement has already joined, so
        // the correct population never dips below its starting size.
        if joiners.len() > 1 {
            if let Some(leaver) = leavers.pop() {
                schedule.push(round, ChurnEvent::LeaveCorrect(leaver));
            }
        }
    }
    (schedule, joiners)
}

/// Sparse identifiers plus per-node event payloads for the total-ordering workload:
/// every correct node witnesses one unique event per round.
pub fn event_payloads(ids: &[NodeId], rounds: u64) -> Vec<Vec<u64>> {
    ids.iter()
        .enumerate()
        .map(|(node_index, _)| {
            (0..rounds)
                .map(|round| (node_index as u64) << 32 | round)
                .collect()
        })
        .collect()
}

/// One synthetic client request in an open-loop stream workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamRequest {
    /// The round in which the request arrives at the system (1-based).
    pub arrival_round: u64,
    /// The key the request touches (Zipf-skewed; key 0 is the hottest).
    pub key: u64,
}

/// Open-loop client-request stream: arrivals are scheduled by `rate` (requests
/// per round, fractional rates supported) independently of how fast the system
/// decides — the open-loop discipline — and keys are drawn Zipf(`zipf_s`) from
/// `0..key_space`, the standard skewed-popularity shape (a few hot keys take
/// most of the traffic). Pure function of its parameters and the seed.
pub fn open_loop_requests(
    rounds: u64,
    rate: f64,
    zipf_s: f64,
    key_space: usize,
    seed: u64,
) -> Vec<StreamRequest> {
    assert!(rate >= 0.0, "arrival rate must be non-negative");
    assert!(key_space > 0, "key space must be non-empty");
    // Zipf inverse-CDF table: cumulative weights of 1 / rank^s.
    let mut cumulative = Vec::with_capacity(key_space);
    let mut total = 0.0;
    for rank in 1..=key_space {
        total += 1.0 / (rank as f64).powf(zipf_s);
        cumulative.push(total);
    }
    let mut rng = seeded_rng(derive_seed(seed, 0x5E));
    let mut requests = Vec::new();
    let mut scheduled = 0u64;
    for round in 1..=rounds {
        // Deterministic open-loop pacing: by the end of round r exactly
        // floor(r * rate) requests have arrived, so fractional rates spread
        // evenly instead of rounding per round.
        let due = (round as f64 * rate).floor() as u64;
        for _ in scheduled..due {
            let u = rng.gen_range(0.0..total);
            let key = cumulative.partition_point(|&c| c <= u) as u64;
            requests.push(StreamRequest {
                arrival_round: round,
                key,
            });
        }
        scheduled = due;
    }
    requests
}

/// Generates the standard `(correct, byzantine)` identifier split used across the
/// experiment suite.
pub fn split_ids(correct: usize, byzantine: usize, seed: u64) -> (Vec<NodeId>, Vec<NodeId>) {
    let ids = IdSpace::default().generate(correct + byzantine, seed);
    let (c, b) = ids.split_at(correct);
    (c.to_vec(), b.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_inputs_respect_the_fraction_and_seed() {
        let inputs = binary_inputs(10, 0.3, 5);
        assert_eq!(inputs.len(), 10);
        assert_eq!(inputs.iter().sum::<u64>(), 3);
        assert_eq!(inputs, binary_inputs(10, 0.3, 5), "same seed, same order");
        assert_ne!(
            binary_inputs(10, 0.3, 6),
            inputs,
            "different seed shuffles differently"
        );
        assert_eq!(binary_inputs(4, 0.0, 1).iter().sum::<u64>(), 0);
        assert_eq!(binary_inputs(4, 1.0, 1).iter().sum::<u64>(), 4);
    }

    #[test]
    fn uniform_reals_stay_in_range_and_are_deterministic() {
        let values = uniform_reals(50, -3.0, 7.0, 11);
        assert_eq!(values.len(), 50);
        assert!(values.iter().all(|&v| (-3.0..=7.0).contains(&v)));
        assert_eq!(values, uniform_reals(50, -3.0, 7.0, 11));
    }

    #[test]
    fn clustered_values_contain_the_requested_outliers() {
        let values = clustered_with_outliers(20, 100.0, 1.0, 3, 13);
        assert_eq!(values.len(), 20);
        let far = values.iter().filter(|&&v| (v - 100.0).abs() > 10.0).count();
        assert_eq!(far, 3, "exactly the outliers are far from the cluster");
    }

    #[test]
    #[should_panic(expected = "more outliers")]
    fn clustered_rejects_too_many_outliers() {
        let _ = clustered_with_outliers(2, 0.0, 1.0, 3, 1);
    }

    #[test]
    fn rolling_churn_plan_alternates_joins_and_leaves() {
        let ids = IdSpace::default().generate(6, 3);
        let (schedule, joiners) = rolling_churn_plan(&ids, 20, 5, 0.0, 10.0, 7);
        let rounds_of = |wanted: fn(&ChurnEvent) -> bool| -> Vec<u64> {
            schedule
                .events()
                .iter()
                .filter(|(_, event)| wanted(event))
                .map(|&(round, _)| round)
                .collect()
        };
        let joins = rounds_of(|event| matches!(event, ChurnEvent::JoinCorrect(_)));
        assert_eq!(
            joins,
            [5, 10, 15, 20],
            "one join every 5 rounds for 20 rounds"
        );
        assert_eq!(joiners.len(), 4, "one starting value per join");
        let leaves = rounds_of(|event| matches!(event, ChurnEvent::LeaveCorrect(_)));
        assert_eq!(leaves, [10, 15, 20], "leaves lag joins by one period");
        // Fresh identifiers never collide with the initial ones.
        assert!(joiners.iter().all(|(id, _)| !ids.contains(id)));
        assert!(joiners
            .iter()
            .all(|&(_, value)| (0.0..=10.0).contains(&value)));
        // Deterministic in the seed.
        assert_eq!(
            (schedule, joiners),
            rolling_churn_plan(&ids, 20, 5, 0.0, 10.0, 7)
        );
    }

    #[test]
    fn event_payloads_are_unique_across_nodes_and_rounds() {
        let ids = IdSpace::default().generate(4, 9);
        let events = event_payloads(&ids, 6);
        let mut all: Vec<u64> = events.iter().flatten().copied().collect();
        assert_eq!(all.len(), 24);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 24, "every (node, round) event is unique");
    }

    #[test]
    fn open_loop_requests_pace_and_skew_deterministically() {
        let requests = open_loop_requests(100, 7.5, 1.1, 64, 33);
        assert_eq!(requests.len(), 750, "open-loop: floor(rounds * rate)");
        assert_eq!(requests, open_loop_requests(100, 7.5, 1.1, 64, 33));
        assert!(requests
            .iter()
            .all(|r| (1..=100).contains(&r.arrival_round)));
        assert!(requests.iter().all(|r| r.key < 64));
        // Zipf skew: the hottest key beats the coldest decile combined.
        let hot = requests.iter().filter(|r| r.key == 0).count();
        let cold = requests.iter().filter(|r| r.key >= 58).count();
        assert!(hot > cold, "hot key {hot} vs cold tail {cold}");
        // Fractional pacing never bunches: at most ceil(rate) arrivals per round.
        for round in 1..=100u64 {
            let in_round = requests.iter().filter(|r| r.arrival_round == round).count();
            assert!(in_round <= 8, "round {round} got {in_round} arrivals");
        }
    }

    #[test]
    fn split_ids_produces_disjoint_groups() {
        let (correct, byzantine) = split_ids(7, 2, 21);
        assert_eq!(correct.len(), 7);
        assert_eq!(byzantine.len(), 2);
        assert!(correct.iter().all(|id| !byzantine.contains(id)));
    }
}
