//! Order statistics for the benchmark's timing samples.

/// Fewest samples that must lie beyond a reported tail percentile. A p95 over
/// 100 samples is decided by five of them; below ten the number is noise.
pub const MIN_BEYOND: usize = 10;

/// A percentile the sample cannot support.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    /// Samples in the set.
    pub samples: usize,
    /// Samples that would lie beyond the requested percentile.
    pub beyond: usize,
}

/// Median of an unsorted sample (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty sample: every caller measures at least one iteration.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`0 < p < 1`) of an ascending-sorted sample.
/// Refuses a tail percentile with fewer than [`MIN_BEYOND`] samples beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let rank = ((sorted.len() as f64 * p).ceil() as usize).max(1);
    let beyond = sorted.len().saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples {
            samples: sorted.len(),
            beyond,
        });
    }
    Ok(sorted[rank - 1])
}

/// Nearest-rank percentile of an ascending `(value, weight)` histogram of
/// simulated rounds. These values repeat exactly under the seed, so a small
/// sample adds no noise and nothing is refused; an empty histogram reads 0.
pub fn weighted_percentile(histogram: &[(u64, u64)], p: f64) -> u64 {
    let total: u64 = histogram.iter().map(|&(_, weight)| weight).sum();
    let rank = ((total as f64 * p).ceil() as u64).max(1);
    let mut seen = 0;
    for &(value, weight) in histogram {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let sample: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.95), Ok(190.0));
        assert_eq!(percentile(&sample, 0.50), Ok(100.0));
        // 199 samples leave only nine beyond the 95th percentile.
        assert_eq!(
            percentile(&sample[..199], 0.95),
            Err(TooFewSamples {
                samples: 199,
                beyond: 9
            })
        );
        assert!(percentile(&sample[..12], 0.50).is_err());
        assert!(percentile(&[], 0.50).is_err());
    }

    #[test]
    fn weighted_percentile_walks_the_histogram() {
        let histogram = [(4, 90), (9, 9), (30, 1)];
        assert_eq!(weighted_percentile(&histogram, 0.50), 4);
        assert_eq!(weighted_percentile(&histogram, 0.99), 9);
        assert_eq!(weighted_percentile(&histogram, 0.995), 30);
        assert_eq!(weighted_percentile(&[], 0.5), 0);
    }
}
