//! Summary statistics for experiment results.
//!
//! The Monte-Carlo sweeps in `uba-bench` repeat every scenario over many seeds and
//! need to report the distribution of rounds, messages and violation rates — not just
//! a single run. This module provides the small, dependency-free statistics toolkit
//! those sweeps use: [`Summary`] (mean / standard deviation / quantiles of a sample),
//! [`Histogram`] (fixed-width bins for convergence plots) and [`RateEstimate`]
//! (a proportion with a normal-approximation confidence interval, used for the
//! empirical disagreement probabilities of experiment E7).
//!
//! Everything here is deterministic and uses plain `f64` arithmetic; the statistics
//! describe *measurements*, never protocol state (protocol thresholds stay in exact
//! integer arithmetic, see `uba-core::quorum`).

use serde::{Deserialize, Serialize};

/// Five-number-style summary of a sample of measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (0.0 for an empty sample).
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0.0 for fewer than two points).
    pub std_dev: f64,
    /// Smallest observation (0.0 for an empty sample).
    pub min: f64,
    /// Largest observation (0.0 for an empty sample).
    pub max: f64,
    /// Median (linear interpolation between the two middle points for even counts).
    pub median: f64,
    /// 95th percentile (nearest-rank with linear interpolation).
    pub p95: f64,
}

impl Summary {
    /// Summarises a sample. The input does not need to be sorted.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let variance = if count > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("statistics inputs must not be NaN"));
        Summary {
            count,
            mean,
            std_dev: variance.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: quantile_sorted(&sorted, 0.5),
            p95: quantile_sorted(&sorted, 0.95),
        }
    }

    /// Summarises a sample of integer measurements (round counts, message counts).
    pub fn of_u64(samples: &[u64]) -> Summary {
        let as_f64: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        Summary::of(&as_f64)
    }

    /// The half-width of a 95% normal-approximation confidence interval on the mean.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        1.96 * self.std_dev / (self.count as f64).sqrt()
    }

    /// Renders the summary as `mean ± ci (min..max)` with the given precision.
    pub fn display(&self, decimals: usize) -> String {
        format!(
            "{:.prec$} ± {:.prec$} ({:.prec$}..{:.prec$})",
            self.mean,
            self.ci95_half_width(),
            self.min,
            self.max,
            prec = decimals
        )
    }
}

/// Linear-interpolation quantile (`0 ≤ q ≤ 1`) of an already sorted sample;
/// 0.0 for an empty one.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q));
    if sorted.len() <= 1 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    let fraction = rank - low as f64;
    sorted[low] + (sorted[high] - sorted[low]) * fraction
}

/// A fixed-width histogram over a closed range, used for convergence and latency
/// distributions in the experiment reports.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    /// Observations below `lo`.
    pub underflow: u64,
    /// Observations above `hi`.
    pub overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equally sized bins spanning `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "a histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        if value < self.lo {
            self.underflow += 1;
        } else if value > self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let index = (((value - self.lo) / width) as usize).min(self.bins.len() - 1);
            self.bins[index] += 1;
        }
    }

    /// Records every observation in a slice.
    pub fn record_all(&mut self, values: &[f64]) {
        for &v in values {
            self.record(v);
        }
    }

    /// The bin counts, lowest bin first.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Total observations recorded, including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// `(bin lower bound, bin upper bound, count)` triples, lowest bin first.
    pub fn edges(&self) -> Vec<(f64, f64, u64)> {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                (
                    self.lo + i as f64 * width,
                    self.lo + (i + 1) as f64 * width,
                    count,
                )
            })
            .collect()
    }
}

/// An empirical proportion (e.g. the observed disagreement rate of experiment E7)
/// with a normal-approximation 95% confidence interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RateEstimate {
    /// Number of trials in which the event occurred.
    pub successes: u64,
    /// Total number of trials.
    pub trials: u64,
}

impl RateEstimate {
    /// Creates an estimate from raw counts.
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(
            successes <= trials,
            "cannot observe more successes than trials"
        );
        RateEstimate { successes, trials }
    }

    /// The observed proportion (0.0 for zero trials).
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Half-width of the 95% normal-approximation (Wald) confidence interval.
    pub fn ci95_half_width(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        let p = self.rate();
        1.96 * (p * (1.0 - p) / self.trials as f64).sqrt()
    }

    /// Merges another estimate into this one (same event, more trials).
    pub fn merge(&mut self, other: RateEstimate) {
        self.successes += other.successes;
        self.trials += other.trials;
    }

    /// Renders as `rate (successes/trials)`.
    pub fn display(&self) -> String {
        format!("{:.3} ({}/{})", self.rate(), self.successes, self.trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_sample_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample (Bessel-corrected) standard deviation of this classic example.
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn summary_of_single_point_has_zero_spread() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 3.5);
        assert_eq!(s.p95, 3.5);
    }

    #[test]
    fn summary_of_u64_converts() {
        let s = Summary::of_u64(&[1, 2, 3, 4, 5]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn quantiles_interpolate_linearly() {
        let sorted = [0.0, 10.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 10.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile_sorted(&[], 0.99), 0.0);
        let s = Summary::of(&[
            0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0,
        ]);
        assert!((s.p95 - 95.0).abs() < 1e-9);
    }

    #[test]
    fn display_renders_mean_and_interval() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        let text = s.display(2);
        assert!(text.starts_with("2.00 ± "));
        assert!(text.ends_with("(1.00..3.00)"));
    }

    #[test]
    fn histogram_counts_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record_all(&[0.0, 1.0, 2.5, 9.99, 10.0, -1.0, 42.0]);
        assert_eq!(h.total(), 7);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.bins(), &[2, 1, 0, 0, 2]);
        let edges = h.edges();
        assert_eq!(edges.len(), 5);
        assert_eq!(edges[0], (0.0, 2.0, 2));
        assert_eq!(edges[4], (8.0, 10.0, 2));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "range must be non-empty")]
    fn histogram_rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn rate_estimate_reports_rate_and_interval() {
        let mut rate = RateEstimate::new(3, 10);
        assert!((rate.rate() - 0.3).abs() < 1e-12);
        assert!(rate.ci95_half_width() > 0.0);
        rate.merge(RateEstimate::new(7, 10));
        assert_eq!(rate.successes, 10);
        assert_eq!(rate.trials, 20);
        assert!((rate.rate() - 0.5).abs() < 1e-12);
        assert_eq!(RateEstimate::default().rate(), 0.0);
        assert_eq!(RateEstimate::default().ci95_half_width(), 0.0);
        assert_eq!(rate.display(), "0.500 (10/20)");
    }

    #[test]
    #[should_panic(expected = "more successes than trials")]
    fn rate_estimate_rejects_inconsistent_counts() {
        let _ = RateEstimate::new(5, 4);
    }
}
