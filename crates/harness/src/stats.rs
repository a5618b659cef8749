//! The one sample summary behind every experiment cell.
//!
//! [`Samples`] is a [`PowHistogram`] at a 4096-bucket cap wrapped as a
//! campaign [`Aggregate`]: the same bucket scheme as the telemetry
//! histograms, at a cap large enough that round-count cells keep width-1
//! buckets and therefore exact quantiles.

use mac_sim::campaign::Aggregate;
use mac_sim::PowHistogram;

/// Distinct-bucket cap of a [`Samples`] histogram. Cells with at most this
/// many distinct values keep width-1 buckets, i.e. exact quantiles.
const SAMPLES_BUCKET_CAP: usize = 4096;

/// A cell's seeded samples (round counts, survivors, transmissions) as a
/// campaign [`Aggregate`]. Memory per cell is bounded by the bucket cap,
/// not the trial count, and the merge is exactly associative and
/// commutative, so shard splits never change the result.
///
/// The mean is the exact integer sum over `n`; [`Samples::percentile`]
/// interpolates over order statistics, reading bucket floors for sample
/// values, which are the sample values themselves while the cell has at
/// most 4096 distinct values.
///
/// ```
/// use contention_harness::Samples;
///
/// let mut a: Samples = [1u64, 2, 3].into_iter().collect();
/// let b: Samples = [4u64, 100].into_iter().collect();
/// mac_sim::campaign::Aggregate::merge(&mut a, b);
/// assert_eq!(a.count(), 5);
/// assert_eq!(a.percentile(50.0), 3.0);
/// assert_eq!(a.max(), 100);
/// assert_eq!(a.mean(), 22.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Samples(PowHistogram<SAMPLES_BUCKET_CAP>);

impl Samples {
    /// Folds one sample in.
    pub fn push(&mut self, sample: u64) {
        self.0.record(sample);
    }

    /// Number of samples folded in.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Exact mean: the integer sum over the count.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.assert_nonempty();
        self.0.mean()
    }

    /// Smallest sample.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    #[must_use]
    pub fn min(&self) -> u64 {
        self.assert_nonempty();
        self.0.min()
    }

    /// Largest sample.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.assert_nonempty();
        self.0.max()
    }

    /// The `pct`-th percentile (0 ≤ `pct` ≤ 100): rank `pct/100·(n−1)`,
    /// linearly interpolated between the two neighbouring order
    /// statistics, with bucket floors standing in for sample values.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn percentile(&self, pct: f64) -> f64 {
        self.assert_nonempty();
        let (n, shift) = (self.0.count(), self.0.shift());
        if n == 1 {
            return (self.0.min() >> shift << shift) as f64;
        }
        let rank = pct / 100.0 * (n - 1) as f64;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let lo = rank.floor() as u64;
        let hi = lo + u64::from(rank.fract() > 0.0);
        let frac = rank - lo as f64;
        let (mut lo_val, mut hi_val) = (None, None);
        let mut cumulative = 0u64;
        for (bucket, count) in self.0.buckets() {
            let value = (bucket << shift) as f64;
            cumulative += count;
            if lo_val.is_none() && cumulative > lo {
                lo_val = Some(value);
            }
            if cumulative > hi {
                hi_val = Some(value);
                break;
            }
        }
        let lo_val = lo_val.expect("rank below sample count");
        let hi_val = hi_val.unwrap_or(self.0.max() as f64);
        lo_val * (1.0 - frac) + hi_val * frac
    }

    fn assert_nonempty(&self) {
        assert!(self.0.count() > 0, "cannot summarize an empty sample");
    }
}

impl Aggregate for Samples {
    fn merge(&mut self, other: Self) {
        self.0.merge(&other.0);
    }
}

impl FromIterator<u64> for Samples {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut samples = Samples::default();
        for x in iter {
            samples.push(x);
        }
        samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The batch reference: the percentile of a sorted sample, linearly
    /// interpolated between order statistics.
    #[allow(clippy::cast_precision_loss)]
    fn sorted_percentile(sorted: &[u64], pct: f64) -> f64 {
        if sorted.len() == 1 {
            return sorted[0] as f64;
        }
        let rank = pct / 100.0 * (sorted.len() - 1) as f64;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        let frac = rank - lo as f64;
        sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
    }

    #[test]
    #[allow(clippy::cast_precision_loss)]
    fn online_matches_batch_bit_for_bit_while_exact() {
        // Quantiles, min, max, and mean must be *bit-identical* to a
        // sorted-vector summary while the histogram is at width 1.
        let samples: Vec<u64> = (0..500).map(|i| (i * i * 2654435761u64) % 1000).collect();
        let online: Samples = samples.iter().copied().collect();
        assert_eq!(online.0.shift(), 0);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64;
        assert_eq!(online.count(), samples.len() as u64);
        assert_eq!(online.mean().to_bits(), mean.to_bits());
        assert_eq!(online.min(), sorted[0]);
        assert_eq!(online.max(), sorted[sorted.len() - 1]);
        for pct in [0.0, 50.0, 95.0, 99.9, 100.0] {
            assert_eq!(
                online.percentile(pct).to_bits(),
                sorted_percentile(&sorted, pct).to_bits(),
                "p{pct}"
            );
        }
    }

    #[test]
    fn basic_summary() {
        let s: Samples = [2u64, 4, 4, 4, 5, 5, 7, 9].into_iter().collect();
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.min(), 2);
        assert_eq!(s.max(), 9);
        // Rank 3.5 falls between the order statistics 4 and 5.
        assert_eq!(s.percentile(50.0), 4.5);
    }

    #[test]
    fn percentiles_interpolate() {
        let s: Samples = (0..=100u64).collect();
        assert_eq!(s.percentile(95.0), 95.0);
        assert_eq!(s.percentile(50.0), 50.0);
        let pair: Samples = [0u64, 10].into_iter().collect();
        assert_eq!(pair.percentile(25.0), 2.5);
        assert_eq!(pair.percentile(100.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        let _ = Samples::default().percentile(50.0);
    }

    #[test]
    fn online_merge_is_order_independent() {
        let samples: Vec<u64> = (0..1000).map(|i| i * 37 % 541).collect();
        let whole: Samples = samples.iter().copied().collect();
        // Arbitrary split, merged in the reverse grouping.
        let (a, b) = samples.split_at(123);
        let (b1, b2) = b.split_at(400);
        let mut right: Samples = b2.iter().copied().collect();
        let mid: Samples = b1.iter().copied().collect();
        let left: Samples = a.iter().copied().collect();
        right.merge(mid);
        let mut acc = left;
        acc.merge(right);
        assert_eq!(acc, whole);
    }

    #[test]
    #[allow(clippy::cast_precision_loss)]
    fn online_collapses_past_the_bucket_cap_canonically() {
        // More distinct values than the cap forces width doubling; the
        // final state must not depend on insertion order.
        let n = (SAMPLES_BUCKET_CAP * 3) as u64;
        let ascending: Samples = (0..n).collect();
        let descending: Samples = (0..n).rev().collect();
        assert_eq!(ascending, descending);
        assert!(ascending.0.shift() > 0);
        assert_eq!(ascending.min(), 0);
        assert_eq!(ascending.max(), n - 1);
        // Bucketed quantiles stay within a bucket width of the truth.
        let width = (SAMPLES_BUCKET_CAP as f64).recip() * n as f64 * 2.0;
        assert!((ascending.percentile(50.0) - (n - 1) as f64 / 2.0).abs() <= width);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn online_empty_finish_panics() {
        let _ = Samples::default().mean();
    }

    #[test]
    fn online_single_sample() {
        let mut o = Samples::default();
        o.push(42);
        assert_eq!(o.count(), 1);
        assert_eq!(o.mean(), 42.0);
        assert_eq!(o.percentile(50.0), 42.0);
        assert_eq!(o.percentile(95.0), 42.0);
    }
}
