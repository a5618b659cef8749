//! Property-based tests for the experiment cells' sample summary.

use contention_harness::Samples;
use mac_sim::campaign::Aggregate;
use proptest::collection::vec;
use proptest::prelude::*;

/// Folds each contiguous shard (split at the normalized, deduped cut
/// points) into its own `Samples`.
fn shard_summaries(samples: &[u64], cuts: &[usize]) -> Vec<Samples> {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (samples.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut shards = Vec::new();
    let mut prev = 0;
    for c in cuts {
        shards.push(samples[prev..c].iter().copied().collect::<Samples>());
        prev = c;
    }
    shards.push(samples[prev..].iter().copied().collect());
    shards
}

/// Merges shard summaries left-to-right or right-to-left.
fn merge_shards(parts: Vec<Samples>, fold_right: bool) -> Samples {
    if fold_right {
        let mut acc = Samples::default();
        for part in parts.into_iter().rev() {
            let mut next = part;
            next.merge(std::mem::take(&mut acc));
            acc = next;
        }
        acc
    } else {
        let mut acc = Samples::default();
        for part in parts {
            acc.merge(part);
        }
        acc
    }
}

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

proptest! {
    /// `Samples::merge` is exactly associative and commutative: any
    /// contiguous shard decomposition, merged in any grouping, is
    /// *structurally identical* (sum, extrema, and histogram state) to
    /// the sequential fold. This is the property the campaign layer's
    /// thread-count-invariance contract rests on.
    #[test]
    fn online_summary_is_shard_invariant(
        samples in vec(0u64..1_000_000, 0..200),
        cuts in vec(0usize..200, 0..8),
        fold_right in any::<bool>(),
    ) {
        let expect: Samples = samples.iter().copied().collect();
        let merged = merge_shards(shard_summaries(&samples, &cuts), fold_right);
        prop_assert_eq!(merged, expect);
    }

    /// With at most 300 distinct values the histogram keeps width-1
    /// buckets, so quantiles are bit-identical to the sorted-vector
    /// reference and the exact-sum mean agrees with the floating-point
    /// one to rounding error.
    #[test]
    fn online_summary_matches_batch_summary_when_exact(
        samples in vec(0u64..100_000, 1..300),
    ) {
        let online: Samples = samples.iter().copied().collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / samples.len() as f64;
        prop_assert_eq!(online.count(), samples.len() as u64);
        prop_assert_eq!(online.min(), sorted[0]);
        prop_assert_eq!(online.max(), sorted[sorted.len() - 1]);
        prop_assert_eq!(online.percentile(50.0), sorted_percentile(&sorted, 50.0));
        prop_assert_eq!(online.percentile(95.0), sorted_percentile(&sorted, 95.0));
        prop_assert!((online.mean() - mean).abs() <= 1e-9 * mean.abs().max(1.0));
    }
}

proptest! {
    // Each case pushes thousands of distinct values to force the bucket
    // cap; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shard invariance survives histogram collapse: with more distinct
    /// values than the 4096-bucket cap (every case has at least 4100),
    /// the bucket width must still converge to the same canonical state
    /// whether samples arrive sequentially or via shard merges.
    #[test]
    fn online_summary_shard_invariance_survives_collapse(
        stride in 1u64..1_000,
        n in 4_100usize..5_000,
        cuts in vec(0usize..5_000, 1..4),
        fold_right in any::<bool>(),
    ) {
        let samples: Vec<u64> = (0..n as u64).map(|i| i * stride).collect();
        let expect: Samples = samples.iter().copied().collect();
        let merged = merge_shards(shard_summaries(&samples, &cuts), fold_right);
        prop_assert_eq!(merged, expect);
    }
}
