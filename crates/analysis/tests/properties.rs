//! Property-based tests for the analysis utilities.

use contention_analysis::stats::{ks_distance, OnlineSummary};
use contention_analysis::{exceed_fraction, fit_linear, fit_two_term, Summary, Table};
use proptest::collection::vec;
use proptest::prelude::*;

/// Folds each contiguous shard (split at the normalized, deduped cut
/// points) into its own `OnlineSummary`.
fn shard_summaries(samples: &[u64], cuts: &[usize]) -> Vec<OnlineSummary> {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (samples.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut shards = Vec::new();
    let mut prev = 0;
    for c in cuts {
        shards.push(samples[prev..c].iter().copied().collect::<OnlineSummary>());
        prev = c;
    }
    shards.push(samples[prev..].iter().copied().collect());
    shards
}

/// Merges shard summaries left-to-right or right-to-left.
fn merge_shards(parts: Vec<OnlineSummary>, fold_right: bool) -> OnlineSummary {
    if fold_right {
        let mut acc = OnlineSummary::new();
        for part in parts.into_iter().rev() {
            let mut next = part;
            next.merge(std::mem::take(&mut acc));
            acc = next;
        }
        acc
    } else {
        let mut acc = OnlineSummary::new();
        for part in parts {
            acc.merge(part);
        }
        acc
    }
}

proptest! {
    /// Summary order statistics are always ordered and within range.
    #[test]
    fn summary_invariants(samples in vec(-1e6f64..1e6, 1..300)) {
        let s = Summary::from_samples(&samples);
        prop_assert!(s.min <= s.median);
        prop_assert!(s.median <= s.p95 + 1e-9);
        prop_assert!(s.p95 <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert_eq!(s.n, samples.len());
    }

    /// Shifting a sample shifts mean/median/min/max and leaves spread alone.
    #[test]
    fn summary_shift_equivariance(samples in vec(-1e3f64..1e3, 2..100), shift in -1e3f64..1e3) {
        let a = Summary::from_samples(&samples);
        let shifted: Vec<f64> = samples.iter().map(|x| x + shift).collect();
        let b = Summary::from_samples(&shifted);
        prop_assert!((b.mean - a.mean - shift).abs() < 1e-6);
        prop_assert!((b.median - a.median - shift).abs() < 1e-6);
        prop_assert!((b.std_dev - a.std_dev).abs() < 1e-6);
    }

    /// A noiseless line is recovered exactly by the linear fit.
    #[test]
    fn fit_recovers_random_lines(a in -100f64..100.0, b in -100f64..100.0, n in 3usize..50) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
        let fit = fit_linear(&xs, &ys);
        prop_assert!((fit.coefficients[0] - a).abs() < 1e-6);
        prop_assert!((fit.coefficients[1] - b).abs() < 1e-6);
        prop_assert!(fit.r_squared > 1.0 - 1e-9);
    }

    /// A noiseless plane is recovered exactly by the two-term fit.
    #[test]
    fn fit_recovers_random_planes(a in -10f64..10.0, b in -10f64..10.0, c in -10f64..10.0) {
        let mut x1 = Vec::new();
        let mut x2 = Vec::new();
        let mut ys = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                x1.push(f64::from(i));
                x2.push(f64::from(j * j + i * j)); // break collinearity
                ys.push(a * f64::from(i) + b * f64::from(j * j + i * j) + c);
            }
        }
        let fit = fit_two_term(&x1, &x2, &ys);
        prop_assert!((fit.coefficients[0] - a).abs() < 1e-6);
        prop_assert!((fit.coefficients[1] - b).abs() < 1e-6);
        prop_assert!((fit.coefficients[2] - c).abs() < 1e-6);
    }

    /// Exceedance fraction is a survival function: monotone in the budget.
    #[test]
    fn exceed_fraction_is_monotone(samples in vec(0f64..100.0, 1..100), a in 0f64..100.0, b in 0f64..100.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(exceed_fraction(&samples, hi) <= exceed_fraction(&samples, lo));
    }

    /// A sample has KS distance zero to its own empirical CDF.
    #[test]
    fn ks_self_distance_is_zero(samples in vec(0u64..100, 1..200)) {
        let n = samples.len() as f64;
        let sorted = {
            let mut s = samples.clone();
            s.sort_unstable();
            s
        };
        let emp = move |k: u64| sorted.iter().filter(|&&x| x <= k).count() as f64 / n;
        prop_assert!(ks_distance(&samples, emp) < 1e-12);
    }

    /// `OnlineSummary::merge` is exactly associative and commutative: any
    /// contiguous shard decomposition, merged in any grouping, is
    /// *structurally identical* (moments, extrema, and histogram state) to
    /// the sequential fold. This is the property the campaign layer's
    /// thread-count-invariance contract rests on.
    #[test]
    fn online_summary_is_shard_invariant(
        samples in vec(0u64..1_000_000, 0..200),
        cuts in vec(0usize..200, 0..8),
        fold_right in any::<bool>(),
    ) {
        let expect: OnlineSummary = samples.iter().copied().collect();
        let merged = merge_shards(shard_summaries(&samples, &cuts), fold_right);
        prop_assert_eq!(merged, expect);
    }

    /// While the histogram keeps width-1 buckets (the common case for
    /// round counts), `finish()` quantiles are bit-identical to the batch
    /// `Summary::from_u64`, and the exact-integer moments agree with the
    /// floating-point batch path to rounding error.
    #[test]
    fn online_summary_matches_batch_summary_when_exact(
        samples in vec(0u64..100_000, 1..300),
    ) {
        let online: OnlineSummary = samples.iter().copied().collect();
        prop_assert!(online.is_exact());
        let o = online.finish();
        let b = Summary::from_u64(&samples);
        prop_assert_eq!(o.n, b.n);
        prop_assert_eq!(o.min, b.min);
        prop_assert_eq!(o.max, b.max);
        prop_assert_eq!(o.median, b.median);
        prop_assert_eq!(o.p95, b.p95);
        prop_assert!((o.mean - b.mean).abs() <= 1e-9 * b.mean.abs().max(1.0));
        prop_assert!((o.std_dev - b.std_dev).abs() <= 1e-6 * b.std_dev.abs().max(1.0));
    }

    /// Tables round-trip their cell contents through TSV.
    #[test]
    fn table_tsv_roundtrip(rows in vec(vec("[a-z0-9]{1,8}", 3), 1..20)) {
        let mut t = Table::new(&["x", "y", "z"]);
        for row in &rows {
            let cells: Vec<&str> = row.iter().map(String::as_str).collect();
            t.row(&cells);
        }
        let tsv = t.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        prop_assert_eq!(lines.len(), rows.len() + 1);
        for (line, row) in lines[1..].iter().zip(&rows) {
            let cells: Vec<&str> = line.split('\t').collect();
            let expect: Vec<&str> = row.iter().map(String::as_str).collect();
            prop_assert_eq!(cells, expect);
        }
    }
}

proptest! {
    // Each case pushes thousands of distinct values to force the bucket
    // cap; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shard invariance survives histogram collapse: with more distinct
    /// values than the bucket cap, the bucket width must still converge to
    /// the same canonical state whether samples arrive sequentially or via
    /// shard merges.
    #[test]
    fn online_summary_shard_invariance_survives_collapse(
        stride in 1u64..1_000,
        n in 4_100usize..5_000,
        cuts in vec(0usize..5_000, 1..4),
        fold_right in any::<bool>(),
    ) {
        let samples: Vec<u64> = (0..n as u64).map(|i| i * stride).collect();
        let expect: OnlineSummary = samples.iter().copied().collect();
        prop_assert!(!expect.is_exact(), "cap must have been exceeded");
        let merged = merge_shards(shard_summaries(&samples, &cuts), fold_right);
        prop_assert_eq!(merged, expect);
    }
}
