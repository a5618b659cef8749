//! Goodness of fit for round-count distributions.
//!
//! Cell summaries (mean, percentiles, extremes) live with the experiment
//! harness as `contention_harness::Samples`; this module keeps the
//! whole-sample test the experiments run against a predicted law.

/// The Kolmogorov–Smirnov distance between an integer-valued sample and a
/// reference CDF: `max_k |F_empirical(k) − F(k)|` over `k` from 0 to the
/// sample maximum. Both functions are right-continuous step functions with
/// knots at integers, so the maximum over integers is the exact supremum.
///
/// Used by the experiments to quantify how closely a measured round-count
/// distribution matches its predicted law (e.g. the geometric renaming race
/// of Lemma 2). `cdf(k)` must return `P[X ≤ k]`.
///
/// ```
/// use contention_analysis::stats::ks_distance;
///
/// // A fair die sample against the die CDF.
/// let samples: Vec<u64> = (0..600).map(|i| i % 6 + 1).collect();
/// let d = ks_distance(&samples, |k| (k.min(6) as f64) / 6.0);
/// assert!(d < 1e-9, "{d}");
/// ```
///
/// # Panics
///
/// Panics if `samples` is empty.
#[must_use]
pub fn ks_distance(samples: &[u64], cdf: impl Fn(u64) -> f64) -> f64 {
    assert!(
        !samples.is_empty(),
        "cannot compute KS distance of an empty sample"
    );
    let n = samples.len() as f64;
    let max = *samples.iter().max().expect("nonempty");
    // Counts per value up to the max.
    let mut counts = vec![0u64; (max + 1) as usize];
    for &s in samples {
        counts[s as usize] += 1;
    }
    let mut cumulative = 0u64;
    let mut sup: f64 = 0.0;
    for k in 0..=max {
        cumulative += counts[k as usize];
        let emp = cumulative as f64 / n;
        sup = sup.max((emp - cdf(k)).abs());
    }
    sup
}

#[cfg(test)]
mod ks_tests {
    use super::*;

    #[test]
    fn geometric_sample_matches_geometric_cdf() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let p = 0.25f64;
        let mut rng = SmallRng::seed_from_u64(7);
        let samples: Vec<u64> = (0..20_000)
            .map(|_| {
                let mut k = 1u64;
                while !rng.gen_bool(p) {
                    k += 1;
                }
                k
            })
            .collect();
        let cdf = |k: u64| 1.0 - (1.0 - p).powi(k as i32);
        let d = ks_distance(&samples, cdf);
        assert!(d < 0.02, "geometric sample should fit its own CDF: {d}");
        // And clearly NOT fit a different rate.
        let wrong = |k: u64| 1.0 - 0.2f64.powi(k as i32);
        assert!(ks_distance(&samples, wrong) > 0.2);
    }

    #[test]
    fn point_mass_against_uniform_die() {
        // All samples at 3 vs a fair 6-sided die: sup at k = 3.
        let d = ks_distance(&[3; 10], |k| (k.min(6) as f64) / 6.0);
        assert!((d - 0.5).abs() < 1e-12, "{d}");
    }

    #[test]
    fn zero_valued_samples_are_handled() {
        let d = ks_distance(&[0, 0, 1, 1], |k| if k == 0 { 0.5 } else { 1.0 });
        assert!(d < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        let _ = ks_distance(&[], |_| 0.0);
    }
}
