//! Empirical tails for with-high-probability claims.
//!
//! The paper's guarantees are of the form "within `T` rounds with
//! probability `≥ 1 − n^{-c}`". Empirically we can only estimate the tail
//! from finitely many trials, so the experiments report the *exceedance
//! fraction* against a budget and check it is consistent with a w.h.p.
//! bound (usually: zero exceedances at the chosen trial counts).

/// The fraction of `samples` strictly exceeding `budget`.
///
/// ```
/// use contention_analysis::exceed_fraction;
///
/// let samples = [1.0, 2.0, 3.0, 10.0];
/// assert_eq!(exceed_fraction(&samples, 3.0), 0.25);
/// assert_eq!(exceed_fraction(&samples, 10.0), 0.0);
/// ```
///
/// # Panics
///
/// Panics if `samples` is empty.
#[must_use]
pub fn exceed_fraction(samples: &[f64], budget: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let over = samples.iter().filter(|&&s| s > budget).count();
    over as f64 / samples.len() as f64
}

/// The one-sided 95% upper confidence bound on the true exceedance
/// probability when `k` of `n` trials exceeded: the exact Clopper–Pearson
/// bound, i.e. the `p` at which at most `k` exceedances in `n` trials has
/// probability 5% (`P[Bin(n, p) ≤ k] = 0.05`), found by bisection on the
/// binomial CDF.
///
/// For `k = 0` this is `1 − 0.05^{1/n}`, which the rule of three
/// approximates by `3/n`; for `k = n` it is 1.
///
/// ```
/// use contention_analysis::tail::exceedance_upper_bound;
///
/// // No exceedance in 100 trials: the true rate is below 2.95% at 95%.
/// assert!((exceedance_upper_bound(0, 100) - 0.0295).abs() < 5e-5);
/// // Five in 100: below 10.23%, well above the point estimate of 5%.
/// assert!((exceedance_upper_bound(5, 100) - 0.1023).abs() < 5e-5);
/// ```
///
/// # Panics
///
/// Panics if `n == 0` or `k > n`.
#[must_use]
pub fn exceedance_upper_bound(k: usize, n: usize) -> f64 {
    const ALPHA: f64 = 0.05;
    assert!(n > 0, "no trials");
    assert!(k <= n, "more exceedances than trials");
    if k == n {
        return 1.0;
    }
    // The CDF falls strictly from 1 at p = 0 to 0 at p = 1, and is above
    // ALPHA at the point estimate k/n, so the crossing is in [k/n, 1).
    // Sixty-four halvings reach the resolution of an f64; returning the
    // upper end keeps the bound conservative.
    let (mut lo, mut hi) = (k as f64 / n as f64, 1.0);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if binomial_cdf(k, n, mid) > ALPHA {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// `P[Bin(n, p) ≤ k]` for `0 ≤ p < 1`, summed in log space so `(1 − p)^n`
/// cannot underflow at large `n`.
fn binomial_cdf(k: usize, n: usize, p: f64) -> f64 {
    let (ln_p, ln_q) = (p.ln(), (-p).ln_1p());
    // ln P[X = 0], then each next term by the ratio C(n, i+1)/C(n, i).
    let mut ln_term = n as f64 * ln_q;
    let mut ln_sum = ln_term;
    for i in 0..k {
        ln_term += ((n - i) as f64 / (i + 1) as f64).ln() + ln_p - ln_q;
        let (hi, lo) = if ln_sum >= ln_term {
            (ln_sum, ln_term)
        } else {
            (ln_term, ln_sum)
        };
        ln_sum = hi + (lo - hi).exp().ln_1p();
    }
    ln_sum.exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exceed_fraction_counts_strictly() {
        assert_eq!(exceed_fraction(&[1.0, 1.0], 1.0), 0.0);
        assert_eq!(exceed_fraction(&[1.0, 2.0], 1.0), 0.5);
    }

    #[test]
    fn rule_of_three() {
        // With no exceedance the exact bound is 1 − 0.05^{1/n}, just under
        // the rule of three's 3/n.
        let exact = 1.0 - 0.05f64.powf(1.0 / 300.0);
        let bound = exceedance_upper_bound(0, 300);
        assert!((bound - exact).abs() < 1e-12, "{bound} vs {exact}");
        assert!(bound < 0.01 && bound > 0.0099, "{bound}");
        assert_eq!(exceedance_upper_bound(300, 300), 1.0);
    }

    #[test]
    fn clopper_pearson_matches_tabulated_values() {
        // One-sided 95% Clopper–Pearson upper limits, to four places.
        for (k, n, expected) in [
            (0, 100, 0.0295),
            (5, 100, 0.1023),
            (10, 100, 0.1637),
            (50, 1000, 0.0629),
        ] {
            let bound = exceedance_upper_bound(k, n);
            assert!(
                (bound - expected).abs() < 5e-5,
                "{k}/{n}: {bound} vs {expected}"
            );
        }
    }

    #[test]
    fn upper_bound_has_its_stated_tail_mass() {
        // At the bound, seeing at most k exceedances has probability 5%.
        for (k, n) in [(1, 10), (3, 50), (20, 400), (7, 100_000)] {
            let bound = exceedance_upper_bound(k, n);
            let mass = binomial_cdf(k, n, bound);
            assert!((mass - 0.05).abs() < 1e-9, "{k}/{n}: {mass}");
            assert!(bound > k as f64 / n as f64);
        }
    }

    #[test]
    fn upper_bound_grows_with_k_and_shrinks_with_n() {
        let by_k: Vec<f64> = (0..=20).map(|k| exceedance_upper_bound(k, 100)).collect();
        assert!(by_k.windows(2).all(|w| w[0] < w[1]), "{by_k:?}");
        let by_n: Vec<f64> = [50, 100, 1000, 10_000]
            .iter()
            .map(|&n| exceedance_upper_bound(5, n))
            .collect();
        assert!(by_n.windows(2).all(|w| w[0] > w[1]), "{by_n:?}");
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_samples_panic() {
        let _ = exceed_fraction(&[], 1.0);
    }
}
