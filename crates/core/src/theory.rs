//! Closed-form round budgets from the paper's analysis.
//!
//! These are the *concrete* (constant-carrying) versions of the paper's
//! asymptotic bounds, used by tests and the experiment harness to check
//! that executions stay inside their theorems. Each function documents the
//! constants it commits to and the claim it instantiates.

/// `lg x` (base-2 logarithm), the paper's notation.
#[must_use]
pub fn lg(x: f64) -> f64 {
    x.log2()
}

/// The probes `SplitCheck` (Fig. 1) needs for a tree of height `h`:
/// a binary search over the `h + 1` levels costs at most `⌈lg h⌉ + 1`
/// probe rounds (Lemma 3's `O(log log C)` with its constant made explicit).
///
/// # Panics
///
/// Panics if `h == 0` (a one-leaf tree has nothing to search).
#[must_use]
pub fn split_check_budget(h: u32) -> u32 {
    assert!(h >= 1, "SplitCheck needs a tree of height >= 1");
    (f64::from(h)).log2().ceil() as u32 + 1
}

/// A concrete w.h.p. budget for `TwoActive` (Theorem 1): `2·log_C n`
/// renaming rounds (failure probability `n^{-2}`, by Lemma 2 run at
/// constant `c = 2`), plus the deterministic search and the declaration
/// round.
///
/// # Panics
///
/// Panics if `c < 2` or `n < 2`.
#[must_use]
pub fn two_active_budget(n: u64, c: u32) -> f64 {
    assert!(c >= 2, "TwoActive needs C >= 2");
    assert!(n >= 2, "the model requires n >= 2");
    let c_eff = f64::from(prev_power_of_two(c.min(n.min(u64::from(u32::MAX)) as u32)));
    let h = lg(c_eff).max(1.0);
    2.0 * lg(n as f64) / lg(c_eff) + (h.log2().ceil() + 1.0).max(1.0) + 1.0
}

/// Rounds `Reduce` (Fig. 2) executes when no leader emerges:
/// `2·⌈lg lg n⌉` (two rounds per iteration), i.e.
/// [`crate::Reduce::total_rounds`] at `reduce_factor = 1`.
#[must_use]
pub fn reduce_rounds(n: u64) -> u64 {
    crate::Reduce::total_rounds(crate::Params::practical(), n)
}

/// Lemma 16's per-phase `SplitSearch` cost for phase `i` (1-based) over a
/// tree of height `h`: `5·⌈log_{p+1} h⌉` rounds with `p = 2^{i-1}`, plus
/// the root-check and pairing rounds of the enclosing phase.
///
/// # Panics
///
/// Panics if `i == 0` or `h == 0`.
#[must_use]
pub fn leaf_election_phase_budget(h: u32, i: u32) -> f64 {
    assert!(i >= 1, "phases are 1-based");
    assert!(h >= 1, "tree height must be >= 1");
    let p = f64::from(1u32 << (i - 1).min(30));
    5.0 * (f64::from(h).ln() / (p + 1.0).ln()).ceil().max(1.0) + 2.0
}

/// Theorem 17's total budget for `LeafElection` from `x` starting actives
/// on a tree of height `h`: the per-phase budgets summed over the at most
/// `⌈lg x⌉ + 1` phases (Corollary 15), plus the final root check.
///
/// # Panics
///
/// Panics if `x == 0` or `h == 0`.
#[must_use]
pub fn leaf_election_budget(h: u32, x: u32) -> f64 {
    assert!(x >= 1, "need at least one active node");
    let phases = (f64::from(x)).log2().ceil() as u32 + 1;
    (1..=phases)
        .map(|i| leaf_election_phase_budget(h, i))
        .sum::<f64>()
        + 1.0
}

/// A concrete end-to-end budget for the general algorithm (Theorem 4):
/// `Reduce`'s fixed rounds, an `IdReduction` allowance of `6·log_C n + 6`
/// rounds (Theorem 6 at small constants), and the `LeafElection` budget for
/// `x = C/2` potential survivors capped at `12·lg n` (Theorem 5).
///
/// This is intentionally *generous* — it is an upper envelope for tests,
/// not a fit.
///
/// # Panics
///
/// Panics if `c < 2` or `n < 2`.
#[must_use]
pub fn full_budget(n: u64, c: u32) -> f64 {
    assert!(c >= 2, "budget defined for C >= 2");
    assert!(n >= 2, "the model requires n >= 2");
    let c_eff = prev_power_of_two(c);
    let leaves = (c_eff / 2).max(1);
    let h = leaves.trailing_zeros().max(1);
    let x = (12.0 * lg(n as f64)).min(f64::from(leaves)).max(1.0) as u32;
    reduce_rounds(n) as f64
        + 6.0 * lg(n as f64) / lg(f64::from(c_eff.max(2))).max(1.0)
        + 6.0
        + leaf_election_budget(h, x)
}

fn prev_power_of_two(x: u32) -> u32 {
    debug_assert!(x >= 1);
    1 << (31 - x.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_check_budget_small_cases() {
        assert_eq!(split_check_budget(1), 1);
        assert_eq!(split_check_budget(2), 2);
        assert_eq!(split_check_budget(10), 5);
    }

    #[test]
    fn two_active_budget_shrinks_then_floors() {
        let n = 1u64 << 20;
        let wide = two_active_budget(n, 1 << 14);
        let narrow = two_active_budget(n, 4);
        assert!(wide < narrow);
        // The floor: beyond C = n the budget stops improving (C is capped).
        let capped = two_active_budget(1 << 10, 1 << 20);
        let at_n = two_active_budget(1 << 10, 1 << 10);
        assert!((capped - at_n).abs() < 1e-9);
    }

    #[test]
    fn reduce_rounds_matches_protocol() {
        // `2·⌈lg lg n⌉`, clamped to one iteration for n <= 4.
        for (ne, rounds) in [(1u32, 2u64), (2, 2), (8, 6), (16, 8), (20, 10), (32, 10)] {
            assert_eq!(reduce_rounds(1u64 << ne), rounds, "n=2^{ne}");
        }
    }

    #[test]
    fn phase_budget_decays_with_phase() {
        let h = 13;
        let early = leaf_election_phase_budget(h, 1);
        let late = leaf_election_phase_budget(h, 6);
        assert!(late < early);
        assert!(late >= 7.0, "floor is 5 + 2");
    }

    #[test]
    fn total_budget_is_monotone_in_x() {
        assert!(leaf_election_budget(10, 64) > leaf_election_budget(10, 4));
    }

    #[test]
    fn full_budget_reflects_both_terms() {
        // Monotone in n at fixed C (both the log n/log C and the lg lg n
        // terms grow)...
        assert!(full_budget(1 << 30, 64) > full_budget(1 << 10, 64));
        // ...and the log n/log C *component* shrinks with C: isolate it by
        // comparing against a same-h configuration at larger n.
        let gain_narrow = full_budget(1 << 40, 8) - full_budget(1 << 20, 8);
        let gain_wide = full_budget(1 << 40, 1 << 12) - full_budget(1 << 20, 1 << 12);
        assert!(
            gain_wide < gain_narrow,
            "growing n must cost less with more channels: {gain_wide} vs {gain_narrow}"
        );
    }

    #[test]
    #[should_panic(expected = "height")]
    fn zero_height_rejected() {
        let _ = split_check_budget(0);
    }
}
