//! Closed-form round budgets and shape curves from the paper's analysis.
//!
//! These are the *concrete* (constant-carrying) versions of the paper's
//! asymptotic bounds. This module is the one place they are computed; the
//! channel geometry they assume (`C'` = largest power of two `≤ C`, and the
//! election tree's height) comes from [`crate::tree`], the same functions
//! the protocols size themselves with. Each function documents the
//! constants it commits to and the claim it instantiates.
//!
//! Callers:
//!
//! * the experiment harness — E1 and E2 report [`two_active_budget`] and
//!   E1 its [`log_c_n`] term; E3 compares against [`rename_tail`]; E4
//!   against [`split_check_budget`]; E8 reports [`split_search_budget`] and
//!   [`leaf_election_shape`] and its tests bound runs by
//!   [`leaf_election_budget`]; E10 divides by [`lower_bound_curve`] and
//!   quotes [`upper_bound_gap`]; E20 normalizes by [`log_c_n`];
//! * the `paper_fidelity` tests, which hold live executions to
//!   [`two_active_budget`] and [`leaf_election_budget`];
//! * the `quickstart` example, which prints [`upper_bound_curve`] beside
//!   its measured rounds.
//!
//! [`full_budget`] and [`reduce_rounds`] are checked by this module's own
//! tests only.

use crate::tree::{effective_channels, ChannelTree};

/// `lg x` (base-2 logarithm), the paper's notation.
#[must_use]
pub fn lg(x: f64) -> f64 {
    x.log2()
}

/// `log_C n = lg n / lg C`: the renaming term of Theorem 1 and of the lower
/// bound.
#[must_use]
pub fn log_c_n(n: u64, c: u32) -> f64 {
    lg(n as f64) / lg(f64::from(c))
}

/// The tight two-node / lower-bound curve `lg n / lg C + max(lg lg n, 1)`:
/// Theorem 1's shape, and the `Ω(log n / log C + log log n)` lower bound of
/// \[Newport 2014\] with its constants set to one.
#[must_use]
pub fn lower_bound_curve(n: u64, c: u32) -> f64 {
    log_c_n(n, c.max(2)) + lg(lg(n as f64)).max(1.0)
}

/// `max(lg lg lg n, 1)`: the factor by which Theorem 4's upper bound
/// exceeds the lower bound.
#[must_use]
pub fn upper_bound_gap(n: u64) -> f64 {
    lg(lg(lg(n as f64))).max(1.0)
}

/// Theorem 4's upper-bound curve `lg n / lg C + lg lg n · max(lg lg lg n, 1)`:
/// the lower bound's terms with its `lg lg n` widened by
/// [`upper_bound_gap`].
#[must_use]
pub fn upper_bound_curve(n: u64, c: u32) -> f64 {
    log_c_n(n, c) + lg(lg(n as f64)) * upper_bound_gap(n)
}

/// Lemma 2's tail: the probability that both nodes of `TwoActive`'s
/// renaming race still share a channel after `t` rounds, `C^{-t}`.
#[must_use]
pub fn rename_tail(c: u32, t: u32) -> f64 {
    #[allow(clippy::cast_possible_wrap)]
    f64::from(c).powi(-(t as i32))
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

/// A concrete w.h.p. budget for `TwoActive` (Theorem 1): `2·log_C' n`
/// renaming rounds (failure probability `n^{-2}`, by Lemma 2 run at
/// constant `c = 2`), plus the deterministic search
/// ([`split_check_budget`] over the tree of height `lg C'`) and the
/// declaration round. `C'` is the channel count `TwoActive::new` uses: the
/// largest power of two `≤ min(C, n)`, so the budget stops falling at
/// `C = n`.
///
/// # Panics
///
/// Panics if `c < 2` or `n < 2`.
#[must_use]
pub fn two_active_budget(n: u64, c: u32) -> f64 {
    assert!(c >= 2, "TwoActive needs C >= 2");
    assert!(n >= 2, "the model requires n >= 2");
    let c_eff = two_active_channels(n, c);
    2.0 * lg(n as f64) / lg(f64::from(c_eff))
        + f64::from(split_check_budget(c_eff.trailing_zeros()))
        + 1.0
}

/// The channels `TwoActive` uses for `c` channels and id space `n`:
/// `C'` of `min(C, n)` ("for the case where C > n, we use only the first n
/// channels").
fn two_active_channels(n: u64, c: u32) -> u32 {
    effective_channels(c.min(n.min(u64::from(u32::MAX)) as u32))
}

/// Rounds `Reduce` (Fig. 2) executes when no leader emerges:
/// `2·⌈lg lg n⌉` (two rounds per iteration), i.e.
/// [`crate::Reduce::total_rounds`] at `reduce_factor = 1`.
#[must_use]
pub fn reduce_rounds(n: u64) -> u64 {
    crate::Reduce::total_rounds(crate::Params::practical(), n)
}

/// Lemma 16's per-phase `SplitSearch` cost for phase `i` (1-based) over a
/// tree of height `h`: `5·⌈log_{p+1} h⌉` rounds (at least 5) with
/// `p = 2^{i-1}`, the cohort size in that phase.
///
/// # Panics
///
/// Panics if `i == 0` or `h == 0`.
#[must_use]
pub fn split_search_budget(h: u32, i: u32) -> f64 {
    assert!(i >= 1, "phases are 1-based");
    assert!(h >= 1, "tree height must be >= 1");
    let p = f64::from(1u32 << (i - 1).min(30));
    5.0 * (f64::from(h).ln() / (p + 1.0).ln()).ceil().max(1.0)
}

/// The budget of `LeafElection`'s phase `i` (1-based) over a tree of height
/// `h`: [`split_search_budget`] plus the root-check and pairing rounds of
/// the enclosing phase.
///
/// # Panics
///
/// Panics if `i == 0` or `h == 0`.
#[must_use]
pub fn leaf_election_phase_budget(h: u32, i: u32) -> f64 {
    split_search_budget(h, i) + 2.0
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

/// Theorem 17's shape `lg h · lg lg x` for `LeafElection`, each factor
/// floored at 1 (and `lg x` at 2) so small trees and cohorts stay positive.
#[must_use]
pub fn leaf_election_shape(h: u32, x: u32) -> f64 {
    lg(f64::from(h)).max(1.0) * lg(lg(f64::from(x.max(2))).max(2.0)).max(1.0)
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
    let tree = ChannelTree::for_election(c);
    let h = tree.height().max(1);
    let x = (12.0 * lg(n as f64)).min(f64::from(tree.leaves())).max(1.0) as u32;
    reduce_rounds(n) as f64
        + 6.0 * lg(n as f64) / lg(f64::from(effective_channels(c))).max(1.0)
        + 6.0
        + leaf_election_budget(h, x)
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
    fn two_active_budget_table_values() {
        assert!((two_active_budget(1 << 12, 2) - 26.0).abs() < 1e-9);
        assert_eq!(format!("{:.2}", two_active_budget(1 << 8, 64)), "7.67");
        assert!((two_active_budget(1 << 8, 1024) - 7.0).abs() < 1e-9);
        assert!((two_active_budget(1 << 12, 1 << 14) - 8.0).abs() < 1e-9);
        assert_eq!(format!("{:.1}", two_active_budget(1 << 20, 1 << 14)), "8.9");
    }

    #[test]
    fn two_active_budget_uses_the_protocols_channels() {
        for n in [1u64 << 4, 1 << 8, 1 << 20] {
            for ce in 1..=16 {
                let c = 1u32 << ce;
                assert_eq!(
                    crate::TwoActive::new(c, n).effective_channels(),
                    two_active_channels(n, c),
                    "C={c} n={n}"
                );
            }
        }
    }

    #[test]
    fn theory_curves_are_monotone_sensibly() {
        assert!(lower_bound_curve(1 << 20, 4) > lower_bound_curve(1 << 10, 4));
        assert!(lower_bound_curve(1 << 20, 1024) < lower_bound_curve(1 << 20, 4));
    }

    #[test]
    fn upper_bound_curve_widens_the_lower_bound() {
        for (n, c) in [(1u64 << 10, 4u32), (1 << 14, 128), (1 << 20, 1024)] {
            let gap = upper_bound_curve(n, c) - lower_bound_curve(n, c);
            let lglg = lg(lg(n as f64));
            assert!(
                (gap - lglg * (upper_bound_gap(n) - 1.0)).abs() < 1e-9,
                "n={n} C={c}"
            );
        }
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
