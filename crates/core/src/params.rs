//! Tunable constants of the general algorithm.
//!
//! The paper's analysis fixes constants chosen for proof convenience, not
//! for execution: e.g. the knock-out probability of `IdReduction`'s
//! reduction rounds is `1/k` with `k = √C/144`, which is below 1 only once
//! `C > 20 736` and satisfies the analysis' `k ≥ 3` only once
//! `C ≥ 186 624`. Running the algorithm therefore requires picking real
//! constants. [`Params::practical`] is the default used by examples and
//! experiments; [`Params::paper`] preserves the literal constants so the
//! analysis-fidelity tests can exercise them at (very) large `C`.
//!
//! Changing these constants never changes the algorithm's structure — only
//! the hidden constants in its `O(·)` bounds.

/// Constants for the general (any-number-of-nodes) algorithm of §5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Divisor in `k = √C / knock_divisor`, the inverse knock-out
    /// probability of `IdReduction`'s reduction rounds. Paper: 144.
    pub knock_divisor: f64,
    /// Lower clamp on `k` so the knock probability `1/k` stays a sensible
    /// probability for small `C`. Paper analysis assumes `k ≥ 3`.
    pub min_k: f64,
    /// Multiplier on `⌈lg lg n⌉`, the number of knock-out iterations the
    /// `Reduce` step performs (each iteration is 2 rounds). Raising it
    /// raises the exponent of the `Reduce` step's failure probability
    /// (the `β` of Theorem 5).
    pub reduce_factor: u32,
    /// Channel counts strictly below this make the full algorithm fall back
    /// to the optimal single-channel collision-detection algorithm, as the
    /// paper prescribes for `C = O(1)` (§5.2: "when C = O(1), the lower
    /// bound simplifies to Ω(log n), which we can match with the well-known
    /// O(log n) contention resolution algorithm").
    pub fallback_below_channels: u32,
}

impl Params {
    /// The literal constants from the paper's analysis. Only meaningful for
    /// very large `C`; experiments use [`Params::practical`].
    #[must_use]
    pub fn paper() -> Self {
        Params {
            knock_divisor: 144.0,
            min_k: 3.0,
            reduce_factor: 1,
            fallback_below_channels: 8,
        }
    }

    /// Constants tuned for execution at laptop scales. Same asymptotics,
    /// usable at `C` as small as 8.
    #[must_use]
    pub fn practical() -> Self {
        Params {
            knock_divisor: 2.0,
            min_k: 2.0,
            reduce_factor: 1,
            fallback_below_channels: 8,
        }
    }

    /// The inverse knock-out probability `k` used by `IdReduction`'s
    /// reduction rounds for a given channel count.
    #[must_use]
    pub fn knock_k(&self, channels: u32) -> f64 {
        (f64::from(channels).sqrt() / self.knock_divisor).max(self.min_k)
    }

    /// Number of knock-out iterations `Reduce` performs for `n` possible
    /// nodes: `reduce_factor · ⌈lg lg n⌉` (each iteration is two rounds),
    /// with `⌈lg lg n⌉` clamped to at least 1.
    ///
    /// Computed exactly in integers: `⌈lg lg n⌉` is the least `j ≥ 1` with
    /// `n ≤ 2^(2^j)`, i.e. `⌈lg b⌉` for `b = ⌈lg n⌉`, and both ceilings
    /// are bit lengths. `n < 2` counts as `n = 2`.
    #[must_use]
    #[inline]
    pub fn reduce_iterations(&self, n: u64) -> u32 {
        let lg = u64::BITS - (n.max(2) - 1).leading_zeros();
        let lglg = u32::BITS - (lg - 1).leading_zeros();
        self.reduce_factor * lglg.max(1)
    }
}

impl Default for Params {
    /// Defaults to [`Params::practical`].
    fn default() -> Self {
        Params::practical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_literal() {
        let p = Params::paper();
        assert_eq!(p.knock_divisor, 144.0);
        assert_eq!(p.min_k, 3.0);
        // k = sqrt(C)/144 once C is large enough for the clamp not to bind.
        let c = 1u32 << 30;
        let expect = f64::from(c).sqrt() / 144.0;
        assert!((p.knock_k(c) - expect).abs() < 1e-9);
    }

    #[test]
    fn practical_k_is_clamped_for_small_c() {
        let p = Params::practical();
        assert_eq!(p.knock_k(4), 2.0);
        assert_eq!(p.knock_k(16), 2.0);
        assert_eq!(p.knock_k(64), 4.0);
        assert_eq!(p.knock_k(256), 8.0);
    }

    #[test]
    fn reduce_iterations_track_lglg_n() {
        let p = Params::practical();
        assert_eq!(p.reduce_iterations(2), 1); // lg lg 2 = 0, clamped to 1
        assert_eq!(p.reduce_iterations(4), 1);
        assert_eq!(p.reduce_iterations(16), 2);
        assert_eq!(p.reduce_iterations(256), 3);
        assert_eq!(p.reduce_iterations(1 << 16), 4);
        assert_eq!(p.reduce_iterations(u64::MAX), 6);
    }

    /// The float formula the integer `reduce_iterations` replaced, kept as
    /// the reference it is pinned against.
    fn reduce_iterations_by_float(p: &Params, n: u64) -> u32 {
        let lg = (n.max(2) as f64).log2();
        let lglg = lg.log2().max(0.0);
        p.reduce_factor * (lglg.ceil() as u32).max(1)
    }

    #[test]
    fn integer_reduce_iterations_match_the_float_formula_at_every_edge() {
        let p = Params::practical();
        let mut ns = vec![0, 1, 2, 3, u64::MAX];
        for k in 0..64 {
            let pow = 1u64 << k;
            ns.extend([pow - 1, pow, pow + 1]);
        }
        for n in ns {
            assert_eq!(
                p.reduce_iterations(n),
                reduce_iterations_by_float(&p, n),
                "n = {n}"
            );
        }
    }

    #[test]
    fn integer_reduce_iterations_match_the_float_formula_on_a_seeded_sweep() {
        use rand::rngs::SmallRng;
        use rand::{RngCore, SeedableRng};
        let p = Params {
            reduce_factor: 3,
            ..Params::practical()
        };
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for _ in 0..1_000_000 {
            // A uniform bit length first, so small and large n are both
            // well covered (a uniform u64 is almost always above 2^32).
            let bits = rng.next_u64() % 65;
            let n = rng.next_u64().checked_shr(64 - bits as u32).unwrap_or(0);
            assert_eq!(
                p.reduce_iterations(n),
                reduce_iterations_by_float(&p, n),
                "n = {n}"
            );
        }
    }

    #[test]
    fn reduce_factor_scales_iterations() {
        let mut p = Params::practical();
        p.reduce_factor = 3;
        assert_eq!(p.reduce_iterations(256), 9);
    }

    #[test]
    fn default_is_practical() {
        assert_eq!(Params::default(), Params::practical());
    }
}
