//! Multi-channel contention resolution **without** collision detection:
//! `O(log² n / C + log n)` rounds w.h.p. — the bound of Daum, Gilbert,
//! Kuhn and Newport (PODC 2012), proved tight by Newport (2014).
//!
//! This is a *faithful-shape simplification* of the original algorithm (the
//! substitution is documented in DESIGN.md §4): the point of the baseline
//! is the `log² n / C + log n` envelope that experiment E9 compares
//! against, not the original's constants.
//!
//! Structure — rounds alternate between two jobs:
//!
//! * **Spread rounds** (even): each active node picks a uniform channel
//!   from `[C]` and transmits with a decay probability; crucially, the
//!   probability is indexed by *channel and sweep position*, so each round
//!   tests `C` different decay probabilities in parallel — compressing the
//!   `Θ(log n)`-long decay sweep into `⌈log n / C⌉` rounds. A node that
//!   listens and hears a lone message retires (somebody beat it), which
//!   drives the active count down by a constant factor per sweep.
//! * **Verify rounds** (odd): a plain single-channel decay round on the
//!   primary channel, which converts "few actives remain" into the lone
//!   primary-channel transmission that actually solves the problem.
//!
//! The spread part contributes `O(log² n / C)` and the verify part
//! `O(log n)`, matching the Daum et al. envelope.

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::phase::{impl_terminal_phase, PhaseMeter};

/// The multi-channel no-collision-detection baseline.
///
/// ```
/// use contention::baselines::MultiChannelNoCd;
/// use mac_sim::{CdMode, Engine, SimConfig};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let c = 16;
/// let cfg = SimConfig::new(c).seed(9).cd_mode(CdMode::None);
/// let mut exec = Engine::new(cfg).populated((0..200).map(|_| MultiChannelNoCd::new(c, 1 << 10)));
/// assert!(exec.run()?.is_solved());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiChannelNoCd {
    channels: u32,
    /// Decay cycle length `⌈lg n⌉`.
    cycle: u64,
    /// Local round counter.
    round: u64,
    transmitted: bool,
    status: Status,
    meter: PhaseMeter,
}

impl MultiChannelNoCd {
    /// Creates a node for `channels` channels and `n` possible nodes.
    ///
    /// # Panics
    ///
    /// Panics if `channels < 1` or `n < 2`.
    #[must_use]
    pub fn new(channels: u32, n: u64) -> Self {
        assert!(channels >= 1, "the model requires C >= 1");
        assert!(n >= 2, "the model requires n >= 2, got {n}");
        MultiChannelNoCd {
            channels,
            cycle: (n as f64).log2().ceil() as u64,
            round: 0,
            transmitted: false,
            status: Status::Active,
            meter: PhaseMeter::default(),
        }
    }

    /// The decay exponent tested on channel `ch` (1-based) in spread round
    /// number `sweep_round`: sweeps walk all `cycle` exponents in blocks of
    /// `C` per round.
    fn spread_exponent(&self, sweep_round: u64, ch: u32) -> u32 {
        let pos = (sweep_round * u64::from(self.channels) + u64::from(ch - 1)) % self.cycle;
        pos as u32 + 1
    }
}

impl Protocol for MultiChannelNoCd {
    type Msg = u32;

    fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        let r = self.round;
        self.round += 1;
        if r.is_multiple_of(2) {
            // Spread round: test C decay probabilities in parallel.
            let ch = rng.gen_range(1..=self.channels);
            let j = self.spread_exponent(r / 2, ch);
            self.transmitted = rng.gen_bool(0.5f64.powi(j as i32));
            if self.transmitted {
                Action::transmit(ChannelId::new(ch), 0)
            } else {
                Action::listen(ChannelId::new(ch))
            }
        } else {
            // Verify round: plain decay on the primary channel.
            let j = ((r / 2) % self.cycle) as u32 + 1;
            self.transmitted = rng.gen_bool(0.5f64.powi(j as i32));
            if self.transmitted {
                Action::transmit(ChannelId::PRIMARY, 0)
            } else {
                Action::listen(ChannelId::PRIMARY)
            }
        }
    }

    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u32>, _rng: &mut SmallRng) {
        // No collision detection: the only usable signal is a lone message,
        // which tells a listener that somebody else won this channel.
        if !self.transmitted && feedback.message().is_some() {
            self.status = Status::Inactive;
        }
    }

    fn status(&self) -> Status {
        self.status
    }

    fn phase(&self) -> &'static str {
        if self.round % 2 == 1 {
            "nocd-spread"
        } else {
            "nocd-verify"
        }
    }
}

impl_terminal_phase!(MultiChannelNoCd, "multichannel-no-cd");

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{CdMode, Engine, SimConfig};

    fn rounds_to_solve(c: u32, n: u64, active: usize, seed: u64) -> u64 {
        let cfg = SimConfig::new(c)
            .seed(seed)
            .cd_mode(CdMode::None)
            .max_rounds(2_000_000);
        let mut exec = Engine::new(cfg).populated((0..active).map(|_| MultiChannelNoCd::new(c, n)));
        exec.run().expect("run succeeds").rounds_to_solve().unwrap()
    }

    #[test]
    fn solves_across_channel_counts() {
        for c in [1u32, 4, 16, 64] {
            let r = rounds_to_solve(c, 1 << 10, 512, 3);
            assert!(r < 20_000, "C={c}: {r} rounds");
        }
    }

    #[test]
    fn more_channels_help_when_log_squared_dominates() {
        // Average over seeds; with n = 2^14 and many actives, C = 64 should
        // beat C = 1 clearly.
        let mean = |c: u32| -> f64 {
            (0..8)
                .map(|s| rounds_to_solve(c, 1 << 14, 4096, s) as f64)
                .sum::<f64>()
                / 8.0
        };
        let one = mean(1);
        let many = mean(64);
        assert!(many < one, "C=64 ({many}) should beat C=1 ({one})");
    }

    #[test]
    fn lone_node_still_solves() {
        let r = rounds_to_solve(16, 1 << 10, 1, 0);
        assert!(r < 2_000, "lone node took {r} rounds");
    }

    #[test]
    fn spread_exponents_cover_the_cycle() {
        let node = MultiChannelNoCd::new(4, 256); // cycle = 8
        let mut seen = std::collections::HashSet::new();
        for sweep in 0..2 {
            for ch in 1..=4 {
                seen.insert(node.spread_exponent(sweep, ch));
            }
        }
        assert_eq!(
            seen.len(),
            8,
            "two sweeps of 4 channels cover all 8 exponents"
        );
    }

    #[test]
    #[should_panic(expected = "C >= 1")]
    fn rejects_zero_channels() {
        let _ = MultiChannelNoCd::new(0, 16);
    }
}
