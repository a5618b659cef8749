//! Extensions beyond the paper's theorems, grounded in its §6 discussion.
//!
//! The conclusion observes that for *expected* (rather than w.h.p.) time,
//! multiple channels are already known to be extremely powerful: "the best
//! expected time solutions are really fast, reaching O(1) expected
//! complexity with as few as log n channels." This module implements such
//! an algorithm for the collision-detection model so experiment E14 can
//! chart where the expected-time regime takes over from the w.h.p. regime.
//!
//! [`ExpectedConstant`] alternates two-round epochs:
//!
//! 1. **Density-test round** — every active node draws a *geometric* test
//!    channel (`P[j] = 2^{-(j-1)}` over channels `2, 3, …, C'`) and
//!    transmits on it. Channel `j` then carries `Binomial(|A|, 2^{-(j-1)})`
//!    transmitters, so the channel at height `≈ lg |A|` carries `Θ(1)` of
//!    them and some transmitter is **alone** with constant probability —
//!    *whatever `|A|` is*. Strong CD tells that transmitter it was alone;
//!    it becomes a *claimant*.
//! 2. **Claim round** — claimants transmit on the primary channel with
//!    probability 1/2 while everyone else listens. A lone claim solves the
//!    problem; a collision runs the usual CD knock-out among claimants
//!    (listening claimants that hear anything drop their claim).
//!
//! Since each epoch mints `Θ(1)` claimants and resolves collisions
//! geometrically, the expected number of rounds to solve is `O(1)` once
//! `C ≥ lg n + 1` — compared with the `Θ(log log n)`-ish w.h.p.-optimal
//! pipeline. The flip side: its *tail* is worse, which is exactly the
//! expected-vs-w.h.p. trade-off the paper's conclusion points at.

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::phase::{impl_terminal_phase, PhaseMeter};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Test,
    Claim,
}

/// The expected-O(1) contention-resolution algorithm sketched above.
///
/// ```
/// use contention::extensions::ExpectedConstant;
/// use mac_sim::{Engine, SimConfig};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let (c, n) = (16u32, 1u64 << 12); // C >= lg n + 1 = 13
/// let mut exec = Engine::new(SimConfig::new(c).seed(3))
///     .populated((0..500).map(|_| ExpectedConstant::new(c, n)));
/// let report = exec.run()?;
/// assert!(report.rounds_to_solve().unwrap() < 1000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExpectedConstant {
    /// Highest *physical* test channel (channels `2..=c_top` are tests).
    c_top: u32,
    /// Highest density level worth testing (`lg n + 2`). When `c_top` is
    /// smaller, the missing levels `c_top..=max_j` are time-multiplexed
    /// onto channel `c_top`, one per epoch — the expected time then
    /// degrades gracefully from `O(1)` toward `O(lg n − lg C)`.
    max_j: u32,
    /// Epoch counter driving the time multiplexing.
    epoch: u64,
    step: Step,
    claimant: bool,
    transmitted: bool,
    status: Status,
    rounds: u64,
    meter: PhaseMeter,
}

impl ExpectedConstant {
    /// Creates a node for `channels` channels and universe size `n`.
    ///
    /// Test channels are capped at `lg n + 2` — more buy nothing, because
    /// `|A| ≤ n` bounds the densities worth testing.
    ///
    /// # Panics
    ///
    /// Panics if `channels < 2` or `n < 2`.
    #[must_use]
    pub fn new(channels: u32, n: u64) -> Self {
        assert!(channels >= 2, "need at least 2 channels, got {channels}");
        assert!(n >= 2, "the model requires n >= 2, got {n}");
        let lg_n = (n as f64).log2().ceil() as u32;
        let max_j = (lg_n + 2).max(2);
        ExpectedConstant {
            c_top: channels.min(max_j).max(2),
            max_j,
            epoch: 0,
            step: Step::Test,
            claimant: false,
            transmitted: false,
            status: Status::Active,
            rounds: 0,
            meter: PhaseMeter::default(),
        }
    }

    /// Number of density-test channels in use.
    #[must_use]
    pub fn test_channels(&self) -> u32 {
        self.c_top - 1
    }

    /// Rounds participated in.
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.rounds
    }
}

impl Protocol for ExpectedConstant {
    type Msg = u32;

    fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        self.rounds += 1;
        match self.step {
            Step::Test => {
                let epoch = self.epoch;
                self.epoch += 1;
                if self.claimant {
                    // Claimants sit out density tests and wait to claim.
                    self.transmitted = false;
                    return Action::Sleep;
                }
                // Geometric level choice: halve the population per level.
                let mut level = 2;
                while level < self.max_j && rng.gen_bool(0.5) {
                    level += 1;
                }
                if level < self.c_top {
                    self.transmitted = true;
                    Action::transmit(ChannelId::new(level), 0)
                } else {
                    // Levels the physical band cannot host are rotated onto
                    // the top channel, one per epoch.
                    let span = u64::from(self.max_j - self.c_top) + 1;
                    let hosted = self.c_top + (epoch % span) as u32;
                    if level == hosted {
                        self.transmitted = true;
                        Action::transmit(ChannelId::new(self.c_top), 0)
                    } else {
                        self.transmitted = false;
                        Action::listen(ChannelId::new(self.c_top))
                    }
                }
            }
            Step::Claim => {
                if self.claimant {
                    self.transmitted = rng.gen_bool(0.5);
                    if self.transmitted {
                        return Action::transmit(ChannelId::PRIMARY, 0);
                    }
                }
                self.transmitted = false;
                Action::listen(ChannelId::PRIMARY)
            }
        }
    }

    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u32>, _rng: &mut SmallRng) {
        match self.step {
            Step::Test => {
                if self.transmitted && feedback.message().is_some() {
                    // Alone on a test channel: promoted to claimant.
                    self.claimant = true;
                }
                self.step = Step::Claim;
            }
            Step::Claim => {
                if self.transmitted {
                    if feedback.message().is_some() {
                        self.status = Status::Leader;
                    }
                } else if feedback.message().is_some() {
                    // Someone claimed alone: problem solved, retire.
                    self.status = Status::Inactive;
                } else if self.claimant && feedback.is_collision() {
                    // Lost the claimants' knock-out.
                    self.claimant = false;
                }
                self.step = Step::Test;
            }
        }
    }

    fn status(&self) -> Status {
        self.status
    }

    fn phase(&self) -> &'static str {
        match self.step {
            Step::Test => "xc-test",
            Step::Claim => "xc-claim",
        }
    }
}

impl_terminal_phase!(ExpectedConstant, "expected-constant");

/// Population-size estimation — a classic capability of collision
/// detection, and the tool a deployment uses to *choose* between the
/// regimes measured in E14 (`|A|`-aware protocols need an `|A|` estimate).
///
/// All active nodes sweep transmit probabilities `1, 1/2, 1/4, …` on the
/// primary channel, one per round. Under strong CD every participant —
/// transmitter or listener — observes the same per-round outcome, so all
/// nodes compute the *same* estimate: `2^j` for the first round `j` whose
/// outcome was not a collision (the expected transmitter count crosses 1
/// around `j ≈ lg |A|`). The estimate is within a constant factor of `|A|`
/// with constant probability, and all nodes agree on it by construction.
///
/// ```
/// use contention::extensions::SizeEstimate;
/// use mac_sim::{Engine, SimConfig, StopWhen};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let cfg = SimConfig::new(1).seed(2).stop_when(StopWhen::AllTerminated);
/// let mut exec = Engine::new(cfg).populated((0..300).map(|_| SizeEstimate::new(1 << 12)));
/// exec.run()?;
/// let estimate = exec.iter_nodes().next().expect("has nodes").estimate().expect("done");
/// assert!(estimate >= 16 && estimate <= 8192, "estimate {estimate} off for |A| = 300");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SizeEstimate {
    /// Sweep length: `lg n + 1` rounds.
    sweep: u32,
    /// Current sweep position.
    j: u32,
    transmitted: bool,
    estimate: Option<u64>,
}

impl SizeEstimate {
    /// Creates an estimator node for universe size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "the model requires n >= 2, got {n}");
        SizeEstimate {
            sweep: (n as f64).log2().ceil() as u32 + 1,
            j: 0,
            transmitted: false,
            estimate: None,
        }
    }

    /// The agreed estimate of `|A|`, once the sweep finished.
    #[must_use]
    pub fn estimate(&self) -> Option<u64> {
        self.estimate
    }
}

impl Protocol for SizeEstimate {
    type Msg = u32;

    fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        let p = 0.5f64.powi(self.j as i32);
        self.transmitted = rng.gen_bool(p);
        if self.transmitted {
            Action::transmit(ChannelId::PRIMARY, 0)
        } else {
            Action::listen(ChannelId::PRIMARY)
        }
    }

    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u32>, _rng: &mut SmallRng) {
        // Transmitters and listeners observe the same truth under strong CD,
        // so this decision is consensus by construction.
        if self.estimate.is_none() && !feedback.is_collision() {
            self.estimate = Some(1u64 << self.j);
        }
        self.j += 1;
        if self.j >= self.sweep && self.estimate.is_none() {
            // Degenerate: collisions all the way down (|A| > n?); report
            // the largest tested scale.
            self.estimate = Some(1u64 << (self.sweep - 1));
        }
    }

    fn status(&self) -> Status {
        if self.j >= self.sweep {
            Status::Inactive
        } else {
            Status::Active
        }
    }

    fn phase(&self) -> &'static str {
        "size-estimate"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{Engine, SimConfig, StopWhen};

    fn rounds_to_solve(c: u32, n: u64, active: usize, seed: u64) -> u64 {
        let mut exec = Engine::new(SimConfig::new(c).seed(seed).max_rounds(1_000_000))
            .populated((0..active).map(|_| ExpectedConstant::new(c, n)));
        exec.run()
            .expect("solves")
            .rounds_to_solve()
            .expect("solved")
    }

    #[test]
    fn solves_across_densities() {
        let (c, n) = (16u32, 1u64 << 12);
        for active in [1usize, 2, 10, 100, 1000, 4000] {
            let r = rounds_to_solve(c, n, active, 7);
            assert!(r < 500, "active={active}: {r} rounds");
        }
    }

    #[test]
    fn expected_rounds_are_small_with_enough_channels() {
        // C = lg n + 2: mean over seeds should be a small constant,
        // independent of |A|.
        let (c, n) = (18u32, 1u64 << 16);
        for active in [1usize, 4, 256, 16384] {
            let mean: f64 = (0..20)
                .map(|s| rounds_to_solve(c, n, active, s) as f64)
                .sum::<f64>()
                / 20.0;
            assert!(
                mean <= 16.0,
                "expected-constant regime broken at |A|={active}: mean {mean}"
            );
        }
    }

    #[test]
    fn single_leader_when_run_to_completion() {
        let cfg = SimConfig::new(16)
            .seed(5)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1_000_000);
        let mut exec =
            Engine::new(cfg).populated((0..200).map(|_| ExpectedConstant::new(16, 1 << 10)));
        let report = exec.run().expect("solves");
        assert_eq!(report.leaders.len(), 1);
        assert!(report.active_remaining.is_empty());
    }

    #[test]
    fn test_channel_cap_tracks_n() {
        let node = ExpectedConstant::new(1024, 1 << 10);
        assert_eq!(node.test_channels(), 11); // lg n + 2 - 1
        let node = ExpectedConstant::new(4, 1 << 20);
        assert_eq!(node.test_channels(), 3); // capped by C
    }

    #[test]
    #[should_panic(expected = "at least 2 channels")]
    fn rejects_single_channel() {
        let _ = ExpectedConstant::new(1, 16);
    }

    fn estimates(n: u64, active: usize, seed: u64) -> Vec<u64> {
        let cfg = SimConfig::new(1)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1000);
        let mut exec = Engine::new(cfg).populated((0..active).map(|_| SizeEstimate::new(n)));
        exec.run().expect("sweeps");
        exec.iter_nodes()
            .map(|e| e.estimate().expect("estimated"))
            .collect()
    }

    #[test]
    fn all_nodes_agree_on_the_estimate() {
        for seed in 0..10 {
            let est = estimates(1 << 10, 100, seed);
            assert!(est.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {est:?}");
        }
    }

    #[test]
    fn estimate_tracks_population_in_the_median() {
        // Single estimates are within a constant factor only with constant
        // probability; the median over seeds is a robust check.
        for &(active, lo, hi) in &[(4usize, 1u64, 64u64), (64, 8, 1024), (1024, 128, 16384)] {
            let mut meds: Vec<u64> = (0..15).map(|s| estimates(1 << 14, active, s)[0]).collect();
            meds.sort_unstable();
            let med = meds[meds.len() / 2];
            assert!(
                (lo..=hi).contains(&med),
                "|A|={active}: median estimate {med} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn sweep_length_is_lg_n_plus_one() {
        let cfg = SimConfig::new(1)
            .seed(0)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100);
        let mut exec = Engine::new(cfg).populated((0..10).map(|_| SizeEstimate::new(1 << 8)));
        let report = exec.run().expect("sweeps");
        assert_eq!(report.rounds_executed, 9); // lg 256 + 1
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn estimator_rejects_tiny_n() {
        let _ = SizeEstimate::new(1);
    }
}
