//! Willard's log-logarithmic selection protocol (reference \[5\] of the
//! paper: "Log-logarithmic selection resolution protocols in a multiple
//! access channel", SIAM J. Comput. 1986).
//!
//! On a *single* channel with strong collision detection, the transmit
//! probability `2^{-j}` induces a monotone signal in the exponent `j`:
//! too-small `j` (relative to `lg |A|`) gives collisions, too-large gives
//! silence, and near `lg |A|` a lone message appears with constant
//! probability. Willard's insight: *binary-search the exponent* — each
//! probe costs one round, so homing in on `j* ≈ lg |A|` costs
//! `O(lg lg n)` rounds, after which a constant expected number of probes
//! at `j*` produces the lone transmission.
//!
//! The probes are random, so a single binary search can land slightly off;
//! the implementation follows the standard robustification: after the
//! search converges, cycle probes over a small window around the landing
//! exponent, restarting the search if a full window stays fruitless. The
//! expected time is `O(log log n)`; the *w.h.p.* time is `O(log n)`-ish —
//! exactly the expected-vs-w.h.p. gap the paper's §6 discusses, and the
//! reason this classic does not supersede the paper's w.h.p.-optimal
//! algorithm.

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::phase::{impl_terminal_phase, PhaseMeter};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Binary search over the exponent interval `[lo, hi]`.
    Search { lo: u32, hi: u32 },
    /// Cycling probes around the landing exponent.
    Exploit { center: u32, step: u32 },
}

/// Willard's expected-`O(log log n)` single-channel protocol.
///
/// ```
/// use contention::baselines::Willard;
/// use mac_sim::{Engine, SimConfig};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let mut exec = Engine::new(SimConfig::new(1).seed(5))
///     .populated((0..500).map(|_| Willard::new(1 << 16)));
/// assert!(exec.run()?.is_solved());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Willard {
    /// Largest exponent worth testing (`⌈lg n⌉`).
    max_exp: u32,
    stage: Stage,
    transmitted: bool,
    status: Status,
    rounds: u64,
    meter: PhaseMeter,
}

impl Willard {
    /// Creates a node for universe size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "the model requires n >= 2, got {n}");
        let max_exp = (n as f64).log2().ceil() as u32;
        Willard {
            max_exp,
            stage: Stage::Search { lo: 0, hi: max_exp },
            transmitted: false,
            status: Status::Active,
            rounds: 0,
            meter: PhaseMeter::default(),
        }
    }

    /// Rounds participated in.
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.rounds
    }

    /// The exponent probed in the current round.
    fn current_exponent(&self) -> u32 {
        match self.stage {
            Stage::Search { lo, hi } => (lo + hi) / 2,
            Stage::Exploit { center, step } => {
                // Cycle center, center-1, center+1, center-2, ... clamped.
                let delta = step.div_ceil(2);
                let exp = if step % 2 == 1 {
                    center.saturating_sub(delta)
                } else {
                    center + delta
                };
                exp.min(self.max_exp)
            }
        }
    }
}

impl Protocol for Willard {
    type Msg = u32;

    fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        self.rounds += 1;
        let j = self.current_exponent();
        self.transmitted = rng.gen_bool(0.5f64.powi(j as i32));
        if self.transmitted {
            Action::transmit(ChannelId::PRIMARY, 0)
        } else {
            Action::listen(ChannelId::PRIMARY)
        }
    }

    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u32>, _rng: &mut SmallRng) {
        // Every node observes the same outcome (strong CD), so all nodes'
        // stage machines stay in lock-step.
        if feedback.message().is_some() {
            self.status = if self.transmitted {
                Status::Leader
            } else {
                Status::Inactive
            };
            return;
        }
        match self.stage {
            Stage::Search { lo, hi } => {
                let mid = (lo + hi) / 2;
                let (nlo, nhi) = if feedback.is_collision() {
                    // Too many transmitters: need a smaller probability.
                    (mid.saturating_add(1).min(self.max_exp), hi.max(mid + 1))
                } else {
                    // Silence: probability too small.
                    (lo, mid.saturating_sub(1).max(lo))
                };
                self.stage = if nlo >= nhi {
                    Stage::Exploit {
                        center: nhi,
                        step: 0,
                    }
                } else {
                    Stage::Search { lo: nlo, hi: nhi }
                };
            }
            Stage::Exploit { center, step } => {
                // Widen the probe window; after a fruitless full sweep of
                // ±3 around the center, restart the search (the estimate
                // was off — rare, but the race is random).
                self.stage = if step >= 6 {
                    Stage::Search {
                        lo: 0,
                        hi: self.max_exp,
                    }
                } else {
                    Stage::Exploit {
                        center,
                        step: step + 1,
                    }
                };
            }
        }
    }

    fn status(&self) -> Status {
        self.status
    }

    fn phase(&self) -> &'static str {
        match self.stage {
            Stage::Search { .. } => "willard-search",
            Stage::Exploit { .. } => "willard-exploit",
        }
    }
}

impl_terminal_phase!(Willard, "willard");

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{Engine, SimConfig, StopWhen};

    fn rounds_to_solve(n: u64, active: usize, seed: u64) -> u64 {
        let mut exec = Engine::new(SimConfig::new(1).seed(seed).max_rounds(1_000_000))
            .populated((0..active).map(|_| Willard::new(n)));
        exec.run()
            .expect("solves")
            .rounds_to_solve()
            .expect("solved")
    }

    #[test]
    fn solves_across_densities() {
        let n = 1u64 << 16;
        for active in [1usize, 2, 16, 256, 4096, 65536] {
            let r = rounds_to_solve(n, active, 3);
            assert!(r < 2_000, "active={active}: {r} rounds");
        }
    }

    #[test]
    fn expected_rounds_are_loglog_scale() {
        // lg lg n = 5 at n = 2^32... use n = 2^16 (lg lg = 4): means should
        // sit well under lg n = 16.
        let n = 1u64 << 16;
        for active in [8usize, 512, 8192] {
            let mean: f64 = (0..25)
                .map(|s| rounds_to_solve(n, active, s) as f64)
                .sum::<f64>()
                / 25.0;
            assert!(
                mean <= 14.0,
                "|A|={active}: mean {mean} not log-logarithmic"
            );
        }
    }

    #[test]
    fn beats_the_tournament_in_expectation_when_dense() {
        use crate::baselines::CdTournament;
        let n = 1u64 << 16;
        let active = 4096usize;
        let willard: f64 = (0..15)
            .map(|s| rounds_to_solve(n, active, s) as f64)
            .sum::<f64>()
            / 15.0;
        let tournament: f64 = (0..15)
            .map(|s| {
                let mut exec = Engine::new(SimConfig::new(1).seed(s).max_rounds(1_000_000))
                    .populated((0..active).map(|_| CdTournament::new()));
                exec.run()
                    .expect("solves")
                    .rounds_to_solve()
                    .expect("solved") as f64
            })
            .sum::<f64>()
            / 15.0;
        assert!(
            willard < tournament,
            "Willard ({willard}) should beat the lg|A| tournament ({tournament})"
        );
    }

    #[test]
    fn all_nodes_agree_and_terminate() {
        let cfg = SimConfig::new(1)
            .seed(9)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1_000_000);
        let mut exec = Engine::new(cfg).populated((0..200).map(|_| Willard::new(1 << 12)));
        let report = exec.run().expect("terminates");
        assert_eq!(report.leaders.len(), 1);
        assert!(report.active_remaining.is_empty());
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn rejects_tiny_n() {
        let _ = Willard::new(1);
    }
}
