//! Coin-flip knock-out on a single channel with collision detection.
//!
//! Every round, each active node flips a fair coin: heads → transmit on the
//! primary channel, tails → listen. A lone transmitter hears its own message
//! and wins; a listener that hears anything gets knocked out; rounds where
//! everyone transmitted (collision) or everyone listened (silence) change
//! nothing. Each effective round halves the contenders in expectation, so
//! the protocol finishes in `O(log n)` rounds w.h.p. — without requiring
//! node ids.
//!
//! The paper's general algorithm uses this as its small-`C` fallback
//! (`C = O(1)` makes the lower bound `Ω(log n)`, which this matches).

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::phase::{impl_terminal_phase, PhaseMeter};

/// The id-free single-channel collision-detection knock-out.
///
/// ```
/// use contention::baselines::CdTournament;
/// use mac_sim::{Engine, SimConfig};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let mut exec = Engine::new(SimConfig::new(1).seed(5))
///     .populated((0..100).map(|_| CdTournament::new()));
/// assert!(exec.run()?.is_solved());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CdTournament {
    transmitted: bool,
    status: Status,
    rounds: u64,
    meter: PhaseMeter,
}

impl CdTournament {
    /// Creates a tournament node.
    #[must_use]
    pub fn new() -> Self {
        CdTournament::default()
    }

    /// Rounds participated in.
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.rounds
    }
}

impl Protocol for CdTournament {
    type Msg = u32;

    fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        self.rounds += 1;
        self.transmitted = rng.gen_bool(0.5);
        if self.transmitted {
            Action::transmit(ChannelId::PRIMARY, 0)
        } else {
            Action::listen(ChannelId::PRIMARY)
        }
    }

    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u32>, _rng: &mut SmallRng) {
        if self.transmitted {
            if feedback.message().is_some() {
                self.status = Status::Leader;
            }
        } else if !feedback.is_silence() {
            self.status = Status::Inactive;
        }
    }

    fn status(&self) -> Status {
        self.status
    }

    fn phase(&self) -> &'static str {
        "cd-tournament"
    }
}

impl_terminal_phase!(CdTournament, "cd-tournament");

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{Engine, SimConfig, StopWhen};

    #[test]
    fn elects_exactly_one_leader() {
        for seed in 0..30 {
            let cfg = SimConfig::new(1)
                .seed(seed)
                .stop_when(StopWhen::AllTerminated)
                .max_rounds(10_000);
            let mut exec = Engine::new(cfg).populated((0..64).map(|_| CdTournament::new()));
            let report = exec.run().expect("run succeeds");
            assert_eq!(report.leaders.len(), 1, "seed {seed}");
            assert!(report.is_solved());
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        // 2^k contenders should finish within ~8*lg(n)+20 rounds w.h.p.
        for (n, cap) in [(16u64, 60u64), (256, 90), (4096, 130)] {
            for seed in 0..10 {
                let cfg = SimConfig::new(1).seed(seed).max_rounds(100_000);
                let mut exec = Engine::new(cfg).populated((0..n).map(|_| CdTournament::new()));
                let report = exec.run().expect("run succeeds");
                let rounds = report.rounds_to_solve().unwrap();
                assert!(rounds <= cap, "n={n} seed={seed}: {rounds} > {cap}");
            }
        }
    }

    #[test]
    fn lone_node_wins_quickly() {
        let cfg = SimConfig::new(1).seed(0).max_rounds(200);
        let mut exec = Engine::new(cfg).populated([CdTournament::new()]);
        let report = exec.run().expect("run succeeds");
        assert!(report.rounds_to_solve().unwrap() <= 64);
    }
}
