//! Single-channel contention resolution **without** collision detection:
//! the classic decay probability cycle, `O(log² n)` rounds w.h.p.
//!
//! Without collision detection a node cannot distinguish a collision from
//! silence, so knock-out strategies are unavailable; instead every node
//! transmits with a probability cycling through
//! `1/2, 1/4, …, 2^{-⌈lg n⌉}`. When the probability ≈ `1/|A|`, some node is
//! alone on the channel with constant probability, so `O(log n)` full
//! cycles — `O(log² n)` rounds — suffice w.h.p. Jurdziński–Stachowiak
//! (2002) proved this near-optimal for uniform algorithms and Newport
//! (2014) for all algorithms, which is why the gap to the collision-
//! detection world is a real model separation and not an algorithmic
//! artifact.

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::phase::{impl_terminal_phase, PhaseMeter};

/// The decay-cycle protocol. Nodes never learn the outcome (they have no
/// collision detector and transmitters are blind), so runs should use
/// [`mac_sim::StopWhen::Solved`]: the executor detects the solving round
/// even though the protocol itself cannot.
///
/// ```
/// use contention::baselines::Decay;
/// use mac_sim::{CdMode, Engine, SimConfig};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let cfg = SimConfig::new(1).seed(3).cd_mode(CdMode::None);
/// let mut exec = Engine::new(cfg).populated((0..50).map(|_| Decay::new(1 << 10)));
/// assert!(exec.run()?.is_solved());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Decay {
    /// Cycle length `⌈lg n⌉`.
    cycle: u32,
    /// Rounds participated in so far (drives the cycle position).
    round: u64,
    /// Knocked out by hearing another node's lone transmission (possible
    /// even without collision detection).
    status: Status,
    transmitted: bool,
    meter: PhaseMeter,
}

impl Decay {
    /// Creates a decay node for `n` possible nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "the model requires n >= 2, got {n}");
        Decay {
            cycle: (n as f64).log2().ceil() as u32,
            round: 0,
            status: Status::Active,
            transmitted: false,
            meter: PhaseMeter::default(),
        }
    }

    /// The transmit probability used in round `r` (0-based): `2^{-j}` with
    /// `j = (r mod cycle) + 1`.
    #[must_use]
    pub fn probability_at(&self, round: u64) -> f64 {
        let j = (round % u64::from(self.cycle)) + 1;
        0.5f64.powi(j as i32)
    }
}

impl Protocol for Decay {
    type Msg = u32;

    fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        let p = self.probability_at(self.round);
        self.round += 1;
        self.transmitted = rng.gen_bool(p);
        if self.transmitted {
            Action::transmit(ChannelId::PRIMARY, 0)
        } else {
            Action::listen(ChannelId::PRIMARY)
        }
    }

    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u32>, _rng: &mut SmallRng) {
        // Even without collision detection, a listener that receives a lone
        // message knows someone won and can retire.
        if !self.transmitted && feedback.message().is_some() {
            self.status = Status::Inactive;
        }
    }

    fn status(&self) -> Status {
        self.status
    }

    fn phase(&self) -> &'static str {
        "decay"
    }
}

impl_terminal_phase!(Decay, "decay");

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{CdMode, Engine, SimConfig};

    fn rounds_to_solve(n: u64, active: usize, seed: u64) -> u64 {
        let cfg = SimConfig::new(1)
            .seed(seed)
            .cd_mode(CdMode::None)
            .max_rounds(1_000_000);
        let mut exec = Engine::new(cfg).populated((0..active).map(|_| Decay::new(n)));
        exec.run().expect("run succeeds").rounds_to_solve().unwrap()
    }

    #[test]
    fn solves_for_various_densities() {
        for active in [1usize, 2, 10, 100, 1000] {
            let r = rounds_to_solve(1 << 10, active, 7);
            assert!(r < 10_000, "active={active}: {r} rounds");
        }
    }

    #[test]
    fn rounds_scale_like_log_squared() {
        // Budget: 12 * lg(n)^2 + 50 over a handful of seeds.
        for n_pow in [6u32, 10, 14] {
            let n = 1u64 << n_pow;
            let budget = 12 * u64::from(n_pow) * u64::from(n_pow) + 50;
            for seed in 0..5 {
                let r = rounds_to_solve(n, (n / 2) as usize, seed);
                assert!(r <= budget, "n=2^{n_pow} seed={seed}: {r} > {budget}");
            }
        }
    }

    #[test]
    fn probability_cycle_wraps() {
        let d = Decay::new(16); // cycle = 4
        assert_eq!(d.probability_at(0), 0.5);
        assert_eq!(d.probability_at(3), 1.0 / 16.0);
        assert_eq!(d.probability_at(4), 0.5);
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn rejects_tiny_n() {
        let _ = Decay::new(1);
    }
}
