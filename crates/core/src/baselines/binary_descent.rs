//! The classic single-channel collision-detection algorithm: binary descent
//! over the id space `[n]` to find the smallest active id.
//!
//! All active nodes maintain the same candidate range (initially `[0, n)`).
//! Each round, the actives whose id lies in the *left half* transmit on the
//! primary channel while the rest listen. Anything but silence means the
//! left half is occupied (the right half gives up); silence means it is
//! empty (descend right). After `⌈lg n⌉` halvings one id remains and its
//! owner transmits alone.
//!
//! This solves contention resolution in `O(log n)` rounds *with probability
//! 1*, and was the best known upper bound for multiple channels with
//! collision detection before this paper (§2) — making it the headline
//! baseline of experiment E9. It is also optimal for the single-channel
//! case \[Newport 2014\].

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;

use crate::phase::{impl_terminal_phase, PhaseMeter};

/// The deterministic descent protocol. Requires each node to know a unique
/// id in `[0, n)` — an assumption the paper's own algorithms avoid, but
/// which its lower bounds permit (they hold even with ids).
///
/// ```
/// use contention::baselines::BinaryDescent;
/// use mac_sim::{Engine, SimConfig};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let n = 1u64 << 10;
/// let mut exec = Engine::new(SimConfig::new(1))
///     .populated([17u64, 400, 900].into_iter().map(|id| BinaryDescent::new(id, n)));
/// let report = exec.run()?;
/// // The smallest active id always wins.
/// assert!(report.rounds_to_solve().unwrap() <= 11);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BinaryDescent {
    id: u64,
    lo: u64,
    hi: u64,
    transmitted: bool,
    status: Status,
    rounds: u64,
    meter: PhaseMeter,
}

impl BinaryDescent {
    /// Creates a node with unique id `id` out of `n` possible ids.
    ///
    /// # Panics
    ///
    /// Panics unless `id < n` and `n >= 1`.
    #[must_use]
    pub fn new(id: u64, n: u64) -> Self {
        assert!(n >= 1, "n must be at least 1");
        assert!(id < n, "id {id} out of range 0..{n}");
        BinaryDescent {
            id,
            lo: 0,
            hi: n,
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

    /// The current candidate range `[lo, hi)`.
    #[must_use]
    pub fn range(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }
}

impl Protocol for BinaryDescent {
    type Msg = u32;

    fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u32> {
        self.rounds += 1;
        if self.hi - self.lo == 1 {
            // Only this node's id remains: claim victory.
            debug_assert_eq!(self.id, self.lo);
            self.transmitted = true;
            return Action::transmit(ChannelId::PRIMARY, 0);
        }
        let mid = self.lo + (self.hi - self.lo) / 2;
        self.transmitted = self.id < mid;
        if self.transmitted {
            Action::transmit(ChannelId::PRIMARY, 0)
        } else {
            Action::listen(ChannelId::PRIMARY)
        }
    }

    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u32>, _rng: &mut SmallRng) {
        if self.hi - self.lo == 1 {
            debug_assert!(
                feedback.message().is_some(),
                "final claim collided; duplicate ids?"
            );
            self.status = Status::Leader;
            return;
        }
        let mid = self.lo + (self.hi - self.lo) / 2;
        if feedback.is_silence() {
            // Left half empty: the winner is on the right.
            self.lo = mid;
        } else if self.transmitted {
            // Left half occupied and we are in it: descend left.
            self.hi = mid;
        } else {
            // Left half occupied and we are not in it: we cannot win.
            self.status = Status::Inactive;
        }
    }

    fn status(&self) -> Status {
        self.status
    }

    fn phase(&self) -> &'static str {
        "binary-descent"
    }
}

impl_terminal_phase!(BinaryDescent, "binary-descent");

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{Engine, SimConfig, StopWhen};

    fn run(n: u64, ids: &[u64]) -> mac_sim::RunReport {
        let cfg = SimConfig::new(1)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(10_000);
        let mut exec = Engine::new(cfg).populated(ids.iter().map(|&id| BinaryDescent::new(id, n)));
        exec.run().expect("run succeeds")
    }

    #[test]
    fn smallest_id_wins_always() {
        let report = run(16, &[3, 7, 12, 15]);
        assert_eq!(report.leaders.len(), 1);
        // Node order matches insertion order; id 3 is node 0.
        assert_eq!(report.leaders[0].0, 0);
    }

    #[test]
    fn exhaustive_small_universe() {
        // Every nonempty activation pattern over n = 8 elects the minimum.
        for mask in 1u32..(1 << 8) {
            let ids: Vec<u64> = (0..8).filter(|b| mask & (1 << b) != 0).collect();
            let report = run(8, &ids);
            assert_eq!(report.leaders.len(), 1, "ids {ids:?}");
            assert_eq!(
                report.leaders[0].0, 0,
                "ids {ids:?} (min is inserted first)"
            );
            assert!(report.is_solved(), "ids {ids:?}");
        }
    }

    #[test]
    fn rounds_bounded_by_lg_n_plus_one() {
        for n_pow in [4u32, 8, 12] {
            let n = 1u64 << n_pow;
            let ids = [n - 1, n - 2, n / 2, 1];
            let report = run(n, &ids);
            assert!(
                report.rounds_executed <= u64::from(n_pow) + 1,
                "n=2^{n_pow}: took {} rounds",
                report.rounds_executed
            );
        }
    }

    #[test]
    fn lone_node_solves_fast() {
        // A lone transmitter on the primary channel solves the problem the
        // first time its half is probed.
        let report = run(1 << 20, &[0]);
        assert!(report.rounds_to_solve().unwrap() <= 1);
    }

    #[test]
    fn deterministic_rounds() {
        let a = run(1 << 10, &[100, 900]).rounds_executed;
        let b = run(1 << 10, &[100, 900]).rounds_executed;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_id() {
        let _ = BinaryDescent::new(8, 8);
    }
}
