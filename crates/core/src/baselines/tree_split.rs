//! The classic tree-splitting conflict-resolution protocol
//! (Capetanakis / Tsybakov–Mikhailov / Hayes, late 1970s — the lineage
//! behind the paper's references \[9, 13\]).
//!
//! A depth-first search over the id space on a single channel with
//! collision detection: the current interval's members transmit;
//! *silence* discards the interval, a *message* serves its lone member,
//! and a *collision* splits it in two. Because every node observes every
//! round's global outcome, all nodes maintain identical DFS stacks without
//! any coordination.
//!
//! Two readings of the same run:
//!
//! * **one-shot contention resolution** — solved at the first lone
//!   transmission (the first served node is the leader);
//! * **full conflict resolution** — keep going and *every* contender gets
//!   a private slot; with `k` contenders the classic bound is
//!   `O(k + k·log(n/k))` rounds, which the tests check. Compare
//!   [`crate::serialize::SerializeAll`], which achieves the same service
//!   guarantee generically by repeating any election.

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;

use crate::phase::{impl_terminal_phase, PhaseMeter};

/// The tree-splitting protocol. Requires unique ids in `[0, n)`.
///
/// ```
/// use contention::baselines::TreeSplit;
/// use mac_sim::{Engine, SimConfig, StopWhen};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let n = 64;
/// let cfg = SimConfig::new(1).stop_when(StopWhen::AllTerminated);
/// let mut exec = Engine::new(cfg)
///     .populated([3u64, 17, 40, 41].into_iter().map(|id| TreeSplit::new(id, n)));
/// let report = exec.run()?;
/// // One-shot reading: solved at the first lone slot…
/// assert!(report.is_solved());
/// // …full reading: every contender was served.
/// assert!(exec.iter_nodes().all(|t| t.served_at().is_some()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TreeSplit {
    id: u64,
    /// DFS stack of id intervals `[lo, hi)`, top = next to query.
    stack: Vec<(u64, u64)>,
    transmitted: bool,
    /// Round (0-based, local) at which this node transmitted alone.
    served_at: Option<u64>,
    /// Whether any node had been served before this one (first serve wins
    /// the one-shot problem).
    anyone_served: bool,
    status: Status,
    round: u64,
    meter: PhaseMeter,
}

impl TreeSplit {
    /// Creates a contender with unique id `id` out of `n` possible ids.
    ///
    /// # Panics
    ///
    /// Panics unless `id < n` and `n >= 1`.
    #[must_use]
    pub fn new(id: u64, n: u64) -> Self {
        assert!(n >= 1, "n must be at least 1");
        assert!(id < n, "id {id} out of range 0..{n}");
        TreeSplit {
            id,
            stack: vec![(0, n)],
            transmitted: false,
            served_at: None,
            anyone_served: false,
            status: Status::Active,
            round: 0,
            meter: PhaseMeter::default(),
        }
    }

    /// The local round in which this node was served, if it was.
    #[must_use]
    pub fn served_at(&self) -> Option<u64> {
        self.served_at
    }

    /// Rounds participated in.
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.round
    }
}

impl Protocol for TreeSplit {
    type Msg = u32;

    fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u32> {
        self.round += 1;
        match self.stack.last() {
            None => Action::Sleep,
            Some(&(lo, hi)) => {
                self.transmitted = (lo..hi).contains(&self.id);
                if self.transmitted {
                    Action::transmit(ChannelId::PRIMARY, 0)
                } else {
                    Action::listen(ChannelId::PRIMARY)
                }
            }
        }
    }

    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u32>, _rng: &mut SmallRng) {
        let Some((lo, hi)) = self.stack.pop() else {
            return;
        };
        match feedback {
            Feedback::Silence => {
                // Empty interval: discard.
            }
            Feedback::Message(_) => {
                if self.transmitted {
                    self.served_at = Some(self.round - 1);
                    // The first served contender solved the one-shot
                    // problem; later ones are "delivered" but not leader.
                    self.status = if self.anyone_served {
                        Status::Inactive
                    } else {
                        Status::Leader
                    };
                }
                self.anyone_served = true;
            }
            Feedback::Collision => {
                debug_assert!(
                    hi - lo > 1,
                    "collision on a singleton interval: duplicate ids?"
                );
                let mid = lo + (hi - lo) / 2;
                // DFS order: left half next.
                self.stack.push((mid, hi));
                self.stack.push((lo, mid));
            }
            Feedback::TransmittedBlind | Feedback::Slept => {
                debug_assert!(
                    matches!(feedback, Feedback::Slept),
                    "TreeSplit requires strong collision detection"
                );
            }
        }
        if self.stack.is_empty() && self.status == Status::Active {
            // Every interval resolved; a correct run served this node
            // already, but be safe against misuse (duplicate ids).
            self.status = Status::Inactive;
        }
    }

    fn status(&self) -> Status {
        self.status
    }

    fn phase(&self) -> &'static str {
        "tree-split"
    }
}

impl_terminal_phase!(TreeSplit, "tree-split");

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{Engine, SimConfig, StopWhen};

    fn run(n: u64, ids: &[u64]) -> (mac_sim::RunReport, Vec<TreeSplit>) {
        let cfg = SimConfig::new(1)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100_000);
        let mut exec = Engine::new(cfg).populated(ids.iter().map(|&id| TreeSplit::new(id, n)));
        let report = exec.run().expect("resolves");
        let nodes = exec.iter_nodes().cloned().collect();
        (report, nodes)
    }

    #[test]
    fn every_contender_is_served_exactly_once() {
        let ids = [0u64, 1, 5, 31, 32, 63];
        let (report, nodes) = run(64, &ids);
        assert!(report.is_solved());
        assert_eq!(report.leaders.len(), 1);
        let mut slots: Vec<u64> = nodes
            .iter()
            .map(|t| t.served_at().expect("served"))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), ids.len(), "two nodes shared a slot");
    }

    #[test]
    fn service_order_is_id_order() {
        // Left-first DFS serves ids in ascending order.
        let ids = [50u64, 3, 20, 60];
        let (_, nodes) = run(64, &ids);
        let mut order: Vec<(u64, u64)> = nodes
            .iter()
            .map(|t| (t.served_at().expect("served"), t.rounds_run()))
            .zip(ids)
            .map(|((at, _), id)| (at, id))
            .collect();
        order.sort_unstable();
        let served_ids: Vec<u64> = order.into_iter().map(|(_, id)| id).collect();
        assert_eq!(served_ids, vec![3, 20, 50, 60]);
    }

    #[test]
    fn exhaustive_small_universe_all_served() {
        for mask in 1u32..(1 << 8) {
            let ids: Vec<u64> = (0..8).filter(|b| mask & (1 << b) != 0).collect();
            let (report, nodes) = run(8, &ids);
            assert!(report.is_solved(), "ids {ids:?}");
            assert_eq!(report.leaders.len(), 1, "ids {ids:?}");
            assert!(
                nodes.iter().all(|t| t.served_at().is_some()),
                "ids {ids:?}: not all served"
            );
        }
    }

    #[test]
    fn full_resolution_cost_matches_classic_bound() {
        // O(k + k·log(n/k)): check a generous concrete constant.
        for (n, k) in [(1u64 << 10, 4usize), (1 << 10, 32), (1 << 16, 64)] {
            let ids: Vec<u64> = (0..k as u64).map(|i| i * (n / k as u64)).collect();
            let (report, _) = run(n, &ids);
            let bound = 3.0 * (k as f64) * ((n as f64 / k as f64).log2() + 2.0);
            assert!(
                (report.rounds_executed as f64) <= bound,
                "n={n} k={k}: {} rounds > {bound}",
                report.rounds_executed
            );
        }
    }

    #[test]
    fn lone_contender_is_served_fast() {
        let (report, nodes) = run(1 << 20, &[12345]);
        assert!(report.rounds_to_solve().expect("solved") <= 2);
        assert_eq!(
            nodes[0].served_at(),
            Some(report.solved_round.expect("solved"))
        );
    }

    #[test]
    fn dense_activation_is_linear_in_k() {
        let ids: Vec<u64> = (0..256).collect();
        let (report, _) = run(256, &ids);
        // Fully dense: every internal interval collides once, every leaf is
        // a service slot: exactly 2·256 − 1 + ... ≈ 2k rounds.
        assert!(report.rounds_executed <= 3 * 256);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_id() {
        let _ = TreeSplit::new(8, 8);
    }
}
