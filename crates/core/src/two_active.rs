//! `TwoActive` — contention resolution for exactly two active nodes (§4).
//!
//! The algorithm solves the restricted `|A| = 2` case in
//! `O(log n / log C + log log n)` rounds w.h.p., exactly matching the lower
//! bound of \[Newport 2014\]. It has two steps:
//!
//! 1. **ID reduction** (`O(log n / log C)` rounds w.h.p.): both nodes
//!    repeatedly pick a uniform channel from `[C']` (`C'` = the largest
//!    power of two `≤ min(C, n)`) and transmit on it. Strong collision
//!    detection tells each transmitter whether it was alone; the first round
//!    in which the two picks differ, *both* nodes detect success
//!    simultaneously and adopt their channel labels as new ids.
//! 2. **Symmetry breaking** (`O(log log C)` rounds, deterministic): over the
//!    canonical tree `T_{C'}` with `C'` leaves, binary-search the levels for
//!    the smallest level `L` at which the two root-to-leaf paths diverge
//!    (`SplitCheck` in Fig. 1). Each probe of level `m` has both nodes
//!    transmit on the channel given by their level-`m` ancestor's position;
//!    a collision means the paths still share that tree node. At the end,
//!    the node whose level-`L` path node is a *left* child wins and
//!    transmits alone on the primary channel.
//!
//! The implementation is a [`Protocol`] state machine driven by the
//! `mac-sim` executor; [`TwoActive::stats`] exposes per-step round counts
//! for the experiments.

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::phase::{impl_terminal_phase, PhaseMeter};
use crate::tree::{effective_channels, ChannelTree};

/// Per-step round counts, exposed for experiments E1–E4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoActiveStats {
    /// Rounds spent in step 1 (ID reduction).
    pub rename_rounds: u64,
    /// Rounds spent in step 2's binary search (`SplitCheck`).
    pub search_rounds: u64,
    /// The id from `[C']` adopted in step 1, once set.
    pub adopted_id: Option<u32>,
    /// The divergence level `L` found by the search, once set.
    pub split_level: Option<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Step 1: picking random channels until alone.
    Rename,
    /// Step 2: binary search over levels `[l, r]`; when `probed` holds the
    /// level just transmitted on, the next `observe` resolves it.
    Search { l: u32, r: u32 },
    /// Step 2 epilogue: the split level is known; winner transmits on the
    /// primary channel, loser listens.
    Declare { level: u32 },
    /// Terminated.
    Done,
}

/// The two-node algorithm of §4, Fig. 1.
///
/// # Preconditions
///
/// Exactly two nodes must run this protocol in the same execution (that is
/// the problem variant it solves). With `min(C, n) < 2` there is no way to
/// break symmetry through channel choice, so [`TwoActive::new`] rejects it.
///
/// ```
/// use contention::TwoActive;
/// use mac_sim::{Engine, SimConfig};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let c = 64;
/// let n = 1 << 16;
/// let mut exec =
///     Engine::new(SimConfig::new(c).seed(1)).populated([TwoActive::new(c, n), TwoActive::new(c, n)]);
/// let report = exec.run()?;
/// assert!(report.is_solved());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TwoActive {
    tree: ChannelTree,
    state: State,
    status: Status,
    id: u32,
    stats: TwoActiveStats,
    meter: PhaseMeter,
}

impl TwoActive {
    /// Creates a node of the two-node algorithm for `channels` channels and
    /// id-space size `n`.
    ///
    /// Only the largest power of two `≤ min(channels, n)` channels are used:
    /// the paper assumes `C` is a power of two and caps usable channels at
    /// `n` ("for the case where C > n, we use only the first n channels").
    ///
    /// # Panics
    ///
    /// Panics if `min(channels, n) < 2`.
    #[must_use]
    pub fn new(channels: u32, n: u64) -> Self {
        let usable = u64::from(channels).min(n);
        assert!(
            usable >= 2,
            "TwoActive needs at least 2 usable channels (C={channels}, n={n})"
        );
        TwoActive {
            tree: ChannelTree::new(effective_channels(usable as u32)),
            state: State::Rename,
            status: Status::Active,
            id: 0,
            stats: TwoActiveStats::default(),
            meter: PhaseMeter::default(),
        }
    }

    /// The number of channels the algorithm actually uses (`C'`).
    #[must_use]
    pub fn effective_channels(&self) -> u32 {
        self.tree.leaves()
    }

    /// Step statistics, for experiments.
    #[must_use]
    pub fn stats(&self) -> TwoActiveStats {
        self.stats
    }

    /// The channel probed when checking level `m`: the 1-based position of
    /// this node's level-`m` ancestor within its level — the paper's
    /// `⌈id / 2^{lg C − m}⌉`.
    fn probe_channel(&self, m: u32) -> ChannelId {
        ChannelId::new(
            self.tree
                .leaf(self.id)
                .ancestor_at_level(m)
                .position_in_level(),
        )
    }

    /// Whether this node wins at split level `level`: its path node at that
    /// level is a left child. `level == 0` only happens if no collision was
    /// ever observed (the node is alone); it then claims victory.
    fn wins_at(&self, level: u32) -> bool {
        level == 0
            || self
                .tree
                .leaf(self.id)
                .ancestor_at_level(level)
                .is_left_child()
    }
}

impl Protocol for TwoActive {
    type Msg = u32;

    fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        match self.state {
            State::Rename => {
                self.stats.rename_rounds += 1;
                self.id = rng.gen_range(1..=self.tree.leaves());
                Action::transmit(ChannelId::new(self.id), 0)
            }
            State::Search { l, r } => {
                debug_assert!(l < r);
                self.stats.search_rounds += 1;
                let m = (l + r) / 2;
                Action::transmit(self.probe_channel(m), 0)
            }
            State::Declare { level } => {
                if self.wins_at(level) {
                    Action::transmit(ChannelId::PRIMARY, 0)
                } else {
                    Action::listen(ChannelId::PRIMARY)
                }
            }
            State::Done => Action::Sleep,
        }
    }

    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u32>, _rng: &mut SmallRng) {
        match self.state {
            State::Rename => {
                if feedback.message().is_some() {
                    // Alone on the chosen channel: adopt it as the new id.
                    // The other node (if its pick differed) succeeds in the
                    // same round, so both enter the search synchronized.
                    self.stats.adopted_id = Some(self.id);
                    self.state = if self.tree.height() == 0 {
                        State::Declare { level: 0 }
                    } else {
                        State::Search {
                            l: 0,
                            r: self.tree.height(),
                        }
                    };
                }
            }
            State::Search { l, r } => {
                let m = (l + r) / 2;
                let (nl, nr) = if feedback.is_collision() {
                    // Paths share the level-m tree node: split is deeper.
                    (m + 1, r)
                } else {
                    // Alone: paths have already diverged by level m.
                    (l, m)
                };
                self.state = if nl >= nr {
                    self.stats.split_level = Some(nl);
                    State::Declare { level: nl }
                } else {
                    State::Search { l: nl, r: nr }
                };
            }
            State::Declare { level } => {
                if self.wins_at(level) {
                    debug_assert!(
                        feedback.message().is_some(),
                        "symmetry breaking failed: winner's declaration was not alone"
                    );
                    self.status = Status::Leader;
                } else {
                    debug_assert!(
                        feedback.message().is_some(),
                        "symmetry breaking failed: loser heard {feedback:?} instead of winner"
                    );
                    self.status = Status::Inactive;
                }
                self.state = State::Done;
            }
            State::Done => {}
        }
    }

    fn status(&self) -> Status {
        self.status
    }

    fn phase(&self) -> &'static str {
        match self.state {
            State::Rename => "rename",
            State::Search { .. } => "search",
            State::Declare { .. } => "declare",
            State::Done => "done",
        }
    }
}

impl_terminal_phase!(TwoActive, "two-active");

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{Engine, NodeId, SimConfig, SimError, StopWhen};

    fn run_pair(c: u32, n: u64, seed: u64) -> (mac_sim::RunReport, TwoActiveStats, TwoActiveStats) {
        let cfg = SimConfig::new(c)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100_000);
        let mut exec = Engine::new(cfg).populated([TwoActive::new(c, n), TwoActive::new(c, n)]);
        let report = exec.run().expect("run succeeds");
        (
            report,
            exec.node(NodeId(0)).stats(),
            exec.node(NodeId(1)).stats(),
        )
    }

    #[test]
    fn solves_and_elects_exactly_one_leader() {
        for seed in 0..50 {
            let (report, _, _) = run_pair(16, 1 << 12, seed);
            assert!(report.is_solved(), "seed {seed}");
            assert_eq!(report.leaders.len(), 1, "seed {seed}");
            assert!(report.active_remaining.is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn nodes_adopt_distinct_ids() {
        for seed in 0..50 {
            let (_, sa, sb) = run_pair(32, 1 << 10, seed);
            let (ia, ib) = (sa.adopted_id.unwrap(), sb.adopted_id.unwrap());
            assert_ne!(ia, ib, "seed {seed}");
            assert!((1..=32).contains(&ia));
            assert!((1..=32).contains(&ib));
        }
    }

    #[test]
    fn split_level_matches_tree_oracle() {
        for seed in 0..50 {
            let (_, sa, sb) = run_pair(64, 1 << 10, seed);
            let tree = ChannelTree::new(64);
            let want = tree
                .divergence_level(sa.adopted_id.unwrap(), sb.adopted_id.unwrap())
                .unwrap();
            assert_eq!(sa.split_level, Some(want), "seed {seed}");
            assert_eq!(sb.split_level, Some(want), "seed {seed}");
        }
    }

    #[test]
    fn search_rounds_are_logarithmic_in_height() {
        // h = lg C; the binary search over levels [0, h] takes at most
        // ceil(lg(h)) + 1 probes.
        for c in [4u32, 16, 64, 1024, 4096] {
            let h = f64::from(c).log2();
            let cap = h.log2().ceil() as u64 + 1;
            for seed in 0..10 {
                let (_, sa, _) = run_pair(c, 1 << 20, seed);
                assert!(
                    sa.search_rounds <= cap,
                    "C={c}: {} probes > cap {cap}",
                    sa.search_rounds
                );
            }
        }
    }

    #[test]
    fn rename_rounds_shrink_with_more_channels() {
        // Averaged over seeds, the geometric step-1 length has mean
        // C/(C-1); with many channels it should almost always be 1 round.
        let mean = |c: u32| -> f64 {
            let total: u64 = (0..40)
                .map(|s| run_pair(c, 1 << 16, s).1.rename_rounds)
                .sum();
            total as f64 / 40.0
        };
        let coarse = mean(2);
        let fine = mean(1024);
        assert!(
            fine < coarse,
            "more channels must speed renaming: {fine} vs {coarse}"
        );
        assert!(fine <= 1.2, "with C=1024 renaming is ~1 round, got {fine}");
    }

    #[test]
    fn works_with_minimum_channels() {
        for seed in 0..20 {
            let (report, _, _) = run_pair(2, 1 << 8, seed);
            assert!(report.is_solved(), "seed {seed}");
            assert_eq!(report.leaders.len(), 1);
        }
    }

    #[test]
    fn caps_channels_at_n() {
        let ta = TwoActive::new(1 << 20, 16);
        assert_eq!(ta.effective_channels(), 16);
        // And rounds down to a power of two.
        let ta = TwoActive::new(100, 1 << 20);
        assert_eq!(ta.effective_channels(), 64);
    }

    #[test]
    #[should_panic(expected = "at least 2 usable channels")]
    fn rejects_single_channel() {
        let _ = TwoActive::new(1, 1 << 10);
    }

    #[test]
    #[should_panic(expected = "at least 2 usable channels")]
    fn rejects_n_of_one() {
        let _ = TwoActive::new(64, 1);
    }

    #[test]
    fn lone_node_declares_itself_leader() {
        // Robustness beyond the paper: a single node never sees a collision,
        // its search collapses to level 0, and it claims victory.
        let cfg = SimConfig::new(8)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1000);
        let mut exec = Engine::new(cfg).populated([TwoActive::new(8, 256)]);
        let report = exec.run().expect("run succeeds");
        assert_eq!(report.leaders.len(), 1);
        assert!(report.is_solved());
    }

    #[test]
    fn total_rounds_match_theorem_one_budget() {
        // Theorem 1: O(log n / log C + log log n). Check against a generous
        // concrete budget: 4·(lg n / lg C) + 2·lg lg C + 8.
        for (c, n) in [
            (4u32, 1u64 << 16),
            (64, 1 << 16),
            (1024, 1 << 20),
            (2, 1 << 10),
        ] {
            for seed in 0..20 {
                let (report, _, _) = run_pair(c, n, seed);
                let budget = 4.0 * (n as f64).log2() / f64::from(c).log2()
                    + 2.0 * f64::from(c).log2().log2().max(1.0)
                    + 8.0;
                let rounds = report.rounds_to_solve().unwrap() as f64;
                assert!(
                    rounds <= budget,
                    "C={c} n={n} seed={seed}: {rounds} rounds > budget {budget}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (r1, s1a, s1b) = run_pair(32, 1 << 12, 99);
        let (r2, s2a, s2b) = run_pair(32, 1 << 12, 99);
        assert_eq!(r1.solved_round, r2.solved_round);
        assert_eq!(s1a, s2a);
        assert_eq!(s1b, s2b);
    }

    #[test]
    fn timeout_error_propagates() {
        // A one-round cap cannot accommodate the declaration round.
        let cfg = SimConfig::new(4).max_rounds(0);
        let mut exec = Engine::new(cfg).populated([TwoActive::new(4, 16), TwoActive::new(4, 16)]);
        assert_eq!(exec.run().unwrap_err(), SimError::Timeout { max_rounds: 0 });
    }
}
