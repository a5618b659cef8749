//! `IdReduction` — step 2 of the general algorithm (§5.2).
//!
//! Renames the surviving active nodes with *unique* ids from `[C/2]`,
//! reducing the active set further whenever it is still too crowded for
//! renaming to succeed. The schedule repeats a three-round pattern:
//!
//! 1. **Rename round** — every active node picks a uniform channel from
//!    `[C/2]` and transmits; a node that detects it was alone adopts its
//!    channel label as its unique id.
//! 2. **Report round** — everyone goes to the primary channel; the nodes
//!    that just adopted ids transmit. If *any* transmission is heard
//!    (message or collision), the step is over: adopters stay active with
//!    their new ids, everyone else goes inactive.
//! 3. **Reduction round** — every active node transmits on the primary
//!    channel with probability `1/k`, `k = √C/144` (see [`Params`] for why
//!    the executable default differs); listeners who hear anything but
//!    silence go inactive.
//!
//! Theorem 6: starting from `|A| = O(log n)` actives, the step finishes in
//! `O(log n / log C)` rounds w.h.p. with at most `C/2` survivors holding
//! distinct ids from `[C/2]`. The analysis splits into Lemma 7 (reduction
//! rounds push `|A|` below `C/6` fast) and Lemmas 9–10 (a balls-in-bins
//! argument shows renaming then succeeds with probability
//! `≥ 1 − 2^{-lg(C/2)/2}` per attempt).

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::distributions::{Bernoulli, Distribution};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::params::Params;
use crate::phase::{impl_phase_telemetry, Phase, PhaseMeter, PhaseOutcome, PhaseStats};
use crate::tree::ChannelTree;

/// How a node's participation in `IdReduction` ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdReductionOutcome {
    /// The node adopted this unique id from `[C/2]` and remains active.
    Renamed(u32),
    /// The node was eliminated (renamed away by others, or knocked out in a
    /// reduction round).
    Eliminated,
}

/// Per-node counters exposed for experiment E6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdReductionStats {
    /// Number of rename rounds participated in.
    pub rename_rounds: u64,
    /// Number of reduction rounds participated in.
    pub reduction_rounds: u64,
    /// Total rounds (renames + reports + reductions), read from the
    /// node's phase meter.
    pub total_rounds: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubRound {
    Rename,
    Report,
    Reduce,
}

/// The renaming/reduction protocol of §5.2.
///
/// All active nodes move through the three-round schedule in lockstep and
/// the step ends for everyone in the same (report) round, which is what
/// lets [`crate::FullAlgorithm`] chain `LeafElection` synchronously.
///
/// ```
/// use contention::{IdReduction, IdReductionOutcome, Params};
/// use mac_sim::{Engine, SimConfig, StopWhen};
/// use std::collections::HashSet;
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let c = 64;
/// let cfg = SimConfig::new(c).seed(11).stop_when(StopWhen::AllTerminated);
/// let mut exec = Engine::new(cfg)
///     .populated((0..12).map(|_| IdReduction::new(Params::practical(), c)));
/// exec.run()?;
/// let ids: Vec<u32> = exec
///     .iter_nodes()
///     .filter_map(|p| match p.outcome() {
///         Some(IdReductionOutcome::Renamed(id)) => Some(id),
///         _ => None,
///     })
///     .collect();
/// assert!(!ids.is_empty());
/// let distinct: HashSet<u32> = ids.iter().copied().collect();
/// assert_eq!(distinct.len(), ids.len(), "adopted ids must be unique");
/// assert!(ids.iter().all(|&id| id <= c / 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IdReduction {
    /// Renaming range `[1, c_half]`.
    c_half: u32,
    /// The reduction rounds' transmit draw, at the knock-out probability
    /// `1/k` (capped at 1).
    knock: Bernoulli,
    sub: SubRound,
    /// Channel picked in the current rename round, kept if alone.
    candidate: Option<u32>,
    transmitted: bool,
    outcome: Option<IdReductionOutcome>,
    stats: IdReductionStats,
    meter: PhaseMeter,
}

impl IdReduction {
    /// Creates an `IdReduction` node for `channels` channels.
    ///
    /// The renaming range is `[C'/2]`, the leaves of
    /// [`ChannelTree::for_election`] (`C'` is the largest power of two
    /// `≤ channels`; the paper assumes `C` is a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `channels < 2`, or if `params` give a negative
    /// knock-out constant `k`.
    #[must_use]
    pub fn new(params: Params, channels: u32) -> Self {
        assert!(channels >= 2, "IdReduction needs C >= 2, got {channels}");
        IdReduction {
            c_half: ChannelTree::for_election(channels).leaves(),
            knock: Bernoulli::new((1.0 / params.knock_k(channels)).min(1.0))
                .expect("k is positive, so 1/k capped at 1 lies in [0, 1]"),
            sub: SubRound::Rename,
            candidate: None,
            transmitted: false,
            outcome: None,
            stats: IdReductionStats::default(),
            meter: PhaseMeter::default(),
        }
    }

    /// How this node's participation ended, once it has.
    #[must_use]
    pub fn outcome(&self) -> Option<IdReductionOutcome> {
        self.outcome
    }

    /// The renaming range: adopted ids are in `1..=rename_range()`.
    #[must_use]
    pub fn rename_range(&self) -> u32 {
        self.c_half
    }

    /// Round counters for experiments.
    #[must_use]
    pub fn stats(&self) -> IdReductionStats {
        IdReductionStats {
            total_rounds: self.meter.rounds(),
            ..self.stats
        }
    }
}

impl Protocol for IdReduction {
    type Msg = u32;

    fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        debug_assert!(self.outcome.is_none(), "terminated node must not act");
        let action = match self.sub {
            SubRound::Rename => {
                self.stats.rename_rounds += 1;
                let pick = rng.gen_range(1..=self.c_half);
                self.candidate = Some(pick);
                self.transmitted = true;
                Action::transmit(ChannelId::new(pick), 0)
            }
            SubRound::Report => {
                if self.candidate.is_some() {
                    self.transmitted = true;
                    Action::transmit(ChannelId::PRIMARY, 0)
                } else {
                    self.transmitted = false;
                    Action::listen(ChannelId::PRIMARY)
                }
            }
            SubRound::Reduce => {
                self.stats.reduction_rounds += 1;
                self.transmitted = self.knock.sample(rng);
                if self.transmitted {
                    Action::transmit(ChannelId::PRIMARY, 0)
                } else {
                    Action::listen(ChannelId::PRIMARY)
                }
            }
        };
        self.meter.on_act(&action);
        action
    }

    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u32>, _rng: &mut SmallRng) {
        match self.sub {
            SubRound::Rename => {
                // Keep the candidate only if this node was alone on it.
                if feedback.message().is_none() {
                    self.candidate = None;
                }
                self.sub = SubRound::Report;
            }
            SubRound::Report => {
                let any_transmission = !feedback.is_silence();
                if any_transmission {
                    self.outcome = Some(match self.candidate {
                        Some(id) => IdReductionOutcome::Renamed(id),
                        None => IdReductionOutcome::Eliminated,
                    });
                } else {
                    self.sub = SubRound::Reduce;
                }
                self.candidate = None;
            }
            SubRound::Reduce => {
                if !self.transmitted && !feedback.is_silence() {
                    self.outcome = Some(IdReductionOutcome::Eliminated);
                }
                self.sub = SubRound::Rename;
            }
        }
    }

    fn status(&self) -> Status {
        match self.outcome {
            None => Status::Active,
            // Renamed nodes are "done with this step"; standalone runs end
            // here, and the full algorithm takes over before status is read.
            Some(_) => Status::Inactive,
        }
    }

    fn phase(&self) -> &'static str {
        match self.sub {
            SubRound::Rename => "id-rename",
            SubRound::Report => "id-report",
            SubRound::Reduce => "id-reduce",
        }
    }
}

/// As a [`Phase`], `IdReduction` *completes* with the adopted id (the
/// typed value the next step consumes — [`crate::LeafElection`] maps it to
/// a leaf) and *terminates* eliminated nodes. The spine record carries the
/// id in [`PhaseStats::adopted_id`].
impl Phase for IdReduction {
    type Output = u32;

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        Protocol::act(self, ctx, rng)
    }

    fn observe(
        &mut self,
        ctx: &RoundContext,
        feedback: Feedback<u32>,
        rng: &mut SmallRng,
    ) -> Option<PhaseOutcome<u32>> {
        Protocol::observe(self, ctx, feedback, rng);
        Phase::outcome(self)
    }

    fn outcome(&self) -> Option<PhaseOutcome<u32>> {
        match self.outcome {
            None => None,
            Some(IdReductionOutcome::Renamed(id)) => Some(PhaseOutcome::Complete(id)),
            Some(IdReductionOutcome::Eliminated) => {
                Some(PhaseOutcome::Terminated(Status::Inactive))
            }
        }
    }

    fn name(&self) -> &'static str {
        "id-reduction"
    }

    fn label(&self) -> &'static str {
        Protocol::phase(self)
    }

    fn collect_stats(&self, out: &mut Vec<PhaseStats>) {
        let mut record = self.meter.snapshot("id-reduction");
        if let Some(IdReductionOutcome::Renamed(id)) = self.outcome {
            record.adopted_id = Some(id);
        }
        out.push(record);
    }
}

impl_phase_telemetry!(IdReduction);

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{Engine, SimConfig, StopWhen};
    use std::collections::HashSet;

    fn run(c: u32, active: usize, seed: u64) -> (mac_sim::RunReport, Vec<IdReductionOutcome>) {
        let cfg = SimConfig::new(c)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100_000);
        let mut exec = Engine::new(cfg)
            .populated((0..active).map(|_| IdReduction::new(Params::practical(), c)));
        let report = exec.run().expect("run succeeds");
        let outcomes = exec.iter_nodes().map(|p| p.outcome().unwrap()).collect();
        (report, outcomes)
    }

    fn renamed_ids(outcomes: &[IdReductionOutcome]) -> Vec<u32> {
        outcomes
            .iter()
            .filter_map(|o| match o {
                IdReductionOutcome::Renamed(id) => Some(*id),
                IdReductionOutcome::Eliminated => None,
            })
            .collect()
    }

    #[test]
    fn renamed_ids_are_unique_and_in_range() {
        for seed in 0..30 {
            let (_, outcomes) = run(64, 20, seed);
            let ids = renamed_ids(&outcomes);
            assert!(!ids.is_empty(), "seed {seed}: nobody renamed");
            let set: HashSet<u32> = ids.iter().copied().collect();
            assert_eq!(set.len(), ids.len(), "seed {seed}: duplicate ids {ids:?}");
            assert!(ids.iter().all(|&id| (1..=32).contains(&id)), "seed {seed}");
        }
    }

    #[test]
    fn survivor_count_at_most_c_half() {
        for seed in 0..20 {
            let (_, outcomes) = run(16, 64, seed);
            assert!(renamed_ids(&outcomes).len() <= 8, "seed {seed}");
        }
    }

    #[test]
    fn single_node_renames_immediately_and_solves() {
        let (report, outcomes) = run(64, 1, 0);
        assert_eq!(renamed_ids(&outcomes).len(), 1);
        // Its lone report transmission on the primary channel solves the
        // problem as a byproduct.
        assert!(report.is_solved());
        assert!(report.rounds_executed <= 2);
    }

    #[test]
    fn small_active_sets_rename_in_one_attempt_with_many_channels() {
        // With |A| << sqrt(C/2), the birthday bound makes the first attempt
        // succeed almost surely.
        let mut total_rounds = 0u64;
        for seed in 0..20 {
            let (report, _) = run(4096, 5, seed);
            total_rounds += report.rounds_executed;
        }
        // One rename + one report = 2 rounds when the first attempt works.
        assert!(
            total_rounds <= 20 * 3,
            "expected ~2 rounds per run, got {total_rounds} total"
        );
    }

    #[test]
    fn crowded_start_still_terminates_with_unique_ids() {
        // |A| far above C/6 forces reduction rounds to do real work first.
        for seed in 0..10 {
            let (_, outcomes) = run(32, 500, seed);
            let ids = renamed_ids(&outcomes);
            assert!(!ids.is_empty(), "seed {seed}");
            let set: HashSet<u32> = ids.iter().copied().collect();
            assert_eq!(set.len(), ids.len(), "seed {seed}");
        }
    }

    #[test]
    fn rounds_scale_like_log_n_over_log_c() {
        // Fixing |A| = 24 (= Θ(log n) for n = 2^24) and growing C must not
        // grow the round count; with large C it collapses to ~2 rounds.
        let mean = |c: u32| -> f64 {
            let mut total = 0u64;
            for seed in 0..30 {
                let (report, _) = run(c, 24, seed);
                total += report.rounds_executed;
            }
            total as f64 / 30.0
        };
        let small = mean(16);
        let large = mean(1 << 14);
        assert!(
            large <= small,
            "rounds must not grow with C: {large} vs {small}"
        );
        assert!(
            large < 4.0,
            "with C=16384 renaming is ~1 attempt, got {large}"
        );
    }

    #[test]
    fn rename_range_uses_power_of_two_floor() {
        let idr = IdReduction::new(Params::practical(), 100);
        assert_eq!(idr.rename_range(), 32); // prevpow2(100) = 64, halved
        let idr = IdReduction::new(Params::practical(), 2);
        assert_eq!(idr.rename_range(), 1);
        let idr = IdReduction::new(Params::practical(), 3);
        assert_eq!(idr.rename_range(), 1);
    }

    #[test]
    #[should_panic(expected = "C >= 2")]
    fn rejects_single_channel() {
        let _ = IdReduction::new(Params::practical(), 1);
    }

    #[test]
    fn paper_params_work_at_large_c() {
        // With the literal k = sqrt(C)/144 the knock probability is ~1 for
        // C = 2^22 (k clamps to 3 until C is astronomically large)... the
        // clamp keeps the algorithm functional either way.
        let (_, outcomes) = {
            let cfg = SimConfig::new(1 << 12)
                .seed(5)
                .stop_when(StopWhen::AllTerminated)
                .max_rounds(100_000);
            let mut exec = Engine::new(cfg)
                .populated((0..40).map(|_| IdReduction::new(Params::paper(), 1 << 12)));
            let report = exec.run().expect("run succeeds");
            let outcomes: Vec<_> = exec.iter_nodes().map(|p| p.outcome().unwrap()).collect();
            (report, outcomes)
        };
        let ids = renamed_ids(&outcomes);
        assert!(!ids.is_empty());
        let set: HashSet<u32> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len());
    }

    #[test]
    fn stats_count_rounds() {
        let (_, _) = run(16, 10, 3);
        let cfg = SimConfig::new(16)
            .seed(3)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(10_000);
        let mut exec =
            Engine::new(cfg).populated((0..10).map(|_| IdReduction::new(Params::practical(), 16)));
        exec.run().unwrap();
        for node in exec.iter_nodes() {
            let s = node.stats();
            assert!(s.total_rounds >= s.rename_rounds + s.reduction_rounds);
            assert!(s.rename_rounds >= 1);
        }
    }
}
