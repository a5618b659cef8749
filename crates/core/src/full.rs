//! The composed general algorithm of §5 (Theorem 4):
//! `Reduce → IdReduction → LeafElection`, solving contention resolution for
//! any number of active nodes in
//! `O(log n / log C + (log log n)(log log log n))` rounds w.h.p.
//!
//! For `C` below a constant the multi-channel machinery cannot help (the
//! lower bound degenerates to `Ω(log n)`), so — exactly as the paper's
//! analysis prescribes — the algorithm falls back to an optimal
//! single-channel collision-detection protocol
//! ([`crate::baselines::CdTournament`]).
//!
//! All three steps are globally synchronized: `Reduce` runs for a fixed
//! number of rounds, and `IdReduction` ends for every participant in the
//! same report round, so survivors enter each next step in lockstep. That
//! is precisely the barrier-handoff semantics of
//! [`Phase::and_then`](crate::phase::Phase::and_then), and this module
//! *is* that composition: [`FullAlgorithm`] is a thin facade over the
//! [`PaperStack`] phase stack
//!
//! ```text
//! reduce.and_then(id_reduction).and_then(leaf_election)
//!       .with_fallback(C < fallback_threshold, cd_tournament)
//! ```
//!
//! running on the engine through [`crate::phase::PhaseProtocol`].

use mac_sim::{Action, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;

use crate::baselines::CdTournament;
use crate::id_reduction::IdReduction;
use crate::leaf_election::LeafElection;
use crate::params::Params;
use crate::phase::{
    AndThen, NextPhase, Phase, PhaseProtocol, PhaseStats, PhaseTelemetry, WithFallback,
};
use crate::reduce::Reduce;
use crate::supervise::{BuildPhase, RestartPolicy, Supervised};

/// Which step of the pipeline a [`FullAlgorithm`] node finished in, plus the
/// id it adopted if it reached step 3. Exposed for experiments E9–E11.
///
/// This is a *view* computed from the node's per-phase telemetry spine
/// (see [`PhaseStats`] and [`PhaseTelemetry`]) — the spine is the source
/// of truth, and [`FullAlgorithm::phase_stats`](PhaseTelemetry::phase_stats)
/// exposes it directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullStats {
    /// Rounds spent in step 1 (`Reduce`).
    pub reduce_rounds: u64,
    /// Rounds spent in step 2 (`IdReduction`).
    pub id_reduction_rounds: u64,
    /// Rounds spent in step 3 (`LeafElection`).
    pub election_rounds: u64,
    /// The unique id from `[C/2]` adopted in step 2, if the node got there.
    pub adopted_id: Option<u32>,
    /// Whether the single-channel fallback was used instead of the pipeline.
    pub used_fallback: bool,
}

/// Builds step 2 ([`IdReduction`]) when step 1 ([`Reduce`]) completes.
///
/// A named [`NextPhase`] builder (rather than a closure) so that
/// [`PaperStack`] is a nameable type that derives `Debug` and `Clone`.
/// Every paper-stack node carries one, and few ever use it, so it holds
/// only the constants `IdReduction` reads rather than all of [`Params`].
#[derive(Debug, Clone, Copy)]
pub struct MakeIdReduction {
    knock_divisor: f64,
    min_k: f64,
    channels: u32,
}

impl NextPhase<()> for MakeIdReduction {
    type Phase = IdReduction;

    fn build(&mut self, (): ()) -> IdReduction {
        let params = Params {
            knock_divisor: self.knock_divisor,
            min_k: self.min_k,
            ..Params::practical()
        };
        IdReduction::new(params, self.channels)
    }
}

/// Builds step 3 ([`LeafElection`]) from the id adopted in step 2.
#[derive(Debug, Clone, Copy)]
pub struct MakeLeafElection {
    channels: u32,
}

impl NextPhase<u32> for MakeLeafElection {
    type Phase = LeafElection;

    fn build(&mut self, id: u32) -> LeafElection {
        LeafElection::new(self.channels, id)
    }
}

/// The paper's Theorem 4 pipeline as a composed phase stack:
/// `Reduce → IdReduction → LeafElection`, with the single-channel
/// [`CdTournament`] branch when `C` is below the fallback threshold.
pub type PaperStack = WithFallback<
    AndThen<AndThen<Reduce, IdReduction, MakeIdReduction>, LeafElection, MakeLeafElection>,
    CdTournament,
>;

/// Builds fresh [`PaperStack`] instances — the [`BuildPhase`] factory a
/// [`Supervised`] wrapper uses to restart the Theorem 4 pipeline from a
/// clean state after a wedge. Named (rather than a closure) so that
/// [`SupervisedPaperStack`] is a nameable type.
#[derive(Debug, Clone, Copy)]
pub struct MakePaperStack {
    /// Pipeline constants.
    pub params: Params,
    /// Channel count `C`.
    pub channels: u32,
    /// Universe size `n`.
    pub n: u64,
}

impl BuildPhase for MakePaperStack {
    type Phase = PaperStack;

    #[inline]
    fn build(&mut self) -> PaperStack {
        let use_fallback = self.channels < self.params.fallback_below_channels;
        Reduce::with_params(self.params, self.n)
            .and_then(MakeIdReduction {
                knock_divisor: self.params.knock_divisor,
                min_k: self.params.min_k,
                channels: self.channels,
            })
            .and_then(MakeLeafElection {
                channels: self.channels,
            })
            .with_fallback(use_fallback, CdTournament::new())
    }
}

/// The paper pipeline under restart-with-backoff supervision (see
/// [`crate::supervise`]): a wedge under faults restarts the whole
/// `Reduce → IdReduction → LeafElection` stack from clean state on a
/// fresh derived RNG stream.
pub type SupervisedPaperStack = Supervised<PaperStack, MakePaperStack>;

/// A supervised paper-pipeline node: [`SupervisedPaperStack`] adapted to
/// run on the engine, telemetry included. Experiment E19 and
/// [`crate::session::Algorithm::SupervisedPaper`] both build nodes here.
///
/// # Panics
///
/// Panics if `channels < 1`.
#[must_use]
pub fn supervised_paper_node(
    params: Params,
    channels: u32,
    n: u64,
    policy: RestartPolicy,
) -> PhaseProtocol<SupervisedPaperStack> {
    assert!(channels >= 1, "the model requires C >= 1");
    let make = MakePaperStack {
        params,
        channels,
        n,
    };
    PhaseProtocol::new(Supervised::new(make, policy))
}

/// The paper's general contention-resolution algorithm (Theorem 4).
///
/// Every activated node runs one instance; `n` is the (known) maximum
/// number of nodes and `channels` the number of available channels.
///
/// ```
/// use contention::{FullAlgorithm, Params};
/// use mac_sim::{Engine, SimConfig};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let (c, n) = (128u32, 1u64 << 14);
/// let mut exec = Engine::new(SimConfig::new(c).seed(2))
///     .populated((0..1000).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
/// assert!(exec.run()?.is_solved());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FullAlgorithm {
    inner: PhaseProtocol<PaperStack>,
}

impl FullAlgorithm {
    /// Creates a node of the general algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `channels < 1`.
    #[must_use]
    #[inline]
    pub fn new(params: Params, channels: u32, n: u64) -> Self {
        assert!(channels >= 1, "the model requires C >= 1");
        let stack = MakePaperStack {
            params,
            channels,
            n,
        }
        .build();
        FullAlgorithm {
            inner: PhaseProtocol::new(stack),
        }
    }

    /// Per-step round counters and outcome details, as a [`FullStats`]
    /// view over the telemetry spine.
    #[must_use]
    pub fn stats(&self) -> FullStats {
        let mut stats = FullStats {
            used_fallback: self.inner.inner().is_fallback(),
            ..FullStats::default()
        };
        for record in self.inner.phase_stats() {
            match record.name {
                "reduce" => stats.reduce_rounds = record.rounds,
                "id-reduction" => {
                    stats.id_reduction_rounds = record.rounds;
                    stats.adopted_id = record.adopted_id;
                }
                "leaf-election" => stats.election_rounds = record.rounds,
                _ => {}
            }
        }
        stats
    }

    /// The step this node is currently in, as a short label.
    #[must_use]
    pub fn stage_name(&self) -> &'static str {
        if self.inner.is_settled() {
            return "done";
        }
        match self.inner.inner().name() {
            "cd-tournament" => "fallback",
            name => name,
        }
    }

    /// The underlying composed stack.
    #[must_use]
    pub fn stack(&self) -> &PaperStack {
        self.inner.inner()
    }
}

impl Protocol for FullAlgorithm {
    type Msg = u32;

    #[inline]
    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        self.inner.act(ctx, rng)
    }

    #[inline]
    fn observe(&mut self, ctx: &RoundContext, feedback: Feedback<u32>, rng: &mut SmallRng) {
        self.inner.observe(ctx, feedback, rng);
    }

    #[inline]
    fn status(&self) -> Status {
        self.inner.status()
    }

    #[inline]
    fn phase(&self) -> &'static str {
        self.inner.phase()
    }
}

impl PhaseTelemetry for FullAlgorithm {
    fn phase_stats(&self) -> Vec<PhaseStats> {
        self.inner.phase_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{Engine, RunReport, SimConfig, StopWhen};
    use std::collections::HashSet;

    fn run(c: u32, n: u64, active: usize, seed: u64) -> (RunReport, Vec<FullAlgorithm>) {
        let cfg = SimConfig::new(c)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1_000_000);
        let mut exec = Engine::new(cfg)
            .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
        let report = exec.run().expect("run succeeds");
        let nodes = exec.iter_nodes().cloned().collect();
        (report, nodes)
    }

    #[test]
    fn solves_across_activation_scales() {
        let n = 1u64 << 12;
        for active in [1usize, 2, 3, 10, 100, 1000, 4096] {
            let (report, _) = run(64, n, active, 42);
            assert!(report.is_solved(), "active={active}");
            assert!(report.leaders.len() <= 1, "active={active}");
            assert!(report.active_remaining.is_empty(), "active={active}");
        }
    }

    #[test]
    fn many_seeds_never_split_brain() {
        for seed in 0..40 {
            let (report, _) = run(32, 1 << 10, 200, seed);
            assert!(report.is_solved(), "seed {seed}");
            assert!(
                report.leaders.len() <= 1,
                "seed {seed}: {:?}",
                report.leaders
            );
        }
    }

    #[test]
    fn adopted_ids_are_unique() {
        for seed in 0..20 {
            let (_, nodes) = run(64, 1 << 12, 500, seed);
            let ids: Vec<u32> = nodes.iter().filter_map(|p| p.stats().adopted_id).collect();
            let set: HashSet<u32> = ids.iter().copied().collect();
            assert_eq!(set.len(), ids.len(), "seed {seed}: duplicate ids");
            assert!(ids.iter().all(|&id| id <= 32), "seed {seed}");
        }
    }

    #[test]
    fn small_c_uses_fallback_and_still_solves() {
        let (report, nodes) = run(4, 1 << 10, 100, 9);
        assert!(report.is_solved());
        assert!(nodes.iter().all(|p| p.stats().used_fallback));
    }

    #[test]
    fn large_c_uses_pipeline() {
        let (report, nodes) = run(256, 1 << 12, 300, 5);
        assert!(report.is_solved());
        assert!(nodes.iter().all(|p| !p.stats().used_fallback));
        // Someone must have made it to leaf election unless the problem was
        // solved earlier by a lone transmission (also a success).
        let reached_le = nodes.iter().any(|p| p.stats().election_rounds > 0);
        let solved_early = report.solved_round.is_some();
        assert!(reached_le || solved_early);
    }

    #[test]
    fn rounds_fit_theorem_4_budget() {
        // Generous concrete budget for O(log n/log C + lglg n * lglglg n):
        // 6*(lg n/lg C) + 6*lglg(n)*max(lglglg n,1) + 40.
        let n = 1u64 << 16;
        for c in [16u32, 64, 256, 1024] {
            for seed in 0..10 {
                let (report, _) = run(c, n, 800, seed);
                let lg_n = (n as f64).log2();
                let lglg = lg_n.log2();
                let budget =
                    6.0 * lg_n / f64::from(c).log2() + 6.0 * lglg * lglg.log2().max(1.0) + 40.0;
                let rounds = report.rounds_to_solve().unwrap() as f64;
                assert!(
                    rounds <= budget,
                    "C={c} seed={seed}: {rounds} rounds > {budget}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (r1, _) = run(64, 1 << 10, 123, 77);
        let (r2, _) = run(64, 1 << 10, 123, 77);
        assert_eq!(r1.solved_round, r2.solved_round);
        assert_eq!(r1.leaders, r2.leaders);
    }

    #[test]
    fn works_with_two_active_nodes() {
        // The general algorithm must also handle the restricted case.
        for seed in 0..20 {
            let (report, _) = run(64, 1 << 14, 2, seed);
            assert!(report.is_solved(), "seed {seed}");
        }
    }

    #[test]
    fn paper_params_also_solve() {
        let cfg = SimConfig::new(1 << 10)
            .seed(4)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1_000_000);
        let mut exec = Engine::new(cfg)
            .populated((0..500).map(|_| FullAlgorithm::new(Params::paper(), 1 << 10, 1 << 12)));
        let report = exec.run().expect("run succeeds");
        assert!(report.is_solved());
    }

    #[test]
    fn supervised_node_solves_fault_free_without_restarting() {
        use crate::supervise::{RestartPolicy, RESTART_MARKER};
        let cfg = SimConfig::new(64)
            .seed(11)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1_000_000);
        let mut exec = Engine::new(cfg).populated((0..200).map(|_| {
            supervised_paper_node(
                Params::practical(),
                64,
                1 << 12,
                RestartPolicy::new(2_000, 3),
            )
        }));
        let report = exec.run().expect("supervised run succeeds");
        assert!(report.is_solved());
        for node in exec.iter_nodes() {
            assert_eq!(node.inner().restarts(), 0, "fault-free: no restarts");
            assert!(node.phase_stats().iter().all(|r| r.name != RESTART_MARKER));
        }
    }

    #[test]
    fn paper_stack_node_stays_small() {
        // Every anchor run (C = 64, n = 2^12, |A| = 500) builds 500 of
        // these, and only a few ever leave `Reduce`: the later phases are
        // boxed so the nodes that never reach them do not pay their size.
        assert!(
            std::mem::size_of::<FullAlgorithm>() <= 128,
            "FullAlgorithm is {} bytes",
            std::mem::size_of::<FullAlgorithm>()
        );
    }

    #[test]
    fn stage_name_tracks_progress() {
        let node = FullAlgorithm::new(Params::practical(), 64, 1 << 10);
        assert_eq!(node.stage_name(), "reduce");
        let node = FullAlgorithm::new(Params::practical(), 2, 1 << 10);
        assert_eq!(node.stage_name(), "fallback");
    }

    #[test]
    fn stats_view_matches_the_spine() {
        let (_, nodes) = run(64, 1 << 12, 300, 13);
        for node in &nodes {
            let stats = node.stats();
            let spine = node.phase_stats();
            let by_name = |name: &str| {
                spine
                    .iter()
                    .find(|r| r.name == name)
                    .map_or(0, |r| r.rounds)
            };
            assert_eq!(stats.reduce_rounds, by_name("reduce"));
            assert_eq!(stats.id_reduction_rounds, by_name("id-reduction"));
            assert_eq!(stats.election_rounds, by_name("leaf-election"));
            let spine_id = spine.iter().find_map(|r| r.adopted_id);
            assert_eq!(stats.adopted_id, spine_id);
            // Spine records appear in pipeline order.
            let names: Vec<_> = spine.iter().map(|r| r.name).collect();
            let expected = ["reduce", "id-reduction", "leaf-election"];
            assert!(
                expected
                    .iter()
                    .filter(|n| names.contains(n))
                    .eq(names.iter().map(|n| {
                        expected
                            .iter()
                            .find(|e| **e == *n)
                            .expect("only pipeline phases in spine")
                    })),
                "unexpected spine order: {names:?}"
            );
        }
    }
}
