//! The non-simultaneous wake-up transform (§3).
//!
//! The paper's algorithms assume all nodes start in the same round, and §3
//! sketches the standard reduction from the harder staggered-start model at
//! a ×2 cost in rounds: a waking node first listens on the primary channel;
//! if it hears silence it joins the *runner* group, which interleaves
//! primary-channel beacon rounds with rounds of the original protocol; if
//! it hears anything, an execution is already underway and it retires.
//!
//! **A strengthening over the paper's sketch.** The paper has nodes listen
//! for two rounds, but with a wake-up offset of exactly 1 round a late
//! node's two-round window can close *before the first beacon is sent*
//! (beacons start three rounds after the first wake-up), letting it join
//! out of phase and jam the primary channel forever. We listen for **three**
//! rounds instead: the earliest runners beacon in their 4th round and every
//! strictly later window of three consecutive rounds contains a beacon or
//! protocol round, so every late waker hears something and retires. The
//! cost is `2·T + 4` rounds for an original protocol that takes `T` — the
//! same ×2 asymptotics the paper claims. Experiment E12 verifies this
//! against adversarial offsets, including the offset-1 case that breaks the
//! two-round version.
//!
//! Only the nodes that woke in the *earliest* round become runners, and they
//! are mutually synchronized, so the inner protocol runs under exactly the
//! simultaneous-start assumption it was designed for.

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;

use crate::phase::{PhaseStats, PhaseTelemetry};

/// How many initial rounds a waking node spends listening before deciding
/// it is among the first wave.
pub const LISTEN_ROUNDS: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WakeState {
    /// Still in the initial listen window (`heard` rounds so far).
    Listening { heard: u64 },
    /// Among the first wave: beacon on odd steps, run the protocol on even.
    Runner { step: u64, in_protocol_round: bool },
    /// Retired: an execution was already underway at wake-up, or this
    /// node's lone beacon just solved the problem.
    Done(Status),
}

/// Wraps any simultaneous-start [`Protocol`] into one that tolerates
/// arbitrary staggered wake-ups (use [`mac_sim::Engine::add_node_at`] to
/// schedule them).
///
/// ```
/// use contention::wakeup::StaggeredStart;
/// use contention::{FullAlgorithm, Params};
/// use mac_sim::{Engine, SimConfig};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let (c, n) = (32u32, 1u64 << 10);
/// let mut exec = Engine::new(SimConfig::new(c).seed(8));
/// for i in 0..50u64 {
///     let node = StaggeredStart::new(FullAlgorithm::new(Params::practical(), c, n));
///     exec.add_node_at(node, i % 7); // adversarial wake-up offsets
/// }
/// assert!(exec.run()?.is_solved());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StaggeredStart<P> {
    inner: P,
    state: WakeState,
    inner_rounds: u64,
}

impl<P> StaggeredStart<P> {
    /// Wraps `inner`, which will only start executing if this node turns
    /// out to be in the first wake-up wave.
    #[must_use]
    pub fn new(inner: P) -> Self {
        StaggeredStart {
            inner,
            state: WakeState::Listening { heard: 0 },
            inner_rounds: 0,
        }
    }

    /// The wrapped protocol.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Rounds of the inner protocol actually executed (half the runner
    /// rounds, by construction).
    #[must_use]
    pub fn inner_rounds(&self) -> u64 {
        self.inner_rounds
    }

    /// Whether this node retired without running the inner protocol.
    #[must_use]
    pub fn retired_early(&self) -> bool {
        matches!(self.state, WakeState::Done(_)) && self.inner_rounds == 0
    }
}

impl<P> Protocol for StaggeredStart<P>
where
    P: Protocol,
    P::Msg: Default,
{
    type Msg = P::Msg;

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<P::Msg> {
        match self.state {
            WakeState::Listening { .. } => Action::listen(ChannelId::PRIMARY),
            WakeState::Runner { step, .. } => {
                if step % 2 == 1 {
                    // Beacon round: jam the primary channel so late wakers
                    // notice the ongoing execution.
                    self.state = WakeState::Runner {
                        step,
                        in_protocol_round: false,
                    };
                    Action::transmit(ChannelId::PRIMARY, P::Msg::default())
                } else {
                    self.state = WakeState::Runner {
                        step,
                        in_protocol_round: true,
                    };
                    self.inner_rounds += 1;
                    let inner_ctx = RoundContext {
                        round: ctx.round,
                        local_round: step / 2,
                        channels: ctx.channels,
                    };
                    self.inner.act(&inner_ctx, rng)
                }
            }
            WakeState::Done(_) => Action::Sleep,
        }
    }

    fn observe(&mut self, ctx: &RoundContext, feedback: Feedback<P::Msg>, rng: &mut SmallRng) {
        match self.state {
            WakeState::Listening { heard } => {
                if !feedback.is_silence() {
                    // An execution is underway; stay out of its way.
                    self.state = WakeState::Done(Status::Inactive);
                } else if heard + 1 >= LISTEN_ROUNDS {
                    // First wave: start running. Step counts from 1 so the
                    // first runner round is a beacon.
                    self.state = WakeState::Runner {
                        step: 1,
                        in_protocol_round: false,
                    };
                } else {
                    self.state = WakeState::Listening { heard: heard + 1 };
                }
            }
            WakeState::Runner {
                step,
                in_protocol_round,
            } => {
                if in_protocol_round {
                    let inner_ctx = RoundContext {
                        round: ctx.round,
                        local_round: step / 2,
                        channels: ctx.channels,
                    };
                    self.inner.observe(&inner_ctx, feedback, rng);
                    if self.inner.status().is_terminated() {
                        self.state = WakeState::Done(self.inner.status());
                        return;
                    }
                } else if feedback.message().is_some() {
                    // This node's beacon went out alone: the problem is
                    // solved and it is the only runner — it leads.
                    self.state = WakeState::Done(Status::Leader);
                    return;
                }
                self.state = WakeState::Runner {
                    step: step + 1,
                    in_protocol_round: false,
                };
            }
            WakeState::Done(_) => {}
        }
    }

    fn status(&self) -> Status {
        match self.state {
            WakeState::Done(status) => status,
            _ => Status::Active,
        }
    }

    fn phase(&self) -> &'static str {
        match self.state {
            WakeState::Listening { .. } => "wakeup-listen",
            WakeState::Runner {
                in_protocol_round: true,
                ..
            } => self.inner.phase(),
            WakeState::Runner { .. } => "wakeup-beacon",
            WakeState::Done(_) => "done",
        }
    }
}

impl<P> PhaseTelemetry for StaggeredStart<P>
where
    P: PhaseTelemetry,
{
    /// The wrapped protocol's spine. Wake-up listen/beacon rounds are not
    /// part of any phase; compare against [`StaggeredStart::inner_rounds`]
    /// rather than the engine's total when accounting for them.
    fn phase_stats(&self) -> Vec<PhaseStats> {
        self.inner.phase_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::CdTournament;
    use crate::{FullAlgorithm, Params};
    use mac_sim::{Engine, SimConfig, StopWhen};

    fn run_with_offsets(offsets: &[u64], seed: u64) -> mac_sim::RunReport {
        let (c, n) = (32u32, 1u64 << 10);
        let cfg = SimConfig::new(c)
            .seed(seed)
            .stop_when(StopWhen::Solved)
            .max_rounds(100_000);
        let mut exec = Engine::new(cfg);
        for &off in offsets {
            let node = StaggeredStart::new(FullAlgorithm::new(Params::practical(), c, n));
            exec.add_node_at(node, off);
        }
        exec.run().expect("run succeeds")
    }

    #[test]
    fn simultaneous_start_still_works() {
        let report = run_with_offsets(&[0; 20], 1);
        assert!(report.is_solved());
    }

    #[test]
    fn offset_one_adversary_is_handled() {
        // The case that breaks the paper's literal 2-round listen: half the
        // nodes wake exactly one round after the rest.
        let offsets: Vec<u64> = (0..40).map(|i| u64::from(i % 2 == 1)).collect();
        for seed in 0..10 {
            let report = run_with_offsets(&offsets, seed);
            assert!(report.is_solved(), "seed {seed}");
        }
    }

    #[test]
    fn widely_staggered_wakeups_solve() {
        let offsets: Vec<u64> = (0..30).map(|i| i * 3).collect();
        let report = run_with_offsets(&offsets, 3);
        assert!(report.is_solved());
    }

    #[test]
    fn late_wakers_retire_without_running_inner() {
        let (c, n) = (32u32, 1u64 << 10);
        let cfg = SimConfig::new(c)
            .seed(5)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100_000);
        let mut exec = Engine::new(cfg);
        let mut late = Vec::new();
        for i in 0..20 {
            let node = StaggeredStart::new(FullAlgorithm::new(Params::practical(), c, n));
            // The late wave must arrive while the first wave is still
            // running (its beacons are what the late listeners hear); at
            // offset 6 the first wave is still deep in its Reduce step.
            let off = if i < 10 { 0 } else { 6 };
            let id = exec.add_node_at(node, off);
            if off > 0 {
                late.push(id);
            }
        }
        exec.run().expect("run succeeds");
        for id in late {
            assert!(
                exec.node(id).retired_early(),
                "late node {id} ran the protocol"
            );
        }
    }

    #[test]
    fn lone_late_node_can_win_if_nothing_started() {
        // A single node waking at round 10 with no earlier activity hears
        // silence, becomes the only runner, and its first beacon solves.
        let cfg = SimConfig::new(4).seed(0).max_rounds(1000);
        let mut exec = Engine::new(cfg);
        exec.add_node_at(StaggeredStart::new(CdTournament::new()), 10);
        let report = exec.run().expect("run succeeds");
        assert_eq!(report.solved_round, Some(10 + LISTEN_ROUNDS));
    }

    #[test]
    fn phase_stats_forward_the_inner_spine() {
        let (c, n) = (32u32, 1u64 << 10);
        let mut exec = Engine::new(SimConfig::new(c).seed(3).max_rounds(100_000));
        for i in 0..20u64 {
            let node = StaggeredStart::new(FullAlgorithm::new(Params::practical(), c, n));
            exec.add_node_at(node, i % 3);
        }
        let report = exec.run().expect("run succeeds");
        let solver = exec.node(report.solver.expect("solves"));
        let spine = solver.phase_stats();
        assert_eq!(spine, solver.inner().phase_stats());
        assert_eq!(spine[0].name, "reduce");
        // Listen and beacon rounds are not phase rounds: the spine
        // accounts for the inner protocol's rounds only.
        let spine_total: u64 = spine.iter().map(|r| r.rounds).sum();
        assert_eq!(spine_total, solver.inner_rounds());
        assert!(spine_total < report.rounds_to_solve().unwrap());
    }

    #[test]
    fn overhead_is_at_most_double_plus_constant() {
        let (c, n) = (32u32, 1u64 << 10);
        let base = {
            let mut exec = Engine::new(SimConfig::new(c).seed(6).max_rounds(100_000))
                .populated((0..30).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
            exec.run().unwrap().rounds_to_solve().unwrap()
        };
        let wrapped = run_with_offsets(&[0; 30], 6).rounds_to_solve().unwrap();
        assert!(
            wrapped <= 2 * base + 2 * LISTEN_ROUNDS + 2,
            "wrapped {wrapped} vs base {base}"
        );
    }
}
