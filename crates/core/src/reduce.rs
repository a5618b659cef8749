//! `Reduce` — step 1 of the general algorithm (§5.1, Fig. 2).
//!
//! A knock-out protocol on the primary channel alone: in iteration `r`
//! (each iteration is a pair of identical rounds), every active node
//! broadcasts with probability `1/n̂` where `n̂` starts at `n` and is
//! square-rooted between iterations. A node that broadcasts *without
//! collision* is alone on the primary channel — it has solved the problem
//! and becomes leader. A node that listens and hears anything but silence
//! has been beaten and goes inactive. After `⌈lg lg n⌉` iterations
//! (`O(log log n)` rounds) the surviving set has size between 1 and
//! `O(log n)` with high probability (Theorem 5).
//!
//! Note that this step needs collision detection but only a *single*
//! channel.

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::distributions::{Bernoulli, Distribution};
use rand::rngs::SmallRng;

use crate::params::Params;
use crate::phase::{impl_phase_telemetry, Phase, PhaseMeter, PhaseOutcome, PhaseStats};

/// How a node's participation in `Reduce` ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOutcome {
    /// The node broadcast alone on the primary channel: it is the leader
    /// and the problem is solved.
    Leader,
    /// The node heard another node's (or several nodes') transmission while
    /// listening: it was knocked out.
    Knocked,
    /// The node survived all `⌈lg lg n⌉` iterations. Survivors proceed to
    /// the next step of the general algorithm; Theorem 5 bounds their count
    /// by `O(log n)` w.h.p.
    Survived,
}

/// The knock-out protocol of Fig. 2. Runs exactly
/// `2 · reduce_factor · ⌈lg lg n⌉` rounds unless it ends early with a
/// leader, so all survivors finish in the same round — which is what lets
/// the full algorithm chain the next step synchronously.
///
/// ```
/// use contention::{Reduce, ReduceOutcome};
/// use mac_sim::{Engine, SimConfig, StopWhen};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let n = 1u64 << 16;
/// let cfg = SimConfig::new(1).seed(3).stop_when(StopWhen::AllTerminated);
/// let mut exec = Engine::new(cfg)
///     .populated((0..1000).map(|_| Reduce::with_params(contention::Params::practical(), n)));
/// exec.run()?;
/// let survivors = exec
///     .iter_nodes()
///     .filter(|r| r.outcome() == Some(ReduceOutcome::Survived))
///     .count();
/// assert!(survivors <= 200, "survivors should be O(log n), got {survivors}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reduce {
    n_hat: f64,
    /// The transmit draw at `1/n̂`, rebuilt whenever `n̂` changes.
    draw: Bernoulli,
    iterations_left: u32,
    rounds_left_in_iteration: u8,
    transmitted: bool,
    outcome: Option<ReduceOutcome>,
    meter: PhaseMeter,
}

impl Reduce {
    /// Creates a `Reduce` node for `n` possible nodes with default
    /// ([`Params::practical`]) constants.
    #[must_use]
    pub fn new(n: u64) -> Self {
        Reduce::with_params(Params::practical(), n)
    }

    /// Creates a `Reduce` node with explicit constants.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (the problem is defined for `n ≥ 2`).
    #[must_use]
    #[inline]
    pub fn with_params(params: Params, n: u64) -> Self {
        assert!(n >= 2, "the model requires n >= 2, got {n}");
        Reduce {
            n_hat: n as f64,
            draw: transmit_draw(n as f64),
            iterations_left: params.reduce_iterations(n),
            rounds_left_in_iteration: 2,
            transmitted: false,
            outcome: None,
            meter: PhaseMeter::default(),
        }
    }

    /// How this node's run ended, once it has.
    #[must_use]
    pub fn outcome(&self) -> Option<ReduceOutcome> {
        self.outcome
    }

    /// Rounds this node participated in.
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.meter.rounds()
    }

    /// The total number of rounds the protocol runs when no leader emerges:
    /// two per iteration.
    #[must_use]
    pub fn total_rounds(params: Params, n: u64) -> u64 {
        2 * u64::from(params.reduce_iterations(n))
    }
}

/// The transmit draw at `1/n̂`, capped at 1.
#[inline]
fn transmit_draw(n_hat: f64) -> Bernoulli {
    Bernoulli::new((1.0 / n_hat).min(1.0)).expect("n̂ >= 1, so 1/n̂ lies in (0, 1]")
}

impl Protocol for Reduce {
    type Msg = u32;

    #[inline]
    fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        debug_assert!(self.outcome.is_none(), "terminated node must not act");
        self.transmitted = self.draw.sample(rng);
        let action = if self.transmitted {
            Action::transmit(ChannelId::PRIMARY, 0)
        } else {
            Action::listen(ChannelId::PRIMARY)
        };
        self.meter.on_act(&action);
        action
    }

    #[inline]
    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u32>, _rng: &mut SmallRng) {
        if self.transmitted {
            if feedback.message().is_some() {
                // Broadcast without collision: leader.
                self.outcome = Some(ReduceOutcome::Leader);
                return;
            }
        } else if !feedback.is_silence() {
            // Received and did not hear silence: knocked out.
            self.outcome = Some(ReduceOutcome::Knocked);
            return;
        }

        self.rounds_left_in_iteration -= 1;
        if self.rounds_left_in_iteration == 0 {
            self.iterations_left -= 1;
            self.rounds_left_in_iteration = 2;
            self.n_hat = self.n_hat.sqrt();
            self.draw = transmit_draw(self.n_hat);
            if self.iterations_left == 0 {
                self.outcome = Some(ReduceOutcome::Survived);
            }
        }
    }

    fn status(&self) -> Status {
        match self.outcome {
            None => Status::Active,
            Some(ReduceOutcome::Leader) => Status::Leader,
            Some(ReduceOutcome::Knocked | ReduceOutcome::Survived) => Status::Inactive,
        }
    }

    fn phase(&self) -> &'static str {
        "reduce"
    }
}

/// As a [`Phase`], `Reduce` *completes* for survivors (they proceed to the
/// next step of a stack) and *terminates* for leaders and knocked-out
/// nodes — the composable reading of [`ReduceOutcome`].
impl Phase for Reduce {
    type Output = ();

    #[inline]
    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        Protocol::act(self, ctx, rng)
    }

    #[inline]
    fn observe(
        &mut self,
        ctx: &RoundContext,
        feedback: Feedback<u32>,
        rng: &mut SmallRng,
    ) -> Option<PhaseOutcome<()>> {
        Protocol::observe(self, ctx, feedback, rng);
        Phase::outcome(self)
    }

    #[inline]
    fn outcome(&self) -> Option<PhaseOutcome<()>> {
        match self.outcome {
            None => None,
            Some(ReduceOutcome::Leader) => Some(PhaseOutcome::Terminated(Status::Leader)),
            Some(ReduceOutcome::Knocked) => Some(PhaseOutcome::Terminated(Status::Inactive)),
            Some(ReduceOutcome::Survived) => Some(PhaseOutcome::Complete(())),
        }
    }

    fn name(&self) -> &'static str {
        "reduce"
    }

    fn collect_stats(&self, out: &mut Vec<PhaseStats>) {
        out.push(self.meter.snapshot("reduce"));
    }
}

impl_phase_telemetry!(Reduce);

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{Engine, SimConfig, StopWhen};

    fn run(n: u64, active: usize, seed: u64) -> (mac_sim::RunReport, Vec<ReduceOutcome>) {
        let cfg = SimConfig::new(1)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(10_000);
        let mut exec = Engine::new(cfg).populated((0..active).map(|_| Reduce::new(n)));
        let report = exec.run().expect("run succeeds");
        let outcomes = exec.iter_nodes().map(|r| r.outcome().unwrap()).collect();
        (report, outcomes)
    }

    fn survivors(outcomes: &[ReduceOutcome]) -> usize {
        outcomes
            .iter()
            .filter(|&&o| o == ReduceOutcome::Survived)
            .count()
    }

    #[test]
    fn runs_exactly_two_lglg_rounds_without_leader() {
        let n = 1u64 << 16; // lg lg n = 4 -> 8 rounds
        let (report, _) = run(n, 1000, 1);
        let expected = Reduce::total_rounds(Params::practical(), n);
        assert!(report.rounds_executed <= expected + 1);
        assert_eq!(expected, 8);
    }

    #[test]
    fn at_least_one_node_always_survives_or_leads() {
        for seed in 0..30 {
            let (_, outcomes) = run(1 << 12, 300, seed);
            let leaders = outcomes
                .iter()
                .filter(|&&o| o == ReduceOutcome::Leader)
                .count();
            assert!(
                survivors(&outcomes) + leaders >= 1,
                "seed {seed}: everyone knocked out"
            );
            assert!(leaders <= 1, "seed {seed}: multiple leaders");
        }
    }

    #[test]
    fn survivor_count_is_order_log_n() {
        // Theorem 5: survivors in [1, alpha*beta*log n] w.h.p. Check an
        // empirically generous alpha over many seeds.
        let n = 1u64 << 14;
        let bound = 12.0 * (n as f64).log2();
        for seed in 0..20 {
            let (_, outcomes) = run(n, n as usize / 4, seed);
            let s = survivors(&outcomes);
            assert!((s as f64) <= bound, "seed {seed}: {s} survivors > {bound}");
        }
    }

    #[test]
    fn reduction_is_substantial_from_full_activation() {
        let n = 1u64 << 12;
        let mut worst = 0usize;
        for seed in 0..10 {
            let (_, outcomes) = run(n, n as usize, seed);
            worst = worst.max(survivors(&outcomes));
        }
        // From 4096 actives down to O(log n): even a loose check shows the
        // knock-out is drastic.
        assert!(worst < 300, "knock-out too weak: {worst} of 4096 survive");
    }

    #[test]
    fn lone_active_node_becomes_leader_quickly() {
        // With one active node, its first broadcast is alone; n_hat shrinks
        // fast enough that this happens within the round budget for small n.
        let (report, outcomes) = run(4, 1, 0);
        // n = 4: 1 iteration, 2 rounds, p = 1/4 then... it may survive
        // without leading. Either way the run terminates cleanly.
        assert!(report.rounds_executed <= 3);
        assert_eq!(outcomes.len(), 1);
        assert_ne!(outcomes[0], ReduceOutcome::Knocked);
    }

    #[test]
    fn leader_outcome_solves_the_problem() {
        // Hunt for a seed where a leader emerges and check consistency.
        for seed in 0..200 {
            let (report, outcomes) = run(1 << 8, 50, seed);
            if outcomes.contains(&ReduceOutcome::Leader) {
                assert!(report.is_solved(), "seed {seed}: leader without solve");
                assert_eq!(report.leaders.len(), 1);
                // Everyone else heard the lone broadcast and was knocked out.
                assert_eq!(survivors(&outcomes), 0, "seed {seed}");
                return;
            }
        }
        panic!("no seed produced a Reduce leader; probabilities look wrong");
    }

    #[test]
    fn two_active_nodes_knock_out_only_via_a_leader() {
        // With |A|=2, a node can only be Knocked if the other transmitted
        // alone — i.e. became Leader. (Both transmitting is a collision and
        // both stay.) Verify that invariant across seeds.
        for seed in 0..40 {
            let (_, outcomes) = run(1 << 32, 2, seed);
            let knocked = outcomes
                .iter()
                .filter(|&&o| o == ReduceOutcome::Knocked)
                .count();
            let leaders = outcomes
                .iter()
                .filter(|&&o| o == ReduceOutcome::Leader)
                .count();
            if knocked > 0 {
                assert_eq!(leaders, 1, "seed {seed}: knocked without a leader");
            }
            assert!(leaders + survivors(&outcomes) >= 1, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "n >= 2")]
    fn rejects_tiny_n() {
        let _ = Reduce::new(1);
    }

    #[test]
    fn outcome_accessors() {
        let r = Reduce::new(16);
        assert_eq!(r.outcome(), None);
        assert_eq!(r.rounds_run(), 0);
        assert_eq!(r.phase(), "reduce");
        assert_eq!(r.status(), Status::Active);
    }
}
