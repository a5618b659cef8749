//! Protocol-level recovery: restart a wedged phase stack under a backoff
//! policy.
//!
//! The fault layers of [`mac_sim::fault`] can push any protocol past its
//! breakdown threshold (experiment E18 measures where): the stack keeps
//! acting but never reaches an outcome, and the run ends in
//! [`mac_sim::SimError::BudgetExhausted`]. The robust contention-resolution
//! line of work treats *recovery* from such wedges as the headline
//! property, and this module supplies it as a combinator:
//! [`Supervised`] wraps any [`Phase`] stack, watches for a wedge — a
//! round-budget *slice* exhausted without an outcome, or a phase-reported
//! [`Phase::invariant_violation`] — and restarts the stack from a clean
//! state under an exponential-backoff [`RestartPolicy`].
//!
//! Because transient noise is random, a fresh attempt with fresh
//! randomness has an independent chance of success: if one attempt solves
//! with probability `q`, `A` supervised attempts solve with probability
//! `1 − (1 − q)^A` — the graceful-degradation curve experiment E19
//! measures against E18's unsupervised thresholds.
//!
//! # Determinism
//!
//! Each attempt runs on its own RNG stream, derived with
//! [`mac_sim::derive_stream_seed`] from a single master draw the
//! supervisor takes from the node's engine RNG at its first `act`. The
//! engine RNG is never touched again, so a supervised run is a pure
//! function of `(node seed, policy)` — bit-deterministic and
//! thread-count invariant, like everything else in the workspace — and
//! attempt `k`'s behavior does not depend on how long attempts
//! `0..k` ran.
//!
//! # Telemetry
//!
//! Failed attempts stay visible in the phase spine: each restart archives
//! the wedged attempt's [`PhaseStats`] records followed by a marker record
//! named [`RESTART_MARKER`] whose `rounds` field carries the rounds the
//! failed attempt consumed. [`Supervised::attempts`] and
//! [`Supervised::restart_rounds`] expose the same accounting directly, and
//! [`crate::session::Resolution::restarts`] counts the markers back out of
//! a session's solver spine.
//!
//! ```
//! use contention::phase::{Phase, PhaseProtocol};
//! use contention::supervise::{RestartPolicy, Supervised};
//! use contention::Reduce;
//!
//! // A paper Reduce step that restarts (up to 4 attempts, slices
//! // 64/128/256/512 rounds) if a fault wedges it.
//! let policy = RestartPolicy::new(64, 4);
//! let supervised = Supervised::new(|| Reduce::new(1 << 12), policy);
//! let _node = PhaseProtocol::new(supervised);
//! ```

use mac_sim::{derive_stream_seed, Action, Feedback, RoundContext, Status};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::phase::{Phase, PhaseOutcome, PhaseStats};

/// Name of the synthetic [`PhaseStats`] marker record a [`Supervised`]
/// combinator archives at each restart. The marker's `rounds` field is the
/// acted-round count of the attempt that was abandoned; its
/// `transmissions` field is zero (the failed attempt's own records, which
/// precede the marker in the spine, carry the transmission counts).
pub const RESTART_MARKER: &str = "restart";

/// When and how often a [`Supervised`] stack restarts.
///
/// Attempt `k` (zero-based) gets a round-budget *slice* of
/// `slice · backoff^k` acted rounds (saturating); exhausting the slice
/// without an outcome counts as a wedge and triggers a restart, up to
/// `max_attempts` attempts in total. The exponential backoff mirrors
/// classic supervisor trees: later attempts get more room, so a protocol
/// that is merely slow under heavy noise still finishes, while a hard
/// wedge is abandoned quickly at first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Round-budget slice of the first attempt.
    pub slice: u64,
    /// Multiplier applied to the slice after each restart.
    pub backoff: u64,
    /// Total attempts (the first run counts as one). When the last
    /// attempt wedges, the supervised stack gives up and terminates
    /// [`Status::Inactive`].
    pub max_attempts: u32,
}

impl RestartPolicy {
    /// A policy with the given first-attempt slice and attempt count,
    /// doubling the slice after each restart (backoff 2).
    ///
    /// # Panics
    ///
    /// Panics if `slice == 0` or `max_attempts == 0`.
    #[must_use]
    pub fn new(slice: u64, max_attempts: u32) -> Self {
        assert!(slice >= 1, "RestartPolicy needs a positive slice");
        assert!(
            max_attempts >= 1,
            "RestartPolicy needs at least one attempt"
        );
        RestartPolicy {
            slice,
            backoff: 2,
            max_attempts,
        }
    }

    /// Sets the backoff multiplier (1 = constant slices).
    ///
    /// # Panics
    ///
    /// Panics if `backoff == 0`.
    #[must_use]
    pub fn backoff(mut self, backoff: u64) -> Self {
        assert!(backoff >= 1, "backoff multiplier must be at least 1");
        self.backoff = backoff;
        self
    }

    /// The round slice of attempt `attempt` (zero-based):
    /// `slice · backoff^attempt`, saturating.
    #[must_use]
    pub fn slice_for(&self, attempt: u32) -> u64 {
        let mut slice = self.slice;
        for _ in 0..attempt {
            slice = slice.saturating_mul(self.backoff);
        }
        slice
    }

    /// Total acted rounds the policy can consume across all attempts —
    /// the engine round budget a supervised run needs to be given so the
    /// supervisor (not the engine watchdog) decides when to give up.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        (0..self.max_attempts).fold(0u64, |sum, k| sum.saturating_add(self.slice_for(k)))
    }
}

/// Builds a fresh instance of a phase stack for each supervised attempt.
///
/// Implemented for any `FnMut() -> P` closure; implement it on a named
/// struct when the supervised stack's type must be nameable (as
/// [`crate::full::MakePaperStack`] does for the paper pipeline).
pub trait BuildPhase {
    /// The stack this builder produces.
    type Phase: Phase;

    /// Builds a fresh, clean-state instance of the stack.
    fn build(&mut self) -> Self::Phase;
}

impl<P: Phase, F: FnMut() -> P> BuildPhase for F {
    type Phase = P;

    fn build(&mut self) -> P {
        self()
    }
}

/// Restart-with-backoff supervision over a phase stack (the tentpole of
/// the robustness layer; see the [module docs](self)).
///
/// Transparent while the current attempt runs. After each `observe`, the
/// supervisor checks for a wedge — the attempt's slice exhausted without
/// an outcome, or an [`Phase::invariant_violation`] report — and restarts
/// the stack from a clean state (fresh instance from the builder, fresh
/// derived RNG stream) until the policy's attempts are exhausted, at which
/// point the composition terminates [`Status::Inactive`] (the node gives
/// up, exactly like [`crate::phase::Bounded`]).
///
/// Genuine outcomes pass through untouched: a stack that *completes* or
/// legitimately *terminates* (e.g. a [`crate::full::PaperStack`] loser
/// retiring `Inactive`) is never restarted — supervision reacts to the
/// absence of progress, not to results.
#[derive(Debug, Clone)]
pub struct Supervised<P, B> {
    policy: RestartPolicy,
    builder: B,
    current: P,
    /// Zero-based index of the running attempt.
    attempt: u32,
    /// Acted rounds of the running attempt.
    acted: u64,
    /// Total acted rounds consumed by abandoned attempts.
    restart_rounds: u64,
    /// Master seed drawn from the engine RNG at the first `act`; all
    /// attempt streams derive from it.
    master: Option<u64>,
    /// The running attempt's private RNG (`None` until the master is
    /// drawn).
    attempt_rng: Option<SmallRng>,
    /// Spine records of abandoned attempts, each followed by a
    /// [`RESTART_MARKER`] record.
    archived: Vec<PhaseStats>,
    /// Wedges caused by slice exhaustion (the attempt ran out of rounds).
    wedges_slice: u32,
    /// Wedges caused by a phase-reported invariant violation.
    wedges_violation: u32,
    /// Set when the last attempt wedged: the composition is over.
    gave_up: bool,
}

impl<P, B> Supervised<P, B>
where
    P: Phase,
    B: BuildPhase<Phase = P>,
{
    /// Supervises fresh stacks from `builder` under `policy`.
    #[must_use]
    pub fn new(mut builder: B, policy: RestartPolicy) -> Self {
        let current = builder.build();
        Supervised {
            policy,
            builder,
            current,
            attempt: 0,
            acted: 0,
            restart_rounds: 0,
            master: None,
            attempt_rng: None,
            archived: Vec::new(),
            wedges_slice: 0,
            wedges_violation: 0,
            gave_up: false,
        }
    }

    /// The policy this supervisor runs under.
    #[must_use]
    pub fn policy(&self) -> RestartPolicy {
        self.policy
    }

    /// Attempts started so far (at least 1; the first run counts).
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.attempt + 1
    }

    /// Restarts performed so far.
    #[must_use]
    pub fn restarts(&self) -> u32 {
        if self.gave_up {
            self.attempt
        } else {
            self.attempt.min(self.policy.max_attempts - 1)
        }
    }

    /// Total acted rounds consumed by abandoned attempts.
    #[must_use]
    pub fn restart_rounds(&self) -> u64 {
        self.restart_rounds
    }

    /// Wedges whose cause was slice exhaustion — the attempt consumed its
    /// whole round slice without reaching an outcome. Together with
    /// [`Supervised::wedges_violation`] this partitions every wedge by
    /// cause for the telemetry layer.
    #[must_use]
    pub fn wedges_slice(&self) -> u32 {
        self.wedges_slice
    }

    /// Wedges whose cause was a phase-reported
    /// [`Phase::invariant_violation`] (e.g. a forged collision detected
    /// under adversarial jamming).
    #[must_use]
    pub fn wedges_violation(&self) -> u32 {
        self.wedges_violation
    }

    /// Whether every attempt wedged and the supervisor gave up.
    #[must_use]
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    /// The currently running attempt's stack.
    #[must_use]
    pub fn current(&self) -> &P {
        &self.current
    }

    /// Whether the running attempt, which has no outcome, is wedged: slice
    /// exhausted, or an invariant violation reported.
    fn wedged(&self) -> bool {
        self.acted >= self.policy.slice_for(self.attempt)
            || self.current.invariant_violation().is_some()
    }

    /// Abandon the running attempt: archive its spine plus a restart
    /// marker, then either rebuild (next attempt, fresh RNG stream) or
    /// give up.
    fn restart(&mut self) {
        self.current.collect_stats(&mut self.archived);
        self.archived.push(PhaseStats {
            name: RESTART_MARKER,
            rounds: self.acted,
            transmissions: 0,
            adopted_id: None,
        });
        self.restart_rounds += self.acted;
        if self.attempt + 1 >= self.policy.max_attempts {
            self.gave_up = true;
            return;
        }
        self.attempt += 1;
        self.acted = 0;
        self.current = self.builder.build();
        let master = self.master.expect("restart only after the first act");
        self.attempt_rng = Some(SmallRng::seed_from_u64(derive_stream_seed(
            master,
            u64::from(self.attempt),
        )));
    }
}

impl<P, B> Phase for Supervised<P, B>
where
    P: Phase,
    B: BuildPhase<Phase = P>,
{
    type Output = P::Output;

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        // One master draw from the engine RNG, first act only; every
        // attempt then runs on its own derived stream (see module docs).
        if self.master.is_none() {
            let master = rng.next_u64();
            self.master = Some(master);
            self.attempt_rng = Some(SmallRng::seed_from_u64(derive_stream_seed(master, 0)));
        }
        self.acted += 1;
        let attempt_rng = self.attempt_rng.as_mut().expect("seeded above");
        self.current.act(ctx, attempt_rng)
    }

    fn observe(
        &mut self,
        ctx: &RoundContext,
        feedback: Feedback<u32>,
        rng: &mut SmallRng,
    ) -> Option<PhaseOutcome<P::Output>> {
        let _ = rng;
        let attempt_rng = self
            .attempt_rng
            .as_mut()
            .expect("observe follows act, which seeds the attempt stream");
        let outcome = self.current.observe(ctx, feedback, attempt_rng);
        if outcome.is_some() || !self.wedged() {
            return outcome;
        }
        // Classify the wedge before the restart clears attempt state:
        // slice exhaustion takes precedence (it is the supervisor's own
        // trigger; a violation surfacing in the same round would have
        // fired earlier on its own).
        if self.acted >= self.policy.slice_for(self.attempt) {
            self.wedges_slice += 1;
        } else {
            self.wedges_violation += 1;
        }
        self.restart();
        self.outcome()
    }

    fn outcome(&self) -> Option<PhaseOutcome<P::Output>> {
        if self.gave_up {
            return Some(PhaseOutcome::Terminated(Status::Inactive));
        }
        self.current.outcome()
    }

    fn name(&self) -> &'static str {
        if self.gave_up {
            "supervised"
        } else {
            self.current.name()
        }
    }

    fn label(&self) -> &'static str {
        if self.gave_up {
            "supervised"
        } else {
            self.current.label()
        }
    }

    fn collect_stats(&self, out: &mut Vec<PhaseStats>) {
        out.extend_from_slice(&self.archived);
        // A given-up supervisor already archived its last attempt.
        if !self.gave_up {
            self.current.collect_stats(out);
        }
    }

    fn invariant_violation(&self) -> Option<&'static str> {
        // The supervisor *consumes* violations (they trigger restarts);
        // it never reports one of its own.
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{PhaseMeter, PhaseProtocol, PhaseTelemetry};
    use mac_sim::{ChannelId, Protocol};

    /// A scripted phase that wedges (acts forever without an outcome) for
    /// its first `wedge_attempts` constructions, then completes after
    /// `rounds` rounds. A shared cell counts constructions.
    #[derive(Debug)]
    struct Flaky {
        rounds_left: Option<u64>,
        violation: Option<&'static str>,
        meter: PhaseMeter,
    }

    struct MakeFlaky {
        wedge_attempts: u32,
        rounds: u64,
        built: u32,
        violation: Option<&'static str>,
    }

    impl BuildPhase for MakeFlaky {
        type Phase = Flaky;

        fn build(&mut self) -> Flaky {
            let wedge = self.built < self.wedge_attempts;
            self.built += 1;
            Flaky {
                rounds_left: if wedge { None } else { Some(self.rounds) },
                violation: if wedge { self.violation } else { None },
                meter: PhaseMeter::default(),
            }
        }
    }

    impl Phase for Flaky {
        type Output = u32;

        fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u32> {
            let action = Action::transmit(ChannelId::PRIMARY, 1);
            self.meter.on_act(&action);
            action
        }

        fn observe(
            &mut self,
            _ctx: &RoundContext,
            _fb: Feedback<u32>,
            _rng: &mut SmallRng,
        ) -> Option<PhaseOutcome<u32>> {
            if let Some(left) = &mut self.rounds_left {
                *left -= 1;
            }
            self.outcome()
        }

        fn outcome(&self) -> Option<PhaseOutcome<u32>> {
            match self.rounds_left {
                Some(0) => Some(PhaseOutcome::Complete(7)),
                _ => None,
            }
        }

        fn name(&self) -> &'static str {
            "flaky"
        }

        fn collect_stats(&self, out: &mut Vec<PhaseStats>) {
            out.push(self.meter.snapshot("flaky"));
        }

        fn invariant_violation(&self) -> Option<&'static str> {
            self.violation
        }
    }

    fn ctx() -> RoundContext {
        RoundContext {
            round: 0,
            local_round: 0,
            channels: 1,
        }
    }

    fn step<P: Protocol<Msg = u32>>(node: &mut P, rounds: u64) {
        let c = ctx();
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..rounds {
            let _ = node.act(&c, &mut rng);
            node.observe(&c, Feedback::Silence, &mut rng);
        }
    }

    #[test]
    fn policy_slices_back_off_exponentially() {
        let p = RestartPolicy::new(10, 4);
        assert_eq!(p.slice_for(0), 10);
        assert_eq!(p.slice_for(1), 20);
        assert_eq!(p.slice_for(2), 40);
        assert_eq!(p.slice_for(3), 80);
        assert_eq!(p.total_rounds(), 150);
        let flat = RestartPolicy::new(10, 3).backoff(1);
        assert_eq!(flat.slice_for(2), 10);
        assert_eq!(flat.total_rounds(), 30);
    }

    #[test]
    fn policy_slices_saturate() {
        let p = RestartPolicy::new(u64::MAX / 2, 8);
        assert_eq!(p.slice_for(7), u64::MAX);
        assert_eq!(p.total_rounds(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "positive slice")]
    fn policy_rejects_zero_slice() {
        let _ = RestartPolicy::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn policy_rejects_zero_attempts() {
        let _ = RestartPolicy::new(1, 0);
    }

    #[test]
    fn transparent_when_first_attempt_succeeds() {
        let make = MakeFlaky {
            wedge_attempts: 0,
            rounds: 3,
            built: 0,
            violation: None,
        };
        let mut node = PhaseProtocol::new(Supervised::new(make, RestartPolicy::new(10, 3)));
        step(&mut node, 3);
        assert_eq!(node.status(), Status::Inactive);
        assert_eq!(node.output(), Some(7));
        assert_eq!(node.inner().attempts(), 1);
        assert_eq!(node.inner().restarts(), 0);
        assert_eq!(node.inner().restart_rounds(), 0);
        let spine = node.phase_stats();
        assert_eq!(spine.len(), 1, "no restart markers: {spine:?}");
        assert_eq!(spine[0].rounds, 3);
    }

    #[test]
    fn restarts_on_slice_exhaustion_and_recovers() {
        let make = MakeFlaky {
            wedge_attempts: 2,
            rounds: 3,
            built: 0,
            violation: None,
        };
        // Slices 4, 8: attempts 0 and 1 wedge, attempt 2 completes.
        let mut node = PhaseProtocol::new(Supervised::new(make, RestartPolicy::new(4, 3)));
        step(&mut node, 4 + 8 + 3);
        assert_eq!(node.status(), Status::Inactive);
        assert_eq!(node.output(), Some(7));
        assert_eq!(node.inner().attempts(), 3);
        assert_eq!(node.inner().restarts(), 2);
        assert_eq!(node.inner().restart_rounds(), 12);
        assert_eq!(
            node.inner().wedges_slice(),
            2,
            "both wedges were slice exhaustion"
        );
        assert_eq!(node.inner().wedges_violation(), 0);
        let spine = node.phase_stats();
        let markers: Vec<_> = spine.iter().filter(|r| r.name == RESTART_MARKER).collect();
        assert_eq!(markers.len(), 2);
        assert_eq!(markers[0].rounds, 4);
        assert_eq!(markers[1].rounds, 8);
        // Wedged-attempt records precede their markers; the final attempt
        // closes the spine.
        assert_eq!(spine.len(), 5);
        assert_eq!(spine[0].name, "flaky");
        assert_eq!(spine[4].rounds, 3);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let make = MakeFlaky {
            wedge_attempts: u32::MAX,
            rounds: 1,
            built: 0,
            violation: None,
        };
        let mut node = PhaseProtocol::new(Supervised::new(make, RestartPolicy::new(2, 3)));
        step(&mut node, 2 + 4 + 8);
        assert_eq!(node.status(), Status::Inactive);
        assert_eq!(node.output(), None, "gave up, no completion value");
        assert!(node.inner().gave_up());
        assert_eq!(node.inner().attempts(), 3);
        assert_eq!(node.inner().restart_rounds(), 14);
        let spine = node.phase_stats();
        let markers = spine.iter().filter(|r| r.name == RESTART_MARKER).count();
        assert_eq!(markers, 3, "give-up archives the last attempt too");
    }

    #[test]
    fn invariant_violation_triggers_immediate_restart() {
        let make = MakeFlaky {
            wedge_attempts: 1,
            rounds: 2,
            built: 0,
            violation: Some("forged collision"),
        };
        // Slice is huge; only the violation can trigger the restart.
        let mut node = PhaseProtocol::new(Supervised::new(make, RestartPolicy::new(1_000, 2)));
        step(&mut node, 1 + 2);
        assert_eq!(node.status(), Status::Inactive);
        assert_eq!(node.output(), Some(7));
        assert_eq!(node.inner().restarts(), 1);
        assert_eq!(
            node.inner().restart_rounds(),
            1,
            "restarted after one round"
        );
        assert_eq!(node.inner().wedges_slice(), 0);
        assert_eq!(
            node.inner().wedges_violation(),
            1,
            "the wedge was a violation"
        );
    }

    #[test]
    fn genuine_termination_passes_through_unrestarted() {
        struct MakeLoser;
        impl BuildPhase for MakeLoser {
            type Phase = Loser;
            fn build(&mut self) -> Loser {
                Loser { done: false }
            }
        }
        #[derive(Debug)]
        struct Loser {
            done: bool,
        }
        impl Phase for Loser {
            type Output = ();
            fn act(&mut self, _: &RoundContext, _: &mut SmallRng) -> Action<u32> {
                Action::Sleep
            }
            fn observe(
                &mut self,
                _: &RoundContext,
                _: Feedback<u32>,
                _: &mut SmallRng,
            ) -> Option<PhaseOutcome<()>> {
                self.done = true;
                self.outcome()
            }
            fn outcome(&self) -> Option<PhaseOutcome<()>> {
                self.done
                    .then_some(PhaseOutcome::Terminated(Status::Inactive))
            }
            fn name(&self) -> &'static str {
                "loser"
            }
            fn collect_stats(&self, _: &mut Vec<PhaseStats>) {}
        }
        let mut node = PhaseProtocol::new(Supervised::new(MakeLoser, RestartPolicy::new(100, 5)));
        step(&mut node, 1);
        assert_eq!(node.status(), Status::Inactive);
        assert_eq!(node.inner().attempts(), 1, "termination is not a wedge");
        assert_eq!(node.inner().restarts(), 0);
    }

    #[test]
    fn attempts_run_on_decorrelated_derived_streams() {
        // Record the RNG stream each attempt sees by drawing a value in
        // the first act of every attempt.
        #[derive(Debug)]
        struct Probe {
            drawn: Option<u64>,
            acted: u64,
        }
        struct MakeProbe {
            log: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
        }
        impl BuildPhase for MakeProbe {
            type Phase = ProbeRun;
            fn build(&mut self) -> ProbeRun {
                ProbeRun {
                    probe: Probe {
                        drawn: None,
                        acted: 0,
                    },
                    log: self.log.clone(),
                }
            }
        }
        #[derive(Debug)]
        struct ProbeRun {
            probe: Probe,
            log: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
        }
        impl Phase for ProbeRun {
            type Output = ();
            fn act(&mut self, _: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
                if self.probe.drawn.is_none() {
                    let v = rng.next_u64();
                    self.probe.drawn = Some(v);
                    self.log.borrow_mut().push(v);
                }
                self.probe.acted += 1;
                Action::Sleep
            }
            fn observe(
                &mut self,
                _: &RoundContext,
                _: Feedback<u32>,
                _: &mut SmallRng,
            ) -> Option<PhaseOutcome<()>> {
                None
            }
            fn outcome(&self) -> Option<PhaseOutcome<()>> {
                None
            }
            fn name(&self) -> &'static str {
                "probe"
            }
            fn collect_stats(&self, _: &mut Vec<PhaseStats>) {}
        }

        let run = |seed: u64| {
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let make = MakeProbe { log: log.clone() };
            let mut node = PhaseProtocol::new(Supervised::new(make, RestartPolicy::new(2, 3)));
            let c = ctx();
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..20 {
                if node.status() != Status::Active {
                    break;
                }
                let _ = node.act(&c, &mut rng);
                node.observe(&c, Feedback::Silence, &mut rng);
            }
            let drawn = log.borrow().clone();
            drawn
        };

        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "supervised runs are bit-deterministic");
        assert_eq!(a.len(), 3, "three attempts each drew once");
        let distinct: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert_eq!(distinct.len(), 3, "attempt streams are decorrelated");
        let other = run(43);
        assert_ne!(a, other, "streams depend on the node seed");
    }
}
