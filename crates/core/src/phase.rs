//! Composable protocol *phases* — the building blocks of the paper's
//! pipelines, made first-class.
//!
//! The Theorem 4 algorithm is a composition: `Reduce → IdReduction →
//! LeafElection`, with a single-channel fallback when `C` is too small for
//! the multi-channel machinery to pay off. This module turns "a step of
//! such a pipeline" into a value — the [`Phase`] trait — and provides the
//! combinators that express the paper's composition rules directly:
//!
//! * [`AndThen`] — barrier-synchronized sequencing. The paper's steps are
//!   globally synchronized (`Reduce` runs a fixed number of rounds,
//!   `IdReduction` ends for every participant in the same report round), so
//!   a completed phase can hand its typed result to a successor **in the
//!   same round boundary** and every survivor enters the next phase in
//!   lockstep. Built via [`Phase::and_then`].
//! * [`WithFallback`] — the small-`C` branch: run either the primary stack
//!   or a fallback phase, chosen at construction time (the paper picks
//!   [`crate::baselines::CdTournament`] when `C` is constant). Built via
//!   [`Phase::with_fallback`].
//! * [`Bounded`] — a round-budget watchdog that retires a phase which
//!   overstays its welcome. Built via [`Phase::bounded`].
//! * [`Pass`] — the no-op phase; the identity for [`AndThen`].
//!
//! A composed stack runs on the unmodified [`mac_sim::Engine`] through the
//! [`PhaseProtocol`] adapter, which implements [`mac_sim::Protocol`]. Every
//! phase also feeds one telemetry spine: a [`Vec`] of [`PhaseStats`]
//! records (rounds, transmissions, adopted ids — one record per phase the
//! node entered), read uniformly through [`PhaseTelemetry`] by
//! [`crate::session::Session`] and the experiment harness.
//!
//! See `docs/PHASES.md` for the lifecycle contract and a worked example of
//! writing a new phase.
//!
//! ```
//! use contention::baselines::CdTournament;
//! use contention::phase::{Phase, PhaseProtocol, PhaseTelemetry};
//! use contention::Reduce;
//! use mac_sim::{Engine, SimConfig};
//!
//! # fn main() -> Result<(), mac_sim::SimError> {
//! // A hybrid stack the paper never wrote down: knock the field down with
//! // Reduce, then finish on one channel with the id-free tournament.
//! let mut exec = Engine::new(SimConfig::new(1).seed(3)).populated((0..200).map(|_| {
//!     PhaseProtocol::new(Reduce::new(1 << 12).and_then(|()| CdTournament::new()))
//! }));
//! assert!(exec.run()?.is_solved());
//! # Ok(())
//! # }
//! ```

use mac_sim::{Action, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;

use crate::wakeup::StaggeredStart;

/// How a phase ended, once it has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseOutcome<T> {
    /// The whole stack is over for this node: it ends with the given
    /// terminal status. Combinators propagate a termination outward —
    /// nothing downstream of a terminated phase ever runs.
    Terminated(Status),
    /// This phase finished its job and hands `T` to whatever comes next
    /// (for the last phase of a stack, completion retires the node as
    /// [`Status::Inactive`], exactly like a standalone protocol that
    /// finished its step).
    Complete(T),
}

/// One record of the per-phase telemetry spine: what a single phase of a
/// single node did before it finished (or up to now, for the phase the
/// node is currently in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// The phase's stable name (e.g. `"reduce"`, `"id-reduction"`,
    /// `"leaf-election"`, `"cd-tournament"`).
    pub name: &'static str,
    /// Rounds this node participated in the phase.
    pub rounds: u64,
    /// Transmissions this node made during the phase.
    pub transmissions: u64,
    /// The unique id the node adopted in this phase, if it is a renaming
    /// phase ([`crate::IdReduction`] sets this).
    pub adopted_id: Option<u32>,
}

/// Round/transmission counters a phase implementation embeds to feed
/// [`PhaseStats`]. Call [`PhaseMeter::on_act`] on every action the phase
/// returns; [`PhaseMeter::snapshot`] produces the spine record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseMeter {
    rounds: u64,
    transmissions: u64,
}

impl PhaseMeter {
    /// Counts one acted round (and the transmission, if the action is one).
    #[inline]
    pub fn on_act(&mut self, action: &Action<u32>) {
        self.rounds += 1;
        if action.is_transmit() {
            self.transmissions += 1;
        }
    }

    /// The spine record for this meter, under the given phase name.
    #[must_use]
    pub fn snapshot(&self, name: &'static str) -> PhaseStats {
        PhaseStats {
            name,
            rounds: self.rounds,
            transmissions: self.transmissions,
            adopted_id: None,
        }
    }

    /// Rounds counted so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }
}

/// One composable step of a protocol stack.
///
/// A phase mirrors the [`Protocol`] act/observe lifecycle but ends in a
/// typed [`PhaseOutcome`] instead of a bare [`Status`]: *completing* hands
/// a value to the next phase, *terminating* ends the whole stack. The
/// engine never sees a `Phase` directly — stacks run through
/// [`PhaseProtocol`].
///
/// # Contract
///
/// * `act` is only called while [`Phase::outcome`] is `None`; after the
///   outcome is set the phase is never stepped again.
/// * All randomness must come from the provided `rng`; bookkeeping
///   (counters, outcome checks) must not touch it, so that composing
///   phases preserves the RNG stream of the phases themselves.
/// * The outcome may only be set inside `observe` (or at construction, for
///   instant phases like [`Pass`]): combinators hand off at the
///   observe/act round boundary, which is what keeps survivors in
///   lockstep.
/// * `observe` returns the outcome the round left, exactly what
///   [`Phase::outcome`] reports right after it: combinators hand off and
///   adapters settle on the returned value instead of probing the stack
///   again. `outcome` serves construction-time outcomes and queries.
pub trait Phase {
    /// The value a completed phase hands to its successor.
    type Output;

    /// Choose this round's action. Mirrors [`Protocol::act`].
    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32>;

    /// Receive this round's feedback, and return the phase's outcome after
    /// the round (`None` while still running). Mirrors
    /// [`Protocol::observe`].
    fn observe(
        &mut self,
        ctx: &RoundContext,
        feedback: Feedback<u32>,
        rng: &mut SmallRng,
    ) -> Option<PhaseOutcome<Self::Output>>;

    /// How the phase ended, once it has. `None` while still running.
    fn outcome(&self) -> Option<PhaseOutcome<Self::Output>>;

    /// Stable name identifying the phase in [`PhaseStats`] records. For
    /// combinators: the name of the currently running child.
    fn name(&self) -> &'static str;

    /// Fine-grained label for the engine's per-phase event labels
    /// (e.g. [`crate::IdReduction`] reports `"id-rename"` / `"id-report"` /
    /// `"id-reduce"` here while its [`Phase::name`] stays
    /// `"id-reduction"`). Defaults to [`Phase::name`].
    fn label(&self) -> &'static str {
        self.name()
    }

    /// Appends this phase's spine records to `out` — one per phase entered,
    /// in the order they ran. Combinators append archived records of
    /// finished children before the current child's.
    fn collect_stats(&self, out: &mut Vec<PhaseStats>);

    /// A phase-reported *invariant violation*: the phase has observed a
    /// state its correctness argument rules out (possible under the fault
    /// layers of [`mac_sim::fault`], which can forge collisions and erase
    /// frames) and cannot make further progress. `None` means healthy.
    ///
    /// The default is `None` — phases are not obliged to self-diagnose.
    /// Combinators forward the currently running child's report, so a
    /// violation anywhere in a stack surfaces at the top, where
    /// [`crate::supervise::Supervised`] treats it as a wedge and restarts
    /// the stack instead of burning the rest of its round slice.
    fn invariant_violation(&self) -> Option<&'static str> {
        None
    }

    /// Barrier-synchronized sequencing: when `self` completes, `next`
    /// builds the successor phase from the completion value, and the
    /// successor starts at the next round boundary — the paper's lockstep
    /// step handoff.
    #[inline]
    fn and_then<N>(self, next: N) -> AndThen<Self, N::Phase, N>
    where
        Self: Sized,
        N: NextPhase<Self::Output>,
    {
        AndThen::new(self, next)
    }

    /// Branch selection at construction time: run `self` normally, or
    /// `fallback` instead when `use_fallback` is set (the paper's small-`C`
    /// escape hatch).
    #[inline]
    fn with_fallback<Q>(self, use_fallback: bool, fallback: Q) -> WithFallback<Self, Q>
    where
        Self: Sized,
        Q: Phase<Output = Self::Output>,
    {
        if use_fallback {
            WithFallback::fallback(fallback)
        } else {
            WithFallback::primary(self)
        }
    }

    /// Watchdog: give up (terminate [`Status::Inactive`]) if the phase has
    /// not produced an outcome after `max_rounds` acted rounds.
    fn bounded(self, max_rounds: u64) -> Bounded<Self>
    where
        Self: Sized,
    {
        Bounded::new(self, max_rounds)
    }

    /// Adapts the stack into a protocol *and* wraps it in the §3 wake-up
    /// transform, making it tolerate staggered starts at a ×2 round cost.
    fn staggered(self) -> StaggeredStart<PhaseProtocol<Self>>
    where
        Self: Sized,
    {
        StaggeredStart::new(PhaseProtocol::new(self))
    }
}

/// Builds the successor phase of an [`AndThen`] from the predecessor's
/// completion value.
///
/// Implemented for any `FnMut(I) -> P` closure; implement it on a named
/// struct when the composed stack's type must be nameable (as
/// [`crate::FullAlgorithm`] does for its pipeline).
pub trait NextPhase<I> {
    /// The phase this builder produces.
    type Phase: Phase;

    /// Builds the successor from the predecessor's completion value.
    fn build(&mut self, input: I) -> Self::Phase;
}

impl<I, P: Phase, F: FnMut(I) -> P> NextPhase<I> for F {
    type Phase = P;

    fn build(&mut self, input: I) -> P {
        self(input)
    }
}

/// Which child of an [`AndThen`] is currently running. The successor and
/// the first phase's archived records exist only once the first phase has
/// completed, so they live on the heap: the nodes that never hand off pay
/// neither their size nor an allocation.
#[derive(Debug, Clone)]
enum Seq<A, B> {
    First(A),
    Second {
        phase: Box<B>,
        archived: Box<[PhaseStats]>,
    },
}

/// Barrier-synchronized sequential composition of two phases (see
/// [`Phase::and_then`]).
///
/// While the first phase runs, `AndThen` is transparent. When the first
/// phase *completes*, its stats are archived, the builder constructs the
/// second phase from the completion value, and the second phase takes over
/// from the next `act` — no rounds are lost and no RNG is consumed by the
/// handoff, so a chained stack is round-for-round identical to running the
/// phases back to back by hand. If the first phase *terminates*, the
/// second is never built.
///
/// The second phase and the archived records live on the heap, so an
/// `AndThen` is the size of its first phase plus its builder, and only a
/// node that hands off allocates (the successor and its archive, once).
#[derive(Debug, Clone)]
pub struct AndThen<A, B, N> {
    seq: Seq<A, B>,
    next: N,
    /// Whether the pre-`act` handoff check has run. A completion can only
    /// be pending at `act` time when the first phase was complete *at
    /// construction* (observe-time completions hand off inside `observe`),
    /// so after one `act` the check is dead and the steady-state path
    /// never probes `outcome()`.
    primed: bool,
}

impl<A, B, N> AndThen<A, B, N>
where
    A: Phase,
    B: Phase,
    N: NextPhase<A::Output, Phase = B>,
{
    /// Sequences `first` before whatever `next` builds from its completion
    /// value. Prefer the [`Phase::and_then`] method.
    #[must_use]
    #[inline]
    pub fn new(first: A, next: N) -> Self {
        AndThen {
            seq: Seq::First(first),
            next,
            primed: false,
        }
    }

    /// If the first phase was complete at construction, hand off before
    /// the first `act`, so instant phases like [`Pass`] cost no round.
    /// (Completions inside `observe` hand off there, on the value the
    /// first phase returns.)
    fn advance(&mut self) {
        if let Seq::First(first) = &self.seq {
            if let Some(PhaseOutcome::Complete(value)) = first.outcome() {
                self.hand_off(value);
            }
        }
    }

    /// The handoff itself, out of line: each node makes it at most once.
    /// Archives the first phase, builds the second from `value`, and
    /// returns the second's construction-time outcome, which is the
    /// composition's outcome from now on.
    #[cold]
    fn hand_off(&mut self, value: A::Output) -> Option<PhaseOutcome<B::Output>> {
        let Seq::First(first) = &self.seq else {
            unreachable!("only the first phase hands off");
        };
        let mut archived = Vec::new();
        first.collect_stats(&mut archived);
        let phase = self.next.build(value);
        let outcome = phase.outcome();
        self.seq = Seq::Second {
            phase: Box::new(phase),
            archived: archived.into_boxed_slice(),
        };
        outcome
    }
}

impl<A, B, N> Phase for AndThen<A, B, N>
where
    A: Phase,
    B: Phase,
    N: NextPhase<A::Output, Phase = B>,
{
    type Output = B::Output;

    #[inline]
    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        if !self.primed {
            self.advance();
            self.primed = true;
        }
        match &mut self.seq {
            Seq::First(first) => first.act(ctx, rng),
            Seq::Second { phase, .. } => phase.act(ctx, rng),
        }
    }

    #[inline]
    fn observe(
        &mut self,
        ctx: &RoundContext,
        feedback: Feedback<u32>,
        rng: &mut SmallRng,
    ) -> Option<PhaseOutcome<B::Output>> {
        match &mut self.seq {
            Seq::First(first) => match first.observe(ctx, feedback, rng) {
                None => None,
                Some(PhaseOutcome::Terminated(status)) => Some(PhaseOutcome::Terminated(status)),
                Some(PhaseOutcome::Complete(value)) => self.hand_off(value),
            },
            Seq::Second { phase, .. } => phase.observe(ctx, feedback, rng),
        }
    }

    #[inline]
    fn outcome(&self) -> Option<PhaseOutcome<B::Output>> {
        match &self.seq {
            Seq::First(first) => match first.outcome() {
                // A completion that has not advanced yet is not an outcome
                // of the composition: the successor still has to run.
                Some(PhaseOutcome::Terminated(status)) => Some(PhaseOutcome::Terminated(status)),
                _ => None,
            },
            Seq::Second { phase, .. } => phase.outcome(),
        }
    }

    fn name(&self) -> &'static str {
        match &self.seq {
            Seq::First(first) => first.name(),
            Seq::Second { phase, .. } => phase.name(),
        }
    }

    fn label(&self) -> &'static str {
        match &self.seq {
            Seq::First(first) => first.label(),
            Seq::Second { phase, .. } => phase.label(),
        }
    }

    fn collect_stats(&self, out: &mut Vec<PhaseStats>) {
        match &self.seq {
            Seq::First(first) => first.collect_stats(out),
            Seq::Second { phase, archived } => {
                out.extend_from_slice(archived);
                phase.collect_stats(out);
            }
        }
    }

    fn invariant_violation(&self) -> Option<&'static str> {
        match &self.seq {
            Seq::First(first) => first.invariant_violation(),
            Seq::Second { phase, .. } => phase.invariant_violation(),
        }
    }
}

#[derive(Debug, Clone)]
enum Arm<P, Q> {
    Primary(P),
    Fallback(Q),
}

/// Construction-time branch between a primary stack and a fallback phase
/// (see [`Phase::with_fallback`]).
///
/// The paper's Theorem 4 pipeline needs `C` above a constant for the
/// multi-channel machinery to beat the `Ω(log n)` single-channel bound;
/// below it, the whole stack is replaced by an optimal single-channel
/// protocol. `WithFallback` holds exactly one of the two arms.
#[derive(Debug, Clone)]
pub struct WithFallback<P, Q> {
    arm: Arm<P, Q>,
}

impl<P, Q> WithFallback<P, Q> {
    /// A stack that runs the primary arm.
    #[must_use]
    #[inline]
    pub fn primary(primary: P) -> Self {
        WithFallback {
            arm: Arm::Primary(primary),
        }
    }

    /// A stack that runs the fallback arm.
    #[must_use]
    pub fn fallback(fallback: Q) -> Self {
        WithFallback {
            arm: Arm::Fallback(fallback),
        }
    }

    /// Whether the fallback arm was selected.
    #[must_use]
    pub fn is_fallback(&self) -> bool {
        matches!(self.arm, Arm::Fallback(_))
    }
}

impl<T, P, Q> Phase for WithFallback<P, Q>
where
    P: Phase<Output = T>,
    Q: Phase<Output = T>,
{
    type Output = T;

    #[inline]
    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        match &mut self.arm {
            Arm::Primary(primary) => primary.act(ctx, rng),
            Arm::Fallback(fallback) => fallback.act(ctx, rng),
        }
    }

    #[inline]
    fn observe(
        &mut self,
        ctx: &RoundContext,
        feedback: Feedback<u32>,
        rng: &mut SmallRng,
    ) -> Option<PhaseOutcome<T>> {
        match &mut self.arm {
            Arm::Primary(primary) => primary.observe(ctx, feedback, rng),
            Arm::Fallback(fallback) => fallback.observe(ctx, feedback, rng),
        }
    }

    #[inline]
    fn outcome(&self) -> Option<PhaseOutcome<T>> {
        match &self.arm {
            Arm::Primary(primary) => primary.outcome(),
            Arm::Fallback(fallback) => fallback.outcome(),
        }
    }

    fn name(&self) -> &'static str {
        match &self.arm {
            Arm::Primary(primary) => primary.name(),
            Arm::Fallback(fallback) => fallback.name(),
        }
    }

    fn label(&self) -> &'static str {
        match &self.arm {
            Arm::Primary(primary) => primary.label(),
            Arm::Fallback(fallback) => fallback.label(),
        }
    }

    fn collect_stats(&self, out: &mut Vec<PhaseStats>) {
        match &self.arm {
            Arm::Primary(primary) => primary.collect_stats(out),
            Arm::Fallback(fallback) => fallback.collect_stats(out),
        }
    }

    fn invariant_violation(&self) -> Option<&'static str> {
        match &self.arm {
            Arm::Primary(primary) => primary.invariant_violation(),
            Arm::Fallback(fallback) => fallback.invariant_violation(),
        }
    }
}

/// Round-budget watchdog over a phase (see [`Phase::bounded`]).
///
/// Delegates transparently until the inner phase has acted `max_rounds`
/// times without producing an outcome; from then on the composition is
/// `Terminated(Inactive)` — the node gives up. Inside an [`AndThen`], the
/// give-up ends the whole stack, exactly like any other termination.
#[derive(Debug, Clone)]
pub struct Bounded<P> {
    inner: P,
    budget: u64,
    used: u64,
}

impl<P: Phase> Bounded<P> {
    /// Caps `inner` at `max_rounds` acted rounds.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds == 0` (the phase could never act).
    #[must_use]
    pub fn new(inner: P, max_rounds: u64) -> Self {
        assert!(max_rounds >= 1, "Bounded needs a positive round budget");
        Bounded {
            inner,
            budget: max_rounds,
            used: 0,
        }
    }

    /// The wrapped phase.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Whether the budget ran out before the inner phase finished.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.used >= self.budget && self.inner.outcome().is_none()
    }

    /// The composition's outcome given the inner phase's: the inner
    /// outcome if any, else the give-up once the budget is spent.
    fn bound(&self, inner: Option<PhaseOutcome<P::Output>>) -> Option<PhaseOutcome<P::Output>> {
        match inner {
            None if self.used >= self.budget => Some(PhaseOutcome::Terminated(Status::Inactive)),
            outcome => outcome,
        }
    }
}

impl<P: Phase> Phase for Bounded<P> {
    type Output = P::Output;

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        self.used += 1;
        self.inner.act(ctx, rng)
    }

    fn observe(
        &mut self,
        ctx: &RoundContext,
        feedback: Feedback<u32>,
        rng: &mut SmallRng,
    ) -> Option<PhaseOutcome<P::Output>> {
        let outcome = self.inner.observe(ctx, feedback, rng);
        self.bound(outcome)
    }

    fn outcome(&self) -> Option<PhaseOutcome<P::Output>> {
        self.bound(self.inner.outcome())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn collect_stats(&self, out: &mut Vec<PhaseStats>) {
        self.inner.collect_stats(out);
    }

    fn invariant_violation(&self) -> Option<&'static str> {
        self.inner.invariant_violation()
    }
}

/// The no-op phase: complete from the moment it is constructed, carrying a
/// fixed value. The identity element for [`AndThen`] — sequencing a stack
/// with `Pass` on either side leaves its round-for-round behavior
/// unchanged (pinned by the property tests in `tests/phase_props.rs`).
///
/// A single `Pass` adjacent to a real phase hands off instantly; each
/// *additional* consecutive instant phase in a nested chain costs one
/// sleeping round, because a combinator can only advance its own handoff
/// per lifecycle edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pass<T> {
    value: T,
}

impl<T: Clone> Pass<T> {
    /// A phase that immediately completes with `value`.
    #[must_use]
    pub fn new(value: T) -> Self {
        Pass { value }
    }
}

impl<T: Clone> Phase for Pass<T> {
    type Output = T;

    #[inline]
    fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u32> {
        Action::Sleep
    }

    #[inline]
    fn observe(
        &mut self,
        _ctx: &RoundContext,
        _feedback: Feedback<u32>,
        _rng: &mut SmallRng,
    ) -> Option<PhaseOutcome<T>> {
        self.outcome()
    }

    #[inline]
    fn outcome(&self) -> Option<PhaseOutcome<T>> {
        Some(PhaseOutcome::Complete(self.value.clone()))
    }

    fn name(&self) -> &'static str {
        "pass"
    }

    fn collect_stats(&self, _out: &mut Vec<PhaseStats>) {}
}

/// Adapter that runs any [`Phase`] stack on the engine by implementing
/// [`Protocol`].
///
/// The mapping from phase outcomes to protocol status follows the
/// conventions the standalone step protocols already use: no outcome ⇒
/// [`Status::Active`]; `Terminated(s)` ⇒ `s`; `Complete(_)` ⇒
/// [`Status::Inactive`] (a node whose stack completed without electing
/// itself retires, exactly like a standalone [`crate::Reduce`] survivor).
#[derive(Debug, Clone)]
pub struct PhaseProtocol<P> {
    phase: P,
    /// Cached terminal status, mirroring `phase.outcome()`.
    ///
    /// The engine reads `status()` after every `observe`, and on a
    /// composed stack every `outcome()` call re-walks the nested
    /// combinator chain. Outcomes only change inside `observe` (or at
    /// construction — lifecycle contract point 2), so the cache is set
    /// from `outcome()` once at construction and from the value `observe`
    /// returns after that, which makes `status()` a field read without
    /// changing any value the engine can observe.
    settled: Option<Status>,
}

impl<P: Phase> PhaseProtocol<P> {
    /// Wraps a phase stack into a [`Protocol`] runnable on the engine.
    #[must_use]
    #[inline]
    pub fn new(phase: P) -> Self {
        PhaseProtocol {
            settled: settled_status(phase.outcome()),
            phase,
        }
    }

    /// The wrapped stack.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.phase
    }

    /// Unwraps the stack.
    #[must_use]
    pub fn into_inner(self) -> P {
        self.phase
    }

    /// Whether the stack has produced an outcome (the node no longer acts).
    #[must_use]
    pub fn is_settled(&self) -> bool {
        self.settled.is_some()
    }

    /// The stack's completion value, if it completed.
    #[must_use]
    pub fn output(&self) -> Option<P::Output> {
        match self.phase.outcome() {
            Some(PhaseOutcome::Complete(value)) => Some(value),
            _ => None,
        }
    }
}

/// The protocol status a stack's outcome maps to, `None` while it runs.
#[inline]
fn settled_status<T>(outcome: Option<PhaseOutcome<T>>) -> Option<Status> {
    match outcome {
        None => None,
        Some(PhaseOutcome::Terminated(status)) => Some(status),
        Some(PhaseOutcome::Complete(_)) => Some(Status::Inactive),
    }
}

impl<P: Phase> Protocol for PhaseProtocol<P> {
    type Msg = u32;

    #[inline]
    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        if self.settled.is_some() {
            return Action::Sleep;
        }
        self.phase.act(ctx, rng)
    }

    #[inline]
    fn observe(&mut self, ctx: &RoundContext, feedback: Feedback<u32>, rng: &mut SmallRng) {
        if self.settled.is_some() {
            return;
        }
        self.settled = settled_status(self.phase.observe(ctx, feedback, rng));
    }

    #[inline]
    fn status(&self) -> Status {
        self.settled.unwrap_or(Status::Active)
    }

    #[inline]
    fn phase(&self) -> &'static str {
        if self.settled.is_some() {
            "done"
        } else {
            self.phase.label()
        }
    }
}

/// Object-safe read access to the per-phase telemetry spine.
///
/// Everything the workspace runs — composed stacks, the pipeline facade,
/// standalone steps, baselines, wake-up-wrapped nodes — implements this,
/// so [`crate::session::Session`] and the experiment harness read phase
/// statistics through one API regardless of which algorithm produced
/// them. Protocols without phase structure report a single record (or
/// none).
pub trait PhaseTelemetry: Protocol<Msg = u32> {
    /// The node's spine: one [`PhaseStats`] record per phase entered, in
    /// execution order.
    fn phase_stats(&self) -> Vec<PhaseStats>;
}

impl<P: PhaseTelemetry + ?Sized> PhaseTelemetry for Box<P> {
    fn phase_stats(&self) -> Vec<PhaseStats> {
        (**self).phase_stats()
    }
}

impl<P: Phase> PhaseTelemetry for PhaseProtocol<P> {
    fn phase_stats(&self) -> Vec<PhaseStats> {
        let mut out = Vec::new();
        self.phase.collect_stats(&mut out);
        out
    }
}

/// Implements [`PhaseTelemetry`] for a type that implements [`Phase`], by
/// collecting its own spine.
macro_rules! impl_phase_telemetry {
    ($ty:ty) => {
        impl crate::phase::PhaseTelemetry for $ty {
            fn phase_stats(&self) -> ::std::vec::Vec<crate::phase::PhaseStats> {
                let mut out = ::std::vec::Vec::new();
                crate::phase::Phase::collect_stats(self, &mut out);
                out
            }
        }
    };
}

/// Implements [`Phase`] (plus [`PhaseTelemetry`]) for a protocol that only
/// ever *terminates* — its [`mac_sim::Protocol::status`] goes straight
/// from active to a terminal state, with no completion value to hand on
/// (all the prior-art baselines are of this shape).
///
/// The type must have a `meter: PhaseMeter` field.
macro_rules! impl_terminal_phase {
    ($ty:ty, $name:literal) => {
        impl crate::phase::Phase for $ty {
            type Output = ();

            fn act(
                &mut self,
                ctx: &mac_sim::RoundContext,
                rng: &mut rand::rngs::SmallRng,
            ) -> mac_sim::Action<u32> {
                let action = mac_sim::Protocol::act(self, ctx, rng);
                self.meter.on_act(&action);
                action
            }

            fn observe(
                &mut self,
                ctx: &mac_sim::RoundContext,
                feedback: mac_sim::Feedback<u32>,
                rng: &mut rand::rngs::SmallRng,
            ) -> ::std::option::Option<crate::phase::PhaseOutcome<()>> {
                mac_sim::Protocol::observe(self, ctx, feedback, rng);
                crate::phase::Phase::outcome(self)
            }

            fn outcome(&self) -> ::std::option::Option<crate::phase::PhaseOutcome<()>> {
                match mac_sim::Protocol::status(self) {
                    mac_sim::Status::Active => ::std::option::Option::None,
                    status => {
                        ::std::option::Option::Some(crate::phase::PhaseOutcome::Terminated(status))
                    }
                }
            }

            fn name(&self) -> &'static str {
                $name
            }

            fn label(&self) -> &'static str {
                mac_sim::Protocol::phase(self)
            }

            fn collect_stats(&self, out: &mut ::std::vec::Vec<crate::phase::PhaseStats>) {
                out.push(self.meter.snapshot($name));
            }
        }

        crate::phase::impl_phase_telemetry!($ty);
    };
}

pub(crate) use impl_phase_telemetry;
pub(crate) use impl_terminal_phase;

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::ChannelId;

    /// A scripted phase for combinator tests: acts `rounds` times, then
    /// completes with `value` (or terminates with `terminal`).
    #[derive(Debug, Clone)]
    struct Scripted {
        rounds_left: u64,
        value: u32,
        terminal: Option<Status>,
        meter: PhaseMeter,
    }

    impl Scripted {
        fn completes(rounds: u64, value: u32) -> Self {
            Scripted {
                rounds_left: rounds,
                value,
                terminal: None,
                meter: PhaseMeter::default(),
            }
        }

        fn terminates(rounds: u64, status: Status) -> Self {
            Scripted {
                rounds_left: rounds,
                value: 0,
                terminal: Some(status),
                meter: PhaseMeter::default(),
            }
        }
    }

    impl Phase for Scripted {
        type Output = u32;

        fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u32> {
            let action = Action::transmit(ChannelId::PRIMARY, self.value);
            self.meter.on_act(&action);
            action
        }

        fn observe(
            &mut self,
            _ctx: &RoundContext,
            _fb: Feedback<u32>,
            _rng: &mut SmallRng,
        ) -> Option<PhaseOutcome<u32>> {
            self.rounds_left -= 1;
            self.outcome()
        }

        fn outcome(&self) -> Option<PhaseOutcome<u32>> {
            if self.rounds_left > 0 {
                return None;
            }
            Some(match self.terminal {
                Some(status) => PhaseOutcome::Terminated(status),
                None => PhaseOutcome::Complete(self.value),
            })
        }

        fn name(&self) -> &'static str {
            "scripted"
        }

        fn collect_stats(&self, out: &mut Vec<PhaseStats>) {
            out.push(self.meter.snapshot("scripted"));
        }
    }

    fn ctx() -> RoundContext {
        RoundContext {
            round: 0,
            local_round: 0,
            channels: 1,
        }
    }

    fn rng() -> SmallRng {
        use rand::SeedableRng;
        SmallRng::seed_from_u64(0)
    }

    /// Steps a protocol through `rounds` act/observe rounds with silent
    /// feedback.
    fn step<P: Protocol<Msg = u32>>(node: &mut P, rounds: u64) {
        let (ctx, mut rng) = (ctx(), rng());
        for _ in 0..rounds {
            let _ = node.act(&ctx, &mut rng);
            node.observe(&ctx, Feedback::Silence, &mut rng);
        }
    }

    #[test]
    fn and_then_hands_value_to_builder() {
        let mut seen = None;
        let stack = Scripted::completes(2, 7).and_then(|v: u32| {
            seen = Some(v);
            Scripted::completes(1, v + 1)
        });
        let mut node = PhaseProtocol::new(stack);
        step(&mut node, 2);
        assert_eq!(node.status(), Status::Active, "second phase still runs");
        step(&mut node, 1);
        assert_eq!(node.status(), Status::Inactive);
        assert_eq!(node.output(), Some(8));
        drop(node);
        assert_eq!(seen, Some(7));
    }

    #[test]
    fn and_then_propagates_termination_without_building_second() {
        let stack = Scripted::terminates(1, Status::Leader)
            .and_then(|_: u32| -> Scripted { unreachable!() });
        let mut node = PhaseProtocol::new(stack);
        step(&mut node, 1);
        assert_eq!(node.status(), Status::Leader);
    }

    #[test]
    fn and_then_archives_first_phase_stats() {
        let stack = Scripted::completes(3, 1).and_then(|_| Scripted::completes(2, 2));
        let mut node = PhaseProtocol::new(stack);
        step(&mut node, 5);
        let spine = node.phase_stats();
        assert_eq!(spine.len(), 2);
        assert_eq!(spine[0].rounds, 3);
        assert_eq!(spine[0].transmissions, 3);
        assert_eq!(spine[1].rounds, 2);
    }

    #[test]
    fn pass_prefix_hands_off_without_a_round() {
        let stack = Pass::new(5u32).and_then(|v: u32| Scripted::completes(u64::from(v), v));
        let mut node = PhaseProtocol::new(stack);
        assert_eq!(node.status(), Status::Active);
        step(&mut node, 5);
        assert_eq!(node.status(), Status::Inactive);
        let spine = node.phase_stats();
        assert_eq!(spine.len(), 1, "Pass contributes no record");
        assert_eq!(spine[0].rounds, 5);
    }

    #[test]
    fn with_fallback_selects_arm() {
        let primary: WithFallback<Scripted, Scripted> =
            Scripted::completes(1, 1).with_fallback(false, Scripted::completes(9, 9));
        assert!(!primary.is_fallback());
        let fallback: WithFallback<Scripted, Scripted> =
            Scripted::completes(1, 1).with_fallback(true, Scripted::completes(9, 9));
        assert!(fallback.is_fallback());
        let mut node = PhaseProtocol::new(fallback);
        step(&mut node, 9);
        assert_eq!(node.output(), Some(9));
    }

    #[test]
    fn bounded_gives_up_at_budget() {
        let mut node = PhaseProtocol::new(Scripted::completes(10, 1).bounded(3));
        step(&mut node, 3);
        assert_eq!(node.status(), Status::Inactive);
        assert!(node.inner().expired());
        // Settled nodes sleep.
        let (ctx, mut rng) = (ctx(), rng());
        assert!(matches!(node.act(&ctx, &mut rng), Action::Sleep));
    }

    #[test]
    fn bounded_is_transparent_under_budget() {
        let mut node = PhaseProtocol::new(Scripted::completes(2, 4).bounded(10));
        step(&mut node, 2);
        assert_eq!(node.output(), Some(4));
        assert!(!node.inner().expired());
    }

    #[test]
    #[should_panic(expected = "positive round budget")]
    fn bounded_rejects_zero_budget() {
        let _ = Scripted::completes(1, 1).bounded(0);
    }

    #[test]
    fn phase_protocol_reports_done_label_when_settled() {
        let mut node = PhaseProtocol::new(Scripted::completes(1, 1));
        assert_eq!(node.phase(), "scripted");
        step(&mut node, 1);
        assert_eq!(node.phase(), "done");
        assert!(node.is_settled());
    }

    #[test]
    fn meter_counts_rounds_and_transmissions() {
        let mut meter = PhaseMeter::default();
        meter.on_act(&Action::transmit(ChannelId::PRIMARY, 0u32));
        meter.on_act(&Action::<u32>::listen(ChannelId::PRIMARY));
        let record = meter.snapshot("x");
        assert_eq!(record.rounds, 2);
        assert_eq!(record.transmissions, 1);
        assert_eq!(record.adopted_id, None);
        assert_eq!(meter.rounds(), 2);
    }
}
