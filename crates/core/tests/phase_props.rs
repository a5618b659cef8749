//! Property-based tests (proptest) over the phase combinators.
//!
//! Two families of invariants, referenced from the `contention::phase`
//! module docs:
//!
//! * **`Pass` is the identity for `and_then`** — splicing the no-op phase
//!   into a stack (as a prefix, a suffix, or between two real phases)
//!   leaves the engine-observable run bit-identical: same solve round,
//!   same executed rounds, same per-node transmissions, same telemetry
//!   spine. This is what makes the combinators algebra and not just
//!   plumbing: handoffs cost no rounds and consume no RNG.
//! * **`observe` returns the outcome `outcome()` reports** — the value a
//!   phase hands back from `observe` is what combinators hand off on and
//!   what `PhaseProtocol` settles on, so after every `observe`, at every
//!   level of generated stacks (with `Pass` splices, `Bounded` expiry and
//!   `Supervised` restarts), it must equal a fresh `outcome()` probe.
//! * **`staggered()` costs at most ×2 + constant** — wrapping an arbitrary
//!   composed stack in the §3 wake-up transform solves within
//!   `2·T + 2·LISTEN_ROUNDS + 2` rounds of the unwrapped stack's `T`, for
//!   arbitrary seeds and populations, not just the hand-picked unit case.

use std::cell::Cell;
use std::rc::Rc;

use contention::baselines::CdTournament;
use contention::phase::{Pass, Phase, PhaseOutcome, PhaseProtocol, PhaseStats, PhaseTelemetry};
use contention::supervise::BuildPhase;
use contention::wakeup::LISTEN_ROUNDS;
use contention::{MakePaperStack, Params, Reduce, RestartPolicy, Supervised};
use mac_sim::{
    Action, CdMode, Engine, Feedback, Protocol, RoundContext, SimConfig, SimError, Status,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;

const N: u64 = 1 << 10;
const MODES: [CdMode; 3] = [CdMode::Strong, CdMode::ReceiverOnly, CdMode::None];

/// Everything the engine lets us observe about a run: the report's solve
/// fingerprint plus each node's terminal status and telemetry spine.
type Fingerprint = (Option<u64>, u64, Vec<u64>, Vec<(Status, Vec<PhaseStats>)>);

fn fingerprint<P>(
    c: u32,
    seed: u64,
    mode: CdMode,
    count: usize,
    build: impl Fn() -> P,
) -> Fingerprint
where
    P: Phase,
    PhaseProtocol<P>: Protocol + PhaseTelemetry,
{
    let cfg = SimConfig::new(c).seed(seed).cd_mode(mode).max_rounds(3_000);
    let mut exec = Engine::new(cfg).populated((0..count).map(|_| PhaseProtocol::new(build())));
    let report = match exec.run() {
        Ok(report) => report,
        // Weak CD modes may time out by design; the partial run is still a
        // deterministic fingerprint the identity must preserve.
        Err(SimError::Timeout { .. }) => exec.report(),
        Err(e) => panic!("unexpected simulation error: {e}"),
    };
    let nodes = exec
        .iter_nodes()
        .map(|node| (node.status(), node.phase_stats()))
        .collect();
    (
        report.solved_round,
        report.rounds_executed,
        report.metrics.transmissions_per_node.clone(),
        nodes,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Prefix identity: `Pass.and_then(stack)` runs the stack unchanged —
    /// the instant handoff happens before the first `act`, costing no
    /// round and no RNG draw, under every CD mode.
    #[test]
    fn pass_prefix_is_identity(
        seed in any::<u64>(),
        count in 2usize..30,
        c in 1u32..8,
        mode_idx in 0usize..3,
    ) {
        let mode = MODES[mode_idx];
        let bare = fingerprint(c, seed, mode, count, CdTournament::new);
        let spliced = fingerprint(c, seed, mode, count, || {
            Pass::new(()).and_then(|()| CdTournament::new())
        });
        prop_assert_eq!(bare, spliced);
    }

    /// Suffix identity: a trailing `Pass` completes in the same `observe`
    /// that completes the real phase, so the composition terminates in the
    /// same round with the same spine.
    #[test]
    fn pass_suffix_is_identity(
        seed in any::<u64>(),
        count in 2usize..30,
        c_idx in 0usize..3,
    ) {
        let c = [8u32, 16, 32][c_idx];
        let params = Params::practical();
        let bare = fingerprint(c, seed, CdMode::Strong, count, || {
            Reduce::with_params(params, N)
        });
        let spliced = fingerprint(c, seed, CdMode::Strong, count, || {
            Reduce::with_params(params, N).and_then(|()| Pass::new(()))
        });
        prop_assert_eq!(bare, spliced);
    }

    /// Infix identity: splicing `Pass` *between* two real phases leaves the
    /// hybrid `Reduce -> CdTournament` stack round-for-round identical —
    /// the barrier handoff is exactly one handoff even with the no-op in
    /// the middle.
    #[test]
    fn pass_between_phases_is_identity(
        seed in any::<u64>(),
        count in 2usize..30,
        c_idx in 0usize..3,
    ) {
        let c = [8u32, 16, 32][c_idx];
        let params = Params::practical();
        let bare = fingerprint(c, seed, CdMode::Strong, count, || {
            Reduce::with_params(params, N).and_then(|()| CdTournament::new())
        });
        let spliced = fingerprint(c, seed, CdMode::Strong, count, || {
            Reduce::with_params(params, N)
                .and_then(|()| Pass::new(()))
                .and_then(|()| CdTournament::new())
        });
        prop_assert_eq!(bare, spliced);
    }
}

/// Measures an arbitrary stack bare and under `staggered()` (simultaneous
/// wake, so the ×2 simulation is the only overhead). Returns `None` when
/// the bare stack does not solve within the budget — the bound is about
/// overhead, so it only speaks when there is a baseline.
fn bare_and_staggered<P, F>(c: u32, seed: u64, count: usize, mut build: F) -> Option<(u64, u64)>
where
    P: Phase,
    F: FnMut() -> P,
{
    let base = {
        let mut exec = Engine::new(SimConfig::new(c).seed(seed).max_rounds(20_000))
            .populated((0..count).map(|_| PhaseProtocol::new(build())));
        exec.run().ok()?.rounds_to_solve()?
    };
    let wrapped = {
        let mut exec = Engine::new(SimConfig::new(c).seed(seed).max_rounds(60_000));
        for _ in 0..count {
            exec.add_node_at(build().staggered(), 0);
        }
        exec.run().ok()?.rounds_to_solve()?
    };
    Some((base, wrapped))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The §3 wake-up transform's overhead bound, for arbitrary composed
    /// stacks: `staggered()` solves within `2·T + 2·LISTEN_ROUNDS + 2`
    /// rounds of the unwrapped stack's `T` — the listen prefix plus the
    /// two-rounds-per-simulated-round slowdown, and nothing else.
    #[test]
    fn staggered_overhead_is_at_most_double_plus_constant(
        seed in any::<u64>(),
        count in 2usize..25,
        c_idx in 0usize..3,
        stack_idx in 0usize..3,
    ) {
        let c = [8u32, 16, 32][c_idx];
        let params = Params::practical();
        let measured = match stack_idx {
            0 => bare_and_staggered(c, seed, count, CdTournament::new),
            1 => bare_and_staggered(c, seed, count, || {
                Reduce::with_params(params, N).and_then(|()| CdTournament::new())
            }),
            _ => bare_and_staggered(c, seed, count, || {
                Reduce::with_params(params, N)
                    .and_then(|()| CdTournament::new())
                    .bounded(10_000)
            }),
        };
        if let Some((base, wrapped)) = measured {
            prop_assert!(
                wrapped <= 2 * base + 2 * LISTEN_ROUNDS + 2,
                "stack {}: wrapped {} vs base {}", stack_idx, wrapped, base
            );
        }
    }
}

/// What the [`Checked`] wrappers of one run saw.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    /// `observe` calls checked.
    observes: u64,
    /// Of those, how many returned an outcome.
    outcomes: u64,
    /// Of those, how many disagreed with the `outcome()` probe after them.
    mismatches: u64,
}

/// A transparent phase wrapper that checks, after every `observe`, that
/// the returned outcome equals `outcome()`, tallying into a shared cell.
#[derive(Debug)]
struct Checked<P> {
    inner: P,
    tally: Rc<Cell<Tally>>,
}

fn checked<P>(tally: &Rc<Cell<Tally>>, inner: P) -> Checked<P> {
    Checked {
        inner,
        tally: tally.clone(),
    }
}

impl<P: Phase> Phase for Checked<P>
where
    P::Output: PartialEq,
{
    type Output = P::Output;

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        self.inner.act(ctx, rng)
    }

    fn observe(
        &mut self,
        ctx: &RoundContext,
        feedback: Feedback<u32>,
        rng: &mut SmallRng,
    ) -> Option<PhaseOutcome<P::Output>> {
        let returned = self.inner.observe(ctx, feedback, rng);
        let mut tally = self.tally.get();
        tally.observes += 1;
        tally.outcomes += u64::from(returned.is_some());
        tally.mismatches += u64::from(returned != self.inner.outcome());
        self.tally.set(tally);
        returned
    }

    fn outcome(&self) -> Option<PhaseOutcome<P::Output>> {
        self.inner.outcome()
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

/// Runs `count` nodes of the stack `build` makes, each wrapped in one more
/// [`Checked`] at the top, and returns the tally of every check.
fn run_checked<P, F>(c: u32, seed: u64, count: usize, mut build: F) -> Tally
where
    P: Phase,
    P::Output: PartialEq,
    F: FnMut(&Rc<Cell<Tally>>) -> P,
{
    let tally = Rc::new(Cell::new(Tally::default()));
    let cfg = SimConfig::new(c)
        .seed(seed)
        .stop_when(mac_sim::StopWhen::AllTerminated)
        .max_rounds(2_000);
    let mut exec = Engine::new(cfg)
        .populated((0..count).map(|_| PhaseProtocol::new(checked(&tally, build(&tally)))));
    match exec.run() {
        Ok(_) | Err(SimError::Timeout { .. }) => {}
        Err(e) => panic!("unexpected simulation error: {e}"),
    }
    tally.get()
}

/// Builds checked paper stacks for [`Supervised`], so every restarted
/// attempt is checked too.
struct MakeCheckedPaper {
    make: MakePaperStack,
    tally: Rc<Cell<Tally>>,
}

impl BuildPhase for MakeCheckedPaper {
    type Phase = Checked<<MakePaperStack as BuildPhase>::Phase>;

    fn build(&mut self) -> Self::Phase {
        checked(&self.tally, self.make.build())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every `observe`, at every wrapped level, the returned outcome
    /// is the probed one — through `Pass` splices (prefix and infix, so
    /// handoffs land on a successor that is complete at construction),
    /// `Bounded` expiry, `Supervised` restarts and give-ups, and the
    /// paper stack itself.
    #[test]
    fn observe_returns_the_probed_outcome(
        seed in any::<u64>(),
        count in 2usize..40,
        c_idx in 0usize..3,
        stack_idx in 0usize..6,
        budget in 1u64..12,
        attempts in 1u32..4,
    ) {
        let c = [1u32, 16, 64][c_idx];
        let params = Params::practical();
        let tally = match stack_idx {
            0 => run_checked(c, seed, count, |t| {
                checked(t, Reduce::with_params(params, N))
                    .and_then({ let t = t.clone(); move |()| checked(&t, Pass::new(())) })
                    .and_then({ let t = t.clone(); move |()| checked(&t, CdTournament::new()) })
            }),
            1 => run_checked(c, seed, count, |t| {
                Pass::new(())
                    .and_then({ let t = t.clone(); move |()| checked(&t, Pass::new(())) })
                    .and_then({ let t = t.clone(); move |()| checked(&t, Reduce::with_params(params, N)) })
            }),
            2 => run_checked(c, seed, count, |t| {
                checked(t, Reduce::with_params(params, N).bounded(budget))
                    .and_then({ let t = t.clone(); move |()| checked(&t, CdTournament::new().bounded(budget)) })
                    .bounded(2 * budget)
            }),
            3 => run_checked(c, seed, count, |t| {
                let inner = t.clone();
                Supervised::new(
                    move || {
                        checked(&inner, Reduce::with_params(params, N))
                            .and_then(|()| CdTournament::new())
                    },
                    RestartPolicy::new(budget, attempts),
                )
            }),
            4 => run_checked(c, seed, count, |_| {
                MakePaperStack { params, channels: c, n: N }.build()
            }),
            _ => run_checked(c, seed, count, |t| {
                let make = MakeCheckedPaper {
                    make: MakePaperStack { params, channels: c, n: N },
                    tally: t.clone(),
                };
                Supervised::new(make, RestartPolicy::new(budget, attempts))
            }),
        };
        prop_assert!(tally.observes > 0);
        prop_assert!(tally.outcomes > 0, "no stack ever settled: {:?}", tally);
        prop_assert_eq!(tally.mismatches, 0, "{:?}", tally);
    }
}
