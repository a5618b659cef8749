//! The [`Protocol`] trait that node algorithms implement.

use rand::rngs::SmallRng;

use crate::action::{Action, Feedback};

/// Lifecycle status of a node, as reported by its protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Status {
    /// The node is still participating in the algorithm.
    #[default]
    Active,
    /// The node has terminated believing it is the elected leader.
    Leader,
    /// The node has terminated without becoming leader (it was knocked out,
    /// renamed away, or its cohort lost a pairing round).
    Inactive,
}

impl Status {
    /// Returns `true` if the node has terminated (leader or inactive).
    #[must_use]
    pub fn is_terminated(self) -> bool {
        !matches!(self, Status::Active)
    }
}

/// Read-only context handed to a protocol every round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundContext {
    /// The global round number, starting at 0.
    pub round: u64,
    /// The round number relative to this node's wake-up round (0 in the
    /// round the node wakes). Equal to `round` under simultaneous start.
    pub local_round: u64,
    /// Number of channels `C`.
    pub channels: u32,
}

/// A node algorithm, written as a synchronous-round state machine.
///
/// Each round, the executor calls [`Protocol::act`] on every awake node whose
/// [`Protocol::status`] is [`Status::Active`], resolves all channels, then
/// calls [`Protocol::observe`] with the feedback the node's radio produced.
/// A node whose status becomes [`Status::Leader`] or [`Status::Inactive`]
/// stops being scheduled.
///
/// Implementations must be deterministic given the provided RNG: all
/// randomness must come from the `rng` argument, which the executor seeds
/// per node from the master seed.
///
/// `Protocol` is the *flat* interface the engine schedules — one state
/// machine, one terminal status. Algorithms with internal structure
/// (sequenced steps, fallback branches, typed handoffs between steps) are
/// better written as composable phases and adapted down to this trait; see
/// the `contention` crate's `phase` module (`Phase`, `PhaseProtocol`), which
/// also carries a per-phase stats spine that the engine itself never needs
/// to know about.
pub trait Protocol {
    /// Message payload type carried by transmissions.
    type Msg: Clone;

    /// Called exactly once, in the round the node wakes up, before its first
    /// [`Protocol::act`]. Default: no-op.
    fn on_wake(&mut self, ctx: &RoundContext, rng: &mut SmallRng) {
        let _ = (ctx, rng);
    }

    /// Choose this round's action.
    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<Self::Msg>;

    /// Receive the feedback for the action chosen this round.
    fn observe(&mut self, ctx: &RoundContext, feedback: Feedback<Self::Msg>, rng: &mut SmallRng);

    /// Current lifecycle status. Checked after every `observe`.
    fn status(&self) -> Status;

    /// A short label for the algorithm phase the node is currently in, used
    /// to label the events sinks receive (per-phase accounting in
    /// [`crate::obs::RunRecorder`], the round labels of a [`crate::Trace`]).
    /// Default: `"main"`.
    ///
    /// This label is for *observation* (records, traces); it must never
    /// influence behavior. Composed phase stacks report their currently
    /// running child's fine-grained label here.
    fn phase(&self) -> &'static str {
        "main"
    }
}

impl<P: Protocol + ?Sized> Protocol for Box<P> {
    type Msg = P::Msg;

    fn on_wake(&mut self, ctx: &RoundContext, rng: &mut SmallRng) {
        (**self).on_wake(ctx, rng);
    }

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<Self::Msg> {
        (**self).act(ctx, rng)
    }

    fn observe(&mut self, ctx: &RoundContext, feedback: Feedback<Self::Msg>, rng: &mut SmallRng) {
        (**self).observe(ctx, feedback, rng);
    }

    fn status(&self) -> Status {
        (**self).status()
    }

    fn phase(&self) -> &'static str {
        (**self).phase()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_protocols_are_protocols() {
        struct Quiet;
        impl Protocol for Quiet {
            type Msg = ();
            fn act(&mut self, _: &RoundContext, _: &mut SmallRng) -> Action<()> {
                Action::Sleep
            }
            fn observe(&mut self, _: &RoundContext, _: Feedback<()>, _: &mut SmallRng) {}
            fn status(&self) -> Status {
                Status::Inactive
            }
        }
        let mut boxed: Box<dyn Protocol<Msg = ()>> = Box::new(Quiet);
        assert_eq!(boxed.status(), Status::Inactive);
        assert_eq!(boxed.phase(), "main");
        let ctx = RoundContext {
            round: 0,
            local_round: 0,
            channels: 1,
        };
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(0);
        boxed.on_wake(&ctx, &mut rng);
        assert!(matches!(boxed.act(&ctx, &mut rng), Action::Sleep));
        boxed.observe(&ctx, Feedback::Slept, &mut rng);
    }

    #[test]
    fn status_termination() {
        assert!(!Status::Active.is_terminated());
        assert!(Status::Leader.is_terminated());
        assert!(Status::Inactive.is_terminated());
        assert_eq!(Status::default(), Status::Active);
    }
}
