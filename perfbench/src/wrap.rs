//! Timing wrappers over the simulator's public traits. Each forwards every
//! call unchanged (no RNG draws, no reordering), so a wrapped run is
//! bit-identical to a bare one — the benchmark checks that by comparing
//! the traced run's digest with the untraced run's.

use std::rc::Rc;

use mac_sim::{
    Action, ChannelId, ChannelOutcome, ChannelState, Engine, EventSink, Feedback, FeedbackModel,
    NodeId, Protocol, RoundContext, RunReport, SimConfig, SimError, SlotState, Status,
};
use rand::rngs::SmallRng;

use crate::trace::{Layer, Model, Phase, Tracer};

/// Times `act` and `observe`, keyed by the phase label the protocol
/// reports: after `act` (the phase that produced the action, as the
/// engine's own accounting does) and before `observe` (the phase that
/// receives the feedback).
pub struct TimedProtocol<P> {
    inner: P,
    tracer: Rc<Tracer>,
    /// The last label seen and its phase: labels are `&'static str`, so a
    /// pointer compare usually skips the string match.
    label: (&'static str, Phase),
}

impl<P> TimedProtocol<P> {
    pub fn new(inner: P, tracer: Rc<Tracer>) -> Self {
        TimedProtocol {
            inner,
            tracer,
            label: ("", Phase::Other),
        }
    }
}

impl<P: Protocol> TimedProtocol<P> {
    fn phase_now(&mut self) -> Phase {
        let label = self.inner.phase();
        if !std::ptr::eq(label, self.label.0) {
            self.label = (label, Phase::of_label(label));
        }
        self.label.1
    }
}

impl<P: Protocol> Protocol for TimedProtocol<P> {
    type Msg = P::Msg;

    fn on_wake(&mut self, ctx: &RoundContext, rng: &mut SmallRng) {
        let timed = self.tracer.leaf_start();
        self.inner.on_wake(ctx, rng);
        self.tracer.leaf_end(timed, Layer::ProtocolWake, None);
    }

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<P::Msg> {
        let timed = self.tracer.leaf_start();
        let action = self.inner.act(ctx, rng);
        let phase = self.phase_now();
        self.tracer
            .leaf_end(timed, Layer::PhaseAct(phase), Some(ctx.round));
        action
    }

    fn observe(&mut self, ctx: &RoundContext, feedback: Feedback<P::Msg>, rng: &mut SmallRng) {
        let phase = self.phase_now();
        let timed = self.tracer.leaf_start();
        self.inner.observe(ctx, feedback, rng);
        self.tracer
            .leaf_end(timed, Layer::PhaseObserve(phase), None);
    }

    fn status(&self) -> Status {
        self.inner.status()
    }

    fn phase(&self) -> &'static str {
        self.inner.phase()
    }
}

/// Times a feedback model's (or fault layer's) `begin_round` and
/// `deliver`. Wrapping both a `Layered` stack and its inner model gives
/// the fault layer's own cost as the outer wrapper's self time.
pub struct TimedFeedback<F> {
    inner: F,
    model: Model,
    tracer: Rc<Tracer>,
}

impl<F> TimedFeedback<F> {
    pub fn new(inner: F, model: Model, tracer: Rc<Tracer>) -> Self {
        TimedFeedback {
            inner,
            model,
            tracer,
        }
    }

    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<F: FeedbackModel> FeedbackModel for TimedFeedback<F> {
    fn bind(&mut self, config: &SimConfig) {
        self.inner.bind(config);
    }

    fn begin_round(&mut self, round: u64) {
        let timed = self.tracer.leaf_start();
        self.inner.begin_round(round);
        self.tracer
            .leaf_end(timed, Layer::FeedbackBegin(self.model), None);
    }

    fn filter_action<M: Clone>(&mut self, node: NodeId, action: Action<M>) -> Action<M> {
        self.inner.filter_action(node, action)
    }

    fn drain_crashed(&mut self, out: &mut Vec<NodeId>) {
        self.inner.drain_crashed(out);
    }

    fn allows_solve(&mut self, solver: NodeId) -> bool {
        self.inner.allows_solve(solver)
    }

    fn deliver<M: Clone>(
        &mut self,
        action: &Action<M>,
        state: &ChannelState<'_, M>,
    ) -> Feedback<M> {
        let timed = self.tracer.leaf_start();
        let heard = self.inner.deliver(action, state);
        self.tracer
            .leaf_end(timed, Layer::FeedbackDeliver(self.model), None);
        heard
    }
}

/// Times every event an engine streams into a sink.
pub struct TimedSink<S> {
    pub inner: S,
    tracer: Rc<Tracer>,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S, tracer: Rc<Tracer>) -> Self {
        TimedSink { inner, tracer }
    }
}

impl<S: EventSink> EventSink for TimedSink<S> {
    fn on_transmission(
        &mut self,
        round: u64,
        node: NodeId,
        channel: ChannelId,
        phase: &'static str,
    ) {
        let timed = self.tracer.leaf_start();
        self.inner.on_transmission(round, node, channel, phase);
        self.tracer.leaf_end(timed, Layer::SinkEvents, None);
    }

    fn on_listen(&mut self, round: u64, node: NodeId, channel: ChannelId, phase: &'static str) {
        let timed = self.tracer.leaf_start();
        self.inner.on_listen(round, node, channel, phase);
        self.tracer.leaf_end(timed, Layer::SinkEvents, None);
    }

    fn on_solved(&mut self, round: u64, solver: NodeId) {
        let timed = self.tracer.leaf_start();
        self.inner.on_solved(round, solver);
        self.tracer.leaf_end(timed, Layer::SinkEvents, None);
    }

    fn on_round(&mut self, round: u64, phase: &'static str, outcomes: &[ChannelOutcome]) {
        let timed = self.tracer.leaf_start();
        self.inner.on_round(round, phase, outcomes);
        self.tracer.leaf_end(timed, Layer::SinkEvents, None);
    }

    fn on_retired(&mut self, round: u64, node: NodeId, state: SlotState) {
        let timed = self.tracer.leaf_start();
        self.inner.on_retired(round, node, state);
        self.tracer.leaf_end(timed, Layer::SinkEvents, None);
    }

    fn on_finished(&mut self, rounds_executed: u64) {
        let timed = self.tracer.leaf_start();
        self.inner.on_finished(rounds_executed);
        self.tracer.leaf_end(timed, Layer::SinkEvents, None);
    }

    fn wants_outcomes(&self) -> bool {
        self.inner.wants_outcomes()
    }

    fn wants_node_phases(&self) -> bool {
        self.inner.wants_node_phases()
    }
}

/// `Engine::run_observed` stepped through the tracer: the same loop, stop
/// test and round cap as the engine's own, with every step timed.
pub fn run_observed<P: Protocol, F: FeedbackModel>(
    engine: &mut Engine<P, F>,
    sink: &mut impl EventSink,
    tracer: &Tracer,
) -> Result<RunReport, SimError> {
    let max_rounds = engine.config().max_rounds;
    while !engine.is_finished() {
        if engine.current_round() >= max_rounds {
            return Err(SimError::Timeout { max_rounds });
        }
        tracer.enter(Layer::EngineStep);
        let stepped = engine.step_observed(sink);
        tracer.exit();
        stepped?;
    }
    Ok(engine.report())
}
