//! The observation layer: [`EventSink`], the single trait through which the
//! round engine reports what happened.
//!
//! The engine core *emits* events, and observers accumulate them. A run's
//! channel trace is recorded by attaching a [`crate::Trace`] via
//! [`crate::Engine::run_observed`], exactly like any user-supplied sink.
//!
//! A round is reported only once it can no longer fail: a round that
//! fails (with [`crate::SimError::ChannelOutOfRange`]) is not observed, by
//! a sink or by the engine's built-in [`crate::Metrics`].
//!
//! All methods have no-op defaults, so a sink implements only what it cares
//! about. `()` is the null sink.

use crate::channel::{ChannelId, ChannelOutcome};
use crate::engine::{NodeId, SlotState};
use crate::trace::{RoundTrace, Trace};

/// Receives execution events from the round engine.
///
/// Event order within a round: [`on_transmission`](EventSink::on_transmission)
/// / [`on_listen`](EventSink::on_listen) for each acting node (in node-id
/// order), then [`on_solved`](EventSink::on_solved) if this round's lone
/// primary-channel transmission solved the problem, then
/// [`on_round`](EventSink::on_round) closing the round. When the stop
/// condition is met, [`on_finished`](EventSink::on_finished) fires once.
/// A round that fails reports none of its events.
pub trait EventSink {
    /// One node transmitted on `channel` this round.
    fn on_transmission(
        &mut self,
        round: u64,
        node: NodeId,
        channel: ChannelId,
        phase: &'static str,
    ) {
        let _ = (round, node, channel, phase);
    }

    /// One node listened on `channel` this round.
    ///
    /// `phase` is the round's representative label by default; when the
    /// sink opts into [`wants_node_phases`](EventSink::wants_node_phases)
    /// it is the listening node's own label.
    fn on_listen(&mut self, round: u64, node: NodeId, channel: ChannelId, phase: &'static str) {
        let _ = (round, node, channel, phase);
    }

    /// The problem was solved this round by `solver`'s lone transmission on
    /// the primary channel. Fires at most once per run.
    fn on_solved(&mut self, round: u64, solver: NodeId) {
        let _ = (round, solver);
    }

    /// The round is complete. `outcomes` covers the channels that had at
    /// least one participant, sorted by channel — but it is only populated
    /// when some attached sink returns `true` from
    /// [`wants_outcomes`](EventSink::wants_outcomes); otherwise it is empty.
    fn on_round(&mut self, round: u64, phase: &'static str, outcomes: &[ChannelOutcome]) {
        let _ = (round, phase, outcomes);
    }

    /// Node `node` left the live population this round: `state` is
    /// [`SlotState::Terminated`] (clean protocol exit, including
    /// termination inside `on_wake`) or [`SlotState::Crashed`] (a fault
    /// layer killed it). Fires once per node, in the order retirements
    /// are processed within the round.
    fn on_retired(&mut self, round: u64, node: NodeId, state: SlotState) {
        let _ = (round, node, state);
    }

    /// The stop condition was met after `rounds_executed` rounds.
    fn on_finished(&mut self, rounds_executed: u64) {
        let _ = rounds_executed;
    }

    /// Whether this sink reads the `outcomes` slice of
    /// [`on_round`](EventSink::on_round). Sinks that do not (the default
    /// implementations don't) should return `false` so the engine can skip
    /// building per-channel outcome records entirely.
    fn wants_outcomes(&self) -> bool {
        true
    }

    /// Whether this sink needs *per-node* phase labels on
    /// [`on_transmission`](EventSink::on_transmission) /
    /// [`on_listen`](EventSink::on_listen). By default the engine passes
    /// every event the round's single representative label (the phase of
    /// the lowest-indexed active node) — exact for the paper's lockstep
    /// algorithms, and free. Sinks that account per-phase activity under
    /// staggered wake-ups or heterogeneous populations (notably
    /// [`crate::obs::RunRecorder`]) return `true`, and the engine then
    /// labels each event with the acting node's own phase, read once every
    /// node of the round has acted and before any observes its feedback,
    /// so the label names the phase that produced the action.
    fn wants_node_phases(&self) -> bool {
        false
    }
}

/// The null sink: observes nothing.
impl EventSink for () {
    fn wants_outcomes(&self) -> bool {
        false
    }
}

/// Delegation, so `&mut sink` and `&mut dyn EventSink` are themselves sinks.
impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn on_transmission(
        &mut self,
        round: u64,
        node: NodeId,
        channel: ChannelId,
        phase: &'static str,
    ) {
        (**self).on_transmission(round, node, channel, phase);
    }
    fn on_listen(&mut self, round: u64, node: NodeId, channel: ChannelId, phase: &'static str) {
        (**self).on_listen(round, node, channel, phase);
    }
    fn on_solved(&mut self, round: u64, solver: NodeId) {
        (**self).on_solved(round, solver);
    }
    fn on_round(&mut self, round: u64, phase: &'static str, outcomes: &[ChannelOutcome]) {
        (**self).on_round(round, phase, outcomes);
    }
    fn on_retired(&mut self, round: u64, node: NodeId, state: SlotState) {
        (**self).on_retired(round, node, state);
    }
    fn on_finished(&mut self, rounds_executed: u64) {
        (**self).on_finished(rounds_executed);
    }
    fn wants_outcomes(&self) -> bool {
        (**self).wants_outcomes()
    }
    fn wants_node_phases(&self) -> bool {
        (**self).wants_node_phases()
    }
}

/// Fan-out: a pair of sinks both observe every event.
impl<A: EventSink, B: EventSink> EventSink for (A, B) {
    fn on_transmission(
        &mut self,
        round: u64,
        node: NodeId,
        channel: ChannelId,
        phase: &'static str,
    ) {
        self.0.on_transmission(round, node, channel, phase);
        self.1.on_transmission(round, node, channel, phase);
    }
    fn on_listen(&mut self, round: u64, node: NodeId, channel: ChannelId, phase: &'static str) {
        self.0.on_listen(round, node, channel, phase);
        self.1.on_listen(round, node, channel, phase);
    }
    fn on_solved(&mut self, round: u64, solver: NodeId) {
        self.0.on_solved(round, solver);
        self.1.on_solved(round, solver);
    }
    fn on_round(&mut self, round: u64, phase: &'static str, outcomes: &[ChannelOutcome]) {
        self.0.on_round(round, phase, outcomes);
        self.1.on_round(round, phase, outcomes);
    }
    fn on_retired(&mut self, round: u64, node: NodeId, state: SlotState) {
        self.0.on_retired(round, node, state);
        self.1.on_retired(round, node, state);
    }
    fn on_finished(&mut self, rounds_executed: u64) {
        self.0.on_finished(rounds_executed);
        self.1.on_finished(rounds_executed);
    }
    fn wants_outcomes(&self) -> bool {
        self.0.wants_outcomes() || self.1.wants_outcomes()
    }
    fn wants_node_phases(&self) -> bool {
        self.0.wants_node_phases() || self.1.wants_node_phases()
    }
}

/// [`Trace`] records one [`RoundTrace`] per round, channel outcomes
/// included.
impl EventSink for Trace {
    fn on_round(&mut self, round: u64, phase: &'static str, outcomes: &[ChannelOutcome]) {
        self.push(RoundTrace {
            round,
            outcomes: outcomes.to_vec(),
            phase,
        });
    }
    fn wants_outcomes(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::OutcomeKind;

    #[derive(Default)]
    struct Counter {
        tx: usize,
        rx: usize,
        rounds: usize,
        solved: Option<(u64, NodeId)>,
        finished: Option<u64>,
    }

    impl EventSink for Counter {
        fn on_transmission(&mut self, _r: u64, _n: NodeId, _c: ChannelId, _p: &'static str) {
            self.tx += 1;
        }
        fn on_listen(&mut self, _r: u64, _n: NodeId, _c: ChannelId, _p: &'static str) {
            self.rx += 1;
        }
        fn on_solved(&mut self, round: u64, solver: NodeId) {
            self.solved = Some((round, solver));
        }
        fn on_round(&mut self, _r: u64, _p: &'static str, _o: &[ChannelOutcome]) {
            self.rounds += 1;
        }
        fn on_finished(&mut self, rounds: u64) {
            self.finished = Some(rounds);
        }
        fn wants_outcomes(&self) -> bool {
            false
        }
    }

    fn outcome(ch: u32, tx: usize) -> ChannelOutcome {
        ChannelOutcome {
            channel: ChannelId::new(ch),
            kind: OutcomeKind::from_transmitters(tx),
            transmitters: tx,
            listeners: 0,
        }
    }

    #[test]
    fn pair_sink_fans_out() {
        let mut pair = (Counter::default(), Counter::default());
        pair.on_transmission(0, NodeId(1), ChannelId::PRIMARY, "main");
        pair.on_listen(0, NodeId(2), ChannelId::PRIMARY, "main");
        pair.on_round(0, "main", &[]);
        pair.on_finished(1);
        assert_eq!((pair.0.tx, pair.1.tx), (1, 1));
        assert_eq!((pair.0.rx, pair.1.rx), (1, 1));
        assert_eq!((pair.0.rounds, pair.1.rounds), (1, 1));
        assert_eq!(pair.0.finished, Some(1));
    }

    #[test]
    fn wants_outcomes_combines() {
        assert!(!().wants_outcomes());
        assert!(!(Counter::default(), Counter::default()).wants_outcomes());
        assert!((Counter::default(), Trace::new()).wants_outcomes());
    }

    #[test]
    fn trace_as_sink_records_rounds() {
        let mut trace = Trace::new();
        trace.on_round(0, "main", &[outcome(1, 2)]);
        trace.on_round(1, "main", &[]);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.rounds()[0].outcomes[0].kind, OutcomeKind::Collision);
        assert!(trace.rounds()[1].outcomes.is_empty());
    }
}
