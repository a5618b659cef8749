//! The dense O(n) reference scheduler: the semantics oracle for the
//! active-set [`Engine`](crate::Engine).
//!
//! [`DenseEngine`] executes exactly the same round semantics as
//! [`Engine`](crate::Engine) — same wake rules, same retirement
//! transitions, same RNG derivation, same observation hooks — but with the
//! pre-refactor *data model*: every per-round step is a full scan over all
//! node slots, so per-round cost is O(n) in the number of slots ever
//! added, regardless of how many are live.
//!
//! It exists for equivalence pinning. The property suite
//! (`crates/mac-sim/tests/active_set_equivalence.rs`) runs random
//! workloads — staggered wake schedules × CD modes × fault layers —
//! through both engines and asserts bit-identical [`RunReport`]s and event
//! streams. Any divergence between the active-set scheduler's
//! agenda/live-set/retirement bookkeeping and the plain-scan semantics is
//! a test failure, which keeps the refactored hot loop honest.
//!
//! The implementation deliberately duplicates the round loop instead of
//! sharing it: a reference that reuses the optimised scheduler's code
//! would pin nothing. Keep the two loops in sync when the *semantics*
//! change; they are free to diverge in data-structure choices — that is
//! the point.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::action::Action;
use crate::channel::{ChannelId, ChannelOutcome, OutcomeKind};
use crate::config::{CdMode, SimConfig, StopWhen};
use crate::engine::{NodeId, RunReport, RunSummary, SlotState, StepStatus};
use crate::error::SimError;
use crate::feedback::{ChannelState, FeedbackModel};
use crate::metrics::Metrics;
use crate::protocol::{Protocol, RoundContext, Status};
use crate::rng::derive_node_seed;
use crate::sink::EventSink;

struct DenseSlot<P> {
    protocol: P,
    rng: SmallRng,
    start_round: u64,
    state: SlotState,
}

/// The O(n)-per-round reference engine. Same API shape and semantics as
/// [`Engine`](crate::Engine), dense-scan data model. See the module docs.
pub struct DenseEngine<P: Protocol, F: FeedbackModel = CdMode> {
    config: SimConfig,
    feedback: F,
    nodes: Vec<DenseSlot<P>>,
    metrics: Metrics,
    solved_round: Option<u64>,
    solver: Option<NodeId>,
    deliveries: u64,
    round: u64,
    finished: bool,
    /// The latched error of a round that failed part-way.
    failed: Option<SimError>,
    latest_wake: u64,
    crash_buf: Vec<NodeId>,
    actions: Vec<(usize, Action<P::Msg>)>,
    tx_count: Vec<u32>,
    rx_count: Vec<u32>,
    lone_act: Vec<usize>,
    dirty: Vec<usize>,
    outcomes: Vec<ChannelOutcome>,
}

impl<P: Protocol> DenseEngine<P> {
    /// Creates a dense reference engine using the configuration's
    /// [`CdMode`] as the feedback model.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        let cd_mode = config.cd_mode;
        DenseEngine::with_feedback(config, cd_mode)
    }
}

impl<P: Protocol, F: FeedbackModel> DenseEngine<P, F> {
    /// Creates a dense reference engine with a custom [`FeedbackModel`].
    #[must_use]
    pub fn with_feedback(config: SimConfig, mut feedback: F) -> Self {
        feedback.bind(&config);
        let c = config.channels as usize;
        DenseEngine {
            config,
            feedback,
            nodes: Vec::new(),
            metrics: Metrics::new(0),
            solved_round: None,
            solver: None,
            deliveries: 0,
            round: 0,
            finished: false,
            failed: None,
            latest_wake: 0,
            crash_buf: Vec::new(),
            actions: Vec::new(),
            tx_count: vec![0; c],
            rx_count: vec![0; c],
            lone_act: vec![usize::MAX; c],
            dirty: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Adds a node that wakes in round 0. Returns its id.
    pub fn add_node(&mut self, protocol: P) -> NodeId {
        self.add_node_at(protocol, 0)
    }

    /// Adds a node that wakes in round `start_round`. Returns its id. Like
    /// the active-set engine, a latched stop condition is re-armed so
    /// mid-run arrival injection can continue stepping.
    pub fn add_node_at(&mut self, protocol: P, start_round: u64) -> NodeId {
        self.finished = false;
        let id = NodeId(self.nodes.len());
        let seed = derive_node_seed(self.config.master_seed, id.0 as u64);
        self.nodes.push(DenseSlot {
            protocol,
            rng: SmallRng::seed_from_u64(seed),
            start_round,
            state: SlotState::Pending,
        });
        self.latest_wake = self.latest_wake.max(start_round);
        self.metrics.transmissions_per_node.push(0);
        id
    }

    /// Number of nodes added.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no nodes were added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node's protocol.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.0].protocol
    }

    /// The scheduler state of a node's slot.
    #[must_use]
    pub fn slot_state(&self, id: NodeId) -> SlotState {
        self.nodes[id.0].state
    }

    /// Number of [`SlotState::Live`] slots — full scan, this is the
    /// reference engine.
    #[must_use]
    pub fn live_len(&self) -> usize {
        self.nodes
            .iter()
            .filter(|slot| slot.state == SlotState::Live)
            .count()
    }

    /// Number of [`SlotState::Pending`] slots — full scan.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.nodes
            .iter()
            .filter(|slot| slot.state == SlotState::Pending)
            .count()
    }

    /// Packets delivered under [`SimConfig::continuous_delivery`]; 0 in
    /// one-shot mode. Mirrors [`Engine::deliveries`](crate::Engine::deliveries).
    #[must_use]
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// The next round to be executed. Mirrors
    /// [`Engine::current_round`](crate::Engine::current_round).
    #[must_use]
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Runs rounds until the configured stop condition is met.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run`](crate::Engine::run).
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        self.run_observed(&mut ())
    }

    /// Like [`DenseEngine::run`], returning only the cheap [`RunSummary`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run`](crate::Engine::run).
    pub fn run_summary(&mut self) -> Result<RunSummary, SimError> {
        self.run_to_finish(&mut ())?;
        Ok(RunSummary {
            solved_round: self.solved_round,
            solver: self.solver,
            rounds_executed: self.round,
        })
    }

    /// Like [`DenseEngine::run`], streaming events into `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run`](crate::Engine::run).
    pub fn run_observed<S: EventSink>(&mut self, sink: &mut S) -> Result<RunReport, SimError> {
        self.run_to_finish(sink)?;
        Ok(self.report())
    }

    fn run_to_finish<S: EventSink>(&mut self, sink: &mut S) -> Result<(), SimError> {
        while !self.finished {
            if self.round >= self.config.max_rounds {
                return Err(SimError::Timeout {
                    max_rounds: self.config.max_rounds,
                });
            }
            self.step_observed(sink)?;
        }
        Ok(())
    }

    /// Executes exactly one round with a full O(n) slot scan per step.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::step`](crate::Engine::step).
    pub fn step_observed<S: EventSink>(&mut self, sink: &mut S) -> Result<StepStatus, SimError> {
        // The built-in metrics ride along as one more sink, as in the
        // active-set engine.
        if !self.config.record_metrics {
            return self.step_round(sink);
        }
        let mut metrics = std::mem::take(&mut self.metrics);
        let stepped = self.step_round(&mut (&mut metrics, &mut *sink));
        self.metrics = metrics;
        stepped
    }

    #[allow(clippy::too_many_lines)]
    fn step_round<S: EventSink>(&mut self, sink: &mut S) -> Result<StepStatus, SimError> {
        if self.nodes.is_empty() {
            return Err(SimError::NoNodes);
        }
        if let Some(failed) = &self.failed {
            return Err(failed.clone());
        }
        if self.finished {
            return Ok(StepStatus::Finished);
        }
        if let Some(budget) = self.config.round_budget {
            if self.round >= budget {
                return Err(SimError::BudgetExhausted {
                    budget,
                    solved: self.solved_round.is_some(),
                });
            }
        }
        let round = self.round;
        self.feedback.begin_round(round);

        // Fault-layer retirements, before wake-ups (same order as the
        // active-set engine).
        let mut crash_buf = std::mem::take(&mut self.crash_buf);
        self.feedback.drain_crashed(&mut crash_buf);
        for id in crash_buf.drain(..) {
            if let Some(slot) = self.nodes.get_mut(id.0) {
                if !slot.state.is_retired() {
                    slot.state = SlotState::Crashed;
                }
            }
        }
        self.crash_buf = crash_buf;

        // Wake-ups: full scan for slots scheduled to wake now.
        for slot in &mut self.nodes {
            if slot.state == SlotState::Pending && slot.start_round == round {
                slot.state = SlotState::Live;
                let ctx = RoundContext {
                    round,
                    local_round: 0,
                    channels: self.config.channels,
                };
                slot.protocol.on_wake(&ctx, &mut slot.rng);
                if slot.protocol.status().is_terminated() {
                    slot.state = SlotState::Terminated;
                }
            }
        }

        // Phase representative: first live slot in NodeId order.
        let phase = self
            .nodes
            .iter()
            .find(|slot| slot.state == SlotState::Live)
            .map_or("idle", |slot| slot.protocol.phase());
        let node_phases = sink.wants_node_phases();

        // Collect actions: full scan, skipping non-live slots.
        self.actions.clear();
        for (idx, slot) in self.nodes.iter_mut().enumerate() {
            if slot.state != SlotState::Live {
                continue;
            }
            let ctx = RoundContext {
                round,
                local_round: round - slot.start_round,
                channels: self.config.channels,
            };
            let action = slot.protocol.act(&ctx, &mut slot.rng);
            if let Some(channel) = action.channel() {
                if channel.get() > self.config.channels {
                    let failed = SimError::ChannelOutOfRange {
                        node: NodeId(idx),
                        round,
                        channel,
                        channels: self.config.channels,
                    };
                    self.failed = Some(failed.clone());
                    return Err(failed);
                }
            }
            let action = self.feedback.filter_action(NodeId(idx), action);
            self.actions.push((idx, action));
        }

        // Channel resolution — identical to the active-set engine.
        for &d in &self.dirty {
            self.tx_count[d] = 0;
            self.rx_count[d] = 0;
            self.lone_act[d] = usize::MAX;
        }
        self.dirty.clear();
        for (ai, (idx, action)) in self.actions.iter().enumerate() {
            match action {
                Action::Transmit { channel, .. } => {
                    let ci = channel.index();
                    if self.tx_count[ci] == 0 && self.rx_count[ci] == 0 {
                        self.dirty.push(ci);
                    }
                    self.tx_count[ci] += 1;
                    self.lone_act[ci] = if self.tx_count[ci] == 1 {
                        ai
                    } else {
                        usize::MAX
                    };
                    let label = if node_phases {
                        self.nodes[*idx].protocol.phase()
                    } else {
                        phase
                    };
                    sink.on_transmission(round, NodeId(*idx), *channel, label);
                }
                Action::Listen { channel } => {
                    let ci = channel.index();
                    if self.tx_count[ci] == 0 && self.rx_count[ci] == 0 {
                        self.dirty.push(ci);
                    }
                    self.rx_count[ci] += 1;
                    let label = if node_phases {
                        self.nodes[*idx].protocol.phase()
                    } else {
                        phase
                    };
                    sink.on_listen(round, NodeId(*idx), *channel, label);
                }
                Action::Sleep => {}
            }
        }

        // Solve detection; with `continuous_delivery`, every allowed lone
        // primary transmission is a delivery (same rule as the active-set
        // engine).
        let primary = ChannelId::PRIMARY.index();
        let mut delivered: Option<usize> = None;
        if self.tx_count[primary] == 1
            && (self.solved_round.is_none() || self.config.continuous_delivery)
        {
            let solver_idx = self.actions[self.lone_act[primary]].0;
            let solver = NodeId(solver_idx);
            if self.feedback.allows_solve(solver) {
                if self.solved_round.is_none() {
                    self.solved_round = Some(round);
                    self.solver = Some(solver);
                }
                if self.config.continuous_delivery {
                    self.deliveries += 1;
                    delivered = Some(solver_idx);
                }
                sink.on_solved(round, solver);
            }
        }

        // Round close-out through the observation layer.
        self.outcomes.clear();
        if sink.wants_outcomes() {
            self.dirty.sort_unstable();
            for &ci in &self.dirty {
                self.outcomes.push(ChannelOutcome {
                    channel: ChannelId::new(ci as u32 + 1),
                    kind: OutcomeKind::from_transmitters(self.tx_count[ci] as usize),
                    transmitters: self.tx_count[ci] as usize,
                    listeners: self.rx_count[ci] as usize,
                });
            }
        }
        sink.on_round(round, phase, &self.outcomes);

        // Deliver feedback.
        let actions = std::mem::take(&mut self.actions);
        {
            let state = ChannelState {
                tx_count: &self.tx_count,
                rx_count: &self.rx_count,
                actions: &actions,
                lone_act: &self.lone_act,
            };
            for (idx, action) in &actions {
                let feedback = self.feedback.deliver(action, &state);
                let slot = &mut self.nodes[*idx];
                let ctx = RoundContext {
                    round,
                    local_round: round - slot.start_round,
                    channels: self.config.channels,
                };
                slot.protocol.observe(&ctx, feedback, &mut slot.rng);
            }
        }
        self.actions = actions;

        // A delivered packet's sender retires regardless of what its
        // protocol observed (mirrors the active-set engine's forced
        // retirement).
        if let Some(idx) = delivered {
            let slot = &mut self.nodes[idx];
            if slot.state == SlotState::Live {
                slot.state = SlotState::Terminated;
            }
        }

        // Park terminated slots: full scan.
        for slot in &mut self.nodes {
            if slot.state == SlotState::Live && slot.protocol.status().is_terminated() {
                slot.state = SlotState::Terminated;
            }
        }

        self.round += 1;

        // Stop conditions: full scan over slot states.
        let all_terminated = self.round > self.latest_wake
            && self
                .nodes
                .iter()
                .all(|slot| slot.state == SlotState::Terminated);
        let finished = match self.config.stop_when {
            StopWhen::Solved => self.solved_round.is_some() || all_terminated,
            StopWhen::AllTerminated => all_terminated,
        };
        self.finished = finished;
        if finished {
            sink.on_finished(self.round);
        }
        Ok(if finished {
            StepStatus::Finished
        } else {
            StepStatus::Running
        })
    }

    /// A snapshot report of the run so far, field-compatible with
    /// [`Engine::report`](crate::Engine::report).
    #[must_use]
    pub fn report(&self) -> RunReport {
        let leaders = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.protocol.status() == Status::Leader)
            .map(|(idx, _)| NodeId(idx))
            .collect();
        let active_remaining = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, slot)| {
                matches!(slot.state, SlotState::Live | SlotState::Crashed)
                    && slot.protocol.status() == Status::Active
            })
            .map(|(idx, _)| NodeId(idx))
            .collect();
        RunReport {
            solved_round: self.solved_round,
            solver: self.solver,
            rounds_executed: self.round,
            leaders,
            active_remaining,
            metrics: self.metrics.clone(),
        }
    }
}
