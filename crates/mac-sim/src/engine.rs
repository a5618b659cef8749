//! The round engine: the per-round hot loop of the simulator.
//!
//! [`Engine`] runs a population of [`Protocol`] state machines over shared
//! channels, one synchronous round at a time, on preallocated scratch — the
//! steady-state loop performs no heap allocation and clones a transmitted
//! message only when a participant actually receives it.
//!
//! The engine is the bottom of a three-layer architecture:
//!
//! * **engine** (this module) — wakes nodes, collects actions, resolves
//!   channels, detects the solve, advances the round;
//! * **feedback** ([`crate::feedback`]) — a pluggable [`FeedbackModel`]
//!   decides what each node hears; the paper's collision-detection modes
//!   ([`CdMode`]) are the default model;
//! * **observation** ([`crate::sink`]) — [`EventSink`] observers
//!   ([`crate::Trace`], or anything user-supplied via
//!   [`Engine::run_observed`]) record what happened; the engine counts
//!   its own [`Metrics`] from each finished round.
//!
//! # Active-set scheduling
//!
//! The paper's regime is a huge namespace `n` of *possible* nodes of which
//! only a small unknown subset `A` is ever active. The engine therefore
//! never iterates "all nodes" per round: each node slot carries a
//! [`SlotState`] and the round loop touches only the **live set** — a
//! NodeId-ordered vector of the currently schedulable node indices — fed
//! by a *wake agenda* (one flat queue of `(wake round, first slot, count)`
//! runs in round-then-NodeId order, drained a whole run at a time from
//! the front as the clock passes them) and drained by *retirement*
//! (terminated or crashed slots are compacted out at the end of the
//! round). Per-round cost is `O(|live| + dirty channels)` regardless of
//! how many slots were ever added, and a round in which no slot is live
//! after the wake-ups (an *idle round*) skips the act, resolve and
//! deliver passes altogether (the traffic driver runs a gap of them in
//! one call, an *idle span*); see `docs/MODEL.md` for the complexity
//! table and [`crate::dense`] for the O(n) reference scheduler the
//! equivalence suite pins this against.
//!
//! **Ordering contract.** The live set is kept sorted by [`NodeId`] at all
//! times, so acting, delivery, and event-sink order are exactly the
//! insertion order of the dense scan they replaced — this is load-bearing
//! for bit-determinism, because seeded fault layers
//! ([`crate::fault::NoisyCd`]) consume their RNG stream in delivery
//! order. Reports ([`RunReport::leaders`], [`RunReport::active_remaining`])
//! are produced by a NodeId-ordered slot scan, independent of live-set
//! internals.

use std::collections::VecDeque;
use std::fmt;
use std::iter;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::action::Action;
use crate::channel::{ChannelId, ChannelOutcome, OutcomeKind};
use crate::config::{CdMode, SimConfig, StopWhen};
use crate::error::SimError;
use crate::feedback::{ChannelState, FeedbackModel};
use crate::metrics::Metrics;
use crate::protocol::{Protocol, RoundContext, Status};
use crate::rng::derive_node_seed;
use crate::sink::EventSink;

/// Index of a node within an [`Engine`], assigned in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Scheduler lifecycle of one node slot.
///
/// The state machine replaces the old `woken` boolean (plus the implicit
/// "status says terminated" and "fault layer says crashed" side channels)
/// with one explicit enum, so illegal combinations — a crashed node that
/// still transmits, a terminated node that re-enters the round loop — are
/// unrepresentable. All transitions go through the engine's single
/// retirement/wake path:
///
/// ```text
/// Pending ──wake agenda──▶ Live ──status terminated──▶ Terminated
///    │                      │
///    └──────fault layer─────┴──────────────────────▶ Crashed
/// ```
///
/// `Terminated` and `Crashed` are absorbing: retired slots keep their
/// final protocol state readable via [`Engine::node`] but are never
/// scheduled again (which is also the documented [`Protocol::status`]
/// contract — termination is permanent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotState {
    /// Scheduled on the wake agenda; `on_wake` has not run yet.
    Pending,
    /// In the live set: acts, is delivered feedback, and observes.
    Live,
    /// Retired by its own protocol reporting a terminated
    /// [`Status`](crate::Status).
    Terminated,
    /// Retired by a fault layer ([`crate::fault::CrashStop`]); the
    /// protocol was never informed and its status stays whatever it was.
    Crashed,
}

impl SlotState {
    /// Whether the slot is retired (terminated or crashed) — i.e. it will
    /// never be scheduled again.
    #[must_use]
    pub fn is_retired(self) -> bool {
        matches!(self, SlotState::Terminated | SlotState::Crashed)
    }
}

impl fmt::Display for SlotState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SlotState::Pending => "pending",
            SlotState::Live => "live",
            SlotState::Terminated => "terminated",
            SlotState::Crashed => "crashed",
        })
    }
}

struct NodeSlot<P> {
    protocol: P,
    rng: SmallRng,
    start_round: u64,
    state: SlotState,
}

/// The cheap result of a run: solve data only, no metrics clone.
///
/// Returned by [`Engine::run_summary`]; callers that need transmission
/// counts or leaders use [`Engine::run`] and get a full
/// [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// The first round (0-based) in which exactly one node transmitted on
    /// the primary channel — or `None` if the run ended without solving.
    pub solved_round: Option<u64>,
    /// The node that made that lone primary-channel transmission.
    pub solver: Option<NodeId>,
    /// Total rounds executed before stopping.
    pub rounds_executed: u64,
}

impl RunSummary {
    /// Rounds needed to solve the problem: `solved_round + 1` (round numbers
    /// are 0-based but "solved in r rounds" counts rounds). `None` if the
    /// run never solved the problem.
    #[must_use]
    pub fn rounds_to_solve(&self) -> Option<u64> {
        self.solved_round.map(|r| r + 1)
    }

    /// Returns `true` if the run solved contention resolution.
    #[must_use]
    pub fn is_solved(&self) -> bool {
        self.solved_round.is_some()
    }
}

/// The result of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The first round (0-based) in which exactly one node transmitted on
    /// the primary channel, i.e. the round the problem was solved — or
    /// `None` if the run ended without solving it.
    pub solved_round: Option<u64>,
    /// The node that made that lone primary-channel transmission.
    pub solver: Option<NodeId>,
    /// Total rounds executed before stopping.
    pub rounds_executed: u64,
    /// Nodes whose final status is [`Status::Leader`].
    pub leaders: Vec<NodeId>,
    /// Nodes still [`Status::Active`] when the run stopped.
    pub active_remaining: Vec<NodeId>,
    /// Transmission and listen counts (zeroed when
    /// [`SimConfig::record_metrics`] is off).
    pub metrics: Metrics,
}

impl RunReport {
    /// Rounds needed to solve the problem: `solved_round + 1` (round numbers
    /// are 0-based but "solved in r rounds" counts rounds). `None` if the
    /// run never solved the problem.
    #[must_use]
    pub fn rounds_to_solve(&self) -> Option<u64> {
        self.solved_round.map(|r| r + 1)
    }

    /// Returns `true` if the run solved contention resolution.
    #[must_use]
    pub fn is_solved(&self) -> bool {
        self.solved_round.is_some()
    }

    /// This report's solve data as a [`RunSummary`].
    #[must_use]
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            solved_round: self.solved_round,
            solver: self.solver,
            rounds_executed: self.rounds_executed,
        }
    }
}

/// Result of one [`Engine::step`]: is the run's stop condition met?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The stop condition is not yet met; more rounds may follow.
    Running,
    /// The stop condition is met; further `step` calls are no-ops.
    Finished,
}

/// Mutable per-run bookkeeping, kept inside the engine so execution can
/// proceed one round at a time ([`Engine::step`]) with full state
/// inspection between rounds.
struct RunState {
    metrics: Metrics,
    solved_round: Option<u64>,
    solver: Option<NodeId>,
    /// Packets delivered under [`SimConfig::continuous_delivery`]; stays 0
    /// in one-shot mode.
    deliveries: u64,
    round: u64,
    finished: bool,
    /// The error of a round that failed part-way, returned again by every
    /// later step so that the round is never run twice.
    failed: Option<SimError>,
}

/// Runs a population of [`Protocol`] state machines over shared channels.
///
/// Execution can be driven three ways:
///
/// * [`Engine::run`] — loop to the configured stop condition (the common
///   case); [`Engine::run_summary`] is the same loop returning only the
///   cheap [`RunSummary`];
/// * [`Engine::run_observed`] — like `run`, streaming events into a
///   caller-supplied [`EventSink`];
/// * [`Engine::step`] / [`Engine::step_observed`] — advance exactly one
///   round, inspect node state via [`Engine::node`] / [`Engine::report`],
///   repeat. Used by invariant audits that need to see protocols mid-flight.
///
/// The second type parameter is the [`FeedbackModel`]; [`Engine::new`]
/// installs the [`CdMode`] from the configuration, and
/// [`Engine::with_feedback`] accepts any custom model.
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct Engine<P: Protocol, F: FeedbackModel = CdMode> {
    config: SimConfig,
    feedback: F,
    nodes: Vec<NodeSlot<P>>,
    run: RunState,
    /// Highest `start_round` over all nodes, maintained on insertion.
    latest_wake: u64,
    /// Slots still [`SlotState::Pending`], including never-wakeable ones
    /// (a slot added with a `start_round` already in the past never fires).
    unwoken: usize,
    /// The wake agenda: runs of consecutive slots that wake in the same
    /// round, as `(wake round, first slot, count)` in ascending order,
    /// drained a whole run at a time from the front as the clock reaches
    /// them instead of an `O(n)` scan. An in-order add extends the tail
    /// run or appends a new one in O(1), reusing the ring buffer's
    /// capacity, so a one-shot build is one run and a traffic stream's
    /// arrivals never allocate.
    agenda: VecDeque<(u64, usize, usize)>,
    /// Set when an `add_node_at` lands below the agenda's tail; the next
    /// drain sorts the agenda once instead of every insertion shifting
    /// entries.
    agenda_unsorted: bool,
    /// The live set: indices of [`SlotState::Live`] slots, always sorted
    /// in NodeId order (see the module docs' ordering contract). The
    /// per-round loops iterate this instead of `nodes`.
    live: Vec<usize>,
    /// Slots in [`SlotState::Crashed`]; blocks the all-terminated stop
    /// condition exactly like the still-`Active` status of a crashed node
    /// used to.
    crashed_count: usize,
    /// Whether any live slot retired this round (live set needs compaction).
    retired_this_round: bool,
    /// Reusable buffer for [`FeedbackModel::drain_crashed`].
    crash_buf: Vec<NodeId>,
    /// The retirements of the current round's opening (crash-stop victims,
    /// nodes terminating on wake), held back until the round can no longer
    /// fail.
    opening: Vec<(NodeId, SlotState)>,
    actions: Vec<(usize, Action<P::Msg>)>,
    // Reusable per-channel scratch, indexed by `ChannelId::index()`.
    tx_count: Vec<u32>,
    rx_count: Vec<u32>,
    /// Index into `actions` of the lone transmitter per channel
    /// (`usize::MAX` when the channel has zero or multiple transmitters).
    lone_act: Vec<usize>,
    dirty: Vec<usize>,
    /// Reusable buffer for per-round channel outcomes.
    outcomes: Vec<ChannelOutcome>,
}

impl<P: Protocol> Engine<P> {
    /// Creates an engine for the given configuration with no nodes yet,
    /// using the configuration's [`CdMode`] as the feedback model.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        let cd_mode = config.cd_mode;
        Engine::with_feedback(config, cd_mode)
    }
}

impl<P: Protocol, F: FeedbackModel> Engine<P, F> {
    /// Creates an engine with a custom [`FeedbackModel`] (an adversarial or
    /// noisy radio layer; see [`crate::fault`]).
    ///
    /// The model replaces the configuration's `cd_mode` entirely — it alone
    /// decides what nodes hear. The model is bound to the configuration
    /// here ([`FeedbackModel::bind`]), which is where seeded fault models
    /// ([`crate::fault`]) derive their RNG streams from the master seed.
    #[must_use]
    pub fn with_feedback(config: SimConfig, mut feedback: F) -> Self {
        feedback.bind(&config);
        let c = config.channels as usize;
        Engine {
            config,
            feedback,
            nodes: Vec::new(),
            run: RunState {
                metrics: Metrics::default(),
                solved_round: None,
                solver: None,
                deliveries: 0,
                round: 0,
                finished: false,
                failed: None,
            },
            latest_wake: 0,
            unwoken: 0,
            agenda: VecDeque::new(),
            agenda_unsorted: false,
            live: Vec::new(),
            crashed_count: 0,
            retired_this_round: false,
            crash_buf: Vec::new(),
            opening: Vec::new(),
            actions: Vec::new(),
            tx_count: vec![0; c],
            rx_count: vec![0; c],
            lone_act: vec![usize::MAX; c],
            dirty: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Adds every protocol of `nodes` as a node that wakes in round 0, in
    /// iteration order, and returns the engine: the one-shot trial's
    /// population in one expression, after [`Engine::new`] or
    /// [`Engine::with_feedback`].
    ///
    /// NodeIds, per-node seeds and wake rounds are exactly those of an
    /// [`Engine::add_node`] loop over the same protocols; every per-slot
    /// buffer is sized once from the iterator's `size_hint` first. See the
    /// [crate-level documentation](crate) for an example.
    #[must_use]
    pub fn populated(mut self, nodes: impl IntoIterator<Item = P>) -> Self {
        let nodes = nodes.into_iter();
        self.reserve_nodes(nodes.size_hint().0);
        for protocol in nodes {
            self.add_node(protocol);
        }
        self
    }

    /// The configuration this engine runs with.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The feedback model, e.g. for post-run adversary inspection.
    #[must_use]
    pub fn feedback(&self) -> &F {
        &self.feedback
    }

    /// Adds a node that wakes in round 0. Returns its id.
    pub fn add_node(&mut self, protocol: P) -> NodeId {
        self.add_node_at(protocol, 0)
    }

    /// Adds a node that wakes in round `start_round`. Returns its id.
    ///
    /// Staggered wake-ups model the harder non-simultaneous variant of the
    /// problem discussed in §3 of the paper. May also be called *mid-run*
    /// (between [`Engine::step`] calls) to inject arrivals incrementally —
    /// the [`crate::traffic`] layer does exactly that: the new slot joins
    /// the wake agenda in O(1) without touching the live set (an add below
    /// the agenda's tail instead costs one sort at the next drain), and a
    /// latched stop condition is re-armed, since a population with a
    /// pending slot is no longer all-terminated. A slot whose
    /// `start_round` has already passed stays [`SlotState::Pending`] and
    /// never wakes.
    #[inline]
    pub fn add_node_at(&mut self, protocol: P, start_round: u64) -> NodeId {
        self.run.finished = false;
        let id = NodeId(self.nodes.len());
        let master_seed = self.config.master_seed;
        // The slot is built in place, in `nodes`' spare capacity: with
        // `push`, release codegen assembled the slot (136 bytes for
        // `FullAlgorithm`) on the stack and copied it with a libc `memcpy`
        // call, whose wide loads stalled on the narrower stores that had
        // just built it. This gains only with `SmallRng`'s word-wise seed;
        // with a byte-wise seed it was slower than `push`.
        self.nodes.extend(iter::once_with(move || NodeSlot {
            protocol,
            rng: SmallRng::seed_from_u64(derive_node_seed(master_seed, id.0 as u64)),
            start_round,
            state: SlotState::Pending,
        }));
        self.latest_wake = self.latest_wake.max(start_round);
        self.unwoken += 1;
        // NodeIds only grow, so an add keeps the agenda sorted exactly
        // when its round is not below the tail's. An add at the tail's
        // round extends the tail run when it is the run's next slot (it
        // always is, unless a sort moved another run to the tail), so a
        // run holds consecutive NodeIds and same-round runs are disjoint
        // slot ranges: sorting runs wakes slots in the same order as
        // sorting single entries would.
        match self.agenda.back_mut() {
            Some((at, first, count)) if *at == start_round && *first + *count == id.0 => {
                *count += 1;
            }
            tail => {
                if tail.is_some_and(|&mut (at, _, _)| at > start_round) {
                    self.agenda_unsorted = true;
                }
                self.agenda.push_back((start_round, id.0, 1));
            }
        }
        self.run.metrics.transmissions_per_node.push(0);
        id
    }

    /// Reserves room for `additional` more slots in every per-slot buffer
    /// (`nodes` and the per-node metrics), so a caller that knows its
    /// population size builds it without regrowing them.
    pub(crate) fn reserve_nodes(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.run.metrics.transmissions_per_node.reserve(additional);
    }

    /// The scheduler state of a node's slot — e.g. for debugging a run
    /// mid-flight between [`Engine::step`] calls, or for fault post-mortems
    /// (a [`SlotState::Crashed`] node's protocol was never told it died).
    #[must_use]
    pub fn slot_state(&self, id: NodeId) -> SlotState {
        self.nodes[id.0].state
    }

    /// Number of currently live (schedulable) nodes. Per-round work is
    /// proportional to this, not to [`Engine::len`].
    #[must_use]
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Number of [`SlotState::Pending`] slots: added but not yet woken.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.unwoken
    }

    /// Packets delivered so far under [`SimConfig::continuous_delivery`]
    /// (one per lone primary-channel transmission the feedback model let
    /// through). Always 0 in one-shot mode.
    #[must_use]
    pub fn deliveries(&self) -> u64 {
        self.run.deliveries
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

    /// Immutable access to a node's protocol, e.g. for post-run assertions.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.0].protocol
    }

    /// Iterates over all node protocols in id order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter().map(|slot| &slot.protocol)
    }

    /// The single retirement transition: every path that removes a node
    /// from scheduling — the park path (protocol terminated), the delivery
    /// path and the fault path (crash-stop) — funnels through here, so the
    /// `SlotState` machine and the scheduler counters can never disagree.
    /// (The park path runs inside the feedback-delivery pass, which holds a
    /// borrow of the engine, so it spells out the `Live` arm in place.)
    ///
    /// Retiring an already-retired slot is a no-op (fault layers may
    /// announce the same victim more than once); out-of-range ids from a
    /// misconfigured fault schedule are ignored. Returns whether a slot
    /// actually transitioned, so callers holding the event sink can
    /// report exactly one retirement per node.
    fn retire(&mut self, idx: usize, to: SlotState) -> bool {
        debug_assert!(to.is_retired());
        let Some(slot) = self.nodes.get_mut(idx) else {
            return false;
        };
        match slot.state {
            SlotState::Pending => {
                // Died before it ever woke: drop it from the wake path.
                // Its slot stays inside its agenda run and is skipped
                // (cheaply) when the drain reaches it.
                slot.state = to;
                self.unwoken -= 1;
                if to == SlotState::Crashed {
                    self.crashed_count += 1;
                }
                true
            }
            SlotState::Live => {
                slot.state = to;
                self.retired_this_round = true;
                if to == SlotState::Crashed {
                    self.crashed_count += 1;
                }
                true
            }
            SlotState::Terminated | SlotState::Crashed => false,
        }
    }

    /// Compacts retired slots out of the live set, preserving NodeId
    /// order (`retain` is stable). Called at most once per round, only
    /// when [`Engine::retire`] actually retired a live slot.
    fn compact_live(&mut self) {
        let nodes = &self.nodes;
        self.live.retain(|&idx| nodes[idx].state == SlotState::Live);
        self.retired_this_round = false;
    }

    /// Runs rounds until the configured stop condition is met.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoNodes`] if no node was added;
    /// * [`SimError::ChannelOutOfRange`] if a protocol picks an invalid
    ///   channel;
    /// * [`SimError::Timeout`] if `max_rounds` elapse without meeting the
    ///   stop condition.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        self.run_observed(&mut ())
    }

    /// Like [`Engine::run`], but returns only the cheap [`RunSummary`] —
    /// no [`Metrics`] clone.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run`].
    pub fn run_summary(&mut self) -> Result<RunSummary, SimError> {
        self.run_to_finish(&mut ())?;
        Ok(self.summary())
    }

    /// Like [`Engine::run`], but streams events into `sink` as the run
    /// executes. Attach a [`crate::Trace`] here to record every round's
    /// channel outcomes.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run`].
    pub fn run_observed<S: EventSink>(&mut self, sink: &mut S) -> Result<RunReport, SimError> {
        self.run_to_finish(sink)?;
        Ok(self.report())
    }

    fn run_to_finish<S: EventSink>(&mut self, sink: &mut S) -> Result<(), SimError> {
        while !self.run.finished {
            if self.run.round >= self.config.max_rounds {
                return Err(SimError::Timeout {
                    max_rounds: self.config.max_rounds,
                });
            }
            self.step_observed(sink)?;
        }
        Ok(())
    }

    /// Executes exactly one round (waking, acting, channel resolution,
    /// feedback, stop-condition check). Returns whether the stop condition
    /// has been met; once it has, further calls change nothing and keep
    /// returning [`StepStatus::Finished`].
    ///
    /// `step` ignores `max_rounds` — the cap belongs to [`Engine::run`]'s
    /// loop; a manual driver decides its own limits.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoNodes`] if no node was added;
    /// * [`SimError::ChannelOutOfRange`] if a protocol picks an invalid
    ///   channel. A failed round is not observed: neither a sink nor the
    ///   built-in [`Metrics`] sees anything of it, and the clock does not
    ///   advance. The error latches: every later call returns it again and
    ///   runs nothing.
    pub fn step(&mut self) -> Result<StepStatus, SimError> {
        self.step_observed(&mut ())
    }

    /// Steps from a round with nothing live up to round `until`: runs the
    /// consecutive idle rounds in one loop, each exactly as
    /// [`Engine::step_observed`] would, then steps the round that ends
    /// the span in full if it comes before `until`.
    ///
    /// A round is idle when no slot is live and no agenda run is due in
    /// it. The loop stops before round `until`, before the round in which
    /// a slot wakes, after a round that changed the pending count (a
    /// pending slot crashed) and once the stop condition latches; only a
    /// span that stopped at a wake-up goes on to step that round. Called
    /// with a live slot, it steps one round. An idle round has no
    /// transmission or listen for the built-in [`Metrics`] to count.
    ///
    /// # Errors
    ///
    /// Those of [`Engine::step`]; [`SimError::BudgetExhausted`] when the
    /// round budget trips inside the span, after the rounds before it.
    pub(crate) fn step_idle<S: EventSink>(
        &mut self,
        until: u64,
        sink: &mut S,
    ) -> Result<StepStatus, SimError> {
        if !self.run.finished && !self.nodes.is_empty() && self.live.is_empty() {
            // Nothing is added during the span, so it ends before the
            // agenda's front run (a stale one included) wakes.
            let end = until.min(self.next_wake().unwrap_or(u64::MAX));
            let pending = self.unwoken;
            while self.run.round < end {
                let round = self.open_round()?;
                let status = self.close_idle_round(round, sink);
                if status == StepStatus::Finished || self.unwoken != pending {
                    return Ok(status);
                }
            }
        }
        if self.run.round < until {
            self.step_observed(sink)
        } else {
            Ok(StepStatus::Running)
        }
    }

    /// The round of the agenda's front run, if a slot is still pending;
    /// sorts the agenda first if an add left it unsorted.
    fn next_wake(&mut self) -> Option<u64> {
        if self.unwoken == 0 {
            return None;
        }
        if self.agenda_unsorted {
            // Runs are disjoint slot ranges, so unstable is exact.
            self.agenda.make_contiguous().sort_unstable();
            self.agenda_unsorted = false;
        }
        self.agenda.front().map(|&(at, _, _)| at)
    }

    /// Opens the current round, busy or idle: the round-budget watchdog,
    /// the fault layer's `begin_round`, and its crash-stop retirements.
    /// Returns the round number.
    #[inline]
    fn open_round(&mut self) -> Result<u64, SimError> {
        // The round-budget watchdog: enforced here (not only in `run`'s
        // loop) so fault-injected runs driven manually via `step` also
        // terminate with a structured error instead of spinning.
        if let Some(budget) = self.config.round_budget {
            if self.run.round >= budget {
                return Err(SimError::BudgetExhausted {
                    budget,
                    solved: self.run.solved_round.is_some(),
                });
            }
        }
        let round = self.run.round;
        self.feedback.begin_round(round);

        // Fault-layer retirements: crash-stop models report who died so the
        // engine can retire the slots through the same transition the park
        // path uses. Drained before wake-ups, so a node crashed at (or
        // before) its wake round never enters the live set, and a live
        // victim stops being scheduled from this round on — exactly when
        // its actions used to start being filtered to `Sleep`.
        self.feedback.drain_crashed(&mut self.crash_buf);
        if !self.crash_buf.is_empty() {
            self.retire_crashed();
        }
        Ok(round)
    }

    /// Retires the slots the fault layer reported crashed this round.
    #[cold]
    fn retire_crashed(&mut self) {
        let mut crash_buf = std::mem::take(&mut self.crash_buf);
        for id in crash_buf.drain(..) {
            if self.retire(id.0, SlotState::Crashed) {
                self.opening.push((id, SlotState::Crashed));
            }
        }
        self.crash_buf = crash_buf;
        if self.retired_this_round {
            self.compact_live();
        }
    }

    /// Ends a round in which nothing is live: there is nothing to act,
    /// resolve or deliver, so the round only reports itself. The channel
    /// scratch the last busy round dirtied stays dirty until the next busy
    /// round resets it, before its first use.
    #[inline]
    fn close_idle_round<S: EventSink>(&mut self, round: u64, sink: &mut S) -> StepStatus {
        self.report_opening(round, sink);
        sink.on_round(round, "idle", &[]);
        self.close_round(sink)
    }

    /// Reports the retirements of the round's opening, once the round can
    /// no longer fail.
    fn report_opening<S: EventSink>(&mut self, round: u64, sink: &mut S) {
        for (id, state) in self.opening.drain(..) {
            sink.on_retired(round, id, state);
        }
    }

    /// Like [`Engine::step`], but streams the round's events into `sink`.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::step`].
    pub fn step_observed<S: EventSink>(&mut self, sink: &mut S) -> Result<StepStatus, SimError> {
        if self.nodes.is_empty() {
            return Err(SimError::NoNodes);
        }
        if let Some(failed) = &self.run.failed {
            return Err(failed.clone());
        }
        if self.run.finished {
            return Ok(StepStatus::Finished);
        }
        let round = self.open_round()?;

        // Wake-ups scheduled for this round: whole runs popped off the
        // agenda's front, touching only the slots that actually wake now.
        // A run for a round already past (slots added with a stale start
        // round) is dropped unwoken, so it can never fire late.
        if self.next_wake().is_some_and(|at| at <= round) {
            let mut appended = 0usize;
            while let Some(&(at, first, count)) = self.agenda.front() {
                if at > round {
                    break;
                }
                self.agenda.pop_front();
                if at < round {
                    continue; // start round already past
                }
                self.live.reserve(count);
                for idx in first..first + count {
                    let slot = &mut self.nodes[idx];
                    if slot.state != SlotState::Pending {
                        continue; // crashed before it woke
                    }
                    slot.state = SlotState::Live;
                    self.unwoken -= 1;
                    let ctx = RoundContext {
                        round,
                        local_round: 0,
                        channels: self.config.channels,
                    };
                    slot.protocol.on_wake(&ctx, &mut slot.rng);
                    if slot.protocol.status().is_terminated() {
                        // Terminated inside on_wake: park without ever
                        // entering the live set.
                        slot.state = SlotState::Terminated;
                        self.opening.push((NodeId(idx), SlotState::Terminated));
                        continue;
                    }
                    self.live.push(idx);
                    appended += 1;
                }
            }
            // Restore the NodeId ordering contract. Each round's runs are
            // NodeId-sorted, so appending is already correct unless a
            // later wake round brings in smaller ids than the tail.
            if appended > 0 {
                let split = self.live.len() - appended;
                if split > 0 && self.live[split - 1] > self.live[split] {
                    self.live.sort_unstable();
                }
            }
        }

        if self.live.is_empty() {
            return Ok(self.close_idle_round(round, sink));
        }

        // Phase accounting: the paper's algorithms keep all active nodes
        // in lockstep, so the first live node (lowest NodeId, by the
        // ordering contract) is representative. Sinks that opt into
        // per-node labels (`wants_node_phases`) get each acting node's own
        // label instead — exact under staggered wake-ups, where the
        // representative label misattributes rounds.
        let phase = self.nodes[self.live[0]].protocol.phase();
        let node_phases = sink.wants_node_phases();

        // The first pass, act-and-resolve, over the live set only (every
        // live slot is schedulable by invariant, so no per-node status
        // filtering): act, range-check, let the fault layer filter, then
        // count the action on its channel. It reports nothing, so a round
        // that fails with `ChannelOutOfRange` reaches no observer. First
        // clear the channel scratch the previous round dirtied.
        for &d in &self.dirty {
            self.tx_count[d] = 0;
            self.rx_count[d] = 0;
            self.lone_act[d] = usize::MAX;
        }
        self.dirty.clear();
        self.actions.clear();
        self.actions.reserve(self.live.len());
        for li in 0..self.live.len() {
            let idx = self.live[li];
            let slot = &mut self.nodes[idx];
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
                    self.run.failed = Some(failed.clone());
                    return Err(failed);
                }
            }
            // The fault layer's physical hook: jamming/erasure models may
            // still rewrite actions (identity for clean models).
            let action = self.feedback.filter_action(NodeId(idx), action);
            match &action {
                Action::Transmit { channel, .. } => {
                    let ci = channel.index();
                    if self.tx_count[ci] == 0 && self.rx_count[ci] == 0 {
                        self.dirty.push(ci);
                    }
                    self.tx_count[ci] += 1;
                    self.lone_act[ci] = if self.tx_count[ci] == 1 {
                        self.actions.len()
                    } else {
                        usize::MAX
                    };
                }
                Action::Listen { channel } => {
                    let ci = channel.index();
                    if self.tx_count[ci] == 0 && self.rx_count[ci] == 0 {
                        self.dirty.push(ci);
                    }
                    self.rx_count[ci] += 1;
                }
                Action::Sleep => {}
            }
            self.actions.push((idx, action));
        }

        // The round can no longer fail, so it is reported from here on:
        // first the retirements of its opening, then every action in
        // NodeId order (a pass with an empty body for a sink without
        // per-event hooks). A per-node label is read here, after `act` and
        // before `observe`, so it names the phase that produced the action
        // (matching `PhaseMeter`'s attribution). The built-in metrics take
        // the round's totals from its channel counts.
        self.report_opening(round, sink);
        for (idx, action) in &self.actions {
            let label = if node_phases {
                self.nodes[*idx].protocol.phase()
            } else {
                phase
            };
            match action {
                Action::Transmit { channel, .. } => {
                    sink.on_transmission(round, NodeId(*idx), *channel, label);
                }
                Action::Listen { channel } => sink.on_listen(round, NodeId(*idx), *channel, label),
                Action::Sleep => {}
            }
        }
        let record_metrics = self.config.record_metrics;
        if record_metrics {
            for &ci in &self.dirty {
                self.run.metrics.transmissions += u64::from(self.tx_count[ci]);
                self.run.metrics.listens += u64::from(self.rx_count[ci]);
            }
        }

        // Solve detection: exactly one transmitter on the *physical*
        // primary channel. The candidate solver is always a real physical
        // transmitter (crashed nodes were retired before acting, so faults
        // cannot manufacture a spurious solve), and the feedback model may
        // still veto a round it jammed, erased, or assassinated.
        //
        // In one-shot mode the detection latches once; with
        // `continuous_delivery` every such round is a packet delivery, and
        // the solver is force-retired below so the channel frees up for the
        // next arrival.
        let primary = ChannelId::PRIMARY.index();
        let mut delivered: Option<usize> = None;
        if self.tx_count[primary] == 1
            && (self.run.solved_round.is_none() || self.config.continuous_delivery)
        {
            let solver_idx = self.actions[self.lone_act[primary]].0;
            let solver = NodeId(solver_idx);
            if self.feedback.allows_solve(solver) {
                if self.run.solved_round.is_none() {
                    self.run.solved_round = Some(round);
                    self.run.solver = Some(solver);
                }
                if self.config.continuous_delivery {
                    self.run.deliveries += 1;
                    delivered = Some(solver_idx);
                }
                sink.on_solved(round, solver);
            }
        }

        // Close the round out through the observation layer. Channel
        // outcomes are built (on the reusable buffer) only if an attached
        // observer reads them.
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

        // A delivered packet's sender is done regardless of what its
        // protocol could observe (under weak CD a transmitter cannot tell
        // it succeeded): the engine retires it through the same shared
        // transition the park and fault paths use. Retired before the
        // delivery pass, so it is reported ahead of the nodes that park
        // there; it still observes its round like every other actor.
        if let Some(idx) = delivered {
            if self.retire(idx, SlotState::Terminated) {
                sink.on_retired(round, NodeId(idx), SlotState::Terminated);
            }
        }

        // The last pass: deliver feedback, count each transmitter's own
        // transmission for the built-in metrics, and park each live slot
        // whose protocol terminated on it, so it drops out of the
        // per-round loops for good. `actions` holds exactly the live set
        // in NodeId order, so this pass visits every live slot once. The
        // actions buffer is moved out so the borrow checker can see it is
        // disjoint from the node slots; it is moved back afterwards, so
        // its capacity is reused across rounds.
        let actions = std::mem::take(&mut self.actions);
        {
            let state = ChannelState {
                tx_count: &self.tx_count,
                rx_count: &self.rx_count,
                actions: &actions,
                lone_act: &self.lone_act,
            };
            for (idx, action) in &actions {
                if record_metrics && matches!(action, Action::Transmit { .. }) {
                    self.run.metrics.transmissions_per_node[*idx] += 1;
                }
                let feedback = self.feedback.deliver(action, &state);
                let slot = &mut self.nodes[*idx];
                let ctx = RoundContext {
                    round,
                    local_round: round - slot.start_round,
                    channels: self.config.channels,
                };
                slot.protocol.observe(&ctx, feedback, &mut slot.rng);
                // The `Live` arm of `retire`, written out because `state`
                // borrows the engine: a live slot retires at most once.
                if slot.state == SlotState::Live && slot.protocol.status().is_terminated() {
                    slot.state = SlotState::Terminated;
                    self.retired_this_round = true;
                    sink.on_retired(round, NodeId(*idx), SlotState::Terminated);
                }
            }
        }
        self.actions = actions;
        if self.retired_this_round {
            self.compact_live();
        }
        Ok(self.close_round(sink))
    }

    /// Ends the current round, busy or idle: advances the clock and checks
    /// the stop condition.
    fn close_round<S: EventSink>(&mut self, sink: &mut S) -> StepStatus {
        self.run.round += 1;

        // Stop conditions — O(1) from the scheduler's counters: no slot is
        // pending, none is live, and none is crashed (a crashed node never
        // reports a terminated status, exactly as before the refactor).
        let all_terminated = self.run.round > self.latest_wake
            && self.unwoken == 0
            && self.live.is_empty()
            && self.crashed_count == 0;
        let finished = match self.config.stop_when {
            // The deadlock guard: everyone terminated without solving also
            // ends a Solved-mode run.
            StopWhen::Solved => self.run.solved_round.is_some() || all_terminated,
            StopWhen::AllTerminated => all_terminated,
        };
        self.run.finished = finished;
        if finished {
            sink.on_finished(self.run.round);
            StepStatus::Finished
        } else {
            StepStatus::Running
        }
    }

    /// The current round number: how many rounds have been executed so far.
    #[must_use]
    pub fn current_round(&self) -> u64 {
        self.run.round
    }

    /// Whether the stop condition has been met.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.run.finished
    }

    /// A snapshot of the solve data so far — callable at any point, also
    /// mid-run between [`Engine::step`] calls. Never clones.
    #[must_use]
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            solved_round: self.run.solved_round,
            solver: self.run.solver,
            rounds_executed: self.run.round,
        }
    }

    /// A snapshot report of the run so far — callable at any point, also
    /// mid-run between [`Engine::step`] calls.
    #[must_use]
    pub fn report(&self) -> RunReport {
        // One NodeId-ordered slot scan (not live-set iteration): report
        // order is part of the record schema and must not depend on
        // scheduler internals. Crashed slots count as still-active — the
        // node never terminated, the radio just lost it.
        let mut leaders = Vec::new();
        let mut active_remaining = Vec::new();
        for (idx, slot) in self.nodes.iter().enumerate() {
            match slot.protocol.status() {
                Status::Leader => leaders.push(NodeId(idx)),
                Status::Active if matches!(slot.state, SlotState::Live | SlotState::Crashed) => {
                    active_remaining.push(NodeId(idx));
                }
                _ => {}
            }
        }

        RunReport {
            solved_round: self.run.solved_round,
            solver: self.run.solver,
            rounds_executed: self.run.round,
            leaders,
            active_remaining,
            metrics: self.run.metrics.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Feedback;
    use crate::fault::{CrashStop, Layered, LossyChannel};
    use crate::sink::EventSink;

    /// What a test node does every round.
    #[derive(Clone, Copy)]
    enum Role {
        /// Transmit a fixed payload on a fixed channel, forever.
        Tx(ChannelId, u8),
        /// Listen on a fixed channel, forever.
        Rx(ChannelId),
        /// Terminate immediately with the given status.
        Quit(Status),
    }

    /// A single configurable test protocol, so engines can host mixtures.
    struct Rig {
        role: Role,
        heard: Vec<Feedback<u8>>,
    }

    impl Rig {
        fn tx(channel: ChannelId, payload: u8) -> Self {
            Rig {
                role: Role::Tx(channel, payload),
                heard: Vec::new(),
            }
        }
        fn rx(channel: ChannelId) -> Self {
            Rig {
                role: Role::Rx(channel),
                heard: Vec::new(),
            }
        }
        fn quit(status: Status) -> Self {
            Rig {
                role: Role::Quit(status),
                heard: Vec::new(),
            }
        }
    }

    impl Protocol for Rig {
        type Msg = u8;
        fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u8> {
            match self.role {
                Role::Tx(channel, payload) => Action::transmit(channel, payload),
                Role::Rx(channel) => Action::listen(channel),
                Role::Quit(_) => Action::Sleep,
            }
        }
        fn observe(&mut self, _ctx: &RoundContext, fb: Feedback<u8>, _rng: &mut SmallRng) {
            self.heard.push(fb);
        }
        fn status(&self) -> Status {
            match self.role {
                Role::Quit(status) => status,
                _ => Status::Active,
            }
        }
    }

    /// Logs every event as one line; a round line carries its phase label
    /// and outcome count (which is 0 for an idle round).
    #[derive(Default)]
    struct Log(Vec<String>);

    impl EventSink for Log {
        fn on_transmission(&mut self, round: u64, node: NodeId, ch: ChannelId, _: &'static str) {
            self.0.push(format!("{round}: tx {node} on {}", ch.get()));
        }
        fn on_listen(&mut self, round: u64, node: NodeId, ch: ChannelId, _: &'static str) {
            self.0.push(format!("{round}: rx {node} on {}", ch.get()));
        }
        fn on_solved(&mut self, round: u64, solver: NodeId) {
            self.0.push(format!("{round}: solved by {solver}"));
        }
        fn on_round(&mut self, round: u64, phase: &'static str, outcomes: &[ChannelOutcome]) {
            self.0.push(format!(
                "{round}: {phase} round, {} outcomes",
                outcomes.len()
            ));
        }
        fn on_retired(&mut self, round: u64, node: NodeId, state: SlotState) {
            self.0.push(format!("{round}: {node} {state}"));
        }
        fn on_finished(&mut self, rounds: u64) {
            self.0.push(format!("finished after {rounds}"));
        }
    }

    /// Runs a script on the engine and on the dense reference: each
    /// `(at, start_round, role)` adds a node just before the step that
    /// runs round `at`, and `rounds` steps run with a [`Log`] attached.
    /// Asserts both agree (the reference reports no retirements, so on
    /// every other event and on every slot's final state), then returns
    /// the engine and its log.
    fn scripted<F: FeedbackModel + Clone>(
        config: SimConfig,
        feedback: F,
        adds: &[(u64, u64, Role)],
        rounds: u64,
    ) -> (Engine<Rig, F>, Vec<String>) {
        let rig = |role| Rig {
            role,
            heard: Vec::new(),
        };
        let mut engine = Engine::with_feedback(config.clone(), feedback.clone());
        let mut dense = crate::dense::DenseEngine::with_feedback(config, feedback);
        let (mut log, mut dense_log) = (Log::default(), Log::default());
        for round in 0..rounds {
            for &(at, start, role) in adds {
                if at == round {
                    assert_eq!(
                        engine.add_node_at(rig(role), start),
                        dense.add_node_at(rig(role), start)
                    );
                }
            }
            engine.step_observed(&mut log).unwrap();
            dense.step_observed(&mut dense_log).unwrap();
        }
        let unretired = |log: &Log| -> Vec<String> {
            let retired = |line: &String| line.ends_with("crashed") || line.ends_with("terminated");
            log.0
                .iter()
                .filter(|line| !retired(line))
                .cloned()
                .collect()
        };
        assert_eq!(unretired(&log), unretired(&dense_log));
        for id in (0..engine.len()).map(NodeId) {
            assert_eq!(engine.slot_state(id), dense.slot_state(id), "{id}");
        }
        (engine, log.0)
    }

    fn all_terminated() -> SimConfig {
        SimConfig::new(2).stop_when(StopWhen::AllTerminated)
    }

    #[test]
    fn a_crash_before_waking_splits_an_agenda_run() {
        // Nodes 0..3 form one run for round 2; node 1 dies in round 0.
        let crash = Layered::new(CrashStop::schedule(vec![(NodeId(1), 0)]), CdMode::Strong);
        let rx = Role::Rx(ChannelId::new(2));
        let (engine, log) = scripted(all_terminated(), crash, &[(0, 2, rx); 3], 3);
        assert_eq!(
            log,
            [
                "0: 1 crashed",
                "0: idle round, 0 outcomes",
                "1: idle round, 0 outcomes",
                "2: rx 0 on 2",
                "2: rx 2 on 2",
                "2: main round, 1 outcomes",
            ]
        );
        assert_eq!(engine.slot_state(NodeId(1)), SlotState::Crashed);
        assert_eq!((engine.live_len(), engine.pending_len()), (2, 0));
    }

    #[test]
    fn a_stale_run_never_wakes_and_the_next_run_still_does() {
        let rx = Role::Rx(ChannelId::new(2));
        // Node 0 keeps the run going; nodes 1 and 2 arrive in round 3 with
        // start round 1 (already past) as one run, node 3 for round 3.
        let adds = [(0, 0, rx), (3, 1, rx), (3, 1, rx), (3, 3, rx)];
        let (engine, log) = scripted(all_terminated(), CdMode::Strong, &adds, 6);
        assert_eq!(
            log[6..9],
            ["3: rx 0 on 2", "3: rx 3 on 2", "3: main round, 1 outcomes"]
        );
        for stale in [NodeId(1), NodeId(2)] {
            assert_eq!(engine.slot_state(stale), SlotState::Pending);
        }
        assert_eq!((engine.live_len(), engine.pending_len()), (2, 2));
    }

    #[test]
    fn adds_below_the_tail_wake_in_node_id_order() {
        let rx = Role::Rx(ChannelId::new(2));
        // Node 0 wakes in round 5; nodes 1 and 2 land below it, in round 1.
        // After the drain's sort the tail run is node 0's, so node 3 (also
        // round 5) must start a run of its own rather than extend it.
        let adds = [(0, 5, rx), (0, 1, rx), (0, 1, rx), (2, 5, rx)];
        let (engine, log) = scripted(all_terminated(), CdMode::Strong, &adds, 6);
        assert_eq!(
            log[1..4],
            ["1: rx 1 on 2", "1: rx 2 on 2", "1: main round, 1 outcomes"]
        );
        assert_eq!(
            log[log.len() - 5..],
            [
                "5: rx 0 on 2",
                "5: rx 1 on 2",
                "5: rx 2 on 2",
                "5: rx 3 on 2",
                "5: main round, 1 outcomes",
            ]
        );
        assert_eq!((engine.live_len(), engine.pending_len()), (4, 0));
    }

    #[test]
    fn a_node_terminating_on_wake_inside_a_run_is_parked() {
        let adds = [
            (0, 0, Role::Rx(ChannelId::new(2))),
            (0, 0, Role::Quit(Status::Inactive)),
            (0, 0, Role::Tx(ChannelId::new(2), 7)),
        ];
        let (engine, log) = scripted(all_terminated(), CdMode::Strong, &adds, 1);
        assert_eq!(
            log,
            [
                "0: 1 terminated",
                "0: rx 0 on 2",
                "0: tx 2 on 2",
                "0: main round, 1 outcomes",
            ]
        );
        assert_eq!(engine.slot_state(NodeId(1)), SlotState::Terminated);
        assert_eq!(engine.node(NodeId(0)).heard, [Feedback::Message(7)]);
        assert_eq!(engine.live_len(), 2);
    }

    #[test]
    fn an_idle_round_reports_itself_and_spares_the_fault_layer() {
        /// Strong CD that records which hooks ran in which round.
        #[derive(Clone, Default)]
        struct Hooks {
            round: u64,
            calls: Vec<(u64, &'static str)>,
        }
        impl FeedbackModel for Hooks {
            fn begin_round(&mut self, round: u64) {
                self.round = round;
                self.calls.push((round, "begin_round"));
            }
            fn drain_crashed(&mut self, _out: &mut Vec<NodeId>) {
                self.calls.push((self.round, "drain_crashed"));
            }
            fn filter_action<M: Clone>(&mut self, _node: NodeId, action: Action<M>) -> Action<M> {
                self.calls.push((self.round, "filter_action"));
                action
            }
            fn allows_solve(&mut self, _solver: NodeId) -> bool {
                self.calls.push((self.round, "allows_solve"));
                true
            }
            fn deliver<M: Clone>(
                &mut self,
                action: &Action<M>,
                state: &ChannelState<'_, M>,
            ) -> Feedback<M> {
                self.calls.push((self.round, "deliver"));
                CdMode::Strong.deliver(action, state)
            }
        }

        // Each packet is delivered, and retired, in its wake round, so
        // rounds 1 and 2 have nobody live.
        let config = all_terminated().continuous_delivery(true);
        let tx = Role::Tx(ChannelId::PRIMARY, 1);
        let (engine, log) = scripted(config, Hooks::default(), &[(0, 0, tx), (0, 3, tx)], 5);
        let idle: Vec<&String> = log.iter().filter(|l| l.contains("idle")).collect();
        assert_eq!(
            idle,
            ["1: idle round, 0 outcomes", "2: idle round, 0 outcomes"]
        );
        assert_eq!(log.last().unwrap(), "finished after 4");
        let hooks = |round| -> Vec<&str> {
            engine
                .feedback()
                .calls
                .iter()
                .filter(|&&(r, _)| r == round)
                .map(|&(_, hook)| hook)
                .collect()
        };
        for round in [1, 2] {
            assert_eq!(hooks(round), ["begin_round", "drain_crashed"]);
        }
        assert_eq!(
            hooks(3),
            [
                "begin_round",
                "drain_crashed",
                "filter_action",
                "allows_solve",
                "deliver"
            ]
        );
    }

    #[test]
    fn an_idle_span_matches_the_same_rounds_stepped_one_by_one() {
        // A lossy radio draws every channel's erasure in every round, idle
        // or not; the crash schedule retires pending node 2 inside the
        // first idle gap, which must end the span that runs round 30.
        type Radio = Layered<LossyChannel, Layered<CrashStop, CdMode>>;
        let feedback = || -> Radio {
            Layered::new(
                LossyChannel::new(0.5),
                Layered::new(CrashStop::schedule(vec![(NodeId(2), 30)]), CdMode::Strong),
            )
        };
        let config = all_terminated().seed(5).continuous_delivery(true);
        let build = || {
            let mut engine = Engine::with_feedback(config.clone(), feedback());
            engine.add_node_at(Rig::tx(ChannelId::PRIMARY, 1), 0);
            engine.add_node_at(Rig::tx(ChannelId::PRIMARY, 2), 40);
            engine.add_node_at(Rig::tx(ChannelId::PRIMARY, 3), 60);
            engine.add_node_at(Rig::tx(ChannelId::PRIMARY, 4), 80);
            engine.add_node_at(Rig::rx(ChannelId::PRIMARY), 80);
            engine
        };
        let (mut stepped, mut spanned) = (build(), build());
        let (mut stepped_log, mut spanned_log) = (Log::default(), Log::default());
        for _ in 0..120 {
            stepped.step_observed(&mut stepped_log).unwrap();
        }
        // Each call's (first round, rounds run).
        let mut spans = Vec::new();
        while spanned.current_round() < 120 {
            let start = spanned.current_round();
            spanned.step_idle(120, &mut spanned_log).unwrap();
            spans.push((start, spanned.current_round() - start));
        }
        assert_eq!(spanned_log.0, stepped_log.0);
        let idle_lines: Vec<u64> = stepped_log
            .0
            .iter()
            .filter_map(|line| line.strip_suffix(": idle round, 0 outcomes"))
            .map(|round| round.parse().unwrap())
            .collect();
        assert!(
            idle_lines.windows(2).all(|w| w[0] < w[1]),
            "one line per idle round"
        );
        assert!(
            spans.iter().filter(|&&(_, ran)| ran > 10).count() >= 2,
            "the gaps ran as spans: {spans:?}"
        );
        assert!(
            spans
                .iter()
                .any(|&(start, ran)| start < 30 && start + ran == 31),
            "the pending crash in round 30 ends its span: {spans:?}"
        );
        assert!(stepped_log.0.contains(&"30: 2 crashed".to_string()));
        let erasures = |engine: &Engine<Rig, Radio>| engine.feedback().layer().erasures();
        assert_eq!(erasures(&spanned), erasures(&stepped));

        // The span drew the same erasures: the listener keeps hearing the
        // same rounds erased afterwards.
        for engine in [&mut stepped, &mut spanned] {
            engine.add_node_at(Rig::tx(ChannelId::PRIMARY, 5), 130);
            for _ in 0..40 {
                engine.step().unwrap();
            }
        }
        assert!(erasures(&stepped) > 0);
        assert_eq!(erasures(&spanned), erasures(&stepped));
        let heard = |engine: &Engine<Rig, Radio>| engine.node(NodeId(4)).heard.clone();
        assert_eq!(heard(&spanned), heard(&stepped));
    }

    #[test]
    fn lone_primary_transmitter_solves_in_round_zero() {
        let mut engine = Engine::new(SimConfig::new(4));
        let id = engine.add_node(Rig::tx(ChannelId::PRIMARY, 42));
        let report = engine.run().unwrap();
        assert_eq!(report.solved_round, Some(0));
        assert_eq!(report.solver, Some(id));
        assert_eq!(report.rounds_to_solve(), Some(1));
        assert!(report.is_solved());
        assert_eq!(report.rounds_executed, 1);
    }

    #[test]
    fn two_primary_transmitters_collide_forever_and_time_out() {
        let mut engine = Engine::new(SimConfig::new(4).max_rounds(50));
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 1));
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 2));
        let err = engine.run().unwrap_err();
        assert_eq!(err, SimError::Timeout { max_rounds: 50 });
    }

    #[test]
    fn lone_transmitter_on_secondary_channel_does_not_solve() {
        let mut engine = Engine::new(SimConfig::new(4).max_rounds(10));
        engine.add_node(Rig::tx(ChannelId::new(2), 1));
        let err = engine.run().unwrap_err();
        assert_eq!(err, SimError::Timeout { max_rounds: 10 });
    }

    #[test]
    fn listener_hears_message_then_collision() {
        // Round-by-round content check with a staggered second beacon.
        let mut engine = Engine::new(
            SimConfig::new(4)
                .max_rounds(3)
                .stop_when(StopWhen::AllTerminated),
        );
        engine.add_node(Rig::tx(ChannelId::new(2), 7));
        engine.add_node_at(Rig::tx(ChannelId::new(2), 8), 1);
        let ear = engine.add_node(Rig::rx(ChannelId::new(2)));
        // Nothing terminates, so this will time out; inspect state afterwards.
        let _ = engine.run();
        let heard = &engine.node(ear).heard;
        assert_eq!(heard[0], Feedback::Message(7));
        assert_eq!(heard[1], Feedback::Collision);
        assert_eq!(heard[2], Feedback::Collision);
    }

    #[test]
    fn transmitter_detects_collision_under_strong_cd() {
        let mut engine = Engine::new(SimConfig::new(2).max_rounds(1));
        let a = engine.add_node(Rig::tx(ChannelId::new(2), 1));
        let b = engine.add_node(Rig::tx(ChannelId::new(2), 2));
        let _ = engine.run();
        assert_eq!(engine.node(a).heard[0], Feedback::Collision);
        assert_eq!(engine.node(b).heard[0], Feedback::Collision);
    }

    #[test]
    fn lone_transmitter_hears_own_message_under_strong_cd() {
        let mut engine = Engine::new(SimConfig::new(2).max_rounds(1));
        let a = engine.add_node(Rig::tx(ChannelId::new(2), 9));
        let _ = engine.run();
        assert_eq!(engine.node(a).heard[0], Feedback::Message(9));
    }

    #[test]
    fn receiver_only_cd_blinds_transmitters() {
        let cfg = SimConfig::new(2)
            .max_rounds(1)
            .cd_mode(CdMode::ReceiverOnly);
        let mut engine = Engine::new(cfg);
        let a = engine.add_node(Rig::tx(ChannelId::new(2), 1));
        let b = engine.add_node(Rig::tx(ChannelId::new(2), 2));
        let ear = engine.add_node(Rig::rx(ChannelId::new(2)));
        let _ = engine.run();
        assert_eq!(engine.node(a).heard[0], Feedback::TransmittedBlind);
        assert_eq!(engine.node(b).heard[0], Feedback::TransmittedBlind);
        assert_eq!(engine.node(ear).heard[0], Feedback::Collision);
    }

    #[test]
    fn no_cd_turns_collisions_into_silence_for_listeners() {
        let cfg = SimConfig::new(2).max_rounds(1).cd_mode(CdMode::None);
        let mut engine = Engine::new(cfg);
        engine.add_node(Rig::tx(ChannelId::new(2), 1));
        engine.add_node(Rig::tx(ChannelId::new(2), 2));
        let ear = engine.add_node(Rig::rx(ChannelId::new(2)));
        let _ = engine.run();
        assert_eq!(engine.node(ear).heard[0], Feedback::Silence);
    }

    #[test]
    fn no_cd_still_delivers_lone_messages() {
        let cfg = SimConfig::new(2).max_rounds(1).cd_mode(CdMode::None);
        let mut engine = Engine::new(cfg);
        engine.add_node(Rig::tx(ChannelId::new(2), 5));
        let ear = engine.add_node(Rig::rx(ChannelId::new(2)));
        let _ = engine.run();
        assert_eq!(engine.node(ear).heard[0], Feedback::Message(5));
    }

    #[test]
    fn empty_channel_is_silence() {
        let mut engine = Engine::new(SimConfig::new(2).max_rounds(1));
        let ear = engine.add_node(Rig::rx(ChannelId::new(2)));
        let _ = engine.run();
        assert_eq!(engine.node(ear).heard[0], Feedback::Silence);
    }

    #[test]
    fn out_of_range_channel_is_an_error() {
        let mut engine = Engine::new(SimConfig::new(2).max_rounds(5));
        engine.add_node(Rig::tx(ChannelId::new(3), 0));
        let err = engine.run().unwrap_err();
        assert_eq!(
            err,
            SimError::ChannelOutOfRange {
                node: NodeId(0),
                round: 0,
                channel: ChannelId::new(3),
                channels: 2,
            }
        );
    }

    #[test]
    fn an_out_of_range_round_emits_nothing() {
        let mut engine = Engine::new(SimConfig::new(2).max_rounds(5));
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 1));
        engine.add_node(Rig::rx(ChannelId::new(2)));
        // Wakes in round 1 and picks channel 3 of 2 there.
        engine.add_node_at(Rig::tx(ChannelId::new(3), 0), 1);
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 2));
        let mut log = Log::default();
        let err = engine.run_observed(&mut log).unwrap_err();
        assert_eq!(
            err,
            SimError::ChannelOutOfRange {
                node: NodeId(2),
                round: 1,
                channel: ChannelId::new(3),
                channels: 2,
            }
        );
        // Round 0 completes; round 1 fails at node 2, after nodes 0 and 1
        // have acted, and neither the log nor the metrics see any of it.
        assert_eq!(
            log.0,
            [
                "0: tx 0 on 1",
                "0: rx 1 on 2",
                "0: tx 3 on 1",
                "0: main round, 2 outcomes",
            ]
        );
        let metrics = engine.report().metrics;
        assert_eq!((metrics.transmissions, metrics.listens), (2, 1));
        assert_eq!(metrics.transmissions_per_node, [1, 0, 0, 1]);
        assert_eq!(engine.current_round(), 1, "the failed round is not counted");
    }

    #[test]
    fn a_failed_round_reports_no_retirement_of_its_opening() {
        // In round 1 node 0 crashes, node 1 terminates on waking, and node 2
        // wakes and picks channel 3 of 2.
        let crash = Layered::new(CrashStop::schedule(vec![(NodeId(0), 1)]), CdMode::Strong);
        let mut engine = Engine::with_feedback(SimConfig::new(2), crash);
        engine.add_node(Rig::rx(ChannelId::PRIMARY));
        engine.add_node_at(Rig::quit(Status::Inactive), 1);
        engine.add_node_at(Rig::tx(ChannelId::new(3), 0), 1);
        let mut log = Log::default();
        let err = engine.run_observed(&mut log).unwrap_err();
        assert!(matches!(err, SimError::ChannelOutOfRange { round: 1, .. }));
        assert_eq!(log.0, ["0: rx 0 on 1", "0: main round, 1 outcomes"]);
        assert_eq!(engine.slot_state(NodeId(0)), SlotState::Crashed);
        assert_eq!(engine.slot_state(NodeId(1)), SlotState::Terminated);
    }

    #[test]
    fn no_nodes_is_an_error() {
        let mut engine: Engine<Rig> = Engine::new(SimConfig::new(2));
        assert_eq!(engine.run().unwrap_err(), SimError::NoNodes);
        assert!(engine.is_empty());
        assert_eq!(engine.len(), 0);
    }

    /// Transmits with probability `p` on a random channel, else listens on
    /// one; a listener that hears a message retires, and a transmitter
    /// that hears its own leads. Nodes with different `p` make NodeId
    /// order observable.
    struct Coin {
        p: f64,
        sent: bool,
        status: Status,
    }

    impl Protocol for Coin {
        type Msg = u8;
        fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u8> {
            use rand::Rng;
            let channel = ChannelId::new(rng.gen_range(1..=ctx.channels));
            self.sent = rng.gen_bool(self.p);
            if self.sent {
                Action::transmit(channel, 0)
            } else {
                Action::listen(channel)
            }
        }
        fn observe(&mut self, _ctx: &RoundContext, fb: Feedback<u8>, _rng: &mut SmallRng) {
            if let Feedback::Message(_) = fb {
                self.status = if self.sent {
                    Status::Leader
                } else {
                    Status::Inactive
                };
            }
        }
        fn status(&self) -> Status {
            self.status
        }
    }

    /// Builds each seed's engine twice from `build` — populated, and by an
    /// `add_node` loop — and asserts the two run alike: same report, same
    /// slot state for every node. Returns how many slots retired over all
    /// seeds, so a caller can see the runs were not trivial.
    fn populated_matches_add_node_loop<F: FeedbackModel>(
        build: impl Fn(SimConfig) -> Engine<Coin, F>,
    ) -> usize {
        let coins = || {
            (0..24).map(|i| Coin {
                p: f64::from(i % 4 + 1) / 8.0,
                sent: false,
                status: Status::Active,
            })
        };
        let mut retired = 0;
        for seed in 0..8 {
            let config = SimConfig::new(4).seed(seed).max_rounds(10_000);
            let mut looped = build(config.clone());
            for coin in coins() {
                looped.add_node(coin);
            }
            let mut populated = build(config).populated(coins());
            let (a, b) = (looped.run().unwrap(), populated.run().unwrap());
            assert_eq!(a.solved_round, b.solved_round, "seed {seed}");
            assert_eq!(a.solver, b.solver, "seed {seed}");
            assert_eq!(a.rounds_executed, b.rounds_executed, "seed {seed}");
            assert_eq!(a.leaders, b.leaders, "seed {seed}");
            assert_eq!(a.active_remaining, b.active_remaining, "seed {seed}");
            assert_eq!(a.metrics, b.metrics, "seed {seed}");
            assert_eq!(looped.len(), populated.len());
            for id in (0..looped.len()).map(NodeId) {
                assert_eq!(
                    looped.slot_state(id),
                    populated.slot_state(id),
                    "seed {seed}, {id}"
                );
                retired += usize::from(looped.slot_state(id).is_retired());
            }
        }
        retired
    }

    #[test]
    fn populated_matches_an_add_node_loop() {
        assert!(populated_matches_add_node_loop(Engine::new) > 0);
        let lossy = |config| {
            Engine::with_feedback(
                config,
                Layered::new(crate::fault::LossyChannel::new(0.1), CdMode::Strong),
            )
        };
        assert!(populated_matches_add_node_loop(lossy) > 0);
    }

    /// Records the first draw of its node's RNG when it wakes, then
    /// retires.
    #[derive(Default)]
    struct Probe {
        first_draw: Option<u64>,
    }

    impl Protocol for Probe {
        type Msg = ();
        fn on_wake(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) {
            use rand::RngCore;
            self.first_draw = Some(rng.next_u64());
        }
        fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<()> {
            Action::Sleep
        }
        fn observe(&mut self, _ctx: &RoundContext, _fb: Feedback<()>, _rng: &mut SmallRng) {}
        fn status(&self) -> Status {
            if self.first_draw.is_some() {
                Status::Inactive
            } else {
                Status::Active
            }
        }
    }

    /// Runs `engine` until every slot has woken, then asserts that each
    /// node's first draw is that of its own seed,
    /// `seed_from_u64(derive_node_seed(seed, id))`.
    fn assert_node_streams(mut engine: Engine<Probe>, route: &str) {
        engine.run().unwrap();
        let seed = engine.config().master_seed;
        for id in (0..engine.len()).map(NodeId) {
            use rand::RngCore;
            let want = SmallRng::seed_from_u64(derive_node_seed(seed, id.0 as u64)).next_u64();
            assert_eq!(engine.node(id).first_draw, Some(want), "{route}: {id}");
        }
    }

    #[test]
    fn every_insertion_route_seeds_each_node_with_its_own_stream() {
        let config = || SimConfig::new(4).seed(0xC0FFEE).max_rounds(100);

        let mut engine = Engine::new(config());
        for _ in 0..5 {
            engine.add_node(Probe::default());
        }
        assert_node_streams(engine, "add_node");

        let mut engine = Engine::new(config());
        for at in [2, 2, 5, 1, 3, 0] {
            engine.add_node_at(Probe::default(), at);
        }
        engine.step().unwrap();
        engine.add_node_at(Probe::default(), 4);
        engine.add_node_at(Probe::default(), 2);
        assert_node_streams(engine, "add_node_at");

        let engine = Engine::new(config()).populated((0..5).map(|_| Probe::default()));
        assert_node_streams(engine, "populated");

        let pop = crate::population::SparsePopulation::uniform(1 << 10, 7, 4, 3);
        let engine = pop.engine_with(config(), CdMode::Strong, |_| Probe::default());
        assert_node_streams(engine, "SparsePopulation::engine_with");
    }

    #[test]
    fn populated_with_no_nodes_is_still_an_error() {
        let mut engine: Engine<Rig> = Engine::new(SimConfig::new(2)).populated(std::iter::empty());
        assert_eq!(engine.run().unwrap_err(), SimError::NoNodes);
    }

    #[test]
    fn all_terminated_without_solving_ends_run() {
        let mut engine = Engine::new(SimConfig::new(2).max_rounds(100));
        engine.add_node(Rig::quit(Status::Inactive));
        let report = engine.run().unwrap();
        assert!(!report.is_solved());
        assert!(report.leaders.is_empty());
        assert!(report.active_remaining.is_empty());
    }

    #[test]
    fn leaders_are_reported() {
        let cfg = SimConfig::new(2)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(10);
        let mut engine = Engine::new(cfg);
        let a = engine.add_node(Rig::quit(Status::Leader));
        engine.add_node(Rig::quit(Status::Inactive));
        let report = engine.run().unwrap();
        assert_eq!(report.leaders, vec![a]);
    }

    #[test]
    fn transmission_metrics_count_energy() {
        let mut engine = Engine::new(SimConfig::new(4).max_rounds(3));
        engine.add_node(Rig::tx(ChannelId::new(2), 1));
        engine.add_node(Rig::tx(ChannelId::new(3), 2));
        let err = engine.run().unwrap_err();
        assert_eq!(err, SimError::Timeout { max_rounds: 3 });
        // Re-run with a fresh engine to get a report that includes metrics.
        let mut engine = Engine::new(SimConfig::new(4).max_rounds(3));
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 1));
        let report = engine.run().unwrap();
        assert_eq!(report.metrics.transmissions, 1);
        assert_eq!(report.metrics.transmissions_per_node, vec![1]);
    }

    #[test]
    fn staggered_wakeup_respects_start_round() {
        let cfg = SimConfig::new(2).max_rounds(5);
        let mut engine = Engine::new(cfg);
        engine.add_node_at(Rig::tx(ChannelId::PRIMARY, 1), 3);
        let report = engine.run().unwrap();
        // The beacon only exists from round 3, so that is the solve round.
        assert_eq!(report.solved_round, Some(3));
    }

    #[test]
    fn trace_records_channel_outcomes() {
        let mut engine = Engine::new(SimConfig::new(4).max_rounds(1));
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 1));
        engine.add_node(Rig::tx(ChannelId::new(3), 1));
        engine.add_node(Rig::tx(ChannelId::new(3), 2));
        let mut trace = crate::Trace::new();
        engine.run_observed(&mut trace).unwrap();
        assert_eq!(trace.len(), 1);
        let outcomes = &trace.rounds()[0].outcomes;
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].kind, OutcomeKind::Message);
        assert_eq!(outcomes[1].kind, OutcomeKind::Collision);
        assert_eq!(outcomes[1].transmitters, 2);
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        use rand::Rng;

        /// Random-channel beacon used to exercise the per-node RNG.
        struct RandomBeacon {
            last: Vec<u32>,
        }
        impl Protocol for RandomBeacon {
            type Msg = u8;
            fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u8> {
                let ch = rng.gen_range(1..=ctx.channels);
                self.last.push(ch);
                Action::transmit(ChannelId::new(ch), 0)
            }
            fn observe(&mut self, _ctx: &RoundContext, _fb: Feedback<u8>, _rng: &mut SmallRng) {}
            fn status(&self) -> Status {
                Status::Active
            }
        }

        let run = |seed: u64| {
            let mut engine = Engine::new(SimConfig::new(16).seed(seed).max_rounds(20));
            let a = engine.add_node(RandomBeacon { last: Vec::new() });
            let b = engine.add_node(RandomBeacon { last: Vec::new() });
            let _ = engine.run();
            (engine.node(a).last.clone(), engine.node(b).last.clone())
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        let (a, b) = run(5);
        assert_ne!(a, b, "node RNG streams must differ");
    }

    #[test]
    fn phase_accounting_uses_first_active_node() {
        struct Phased {
            rounds: u64,
        }
        impl Protocol for Phased {
            type Msg = u8;
            fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u8> {
                self.rounds += 1;
                Action::Sleep
            }
            fn observe(&mut self, _ctx: &RoundContext, _fb: Feedback<u8>, _rng: &mut SmallRng) {}
            fn status(&self) -> Status {
                if self.rounds >= 4 {
                    Status::Inactive
                } else {
                    Status::Active
                }
            }
            fn phase(&self) -> &'static str {
                if self.rounds < 2 {
                    "warmup"
                } else {
                    "work"
                }
            }
        }
        let cfg = SimConfig::new(1)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(10);
        let mut engine = Engine::new(cfg);
        engine.add_node(Phased { rounds: 0 });
        let mut trace = crate::Trace::new();
        engine.run_observed(&mut trace).unwrap();
        let rounds_in = |label| trace.rounds().iter().filter(|r| r.phase == label).count();
        assert_eq!(rounds_in("warmup"), 2);
        assert_eq!(rounds_in("work"), 2);
    }

    #[test]
    fn run_summary_matches_full_report() {
        let build = || {
            let mut engine = Engine::new(SimConfig::new(4).seed(12).max_rounds(100));
            engine.add_node_at(Rig::tx(ChannelId::PRIMARY, 1), 2);
            engine
        };
        let report = build().run().unwrap();
        let summary = build().run_summary().unwrap();
        assert_eq!(summary, report.summary());
        assert_eq!(summary.solved_round, Some(2));
        assert_eq!(summary.rounds_to_solve(), Some(3));
        assert!(summary.is_solved());
    }

    #[test]
    fn disabling_metrics_changes_no_outcome() {
        let run = |record: bool| {
            let cfg = SimConfig::new(4)
                .seed(3)
                .max_rounds(100)
                .record_metrics(record);
            let mut engine = Engine::new(cfg);
            engine.add_node_at(Rig::tx(ChannelId::PRIMARY, 1), 1);
            engine.add_node(Rig::rx(ChannelId::PRIMARY));
            engine.run().unwrap()
        };
        let with = run(true);
        let without = run(false);
        assert_eq!(with.solved_round, without.solved_round);
        assert_eq!(with.rounds_executed, without.rounds_executed);
        assert_eq!(with.metrics.transmissions, 1);
        assert_eq!(without.metrics.transmissions, 0);
        assert_eq!(without.metrics.listens, 0);
    }

    #[test]
    fn external_sink_observes_the_run() {
        #[derive(Default)]
        struct Spy {
            tx: usize,
            rx: usize,
            rounds: usize,
            solved: Option<(u64, NodeId)>,
            finished: Option<u64>,
            outcome_rounds: usize,
        }
        impl EventSink for Spy {
            fn on_transmission(
                &mut self,
                _round: u64,
                _node: NodeId,
                _channel: ChannelId,
                _phase: &'static str,
            ) {
                self.tx += 1;
            }
            fn on_listen(
                &mut self,
                _round: u64,
                _node: NodeId,
                _channel: ChannelId,
                _phase: &'static str,
            ) {
                self.rx += 1;
            }
            fn on_solved(&mut self, round: u64, solver: NodeId) {
                self.solved = Some((round, solver));
            }
            fn on_round(&mut self, _round: u64, _phase: &'static str, outcomes: &[ChannelOutcome]) {
                self.rounds += 1;
                if !outcomes.is_empty() {
                    self.outcome_rounds += 1;
                }
            }
            fn on_finished(&mut self, rounds: u64) {
                self.finished = Some(rounds);
            }
        }

        let mut engine = Engine::new(SimConfig::new(4).max_rounds(100));
        let beacon = engine.add_node_at(Rig::tx(ChannelId::PRIMARY, 1), 1);
        engine.add_node(Rig::rx(ChannelId::PRIMARY));
        let mut spy = Spy::default();
        let report = engine.run_observed(&mut spy).unwrap();
        assert_eq!(spy.tx, 1);
        assert_eq!(spy.rx, 2, "listener listens in rounds 0 and 1");
        assert_eq!(spy.rounds, report.rounds_executed as usize);
        assert_eq!(spy.solved, Some((1, beacon)));
        assert_eq!(spy.finished, Some(2));
        // Spy keeps the default wants_outcomes() == true, so outcomes were
        // built even with tracing off.
        assert_eq!(spy.outcome_rounds, 2);
    }

    #[test]
    fn custom_feedback_model_is_consulted() {
        /// Delivers silence to everyone, always, and vetoes every solve.
        struct Void;
        impl FeedbackModel for Void {
            fn deliver<M: Clone>(
                &mut self,
                _action: &Action<M>,
                _state: &ChannelState<'_, M>,
            ) -> Feedback<M> {
                Feedback::Silence
            }
            fn allows_solve(&mut self, _solver: NodeId) -> bool {
                false
            }
        }

        let mut engine = Engine::with_feedback(SimConfig::new(2).max_rounds(3), Void);
        let a = engine.add_node(Rig::tx(ChannelId::PRIMARY, 9));
        let err = engine.run().unwrap_err();
        // The lone transmission was vetoed, so the run times out unsolved...
        assert_eq!(err, SimError::Timeout { max_rounds: 3 });
        assert_eq!(engine.summary().solved_round, None);
        // ...and the transmitter heard silence instead of its own message.
        assert_eq!(engine.node(a).heard, vec![Feedback::Silence; 3]);
    }

    #[test]
    fn round_budget_watchdog_fires_with_structured_error() {
        let mut engine = Engine::new(SimConfig::new(4).max_rounds(1_000_000).round_budget(50));
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 1));
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 2));
        let err = engine.run().unwrap_err();
        assert_eq!(
            err,
            SimError::BudgetExhausted {
                budget: 50,
                solved: false,
            }
        );
        assert_eq!(engine.current_round(), 50);
    }

    #[test]
    fn round_budget_guards_manual_stepping_too() {
        let mut engine = Engine::new(SimConfig::new(4).round_budget(3));
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 1));
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 2));
        for _ in 0..3 {
            assert_eq!(engine.step().unwrap(), StepStatus::Running);
        }
        // `step` ignores max_rounds but honors the watchdog.
        assert!(matches!(
            engine.step().unwrap_err(),
            SimError::BudgetExhausted { budget: 3, .. }
        ));
    }

    #[test]
    fn round_budget_reports_solved_when_waiting_for_termination() {
        let cfg = SimConfig::new(4)
            .stop_when(StopWhen::AllTerminated)
            .round_budget(10);
        let mut engine = Engine::new(cfg);
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 1));
        let err = engine.run().unwrap_err();
        assert_eq!(
            err,
            SimError::BudgetExhausted {
                budget: 10,
                solved: true,
            }
        );
        assert_eq!(engine.summary().solved_round, Some(0));
    }

    #[test]
    fn unarmed_budget_leaves_runs_untouched() {
        let mut engine = Engine::new(SimConfig::new(4).max_rounds(20));
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 1));
        engine.add_node(Rig::tx(ChannelId::PRIMARY, 2));
        assert_eq!(
            engine.run().unwrap_err(),
            SimError::Timeout { max_rounds: 20 }
        );
    }

    #[test]
    fn feedback_accessor_returns_model() {
        let engine: Engine<Rig> = Engine::new(SimConfig::new(2).cd_mode(CdMode::None));
        assert_eq!(*engine.feedback(), CdMode::None);
    }
}
