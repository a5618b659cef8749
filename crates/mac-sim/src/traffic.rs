//! Dynamic-arrivals traffic: continuous packet streams over the round
//! engine, with per-packet latency and delivered-throughput accounting.
//!
//! Everything else in this crate runs *one-shot* workloads: a fixed
//! population wakes on a fixed schedule, the run ends at the first solve
//! (or total termination). This module is the queueing view of contention
//! resolution instead — the one Bender et al. and Chen–Jiang–Zheng analyze
//! — where packets keep *arriving* over time:
//!
//! * a seeded [`ArrivalProcess`] (Poisson, bursty on/off, fixed-rate,
//!   adversarial batch) decides how many packets arrive each round;
//! * each arrival becomes one engine slot, injected **incrementally** into
//!   the active-set wake agenda via
//!   [`Engine::add_node_at`](crate::Engine::add_node_at) — per-round cost
//!   stays O(|live| + touched channels), never O(total arrivals);
//! * a lone primary-channel transmission *delivers* that sender's packet
//!   and retires the slot ([`SimConfig::continuous_delivery`]), optionally
//!   re-arming the sender with a fresh packet ([`TrafficSpec::rearm`]);
//! * the run ends at a round [`TrafficSpec::horizon`], or when the backlog
//!   drains after the arrival window closes, or when
//!   [`SimConfig::round_budget`] trips — never by a global solve.
//!
//! The result is a [`TrafficReport`]: delivered / offered / dropped
//! counts, backlog peak and mean, and a [`PowHistogram`] of per-packet
//! latencies.
//!
//! Determinism contract: a traffic run is a pure function of
//! (configuration, spec, master seed). The same driver runs on the
//! active-set [`Engine`] ([`run_traffic`]) and on the
//! O(n)-scan [`DenseEngine`] reference
//! ([`run_traffic_dense`]); `crates/mac-sim/tests/traffic_equivalence.rs`
//! pins the two bit-identical across arrival processes × CD modes × fault
//! stacks.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::action::{Action, Feedback};
use crate::channel::ChannelId;
use crate::config::{SimConfig, StopWhen};
use crate::dense::DenseEngine;
use crate::engine::{Engine, NodeId, SlotState, StepStatus};
use crate::error::SimError;
use crate::feedback::FeedbackModel;
use crate::obs::telemetry::PowHistogram;
use crate::protocol::{Protocol, RoundContext, Status};
use crate::rng::derive_stream_seed;
use crate::sink::EventSink;

/// Salt separating the arrival stream's RNG from node and fault streams
/// derived from the same master seed.
const ARRIVAL_STREAM: u64 = 0x0074_5241_4646_4943_u64; // "TRAFFIC"

/// How packets arrive over time. All randomness comes from one RNG stream
/// derived from the master seed, so the arrival schedule is independent of
/// node count, worker count, and everything the protocols do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson(`rate`) packets per round — the memoryless baseline of the
    /// queueing literature. `rate` is the offered load in packets/round.
    Poisson {
        /// Mean packets per round.
        rate: f64,
    },
    /// On/off modulated Poisson: while *on*, Poisson(`burst_rate`)
    /// arrivals per round; while *off*, none. The phase flips with the
    /// given per-round probabilities (sampled after each round's count, so
    /// the draw order is fixed). Mean load is
    /// `burst_rate · off_to_on / (on_to_off + off_to_on)`.
    Bursty {
        /// Mean packets per round while the source is on.
        burst_rate: f64,
        /// Per-round probability of switching on → off.
        on_to_off: f64,
        /// Per-round probability of switching off → on.
        off_to_on: f64,
    },
    /// Deterministic: `batch` packets every `period` rounds, starting at
    /// round 0.
    FixedRate {
        /// Rounds between batches (≥ 1).
        period: u64,
        /// Packets per batch.
        batch: u32,
    },
    /// Adversarial batch: `size` packets all at once at round `at`, and
    /// every `period` rounds after that if `period` is `Some` — the
    /// burst-arrival worst case of the dynamic analyses.
    Batch {
        /// Round of the first batch.
        at: u64,
        /// Packets per batch.
        size: u32,
        /// Repeat interval, if any (≥ 1).
        period: Option<u64>,
    },
}

/// A seeded, replayable stream of `(round, packet count)` batches drawn
/// from an [`ArrivalProcess`] over the arrival window `[0, window)`.
///
/// Batches come out in strictly increasing round order with nonzero
/// counts; the stream is exhausted when [`ArrivalStream::next_batch`]
/// returns `None`. Two streams with the same process, window, and seed
/// yield bit-identical schedules.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    process: ArrivalProcess,
    rng: SmallRng,
    window: u64,
    next_round: u64,
    /// Bursty-source phase; sources start on.
    on: bool,
    /// `exp(-rate)` of the Poisson (or bursty on-phase) rate: the
    /// sampler's stopping threshold, computed once per stream.
    poisson_limit: f64,
}

impl ArrivalStream {
    /// A stream over `[0, window)` seeded from `master_seed` (salted, so
    /// it never collides with node or fault RNG streams).
    ///
    /// # Panics
    ///
    /// Panics if a Poisson `rate` or a bursty `burst_rate` is not finite
    /// (a NaN rate would make the Poisson sampler loop forever).
    #[must_use]
    pub fn new(process: ArrivalProcess, window: u64, master_seed: u64) -> Self {
        let rate = match process {
            ArrivalProcess::Poisson { rate } => {
                assert!(rate.is_finite(), "Poisson rate must be finite, got {rate}");
                rate
            }
            ArrivalProcess::Bursty { burst_rate, .. } => {
                assert!(
                    burst_rate.is_finite(),
                    "Bursty burst_rate must be finite, got {burst_rate}"
                );
                burst_rate
            }
            ArrivalProcess::FixedRate { .. } | ArrivalProcess::Batch { .. } => 0.0,
        };
        ArrivalStream {
            process,
            rng: SmallRng::seed_from_u64(derive_stream_seed(master_seed, ARRIVAL_STREAM)),
            window,
            next_round: 0,
            on: true,
            poisson_limit: (-rate).exp(),
        }
    }

    /// Knuth's product-of-uniforms Poisson sampler, stopping at
    /// `limit = exp(-rate)`; fine for the per-round rates traffic sweeps
    /// use (λ ≲ 30).
    fn poisson(rng: &mut SmallRng, rate: f64, limit: f64) -> u32 {
        if rate <= 0.0 {
            return 0;
        }
        let mut k = 0u32;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen_range(0.0..1.0);
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// Packet count arriving in `round`. Must be called for consecutive
    /// rounds — [`ArrivalStream::next_batch`] does.
    fn count_at(&mut self, round: u64) -> u32 {
        match self.process {
            ArrivalProcess::Poisson { rate } => {
                Self::poisson(&mut self.rng, rate, self.poisson_limit)
            }
            ArrivalProcess::Bursty {
                burst_rate,
                on_to_off,
                off_to_on,
            } => {
                let count = if self.on {
                    Self::poisson(&mut self.rng, burst_rate, self.poisson_limit)
                } else {
                    0
                };
                let flip_p = if self.on { on_to_off } else { off_to_on };
                if self.rng.gen_bool(flip_p.clamp(0.0, 1.0)) {
                    self.on = !self.on;
                }
                count
            }
            ArrivalProcess::FixedRate { period, batch } => {
                if round.is_multiple_of(period.max(1)) {
                    batch
                } else {
                    0
                }
            }
            ArrivalProcess::Batch { at, size, period } => match period {
                _ if round < at => 0,
                Some(p) if (round - at).is_multiple_of(p.max(1)) => size,
                None if round == at => size,
                _ => 0,
            },
        }
    }

    /// The next nonzero batch, or `None` once the window is exhausted.
    pub fn next_batch(&mut self) -> Option<(u64, u32)> {
        while self.next_round < self.window {
            let round = self.next_round;
            self.next_round += 1;
            let count = self.count_at(round);
            if count > 0 {
                return Some((round, count));
            }
        }
        None
    }
}

/// One traffic workload: the arrival process plus run-shape knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// How packets arrive.
    pub process: ArrivalProcess,
    /// Arrivals occur in rounds `[0, window)`; after that the stream is
    /// dry and a horizonless run drains its backlog.
    pub window: u64,
    /// Hard round horizon: the run stops entering rounds `≥ horizon`.
    /// `None` runs until the backlog drains (bound it with
    /// [`SimConfig::round_budget`] under faults that can starve delivery).
    pub horizon: Option<u64>,
    /// If `Some(delay)`, every packet delivered in the arrival window
    /// re-arms its source: a fresh packet arrives `max(delay, 1)` rounds
    /// after the delivery — the closed-loop "saturated users" workload.
    pub rearm: Option<u64>,
}

impl TrafficSpec {
    /// A spec with the given process and arrival window, no horizon, no
    /// re-arming.
    #[must_use]
    pub fn new(process: ArrivalProcess, window: u64) -> Self {
        TrafficSpec {
            process,
            window,
            horizon: None,
            rearm: None,
        }
    }

    /// Sets a hard round horizon.
    #[must_use]
    pub fn horizon(mut self, horizon: u64) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Enables re-arming with the given delay.
    #[must_use]
    pub fn rearm(mut self, delay: u64) -> Self {
        self.rearm = Some(delay);
        self
    }
}

/// Why a traffic run stopped. Unlike one-shot runs there is no "solved"
/// terminal state; all three causes are expected outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The arrival window closed and the backlog drained (crashed slots
    /// don't block the drain; their packets count as dropped).
    Drained,
    /// The round horizon was reached.
    Horizon,
    /// [`SimConfig::round_budget`] tripped — the structured watchdog for
    /// horizonless runs under faults, never a wedge.
    BudgetExhausted,
}

/// The result of one traffic run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficReport {
    /// Packets that arrived (stream arrivals + re-arms).
    pub offered: u64,
    /// Packets delivered: lone primary-channel transmissions the feedback
    /// model let through.
    pub delivered: u64,
    /// Packets lost to crashed slots.
    pub dropped: u64,
    /// Packets still queued (live or pending) when the run stopped.
    pub backlog_final: u64,
    /// Largest end-of-round backlog observed.
    pub backlog_peak: u64,
    /// Sum of end-of-round backlogs — mean backlog is
    /// [`TrafficReport::mean_backlog`].
    pub backlog_sum: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Why the run stopped.
    pub stop: StopCause,
    /// Per-packet latency in rounds (delivery − arrival + 1), one sample
    /// per delivered packet.
    pub latency: PowHistogram,
    /// Every delivery as `(round, node)`, in round order.
    pub deliveries: Vec<(u64, NodeId)>,
}

impl TrafficReport {
    /// Delivered throughput in packets per executed round.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn throughput(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.delivered as f64 / self.rounds as f64
        }
    }

    /// Mean end-of-round backlog over the executed rounds.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean_backlog(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.backlog_sum as f64 / self.rounds as f64
        }
    }

    /// Round of the first delivery, if any (the one-shot `solved_round`).
    #[must_use]
    pub fn first_delivery(&self) -> Option<u64> {
        self.deliveries.first().map(|&(round, _)| round)
    }

    /// Latency quantile in rounds (see [`PowHistogram::quantile`]).
    #[must_use]
    pub fn latency_quantile(&self, q: f64) -> u64 {
        self.latency.quantile(q)
    }
}

/// The engine surface the traffic driver needs. Implemented by both the
/// active-set [`Engine`] and the [`DenseEngine`] reference, so one driver
/// (same injection order, same RNG draws) runs on either — which is what
/// makes the dense-equivalence proptest pin the *scheduler*, not the
/// driver.
trait TrafficEngine<P: Protocol> {
    fn add_node_at(&mut self, protocol: P, start_round: u64) -> NodeId;
    fn step_observed<S: EventSink>(&mut self, sink: &mut S) -> Result<StepStatus, SimError>;
    fn current_round(&self) -> u64;
    fn live_len(&self) -> usize;
    fn pending_len(&self) -> usize;
    fn slot_state(&self, id: NodeId) -> SlotState;
}

impl<P: Protocol, F: FeedbackModel> TrafficEngine<P> for Engine<P, F> {
    #[inline]
    fn add_node_at(&mut self, protocol: P, start_round: u64) -> NodeId {
        Engine::add_node_at(self, protocol, start_round)
    }
    fn step_observed<S: EventSink>(&mut self, sink: &mut S) -> Result<StepStatus, SimError> {
        Engine::step_observed(self, sink)
    }
    fn current_round(&self) -> u64 {
        Engine::current_round(self)
    }
    fn live_len(&self) -> usize {
        Engine::live_len(self)
    }
    fn pending_len(&self) -> usize {
        Engine::pending_len(self)
    }
    fn slot_state(&self, id: NodeId) -> SlotState {
        Engine::slot_state(self, id)
    }
}

impl<P: Protocol, F: FeedbackModel> TrafficEngine<P> for DenseEngine<P, F> {
    fn add_node_at(&mut self, protocol: P, start_round: u64) -> NodeId {
        DenseEngine::add_node_at(self, protocol, start_round)
    }
    fn step_observed<S: EventSink>(&mut self, sink: &mut S) -> Result<StepStatus, SimError> {
        DenseEngine::step_observed(self, sink)
    }
    fn current_round(&self) -> u64 {
        DenseEngine::current_round(self)
    }
    fn live_len(&self) -> usize {
        DenseEngine::live_len(self)
    }
    fn pending_len(&self) -> usize {
        DenseEngine::pending_len(self)
    }
    fn slot_state(&self, id: NodeId) -> SlotState {
        DenseEngine::slot_state(self, id)
    }
}

/// Captures per-round deliveries from the engine's `on_solved` events
/// (which fire once per delivery under continuous-delivery mode).
#[derive(Default)]
struct DeliveryCapture {
    delivered: Vec<(u64, NodeId)>,
}

impl EventSink for DeliveryCapture {
    #[inline]
    fn on_solved(&mut self, round: u64, solver: NodeId) {
        self.delivered.push((round, solver));
    }
    fn wants_outcomes(&self) -> bool {
        false
    }
}

/// Forces the run shape traffic needs, whatever the caller passed:
/// continuous delivery on, no stop at the first solve, and no engine
/// [`Metrics`](crate::Metrics) — a [`TrafficReport`] carries its own
/// counts, so the engine's per-node transmission and listen counts would
/// be discarded.
fn traffic_config(config: SimConfig) -> SimConfig {
    config
        .continuous_delivery(true)
        .stop_when(StopWhen::AllTerminated)
        .record_metrics(false)
}

/// Runs a traffic workload on the active-set engine.
///
/// `make` builds the protocol for the `i`-th packet (0-based arrival
/// sequence number); its RNG is derived per node from the master seed as
/// usual. The configuration's `stop_when` is overridden (traffic never
/// stops on a solve), `continuous_delivery` is forced on, and
/// `record_metrics` is forced off (the engine's metrics never reach the
/// report).
///
/// # Errors
///
/// [`SimError::ChannelOutOfRange`] if a protocol picks an invalid channel,
/// and [`SimError::Timeout`] if `max_rounds` elapse before the run's own
/// stop condition — a budget trip is *not* an error
/// ([`StopCause::BudgetExhausted`]).
///
/// # Panics
///
/// Panics if the spec's arrival rate is not finite
/// ([`ArrivalStream::new`]).
pub fn run_traffic<P, F, MkP>(
    config: SimConfig,
    feedback: F,
    spec: &TrafficSpec,
    make: MkP,
) -> Result<TrafficReport, SimError>
where
    P: Protocol,
    F: FeedbackModel,
    MkP: FnMut(u64) -> P,
{
    let seed = config.master_seed;
    let max_rounds = config.max_rounds;
    let mut eng = Engine::with_feedback(traffic_config(config), feedback);
    drive(&mut eng, seed, max_rounds, spec, make)
}

/// [`run_traffic`] on the O(n)-scan [`DenseEngine`] reference — the
/// semantics oracle for the equivalence proptest.
///
/// # Errors
///
/// Same as [`run_traffic`].
pub fn run_traffic_dense<P, F, MkP>(
    config: SimConfig,
    feedback: F,
    spec: &TrafficSpec,
    make: MkP,
) -> Result<TrafficReport, SimError>
where
    P: Protocol,
    F: FeedbackModel,
    MkP: FnMut(u64) -> P,
{
    let seed = config.master_seed;
    let max_rounds = config.max_rounds;
    let mut eng = DenseEngine::with_feedback(traffic_config(config), feedback);
    drive(&mut eng, seed, max_rounds, spec, make)
}

/// The shared driver: inject arrivals, step, account deliveries, stop.
fn drive<P, E, MkP>(
    eng: &mut E,
    seed: u64,
    max_rounds: u64,
    spec: &TrafficSpec,
    mut make: MkP,
) -> Result<TrafficReport, SimError>
where
    P: Protocol,
    E: TrafficEngine<P>,
    MkP: FnMut(u64) -> P,
{
    let mut stream = ArrivalStream::new(spec.process, spec.window, seed);
    let mut next_batch = stream.next_batch();
    // Arrival round per NodeId: NodeIds are assigned densely in injection
    // order, so a Vec is the whole latency ledger.
    let mut arrivals: Vec<u64> = Vec::new();
    let mut latency = PowHistogram::new();
    let mut deliveries: Vec<(u64, NodeId)> = Vec::new();
    let mut offered = 0u64;
    let mut delivered = 0u64;
    let mut backlog_peak = 0u64;
    let mut backlog_sum = 0u64;
    let mut sink = DeliveryCapture::default();

    let stop = loop {
        let now = eng.current_round();
        // Inject every batch due by round `now + 1` — and, when no packet
        // is in the system, the next batch regardless of its round, so the
        // engine always has pending work while the stream is nonempty and
        // idles forward through arrival gaps instead of latching its stop
        // condition.
        while let Some((round, count)) = next_batch {
            let idle = eng.live_len() == 0 && eng.pending_len() == 0;
            if round > now + 1 && !idle {
                break;
            }
            debug_assert!(
                round >= now,
                "arrival batches are injected before their round"
            );
            for _ in 0..count {
                let id = eng.add_node_at(make(offered), round.max(now));
                debug_assert_eq!(id.0, arrivals.len());
                arrivals.push(round.max(now));
                offered += 1;
            }
            next_batch = stream.next_batch();
        }

        if let Some(h) = spec.horizon {
            if now >= h {
                break StopCause::Horizon;
            }
        }
        if next_batch.is_none() && eng.live_len() == 0 && eng.pending_len() == 0 {
            // Stream dry, nothing queued: drained. Crashed slots don't
            // block this (their packets are already lost).
            break StopCause::Drained;
        }
        if now >= max_rounds {
            return Err(SimError::Timeout { max_rounds });
        }

        match eng.step_observed(&mut sink) {
            Ok(_) => {}
            Err(SimError::BudgetExhausted { .. }) => break StopCause::BudgetExhausted,
            Err(e) => return Err(e),
        }

        // Account this round's delivery (at most one: a single primary
        // channel carries at most one lone transmission per round).
        for &(round, id) in &sink.delivered {
            delivered += 1;
            latency.record(round - arrivals[id.0] + 1);
            deliveries.push((round, id));
            if let Some(delay) = spec.rearm {
                if round < spec.window {
                    let at = round + delay.max(1);
                    let fresh = eng.add_node_at(make(offered), at);
                    debug_assert_eq!(fresh.0, arrivals.len());
                    arrivals.push(at);
                    offered += 1;
                }
            }
        }
        sink.delivered.clear();

        let backlog = eng.live_len() as u64;
        backlog_peak = backlog_peak.max(backlog);
        backlog_sum += backlog;
    };

    // Final ledger scan — the only O(total arrivals) pass in the driver.
    let mut dropped = 0u64;
    let mut backlog_final = 0u64;
    for idx in 0..arrivals.len() {
        match eng.slot_state(NodeId(idx)) {
            SlotState::Crashed => dropped += 1,
            SlotState::Live | SlotState::Pending => backlog_final += 1,
            SlotState::Terminated => {}
        }
    }

    Ok(TrafficReport {
        offered,
        delivered,
        dropped,
        backlog_final,
        backlog_peak,
        backlog_sum,
        rounds: eng.current_round(),
        stop,
        latency,
        deliveries,
    })
}

// ---------------------------------------------------------------------------
// Reference workload protocols.
//
// Traffic needs *persistent* senders: a packet contends until the engine
// retires it on delivery (the protocol itself never terminates — under
// weak CD a transmitter cannot even tell it succeeded). These two are the
// canonical pair every traffic experiment, bench, and test uses; paper
// protocols from the `contention` crate are one-shot election stacks and
// do not fit the continuous regime.
// ---------------------------------------------------------------------------

/// p-persistent slotted ALOHA: each round, transmit on the primary channel
/// with probability `p`, otherwise listen. The memoryless baseline — its
/// delivered throughput caps near `λ·e^{-λ}` and it ignores collision
/// detection entirely, which is exactly what makes it the control arm of
/// the CD-mode comparisons.
#[derive(Debug, Clone)]
pub struct SlottedAloha {
    packet: u64,
    p: f64,
}

impl SlottedAloha {
    /// A sender for `packet` transmitting with probability `p` per round.
    #[must_use]
    pub fn new(p: f64, packet: u64) -> Self {
        SlottedAloha { packet, p }
    }
}

impl Protocol for SlottedAloha {
    type Msg = u64;

    fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u64> {
        if rng.gen_bool(self.p) {
            Action::transmit(ChannelId::PRIMARY, self.packet)
        } else {
            Action::listen(ChannelId::PRIMARY)
        }
    }

    fn observe(&mut self, _ctx: &RoundContext, _feedback: Feedback<u64>, _rng: &mut SmallRng) {}

    fn status(&self) -> Status {
        // Never self-terminates: the engine retires the slot on delivery.
        Status::Active
    }

    fn phase(&self) -> &'static str {
        "aloha"
    }
}

/// Collision-detection-aware binary exponential backoff.
///
/// Transmits when its backoff timer hits zero, listening to the primary
/// channel otherwise, and adapts its contention window `cw` to what it
/// hears:
///
/// * own transmission heard as a collision → double `cw`, redraw timer;
/// * own transmission blind (weak CD) → assume the worst, same doubling
///   (a success would have retired the node anyway);
/// * listening and hearing **silence** → the channel is under-used, halve
///   `cw`;
/// * listening and hearing a collision → others are fighting, double `cw`.
///
/// Under [`CdMode::None`](crate::CdMode::None) collisions are heard as
/// silence, so congested listeners *shrink* their windows — the
/// throughput collapse that comparison is designed to show.
#[derive(Debug, Clone)]
pub struct BackoffMac {
    packet: u64,
    cw: u64,
    cw_min: u64,
    cw_max: u64,
    timer: u64,
    transmitted: bool,
}

impl BackoffMac {
    /// A sender for `packet` with contention window bounds
    /// `[cw_min, cw_max]` (both clamped to ≥ 1).
    #[must_use]
    pub fn new(cw_min: u64, cw_max: u64, packet: u64) -> Self {
        let cw_min = cw_min.max(1);
        let cw_max = cw_max.max(cw_min);
        BackoffMac {
            packet,
            cw: cw_min,
            cw_min,
            cw_max,
            timer: 0,
            transmitted: false,
        }
    }

    #[inline]
    fn redraw(&mut self, rng: &mut SmallRng) {
        self.timer = rng.gen_range(0..self.cw);
    }
}

impl Protocol for BackoffMac {
    type Msg = u64;

    #[inline]
    fn on_wake(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) {
        self.redraw(rng);
    }

    #[inline]
    fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u64> {
        let _ = rng;
        if self.timer == 0 {
            self.transmitted = true;
            Action::transmit(ChannelId::PRIMARY, self.packet)
        } else {
            self.timer -= 1;
            self.transmitted = false;
            Action::listen(ChannelId::PRIMARY)
        }
    }

    #[inline]
    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u64>, rng: &mut SmallRng) {
        if self.transmitted {
            match feedback {
                // Alone on the channel: delivered; the engine retires us.
                Feedback::Message(_) => {}
                // Collided — or blind, which we must treat the same.
                _ => {
                    self.cw = (self.cw * 2).min(self.cw_max);
                    self.redraw(rng);
                }
            }
        } else {
            match feedback {
                Feedback::Silence => {
                    self.cw = (self.cw / 2).max(self.cw_min);
                    self.timer = self.timer.min(self.cw.saturating_sub(1));
                }
                Feedback::Collision => {
                    self.cw = (self.cw * 2).min(self.cw_max);
                }
                _ => {}
            }
        }
    }

    #[inline]
    fn status(&self) -> Status {
        Status::Active
    }

    #[inline]
    fn phase(&self) -> &'static str {
        "backoff"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CdMode;
    use crate::fault::{CrashStop, Layered};

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::new(4).seed(seed).max_rounds(500_000)
    }

    #[test]
    fn arrival_stream_is_deterministic() {
        let drain = |mut s: ArrivalStream| {
            let mut out = Vec::new();
            while let Some(batch) = s.next_batch() {
                out.push(batch);
            }
            out
        };
        let p = ArrivalProcess::Poisson { rate: 0.7 };
        let a = drain(ArrivalStream::new(p, 200, 42));
        let b = drain(ArrivalStream::new(p, 200, 42));
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "rounds increase");
        let c = drain(ArrivalStream::new(p, 200, 43));
        assert_ne!(a, c, "different seeds, different schedules");
    }

    #[test]
    #[should_panic(expected = "Poisson rate must be finite")]
    fn nan_poisson_rate_is_rejected() {
        let _ = ArrivalStream::new(ArrivalProcess::Poisson { rate: f64::NAN }, 10, 1);
    }

    #[test]
    #[should_panic(expected = "Bursty burst_rate must be finite")]
    fn nan_burst_rate_is_rejected() {
        let process = ArrivalProcess::Bursty {
            burst_rate: f64::NAN,
            on_to_off: 0.1,
            off_to_on: 0.1,
        };
        let _ = ArrivalStream::new(process, 10, 1);
    }

    #[test]
    fn fixed_rate_schedule_is_exact() {
        let mut s = ArrivalStream::new(
            ArrivalProcess::FixedRate {
                period: 10,
                batch: 2,
            },
            35,
            7,
        );
        let mut got = Vec::new();
        while let Some(batch) = s.next_batch() {
            got.push(batch);
        }
        assert_eq!(got, vec![(0, 2), (10, 2), (20, 2), (30, 2)]);
    }

    #[test]
    fn batch_process_repeats_when_periodic() {
        let mut s = ArrivalStream::new(
            ArrivalProcess::Batch {
                at: 5,
                size: 8,
                period: Some(20),
            },
            50,
            7,
        );
        assert_eq!(s.next_batch(), Some((5, 8)));
        assert_eq!(s.next_batch(), Some((25, 8)));
        assert_eq!(s.next_batch(), Some((45, 8)));
        assert_eq!(s.next_batch(), None);
    }

    #[test]
    fn drains_backlog_and_delivers_everything() {
        let spec = TrafficSpec::new(
            ArrivalProcess::FixedRate {
                period: 8,
                batch: 1,
            },
            64,
        );
        let report = run_traffic(cfg(1), CdMode::Strong, &spec, |pkt| {
            BackoffMac::new(2, 64, pkt)
        })
        .expect("traffic run");
        assert_eq!(report.stop, StopCause::Drained);
        assert_eq!(report.offered, 8);
        assert_eq!(report.delivered, 8, "light fixed load fully delivered");
        assert_eq!(report.dropped, 0);
        assert_eq!(report.backlog_final, 0);
        assert_eq!(report.latency.count(), 8);
        assert_eq!(report.deliveries.len(), 8);
        assert!(report.first_delivery().is_some());
    }

    #[test]
    fn horizon_stops_an_overloaded_run() {
        let spec = TrafficSpec::new(ArrivalProcess::Poisson { rate: 2.0 }, 1_000).horizon(300);
        let report = run_traffic(cfg(2), CdMode::Strong, &spec, |pkt| {
            SlottedAloha::new(0.2, pkt)
        })
        .expect("traffic run");
        assert_eq!(report.stop, StopCause::Horizon);
        assert_eq!(report.rounds, 300);
        assert!(report.backlog_final > 0, "overload leaves a queue");
        assert!(report.throughput() <= 1.0, "one channel, ≤ 1 packet/round");
        assert_eq!(
            report.offered,
            report.delivered + report.dropped + report.backlog_final
        );
    }

    #[test]
    fn round_budget_trips_horizonless_runs_cleanly() {
        // Zero transmit probability: nothing ever delivers, the backlog
        // never drains — the budget must convert that into a structured
        // stop, not a wedge or an error.
        let spec = TrafficSpec::new(
            ArrivalProcess::FixedRate {
                period: 1,
                batch: 1,
            },
            50,
        );
        let report = run_traffic(cfg(3).round_budget(200), CdMode::Strong, &spec, |pkt| {
            SlottedAloha::new(0.0, pkt)
        })
        .expect("budget trip is not an error");
        assert_eq!(report.stop, StopCause::BudgetExhausted);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.backlog_final, 50);
    }

    #[test]
    fn rearm_keeps_sources_saturated() {
        let spec = TrafficSpec::new(
            ArrivalProcess::Batch {
                at: 0,
                size: 3,
                period: None,
            },
            100,
        )
        .rearm(1)
        .horizon(100);
        let report = run_traffic(cfg(4), CdMode::Strong, &spec, |pkt| {
            BackoffMac::new(2, 32, pkt)
        })
        .expect("traffic run");
        assert!(
            report.offered > 3,
            "deliveries inside the window re-arm fresh packets (offered {})",
            report.offered
        );
        assert_eq!(report.stop, StopCause::Horizon);
    }

    #[test]
    fn crashed_packets_count_as_dropped_and_do_not_wedge_the_drain() {
        let spec = TrafficSpec::new(
            ArrivalProcess::Batch {
                at: 0,
                size: 6,
                period: None,
            },
            1,
        );
        let report = run_traffic(
            cfg(5),
            Layered::new(CrashStop::random(3, 6, 40), CdMode::Strong),
            &spec,
            |pkt| BackoffMac::new(2, 64, pkt),
        )
        .expect("traffic run");
        assert_eq!(
            report.stop,
            StopCause::Drained,
            "crashes never block the drain"
        );
        assert_eq!(report.offered, 6);
        assert_eq!(report.offered, report.delivered + report.dropped);
        assert!(report.dropped > 0, "seeded crash schedule kills someone");
    }

    #[test]
    fn arrival_gaps_idle_forward_instead_of_latching() {
        // One packet at round 0, one at round 400: the engine must idle
        // across the gap (un-latching its stop condition on injection)
        // and deliver both.
        let spec = TrafficSpec::new(
            ArrivalProcess::Batch {
                at: 0,
                size: 1,
                period: Some(400),
            },
            401,
        );
        let report = run_traffic(cfg(6), CdMode::Strong, &spec, |pkt| {
            BackoffMac::new(2, 8, pkt)
        })
        .expect("traffic run");
        assert_eq!(report.offered, 2);
        assert_eq!(report.delivered, 2);
        assert!(report.rounds > 400);
        assert_eq!(report.stop, StopCause::Drained);
    }

    #[test]
    fn empty_stream_is_an_empty_report() {
        let spec = TrafficSpec::new(ArrivalProcess::Poisson { rate: 0.0 }, 100);
        let report = run_traffic(cfg(7), CdMode::Strong, &spec, |pkt| {
            SlottedAloha::new(0.5, pkt)
        })
        .expect("traffic run");
        assert_eq!(report.offered, 0);
        assert_eq!(report.rounds, 0);
        assert_eq!(report.stop, StopCause::Drained);
    }

    #[test]
    fn dense_reference_matches_on_a_smoke_workload() {
        let spec = TrafficSpec::new(ArrivalProcess::Poisson { rate: 0.4 }, 150).horizon(600);
        let active = run_traffic(cfg(8), CdMode::ReceiverOnly, &spec, |pkt| {
            BackoffMac::new(2, 64, pkt)
        })
        .expect("active run");
        let dense = run_traffic_dense(cfg(8), CdMode::ReceiverOnly, &spec, |pkt| {
            BackoffMac::new(2, 64, pkt)
        })
        .expect("dense run");
        assert_eq!(active, dense);
        assert!(active.delivered > 0);
    }

    #[test]
    fn latency_histogram_matches_delivery_ledger() {
        let spec = TrafficSpec::new(ArrivalProcess::Poisson { rate: 0.3 }, 200);
        let report = run_traffic(cfg(9), CdMode::Strong, &spec, |pkt| {
            BackoffMac::new(2, 64, pkt)
        })
        .expect("traffic run");
        assert_eq!(report.latency.count(), report.delivered);
        assert!(report.latency_quantile(0.5) <= report.latency_quantile(0.99));
        assert!(
            report.latency.min() >= 1,
            "latency counts the delivery round"
        );
    }
}
