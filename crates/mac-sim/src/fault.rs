//! Composable fault injection: seeded, deterministic fault models layered
//! over any inner [`FeedbackModel`].
//!
//! The paper's model is fault-free — strong collision detection never lies,
//! messages are never lost, and nodes never die. The related literature
//! shows those are exactly the fragile assumptions (arXiv:2111.06650 studies
//! resolution under adversarial jamming; arXiv:2408.11275 studies graceful
//! degradation under imperfect collision feedback), so this module provides
//! the knobs to *measure* where the paper's algorithms break:
//!
//! * [`NoisyCd`] — collision ↔ silence flips with per-direction
//!   probabilities (false-positive and missed collision detection);
//! * [`LossyChannel`] — per-channel message erasure: a lone transmission is
//!   heard as silence by everyone, including its own sender;
//! * [`CrashStop`] — an adversary crashes up to `f` nodes at scheduled
//!   rounds, or reactively assassinates the current lone primary-channel
//!   transmitter mid-protocol;
//! * [`JamBudget`] — a primary-channel jammer: either *reactive*, with a
//!   finite energy budget that it spends only on rounds that would
//!   otherwise solve the problem (the strongest strategy per
//!   jamming-resistance energy arguments), or a *flood* that jams every
//!   round.
//!
//! The first three are [`FaultLayer`]s, stacked over any inner model with
//! the [`Layered`] combinator ([`JamBudget`] is a full [`FeedbackModel`]
//! and can serve as the *inner* of a stack):
//!
//! ```
//! use mac_sim::fault::{Layered, LossyChannel, NoisyCd};
//! use mac_sim::{CdMode, Engine, SimConfig};
//! # use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
//! # use rand::rngs::SmallRng;
//! # struct Beacon;
//! # impl Protocol for Beacon {
//! #     type Msg = u8;
//! #     fn act(&mut self, _: &RoundContext, _: &mut SmallRng) -> Action<u8> {
//! #         Action::transmit(ChannelId::PRIMARY, 1)
//! #     }
//! #     fn observe(&mut self, _: &RoundContext, _: Feedback<u8>, _: &mut SmallRng) {}
//! #     fn status(&self) -> Status { Status::Active }
//! # }
//!
//! // 1% CD noise over a 2% lossy channel over strong CD.
//! let radio = Layered::new(
//!     NoisyCd::symmetric(0.01),
//!     Layered::new(LossyChannel::new(0.02), CdMode::Strong),
//! );
//! let mut engine = Engine::with_feedback(
//!     SimConfig::new(4).seed(7).round_budget(1_000),
//!     radio,
//! );
//! engine.add_node(Beacon);
//! let report = engine.run().expect("a lone beacon survives light faults");
//! assert!(report.is_solved());
//! ```
//!
//! **Determinism.** Every fault model derives its RNG stream from the
//! configuration's master seed at [`FeedbackModel::bind`] time (via
//! [`crate::derive_fault_seed`], on streams disjoint from the per-node
//! streams), and draws in the engine's deterministic delivery order — so
//! runs are bit-identical across repetitions of the same seed and invariant
//! under [`crate::trials`] thread counts. Fault injection is
//! pay-for-what-you-use: a plain [`CdMode`] engine executes the exact
//! pre-fault hot loop (the identity hooks compile away), which the golden
//! oracle in `tests/engine_oracle.rs` pins.

use rand::distributions::{Bernoulli, Distribution};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::action::{Action, Feedback};
use crate::channel::ChannelId;
use crate::config::{CdMode, SimConfig};
use crate::engine::NodeId;
use crate::feedback::{ChannelState, FeedbackModel};
use crate::rng::derive_fault_seed;

/// One fault transformation, stacked over an inner [`FeedbackModel`] with
/// [`Layered`].
///
/// A layer sees the round from both sides: [`filter_action`] runs *before*
/// channel resolution and may alter physical truth (crash-stop silences a
/// node for real), while [`transform`] runs *after* the inner model has
/// delivered and may corrupt only what is heard (noise, erasure).
/// [`allows_solve`] vetoes solve rounds the layer disturbed — the engine's
/// guarantee that a fault can delay a solve but never fabricate one.
///
/// All hooks default to the identity, so a layer implements only the side
/// it needs.
///
/// [`filter_action`]: FaultLayer::filter_action
/// [`transform`]: FaultLayer::transform
/// [`allows_solve`]: FaultLayer::allows_solve
pub trait FaultLayer {
    /// Derives seeded state from the configuration (RNG streams, per-channel
    /// scratch). Called once by [`Layered`]'s [`FeedbackModel::bind`].
    fn bind(&mut self, config: &SimConfig) {
        let _ = config;
    }

    /// Announces each round before any node acts.
    fn begin_round(&mut self, round: u64) {
        let _ = round;
    }

    /// Rewrites a node's action before channel resolution (physical faults).
    fn filter_action<M: Clone>(&mut self, node: NodeId, action: Action<M>) -> Action<M> {
        let _ = node;
        action
    }

    /// Corrupts what the inner model delivered (observational faults).
    fn transform<M: Clone>(
        &mut self,
        action: &Action<M>,
        heard: Feedback<M>,
        state: &ChannelState<'_, M>,
    ) -> Feedback<M> {
        let _ = (action, state);
        heard
    }

    /// Whether a physically lone primary-channel transmission by `solver`
    /// survives this layer's faults. Consulted only when the inner model
    /// already allowed the solve.
    fn allows_solve(&mut self, solver: NodeId) -> bool {
        let _ = solver;
        true
    }

    /// Reports nodes this layer has permanently crashed since the last
    /// call (see [`FeedbackModel::drain_crashed`]); the engine retires the
    /// announced slots out of its live set. Defaults to a no-op.
    fn drain_crashed(&mut self, out: &mut Vec<NodeId>) {
        let _ = out;
    }
}

/// Stacks a [`FaultLayer`] over an inner [`FeedbackModel`], itself a
/// [`FeedbackModel`] — so layers compose statically:
/// `Layered<NoisyCd, Layered<CrashStop, CdMode>>` dispatches with zero
/// runtime indirection.
#[derive(Debug, Clone)]
pub struct Layered<L, F> {
    layer: L,
    inner: F,
}

impl<L: FaultLayer, F: FeedbackModel> Layered<L, F> {
    /// Stacks `layer` over `inner`.
    #[must_use]
    pub fn new(layer: L, inner: F) -> Self {
        Layered { layer, inner }
    }

    /// The fault layer, e.g. for post-run adversary inspection.
    #[must_use]
    pub fn layer(&self) -> &L {
        &self.layer
    }

    /// The inner feedback model.
    #[must_use]
    pub fn inner(&self) -> &F {
        &self.inner
    }
}

impl<L: FaultLayer, F: FeedbackModel> FeedbackModel for Layered<L, F> {
    fn bind(&mut self, config: &SimConfig) {
        self.inner.bind(config);
        self.layer.bind(config);
    }

    #[inline]
    fn begin_round(&mut self, round: u64) {
        self.inner.begin_round(round);
        self.layer.begin_round(round);
    }

    #[inline]
    fn filter_action<M: Clone>(&mut self, node: NodeId, action: Action<M>) -> Action<M> {
        let action = self.inner.filter_action(node, action);
        self.layer.filter_action(node, action)
    }

    #[inline]
    fn allows_solve(&mut self, solver: NodeId) -> bool {
        self.inner.allows_solve(solver) && self.layer.allows_solve(solver)
    }

    #[inline]
    fn drain_crashed(&mut self, out: &mut Vec<NodeId>) {
        self.inner.drain_crashed(out);
        self.layer.drain_crashed(out);
    }

    #[inline]
    fn deliver<M: Clone>(
        &mut self,
        action: &Action<M>,
        state: &ChannelState<'_, M>,
    ) -> Feedback<M> {
        let heard = self.inner.deliver(action, state);
        self.layer.transform(action, heard, state)
    }
}

/// Imperfect collision detection: each delivered `Collision` is missed
/// (heard as `Silence`) with probability `p_miss`, and each delivered
/// `Silence` triggers a false positive (heard as `Collision`) with
/// probability `p_false`, independently per participant per round.
///
/// This models energy-detection hardware near its sensitivity floor — the
/// imperfect-feedback regime of arXiv:2408.11275. Messages are never
/// corrupted (see [`LossyChannel`] for erasure), and physical truth is
/// untouched: a lone primary transmission still solves the problem even if
/// some listener hallucinated a collision.
#[derive(Debug, Clone)]
pub struct NoisyCd {
    p_false: f64,
    p_miss: f64,
    /// Draws at `p_false` and `p_miss`, built once at construction.
    false_draw: Bernoulli,
    miss_draw: Bernoulli,
    rng: SmallRng,
    flips: u64,
}

impl NoisyCd {
    /// RNG stream id, for [`crate::derive_fault_seed`].
    pub const STREAM: u64 = 1;

    /// Flips silence→collision with `p_false` and collision→silence with
    /// `p_miss`.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(p_false: f64, p_miss: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_false) && (0.0..=1.0).contains(&p_miss),
            "probabilities must lie in [0, 1]"
        );
        NoisyCd {
            p_false,
            p_miss,
            false_draw: Bernoulli::new(p_false).expect("checked above"),
            miss_draw: Bernoulli::new(p_miss).expect("checked above"),
            rng: SmallRng::seed_from_u64(0),
            flips: 0,
        }
    }

    /// Equal flip probability `p` in both directions.
    #[must_use]
    pub fn symmetric(p: f64) -> Self {
        NoisyCd::new(p, p)
    }

    /// Feedback flips actually injected so far (both directions). Plain
    /// counting — no extra RNG draws — so reading it never perturbs the
    /// fault stream.
    #[must_use]
    pub fn flips(&self) -> u64 {
        self.flips
    }
}

impl FaultLayer for NoisyCd {
    fn bind(&mut self, config: &SimConfig) {
        self.rng = SmallRng::seed_from_u64(derive_fault_seed(config.master_seed, Self::STREAM));
    }

    fn transform<M: Clone>(
        &mut self,
        _action: &Action<M>,
        heard: Feedback<M>,
        _state: &ChannelState<'_, M>,
    ) -> Feedback<M> {
        match heard {
            Feedback::Collision if self.p_miss > 0.0 && self.miss_draw.sample(&mut self.rng) => {
                self.flips += 1;
                Feedback::Silence
            }
            Feedback::Silence if self.p_false > 0.0 && self.false_draw.sample(&mut self.rng) => {
                self.flips += 1;
                Feedback::Collision
            }
            other => other,
        }
    }
}

/// Per-channel message erasure: each round, each channel independently
/// drops its frame with probability `p_erase`. On an erased channel a lone
/// transmission is heard as silence by *everyone* — including the sender,
/// whose own-echo confirmation (the capability the paper's renaming steps
/// lean on) silently vanishes. Collisions still sound like collisions
/// (noise is noise), and an erased lone primary transmission does not count
/// as a solve: the frame never arrived.
#[derive(Debug, Clone)]
pub struct LossyChannel {
    p_erase: f64,
    /// Draws at `p_erase`, built once at construction.
    erase_draw: Bernoulli,
    erased: Vec<bool>,
    rng: SmallRng,
    erasures: u64,
}

impl LossyChannel {
    /// RNG stream id, for [`crate::derive_fault_seed`].
    pub const STREAM: u64 = 2;

    /// Erases each channel's frame with probability `p_erase` per round.
    ///
    /// # Panics
    ///
    /// Panics if `p_erase` is outside `[0, 1]`.
    #[must_use]
    pub fn new(p_erase: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_erase),
            "probability must lie in [0, 1]"
        );
        LossyChannel {
            p_erase,
            erase_draw: Bernoulli::new(p_erase).expect("checked above"),
            erased: Vec::new(),
            rng: SmallRng::seed_from_u64(0),
            erasures: 0,
        }
    }

    /// Whether `channel` is erased in the current round.
    #[must_use]
    pub fn erased(&self, channel: ChannelId) -> bool {
        self.erased.get(channel.index()).copied().unwrap_or(false)
    }

    /// Message deliveries actually suppressed so far (one per listener
    /// per erased frame). Plain counting — no extra RNG draws — so
    /// reading it never perturbs the fault stream.
    #[must_use]
    pub fn erasures(&self) -> u64 {
        self.erasures
    }
}

impl FaultLayer for LossyChannel {
    fn bind(&mut self, config: &SimConfig) {
        self.erased = vec![false; config.channels as usize];
        self.rng = SmallRng::seed_from_u64(derive_fault_seed(config.master_seed, Self::STREAM));
    }

    fn begin_round(&mut self, _round: u64) {
        for e in &mut self.erased {
            *e = self.p_erase > 0.0 && self.erase_draw.sample(&mut self.rng);
        }
    }

    fn transform<M: Clone>(
        &mut self,
        action: &Action<M>,
        heard: Feedback<M>,
        _state: &ChannelState<'_, M>,
    ) -> Feedback<M> {
        match (action.channel(), heard) {
            (Some(channel), Feedback::Message(_)) if self.erased(channel) => {
                self.erasures += 1;
                Feedback::Silence
            }
            (_, heard) => heard,
        }
    }

    fn allows_solve(&mut self, _solver: NodeId) -> bool {
        !self.erased(ChannelId::PRIMARY)
    }
}

/// Crash-stop faults: the adversary permanently silences up to `f` nodes.
///
/// Crashes alter *physical* truth: victims are announced to the engine via
/// [`FaultLayer::drain_crashed`], which retires their slots from the live
/// set — from its crash round on a node acts no more, so it stops
/// contributing to collisions, cannot be the elected lone transmitter (the
/// solve-validity rail holds by construction), and hears nothing. The
/// protocol object itself is not informed — a crashed node's slot is
/// [`SlotState::Crashed`](crate::SlotState::Crashed) with its status
/// frozen at `Active`, which is exactly why fault sweeps arm
/// [`SimConfig::round_budget`]. (An assassin kill lands mid-round: the
/// frame is cut via [`FaultLayer::transform`] in the kill round, and the
/// slot retires at the start of the next round.)
///
/// Three adversary strategies, combinable:
///
/// * [`CrashStop::schedule`] — explicit `(node, round)` pairs;
/// * [`CrashStop::random`] — `f` distinct victims at seeded uniform rounds;
/// * [`CrashStop::assassin`] — the strongest: reactively kills the current
///   lone primary-channel transmitter *mid-transmission* (the frame is cut,
///   everyone on the channel hears silence, the solve is vetoed), up to `f`
///   times.
#[derive(Debug, Clone, Default)]
pub struct CrashStop {
    schedule: Vec<(NodeId, u64)>,
    random: Option<(usize, usize, u64)>,
    kills_remaining: u64,
    crashed: std::collections::HashSet<usize>,
    fresh_kill: Option<NodeId>,
    /// Victims crashed since the last [`FaultLayer::drain_crashed`] call,
    /// in crash order.
    newly: Vec<NodeId>,
}

impl CrashStop {
    /// RNG stream id, for [`crate::derive_fault_seed`].
    pub const STREAM: u64 = 3;

    /// Crashes each listed node at the start of its listed round (round 0
    /// means dead on arrival).
    #[must_use]
    pub fn schedule(schedule: Vec<(NodeId, u64)>) -> Self {
        CrashStop {
            schedule,
            ..CrashStop::default()
        }
    }

    /// Crashes `f` distinct victims among node ids `0..nodes`, each at a
    /// seeded uniform round in `0..window`, drawn at bind time from the
    /// configuration's master seed.
    ///
    /// # Panics
    ///
    /// Panics if `f > nodes` or `window == 0`.
    #[must_use]
    pub fn random(f: usize, nodes: usize, window: u64) -> Self {
        assert!(f <= nodes, "cannot crash {f} of {nodes} nodes");
        assert!(window >= 1, "crash window must be positive");
        CrashStop {
            random: Some((f, nodes, window)),
            ..CrashStop::default()
        }
    }

    /// Reactively assassinates up to `kills` lone primary-channel
    /// transmitters at the moment they would have solved the problem.
    #[must_use]
    pub fn assassin(kills: u64) -> Self {
        CrashStop {
            kills_remaining: kills,
            ..CrashStop::default()
        }
    }

    /// Adds assassin behavior on top of a scheduled/random adversary.
    #[must_use]
    pub fn with_assassin(mut self, kills: u64) -> Self {
        self.kills_remaining = kills;
        self
    }

    /// Whether `node` has crashed (as of the current round).
    #[must_use]
    pub fn crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node.0)
    }

    /// Number of nodes crashed so far.
    #[must_use]
    pub fn crash_count(&self) -> usize {
        self.crashed.len()
    }
}

impl FaultLayer for CrashStop {
    fn bind(&mut self, config: &SimConfig) {
        if let Some((f, nodes, window)) = self.random {
            let mut rng =
                SmallRng::seed_from_u64(derive_fault_seed(config.master_seed, Self::STREAM));
            // f distinct victims by rejection (f ≤ nodes, so this halts).
            let mut victims = std::collections::HashSet::new();
            while victims.len() < f {
                victims.insert(rng.gen_range(0..nodes));
            }
            let mut victims: Vec<usize> = victims.into_iter().collect();
            victims.sort_unstable();
            for v in victims {
                let round = rng.gen_range(0..window);
                self.schedule.push((NodeId(v), round));
            }
        }
    }

    fn begin_round(&mut self, round: u64) {
        self.fresh_kill = None;
        for &(node, r) in &self.schedule {
            if r <= round && self.crashed.insert(node.0) {
                self.newly.push(node);
            }
        }
    }

    fn drain_crashed(&mut self, out: &mut Vec<NodeId>) {
        out.append(&mut self.newly);
    }

    fn filter_action<M: Clone>(&mut self, node: NodeId, action: Action<M>) -> Action<M> {
        // Retirement already keeps crashed nodes out of the round loop;
        // this filter is defense in depth for actions reaching a stack in
        // unusual orders (e.g. a layer *above* that fabricates actions).
        if self.crashed.contains(&node.0) {
            Action::Sleep
        } else {
            action
        }
    }

    fn transform<M: Clone>(
        &mut self,
        action: &Action<M>,
        heard: Feedback<M>,
        state: &ChannelState<'_, M>,
    ) -> Feedback<M> {
        // A node assassinated mid-transmission this round: its frame was
        // cut, so the channel it occupied alone sounds silent to everyone.
        if let (Some(killed), Some(channel)) = (self.fresh_kill, action.channel()) {
            if state.lone_transmitter(channel) == Some(killed)
                && matches!(heard, Feedback::Message(_))
            {
                return Feedback::Silence;
            }
        }
        heard
    }

    fn allows_solve(&mut self, solver: NodeId) -> bool {
        // Solve-validity rail: a crashed node cannot be elected. With
        // `filter_action` silencing crashed nodes before resolution this
        // cannot trigger, but it is kept as defense in depth for layers
        // stacked in unusual orders.
        if self.crashed.contains(&solver.0) {
            return false;
        }
        if self.kills_remaining > 0 {
            self.kills_remaining -= 1;
            self.crashed.insert(solver.0);
            self.fresh_kill = Some(solver);
            // The kill takes physical effect *this* round (the frame is
            // cut in `transform`), so the slot retires at the next
            // `drain_crashed` — the start of the following round.
            self.newly.push(solver);
            return false;
        }
        true
    }
}

/// A jammer on the primary channel, on top of a base [`CdMode`].
///
/// [`JamBudget::new`] builds a *reactive* jammer with a finite energy
/// budget, which it spends optimally: it jams exactly the rounds where a
/// lone primary transmission would otherwise solve the problem, and stays
/// silent the rest of the time. Per the standard energy argument, a budget
/// of `B` therefore delays the solve by exactly `B` would-be-solving
/// rounds — the strongest disruption any `B`-bounded jammer can buy.
/// [`JamBudget::flood`] builds a jammer that floods the primary channel in
/// every round and so vetoes every solve.
///
/// In a jammed round every primary-channel participant hears what a
/// collision sounds like under the base [`CdMode`] (the jam collided with
/// whatever, if anything, was transmitted):
///
/// * [`CdMode::Strong`] — everyone hears [`Feedback::Collision`];
/// * [`CdMode::ReceiverOnly`] — listeners hear a collision, transmitters
///   stay blind;
/// * [`CdMode::None`] — listeners hear silence (they cannot distinguish
///   the jam from background), transmitters stay blind.
///
/// `JamBudget` is a complete [`FeedbackModel`], so it can serve as the
/// inner model of a [`Layered`] fault stack.
#[derive(Debug, Clone)]
pub struct JamBudget {
    base: CdMode,
    budget: u64,
    spent: u64,
    flood: bool,
    jamming_now: bool,
}

impl JamBudget {
    /// A reactive jammer that can afford to disrupt `budget`
    /// would-be-solving rounds, on top of the `base` collision-detection
    /// mode.
    #[must_use]
    pub fn new(base: CdMode, budget: u64) -> Self {
        JamBudget {
            base,
            budget,
            spent: 0,
            flood: false,
            jamming_now: false,
        }
    }

    /// A jammer that floods the primary channel in every round, on top of
    /// the `base` collision-detection mode: no run under it ever solves.
    #[must_use]
    pub fn flood(base: CdMode) -> Self {
        JamBudget {
            flood: true,
            ..JamBudget::new(base, u64::MAX)
        }
    }

    /// Energy spent so far (jammed rounds).
    #[must_use]
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Energy remaining.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.budget - self.spent
    }

    /// Whether the current round is being jammed.
    #[must_use]
    pub fn jamming(&self) -> bool {
        self.jamming_now
    }

    /// Spends one unit of energy if any is left; returns whether it did.
    fn try_spend(&mut self) -> bool {
        let can = self.spent < self.budget;
        if can {
            self.spent += 1;
        }
        can
    }
}

impl FeedbackModel for JamBudget {
    fn begin_round(&mut self, _round: u64) {
        self.jamming_now = self.flood && self.try_spend();
    }

    fn allows_solve(&mut self, _solver: NodeId) -> bool {
        // Called exactly when a lone primary transmission would solve the
        // problem — the only rounds a reactive jammer spends energy on.
        if !self.flood {
            self.jamming_now = self.try_spend();
        }
        !self.jamming_now
    }

    fn deliver<M: Clone>(
        &mut self,
        action: &Action<M>,
        state: &ChannelState<'_, M>,
    ) -> Feedback<M> {
        let (channel, transmitted) = match action {
            Action::Transmit { channel, .. } => (*channel, true),
            Action::Listen { channel } => (*channel, false),
            Action::Sleep => return Feedback::Slept,
        };
        if !(self.jamming_now && channel == ChannelId::PRIMARY) {
            return self.base.deliver(action, state);
        }
        match self.base {
            CdMode::Strong => Feedback::Collision,
            CdMode::ReceiverOnly | CdMode::None if transmitted => Feedback::TransmittedBlind,
            CdMode::ReceiverOnly => Feedback::Collision,
            CdMode::None => Feedback::Silence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopWhen;
    use crate::engine::Engine;
    use crate::error::SimError;
    use crate::protocol::{Protocol, RoundContext, Status};

    /// Transmits or listens on a fixed channel every round, recording what
    /// it hears.
    struct Node {
        channel: ChannelId,
        transmits: bool,
        heard: Vec<Feedback<u8>>,
    }

    impl Node {
        fn beacon(channel: ChannelId) -> Self {
            Node {
                channel,
                transmits: true,
                heard: Vec::new(),
            }
        }
        fn ear(channel: ChannelId) -> Self {
            Node {
                channel,
                transmits: false,
                heard: Vec::new(),
            }
        }
    }

    impl Protocol for Node {
        type Msg = u8;
        fn act(&mut self, _: &RoundContext, _: &mut SmallRng) -> Action<u8> {
            if self.transmits {
                Action::transmit(self.channel, 1)
            } else {
                Action::listen(self.channel)
            }
        }
        fn observe(&mut self, _: &RoundContext, fb: Feedback<u8>, _: &mut SmallRng) {
            self.heard.push(fb);
        }
        fn status(&self) -> Status {
            Status::Active
        }
    }

    #[test]
    fn noisy_cd_flips_both_directions_at_p_one() {
        // Certain noise: two colliding transmitters are heard as silence,
        // and an empty channel as a collision.
        let noisy = Layered::new(NoisyCd::new(1.0, 1.0), CdMode::Strong);
        let cfg = SimConfig::new(4).max_rounds(1);
        let mut engine = Engine::with_feedback(cfg, noisy);
        let a = engine.add_node(Node::beacon(ChannelId::new(2)));
        let b = engine.add_node(Node::beacon(ChannelId::new(2)));
        let empty_ear = engine.add_node(Node::ear(ChannelId::new(3)));
        let _ = engine.run();
        assert_eq!(engine.node(a).heard, vec![Feedback::Silence]);
        assert_eq!(engine.node(b).heard, vec![Feedback::Silence]);
        assert_eq!(engine.node(empty_ear).heard, vec![Feedback::Collision]);
    }

    #[test]
    fn noisy_cd_leaves_messages_and_solves_alone() {
        let noisy = Layered::new(NoisyCd::new(1.0, 1.0), CdMode::Strong);
        let mut engine = Engine::with_feedback(SimConfig::new(4).max_rounds(10), noisy);
        let a = engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let report = engine.run().expect("noise cannot veto a physical solve");
        assert_eq!(report.solved_round, Some(0));
        assert_eq!(engine.node(a).heard, vec![Feedback::Message(1)]);
    }

    #[test]
    fn noisy_cd_zero_probability_is_transparent() {
        let noisy = Layered::new(NoisyCd::symmetric(0.0), CdMode::Strong);
        let mut engine = Engine::with_feedback(SimConfig::new(4).seed(9).max_rounds(5), noisy);
        engine.add_node(Node::beacon(ChannelId::new(2)));
        engine.add_node(Node::beacon(ChannelId::new(2)));
        let ear = engine.add_node(Node::ear(ChannelId::new(2)));
        let _ = engine.run();
        assert_eq!(engine.node(ear).heard, vec![Feedback::Collision; 5]);
    }

    #[test]
    fn lossy_channel_erases_lone_messages_for_everyone() {
        // p_erase = 1: every frame is lost — the beacon never hears its own
        // echo, the listener hears silence, and the run cannot solve.
        let lossy = Layered::new(LossyChannel::new(1.0), CdMode::Strong);
        let cfg = SimConfig::new(2).round_budget(20);
        let mut engine = Engine::with_feedback(cfg, lossy);
        let tx = engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let rx = engine.add_node(Node::ear(ChannelId::PRIMARY));
        let err = engine.run().unwrap_err();
        assert!(matches!(
            err,
            SimError::BudgetExhausted { solved: false, .. }
        ));
        assert!(engine.node(tx).heard.iter().all(Feedback::is_silence));
        assert!(engine.node(rx).heard.iter().all(Feedback::is_silence));
        assert!(engine.feedback().layer().erased(ChannelId::PRIMARY));
    }

    #[test]
    fn lossy_channel_keeps_collisions_audible() {
        let lossy = Layered::new(LossyChannel::new(1.0), CdMode::Strong);
        let mut engine = Engine::with_feedback(SimConfig::new(2).max_rounds(1), lossy);
        engine.add_node(Node::beacon(ChannelId::new(2)));
        engine.add_node(Node::beacon(ChannelId::new(2)));
        let ear = engine.add_node(Node::ear(ChannelId::new(2)));
        let _ = engine.run();
        assert_eq!(engine.node(ear).heard, vec![Feedback::Collision]);
    }

    #[test]
    fn scheduled_crash_silences_node_physically() {
        // Two primary transmitters collide forever; crashing one at round 3
        // leaves the other as the lone transmitter — which then solves.
        let crash = Layered::new(CrashStop::schedule(vec![(NodeId(0), 3)]), CdMode::Strong);
        let mut engine = Engine::with_feedback(SimConfig::new(2).max_rounds(10), crash);
        engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let survivor = engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let report = engine.run().expect("survivor solves");
        assert_eq!(report.solved_round, Some(3));
        assert_eq!(report.solver, Some(survivor));
        assert!(engine.feedback().layer().crashed(NodeId(0)));
        assert_eq!(engine.feedback().layer().crash_count(), 1);
    }

    #[test]
    fn dead_on_arrival_node_never_transmits() {
        let crash = Layered::new(CrashStop::schedule(vec![(NodeId(0), 0)]), CdMode::Strong);
        let cfg = SimConfig::new(2)
            .stop_when(StopWhen::AllTerminated)
            .round_budget(5);
        let mut engine = Engine::with_feedback(cfg, crash);
        engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let err = engine.run().unwrap_err();
        assert!(matches!(err, SimError::BudgetExhausted { .. }));
        assert_eq!(engine.report().metrics.transmissions, 0);
        assert_eq!(engine.summary().solved_round, None);
    }

    #[test]
    fn assassin_cuts_the_winning_transmission_mid_flight() {
        // A lone beacon would solve in round 0. The assassin kills it at
        // that moment: the listener hears silence (not the message), the
        // solve is vetoed, and with the beacon dead the run never solves.
        let crash = Layered::new(CrashStop::assassin(1), CdMode::Strong);
        let cfg = SimConfig::new(2).round_budget(10);
        let mut engine = Engine::with_feedback(cfg, crash);
        let beacon = engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let ear = engine.add_node(Node::ear(ChannelId::PRIMARY));
        let err = engine.run().unwrap_err();
        assert!(matches!(
            err,
            SimError::BudgetExhausted { solved: false, .. }
        ));
        assert_eq!(engine.node(ear).heard[0], Feedback::Silence);
        assert!(engine.node(ear).heard.iter().all(Feedback::is_silence));
        assert!(engine.feedback().layer().crashed(beacon));
    }

    #[test]
    fn assassin_budget_limits_the_damage() {
        // Three beacons take turns being lone (the other two collide...);
        // simplest check: two beacons on primary, assassin with 1 kill.
        // They collide until the assassin has nothing to react to; crash
        // node 0 via schedule at round 2, assassin kills the then-lone
        // node 1 at round 2... then nobody is left.
        let crash = Layered::new(
            CrashStop::schedule(vec![(NodeId(0), 2)]).with_assassin(1),
            CdMode::Strong,
        );
        let cfg = SimConfig::new(2).round_budget(10);
        let mut engine = Engine::with_feedback(cfg, crash);
        engine.add_node(Node::beacon(ChannelId::PRIMARY));
        engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let err = engine.run().unwrap_err();
        assert!(matches!(
            err,
            SimError::BudgetExhausted { solved: false, .. }
        ));
        assert_eq!(engine.feedback().layer().crash_count(), 2);
    }

    #[test]
    fn random_crashes_are_seeded_and_bounded() {
        let build = |seed: u64| {
            let crash = Layered::new(CrashStop::random(3, 8, 5), CdMode::Strong);
            let cfg = SimConfig::new(2).seed(seed).round_budget(20);
            let mut engine = Engine::with_feedback(cfg, crash)
                .populated((0..8).map(|_| Node::beacon(ChannelId::new(2))));
            let _ = engine.run();
            let layer = engine.feedback().layer().clone();
            (0..8).map(|i| layer.crashed(NodeId(i))).collect::<Vec<_>>()
        };
        let a = build(1);
        assert_eq!(a, build(1), "crash schedule must be seed-deterministic");
        assert_eq!(a.iter().filter(|&&c| c).count(), 3);
        let other = (2..10).map(build).collect::<Vec<_>>();
        assert!(other.iter().any(|b| *b != a), "seed must matter");
    }

    #[test]
    fn jam_budget_delays_solve_by_exactly_budget() {
        let jam = JamBudget::new(CdMode::Strong, 4);
        let mut engine = Engine::with_feedback(SimConfig::new(2).max_rounds(20), jam);
        engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let ear = engine.add_node(Node::ear(ChannelId::PRIMARY));
        let report = engine.run().expect("solves once the budget is spent");
        // Rounds 0..4 are jammed (each would have solved); round 4 solves.
        assert_eq!(report.solved_round, Some(4));
        assert_eq!(engine.feedback().spent(), 4);
        assert_eq!(engine.feedback().remaining(), 0);
        let heard = &engine.node(ear).heard;
        assert_eq!(heard[..4], vec![Feedback::Collision; 4][..]);
        assert_eq!(heard[4], Feedback::Message(1));
    }

    #[test]
    fn jam_budget_saves_energy_on_collided_rounds() {
        // Two colliding beacons give the jammer nothing to react to.
        let jam = JamBudget::new(CdMode::Strong, 5);
        let mut engine = Engine::with_feedback(SimConfig::new(2).round_budget(10), jam);
        engine.add_node(Node::beacon(ChannelId::PRIMARY));
        engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let _ = engine.run();
        assert_eq!(engine.feedback().spent(), 0);
        assert!(!engine.feedback().jamming());
    }

    /// A lone beacon and a listener on the primary channel under `jammer`,
    /// for two rounds: the solve round, and what each node heard per round.
    fn two_jammed_rounds(jammer: JamBudget) -> (Option<u64>, [[Feedback<u8>; 2]; 2]) {
        let mut engine = Engine::with_feedback(SimConfig::new(2).max_rounds(2), jammer);
        let beacon = engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let ear = engine.add_node(Node::ear(ChannelId::PRIMARY));
        let solved = engine.run().ok().and_then(|report| report.solved_round);
        let heard =
            [beacon, ear].map(|id| [0, 1].map(|round| engine.node(id).heard[round].clone()));
        (solved, heard)
    }

    #[test]
    fn jam_sounds_like_a_collision_per_base_mode() {
        // (base mode, what the lone transmitter hears, what the listener
        // hears) in a jammed round.
        for (mode, beacon, ear) in [
            (CdMode::Strong, Feedback::Collision, Feedback::Collision),
            (
                CdMode::ReceiverOnly,
                Feedback::TransmittedBlind,
                Feedback::Collision,
            ),
            (CdMode::None, Feedback::TransmittedBlind, Feedback::Silence),
        ] {
            // The flood jams round 1 as well; a budget of 1 is spent on
            // round 0, so the lone message comes through in round 1.
            for (jammer, solved, ear_in_round_1) in [
                (JamBudget::flood(mode), None, ear.clone()),
                (JamBudget::new(mode, 1), Some(1), Feedback::Message(1)),
            ] {
                let (solved_round, [beacon_heard, ear_heard]) = two_jammed_rounds(jammer);
                assert_eq!(beacon_heard[0], beacon, "mode {mode:?}");
                assert_eq!(ear_heard[0], ear, "mode {mode:?}");
                assert_eq!(ear_heard[1], ear_in_round_1, "mode {mode:?}");
                assert_eq!(solved_round, solved, "mode {mode:?}");
            }
        }
    }

    #[test]
    fn watchdog_terminates_fully_jammed_primary_channel() {
        // The acceptance-criteria scenario: a primary channel jammed for
        // every round of the run must end in BudgetExhausted, not a hang
        // (and not a bogus Timeout "experiment bug").
        let jam = JamBudget::flood(CdMode::Strong);
        let cfg = SimConfig::new(2).max_rounds(1_000_000).round_budget(300);
        let mut engine = Engine::with_feedback(cfg, jam);
        engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let err = engine.run().unwrap_err();
        assert_eq!(
            err,
            SimError::BudgetExhausted {
                budget: 300,
                solved: false,
            }
        );
        assert_eq!(engine.current_round(), 300);
    }

    #[test]
    fn layers_stack_and_all_fire() {
        // Noise over loss over crash over strong CD: the crashed node is
        // silent, frames are erased, and empties crackle with noise.
        let stack = Layered::new(
            NoisyCd::new(1.0, 0.0),
            Layered::new(
                LossyChannel::new(1.0),
                Layered::new(CrashStop::schedule(vec![(NodeId(0), 0)]), CdMode::Strong),
            ),
        );
        let cfg = SimConfig::new(2).round_budget(3);
        let mut engine = Engine::with_feedback(cfg, stack);
        engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let lone = engine.add_node(Node::beacon(ChannelId::PRIMARY));
        let err = engine.run().unwrap_err();
        assert!(matches!(
            err,
            SimError::BudgetExhausted { solved: false, .. }
        ));
        // Node 1 transmits alone (node 0 crashed) but its echo is erased to
        // silence, which the p_false = 1 noise then flips to a collision.
        assert_eq!(engine.node(lone).heard, vec![Feedback::Collision; 3]);
    }

    #[test]
    #[should_panic(expected = "probabilities must lie in [0, 1]")]
    fn noisy_cd_rejects_bad_probability() {
        let _ = NoisyCd::new(1.5, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot crash")]
    fn random_crash_rejects_oversized_f() {
        let _ = CrashStop::random(9, 8, 5);
    }
}
