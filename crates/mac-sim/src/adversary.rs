//! Activation adversaries: who wakes, and when.
//!
//! The contention-resolution model lets an adversary pick the activated
//! subset `A ⊆ V` and (in the non-simultaneous variant of §3) per-node
//! wake-up rounds. This module provides named generators for both choices,
//! so experiments can state their workload as data
//! (`WakeSchedule::offset_one(40)`) instead of ad-hoc loops.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A wake-up schedule: one start round per node.
///
/// ```
/// use mac_sim::adversary::WakeSchedule;
///
/// let s = WakeSchedule::offset_one(4);
/// assert_eq!(s.offsets(), &[0, 1, 0, 1]);
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.span(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeSchedule {
    offsets: Vec<u64>,
}

impl WakeSchedule {
    /// All `k` nodes wake in round 0 (the paper's base model).
    #[must_use]
    pub fn simultaneous(k: usize) -> Self {
        WakeSchedule {
            offsets: vec![0; k],
        }
    }

    /// Alternating offsets 0/1 — the adversary that defeats a 2-round
    /// listen window (see `contention::wakeup`).
    #[must_use]
    pub fn offset_one(k: usize) -> Self {
        WakeSchedule {
            offsets: (0..k as u64).map(|i| i % 2).collect(),
        }
    }

    /// `waves` equal bursts, `gap` rounds apart.
    ///
    /// # Panics
    ///
    /// Panics if `waves == 0`.
    #[must_use]
    pub fn waves(k: usize, waves: usize, gap: u64) -> Self {
        assert!(waves >= 1, "at least one wave required");
        WakeSchedule {
            offsets: (0..k).map(|i| (i % waves) as u64 * gap).collect(),
        }
    }

    /// A slow ramp: node `i` wakes at round `i·stride mod period`.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    #[must_use]
    pub fn ramp(k: usize, stride: u64, period: u64) -> Self {
        assert!(period >= 1, "period must be positive");
        WakeSchedule {
            offsets: (0..k as u64).map(|i| (i * stride) % period).collect(),
        }
    }

    /// Independent uniform offsets in `0..window`, seeded.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn uniform(k: usize, window: u64, seed: u64) -> Self {
        assert!(window >= 1, "window must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        WakeSchedule {
            offsets: (0..k).map(|_| rng.gen_range(0..window)).collect(),
        }
    }

    /// The per-node offsets, in node-insertion order.
    #[must_use]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Number of nodes in the schedule.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Returns `true` if the schedule covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The latest offset minus the earliest (0 for simultaneous wake-up).
    #[must_use]
    pub fn span(&self) -> u64 {
        let max = self.offsets.iter().max().copied().unwrap_or(0);
        let min = self.offsets.iter().min().copied().unwrap_or(0);
        max - min
    }

    /// Iterates the offsets.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.offsets.iter().copied()
    }
}

/// Which subset of the `n` possible identities is activated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActivationPattern {
    /// Identities `0..k`: dense prefix — packs tree leaves tightly and is
    /// the worst case for cohort-style algorithms (maximal pairing depth).
    DensePrefix {
        /// Number of activated nodes.
        k: usize,
    },
    /// `k` identities sampled uniformly without replacement.
    UniformSubset {
        /// Number of activated nodes.
        k: usize,
        /// Sampling seed.
        seed: u64,
    },
    /// Every `stride`-th identity: a comb. With `stride ≥ 2` no two
    /// activated leaves are tree siblings, which maximizes early cohort
    /// retirement in `LeafElection`.
    Comb {
        /// Number of activated nodes.
        k: usize,
        /// Gap between consecutive activated identities.
        stride: u64,
    },
}

impl ActivationPattern {
    /// Materializes the activated identities for a universe of size `n`,
    /// sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if the pattern does not fit in `0..n` (e.g. `k > n`, or the
    /// comb runs past the universe).
    #[must_use]
    pub fn materialize(&self, n: u64) -> Vec<u64> {
        match *self {
            ActivationPattern::DensePrefix { k } => {
                assert!(k as u64 <= n, "prefix of {k} exceeds universe {n}");
                (0..k as u64).collect()
            }
            ActivationPattern::UniformSubset { k, seed } => {
                assert!(k as u64 <= n, "subset of {k} exceeds universe {n}");
                let mut rng = SmallRng::seed_from_u64(seed);
                // Floyd's algorithm for a sorted distinct sample.
                let mut chosen = std::collections::BTreeSet::new();
                for j in n - k as u64..n {
                    let t = rng.gen_range(0..=j);
                    if !chosen.insert(t) {
                        chosen.insert(j);
                    }
                }
                chosen.into_iter().collect()
            }
            ActivationPattern::Comb { k, stride } => {
                assert!(stride >= 1, "stride must be positive");
                let last = (k as u64 - 1).saturating_mul(stride);
                assert!(last < n, "comb of {k}×{stride} exceeds universe {n}");
                (0..k as u64).map(|i| i * stride).collect()
            }
        }
    }

    /// Number of activated nodes.
    #[must_use]
    pub fn count(&self) -> usize {
        match *self {
            ActivationPattern::DensePrefix { k }
            | ActivationPattern::UniformSubset { k, .. }
            | ActivationPattern::Comb { k, .. } => k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simultaneous_is_all_zero() {
        let s = WakeSchedule::simultaneous(5);
        assert_eq!(s.offsets(), &[0; 5]);
        assert_eq!(s.span(), 0);
        assert!(!s.is_empty());
    }

    #[test]
    fn offset_one_alternates() {
        let s = WakeSchedule::offset_one(5);
        assert_eq!(s.offsets(), &[0, 1, 0, 1, 0]);
        assert_eq!(s.span(), 1);
    }

    #[test]
    fn waves_spread_evenly() {
        let s = WakeSchedule::waves(6, 3, 4);
        assert_eq!(s.offsets(), &[0, 4, 8, 0, 4, 8]);
        assert_eq!(s.span(), 8);
    }

    #[test]
    fn ramp_wraps_at_period() {
        let s = WakeSchedule::ramp(5, 3, 7);
        assert_eq!(s.offsets(), &[0, 3, 6, 2, 5]);
    }

    #[test]
    fn uniform_is_seeded_and_bounded() {
        let a = WakeSchedule::uniform(100, 10, 1);
        let b = WakeSchedule::uniform(100, 10, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|o| o < 10));
        let c = WakeSchedule::uniform(100, 10, 2);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least one wave")]
    fn zero_waves_panics() {
        let _ = WakeSchedule::waves(4, 0, 1);
    }

    #[test]
    fn dense_prefix_materializes() {
        let ids = ActivationPattern::DensePrefix { k: 4 }.materialize(10);
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn uniform_subset_is_distinct_sorted_and_seeded() {
        let p = ActivationPattern::UniformSubset { k: 50, seed: 9 };
        let ids = p.materialize(100);
        assert_eq!(ids.len(), 50);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert!(ids.iter().all(|&x| x < 100));
        assert_eq!(ids, p.materialize(100));
        assert_eq!(p.count(), 50);
    }

    #[test]
    fn full_subset_is_whole_universe() {
        let ids = ActivationPattern::UniformSubset { k: 16, seed: 0 }.materialize(16);
        assert_eq!(ids, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn comb_spaces_identities() {
        let ids = ActivationPattern::Comb { k: 4, stride: 3 }.materialize(10);
        assert_eq!(ids, vec![0, 3, 6, 9]);
    }

    #[test]
    #[should_panic(expected = "exceeds universe")]
    fn comb_overflow_panics() {
        let _ = ActivationPattern::Comb { k: 4, stride: 4 }.materialize(10);
    }

    #[test]
    #[should_panic(expected = "exceeds universe")]
    fn oversized_prefix_panics() {
        let _ = ActivationPattern::DensePrefix { k: 11 }.materialize(10);
    }
}

/// A jamming adversary as a [`FeedbackModel`](crate::FeedbackModel): one channel is flooded with
/// noise for a range of rounds, on top of a base collision-detection mode.
///
/// While jamming is active, every participant on the jammed channel hears
/// what a collision would sound like under the base [`CdMode`](crate::CdMode) — the
/// adversary's noise collides with whatever (if anything) was transmitted:
///
/// * [`CdMode::Strong`](crate::CdMode::Strong) — everyone hears [`Feedback::Collision`](crate::Feedback::Collision);
/// * [`CdMode::ReceiverOnly`](crate::CdMode::ReceiverOnly) — listeners hear a collision, transmitters
///   stay blind;
/// * [`CdMode::None`](crate::CdMode::None) — listeners hear silence (they cannot distinguish the
///   jam from background), transmitters stay blind.
///
/// A lone transmission on a jammed primary channel does not count as a
/// solve ([`FeedbackModel::allows_solve`](crate::FeedbackModel::allows_solve) returns `false` for those rounds):
/// physically, the jam collided with it.
#[derive(Debug, Clone)]
pub struct JammedChannel {
    base: crate::CdMode,
    target: crate::ChannelId,
    from_round: u64,
    until_round: u64,
    jamming_now: bool,
}

impl JammedChannel {
    /// Jams `target` for rounds `from_round..until_round` (0-based,
    /// half-open) on top of the `base` collision-detection mode.
    #[must_use]
    pub fn new(
        base: crate::CdMode,
        target: crate::ChannelId,
        from_round: u64,
        until_round: u64,
    ) -> Self {
        JammedChannel {
            base,
            target,
            from_round,
            until_round,
            jamming_now: false,
        }
    }

    /// The jammed channel.
    #[must_use]
    pub fn target(&self) -> crate::ChannelId {
        self.target
    }

    /// Whether the current round (announced via
    /// [`FeedbackModel::begin_round`](crate::FeedbackModel::begin_round)) is being jammed.
    #[must_use]
    pub fn jamming(&self) -> bool {
        self.jamming_now
    }
}

impl crate::FeedbackModel for JammedChannel {
    fn begin_round(&mut self, round: u64) {
        self.jamming_now = (self.from_round..self.until_round).contains(&round);
    }

    fn deliver<M: Clone>(
        &mut self,
        action: &crate::Action<M>,
        state: &crate::ChannelState<'_, M>,
    ) -> crate::Feedback<M> {
        let jammed = self.jamming_now.then_some(self.target);
        deliver_jammed(self.base, jammed, action, state)
    }

    fn allows_solve(&mut self, _solver: crate::NodeId) -> bool {
        // A jam on the primary channel collides with any lone transmission
        // there. Jams elsewhere don't affect solve detection.
        !(self.jamming_now && self.target == crate::ChannelId::PRIMARY)
    }
}

/// What the node that took `action` hears under `base` when `jammed` (if
/// any) is flooded this round: on the jammed channel, what a collision
/// sounds like under `base` (see [`JammedChannel`]); elsewhere, `base`'s
/// own feedback. The one jam-feedback rule, shared by [`JammedChannel`]
/// and [`crate::fault::JamBudget`].
pub(crate) fn deliver_jammed<M: Clone>(
    mut base: crate::CdMode,
    jammed: Option<crate::ChannelId>,
    action: &crate::Action<M>,
    state: &crate::ChannelState<'_, M>,
) -> crate::Feedback<M> {
    use crate::{Action, CdMode, Feedback, FeedbackModel};
    let (channel, transmitted) = match action {
        Action::Transmit { channel, .. } => (*channel, true),
        Action::Listen { channel } => (*channel, false),
        Action::Sleep => return Feedback::Slept,
    };
    if jammed == Some(channel) {
        return match base {
            CdMode::Strong => Feedback::Collision,
            CdMode::ReceiverOnly | CdMode::None if transmitted => Feedback::TransmittedBlind,
            CdMode::ReceiverOnly => Feedback::Collision,
            CdMode::None => Feedback::Silence,
        };
    }
    base.deliver(action, state)
}

#[cfg(test)]
mod jam_tests {
    use super::*;
    use crate::{
        Action, CdMode, ChannelId, Engine, Feedback, FeedbackModel, Protocol, RoundContext,
        SimConfig, Status,
    };
    use rand::rngs::SmallRng;

    /// Transmits or listens on the primary channel, recording feedback.
    struct Node {
        transmits: bool,
        heard: Vec<Feedback<u8>>,
    }
    impl Node {
        fn beacon() -> Self {
            Node {
                transmits: true,
                heard: Vec::new(),
            }
        }
        fn ear() -> Self {
            Node {
                transmits: false,
                heard: Vec::new(),
            }
        }
    }
    impl Protocol for Node {
        type Msg = u8;
        fn act(&mut self, _: &RoundContext, _: &mut SmallRng) -> Action<u8> {
            if self.transmits {
                Action::transmit(ChannelId::PRIMARY, 1)
            } else {
                Action::listen(ChannelId::PRIMARY)
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
    fn jam_delays_the_solve() {
        // A lone beacon would solve in round 0; a primary-channel jam over
        // rounds 0..3 pushes the solve to round 3.
        let jam = JammedChannel::new(CdMode::Strong, ChannelId::PRIMARY, 0, 3);
        let mut engine = Engine::with_feedback(SimConfig::new(2).max_rounds(10), jam);
        engine.add_node(Node::beacon());
        let report = engine.run().expect("solves after the jam lifts");
        assert_eq!(report.solved_round, Some(3));
    }

    /// A lone beacon and a listener on the primary channel, with round 0
    /// jammed by `jammer`: what each heard in rounds 0 and 1.
    fn jammed_round<F: FeedbackModel>(jammer: F) -> [[Feedback<u8>; 2]; 2] {
        let mut engine = Engine::with_feedback(SimConfig::new(2).max_rounds(2), jammer);
        let beacon = engine.add_node(Node::beacon());
        let ear = engine.add_node(Node::ear());
        let report = engine.run().expect("solves in round 1");
        assert_eq!(report.solved_round, Some(1));
        [beacon, ear].map(|id| [0, 1].map(|round| engine.node(id).heard[round].clone()))
    }

    #[test]
    fn jam_sounds_like_a_collision_per_base_mode() {
        use crate::fault::JamBudget;
        // (base mode, what the lone transmitter hears, what the listener
        // hears) in the jammed round.
        for (mode, beacon, ear) in [
            (CdMode::Strong, Feedback::Collision, Feedback::Collision),
            (
                CdMode::ReceiverOnly,
                Feedback::TransmittedBlind,
                Feedback::Collision,
            ),
            (CdMode::None, Feedback::TransmittedBlind, Feedback::Silence),
        ] {
            let by_range = jammed_round(JammedChannel::new(mode, ChannelId::PRIMARY, 0, 1));
            let by_budget = jammed_round(JamBudget::new(mode, 1));
            assert_eq!(by_range, by_budget, "mode {mode:?}");
            let [beacon_heard, ear_heard] = by_range;
            assert_eq!(beacon_heard[0], beacon, "mode {mode:?}");
            assert_eq!(ear_heard[0], ear, "mode {mode:?}");
            // Round 1 is un-jammed: the lone message comes through.
            assert_eq!(ear_heard[1], Feedback::Message(1), "mode {mode:?}");
        }
    }

    #[test]
    fn jam_on_secondary_channel_leaves_solve_alone() {
        let jam = JammedChannel::new(CdMode::Strong, ChannelId::new(2), 0, 100);
        let mut engine = Engine::with_feedback(SimConfig::new(2).max_rounds(10), jam);
        engine.add_node(Node::beacon());
        let report = engine.run().expect("primary channel unaffected");
        assert_eq!(report.solved_round, Some(0));
        assert!(engine.feedback().jamming());
        assert_eq!(engine.feedback().target(), ChannelId::new(2));
    }
}
