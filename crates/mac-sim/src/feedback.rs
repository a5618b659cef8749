//! Pluggable feedback models: how resolved channel state turns into what
//! each node hears.
//!
//! The round engine resolves the *physical* channel state — who transmitted
//! and listened where — and then asks a [`FeedbackModel`] what every
//! participant observes. The three collision-detection modes of the paper
//! (§3) are the canonical model: [`CdMode`] implements [`FeedbackModel`]
//! directly, and [`crate::Engine::new`] installs the one from
//! [`crate::SimConfig::cd_mode`]. Adversarial or noisy radios plug in the
//! same way — see [`crate::fault`] — via
//! [`crate::Engine::with_feedback`].

use crate::action::{Action, Feedback};
use crate::channel::ChannelId;
use crate::config::{CdMode, SimConfig};
use crate::engine::NodeId;

/// Read-only view of one round's resolved channel state, handed to
/// [`FeedbackModel::deliver`].
///
/// All accessors are O(1); [`ChannelState::truth`] clones the transmitted
/// message only when the channel actually carried a lone message.
pub struct ChannelState<'a, M> {
    pub(crate) tx_count: &'a [u32],
    pub(crate) rx_count: &'a [u32],
    pub(crate) actions: &'a [(usize, Action<M>)],
    pub(crate) lone_act: &'a [usize],
}

impl<M: Clone> ChannelState<'_, M> {
    /// Number of channels in the simulation.
    #[must_use]
    pub fn channels(&self) -> u32 {
        self.tx_count.len() as u32
    }

    /// How many nodes transmitted on `channel` this round.
    #[must_use]
    pub fn transmitters(&self, channel: ChannelId) -> u32 {
        self.tx_count[channel.index()]
    }

    /// How many nodes listened on `channel` this round.
    #[must_use]
    pub fn listeners(&self, channel: ChannelId) -> u32 {
        self.rx_count[channel.index()]
    }

    /// The lone transmitter on `channel`, if exactly one node transmitted.
    #[must_use]
    pub fn lone_transmitter(&self, channel: ChannelId) -> Option<NodeId> {
        let ai = self.lone_act[channel.index()];
        self.actions.get(ai).map(|&(node, _)| NodeId(node))
    }

    /// The ground-truth observation on `channel` under strong collision
    /// detection: silence, the lone message, or a collision.
    #[must_use]
    pub fn truth(&self, channel: ChannelId) -> Feedback<M> {
        let ci = channel.index();
        match self.tx_count[ci] {
            0 => Feedback::Silence,
            1 => {
                let (_, action) = &self.actions[self.lone_act[ci]];
                match action {
                    Action::Transmit { msg, .. } => Feedback::Message(msg.clone()),
                    _ => unreachable!("lone_act always indexes a Transmit action"),
                }
            }
            _ => Feedback::Collision,
        }
    }
}

/// Turns resolved channel state into per-node feedback.
///
/// Implementations may keep state across rounds —
/// [`begin_round`](FeedbackModel::begin_round) announces each round — which
/// is how adversarial models schedule their interference. The engine dispatches
/// statically — the model is a type parameter of [`crate::Engine`] — so a
/// model's branching is resolved at compile time, outside the hot loop.
///
/// Feedback models shape what nodes *hear*, not what physically happened:
/// solve detection (a lone transmission on the primary channel) operates on
/// physical channel state. A model that disturbs a round can veto its solve
/// via [`allows_solve`](FeedbackModel::allows_solve).
pub trait FeedbackModel {
    /// Called once by [`crate::Engine::with_feedback`], before any round
    /// runs. Models that carry randomness derive their RNG streams from
    /// [`SimConfig::master_seed`] here (see [`crate::derive_fault_seed`]),
    /// so runs stay bit-deterministic in the configuration seed.
    fn bind(&mut self, config: &SimConfig) {
        let _ = config;
    }

    /// Called once at the start of every round, before any node acts.
    fn begin_round(&mut self, round: u64) {
        let _ = round;
    }

    /// Filters a collected action before channel resolution. The default is
    /// the identity; fault models that alter *physical* truth override it —
    /// [`crate::fault::CrashStop`] replaces a crashed node's action with
    /// [`Action::Sleep`], so the dead node genuinely stops transmitting
    /// (affecting collision counts and solve detection) instead of merely
    /// being heard differently.
    ///
    /// Called after the engine's channel-range validation, in node order.
    fn filter_action<M: Clone>(&mut self, node: NodeId, action: Action<M>) -> Action<M> {
        let _ = node;
        action
    }

    /// Reports nodes this model has permanently removed from the run
    /// (crash-stop victims) since the last call, by appending their ids to
    /// `out`. The engine calls this right after
    /// [`begin_round`](FeedbackModel::begin_round) and *retires* the
    /// announced slots — they stop acting and observing from that round
    /// on, and block the all-terminated stop condition exactly like a
    /// crashed-but-still-`Active` status used to.
    ///
    /// The default is a no-op (clean models crash nobody, and the engine
    /// pays nothing for the empty drain). Implementations must announce
    /// each victim at most once, in the round its crash takes physical
    /// effect; announcing an already-retired or unknown id is harmless.
    fn drain_crashed(&mut self, out: &mut Vec<NodeId>) {
        let _ = out;
    }

    /// Whether a physically lone primary-channel transmission by `solver` in
    /// the current round counts as solving the problem. Defaults to `true`;
    /// adversarial models that drown the round in noise (or erase / crash
    /// the transmission mid-flight) return `false` for it.
    ///
    /// This is the engine's solve-validity rail: no fault model can
    /// manufacture a spurious solve (the candidate is always a physical
    /// lone transmitter), but any model can veto one it disturbed.
    fn allows_solve(&mut self, solver: NodeId) -> bool {
        let _ = solver;
        true
    }

    /// The feedback the node that took `action` observes this round.
    fn deliver<M: Clone>(&mut self, action: &Action<M>, state: &ChannelState<'_, M>)
        -> Feedback<M>;
}

impl FeedbackModel for CdMode {
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
        match self {
            // Strong CD: everyone on the channel observes the truth.
            CdMode::Strong => state.truth(channel),
            // Receiver-side CD: listeners observe the truth; transmitters
            // learn nothing.
            CdMode::ReceiverOnly => {
                if transmitted {
                    Feedback::TransmittedBlind
                } else {
                    state.truth(channel)
                }
            }
            // No CD: transmitters learn nothing, and listeners cannot
            // distinguish a collision from background noise / silence.
            CdMode::None => {
                if transmitted {
                    Feedback::TransmittedBlind
                } else {
                    match state.truth(channel) {
                        Feedback::Collision => Feedback::Silence,
                        truth => truth,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state<'a>(
        tx_count: &'a [u32],
        rx_count: &'a [u32],
        actions: &'a [(usize, Action<u8>)],
        lone_act: &'a [usize],
    ) -> ChannelState<'a, u8> {
        ChannelState {
            tx_count,
            rx_count,
            actions,
            lone_act,
        }
    }

    #[test]
    fn truth_reads_lone_message_from_actions() {
        let actions = vec![(3usize, Action::transmit(ChannelId::new(2), 9u8))];
        let st = state(&[0, 1], &[0, 0], &actions, &[usize::MAX, 0]);
        assert_eq!(st.truth(ChannelId::new(1)), Feedback::Silence);
        assert_eq!(st.truth(ChannelId::new(2)), Feedback::Message(9));
        assert_eq!(st.lone_transmitter(ChannelId::new(2)), Some(NodeId(3)));
        assert_eq!(st.lone_transmitter(ChannelId::new(1)), None);
        assert_eq!(st.transmitters(ChannelId::new(2)), 1);
        assert_eq!(st.channels(), 2);
    }

    #[test]
    fn cd_modes_deliver_per_paper_model() {
        let actions = vec![
            (0usize, Action::transmit(ChannelId::new(1), 1u8)),
            (1usize, Action::transmit(ChannelId::new(1), 2u8)),
        ];
        let st = state(&[2], &[1], &actions, &[usize::MAX]);
        let tx = Action::transmit(ChannelId::new(1), 1u8);
        let rx: Action<u8> = Action::listen(ChannelId::new(1));

        assert_eq!(CdMode::Strong.deliver(&tx, &st), Feedback::Collision);
        assert_eq!(CdMode::Strong.deliver(&rx, &st), Feedback::Collision);
        assert_eq!(
            CdMode::ReceiverOnly.deliver(&tx, &st),
            Feedback::TransmittedBlind
        );
        assert_eq!(CdMode::ReceiverOnly.deliver(&rx, &st), Feedback::Collision);
        assert_eq!(CdMode::None.deliver(&tx, &st), Feedback::TransmittedBlind);
        assert_eq!(CdMode::None.deliver(&rx, &st), Feedback::Silence);
    }

    #[test]
    fn sleep_always_slept() {
        let st = state(&[0], &[0], &[], &[usize::MAX]);
        for mode in [CdMode::Strong, CdMode::ReceiverOnly, CdMode::None] {
            let mut mode = mode;
            assert_eq!(mode.deliver(&Action::<u8>::Sleep, &st), Feedback::Slept);
            assert!(mode.allows_solve(NodeId(0)));
        }
    }
}
