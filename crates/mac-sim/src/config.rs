//! Simulation configuration: channel count, feedback model, stop conditions.

/// Collision-detection capability of the radios.
///
/// The paper assumes the *classical* strong definition ("both transmitters
/// and receivers learn about message collisions on their channel in a given
/// round", §3). The weaker modes exist so experiments can show that the
/// paper's algorithms genuinely depend on the strong assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CdMode {
    /// Strong collision detection: every participant on a channel — listener
    /// or transmitter — observes silence / message / collision truthfully.
    #[default]
    Strong,
    /// Receiver-side collision detection only: listeners observe the truth;
    /// transmitters learn nothing ([`crate::Feedback::TransmittedBlind`]).
    ReceiverOnly,
    /// No collision detection: listeners cannot distinguish a collision from
    /// silence (collisions are delivered as [`crate::Feedback::Silence`]);
    /// transmitters learn nothing.
    None,
}

/// When the executor stops a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StopWhen {
    /// Stop in the first round in which exactly one node transmits on the
    /// primary channel — the problem definition's notion of "solved". This
    /// is the default and the measure used by every round-complexity
    /// experiment.
    #[default]
    Solved,
    /// Keep running until every node has terminated (status `Leader` or
    /// `Inactive`), even after the solve round. Useful for checking that
    /// protocols shut down cleanly and agree on the leader.
    AllTerminated,
}

/// Configuration for one simulation run.
///
/// Built with a fluent API:
///
/// ```
/// use mac_sim::{CdMode, SimConfig, StopWhen};
///
/// let cfg = SimConfig::new(64)
///     .seed(42)
///     .max_rounds(100_000)
///     .cd_mode(CdMode::Strong)
///     .stop_when(StopWhen::AllTerminated);
/// assert_eq!(cfg.channels, 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of channels `C ≥ 1`.
    pub channels: u32,
    /// Master seed from which per-node seeds are derived.
    pub master_seed: u64,
    /// Hard cap on executed rounds; exceeding it is a [`crate::SimError::Timeout`].
    pub max_rounds: u64,
    /// Collision-detection model.
    pub cd_mode: CdMode,
    /// Stop condition.
    pub stop_when: StopWhen,
    /// Watchdog budget for fault-injected runs. Unlike `max_rounds` (which
    /// only guards [`crate::Engine::run`]'s loop and reports
    /// [`crate::SimError::Timeout`], an *experiment bug*), the budget is
    /// enforced by [`crate::Engine::step`] itself and converts
    /// non-termination under faults into the structured
    /// [`crate::SimError::BudgetExhausted`] — an *expected outcome* that
    /// breakdown sweeps catch and count. `None` (the default) disables it.
    pub round_budget: Option<u64>,
    /// Whether the engine counts its built-in [`crate::Metrics`], the
    /// transmissions and listens of every completed round (on by
    /// default). Turning it off removes that bookkeeping from the hot
    /// loop; the metrics in the final [`crate::RunReport`] stay zeroed.
    pub record_metrics: bool,
    /// Continuous-delivery ("traffic") mode, off by default. In one-shot
    /// mode a lone primary-channel transmission is detected once and
    /// latches `solved_round`. With this flag set, *every* such round is a
    /// packet delivery: the engine counts it ([`crate::Engine::deliveries`]),
    /// reports it through [`crate::EventSink::on_solved`], and retires the
    /// solver so a fresh arrival can contend for the channel. The first
    /// delivery still latches `solved_round`/`solver` exactly as before.
    /// Used by [`crate::traffic`]; fault models veto deliveries through
    /// [`crate::FeedbackModel::allows_solve`] just like one-shot solves.
    pub continuous_delivery: bool,
}

impl SimConfig {
    /// Creates a configuration with `channels` channels and defaults:
    /// seed 0, 1 000 000 round cap, strong CD, stop at first solve.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`; the model requires `C ≥ 1`.
    #[must_use]
    pub fn new(channels: u32) -> Self {
        assert!(channels >= 1, "the model requires C >= 1 channels");
        SimConfig {
            channels,
            master_seed: 0,
            max_rounds: 1_000_000,
            cd_mode: CdMode::Strong,
            stop_when: StopWhen::Solved,
            round_budget: None,
            record_metrics: true,
            continuous_delivery: false,
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the round cap.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the collision-detection mode.
    #[must_use]
    pub fn cd_mode(mut self, cd_mode: CdMode) -> Self {
        self.cd_mode = cd_mode;
        self
    }

    /// Sets the stop condition.
    #[must_use]
    pub fn stop_when(mut self, stop_when: StopWhen) -> Self {
        self.stop_when = stop_when;
        self
    }

    /// Arms the round-budget watchdog: executing round `round_budget` fails
    /// with [`crate::SimError::BudgetExhausted`]. Fault sweeps set this so a
    /// wedged protocol terminates with a structured, countable error rather
    /// than burning `max_rounds` worth of work.
    #[must_use]
    pub fn round_budget(mut self, round_budget: u64) -> Self {
        self.round_budget = Some(round_budget);
        self
    }

    /// Enables or disables the engine's built-in [`crate::Metrics`] count.
    #[must_use]
    pub fn record_metrics(mut self, record_metrics: bool) -> Self {
        self.record_metrics = record_metrics;
        self
    }

    /// Enables continuous-delivery (traffic) mode: every lone
    /// primary-channel transmission delivers a packet and retires its
    /// sender, instead of only the first one latching a solve.
    #[must_use]
    pub fn continuous_delivery(mut self, continuous_delivery: bool) -> Self {
        self.continuous_delivery = continuous_delivery;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = SimConfig::new(8)
            .seed(99)
            .max_rounds(10)
            .cd_mode(CdMode::None)
            .stop_when(StopWhen::AllTerminated)
            .round_budget(7);
        assert_eq!(cfg.channels, 8);
        assert_eq!(cfg.master_seed, 99);
        assert_eq!(cfg.max_rounds, 10);
        assert_eq!(cfg.cd_mode, CdMode::None);
        assert_eq!(cfg.stop_when, StopWhen::AllTerminated);
        assert_eq!(cfg.round_budget, Some(7));
    }

    #[test]
    fn defaults_match_paper_model() {
        let cfg = SimConfig::new(1);
        assert_eq!(cfg.cd_mode, CdMode::Strong);
        assert_eq!(cfg.stop_when, StopWhen::Solved);
        assert_eq!(cfg.round_budget, None);
        assert!(cfg.record_metrics);
        assert!(!cfg.continuous_delivery);
    }

    #[test]
    fn metrics_recording_can_be_disabled() {
        let cfg = SimConfig::new(1).record_metrics(false);
        assert!(!cfg.record_metrics);
    }

    #[test]
    fn continuous_delivery_can_be_enabled() {
        let cfg = SimConfig::new(1).continuous_delivery(true);
        assert!(cfg.continuous_delivery);
    }

    #[test]
    #[should_panic(expected = "C >= 1")]
    fn zero_channels_rejected() {
        let _ = SimConfig::new(0);
    }
}
