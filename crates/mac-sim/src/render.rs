//! ASCII rendering of recorded traces: a channel × round activity chart.
//!
//! Useful for eyeballing an execution — which channels the algorithm
//! touches, where the collisions are, when the primary channel goes quiet:
//!
//! ```text
//! ch  1 |X..M.....S
//! ch  2 |.M...X....
//!        0123456789
//! ```
//!
//! `S` silence-with-listeners, `M` a delivered message, `X` a collision,
//! `.` an untouched channel.
//!
//! The input is a [`Trace`] recorded by attaching it to a run as an
//! [`crate::EventSink`]:
//!
//! ```
//! use mac_sim::render::activity_chart;
//! use mac_sim::{Action, ChannelId, Engine, Feedback, Protocol, RoundContext,
//!               SimConfig, Status, Trace};
//! use rand::rngs::SmallRng;
//!
//! struct Beacon;
//! impl Protocol for Beacon {
//!     type Msg = u8;
//!     fn act(&mut self, _: &RoundContext, _: &mut SmallRng) -> Action<u8> {
//!         Action::transmit(ChannelId::PRIMARY, 1)
//!     }
//!     fn observe(&mut self, _: &RoundContext, _: Feedback<u8>, _: &mut SmallRng) {}
//!     fn status(&self) -> Status { Status::Active }
//! }
//!
//! let mut engine = Engine::new(SimConfig::new(2));
//! engine.add_node(Beacon);
//! let mut trace = Trace::new();
//! engine.run_observed(&mut trace)?;
//! assert!(activity_chart(&trace, 80).contains("ch    1 |M"));
//! # Ok::<(), mac_sim::SimError>(())
//! ```

use std::fmt::Write as _;

use crate::channel::OutcomeKind;
use crate::trace::Trace;

/// Renders `trace` as an activity chart, showing only channels that carried
/// any activity and at most `max_rounds` columns (from the start).
///
/// Returns an empty string for an empty trace.
#[must_use]
pub fn activity_chart(trace: &Trace, max_rounds: usize) -> String {
    let rounds: Vec<_> = trace.rounds().iter().take(max_rounds).collect();
    if rounds.is_empty() {
        return String::new();
    }

    // Channels that appear at least once, sorted.
    let mut channels: Vec<u32> = rounds
        .iter()
        .flat_map(|rt| rt.outcomes.iter().map(|oc| oc.channel.get()))
        .collect();
    channels.sort_unstable();
    channels.dedup();

    let cols = rounds.len();
    let mut out = String::new();
    for &ch in &channels {
        let _ = write!(out, "ch{ch:>5} |");
        for rt in &rounds {
            let cell = rt
                .outcomes
                .iter()
                .find(|oc| oc.channel.get() == ch)
                .map_or('.', |oc| match oc.kind {
                    OutcomeKind::Silence => 'S',
                    OutcomeKind::Message => 'M',
                    OutcomeKind::Collision => 'X',
                });
            out.push(cell);
        }
        out.push('\n');
    }
    // Round ruler (mod 10).
    let _ = write!(out, "{:>8} ", "round");
    for (i, _) in rounds.iter().enumerate().take(cols) {
        let _ = write!(out, "{}", i % 10);
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelId, ChannelOutcome};
    use crate::trace::RoundTrace;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(RoundTrace {
            round: 0,
            outcomes: vec![
                ChannelOutcome {
                    channel: ChannelId::new(1),
                    kind: OutcomeKind::Collision,
                    transmitters: 3,
                    listeners: 0,
                },
                ChannelOutcome {
                    channel: ChannelId::new(3),
                    kind: OutcomeKind::Message,
                    transmitters: 1,
                    listeners: 2,
                },
            ],
            phase: "p",
        });
        t.push(RoundTrace {
            round: 1,
            outcomes: vec![ChannelOutcome {
                channel: ChannelId::new(1),
                kind: OutcomeKind::Silence,
                transmitters: 0,
                listeners: 4,
            }],
            phase: "p",
        });
        t
    }

    #[test]
    fn chart_shows_only_active_channels() {
        let chart = activity_chart(&sample_trace(), 100);
        assert!(chart.contains("ch    1 |XS"));
        assert!(chart.contains("ch    3 |M."));
        assert!(!chart.contains("ch    2"));
        assert!(chart.contains("round 01"));
    }

    #[test]
    fn chart_truncates_to_max_rounds() {
        let chart = activity_chart(&sample_trace(), 1);
        assert!(chart.contains("ch    1 |X\n"));
    }

    #[test]
    fn empty_trace_renders_empty() {
        assert_eq!(activity_chart(&Trace::new(), 10), "");
    }
}
