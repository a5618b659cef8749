//! Per-round channel traces, for debugging and for the channel-activity
//! visualizations in the experiment harness. A [`Trace`] is an
//! [`crate::EventSink`]: attach it to a run with
//! [`crate::Engine::run_observed`] to record one [`RoundTrace`] per round.

use std::fmt;

use crate::channel::ChannelOutcome;

/// The recorded activity of one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundTrace {
    /// The round number.
    pub round: u64,
    /// Outcomes of channels with at least one participant, sorted by channel.
    pub outcomes: Vec<ChannelOutcome>,
    /// The phase label of the lowest-indexed node that was active this round.
    pub phase: &'static str,
}

/// A full recorded trace of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    rounds: Vec<RoundTrace>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends one round's record.
    pub fn push(&mut self, round: RoundTrace) {
        self.rounds.push(round);
    }

    /// The recorded rounds, in order.
    #[must_use]
    pub fn rounds(&self) -> &[RoundTrace] {
        &self.rounds
    }

    /// Number of recorded rounds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Returns `true` if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rt in &self.rounds {
            write!(f, "r{:<5} [{}]", rt.round, rt.phase)?;
            for oc in &rt.outcomes {
                write!(f, "  {oc}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelId, OutcomeKind};

    #[test]
    fn trace_accumulates_and_renders() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(RoundTrace {
            round: 0,
            outcomes: vec![ChannelOutcome {
                channel: ChannelId::PRIMARY,
                kind: OutcomeKind::Collision,
                transmitters: 2,
                listeners: 0,
            }],
            phase: "reduce",
        });
        assert_eq!(t.len(), 1);
        let s = t.to_string();
        assert!(s.contains("reduce"));
        assert!(s.contains("collision"));
    }
}
