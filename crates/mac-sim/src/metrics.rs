//! Run metrics: the TX/RX energy counts of one run.
//!
//! Rounds and transmissions per phase are not counted here: attach a
//! [`crate::obs::RunRecorder`], which books every action to the acting
//! node's own phase, or a [`crate::Trace`], whose rounds carry the
//! engine's representative label.

/// Aggregate metrics of one run, counted by the engine from each round
/// that completes (a failed round counts nothing) while
/// [`crate::SimConfig::record_metrics`] is on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Total transmissions across all nodes and rounds (the TX energy proxy).
    pub transmissions: u64,
    /// Total listen actions across all nodes and rounds (the RX energy
    /// proxy — receivers burn power too).
    pub listens: u64,
    /// Per-node transmission counts, indexed by node id.
    pub transmissions_per_node: Vec<u64>,
}

impl Metrics {
    /// The maximum number of transmissions made by any single node.
    #[must_use]
    pub fn max_transmissions_per_node(&self) -> u64 {
        self.transmissions_per_node
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_transmissions() {
        let m = Metrics {
            transmissions: 3,
            listens: 1,
            transmissions_per_node: vec![2, 0, 1],
        };
        assert_eq!(m.max_transmissions_per_node(), 2);
        assert_eq!(Metrics::default().max_transmissions_per_node(), 0);
    }
}
