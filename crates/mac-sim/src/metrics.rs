//! Run metrics: the TX/RX energy counts of one run.
//!
//! Rounds and transmissions per phase are not counted here: attach a
//! [`crate::obs::RunRecorder`], which books every action to the acting
//! node's own phase, or a [`crate::Trace`], whose rounds carry the
//! engine's representative label.

/// Aggregate metrics of one run.
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
    /// Creates metrics for `nodes` nodes, all zeroed.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        Metrics {
            transmissions: 0,
            listens: 0,
            transmissions_per_node: vec![0; nodes],
        }
    }

    /// Records one transmission by node `node`.
    pub fn record_transmission(&mut self, node: usize) {
        self.transmissions += 1;
        if let Some(slot) = self.transmissions_per_node.get_mut(node) {
            *slot += 1;
        }
    }

    /// Records one listen action.
    pub fn record_listen(&mut self) {
        self.listens += 1;
    }

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
        let mut m = Metrics::new(3);
        m.record_transmission(0);
        m.record_transmission(0);
        m.record_transmission(2);
        m.record_listen();
        assert_eq!(m.transmissions, 3);
        assert_eq!(m.listens, 1);
        assert_eq!(m.transmissions_per_node, vec![2, 0, 1]);
        assert_eq!(m.max_transmissions_per_node(), 2);
    }

    #[test]
    fn metrics_out_of_range_node_is_ignored_in_vector() {
        let mut m = Metrics::new(1);
        m.record_transmission(5);
        assert_eq!(m.transmissions, 1);
        assert_eq!(m.transmissions_per_node, vec![0]);
    }
}
