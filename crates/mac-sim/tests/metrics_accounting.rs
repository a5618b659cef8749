//! Precise accounting tests against scripted executions with known
//! ground truth: the engine's metrics count TX/RX energy, an attached
//! `Trace` labels every round, and an attached `RunRecorder` books
//! transmissions to phases.

use mac_sim::obs::{RunRecord, RunRecorder};
use mac_sim::{
    Action, ChannelId, Engine, Feedback, Protocol, RoundContext, RunReport, SimConfig, Status,
    StopWhen, Trace,
};
use rand::rngs::SmallRng;

/// Transmits for `tx_rounds` rounds in phase "alpha", then listens for
/// `rx_rounds` rounds in phase "beta", then stops. It advances in
/// `observe`, so its label names the same phase before and after `act`.
struct TwoPhase {
    tx_rounds: u64,
    rx_rounds: u64,
    done_rounds: u64,
}

impl Protocol for TwoPhase {
    type Msg = u32;
    fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u32> {
        if self.done_rounds < self.tx_rounds {
            Action::transmit(ChannelId::new(2), 0)
        } else {
            Action::listen(ChannelId::new(3))
        }
    }
    fn observe(&mut self, _ctx: &RoundContext, _fb: Feedback<u32>, _rng: &mut SmallRng) {
        self.done_rounds += 1;
    }
    fn status(&self) -> Status {
        if self.done_rounds >= self.tx_rounds + self.rx_rounds {
            Status::Inactive
        } else {
            Status::Active
        }
    }
    fn phase(&self) -> &'static str {
        if self.done_rounds < self.tx_rounds {
            "alpha"
        } else {
            "beta"
        }
    }
}

/// Runs `exec` to the end with a `Trace` and a `RunRecorder` attached.
fn run_observed(exec: &mut Engine<TwoPhase>) -> (RunReport, Trace, RunRecord) {
    let mut sinks = (Trace::new(), RunRecorder::new());
    let report = exec.run_observed(&mut sinks).expect("finishes");
    (report, sinks.0, sinks.1.into_record(0))
}

/// Rounds the trace labels `phase`.
fn rounds_in(trace: &Trace, phase: &str) -> usize {
    trace.rounds().iter().filter(|r| r.phase == phase).count()
}

#[test]
fn per_phase_transmissions_are_attributed() {
    let cfg = SimConfig::new(4)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100);
    let mut exec = Engine::new(cfg);
    exec.add_node(TwoPhase {
        tx_rounds: 3,
        rx_rounds: 2,
        done_rounds: 0,
    });
    let (report, trace, record) = run_observed(&mut exec);
    assert_eq!(report.metrics.transmissions, 3);
    assert_eq!(report.metrics.listens, 2);
    assert_eq!(record.phase_tx("alpha"), 3);
    assert_eq!(record.phase_tx("beta"), 0);
    assert_eq!(rounds_in(&trace, "alpha"), 3);
    assert_eq!(rounds_in(&trace, "beta"), 2);
    assert_eq!(trace.len() as u64, report.rounds_executed);
}

#[test]
fn per_node_counts_sum_to_total() {
    let cfg = SimConfig::new(4)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100);
    let mut exec = Engine::new(cfg).populated((0..5u64).map(|i| TwoPhase {
        tx_rounds: i,
        rx_rounds: 1,
        done_rounds: 0,
    }));
    let report = exec.run().expect("finishes");
    let total: u64 = report.metrics.transmissions_per_node.iter().sum();
    assert_eq!(total, report.metrics.transmissions);
    assert_eq!(report.metrics.transmissions, 10);
    assert_eq!(report.metrics.transmissions_per_node, vec![0, 1, 2, 3, 4]);
    assert_eq!(report.metrics.max_transmissions_per_node(), 4);
}

#[test]
fn late_wakers_do_not_consume_phase_rounds_before_waking() {
    let cfg = SimConfig::new(4)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100);
    let mut exec = Engine::new(cfg);
    exec.add_node_at(
        TwoPhase {
            tx_rounds: 1,
            rx_rounds: 1,
            done_rounds: 0,
        },
        4,
    );
    let (report, trace, record) = run_observed(&mut exec);
    // Rounds 0..4 are idle (no awake active node), then alpha, beta.
    assert_eq!(rounds_in(&trace, "idle"), 4);
    assert_eq!(rounds_in(&trace, "alpha"), 1);
    assert_eq!(rounds_in(&trace, "beta"), 1);
    assert_eq!(report.rounds_executed, 6);
    // No node acts while idle, so the recorder books nothing there.
    assert_eq!(record.phase_tx("alpha"), 1);
    assert_eq!(record.node_rounds("idle"), 0);
}

#[test]
fn mid_run_snapshot_metrics_are_prefixes() {
    let cfg = SimConfig::new(4)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100);
    let mut exec = Engine::new(cfg);
    exec.add_node(TwoPhase {
        tx_rounds: 4,
        rx_rounds: 0,
        done_rounds: 0,
    });
    exec.step().expect("steps");
    exec.step().expect("steps");
    let snap = exec.report();
    assert_eq!(snap.metrics.transmissions, 2);
    let _ = exec.run().expect("finishes");
    assert_eq!(exec.report().metrics.transmissions, 4);
}
