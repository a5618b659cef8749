//! Simulator scenario tests: heterogeneous populations, staggered
//! wake-ups, trace rendering, and feedback-model edge cases.

use mac_sim::obs::{ChannelTally, RunRecorder};
use mac_sim::render::activity_chart;
use mac_sim::{
    Action, CdMode, ChannelId, Engine, Feedback, Protocol, RoundContext, SimConfig, Status,
    StopWhen, Trace,
};
use rand::rngs::SmallRng;

/// A scriptable node: a fixed list of actions, then inactive.
struct Script {
    actions: Vec<Action<u32>>,
    cursor: usize,
    heard: Vec<Feedback<u32>>,
}

impl Script {
    fn new(actions: Vec<Action<u32>>) -> Self {
        Script {
            actions,
            cursor: 0,
            heard: Vec::new(),
        }
    }
}

impl Protocol for Script {
    type Msg = u32;
    fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u32> {
        let action = self
            .actions
            .get(self.cursor)
            .cloned()
            .unwrap_or(Action::Sleep);
        self.cursor += 1;
        action
    }
    fn observe(&mut self, _ctx: &RoundContext, fb: Feedback<u32>, _rng: &mut SmallRng) {
        self.heard.push(fb);
    }
    fn status(&self) -> Status {
        if self.cursor >= self.actions.len() {
            Status::Inactive
        } else {
            Status::Active
        }
    }
}

#[test]
fn scripted_rendezvous_and_miss() {
    // Two nodes meet on channel 2 in round 0, miss each other in round 1.
    let cfg = SimConfig::new(4)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10);
    let mut exec = Engine::new(cfg);
    let a = exec.add_node(Script::new(vec![
        Action::transmit(ChannelId::new(2), 7),
        Action::transmit(ChannelId::new(3), 8),
    ]));
    let b = exec.add_node(Script::new(vec![
        Action::listen(ChannelId::new(2)),
        Action::listen(ChannelId::new(4)),
    ]));
    exec.run().expect("finishes");
    assert_eq!(exec.node(b).heard[0], Feedback::Message(7));
    assert_eq!(exec.node(b).heard[1], Feedback::Silence);
    assert_eq!(exec.node(a).heard[0], Feedback::Message(7)); // hears itself
    assert_eq!(exec.node(a).heard[1], Feedback::Message(8));
}

#[test]
fn message_payloads_are_delivered_verbatim() {
    let cfg = SimConfig::new(2)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10);
    let mut exec = Engine::new(cfg);
    exec.add_node(Script::new(vec![Action::transmit(
        ChannelId::new(2),
        u32::MAX,
    )]));
    let rx = exec.add_node(Script::new(vec![Action::listen(ChannelId::new(2))]));
    exec.run().expect("finishes");
    assert_eq!(exec.node(rx).heard[0], Feedback::Message(u32::MAX));
}

#[test]
fn three_transmitters_still_one_collision() {
    let cfg = SimConfig::new(2)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10);
    let mut exec = Engine::new(cfg).populated(
        (0..3).map(|payload| Script::new(vec![Action::transmit(ChannelId::new(2), payload)])),
    );
    let rx = exec.add_node(Script::new(vec![Action::listen(ChannelId::new(2))]));
    let report = exec.run().expect("finishes");
    assert_eq!(exec.node(rx).heard[0], Feedback::Collision);
    assert_eq!(report.metrics.transmissions, 3);
}

#[test]
fn solve_detection_ignores_listeners_on_primary() {
    // One transmitter + many listeners on channel 1 is still a solve.
    let cfg = SimConfig::new(2).max_rounds(10);
    let tx = Script::new(vec![Action::transmit(ChannelId::PRIMARY, 1)]);
    let listeners = (0..5).map(|_| Script::new(vec![Action::listen(ChannelId::PRIMARY)]));
    let mut exec = Engine::new(cfg).populated(std::iter::once(tx).chain(listeners));
    let report = exec.run().expect("finishes");
    assert_eq!(report.solved_round, Some(0));
}

#[test]
fn sleepers_do_not_block_channel_resolution() {
    let cfg = SimConfig::new(2).max_rounds(10);
    let mut exec = Engine::new(cfg);
    exec.add_node(Script::new(vec![
        Action::Sleep,
        Action::transmit(ChannelId::PRIMARY, 0),
    ]));
    let report = exec.run().expect("finishes");
    assert_eq!(report.solved_round, Some(1));
}

#[test]
fn wake_schedule_drives_executor() {
    // Three waves of two nodes, five rounds apart.
    let schedule = [0, 5, 10, 0, 5, 10];
    let cfg = SimConfig::new(2)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100);
    let mut exec = Engine::new(cfg);
    for off in schedule {
        exec.add_node_at(Script::new(vec![Action::listen(ChannelId::new(2))]), off);
    }
    let report = exec.run().expect("finishes");
    // Last wave wakes at round 10 and acts for one round.
    assert_eq!(report.rounds_executed, 11);
}

#[test]
fn trace_chart_reflects_execution() {
    let cfg = SimConfig::new(4)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10);
    let mut exec = Engine::new(cfg);
    exec.add_node(Script::new(vec![
        Action::transmit(ChannelId::new(2), 1),
        Action::transmit(ChannelId::new(2), 1),
    ]));
    exec.add_node(Script::new(vec![
        Action::Sleep,
        Action::transmit(ChannelId::new(2), 2),
    ]));
    let mut sinks = (Trace::new(), RunRecorder::new());
    exec.run_observed(&mut sinks).expect("finishes");
    let (trace, recorder) = sinks;
    let chart = activity_chart(&trace, 50);
    assert!(chart.contains("ch    2 |MX"), "chart was:\n{chart}");
    let channels = recorder.into_record(0).channels;
    let idle = ChannelTally {
        channel: 1,
        ..ChannelTally::default()
    };
    let busy = ChannelTally {
        channel: 2,
        messages: 1,
        collisions: 1,
        transmissions: 3,
        ..ChannelTally::default()
    };
    assert_eq!(channels, [idle, busy]);
}

#[test]
fn receiver_only_mode_blinds_exactly_the_transmitters() {
    let cfg = SimConfig::new(2)
        .cd_mode(CdMode::ReceiverOnly)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10);
    let mut exec = Engine::new(cfg);
    let tx = exec.add_node(Script::new(vec![Action::transmit(ChannelId::new(2), 1)]));
    let rx = exec.add_node(Script::new(vec![Action::listen(ChannelId::new(2))]));
    exec.run().expect("finishes");
    assert_eq!(exec.node(tx).heard[0], Feedback::TransmittedBlind);
    assert_eq!(exec.node(rx).heard[0], Feedback::Message(1));
}

#[test]
fn boxed_heterogeneous_population() {
    // Mixing protocol types through boxing: a beacon and a scripted ear.
    struct Beacon;
    impl Protocol for Beacon {
        type Msg = u32;
        fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u32> {
            Action::transmit(ChannelId::PRIMARY, 9)
        }
        fn observe(&mut self, _: &RoundContext, _: Feedback<u32>, _: &mut SmallRng) {}
        fn status(&self) -> Status {
            Status::Active
        }
    }
    let cfg = SimConfig::new(2).max_rounds(10);
    let mut exec: Engine<Box<dyn Protocol<Msg = u32>>> = Engine::new(cfg);
    exec.add_node(Box::new(Beacon));
    exec.add_node(Box::new(Script::new(vec![Action::listen(
        ChannelId::PRIMARY,
    )])));
    let report = exec.run().expect("finishes");
    assert_eq!(report.solved_round, Some(0));
}

#[test]
fn max_rounds_zero_times_out_immediately() {
    let cfg = SimConfig::new(2).max_rounds(0);
    let mut exec = Engine::new(cfg).populated([Script::new(vec![Action::Sleep])]);
    assert!(matches!(exec.run(), Err(mac_sim::SimError::Timeout { .. })));
}

#[test]
fn stepping_matches_run_exactly() {
    // Driving with step() produces identical results to run().
    let build = || {
        let cfg = SimConfig::new(4)
            .seed(6)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100);
        let mut exec = Engine::new(cfg);
        exec.add_node(Script::new(vec![
            Action::transmit(ChannelId::new(2), 1),
            Action::transmit(ChannelId::PRIMARY, 2),
        ]));
        exec.add_node(Script::new(vec![
            Action::listen(ChannelId::new(2)),
            Action::listen(ChannelId::PRIMARY),
        ]));
        exec
    };
    let run_report = build().run().expect("runs");
    let mut stepped = build();
    let mut steps = 0;
    while stepped.step().expect("steps") == mac_sim::StepStatus::Running {
        steps += 1;
        assert!(steps < 100, "stepping never finished");
    }
    let step_report = stepped.report();
    assert_eq!(run_report.solved_round, step_report.solved_round);
    assert_eq!(run_report.rounds_executed, step_report.rounds_executed);
    assert_eq!(
        run_report.metrics.transmissions,
        step_report.metrics.transmissions
    );
    assert_eq!(run_report.leaders, step_report.leaders);
}

#[test]
fn step_is_idempotent_after_finish() {
    let cfg = SimConfig::new(2).max_rounds(100);
    let mut exec =
        Engine::new(cfg).populated([Script::new(vec![Action::transmit(ChannelId::PRIMARY, 0)])]);
    assert_eq!(exec.step().expect("steps"), mac_sim::StepStatus::Finished);
    let before = exec.current_round();
    assert_eq!(exec.step().expect("steps"), mac_sim::StepStatus::Finished);
    assert_eq!(
        exec.current_round(),
        before,
        "finished step must not advance"
    );
    assert!(exec.is_finished());
}

#[test]
fn mid_run_report_is_a_snapshot() {
    let cfg = SimConfig::new(2)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100);
    let mut exec = Engine::new(cfg);
    exec.add_node(Script::new(vec![
        Action::listen(ChannelId::new(2)),
        Action::transmit(ChannelId::PRIMARY, 0),
    ]));
    exec.step().expect("steps");
    let snap = exec.report();
    assert_eq!(snap.rounds_executed, 1);
    assert_eq!(snap.solved_round, None);
    assert_eq!(snap.active_remaining.len(), 1);
    exec.step().expect("steps");
    let done = exec.report();
    assert_eq!(done.rounds_executed, 2);
    assert_eq!(done.solved_round, Some(1));
}

#[test]
fn run_after_partial_stepping_continues() {
    let cfg = SimConfig::new(2)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100);
    let mut exec = Engine::new(cfg);
    exec.add_node(Script::new(vec![
        Action::listen(ChannelId::new(2)),
        Action::listen(ChannelId::new(2)),
        Action::transmit(ChannelId::PRIMARY, 0),
    ]));
    exec.step().expect("steps");
    let report = exec.run().expect("continues");
    assert_eq!(report.rounds_executed, 3);
    assert_eq!(report.solved_round, Some(2));
}
