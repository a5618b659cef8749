//! Property suite pinning the active-set scheduler to the dense O(n)
//! reference implementation.
//!
//! [`mac_sim::Engine`] schedules via a wake agenda + live set
//! (O(|live|)/round); [`mac_sim::dense::DenseEngine`] executes the same
//! semantics with full slot scans (O(n)/round). Over random wake
//! schedules × collision-detection modes × fault layers, both must
//! produce **bit-identical** results: the same [`RunReport`] (solve data,
//! leaders, active survivors, full metrics) and the same structured
//! [`RunRecord`] (span accounting, per-channel tallies) — not merely the
//! same solve round. Any divergence means the agenda/live-set/retirement
//! bookkeeping changed observable semantics, which is exactly what this
//! suite exists to catch.

use mac_sim::dense::DenseEngine;
use mac_sim::fault::{CrashStop, JamBudget, Layered, LossyChannel, NoisyCd};
use mac_sim::obs::{RunRecord, RunRecorder};
use mac_sim::{
    Action, CdMode, ChannelId, Engine, EventSink, Feedback, FeedbackModel, Metrics, NodeId,
    Protocol, RoundContext, RunReport, SimConfig, SimError, SlotState, Status, StopWhen,
};
use proptest::collection::vec as prop_vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;

/// Seeded random backoff: transmits on a random channel with decaying
/// probability, terminates once it hears its own lone primary-channel
/// transmission echo back. Exercises per-node RNG every round (so any
/// stream drift diverges immediately) and spreads load over channels (so
/// channel-outcome tallies are non-trivial).
struct Backoff {
    channels: u32,
    transmitted_primary: bool,
    done: bool,
}

impl Backoff {
    fn new(channels: u32) -> Self {
        Backoff {
            channels,
            transmitted_primary: false,
            done: false,
        }
    }
}

impl Protocol for Backoff {
    type Msg = u64;

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u64> {
        let p = 2.0_f64.powi(-(1 + (ctx.local_round % 8) as i32));
        if rng.gen_bool(p.max(0.05)) {
            let channel = ChannelId::new(rng.gen_range(1..=self.channels));
            self.transmitted_primary = channel == ChannelId::PRIMARY;
            Action::transmit(channel, ctx.round)
        } else {
            self.transmitted_primary = false;
            Action::listen(ChannelId::PRIMARY)
        }
    }

    fn observe(&mut self, _: &RoundContext, fb: Feedback<u64>, _: &mut SmallRng) {
        if self.transmitted_primary && matches!(fb, Feedback::Message(_)) {
            self.done = true;
        }
    }

    fn status(&self) -> Status {
        if self.done {
            Status::Leader
        } else {
            Status::Active
        }
    }

    fn phase(&self) -> &'static str {
        if self.done {
            "done"
        } else {
            "backoff"
        }
    }
}

/// Everything a run can legally differ in, in one comparable value.
type Fingerprint = (
    Result<RunReportKey, String>,
    RunRecord, // wall_ns normalized to 0
);

type RunReportKey = (
    Option<u64>,
    Option<NodeId>,
    u64,
    Vec<NodeId>,
    Vec<NodeId>,
    Metrics,
);

fn report_key(report: &RunReport) -> RunReportKey {
    (
        report.solved_round,
        report.solver,
        report.rounds_executed,
        report.leaders.clone(),
        report.active_remaining.clone(),
        report.metrics.clone(),
    )
}

/// The workload both engines execute: node count, per-node wake offsets,
/// CD mode, and which fault stack rides along.
#[derive(Debug, Clone)]
struct Workload {
    seed: u64,
    channels: u32,
    wake_offsets: Vec<u64>,
    cd_mode: CdMode,
    faults: FaultChoice,
}

#[derive(Debug, Clone, Copy)]
enum FaultChoice {
    Clean,
    CrashRandom { f: usize, window: u64 },
    Assassin { kills: u64 },
    JamBudget { budget: u64 },
    Stacked,
}

fn config(w: &Workload) -> SimConfig {
    SimConfig::new(w.channels)
        .seed(w.seed)
        .cd_mode(w.cd_mode)
        .max_rounds(200_000)
        .round_budget(5_000)
}

/// Runs the workload on either engine via the two closures, so active-set
/// and dense runs are built by the exact same code path.
fn run_workload(w: &Workload, dense: bool) -> Fingerprint {
    fn drive<F: FeedbackModel>(w: &Workload, feedback: F, dense: bool) -> Fingerprint {
        let mut recorder = RunRecorder::new();
        let outcome = if dense {
            let mut eng = DenseEngine::with_feedback(config(w), feedback);
            for &offset in &w.wake_offsets {
                eng.add_node_at(Backoff::new(w.channels), offset);
            }
            eng.run_observed(&mut recorder)
        } else {
            let mut eng = Engine::with_feedback(config(w), feedback);
            for &offset in &w.wake_offsets {
                eng.add_node_at(Backoff::new(w.channels), offset);
            }
            eng.run_observed(&mut recorder)
        };
        let key = outcome
            .as_ref()
            .map(report_key)
            .map_err(|e| format!("{e:?}"));
        let mut record = recorder.into_record(w.seed);
        // Wall-clock fields are the one legitimately nondeterministic part
        // of a record; everything else must match bit for bit.
        record.wall_ns = 0;
        for span in &mut record.spans {
            span.wall_ns = 0;
        }
        (key, record)
    }

    let n = w.wake_offsets.len();
    match w.faults {
        FaultChoice::Clean => drive(w, w.cd_mode, dense),
        FaultChoice::CrashRandom { f, window } => drive(
            w,
            Layered::new(CrashStop::random(f.min(n), n, window), w.cd_mode),
            dense,
        ),
        FaultChoice::Assassin { kills } => drive(
            w,
            Layered::new(CrashStop::assassin(kills), w.cd_mode),
            dense,
        ),
        FaultChoice::JamBudget { budget } => drive(w, JamBudget::new(w.cd_mode, budget), dense),
        FaultChoice::Stacked => drive(
            w,
            Layered::new(
                NoisyCd::symmetric(0.05),
                Layered::new(
                    LossyChannel::new(0.05),
                    Layered::new(
                        CrashStop::random(1.min(n), n, 16),
                        JamBudget::new(w.cd_mode, 1),
                    ),
                ),
            ),
            dense,
        ),
    }
}

fn cd_mode_strategy() -> impl Strategy<Value = CdMode> {
    prop_oneof![
        Just(CdMode::Strong),
        Just(CdMode::ReceiverOnly),
        Just(CdMode::None),
    ]
}

fn fault_strategy() -> impl Strategy<Value = FaultChoice> {
    prop_oneof![
        Just(FaultChoice::Clean),
        (1usize..3, 1u64..32).prop_map(|(f, window)| FaultChoice::CrashRandom { f, window }),
        (1u64..3).prop_map(|kills| FaultChoice::Assassin { kills }),
        (1u64..4).prop_map(|budget| FaultChoice::JamBudget { budget }),
        Just(FaultChoice::Stacked),
    ]
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        any::<u64>(),
        2u32..9,
        prop_vec(0u64..48, 1..10),
        cd_mode_strategy(),
        fault_strategy(),
    )
        .prop_map(|(seed, channels, wake_offsets, cd_mode, faults)| Workload {
            seed,
            channels,
            wake_offsets,
            cd_mode,
            faults,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: for any workload, the active-set engine and
    /// the dense reference produce bit-identical reports and records.
    #[test]
    fn active_set_matches_dense_reference(w in workload_strategy()) {
        let active = run_workload(&w, false);
        let dense = run_workload(&w, true);
        prop_assert_eq!(active, dense);
    }
}

/// Deterministic spot-checks of corners the random strategy can miss:
/// everyone waking late, a crash scheduled before its victim's wake round,
/// and an all-crashed population wedging against the round budget.
#[test]
fn corner_cases_match_dense_reference() {
    let base = Workload {
        seed: 11,
        channels: 4,
        wake_offsets: vec![7, 7, 7],
        cd_mode: CdMode::Strong,
        faults: FaultChoice::Clean,
    };
    assert_eq!(run_workload(&base, false), run_workload(&base, true));

    // Crash a node before it ever wakes: schedule round 0, wake round 9.
    let mut pre_wake_crash = base.clone();
    pre_wake_crash.wake_offsets = vec![0, 9];
    pre_wake_crash.faults = FaultChoice::CrashRandom { f: 1, window: 1 };
    assert_eq!(
        run_workload(&pre_wake_crash, false),
        run_workload(&pre_wake_crash, true)
    );

    // Crash everyone: both engines must wedge identically on the budget.
    let mut all_dead = base.clone();
    all_dead.faults = FaultChoice::CrashRandom { f: 3, window: 2 };
    assert_eq!(
        run_workload(&all_dead, false),
        run_workload(&all_dead, true)
    );
}

/// Per-round scheduler view of a scripted run — round counter, live and
/// pending counts, every slot's state — followed by the final report.
type Transcript = (Vec<(u64, usize, usize, Vec<SlotState>)>, RunReportKey);

/// Steps `$engine` for `$rounds` rounds from nodes waking at `$initial`;
/// each `(before, wake)` in `$inject` adds a node waking in round `wake`
/// just before round `before` executes. One macro so both engines run the
/// exact same script (they share no trait).
macro_rules! scripted_run {
    ($engine:ident, $initial:expr, $inject:expr, $rounds:expr) => {{
        let cfg = SimConfig::new(4).seed(5).stop_when(StopWhen::AllTerminated);
        let feedback = Layered::new(NoisyCd::symmetric(0.05), CdMode::Strong);
        let mut eng = $engine::with_feedback(cfg, feedback);
        for &wake in $initial {
            eng.add_node_at(Backoff::new(4), wake);
        }
        let mut rounds = Vec::new();
        for round in 0..$rounds {
            for &(before, wake) in $inject {
                if before == round {
                    eng.add_node_at(Backoff::new(4), wake);
                }
            }
            eng.step_observed(&mut ()).unwrap();
            let states = (0..eng.len()).map(|i| eng.slot_state(NodeId(i))).collect();
            rounds.push((
                eng.current_round(),
                eng.live_len(),
                eng.pending_len(),
                states,
            ));
        }
        let transcript: Transcript = (rounds, report_key(&eng.report()));
        transcript
    }};
}

/// A mid-run `add_node_at` whose start round has already passed: the slot
/// stays `Pending` for good, counts in `pending_len`, and never acts.
#[test]
fn mid_run_add_with_past_start_round_never_wakes() {
    let (rounds, report) = scripted_run!(Engine, &[0, 0], &[(4, 1)], 12);
    assert_eq!(
        (rounds.clone(), report.clone()),
        scripted_run!(DenseEngine, &[0, 0], &[(4, 1)], 12)
    );
    for (_, _, pending, states) in &rounds[4..] {
        assert_eq!(states[2], SlotState::Pending);
        assert!(*pending >= 1);
    }
    assert_eq!(
        report.5.transmissions_per_node[2], 0,
        "the stale slot acted"
    );
}

/// A mid-run injection due before an already-queued later one — the
/// `TrafficSpec::rearm` pattern — wakes at its own round, and same-round
/// wakes join the live set in NodeId order.
#[test]
fn mid_run_injection_below_queued_wake_fires_on_time() {
    // Before round 2 queue node 2 for round 9; before round 3 queue node 3
    // for round 5 (below the tail), node 4 for round 9, node 5 for round 5.
    let inject: &[(u64, u64)] = &[(2, 9), (3, 5), (3, 9), (3, 5)];
    let (rounds, report) = scripted_run!(Engine, &[0, 0], inject, 14);
    assert_eq!(
        (rounds.clone(), report),
        scripted_run!(DenseEngine, &[0, 0], inject, 14)
    );
    // `rounds[r]` is the view after round `r` executed.
    let (_, _, _, before) = &rounds[4];
    let (_, _, _, at_five) = &rounds[5];
    assert!(before[2..].iter().all(|&s| s == SlotState::Pending));
    assert_ne!(at_five[3], SlotState::Pending, "node 3 wakes in round 5");
    assert_ne!(at_five[5], SlotState::Pending, "node 5 wakes in round 5");
    assert_eq!(
        (at_five[2], at_five[4]),
        (SlotState::Pending, SlotState::Pending)
    );
    let (_, _, _, at_nine) = &rounds[9];
    assert_ne!(at_nine[2], SlotState::Pending, "node 2 wakes in round 9");
    assert_ne!(at_nine[4], SlotState::Pending, "node 4 wakes in round 9");
}

/// A round that fails with `ChannelOutOfRange` latches in both engines:
/// the steps after it return the same error and run nothing. Neither
/// engine reports anything of the failed round, so their whole reports,
/// metrics included, and their records agree.
#[test]
fn a_channel_out_of_range_error_latches_in_both_engines() {
    macro_rules! failed_run {
        ($engine:ident) => {{
            let cfg = SimConfig::new(2).seed(3).stop_when(StopWhen::AllTerminated);
            let mut engine = $engine::new(cfg.max_rounds(50));
            for _ in 0..5 {
                engine.add_node(Backoff::new(2));
            }
            // Picks from 64 channels, from round 3 on.
            engine.add_node_at(Backoff::new(64), 3);
            let mut recorder = RunRecorder::new();
            let err = engine.run_observed(&mut recorder).unwrap_err();
            let report = report_key(&engine.report());
            for _ in 0..2 {
                assert_eq!(engine.step_observed(&mut recorder), Err(err.clone()));
            }
            assert_eq!(
                report_key(&engine.report()),
                report,
                "a failed round ran again"
            );
            let mut record = recorder.into_record(3);
            record.wall_ns = 0;
            for span in &mut record.spans {
                span.wall_ns = 0;
            }
            (err, report, record)
        }};
    }
    let (err, report, record) = failed_run!(Engine);
    assert!(matches!(
        err,
        SimError::ChannelOutOfRange { round: 3.., .. }
    ));
    assert!(record.rounds >= 3);
    let metrics = &report.5;
    assert_eq!(
        (metrics.transmissions, metrics.listens),
        (record.transmissions, record.listens)
    );
    assert_eq!((err, report, record), failed_run!(DenseEngine));
}

/// A fully scripted node for retirement-order checks: transmits on the
/// primary channel in round `tx` (listens otherwise) and terminates itself
/// as `Inactive` on observing round `quit`.
struct Scripted {
    tx: Option<u64>,
    quit: Option<u64>,
    done: bool,
}

impl Scripted {
    fn new(tx: Option<u64>, quit: Option<u64>) -> Self {
        Scripted {
            tx,
            quit,
            done: false,
        }
    }
}

impl Protocol for Scripted {
    type Msg = u64;

    fn act(&mut self, ctx: &RoundContext, _: &mut SmallRng) -> Action<u64> {
        if self.tx == Some(ctx.round) {
            Action::transmit(ChannelId::PRIMARY, ctx.round)
        } else {
            Action::listen(ChannelId::PRIMARY)
        }
    }

    fn observe(&mut self, ctx: &RoundContext, _: Feedback<u64>, _: &mut SmallRng) {
        if self.quit == Some(ctx.round) {
            self.done = true;
        }
    }

    fn status(&self) -> Status {
        if self.done {
            Status::Inactive
        } else {
            Status::Active
        }
    }
}

/// Records the retirement events and the solves of a run.
#[derive(Default)]
struct Retirements {
    retired: Vec<(u64, NodeId, SlotState)>,
    solved: Vec<(u64, NodeId)>,
}

impl EventSink for Retirements {
    fn on_solved(&mut self, round: u64, solver: NodeId) {
        self.solved.push((round, solver));
    }

    fn on_retired(&mut self, round: u64, node: NodeId, state: SlotState) {
        self.retired.push((round, node, state));
    }
}

/// Steps `$engine` for `$rounds` rounds over `$nodes` (`(start round,
/// Scripted)` pairs) and returns the recorded events plus every slot's
/// state after each round. A macro so both engines run the exact same
/// script (they share no trait).
macro_rules! retirement_run {
    ($engine:ident, $cfg:expr, $feedback:expr, $nodes:expr, $rounds:expr) => {{
        let mut eng = $engine::with_feedback($cfg, $feedback);
        for (start, node) in $nodes {
            eng.add_node_at(node, start);
        }
        let mut sink = Retirements::default();
        let mut states: Vec<Vec<SlotState>> = Vec::new();
        for _ in 0..$rounds {
            eng.step_observed(&mut sink).unwrap();
            states.push((0..eng.len()).map(|i| eng.slot_state(NodeId(i))).collect());
        }
        (sink, states)
    }};
}

/// The retirement sequence the engine contract prescribes, rebuilt from a
/// run's per-round slot states: within a round, crash-stop victims first
/// (in NodeId order here, as the tests schedule them that way), then the
/// delivered packet's sender, then the nodes that parked, in NodeId order.
fn expected_retirements(
    states: &[Vec<SlotState>],
    solved: &[(u64, NodeId)],
    continuous_delivery: bool,
) -> Vec<(u64, NodeId, SlotState)> {
    let mut out = Vec::new();
    let mut before = vec![SlotState::Pending; states[0].len()];
    for (round, after) in states.iter().enumerate() {
        let round = round as u64;
        let newly = |to: SlotState| -> Vec<NodeId> {
            (0..after.len())
                .filter(|&i| !before[i].is_retired() && after[i] == to)
                .map(NodeId)
                .collect()
        };
        let crashed = newly(SlotState::Crashed);
        let mut terminated = newly(SlotState::Terminated);
        out.extend(
            crashed
                .into_iter()
                .map(|id| (round, id, SlotState::Crashed)),
        );
        let sender = solved
            .iter()
            .find(|&&(r, id)| continuous_delivery && r == round && terminated.contains(&id));
        if let Some(&(_, id)) = sender {
            terminated.retain(|&n| n != id);
            out.push((round, id, SlotState::Terminated));
        }
        out.extend(
            terminated
                .into_iter()
                .map(|id| (round, id, SlotState::Terminated)),
        );
        before.clone_from(after);
    }
    out
}

/// Under `continuous_delivery` the delivered packet's sender is reported
/// retired before the nodes that park in the same round, even those with
/// a lower NodeId — on both engines' slot states.
#[test]
fn delivered_sender_retires_before_same_round_parks() {
    let cfg = || {
        SimConfig::new(2)
            .seed(3)
            .continuous_delivery(true)
            .stop_when(StopWhen::AllTerminated)
    };
    let nodes = || {
        vec![
            (0, Scripted::new(None, Some(2))),    // parks in round 2
            (0, Scripted::new(Some(2), None)),    // delivered in round 2
            (0, Scripted::new(None, Some(2))),    // parks in round 2
            (1, Scripted::new(Some(4), Some(4))), // delivered and parks in round 4
        ]
    };
    let (active, active_states) = retirement_run!(Engine, cfg(), CdMode::Strong, nodes(), 6);
    let (dense, dense_states) = retirement_run!(DenseEngine, cfg(), CdMode::Strong, nodes(), 6);
    assert_eq!(active_states, dense_states);
    assert_eq!(active.solved, dense.solved);
    assert_eq!(
        active.retired,
        expected_retirements(&dense_states, &dense.solved, true)
    );
    let t = SlotState::Terminated;
    assert_eq!(
        active.retired,
        vec![
            (2, NodeId(1), t),
            (2, NodeId(0), t),
            (2, NodeId(2), t),
            (4, NodeId(3), t)
        ]
    );
}

/// Crash-stop victims — one that never woke, two live ones in the same
/// round — are reported before that round's parks, once each.
#[test]
fn crash_stop_retirements_precede_parks() {
    let cfg = || SimConfig::new(2).seed(4).stop_when(StopWhen::AllTerminated);
    let crashes = || {
        Layered::new(
            CrashStop::schedule(vec![(NodeId(1), 2), (NodeId(3), 2), (NodeId(4), 0)]),
            CdMode::Strong,
        )
    };
    let nodes = || {
        vec![
            (0, Scripted::new(None, Some(2))), // parks in round 2
            (0, Scripted::new(None, None)),    // crashes in round 2
            (0, Scripted::new(None, Some(2))), // parks in round 2
            (0, Scripted::new(None, None)),    // crashes in round 2
            (3, Scripted::new(None, Some(3))), // crashes before it wakes
            (0, Scripted::new(Some(1), Some(3))),
        ]
    };
    let (active, active_states) = retirement_run!(Engine, cfg(), crashes(), nodes(), 5);
    let (dense, dense_states) = retirement_run!(DenseEngine, cfg(), crashes(), nodes(), 5);
    assert_eq!(active_states, dense_states);
    assert_eq!(
        active.retired,
        expected_retirements(&dense_states, &dense.solved, false)
    );
    let (c, t) = (SlotState::Crashed, SlotState::Terminated);
    assert_eq!(
        active.retired,
        vec![
            (0, NodeId(4), c),
            (2, NodeId(1), c),
            (2, NodeId(3), c),
            (2, NodeId(0), t),
            (2, NodeId(2), t),
            (3, NodeId(5), t)
        ]
    );
}
