//! Regression test for the single-representative blind spot of the
//! engine's per-round phase label under staggered wake-ups (the §3
//! transform).
//!
//! The engine's per-round phase label — the one every sink's `on_round`
//! receives and a `Trace` records — is the phase of the lowest-indexed
//! awake, active node. For the paper's globally synchronized algorithms
//! that single representative is exact — but under staggered wake-ups it
//! is not: a *low-indexed late waker* becomes the representative the
//! moment it wakes, and its `"wakeup-listen"` window relabels rounds the
//! actual runners spend mid-protocol. `mac_sim::obs::RunRecorder` closes
//! the blind spot: it labels every transmission/listen with the acting
//! node's own phase, so its spans overlap where phases genuinely ran
//! concurrently and its `phase_node_rounds` accounting stays exact.

use contention::wakeup::{StaggeredStart, LISTEN_ROUNDS};
use contention::{FullAlgorithm, Params};
use mac_sim::obs::{RunRecord, RunRecorder};
use mac_sim::{Engine, RunReport, SimConfig, StopWhen, Trace};

const C: u32 = 32;
const N: u64 = 1 << 10;
const FIRST_WAVE: u64 = 10;
const LATE_OFFSET: u64 = 6;

/// Node 0 wakes *late* while nodes 1..=10 wake at round 0. Low index +
/// late wake is exactly the adversarial shape for representative-based
/// accounting: from round `LATE_OFFSET` until it retires, node 0 is the
/// lowest-indexed active node and stamps every round `"wakeup-listen"`.
fn staggered_run(seed: u64) -> (RunReport, Trace, RunRecord) {
    let cfg = SimConfig::new(C)
        .seed(seed)
        .stop_when(StopWhen::Solved)
        .max_rounds(100_000);
    let mut exec = Engine::new(cfg);
    let node = |c, n| StaggeredStart::new(FullAlgorithm::new(Params::practical(), c, n));
    exec.add_node_at(node(C, N), LATE_OFFSET);
    for _ in 0..FIRST_WAVE {
        exec.add_node_at(node(C, N), 0);
    }
    let mut sinks = (Trace::new(), RunRecorder::new());
    let report = exec.run_observed(&mut sinks).expect("run solves");
    (report, sinks.0, sinks.1.into_record(seed))
}

/// A seed whose run lasts long enough for the late waker to actually wake,
/// listen, and retire while the first wave is still mid-protocol.
fn interesting_run() -> (Trace, RunRecord) {
    for seed in 0..50u64 {
        let (report, trace, record) = staggered_run(seed);
        let solved = report.solved_round.expect("solved");
        if solved > LATE_OFFSET + LISTEN_ROUNDS {
            return (trace, record);
        }
    }
    panic!("no seed in 0..50 yields a long-enough staggered run");
}

#[test]
fn breakdown_mislabels_the_late_wakers_listen_window() {
    let (trace, record) = interesting_run();

    // The blind spot itself: the representative labels book more than one
    // listen window's worth of rounds to "wakeup-listen" — the first
    // wave's 3 rounds plus every round node 0 spent listening, even though
    // the runners were mid-protocol during the latter.
    let listen_rounds = trace
        .rounds()
        .iter()
        .filter(|r| r.phase == "wakeup-listen")
        .count() as u64;
    assert!(
        listen_rounds > LISTEN_ROUNDS,
        "representative labels should overcount wakeup-listen: {listen_rounds}"
    );

    // The recorder sees the same run as *two* wakeup-listen spans: the
    // first wave's window at rounds 0..3, and node 0's own window opening
    // at its wake round.
    let listen_spans: Vec<_> = record
        .spans
        .iter()
        .filter(|s| s.label == "wakeup-listen")
        .collect();
    assert_eq!(
        listen_spans.len(),
        2,
        "expected the first wave's window and the late waker's: {:?}",
        record.spans
    );
    assert_eq!(listen_spans[0].start_round, 0);
    assert_eq!(listen_spans[0].rounds, LISTEN_ROUNDS);
    let late_span = listen_spans[1];
    assert_eq!(late_span.start_round, LATE_OFFSET);

    // Spans overlap where phases genuinely ran concurrently: while node 0
    // listened, the runners were in some *other* phase.
    let concurrent = record.spans.iter().any(|s| {
        s.label != "wakeup-listen"
            && s.start_round <= late_span.end_round
            && late_span.start_round <= s.end_round
    });
    assert!(
        concurrent,
        "runner activity should overlap the late listen window: {:?}",
        record.spans
    );

    // Exact accounting: each first-wave node listens for exactly
    // LISTEN_ROUNDS; the late span's listen tally is node 0's alone.
    assert_eq!(
        record.node_rounds("wakeup-listen"),
        FIRST_WAVE * LISTEN_ROUNDS + late_span.listens,
        "phase_node_rounds must attribute every listen to its own phase"
    );
}

#[test]
fn beacon_rounds_are_pure_transmissions() {
    let (_, record) = interesting_run();
    // Every wakeup-beacon node-round is a transmission on the primary
    // channel — per-phase node-rounds and per-phase transmissions agree.
    let beacon_rounds = record.node_rounds("wakeup-beacon");
    assert!(beacon_rounds > 0, "runners must have beaconed");
    assert_eq!(beacon_rounds, record.phase_tx("wakeup-beacon"));
}

#[test]
fn recorder_accounting_is_conservative() {
    for seed in [3u64, 17, 29] {
        let (report, _, record) = staggered_run(seed);
        // Every action is attributed to exactly one phase: node-rounds sum
        // to transmissions + listens, per-phase transmissions sum to the
        // engine's total.
        let node_rounds: u64 = record.phase_node_rounds.iter().map(|(_, v)| v).sum();
        assert_eq!(node_rounds, record.transmissions + record.listens);
        let phase_tx: u64 = record.phase_transmissions.iter().map(|(_, v)| v).sum();
        assert_eq!(phase_tx, record.transmissions);
        // And the recorder's totals agree with the engine's own metrics.
        assert_eq!(record.transmissions, report.metrics.transmissions);
        assert_eq!(record.listens, report.metrics.listens);
        assert_eq!(record.rounds, report.rounds_executed);
    }
}
