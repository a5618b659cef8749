//! Observer-effect freedom: attaching an observer — a `RunRecorder` span
//! sink or a `TelemetrySink` feeding a `MetricsHub` — must not change a
//! single bit of any run.
//!
//! The span-model recorder rides the engine's event stream and asks for
//! per-node phase labels (`wants_node_phases`), which makes the engine do
//! extra label reads on the observation path. This test replays the two
//! behavioral oracles' full grids — the 30-case `engine_oracle` grid and
//! the 42-case `phase_equivalence` grid — once bare and once with a
//! recorder attached, demanding identical reports, metrics, node statuses,
//! and stats; then replays the same grids with the telemetry sink, which
//! tallies counters only (no span tree), under the same demand. Protocols
//! draw randomness only inside `act`/`observe`, so a single extra RNG
//! draw anywhere would shift every subsequent decision of that node and
//! diverge the trajectory; bit-identical runs certify the observers
//! consumed zero draws.

use contention::{FullAlgorithm, FullStats, Params, TwoActive};
use mac_sim::obs::{RunRecord, RunRecorder};
use mac_sim::{
    CdMode, Counter, Engine, EventSink, Protocol, Registry, RunReport, SimConfig, SimError, Status,
    StopWhen, TelemetrySink,
};

const MODES: [CdMode; 3] = [CdMode::Strong, CdMode::ReceiverOnly, CdMode::None];

fn finish<P: Protocol>(result: Result<RunReport, SimError>, exec: &Engine<P>) -> RunReport {
    match result {
        Ok(report) => report,
        // Weak CD modes can time out by design; the partial run is still a
        // deterministic fingerprint.
        Err(SimError::Timeout { .. }) => exec.report(),
        Err(e) => panic!("unexpected simulation error: {e}"),
    }
}

/// One run of the configuration with `sink` attached (`&mut ()` for a bare
/// run): the report and every node's final status.
fn observed_run<P: Protocol, S: EventSink>(
    c: u32,
    seed: u64,
    mode: CdMode,
    build: impl Fn() -> P,
    count: usize,
    sink: &mut S,
) -> (RunReport, Vec<Status>) {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .cd_mode(mode)
        .stop_when(StopWhen::Solved)
        .max_rounds(2_000);
    let mut engine = Engine::new(cfg);
    for _ in 0..count {
        engine.add_node(build());
    }
    let report = finish(engine.run_observed(sink), &engine);
    (report, engine.iter_nodes().map(Protocol::status).collect())
}

/// Runs the same configuration twice — bare, then with a recorder — and
/// returns everything observable from both runs.
#[allow(clippy::type_complexity)]
fn bare_and_recorded<P: Protocol>(
    c: u32,
    seed: u64,
    mode: CdMode,
    build: impl Fn() -> P,
    count: usize,
) -> (
    (RunReport, Vec<Status>),
    (RunReport, Vec<Status>),
    RunRecord,
) {
    let mut recorder = RunRecorder::new();
    (
        observed_run(c, seed, mode, &build, count, &mut ()),
        observed_run(c, seed, mode, &build, count, &mut recorder),
        recorder.into_record(seed),
    )
}

fn assert_identical(label: &str, bare: &(RunReport, Vec<Status>), obs: &(RunReport, Vec<Status>)) {
    assert_eq!(
        bare.0.solved_round, obs.0.solved_round,
        "{label}: solved_round"
    );
    assert_eq!(bare.0.solver, obs.0.solver, "{label}: solver");
    assert_eq!(
        bare.0.rounds_executed, obs.0.rounds_executed,
        "{label}: rounds_executed"
    );
    assert_eq!(bare.0.leaders, obs.0.leaders, "{label}: leader set");
    assert_eq!(bare.0.metrics, obs.0.metrics, "{label}: full metrics");
    assert_eq!(bare.1, obs.1, "{label}: node statuses");
}

/// The recorder's own totals must also be consistent with the run it
/// observed — a recorder that is inert but wrong would pass the identity
/// checks alone.
fn assert_record_consistent(label: &str, report: &RunReport, record: &RunRecord) {
    assert_eq!(
        record.rounds, report.rounds_executed,
        "{label}: record rounds"
    );
    assert_eq!(
        record.transmissions, report.metrics.transmissions,
        "{label}: record tx"
    );
    assert_eq!(record.listens, report.metrics.listens, "{label}: record rx");
    assert_eq!(
        record.solved_round, report.solved_round,
        "{label}: record solve"
    );
}

/// Runs the same configuration twice — bare, then with a [`TelemetrySink`]
/// tallying the metrics-hub counters — and returns both observations plus
/// the flushed registry.
#[allow(clippy::type_complexity)]
fn bare_and_metered<P: Protocol>(
    c: u32,
    seed: u64,
    mode: CdMode,
    build: impl Fn() -> P,
    count: usize,
) -> ((RunReport, Vec<Status>), (RunReport, Vec<Status>), Registry) {
    let mut sink = TelemetrySink::new();
    let bare = observed_run(c, seed, mode, &build, count, &mut ());
    let observed = observed_run(c, seed, mode, &build, count, &mut sink);
    let mut registry = Registry::new();
    sink.flush_into(&mut registry);
    (bare, observed, registry)
}

/// The telemetry counters must agree with the run they observed, for the
/// same reason `assert_record_consistent` exists: an inert-but-wrong
/// observer would pass the identity checks alone.
fn assert_registry_consistent(label: &str, report: &RunReport, registry: &Registry) {
    assert_eq!(registry.counter(Counter::EngineRuns), 1, "{label}: runs");
    assert_eq!(
        registry.counter(Counter::EngineRounds),
        report.rounds_executed,
        "{label}: registry rounds"
    );
    assert_eq!(
        registry.counter(Counter::EngineTransmissions),
        report.metrics.transmissions,
        "{label}: registry tx"
    );
    assert_eq!(
        registry.counter(Counter::EngineListens),
        report.metrics.listens,
        "{label}: registry rx"
    );
    assert_eq!(
        registry.counter(Counter::EngineSolved),
        u64::from(report.solved_round.is_some()),
        "{label}: registry solve"
    );
}

#[test]
fn engine_oracle_grid_is_observer_free() {
    let (c, n, active) = (16u32, 1u64 << 10, 60usize);
    let params = Params::practical();
    let mut cases = 0;
    for mode in MODES {
        for seed in [11u64, 22, 33, 44, 55] {
            let label = format!("full cd={mode:?} seed={seed}");
            let (bare, obs, record) =
                bare_and_recorded(c, seed, mode, || FullAlgorithm::new(params, c, n), active);
            assert_identical(&label, &bare, &obs);
            assert_record_consistent(&label, &obs.0, &record);
            cases += 1;

            let label = format!("two-active cd={mode:?} seed={seed}");
            let (bare, obs, record) = bare_and_recorded(c, seed, mode, || TwoActive::new(c, n), 2);
            assert_identical(&label, &bare, &obs);
            assert_record_consistent(&label, &obs.0, &record);
            cases += 1;
        }
    }
    assert_eq!(cases, 30, "the engine-oracle grid is 30 cases");
}

#[test]
fn phase_equivalence_grid_is_observer_free() {
    let params = Params::practical();
    // The same grid as tests/phase_equivalence.rs: the pipeline path and
    // the small-C fallback path.
    let configs: [(u32, u64, usize, &[u64]); 2] = [
        (16, 1 << 10, 60, &[11, 22, 33, 44, 55, 66, 77, 88, 99, 110]),
        (4, 1 << 10, 40, &[7, 14, 21, 28]),
    ];
    let mut cases = 0;
    for (c, n, active, seeds) in configs {
        for mode in MODES {
            for &seed in seeds {
                let label = format!("C={c} n={n} |A|={active} cd={mode:?} seed={seed}");
                let (bare, obs, record) =
                    bare_and_recorded(c, seed, mode, || FullAlgorithm::new(params, c, n), active);
                assert_identical(&label, &bare, &obs);
                assert_record_consistent(&label, &obs.0, &record);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 42, "the phase-equivalence grid is 42 cases");
}

#[test]
fn engine_oracle_grid_is_telemetry_free() {
    let (c, n, active) = (16u32, 1u64 << 10, 60usize);
    let params = Params::practical();
    let mut cases = 0;
    for mode in MODES {
        for seed in [11u64, 22, 33, 44, 55] {
            let label = format!("metered full cd={mode:?} seed={seed}");
            let (bare, obs, registry) =
                bare_and_metered(c, seed, mode, || FullAlgorithm::new(params, c, n), active);
            assert_identical(&label, &bare, &obs);
            assert_registry_consistent(&label, &obs.0, &registry);
            cases += 1;

            let label = format!("metered two-active cd={mode:?} seed={seed}");
            let (bare, obs, registry) = bare_and_metered(c, seed, mode, || TwoActive::new(c, n), 2);
            assert_identical(&label, &bare, &obs);
            assert_registry_consistent(&label, &obs.0, &registry);
            cases += 1;
        }
    }
    assert_eq!(cases, 30, "the engine-oracle grid is 30 cases");
}

#[test]
fn phase_equivalence_grid_is_telemetry_free() {
    let params = Params::practical();
    // The same grid as tests/phase_equivalence.rs: the pipeline path and
    // the small-C fallback path.
    let configs: [(u32, u64, usize, &[u64]); 2] = [
        (16, 1 << 10, 60, &[11, 22, 33, 44, 55, 66, 77, 88, 99, 110]),
        (4, 1 << 10, 40, &[7, 14, 21, 28]),
    ];
    let mut cases = 0;
    for (c, n, active, seeds) in configs {
        for mode in MODES {
            for &seed in seeds {
                let label = format!("metered C={c} n={n} |A|={active} cd={mode:?} seed={seed}");
                let (bare, obs, registry) =
                    bare_and_metered(c, seed, mode, || FullAlgorithm::new(params, c, n), active);
                assert_identical(&label, &bare, &obs);
                assert_registry_consistent(&label, &obs.0, &registry);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 42, "the phase-equivalence grid is 42 cases");
}

/// One run watched by both observers at once: the record's totals, solve
/// and per-channel rows must equal the flushed telemetry counters.
#[test]
fn recorder_and_telemetry_agree_on_every_tally() {
    let (c, n, active) = (16u32, 1u64 << 10, 60usize);
    let params = Params::practical();
    for mode in MODES {
        for seed in [11u64, 22, 33, 44, 55] {
            let label = format!("full cd={mode:?} seed={seed}");
            let mut sinks = (RunRecorder::new(), TelemetrySink::new());
            let build = || FullAlgorithm::new(params, c, n);
            observed_run(c, seed, mode, build, active, &mut sinks);
            let (recorder, mut sink) = sinks;
            let record = recorder.into_record(seed);
            let mut registry = Registry::new();
            sink.flush_into(&mut registry);
            let flushed = [
                Counter::EngineRounds,
                Counter::EngineTransmissions,
                Counter::EngineListens,
                Counter::EngineSolved,
            ]
            .map(|counter| registry.counter(counter));
            let solved = u64::from(record.solved_round.is_some());
            assert_eq!(
                [record.rounds, record.transmissions, record.listens, solved],
                flushed,
                "{label}: rounds, tx, rx, solve"
            );
            assert!(!record.channels.is_empty(), "{label}: no channel rows");
            let counters = registry.counters();
            for t in &record.channels {
                let ch = t.channel;
                for (kind, count) in [
                    ("silence", t.silences),
                    ("message", t.messages),
                    ("collision", t.collisions),
                ] {
                    let key = format!(
                        "engine_channel_outcomes_total{{channel=\"{ch}\",kind=\"{kind}\"}}"
                    );
                    let flushed = counters.get(&key).copied().unwrap_or(0);
                    assert_eq!(flushed, count, "{label}: {key}");
                }
            }
        }
    }
}

#[test]
fn stats_survive_observation_unchanged() {
    // FullStats (the per-node counters the experiments read) are part of
    // the observable surface too.
    let (c, n, active) = (16u32, 1u64 << 10, 60usize);
    let params = Params::practical();
    for seed in [5u64, 15, 25] {
        let run = |observe: bool| -> Vec<FullStats> {
            let cfg = SimConfig::new(c).seed(seed).max_rounds(2_000);
            let mut exec = Engine::new(cfg);
            for _ in 0..active {
                exec.add_node(FullAlgorithm::new(params, c, n));
            }
            if observe {
                let mut recorder = RunRecorder::new();
                exec.run_observed(&mut recorder).expect("solves");
            } else {
                exec.run().expect("solves");
            }
            exec.iter_nodes().map(FullAlgorithm::stats).collect()
        };
        assert_eq!(run(false), run(true), "seed {seed}: FullStats diverged");
    }
}
