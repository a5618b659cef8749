//! The trial layer: multi-seed execution fan-out for the workspace tests,
//! the examples and `obsdiff record`. The harness's experiments run their
//! batches through its run context instead, which schedules the same
//! single-cell campaign under the run's worker count and cancellation.
//!
//! A *trial* is one full engine run at one seed. Experiments need many of
//! them — round-complexity curves average hundreds of runs per point — so
//! [`fan_out`] spreads trials over OS threads while keeping results
//! **deterministic in the base seed regardless of worker count**: trial `i`
//! always runs at seed `base_seed + i`, and results come back in trial
//! order. The per-trial closure decides everything else — which engine to
//! build, whether to call [`Engine::run`](crate::Engine::run),
//! [`run_summary`](crate::Engine::run_summary) or
//! [`run_observed`](crate::Engine::run_observed) with a sink, what to
//! extract from the finished engine, and which hub shard to flush into.
//!
//! [`fan_out`] is a thin adapter: it schedules a single-cell
//! [`campaign`](crate::campaign) whose aggregate collects results in seed
//! order, so the trial layer and the sweep layer share one scheduler (and
//! one determinism contract). Multi-cell sweeps should build a
//! [`crate::campaign::Campaign`] directly — that is what keeps the pool
//! saturated across grid points and enables streaming aggregation,
//! progress, and resume.

use crate::campaign::{Campaign, Cell, Collect, SeedStream};

/// Runs `trials` seeded executions of `run` and returns their results in
/// seed order: trial `i` runs at seed `base_seed + i`.
///
/// `run` receives the trial's seed and does the whole trial — build the
/// engine, run it, read what the caller needs, flush any sink (a hub shard
/// index is `seed - base_seed`). Trials are spread over `workers` threads
/// (`None`: `available_parallelism()`, the campaign default) in contiguous
/// shards of `trials.div_ceil(workers)` seeds, so replaying a failed shard
/// by seed range is trivial. The output never depends on the worker count:
/// each trial is a pure function of its seed.
///
/// # Panics
///
/// Panics if `workers` is `Some(0)` or if any trial panics (a timeout or
/// protocol error is an experiment bug, not a data point — callers panic
/// with the seed in the message so it can be replayed).
pub fn fan_out<T: Send>(
    trials: usize,
    base_seed: u64,
    workers: Option<usize>,
    run: impl Fn(u64) -> T + Sync,
) -> Vec<T> {
    let workers = workers.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    });
    assert!(workers > 0, "at least one worker thread is required");
    let run = &run;
    let mut campaign = Campaign::new()
        .workers(workers)
        .shard_size(trials.div_ceil(workers).max(1));
    campaign.push(Cell::new(
        trials,
        SeedStream::Offset(base_seed),
        Collect::default,
        move |seed, acc: &mut Collect<T>| acc.0.push(run(seed)),
    ));
    campaign
        .run_collect()
        .into_iter()
        .next()
        .map(|c| c.0)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Feedback};
    use crate::channel::ChannelId;
    use crate::config::{CdMode, SimConfig};
    use crate::engine::{Engine, RunReport};
    use crate::obs::telemetry::{MetricsHub, TelemetrySink};
    use crate::obs::RunRecorder;
    use crate::protocol::{Protocol, RoundContext, Status};
    use crate::traffic::{run_traffic, ArrivalProcess, BackoffMac, TrafficReport, TrafficSpec};
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Transmits on the primary channel with probability 1/2 each round;
    /// solves in a geometric number of rounds, different per seed.
    struct Flip;
    impl Protocol for Flip {
        type Msg = u8;
        fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u8> {
            if rng.gen_bool(0.5) {
                Action::transmit(ChannelId::PRIMARY, 0)
            } else {
                Action::listen(ChannelId::PRIMARY)
            }
        }
        fn observe(&mut self, _ctx: &RoundContext, _fb: Feedback<u8>, _rng: &mut SmallRng) {}
        fn status(&self) -> Status {
            Status::Active
        }
    }

    fn build(seed: u64) -> Engine<Flip> {
        Engine::new(SimConfig::new(1).seed(seed).max_rounds(10_000)).populated((0..4).map(|_| Flip))
    }

    fn solved_round(seed: u64) -> Option<u64> {
        build(seed).run().unwrap().solved_round
    }

    fn traffic(seed: u64) -> TrafficReport {
        let spec = TrafficSpec::new(ArrivalProcess::Poisson { rate: 0.3 }, 80);
        let config = SimConfig::new(2).seed(seed).max_rounds(100_000);
        run_traffic(config, CdMode::Strong, &spec, |pkt| {
            BackoffMac::new(2, 64, pkt)
        })
        .unwrap()
    }

    #[test]
    fn results_come_back_in_seed_order() {
        let seeds = fan_out(10, 5, Some(3), |seed| seed);
        assert_eq!(seeds, (5..15).collect::<Vec<_>>());
        assert!(fan_out(0, 0, None, |seed| seed).is_empty());
    }

    #[test]
    fn single_trial_works() {
        assert_eq!(fan_out(1, 0, None, solved_round).len(), 1);
    }

    #[test]
    fn trials_are_deterministic_and_seed_ordered() {
        let a = fan_out(8, 100, None, solved_round);
        assert_eq!(a, fan_out(8, 100, None, solved_round));
        assert_ne!(a, fan_out(8, 999, None, solved_round));
        // Trial i is exactly the solo run at seed base + i.
        for (i, round) in a.iter().enumerate() {
            assert_eq!(*round, solved_round(100 + i as u64), "trial {i}");
        }
    }

    #[test]
    fn traffic_trials_are_deterministic_and_seed_indexed() {
        let a = fan_out(5, 300, None, traffic);
        assert_eq!(a, fan_out(5, 300, None, traffic));
        assert_ne!(a, fan_out(5, 301, None, traffic), "different base seed");
        assert_eq!(a[3], traffic(303));
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let oneshot = |seed| build(seed).run().unwrap().summary();
        let oneshot_one = fan_out(13, 7, Some(1), oneshot);
        let traffic_one = fan_out(5, 300, Some(1), traffic);
        for workers in [1, 2, 3, 8, 32] {
            assert_eq!(
                oneshot_one,
                fan_out(13, 7, Some(workers), oneshot),
                "one-shot trials: {workers} workers diverged from 1"
            );
            assert_eq!(
                traffic_one,
                fan_out(5, 300, Some(workers), traffic),
                "traffic trials: {workers} workers diverged from 1"
            );
        }
    }

    #[test]
    fn summaries_match_full_reports() {
        let full = fan_out(6, 42, None, |seed| build(seed).run().unwrap().summary());
        let summaries = fan_out(6, 42, None, |seed| build(seed).run_summary().unwrap());
        assert_eq!(summaries, full);
    }

    #[test]
    fn recorded_trials_match_reports() {
        let pairs = fan_out(4, 42, None, |seed| {
            let mut recorder = RunRecorder::new();
            let report = build(seed).run_observed(&mut recorder).unwrap();
            (report, recorder.into_record(seed))
        });
        for (report, record) in &pairs {
            assert_eq!(record.transmissions, report.metrics.transmissions);
            assert_eq!(record.listens, report.metrics.listens);
            assert_eq!(record.rounds, report.rounds_executed);
            assert_eq!(record.solved_round, report.solved_round);
        }
        assert_eq!(pairs[2].1.seed, 44);
    }

    #[test]
    fn observed_trials_match_bare_and_tally_into_the_hub() {
        use crate::Counter;
        let hub = MetricsHub::new(3);
        let observed = fan_out(6, 42, None, |seed| {
            let mut sink = TelemetrySink::new();
            let report = build(seed).run_observed(&mut sink).unwrap();
            sink.flush_to(&hub, (seed - 42) as usize);
            report.summary()
        });
        let bare = fan_out(6, 42, None, |seed| build(seed).run().unwrap());
        let bare_summaries: Vec<_> = bare.iter().map(RunReport::summary).collect();
        assert_eq!(bare_summaries, observed, "telemetry perturbed the runs");
        let snap = hub.snapshot();
        assert_eq!(snap.registry.counter(Counter::EngineRuns), 6);
        assert_eq!(snap.registry.counter(Counter::EngineSolved), 6);
        let rounds: u64 = bare.iter().map(|r| r.rounds_executed).sum();
        assert_eq!(snap.registry.counter(Counter::EngineRounds), rounds);
    }

    // The seed-carrying message is printed by the worker thread; the scope
    // re-panics with its own payload, so only the panic itself is asserted.
    #[test]
    #[should_panic]
    fn failing_trial_panics_with_seed() {
        let build = |seed: u64| {
            let mut engine = Engine::new(SimConfig::new(1).seed(seed).max_rounds(2));
            // Two steady transmitters collide forever: guaranteed timeout.
            struct Always;
            impl Protocol for Always {
                type Msg = u8;
                fn act(&mut self, _c: &RoundContext, _r: &mut SmallRng) -> Action<u8> {
                    Action::transmit(ChannelId::PRIMARY, 0)
                }
                fn observe(&mut self, _c: &RoundContext, _f: Feedback<u8>, _r: &mut SmallRng) {}
                fn status(&self) -> Status {
                    Status::Active
                }
            }
            engine.add_node(Always);
            engine.add_node(Always);
            engine
        };
        let _ = fan_out(2, 0, None, |seed| {
            build(seed)
                .run()
                .unwrap_or_else(|e| panic!("trial with seed {seed} failed: {e}"))
        });
    }
}
