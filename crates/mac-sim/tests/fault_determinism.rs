//! Determinism of the fault-injection layers.
//!
//! Every fault model draws from an RNG stream derived from the master seed
//! (disjoint from the per-node streams), so a faulted run is a pure
//! function of its `SimConfig`. These tests pin that down for each model:
//!
//! * **bit-identity** — running the same seeded configuration twice yields
//!   identical reports, round for round and metric for metric;
//! * **thread-count invariance** — fanning trials over 1 worker thread or
//!   several yields identical results, because each trial's engine (fault
//!   state included) is rebuilt from its own seed.

use mac_sim::fault::{CrashStop, JamBudget, Layered, LossyChannel, NoisyCd};
use mac_sim::trials::fan_out;
use mac_sim::{
    Action, CdMode, ChannelId, Engine, Feedback, FeedbackModel, Metrics, NodeId, Protocol,
    RoundContext, RunReport, SimConfig, Status,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// Flips a coin each round: transmit on the primary channel or listen.
/// Terminates once it hears its own lone transmission come back. Uses its
/// per-node RNG every round, so any seeding drift shows up immediately.
struct Backoff {
    done: bool,
    transmitted: bool,
}

impl Backoff {
    fn new() -> Self {
        Backoff {
            done: false,
            transmitted: false,
        }
    }
}

impl Protocol for Backoff {
    type Msg = u64;

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u64> {
        if rng.gen_bool(0.5) {
            self.transmitted = true;
            Action::transmit(ChannelId::PRIMARY, ctx.round)
        } else {
            self.transmitted = false;
            Action::listen(ChannelId::PRIMARY)
        }
    }

    fn observe(&mut self, _: &RoundContext, fb: Feedback<u64>, _: &mut SmallRng) {
        if self.transmitted && matches!(fb, Feedback::Message(_)) {
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
}

/// Everything a run can legally differ in, in one comparable value.
type Fingerprint = (
    Option<u64>,
    Option<NodeId>,
    u64,
    Vec<NodeId>,
    Vec<NodeId>,
    Metrics,
);

fn fingerprint(report: &RunReport) -> Fingerprint {
    (
        report.solved_round,
        report.solver,
        report.rounds_executed,
        report.leaders.clone(),
        report.active_remaining.clone(),
        report.metrics.clone(),
    )
}

fn engine_with<F: FeedbackModel>(seed: u64, feedback: F) -> Engine<Backoff, F> {
    let cfg = SimConfig::new(8).seed(seed).max_rounds(50_000);
    Engine::with_feedback(cfg, feedback).populated((0..6).map(|_| Backoff::new()))
}

/// Runs every fault model's engine builder through `check`, so each test
/// covers the whole taxonomy without repeating the list.
fn for_each_model(mut check: impl FnMut(&str, &dyn Fn(u64) -> Fingerprint)) {
    check("noisy-cd", &|seed| {
        fingerprint(
            &engine_with(seed, Layered::new(NoisyCd::symmetric(0.2), CdMode::Strong))
                .run()
                .expect("noisy run solves"),
        )
    });
    check("lossy-channel", &|seed| {
        fingerprint(
            &engine_with(seed, Layered::new(LossyChannel::new(0.3), CdMode::Strong))
                .run()
                .expect("lossy run solves"),
        )
    });
    check("crash-stop-random", &|seed| {
        fingerprint(
            &engine_with(
                seed,
                Layered::new(CrashStop::random(2, 6, 10), CdMode::Strong),
            )
            .run()
            .expect("crash run solves"),
        )
    });
    check("crash-stop-assassin", &|seed| {
        fingerprint(
            &engine_with(seed, Layered::new(CrashStop::assassin(2), CdMode::Strong))
                .run()
                .expect("assassin run solves"),
        )
    });
    check("jam-budget", &|seed| {
        fingerprint(
            &engine_with(seed, JamBudget::new(CdMode::Strong, 3))
                .run()
                .expect("jammed run solves"),
        )
    });
    check("stacked", &|seed| {
        fingerprint(
            &engine_with(
                seed,
                Layered::new(
                    NoisyCd::symmetric(0.1),
                    Layered::new(
                        LossyChannel::new(0.1),
                        Layered::new(CrashStop::random(1, 6, 5), CdMode::Strong),
                    ),
                ),
            )
            .run()
            .expect("stacked run solves"),
        )
    });
}

#[test]
fn same_seed_is_bit_identical_for_every_fault_model() {
    for_each_model(|name, run| {
        for seed in [0, 1, 7, 0xDEAD_BEEF] {
            assert_eq!(run(seed), run(seed), "{name}: seed {seed} not reproducible");
        }
    });
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against a model accidentally ignoring the master seed: across
    // a handful of seeds, at least one fingerprint must change.
    for_each_model(|name, run| {
        let prints: Vec<_> = (0..6).map(run).collect();
        assert!(
            prints.iter().any(|p| p != &prints[0]),
            "{name}: six seeds produced identical runs"
        );
    });
}

#[test]
fn thread_count_does_not_change_faulted_trial_results() {
    fn fan<F: FeedbackModel>(
        threads: usize,
        make_feedback: &(impl Fn() -> F + Sync),
    ) -> Vec<Fingerprint> {
        fan_out(12, 900, Some(threads), |seed| {
            fingerprint(
                &engine_with(seed, make_feedback())
                    .run()
                    .expect("faulted run solves"),
            )
        })
    }

    fn check<F: FeedbackModel>(name: &str, make_feedback: impl Fn() -> F + Sync) {
        let single = fan(1, &make_feedback);
        for threads in [2, 5] {
            assert_eq!(
                single,
                fan(threads, &make_feedback),
                "{name}: {threads} threads diverged from 1 thread"
            );
        }
    }

    check("noisy-cd", || {
        Layered::new(NoisyCd::symmetric(0.2), CdMode::Strong)
    });
    check("lossy-channel", || {
        Layered::new(LossyChannel::new(0.3), CdMode::Strong)
    });
    check("crash-stop", || {
        Layered::new(CrashStop::random(2, 6, 10), CdMode::Strong)
    });
    check("jam-budget", || JamBudget::new(CdMode::Strong, 3));
}
