//! The experiment suite: one module per claim reproduced. See DESIGN.md §3
//! for the claim ↔ experiment index and EXPERIMENTS.md for recorded output.

pub mod e01_two_active_vs_n;
pub mod e02_two_active_vs_c;
pub mod e03_rename_geometric;
pub mod e04_split_check;
pub mod e05_reduce;
pub mod e06_id_reduction;
pub mod e07_balls_in_bins;
pub mod e08_leaf_election;
pub mod e09_full_vs_baselines;
pub mod e10_lower_bound_ratio;
pub mod e11_two_vs_general;
pub mod e12_wakeup;
pub mod e13_cohort_ablation;
pub mod e14_expected_time;
pub mod e15_energy;
pub mod e16_cd_modes;
pub mod e17_serve_all;
pub mod e18_fault_thresholds;
pub mod e19_supervised_recovery;
pub mod e20_sparse_scale;
pub mod e21_traffic_load;

use crate::{ExperimentReport, RunCtx};
use contention::{FullAlgorithm, Params};
use mac_sim::{Engine, EventSink, FeedbackModel, Protocol, RunReport, SimConfig, SimError};

/// Runs one trial's engine to its stop condition.
///
/// # Panics
///
/// Panics, naming the engine's master seed, if the run fails.
pub(crate) fn run_trial<P: Protocol, F: FeedbackModel>(engine: &mut Engine<P, F>) -> RunReport {
    observe_trial(engine, &mut ())
}

/// Runs one trial's engine to its stop condition, streaming the run's
/// events into `sink`.
///
/// # Panics
///
/// Panics, naming the engine's master seed, if the run fails.
pub fn observe_trial<P: Protocol, F: FeedbackModel, S: EventSink>(
    engine: &mut Engine<P, F>,
    sink: &mut S,
) -> RunReport {
    let seed = engine.config().master_seed;
    engine
        .run_observed(sink)
        .unwrap_or_else(|e| panic!("trial with seed {seed} failed: {e}"))
}

/// Runs one trial under injected faults: `Some(read(rounds, solver))` when
/// it solves, `None` when the faults wedged it.
///
/// `rounds` is the run's `rounds_to_solve()`, the one round count of every
/// fault table, and `solver` the node that solved. A wedge is a run that
/// ends unsolved, exhausts its round budget, times out, or panics: the
/// paper's protocols carry `debug_assert!`s encoding clean-channel
/// invariants that injected faults legitimately violate, so in debug
/// builds a tripped assertion counts exactly as the round budget does in
/// release builds. The engine is built and read inside the panic guard.
///
/// # Panics
///
/// Panics, naming the engine's master seed, on any other simulation error
/// (an experiment bug, not a data point).
pub(crate) fn run_faulted_trial<P: Protocol, F: FeedbackModel, T>(
    build: impl FnOnce() -> Engine<P, F>,
    read: impl FnOnce(u64, &P) -> T,
) -> Option<T> {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut engine = build();
        let solved = engine.run_summary().map(|summary| {
            let rounds = summary.rounds_to_solve()?;
            Some(read(rounds, engine.node(summary.solver?)))
        });
        (engine.config().master_seed, solved)
    }));
    match outcome {
        Ok((_, Ok(solved))) => solved,
        Ok((_, Err(SimError::BudgetExhausted { .. } | SimError::Timeout { .. }))) | Err(_) => None,
        Ok((seed, Err(e))) => panic!("trial with seed {seed} failed: {e}"),
    }
}

/// Rounds-to-solve for one paper-stack trial: `active` simultaneous
/// [`FullAlgorithm`] nodes over namespace `n` on `c` channels, strong CD,
/// capped at 10 M rounds.
///
/// # Panics
///
/// Panics if the run fails or ends unsolved.
#[must_use]
pub(crate) fn paper_rounds(c: u32, n: u64, active: usize, seed: u64) -> u64 {
    let mut engine = Engine::new(SimConfig::new(c).seed(seed).max_rounds(10_000_000))
        .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
    run_trial(&mut engine).rounds_to_solve().expect("solved")
}

/// A deterministic per-configuration seed base so that sweep points use
/// decorrelated seed ranges.
#[must_use]
pub fn seed_base(tag: &str, a: u64, b: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in tag.bytes().chain(a.to_le_bytes()).chain(b.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs every experiment in the given context, in order.
///
/// # Panics
///
/// Panics with [`crate::SweepCancelled`] if the context's cancellation
/// token fires mid-run, and on record-store I/O errors.
#[must_use]
pub fn run_all(ctx: &RunCtx) -> Vec<ExperimentReport> {
    REGISTRY
        .iter()
        .map(|(id, _, _)| run_one(id, ctx).expect("registry ids resolve"))
        .collect()
}

/// Runs one experiment by id, wrapped in the context's record-store
/// begin/finish protocol: resumable rows are loaded before the run and the
/// final record file is written after. This is the entry point `repro`
/// uses; calling an experiment's `run` directly skips checkpointing.
///
/// # Panics
///
/// Panics with [`crate::SweepCancelled`] if the context's cancellation
/// token fires mid-run, and on record-store I/O errors.
#[must_use]
pub fn run_one(id: &str, ctx: &RunCtx) -> Option<ExperimentReport> {
    let &(canonical, run, _) = entry(id)?;
    ctx.begin_experiment(canonical);
    let report = run(ctx);
    ctx.finish_experiment(&report);
    Some(report)
}

/// An experiment's entry point.
type Runner = fn(&RunCtx) -> ExperimentReport;

/// The registry: every experiment's id, runner and one-line title, in
/// order. Experiment `eN` is entry `N − 1`.
#[rustfmt::skip]
static REGISTRY: [(&str, Runner, &str); 21] = [
    ("e1",  e01_two_active_vs_n::run,     "TwoActive vs n (Theorem 1)"),
    ("e2",  e02_two_active_vs_c::run,     "TwoActive vs C (Theorem 1 crossover)"),
    ("e3",  e03_rename_geometric::run,    "Renaming race tail (Lemma 2)"),
    ("e4",  e04_split_check::run,         "SplitCheck probe count (Lemma 3)"),
    ("e5",  e05_reduce::run,              "Reduce survivor counts (Theorem 5)"),
    ("e6",  e06_id_reduction::run,        "IdReduction (Theorem 6, Lemmas 7-10)"),
    ("e7",  e07_balls_in_bins::run,       "Balls-in-bins (Lemma 9)"),
    ("e8",  e08_leaf_election::run,       "LeafElection (Theorem 17, Lemma 16)"),
    ("e9",  e09_full_vs_baselines::run,   "Full algorithm vs baselines (Theorem 4)"),
    ("e10", e10_lower_bound_ratio::run,   "Lower-bound ratio (optimality)"),
    ("e11", e11_two_vs_general::run,      "TwoActive vs general on |A| = 2"),
    ("e12", e12_wakeup::run,              "Wake-up transform (section 3)"),
    ("e13", e13_cohort_ablation::run,     "Coalescing-cohorts ablation"),
    ("e14", e14_expected_time::run,       "Expected-O(1) with ~lg n channels (section 6)"),
    ("e15", e15_energy::run,              "Transmission energy"),
    ("e16", e16_cd_modes::run,            "Collision-detection model matrix"),
    ("e17", e17_serve_all::run,           "Serving all contenders (conflict resolution)"),
    ("e18", e18_fault_thresholds::run,    "Fault-injection breakdown thresholds"),
    ("e19", e19_supervised_recovery::run, "Supervised recovery beyond the breakdown thresholds"),
    ("e20", e20_sparse_scale::run,        "Sparse-scale curve: namespace 2^12..2^22 at fixed |A|"),
    ("e21", e21_traffic_load::run,        "Dynamic-arrivals traffic: throughput and latency vs offered load"),
];

/// The registry entry for any accepted id spelling (`"E07"`, `"e7"`).
fn entry(id: &str) -> Option<&'static (&'static str, Runner, &'static str)> {
    let norm = id.trim().to_lowercase();
    let norm = norm.strip_prefix('e').unwrap_or(&norm);
    let number: usize = norm.trim_start_matches('0').parse().ok()?;
    REGISTRY.get(number.checked_sub(1)?)
}

/// Normalizes any accepted id spelling (`"E07"`, `"e7"`) to the registry
/// form (`"e7"`), which doubles as the record-file stem.
#[must_use]
pub fn canonical_id(id: &str) -> Option<&'static str> {
    entry(id).map(|&(id, _, _)| id)
}

/// All experiment ids with their one-line titles, in order.
#[must_use]
pub fn list() -> Vec<(&'static str, &'static str)> {
    REGISTRY.iter().map(|&(id, _, title)| (id, title)).collect()
}

/// Looks up a single experiment runner by id (`"e1"`, `"E07"`, …).
#[must_use]
pub fn by_id(id: &str) -> Option<Runner> {
    entry(id).map(|&(_, run, _)| run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{Action, ChannelId, Feedback, RoundContext, Status};
    use rand::rngs::SmallRng;

    /// A node with one fixed behaviour, for steering a run to each outcome.
    #[derive(Clone, Copy)]
    enum Scripted {
        /// Transmits on the primary channel every round.
        Transmit,
        /// Terminates inactive at once.
        Quit,
        /// Panics on its first act, like a tripped protocol assertion.
        Panic,
    }

    impl Protocol for Scripted {
        type Msg = ();
        fn act(&mut self, ctx: &RoundContext, _rng: &mut SmallRng) -> Action<()> {
            match self {
                Scripted::Panic => panic!("invariant broke at round {}", ctx.round),
                _ => Action::transmit(ChannelId::PRIMARY, ()),
            }
        }
        fn observe(&mut self, _ctx: &RoundContext, _fb: Feedback<()>, _rng: &mut SmallRng) {}
        fn status(&self) -> Status {
            match self {
                Scripted::Quit => Status::Inactive,
                _ => Status::Active,
            }
        }
    }

    fn faulted(config: SimConfig, nodes: &[Scripted]) -> Option<u64> {
        run_faulted_trial(
            || Engine::new(config).populated(nodes.iter().copied()),
            |rounds, _| rounds,
        )
    }

    #[test]
    fn faulted_trial_classifies_all_outcomes() {
        let config = || SimConfig::new(1).seed(3);
        // A lone transmitter solves in round 0: one round to solve.
        assert_eq!(faulted(config(), &[Scripted::Transmit]), Some(1));
        // Everyone quits: the run ends unsolved.
        assert_eq!(faulted(config(), &[Scripted::Quit]), None);
        // Two transmitters collide until the watchdog or the cap fires.
        let collide = [Scripted::Transmit, Scripted::Transmit];
        assert_eq!(faulted(config().round_budget(50), &collide), None);
        assert_eq!(faulted(config().max_rounds(9), &collide), None);
        // Run by hand, the wedged runs end the way the comments say.
        let by_hand = |config: SimConfig, nodes: &[Scripted]| {
            let summary = Engine::new(config)
                .populated(nodes.iter().copied())
                .run_summary();
            summary.map(|s| s.solved_round)
        };
        assert_eq!(by_hand(config(), &[Scripted::Quit]), Ok(None));
        assert!(matches!(
            by_hand(config().round_budget(50), &collide),
            Err(SimError::BudgetExhausted { .. })
        ));
        assert_eq!(
            by_hand(config().max_rounds(9), &collide),
            Err(SimError::Timeout { max_rounds: 9 })
        );
    }

    #[test]
    fn faulted_trial_isolates_panics() {
        // A tripped protocol assertion is a wedge, not a crash of the sweep.
        assert_eq!(faulted(SimConfig::new(1).seed(3), &[Scripted::Panic]), None);
    }

    #[test]
    #[should_panic(expected = "trial with seed 3 failed")]
    fn faulted_trial_panics_on_other_errors() {
        let _ = faulted(SimConfig::new(1).seed(3), &[]);
    }

    #[test]
    fn cancelled_context_stops_every_batch_experiment() {
        // Each of these runs a `RunCtx::trials` batch; E4 runs nothing else.
        for id in ["e4", "e6", "e8", "e12", "e14", "e15"] {
            let token = mac_sim::campaign::CancelToken::new();
            token.cancel();
            let ctx = RunCtx::new(crate::Scale::Quick).cancel_token(token);
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(id, &ctx)));
            let payload = outcome
                .err()
                .unwrap_or_else(|| panic!("{id} ran to completion"));
            assert!(
                payload.downcast_ref::<crate::SweepCancelled>().is_some(),
                "{id} did not stop with SweepCancelled"
            );
        }
    }

    #[test]
    fn batches_report_their_trials_to_the_metrics_hub() {
        let hub = std::sync::Arc::new(mac_sim::MetricsHub::new(2));
        let ctx = RunCtx::new(crate::Scale::Quick)
            .workers(2)
            .metrics_hub(hub.clone());
        let _ = run_one("e4", &ctx);
        let trials = hub
            .snapshot()
            .registry
            .counter(mac_sim::Counter::CampaignTrialsDone);
        assert_eq!(trials, crate::Scale::Quick.trials() as u64);
    }

    #[test]
    fn seed_bases_differ() {
        assert_ne!(seed_base("a", 1, 2), seed_base("a", 2, 1));
        assert_ne!(seed_base("a", 1, 2), seed_base("b", 1, 2));
        assert_eq!(seed_base("a", 1, 2), seed_base("a", 1, 2));
    }

    #[test]
    fn list_is_complete_and_resolvable() {
        let listed = list();
        assert_eq!(listed.len(), 21);
        for (id, title) in listed {
            assert!(by_id(id).is_some(), "{id} listed but unresolvable");
            assert!(!title.is_empty());
        }
    }

    #[test]
    fn canonical_ids_normalize_to_registry_form() {
        assert_eq!(canonical_id("E07"), Some("e7"));
        assert_eq!(canonical_id("e7"), Some("e7"));
        assert_eq!(canonical_id(" e18 "), Some("e18"));
        assert_eq!(canonical_id("e19"), Some("e19"));
        assert_eq!(canonical_id("e20"), Some("e20"));
        assert_eq!(canonical_id("e21"), Some("e21"));
        assert_eq!(canonical_id("e22"), None);
        assert_eq!(canonical_id("banana"), None);
    }

    #[test]
    fn by_id_resolves_all_twenty_one() {
        for i in 1..=21 {
            assert!(by_id(&format!("e{i}")).is_some(), "e{i} missing");
            assert!(by_id(&format!("E{i:02}")).is_some(), "E{i:02} missing");
        }
        assert!(by_id("e22").is_none());
        assert!(by_id("banana").is_none());
    }
}
