//! **E18** (robustness extension) — breakdown thresholds under injected
//! faults. The paper's guarantees assume a *clean* strong-CD channel; this
//! experiment measures how far each algorithm survives away from that
//! assumption, by sweeping the fault-injection layers of [`mac_sim::fault`]
//! and locating where success degrades through 50%:
//!
//! * **noisy CD** — collision ↔ silence flips with probability `p`;
//! * **lossy channel** — per-channel frame erasure with probability `p`;
//! * **crash-stop** — a seeded adversary crashes a fraction of the nodes
//!   early in the run;
//! * **budgeted jamming** — a reactive jammer vetoes the first `B`
//!   would-be-solving rounds.
//!
//! Every cell runs under [`mac_sim::SimConfig::round_budget`], so a
//! fault-wedged protocol terminates with a structured
//! [`mac_sim::SimError::BudgetExhausted`] that is counted as "unsolved"
//! rather than hanging the sweep.
//!
//! E19 builds its tables from this module's parts: the fault engine, the
//! pipeline trial, the per-level aggregate and the one row and cell
//! renderer, so both experiments print the same unit in the same form.

use contention::baselines::{CdTournament, Decay};
use contention::phase::{PhaseStats, PhaseTelemetry};
use contention::{FullAlgorithm, Params, TwoActive};
use contention_analysis::threshold_crossing;
use mac_sim::campaign::{Aggregate, Collect, SeedStream};
use mac_sim::fault::{CrashStop, JamBudget, Layered, LossyChannel, NoisyCd};
use mac_sim::{CdMode, Engine, FeedbackModel, Protocol, SimConfig};

use super::e09_full_vs_baselines::mean_phase_rounds;
use super::{run_faulted_trial, seed_base};
use crate::{ExperimentReport, RunCtx, Scale, Sweep};

/// Channels, contender universe, and active-set size for every sweep.
pub(crate) const C: u32 = 64;
pub(crate) const N: u64 = 1 << 12;
pub(crate) const ACTIVE: usize = 96;
/// Watchdog: a run that executes this many rounds is counted as unsolved.
pub(crate) const BUDGET: u64 = 1_000;
/// Crashes land uniformly in the first `CRASH_WINDOW` rounds.
const CRASH_WINDOW: u64 = 50;

/// Trials per fault level (E19 runs the same count).
#[must_use]
pub fn trials(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 8,
        Scale::Full => 40,
    }
}

/// The engine of every fault trial: `nodes` on `C` channels under
/// `feedback`, seeded at `seed` and watched by the `BUDGET`-round
/// watchdog.
pub(crate) fn fault_engine<P: Protocol, FM: FeedbackModel>(
    seed: u64,
    feedback: FM,
    nodes: Vec<P>,
) -> Engine<P, FM> {
    Engine::with_feedback(SimConfig::new(C).seed(seed).round_budget(BUDGET), feedback)
        .populated(nodes)
}

/// Rounds to solve of one seeded fault trial, or `None` if the faults
/// wedged it (see [`run_faulted_trial`]).
pub(crate) fn run_one<P, FM>(seed: u64, feedback: FM, nodes: Vec<P>) -> Option<u64>
where
    P: Protocol,
    FM: FeedbackModel,
{
    run_faulted_trial(|| fault_engine(seed, feedback, nodes), |rounds, _| rounds)
}

/// The solved-trial rounds of every fault level of one table row. Shards
/// merge by element-wise concatenation in seed order, so the per-level
/// vectors are identical whatever the worker count.
pub(crate) struct LevelRounds(Vec<Vec<u64>>);

impl Aggregate for LevelRounds {
    fn merge(&mut self, other: Self) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            mine.extend(theirs);
        }
    }
}

/// The fraction of `trials` that solved.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn success(trials: usize, solved: usize) -> f64 {
    solved as f64 / trials.max(1) as f64
}

/// The median of the solved trials' rounds (the upper one of an even
/// count), `None` if none solved.
pub(crate) fn median(rounds: &[u64]) -> Option<u64> {
    let mut sorted = rounds.to_vec();
    sorted.sort_unstable();
    sorted.get(sorted.len() / 2).copied()
}

/// One fault level's cell: `"NN% (Mr)"`, success and median rounds to
/// solve, or `"dead"` when no trial solved.
fn level_cell(trials: usize, rounds: &[u64]) -> String {
    match median(rounds) {
        Some(med) => format!("{:.0}% ({med}r)", 100.0 * success(trials, rounds.len())),
        None => "dead".to_string(),
    }
}

/// The row's last cell: the interpolated fault level at which success
/// crosses 50%.
fn threshold_cell(levels: &[f64], success: &[f64]) -> String {
    match threshold_crossing(levels, success, 0.5) {
        Some(x) => format!("~{x:.3}"),
        None if success.first().copied().unwrap_or(0.0) < 0.5 => "below at 0".to_string(),
        None => "none in range".to_string(),
    }
}

/// Starts a fault-level table: an algorithm column, one column per level
/// label, and the interpolated 50%-success breakdown threshold.
pub(crate) fn level_sweep<'c>(
    ctx: &'c RunCtx,
    caption: &str,
    labels: impl IntoIterator<Item = String>,
) -> Sweep<'c, 'static, LevelRounds> {
    let mut headers = vec!["algorithm".to_string()];
    headers.extend(labels);
    headers.push("50% breakdown".to_string());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    ctx.sweep(caption, &header_refs)
}

/// Streams one row of a fault-level table: `trial(seed, j)` runs trial `i`
/// of level `j` at `seed = seed_base(tag, kind, j) + i` and returns its
/// rounds to solve, `None` for a wedge. Rows sharing a `tag` and `kind`
/// face the same seeded fault pattern at each `(level, trial)`.
pub(crate) fn level_row(
    sweep: &mut Sweep<LevelRounds>,
    name: &'static str,
    tag: &'static str,
    kind: u64,
    trials: usize,
    levels: &[f64],
    trial: impl Fn(u64, usize) -> Option<u64> + Send + Sync + 'static,
) {
    let levels = levels.to_vec();
    let n_levels = levels.len();
    sweep.row(
        trials,
        SeedStream::Offset(0),
        move || LevelRounds(vec![Vec::new(); n_levels]),
        move |i, acc| {
            for (j, cell) in acc.0.iter_mut().enumerate() {
                let seed = seed_base(tag, kind, j as u64).wrapping_add(i);
                cell.extend(trial(seed, j));
            }
        },
        move |acc| {
            let mut row = vec![name.to_string()];
            row.extend(acc.0.iter().map(|rounds| level_cell(trials, rounds)));
            let success: Vec<f64> = acc.0.iter().map(|r| success(trials, r.len())).collect();
            row.push(threshold_cell(&levels, &success));
            row
        },
    );
}

/// Solved-trial rounds of `trials` seeded engines with a fresh fault model
/// and population each (sequential form, used by the tests).
#[cfg(test)]
fn run_cell<P, FM>(
    trials: usize,
    base_seed: u64,
    make_feedback: impl Fn() -> FM,
    make_nodes: &impl Fn() -> Vec<P>,
) -> Vec<u64>
where
    P: Protocol,
    FM: FeedbackModel,
{
    (0..trials as u64)
        .filter_map(|t| run_one(base_seed.wrapping_add(t), make_feedback(), make_nodes()))
        .collect()
}

/// One pipeline run under symmetric CD-noise `p`: `Some(spine)` when it
/// solved, the solver's spine read through the same
/// [`contention::phase::PhaseTelemetry`] API the sessions and E9–E11 use.
fn pipeline_profile_one(p: f64, seed: u64) -> Option<Vec<PhaseStats>> {
    let noise = Layered::new(NoisyCd::symmetric(p), CdMode::Strong);
    run_faulted_trial(
        || fault_engine(seed, noise, pipeline_nodes()),
        |_, solver| solver.phase_stats(),
    )
}

/// Success rate and solver spines under CD-noise `p` (sequential form,
/// used by the tests).
#[cfg(test)]
fn pipeline_phase_profile(p: f64, trials: usize, base_seed: u64) -> (f64, Vec<Vec<PhaseStats>>) {
    let spines: Vec<Vec<PhaseStats>> = (0..trials as u64)
        .filter_map(|t| pipeline_profile_one(p, base_seed.wrapping_add(t)))
        .collect();
    (success(trials, spines.len()), spines)
}

/// Fault levels shared by every algorithm in one run of the experiment.
struct Grids {
    noise_ps: Vec<f64>,
    loss_ps: Vec<f64>,
    crash_fracs: Vec<f64>,
    jam_budgets: Vec<u64>,
}

impl Grids {
    fn for_scale(scale: Scale) -> Self {
        Grids {
            noise_ps: scale.thin(&[0.0, 0.1, 0.25, 0.5, 0.75, 1.0]),
            loss_ps: scale.thin(&[0.0, 0.1, 0.25, 0.5, 0.75, 0.95]),
            crash_fracs: scale.thin(&[0.0, 0.25, 0.5, 0.9]),
            jam_budgets: scale.thin(&[0, 4, 16, 64]),
        }
    }
}

/// Node factories, one per algorithm row — plain `fn`s so the same factory
/// can be reused across all four fault sweeps.
pub(crate) fn pipeline_nodes() -> Vec<FullAlgorithm> {
    (0..ACTIVE)
        .map(|_| FullAlgorithm::new(Params::practical(), C, N))
        .collect()
}

fn two_active_nodes() -> Vec<TwoActive> {
    vec![TwoActive::new(C, N), TwoActive::new(C, N)]
}

fn tournament_nodes() -> Vec<CdTournament> {
    (0..ACTIVE).map(|_| CdTournament::new()).collect()
}

fn decay_nodes() -> Vec<Decay> {
    (0..ACTIVE).map(|_| Decay::new(N)).collect()
}

/// One algorithm's per-(seed, level) trial: a fresh population from
/// `make_nodes` under `feedback(level, population size)`.
fn algorithm_trial<P, FM>(
    feedback: impl Fn(usize, usize) -> FM + Send + Sync + 'static,
    make_nodes: fn() -> Vec<P>,
) -> impl Fn(u64, usize) -> Option<u64> + Send + Sync + 'static
where
    P: Protocol + 'static,
    FM: FeedbackModel + 'static,
{
    move |seed, j| {
        let nodes = make_nodes();
        run_one(seed, feedback(j, nodes.len()), nodes)
    }
}

/// Adds all four algorithm rows of one fault-kind sweep.
fn fault_section<FM>(
    sweep: &mut Sweep<LevelRounds>,
    kind: u64,
    trials: usize,
    levels: &[f64],
    feedback: impl Fn(usize, usize) -> FM + Clone + Send + Sync + 'static,
) where
    FM: FeedbackModel + 'static,
{
    type Trial = Box<dyn Fn(u64, usize) -> Option<u64> + Send + Sync>;
    let rows: [(&str, &str, Trial); 4] = [
        (
            "this paper (pipeline)",
            "e18full",
            Box::new(algorithm_trial(feedback.clone(), pipeline_nodes)),
        ),
        (
            "TwoActive (|A| = 2)",
            "e18two",
            Box::new(algorithm_trial(feedback.clone(), two_active_nodes)),
        ),
        (
            "CD tournament",
            "e18cdt",
            Box::new(algorithm_trial(feedback.clone(), tournament_nodes)),
        ),
        (
            "decay (no-CD baseline)",
            "e18dec",
            Box::new(algorithm_trial(feedback, decay_nodes)),
        ),
    ];
    for (name, tag, trial) in rows {
        level_row(sweep, name, tag, kind, trials, levels, trial);
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E18",
        "Fault-injection breakdown thresholds: how much channel abuse each algorithm survives",
    );
    let grids = Grids::for_scale(ctx.scale);
    let trials = trials(ctx.scale);

    let caption_noise = format!(
        "Noisy collision detection: success (median rounds) by symmetric flip probability \
         (C = {C}, |A| = {ACTIVE}, budget {BUDGET} rounds, {trials} trials)"
    );
    let labels = grids.noise_ps.iter().map(|p| format!("p = {p}"));
    let mut sweep = level_sweep(ctx, &caption_noise, labels);
    let ps = grids.noise_ps.clone();
    fault_section(&mut sweep, 1, trials, &grids.noise_ps, move |j, _| {
        Layered::new(NoisyCd::symmetric(ps[j]), CdMode::Strong)
    });
    report.section(caption_noise, sweep.run());

    let caption_loss =
        "Lossy channel: success (median rounds) by per-channel erasure probability".to_string();
    let labels = grids.loss_ps.iter().map(|p| format!("p = {p}"));
    let mut sweep = level_sweep(ctx, &caption_loss, labels);
    let ps = grids.loss_ps.clone();
    fault_section(&mut sweep, 2, trials, &grids.loss_ps, move |j, _| {
        Layered::new(LossyChannel::new(ps[j]), CdMode::Strong)
    });
    report.section(caption_loss, sweep.run());

    let caption_crash = format!(
        "Crash-stop: success (median rounds) by fraction of nodes crashed in the first \
         {CRASH_WINDOW} rounds"
    );
    let labels = grids
        .crash_fracs
        .iter()
        .map(|f| format!("{:.0}% crash", 100.0 * f));
    let mut sweep = level_sweep(ctx, &caption_crash, labels);
    let fracs = grids.crash_fracs.clone();
    fault_section(
        &mut sweep,
        3,
        trials,
        &grids.crash_fracs,
        move |j, nodes| {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            #[allow(clippy::cast_precision_loss)]
            let f = (fracs[j] * nodes as f64).round() as usize;
            Layered::new(CrashStop::random(f, nodes, CRASH_WINDOW), CdMode::Strong)
        },
    );
    report.section(caption_crash, sweep.run());

    let caption_jam = "Reactive jamming: success (median rounds) by jam budget B — each unit \
                       vetoes one would-be-solving round"
        .to_string();
    #[allow(clippy::cast_precision_loss)]
    let jam_levels: Vec<f64> = grids.jam_budgets.iter().map(|&b| b as f64).collect();
    let labels = grids.jam_budgets.iter().map(|b| format!("B = {b}"));
    let mut sweep = level_sweep(ctx, &caption_jam, labels);
    let budgets = grids.jam_budgets.clone();
    fault_section(&mut sweep, 4, trials, &jam_levels, move |j, _| {
        JamBudget::new(CdMode::Strong, budgets[j])
    });
    report.section(caption_jam, sweep.run());

    // Where the surviving pipeline runs spend their rounds as CD noise
    // rises: the solver's per-phase telemetry spine, averaged over the
    // solved trials of each noise level.
    let caption_prof = "Pipeline phase profile under CD noise: mean solver rounds per phase \
                        (solved trials only)"
        .to_string();
    let mut profile = ctx.sweep::<Collect<Vec<PhaseStats>>>(
        &caption_prof,
        &[
            "noise p",
            "solved",
            "reduce",
            "id-reduction",
            "leaf-election",
            "solver total",
        ],
    );
    for (i, &p) in grids.noise_ps.iter().enumerate() {
        profile.row(
            trials,
            SeedStream::Offset(seed_base("e18prof", 5, i as u64)),
            Collect::default,
            move |seed, acc| acc.0.extend(pipeline_profile_one(p, seed)),
            move |Collect(spines)| {
                let total: u64 = spines.iter().flatten().map(|r| r.rounds).sum();
                #[allow(clippy::cast_precision_loss)]
                let mean_total = total as f64 / spines.len().max(1) as f64;
                vec![
                    format!("{p}"),
                    format!("{:.0}%", 100.0 * success(trials, spines.len())),
                    format!("{:.1}", mean_phase_rounds(&spines, "reduce")),
                    format!("{:.1}", mean_phase_rounds(&spines, "id-reduction")),
                    format!("{:.1}", mean_phase_rounds(&spines, "leaf-election")),
                    format!("{mean_total:.1}"),
                ]
            },
        );
    }
    report.section(caption_prof, profile.run());

    report.note(
        "Feedback faults (noise, loss) hit the paper's pipeline hardest: its renaming and \
         search phases act on per-round CD feedback, so a single flipped observation can \
         derail a whole phase, while decay — which barely listens — degrades last. The \
         breakdown column interpolates the fault level at which the success rate crosses 50%."
            .to_string(),
    );
    report.note(
        "Crash-stop faults are comparatively benign before the solve: crashed contenders only \
         lower contention, and the engine's validity rail guarantees a crashed node is never \
         the elected transmitter. Reactive jamming shifts the solve round by at least the \
         budget B; protocols that misread the jam-round collisions can lose more than B rounds."
            .to_string(),
    );
    report.note(
        "The phase-profile table reads the solver's telemetry spine (the same API the \
         sessions and E9-E11 use): as noise rises, surviving runs lean on lucky early \
         solves — the mix shifts toward Reduce because runs that reach the \
         feedback-hungry renaming and search phases are exactly the ones noise kills."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use mac_sim::SimError;

    /// The ad-hoc `catch_unwind` + error match this experiment carried
    /// before the shared wedge verdict existed — kept verbatim here so the
    /// parity test below can assert `run_faulted_trial` counts wedged
    /// trials exactly the way the legacy inline accounting did.
    fn legacy_run_one<P, FM>(seed: u64, feedback: FM, nodes: Vec<P>) -> Option<u64>
    where
        P: Protocol,
        FM: FeedbackModel,
    {
        let cfg = SimConfig::new(C).seed(seed).round_budget(BUDGET);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Engine::with_feedback(cfg, feedback)
                .populated(nodes)
                .run_summary()
        }));
        match outcome {
            Ok(Ok(summary)) => summary.rounds_to_solve(),
            Ok(Err(SimError::BudgetExhausted { .. } | SimError::Timeout { .. })) | Err(_) => None,
            Ok(Err(e)) => panic!("unexpected simulation error: {e}"),
        }
    }

    #[test]
    fn verdict_helper_matches_legacy_inline_accounting() {
        // Sweep mixed fault regimes — some solving, some wedging — and
        // assert the unified verdict path reproduces the legacy per-seed
        // solved/unsolved decisions exactly.
        for (kind, p) in [(0usize, 0.0), (0, 0.4), (1, 0.6), (1, 0.95)] {
            for t in 0..4u64 {
                let seed = seed_base("e18parity", kind as u64, t);
                let (new, old) = if kind == 0 {
                    (
                        run_one(
                            seed,
                            Layered::new(NoisyCd::symmetric(p), CdMode::Strong),
                            pipeline_nodes(),
                        ),
                        legacy_run_one(
                            seed,
                            Layered::new(NoisyCd::symmetric(p), CdMode::Strong),
                            pipeline_nodes(),
                        ),
                    )
                } else {
                    (
                        run_one(
                            seed,
                            Layered::new(LossyChannel::new(p), CdMode::Strong),
                            pipeline_nodes(),
                        ),
                        legacy_run_one(
                            seed,
                            Layered::new(LossyChannel::new(p), CdMode::Strong),
                            pipeline_nodes(),
                        ),
                    )
                };
                assert_eq!(new, old, "kind {kind} p {p} trial {t} diverged");
            }
        }
    }

    #[test]
    fn fault_free_column_solves() {
        // p = 0 noise over strong CD must behave exactly like the clean
        // engine: the paper's pipeline solves every trial.
        let rounds = run_cell(
            6,
            seed_base("e18t", 0, 0),
            || Layered::new(NoisyCd::symmetric(0.0), CdMode::Strong),
            &pipeline_nodes,
        );
        assert_eq!(rounds.len(), 6);
    }

    #[test]
    fn total_loss_kills_everything() {
        let rounds = run_cell(
            4,
            seed_base("e18t", 1, 0),
            || Layered::new(LossyChannel::new(1.0), CdMode::Strong),
            &two_active_nodes,
        );
        assert_eq!(rounds.len(), 0);
        assert_eq!(level_cell(4, &rounds), "dead");
    }

    #[test]
    fn jam_budget_inflates_rounds() {
        let make = || (0..32).map(|_| CdTournament::new()).collect::<Vec<_>>();
        let clean = run_cell(
            6,
            seed_base("e18t", 2, 0),
            || JamBudget::new(CdMode::Strong, 0),
            &make,
        );
        let jammed = run_cell(
            6,
            seed_base("e18t", 2, 0),
            || JamBudget::new(CdMode::Strong, 16),
            &make,
        );
        let clean_med = median(&clean).expect("clean runs solve");
        if let Some(jam_med) = median(&jammed) {
            // 16 would-be-solving rounds are vetoed before one can land, so
            // any solved jammed run needs at least 17 lone-transmission
            // rounds — strictly more than the clean run's handful.
            assert!(
                jam_med >= 17,
                "jam budget 16 must delay the solve past 17 rounds \
                 (clean {clean_med}, jammed {jam_med})"
            );
        }
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 5);
        for section in &r.sections[..4] {
            assert_eq!(section.table.len(), 4, "{}", section.caption);
        }
        assert!(!r.notes.is_empty());
    }

    #[test]
    fn clean_phase_profile_is_pipeline_shaped() {
        let (success, spines) = pipeline_phase_profile(0.0, 5, seed_base("e18t", 5, 0));
        assert!((success - 1.0).abs() < f64::EPSILON, "p = 0 always solves");
        assert_eq!(spines.len(), 5);
        for spine in &spines {
            assert_eq!(spine.first().map(|r| r.name), Some("reduce"));
        }
    }
}
