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

use contention::baselines::{CdTournament, Decay};
use contention::phase::{PhaseStats, PhaseTelemetry};
use contention::{FullAlgorithm, Params, TwoActive};
use contention_analysis::threshold_crossing;
use mac_sim::campaign::{Aggregate, SeedStream};
use mac_sim::fault::{CrashStop, JamBudget, Layered, LossyChannel, NoisyCd};
use mac_sim::{guarded_verdict, CdMode, Engine, FeedbackModel, Protocol, SimConfig, TrialVerdict};

use super::e09_full_vs_baselines::mean_phase_rounds;
use super::seed_base;
use crate::{ExperimentReport, RunCtx};

/// Channels, contender universe, and active-set size for every sweep.
const C: u32 = 64;
const N: u64 = 1 << 12;
const ACTIVE: usize = 96;
/// Watchdog: a run that executes this many rounds is counted as unsolved.
const BUDGET: u64 = 1_000;
/// Crashes land uniformly in the first `CRASH_WINDOW` rounds.
const CRASH_WINDOW: u64 = 50;

/// Outcomes of one (algorithm, fault level) cell across trials.
struct Cell {
    trials: usize,
    /// Rounds-to-solve of the trials that solved.
    rounds: Vec<u64>,
}

impl Cell {
    fn success(&self) -> f64 {
        self.rounds.len() as f64 / self.trials as f64
    }

    fn median(&self) -> Option<u64> {
        if self.rounds.is_empty() {
            return None;
        }
        let mut sorted = self.rounds.clone();
        sorted.sort_unstable();
        Some(sorted[sorted.len() / 2])
    }

    fn render(&self) -> String {
        match self.median() {
            Some(med) => format!("{:.0}% ({med}r)", 100.0 * self.success()),
            None => "dead".to_string(),
        }
    }
}

/// One streamed table row: the solved-trial rounds of every fault level of
/// one algorithm. Shards merge by element-wise concatenation in seed order,
/// so the per-level vectors are identical whatever the worker count.
struct FaultCells {
    rounds: Vec<Vec<u64>>,
}

impl Aggregate for FaultCells {
    fn merge(&mut self, other: Self) {
        for (mine, theirs) in self.rounds.iter_mut().zip(other.rounds) {
            mine.extend(theirs);
        }
    }
}

/// One seeded engine under one fault model, with budget exhaustion and
/// timeouts counted as unsolved.
///
/// The paper's protocols carry `debug_assert!`s encoding clean-channel
/// invariants ("colliding cohorts cannot sit at the root", …); injected
/// faults legitimately violate those, so in debug builds a tripped
/// assertion is caught and counted as a wedged (unsolved) trial — the same
/// verdict the round budget delivers in release builds. All of that
/// classification lives in [`mac_sim::guarded_verdict`], the one accounting
/// path shared with the campaign layer's quarantine reports and E19.
fn run_one<P, FM>(seed: u64, feedback: FM, nodes: Vec<P>) -> Option<u64>
where
    P: Protocol,
    FM: FeedbackModel,
{
    let cfg = SimConfig::new(C).seed(seed).round_budget(BUDGET);
    let verdict = guarded_verdict(|| {
        Engine::with_feedback(cfg, feedback)
            .populated(nodes)
            .run_summary()
            .map(|s| s.rounds_to_solve())
    });
    match verdict {
        TrialVerdict::Solved(rounds) => Some(rounds),
        TrialVerdict::Wedged(_) => None,
        TrialVerdict::Failed(e) => panic!("unexpected simulation error: {e}"),
    }
}

/// Sequential cell used by the unit tests: `trials` seeded engines with a
/// fresh fault model and population each.
#[cfg(test)]
fn run_cell<P, FM>(
    trials: usize,
    base_seed: u64,
    make_feedback: impl Fn() -> FM,
    make_nodes: &impl Fn() -> Vec<P>,
) -> Cell
where
    P: Protocol,
    FM: FeedbackModel,
{
    let rounds = (0..trials as u64)
        .filter_map(|t| run_one(base_seed.wrapping_add(t), make_feedback(), make_nodes()))
        .collect();
    Cell { trials, rounds }
}

/// One pipeline run under symmetric CD-noise `p`: `Some(spine)` when it
/// solved with an elected solver, read through the same
/// [`contention::phase::PhaseTelemetry`] API the sessions and E9–E11 use.
fn pipeline_profile_one(p: f64, seed: u64) -> Option<Vec<PhaseStats>> {
    let cfg = SimConfig::new(C).seed(seed).round_budget(BUDGET);
    let verdict = guarded_verdict(|| {
        let mut engine =
            Engine::with_feedback(cfg, Layered::new(NoisyCd::symmetric(p), CdMode::Strong))
                .populated((0..ACTIVE).map(|_| FullAlgorithm::new(Params::practical(), C, N)));
        engine
            .run()
            .map(|report| report.solver.map(|id| engine.node(id).phase_stats()))
    });
    match verdict {
        TrialVerdict::Solved(spine) => Some(spine),
        TrialVerdict::Wedged(_) => None,
        TrialVerdict::Failed(e) => panic!("unexpected simulation error: {e}"),
    }
}

/// Success rate and solver spines under CD-noise `p` (sequential form,
/// used by the tests).
#[cfg(test)]
fn pipeline_phase_profile(p: f64, trials: usize, base_seed: u64) -> (f64, Vec<Vec<PhaseStats>>) {
    let spines: Vec<Vec<PhaseStats>> = (0..trials as u64)
        .filter_map(|t| pipeline_profile_one(p, base_seed.wrapping_add(t)))
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let success = spines.len() as f64 / trials.max(1) as f64;
    (success, spines)
}

/// Fault levels shared by every algorithm in one run of the experiment.
struct Grids {
    noise_ps: Vec<f64>,
    loss_ps: Vec<f64>,
    crash_fracs: Vec<f64>,
    jam_budgets: Vec<u64>,
    trials: usize,
}

impl Grids {
    fn for_scale(scale: crate::Scale) -> Self {
        Grids {
            noise_ps: scale.thin(&[0.0, 0.1, 0.25, 0.5, 0.75, 1.0]),
            loss_ps: scale.thin(&[0.0, 0.1, 0.25, 0.5, 0.75, 0.95]),
            crash_fracs: scale.thin(&[0.0, 0.25, 0.5, 0.9]),
            jam_budgets: scale.thin(&[0, 4, 16, 64]),
            trials: match scale {
                crate::Scale::Quick => 8,
                crate::Scale::Full => 40,
            },
        }
    }
}

/// Node factories, one per algorithm row — plain `fn`s so the same factory
/// can be reused across all four fault sweeps.
fn pipeline_nodes() -> Vec<FullAlgorithm> {
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

/// Headers for one fault-kind table: algorithm, a column per fault level,
/// plus the interpolated 50%-success breakdown threshold.
fn fault_headers(levels: &[f64], level_label: impl Fn(f64) -> String) -> Vec<String> {
    let mut headers: Vec<String> = vec!["algorithm".to_string()];
    headers.extend(levels.iter().map(|&l| level_label(l)));
    headers.push("50% breakdown".to_string());
    headers
}

/// Streams one algorithm's row of a fault-kind sweep: trial `i` of level
/// `j` runs at `seed_base(tag, kind, j) + i` — the historical seeding,
/// expressed through the campaign's index stream.
#[allow(clippy::too_many_arguments)]
fn fault_row<P, FM>(
    sweep: &mut crate::Sweep<FaultCells>,
    name: &'static str,
    tag: &'static str,
    kind: u64,
    trials: usize,
    levels: &[f64],
    feedback: impl Fn(usize, usize) -> FM + Send + Sync + 'static,
    make_nodes: fn() -> Vec<P>,
) where
    P: Protocol + 'static,
    FM: FeedbackModel + 'static,
{
    let n_levels = levels.len();
    let levels = levels.to_vec();
    let node_count = make_nodes().len();
    sweep.row(
        trials,
        SeedStream::Offset(0),
        move || FaultCells {
            rounds: vec![Vec::new(); n_levels],
        },
        move |i, acc| {
            for (j, cell) in acc.rounds.iter_mut().enumerate() {
                let seed = seed_base(tag, kind, j as u64).wrapping_add(i);
                if let Some(r) = run_one(seed, feedback(j, node_count), make_nodes()) {
                    cell.push(r);
                }
            }
        },
        move |acc| {
            let mut row = vec![name.to_string()];
            let mut success = Vec::with_capacity(acc.rounds.len());
            for rounds in &acc.rounds {
                let cell = Cell {
                    trials,
                    rounds: rounds.clone(),
                };
                success.push(cell.success());
                row.push(cell.render());
            }
            row.push(match threshold_crossing(&levels, &success, 0.5) {
                Some(x) => format!("~{x:.3}"),
                None if success.first().copied().unwrap_or(0.0) < 0.5 => "below at 0".to_string(),
                None => "none in range".to_string(),
            });
            row
        },
    );
}

/// Adds all four algorithm rows of one fault-kind sweep.
fn fault_section<FM>(
    sweep: &mut crate::Sweep<FaultCells>,
    kind: u64,
    trials: usize,
    levels: &[f64],
    feedback: impl Fn(usize, usize) -> FM + Clone + Send + Sync + 'static,
) where
    FM: FeedbackModel + 'static,
{
    fault_row(
        sweep,
        "this paper (pipeline)",
        "e18full",
        kind,
        trials,
        levels,
        feedback.clone(),
        pipeline_nodes,
    );
    fault_row(
        sweep,
        "TwoActive (|A| = 2)",
        "e18two",
        kind,
        trials,
        levels,
        feedback.clone(),
        two_active_nodes,
    );
    fault_row(
        sweep,
        "CD tournament",
        "e18cdt",
        kind,
        trials,
        levels,
        feedback.clone(),
        tournament_nodes,
    );
    fault_row(
        sweep,
        "decay (no-CD baseline)",
        "e18dec",
        kind,
        trials,
        levels,
        feedback,
        decay_nodes,
    );
}

/// Per-row streamed aggregate for the phase-profile table: solved count
/// plus the solver spines of the solved trials.
#[derive(Default)]
struct PhaseProf {
    solved: u64,
    spines: Vec<Vec<PhaseStats>>,
}

impl Aggregate for PhaseProf {
    fn merge(&mut self, other: Self) {
        self.solved += other.solved;
        self.spines.extend(other.spines);
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
    let trials = grids.trials;

    let caption_noise = format!(
        "Noisy collision detection: success (median rounds) by symmetric flip probability \
         (C = {C}, |A| = {ACTIVE}, budget {BUDGET} rounds, {trials} trials)"
    );
    let headers = fault_headers(&grids.noise_ps, |p| format!("p = {p}"));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut sweep = ctx.sweep::<FaultCells>(&caption_noise, &header_refs);
    let ps = grids.noise_ps.clone();
    fault_section(&mut sweep, 1, trials, &grids.noise_ps, move |j, _| {
        Layered::new(NoisyCd::symmetric(ps[j]), CdMode::Strong)
    });
    report.section(caption_noise, sweep.run());

    let caption_loss =
        "Lossy channel: success (median rounds) by per-channel erasure probability".to_string();
    let headers = fault_headers(&grids.loss_ps, |p| format!("p = {p}"));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut sweep = ctx.sweep::<FaultCells>(&caption_loss, &header_refs);
    let ps = grids.loss_ps.clone();
    fault_section(&mut sweep, 2, trials, &grids.loss_ps, move |j, _| {
        Layered::new(LossyChannel::new(ps[j]), CdMode::Strong)
    });
    report.section(caption_loss, sweep.run());

    let caption_crash = format!(
        "Crash-stop: success (median rounds) by fraction of nodes crashed in the first \
         {CRASH_WINDOW} rounds"
    );
    let headers = fault_headers(&grids.crash_fracs, |f| format!("{:.0}% crash", 100.0 * f));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut sweep = ctx.sweep::<FaultCells>(&caption_crash, &header_refs);
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
    let headers = fault_headers(&jam_levels, |b| format!("B = {b:.0}"));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut sweep = ctx.sweep::<FaultCells>(&caption_jam, &header_refs);
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
    let mut profile = ctx.sweep::<PhaseProf>(
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
            PhaseProf::default,
            move |seed, acc| {
                if let Some(spine) = pipeline_profile_one(p, seed) {
                    acc.solved += 1;
                    acc.spines.push(spine);
                }
            },
            move |acc| {
                let total: u64 = acc.spines.iter().flatten().map(|r| r.rounds).sum();
                #[allow(clippy::cast_precision_loss)]
                let success = acc.solved as f64 / trials.max(1) as f64;
                #[allow(clippy::cast_precision_loss)]
                let mean_total = total as f64 / acc.spines.len().max(1) as f64;
                vec![
                    format!("{p}"),
                    format!("{:.0}%", 100.0 * success),
                    format!("{:.1}", mean_phase_rounds(&acc.spines, "reduce")),
                    format!("{:.1}", mean_phase_rounds(&acc.spines, "id-reduction")),
                    format!("{:.1}", mean_phase_rounds(&acc.spines, "leaf-election")),
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
    /// before `mac_sim::guarded_verdict` existed — kept verbatim here so
    /// the parity test below can assert the shared helper counts wedged
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
        let cell = run_cell(
            6,
            seed_base("e18t", 0, 0),
            || Layered::new(NoisyCd::symmetric(0.0), CdMode::Strong),
            &pipeline_nodes,
        );
        assert_eq!(cell.rounds.len(), cell.trials);
    }

    #[test]
    fn total_loss_kills_everything() {
        let cell = run_cell(
            4,
            seed_base("e18t", 1, 0),
            || Layered::new(LossyChannel::new(1.0), CdMode::Strong),
            &two_active_nodes,
        );
        assert_eq!(cell.rounds.len(), 0);
        assert_eq!(cell.render(), "dead");
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
        let clean_med = clean.median().expect("clean runs solve");
        if let Some(jam_med) = jammed.median() {
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
