//! **E19** (robustness extension) — supervised recovery: graceful
//! degradation beyond E18's breakdown thresholds.
//!
//! E18 located the fault levels at which the paper's pipeline drops below
//! 50% success when each run gets one shot at the whole round budget. This
//! experiment gives the *same* pipeline, under the *same* total engine
//! budget, a supervisor ([`contention::Supervised`]): the budget is split
//! into slices, and a node whose attempt exhausts its slice without an
//! outcome is restarted from clean state on a fresh derived RNG stream.
//!
//! The headline is a contrast between the two fault kinds that wedge the
//! pipeline. A reactive jammer holds a *finite* veto budget, so every
//! attempt it kills drains it: a sacrificed slice is not wasted, it buys
//! the next restart a cleaner channel, and the supervised 50% breakdown
//! moves from E18's ~7 vetoes out past 16. Symmetric CD noise is
//! *memoryless*: a restarted attempt faces exactly the flip probability it
//! just wedged under, per-attempt success does not improve across
//! attempts, and the supervised column tracks the unsupervised one to
//! within sampling error. Restart-with-backoff is transient-fault
//! machinery — the tables measure both the rescue and its limit, and the
//! anatomy table prices recovery in rounds and restarts.

use contention::phase::PhaseTelemetry;
use contention::supervise::RESTART_MARKER;
use contention::{supervised_paper_node, FullAlgorithm, Params, RestartPolicy};
use contention_analysis::threshold_crossing;
use mac_sim::campaign::{Aggregate, SeedStream};
use mac_sim::fault::{Layered, NoisyCd};
use mac_sim::{guarded_verdict, CdMode, Engine, FeedbackModel, SimConfig, TrialVerdict};

use super::seed_base;
use crate::{ExperimentReport, RunCtx};

/// Channels, contender universe, and active-set size: identical to E18 so
/// the unsupervised column reproduces its regime.
const C: u32 = 64;
const N: u64 = 1 << 12;
const ACTIVE: usize = 96;
/// The total engine round budget — the same for both algorithms, so the
/// supervisor gets no extra rounds, only a different spending schedule.
const BUDGET: u64 = 1_000;
/// Supervision slices: `ATTEMPTS` equal slices of `SLICE` rounds exactly
/// tile `BUDGET`. Constant slices (backoff 1) keep the budgets identical;
/// exponential backoff is available via [`RestartPolicy::backoff`] and is
/// exercised by the core unit tests.
const SLICE: u64 = 250;
const ATTEMPTS: u32 = 4;

fn policy() -> RestartPolicy {
    RestartPolicy::new(SLICE, ATTEMPTS).backoff(1)
}

/// Outcome of one supervised trial: rounds to solve (restart overhead
/// included — the clock never resets) and the solver's restart count.
struct SolvedTrial {
    rounds: u64,
    restarts: u64,
}

/// One unsupervised pipeline run: `Some(rounds)` on a solve.
fn unsupervised_one<FM: FeedbackModel>(seed: u64, feedback: FM) -> Option<u64> {
    let cfg = SimConfig::new(C).seed(seed).round_budget(BUDGET);
    let verdict = guarded_verdict(|| {
        Engine::with_feedback(cfg, feedback)
            .populated((0..ACTIVE).map(|_| FullAlgorithm::new(Params::practical(), C, N)))
            .run_summary()
            .map(|s| s.rounds_to_solve())
    });
    match verdict {
        TrialVerdict::Solved(rounds) => Some(rounds),
        TrialVerdict::Wedged(_) => None,
        TrialVerdict::Failed(e) => panic!("unexpected simulation error: {e}"),
    }
}

/// One supervised pipeline run, reading the solver's restart count off its
/// telemetry spine (each restart archives a [`RESTART_MARKER`] record).
fn supervised_one<FM: FeedbackModel>(seed: u64, feedback: FM) -> Option<SolvedTrial> {
    let cfg = SimConfig::new(C).seed(seed).round_budget(BUDGET);
    let verdict = guarded_verdict(|| {
        let mut engine = Engine::with_feedback(cfg, feedback).populated(
            (0..ACTIVE).map(|_| supervised_paper_node(Params::practical(), C, N, policy())),
        );
        engine.run().map(|report| {
            report.solver.and_then(|id| {
                let restarts = engine
                    .node(id)
                    .phase_stats()
                    .iter()
                    .filter(|s| s.name == RESTART_MARKER)
                    .count() as u64;
                report
                    .solved_round
                    .map(|rounds| SolvedTrial { rounds, restarts })
            })
        })
    });
    match verdict {
        TrialVerdict::Solved(trial) => Some(trial),
        TrialVerdict::Wedged(_) => None,
        TrialVerdict::Failed(e) => panic!("unexpected simulation error: {e}"),
    }
}

/// The noise grid: E18's points plus extra density around its unsupervised
/// 50% breakdown (~0.625 at full scale) and beyond.
fn noise_grid(scale: crate::Scale) -> Vec<f64> {
    scale.thin(&[0.0, 0.25, 0.5, 0.6, 0.7, 0.75, 0.85])
}

/// The jam grid: dense where the supervised cliff lives. E18 put the
/// unsupervised 50% breakdown at ~7 vetoes (dead by 16); supervision moves
/// it past 16, with its own cliff near 24 where the jammer outlasts all
/// `ATTEMPTS` restarts.
fn jam_grid(scale: crate::Scale) -> Vec<u64> {
    scale.thin(&[0, 4, 8, 12, 16, 20, 24, 32])
}

fn trials_for(scale: crate::Scale) -> usize {
    match scale {
        crate::Scale::Quick => 8,
        crate::Scale::Full => 40,
    }
}

/// Per-row aggregate of the threshold tables: solved rounds per fault
/// level; shards merge by element-wise concatenation in seed order.
struct LevelCells {
    rounds: Vec<Vec<u64>>,
}

impl Aggregate for LevelCells {
    fn merge(&mut self, other: Self) {
        for (mine, theirs) in self.rounds.iter_mut().zip(other.rounds) {
            mine.extend(theirs);
        }
    }
}

/// Per-level aggregate of the anatomy table.
#[derive(Default)]
struct Anatomy {
    rounds: Vec<u64>,
    restarts: Vec<u64>,
}

impl Aggregate for Anatomy {
    fn merge(&mut self, other: Self) {
        self.rounds.extend(other.rounds);
        self.restarts.extend(other.restarts);
    }
}

fn render_level(trials: usize, rounds: &[u64]) -> (f64, String) {
    #[allow(clippy::cast_precision_loss)]
    let success = rounds.len() as f64 / trials as f64;
    let rendered = if rounds.is_empty() {
        "dead".to_string()
    } else {
        let mut sorted = rounds.to_vec();
        sorted.sort_unstable();
        format!("{:.0}% ({}r)", 100.0 * success, sorted[sorted.len() / 2])
    };
    (success, rendered)
}

fn threshold_cell(levels: &[f64], success: &[f64]) -> String {
    match threshold_crossing(levels, success, 0.5) {
        Some(x) => format!("~{x:.3}"),
        None if success.first().copied().unwrap_or(0.0) < 0.5 => "below at 0".to_string(),
        None => "none in range".to_string(),
    }
}

/// Streams one algorithm's row of a threshold table: trial `i` of level
/// `j` runs at `seed_base(tag, kind, j) + i`. Both rows of a table use the
/// same `tag`/`kind`, so the supervised and unsupervised runs at one
/// `(level, trial)` face the same seeded fault pattern.
#[allow(clippy::too_many_arguments)]
fn threshold_row<FM>(
    sweep: &mut crate::Sweep<LevelCells>,
    name: &'static str,
    tag: &'static str,
    kind: u64,
    trials: usize,
    levels: &[f64],
    feedback: impl Fn(usize) -> FM + Send + Sync + 'static,
    supervised: bool,
) where
    FM: FeedbackModel + 'static,
{
    let n_levels = levels.len();
    let levels = levels.to_vec();
    sweep.row(
        trials,
        SeedStream::Offset(0),
        move || LevelCells {
            rounds: vec![Vec::new(); n_levels],
        },
        move |i, acc| {
            for (j, cell) in acc.rounds.iter_mut().enumerate() {
                let seed = seed_base(tag, kind, j as u64).wrapping_add(i);
                let solved = if supervised {
                    supervised_one(seed, feedback(j)).map(|t| t.rounds)
                } else {
                    unsupervised_one(seed, feedback(j))
                };
                if let Some(r) = solved {
                    cell.push(r);
                }
            }
        },
        move |acc| {
            let mut row = vec![name.to_string()];
            let mut success = Vec::with_capacity(acc.rounds.len());
            for rounds in &acc.rounds {
                let (s, rendered) = render_level(trials, rounds);
                success.push(s);
                row.push(rendered);
            }
            row.push(threshold_cell(&levels, &success));
            row
        },
    );
}

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E19",
        "Supervised recovery: restart-with-backoff pushes the breakdown thresholds out",
    );
    let trials = trials_for(ctx.scale);
    let noise_ps = noise_grid(ctx.scale);

    let caption_noise = format!(
        "CD noise, one {BUDGET}-round budget either way: unsupervised runs it in one attempt, \
         supervised splits it into {ATTEMPTS} clean-restart slices of {SLICE} rounds \
         (C = {C}, |A| = {ACTIVE}, {trials} trials)"
    );
    let mut headers: Vec<String> = vec!["algorithm".into()];
    headers.extend(noise_ps.iter().map(|p| format!("p = {p}")));
    headers.push("50% breakdown".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut sweep = ctx.sweep::<LevelCells>(&caption_noise, &header_refs);
    let ps = noise_ps.clone();
    threshold_row(
        &mut sweep,
        "pipeline (unsupervised)",
        "e19noise",
        1,
        trials,
        &noise_ps,
        move |j| Layered::new(NoisyCd::symmetric(ps[j]), CdMode::Strong),
        false,
    );
    let ps = noise_ps.clone();
    threshold_row(
        &mut sweep,
        "pipeline (supervised)",
        "e19noise",
        1,
        trials,
        &noise_ps,
        move |j| Layered::new(NoisyCd::symmetric(ps[j]), CdMode::Strong),
        true,
    );
    report.section(caption_noise, sweep.run());

    let jam_budgets = jam_grid(ctx.scale);
    #[allow(clippy::cast_precision_loss)]
    let jam_levels: Vec<f64> = jam_budgets.iter().map(|&b| b as f64).collect();
    let caption_jam = "Reactive jamming, same budget split: the jammer vetoes the first B \
                       would-be-solving rounds. Each attempt it kills drains its budget, so \
                       a restart faces a cleaner channel than the attempt it replaces"
        .to_string();
    let mut headers: Vec<String> = vec!["algorithm".into()];
    headers.extend(jam_budgets.iter().map(|b| format!("B = {b}")));
    headers.push("50% breakdown".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut sweep = ctx.sweep::<LevelCells>(&caption_jam, &header_refs);
    let budgets = jam_budgets.clone();
    threshold_row(
        &mut sweep,
        "pipeline (unsupervised)",
        "e19jam",
        2,
        trials,
        &jam_levels,
        move |j| mac_sim::fault::JamBudget::new(CdMode::Strong, budgets[j]),
        false,
    );
    let budgets = jam_budgets.clone();
    threshold_row(
        &mut sweep,
        "pipeline (supervised)",
        "e19jam",
        2,
        trials,
        &jam_levels,
        move |j| mac_sim::fault::JamBudget::new(CdMode::Strong, budgets[j]),
        true,
    );
    report.section(caption_jam, sweep.run());

    // What recovery costs: per jam budget, the solved supervised trials'
    // time-to-solve (restart overhead included — the clock never resets)
    // and the solver's restart count off its telemetry spine.
    let caption_anatomy = "Recovery anatomy under jamming: solved supervised trials only; \
                           rounds include restart overhead, restarts read off the solver's \
                           telemetry spine"
        .to_string();
    let mut anatomy = ctx.sweep::<Anatomy>(
        &caption_anatomy,
        &[
            "jam budget B",
            "solved",
            "median rounds",
            "mean solver restarts",
        ],
    );
    for (i, &b) in jam_budgets.iter().enumerate() {
        anatomy.row(
            trials,
            SeedStream::Offset(seed_base("e19anat", 3, i as u64)),
            Anatomy::default,
            move |seed, acc| {
                if let Some(trial) =
                    supervised_one(seed, mac_sim::fault::JamBudget::new(CdMode::Strong, b))
                {
                    acc.rounds.push(trial.rounds);
                    acc.restarts.push(trial.restarts);
                }
            },
            move |acc| {
                let (success, _) = render_level(trials, &acc.rounds);
                let median = if acc.rounds.is_empty() {
                    "-".to_string()
                } else {
                    let mut sorted = acc.rounds.clone();
                    sorted.sort_unstable();
                    format!("{}", sorted[sorted.len() / 2])
                };
                #[allow(clippy::cast_precision_loss)]
                let mean_restarts = if acc.restarts.is_empty() {
                    "-".to_string()
                } else {
                    format!(
                        "{:.2}",
                        acc.restarts.iter().sum::<u64>() as f64 / acc.restarts.len() as f64
                    )
                };
                vec![
                    format!("{b}"),
                    format!("{:.0}%", 100.0 * success),
                    median,
                    mean_restarts,
                ]
            },
        );
    }
    report.section(caption_anatomy, anatomy.run());

    report.note(format!(
        "Both rows consume the identical {BUDGET}-round engine budget; supervision only \
         changes the spending schedule ({ATTEMPTS} clean-restart slices of {SLICE} rounds). \
         Restart-with-backoff is transient-fault machinery: the jammer's veto budget is \
         finite, every attempt it kills drains it, and the restart that follows faces a \
         cleaner channel — the 50% breakdown moves from E18's ~7 vetoes out past 16. \
         A wedge is detected either by slice exhaustion or by the phase itself reporting \
         an invariant violation (feedback impossible on a clean channel), which restarts \
         the stack immediately instead of burning out the slice."
    ));
    report.note(
        "Symmetric CD noise is the control: it is memoryless, so a restarted attempt faces \
         exactly the flip probability it just wedged under and per-attempt success never \
         improves — the supervised column tracks the unsupervised one to within sampling \
         error, and solved supervised trials under noise virtually never show a restart. \
         Supervision moves thresholds only where wedging an attempt costs the adversary \
         something; past the jam budget where the jammer outlasts all attempts, retrying \
         a hopeless attempt is still hopeless and both rows go dead."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_supervised_solves_without_restarts() {
        let mut solved = 0;
        for t in 0..3u64 {
            let seed = seed_base("e19t", 0, t);
            let trial = supervised_one(seed, Layered::new(NoisyCd::symmetric(0.0), CdMode::Strong));
            if let Some(trial) = trial {
                solved += 1;
                assert_eq!(trial.restarts, 0, "fault-free run restarted");
                assert!(
                    trial.rounds <= SLICE,
                    "fault-free solve blew its first slice"
                );
            }
        }
        assert_eq!(
            solved, 3,
            "fault-free supervised pipeline must always solve"
        );
    }

    #[test]
    fn supervised_solves_whp_past_the_unsupervised_jam_threshold() {
        // B = 8 vetoes sits strictly beyond E18's unsupervised 50% jam
        // breakdown (~7, dead well before 16): single-shot runs wedge
        // essentially always, while the supervisor's sacrificial restarts
        // drain the jammer and solve w.h.p. Seeds are fixed, so this is a
        // deterministic check, not a statistical one.
        let b = 8u64;
        let trials = 12u64;
        let mut unsup = 0;
        let mut sup = 0;
        let mut restarts = 0u64;
        for t in 0..trials {
            let seed = seed_base("e19t", 1, t);
            if unsupervised_one(seed, mac_sim::fault::JamBudget::new(CdMode::Strong, b)).is_some() {
                unsup += 1;
            }
            if let Some(trial) =
                supervised_one(seed, mac_sim::fault::JamBudget::new(CdMode::Strong, b))
            {
                sup += 1;
                restarts += trial.restarts;
            }
        }
        assert!(
            unsup <= 2,
            "unsupervised runs should be past breakdown at B = {b}: {unsup} of {trials} solved"
        );
        assert!(
            sup >= 10,
            "supervision must solve w.h.p. at B = {b}: supervised {sup}, \
             unsupervised {unsup} of {trials}"
        );
        assert!(
            restarts > 0,
            "recovery at B = {b} must actually go through restarts"
        );
    }

    #[test]
    fn policy_tiles_the_budget_exactly() {
        assert_eq!(policy().total_rounds(), BUDGET);
    }

    #[test]
    fn report_renders() {
        let ctx = RunCtx::new(crate::Scale::Quick);
        let report = run(&ctx);
        assert_eq!(report.id, "E19");
        assert_eq!(report.sections.len(), 3);
        let rendered = format!("{report}");
        assert!(rendered.contains("supervised"));
    }
}
