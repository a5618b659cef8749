//! **E9** — the headline landscape (Theorem 4 + the related-work table of
//! §2): the full algorithm against the three prior-art baselines across the
//! `(n, C)` grid. The paper predicts:
//!
//! * at `C = 1`, collision detection gives `Θ(log n)` (descent/tournament)
//!   and no-CD costs `Θ(log² n)`;
//! * growing `C` lets no-CD improve as `log² n / C` until its `log n` floor;
//! * the new algorithm beats them all once `C` is large, flattening at the
//!   `(log log n)(log log log n)` floor that no other combination reaches.

use contention::baselines::{BinaryDescent, CdTournament, Decay, MultiChannelNoCd};
use contention::phase::{PhaseStats, PhaseTelemetry};
use contention::{FullAlgorithm, Params};
use mac_sim::campaign::{Aggregate, SeedStream};
use mac_sim::{CdMode, Engine, SimConfig};

use super::{paper_rounds, run_trial, seed_base};
use crate::{cell_u64, sample_distinct, ExperimentReport, RunCtx, Samples};

/// One full-algorithm run's rounds-to-solve plus its solver spine, off a
/// single execution (same engine as [`paper_rounds`] at the same seed; E10
/// reads both per trial).
pub(crate) fn full_one_with_spine(
    c: u32,
    n: u64,
    active: usize,
    seed: u64,
) -> (u64, Vec<PhaseStats>) {
    let mut exec = Engine::new(SimConfig::new(c).seed(seed).max_rounds(10_000_000))
        .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
    let report = run_trial(&mut exec);
    let spine = report
        .solver
        .map(|id| exec.node(id).phase_stats())
        .unwrap_or_default();
    (report.rounds_to_solve().expect("solved"), spine)
}

/// Mean rounds the solver spent in `name` across `spines`.
pub(crate) fn mean_phase_rounds(spines: &[Vec<PhaseStats>], name: &str) -> f64 {
    let total: u64 = spines
        .iter()
        .flat_map(|spine| spine.iter())
        .filter(|r| r.name == name)
        .map(|r| r.rounds)
        .sum();
    #[allow(clippy::cast_precision_loss)]
    let mean = total as f64 / spines.len().max(1) as f64;
    mean
}

/// Rounds-to-solve for one binary-descent run.
fn descent_one(c: u32, n: u64, active: usize, seed: u64) -> u64 {
    let mut exec = Engine::new(SimConfig::new(c).seed(seed).max_rounds(10_000_000)).populated(
        sample_distinct(n, active, seed ^ 0x9D)
            .into_iter()
            .map(|id| BinaryDescent::new(id, n)),
    );
    run_trial(&mut exec).rounds_to_solve().expect("solved")
}

/// Rounds-to-solve for one decay (no CD) run.
fn decay_one(c: u32, n: u64, active: usize, seed: u64) -> u64 {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .cd_mode(CdMode::None)
        .max_rounds(10_000_000);
    let mut exec = Engine::new(cfg).populated((0..active).map(|_| Decay::new(n)));
    run_trial(&mut exec).rounds_to_solve().expect("solved")
}

/// Rounds-to-solve for one multi-channel no-CD run.
fn nocd_one(c: u32, n: u64, active: usize, seed: u64) -> u64 {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .cd_mode(CdMode::None)
        .max_rounds(10_000_000);
    let mut exec = Engine::new(cfg).populated((0..active).map(|_| MultiChannelNoCd::new(c, n)));
    run_trial(&mut exec).rounds_to_solve().expect("solved")
}

/// Rounds-to-solve for one adaptive CD-tournament run.
pub(crate) fn tournament_one(c: u32, active: usize, seed: u64) -> u64 {
    let mut exec = Engine::new(SimConfig::new(c).seed(seed).max_rounds(10_000_000))
        .populated((0..active).map(|_| CdTournament::new()));
    run_trial(&mut exec).rounds_to_solve().expect("solved")
}

/// Streaming per-row state for the solver phase-breakdown table.
#[derive(Default)]
struct PhaseMix {
    reduce: u64,
    id_reduction: u64,
    leaf_election: u64,
    fallback: u64,
    total: u64,
    trials: u64,
}

impl PhaseMix {
    fn add_spine(&mut self, spine: &[PhaseStats]) {
        for p in spine {
            match p.name {
                "reduce" => self.reduce += p.rounds,
                "id-reduction" => self.id_reduction += p.rounds,
                "leaf-election" => self.leaf_election += p.rounds,
                "cd-tournament" => self.fallback += p.rounds,
                _ => {}
            }
            self.total += p.rounds;
        }
        self.trials += 1;
    }

    #[allow(clippy::cast_precision_loss)]
    fn mean(&self, phase_total: u64) -> f64 {
        phase_total as f64 / self.trials.max(1) as f64
    }
}

impl Aggregate for PhaseMix {
    fn merge(&mut self, other: Self) {
        self.reduce += other.reduce;
        self.id_reduction += other.id_reduction;
        self.leaf_election += other.leaf_election;
        self.fallback += other.fallback;
        self.total += other.total;
        self.trials += other.trials;
    }
}

/// Runs the experiment.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E9",
        "Full algorithm vs baselines across (n, C) — who wins where",
    );
    let ns: Vec<u64> = scale.thin(&[1u64 << 10, 1 << 14, 1 << 18]);
    let cs: Vec<u32> = scale.thin(&[1, 4, 32, 256, 2048]);
    let trials = scale.trials().min(40);

    let caption = "Mean rounds to solve, |A| = min(n, 4096)";
    let mut sweep = ctx.sweep::<(Samples, Samples, Samples, Samples)>(
        caption,
        &[
            "n",
            "C",
            "this paper (CD, multi)",
            "binary descent (CD, 1ch)",
            "decay (no CD, 1ch)",
            "multi no-CD",
            "winner",
        ],
    );
    for &n in &ns {
        // Dense-ish activation: the adversarial case the worst-case bounds
        // target (capped so the biggest grid point stays laptop-scale).
        let active = usize::try_from(n).unwrap_or(usize::MAX).min(4096);
        for &c in &cs {
            let sb = |tag: &str| seed_base(tag, u64::from(c), n);
            let (fb, db, yb, mb) = (sb("e9f"), sb("e9d"), sb("e9y"), sb("e9m"));
            sweep.row(
                trials,
                SeedStream::Offset(0),
                <(Samples, Samples, Samples, Samples)>::default,
                move |i, acc| {
                    acc.0.push(paper_rounds(c, n, active, fb.wrapping_add(i)));
                    acc.1.push(descent_one(c, n, active, db.wrapping_add(i)));
                    acc.2.push(decay_one(c, n, active, yb.wrapping_add(i)));
                    acc.3.push(nocd_one(c, n, active, mb.wrapping_add(i)));
                },
                move |(full, descent, decay, nocd)| {
                    let entries = [
                        ("this paper", full.mean()),
                        ("descent", descent.mean()),
                        ("decay", decay.mean()),
                        ("multi-nocd", nocd.mean()),
                    ];
                    let winner = entries
                        .iter()
                        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
                        .expect("nonempty")
                        .0;
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let ne = (n as f64).log2() as u32;
                    vec![
                        format!("2^{ne}"),
                        c.to_string(),
                        format!("{:.1}", entries[0].1),
                        format!("{:.1}", entries[1].1),
                        format!("{:.1}", entries[2].1),
                        format!("{:.1}", entries[3].1),
                        winner.to_string(),
                    ]
                },
            );
        }
    }
    let grid = sweep.run();
    // Reconstruct the per-n win lists from the rendered grid (works the
    // same on a resumed run, where rows come from the checkpoint).
    let mut crossovers: Vec<(u64, Vec<u32>)> = ns.iter().map(|&n| (n, Vec::new())).collect();
    for (i, row) in grid.rows().iter().enumerate() {
        if row.last().is_some_and(|w| w == "this paper") {
            #[allow(clippy::cast_possible_truncation)]
            let c = cell_u64(&row[1]) as u32;
            crossovers[i / cs.len()].1.push(c);
        }
    }
    report.section(caption, grid);

    // |A|-sensitivity: the pipeline's cost is indexed by n, the adaptive
    // tournament's by |A| — so the pipeline is nearly flat across four
    // decades of activation density while the tournament scales as lg |A|.
    let (n, c) = (1u64 << 14, 256u32);
    let caption_density = format!("Density sensitivity at n = 2^14, C = {c}");
    let mut density = ctx.sweep::<(Samples, Samples)>(
        &caption_density,
        &["|A|", "this paper", "CD tournament (lg |A|-adaptive)"],
    );
    for &a in &[2usize, 16, 128, 1024, 8192] {
        let fb = seed_base("e9da", a as u64, n);
        let tb = seed_base("e9dt", a as u64, n);
        density.row(
            trials,
            SeedStream::Offset(0),
            <(Samples, Samples)>::default,
            move |i, acc| {
                acc.0.push(paper_rounds(c, n, a, fb.wrapping_add(i)));
                acc.1.push(tournament_one(c, a, tb.wrapping_add(i)));
            },
            move |(full, tour)| {
                vec![
                    a.to_string(),
                    format!("{:.1}", full.mean()),
                    format!("{:.1}", tour.mean()),
                ]
            },
        );
    }
    report.section(caption_density, density.run());

    // Where the winner's rounds actually go: the solver's per-phase
    // telemetry spine, averaged over trials. Below the fallback threshold
    // the whole run sits in the single-channel tournament; above it the
    // pipeline's phases split the budget.
    let n = 1u64 << 14;
    let caption_mix = format!("Solver phase breakdown at n = 2^{}", {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let ne = (n as f64).log2() as u32;
        ne
    });
    let mut mix = ctx.sweep::<PhaseMix>(
        &caption_mix,
        &[
            "C",
            "reduce",
            "id-reduction",
            "leaf-election",
            "fallback (cd-tournament)",
            "mean total",
        ],
    );
    for &c in &cs {
        let active = usize::try_from(n).unwrap_or(usize::MAX).min(4096);
        mix.row(
            trials,
            SeedStream::Offset(seed_base("e9p", u64::from(c), n)),
            PhaseMix::default,
            move |seed, acc| {
                acc.add_spine(&full_one_with_spine(c, n, active, seed).1);
            },
            move |acc| {
                vec![
                    c.to_string(),
                    format!("{:.1}", acc.mean(acc.reduce)),
                    format!("{:.1}", acc.mean(acc.id_reduction)),
                    format!("{:.1}", acc.mean(acc.leaf_election)),
                    format!("{:.1}", acc.mean(acc.fallback)),
                    format!("{:.1}", acc.mean(acc.total)),
                ]
            },
        );
    }
    report.section(caption_mix, mix.run());
    report.note(
        "Density sensitivity: the tournament's mean grows as lg |A| (it adapts to \
         the actual contenders) while the pipeline is governed by n — flat-ish in \
         |A| and ahead once |A| is within a few powers of two of n. For very sparse \
         activations the adaptive baseline is the better engineering choice, a \
         trade-off outside the paper's worst-case lens."
            .to_string(),
    );
    for (n, wins) in crossovers {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let ne = (n as f64).log2() as u32;
        if wins.is_empty() {
            report.note(format!(
                "n = 2^{ne}: the CD baselines win at every tested C (expected only for tiny \
                 n, where lg n is already as small as the paper's lglg-term constants)."
            ));
        } else {
            report.note(format!(
                "n = 2^{ne}: this paper's algorithm wins at C ∈ {wins:?}. The margin over \
                 the O(log n) descent widens with n (lg lg n·lg lg lg n vs lg n), while at \
                 small n the two are within each other's noise."
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// Mean of `trial` over `trials` seeds from `seed`, as one batch.
    fn mean(trials: usize, seed: u64, trial: impl Fn(u64) -> u64 + Sync) -> f64 {
        let v = RunCtx::new(Scale::Quick).trials("mean", trials, seed, trial);
        v.iter().sum::<u64>() as f64 / v.len() as f64
    }

    #[test]
    fn cd_beats_no_cd_on_one_channel() {
        let (n, a) = (1u64 << 14, 128usize);
        let cd = mean(8, 1, |s| descent_one(1, n, a, s));
        let no_cd = mean(8, 1, |s| decay_one(1, n, a, s));
        assert!(
            cd < no_cd,
            "collision detection must win on one channel: {cd} vs {no_cd}"
        );
    }

    #[test]
    fn full_beats_descent_with_many_channels() {
        // The paper's point: with C large, log n/log C + lglg·lglglg beats log n.
        let (n, a) = (1u64 << 18, 256usize);
        let full = mean(10, 2, |s| paper_rounds(2048, n, a, s));
        let descent = mean(10, 2, |s| descent_one(2048, n, a, s));
        assert!(
            full < descent,
            "at C=2048, n=2^18 the paper's algorithm must win: {full} vs {descent}"
        );
    }

    #[test]
    fn nocd_baselines_sit_in_the_same_envelope() {
        // Typical (mean) solve times for the no-CD algorithms are governed
        // by the decay-sweep latency Θ(lg n) at any C — the log²n/C term is
        // a confidence-tail effect (see DESIGN.md §4). Sanity: the
        // multi-channel variant stays within a small factor of plain decay.
        let (n, a) = (1u64 << 14, 512usize);
        let decay = mean(8, 3, |s| decay_one(1, n, a, s));
        for c in [1u32, 16, 64] {
            let nocd = mean(8, 3, |s| nocd_one(c, n, a, s));
            assert!(
                nocd <= 4.0 * decay + 20.0,
                "C={c}: no-CD multi ({nocd}) far outside decay envelope ({decay})"
            );
        }
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 3);
        assert!(!r.notes.is_empty());
    }

    #[test]
    fn spines_account_for_the_full_runs() {
        // Same seed → same trials: each solver spine must sum to exactly
        // that trial's rounds-to-solve (the solver acts in every round).
        let (c, n, a) = (64u32, 1u64 << 12, 256usize);
        let ctx = RunCtx::new(Scale::Quick);
        let rounds = ctx.trials("rounds", 6, 11, |s| paper_rounds(c, n, a, s));
        let spines = ctx.trials("spines", 6, 11, |s| full_one_with_spine(c, n, a, s).1);
        assert_eq!(rounds.len(), spines.len());
        for (r, spine) in rounds.iter().zip(&spines) {
            let total: u64 = spine.iter().map(|p| p.rounds).sum();
            assert_eq!(total, *r);
        }
        // C = 64 is above the fallback threshold: the spine is pipeline-shaped.
        assert!(spines
            .iter()
            .all(|s| s.first().map(|p| p.name) == Some("reduce")));
    }

    #[test]
    fn fallback_spines_are_tournament_shaped() {
        let spines = RunCtx::new(Scale::Quick).trials("spines", 4, 21, |s| {
            full_one_with_spine(4, 1 << 10, 128, s).1
        });
        for spine in &spines {
            assert_eq!(spine.len(), 1);
            assert_eq!(spine[0].name, "cd-tournament");
        }
    }
}
