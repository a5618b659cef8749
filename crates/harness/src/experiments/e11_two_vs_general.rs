//! **E11** — §4 vs §5 on the restricted case: with `|A| = 2`, the dedicated
//! `TwoActive` algorithm is exactly optimal while the general pipeline pays
//! its fixed `Reduce`/`IdReduction` scaffolding plus the `log log log n`
//! search factor. Both solve; the specialist should never lose.

use contention::phase::PhaseTelemetry;
use contention::{FullAlgorithm, Params};
use mac_sim::campaign::SeedStream;
use mac_sim::{Engine, SimConfig, StopWhen};

use super::e01_two_active_vs_n::completion_rounds as two_active_one;
use super::{run_trial, seed_base};
use crate::{ExperimentReport, RunCtx, Samples};

/// One general-pipeline run: completion rounds (all nodes terminated,
/// matching the specialist's metric and immune to lucky early lone
/// transmissions) plus the eventual leader's rounds inside `Reduce`, read
/// off its phase-telemetry spine — the "fixed scaffolding" share the
/// specialist never pays.
fn general_one(c: u32, n: u64, seed: u64) -> (u64, u64) {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(1_000_000);
    let mut exec =
        Engine::new(cfg).populated((0..2).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
    let report = run_trial(&mut exec);
    let reduce = report
        .solver
        .map(|id| {
            exec.node(id)
                .phase_stats()
                .iter()
                .filter(|r| r.name == "reduce")
                .map(|r| r.rounds)
                .sum::<u64>()
        })
        .unwrap_or_default();
    (report.rounds_executed, reduce)
}

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new("E11", "TwoActive vs the general algorithm on |A| = 2");
    let n_exps: Vec<u32> = scale.thin(&[8, 12, 16, 20]);
    let cs = [64u32, 1024];
    let trials = scale.trials();

    let caption = "Mean rounds with exactly two active nodes";
    let mut sweep = ctx.sweep::<(Samples, Samples, u64)>(
        caption,
        &[
            "C",
            "n",
            "TwoActive completion mean",
            "general completion mean",
            "general/TwoActive",
            "leader rounds in Reduce",
        ],
    );
    for &c in &cs {
        for &ne in &n_exps {
            let n = 1u64 << ne;
            let two_base = seed_base("e11t", u64::from(c), n);
            let gen_base = seed_base("e11g", u64::from(c), n);
            sweep.row(
                trials,
                SeedStream::Offset(0),
                <(Samples, Samples, u64)>::default,
                move |i, acc| {
                    acc.0.push(two_active_one(c, n, two_base.wrapping_add(i)));
                    let (completion, reduce) = general_one(c, n, gen_base.wrapping_add(i));
                    acc.1.push(completion);
                    acc.2 += reduce;
                },
                move |(two, gen, reduce_total)| {
                    let two_mean = two.mean();
                    let gen_mean = gen.mean();
                    #[allow(clippy::cast_precision_loss)]
                    let reduce = reduce_total as f64 / trials.max(1) as f64;
                    vec![
                        c.to_string(),
                        format!("2^{ne}"),
                        format!("{two_mean:.1}"),
                        format!("{gen_mean:.1}"),
                        format!("{:.2}", gen_mean / two_mean),
                        format!("{reduce:.1}"),
                    ]
                },
            );
        }
    }
    report.section(caption, sweep.run());
    report.note(
        "The specialist wins at every point, by a factor that grows slowly with n — \
         consistent with the general algorithm's extra lg lg lg n factor plus its \
         fixed Reduce overhead (2⌈lg lg n⌉ rounds spent before renaming even starts). \
         The last column reads that overhead straight off the leader's phase-telemetry \
         spine: with only two contenders almost every trial is decided inside Reduce, \
         so the scaffolding is most of the generalist's bill."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn specialist_beats_generalist() {
        let (c, n) = (64u32, 1u64 << 16);
        let ctx = RunCtx::new(Scale::Quick);
        let two = ctx.trials("two", 15, 1, |s| two_active_one(c, n, s));
        let gen = ctx.trials("general", 15, 1, |s| general_one(c, n, s).0);
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(
            mean(&two) <= mean(&gen),
            "TwoActive ({}) must not lose to the general algorithm ({})",
            mean(&two),
            mean(&gen)
        );
    }

    #[test]
    fn reduce_overhead_is_within_the_total() {
        let (c, n) = (64u32, 1u64 << 16);
        let runs = RunCtx::new(Scale::Quick).trials("general", 10, 3, |s| general_one(c, n, s));
        let mean_total = runs.iter().map(|r| r.0).sum::<u64>() as f64 / runs.len() as f64;
        let reduce = runs.iter().map(|r| r.1).sum::<u64>() as f64 / runs.len() as f64;
        assert!(reduce > 0.0, "the pipeline always enters Reduce");
        assert!(
            reduce <= mean_total,
            "spine rounds ({reduce}) cannot exceed completion rounds ({mean_total})"
        );
    }

    #[test]
    fn both_always_solve() {
        let (c, n) = (1024u32, 1u64 << 12);
        let ctx = RunCtx::new(Scale::Quick);
        assert_eq!(
            ctx.trials("two", 10, 2, |s| two_active_one(c, n, s)).len(),
            10
        );
        assert_eq!(
            ctx.trials("general", 10, 2, |s| general_one(c, n, s)).len(),
            10
        );
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 1);
    }
}
