//! **E10** — optimality against the lower bound of \[Newport 2014\]:
//! `Ω(log n / log C + log log n)` rounds are necessary. If the paper's
//! upper bound is tight (up to the `log log log n` factor), the ratio
//! `measured / (lg n/lg C + lg lg n)` must stay bounded over the whole
//! `(n, C)` grid — no drift as either parameter grows.

use contention::theory::{lower_bound_curve, upper_bound_gap};
use mac_sim::campaign::SeedStream;

use super::e09_full_vs_baselines::full_one_with_spine;
use super::seed_base;
use crate::{cell_f64, ExperimentReport, RunCtx, Samples};

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E10",
        "Measured rounds / lower-bound curve stays a bounded constant",
    );
    let ns: Vec<u64> = scale.thin(&[1u64 << 10, 1 << 14, 1 << 18]);
    let cs: Vec<u32> = scale.thin(&[8, 32, 128, 512, 2048]);
    let active = 256usize;
    let trials = scale.trials().min(30);

    let caption = format!("Ratio sweep, |A| = {active}");
    let mut sweep = ctx.sweep::<(Samples, u64)>(
        &caption,
        &[
            "n",
            "C",
            "mean rounds",
            "lower-bound curve",
            "ratio",
            "% solved in reduce",
        ],
    );
    for &n in &ns {
        for &c in &cs {
            sweep.row(
                trials,
                SeedStream::Offset(seed_base("e10", u64::from(c), n)),
                <(Samples, u64)>::default,
                move |seed, acc| {
                    // One execution per seed: the rounds and the solver's
                    // phase spine come off the same run. A spine still in
                    // its first record means the run never left Reduce.
                    let (rounds, spine) = full_one_with_spine(c, n, active, seed);
                    acc.0.push(rounds);
                    if spine.last().map(|r| r.name) == Some("reduce") {
                        acc.1 += 1;
                    }
                },
                move |(rounds, in_reduce)| {
                    let mean = rounds.0.finish().mean;
                    let bound = lower_bound_curve(n, c);
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let ne = (n as f64).log2() as u32;
                    #[allow(clippy::cast_precision_loss)]
                    let pct = 100.0 * in_reduce as f64 / trials.max(1) as f64;
                    vec![
                        format!("2^{ne}"),
                        c.to_string(),
                        format!("{mean:.1}"),
                        format!("{bound:.1}"),
                        format!("{:.2}", mean / bound),
                        format!("{pct:.0}%"),
                    ]
                },
            );
        }
    }
    let table = sweep.run();
    let ratios: Vec<f64> = table.rows().iter().map(|row| cell_f64(&row[4])).collect();
    report.section(caption, table);

    report.note(
        "A least-squares decomposition of these means into Theorem 4's two terms is \
         deliberately NOT reported: at a fixed activation density the pipeline \
         frequently solves inside Reduce (whose cost depends on where the 1/n̂ \
         schedule meets |A|) — the last column, read straight off the solver's \
         phase-telemetry spine, quantifies exactly how often — so typical-case \
         means do not split along worst-case term boundaries. The bounded ratio \
         above is the meaningful optimality check; per-term behavior is isolated \
         by E1-E3 (log n/log C) and E5/E8 (the log log terms) instead."
            .to_string(),
    );
    let max = ratios.iter().copied().fold(f64::MIN, f64::max);
    let min = ratios.iter().copied().fold(f64::MAX, f64::min);
    report.note(format!(
        "Ratios span [{min:.2}, {max:.2}] across the grid — a bounded constant band \
         (the paper's upper bound is a log log log n factor above the lower bound, \
         which at these n is ≤ {:.1} and absorbed into the band).",
        upper_bound_gap(1 << 18)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::super::e09_full_vs_baselines::full_rounds;
    use super::*;
    use crate::Scale;

    #[test]
    fn ratio_band_is_bounded() {
        let mut ratios = Vec::new();
        for (n, c) in [(1u64 << 10, 32u32), (1 << 14, 32), (1 << 18, 512)] {
            let rounds = full_rounds(c, n, 128, 8, 4);
            let mean = rounds.iter().sum::<u64>() as f64 / rounds.len() as f64;
            ratios.push(mean / lower_bound_curve(n, c));
        }
        let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max < 12.0, "ratio drifted: {ratios:?}");
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 1);
    }
}
