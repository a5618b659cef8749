//! **E13** — ablation of the paper's main technique: what do *coalescing
//! cohorts* actually buy? We run `LeafElection` twice — once with the
//! cohort-accelerated `(p+1)`-ary `SplitSearch` (the paper) and once with
//! the search degraded to plain binary search (what a cohort-free design
//! would do). The paper predicts `O(log h · log log x)` vs
//! `O(log h · log x)` rounds, so the speed-up factor must *grow with `x`*.
//!
//! The ablation is run under **dense occupancy** (leaves `1..=x`), the
//! regime where cohorts actually coalesce all the way to size `x`; under
//! sparse random occupancy most cohorts retire unpaired after 2–4 phases
//! and neither search strategy dominates (that regime is reported too, as
//! a second table, because it is an honest finding about the technique).

use mac_sim::campaign::SeedStream;

use super::e08_leaf_election::{measure_one, Occupancy};
use super::seed_base;
use crate::{cell_f64, ExperimentReport, RunCtx, Samples};

/// Renders one ablation row off its paired aggregates.
fn ablation_cells(x: u32, cohort: &Samples, binary: &Samples) -> Vec<String> {
    let cohort = cohort.mean();
    let binary = binary.mean();
    vec![
        x.to_string(),
        format!("{cohort:.1}"),
        format!("{binary:.1}"),
        format!("{:.2}×", binary / cohort),
    ]
}

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E13",
        "Coalescing-cohorts ablation: (p+1)-ary vs binary SplitSearch",
    );
    let c = 1u32 << 14; // 8192-leaf tree, h = 13
    let xs: Vec<u32> = scale.thin(&[4, 16, 64, 512, 4096]);
    let trials = scale.trials().min(40);

    let caption = format!("Dense occupancy at C = 2^14 ({trials} trials/point)");
    let mut sweep = ctx.sweep::<(Samples, Samples)>(
        &caption,
        &[
            "x (dense leaves)",
            "cohort search mean rounds",
            "binary search mean rounds",
            "speed-up",
        ],
    );
    for &x in &xs {
        let cb = seed_base("e13c", u64::from(x), 0);
        let bb = seed_base("e13b", u64::from(x), 0);
        sweep.row(
            trials,
            SeedStream::Offset(0),
            <(Samples, Samples)>::default,
            move |i, acc| {
                acc.0
                    .push(measure_one(c, x, cb.wrapping_add(i), false, Occupancy::Dense).0);
                acc.1
                    .push(measure_one(c, x, bb.wrapping_add(i), true, Occupancy::Dense).0);
            },
            move |(cohort, binary)| ablation_cells(x, &cohort, &binary),
        );
    }
    let dense_table = sweep.run();
    let speedups: Vec<(u32, f64)> = dense_table
        .rows()
        .iter()
        .zip(&xs)
        .map(|(row, &x)| (x, cell_f64(row[3].trim_end_matches('×'))))
        .collect();
    report.section(caption, dense_table);

    // Sparse counterpoint: with random leaves the pairing rule retires most
    // cohorts before they grow, so the two variants tie.
    let caption_sparse = "Sparse (random) occupancy counterpoint";
    let mut sparse = ctx.sweep::<(Samples, Samples)>(
        caption_sparse,
        &["x (random leaves)", "cohort", "binary", "speed-up"],
    );
    for &x in &[64u32, 512] {
        let cb = seed_base("e13cs", u64::from(x), 0);
        let bb = seed_base("e13bs", u64::from(x), 0);
        sparse.row(
            trials,
            SeedStream::Offset(0),
            <(Samples, Samples)>::default,
            move |i, acc| {
                acc.0
                    .push(measure_one(c, x, cb.wrapping_add(i), false, Occupancy::Random).0);
                acc.1
                    .push(measure_one(c, x, bb.wrapping_add(i), true, Occupancy::Random).0);
            },
            move |(cohort, binary)| ablation_cells(x, &cohort, &binary),
        );
    }
    report.section(caption_sparse, sparse.run());

    let (first, last) = (
        speedups.first().expect("nonempty"),
        speedups.last().expect("nonempty"),
    );
    report.note(format!(
        "Dense occupancy: speed-up grows from {:.2}× at x = {} to {:.2}× at x = {} — \
         the log x vs log log x separation the coalescing-cohorts technique was \
         invented for.",
        first.1, first.0, last.1, last.0
    ));
    report.note(
        "Sparse occupancy: near-1× speed-up, because Fig. 3's pairing rule retires \
         unpaired cohorts and runs finish before cohorts grow — the technique's \
         payoff is specifically the adversarial dense case its worst-case bound \
         covers."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// Mean rounds to elect over 8 dense trials at seeds `11..19`.
    fn dense_mean(ctx: &RunCtx, c: u32, x: u32, binary: bool) -> f64 {
        let rounds = ctx.trials("dense", 8, 11, |s| {
            measure_one(c, x, s, binary, Occupancy::Dense).0
        });
        rounds.into_iter().collect::<Samples>().mean()
    }

    #[test]
    fn cohort_search_beats_binary_when_dense() {
        let c = 1u32 << 14;
        let ctx = RunCtx::new(Scale::Quick);
        let cohort = dense_mean(&ctx, c, 512, false);
        let binary = dense_mean(&ctx, c, 512, true);
        assert!(
            cohort < binary,
            "cohorts must accelerate the dense search: {cohort} vs {binary}"
        );
    }

    #[test]
    fn both_variants_always_elect() {
        // measure_one() panics if no leader emerges, so surviving is the test.
        let ctx = RunCtx::new(Scale::Quick);
        let _ = ctx.trials("dense", 5, 1, |s| {
            measure_one(1 << 10, 64, s, true, Occupancy::Dense)
        });
        let _ = ctx.trials("random", 5, 1, |s| {
            measure_one(1 << 10, 64, s, false, Occupancy::Random)
        });
    }

    #[test]
    fn speedup_grows_with_x_when_dense() {
        let c = 1u32 << 14;
        let ctx = RunCtx::new(Scale::Quick);
        let ratio = |x: u32| dense_mean(&ctx, c, x, true) / dense_mean(&ctx, c, x, false);
        let small = ratio(4);
        let large = ratio(4096);
        assert!(
            large > small,
            "ablation gap must widen with x: {small:.2} -> {large:.2}"
        );
        assert!(
            large > 1.3,
            "dense speed-up should be substantial: {large:.2}"
        );
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 2);
        assert!(!r.notes.is_empty());
    }
}
