//! **E14** (extension) — the §6 expected-time discussion: with `≈ lg n`
//! channels, contention resolution drops to **O(1) expected** rounds
//! (`contention::extensions::ExpectedConstant`), at the cost of a heavier
//! tail than the w.h.p.-optimal pipeline. This experiment charts both the
//! flattening of the mean as `C` grows and the expected-vs-tail trade-off.

use contention::baselines::Willard;
use contention::extensions::ExpectedConstant;
use mac_sim::campaign::SeedStream;
use mac_sim::{Engine, SimConfig};

use super::e09_full_vs_baselines::tournament_one;
use super::{paper_rounds, run_trial, seed_base};
use crate::{ExperimentReport, RunCtx, Samples};

/// One expected-time run's rounds-to-solve.
fn expected_one(c: u32, n: u64, active: usize, seed: u64) -> u64 {
    let mut exec = Engine::new(SimConfig::new(c).seed(seed).max_rounds(1_000_000))
        .populated((0..active).map(|_| ExpectedConstant::new(c, n)));
    run_trial(&mut exec).rounds_to_solve().expect("solved")
}

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E14",
        "Expected-O(1) with ~lg n channels (§6 discussion, implemented)",
    );
    let n = 1u64 << 16; // lg n = 16
    let active = 1024usize;
    let trials = scale.trials();

    // Mean vs C: the expected-time algorithm flattens once C >= lg n. The
    // single-channel expected-time classic (Willard, the paper's ref [5])
    // anchors the comparison — a deterministic batch shared by every row.
    let willard = ctx.trials("Willard baseline", trials, seed_base("e14w", 0, n), |s| {
        let mut exec = Engine::new(SimConfig::new(1).seed(s).max_rounds(1_000_000))
            .populated((0..active).map(|_| Willard::new(n)));
        run_trial(&mut exec).rounds_to_solve().expect("solved")
    });
    let willard_mean = willard.into_iter().collect::<Samples>().mean();
    let caption = format!("Mean rounds, n = 2^16, |A| = {active}");
    let mut sweep = ctx.sweep::<(Samples, Samples, Samples)>(
        &caption,
        &[
            "C",
            "expected-O(1) mean",
            "pipeline (Thm 4) mean",
            "CD tournament mean",
            "Willard (1ch, ref [5]) mean",
        ],
    );
    for &ce in &scale.thin(&[1u32, 2, 3, 4, 5, 8]) {
        let c = 1u32 << ce;
        let xb = seed_base("e14x", u64::from(c), n);
        let fb = seed_base("e14f", u64::from(c), n);
        let tb = seed_base("e14t", u64::from(c), n);
        sweep.row(
            trials,
            SeedStream::Offset(0),
            <(Samples, Samples, Samples)>::default,
            move |i, acc| {
                acc.0.push(expected_one(c, n, active, xb.wrapping_add(i)));
                acc.1.push(paper_rounds(c, n, active, fb.wrapping_add(i)));
                acc.2.push(tournament_one(c, active, tb.wrapping_add(i)));
            },
            move |(xc, full, tour)| {
                vec![
                    c.to_string(),
                    format!("{:.1}", xc.mean()),
                    format!("{:.1}", full.mean()),
                    format!("{:.1}", tour.mean()),
                    format!("{willard_mean:.1}"),
                ]
            },
        );
    }
    report.section(caption, sweep.run());

    // Density independence at C = lg n + 2.
    let c = 18u32;
    let caption_dens = format!("Density independence at C = {c}");
    let mut dens =
        ctx.sweep::<Samples>(&caption_dens, &["|A|", "expected-O(1) mean", "p95", "max"]);
    for &a in &[1usize, 16, 256, 4096, 16384] {
        dens.row(
            trials,
            SeedStream::Offset(seed_base("e14d", a as u64, n)),
            Samples::default,
            move |seed, acc| {
                acc.push(expected_one(c, n, a, seed));
            },
            move |xc| {
                vec![
                    a.to_string(),
                    format!("{:.1}", xc.mean()),
                    format!("{:.1}", xc.percentile(95.0)),
                    format!("{:.0}", xc.max()),
                ]
            },
        );
    }
    report.section(caption_dens, dens.run());
    report.note(
        "Means flatten to a small constant once C approaches lg n, independently of \
         |A| — the §6 observation that expected-time solutions leave 'only a small \
         band of parameters' where collision detection can help. The max column \
         shows the price: a fatter tail than the w.h.p. pipeline."
            .to_string(),
    );
    report.note(
        "Willard's classic (single channel, ref [5]) already achieves expected \
         O(lg lg n) ≈ 5 rounds here — the bar the multi-channel variant only \
         matches, not beats, at this n. That is precisely §6's closing point: \
         expected-time solutions are already so fast that extra channels (and \
         even collision detection itself) have 'only a small band of parameters' \
         left to improve — the paper's contribution lives in the w.h.p. regime."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn expected_time_flattens_with_channels() {
        let n = 1u64 << 16;
        let ctx = RunCtx::new(Scale::Quick);
        let mean = |c: u32| {
            let v = ctx.trials("mean", 15, 3, |s| expected_one(c, n, 512, s));
            v.iter().sum::<u64>() as f64 / v.len() as f64
        };
        let narrow = mean(2);
        let wide = mean(32);
        assert!(wide < narrow, "C=32 ({wide}) must beat C=2 ({narrow})");
        assert!(wide <= 16.0, "expected-constant regime: got {wide}");
    }

    #[test]
    fn mean_is_density_independent_at_log_n_channels() {
        let n = 1u64 << 16;
        let ctx = RunCtx::new(Scale::Quick);
        let mean = |a: usize| {
            let v = ctx.trials("mean", 15, 5, |s| expected_one(18, n, a, s));
            v.iter().sum::<u64>() as f64 / v.len() as f64
        };
        let sparse = mean(2);
        let dense = mean(8192);
        assert!(
            (sparse - dense).abs() <= 10.0,
            "means should be density-independent: {sparse} vs {dense}"
        );
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 2);
    }
}
