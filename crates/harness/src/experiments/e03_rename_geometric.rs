//! **E3** — Lemma 2: step 1 of `TwoActive` (random channel renaming) is a
//! geometric race with per-round success probability `1 − 1/C`, so the
//! probability both nodes still collide after `t` rounds is `C^{-t}` —
//! giving the `O(log n / log C)` w.h.p. bound.
//!
//! Measured two ways: the full protocol's `rename_rounds` statistic, and a
//! direct Monte-Carlo of the channel-picking race (more trials, cleaner
//! tails).

use contention::theory::rename_tail;
use contention::TwoActive;
use contention_analysis::exceed_fraction;
use contention_analysis::stats::ks_distance;
use mac_sim::campaign::{Collect, SeedStream};
use mac_sim::{Engine, SimConfig, StopWhen};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{run_trial, seed_base};
use crate::{ExperimentReport, RunCtx, Samples};

/// Direct Monte-Carlo of the renaming race: rounds until two uniform picks
/// from `[c]` differ.
pub(crate) fn race_rounds(c: u32, rng: &mut SmallRng) -> u32 {
    let mut rounds = 1;
    while rng.gen_range(1..=c) == rng.gen_range(1..=c) {
        rounds += 1;
    }
    rounds
}

/// The race-round sample vector for one `(C, seed)`: each row that needs
/// the distribution regenerates it from the same seed, which is cheap and
/// keeps every row an independent, resumable campaign cell.
fn race_samples(c: u32, seed: u64, count: usize) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| f64::from(race_rounds(c, &mut rng)))
        .collect()
}

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E3",
        "Renaming race tail (Lemma 2: P[still colliding after t rounds] = C^-t)",
    );
    let cs = [4u32, 16, 64];
    let n = 1u64 << 16;
    let mc_trials = scale.mc_trials();

    // Monte-Carlo tail table: one cell per (C, t) row.
    let caption_mc = "Monte-Carlo of the channel-picking race";
    let mut mc_sweep = ctx.sweep::<Collect<f64>>(
        caption_mc,
        &["C", "t", "measured P[rounds > t]", "theory C^-t"],
    );
    for &c in &cs {
        for t in 1..=3u32 {
            mc_sweep.row(
                1,
                SeedStream::Offset(seed_base("e3mc", u64::from(c), 0)),
                Collect::default,
                move |seed, acc| {
                    let samples = race_samples(c, seed, mc_trials);
                    acc.0.push(exceed_fraction(&samples, f64::from(t)));
                },
                move |acc| {
                    let theory = rename_tail(c, t);
                    vec![
                        c.to_string(),
                        t.to_string(),
                        format!("{:.5}", acc.0[0]),
                        format!("{theory:.5}"),
                    ]
                },
            );
        }
    }
    report.section(caption_mc, mc_sweep.run());

    // Exact discrete KS against the predicted law, per C.
    let caption_ks = "Whole-distribution fit (Kolmogorov–Smirnov)";
    let mut ks_sweep = ctx.sweep::<Collect<f64>>(
        caption_ks,
        &["C", "KS distance to Geometric(1 - 1/C)", "sample size"],
    );
    for &c in &cs {
        ks_sweep.row(
            1,
            SeedStream::Offset(seed_base("e3mc", u64::from(c), 0)),
            Collect::default,
            move |seed, acc| {
                let ints: Vec<u64> = race_samples(c, seed, mc_trials)
                    .iter()
                    .map(|&x| {
                        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                        let i = x as u64;
                        i
                    })
                    .collect();
                #[allow(clippy::cast_possible_truncation)]
                acc.0
                    .push(ks_distance(&ints, |k| 1.0 - rename_tail(c, k as u32)));
            },
            move |acc| {
                vec![
                    c.to_string(),
                    format!("{:.5}", acc.0[0]),
                    mc_trials.to_string(),
                ]
            },
        );
    }
    report.section(caption_ks, ks_sweep.run());

    // Protocol cross-check: rename_rounds measured in real executions.
    let caption_proto = "Protocol cross-check (geometric mean 1/(1-1/C))";
    let mut proto_sweep = ctx.sweep::<Samples>(
        caption_proto,
        &["C", "protocol mean rename rounds", "theory C/(C-1)"],
    );
    for &c in &cs {
        proto_sweep.row(
            scale.trials(),
            SeedStream::Offset(seed_base("e3p", u64::from(c), 1)),
            Samples::default,
            move |seed, acc| {
                let cfg = SimConfig::new(c)
                    .seed(seed)
                    .stop_when(StopWhen::AllTerminated)
                    .max_rounds(100_000);
                let mut exec =
                    Engine::new(cfg).populated([TwoActive::new(c, n), TwoActive::new(c, n)]);
                run_trial(&mut exec);
                acc.push(
                    exec.iter_nodes()
                        .next()
                        .expect("has nodes")
                        .stats()
                        .rename_rounds,
                );
            },
            move |acc| {
                let theory = f64::from(c) / f64::from(c - 1);
                vec![
                    c.to_string(),
                    format!("{:.3}", acc.0.finish().mean),
                    format!("{theory:.3}"),
                ]
            },
        );
    }
    report.section(caption_proto, proto_sweep.run());
    report.note(
        "Measured tails match C^-t to Monte-Carlo precision; the protocol's \
         rename step is exactly the analyzed geometric race."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn race_tail_matches_theory() {
        let mut rng = SmallRng::seed_from_u64(1);
        let c = 8u32;
        let samples: Vec<f64> = (0..40_000)
            .map(|_| f64::from(race_rounds(c, &mut rng)))
            .collect();
        for t in 1..=2u32 {
            let measured = exceed_fraction(&samples, f64::from(t));
            let theory = rename_tail(c, t);
            assert!(
                (measured - theory).abs() < 0.01,
                "t={t}: {measured} vs {theory}"
            );
        }
    }

    #[test]
    fn race_rounds_is_at_least_one() {
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            assert!(race_rounds(2, &mut rng) >= 1);
        }
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 3);
    }

    #[test]
    fn whole_distribution_is_geometric() {
        let mut rng = SmallRng::seed_from_u64(9);
        let c = 16u32;
        let samples: Vec<u64> = (0..30_000)
            .map(|_| u64::from(race_rounds(c, &mut rng)))
            .collect();
        let d =
            contention_analysis::stats::ks_distance(&samples, |k| 1.0 - rename_tail(c, k as u32));
        assert!(d < 0.01, "KS distance {d} too large for the predicted law");
    }
}
