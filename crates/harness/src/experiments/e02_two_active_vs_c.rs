//! **E2** — Theorem 1, the `C` axis. Two effects superpose:
//!
//! * the *w.h.p. budget* (`contention::theory::two_active_budget`) falls
//!   as `1/lg C` until the additive `lg lg` term takes over — the
//!   crossover the lower bound of \[14\] says must exist — and stops at
//!   `C = n`, beyond which `TwoActive` uses only `n` channels;
//! * the *typical* completion is `≈ C/(C−1) + ⌈lg lg C⌉ + 2` rounds: more
//!   channels make the rename step certain in one round but grow the
//!   deterministic search by `lg lg C`. Channels buy **confidence**, not
//!   typical speed — which is exactly why the lower bound's `log n/log C`
//!   term is a high-probability statement.

use contention::theory::two_active_budget;
use contention::TwoActive;
use mac_sim::campaign::SeedStream;
use mac_sim::{Engine, SimConfig, StopWhen};

use super::e01_two_active_vs_n::{completion_rounds, solve_rounds};
use super::{run_trial, seed_base};
use crate::{ExperimentReport, RunCtx, Samples};

/// Search (SplitCheck) rounds of one run, from protocol stats.
fn search_rounds_one(c: u32, n: u64, seed: u64) -> u64 {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(1_000_000);
    let mut exec = Engine::new(cfg).populated([TwoActive::new(c, n), TwoActive::new(c, n)]);
    run_trial(&mut exec);
    let stats = exec.iter_nodes().next().expect("has nodes").stats();
    stats.search_rounds
}

/// Mean search rounds over `trials` consecutive seeds. Test helper.
#[cfg(test)]
pub(crate) fn mean_search_rounds(c: u32, n: u64, trials: usize, seed: u64) -> f64 {
    let rounds: Vec<u64> = (0..trials as u64)
        .map(|i| search_rounds_one(c, n, seed.wrapping_add(i)))
        .collect();
    rounds.iter().sum::<u64>() as f64 / rounds.len() as f64
}

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E2",
        "TwoActive vs C: the w.h.p. budget falls as 1/lg C to a lg lg floor",
    );
    let c_exps: Vec<u32> = scale.thin(&[1, 2, 3, 4, 6, 8, 10, 12, 14]);
    let ns = [1u64 << 12, 1u64 << 20];

    let caption = "Rounds to solve / complete vs channel count, |A| = 2";
    let mut sweep = ctx.sweep::<(Samples, Samples, u64, Samples)>(
        caption,
        &[
            "n",
            "C",
            "solved mean",
            "completed mean",
            "search mean (lg lg C part)",
            "whp budget",
            "trials > budget",
        ],
    );
    for &n in &ns {
        for &ce in &c_exps {
            let c = 1u32 << ce;
            let budget = two_active_budget(n, c);
            let solve_base = seed_base("e2s", u64::from(c), n);
            let complete_base = seed_base("e2c", u64::from(c), n);
            let search_base = seed_base("e2x", u64::from(c), n);
            let search_trials = scale.trials().min(30) as u64;
            sweep.row(
                scale.trials(),
                SeedStream::Offset(0),
                <(Samples, Samples, u64, Samples)>::default,
                move |i, acc| {
                    acc.0.push(solve_rounds(c, n, solve_base.wrapping_add(i)));
                    let completed = completion_rounds(c, n, complete_base.wrapping_add(i));
                    acc.1.push(completed);
                    #[allow(clippy::cast_precision_loss)]
                    if completed as f64 > budget {
                        acc.2 += 1;
                    }
                    if i < search_trials {
                        acc.3
                            .push(search_rounds_one(c, n, search_base.wrapping_add(i)));
                    }
                },
                move |(solved, completed, over, search)| {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let n_exp = (n as f64).log2() as u32;
                    vec![
                        format!("2^{n_exp}"),
                        c.to_string(),
                        format!("{:.2}", solved.0.finish().mean),
                        format!("{:.2}", completed.0.finish().mean),
                        format!("{:.2}", search.0.finish().mean),
                        format!("{budget:.1}"),
                        over.to_string(),
                    ]
                },
            );
        }
    }
    report.section(caption, sweep.run());
    report.note(
        "The w.h.p. budget column reproduces the theorem's shape: it falls as \
         1/lg C and flattens at the lg lg floor. Typical completion stays ~5 \
         rounds everywhere — with two nodes, extra channels buy confidence \
         (the n^-2 tail), not typical speed, while the search term grows \
         gently as lg lg C (see the search column)."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn budget_shape_falls_then_flattens() {
        let n = 1u64 << 20;
        let b2 = two_active_budget(n, 2);
        let b256 = two_active_budget(n, 256);
        let b16k = two_active_budget(n, 1 << 14);
        assert!(b256 < b2 / 2.0, "budget must fall steeply: {b2} -> {b256}");
        assert!(
            (b256 - b16k).abs() < 0.6 * b256,
            "budget must flatten near the lg lg floor: {b256} vs {b16k}"
        );
    }

    #[test]
    fn completion_stays_within_budget_across_c() {
        use super::super::e01_two_active_vs_n::measure_completion;
        let n = 1u64 << 16;
        for ce in [1u32, 4, 8, 12] {
            let c = 1u32 << ce;
            let completed = measure_completion(c, n, 20, 11);
            let budget = two_active_budget(n, c);
            for r in &completed {
                assert!((*r as f64) <= budget, "C={c}: {r} > {budget}");
            }
        }
    }

    #[test]
    fn search_rounds_grow_like_lglg_c() {
        let n = 1u64 << 16;
        let narrow = mean_search_rounds(4, n, 15, 2);
        let wide = mean_search_rounds(1 << 12, n, 15, 2);
        assert!(wide > narrow, "search must grow with C: {narrow} vs {wide}");
        assert!(wide <= 5.0, "but only as lg lg C: got {wide}");
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 1);
        assert!(!r.notes.is_empty());
    }
}
