//! **E5** — Theorem 5: after `Reduce`'s `2⌈lg lg n⌉` rounds, between 1 and
//! `O(log n)` nodes survive, w.h.p., from *any* starting activation size.

use contention::{Params, Reduce, ReduceOutcome};
use mac_sim::campaign::SeedStream;
use mac_sim::{Engine, SimConfig, StopWhen};

use super::{run_trial, seed_base};
use crate::{ExperimentReport, RunCtx, Samples};

/// One trial's survivor count plus a leader flag for `(n, active)`.
pub(crate) fn survivors_one(n: u64, active: usize, seed: u64) -> (usize, bool) {
    let cfg = SimConfig::new(1)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100_000);
    let mut exec = Engine::new(cfg).populated((0..active).map(|_| Reduce::new(n)));
    run_trial(&mut exec);
    let mut survived = 0usize;
    let mut leader = false;
    for node in exec.iter_nodes() {
        match node.outcome().expect("terminated") {
            ReduceOutcome::Survived => survived += 1,
            ReduceOutcome::Leader => leader = true,
            ReduceOutcome::Knocked => {}
        }
    }
    (survived, leader)
}

/// Survivor counts (plus a leader flag) across consecutive seeds. Test
/// helper; the report path streams.
#[cfg(test)]
pub(crate) fn survivors(n: u64, active: usize, trials: usize, seed: u64) -> Vec<(usize, bool)> {
    (0..trials as u64)
        .map(|i| survivors_one(n, active, seed.wrapping_add(i)))
        .collect()
}

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E5",
        "Reduce survivor counts (Theorem 5: 1..O(log n) survivors in 2⌈lg lg n⌉ rounds)",
    );
    let n_exps: Vec<u32> = scale.thin(&[8, 12, 16, 20]);

    let caption = "Surviving actives after Reduce";
    let mut sweep = ctx.sweep::<(Samples, u64, u64)>(
        caption,
        &[
            "n",
            "|A|",
            "rounds",
            "survivors mean",
            "survivors p95",
            "survivors max",
            "bound 12·lg n",
            "leader runs",
            "wiped runs",
        ],
    );
    let trials = scale.trials();
    for &ne in &n_exps {
        let n = 1u64 << ne;
        let lg_n = f64::from(ne);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let activations: Vec<(String, usize)> = vec![
            ("n".into(), (n as usize).min(1 << 14)),
            ("√n".into(), (n as f64).sqrt() as usize),
            ("lg n".into(), ne as usize),
        ];
        for (label, active) in activations {
            let active = active.max(1);
            sweep.row(
                trials,
                SeedStream::Offset(seed_base("e5", n, active as u64)),
                <(Samples, u64, u64)>::default,
                move |seed, acc| {
                    let (survived, leader) = survivors_one(n, active, seed);
                    acc.0.push(survived as u64);
                    if leader {
                        acc.1 += 1;
                    }
                    if survived == 0 && !leader {
                        acc.2 += 1;
                    }
                },
                move |(counts, leaders, wiped)| {
                    let s = counts.0.finish();
                    let rounds = Reduce::total_rounds(Params::practical(), n);
                    vec![
                        format!("2^{ne}"),
                        format!("{label} = {active}"),
                        rounds.to_string(),
                        format!("{:.1}", s.mean),
                        format!("{:.0}", s.p95),
                        format!("{:.0}", s.max),
                        format!("{:.0}", 12.0 * lg_n),
                        format!("{leaders}/{trials}"),
                        wiped.to_string(),
                    ]
                },
            );
        }
    }
    report.section(caption, sweep.run());
    report.note(
        "Paper: survivors ∈ [1, αβ·lg n] w.h.p. Measured: the max survivor count \
         stays below 12·lg n at every activation density, and the wiped-runs column \
         is zero — a run ends with no survivors only when a lone broadcast already \
         made some node leader (the `leader runs` column), which by itself solves \
         the problem. Leaders are common at |A| ≈ n because the very first \
         iteration transmits with probability 1/n, putting the expected \
         transmitter count at exactly 1."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn survivors_bounded_and_nonzero() {
        let n = 1u64 << 12;
        for (active, seed) in [(4096usize, 1u64), (64, 2), (12, 3)] {
            let data = survivors(n, active, 10, seed);
            for (i, &(s, leader)) in data.iter().enumerate() {
                assert!(
                    s >= 1 || leader,
                    "trial {i} (active={active}): no survivor and no leader"
                );
                assert!(
                    (s as f64) <= 12.0 * 12.0,
                    "trial {i} (active={active}): {s} survivors"
                );
            }
        }
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 1);
        assert!(!r.sections[0].table.is_empty());
    }
}
