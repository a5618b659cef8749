//! **E6** — Theorem 6 / Lemmas 7–10: starting from `|A| = O(log n)`,
//! `IdReduction` terminates within `O(log n / log C)` rounds w.h.p., leaving
//! at most `C/2` survivors with distinct ids from `[C/2]`.

use contention::{IdReduction, IdReductionOutcome, Params};
use contention_analysis::{Summary, Table};
use mac_sim::campaign::SeedStream;
use mac_sim::{Engine, SimConfig, StopWhen, Trace};
use std::collections::HashSet;

use super::{observe_trial, run_trial, seed_base};
use crate::{ExperimentReport, RunCtx, Samples};
use mac_sim::trials::fan_out;

/// One trial's digest: (rounds, surviving ids).
type Digest = (u64, Vec<u32>);

/// One `IdReduction` execution at one seed.
fn measure_one(c: u32, active: usize, params: Params, seed: u64) -> Digest {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(1_000_000);
    let mut exec = Engine::new(cfg).populated((0..active).map(|_| IdReduction::new(params, c)));
    let report = run_trial(&mut exec);
    let ids: Vec<u32> = exec
        .iter_nodes()
        .filter_map(|p| match p.outcome().expect("terminated") {
            IdReductionOutcome::Renamed(id) => Some(id),
            IdReductionOutcome::Eliminated => None,
        })
        .collect();
    (report.rounds_executed, ids)
}

#[cfg(test)]
pub(crate) fn measure(
    c: u32,
    active: usize,
    params: Params,
    trials: usize,
    seed: u64,
) -> Vec<Digest> {
    (0..trials as u64)
        .map(|i| measure_one(c, active, params, seed.wrapping_add(i)))
        .collect()
}

/// Streaming per-row state for the invariant table.
#[derive(Default)]
struct IdRow {
    rounds: Samples,
    survivors: Samples,
    not_within: u64,
    not_unique: u64,
}

impl mac_sim::campaign::Aggregate for IdRow {
    fn merge(&mut self, other: Self) {
        self.rounds.merge(other.rounds);
        self.survivors.merge(other.survivors);
        self.not_within += other.not_within;
        self.not_unique += other.not_unique;
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E6",
        "IdReduction (Theorem 6: unique ids from [C/2] in O(log n/log C) rounds)",
    );
    let c_exps: Vec<u32> = scale.thin(&[4, 6, 8, 10, 12, 14]);
    // |A| = Θ(log n): 24 models n = 2^24; 200 stresses the reduction path.
    let actives = [24usize, 200];

    let caption = "Rounds and survivors (practical constants)";
    let mut sweep = ctx.sweep::<IdRow>(
        caption,
        &[
            "C",
            "|A|",
            "rounds mean",
            "rounds p95",
            "survivors mean",
            "survivors ≤ C/2?",
            "ids always unique?",
        ],
    );
    for &ce in &c_exps {
        let c = 1u32 << ce;
        for &active in &actives {
            sweep.row(
                scale.trials(),
                SeedStream::Offset(seed_base("e6", u64::from(c), active as u64)),
                IdRow::default,
                move |seed, acc| {
                    let (rounds, ids) = measure_one(c, active, Params::practical(), seed);
                    acc.rounds.push(rounds);
                    acc.survivors.push(ids.len() as u64);
                    if ids.len() as u32 > c / 2 {
                        acc.not_within += 1;
                    }
                    let set: HashSet<u32> = ids.iter().copied().collect();
                    if set.len() != ids.len() || ids.iter().any(|&id| id < 1 || id > c / 2) {
                        acc.not_unique += 1;
                    }
                },
                move |acc| {
                    let within = acc.not_within == 0;
                    let unique = acc.not_unique == 0;
                    assert!(within && unique, "C={c} |A|={active}: invariant violated");
                    let rounds = acc.rounds.0.finish();
                    vec![
                        c.to_string(),
                        active.to_string(),
                        format!("{:.1}", rounds.mean),
                        format!("{:.0}", rounds.p95),
                        format!("{:.1}", acc.survivors.0.finish().mean),
                        "yes".to_string(),
                        "yes".to_string(),
                    ]
                },
            );
        }
    }
    report.section(caption, sweep.run());

    // A second, smaller sweep with the paper's literal constants.
    let caption_paper = "Paper-literal constants";
    let mut paper_sweep = ctx.sweep::<Samples>(
        caption_paper,
        &["C", "|A|", "rounds mean (paper k=√C/144, clamped ≥3)"],
    );
    for &c in &[1u32 << 8, 1 << 12] {
        paper_sweep.row(
            scale.trials(),
            SeedStream::Offset(seed_base("e6p", u64::from(c), 0)),
            Samples::default,
            move |seed, acc| {
                acc.push(measure_one(c, 24, Params::paper(), seed).0);
            },
            move |acc| {
                vec![
                    c.to_string(),
                    "24".into(),
                    format!("{:.1}", acc.0.finish().mean),
                ]
            },
        );
    }
    report.section(caption_paper, paper_sweep.run());

    // Lemma 7's dynamics: the active-set trajectory, read off the traces
    // (in a rename round every active node transmits, so the total
    // transmitter count in that round *is* |A_r|). One bounded batch on the
    // trial layer — itself a single-cell campaign — feeding several rows.
    let (c, active) = (64u32, 200usize);
    let trajectories: Vec<Vec<u64>> = fan_out(
        scale.trials().min(30),
        super::seed_base("e6traj", u64::from(c), active as u64),
        None,
        |s| {
            let cfg = SimConfig::new(c)
                .seed(s)
                .stop_when(StopWhen::AllTerminated)
                .max_rounds(1_000_000);
            let mut exec = Engine::new(cfg)
                .populated((0..active).map(|_| IdReduction::new(Params::practical(), c)));
            let mut trace = Trace::new();
            observe_trial(&mut exec, &mut trace);
            trace
                .rounds()
                .iter()
                .filter(|rt| rt.round % 3 == 0)
                .map(|rt| rt.outcomes.iter().map(|oc| oc.transmitters as u64).sum())
                .collect()
        },
    );
    let mut traj_table = Table::new(&["rename attempt", "|A| mean", "|A| max", "target C/6"]);
    let attempts = trajectories.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..attempts.min(8) {
        let vals: Vec<u64> = trajectories
            .iter()
            .filter_map(|t| t.get(i).copied())
            .collect();
        let s = Summary::from_u64(&vals);
        traj_table.row_owned(vec![
            (i + 1).to_string(),
            format!("{:.1}", s.mean),
            format!("{:.0}", s.max),
            format!("{:.1}", f64::from(c) / 6.0),
        ]);
    }
    report.section(
        format!("Active-set trajectory (Lemma 7) at C = {c}, |A|0 = {active}"),
        traj_table,
    );
    report.note(
        "The trajectory shows Lemma 7's mechanism: each reduction round cuts the \
         active set geometrically; renaming then succeeds within a couple of \
         attempts (Lemmas 9-10; the C/6 threshold in the analysis is \
         conservative — empirically renaming already succeeds well above it)."
            .to_string(),
    );
    report.note(
        "All runs end with ≤ C/2 survivors holding distinct ids from [C/2]; \
         rounds shrink as C grows, matching the lg n/lg C shape of Theorem 6."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn invariants_hold_at_every_point() {
        for (c, active) in [(16u32, 24usize), (256, 200), (4096, 24)] {
            let data = measure(c, active, Params::practical(), 8, 5);
            for (rounds, ids) in &data {
                assert!(*rounds >= 1);
                assert!(!ids.is_empty(), "C={c} |A|={active}: nobody renamed");
                assert!(ids.len() as u32 <= c / 2);
                let set: HashSet<u32> = ids.iter().copied().collect();
                assert_eq!(set.len(), ids.len(), "C={c}: duplicates");
            }
        }
    }

    #[test]
    fn rounds_decrease_with_channels() {
        let mean = |c: u32| {
            let data = measure(c, 64, Params::practical(), 15, 9);
            data.iter().map(|d| d.0).sum::<u64>() as f64 / data.len() as f64
        };
        let narrow = mean(16);
        let wide = mean(1 << 12);
        assert!(
            wide <= narrow,
            "C=4096 ({wide}) should not exceed C=16 ({narrow})"
        );
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 3);
    }
}
