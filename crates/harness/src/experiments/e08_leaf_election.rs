//! **E8** — Theorem 17 / Lemma 16: `LeafElection` elects a leader in
//! `O(log h · log log x)` rounds (`h = lg C`, `x` starting actives), and the
//! per-phase `SplitSearch` cost shrinks like `(1/i)·log h` as cohorts grow.

use contention::theory::{leaf_election_shape, split_search_budget};
use contention::tree::ChannelTree;
use contention::LeafElection;
use contention_analysis::Table;
use mac_sim::campaign::SeedStream;
use mac_sim::{Engine, SimConfig, StopWhen};

use super::{run_trial, seed_base};
use crate::{sample_distinct, ExperimentReport, RunCtx, Samples};

/// One trial's digest: (rounds to solve, per-phase search rounds of the winner).
type Digest = (u64, Vec<u64>);

/// How the `x` active nodes are placed on the tree's leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Occupancy {
    /// `x` uniformly random distinct leaves: the typical case, where most
    /// cohorts fail to find a partner and retire early (few phases).
    Random,
    /// Leaves `1..=x`, densely packing subtrees: the adversarial case the
    /// theorem's `O(log x)`-phase bound is about — every phase pairs every
    /// cohort and sizes double all the way to `x`.
    Dense,
}

/// One `LeafElection` execution at one seed.
pub(crate) fn measure_one(c: u32, x: u32, seed: u64, binary: bool, occupancy: Occupancy) -> Digest {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(1_000_000);
    let leaves = u64::from(ChannelTree::for_election(c).leaves());
    let ids: Vec<u32> = match occupancy {
        Occupancy::Random => sample_distinct(leaves, x as usize, seed ^ 0xE8)
            .into_iter()
            .map(|id| id as u32 + 1)
            .collect(),
        Occupancy::Dense => (1..=x).collect(),
    };
    let mut exec = Engine::new(cfg).populated(ids.into_iter().map(|id| {
        if binary {
            LeafElection::with_binary_search(c, id)
        } else {
            LeafElection::new(c, id)
        }
    }));
    let report = run_trial(&mut exec);
    let winner = report.leaders.first().expect("leader elected");
    (
        report.rounds_to_solve().expect("solved"),
        exec.node(*winner).stats().search_rounds_by_phase.clone(),
    )
}

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E8",
        "LeafElection (Theorem 17: O(log h · log log x) rounds)",
    );
    let cs = [64u32, 1024, 1 << 14];
    let xs: Vec<u32> = scale.thin(&[2, 8, 32, 128, 512]);

    let caption = "Rounds to elect a leader";
    let mut sweep = ctx.sweep::<Samples>(
        caption,
        &[
            "C",
            "h",
            "x",
            "rounds mean",
            "rounds max",
            "theory lg h·lglg x",
            "mean/theory",
        ],
    );
    for &c in &cs {
        let tree = ChannelTree::for_election(c);
        let h = tree.height();
        for &x in &xs {
            if x > tree.leaves() {
                continue;
            }
            sweep.row(
                scale.trials(),
                SeedStream::Offset(seed_base("e8", u64::from(c), u64::from(x))),
                Samples::default,
                move |seed, acc| {
                    acc.push(measure_one(c, x, seed, false, Occupancy::Random).0);
                },
                move |rounds| {
                    let theory = leaf_election_shape(h, x);
                    vec![
                        c.to_string(),
                        h.to_string(),
                        x.to_string(),
                        format!("{:.1}", rounds.mean()),
                        format!("{:.0}", rounds.max()),
                        format!("{theory:.1}"),
                        format!("{:.1}", rounds.mean() / theory),
                    ]
                },
            );
        }
    }
    report.section(caption, sweep.run());

    // Per-phase search cost at one configuration (Lemma 16's 1/i shape).
    // Dense occupancy so that every phase pairs every cohort: the regime the
    // per-phase bound describes (random-sparse runs end in 2-4 phases
    // because unpaired cohorts retire — see the note below). Several rows
    // derive from one bounded batch.
    let (c, x) = (1u32 << 14, 512u32);
    let data: Vec<Digest> = ctx.trials(
        "Per-phase SplitSearch cost",
        scale.trials().min(30),
        seed_base("e8p", u64::from(c), u64::from(x)),
        |s| measure_one(c, x, s, false, Occupancy::Dense),
    );
    let max_phases = data.iter().map(|d| d.1.len()).max().unwrap_or(0);
    let mut phase_table = Table::new(&[
        "phase i",
        "cohort size p",
        "search rounds mean",
        "Lemma 16: 5·⌈log_(p+1) h⌉",
    ]);
    let h = ChannelTree::for_election(c).height();
    for i in 0..max_phases {
        let vals: Vec<u64> = data.iter().filter_map(|d| d.1.get(i).copied()).collect();
        if vals.is_empty() {
            continue;
        }
        let mean = vals.iter().sum::<u64>() as f64 / vals.len() as f64;
        let p = 1u64 << i;
        #[allow(clippy::cast_possible_truncation)]
        let lemma = split_search_budget(h, i as u32 + 1);
        phase_table.row_owned(vec![
            (i + 1).to_string(),
            p.to_string(),
            format!("{mean:.1}"),
            format!("{lemma:.0}"),
        ]);
    }
    report.section(
        "Per-phase SplitSearch cost at C=2^14, x=512, dense occupancy (winner's cohort)",
        phase_table,
    );
    report.note(
        "Per-phase search rounds decay as cohorts double — the coalescing-cohorts \
         acceleration of Lemma 16 — and totals track lg h · lg lg x."
            .to_string(),
    );
    report.note(
        "Occupancy matters: with sparse random leaves most cohorts find no partner \
         at the divergence level and retire (Fig. 3's pairing rule), so typical runs \
         finish in 2–4 phases and small cohorts. The O(log x)-phase, fully-coalescing \
         regime the theorem bounds is realized by dense occupancy, used above."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn rounds_fit_theorem_17() {
        let ctx = RunCtx::new(Scale::Quick);
        for (c, x) in [(64u32, 16u32), (1024, 64)] {
            let data = ctx.trials("rounds", 8, 3, |s| {
                measure_one(c, x, s, false, Occupancy::Random)
            });
            let h = ChannelTree::for_election(c).height();
            let budget = contention::theory::leaf_election_budget(h, x);
            for (rounds, _) in &data {
                assert!(
                    (*rounds as f64) <= budget,
                    "C={c} x={x}: {rounds} > {budget}"
                );
            }
        }
    }

    #[test]
    fn per_phase_cost_shrinks() {
        let data = RunCtx::new(Scale::Quick).trials("phases", 6, 1, |s| {
            measure_one(1 << 12, 128, s, false, Occupancy::Dense)
        });
        for (_, phases) in &data {
            if phases.len() >= 3 {
                assert!(
                    phases.last().unwrap() <= &phases[0],
                    "phase costs should shrink: {phases:?}"
                );
            }
        }
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 2);
    }
}
