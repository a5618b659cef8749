//! **E8** — Theorem 17 / Lemma 16: `LeafElection` elects a leader in
//! `O(log h · log log x)` rounds (`h = lg C`, `x` starting actives), and the
//! per-phase `SplitSearch` cost shrinks like `(1/i)·log h` as cohorts grow.

use contention::theory::lg;
use contention::LeafElection;
use contention_analysis::Table;
use mac_sim::campaign::SeedStream;
use mac_sim::{Engine, SimConfig, StopWhen};

use super::seed_base;
use crate::{sample_distinct, ExperimentReport, RunCtx, Samples};
use mac_sim::trials::fan_out;

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

/// Builds the `LeafElection` engine for one `(c, x, seed)` configuration.
fn build_engine(
    c: u32,
    x: u32,
    seed: u64,
    binary: bool,
    occupancy: Occupancy,
) -> Engine<LeafElection> {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(1_000_000);
    let mut exec = Engine::new(cfg);
    let leaves = u64::from(prev_pow2(c) / 2);
    let ids: Vec<u32> = match occupancy {
        Occupancy::Random => sample_distinct(leaves, x as usize, seed ^ 0xE8)
            .into_iter()
            .map(|id| id as u32 + 1)
            .collect(),
        Occupancy::Dense => (1..=x).collect(),
    };
    for id in ids {
        exec.add_node(if binary {
            LeafElection::with_binary_search(c, id)
        } else {
            LeafElection::new(c, id)
        });
    }
    exec
}

/// One `LeafElection` execution at one seed.
pub(crate) fn measure_one(c: u32, x: u32, seed: u64, binary: bool, occupancy: Occupancy) -> Digest {
    let mut exec = build_engine(c, x, seed, binary, occupancy);
    let report = exec
        .run()
        .unwrap_or_else(|e| panic!("trial with seed {seed} failed: {e}"));
    let winner = report.leaders.first().expect("leader elected");
    (
        report.rounds_to_solve().expect("solved"),
        exec.node(*winner).stats().search_rounds_by_phase.clone(),
    )
}

pub(crate) fn measure(
    c: u32,
    x: u32,
    trials: usize,
    seed: u64,
    binary: bool,
    occupancy: Occupancy,
) -> Vec<Digest> {
    fan_out(trials, seed, None, |s| {
        measure_one(c, x, s, binary, occupancy)
    })
}

fn prev_pow2(x: u32) -> u32 {
    1 << (31 - x.leading_zeros())
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
        let h = (prev_pow2(c) / 2).trailing_zeros();
        for &x in &xs {
            if x > prev_pow2(c) / 2 {
                continue;
            }
            sweep.row(
                scale.trials(),
                SeedStream::Offset(seed_base("e8", u64::from(c), u64::from(x))),
                Samples::default,
                move |seed, acc| {
                    acc.push(measure_one(c, x, seed, false, Occupancy::Random).0);
                },
                move |acc| {
                    let rounds = acc.0.finish();
                    let theory =
                        (lg(f64::from(h)).max(1.0)) * lg(lg(f64::from(x.max(2))).max(2.0)).max(1.0);
                    vec![
                        c.to_string(),
                        h.to_string(),
                        x.to_string(),
                        format!("{:.1}", rounds.mean),
                        format!("{:.0}", rounds.max),
                        format!("{theory:.1}"),
                        format!("{:.1}", rounds.mean / theory),
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
    // derive from one bounded trace batch, so this section stays on the
    // trial layer (itself a single-cell campaign).
    let (c, x) = (1u32 << 14, 512u32);
    let data = measure(
        c,
        x,
        scale.trials().min(30),
        seed_base("e8p", u64::from(c), u64::from(x)),
        false,
        Occupancy::Dense,
    );
    let max_phases = data.iter().map(|d| d.1.len()).max().unwrap_or(0);
    let mut phase_table = Table::new(&[
        "phase i",
        "cohort size p",
        "search rounds mean",
        "Lemma 16: 5·⌈log_(p+1) h⌉",
    ]);
    let h = (prev_pow2(c) / 2).trailing_zeros();
    for i in 0..max_phases {
        let vals: Vec<u64> = data.iter().filter_map(|d| d.1.get(i).copied()).collect();
        if vals.is_empty() {
            continue;
        }
        let mean = vals.iter().sum::<u64>() as f64 / vals.len() as f64;
        let p = 1u64 << i;
        #[allow(clippy::cast_precision_loss)]
        let lemma = 5.0 * (f64::from(h).ln() / ((p + 1) as f64).ln()).ceil().max(1.0);
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
        for (c, x) in [(64u32, 16u32), (1024, 64)] {
            let data = measure(c, x, 8, 3, false, Occupancy::Random);
            let h = f64::from((prev_pow2(c) / 2).trailing_zeros());
            // Concrete budget: per-phase 5*ceil(log_{p+1} h) + 2, summed.
            let mut budget = 2.0;
            for i in 0..=(f64::from(x).log2().ceil() as u32) {
                let p = f64::from(1u32 << i);
                budget += 5.0 * (h.ln() / (p + 1.0).ln()).ceil().max(1.0) + 2.0;
            }
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
        let data = measure(1 << 12, 128, 6, 1, false, Occupancy::Dense);
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
