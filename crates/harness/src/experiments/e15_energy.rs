//! **E15** (extension) — transmission energy. Round complexity is the
//! paper's metric, but for the radio networks motivating the model, the
//! number of *transmissions* is the battery cost. This experiment measures
//! total and per-node transmissions for every algorithm at a common
//! configuration — a dimension on which the paper's knock-out design turns
//! out to be extremely frugal (most nodes only ever listen).

use contention::baselines::{BinaryDescent, CdTournament, Decay, MultiChannelNoCd};
use contention::extensions::ExpectedConstant;
use contention::{FullAlgorithm, Params};
use mac_sim::campaign::{Aggregate, SeedStream};
use mac_sim::obs::RunRecorder;
use mac_sim::{CdMode, Engine, RunReport, SimConfig};
use std::collections::BTreeMap;

use super::{observe_trial, run_trial, seed_base};
use crate::{sample_distinct, ExperimentReport, RunCtx, Samples};

/// Streaming energy digest for one algorithm row, fed from the run's
/// [`mac_sim::Metrics`], the authoritative TX/RX energy count. A
/// [`mac_sim::obs::RunRecord`] carries the same totals; the
/// `recorded_energy_matches_legacy_metrics` test below pins the two equal.
#[derive(Default)]
struct EnergyAgg {
    rounds: Samples,
    total_tx: Samples,
    peak_tx: Samples,
    rx: Samples,
}

impl EnergyAgg {
    fn push(&mut self, report: &RunReport) {
        self.rounds.push(report.rounds_to_solve().expect("solved"));
        self.total_tx.push(report.metrics.transmissions);
        self.peak_tx
            .push(report.metrics.max_transmissions_per_node());
        self.rx.push(report.metrics.listens);
    }
}

impl Aggregate for EnergyAgg {
    fn merge(&mut self, other: Self) {
        self.rounds.merge(other.rounds);
        self.total_tx.merge(other.total_tx);
        self.peak_tx.merge(other.peak_tx);
        self.rx.merge(other.rx);
    }
}

/// Runs the experiment.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report =
        ExperimentReport::new("E15", "Transmission energy: who pays for symmetry breaking");
    let (c, n, active) = (64u32, 1u64 << 14, 1024usize);
    let trials = scale.trials().min(40);

    let caption = format!("Energy at C = {c}, n = 2^14, |A| = {active} (until solve)");
    let mut sweep = ctx.sweep::<EnergyAgg>(
        &caption,
        &[
            "algorithm",
            "rounds mean",
            "total tx mean",
            "tx per active node",
            "max tx by one node",
            "total rx mean",
        ],
    );
    let energy_row = |sweep: &mut crate::Sweep<EnergyAgg>,
                      name: &'static str,
                      tag: &'static str,
                      run_one: Box<dyn Fn(u64) -> RunReport + Send + Sync>| {
        sweep.row(
            trials,
            SeedStream::Offset(seed_base(tag, 0, 0)),
            EnergyAgg::default,
            move |seed, acc| acc.push(&run_one(seed)),
            move |acc| {
                #[allow(clippy::cast_precision_loss)]
                let per_node = acc.total_tx.mean() / active as f64;
                vec![
                    name.to_string(),
                    format!("{:.1}", acc.rounds.mean()),
                    format!("{:.0}", acc.total_tx.mean()),
                    format!("{per_node:.2}"),
                    format!("{:.1}", acc.peak_tx.mean()),
                    format!("{:.0}", acc.rx.mean()),
                ]
            },
        );
    };
    energy_row(
        &mut sweep,
        "this paper (pipeline)",
        "e15f",
        Box::new(move |s| {
            run_trial(
                &mut Engine::new(SimConfig::new(c).seed(s).max_rounds(1_000_000))
                    .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), c, n))),
            )
        }),
    );
    energy_row(
        &mut sweep,
        "expected-O(1)",
        "e15x",
        Box::new(move |s| {
            run_trial(
                &mut Engine::new(SimConfig::new(c).seed(s).max_rounds(1_000_000))
                    .populated((0..active).map(|_| ExpectedConstant::new(c, n))),
            )
        }),
    );
    energy_row(
        &mut sweep,
        "CD tournament",
        "e15t",
        Box::new(move |s| {
            run_trial(
                &mut Engine::new(SimConfig::new(c).seed(s).max_rounds(1_000_000))
                    .populated((0..active).map(|_| CdTournament::new())),
            )
        }),
    );
    energy_row(
        &mut sweep,
        "binary descent",
        "e15d",
        Box::new(move |s| {
            run_trial(
                &mut Engine::new(SimConfig::new(c).seed(s).max_rounds(1_000_000)).populated(
                    sample_distinct(n, active, s ^ 0x15)
                        .into_iter()
                        .map(|id| BinaryDescent::new(id, n)),
                ),
            )
        }),
    );
    energy_row(
        &mut sweep,
        "decay (no CD)",
        "e15y",
        Box::new(move |s| {
            let cfg = SimConfig::new(c)
                .seed(s)
                .cd_mode(CdMode::None)
                .max_rounds(1_000_000);
            run_trial(&mut Engine::new(cfg).populated((0..active).map(|_| Decay::new(n))))
        }),
    );
    energy_row(
        &mut sweep,
        "multi no-CD",
        "e15m",
        Box::new(move |s| {
            let cfg = SimConfig::new(c)
                .seed(s)
                .cd_mode(CdMode::None)
                .max_rounds(1_000_000);
            run_trial(
                &mut Engine::new(cfg).populated((0..active).map(|_| MultiChannelNoCd::new(c, n))),
            )
        }),
    );
    report.section(caption, sweep.run());

    // Where the pipeline's energy actually goes: the recorder attributes
    // every transmission and acting round to the acting node's own phase,
    // so this breakdown stays exact even when phases overlap. This table
    // derives many rows from one record batch at the pipeline row's seeds,
    // recomputed identically on every run, including resumed ones.
    let full_records = ctx.trials("energy by phase", trials, seed_base("e15f", 0, 0), |s| {
        let mut recorder = RunRecorder::new();
        observe_trial(
            &mut Engine::new(SimConfig::new(c).seed(s).max_rounds(1_000_000))
                .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), c, n))),
            &mut recorder,
        );
        recorder.into_record(s)
    });
    let mut by_phase: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for record in &full_records {
        for (label, tx) in &record.phase_transmissions {
            by_phase.entry(label.clone()).or_insert((0, 0)).0 += tx;
        }
        for (label, rounds) in &record.phase_node_rounds {
            by_phase.entry(label.clone()).or_insert((0, 0)).1 += rounds;
        }
    }
    let mut phase_table = contention_analysis::Table::new(&[
        "phase",
        "mean tx",
        "mean node-rounds",
        "tx per node-round",
    ]);
    // Per record, not per trial: a quarantined trial leaves no record.
    #[allow(clippy::cast_precision_loss)]
    let records = full_records.len().max(1) as f64;
    for (label, (tx, rounds)) in &by_phase {
        #[allow(clippy::cast_precision_loss)]
        phase_table.row_owned(vec![
            label.clone(),
            format!("{:.1}", *tx as f64 / records),
            format!("{:.1}", *rounds as f64 / records),
            format!("{:.4}", *tx as f64 / (*rounds).max(1) as f64),
        ]);
    }
    report.section(
        "Pipeline energy by phase (per-node attribution)",
        phase_table,
    );

    let primary_tx: u64 = full_records
        .iter()
        .flat_map(|record| record.channels.first())
        .map(|t| t.transmissions)
        .sum();
    let all_tx: u64 = full_records.iter().map(|record| record.transmissions).sum();
    #[allow(clippy::cast_precision_loss)]
    report.note(format!(
        "Channel concentration: {:.1}% of the pipeline's transmissions land on the \
         primary channel (the rest spread over the other {} channels during the \
         multi-channel knock-out steps).",
        100.0 * primary_tx as f64 / all_tx.max(1) as f64,
        c - 1
    ));
    report.note(
        "The knock-out pipeline's early steps transmit with probability 1/n̂, so the \
         average node sends well under one frame before the problem is solved; the \
         descent baseline makes every left-half node transmit every round, and the \
         expected-O(1) algorithm makes *everyone* transmit every test round — speed \
         bought with energy. This dimension is invisible in round complexity but \
         decisive for battery-powered deployments."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn pipeline_is_more_frugal_than_descent() {
        let (c, n, active) = (64u32, 1u64 << 12, 512usize);
        let ctx = RunCtx::new(Scale::Quick);
        let full = ctx.trials("pipeline", 8, 1, |s| {
            let mut exec = Engine::new(SimConfig::new(c).seed(s).max_rounds(1_000_000))
                .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
            exec.run().expect("runs").metrics.transmissions
        });
        let descent = ctx.trials("descent", 8, 1, |s| {
            let mut exec = Engine::new(SimConfig::new(c).seed(s).max_rounds(1_000_000)).populated(
                sample_distinct(n, active, s)
                    .into_iter()
                    .map(|id| BinaryDescent::new(id, n)),
            );
            exec.run().expect("runs").metrics.transmissions
        });
        let (full_tx, descent_tx) = (full.iter().sum::<u64>(), descent.iter().sum::<u64>());
        assert!(
            full_tx < descent_tx,
            "pipeline should out-frugal descent: {full_tx} vs {descent_tx}"
        );
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 2);
        assert_eq!(r.sections[0].table.len(), 6);
        assert!(!r.sections[1].table.is_empty());
    }

    #[test]
    fn recorded_energy_matches_legacy_metrics() {
        // The main table reads energy from the engine's Metrics, the
        // per-phase table and channel note from a RunRecord: both
        // accountings run side by side here and must agree exactly, field
        // for field.
        let (c, n, active) = (64u32, 1u64 << 12, 256usize);
        let pairs = RunCtx::new(Scale::Quick).trials("records", 6, 9, |s| {
            let mut exec = Engine::new(SimConfig::new(c).seed(s).max_rounds(1_000_000))
                .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
            let mut recorder = RunRecorder::new();
            let report = exec.run_observed(&mut recorder).expect("runs");
            (report, recorder.into_record(s))
        });
        for (report, record) in &pairs {
            assert_eq!(record.transmissions, report.metrics.transmissions);
            assert_eq!(record.listens, report.metrics.listens);
            assert_eq!(
                record.max_node_transmissions,
                report.metrics.max_transmissions_per_node()
            );
            assert_eq!(record.rounds, report.rounds_executed);
            let phase_tx: u64 = record.phase_transmissions.iter().map(|(_, v)| v).sum();
            assert_eq!(phase_tx, report.metrics.transmissions);
        }
    }
}
