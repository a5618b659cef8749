//! **E20** — the sparse-scale curve: the regime the active-set engine
//! exists for. The namespace `n` grows from `2^12` to `2^22` while the
//! active set stays pinned at `|A| = 500` (drawn through
//! [`SparsePopulation`], so the engine only ever materializes 500 slots).
//! Two things should happen, and the table measures both:
//!
//! * **rounds** grow as the paper's `O(log n / log C)` bound — `n` enters
//!   the algorithm only through its confidence target;
//! * **per-round engine work** stays flat — the active-set scheduler's
//!   cost is `O(|live|)` per round, independent of `n`, measured
//!   deterministically as protocol actions (transmissions + listens) per
//!   executed round.
//!
//! Host time is not measured here. The acts/round column is the exact,
//! repeatable form of the claim, and the `active_set_equivalence` suite
//! pins the active-set engine to the dense reference bit for bit.

use contention::theory::log_c_n;
use contention::{FullAlgorithm, Params};
use mac_sim::campaign::{Aggregate, SeedStream};
use mac_sim::{SimConfig, SparsePopulation};

use super::{run_trial, seed_base};
use crate::{cell_f64, ExperimentReport, RunCtx, Samples};

const C: u32 = 64;
const ACTIVE: usize = 500;

/// Rounds-to-solve and total protocol actions for one seeded run over a
/// namespace of `n`: a sparse population of [`ACTIVE`] identities, each
/// running the full pipeline parameterized by `n`.
fn one_run(n: u64, seed: u64) -> (u64, u64) {
    let pop = SparsePopulation::uniform(n, ACTIVE, 1, seed);
    let mut eng = pop.engine(
        SimConfig::new(C).seed(seed).max_rounds(1_000_000),
        |_virtual_id| FullAlgorithm::new(Params::practical(), C, n),
    );
    let report = run_trial(&mut eng);
    let rounds = report.rounds_to_solve().expect("solved");
    let acts = report.metrics.transmissions + report.metrics.listens;
    (rounds, acts)
}

/// Per-cell aggregate: rounds-to-solve and total actions, both streamed.
#[derive(Debug, Clone, Default)]
struct ScaleAgg {
    rounds: Samples,
    acts: Samples,
}

impl Aggregate for ScaleAgg {
    fn merge(&mut self, other: Self) {
        self.rounds.merge(other.rounds);
        self.acts.merge(other.acts);
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E20",
        "Sparse-scale curve: namespace 2^12..2^22 at |A| = 500 (active-set engine)",
    );
    let grid = scale.thin(&[12u32, 14, 16, 18, 20, 22]);
    let trials = scale.trials().min(60);

    let caption = format!("Rounds and per-round engine work vs namespace (C = {C}, |A| = {ACTIVE}, simultaneous wake)");
    let mut sweep = ctx.sweep::<ScaleAgg>(
        caption.clone(),
        &[
            "n",
            "rounds mean",
            "rounds p95",
            "rounds max",
            "mean/(lg n/lg C)",
            "acts/round",
        ],
    );
    for &exp in &grid {
        let n = 1u64 << exp;
        sweep.row(
            trials,
            SeedStream::Offset(seed_base("e20", u64::from(exp), 0)),
            ScaleAgg::default,
            move |seed, acc| {
                let (rounds, acts) = one_run(n, seed);
                acc.rounds.push(rounds);
                acc.acts.push(acts);
            },
            move |acc| {
                let rounds = acc.rounds.0.finish();
                let acts = acc.acts.0.finish();
                vec![
                    format!("2^{exp}"),
                    format!("{:.1}", rounds.mean),
                    format!("{:.0}", rounds.p95),
                    format!("{:.0}", rounds.max),
                    format!("{:.2}", rounds.mean / log_c_n(n, C)),
                    format!("{:.1}", acts.mean / rounds.mean),
                ]
            },
        );
    }
    let table = sweep.run();
    let (first, last) = (table.rows().first().cloned(), table.rows().last().cloned());
    report.section(caption, table);

    // Notes derive from rendered cells only (resume bit-identity).
    if let (Some(first), Some(last)) = (first, last) {
        let growth = cell_f64(&last[1]) / cell_f64(&first[1]);
        let work_drift = cell_f64(&last[5]) / cell_f64(&first[5]);
        report.note(format!(
            "The namespace grows 1024-fold across the grid, yet rounds grow only \
             {growth:.1}× — consistent with the O(log n / log C) bound (the \
             normalized column stays in a narrow constant band) — and engine \
             work per round moves by {work_drift:.2}×, pinned near |A| = {ACTIVE} \
             actions: the active-set scheduler's per-round cost depends on who \
             is awake, never on how many identities exist."
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cell_u64, RunCtx, Scale};

    #[test]
    fn rounds_grow_slowly_and_work_stays_flat() {
        let r = run(&RunCtx::new(Scale::Quick));
        let table = &r.sections[0].table;
        let rows = table.rows();
        assert!(rows.len() >= 3, "thinned grid keeps endpoints and middle");
        let first_mean = cell_f64(&rows[0][1]);
        let last_mean = cell_f64(&rows[rows.len() - 1][1]);
        // 1024× the namespace must cost far less than 1024× the rounds.
        assert!(
            last_mean < first_mean * 4.0,
            "rounds exploded with n: {first_mean} -> {last_mean}"
        );
        for row in rows {
            let acts_per_round = cell_f64(&row[5]);
            assert!(
                acts_per_round <= (ACTIVE as f64) * 1.05,
                "per-round work above the live-set ceiling: {acts_per_round}"
            );
            let _ = cell_u64(&row[3]);
        }
    }

    #[test]
    fn one_run_is_deterministic() {
        assert_eq!(one_run(1 << 16, 7), one_run(1 << 16, 7));
    }
}
